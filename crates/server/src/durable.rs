//! Durability glue: [`ShardedEngine`] as a
//! [`StoreEngine`], so the service can
//! run over a [`Store`](silkmoth_storage::Store) — every update
//! WAL-logged before it is acknowledged, recovery via snapshot +
//! replay (`silkmoth serve --data-dir`).
//!
//! Global ids are **stable across every update including compaction**,
//! so snapshots store gids verbatim, a compaction WAL record is the bare
//! update, and replay never renumbers.

use silkmoth_collection::UpdateError;
use silkmoth_core::{ConfigError, EngineConfig, Update, UpdateOutcome};
use silkmoth_storage::{EngineState, StorageError, StoreEngine};

use crate::shard::ShardedEngine;

/// Everything a snapshot does not store about a sharded engine: the
/// serving configuration and the shard count. Supplied at
/// [`Store::open`](silkmoth_storage::Store::open) from the CLI flags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSpec {
    /// The engine configuration to serve with.
    pub cfg: EngineConfig,
    /// How many shards to partition across (clamped to ≥ 1). The shard
    /// count is free to differ between runs: partitioning is a pure
    /// function of the stable gids, and scatter-gather output is
    /// provably independent of it.
    pub shards: usize,
}

impl StoreEngine for ShardedEngine {
    type Spec = ShardSpec;

    fn restore(spec: &Self::Spec, state: EngineState) -> Result<Self, StorageError> {
        state.validate()?;
        let need = spec.cfg.tokenization();
        if state.tokenization != need {
            return Err(StorageError::Config(ConfigError::TokenizationMismatch {
                have: state.tokenization,
                need,
            }));
        }
        ShardedEngine::from_state(&state, spec.cfg, spec.shards).map_err(StorageError::Config)
    }

    fn capture(&self) -> EngineState {
        self.to_state()
    }

    fn check_update(&self, update: &Update) -> Result<(), UpdateError> {
        if let Update::Remove(gids) = update {
            if let Some(&bad) = gids.iter().find(|&&gid| !self.has_gid(gid)) {
                return Err(UpdateError::NoSuchSet(bad));
            }
        }
        Ok(())
    }

    fn apply_update(&mut self, update: Update) -> Result<UpdateOutcome, UpdateError> {
        self.apply(update)
    }

    fn live_len(&self) -> usize {
        self.len()
    }

    fn slot_len(&self) -> usize {
        self.slot_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silkmoth_core::{QuerySpec, RelatednessMetric};
    use silkmoth_text::SimilarityFunction;

    fn cfg() -> EngineConfig {
        EngineConfig::full(
            RelatednessMetric::Similarity,
            SimilarityFunction::Jaccard,
            0.5,
            0.0,
        )
    }

    fn corpus(n: usize) -> Vec<Vec<String>> {
        (0..n)
            .map(|i| vec![format!("w{} w{} shared{}", i % 7, (i + 1) % 5, i % 4)])
            .collect()
    }

    /// capture → restore round-trips a mutated engine into one with
    /// byte-identical search behavior, across shard counts — including
    /// a *different* shard count than the engine was captured at.
    #[test]
    fn capture_restore_roundtrip_is_byte_identical() {
        let raw = corpus(30);
        for &(from_shards, to_shards) in &[(1usize, 1usize), (2, 2), (7, 7), (3, 5)] {
            let mut engine = ShardedEngine::build(&raw, cfg(), from_shards).unwrap();
            engine
                .apply(Update::Append(vec![vec!["brand new".into()]]))
                .unwrap();
            engine.apply(Update::Remove(vec![2, 11, 30])).unwrap();
            let state = StoreEngine::capture(&engine);
            let spec = ShardSpec {
                cfg: cfg(),
                shards: to_shards,
            };
            let back = <ShardedEngine as StoreEngine>::restore(&spec, state).unwrap();
            assert_eq!(back.len(), engine.len());
            assert_eq!(back.slot_count(), engine.slot_count());
            for probe in [&raw[0], &raw[12]] {
                let spec = QuerySpec::new(probe.clone());
                let want = engine.execute(&spec).hits;
                let got = back.execute(&spec).hits;
                assert_eq!(got.len(), want.len());
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.0, b.0, "{from_shards}→{to_shards}");
                    assert_eq!(a.1.to_bits(), b.1.to_bits(), "{from_shards}→{to_shards}");
                }
            }
            // The restored engine keeps evolving identically: appended
            // gids continue the same numbering, dead gids stay
            // re-removable, unknown gids stay named errors.
            let mut back = back;
            let out = back
                .apply(Update::Append(vec![vec!["after restore".into()]]))
                .unwrap();
            assert_eq!(out.appended, vec![31]);
            assert_eq!(back.apply(Update::Remove(vec![2])).unwrap().removed, 0);
            assert!(back.apply(Update::Remove(vec![99])).is_err());
        }
    }

    #[test]
    fn check_update_matches_apply_acceptance() {
        let raw = corpus(12);
        let mut engine = ShardedEngine::build(&raw, cfg(), 3).unwrap();
        engine.apply(Update::Remove(vec![4])).unwrap();
        // Tombstoned gid: still addressable (idempotent remove).
        assert!(engine.check_update(&Update::Remove(vec![4])).is_ok());
        assert_eq!(
            engine.check_update(&Update::Remove(vec![3, 44])),
            Err(UpdateError::NoSuchSet(44))
        );
        // After compaction the dead gid is gone for good.
        engine.apply(Update::Compact).unwrap();
        assert_eq!(
            engine.check_update(&Update::Remove(vec![4])),
            Err(UpdateError::NoSuchSet(4))
        );
        assert!(engine.check_update(&Update::Compact).is_ok());
        assert!(engine
            .check_update(&Update::Append(vec![vec!["x".into()]]))
            .is_ok());
    }

    #[test]
    fn tokenization_mismatch_is_a_named_config_error() {
        let engine = ShardedEngine::build(&corpus(4), cfg(), 2).unwrap();
        let state = StoreEngine::capture(&engine);
        let edit_spec = ShardSpec {
            cfg: EngineConfig::full(
                RelatednessMetric::Similarity,
                SimilarityFunction::Eds { q: 2 },
                0.5,
                0.0,
            ),
            shards: 2,
        };
        assert!(matches!(
            <ShardedEngine as StoreEngine>::restore(&edit_spec, state),
            Err(StorageError::Config(
                ConfigError::TokenizationMismatch { .. }
            ))
        ));
    }
}
