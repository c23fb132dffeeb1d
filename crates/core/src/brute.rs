//! Brute-force baseline: every pair verified with maximum matching, no
//! signatures, no filters (the `O(n³m²)` strawman of §1).
//!
//! The engine is guaranteed to produce exactly this output (§1: "SILKMOTH
//! is guaranteed to produce the exact same output as the naive method");
//! the equivalence tests in this crate and in `tests/` hold SilkMoth to
//! that promise on every scheme × filter × metric × φ combination.

use crate::config::{EngineConfig, RelatednessMetric};
use crate::engine::RelatedPair;
use crate::phi::Phi;
use crate::verify::{verify_pair, VerifyCost};
use silkmoth_collection::{Collection, SetRecord};

/// All live sets of `collection` related to `r`, by exhaustive
/// verification (tombstoned sets are skipped, mirroring the engine).
pub fn search(r: &SetRecord, collection: &Collection, cfg: &EngineConfig) -> Vec<(u32, f64)> {
    let phi = Phi::new(cfg.similarity, cfg.alpha);
    let mut cost = VerifyCost::default();
    let mut out = Vec::new();
    for sid in collection.live_ids() {
        if let Some(score) = verify_pair(r, collection.set(sid), cfg, &phi, &mut cost) {
            out.push((sid, score));
        }
    }
    out
}

/// All related pairs among external references × collection.
pub fn discover(
    refs: &[SetRecord],
    collection: &Collection,
    cfg: &EngineConfig,
) -> Vec<RelatedPair> {
    let mut out = Vec::new();
    for (rid, r) in refs.iter().enumerate() {
        for (s, score) in search(r, collection, cfg) {
            out.push(RelatedPair {
                r: rid as u32,
                s,
                score,
            });
        }
    }
    out
}

/// Self-join discovery with the same pair conventions as
/// [`Engine::discover_self_parallel`](crate::Engine::discover_self_parallel):
/// unordered `r < s` pairs for SET-SIMILARITY, ordered `r ≠ s` pairs for
/// SET-CONTAINMENT.
pub fn discover_self(collection: &Collection, cfg: &EngineConfig) -> Vec<RelatedPair> {
    let phi = Phi::new(cfg.similarity, cfg.alpha);
    let mut cost = VerifyCost::default();
    let mut out = Vec::new();
    for rid in collection.live_ids() {
        let r = collection.set(rid);
        for sid in collection.live_ids() {
            let admit = match cfg.metric {
                RelatednessMetric::Similarity => sid > rid,
                RelatednessMetric::Containment => sid != rid,
            };
            if !admit {
                continue;
            }
            if let Some(score) = verify_pair(r, collection.set(sid), cfg, &phi, &mut cost) {
                out.push(RelatedPair {
                    r: rid,
                    s: sid,
                    score,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FilterKind, SignatureScheme};
    use crate::{Engine, QuerySpec};
    use silkmoth_collection::paper_example::table2;
    use silkmoth_text::SimilarityFunction;

    #[test]
    fn engine_matches_brute_on_table2() {
        let (c, r) = table2();
        for metric in [
            RelatednessMetric::Similarity,
            RelatednessMetric::Containment,
        ] {
            for delta in [0.3, 0.5, 0.7, 0.9] {
                let cfg = EngineConfig::full(metric, SimilarityFunction::Jaccard, delta, 0.0);
                let engine = Engine::new(c.clone(), cfg).unwrap();
                let texts = r.elements.iter().map(|e| e.text.to_string()).collect();
                let fast = engine.execute(&QuerySpec::new(texts)).hits;
                let slow = search(&r, &c, &cfg);
                assert_eq!(fast.len(), slow.len(), "{metric:?} δ={delta}");
                for (a, b) in fast.iter().zip(&slow) {
                    assert_eq!(a.0, b.0);
                    assert!((a.1 - b.1).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn engine_matches_brute_self_join() {
        let (c, _) = table2();
        for metric in [
            RelatednessMetric::Similarity,
            RelatednessMetric::Containment,
        ] {
            for delta in [0.4, 0.6] {
                let cfg = EngineConfig {
                    metric,
                    similarity: SimilarityFunction::Jaccard,
                    delta,
                    alpha: 0.0,
                    scheme: SignatureScheme::Dichotomy,
                    filter: FilterKind::CheckAndNearestNeighbor,
                    reduction: true,
                };
                let engine = Engine::new(c.clone(), cfg).unwrap();
                let fast = engine.discover_self_parallel(1).pairs;
                let slow = discover_self(&c, &cfg);
                let f: Vec<(u32, u32)> = fast.iter().map(|p| (p.r, p.s)).collect();
                let s: Vec<(u32, u32)> = slow.iter().map(|p| (p.r, p.s)).collect();
                assert_eq!(f, s, "{metric:?} δ={delta}");
            }
        }
    }
}
