//! Hash-partitioned scatter-gather over per-shard [`Engine`]s.
//!
//! ## Why sharded output is identical to a single engine
//!
//! 1. Each shard's engine is **exact** (the SilkMoth guarantee): it
//!    returns precisely the sets of *its* partition whose relatedness to
//!    the reference clears the threshold, with exact scores. Signatures
//!    and filters only affect pruning, never results.
//! 2. A relatedness score depends only on the two sets' element strings:
//!    φ is a function of the per-pair token-equality classes (and, for
//!    edit similarity, the raw characters), both preserved by every
//!    shard's own dictionary encoding — unknown reference tokens get
//!    fresh ids that are consistent within the reference. The maximum
//!    matching is deterministic on an identical weight matrix, so scores
//!    are **bit-identical**, not merely approximately equal.
//! 3. The partition is disjoint and covering, so the union of shard
//!    results equals the unsharded result set; the gather step restores
//!    the single-engine ordering (ascending global id, or top-k rank via
//!    [`rank`](silkmoth_core::rank)). Per-shard `top_k` truncation is
//!    lossless for the global top-k: an item outside its own shard's
//!    top-k is outranked by k items globally too.

use std::sync::Arc;
use std::time::Instant;

use silkmoth_collection::{codec, Collection, ElemId, SetIdx, UpdateError};
use silkmoth_core::rank::merge_partitioned;
use silkmoth_core::{
    ConfigError, Engine, EngineConfig, PairExplanation, PassStats, PhaseTiming, QueryOutput,
    QuerySpec, Update, UpdateOutcome,
};
use silkmoth_storage::EngineState;

/// A collection hash-partitioned across N [`Engine`] shards, answering
/// searches by scatter-gather with output identical to one unsharded
/// engine (see the module docs for the argument).
///
/// The engine shards are `Send + Sync`, so a `ShardedEngine` drops
/// straight into server state behind an [`Arc`].
///
/// ## Incremental updates
///
/// [`apply`](Self::apply) routes each mutation to the owning shard:
/// appended sets take the next free **global** ids (monotonic, never
/// reused) and land on the shard FNV-1a picks for that id — the same
/// partition function [`build`](Self::build) uses, so an
/// incrementally-grown sharded engine partitions exactly like a
/// freshly-built one over the same id space. Removals tombstone in the
/// owning shard. Global ids are stable across **every** update,
/// including [`Update::Compact`] (compaction rewrites each shard's
/// internal storage; the global id map just drops its dead entries).
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Engine>,
    /// Per shard: local set slot → global set id (ascending).
    global_ids: Vec<Vec<SetIdx>>,
    cfg: EngineConfig,
    /// Live (non-tombstoned) sets across all shards.
    live: usize,
    /// Next global id to assign; ids are never reused.
    next_gid: SetIdx,
}

/// Scatter-gather [`QuerySpec`] execution output: the engine-level
/// [`QueryOutput`] with global set ids, plus per-shard pass stats.
#[derive(Debug, Clone)]
pub struct ShardedQueryOutput {
    /// Related sets `(global id, score)` in single-engine order
    /// (ascending id, or top-k rank when the spec asks for it).
    pub hits: Vec<(SetIdx, f64)>,
    /// One [`PassStats`] per shard, indexed by shard id.
    pub shard_stats: Vec<PassStats>,
    /// True when any shard's pass hit the spec's deadline: `hits` is a
    /// well-formed subset of the full answer.
    pub timed_out: bool,
    /// Per-hit diagnostics (global ids) when the spec asked for
    /// explanations: a positionally-aligned **prefix** of `hits` —
    /// the full list normally, shorter only when `timed_out` cut the
    /// explain phase short on some shard.
    pub explanations: Vec<(SetIdx, PairExplanation)>,
    /// One [`PhaseTiming`] per shard, indexed by shard id.
    pub shard_timings: Vec<PhaseTiming>,
}

impl ShardedQueryOutput {
    /// All shards' stats merged.
    pub fn merged_stats(&self) -> PassStats {
        merge_stats(&self.shard_stats)
    }

    /// All shards' phase timings merged — the element-wise **max**, i.e.
    /// the worst shard per phase, because shards run the phases
    /// concurrently and their wall times overlap (summing would
    /// overstate elapsed time by up to the shard count).
    pub fn merged_timing(&self) -> PhaseTiming {
        let mut total = PhaseTiming::default();
        for t in &self.shard_timings {
            total.max_merge(t);
        }
        total
    }
}

/// Merges per-shard stats into one (summing counters).
pub fn merge_stats(shard_stats: &[PassStats]) -> PassStats {
    let mut total = PassStats::default();
    for s in shard_stats {
        total.merge(s);
    }
    total
}

/// FNV-1a over the set id's little-endian bytes — the partition function.
/// Deterministic and stable across runs, so a collection always shards
/// the same way.
fn shard_of(gid: SetIdx, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in gid.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Builds each shard's engine on scoped threads, in shard order —
/// collection/dictionary/index construction dominates startup and
/// recovery time and the shards are independent, so build and restore
/// parallelize the same way searches scatter.
fn build_shards_parallel<P, F>(parts: Vec<P>, build: F) -> Result<Vec<Engine>, ConfigError>
where
    P: Send,
    F: Fn(P) -> Result<Engine, ConfigError> + Sync,
{
    if parts.len() <= 1 {
        return parts.into_iter().map(build).collect();
    }
    let mut outputs = Vec::with_capacity(parts.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| scope.spawn(|| build(part)))
            .collect();
        for h in handles {
            outputs.push(h.join().expect("shard build worker panicked"));
        }
    });
    outputs.into_iter().collect()
}

impl ShardedEngine {
    /// Partitions `raw` sets across `shards` engines (FNV-1a on the
    /// global set id) and builds each shard's collection, dictionary,
    /// index, and engine. `shards` is clamped to at least 1; a shard may
    /// end up empty, which is harmless.
    ///
    /// The tokenization is derived from `cfg` (as the CLI does), so the
    /// per-shard collections always match the configuration.
    pub fn build<S: AsRef<str>>(
        raw: &[Vec<S>],
        cfg: EngineConfig,
        shards: usize,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let n = shards.max(1);
        let mut parts: Vec<Vec<Vec<&str>>> = vec![Vec::new(); n];
        let mut global_ids: Vec<Vec<SetIdx>> = vec![Vec::new(); n];
        for (gid, set) in raw.iter().enumerate() {
            let shard = shard_of(gid as SetIdx, n);
            parts[shard].push(set.iter().map(AsRef::as_ref).collect());
            global_ids[shard].push(gid as SetIdx);
        }
        let tokenization = cfg.tokenization();
        let shards = build_shards_parallel(parts, |part| {
            Engine::new(Collection::build(&part, tokenization), cfg)
        })?;
        Ok(Self {
            shards,
            global_ids,
            cfg,
            live: raw.len(),
            next_gid: raw.len() as SetIdx,
        })
    }

    /// Rebuilds a sharded engine from recovered durable state — the
    /// [`EngineState`] a `silkmoth-storage` snapshot holds, validated.
    ///
    /// Slots in ascending gid order recreate each shard's local slot
    /// order (always ascending-gid, for a built *or* incrementally-grown
    /// engine), and each shard numbers the texts in the order they first
    /// occur in its slots — the element ids its own build would assign —
    /// so its collection is built from indices, hashing no text per
    /// occurrence. Tombstoned slots, whose contents are gone for good,
    /// become empty placeholder sets — no tokens, no postings,
    /// re-tombstoned before the shard engine is built — so idempotent
    /// re-removal and per-shard compaction replay exactly as they did on
    /// the live engine. Search output is unaffected by the missing
    /// dead-set tokens: scores depend only on token-equality classes.
    pub(crate) fn from_state(
        state: &EngineState,
        cfg: EngineConfig,
        shards: usize,
    ) -> Result<Self, ConfigError> {
        const UNSEEN: ElemId = ElemId::MAX;
        cfg.validate()?;
        let n = shards.max(1);
        let mut slots: Vec<(SetIdx, Option<&Vec<u32>>)> = state
            .live
            .iter()
            .map(|(gid, set)| (*gid, Some(set)))
            .collect();
        slots.extend(state.dead.iter().map(|&gid| (gid, None)));
        slots.sort_unstable_by_key(|&(gid, _)| gid);
        // Per shard: its texts, its slots' elements by their ids, and its
        // tombstoned slots; `local[t * n + shard]` is text t's id there.
        type Part<'a> = (Vec<&'a str>, Vec<Vec<ElemId>>, Vec<SetIdx>);
        let mut parts: Vec<Part> = vec![Default::default(); n];
        let mut local = vec![UNSEEN; state.texts.len() * n];
        let mut global_ids: Vec<Vec<SetIdx>> = vec![Vec::new(); n];
        for (gid, set) in slots {
            let shard = shard_of(gid, n);
            let (texts, sets, dead) = &mut parts[shard];
            if set.is_none() {
                dead.push(sets.len() as SetIdx);
            }
            let mut id_of = |t: &u32| {
                let id = &mut local[*t as usize * n + shard];
                if *id == UNSEEN {
                    *id = texts.len() as ElemId;
                    texts.push(&state.texts[*t as usize]);
                }
                *id
            };
            sets.push(set.into_iter().flatten().map(&mut id_of).collect());
            global_ids[shard].push(gid);
        }
        let tokenization = cfg.tokenization();
        let shards = build_shards_parallel(parts, |(texts, sets, dead)| {
            let mut collection = Collection::build_interned(&texts, &sets, tokenization);
            collection
                .remove_sets(&dead)
                .expect("dead locals index the slots just built");
            Engine::new(collection, cfg)
        })?;
        Ok(Self {
            shards,
            global_ids,
            cfg,
            live: state.live.len(),
            next_gid: state.next_id,
        })
    }

    /// The inverse of [`from_state`](Self::from_state): the live sets
    /// keyed by global id (ascending) and dictionary-coded across the
    /// shards, the tombstoned gids (ascending), and the next gid. The
    /// state is the same for any shard count.
    pub(crate) fn to_state(&self) -> EngineState {
        let mut live: Vec<(SetIdx, usize, SetIdx)> = Vec::with_capacity(self.live);
        let mut dead = Vec::new();
        for (shard, engine) in self.shards.iter().enumerate() {
            let collection = engine.collection();
            for (local, &gid) in self.global_ids[shard].iter().enumerate() {
                if collection.is_live(local as SetIdx) {
                    live.push((gid, shard, local as SetIdx));
                } else {
                    dead.push(gid);
                }
            }
        }
        live.sort_unstable_by_key(|&(gid, ..)| gid);
        dead.sort_unstable();
        let collections: Vec<&Collection> = self.shards.iter().map(Engine::collection).collect();
        let (texts, sets) = codec::intern(
            &collections,
            live.iter().map(|&(_, shard, local)| (shard, local)),
        );
        EngineState {
            texts: texts.into_iter().map(str::to_owned).collect(),
            live: live.iter().map(|&(gid, ..)| gid).zip(sets).collect(),
            dead,
            next_id: self.next_gid,
            tokenization: self.cfg.tokenization(),
        }
    }

    /// True when `gid` currently addresses a slot (live or tombstoned);
    /// compacted-away gids are gone for good.
    pub fn has_gid(&self, gid: SetIdx) -> bool {
        self.global_ids[shard_of(gid, self.shards.len())]
            .binary_search(&gid)
            .is_ok()
    }

    /// The global id the next appended set will take (ids are assigned
    /// sequentially and never reused) — with [`has_gid`](Self::has_gid),
    /// what batch validation needs to vet a group of updates against
    /// the engine state they will apply to.
    pub fn next_gid(&self) -> SetIdx {
        self.next_gid
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total set *slots* (live + tombstoned) across all shards — with
    /// [`len`](Self::len), the dead-slot ratio an auto-compaction
    /// policy watches.
    pub fn slot_count(&self) -> usize {
        self.shards.iter().map(|e| e.collection().len()).sum()
    }

    /// Live sets across all shards (tombstoned sets excluded).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the collection has no live sets.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The shared engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Live sets per shard, indexed by shard id.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|e| e.collection().live_len())
            .collect()
    }

    /// Bytes of element text across all **live** sets — what a
    /// per-collection byte quota meters. Computed by walking the live
    /// sets (no cached total), so callers should only pay for it when a
    /// quota is actually configured.
    pub fn text_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|e| {
                let coll = e.collection();
                coll.live_ids()
                    .map(|id| {
                        coll.set(id)
                            .elements
                            .iter()
                            .map(|el| el.text.len() as u64)
                            .sum::<u64>()
                    })
                    .sum::<u64>()
            })
            .sum()
    }

    /// Applies one mutation, routed to the owning shard(s); see the
    /// type-level docs for the id-stability guarantees. The returned
    /// [`UpdateOutcome`] carries **global** ids; `remap` is always
    /// `None` because compaction never renumbers global ids.
    pub fn apply(&mut self, update: Update) -> Result<UpdateOutcome, UpdateError> {
        let n = self.shards.len();
        match update {
            Update::Append(sets) => {
                let mut parts: Vec<Vec<Vec<String>>> = vec![Vec::new(); n];
                let mut appended = Vec::with_capacity(sets.len());
                for set in sets {
                    let gid = self.next_gid;
                    self.next_gid += 1;
                    let shard = shard_of(gid, n);
                    parts[shard].push(set);
                    self.global_ids[shard].push(gid);
                    appended.push(gid);
                }
                for (shard, part) in parts.into_iter().enumerate() {
                    if !part.is_empty() {
                        self.shards[shard]
                            .apply(Update::Append(part))
                            .expect("append cannot fail");
                    }
                }
                self.live += appended.len();
                Ok(UpdateOutcome {
                    appended,
                    removed: 0,
                    remap: None,
                })
            }
            Update::Remove(gids) => {
                // Resolve every global id to (shard, local slot) before
                // mutating anything, so an unknown id leaves the engine
                // untouched. A compacted-away gid no longer appears in
                // its shard's id map and is equally NoSuchSet.
                let mut per_shard: Vec<Vec<SetIdx>> = vec![Vec::new(); n];
                for &gid in &gids {
                    let shard = shard_of(gid, n);
                    let local = self.global_ids[shard]
                        .binary_search(&gid)
                        .map_err(|_| UpdateError::NoSuchSet(gid))?;
                    per_shard[shard].push(local as SetIdx);
                }
                let mut removed = 0;
                for (shard, locals) in per_shard.into_iter().enumerate() {
                    if !locals.is_empty() {
                        removed += self.shards[shard]
                            .apply(Update::Remove(locals))
                            .expect("locals were just resolved")
                            .removed;
                    }
                }
                self.live -= removed;
                Ok(UpdateOutcome {
                    appended: Vec::new(),
                    removed,
                    remap: None,
                })
            }
            Update::Compact => {
                for (shard, engine) in self.shards.iter_mut().enumerate() {
                    let out = engine.apply(Update::Compact)?;
                    let local_remap = out.remap.expect("compact returns a remap");
                    // Retained locals keep their relative order, so the
                    // global map compacts by dropping dead entries.
                    let old = std::mem::take(&mut self.global_ids[shard]);
                    self.global_ids[shard] = old
                        .into_iter()
                        .enumerate()
                        .filter(|&(local, _)| local_remap[local].is_some())
                        .map(|(_, gid)| gid)
                        .collect();
                }
                Ok(UpdateOutcome {
                    appended: Vec::new(),
                    removed: 0,
                    remap: None,
                })
            }
        }
    }

    /// The shard engines (for inspection; ids inside are shard-local).
    pub fn shards(&self) -> &[Engine] {
        &self.shards
    }

    /// Executes one [`QuerySpec`] by scatter-gather: every shard runs
    /// [`Engine::execute`] (encoding the spec's reference against its
    /// own dictionary), and the gather merges to single-engine order
    /// with global ids — byte-identical to one unsharded engine
    /// executing the same spec, by the argument in the module docs.
    pub fn execute(&self, spec: &QuerySpec) -> ShardedQueryOutput {
        self.execute_until(spec, None)
    }

    /// [`execute`](Self::execute) with an additional absolute deadline
    /// `cap` (the server's whole-request budget). Each shard honors the
    /// earlier of `cap` and the spec's own budget; a timeout on any
    /// shard flags the merged output.
    pub fn execute_until(&self, spec: &QuerySpec, cap: Option<Instant>) -> ShardedQueryOutput {
        let per_shard = self.scatter(|engine| engine.execute_until(spec, cap));
        self.gather_query(spec, per_shard)
    }

    /// Executes a batch of specs with one scatter: each shard runs the
    /// whole batch in order (so a shard's worker thread is reused across
    /// queries), and each spec's outputs are gathered exactly like
    /// [`execute`](Self::execute) — batch answers are identical to the
    /// same specs executed one by one.
    ///
    /// RELATED SET DISCOVERY over external references is this call with
    /// one spec per reference: reference `i`'s related sets, by global
    /// id, are output `i`'s hits.
    pub fn execute_batch(&self, specs: &[QuerySpec]) -> Vec<ShardedQueryOutput> {
        self.execute_batch_until(specs, None)
    }

    /// [`execute_batch`](Self::execute_batch) with a shared absolute
    /// deadline bounding the whole batch.
    pub fn execute_batch_until(
        &self,
        specs: &[QuerySpec],
        cap: Option<Instant>,
    ) -> Vec<ShardedQueryOutput> {
        let per_shard = self.scatter(|engine| {
            specs
                .iter()
                .map(|spec| engine.execute_until(spec, cap))
                .collect::<Vec<_>>()
        });
        let mut columns: Vec<std::vec::IntoIter<QueryOutput>> =
            per_shard.into_iter().map(Vec::into_iter).collect();
        specs
            .iter()
            .map(|spec| {
                let row = columns
                    .iter_mut()
                    .map(|c| c.next().expect("one output per spec per shard"))
                    .collect();
                self.gather_query(spec, row)
            })
            .collect()
    }

    /// Merges one spec's per-shard [`QueryOutput`]s (shard order) into
    /// the single-engine answer with global ids.
    fn gather_query(&self, spec: &QuerySpec, per_shard: Vec<QueryOutput>) -> ShardedQueryOutput {
        let mut shard_stats = Vec::with_capacity(self.shards.len());
        let mut shard_timings = Vec::with_capacity(self.shards.len());
        let mut parts = Vec::with_capacity(self.shards.len());
        let mut timed_out = false;
        let mut pool: Vec<(SetIdx, PairExplanation)> = Vec::new();
        for (shard, out) in per_shard.into_iter().enumerate() {
            shard_stats.push(out.stats);
            shard_timings.push(out.timing);
            timed_out |= out.timed_out;
            pool.extend(
                out.explanations
                    .into_iter()
                    .map(|(sid, e)| (self.global_ids[shard][sid as usize], e)),
            );
            parts.push(self.globalize(shard, out.hits));
        }
        let hits = merge_partitioned(parts, spec.top_k());
        // Keep explanations only for the hits that survived the global
        // merge, as a positionally-aligned *prefix* of `hits`: a shard
        // whose deadline expired mid-explain contributes explanations
        // for only some of its hits, and stopping at the first
        // unexplained hit (rather than skipping it) keeps `zip(hits,
        // explanations)` sound — shorter only when `timed_out`.
        let mut explanations = Vec::new();
        if spec.want_explain() {
            for &(gid, _) in &hits {
                let Some(i) = pool.iter().position(|&(g, _)| g == gid) else {
                    break;
                };
                explanations.push(pool.swap_remove(i));
            }
        }
        ShardedQueryOutput {
            hits,
            shard_stats,
            timed_out,
            explanations,
            shard_timings,
        }
    }

    /// Runs `pass` once per shard — on scoped threads when there is more
    /// than one shard — and gathers the outputs in shard order.
    fn scatter<T, F>(&self, pass: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Engine) -> T + Sync,
    {
        if self.shards.len() == 1 {
            return vec![pass(&self.shards[0])];
        }
        let mut outputs = Vec::with_capacity(self.shards.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|engine| scope.spawn(|| pass(engine)))
                .collect();
            for h in handles {
                outputs.push(h.join().expect("shard worker panicked"));
            }
        });
        outputs
    }

    /// Maps one shard's local result ids to global ids.
    fn globalize(&self, shard: usize, results: Vec<(SetIdx, f64)>) -> Vec<(SetIdx, f64)> {
        results
            .into_iter()
            .map(|(sid, score)| (self.global_ids[shard][sid as usize], score))
            .collect()
    }
}

/// A `ShardedEngine` is freely shareable across server workers.
#[allow(dead_code)]
fn _assert_send_sync(e: ShardedEngine) -> Arc<dyn Send + Sync> {
    Arc::new(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use silkmoth_core::{RelatednessMetric, Verdict};
    use silkmoth_text::SimilarityFunction;

    fn cfg(delta: f64) -> EngineConfig {
        EngineConfig::full(
            RelatednessMetric::Similarity,
            SimilarityFunction::Jaccard,
            delta,
            0.0,
        )
    }

    /// The sharded answer to `reference` with the `k` / `floor` knobs.
    fn hits(
        engine: &ShardedEngine,
        reference: &[String],
        k: Option<usize>,
        floor: Option<f64>,
    ) -> Vec<(SetIdx, f64)> {
        let mut spec = QuerySpec::new(reference.to_vec());
        if let Some(k) = k {
            spec = spec.with_top_k(k);
        }
        if let Some(f) = floor {
            spec = spec.with_floor(f).unwrap();
        }
        engine.execute(&spec).hits
    }

    fn corpus(n: usize) -> Vec<Vec<String>> {
        (0..n)
            .map(|i| {
                (0..3)
                    .map(|j| format!("w{} w{} shared{}", (i * 3 + j) % 7, (i + j) % 5, i % 4))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn partition_is_disjoint_and_covering() {
        let raw = corpus(40);
        let sharded = ShardedEngine::build(&raw, cfg(0.6), 3).unwrap();
        assert_eq!(sharded.shard_count(), 3);
        assert_eq!(sharded.len(), 40);
        let mut seen: Vec<SetIdx> = sharded.global_ids.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
        assert_eq!(sharded.shard_sizes().iter().sum::<usize>(), 40);
    }

    #[test]
    fn zero_shards_clamped_to_one() {
        let raw = corpus(5);
        let sharded = ShardedEngine::build(&raw, cfg(0.6), 0).unwrap();
        assert_eq!(sharded.shard_count(), 1);
    }

    #[test]
    fn empty_shards_are_harmless() {
        // 3 sets over 7 shards: most shards are empty, searches still work.
        let raw = corpus(3);
        let sharded = ShardedEngine::build(&raw, cfg(0.5), 7).unwrap();
        let out = sharded.execute(&QuerySpec::new(raw[0].clone()));
        assert!(out.hits.iter().any(|&(gid, _)| gid == 0));
        assert_eq!(out.shard_stats.len(), 7);
    }

    #[test]
    fn invalid_config_rejected_at_build() {
        let raw = corpus(4);
        assert!(matches!(
            ShardedEngine::build(&raw, cfg(0.0), 2),
            Err(ConfigError::DeltaOutOfRange(_))
        ));
    }

    #[test]
    fn incremental_append_partitions_like_a_fresh_build() {
        // Appending one set at a time must land every set on the same
        // shard a from-scratch build would choose (FNV-1a on the global
        // id), so incremental and fresh sharded engines agree exactly.
        let raw = corpus(30);
        let mut grown = ShardedEngine::build(&raw[..10], cfg(0.5), 3).unwrap();
        for set in &raw[10..] {
            let out = grown.apply(Update::Append(vec![set.clone()])).unwrap();
            assert_eq!(out.appended.len(), 1);
        }
        let fresh = ShardedEngine::build(&raw, cfg(0.5), 3).unwrap();
        assert_eq!(grown.len(), fresh.len());
        assert_eq!(grown.shard_sizes(), fresh.shard_sizes());
        assert_eq!(grown.global_ids, fresh.global_ids);
        for rid in [0usize, 12, 29] {
            let want = hits(&fresh, &raw[rid], None, None);
            let got = hits(&grown, &raw[rid], None, None);
            assert_eq!(got.len(), want.len(), "rid={rid}");
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.0, b.0, "rid={rid}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "rid={rid}");
            }
        }
    }

    #[test]
    fn remove_routes_to_owning_shard_and_validates_first() {
        let raw = corpus(20);
        let mut sharded = ShardedEngine::build(&raw, cfg(0.5), 3).unwrap();
        let out = sharded.apply(Update::Remove(vec![4, 4, 9])).unwrap();
        assert_eq!(out.removed, 2, "duplicate ids are idempotent");
        assert_eq!(sharded.len(), 18);
        assert_eq!(sharded.shard_sizes().iter().sum::<usize>(), 18);
        // Removed sets disappear from results.
        let found = hits(&sharded, &raw[4], Some(30), Some(0.0));
        assert!(found.iter().all(|&(gid, _)| gid != 4 && gid != 9));
        // An unknown gid fails by name without touching anything.
        assert_eq!(
            sharded.apply(Update::Remove(vec![0, 99])),
            Err(UpdateError::NoSuchSet(99))
        );
        assert_eq!(sharded.len(), 18);
    }

    #[test]
    fn compact_keeps_global_ids_stable() {
        let raw = corpus(24);
        let mut sharded = ShardedEngine::build(&raw, cfg(0.5), 7).unwrap();
        sharded.apply(Update::Remove(vec![2, 3, 11, 17])).unwrap();
        let before = hits(&sharded, &raw[5], None, None);
        let out = sharded.apply(Update::Compact).unwrap();
        assert_eq!(out.remap, None, "global ids never renumber");
        assert_eq!(sharded.len(), 20);
        let after = hits(&sharded, &raw[5], None, None);
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        // Appends after a compact continue the old numbering.
        let out = sharded.apply(Update::Append(vec![raw[0].clone()])).unwrap();
        assert_eq!(out.appended, vec![24]);
    }

    #[test]
    fn execute_matches_unsharded_engine_across_shard_counts() {
        let raw = corpus(60);
        let tokenization = cfg(0.5).tokenization();
        let single = Engine::new(Collection::build(&raw, tokenization), cfg(0.5)).unwrap();
        for shards in [1, 2, 7] {
            let sharded = ShardedEngine::build(&raw, cfg(0.5), shards).unwrap();
            for rid in [0usize, 17, 42] {
                for (k, floor) in [(None, None), (Some(5), Some(0.2)), (Some(3), Some(0.0))] {
                    let mut spec = QuerySpec::new(raw[rid].clone());
                    if let Some(k) = k {
                        spec = spec.with_top_k(k);
                    }
                    if let Some(f) = floor {
                        spec = spec.with_floor(f).unwrap();
                    }
                    let want = single.execute(&spec);
                    let got = sharded.execute(&spec);
                    assert_eq!(got.hits.len(), want.hits.len(), "shards={shards} rid={rid}");
                    for (a, b) in got.hits.iter().zip(&want.hits) {
                        assert_eq!(a.0, b.0, "shards={shards} rid={rid}");
                        assert_eq!(a.1.to_bits(), b.1.to_bits(), "shards={shards} rid={rid}");
                    }
                    assert!(!got.timed_out);
                }
            }
        }
    }

    #[test]
    fn execute_batch_equals_one_by_one() {
        let raw = corpus(40);
        let sharded = ShardedEngine::build(&raw, cfg(0.5), 3).unwrap();
        let specs: Vec<QuerySpec> = raw
            .iter()
            .step_by(5)
            .map(|set| {
                QuerySpec::new(set.clone())
                    .with_top_k(6)
                    .with_floor(0.1)
                    .unwrap()
            })
            .collect();
        let batch = sharded.execute_batch(&specs);
        assert_eq!(batch.len(), specs.len());
        for (spec, got) in specs.iter().zip(&batch) {
            let want = sharded.execute(spec);
            assert_eq!(got.hits.len(), want.hits.len());
            for (a, b) in got.hits.iter().zip(&want.hits) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
            assert_eq!(got.shard_stats, want.shard_stats);
        }
    }

    #[test]
    fn execute_explanations_survive_the_global_merge_bit_for_bit() {
        let raw = corpus(30);
        let eds = |metric, delta, alpha| {
            EngineConfig::full(metric, SimilarityFunction::Eds { q: 3 }, delta, alpha)
        };
        let mut explained = 0;
        for cfg in [
            cfg(0.5),
            eds(RelatednessMetric::Containment, 0.6, 0.0),
            eds(RelatednessMetric::Similarity, 0.5, 0.8),
        ] {
            for shards in [1, 2, 7] {
                let mut sharded = ShardedEngine::build(&raw[..24], cfg, shards).unwrap();
                // Fresh; removed from and appended to; compacted after that.
                for state in 0..3 {
                    match state {
                        1 => {
                            sharded.apply(Update::Remove(vec![3, 8])).unwrap();
                            sharded.apply(Update::Append(raw[24..].to_vec())).unwrap();
                        }
                        2 => {
                            sharded.apply(Update::Compact).unwrap();
                        }
                        _ => {}
                    }
                    let empty = Vec::new();
                    for reference in [&raw[0], &raw[13], &raw[27], &empty] {
                        for (k, floor) in [(None, None), (Some(4), Some(0.0)), (None, Some(0.0))] {
                            let ctx = format!("{cfg:?} shards={shards} state {state} k={k:?}");
                            let mut spec = QuerySpec::new(reference.clone()).with_explain(true);
                            if let Some(k) = k {
                                spec = spec.with_top_k(k);
                            }
                            if let Some(floor) = floor {
                                spec = spec.with_floor(floor).unwrap();
                            }
                            let out = sharded.execute(&spec);
                            assert_eq!(out.explanations.len(), out.hits.len(), "{ctx}");
                            for ((gid, score), (egid, expl)) in
                                out.hits.iter().zip(&out.explanations)
                            {
                                assert_eq!(gid, egid, "{ctx}: explanations aligned with hits");
                                assert_eq!(expl.verdict, Verdict::Related, "{ctx}");
                                let rel = expl.relatedness.unwrap();
                                assert_eq!(rel.to_bits(), score.to_bits(), "{ctx} set {gid}");
                            }
                            if reference.is_empty() && k.is_none() && floor == Some(0.0) {
                                assert_eq!(out.hits.len(), sharded.len(), "{ctx}");
                            }
                            explained += out.hits.len();
                        }
                    }
                }
            }
        }
        assert!(explained > 500, "{explained} hits explained");
    }

    #[test]
    fn search_matches_unsharded_engine() {
        let raw = corpus(60);
        let tokenization = cfg(0.5).tokenization();
        let single = Engine::new(Collection::build(&raw, tokenization), cfg(0.5)).unwrap();
        let sharded = ShardedEngine::build(&raw, cfg(0.5), 4).unwrap();
        for rid in [0usize, 17, 42] {
            let want = single.execute(&QuerySpec::new(raw[rid].clone())).hits;
            let got = hits(&sharded, &raw[rid], None, None);
            assert_eq!(got.len(), want.len(), "rid={rid}");
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.0, b.0, "rid={rid}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "rid={rid}");
            }
        }
    }
}
