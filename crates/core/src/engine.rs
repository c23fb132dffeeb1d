//! The unified engine: RELATED SET SEARCH and RELATED SET DISCOVERY
//! (Problems 1–2, Algorithm 3).

use std::sync::Arc;
use std::time::Instant;

use crate::config::{ConfigError, EngineConfig, RelatednessMetric};
use crate::explain::{recorded, PairExplanation, Verdict};
use crate::filter::{PassStats, Restriction, Searcher};
use crate::query::QueryIter;
use crate::spec::{PhaseTiming, QueryOutput, QuerySpec};
use silkmoth_collection::{Collection, InvertedIndex, SetIdx, SetRecord, UpdateError};

/// One related pair found by discovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelatedPair {
    /// Reference-side index (into the collection, or a list of
    /// references).
    pub r: u32,
    /// Collection-side set index.
    pub s: SetIdx,
    /// Relatedness score (≥ δ).
    pub score: f64,
}

/// Output of a discovery run.
#[derive(Debug, Clone)]
pub struct DiscoveryOutput {
    /// All related pairs, sorted by `(r, s)`.
    pub pairs: Vec<RelatedPair>,
    /// Aggregated counters over all passes.
    pub stats: PassStats,
}

/// One mutation of an engine's collection, applied by
/// [`Engine::apply`] (or routed to the owning shard by
/// `ShardedEngine::apply` in `silkmoth-server`).
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// Append new sets (raw element strings), assigning them the next
    /// free ids.
    Append(Vec<Vec<String>>),
    /// Tombstone the given set ids. Idempotent per id; an id that was
    /// never assigned fails with [`UpdateError::NoSuchSet`] without
    /// mutating anything.
    Remove(Vec<SetIdx>),
    /// Drop tombstoned slots, renumber the survivors densely, and
    /// rebuild dictionary + index from scratch.
    Compact,
}

/// What an [`Engine::apply`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Ids assigned to appended sets, in input order (empty otherwise).
    pub appended: Vec<SetIdx>,
    /// How many sets were newly tombstoned (0 otherwise).
    pub removed: usize,
    /// For [`Update::Compact`]: the slot remapping `old id → new id`
    /// (`None` entries are dropped tombstones). `None` for the other
    /// updates — their ids are stable.
    pub remap: Option<Vec<Option<SetIdx>>>,
}

/// The SilkMoth engine: an indexed collection plus a configuration.
///
/// The engine *owns* its collection behind an [`Arc`], so it has no
/// lifetime parameter: it can be stored in service state, moved across
/// threads, and shared behind another `Arc` (it is `Send + Sync`).
/// Construction accepts either a `Collection` (which is moved in) or an
/// existing `Arc<Collection>` (shared, no copy), and builds the inverted
/// index once (§3); every subsequent search pass reuses it.
///
/// [`Engine::new`] takes the whole configuration as one
/// [`EngineConfig`] (start from [`EngineConfig::full`]) and validates it
/// there. A search is a [`QuerySpec`] handed to
/// [`execute`](Engine::execute); discovery is
/// [`discover_self_parallel`](Engine::discover_self_parallel) for the
/// self-join, and [`execute_batch`](Engine::execute_batch) over one spec
/// per reference otherwise:
///
/// ```
/// use silkmoth_core::{Engine, EngineConfig, QuerySpec, RelatednessMetric};
/// use silkmoth_collection::{Collection, Tokenization};
/// use silkmoth_text::SimilarityFunction;
///
/// let raw = vec![
///     vec!["77 Massachusetts Avenue Boston MA", "Fifth Street Seattle MA 02115"],
///     vec!["1 Main St Springfield IL", "2 Oak Ave Portland OR"],
/// ];
/// let collection = Collection::build(&raw, Tokenization::Whitespace);
/// let cfg = EngineConfig::full(
///     RelatednessMetric::Containment,
///     SimilarityFunction::Jaccard,
///     0.5, // δ
///     0.0, // α
/// );
/// let engine = Engine::new(collection, cfg).unwrap();
/// let spec = QuerySpec::new(vec!["77 Massachusetts Avenue Boston MA".to_string()]);
/// let out = engine.execute(&spec);
/// assert_eq!(out.hits[0].0, 0);
/// ```
#[derive(Debug)]
pub struct Engine {
    collection: Arc<Collection>,
    index: InvertedIndex,
    cfg: EngineConfig,
}

impl Engine {
    /// Validates `cfg` ([`EngineConfig::validate`]) and its tokenization
    /// against the collection's, then builds the inverted index.
    pub fn new(
        collection: impl Into<Arc<Collection>>,
        cfg: EngineConfig,
    ) -> Result<Self, ConfigError> {
        let collection = collection.into();
        cfg.validate()?;
        let need = cfg.tokenization();
        if collection.tokenization() != need {
            return Err(ConfigError::TokenizationMismatch {
                have: collection.tokenization(),
                need,
            });
        }
        Ok(Self {
            index: InvertedIndex::build(&collection),
            collection,
            cfg,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The underlying inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The indexed collection.
    pub fn collection(&self) -> &Collection {
        &self.collection
    }

    /// The shared handle to the indexed collection (cheap to clone).
    pub fn collection_arc(&self) -> &Arc<Collection> {
        &self.collection
    }

    /// Applies one mutation to the engine's collection, keeping the
    /// inverted index (the prefilter state every search pass reads)
    /// consistent without a full rebuild where possible:
    ///
    /// * [`Update::Append`] encodes the new sets against the existing
    ///   dictionary (growing it in place) and extends the index's
    ///   posting lists — appended ids are past every indexed set, so
    ///   each list's sort order is preserved;
    /// * [`Update::Remove`] tombstones in O(ids): postings stay, and
    ///   candidate admission filters by liveness instead;
    /// * [`Update::Compact`] rewrites collection, dictionary, and index
    ///   from the live sets (identical to a from-scratch build).
    ///
    /// The collection lives behind an [`Arc`]; if other handles to it
    /// exist (from [`collection_arc`](Self::collection_arc)), the update
    /// operates copy-on-write on this engine's own clone and the other
    /// handles keep the pre-update snapshot.
    ///
    /// After any sequence of updates, search/discover output is
    /// **byte-identical** (ids modulo the documented renumbering,
    /// scores bit-for-bit, tie order) to an engine freshly built from
    /// the equivalent live sets — enforced by
    /// `tests/update_equivalence.rs`.
    pub fn apply(&mut self, update: Update) -> Result<UpdateOutcome, UpdateError> {
        match update {
            Update::Append(sets) => {
                let collection = Arc::make_mut(&mut self.collection);
                let from = collection.len() as SetIdx;
                let appended = collection.append_sets(&sets).collect();
                self.index.append_sets(collection, from);
                Ok(UpdateOutcome {
                    appended,
                    removed: 0,
                    remap: None,
                })
            }
            Update::Remove(ids) => {
                let removed = Arc::make_mut(&mut self.collection).remove_sets(&ids)?;
                Ok(UpdateOutcome {
                    appended: Vec::new(),
                    removed,
                    remap: None,
                })
            }
            Update::Compact => {
                let collection = Arc::make_mut(&mut self.collection);
                let remap = collection.compact();
                self.index = InvertedIndex::build(collection);
                Ok(UpdateOutcome {
                    appended: Vec::new(),
                    removed: 0,
                    remap: Some(remap),
                })
            }
        }
    }

    /// Executes one [`QuerySpec`] — the owned, serializable query
    /// description every layer of the stack shares, and the one way a
    /// search enters the engine. The reference is encoded against this
    /// engine's dictionary and one ordered filter/verify pass runs over
    /// its candidates, best relatedness bound first: to the floor (the
    /// engine's δ, or the spec's), or — with `top_k` — until no
    /// unexamined candidate can still rank. The output is
    /// **byte-identical** (ids, tie order, bit-equal scores) to ranking
    /// [`brute::search`](crate::brute::search) at the same floor.
    ///
    /// Infallible: a [`QuerySpec`] is validated at construction, so
    /// there is nothing left to reject here.
    pub fn execute(&self, spec: &QuerySpec) -> QueryOutput {
        self.execute_until(spec, None)
    }

    /// [`execute`](Self::execute) with an additional absolute deadline
    /// `cap` (e.g. a server's whole-request budget): execution stops at
    /// the earlier of the spec's own budget and `cap`, returning a
    /// truncated output flagged [`QueryOutput::timed_out`].
    pub fn execute_until(&self, spec: &QuerySpec, cap: Option<Instant>) -> QueryOutput {
        let r = self.collection.encode_set(spec.reference());
        // The budget clock starts here and covers the whole execution,
        // explanations included.
        let deadline = spec.deadline_at(cap);
        // Phase timing brackets the phases with clock reads and nothing
        // else — the result path (hits, stats, explanations) is the same
        // code with or without anyone consuming `timing`.
        let t0 = Instant::now();
        let cfg = spec.effective_cfg(&self.cfg);
        let mut searcher = Searcher::new(&self.collection, &self.index, cfg);
        let mut pass = QueryIter::stage(&mut searcher, &r, Restriction::default(), None, deadline);
        let staged_at = Instant::now();
        let hits = match spec.top_k() {
            Some(k) => pass.top_k(k),
            None => pass.related(),
        };
        let verified_at = Instant::now();
        let stats = pass.stats();
        let mut timed_out = pass.timed_out();
        let mut explanations = Vec::new();
        if spec.want_explain() && !hits.is_empty() {
            match explain_hits(&mut searcher, &r, &hits, deadline) {
                Some((explained, cut)) => (explanations, timed_out) = (explained, timed_out | cut),
                None => timed_out = true,
            }
        }
        let timing = PhaseTiming {
            stage: staged_at - t0,
            verify: verified_at - staged_at,
            explain: verified_at.elapsed(),
        };
        QueryOutput {
            hits,
            stats,
            timed_out,
            explanations,
            timing,
        }
    }

    /// Executes a batch of specs across `threads` workers (0 = available
    /// parallelism) via the same scoped-thread fan-out as
    /// [`discover_self_parallel`](Self::discover_self_parallel), returning
    /// one [`QueryOutput`] per spec in input order. Each spec's deadline
    /// budget starts when *its* execution starts on a worker.
    ///
    /// RELATED SET DISCOVERY (Problem 1) over external references is this
    /// call with one spec per reference: reference `i`'s related sets
    /// are output `i`'s hits, and its counters are output `i`'s stats.
    pub fn execute_batch(&self, specs: &[QuerySpec], threads: usize) -> Vec<QueryOutput> {
        // A whole query is worth a thread: parallelize down to one spec
        // per worker, unlike the self-join's cheap per-pass unit.
        let workers = resolve_threads(threads).min(specs.len());
        fan_out_ranges(specs.len(), workers, |range| {
            range.map(|i| self.execute(&specs[i])).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// RELATED SET DISCOVERY (Problem 1) as a self-join (`R = S`, the §8.1
    /// string/schema matching setup), across `threads` workers
    /// (0 = available parallelism; 1 runs on the calling thread).
    ///
    /// For the symmetric SET-SIMILARITY metric, each unordered pair is
    /// reported once with `r < s` (any related pair is guaranteed to be
    /// found from both sides, so each pass can restrict candidates to
    /// larger ids). For SET-CONTAINMENT the metric is asymmetric and all
    /// ordered pairs `r ≠ s` are reported.
    ///
    /// Each live set is the reference of one pass — the pass
    /// [`execute`](Self::execute) runs, at the engine's δ — and each
    /// worker keeps one [`Searcher`] across its passes. Pairs come back
    /// sorted by `(r, s)` and stats merged, so the thread count never
    /// changes the output.
    pub fn discover_self_parallel(&self, threads: usize) -> DiscoveryOutput {
        // One search pass is cheap; only spawn when every worker gets at
        // least two of them.
        let threads = resolve_threads(threads);
        let total = self.collection.len();
        let workers = if total < 2 * threads { 1 } else { threads };
        let outputs = fan_out_ranges(total, workers, |range| {
            let mut searcher = Searcher::new(&self.collection, &self.index, self.cfg);
            let mut pairs = Vec::new();
            let mut stats = PassStats::default();
            for rid in range.map(|rid| rid as SetIdx) {
                // Tombstoned sets participate on neither side of a
                // self-join.
                if !self.collection.is_live(rid) {
                    continue;
                }
                let restriction = match self.cfg.metric {
                    RelatednessMetric::Similarity => Restriction {
                        min_exclusive: Some(rid),
                        skip: None,
                    },
                    RelatednessMetric::Containment => Restriction {
                        min_exclusive: None,
                        skip: Some(rid),
                    },
                };
                let r = self.collection.set(rid);
                let mut pass = QueryIter::stage(&mut searcher, r, restriction, None, None);
                let related = pass.related().into_iter();
                pairs.extend(related.map(|(s, score)| RelatedPair { r: rid, s, score }));
                stats.merge(&pass.stats());
            }
            (pairs, stats)
        });
        let mut pairs = Vec::new();
        let mut stats = PassStats::default();
        for (p, s) in outputs {
            pairs.extend(p);
            stats.merge(&s);
        }
        pairs.sort_unstable_by(|a, b| a.r.cmp(&b.r).then(a.s.cmp(&b.s)));
        DiscoveryOutput { pairs, stats }
    }
}

/// Resolves a `--threads`-style count: 0 means all available cores.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Explains `hits` with one more pass at the searcher's floor, restricted
/// to them, which records them all. It honors the same budget: `None`
/// when `deadline` has passed before the pass could be staged (nothing is
/// walked), otherwise the prefix of the hits it verified in time and
/// whether the deadline cut it short.
fn explain_hits(
    searcher: &mut Searcher<'_>,
    r: &SetRecord,
    hits: &[(SetIdx, f64)],
    deadline: Option<Instant>,
) -> Option<(Vec<(SetIdx, PairExplanation)>, bool)> {
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return None;
    }
    let mut ids: Vec<SetIdx> = hits.iter().map(|&(sid, _)| sid).collect();
    ids.sort_unstable();
    let pass = QueryIter::stage(searcher, r, Restriction::default(), Some(&ids), deadline);
    let (mut record, cut) = pass.into_record();
    let explained = (hits.iter())
        .map_while(|&(sid, _)| Some((sid, recorded(&mut record, sid)?.clone())))
        .take_while(|(_, pair)| pair.verdict == Verdict::Related)
        .collect();
    Some((explained, cut))
}

/// The scoped-thread fan-out shared by parallel discovery and
/// [`Engine::execute_batch`]: splits `0..total` into per-worker ranges
/// and runs `run_range` once per range — serially (one range) when
/// `workers <= 1` — returning the per-range outputs in range order, so
/// the worker count never changes the result. Callers pick `workers`
/// for their unit of work: discovery batches at least two passes per
/// worker (a pass is cheap), while query batches spawn down to one
/// spec per worker (a whole query is worth a thread).
pub(crate) fn fan_out_ranges<T, F>(total: usize, workers: usize, run_range: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> T + Sync,
{
    let workers = workers.min(total);
    if workers <= 1 {
        return vec![run_range(0..total)];
    }
    let chunk = total.div_ceil(workers);
    let mut outputs = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let run_range = &run_range;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(total);
                scope.spawn(move || run_range(lo..hi))
            })
            .collect();
        for h in handles {
            outputs.push(h.join().expect("fan-out worker panicked"));
        }
    });
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FilterKind, SignatureScheme};
    use crate::explain::explain_pair;
    use silkmoth_collection::paper_example::table2;
    use silkmoth_collection::{SetRecord, Tokenization};
    use silkmoth_text::SimilarityFunction;

    fn jaccard_cfg(metric: RelatednessMetric, delta: f64) -> EngineConfig {
        EngineConfig::full(metric, SimilarityFunction::Jaccard, delta, 0.0)
    }

    /// The spec for `r`'s element texts.
    fn spec(r: &SetRecord) -> QuerySpec {
        QuerySpec::new(r.elements.iter().map(|e| e.text.to_string()).collect())
    }

    /// The sets related to `r` at the engine's δ, in ascending id order.
    fn related(engine: &Engine, r: &SetRecord) -> Vec<(SetIdx, f64)> {
        engine.execute(&spec(r)).hits
    }

    #[test]
    fn engine_is_send_sync_and_static() {
        fn assert_send_sync_static<T: Send + Sync + 'static>() {}
        assert_send_sync_static::<Engine>();
    }

    #[test]
    fn engine_shares_collection_via_arc() {
        let (c, r) = table2();
        let shared = Arc::new(c);
        let engine = Engine::new(
            shared.clone(),
            jaccard_cfg(RelatednessMetric::Containment, 0.7),
        )
        .unwrap();
        // No copy was made: the engine's collection is the same allocation.
        assert!(Arc::ptr_eq(engine.collection_arc(), &shared));
        // And the engine can be used from another thread after the local
        // handle is gone.
        drop(shared);
        let hits = std::thread::spawn(move || related(&engine, &r))
            .join()
            .unwrap();
        assert_eq!(hits[0].0, 3);
    }

    fn tiny() -> Collection {
        Collection::build(&[vec!["a b", "c d"]], Tokenization::Whitespace)
    }

    #[test]
    fn new_rejects_bad_delta() {
        for delta in [0.0, -0.5, 1.5, f64::NAN] {
            let cfg = jaccard_cfg(RelatednessMetric::Similarity, delta);
            let err = Engine::new(tiny(), cfg).unwrap_err();
            assert!(matches!(err, ConfigError::DeltaOutOfRange(_)), "δ={delta}");
        }
    }

    #[test]
    fn new_rejects_bad_alpha() {
        for alpha in [-0.1, 1.0, 2.0] {
            let cfg = EngineConfig::full(
                RelatednessMetric::Similarity,
                SimilarityFunction::Jaccard,
                0.7,
                alpha,
            );
            let err = Engine::new(tiny(), cfg).unwrap_err();
            assert!(matches!(err, ConfigError::AlphaOutOfRange(_)), "α={alpha}");
        }
    }

    #[test]
    fn new_rejects_tokenization_mismatch() {
        // Whitespace collection + edit similarity (needs q-grams).
        let cfg = EngineConfig::full(
            RelatednessMetric::Similarity,
            SimilarityFunction::Eds { q: 2 },
            0.7,
            0.7,
        );
        let err = Engine::new(tiny(), cfg).unwrap_err();
        assert!(matches!(err, ConfigError::TokenizationMismatch { .. }));
    }

    #[test]
    fn search_example2() {
        let (c, r) = table2();
        let engine = Engine::new(c, jaccard_cfg(RelatednessMetric::Containment, 0.7)).unwrap();
        let hits = related(&engine, &r);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 3);
    }

    #[test]
    fn tokenization_mismatch_rejected() {
        let (c, _) = table2();
        let cfg = EngineConfig::full(
            RelatednessMetric::Similarity,
            SimilarityFunction::Eds { q: 2 },
            0.7,
            0.0,
        );
        assert!(matches!(
            Engine::new(c, cfg),
            Err(ConfigError::TokenizationMismatch { .. })
        ));
    }

    #[test]
    fn discover_self_similarity_reports_unordered_pairs() {
        let raw = vec![
            vec!["a b c", "d e f"],
            vec!["a b c", "d e f"],
            vec!["x y z", "p q r"],
        ];
        let c = silkmoth_collection::Collection::build(&raw, Tokenization::Whitespace);
        let engine = Engine::new(c, jaccard_cfg(RelatednessMetric::Similarity, 0.9)).unwrap();
        let out = engine.discover_self_parallel(1);
        assert_eq!(out.pairs.len(), 1);
        assert_eq!((out.pairs[0].r, out.pairs[0].s), (0, 1));
        assert!((out.pairs[0].score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn discover_self_containment_reports_ordered_pairs() {
        // Set 0 ⊂ set 1: contain(0→1) holds, contain(1→0) does not (δ high).
        let raw = vec![vec!["a b", "c d"], vec!["a b", "c d", "e f", "g h"]];
        let c = silkmoth_collection::Collection::build(&raw, Tokenization::Whitespace);
        let engine = Engine::new(c, jaccard_cfg(RelatednessMetric::Containment, 0.9)).unwrap();
        let out = engine.discover_self_parallel(1);
        assert_eq!(out.pairs.len(), 1);
        assert_eq!((out.pairs[0].r, out.pairs[0].s), (0, 1));
    }

    #[test]
    fn parallel_matches_serial() {
        let raw: Vec<Vec<String>> = (0..40)
            .map(|i| {
                (0..3)
                    .map(|j| format!("w{} w{} shared{}", (i * 3 + j) % 7, (i + j) % 5, i % 4))
                    .collect()
            })
            .collect();
        let c = silkmoth_collection::Collection::build(&raw, Tokenization::Whitespace);
        let c = Arc::new(c);
        for metric in [
            RelatednessMetric::Similarity,
            RelatednessMetric::Containment,
        ] {
            let engine = Engine::new(c.clone(), jaccard_cfg(metric, 0.6)).unwrap();
            let serial = engine.discover_self_parallel(1);
            let parallel = engine.discover_self_parallel(4);
            assert_eq!(serial.pairs.len(), parallel.pairs.len());
            for (a, b) in serial.pairs.iter().zip(&parallel.pairs) {
                assert_eq!((a.r, a.s), (b.r, b.s));
                assert!((a.score - b.score).abs() < 1e-12);
            }
            assert_eq!(serial.stats, parallel.stats);
        }
    }

    #[test]
    fn discover_external_references() {
        let (c, r) = table2();
        let engine = Engine::new(c, jaccard_cfg(RelatednessMetric::Containment, 0.7)).unwrap();
        let specs = [spec(&r), QuerySpec::new(vec!["zz qq".into()])];
        let out = engine.execute_batch(&specs, 1);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].hits.len(), 1);
        assert_eq!(out[0].hits[0].0, 3);
        assert!(out[1].hits.is_empty());
    }

    #[test]
    fn execute_batch_matches_serial_on_external_refs() {
        let raw: Vec<Vec<String>> = (0..30)
            .map(|i| {
                (0..3)
                    .map(|j| format!("w{} w{} shared{}", (i * 3 + j) % 7, (i + j) % 5, i % 4))
                    .collect()
            })
            .collect();
        let c = silkmoth_collection::Collection::build(&raw, Tokenization::Whitespace);
        let engine = Engine::new(c, jaccard_cfg(RelatednessMetric::Similarity, 0.5)).unwrap();
        let specs: Vec<QuerySpec> = (0..20)
            .map(|i| {
                QuerySpec::new(vec![
                    format!("w{} shared{}", i % 7, i % 4),
                    format!("w{} w{}", (i + 1) % 5, (i + 2) % 7),
                ])
            })
            .collect();
        let serial = engine.execute_batch(&specs, 1);
        for threads in [2, 3, 8] {
            let parallel = engine.execute_batch(&specs, threads);
            assert_eq!(parallel.len(), serial.len(), "threads={threads}");
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.hits, b.hits, "threads={threads}");
                assert_eq!(a.stats, b.stats, "threads={threads}");
            }
        }
    }

    #[test]
    fn apply_append_extends_results_like_a_rebuild() {
        let raw = vec![vec!["a b c".to_string()], vec!["x y z".to_string()]];
        let cfg = jaccard_cfg(RelatednessMetric::Similarity, 0.9);
        let mut engine = Engine::new(
            silkmoth_collection::Collection::build(&raw, Tokenization::Whitespace),
            cfg,
        )
        .unwrap();
        let out = engine
            .apply(Update::Append(vec![
                vec!["a b c".into()],
                vec!["p q".into()],
            ]))
            .unwrap();
        assert_eq!(out.appended, vec![2, 3]);
        let r = engine.collection().set(0).clone();
        let results = related(&engine, &r);
        assert_eq!(results.iter().map(|&(s, _)| s).collect::<Vec<_>>(), [0, 2]);
        // Self-discovery sees the appended duplicate too.
        let pairs = engine.discover_self_parallel(1).pairs;
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].r, pairs[0].s), (0, 2));
    }

    #[test]
    fn apply_remove_tombstones_and_compact_renumbers() {
        let raw: Vec<Vec<String>> = (0..5).map(|i| vec![format!("a b c{i}")]).collect();
        let cfg = jaccard_cfg(RelatednessMetric::Similarity, 0.3);
        let mut engine = Engine::new(
            silkmoth_collection::Collection::build(&raw, Tokenization::Whitespace),
            cfg,
        )
        .unwrap();
        let r = engine.collection().set(0).clone();
        assert_eq!(related(&engine, &r).len(), 5);

        assert_eq!(engine.apply(Update::Remove(vec![1, 3])).unwrap().removed, 2);
        let ids: Vec<_> = related(&engine, &r).iter().map(|&(s, _)| s).collect();
        assert_eq!(ids, [0, 2, 4], "tombstoned sets never match");
        assert!(matches!(
            engine.apply(Update::Remove(vec![17])),
            Err(UpdateError::NoSuchSet(17))
        ));

        let remap = engine.apply(Update::Compact).unwrap().remap.unwrap();
        assert_eq!(remap, vec![Some(0), None, Some(1), None, Some(2)]);
        assert_eq!(engine.collection().len(), 3);
        let ids: Vec<_> = related(&engine, &r).iter().map(|&(s, _)| s).collect();
        assert_eq!(ids, [0, 1, 2], "compaction renumbers densely");
    }

    #[test]
    fn apply_is_copy_on_write_for_shared_collections() {
        let (c, r) = table2();
        let shared = Arc::new(c);
        let mut engine = Engine::new(
            shared.clone(),
            jaccard_cfg(RelatednessMetric::Containment, 0.7),
        )
        .unwrap();
        engine.apply(Update::Remove(vec![3])).unwrap();
        // The outside handle still sees the pre-update snapshot…
        assert_eq!(shared.live_len(), 4);
        assert!(!Arc::ptr_eq(engine.collection_arc(), &shared));
        // …while the engine's own search reflects the removal.
        assert!(related(&engine, &r).is_empty());
    }

    #[test]
    fn execute_is_byte_identical_to_ranked_brute_search() {
        let (c, r) = table2();
        let cfg = jaccard_cfg(RelatednessMetric::Containment, 0.7);
        let engine = Engine::new(c, cfg).unwrap();
        for (k, floor) in [
            (None, None),
            (Some(2), None),
            (None, Some(0.0)),
            (Some(3), Some(0.2)),
        ] {
            let mut spec = spec(&r);
            let mut at = cfg;
            if let Some(f) = floor {
                spec = spec.with_floor(f).unwrap();
                at.delta = f.max(f64::MIN_POSITIVE);
            }
            let mut want = crate::brute::search(&r, engine.collection(), &at);
            if let Some(k) = k {
                spec = spec.with_top_k(k);
                crate::rank::rank_top_k(&mut want, k);
            }
            let out = engine.execute(&spec);
            assert_eq!(out.hits.len(), want.len(), "k={k:?} floor={floor:?}");
            for (a, b) in out.hits.iter().zip(&want) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
            assert!(!out.timed_out);
            assert!(out.explanations.is_empty());
        }
    }

    #[test]
    fn execute_batch_equals_one_by_one_across_thread_counts() {
        let raw: Vec<Vec<String>> = (0..30)
            .map(|i| {
                (0..3)
                    .map(|j| format!("w{} w{} shared{}", (i * 3 + j) % 7, (i + j) % 5, i % 4))
                    .collect()
            })
            .collect();
        let c = silkmoth_collection::Collection::build(&raw, Tokenization::Whitespace);
        let engine = Engine::new(c, jaccard_cfg(RelatednessMetric::Similarity, 0.5)).unwrap();
        let specs: Vec<QuerySpec> = raw
            .iter()
            .step_by(3)
            .map(|set| {
                QuerySpec::new(set.clone())
                    .with_top_k(4)
                    .with_floor(0.2)
                    .unwrap()
            })
            .collect();
        let serial: Vec<_> = specs.iter().map(|s| engine.execute(s)).collect();
        for threads in [1, 2, 7] {
            let batch = engine.execute_batch(&specs, threads);
            assert_eq!(batch.len(), serial.len(), "threads={threads}");
            for (a, b) in batch.iter().zip(&serial) {
                assert_eq!(a.hits.len(), b.hits.len(), "threads={threads}");
                for (x, y) in a.hits.iter().zip(&b.hits) {
                    assert_eq!(x.0, y.0);
                    assert_eq!(x.1.to_bits(), y.1.to_bits());
                }
                assert_eq!(a.stats, b.stats);
            }
        }
    }

    /// Sets of two to five two-word elements over nine words that share
    /// prefixes, so that pairs are near under Jaccard and Eds alike.
    fn near_corpus(sets: usize) -> Vec<Vec<String>> {
        let words = [
            "alpha", "alpine", "alps", "beta", "betamax", "gamma", "gammon", "delta", "deltas",
        ];
        (0..sets)
            .map(|i| {
                (0..2 + i % 4)
                    .map(|j| format!("{} {}", words[(i * 5 + j * 3) % 9], words[(i + j * 7) % 9]))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn every_hit_is_explained_with_its_score_bit_for_bit() {
        let raw = near_corpus(36);
        let eds = |metric, delta, alpha| {
            EngineConfig::full(metric, SimilarityFunction::Eds { q: 3 }, delta, alpha)
        };
        let mut explained = 0;
        for cfg in [
            jaccard_cfg(RelatednessMetric::Similarity, 0.5),
            eds(RelatednessMetric::Containment, 0.6, 0.0),
            eds(RelatednessMetric::Similarity, 0.5, 0.8),
        ] {
            let c = silkmoth_collection::Collection::build(&raw[..30], cfg.tokenization());
            let mut engine = Engine::new(c, cfg).unwrap();
            // Fresh; removed from and appended to; compacted after that.
            for state in 0..3 {
                match state {
                    1 => {
                        engine.apply(Update::Remove(vec![2, 7])).unwrap();
                        engine.apply(Update::Append(raw[30..].to_vec())).unwrap();
                    }
                    2 => {
                        engine.apply(Update::Compact).unwrap();
                    }
                    _ => {}
                }
                let empty = Vec::new();
                for reference in raw.iter().step_by(5).chain([&empty]) {
                    for (k, floor) in [(None, None), (Some(3), Some(0.2)), (None, Some(0.0))] {
                        let ctx = format!("{cfg:?} state {state} {reference:?} k={k:?}");
                        let mut spec = QuerySpec::new(reference.clone()).with_explain(true);
                        if let Some(k) = k {
                            spec = spec.with_top_k(k);
                        }
                        if let Some(floor) = floor {
                            spec = spec.with_floor(floor).unwrap();
                        }
                        let out = engine.execute(&spec);
                        assert_eq!(out.explanations.len(), out.hits.len(), "{ctx}");
                        for (&(sid, score), (esid, expl)) in out.hits.iter().zip(&out.explanations)
                        {
                            assert_eq!(sid, *esid, "{ctx}");
                            assert_eq!(expl.verdict, Verdict::Related, "{ctx}");
                            let rel = expl.relatedness.unwrap();
                            assert_eq!(rel.to_bits(), score.to_bits(), "{ctx} set {sid}");
                        }
                        explained += out.hits.len();
                        if reference.is_empty() && floor == Some(0.0) {
                            // Every live set relates to nothing at score 0.
                            assert_eq!(out.hits.len(), engine.collection().live_len(), "{ctx}");
                        }
                        if floor.is_none() {
                            // At the engine's δ, one explained pair at a
                            // time: the pass calls related exactly the hits.
                            let r = engine.collection().encode_set(reference);
                            for sid in engine.collection().live_ids() {
                                let related =
                                    explain_pair(&engine, &r, sid).verdict == Verdict::Related;
                                let hit = out.hits.iter().any(|&(s, _)| s == sid);
                                assert_eq!(related, hit, "{ctx} set {sid}");
                            }
                        }
                    }
                }
            }
        }
        assert!(explained > 300, "{explained} hits explained");
    }

    #[test]
    fn empty_reference_executes_without_panicking() {
        // `QuerySpec::new` accepts an empty reference, so execution must
        // tolerate it: every set matches vacuously with score 0, which
        // only a floor of exactly 0 admits.
        let raw = vec![vec!["a b c".to_string()], vec!["d e".to_string()]];
        for metric in [
            RelatednessMetric::Similarity,
            RelatednessMetric::Containment,
        ] {
            let cfg = jaccard_cfg(metric, 0.5);
            let engine = Engine::new(
                silkmoth_collection::Collection::build(&raw, cfg.tokenization()),
                cfg,
            )
            .unwrap();
            let out = engine.execute(&QuerySpec::new(Vec::new()));
            assert!(out.hits.is_empty(), "{metric:?}: δ=0.5 admits nothing");
            let all = engine.execute(&QuerySpec::new(Vec::new()).with_floor(0.0).unwrap());
            assert_eq!(all.hits.len(), raw.len(), "{metric:?}");
            assert!(all.hits.iter().all(|&(_, score)| score == 0.0));
        }
    }

    #[test]
    fn execute_with_zero_deadline_is_truncated_and_flagged() {
        let (c, r) = table2();
        let engine = Engine::new(c, jaccard_cfg(RelatednessMetric::Containment, 0.7)).unwrap();
        let spec = spec(&r)
            .with_floor(0.0)
            .unwrap()
            .with_deadline(std::time::Duration::ZERO);
        let out = engine.execute(&spec);
        assert!(out.timed_out);
        // Nothing was verified before the (already-expired) budget was
        // checked, so the output is the empty — but well-formed — prefix.
        assert_eq!(out.stats.verified, 0);
        assert_eq!(out.hits.len(), out.stats.results);
        // Explanations honor the same budget: none are computed on an
        // expired clock.
        let out = engine.execute(&spec.with_explain(true));
        assert!(out.timed_out);
        assert!(out.explanations.is_empty());
    }

    #[test]
    fn a_clock_that_runs_out_after_the_search_stages_no_explaining_pass() {
        // The search pass found hits in time; by the time they would be
        // explained the budget is gone, so no second posting walk starts.
        let (c, r) = table2();
        let engine = Engine::new(c, jaccard_cfg(RelatednessMetric::Containment, 0.7)).unwrap();
        let hits = engine.execute(&spec(&r)).hits;
        assert_eq!(hits.len(), 1);
        let r = engine.collection().encode_set(spec(&r).reference());
        let mut searcher = Searcher::new(engine.collection(), engine.index(), *engine.config());
        let past = Some(Instant::now());
        assert!(explain_hits(&mut searcher, &r, &hits, past).is_none());
        let (explained, cut) = explain_hits(&mut searcher, &r, &hits, None).unwrap();
        assert!(!cut);
        assert_eq!(explained.len(), 1);
        assert_eq!(explained[0].1.verdict, Verdict::Related);
    }

    #[test]
    fn all_scheme_filter_combinations_agree_on_table2_discovery() {
        let (c, _) = table2();
        let c = Arc::new(c);
        let mut reference: Option<Vec<(u32, u32)>> = None;
        for scheme in [
            SignatureScheme::Weighted,
            SignatureScheme::Unweighted,
            SignatureScheme::Skyline,
            SignatureScheme::Dichotomy,
            SignatureScheme::CombinedUnweighted,
        ] {
            for filter in [
                FilterKind::None,
                FilterKind::Check,
                FilterKind::CheckAndNearestNeighbor,
            ] {
                let cfg = EngineConfig {
                    metric: RelatednessMetric::Similarity,
                    similarity: SimilarityFunction::Jaccard,
                    delta: 0.5,
                    alpha: 0.0,
                    scheme,
                    filter,
                    reduction: false,
                };
                let engine = Engine::new(c.clone(), cfg).unwrap();
                let pairs: Vec<(u32, u32)> = engine
                    .discover_self_parallel(1)
                    .pairs
                    .iter()
                    .map(|p| (p.r, p.s))
                    .collect();
                match &reference {
                    None => reference = Some(pairs),
                    Some(want) => assert_eq!(&pairs, want, "{scheme:?} {filter:?}"),
                }
            }
        }
    }
}
