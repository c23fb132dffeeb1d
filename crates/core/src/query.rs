//! Parameterized, streamable searches over an [`Engine`].
//!
//! [`Query`] is the fluent, borrowed front end; since the QuerySpec
//! migration it is a thin wrapper that **compiles down to a
//! [`QuerySpec`]** — [`run`](Query::run) and [`iter`](Query::iter) both
//! build one (which is where the floor is validated, in exactly one
//! place) and execute through the same machinery as
//! [`Engine::execute`](crate::Engine::execute).

use std::time::{Duration, Instant};

use crate::config::ConfigError;
use crate::engine::{Engine, SearchOutput};
use crate::filter::{PassStats, Searcher, StagedPass, Step};
use crate::rank::TopK;
use crate::spec::QuerySpec;
use silkmoth_collection::{SetIdx, SetRecord};

/// A parameterized RELATED SET SEARCH, created by [`Engine::query`].
///
/// By default [`run`](Self::run) behaves exactly like
/// [`Engine::search`]: all sets related to the reference at the engine's
/// δ, in ascending set-id order. Per-query overrides compose on top:
///
/// * [`floor`](Self::floor) replaces the relatedness threshold for this
///   query only (validated to lie in `[0, 1]` — out-of-range floors are a
///   [`ConfigError::FloorOutOfRange`], never silently clamped);
/// * [`top_k`](Self::top_k) ranks the results by score and keeps the `k`
///   best. Ties are broken deterministically: **score descending, then
///   set id ascending**. The pass stops as soon as no unexamined
///   candidate can still rank (see [`QueryIter`]).
/// * [`deadline`](Self::deadline) bounds the query's wall-clock budget;
///   see [`QuerySpec::with_deadline`].
///
/// [`iter`](Self::iter) streams `(set, score)` results as verification
/// proves them, for early termination; `top_k` does not apply there
/// (a streamed result cannot be taken back when a better one arrives).
///
/// Everything a `Query` can express, a [`QuerySpec`] can too — and the
/// spec is owned and serializable. `run()` literally builds one and
/// executes it, so the two paths cannot drift.
#[derive(Clone, Copy)]
pub struct Query<'e, 'r> {
    engine: &'e Engine,
    r: &'r SetRecord,
    k: Option<usize>,
    floor: Option<f64>,
    deadline: Option<Duration>,
}

impl<'e, 'r> Query<'e, 'r> {
    pub(crate) fn new(engine: &'e Engine, r: &'r SetRecord) -> Self {
        Self {
            engine,
            r,
            k: None,
            floor: None,
            deadline: None,
        }
    }

    /// Keep only the `k` most related sets, ranked by score descending
    /// with ties broken by ascending set id. Usually combined with
    /// [`floor`](Self::floor), since the engine's δ still decides which
    /// sets are admitted at all.
    pub fn top_k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Overrides the relatedness threshold for this query: only sets with
    /// relatedness ≥ `floor` are returned, and the search pass prunes
    /// with δ = `floor` — the same exactness guarantee, down to the
    /// floor.
    ///
    /// `floor` must lie in `[0, 1]`; anything else makes
    /// [`run`](Self::run)/[`iter`](Self::iter) return
    /// [`ConfigError::FloorOutOfRange`] (the check happens in
    /// [`QuerySpec::with_floor`], the one validation point). A floor of
    /// exactly 0 admits every set — relatedness ≥ 0 always holds — so the
    /// pass degenerates to ranking the whole collection, which is exact
    /// but slow (the paper's footnote 2).
    pub fn floor(mut self, floor: f64) -> Self {
        self.floor = Some(floor);
        self
    }

    /// Gives the query a wall-clock budget. On expiry [`run`](Self::run)
    /// returns what was proven so far (its output cannot say so — use
    /// [`Engine::execute`](crate::Engine::execute) when the
    /// [`timed_out`](crate::QueryOutput::timed_out) flag matters) and
    /// [`iter`](Self::iter) stops yielding with
    /// [`QueryIter::timed_out`] set.
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Compiles the builder state down to the owned [`QuerySpec`] it
    /// expresses — the reference's element texts plus the `top_k` /
    /// `floor` / `deadline` overrides. This is where the floor is
    /// validated.
    pub fn to_spec(&self) -> Result<QuerySpec, ConfigError> {
        let texts: Vec<String> = self.r.elements.iter().map(|e| e.text.to_string()).collect();
        self.knobs_spec(texts)
    }

    /// The spec carrying this builder's knobs over `reference` —
    /// [`run`](Self::run)/[`iter`](Self::iter) pass an empty reference
    /// because they execute over the already-encoded borrowed record
    /// (the execution core never re-reads the spec's texts), which
    /// keeps the hot path free of per-element string clones.
    fn knobs_spec(&self, reference: Vec<String>) -> Result<QuerySpec, ConfigError> {
        let mut spec = QuerySpec::new(reference);
        if let Some(k) = self.k {
            spec = spec.with_top_k(k);
        }
        if let Some(floor) = self.floor {
            spec = spec.with_floor(floor)?;
        }
        if let Some(budget) = self.deadline {
            spec = spec.with_deadline(budget);
        }
        Ok(spec)
    }

    /// Runs the full search pass and returns all results at once.
    ///
    /// Without [`top_k`](Self::top_k), results are in ascending set-id
    /// order; with it, score descending (ties by ascending id),
    /// truncated to `k`. Equivalent to
    /// `engine.execute(&self.to_spec()?)` — the spec path and this
    /// builder are the same code.
    pub fn run(&self) -> Result<SearchOutput, ConfigError> {
        let spec = self.knobs_spec(Vec::new())?;
        // The record is already encoded against this engine's
        // collection; skip the spec's re-encoding step.
        let out = self.engine.execute_encoded(&spec, self.r, None);
        Ok(SearchOutput {
            results: out.hits,
            stats: out.stats,
        })
    }

    /// Streams results as verification proves them, instead of waiting
    /// for the whole pass: candidate selection, the check filter and the
    /// ordering run up front (index-bound, no matching), then each call
    /// examines candidates best relatedness bound first — nearest-neighbor
    /// filter, then verification — until one proves related. A caller
    /// that stops after the first hit never pays for the
    /// nearest-neighbor searches or the `O(n³)` verification of the rest.
    ///
    /// Yield order follows the candidates' bounds, not their scores or
    /// set ids; collect and sort when order matters. A fully drained
    /// iterator yields exactly [`run`](Self::run)'s result set.
    /// [`top_k`](Self::top_k) is ignored here; [`floor`](Self::floor) and
    /// [`deadline`](Self::deadline) apply.
    pub fn iter(&self) -> Result<QueryIter<'e, 'r>, ConfigError> {
        let spec = self.knobs_spec(Vec::new())?;
        let deadline = spec.deadline_at(None);
        Ok(QueryIter::stage(self.engine, self.r, &spec, deadline))
    }
}

/// One staged, ordered pass over a reference's candidates: the single
/// execution path behind [`Query::iter`], [`Query::run`] and
/// [`Engine::execute`](crate::Engine::execute).
///
/// Staging queues the check filter's survivors by an upper bound on
/// their relatedness. Each step takes the best-bounded one and compares
/// its bound with the pass's **threshold** — the floor (the engine's δ
/// or the query's), raised under `top_k` to the k-th best score verified
/// so far: a bound strictly below the threshold ends the pass, because
/// every bound still queued is lower; otherwise the candidate goes
/// through the nearest-neighbor filter against the same threshold and,
/// if it survives, verification against it
/// ([`Searcher::verify`](crate::Searcher): the column bound, then the
/// maximum matching for a pair the bound cannot refute).
///
/// As an [`Iterator`] the threshold stays at the floor and every related
/// set is yielded, the nearest-neighbor searches and verification of
/// each happening inside [`Iterator::next`]. A deadline, when set, is
/// checked cooperatively before every candidate; on expiry the iterator
/// stops yielding and [`timed_out`](Self::timed_out) reports it.
pub struct QueryIter<'e, 'r> {
    r: &'r SetRecord,
    cfg: crate::config::EngineConfig,
    searcher: Searcher<'e>,
    pass: StagedPass,
    /// Absolute expiry instant, when the query carries a budget.
    deadline: Option<Instant>,
    timed_out: bool,
}

impl std::fmt::Debug for QueryIter<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryIter")
            .field("remaining_candidates", &self.remaining_candidates())
            .field("timed_out", &self.timed_out)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<'e, 'r> QueryIter<'e, 'r> {
    /// Stages the pass a validated `spec` describes over an
    /// already-encoded record, expiring at the absolute `deadline`
    /// (compute it with [`QuerySpec::deadline_at`] *before* staging, so
    /// the budget covers staging, filtering, verification — and, in
    /// [`Engine::execute`](crate::Engine::execute), explanations).
    pub(crate) fn stage(
        engine: &'e Engine,
        r: &'r SetRecord,
        spec: &QuerySpec,
        deadline: Option<Instant>,
    ) -> Self {
        let cfg = spec.effective_cfg(engine.config());
        let mut searcher = Searcher::new(engine.collection(), engine.index(), cfg);
        let pass = searcher.stage(r, crate::filter::Restriction::default());
        QueryIter {
            r,
            cfg,
            searcher,
            pass,
            deadline,
            timed_out: false,
        }
    }

    /// Pass counters as of now: `candidates`, `after_check` and
    /// `signature_cost` are final, while `after_nn`, `verified`,
    /// `results` and `sim_evals` grow as candidates are examined. After
    /// exhaustion this equals the stats [`Query::run`] reports for the
    /// same query without `top_k`; a top-k pass stops earlier and
    /// verifies against its k-th best score, so its counters cover only
    /// the candidates examined before the stop, and its `results` only
    /// the pairs that reached the score they had to (see [`PassStats`]).
    pub fn stats(&self) -> PassStats {
        self.pass.stats
    }

    /// How many check-filter survivors are still examinable: queued, not
    /// examined yet, and with a bound that reaches the floor — a survivor
    /// whose bound is below it would only end the pass, so it is counted
    /// in `after_check` and never queued. 0 once the pass has stopped.
    pub fn remaining_candidates(&self) -> usize {
        self.pass.remaining()
    }

    /// True when the deadline expired before the pass finished; the
    /// iterator stops yielding at that point, so everything it produced
    /// is still correct — just not complete.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }

    /// Checks the deadline (called between units of work); returns true
    /// — and latches [`timed_out`](Self::timed_out) — on expiry.
    fn expired(&mut self) -> bool {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.timed_out = true;
        }
        self.timed_out
    }

    /// Examines candidates against the threshold `delta` until one
    /// verifies as reaching it, and returns it; `None` when the pass is
    /// over or out of time. A pair below `delta` cannot rank — `delta`
    /// is the floor, or the k-th best score already held — so it is
    /// dropped here, unsolved where the column bound refutes it.
    fn next_at(&mut self, delta: f64) -> Option<(SetIdx, f64)> {
        // One candidate — its nearest-neighbor searches and its O(n³)
        // verification — is the unit of work; check the budget before
        // each, but only while there is work left to abandon.
        while self.pass.remaining() > 0 && !self.expired() {
            let Step::Survivor(sid) = self.searcher.step(self.r, &mut self.pass, delta) else {
                continue;
            };
            if let Some(score) = self.searcher.verify(self.r, &mut self.pass, sid, delta) {
                return Some((sid, score));
            }
        }
        None
    }

    /// Drains the pass for the `k` best results, in rank order (score
    /// descending, ties by ascending set id). Once `k` results are held
    /// the threshold is their lowest score and rises with it, so the
    /// pass stops when no queued bound reaches the current k-th best. A
    /// pass cut short by its deadline has examined the best-bounded
    /// prefix of the queue, and returns the best `k` of what that
    /// verified.
    pub(crate) fn top_k(&mut self, k: usize) -> Vec<(SetIdx, f64)> {
        if k == 0 {
            // Nothing can rank, so no candidate is worth examining.
            return Vec::new();
        }
        let floor = self.cfg.delta;
        let mut top = TopK::new(k);
        loop {
            let threshold = top.kth_score().map_or(floor, |kth| kth.max(floor));
            let Some((sid, score)) = self.next_at(threshold) else {
                break;
            };
            top.push(sid, score);
        }
        top.into_ranked()
    }
}

impl Iterator for QueryIter<'_, '_> {
    type Item = (SetIdx, f64);

    fn next(&mut self) -> Option<Self::Item> {
        self.next_at(self.cfg.delta)
    }

    /// At most one result per candidate still examinable (see
    /// [`remaining_candidates`](Self::remaining_candidates)).
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining_candidates()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigError, RelatednessMetric};
    use silkmoth_collection::paper_example::table2;
    use silkmoth_text::SimilarityFunction;

    fn engine(delta: f64) -> Engine {
        let (c, _) = table2();
        Engine::builder(c)
            .metric(RelatednessMetric::Containment)
            .phi(SimilarityFunction::Jaccard)
            .delta(delta)
            .build()
            .unwrap()
    }

    #[test]
    fn plain_query_equals_search() {
        let (_, r) = table2();
        let engine = engine(0.7);
        let q = engine.query(&r).run().unwrap();
        let s = engine.search(&r);
        assert_eq!(q.results, s.results);
        assert_eq!(q.stats, s.stats);
    }

    #[test]
    fn floor_out_of_range_is_an_error_not_a_clamp() {
        let (_, r) = table2();
        let engine = engine(0.7);
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = engine.query(&r).floor(bad).run().unwrap_err();
            assert!(matches!(err, ConfigError::FloorOutOfRange(_)), "{bad}");
            let err = engine.query(&r).floor(bad).iter().unwrap_err();
            assert!(matches!(err, ConfigError::FloorOutOfRange(_)), "{bad}");
        }
    }

    #[test]
    fn builder_compiles_to_the_equivalent_spec() {
        let (_, r) = table2();
        let engine = engine(0.7);
        let spec = engine
            .query(&r)
            .top_k(3)
            .floor(0.4)
            .deadline(Duration::from_secs(5))
            .to_spec()
            .unwrap();
        assert_eq!(spec.top_k(), Some(3));
        assert_eq!(spec.floor(), Some(0.4));
        assert_eq!(spec.deadline(), Some(Duration::from_secs(5)));
        let texts: Vec<String> = r.elements.iter().map(|e| e.text.to_string()).collect();
        assert_eq!(spec.reference(), &texts[..]);
    }

    #[test]
    fn top_k_ranks_by_score_then_id() {
        let (_, r) = table2();
        let engine = engine(0.7);
        let all = engine.query(&r).floor(0.0).run().unwrap();
        // Every set has some relatedness to R in Table 2, so floor 0
        // admits all four; ranked output must be sorted score desc.
        assert_eq!(all.results.len(), 4);
        let top2 = engine.query(&r).floor(0.0).top_k(2).run().unwrap();
        assert_eq!(top2.results.len(), 2);
        assert!(top2.results[0].1 >= top2.results[1].1);
        assert_eq!(top2.results[0].0, 3); // S4 is the most related
    }

    #[test]
    fn iter_drained_equals_run() {
        let (_, r) = table2();
        for delta in [0.3, 0.5, 0.7] {
            let engine = engine(delta);
            let run = engine.query(&r).run().unwrap();
            let mut iter = engine.query(&r).iter().unwrap();
            let mut streamed: Vec<(u32, f64)> = iter.by_ref().collect();
            streamed.sort_unstable_by_key(|&(sid, _)| sid);
            assert_eq!(streamed, run.results, "δ={delta}");
            assert_eq!(iter.stats(), run.stats, "δ={delta}");
            assert!(!iter.timed_out(), "δ={delta}");
        }
    }

    #[test]
    fn iter_drained_equals_run_over_a_long_queue() {
        // A workload whose queue holds a couple of hundred candidates
        // (floor 0 admits every set) — results and drained stats must
        // still match run() exactly.
        let raw: Vec<Vec<String>> = (0..209)
            .map(|i| {
                (0..3)
                    .map(|j| format!("w{} w{} shared{}", (i * 3 + j) % 11, (i + j) % 7, i % 5))
                    .collect()
            })
            .collect();
        let c = silkmoth_collection::Collection::build(
            &raw,
            silkmoth_collection::Tokenization::Whitespace,
        );
        let engine = Engine::builder(c)
            .metric(RelatednessMetric::Similarity)
            .phi(SimilarityFunction::Jaccard)
            .delta(0.6)
            .build()
            .unwrap();
        let r = engine.collection().set(0).clone();
        for floor in [0.0, 0.2, 0.6] {
            let run = engine.query(&r).floor(floor).run().unwrap();
            let mut iter = engine.query(&r).floor(floor).iter().unwrap();
            if floor == 0.0 {
                // Floor 0 admits every set.
                assert_eq!(iter.remaining_candidates(), raw.len());
            }
            let mut streamed: Vec<(u32, f64)> = iter.by_ref().collect();
            streamed.sort_unstable_by_key(|&(sid, _)| sid);
            assert_eq!(streamed, run.results, "floor={floor}");
            assert_eq!(iter.stats(), run.stats, "floor={floor}");
            assert_eq!(iter.remaining_candidates(), 0);
        }
    }

    #[test]
    fn iter_early_termination_skips_filtering_of_the_rest() {
        // With floor 0 every set is a candidate and every verification
        // succeeds, so after one next() exactly one candidate has been
        // through the NN filter: the others' sim_evals must not have been
        // spent yet.
        let raw: Vec<Vec<String>> = (0..137)
            .map(|i| vec![format!("a{} b{}", i % 13, i % 3), format!("c{}", i % 4)])
            .collect();
        let c = silkmoth_collection::Collection::build(
            &raw,
            silkmoth_collection::Tokenization::Whitespace,
        );
        let engine = Engine::builder(c)
            .metric(RelatednessMetric::Similarity)
            .phi(SimilarityFunction::Jaccard)
            .delta(0.7)
            .build()
            .unwrap();
        let r = engine.collection().set(0).clone();
        let full = engine.query(&r).floor(0.0).run().unwrap();
        let mut iter = engine.query(&r).floor(0.0).iter().unwrap();
        iter.next().expect("floor 0 always yields");
        let partial = iter.stats();
        assert_eq!((partial.after_nn, partial.verified), (1, 1));
        assert!(partial.sim_evals < full.stats.sim_evals);
        assert_eq!(iter.remaining_candidates(), raw.len() - 1);
        // Draining afterwards still converges to the run() stats.
        iter.by_ref().for_each(drop);
        assert_eq!(iter.stats(), full.stats);
    }

    #[test]
    fn top_k_stops_early_and_answers_like_ranking_the_full_run() {
        let raw: Vec<Vec<String>> = (0..209)
            .map(|i| {
                (0..3)
                    .map(|j| format!("w{} w{} shared{}", (i * 3 + j) % 11, (i + j) % 7, i % 5))
                    .collect()
            })
            .collect();
        let c = silkmoth_collection::Collection::build(
            &raw,
            silkmoth_collection::Tokenization::Whitespace,
        );
        let engine = Engine::builder(c)
            .metric(RelatednessMetric::Similarity)
            .phi(SimilarityFunction::Jaccard)
            .delta(0.6)
            .build()
            .unwrap();
        let r = engine.collection().set(0).clone();
        let full = engine.query(&r).floor(0.2).run().unwrap();
        assert!(full.results.len() > 20, "need a long result list");
        for k in [1, 3, 10] {
            let top = engine.query(&r).floor(0.2).top_k(k).run().unwrap();
            let mut want = full.results.clone();
            crate::rank::rank_top_k(&mut want, k);
            assert_eq!(top.results, want, "k={k}");
            // Selection and the check filter do not depend on k; what is
            // examined afterwards does.
            assert_eq!(top.stats.candidates, full.stats.candidates);
            assert_eq!(top.stats.after_check, full.stats.after_check);
            assert!(top.stats.verified < full.stats.verified, "k={k}");
            assert!(top.stats.sim_evals < full.stats.sim_evals, "k={k}");
            // `results`: every pair that reached the threshold it was
            // verified against — the k returned did, and so did those a
            // better pair displaced later; a pair verified against a k-th
            // best score it did not reach is none, related or not.
            assert!(top.stats.results >= k, "k={k}");
            assert!(top.stats.results <= top.stats.verified, "k={k}");
            assert!(top.stats.results < full.stats.results, "k={k}");
        }
        // k = 0 examines nothing at all.
        let none = engine.query(&r).floor(0.2).top_k(0).run().unwrap();
        assert!(none.results.is_empty());
        assert_eq!(none.stats.verified, 0);
    }

    #[test]
    fn iter_supports_early_termination() {
        let (_, r) = table2();
        let engine = engine(0.3);
        let run = engine.query(&r).run().unwrap();
        assert!(run.results.len() > 1, "need >1 result for this test");
        let mut iter = engine.query(&r).iter().unwrap();
        let first = iter.next().unwrap();
        // Only part of the verification work has happened.
        assert!(iter.stats().verified < run.stats.verified);
        assert!(run.results.contains(&first));
    }

    #[test]
    fn zero_deadline_stops_the_iterator_cooperatively() {
        let (_, r) = table2();
        let engine = engine(0.7);
        // Floor 0 guarantees candidates exist, so the pass has work to
        // abandon and the timeout is observable.
        let mut iter = engine
            .query(&r)
            .floor(0.0)
            .deadline(Duration::ZERO)
            .iter()
            .unwrap();
        assert!(iter.next().is_none());
        assert!(iter.timed_out());
        // The stats still describe exactly the work done (nothing
        // verified).
        assert_eq!(iter.stats().verified, 0);
        // Without a deadline the same query yields everything.
        let full = engine.query(&r).floor(0.0).run().unwrap();
        assert_eq!(full.results.len(), 4);
    }
}
