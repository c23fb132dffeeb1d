//! The pass driver: one staged, ordered pass over a reference's
//! candidates, examined until it is over, out of time, or — under
//! `top_k` — unable to rank anything more.

use std::time::Instant;

use crate::explain::Record;
use crate::filter::{PassStats, Restriction, Searcher, StagedPass, Step};
use crate::rank::TopK;
use silkmoth_collection::{SetIdx, SetRecord};

/// One staged, ordered pass over a reference's candidates: the single
/// execution path behind [`Engine::execute`](crate::Engine::execute)
/// and every pass of
/// [`Engine::discover_self_parallel`](crate::Engine::discover_self_parallel).
///
/// Staging queues the check filter's survivors by an upper bound on
/// their relatedness. Each step takes the best-bounded one and compares
/// its bound with the pass's **threshold** — the floor (the searcher's
/// δ: the engine's, or a query's own), raised under `top_k` to the k-th
/// best score verified so far: a bound strictly below the threshold
/// ends the pass, because every bound still queued is lower; otherwise
/// the candidate goes through the nearest-neighbor filter against the
/// same threshold and, if it survives, verification against it
/// ([`Searcher::verify`]: the column bound, then the maximum matching
/// for a pair the bound cannot refute).
///
/// As an [`Iterator`] the threshold stays at the floor and every related
/// set is yielded, the nearest-neighbor searches and verification of
/// each happening inside [`Iterator::next`]. A deadline, when set, is
/// checked cooperatively before every candidate; on expiry the iterator
/// stops yielding and [`timed_out`](Self::timed_out) reports it.
///
/// The pass borrows its [`Searcher`], so a caller running pass after
/// pass — a discovery worker — keeps one searcher, and its scratch,
/// across all of them.
pub(crate) struct QueryIter<'p, 'a> {
    searcher: &'p mut Searcher<'a>,
    r: &'p SetRecord,
    pass: StagedPass,
    /// Absolute expiry instant, when the query carries a budget.
    deadline: Option<Instant>,
    timed_out: bool,
}

impl<'p, 'a> QueryIter<'p, 'a> {
    /// Stages the pass of `searcher`'s configuration over an
    /// already-encoded reference, among the sets `restriction` admits —
    /// and, with `explain` (ascending set ids), only those, recording
    /// each (see [`into_record`](Self::into_record)) — expiring at the
    /// absolute `deadline` (compute it with
    /// [`QuerySpec::deadline_at`](crate::QuerySpec) *before* staging, so
    /// the budget covers staging, filtering, verification — and, in
    /// [`Engine::execute`](crate::Engine::execute), explanations).
    pub(crate) fn stage(
        searcher: &'p mut Searcher<'a>,
        r: &'p SetRecord,
        restriction: Restriction,
        explain: Option<&[SetIdx]>,
        deadline: Option<Instant>,
    ) -> Self {
        let pass = searcher.stage(r, restriction, explain);
        QueryIter {
            searcher,
            r,
            pass,
            deadline,
            timed_out: false,
        }
    }

    /// Drains the pass at its floor: what it recorded, when it was staged
    /// to explain, and whether the deadline cut it short — a pair it had
    /// not finished with then shows how far it got.
    pub(crate) fn into_record(mut self) -> (Option<Record>, bool) {
        self.by_ref().for_each(drop);
        (self.pass.record, self.timed_out)
    }

    /// Pass counters as of now: `candidates`, `after_check` and
    /// `signature_cost` are final, while `after_nn`, `verified`,
    /// `results` and `sim_evals` grow as candidates are examined. A
    /// top-k pass stops earlier than one drained at the floor and
    /// verifies against its k-th best score, so its counters cover only
    /// the candidates examined before the stop, and its `results` only
    /// the pairs that reached the score they had to (see [`PassStats`]).
    pub(crate) fn stats(&self) -> PassStats {
        self.pass.stats
    }

    /// How many check-filter survivors are still examinable: queued, not
    /// examined yet, and with a bound that reaches the floor — a survivor
    /// whose bound is below it would only end the pass, so it is counted
    /// in `after_check` and never queued. 0 once the pass has stopped.
    pub(crate) fn remaining_candidates(&self) -> usize {
        self.pass.remaining()
    }

    /// True when the deadline expired before the pass finished; the
    /// iterator stops yielding at that point, so everything it produced
    /// is still correct — just not complete.
    pub(crate) fn timed_out(&self) -> bool {
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

    /// Drains the pass at its floor: every related set, in ascending id
    /// order.
    pub(crate) fn related(&mut self) -> Vec<(SetIdx, f64)> {
        let mut hits: Vec<(SetIdx, f64)> = self.by_ref().collect();
        hits.sort_unstable_by_key(|&(sid, _)| sid);
        hits
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
        let floor = self.searcher.delta();
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
        self.next_at(self.searcher.delta())
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
    use crate::config::{EngineConfig, RelatednessMetric};
    use crate::engine::Engine;
    use crate::spec::{QueryOutput, QuerySpec};
    use silkmoth_collection::paper_example::table2;
    use silkmoth_collection::{Collection, Tokenization};
    use silkmoth_text::SimilarityFunction;

    fn jaccard_engine(c: Collection, metric: RelatednessMetric, delta: f64) -> Engine {
        let cfg = EngineConfig::full(metric, SimilarityFunction::Jaccard, delta, 0.0);
        Engine::new(c, cfg).unwrap()
    }

    fn engine(delta: f64) -> Engine {
        let (c, _) = table2();
        jaccard_engine(c, RelatednessMetric::Containment, delta)
    }

    /// 209 sets of three elements over a few shared words: floor 0 queues
    /// every one of them.
    fn long_queue_engine() -> Engine {
        let raw: Vec<Vec<String>> = (0..209)
            .map(|i| {
                (0..3)
                    .map(|j| format!("w{} w{} shared{}", (i * 3 + j) % 11, (i + j) % 7, i % 5))
                    .collect()
            })
            .collect();
        jaccard_engine(
            Collection::build(&raw, Tokenization::Whitespace),
            RelatednessMetric::Similarity,
            0.6,
        )
    }

    /// The spec for `r`'s element texts at `floor` (the engine's δ when
    /// `None`).
    fn spec(r: &SetRecord, floor: Option<f64>) -> QuerySpec {
        let spec = QuerySpec::new(r.elements.iter().map(|e| e.text.to_string()).collect());
        match floor {
            Some(floor) => spec.with_floor(floor).unwrap(),
            None => spec,
        }
    }

    /// A searcher for `spec` over `engine`, configured as `execute`
    /// configures one.
    fn searcher<'e>(engine: &'e Engine, spec: &QuerySpec) -> Searcher<'e> {
        let cfg = spec.effective_cfg(engine.config());
        Searcher::new(engine.collection(), engine.index(), cfg)
    }

    /// Drains a pass over `r` next by next, as a streaming caller would;
    /// the results in ascending id order and the stats after the last.
    fn streamed(
        engine: &Engine,
        r: &SetRecord,
        spec: &QuerySpec,
    ) -> (Vec<(SetIdx, f64)>, PassStats) {
        let mut searcher = searcher(engine, spec);
        let mut iter = QueryIter::stage(&mut searcher, r, Restriction::default(), None, None);
        let mut hits: Vec<(SetIdx, f64)> = iter.by_ref().collect();
        hits.sort_unstable_by_key(|&(sid, _)| sid);
        assert!(!iter.timed_out());
        (hits, iter.stats())
    }

    fn assert_same(streamed: &[(SetIdx, f64)], out: &QueryOutput, ctx: &str) {
        assert_eq!(streamed.len(), out.hits.len(), "{ctx}");
        for (a, b) in streamed.iter().zip(&out.hits) {
            assert_eq!(a.0, b.0, "{ctx}");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "{ctx}: scores bit-identical");
        }
    }

    #[test]
    fn top_k_ranks_by_score_then_id() {
        let (_, r) = table2();
        let engine = engine(0.7);
        let all = engine.execute(&spec(&r, Some(0.0)));
        // Every set has some relatedness to R in Table 2, so floor 0
        // admits all four; ranked output must be sorted score desc.
        assert_eq!(all.hits.len(), 4);
        let top2 = engine.execute(&spec(&r, Some(0.0)).with_top_k(2));
        assert_eq!(top2.hits.len(), 2);
        assert!(top2.hits[0].1 >= top2.hits[1].1);
        assert_eq!(top2.hits[0].0, 3); // S4 is the most related
    }

    #[test]
    fn iter_drained_equals_execute() {
        let (_, r) = table2();
        for delta in [0.3, 0.5, 0.7] {
            let engine = engine(delta);
            let spec = spec(&r, None);
            let out = engine.execute(&spec);
            let (hits, stats) = streamed(&engine, &r, &spec);
            assert_same(&hits, &out, &format!("δ={delta}"));
            assert_eq!(stats, out.stats, "δ={delta}");
        }
    }

    #[test]
    fn iter_drained_equals_execute_over_a_long_queue() {
        // A workload whose queue holds a couple of hundred candidates
        // (floor 0 admits every set) — results and drained stats must
        // still match execute exactly.
        let engine = long_queue_engine();
        let r = engine.collection().set(0).clone();
        for floor in [0.0, 0.2, 0.6] {
            let spec = spec(&r, Some(floor));
            let out = engine.execute(&spec);
            let mut searcher = searcher(&engine, &spec);
            let mut iter = QueryIter::stage(&mut searcher, &r, Restriction::default(), None, None);
            if floor == 0.0 {
                // Floor 0 admits every set.
                assert_eq!(iter.remaining_candidates(), engine.collection().len());
            }
            let hits = iter.related();
            assert_same(&hits, &out, &format!("floor={floor}"));
            assert_eq!(iter.stats(), out.stats, "floor={floor}");
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
        let engine = jaccard_engine(
            Collection::build(&raw, Tokenization::Whitespace),
            RelatednessMetric::Similarity,
            0.7,
        );
        let r = engine.collection().set(0).clone();
        let spec = spec(&r, Some(0.0));
        let full = engine.execute(&spec);
        let mut searcher = searcher(&engine, &spec);
        let mut iter = QueryIter::stage(&mut searcher, &r, Restriction::default(), None, None);
        iter.next().expect("floor 0 always yields");
        let partial = iter.stats();
        assert_eq!((partial.after_nn, partial.verified), (1, 1));
        assert!(partial.sim_evals < full.stats.sim_evals);
        assert_eq!(iter.remaining_candidates(), raw.len() - 1);
        // Draining afterwards still converges to the execute stats.
        iter.by_ref().for_each(drop);
        assert_eq!(iter.stats(), full.stats);
    }

    #[test]
    fn top_k_stops_early_and_answers_like_ranking_the_full_run() {
        let engine = long_queue_engine();
        let r = engine.collection().set(0).clone();
        let full = engine.execute(&spec(&r, Some(0.2)));
        assert!(full.hits.len() > 20, "need a long result list");
        for k in [1, 3, 10] {
            let top = engine.execute(&spec(&r, Some(0.2)).with_top_k(k));
            let mut want = full.hits.clone();
            crate::rank::rank_top_k(&mut want, k);
            assert_eq!(top.hits, want, "k={k}");
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
        let none = engine.execute(&spec(&r, Some(0.2)).with_top_k(0));
        assert!(none.hits.is_empty());
        assert_eq!(none.stats.verified, 0);
    }

    #[test]
    fn iter_supports_early_termination() {
        let (_, r) = table2();
        let engine = engine(0.3);
        let spec = spec(&r, None);
        let full = engine.execute(&spec);
        assert!(full.hits.len() > 1, "need >1 result for this test");
        let mut searcher = searcher(&engine, &spec);
        let mut iter = QueryIter::stage(&mut searcher, &r, Restriction::default(), None, None);
        let first = iter.next().unwrap();
        // Only part of the verification work has happened.
        assert!(iter.stats().verified < full.stats.verified);
        assert!(full.hits.contains(&first));
    }

    #[test]
    fn zero_deadline_stops_the_iterator_cooperatively() {
        let (_, r) = table2();
        let engine = engine(0.7);
        // Floor 0 guarantees candidates exist, so the pass has work to
        // abandon and the timeout is observable.
        let spec = spec(&r, Some(0.0));
        let mut searcher = searcher(&engine, &spec);
        let now = Some(Instant::now());
        let mut iter = QueryIter::stage(&mut searcher, &r, Restriction::default(), None, now);
        assert!(iter.next().is_none());
        assert!(iter.timed_out());
        // The stats still describe exactly the work done (nothing
        // verified).
        assert_eq!(iter.stats().verified, 0);
        // Without a deadline the same query yields everything.
        assert_eq!(engine.execute(&spec).hits.len(), 4);
    }

    /// Passes borrow their id-keyed scratch from the thread. Two
    /// iterators alive at once on one thread, over collections of
    /// different sizes, must each work on tables of their own: stepping
    /// them in turns gives each exactly the answers it gives alone.
    #[test]
    fn interleaved_query_iters_over_two_collections_keep_their_own_answers() {
        // 300 columns of four to seven entities drawn from three pools
        // of forty, against 60 four-attribute schemas over twelve words.
        let columns: Vec<Vec<String>> = (0..300)
            .map(|i| {
                let pool = i % 3;
                (0..4 + i % 4)
                    .map(|j| format!("p{pool}e{} p{pool}f{}", (i * 7 + j * 5) % 40, (i + j) % 9))
                    .collect()
            })
            .collect();
        let schemas: Vec<Vec<String>> = (0..60)
            .map(|i| {
                (0..4)
                    .map(|j| format!("a{}", (i * 3 + j * 5) % 12))
                    .collect()
            })
            .collect();
        let big = jaccard_engine(
            Collection::build(&columns, Tokenization::Whitespace),
            RelatednessMetric::Containment,
            0.3,
        );
        let small = jaccard_engine(
            Collection::build(&schemas, Tokenization::Whitespace),
            RelatednessMetric::Similarity,
            0.3,
        );
        let alone = |engine: &Engine, r: &SetRecord| -> (Vec<(SetIdx, f64)>, PassStats) {
            let mut searcher = searcher(engine, &spec(r, None));
            let mut iter = QueryIter::stage(&mut searcher, r, Restriction::default(), None, None);
            (iter.by_ref().collect(), iter.stats())
        };
        for (big_rid, small_rid) in [(0u32, 0u32), (17, 31), (299, 59)] {
            let rb = big.collection().set(big_rid).clone();
            let rs = small.collection().set(small_rid).clone();
            let (alone_big, big_stats) = alone(&big, &rb);
            let (alone_small, small_stats) = alone(&small, &rs);
            assert!(alone_big.len() > 1 && !alone_small.is_empty());

            // The small pass is staged while the big one holds the
            // thread's scratch, and the other way round.
            for big_first in [true, false] {
                let (mut sb, mut ss);
                let (mut ib, mut is);
                if big_first {
                    sb = searcher(&big, &spec(&rb, None));
                    ib = QueryIter::stage(&mut sb, &rb, Restriction::default(), None, None);
                    ss = searcher(&small, &spec(&rs, None));
                    is = QueryIter::stage(&mut ss, &rs, Restriction::default(), None, None);
                } else {
                    ss = searcher(&small, &spec(&rs, None));
                    is = QueryIter::stage(&mut ss, &rs, Restriction::default(), None, None);
                    sb = searcher(&big, &spec(&rb, None));
                    ib = QueryIter::stage(&mut sb, &rb, Restriction::default(), None, None);
                }
                let (mut got_big, mut got_small) = (Vec::new(), Vec::new());
                loop {
                    let (b, s) = (ib.next(), is.next());
                    got_big.extend(b);
                    got_small.extend(s);
                    if b.is_none() && s.is_none() {
                        break;
                    }
                }
                assert_eq!(got_big, alone_big, "big_first={big_first}");
                assert_eq!(got_small, alone_small, "big_first={big_first}");
                assert_eq!(ib.stats(), big_stats);
                assert_eq!(is.stats(), small_stats);
            }
        }
    }
}
