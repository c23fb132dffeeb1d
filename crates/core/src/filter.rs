//! One *search pass*: candidate selection, check filter (Algorithm 1),
//! nearest-neighbor filter (Algorithm 2), and verification (§3, §5, §6.5).
//!
//! The pass is staged and ordered. [`Searcher::stage`] selects the
//! candidates, runs the check filter over all of them and queues the
//! survivors by an upper bound on their relatedness that costs no φ
//! evaluation. [`Searcher::step`] then takes them best bound first
//! against a threshold the caller may raise between steps: it ends the
//! pass at the first candidate whose bound cannot reach the threshold
//! (none behind it can either) and runs the nearest-neighbor filter on
//! the others. A floor-only pass keeps the threshold at δ; a top-k pass
//! raises it to the k-th best verified score.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::config::{EngineConfig, FilterKind, FILTER_EPS};
use crate::phi::Phi;
use crate::signature::{generate, SigKind, SigParams, Signature};
use crate::verify::{need, relatedness, size_check, verify_pair, VerifyCost};
use silkmoth_collection::{Collection, Element, InvertedIndex, SetIdx, SetRecord};

/// Which candidate sets a pass may consider (self-join symmetry/self
/// exclusions).
#[derive(Debug, Clone, Copy, Default)]
pub struct Restriction {
    /// Only sets with id strictly greater than this are admitted
    /// (symmetric self-join dedup for SET-SIMILARITY discovery).
    pub min_exclusive: Option<SetIdx>,
    /// One set id to skip (the reference itself, for containment
    /// self-joins).
    pub skip: Option<SetIdx>,
}

impl Restriction {
    #[inline]
    fn admits(&self, sid: SetIdx) -> bool {
        if let Some(min) = self.min_exclusive {
            if sid <= min {
                return false;
            }
        }
        if let Some(skip) = self.skip {
            if sid == skip {
                return false;
            }
        }
        true
    }
}

/// Per-pass instrumentation (candidate counts per stage, §8's metrics).
///
/// `candidates`, `after_check` and `signature_cost` are final once the
/// pass is staged, whatever the query asks for: the check filter runs
/// over every candidate to order them. `after_nn`, `verified`, `results`
/// and `sim_evals` count the candidates **examined before the pass
/// stopped**. A floor-only pass stops where no remaining bound reaches δ,
/// so it examines every candidate that could be related; a top-k pass
/// stops as soon as no remaining bound reaches its k-th best score, so
/// for the same reference and floor these four are at most — and usually
/// far below — the floor-only counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Candidates admitted from the inverted index (post size check).
    pub candidates: usize,
    /// Candidates surviving the check filter.
    pub after_check: usize,
    /// Examined candidates surviving the nearest-neighbor filter.
    pub after_nn: usize,
    /// Pairs verified with maximum matching.
    pub verified: usize,
    /// Verified pairs related at the pass's δ (the floor; under top-k
    /// some of them are outranked and not returned).
    pub results: usize,
    /// φ evaluations across filters and verification.
    pub sim_evals: u64,
    /// Identical pairs removed by reduction-based verification.
    pub reduced_pairs: u64,
    /// `Σ |I[t]|` over the signature tokens (Problem 3's objective).
    pub signature_cost: u64,
    /// 1 when no valid signature existed (degenerate pass).
    pub degenerate: u32,
}

impl PassStats {
    /// Accumulates another pass's counters into this one.
    pub fn merge(&mut self, other: &PassStats) {
        self.candidates += other.candidates;
        self.after_check += other.after_check;
        self.after_nn += other.after_nn;
        self.verified += other.verified;
        self.results += other.results;
        self.sim_evals += other.sim_evals;
        self.reduced_pairs += other.reduced_pairs;
        self.signature_cost += other.signature_cost;
        self.degenerate += other.degenerate;
    }
}

/// Reusable search-pass executor with scratch buffers. One `Searcher` per
/// thread; `run` may be called any number of times.
pub struct Searcher<'a> {
    collection: &'a Collection,
    index: &'a InvertedIndex,
    cfg: EngineConfig,
    phi: Phi,
    kind: SigKind,
    // Scratch: candidate slots per set id (stamp-versioned).
    cand_stamp: Vec<u32>,
    cand_slot: Vec<u32>,
    version: u32,
    // Scratch: per-element visited stamps for NNSearch (sized to the
    // largest set in the collection).
    elem_stamp: Vec<u32>,
    elem_version: u32,
    // Scratch: postings of one reference element, for dedup.
    postings: Vec<(SetIdx, u32)>,
}

/// Sentinel for "no computed similarity" in the best-φα cache.
const NONE_SIM: f64 = -1.0;

impl<'a> Searcher<'a> {
    /// Creates a searcher bound to a collection, its index, and a config.
    pub fn new(collection: &'a Collection, index: &'a InvertedIndex, cfg: EngineConfig) -> Self {
        Self {
            collection,
            index,
            cfg,
            phi: Phi::new(cfg.similarity, cfg.alpha),
            kind: SigKind::of(cfg.similarity),
            cand_stamp: vec![0; collection.len()],
            cand_slot: vec![0; collection.len()],
            version: 0,
            elem_stamp: vec![0; collection.max_set_len()],
            elem_version: 0,
            postings: Vec::new(),
        }
    }

    /// The φ evaluator (shared with verification).
    pub fn phi(&self) -> &Phi {
        &self.phi
    }

    /// Runs one full search pass for reference `r`, returning the related
    /// sets (ascending id) with their relatedness scores.
    pub fn run(
        &mut self,
        r: &SetRecord,
        restriction: Restriction,
    ) -> (Vec<(SetIdx, f64)>, PassStats) {
        let (survivors, mut stats) = self.survivors(r, restriction);

        // ---- Verification (§5.4) -----------------------------------------
        let mut results: Vec<(SetIdx, f64)> = Vec::new();
        let mut vcost = VerifyCost::default();
        for &sid in &survivors {
            stats.verified += 1;
            if let Some(score) = verify_pair(
                r,
                self.collection.set(sid),
                &self.cfg,
                &self.phi,
                &mut vcost,
            ) {
                results.push((sid, score));
            }
        }
        stats.sim_evals += vcost.sim_evals;
        stats.reduced_pairs += vcost.reduced_pairs;
        stats.results = results.len();
        results.sort_unstable_by_key(|&(sid, _)| sid);
        (results, stats)
    }

    /// The pre-verification stages of a pass — candidate selection, check
    /// filter, nearest-neighbor filter — at the configured δ, returning
    /// the surviving set ids (best relatedness bound first) and the stats
    /// so far. These stages are index-bound; the `O(n³)` maximum-matching
    /// work happens only when survivors are verified, which streaming
    /// callers ([`Query::iter`](crate::Query::iter)) do lazily.
    pub fn survivors(
        &mut self,
        r: &SetRecord,
        restriction: Restriction,
    ) -> (Vec<SetIdx>, PassStats) {
        let mut pass = self.stage(r, restriction);
        let mut survivors = Vec::new();
        loop {
            match self.step(r, &mut pass, self.cfg.delta) {
                Step::Done => break,
                Step::Pruned => {}
                Step::Survivor(sid) => survivors.push(sid),
            }
        }
        (survivors, pass.stats)
    }

    /// Candidate selection, the check filter and the ordering: builds a
    /// [`StagedPass`] whose queue holds the check filter's survivors, best
    /// bound first, plus what the nearest-neighbor filter needs to examine
    /// them one [`step`](Self::step) at a time. Everything here is
    /// index-bound; a caller that stops early never pays for the
    /// nearest-neighbor searches or the verification of the rest.
    pub(crate) fn stage(&mut self, r: &SetRecord, restriction: Restriction) -> StagedPass {
        let mut stats = PassStats::default();
        let theta = self.cfg.delta * r.len() as f64;
        let n = r.len();

        let signature = generate(
            r,
            self.cfg.scheme,
            SigParams {
                theta,
                alpha: self.cfg.alpha,
                kind: self.kind,
            },
            self.index,
        );
        stats.signature_cost = signature.cost(self.index) as u64;
        stats.degenerate = u32::from(signature.degenerate);

        // ---- Candidate selection (+ similarity computation for the check
        // filter's cache) -------------------------------------------------
        self.version += 1;
        let mut cand_sets: Vec<SetIdx> = Vec::new();
        // best φα per (candidate, reference element), flattened.
        let mut best: Vec<f64> = Vec::new();
        let compute_sims = self.cfg.filter >= FilterKind::Check;

        if signature.degenerate {
            for sid in 0..self.collection.len() as SetIdx {
                if restriction.admits(sid)
                    && self.collection.is_live(sid)
                    && size_check(
                        self.cfg.metric,
                        self.cfg.delta,
                        n,
                        self.collection.set(sid).len(),
                    )
                {
                    cand_sets.push(sid);
                }
            }
            best.resize(cand_sets.len() * n, NONE_SIM);
        } else {
            for (i, sig_elem) in signature.elems.iter().enumerate() {
                if sig_elem.tokens.is_empty() {
                    continue;
                }
                // Gather and dedupe the postings of this element's
                // signature tokens.
                self.postings.clear();
                for &t in &sig_elem.tokens {
                    for p in self.index.list(t) {
                        self.postings.push((p.set, p.elem));
                    }
                }
                self.postings.sort_unstable();
                self.postings.dedup();
                for k in 0..self.postings.len() {
                    let (sid, eid) = self.postings[k];
                    if !restriction.admits(sid) {
                        continue;
                    }
                    // Locate or admit the candidate slot. Tombstoned sets
                    // keep their postings in the index but are never
                    // admitted as candidates.
                    let slot = if self.cand_stamp[sid as usize] == self.version {
                        self.cand_slot[sid as usize] as usize
                    } else {
                        if !self.collection.is_live(sid) {
                            continue;
                        }
                        if !size_check(
                            self.cfg.metric,
                            self.cfg.delta,
                            n,
                            self.collection.set(sid).len(),
                        ) {
                            continue;
                        }
                        let slot = cand_sets.len();
                        self.cand_stamp[sid as usize] = self.version;
                        self.cand_slot[sid as usize] = slot as u32;
                        cand_sets.push(sid);
                        best.resize(best.len() + n, NONE_SIM);
                        slot
                    };
                    if compute_sims {
                        let s_elem = &self.collection.set(sid).elements[eid as usize];
                        let sim = self.phi.eval(&r.elements[i], s_elem);
                        stats.sim_evals += 1;
                        let cell = &mut best[slot * n + i];
                        if sim > *cell {
                            *cell = sim;
                        }
                    }
                }
            }
        }
        stats.candidates = cand_sets.len();

        // Check-filter thresholds (Algorithm 1, §6.5 extension). Pass
        // condition: φα(ri, s) ≥ min(α, raw_bound_i) for some computed pair
        // (α = 0 degenerates to φ ≥ raw_bound_i). Pruning on failure is
        // sound only when Σ bounds < θ (always true for weighted-style
        // schemes; `check_prunable` is false otherwise and the filter only
        // primes the NN reuse cache).
        let check_thr: Vec<f64> = signature
            .elems
            .iter()
            .map(|se| {
                if self.cfg.alpha > 0.0 {
                    self.cfg.alpha.min(se.raw_bound)
                } else {
                    se.raw_bound
                }
            })
            .collect();
        let check_prunable = compute_sims && !signature.degenerate && signature.check_prunable;
        let ub = unmatched_upper_bounds(&signature, self.cfg.alpha);
        // The per-element bounds are the nearest-neighbor filter's; with
        // it off (the §8.3 ablations, where `best` may not even be
        // computed) all that is claimed is φ ≤ 1, so at a fixed δ every
        // check survivor reaches verification as before.
        let nn_filter = self.cfg.filter == FilterKind::CheckAndNearestNeighbor;

        // ---- Check filter (Algorithm 1), then the cheap bound ------------
        let mut queue = Vec::new();
        for (slot, &sid) in cand_sets.iter().enumerate() {
            let row = &best[slot * n..(slot + 1) * n];
            if check_prunable
                && !row
                    .iter()
                    .zip(&check_thr)
                    .any(|(&b, &thr)| b >= thr - 1e-12)
            {
                continue;
            }
            stats.after_check += 1;
            // est_i = max(best computed φα, bound on uncomputed elements):
            // no φ evaluation, and the sum the NN filter starts from.
            let cheap = if nn_filter {
                row.iter()
                    .zip(&ub)
                    .fold(0.0, |sum, (&b, &u)| sum + b.max(u))
            } else {
                n as f64
            };
            let s_len = self.collection.set(sid).len();
            queue.push(Bounded {
                relatedness: relatedness(self.cfg.metric, cheap, n, s_len),
                cheap,
                sid,
                slot: slot as u32,
            });
        }

        StagedPass {
            best,
            ub,
            n,
            // O(len), and only what is popped pays the log.
            queue: BinaryHeap::from(queue),
            stats,
        }
    }

    /// Examines the queued candidate with the best bound against the
    /// relatedness threshold `delta` — the pass's δ, or anything above it
    /// that results already held allow (a top-k pass's k-th best score).
    ///
    /// **Stop rule**: when that candidate's cheap bound is below
    /// [`need`]`(delta, |R|, |S|)` by more than `FILTER_EPS`, its
    /// relatedness bound is strictly below `delta`, and so is every bound
    /// still queued: the pass is over. Strictly — a candidate that can
    /// still *equal* `delta` is examined, which is what lets a tie at the
    /// k-th score resolve by id.
    pub(crate) fn step(&mut self, r: &SetRecord, pass: &mut StagedPass, delta: f64) -> Step {
        let Some(cand) = pass.queue.pop() else {
            return Step::Done;
        };
        let s_len = self.collection.set(cand.sid).len();
        let need = need(self.cfg.metric, delta, pass.n, s_len);
        if cand.cheap < need - FILTER_EPS {
            pass.queue.clear();
            return Step::Done;
        }
        if self.cfg.filter == FilterKind::CheckAndNearestNeighbor
            && !self.nn_admits(r, pass, &cand, need)
        {
            return Step::Pruned;
        }
        pass.stats.after_nn += 1;
        Step::Survivor(cand.sid)
    }

    /// One candidate's nearest-neighbor refinement (§5.2, §6.5 extension):
    /// starting from its cheap bound, replaces each inexact per-element
    /// estimate by the nearest-neighbor similarity, giving up as soon as
    /// the sum falls below `need`.
    fn nn_admits(
        &mut self,
        r: &SetRecord,
        pass: &mut StagedPass,
        cand: &Bounded,
        need: f64,
    ) -> bool {
        let s_set = self.collection.set(cand.sid);
        let row = cand.slot as usize * pass.n;
        let mut total = cand.cheap;
        for (i, r_elem) in r.elements.iter().enumerate() {
            let (b, ub) = (pass.best[row + i], pass.ub[i]);
            // The estimate is exact when the computed value dominates the
            // bound (computation reuse, §5.2) or the bound is 0 (saturated
            // / α-clamped elements: uncomputed elements contribute exactly
            // 0).
            if b >= ub || ub == 0.0 {
                continue;
            }
            let nn = self
                .nn_search(r_elem, cand.sid, s_set, &mut pass.stats)
                .min(ub);
            total += nn - ub;
            if total < need - FILTER_EPS {
                return false;
            }
        }
        true
    }

    /// `NNSearch(r, S, I)` (§5.2): upper bound on `max_{s∈S} φα(r, s)` via
    /// the inverted index, exact except in the edit-similarity regime where
    /// elements sharing no q-gram can still clear α (then the §7.1 chunk
    /// bound is folded in).
    fn nn_search(
        &mut self,
        r_elem: &Element,
        sid: SetIdx,
        s_set: &SetRecord,
        stats: &mut PassStats,
    ) -> f64 {
        if r_elem.tokens.is_empty() {
            // An empty element matches exactly the empty elements of S.
            let has_empty = s_set.elements.iter().any(|e| e.tokens.is_empty());
            return if has_empty { 1.0 } else { 0.0 };
        }
        self.elem_version += 1;
        let mut best = 0.0f64;
        let mut seen = 0usize;
        for &t in r_elem.tokens.iter() {
            for p in self.index.postings_in_set(t, sid) {
                let e = p.elem as usize;
                if self.elem_stamp[e] == self.elem_version {
                    continue;
                }
                self.elem_stamp[e] = self.elem_version;
                seen += 1;
                let sim = self.phi.eval(r_elem, &s_set.elements[e]);
                stats.sim_evals += 1;
                if sim > best {
                    best = sim;
                }
            }
        }
        if seen < s_set.len() {
            // Unvisited elements share no token with r; for Jaccard they
            // score 0, for edit similarity they are bounded by the q-chunk
            // mismatch bound.
            best = best.max(self.phi.no_shared_token_bound(r_elem));
        }
        best
    }
}

/// What [`Searcher::step`] found out about one candidate.
pub(crate) enum Step {
    /// The queue is empty or the stop rule fired: the pass is over.
    Done,
    /// The nearest-neighbor filter pruned the candidate.
    Pruned,
    /// The candidate is due for verification.
    Survivor(SetIdx),
}

/// A check-filter survivor waiting in a [`StagedPass`] queue.
#[derive(Debug)]
struct Bounded {
    /// `cheap` as a relatedness: the queue's order.
    relatedness: f64,
    /// Σᵢ max(bestᵢ, ubᵢ), an upper bound on the matching score.
    cheap: f64,
    sid: SetIdx,
    /// Row of the candidate in [`StagedPass::best`].
    slot: u32,
}

impl PartialEq for Bounded {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Bounded {}

impl PartialOrd for Bounded {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bounded {
    /// Greater pops first: the larger bound, then the smaller id.
    fn cmp(&self, other: &Self) -> Ordering {
        self.relatedness
            .total_cmp(&other.relatedness)
            .then(other.sid.cmp(&self.sid))
    }
}

/// [`Searcher::stage`]'s output, consumed one candidate at a time by
/// [`Searcher::step`]: the queue of check-filter survivors, the
/// per-(candidate, reference-element) similarity cache and bounds the
/// nearest-neighbor filter reads, and the running [`PassStats`].
#[derive(Debug)]
pub(crate) struct StagedPass {
    /// Best computed φα per (candidate slot, reference element), flattened
    /// row-major with stride `n`.
    best: Vec<f64>,
    /// NN upper bound per reference element with no computed similarity.
    ub: Vec<f64>,
    /// |R|.
    n: usize,
    /// Check-filter survivors not yet examined, best bound on top.
    queue: BinaryHeap<Bounded>,
    /// Stats so far: selection and check-filter counters are final,
    /// `after_nn`/`sim_evals` grow as candidates are examined.
    pub(crate) stats: PassStats,
}

impl StagedPass {
    /// Check-filter survivors not yet examined.
    pub(crate) fn remaining(&self) -> usize {
        self.queue.len()
    }
}

/// Per-element upper bound on `φα(ri, s)` for candidates where `ri`
/// matched **nothing** (no shared signature token): 0 for saturated
/// elements (sim-thresh validity) and for unsaturated elements whose raw
/// bound is already below α (the clamp zeroes them); otherwise the raw
/// weighted-scheme bound (§6.5).
fn unmatched_upper_bounds(signature: &Signature, alpha: f64) -> Vec<f64> {
    signature
        .elems
        .iter()
        .map(|se| {
            if se.saturated || (alpha > 0.0 && se.raw_bound < alpha) {
                0.0
            } else {
                se.raw_bound
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RelatednessMetric, SignatureScheme};
    use silkmoth_collection::paper_example::table2;
    use silkmoth_text::SimilarityFunction;

    fn config(
        metric: RelatednessMetric,
        delta: f64,
        alpha: f64,
        scheme: SignatureScheme,
        filter: FilterKind,
    ) -> EngineConfig {
        EngineConfig {
            metric,
            similarity: SimilarityFunction::Jaccard,
            delta,
            alpha,
            scheme,
            filter,
            reduction: false,
        }
    }

    fn run(cfg: EngineConfig) -> (Vec<(SetIdx, f64)>, PassStats) {
        let (c, r) = table2();
        let index = silkmoth_collection::InvertedIndex::build(&c);
        let mut searcher = Searcher::new(&c, &index, cfg);
        searcher.run(&r, Restriction::default())
    }

    #[test]
    fn example3_containment_search_returns_s4() {
        // δ = 0.7, α = 0, containment: only S4 is related.
        let cfg = config(
            RelatednessMetric::Containment,
            0.7,
            0.0,
            SignatureScheme::Weighted,
            FilterKind::CheckAndNearestNeighbor,
        );
        let (results, stats) = run(cfg);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, 3); // S4
        assert!((results[0].1 - 0.743).abs() < 1e-3);
        assert!(stats.candidates <= 4);
        assert!(stats.after_nn <= stats.after_check);
    }

    #[test]
    fn example3_candidates_are_s2_s3_s4() {
        // With the Example 6/7 weighted signature, the initial candidates
        // are S2, S3, S4 (Figure 2).
        let cfg = config(
            RelatednessMetric::Containment,
            0.7,
            0.0,
            SignatureScheme::Weighted,
            FilterKind::None,
        );
        let (_, stats) = run(cfg);
        assert_eq!(stats.candidates, 3);
    }

    #[test]
    fn example8_check_filter_drops_s2() {
        // Example 8: S2 fails the check filter; S3, S4 pass.
        let cfg = config(
            RelatednessMetric::Containment,
            0.7,
            0.0,
            SignatureScheme::Weighted,
            FilterKind::Check,
        );
        let (results, stats) = run(cfg);
        assert_eq!(stats.candidates, 3);
        assert_eq!(stats.after_check, 2);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, 3);
    }

    #[test]
    fn example9_nn_filter_drops_s3() {
        // Example 9: the NN filter prunes S3; only S4 reaches verification.
        let cfg = config(
            RelatednessMetric::Containment,
            0.7,
            0.0,
            SignatureScheme::Weighted,
            FilterKind::CheckAndNearestNeighbor,
        );
        let (results, stats) = run(cfg);
        assert_eq!(stats.after_check, 2);
        assert_eq!(stats.after_nn, 1);
        assert_eq!(stats.verified, 1);
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn filters_never_change_results() {
        for metric in [
            RelatednessMetric::Similarity,
            RelatednessMetric::Containment,
        ] {
            for scheme in [
                SignatureScheme::Weighted,
                SignatureScheme::Dichotomy,
                SignatureScheme::Skyline,
                SignatureScheme::Unweighted,
            ] {
                for delta in [0.5, 0.7, 0.85] {
                    let mut outs = Vec::new();
                    for filter in [
                        FilterKind::None,
                        FilterKind::Check,
                        FilterKind::CheckAndNearestNeighbor,
                    ] {
                        let cfg = config(metric, delta, 0.0, scheme, filter);
                        outs.push(run(cfg).0);
                    }
                    assert_eq!(outs[0], outs[1], "{metric:?} {scheme:?} δ={delta}");
                    assert_eq!(outs[1], outs[2], "{metric:?} {scheme:?} δ={delta}");
                }
            }
        }
    }

    #[test]
    fn alpha_variants_agree_across_schemes() {
        for alpha in [0.25, 0.5, 0.7] {
            let mut results = Vec::new();
            for scheme in [
                SignatureScheme::Weighted,
                SignatureScheme::Skyline,
                SignatureScheme::Dichotomy,
                SignatureScheme::CombinedUnweighted,
            ] {
                let cfg = config(
                    RelatednessMetric::Containment,
                    0.7,
                    alpha,
                    scheme,
                    FilterKind::CheckAndNearestNeighbor,
                );
                results.push(run(cfg).0);
            }
            for w in results.windows(2) {
                assert_eq!(w[0], w[1], "α={alpha}");
            }
        }
    }

    #[test]
    fn restriction_excludes_sets() {
        let cfg = config(
            RelatednessMetric::Containment,
            0.7,
            0.0,
            SignatureScheme::Weighted,
            FilterKind::CheckAndNearestNeighbor,
        );
        let (c, r) = table2();
        let index = silkmoth_collection::InvertedIndex::build(&c);
        let mut searcher = Searcher::new(&c, &index, cfg);
        let (results, _) = searcher.run(
            &r,
            Restriction {
                min_exclusive: Some(3),
                skip: None,
            },
        );
        assert!(results.is_empty());
        let (results, _) = searcher.run(
            &r,
            Restriction {
                min_exclusive: None,
                skip: Some(3),
            },
        );
        assert!(results.is_empty());
    }

    #[test]
    fn searcher_is_reusable() {
        let cfg = config(
            RelatednessMetric::Containment,
            0.7,
            0.0,
            SignatureScheme::Dichotomy,
            FilterKind::CheckAndNearestNeighbor,
        );
        let (c, r) = table2();
        let index = silkmoth_collection::InvertedIndex::build(&c);
        let mut searcher = Searcher::new(&c, &index, cfg);
        let first = searcher.run(&r, Restriction::default()).0;
        for _ in 0..5 {
            assert_eq!(searcher.run(&r, Restriction::default()).0, first);
        }
    }

    #[test]
    fn size_check_prunes_similarity_candidates() {
        // Under SET-SIMILARITY with a tall δ, tiny sets cannot be similar
        // to R (|R| = 3): a 1-element set is outside [δ·3, 3/δ].
        let raw = vec![vec!["t1"], vec!["t1 x", "t1 y", "t1 z"]];
        let c = silkmoth_collection::Collection::build(
            &raw,
            silkmoth_collection::Tokenization::Whitespace,
        );
        let index = silkmoth_collection::InvertedIndex::build(&c);
        let r = c.encode_set(&["t1 a", "t1 b", "t1 c"]);
        // Unweighted scheme: "t1" survives the c−1 removals, so both sets
        // share a signature token and only the size check separates them.
        let cfg = config(
            RelatednessMetric::Similarity,
            0.8,
            0.0,
            SignatureScheme::Unweighted,
            FilterKind::None,
        );
        let mut searcher = Searcher::new(&c, &index, cfg);
        let (_, stats) = searcher.run(&r, Restriction::default());
        assert_eq!(stats.candidates, 1, "the singleton set must be size-pruned");
    }
}
