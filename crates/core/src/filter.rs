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

use std::cell::Cell;
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
    /// φ evaluations performed across filters and verification.
    /// Identical elements are evaluated once per reference element and
    /// pass in candidate selection (the element-id memo of
    /// [`Searcher`]), so this is below the number of (reference element,
    /// posting) pairs looked at wherever the corpus repeats its elements.
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

/// Reusable search-pass executor. One `Searcher` per thread; `run` may be
/// called any number of times.
///
/// ## Scratch
///
/// A pass keeps three maps keyed by ids — the candidate slot per set id,
/// the visited mark per element position of one candidate set, and the
/// **φ memo** per [`ElemId`](silkmoth_collection::ElemId): within one
/// reference element of one pass, φ against a stored element is evaluated
/// at its first posting and read back at every other posting of the same
/// element, bit for bit. The memo moves on at every reference element of
/// every pass, so nothing in it outlives the reference element it was
/// computed for.
///
/// Each map is **sized by what one use touches, not by the collection**:
/// an open-addressed table whose cells carry a version stamp, emptied by
/// moving to the next version, of which a use takes only the prefix its
/// own ids need — a bound known beforehand: the postings of the signature
/// tokens, the postings of one reference element, the elements of the
/// largest set. A request that touches sixty elements works in a few
/// cache lines, whatever the collection holds or the thread has served.
///
/// The maps are **borrowed from the thread**: `new` takes the thread's
/// scratch (an empty one when another live `Searcher` on the thread has
/// it) and `Drop` gives it back, so a warm thread allocates for a query
/// only what grows with that query. The version counters travel with the
/// cells — a stamp written for one collection or searcher can never equal
/// a version handed out later — and when a counter reaches `u32::MAX` its
/// map's stamps are cleared before it starts again at 1 (stamp 0 is never
/// current), so reuse stays correct across wrap-around.
pub struct Searcher<'a> {
    collection: &'a Collection,
    index: &'a InvertedIndex,
    cfg: EngineConfig,
    phi: Phi,
    kind: SigKind,
    scratch: Scratch,
}

/// The id-keyed maps of a pass (see [`Searcher`]'s scratch contract).
#[derive(Debug, Default)]
struct Scratch {
    /// Candidate slot per set id, for one pass.
    cand: Stamped<u32>,
    /// Elements of one candidate set already visited by one `nn_search`.
    visited: Stamped<()>,
    /// φα(rᵢ, element) per element id, for one reference element of one
    /// pass.
    memo: Stamped<f64>,
    /// Postings of one reference element, for dedup.
    postings: Vec<(SetIdx, u32)>,
}

thread_local! {
    /// The scratch the next [`Searcher`] made on this thread borrows;
    /// empty while one has it, or before the first.
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// A map from ids to `T` for one use at a time: [`begin`](Self::begin)
/// empties it in O(1) and sizes it by the ids that use will touch, not by
/// how many ids there are.
#[derive(Debug, Default)]
struct Stamped<T> {
    /// Open-addressed `(stamp, id, value)` cells; a cell is taken where
    /// its stamp equals `version`. Stamp 0 is never current.
    cells: Vec<(u32, u32, T)>,
    version: u32,
    /// The cells in use are `0..=mask`, a power of two of them.
    mask: usize,
}

impl<T: Copy + Default> Stamped<T> {
    /// Starts an empty map that will be given at most `ids` distinct ids.
    /// It takes the shortest prefix of the cells that keeps them a third
    /// free, so that a small pass after a large one still works in a few
    /// cache lines, and a probe always ends at a free cell.
    fn begin(&mut self, ids: usize) {
        let want = (ids + ids / 2 + 1).next_power_of_two();
        if self.cells.len() < want {
            self.cells.resize(want, (0, 0, T::default()));
        }
        self.mask = want - 1;
        if self.version == u32::MAX {
            // Every version has been handed out once: a stamp left from
            // the first round would match the second's.
            self.cells.iter_mut().for_each(|cell| cell.0 = 0);
            self.version = 0;
        }
        self.version += 1;
    }

    /// The cell that holds `id`, or the free one where it belongs.
    #[inline]
    fn probe(&self, id: u32) -> usize {
        let mut at = (u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask;
        loop {
            let (stamp, held, _) = self.cells[at];
            if stamp != self.version || held == id {
                return at;
            }
            at = (at + 1) & self.mask;
        }
    }

    #[inline]
    fn get(&self, id: u32) -> Option<T> {
        let (stamp, _, value) = self.cells[self.probe(id)];
        (stamp == self.version).then_some(value)
    }

    #[inline]
    fn set(&mut self, id: u32, value: T) {
        let at = self.probe(id);
        self.cells[at] = (self.version, id, value);
    }
}

impl Drop for Searcher<'_> {
    fn drop(&mut self) {
        // Not `with`: a searcher dropped while the thread's locals are
        // being destroyed just frees its scratch.
        let _ = SCRATCH.try_with(|slot| slot.set(std::mem::take(&mut self.scratch)));
    }
}

/// Sentinel for "no computed similarity" in the best-φα cache.
const NONE_SIM: f64 = -1.0;

impl<'a> Searcher<'a> {
    /// Creates a searcher bound to a collection, its index, and a config,
    /// on the calling thread's scratch.
    pub fn new(collection: &'a Collection, index: &'a InvertedIndex, cfg: EngineConfig) -> Self {
        Self {
            collection,
            index,
            cfg,
            phi: Phi::new(cfg.similarity, cfg.alpha),
            kind: SigKind::of(cfg.similarity),
            scratch: SCRATCH.take(),
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
        // A candidate comes from a posting of a signature token.
        self.scratch
            .cand
            .begin(self.collection.len().min(stats.signature_cost as usize));
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
                let Scratch {
                    cand,
                    memo,
                    postings,
                    ..
                } = &mut self.scratch;
                postings.clear();
                for &t in &sig_elem.tokens {
                    for p in self.index.list(t) {
                        postings.push((p.set, p.elem));
                    }
                }
                postings.sort_unstable();
                postings.dedup();
                // φα(rᵢ, ·) per distinct stored element, for this i only.
                memo.begin(postings.len());
                for &(sid, eid) in postings.iter() {
                    if !restriction.admits(sid) {
                        continue;
                    }
                    // Locate or admit the candidate slot. Tombstoned sets
                    // keep their postings in the index but are never
                    // admitted as candidates.
                    let slot = if let Some(slot) = cand.get(sid) {
                        slot as usize
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
                        cand.set(sid, slot as u32);
                        cand_sets.push(sid);
                        best.resize(best.len() + n, NONE_SIM);
                        slot
                    };
                    if compute_sims {
                        let s_elem = &self.collection.set(sid).elements[eid as usize];
                        let id = s_elem.id().expect("stored elements are in the dictionary");
                        let sim = memo.get(id).unwrap_or_else(|| {
                            let sim = self.phi.eval(&r.elements[i], s_elem);
                            stats.sim_evals += 1;
                            memo.set(id, sim);
                            sim
                        });
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
        let visited = &mut self.scratch.visited;
        visited.begin(self.collection.max_set_len());
        let mut best = 0.0f64;
        let mut seen = 0usize;
        for &t in r_elem.tokens.iter() {
            for p in self.index.postings_in_set(t, sid) {
                if visited.get(p.elem).is_some() {
                    continue;
                }
                visited.set(p.elem, ());
                seen += 1;
                let sim = self.phi.eval(r_elem, &s_set.elements[p.elem as usize]);
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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

    /// A corpus that repeats its elements: every element is one of
    /// `distinct` texts, so the same element turns up twice in a set and
    /// in most sets.
    fn repeated_corpus(rng: &mut StdRng, edit: bool, distinct: usize) -> Vec<Vec<String>> {
        let pool: Vec<String> = (0..distinct)
            .map(|_| {
                if edit {
                    (0..rng.random_range(2..=7usize))
                        .map(|_| char::from(b'a' + rng.random_range(0..4u8)))
                        .collect()
                } else {
                    (0..rng.random_range(1..=4usize))
                        .map(|_| format!("t{}", rng.random_range(0..9u32)))
                        .collect::<Vec<_>>()
                        .join(" ")
                }
            })
            .collect();
        (0..rng.random_range(6..=24usize))
            .map(|_| {
                (0..rng.random_range(1..=6usize))
                    .map(|_| pool[rng.random_range(0..pool.len())].clone())
                    .collect()
            })
            .collect()
    }

    fn random_config(rng: &mut StdRng, edit: bool) -> EngineConfig {
        let schemes = [
            SignatureScheme::Unweighted,
            SignatureScheme::Weighted,
            SignatureScheme::CombinedUnweighted,
            SignatureScheme::Skyline,
            SignatureScheme::Dichotomy,
        ];
        EngineConfig {
            metric: [
                RelatednessMetric::Similarity,
                RelatednessMetric::Containment,
            ][rng.random_range(0..2usize)],
            similarity: if edit {
                SimilarityFunction::Eds { q: 2 }
            } else {
                SimilarityFunction::Jaccard
            },
            delta: [0.2, 0.5, 0.8][rng.random_range(0..3usize)],
            alpha: if edit {
                0.7
            } else {
                [0.0, 0.4][rng.random_range(0..2usize)]
            },
            scheme: schemes[rng.random_range(0..schemes.len())],
            filter: FilterKind::CheckAndNearestNeighbor,
            reduction: false,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // What the memo may never change: the `best` matrix of a staged
        // pass holds, bit for bit, the maximum of φ evaluated at every
        // posting of the reference element's signature tokens — while φ
        // was evaluated once per distinct element, not once per posting.
        #[test]
        fn memoised_stage_is_bit_equal_to_phi_per_posting(seed in any::<u64>()) {
            let rng = &mut StdRng::seed_from_u64(seed);
            let edit = rng.random::<bool>();
            let raw = repeated_corpus(rng, edit, 7);
            let cfg = random_config(rng, edit);
            let mut c = Collection::build(&raw[..raw.len() / 2], cfg.tokenization());
            c.append_sets(&raw[raw.len() / 2..]);
            c.remove_sets(&[rng.random_range(0..raw.len()) as SetIdx]).unwrap();
            let index = InvertedIndex::build(&c);
            let r = c.encode_set(&raw[rng.random_range(0..raw.len())]);
            let n = r.len();

            let mut searcher = Searcher::new(&c, &index, cfg);
            let pass = searcher.stage(&r, Restriction::default());
            let params = SigParams {
                theta: cfg.delta * n as f64,
                alpha: cfg.alpha,
                kind: SigKind::of(cfg.similarity),
            };
            let signature = generate(&r, cfg.scheme, params, &index);
            prop_assume!(!signature.degenerate);

            let candidate = |sid: SetIdx| {
                c.is_live(sid) && size_check(cfg.metric, cfg.delta, n, c.set(sid).len())
            };
            let (mut postings, mut distinct) = (0u64, 0u64);
            for (i, sig_elem) in signature.elems.iter().enumerate() {
                let mut seen: Vec<(SetIdx, u32)> = sig_elem
                    .tokens
                    .iter()
                    .flat_map(|&t| index.list(t))
                    .filter(|p| candidate(p.set))
                    .map(|p| (p.set, p.elem))
                    .collect();
                seen.sort_unstable();
                seen.dedup();
                postings += seen.len() as u64;
                let mut ids: Vec<_> = seen
                    .iter()
                    .map(|&(sid, eid)| c.set(sid).elements[eid as usize].id())
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                distinct += ids.len() as u64;
                for cand in pass.queue.iter() {
                    let want = seen
                        .iter()
                        .filter(|&&(sid, _)| sid == cand.sid)
                        .map(|&(sid, eid)| {
                            searcher.phi.eval(&r.elements[i], &c.set(sid).elements[eid as usize])
                        })
                        .fold(NONE_SIM, f64::max);
                    let got = pass.best[cand.slot as usize * n + i];
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "set {} element {}", cand.sid, i);
                }
            }
            prop_assert_eq!(pass.stats.sim_evals, distinct);
            prop_assert!(distinct <= postings);
        }
    }

    #[test]
    fn stamped_map_holds_what_one_use_set_and_nothing_older() {
        let mut map = Stamped::<u32>::default();
        map.begin(1000);
        for id in (0..3000).step_by(3) {
            map.set(id, id + 7);
        }
        map.set(30, 1);
        for id in 0..3000 {
            let want = (id % 3 == 0).then_some(if id == 30 { 1 } else { id + 7 });
            assert_eq!(map.get(id), want, "{id}");
        }
        // A small use after a large one takes a short prefix of the
        // cells and sees nothing the large one left there.
        map.begin(4);
        assert!(map.mask < 8 && map.cells.len() > 1000);
        let ids = [0, 3, 2997, u32::MAX];
        for id in ids {
            assert_eq!(map.get(id), None, "{id}");
            map.set(id, !id);
        }
        for id in ids {
            assert_eq!(map.get(id), Some(!id), "{id}");
        }
        assert_eq!(map.get(6), None);
    }

    impl<T> Stamped<T> {
        /// Puts the counter two steps before its end and makes every
        /// stamp one of the first versions of the round after it.
        fn age_to_the_wrap(&mut self) {
            for (i, cell) in self.cells.iter_mut().enumerate() {
                cell.0 = 1 + (i % 3) as u32;
            }
            self.version = u32::MAX - 1;
        }
    }

    #[test]
    fn reused_scratch_is_correct_across_version_wrap_around() {
        let rng = &mut StdRng::seed_from_u64(0x5eed);
        let raw = repeated_corpus(rng, false, 9);
        let cfg = config(
            RelatednessMetric::Containment,
            0.3,
            0.0,
            SignatureScheme::Weighted,
            FilterKind::CheckAndNearestNeighbor,
        );
        let c = Collection::build(&raw, cfg.tokenization());
        let index = InvertedIndex::build(&c);
        let refs: Vec<SetRecord> = raw.iter().map(|set| c.encode_set(set)).collect();
        let run_all = || -> Vec<(Vec<(SetIdx, f64)>, PassStats)> {
            refs.iter()
                .map(|r| Searcher::new(&c, &index, cfg).run(r, Restriction::default()))
                .collect()
        };
        // A thread of its own starts from an empty scratch.
        let want = std::thread::scope(|scope| scope.spawn(run_all).join().unwrap());
        assert!(want.iter().any(|(results, _)| results.len() > 1));
        // Grow this thread's tables, then age them: the passes below run
        // through `u32::MAX` into the second round, whose versions every
        // stamp would match had the wrap not cleared them.
        assert_eq!(run_all(), want);
        let mut scratch = SCRATCH.take();
        scratch.cand.age_to_the_wrap();
        scratch.visited.age_to_the_wrap();
        scratch.memo.age_to_the_wrap();
        SCRATCH.set(scratch);
        assert_eq!(run_all(), want);
        let scratch = SCRATCH.take();
        for version in [
            scratch.cand.version,
            scratch.visited.version,
            scratch.memo.version,
        ] {
            assert!(version < u32::MAX - 1, "the counter wrapped: {version}");
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
