//! Signature generation (§4, §6, §7).
//!
//! A *valid signature* for a reference set `R` is a token subset `K ⊆ R^T`
//! such that any related `S` must share a token with `K` (Definition 4).
//! Theorem 1 characterizes the valid signatures as exactly those whose
//! unflattened form satisfies `Σ (|ri|−|ki|)/|ri| < θ` (Jaccard) or
//! `Σ |ri|/(|ri|+|ki|) < θ` (edit similarity, Definition 11), with
//! `θ = δ|R|`. Optimal selection is NP-complete (Theorem 2), so SilkMoth
//! uses cost/value greedy heuristics (§4.3), extended by the sim-thresh /
//! skyline / dichotomy schemes when a similarity threshold α is available
//! (§6).
//!
//! ## Saturation
//!
//! With α > 0, an element `r` is *saturated* once its signature holds at
//! least `cap(r)` units — `⌊(1−α)|r|⌋+1` tokens for Jaccard (§6.1) or
//! `⌊(1−α)/α·|r|⌋+1` q-chunk occurrences for edit similarity (§7.2; the
//! paper's prose omits the `+1`, but its own derivation requires the
//! mismatch count to strictly exceed `⌊(1−α)/α·|r|⌋`). Any element of `S`
//! missing all of a saturated element's signature tokens has similarity
//! below α, hence `φ_α = 0`: saturated elements stop contributing to the
//! validity sum entirely, which is what makes the dichotomy scheme's
//! signatures so small.
//!
//! The same cap bounds the nearest-neighbor filter (§5.2): for an
//! unsaturated element, an element of `S` that holds none of some
//! `cap(r)` units of `r` also scores `φ_α = 0`. The search for `r`'s
//! nearest neighbor in `S` therefore probes only the tokens that, with
//! the signature's own (whose postings the candidate walk already
//! read), cover `cap(r)` units, and its value is still exact.
//!
//! ## Degenerate signatures
//!
//! For edit similarity the weighted scheme can be empty (§7.3, when
//! `q ≥ δ/(1−δ)` and α gives no saturation help): even selecting every
//! q-chunk leaves the validity sum at or above θ. The generator then
//! returns a *degenerate* signature and the engine must treat every set as
//! a candidate (the paper: "SILKMOTH cannot generate any valid signature
//! but only compare R with every set").

use crate::config::SignatureScheme;
use silkmoth_collection::{Element, InvertedIndex, SetRecord};
use silkmoth_text::TokenId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Slack used for the strict `Σ < θ` validity comparison; generation only
/// stops once the sum is below `θ − VALIDITY_EPS`, so float noise can only
/// enlarge signatures (which preserves validity), never shrink them.
const VALIDITY_EPS: f64 = 1e-9;

/// Per-element signature `l_i` plus the bounds the filters need.
#[derive(Debug, Clone, PartialEq)]
pub struct SigElem {
    /// Signature tokens of this element, sorted ascending.
    pub tokens: Vec<TokenId>,
    /// Selected units: token count for Jaccard, q-chunk occurrences for
    /// edit similarity (one token may cover several chunk positions).
    pub units: usize,
    /// Upper bound on the raw similarity `φ(r, s)` for any `s` sharing no
    /// token with `tokens`: `(|r|−units)/|r|` for Jaccard,
    /// `|r|/(|r|+units)` for edit similarity. `1.0` for empty elements.
    pub raw_bound: f64,
    /// True when the element is covered by the sim-thresh side: missing
    /// all signature tokens then forces `φ_α = 0`.
    pub saturated: bool,
}

impl SigElem {
    /// This element's contribution to the validity sum: 0 when saturated,
    /// otherwise [`raw_bound`](Self::raw_bound).
    #[inline]
    pub fn validity_contribution(&self) -> f64 {
        if self.saturated {
            0.0
        } else {
            self.raw_bound
        }
    }
}

/// A generated signature for one reference set.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    /// Per-element signature token lists (`L_R` unflattened).
    pub elems: Vec<SigElem>,
    /// No valid signature exists: every set in the collection must be
    /// treated as a candidate.
    pub degenerate: bool,
    /// `Σ validity_contribution` over all elements.
    pub sum_bound: f64,
    /// Whether the check filter may *prune* candidates: requires
    /// `sum_bound < θ` (always true for signatures produced by the
    /// weighted-style schemes; can fail for unweighted edit signatures,
    /// whose validity argument is different — pruning is then disabled and
    /// the check filter only primes the nearest-neighbor reuse cache).
    pub check_prunable: bool,
}

impl Signature {
    /// Flattened signature `L^T` — the distinct tokens across elements.
    pub fn flat_tokens(&self) -> Vec<TokenId> {
        let mut v: Vec<TokenId> = self
            .elems
            .iter()
            .flat_map(|e| e.tokens.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Total inverted-list cost `Σ_{t∈L^T} |I[t]|` (Problem 3's objective).
    pub fn cost(&self, index: &InvertedIndex) -> usize {
        self.flat_tokens().iter().map(|&t| index.cost(t)).sum()
    }
}

/// Which bound family the signature formulas use, derived from the
/// similarity function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigKind {
    /// Jaccard: `bound = (|r|−u)/|r|`, cap `⌊(1−α)|r|⌋+1`.
    Jaccard,
    /// Dice: `bound = 2(|r|−u)/(2|r|−u)`, cap `⌊2(1−α)/(2−α)·|r|⌋+1`.
    Dice,
    /// Cosine: `bound = √((|r|−u)/|r|)`, cap `⌊(1−α²)|r|⌋+1`.
    Cosine,
    /// Edit similarity: `bound = |r|/(|r|+u)` over q-chunk units, cap
    /// `⌊(1−α)/α·|r|⌋+1` (§7).
    Edit,
}

impl SigKind {
    /// Derives the bound family from the run's similarity function.
    pub fn of(func: silkmoth_text::SimilarityFunction) -> Self {
        use silkmoth_text::SimilarityFunction as F;
        match func {
            F::Jaccard => Self::Jaccard,
            F::Dice => Self::Dice,
            F::Cosine => Self::Cosine,
            F::Eds { .. } | F::NEds { .. } => Self::Edit,
        }
    }

    /// True for the q-chunk (edit similarity) family.
    pub fn is_edit(&self) -> bool {
        matches!(self, Self::Edit)
    }
}

/// Inputs shared by all schemes.
#[derive(Debug, Clone, Copy)]
pub struct SigParams {
    /// Maximum matching threshold θ = δ|R| (§4.2).
    pub theta: f64,
    /// Similarity threshold α.
    pub alpha: f64,
    /// Bound family (token-based variants vs q-chunk edit similarity).
    pub kind: SigKind,
}

/// Generates a signature for `r` under the given scheme.
pub fn generate(
    r: &SetRecord,
    scheme: SignatureScheme,
    params: SigParams,
    index: &InvertedIndex,
) -> Signature {
    let mut state = State::new(r, params, index);
    match scheme {
        SignatureScheme::Weighted => state.greedy(false),
        SignatureScheme::Dichotomy => state.greedy(true),
        SignatureScheme::Skyline => {
            state.greedy(false);
            state.trim_to_cap();
        }
        SignatureScheme::Unweighted => state.unweighted(),
        SignatureScheme::CombinedUnweighted => {
            state.unweighted();
            state.trim_to_cap();
        }
    }
    state.finish()
}

/// The sim-thresh unit cap for one element (§6.1 for Jaccard, §7.2 for
/// edit similarity; Dice and cosine derived the same way — solve
/// `bound(|r| − m) < α` for the minimum integer `m`), or `None` when
/// α = 0 or the element cannot be covered (pool smaller than the cap, or
/// an empty element).
pub fn sim_thresh_cap(size: usize, pool_units: usize, alpha: f64, kind: SigKind) -> Option<usize> {
    if alpha <= 0.0 || size == 0 {
        return None;
    }
    // +1e-9 so that a mathematically-integral product is not floored one
    // short (which would under-size `m_i` and break validity); overshoot
    // only ever raises the cap, which is conservative.
    let raw = match kind {
        SigKind::Jaccard => (1.0 - alpha) * size as f64,
        // Dice ≥ α needs |x∩y| ≥ α|r|/(2−α): miss more than
        // 2(1−α)/(2−α)·|r| tokens and the score drops below α.
        SigKind::Dice => 2.0 * (1.0 - alpha) / (2.0 - alpha) * size as f64,
        // Cosine ≥ α needs |x∩y| ≥ α²|r|.
        SigKind::Cosine => (1.0 - alpha * alpha) * size as f64,
        SigKind::Edit => (1.0 - alpha) / alpha * size as f64,
    };
    let cap = (raw + 1e-9).floor() as usize + 1;
    (cap <= pool_units).then_some(cap)
}

/// The units a signature selects from, grouped by token in ascending
/// token order: `(token, multiplicity)` — an element's distinct tokens,
/// once each, or for edit similarity its q-chunk occurrences.
pub(crate) fn unit_pool(e: &Element, kind: SigKind) -> Vec<(TokenId, u32)> {
    if !kind.is_edit() {
        return e.tokens().iter().map(|&t| (t, 1)).collect();
    }
    let mut chunks: Vec<TokenId> = e.chunks().to_vec();
    chunks.sort_unstable();
    let mut grouped: Vec<(TokenId, u32)> = Vec::new();
    for t in chunks {
        match grouped.last_mut() {
            Some((last, m)) if *last == t => *m += 1,
            _ => grouped.push((t, 1)),
        }
    }
    grouped
}

/// Per-element state during generation.
struct ElemState {
    /// `|r|`: distinct tokens (Jaccard) or characters (edit).
    size: usize,
    /// Selectable units grouped by token: `(token, multiplicity)`.
    pool: Vec<(TokenId, u32)>,
    /// Tokens selected so far.
    selected: Vec<TokenId>,
    /// Units selected so far.
    units: usize,
    /// Saturation threshold in units, if the element is saturable.
    cap: Option<usize>,
    saturated: bool,
    kind: SigKind,
}

impl ElemState {
    fn new(e: &Element, params: SigParams) -> Self {
        let size = e.size(params.kind.is_edit());
        let pool = unit_pool(e, params.kind);
        let pool_units: usize = pool.iter().map(|&(_, m)| m as usize).sum();
        let cap = sim_thresh_cap(size, pool_units, params.alpha, params.kind);
        Self {
            size,
            pool,
            selected: Vec::new(),
            units: 0,
            cap,
            saturated: false,
            kind: params.kind,
        }
    }

    /// `raw_bound` at a given unit count: the maximum `φ(r, s)` over
    /// elements `s` sharing none of the selected units.
    fn bound_at(&self, units: usize) -> f64 {
        if self.size == 0 {
            return 1.0;
        }
        let r = self.size as f64;
        match self.kind {
            SigKind::Jaccard => {
                debug_assert!(units <= self.size);
                (r - units as f64) / r
            }
            // |x∩y| ≤ |r|−u and Dice = 2c/(|x|+|y|) is maximized at the
            // smallest |y| = c: 2(|r|−u) / (|r| + (|r|−u)).
            SigKind::Dice => {
                debug_assert!(units <= self.size);
                let c = r - units as f64;
                2.0 * c / (r + c)
            }
            // Cosine = c/√(|x||y|) ≤ c/√(|r|·c) = √(c/|r|).
            SigKind::Cosine => {
                debug_assert!(units <= self.size);
                ((r - units as f64) / r).sqrt()
            }
            SigKind::Edit => r / (r + units as f64),
        }
    }

    fn contribution(&self) -> f64 {
        if self.saturated {
            0.0
        } else {
            self.bound_at(self.units)
        }
    }

    /// Decrease of the validity sum if `mult` more units were selected,
    /// honoring saturation when `dichotomy` is set.
    fn marginal(&self, mult: u32, dichotomy: bool) -> f64 {
        if self.saturated {
            return 0.0;
        }
        let next = self.units + mult as usize;
        if dichotomy {
            if let Some(cap) = self.cap {
                if next >= cap {
                    // Crossing the cap zeroes the whole contribution.
                    return self.bound_at(self.units);
                }
            }
        }
        self.bound_at(self.units) - self.bound_at(next)
    }

    /// Applies a selection of token `t` with multiplicity `mult`.
    fn select(&mut self, t: TokenId, mult: u32, dichotomy: bool) {
        debug_assert!(!self.saturated);
        self.selected.push(t);
        self.units += mult as usize;
        if dichotomy {
            if let Some(cap) = self.cap {
                if self.units >= cap {
                    self.saturated = true;
                }
            }
        }
    }
}

/// Min-heap entry ordered by (ratio asc, cost asc, token desc) — the
/// tie-break that reproduces Example 7's selection order.
struct HeapEntry {
    ratio: f64,
    cost: usize,
    token: TokenId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest ratio pops first.
        other
            .ratio
            .total_cmp(&self.ratio)
            .then_with(|| other.cost.cmp(&self.cost))
            .then_with(|| self.token.cmp(&other.token))
    }
}

struct State<'a> {
    elems: Vec<ElemState>,
    /// token → list of (element index, multiplicity).
    occurrences: Vec<(TokenId, Vec<(usize, u32)>)>,
    params: SigParams,
    index: &'a InvertedIndex,
    sum: f64,
    degenerate: bool,
}

impl<'a> State<'a> {
    fn new(r: &SetRecord, params: SigParams, index: &'a InvertedIndex) -> Self {
        let elems: Vec<ElemState> = r
            .elements
            .iter()
            .map(|e| ElemState::new(e, params))
            .collect();
        // Group occurrences by token.
        let mut occ: Vec<(TokenId, usize, u32)> = Vec::new();
        for (i, es) in elems.iter().enumerate() {
            for &(t, m) in &es.pool {
                occ.push((t, i, m));
            }
        }
        occ.sort_unstable();
        let mut occurrences: Vec<(TokenId, Vec<(usize, u32)>)> = Vec::new();
        for (t, i, m) in occ {
            match occurrences.last_mut() {
                Some((last, v)) if *last == t => v.push((i, m)),
                _ => occurrences.push((t, vec![(i, m)])),
            }
        }
        let sum = elems.iter().map(ElemState::contribution).sum();
        Self {
            elems,
            occurrences,
            params,
            index,
            sum,
            degenerate: false,
        }
    }

    fn value_of(&self, occ: &[(usize, u32)], dichotomy: bool) -> f64 {
        occ.iter()
            .map(|&(i, m)| self.elems[i].marginal(m, dichotomy))
            .sum()
    }

    /// Cost/value greedy (§4.3), with dichotomy saturation when requested
    /// (§6.4). Lazy-greedy: entries are re-pushed when their cached ratio
    /// went stale (edit-similarity marginals shrink as units accumulate;
    /// dichotomy zeroes marginals of saturated elements).
    fn greedy(&mut self, dichotomy: bool) {
        let theta = self.params.theta;
        if self.sum < theta - VALIDITY_EPS {
            return; // trivially valid with the empty signature
        }
        let mut heap = BinaryHeap::with_capacity(self.occurrences.len());
        for (pos, (t, occ)) in self.occurrences.iter().enumerate() {
            let value = self.value_of(occ, dichotomy);
            if value > 0.0 {
                let cost = self.index.cost(*t);
                heap.push((
                    HeapEntry {
                        ratio: cost as f64 / value,
                        cost,
                        token: *t,
                    },
                    pos,
                ));
            }
        }
        while self.sum >= theta - VALIDITY_EPS {
            let Some((entry, pos)) = heap.pop() else {
                // Pool exhausted with the sum still at/above θ: no valid
                // signature exists (§7.3).
                self.degenerate = true;
                return;
            };
            let (t, ref occ) = self.occurrences[pos];
            debug_assert_eq!(t, entry.token);
            let value = self.value_of(occ, dichotomy);
            if value <= 0.0 {
                continue; // all containing elements saturated; selecting is pointless
            }
            let fresh = entry.cost as f64 / value;
            if fresh > entry.ratio + 1e-15 {
                // Stale: re-insert with the updated priority.
                heap.push((
                    HeapEntry {
                        ratio: fresh,
                        cost: entry.cost,
                        token: t,
                    },
                    pos,
                ));
                continue;
            }
            for &(i, m) in occ {
                let es = &mut self.elems[i];
                if !es.saturated {
                    self.sum -= es.marginal(m, dichotomy);
                    es.select(t, m, dichotomy);
                }
            }
        }
    }

    /// The unweighted scheme (§4.2): remove the `c − 1` most expensive
    /// unit occurrences (largest `|I[t]|`), keep the rest.
    fn unweighted(&mut self) {
        let theta = self.params.theta;
        // Empty elements can score 1.0 against an empty element of S
        // without sharing any token, so they weaken the pigeonhole count.
        let empties = self.elems.iter().filter(|e| e.size == 0).count();
        let c = (theta - empties as f64).ceil().max(0.0) as usize;
        if c == 0 {
            // θ achievable through empty elements alone: no token-sharing
            // argument is possible.
            self.degenerate = true;
            return;
        }
        // All unit occurrences, most expensive first; remove the first c−1.
        let mut units: Vec<(usize, TokenId, usize)> = Vec::new(); // (cost, token, elem)
        for (i, es) in self.elems.iter().enumerate() {
            for &(t, m) in &es.pool {
                let cost = self.index.cost(t);
                for _ in 0..m {
                    units.push((cost, t, i));
                }
            }
        }
        units.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        if units.len() < c {
            // Fewer shared-token opportunities than θ requires: no set can
            // be related, and the empty signature (no candidates) is valid.
            for es in &mut self.elems {
                self.sum -= es.contribution();
                // Everything "removed": contribution is the full bound.
                self.sum += es.bound_at(0);
            }
            self.recompute_sum();
            return;
        }
        let removed = &units[..c - 1];
        // Count removals per (elem, token).
        let mut removed_counts: std::collections::HashMap<(usize, TokenId), u32> =
            std::collections::HashMap::new();
        for &(_, t, i) in removed {
            *removed_counts.entry((i, t)).or_insert(0) += 1;
        }
        for (i, es) in self.elems.iter_mut().enumerate() {
            for &(t, m) in &es.pool.clone() {
                let rm = removed_counts.get(&(i, t)).copied().unwrap_or(0);
                let keep = m - rm;
                if keep > 0 {
                    es.selected.push(t);
                    es.units += keep as usize;
                }
            }
        }
        self.recompute_sum();
    }

    /// Per-element trim to the sim-thresh cap (skyline §6.3 /
    /// combined-unweighted §6.2): elements whose selection reached the cap
    /// keep only their `cap` cheapest units and become saturated.
    fn trim_to_cap(&mut self) {
        for es in &mut self.elems {
            let Some(cap) = es.cap else { continue };
            if es.saturated || es.units < cap {
                continue;
            }
            // Keep the cap cheapest units (minimum |I[t]|, then smallest id
            // for determinism).
            let mut toks: Vec<(usize, TokenId)> = es
                .selected
                .iter()
                .map(|&t| (self.index.cost(t), t))
                .collect();
            toks.sort_unstable();
            let mut kept = Vec::new();
            let mut kept_units = 0usize;
            for (_, t) in toks {
                if kept_units >= cap {
                    break;
                }
                let mult = es
                    .pool
                    .iter()
                    .find(|&&(pt, _)| pt == t)
                    .map(|&(_, m)| m as usize)
                    .unwrap_or(1);
                kept.push(t);
                kept_units += mult;
            }
            es.selected = kept;
            es.units = kept_units;
            es.saturated = true;
        }
        self.recompute_sum();
    }

    fn recompute_sum(&mut self) {
        self.sum = self.elems.iter().map(ElemState::contribution).sum();
    }

    fn finish(mut self) -> Signature {
        self.recompute_sum();
        let theta = self.params.theta;
        if self.degenerate {
            return Signature {
                elems: self
                    .elems
                    .iter()
                    .map(|es| SigElem {
                        tokens: Vec::new(),
                        units: 0,
                        raw_bound: es.bound_at(0),
                        saturated: false,
                    })
                    .collect(),
                degenerate: true,
                sum_bound: self.elems.iter().map(|es| es.bound_at(0)).sum(),
                check_prunable: false,
            };
        }
        let elems: Vec<SigElem> = self
            .elems
            .into_iter()
            .map(|mut es| {
                es.selected.sort_unstable();
                es.selected.dedup();
                SigElem {
                    raw_bound: es.bound_at(es.units),
                    units: es.units,
                    saturated: es.saturated,
                    tokens: es.selected,
                }
            })
            .collect();
        let sum_bound: f64 = elems.iter().map(SigElem::validity_contribution).sum();
        Signature {
            check_prunable: sum_bound < theta - VALIDITY_EPS,
            sum_bound,
            elems,
            degenerate: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silkmoth_collection::paper_example::{table2, tid};
    use silkmoth_collection::InvertedIndex;

    fn sig(scheme: SignatureScheme, theta: f64, alpha: f64) -> (Signature, InvertedIndex) {
        let (c, r) = table2();
        let index = InvertedIndex::build(&c);
        let params = SigParams {
            theta,
            alpha,
            kind: SigKind::Jaccard,
        };
        (generate(&r, scheme, params, &index), index)
    }

    #[test]
    fn example7_weighted_greedy() {
        // δ = 0.7, θ = 2.1 → K^T = {t8, t9, t10, t11, t12}.
        let (s, _) = sig(SignatureScheme::Weighted, 2.1, 0.0);
        assert!(!s.degenerate);
        let flat = s.flat_tokens();
        assert_eq!(flat, vec![tid(8), tid(9), tid(10), tid(11), tid(12)]);
        // Unflattened: k1 = {t8}, k2 = {t9, t10}, k3 = {t11, t12} (Example 6).
        assert_eq!(s.elems[0].tokens, vec![tid(8)]);
        assert_eq!(s.elems[1].tokens, vec![tid(9), tid(10)]);
        assert_eq!(s.elems[2].tokens, vec![tid(11), tid(12)]);
        // Σ (|ri|−|ki|)/|ri| = 4/5 + 3/5 + 3/5 = 2.0 < θ.
        assert!((s.sum_bound - 2.0).abs() < 1e-12);
        assert!(s.check_prunable);
    }

    #[test]
    fn example13_dichotomy() {
        // α = δ = 0.7 → L^T = {t11, t12}, r3 saturated.
        let (s, _) = sig(SignatureScheme::Dichotomy, 2.1, 0.7);
        assert!(!s.degenerate);
        assert_eq!(s.flat_tokens(), vec![tid(11), tid(12)]);
        assert!(s.elems[0].tokens.is_empty());
        assert!(s.elems[1].tokens.is_empty());
        assert_eq!(s.elems[2].tokens, vec![tid(11), tid(12)]);
        assert!(s.elems[2].saturated);
        // Σ = 1 + 1 + 0 = 2.0 < 2.1.
        assert!((s.sum_bound - 2.0).abs() < 1e-12);
    }

    #[test]
    fn example12_skyline_equals_weighted() {
        // α = δ = 0.7: skyline trims nothing (|ki| ≤ cap = 2) and L^T = K^T.
        let (s, _) = sig(SignatureScheme::Skyline, 2.1, 0.7);
        assert_eq!(
            s.flat_tokens(),
            vec![tid(8), tid(9), tid(10), tid(11), tid(12)]
        );
        // k2 = {t9, t10} hits the cap exactly → saturated; k1 = {t8} is not.
        assert!(!s.elems[0].saturated);
        assert!(s.elems[1].saturated);
        assert!(s.elems[2].saturated);
    }

    #[test]
    fn skyline_reduces_to_weighted_when_alpha_zero() {
        let (a, _) = sig(SignatureScheme::Skyline, 2.1, 0.0);
        let (b, _) = sig(SignatureScheme::Weighted, 2.1, 0.0);
        assert_eq!(a.flat_tokens(), b.flat_tokens());
        assert!(a.elems.iter().all(|e| !e.saturated));
    }

    #[test]
    fn dichotomy_reduces_to_weighted_when_alpha_zero() {
        let (a, _) = sig(SignatureScheme::Dichotomy, 2.1, 0.0);
        let (b, _) = sig(SignatureScheme::Weighted, 2.1, 0.0);
        assert_eq!(a.flat_tokens(), b.flat_tokens());
    }

    #[test]
    fn unweighted_keeps_all_but_c_minus_one() {
        // Example 5: c = ⌈2.1⌉ = 3, remove 2 occurrences. The most
        // expensive occurrences are the two t1's (cost 9).
        let (s, _) = sig(SignatureScheme::Unweighted, 2.1, 0.0);
        let flat = s.flat_tokens();
        // t1 appears in r1 and r3 (two occurrences): both removed, so t1
        // is gone; everything else stays.
        assert!(!flat.contains(&tid(1)));
        for i in 2..=12 {
            assert!(flat.contains(&tid(i)), "t{i} should remain");
        }
        assert!(s.check_prunable); // Σ = 1/5 + 1/5 < θ
        assert!((s.sum_bound - 0.4).abs() < 1e-12);
    }

    #[test]
    fn unweighted_signature_is_larger_than_weighted() {
        let (u, idx) = sig(SignatureScheme::Unweighted, 2.1, 0.0);
        let (w, _) = sig(SignatureScheme::Weighted, 2.1, 0.0);
        assert!(u.cost(&idx) > w.cost(&idx));
    }

    #[test]
    fn combined_unweighted_trims_to_cap() {
        let (s, _) = sig(SignatureScheme::CombinedUnweighted, 2.1, 0.7);
        // cap = 2 per element; every element ends with ≤ 2 tokens... in
        // units terms each li has exactly cap units (trimmed) since the
        // unweighted ki kept ≥ 3 tokens per element.
        for e in &s.elems {
            assert!(e.units <= 2);
            assert!(e.saturated);
        }
        // And the signature is strictly cheaper than plain unweighted.
        let (u, idx) = sig(SignatureScheme::Unweighted, 2.1, 0.7);
        assert!(s.cost(&idx) < u.cost(&idx));
    }

    #[test]
    fn higher_theta_smaller_signature() {
        let (lo, idx) = sig(SignatureScheme::Weighted, 0.7 * 3.0, 0.0);
        let (hi, _) = sig(SignatureScheme::Weighted, 0.85 * 3.0, 0.0);
        assert!(hi.cost(&idx) <= lo.cost(&idx));
    }

    #[test]
    fn all_validity_sums_below_theta() {
        for scheme in [
            SignatureScheme::Weighted,
            SignatureScheme::Skyline,
            SignatureScheme::Dichotomy,
            SignatureScheme::Unweighted,
            SignatureScheme::CombinedUnweighted,
        ] {
            for alpha in [0.5, 0.7] {
                let (s, _) = sig(scheme, 2.1, alpha);
                assert!(!s.degenerate);
                assert!(
                    s.sum_bound < 2.1,
                    "{scheme:?} α={alpha}: Σ = {}",
                    s.sum_bound
                );
            }
        }
    }

    #[test]
    fn sim_thresh_cap_values() {
        // Example 10: α = 0.7, |ri| = 5 → ⌊0.3·5⌋ + 1 = 2.
        assert_eq!(sim_thresh_cap(5, 5, 0.7, SigKind::Jaccard), Some(2));
        // α = 0 → None.
        assert_eq!(sim_thresh_cap(5, 5, 0.0, SigKind::Jaccard), None);
        // Edit: α = 0.8, |r| = 10 → ⌊0.25·10⌋ + 1 = 3 chunk units.
        assert_eq!(sim_thresh_cap(10, 4, 0.8, SigKind::Edit), Some(3));
        // Unsaturable when the pool is smaller than the cap.
        assert_eq!(sim_thresh_cap(10, 2, 0.8, SigKind::Edit), None);
        // Empty element: never saturable.
        assert_eq!(sim_thresh_cap(0, 0, 0.7, SigKind::Jaccard), None);
        // Exact integral product is not floored short: (1−0.75)·4 = 1.
        assert_eq!(sim_thresh_cap(4, 4, 0.75, SigKind::Jaccard), Some(2));
    }

    #[test]
    fn empty_reference_set_is_trivially_fine() {
        let (c, _) = table2();
        let index = InvertedIndex::build(&c);
        let r = c.encode_set(&Vec::<&str>::new());
        let s = generate(
            &r,
            SignatureScheme::Weighted,
            SigParams {
                theta: 0.0001,
                alpha: 0.0,
                kind: SigKind::Jaccard,
            },
            &index,
        );
        assert!(s.elems.is_empty());
    }

    #[test]
    fn unknown_tokens_are_free_and_selected_first() {
        // A reference set full of out-of-dictionary tokens: its signature
        // costs 0 and admits no candidates — which is correct, as no set
        // can be related to it.
        let (c, _) = table2();
        let index = InvertedIndex::build(&c);
        let r = c.encode_set(&["zz1 zz2 zz3", "zz4 zz5 zz6"]);
        let s = generate(
            &r,
            SignatureScheme::Weighted,
            SigParams {
                theta: 0.7 * 2.0,
                alpha: 0.0,
                kind: SigKind::Jaccard,
            },
            &index,
        );
        assert!(!s.degenerate);
        assert_eq!(s.cost(&index), 0);
        assert!(!s.flat_tokens().is_empty());
    }
}
