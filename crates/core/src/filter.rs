//! One *search pass*: candidate selection, check filter (Algorithm 1),
//! nearest-neighbor filter (Algorithm 2), and verification (§3, §5, §6.5).
//!
//! The pass is staged and ordered. [`Searcher::stage`] selects the
//! candidates, runs the check filter over all of them and queues the
//! survivors by an upper bound on their relatedness that costs no φ
//! evaluation (those whose bound cannot reach even the floor are counted
//! and left out). [`Searcher::step`] then takes them best bound first
//! against a threshold the caller may raise between steps: it ends the
//! pass at the first candidate whose bound cannot reach the threshold
//! (none behind it can either) and runs the nearest-neighbor filter on
//! the others. [`Searcher::verify`] takes a survivor against the same
//! threshold: an upper bound from the stored set's side first — an element
//! of `S` is matched at most once too — and the maximum matching only for
//! a pair that bound cannot refute. A floor-only pass keeps the threshold
//! at δ; a top-k pass raises it to the k-th best verified score.
//! A pass staged to explain some set ids is restricted to them, and
//! writes down in a [`Record`] what each stage found of each.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::config::{EngineConfig, FilterKind, FILTER_EPS};
use crate::explain::{new_record, recorded, Record, Verdict::*};
use crate::phi::Phi;
use crate::signature::{
    generate, sim_thresh_cap, unit_pool, SigElem, SigKind, SigParams, Signature,
};
use crate::verify::{matching_score_over, need, related_at, relatedness, size_check};
use silkmoth_collection::{Collection, ElemId, Element, InvertedIndex, SetIdx, SetRecord};
use silkmoth_matching::Edge;
use silkmoth_text::TokenId;

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
/// stops as soon as no remaining bound reaches its k-th best score, and
/// verifies against that score, so for the same reference and floor these
/// four are at most — and usually far below — the floor-only counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Candidates admitted from the inverted index (post size check).
    pub candidates: usize,
    /// Candidates surviving the check filter.
    pub after_check: usize,
    /// Examined candidates surviving the nearest-neighbor filter.
    pub after_nn: usize,
    /// Pairs handed to verification: refuted by the column bound, or
    /// solved by maximum matching.
    pub verified: usize,
    /// Verified pairs that reached the threshold they were verified
    /// against. For a floor-only pass that is the pass's δ, and this is
    /// the number of results. A top-k pass verifies against its k-th best
    /// score once it holds `k` results: a pair that is related at the
    /// floor and already outranked is not counted (and, as a rule, not
    /// solved), one that ties the k-th score is, whichever of the two the
    /// answer keeps.
    pub results: usize,
    /// φ evaluations performed across filters and verification. The pass
    /// keeps one φ table (see [`Searcher`]) and evaluates a (reference
    /// element, stored element) pair once, whoever meets it first —
    /// candidate selection, a nearest-neighbor search or verification —
    /// and however many postings and candidate sets it turns up in: this
    /// is the number of distinct pairs the pass met.
    pub sim_evals: u64,
    /// Identical pairs removed by reduction-based verification.
    pub reduced_pairs: u64,
    /// `Σ |I[t]|` over the signature tokens (Problem 3's objective).
    pub signature_cost: u64,
    /// 1 when no valid signature existed (degenerate pass).
    pub degenerate: u32,
    /// Posting-run lookups the nearest-neighbor filter made: one per
    /// token it probed in a candidate set.
    pub nn_probes: u64,
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
        self.nn_probes += other.nn_probes;
    }
}

/// Reusable search-pass executor. One `Searcher` per thread; it may stage
/// any number of passes, one after another.
///
/// ## Scratch
///
/// A pass keeps four maps keyed by ids — the candidate slot per set id,
/// the visited mark per element id of one candidate set, the **φ table**
/// per (reference element, [`ElemId`]) and the **column summary** per
/// [`ElemId`]. φ between a reference element and a stored element is
/// evaluated the first time the pass meets the pair — in candidate
/// selection, in a nearest-neighbor search or in verification — and read
/// back, bit for bit, wherever any of them meets it again: at another
/// posting, in another candidate set. A posting names its element id, so
/// a hit touches neither a set nor an element. Verification meets a
/// stored element a column at a time, every reference element against
/// it, and keeps the largest similarity it found as the element's
/// summary: what the element can add to a matching with this reference,
/// in whichever set it turns up next. Of the cells it had to evaluate it
/// keeps the positive ones; a cell of a summarised column that is not in
/// the table is 0. Both live for one pass: nothing in them outlives the
/// reference it was computed for.
///
/// The slot map is **sized by the collection's set ids**: one `u64` per
/// set id of the largest collection the thread has searched, a version
/// stamp and a slot, read and written at the id itself — no hash, no
/// probe. It is allocated zeroed, so its memory is resident only where
/// passes have touched it, and it grows in place when appends add ids.
///
/// The element-keyed maps are each **sized by what one use touches, not
/// by the collection**: an open-addressed table whose cells carry a
/// version stamp, emptied by moving to the next version, of which a use
/// takes only the prefix its own keys need. For the visited marks that
/// is a bound known beforehand, the elements of the largest set. The φ
/// table is begun for the postings of the signature tokens, which bound
/// the pairs candidate selection can meet, or for a few thousand pairs
/// where there are more postings than that, and doubles its prefix
/// whenever the pass meets more pairs than it has room for — inside
/// capacity set aside, untouched, for all those postings before the pass
/// allocates anything, so that the table a thread keeps does not move
/// to a new place among the buffers a pass frees when it ends. The
/// column summaries start at a few hundred elements and double the same
/// way, inside capacity set aside once. A request that touches sixty
/// elements works in a few cache lines of these, whatever the collection
/// holds or the thread has served.
///
/// The maps, and the edge list a verified pair is solved from, are
/// **borrowed from the thread**: `new` takes the thread's
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

/// What a pass keeps between its steps (see [`Searcher`]'s scratch
/// contract): the id-keyed maps, and the buffer a verified pair's
/// positive cells are solved from.
#[derive(Debug, Default)]
struct Scratch {
    /// Candidate slot per set id, for one pass.
    slots: SlotMap,
    /// Element ids of one candidate set already visited by one
    /// `nn_search` that searches every token.
    visited: Stamped<()>,
    /// φα between the reference's elements and stored ones, for one pass.
    phis: PhiMemo,
    /// The φ the posting walk took for the reference element it is at.
    walk_cache: WalkCache,
    /// The tokens the nearest-neighbor filter probes, for one pass.
    probes: ProbeLists,
    /// The positive cells of the pair being solved.
    edges: Vec<Edge>,
}

/// What a pass remembers of φα between the reference's elements and the
/// stored ones: single cells as the filters meet them, whole columns as
/// verification does.
///
/// A stored element with a **column summary** has been compared with
/// every reference element: the cells of its column that are not in
/// `cells` are exactly 0. (Under α most of a column is; keeping the zeros
/// as cells would grow the table by |R| × the elements verification
/// walks, in the middle of a pass.)
#[derive(Debug, Default)]
struct PhiMemo {
    /// φα(rᵢ, element) per [`phi_key`].
    cells: Stamped<f64>,
    /// maxᵢ φα(rᵢ, element) per [`ElemId`]: the most the element can add
    /// to a matching with this reference, whatever set it is met in.
    cols: Stamped<f64>,
}

/// The most (reference element, element) pairs a pass's φ table is begun
/// for — 200 kB of cells, which a core's own cache holds beside the rest
/// of a pass. The postings of the signature tokens bound what candidate
/// selection can meet, but where the corpus repeats its elements, or the
/// tokens are q-grams, the pairs are a small share of them; a pass that
/// does meet more grows the table.
const PHI_TABLE_START: usize = 4096;

/// The stored elements a pass's column summaries are begun for — 12 kB of
/// cells. Verification meets the elements of the sets it is handed, most
/// of them in set after set; a pass that is handed hundreds of sets
/// doubles the map a few times.
const COLUMNS_START: usize = 256;

/// The stored elements the column summaries have capacity set aside for,
/// once per thread, so that those doublings happen in place.
const COLUMNS_RESERVED: usize = 16 * COLUMNS_START;

/// The φ table's key for reference element `i` and a stored element.
#[inline]
fn phi_key(i: usize, id: ElemId) -> u64 {
    (i as u64) << 32 | u64::from(id)
}

impl PhiMemo {
    /// φα(rᵢ, stored element `id`): read back, or evaluated, counted and
    /// kept the first time the pass meets the pair. The element's
    /// encoding is read by its id, from its slab.
    #[inline]
    fn phi(
        &mut self,
        phi: &Phi,
        collection: &Collection,
        (i, r_elem): (usize, &Element),
        id: ElemId,
        stats: &mut PassStats,
    ) -> f64 {
        let key = phi_key(i, id);
        if let Some(sim) = self.cells.get(key) {
            return sim;
        }
        if self.cols.get(u64::from(id)).is_some() {
            return 0.0;
        }
        let sim = phi.eval_views(r_elem.view(), collection.element_view(id));
        stats.sim_evals += 1;
        self.cells.set(key, sim);
        sim
    }

    /// φα(rᵢ, stored element `id`) where the element has its column
    /// summary.
    #[inline]
    fn summarised(&self, i: usize, id: ElemId) -> f64 {
        debug_assert!(self.cols.get(u64::from(id)).is_some());
        self.cells.get(phi_key(i, id)).unwrap_or(0.0)
    }

    /// maxᵢ φα(rᵢ, stored element `id`): read back, or taken over the
    /// element's column the first time verification meets it — cells the
    /// filters left in the table are read, the others evaluated (the
    /// element read by its id, as in [`phi`](Self::phi)) and counted, and
    /// of those only the positive ones kept.
    fn column_max(
        &mut self,
        phi: &Phi,
        collection: &Collection,
        r: &SetRecord,
        id: ElemId,
        stats: &mut PassStats,
    ) -> f64 {
        if let Some(max) = self.cols.get(u64::from(id)) {
            return max;
        }
        let s_elem = collection.element_view(id);
        let mut max = 0.0f64;
        for (i, r_elem) in r.elements.iter().enumerate() {
            let key = phi_key(i, id);
            let sim = self.cells.get(key).unwrap_or_else(|| {
                let sim = phi.eval_views(r_elem.view(), s_elem);
                stats.sim_evals += 1;
                if sim > 0.0 {
                    self.cells.set(key, sim);
                }
                sim
            });
            max = max.max(sim);
        }
        self.cols.set(u64::from(id), max);
        max
    }
}

thread_local! {
    /// The scratch the next [`Searcher`] made on this thread borrows;
    /// empty while one has it, or before the first.
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// A map from keys to `T` for one use at a time: [`begin`](Self::begin)
/// empties it in O(1) and sizes it by the keys that use expects, not by
/// how many keys there are; a use that sets more than it expected grows
/// it.
#[derive(Debug, Default)]
struct Stamped<T> {
    /// Open-addressed `(stamp, key, value)` cells; a cell is taken where
    /// its stamp equals `version`. Stamp 0 is never current.
    cells: Vec<(u32, u64, T)>,
    version: u32,
    /// The cells in use are `0..=mask`, a power of two of them.
    mask: usize,
    /// Keys set by the current use.
    len: usize,
}

impl<T: Copy + Default> Stamped<T> {
    /// Starts an empty map expected to be given `keys` distinct keys. It
    /// takes the shortest prefix of the cells that keeps them a third
    /// free, so that a small pass after a large one still works in a few
    /// cache lines, and a probe always ends at a free cell.
    fn begin(&mut self, keys: usize) {
        let want = Self::cells_for(keys);
        if self.cells.len() < want {
            self.cells.resize(want, (0, 0, T::default()));
        }
        self.mask = want - 1;
        self.len = 0;
        if self.version == u32::MAX {
            // Every version has been handed out once: a stamp left from
            // the first round would match the second's.
            self.cells.iter_mut().for_each(|cell| cell.0 = 0);
            self.version = 0;
        }
        self.version += 1;
    }

    /// The cells that keep a third free around `keys` keys.
    fn cells_for(keys: usize) -> usize {
        (keys + keys / 2 + 1).next_power_of_two()
    }

    /// Sets capacity aside for a use that may come to hold `keys` keys.
    /// Nothing is written to it: memory is taken when a use grows into
    /// it, and growing up to there leaves the cells where they are. Room
    /// that is not to be had is done without; the cells then move as
    /// they grow.
    fn reserve(&mut self, keys: usize) {
        let more = Self::cells_for(keys).saturating_sub(self.cells.len());
        let _ = self.cells.try_reserve(more);
    }

    /// The cell that holds `key`, or the free one where it belongs.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask;
        loop {
            let (stamp, held, _) = self.cells[at];
            if stamp != self.version || held == key {
                return at;
            }
            at = (at + 1) & self.mask;
        }
    }

    #[inline]
    fn get(&self, key: u64) -> Option<T> {
        let (stamp, _, value) = self.cells[self.probe(key)];
        (stamp == self.version).then_some(value)
    }

    #[inline]
    fn set(&mut self, key: u64, value: T) {
        let mut at = self.probe(key);
        if self.cells[at].0 != self.version {
            // A new key: it may not take the last of the free third.
            if self.len >= (self.mask + 1) * 2 / 3 {
                self.grow();
                at = self.probe(key);
            }
            self.len += 1;
        }
        self.cells[at] = (self.version, key, value);
    }

    /// Moves what the current use holds to a prefix twice as long.
    #[cold]
    fn grow(&mut self) {
        let held: Vec<(u64, T)> = self.cells[..=self.mask]
            .iter()
            .filter(|cell| cell.0 == self.version)
            .map(|&(_, key, value)| (key, value))
            .collect();
        self.begin(self.mask + 1);
        for (key, value) in held {
            self.set(key, value);
        }
    }
}

/// A candidate slot per set id, for one pass at a time: one `u64` per set
/// id, the version stamp in the high half and the slot in the low one. A
/// cell is taken where its stamp equals `version`; stamp 0 is never
/// current, so zeroed memory is an empty map.
#[derive(Debug, Default)]
struct SlotMap {
    cells: Vec<u64>,
    version: u32,
}

impl SlotMap {
    /// Starts an empty map over set ids `0..sets`.
    fn begin(&mut self, sets: usize) {
        if self.cells.is_empty() {
            // From the allocator's zeroed pages: a page a pass never
            // meets is never made resident.
            self.cells = vec![0; sets];
        } else if self.cells.len() < sets {
            self.cells.resize(sets, 0);
        }
        if self.version == u32::MAX {
            // As `Stamped::begin`: a stamp from the first round would
            // match the second's.
            self.cells.fill(0);
            self.version = 0;
        }
        self.version += 1;
    }

    #[inline]
    fn get(&self, sid: SetIdx) -> Option<u32> {
        let cell = self.cells[sid as usize];
        ((cell >> 32) as u32 == self.version).then_some(cell as u32)
    }

    #[inline]
    fn set(&mut self, sid: SetIdx, slot: u32) {
        self.cells[sid as usize] = u64::from(self.version) << 32 | u64::from(slot);
    }
}

/// A direct-mapped cache in front of the φ table for the posting walk:
/// the φα it took for the reference element it is at, by element id, in
/// few enough cells to stay in a core's first-level cache. Where the
/// corpus repeats its elements the walk meets the same id at posting
/// after posting, and a hit here costs neither the table's hash nor its
/// probe. A cell holds what the table returned, so a hit has the table's
/// bits and the table's count of evaluations does not change. Moving on
/// to the next reference element moves to the next version, so nothing
/// is cleared between elements or passes.
#[derive(Debug, Default)]
struct WalkCache {
    /// `(stamp, id, φα)`; a cell is taken where its stamp equals
    /// `version`. Stamp 0 is never current.
    cells: Vec<(u32, ElemId, f64)>,
    version: u32,
}

/// The cells of a [`WalkCache`]: 8 kB.
const WALK_CACHE_CELLS: usize = 512;

impl WalkCache {
    /// Makes the cells, once per thread.
    fn allocate(&mut self) {
        if self.cells.is_empty() {
            self.cells = vec![(0, 0, 0.0); WALK_CACHE_CELLS];
        }
    }

    /// Starts on the next reference element: every cell is stale.
    fn next_element(&mut self) {
        if self.version == u32::MAX {
            // As `Stamped::begin`: a stamp from the first round would
            // match the second's.
            self.cells.iter_mut().for_each(|cell| cell.0 = 0);
            self.version = 0;
        }
        self.version += 1;
    }

    /// φα of stored element `id` for the current reference element: read
    /// back, or taken from the table by `miss` and kept.
    #[inline]
    fn phi(&mut self, id: ElemId, miss: impl FnOnce() -> f64) -> f64 {
        let cell = &mut self.cells[id as usize % WALK_CACHE_CELLS];
        if cell.0 == self.version && cell.1 == id {
            return cell.2;
        }
        let sim = miss();
        *cell = (self.version, id, sim);
        sim
    }
}

/// The tokens the nearest-neighbor filter probes after a walk, per
/// reference element of one pass, each list chosen the first time the
/// pass searches for its element (see [`Searcher::nn_search`]).
#[derive(Debug, Default)]
struct ProbeLists {
    /// Per reference element, its list's range in `tokens`, once chosen.
    at: Vec<Option<(u32, u32)>>,
    tokens: Vec<TokenId>,
}

impl ProbeLists {
    /// Starts a pass over a reference of `elements` elements: none
    /// chosen.
    fn begin(&mut self, elements: usize) {
        self.at.clear();
        self.at.resize(elements, None);
        self.tokens.clear();
    }

    /// The tokens to probe for rᵢ after a walk over its signature tokens
    /// `sig`, chosen the first time they are asked for.
    fn after_walk(
        &mut self,
        i: usize,
        r_elem: &Element,
        sig: &[TokenId],
        (kind, alpha): (SigKind, f64),
        index: &InvertedIndex,
    ) -> &[TokenId] {
        let (start, end) = match self.at[i] {
            Some(at) => at,
            None => {
                let at = self.choose(r_elem, sig, (kind, alpha), index);
                *self.at[i].insert(at)
            }
        };
        &self.tokens[start as usize..end as usize]
    }

    /// Without a sim-thresh cap, every token outside `sig`. With one, the
    /// units `sig` holds are covered, and tokens outside it are added, the
    /// cheapest posting list per unit first as the signature greedy takes
    /// them, until the units covered reach the cap; a token the index
    /// holds no posting of comes first and covers its units unprobed: no
    /// element of `S` holds it.
    fn choose(
        &mut self,
        r_elem: &Element,
        sig: &[TokenId],
        (kind, alpha): (SigKind, f64),
        index: &InvertedIndex,
    ) -> (u32, u32) {
        let start = self.tokens.len() as u32;
        let (size, units) = (
            r_elem.size(kind.is_edit()),
            r_elem.signature_pool_len(kind.is_edit()),
        );
        let outside = |t: &TokenId| sig.binary_search(t).is_err();
        let Some(cap) = sim_thresh_cap(size, units, alpha, kind) else {
            self.tokens
                .extend(r_elem.tokens().iter().copied().filter(outside));
            return (start, self.tokens.len() as u32);
        };
        let mut covered = 0;
        let mut rest: Vec<(usize, u32, TokenId)> = Vec::new();
        for (t, m) in unit_pool(r_elem, kind) {
            if outside(&t) {
                rest.push((index.cost(t), m, t));
            } else {
                covered += m as usize;
            }
        }
        rest.sort_unstable_by(|a, b| {
            (a.0 * b.1 as usize)
                .cmp(&(b.0 * a.1 as usize))
                .then(a.2.cmp(&b.2))
        });
        for (cost, m, t) in rest {
            if covered >= cap {
                break;
            }
            covered += m as usize;
            if cost > 0 {
                self.tokens.push(t);
            }
        }
        (start, self.tokens.len() as u32)
    }
}

/// A candidate's **positive cells**: `max φα(rᵢ, s)` over the postings of
/// rᵢ's signature tokens in the candidate set, for the `i` where that is
/// above 0. The cells of all candidates share one arena, each candidate's
/// linked in increasing `i` from its first.
///
/// A cell that is not kept reads as 0, whether the walk met it at 0 or
/// never met it. The two are interchangeable: the cheap bound
/// `Σᵢ max(bᵢ, ubᵢ)` has `ubᵢ ≥ 0`, so each term — and the sum, taken in
/// the same order — has the same bits for a `bᵢ` of 0 as for one below
/// any similarity; and the nearest-neighbor filter searches where
/// `bᵢ < ubᵢ`, which for either is where `ubᵢ > 0`.
#[derive(Debug, Clone, Copy)]
struct RowCell {
    sim: f64,
    i: u32,
    /// The candidate's next cell, or [`END`].
    next: u32,
}

/// The end of a candidate's cells (and of a candidate without any).
const END: u32 = u32::MAX;

/// A candidate being admitted by the posting walk.
#[derive(Debug)]
struct Admitted {
    sid: SetIdx,
    /// Its first and last cell in the arena, or [`END`].
    first: u32,
    last: u32,
    /// Some similarity it was given reached its check threshold: the
    /// check filter's verdict on the finished row.
    passed: bool,
}

impl Admitted {
    /// Takes `sim > 0` at `i`, the reference element the walk is at: the
    /// walk meets the elements in increasing order, so a cell for `i`
    /// already given is the candidate's last, and keeps the maximum.
    #[inline]
    fn keep(&mut self, cells: &mut Vec<RowCell>, i: u32, sim: f64) {
        let at = cells.len() as u32;
        if let Some(last) = cells.get_mut(self.last as usize) {
            if last.i == i {
                last.sim = last.sim.max(sim);
                return;
            }
            last.next = at;
        } else {
            self.first = at;
        }
        self.last = at;
        cells.push(RowCell { sim, i, next: END });
    }
}

/// The cells of the candidate whose first cell is `first`, in increasing
/// `i`.
fn cells_of(cells: &[RowCell], first: u32) -> impl Iterator<Item = &RowCell> {
    std::iter::successors(cells.get(first as usize), |cell| {
        cells.get(cell.next as usize)
    })
}

impl Drop for Searcher<'_> {
    fn drop(&mut self) {
        // Not `with`: a searcher dropped while the thread's locals are
        // being destroyed just frees its scratch.
        let _ = SCRATCH.try_with(|slot| slot.set(std::mem::take(&mut self.scratch)));
    }
}

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

    /// The relatedness threshold passes are staged at: the configured δ.
    pub(crate) fn delta(&self) -> f64 {
        self.cfg.delta
    }

    /// The pre-verification stages of a pass — candidate selection, check
    /// filter, nearest-neighbor filter — at the configured δ, returning
    /// the surviving set ids (best relatedness bound first) and the stats
    /// so far. These stages are index-bound; the `O(n³)` maximum-matching
    /// work happens only when survivors are verified, which the engine's
    /// pass does one survivor at a time.
    pub fn survivors(
        &mut self,
        r: &SetRecord,
        restriction: Restriction,
    ) -> (Vec<SetIdx>, PassStats) {
        let mut pass = self.stage(r, restriction, None);
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
    /// With `explain` (ascending set ids) only those sets are admitted,
    /// and each is recorded as the pass meets it.
    pub(crate) fn stage(
        &mut self,
        r: &SetRecord,
        restriction: Restriction,
        explain: Option<&[SetIdx]>,
    ) -> StagedPass {
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
        let ub = unmatched_upper_bounds(&signature, self.cfg.alpha);
        let mut record = explain.map(|ids| new_record(ids, &signature, &ub, theta, self.index));

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
        let compute_sims = self.cfg.filter >= FilterKind::Check;
        let check_prunable = compute_sims && !signature.degenerate && signature.check_prunable;

        // ---- Candidate selection, with the similarities the check filter
        // decides on ------------------------------------------------------
        // A candidate comes from a posting of a signature token.
        let walked = compute_sims && !signature.degenerate;
        let Scratch {
            slots,
            phis,
            walk_cache,
            probes,
            ..
        } = &mut self.scratch;
        slots.begin(self.collection.len());
        if walked {
            probes.begin(n);
        }
        // The walk cache and the column summaries first: a block
        // allocated behind the φ table would keep it from growing where
        // it lies, and a table that moves is copied, capacity and all.
        walk_cache.allocate();
        phis.cols.reserve(COLUMNS_RESERVED);
        phis.cols.begin(COLUMNS_START);
        phis.cells.reserve(stats.signature_cost as usize);
        phis.cells
            .begin((stats.signature_cost as usize).min(PHI_TABLE_START));
        let mut admitted: Vec<Admitted> = Vec::new();
        let mut cells: Vec<RowCell> = Vec::new();
        let admit = |sid| Admitted {
            sid,
            first: END,
            last: END,
            passed: false,
        };
        // Whether a set is admitted: the restriction, liveness (tombstoned
        // sets keep their postings), the size check and `explain`.
        let mut admissible = |sid: SetIdx| {
            let pair = recorded(&mut record, sid);
            if (pair.is_none() && explain.is_some())
                || !restriction.admits(sid)
                || !self.collection.is_live(sid)
            {
                return false;
            }
            let s_len = self.collection.set(sid).len();
            let fits = size_check(self.cfg.metric, self.cfg.delta, n, s_len);
            if let Some(pair) = pair {
                pair.verdict = if fits { CheckFilter } else { SizeCheck };
            }
            fits
        };

        if signature.degenerate {
            let sets = 0..self.collection.len() as SetIdx;
            admitted.extend(sets.filter(|&sid| admissible(sid)).map(admit));
        } else {
            for (i, sig_elem) in signature.elems.iter().enumerate() {
                let r_elem = &r.elements[i];
                let reaches = check_thr[i] - 1e-12;
                walk_cache.next_element();
                // The lists are walked where they lie. A `(set, id)` that
                // several of them hold costs a cache or table hit each
                // time, and `max` does not mind the repeat.
                for p in sig_elem.tokens.iter().flat_map(|&t| self.index.list(t)) {
                    let sid = p.set;
                    // Locate or admit the candidate slot; a set that is
                    // not admitted never holds one.
                    let slot = if let Some(slot) = slots.get(sid) {
                        slot as usize
                    } else {
                        if !admissible(sid) {
                            continue;
                        }
                        let slot = admitted.len();
                        slots.set(sid, slot as u32);
                        admitted.push(admit(sid));
                        slot
                    };
                    if compute_sims {
                        let sim = walk_cache.phi(p.id, || {
                            phis.phi(&self.phi, self.collection, (i, r_elem), p.id, &mut stats)
                        });
                        let cand = &mut admitted[slot];
                        cand.passed |= sim >= reaches;
                        if sim > 0.0 {
                            cand.keep(&mut cells, i as u32, sim);
                        }
                    }
                }
            }
        }
        stats.candidates = admitted.len();

        // The per-element bounds are the nearest-neighbor filter's; with
        // it off (the §8.3 ablations, where no cell may even be
        // computed) all that is claimed is φ ≤ 1, so at a fixed δ every
        // check survivor reaches verification as before.
        let nn_filter = self.cfg.filter == FilterKind::CheckAndNearestNeighbor;

        // ---- Check filter (Algorithm 1), then the cheap bound ------------
        let mut queue = Vec::new();
        // One survivor's row at a time: its cells laid over zeros, which
        // the sum puts back.
        let mut row = vec![0.0; n];
        for cand in &admitted {
            let mut pair = recorded(&mut record, cand.sid);
            if let Some(pair) = pair.as_deref_mut() {
                for cell in cells_of(&cells, cand.first) {
                    pair.elements[cell.i as usize].best_shared_sim = cell.sim;
                }
            }
            if check_prunable && !cand.passed {
                continue;
            }
            stats.after_check += 1;
            // est_i = max(best computed φα, bound on uncomputed elements):
            // no φ evaluation, and the sum the NN filter starts from.
            let cheap = if nn_filter {
                for cell in cells_of(&cells, cand.first) {
                    row[cell.i as usize] = cell.sim;
                }
                row.iter_mut()
                    .zip(&ub)
                    .fold(0.0, |sum, (b, &u)| sum + std::mem::take(b).max(u))
            } else {
                n as f64
            };
            let sid = cand.sid;
            let s_len = self.collection.set(sid).len();
            // A survivor that the stop rule would end the pass at even at
            // the floor — and no threshold is below the floor — is never
            // examined: it is counted, not queued.
            let need = need(self.cfg.metric, self.cfg.delta, n, s_len);
            let dropped = cheap < need - FILTER_EPS;
            if let Some(pair) = pair {
                (pair.need, pair.cheap_bound) = (Some(need), Some(cheap));
                pair.verdict = if dropped { CheapBound } else { NnFilter };
            }
            if dropped {
                continue;
            }
            queue.push(Bounded {
                relatedness: relatedness(self.cfg.metric, cheap, n, s_len),
                cheap,
                sid,
                first: cand.first,
            });
        }

        StagedPass {
            cells,
            ub,
            walked: if walked { signature.elems } else { Vec::new() },
            n,
            // O(len), and only what is popped pays the log.
            queue: BinaryHeap::from(queue),
            stats,
            record,
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
            && self.nn_bound(r, pass, &cand, need) < need - FILTER_EPS
        {
            return Step::Pruned;
        }
        pass.stats.after_nn += 1;
        if let Some(pair) = recorded(&mut pass.record, cand.sid) {
            pair.verdict = ColumnBound;
        }
        Step::Survivor(cand.sid)
    }

    /// One candidate's nearest-neighbor refinement (§5.2, §6.5 extension):
    /// starting from its cheap bound, replaces each inexact per-element
    /// estimate by the nearest-neighbor similarity, giving up as soon as
    /// the sum falls below `need`. Returns the sum where it stopped.
    fn nn_bound(&mut self, r: &SetRecord, pass: &mut StagedPass, cand: &Bounded, need: f64) -> f64 {
        let mut total = cand.cheap;
        let mut pair = recorded(&mut pass.record, cand.sid);
        let mut kept = cells_of(&pass.cells, cand.first).peekable();
        for ((i, r_elem), &ub) in r.elements.iter().enumerate().zip(&pass.ub) {
            let b = kept
                .next_if(|cell| cell.i as usize == i)
                .map_or(0.0, |cell| cell.sim);
            // The estimate is exact when the computed value dominates the
            // bound (computation reuse, §5.2) or the bound is 0 (saturated
            // / α-clamped elements: uncomputed elements contribute exactly
            // 0).
            if b >= ub || ub == 0.0 {
                continue;
            }
            let walked = pass.walked.get(i).map(|se| (&se.tokens[..], b));
            let nn = self
                .nn_search(i, r_elem, cand.sid, walked, &mut pass.stats)
                .min(ub);
            if let Some(pair) = pair.as_deref_mut() {
                pair.elements[i].nearest_neighbor_sim = Some(nn);
            }
            total += nn - ub;
            if total < need - FILTER_EPS {
                break;
            }
        }
        if let Some(pair) = pair {
            pair.nn_upper_bound = Some(total);
        }
        total
    }

    /// `NNSearch(rᵢ, S, I)` (§5.2): upper bound on `max_{s∈S} φα(rᵢ, s)`
    /// via the inverted index, exact except in the edit-similarity regime
    /// where elements sharing no q-gram can still clear α (then the §7.1
    /// chunk bound is folded in). The elements of `S` come from the
    /// postings of the tokens it probes, by id, and their similarities
    /// from the pass's φ table, evaluated here only where the pass has not
    /// met the pair before.
    ///
    /// `walked` is rᵢ's signature tokens and `bᵢ`, when the posting walk
    /// took φ at every posting of them in `S`. Where an element sharing no
    /// token with rᵢ scores exactly 0 (Jaccard; edit similarity whose
    /// chunk bound α clamps), the nearest neighbor is then `bᵢ` or an
    /// element reached through one of rᵢ's other tokens — §5.2's
    /// computation reuse — and no element needs marking, since meeting one
    /// twice only takes a maximum again. Which other tokens:
    ///
    /// - With a sim-thresh cap (α > 0, §6.1; §7.2 in q-chunks), only
    ///   enough of them that, with the signature's, they cover `cap(rᵢ)`
    ///   units (see [`ProbeLists`]). An element of `S` holding none of
    ///   those units misses at least the cap of rᵢ's, so φ(rᵢ, s) < α and
    ///   φα(rᵢ, s) = 0: it cannot raise the maximum, and the value is the
    ///   one a search of every token finds, bit for bit.
    /// - Without one, every token outside the signature.
    ///
    /// With no walk to reuse, every token of rᵢ is probed, and each
    /// element of `S` is taken once.
    fn nn_search(
        &mut self,
        i: usize,
        r_elem: &Element,
        sid: SetIdx,
        walked: Option<(&[TokenId], f64)>,
        stats: &mut PassStats,
    ) -> f64 {
        let s_set = self.collection.set(sid);
        if r_elem.tokens().is_empty() {
            // An empty element matches exactly the empty elements of S.
            let has_empty = s_set.elements.iter().any(|e| e.tokens().is_empty());
            return if has_empty { 1.0 } else { 0.0 };
        }
        let unshared = self.phi.no_shared_token_bound(r_elem);
        let walked = walked.filter(|_| unshared == 0.0);
        let marking = walked.is_none();
        let Scratch {
            visited,
            phis,
            probes,
            ..
        } = &mut self.scratch;
        // The tokens to probe, and the nearest neighbor so far.
        let (probed, mut best) = match walked {
            None => {
                visited.begin(self.collection.max_set_len());
                (r_elem.tokens(), 0.0)
            }
            Some((sig, b)) => {
                let params = (self.kind, self.cfg.alpha);
                (probes.after_walk(i, r_elem, sig, params, self.index), b)
            }
        };
        // Element positions of S met so far.
        let mut seen = 0usize;
        for &t in probed {
            stats.nn_probes += 1;
            // The id whose postings in this list are being counted: a
            // text S holds twice is two postings, next to each other, in
            // every list that has it.
            let mut counting = None;
            for p in self.index.postings_in_set(t, sid) {
                if counting != Some(p.id) {
                    if marking {
                        if visited.get(u64::from(p.id)).is_some() {
                            continue;
                        }
                        visited.set(u64::from(p.id), ());
                    }
                    counting = Some(p.id);
                    let sim = phis.phi(&self.phi, self.collection, (i, r_elem), p.id, stats);
                    best = best.max(sim);
                }
                seen += 1;
            }
        }
        if seen < s_set.len() {
            // Unvisited elements share no token with r; for Jaccard they
            // score 0, for edit similarity they are bounded by the q-chunk
            // mismatch bound. (Where the walk is reused that bound is 0,
            // and what was counted does not matter.)
            best = best.max(unshared);
        }
        best
    }

    /// Verifies stored set `sid` against `threshold` — the pass's δ, or
    /// the k-th best score of a top-k pass — and returns its relatedness
    /// when it reaches it. `r` and `pass` are those of the pass in
    /// progress: the cells are read from its φ table.
    ///
    /// **Column bound**: a stored element is matched at most once, so the
    /// matching score is at most Σⱼ maxᵢ φα(rᵢ, sⱼ). The sum starts at
    /// `|S|` and comes down column by column; the moment it is below
    /// [`need`]`(threshold, |R|, |S|)` by more than `FILTER_EPS` the pair
    /// has lost, and neither the rest of its columns nor its matching is
    /// looked at. Strictly, like [`step`](Self::step)'s stop rule: a pair
    /// that can still *equal* the threshold is solved, and a tie at the
    /// k-th score resolves by id. The bound never changes a score — a pair
    /// that survives it is solved over the same cells by the same solver
    /// as [`verify_pair`](crate::verify_pair).
    pub(crate) fn verify(
        &mut self,
        r: &SetRecord,
        pass: &mut StagedPass,
        sid: SetIdx,
        threshold: f64,
    ) -> Option<f64> {
        let stats = &mut pass.stats;
        stats.verified += 1;
        let pair = recorded(&mut pass.record, sid);
        let s = self.collection.set(sid);
        let Scratch { phis, edges, .. } = &mut self.scratch;
        let stored = |j: usize| s.elements[j].id().expect("a stored element has an id");
        let need = need(self.cfg.metric, threshold, r.len(), s.len()) - FILTER_EPS;
        let mut bound = s.len() as f64;
        for j in 0..s.len() {
            bound += phis.column_max(&self.phi, self.collection, r, stored(j), stats) - 1.0;
            if bound < need {
                if let Some(pair) = pair {
                    pair.column_bound = Some(bound);
                }
                return None;
            }
        }
        // Every column has its summary by now: the cells are all known.
        let m = matching_score_over(
            r,
            s,
            &self.phi,
            self.cfg.reduction_applicable(),
            edges,
            &mut stats.reduced_pairs,
            |i, j| phis.summarised(i, stored(j)),
        );
        let score = related_at(self.cfg.metric, threshold, m, r.len(), s.len());
        if let Some(pair) = pair {
            pair.matching_score = Some(m);
            pair.relatedness = Some(relatedness(self.cfg.metric, m, r.len(), s.len()));
            pair.verdict = if score.is_some() { Related } else { Unrelated };
        }
        stats.results += usize::from(score.is_some());
        score
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
    /// The candidate's first cell in [`StagedPass::cells`], or [`END`].
    first: u32,
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
/// [`Searcher::step`]: the queue of check-filter survivors, what the
/// nearest-neighbor filter reads of the posting walk — the candidates'
/// positive cells, the signature tokens they were taken over — and its
/// bounds, and the running [`PassStats`].
#[derive(Debug)]
pub(crate) struct StagedPass {
    /// Every candidate's positive cells (see [`RowCell`]): the walk's
    /// maximum φα per (candidate, reference element) where it is above 0.
    /// A queued candidate names its first.
    cells: Vec<RowCell>,
    /// NN upper bound per reference element with no computed similarity.
    ub: Vec<f64>,
    /// Per reference element, its signature tokens — moved out of the
    /// signature — when the walk took φ at every one of their postings;
    /// empty when it did not (a degenerate signature, or a filter below
    /// `Check`).
    walked: Vec<SigElem>,
    /// |R|.
    n: usize,
    /// Check-filter survivors whose bound reaches the floor and that are
    /// not yet examined, best bound on top.
    queue: BinaryHeap<Bounded>,
    /// Stats so far: selection and check-filter counters are final,
    /// `after_nn`/`sim_evals` grow as candidates are examined.
    pub(crate) stats: PassStats,
    /// What a pass that explains has recorded so far.
    pub(crate) record: Option<Record>,
}

impl StagedPass {
    /// Check-filter survivors still examinable: queued and not yet
    /// examined.
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
    use crate::config::{RelatednessMetric, SignatureScheme, VERIFY_EPS};
    use crate::query::QueryIter;
    use crate::verify::{matching_score, VerifyCost};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use silkmoth_collection::paper_example::table2;
    use silkmoth_collection::Posting;
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

    /// One pass of `searcher` over `r`, drained at its δ: the related
    /// sets in ascending id order, and the pass's stats.
    fn pass(
        searcher: &mut Searcher,
        r: &SetRecord,
        restriction: Restriction,
    ) -> (Vec<(SetIdx, f64)>, PassStats) {
        let mut pass = QueryIter::stage(searcher, r, restriction, None, None);
        (pass.related(), pass.stats())
    }

    fn run(cfg: EngineConfig) -> (Vec<(SetIdx, f64)>, PassStats) {
        let (c, r) = table2();
        let index = silkmoth_collection::InvertedIndex::build(&c);
        let mut searcher = Searcher::new(&c, &index, cfg);
        pass(&mut searcher, &r, Restriction::default())
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
    fn example9_only_s4_reaches_verification() {
        // Example 9 has the NN filter prune S3. Here S3's cheap bound
        // (5/6 + 0.6 + 0.6 < 2.1) already keeps it out of the queue, so
        // S4 is the one candidate the NN filter sees, and it passes.
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
        let (results, _) = pass(
            &mut searcher,
            &r,
            Restriction {
                min_exclusive: Some(3),
                skip: None,
            },
        );
        assert!(results.is_empty());
        let (results, _) = pass(
            &mut searcher,
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
        let first = pass(&mut searcher, &r, Restriction::default()).0;
        for _ in 0..5 {
            assert_eq!(pass(&mut searcher, &r, Restriction::default()).0, first);
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

    /// A configuration with α drawn from `alphas`.
    fn random_config(rng: &mut StdRng, edit: bool, alphas: &[f64]) -> EngineConfig {
        // The unweighted schemes last: under Eds q=2 they need α > 2/3,
        // and only below it does an element sharing no q-gram with a
        // reference element still bound the nearest neighbor.
        let schemes = [
            SignatureScheme::Weighted,
            SignatureScheme::Skyline,
            SignatureScheme::Dichotomy,
            SignatureScheme::Unweighted,
            SignatureScheme::CombinedUnweighted,
        ];
        let alpha = alphas[rng.random_range(0..alphas.len())];
        let eligible = if edit && alpha < 0.7 {
            3
        } else {
            schemes.len()
        };
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
            alpha,
            scheme: schemes[rng.random_range(0..eligible)],
            filter: FilterKind::CheckAndNearestNeighbor,
            reduction: false,
        }
    }

    /// The tokens of rᵢ whose postings a nearest-neighbor search meets:
    /// every token, except after a walk over rᵢ's signature tokens `sig`
    /// where rᵢ has a sim-thresh cap. There they are `sig` and as many
    /// more, cheapest posting list per unit first (then the smaller
    /// token), as it takes to cover `cap(rᵢ)` units: tokens for Jaccard,
    /// q-chunk occurrences for edit similarity.
    fn probe_model(
        r_elem: &Element,
        sig: Option<&[TokenId]>,
        cfg: &EngineConfig,
        index: &InvertedIndex,
    ) -> Vec<TokenId> {
        let every = r_elem.tokens().to_vec();
        let Some(sig) = sig else { return every };
        let kind = SigKind::of(cfg.similarity);
        let mut units: Vec<(TokenId, usize)> = if kind.is_edit() {
            let mut chunks = r_elem.chunks().to_vec();
            chunks.sort_unstable();
            chunks.dedup();
            let count = |t| r_elem.chunks().iter().filter(|&&c| c == t).count();
            chunks.into_iter().map(|t| (t, count(t))).collect()
        } else {
            every.iter().map(|&t| (t, 1)).collect()
        };
        let all = units.iter().map(|u| u.1).sum();
        let size = r_elem.size(kind.is_edit());
        let Some(cap) = sim_thresh_cap(size, all, cfg.alpha, kind) else {
            return every;
        };
        let mut covered: usize = units
            .iter()
            .filter(|u| sig.contains(&u.0))
            .map(|u| u.1)
            .sum();
        units.retain(|u| !sig.contains(&u.0));
        units.sort_by(|&(a, m), &(b, n)| {
            (index.cost(a) * n)
                .cmp(&(index.cost(b) * m))
                .then(a.cmp(&b))
        });
        let mut probed = sig.to_vec();
        for (t, m) in units {
            if covered >= cap {
                break;
            }
            probed.push(t);
            covered += m;
        }
        probed
    }

    /// `nn_search` with nothing remembered: φα straight from the elements
    /// of the set. Where an element sharing no token with rᵢ scores 0
    /// that is the definitional maximum over S; elsewhere the elements
    /// sharing none are bounded by `no_shared_token_bound`. Also notes
    /// the pairs the search meets: the elements holding a `probed` token.
    fn nn_reference(
        phi: &Phi,
        (i, r_elem): (usize, &Element),
        s_set: &SetRecord,
        probed: &[TokenId],
        touched: &mut Vec<(usize, ElemId)>,
    ) -> f64 {
        let holds =
            |s_elem: &Element, tokens: &[TokenId]| tokens.iter().any(|&t| s_elem.contains_token(t));
        for s_elem in s_set.elements.iter() {
            if holds(s_elem, probed) {
                touched.push((i, s_elem.id().unwrap()));
            }
        }
        let unshared = phi.no_shared_token_bound(r_elem);
        if unshared == 0.0 || r_elem.tokens().is_empty() {
            let each = s_set.elements.iter().map(|s_elem| phi.eval(r_elem, s_elem));
            return each.fold(0.0, f64::max);
        }
        let mut best = 0.0f64;
        for s_elem in s_set.elements.iter() {
            best = best.max(if holds(s_elem, r_elem.tokens()) {
                phi.eval(r_elem, s_elem)
            } else {
                unshared
            });
        }
        best
    }

    /// The queued candidate's row as the pass keeps it: its cells over
    /// zeros. Also checks that a candidate's cells are positive and come
    /// in increasing `i`, the order the nearest-neighbor filter reads them
    /// in.
    fn kept_row(pass: &StagedPass, cand: &Bounded) -> Vec<f64> {
        let mut row = vec![0.0; pass.n];
        let mut below = None;
        for cell in cells_of(&pass.cells, cand.first) {
            assert!(cell.sim > 0.0 && below < Some(cell.i), "set {}", cand.sid);
            below = Some(cell.i);
            row[cell.i as usize] = cell.sim;
        }
        row
    }

    // What the φ table, the walk cache, the kept cells and the probe
    // lists may never change. A staged pass keeps, bit for bit, the
    // maximum of φ evaluated at every posting of the reference element's
    // signature tokens — where that is above 0; each nearest-neighbor
    // search then finds, bit for bit, what a search that remembers
    // nothing would — the maximum of φα over S where an element sharing
    // no token scores 0 — whether it reuses what the walk found and
    // probes up to the sim-thresh cap, or searches every token; so the
    // filter admits and prunes exactly the same candidates — while φ was
    // evaluated once per (reference element, element id) the pass met,
    // not once per posting.
    #[test]
    fn memoised_stage_is_bit_equal_to_phi_per_posting() {
        // Nearest-neighbor searches made after a walk where an element
        // sharing no token scores 0 (the pass reuses the walk), after a
        // walk where it need not (Eds with α below the chunk bound), and
        // in passes with no walk (degenerate signatures); and of the
        // first, those the sim-thresh cap spared a token.
        let (mut reused, mut searched, mut unwalked, mut capped) = (0, 0, 0, 0);
        proptest::run_cases(
            "memoised_stage_is_bit_equal_to_phi_per_posting",
            128,
            |rng| {
                let edit = rng.random::<bool>();
                let raw = repeated_corpus(rng, edit, 7);
                // Under Eds q=2 an element sharing no q-gram is bounded by
                // 1/2 to 2/3: α = 0.7 clamps the bound to 0 for every
                // element, 0.65 for those of odd length, 0.3 and 0.5 for
                // none; and at those two a small δ has no valid signature.
                // Under Jaccard every α above 0 caps an element of |r|
                // tokens at ⌊(1−α)|r|⌋+1 of them, fewer than |r| from
                // |r| = 2 (α = 0.7) or 3 (α = 0.4, 0.5) on.
                let alphas: &[f64] = if edit {
                    &[0.3, 0.5, 0.65, 0.7]
                } else {
                    &[0.0, 0.4, 0.5, 0.7]
                };
                let cfg = random_config(rng, edit, alphas);
                let mut c = Collection::build(&raw[..raw.len() / 2], cfg.tokenization());
                c.append_sets(&raw[raw.len() / 2..]);
                c.remove_sets(&[rng.random_range(0..raw.len()) as SetIdx])
                    .unwrap();
                let index = InvertedIndex::build(&c);
                let r = c.encode_set(&raw[rng.random_range(0..raw.len())]);
                let n = r.len();

                let mut searcher = Searcher::new(&c, &index, cfg);
                // Explaining every set id admits what a plain pass does,
                // and records each nearest-neighbor value the pass takes.
                let every: Vec<SetIdx> = (0..c.len() as SetIdx).collect();
                let mut pass = searcher.stage(&r, Restriction::default(), Some(&every));
                let params = SigParams {
                    theta: cfg.delta * n as f64,
                    alpha: cfg.alpha,
                    kind: SigKind::of(cfg.similarity),
                };
                let signature = generate(&r, cfg.scheme, params, &index);
                let phi = *searcher.phi();

                let candidate = |sid: SetIdx| {
                    c.is_live(sid) && size_check(cfg.metric, cfg.delta, n, c.set(sid).len())
                };
                // The walk's postings per reference element: none when the
                // signature is degenerate, because then there is no walk.
                let walked: Vec<Vec<Posting>> = signature
                    .elems
                    .iter()
                    .map(|sig_elem| {
                        let mut seen: Vec<Posting> = sig_elem
                            .tokens
                            .iter()
                            .flat_map(|&t| index.list(t))
                            .filter(|p| !signature.degenerate && candidate(p.set))
                            .copied()
                            .collect();
                        seen.sort_unstable();
                        seen.dedup();
                        seen
                    })
                    .collect();
                // Every (reference element, element id) the pass has met.
                let mut touched: Vec<(usize, ElemId)> = Vec::new();
                for (i, seen) in walked.iter().enumerate() {
                    touched.extend(seen.iter().map(|p| (i, p.id)));
                }
                let postings = touched.len();
                touched.sort_unstable();
                touched.dedup();
                prop_assert_eq!(pass.stats.sim_evals, touched.len() as u64);
                prop_assert!(touched.len() <= postings);

                // Each queued candidate's row: the maximum over no posting is
                // −1 here, "never met", where the pass keeps no cell and reads
                // 0. The two are interchangeable — every bound a row is
                // compared with or summed beside is ≥ 0 (see `RowCell`) — so
                // the row is compared as max(·, 0).
                let mut rows: Vec<Vec<f64>> = Vec::new();
                let mut queued: Vec<&Bounded> = pass.queue.iter().collect();
                queued.sort_unstable_by(|a, b| b.cmp(a));
                for cand in &queued {
                    let want: Vec<f64> = walked
                        .iter()
                        .enumerate()
                        .map(|(i, seen)| {
                            seen.iter()
                                .filter(|p| p.set == cand.sid)
                                .map(|p| phi.eval(&r.elements[i], c.element(p.id)))
                                .fold(-1.0, f64::max)
                                .max(0.0)
                        })
                        .collect();
                    let got = kept_row(&pass, cand);
                    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                        prop_assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "set {} element {}",
                            cand.sid,
                            i
                        );
                    }
                    rows.push(want);
                }

                // The queue in the order it will be popped, each candidate
                // with the verdict of a nearest-neighbor filter that
                // evaluates φ itself, and the values it searched for.
                let want: Vec<(SetIdx, bool, Vec<Option<f64>>)> = queued
                    .iter()
                    .zip(&rows)
                    .map(|(cand, row)| {
                        let s_set = c.set(cand.sid);
                        let need = need(cfg.metric, cfg.delta, n, s_set.len());
                        let mut total = cand.cheap;
                        let mut searches = vec![None; n];
                        for (i, r_elem) in r.elements.iter().enumerate() {
                            let (b, ub) = (row[i], pass.ub[i]);
                            if b >= ub || ub == 0.0 {
                                continue;
                            }
                            let unshared = phi.no_shared_token_bound(r_elem);
                            let sig = &signature.elems[i].tokens[..];
                            let walk = (!signature.degenerate && unshared == 0.0).then_some(sig);
                            let probed = probe_model(r_elem, walk, &cfg, &index);
                            if signature.degenerate {
                                unwalked += 1;
                            } else if unshared == 0.0 {
                                reused += 1;
                                let others = r_elem.tokens().iter().filter(|t| !sig.contains(t));
                                capped += usize::from(probed.len() < sig.len() + others.count());
                            } else {
                                searched += 1;
                            }
                            let nn = nn_reference(&phi, (i, r_elem), s_set, &probed, &mut touched);
                            searches[i] = Some(nn.min(ub));
                            total += nn.min(ub) - ub;
                            if total < need - FILTER_EPS {
                                return (cand.sid, false, searches);
                            }
                        }
                        (cand.sid, true, searches)
                    })
                    .collect();
                for &(sid, admitted, _) in &want {
                    match searcher.step(&r, &mut pass, cfg.delta) {
                        Step::Survivor(got) => prop_assert!(admitted && got == sid, "set {}", sid),
                        Step::Pruned => prop_assert!(!admitted, "set {}", sid),
                        Step::Done => prop_assert!(false, "the pass ended before set {}", sid),
                    }
                }
                prop_assert!(matches!(
                    searcher.step(&r, &mut pass, cfg.delta),
                    Step::Done
                ));
                prop_assert_eq!(pass.stats.after_nn, want.iter().filter(|w| w.1).count());
                // Each value the pass searched for, bit for bit, and no
                // other.
                for (sid, _, searches) in &want {
                    let pair = recorded(&mut pass.record, *sid).unwrap();
                    for (i, want) in searches.iter().enumerate() {
                        let got = pair.elements[i].nearest_neighbor_sim;
                        prop_assert_eq!(
                            got.map(f64::to_bits),
                            want.map(f64::to_bits),
                            "set {} element {}: {:?}, not {:?}",
                            sid,
                            i,
                            got,
                            want
                        );
                    }
                }
                // One evaluation per pair met, whichever filter met it first.
                touched.sort_unstable();
                touched.dedup();
                prop_assert_eq!(pass.stats.sim_evals, touched.len() as u64);
                proptest::CaseResult::Ok
            },
        );
        assert!(
            reused > 0 && searched > 0 && unwalked > 0 && capped > 0,
            "nearest-neighbor searches: {reused} reusing the walk ({capped} spared a token by \
             the cap), {searched} after a walk searching every token, {unwalked} with no walk"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // What the column bound may never change. Verified against a
        // threshold, a stored set comes back exactly when `verify_pair`'s
        // relatedness reaches it, with that relatedness bit for bit —
        // at the floor, at the set's own score (a tie at the k-th best),
        // one float above it, and at 1 — while the pass, filters and
        // verification taking turns at its table, evaluates φ once per
        // (reference element, element id) and never again.
        #[test]
        fn bounded_verification_is_verify_pair_at_the_threshold(seed in any::<u64>()) {
            let rng = &mut StdRng::seed_from_u64(seed);
            let edit = rng.random::<bool>();
            let raw = repeated_corpus(rng, edit, 7);
            let mut cfg = random_config(rng, edit, &[0.0, 0.4, 0.8]);
            cfg.reduction = rng.random::<bool>();
            // At the smallest δ the weighted schemes have no valid
            // signature: a degenerate pass.
            cfg.delta = [f64::MIN_POSITIVE, 0.2, 0.5, 0.8][rng.random_range(0..4usize)];
            // Fresh; appended to and removed from; compacted after that.
            let state = rng.random_range(0..3usize);
            let built = if state == 0 { raw.len() } else { raw.len() / 2 };
            let mut c = Collection::build(&raw[..built], cfg.tokenization());
            c.append_sets(&raw[built..]);
            if state > 0 {
                c.remove_sets(&[rng.random_range(0..raw.len()) as SetIdx]).unwrap();
            }
            if state == 2 {
                c.compact();
            }
            let index = InvertedIndex::build(&c);
            let r = c.encode_set(&raw[rng.random_range(0..raw.len())]);

            let mut searcher = Searcher::new(&c, &index, cfg);
            let mut pass = searcher.stage(&r, Restriction::default(), None);
            let phi = *searcher.phi();
            let exact = |sid: SetIdx| {
                let s = c.set(sid);
                let reduce = cfg.reduction_applicable();
                let m = matching_score(&r, s, &phi, reduce, &mut VerifyCost::default());
                relatedness(cfg.metric, m, r.len(), s.len())
            };
            let mut verified = 0;
            let mut check = |searcher: &mut Searcher, pass: &mut StagedPass, sid, threshold| {
                let rel = exact(sid);
                let want = (rel >= threshold - VERIFY_EPS).then_some(rel);
                let got = searcher.verify(&r, pass, sid, threshold);
                verified += 1;
                prop_assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "set {} at {}: {:?}, not {:?}", sid, threshold, got, want
                );
                prop_assert_eq!(pass.stats.verified, verified);
            };
            loop {
                match searcher.step(&r, &mut pass, cfg.delta) {
                    Step::Done => break,
                    Step::Pruned => {}
                    Step::Survivor(sid) => {
                        let rel = exact(sid);
                        let above = f64::from_bits(rel.to_bits() + 1);
                        for threshold in [1.0, cfg.delta, rel, above] {
                            check(&mut searcher, &mut pass, sid, threshold);
                        }
                    }
                }
            }
            // A set verified at its own score is never lost, so every one
            // of its columns is walked: after all of them, each reference
            // element has met each stored element of a live set — in
            // candidate selection, a nearest-neighbor search or a column
            // — and an evaluation more than that is one made twice.
            let mut ids: Vec<ElemId> = Vec::new();
            for sid in c.live_ids() {
                check(&mut searcher, &mut pass, sid, exact(sid));
                ids.extend(c.set(sid).elements.iter().map(|e| e.id().unwrap()));
            }
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(pass.stats.sim_evals, (r.len() * ids.len()) as u64);
        }
    }

    #[test]
    fn a_pass_evaluates_phi_at_most_once_per_reference_element_and_element_id() {
        // Forty sets over five texts: every text is in most sets, twice
        // in some, so a pass looks at far more postings than there are
        // distinct elements.
        let rng = &mut StdRng::seed_from_u64(0x0ddba11);
        let texts = ["a b c", "a b d", "a c e", "b c f", "a g"];
        let raw: Vec<Vec<&str>> = (0..40)
            .map(|_| (0..6).map(|_| texts[rng.random_range(0..5usize)]).collect())
            .collect();
        let cfg = config(
            RelatednessMetric::Containment,
            0.6,
            0.0,
            SignatureScheme::Weighted,
            FilterKind::CheckAndNearestNeighbor,
        );
        let c = Collection::build(&raw, cfg.tokenization());
        let index = InvertedIndex::build(&c);
        let r = c.encode_set(&["a b c", "a b x", "c e", "b c f"]);
        let (survivors, stats) =
            Searcher::new(&c, &index, cfg).survivors(&r, Restriction::default());
        assert!(survivors.len() > 10 && stats.candidates == 40);
        assert!(stats.sim_evals > 0);
        assert!(
            stats.sim_evals <= (r.len() * texts.len()) as u64,
            "{} evaluations for {} reference elements and {} stored ones",
            stats.sim_evals,
            r.len(),
            texts.len()
        );
        assert!(stats.sim_evals < stats.signature_cost);
    }

    #[test]
    fn a_lost_pair_is_dropped_at_the_column_that_loses_it() {
        // Three reference elements against a set whose second element no
        // reference element resembles: at a threshold of 0.9 the pair
        // needs 2.84 of a possible 3, and two columns in it has lost.
        let raw = vec![vec!["a b", "x y", "c d"], vec!["a b", "c d", "e f"]];
        let cfg = config(
            RelatednessMetric::Similarity,
            0.3,
            0.0,
            SignatureScheme::Weighted,
            FilterKind::CheckAndNearestNeighbor,
        );
        let c = Collection::build(&raw, cfg.tokenization());
        let index = InvertedIndex::build(&c);
        let r = c.encode_set(&["a b", "c d", "e f"]);
        let mut searcher = Searcher::new(&c, &index, cfg);
        let mut pass = searcher.stage(&r, Restriction::default(), None);
        let staged = pass.stats.sim_evals;
        assert_eq!(searcher.verify(&r, &mut pass, 0, 0.9), None);
        // "a b" was met in candidate selection, by one reference element
        // at least; "c d" was never looked at.
        let columns = pass.stats.sim_evals - staged;
        assert!((3..6).contains(&columns), "{columns} evaluations");
        assert_eq!((pass.stats.verified, pass.stats.results), (1, 0));
        // At the floor the same set is solved, over cells that are all
        // known by the time its last column has been walked.
        let walked = pass.stats.sim_evals;
        let score = searcher.verify(&r, &mut pass, 0, 0.3).unwrap();
        assert_eq!(score, 2.0 / 4.0);
        assert!(pass.stats.sim_evals - walked <= 3);
        assert_eq!(searcher.verify(&r, &mut pass, 1, 0.9), Some(1.0));
        let all = pass.stats.sim_evals;
        assert_eq!(searcher.verify(&r, &mut pass, 0, 0.3), Some(score));
        assert_eq!(pass.stats.sim_evals, all, "nothing is evaluated twice");
        assert_eq!((pass.stats.verified, pass.stats.results), (4, 3));
    }

    #[test]
    fn stamped_map_holds_what_one_use_set_and_nothing_older() {
        let mut map = Stamped::<u32>::default();
        map.begin(1000);
        for id in (0..3000).step_by(3) {
            map.set(id, id as u32 + 7);
        }
        map.set(30, 1);
        for id in 0..3000 {
            let want = (id % 3 == 0).then_some(if id == 30 { 1 } else { id as u32 + 7 });
            assert_eq!(map.get(id), want, "{id}");
        }
        // A small use after a large one takes a short prefix of the
        // cells and sees nothing the large one left there.
        map.begin(4);
        assert!(map.mask < 8 && map.cells.len() > 1000);
        let keys = [0, 3, 2997, u64::MAX];
        for key in keys {
            assert_eq!(map.get(key), None, "{key}");
            map.set(key, !key as u32);
        }
        for key in keys {
            assert_eq!(map.get(key), Some(!key as u32), "{key}");
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
    fn stamped_map_grows_under_a_use_that_sets_more_than_it_expected() {
        let mut map = Stamped::<f64>::default();
        // Room set aside for what the uses below come to hold: they grow
        // into it, and the cells never move.
        map.reserve(5000);
        assert!(map.cells.is_empty() && map.cells.capacity() >= 8192);
        let cells = map.cells.as_ptr();
        for expected in [0, 1, 5, 100] {
            if expected == 5 {
                // The counter ends while the map is on its way to a
                // longer prefix.
                map.age_to_the_wrap();
            }
            map.begin(expected);
            let keys = || (0..5000u64).map(|k| phi_key((k % 7) as usize, (k * k) as ElemId));
            for (n, key) in keys().enumerate() {
                assert_eq!(map.get(key), None, "{key}");
                map.set(key, n as f64);
                // Setting a key again is not one more key.
                map.set(key, n as f64 + 0.5);
                assert_eq!(map.len, n + 1);
                assert!(map.len <= map.mask * 2 / 3 + 1);
            }
            for (n, key) in keys().enumerate() {
                assert_eq!(map.get(key), Some(n as f64 + 0.5), "{key}");
            }
            // It grew by doubling the prefix, not past what it holds.
            assert_eq!(map.mask + 1, 8192);
            assert_eq!(map.cells.as_ptr(), cells);
        }
        assert!(map.version < 100, "the counter wrapped: {}", map.version);
        // The next use is as small as it says it is.
        map.begin(3);
        assert!(map.mask < 8);
        assert_eq!(map.get(phi_key(0, 0)), None);
    }

    impl WalkCache {
        /// As `Stamped::age_to_the_wrap`.
        fn age_to_the_wrap(&mut self) {
            for (i, cell) in self.cells.iter_mut().enumerate() {
                cell.0 = 1 + (i % 3) as u32;
            }
            self.version = u32::MAX - 1;
        }
    }

    impl SlotMap {
        /// As `Stamped::age_to_the_wrap`, keeping the slots.
        fn age_to_the_wrap(&mut self) {
            for (i, cell) in self.cells.iter_mut().enumerate() {
                *cell = u64::from(1 + (i % 3) as u32) << 32 | (*cell & u64::from(u32::MAX));
            }
            self.version = u32::MAX - 1;
        }
    }

    /// A collection, its index, a configuration and the references to
    /// search it with: every set of the collection, encoded.
    type Case = (Collection, InvertedIndex, EngineConfig, Vec<SetRecord>);

    fn case(raw: &[Vec<String>], cfg: EngineConfig) -> Case {
        case_over(Collection::build(raw, cfg.tokenization()), raw, cfg)
    }

    /// The case of a collection built some other way, searched with the
    /// sets of `raw`.
    fn case_over(c: Collection, raw: &[Vec<String>], cfg: EngineConfig) -> Case {
        let index = InvertedIndex::build(&c);
        let refs = raw.iter().map(|set| c.encode_set(set)).collect();
        (c, index, cfg, refs)
    }

    /// Every reference of every case, one pass each on this thread.
    fn run_cases_here(cases: &[Case]) -> Vec<(Vec<(SetIdx, f64)>, PassStats)> {
        cases
            .iter()
            .flat_map(|(c, index, cfg, refs)| {
                refs.iter().map(move |r| {
                    pass(
                        &mut Searcher::new(c, index, *cfg),
                        r,
                        Restriction::default(),
                    )
                })
            })
            .collect()
    }

    /// The same, on a thread of its own, which starts from an empty
    /// scratch.
    fn run_cases_fresh(cases: &[Case]) -> Vec<(Vec<(SetIdx, f64)>, PassStats)> {
        std::thread::scope(|scope| scope.spawn(|| run_cases_here(cases)).join().unwrap())
    }

    #[test]
    fn reused_scratch_is_correct_across_version_wrap_around() {
        let rng = &mut StdRng::seed_from_u64(0x5eed);
        let jaccard = config(
            RelatednessMetric::Containment,
            0.3,
            0.0,
            SignatureScheme::Weighted,
            FilterKind::CheckAndNearestNeighbor,
        );
        // Under Eds q=2 an element sharing no q-gram may still score up
        // to 2/3, above α: the nearest-neighbor filter then searches
        // every token and marks what it visits. Under Jaccard it reuses
        // the walk and marks nothing, so this case is the one that ages
        // the visited marks through the wrap.
        let eds = EngineConfig {
            similarity: SimilarityFunction::Eds { q: 2 },
            delta: 0.8,
            alpha: 0.3,
            ..jaccard
        };
        let cases = [
            case(&repeated_corpus(rng, false, 9), jaccard),
            case(&repeated_corpus(rng, true, 9), eds),
        ];
        let want = run_cases_fresh(&cases);
        assert!(want.iter().any(|(results, _)| results.len() > 1));
        // Grow this thread's tables, then age them: the passes below run
        // through `u32::MAX` into the second round, whose versions every
        // stamp would match had the wrap not cleared them.
        assert_eq!(run_cases_here(&cases), want);
        let mut scratch = SCRATCH.take();
        scratch.slots.age_to_the_wrap();
        scratch.visited.age_to_the_wrap();
        scratch.phis.cells.age_to_the_wrap();
        scratch.phis.cols.age_to_the_wrap();
        scratch.walk_cache.age_to_the_wrap();
        SCRATCH.set(scratch);
        assert_eq!(run_cases_here(&cases), want);
        let scratch = SCRATCH.take();
        // Every map was begun at least twice since it was aged.
        for version in [
            scratch.slots.version,
            scratch.visited.version,
            scratch.phis.cells.version,
            scratch.phis.cols.version,
            scratch.walk_cache.version,
        ] {
            assert!(version < u32::MAX - 1, "the counter wrapped: {version}");
        }
    }

    #[test]
    fn the_slot_map_serves_collections_that_grow_and_shrink_like_a_fresh_one() {
        let rng = &mut StdRng::seed_from_u64(0x5107);
        let cfg = config(
            RelatednessMetric::Containment,
            0.3,
            0.0,
            SignatureScheme::Weighted,
            FilterKind::CheckAndNearestNeighbor,
        );
        // Up to 24 sets, and at least 60.
        let small = repeated_corpus(rng, false, 9);
        let large: Vec<Vec<String>> = (0..10)
            .flat_map(|_| repeated_corpus(rng, false, 9))
            .collect();
        // The small collection appended to past the large one's size,
        // with a set removed; then compacted, which renumbers its sets.
        let mut grown = Collection::build(&small, cfg.tokenization());
        grown.append_sets(&large);
        grown.append_sets(&small);
        grown.remove_sets(&[1]).unwrap();
        assert!(grown.len() > large.len());
        let mut compacted = grown.clone();
        compacted.compact();
        let states = [
            case(&small, cfg),
            case(&large, cfg),
            case_over(grown, &small, cfg),
            case_over(compacted, &small, cfg),
        ];
        // One thread through all four, in order; each against a thread
        // that has searched nothing before it.
        for (at, state) in states.iter().enumerate() {
            let want = run_cases_fresh(std::slice::from_ref(state));
            assert!(want.iter().any(|(results, _)| results.len() > 1), "{at}");
            assert_eq!(run_cases_here(std::slice::from_ref(state)), want, "{at}");
            let scratch = SCRATCH.take();
            assert!(scratch.slots.cells.len() >= state.0.len(), "{at}");
            SCRATCH.set(scratch);
        }
    }

    /// Sixty sets of two to six elements, each one of forty texts: a few
    /// words of a thirty-word vocabulary (Jaccard), or 8 to 16 letters
    /// over four (edit similarity).
    fn probe_corpus(seed: u64, edit: bool) -> Vec<Vec<String>> {
        let rng = &mut StdRng::seed_from_u64(seed);
        let pool: Vec<String> = (0..40)
            .map(|_| {
                if edit {
                    (0..rng.random_range(8..=16usize))
                        .map(|_| char::from(b'a' + rng.random_range(0..4u8)))
                        .collect()
                } else {
                    (0..rng.random_range(2..=6usize))
                        .map(|_| format!("w{}", rng.random_range(0..30u32)))
                        .collect::<Vec<_>>()
                        .join(" ")
                }
            })
            .collect();
        (0..60)
            .map(|_| {
                (0..rng.random_range(2..=6usize))
                    .map(|_| pool[rng.random_range(0..pool.len())].clone())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn nn_probes_are_the_posting_runs_the_nearest_neighbor_filter_looked_up() {
        // Each set of a fixed corpus as the reference, drained at δ: the
        // posting-run lookups, beside the funnel they served and the φ
        // evaluations. Probing every token outside the signature instead
        // of stopping at the sim-thresh cap takes 3 997 lookups and 4 390
        // evaluations on the Jaccard corpus, and 2 906 and 3 533 on the
        // Eds one, for the same `after_check` and `after_nn`.
        let jaccard = EngineConfig {
            metric: RelatednessMetric::Containment,
            similarity: SimilarityFunction::Jaccard,
            delta: 0.5,
            alpha: 0.5,
            scheme: SignatureScheme::Dichotomy,
            filter: FilterKind::CheckAndNearestNeighbor,
            reduction: true,
        };
        let eds = EngineConfig {
            metric: RelatednessMetric::Similarity,
            similarity: SimilarityFunction::Eds { q: 3 },
            alpha: 0.8,
            ..jaccard
        };
        for (cfg, raw, want) in [
            (
                jaccard,
                probe_corpus(0x9b0b, false),
                (2274, 1989, 236, 4121),
            ),
            (eds, probe_corpus(0xed5, true), (550, 1004, 81, 3376)),
        ] {
            let mut total = PassStats::default();
            for (_, stats) in run_cases_here(&[case(&raw, cfg)]) {
                total.merge(&stats);
            }
            let got = (
                total.nn_probes,
                total.after_check,
                total.after_nn,
                total.sim_evals,
            );
            assert_eq!(got, want, "{:?}", cfg.similarity);
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
        let (_, stats) = pass(&mut searcher, &r, Restriction::default());
        assert_eq!(stats.candidates, 1, "the singleton set must be size-pruned");
    }
}
