//! # silkmoth-collection
//!
//! Set collections, the element dictionary, the frequency-ordered token
//! dictionary, and the inverted index for the SilkMoth related-set
//! discovery system (§3 of the paper).
//!
//! A [`Collection`] is built from raw data — each *set* is a list of
//! *element* strings — under a chosen [`Tokenization`]:
//!
//! * [`Tokenization::Whitespace`] for Jaccard similarity (each word is a
//!   token);
//! * [`Tokenization::QGram`] for edit similarity (each q-gram is a token;
//!   elements additionally record their q-chunk token positions, used for
//!   signature generation in §7.1).
//!
//! Token ids are assigned in **decreasing order of global frequency**
//! (ties broken lexicographically), matching the paper's Table 2
//! convention where `t1` is the most frequent token. A build reads every
//! distinct text's tokens in one walk — each token a slice of the text
//! (or of its padded copy, for q-grams), hashed once into the dictionary
//! under a provisional id — then ranks the ids and encodes every element
//! from its ranked ids. Appends and reference encoding read tokens in the
//! same walk.
//!
//! Real corpora repeat their elements — a column's cell values, a title's
//! words — so the collection keeps an **element dictionary**: each
//! distinct element text is tokenised, encoded and stored once, as one
//! [`Element`] under a dense [`ElemId`], and a [`SetRecord`] holds one
//! shared handle (`Arc<Element>`) per occurrence. Two elements are the
//! same entry exactly when their texts are equal byte for byte; nothing
//! is normalised. Frequencies and postings still count *occurrences*, so
//! the token ids, the index and every answer are what storing each
//! occurrence apart would give; what a reader of the sets gains is the
//! id, by which work done for one occurrence of an element is known to
//! hold for every other.
//!
//! An element's token ids, q-chunks and chars are not its own
//! allocations: a build writes those of every distinct element into one
//! slab, end to end in id order, and each later step that encodes new
//! texts (an append, an external reference) writes one slab of its own.
//! The element holds a handle to its slab and its position there, and
//! [`Collection::element_view`] reads a stored element's encoding by id
//! alone.
//!
//! The [`InvertedIndex`] maps each token to the sorted list of
//! `(set, element id)` postings containing it, one per element position
//! (§3, footnote 4); per-set sublists are located by interpolation, then
//! gallop, where footnote 7 uses a binary search, which is what the
//! nearest-neighbor filter's `NNSearch` relies on. A posting names its
//! element by dictionary id, and [`Collection::element`] resolves the
//! id, so a reader of the index learns which element a posting is
//! without visiting the set.

mod builder;
pub mod codec;
mod dict;
mod element;
mod index;
pub mod paper_example;
mod stats;

pub use builder::Tokenization;
pub use dict::TokenDict;
pub use element::{ElemId, Element, ElementView, SetRecord};
pub use index::{InvertedIndex, Posting};
pub use stats::CollectionStats;

use element::{ByText, Slab};
use silkmoth_text::TokenId;
use std::collections::HashSet;
use std::sync::Arc;

/// Index of a set inside a [`Collection`].
pub type SetIdx = u32;

/// Errors from the incremental-update API ([`Collection::remove_sets`]
/// and the engine layers built on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateError {
    /// The referenced set id was never assigned (or was dropped by a
    /// compaction) — nothing was mutated.
    NoSuchSet(SetIdx),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoSuchSet(id) => write!(f, "no such set: {id}"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// A corpus of sets sharing one token dictionary and one element
/// dictionary.
///
/// Each distinct element text is stored once (see the crate docs) and the
/// sets share it; [`Element::id`] of a stored element is its dense id
/// there, and [`element`](Self::element) is the way back from the id.
/// Identity is exact text equality.
///
/// ## Layout
///
/// The stored elements' encodings — token ids, q-chunks, chars — lie in
/// a few slabs, each the encodings of a run of consecutive ids end to
/// end: one from the build (or the last [`compact`](Self::compact) or
/// snapshot restore, which are builds), and one per
/// [`append_sets`](Self::append_sets) call that brought new texts. Each
/// token id is stored once, there; the [`Element`]s hold a handle to
/// their slab. [`element_view`](Self::element_view) finds a slab by id
/// and reads the encoding in place, which is how a search pass evaluates
/// φ against an element it knows only by a posting's id: the
/// encodings of neighbouring ids share cache lines, while the elements
/// themselves, one allocation each, lie wherever the heap put them.
///
/// ## Incremental updates
///
/// A collection is mutable after the initial build:
/// [`append_sets`](Self::append_sets) encodes new sets against the
/// existing dictionaries (growing them in place — new tokens and new
/// element texts get fresh ids past the end, so established ids never
/// move, and a text already stored is shared, not encoded again), and
/// [`remove_sets`](Self::remove_sets) **tombstones** sets in place: the
/// slot and its id survive, but the set is no longer
/// [`is_live`](Self::is_live) and every search layer skips it at
/// candidate admission. [`len`](Self::len) counts slots (live + dead);
/// [`live_len`](Self::live_len) counts live sets.
///
/// Tombstoning and dictionary growth trade index freshness for O(1)
/// removal and append-only index maintenance: dead sets keep their
/// postings, the token dictionary keeps its (now possibly stale)
/// frequency order, and the element dictionary keeps elements that only
/// removed sets held (so a later append of the same text finds them).
/// None of it affects *correctness* — frequencies and posting-list costs
/// only steer signature selection, candidates are liveness-filtered, and
/// an orphaned element is merely unused — but a heavily-mutated
/// collection prunes less effectively and holds more than it needs until
/// [`compact`](Self::compact) rewrites it.
#[derive(Debug, Clone)]
pub struct Collection {
    sets: Vec<SetRecord>,
    dict: TokenDict,
    /// The element dictionary: every distinct element text encoded so
    /// far, findable by that text.
    elems: HashSet<ByText>,
    /// The same elements by id: `by_id[id]` is the one whose
    /// [`Element::id`] is `id`.
    by_id: Vec<Arc<Element>>,
    /// The slabs holding those elements' encodings, each beside the id of
    /// its first element, in id order: a build writes one, and each
    /// [`append_sets`](Self::append_sets) that brings new texts one more.
    slabs: Vec<(ElemId, Arc<Slab>)>,
    tokenization: Tokenization,
    /// Liveness per slot; `false` marks a tombstoned set.
    live: Vec<bool>,
    /// Number of `true` entries in `live`.
    live_count: usize,
    /// Element count of the largest set slot, live or tombstoned.
    max_set_len: usize,
}

impl Collection {
    /// Builds a collection from raw sets of element strings.
    ///
    /// Element texts are interned first, and one walk runs over the
    /// distinct ones: it hashes each token once, into the dictionary, and
    /// counts global token frequencies (one count per *element
    /// occurrence*, i.e. per future posting). Ids are then assigned in
    /// decreasing frequency order and every distinct element is encoded
    /// from the ids the walk kept, as a sorted, deduplicated token-id
    /// slice.
    pub fn build<S: AsRef<str>>(raw: &[Vec<S>], tokenization: Tokenization) -> Self {
        builder::build_collection(raw, tokenization)
    }

    /// [`build`](Self::build) over input already interned — `texts[id]`
    /// is element `id`, and sets list their elements by id — so no text
    /// is hashed. For distinct texts in first-occurrence order (what
    /// [`codec::intern`] gives) it is exactly `build` over the sets
    /// spelled out. Panics on an id not below `texts.len()`.
    pub fn build_interned<S: AsRef<str>, V: AsRef<[ElemId]>>(
        texts: &[S],
        sets: &[V],
        tokenization: Tokenization,
    ) -> Self {
        builder::build_interned(texts, sets, tokenization)
    }

    /// Number of set *slots* (live and tombstoned). Slot ids are stable:
    /// removal never shifts them, so this is also the exclusive upper
    /// bound on valid [`SetIdx`] values.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True if the collection holds no set slots.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Number of live (non-tombstoned) sets.
    pub fn live_len(&self) -> usize {
        self.live_count
    }

    /// Element count of the largest set slot (tombstoned slots
    /// included, so it only shrinks at [`compact`](Self::compact)): the
    /// size search passes give their per-element scratch, tracked here
    /// so that no query has to walk the sets for it.
    pub fn max_set_len(&self) -> usize {
        self.max_set_len
    }

    /// True when the slot exists and has not been tombstoned.
    /// Out-of-range ids are simply not live.
    #[inline]
    pub fn is_live(&self, id: SetIdx) -> bool {
        self.live.get(id as usize).copied().unwrap_or(false)
    }

    /// The ids of all live sets, ascending.
    pub fn live_ids(&self) -> impl Iterator<Item = SetIdx> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l)
            .map(|(i, _)| i as SetIdx)
    }

    /// Appends new sets, encoding them against the existing
    /// dictionaries: an element text already stored is shared (only
    /// unseen texts are tokenised), known tokens keep their ids, unknown
    /// tokens are interned with fresh ids past the current end (never
    /// reshuffling established ids), and per-token posting counts grow
    /// by one per appended occurrence. Returns the ids assigned to the
    /// new sets, in input order.
    ///
    /// The dictionary's decreasing-frequency id order — a signature-cost
    /// heuristic, not a correctness requirement — degrades as appends
    /// accumulate; [`compact`](Self::compact) restores it.
    pub fn append_sets<S: AsRef<str>>(&mut self, raw: &[Vec<S>]) -> std::ops::Range<SetIdx> {
        builder::append_sets(self, raw)
    }

    /// Tombstones the given set ids. Already-tombstoned ids are no-ops
    /// (removal is idempotent); an id that was never assigned is an
    /// [`UpdateError::NoSuchSet`] and **nothing** is mutated. Returns how
    /// many sets were newly tombstoned.
    pub fn remove_sets(&mut self, ids: &[SetIdx]) -> Result<usize, UpdateError> {
        if let Some(&bad) = ids.iter().find(|&&id| (id as usize) >= self.sets.len()) {
            return Err(UpdateError::NoSuchSet(bad));
        }
        let mut removed = 0;
        for &id in ids {
            if std::mem::replace(&mut self.live[id as usize], false) {
                removed += 1;
            }
        }
        self.live_count -= removed;
        Ok(removed)
    }

    /// Rewrites the collection from its live sets only: tombstoned slots
    /// are dropped, remaining sets are renumbered densely (preserving
    /// relative order), the token dictionary is rebuilt in fresh
    /// decreasing-frequency order, and the element dictionary is rebuilt
    /// from the live sets alone, which drops the elements only removed
    /// sets held and renumbers the rest. Returns the slot remapping,
    /// `old id → new id` (`None` for dropped slots).
    ///
    /// Equivalent to `Collection::build` over the live raw texts — the
    /// compacted collection is byte-for-byte what a from-scratch build
    /// would produce.
    pub fn compact(&mut self) -> Vec<Option<SetIdx>> {
        let mut next = 0 as SetIdx;
        let remap = self
            .live
            .iter()
            .map(|&live| {
                live.then(|| {
                    next += 1;
                    next - 1
                })
            })
            .collect();
        let (texts, sets) = codec::intern(&[self], self.live_ids().map(|id| (0, id)));
        *self = builder::build_interned(&texts, &sets, self.tokenization);
        remap
    }

    /// The sets, in insertion order.
    pub fn sets(&self) -> &[SetRecord] {
        &self.sets
    }

    /// One set by index.
    pub fn set(&self, id: SetIdx) -> &SetRecord {
        &self.sets[id as usize]
    }

    /// The stored element with dictionary id `id` — what a
    /// [`Posting`] names. Ids are dense: every id below the number of
    /// distinct texts encoded so far resolves, also one that only
    /// removed sets hold.
    #[inline]
    pub fn element(&self, id: ElemId) -> &Element {
        &self.by_id[id as usize]
    }

    /// The encoding of the stored element with dictionary id `id` — the
    /// [`Element::view`] of [`element`](Self::element)`(id)` — read
    /// straight from the slab that holds it.
    ///
    /// The slab is found by the id alone — at once for an id of the
    /// build's slab, which holds most, by bisection among the appends'
    /// otherwise — and holds the encodings of consecutive ids end to end,
    /// so a reader that meets ids in a posting walk — the pass's φ table —
    /// reads the tokens or chars it compares without loading the element
    /// itself, whose handles lie wherever the heap put them.
    #[inline]
    pub fn element_view(&self, id: ElemId) -> ElementView<'_> {
        let k = match self.slabs.get(1) {
            Some(&(appended, _)) if id >= appended => {
                self.slabs.partition_point(|&(first, _)| first <= id) - 1
            }
            _ => 0,
        };
        let (first, slab) = &self.slabs[k];
        slab.view(id - first)
    }

    /// The shared token dictionary.
    pub fn dict(&self) -> &TokenDict {
        &self.dict
    }

    /// The tokenization this collection was built with.
    pub fn tokenization(&self) -> Tokenization {
        self.tokenization
    }

    /// Encodes an external reference set against this collection's
    /// dictionary (search mode, Problem 2).
    ///
    /// Tokens absent from the dictionary receive fresh ids starting at
    /// `dict.len()`; such tokens have empty inverted lists, which the
    /// signature generator exploits (a signature token with an empty list
    /// costs nothing and admits no candidates).
    ///
    /// Neither dictionary is touched: the encoded elements are the
    /// record's own, equal to stored elements of the same text but with
    /// no [`Element::id`].
    pub fn encode_set<S: AsRef<str>>(&self, elements: &[S]) -> SetRecord {
        builder::encode_external_set(self, elements)
    }

    /// Summary statistics (Table 3 columns).
    pub fn stats(&self) -> CollectionStats {
        stats::compute(self)
    }

    pub(crate) fn from_parts(
        sets: Vec<SetRecord>,
        dict: TokenDict,
        slab: Arc<Slab>,
        by_id: Vec<Arc<Element>>,
        tokenization: Tokenization,
    ) -> Self {
        let live_count = sets.len();
        let mut collection = Self {
            elems: HashSet::with_capacity(by_id.len()),
            by_id: Vec::with_capacity(by_id.len()),
            slabs: Vec::new(),
            live: vec![true; live_count],
            live_count,
            max_set_len: sets.iter().map(SetRecord::len).max().unwrap_or(0),
            sets,
            dict,
            tokenization,
        };
        if !by_id.is_empty() {
            collection.store(0, &slab, by_id);
        }
        collection
    }

    /// Enters newly encoded elements — the elements of `slab`, in slot
    /// order, whose ids run on from `first`, the next one — into the
    /// element dictionary, by text and by id.
    pub(crate) fn store(
        &mut self,
        first: ElemId,
        slab: &Arc<Slab>,
        elements: impl IntoIterator<Item = Arc<Element>>,
    ) {
        debug_assert_eq!(first as usize, self.by_id.len());
        self.slabs.push((first, Arc::clone(slab)));
        for element in elements {
            self.elems.insert(ByText(Arc::clone(&element)));
            self.by_id.push(element);
        }
        debug_assert_eq!(self.by_id.len() - first as usize, slab.len());
    }
}

/// Convenience re-export of the token id type.
pub type Token = TokenId;
