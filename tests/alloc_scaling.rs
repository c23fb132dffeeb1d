//! A warm query allocates nothing proportional to the collection.
//!
//! A search pass keeps maps keyed by set id and by element id (see
//! `Searcher`'s scratch contract). They are sized by the ids a pass
//! touches and borrowed from the thread, so once a thread has served one
//! query, the bytes the next one allocates depend on what it touches —
//! its reference, its candidates — and not on how many sets the
//! collection holds. That goes for the φ table too, which is begun for
//! the postings of the signature tokens and grows when the
//! nearest-neighbor searches meet more pairs than that: the query here
//! makes it grow. A counting global allocator measures all of it; it is
//! why this test is a binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use silkmoth::core::{Restriction, Searcher};
use silkmoth::{
    Collection, Engine, EngineConfig, QuerySpec, RelatednessMetric, SimilarityFunction,
};

/// The system allocator, counting the bytes asked of it while `COUNTING`.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The elements of set `i`: every two of them share a token, no two
/// sets do.
fn set(i: usize) -> Vec<String> {
    ["a b c", "a d e", "b d f", "c e f", "a f g", "b e g"]
        .iter()
        .map(|e| e.split(' ').map(|t| format!("{t}{i} ")).collect())
        .collect()
}

/// `sets` sets that share no token with each other, so that a reference
/// drawn from set 0 has set 0 as its only candidate whatever `sets` is.
fn engine(sets: usize) -> Engine {
    let raw: Vec<Vec<String>> = (0..sets).map(set).collect();
    let cfg = EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.5,
        0.0,
    );
    Engine::new(Collection::build(&raw, cfg.tokenization()), cfg).unwrap()
}

/// Bytes allocated by one query on a thread that has already served it.
fn warm_query_bytes(engine: &Engine) -> usize {
    let mut reference = set(0);
    reference[5].push('x');
    let spec = QuerySpec::new(reference);
    let want = engine.execute(&spec);
    assert_eq!(want.hits.len(), 1, "set 0 and nothing else");
    assert_eq!(want.stats.candidates, 1);
    // The filters alone meet more (reference element, element) pairs
    // than twice the postings the φ table was begun for: it has grown.
    let r = engine.collection().encode_set(spec.reference());
    let filters = Searcher::new(engine.collection(), engine.index(), *engine.config())
        .survivors(&r, Restriction::default())
        .1;
    assert!(
        filters.sim_evals > 2 * filters.signature_cost + 2,
        "{filters:?}"
    );
    engine.execute(&spec);
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let got = engine.execute(&spec);
    COUNTING.store(false, Ordering::Relaxed);
    assert_eq!(got.hits, want.hits);
    BYTES.load(Ordering::Relaxed)
}

#[test]
fn a_warm_query_allocates_nothing_proportional_to_the_collection() {
    let small = warm_query_bytes(&engine(1_000));
    let big = warm_query_bytes(&engine(20_000));
    assert!(small > 0, "the allocator counts");
    // Twenty times the sets: tables of them, or of their elements,
    // allocated per query would show as tens of kilobytes here.
    assert!(
        big <= small + small / 8,
        "one warm query allocated {small} B over 1 000 sets and {big} B over 20 000"
    );
}
