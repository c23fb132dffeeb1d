//! A warm query allocates nothing proportional to the collection, and
//! holds memory in proportion to the postings it walks; a build allocates
//! in proportion to distinct texts and distinct tokens.
//!
//! A search pass keeps maps keyed by set id and by element id (see
//! `Searcher`'s scratch contract), borrowed from the thread. The slot map
//! has a cell per set id, allocated once per thread; the element-keyed
//! ones are sized by the ids a pass touches. So once a thread has served
//! one query, the bytes the next one allocates depend on what it touches
//! — its reference, its candidates — and not on how many sets the
//! collection holds. That goes for the φ table too, which is begun for
//! the postings of the signature tokens and grows when the
//! nearest-neighbor searches meet more pairs than that: the query here
//! makes it grow. A verified pair that loses allocates nothing at all:
//! the column summaries that refute it are a fourth map of the same
//! kind, and only a pair that survives them has a matrix built and
//! solved. And what a pass holds of its candidates is what the walk gave
//! them — a cell per (candidate, reference element) that scored above
//! 0, at most one per posting — not a row of |R| cells each. A counting
//! global allocator measures all of it; it is why this test is a binary
//! of its own.
//!
//! A build reads each token of each distinct text once, as a slice of
//! that text (or of one padded buffer, for q-grams), and allocates for a
//! token only the first time it meets it: the dictionary's entry. So the
//! allocator calls of a build follow the distinct texts and the distinct
//! tokens, and longer texts over the same vocabulary cost none more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use silkmoth::core::{Restriction, Searcher};
use silkmoth::{
    Collection, Engine, EngineConfig, QuerySpec, RelatednessMetric, SimilarityFunction,
    Tokenization,
};

/// The system allocator, counting the calls that ask it for memory, the
/// bytes they ask for, and the most bytes held at once, while `COUNTING`.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated and not yet freed since counting began (below 0 when
/// more was freed than allocated), and its highest value.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        BYTES.fetch_add(bytes, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

fn hold(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn free(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

/// The counters are the process's: a test holds this while it reads them.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` under the counters, which are zeroed first.
fn counted<T>(f: impl FnOnce() -> T) -> T {
    BYTES.store(0, Ordering::Relaxed);
    CALLS.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let got = f();
    COUNTING.store(false, Ordering::Relaxed);
    got
}

/// Runs `spec` on a thread that has already served it, under the
/// counters.
fn execute_counted(engine: &Engine, spec: &QuerySpec) -> silkmoth::QueryOutput {
    engine.execute(spec);
    engine.execute(spec);
    counted(|| engine.execute(spec))
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // Held as a block that moves: both while it is copied.
        hold(new_size);
        free(layout.size());
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        free(layout.size());
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
    let got = execute_counted(engine, &spec);
    assert_eq!(got.hits, want.hits);
    BYTES.load(Ordering::Relaxed)
}

/// Allocator calls of one warm floor-only query that verifies `losers`
/// pairs, all of which lose.
///
/// Every reference element has `"a b c d"` for its nearest neighbor in
/// every stored set (Jaccard 4/5 each: a row-side sum of 2.4, above the 2.0
/// that δ = 0.5 needs of a 3-and-3 pair), so the nearest-neighbor filter
/// hands every set to verification — where that one element can be matched
/// once, and the other two resemble nothing: a column-side sum of 0.8.
fn losing_pairs_calls(losers: usize) -> usize {
    let raw: Vec<Vec<String>> = (0..losers)
        .map(|i| vec!["a b c d".into(), format!("p{i} q{i}"), format!("u{i} v{i}")])
        .collect();
    let cfg = EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.5,
        0.0,
    );
    let engine = Engine::new(Collection::build(&raw, cfg.tokenization()), cfg).unwrap();
    let spec = QuerySpec::new(vec![
        "a b c d x1".into(),
        "a b c d x2".into(),
        "a b c d x3".into(),
    ]);
    let got = execute_counted(&engine, &spec);
    assert!(got.hits.is_empty());
    let stats = got.stats;
    assert_eq!(
        (stats.after_nn, stats.verified),
        (losers, losers),
        "{stats:?}"
    );
    assert_eq!(stats.results, 0);
    CALLS.load(Ordering::Relaxed)
}

/// Allocator calls of one build over 2 000 distinct texts of `words`
/// words each, drawn from 50: the first two words tell the texts apart.
fn build_calls(words: usize, tokenization: Tokenization) -> usize {
    let raw: Vec<Vec<String>> = (0..2_000)
        .map(|i| {
            let word = |j| match j {
                0 => i % 50,
                1 => i / 50,
                _ => (i + j) % 50,
            };
            let text: Vec<String> = (0..words).map(|j| format!("w{}", word(j))).collect();
            vec![text.join(" ")]
        })
        .collect();
    let built = counted(|| Collection::build(&raw, tokenization));
    assert_eq!(built.len(), 2_000);
    CALLS.load(Ordering::Relaxed)
}

#[test]
fn a_build_allocates_by_distinct_texts_and_tokens_not_token_occurrences() {
    let _alone = alone();
    for tokenization in [Tokenization::Whitespace, Tokenization::QGram { q: 3 }] {
        let short = build_calls(8, tokenization);
        let long = build_calls(16, tokenization);
        assert!(short > 0, "the allocator counts");
        // Twice the tokens per text over the same vocabulary. A string
        // per token would be 16 000 calls more for the words, and one
        // more per added character for the q-grams.
        assert!(
            long <= short + short / 8,
            "{tokenization:?}: a build made {short} allocator calls over 8 words a text and {long} over 16"
        );
    }
}

#[test]
fn a_warm_query_allocates_nothing_proportional_to_the_collection() {
    let _alone = alone();
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

#[test]
fn a_warm_pass_allocates_nothing_per_verified_pair_that_loses() {
    let _alone = alone();
    let few = losing_pairs_calls(8);
    let many = losing_pairs_calls(256);
    assert!(few > 0, "the allocator counts");
    // Thirty-two times the candidates double the pass's per-candidate
    // vectors five times each. A matrix, an edge list or a solver's
    // arrays per losing pair would be some thousand calls here.
    assert!(
        many <= few + 40,
        "one warm query made {few} allocator calls over 8 losing pairs and {many} over 256"
    );
}

#[test]
fn a_pass_holds_bytes_by_postings_not_candidates_times_reference() {
    let _alone = alone();
    // Forty reference elements; 5 000 sets, each holding one of them
    // beside two elements of its own, so that every set is a candidate
    // with one positive cell of forty.
    let reference: Vec<String> = (0..40).map(|k| format!("a{k} b{k} c{k}")).collect();
    let raw: Vec<Vec<String>> = (0..5_000)
        .map(|j| {
            vec![
                reference[j % 40].clone(),
                format!("x{j} y{j}"),
                format!("z{j}"),
            ]
        })
        .collect();
    let cfg = EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.05,
        0.0,
    );
    let engine = Engine::new(Collection::build(&raw, cfg.tokenization()), cfg).unwrap();
    let got = execute_counted(&engine, &QuerySpec::new(reference));
    let stats = got.stats;
    assert_eq!(stats.candidates, 5_000, "{stats:?}");
    let postings = stats.signature_cost as usize;
    let peak = PEAK.load(Ordering::Relaxed);
    assert!(peak > 0, "the allocator counts");
    // 14 375 postings here, so the bound is 920 kB. A row of |R| cells
    // per candidate fails it: 5 000 × 40 × 8 B = 1.6 MB, in a matrix
    // grown by doubling that holds 2 MB while the 1 MB before it is
    // copied — a pass built that way held 4.0 MB at most, 17 times the
    // postings × 16 B. The per-candidate vectors, the cells and the queue
    // hold about 2.5 times them.
    assert!(
        peak as usize <= 4 * postings * 16,
        "one warm query held {peak} B at most, for {postings} postings"
    );
}
