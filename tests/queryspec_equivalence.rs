//! Differential harness for the QuerySpec migration.
//!
//! One [`QuerySpec`] must drive every execution layer identically:
//!
//! * **Spec path ≡ brute force**: `engine.execute(&spec)` is
//!   byte-identical (ids, tie order, bit-equal scores) to ranking
//!   `brute::search` at the spec's floor and cutting it at its `k` — on
//!   fresh collections and after incremental updates — and
//!   `ShardedEngine::execute` reproduces it for shard counts {1, 2, 7}.
//! * **The encoding is total and validated**: the server JSON form
//!   round-trips every spec; garbage documents are named errors, never
//!   panics; an out-of-range floor is refused identically from the spec
//!   constructor, JSON and the CLI (the single validation point).
//! * **Deadlines truncate, never corrupt**: under an adversarially slow
//!   corpus a deadline-bearing query returns a well-formed subset
//!   flagged `timed_out` instead of scanning to the floor.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

use silkmoth::core::rank::rank_top_k;
use silkmoth::server::queryspec::{spec_from_json, spec_to_json};
use silkmoth::server::Json;
use silkmoth::{
    brute, Collection, ConfigError, Engine, EngineConfig, QuerySpec, RelatednessMetric,
    ShardedEngine, SimilarityFunction, Update,
};
use silkmoth_core::Verdict;

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

fn cfg(rng: &mut StdRng) -> EngineConfig {
    let metric = if rng.random::<bool>() {
        RelatednessMetric::Similarity
    } else {
        RelatednessMetric::Containment
    };
    let delta = [0.4, 0.6, 0.8][rng.random_range(0..3usize)];
    let alpha = [0.0, 0.3][rng.random_range(0..2usize)];
    EngineConfig::full(metric, SimilarityFunction::Jaccard, delta, alpha)
}

fn gen_element(rng: &mut StdRng) -> String {
    let n = rng.random_range(1..=4usize);
    (0..n)
        .map(|_| {
            if rng.random::<bool>() {
                format!("w{}", rng.random_range(0..12u32))
            } else {
                format!("shared{}", rng.random_range(0..4u32))
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn gen_set(rng: &mut StdRng) -> Vec<String> {
    let n = rng.random_range(1..=4usize);
    (0..n).map(|_| gen_element(rng)).collect()
}

/// A random spec over `reference` mixing every optional field except
/// deadlines (timing must not perturb an equivalence check).
fn gen_spec(rng: &mut StdRng, reference: Vec<String>) -> QuerySpec {
    let mut spec = QuerySpec::new(reference);
    if let Some(k) = [None, Some(1), Some(3), Some(10)][rng.random_range(0..4usize)] {
        spec = spec.with_top_k(k);
    }
    if let Some(f) = [None, Some(0.0), Some(0.35), Some(1.0)][rng.random_range(0..4usize)] {
        spec = spec.with_floor(f).expect("in range");
    }
    spec.with_stats(rng.random()).with_explain(rng.random())
}

/// Asserts `got` is byte-identical to `want`: same ids in the same
/// order, bit-for-bit equal scores.
fn assert_hits_identical(got: &[(u32, f64)], want: &[(u32, f64)], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: hit count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.0, w.0, "{ctx}: ids/tie order");
        assert_eq!(g.1.to_bits(), w.1.to_bits(), "{ctx}: score bits");
    }
}

/// One full cross-layer equivalence check: the spec on the unsharded
/// engine against ranked brute force at the spec's floor, and every
/// sharded flavor against the engine. Gids equal raw input ids here (no
/// compaction), so the outputs are directly comparable.
fn check_spec(engine: &Engine, sharded: &[ShardedEngine], spec: &QuerySpec) {
    let r = engine.collection().encode_set(spec.reference());
    let mut at = *engine.config();
    if let Some(f) = spec.floor() {
        at.delta = f.max(f64::MIN_POSITIVE);
    }
    let mut want = brute::search(&r, engine.collection(), &at);
    if let Some(k) = spec.top_k() {
        rank_top_k(&mut want, k);
    }
    let got = engine.execute(spec);
    assert_hits_identical(&got.hits, &want, "engine.execute vs ranked brute::search");
    if spec.top_k().is_none() {
        // At the floor, every verified pair that reached it is a hit.
        assert_eq!(got.stats.results, got.hits.len(), "engine.execute stats");
    }
    assert!(!got.timed_out);
    if spec.want_explain() {
        assert_eq!(got.explanations.len(), got.hits.len());
        for ((sid, score), (esid, expl)) in got.hits.iter().zip(&got.explanations) {
            assert_eq!(sid, esid);
            assert_eq!(expl.verdict, Verdict::Related);
            assert_eq!(expl.relatedness.map(f64::to_bits), Some(score.to_bits()));
        }
    } else {
        assert!(got.explanations.is_empty());
    }
    for shard_engine in sharded {
        let ctx = format!("sharded({}).execute", shard_engine.shard_count());
        let sharded_out = shard_engine.execute(spec);
        assert_hits_identical(&sharded_out.hits, &got.hits, &ctx);
        assert!(!sharded_out.timed_out);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The tentpole property: one spec, the engine and three sharded
    // executors, the bytes brute force ranks — fresh and after
    // incremental updates.
    #[test]
    fn spec_path_is_byte_identical_to_ranked_brute_force(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let config = cfg(rng);
        let n = rng.random_range(15..45usize);
        let mut raw: Vec<Vec<String>> = (0..n).map(|_| gen_set(rng)).collect();

        let tokenization = config.tokenization();
        let mut engine =
            Engine::new(Collection::build(&raw, tokenization), config).unwrap();
        let mut sharded: Vec<ShardedEngine> = SHARD_COUNTS
            .iter()
            .map(|&s| ShardedEngine::build(&raw, config, s).unwrap())
            .collect();

        for _ in 0..4 {
            let reference = if rng.random::<bool>() && !raw.is_empty() {
                raw[rng.random_range(0..raw.len())].clone()
            } else {
                gen_set(rng)
            };
            check_spec(&engine, &sharded, &gen_spec(rng, reference));
        }

        // Mutate every flavor identically — appends and removals only,
        // so unsharded ids and sharded gids stay equal and outputs stay
        // directly comparable (compaction equivalence incl. renumbering
        // is pinned by tests/update_equivalence.rs) — then re-check.
        let appended: Vec<Vec<String>> =
            (0..rng.random_range(1..=4usize)).map(|_| gen_set(rng)).collect();
        engine.apply(Update::Append(appended.clone())).unwrap();
        for s in &mut sharded {
            s.apply(Update::Append(appended.clone())).unwrap();
        }
        raw.extend(appended);
        let victim = rng.random_range(0..raw.len()) as u32;
        engine.apply(Update::Remove(vec![victim])).unwrap();
        for s in &mut sharded {
            s.apply(Update::Remove(vec![victim])).unwrap();
        }

        for _ in 0..3 {
            let reference = if rng.random::<bool>() {
                raw[rng.random_range(0..raw.len())].clone()
            } else {
                gen_set(rng)
            };
            check_spec(&engine, &sharded, &gen_spec(rng, reference));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // JSON form: `spec_from_json(spec_to_json(s)) == s` (deadlines at
    // millisecond granularity), and arbitrary JSON documents never
    // panic the parser.
    #[test]
    fn json_roundtrip_is_the_identity(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        for _ in 0..16 {
            let n = rng.random_range(1..4usize);
            let reference: Vec<String> = (0..n).map(|_| gen_element(rng)).collect();
            let mut spec = gen_spec(rng, reference);
            if rng.random::<bool>() {
                spec = spec.with_deadline(Duration::from_millis(rng.random_range(0..60_000)));
            }
            let text = spec_to_json(&spec).to_string();
            let back = spec_from_json(&Json::parse(&text).unwrap()).expect("round-trip");
            prop_assert_eq!(back, spec);
        }
        // Garbage documents: parse errors or spec errors, never panics.
        for _ in 0..32 {
            let len = rng.random_range(0..40usize);
            let garbage: String = (0..len)
                .map(|_| *b"{}[]\",:x0.e-t\\ ".get(rng.random_range(0..15usize)).unwrap() as char)
                .collect();
            if let Ok(doc) = Json::parse(&garbage) {
                let _ = spec_from_json(&doc);
            }
        }
    }
}

/// The floor check lives in exactly one place — [`QuerySpec::with_floor`]
/// — so an out-of-range floor must fail with the *same* error from the
/// spec constructor and the JSON decoder. (The CLI entry point is
/// covered by `cli_floor_fails_like_every_other_entry_point` below.)
#[test]
fn floor_rejection_is_identical_across_entry_points() {
    for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
        // 1. Spec constructor: the canonical error.
        let want = QuerySpec::new(vec!["a b c".into()])
            .with_floor(bad)
            .unwrap_err();
        assert!(matches!(want, ConfigError::FloorOutOfRange(_)), "{bad}");

        // 2. JSON decoder (finite floors only — JSON has no NaN/inf).
        if bad.is_finite() {
            let body = format!(r#"{{"reference": ["a b c"], "floor": {bad}}}"#);
            let err = spec_from_json(&Json::parse(&body).unwrap()).unwrap_err();
            assert_eq!(err, want.to_string(), "{bad}");
        }
    }
}

/// The CLI's `--floor` goes through the same spec constructor: an
/// out-of-range floor is a named error (exit 2) carrying the exact
/// `FloorOutOfRange` message, from the real binary.
#[test]
fn cli_floor_fails_like_every_other_entry_point() {
    let dir = std::env::temp_dir().join(format!("silkmoth-queryspec-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("input.sets");
    let refs = dir.join("refs.sets");
    std::fs::write(&input, "a b c|d e\nf g|h\n").unwrap();
    std::fs::write(&refs, "a b c\n").unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_silkmoth"))
        .args([
            "search",
            "--input",
            input.to_str().unwrap(),
            "--reference",
            refs.to_str().unwrap(),
            "--floor",
            "1.5",
        ])
        .output()
        .expect("silkmoth binary runs");
    assert_eq!(out.status.code(), Some(2), "bad floors are CLI errors");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let want = ConfigError::FloorOutOfRange(1.5).to_string();
    assert!(stderr.contains(&want), "stderr: {stderr}");

    // A valid floor (with a deadline, exercising --timeout-ms wiring)
    // succeeds through the same path.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_silkmoth"))
        .args([
            "search",
            "--input",
            input.to_str().unwrap(),
            "--reference",
            refs.to_str().unwrap(),
            "--floor",
            "0.5",
            "--top-k",
            "3",
            "--timeout-ms",
            "60000",
        ])
        .output()
        .expect("silkmoth binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).lines().count() >= 1,
        "the identical set clears any floor"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// An adversarially slow corpus (floor 0 admits everything, so the pass
/// must verify every set): a budgeted query returns a truncated,
/// well-formed, `timed_out` output instead of scanning to the floor —
/// and an unbudgeted one still returns everything.
#[test]
fn deadline_truncates_but_never_corrupts() {
    // ~900 sets of 6 elements each; with floor 0 every set is verified
    // (maximum matching per pair), which takes long enough to observe a
    // small budget expiring mid-pass.
    let raw: Vec<Vec<String>> = (0..900)
        .map(|i| {
            (0..6)
                .map(|j| {
                    format!(
                        "t{} t{} t{} t{} shared{}",
                        (i * 7 + j) % 23,
                        (i + 3 * j) % 17,
                        (i * 5 + j) % 13,
                        (i + j) % 11,
                        i % 5
                    )
                })
                .collect()
        })
        .collect();
    let config = EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.6,
        0.0,
    );
    let engine = Engine::new(Collection::build(&raw, config.tokenization()), config).unwrap();
    let base = QuerySpec::new(raw[0].clone()).with_floor(0.0).unwrap();

    let t0 = Instant::now();
    let full = engine.execute(&base);
    let full_elapsed = t0.elapsed();
    assert!(!full.timed_out);
    assert_eq!(full.hits.len(), raw.len(), "floor 0 relates everything");

    // A zero budget is guaranteed to expire before any verification.
    let zero = engine.execute(&base.clone().with_deadline(Duration::ZERO));
    assert!(zero.timed_out, "zero budget must time out");
    assert_eq!(zero.stats.verified, 0);
    assert_eq!(zero.hits.len(), zero.stats.results);

    // A small but nonzero budget: whatever was proven in time must be a
    // bit-identical subset of the full answer (well-formed truncation).
    let budget = Duration::from_millis(2);
    let partial = engine.execute(&base.clone().with_deadline(budget));
    assert_eq!(partial.hits.len(), partial.stats.results);
    for &(sid, score) in &partial.hits {
        let &(_, want) = full.hits.iter().find(|&&(s, _)| s == sid).unwrap();
        assert_eq!(score.to_bits(), want.to_bits());
    }
    // Only assert actual truncation when the full pass was slow enough
    // for the budget to bind (keeps the test robust on fast machines).
    if full_elapsed >= 10 * budget {
        assert!(partial.timed_out, "full pass took {full_elapsed:?}");
        assert!(partial.hits.len() < full.hits.len());
    }

    // The sharded path truncates just as safely.
    let sharded = ShardedEngine::build(&raw, config, 2).unwrap();
    let sharded_zero = sharded.execute(&base.with_deadline(Duration::ZERO));
    assert!(sharded_zero.timed_out);
    for &(gid, score) in &sharded_zero.hits {
        let &(_, want) = full.hits.iter().find(|&&(s, _)| s == gid).unwrap();
        assert_eq!(score.to_bits(), want.to_bits());
    }
}
