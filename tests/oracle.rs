//! An oracle that shares no code with the engine: related-set search
//! from the definitions alone, in exact integer arithmetic.
//!
//! * φ is Jaccard over two elements' distinct whitespace tokens, kept as
//!   the integer pair (|x ∩ y|, |x ∪ y|), and φα clamps it to 0 below α
//!   (§2.1).
//! * The maximum matching score is the best total φα over every injection
//!   of the smaller set into the larger one — exhaustive, over sets of at
//!   most six elements — summed as an exact `i128` rational.
//! * Relatedness is SET-SIMILARITY, m / (|R| + |S| − m), or
//!   SET-CONTAINMENT, m / |R| (Definitions 1 and 2), compared with δ
//!   exactly.
//!
//! It runs against `Engine::execute` (floor and top-k) and
//! `ShardedEngine::execute` at 1, 2 and 7 shards over generated small
//! collections, and on the paper's Table 2. Membership at the floor must
//! agree exactly. A disagreement whose exact score lies within `WINDOW` of
//! the floor is a **float departure** — the engine decides membership in
//! f64, with a tolerance — and is printed and counted; so is a top-k
//! answer that breaks an exact tie by f64 bits instead of by id. Both
//! counts are pinned. Every hit's explanation must say related, with the
//! hit's score bit for bit.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silkmoth::core::{explain_pair, Verdict};
use silkmoth::{
    Collection, Engine, EngineConfig, FilterKind, QueryOutput, QuerySpec, RelatednessMetric,
    ShardedEngine, SignatureScheme, SimilarityFunction,
};

/// How close to the floor an exact score must lie for a disagreement on
/// its membership to count as a float departure rather than a failure.
const WINDOW: f64 = 1e-9;

/// An exact non-negative rational, kept in lowest terms.
#[derive(Debug, Clone, Copy)]
struct Q {
    n: i128,
    d: i128,
}

fn gcd(a: i128, b: i128) -> i128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl Q {
    fn new(n: i128, d: i128) -> Q {
        let g = gcd(n, d);
        Q { n: n / g, d: d / g }
    }

    const ZERO: Q = Q { n: 0, d: 1 };

    fn add(self, other: Q) -> Q {
        Q::new(self.n * other.d + other.n * self.d, self.d * other.d)
    }

    fn cmp(self, other: Q) -> Ordering {
        (self.n * other.d).cmp(&(other.n * self.d))
    }

    fn to_f64(self) -> f64 {
        self.n as f64 / self.d as f64
    }
}

/// φα of two elements: the Jaccard of their distinct whitespace tokens,
/// or 0 where that is below `alpha`.
fn phi(x: &str, y: &str, alpha: Q) -> Q {
    let x: BTreeSet<&str> = x.split_whitespace().collect();
    let y: BTreeSet<&str> = y.split_whitespace().collect();
    let inter = x.intersection(&y).count() as i128;
    let union = x.union(&y).count() as i128;
    let sim = Q::new(inter, union);
    if sim.cmp(alpha) == Ordering::Less {
        Q::ZERO
    } else {
        sim
    }
}

/// The maximum matching score: the best total φα over every injection of
/// the smaller set into the larger (φα is symmetric, and with weights ≥ 0
/// a best matching covers the smaller side).
fn matching(r: &[String], s: &[String], alpha: Q) -> Q {
    let (rows, cols) = if r.len() <= s.len() { (r, s) } else { (s, r) };
    let w: Vec<Vec<Q>> = rows
        .iter()
        .map(|x| cols.iter().map(|y| phi(x, y, alpha)).collect())
        .collect();
    fn best(w: &[Vec<Q>], row: usize, used: &mut [bool]) -> Q {
        if row == w.len() {
            return Q::ZERO;
        }
        let mut top = Q::ZERO;
        for col in 0..used.len() {
            if !used[col] {
                used[col] = true;
                let total = w[row][col].add(best(w, row + 1, used));
                used[col] = false;
                if total.cmp(top) == Ordering::Greater {
                    top = total;
                }
            }
        }
        top
    }
    best(&w, 0, &mut vec![false; cols.len()])
}

/// Definition 1 or 2 over the exact matching score.
fn relatedness(metric: RelatednessMetric, r: &[String], s: &[String], alpha: Q) -> Q {
    let m = matching(r, s, alpha);
    match metric {
        RelatednessMetric::Similarity => Q::new(m.n, m.d * (r.len() + s.len()) as i128 - m.n),
        RelatednessMetric::Containment => Q::new(m.n, m.d * r.len() as i128),
    }
}

/// One query's exact answer: the relatedness of every set, by id.
struct Exact {
    scores: Vec<(u32, Q)>,
}

/// What the engines disagreed with the oracle on without failing.
#[derive(Default)]
struct Departures {
    /// Floor membership decided the other way inside `WINDOW`.
    floor: usize,
    /// Top-k answers that break an exact tie by f64 bits, not by id.
    ties: usize,
    /// Hits checked.
    hits: usize,
}

impl Exact {
    fn of(&self, sid: u32) -> Q {
        self.scores[sid as usize].1
    }

    /// The exact answer at `floor`: ascending id, or, under `k`, the `k`
    /// best by score and then id.
    fn answer(&self, floor: Q, k: Option<usize>) -> Vec<(u32, Q)> {
        let mut related: Vec<(u32, Q)> = (self.scores.iter().copied())
            .filter(|&(_, score)| score.cmp(floor) != Ordering::Less)
            .collect();
        if let Some(k) = k {
            related.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(&b.0)));
            related.truncate(k);
        }
        related
    }

    /// Checks one engine answer against the exact one.
    fn check(
        &self,
        hits: &[(u32, f64)],
        floor: Q,
        k: Option<usize>,
        ctx: &str,
        d: &mut Departures,
    ) {
        for &(sid, score) in hits {
            let exact = self.of(sid).to_f64();
            assert!(
                (score - exact).abs() <= 1e-12,
                "{ctx}: set {sid} scored {score}, exactly {exact}"
            );
        }
        d.hits += hits.len();
        let want = self.answer(floor, k);
        let got_ids: Vec<u32> = hits.iter().map(|h| h.0).collect();
        let want_ids: Vec<u32> = want.iter().map(|w| w.0).collect();
        if got_ids == want_ids {
            return;
        }
        if k.is_none() {
            let got: BTreeSet<u32> = got_ids.iter().copied().collect();
            let want: BTreeSet<u32> = want_ids.iter().copied().collect();
            for &sid in got.symmetric_difference(&want) {
                let exact = self.of(sid);
                let gap = (exact.to_f64() - floor.to_f64()).abs();
                assert!(
                    gap <= WINDOW,
                    "{ctx}: set {sid} at {exact:?} against floor {floor:?}"
                );
                println!("float departure at the floor: {ctx}: set {sid} at {exact:?}");
                d.floor += 1;
            }
            return;
        }
        // The same exact scores in the same order; only the ids of a tie
        // may differ.
        let got: Vec<Q> = got_ids.iter().map(|&sid| self.of(sid)).collect();
        assert_eq!(got.len(), want.len(), "{ctx}: {got_ids:?} vs {want_ids:?}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                g.cmp(w.1),
                Ordering::Equal,
                "{ctx}: {got_ids:?} vs {want_ids:?}"
            );
        }
        println!("float tie order: {ctx}: {got_ids:?}, exactly {want_ids:?}");
        d.ties += 1;
    }
}

/// Every hit's explanation says related, with the hit's score.
fn check_explained(out: &QueryOutput, ctx: &str) {
    assert_eq!(out.explanations.len(), out.hits.len(), "{ctx}");
    for (&(sid, score), (esid, expl)) in out.hits.iter().zip(&out.explanations) {
        assert_eq!(sid, *esid, "{ctx}");
        assert_eq!(expl.verdict, Verdict::Related, "{ctx}: set {sid}");
        assert_eq!(
            expl.relatedness.map(f64::to_bits),
            Some(score.to_bits()),
            "{ctx}"
        );
    }
}

/// A set of one to six elements of one to three tokens over `a`…`f`; a
/// token may repeat within an element, and an element within a set.
fn random_set(rng: &mut StdRng) -> Vec<String> {
    (0..rng.random_range(1..=6usize))
        .map(|_| {
            (0..rng.random_range(1..=3usize))
                .map(|_| ["a", "b", "c", "d", "e", "f"][rng.random_range(0..6usize)])
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

fn spec(reference: &[String], floor: Option<Q>, k: Option<usize>) -> QuerySpec {
    let mut spec = QuerySpec::new(reference.to_vec());
    if let Some(floor) = floor {
        spec = spec.with_floor(floor.to_f64()).unwrap();
    }
    if let Some(k) = k {
        spec = spec.with_top_k(k);
    }
    spec
}

#[test]
fn engine_and_shards_answer_what_the_definitions_say() {
    let rng = &mut StdRng::seed_from_u64(0x0dac1e);
    let schemes = [
        SignatureScheme::Weighted,
        SignatureScheme::Skyline,
        SignatureScheme::Dichotomy,
        SignatureScheme::Unweighted,
        SignatureScheme::CombinedUnweighted,
    ];
    let deltas = [Q::new(1, 2), Q::new(7, 10), Q::new(1, 3), Q::new(3, 4)];
    let floors = [Q::new(1, 4), Q::new(2, 5), Q::new(3, 5)];
    let mut d = Departures::default();
    for case in 0..24 {
        let raw: Vec<Vec<String>> = (0..10).map(|_| random_set(rng)).collect();
        let metric = [
            RelatednessMetric::Similarity,
            RelatednessMetric::Containment,
        ][case % 2];
        let alpha = [Q::ZERO, Q::new(1, 2)][case / 2 % 2];
        let delta = deltas[rng.random_range(0..deltas.len())];
        let cfg = EngineConfig {
            metric,
            similarity: SimilarityFunction::Jaccard,
            delta: delta.to_f64(),
            alpha: alpha.to_f64(),
            scheme: schemes[rng.random_range(0..schemes.len())],
            filter: FilterKind::CheckAndNearestNeighbor,
            reduction: rng.random::<bool>(),
        };
        let engine = Engine::new(Collection::build(&raw, cfg.tokenization()), cfg).unwrap();
        let sharded: Vec<ShardedEngine> = [1, 2, 7]
            .iter()
            .map(|&shards| ShardedEngine::build(&raw, cfg, shards).unwrap())
            .collect();
        let references = [
            random_set(rng),
            random_set(rng),
            raw[rng.random_range(0..10usize)].clone(),
        ];
        for reference in &references {
            let exact = Exact {
                scores: (0..raw.len() as u32)
                    .map(|sid| {
                        (
                            sid,
                            relatedness(metric, reference, &raw[sid as usize], alpha),
                        )
                    })
                    .collect(),
            };
            let floor = floors[rng.random_range(0..floors.len())];
            let k = rng.random_range(1..=3usize);
            for (at, k) in [
                (None, None),
                (Some(floor), None),
                (Some(floor), Some(k)),
                (None, Some(k)),
            ] {
                let ctx = format!("case {case} {cfg:?} {reference:?} floor {at:?} k {k:?}");
                let out = engine.execute(&spec(reference, at, k).with_explain(true));
                exact.check(&out.hits, at.unwrap_or(delta), k, &ctx, &mut d);
                check_explained(&out, &ctx);
                for engine in &sharded {
                    let out = engine.execute(&spec(reference, at, k));
                    let ctx = format!("{ctx} shards {}", engine.shard_count());
                    exact.check(&out.hits, at.unwrap_or(delta), k, &ctx, &mut d);
                }
            }
            // At δ, every set the definitions call unrelated, the pass
            // recorded as unrelated too.
            let r = engine.collection().encode_set(reference);
            for (sid, score) in &exact.scores {
                let related = explain_pair(&engine, &r, *sid).verdict == Verdict::Related;
                let exactly = score.cmp(delta) != Ordering::Less;
                assert_eq!(
                    related, exactly,
                    "case {case}: set {sid} at {score:?} against {delta:?}"
                );
            }
        }
    }
    println!(
        "{} hits checked; float departures: {} at the floor, {} in top-k tie order",
        d.hits, d.floor, d.ties
    );
    assert!(d.hits > 500, "{} hits", d.hits);
    assert_eq!(
        (d.floor, d.ties),
        (0, 0),
        "the pinned float departures moved"
    );
}

#[test]
fn table2_exact_values() {
    let (c, _) = silkmoth::collection::paper_example::table2();
    let texts = |set: &silkmoth::SetRecord| -> Vec<String> {
        set.elements.iter().map(|e| e.text.to_string()).collect()
    };
    let r: Vec<String> = ["t1 t2 t3 t6 t8", "t4 t5 t7 t9 t10", "t1 t4 t5 t11 t12"]
        .map(String::from)
        .to_vec();
    let sets: Vec<Vec<String>> = (0..4).map(|sid| texts(c.set(sid))).collect();
    // Example 2: |R ∩̃ S4| = 0.8 + 1 + 3/7 = 78/35, so contain(R, S4) =
    // 26/35 ≈ 0.743 ≥ 0.7, and S1–S3 fall below it.
    let m = matching(&r, &sets[3], Q::ZERO);
    assert_eq!((m.n, m.d), (78, 35));
    let m = Q::new(4, 5).add(Q::new(1, 1)).add(Q::new(3, 7));
    assert_eq!((m.n, m.d), (78, 35));
    let exact = Exact {
        scores: (0..4)
            .map(|sid| {
                (
                    sid,
                    relatedness(
                        RelatednessMetric::Containment,
                        &r,
                        &sets[sid as usize],
                        Q::ZERO,
                    ),
                )
            })
            .collect(),
    };
    let s4 = exact.of(3);
    assert_eq!((s4.n, s4.d), (26, 35));
    let cfg = EngineConfig::full(
        RelatednessMetric::Containment,
        SimilarityFunction::Jaccard,
        0.7,
        0.0,
    );
    let engine = Engine::new(c, cfg).unwrap();
    let out = engine.execute(&spec(&r, None, None).with_explain(true));
    let mut d = Departures::default();
    exact.check(&out.hits, Q::new(7, 10), None, "Table 2", &mut d);
    check_explained(&out, "Table 2");
    assert_eq!(out.hits.iter().map(|h| h.0).collect::<Vec<_>>(), [3]);
    assert_eq!((d.floor, d.ties), (0, 0));
}
