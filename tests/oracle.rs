//! An oracle that shares no code with the engine: related-set search
//! from the definitions alone, in exact integer arithmetic.
//!
//! * φ is Jaccard over two elements' distinct whitespace tokens, kept as
//!   the integer pair (|x ∩ y|, |x ∪ y|), or Eds over their characters,
//!   the exact rational (|x| + |y| − LD) / (|x| + |y| + LD) from a
//!   textbook integer Levenshtein distance LD; φα clamps it to 0 below α
//!   (§2.1), an integer inequality.
//! * The maximum matching score is the best total φα over every injection
//!   of the smaller set into the larger one — exhaustive, over sets of at
//!   most six elements — summed as an exact `i128` rational.
//! * Relatedness is SET-SIMILARITY, m / (|R| + |S| − m), or
//!   SET-CONTAINMENT, m / |R| (Definitions 1 and 2), compared with δ
//!   exactly.
//!
//! It runs against `Engine::execute` (floor and top-k) and
//! `ShardedEngine::execute` at 1, 2 and 7 shards over generated small
//! collections, on adversarial ones — floors equal to a hit's exact
//! score, top-k cuts inside a tie, Eds pairs exactly at α — and on the
//! paper's Table 2. Membership at the floor must
//! agree exactly. A disagreement whose exact score lies within `WINDOW` of
//! the floor is a **float departure** — the engine decides membership in
//! f64, with a tolerance — and is printed and counted; so is a top-k
//! answer that breaks an exact tie by f64 bits instead of by id. Both
//! counts are pinned. Every hit's explanation must say related, with the
//! hit's score bit for bit.
//!
//! The Eds leg meets one known wrong answer (ROADMAP item 9): for α > 0
//! the engine bounds LD by ⌊(1 − α)/(1 + α) · (|x| + |y|)⌋ computed in
//! f64, which can floor one short for a pair whose Eds is exactly α, so
//! that pair's φ is 0. An answer that disagrees with the definitions but
//! agrees exactly with them under that one defect is printed and counted
//! as an **item 9 departure**, and the count is pinned; every other
//! disagreement fails.

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
fn jaccard(x: &str, y: &str, alpha: Q) -> Q {
    let x: BTreeSet<&str> = x.split_whitespace().collect();
    let y: BTreeSet<&str> = y.split_whitespace().collect();
    let inter = x.intersection(&y).count() as i128;
    let union = x.union(&y).count() as i128;
    clamp(Q::new(inter, union), alpha)
}

fn clamp(sim: Q, alpha: Q) -> Q {
    if sim.cmp(alpha) == Ordering::Less {
        Q::ZERO
    } else {
        sim
    }
}

/// The Levenshtein distance between two character strings: the textbook
/// dynamic program over unit-cost insertions, deletions and
/// substitutions.
fn levenshtein(x: &[char], y: &[char]) -> usize {
    let mut prev: Vec<usize> = (0..=y.len()).collect();
    for (i, &a) in x.iter().enumerate() {
        let mut row = vec![i + 1; y.len() + 1];
        for (j, &b) in y.iter().enumerate() {
            let substitute = prev[j] + usize::from(a != b);
            row[j + 1] = substitute.min(prev[j + 1] + 1).min(row[j] + 1);
        }
        prev = row;
    }
    prev[y.len()]
}

/// Eds of two non-empty elements, exactly, with `|x| + |y|` and LD.
fn eds(x: &str, y: &str) -> (Q, usize, usize) {
    let (x, y): (Vec<char>, Vec<char>) = (x.chars().collect(), y.chars().collect());
    let (n, ld) = (x.len() + y.len(), levenshtein(&x, &y));
    (Q::new((n - ld) as i128, (n + ld) as i128), n, ld)
}

/// φα of two elements under Eds: the definition.
fn edit(x: &str, y: &str, alpha: Q) -> Q {
    clamp(eds(x, y).0, alpha)
}

/// φα under Eds as the engine computes it while item 9 stands: 0 where
/// LD passes the bound ⌊(1 − α)/(1 + α) · (|x| + |y|)⌋ taken in f64.
fn edit_with_item9(x: &str, y: &str, alpha: Q) -> Q {
    let (sim, n, ld) = eds(x, y);
    let a = alpha.to_f64();
    if a > 0.0 && (((1.0 - a) / (1.0 + a) * n as f64).floor() as usize) < ld {
        return Q::ZERO;
    }
    clamp(sim, alpha)
}

/// The maximum matching score: the best total φα over every injection of
/// the smaller set into the larger (φα is symmetric, and with weights ≥ 0
/// a best matching covers the smaller side).
fn matching(r: &[String], s: &[String], phi: &dyn Fn(&str, &str) -> Q) -> Q {
    let (rows, cols) = if r.len() <= s.len() { (r, s) } else { (s, r) };
    let w: Vec<Vec<Q>> = rows
        .iter()
        .map(|x| cols.iter().map(|y| phi(x, y)).collect())
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
fn relatedness(
    metric: RelatednessMetric,
    r: &[String],
    s: &[String],
    phi: &dyn Fn(&str, &str) -> Q,
) -> Q {
    let m = matching(r, s, phi);
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
    /// Answers that are the definitions' under item 9 and not without.
    item9: usize,
    /// Hits checked.
    hits: usize,
    /// What each departure was, to print with its context.
    notes: Vec<String>,
}

impl Departures {
    fn add(&mut self, other: Departures, ctx: &str) {
        for note in &other.notes {
            println!("{note}: {ctx}");
        }
        self.floor += other.floor;
        self.ties += other.ties;
        self.item9 += other.item9;
        self.hits += other.hits;
    }
}

impl Exact {
    fn new(
        metric: RelatednessMetric,
        reference: &[String],
        raw: &[Vec<String>],
        phi: &dyn Fn(&str, &str) -> Q,
    ) -> Exact {
        let scores = (0..raw.len() as u32).map(|sid| {
            let score = relatedness(metric, reference, &raw[sid as usize], phi);
            (sid, score)
        });
        Exact {
            scores: scores.collect(),
        }
    }

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

    /// Checks one engine answer against the exact one: the float
    /// departures it shows, or the first disagreement that is none.
    fn check(&self, hits: &[(u32, f64)], floor: Q, k: Option<usize>) -> Result<Departures, String> {
        let mut d = Departures {
            hits: hits.len(),
            ..Departures::default()
        };
        for &(sid, score) in hits {
            let exact = self.of(sid).to_f64();
            if (score - exact).abs() > 1e-12 {
                return Err(format!("set {sid} scored {score}, exactly {exact}"));
            }
        }
        let want = self.answer(floor, k);
        let got_ids: Vec<u32> = hits.iter().map(|h| h.0).collect();
        let want_ids: Vec<u32> = want.iter().map(|w| w.0).collect();
        if got_ids == want_ids {
            return Ok(d);
        }
        if k.is_none() {
            let got: BTreeSet<u32> = got_ids.iter().copied().collect();
            let want: BTreeSet<u32> = want_ids.iter().copied().collect();
            for &sid in got.symmetric_difference(&want) {
                let exact = self.of(sid);
                if (exact.to_f64() - floor.to_f64()).abs() > WINDOW {
                    return Err(format!("set {sid} at {exact:?} against floor {floor:?}"));
                }
                d.notes.push(format!(
                    "float departure at the floor: set {sid} at {exact:?}"
                ));
                d.floor += 1;
            }
            return Ok(d);
        }
        // The same exact scores in the same order; only the ids of a tie
        // may differ.
        let got: Vec<Q> = got_ids.iter().map(|&sid| self.of(sid)).collect();
        let tie_only = got.len() == want.len()
            && (got.iter().zip(&want)).all(|(g, w)| g.cmp(w.1) == Ordering::Equal);
        if !tie_only {
            return Err(format!("{got_ids:?}, exactly {want_ids:?}"));
        }
        d.notes.push(format!(
            "float tie order: {got_ids:?}, exactly {want_ids:?}"
        ));
        d.ties += 1;
        Ok(d)
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

/// A set of one to six strings, each one of `words` after zero to two
/// random single-character edits over `a`…`d` — near-duplicates, the
/// shape string matching meets.
fn random_string_set(rng: &mut StdRng, words: &[Vec<char>]) -> Vec<String> {
    (0..rng.random_range(1..=6usize))
        .map(|_| {
            let mut word = words[rng.random_range(0..words.len())].clone();
            for _ in 0..rng.random_range(0..=2usize) {
                let letter = ['a', 'b', 'c', 'd'][rng.random_range(0..4usize)];
                let at = rng.random_range(0..word.len());
                match rng.random_range(0..3u8) {
                    0 => word.insert(at, letter),
                    1 if word.len() > 1 => drop(word.remove(at)),
                    _ => word[at] = letter,
                }
            }
            word.into_iter().collect()
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

/// What one reference's answers are checked against: the definitions at
/// δ and, for Eds at α > 0, the definitions under item 9.
struct Oracle {
    exact: Exact,
    item9: Option<Exact>,
    delta: Q,
}

impl Oracle {
    /// Judges one engine answer: the definitions', or else, when item
    /// 9 gives it exactly, an item 9 departure, or else the definitions'
    /// up to float departures.
    fn judge(
        &self,
        hits: &[(u32, f64)],
        floor: Q,
        k: Option<usize>,
        ctx: &str,
        d: &mut Departures,
    ) {
        let clean = |d: &Departures| d.floor + d.ties == 0;
        let judged = match (self.exact.check(hits, floor, k), &self.item9) {
            (Ok(exact), _) if clean(&exact) => Ok(exact),
            (exact, Some(model)) => match model.check(hits, floor, k) {
                Ok(mut departed) if clean(&departed) => {
                    departed.notes.push(format!("item 9 departure: {hits:?}"));
                    departed.item9 += 1;
                    Ok(departed)
                }
                _ => exact,
            },
            (exact, None) => exact,
        };
        d.add(judged.unwrap_or_else(|why| panic!("{ctx}: {why}")), ctx);
    }
}

/// The engines under test over one collection: the engine itself, asked
/// with explanations, and the sharded engine at 1, 2 and 7 shards.
struct Engines {
    engine: Engine,
    sharded: Vec<ShardedEngine>,
}

impl Engines {
    fn build(raw: &[Vec<String>], cfg: EngineConfig) -> Engines {
        Engines {
            engine: Engine::new(Collection::build(raw, cfg.tokenization()), cfg).unwrap(),
            sharded: [1, 2, 7]
                .iter()
                .map(|&shards| ShardedEngine::build(raw, cfg, shards).unwrap())
                .collect(),
        }
    }

    /// Asks `reference` at δ and at `floor`, with and without top-`k`,
    /// of every engine; then, at δ, the pass's verdict on every set.
    fn ask(
        &self,
        reference: &[String],
        oracle: &Oracle,
        floor: Q,
        k: usize,
        ctx: &str,
        d: &mut Departures,
    ) {
        for (at, k) in [
            (None, None),
            (Some(floor), None),
            (Some(floor), Some(k)),
            (None, Some(k)),
        ] {
            let ctx = format!("{ctx} floor {at:?} k {k:?}");
            let floor = at.unwrap_or(oracle.delta);
            let out = self
                .engine
                .execute(&spec(reference, at, k).with_explain(true));
            oracle.judge(&out.hits, floor, k, &ctx, d);
            check_explained(&out, &ctx);
            for engine in &self.sharded {
                let out = engine.execute(&spec(reference, at, k));
                let ctx = format!("{ctx} shards {}", engine.shard_count());
                oracle.judge(&out.hits, floor, k, &ctx, d);
            }
        }
        // At δ, every set the definitions call unrelated, the pass
        // recorded as unrelated too.
        let r = self.engine.collection().encode_set(reference);
        let related = |exact: &Exact, sid: u32| exact.of(sid).cmp(oracle.delta) != Ordering::Less;
        for (sid, score) in &oracle.exact.scores {
            let verdict = explain_pair(&self.engine, &r, *sid).verdict == Verdict::Related;
            if verdict == related(&oracle.exact, *sid) {
                continue;
            }
            let departed = (oracle.item9.as_ref()).is_some_and(|m| related(m, *sid) == verdict);
            assert!(
                departed,
                "{ctx}: set {sid} at {score:?} against {:?}",
                oracle.delta
            );
            let note = format!("item 9 departure: the pass calls set {sid} at {score:?} unrelated");
            let departure = Departures {
                item9: 1,
                notes: vec![note],
                ..Departures::default()
            };
            d.add(departure, ctx);
        }
    }
}

const SCHEMES: [SignatureScheme; 5] = [
    SignatureScheme::Weighted,
    SignatureScheme::Skyline,
    SignatureScheme::Dichotomy,
    SignatureScheme::Unweighted,
    SignatureScheme::CombinedUnweighted,
];
const DELTAS: [Q; 4] = [
    Q { n: 1, d: 2 },
    Q { n: 7, d: 10 },
    Q { n: 1, d: 3 },
    Q { n: 3, d: 4 },
];
const FLOORS: [Q; 3] = [Q { n: 1, d: 4 }, Q { n: 2, d: 5 }, Q { n: 3, d: 5 }];

#[test]
fn engine_and_shards_answer_what_the_definitions_say() {
    let rng = &mut StdRng::seed_from_u64(0x0dac1e);
    let mut d = Departures::default();
    for case in 0..36 {
        let raw: Vec<Vec<String>> = (0..10).map(|_| random_set(rng)).collect();
        let metric = [
            RelatednessMetric::Similarity,
            RelatednessMetric::Containment,
        ][case % 2];
        // α = 0 and 1/2 by turns, then 7/10, where an element of two or
        // three tokens is capped at ⌊3|r|/10⌋ + 1 = 1 of them and the
        // nearest-neighbor filter probes no further than that.
        let alpha = match case {
            0..24 => [Q::ZERO, Q::new(1, 2)][case / 2 % 2],
            _ => Q::new(7, 10),
        };
        let delta = DELTAS[rng.random_range(0..DELTAS.len())];
        let cfg = EngineConfig {
            metric,
            similarity: SimilarityFunction::Jaccard,
            delta: delta.to_f64(),
            alpha: alpha.to_f64(),
            scheme: SCHEMES[rng.random_range(0..SCHEMES.len())],
            filter: FilterKind::CheckAndNearestNeighbor,
            reduction: rng.random::<bool>(),
        };
        let engines = Engines::build(&raw, cfg);
        let references = [
            random_set(rng),
            random_set(rng),
            raw[rng.random_range(0..10usize)].clone(),
        ];
        for reference in &references {
            let oracle = Oracle {
                exact: Exact::new(metric, reference, &raw, &|x, y| jaccard(x, y, alpha)),
                item9: None,
                delta,
            };
            let floor = FLOORS[rng.random_range(0..FLOORS.len())];
            let k = rng.random_range(1..=3usize);
            let ctx = format!("case {case} {cfg:?} {reference:?}");
            engines.ask(reference, &oracle, floor, k, &ctx, &mut d);
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

/// The Eds leg: q ∈ {2, 3} and α ∈ {0, 1/2, 4/5, 9/10}, each over four
/// generated collections of near-duplicate strings. The signature scheme
/// is drawn from those valid at (q, α): the unweighted two need
/// α > q/(q + 1) (footnote 11).
#[test]
fn eds_answers_are_the_definitions_but_for_item_9() {
    let rng = &mut StdRng::seed_from_u64(0xed5_0dac);
    let mut d = Departures::default();
    for q in [2usize, 3] {
        for alpha in [Q::ZERO, Q::new(1, 2), Q::new(4, 5), Q::new(9, 10)] {
            let schemes = if alpha.cmp(Q::new(q as i128, q as i128 + 1)) == Ordering::Greater {
                &SCHEMES[..]
            } else {
                &SCHEMES[..3]
            };
            for case in 0..4 {
                let words: Vec<Vec<char>> = (0..4)
                    .map(|_| {
                        let len = rng.random_range(3..=9usize);
                        (0..len)
                            .map(|_| ['a', 'b', 'c', 'd'][rng.random_range(0..4usize)])
                            .collect()
                    })
                    .collect();
                let raw: Vec<Vec<String>> =
                    (0..10).map(|_| random_string_set(rng, &words)).collect();
                let metric = [
                    RelatednessMetric::Similarity,
                    RelatednessMetric::Containment,
                ][case % 2];
                let delta = DELTAS[rng.random_range(0..DELTAS.len())];
                let cfg = EngineConfig {
                    metric,
                    similarity: SimilarityFunction::Eds { q },
                    delta: delta.to_f64(),
                    alpha: alpha.to_f64(),
                    scheme: schemes[rng.random_range(0..schemes.len())],
                    filter: FilterKind::CheckAndNearestNeighbor,
                    reduction: rng.random::<bool>(),
                };
                let engines = Engines::build(&raw, cfg);
                let references = [
                    random_string_set(rng, &words),
                    random_string_set(rng, &words),
                    raw[rng.random_range(0..10usize)].clone(),
                ];
                for reference in &references {
                    let oracle = Oracle {
                        exact: Exact::new(metric, reference, &raw, &|x, y| edit(x, y, alpha)),
                        item9: Some(Exact::new(metric, reference, &raw, &|x, y| {
                            edit_with_item9(x, y, alpha)
                        })),
                        delta,
                    };
                    let floor = FLOORS[rng.random_range(0..FLOORS.len())];
                    let k = rng.random_range(1..=3usize);
                    let ctx = format!("q {q} α {alpha:?} case {case} {cfg:?} {reference:?}");
                    engines.ask(reference, &oracle, floor, k, &ctx, &mut d);
                }
            }
        }
    }
    println!(
        "{} hits checked; float departures: {} at the floor, {} in top-k tie order; \
         item 9 departures: {}",
        d.hits, d.floor, d.ties, d.item9
    );
    assert!(d.hits > 500, "{} hits", d.hits);
    // Item 9's fix drives its count to 0.
    assert_eq!(
        (d.floor, d.ties, d.item9),
        (0, 0, 100),
        "the pinned departures moved"
    );
}

/// Floors that a hit's exact score equals, and top-k cuts that fall
/// inside a tie: Jaccard collections in which three sets reappear with
/// their elements reversed, so ties at the k-th score are certain, asked
/// at every distinct positive exact score as the floor and, at each, the
/// first k whose cut splits a tie.
#[test]
fn scores_on_the_floor_and_ties_at_the_kth_score() {
    let rng = &mut StdRng::seed_from_u64(0xf1_00f);
    let mut d = Departures::default();
    let (mut on_floor, mut split_ties) = (0, 0);
    for case in 0..8 {
        let mut raw: Vec<Vec<String>> = (0..10).map(|_| random_set(rng)).collect();
        for _ in 0..3 {
            let mut copy = raw[rng.random_range(0..10usize)].clone();
            copy.reverse();
            raw.push(copy);
        }
        let metric = [
            RelatednessMetric::Similarity,
            RelatednessMetric::Containment,
        ][case % 2];
        let delta = DELTAS[rng.random_range(0..DELTAS.len())];
        let cfg = EngineConfig {
            metric,
            similarity: SimilarityFunction::Jaccard,
            delta: delta.to_f64(),
            alpha: 0.0,
            scheme: SCHEMES[rng.random_range(0..SCHEMES.len())],
            filter: FilterKind::CheckAndNearestNeighbor,
            reduction: rng.random::<bool>(),
        };
        let engines = Engines::build(&raw, cfg);
        for reference in [random_set(rng), raw[rng.random_range(0..raw.len())].clone()] {
            let oracle = Oracle {
                exact: Exact::new(metric, &reference, &raw, &|x, y| jaccard(x, y, Q::ZERO)),
                item9: None,
                delta,
            };
            let mut floors: Vec<Q> = Vec::new();
            for &(_, score) in &oracle.exact.scores {
                if score.n > 0 && floors.iter().all(|f| f.cmp(score) != Ordering::Equal) {
                    floors.push(score);
                }
            }
            for floor in floors {
                let ranked = oracle.exact.answer(floor, Some(raw.len()));
                let tie = (1..ranked.len()).find(|&k| ranked[k - 1].1.cmp(ranked[k].1).is_eq());
                on_floor += 1;
                split_ties += usize::from(tie.is_some());
                let k = tie.unwrap_or(1);
                let ctx = format!("case {case} {cfg:?} {reference:?} floor {floor:?}");
                engines.ask(&reference, &oracle, floor, k, &ctx, &mut d);
            }
        }
    }
    println!(
        "{on_floor} floors on a score, {split_ties} cuts inside a tie, {} hits checked; \
         float departures: {} at the floor, {} in top-k tie order",
        d.hits, d.floor, d.ties
    );
    assert!(
        on_floor > 50 && split_ties > 20,
        "{on_floor} / {split_ties}"
    );
    assert_eq!(
        (d.floor, d.ties),
        (0, 0),
        "the pinned float departures moved"
    );
}

/// A string of `len` letters over `a`…`d` and the same string with `k`
/// `z`s inserted: no `z` can be matched, so LD is exactly `k`.
fn exact_alpha_pair(rng: &mut StdRng, len: usize, k: usize) -> (String, String) {
    let x: Vec<char> = (0..len)
        .map(|_| ['a', 'b', 'c', 'd'][rng.random_range(0..4usize)])
        .collect();
    let mut y = x.clone();
    for _ in 0..k {
        y.insert(rng.random_range(0..=y.len()), 'z');
    }
    (x.into_iter().collect(), y.into_iter().collect())
}

/// Item 9's trigger: element pairs whose Eds is exactly α, with
/// |x| + |y| = 9k at α = 4/5 and 19k at α = 9/10 (LD = k), where the
/// f64 bound on LD can floor to k − 1. Each collection's elements are
/// such pairs for every k the lengths allow here, in both directions.
#[test]
fn eds_pairs_exactly_at_alpha_are_item_9_departures() {
    let rng = &mut StdRng::seed_from_u64(0xa1_f4a);
    let mut d = Departures::default();
    for (alpha, per_ld, ks) in [(Q::new(4, 5), 9, 1..=3usize), (Q::new(9, 10), 19, 1..=2)] {
        for q in [2usize, 3] {
            for case in 0..4 {
                let mut pool = Vec::new();
                for k in ks.clone() {
                    // |x| + |y| = 2·len + k = per_ld · k.
                    let (x, y) = exact_alpha_pair(rng, (per_ld - 1) / 2 * k, k);
                    let (sim, n, ld) = eds(&x, &y);
                    assert!(sim.cmp(alpha).is_eq() && n == per_ld * k && ld == k);
                    pool.extend([x, y]);
                }
                let pick = |rng: &mut StdRng| -> Vec<String> {
                    (0..rng.random_range(1..=4usize))
                        .map(|_| pool[rng.random_range(0..pool.len())].clone())
                        .collect()
                };
                let raw: Vec<Vec<String>> = (0..10).map(|_| pick(rng)).collect();
                let metric = [
                    RelatednessMetric::Similarity,
                    RelatednessMetric::Containment,
                ][case % 2];
                let delta = DELTAS[rng.random_range(0..DELTAS.len())];
                let cfg = EngineConfig {
                    metric,
                    similarity: SimilarityFunction::Eds { q },
                    delta: delta.to_f64(),
                    alpha: alpha.to_f64(),
                    scheme: SCHEMES[rng.random_range(0..SCHEMES.len())],
                    filter: FilterKind::CheckAndNearestNeighbor,
                    reduction: rng.random::<bool>(),
                };
                let engines = Engines::build(&raw, cfg);
                for reference in [pick(rng), pick(rng)] {
                    let oracle = Oracle {
                        exact: Exact::new(metric, &reference, &raw, &|x, y| edit(x, y, alpha)),
                        item9: Some(Exact::new(metric, &reference, &raw, &|x, y| {
                            edit_with_item9(x, y, alpha)
                        })),
                        delta,
                    };
                    let floor = FLOORS[rng.random_range(0..FLOORS.len())];
                    let k = rng.random_range(1..=3usize);
                    let ctx = format!("q {q} α {alpha:?} case {case} {cfg:?} {reference:?}");
                    engines.ask(&reference, &oracle, floor, k, &ctx, &mut d);
                }
            }
        }
    }
    println!(
        "{} hits checked; float departures: {} at the floor, {} in top-k tie order; \
         item 9 departures: {}",
        d.hits, d.floor, d.ties, d.item9
    );
    assert!(d.hits > 100, "{} hits", d.hits);
    // Item 9's fix drives its count to 0.
    assert_eq!(
        (d.floor, d.ties, d.item9),
        (0, 0, 317),
        "the pinned departures moved"
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
    let m = matching(&r, &sets[3], &|x, y| jaccard(x, y, Q::ZERO));
    assert_eq!((m.n, m.d), (78, 35));
    let m = Q::new(4, 5).add(Q::new(1, 1)).add(Q::new(3, 7));
    assert_eq!((m.n, m.d), (78, 35));
    let exact = Exact::new(RelatednessMetric::Containment, &r, &sets, &|x, y| {
        jaccard(x, y, Q::ZERO)
    });
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
    let d = exact.check(&out.hits, Q::new(7, 10), None).unwrap();
    check_explained(&out, "Table 2");
    assert_eq!(out.hits.iter().map(|h| h.0).collect::<Vec<_>>(), [3]);
    assert_eq!((d.floor, d.ties), (0, 0));
}
