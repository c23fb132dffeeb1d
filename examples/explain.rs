//! Why was this pair (not) matched? — the explain API on the paper's own
//! running example (Table 2, Examples 8–9). Each explanation is what the
//! search pass recorded while it ran, restricted to one stored set.
//!
//! Run with: `cargo run --release --example explain`

use silkmoth::core::{explain_pair, Verdict};
use silkmoth::{Engine, EngineConfig, FilterKind, RelatednessMetric, SignatureScheme};
use silkmoth::{QuerySpec, SimilarityFunction};

fn main() {
    // Table 2: reference R (the Location column) and S = {S1..S4}.
    let (collection, r) = silkmoth::collection::paper_example::table2();
    let cfg = EngineConfig {
        metric: RelatednessMetric::Containment,
        similarity: SimilarityFunction::Jaccard,
        delta: 0.7,
        alpha: 0.0,
        scheme: SignatureScheme::Weighted,
        filter: FilterKind::CheckAndNearestNeighbor,
        reduction: false,
    };
    let engine = Engine::new(collection, cfg).expect("a valid configuration");

    let explained: Vec<_> = (0..4).map(|sid| explain_pair(&engine, &r, sid)).collect();
    for (sid, ex) in explained.iter().enumerate() {
        println!(
            "──────────────────────────── S{} ────────────────────────────",
            sid + 1
        );
        print!("{ex}");
        let verdict = match ex.verdict {
            Verdict::NotCandidate => "never a candidate (no shared signature token)",
            Verdict::SizeCheck => "dropped by the size check",
            Verdict::CheckFilter => "dropped by the check filter (Example 8)",
            Verdict::CheapBound => "dropped at the cheap bound, before any NN search",
            Verdict::NnFilter => "dropped by the nearest-neighbor filter",
            Verdict::ColumnBound => "refuted by the column bound",
            Verdict::Unrelated => "verified, below δ",
            Verdict::Related => "verified related (Example 2)",
        };
        println!("→ {verdict}\n");
    }

    // The pass's story, checked: S1 is no candidate, S2 fails the check
    // filter, S3's cheap bound 5/6 + 0.6 + 0.6 is below need 2.1, and S4
    // is related at 0.8 + 1 + 3/7 — the score the search itself returns.
    let close = |a: Option<f64>, b: f64| a.is_some_and(|a| (a - b).abs() < 1e-9);
    let [s1, s2, s3, s4] = &explained[..] else {
        unreachable!("four sets explained")
    };
    assert_eq!(s1.verdict, Verdict::NotCandidate);
    assert_eq!(s2.verdict, Verdict::CheckFilter);
    assert_eq!(s3.verdict, Verdict::CheapBound);
    assert!(close(s3.cheap_bound, 5.0 / 6.0 + 0.6 + 0.6) && close(s3.need, 2.1));
    assert_eq!(s3.nn_upper_bound, None);
    assert_eq!(s4.verdict, Verdict::Related);
    assert!(close(s4.matching_score, 0.8 + 1.0 + 3.0 / 7.0));
    let spec = QuerySpec::new(r.elements.iter().map(|e| e.text.to_string()).collect());
    let hits = engine.execute(&spec).hits;
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].0, 3);
    assert_eq!(s4.relatedness.map(f64::to_bits), Some(hits[0].1.to_bits()));
    println!("explanations agree with the search: only S4 is related");
}
