//! Quickstart: the paper's Table 1 scenario.
//!
//! Two address columns from different databases refer to the same
//! entities, but no element matches exactly. Exact-match metrics see
//! nothing; the maximum-matching metric pairs each address with its best
//! counterpart and scores the alignment.
//!
//! Run with: `cargo run --release --example quickstart`

use silkmoth::{
    Collection, Engine, EngineConfig, QuerySpec, RelatednessMetric, SimilarityFunction,
    Tokenization,
};

fn main() {
    // Table 1: two related datasets.
    let location = vec![
        "77 Mass Ave Boston MA",
        "5th St 02115 Seattle WA",
        "77 5th St Chicago IL",
    ];
    let address = vec![
        "77 Massachusetts Avenue Boston MA",
        "Fifth Street Seattle MA 02115",
        "77 Fifth Street Chicago IL",
        "One Kendall Square Cambridge MA",
    ];
    let unrelated = vec!["apples oranges pears", "red green blue"];

    // The searchable collection: Address plus a decoy column. The engine
    // takes ownership (an Arc<Collection> would share it instead).
    let corpus = vec![address.clone(), unrelated];
    let collection = Collection::build(&corpus, Tokenization::Whitespace);

    // SET-CONTAINMENT with Jaccard, α = 0.2 (Example 1), δ = 0.3.
    let cfg = EngineConfig::full(
        RelatednessMetric::Containment,
        SimilarityFunction::Jaccard,
        0.3,
        0.2,
    );
    let engine = Engine::new(collection, cfg).expect("valid configuration");
    let collection = engine.collection();

    // Search: which columns approximately contain Location? The query
    // is a spec over the reference's raw strings; the engine encodes it
    // against its own dictionary.
    let spec = QuerySpec::new(location.iter().map(|e| e.to_string()).collect());
    let out = engine.execute(&spec);

    println!("reference column (Location):");
    for e in &location {
        println!("    {e}");
    }
    println!();
    println!(
        "related columns under contain(R,S) ≥ {} with φ = Jaccard, α = {}:",
        engine.config().delta,
        engine.config().alpha
    );
    for &(sid, score) in &out.hits {
        println!("  set {sid} — containment score {score:.3}");
        for e in collection.set(sid).elements.iter() {
            println!("    {}", e.text);
        }
    }
    println!();
    println!(
        "pass stats: {} candidates → {} after check filter → {} after NN filter → {} verified",
        out.stats.candidates, out.stats.after_check, out.stats.after_nn, out.stats.verified
    );
    assert_eq!(out.hits.len(), 1, "only the Address column is related");
}
