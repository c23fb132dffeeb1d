//! Schema matching (§8.1, application 2).
//!
//! Each web-table schema is a set, each attribute an element (rendered as
//! its bag of values), and each value word a token. RELATED SET DISCOVERY
//! under SET-SIMILARITY with Jaccard finds schemas describing the same
//! kind of table even when their values only partially overlap.
//!
//! Run with: `cargo run --release --example schema_matching`

use silkmoth::{
    Collection, Engine, EngineConfig, RelatednessMetric, SimilarityFunction, Tokenization,
};

fn main() {
    let delta = 0.7;
    let corpus = silkmoth::datagen::webtable_schemas(&silkmoth::SchemaConfig {
        num_sets: 3000,
        seed: 11,
        ..Default::default()
    });
    let collection = Collection::build(&corpus, Tokenization::Whitespace);
    println!("corpus: {}", collection.stats());

    let cfg = EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        delta,
        0.0,
    );
    let engine = Engine::new(collection, cfg).expect("valid configuration");
    let collection = engine.collection();

    let t0 = std::time::Instant::now();
    let out = engine.discover_self_parallel(0);
    let elapsed = t0.elapsed();

    println!(
        "discovery: {} related schema pairs in {:.2?} (δ = {delta})",
        out.pairs.len(),
        elapsed
    );
    println!(
        "pruning: {} candidates → {} after check → {} after NN → {} verified",
        out.stats.candidates, out.stats.after_check, out.stats.after_nn, out.stats.verified
    );
    // Compare against the quadratic baseline's workload: m² pairs.
    let m = collection.len() as u64;
    println!(
        "brute force would verify {} pairs; SilkMoth verified {} ({:.4}%)",
        m * (m - 1) / 2,
        out.stats.verified,
        out.stats.verified as f64 / (m * (m - 1) / 2) as f64 * 100.0
    );
    println!();
    for p in out.pairs.iter().take(3) {
        println!("match ({:.3}):", p.score);
        for sid in [p.r, p.s] {
            let attrs: Vec<&str> = collection
                .set(sid)
                .elements
                .iter()
                .map(|e| e.text.as_ref())
                .collect();
            println!("  schema {sid}: {} attributes", attrs.len());
            for a in attrs.iter().take(2) {
                println!("    [{a}]");
            }
        }
    }
    assert!(!out.pairs.is_empty());
}
