//! Approximate inclusion dependency discovery (§8.1, application 3).
//!
//! Each column is a set, each cell value an element, each word a token.
//! RELATED SET SEARCH under SET-CONTAINMENT answers: "which columns in
//! this data lake approximately contain my column?" — i.e. which columns
//! are joinable with it despite dirty values.
//!
//! Run with: `cargo run --release --example inclusion_dependency`

use silkmoth::{
    Collection, Engine, EngineConfig, QuerySpec, RelatednessMetric, SimilarityFunction,
    Tokenization,
};

fn main() {
    let corpus = silkmoth::datagen::webtable_columns(&silkmoth::ColumnsConfig {
        num_sets: 5000,
        seed: 13,
        ..Default::default()
    });
    let collection = Collection::build(&corpus, Tokenization::Whitespace);
    println!("data lake: {}", collection.stats());

    let cfg = EngineConfig::full(
        RelatednessMetric::Containment,
        SimilarityFunction::Jaccard,
        0.7,
        0.5,
    );
    let engine = Engine::new(collection, cfg).expect("valid configuration");
    let collection = engine.collection();

    // 50 random reference columns with enough distinct values (§8.1 uses
    // 1000 out of 500K; scaled down proportionally), one spec each. The
    // whole batch fans out across all cores; output is identical to
    // serial.
    let ref_ids = silkmoth::datagen::pick_references(&corpus, 50, 4, 17);
    let specs: Vec<QuerySpec> = ref_ids
        .iter()
        .map(|&rid| QuerySpec::new(corpus[rid].clone()))
        .collect();
    let t0 = std::time::Instant::now();
    let outputs = engine.execute_batch(&specs, 0);
    let mut total_hits = 0usize;
    let mut example: Option<(usize, u32, f64)> = None;
    for (&rid, out) in ref_ids.iter().zip(&outputs) {
        for &(sid, score) in &out.hits {
            if sid as usize != rid {
                total_hits += 1;
                example.get_or_insert((rid, sid, score));
            }
        }
    }
    let elapsed = t0.elapsed();

    println!(
        "searched {} reference columns in {:.2?}: {} approximate inclusion dependencies",
        ref_ids.len(),
        elapsed,
        total_hits
    );
    if let Some((rid, sid, score)) = example {
        println!();
        println!("example: column {rid} ⊑ column {sid} (containment {score:.3})");
        let show = |id: u32, label: &str| {
            let vals: Vec<&str> = collection
                .set(id)
                .elements
                .iter()
                .take(5)
                .map(|e| e.text.as_ref())
                .collect();
            println!(
                "  {label} ({} values): {:?} …",
                collection.set(id).len(),
                vals
            );
        };
        show(rid as u32, "contained");
        show(sid, "container");
    }
    assert!(total_hits > 0, "planted containment pairs must be found");
}
