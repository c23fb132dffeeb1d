//! Approximate string matching (§8.1, application 1).
//!
//! Each publication title is a set, each word an element, and tokens are
//! q-grams. RELATED SET DISCOVERY under SET-SIMILARITY with edit
//! similarity finds near-duplicate titles despite typos — the FastJoin
//! problem, solved exactly and faster.
//!
//! Run with: `cargo run --release --example string_matching`

use silkmoth::{
    Collection, Engine, EngineConfig, RelatednessMetric, SimilarityFunction, Tokenization,
};

fn main() {
    let alpha = 0.8;
    // Footnote 11: the largest valid q for α = 0.8 is 3.
    let q = silkmoth::SimilarityFunction::max_q_for_alpha(alpha).expect("feasible q");
    let delta = 0.8;

    // A synthetic DBLP-like corpus with planted near-duplicate clusters.
    let corpus = silkmoth::datagen::dblp_titles(&silkmoth::DblpConfig {
        num_sets: 1500,
        seed: 7,
        ..Default::default()
    });
    let collection = Collection::build(&corpus, Tokenization::QGram { q });
    println!("corpus: {}", collection.stats());

    let cfg = EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Eds { q },
        delta,
        alpha,
    );
    let engine = Engine::new(collection, cfg).expect("valid configuration");
    let collection = engine.collection();

    let t0 = std::time::Instant::now();
    let out = engine.discover_self_parallel(0);
    let elapsed = t0.elapsed();

    println!(
        "discovery: {} related title pairs in {:.2?} (δ = {delta}, α = {alpha}, q = {q})",
        out.pairs.len(),
        elapsed
    );
    println!(
        "stats: {} candidates → {} after check → {} after NN → {} verified; {} φ evals",
        out.stats.candidates,
        out.stats.after_check,
        out.stats.after_nn,
        out.stats.verified,
        out.stats.sim_evals
    );
    println!();
    println!("sample matches:");
    for p in out.pairs.iter().take(5) {
        let title = |sid: u32| {
            collection
                .set(sid)
                .elements
                .iter()
                .map(|e| e.text.as_ref())
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("  {:.3}  \"{}\"", p.score, title(p.r));
        println!("         \"{}\"", title(p.s));
    }
    assert!(!out.pairs.is_empty(), "planted clusters must be found");
}
