//! Integration tests for the library extensions beyond the paper:
//! top-k search, corpus serialization, the sparse verification path, and
//! the command-line tool.

use std::sync::Arc;

use silkmoth::{
    Collection, Engine, EngineConfig, QuerySpec, RelatednessMetric, SetRecord, SimilarityFunction,
    Tokenization,
};

/// The top-`k` query for `r`'s element texts at `floor`.
fn top_k_spec(r: &SetRecord, k: usize, floor: f64) -> QuerySpec {
    QuerySpec::new(r.elements.iter().map(|e| e.text.to_string()).collect())
        .with_top_k(k)
        .with_floor(floor)
        .unwrap()
}

fn schema_collection(n: usize) -> Arc<Collection> {
    let corpus = silkmoth::datagen::webtable_schemas(&silkmoth::SchemaConfig {
        num_sets: n,
        ..Default::default()
    });
    Arc::new(Collection::build(&corpus, Tokenization::Whitespace))
}

#[test]
fn topk_matches_ranked_brute_force() {
    let collection = schema_collection(120);
    let cfg = EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.9, // engine δ is irrelevant; top-k uses the floor
        0.0,
    );
    let engine = Engine::new(collection.clone(), cfg).unwrap();
    let floor = 0.3;
    for rid in [0u32, 7, 33] {
        let r = collection.set(rid);
        let got = engine.execute(&top_k_spec(r, 5, floor)).hits;
        // Brute-force ranking at the same floor.
        let mut cfg_floor = cfg;
        cfg_floor.delta = floor;
        let mut want = silkmoth::brute::search(r, &collection, &cfg_floor);
        want.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        want.truncate(5);
        assert_eq!(got.len(), want.len(), "rid={rid}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.0, w.0, "rid={rid}");
            assert!((g.1 - w.1).abs() < 1e-9);
        }
        // Scores are non-increasing.
        assert!(got.windows(2).all(|w| w[0].1 >= w[1].1 - 1e-12));
    }
}

#[test]
fn topk_zero_k_and_huge_k() {
    let collection = schema_collection(40);
    let cfg = EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.7,
        0.0,
    );
    let engine = Engine::new(collection.clone(), cfg).unwrap();
    let r = collection.set(0);
    assert!(engine.execute(&top_k_spec(r, 0, 0.3)).hits.is_empty());
    let all = engine.execute(&top_k_spec(r, usize::MAX, 0.3));
    let mut cfg_floor = cfg;
    cfg_floor.delta = 0.3;
    assert_eq!(
        all.hits.len(),
        silkmoth::brute::search(r, &collection, &cfg_floor).len()
    );
}

#[test]
fn codec_roundtrip_preserves_discovery_results() {
    let collection = schema_collection(100);
    let bytes = silkmoth::collection::codec::encode(&collection);
    let restored = silkmoth::collection::codec::decode(&bytes).unwrap();
    let cfg = EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.7,
        0.25,
    );
    let a = Engine::new(collection.clone(), cfg)
        .unwrap()
        .discover_self_parallel(1);
    let b = Engine::new(restored, cfg)
        .unwrap()
        .discover_self_parallel(1);
    assert_eq!(a.pairs.len(), b.pairs.len());
    for (x, y) in a.pairs.iter().zip(&b.pairs) {
        assert_eq!((x.r, x.s), (y.r, y.s));
        assert!((x.score - y.score).abs() < 1e-12);
    }
}

#[test]
fn cli_discover_and_search_smoke() {
    let dir = std::env::temp_dir().join(format!("silkmoth-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.sets");
    std::fs::write(
        &data,
        "# comment line\n\
         77 Mass Ave Boston MA|5th St 02115 Seattle WA|77 5th St Chicago IL\n\
         77 Massachusetts Avenue Boston MA|Fifth Street Seattle MA 02115|77 Fifth Street Chicago IL\n\
         apples oranges|red green blue\n",
    )
    .unwrap();
    let refs = dir.join("refs.sets");
    std::fs::write(&refs, "77 Mass Ave Boston MA|77 5th St Chicago IL\n").unwrap();

    let bin = env!("CARGO_BIN_EXE_silkmoth");
    // stats
    let out = std::process::Command::new(bin)
        .args(["stats", "--input", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("3 sets"));

    // discover
    let out = std::process::Command::new(bin)
        .args([
            "discover",
            "--input",
            data.to_str().unwrap(),
            "--metric",
            "similarity",
            "--delta",
            "0.2",
            "--quiet",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0\t1\t"), "address pair found: {text}");

    // search
    let out = std::process::Command::new(bin)
        .args([
            "search",
            "--input",
            data.to_str().unwrap(),
            "--reference",
            refs.to_str().unwrap(),
            "--metric",
            "containment",
            "--delta",
            "0.3",
            "--quiet",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().count() >= 1, "search output: {text}");

    // bad arguments exit non-zero
    let out = std::process::Command::new(bin)
        .args([
            "discover",
            "--input",
            data.to_str().unwrap(),
            "--metric",
            "bogus",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dice_cosine_end_to_end() {
    // Dice ≥ Jaccard pointwise, so a Dice run at the same δ finds at least
    // the Jaccard pairs.
    let collection = schema_collection(100);
    let mut cfg = EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.7,
        0.0,
    );
    let jac = Engine::new(collection.clone(), cfg)
        .unwrap()
        .discover_self_parallel(1);
    cfg.similarity = SimilarityFunction::Dice;
    cfg.reduction = false;
    let dice = Engine::new(collection.clone(), cfg)
        .unwrap()
        .discover_self_parallel(1);
    assert!(dice.pairs.len() >= jac.pairs.len());
    cfg.similarity = SimilarityFunction::Cosine;
    let cos = Engine::new(collection.clone(), cfg)
        .unwrap()
        .discover_self_parallel(1);
    assert!(cos.pairs.len() >= jac.pairs.len());
}
