//! # silkmoth-datagen
//!
//! Deterministic synthetic workload generators mirroring the SilkMoth
//! evaluation datasets (§8.1, Table 3).
//!
//! The paper evaluates on DBLP (100K publication titles) and WebTable
//! (500K HTML tables), neither of which ships with this repository. These
//! generators synthesize corpora with the same *shape* — Zipf-skewed token
//! frequencies, matching set/element/token size distributions, and planted
//! clusters of truly related sets — because those three properties are
//! what drive signature selectivity, filter effectiveness, and
//! verification cost.
//!
//! Three application presets:
//!
//! * [`dblp_titles`] — **string matching**: set = publication title,
//!   element = word, tokens = q-grams (Table 3 row 1: ~9 elems/set).
//! * [`webtable_schemas`] — **schema matching**: set = schema, element =
//!   attribute (its values concatenated), tokens = value words (row 2:
//!   ~3 elems/set, ~11.3 tokens/elem).
//! * [`webtable_columns`] — **inclusion dependency**: set = column,
//!   element = cell value, tokens = words (row 3: ~22 elems/set,
//!   ~2.2 tokens/elem).
//!
//! All generators take an explicit seed and are fully deterministic.

mod perturb;
mod vocab;
mod zipf;

pub use perturb::{perturb_phrase, typo};
pub use vocab::{vocabulary, Vocabulary};
pub use zipf::Zipf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Raw corpus: each set is a list of element strings. Build a
/// `silkmoth_collection::Collection` from it with the tokenization the
/// application needs.
pub type RawCorpus = Vec<Vec<String>>;

/// Configuration for the DBLP-like string-matching corpus.
#[derive(Debug, Clone)]
pub struct DblpConfig {
    /// Number of sets (titles).
    pub num_sets: usize,
    /// RNG seed.
    pub seed: u64,
    /// Distinct words in the vocabulary.
    pub vocab_size: usize,
    /// Zipf exponent for word frequencies.
    pub zipf_exponent: f64,
    /// Words per title, inclusive range (paper mean ≈ 9).
    pub words_per_set: (usize, usize),
    /// Fraction of titles generated as near-duplicates of an earlier title.
    pub cluster_fraction: f64,
    /// Per-word probability of a single-character typo in near-duplicates.
    pub typo_prob: f64,
    /// Per-word probability of dropping the word in near-duplicates.
    pub drop_prob: f64,
}

impl Default for DblpConfig {
    fn default() -> Self {
        Self {
            num_sets: 2_000,
            seed: 42,
            vocab_size: 4_000,
            zipf_exponent: 1.05,
            words_per_set: (4, 14),
            cluster_fraction: 0.35,
            typo_prob: 0.15,
            drop_prob: 0.03,
        }
    }
}

/// Generates a DBLP-like corpus: each set is one publication title, each
/// element one word.
pub fn dblp_titles(cfg: &DblpConfig) -> RawCorpus {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let vocab = vocabulary(cfg.vocab_size, 4, 10, &mut rng);
    let zipf = Zipf::new(cfg.vocab_size, cfg.zipf_exponent);
    let mut corpus: RawCorpus = Vec::with_capacity(cfg.num_sets);
    for _ in 0..cfg.num_sets {
        let near_dup = !corpus.is_empty() && rng.random::<f64>() < cfg.cluster_fraction;
        if near_dup {
            let base = &corpus[rng.random_range(0..corpus.len())];
            let words: Vec<&str> = base.iter().map(String::as_str).collect();
            corpus.push(perturb_phrase(
                &words,
                cfg.typo_prob,
                cfg.drop_prob,
                &mut rng,
            ));
        } else {
            let n = rng.random_range(cfg.words_per_set.0..=cfg.words_per_set.1);
            let title: Vec<String> = (0..n)
                .map(|_| vocab.word(zipf.sample(&mut rng)).to_owned())
                .collect();
            corpus.push(title);
        }
    }
    corpus
}

/// Configuration for the WebTable-like schema-matching corpus.
#[derive(Debug, Clone)]
pub struct SchemaConfig {
    /// Number of sets (schemas).
    pub num_sets: usize,
    /// RNG seed.
    pub seed: u64,
    /// Number of attribute "domains" (value pools).
    pub num_domains: usize,
    /// Values per domain pool.
    pub domain_pool: usize,
    /// Attributes per schema, inclusive range (paper mean = 3).
    pub attrs_per_set: (usize, usize),
    /// Value words per attribute, inclusive range (paper mean ≈ 11.3).
    pub values_per_attr: (usize, usize),
    /// Zipf exponent for value frequencies within a domain.
    pub zipf_exponent: f64,
    /// Fraction of schemas generated as near-duplicates of an earlier one.
    pub cluster_fraction: f64,
    /// Per-value probability of replacement in near-duplicates.
    pub replace_prob: f64,
}

impl Default for SchemaConfig {
    fn default() -> Self {
        Self {
            num_sets: 2_000,
            seed: 43,
            num_domains: 40,
            domain_pool: 400,
            attrs_per_set: (2, 4),
            values_per_attr: (8, 15),
            zipf_exponent: 0.9,
            cluster_fraction: 0.35,
            replace_prob: 0.12,
        }
    }
}

/// Generates a WebTable-like schema corpus: each set is one schema, each
/// element one attribute rendered as its whitespace-joined values.
pub fn webtable_schemas(cfg: &SchemaConfig) -> RawCorpus {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Per-domain pools of single-word values.
    let pools: Vec<Vocabulary> = (0..cfg.num_domains)
        .map(|_| vocabulary(cfg.domain_pool, 3, 9, &mut rng))
        .collect();
    let zipf = Zipf::new(cfg.domain_pool, cfg.zipf_exponent);
    let mut corpus: RawCorpus = Vec::with_capacity(cfg.num_sets);
    // Remember each schema's domain assignment for perturbation.
    let mut domains_of: Vec<Vec<usize>> = Vec::with_capacity(cfg.num_sets);
    for _ in 0..cfg.num_sets {
        let near_dup = !corpus.is_empty() && rng.random::<f64>() < cfg.cluster_fraction;
        if near_dup {
            let idx = rng.random_range(0..corpus.len());
            let base = corpus[idx].clone();
            let base_domains = domains_of[idx].clone();
            let perturbed: Vec<String> = base
                .iter()
                .zip(&base_domains)
                .map(|(attr, &dom)| {
                    let words: Vec<String> = attr
                        .split_whitespace()
                        .map(|w| {
                            if rng.random::<f64>() < cfg.replace_prob {
                                pools[dom].word(zipf.sample(&mut rng)).to_owned()
                            } else {
                                w.to_owned()
                            }
                        })
                        .collect();
                    words.join(" ")
                })
                .collect();
            corpus.push(perturbed);
            domains_of.push(base_domains);
        } else {
            let n_attrs = rng.random_range(cfg.attrs_per_set.0..=cfg.attrs_per_set.1);
            let mut attrs = Vec::with_capacity(n_attrs);
            let mut doms = Vec::with_capacity(n_attrs);
            for _ in 0..n_attrs {
                let dom = rng.random_range(0..cfg.num_domains);
                let n_vals = rng.random_range(cfg.values_per_attr.0..=cfg.values_per_attr.1);
                let vals: Vec<&str> = (0..n_vals)
                    .map(|_| pools[dom].word(zipf.sample(&mut rng)))
                    .collect();
                attrs.push(vals.join(" "));
                doms.push(dom);
            }
            corpus.push(attrs);
            domains_of.push(doms);
        }
    }
    corpus
}

/// Configuration for the WebTable-like column corpus (inclusion
/// dependency).
#[derive(Debug, Clone)]
pub struct ColumnsConfig {
    /// Number of sets (columns).
    pub num_sets: usize,
    /// RNG seed.
    pub seed: u64,
    /// Number of entity pools ("dictionary columns" the data is drawn
    /// from).
    pub num_pools: usize,
    /// Entities per pool.
    pub pool_size: usize,
    /// Values per column, inclusive range (paper mean ≈ 22).
    pub values_per_set: (usize, usize),
    /// Words per value, inclusive range (paper mean ≈ 2.2).
    pub words_per_value: (usize, usize),
    /// Fraction of columns generated as dirty subsets of an earlier,
    /// larger column (the planted containment pairs).
    pub containment_fraction: f64,
    /// Per-value probability of a typo in contained columns.
    pub typo_prob: f64,
}

impl Default for ColumnsConfig {
    fn default() -> Self {
        Self {
            num_sets: 4_000,
            seed: 44,
            num_pools: 60,
            pool_size: 500,
            values_per_set: (10, 34),
            words_per_value: (1, 4),
            containment_fraction: 0.3,
            typo_prob: 0.1,
        }
    }
}

/// Generates a WebTable-like column corpus: each set is one column, each
/// element one cell value of 1–4 words.
pub fn webtable_columns(cfg: &ColumnsConfig) -> RawCorpus {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Entity pools: multi-word entities per pool.
    let word_vocab = vocabulary(3_000, 3, 9, &mut rng);
    let word_zipf = Zipf::new(3_000, 0.8);
    let pools: Vec<Vec<String>> = (0..cfg.num_pools)
        .map(|_| {
            (0..cfg.pool_size)
                .map(|_| {
                    let n = rng.random_range(cfg.words_per_value.0..=cfg.words_per_value.1);
                    (0..n)
                        .map(|_| word_vocab.word(word_zipf.sample(&mut rng)))
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect()
        })
        .collect();
    let mut corpus: RawCorpus = Vec::with_capacity(cfg.num_sets);
    for _ in 0..cfg.num_sets {
        let contained = !corpus.is_empty() && rng.random::<f64>() < cfg.containment_fraction;
        if contained {
            // Sample a subset of an existing column, lightly dirtied: the
            // base column then (approximately) contains this one.
            let base = &corpus[rng.random_range(0..corpus.len())];
            let take = rng
                .random_range(cfg.values_per_set.0..=cfg.values_per_set.1)
                .min(base.len());
            let start = rng.random_range(0..=base.len() - take);
            let vals: Vec<String> = base[start..start + take]
                .iter()
                .map(|v| {
                    if rng.random::<f64>() < cfg.typo_prob {
                        let words: Vec<&str> = v.split_whitespace().collect();
                        perturb_phrase(&words, 0.5, 0.0, &mut rng).join(" ")
                    } else {
                        v.clone()
                    }
                })
                .collect();
            corpus.push(vals);
        } else {
            let pool = &pools[rng.random_range(0..cfg.num_pools)];
            let n = rng.random_range(cfg.values_per_set.0..=cfg.values_per_set.1);
            let vals: Vec<String> = (0..n)
                .map(|_| pool[rng.random_range(0..pool.len())].clone())
                .collect();
            corpus.push(vals);
        }
    }
    corpus
}

/// Draws `count` distinct reference-set indices for search-mode
/// experiments (§8.1 picks 1000 columns at random), preferring sets with
/// more than `min_elems` distinct values ("less likely to be categorical
/// variables").
pub fn pick_references(
    corpus: &RawCorpus,
    count: usize,
    min_elems: usize,
    seed: u64,
) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<usize> = (0..corpus.len())
        .filter(|&i| {
            let mut distinct: Vec<&String> = corpus[i].iter().collect();
            distinct.sort_unstable();
            distinct.dedup();
            distinct.len() > min_elems
        })
        .collect();
    let mut picked = Vec::with_capacity(count.min(pool.len()));
    while picked.len() < count && !pool.is_empty() {
        let j = rng.random_range(0..pool.len());
        picked.push(pool.swap_remove(j));
    }
    picked.sort_unstable();
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dblp_deterministic() {
        let cfg = DblpConfig {
            num_sets: 50,
            ..DblpConfig::default()
        };
        assert_eq!(dblp_titles(&cfg), dblp_titles(&cfg));
        let other = DblpConfig {
            seed: 7,
            ..cfg.clone()
        };
        assert_ne!(dblp_titles(&cfg), dblp_titles(&other));
    }

    #[test]
    fn dblp_shape_matches_table3() {
        let cfg = DblpConfig {
            num_sets: 500,
            ..DblpConfig::default()
        };
        let corpus = dblp_titles(&cfg);
        assert_eq!(corpus.len(), 500);
        let avg: f64 = corpus.iter().map(Vec::len).sum::<usize>() as f64 / 500.0;
        assert!((6.0..=12.0).contains(&avg), "elems/set = {avg}, want ≈ 9");
        // Every element is a single word (string-matching application).
        assert!(corpus
            .iter()
            .all(|t| t.iter().all(|w| !w.contains(char::is_whitespace))));
    }

    #[test]
    fn schemas_shape_matches_table3() {
        let cfg = SchemaConfig {
            num_sets: 400,
            ..SchemaConfig::default()
        };
        let corpus = webtable_schemas(&cfg);
        let elems: usize = corpus.iter().map(Vec::len).sum();
        let avg_elems = elems as f64 / corpus.len() as f64;
        assert!((2.0..=4.0).contains(&avg_elems), "elems/set = {avg_elems}");
        let tokens: usize = corpus
            .iter()
            .flat_map(|s| s.iter())
            .map(|a| a.split_whitespace().count())
            .sum();
        let avg_tokens = tokens as f64 / elems as f64;
        assert!(
            (8.0..=15.0).contains(&avg_tokens),
            "tokens/elem = {avg_tokens}"
        );
    }

    #[test]
    fn columns_shape_matches_table3() {
        let cfg = ColumnsConfig {
            num_sets: 400,
            ..ColumnsConfig::default()
        };
        let corpus = webtable_columns(&cfg);
        let elems: usize = corpus.iter().map(Vec::len).sum();
        let avg_elems = elems as f64 / corpus.len() as f64;
        assert!(
            (15.0..=30.0).contains(&avg_elems),
            "elems/set = {avg_elems}"
        );
        let tokens: usize = corpus
            .iter()
            .flat_map(|s| s.iter())
            .map(|v| v.split_whitespace().count())
            .sum();
        let avg_tokens = tokens as f64 / elems as f64;
        assert!(
            (1.5..=3.2).contains(&avg_tokens),
            "tokens/elem = {avg_tokens}"
        );
    }

    #[test]
    fn corpora_contain_related_pairs() {
        // The planted clusters must actually produce related pairs, or the
        // benchmarks would measure an empty result set.
        use silkmoth_collection::{Collection, Tokenization};
        use silkmoth_core::{brute, EngineConfig, RelatednessMetric};
        use silkmoth_text::SimilarityFunction;

        let corpus = webtable_schemas(&SchemaConfig {
            num_sets: 120,
            ..SchemaConfig::default()
        });
        let c = Collection::build(&corpus, Tokenization::Whitespace);
        let cfg = EngineConfig::full(
            RelatednessMetric::Similarity,
            SimilarityFunction::Jaccard,
            0.7,
            0.0,
        );
        let pairs = brute::discover_self(&c, &cfg);
        assert!(!pairs.is_empty(), "no related schema pairs planted");
    }

    #[test]
    fn columns_contain_containment_pairs() {
        use silkmoth_collection::{Collection, Tokenization};
        use silkmoth_core::{brute, EngineConfig, RelatednessMetric};
        use silkmoth_text::SimilarityFunction;

        let corpus = webtable_columns(&ColumnsConfig {
            num_sets: 80,
            ..ColumnsConfig::default()
        });
        let c = Collection::build(&corpus, Tokenization::Whitespace);
        let cfg = EngineConfig::full(
            RelatednessMetric::Containment,
            SimilarityFunction::Jaccard,
            0.7,
            0.0,
        );
        let pairs = brute::discover_self(&c, &cfg);
        assert!(!pairs.is_empty(), "no containment pairs planted");
    }

    #[test]
    fn pick_references_distinct_and_deterministic() {
        let corpus = webtable_columns(&ColumnsConfig {
            num_sets: 200,
            ..ColumnsConfig::default()
        });
        let refs = pick_references(&corpus, 30, 4, 1);
        assert_eq!(refs.len(), 30);
        let mut sorted = refs.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), refs.len());
        assert_eq!(refs, pick_references(&corpus, 30, 4, 1));
    }
}
