//! Shared workload definitions for the SilkMoth benchmark harness.
//!
//! The three applications of §8.1 (Table 3), with laptop-scale defaults
//! and paper-scale options. The `figures` binary (which regenerates
//! every table and figure as text) builds its corpora and
//! configurations through this module.

use silkmoth_collection::{Collection, Tokenization};
use silkmoth_core::{
    Engine, EngineConfig, FilterKind, QuerySpec, RelatednessMetric, SignatureScheme,
};
use silkmoth_datagen::{
    dblp_titles, pick_references, webtable_columns, webtable_schemas, ColumnsConfig, DblpConfig,
    SchemaConfig,
};
use silkmoth_text::SimilarityFunction;

/// The three evaluation applications (Table 3 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Application {
    /// DBLP string matching: discovery, SET-SIMILARITY, Eds.
    StringMatching,
    /// WebTable schema matching: discovery, SET-SIMILARITY, Jaccard.
    SchemaMatching,
    /// WebTable inclusion dependency: search, SET-CONTAINMENT, Jaccard.
    InclusionDependency,
}

impl Application {
    /// All three applications.
    pub const ALL: [Application; 3] = [
        Application::StringMatching,
        Application::SchemaMatching,
        Application::InclusionDependency,
    ];

    /// Human-readable name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Application::StringMatching => "String Matching",
            Application::SchemaMatching => "Schema Matching",
            Application::InclusionDependency => "Inclusion Dependency",
        }
    }

    /// Default α (bold values in Table 3).
    pub fn default_alpha(&self) -> f64 {
        match self {
            Application::StringMatching => 0.8,
            Application::SchemaMatching => 0.0,
            Application::InclusionDependency => 0.5,
        }
    }

    /// Default δ (bold in Table 3: 0.7 for all).
    pub fn default_delta(&self) -> f64 {
        0.7
    }

    /// The similarity function at a given α (string matching picks the
    /// maximum legal q for α — footnote 11).
    pub fn similarity(&self, alpha: f64) -> SimilarityFunction {
        match self {
            Application::StringMatching => {
                let q = SimilarityFunction::max_q_for_alpha(alpha)
                    .expect("string matching requires α > 0.5");
                SimilarityFunction::Eds { q }
            }
            _ => SimilarityFunction::Jaccard,
        }
    }

    /// Relatedness metric (Table 3).
    pub fn metric(&self) -> RelatednessMetric {
        match self {
            Application::StringMatching | Application::SchemaMatching => {
                RelatednessMetric::Similarity
            }
            Application::InclusionDependency => RelatednessMetric::Containment,
        }
    }

    /// Discovery (self-join) vs search (reference columns).
    pub fn is_search_mode(&self) -> bool {
        matches!(self, Application::InclusionDependency)
    }
}

/// A materialized workload: tokenized collection + optional reference
/// sets.
pub struct Workload {
    /// Which application this is.
    pub app: Application,
    /// The tokenized collection, shared with the engines built on it.
    pub collection: std::sync::Arc<Collection>,
    /// Reference set indices (search mode only).
    pub reference_ids: Vec<usize>,
    /// α used to tokenize (string matching: decides q).
    pub alpha: f64,
}

impl Workload {
    /// Builds the workload at a set count. `alpha` must match the α the
    /// engine will run with (it fixes q for string matching).
    pub fn build(app: Application, num_sets: usize, alpha: f64) -> Workload {
        let (raw, reference_ids) = match app {
            Application::StringMatching => (
                dblp_titles(&DblpConfig {
                    num_sets,
                    ..Default::default()
                }),
                Vec::new(),
            ),
            Application::SchemaMatching => (
                webtable_schemas(&SchemaConfig {
                    num_sets,
                    ..Default::default()
                }),
                Vec::new(),
            ),
            Application::InclusionDependency => {
                let raw = webtable_columns(&ColumnsConfig {
                    num_sets,
                    ..Default::default()
                });
                // §8.1 uses 1000 references out of 500K; keep a similar
                // ratio but at least 50.
                let n_refs = (num_sets / 500).max(50).min(num_sets);
                let refs = pick_references(&raw, n_refs, 4, 4747);
                (raw, refs)
            }
        };
        let tokenization = match app.similarity(alpha.max(0.51)) {
            SimilarityFunction::Eds { q } | SimilarityFunction::NEds { q } => {
                Tokenization::QGram { q }
            }
            _ => Tokenization::Whitespace,
        };
        let tokenization = if app == Application::StringMatching {
            tokenization
        } else {
            Tokenization::Whitespace
        };
        Workload {
            app,
            collection: std::sync::Arc::new(Collection::build(&raw, tokenization)),
            reference_ids,
            alpha,
        }
    }

    /// Workload for the Figure 7 reduction experiment: inclusion
    /// dependency with columns of ≥ 100 elements and α = 0 (§8.4).
    pub fn build_reduction(num_sets: usize) -> Workload {
        let raw = webtable_columns(&ColumnsConfig {
            num_sets,
            values_per_set: (100, 160),
            ..Default::default()
        });
        let n_refs = (num_sets / 100).max(25).min(num_sets);
        let reference_ids = pick_references(&raw, n_refs, 4, 4848);
        Workload {
            app: Application::InclusionDependency,
            collection: std::sync::Arc::new(Collection::build(&raw, Tokenization::Whitespace)),
            reference_ids,
            alpha: 0.0,
        }
    }

    /// The engine configuration for this workload at `δ` with a given
    /// scheme/filter/reduction selection. α comes from the workload.
    pub fn config(
        &self,
        delta: f64,
        scheme: SignatureScheme,
        filter: FilterKind,
        reduction: bool,
    ) -> EngineConfig {
        let similarity = match self.app {
            Application::StringMatching => self.app.similarity(self.alpha),
            _ => SimilarityFunction::Jaccard,
        };
        EngineConfig {
            metric: self.app.metric(),
            similarity,
            delta,
            alpha: self.alpha,
            scheme,
            filter,
            reduction,
        }
    }

    /// Runs the workload once (discovery self-join or the reference
    /// search batch), returning pairs found, wall time and stats.
    pub fn run(&self, cfg: EngineConfig) -> RunOutcome {
        let engine = Engine::new(self.collection.clone(), cfg).expect("valid config");
        let t0 = std::time::Instant::now();
        let (pairs, stats) = if self.app.is_search_mode() {
            let mut total = 0usize;
            let mut stats = silkmoth_core::PassStats::default();
            for &rid in &self.reference_ids {
                let set = self.collection.set(rid as u32);
                let texts = set.elements.iter().map(|e| e.text.to_string()).collect();
                let out = engine.execute(&QuerySpec::new(texts));
                total += out.hits.len();
                stats.merge(&out.stats);
            }
            (total, stats)
        } else {
            let out = engine.discover_self_parallel(1);
            (out.pairs.len(), out.stats)
        };
        RunOutcome {
            pairs,
            seconds: t0.elapsed().as_secs_f64(),
            stats,
        }
    }
}

/// One timed run.
#[derive(Debug, Clone, Copy)]
pub struct RunOutcome {
    /// Number of related pairs found.
    pub pairs: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Aggregated pass counters.
    pub stats: silkmoth_core::PassStats,
}

/// The θ (= δ) sweep every figure uses.
pub const THETAS: [f64; 4] = [0.70, 0.75, 0.80, 0.85];

/// The full SilkMoth configuration (Figure 4's OPT): dichotomy signatures,
/// both filters, reduction.
pub fn opt_config(w: &Workload, delta: f64) -> EngineConfig {
    w.config(
        delta,
        SignatureScheme::Dichotomy,
        FilterKind::CheckAndNearestNeighbor,
        true,
    )
}

/// The unoptimized configuration (Figure 4's NOOPT): the state-of-the-art
/// unweighted signature scheme, no refinement, no reduction. With an α
/// threshold the combined-unweighted scheme is used (plain unweighted is
/// identical at α = 0 and invalid for edit similarity).
pub fn noopt_config(w: &Workload, delta: f64) -> EngineConfig {
    let scheme = if w.alpha > 0.0 {
        SignatureScheme::CombinedUnweighted
    } else {
        SignatureScheme::Unweighted
    };
    w.config(delta, scheme, FilterKind::None, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build_and_run_small() {
        for app in Application::ALL {
            let w = Workload::build(app, 150, app.default_alpha());
            let out = w.run(opt_config(&w, 0.7));
            // Planted clusters must surface in every application.
            assert!(out.pairs > 0, "{app:?} found nothing");
        }
    }

    #[test]
    fn noopt_and_opt_agree() {
        for app in Application::ALL {
            let w = Workload::build(app, 120, app.default_alpha());
            let a = w.run(opt_config(&w, 0.7));
            let b = w.run(noopt_config(&w, 0.7));
            assert_eq!(a.pairs, b.pairs, "{app:?}");
        }
    }

    #[test]
    fn reduction_workload_has_large_sets() {
        let w = Workload::build_reduction(60);
        let avg = w.collection.stats().avg_elems_per_set;
        assert!(avg >= 100.0, "avg = {avg}");
        let out = w.run(opt_config(&w, 0.7));
        assert!(out.stats.reduced_pairs > 0, "reduction should fire");
    }

    #[test]
    fn string_matching_q_tracks_alpha() {
        let w = Workload::build(Application::StringMatching, 50, 0.85);
        assert_eq!(w.app.similarity(0.85), SimilarityFunction::Eds { q: 5 });
        assert_eq!(w.collection.tokenization(), Tokenization::QGram { q: 5 });
    }
}
