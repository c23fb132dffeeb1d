//! # silkmoth
//!
//! A Rust implementation of **SilkMoth** (Deng, Kim, Madden, Stonebraker —
//! *SILKMOTH: An Efficient Method for Finding Related Sets with Maximum
//! Matching Constraints*, VLDB 2017): exact, index-accelerated discovery
//! and search of related sets under maximum-matching relatedness metrics.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`text`] — element similarity functions (Jaccard, `Eds`, `NEds`,
//!   α-clamping) and Levenshtein distance;
//! * [`collection`] — tokenization (whitespace, q-grams, q-chunks), set
//!   collections, the frequency-ordered token dictionary, and the
//!   inverted index;
//! * [`matching`] — maximum-weight bipartite matching (Hungarian) and the
//!   triangle-inequality reduction;
//! * [`core`] — signature schemes, the check and nearest-neighbor
//!   filters, verification, the [`Engine`], and the brute-force baseline;
//! * [`datagen`] — deterministic synthetic workloads mirroring the
//!   paper's evaluation datasets;
//! * [`server`] — the network service: [`ShardedEngine`] scatter-gather
//!   over hash-partitioned engine shards (output identical to one
//!   unsharded engine) behind a multi-threaded HTTP/1.1 front
//!   (`silkmoth serve`, or [`server::http::serve`] over
//!   [`server::SearchService::handle`] from code);
//! * [`storage`] — durable snapshots + write-ahead log with crash
//!   recovery and auto-compaction ([`Store`], `silkmoth serve
//!   --data-dir`): every acknowledged update survives `kill -9`, and
//!   recovery is provably byte-identical to the engine that served the
//!   updates.
//!
//! ## Example
//!
//! The engine owns its collection behind an `Arc` (pass a `Collection`
//! to move it in, or an `Arc<Collection>` to share it), has no lifetime
//! parameters, and is `Send + Sync` — it drops straight into server
//! state. Its configuration is one [`EngineConfig`] — metric, φ, δ, α
//! plus the signature scheme, filters and reduction, with
//! [`EngineConfig::full`] giving full SilkMoth — validated by
//! [`Engine::new`]; a search is a [`QuerySpec`] — the owned, serializable artifact the engine, the
//! sharded engine, the HTTP routes and the CLI all execute identically —
//! handed to [`Engine::execute`], with its per-query knobs (`top_k`,
//! `floor`, a deadline):
//!
//! ```
//! use silkmoth::{
//!     Collection, Engine, EngineConfig, QuerySpec, RelatednessMetric, SimilarityFunction,
//!     Tokenization,
//! };
//!
//! let corpus = vec![
//!     vec!["77 Mass Ave Boston MA", "5th St 02115 Seattle WA", "77 5th St Chicago IL"],
//!     vec![
//!         "77 Massachusetts Avenue Boston MA",
//!         "Fifth Street Seattle MA 02115",
//!         "77 Fifth Street Chicago IL",
//!         "One Kendall Square Cambridge MA",
//!     ],
//! ];
//! let collection = Collection::build(&corpus, Tokenization::Whitespace);
//! let cfg = EngineConfig::full(
//!     RelatednessMetric::Containment,
//!     SimilarityFunction::Jaccard,
//!     0.35, // δ
//!     0.2,  // α
//! );
//! let engine = Engine::new(collection, cfg).unwrap();
//!
//! // Is the Location column (set 0) approximately contained in Address (set 1)?
//! let location: Vec<String> = corpus[0].iter().map(|e| e.to_string()).collect();
//! let out = engine.execute(&QuerySpec::new(location.clone()));
//! assert!(out.hits.iter().any(|&(sid, _)| sid == 1));
//!
//! // The best match only, under a floor of its own, within a budget:
//! let spec = QuerySpec::new(location)
//!     .with_top_k(1)
//!     .with_floor(0.2)
//!     .unwrap()
//!     .with_deadline(std::time::Duration::from_secs(1));
//! let top = engine.execute(&spec);
//! assert_eq!(top.hits.len(), 1);
//! assert!(!top.timed_out);
//!
//! // Discovery over external references is a batch of specs, one per
//! // reference, fanned out across threads with output identical to the
//! // serial run; the self-join is `discover_self_parallel`:
//! let specs = vec![QuerySpec::new(vec!["77 Mass Ave Boston MA".to_string()])];
//! let batch = engine.execute_batch(&specs, 0);
//! assert_eq!(batch[0].hits, engine.execute_batch(&specs, 1)[0].hits);
//! assert_eq!(engine.discover_self_parallel(0).pairs.len(), 1);
//! ```

pub use silkmoth_collection as collection;
pub use silkmoth_core as core;
pub use silkmoth_datagen as datagen;
pub use silkmoth_matching as matching;
pub use silkmoth_server as server;
pub use silkmoth_storage as storage;
pub use silkmoth_text as text;

pub use silkmoth_collection::{
    Collection, Element, InvertedIndex, SetIdx, SetRecord, Tokenization, UpdateError,
};
pub use silkmoth_core::{
    brute, CompactionPolicy, ConfigError, DiscoveryOutput, Engine, EngineConfig, FilterKind,
    PassStats, QueryOutput, QuerySpec, RelatedPair, RelatednessMetric, SignatureScheme, Update,
    UpdateOutcome,
};
pub use silkmoth_datagen::{ColumnsConfig, DblpConfig, SchemaConfig};
pub use silkmoth_matching::{max_weight_assignment, WeightMatrix};
pub use silkmoth_server::{ShardSpec, ShardedEngine, ShardedQueryOutput};
pub use silkmoth_storage::{StorageError, Store, StoreConfig, StoreEngine};
pub use silkmoth_text::SimilarityFunction;
