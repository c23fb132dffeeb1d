//! # silkmoth-server
//!
//! The SilkMoth network service: a sharded, multi-threaded HTTP front
//! over the owned, `Send + Sync` [`Engine`](silkmoth_core::Engine),
//! built entirely on `std` (no crates.io access — the wire format uses
//! the in-crate [`json`] subset, the transport the in-crate [`http`]
//! server).
//!
//! The layers, bottom up:
//!
//! * [`shard`] — [`ShardedEngine`]: the collection hash-partitioned
//!   across N engines, scatter-gather query execution with output
//!   **provably identical** to one unsharded engine (global ids, global
//!   top-k rank, bit-identical scores — see the module docs for why);
//! * [`http`] — an HTTP/1.1 server on [`std::net::TcpListener`] with a
//!   fixed worker pool, keep-alive, and graceful drain on shutdown;
//! * [`service`] — one collection's core, [`SearchService`]: the routes
//!   (`POST /search`, `POST /discover`, `POST /sets`, `GET /stats` with
//!   cumulative per-shard [`PassStats`] merged, `GET /healthz`, …) and
//!   the group-commit write path, answering through the listener's one
//!   front (request ids, logs, traces, `GET /metrics` — the metric
//!   families in the Prometheus text exposition format);
//! * [`catalog`] — [`CatalogService`]: named collections, each a core
//!   behind the default collection's front, recovered after a restart
//!   from the versioned catalog manifest;
//! * [`replication`] — WAL shipping from a durable primary to
//!   followers: [`serve_log`] streams a core's update log over TCP,
//!   [`start_follower`] tails one into a read-only core until
//!   `POST /promote`;
//! * [`telemetry`] — the metrics registry behind `GET /metrics`, the
//!   request-trace ring behind `GET /debug/traces`, and (public, for
//!   the `metricslint` and `loadgen` tools) the exposition parser and
//!   lint in [`telemetry::expo`].
//!
//! ## Example
//!
//! ```
//! use silkmoth_core::{EngineConfig, QuerySpec, RelatednessMetric};
//! use silkmoth_text::SimilarityFunction;
//! use silkmoth_server::{http, SearchService, ShardedEngine};
//!
//! let raw = vec![
//!     vec!["77 Mass Ave Boston MA", "5th St 02115 Seattle WA"],
//!     vec!["77 Massachusetts Avenue Boston MA", "Fifth Street Seattle WA 02115"],
//! ];
//! let cfg = EngineConfig::full(
//!     RelatednessMetric::Similarity,
//!     SimilarityFunction::Jaccard,
//!     0.25,
//!     0.0,
//! );
//! let engine = ShardedEngine::build(&raw, cfg, 2).unwrap();
//!
//! // Scatter-gather directly…
//! let spec = QuerySpec::new(vec!["77 Mass Ave Boston MA".to_string()])
//!     .with_top_k(1)
//!     .with_floor(0.2)
//!     .unwrap();
//! let out = engine.execute(&spec);
//! assert_eq!(out.hits.len(), 1);
//!
//! // …or over HTTP: bind an ephemeral port, then shut down gracefully.
//! let service = SearchService::new(engine);
//! let server = http::serve("127.0.0.1:0", 2, move |req| service.handle(req)).unwrap();
//! let addr = server.addr();
//! server.shutdown();
//! ```
//!
//! [`PassStats`]: silkmoth_core::PassStats

pub mod catalog;
pub mod durable;
mod front;
pub mod http;
pub mod json;
mod metrics;
pub mod queryspec;
pub mod replication;
pub mod service;
pub mod shard;
pub mod telemetry;

pub use catalog::{CatalogConfig, CatalogError, CatalogService};
pub use durable::ShardSpec;
pub use front::LogFormat;
pub use http::{read_simple_response, HttpServer, Request, Response};
pub use json::{Json, JsonError};
pub use queryspec::{spec_from_json, spec_to_json, QUERY_SPEC_JSON_VERSION};
pub use replication::{
    bootstrap_snapshot, dir_needs_fresh_store, follower_store_config, serve_log, start_follower,
    FollowerConfig, FollowerRuntime, ReplicaServer, ServiceSink, StreamerConfig,
};
pub use service::{EngineGuard, SearchService};
pub use shard::{merge_stats, ShardedEngine, ShardedQueryOutput};
