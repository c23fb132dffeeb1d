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

#[cfg(test)]
mod envelope_robustness {
    //! The robustness every format over the storage layer's envelope owes,
    //! run over a sample of each — WAL frames, a snapshot, a catalog
    //! manifest, a replication handshake and a replication frame stream —
    //! through the format's own reader: every proper prefix fails with a
    //! named error (a stream may end cleanly at a frame boundary), every
    //! single-byte flip is caught with nothing divergent read before it,
    //! an unknown version is named before any CRC is checked, and an
    //! oversized length is refused by the cap before anything is
    //! allocated.

    use crate::catalog::manifest::{self, CollectionSpec, Quotas};
    use crate::replication::proto::{self, Frame, Handshake};
    use silkmoth_collection::Tokenization;
    use silkmoth_core::wire::encode_update;
    use silkmoth_core::Update;
    use silkmoth_storage::envelope::{push_frame, walk_frames};
    use silkmoth_storage::{parse_snapshot, snapshot_bytes, EngineState, SnapshotMeta};
    use std::fmt::{Debug, Display};
    use std::io::Cursor;

    /// What a reader made of some bytes: the items it read, in order
    /// (debug-printed), and the error that stopped it, if one did.
    type Parsed = (Vec<String>, Option<String>);

    const CAP: u32 = 1 << 20;

    /// One format's sample and how to read it.
    struct Format {
        name: &'static str,
        bytes: Vec<u8>,
        read: fn(&[u8]) -> Parsed,
        /// For a stream of frames, the offsets where a cut is a clean
        /// end: 0 and every frame's end. `None` for sealed bytes, which
        /// start with the envelope header.
        boundaries: Option<Vec<usize>>,
        /// Whether the reader caps each frame's length: a stream read
        /// from `impl Read`, which allocates for it.
        capped: bool,
    }

    fn one<T: Debug, E: Display>(result: Result<T, E>) -> Parsed {
        match result {
            Ok(item) => (vec![format!("{item:?}")], None),
            Err(e) => (Vec::new(), Some(e.to_string())),
        }
    }

    fn read_wal_frames(bytes: &[u8]) -> Parsed {
        let (bodies, _, torn) = walk_frames(bytes);
        let items = bodies.iter().map(|body| format!("{body:?}"));
        (items.collect(), torn.map(|e| e.to_string()))
    }

    fn read_frame_stream(bytes: &[u8]) -> Parsed {
        let (mut io, mut items) = (Cursor::new(bytes), Vec::new());
        loop {
            match proto::read_frame(&mut io, CAP) {
                Ok(Some(frame)) => items.push(format!("{frame:?}")),
                Ok(None) => return (items, None),
                Err(e) => return (items, Some(e.to_string())),
            }
        }
    }

    fn formats() -> Vec<Format> {
        let updates = [
            Update::Append(vec![vec!["alpha beta".into()], vec!["gamma".into()]]),
            Update::Remove(vec![1, 4]),
            Update::Compact,
        ];
        let (mut wal, mut wal_ends) = (Vec::new(), vec![0]);
        for update in &updates {
            push_frame(&mut wal, |body| encode_update(update, body));
            wal_ends.push(wal.len());
        }

        let state = EngineState {
            texts: vec!["a b".into(), "c".into(), "d e f".into()],
            live: vec![(0, vec![0, 1, 0]), (2, vec![2, 1]), (5, vec![])],
            dead: vec![1, 3, 4],
            next_id: 6,
            tokenization: Tokenization::Whitespace,
        };
        let meta = SnapshotMeta {
            seq: 7,
            update_seq: 41,
            epoch: 3,
        };

        let manifest = manifest::encode(&[CollectionSpec {
            name: "tenant".into(),
            shards: 3,
            quotas: Quotas {
                max_sets: Some(5),
                ..Quotas::default()
            },
        }]);

        let mut handshake = Vec::new();
        let hello = Handshake {
            epoch: 3,
            applied_seq: 77,
        };
        proto::write_handshake(&mut handshake, &hello).unwrap();

        let frames = [
            Frame::Heartbeat { committed_seq: 7 },
            Frame::Record {
                seq: 8,
                payload: vec![0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42],
            },
            Frame::Snapshot {
                epoch: 2,
                seq: 8,
                snapshot: (0..32u8).collect(),
            },
            Frame::Error("halting".to_string()),
        ];
        let mut frame_stream = Vec::new();
        let mut frame_ends = vec![0];
        for frame in &frames {
            proto::write_frame(&mut frame_stream, frame).unwrap();
            frame_ends.push(frame_stream.len());
        }

        let sealed = |name, bytes, read| Format {
            name,
            bytes,
            read,
            boundaries: None,
            capped: false,
        };
        vec![
            Format {
                name: "WAL frames",
                bytes: wal,
                read: read_wal_frames,
                boundaries: Some(wal_ends),
                capped: false,
            },
            sealed("snapshot", snapshot_bytes(meta, &state), |b| {
                one(parse_snapshot(b, "sample"))
            }),
            sealed("manifest", manifest, |b| one(manifest::decode(b))),
            sealed("handshake", handshake, |b| {
                one(proto::read_handshake(&mut Cursor::new(b)))
            }),
            Format {
                name: "frame stream",
                bytes: frame_stream,
                read: read_frame_stream,
                boundaries: Some(frame_ends),
                capped: true,
            },
        ]
    }

    /// `got` read nothing the intact bytes did not: its items are a
    /// prefix of `want`'s.
    fn assert_no_divergence(got: &[String], want: &[String], what: &str) {
        assert!(
            got.len() <= want.len() && got == &want[..got.len()],
            "{what}: read {got:?}, which the intact bytes do not begin with"
        );
    }

    #[test]
    fn every_format_names_each_prefix_flip_version_and_oversized_length() {
        for format in formats() {
            let Format {
                name, bytes, read, ..
            } = &format;
            let (items, err) = read(bytes);
            assert_eq!(err, None, "{name}: the intact sample must read");
            assert!(!items.is_empty(), "{name}");

            for cut in 0..bytes.len() {
                let (got, err) = read(&bytes[..cut]);
                let what = format!("{name} cut at {cut}");
                assert_no_divergence(&got, &items, &what);
                match &format.boundaries {
                    Some(ends) if ends.contains(&cut) => assert_eq!(err, None, "{what}"),
                    _ => assert!(err.is_some_and(|e| !e.is_empty()), "{what}: not named"),
                }
            }

            for (at, mask) in (0..bytes.len()).flat_map(|i| [(i, 0x01u8), (i, 0xFF)]) {
                let mut flipped = bytes.clone();
                flipped[at] ^= mask;
                let (got, err) = read(&flipped);
                let what = format!("{name} flip {mask:#04x} at byte {at}");
                assert_no_divergence(&got, &items, &what);
                assert!(err.is_some_and(|e| !e.is_empty()), "{what}: not caught");
            }

            if format.boundaries.is_none() {
                // Not resealed: the version must be named before the
                // CRC, which no longer matches, is read.
                let mut other = bytes.clone();
                other[4..8].copy_from_slice(&9u32.to_le_bytes());
                let err = read(&other).1.unwrap_or_default();
                assert!(err.contains("version 9"), "{name}: {err}");
            }

            let frame_starts = match (&format.boundaries, format.capped) {
                (Some(ends), true) => &ends[..ends.len() - 1],
                _ => &[][..],
            };
            for &at in frame_starts {
                let mut oversized = bytes.clone();
                oversized[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                let (got, err) = read(&oversized);
                assert_no_divergence(&got, &items, name);
                let err = err.unwrap_or_default();
                assert!(
                    err.contains(&format!("{CAP}-byte cap")),
                    "{name} at {at}: {err}"
                );
            }
        }
    }

    #[test]
    fn an_unknown_replication_tag_is_named() {
        let mut bytes = Vec::new();
        push_frame(&mut bytes, |body| body.extend_from_slice(&[200, 1, 2]));
        let err = read_frame_stream(&bytes).1.unwrap_or_default();
        assert!(err.contains("tag 200"), "{err}");
    }
}
