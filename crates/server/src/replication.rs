//! Replication wiring for the HTTP service: a [`ReplicationSource`]
//! over a running [`SearchService`]'s durable store (so `serve
//! --replicate-addr` can ship its WAL to followers), and a
//! [`ReplicaSink`] + [`start_follower`] that tail a primary into a
//! follower service (`serve --replicate-from`).
//!
//! Both sides reach the store through the service's quiesced accessor,
//! so replicated records serialize with HTTP traffic exactly like local
//! updates do — a search on a follower sees all of a replicated update
//! or none of it — and a bootstrap snapshot is never cut between a
//! batch's WAL commit and its engine apply. The follower's HTTP surface
//! stays read-only (update routes of every collection answer `409`
//! naming the primary) until `POST /promote` stops the tail loop, bumps
//! the store's failover epoch durably, and flips the process to the
//! primary role.

use crate::durable::ShardSpec;
use crate::service::SearchService;
use crate::shard::ShardedEngine;
use silkmoth_core::wire::decode_update;
use silkmoth_replica::{
    run_follower, store_records_after, FollowerShared, ReplicaError, ReplicaSink,
    ReplicationSource, TcpConnector,
};
use silkmoth_storage::{
    parse_snapshot, snapshot_bytes, SnapshotMeta, StorageError, Store, StoreConfig, StoreEngine,
};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A [`ReplicationSource`] over the durable store inside a running
/// [`SearchService`]. The service must have been built with
/// [`SearchService::durable`]; every method fails (or reports empty)
/// against an ephemeral service.
pub struct ServiceSource {
    service: Arc<SearchService>,
}

impl ServiceSource {
    /// Wraps `service`. The service's own commit signal (installed by
    /// [`SearchService::durable`]) provides the commit-point wakeups.
    pub fn new(service: Arc<SearchService>) -> Self {
        Self { service }
    }
}

fn not_durable() -> ReplicaError {
    ReplicaError::Protocol("service is not durable; replication needs --data-dir".to_string())
}

impl ReplicationSource for ServiceSource {
    fn epoch(&self) -> u64 {
        self.service
            .store_position()
            .map_or(0, |(_, status)| status.epoch)
    }

    fn committed_seq(&self) -> u64 {
        self.service.commit_signal().current()
    }

    fn wait_beyond(&self, seen: u64, timeout: Duration) -> u64 {
        self.service.commit_signal().wait_beyond(seen, timeout)
    }

    fn records_after(
        &self,
        applied: u64,
        limit: usize,
    ) -> Result<Option<Vec<Vec<u8>>>, ReplicaError> {
        let (dir, status) = self.service.store_position().ok_or_else(not_durable)?;
        store_records_after(&dir, &status, applied, limit)
    }

    fn snapshot(&self) -> Result<(Vec<u8>, u64, u64), ReplicaError> {
        // The cut is `(seq, state)` as one pair: quiesced, so the seq it
        // is stamped with is one the engine has reached. Stamping a
        // committed-but-unapplied seq would make the follower skip that
        // record for good.
        let (status, state) = self
            .service
            .quiesced(|store| (store.status(), StoreEngine::capture(store.engine())))
            .ok_or_else(not_durable)?;
        let meta = SnapshotMeta {
            seq: status.snapshot_seq,
            update_seq: status.update_seq,
            epoch: status.epoch,
        };
        Ok((
            snapshot_bytes(meta, &state),
            status.update_seq,
            status.epoch,
        ))
    }
}

/// A [`ReplicaSink`] that lands replicated records in a
/// [`SearchService`]'s durable store through the quiesced accessor —
/// so follower searches serialize with replication exactly as primary
/// searches serialize with local writes.
pub struct ServiceSink {
    service: Arc<SearchService>,
    spec: ShardSpec,
    cfg: StoreConfig,
}

impl ServiceSink {
    /// Wraps `service`; `spec` and `cfg` rebuild the store when a
    /// bootstrap snapshot arrives. `cfg`'s compaction policy must be
    /// disabled — compactions are replicated, never local decisions.
    pub fn new(service: Arc<SearchService>, spec: ShardSpec, cfg: StoreConfig) -> Self {
        Self { service, spec, cfg }
    }
}

impl ReplicaSink for ServiceSink {
    fn epoch(&self) -> u64 {
        self.service
            .store_position()
            .map_or(0, |(_, status)| status.epoch)
    }

    fn applied_seq(&self) -> u64 {
        self.service
            .store_position()
            .map_or(0, |(_, status)| status.update_seq)
    }

    fn install_snapshot(
        &mut self,
        snapshot: &[u8],
        seq: u64,
        epoch: u64,
    ) -> Result<(), ReplicaError> {
        let (meta, state) = parse_snapshot(snapshot, "replication bootstrap snapshot")
            .map_err(ReplicaError::Storage)?;
        if meta.update_seq != seq || meta.epoch != epoch {
            return Err(ReplicaError::Protocol(format!(
                "snapshot frame says (seq {seq}, epoch {epoch}) but its payload says (seq {}, epoch {})",
                meta.update_seq, meta.epoch
            )));
        }
        let engine = <ShardedEngine as StoreEngine>::restore(&self.spec, state)
            .map_err(ReplicaError::Storage)?;
        let (dir, _) = self.service.store_position().ok_or_else(not_durable)?;
        match std::fs::remove_dir_all(&dir) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(ReplicaError::Io {
                    context: format!("wipe follower dir {} for bootstrap", dir.display()),
                    source: e,
                })
            }
        }
        let store = Store::create_continuing(&dir, engine, self.cfg, seq, epoch)
            .map_err(ReplicaError::Storage)?;
        self.service
            .quiesced(|current| {
                *current = store;
                self.service.wire(current);
            })
            .ok_or_else(not_durable)
    }

    fn apply_record(&mut self, seq: u64, payload: &[u8]) -> Result<(), ReplicaError> {
        let update = decode_update(payload)
            .map_err(|e| ReplicaError::Protocol(format!("record {seq} does not decode: {e}")))?;
        let result = self
            .service
            .quiesced(|store| {
                let receipt = store.apply(update).map_err(ReplicaError::Storage)?;
                if receipt.auto_compacted {
                    return Err(ReplicaError::Protocol(format!(
                        "follower store compacted on its own at record {seq}; the follower \
                         compaction policy must be disabled"
                    )));
                }
                let now = store.status().update_seq;
                if now != seq {
                    return Err(ReplicaError::Protocol(format!(
                        "applying record {seq} left the store at seq {now}"
                    )));
                }
                Ok(())
            })
            .ok_or_else(not_durable)?;
        result
    }
}

/// A running follower loop attached to a service.
pub struct FollowerRuntime {
    /// Status/stop handle (also reachable through the service's
    /// replication role).
    pub shared: Arc<FollowerShared>,
    /// The loop's thread; joins shortly after
    /// [`FollowerShared::stop`].
    pub handle: JoinHandle<()>,
}

/// Puts `service`'s process in the follower role and starts tailing
/// `primary_addr` (a replication-log listener, not the HTTP port) on a
/// background thread. Update routes (of every collection behind the
/// same front) answer `409` until `POST /promote`; an unreachable
/// primary is retried with bounded backoff forever, visible in
/// `/healthz` and `/stats` rather than fatal.
pub fn start_follower(
    service: Arc<SearchService>,
    primary_addr: String,
    spec: ShardSpec,
    store_cfg: StoreConfig,
    cfg: FollowerConfig,
) -> FollowerRuntime {
    let shared = Arc::new(FollowerShared::new());
    // Sampled replication applies land in the same trace ring as HTTP
    // requests, so `/debug/traces` on a follower covers both.
    shared.set_tracer(Arc::clone(service.tracer()));
    service
        .front()
        .set_role_follower(primary_addr.clone(), Arc::clone(&shared));
    let connector = TcpConnector {
        addr: primary_addr,
        connect_timeout: Duration::from_secs(5),
        read_timeout: Duration::from_secs(5),
        shared: Some(Arc::clone(&shared)),
    };
    let sink = ServiceSink::new(service, spec, store_cfg);
    let handle = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            run_follower(connector, sink, &shared, &cfg);
        })
    };
    FollowerRuntime { shared, handle }
}

/// Re-exported constructor check: a follower store must never compact
/// on its own. Returns `cfg` with the compaction half of the policy
/// cleared (auto-*snapshots* are state-neutral and stay allowed).
pub fn follower_store_config(mut cfg: StoreConfig) -> StoreConfig {
    cfg.policy.max_dead_ratio = None;
    cfg
}

/// Validation helper shared by tests and the CLI: true when `e` says
/// the directory has no usable store (fresh follower) as opposed to an
/// I/O failure worth surfacing.
pub fn dir_needs_fresh_store(e: &StorageError) -> bool {
    matches!(
        e,
        StorageError::NotInitialized { .. } | StorageError::NoValidSnapshot { .. }
    )
}

pub use silkmoth_replica::{serve_log, FollowerConfig, ReplicaServer, StreamerConfig};
