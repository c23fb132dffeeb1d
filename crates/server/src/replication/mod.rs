//! WAL-shipping replication of a durable [`SearchService`].
//!
//! A primary exposes its storage WAL as a versioned, framed,
//! CRC-checked record stream over TCP ([`serve_log`], `serve
//! --replicate-addr`). A follower connects with a cursor — the count of
//! updates it has already applied plus the failover epoch it applied
//! them under — and the primary either resumes streaming raw WAL
//! records from that point, read from its store's retained log
//! ([`RetainedLog`](silkmoth_storage::RetainedLog): this module never
//! names a file), or, when the cursor predates that log (or belongs to
//! a different epoch), sends a full snapshot to bootstrap from. The follower ([`start_follower`], `serve
//! --replicate-from`) replays records through the same
//! [`silkmoth_storage::Store`] commit path the primary used, so a
//! caught-up follower is *byte-identical* to the primary: same ids, same
//! tie order, bit-equal scores (the recovery-equivalence guarantee of
//! the storage layer, transported).
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
//!
//! # Cursor and epoch
//!
//! The cursor is the store's `update_seq` — the total number of updates
//! ever committed, monotonic across snapshot rotations. Record *seq* n
//! is the n-th committed update; a follower that has applied n asks for
//! n+1 onward. The *epoch* counts failovers: promoting a follower bumps
//! it durably ([`Store::bump_epoch`](silkmoth_storage::Store)), so a
//! cursor minted under an older epoch — which may index a diverged
//! history — is never silently resumed; the primary answers it with a
//! snapshot instead.
//!
//! # Wire format
//!
//! Protocol version 2, in the storage layer's
//! [envelope](silkmoth_storage::envelope). The follower opens with a
//! 28-byte sealed handshake (`SMRS`, version 2) whose fields are its
//! epoch and its applied seq, `u64` each. The primary answers with
//! frames whose body is `tag u8 | fields`: error (0, UTF-8 message),
//! heartbeat (1, committed seq), record (2, seq + raw WAL payload),
//! snapshot (3, epoch + seq + snapshot-file bytes). An unknown tag is
//! refused by name like an unknown magic or version (version 1's
//! 25-byte handshake included).
//!
//! # Modules
//!
//! - `proto`: the handshake and frame codecs over the envelope.
//! - `source`: primary side — [`stream_updates`] serves one follower
//!   connection from the store's retained log, [`serve_log`] is the TCP
//!   accept loop (it also reports its followers on `/stats` and holds
//!   back the WAL segments their cursors still need), and
//!   [`bootstrap_snapshot`] is the `(seq, state)` cut a bootstrap ships.
//! - `follower`: follower side — [`run_follower`] drives connect /
//!   handshake / replay with bounded backoff, applying through a
//!   [`ServiceSink`]; [`FollowerShared`] exposes live status and stop.

mod follower;
pub(crate) mod proto;
mod source;

pub use follower::{
    run_follower, Connector, FollowerConfig, FollowerShared, FollowerState, FollowerStatus,
    TcpConnector,
};
pub use proto::{write_frame, Frame};
pub(crate) use source::CommitSignal;
pub use source::{bootstrap_snapshot, serve_log, stream_updates, ReplicaServer, StreamerConfig};

use crate::durable::ShardSpec;
use crate::service::SearchService;
use crate::shard::ShardedEngine;
use silkmoth_core::wire::decode_update;
use silkmoth_storage::envelope::EnvelopeError;
use silkmoth_storage::{parse_snapshot, StorageError, StoreConfig, StoreEngine};
use std::fmt;
use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Errors from the replication layer. `Frame` means bytes that don't
/// parse as the protocol (torn, flipped, or foreign traffic); `Protocol`
/// means well-formed frames that violate the session contract (sequence
/// gaps, a primary that compacts under us, an error frame from the
/// peer). Both name what was wrong — the chaos and fuzz harnesses
/// assert on that.
#[derive(Debug)]
pub enum ReplicaError {
    /// An I/O failure, with what was being done at the time.
    Io {
        /// What the operation was trying to do.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// Bytes that do not parse as a protocol frame or handshake.
    Frame(String),
    /// A parseable message that violates the session contract.
    Protocol(String),
    /// A storage-layer failure while applying or serving records.
    Storage(StorageError),
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { context, source } => write!(f, "{context}: {source}"),
            Self::Frame(detail) => write!(f, "bad frame: {detail}"),
            Self::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            Self::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for ReplicaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for ReplicaError {
    fn from(e: StorageError) -> Self {
        Self::Storage(e)
    }
}

/// Bytes the envelope refused are a named `Frame` error; a stream
/// that failed underneath a frame stays an `Io` error.
impl From<EnvelopeError> for ReplicaError {
    fn from(e: EnvelopeError) -> Self {
        match e {
            EnvelopeError::Io(source) => Self::io("read frame")(source),
            refused => Self::Frame(refused.to_string()),
        }
    }
}

impl ReplicaError {
    fn io(context: impl Into<String>) -> impl FnOnce(io::Error) -> Self {
        let context = context.into();
        move |source| Self::Io { context, source }
    }
}

fn not_durable() -> ReplicaError {
    ReplicaError::Protocol("service is not durable; replication needs --data-dir".to_string())
}

/// Where replicated records land: a [`SearchService`]'s durable store,
/// reached through the quiesced accessor — so follower searches
/// serialize with replication exactly as primary searches serialize
/// with local writes.
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

    /// The failover epoch the sink's state was applied under.
    pub fn epoch(&self) -> u64 {
        self.service.store_status().epoch
    }

    /// Total updates applied (the handshake cursor).
    pub fn applied_seq(&self) -> u64 {
        self.service.store_status().update_seq
    }

    /// Replaces all local state with `snapshot`, positioning the sink
    /// at (`seq`, `epoch`).
    fn install_snapshot(&self, snapshot: &[u8], seq: u64, epoch: u64) -> Result<(), ReplicaError> {
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
        self.service
            .restart_store(engine, self.cfg, seq, epoch)
            .ok_or_else(not_durable)?
            .map_err(ReplicaError::Storage)
    }

    /// Applies the record with sequence number `seq`, which advances
    /// [`applied_seq`](Self::applied_seq) by exactly one (the follower
    /// loop has already skipped duplicates and rejected gaps).
    fn apply_record(&self, seq: u64, payload: &[u8]) -> Result<(), ReplicaError> {
        let update = decode_update(payload)
            .map_err(|e| ReplicaError::Protocol(format!("record {seq} does not decode: {e}")))?;
        self.service.quiesced(|store| {
            let (_, report) = store.apply(update).map_err(ReplicaError::Storage)?;
            if report.auto_compacted {
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
