//! WAL-shipping replication for silkmoth stores.
//!
//! A primary exposes its storage WAL as a versioned, length-prefixed,
//! CRC-checked record stream over TCP ([`serve_log`]). A follower
//! connects with a cursor — the count of updates it has already
//! applied plus the failover epoch it applied them under — and the
//! primary either resumes streaming raw WAL records from that point or,
//! when the cursor predates the oldest retained WAL generation (or
//! belongs to a different epoch), sends a full snapshot to bootstrap
//! from. The follower replays records through the same
//! [`Store`](silkmoth_storage::Store) commit path the primary used, so
//! a caught-up follower is *byte-identical* to the primary: same ids,
//! same tie order, bit-equal scores (the recovery-equivalence guarantee
//! of the storage layer, transported).
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
//! All integers little-endian. The follower opens with a 25-byte
//! handshake: magic `"SMRS"`, version byte (currently
//! [`PROTOCOL_VERSION`]), epoch `u64`, applied seq `u64`, CRC-32 of the
//! preceding 21 bytes. The primary then sends frames:
//! `tag u8 | body_len u32 | crc32(tag + body) u32 | body`. Tags:
//! error (0, UTF-8 message), heartbeat (1, committed seq), record
//! (2, seq + raw WAL payload), snapshot (3, epoch + seq + bytes in the
//! storage snapshot-file format). Unknown magic, versions, and tags are
//! rejected by name; a version bump is required for any layout change.
//!
//! # Modules
//!
//! - `proto`: the framing itself — encode/decode, CRC, length caps.
//! - `source`: primary side — the [`ReplicationSource`] trait,
//!   [`store_records_after`] to serve a cursor from a store's retained
//!   WAL, [`stream_updates`] for one follower connection, [`serve_log`]
//!   for the TCP accept loop, and [`CommitSignal`] to wake streamers at
//!   the store's commit point.
//! - `follower`: follower side — [`run_follower`] drives connect /
//!   handshake / replay with bounded backoff, applying through a
//!   [`ReplicaSink`]; [`FollowerShared`] exposes live status and stop.
//!
//! The source and sink the server runs over its durable store are
//! `silkmoth-server`'s `ServiceSource` and `ServiceSink`; this crate
//! holds no second implementation of either, so its chaos harness
//! (`replica_chaos.rs`) lives in that crate and drives the real pair
//! over the [`sim_duplex`] fault transport.
//! - `sim`: a deterministic in-process duplex transport with seeded
//!   faults (delays, cuts mid-record, byte flips) for chaos tests.
//! - `telemetry`: [`FollowerMetrics`] — replication lag / connect /
//!   bootstrap gauges refreshed from a [`FollowerStatus`] at scrape
//!   time, so the replication loop itself stays metrics-free.

mod follower;
mod proto;
mod sim;
mod source;
mod telemetry;

pub use follower::{
    run_follower, Connector, FollowerConfig, FollowerShared, FollowerState, FollowerStatus,
    ReplicaSink, TcpConnector,
};
pub use proto::{
    read_frame, read_handshake, write_frame, write_handshake, Frame, Handshake, PROTOCOL_VERSION,
};
pub use sim::{sim_duplex, FaultPlan, SimStream};
pub use source::{
    serve_log, store_records_after, stream_updates, CommitSignal, CursorHandle, CursorTracker,
    ReplicaServer, ReplicationSource, StreamerConfig,
};
pub use telemetry::FollowerMetrics;

use silkmoth_storage::StorageError;
use std::fmt;
use std::io;

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

impl ReplicaError {
    pub(crate) fn io(context: impl Into<String>) -> impl FnOnce(io::Error) -> Self {
        let context = context.into();
        move |source| Self::Io { context, source }
    }
}
