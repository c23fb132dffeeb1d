//! # silkmoth-storage
//!
//! Durable persistence for SilkMoth engines: **snapshots + a
//! write-ahead log** over the existing
//! [`Update`]`::{Append, Remove, Compact}`
//! mutation API, built entirely on `std` (files, `fsync`, atomic
//! rename) like the rest of the workspace.
//!
//! ## On-disk layout
//!
//! A store directory holds exactly one *generation* at a time (plus,
//! transiently, the generation being written):
//!
//! ```text
//! <data-dir>/
//!   snapshot-<seq>.smc    checkpoint: the live sets, dictionary-coded
//!   wal-<seq>-<n>.log     segment <n> of the updates committed after
//!                         snapshot <seq>, one CRC-checked frame each
//! ```
//!
//! Every acknowledged update is **WAL-logged and fsync'd before the
//! in-memory engine mutates** (the commit point) — and the commit
//! point batches: [`Store::commit_batch`] makes any number of
//! concurrently submitted updates durable with one buffered write and
//! one fsync (group commit), then [`Store::apply_committed`] mutates
//! the engine in WAL order. The active segment is sealed at a
//! policy-set size and its successor opened; a [`Store::snapshot`]
//! first creates the next generation's fresh segment 0, then writes
//! the checkpoint to a tempfile, `fsync`s, atomically renames it into
//! place (the instant recovery starts preferring it — its WAL already
//! exists), and only then retires stale files (old snapshots at once;
//! old WAL segments only when no replication cursor still needs them —
//! [`Store::set_retention_hook`]). Crash anywhere ⇒ recovery
//! ([`Store::open`]) loads the newest valid snapshot and replays its
//! segments — decoded and CRC-checked **in parallel**, applied in
//! sequence order, so recovery time is bounded by segment size rather
//! than history; a torn tail (an unacknowledged record interrupted
//! mid-write) is detected by the record CRC and discarded, and is only
//! tolerated in the final, active segment.
//!
//! ## Recovery is differential
//!
//! The recovered engine is **byte-identical** — same ids, same tie
//! order, bit-for-bit equal scores — to an in-memory engine that
//! applied the same committed updates (and hence, by the PR 3
//! equivalence theorem, to a fresh build over the surviving sets).
//! Snapshots record tombstoned slot ids alongside the live sets, so
//! idempotent re-removal and compaction replay exactly; ids are stable
//! across compaction, so a compaction WAL record is the bare update. A
//! committed record the engine rejects on replay is
//! [`StorageError::ReplayDivergence`]. `silkmoth-server`'s
//! `store_recovery.rs`, `wal_robustness.rs` and
//! `recovery_equivalence.rs` enforce this differentially on the engine
//! the server runs, crash included.
//!
//! ## Format versioning
//!
//! Both files — like `silkmoth-server`'s catalog manifest and
//! replication stream — travel in the one [`envelope`]: a magic and a
//! version (snapshot: 3, WAL: 2), then a CRC-32 seal or CRC-checked
//! frames. Readers reject versions they don't know
//! ([`StorageError::Corrupt`]) rather than guessing.
//!
//! ## Replication hooks
//!
//! Every committed update has a global, monotonic sequence number
//! ([`StoreStatus::update_seq`], snapshot base + position in the WAL),
//! and every snapshot records a failover
//! [`epoch`](StoreStatus::epoch). The `replication` module of
//! `silkmoth-server` ships the WAL to followers through three narrow
//! extensions here: a commit-point observer
//! ([`Store::set_commit_hook`]), the retained log
//! ([`Store::retained_log`]), which serves raw committed records after
//! a cursor and never names a file, and snapshot parsing from bytes
//! ([`parse_snapshot`]) for follower bootstrap. Recovery and shipping
//! read segments through one parser, so they agree on every record.
//!
//! The store is generic over [`StoreEngine`], which keeps this crate
//! from depending on the server: `silkmoth-server` implements it for
//! its `ShardedEngine`, whose stable global ids snapshot and restore
//! without renumbering.

mod crc32;
pub mod envelope;
mod snapshot;
mod store;
mod wal;

pub use crc32::crc32;
pub use snapshot::{load_snapshot, parse_snapshot, snapshot_bytes, SnapshotMeta};
pub use store::{
    CommitHook, CommittedBatch, MaintenanceReport, RecoveryReport, RetentionHook, Store,
    StoreConfig, StoreEvent, StoreStatus, TelemetryHook, WalDiscard,
};
pub use wal::RetainedLog;

use silkmoth_collection::{SetIdx, Tokenization, UpdateError};
use silkmoth_core::{ConfigError, Update, UpdateOutcome};

/// Errors from the persistence layer. Everything that can go wrong on
/// disk — corruption, torn files, replay mismatches — is a named
/// variant; the storage layer never panics on untrusted bytes.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the store was doing (path included).
        context: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// A file failed structural validation (magic, version, CRC,
    /// declared counts and lengths, the snapshot payload's coding).
    Corrupt {
        /// The offending file.
        file: String,
        /// What was wrong.
        detail: String,
    },
    /// The directory has snapshot files but none of them validates.
    NoValidSnapshot {
        /// The store directory.
        dir: String,
    },
    /// The directory holds no snapshot at all — it was never
    /// initialized with [`Store::create`].
    NotInitialized {
        /// The store directory.
        dir: String,
    },
    /// [`Store::create`] refused to clobber an existing store.
    AlreadyInitialized {
        /// The store directory.
        dir: String,
    },
    /// The engine rejected the recovered state (e.g. the store's
    /// tokenization does not match the serving configuration).
    Config(ConfigError),
    /// An update was rejected by the engine *before* being logged
    /// (e.g. removing a set id that was never assigned). The store is
    /// unchanged.
    Update(UpdateError),
    /// The engine rejected a committed WAL record, on replay or on its
    /// apply after the commit — the store refuses to serve a silently
    /// divergent engine.
    ReplayDivergence {
        /// Zero-based record index in the WAL.
        record: u64,
        /// What diverged.
        detail: String,
    },
    /// The snapshot's id bookkeeping is internally inconsistent.
    BadState(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { context, source } => write!(f, "{context}: {source}"),
            Self::Corrupt { file, detail } => write!(f, "{file} is corrupt: {detail}"),
            Self::NoValidSnapshot { dir } => {
                write!(f, "no snapshot in {dir} passes validation")
            }
            Self::NotInitialized { dir } => {
                write!(f, "{dir} holds no snapshot (store never created)")
            }
            Self::AlreadyInitialized { dir } => {
                write!(f, "{dir} already holds a store")
            }
            Self::Config(e) => write!(f, "recovered state rejected: {e}"),
            Self::Update(e) => write!(f, "update rejected: {e}"),
            Self::ReplayDivergence { record, detail } => {
                write!(f, "WAL record {record} replayed divergently: {detail}")
            }
            Self::BadState(detail) => write!(f, "inconsistent snapshot state: {detail}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::Config(e) => Some(e),
            Self::Update(e) => Some(e),
            _ => None,
        }
    }
}

impl StorageError {
    pub(crate) fn io(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> Self {
        let context = context.into();
        move |source| Self::Io { context, source }
    }
}

/// A serializable description of an engine's collection state: the
/// live sets by id, the ids of tombstoned (not yet compacted) slots,
/// and the next id to assign — what a snapshot stores and what
/// [`StoreEngine::restore`] rebuilds from. It is dictionary-coded, each
/// distinct text once ([`silkmoth_collection::codec::intern`]), and
/// canonical: the texts are numbered in the order they first occur over
/// the live sets by ascending id, so a state depends only on the live
/// content, never on how an engine splits it.
///
/// Dead ids matter for replay fidelity: removal is idempotent and
/// compaction drops exactly the tombstoned slots, so a restored engine
/// must know *which* slots were tombstoned even though their contents
/// are gone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineState {
    /// The distinct element texts of the live sets.
    pub texts: Vec<String>,
    /// `(id, elements as indices into texts)` for every live set,
    /// ascending by id.
    pub live: Vec<(SetIdx, Vec<u32>)>,
    /// Ids of tombstoned slots, ascending.
    pub dead: Vec<SetIdx>,
    /// The next id the engine would assign to an appended set.
    pub next_id: SetIdx,
    /// The tokenization the engine's collection was built with.
    pub tokenization: Tokenization,
}

impl EngineState {
    /// Structural validation: both id lists strictly ascending,
    /// mutually disjoint, and below `next_id`; every text index below
    /// the text count, every text used, and the texts numbered in
    /// first-occurrence order. (That the texts are distinct is not
    /// checked, which would hash every text.)
    pub fn validate(&self) -> Result<(), StorageError> {
        let bad = |detail: String| Err(StorageError::BadState(detail));
        if let Some(w) = self.live.windows(2).find(|w| w[0].0 >= w[1].0) {
            return bad(format!("live id {} out of order", w[1].0));
        }
        if let Some(w) = self.dead.windows(2).find(|w| w[0] >= w[1]) {
            return bad(format!("dead id {} out of order", w[1]));
        }
        let mut dead = self.dead.iter().peekable();
        let mut seen = 0;
        for (id, set) in &self.live {
            while dead.next_if(|&d| d < id).is_some() {}
            if dead.peek() == Some(&id) {
                return bad(format!("id {id} is both live and dead"));
            }
            for &t in set {
                if t as usize >= self.texts.len() {
                    return bad(format!("set {id} names text {t} of {}", self.texts.len()));
                }
                if t > seen {
                    return bad(format!("set {id} names text {t} before text {seen}"));
                }
                seen += u32::from(t == seen);
            }
        }
        if (seen as usize) < self.texts.len() {
            return bad(format!("text {seen} is in no live set"));
        }
        if let Some(&id) = self
            .live
            .iter()
            .map(|(id, _)| id)
            .chain(&self.dead)
            .find(|&&id| id >= self.next_id)
        {
            return bad(format!("id {id} is not below next id {}", self.next_id));
        }
        Ok(())
    }
}

/// An engine a [`Store`] can persist: it can describe its collection as
/// an [`EngineState`], be rebuilt from one, and pre-validate updates so
/// nothing unreplayable is ever logged.
///
/// The contract the recovery harnesses enforce: for any update sequence
/// `u1…un`, `restore(spec, capture(e))` followed by replaying `uk…un`
/// yields an engine whose search/discover output is byte-identical to
/// `e` after applying `u1…un` directly (where the capture happened
/// after `u1…u(k-1)`).
pub trait StoreEngine: Sized + Send {
    /// Everything needed to rebuild the engine besides the data itself
    /// (configuration, shard count, …) — supplied by the caller at
    /// [`Store::open`], not stored on disk.
    type Spec;

    /// Rebuilds the engine from a recovered state.
    fn restore(spec: &Self::Spec, state: EngineState) -> Result<Self, StorageError>;

    /// Captures the current collection state for a snapshot.
    fn capture(&self) -> EngineState;

    /// Verifies `update` would be accepted, without mutating anything.
    /// [`Store::apply`] calls this *before* writing the WAL record so a
    /// rejected update (unknown id) is never logged — WAL records must
    /// always replay.
    fn check_update(&self, update: &Update) -> Result<(), UpdateError>;

    /// Applies one update (the engine's own `apply`).
    fn apply_update(&mut self, update: Update) -> Result<UpdateOutcome, UpdateError>;

    /// Live (non-tombstoned) sets.
    fn live_len(&self) -> usize;

    /// Total set slots (live + tombstoned) — with
    /// [`live_len`](Self::live_len), the input to
    /// [`CompactionPolicy`](silkmoth_core::CompactionPolicy).
    fn slot_len(&self) -> usize;
}
