//! The durable store: an engine plus its snapshot/WAL generation on
//! disk, with crash recovery and policy-driven auto-compaction and
//! auto-snapshots. See the crate docs for the layout and guarantees.
//!
//! The commit path is split in two so callers can group-commit:
//! [`Store::commit_batch`] (shared `&self`; serializes on an internal
//! mutex) makes a batch of updates durable with one buffered write and
//! one fsync, and [`Store::apply_committed`] (exclusive `&mut self`)
//! mutates the engine in WAL order. [`Store::apply`] composes the two
//! for the single-writer case and runs policy maintenance afterwards —
//! whose failures are *reported in the receipt*, never surfaced as an
//! error for an update that already committed (an error after the
//! commit point would make the caller retry a durable update).
//!
//! [`Store::in_memory`] runs the same two phases with no directory and
//! no WAL: a commit only numbers the batch, so the sequence numbers,
//! the commit hook and policy auto-compaction behave exactly as on disk.

use std::fmt;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use silkmoth_core::wire::{decode_update, encode_update};
use silkmoth_core::{CompactionPolicy, Update, UpdateOutcome};

use crate::snapshot::{load_snapshot, snapshot_bytes, SnapshotMeta};
use crate::wal::{list_segments, segment_path, ParsedHeader, RetainedLog, Segment, WalWriter};
use crate::{StorageError, StoreEngine};

/// Store configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Fsync every commit batch before acknowledging it (the durability
    /// guarantee). Disable only for tests or bulk loads that accept
    /// losing the tail on a crash.
    pub sync: bool,
    /// When to auto-compact (tombstone ratio), auto-snapshot (WAL
    /// length), and seal WAL segments (segment size).
    /// [`CompactionPolicy::DISABLED`] turns all three off.
    pub policy: CompactionPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            sync: true,
            policy: CompactionPolicy::DISABLED,
        }
    }
}

/// A torn or corrupt WAL suffix discarded during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalDiscard {
    /// Byte offset where the valid prefix ends.
    pub offset: u64,
    /// How many bytes were discarded.
    pub bytes: u64,
    /// Why reading stopped.
    pub reason: String,
}

/// What [`Store::open`] recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The generation that was loaded.
    pub snapshot_seq: u64,
    /// Committed WAL records replayed on top of the snapshot.
    pub wal_replayed: u64,
    /// Discarded torn/corrupt WAL suffix, if any.
    pub wal_discarded: Option<WalDiscard>,
    /// Newer snapshot generations that failed validation, were skipped,
    /// and were quarantined (renamed `*.corrupt`) — 0 in healthy
    /// operation, and 0 again on the next open because of the
    /// quarantine.
    pub snapshots_skipped: u64,
}

/// What [`Store::maintain`] did — and [`Store::apply`] beyond the
/// update itself. Maintenance runs after the caller's update is already
/// durable, so its failures are reported here instead of as an `Err`:
/// the update **is committed and applied**, and callers must
/// acknowledge it as a success (at most flagged degraded) and must not
/// retry, or a non-idempotent update would be applied twice.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MaintenanceReport {
    /// The policy triggered an automatic [`Update::Compact`].
    pub auto_compacted: bool,
    /// The policy triggered an automatic snapshot; the new generation.
    pub auto_snapshot: Option<u64>,
    /// The first maintenance step that failed, if any.
    pub error: Option<String>,
}

/// A batch of updates made durable by [`Store::commit_batch`] but not
/// yet applied to the engine. Every batch must be passed to
/// [`Store::apply_committed`], in commit order — a committed batch that
/// is never applied (or applied out of order) leaves the engine behind
/// the WAL, which recovery would then "repair" into a different state
/// than the one that served reads.
#[must_use = "a committed batch must be applied to the engine with apply_committed"]
#[derive(Debug)]
pub struct CommittedBatch {
    updates: Vec<Update>,
    first_seq: u64,
}

impl CommittedBatch {
    /// Records in the batch.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Always false — empty batches are rejected at commit.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }
}

/// An observer of the store's commit point, installed with
/// [`Store::set_commit_hook`]: called with the new total committed
/// update count immediately after every durable commit batch (caller
/// updates and policy-driven auto-actions alike). Replication uses it
/// to wake streamers without polling. The hook runs on the committing
/// thread while the store's commit lock is held, so it must not call
/// back into the store or block.
#[derive(Clone)]
pub struct CommitHook(Arc<dyn Fn(u64) + Send + Sync>);

impl CommitHook {
    /// Wraps a callback.
    pub fn new(f: impl Fn(u64) + Send + Sync + 'static) -> Self {
        Self(Arc::new(f))
    }
}

impl fmt::Debug for CommitHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CommitHook(..)")
    }
}

/// Tells the store the oldest update sequence any replication cursor
/// still needs, installed with [`Store::set_retention_hook`]: sealed
/// WAL segments already covered by the current snapshot are retired
/// only once their records fall at or below the returned floor. Return
/// `u64::MAX` when no cursor is outstanding (everything covered by the
/// snapshot may go). Called during rotation/retirement with the commit
/// lock possibly held, so it must not call back into the store or
/// block.
#[derive(Clone)]
pub struct RetentionHook(Arc<dyn Fn() -> u64 + Send + Sync>);

impl RetentionHook {
    /// Wraps a callback.
    pub fn new(f: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        Self(Arc::new(f))
    }
}

impl fmt::Debug for RetentionHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RetentionHook(..)")
    }
}

/// One observable store event, delivered to the [`TelemetryHook`].
///
/// The variants carry everything a metrics layer needs so the store
/// itself depends on no telemetry crate — the hook owner translates
/// events into whatever counters and histograms it keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreEvent {
    /// One batch of records was durably committed: how many records it
    /// held, and how long the single buffered write and the single
    /// fsync took (`sync` is **exactly zero** when the store runs
    /// fsync-less).
    CommitBatch {
        records: u64,
        write: Duration,
        sync: Duration,
    },
    /// A snapshot generation was written (explicit or automatic).
    Snapshot,
    /// The policy triggered an automatic compaction.
    AutoCompaction,
    /// The policy triggered an automatic snapshot.
    AutoSnapshot,
}

/// An observer of store I/O for metrics, installed with
/// [`Store::set_telemetry_hook`] — the telemetry twin of
/// [`CommitHook`]. Called on the committing thread while the store is
/// borrowed, so it must not call back into the store or block; it is
/// never on the durability path (events fire only after the store has
/// already committed or completed the action they describe).
#[derive(Clone)]
pub struct TelemetryHook(Arc<dyn Fn(StoreEvent) + Send + Sync>);

impl TelemetryHook {
    /// Wraps a callback.
    pub fn new(f: impl Fn(StoreEvent) + Send + Sync + 'static) -> Self {
        Self(Arc::new(f))
    }

    /// Invokes the callback with one event.
    pub fn fire(&self, event: StoreEvent) {
        (self.0)(event);
    }
}

impl fmt::Debug for TelemetryHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TelemetryHook(..)")
    }
}

/// Live observability counters for `/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStatus {
    /// Current snapshot generation.
    pub snapshot_seq: u64,
    /// Records in the current generation's WAL (across all its
    /// segments).
    pub wal_records: u64,
    /// Total committed updates across all generations — the global,
    /// monotonic sequence number of the most recent WAL record (0 when
    /// none were ever committed). Record `i` (zero-based) of the
    /// current generation's WAL has sequence
    /// `update_seq - wal_records + i + 1`.
    pub update_seq: u64,
    /// Failover epoch this store's history belongs to (see
    /// [`Store::bump_epoch`]).
    pub epoch: u64,
    /// Whether the most recent WAL fsync (or fsync-less append)
    /// succeeded — `false` means the last update was **not** durably
    /// acknowledged.
    pub last_fsync_ok: bool,
    /// Segments in the current generation's WAL (the active one plus
    /// any sealed earlier ones).
    pub wal_segments: u32,
}

/// The mutable commit-path state, behind a mutex so
/// [`Store::commit_batch`] can run with `&self` — concurrent
/// committers serialize here (and nowhere else), which is what lets
/// the server fsync outside its engine write lock.
#[derive(Debug)]
struct CommitState {
    /// `None` for an in-memory store, which logs nothing.
    wal: Option<WalWriter>,
    /// Current snapshot generation.
    seq: u64,
    /// Index of the active WAL segment within the generation.
    segment_index: u32,
    /// Records committed in the current generation (all segments).
    wal_records: u64,
    /// Global committed-update sequence.
    update_seq: u64,
    last_fsync_ok: bool,
}

impl CommitState {
    /// Generation 0 with nothing committed in it yet, `update_seq`
    /// updates into the history.
    fn fresh(wal: Option<WalWriter>, update_seq: u64) -> Self {
        Self {
            wal,
            seq: 0,
            segment_index: 0,
            wal_records: 0,
            update_seq,
            last_fsync_ok: true,
        }
    }

    /// Marks the last commit failed; a WAL refuses every later append
    /// until the store is reopened.
    fn poison(&mut self, why: String) {
        if let Some(wal) = &mut self.wal {
            wal.poison(why);
        }
        self.last_fsync_ok = false;
    }
}

/// A durable engine: every acknowledged update is WAL-logged (fsync'd)
/// *before* the in-memory engine mutates, and
/// [`snapshot`](Store::snapshot) checkpoints + rotates generations
/// atomically. Generic over [`StoreEngine`].
///
/// A store built with [`in_memory`](Store::in_memory) has no directory
/// and no WAL. Its commits number their batches and run the commit hook;
/// they write nothing and emit no [`StoreEvent::CommitBatch`]. Policy
/// auto-compaction is committed and applied as on disk, and fires
/// [`StoreEvent::AutoCompaction`]; the snapshot and segment policies do
/// nothing, and [`snapshot`](Store::snapshot) /
/// [`bump_epoch`](Store::bump_epoch) fail by name.
#[derive(Debug)]
pub struct Store<E: StoreEngine> {
    /// `None` for an in-memory store.
    dir: Option<PathBuf>,
    cfg: StoreConfig,
    engine: E,
    commit: Mutex<CommitState>,
    epoch: u64,
    commit_hook: Option<CommitHook>,
    telemetry_hook: Option<TelemetryHook>,
    retention_hook: Option<RetentionHook>,
}

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snapshot-{seq}.smc"))
}

/// A file of a store directory, by its name: `snapshot-<g>.smc`,
/// `wal-<g>-<n>.log` (segment `n` of generation `g`), a version-1 log
/// `wal-<g>.log`, or a `*.tmp` left by an interrupted snapshot write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StoreFile {
    Snapshot(u64),
    Segment(u64, u32),
    V1Wal,
    Temp,
}

impl StoreFile {
    fn parse(name: &str) -> Option<Self> {
        if name.ends_with(".tmp") {
            return Some(Self::Temp);
        }
        if let Some(g) = name.strip_prefix("snapshot-") {
            return g.strip_suffix(".smc")?.parse().ok().map(Self::Snapshot);
        }
        let body = name.strip_prefix("wal-")?.strip_suffix(".log")?;
        match body.split_once('-') {
            Some((g, n)) => Some(Self::Segment(g.parse().ok()?, n.parse().ok()?)),
            None => body.parse::<u64>().ok().map(|_| Self::V1Wal),
        }
    }
}

/// Every store file in `dir` — the one listing of a store directory.
pub(crate) fn list_files(dir: &Path) -> Result<Vec<(PathBuf, StoreFile)>, StorageError> {
    let listing = || StorageError::io(format!("listing {}", dir.display()));
    let mut files = Vec::new();
    for entry in fs::read_dir(dir).map_err(listing())? {
        let entry = entry.map_err(listing())?;
        if let Some(file) = entry.file_name().to_str().and_then(StoreFile::parse) {
            files.push((entry.path(), file));
        }
    }
    Ok(files)
}

/// All snapshot generation numbers present in `dir`, descending.
fn list_generations(dir: &Path) -> Result<Vec<u64>, StorageError> {
    let mut seqs: Vec<u64> = list_files(dir)?
        .into_iter()
        .filter_map(|(_, file)| match file {
            StoreFile::Snapshot(g) => Some(g),
            _ => None,
        })
        .collect();
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    Ok(seqs)
}

/// Fsyncs the directory itself so renames and creations inside it are
/// durable (no-op on platforms where directories cannot be opened).
fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    #[cfg(unix)]
    {
        let f = File::open(dir).map_err(StorageError::io(format!("opening {}", dir.display())))?;
        f.sync_all()
            .map_err(StorageError::io(format!("fsyncing {}", dir.display())))?;
    }
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

impl<E: StoreEngine> Store<E> {
    /// Initializes a fresh store in `dir` (created if missing) from an
    /// already-built engine: writes generation 0 (snapshot + empty WAL
    /// segment) and returns the running store. Refuses to clobber a
    /// directory that already holds a store.
    pub fn create(
        dir: impl Into<PathBuf>,
        engine: E,
        cfg: StoreConfig,
    ) -> Result<Self, StorageError> {
        Self::create_continuing(dir, engine, cfg, 0, 0)
    }

    /// Like [`create`](Self::create), but the update-sequence counter
    /// and failover epoch continue from an existing replicated history
    /// instead of zero — what a follower does when it installs a
    /// primary's bootstrap snapshot. The engine passed in must already
    /// reflect the first `update_seq` committed updates of epoch
    /// `epoch`.
    pub fn create_continuing(
        dir: impl Into<PathBuf>,
        engine: E,
        cfg: StoreConfig,
        update_seq: u64,
        epoch: u64,
    ) -> Result<Self, StorageError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(StorageError::io(format!("creating {}", dir.display())))?;
        if !list_generations(&dir)?.is_empty() {
            return Err(StorageError::AlreadyInitialized {
                dir: dir.display().to_string(),
            });
        }
        let meta = SnapshotMeta {
            seq: 0,
            update_seq,
            epoch,
        };
        let wal = write_generation(&dir, meta, &engine)?;
        sync_dir(&dir)?;
        let state = CommitState::fresh(Some(wal), update_seq);
        Ok(Self::assemble(Some(dir), engine, cfg, state, epoch))
    }

    /// A store with no directory and no WAL over an already-built
    /// engine, at sequence 0 of epoch 0 (see the type docs for what it
    /// does and does not do). It touches no file.
    pub fn in_memory(engine: E, cfg: StoreConfig) -> Self {
        Self::assemble(None, engine, cfg, CommitState::fresh(None, 0), 0)
    }

    /// What every constructor ends in: a store with no hooks installed
    /// and no policy action taken yet.
    fn assemble(
        dir: Option<PathBuf>,
        engine: E,
        cfg: StoreConfig,
        state: CommitState,
        epoch: u64,
    ) -> Self {
        Self {
            dir,
            cfg,
            engine,
            commit: Mutex::new(state),
            epoch,
            commit_hook: None,
            telemetry_hook: None,
            retention_hook: None,
        }
    }

    /// Recovers a store from `dir`: loads the newest snapshot that
    /// validates, replays its WAL's committed records — decoding and
    /// CRC-checking every segment **in parallel**, then applying in
    /// sequence order — truncates any torn tail in the final segment,
    /// quarantines skipped newer generations, and retires stale
    /// generations. `spec` supplies what the snapshot doesn't store
    /// (engine configuration, shard count).
    ///
    /// Structural damage in the final (active) segment falls back
    /// (older generation, shorter WAL prefix) and is reported.
    /// *Semantic* damage — a record that replays divergently, a torn
    /// tail in a **sealed** segment, a segment whose base sequence
    /// doesn't continue the log (a missing or reordered file), a
    /// configuration that rejects the data, a WAL of another format
    /// version (a version-1 `wal-<g>.log` included) — is a hard error,
    /// because serving anyway would silently diverge or drop committed
    /// records.
    pub fn open(
        dir: impl Into<PathBuf>,
        spec: &E::Spec,
        cfg: StoreConfig,
    ) -> Result<(Self, RecoveryReport), StorageError> {
        let dir = dir.into();
        let generations = if dir.is_dir() {
            list_generations(&dir)?
        } else {
            Vec::new()
        };
        if generations.is_empty() {
            return Err(StorageError::NotInitialized {
                dir: dir.display().to_string(),
            });
        }
        let mut skipped_gens: Vec<u64> = Vec::new();
        for &seq in &generations {
            let path = snapshot_path(&dir, seq);
            let (meta, state) = match load_snapshot(&path) {
                Ok((meta, state)) if meta.seq == seq => (meta, state),
                // A snapshot whose header seq disagrees with its file
                // name is as untrustworthy as a bad CRC: skip it.
                Ok(_) | Err(StorageError::Corrupt { .. }) | Err(StorageError::BadState(_)) => {
                    skipped_gens.push(seq);
                    continue;
                }
                Err(e) => return Err(e),
            };
            let mut engine = E::restore(spec, state)?;

            // The generation's log catalog, in replay order: every
            // segment by index.
            let mut catalog: Vec<(PathBuf, u32)> = list_segments(&dir)?
                .into_iter()
                .filter(|info| info.generation == seq)
                .map(|info| (info.path, info.segment))
                .collect();
            catalog.sort_unstable_by_key(|&(_, index)| index);

            // Decode and CRC-check every file in parallel, in catalog
            // order chunk by chunk.
            let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
            let chunk = catalog.len().div_ceil(workers).max(1);
            let replays: Vec<Result<Replay, StorageError>> = std::thread::scope(|scope| {
                let decoders: Vec<_> = catalog
                    .chunks(chunk)
                    .map(|files| {
                        scope.spawn(move || {
                            let decode = |(path, _): &(PathBuf, u32)| Replay::decode(path, seq);
                            files.iter().map(decode).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                decoders
                    .into_iter()
                    .flat_map(|decoder| decoder.join().expect("a segment decoder panicked"))
                    .collect()
            });

            // Stitch the replays back together in order, checking that
            // each segment continues the log exactly where the previous
            // one left off.
            let mut entries = Vec::new();
            let mut expected = meta.update_seq;
            let mut discarded = None;
            let mut active: Option<(PathBuf, u32, u64, u64)> = None;
            let files = catalog.len();
            for (i, ((path, name_seg), replay)) in catalog.into_iter().zip(replays).enumerate() {
                let replay = replay?;
                let is_last = i + 1 == files;
                if let Some(d) = replay.discarded {
                    if !is_last {
                        // New segments are created only after a fully
                        // committed append, so a sealed segment can
                        // never legitimately end torn.
                        return Err(StorageError::Corrupt {
                            file: path.display().to_string(),
                            detail: format!("torn tail in a sealed WAL segment: {}", d.reason),
                        });
                    }
                    discarded = Some(d);
                }
                if let Some(ParsedHeader {
                    segment: got,
                    base_seq: base,
                    ..
                }) = replay.header
                {
                    if got != name_seg {
                        return Err(StorageError::Corrupt {
                            file: path.display().to_string(),
                            detail: format!(
                                "segment header index {got} disagrees with file name ({name_seg})"
                            ),
                        });
                    }
                    if base != expected {
                        return Err(StorageError::Corrupt {
                            file: path.display().to_string(),
                            detail: format!(
                                "segment base {base} does not continue the log at {expected} \
                                 (missing or reordered segments)"
                            ),
                        });
                    }
                }
                let records = replay.entries.len() as u64;
                expected += records;
                entries.extend(replay.entries);
                if is_last {
                    active = Some((path, name_seg, replay.valid_len, records));
                }
            }

            // Apply in sequence order.
            let replayed = entries.len() as u64;
            for (i, update) in entries.into_iter().enumerate() {
                engine
                    .apply_update(update)
                    .map_err(|e| StorageError::ReplayDivergence {
                        record: i as u64,
                        detail: format!("engine rejected committed update: {e}"),
                    })?;
            }

            // Set up the active writer.
            let update_seq = meta.update_seq + replayed;
            let (wal, segment_index) = match active {
                None => {
                    // The WAL is created (and fsync'd) before its
                    // snapshot is renamed into place, so a missing WAL
                    // can only mean an externally pruned file — with
                    // zero committed records to lose, recreate it empty.
                    let w =
                        WalWriter::create(&segment_path(&dir, seq, 0), seq, 0, meta.update_seq)?;
                    sync_dir(&dir)?;
                    (w, 0)
                }
                Some((path, idx, valid_len, records)) => {
                    let base = update_seq - records;
                    let w = WalWriter::reopen(&path, seq, idx, base, valid_len)?;
                    (w, idx)
                }
            };

            let state = CommitState {
                wal: Some(wal),
                seq,
                segment_index,
                wal_records: replayed,
                update_seq,
                last_fsync_ok: true,
            };
            let store = Self::assemble(Some(dir.clone()), engine, cfg, state, meta.epoch);
            let skipped = skipped_gens.len() as u64;
            Self::quarantine_generations(&dir, &skipped_gens);
            store.retire_stale_files(&dir, seq);
            return Ok((
                store,
                RecoveryReport {
                    snapshot_seq: seq,
                    wal_replayed: replayed,
                    wal_discarded: discarded,
                    snapshots_skipped: skipped,
                },
            ));
        }
        Err(StorageError::NoValidSnapshot {
            dir: dir.display().to_string(),
        })
    }

    /// The recovered/served engine (all mutation goes through
    /// [`apply`](Self::apply) / [`apply_committed`](Self::apply_committed)
    /// so it is WAL-logged — hence no `&mut` accessor).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The store directory (empty for an in-memory store).
    pub fn dir(&self) -> &Path {
        self.dir.as_deref().unwrap_or(Path::new(""))
    }

    /// Whether the store lives in a directory, behind a WAL (false for
    /// [`in_memory`](Self::in_memory)).
    pub fn is_durable(&self) -> bool {
        self.dir.is_some()
    }

    fn commit_state(&self) -> MutexGuard<'_, CommitState> {
        self.commit.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current generation + WAL counters.
    pub fn status(&self) -> StoreStatus {
        let state = self.commit_state();
        StoreStatus {
            snapshot_seq: state.seq,
            wal_records: state.wal_records,
            update_seq: state.update_seq,
            epoch: self.epoch,
            last_fsync_ok: state.last_fsync_ok,
            wal_segments: state.segment_index + 1,
        }
    }

    /// The retained WAL up to the records committed now — what
    /// replication ships (`None` for an in-memory store). The handle
    /// pairs with whatever was read under the same hold of the store;
    /// its reads take no lock.
    pub fn retained_log(&self) -> Option<RetainedLog> {
        Some(RetainedLog {
            dir: self.dir.clone()?,
            committed: self.commit_state().update_seq,
        })
    }

    /// Installs (or replaces) the commit-point observer; see
    /// [`CommitHook`].
    pub fn set_commit_hook(&mut self, hook: CommitHook) {
        self.commit_hook = Some(hook);
    }

    /// Installs (or replaces) the store-event observer; see
    /// [`TelemetryHook`].
    pub fn set_telemetry_hook(&mut self, hook: TelemetryHook) {
        self.telemetry_hook = Some(hook);
    }

    /// Installs (or replaces) the segment-retention floor; see
    /// [`RetentionHook`].
    pub fn set_retention_hook(&mut self, hook: RetentionHook) {
        self.retention_hook = Some(hook);
    }

    fn emit(&self, event: StoreEvent) {
        if let Some(hook) = &self.telemetry_hook {
            hook.fire(event);
        }
    }

    fn retention_floor(&self) -> u64 {
        self.retention_hook
            .as_ref()
            .map(|hook| (hook.0)())
            .unwrap_or(u64::MAX)
    }

    /// Applies one update durably: pre-validates it, commits it (WAL
    /// append + fsync — an error here means the update is **not**
    /// acknowledged), mutates the engine, then runs policy maintenance.
    /// Maintenance failures do **not** fail the call — the update is
    /// already durable by then — they are reported in the
    /// [`MaintenanceReport`].
    pub fn apply(
        &mut self,
        update: Update,
    ) -> Result<(UpdateOutcome, MaintenanceReport), StorageError> {
        self.engine
            .check_update(&update)
            .map_err(StorageError::Update)?;
        let batch = self.commit_batch(vec![update])?;
        let mut outcomes = self.apply_committed(batch)?;
        let outcome = outcomes.pop().expect("one update was committed");
        Ok((outcome, self.maintain()))
    }

    /// Makes a batch of updates durable with **one** buffered WAL write
    /// and **one** fsync — the amortized group-commit point — and
    /// returns the batch for [`apply_committed`](Self::apply_committed).
    /// Concurrent committers serialize on the store's internal commit
    /// lock only, so this runs with `&self` (the server calls it under
    /// its shared engine lock: the fsync never blocks searches).
    ///
    /// The caller's contract:
    /// * every update must already be validated against the engine
    ///   state it will apply to (via [`StoreEngine::check_update`] or a
    ///   batch-aware equivalent) — a committed record that the engine
    ///   then rejects is unrecoverable divergence;
    /// * the engine must not mutate between this call and the matching
    ///   `apply_committed`, and batches must be applied in commit
    ///   order;
    /// * [`Update::Compact`] must be committed **alone**: compaction
    ///   drops tombstoned ids for good, so the updates behind it must be
    ///   validated against the post-compaction engine, in a later batch.
    ///
    /// An in-memory store only numbers the batch and runs the commit
    /// hook: it encodes nothing and emits no [`StoreEvent::CommitBatch`].
    pub fn commit_batch(&self, updates: Vec<Update>) -> Result<CommittedBatch, StorageError> {
        if updates.is_empty() {
            return Err(StorageError::BadState("empty commit batch".into()));
        }
        if updates.len() > 1 && updates.iter().any(|u| matches!(u, Update::Compact)) {
            return Err(StorageError::BadState(
                "Update::Compact must be committed in a batch of its own".into(),
            ));
        }
        let records = updates.len() as u64;
        let mut guard = self.commit_state();
        let state = &mut *guard;
        if let Some(wal) = &mut state.wal {
            let payloads: Vec<Vec<u8>> = updates
                .iter()
                .map(|update| {
                    let mut payload = Vec::new();
                    encode_update(update, &mut payload);
                    payload
                })
                .collect();
            let timing = match wal.append_many(&payloads, self.cfg.sync) {
                Ok(timing) => timing,
                Err(e) => {
                    state.last_fsync_ok = false;
                    return Err(e);
                }
            };
            state.last_fsync_ok = true;
            state.wal_records += records;
            self.emit(StoreEvent::CommitBatch {
                records,
                write: timing.write,
                sync: timing.sync,
            });
        }
        state.update_seq += records;
        let last_seq = state.update_seq;
        if let Some(hook) = &self.commit_hook {
            (hook.0)(last_seq);
        }
        if let (Some(dir), Some(wal)) = (&self.dir, &state.wal) {
            if self.cfg.policy.should_seal(wal.committed_len()) {
                self.seal_active_segment(dir, state);
            }
        }
        drop(guard);
        Ok(CommittedBatch {
            updates,
            first_seq: last_seq - records + 1,
        })
    }

    /// Seals the active segment by opening its successor; the old file
    /// is simply no longer written to. Sealing is advisory (the batch
    /// that triggered it is already committed), but a half-created
    /// successor would make the current segment look sealed to
    /// recovery — which then treats any torn tail in it as hard
    /// corruption — so a failed seal must not leave the new file
    /// behind.
    fn seal_active_segment(&self, dir: &Path, state: &mut CommitState) {
        let next = state.segment_index + 1;
        let path = segment_path(dir, state.seq, next);
        let created = WalWriter::create(&path, state.seq, next, state.update_seq)
            .and_then(|w| sync_dir(dir).map(|()| w));
        match created {
            Ok(w) => {
                state.wal = Some(w);
                state.segment_index = next;
                self.retire_stale_files(dir, state.seq);
            }
            Err(why) => {
                if fs::remove_file(&path).is_err() && path.exists() {
                    state.poison(format!("segment seal left a partial successor: {why}"));
                }
            }
        }
    }

    /// Mutates the engine with a batch committed by
    /// [`commit_batch`](Self::commit_batch), in WAL order, returning
    /// one outcome per update. An engine rejection here is
    /// unrecoverable — the WAL already holds the record — so
    /// the store poisons its commit path (no further update can be
    /// acknowledged into a history recovery cannot reproduce) and
    /// returns a hard error.
    pub fn apply_committed(
        &mut self,
        batch: CommittedBatch,
    ) -> Result<Vec<UpdateOutcome>, StorageError> {
        let first_seq = batch.first_seq;
        let mut outcomes = Vec::with_capacity(batch.updates.len());
        for (i, update) in batch.updates.into_iter().enumerate() {
            let record = first_seq + i as u64;
            match self.engine.apply_update(update) {
                Ok(outcome) => outcomes.push(outcome),
                Err(e) => {
                    self.poison_commits(format!("committed record {record} rejected: {e}"));
                    return Err(StorageError::ReplayDivergence {
                        record,
                        detail: format!("engine rejected committed update: {e}"),
                    });
                }
            }
        }
        Ok(outcomes)
    }

    fn poison_commits(&mut self, why: String) {
        self.commit
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .poison(why);
    }

    /// Runs the configured policy's post-commit maintenance: an
    /// automatic [`Update::Compact`] when the tombstone ratio is over
    /// threshold, then an automatic snapshot when the WAL is long
    /// enough. Failures are reported in the [`MaintenanceReport`].
    pub fn maintain(&mut self) -> MaintenanceReport {
        let mut report = MaintenanceReport::default();
        if self
            .cfg
            .policy
            .should_compact(self.engine.live_len(), self.engine.slot_len())
        {
            let compacted = self
                .engine
                .check_update(&Update::Compact)
                .map_err(StorageError::Update)
                .and_then(|()| self.commit_batch(vec![Update::Compact]))
                .and_then(|batch| self.apply_committed(batch));
            match compacted {
                Ok(_) => {
                    self.emit(StoreEvent::AutoCompaction);
                    report.auto_compacted = true;
                }
                Err(e) => {
                    report.error = Some(format!("auto-compaction failed: {e}"));
                    return report;
                }
            }
        }
        // An in-memory store has no WAL records, so it never snapshots.
        let wal_records = self
            .commit
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .wal_records;
        if self.cfg.policy.should_snapshot(wal_records) {
            match self.snapshot() {
                Ok(seq) => {
                    self.emit(StoreEvent::AutoSnapshot);
                    report.auto_snapshot = Some(seq);
                }
                Err(e) => {
                    report.error = Some(format!("auto-snapshot failed: {e}"));
                }
            }
        }
        report
    }

    /// Writes a new snapshot generation and rotates the WAL: fresh WAL
    /// (segment 0 of the new generation) first, then the snapshot via
    /// tempfile + fsync + atomic rename (the commit point — recovery
    /// prefers the new generation from that instant, and its WAL
    /// already exists), directory fsync, and finally stale files are
    /// retired (old snapshots unconditionally; old WAL segments only
    /// past the replication retention floor). Returns the new
    /// generation number.
    ///
    /// On an error *before* the rename, the store keeps running on the
    /// old generation untouched. A directory-fsync failure *after* the
    /// rename is ambiguous — a crash could recover either generation —
    /// so the store switches to the new generation but **poisons its
    /// WAL**: no further update can be acknowledged into a generation
    /// that might not survive, and the old one is left on disk.
    ///
    /// An in-memory store has nowhere to write one: it answers
    /// [`StorageError::BadState`] and changes nothing.
    pub fn snapshot(&mut self) -> Result<u64, StorageError> {
        let Some(dir) = &self.dir else {
            return Err(StorageError::BadState(
                "an in-memory store takes no snapshots".into(),
            ));
        };
        let state = self
            .commit
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        let new_seq = state.seq + 1;
        let meta = SnapshotMeta {
            seq: new_seq,
            update_seq: state.update_seq,
            epoch: self.epoch,
        };
        let new_wal = write_generation(dir, meta, &self.engine)?;
        state.seq = new_seq;
        state.segment_index = 0;
        state.wal_records = 0;
        state.wal = Some(new_wal);
        let committed = sync_dir(dir);
        match &committed {
            Err(e) => state.poison(format!(
                "generation {new_seq} rename not durably synced: {e}"
            )),
            Ok(()) => self.retire_stale_files(dir, new_seq),
        }
        self.emit(StoreEvent::Snapshot);
        committed.map(|()| new_seq)
    }

    /// Advances the failover epoch and durably records it with an
    /// immediate snapshot rotation — called when a follower is
    /// promoted, so a replication cursor minted against the old history
    /// can never silently resume against the new one. Returns the new
    /// epoch. On error the in-memory epoch is rolled back: either the
    /// rotation never committed (the store keeps serving the old epoch,
    /// consistently) or the ambiguous post-rename failure poisoned the
    /// WAL (no further write is acknowledged until reopen) — in neither
    /// case is an update committed under an unrecorded epoch. An
    /// in-memory store fails as [`snapshot`](Self::snapshot) does.
    pub fn bump_epoch(&mut self) -> Result<u64, StorageError> {
        self.epoch += 1;
        match self.snapshot() {
            Ok(_) => Ok(self.epoch),
            Err(e) => {
                self.epoch -= 1;
                Err(e)
            }
        }
    }

    /// Best-effort renaming of every file belonging to a skipped
    /// (corrupt) generation to `<name>.corrupt`, so the damage is kept
    /// for inspection but never re-probed — without this, a corrupt
    /// newer generation would be silently re-skipped on every open
    /// until a rotation happened to pass its number.
    fn quarantine_generations(dir: &Path, gens: &[u64]) {
        if gens.is_empty() {
            return;
        }
        for (path, file) in list_files(dir).unwrap_or_default() {
            if let StoreFile::Snapshot(g) | StoreFile::Segment(g, _) = file {
                if gens.contains(&g) {
                    let mut quarantined = path.clone().into_os_string();
                    quarantined.push(".corrupt");
                    let _ = fs::rename(&path, quarantined);
                }
            }
        }
        let _ = sync_dir(dir);
    }

    /// Best-effort removal of stale files: snapshots of generations
    /// older than `keep` (plus stray tempfiles) unconditionally, and
    /// older-generation WAL **segments** only once no replication
    /// cursor still needs their records (a segment's records end where
    /// the next segment's base begins, the rule [`RetainedLog`] reads
    /// by; see [`RetentionHook`]). Current-generation segments are never
    /// retired — recovery needs them. Failures are ignored: stale files
    /// are retried on the next rotation and are harmless to recovery,
    /// which always prefers the newest valid generation.
    fn retire_stale_files(&self, dir: &Path, keep: u64) {
        let floor = self.retention_floor();
        for seg in list_segments(dir).unwrap_or_default() {
            // An unreadable header serves no cursor; a segment whose
            // extent is open is kept while any cursor is outstanding.
            let needed = seg.base.is_some() && seg.end.map_or(floor != u64::MAX, |end| end > floor);
            if seg.generation < keep && !needed {
                let _ = fs::remove_file(&seg.path);
            }
        }
        for (path, file) in list_files(dir).unwrap_or_default() {
            if matches!(file, StoreFile::Snapshot(g) if g < keep) || file == StoreFile::Temp {
                let _ = fs::remove_file(path);
            }
        }
    }
}

/// One segment as recovery decodes it (`header` is `None` when the
/// file was discarded whole).
struct Replay {
    entries: Vec<Update>,
    valid_len: u64,
    discarded: Option<WalDiscard>,
    header: Option<ParsedHeader>,
}

impl Replay {
    /// Decodes every frame of segment `path` of generation `seq`; a
    /// CRC-valid record that does not decode is corruption by name.
    fn decode(path: &Path, seq: u64) -> Result<Self, StorageError> {
        let segment = Segment::read(path, seq)?;
        let (bodies, valid_len, discarded) = segment.records();
        let entries = bodies
            .iter()
            .enumerate()
            .map(|(i, payload)| {
                decode_update(payload).map_err(|e| StorageError::Corrupt {
                    file: path.display().to_string(),
                    detail: format!("CRC-valid record {i} undecodable: {e}"),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            entries,
            valid_len,
            discarded,
            header: segment.header.ok(),
        })
    }
}

/// Prepares and commits generation `seq` for `engine` into `dir`:
///
/// 1. a fresh WAL segment 0 (header written + fsync'd, base = the
///    generation's starting update sequence) — created **before** the
///    snapshot so there is no instant where recovery prefers a
///    generation whose log does not exist while acknowledged records
///    still flow into the previous one;
/// 2. the snapshot, via tempfile + fsync + atomic rename into place —
///    the commit point.
///
/// The caller fsyncs the directory afterwards to make the rename
/// durable ([`Store::create`] and [`Store::snapshot`] each own that
/// step's failure policy). Any error *here* leaves the previous
/// generation authoritative: an orphan WAL without its snapshot is
/// inert (recovery keys off snapshot files) and is truncated by the
/// next attempt, and a leftover tempfile is swept by retirement.
fn write_generation<E: StoreEngine>(
    dir: &Path,
    meta: SnapshotMeta,
    engine: &E,
) -> Result<WalWriter, StorageError> {
    let seq = meta.seq;
    let wal = WalWriter::create(&segment_path(dir, seq, 0), seq, 0, meta.update_seq)?;
    sync_dir(dir)?;
    let state = engine.capture();
    let bytes = snapshot_bytes(meta, &state);
    let final_path = snapshot_path(dir, seq);
    let tmp_path = dir.join(format!("snapshot-{seq}.smc.tmp"));
    let err = |what: &str, p: &Path| StorageError::io(format!("{what} {}", p.display()));
    fs::write(&tmp_path, &bytes).map_err(err("writing", &tmp_path))?;
    let f = File::open(&tmp_path).map_err(err("opening", &tmp_path))?;
    f.sync_all().map_err(err("fsyncing", &tmp_path))?;
    drop(f);
    fs::rename(&tmp_path, &final_path).map_err(err("renaming into", &final_path))?;
    Ok(wal)
}
