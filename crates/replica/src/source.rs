//! Primary side of replication: read a store's retained WAL for a
//! [`ReplicationSource`] ([`store_records_after`]), stream the source to
//! one follower with [`stream_updates`], and accept followers over TCP
//! with [`serve_log`].

use crate::proto::{read_handshake, write_frame, Frame};
use crate::ReplicaError;
use silkmoth_storage::{
    list_wal_segments, read_wal_payloads, CommitHook, StorageError, StoreStatus,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Wakes replication streamers at the store's commit point. Install
/// its [`hook`](CommitSignal::hook) with
/// [`Store::set_commit_hook`](silkmoth_storage::Store::set_commit_hook);
/// streamers block in
/// [`wait_beyond`](CommitSignal::wait_beyond) instead of polling.
#[derive(Debug, Default)]
pub struct CommitSignal {
    seq: Mutex<u64>,
    cond: Condvar,
}

impl CommitSignal {
    /// A signal starting at sequence 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `seq` updates are now committed and wakes waiters.
    /// Monotonic: stale notifications are ignored.
    pub fn notify(&self, seq: u64) {
        let mut current = self.seq.lock().expect("commit signal poisoned");
        if seq > *current {
            *current = seq;
            self.cond.notify_all();
        }
    }

    /// The highest committed sequence seen so far.
    pub fn current(&self) -> u64 {
        *self.seq.lock().expect("commit signal poisoned")
    }

    /// Overwrites the counter unconditionally and wakes waiters — for
    /// when the tracked store is *replaced* (a follower installing a
    /// bootstrap snapshot may move to a seq below a diverged cursor).
    /// The caller must ensure no commit hook can fire concurrently
    /// (hold the store's write lock across the replacement).
    pub fn reset(&self, seq: u64) {
        *self.seq.lock().expect("commit signal poisoned") = seq;
        self.cond.notify_all();
    }

    /// Blocks until the committed count exceeds `seen` or `timeout`
    /// elapses; returns the count either way.
    pub fn wait_beyond(&self, seen: u64, timeout: Duration) -> u64 {
        let guard = self.seq.lock().expect("commit signal poisoned");
        let (guard, _) = self
            .cond
            .wait_timeout_while(guard, timeout, |seq| *seq <= seen)
            .expect("commit signal poisoned");
        *guard
    }

    /// A [`CommitHook`] that notifies this signal. The hook only takes
    /// a lock and notifies a condvar — safe at the commit point.
    pub fn hook(self: &Arc<Self>) -> CommitHook {
        let signal = Arc::clone(self);
        CommitHook::new(move |seq| signal.notify(seq))
    }
}

/// What a replication streamer needs from the primary: its position
/// (epoch, committed count), a blocking wait for new commits, raw WAL
/// records after a cursor, and a snapshot for bootstraps.
pub trait ReplicationSource: Send + Sync {
    /// The primary's failover epoch.
    fn epoch(&self) -> u64;

    /// Total updates committed.
    fn committed_seq(&self) -> u64;

    /// Blocks until the committed count exceeds `seen` or `timeout`
    /// elapses; returns the current count.
    fn wait_beyond(&self, seen: u64, timeout: Duration) -> u64;

    /// Raw WAL payloads of records `applied + 1 ..= applied + limit`
    /// (fewer if fewer are committed). `Ok(None)` means the cursor is
    /// not servable from the retained WAL (it predates the current
    /// generation, or lies in the future) — the caller bootstraps with
    /// a snapshot instead.
    fn records_after(
        &self,
        applied: u64,
        limit: usize,
    ) -> Result<Option<Vec<Vec<u8>>>, ReplicaError>;

    /// A full snapshot in the storage snapshot-file format, plus the
    /// `(update_seq, epoch)` it captures.
    fn snapshot(&self) -> Result<(Vec<u8>, u64, u64), ReplicaError>;
}

/// One servable stretch of the retained log: a WAL file and the global
/// update sequence its records start after. Its records end where the
/// next span's begin.
struct LogSpan {
    path: PathBuf,
    generation: u64,
    base: u64,
}

/// Maps a follower cursor onto a store's **retained** WAL files —
/// every segment still on disk (including sealed segments of older
/// generations kept back for cursors like this one, whose bases chain
/// globally across generations) — and reads the next batch of raw
/// record payloads. `status` and `dir`
/// must come from one consistent read of the store (hold the lock
/// while calling `status()`; the file reads themselves happen
/// lock-free — committed WAL bytes are append-only, and a segment
/// retired away mid-read surfaces as `Ok(None)`, i.e. "bootstrap
/// instead").
pub fn store_records_after(
    dir: &Path,
    status: &StoreStatus,
    applied: u64,
    limit: usize,
) -> Result<Option<Vec<Vec<u8>>>, ReplicaError> {
    if applied > status.update_seq {
        return Ok(None);
    }
    let take = ((status.update_seq - applied) as usize).min(limit);
    if take == 0 {
        return Ok(Some(Vec::new()));
    }
    // A segment with an unreadable header (mid-creation or damaged)
    // serves no one; skip it — a cursor actually needing its records
    // fails the shortfall check below.
    let mut spans: Vec<LogSpan> = list_wal_segments(dir)
        .map_err(ReplicaError::Storage)?
        .into_iter()
        .filter_map(|seg| {
            Some(LogSpan {
                base: seg.base_seq?,
                path: seg.path,
                generation: seg.generation,
            })
        })
        .collect();
    // Bases are global sequence numbers, so sorting by base chains the
    // segments of every generation into one contiguous log.
    spans.sort_by_key(|s| s.base);
    let Some(mut i) = spans.iter().rposition(|s| s.base <= applied) else {
        // The cursor predates everything retained.
        return Ok(None);
    };
    let mut out: Vec<Vec<u8>> = Vec::with_capacity(take);
    let mut cursor = applied;
    while out.len() < take && i < spans.len() {
        let span = &spans[i];
        // Records past the committed count (a rotation racing this
        // read created a newer, still-empty span) are never requested.
        let end = spans
            .get(i + 1)
            .map(|next| next.base)
            .unwrap_or(status.update_seq)
            .min(status.update_seq);
        if cursor < end {
            let skip = cursor - span.base;
            let want = ((end - cursor) as usize).min(take - out.len());
            match read_wal_payloads(&span.path, span.generation, skip, want) {
                Ok(payloads) => {
                    if payloads.len() < want {
                        // The WAL holds fewer intact records than the
                        // store says it committed — local corruption,
                        // not a race.
                        return Err(ReplicaError::Storage(StorageError::Corrupt {
                            file: span.path.display().to_string(),
                            detail: format!(
                                "only {} of {want} committed records after cursor {cursor} \
                                 are intact",
                                payloads.len()
                            ),
                        }));
                    }
                    cursor += payloads.len() as u64;
                    out.extend(payloads);
                }
                // Retired between the listing and the open: the cursor
                // is no longer servable from the retained log.
                Err(StorageError::Io { source, .. })
                    if source.kind() == std::io::ErrorKind::NotFound =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(ReplicaError::Storage(e)),
            }
        }
        i += 1;
    }
    if out.len() < take {
        // The spans never covered the requested range — a hole in the
        // retained log is corruption, not a rotation race (retirement
        // only ever removes a prefix of the old spans, which lands in
        // the NotFound arm above).
        return Err(ReplicaError::Storage(StorageError::Corrupt {
            file: dir.display().to_string(),
            detail: format!(
                "retained WAL covers only {} of {take} committed records after cursor {applied}",
                out.len()
            ),
        }));
    }
    Ok(Some(out))
}

/// The registry of live follower cursors on a primary, feeding the
/// store's segment-retention floor
/// ([`RetentionHook`](silkmoth_storage::RetentionHook)): sealed WAL
/// segments already covered by the snapshot are kept on disk while any
/// registered cursor still needs their records, so a follower resuming
/// inside a retained segment streams records instead of being forced
/// through a full snapshot bootstrap.
#[derive(Debug, Default)]
pub struct CursorTracker {
    cursors: Mutex<HashMap<u64, u64>>,
    next_id: AtomicU64,
}

impl CursorTracker {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a follower cursor at `applied` (use `u64::MAX` for a
    /// cursor that is bootstrapping and needs no retained records yet).
    /// The cursor deregisters when the returned handle drops.
    pub fn register(self: &Arc<Self>, applied: u64) -> CursorHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.cursors
            .lock()
            .expect("cursor tracker poisoned")
            .insert(id, applied);
        CursorHandle {
            tracker: Arc::clone(self),
            id,
        }
    }

    /// The lowest applied sequence across registered cursors — every
    /// record with a sequence above this is still needed by someone.
    /// `u64::MAX` when no cursor is outstanding.
    pub fn floor(&self) -> u64 {
        self.cursors
            .lock()
            .expect("cursor tracker poisoned")
            .values()
            .copied()
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Registered cursors.
    pub fn len(&self) -> usize {
        self.cursors.lock().expect("cursor tracker poisoned").len()
    }

    /// True when no cursor is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One registered cursor in a [`CursorTracker`]; advancing it raises
/// the retention floor, dropping it deregisters.
#[derive(Debug)]
pub struct CursorHandle {
    tracker: Arc<CursorTracker>,
    id: u64,
}

impl CursorHandle {
    /// Records that the follower behind this cursor has applied (or
    /// been shipped) everything up to `applied`.
    pub fn advance(&self, applied: u64) {
        self.tracker
            .cursors
            .lock()
            .expect("cursor tracker poisoned")
            .insert(self.id, applied);
    }
}

impl Drop for CursorHandle {
    fn drop(&mut self) {
        self.tracker
            .cursors
            .lock()
            .expect("cursor tracker poisoned")
            .remove(&self.id);
    }
}

/// Tuning for one follower connection's streamer.
#[derive(Debug, Clone, Copy)]
pub struct StreamerConfig {
    /// Heartbeat interval when the follower is caught up; also bounds
    /// how long a connection thread lingers after a stop request.
    pub heartbeat: Duration,
    /// Max records fetched (and framed) per batch.
    pub batch: usize,
    /// Max frame body accepted from / offered to the peer, in bytes.
    pub max_frame_len: u32,
}

impl Default for StreamerConfig {
    fn default() -> Self {
        Self {
            heartbeat: Duration::from_millis(500),
            batch: 256,
            max_frame_len: 256 << 20,
        }
    }
}

/// Serves one follower connection: reads the handshake, then streams
/// records (or a bootstrap snapshot when the cursor is unservable)
/// until `stop` is set, the follower goes away, or the source's epoch
/// changes under us (promotion elsewhere — the follower must re-handshake).
///
/// A malformed handshake is answered with a best-effort [`Frame::Error`]
/// naming the problem before the error is returned.
///
/// When a `tracker` is given, the connection registers its cursor in
/// it for the lifetime of the stream, so the primary's store retains
/// the sealed WAL segments this follower still needs.
pub fn stream_updates(
    source: &dyn ReplicationSource,
    io: &mut (impl Read + Write),
    stop: &AtomicBool,
    cfg: &StreamerConfig,
    tracker: Option<&Arc<CursorTracker>>,
) -> Result<(), ReplicaError> {
    let hello = match read_handshake(io) {
        Ok(hello) => hello,
        Err(e) => {
            let _ = write_frame(io, &Frame::Error(e.to_string()));
            return Err(e);
        }
    };
    let epoch = source.epoch();
    // A cursor minted under another epoch may index a diverged history,
    // and a cursor of 0 carries no shared-history evidence at all (the
    // primary's seq-0 state is its *initial build*, not necessarily
    // empty). Both go through the bootstrap path, via the unservable
    // sentinel.
    let mut applied = if hello.epoch == epoch && hello.applied_seq > 0 {
        hello.applied_seq
    } else {
        u64::MAX
    };
    let cursor = tracker.map(|t| t.register(applied));
    let mut committed = source.committed_seq();
    write_frame(
        io,
        &Frame::Heartbeat {
            committed_seq: committed,
        },
    )?;
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        if source.epoch() != epoch {
            let msg = "primary epoch changed; reconnect to re-handshake".to_string();
            let _ = write_frame(io, &Frame::Error(msg.clone()));
            return Err(ReplicaError::Protocol(msg));
        }
        if applied == committed {
            committed = source.wait_beyond(applied, cfg.heartbeat);
            if applied >= committed {
                write_frame(
                    io,
                    &Frame::Heartbeat {
                        committed_seq: committed,
                    },
                )?;
            }
            continue;
        }
        match source.records_after(applied, cfg.batch)? {
            Some(payloads) if !payloads.is_empty() => {
                for payload in payloads {
                    if payload.len() as u64 > u64::from(cfg.max_frame_len) {
                        return Err(ReplicaError::Protocol(format!(
                            "WAL record of {} bytes exceeds the {}-byte frame cap",
                            payload.len(),
                            cfg.max_frame_len
                        )));
                    }
                    applied += 1;
                    write_frame(
                        io,
                        &Frame::Record {
                            seq: applied,
                            payload,
                        },
                    )?;
                }
                if let Some(cursor) = &cursor {
                    cursor.advance(applied);
                }
            }
            // Unservable cursor (too old, foreign epoch, or rotated
            // away mid-read) or an empty batch from a raced rotation:
            // bootstrap.
            _ => {
                let (snapshot, seq, snap_epoch) = source.snapshot()?;
                write_frame(
                    io,
                    &Frame::Snapshot {
                        epoch: snap_epoch,
                        seq,
                        snapshot,
                    },
                )?;
                applied = seq;
                if let Some(cursor) = &cursor {
                    cursor.advance(applied);
                }
            }
        }
        committed = source.committed_seq();
    }
}

/// A running replication log listener: one accept thread, one streamer
/// thread per connected follower.
#[derive(Debug)]
pub struct ReplicaServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    followers: Arc<AtomicUsize>,
    cursors: Arc<CursorTracker>,
}

impl ReplicaServer {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently connected followers.
    pub fn follower_count(&self) -> usize {
        self.followers.load(Ordering::Relaxed)
    }

    /// The shared follower-count gauge, for surfacing in stats.
    pub fn follower_gauge(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.followers)
    }

    /// The registry of this listener's follower cursors — wire its
    /// [`floor`](CursorTracker::floor) into the store's
    /// [`RetentionHook`](silkmoth_storage::RetentionHook) so sealed WAL
    /// segments outlive snapshot rotation while a follower needs them.
    pub fn cursor_tracker(&self) -> Arc<CursorTracker> {
        Arc::clone(&self.cursors)
    }

    /// Stops accepting and asks streamer threads to exit (they notice
    /// within one heartbeat interval).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ReplicaServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and serves `source`'s update log to any follower that
/// connects. Each connection gets its own thread running
/// [`stream_updates`]; handshakes are given 10 s to arrive.
pub fn serve_log<S: ReplicationSource + 'static>(
    source: Arc<S>,
    addr: impl ToSocketAddrs,
    cfg: StreamerConfig,
) -> std::io::Result<ReplicaServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let followers = Arc::new(AtomicUsize::new(0));
    let cursors = Arc::new(CursorTracker::new());
    let accept = {
        let stop = Arc::clone(&stop);
        let followers = Arc::clone(&followers);
        let cursors = Arc::clone(&cursors);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(mut conn) = conn else { continue };
                let source = Arc::clone(&source);
                let stop = Arc::clone(&stop);
                let followers = Arc::clone(&followers);
                let cursors = Arc::clone(&cursors);
                std::thread::spawn(move || {
                    let _ = conn.set_nodelay(true);
                    let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
                    let _ = conn.set_write_timeout(Some(Duration::from_secs(30)));
                    followers.fetch_add(1, Ordering::Relaxed);
                    let _ = stream_updates(source.as_ref(), &mut conn, &stop, &cfg, Some(&cursors));
                    followers.fetch_sub(1, Ordering::Relaxed);
                });
            }
        })
    };
    Ok(ReplicaServer {
        addr,
        stop,
        accept: Some(accept),
        followers,
        cursors,
    })
}
