//! Primary side of replication: [`stream_updates`] serves one follower
//! connection from a durable service's retained WAL, [`serve_log`]
//! accepts followers over TCP, and [`bootstrap_snapshot`] cuts the
//! snapshot a follower whose cursor cannot be resumed starts from.

use super::proto::{read_handshake, write_frame, Frame};
use super::{not_durable, ReplicaError};
use crate::http::wake_acceptor;
use crate::service::SearchService;
use silkmoth_storage::{snapshot_bytes, CommitHook, RetentionHook, SnapshotMeta, StoreEngine};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Wakes replication streamers at the store's commit point. Install
/// its [`hook`](CommitSignal::hook) with
/// [`Store::set_commit_hook`](silkmoth_storage::Store::set_commit_hook);
/// streamers block in
/// [`wait_beyond`](CommitSignal::wait_beyond) instead of polling.
/// Starts at sequence 0.
#[derive(Debug, Default)]
pub(crate) struct CommitSignal {
    seq: Mutex<u64>,
    cond: Condvar,
}

impl CommitSignal {
    /// Records that `seq` updates are now committed and wakes waiters.
    /// Monotonic: stale notifications are ignored.
    fn notify(&self, seq: u64) {
        let mut current = self.seq.lock().expect("commit signal poisoned");
        if seq > *current {
            *current = seq;
            self.cond.notify_all();
        }
    }

    /// The highest committed sequence seen so far.
    pub(crate) fn current(&self) -> u64 {
        *self.seq.lock().expect("commit signal poisoned")
    }

    /// Overwrites the counter unconditionally and wakes waiters — for
    /// when the tracked store is *replaced* (a follower installing a
    /// bootstrap snapshot may move to a seq below a diverged cursor).
    /// The caller must ensure no commit hook can fire concurrently
    /// (hold the store's write lock across the replacement).
    pub(crate) fn reset(&self, seq: u64) {
        *self.seq.lock().expect("commit signal poisoned") = seq;
        self.cond.notify_all();
    }

    /// Blocks until the committed count exceeds `seen` or `timeout`
    /// elapses; returns the count either way.
    pub(crate) fn wait_beyond(&self, seen: u64, timeout: Duration) -> u64 {
        let guard = self.seq.lock().expect("commit signal poisoned");
        let (guard, _) = self
            .cond
            .wait_timeout_while(guard, timeout, |seq| *seq <= seen)
            .expect("commit signal poisoned");
        *guard
    }

    /// A [`CommitHook`] that notifies this signal. The hook only takes
    /// a lock and notifies a condvar — safe at the commit point.
    pub(crate) fn hook(self: &Arc<Self>) -> CommitHook {
        let signal = Arc::clone(self);
        CommitHook::new(move |seq| signal.notify(seq))
    }
}

/// The registry of live follower cursors on a primary, feeding the
/// store's segment-retention floor
/// ([`RetentionHook`](silkmoth_storage::RetentionHook)): sealed WAL
/// segments already covered by the snapshot are kept on disk while any
/// registered cursor still needs their records, so a follower resuming
/// inside a retained segment streams records instead of being forced
/// through a full snapshot bootstrap.
#[derive(Debug, Default)]
struct CursorTracker {
    cursors: Mutex<HashMap<u64, u64>>,
    next_id: AtomicU64,
}

impl CursorTracker {
    /// Registers a follower cursor at `applied` (use `u64::MAX` for a
    /// cursor that is bootstrapping and needs no retained records yet).
    /// The cursor deregisters when the returned handle drops.
    fn register(self: &Arc<Self>, applied: u64) -> CursorHandle {
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
    fn floor(&self) -> u64 {
        self.cursors
            .lock()
            .expect("cursor tracker poisoned")
            .values()
            .copied()
            .min()
            .unwrap_or(u64::MAX)
    }
}

/// One registered cursor in a [`CursorTracker`]; advancing it raises
/// the retention floor, dropping it deregisters.
#[derive(Debug)]
struct CursorHandle {
    tracker: Arc<CursorTracker>,
    id: u64,
}

impl CursorHandle {
    /// Records that the follower behind this cursor has applied (or
    /// been shipped) everything up to `applied`.
    fn advance(&self, applied: u64) {
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

/// The bootstrap cut: a full snapshot of `service`'s store in
/// the storage snapshot-file format, plus the `(update_seq, epoch)` it
/// captures. The cut is `(seq, state)` as one pair: taken quiesced, so
/// the seq it is stamped with is one the engine has reached. Stamping a
/// committed-but-unapplied seq would make the follower skip that record
/// for good.
pub fn bootstrap_snapshot(service: &SearchService) -> Result<(Vec<u8>, u64, u64), ReplicaError> {
    let (status, state) =
        service.quiesced(|store| (store.status(), StoreEngine::capture(store.engine())));
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

/// Serves one follower connection from `service`'s durable store:
/// reads the handshake, then streams records (or a bootstrap snapshot
/// when the cursor is unservable) until `stop` is set, the follower
/// goes away, or the store's epoch changes under us (promotion
/// elsewhere — the follower must re-handshake).
///
/// A malformed handshake is answered with a best-effort [`Frame::Error`]
/// naming the problem before the error is returned.
pub fn stream_updates(
    service: &SearchService,
    io: &mut (impl Read + Write),
    stop: &AtomicBool,
    cfg: &StreamerConfig,
) -> Result<(), ReplicaError> {
    stream_tracked(service, io, stop, cfg, None)
}

/// [`stream_updates`], registering the connection's cursor in `tracker`
/// (when given) for the lifetime of the stream, so the primary's store
/// retains the sealed WAL segments this follower still needs.
fn stream_tracked(
    service: &SearchService,
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
    let epoch = service.store_status().epoch;
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
    let signal = service.commit_signal();
    let mut committed = signal.current();
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
        if service.store_status().epoch != epoch {
            let msg = "primary epoch changed; reconnect to re-handshake".to_string();
            let _ = write_frame(io, &Frame::Error(msg.clone()));
            return Err(ReplicaError::Protocol(msg));
        }
        if applied == committed {
            committed = signal.wait_beyond(applied, cfg.heartbeat);
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
        let log = service.retained_log().ok_or_else(not_durable)?;
        match log.records_after(applied, cfg.batch)? {
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
                let (snapshot, seq, snap_epoch) = bootstrap_snapshot(service)?;
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
        committed = signal.current();
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

    /// Stops accepting and asks streamer threads to exit (they notice
    /// within one heartbeat interval).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        wake_acceptor(self.addr);
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

/// Binds `addr` and serves `service`'s update log to any follower that
/// connects. Each connection gets its own thread running
/// [`stream_updates`]; handshakes are given 10 s to arrive. The
/// listener's live follower count is reported on `service`'s `/stats`
/// and `/metrics`, and the sealed WAL segments a connected follower
/// still needs outlive snapshot rotation until its cursor moves on.
pub fn serve_log(
    service: Arc<SearchService>,
    addr: impl ToSocketAddrs,
    cfg: StreamerConfig,
) -> std::io::Result<ReplicaServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let followers = Arc::new(AtomicUsize::new(0));
    let cursors = Arc::new(CursorTracker::default());
    service.front().set_follower_gauge(Arc::clone(&followers));
    let floor = Arc::clone(&cursors);
    service.set_wal_retention(RetentionHook::new(move || floor.floor()));
    let accept = {
        let stop = Arc::clone(&stop);
        let followers = Arc::clone(&followers);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(mut conn) = conn else { continue };
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                let followers = Arc::clone(&followers);
                let cursors = Arc::clone(&cursors);
                std::thread::spawn(move || {
                    let _ = conn.set_nodelay(true);
                    let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
                    let _ = conn.set_write_timeout(Some(Duration::from_secs(30)));
                    followers.fetch_add(1, Ordering::Relaxed);
                    let _ = stream_tracked(&service, &mut conn, &stop, &cfg, Some(&cursors));
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::testutil::service;
    use std::time::Instant;

    /// A listener bound to the wildcard address (`--replicate-addr
    /// 0.0.0.0:P`) still wakes its acceptor and shuts down promptly.
    #[test]
    fn a_wildcard_listener_shuts_down_within_two_seconds() {
        let mut log =
            serve_log(Arc::new(service()), "0.0.0.0:0", StreamerConfig::default()).unwrap();
        assert!(log.local_addr().ip().is_unspecified());
        let started = Instant::now();
        log.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "shutdown took {:?}",
            started.elapsed()
        );
    }
}
