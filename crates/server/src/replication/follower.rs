//! Follower side of replication: [`run_follower`] drives the
//! connect → handshake → replay loop with bounded backoff, applying
//! frames through a [`ServiceSink`]. [`FollowerShared`] is the handle
//! the rest of the process holds: live status, and a stop switch that
//! interrupts both backoff sleeps and blocking reads (via a connection
//! "breaker" the connector registers).

use super::proto::{read_frame, write_handshake, Frame, Handshake};
use super::{ReplicaError, ServiceSink};
use crate::telemetry::trace::{self, AttrValue, Tracer};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How a follower obtains its transport. Abstracted so the chaos
/// harness can substitute a deterministic in-process pipe for TCP.
pub trait Connector: Send {
    /// The transport this connector produces.
    type Io: Read + Write;

    /// Establishes one connection to the primary.
    fn connect(&mut self) -> std::io::Result<Self::Io>;
}

/// TCP connector: resolves `addr` fresh on every attempt (the primary
/// may have moved), sets a read timeout so a silent primary is detected
/// a few heartbeats after it stops, and registers a breaker on `shared`
/// so [`FollowerShared::stop`] unblocks an in-flight read immediately.
pub struct TcpConnector {
    /// The primary's replication listener, `host:port`.
    pub addr: String,
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Read timeout; make it a small multiple of the primary's
    /// heartbeat interval.
    pub read_timeout: Duration,
    /// Where to register the connection breaker, if anywhere.
    pub shared: Option<Arc<FollowerShared>>,
}

impl Connector for TcpConnector {
    type Io = TcpStream;

    fn connect(&mut self) -> std::io::Result<TcpStream> {
        let mut last = None;
        for addr in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, self.connect_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(self.read_timeout))?;
                    let _ = stream.set_nodelay(true);
                    if let Some(shared) = &self.shared {
                        let breaker = stream.try_clone()?;
                        shared.set_breaker(move || {
                            let _ = breaker.shutdown(Shutdown::Both);
                        });
                    }
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                format!("{} resolved to no addresses", self.addr),
            )
        }))
    }
}

/// Lifecycle of a follower loop, as surfaced in status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowerState {
    /// Trying to reach the primary.
    Connecting,
    /// Connected and processing frames.
    Streaming,
    /// Backing off after a failure; `last_error` says which.
    Retrying,
    /// The loop has exited (after [`FollowerShared::stop`]).
    Stopped,
}

impl FollowerState {
    /// The lowercase name used in HTTP status payloads.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Self::Connecting => "connecting",
            Self::Streaming => "streaming",
            Self::Retrying => "retrying",
            Self::Stopped => "stopped",
        }
    }
}

/// A snapshot of a follower loop's progress.
#[derive(Debug, Clone)]
pub struct FollowerStatus {
    /// Where the loop is in its lifecycle.
    pub state: FollowerState,
    /// Updates applied locally.
    pub applied_seq: u64,
    /// The primary's committed count per its latest heartbeat (0 until
    /// the first heartbeat arrives).
    pub primary_seq: u64,
    /// Successful connections made.
    pub connects: u64,
    /// Frames processed across all connections.
    pub frames: u64,
    /// Records skipped as already applied (idempotent replay).
    pub skipped: u64,
    /// Snapshot bootstraps installed.
    pub bootstraps: u64,
    /// The most recent failure, if any.
    pub last_error: Option<String>,
}

impl FollowerStatus {
    /// Records the primary has committed that this follower has not
    /// yet applied (by the latest heartbeat; 0 before the first).
    pub(crate) fn lag(&self) -> u64 {
        self.primary_seq.saturating_sub(self.applied_seq)
    }
}

/// The process-wide handle to a running follower loop: live status, a
/// stop switch, and (internally) the connection breaker that makes
/// stop interrupt blocking reads.
pub struct FollowerShared {
    status: Mutex<FollowerStatus>,
    flags: Mutex<Flags>,
    cond: Condvar,
    breaker: Mutex<Option<Box<dyn Fn() + Send>>>,
    tracer: Mutex<Option<Arc<Tracer>>>,
}

#[derive(Debug, Default)]
struct Flags {
    stop: bool,
    exited: bool,
}

impl std::fmt::Debug for FollowerShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FollowerShared")
            .field("status", &self.status())
            .finish_non_exhaustive()
    }
}

impl Default for FollowerShared {
    fn default() -> Self {
        Self {
            status: Mutex::new(FollowerStatus {
                state: FollowerState::Connecting,
                applied_seq: 0,
                primary_seq: 0,
                connects: 0,
                frames: 0,
                skipped: 0,
                bootstraps: 0,
                last_error: None,
            }),
            flags: Mutex::new(Flags::default()),
            cond: Condvar::new(),
            breaker: Mutex::new(None),
            tracer: Mutex::new(None),
        }
    }
}

impl FollowerShared {
    /// A fresh handle in the `Connecting` state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current status (a copy).
    pub fn status(&self) -> FollowerStatus {
        self.status
            .lock()
            .expect("follower status poisoned")
            .clone()
    }

    /// Asks the loop to stop and breaks any in-flight read so it
    /// notices immediately.
    pub fn stop(&self) {
        self.flags.lock().expect("follower flags poisoned").stop = true;
        self.cond.notify_all();
        if let Some(breaker) = self.breaker.lock().expect("breaker poisoned").take() {
            breaker();
        }
    }

    /// Whether stop has been requested.
    fn stopped(&self) -> bool {
        self.flags.lock().expect("follower flags poisoned").stop
    }

    /// Waits until the loop has exited (true) or `timeout` elapses
    /// (false). Call after [`stop`](Self::stop) when the caller needs
    /// the loop provably finished — e.g. before promoting.
    pub(crate) fn wait_exited(&self, timeout: Duration) -> bool {
        let flags = self.flags.lock().expect("follower flags poisoned");
        let (flags, _) = self
            .cond
            .wait_timeout_while(flags, timeout, |f| !f.exited)
            .expect("follower flags poisoned");
        flags.exited
    }

    /// Sleeps up to `timeout` or until stop is requested; returns
    /// whether it was.
    fn wait_stop(&self, timeout: Duration) -> bool {
        let flags = self.flags.lock().expect("follower flags poisoned");
        let (flags, _) = self
            .cond
            .wait_timeout_while(flags, timeout, |f| !f.stop)
            .expect("follower flags poisoned");
        flags.stop
    }

    fn mark_exited(&self) {
        self.flags.lock().expect("follower flags poisoned").exited = true;
        self.cond.notify_all();
    }

    /// Installs the trace ring follower applies are sampled into —
    /// normally the serving service's own [`Tracer`], so
    /// `/debug/traces` on a follower shows its replication applies next
    /// to its read traffic. The tracer's 1-in-N sampling applies;
    /// without a tracer installed applies are never traced.
    pub(crate) fn set_tracer(&self, tracer: Arc<Tracer>) {
        *self.tracer.lock().expect("follower tracer poisoned") = Some(tracer);
    }

    /// The tracer, when one is installed *and* its sampler elects this
    /// apply.
    fn sampled_tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer
            .lock()
            .expect("follower tracer poisoned")
            .as_ref()
            .filter(|t| t.should_sample())
            .cloned()
    }

    fn set_breaker(&self, f: impl Fn() + Send + 'static) {
        *self.breaker.lock().expect("breaker poisoned") = Some(Box::new(f));
    }

    fn update(&self, f: impl FnOnce(&mut FollowerStatus)) {
        f(&mut self.status.lock().expect("follower status poisoned"));
    }

    fn note_error(&self, msg: String) {
        self.update(|s| {
            s.state = FollowerState::Retrying;
            s.last_error = Some(msg);
        });
    }
}

/// Tuning for the follower loop.
#[derive(Debug, Clone, Copy)]
pub struct FollowerConfig {
    /// First backoff after a failure; doubles per consecutive failure.
    pub backoff_min: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Max frame body accepted, in bytes (bounds bootstrap snapshot
    /// size).
    pub max_frame_len: u32,
}

impl Default for FollowerConfig {
    fn default() -> Self {
        Self {
            backoff_min: Duration::from_millis(100),
            backoff_max: Duration::from_secs(5),
            max_frame_len: 1 << 30,
        }
    }
}

/// Runs the follower loop until [`FollowerShared::stop`]: connect with
/// bounded exponential backoff (an unreachable primary is a retry, not
/// an exit), handshake with the sink's cursor, then apply frames.
/// Records at or below the cursor are skipped (replay after a
/// reconnect is idempotent); a gap above it aborts the session with a
/// named error and reconnects. Returns the sink so the caller can take
/// the replicated state back (promotion).
pub fn run_follower<C: Connector>(
    mut connector: C,
    sink: ServiceSink,
    shared: &Arc<FollowerShared>,
    cfg: &FollowerConfig,
) -> ServiceSink {
    let mut backoff = cfg.backoff_min;
    while !shared.stopped() {
        shared.update(|s| {
            s.state = FollowerState::Connecting;
            s.applied_seq = sink.applied_seq();
        });
        let mut io = match connector.connect() {
            Ok(io) => io,
            Err(e) => {
                shared.note_error(format!("connect: {e}"));
                if shared.wait_stop(backoff) {
                    break;
                }
                backoff = (backoff * 2).min(cfg.backoff_max);
                continue;
            }
        };
        shared.update(|s| {
            s.connects += 1;
            s.state = FollowerState::Streaming;
        });
        let frames_before = shared.status().frames;
        match stream_session(&mut io, &sink, shared, cfg) {
            Ok(()) => break, // stop requested
            Err(e) => {
                shared.note_error(e.to_string());
                if shared.status().frames > frames_before {
                    backoff = cfg.backoff_min;
                }
                if shared.wait_stop(backoff) {
                    break;
                }
                backoff = (backoff * 2).min(cfg.backoff_max);
            }
        }
    }
    shared.update(|s| s.state = FollowerState::Stopped);
    shared.mark_exited();
    sink
}

fn stream_session<Io: Read + Write>(
    io: &mut Io,
    sink: &ServiceSink,
    shared: &Arc<FollowerShared>,
    cfg: &FollowerConfig,
) -> Result<(), ReplicaError> {
    write_handshake(
        io,
        &Handshake {
            epoch: sink.epoch(),
            applied_seq: sink.applied_seq(),
        },
    )?;
    loop {
        if shared.stopped() {
            return Ok(());
        }
        let closed = || ReplicaError::Protocol("primary closed the stream".to_string());
        let frame = read_frame(io, cfg.max_frame_len)?.ok_or_else(closed)?;
        // Nothing may be applied after a stop request: promotion
        // assumes the applied count is frozen once stop() returns and
        // the loop is seen exited.
        if shared.stopped() {
            return Ok(());
        }
        shared.update(|s| s.frames += 1);
        match frame {
            Frame::Heartbeat { committed_seq } => {
                shared.update(|s| s.primary_seq = committed_seq);
            }
            Frame::Record { seq, payload } => {
                let applied = sink.applied_seq();
                if seq <= applied {
                    shared.update(|s| s.skipped += 1);
                    continue;
                }
                if seq != applied + 1 {
                    return Err(ReplicaError::Protocol(format!(
                        "record sequence gap: applied {applied}, next frame is {seq}"
                    )));
                }
                // Sampled applies land in the service's trace ring keyed
                // by the update seq, so a follower's `/debug/traces`
                // answers "what is apply latency here" the way `/search`
                // traces answer it for queries; the record's WAL spans
                // reach the same trace through the storage hook.
                let capture = shared
                    .sampled_tracer()
                    .map(|tracer| (tracer, trace::begin(seq, "replica/apply")));
                let applied_at = Instant::now();
                sink.apply_record(seq, &payload)?;
                if let Some((tracer, capture)) = capture {
                    let attrs = vec![
                        ("seq", AttrValue::U64(seq)),
                        ("bytes", AttrValue::U64(payload.len() as u64)),
                    ];
                    trace::emit("apply", applied_at.elapsed(), attrs);
                    tracer.record(capture.finish(0, false));
                }
                shared.update(|s| s.applied_seq = seq);
            }
            Frame::Snapshot {
                epoch,
                seq,
                snapshot,
            } => {
                sink.install_snapshot(&snapshot, seq, epoch)?;
                shared.update(|s| {
                    s.applied_seq = seq;
                    s.bootstraps += 1;
                });
            }
            Frame::Error(msg) => {
                return Err(ReplicaError::Protocol(format!("primary said: {msg}")));
            }
        }
    }
}
