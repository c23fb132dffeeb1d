//! Deterministic in-process transport for the replication chaos
//! harness: a duplex pair of [`SimStream`]s backed by byte queues, with
//! per-direction fault plans — delivery delays, a cut after N bytes
//! (which truncates a write mid-record before closing), and byte flips
//! at chosen stream offsets. All faults are parameters, so a seeded RNG
//! in the test makes every run reproducible.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Faults injected into one direction of a simulated connection.
/// Offsets are absolute positions in that direction's byte stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Close the direction after delivering this many bytes; a write
    /// crossing the boundary is delivered truncated first, so the
    /// reader sees a torn frame, then EOF.
    pub cut_after: Option<u64>,
    /// XOR the byte at `.0` with the (nonzero) mask `.1` in transit.
    pub flip: Option<(u64, u8)>,
    /// Sleep this long before delivering each write.
    pub delay: Option<Duration>,
}

#[derive(Debug, Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    cond: Condvar,
}

impl Pipe {
    fn close(&self) {
        self.state.lock().expect("pipe poisoned").closed = true;
        self.cond.notify_all();
    }
}

/// One endpoint of a simulated duplex connection. `Read` blocks (up to
/// the pair's read timeout) for the peer's writes; `Write` applies
/// this endpoint's outbound [`FaultPlan`]. Dropping an endpoint closes
/// both directions, so a blocked peer sees EOF rather than hanging.
#[derive(Debug)]
pub struct SimStream {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
    faults: FaultPlan,
    written: u64,
    read_timeout: Duration,
}

/// A connected pair of [`SimStream`]s. `a_faults` shapes bytes written
/// by the first endpoint, `b_faults` bytes written by the second.
pub fn sim_duplex(
    a_faults: FaultPlan,
    b_faults: FaultPlan,
    read_timeout: Duration,
) -> (SimStream, SimStream) {
    let a_to_b = Arc::new(Pipe::default());
    let b_to_a = Arc::new(Pipe::default());
    (
        SimStream {
            rx: Arc::clone(&b_to_a),
            tx: Arc::clone(&a_to_b),
            faults: a_faults,
            written: 0,
            read_timeout,
        },
        SimStream {
            rx: a_to_b,
            tx: b_to_a,
            faults: b_faults,
            written: 0,
            read_timeout,
        },
    )
}

impl Read for SimStream {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut state = self.rx.state.lock().expect("pipe poisoned");
        while state.buf.is_empty() {
            if state.closed {
                return Ok(0);
            }
            let (next, timed_out) = self
                .rx
                .cond
                .wait_timeout(state, self.read_timeout)
                .expect("pipe poisoned");
            state = next;
            if timed_out.timed_out() && state.buf.is_empty() && !state.closed {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "simulated read timeout",
                ));
            }
        }
        let n = state.buf.len().min(out.len());
        for slot in out.iter_mut().take(n) {
            *slot = state.buf.pop_front().expect("n bounded by len");
        }
        Ok(n)
    }
}

impl Write for SimStream {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        if let Some(delay) = self.faults.delay {
            std::thread::sleep(delay);
        }
        // How much of this write survives the cut, if one is planned.
        let deliver = match self.faults.cut_after {
            Some(cut) if self.written >= cut => 0,
            Some(cut) => ((cut - self.written) as usize).min(data.len()),
            None => data.len(),
        };
        let cut_now = deliver < data.len();
        {
            let mut state = self.tx.state.lock().expect("pipe poisoned");
            if state.closed {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "simulated connection closed",
                ));
            }
            for (i, &byte) in data[..deliver].iter().enumerate() {
                let offset = self.written + i as u64;
                let byte = match self.faults.flip {
                    Some((at, mask)) if at == offset => byte ^ mask,
                    _ => byte,
                };
                state.buf.push_back(byte);
            }
            self.written += deliver as u64;
            if cut_now {
                state.closed = true;
            }
            self.tx.cond.notify_all();
        }
        if cut_now {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "simulated connection cut",
            ));
        }
        Ok(deliver)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for SimStream {
    fn drop(&mut self) {
        self.tx.close();
        self.rx.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_flow_both_ways() {
        let (mut a, mut b) = sim_duplex(
            FaultPlan::default(),
            FaultPlan::default(),
            Duration::from_secs(1),
        );
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn cut_truncates_mid_write_then_closes() {
        let (mut a, mut b) = sim_duplex(
            FaultPlan {
                cut_after: Some(3),
                ..FaultPlan::default()
            },
            FaultPlan::default(),
            Duration::from_secs(1),
        );
        let err = a.write_all(b"hello").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        let mut buf = Vec::new();
        b.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"hel");
    }

    #[test]
    fn flip_corrupts_exactly_one_byte() {
        let (mut a, mut b) = sim_duplex(
            FaultPlan {
                flip: Some((1, 0xFF)),
                ..FaultPlan::default()
            },
            FaultPlan::default(),
            Duration::from_secs(1),
        );
        a.write_all(&[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [1, 2 ^ 0xFF, 3]);
    }

    #[test]
    fn drop_unblocks_reader_with_eof() {
        let (a, mut b) = sim_duplex(
            FaultPlan::default(),
            FaultPlan::default(),
            Duration::from_secs(5),
        );
        let reader = std::thread::spawn(move || {
            let mut buf = Vec::new();
            b.read_to_end(&mut buf).unwrap();
            buf
        });
        drop(a);
        assert_eq!(reader.join().unwrap(), Vec::<u8>::new());
    }
}
