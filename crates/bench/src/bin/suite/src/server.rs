//! The server under test: a real `silkmoth serve` child process, built
//! from the checkout's sources, plus the keep-alive client that talks to
//! it.

use silkmoth_server::json::Json;
use silkmoth_server::read_simple_response;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::workload::{Workload, SHARDS, THREADS};

/// Cargo's target directory for this checkout: the driver sets
/// `CARGO_TARGET_DIR`; a plain checkout builds into `target/`. The suite
/// keeps its own files under `<target>/suite/`.
pub(crate) fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds the release `silkmoth` binary from the sources in the current
/// directory (the repo root) and returns its path. Building it here,
/// every run, is what keeps the binary from being missing or older than
/// the sources; a fresh binary costs a fraction of a second.
pub(crate) fn build_server() -> Result<PathBuf, String> {
    if !Path::new("src/bin/silkmoth.rs").is_file() {
        return Err(
            "ServerSourceMissing: run the suite from the repository root (src/bin/silkmoth.rs not found)"
                .into(),
        );
    }
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--bin",
            "silkmoth",
        ])
        // Cargo's own output must not end up on stdout, where the result
        // line goes.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("ServerBuildFailed: spawning cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "ServerBuildFailed: cargo build exited with {status}"
        ));
    }
    let bin = target_dir().join("release").join("silkmoth");
    if !bin.is_file() {
        return Err(format!(
            "ServerBinaryMissing: {} was not produced",
            bin.display()
        ));
    }
    Ok(bin)
}

extern "C" {
    // glibc, which std links anyway; the mask is one word, enough for 64 CPUs.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// While this lives, the calling thread and everything it spawns (the
/// server child, which inherits the mask) may run on one CPU only: the
/// highest-numbered one the process was allowed, which takes the fewest
/// device interrupts. A closed loop of one connection against one shard
/// never has two runnable threads, so nothing is lost; what goes away is
/// the wake-up of a sleeping thread on the *other* vCPU for every request
/// and every reply, which on a shared host costs anything from 10 to
/// 100 µs and was most of the run-to-run spread of a 0.1 ms request.
/// Dropping it gives the thread its old CPUs back. Where the mask cannot
/// be read or set, the run goes on unpinned.
pub(crate) struct Pinned {
    allowed: u64,
}

impl Pinned {
    pub(crate) fn to_one_cpu() -> Pinned {
        let mut allowed = 0u64;
        // SAFETY: both calls read or write exactly the one u64 they are
        // given the size of; pid 0 is the calling thread.
        let got = unsafe { sched_getaffinity(0, 8, &mut allowed) };
        if got != 0 || allowed == 0 {
            return Pinned { allowed: 0 };
        }
        let last = 1u64 << (63 - allowed.leading_zeros());
        if unsafe { sched_setaffinity(0, 8, &last) } != 0 {
            return Pinned { allowed: 0 };
        }
        Pinned { allowed }
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if self.allowed != 0 {
            // SAFETY: as above.
            unsafe { sched_setaffinity(0, 8, &self.allowed) };
        }
    }
}

/// A port nobody listens on right now: bind port 0, read it, release it.
fn free_port() -> Result<u16, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("probing a port: {e}"))?;
    Ok(listener.local_addr().map_err(|e| e.to_string())?.port())
}

/// A running `silkmoth serve`. Dropping it kills the child and waits
/// for it, so a panic or an early return never leaves a server behind.
pub(crate) struct Server {
    child: Child,
    pub(crate) addr: String,
    /// Seconds from spawn to the first 200 on `/healthz`.
    pub(crate) ready_s: f64,
}

impl Server {
    /// Spawns the server on a free port and waits for `/healthz`. With
    /// `input`, an empty `data_dir` is initialised from it; without, the
    /// directory is recovered. Stderr is appended to `log`.
    pub(crate) fn start(
        bin: &Path,
        workload: &Workload,
        input: Option<&Path>,
        data_dir: &Path,
        log: &Path,
    ) -> Result<Server, String> {
        let port = free_port()?;
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("opening {}: {e}", log.display()))?;
        let mut cmd = Command::new(bin);
        cmd.arg("serve");
        if let Some(input) = input {
            cmd.arg("--input").arg(input);
        }
        cmd.arg("--data-dir")
            .arg(data_dir)
            .args(["--snapshot-every", &workload.snapshot_every().to_string()])
            .args(["--port", &port.to_string()])
            .args(["--shards", &SHARDS.to_string()])
            .args(["--threads", &THREADS.to_string()])
            .args(workload.serve_flags())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        let started = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            addr: format!("127.0.0.1:{port}"),
            ready_s: 0.0,
        };
        loop {
            if let Ok(mut client) = Client::connect(&server.addr) {
                if matches!(client.send("GET", "/healthz", ""), Ok((200, _))) {
                    break;
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "ServerExited: silkmoth serve ended with {status} before /healthz; see {}",
                    log.display()
                ));
            }
            if started.elapsed() > Duration::from_secs(120) {
                return Err("ServerNotReady: no 200 on /healthz within 120 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        server.ready_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    /// The child's peak resident set so far, in MB (`VmHWM`).
    pub(crate) fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }

    /// `SIGKILL`, then reap.
    pub(crate) fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One keep-alive HTTP/1.1 connection.
pub(crate) struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    addr: String,
}

impl Client {
    pub(crate) fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        // Each request is one small write; Nagle must not hold it back
        // for the previous response's ACK.
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            stream,
            reader,
            addr: addr.to_owned(),
        })
    }

    /// Sends one request and reads the whole response.
    pub(crate) fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, Vec<u8>), String> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len(),
        );
        self.stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("sending {method} {path}: {e}"))?;
        read_simple_response(&mut self.reader).map_err(|e| format!("reading {method} {path}: {e}"))
    }

    /// `send`, expecting a 200 with a JSON body.
    pub(crate) fn json(&mut self, method: &str, path: &str, body: &str) -> Result<Json, String> {
        let (status, bytes) = self.send(method, path, body)?;
        if status != 200 {
            return Err(format!("{method} {path} answered {status}"));
        }
        parse_json(&bytes).ok_or_else(|| format!("{method} {path} answered malformed JSON"))
    }
}

pub(crate) fn parse_json(bytes: &[u8]) -> Option<Json> {
    Json::parse(std::str::from_utf8(bytes).ok()?).ok()
}

/// The `(set, score)` rows of a `/search` body, or `None` when the body
/// is malformed or flagged `timed_out`.
pub(crate) fn search_hits(doc: &Json) -> Option<Vec<(u32, f64)>> {
    if doc.get("timed_out") != Some(&Json::Bool(false)) {
        return None;
    }
    doc.get("results")?
        .as_array()?
        .iter()
        .map(|row| {
            let set = u32::try_from(row.get("set")?.as_usize()?).ok()?;
            Some((set, row.get("score")?.as_f64()?))
        })
        .collect()
}

/// Total size of the regular files under `dir`.
pub(crate) fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}
