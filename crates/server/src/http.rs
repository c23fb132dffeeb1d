//! A minimal multi-threaded HTTP/1.1 server on [`std::net::TcpListener`]:
//! an acceptor thread feeds a fixed worker pool through a channel.
//! Connections are **time-sliced**: a worker serves requests while they
//! are arriving and hands an idle keep-alive connection back to the
//! queue, so N workers multiplex more than N connections without
//! starving anyone. Shutdown is graceful: the acceptor stops,
//! connections finish their in-flight request, and the pool drains
//! before [`HttpServer::shutdown`] returns.
//!
//! Implements the subset the service needs: request line + headers +
//! `Content-Length` bodies. Requests with `Transfer-Encoding` are
//! rejected with a 400 (never silently misframed). No TLS, no
//! `Expect: 100-continue`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Total request-head bytes (request line + headers) accepted.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest request body accepted.
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Idle keep-alive connections are dropped after this long.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);
/// Cap on any single blocking read while receiving a request.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Hard wall-clock budget for receiving one complete request (head +
/// body) once its first byte has arrived. Per-read timeouts reset on
/// every byte, so without this a client trickling one byte per few
/// seconds (slowloris) would pin a worker for hours.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);
/// How long an idle worker blocks waiting for queued work before
/// re-checking the shutdown flag.
const SHUTDOWN_POLL: Duration = Duration::from_millis(20);
/// How long a worker's peek blocks waiting for a kept-alive connection's
/// next request to *start* arriving before handing the connection back
/// to the queue. Long enough that an active connection is served the
/// instant its bytes land (the read wakes on arrival), short enough that
/// cycling through C idle connections on W workers adds at most
/// ~C/W milliseconds of latency and never busy-spins.
const PEEK_TIMEOUT: Duration = Duration::from_millis(1);

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// Request target as sent (path + optional query).
    pub path: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when there is no `Content-Length`).
    pub body: Vec<u8>,
    /// True for HTTP/1.0 requests (default close instead of keep-alive).
    http10: bool,
}

impl Request {
    /// Builds an HTTP/1.1 request directly — for exercising a handler
    /// without a socket.
    pub fn new(method: &str, path: &str, body: Vec<u8>) -> Self {
        Self {
            method: method.to_owned(),
            path: path.to_owned(),
            headers: Vec::new(),
            body,
            http10: false,
        }
    }

    /// First header value by (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open.
    fn keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => !self.http10,
        }
    }
}

/// Splits a request target into its path and query string (empty when
/// there is none).
pub(crate) fn split_target(target: &str) -> (&str, &str) {
    target.split_once('?').unwrap_or((target, ""))
}

/// One HTTP response.
#[derive(Debug)]
pub struct Response {
    /// Status code, e.g. 200.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Extra headers beyond the framing ones (e.g. `Retry-After` on a
    /// 503). Names must be valid header names; values a single line.
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A `Content-Type: application/json` response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            headers: Vec::new(),
        }
    }

    /// A plain-text response with an explicit `Content-Type` (e.g. the
    /// Prometheus exposition type for `/metrics`).
    pub fn text(status: u16, content_type: &'static str, body: String) -> Self {
        Self {
            status,
            content_type,
            body: body.into_bytes(),
            headers: Vec::new(),
        }
    }

    /// Adds one extra response header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Reads one `\n`-terminated head line, enforcing the remaining head
/// budget `cap` and the request deadline *while* reading — a line that
/// never terminates can neither buffer unboundedly nor trickle past the
/// deadline. `Ok(None)` means clean EOF before any byte.
fn read_head_line(
    conn: &mut Conn,
    cap: &mut usize,
    deadline: Instant,
) -> io::Result<Option<String>> {
    let mut bytes: Vec<u8> = Vec::new();
    loop {
        conn.arm_before_socket_read(deadline)?;
        let (consumed, complete) = {
            let buf = match conn.reader.fill_buf() {
                Ok(buf) => buf,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // The read timeout (`SO_RCVTIMEO`) is the deadline's cut.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Err(io::ErrorKind::TimedOut.into())
                }
                Err(e) => return Err(e),
            };
            if buf.is_empty() {
                if bytes.is_empty() {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-line",
                ));
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    bytes.extend_from_slice(&buf[..=pos]);
                    (pos + 1, true)
                }
                None => {
                    bytes.extend_from_slice(buf);
                    (buf.len(), false)
                }
            }
        };
        conn.reader.consume(consumed);
        if bytes.len() > *cap {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        if complete {
            *cap -= bytes.len();
            return String::from_utf8(bytes).map(Some).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 in request head")
            });
        }
    }
}

/// Reads exactly `len` body bytes under the request deadline.
fn read_body(conn: &mut Conn, len: usize, deadline: Instant) -> io::Result<Vec<u8>> {
    let mut body = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        conn.arm_before_socket_read(deadline)?;
        match conn.reader.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ))
            }
            Ok(n) => filled += n,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                return Err(io::ErrorKind::TimedOut.into())
            }
            Err(e) => return Err(e),
        }
    }
    Ok(body)
}

/// Reads one request off the connection. `Ok(None)` means the client
/// closed cleanly before sending another request; `InvalidData` errors
/// mean a malformed or oversized request (the caller answers 400 and
/// closes). The whole request must arrive by `deadline`: every read
/// that goes to the socket runs under what is left of it (capped at
/// [`READ_TIMEOUT`]), and none starts once it has passed (`TimedOut`),
/// while bytes already buffered are parsed without a syscall.
/// [`serve_slice`] passes `now + REQUEST_DEADLINE` once the first byte
/// is ready, so the clock effectively starts at the first byte.
fn read_request(conn: &mut Conn, deadline: Instant) -> io::Result<Option<Request>> {
    let mut cap = MAX_HEAD_BYTES;
    let Some(line) = read_head_line(conn, &mut cap, deadline)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed request line");
    let method = parts.next().ok_or_else(bad)?.to_owned();
    let path = parts.next().ok_or_else(bad)?.to_owned();
    let version = parts.next().ok_or_else(bad)?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad());
    }
    let http10 = version == "HTTP/1.0";

    let mut headers = Vec::new();
    loop {
        let Some(line) = read_head_line(conn, &mut cap, deadline)? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        };
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let (name, value) = trimmed
            .split_once(':')
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let mut request = Request {
        method,
        path,
        headers,
        body: Vec::new(),
        http10,
    };
    // The only body framing implemented is Content-Length. Anything else
    // must be rejected (the caller closes the connection), never ignored:
    // treating a chunked body as "no body" would re-parse its bytes as
    // the next request on the keep-alive connection — a desync.
    if request.header("transfer-encoding").is_some() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "transfer-encoding is not supported (use content-length)",
        ));
    }
    // Same desync hazard for conflicting duplicate Content-Length
    // headers (RFC 9112 §6.3): reject unless all agree.
    let mut lengths = request
        .headers
        .iter()
        .filter(|(k, _)| k == "content-length");
    if let Some((_, first)) = lengths.next() {
        if lengths.any(|(_, other)| other != first) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "conflicting content-length headers",
            ));
        }
        let len: usize = first
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        if len > MAX_BODY_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request body too large",
            ));
        }
        request.body = read_body(conn, len, deadline)?;
    }
    Ok(Some(request))
}

/// Reads one HTTP/1.1 response — status line, headers, `Content-Length`
/// body — off a blocking reader: the minimal client-side counterpart of
/// this server, shared by the load generator and the integration tests.
pub fn read_simple_response<R: BufRead>(reader: &mut R) -> io::Result<(u16, Vec<u8>)> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let mut content_length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some(v) = trimmed.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v
                .trim()
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

/// Writes `resp` with its framing headers — `Content-Length`, and
/// `Connection: close` when `close`, else `keep-alive` — as one buffer
/// in one `write_all`: with `TCP_NODELAY` a head and a body written
/// apart leave as two segments, and a client that wakes on the head
/// blocks again on the body.
fn write_response(out: &mut impl Write, resp: &Response, close: bool) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(256 + resp.body.len());
    write!(
        bytes,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if close { "close" } else { "keep-alive" },
    )?;
    for (name, value) in &resp.headers {
        for part in [name.as_bytes(), b": ", value.as_bytes(), b"\r\n"] {
            bytes.extend_from_slice(part);
        }
    }
    bytes.extend_from_slice(b"\r\n");
    bytes.extend_from_slice(&resp.body);
    out.write_all(&bytes)?;
    out.flush()
}

/// One live connection with its buffered reader, the instant it last
/// completed a request (for the idle cutoff), and whether the socket's
/// read timeout is still [`PEEK_TIMEOUT`] — a request that read from
/// the socket re-armed it, so the next peek must set it again.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    idle_since: Instant,
    peek_armed: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Option<Self> {
        // Small request/response pairs on keep-alive connections are
        // exactly the pattern Nagle + delayed ACK punishes (~40 ms per
        // turn); the response is written in full, so there is nothing to
        // coalesce.
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone().ok()?;
        Some(Self {
            reader: BufReader::new(stream),
            writer,
            idle_since: Instant::now(),
            peek_armed: false,
        })
    }

    /// Arms the read timeout for the peek, unless it is armed already.
    fn arm_peek(&mut self) -> io::Result<()> {
        if !self.peek_armed {
            self.reader.get_ref().set_read_timeout(Some(PEEK_TIMEOUT))?;
            self.peek_armed = true;
        }
        Ok(())
    }

    /// Before a read that goes to the socket — the buffer is empty —
    /// re-arms the read timeout to what is left of `deadline` (capped at
    /// [`READ_TIMEOUT`]); errors with `TimedOut` once the deadline has
    /// passed. A read the buffer serves cannot block, so it needs no
    /// timeout.
    fn arm_before_socket_read(&mut self, deadline: Instant) -> io::Result<()> {
        if !self.reader.buffer().is_empty() {
            return Ok(());
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request deadline exceeded",
            ));
        }
        self.peek_armed = false;
        let stream = self.reader.get_ref();
        stream.set_read_timeout(Some(remaining.min(READ_TIMEOUT)))
    }
}

/// Serves a connection for one time slice. Returns the connection when
/// it should go back to the queue (kept alive but currently idle), or
/// `None` when it is finished (closed, errored, timed out, or draining
/// for shutdown).
///
/// A worker never blocks longer than [`PEEK_TIMEOUT`] on an *idle*
/// connection — it peeks with `fill_buf` first, which consumes nothing,
/// and only commits to the request deadline (`now + REQUEST_DEADLINE`,
/// passed to [`read_request`]) once the next request has started
/// arriving. This is what lets a fixed pool of N workers multiplex more
/// than N keep-alive connections without starving anyone. The peek's
/// timeout is set again only after a request re-armed it, so a request
/// whose bytes all arrived with the peek's read is parsed from the
/// buffer and costs one receive and one send ([`write_response`]).
fn serve_slice<H>(mut conn: Conn, handler: &H, shutdown: &AtomicBool) -> Option<Conn>
where
    H: Fn(&Request) -> Response,
{
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return None;
        }
        // Peek: has the next request started? fill_buf consumes nothing,
        // so handing the connection back here never loses bytes. The
        // blocking read wakes the moment bytes land, so an active
        // connection pays no peek latency at all.
        if conn.reader.buffer().is_empty() {
            if conn.arm_peek().is_err() {
                return None;
            }
            match conn.reader.fill_buf() {
                Ok([]) => return None, // clean EOF
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    if conn.idle_since.elapsed() >= IDLE_TIMEOUT {
                        return None; // idle too long, drop it
                    }
                    return Some(conn); // requeue: let another connection run
                }
                Err(_) => return None,
            }
        }
        // A request is arriving: read it under the request deadline.
        match read_request(&mut conn, Instant::now() + REQUEST_DEADLINE) {
            Ok(Some(request)) => {
                let response = handler(&request);
                // Draining: finish this request, then close instead of
                // waiting for another on the keep-alive connection.
                let close = shutdown.load(Ordering::SeqCst) || !request.keep_alive();
                if write_response(&mut conn.writer, &response, close).is_err() || close {
                    return None;
                }
                conn.idle_since = Instant::now();
            }
            Ok(None) => return None,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let resp = Response::json(400, format!("{{\"error\":\"{e}\"}}"));
                let _ = write_response(&mut conn.writer, &resp, true);
                return None;
            }
            // Timeouts, resets, truncated requests: just drop the
            // connection.
            Err(_) => return None,
        }
    }
}

/// A running server: the acceptor thread, the worker pool, and the
/// shutdown flag. Obtained from [`serve`].
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// The bound address (with the OS-assigned port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, let every already-accepted
    /// connection finish its in-flight request, drain the pool, and join
    /// all threads.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        self.join_all();
    }

    /// Blocks until the server stops (i.e. forever, unless another
    /// handle triggers shutdown or the acceptor dies). Used by the CLI's
    /// `serve` command.
    pub fn wait(mut self) {
        self.join_all();
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        wake_acceptor(self.addr);
    }

    fn join_all(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Wakes an acceptor thread blocked in `accept()` on `addr` with a
/// throwaway connection, so it can see its stop flag. A wildcard bind
/// address (0.0.0.0 / ::) is not connectable on every platform, so the
/// connection aims at loopback instead, and it gives up after a second.
pub(crate) fn wake_acceptor(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match target.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    let _ = TcpStream::connect_timeout(&target, Duration::from_secs(1));
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        // Dropping the handle without an explicit shutdown() still stops
        // the server instead of leaking detached threads.
        if self.acceptor.is_some() {
            self.begin_shutdown();
            self.join_all();
        }
    }
}

/// Binds `addr` and serves `handler` on a pool of `threads` workers
/// (clamped to ≥ 1). Returns immediately; the server runs on background
/// threads until [`HttpServer::shutdown`] (or drop).
pub fn serve<A, H>(addr: A, threads: usize, handler: H) -> io::Result<HttpServer>
where
    A: ToSocketAddrs,
    H: Fn(&Request) -> Response + Send + Sync + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let handler = Arc::new(handler);
    let (tx, rx) = mpsc::channel::<Conn>();
    let rx = Arc::new(Mutex::new(rx));

    let workers: Vec<JoinHandle<()>> = (0..threads.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let tx = tx.clone();
            let handler = Arc::clone(&handler);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || loop {
                // Holding the lock while blocked in recv_timeout is fine:
                // the first connection wakes exactly one worker, which
                // releases the lock before serving it (the book's pool
                // pattern, plus a timeout to observe the shutdown flag —
                // workers hold `tx` clones for requeueing, so the channel
                // never disconnects on its own).
                let work = rx
                    .lock()
                    .expect("dispatch lock poisoned")
                    .recv_timeout(SHUTDOWN_POLL);
                match work {
                    Ok(conn) => {
                        if let Some(conn) = serve_slice(conn, handler.as_ref(), &shutdown) {
                            // Still alive but idle: back of the queue.
                            // The bounded PEEK_TIMEOUT it just spent is
                            // what keeps this rotation from spinning hot.
                            let _ = tx.send(conn);
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => return,
                }
            })
        })
        .collect();

    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break; // wake-up connection (or racing client) dropped
                }
                match stream {
                    Ok(stream) => {
                        if let Some(conn) = Conn::new(stream) {
                            if tx.send(conn).is_err() {
                                break;
                            }
                        }
                    }
                    Err(_) => {
                        // Persistent accept errors (fd exhaustion —
                        // EMFILE/ENFILE) fail instantly; don't busy-spin,
                        // give in-flight connections a chance to close.
                        std::thread::sleep(Duration::from_millis(50));
                        continue;
                    }
                }
            }
        })
    };

    Ok(HttpServer {
        addr,
        shutdown,
        acceptor: Some(acceptor),
        workers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        let status: u16 = text.split_whitespace().nth(1).unwrap().parse().unwrap();
        let body = text.split("\r\n\r\n").nth(1).unwrap_or("").to_owned();
        (status, body)
    }

    fn echo_server(threads: usize) -> HttpServer {
        serve("127.0.0.1:0", threads, |req: &Request| {
            Response::json(200, format!("{{\"path\":\"{}\"}}", req.path))
        })
        .unwrap()
    }

    #[test]
    fn serves_and_shuts_down() {
        let server = echo_server(2);
        let addr = server.addr();
        let (status, body) = get(addr, "/x");
        assert_eq!(status, 200);
        assert!(body.contains("\"/x\""));
        server.shutdown();
        // After shutdown the port no longer accepts requests.
        assert!(TcpStream::connect(addr).is_err() || get_best_effort(addr).is_none());
    }

    fn get_best_effort(addr: SocketAddr) -> Option<String> {
        let mut stream = TcpStream::connect(addr).ok()?;
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .ok()?;
        write!(stream, "GET / HTTP/1.1\r\nHost: x\r\n\r\n").ok()?;
        let mut text = String::new();
        stream.read_to_string(&mut text).ok()?;
        if text.is_empty() {
            None
        } else {
            Some(text)
        }
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let server = echo_server(1);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..3 {
            write!(stream, "GET /req{i} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let (status, body) = read_simple_response(&mut reader).unwrap();
            assert_eq!(status, 200, "req{i}");
            assert!(String::from_utf8(body)
                .unwrap()
                .contains(&format!("req{i}")));
        }
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn one_worker_multiplexes_many_keepalive_connections() {
        // Three keep-alive clients against a pool of ONE worker: without
        // connection time-slicing the second and third connections would
        // starve behind the first until it closed or idled out.
        let server = echo_server(1);
        let mut clients: Vec<(TcpStream, BufReader<TcpStream>)> = (0..3)
            .map(|_| {
                let stream = TcpStream::connect(server.addr()).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let reader = BufReader::new(stream.try_clone().unwrap());
                (stream, reader)
            })
            .collect();
        for round in 0..3 {
            for (cid, (stream, reader)) in clients.iter_mut().enumerate() {
                write!(stream, "GET /c{cid}r{round} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
                let (status, body) = read_simple_response(reader).unwrap();
                assert_eq!(status, 200, "c{cid}r{round}");
                assert!(
                    String::from_utf8(body)
                        .unwrap()
                        .contains(&format!("c{cid}r{round}")),
                    "c{cid}r{round}"
                );
            }
        }
        drop(clients);
        server.shutdown();
    }

    #[test]
    fn oversized_request_head_is_rejected_not_buffered() {
        let server = echo_server(1);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // A request line far past MAX_HEAD_BYTES with no newline: the
        // server must cut it off at the cap, not buffer until OOM. The
        // write may fail mid-stream once the server closes — fine.
        let chunk = vec![b'A'; 64 * 1024];
        let _ = stream.write_all(&chunk);
        let mut text = String::new();
        let _ = stream.read_to_string(&mut text);
        // Either an explicit 400 or an abrupt close is acceptable; what
        // is not acceptable is hanging while the server buffers forever.
        assert!(
            text.is_empty() || text.starts_with("HTTP/1.1 400"),
            "{text}"
        );
        server.shutdown();
    }

    #[test]
    fn transfer_encoding_is_rejected_not_misframed() {
        let server = echo_server(1);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(
            stream,
            "POST /x HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n\
             4\r\nbody\r\n0\r\n\r\n"
        )
        .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        // 400 + close: the chunked payload must never be parsed as a
        // second request on this connection.
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert_eq!(text.matches("HTTP/1.1").count(), 1, "{text}");
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_400() {
        let server = echo_server(1);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        server.shutdown();
    }

    /// A connected client socket and the server's `Conn` for it.
    fn connected() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, Conn::new(server).unwrap())
    }

    /// Sends `bytes` one at a time, 10 ms apart, until they are all sent
    /// or the server has closed.
    fn trickle(mut client: TcpStream, bytes: Vec<u8>) -> JoinHandle<()> {
        std::thread::spawn(move || {
            for b in bytes {
                if client.write_all(&[b]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    }

    /// Reads one request under a deadline 200 ms out while `client`
    /// trickles `bytes` (3 s and more of them) after sending `sent` at
    /// once; the read must time out near the deadline with `TimedOut`,
    /// whether the deadline check or a socket read armed with the
    /// deadline's last milliseconds cut it.
    fn assert_cut_at_deadline(sent: &[u8], bytes: Vec<u8>) {
        assert!(bytes.len() >= 300, "the trickle outlasts the deadline");
        let (mut client, mut conn) = connected();
        client.write_all(sent).unwrap();
        let writer = trickle(client, bytes);
        let start = Instant::now();
        let read = read_request(&mut conn, start + Duration::from_millis(200));
        let took = start.elapsed();
        let kind = read.err().map(|e| e.kind());
        assert_eq!(kind, Some(io::ErrorKind::TimedOut));
        let window = Duration::from_millis(100)..Duration::from_millis(1500);
        assert!(window.contains(&took), "cut after {took:?}");
        drop(conn);
        writer.join().unwrap();
    }

    #[test]
    fn a_trickled_head_is_cut_at_the_callers_deadline() {
        // One long request line: the deadline must hold within a line,
        // not only between lines.
        let head = format!("GET /{} HTTP/1.1\r\nHost: x\r\n\r\n", "a".repeat(300));
        assert_cut_at_deadline(b"", head.into_bytes());
    }

    #[test]
    fn a_trickled_body_is_cut_at_the_callers_deadline() {
        let head = b"POST /b HTTP/1.1\r\nHost: x\r\nContent-Length: 300\r\n\r\n";
        assert_cut_at_deadline(head, vec![b'x'; 300]);
    }

    #[test]
    fn pipelined_requests_are_answered_in_order_on_one_connection() {
        let server = serve("127.0.0.1:0", 1, |req: &Request| {
            let body = String::from_utf8_lossy(&req.body);
            Response::json(200, format!("{} {}", req.path, body))
        })
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // Two requests in one write: the second is parsed from what the
        // first one's read left in the buffer.
        stream
            .write_all(
                b"POST /first HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello\
                  GET /second HTTP/1.1\r\nHost: x\r\n\r\n",
            )
            .unwrap();
        for want in ["/first hello", "/second "] {
            let (status, body) = read_simple_response(&mut reader).unwrap();
            assert_eq!(
                (status, String::from_utf8(body).unwrap().as_str()),
                (200, want)
            );
        }
        // The connection stays open and serves the next request.
        stream
            .write_all(b"GET /third HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let (status, body) = read_simple_response(&mut reader).unwrap();
        assert_eq!((status, body.as_slice()), (200, b"/third ".as_slice()));
        drop((stream, reader));
        server.shutdown();
    }

    /// A writer that records each `write` call.
    #[derive(Default)]
    struct Recording(Vec<Vec<u8>>);

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_reply_goes_out_in_one_write() {
        let resp = Response::json(503, "{\"a\":\"b\"}".into()).with_header("Retry-After", "1");
        let mut out = Recording::default();
        write_response(&mut out, &resp, false).unwrap();
        let writes: Vec<String> = out
            .0
            .into_iter()
            .map(|w| String::from_utf8(w).unwrap())
            .collect();
        assert_eq!(
            writes,
            [
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
              Content-Length: 9\r\nConnection: keep-alive\r\nRetry-After: 1\r\n\r\n{\"a\":\"b\"}"
            ]
        );
        let mut out = Recording::default();
        write_response(&mut out, &Response::json(200, String::new()), true).unwrap();
        assert_eq!(
            out.0,
            [b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
               Content-Length: 0\r\nConnection: close\r\n\r\n"
                .to_vec()]
        );
    }

    #[test]
    fn post_body_roundtrips() {
        let server = serve("127.0.0.1:0", 2, |req: &Request| {
            Response::json(200, String::from_utf8_lossy(&req.body).into_owned())
        })
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let body = "{\"echo\":true}";
        write!(
            stream,
            "POST /e HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.ends_with(body), "{text}");
        server.shutdown();
    }
}
