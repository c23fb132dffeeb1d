//! Backpressure regression tests: with `--max-inflight-updates N`,
//! update requests beyond N (applying or queued on the engine write
//! lock) are rejected immediately with `503` + `Retry-After` instead of
//! queuing unboundedly — a slow in-flight reader cannot turn a burst of
//! writers into an unbounded pile-up on the lock.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use silkmoth_core::{EngineConfig, RelatednessMetric};
use silkmoth_server::{http, Request, SearchService, ShardedEngine};
use silkmoth_text::SimilarityFunction;

fn service(max_inflight: usize) -> SearchService {
    let raw: Vec<Vec<String>> = (0..12)
        .map(|i| vec![format!("w{} shared{}", i % 5, i % 3)])
        .collect();
    let cfg = EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.5,
        0.0,
    );
    SearchService::new(ShardedEngine::build(&raw, cfg, 2).unwrap())
        .with_max_inflight_updates(max_inflight)
}

/// Requests inside the service's handler besides the `/metrics` scrape
/// that reads the count (the page's in-flight gauge includes it).
fn other_requests_in_flight(service: &SearchService) -> i64 {
    let page = service.handle(&Request::new("GET", "/metrics", Vec::new()));
    let page = String::from_utf8(page.body).unwrap();
    let gauge = page
        .lines()
        .find_map(|l| l.strip_prefix("silkmoth_http_inflight_requests "))
        .expect("the in-flight gauge is on the page");
    gauge.parse::<i64>().unwrap() - 1
}

fn append_request() -> Request {
    Request::new(
        "POST",
        "/sets",
        br#"{"sets": [["backpressure probe"]]}"#.to_vec(),
    )
}

/// The slow-update + concurrent-clients scenario: a long-running read
/// (search) holds the engine's read lock, so every update queues on the
/// write lock. With a bound of 2, three concurrent updates must resolve
/// as exactly one immediate 503 — and the two queued ones succeed once
/// the reader finishes.
#[test]
fn bounded_inflight_updates_reject_the_excess_with_503() {
    let service = Arc::new(service(2));
    // The "slow search": holding the read guard blocks every writer.
    let reader_guard = service.engine();

    let (tx, rx) = mpsc::channel();
    let mut workers = Vec::new();
    for _ in 0..3 {
        let service = Arc::clone(&service);
        let tx = tx.clone();
        workers.push(std::thread::spawn(move || {
            let resp = service.handle(&append_request());
            tx.send(resp.status).expect("collector alive");
            resp.status
        }));
    }

    // While the reader is still in flight, exactly one of the three
    // updates must come back — the 503; the other two stay queued
    // (admitted, blocked on the write lock), so only one response can
    // exist yet.
    let first = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("one update must be rejected immediately");
    assert_eq!(first, 503, "the over-bound update is rejected");
    assert!(
        rx.recv_timeout(Duration::from_millis(200)).is_err(),
        "the two admitted updates stay queued while the reader runs"
    );

    // Reader finishes: the queued updates drain successfully.
    drop(reader_guard);
    let mut statuses: Vec<u16> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    statuses.sort_unstable();
    assert_eq!(statuses, vec![200, 200, 503]);

    // Capacity is released: the next update sails through.
    assert_eq!(service.handle(&append_request()).status, 200);
}

/// The same over the wire: the 503 carries a `Retry-After` header.
#[test]
fn rejected_updates_carry_retry_after_on_the_wire() {
    let service = Arc::new(service(1));
    let server = {
        let service = Arc::clone(&service);
        http::serve("127.0.0.1:0", 3, move |req| service.handle(req)).unwrap()
    };
    let addr = server.addr();

    let reader_guard = service.engine();
    // Saturate the single update slot from inside the process.
    let blocked = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || service.handle(&append_request()).status)
    };
    // Let that append get inside the handler before the first probe is
    // even sent, or a probe can take the slot and it is the in-process
    // append that gets the 503.
    while other_requests_in_flight(&service) == 0 {
        std::thread::yield_now();
    }

    // Probe over TCP until the rejection arrives (the first probe can
    // race the blocked thread's admission and get admitted itself — in
    // which case it occupies the slot and the *next* probe is
    // rejected).
    let body = br#"{"sets": [["wire probe"]]}"#;
    let mut rejection = None;
    for _ in 0..10 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        write!(
            stream,
            "POST /sets HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .unwrap();
        stream.write_all(body).unwrap();
        let mut text = String::new();
        let _ = stream.read_to_string(&mut text);
        if text.starts_with("HTTP/1.1 503") {
            rejection = Some(text);
            break;
        }
        // Admitted-and-blocked probe: abandon the connection and try
        // again — the slot it occupies guarantees the next one is
        // rejected.
    }
    let text = rejection.expect("a rejection must arrive while the reader blocks updates");
    assert!(text.contains("Retry-After: 1"), "{text}");
    assert!(text.contains("too many updates in flight"), "{text}");

    drop(reader_guard);
    assert_eq!(blocked.join().unwrap(), 200);
    server.shutdown();
}
