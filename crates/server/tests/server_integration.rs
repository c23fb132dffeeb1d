//! End-to-end service test: boots the HTTP server on an ephemeral port,
//! issues concurrent `/search`, `/stats`, and `/healthz` requests over
//! real TCP (keep-alive connections), verifies the responses against
//! direct engine output, and checks graceful shutdown releases the port.

use silkmoth_collection::Collection;
use silkmoth_core::{brute, EngineConfig, QuerySpec, RelatednessMetric};
use silkmoth_server::json::{obj, Json};
use silkmoth_server::{http, read_simple_response, HttpServer, SearchService, ShardedEngine};
use silkmoth_text::SimilarityFunction;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

const SHARDS: usize = 3;
const CLIENTS: usize = 8;

fn corpus() -> Vec<Vec<String>> {
    silkmoth_datagen::webtable_schemas(&silkmoth_datagen::SchemaConfig {
        num_sets: 80,
        ..Default::default()
    })
}

fn cfg() -> EngineConfig {
    EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.5,
        0.0,
    )
}

fn engine() -> ShardedEngine {
    ShardedEngine::build(&corpus(), cfg(), SHARDS).unwrap()
}

/// Binds an ephemeral port and serves `engine` on `threads` workers.
fn serve(engine: ShardedEngine, threads: usize) -> HttpServer {
    let service = SearchService::new(engine);
    http::serve("127.0.0.1:0", threads, move |req| service.handle(req)).unwrap()
}

/// Sends one request on an open connection and reads the full response.
fn roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Json) {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(request.as_bytes()).unwrap();
    let (status, body) = read_simple_response(reader).unwrap();
    (
        status,
        Json::parse(std::str::from_utf8(&body).unwrap()).unwrap(),
    )
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

#[test]
fn concurrent_requests_over_tcp_with_graceful_shutdown() {
    let engine = engine();
    let reference = vec!["id int".to_owned(), "name varchar".to_owned()];
    // Ground truth from the engine before it moves into the server.
    let spec = QuerySpec::new(reference.clone())
        .with_top_k(5)
        .with_floor(0.2)
        .unwrap();
    let expected = engine.execute(&spec).hits;
    let sets = engine.len();

    let server = serve(engine, 4);
    let addr = server.addr();
    let search_body = format!(
        "{{\"reference\": [\"{}\", \"{}\"], \"k\": 5, \"floor\": 0.2}}",
        reference[0], reference[1],
    );

    // CLIENTS threads, each driving one keep-alive connection through
    // healthz → search → stats.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let expected = &expected;
                let search_body = search_body.as_str();
                scope.spawn(move || {
                    let (mut stream, mut reader) = connect(addr);

                    let (status, health) =
                        roundtrip(&mut stream, &mut reader, "GET", "/healthz", "");
                    assert_eq!(status, 200);
                    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
                    assert_eq!(health.get("shards").and_then(Json::as_usize), Some(SHARDS));
                    assert_eq!(health.get("sets").and_then(Json::as_usize), Some(sets));

                    let (status, found) =
                        roundtrip(&mut stream, &mut reader, "POST", "/search", search_body);
                    assert_eq!(status, 200, "{found}");
                    let results = found.get("results").and_then(Json::as_array).unwrap();
                    assert_eq!(results.len(), expected.len());
                    for (json, &(set, score)) in results.iter().zip(expected) {
                        assert_eq!(json.get("set").and_then(Json::as_usize), Some(set as usize));
                        let got = json.get("score").and_then(Json::as_f64).unwrap();
                        assert!((got - score).abs() < 1e-12);
                    }

                    let (status, stats) = roundtrip(&mut stream, &mut reader, "GET", "/stats", "");
                    assert_eq!(status, 200);
                    assert!(
                        stats
                            .get("requests")
                            .and_then(|r| r.get("search"))
                            .and_then(Json::as_usize)
                            .unwrap()
                            >= 1
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread panicked");
        }
    });

    // After all clients: the request counter saw every search, and the
    // cumulative per-shard stats are populated.
    let (mut stream, mut reader) = connect(addr);
    let (status, stats) = roundtrip(&mut stream, &mut reader, "GET", "/stats", "");
    assert_eq!(status, 200);
    assert_eq!(
        stats
            .get("requests")
            .and_then(|r| r.get("search"))
            .and_then(Json::as_usize),
        Some(CLIENTS)
    );
    let shards = stats.get("shards").and_then(Json::as_array).unwrap();
    assert_eq!(shards.len(), SHARDS);
    let shard_sets: usize = shards
        .iter()
        .map(|s| s.get("sets").and_then(Json::as_usize).unwrap())
        .sum();
    assert_eq!(shard_sets, sets);
    drop((stream, reader));

    // Graceful shutdown: joins all threads and releases the port.
    server.shutdown();
    assert!(
        TcpListener::bind(addr).is_ok(),
        "port must be released after shutdown"
    );
}

#[test]
fn malformed_and_unknown_requests_over_tcp() {
    let server = serve(engine(), 2);
    let (mut stream, mut reader) = connect(server.addr());
    let (status, err) = roundtrip(&mut stream, &mut reader, "POST", "/search", "{broken");
    assert_eq!(status, 400);
    assert!(err.get("error").is_some());
    // The connection survives a 400 and serves the next request.
    let (status, _) = roundtrip(&mut stream, &mut reader, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (status, _) = roundtrip(&mut stream, &mut reader, "GET", "/missing", "");
    assert_eq!(status, 404);
    let (status, _) = roundtrip(&mut stream, &mut reader, "PUT", "/search", "{}");
    assert_eq!(status, 405);
    drop((stream, reader));
    server.shutdown();
}

#[test]
fn discover_over_tcp_matches_brute_force() {
    let raw = corpus();
    let refs = [
        vec!["id int".to_owned(), "name varchar".to_owned()],
        raw[7].clone(),
        vec!["zz unmatched".to_owned()],
    ];
    // Exhaustive verification over the unsharded collection: global ids
    // are corpus positions.
    let collection = Collection::build(&raw, cfg().tokenization());
    let encoded: Vec<_> = refs.iter().map(|set| collection.encode_set(set)).collect();
    let expected = brute::discover(&encoded, &collection, &cfg());
    assert!(expected.iter().any(|p| p.r == 1 && p.s == 7));
    let server = serve(engine(), 2);
    let (mut stream, mut reader) = connect(server.addr());
    let texts = |set: &Vec<String>| Json::Arr(set.iter().cloned().map(Json::Str).collect());
    let body = obj(vec![(
        "references",
        Json::Arr(refs.iter().map(texts).collect()),
    )]);
    let (status, doc) = roundtrip(
        &mut stream,
        &mut reader,
        "POST",
        "/discover",
        &body.to_string(),
    );
    assert_eq!(status, 200, "{doc}");
    let pairs = doc.get("pairs").and_then(Json::as_array).unwrap();
    assert_eq!(pairs.len(), expected.len());
    for (json, pair) in pairs.iter().zip(&expected) {
        assert_eq!(
            json.get("r").and_then(Json::as_usize),
            Some(pair.r as usize)
        );
        assert_eq!(
            json.get("s").and_then(Json::as_usize),
            Some(pair.s as usize)
        );
        let score = json.get("score").and_then(Json::as_f64).unwrap();
        assert_eq!(score.to_bits(), pair.score.to_bits());
    }
    drop((stream, reader));
    server.shutdown();
}
