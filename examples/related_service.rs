//! End-to-end service demo: build a sharded engine, serve it over HTTP
//! on an ephemeral port, query it through a real TCP socket, and shut
//! down gracefully.
//!
//! ```text
//! cargo run --example related_service
//! ```

use silkmoth::server::{http, Json, SearchService, ShardedEngine};
use silkmoth::{EngineConfig, RelatednessMetric, SimilarityFunction};
use std::io::{Read, Write};
use std::net::TcpStream;

fn main() {
    // A tiny data lake: address columns from two tables plus noise.
    let raw = vec![
        vec![
            "77 Mass Ave Boston MA",
            "5th St 02115 Seattle WA",
            "77 5th St Chicago IL",
        ],
        vec![
            "77 Massachusetts Avenue Boston MA",
            "Fifth Street Seattle MA 02115",
            "77 Fifth Street Chicago IL",
            "One Kendall Square Cambridge MA",
        ],
        vec!["lorem ipsum", "dolor sit amet"],
    ];
    let cfg = EngineConfig::full(
        RelatednessMetric::Containment,
        SimilarityFunction::Jaccard,
        0.3,
        0.0,
    );
    let engine = ShardedEngine::build(&raw, cfg, 2).expect("valid config");

    // Bind port 0: the OS picks a free port, `server.addr()` reports it.
    let service = SearchService::new(engine);
    let server = http::serve("127.0.0.1:0", 2, move |req| service.handle(req)).expect("bind");
    let addr = server.addr();
    println!("serving on http://{addr}");

    let body = r#"{"reference": ["77 Mass Ave Boston MA", "5th St 02115 Seattle WA"], "k": 2, "floor": 0.2}"#;
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /search HTTP/1.1\r\nHost: demo\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )
    .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let (head, json) = response.split_once("\r\n\r\n").expect("head and body");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let doc = Json::parse(json).expect("valid JSON");
    println!("response: {doc}");
    let mut found = Vec::new();
    for result in doc
        .get("results")
        .and_then(Json::as_array)
        .expect("results")
    {
        let set = result.get("set").and_then(Json::as_usize).expect("set");
        let score = result.get("score").and_then(Json::as_f64).expect("score");
        println!("  related set {set} with score {score:.3}");
        found.push((set, score));
    }
    // The reference is two of set 0's three rows (containment 1); set 1
    // aligns (3/7 + 1/4) / 2 of it; set 2 shares nothing.
    assert_eq!(found.len(), 2, "{doc}");
    assert_eq!(found[0], (0, 1.0));
    assert_eq!(found[1].0, 1);
    assert!((found[1].1 - (3.0 / 7.0 + 0.25) / 2.0).abs() < 1e-9);

    server.shutdown();
    println!("server drained and stopped");
}
