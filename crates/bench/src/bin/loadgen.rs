//! `loadgen` — drives concurrent `/search` (or, with `--batch N`,
//! `/search/batch`) traffic against a running `silkmoth serve` instance
//! over real TCP and reports throughput and latency percentiles.
//!
//! ```text
//! silkmoth serve --input data.sets --port 7700 --shards 4 &
//! loadgen --addr 127.0.0.1:7700 --threads 8 --requests 200 --k 10 --floor 0.3
//! loadgen --addr 127.0.0.1:7700 --batch 16 --requests 50
//! ```
//!
//! References are drawn from the deterministic datagen schema workload
//! (`--sets` controls its size), so runs are reproducible without a
//! dataset file. Each worker thread holds one keep-alive connection and
//! issues requests back to back — the closed-loop load model.
//!
//! With `--batch N` each HTTP request carries N query specs; the report
//! then shows **per-request** latency percentiles alongside the
//! amortized **per-query** latency (request latency / N), which is what
//! the batch API buys.

use silkmoth_server::json::{obj, Json};
use silkmoth_server::read_simple_response;
use silkmoth_server::telemetry::expo;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

struct Opts {
    addr: String,
    threads: usize,
    requests: usize,
    k: usize,
    floor: f64,
    sets: usize,
    batch: usize,
    tenants: usize,
    json_out: Option<String>,
    label: Option<String>,
    dump_sets: Option<String>,
    scrape_metrics_ms: Option<u64>,
    trace_sample: Option<u64>,
}

/// Version of the `--json-out` report schema.
const REPORT_VERSION: u64 = 1;

const USAGE: &str = "\
usage: loadgen --addr HOST:PORT [options]

options:
  --addr A       server address, e.g. 127.0.0.1:7700   (required)
  --threads N    concurrent client connections          (default: 4)
  --requests N   requests per connection                (default: 100)
  --k K          top-k per search                       (default: 10)
  --floor F      relatedness floor per search           (default: 0.3)
  --sets N       datagen corpus size to draw references from (default: 200)
  --batch N      queries per request: 1 posts /search, >1 posts
                 /search/batch with N specs per body    (default: 1)
  --tenants N    multi-tenant mode: create catalog collections
                 loadgen-t0..loadgen-t{N-1} (seeding each with the
                 --sets corpus), round-robin the search traffic across
                 their scoped routes, and report per-tenant latency
                 percentiles alongside the aggregate
  --json-out F   also write the report as one versioned JSON object
                 to F ('-' for stdout)
  --label L      scenario name recorded in the JSON report
  --dump-sets F  write the deterministic --sets corpus to F in
                 `silkmoth serve --input` format and exit — serve this
                 file and the generated references actually match it
  --scrape-metrics N
                 also poll GET /metrics every N ms during the run on a
                 separate connection, validate every page with the
                 exposition linter, and report scrape count + latency —
                 measures what monitoring costs under load
  --trace-sample N
                 record that the target serves with --trace-sample N and
                 probe GET /debug/traces after the run, reporting how
                 many traces the ring retained — pairs of runs with and
                 without this measure tracing overhead
";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        addr: String::new(),
        threads: 4,
        requests: 100,
        k: 10,
        floor: 0.3,
        sets: 200,
        batch: 1,
        tenants: 0,
        json_out: None,
        label: None,
        dump_sets: None,
        scrape_metrics_ms: None,
        trace_sample: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || {
            args.next()
                .unwrap_or_else(|| fail(&format!("missing value for {a}")))
        };
        match a.as_str() {
            "--addr" => opts.addr = val(),
            "--threads" => opts.threads = val().parse().unwrap_or_else(|_| fail("bad --threads")),
            "--requests" => {
                opts.requests = val().parse().unwrap_or_else(|_| fail("bad --requests"))
            }
            "--k" => opts.k = val().parse().unwrap_or_else(|_| fail("bad --k")),
            "--floor" => opts.floor = val().parse().unwrap_or_else(|_| fail("bad --floor")),
            "--sets" => opts.sets = val().parse().unwrap_or_else(|_| fail("bad --sets")),
            "--batch" => opts.batch = val().parse().unwrap_or_else(|_| fail("bad --batch")),
            "--tenants" => opts.tenants = val().parse().unwrap_or_else(|_| fail("bad --tenants")),
            "--json-out" => opts.json_out = Some(val()),
            "--label" => opts.label = Some(val()),
            "--dump-sets" => opts.dump_sets = Some(val()),
            "--scrape-metrics" => {
                opts.scrape_metrics_ms = Some(
                    val()
                        .parse()
                        .unwrap_or_else(|_| fail("bad --scrape-metrics")),
                )
            }
            "--trace-sample" => {
                opts.trace_sample =
                    Some(val().parse().unwrap_or_else(|_| fail("bad --trace-sample")))
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => fail(&format!("unknown option {other}")),
        }
    }
    if opts.addr.is_empty() && opts.dump_sets.is_none() {
        fail("--addr is required");
    }
    if opts.batch == 0 {
        fail("--batch must be at least 1");
    }
    opts
}

fn send(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, Vec<u8>), String> {
    // One write_all for the whole request: write! would issue a syscall
    // (and a TCP segment) per format fragment.
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len(),
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("sending request: {e}"))?;
    read_simple_response(reader).map_err(|e| format!("reading response: {e}"))
}

/// Multi-tenant setup: create `loadgen-t0..` catalog collections and
/// seed each with the deterministic corpus, so every tenant answers the
/// reference pool with the same scores. A collection left over from an
/// earlier run (409 on create) is reused as-is.
fn setup_tenants(
    addr: &str,
    tenants: usize,
    corpus: &[Vec<String>],
) -> Result<Vec<String>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let seed_body = obj(vec![(
        "sets",
        Json::Arr(
            corpus
                .iter()
                .map(|s| Json::Arr(s.iter().map(|e| Json::Str(e.clone())).collect()))
                .collect(),
        ),
    )])
    .to_string();
    let mut names = Vec::with_capacity(tenants);
    for i in 0..tenants {
        let name = format!("loadgen-t{i}");
        let (status, body) = send(
            &mut stream,
            &mut reader,
            addr,
            "PUT",
            &format!("/collections/{name}"),
            "",
        )?;
        match status {
            200 => {
                let (status, body) = send(
                    &mut stream,
                    &mut reader,
                    addr,
                    "POST",
                    &format!("/collections/{name}/sets"),
                    &seed_body,
                )?;
                if status != 200 {
                    return Err(format!(
                        "seeding {name}: HTTP {status}: {}",
                        String::from_utf8_lossy(&body)
                    ));
                }
            }
            409 => eprintln!("# tenant {name} already exists, reusing it"),
            _ => {
                return Err(format!(
                    "creating {name}: HTTP {status}: {}",
                    String::from_utf8_lossy(&body)
                ))
            }
        }
        names.push(name);
    }
    eprintln!("# {tenants} tenants ready ({} sets each)", corpus.len());
    Ok(names)
}

fn healthcheck(addr: &str) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    write!(
        stream,
        "GET /healthz HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let (status, body) = read_simple_response(&mut reader).map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("healthz returned {status}"));
    }
    let doc = Json::parse(std::str::from_utf8(&body).unwrap_or("")).map_err(|e| e.to_string())?;
    eprintln!(
        "# target healthy: {} sets over {} shards",
        doc.get("sets").and_then(Json::as_usize).unwrap_or(0),
        doc.get("shards").and_then(Json::as_usize).unwrap_or(0),
    );
    Ok(())
}

/// Background `/metrics` poller: one keep-alive connection scraping at
/// a fixed interval for as long as the load runs. Every page must parse
/// and pass the exposition lint against its predecessor — the same
/// monotonicity checks CI runs — so a malformed or backwards-moving
/// page under concurrent load fails the whole run.
fn scrape_metrics(
    addr: &str,
    interval: Duration,
    done: &AtomicBool,
) -> (Vec<Duration>, Vec<String>) {
    let mut latencies = Vec::new();
    let mut problems = Vec::new();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return (
            latencies,
            vec![format!("scraper: connecting to {addr} failed")],
        );
    };
    let _ = stream.set_nodelay(true);
    let Ok(clone) = stream.try_clone() else {
        return (
            latencies,
            vec!["scraper: cloning the connection failed".into()],
        );
    };
    let mut reader = BufReader::new(clone);
    let mut prev: Option<Vec<expo::ParsedFamily>> = None;
    while !done.load(Ordering::Relaxed) {
        let request = format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\n\r\n");
        let start = Instant::now();
        if let Err(e) = stream.write_all(request.as_bytes()) {
            problems.push(format!("scraper: sending request: {e}"));
            break;
        }
        match read_simple_response(&mut reader) {
            Ok((200, body)) => {
                latencies.push(start.elapsed());
                let text = match std::str::from_utf8(&body) {
                    Ok(t) => t,
                    Err(e) => {
                        problems.push(format!("scrape {}: not UTF-8: {e}", latencies.len()));
                        continue;
                    }
                };
                match expo::parse_text(text) {
                    Ok(cur) => {
                        problems.extend(expo::lint(prev.as_deref(), &cur));
                        prev = Some(cur);
                    }
                    Err(e) => problems.push(format!("scrape {}: {e}", latencies.len())),
                }
            }
            Ok((status, _)) => problems.push(format!("scraper: /metrics returned HTTP {status}")),
            Err(e) => {
                problems.push(format!("scraper: reading response: {e}"));
                break;
            }
        }
        std::thread::sleep(interval);
    }
    (latencies, problems)
}

/// One-shot `GET /debug/traces` probe: the page must be valid JSON with
/// a root `http`/`apply` span on every trace; returns the retained
/// count.
fn probe_traces(addr: &str) -> Result<usize, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    write!(
        stream,
        "GET /debug/traces HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let (status, body) = read_simple_response(&mut reader).map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/debug/traces returned {status}"));
    }
    let doc = Json::parse(std::str::from_utf8(&body).map_err(|e| e.to_string())?)
        .map_err(|e| format!("/debug/traces is not valid JSON: {e}"))?;
    if doc.get("version").and_then(Json::as_usize) != Some(1) {
        return Err("/debug/traces version is not 1".into());
    }
    let traces = doc
        .get("traces")
        .and_then(Json::as_array)
        .ok_or("/debug/traces has no traces array")?;
    for t in traces {
        let spans = t
            .get("spans")
            .and_then(Json::as_array)
            .ok_or("trace has no spans array")?;
        let root_ok = spans
            .first()
            .is_some_and(|sp| sp.get("parent") == Some(&Json::Null));
        if !root_ok {
            return Err(format!(
                "trace {} has no root span",
                t.get("id").and_then(Json::as_usize).unwrap_or(0)
            ));
        }
    }
    Ok(traces.len())
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Counts `results` rows in a `/search` body, or across every entry of
/// a `/search/batch` `outputs` array.
fn count_results(body: &[u8]) -> usize {
    let Some(doc) = std::str::from_utf8(body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
    else {
        return 0;
    };
    let one = |d: &Json| {
        d.get("results")
            .and_then(Json::as_array)
            .map_or(0, <[_]>::len)
    };
    match doc.get("outputs").and_then(Json::as_array) {
        Some(outputs) => outputs.iter().map(one).sum(),
        None => one(&doc),
    }
}

fn main() {
    let opts = parse_opts();
    // A deterministic pool of references: perturbed slices of the datagen
    // schema corpus, so some match and some don't.
    let corpus = silkmoth_datagen::webtable_schemas(&silkmoth_datagen::SchemaConfig {
        num_sets: opts.sets,
        ..Default::default()
    });
    if let Some(path) = &opts.dump_sets {
        let mut out = String::new();
        for set in &corpus {
            out.push_str(&set.join("|"));
            out.push('\n');
        }
        if let Err(e) = std::fs::write(path, out) {
            fail(&format!("writing {path}: {e}"));
        }
        eprintln!("# wrote {} sets to {path}", corpus.len());
        exit(0);
    }
    if let Err(e) = healthcheck(&opts.addr) {
        fail(&e);
    }
    let tenant_names = if opts.tenants > 0 {
        setup_tenants(&opts.addr, opts.tenants, &corpus).unwrap_or_else(|e| fail(&e))
    } else {
        Vec::new()
    };
    let specs: Vec<Json> = corpus
        .iter()
        .map(|set| {
            let elems: Vec<Json> = set
                .iter()
                .step_by(2)
                .map(|e| Json::Str(e.clone()))
                .collect();
            obj(vec![
                ("reference", Json::Arr(elems)),
                ("k", Json::Num(opts.k as f64)),
                ("floor", Json::Num(opts.floor)),
            ])
        })
        .collect();
    // Pre-render every request body this run can issue: /search takes
    // one spec, /search/batch a window of `--batch` consecutive specs.
    let (path, bodies): (&str, Vec<String>) = if opts.batch == 1 {
        ("/search", specs.iter().map(Json::to_string).collect())
    } else {
        let batched = specs
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let window: Vec<Json> = (0..opts.batch)
                    .map(|j| specs[(i + j) % specs.len()].clone())
                    .collect();
                obj(vec![("queries", Json::Arr(window))]).to_string()
            })
            .collect();
        ("/search/batch", batched)
    };

    eprintln!(
        "# {} threads x {} requests x {} queries/request against {}{}{} (k={}, floor={})",
        opts.threads,
        opts.requests,
        opts.batch,
        opts.addr,
        path,
        if opts.tenants > 0 {
            format!(" round-robin over {} tenants", opts.tenants)
        } else {
            String::new()
        },
        opts.k,
        opts.floor
    );
    let t0 = Instant::now();
    // Latencies keep the tenant index they were measured against
    // (always 0 in single-tenant mode) so the report can slice
    // per-tenant percentiles out of one pass.
    let mut tenant_latencies: Vec<Vec<Duration>> = vec![Vec::new(); opts.tenants.max(1)];
    let mut total_results = 0usize;
    let mut errors = 0usize;
    let done = AtomicBool::new(false);
    let mut scrape_outcome: Option<(Vec<Duration>, Vec<String>)> = None;
    std::thread::scope(|scope| {
        let scraper = opts.scrape_metrics_ms.map(|interval_ms| {
            let addr = &opts.addr;
            let done = &done;
            scope.spawn(move || scrape_metrics(addr, Duration::from_millis(interval_ms), done))
        });
        let handles: Vec<_> = (0..opts.threads)
            .map(|tid| {
                let bodies = &bodies;
                let opts = &opts;
                let tenant_names = &tenant_names;
                scope.spawn(move || {
                    let mut latencies: Vec<(usize, Duration)> = Vec::with_capacity(opts.requests);
                    let mut results = 0usize;
                    let mut errors = 0usize;
                    let Ok(mut stream) = TcpStream::connect(&opts.addr) else {
                        return (latencies, 0, opts.requests);
                    };
                    // Each request is one small write; don't let Nagle
                    // hold it for the previous response's ACK.
                    let _ = stream.set_nodelay(true);
                    let Ok(clone) = stream.try_clone() else {
                        return (latencies, 0, opts.requests);
                    };
                    let mut reader = BufReader::new(clone);
                    for i in 0..opts.requests {
                        let body = &bodies[(tid * opts.requests + i) % bodies.len()];
                        let (tenant, request_path) = if opts.tenants > 0 {
                            let t = (tid * opts.requests + i) % opts.tenants;
                            (t, format!("/collections/{}{path}", tenant_names[t]))
                        } else {
                            (0, path.to_owned())
                        };
                        let start = Instant::now();
                        match send(
                            &mut stream,
                            &mut reader,
                            &opts.addr,
                            "POST",
                            &request_path,
                            body,
                        ) {
                            Ok((200, resp)) => {
                                latencies.push((tenant, start.elapsed()));
                                results += count_results(&resp);
                            }
                            Ok((status, _)) => {
                                eprintln!("# thread {tid}: request {i} got HTTP {status}");
                                errors += 1;
                            }
                            Err(e) => {
                                eprintln!("# thread {tid}: request {i} failed: {e}");
                                // The failed request plus everything this
                                // connection never got to issue.
                                errors += opts.requests - i;
                                break;
                            }
                        }
                    }
                    (latencies, results, errors)
                })
            })
            .collect();
        for h in handles {
            let (latencies, results, errs) = h.join().expect("client thread panicked");
            for (tenant, latency) in latencies {
                tenant_latencies[tenant].push(latency);
            }
            total_results += results;
            errors += errs;
        }
        done.store(true, Ordering::Relaxed);
        if let Some(h) = scraper {
            scrape_outcome = Some(h.join().expect("scraper thread panicked"));
        }
    });
    let elapsed = t0.elapsed();

    let mut all_latencies: Vec<Duration> = tenant_latencies.iter().flatten().copied().collect();
    all_latencies.sort_unstable();
    let ok = all_latencies.len();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mean = if ok > 0 {
        all_latencies.iter().sum::<Duration>() / ok as u32
    } else {
        Duration::ZERO
    };
    println!(
        "requests {} ok {} errors {} in {:.3}s  ({:.1} req/s, {:.1} queries/s, {} result rows)",
        opts.threads * opts.requests,
        ok,
        errors,
        elapsed.as_secs_f64(),
        ok as f64 / elapsed.as_secs_f64(),
        (ok * opts.batch) as f64 / elapsed.as_secs_f64(),
        total_results,
    );
    println!(
        "per-request latency ms  mean {:.2}  p50 {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}",
        ms(mean),
        ms(percentile(&all_latencies, 0.50)),
        ms(percentile(&all_latencies, 0.90)),
        ms(percentile(&all_latencies, 0.99)),
        ms(percentile(&all_latencies, 1.0)),
    );
    if opts.tenants > 0 {
        for (t, name) in tenant_names.iter().enumerate() {
            let mut sorted = tenant_latencies[t].clone();
            sorted.sort_unstable();
            println!(
                "tenant {name}  ok {}  latency ms  p50 {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}",
                sorted.len(),
                ms(percentile(&sorted, 0.50)),
                ms(percentile(&sorted, 0.90)),
                ms(percentile(&sorted, 0.99)),
                ms(percentile(&sorted, 1.0)),
            );
        }
    }
    if let Some((scrapes, problems)) = &scrape_outcome {
        let scrape_mean = if scrapes.is_empty() {
            Duration::ZERO
        } else {
            scrapes.iter().sum::<Duration>() / scrapes.len() as u32
        };
        let scrape_max = scrapes.iter().max().copied().unwrap_or(Duration::ZERO);
        println!(
            "metrics scrapes {}  latency ms  mean {:.2}  max {:.2}  lint problems {}",
            scrapes.len(),
            ms(scrape_mean),
            ms(scrape_max),
            problems.len(),
        );
        for p in problems {
            eprintln!("# metrics lint: {p}");
        }
    }
    let traces_captured = opts.trace_sample.map(|n| match probe_traces(&opts.addr) {
        Ok(count) => {
            println!("traces captured {count}  (server --trace-sample {n})");
            count
        }
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    });
    if opts.batch > 1 {
        // The amortized cost of one query inside a batch — the number to
        // compare against the per-request line of a --batch 1 run.
        let per_query = |d: Duration| ms(d) / opts.batch as f64;
        println!(
            "per-query  latency ms  mean {:.2}  p50 {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}  (batch {})",
            per_query(mean),
            per_query(percentile(&all_latencies, 0.50)),
            per_query(percentile(&all_latencies, 0.90)),
            per_query(percentile(&all_latencies, 0.99)),
            per_query(percentile(&all_latencies, 1.0)),
            opts.batch,
        );
    }
    if let Some(out) = &opts.json_out {
        let latency = |scale: f64| {
            obj(vec![
                ("mean", Json::Num(ms(mean) / scale)),
                (
                    "p50",
                    Json::Num(ms(percentile(&all_latencies, 0.50)) / scale),
                ),
                (
                    "p90",
                    Json::Num(ms(percentile(&all_latencies, 0.90)) / scale),
                ),
                (
                    "p99",
                    Json::Num(ms(percentile(&all_latencies, 0.99)) / scale),
                ),
                (
                    "max",
                    Json::Num(ms(percentile(&all_latencies, 1.0)) / scale),
                ),
            ])
        };
        let mut fields = vec![
            ("version", Json::Num(REPORT_VERSION as f64)),
            (
                "label",
                match &opts.label {
                    Some(l) => Json::Str(l.clone()),
                    None => Json::Null,
                },
            ),
            ("addr", Json::Str(opts.addr.clone())),
            ("path", Json::Str(path.into())),
            ("threads", Json::Num(opts.threads as f64)),
            ("requests_per_thread", Json::Num(opts.requests as f64)),
            ("batch", Json::Num(opts.batch as f64)),
            ("k", Json::Num(opts.k as f64)),
            ("floor", Json::Num(opts.floor)),
            ("sets", Json::Num(opts.sets as f64)),
            ("ok", Json::Num(ok as f64)),
            ("errors", Json::Num(errors as f64)),
            ("elapsed_s", Json::Num(elapsed.as_secs_f64())),
            ("req_per_s", Json::Num(ok as f64 / elapsed.as_secs_f64())),
            (
                "queries_per_s",
                Json::Num((ok * opts.batch) as f64 / elapsed.as_secs_f64()),
            ),
            ("result_rows", Json::Num(total_results as f64)),
            (
                "trace_sample",
                match opts.trace_sample {
                    Some(n) => Json::Num(n as f64),
                    None => Json::Null,
                },
            ),
            (
                "traces_captured",
                match traces_captured {
                    Some(n) => Json::Num(n as f64),
                    None => Json::Null,
                },
            ),
            ("per_request_latency_ms", latency(1.0)),
        ];
        if opts.batch > 1 {
            fields.push(("per_query_latency_ms", latency(opts.batch as f64)));
        }
        if opts.tenants > 0 {
            let per_tenant: Vec<Json> = tenant_names
                .iter()
                .enumerate()
                .map(|(t, name)| {
                    let mut sorted = tenant_latencies[t].clone();
                    sorted.sort_unstable();
                    obj(vec![
                        ("name", Json::Str(name.clone())),
                        ("ok", Json::Num(sorted.len() as f64)),
                        ("p50", Json::Num(ms(percentile(&sorted, 0.50)))),
                        ("p90", Json::Num(ms(percentile(&sorted, 0.90)))),
                        ("p99", Json::Num(ms(percentile(&sorted, 0.99)))),
                        ("max", Json::Num(ms(percentile(&sorted, 1.0)))),
                    ])
                })
                .collect();
            fields.push(("tenants", Json::Arr(per_tenant)));
        }
        if let Some((scrapes, problems)) = &scrape_outcome {
            let scrape_mean = if scrapes.is_empty() {
                Duration::ZERO
            } else {
                scrapes.iter().sum::<Duration>() / scrapes.len() as u32
            };
            let scrape_max = scrapes.iter().max().copied().unwrap_or(Duration::ZERO);
            fields.push(("metrics_scrapes", Json::Num(scrapes.len() as f64)));
            fields.push((
                "scrape_latency_ms",
                obj(vec![
                    ("mean", Json::Num(ms(scrape_mean))),
                    ("max", Json::Num(ms(scrape_max))),
                ]),
            ));
            fields.push((
                "scrape_problems",
                Json::Arr(problems.iter().map(|p| Json::Str(p.clone())).collect()),
            ));
        }
        let report = obj(fields).to_string();
        if out == "-" {
            println!("{report}");
        } else if let Err(e) = std::fs::write(out, format!("{report}\n")) {
            eprintln!("error: writing {out}: {e}");
            exit(1);
        }
    }
    if errors > 0 || scrape_outcome.as_ref().is_some_and(|(_, p)| !p.is_empty()) {
        exit(1);
    }
}
