//! `silkmoth` — command-line related-set discovery and search.
//!
//! Input format: one set per line; elements separated by a configurable
//! delimiter (default `|`); tokens within elements separated by
//! whitespace. Lines starting with `#` are ignored.
//!
//! ```text
//! # addresses.sets
//! 77 Mass Ave Boston MA|5th St 02115 Seattle WA|77 5th St Chicago IL
//! 77 Massachusetts Avenue Boston MA|Fifth Street Seattle MA 02115
//! ```
//!
//! Examples:
//!
//! ```text
//! silkmoth discover --input data.sets --metric similarity --delta 0.7
//! silkmoth search   --input lake.sets --reference q.sets --metric containment \
//!                   --delta 0.7 --alpha 0.5 --threads 8
//! silkmoth search   --input lake.sets --reference q.sets --top-k 10 --floor 0.3
//! silkmoth discover --input titles.sets --phi eds --alpha 0.8 --delta 0.8
//! silkmoth stats    --input data.sets
//! silkmoth serve    --input lake.sets --port 7700 --shards 4 --threads 8
//! silkmoth serve    --input lake.sets --data-dir ./lake-store --compact-ratio 0.3
//! silkmoth serve    --data-dir ./lake-store   # later: recover, no --input needed
//! silkmoth update   --input lake.sets --append new.sets --remove 3,17 --output lake.sets
//! ```

use silkmoth::{
    Collection, CompactionPolicy, Engine, EngineConfig, FilterKind, QuerySpec, RelatednessMetric,
    ShardSpec, ShardedEngine, SignatureScheme, SimilarityFunction, StorageError, Store,
    StoreConfig, Tokenization,
};
use silkmoth_server::{
    dir_needs_fresh_store, follower_store_config, http, serve_log, start_follower, CatalogConfig,
    CatalogService, FollowerConfig, LogFormat, SearchService, StreamerConfig,
};
use std::io::Read;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug)]
struct Cli {
    command: String,
    input: Option<String>,
    reference: Option<String>,
    append: Option<String>,
    remove: Vec<u32>,
    output: Option<String>,
    metric: RelatednessMetric,
    phi: String,
    delta: f64,
    alpha: f64,
    scheme: SignatureScheme,
    filter: FilterKind,
    no_reduction: bool,
    delimiter: char,
    threads: usize,
    top_k: Option<usize>,
    floor: Option<f64>,
    timeout_ms: Option<u64>,
    search_timeout_ms: Option<u64>,
    quiet: bool,
    addr: String,
    port: u16,
    shards: usize,
    data_dir: Option<String>,
    compact_ratio: Option<f64>,
    snapshot_every: Option<u64>,
    wal_segment_bytes: Option<u64>,
    max_inflight_updates: Option<usize>,
    max_collections: usize,
    no_fsync: bool,
    replicate_addr: Option<String>,
    replicate_from: Option<String>,
    log_format: Option<LogFormat>,
    slow_query_ms: Option<u64>,
    trace_sample: Option<u64>,
}

const USAGE: &str = "\
usage: silkmoth <discover|search|stats|serve|update> [options]

options:
  --input FILE        sets file (one set per line; elements separated by the
                      delimiter; '-' for stdin)
  --reference FILE    reference sets file (search mode)
  --append FILE       update: sets file to append to the collection
  --remove IDS        update: comma-separated set ids (input line numbers,
                      0-based) to remove
  --output FILE       update: where to write the updated collection
                      (default: stdout)
  --metric M          similarity | containment        (default: similarity)
  --phi F             jaccard | dice | cosine | eds | neds  (default: jaccard)
  --delta D           relatedness threshold in (0,1]  (default: 0.7)
  --alpha A           similarity threshold in [0,1)   (default: 0)
  --scheme S          unweighted | weighted | combined-unweighted |
                      skyline | dichotomy             (default: dichotomy)
  --filter F          none | check | nn               (default: nn)
  --no-reduction      disable reduction-based verification
  --delimiter C       element delimiter               (default: '|')
  --threads N         worker threads for discover/search, or HTTP workers
                      for serve; 0 = all (default: 0)
  --top-k K           search: keep only the K most related sets per
                      reference (score desc, then set id asc)
  --floor F           search: report sets with relatedness >= F in [0,1]
                      instead of the engine delta
  --timeout-ms N      search: wall-clock budget per reference; an expired
                      query reports the results proven so far (marked on
                      stderr) instead of scanning to the floor
  --quiet             print only result pairs
  --addr A            serve: bind address             (default: 127.0.0.1)
  --port P            serve: TCP port                 (default: 7700)
  --shards N          serve: engine shards, >= 1      (default: 4)
  --data-dir DIR      serve: run durable — recover the collection from
                      DIR (snapshot + WAL) or, when DIR is empty,
                      initialize it from --input; every update is
                      WAL-logged + fsync'd before it is acknowledged
  --compact-ratio R   auto-compact when dead/slots >= R in [0,1]
                      (works with and without --data-dir)
  --snapshot-every N  durable: auto-snapshot once the WAL holds N
                      records (default: 4096; requires --data-dir)
  --wal-segment-bytes N
                      durable: seal the active WAL segment once it
                      reaches N bytes (default: 64 MiB; 0 keeps one
                      unbounded segment per generation; requires
                      --data-dir)
  --max-inflight-updates N
                      serve: reject updates beyond N in flight with
                      503 + Retry-After instead of queuing unboundedly
  --search-timeout-ms N
                      serve: whole-request budget for POST /search and
                      POST /search/batch; an exhausted request gets 504
  --max-collections N serve: upper bound on catalog collections,
                      including 'default' (default: 64); also the
                      declared cardinality cap for the 'collection'
                      metric label
  --no-fsync          durable: skip the per-update fsync (faster bulk
                      loads; a crash may lose the unsynced tail)
  --log-format F      serve: structured request logging to stderr, one
                      line per request — text | json (off by default)
  --slow-query-ms N   serve: log the full spec of any search slower
                      than N ms (independent of --log-format); such
                      requests are also always captured as traces on
                      GET /debug/traces
  --trace-sample N    serve: additionally capture 1 in N requests as a
                      trace (0 = slow queries only, the default)
  --replicate-addr A:P
                      durable: also listen on A:P and ship the WAL to
                      followers (snapshot bootstrap + live tail)
  --replicate-from A:P
                      durable: run as a read-only follower of the
                      primary's replication listener at A:P; an empty
                      --data-dir bootstraps from the primary, updates
                      answer 409 until POST /promote (conflicts with
                      --input; both flags together chain replicas)

serve exposes POST /search, POST /search/batch, POST /discover,
POST /sets, DELETE /sets, POST /compact, POST /snapshot (durable),
POST /promote (follower failover), GET /stats, GET /healthz, and
GET /metrics (Prometheus text format; JSON everywhere else — see the
README for the schema and curl examples). Those routes serve the
'default' collection; the catalog adds PUT/GET/DELETE
/collections/<name>, GET /collections, and every route above scoped
as /collections/<name>/<route> for per-tenant collections (own
shards, quotas, metrics label, and durable subdirectory).

update applies --append and/or --remove to the collection through the
incremental-update layer, compacts it, and writes the surviving sets
(one per line) to --output.
";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    exit(2);
}

/// The value of option `flag`, or a failure naming the flag that was
/// short an argument.
fn opt_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| fail(&format!("missing value for {flag}")))
}

fn parse_cli() -> Cli {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| fail("missing command"));
    let mut cli = Cli {
        command,
        input: None,
        reference: None,
        append: None,
        remove: Vec::new(),
        output: None,
        metric: RelatednessMetric::Similarity,
        phi: "jaccard".into(),
        delta: 0.7,
        alpha: 0.0,
        scheme: SignatureScheme::Dichotomy,
        filter: FilterKind::CheckAndNearestNeighbor,
        no_reduction: false,
        delimiter: '|',
        threads: 0,
        top_k: None,
        floor: None,
        timeout_ms: None,
        search_timeout_ms: None,
        quiet: false,
        addr: "127.0.0.1".into(),
        port: 7700,
        shards: 4,
        data_dir: None,
        compact_ratio: None,
        snapshot_every: None,
        wal_segment_bytes: None,
        max_inflight_updates: None,
        max_collections: 64,
        no_fsync: false,
        replicate_addr: None,
        replicate_from: None,
        log_format: None,
        slow_query_ms: None,
        trace_sample: None,
    };
    while let Some(a) = args.next() {
        let mut val = || opt_value(&mut args, &a);
        match a.as_str() {
            "--input" => cli.input = Some(val()),
            "--reference" => cli.reference = Some(val()),
            "--append" => cli.append = Some(val()),
            "--remove" => {
                cli.remove = val()
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| fail(&format!("bad set id '{s}' in --remove")))
                    })
                    .collect()
            }
            "--output" => cli.output = Some(val()),
            "--metric" => {
                cli.metric = match val().as_str() {
                    "similarity" => RelatednessMetric::Similarity,
                    "containment" => RelatednessMetric::Containment,
                    m => fail(&format!("unknown metric {m}")),
                }
            }
            "--phi" => cli.phi = val(),
            "--delta" => cli.delta = val().parse().unwrap_or_else(|_| fail("bad --delta")),
            "--alpha" => cli.alpha = val().parse().unwrap_or_else(|_| fail("bad --alpha")),
            "--scheme" => {
                cli.scheme = match val().as_str() {
                    "unweighted" => SignatureScheme::Unweighted,
                    "weighted" => SignatureScheme::Weighted,
                    "combined-unweighted" => SignatureScheme::CombinedUnweighted,
                    "skyline" => SignatureScheme::Skyline,
                    "dichotomy" => SignatureScheme::Dichotomy,
                    s => fail(&format!("unknown scheme {s}")),
                }
            }
            "--filter" => {
                cli.filter = match val().as_str() {
                    "none" => FilterKind::None,
                    "check" => FilterKind::Check,
                    "nn" => FilterKind::CheckAndNearestNeighbor,
                    f => fail(&format!("unknown filter {f}")),
                }
            }
            "--no-reduction" => cli.no_reduction = true,
            "--delimiter" => {
                let v = val();
                cli.delimiter = v.chars().next().unwrap_or_else(|| fail("empty delimiter"));
            }
            "--threads" => cli.threads = val().parse().unwrap_or_else(|_| fail("bad --threads")),
            "--top-k" => cli.top_k = Some(val().parse().unwrap_or_else(|_| fail("bad --top-k"))),
            "--floor" => cli.floor = Some(val().parse().unwrap_or_else(|_| fail("bad --floor"))),
            "--timeout-ms" => {
                cli.timeout_ms = Some(val().parse().unwrap_or_else(|_| fail("bad --timeout-ms")))
            }
            "--search-timeout-ms" => {
                cli.search_timeout_ms = Some(
                    val()
                        .parse()
                        .unwrap_or_else(|_| fail("bad --search-timeout-ms")),
                )
            }
            "--quiet" => cli.quiet = true,
            "--addr" => cli.addr = val(),
            "--port" => cli.port = val().parse().unwrap_or_else(|_| fail("bad --port")),
            "--shards" => cli.shards = val().parse().unwrap_or_else(|_| fail("bad --shards")),
            "--data-dir" => cli.data_dir = Some(val()),
            "--compact-ratio" => {
                let r: f64 = val()
                    .parse()
                    .unwrap_or_else(|_| fail("bad --compact-ratio"));
                if !(0.0..=1.0).contains(&r) {
                    fail("--compact-ratio must be in [0, 1]");
                }
                cli.compact_ratio = Some(r);
            }
            "--snapshot-every" => {
                cli.snapshot_every = Some(
                    val()
                        .parse()
                        .unwrap_or_else(|_| fail("bad --snapshot-every")),
                )
            }
            "--wal-segment-bytes" => {
                cli.wal_segment_bytes = Some(
                    val()
                        .parse()
                        .unwrap_or_else(|_| fail("bad --wal-segment-bytes")),
                )
            }
            "--max-inflight-updates" => {
                cli.max_inflight_updates = Some(
                    val()
                        .parse()
                        .unwrap_or_else(|_| fail("bad --max-inflight-updates")),
                )
            }
            "--max-collections" => {
                cli.max_collections = val()
                    .parse()
                    .unwrap_or_else(|_| fail("bad --max-collections"));
                if cli.max_collections == 0 {
                    fail("--max-collections must be at least 1 (the default collection)");
                }
            }
            "--no-fsync" => cli.no_fsync = true,
            "--replicate-addr" => cli.replicate_addr = Some(val()),
            "--replicate-from" => cli.replicate_from = Some(val()),
            "--log-format" => {
                cli.log_format = Some(match val().as_str() {
                    "text" => LogFormat::Text,
                    "json" => LogFormat::Json,
                    f => fail(&format!("unknown log format {f} (text | json)")),
                })
            }
            "--slow-query-ms" => {
                cli.slow_query_ms = Some(
                    val()
                        .parse()
                        .unwrap_or_else(|_| fail("bad --slow-query-ms")),
                )
            }
            "--trace-sample" => {
                cli.trace_sample =
                    Some(val().parse().unwrap_or_else(|_| fail("bad --trace-sample")))
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => fail(&format!("unknown option {other}")),
        }
    }
    cli
}

/// The whole text of `path` (`-` reads stdin).
fn read_text(path: &str) -> String {
    if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .unwrap_or_else(|e| fail(&format!("reading stdin: {e}")));
        s
    } else {
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")))
    }
}

/// The sets of a sets file's text, one per line (blank lines and `#`
/// comments skipped), their elements slices of that text.
fn parse_sets(text: &str, delimiter: char) -> Vec<Vec<&str>> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .map(|l| l.split(delimiter).collect())
        .collect()
}

/// `silkmoth update`: applies `--append` / `--remove` through the
/// incremental-update layer, compacts, and writes the surviving sets.
/// Every failure path is a named CLI error (missing files, bad ids) —
/// never a panic.
fn run_update(cli: &Cli, raw: &[Vec<&str>], tokenization: Tokenization) {
    if cli.append.is_none() && cli.remove.is_empty() {
        fail("update needs --append and/or --remove");
    }
    let mut collection = Collection::build(raw, tokenization);
    let mut appended = 0;
    let removed = match collection.remove_sets(&cli.remove) {
        Ok(n) => n,
        Err(e) => fail(&format!("--remove: {e} (input has {} sets)", raw.len())),
    };
    if let Some(path) = &cli.append {
        let text = read_text(path);
        appended = collection
            .append_sets(&parse_sets(&text, cli.delimiter))
            .len();
    }
    collection.compact();

    let delim = cli.delimiter.to_string();
    let mut out = String::new();
    for set in collection.sets() {
        let line: Vec<&str> = set.elements.iter().map(|e| e.text.as_ref()).collect();
        out.push_str(&line.join(&delim));
        out.push('\n');
    }
    match &cli.output {
        Some(path) => {
            std::fs::write(path, &out).unwrap_or_else(|e| fail(&format!("writing {path}: {e}")))
        }
        None => print!("{out}"),
    }
    if !cli.quiet {
        eprintln!(
            "# update: {} sets in, {appended} appended, {removed} removed, {} sets out",
            raw.len(),
            collection.len(),
        );
    }
}

/// The text of the (required) `--input` sets file, failing with a named
/// error when it is not given.
fn read_input(cli: &Cli) -> String {
    let input = cli
        .input
        .as_deref()
        .unwrap_or_else(|| fail("--input is required"));
    read_text(input)
}

/// The sets of the `--input` text, failing with a named error when there
/// are none.
fn input_sets(text: &str, delimiter: char) -> Vec<Vec<&str>> {
    let raw = parse_sets(text, delimiter);
    if raw.is_empty() {
        fail("input contains no sets");
    }
    raw
}

/// The serving engine over the `--input` sets. The file's text and the
/// sets parsed from it are dropped on return: the engine holds its own
/// encoding of the texts, one per distinct text, and that is what a
/// durable store's first snapshot copies from.
fn build_engine_from_input(cli: &Cli, cfg: EngineConfig) -> ShardedEngine {
    let text = read_input(cli);
    let raw = input_sets(&text, cli.delimiter);
    ShardedEngine::build(&raw, cfg, cli.shards).unwrap_or_else(|e| fail(&e.to_string()))
}

/// `silkmoth serve`: in memory, or durable when `--data-dir` is given —
/// a populated data dir is recovered (snapshot + WAL replay; `--input`
/// is not needed), an empty one is initialized from `--input`.
fn run_serve(cli: &Cli, cfg: EngineConfig) {
    if cli.shards == 0 {
        fail("--shards must be at least 1");
    }
    let mut policy = CompactionPolicy::default();
    if let Some(r) = cli.compact_ratio {
        policy = policy.compact_at_dead_ratio(r);
    }
    if cli.snapshot_every.is_some() && cli.data_dir.is_none() {
        fail("--snapshot-every requires --data-dir");
    }
    if cli.wal_segment_bytes.is_some() && cli.data_dir.is_none() {
        fail("--wal-segment-bytes requires --data-dir");
    }
    if cli.no_fsync && cli.data_dir.is_none() {
        fail("--no-fsync requires --data-dir");
    }
    if cli.replicate_addr.is_some() && cli.data_dir.is_none() {
        fail("--replicate-addr requires --data-dir (followers resume from the WAL)");
    }
    if cli.replicate_from.is_some() && cli.data_dir.is_none() {
        fail("--replicate-from requires --data-dir");
    }
    if cli.replicate_from.is_some() && cli.input.is_some() {
        fail("--input conflicts with --replicate-from; the collection comes from the primary");
    }

    let spec = ShardSpec {
        cfg,
        shards: cli.shards,
    };
    if cli.data_dir.is_some() {
        // Snapshots are what bound WAL growth, so durable serving
        // defaults to a checkpoint every 4096 records; segments bound
        // the size of any single WAL file in between (0 keeps one
        // unbounded segment per generation).
        policy = policy.snapshot_at_wal_records(cli.snapshot_every.unwrap_or(4096));
        match cli.wal_segment_bytes.unwrap_or(64 * 1024 * 1024) {
            0 => {}
            bytes => policy = policy.segment_at_wal_bytes(bytes),
        }
    }
    // The one store configuration: the default collection's, the
    // follower's (with compaction off) and the catalog's.
    let store_cfg = StoreConfig {
        sync: !cli.no_fsync,
        policy,
    };
    let service = match &cli.data_dir {
        Some(dir) => {
            // Compactions reach a follower through the log, never as
            // its own decision — a local one would diverge it.
            let store_cfg = match cli.replicate_from {
                Some(_) => follower_store_config(store_cfg),
                None => store_cfg,
            };
            match Store::open(dir, &spec, store_cfg) {
                Ok((store, report)) => {
                    eprintln!(
                        "# recovered {dir}: snapshot {} + {} WAL records replayed{}",
                        report.snapshot_seq,
                        report.wal_replayed,
                        match &report.wal_discarded {
                            Some(d) => format!(" ({} torn bytes discarded: {})", d.bytes, d.reason),
                            None => String::new(),
                        }
                    );
                    if cli.input.is_some() {
                        eprintln!("# note: --input ignored, {dir} already holds the collection");
                    }
                    SearchService::durable(store)
                }
                Err(e) if cli.replicate_from.is_some() && dir_needs_fresh_store(&e) => {
                    // A follower needs no --input: create an empty
                    // store; the first handshake (cursor 0) bootstraps
                    // a full snapshot from the primary.
                    let engine = ShardedEngine::build(&Vec::<Vec<String>>::new(), cfg, cli.shards)
                        .unwrap_or_else(|e| fail(&e.to_string()));
                    let store = Store::create(dir, engine, store_cfg)
                        .unwrap_or_else(|e| fail(&e.to_string()));
                    eprintln!("# initialized empty follower store in {dir}");
                    SearchService::durable(store)
                }
                Err(StorageError::NotInitialized { .. }) => {
                    if cli.input.is_none() {
                        fail(&format!(
                            "{dir} holds no store yet; pass --input to initialize it"
                        ));
                    }
                    let engine = build_engine_from_input(cli, cfg);
                    let store = Store::create(dir, engine, store_cfg)
                        .unwrap_or_else(|e| fail(&e.to_string()));
                    eprintln!("# initialized durable store in {dir}");
                    SearchService::durable(store)
                }
                Err(e) => fail(&e.to_string()),
            }
        }
        None => SearchService::durable(Store::in_memory(
            build_engine_from_input(cli, cfg),
            store_cfg,
        )),
    };
    let service = match cli.max_inflight_updates {
        Some(n) => service.with_max_inflight_updates(n),
        None => service,
    };
    let service = match cli.search_timeout_ms {
        Some(ms) => service.with_search_timeout(Duration::from_millis(ms)),
        None => service,
    };
    let service = match cli.log_format {
        Some(format) => service.with_log_format(format),
        None => service,
    };
    let service = match cli.slow_query_ms {
        Some(ms) => service.with_slow_query_ms(ms),
        None => service,
    };
    let service = match cli.trace_sample {
        Some(n) => service.with_trace_sample(n),
        None => service,
    };
    let service = Arc::new(service);

    // Replication wiring: the follower tail loop and/or the primary's
    // log listener. Both at once chains replicas (A → B → C).
    let follower_runtime = cli.replicate_from.as_ref().map(|primary| {
        eprintln!(
            "# follower of {primary}: updates answer 409 until POST /promote; \
             an unreachable primary is retried (see GET /healthz)"
        );
        start_follower(
            Arc::clone(&service),
            primary.clone(),
            spec,
            follower_store_config(store_cfg),
            FollowerConfig::default(),
        )
    });
    let log_server = cli.replicate_addr.as_ref().map(|addr| {
        let log = serve_log(
            Arc::clone(&service),
            addr.as_str(),
            StreamerConfig::default(),
        )
        .unwrap_or_else(|e| fail(&format!("binding replication log {addr}: {e}")));
        eprintln!("# replication log listening on {}", log.local_addr());
        log
    });

    // The catalog front: the service built above becomes the `default`
    // collection (replication, when configured, covers it alone);
    // named collections get their own engines, stores, and quotas
    // under `<data-dir>/collections/`, recovered from the versioned
    // catalog manifest on restart.
    let catalog = CatalogService::open(
        Arc::clone(&service),
        CatalogConfig {
            data_dir: cli.data_dir.as_ref().map(PathBuf::from),
            engine_cfg: cfg,
            store_cfg,
            ephemeral_policy: policy,
            default_shards: cli.shards,
            max_collections: cli.max_collections,
            max_inflight_updates: cli.max_inflight_updates,
            search_timeout: cli.search_timeout_ms.map(Duration::from_millis),
        },
    )
    .unwrap_or_else(|e| fail(&e.to_string()));
    let collections = catalog.collection_names().len();

    let threads = match cli.threads {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    };
    let (sets, shards) = {
        let engine = service.engine();
        (engine.len(), engine.shard_count())
    };
    let durable = cli.data_dir.is_some();
    let bind = format!("{}:{}", cli.addr, cli.port);
    let server = http::serve(bind.as_str(), threads, move |req| catalog.handle(req))
        .unwrap_or_else(|e| fail(&format!("binding {bind}: {e}")));
    eprintln!(
        "# silkmoth-server listening on http://{} — {} sets, {} shards, {} workers, \
         {} collection{}{}",
        server.addr(),
        sets,
        shards,
        threads,
        collections,
        if collections == 1 { "" } else { "s" },
        if durable { ", durable" } else { "" },
    );
    eprintln!(
        "# endpoints: POST /search, POST /search/batch, POST /discover, POST /sets, \
         DELETE /sets, POST /compact, POST /snapshot, POST /promote, GET /stats, \
         GET /healthz, GET /metrics; catalog: GET /collections, PUT|GET|DELETE \
         /collections/<name>, scoped /collections/<name>/<route>"
    );
    server.wait();
    if let Some(mut log) = log_server {
        log.shutdown();
    }
    if let Some(rt) = follower_runtime {
        rt.shared.stop();
        let _ = rt.handle.join();
    }
}

/// The engine configuration the flags describe, for every command.
fn engine_config(cli: &Cli, similarity: SimilarityFunction) -> EngineConfig {
    EngineConfig {
        metric: cli.metric,
        similarity,
        delta: cli.delta,
        alpha: cli.alpha,
        scheme: cli.scheme,
        filter: cli.filter,
        reduction: !cli.no_reduction,
    }
}

fn main() {
    let cli = parse_cli();
    let similarity = match cli.phi.as_str() {
        "jaccard" => SimilarityFunction::Jaccard,
        "dice" => SimilarityFunction::Dice,
        "cosine" => SimilarityFunction::Cosine,
        "eds" | "neds" => {
            let q = SimilarityFunction::max_q_for_alpha(cli.alpha).unwrap_or(2);
            if cli.phi == "eds" {
                SimilarityFunction::Eds { q }
            } else {
                SimilarityFunction::NEds { q }
            }
        }
        p => fail(&format!("unknown phi {p}")),
    };
    let cfg = engine_config(&cli, similarity);
    let tokenization = cfg.tokenization();

    if cli.command == "serve" {
        run_serve(&cli, cfg);
        return;
    }

    let text = read_input(&cli);
    let raw = input_sets(&text, cli.delimiter);
    if cli.command == "update" {
        run_update(&cli, &raw, tokenization);
        return;
    }

    let collection = Collection::build(&raw, tokenization);

    if cli.command == "stats" {
        println!("{}", collection.stats());
        return;
    }

    let engine = Engine::new(collection, cfg).unwrap_or_else(|e| fail(&e.to_string()));

    let t0 = std::time::Instant::now();
    match cli.command.as_str() {
        "discover" => {
            let out = engine.discover_self_parallel(cli.threads);
            for p in &out.pairs {
                println!("{}\t{}\t{:.6}", p.r, p.s, p.score);
            }
            if !cli.quiet {
                eprintln!(
                    "# {} pairs in {:.3}s over {} sets; candidates {} → check {} → nn {} → verified {}",
                    out.pairs.len(),
                    t0.elapsed().as_secs_f64(),
                    engine.collection().len(),
                    out.stats.candidates,
                    out.stats.after_check,
                    out.stats.after_nn,
                    out.stats.verified,
                );
            }
        }
        "search" => {
            let ref_path = cli
                .reference
                .clone()
                .unwrap_or_else(|| fail("search needs --reference"));
            let refs_text = read_text(&ref_path);
            // Every reference search is one QuerySpec — the same owned
            // query description the engine, the sharded engine, and the
            // HTTP routes execute — batched across the worker threads.
            let specs: Vec<QuerySpec> = parse_sets(&refs_text, cli.delimiter)
                .into_iter()
                .map(|set| {
                    let mut spec = QuerySpec::new(set.into_iter().map(str::to_owned).collect());
                    if let Some(k) = cli.top_k {
                        spec = spec.with_top_k(k);
                    }
                    if let Some(f) = cli.floor {
                        spec = spec.with_floor(f).unwrap_or_else(|e| fail(&e.to_string()));
                    }
                    if let Some(ms) = cli.timeout_ms {
                        spec = spec.with_deadline(Duration::from_millis(ms));
                    }
                    spec
                })
                .collect();
            let outputs = engine.execute_batch(&specs, cli.threads);
            let mut total = 0usize;
            let mut expired = 0usize;
            for (rid, out) in outputs.iter().enumerate() {
                for &(sid, score) in &out.hits {
                    println!("{rid}\t{sid}\t{score:.6}");
                    total += 1;
                }
                if out.timed_out {
                    expired += 1;
                    if !cli.quiet {
                        eprintln!("# reference {rid}: deadline exceeded, results truncated");
                    }
                }
            }
            if !cli.quiet {
                eprintln!(
                    "# {} results for {} references in {:.3}s{}",
                    total,
                    specs.len(),
                    t0.elapsed().as_secs_f64(),
                    if expired > 0 {
                        format!(" ({expired} hit the --timeout-ms budget)")
                    } else {
                        String::new()
                    }
                );
            }
        }
        c => fail(&format!("unknown command {c}")),
    }
}
