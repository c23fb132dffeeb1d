//! The end-to-end run: one durable `silkmoth serve` child driven over
//! loopback HTTP by a closed loop of one connection, which sends its next
//! request only after the previous reply arrived, with tracing off and
//! every answer checked.
//!
//! A run is the same life several times over, on every workload: set
//! up, warm up, time the read passes, walk the chunk that writes,
//! `SIGKILL`, recover; then check what survived the last one. Everything
//! timed is thus a repeat of the same work, so a run yields a
//! distribution per figure and reports its undisturbed quartile
//! (`stats::undisturbed`).

use silkmoth_core::{brute, rank, QuerySpec};
use silkmoth_server::json::Json;
use silkmoth_server::ShardedEngine;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::server::{dir_bytes, parse_json, search_hits, Client, Pinned, Server};
use crate::stats::Latencies;
use crate::workload::{answer_digest, search_body, Fnv, Inputs, Op};

/// Server processes set up, driven, killed and recovered per run (see
/// `measure`).
const LIVES: usize = 6;
/// Acked appends looked up again after recovery.
const RECOVERY_SAMPLE: usize = 200;

/// One timed pass or chunk.
#[derive(Debug, Default)]
pub(crate) struct Group {
    /// Which of the server's lives served it.
    pub(crate) life: usize,
    pub(crate) elapsed_s: f64,
    pub(crate) search: Latencies,
    pub(crate) update: Latencies,
}

/// Everything the end-to-end run measured.
#[derive(Debug)]
pub(crate) struct Measured {
    pub(crate) setup_s: Vec<f64>,
    pub(crate) recovery_s: Vec<f64>,
    /// Per life: the timed read passes, the chunk, and the half chunk
    /// after it (counted in the tails only).
    pub(crate) passes: Vec<Group>,
    pub(crate) chunks: Vec<Group>,
    pub(crate) tails: Vec<Group>,
    /// Whether the chunks carry the workload's searches (`mixed-rw`).
    pub(crate) mixed: bool,
    /// Peak resident set (`VmHWM`) of the server that served the run,
    /// before its first write and at its end, and of the server
    /// recovered from what it left.
    pub(crate) search_rss_mb: f64,
    pub(crate) serving_rss_mb: f64,
    pub(crate) recovered_rss_mb: f64,
    pub(crate) disk_bytes: u64,
    pub(crate) user_bytes: u64,
    pub(crate) auto_snapshots: f64,
    pub(crate) scrape_ms: f64,
    pub(crate) series: usize,
    /// 503 / 504 answers (also counted as failed).
    pub(crate) rejected: usize,
    /// Digest over the checked answers, in pool order.
    pub(crate) answer_digest: u64,
    /// Ops attempted and failed, timed or not, plus checks.
    pub(crate) attempted: usize,
    pub(crate) failed: usize,
    /// Why `failed` is not 0, for the log.
    pub(crate) problems: Vec<String>,
    /// The data dir as the last `SIGKILL` left it.
    pub(crate) data_dir: PathBuf,
}

impl Measured {
    /// The groups whose searches are the workload's search metrics.
    pub(crate) fn search_groups(&self) -> &[Group] {
        if self.mixed {
            &self.chunks
        } else {
            &self.passes
        }
    }

    /// The slowest client op of the run: a snapshot or an apply holds
    /// the engine lock, and this is where that shows.
    pub(crate) fn max_stall_ms(&self) -> f64 {
        self.passes
            .iter()
            .chain(&self.chunks)
            .chain(&self.tails)
            .map(|g| g.search.max().max(g.update.max()))
            .fold(0.0, f64::max)
    }
}

/// The reference a search was for (its index in the pool) and the hits
/// it got.
type Answer = (usize, Vec<(u32, f64)>);

fn text_bytes(set: &[String]) -> u64 {
    set.iter().map(|e| e.len() as u64).sum()
}

/// The closed loop: one keep-alive connection and what it was told.
struct Loop<'a> {
    inputs: &'a Inputs,
    addr: String,
    client: Result<Client, String>,
    /// `(gid, index into Inputs::incoming)` per acked append.
    appended: Vec<(u32, usize)>,
    /// Corpus ids whose removal was acked.
    removed: Vec<u32>,
    rejected: usize,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl<'a> Loop<'a> {
    fn new(inputs: &'a Inputs) -> Loop<'a> {
        Loop {
            inputs,
            addr: String::new(),
            client: Err("not connected".into()),
            appended: Vec::new(),
            removed: Vec::new(),
            rejected: 0,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Opens a connection to a server set up afresh at `addr`, and
    /// forgets what the one before acked: its data dir is gone.
    fn connect(&mut self, addr: &str) {
        self.addr = addr.to_owned();
        self.client = Client::connect(addr);
        self.appended.clear();
        self.removed.clear();
    }

    /// Sends `ops` one after another. With `answers`, keeps every
    /// search's `(reference, hits)`.
    fn run(&mut self, ops: &[Op], mut answers: Option<&mut Vec<Answer>>) -> Group {
        let mut group = Group::default();
        let started = Instant::now();
        for op in ops {
            let (method, path, body) = self.inputs.request(op);
            let sent = Instant::now();
            let reply = match &mut self.client {
                Ok(c) => c.send(method, path, &body),
                Err(e) => Err(e.clone()),
            };
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            let doc = match reply {
                Ok((200, bytes)) => parse_json(&bytes),
                Ok((status, _)) => {
                    self.rejected += usize::from(status == 503 || status == 504);
                    self.problems
                        .push(format!("{method} {path} answered {status}"));
                    None
                }
                Err(e) => {
                    self.problems.push(e);
                    // The connection is in an unknown state: start a new one.
                    self.client = Client::connect(&self.addr);
                    None
                }
            };
            let ok = match (op, &doc) {
                (Op::Search(s), Some(doc)) => search_hits(doc).map(|hits| {
                    if let Some(answers) = answers.as_deref_mut() {
                        answers.push((*s, hits));
                    }
                }),
                (Op::Append(a), Some(doc)) => doc
                    .get("appended")
                    .and_then(Json::as_array)
                    .and_then(|ids| u32::try_from(ids.first()?.as_usize()?).ok())
                    .map(|gid| self.appended.push((gid, *a))),
                (Op::Remove(id), Some(doc)) => (doc.get("removed").and_then(Json::as_usize)
                    == Some(1))
                .then(|| self.removed.push(*id)),
                (_, None) => None,
            };
            let lat = match op {
                Op::Search(_) => &mut group.search,
                _ => &mut group.update,
            };
            self.attempted += 1;
            match ok {
                Some(()) => lat.ok_ms.push(ms),
                None => {
                    lat.failed += 1;
                    self.failed += 1;
                }
            }
        }
        group.elapsed_s = started.elapsed().as_secs_f64();
        group
    }
}

pub(crate) fn measure(
    inputs: &Inputs,
    seconds: f64,
    bin: &Path,
    work: &Path,
) -> Result<Measured, String> {
    let w = &inputs.workload;
    std::fs::create_dir_all(work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let corpus_path = work.join("corpus.sets");
    std::fs::write(&corpus_path, inputs.corpus_file())
        .map_err(|e| format!("writing {}: {e}", corpus_path.display()))?;
    let data_dir = work.join("data");
    let log = work.join("server.log");
    let _ = std::fs::remove_file(&log);

    // From here to the last recovery everything shares one CPU.
    let pinned = Pinned::to_one_cpu();

    // The server's **lives**. Which physical pages a process is given
    // decides how its cache and TLB misses go, and a neighbour on the
    // host slows everything for seconds at a time: one process, or one
    // stretch of the run, is one draw. So a run is the same script
    // `LIVES` times over, each on a server set up afresh on an empty data
    // dir, and every figure has one sample (the passes: a few) per life,
    // spread over the whole run. State that outlasts the loop (acks,
    // sizes, the recovered server) is the last life's.
    let mut client = Loop::new(inputs);
    let pool: Vec<Op> = (0..w.pool).map(Op::Search).collect();
    let budget = Duration::from_secs_f64(seconds * w.read_share / LIVES as f64);
    let mut answers = Vec::with_capacity(w.pool);
    let (mut setup_s, mut recovery_s) = (Vec::with_capacity(LIVES), Vec::with_capacity(LIVES));
    let (mut passes, mut chunks, mut tails) = (Vec::new(), Vec::new(), Vec::new());
    let (mut search_rss_mb, mut serving_rss_mb) = (0.0, 0.0);
    let (mut auto_snapshots, mut scrape_ms, mut series, mut disk_bytes) = (0.0, 0.0, 0, 0);
    let mut last = None;
    for life in 0..LIVES {
        drop(last.take());
        if data_dir.exists() {
            std::fs::remove_dir_all(&data_dir)
                .map_err(|e| format!("clearing {}: {e}", data_dir.display()))?;
        }
        let server = Server::start(bin, w, Some(&corpus_path), &data_dir, &log)?;
        setup_s.push(server.ready_s);
        client.connect(&server.addr);
        // Warm-up, untimed. The first one is the whole pool in pool
        // order, and its answers are the ones checked.
        if life == 0 {
            client.run(&pool, Some(&mut answers));
        } else {
            client.run(&inputs.pass[..w.pool / 4], None);
        }
        // Read passes for this life's part of the workload's share of
        // `--seconds`; after the first, a pass is only started when,
        // going by the one before, it ends in time.
        let (began, mut pass_s) = (Instant::now(), 0.0);
        while pass_s == 0.0 || began.elapsed() + Duration::from_secs_f64(pass_s) <= budget {
            let pass = client.run(&inputs.pass, None);
            pass_s = pass.elapsed_s;
            passes.push(Group { life, ..pass });
        }
        // `rss_mb` is the serving process's peak when the first write is
        // about to be sent: what it takes to build the collection and
        // answer searches. A snapshot's buffer lands on top of that peak
        // or beneath it, so the peak with the writes is reported apart,
        // ungated.
        search_rss_mb = server.peak_rss_mb()?;
        // The writes are never cut by the clock: every life leaves the
        // same snapshot, the same WAL to replay and the same live bytes.
        let chunk = client.run(&inputs.chunk, None);
        chunks.push(Group { life, ..chunk });
        tails.push(client.run(&inputs.tail, None));

        let mut probe = Client::connect(&server.addr)?;
        auto_snapshots = probe
            .json("GET", "/stats", "")?
            .get("storage")
            .and_then(|s| s.get("auto_snapshots"))
            .and_then(Json::as_f64)
            .ok_or("/stats has no storage.auto_snapshots")?;
        let scrape = Instant::now();
        let (status, page) = probe.send("GET", "/metrics", "")?;
        scrape_ms = scrape.elapsed().as_secs_f64() * 1e3;
        if status != 200 {
            return Err(format!("GET /metrics answered {status}"));
        }
        series = String::from_utf8_lossy(&page)
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .count();
        serving_rss_mb = server.peak_rss_mb()?;

        // Crash and recover. SIGKILL keeps the OS page cache, so this
        // checks that every acked update is in what the server wrote
        // before acking, not that the bytes reached the medium.
        server.kill();
        disk_bytes = dir_bytes(&data_dir)?;
        let recovered = Server::start(bin, w, None, &data_dir, &log)?;
        recovery_s.push(recovered.ready_s);
        last = Some(recovered);
    }
    let recovered = last.expect("LIVES is at least 1");
    drop(pinned);
    let Loop {
        appended,
        removed,
        rejected,
        mut attempted,
        mut failed,
        mut problems,
        ..
    } = client;
    problems.truncate(20);

    let user_bytes = inputs.corpus.iter().map(|s| text_bytes(s)).sum::<u64>()
        + appended
            .iter()
            .map(|&(_, a)| text_bytes(&inputs.incoming[a]))
            .sum::<u64>()
        - removed
            .iter()
            .map(|&id| text_bytes(&inputs.corpus[id as usize]))
            .sum::<u64>();

    let mut client = Client::connect(&recovered.addr)?;
    let want_sets = inputs.corpus.len() + appended.len() - removed.len();
    let have_sets = client
        .json("GET", "/stats", "")?
        .get("sets")
        .and_then(Json::as_usize);
    attempted += 1;
    if have_sets != Some(want_sets) {
        failed += 1;
        problems.push(format!(
            "after recovery /stats reports {have_sets:?} sets; acked updates make it {want_sets}"
        ));
    }
    // Every sampled acked append must still find itself as a perfect
    // match. (No `k`: a duplicate with a lower id would win `k = 1`.)
    let step = (appended.len() / RECOVERY_SAMPLE).max(1);
    for &(gid, a) in appended.iter().step_by(step).take(RECOVERY_SAMPLE) {
        attempted += 1;
        let body = search_body(&inputs.incoming[a], None, 1.0);
        let found = client
            .json("POST", "/search", &body)
            .ok()
            .and_then(|doc| search_hits(&doc))
            .is_some_and(|hits| hits.iter().any(|&(id, _)| id == gid));
        if !found {
            failed += 1;
            problems.push(format!("acked append {gid} is not found after recovery"));
        }
    }
    drop(client);
    let recovered_rss_mb = recovered.peak_rss_mb()?;
    recovered.kill();

    // The warm-up answers against the in-process engine and brute force.
    answers.sort_by_key(|&(i, _)| i);
    let mut digest = Fnv::default();
    for (_, hits) in &answers {
        digest.write(&answer_digest(hits).to_le_bytes());
    }
    // A wrong answer fails an op the warm-up already counted as attempted.
    let wrong = check_answers(inputs, &answers)?;
    failed += wrong.len();
    problems.extend(wrong);

    Ok(Measured {
        setup_s,
        recovery_s,
        passes,
        chunks,
        tails,
        mixed: w.chunk_searches,
        search_rss_mb,
        serving_rss_mb,
        recovered_rss_mb,
        disk_bytes,
        user_bytes,
        auto_snapshots,
        scrape_ms,
        series,
        rejected,
        answer_digest: digest.0,
        attempted,
        failed,
        problems,
        data_dir,
    })
}

/// Compares the warm-up answers with `ShardedEngine::execute` in
/// process and, for the first `brute_refs`, with `brute::search` over the
/// same corpus: ids, tie order and score bits. Returns one line per wrong
/// answer.
fn check_answers(inputs: &Inputs, answers: &[Answer]) -> Result<Vec<String>, String> {
    let w = &inputs.workload;
    let engine = ShardedEngine::build(&inputs.corpus, w.cfg, 1).map_err(|e| e.to_string())?;
    let same = |a: &[(u32, f64)], b: &[(u32, f64)]| {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
    };
    let check = |&(i, ref got): &Answer| -> Option<String> {
        let mut spec = QuerySpec::new(inputs.references[i].clone())
            .with_floor(w.floor)
            .expect("workload floors are in [0, 1]");
        if let Some(k) = w.k {
            spec = spec.with_top_k(k);
        }
        if !same(&engine.execute(&spec).hits, got) {
            return Some(format!(
                "search {i}: HTTP answer differs from ShardedEngine::execute"
            ));
        }
        if i < w.brute_refs {
            let collection = engine.shards()[0].collection();
            let mut cfg = w.cfg;
            cfg.delta = w.floor.max(f64::MIN_POSITIVE);
            let reference = collection.encode_set(&inputs.references[i]);
            let mut want = brute::search(&reference, collection, &cfg);
            if let Some(k) = w.k {
                rank::rank_top_k(&mut want, k);
            }
            if !same(&want, got) {
                return Some(format!(
                    "search {i}: HTTP answer differs from brute::search"
                ));
            }
        }
        None
    };
    // Two halves on two threads: the brute-force references sit at the
    // front, so interleave rather than split.
    const CHECKERS: usize = 2;
    let mut wrong = Vec::new();
    std::thread::scope(|scope| {
        let halves: Vec<_> = (0..CHECKERS)
            .map(|t| {
                let check = &check;
                scope.spawn(move || {
                    answers
                        .iter()
                        .skip(t)
                        .step_by(CHECKERS)
                        .filter_map(check)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for half in halves {
            wrong.extend(half.join().expect("check thread panicked"));
        }
    });
    Ok(wrong)
}
