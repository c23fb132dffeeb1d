//! `suite` — the repo's one benchmark. Contract: `BENCHMARK.json` at the
//! repository root; glossary and first baseline: `README.md` beside
//! this package.
//!
//! ```text
//! suite --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! suite run   [--seed N] [--smoke]     every workload, REPEATS runs each
//! suite trace [--seed N] [--smoke]     every workload, per-layer metrics
//! suite compare A.json B.json
//! ```
//!
//! Run it from the repository root: it builds `silkmoth` from the
//! sources there and drives the real binary.

mod measure;
mod report;
mod server;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::process::ExitCode;

use report::RunResult;
use workload::{Inputs, Workload, WORKLOADS};

const USAGE: &str = "\
usage: suite --workload W --seed N --seconds S --trace 0|1
       suite run   [--seed N] [--smoke]
       suite trace [--seed N] [--smoke]
       suite compare A.json B.json
workloads: topk-verify topk-candidates floor-small mixed-rw";

/// Runs of each workload in one `suite run`; `compare` takes the spread
/// of a file's own repeats from them.
const REPEATS: usize = 3;
/// Length of a `--smoke` run. Every other `run` / `trace` lasts the
/// contract's `run_seconds`, so that any two result files compare.
const SMOKE_SECONDS: f64 = 1.0;

/// `--name value` flags, plus bare `--smoke`.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut args = args.iter();
        while let Some(name) = args.next() {
            if !known.contains(&name.as_str()) {
                return Err(format!("unexpected argument {name}\n{USAGE}"));
            }
            if name == "--smoke" {
                flags.push((name.clone(), String::new()));
            } else {
                let value = args
                    .next()
                    .ok_or_else(|| format!("missing value for {name}"))?;
                flags.push((name.clone(), value.clone()));
            }
        }
        Ok(Flags(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| format!("bad value for {name}: {v}")))
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.parsed(name)?
            .ok_or_else(|| format!("{name} is required\n{USAGE}"))
    }
}

/// One run of one workload: inputs from the seed, the end-to-end run
/// and, with `trace`, the traced run after it.
fn run_one(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin: &Path,
) -> Result<RunResult, String> {
    let work = server::target_dir().join("suite").join(workload.name);
    let inputs = Inputs::build(workload, seed);
    let measured = measure::measure(&inputs, seconds, bin, &work)?;
    for problem in measured.problems.iter().take(20) {
        eprintln!("# {}: {problem}", workload.name);
    }
    let traced = if trace {
        let traced = trace::trace(&inputs, &measured.data_dir, &work)?;
        let path = server::target_dir()
            .join("suite")
            .join(format!("trace-{}.json", workload.name));
        std::fs::write(&path, trace::spans_json(&traced.spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Some(traced)
    } else {
        None
    };
    let result = RunResult::new(&measured, traced.as_ref())?;

    println!(
        "{} seed {seed}: op list {:016x}, answer digest {:016x}, {} ops attempted, {} failed",
        workload.name,
        inputs.op_list_hash(),
        measured.answer_digest,
        result.attempted,
        result.failed
    );
    let count = |groups: &[measure::Group], pick: fn(&measure::Group) -> usize| {
        groups.iter().map(pick).sum::<usize>()
    };
    let searched = measured.search_groups();
    println!(
        "  samples: {} searches in {} {}, {} updates in {} chunks, {} set-ups, {} recoveries",
        count(searched, |g| g.search.count()),
        searched.len(),
        if measured.mixed { "chunks" } else { "passes" },
        count(&measured.chunks, |g| g.update.count()),
        measured.chunks.len(),
        measured.setup_s.len(),
        measured.recovery_s.len(),
    );
    // In run order, so that a stretch of disturbed ones shows as such;
    // a bar where the next of the server's lives begins.
    let seconds = |times: &mut dyn Iterator<Item = f64>| {
        times
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "  passes, s: {}\n  chunks, s: {}\n  set-ups, s: {}\n  recoveries, s: {}",
        measured
            .passes
            .chunk_by(|a, b| a.life == b.life)
            .map(|life| seconds(&mut life.iter().map(|g| g.elapsed_s)))
            .collect::<Vec<_>>()
            .join(" | "),
        seconds(&mut measured.chunks.iter().map(|g| g.elapsed_s)),
        seconds(&mut measured.setup_s.iter().copied()),
        seconds(&mut measured.recovery_s.iter().copied()),
    );
    for (def, value) in &result.metrics {
        println!("  {:<36} {value:>16.4} {}", def.name, def.unit);
    }
    if let Some(traced) = &traced {
        print!(
            "  where the time goes, per request:\n{}",
            trace::layer_table(&traced.spans)
        );
    }
    Ok(result)
}

/// Only a `--smoke` run may come from a debug build (the tests do).
fn require_release(smoke: bool) -> Result<(), String> {
    if cfg!(debug_assertions) && !smoke {
        return Err(
            "DebugBuild: the suite measures optimized builds only; run it with --release".into(),
        );
    }
    Ok(())
}

/// `suite run` / `suite trace`: every workload, one result file.
fn run_all(args: &[String], trace: bool) -> Result<bool, String> {
    let flags = Flags::parse(args, &["--seed", "--smoke"])?;
    let smoke = flags.get("--smoke").is_some();
    let seed = flags.parsed("--seed")?.unwrap_or(1u64);
    let seconds = if smoke {
        SMOKE_SECONDS
    } else {
        report::contract().run_seconds
    };
    let repeats = if trace { 1 } else { REPEATS };
    require_release(smoke)?;
    let bin = server::build_server()?;
    let mut all = Vec::new();
    let mut correct = true;
    for workload in WORKLOADS {
        let workload = if smoke { workload.smoke() } else { workload };
        let mut runs = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            let result = run_one(workload, seed, seconds, trace, &bin)?;
            correct &= result.correct;
            runs.push(result);
        }
        all.push((workload.name.to_owned(), runs));
    }
    let out = server::target_dir().join("suite").join(format!(
        "{}-seed{seed}.json",
        if trace { "trace" } else { "run" }
    ));
    std::fs::write(&out, report::result_file(seed, seconds, trace, &all))
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(correct)
}

/// The driver's entry: one workload, the result line last on stdout.
fn run_for_driver(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name: String = flags.required("--workload")?;
    let workload = Workload::by_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = flags.required("--seed")?;
    let seconds = flags.required("--seconds")?;
    let trace = match flags.required::<u8>("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    require_release(false)?;
    let bin = server::build_server()?;
    let result = run_one(workload, seed, seconds, trace, &bin)?;
    println!("{}", result.line());
    Ok(result.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..], false),
        Some("trace") => run_all(&args[1..], true),
        Some("compare") if args.len() == 3 => {
            let read =
                |p: &String| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
            read(&args[1]).and_then(|a| report::compare(&a, &read(&args[2])?))
        }
        Some(first) if first.starts_with("--") => run_for_driver(&args),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A failed answer check or a regressed row.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric `BENCHMARK.json` lists is produced, finite, by a
    /// smoke run of every workload in both modes, with every answer
    /// check passing. Needs the repository around it: the run builds
    /// and drives the real `silkmoth` binary.
    #[test]
    fn smoke_run_emits_every_contract_metric() {
        // Tests run in the package directory; the suite runs from the
        // repository root.
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../..")).unwrap();
        let bin = server::build_server().unwrap();
        let contract = report::contract();
        for workload in WORKLOADS {
            for (trace, want) in [(false, &contract.end_to_end), (true, &contract.per_layer)] {
                let result = run_one(workload.smoke(), 1, SMOKE_SECONDS, trace, &bin).unwrap();
                assert!(result.correct, "{} failed its answer checks", workload.name);
                assert_eq!(result.metrics.len(), want.len());
                for (def, value) in &result.metrics {
                    assert!(value.is_finite(), "{} on {}", def.name, workload.name);
                }
                assert!(silkmoth_server::json::Json::parse(&result.line()).is_ok());
            }
        }
    }
}
