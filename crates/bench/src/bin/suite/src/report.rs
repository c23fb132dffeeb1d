//! The contract (`BENCHMARK.json`), the result line, result files and
//! `suite compare`.

use silkmoth_server::json::{obj, Json};
use std::collections::BTreeMap;

use crate::measure::{Group, Measured};
use crate::stats::{median, quartile_spread, undisturbed, Latencies};
use crate::trace::Traced;

/// The contract, read at compile time so the metric names, units and
/// bounds exist in one place only.
const CONTRACT: &str = include_str!("../../../../../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MetricDef {
    pub(crate) name: String,
    pub(crate) unit: String,
    pub(crate) higher_is_better: bool,
    /// `None` for per-layer metrics, which are not gated.
    pub(crate) bound: Option<f64>,
}

#[derive(Debug)]
pub(crate) struct Contract {
    pub(crate) run_seconds: f64,
    pub(crate) workloads: Vec<String>,
    pub(crate) end_to_end: Vec<MetricDef>,
    pub(crate) per_layer: Vec<MetricDef>,
}

pub(crate) fn contract() -> Contract {
    let doc = Json::parse(CONTRACT).expect("BENCHMARK.json is valid JSON");
    let list = |key: &str| -> Vec<Json> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' list"))
            .to_vec()
    };
    let text = |row: &Json, key: &str| {
        row.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: a row lacks '{key}'"))
            .to_owned()
    };
    let metrics = |key: &str| {
        list(key)
            .iter()
            .map(|row| MetricDef {
                name: text(row, "name"),
                unit: text(row, "unit"),
                higher_is_better: text(row, "better") == "higher",
                bound: row.get("bound").and_then(Json::as_f64),
            })
            .collect()
    };
    Contract {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("BENCHMARK.json has run_seconds"),
        workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

/// Every value the end-to-end run yields, gated or not; `BENCHMARK.json`
/// decides which list a name is reported under. Each timing is the
/// undisturbed quartile over the run's repeats of the same work.
pub(crate) fn measured_values(m: &Measured) -> BTreeMap<&'static str, f64> {
    let searched = m.search_groups();
    let elapsed = |groups: &[Group]| -> Vec<f64> { groups.iter().map(|g| g.elapsed_s).collect() };
    // Every group of a kind holds the same ops, so the first one's count
    // is each one's count.
    let per_second =
        |count: usize, groups: &[Group]| count as f64 / undisturbed(&elapsed(groups)).max(1e-9);
    let p50 = |groups: &[Group], pick: fn(&Group) -> &Latencies| -> f64 {
        undisturbed(
            &groups
                .iter()
                .map(|g| pick(g).percentile(0.5))
                .collect::<Vec<_>>(),
        )
    };
    // The tails also see the half chunks.
    let written = || m.chunks.iter().chain(&m.tails);
    let tail = |groups: &mut dyn Iterator<Item = &Group>, pick: fn(&Group) -> &Latencies| -> f64 {
        let mut all = Latencies::default();
        groups.for_each(|g| all.merge(pick(g).clone()));
        all.tail().1
    };
    let search_tail = if m.mixed {
        tail(&mut written(), |g| &g.search)
    } else {
        tail(&mut m.passes.iter(), |g| &g.search)
    };
    let search_p50 = p50(searched, |g| &g.search);
    BTreeMap::from([
        ("setup_s", undisturbed(&m.setup_s)),
        (
            "search_qps",
            per_second(searched.first().map_or(0, |g| g.search.count()), searched),
        ),
        ("search_p50_ms", search_p50),
        (
            "update_per_s",
            per_second(m.chunks.first().map_or(0, |g| g.update.count()), &m.chunks),
        ),
        ("bench.update_p50_ms", p50(&m.chunks, |g| &g.update)),
        ("recovery_s", undisturbed(&m.recovery_s)),
        ("rss_mb", m.search_rss_mb),
        ("bench.rss_serving_peak_mb", m.serving_rss_mb),
        ("bench.rss_recovered_mb", m.recovered_rss_mb),
        (
            "disk_bytes_per_user_byte",
            m.disk_bytes as f64 / m.user_bytes.max(1) as f64,
        ),
        ("bench.search_p99_ms", search_tail),
        ("bench.update_p99_ms", tail(&mut written(), |g| &g.update)),
        (
            "bench.failed_share",
            m.failed as f64 / m.attempted.max(1) as f64,
        ),
        ("server.service.rejected", m.rejected as f64),
        (
            // Search p50 beside the writes ÷ search p50 of the same
            // reads alone; 1 where the two never mix.
            "server.service.read_slowdown_ratio",
            if m.mixed {
                search_p50 / p50(&m.passes, |g| &g.search).max(1e-9)
            } else {
                1.0
            },
        ),
        ("storage.snapshot.count", m.auto_snapshots),
        ("storage.snapshot.max_stall_ms", m.max_stall_ms()),
        ("telemetry.scrape_ms", m.scrape_ms),
        ("telemetry.series", m.series as f64),
    ])
}

/// One finished run of one workload.
#[derive(Debug, Clone)]
pub(crate) struct RunResult {
    pub(crate) correct: bool,
    pub(crate) attempted: usize,
    pub(crate) failed: usize,
    pub(crate) answer_digest: u64,
    /// The metrics of the list this run reports (`--trace` picks which).
    pub(crate) metrics: Vec<(MetricDef, f64)>,
}

impl RunResult {
    /// Picks the contract's metrics for this mode out of what was
    /// measured. A listed name nothing produced, or a value that is not
    /// finite, is a bug in the suite: it fails the run.
    pub(crate) fn new(m: &Measured, traced: Option<&Traced>) -> Result<RunResult, String> {
        let contract = contract();
        let mut values = measured_values(m);
        let defs = match traced {
            Some(t) => {
                values.extend(t.metrics.iter().map(|(k, v)| (*k, *v)));
                contract.per_layer
            }
            None => contract.end_to_end,
        };
        let metrics = defs
            .into_iter()
            .map(|def| match values.get(def.name.as_str()) {
                Some(v) if v.is_finite() => Ok((def, *v)),
                Some(v) => Err(format!("metric {} is {v}", def.name)),
                None => Err(format!(
                    "BENCHMARK.json lists {}, which the suite does not measure",
                    def.name
                )),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mismatches = traced.map_or(0, |t| t.mismatches);
        Ok(RunResult {
            correct: m.failed == 0 && mismatches == 0,
            attempted: m.attempted,
            failed: m.failed + mismatches,
            answer_digest: m.answer_digest,
            metrics,
        })
    }

    /// The driver's result line.
    pub(crate) fn line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(def, v)| {
                let cell = obj(vec![
                    ("value", Json::Num(*v)),
                    ("unit", Json::Str(def.unit.clone())),
                ]);
                (def.name.clone(), cell)
            })
            .collect();
        obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }

    /// The same run as an entry of a result file.
    fn file_entry(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(d, v)| (d.name.clone(), Json::Num(*v)))
            .collect();
        obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "answer_digest",
                Json::Str(format!("{:016x}", self.answer_digest)),
            ),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Where the numbers came from; recorded with every result file.
pub(crate) fn environment() -> Json {
    let output = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_owned(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
            )
    };
    obj(vec![
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("rustc", Json::Str(output("rustc", &["-V"]))),
        ("commit", Json::Str(output("git", &["rev-parse", "HEAD"]))),
    ])
}

/// A result file: `runs` per workload, in run order.
pub(crate) fn result_file(
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: &[(String, Vec<RunResult>)],
) -> String {
    let workloads = runs
        .iter()
        .map(|(name, results)| {
            let entries = results.iter().map(RunResult::file_entry).collect();
            (name.clone(), obj(vec![("runs", Json::Arr(entries))]))
        })
        .collect();
    obj(vec![
        ("version", Json::Num(1.0)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("env", environment()),
        ("workloads", Json::Obj(workloads)),
    ])
    .to_string()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// `a`'s and `b`'s repeats of one metric on one workload against its
/// bound: the change of the median, as a share of `a`'s, in the
/// direction that is worse. When `a`'s own repeats spread wider than the
/// bound, no verdict can be had from them.
pub(crate) fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse = if def.higher_is_better {
        ma - mb
    } else {
        mb - ma
    } / ma.abs().max(f64::MIN_POSITIVE);
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let verdict = if quartile_spread(a).is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

fn runs_of<'a>(file: &'a Json, workload: &str) -> &'a [Json] {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Json::as_array)
        .unwrap_or(&[])
}

fn column(runs: &[Json], pick: impl Fn(&Json) -> Option<f64>) -> Vec<f64> {
    runs.iter().filter_map(pick).collect()
}

/// Prints the row-by-row diff of two result files; `Ok(true)` when no
/// row regressed.
pub(crate) fn compare(a_text: &str, b_text: &str) -> Result<bool, String> {
    let a = Json::parse(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = Json::parse(b_text).map_err(|e| format!("second file: {e}"))?;
    // Run length is part of the benchmark: numbers from runs of
    // different lengths, or from a traced and an untraced run, are not
    // the same metric.
    for key in ["version", "seconds", "trace"] {
        let (va, vb) = (a.get(key), b.get(key));
        if va.is_none() || va != vb {
            return Err(format!(
                "IncomparableFiles: '{key}' is {} in the first file and {} in the second",
                va.map_or("missing".to_owned(), Json::to_string),
                vb.map_or("missing".to_owned(), Json::to_string),
            ));
        }
    }
    let contract = contract();
    let mut clean = true;
    println!(
        "{:<16} {:<26} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound"
    );
    for workload in &contract.workloads {
        let (ra, rb) = (runs_of(&a, workload), runs_of(&b, workload));
        if ra.is_empty() || rb.is_empty() {
            println!("{workload:<16} (missing from one file)");
            clean = false;
            continue;
        }
        for def in &contract.end_to_end {
            let pick = |run: &Json| run.get("metrics")?.get(&def.name)?.as_f64();
            let (va, vb) = (column(ra, pick), column(rb, pick));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (verdict, worse) = judge(def, &va, &vb);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{workload:<16} {:<26} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}%  {}",
                def.name,
                median(&va),
                median(&vb),
                worse * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // Any rise in the share of failed ops is a regression.
        let share = |run: &Json| {
            Some(run.get("failed")?.as_f64()? / run.get("attempted")?.as_f64()?.max(1.0))
        };
        let (fa, fb) = (median(&column(ra, share)), median(&column(rb, share)));
        let failed_ok = fb <= fa;
        clean &= failed_ok;
        println!(
            "{workload:<16} {:<26} {fa:>12.6} {fb:>12.6} {:>8} {:>6}  {}",
            "failed_share",
            "",
            "0%",
            if failed_ok { "ok" } else { "regressed" }
        );
        // The checked answers are the pool's, in pool order, on any seed.
        let digests = |runs: &[Json]| -> Vec<String> {
            let mut d: Vec<String> = runs
                .iter()
                .filter_map(|r| r.get("answer_digest")?.as_str().map(str::to_owned))
                .collect();
            d.sort();
            d.dedup();
            d
        };
        let (da, db) = (digests(ra), digests(rb));
        let same = da.len() == 1 && da == db;
        clean &= same;
        println!(
            "{workload:<16} {:<26} {:>12} {:>12} {:>8} {:>6}  {}",
            "answer_digest",
            da.first().map_or("-", |d| &d[..8]),
            db.first().map_or("-", |d| &d[..8]),
            "",
            "",
            if same { "ok" } else { "regressed" }
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher_is_better: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn judge_follows_the_direction_and_the_bound() {
        let lower = def(false, 0.10);
        assert_eq!(judge(&lower, &[10.0, 10.1, 9.9], &[10.5]).0, Verdict::Ok);
        assert_eq!(
            judge(&lower, &[10.0, 10.1, 9.9], &[11.5]).0,
            Verdict::Regressed
        );
        assert_eq!(judge(&lower, &[10.0, 10.1, 9.9], &[5.0]).0, Verdict::Ok);
        let higher = def(true, 0.10);
        assert_eq!(
            judge(&higher, &[100.0, 101.0, 99.0], &[80.0]).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&higher, &[100.0, 101.0, 99.0], &[130.0]).0,
            Verdict::Ok
        );
        // A's own repeats spread wider than the bound: no verdict.
        assert_eq!(
            judge(&lower, &[10.0, 14.0, 7.0], &[20.0]).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn compare_refuses_files_of_different_run_lengths() {
        let file = |seconds: f64, trace: bool| result_file(1, seconds, trace, &[]);
        for (a, b) in [
            (file(20.0, false), file(10.0, false)),
            (file(20.0, false), file(20.0, true)),
        ] {
            let refused = compare(&a, &b).unwrap_err();
            assert!(refused.starts_with("IncomparableFiles"), "{refused}");
        }
    }

    #[test]
    fn contract_names_are_well_formed_and_unique() {
        let c = contract();
        assert_eq!(c.workloads.len(), crate::workload::WORKLOADS.len());
        for (name, w) in c.workloads.iter().zip(crate::workload::WORKLOADS) {
            assert_eq!(name, w.name);
        }
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|d| d.name.as_str())
            .collect();
        assert!(names.contains(&"setup_s"));
        for name in &names {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|ch| ch.is_ascii_alphanumeric() || "_.-".contains(ch)),
                "{name}"
            );
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
        assert!(c
            .end_to_end
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
    }
}
