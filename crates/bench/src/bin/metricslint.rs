//! `metricslint` — validates saved Prometheus text-format pages with
//! the exposition linter in `silkmoth_server::telemetry::expo`.
//!
//! ```text
//! curl -s localhost:7700/metrics > a.prom
//! # ... traffic ...
//! curl -s localhost:7700/metrics > b.prom
//! metricslint a.prom b.prom
//! ```
//!
//! Each file must parse as valid exposition text; with two or more
//! files every page is additionally linted *against its predecessor*
//! (same scrape target, in scrape order), which catches drift a single
//! page can't show: counters or histogram rows moving backwards,
//! families or labelled series disappearing, a family changing kind.
//! Any problem prints one line to stderr and the exit code is 1 —
//! which is how the CI soaks fail when a scrape goes bad.
//!
//! With `--traces FILE` the tool instead validates one saved
//! `GET /debug/traces` page: valid version-1 JSON, every trace carries
//! a root span (index 0, no parent) and in-range parent links.
//! `--require-route R` additionally demands at least one trace for
//! route `R`, and `--require-slow` one slow-query-captured trace — how
//! the CI soaks prove the adversarial query actually landed in the
//! ring.

use silkmoth_server::json::Json;
use silkmoth_server::telemetry::expo;
use std::process::exit;

const USAGE: &str = "\
usage: metricslint FILE [FILE...]   (FILEs are scrapes of one target, oldest first)
       metricslint --traces FILE [--require-route R] [--require-slow]";

/// Validates one `/debug/traces` page; returns the problems found.
fn lint_traces(text: &str, require_route: Option<&str>, require_slow: bool) -> Vec<String> {
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    let mut problems = Vec::new();
    if doc.get("version").and_then(Json::as_usize) != Some(1) {
        problems.push("page version is not 1".into());
    }
    let Some(traces) = doc.get("traces").and_then(Json::as_array) else {
        problems.push("page has no traces array".into());
        return problems;
    };
    let mut saw_route = false;
    let mut saw_slow = false;
    for t in traces {
        let id = t.get("id").and_then(Json::as_usize).unwrap_or(0);
        let Some(spans) = t.get("spans").and_then(Json::as_array) else {
            problems.push(format!("trace {id}: no spans array"));
            continue;
        };
        match spans.first() {
            Some(root) if root.get("parent") == Some(&Json::Null) => {}
            Some(_) => problems.push(format!("trace {id}: span 0 is not a root span")),
            None => problems.push(format!("trace {id}: empty span tree")),
        }
        for (i, span) in spans.iter().enumerate() {
            if span
                .get("kind")
                .and_then(Json::as_str)
                .is_none_or(str::is_empty)
            {
                problems.push(format!("trace {id}: span {i} has no kind"));
            }
            if let Some(parent) = span.get("parent").and_then(Json::as_usize) {
                if parent >= spans.len() {
                    problems.push(format!("trace {id}: span {i} parent {parent} out of range"));
                }
            }
        }
        if let Some(route) = require_route {
            saw_route |= t.get("route").and_then(Json::as_str) == Some(route);
        }
        saw_slow |= t.get("slow") == Some(&Json::Bool(true));
    }
    if let Some(route) = require_route {
        if !saw_route {
            problems.push(format!(
                "no trace for required route {route} among {} trace(s)",
                traces.len()
            ));
        }
    }
    if require_slow && !saw_slow {
        problems.push(format!(
            "no slow-query-captured trace among {} trace(s)",
            traces.len()
        ));
    }
    problems
}

/// Bounded-cardinality check for the catalog's per-tenant label: a
/// page that declares `silkmoth_catalog_collections_max` (every
/// catalog-fronted server does) must not carry more distinct
/// `collection` label values than that bound across all families —
/// that gauge IS the declared cardinality contract, so a page
/// violating it means tenant names leaked past the registry bound.
fn lint_collection_cardinality(families: &[expo::ParsedFamily]) -> Vec<String> {
    let Some(max) = families
        .iter()
        .find(|f| f.name == "silkmoth_catalog_collections_max")
        .and_then(|f| f.samples.first())
        .map(|s| s.value)
    else {
        return Vec::new(); // not a catalog server page
    };
    let mut values: Vec<&str> = families
        .iter()
        .flat_map(|f| &f.samples)
        .flat_map(|s| &s.labels)
        .filter(|(k, _)| k == "collection")
        .map(|(_, v)| v.as_str())
        .collect();
    values.sort_unstable();
    values.dedup();
    // The default collection's series carry no label, so the bound on
    // labelled values is max - 1.
    let bound = (max as usize).saturating_sub(1);
    if values.len() > bound {
        return vec![format!(
            "collection label has {} distinct values, past the declared \
             silkmoth_catalog_collections_max bound of {max} ({} labelled): {}",
            values.len(),
            bound,
            values.join(", ")
        )];
    }
    Vec::new()
}

fn run_traces_mode(args: &[String]) -> ! {
    let mut file: Option<&str> = None;
    let mut require_route: Option<&str> = None;
    let mut require_slow = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--require-route" => match it.next() {
                Some(r) => require_route = Some(r),
                None => {
                    eprintln!("{USAGE}");
                    exit(2);
                }
            },
            "--require-slow" => require_slow = true,
            f if file.is_none() && !f.starts_with("--") => file = Some(f),
            _ => {
                eprintln!("{USAGE}");
                exit(2);
            }
        }
    }
    let Some(file) = file else {
        eprintln!("{USAGE}");
        exit(2);
    };
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{file}: {e}");
            exit(2);
        }
    };
    let problems = lint_traces(&text, require_route, require_slow);
    for p in &problems {
        eprintln!("{file}: {p}");
    }
    if problems.is_empty() {
        println!("metricslint: traces page clean");
        exit(0);
    }
    eprintln!("metricslint: {} problem(s)", problems.len());
    exit(1);
}

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.first().map(String::as_str) == Some("--traces") {
        run_traces_mode(&files[1..]);
    }
    if files.is_empty() || files.iter().any(|f| f == "--help" || f == "-h") {
        eprintln!("{USAGE}");
        exit(2);
    }
    let mut problems = 0usize;
    let mut prev: Option<Vec<expo::ParsedFamily>> = None;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{file}: {e}");
                exit(2);
            }
        };
        match expo::parse_text(&text) {
            Ok(cur) => {
                for p in expo::lint(prev.as_deref(), &cur) {
                    eprintln!("{file}: {p}");
                    problems += 1;
                }
                for p in lint_collection_cardinality(&cur) {
                    eprintln!("{file}: {p}");
                    problems += 1;
                }
                prev = Some(cur);
            }
            Err(e) => {
                eprintln!("{file}: {e}");
                problems += 1;
                // A page that didn't parse can't serve as the baseline
                // for the next one.
                prev = None;
            }
        }
    }
    if problems > 0 {
        eprintln!(
            "metricslint: {problems} problem(s) across {} page(s)",
            files.len()
        );
        exit(1);
    }
    println!("metricslint: {} page(s) clean", files.len());
}
