//! The read side of the exposition format: a parser for the text
//! format `GET /metrics` serves, plus the lint CI runs over live
//! scrapes (`scripts/metrics_check.sh`).
//!
//! The parser accepts exactly the subset the server renders — `# HELP`
//! / `# TYPE` comments, `name{labels} value` samples, the HELP escapes
//! `\\` `\n` and the label-value escapes `\\` `\"` `\n` — and fails by
//! name on anything else, so a malformed page is a test failure, never
//! a silent skip.

use std::collections::BTreeMap;

/// One parsed sample row: the sample name (which for histograms carries
/// the `_bucket`/`_sum`/`_count` suffix), its labels, and the value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The sample name as written.
    pub name: String,
    /// Label pairs in page order.
    pub labels: Vec<(String, String)>,
    /// The parsed value.
    pub value: f64,
}

/// One parsed metric family: the `# TYPE` kind, `# HELP` text, and
/// every sample row that belongs to it.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedFamily {
    /// The family name (without histogram suffixes).
    pub name: String,
    /// The `# TYPE` keyword (`counter`, `gauge`, `histogram`).
    pub kind: String,
    /// The unescaped `# HELP` text.
    pub help: String,
    /// The family's sample rows.
    pub samples: Vec<Sample>,
}

/// Whether `sample` is a row of family `family` (exact, or a histogram
/// suffix row).
fn belongs_to(family: &str, sample: &str) -> bool {
    sample == family
        || sample
            .strip_prefix(family)
            .is_some_and(|rest| matches!(rest, "_bucket" | "_sum" | "_count"))
}

/// Undoes the exposition escapes in one left-to-right pass: `\\` and
/// `\n` everywhere, `\"` only in a label value (`quotes`). Any other
/// escape is an error.
fn unescape(s: &str, quotes: bool) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') if quotes => out.push('"'),
            Some('n') => out.push('\n'),
            other => return Err(format!("bad escape \\{}", other.unwrap_or(' '))),
        }
    }
    Ok(out)
}

/// Parses `{a="x",b="y"}` (the cursor starts after the `{`), returning
/// the pairs and the index just past the closing `}`.
fn parse_labels(text: &str) -> Result<(Vec<(String, String)>, usize), String> {
    let bytes = text.as_bytes();
    let mut labels = Vec::new();
    let mut pos = 0;
    loop {
        if bytes.get(pos) == Some(&b'}') {
            return Ok((labels, pos + 1));
        }
        let eq = text[pos..]
            .find('=')
            .ok_or_else(|| "label without '='".to_owned())?
            + pos;
        let name = &text[pos..eq];
        if bytes.get(eq + 1) != Some(&b'"') {
            return Err(format!("label {name} value is not quoted"));
        }
        let mut end = eq + 2;
        while end < bytes.len() {
            match bytes[end] {
                b'\\' => end += 2,
                b'"' => break,
                _ => end += 1,
            }
        }
        if end >= bytes.len() {
            return Err(format!("unterminated value for label {name}"));
        }
        labels.push((name.to_owned(), unescape(&text[eq + 2..end], true)?));
        pos = end + 1;
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => {}
            _ => return Err(format!("expected ',' or '}}' after label {name}")),
        }
    }
}

/// Parses one exposition page into its families. Errors name the
/// offending line (1-based).
pub fn parse_text(text: &str) -> Result<Vec<ParsedFamily>, String> {
    let mut families: Vec<ParsedFamily> = Vec::new();
    let mut pending_help: Option<(String, String)> = None;
    for (i, line) in text.lines().enumerate() {
        let at = |msg: String| format!("line {}: {msg}", i + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .ok_or_else(|| at("HELP without text".into()))?;
            pending_help = Some((name.to_owned(), unescape(help, false).map_err(&at)?));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| at("TYPE without kind".into()))?;
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(at(format!("unknown type {kind:?} for {name}")));
            }
            let help = match &pending_help {
                Some((h_name, h)) if h_name == name => h.clone(),
                _ => return Err(at(format!("TYPE {name} without a preceding HELP"))),
            };
            families.push(ParsedFamily {
                name: name.to_owned(),
                kind: kind.to_owned(),
                help,
                samples: Vec::new(),
            });
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are legal in the format
        }
        // A sample row: name[{labels}] value
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| at("sample without a value".into()))?;
        let name = &line[..name_end];
        let (labels, rest) = if line.as_bytes()[name_end] == b'{' {
            let (labels, consumed) = parse_labels(&line[name_end + 1..]).map_err(&at)?;
            (labels, &line[name_end + 1 + consumed..])
        } else {
            (Vec::new(), &line[name_end..])
        };
        let value: f64 = rest
            .trim()
            .parse()
            .map_err(|_| at(format!("unparseable value {:?} for {name}", rest.trim())))?;
        let family = families
            .iter_mut()
            .rev()
            .find(|f| belongs_to(&f.name, name))
            .ok_or_else(|| at(format!("sample {name} without a TYPE header")))?;
        family.samples.push(Sample {
            name: name.to_owned(),
            labels,
            value,
        });
    }
    Ok(families)
}

/// Lints one scrape — and, when `prev` is given, the transition from an
/// earlier scrape of the same endpoint. Returns every violation (empty
/// = clean):
///
/// * duplicate family names on one page;
/// * a family whose kind changed between scrapes;
/// * a counter (or histogram `_count`/`_bucket`) that moved backwards;
/// * histogram bucket rows that are not cumulative, or `_count` ≠ the
///   `+Inf` bucket.
pub fn lint(prev: Option<&[ParsedFamily]>, cur: &[ParsedFamily]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut seen = BTreeMap::new();
    for f in cur {
        if seen.insert(f.name.clone(), f.kind.clone()).is_some() {
            problems.push(format!("duplicate family {}", f.name));
        }
        if f.kind == "histogram" {
            lint_histogram(f, &mut problems);
        }
    }
    let Some(prev) = prev else { return problems };
    for pf in prev {
        let Some(cf) = cur.iter().find(|f| f.name == pf.name) else {
            problems.push(format!("family {} disappeared between scrapes", pf.name));
            continue;
        };
        if cf.kind != pf.kind {
            problems.push(format!(
                "family {} changed kind {} → {}",
                pf.name, pf.kind, cf.kind
            ));
            continue;
        }
        if cf.kind == "gauge" {
            continue; // gauges may move any direction
        }
        // Counters and every histogram row must be non-decreasing
        // (histogram _sum too: observations are non-negative durations).
        for ps in &pf.samples {
            let Some(cs) = cf
                .samples
                .iter()
                .find(|s| s.name == ps.name && s.labels == ps.labels)
            else {
                problems.push(format!("series {} disappeared between scrapes", ps.name));
                continue;
            };
            if cs.value < ps.value {
                problems.push(format!(
                    "{}{:?} moved backwards: {} → {}",
                    ps.name, ps.labels, ps.value, cs.value
                ));
            }
        }
    }
    problems
}

/// Histogram self-consistency within one page: per label set (ignoring
/// `le`), bucket rows are cumulative in page order and `_count` equals
/// the `+Inf` bucket.
fn lint_histogram(f: &ParsedFamily, problems: &mut Vec<String>) {
    let without_le = |labels: &[(String, String)]| -> Vec<(String, String)> {
        labels.iter().filter(|(k, _)| k != "le").cloned().collect()
    };
    let mut last: BTreeMap<String, (f64, bool)> = BTreeMap::new(); // key → (last bucket, saw +Inf)
    for s in &f.samples {
        let key = format!("{:?}", without_le(&s.labels));
        if s.name == format!("{}_bucket", f.name) {
            let entry = last.entry(key).or_insert((0.0, false));
            if s.value < entry.0 {
                problems.push(format!(
                    "{} buckets not cumulative at {:?}: {} after {}",
                    f.name, s.labels, s.value, entry.0
                ));
            }
            entry.0 = s.value;
            if s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf") {
                entry.1 = true;
            }
        } else if s.name == format!("{}_count", f.name) {
            match last.get(&key) {
                Some((total, true)) if *total == s.value => {}
                _ => problems.push(format!(
                    "{}_count{:?} does not match its +Inf bucket",
                    f.name, s.labels
                )),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Registry, LATENCY_BUCKETS};
    use super::*;
    use std::time::Duration;

    fn page() -> (Registry, String) {
        let reg = Registry::new();
        let c = reg.counter("a_total", "Things.", &[("route", "/x")]);
        c.add(5);
        let g = reg.gauge("b_now", "Level.", &[]);
        g.set(-3);
        let h = reg.histogram("c_seconds", "Latency.", &[], &LATENCY_BUCKETS);
        h.observe(Duration::from_millis(2));
        let text = reg.render();
        (reg, text)
    }

    #[test]
    fn parse_roundtrips_a_rendered_page() {
        let (_reg, text) = page();
        let families = parse_text(&text).expect("rendered page parses");
        assert_eq!(families.len(), 3);
        assert_eq!(families[0].name, "a_total");
        assert_eq!(families[0].kind, "counter");
        assert_eq!(
            families[0].samples[0].labels,
            vec![("route".into(), "/x".into())]
        );
        assert_eq!(families[0].samples[0].value, 5.0);
        assert_eq!(families[1].samples[0].value, -3.0);
        // 20 buckets + +Inf + sum + count
        assert_eq!(families[2].samples.len(), LATENCY_BUCKETS.len() + 3);
    }

    #[test]
    fn parse_unescapes_label_values() {
        let text = "# HELP e_total h\n# TYPE e_total counter\ne_total{v=\"a\\\"b\\\\c\\nd\"} 1\n";
        let families = parse_text(text).unwrap();
        assert_eq!(families[0].samples[0].labels[0].1, "a\"b\\c\nd");
    }

    /// Every escape the renderer emits parses back to the original text:
    /// a backslash, a quote, a newline, and a literal backslash-`n`
    /// (which must not come back as a backslash and a newline).
    #[test]
    fn help_and_label_values_roundtrip_through_render_and_parse() {
        let texts = [
            "plain",
            "back\\slash",
            "say \"hi\"",
            "two\nlines",
            "lit \\n here",
            "\\\\n\n\\\"\\",
        ];
        for text in texts {
            let reg = Registry::new();
            reg.counter("rt_total", text, &[("v", text)]);
            let families = parse_text(&reg.render()).expect("rendered page parses");
            assert_eq!(families[0].help, text, "HELP {text:?}");
            assert_eq!(families[0].samples[0].labels[0].1, text, "label {text:?}");
        }
        let err = parse_text("# HELP x a \\\"quote\n# TYPE x counter\n").unwrap_err();
        assert!(err.contains("line 1: bad escape"), "{err}");
    }

    #[test]
    fn malformed_pages_fail_by_name() {
        for (bad, needle) in [
            ("# TYPE x counter\nx 1\n", "without a preceding HELP"),
            ("# HELP x h\n# TYPE x widget\n", "unknown type"),
            (
                "# HELP x h\n# TYPE x counter\nx notanumber\n",
                "unparseable value",
            ),
            ("orphan 1\n", "without a TYPE header"),
            (
                "# HELP x h\n# TYPE x counter\nx{v=\"open 1\n",
                "unterminated",
            ),
        ] {
            let err = parse_text(bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?} → {err}");
        }
    }

    #[test]
    fn lint_passes_a_clean_scrape_pair() {
        let (reg, first) = page();
        reg.counter("a_total", "Things.", &[("route", "/x")]).add(2);
        let second = reg.render();
        let prev = parse_text(&first).unwrap();
        let cur = parse_text(&second).unwrap();
        assert_eq!(lint(Some(&prev), &cur), Vec::<String>::new());
        assert_eq!(lint(None, &cur), Vec::<String>::new());
    }

    #[test]
    fn lint_catches_backwards_counters_dupes_and_kind_changes() {
        let (_r, first) = page();
        let prev = parse_text(&first).unwrap();

        let shrunk = first.replace("a_total{route=\"/x\"} 5", "a_total{route=\"/x\"} 4");
        let cur = parse_text(&shrunk).unwrap();
        assert!(lint(Some(&prev), &cur)
            .iter()
            .any(|p| p.contains("moved backwards")));

        let dup = format!("{first}# HELP a_total Things.\n# TYPE a_total counter\na_total 0\n");
        let cur = parse_text(&dup).unwrap();
        assert!(lint(None, &cur)
            .iter()
            .any(|p| p.contains("duplicate family")));

        let flipped = first.replace("# TYPE a_total counter", "# TYPE a_total gauge");
        let cur = parse_text(&flipped).unwrap();
        assert!(lint(Some(&prev), &cur)
            .iter()
            .any(|p| p.contains("changed kind")));
    }

    #[test]
    fn lint_catches_non_cumulative_buckets() {
        let text = "\
# HELP h_seconds h
# TYPE h_seconds histogram
h_seconds_bucket{le=\"0.1\"} 5
h_seconds_bucket{le=\"+Inf\"} 3
h_seconds_sum 0.2
h_seconds_count 3
";
        let cur = parse_text(text).unwrap();
        let problems = lint(None, &cur);
        assert!(
            problems.iter().any(|p| p.contains("not cumulative")),
            "{problems:?}"
        );
    }
}
