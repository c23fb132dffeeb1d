//! JSON encoding of [`QuerySpec`] — the one serialized form of a query,
//! which `POST /search` and `POST /search/batch` accept.
//!
//! ## Format (version 1)
//!
//! ```json
//! {
//!   "v": 1,                      // optional; omitted means 1
//!   "reference": ["elem", …],    // required, non-empty
//!   "k": 10,                     // optional top-k
//!   "floor": 0.3,                // optional threshold override in [0,1]
//!   "deadline_ms": 50,           // optional wall-clock budget
//!   "stats": true,               // optional; default true
//!   "explain": false,            // optional; default false
//!   "timing": false              // optional; default false
//! }
//! ```
//!
//! Per the storage-layer format rule, the encoding is versioned: the
//! optional `"v"` field defaults to 1 (so pre-QuerySpec request bodies
//! keep working unchanged) and any other value is rejected by name.
//! Floors go through [`QuerySpec::with_floor`] — the single floor
//! validation point in the codebase — so the JSON layer cannot admit a
//! threshold the engine would refuse. Deadlines carry millisecond
//! granularity.

use silkmoth_core::{PairExplanation, QuerySpec, Verdict};
use std::time::Duration;

use crate::json::{obj, Json};

/// The JSON encoding version this module reads and writes.
pub const QUERY_SPEC_JSON_VERSION: u64 = 1;

/// Parses a [`QuerySpec`] from a request-body object. Errors are
/// ready-to-send 400 messages.
pub fn spec_from_json(doc: &Json) -> Result<QuerySpec, String> {
    match doc.get("v") {
        None => {}
        Some(v) => match v.as_usize() {
            Some(1) => {}
            Some(other) => {
                return Err(format!(
                    "unsupported query spec version {other} \
                     (this server speaks {QUERY_SPEC_JSON_VERSION})"
                ))
            }
            None => return Err("'v' must be a positive integer".into()),
        },
    }
    let reference = match doc.get("reference").and_then(Json::as_array) {
        Some(items) if !items.is_empty() => items
            .iter()
            .map(|e| e.as_str().map(str::to_owned))
            .collect::<Option<Vec<_>>>()
            .ok_or("'reference' must contain only strings")?,
        _ => return Err("'reference' must be a non-empty array of strings".into()),
    };
    let mut spec = QuerySpec::new(reference);
    match doc.get("k") {
        None | Some(Json::Null) => {}
        Some(v) => match v.as_usize() {
            Some(k) => spec = spec.with_top_k(k),
            None => return Err("'k' must be a non-negative integer".into()),
        },
    }
    match doc.get("floor") {
        None | Some(Json::Null) => {}
        Some(v) => match v.as_f64() {
            Some(f) => spec = spec.with_floor(f).map_err(|e| e.to_string())?,
            None => return Err("'floor' must be a number".into()),
        },
    }
    match doc.get("deadline_ms") {
        None | Some(Json::Null) => {}
        Some(v) => match v.as_usize() {
            Some(ms) => spec = spec.with_deadline(Duration::from_millis(ms as u64)),
            None => return Err("'deadline_ms' must be a non-negative integer".into()),
        },
    }
    for field in ["stats", "explain", "timing"] {
        match doc.get(field) {
            None | Some(Json::Null) => {}
            Some(Json::Bool(b)) => {
                spec = match field {
                    "stats" => spec.with_stats(*b),
                    "explain" => spec.with_explain(*b),
                    _ => spec.with_timing(*b),
                };
            }
            Some(_) => return Err(format!("'{field}' must be a boolean")),
        }
    }
    Ok(spec)
}

/// Renders a [`QuerySpec`] as the version-1 JSON object
/// [`spec_from_json`] parses: `spec_from_json(spec_to_json(s)) == s`
/// for every spec with a non-empty reference and a whole-millisecond
/// deadline. (An empty reference is representable in core and on the
/// binary wire — it executes harmlessly — but [`spec_from_json`]
/// rejects it, keeping the HTTP boundary's long-standing 400 for
/// `"reference": []`.)
pub fn spec_to_json(spec: &QuerySpec) -> Json {
    let mut fields = vec![
        ("v", Json::Num(QUERY_SPEC_JSON_VERSION as f64)),
        (
            "reference",
            Json::Arr(
                spec.reference()
                    .iter()
                    .map(|e| Json::Str(e.clone()))
                    .collect(),
            ),
        ),
    ];
    if let Some(k) = spec.top_k() {
        fields.push(("k", Json::Num(k as f64)));
    }
    if let Some(f) = spec.floor() {
        fields.push(("floor", Json::Num(f)));
    }
    if let Some(budget) = spec.deadline() {
        fields.push(("deadline_ms", Json::Num(budget.as_millis() as f64)));
    }
    fields.push(("stats", Json::Bool(spec.want_stats())));
    fields.push(("explain", Json::Bool(spec.want_explain())));
    fields.push(("timing", Json::Bool(spec.want_timing())));
    obj(fields)
}

/// Renders one per-hit [`PairExplanation`] as a compact JSON object: the
/// stages the pass took the pair past (all of them, for a hit), its
/// scores, and as `nn_upper_bound` the tightest bound it held before
/// verification (the nearest-neighbor filter's, else the cheap bound).
pub fn explanation_json(set: u32, expl: &PairExplanation) -> Json {
    let num = |value: Option<f64>| value.map_or(Json::Null, Json::Num);
    let passed = |stage| Json::Bool(expl.verdict > stage);
    let bound = expl.nn_upper_bound.or(expl.cheap_bound);
    obj(vec![
        ("set", Json::Num(f64::from(set))),
        ("related", Json::Bool(expl.verdict == Verdict::Related)),
        ("relatedness", num(expl.relatedness)),
        ("matching_score", num(expl.matching_score)),
        ("theta", Json::Num(expl.theta)),
        ("need", num(expl.need)),
        ("candidate", passed(Verdict::SizeCheck)),
        ("check_filter", passed(Verdict::CheckFilter)),
        ("nn_filter", passed(Verdict::NnFilter)),
        ("nn_upper_bound", num(bound)),
        (
            "degenerate_signature",
            Json::Bool(expl.degenerate_signature),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<QuerySpec, String> {
        spec_from_json(&Json::parse(text).unwrap())
    }

    #[test]
    fn minimal_body_parses_with_defaults() {
        let spec = parse(r#"{"reference": ["a b", "c"]}"#).unwrap();
        assert_eq!(spec.reference(), ["a b".to_owned(), "c".to_owned()]);
        assert_eq!(spec.top_k(), None);
        assert_eq!(spec.floor(), None);
        assert_eq!(spec.deadline(), None);
        assert!(spec.want_stats());
        assert!(!spec.want_explain());
    }

    #[test]
    fn full_body_parses_every_field() {
        let spec = parse(
            r#"{"v": 1, "reference": ["a"], "k": 5, "floor": 0.25,
                "deadline_ms": 40, "stats": false, "explain": true}"#,
        )
        .unwrap();
        assert_eq!(spec.top_k(), Some(5));
        assert_eq!(spec.floor(), Some(0.25));
        assert_eq!(spec.deadline(), Some(Duration::from_millis(40)));
        assert!(!spec.want_stats());
        assert!(spec.want_explain());
    }

    #[test]
    fn json_roundtrip_preserves_the_spec() {
        let specs = [
            QuerySpec::new(vec!["héllo \"wörld\"\n".into(), String::new()]),
            QuerySpec::new(vec!["a".into()])
                .with_top_k(3)
                .with_floor(0.5)
                .unwrap()
                .with_deadline(Duration::from_millis(25))
                .with_stats(false)
                .with_explain(true)
                .with_timing(true),
        ];
        for spec in specs {
            // Through the text form too, so escaping is exercised.
            let text = spec_to_json(&spec).to_string();
            let back = spec_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn unknown_version_rejected_by_name() {
        let err = parse(r#"{"v": 2, "reference": ["a"]}"#).unwrap_err();
        assert!(err.contains("version 2"), "{err}");
        assert!(parse(r#"{"v": "x", "reference": ["a"]}"#).is_err());
        // Omitted and explicit v=1 both parse.
        assert!(parse(r#"{"v": 1, "reference": ["a"]}"#).is_ok());
    }

    #[test]
    fn floor_validation_is_the_specs() {
        let err = parse(r#"{"reference": ["a"], "floor": 1.5}"#).unwrap_err();
        assert!(err.contains("outside [0, 1]"), "{err}");
        let err = parse(r#"{"reference": ["a"], "floor": -0.5}"#).unwrap_err();
        assert!(err.contains("outside [0, 1]"), "{err}");
    }

    #[test]
    fn malformed_fields_rejected() {
        for bad in [
            r#"{}"#,
            r#"{"reference": []}"#,
            r#"{"reference": [1]}"#,
            r#"{"reference": "a"}"#,
            r#"{"reference": ["a"], "k": -1}"#,
            r#"{"reference": ["a"], "k": 1.5}"#,
            r#"{"reference": ["a"], "floor": "x"}"#,
            r#"{"reference": ["a"], "deadline_ms": -5}"#,
            r#"{"reference": ["a"], "deadline_ms": "soon"}"#,
            r#"{"reference": ["a"], "stats": 1}"#,
            r#"{"reference": ["a"], "explain": "yes"}"#,
            r#"{"reference": ["a"], "timing": 0}"#,
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
