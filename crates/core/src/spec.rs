//! [`QuerySpec`]: the one owned, serializable description of a related
//! set search, executed identically by every layer of the stack.
//!
//! It is the one way a search enters the engine:
//! [`Engine::execute`](crate::Engine::execute) and its batch and
//! deadline forms take a spec, and so do the sharded engine, the HTTP
//! routes (JSON) and the CLI (flags), which build one and nothing else:
//!
//! * **Owned and lifetime-free**: the reference is raw element strings,
//!   so a spec can be stored, sent over a socket, or queued. Encoding
//!   against a collection's dictionary happens at execution time (each
//!   engine — or each shard — encodes against its own dictionary, which
//!   preserves bit-identical scores; see `silkmoth-server`'s shard
//!   docs).
//! * **Validated at construction**: [`with_floor`](QuerySpec::with_floor)
//!   is the *only* place a floor is range-checked
//!   ([`ConfigError::FloorOutOfRange`], never clamped). A constructed
//!   spec is valid by invariant, which is why
//!   [`Engine::execute`](crate::Engine::execute) is infallible.
//! * **Deadline-aware**: an optional wall-clock *budget* (a
//!   [`Duration`], measured from the moment execution starts). Expiry is
//!   checked cooperatively in the ordered filter/verify loop, so an
//!   expired query returns a truncated but well-formed [`QueryOutput`]
//!   flagged [`timed_out`](QueryOutput::timed_out) instead of scanning
//!   to the floor.
//! * **One serialized form**: `silkmoth-server`'s `queryspec` module
//!   carries a spec as JSON (`spec_to_json` / `spec_from_json`), which
//!   leads with a format version and rejects unknown versions by name.

use std::time::{Duration, Instant};

use crate::config::{ConfigError, EngineConfig};
use crate::explain::PairExplanation;
use crate::filter::PassStats;
use silkmoth_collection::SetIdx;

/// An owned, serializable related-set-search description; see the
/// module docs. Build one with [`QuerySpec::new`] plus the `with_*`
/// setters; every constructed spec is valid.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    reference: Vec<String>,
    top_k: Option<usize>,
    floor: Option<f64>,
    deadline: Option<Duration>,
    want_stats: bool,
    want_explain: bool,
    want_timing: bool,
}

impl QuerySpec {
    /// A spec for `reference` (raw element strings) with the defaults:
    /// no ranking, the engine's own δ as the threshold, no deadline,
    /// stats on, explanations off.
    pub fn new(reference: Vec<String>) -> Self {
        Self {
            reference,
            top_k: None,
            floor: None,
            deadline: None,
            want_stats: true,
            want_explain: false,
            want_timing: false,
        }
    }

    /// Keep only the `k` most related sets — score descending, ties by
    /// ascending set id (the [`rank`](crate::rank) order every layer
    /// shares).
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Override the relatedness threshold for this query. **This is the
    /// single place a floor is validated** — `floor` must lie in
    /// `[0, 1]` or the spec is refused with
    /// [`ConfigError::FloorOutOfRange`]; every entry point (library
    /// callers, JSON decode, CLI) routes through here.
    pub fn with_floor(mut self, floor: f64) -> Result<Self, ConfigError> {
        if !(0.0..=1.0).contains(&floor) {
            return Err(ConfigError::FloorOutOfRange(floor));
        }
        self.floor = Some(floor);
        Ok(self)
    }

    /// Give the query a wall-clock budget, measured from the start of
    /// its execution. On expiry the execution stops cooperatively and
    /// the output is flagged [`QueryOutput::timed_out`]; results found
    /// before the deadline are still returned (under `top_k`, the best
    /// `k` among what was verified in time — candidates are examined
    /// best relatedness bound first).
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Whether the caller wants [`PassStats`] reported (default true).
    /// Execution always counts; the flag tells serialization layers
    /// whether to ship the counters back.
    pub fn with_stats(mut self, want: bool) -> Self {
        self.want_stats = want;
        self
    }

    /// Whether to attach a [`PairExplanation`] per hit (default false):
    /// what one more pass at the floor, restricted to the hits, records
    /// of each. Useful for debugging thresholds; it repeats the search.
    pub fn with_explain(mut self, want: bool) -> Self {
        self.want_explain = want;
        self
    }

    /// Whether serialization layers should ship [`PhaseTiming`] back
    /// (default false). Like stats, execution always measures; the flag
    /// only governs the response shape.
    pub fn with_timing(mut self, want: bool) -> Self {
        self.want_timing = want;
        self
    }

    /// The reference set's raw element strings.
    pub fn reference(&self) -> &[String] {
        &self.reference
    }

    /// The ranking cutoff, when set.
    pub fn top_k(&self) -> Option<usize> {
        self.top_k
    }

    /// The per-query relatedness floor, when set (always in `[0, 1]`).
    pub fn floor(&self) -> Option<f64> {
        self.floor
    }

    /// The wall-clock budget, when set.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Whether stats should be reported back.
    pub fn want_stats(&self) -> bool {
        self.want_stats
    }

    /// Whether per-hit explanations should be computed.
    pub fn want_explain(&self) -> bool {
        self.want_explain
    }

    /// Whether per-phase timing should be reported back.
    pub fn want_timing(&self) -> bool {
        self.want_timing
    }

    /// The engine configuration with this spec's floor applied.
    /// Infallible because the floor was validated at construction.
    pub(crate) fn effective_cfg(&self, base: &EngineConfig) -> EngineConfig {
        let mut cfg = *base;
        if let Some(floor) = self.floor {
            // A zero floor still needs a positive δ for the pass's
            // threshold arithmetic; MIN_POSITIVE is within VERIFY_EPS of
            // zero, so even relatedness-0 sets verify (floor 0 = rank
            // everything).
            cfg.delta = floor.max(f64::MIN_POSITIVE);
        }
        cfg
    }

    /// The absolute instant this spec's budget runs out if execution
    /// starts now, clamped by an outer `cap` (e.g. a server's
    /// whole-request deadline).
    pub(crate) fn deadline_at(&self, cap: Option<Instant>) -> Option<Instant> {
        let own = self.deadline.map(|budget| Instant::now() + budget);
        match (own, cap) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// Wall-clock time spent in each phase of one query execution,
/// measured with [`Instant`] reads *around* the phases — never inside
/// them — so timing is provably off the result path: the hits, stats,
/// and explanations are computed by exactly the same code whether or
/// not anyone reads the clock.
///
/// The phases partition `execute`'s wall time:
///
/// * `stage` — candidate generation: signature selection, inverted
///   index probe, check filter and the ordering of its survivors
///   (`Searcher::stage`).
/// * `verify` — the examination of the ordered candidates: the stop
///   rule, the nearest-neighbor filter and exact maximum-matching
///   verification, including ranking.
/// * `explain` — the pass that records the hits' explanations (zero
///   unless the spec asked for them).
///
/// Sharded execution reports the **element-wise maximum** across
/// shards — "the worst shard per phase" — because per-shard durations
/// overlap in wall time under the parallel scatter (their sum can
/// exceed the request's elapsed time; the per-phase max of any single
/// shard cannot). On a single shard the phases sum to ≤ the request's
/// wall time exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Candidate generation (signature, index probe, check filter,
    /// ordering).
    pub stage: Duration,
    /// Nearest-neighbor filtering + exact verification + ranking.
    pub verify: Duration,
    /// The explaining pass (zero without `want_explain`).
    pub explain: Duration,
}

impl PhaseTiming {
    /// The phases' sum — on one engine, ≤ the query's wall time.
    pub fn total(&self) -> Duration {
        self.stage + self.verify + self.explain
    }

    /// Folds `other` in element-wise by maximum (the sharded merge; see
    /// the type docs for why max, not sum).
    pub fn max_merge(&mut self, other: &PhaseTiming) {
        self.stage = self.stage.max(other.stage);
        self.verify = self.verify.max(other.verify);
        self.explain = self.explain.max(other.explain);
    }
}

/// What executing a [`QuerySpec`] produces, on every layer.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Related sets with relatedness scores. With
    /// [`top_k`](QuerySpec::with_top_k): score descending, ties by
    /// ascending set id, truncated to `k`; otherwise ascending set id.
    pub hits: Vec<(SetIdx, f64)>,
    /// Pass counters (always collected; [`QuerySpec::want_stats`]
    /// only governs whether serialization layers report them).
    pub stats: PassStats,
    /// True when the deadline expired before the pass finished: `hits`
    /// is a well-formed subset of the full answer, and the counters
    /// reflect only the work actually done.
    pub timed_out: bool,
    /// Per-hit diagnostics, aligned with `hits`, when
    /// [`QuerySpec::want_explain`] was set (empty otherwise).
    /// Explaining runs one more pass, under the same deadline as the
    /// search: on expiry this holds the prefix of the hits that pass
    /// verified in time, and `timed_out` is set.
    pub explanations: Vec<(SetIdx, PairExplanation)>,
    /// Per-phase wall-clock timing (always measured, like `stats`;
    /// [`QuerySpec::want_timing`] only governs whether serialization
    /// layers report it).
    pub timing: PhaseTiming,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RelatednessMetric;
    use silkmoth_text::SimilarityFunction;

    #[test]
    fn defaults_and_accessors() {
        let spec = QuerySpec::new(vec!["a b".into(), "c".into()]);
        assert_eq!(spec.reference().len(), 2);
        assert_eq!(spec.top_k(), None);
        assert_eq!(spec.floor(), None);
        assert_eq!(spec.deadline(), None);
        assert!(spec.want_stats());
        assert!(!spec.want_explain());
        let spec = spec
            .with_top_k(5)
            .with_floor(0.25)
            .unwrap()
            .with_deadline(Duration::from_millis(10))
            .with_stats(false)
            .with_explain(true);
        assert_eq!(spec.top_k(), Some(5));
        assert_eq!(spec.floor(), Some(0.25));
        assert_eq!(spec.deadline(), Some(Duration::from_millis(10)));
        assert!(!spec.want_stats());
        assert!(spec.want_explain());
    }

    #[test]
    fn floor_is_validated_at_construction() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = QuerySpec::new(vec!["a".into()])
                .with_floor(bad)
                .unwrap_err();
            assert!(matches!(err, ConfigError::FloorOutOfRange(_)), "{bad}");
        }
        // Boundary values are legal.
        for ok in [0.0, 1.0] {
            assert!(QuerySpec::new(vec!["a".into()]).with_floor(ok).is_ok());
        }
    }

    #[test]
    fn effective_cfg_applies_the_floor() {
        let base = EngineConfig::full(
            RelatednessMetric::Similarity,
            SimilarityFunction::Jaccard,
            0.7,
            0.0,
        );
        let spec = QuerySpec::new(vec!["a".into()]);
        assert_eq!(spec.effective_cfg(&base).delta, 0.7);
        let spec = spec.with_floor(0.3).unwrap();
        assert_eq!(spec.effective_cfg(&base).delta, 0.3);
        // Floor 0 becomes the smallest positive δ, never 0.
        let spec = QuerySpec::new(vec!["a".into()]).with_floor(0.0).unwrap();
        assert_eq!(spec.effective_cfg(&base).delta, f64::MIN_POSITIVE);
    }

    #[test]
    fn deadline_at_clamps_to_the_cap() {
        let spec = QuerySpec::new(vec!["a".into()]);
        assert_eq!(spec.deadline_at(None), None);
        let cap = Instant::now() + Duration::from_secs(1);
        assert_eq!(spec.deadline_at(Some(cap)), Some(cap));
        // A long budget is clamped by a shorter cap…
        let spec = spec.with_deadline(Duration::from_secs(3600));
        assert_eq!(spec.deadline_at(Some(cap)), Some(cap));
        // …and a short budget wins over a longer cap.
        let spec = QuerySpec::new(vec!["a".into()]).with_deadline(Duration::ZERO);
        assert!(spec.deadline_at(Some(cap)).unwrap() < cap);
    }
}
