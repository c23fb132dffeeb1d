//! The four fixed workloads and their inputs.
//!
//! Everything the server sees — the `.sets` corpus, every request body —
//! is generated here: the data from fixed seeds, the order it is sent in
//! from `--seed`. The same seed gives the same bytes in the same order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silkmoth_core::{EngineConfig, RelatednessMetric};
use silkmoth_datagen::{
    dblp_titles, perturb_phrase, webtable_columns, webtable_schemas, ColumnsConfig, DblpConfig,
    RawCorpus, SchemaConfig,
};
use silkmoth_server::json::{obj, Json};
use silkmoth_text::SimilarityFunction;

/// The server under test runs one shard and the closed loop has one
/// connection, so there is never more than one runnable thread and the
/// whole run fits on one core (see `server::Pinned`). Two worker threads
/// keep `/healthz` and `/stats` answerable beside the loop's connection.
pub(crate) const SHARDS: usize = 1;
pub(crate) const THREADS: usize = 2;
/// Corpus size under `--smoke`.
pub(crate) const SMOKE_SETS: usize = 300;
/// The data is the same for every `--seed`: the seed decides the order
/// in which it is sent. Every pass and every chunk is then the same work
/// on every seed, and what differs between two runs is the machine.
const DATA_SEED: u64 = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CorpusKind {
    DblpTitles,
    WebtableColumns,
    WebtableSchemas,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Workload {
    pub(crate) name: &'static str,
    pub(crate) corpus: CorpusKind,
    pub(crate) sets: usize,
    pub(crate) cfg: EngineConfig,
    pub(crate) k: Option<usize>,
    pub(crate) floor: f64,
    /// References in the pool. A **pass** sends each of them once, in
    /// seeded order; the warm-up pass sends them in pool order and its
    /// answers are the ones checked.
    pub(crate) pool: usize,
    /// Share of `--seconds` given to the timed read passes.
    pub(crate) read_share: f64,
    /// A **chunk** is `chunk_appends` appends and `chunk_removes`
    /// removes in seeded order, mixed with one pass of searches when
    /// `chunk_searches` is set. The server snapshots every
    /// `chunk_appends + chunk_removes` updates, so each chunk holds
    /// exactly one snapshot: its last update triggers it. After it comes
    /// the **tail**, half a chunk of updates, which is the WAL a recovery
    /// replays. Writes are never cut by the clock: every life of the
    /// server leaves the same snapshot, the same WAL and the same live
    /// bytes.
    pub(crate) chunk_appends: usize,
    pub(crate) chunk_removes: usize,
    pub(crate) chunk_searches: bool,
    /// How many warm-up answers are also checked against
    /// `brute::search`, sized so the exhaustive scan stays around two
    /// seconds.
    pub(crate) brute_refs: usize,
}

pub(crate) const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "topk-verify",
        corpus: CorpusKind::DblpTitles,
        sets: 10_000,
        cfg: full(
            RelatednessMetric::Similarity,
            SimilarityFunction::Eds { q: 3 },
            0.8,
        ),
        k: Some(10),
        floor: 0.3,
        pool: 128,
        read_share: 0.8,
        chunk_appends: 900,
        chunk_removes: 100,
        chunk_searches: false,
        brute_refs: 10,
    },
    Workload {
        name: "topk-candidates",
        corpus: CorpusKind::WebtableColumns,
        sets: 30_000,
        cfg: full(
            RelatednessMetric::Containment,
            SimilarityFunction::Jaccard,
            0.5,
        ),
        k: Some(10),
        floor: 0.3,
        pool: 128,
        read_share: 0.8,
        chunk_appends: 900,
        chunk_removes: 100,
        chunk_searches: false,
        brute_refs: 3,
    },
    Workload {
        name: "floor-small",
        corpus: CorpusKind::WebtableSchemas,
        sets: 10_000,
        cfg: full(
            RelatednessMetric::Similarity,
            SimilarityFunction::Jaccard,
            0.0,
        ),
        k: None,
        floor: 0.7,
        pool: 8_000,
        read_share: 0.8,
        chunk_appends: 900,
        chunk_removes: 100,
        chunk_searches: false,
        brute_refs: 50,
    },
    Workload {
        name: "mixed-rw",
        corpus: CorpusKind::WebtableColumns,
        sets: 20_000,
        cfg: full(
            RelatednessMetric::Containment,
            SimilarityFunction::Jaccard,
            0.5,
        ),
        k: None,
        floor: 0.7,
        // 80 % searches, 18 % appends, 2 % removes in every chunk. The
        // read passes before them are the same searches without the
        // writes, for `server.service.read_slowdown_ratio`.
        pool: 2_000,
        read_share: 0.25,
        chunk_appends: 450,
        chunk_removes: 50,
        chunk_searches: true,
        brute_refs: 5,
    },
];

/// `EngineConfig::full` with δ = 0.7, as a const fn for the table above.
const fn full(
    metric: RelatednessMetric,
    similarity: SimilarityFunction,
    alpha: f64,
) -> EngineConfig {
    EngineConfig {
        metric,
        similarity,
        delta: 0.7,
        alpha,
        scheme: silkmoth_core::SignatureScheme::Dichotomy,
        filter: silkmoth_core::FilterKind::CheckAndNearestNeighbor,
        reduction: true,
    }
}

impl Workload {
    pub(crate) fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The same workload over a `--smoke` corpus.
    pub(crate) fn smoke(mut self) -> Workload {
        self.sets = SMOKE_SETS;
        self.pool = self.pool.min(100);
        self.chunk_appends /= 10;
        self.chunk_removes /= 10;
        self.brute_refs = self.brute_refs.min(5);
        self
    }

    /// `--snapshot-every`: one snapshot per chunk.
    pub(crate) fn snapshot_every(&self) -> usize {
        self.chunk_appends + self.chunk_removes
    }

    /// The `silkmoth serve` flags that reproduce `cfg` (the CLI derives
    /// q = 3 from α = 0.8 itself).
    pub(crate) fn serve_flags(&self) -> Vec<String> {
        let metric = match self.cfg.metric {
            RelatednessMetric::Similarity => "similarity",
            RelatednessMetric::Containment => "containment",
        };
        let phi = match self.cfg.similarity {
            SimilarityFunction::Eds { .. } => "eds",
            _ => "jaccard",
        };
        [
            "--metric",
            metric,
            "--phi",
            phi,
            "--alpha",
            &self.cfg.alpha.to_string(),
            "--delta",
            &self.cfg.delta.to_string(),
        ]
        .map(str::to_owned)
        .to_vec()
    }
}

/// One client operation. Bodies are rendered once, before any timing.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// `POST /search` with the body at this index of `Inputs::searches`.
    Search(usize),
    /// `POST /sets` with the set at this index of `Inputs::incoming`.
    Append(usize),
    /// `DELETE /sets` naming this corpus id (each id at most once, so a
    /// remove never fails).
    Remove(u32),
}

pub(crate) struct Inputs {
    pub(crate) workload: Workload,
    pub(crate) corpus: RawCorpus,
    /// Sets the writers append, from a second corpus of the same shape.
    pub(crate) incoming: RawCorpus,
    /// The reference pool: element strings per reference.
    pub(crate) references: Vec<Vec<String>>,
    /// Rendered `/search` bodies, one per reference.
    pub(crate) searches: Vec<String>,
    /// One pass: every reference of the pool once, in seeded order.
    pub(crate) pass: Vec<Op>,
    /// The chunk and the tail, each in seeded order.
    pub(crate) chunk: Vec<Op>,
    pub(crate) tail: Vec<Op>,
}

fn generate(kind: CorpusKind, num_sets: usize, seed: u64) -> RawCorpus {
    match kind {
        CorpusKind::DblpTitles => dblp_titles(&DblpConfig {
            num_sets,
            seed,
            ..Default::default()
        }),
        CorpusKind::WebtableColumns => webtable_columns(&ColumnsConfig {
            num_sets,
            seed,
            ..Default::default()
        }),
        CorpusKind::WebtableSchemas => webtable_schemas(&SchemaConfig {
            num_sets,
            seed,
            ..Default::default()
        }),
    }
}

/// SplitMix64 step: independent sub-seeds from `--seed` and a stream id.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

pub(crate) fn search_body(reference: &[String], k: Option<usize>, floor: f64) -> String {
    let mut fields = vec![(
        "reference",
        Json::Arr(reference.iter().map(|e| Json::Str(e.clone())).collect()),
    )];
    if let Some(k) = k {
        fields.push(("k", Json::Num(k as f64)));
    }
    fields.push(("floor", Json::Num(floor)));
    obj(fields).to_string()
}

pub(crate) fn append_body(set: &[String]) -> String {
    let set = Json::Arr(set.iter().map(|e| Json::Str(e.clone())).collect());
    obj(vec![("sets", Json::Arr(vec![set]))]).to_string()
}

pub(crate) fn remove_body(id: u32) -> String {
    obj(vec![("ids", Json::Arr(vec![Json::Num(f64::from(id))]))]).to_string()
}

impl Inputs {
    pub(crate) fn build(workload: Workload, seed: u64) -> Inputs {
        let w = workload;
        let corpus = generate(w.corpus, w.sets, sub_seed(DATA_SEED, 1));
        // A chunk and half a one.
        let incoming = generate(
            w.corpus,
            (w.chunk_appends + w.chunk_appends / 2).max(1),
            sub_seed(DATA_SEED, 2),
        );

        // References: corpus members drawn evenly, every second one
        // dirtied, so a query is not always an exact member. Not the
        // Zipf(1.0) ISSUE 12 names: the server keeps no cache, so no
        // layer behaves differently on a hot reference, and a change that
        // adds one brings its own skewed workload.
        let mut rng = StdRng::seed_from_u64(sub_seed(DATA_SEED, 3));
        let references: Vec<Vec<String>> = (0..w.pool)
            .map(|i| {
                let set = &corpus[rng.random_range(0..corpus.len())];
                if i % 2 == 1 {
                    let elements: Vec<&str> = set.iter().map(String::as_str).collect();
                    perturb_phrase(&elements, 0.15, 0.05, &mut rng)
                } else {
                    set.clone()
                }
            })
            .collect();
        let searches = references
            .iter()
            .map(|r| search_body(r, w.k, w.floor))
            .collect();
        let mut victims: Vec<u32> = (0..corpus.len() as u32).collect();
        shuffle(&mut victims, &mut rng);

        // Only the order comes from `--seed`.
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 4));
        let mut pass: Vec<Op> = (0..w.pool).map(Op::Search).collect();
        shuffle(&mut pass, &mut rng);
        let (appends, removes) = (w.chunk_appends, w.chunk_removes);
        let mut chunk: Vec<Op> = (0..appends)
            .map(Op::Append)
            .chain(victims[..removes].iter().map(|&v| Op::Remove(v)))
            .collect();
        if w.chunk_searches {
            chunk.extend((0..w.pool).map(Op::Search));
        }
        shuffle(&mut chunk, &mut rng);
        let mut tail: Vec<Op> = (appends..appends + appends / 2)
            .map(Op::Append)
            .chain(
                victims[removes..removes + removes / 2]
                    .iter()
                    .map(|&v| Op::Remove(v)),
            )
            .collect();
        shuffle(&mut tail, &mut rng);
        Inputs {
            workload,
            corpus,
            incoming,
            references,
            searches,
            pass,
            chunk,
            tail,
        }
    }

    /// The corpus in `silkmoth serve --input` format.
    pub(crate) fn corpus_file(&self) -> String {
        let mut out = String::new();
        for set in &self.corpus {
            out.push_str(&set.join("|"));
            out.push('\n');
        }
        out
    }

    /// The request an op sends: method, path, body.
    pub(crate) fn request(
        &self,
        op: &Op,
    ) -> (&'static str, &'static str, std::borrow::Cow<'_, str>) {
        match op {
            Op::Search(i) => ("POST", "/search", self.searches[*i].as_str().into()),
            Op::Append(i) => ("POST", "/sets", append_body(&self.incoming[*i]).into()),
            Op::Remove(id) => ("DELETE", "/sets", remove_body(*id).into()),
        }
    }

    /// FNV-1a over the requests of a pass, the chunk and the tail, in
    /// order: equal seeds must give equal hashes.
    pub(crate) fn op_list_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for op in self.pass.iter().chain(&self.chunk).chain(&self.tail) {
            let (method, path, body) = self.request(op);
            h.write(method.as_bytes());
            h.write(path.as_bytes());
            h.write(body.as_bytes());
        }
        h.0
    }
}

/// FNV-1a, the digest used for op lists and answers.
pub(crate) struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of one answer: ids, order and score bits.
pub(crate) fn answer_digest(hits: &[(u32, f64)]) -> u64 {
    let mut h = Fnv::default();
    for &(id, score) in hits {
        h.write(&id.to_le_bytes());
        h.write(&score.to_bits().to_le_bytes());
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_list_and_a_different_seed_differs() {
        let w = WORKLOADS[3].smoke();
        let a = Inputs::build(w, 7).op_list_hash();
        assert_eq!(a, Inputs::build(w, 7).op_list_hash());
        assert_ne!(a, Inputs::build(w, 8).op_list_hash());
    }

    #[test]
    fn seeds_reorder_the_same_requests() {
        let w = WORKLOADS[3].smoke();
        let sorted = |seed| {
            let inputs = Inputs::build(w, seed);
            [&inputs.pass, &inputs.chunk, &inputs.tail].map(|ops| {
                let mut bodies: Vec<String> = ops
                    .iter()
                    .map(|op| inputs.request(op).2.into_owned())
                    .collect();
                bodies.sort();
                bodies
            })
        };
        // A pass, the chunk and the tail hold the same requests on any seed.
        assert_eq!(sorted(7), sorted(8));
    }

    #[test]
    fn the_chunk_is_one_snapshot_cycle_and_the_tail_stays_in_the_wal() {
        for w in WORKLOADS.map(Workload::smoke) {
            let inputs = Inputs::build(w, 1);
            let updates = |ops: &[Op]| ops.iter().filter(|op| !matches!(op, Op::Search(_))).count();
            assert_eq!(updates(&inputs.chunk), w.snapshot_every());
            assert_eq!(updates(&inputs.tail), inputs.tail.len());
            assert!(!inputs.tail.is_empty() && inputs.tail.len() < w.snapshot_every());
        }
    }

    #[test]
    fn removes_name_each_corpus_id_at_most_once() {
        let inputs = Inputs::build(WORKLOADS[3].smoke(), 1);
        let mut removed: Vec<u32> = inputs
            .chunk
            .iter()
            .chain(&inputs.tail)
            .filter_map(|op| match op {
                Op::Remove(id) => Some(*id),
                _ => None,
            })
            .collect();
        assert!(!removed.is_empty());
        let n = removed.len();
        removed.sort_unstable();
        removed.dedup();
        assert_eq!(removed.len(), n);
    }
}
