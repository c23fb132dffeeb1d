//! Status and admin: the one read of a collection's state that
//! `/healthz`, `/stats` and the catalog's `collections` section render
//! from, the store position and retained log replication reads, the
//! bootstrap store replacement, and `POST /promote`.

use std::sync::atomic::Ordering;
use std::sync::PoisonError;

use silkmoth_core::PassStats;
use silkmoth_storage::{RetainedLog, RetentionHook, StorageError, Store, StoreConfig, StoreStatus};

use super::read::stats_json_pairs;
use super::write::storage_error_response;
use super::{Answer, SearchService};
use crate::http::Response;
use crate::json::{obj, Json};
use crate::metrics::ServiceMetrics;
use crate::shard::{merge_stats, ShardedEngine};

/// One consistent read of a collection's size and position, taken
/// under a single hold of the engine lock.
struct CoreStatus {
    sets: usize,
    slots: usize,
    shard_sizes: Vec<usize>,
    /// The store's counters: on a follower the replicated position, on
    /// a primary its own, in memory or on disk alike.
    store: StoreStatus,
    /// The store lives in a directory, behind a WAL.
    durable: bool,
}

impl CoreStatus {
    /// The `storage` object. The per-collection summary carries the
    /// four fields that say whether the store is healthy; `/stats`
    /// (`full`, the collection's metrics) adds the position and the
    /// policy counters `/metrics` renders.
    fn storage_json(&self, full: Option<&ServiceMetrics>) -> Option<Json> {
        let status = self.durable.then_some(&self.store)?;
        let mut fields = vec![
            ("snapshot_seq", Json::Num(status.snapshot_seq as f64)),
            ("wal_records", Json::Num(status.wal_records as f64)),
            ("wal_segments", Json::Num(f64::from(status.wal_segments))),
        ];
        if full.is_some() {
            fields.push(("update_seq", Json::Num(status.update_seq as f64)));
            fields.push(("epoch", Json::Num(status.epoch as f64)));
        }
        fields.push(("last_fsync_ok", Json::Bool(status.last_fsync_ok)));
        if let Some(metrics) = full {
            let (compactions, snapshots) = metrics.policy_counts();
            fields.push(("auto_snapshots", Json::Num(snapshots as f64)));
            fields.push(("auto_compactions", Json::Num(compactions as f64)));
        }
        Some(obj(fields))
    }
}

/// A status page's fields, in order.
pub(crate) type Fields = Vec<(&'static str, Json)>;

/// A `200` page from ordered fields.
pub(crate) fn page(fields: Fields) -> Response {
    Response::json(200, obj(fields).to_string())
}

impl SearchService {
    /// Recovers from lock poison — a status page must never take the
    /// whole listener's `/stats` down over one tenant's panicked writer.
    fn status(&self) -> CoreStatus {
        let store = self.store.read().unwrap_or_else(PoisonError::into_inner);
        let engine = store.engine();
        CoreStatus {
            sets: engine.len(),
            slots: engine.slot_count(),
            shard_sizes: engine.shard_sizes(),
            store: store.status(),
            durable: store.is_durable(),
        }
    }

    /// How far the store has **committed**, and under which epoch.
    /// Copies only, no engine access: the position may run ahead of the
    /// engine while a batch is between commit and apply; what needs the
    /// two to agree goes through [`quiesced`](Self::quiesced).
    pub(crate) fn store_status(&self) -> StoreStatus {
        self.store.read().expect("engine lock poisoned").status()
    }

    /// The store's retained WAL up to the records committed now — what
    /// replication ships (`None` on an in-memory store, which
    /// replication refuses). Its reads take no lock.
    pub fn retained_log(&self) -> Option<RetainedLog> {
        let store = self.store.read().expect("engine lock poisoned");
        store.retained_log()
    }

    /// Replaces the store with a fresh one in the same directory over
    /// `engine`, continuing the history at `update_seq` of `epoch` — a
    /// follower installing a bootstrap snapshot. The directory is wiped
    /// first; the swap itself is quiesced and the new store wired like
    /// the old. `None` on an in-memory store, which has no directory.
    pub(crate) fn restart_store(
        &self,
        engine: ShardedEngine,
        cfg: StoreConfig,
        update_seq: u64,
        epoch: u64,
    ) -> Option<Result<(), StorageError>> {
        let dir = {
            let store = self.store.read().expect("engine lock poisoned");
            store.is_durable().then(|| store.dir().to_path_buf())?
        };
        let store = match std::fs::remove_dir_all(&dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(StorageError::Io {
                context: format!("wiping {} for a bootstrap", dir.display()),
                source: e,
            }),
            _ => Store::create_continuing(&dir, engine, cfg, update_seq, epoch),
        };
        Some(store.map(|store| {
            self.quiesced(|current| {
                *current = store;
                self.wire(current);
            })
        }))
    }

    /// Installs the WAL segment retention floor on the durable store —
    /// sealed segments a replication cursor still needs are kept until
    /// the cursor moves past them. The hook survives a bootstrap store
    /// replacement. No-op on an in-memory store.
    pub fn set_wal_retention(&self, hook: RetentionHook) {
        *self
            .retention_hook
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(hook);
        self.quiesced(|store| self.wire(store));
    }

    /// The `GET /healthz` body. Always 200: a follower retrying an
    /// unreachable primary is alive and serving reads; the state says
    /// what it's doing.
    pub(crate) fn healthz_fields(&self) -> Fields {
        // Role first, engine lock second (see the lock order).
        let (role, follower_state) = self.front.role_and_state();
        let status = self.status();
        let mut fields = vec![
            ("status", Json::Str("ok".into())),
            ("version", Json::Str(env!("CARGO_PKG_VERSION").into())),
            ("uptime_secs", Json::Num(self.front.uptime_secs() as f64)),
            ("durable", Json::Bool(status.durable)),
            ("role", Json::Str(role.into())),
            ("update_seq", Json::Num(status.store.update_seq as f64)),
            ("shards", Json::Num(status.shard_sizes.len() as f64)),
            ("sets", Json::Num(status.sets as f64)),
        ];
        if let Some(state) = follower_state {
            fields.push(("replication_state", Json::Str(state.into())));
        }
        fields
    }

    /// The `GET /stats` body.
    pub(crate) fn stats_fields(&self) -> Fields {
        let replication = self.front.replication_json();
        // Recover from poison instead of panicking: PassStats is plain
        // counters, so the worst a poisoned merge leaves behind is one
        // request's missing increments — not worth failing /stats over.
        let per_shard: Vec<PassStats> = self
            .shard_stats
            .iter()
            .map(|m| *m.lock().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let status = self.status();
        let shards_json: Vec<Json> = per_shard
            .iter()
            .zip(&status.shard_sizes)
            .map(|(stats, &sets)| {
                let mut o = stats_json_pairs(stats);
                o.insert(0, ("sets".to_owned(), Json::Num(sets as f64)));
                Json::Obj(o)
            })
            .collect();
        let count = |c: &std::sync::atomic::AtomicU64| Json::Num(c.load(Ordering::Relaxed) as f64);
        let mut fields = vec![
            (
                "requests",
                obj(vec![
                    ("search", count(&self.searches)),
                    ("discover", count(&self.discoveries)),
                    ("update", count(&self.updates)),
                ]),
            ),
            ("sets", Json::Num(status.sets as f64)),
            ("slots", Json::Num(status.slots as f64)),
            (
                "auto_compactions",
                Json::Num(self.metrics.policy_counts().0 as f64),
            ),
        ];
        if let Some(storage) = status.storage_json(Some(&self.metrics)) {
            fields.push(("storage", storage));
        }
        fields.push(("replication", replication));
        fields.push(("shards", Json::Arr(shards_json)));
        fields.push((
            "merged",
            Json::Obj(stats_json_pairs(&merge_stats(&per_shard))),
        ));
        fields
    }

    /// This collection's entry in the catalog's per-collection `/stats`
    /// and `/healthz` sections (and `GET /collections/<name>`): live
    /// sets, slot count, shard count, the update sequence, and (durable
    /// backends) the storage health.
    pub(crate) fn summary_fields(&self) -> Fields {
        let status = self.status();
        let mut fields = vec![
            ("sets", Json::Num(status.sets as f64)),
            ("slots", Json::Num(status.slots as f64)),
            ("shards", Json::Num(status.shard_sizes.len() as f64)),
            ("update_seq", Json::Num(status.store.update_seq as f64)),
            ("durable", Json::Bool(status.durable)),
        ];
        if let Some(storage) = status.storage_json(None) {
            fields.push(("storage", storage));
        }
        fields
    }

    /// `POST /promote`: the front stops the tail loop and flips the
    /// role; this core — the replicated one — durably bumps its store's
    /// failover epoch in between. The epoch bump is what prevents a
    /// stale follower of the *old* primary from silently resuming a
    /// diverged cursor against this server.
    pub(super) fn promote(&self) -> Answer {
        self.front.promote(|| {
            self.quiesced(|store| {
                store
                    .bump_epoch()
                    .map(|epoch| (epoch, store.status().update_seq))
            })
            .map_err(|e| storage_error_response(&e))
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use silkmoth_core::CompactionPolicy;
    use silkmoth_storage::{Store, StoreConfig};

    use super::*;
    use crate::service::testutil::*;
    use crate::shard::ShardedEngine;

    #[test]
    fn healthz_reports_shape() {
        let cfg = StoreConfig {
            policy: CompactionPolicy::default().compact_at_dead_ratio(0.2),
            ..StoreConfig::default()
        };
        let s = SearchService::durable(Store::in_memory(engine(3), cfg));
        let (status, doc) = get(&s, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(doc.get("durable"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("shards").and_then(Json::as_usize), Some(3));
        assert_eq!(doc.get("sets").and_then(Json::as_usize), Some(20));
        assert_eq!(
            doc.get("version").and_then(Json::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(doc.get("uptime_secs").and_then(Json::as_usize).is_some());
        // `update_seq` is the store's commit sequence, in memory as on
        // disk: one per committed update ...
        assert_eq!(doc.get("update_seq").and_then(Json::as_usize), Some(0));
        post(&s, "/sets", r#"{"sets": [["seq marker"]]}"#);
        let (_, doc) = get(&s, "/healthz");
        assert_eq!(doc.get("update_seq").and_then(Json::as_usize), Some(1));
        // ... and one more for the compaction the policy commits after
        // a remove that crosses the dead ratio (5 of 21 slots).
        send(&s, "DELETE", "/sets", r#"{"ids": [0, 1, 2, 3, 4]}"#);
        let (_, doc) = get(&s, "/healthz");
        assert_eq!(doc.get("update_seq").and_then(Json::as_usize), Some(3));
        let (_, stats) = get(&s, "/stats");
        assert_eq!(
            stats.get("auto_compactions").and_then(Json::as_usize),
            Some(1)
        );
    }

    #[test]
    fn promote_on_a_plain_primary_is_a_409() {
        let s = service();
        let (status, doc) = post(&s, "/promote", "");
        assert_eq!(status, 409, "{doc}");
        assert!(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("already primary"));
    }

    #[test]
    fn follower_rejects_writes_until_promoted() {
        use crate::replication::{follower_store_config, start_follower, FollowerConfig};
        use crate::ShardSpec;

        let dir =
            std::env::temp_dir().join(format!("silkmoth-service-follower-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = ShardedEngine::build(&corpus(), engine_cfg(), 3).unwrap();
        let store = Store::create(&dir, engine, StoreConfig::default()).unwrap();
        let s = Arc::new(SearchService::durable(store));

        // Point the follower loop at a primary that refuses connections:
        // it must retry with backoff and stay alive, not exit.
        let runtime = start_follower(
            Arc::clone(&s),
            "127.0.0.1:9".to_string(),
            ShardSpec {
                cfg: engine_cfg(),
                shards: 3,
            },
            follower_store_config(StoreConfig::default()),
            FollowerConfig {
                backoff_min: Duration::from_millis(2),
                backoff_max: Duration::from_millis(20),
                ..FollowerConfig::default()
            },
        );

        // Health stays 200 with the role and loop state visible.
        let (status, doc) = get(&s, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(doc.get("role").and_then(Json::as_str), Some("follower"));
        assert!(doc.get("replication_state").is_some());

        // Writes are rejected naming the primary; reads still work.
        let (status, doc) = post(&s, "/sets", r#"{"sets": [["nope"]]}"#);
        assert_eq!(status, 409, "{doc}");
        let err = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(err.contains("read-only follower") && err.contains("127.0.0.1:9"));
        let (status, _) = post(&s, "/search", r#"{"reference": ["w0 w1 shared0"]}"#);
        assert_eq!(status, 200);

        let (_, stats) = get(&s, "/stats");
        let repl = stats.get("replication").expect("replication stats");
        assert_eq!(repl.get("role").and_then(Json::as_str), Some("follower"));
        assert_eq!(
            repl.get("primary").and_then(Json::as_str),
            Some("127.0.0.1:9")
        );
        assert!(repl.get("lag").is_some());

        // Promote: the loop stops, the epoch bumps durably, writes open.
        let (status, doc) = post(&s, "/promote", "");
        assert_eq!(status, 200, "{doc}");
        assert_eq!(doc.get("role").and_then(Json::as_str), Some("primary"));
        assert_eq!(doc.get("epoch").and_then(Json::as_usize), Some(1));
        runtime.handle.join().unwrap();

        let (_, doc) = get(&s, "/healthz");
        assert_eq!(doc.get("role").and_then(Json::as_str), Some("primary"));
        let (status, doc) = post(&s, "/sets", r#"{"sets": [["now writable"]]}"#);
        assert_eq!(status, 200, "{doc}");
        let (_, stats) = get(&s, "/stats");
        let storage = stats.get("storage").unwrap();
        assert_eq!(storage.get("epoch").and_then(Json::as_usize), Some(1));
        let (status, doc) = post(&s, "/promote", "");
        assert_eq!(status, 409, "{doc}");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
