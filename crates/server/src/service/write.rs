//! The write path: admission, the group-commit queue in front of the
//! store, the update routes, `POST /snapshot`, and the
//! **quiesced store accessor** — the one way anything outside the
//! group-commit loop touches the store together with its engine.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use silkmoth_collection::{SetIdx, UpdateError};
use silkmoth_core::{Update, UpdateOutcome};
use silkmoth_storage::{StorageError, Store};

use super::{array_field, error_response, parse_body, string_sets, Answer, SearchService};
use crate::http::Response;
use crate::json::{obj, Json};
use crate::shard::ShardedEngine;
use crate::telemetry::trace;

/// Decrements the in-flight update counter on drop (see
/// [`SearchService::with_max_inflight_updates`]).
struct InflightGuard<'a>(Option<&'a AtomicUsize>);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if let Some(counter) = self.0 {
            counter.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// The group-commit queue in front of the store. Concurrent update
/// requests enqueue here; whichever request thread finds no leader
/// active claims leadership, drains the queue **once**, and commits
/// everything drained as one batch (on disk, one WAL write + one
/// fsync), applies it to the engine, and delivers each update's
/// outcome into its slot. The other threads wait on the condvar —
/// crucially *without* queueing on a lock the leader holds, so a
/// writer whose update was acked by the previous leader can respond
/// and enqueue its next update while the current leader is still
/// inside its fsync. That is what lets batches grow: the fsync window
/// is exactly when the queue fills.
#[derive(Debug, Default)]
pub(super) struct CommitQueue {
    /// Updates waiting for the next leader's drain.
    pending: Mutex<Vec<QueuedUpdate>>,
    /// True while a leader is inside its commit → apply → maintain
    /// cycle, or [`SearchService::quiesced`] holds leadership before
    /// the write lock (a snapshot cut between a batch's durable commit
    /// and its engine apply would record a seq the engine hasn't
    /// reached). Guarded by this mutex, handed over through `wakeup`.
    leading: Mutex<bool>,
    /// Signalled when the leader resigns: completed waiters pick up
    /// their results, and one of the rest becomes the next leader.
    wakeup: Condvar,
}

impl CommitQueue {
    /// Blocks until this thread holds batch leadership. While the
    /// guard lives, no group commit can sit between its durable-commit
    /// and engine-apply phases, and none can start.
    fn lead(&self) -> LeaderGuard<'_> {
        let mut leading = self.leading.lock().unwrap_or_else(PoisonError::into_inner);
        while *leading {
            leading = self
                .wakeup
                .wait(leading)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *leading = true;
        LeaderGuard { queue: self }
    }
}

/// Resigns leadership on drop (even on panic) and wakes every waiter.
struct LeaderGuard<'a> {
    queue: &'a CommitQueue,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        *self
            .queue
            .leading
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = false;
        self.queue.wakeup.notify_all();
    }
}

/// One enqueued update and the slot its outcome is delivered into.
#[derive(Debug)]
struct QueuedUpdate {
    update: Update,
    slot: Arc<UpdateSlot>,
}

/// Where a queued update's result lands. The completing leader fills
/// every drained slot before resigning, so a waiter woken by the
/// queue's condvar either finds its result here or becomes the next
/// leader.
#[derive(Debug, Default)]
struct UpdateSlot(Mutex<Option<Result<GroupReceipt, GroupCommitError>>>);

impl UpdateSlot {
    fn complete(&self, result: Result<GroupReceipt, GroupCommitError>) {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
    }

    fn take(&self) -> Option<Result<GroupReceipt, GroupCommitError>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).take()
    }
}

/// What one applied update gets back from its group commit.
#[derive(Debug)]
struct GroupReceipt {
    outcome: UpdateOutcome,
    /// Live sets after the whole batch applied.
    total: usize,
    /// The update is durably committed and applied, but post-commit
    /// policy maintenance failed — the route must still answer
    /// success, flagged `"degraded": true`, never an error status (a
    /// retry would duplicate the update; see
    /// [`MaintenanceReport`](silkmoth_storage::MaintenanceReport)).
    maintenance_error: Option<String>,
}

/// Why a queued update failed.
#[derive(Debug)]
enum GroupCommitError {
    /// The update was invalid against the engine state it would have
    /// applied to. It was never committed; the rest of its batch is
    /// unaffected.
    Update(UpdateError),
    /// The batch's commit or apply failed — shared by every update in
    /// the batch, none of which was acknowledged.
    Storage(Arc<StorageError>),
}

impl SearchService {
    /// Admits one update, or `None` when the in-flight bound is
    /// reached.
    fn admit_update(&self) -> Option<InflightGuard<'_>> {
        let Some(max) = self.max_inflight_updates else {
            return Some(InflightGuard(None));
        };
        let mut current = self.inflight_updates.load(Ordering::Relaxed);
        loop {
            if current >= max {
                return None;
            }
            match self.inflight_updates.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(InflightGuard(Some(&self.inflight_updates))),
                Err(observed) => current = observed,
            }
        }
    }

    /// Applies one update through the group commit and renders its
    /// `200` from `fields(outcome, live sets after the update)`.
    fn apply_update(
        &self,
        update: Update,
        fields: impl FnOnce(&UpdateOutcome, usize) -> Vec<(&'static str, Json)>,
    ) -> Answer {
        self.front.check_writable()?;
        let _admitted = self.admit_update().ok_or_else(overloaded_response)?;
        let receipt = self.group_commit(update).map_err(|e| match e {
            GroupCommitError::Update(e) => update_error_response(e),
            GroupCommitError::Storage(e) => storage_error_response(&e),
        })?;
        self.updates.fetch_add(1, Ordering::Relaxed);
        let mut fields = fields(&receipt.outcome, receipt.total);
        if let Some(why) = &receipt.maintenance_error {
            self.front.log(&format!(
                "maintenance_degraded update_committed=true error={why}"
            ));
            fields.push(("degraded", Json::Bool(true)));
        }
        Ok(Response::json(200, obj(fields).to_string()))
    }

    /// Commits one update through the group-commit queue, blocking
    /// until a leader (possibly this thread) has committed and applied
    /// it.
    fn group_commit(&self, update: Update) -> Result<GroupReceipt, GroupCommitError> {
        let enqueued = Instant::now();
        let slot = Arc::new(UpdateSlot::default());
        self.commit_queue
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(QueuedUpdate {
                update,
                slot: Arc::clone(&slot),
            });
        let mut leading = self
            .commit_queue
            .leading
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.take() {
                // A previous leader batched this update in: the whole
                // enqueue→completion window was spent waiting on it.
                trace::emit("group_commit_wait", enqueued.elapsed(), Vec::new());
                return result;
            }
            if !*leading {
                *leading = true;
                drop(leading);
                let guard = LeaderGuard {
                    queue: &self.commit_queue,
                };
                let led = Instant::now();
                self.lead_commit();
                trace::emit("group_commit_lead", led.elapsed(), Vec::new());
                drop(guard); // resign + wake the batch's waiters
                return slot
                    .take()
                    .expect("the leader completes every drained slot");
            }
            leading = self
                .commit_queue
                .wakeup
                .wait(leading)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Drains the pending queue once (as the current leader) and
    /// commits it as one or more batches. [`Update::Compact`] is a
    /// batch barrier: the store requires it committed alone, and the
    /// updates behind it must be validated against the post-compaction
    /// engine (compaction drops tombstoned gids for good).
    fn lead_commit(&self) {
        // Classic group-commit window: give contending writers one
        // scheduler beat to enqueue before the drain. When nothing
        // else is runnable this is nearly free; when writers are
        // contending it grows the batch, and every update added here
        // rides an fsync that was being paid anyway.
        std::thread::yield_now();
        let drained = std::mem::take(
            &mut *self
                .commit_queue
                .pending
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        let mut group: Vec<QueuedUpdate> = Vec::with_capacity(drained.len());
        for queued in drained {
            if matches!(queued.update, Update::Compact) {
                if !group.is_empty() {
                    self.commit_group(std::mem::take(&mut group));
                }
                self.commit_group(vec![queued]);
            } else {
                group.push(queued);
            }
        }
        if !group.is_empty() {
            self.commit_group(group);
        }
    }

    /// Commits one batch. Phase 1 under the **shared** engine lock:
    /// validate each update against the batch's virtual engine state
    /// and commit the accepted ones — on disk with one WAL write + one
    /// fsync, while searches keep executing. Phase 2 under the write
    /// lock: apply the committed records to the engine in commit
    /// order, then run policy maintenance. The leader lock
    /// (held by the caller) keeps rotations and other batches from
    /// interleaving between the phases.
    fn commit_group(&self, group: Vec<QueuedUpdate>) {
        let fail_all = |slots: &[Arc<UpdateSlot>], e: StorageError| {
            let shared = Arc::new(e);
            for slot in slots {
                slot.complete(Err(GroupCommitError::Storage(Arc::clone(&shared))));
            }
        };
        // Phase 1: validate + commit, under the read lock.
        let (batch, slots) = {
            let store = self.store.read().expect("engine lock poisoned");
            let engine = store.engine();
            // Validate each update against the state it will apply to:
            // appends advance a virtual next-gid, so a Remove may name
            // a gid appended earlier in the same batch; engine removes
            // are idempotent per gid, so an earlier Remove never
            // invalidates a later one. A rejected update is never
            // committed and does not fail its batch.
            let engine_next = engine.next_gid();
            let mut virtual_next = engine_next;
            let mut updates = Vec::with_capacity(group.len());
            let mut slots = Vec::with_capacity(group.len());
            for queued in group {
                let valid = match &queued.update {
                    Update::Append(sets) => {
                        virtual_next += sets.len() as SetIdx;
                        Ok(())
                    }
                    Update::Remove(gids) => gids
                        .iter()
                        .find(|&&gid| {
                            gid >= virtual_next || (gid < engine_next && !engine.has_gid(gid))
                        })
                        .map_or(Ok(()), |&bad| Err(UpdateError::NoSuchSet(bad))),
                    Update::Compact => Ok(()),
                };
                match valid {
                    Ok(()) => {
                        updates.push(queued.update);
                        slots.push(queued.slot);
                    }
                    Err(e) => queued.slot.complete(Err(GroupCommitError::Update(e))),
                }
            }
            if updates.is_empty() {
                return;
            }
            match store.commit_batch(updates) {
                Ok(batch) => (batch, slots),
                Err(e) => {
                    fail_all(&slots, e);
                    return;
                }
            }
        };
        // Phase 2: apply + maintain, under the write lock.
        let mut store = self.store.write().expect("engine lock poisoned");
        let applied = store.apply_committed(batch).map(|outcomes| {
            let report = store.maintain();
            (outcomes, report, store.engine().len())
        });
        drop(store);
        match applied {
            Ok((outcomes, report, total)) => {
                for (slot, outcome) in slots.iter().zip(outcomes) {
                    slot.complete(Ok(GroupReceipt {
                        outcome,
                        total,
                        maintenance_error: report.error.clone(),
                    }));
                }
            }
            Err(e) => fail_all(&slots, e),
        }
    }

    pub(super) fn append(&self, body: &[u8]) -> Answer {
        let sets = string_sets(&parse_body(body)?, "sets")?;
        self.check_quota(&sets)?;
        self.apply_update(Update::Append(sets), |outcome, total| {
            let appended = outcome
                .appended
                .iter()
                .map(|&gid| Json::Num(f64::from(gid)));
            vec![
                ("appended", Json::Arr(appended.collect())),
                ("sets", Json::Num(total as f64)),
            ]
        })
    }

    pub(super) fn remove(&self, body: &[u8]) -> Answer {
        let doc = parse_body(body)?;
        let ids = array_field(&doc, "ids", "set ids")?
            .iter()
            .map(|v| v.as_usize().and_then(|id| u32::try_from(id).ok()))
            .collect::<Option<Vec<u32>>>()
            .ok_or_else(|| error_response(400, "'ids' must contain non-negative set ids"))?;
        self.apply_update(Update::Remove(ids), |outcome, total| {
            vec![
                ("removed", Json::Num(outcome.removed as f64)),
                ("sets", Json::Num(total as f64)),
            ]
        })
    }

    pub(super) fn compact(&self) -> Answer {
        self.apply_update(Update::Compact, |_, total| {
            vec![("sets", Json::Num(total as f64))]
        })
    }

    /// Runs `f` against the store **quiesced**: batch leadership first,
    /// then the engine write lock. While `f` runs no group commit sits
    /// between its commit and its engine apply and none can start, so
    /// the store's sequence number and the engine agree. Enforced here
    /// so no caller has to remember it; `*store = …` replaces the store.
    pub(crate) fn quiesced<R>(&self, f: impl FnOnce(&mut Store<ShardedEngine>) -> R) -> R {
        let _leader = self.commit_queue.lead();
        f(&mut self.store.write().expect("engine lock poisoned"))
    }

    pub(super) fn snapshot(&self) -> Answer {
        let _admitted = self.admit_update().ok_or_else(overloaded_response)?;
        let seq = self.quiesced(|store| {
            if !store.is_durable() {
                return Err(error_response(
                    409,
                    "server is not durable; restart with --data-dir to enable snapshots",
                ));
            }
            store.snapshot().map_err(|e| storage_error_response(&e))
        })?;
        Ok(Response::json(
            200,
            obj(vec![("snapshot_seq", Json::Num(seq as f64))]).to_string(),
        ))
    }

    /// The catalog quota gate for `POST /sets`: a named `403` when the
    /// append would push the collection past its `max_sets` or
    /// `max_bytes` bound. Quotas are admission
    /// checks, not invariants — two concurrent appends may both pass
    /// and land the collection slightly over the line; the *next*
    /// append is then rejected, which is the boundedness a tenant quota
    /// is for.
    fn check_quota(&self, sets: &[Vec<String>]) -> Result<(), Response> {
        if self.max_sets.is_none() && self.max_bytes.is_none() {
            return Ok(());
        }
        let engine = self.engine();
        if let Some(max) = self.max_sets {
            let after = engine.len() + sets.len();
            if after > max {
                return Err(error_response(
                    403,
                    &format!(
                        "collection set quota exceeded: {after} live sets would pass the \
                         max_sets={max} bound"
                    ),
                ));
            }
        }
        if let Some(max) = self.max_bytes {
            let incoming: u64 = sets
                .iter()
                .flat_map(|s| s.iter())
                .map(|e| e.len() as u64)
                .sum();
            let after = engine.text_bytes() + incoming;
            if after > max {
                return Err(error_response(
                    403,
                    &format!(
                        "collection byte quota exceeded: {after} bytes of element text \
                         would pass the max_bytes={max} bound"
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// The backpressure rejection: the client should retry shortly.
fn overloaded_response() -> Response {
    error_response(503, "too many updates in flight; retry shortly").with_header("Retry-After", "1")
}

fn update_error_response(e: UpdateError) -> Response {
    match e {
        UpdateError::NoSuchSet(_) => error_response(404, &e.to_string()),
    }
}

/// A storage failure means the update was NOT durably acknowledged.
pub(super) fn storage_error_response(e: &StorageError) -> Response {
    error_response(500, &format!("storage: {e}"))
}

#[cfg(test)]
mod tests {
    use silkmoth_core::CompactionPolicy;
    use silkmoth_storage::StoreConfig;

    use super::super::testutil::*;
    use super::*;
    use crate::http::Request;

    #[test]
    fn update_routes_mutate_and_validate() {
        let s = service();
        // Malformed update bodies are 400s.
        for (method, body) in [
            ("POST", "not json"),
            ("POST", r#"{"sets": []}"#),
            ("POST", r#"{"sets": [[]]}"#),
            ("POST", r#"{"sets": [["a"], [1]]}"#),
            ("DELETE", r#"{"ids": []}"#),
            ("DELETE", r#"{"ids": [-1]}"#),
            ("DELETE", r#"{"ids": ["x"]}"#),
            ("DELETE", r#"{"ids": [1.5]}"#),
        ] {
            let req = Request::new(method, "/sets", body.as_bytes().to_vec());
            let resp = s.handle(&req);
            assert_eq!(resp.status, 400, "{method} {body}");
        }

        // Append, then search for the new set.
        let (status, doc) = post(&s, "/sets", r#"{"sets": [["unique marker element"]]}"#);
        assert_eq!(status, 200, "{doc}");
        assert_eq!(
            doc.get("appended").and_then(Json::as_array).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(doc.get("sets").and_then(Json::as_usize), Some(21));
        let (_, found) = post(
            &s,
            "/search",
            r#"{"reference": ["unique marker element"], "floor": 0.9}"#,
        );
        let hits = found.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].get("set").and_then(Json::as_usize), Some(20));

        // Remove it again; unknown ids are a named 404.
        let req = Request::new("DELETE", "/sets", br#"{"ids": [20]}"#.to_vec());
        let resp = s.handle(&req);
        assert_eq!(resp.status, 200);
        let req = Request::new("DELETE", "/sets", br#"{"ids": [555]}"#.to_vec());
        let resp = s.handle(&req);
        assert_eq!(resp.status, 404);

        // /stats reflects the update count and the live set count.
        let (_, stats) = get(&s, "/stats");
        assert_eq!(
            stats
                .get("requests")
                .and_then(|r| r.get("update"))
                .and_then(Json::as_usize),
            Some(2)
        );
        assert_eq!(stats.get("sets").and_then(Json::as_usize), Some(20));
    }

    #[test]
    fn snapshot_on_ephemeral_service_is_a_409() {
        let s = service();
        let (status, doc) = post(&s, "/snapshot", "");
        assert_eq!(status, 409, "{doc}");
        assert!(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("--data-dir"));
    }

    #[test]
    fn ephemeral_policy_compacts_automatically() {
        let cfg = StoreConfig {
            policy: CompactionPolicy::default().compact_at_dead_ratio(0.2),
            ..StoreConfig::default()
        };
        let s = SearchService::durable(Store::in_memory(engine(3), cfg));
        // Removing 4/20 sets crosses the 0.2 dead ratio: the service
        // compacts on its own and /stats shows dense slots again.
        let (status, _) = {
            let req = Request::new("DELETE", "/sets", br#"{"ids": [1, 5, 9, 13]}"#.to_vec());
            let resp = s.handle(&req);
            (resp.status, ())
        };
        assert_eq!(status, 200);
        let (_, stats) = get(&s, "/stats");
        assert_eq!(stats.get("sets").and_then(Json::as_usize), Some(16));
        assert_eq!(
            stats.get("slots").and_then(Json::as_usize),
            Some(16),
            "auto-compaction dropped the tombstones"
        );
        assert_eq!(
            stats.get("auto_compactions").and_then(Json::as_usize),
            Some(1)
        );
        // The store's telemetry hook counts it on /metrics too; the WAL
        // families stay empty, since nothing was logged.
        let page = s.handle(&Request::new("GET", "/metrics", Vec::new())).body;
        let page = String::from_utf8(page).unwrap();
        assert!(
            page.contains("silkmoth_storage_auto_compactions_total 1"),
            "{page}"
        );
        assert!(
            page.contains("silkmoth_wal_commit_batch_records_count 0"),
            "{page}"
        );
        // Global ids survive the auto-compaction (stable-gid guarantee).
        let (status, _) = {
            let req = Request::new("DELETE", "/sets", br#"{"ids": [19]}"#.to_vec());
            (s.handle(&req).status, ())
        };
        assert_eq!(status, 200);
    }

    #[test]
    fn durable_service_logs_snapshots_and_reports_storage_stats() {
        let dir =
            std::env::temp_dir().join(format!("silkmoth-service-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = ShardedEngine::build(&corpus(), engine_cfg(), 3).unwrap();
        let store = Store::create(&dir, engine, StoreConfig::default()).unwrap();
        let s = SearchService::durable(store);

        let (status, doc) = get(&s, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(doc.get("durable"), Some(&Json::Bool(true)));

        let (status, doc) = post(&s, "/sets", r#"{"sets": [["durable marker"]]}"#);
        assert_eq!(status, 200, "{doc}");
        let (_, stats) = get(&s, "/stats");
        let storage = stats.get("storage").expect("durable stats section");
        assert_eq!(
            storage.get("snapshot_seq").and_then(Json::as_usize),
            Some(0)
        );
        assert_eq!(storage.get("wal_records").and_then(Json::as_usize), Some(1));
        assert_eq!(storage.get("last_fsync_ok"), Some(&Json::Bool(true)));

        // Forcing a checkpoint rotates the generation and empties the WAL.
        let (status, doc) = post(&s, "/snapshot", "");
        assert_eq!(status, 200, "{doc}");
        assert_eq!(doc.get("snapshot_seq").and_then(Json::as_usize), Some(1));
        let (_, stats) = get(&s, "/stats");
        let storage = stats.get("storage").unwrap();
        assert_eq!(
            storage.get("snapshot_seq").and_then(Json::as_usize),
            Some(1)
        );
        assert_eq!(storage.get("wal_records").and_then(Json::as_usize), Some(0));

        // Unknown removes stay named 404s through the durable path (and
        // are not logged: the WAL count is unchanged).
        let req = Request::new("DELETE", "/sets", br#"{"ids": [999]}"#.to_vec());
        assert_eq!(s.handle(&req).status, 404);
        let (_, stats) = get(&s, "/stats");
        let storage = stats.get("storage").unwrap();
        assert_eq!(storage.get("wal_records").and_then(Json::as_usize), Some(0));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
