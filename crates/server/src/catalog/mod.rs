//! The multi-tenant catalog: a [`CatalogService`] resolves every
//! request to one of its named collections — each a [`SearchService`]
//! core with its own [`ShardedEngine`], durable store directory, quota
//! bounds and `collection`-labelled metric series on the shared
//! registry — and answers it through the **one front** all of them
//! share (the default collection's), so request ids, the request log,
//! slow-query capture, traces and the replication role cover scoped,
//! unscoped and management requests alike.
//!
//! ## Routes
//!
//! * `GET /collections` — list every collection;
//! * `PUT /collections/<name>` — create (optional JSON body:
//!   `{"shards": n, "quotas": {...}}`);
//! * `GET /collections/<name>` — one collection's spec + summary;
//! * `DELETE /collections/<name>` — drop (the `default` collection
//!   cannot be dropped);
//! * `/collections/<name>/<route>` — any collection route, scoped: the
//!   same call that serves `/<route>`, against collection `<name>`;
//! * everything else — the `default` collection: `/search` *is*
//!   `/collections/default/search`, byte for byte. On the default
//!   collection `GET /stats` and `GET /healthz` additionally end with a
//!   `collections` section summarising every collection.
//!
//! `POST /promote`, `GET /metrics` and `GET /debug/traces` are
//! per-process: they answer the same under any scope.
//!
//! ## Isolation
//!
//! Per-tenant quotas ride machinery that already exists per core:
//! `max_inflight_updates` bounds **that collection's own** in-flight
//! counter (503 + `Retry-After` beyond it), so one tenant saturating
//! its write path cannot make the admission check reject another
//! tenant's requests; `deadline_cap_ms` caps that collection's search
//! deadline (504 on exhaustion); `max_sets`/`max_bytes` answer a named
//! 403 at append time. The replication role is *not* per tenant: on a
//! `--replicate-from` server every collection is read-only until
//! `POST /promote`.
//!
//! ## Durability
//!
//! The catalog holds one registry: a map from every collection's name,
//! `default` included, to its quotas and its service (whose engine is
//! the one record of its shard count). With a data directory the
//! registry is durable: a versioned manifest (`catalog.manifest`,
//! CRC-sealed, atomic tempfile+rename updates; the `manifest`
//! submodule) lists every collection, and each non-default
//! collection's store lives under `collections/<name>/`. A create or a
//! drop writes the manifest the registry will hold **before** it
//! changes the map, so a failed save answers `500` and changes nothing.
//! The default collection's store stays at the directory root — the
//! exact legacy layout, so a pre-catalog data directory opens unchanged
//! and a catalog directory still opens under a pre-catalog binary
//! (which simply ignores the manifest and the subdirectory).
//! [`CatalogService::open`] recovers every collection after `kill -9`.

pub(crate) mod manifest;

pub use manifest::ManifestError;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use std::time::Duration;

use manifest::{
    validate_name, CollectionSpec, Quotas, DEFAULT_COLLECTION, MANIFEST_FILE, MAX_SHARDS,
};
use silkmoth_core::{CompactionPolicy, ConfigError, EngineConfig};
use silkmoth_storage::{StorageError, Store, StoreConfig};

use crate::durable::ShardSpec;
use crate::front::RequestInfo;
use crate::http::{split_target, Request, Response};
use crate::json::{obj, Json};
use crate::metrics::{canonical_route, ServiceMetrics};
use crate::service::{error_response, page, parse_body, Answer, Fields, SearchService};
use crate::shard::ShardedEngine;
use crate::telemetry::Gauge;

/// How the catalog builds collection services: the shared engine
/// configuration, where stores live, and the server-wide defaults a
/// collection's own quotas refine.
#[derive(Debug, Clone)]
pub struct CatalogConfig {
    /// `Some`: durable mode — the manifest and every collection store
    /// live here (`None`: everything is in-memory).
    pub data_dir: Option<PathBuf>,
    /// Engine configuration shared by every collection (metric,
    /// thresholds, tokenization — a snapshot doesn't store it, so one
    /// process serves one configuration).
    pub engine_cfg: EngineConfig,
    /// Store configuration (sync, compaction policy) for collection
    /// stores.
    pub store_cfg: StoreConfig,
    /// Compaction policy for in-memory collections, which take
    /// `store_cfg` with this policy in place of its own.
    pub ephemeral_policy: CompactionPolicy,
    /// Shard count for new collections that don't ask for their own.
    pub default_shards: usize,
    /// Upper bound on registered collections (including `default`) —
    /// also the declared cardinality bound for the `collection` metric
    /// label, published as `silkmoth_catalog_collections_max`.
    pub max_collections: usize,
    /// Server-wide in-flight update bound, applied to each collection
    /// (its own counter) unless the collection's quota overrides it.
    pub max_inflight_updates: Option<usize>,
    /// Server-wide search deadline; a collection's `deadline_cap_ms`
    /// quota can only tighten it.
    pub search_timeout: Option<Duration>,
}

/// Why the catalog failed to open or mutate durable state.
#[derive(Debug)]
pub enum CatalogError {
    /// The catalog manifest failed to load/save.
    Manifest(ManifestError),
    /// A collection store failed to open/create.
    Storage(StorageError),
    /// The engine configuration rejected a collection's state.
    Config(ConfigError),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Manifest(e) => write!(f, "catalog: {e}"),
            Self::Storage(e) => write!(f, "catalog storage: {e}"),
            Self::Config(e) => write!(f, "catalog config: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<ManifestError> for CatalogError {
    fn from(e: ManifestError) -> Self {
        Self::Manifest(e)
    }
}

impl From<StorageError> for CatalogError {
    fn from(e: StorageError) -> Self {
        Self::Storage(e)
    }
}

impl From<ConfigError> for CatalogError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

/// The multi-tenant collection registry behind one HTTP listener.
/// See the module docs for routing and isolation semantics.
#[derive(Debug)]
pub struct CatalogService {
    /// The collection unscoped routes serve, and the owner of the front
    /// every collection answers through. Built by the caller exactly
    /// like the single-tenant service (including replication wiring,
    /// which covers the default collection only).
    default: Arc<SearchService>,
    /// Every collection, `default` included, by name: the registry the
    /// manifest is written from.
    registry: RwLock<Registry>,
    config: CatalogConfig,
    /// `silkmoth_catalog_collections`: registered collections,
    /// including `default`.
    collections_gauge: Gauge,
}

/// One registered collection: the quotas it was created with and the
/// service that serves it.
#[derive(Debug)]
struct Registered {
    quotas: Quotas,
    service: Arc<SearchService>,
}

type Registry = BTreeMap<String, Registered>;

/// The manifest entries of `registry`, in name order, each with its
/// engine's live shard count.
fn specs(registry: &Registry) -> Vec<CollectionSpec> {
    registry
        .iter()
        .map(|(name, registered)| CollectionSpec {
            name: name.clone(),
            shards: registered.service.engine().shard_count() as u32,
            quotas: registered.quotas,
        })
        .collect()
}

/// The registry's entries, `default` first and the rest in name order.
fn default_first(registry: &Registry) -> impl Iterator<Item = (&String, &Registered)> {
    let default = registry.get_key_value(DEFAULT_COLLECTION);
    default.into_iter().chain(
        registry
            .iter()
            .filter(|(name, _)| *name != DEFAULT_COLLECTION),
    )
}

/// Where a non-default collection's store lives.
fn collection_dir(data_dir: &Path, name: &str) -> PathBuf {
    data_dir.join("collections").join(name)
}

/// An empty sharded engine (what a freshly created collection serves).
fn empty_engine(cfg: EngineConfig, shards: usize) -> Result<ShardedEngine, ConfigError> {
    ShardedEngine::build(&Vec::<Vec<String>>::new(), cfg, shards)
}

/// Builds the core of the registered collection `spec` as a tenant of
/// `default`'s catalog: the shared front, its labelled metric bundle,
/// and its quotas over the server-wide defaults. With a data directory
/// the core is durable under `collections/<name>/`: a new store — or,
/// to `recover`, the existing one (a registration whose store a crash
/// never got to create is honoured with an empty store).
fn build_tenant(
    config: &CatalogConfig,
    default: &SearchService,
    spec: &CollectionSpec,
    recover: bool,
) -> Result<Arc<SearchService>, CatalogError> {
    let shards = spec.shards as usize;
    let engine = || empty_engine(config.engine_cfg, shards);
    let service = match &config.data_dir {
        None => SearchService::durable(Store::in_memory(
            engine()?,
            StoreConfig {
                policy: config.ephemeral_policy,
                ..config.store_cfg
            },
        )),
        Some(data_dir) => {
            let dir = collection_dir(data_dir, &spec.name);
            let shard_spec = ShardSpec {
                cfg: config.engine_cfg,
                shards,
            };
            let opened = recover.then(|| Store::open(&dir, &shard_spec, config.store_cfg));
            SearchService::durable(match opened {
                Some(Ok((store, _report))) => store,
                None | Some(Err(StorageError::NotInitialized { .. })) => {
                    Store::create(&dir, engine()?, config.store_cfg)?
                }
                Some(Err(e)) => return Err(e.into()),
            })
        }
    };
    let metrics = ServiceMetrics::for_collection(default.metrics().registry(), &spec.name);
    let mut service = service.into_tenant_of(default, metrics);
    let quotas = &spec.quotas;
    service.max_sets = quotas.max_sets.map(|n| n as usize);
    service.max_bytes = quotas.max_bytes;
    let inflight = quotas
        .max_inflight_updates
        .map(|n| n as usize)
        .or(config.max_inflight_updates);
    if let Some(n) = inflight {
        service = service.with_max_inflight_updates(n);
    }
    let cap = quotas.deadline_cap_ms.map(Duration::from_millis);
    let timeout = match (cap, config.search_timeout) {
        (Some(cap), Some(server)) => Some(server.min(cap)),
        (cap, server) => cap.or(server),
    };
    if let Some(t) = timeout {
        service = service.with_search_timeout(t);
    }
    Ok(Arc::new(service))
}

impl CatalogService {
    /// Wraps an already-built default service and recovers every
    /// manifest-registered collection. A data directory without a
    /// manifest (legacy single-collection layout, or brand new) gets a
    /// default-only manifest written; an unknown manifest version is a
    /// hard error (never guess at another format's layout).
    pub fn open(default: Arc<SearchService>, config: CatalogConfig) -> Result<Self, CatalogError> {
        let metrics = default.metrics().registry();
        let collections_gauge = metrics.gauge(
            "silkmoth_catalog_collections",
            "Collections currently registered in the catalog (including default)",
            &[],
        );
        metrics
            .gauge(
                "silkmoth_catalog_collections_max",
                "Upper bound on catalog collections — the declared cardinality bound \
                 for the 'collection' metric label",
                &[],
            )
            .set(config.max_collections as i64);
        let manifest_path = config.data_dir.as_ref().map(|d| d.join(MANIFEST_FILE));
        let stored = match &manifest_path {
            Some(path) => manifest::load(path)?,
            None => None,
        };
        let mut registry = Registry::new();
        let default_entry = Registered {
            quotas: Quotas::default(),
            service: Arc::clone(&default),
        };
        registry.insert(DEFAULT_COLLECTION.to_owned(), default_entry);
        for spec in stored.iter().flatten() {
            let service = if spec.name == DEFAULT_COLLECTION {
                Arc::clone(&default)
            } else {
                build_tenant(&config, &default, spec, true)?
            };
            let quotas = spec.quotas;
            registry.insert(spec.name.clone(), Registered { quotas, service });
        }
        if let (None, Some(path)) = (&stored, &manifest_path) {
            manifest::save(path, &specs(&registry))?;
        }
        collections_gauge.set(registry.len() as i64);
        Ok(Self {
            default,
            registry: RwLock::new(registry),
            config,
            collections_gauge,
        })
    }

    /// The `default` collection's service (what unscoped routes hit).
    pub fn default_service(&self) -> &Arc<SearchService> {
        &self.default
    }

    /// The service for `name`, if that collection exists.
    pub fn collection(&self, name: &str) -> Option<Arc<SearchService>> {
        self.registry().get(name).map(|r| Arc::clone(&r.service))
    }

    /// Every collection name, `default` first.
    pub fn collection_names(&self) -> Vec<String> {
        default_first(&self.registry())
            .map(|(name, _)| name.clone())
            .collect()
    }

    fn registry(&self) -> RwLockReadGuard<'_, Registry> {
        self.registry.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Routes one request. The path resolves to a collection — the
    /// `default` one unless it is scoped `/collections/<name>/<route>` —
    /// or to catalog management; either way the response goes out
    /// through the one shared front, observed under the resolved
    /// collection's metrics.
    pub fn handle(&self, req: &Request) -> Response {
        let (path, query) = split_target(&req.path);
        let default = &*self.default;
        let tenant;
        let label = canonical_route(path);
        let (service, route, label) = if label != "/collections" {
            (default, path, label)
        } else if let Some((found, route)) = self.scoped(path) {
            tenant = found;
            (&*tenant, route, canonical_route(route))
        } else {
            // Management (and scoped-lookup failures) share the one
            // "/collections" route label on the default's metrics.
            return default
                .front()
                .observe(default.metrics(), "/collections", |_| {
                    self.management(&req.method, path, &req.body)
                });
        };
        let observed = |info: &mut RequestInfo| {
            let top_level = std::ptr::eq(service, default);
            match (top_level, req.method.as_str(), route) {
                (true, "GET", "/stats") => Ok(page(self.with_collections(service.stats_fields()))),
                (true, "GET", "/healthz") => {
                    Ok(page(self.with_collections(service.healthz_fields())))
                }
                // Promotion is per-process: whatever the scope, it is
                // the replicated (default) store whose epoch bumps.
                (false, _, "/promote") => default.route(&req.method, route, query, &req.body, info),
                _ => service.route(&req.method, route, query, &req.body, info),
            }
        };
        default.front().observe(service.metrics(), label, observed)
    }

    /// The live collection a `/collections/<name>/<route>` path
    /// addresses, and the route within it.
    fn scoped<'p>(&self, path: &'p str) -> Option<(Arc<SearchService>, &'p str)> {
        let scoped = path.strip_prefix("/collections/")?;
        let slash = scoped.find('/')?;
        let name = &scoped[..slash];
        validate_name(name).ok()?;
        Some((self.collection(name)?, &scoped[slash..]))
    }

    fn management(&self, method: &str, path: &str, body: &[u8]) -> Answer {
        let not_allowed = || Err(error_response(405, "method not allowed for this route"));
        let Some(rest) = path.strip_prefix("/collections/") else {
            return match method {
                "GET" => Ok(self.list()),
                _ => not_allowed(),
            };
        };
        let (name, scoped) = match rest.split_once('/') {
            Some((name, _)) => (name, true),
            None => (rest, false),
        };
        validate_name(name)
            .map_err(|e| error_response(400, &format!("invalid collection name: {e}")))?;
        if scoped {
            // A valid name with a scoped tail only lands here when the
            // collection doesn't exist (`scoped` found the live ones).
            return Err(no_such_collection(name));
        }
        match method {
            "PUT" => self.create(name, body),
            "GET" => self.info(name),
            "DELETE" => self.drop_collection(name),
            _ => not_allowed(),
        }
    }

    fn list(&self) -> Response {
        let registry = self.registry();
        let collections: Vec<Json> = registry
            .iter()
            .map(|(name, registered)| {
                let engine = registered.service.engine();
                obj(vec![
                    ("name", Json::Str(name.clone())),
                    ("shards", Json::Num(engine.shard_count() as f64)),
                    ("sets", Json::Num(engine.len() as f64)),
                    ("quotas", quotas_json(&registered.quotas)),
                ])
            })
            .collect();
        page(vec![("collections", Json::Arr(collections))])
    }

    fn info(&self, name: &str) -> Answer {
        let registry = self.registry();
        let registered = registry.get(name).ok_or_else(|| no_such_collection(name))?;
        let mut fields = vec![("name", Json::Str(name.to_owned()))];
        fields.extend(registered.service.summary_fields());
        fields.push(("quotas", quotas_json(&registered.quotas)));
        Ok(page(fields))
    }

    /// Writes `specs` as the manifest (a no-op in memory).
    fn save(&self, specs: &[CollectionSpec]) -> Result<(), Response> {
        let Some(data_dir) = &self.config.data_dir else {
            return Ok(());
        };
        manifest::save(&data_dir.join(MANIFEST_FILE), specs)
            .map_err(|e| error_response(500, &format!("saving catalog manifest: {e}")))
    }

    /// Removes the store directory of `name`, a name the manifest does
    /// not hold (a no-op in memory, or when there is none).
    fn purge_unregistered(&self, name: &str) -> std::io::Result<()> {
        let Some(data_dir) = &self.config.data_dir else {
            return Ok(());
        };
        match std::fs::remove_dir_all(collection_dir(data_dir, name)) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            purged => purged,
        }
    }

    fn create(&self, name: &str, body: &[u8]) -> Answer {
        self.default.front().check_writable()?;
        let (shards, quotas) = parse_create_body(body, self.config.default_shards)?;
        if shards > MAX_SHARDS {
            return Err(error_response(
                400,
                &format!("'shards' is {shards}; a collection has at most {MAX_SHARDS}"),
            ));
        }
        // The registry write lock serializes every create/drop, so the
        // map, the manifest, and the gauge stay consistent.
        let mut registry = self
            .registry
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if registry.contains_key(name) {
            return Err(error_response(
                409,
                &format!("collection '{name}' already exists"),
            ));
        }
        if registry.len() >= self.config.max_collections {
            return Err(error_response(
                403,
                &format!(
                    "collection limit reached ({} of --max-collections {})",
                    registry.len(),
                    self.config.max_collections
                ),
            ));
        }
        let spec = CollectionSpec {
            name: name.to_owned(),
            shards: shards as u32,
            quotas,
        };
        // Store first, manifest second: a crash in between leaves an
        // orphan directory, never a registered collection without its
        // store. The manifest is the only registration, so a directory
        // for a name it does not hold is such an orphan, and nothing
        // refers to it: purge it rather than refuse the name for good.
        self.purge_unregistered(name)
            .map_err(|e| error_response(500, &format!("purging an unregistered store: {e}")))?;
        let service =
            build_tenant(&self.config, &self.default, &spec, false).map_err(|e| match e {
                CatalogError::Config(e) => error_response(400, &format!("engine config: {e}")),
                CatalogError::Storage(e) => error_response(500, &format!("storage: {e}")),
                e => error_response(500, &e.to_string()),
            })?;
        let mut next = specs(&registry);
        let at = next.partition_point(|s| s.name.as_str() < name);
        next.insert(at, spec);
        if let Err(failed) = self.save(&next) {
            // The store the manifest never got to name goes with the
            // failed create (a failure here is purged by the next one).
            drop(service);
            let _ = self.purge_unregistered(name);
            return Err(failed);
        }
        registry.insert(name.to_owned(), Registered { quotas, service });
        self.collections_gauge.set(registry.len() as i64);
        Ok(page(vec![
            ("created", Json::Str(name.to_owned())),
            ("shards", Json::Num(shards as f64)),
        ]))
    }

    fn drop_collection(&self, name: &str) -> Answer {
        self.default.front().check_writable()?;
        if name == DEFAULT_COLLECTION {
            return Err(error_response(
                409,
                "the default collection cannot be dropped",
            ));
        }
        let mut registry = self
            .registry
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if !registry.contains_key(name) {
            return Err(no_such_collection(name));
        }
        let mut next = specs(&registry);
        next.retain(|s| s.name != name);
        self.save(&next)?;
        registry.remove(name);
        self.collections_gauge.set(registry.len() as i64);
        // Unregistered first, purged second: if the purge fails the
        // orphan directory is inert (the manifest no longer points at
        // it, and a same-name create would fail loudly on the existing
        // store rather than resurrect old data — so report it).
        let mut fields = vec![("dropped", Json::Str(name.to_owned()))];
        if let Some(data_dir) = &self.config.data_dir {
            if let Err(e) = std::fs::remove_dir_all(collection_dir(data_dir, name)) {
                fields.push(("purge_error", Json::Str(e.to_string())));
            }
        }
        Ok(page(fields))
    }

    /// Ends a top-level `/stats` or `/healthz` page with the
    /// per-collection `collections` section.
    fn with_collections(&self, mut fields: Fields) -> Fields {
        let sections = default_first(&self.registry())
            .map(|(name, r)| (name.clone(), obj(r.service.summary_fields())))
            .collect();
        fields.push(("collections", Json::Obj(sections)));
        fields
    }
}

fn no_such_collection(name: &str) -> Response {
    error_response(404, &format!("no such collection '{name}'"))
}

/// Parses the optional `PUT /collections/<name>` body:
/// `{"shards": n, "quotas": {"max_inflight_updates"|"max_sets"|
/// "max_bytes"|"deadline_cap_ms": n, ...}}`. An empty body means
/// server defaults.
fn parse_create_body(body: &[u8], default_shards: usize) -> Result<(usize, Quotas), Response> {
    if body.is_empty() {
        return Ok((default_shards, Quotas::default()));
    }
    let doc = parse_body(body)?;
    let shards = match doc.get("shards") {
        None => default_shards,
        Some(v) => match v.as_usize() {
            Some(n) if n >= 1 => n,
            _ => return Err(error_response(400, "'shards' must be a positive integer")),
        },
    };
    let mut quotas = Quotas::default();
    if let Some(q) = doc.get("quotas") {
        let Json::Obj(pairs) = q else {
            return Err(error_response(400, "'quotas' must be an object"));
        };
        for (key, value) in pairs {
            let Some(n) = value.as_usize() else {
                return Err(error_response(
                    400,
                    &format!("quota '{key}' must be a non-negative integer"),
                ));
            };
            let n = n as u64;
            match key.as_str() {
                "max_inflight_updates" => quotas.max_inflight_updates = Some(n),
                "max_sets" => quotas.max_sets = Some(n),
                "max_bytes" => quotas.max_bytes = Some(n),
                "deadline_cap_ms" => quotas.deadline_cap_ms = Some(n),
                other => {
                    return Err(error_response(
                        400,
                        &format!(
                            "unknown quota '{other}' (max_inflight_updates, max_sets, \
                             max_bytes, deadline_cap_ms)"
                        ),
                    ))
                }
            }
        }
    }
    Ok((shards, quotas))
}

/// A [`Quotas`] as a JSON object (only the set bounds appear).
fn quotas_json(quotas: &Quotas) -> Json {
    let mut fields = Vec::new();
    let mut push = |name: &str, v: Option<u64>| {
        if let Some(n) = v {
            fields.push((name.to_owned(), Json::Num(n as f64)));
        }
    };
    push("max_inflight_updates", quotas.max_inflight_updates);
    push("max_sets", quotas.max_sets);
    push("max_bytes", quotas.max_bytes);
    push("deadline_cap_ms", quotas.deadline_cap_ms);
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::testutil::header;
    use silkmoth_core::RelatednessMetric;
    use silkmoth_text::SimilarityFunction;
    use std::sync::{mpsc, Mutex};

    fn engine_cfg() -> EngineConfig {
        EngineConfig::full(
            RelatednessMetric::Similarity,
            SimilarityFunction::Jaccard,
            0.5,
            0.0,
        )
    }

    fn ephemeral_config() -> CatalogConfig {
        CatalogConfig {
            data_dir: None,
            engine_cfg: engine_cfg(),
            store_cfg: StoreConfig::default(),
            ephemeral_policy: CompactionPolicy::DISABLED,
            default_shards: 2,
            max_collections: 8,
            max_inflight_updates: None,
            search_timeout: None,
        }
    }

    fn corpus() -> Vec<Vec<String>> {
        (0..12)
            .map(|i| vec![format!("w{} shared{}", i % 5, i % 3)])
            .collect()
    }

    fn catalog_with(config: CatalogConfig) -> CatalogService {
        let default = Arc::new(SearchService::new(
            ShardedEngine::build(&corpus(), engine_cfg(), 2).unwrap(),
        ));
        CatalogService::open(default, config).unwrap()
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request::new(method, path, body.as_bytes().to_vec())
    }

    fn send(catalog: &CatalogService, method: &str, path: &str, body: &str) -> (u16, Json) {
        let resp = catalog.handle(&request(method, path, body));
        let text = String::from_utf8(resp.body).unwrap();
        (resp.status, Json::parse(&text).unwrap())
    }

    #[test]
    fn create_scope_list_and_drop_roundtrip() {
        let catalog = catalog_with(ephemeral_config());
        let (status, body) = send(&catalog, "PUT", "/collections/tenant-a", "{\"shards\": 3}");
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.get("created").and_then(Json::as_str), Some("tenant-a"));

        // Scoped append + search hit only the new collection.
        let (status, body) = send(
            &catalog,
            "POST",
            "/collections/tenant-a/sets",
            r#"{"sets": [["alpha beta"], ["alpha gamma"]]}"#,
        );
        assert_eq!(status, 200, "{body}");
        let (status, body) = send(
            &catalog,
            "POST",
            "/collections/tenant-a/search",
            r#"{"reference": ["alpha beta"]}"#,
        );
        assert_eq!(status, 200, "{body}");
        assert!(
            !body
                .get("results")
                .and_then(Json::as_array)
                .unwrap()
                .is_empty(),
            "{body}"
        );
        // The default collection (12 seed sets) is untouched.
        assert_eq!(catalog.default_service().engine().len(), 12);
        assert_eq!(catalog.collection("tenant-a").unwrap().engine().len(), 2);

        let (status, body) = send(&catalog, "GET", "/collections", "");
        assert_eq!(status, 200);
        let listed: Vec<&str> = body
            .get("collections")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|c| c.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(listed, ["default", "tenant-a"]);

        let (status, body) = send(&catalog, "GET", "/collections/tenant-a", "");
        assert_eq!(status, 200);
        assert_eq!(body.get("sets").and_then(Json::as_usize), Some(2));
        assert_eq!(body.get("shards").and_then(Json::as_usize), Some(3));

        let (status, _) = send(&catalog, "DELETE", "/collections/tenant-a", "");
        assert_eq!(status, 200);
        assert!(catalog.collection("tenant-a").is_none());
        let (status, _) = send(&catalog, "DELETE", "/collections/tenant-a", "");
        assert_eq!(status, 404);
    }

    #[test]
    fn name_validation_rejects_traversal_empty_and_overlong() {
        let catalog = catalog_with(ephemeral_config());
        // `../../etc`: the slashes make it parse as a scoped path whose
        // collection name is `..` — rejected by the same charset rule.
        let (status, body) = send(&catalog, "PUT", "/collections/../../etc", "");
        assert_eq!(status, 400, "{body}");
        assert!(
            body.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("'.'"),
            "{body}"
        );
        let (status, _) = send(&catalog, "PUT", "/collections/.", "");
        assert_eq!(status, 400);
        let long = format!("/collections/{}", "x".repeat(65));
        let (status, body) = send(&catalog, "PUT", &long, "");
        assert_eq!(status, 400);
        assert!(
            body.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("65"),
            "{body}"
        );
        let (status, _) = send(&catalog, "PUT", "/collections/UPPER", "");
        assert_eq!(status, 400);
        // Nothing leaked into the registry.
        assert_eq!(catalog.collection_names(), ["default"]);
    }

    #[test]
    fn management_guards_duplicates_default_and_limits() {
        let mut config = ephemeral_config();
        config.max_collections = 2; // default + one
        let catalog = catalog_with(config);
        let (status, _) = send(&catalog, "PUT", "/collections/default", "");
        assert_eq!(status, 409);
        let (status, _) = send(&catalog, "PUT", "/collections/only", "");
        assert_eq!(status, 200);
        let (status, _) = send(&catalog, "PUT", "/collections/only", "");
        assert_eq!(status, 409);
        let (status, body) = send(&catalog, "PUT", "/collections/more", "");
        assert_eq!(status, 403, "{body}");
        assert!(
            body.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("max-collections"),
            "{body}"
        );
        let (status, _) = send(&catalog, "DELETE", "/collections/default", "");
        assert_eq!(status, 409);
        let (status, _) = send(&catalog, "POST", "/collections/only", "");
        assert_eq!(status, 405);
        let (status, _) = send(&catalog, "POST", "/collections", "");
        assert_eq!(status, 405);
        let (status, _) = send(&catalog, "POST", "/collections/ghost/search", "{}");
        assert_eq!(status, 404);
        // Bad create bodies are named 400s.
        let (status, _) = send(&catalog, "DELETE", "/collections/only", "");
        assert_eq!(status, 200);
        let (status, _) = send(&catalog, "PUT", "/collections/only", "{\"shards\": 0}");
        assert_eq!(status, 400);
        let (status, body) = send(
            &catalog,
            "PUT",
            "/collections/only",
            "{\"quotas\": {\"max_speed\": 1}}",
        );
        assert_eq!(status, 400);
        assert!(
            body.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("max_speed"),
            "{body}"
        );
    }

    #[test]
    fn stats_and_healthz_carry_per_collection_sections() {
        let catalog = catalog_with(ephemeral_config());
        send(&catalog, "PUT", "/collections/aux", "");
        send(
            &catalog,
            "POST",
            "/collections/aux/sets",
            r#"{"sets": [["one two"]]}"#,
        );
        for path in ["/stats", "/healthz"] {
            let (status, body) = send(&catalog, "GET", path, "");
            assert_eq!(status, 200, "{path}");
            let sections = body.get("collections").unwrap();
            let aux = sections.get("aux").unwrap();
            assert_eq!(aux.get("sets").and_then(Json::as_usize), Some(1), "{body}");
            assert_eq!(
                aux.get("update_seq").and_then(Json::as_usize),
                Some(1),
                "{body}"
            );
            let default = sections.get("default").unwrap();
            assert_eq!(
                default.get("sets").and_then(Json::as_usize),
                Some(12),
                "{body}"
            );
            // The single-tenant fields are still present around the
            // new section.
            assert!(body
                .get(if path == "/stats" {
                    "requests"
                } else {
                    "status"
                })
                .is_some());
        }
    }

    #[test]
    fn set_and_byte_quotas_answer_named_403s() {
        let catalog = catalog_with(ephemeral_config());
        send(
            &catalog,
            "PUT",
            "/collections/small",
            r#"{"quotas": {"max_sets": 2, "max_bytes": 100}}"#,
        );
        let (status, _) = send(
            &catalog,
            "POST",
            "/collections/small/sets",
            r#"{"sets": [["tiny"], ["mini"]]}"#,
        );
        assert_eq!(status, 200);
        let (status, body) = send(
            &catalog,
            "POST",
            "/collections/small/sets",
            r#"{"sets": [["over"]]}"#,
        );
        assert_eq!(status, 403, "{body}");
        assert!(
            body.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("max_sets=2"),
            "{body}"
        );
        // Byte quota: a single oversized set trips max_bytes even
        // under the set bound.
        send(
            &catalog,
            "PUT",
            "/collections/wide",
            r#"{"quotas": {"max_bytes": 10}}"#,
        );
        let (status, body) = send(
            &catalog,
            "POST",
            "/collections/wide/sets",
            r#"{"sets": [["this element text is far past ten bytes"]]}"#,
        );
        assert_eq!(status, 403, "{body}");
        assert!(
            body.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("max_bytes=10"),
            "{body}"
        );
    }

    /// The acceptance criterion: a tenant saturating its own
    /// `max_inflight_updates` gets 503s while a concurrent tenant's
    /// search *and* update traffic keeps answering 200 — the bound is
    /// per-collection, so one tenant's pressure never rejects
    /// another's requests.
    #[test]
    fn quota_isolation_one_tenants_503_never_leaks() {
        let catalog = Arc::new(catalog_with(ephemeral_config()));
        send(
            &catalog,
            "PUT",
            "/collections/noisy",
            r#"{"quotas": {"max_inflight_updates": 1}}"#,
        );
        send(&catalog, "PUT", "/collections/quiet", "{}");
        send(
            &catalog,
            "POST",
            "/collections/quiet/sets",
            r#"{"sets": [["quiet seed"]]}"#,
        );

        // A slow reader on `noisy` blocks its writers: the admitted
        // append parks on the write lock holding the collection's only
        // in-flight slot, so the other contender must answer 503
        // immediately. Both contenders run on their own threads — the
        // guard-holding thread must never issue an append itself, or
        // the admitted one would deadlock against its own read guard.
        let noisy = catalog.collection("noisy").unwrap();
        let reader_guard = noisy.engine();
        let (tx, rx) = mpsc::channel();
        let contenders: Vec<_> = (0..2)
            .map(|i| {
                let catalog = Arc::clone(&catalog);
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let resp = catalog.handle(&request(
                        "POST",
                        "/collections/noisy/sets",
                        &format!("{{\"sets\": [[\"noisy {i}\"]]}}"),
                    ));
                    let retry_after = resp
                        .headers
                        .iter()
                        .any(|(k, v)| *k == "Retry-After" && v == "1");
                    tx.send((resp.status, retry_after))
                        .expect("collector alive");
                    resp.status
                })
            })
            .collect();
        // Exactly one contender fails fast while the reader still
        // holds the lock (the other is admitted and parked).
        let (status, retry_after) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("one append must fail fast while the slot is taken");
        assert_eq!(status, 503);
        assert!(retry_after, "the 503 must carry Retry-After: 1");

        // The quiet tenant is untouched: search and update both 200
        // while noisy is saturated.
        let (status, _) = send(
            &catalog,
            "POST",
            "/collections/quiet/search",
            r#"{"reference": ["quiet seed"]}"#,
        );
        assert_eq!(
            status, 200,
            "a quiet tenant's search must not see noisy's 503"
        );
        let (status, _) = send(
            &catalog,
            "POST",
            "/collections/quiet/sets",
            r#"{"sets": [["quiet more"]]}"#,
        );
        assert_eq!(
            status, 200,
            "a quiet tenant's update must not see noisy's 503"
        );
        // So is the default collection.
        let (status, _) = send(&catalog, "POST", "/sets", r#"{"sets": [["default more"]]}"#);
        assert_eq!(status, 200);

        assert!(
            rx.try_recv().is_err(),
            "noisy's admitted update must still be blocked by the reader"
        );
        drop(reader_guard);
        let mut statuses: Vec<u16> = contenders.into_iter().map(|h| h.join().unwrap()).collect();
        statuses.sort_unstable();
        assert_eq!(
            statuses,
            [200, 503],
            "the admitted append lands once unblocked"
        );
    }

    /// The role is held once, by the front: on a `--replicate-from`
    /// server every collection is read-only and says so, and one
    /// `POST /promote` — under any scope — opens all of them.
    #[test]
    fn a_follower_is_read_only_for_every_collection_until_promoted() {
        use crate::replication::{follower_store_config, start_follower, FollowerConfig};

        let dir =
            std::env::temp_dir().join(format!("silkmoth-catalog-svc-{}-role", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store_cfg = follower_store_config(StoreConfig {
            sync: false,
            policy: CompactionPolicy::DISABLED,
        });
        let engine = ShardedEngine::build(&corpus(), engine_cfg(), 2).unwrap();
        let default = Arc::new(SearchService::durable(
            Store::create(&dir, engine, store_cfg).unwrap(),
        ));
        let catalog = CatalogService::open(
            Arc::clone(&default),
            CatalogConfig {
                data_dir: Some(dir.clone()),
                store_cfg,
                ..ephemeral_config()
            },
        )
        .unwrap();
        let (status, _) = send(&catalog, "PUT", "/collections/tenant", "");
        assert_eq!(status, 200);

        // Tail a primary that refuses connections: the loop retries
        // forever, which is all the follower role needs here.
        let runtime = start_follower(
            Arc::clone(&default),
            "127.0.0.1:9".to_string(),
            ShardSpec {
                cfg: engine_cfg(),
                shards: 2,
            },
            store_cfg,
            FollowerConfig {
                backoff_min: Duration::from_millis(2),
                backoff_max: Duration::from_millis(20),
                ..FollowerConfig::default()
            },
        );

        let sets = r#"{"sets": [["nope"]]}"#;
        for (method, path, body) in [
            ("POST", "/collections/tenant/sets", sets),
            ("DELETE", "/collections/tenant/sets", r#"{"ids": [0]}"#),
            ("POST", "/collections/tenant/compact", ""),
            ("POST", "/sets", sets),
            ("PUT", "/collections/late", ""),
            ("DELETE", "/collections/tenant", ""),
        ] {
            let (status, body) = send(&catalog, method, path, body);
            assert_eq!(status, 409, "{method} {path}: {body}");
            let err = body.get("error").and_then(Json::as_str).unwrap();
            assert!(
                err.contains("read-only follower") && err.contains("127.0.0.1:9"),
                "{method} {path}: {err}"
            );
        }
        for path in ["/collections/tenant/healthz", "/healthz"] {
            let (_, body) = send(&catalog, "GET", path, "");
            assert_eq!(
                body.get("role").and_then(Json::as_str),
                Some("follower"),
                "{path}"
            );
        }
        // Reads stay open.
        let (status, _) = send(
            &catalog,
            "POST",
            "/collections/tenant/search",
            r#"{"reference": ["w0 shared0"]}"#,
        );
        assert_eq!(status, 200);

        // Promotion is per-process: asked under the tenant's scope, it
        // still bumps the replicated (default) store's epoch.
        let (status, body) = send(&catalog, "POST", "/collections/tenant/promote", "");
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.get("epoch").and_then(Json::as_usize), Some(1));
        runtime.handle.join().unwrap();
        let (_, stats) = send(&catalog, "GET", "/stats", "");
        assert_eq!(
            stats
                .get("storage")
                .and_then(|s| s.get("epoch"))
                .and_then(Json::as_usize),
            Some(1)
        );
        let (_, body) = send(&catalog, "GET", "/collections/tenant/healthz", "");
        assert_eq!(body.get("role").and_then(Json::as_str), Some("primary"));
        let (status, body) = send(&catalog, "POST", "/collections/tenant/sets", sets);
        assert_eq!(status, 200, "{body}");
        let (status, body) = send(&catalog, "POST", "/sets", sets);
        assert_eq!(status, 200, "{body}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What the server was started with covers every collection: a
    /// scoped search is logged, slow-captured and traced by the one
    /// front, and the ring is the same under any scope.
    #[test]
    fn a_scoped_search_is_logged_slow_captured_and_traced() {
        use crate::LogFormat;

        let lines = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = Arc::clone(&lines);
        let default = SearchService::new(ShardedEngine::build(&corpus(), engine_cfg(), 2).unwrap())
            .with_log_format(LogFormat::Json)
            .with_slow_query_ms(0) // everything is "slow"
            .with_trace_sample(1)
            .with_log_sink(move |line| sink.lock().unwrap().push(line.to_owned()));
        let catalog = CatalogService::open(Arc::new(default), ephemeral_config()).unwrap();
        send(&catalog, "PUT", "/collections/a", "");
        send(
            &catalog,
            "POST",
            "/collections/a/sets",
            r#"{"sets": [["alpha beta"]]}"#,
        );
        lines.lock().unwrap().clear();

        let resp = catalog.handle(&request(
            "POST",
            "/collections/a/search",
            r#"{"reference": ["alpha beta"], "k": 2}"#,
        ));
        assert_eq!(resp.status, 200);
        let id: usize = header(&resp, "X-Request-Id").unwrap().parse().unwrap();

        let logged: Vec<Json> = lines
            .lock()
            .unwrap()
            .iter()
            .map(|l| Json::parse(l).expect("log lines are JSON"))
            .collect();
        let events: Vec<&str> = logged
            .iter()
            .map(|l| l.get("event").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(events, ["request", "slow_query"], "{logged:?}");
        assert_eq!(logged[0].get("id").and_then(Json::as_usize), Some(id));
        assert_eq!(
            logged[0].get("route").and_then(Json::as_str),
            Some("/search")
        );
        assert_eq!(
            logged[1]
                .get("spec")
                .and_then(|s| s.get("k"))
                .and_then(Json::as_usize),
            Some(2)
        );

        // The trace sits in the one ring, tagged with its collection,
        // and both scopes serve that ring.
        let (_, top) = send(&catalog, "GET", &format!("/debug/traces?id={id}"), "");
        let (_, scoped) = send(
            &catalog,
            "GET",
            &format!("/collections/a/debug/traces?id={id}"),
            "",
        );
        assert_eq!(top.to_string(), scoped.to_string());
        let traces = top.get("traces").and_then(Json::as_array).unwrap();
        assert_eq!(traces.len(), 1, "{top}");
        assert_eq!(traces[0].get("slow"), Some(&Json::Bool(true)));
        let query = traces[0]
            .get("spans")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .find(|sp| sp.get("kind").and_then(Json::as_str) == Some("query"))
            .expect("a query span");
        assert_eq!(
            query
                .get("attrs")
                .and_then(|a| a.get("collection"))
                .and_then(Json::as_str),
            Some("a")
        );
    }

    #[test]
    fn request_ids_are_one_increasing_sequence_across_every_kind_of_request() {
        let catalog = catalog_with(ephemeral_config());
        let search = r#"{"reference": ["w0 shared0"]}"#;
        let mut last = 0u64;
        for (method, path, body, want) in [
            ("POST", "/search", search, 200),
            ("PUT", "/collections/a", "", 200),
            ("POST", "/collections/a/search", search, 200),
            ("PUT", "/collections/b", "", 200),
            ("GET", "/healthz", "", 200),
            ("POST", "/collections/b/sets", r#"{"sets": [["x"]]}"#, 200),
            ("PUT", "/collections/b", "", 409),
            ("PUT", "/collections/UPPER", "", 400),
            ("POST", "/collections/ghost/search", search, 404),
            ("POST", "/collections", "", 405),
            ("GET", "/collections", "", 200),
            ("POST", "/collections/default/search", search, 200),
            ("GET", "/collections/a/nope", "", 404),
        ] {
            let resp = catalog.handle(&request(method, path, body));
            assert_eq!(resp.status, want, "{method} {path}");
            let id: u64 = header(&resp, "X-Request-Id")
                .unwrap_or_else(|| panic!("{method} {path} carries no X-Request-Id"))
                .parse()
                .unwrap();
            assert!(id > last, "{method} {path}: id {id} after {last}");
            last = id;
        }
    }

    #[test]
    fn deadline_cap_takes_the_tighter_of_quota_and_server() {
        let mut config = ephemeral_config();
        config.search_timeout = Some(Duration::from_secs(5));
        let catalog = catalog_with(config);
        // A zero-millisecond cap expires every search instantly: the
        // scoped route answers the server's 504, proving the cap wins
        // over the 5-second server budget.
        send(
            &catalog,
            "PUT",
            "/collections/strict",
            r#"{"quotas": {"deadline_cap_ms": 0}}"#,
        );
        send(
            &catalog,
            "POST",
            "/collections/strict/sets",
            r#"{"sets": [["needle in here"]]}"#,
        );
        let (status, body) = send(
            &catalog,
            "POST",
            "/collections/strict/search",
            r#"{"reference": ["needle in here"]}"#,
        );
        assert_eq!(status, 504, "{body}");
    }

    #[test]
    fn durable_catalog_recovers_collections_and_data_after_drop() {
        let dir = std::env::temp_dir().join(format!(
            "silkmoth-catalog-svc-{}-recover",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = CatalogConfig {
            data_dir: Some(dir.clone()),
            store_cfg: StoreConfig {
                sync: false, // test speed; recovery path is identical
                policy: CompactionPolicy::DISABLED,
            },
            ..ephemeral_config()
        };
        // The default store is opened at `shards`, as the CLI opens it
        // at `--shards` whatever count it was saved with.
        let open = |cfg: &CatalogConfig, shards: usize| {
            let default = Arc::new(SearchService::durable(
                match Store::open(
                    &dir,
                    &ShardSpec {
                        cfg: engine_cfg(),
                        shards,
                    },
                    cfg.store_cfg,
                ) {
                    Ok((store, _)) => store,
                    Err(StorageError::NotInitialized { .. }) => Store::create(
                        &dir,
                        ShardedEngine::build(&corpus(), engine_cfg(), 2).unwrap(),
                        cfg.store_cfg,
                    )
                    .unwrap(),
                    Err(e) => panic!("{e}"),
                },
            ));
            CatalogService::open(default, cfg.clone()).unwrap()
        };

        {
            let catalog = open(&config, 2);
            send(&catalog, "PUT", "/collections/t1", "{\"shards\": 3}");
            send(&catalog, "PUT", "/collections/t2", "");
            send(
                &catalog,
                "POST",
                "/collections/t1/sets",
                r#"{"sets": [["t1 alpha"], ["t1 beta"]]}"#,
            );
            send(
                &catalog,
                "POST",
                "/collections/t2/sets",
                r#"{"sets": [["t2 gamma"]]}"#,
            );
            send(
                &catalog,
                "POST",
                "/sets",
                r#"{"sets": [["default delta"]]}"#,
            );
            // Simulated kill -9: drop without any clean shutdown.
        }
        {
            let catalog = open(&config, 2);
            assert_eq!(catalog.collection_names(), ["default", "t1", "t2"]);
            assert_eq!(catalog.collection("t1").unwrap().engine().len(), 2);
            assert_eq!(
                catalog.collection("t1").unwrap().engine().shard_count(),
                3,
                "the per-collection shard count survives restart"
            );
            assert_eq!(catalog.collection("t2").unwrap().engine().len(), 1);
            assert_eq!(catalog.default_service().engine().len(), 13);
            // Dropping t2 persists too.
            let (status, _) = send(&catalog, "DELETE", "/collections/t2", "");
            assert_eq!(status, 200);
            assert!(!collection_dir(&dir, "t2").exists());
        }
        {
            // Reopened at another shard count, the default reports the
            // count its engine runs with on every page.
            let catalog = open(&config, 3);
            assert_eq!(catalog.collection_names(), ["default", "t1"]);
            let (_, listing) = send(&catalog, "GET", "/collections", "");
            let shards: Vec<(&str, usize)> = listing
                .get("collections")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|c| {
                    let name = c.get("name").and_then(Json::as_str).unwrap();
                    (name, c.get("shards").and_then(Json::as_usize).unwrap())
                })
                .collect();
            assert_eq!(shards, [("default", 3), ("t1", 3)], "{listing}");
            let (_, info) = send(&catalog, "GET", "/collections/default", "");
            assert_eq!(info.get("shards").and_then(Json::as_usize), Some(3));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The names `GET /collections` lists, in its order.
    fn listed(catalog: &CatalogService) -> Vec<String> {
        let (status, body) = send(catalog, "GET", "/collections", "");
        assert_eq!(status, 200, "{body}");
        body.get("collections")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|c| c.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect()
    }

    /// A manifest that cannot be saved leaves the registry as it was:
    /// the create and the drop both answer 500, no collection appears,
    /// disappears or is counted differently, and a reopen lists what
    /// the last good save held.
    #[test]
    fn a_failed_manifest_save_changes_nothing() {
        let dir = std::env::temp_dir().join(format!(
            "silkmoth-catalog-svc-{}-failed-save",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = CatalogConfig {
            data_dir: Some(dir.clone()),
            store_cfg: StoreConfig {
                sync: false,
                policy: CompactionPolicy::DISABLED,
            },
            ..ephemeral_config()
        };
        let open = || {
            let engine = ShardedEngine::build(&corpus(), engine_cfg(), 2).unwrap();
            CatalogService::open(Arc::new(SearchService::new(engine)), config.clone()).unwrap()
        };
        let search = r#"{"reference": ["kept one"]}"#;

        let catalog = open();
        assert_eq!(send(&catalog, "PUT", "/collections/kept", "").0, 200);
        let sets = r#"{"sets": [["kept one"]]}"#;
        assert_eq!(
            send(&catalog, "POST", "/collections/kept/sets", sets).0,
            200
        );
        let gauge = || {
            let page = catalog.handle(&request("GET", "/metrics", ""));
            let text = String::from_utf8(page.body).unwrap();
            let line = text
                .lines()
                .find(|l| l.starts_with("silkmoth_catalog_collections "))
                .map(str::to_owned);
            line.expect("the collections gauge is exported")
        };
        let counted = gauge();
        // `save` writes a tempfile beside the manifest first: a
        // directory in its place makes every save fail.
        std::fs::create_dir(dir.join("catalog.manifest.tmp")).unwrap();

        let (status, body) = send(&catalog, "PUT", "/collections/lost", "");
        assert_eq!(status, 500, "{body}");
        assert_eq!(listed(&catalog), ["default", "kept"]);
        assert!(catalog.collection("lost").is_none());
        let (status, _) = send(&catalog, "POST", "/collections/lost/search", search);
        assert_eq!(status, 404);

        let (status, body) = send(&catalog, "DELETE", "/collections/kept", "");
        assert_eq!(status, 500, "{body}");
        assert_eq!(listed(&catalog), ["default", "kept"]);
        let (status, body) = send(&catalog, "POST", "/collections/kept/search", search);
        assert_eq!(status, 200, "{body}");
        let hits = body.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(hits.len(), 1, "{body}");
        assert_eq!(gauge(), counted);
        drop(catalog);

        let catalog = open();
        assert_eq!(listed(&catalog), ["default", "kept"]);
        assert_eq!(catalog.collection("kept").unwrap().engine().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A create whose manifest save fails leaves no store behind, and a
    /// store a crash left for an unregistered name does not block it:
    /// once saves work again, the same create succeeds and serves.
    #[test]
    fn a_failed_create_does_not_block_its_name() {
        let dir = std::env::temp_dir().join(format!(
            "silkmoth-catalog-svc-{}-failed-create",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = CatalogConfig {
            data_dir: Some(dir.clone()),
            store_cfg: StoreConfig {
                sync: false,
                policy: CompactionPolicy::DISABLED,
            },
            ..ephemeral_config()
        };
        let open = || {
            let engine = ShardedEngine::build(&corpus(), engine_cfg(), 2).unwrap();
            CatalogService::open(Arc::new(SearchService::new(engine)), config.clone()).unwrap()
        };
        let catalog = open();
        let blocker = dir.join("catalog.manifest.tmp");
        std::fs::create_dir(&blocker).unwrap();
        let (status, body) = send(&catalog, "PUT", "/collections/again", "");
        assert_eq!(status, 500, "{body}");
        assert!(
            !collection_dir(&dir, "again").exists(),
            "the failed create's store is gone"
        );
        std::fs::remove_dir(&blocker).unwrap();

        let (status, body) = send(&catalog, "PUT", "/collections/again", "");
        assert_eq!(status, 200, "{body}");
        let sets = r#"{"sets": [["again one"]]}"#;
        assert_eq!(
            send(&catalog, "POST", "/collections/again/sets", sets).0,
            200
        );
        let search = r#"{"reference": ["again one"]}"#;
        let (status, body) = send(&catalog, "POST", "/collections/again/search", search);
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            body.get("results").and_then(Json::as_array).map(<[_]>::len),
            Some(1)
        );

        // A store a crash left between the store's creation and the
        // save: unregistered, so the next create of the name purges it.
        drop(catalog);
        let orphan = "orphan";
        Store::create(
            collection_dir(&dir, orphan),
            empty_engine(engine_cfg(), 1).unwrap(),
            config.store_cfg,
        )
        .unwrap();
        let catalog = open();
        assert_eq!(listed(&catalog), ["again", "default"]);
        let (status, body) = send(&catalog, "PUT", &format!("/collections/{orphan}"), "");
        assert_eq!(status, 200, "{body}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The listing's order is the registry's name order, whatever the
    /// order of creation; a second create of a name is refused and
    /// leaves the first in place, and a dropped name leaves the list.
    #[test]
    fn the_listing_keeps_name_order_and_one_entry_per_name() {
        let catalog = catalog_with(ephemeral_config());
        for (name, shards) in [("b", 1), ("a", 2), ("c", 3)] {
            let body = format!("{{\"shards\": {shards}}}");
            let (status, _) = send(&catalog, "PUT", &format!("/collections/{name}"), &body);
            assert_eq!(status, 200);
        }
        assert_eq!(listed(&catalog), ["a", "b", "c", "default"]);
        assert_eq!(catalog.collection_names(), ["default", "a", "b", "c"]);
        let (status, _) = send(&catalog, "PUT", "/collections/b", "{\"shards\": 5}");
        assert_eq!(status, 409);
        assert_eq!(catalog.collection("b").unwrap().engine().shard_count(), 1);
        let (status, _) = send(&catalog, "DELETE", "/collections/b", "");
        assert_eq!(status, 200);
        assert_eq!(listed(&catalog), ["a", "c", "default"]);
    }

    /// A create may ask for at most `MAX_SHARDS` shards: one more is a
    /// named 400 and registers nothing.
    #[test]
    fn a_create_past_the_shard_bound_is_a_named_400() {
        let catalog = catalog_with(ephemeral_config());
        let body = format!("{{\"shards\": {}}}", MAX_SHARDS + 1);
        let (status, body) = send(&catalog, "PUT", "/collections/wide", &body);
        assert_eq!(status, 400, "{body}");
        let error = body.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains(&format!("at most {MAX_SHARDS}")), "{error}");
        assert_eq!(listed(&catalog), ["default"]);
    }

    #[test]
    fn scoped_routes_preserve_query_strings() {
        let catalog = catalog_with(ephemeral_config());
        send(&catalog, "PUT", "/collections/q", "");
        // /debug/traces?min_ms=abc must reach the inner service's
        // query-string validation, proving the query survives the
        // rewrite.
        let (status, body) = send(
            &catalog,
            "GET",
            "/collections/q/debug/traces?min_ms=abc",
            "",
        );
        assert_eq!(status, 400, "{body}");
        assert!(
            body.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("min_ms"),
            "{body}"
        );
    }
}
