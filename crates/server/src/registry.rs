//! The dataset registry: every resident dataset version, the order in
//! which loads of one name commit, and the memory admission governor. A
//! version holds one prepared window pass and one label-pair index, both
//! built on first use over the version's whole db.
//!
//! # Lock discipline
//!
//! One mutex guards the name → dataset map and the per-name load counters.
//! Every method takes it once and never calls back into the registry while
//! holding it, so no registry call can wait on itself. Inside it only the
//! datasets' own prepared-pass locks are taken (resident sums, eviction),
//! and those are leaves. The scheduler takes it, briefly, under its own
//! lock when it hands out an admission ticket (see [`Registry::ticket`]);
//! nothing takes the scheduler lock while holding this one.
//!
//! # Load ordering
//!
//! A request naming dataset X sees every `load` of X admitted before it.
//! At admission the request takes a *ticket*: the number of loads of X
//! admitted so far (a load counts itself after taking its ticket). Before
//! it resolves X it waits until that many loads of X have committed. Loads
//! of one name therefore commit in admission order, and an append always
//! extends the version just before it. The wait cannot deadlock: the
//! queue is FIFO and tickets are taken in queue order, so the load waited
//! on was dequeued earlier and is already running; [`LoadTurn`] commits it
//! when dropped, on every ending (ok, error or panic).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use graphsig_core::{GraphSig, GraphSigConfig, GraphSigResult, Outcome, Prepared};
use graphsig_graph::{GraphDb, LabelPairIndex};

use crate::protocol::{Response, Status};

/// Provenance of a dataset loaded from a packed store (`format=packed`).
/// Appends *merge* rather than replace this (see [`LoadTurn::install`]),
/// so a degraded store's quarantine disclosure survives later ingests.
#[derive(Clone)]
pub(crate) struct StoreInfo {
    /// Shards listed by the manifest(s) this dataset was assembled from.
    manifest_shards: usize,
    /// Shards quarantined by the lenient open (degraded when > 0).
    quarantined: usize,
    /// Bytes on disk across manifest and surviving shards.
    disk_bytes: u64,
    /// The (latest) store's ingest counter.
    store_version: u64,
}

impl StoreInfo {
    pub(crate) fn of(opened: &graphsig_store::OpenedStore) -> Self {
        StoreInfo {
            manifest_shards: opened.manifest.shards.len(),
            quarantined: opened.report.quarantined.len(),
            disk_bytes: opened.disk_bytes(),
            store_version: opened.manifest.store_version,
        }
    }
}

/// How a `mine` used its dataset version's prepared window pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cached {
    /// Mined against the pass an earlier mine prepared.
    Hit,
    /// Prepared the pass, then mined against it.
    Miss,
}

impl std::fmt::Display for Cached {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Cached::Hit => "hit",
            Cached::Miss => "miss",
        })
    }
}

/// One resident dataset version: the graphs plus every cache keyed to
/// exactly this data. Replaced on `load`, `append=true` included: every
/// version builds its own caches.
pub(crate) struct Dataset {
    pub(crate) name: String,
    pub(crate) version: u64,
    pub(crate) db: Arc<GraphDb>,
    /// `db.approx_resident_bytes()`, computed once at load so admission
    /// checks never re-walk the graphs.
    pub(crate) db_bytes: u64,
    /// The version's one prepared window pass, built unbudgeted by the
    /// first mine. Eviction swaps in an empty cell; a mine holding the old
    /// one finishes on it.
    prepared: Mutex<Arc<OnceLock<Arc<Prepared>>>>,
    prepared_hits: AtomicU64,
    prepared_misses: AtomicU64,
    /// The version's one label-pair index, built on first use.
    index: OnceLock<Arc<LabelPairIndex>>,
    /// Set when the dataset came (in part) from a packed store.
    store: Option<StoreInfo>,
}

impl Dataset {
    /// The shared label-pair index, built over the whole db on first use.
    /// Concurrent first `freq`s build it once: the first builder runs
    /// alone, and the others block on the `OnceLock` and share its build.
    pub(crate) fn index(&self) -> Arc<LabelPairIndex> {
        self.index
            .get_or_init(|| Arc::new(LabelPairIndex::build(&self.db)))
            .clone()
    }

    /// Governed mining of this version against its one prepared pass, plus
    /// how the pass was used. A step budget never meters the window pass,
    /// so the outcome equals `GraphSig::new(cfg).mine_outcome(&self.db)`
    /// for every step budget. The pass is prepared unbudgeted, so no
    /// request's deadline or cancel can leave a cut-short pass in the cell.
    /// Concurrent first mines prepare once; the others block on the cell
    /// and count as hits.
    pub(crate) fn mine(&self, cfg: &GraphSigConfig) -> (Outcome<GraphSigResult>, Cached) {
        let cell = Arc::clone(&lock(&self.prepared));
        let mut missed = false;
        let prepared = cell.get_or_init(|| {
            missed = true;
            let unbudgeted = GraphSigConfig {
                budget: None,
                ..cfg.clone()
            };
            Arc::new(GraphSig::new(unbudgeted).prepare(&self.db))
        });
        let cached = if missed {
            self.prepared_misses.fetch_add(1, Ordering::Relaxed);
            Cached::Miss
        } else {
            self.prepared_hits.fetch_add(1, Ordering::Relaxed);
            Cached::Hit
        };
        let outcome = GraphSig::new(cfg.clone()).mine_prepared_outcome(&self.db, prepared);
        (outcome, cached)
    }

    /// Bytes of the prepared pass, 0 while none is held.
    fn prepared_bytes(&self) -> u64 {
        lock(&self.prepared)
            .get()
            .map_or(0, |p| p.approx_resident_bytes())
    }

    /// Drop the prepared pass and return its bytes, or `None` when no pass
    /// is held (never prepared, or still being prepared).
    fn evict_prepared(&self) -> Option<u64> {
        let mut slot = lock(&self.prepared);
        let bytes = slot.get()?.approx_resident_bytes();
        *slot = Arc::default();
        Some(bytes)
    }

    /// Approximate resident bytes this dataset version pins: the graphs,
    /// the prepared pass once built, and the index (with its lazily
    /// compiled bitset database) once built. Estimates, not an allocator
    /// audit — the governor's admission decisions only need relative
    /// magnitudes.
    fn resident_bytes(&self) -> u64 {
        let index = self.index.get().map_or(0, |i| i.approx_resident_bytes());
        self.db_bytes + self.prepared_bytes() + index
    }

    /// `quarantined/total` when the backing store lost shards, else None.
    fn degraded(&self) -> Option<String> {
        match &self.store {
            Some(info) if info.quarantined > 0 => {
                Some(format!("{}/{}", info.quarantined, info.manifest_shards))
            }
            _ => None,
        }
    }

    /// An ok response naming this dataset version, with the `degraded=K/N`
    /// flag when its store lost shards — every answer over partial data
    /// says so explicitly.
    pub(crate) fn ok_response(&self, id: &str, op: &str) -> Response {
        let resp = Response::new(id, op, Status::Ok)
            .with_field("dataset", &self.name)
            .with_field("version", self.version);
        match self.degraded() {
            Some(flag) => resp.with_field("degraded", flag),
            None => resp,
        }
    }

    /// Append the store provenance fields (packed datasets only) and the
    /// `degraded` flag to a `load` or `stats` response.
    pub(crate) fn with_store_fields(&self, mut resp: Response) -> Response {
        if let Some(info) = &self.store {
            resp = resp
                .with_field("shards", info.manifest_shards - info.quarantined)
                .with_field("quarantined", info.quarantined)
                .with_field("disk_bytes", info.disk_bytes)
                .with_field("store_version", info.store_version);
        }
        match self.degraded() {
            Some(flag) => resp.with_field("degraded", flag),
            None => resp,
        }
    }

    /// The `stats dataset=` response.
    pub(crate) fn stats_response(&self, id: &str) -> Response {
        let s = self.db.stats();
        // Both take the prepared-pass lock: read them here, not inside the
        // builder chain, where a guard temporary would outlive its field.
        let entries = usize::from(lock(&self.prepared).get().is_some());
        let resident = self.resident_bytes();
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let resp = Response::new(id, "stats", Status::Ok)
            .with_field("dataset", &self.name)
            .with_field("version", self.version)
            .with_field("graphs", s.graph_count)
            .with_field("nodes", s.total_nodes)
            .with_field("edges", s.total_edges)
            .with_field("prepared_hits", count(&self.prepared_hits))
            .with_field("prepared_misses", count(&self.prepared_misses))
            .with_field("prepared_entries", entries)
            .with_field("resident_bytes", resident);
        let resp = self.with_store_fields(resp);
        // The shared index is only reported once built — its presence is
        // itself the observability signal that `freq` requests are reusing
        // one build.
        match self.index.get() {
            Some(index) => resp
                .with_field("index_types", index.len())
                .with_field("index_occurrences", index.total_occurrences()),
            None => resp,
        }
    }
}

/// A `load` the governor refused: its graphs do not fit under the
/// resident ceiling even after evicting every other dataset's prepared
/// pass.
pub(crate) struct Exhausted {
    pub(crate) requested: u64,
    pub(crate) resident: u64,
    pub(crate) max: u64,
}

#[derive(Default)]
struct State {
    datasets: HashMap<String, Arc<Dataset>>,
    /// Per name: (loads admitted, loads committed).
    loads: HashMap<String, (u64, u64)>,
}

/// The name → dataset map with load ordering and memory admission.
pub(crate) struct Registry {
    state: Mutex<State>,
    /// Signalled whenever a load commits.
    committed: Condvar,
    /// Memory admission ceiling (`ServerConfig::max_resident_bytes`).
    max_resident_bytes: Option<u64>,
    /// Prepared passes evicted by the memory governor.
    pub(crate) evictions: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every update below is a single insert or increment, so the data is
    // consistent even if a holder panicked.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The error every request naming a dataset that is not resident gets.
pub(crate) fn unknown_dataset(name: &str) -> String {
    format!("unknown dataset '{name}' (load it first)")
}

impl Registry {
    pub(crate) fn new(max_resident_bytes: Option<u64>) -> Self {
        Registry {
            state: Mutex::new(State::default()),
            committed: Condvar::new(),
            max_resident_bytes,
            evictions: AtomicU64::new(0),
        }
    }

    /// The admission ticket of a request naming `name`: the number of
    /// loads of `name` admitted before it. A load is counted as admitted
    /// once its own ticket is taken. The caller must take tickets in queue
    /// order (see the module docs).
    pub(crate) fn ticket(&self, name: &str, load: bool) -> u64 {
        let mut st = lock(&self.state);
        if !load {
            return st.loads.get(name).map_or(0, |&(admitted, _)| admitted);
        }
        let (admitted, _) = st.loads.entry(name.to_string()).or_default();
        *admitted += 1;
        *admitted - 1
    }

    /// Wait until `ticket` loads of `name` have committed.
    fn wait_for(&self, name: &str, ticket: u64) -> MutexGuard<'_, State> {
        let mut st = lock(&self.state);
        while st.loads.get(name).map_or(0, |&(_, committed)| committed) < ticket {
            st = self.committed.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st
    }

    /// The version of `name` a request holding `ticket` sees: the current
    /// one, once every load admitted before the request has committed.
    pub(crate) fn get(&self, name: &str, ticket: u64) -> Result<Arc<Dataset>, String> {
        self.wait_for(name, ticket)
            .datasets
            .get(name)
            .cloned()
            .ok_or_else(|| unknown_dataset(name))
    }

    /// Start the load of `name` holding `ticket`, once every earlier load
    /// of `name` has committed. The turn commits when it is dropped.
    pub(crate) fn load_turn(&self, name: &str, ticket: u64) -> LoadTurn<'_> {
        let current = self.wait_for(name, ticket).datasets.get(name).cloned();
        LoadTurn {
            registry: self,
            name: name.to_string(),
            current,
        }
    }

    /// `(datasets, approximate resident bytes across all of them)`.
    pub(crate) fn totals(&self) -> (usize, u64) {
        let st = lock(&self.state);
        let resident = st.datasets.values().map(|d| d.resident_bytes()).sum();
        (st.datasets.len(), resident)
    }
}

/// A load's exclusive turn on its dataset name (see
/// [`Registry::load_turn`]). Dropping it commits the load — after
/// [`LoadTurn::install`], on an error, or while unwinding from a panic —
/// and wakes the requests waiting for it.
pub(crate) struct LoadTurn<'a> {
    registry: &'a Registry,
    name: String,
    /// The version this load replaces or appends to.
    pub(crate) current: Option<Arc<Dataset>>,
}

impl LoadTurn<'_> {
    /// Make the next version of this turn's dataset resident. `db` holds
    /// the graphs of `base` (the current version for an append, `None` for
    /// a fresh load) followed by the new batch; `store` is a packed batch's
    /// provenance.
    /// Admission is atomic: the ceiling check, the eviction of other
    /// datasets' prepared passes and the insert happen under one lock, so two
    /// concurrent loads can never both pass a ceiling only one of them
    /// fits. The version being replaced does not count against its
    /// successor. A refused load leaves the current version serving.
    pub(crate) fn install(
        &self,
        base: Option<&Dataset>,
        db: GraphDb,
        store: Option<StoreInfo>,
    ) -> Result<Arc<Dataset>, Exhausted> {
        // Store provenance survives appends: a text/generator append onto
        // a packed dataset keeps the prior quarantine disclosure, and a
        // packed append merges shard/quarantine counts — `degraded=` never
        // silently disappears while quarantined data is still being served.
        let store = match (base.and_then(|d| d.store.as_ref()), store) {
            (None, current) => current,
            (Some(prior), None) => Some(prior.clone()),
            (Some(prior), Some(current)) => Some(StoreInfo {
                manifest_shards: prior.manifest_shards + current.manifest_shards,
                quarantined: prior.quarantined + current.quarantined,
                disk_bytes: prior.disk_bytes + current.disk_bytes,
                store_version: current.store_version,
            }),
        };
        let db_bytes = db.approx_resident_bytes();
        let registry = self.registry;
        let mut st = lock(&registry.state);
        if let Some(max) = registry.max_resident_bytes {
            let mut resident: u64 = st
                .datasets
                .values()
                .filter(|d| d.name != self.name)
                .map(|d| d.resident_bytes())
                .sum();
            while resident + db_bytes > max {
                match evict_coldest_prepared(&st.datasets, &self.name) {
                    Some(freed) => {
                        registry.evictions.fetch_add(1, Ordering::Relaxed);
                        resident = resident.saturating_sub(freed);
                    }
                    None => break,
                }
            }
            if resident + db_bytes > max {
                return Err(Exhausted {
                    requested: db_bytes,
                    resident,
                    max,
                });
            }
        }
        // Versioned invalidation: the new Arc replaces the old entry;
        // requests already holding the old version finish against it, and
        // its caches are freed with the last reference.
        let dataset = Arc::new(Dataset {
            name: self.name.clone(),
            version: st.datasets.get(&self.name).map_or(1, |d| d.version + 1),
            db: Arc::new(db),
            db_bytes,
            prepared: Mutex::default(),
            prepared_hits: AtomicU64::new(0),
            prepared_misses: AtomicU64::new(0),
            index: OnceLock::new(),
            store,
        });
        st.datasets.insert(self.name.clone(), Arc::clone(&dataset));
        Ok(dataset)
    }
}

impl Drop for LoadTurn<'_> {
    fn drop(&mut self) {
        if let Some((_, committed)) = lock(&self.registry.state).loads.get_mut(&self.name) {
            *committed += 1;
        }
        self.registry.committed.notify_all();
    }
}

/// Evict one prepared pass under memory pressure: that of whichever
/// dataset (other than `except`) holds the most prepared bytes, name as
/// the deterministic tiebreak. Returns the bytes freed, or `None` when no
/// other dataset holds a pass.
fn evict_coldest_prepared(datasets: &HashMap<String, Arc<Dataset>>, except: &str) -> Option<u64> {
    let mut candidates: Vec<&Arc<Dataset>> =
        datasets.values().filter(|d| d.name != except).collect();
    candidates.sort_by(|a, b| {
        b.prepared_bytes()
            .cmp(&a.prepared_bytes())
            .then_with(|| a.name.cmp(&b.name))
    });
    candidates.into_iter().find_map(|d| d.evict_prepared())
}
