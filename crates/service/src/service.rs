//! The analysis service: a worker pool over a bounded submission queue,
//! fronted by the sharded plan cache.
//!
//! Requests are `(Program, Topology, AnalysisConfig)` triples. Each is
//! fingerprinted ([`systolic_core::request_fingerprint`]); a cache hit
//! returns the shared `Arc`ed outcome immediately, a miss runs the staged
//! [`Analyzer`](systolic_core::Analyzer) pipeline and publishes the
//! outcome for every later identical request. With `verify` on, every
//! miss's certified plan is *chased* by a simulation replay on the thread
//! that computed it, through an [`ArenaLru`] borrowed from the service's
//! verifier pool and handed back after the replay; the pool's size
//! bounds concurrent replays and resident arenas.
//! Topology compilations are shared too: a second cache keyed by the
//! [`CompiledTopology`] fingerprint means the misses of a batch that all
//! name one topology compile it once and reuse the route closure.
//! Rejections carry the analyzer's structured
//! [`Diagnostic`](systolic_core::Diagnostic)s, so the wire layer can say
//! *why* a program is unsafe. Submission blocks when the bounded queue is
//! full — backpressure, not unbounded buffering, is the overload
//! response.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;
use systolic_core::{
    request_fingerprint, AnalysisConfig, AnalysisOutcome, Analyzer, CommPlan, CompiledTopology,
    CoreError, Diagnostic, EditError, EditOp, IncrementalConfig, IncrementalSession, Label,
    LabelingMethod, ReuseReport, RouteCacheStats,
};
use systolic_model::{CellId, MessageId, Op, Program, Topology};
use systolic_obs::{names, Counter, Gauge, Histogram, Obs, RegistrySnapshot, SpanCtx};
use systolic_sim::{ArenaLru, SimConfig, VerifyReport, VerifyTaskError};
use systolic_workloads::TrafficItem;

use crate::snapshot::{self, SnapshotError};
use crate::{BoundedQueue, CacheConfig, CacheStats, ShardedCache};

/// Default arena-LRU capacity ([`ServiceConfig::arena_cache_capacity`]) —
/// enough that a handful of interleaved topologies stop thrashing, small
/// enough that a fleet of workers stays cheap.
const DEFAULT_ARENA_CACHE_CAPACITY: usize = 4;

/// Shape of the shared topology-compilation cache: one
/// [`CompiledTopology`] per distinct `(topology, config)`.
const COMPILATION_CACHE: CacheConfig = CacheConfig {
    shards: 4,
    capacity_per_shard: 64,
};

/// Default bound on the incremental session table
/// ([`ServiceConfig::session_capacity`]) — one warm session per active
/// interactive client, without letting a fleet of editors pin unbounded
/// analyzer state.
const DEFAULT_SESSION_CAPACITY: usize = 64;

/// Configuration of an [`AnalysisService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads executing analyses. Clamped to ≥ 1.
    pub workers: usize,
    /// Shape of the sharded plan cache.
    pub cache: CacheConfig,
    /// Bounded submission-queue depth; producers block (backpressure)
    /// when this many requests are waiting.
    pub queue_depth: usize,
    /// Chase every *miss* with a simulator run of the certified plan.
    pub verify: bool,
    /// Size of the verifier pool: the [`ArenaLru`]s that chases borrow,
    /// one per replay in flight. `0` (the default) means one per analysis
    /// worker; `N ≥ 1` caps concurrent replays at `N` and resident arenas
    /// at `N ×` the arena count, independently of the analysis pool. A
    /// chase replays on the thread that computed the plan, waiting for a
    /// free LRU when all are lent out. Ignored unless `verify` is set.
    pub verify_threads: usize,
    /// Arenas each pooled [`ArenaLru`] keeps warm, evicting the least
    /// recently used one past this count. `0` means 1.
    pub arena_cache_capacity: usize,
    /// Simulator configuration for verification runs.
    pub sim: SimConfig,
    /// Bound on the incremental session table: warm
    /// [`IncrementalSession`]s kept resident for `edit` requests, keyed by
    /// their current request fingerprint. Least-recently-edited sessions
    /// are evicted past this bound (clamped to ≥ 1); an evicted base can
    /// still be edited while its plan-cache entry stays cached — the
    /// session re-seeds from the request inputs that entry keeps, at
    /// full-analysis cost.
    pub session_capacity: usize,
    /// Forwarded to [`IncrementalConfig::fallback_ratio`]: an edit batch
    /// dirtying more than this fraction of cells is reanalyzed from
    /// scratch instead of reusing warm stage artifacts.
    pub incremental_fallback_ratio: f64,
}

impl ServiceConfig {
    /// The arenas every pooled [`ArenaLru`] keeps:
    /// [`arena_cache_capacity`](ServiceConfig::arena_cache_capacity),
    /// at least 1.
    #[must_use]
    pub fn arena_budget(&self) -> usize {
        self.arena_cache_capacity.max(1)
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            cache: CacheConfig::default(),
            queue_depth: 64,
            verify: false,
            verify_threads: 0,
            arena_cache_capacity: DEFAULT_ARENA_CACHE_CAPACITY,
            sim: SimConfig::default(),
            session_capacity: DEFAULT_SESSION_CAPACITY,
            incremental_fallback_ratio: 0.5,
        }
    }
}

/// One analysis request.
#[derive(Clone, Debug)]
pub struct AnalysisRequest {
    /// Client-chosen identifier, echoed in the response.
    pub name: String,
    /// The program to analyze.
    pub program: Program,
    /// The topology it runs on.
    pub topology: Topology,
    /// Analysis configuration (lookahead, hardware queue count).
    pub config: AnalysisConfig,
}

impl AnalysisRequest {
    /// A request with the default [`AnalysisConfig`].
    #[must_use]
    pub fn new(name: impl Into<String>, program: Program, topology: Topology) -> Self {
        AnalysisRequest {
            name: name.into(),
            program,
            topology,
            config: AnalysisConfig::default(),
        }
    }

    /// Converts one item of workload [`traffic`](systolic_workloads::traffic)
    /// into a request (the item's queue count becomes the config's).
    #[must_use]
    pub fn from_traffic(item: &TrafficItem) -> Self {
        AnalysisRequest {
            name: item.name.clone(),
            program: item.program.clone(),
            topology: item.topology.clone(),
            config: AnalysisConfig {
                queues_per_interval: item.queues_per_interval,
                ..AnalysisConfig::default()
            },
        }
    }
}

/// A successful analysis, as cached and shared between identical requests.
#[derive(Clone, Debug)]
pub struct Certified {
    /// The certified communication plan.
    pub plan: Arc<CommPlan>,
    /// Which labeling scheme produced the labels.
    pub labeling_method: LabelingMethod,
    /// `(message name, label)` in declaration order.
    pub message_labels: Vec<(String, Label)>,
    /// Theorem 1 assumption (ii): the uniform queue count the plan needs.
    pub max_queues_per_interval: usize,
    /// The simulation chase, when the service ran one.
    pub verified: Option<VerifyReport>,
    /// Wall-clock cost of the original (cache-missing) computation.
    pub analysis_micros: u64,
    /// Non-fatal structured diagnostics the analyzer emitted (warnings
    /// such as a Section 6 fallback, advisories such as queue-extension
    /// candidates).
    pub diagnostics: Vec<Diagnostic>,
}

impl Certified {
    /// A certified outcome for `program`, deriving
    /// [`message_labels`](Certified::message_labels) and
    /// [`max_queues_per_interval`](Certified::max_queues_per_interval)
    /// from `plan` — the one derivation misses, edits and snapshot loads
    /// share.
    ///
    /// # Panics
    ///
    /// Panics if `plan` labels fewer messages than `program` declares.
    #[must_use]
    pub fn new(
        program: &Program,
        plan: Arc<CommPlan>,
        labeling_method: LabelingMethod,
        verified: Option<VerifyReport>,
        analysis_micros: u64,
        diagnostics: Vec<Diagnostic>,
    ) -> Self {
        let message_labels = program
            .message_ids()
            .map(|m| (program.message(m).name().to_owned(), plan.label(m)))
            .collect();
        Certified {
            max_queues_per_interval: plan.requirements().max_per_interval(),
            plan,
            labeling_method,
            message_labels,
            verified,
            analysis_micros,
            diagnostics,
        }
    }
}

/// Why the service could not certify a request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ServiceError {
    /// The analysis itself refused (deadlocked, infeasible, model error).
    Analysis(CoreError),
    /// The analysis panicked; the worker caught the panic so one bad
    /// request cannot take down the pool or the daemon.
    Panicked(String),
    /// The request's configuration does not cover its program
    /// ([`AnalysisConfig::check_covers`](systolic_core::AnalysisConfig::check_covers)):
    /// an explicit lookahead table of the wrong length. Refused before
    /// analysis and never cached.
    InvalidConfig(String),
}

impl ServiceError {
    /// The underlying analysis error, if this is one.
    #[must_use]
    pub fn as_analysis(&self) -> Option<&CoreError> {
        match self {
            ServiceError::Analysis(e) => Some(e),
            ServiceError::Panicked(_) | ServiceError::InvalidConfig(_) => None,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Analysis(e) => write!(f, "{e}"),
            ServiceError::Panicked(msg) => write!(f, "analysis panicked: {msg}"),
            ServiceError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.as_analysis().map(|e| e as _)
    }
}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Analysis(e)
    }
}

/// A rejected request: the error plus the analyzer's structured
/// diagnostics (machine-readable codes with the offending message/cell
/// ids) — what the JSONL wire layer forwards to clients.
#[derive(Clone, PartialEq, Debug)]
pub struct Rejection {
    /// The analysis (or internal) error.
    pub error: ServiceError,
    /// Structured diagnostics, in stage order. At least one for every
    /// analysis rejection; empty only for internal errors (panics).
    pub diagnostics: Vec<Diagnostic>,
}

impl Rejection {
    /// The underlying analysis error, if this rejection is one.
    #[must_use]
    pub fn as_analysis(&self) -> Option<&CoreError> {
        self.error.as_analysis()
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.error)
    }
}

impl std::error::Error for Rejection {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// The shared outcome of one fingerprint: a certified plan or the
/// rejection (deadlocked, infeasible, model error, panic — plus its
/// diagnostics). Errors are cached too — a deadlocked program resubmitted
/// a thousand times costs one analysis.
pub type ServiceOutcome = Arc<Result<Certified, Rejection>>;

/// Whether a response was served from cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheProvenance {
    /// Served from the plan cache.
    Hit,
    /// Computed by this request (and published to the cache).
    Miss,
    /// Computed by the incremental path: a warm
    /// [`IncrementalSession`] reanalyzed an edited program, reusing the
    /// stage artifacts its dirty set left valid. Incremental outcomes are
    /// **not** published to the plan cache — their fingerprints are
    /// session-local until a client submits the edited program in full.
    Incremental,
    /// Served from a cache entry restored by a snapshot load
    /// ([`AnalysisService::import_snapshot`]) rather than computed in
    /// this process's lifetime. A restored entry answers `Warm` on every
    /// hit while it stays cached, so warm-start coverage is observable
    /// across a whole replayed batch; once evicted, the fingerprint is
    /// recomputed here and answers `Miss`, then `Hit`.
    Warm,
}

/// The service's reply to one request.
#[derive(Clone, Debug)]
pub struct AnalysisResponse {
    /// Submission sequence number (service-assigned, monotonic).
    pub seq: u64,
    /// The request's `name`, echoed.
    pub name: String,
    /// The request's 128-bit content fingerprint (the cache key).
    pub fingerprint: u128,
    /// Hit or miss.
    pub provenance: CacheProvenance,
    /// The shared analysis outcome.
    pub outcome: ServiceOutcome,
    /// Wall-clock time this request spent in a worker (for a hit: the
    /// fingerprint + cache lookup; for a miss: the full analysis).
    pub handle_micros: u64,
    /// The request's trace id: every analyzer stage span and verify span
    /// this request produced (see `--trace-file`) carries this id, and
    /// the wire layer echoes it as `trace`, so a slow response can be
    /// joined against its span tree.
    pub trace_id: u64,
}

impl AnalysisResponse {
    /// `true` if the outcome is a certified plan.
    #[must_use]
    pub fn is_certified(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// A pending response, returned by [`AnalysisService::submit`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<AnalysisResponse>,
}

impl Ticket {
    /// Blocks until the worker pool answers.
    ///
    /// # Panics
    ///
    /// Panics if the service was torn down without answering (a worker
    /// panicked), which is a bug in the service.
    #[must_use]
    pub fn wait(self) -> AnalysisResponse {
        self.rx
            .recv()
            // lint: panic-ok(documented # Panics contract; a dropped reply sender is a service bug)
            .expect("service answers every accepted request")
    }
}

struct Job {
    seq: u64,
    request: AnalysisRequest,
    reply: mpsc::Sender<AnalysisResponse>,
}

/// Counter snapshot of the verifier pool's arena LRUs, summed across the
/// pool.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ArenaCacheStats {
    /// Chases served by a resident (warm) arena.
    pub hits: u64,
    /// Chases that had to build an arena.
    pub misses: u64,
    /// Arenas displaced by LRU pressure.
    pub evictions: u64,
}

impl ArenaCacheStats {
    /// The `systolic_arena_cache_*` series of a registry snapshot. The
    /// arena LRUs are their single writers (every LRU shares the one
    /// registry), so the totals cover all chases without double counting.
    pub(crate) fn from_registry(snapshot: &RegistrySnapshot) -> Self {
        ArenaCacheStats {
            hits: snapshot.counter_total(names::ARENA_CACHE_HITS),
            misses: snapshot.counter_total(names::ARENA_CACHE_MISSES),
            evictions: snapshot.counter_total(names::ARENA_CACHE_EVICTIONS),
        }
    }

    /// Hit rate in `0.0..=1.0` (0.0 before any chases).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Registry instruments the service's hot paths touch, resolved once at
/// construction so per-request work is atomics only (no registry lock).
///
/// Arena-cache and replay series are deliberately **absent**: the
/// pooled arena LRUs are their single writers, so all chases sum in the
/// registry without double counting.
#[derive(Debug)]
struct ServiceMetrics {
    /// `systolic_service_requests_total`.
    requests: Arc<Counter>,
    /// `systolic_service_handle_duration_micros` — also the source of the
    /// summary's request count and latency rows.
    handle_micros: Arc<Histogram>,
    /// `systolic_service_queue_depth`, maintained by `submit`/worker pop.
    queue_depth: Arc<Gauge>,
    /// `systolic_service_incremental_sessions`, tracking the session
    /// table's live entry count.
    incremental_sessions: Arc<Gauge>,
    /// `systolic_service_incremental_session_evictions_total`.
    session_evictions: Arc<Counter>,
    /// `systolic_service_snapshot_warm_hits_total` — the only snapshot
    /// instrument on the per-request hot path; the rest (load/save
    /// counters and durations) are resolved at their rare call sites.
    snapshot_warm_hits: Arc<Counter>,
}

impl ServiceMetrics {
    fn resolve(obs: &Obs) -> Self {
        let registry = obs.registry();
        ServiceMetrics {
            requests: registry.counter(names::SERVICE_REQUESTS),
            handle_micros: registry.histogram(names::SERVICE_HANDLE_DURATION),
            queue_depth: registry.gauge(names::SERVICE_QUEUE_DEPTH),
            incremental_sessions: registry.gauge(names::INCREMENTAL_SESSIONS),
            session_evictions: registry.counter(names::INCREMENTAL_SESSION_EVICTIONS),
            snapshot_warm_hits: registry.counter(names::SNAPSHOT_WARM_HITS),
        }
    }
}

/// One edit operation with names instead of ids — the shape the JSONL
/// wire layer produces. Names are resolved against the *base* session's
/// current program by [`AnalysisService::apply_edit`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NamedEditOp {
    /// Append a `W(message)`/`R(message)` op at the end of `cell`'s
    /// program.
    Append {
        /// The cell whose program grows.
        cell: String,
        /// `true` for a write, `false` for a read.
        write: bool,
        /// The message the op moves.
        message: String,
    },
    /// Remove the last operation of `cell`'s program.
    RemoveTail {
        /// The cell whose program shrinks.
        cell: String,
    },
    /// Add an undirected link (graph topologies only).
    AddLink {
        /// One endpoint.
        a: String,
        /// The other endpoint.
        b: String,
    },
    /// Remove an undirected link (graph topologies only).
    RemoveLink {
        /// One endpoint.
        a: String,
        /// The other endpoint.
        b: String,
    },
}

/// Why an `edit` request could not be applied. Unlike a [`Rejection`]
/// (the edited program analyzed and was refused), these mean the edit
/// never reached analysis — the session, if any, is unchanged.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum EditRequestError {
    /// `base` matches neither a warm session nor any cached request
    /// fingerprint — the client must submit the full program first.
    UnknownBase {
        /// The fingerprint the client named.
        base: u128,
    },
    /// An edit op named a cell the base program does not declare.
    UnknownCellName(String),
    /// An edit op named a message the base program does not declare.
    UnknownMessageName(String),
    /// The resolved batch was rejected by [`SessionDelta`]
    /// (invalid edited program/topology, structural errors).
    ///
    /// [`SessionDelta`]: systolic_core::SessionDelta
    Edit(EditError),
}

impl std::fmt::Display for EditRequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditRequestError::UnknownBase { base } => write!(
                f,
                "unknown base fingerprint {base:#034x}: submit the full program first"
            ),
            EditRequestError::UnknownCellName(name) => {
                write!(f, "edit references unknown cell {name:?}")
            }
            EditRequestError::UnknownMessageName(name) => {
                write!(f, "edit references unknown message {name:?}")
            }
            EditRequestError::Edit(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EditRequestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EditRequestError::Edit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EditError> for EditRequestError {
    fn from(e: EditError) -> Self {
        EditRequestError::Edit(e)
    }
}

/// The service's reply to one `edit` request: a regular
/// [`AnalysisResponse`] (provenance [`CacheProvenance::Incremental`],
/// `fingerprint` = the *edited* program's fingerprint, for chaining the
/// next edit) plus what the incremental path reused.
#[derive(Clone, Debug)]
pub struct EditResponse {
    /// The response proper, outcome and all.
    pub response: AnalysisResponse,
    /// The base fingerprint the edit was applied against.
    pub base: u128,
    /// Which stage artifacts the session reused.
    pub reuse: ReuseReport,
}

/// The request inputs a plan-cache entry keeps, so an `edit` naming a
/// base whose session went cold (or never existed) can seed a fresh
/// [`IncrementalSession`] without the client resending the program.
struct SeedInputs {
    program: Program,
    compiled: Arc<CompiledTopology>,
}

/// Everything the service keeps per request fingerprint: one plan-cache
/// entry, evicted as a unit.
#[derive(Clone)]
struct CacheEntry {
    outcome: ServiceOutcome,
    /// The seed a cold `edit` on this fingerprint starts from; `None`
    /// only when the analysis panicked before its topology compiled.
    seed: Option<Arc<SeedInputs>>,
    /// Restored by a snapshot load rather than computed in this process;
    /// hits on it answer [`CacheProvenance::Warm`].
    restored: bool,
}

/// One warm incremental session, keyed in the table by its current
/// fingerprint.
struct SessionSlot {
    /// Last-edit recency for LRU eviction.
    tick: u64,
    session: IncrementalSession,
    names: NameIndex,
}

/// A session's cell and message ids, each sorted by name, so a name
/// resolves by binary search against the program's own name table
/// instead of a scan. Edits never add, remove or rename a cell or a
/// message, so the index built when [`AnalysisService::apply_edit`] seeds
/// a session stays valid for every later edit of it and moves with it
/// when it is re-keyed.
struct NameIndex {
    cells: Vec<CellId>,
    messages: Vec<MessageId>,
}

impl NameIndex {
    fn of(program: &Program) -> Self {
        // Stable sorts: a repeated name keeps its first id first, as in
        // `Program::cell_id` and `Program::message_id`.
        let mut cells: Vec<CellId> = program.cell_ids().collect();
        cells.sort_by_key(|&c| program.cell_name(c));
        let mut messages: Vec<MessageId> = program.message_ids().collect();
        messages.sort_by_key(|&m| program.message(m).name());
        NameIndex { cells, messages }
    }
}

#[cfg(test)]
thread_local! {
    /// Names compared by [`find_by_name`] on this thread: the name
    /// lookup's deterministic work counter, which the complexity test
    /// reads.
    static NAME_COMPARISONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The first of `ids`, sorted by `name_of`, that is named `name`.
fn find_by_name<'p, I: Copy>(ids: &[I], name_of: impl Fn(I) -> &'p str, name: &str) -> Option<I> {
    let name_of = |id| {
        #[cfg(test)]
        NAME_COMPARISONS.with(|n| n.set(n.get() + 1));
        name_of(id)
    };
    let at = ids.partition_point(|&id| name_of(id) < name);
    ids.get(at).copied().filter(|&id| name_of(id) == name)
}

/// The incremental edit path's mutable state: the bounded session table
/// (edits are serialized on this one lock — interactive edit traffic is
/// per-client sequential anyway, and the table re-keys on every apply).
struct EditState {
    sessions: HashMap<u128, SessionSlot>,
    tick: u64,
}

struct Inner {
    queue: BoundedQueue<Job>,
    cache: ShardedCache<CacheEntry>,
    /// `(topology, config)` fingerprint → shared compilation, so the
    /// misses of one batch (and across batches) compile each distinct
    /// topology once.
    compilations: ShardedCache<Arc<CompiledTopology>>,
    /// The verifier pool: every chase borrows one of these LRUs, replays
    /// on its own thread, and hands it back ([`LruLoan`]).
    verifiers: BoundedQueue<ArenaLru>,
    config: ServiceConfig,
    /// The shared observability bundle: every layer (analyzer stages,
    /// arena LRUs, service counters) writes into this one registry/tracer
    /// pair.
    obs: Arc<Obs>,
    metrics: ServiceMetrics,
    /// The incremental edit path's session table.
    edit_state: Mutex<EditState>,
}

/// What one snapshot operation ([`AnalysisService::import_snapshot`] /
/// [`AnalysisService::save_snapshot`] and their file wrappers) did, for
/// the wire `snapshot` response and the daemon's summary lines.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SnapshotReport {
    /// Plan-cache entries restored (load) or serialized (save).
    pub plans: u64,
    /// Entries dropped by this operation (load-side skew; zero on save).
    pub dropped: u64,
    /// Snapshot size in bytes.
    pub bytes: u64,
    /// Wall time of the operation, microseconds.
    pub micros: u64,
}

/// The sharded, cached, batch analysis service.
///
/// # Examples
///
/// ```
/// use systolic_service::{AnalysisRequest, AnalysisService, CacheProvenance, ServiceConfig};
/// use systolic_workloads::{fig7, fig7_topology};
///
/// let service = AnalysisService::new(ServiceConfig::default());
/// let request = AnalysisRequest::new("fig7", fig7(3), fig7_topology());
///
/// let first = service.submit(request.clone()).wait();
/// assert_eq!(first.provenance, CacheProvenance::Miss);
/// assert!(first.is_certified());
///
/// let second = service.submit(request).wait();
/// assert_eq!(second.provenance, CacheProvenance::Hit);
/// assert_eq!(second.fingerprint, first.fingerprint);
/// ```
#[derive(Debug)]
pub struct AnalysisService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    seq: AtomicU64,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("queue", &self.queue)
            .finish_non_exhaustive()
    }
}

impl AnalysisService {
    /// Starts the worker pool with a fresh private observability bundle.
    /// Use [`AnalysisService::with_obs`] to share one bundle with other
    /// components (or to read it back out).
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        Self::with_obs(config, Arc::new(Obs::new()))
    }

    /// Starts the worker pool recording metrics and spans into `obs`.
    #[must_use]
    pub fn with_obs(config: ServiceConfig, obs: Arc<Obs>) -> Self {
        let metrics = ServiceMetrics::resolve(&obs);
        let hw_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        obs.registry()
            .gauge(names::HW_THREADS)
            .set(i64::try_from(hw_threads).unwrap_or(i64::MAX));
        // One LRU per analysis worker unless `verify_threads` caps the
        // pool. Without `verify` nothing borrows them, but they still
        // register the arena-cache series the exposition always carries.
        let pool = if config.verify && config.verify_threads > 0 {
            config.verify_threads
        } else {
            config.workers.max(1)
        };
        let verifiers = BoundedQueue::new(pool);
        for _ in 0..pool {
            let mut lru = ArenaLru::with_budget(config.arena_budget());
            lru.set_obs(&obs);
            verifiers
                .try_push(lru)
                // lint: panic-ok(a fresh pool has room for every LRU it is built with)
                .expect("the pool holds all its LRUs");
        }
        let inner = Arc::new(Inner {
            queue: BoundedQueue::new(config.queue_depth),
            cache: ShardedCache::new(config.cache),
            compilations: ShardedCache::new(COMPILATION_CACHE),
            verifiers,
            config,
            obs,
            metrics,
            edit_state: Mutex::new(EditState {
                sessions: HashMap::new(),
                tick: 0,
            }),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("systolic-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    // lint: panic-ok(startup-time spawn; failing to build the pool is fatal by design)
                    .expect("spawning a worker thread succeeds")
            })
            .collect();
        AnalysisService {
            inner,
            workers,
            seq: AtomicU64::new(0),
        }
    }

    /// Submits one request, blocking while the submission queue is full
    /// (backpressure). The returned [`Ticket`] resolves to the response.
    ///
    /// # Panics
    ///
    /// Panics if called after the service started shutting down (only
    /// possible during `Drop`, where no caller can hold `&self`).
    #[must_use]
    pub fn submit(&self, request: AnalysisRequest) -> Ticket {
        // lint: relaxed-ok(sequence allocation; fetch_add atomicity alone guarantees uniqueness)
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        self.inner
            .queue
            .push(Job {
                seq,
                request,
                reply: tx,
            })
            // lint: panic-ok(documented # Panics contract; queue closes only during Drop)
            .unwrap_or_else(|_| panic!("submission queue closed while service alive"));
        // Gauge via inc/dec (worker pop decrements) rather than len():
        // the queue's own lock stays out of the submission path.
        self.inner.metrics.queue_depth.add(1);
        Ticket { rx }
    }

    /// Submits a whole batch and waits for every response, preserving
    /// request order. Submission is paced by the bounded queue, so a huge
    /// batch never balloons the queue beyond `queue_depth`.
    #[must_use]
    pub fn run_batch(&self, requests: Vec<AnalysisRequest>) -> Vec<AnalysisResponse> {
        let tickets: Vec<Ticket> = requests.into_iter().map(|r| self.submit(r)).collect();
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// Applies an edit batch against `base` — the fingerprint of a
    /// previously served request or edit — through the incremental path:
    /// the warm [`IncrementalSession`] for `base` (seeded from the request
    /// inputs its plan-cache entry keeps when cold) reanalyzes the edited
    /// program reusing every stage artifact its dirty set left valid, and
    /// the session is re-keyed under the *edited* fingerprint so the next
    /// edit can chain on the returned [`AnalysisResponse::fingerprint`].
    ///
    /// The outcome (certified or rejected, with the same diagnostics a
    /// full submission of the edited program would carry) commits the
    /// edited program as the session's new base either way; with
    /// `verify` on, certified edits are chased exactly like misses.
    /// Incremental outcomes are **not** published to the plan cache.
    ///
    /// # Errors
    ///
    /// [`EditRequestError`] when the base is unknown, a name fails to
    /// resolve, or the batch itself is invalid ([`EditError`]); the
    /// session (if any) is unchanged.
    pub fn apply_edit(
        &self,
        name: impl Into<String>,
        base: u128,
        ops: &[NamedEditOp],
    ) -> Result<EditResponse, EditRequestError> {
        let start = Instant::now();
        // lint: relaxed-ok(sequence allocation; fetch_add atomicity alone guarantees uniqueness)
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let inner = &self.inner;
        let tracer = inner.obs.tracer();
        let span = tracer.start(tracer.new_trace(), None, "request");
        let ctx = span.ctx();
        let trace_id = ctx.trace.0;

        let mut state = inner.edit_state.lock();
        let (mut session, names) = match state.sessions.remove(&base) {
            Some(slot) => (slot.session, slot.names),
            None => {
                // Cold base: seed a fresh session from the request inputs
                // its plan-cache entry keeps (full-analysis cost, once).
                // A peek, so edits leave the plan cache's recency and
                // counters alone.
                let Some(seed) = inner.cache.peek(base).and_then(|entry| entry.seed) else {
                    tracer.finish(span);
                    return Err(EditRequestError::UnknownBase { base });
                };
                let analyzer =
                    Analyzer::new(Arc::clone(&seed.compiled)).with_obs(Arc::clone(&inner.obs));
                let session = IncrementalSession::seed(
                    analyzer,
                    seed.program.clone(),
                    IncrementalConfig {
                        fallback_ratio: inner.config.incremental_fallback_ratio,
                    },
                );
                let names = NameIndex::of(session.program());
                (session, names)
            }
        };
        let resolved = match resolve_ops(session.program(), &names, ops) {
            Ok(resolved) => resolved,
            Err(error) => {
                store_session(inner, &mut state, base, session, names);
                tracer.finish(span);
                return Err(error);
            }
        };
        let reuse = match session.apply_in(&resolved, Some(ctx)) {
            Ok(reuse) => reuse,
            Err(error) => {
                store_session(inner, &mut state, base, session, names);
                tracer.finish(span);
                return Err(EditRequestError::Edit(error));
            }
        };
        let fingerprint = session.fingerprint();
        // Certified edits are chased exactly like misses, through an LRU
        // borrowed from the verifier pool.
        let outcome = conclude(
            inner,
            ctx,
            start,
            session.analyzer().compiled(),
            session.program(),
            session.outcome(),
        );
        store_session(inner, &mut state, fingerprint, session, names);
        drop(state);
        tracer.finish(span);
        let handle_micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        Ok(EditResponse {
            response: AnalysisResponse {
                seq,
                name: name.into(),
                fingerprint,
                provenance: CacheProvenance::Incremental,
                outcome: Arc::new(outcome),
                handle_micros,
                trace_id,
            },
            base,
            reuse,
        })
    }

    /// Counter snapshot of the plan cache.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// Per-shard counter snapshots of the plan cache.
    #[must_use]
    pub fn per_shard_cache_stats(&self) -> Vec<CacheStats> {
        self.inner.cache.per_shard_stats()
    }

    /// Entries currently resident in the plan cache.
    #[must_use]
    pub fn cache_entries(&self) -> usize {
        self.inner.cache.len()
    }

    /// Counter snapshot of the topology-compilation cache (one entry per
    /// distinct `(topology, config)` pair analyzed on a miss).
    #[must_use]
    pub fn compilation_cache_stats(&self) -> CacheStats {
        self.inner.compilations.stats()
    }

    /// The service's observability bundle: the registry every layer
    /// writes into and the tracer holding finished spans. Share it via
    /// [`AnalysisService::with_obs`] or read it here for export
    /// (`--metrics-file` / `--trace-file`).
    #[must_use]
    pub fn obs(&self) -> &Arc<Obs> {
        &self.inner.obs
    }

    /// An owned snapshot of the metrics registry, with the plan-cache
    /// counters mirrored into the `systolic_plan_cache_*` export gauges
    /// first — the one input for `--summary`, `--summary-json`,
    /// `--metrics-file` and the `metrics` wire op.
    #[must_use]
    pub fn registry_snapshot(&self) -> RegistrySnapshot {
        let cache = self.inner.cache.stats();
        let routes = self.route_cache_stats();
        let registry = self.inner.obs.registry();
        for (name, value) in [
            (names::PLAN_CACHE_HITS, cache.hits),
            (names::PLAN_CACHE_MISSES, cache.misses),
            (names::PLAN_CACHE_EVICTIONS, cache.evictions),
            (names::PLAN_CACHE_ENTRIES, cache.entries as u64),
            (names::ROUTE_CACHE_HITS, routes.hits),
            (names::ROUTE_CACHE_MISSES, routes.misses),
        ] {
            registry
                .gauge(name)
                .set(i64::try_from(value).unwrap_or(i64::MAX));
        }
        registry.snapshot()
    }

    /// Per-pair route LRU counters summed across every compiled topology
    /// the service holds — the compilation cache plus any live
    /// incremental-session analyzers. Distinct `CompiledTopology`
    /// instances are deduplicated by identity (a session seeded from the
    /// compilation cache shares its compiled topology, and must not be
    /// counted twice). All-zero unless some topology exceeded the
    /// [`systolic_core::MAX_CLOSURE_CELLS`] route-closure limit.
    #[must_use]
    pub fn route_cache_stats(&self) -> RouteCacheStats {
        let mut total = RouteCacheStats::default();
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut add = |compiled: &Arc<CompiledTopology>| {
            if seen.insert(Arc::as_ptr(compiled) as usize) {
                let stats = compiled.route_cache_stats();
                total.hits += stats.hits;
                total.misses += stats.misses;
                total.entries += stats.entries;
            }
        };
        for compiled in self.inner.compilations.values() {
            add(&compiled);
        }
        let state = self.inner.edit_state.lock();
        for slot in state.sessions.values() {
            add(slot.session.analyzer().compiled());
        }
        total
    }

    /// Counter snapshot of the verification-arena LRUs, summed across the
    /// verifier pool. All-zero unless the service chases plans (`verify`
    /// on).
    #[must_use]
    pub fn arena_cache_stats(&self) -> ArenaCacheStats {
        ArenaCacheStats::from_registry(&self.inner.obs.registry().snapshot())
    }

    /// Stages the current warm state — one record per cached outcome,
    /// with the request inputs its entry keeps — for serialization. An
    /// entry whose analysis panicked before its topology compiled has no
    /// inputs to re-fingerprint on load and is skipped (counted under
    /// `systolic_service_snapshot_dropped_total`, reason
    /// `export-missing-seed`).
    fn export_snapshot_data(&self) -> snapshot::SnapshotData {
        let mut data = snapshot::SnapshotData::default();
        let mut skipped = 0u64;
        for (fingerprint, entry) in self.inner.cache.entries() {
            let Some(seed) = entry.seed else {
                skipped += 1;
                continue;
            };
            data.entries.push(snapshot::SnapshotEntry {
                fingerprint,
                program: seed.program.clone(),
                topology: seed.compiled.topology().clone(),
                config: seed.compiled.config().clone(),
                outcome: entry.outcome,
            });
        }
        if skipped > 0 {
            let reason = [("reason", "export-missing-seed")];
            let registry = self.inner.obs.registry();
            registry
                .counter_with(names::SNAPSHOT_DROPPED, &reason)
                .add(skipped);
        }
        data
    }

    /// Serializes the service's warm state into the versioned snapshot
    /// container (see the `snapshot` module docs for the format layout).
    #[must_use]
    pub fn export_snapshot(&self) -> Vec<u8> {
        snapshot::write_snapshot(&self.export_snapshot_data())
    }

    /// Parses `bytes` as a snapshot and installs each record as one
    /// plan-cache entry.
    ///
    /// The whole file is decoded and validated *before* anything is
    /// installed: a corrupt, truncated, or version-skewed snapshot
    /// returns a typed [`SnapshotError`], installs nothing, and leaves
    /// the service serving cold. Per-record skew — inputs that no longer
    /// re-fingerprint to the recorded key, or a fingerprint already
    /// cached or repeated in the file — is dropped and counted, never an
    /// error.
    pub fn import_snapshot(&self, bytes: &[u8]) -> Result<SnapshotReport, SnapshotError> {
        let start = Instant::now();
        let registry = self.inner.obs.registry();
        let data = match snapshot::read_snapshot(bytes) {
            Ok(data) => data,
            Err(error) => {
                registry.counter(names::SNAPSHOT_LOAD_REJECTED).inc();
                return Err(error);
            }
        };
        // Entries dropped, by `reason` label.
        let mut dropped: HashMap<&str, u64> = HashMap::new();
        let mut drop_one = |reason| *dropped.entry(reason).or_default() += 1;
        let mut loaded = 0u64;
        for record in data.entries {
            // Inputs that no longer fingerprint to their recorded key were
            // written by an incompatible build (or corrupted in a way the
            // section hash cannot see); installing them would seed wrong
            // sessions.
            let key = request_fingerprint(&record.program, &record.topology, &record.config);
            if key != record.fingerprint {
                drop_one("refingerprint");
                continue;
            }
            let entry = CacheEntry {
                outcome: record.outcome,
                seed: Some(Arc::new(SeedInputs {
                    compiled: compiled_for(&self.inner, &record.topology, &record.config),
                    program: record.program,
                })),
                restored: true,
            };
            // First writer wins: an outcome this process already computed
            // (or an earlier copy of a repeated record) beats this one,
            // and hits on it keep their provenance.
            if self.inner.cache.insert(key, entry).1 {
                loaded += 1;
            } else {
                drop_one("already-cached");
            }
        }
        let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        registry.counter(names::SNAPSHOT_LOADED_PLANS).add(loaded);
        let total_dropped = dropped.values().sum();
        for (reason, count) in dropped {
            registry
                .counter_with(names::SNAPSHOT_DROPPED, &[("reason", reason)])
                .add(count);
        }
        registry
            .histogram(names::SNAPSHOT_LOAD_DURATION)
            .record(micros);
        Ok(SnapshotReport {
            plans: loaded,
            dropped: total_dropped,
            bytes: bytes.len() as u64,
            micros,
        })
    }

    /// Serializes the warm state and writes it to `path` (see
    /// [`AnalysisService::export_snapshot`]).
    pub fn save_snapshot(&self, path: &std::path::Path) -> Result<SnapshotReport, SnapshotError> {
        let start = Instant::now();
        let data = self.export_snapshot_data();
        let plans = data.entries.len() as u64;
        let bytes = snapshot::write_snapshot(&data);
        std::fs::write(path, &bytes)?;
        let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let registry = self.inner.obs.registry();
        registry.counter(names::SNAPSHOT_SAVES).inc();
        registry
            .gauge(names::SNAPSHOT_SAVE_BYTES)
            .set(i64::try_from(bytes.len()).unwrap_or(i64::MAX));
        registry
            .histogram(names::SNAPSHOT_SAVE_DURATION)
            .record(micros);
        Ok(SnapshotReport {
            plans,
            dropped: 0,
            bytes: bytes.len() as u64,
            micros,
        })
    }

    /// Reads `path` and installs its snapshot (see
    /// [`AnalysisService::import_snapshot`]). An unreadable file counts
    /// as a rejected load; the service keeps serving cold.
    pub fn load_snapshot(&self, path: &std::path::Path) -> Result<SnapshotReport, SnapshotError> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(error) => {
                self.inner
                    .obs
                    .registry()
                    .counter(names::SNAPSHOT_LOAD_REJECTED)
                    .inc();
                return Err(SnapshotError::Io(error));
            }
        };
        self.import_snapshot(&bytes)
    }
}

impl Drop for AnalysisService {
    fn drop(&mut self) {
        self.inner.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    while let Some(job) = inner.queue.pop() {
        inner.metrics.queue_depth.add(-1);
        let response = handle(inner, job.seq, job.request);
        // A dropped Ticket just means the client stopped listening.
        let _ = job.reply.send(response);
    }
}

/// An [`ArenaLru`] borrowed from the verifier pool. Dropping the loan
/// hands the LRU back on every path, unwinding included, so the pool
/// never shrinks.
struct LruLoan<'a> {
    pool: &'a BoundedQueue<ArenaLru>,
    lru: ArenaLru,
}

impl<'a> LruLoan<'a> {
    /// Borrows an LRU, waiting while every one of them is lent out.
    fn borrow(pool: &'a BoundedQueue<ArenaLru>) -> Self {
        // lint: panic-ok(the verifier pool is never closed, so pop waits for a returned LRU)
        let lru = pool.pop().expect("the verifier pool stays open");
        LruLoan { pool, lru }
    }
}

impl Drop for LruLoan<'_> {
    fn drop(&mut self) {
        // An empty LRU allocates nothing; it only stands in for the one
        // moved back. The push never waits: the pool has room for every
        // LRU it lends.
        let lru = std::mem::replace(&mut self.lru, ArenaLru::with_budget(1));
        let _ = self.pool.push(lru);
    }
}

/// One verification chase: borrows an LRU from the verifier pool and
/// replays on this thread. [`ArenaLru::replay`] reports a replay panic as
/// [`VerifyTaskError::Panicked`] and drops the poisoned arena.
fn chase(
    inner: &Inner,
    compiled: &Arc<CompiledTopology>,
    program: &Program,
    plan: &Arc<CommPlan>,
) -> Result<VerifyReport, VerifyTaskError> {
    let mut loan = LruLoan::borrow(&inner.verifiers);
    loan.lru.replay(compiled, inner.config.sim, program, plan)
}

fn handle(inner: &Inner, seq: u64, request: AnalysisRequest) -> AnalysisResponse {
    let start = Instant::now();
    // Every request gets a trace: one "request" root span, with the
    // analyzer's stage spans (and the "verify" chase span) nested under
    // it on a miss. The trace id rides the response so the wire layer can
    // echo it next to the span log.
    let tracer = inner.obs.tracer();
    let span = tracer.start(tracer.new_trace(), None, "request");
    let ctx = span.ctx();
    let fingerprint = request_fingerprint(&request.program, &request.topology, &request.config);
    let (outcome, provenance) = match inner.cache.get(fingerprint) {
        Some(entry) if entry.restored => {
            inner.metrics.snapshot_warm_hits.inc();
            (entry.outcome, CacheProvenance::Warm)
        }
        Some(entry) => (entry.outcome, CacheProvenance::Hit),
        None => match request.config.check_covers(&request.program) {
            // A table that does not cover the program would panic the
            // analysis, and a cached panic would keep inputs that panic
            // the first edit on them: refuse it, and cache nothing.
            Err(message) => (
                Arc::new(Err(Rejection {
                    error: ServiceError::InvalidConfig(message),
                    diagnostics: Vec::new(),
                })),
                CacheProvenance::Miss,
            ),
            Ok(()) => {
                // catch_unwind so a panic in the analysis of one (possibly
                // hostile) request rejects that request instead of killing
                // the worker and, via the dropped reply channel, the
                // client. (Replay panics are already contained — and their
                // arena dropped — inside `ArenaLru::replay`.)
                let mut seed = None;
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    compute(inner, &request, ctx, &mut seed)
                }));
                let outcome: ServiceOutcome = Arc::new(match result {
                    Ok(outcome) => outcome,
                    Err(panic) => Err(Rejection {
                        error: ServiceError::Panicked(panic_message(&*panic)),
                        diagnostics: Vec::new(),
                    }),
                });
                let entry = CacheEntry {
                    outcome,
                    seed,
                    restored: false,
                };
                // First writer wins: racing workers converge on one entry
                // and one shared outcome.
                let (winner, _inserted) = inner.cache.insert(fingerprint, entry);
                (winner.outcome, CacheProvenance::Miss)
            }
        },
    };
    let handle_micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let trace_id = ctx.trace.0;
    tracer.finish(span);
    inner.metrics.requests.inc();
    inner.metrics.handle_micros.record(handle_micros);
    AnalysisResponse {
        seq,
        name: request.name,
        fingerprint,
        provenance,
        outcome,
        handle_micros,
        trace_id,
    }
}

/// Resolves named edit ops against `program`'s cell/message declarations
/// through the session's name index.
fn resolve_ops(
    program: &Program,
    names: &NameIndex,
    ops: &[NamedEditOp],
) -> Result<Vec<EditOp>, EditRequestError> {
    let cell = |name: &str| {
        find_by_name(&names.cells, |c| program.cell_name(c), name)
            .ok_or_else(|| EditRequestError::UnknownCellName(name.to_owned()))
    };
    let message = |name: &str| {
        find_by_name(&names.messages, |m| program.message(m).name(), name)
            .ok_or_else(|| EditRequestError::UnknownMessageName(name.to_owned()))
    };
    ops.iter()
        .map(|op| {
            Ok(match op {
                NamedEditOp::Append {
                    cell: c,
                    write,
                    message: m,
                } => {
                    let m = message(m)?;
                    EditOp::AppendOp {
                        cell: cell(c)?,
                        op: if *write { Op::write(m) } else { Op::read(m) },
                    }
                }
                NamedEditOp::RemoveTail { cell: c } => EditOp::RemoveTailOp { cell: cell(c)? },
                NamedEditOp::AddLink { a, b } => EditOp::AddLink {
                    a: cell(a)?,
                    b: cell(b)?,
                },
                NamedEditOp::RemoveLink { a, b } => EditOp::RemoveLink {
                    a: cell(a)?,
                    b: cell(b)?,
                },
            })
        })
        .collect()
}

/// Re-keys `session` and its name index into the table under `key`,
/// evicting the least-recently-edited sessions past the capacity bound
/// and keeping the session gauge current.
fn store_session(
    inner: &Inner,
    state: &mut EditState,
    key: u128,
    session: IncrementalSession,
    names: NameIndex,
) {
    state.tick += 1;
    let tick = state.tick;
    // Re-keying over an existing entry (two bases edited into the same
    // program) keeps the newer session; the replaced one is just dropped.
    state.sessions.insert(
        key,
        SessionSlot {
            tick,
            session,
            names,
        },
    );
    let capacity = inner.config.session_capacity.max(1);
    while state.sessions.len() > capacity {
        let lru = state
            .sessions
            .iter()
            .min_by_key(|(_, slot)| slot.tick)
            .map(|(&key, _)| key);
        let Some(lru) = lru else { break };
        state.sessions.remove(&lru);
        inner.metrics.session_evictions.inc();
    }
    inner
        .metrics
        .incremental_sessions
        .set(i64::try_from(state.sessions.len()).unwrap_or(i64::MAX));
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_owned()
    }
}

/// The shared compilation for a `(topology, config)` pair: served from
/// the compilation cache, compiled and published on a miss (first writer
/// wins, as with the plan cache).
fn compiled_for(
    inner: &Inner,
    topology: &Topology,
    config: &AnalysisConfig,
) -> Arc<CompiledTopology> {
    let key = CompiledTopology::fingerprint_of(topology, config);
    match inner.compilations.get(key) {
        Some(compiled) => compiled,
        None => {
            let built = CompiledTopology::compile(topology, config).into_shared();
            inner.compilations.insert(key, built).0
        }
    }
}

/// The request name that makes [`compute`] panic in unit tests, after the
/// topology compiled: no known input panics the analysis, and the
/// worker's panic containment still needs a trigger.
#[cfg(test)]
const PANIC_SENTINEL: &str = "panic-sentinel";

/// Analyzes (and, with `verify` on, chases) one plan-cache miss. The
/// request inputs go to `seed` as soon as the topology compiled, so the
/// cache entry keeps them even if the analysis panics later: an `edit`
/// can still name this fingerprint as its base.
fn compute(
    inner: &Inner,
    request: &AnalysisRequest,
    ctx: SpanCtx,
    seed: &mut Option<Arc<SeedInputs>>,
) -> Result<Certified, Rejection> {
    let start = Instant::now();
    let compiled = compiled_for(inner, &request.topology, &request.config);
    *seed = Some(Arc::new(SeedInputs {
        program: request.program.clone(),
        compiled: Arc::clone(&compiled),
    }));
    #[cfg(test)]
    if request.name == PANIC_SENTINEL {
        panic!("sentinel request");
    }
    let analyzer = Analyzer::new(Arc::clone(&compiled)).with_obs(Arc::clone(&inner.obs));
    let outcome = analyzer.diagnose_in(&request.program, Some(ctx));
    conclude(inner, ctx, start, &compiled, &request.program, &outcome)
}

/// Turns an analyzer outcome into the served one, for misses and edits
/// alike. A refusal becomes a rejection carrying the analyzer's
/// diagnostics. With `verify` on, a certified plan is first chased by a
/// simulator replay (the `verify` span covers the wait for a free pooled
/// LRU too): a model error rejects it with the diagnostics, a replay
/// panic without them. `analysis_micros` counts from `start`.
fn conclude(
    inner: &Inner,
    ctx: SpanCtx,
    start: Instant,
    compiled: &Arc<CompiledTopology>,
    program: &Program,
    outcome: &AnalysisOutcome,
) -> Result<Certified, Rejection> {
    let diagnostics = outcome.diagnostics().as_slice().to_vec();
    let analysis = match outcome.result() {
        Ok(analysis) => analysis,
        Err(error) => {
            return Err(Rejection {
                error: ServiceError::Analysis(error.clone()),
                diagnostics,
            })
        }
    };
    let plan = Arc::new(analysis.plan().clone());
    let verified = if inner.config.verify {
        let tracer = inner.obs.tracer();
        let chase_span = tracer.start(ctx.trace, Some(ctx.parent), "verify");
        let chased = chase(inner, compiled, program, &plan);
        tracer.finish(chase_span);
        match chased {
            Ok(report) => Some(report),
            Err(VerifyTaskError::Model(error)) => {
                return Err(Rejection {
                    error: ServiceError::Analysis(CoreError::Model(error)),
                    diagnostics,
                })
            }
            Err(VerifyTaskError::Panicked(message)) => {
                return Err(Rejection {
                    error: ServiceError::Panicked(message),
                    diagnostics: Vec::new(),
                })
            }
        }
    } else {
        None
    };
    let analysis_micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    Ok(Certified::new(
        program,
        plan,
        analysis.labeling_method(),
        verified,
        analysis_micros,
        diagnostics,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{summary_table, tests::rows, RunTotals};
    use systolic_core::Lookahead;
    use systolic_model::parse_program;
    use systolic_workloads::{fig7, fig7_topology, fig9, fig9_topology};

    #[test]
    fn edit_batches_resolve_names_without_scans() {
        // 8,000 appends naming the last 16 of 8,000 messages. Through the
        // session's name index each op costs two binary searches, about
        // 17 name comparisons; a linear scan of the names costs thousands
        // per op (tens of millions for the batch).
        const MESSAGES: usize = 8_000;
        let mut text = String::from("cells 2\n");
        for m in 0..MESSAGES {
            text.push_str(&format!("message M{m}: c0 -> c1\n"));
        }
        let ops = |op: &str| {
            (0..MESSAGES)
                .map(|m| format!("{op}(M{m})"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        text.push_str(&format!("program c0 {{ {} }}\n", ops("W")));
        text.push_str(&format!("program c1 {{ {} }}\n", ops("R")));
        let program = parse_program(&text).unwrap();
        let names = NameIndex::of(&program);
        let batch: Vec<NamedEditOp> = (0..MESSAGES)
            .map(|i| NamedEditOp::Append {
                cell: if i % 2 == 0 { "c0" } else { "c1" }.to_owned(),
                write: i % 2 == 0,
                message: format!("M{}", MESSAGES - 16 + i % 16),
            })
            .collect();
        let comparisons = || NAME_COMPARISONS.with(std::cell::Cell::get);
        let before = comparisons();
        let resolved = resolve_ops(&program, &names, &batch).unwrap();
        let compared = comparisons() - before;
        assert_eq!(resolved.len(), MESSAGES);
        assert_eq!(
            resolved[1],
            EditOp::AppendOp {
                cell: CellId::new(1),
                op: Op::read(MessageId::new(MESSAGES as u32 - 15)),
            }
        );
        // O(ops · log names): two lookups per op, each at most
        // log2(names) + 2 comparisons.
        let log_names = MESSAGES.ilog2() as usize + 1;
        let bound = batch.len() * 2 * (log_names + 2);
        assert!(
            compared <= bound,
            "resolving {MESSAGES} ops compared {compared} names, over the bound {bound}"
        );
    }

    fn fig7_request() -> AnalysisRequest {
        AnalysisRequest::new("fig7", fig7(3), fig7_topology())
    }

    fn fig7_times(reps: usize) -> AnalysisRequest {
        AnalysisRequest::new(format!("fig7x{reps}"), fig7(reps), fig7_topology())
    }

    /// One counter, summed across its label series, from the registry the
    /// summary renders.
    fn counter(service: &AnalysisService, name: &str) -> u64 {
        service.registry_snapshot().counter_total(name)
    }

    /// Fails unless the `--summary` table has every `label = value` row.
    fn assert_summary(service: &AnalysisService, expected: &[&str]) {
        let budget = service.inner.config.arena_budget();
        let run = RunTotals::default();
        let rows = rows(&summary_table(&service.registry_snapshot(), budget, &run));
        for row in expected {
            assert!(rows.iter().any(|r| r == row), "{row:?} not in {rows:#?}");
        }
    }

    #[test]
    fn miss_then_hit_share_one_outcome() {
        let service = AnalysisService::new(ServiceConfig::default());
        let a = service.submit(fig7_request()).wait();
        let b = service.submit(fig7_request()).wait();
        assert_eq!(a.provenance, CacheProvenance::Miss);
        assert_eq!(b.provenance, CacheProvenance::Hit);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(
            Arc::ptr_eq(&a.outcome, &b.outcome),
            "hit must share the cached Arc"
        );
        assert_eq!(service.cache_entries(), 1);
    }

    #[test]
    fn certified_outcome_carries_plan_details() {
        let service = AnalysisService::new(ServiceConfig::default());
        let response = service.submit(fig7_request()).wait();
        let certified = response.outcome.as_ref().as_ref().unwrap();
        assert_eq!(certified.max_queues_per_interval, 1);
        assert_eq!(certified.message_labels.len(), 3);
        assert_eq!(certified.labeling_method, LabelingMethod::Section6);
        assert!(certified.verified.is_none());
    }

    #[test]
    fn verification_chase_runs_when_configured() {
        let config = ServiceConfig {
            verify: true,
            ..Default::default()
        };
        let service = AnalysisService::new(config);
        let response = service.submit(fig7_request()).wait();
        let certified = response.outcome.as_ref().as_ref().unwrap();
        let report = certified.verified.as_ref().expect("verification ran");
        assert!(report.completed);
    }

    #[test]
    fn verification_chase_reuses_arena_across_mixed_topologies() {
        // Alternating topologies force the worker's arena cache to rebuild;
        // repeats of one topology reuse it. Either way the chase must be
        // correct (single worker so the arena cache is actually exercised
        // across consecutive requests).
        let config = ServiceConfig {
            verify: true,
            workers: 1,
            ..Default::default()
        };
        let service = AnalysisService::new(config);
        let mut requests = Vec::new();
        for reps in 1..=4 {
            requests.push(AnalysisRequest::new(
                format!("fig7x{reps}"),
                fig7(reps),
                fig7_topology(),
            ));
        }
        let mut fig9_request = AnalysisRequest::new("fig9", fig9(), fig9_topology());
        fig9_request.config.queues_per_interval = 2;
        requests.push(fig9_request);
        requests.push(AnalysisRequest::new("fig7x5", fig7(5), fig7_topology()));
        let responses = service.run_batch(requests);
        for response in &responses {
            let certified = response.outcome.as_ref().as_ref().unwrap();
            let report = certified.verified.as_ref().expect("verification ran");
            assert!(report.completed, "{} failed its chase", response.name);
        }
    }

    #[test]
    fn arena_lru_keeps_interleaved_topologies_warm() {
        // A,B,A,B,... misses over two topologies: the old single-arena
        // worker cache rebuilt on every request; the LRU builds each
        // topology's arena once and hits thereafter (single worker so one
        // LRU sees the whole stream).
        let config = ServiceConfig {
            verify: true,
            workers: 1,
            ..Default::default()
        };
        let service = AnalysisService::new(config);
        let mut requests = Vec::new();
        for round in 1..=4 {
            // Distinct programs per round keep every request a plan-cache
            // miss, so every request actually chases. The arena is keyed
            // by the *compiled topology* (topology + analysis config),
            // shared across all four rounds of each stream.
            requests.push(AnalysisRequest::new(
                format!("fig7x{round}"),
                fig7(round),
                fig7_topology(),
            ));
            let transfer = parse_program(&format!(
                "cells 2\nmessage A: c0 -> c1\nprogram c0 {{ W(A)*{round} }}\n\
                 program c1 {{ R(A)*{round} }}\n",
            ))
            .unwrap();
            requests.push(AnalysisRequest::new(
                format!("linear#{round}"),
                transfer,
                Topology::linear(2),
            ));
        }
        let responses = service.run_batch(requests);
        assert!(responses.iter().all(AnalysisResponse::is_certified));
        let arenas = service.arena_cache_stats();
        assert_eq!(arenas.misses, 2, "one arena build per topology: {arenas:?}");
        assert_eq!(
            arenas.hits, 6,
            "every later chase reuses a warm arena: {arenas:?}"
        );
        assert_eq!(arenas.evictions, 0);
        assert!(arenas.hit_rate() > 0.7);
    }

    #[test]
    fn dedicated_verifier_pool_chases_misses() {
        let config = ServiceConfig {
            verify: true,
            verify_threads: 2,
            ..Default::default()
        };
        let service = AnalysisService::new(config);
        let mut requests = Vec::new();
        for reps in 1..=6 {
            requests.push(AnalysisRequest::new(
                format!("fig7x{reps}"),
                fig7(reps),
                fig7_topology(),
            ));
        }
        let mut nine = AnalysisRequest::new("fig9", fig9(), fig9_topology());
        nine.config.queues_per_interval = 2;
        requests.push(nine);
        let responses = service.run_batch(requests);
        for response in &responses {
            let certified = response.outcome.as_ref().as_ref().unwrap();
            let report = certified.verified.as_ref().expect("pool chased the miss");
            assert!(report.completed, "{} failed its chase", response.name);
        }
        let arenas = service.arena_cache_stats();
        assert_eq!(
            arenas.hits + arenas.misses,
            7,
            "every miss was chased: {arenas:?}"
        );
        // Two pooled LRUs and two topologies: at most one build per
        // (LRU, topology) pair.
        assert!(arenas.misses <= 4, "{arenas:?}");
        assert_summary(&service, &["arena cache budget = 4 arenas/thread"]);
    }

    #[test]
    fn a_borrowed_lru_returns_to_the_pool_when_its_borrower_unwinds() {
        let pool = BoundedQueue::new(2);
        for _ in 0..2 {
            pool.try_push(ArenaLru::with_budget(3)).unwrap();
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _loan = LruLoan::borrow(&pool);
            assert_eq!(pool.len(), 1, "the loan holds one LRU");
            panic!("borrower unwinds");
        }));
        assert!(unwound.is_err());
        assert_eq!(pool.len(), 2, "the unwinding loan handed its LRU back");
        // The LRU that came back is a pooled one, not the placeholder.
        assert!((0..2).all(|_| pool.pop().unwrap().capacity() == 3));
    }

    #[test]
    fn verify_threads_do_not_change_answers() {
        // One mixed fig7/fig9/linear batch through a one-LRU pool
        // (`verify_threads` 0, one worker) and a two-LRU pool (2): every
        // wire field but the timings and trace ids must match —
        // status, labels, fingerprints, verified/verify_cycles, the
        // blocked-replay details and diagnostics. Latch queues make the
        // P2 replays deadlock, and one program is rejected outright.
        let mut requests = Vec::new();
        for reps in 1..=3 {
            requests.push(AnalysisRequest::new(
                format!("fig7x{reps}"),
                fig7(reps),
                fig7_topology(),
            ));
            let mut nine = AnalysisRequest::new(format!("fig9-{reps}"), fig9(), fig9_topology());
            nine.config.queues_per_interval = 2;
            requests.push(nine);
            let transfer = parse_program(&format!(
                "cells 3\nmessage A: c0 -> c2\nprogram c0 {{ W(A)*{reps} }}\n\
                 program c2 {{ R(A)*{reps} }}\n"
            ))
            .unwrap();
            requests.push(AnalysisRequest::new(
                format!("linear-{reps}"),
                transfer,
                Topology::linear(3),
            ));
            let mut p2 = AnalysisRequest::new(
                format!("p2-{reps}"),
                systolic_workloads::fig5_p2(),
                Topology::linear(2),
            );
            p2.config.queues_per_interval = 2;
            p2.config.lookahead = Lookahead::Unbounded;
            requests.push(p2);
        }
        let deadlocked = parse_program(
            "cells 2\nmessage A: c0 -> c1\nmessage B: c1 -> c0\n\
             program c0 { R(B) W(A) }\nprogram c1 { R(A) W(B) }\n",
        )
        .unwrap();
        requests.push(AnalysisRequest::new(
            "deadlocked",
            deadlocked,
            Topology::linear(2),
        ));

        let answers = |verify_threads: usize| -> Vec<String> {
            let service = AnalysisService::new(ServiceConfig {
                workers: 1,
                verify: true,
                verify_threads,
                sim: SimConfig {
                    queue: systolic_sim::QueueConfig {
                        capacity: 0,
                        extension: false,
                    },
                    ..Default::default()
                },
                ..Default::default()
            });
            service
                .run_batch(requests.clone())
                .iter()
                .map(|response| {
                    let line = crate::wire::WireResponse::Analysis(response).to_json();
                    let Ok(crate::Json::Obj(mut members)) = crate::Json::parse(&line) else {
                        panic!("analysis responses render as objects");
                    };
                    members.retain(|(key, _)| {
                        !matches!(key.as_str(), "micros" | "analysis_micros" | "trace")
                    });
                    crate::Json::Obj(members).to_string()
                })
                .collect()
        };
        let local = answers(0);
        assert_eq!(local, answers(2));
        assert!(local.iter().any(|line| line.contains(r#""verified":true"#)));
        assert!(local
            .iter()
            .any(|line| line.contains(r#""verify_blocked_cell""#)));
        assert!(local
            .iter()
            .any(|line| line.contains(r#""code":"E-DEADLOCK""#)));
    }

    #[test]
    fn verify_threads_without_verify_is_inert() {
        let config = ServiceConfig {
            verify: false,
            verify_threads: 4,
            ..Default::default()
        };
        let service = AnalysisService::new(config);
        let response = service.submit(fig7_request()).wait();
        let certified = response.outcome.as_ref().as_ref().unwrap();
        assert!(certified.verified.is_none(), "no chase without verify");
        assert_eq!(service.arena_cache_stats(), ArenaCacheStats::default());
    }

    #[test]
    fn summary_breaks_verification_down_by_topology() {
        // One topology whose chases complete and one whose latch replay
        // blocks: the per-topology tallies must separate them.
        let sim = SimConfig {
            queue: systolic_sim::QueueConfig {
                capacity: 0,
                extension: false,
            },
            ..Default::default()
        };
        let config = ServiceConfig {
            verify: true,
            sim,
            workers: 1,
            ..Default::default()
        };
        let service = AnalysisService::new(config);
        // fig7 completes even on latch queues.
        for reps in 1..=2 {
            let response = service
                .submit(AnalysisRequest::new(
                    format!("fig7x{reps}"),
                    fig7(reps),
                    fig7_topology(),
                ))
                .wait();
            assert!(response.is_certified());
        }
        // P2 certifies under lookahead but deadlocks on latches.
        let mut p2 = AnalysisRequest::new(
            "p2-latch",
            systolic_workloads::fig5_p2(),
            Topology::linear(2),
        );
        p2.config.queues_per_interval = 2;
        p2.config.lookahead = Lookahead::Unbounded;
        assert!(service.submit(p2).wait().is_certified());

        assert_summary(
            &service,
            &[
                "verify[linear:2] = 0 ok / 1 blocked",
                &format!("verify[{}] = 2 ok / 0 blocked", fig7_topology().spec()),
                "arena cache hits = 1",
            ],
        );
    }

    #[test]
    fn arena_survives_a_panicked_request_and_keeps_serving() {
        // A poisoned request panics in *analysis* (never reaching the
        // chase); the worker's warm arenas must survive it and keep
        // hitting for healthy same-topology traffic.
        let config = ServiceConfig {
            verify: true,
            workers: 1,
            ..Default::default()
        };
        let service = AnalysisService::new(config);
        assert!(service
            .submit(AnalysisRequest::new("warm", fig7(2), fig7_topology()))
            .wait()
            .is_certified());

        let poisoned = AnalysisRequest::new(PANIC_SENTINEL, fig7(4), fig7_topology());
        let response = service.submit(poisoned).wait();
        assert_eq!(
            response.outcome.as_ref().as_ref().err().map(|r| &r.error),
            Some(&ServiceError::Panicked("sentinel request".to_owned()))
        );

        let after = service
            .submit(AnalysisRequest::new("healthy", fig7(3), fig7_topology()))
            .wait();
        let certified = after.outcome.as_ref().as_ref().unwrap();
        assert!(certified.verified.as_ref().expect("chase ran").completed);
        let arenas = service.arena_cache_stats();
        assert_eq!(
            arenas.hits, 1,
            "the fig7 arena stayed warm across the panic: {arenas:?}"
        );
    }

    #[test]
    fn failed_chase_reports_first_blocked_cell_and_cycle() {
        // Certify P2 under lookahead, then replay it on capacity-0 latch
        // queues: the chase deadlocks and the report must say where.
        let sim = SimConfig {
            queue: systolic_sim::QueueConfig {
                capacity: 0,
                extension: false,
            },
            ..Default::default()
        };
        let config = ServiceConfig {
            verify: true,
            sim,
            ..Default::default()
        };
        let service = AnalysisService::new(config);
        let mut request = AnalysisRequest::new(
            "p2-latch",
            systolic_workloads::fig5_p2(),
            Topology::linear(2),
        );
        request.config.queues_per_interval = 2;
        request.config.lookahead = Lookahead::Unbounded;
        let response = service.submit(request).wait();
        let certified = response.outcome.as_ref().as_ref().unwrap();
        let report = certified.verified.as_ref().expect("verification ran");
        assert!(!report.completed, "latch replay must deadlock");
        let deadlock = report.deadlock.as_ref().expect("deadlock detail attached");
        assert_eq!(deadlock.first_blocked, systolic_model::CellId::new(0));
        assert!(deadlock.cycle > 0);
    }

    #[test]
    fn deadlocked_programs_are_rejected_and_cached() {
        let program = parse_program(
            "cells 2\nmessage A: c0 -> c1\nmessage B: c1 -> c0\n\
             program c0 { R(B) W(A) }\nprogram c1 { R(A) W(B) }\n",
        )
        .unwrap();
        let request = AnalysisRequest::new("deadlock", program, Topology::linear(2));
        let service = AnalysisService::new(ServiceConfig::default());
        let a = service.submit(request.clone()).wait();
        assert!(matches!(
            a.outcome.as_ref(),
            Err(r) if matches!(r.error, ServiceError::Analysis(CoreError::ProgramDeadlocked { .. }))
        ));
        let rejection = a.outcome.as_ref().as_ref().unwrap_err();
        assert!(
            !rejection.diagnostics.is_empty(),
            "rejections carry structured diagnostics"
        );
        let b = service.submit(request).wait();
        assert_eq!(b.provenance, CacheProvenance::Hit, "errors are cached too");
    }

    #[test]
    fn different_configs_are_different_cache_entries() {
        let service = AnalysisService::new(ServiceConfig::default());
        let mut request = fig7_request();
        let a = service.submit(request.clone()).wait();
        request.config.lookahead = Lookahead::Unbounded;
        request.config.queues_per_interval = 2;
        let b = service.submit(request).wait();
        assert_eq!(b.provenance, CacheProvenance::Miss);
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_eq!(service.cache_entries(), 2);
    }

    #[test]
    fn run_batch_preserves_order_and_counts() {
        let service = AnalysisService::new(ServiceConfig::default());
        let requests: Vec<AnalysisRequest> = (0..20)
            .map(|i| {
                let mut r = fig7_request();
                r.name = format!("req-{i}");
                r
            })
            .collect();
        let responses = service.run_batch(requests);
        assert_eq!(responses.len(), 20);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.name, format!("req-{i}"));
            assert!(r.is_certified());
        }
        assert_eq!(counter(&service, names::SERVICE_REQUESTS), 20);
        // 20 identical requests: at least one miss, and once cached every
        // later request hits. (More than one miss is possible only if
        // several workers raced the first fill.)
        assert!(service.cache_stats().hits >= 1, "some requests must hit");
        assert_eq!(service.cache_entries(), 1);
    }

    #[test]
    fn batch_misses_share_one_compilation() {
        // 16 distinct programs on one topology: 16 plan-cache misses but a
        // single published topology compilation, shared across the batch.
        let config = ServiceConfig::default();
        let service = AnalysisService::new(config);
        let requests: Vec<AnalysisRequest> = (1..=16).map(fig7_times).collect();
        let responses = service.run_batch(requests);
        assert!(responses.iter().all(AnalysisResponse::is_certified));
        assert_eq!(service.cache_entries(), 16);
        let stats = service.compilation_cache_stats();
        assert_eq!(stats.insertions, 1, "one compilation for the whole batch");
        assert_eq!(stats.entries, 1);
        // One compilation lookup per plan miss. Workers that race the
        // first fill may each miss (first writer wins the insert), but no
        // more than once each.
        assert_eq!(stats.hits + stats.misses, 16, "{stats:?}");
        assert!(stats.misses <= config.workers as u64, "{stats:?}");

        // A different topology (or config) compiles separately.
        let mut other = AnalysisRequest::new("fig9", fig9(), fig9_topology());
        other.config.queues_per_interval = 2;
        assert!(service.submit(other).wait().is_certified());
        assert_eq!(service.compilation_cache_stats().entries, 2);
    }

    #[test]
    fn backpressure_bounds_the_queue() {
        // One worker, tiny queue: a 50-request batch must still complete,
        // paced by backpressure rather than queue growth.
        let config = ServiceConfig {
            workers: 1,
            queue_depth: 2,
            ..Default::default()
        };
        let service = AnalysisService::new(config);
        let requests: Vec<AnalysisRequest> = (0..50).map(|_| fig7_request()).collect();
        let responses = service.run_batch(requests);
        assert_eq!(responses.len(), 50);
        assert!(responses.iter().all(AnalysisResponse::is_certified));
    }

    #[test]
    fn infeasible_config_is_a_rejected_outcome() {
        let program = fig9();
        let mut request = AnalysisRequest::new("fig9", program, fig9_topology());
        request.config.queues_per_interval = 1; // fig9 needs 2
        let service = AnalysisService::new(ServiceConfig::default());
        let response = service.submit(request).wait();
        assert!(matches!(
            response.outcome.as_ref(),
            Err(r) if matches!(r.error, ServiceError::Analysis(CoreError::Infeasible { .. }))
        ));
        let rejection = response.outcome.as_ref().as_ref().unwrap_err();
        let infeasible = rejection
            .diagnostics
            .iter()
            .find(|d| d.code() == systolic_core::DiagnosticCode::Infeasible)
            .expect("infeasible diagnostic");
        assert!(!infeasible.cell_ids().is_empty());
        assert!(!infeasible.message_ids().is_empty());
    }

    #[test]
    fn analysis_panics_are_contained_to_one_request() {
        // The sentinel request panics inside the analysis — the worker must
        // catch the panic, answer this request as rejected, and keep
        // serving.
        let poisoned = AnalysisRequest::new(PANIC_SENTINEL, fig7(2), fig7_topology());
        let service = AnalysisService::new(ServiceConfig::default());
        let response = service.submit(poisoned).wait();
        assert_eq!(
            response.outcome.as_ref().as_ref().err().map(|r| &r.error),
            Some(&ServiceError::Panicked("sentinel request".to_owned()))
        );
        // The pool survives and serves later requests normally.
        let healthy = service.submit(fig7_request()).wait();
        assert!(healthy.is_certified());
    }

    #[test]
    fn a_short_lookahead_table_is_refused_uncached() {
        // An explicit lookahead table shorter than the message count would
        // make the analysis index out of bounds as soon as crossing-off
        // skips the uncovered message. The worker refuses it with a typed
        // error instead, caches nothing, and keeps serving; an edit naming
        // the refused request finds no base rather than panicking on the
        // calling thread.
        let program = parse_program(
            "cells 2\nmessage A: c0 -> c1\nmessage B: c0 -> c1\n\
             program c0 { W(B) W(A) }\nprogram c1 { R(A) R(B) }\n",
        )
        .unwrap();
        let mut short = AnalysisRequest::new("short", program, Topology::linear(2));
        short.config.lookahead =
            Lookahead::Explicit(systolic_core::LookaheadLimits::from_table(vec![None]));
        let service = AnalysisService::new(ServiceConfig::default());
        let response = service.submit(short).wait();
        let Err(rejection) = response.outcome.as_ref() else {
            panic!("a short table must be refused");
        };
        assert_eq!(
            rejection.error,
            ServiceError::InvalidConfig(
                "lookahead array has 1 entries but the program declares 2 messages".to_owned()
            )
        );
        assert_eq!(service.cache_entries(), 0, "the refusal is never cached");
        assert_eq!(service.cache_stats().misses, 1, "it is a probed miss");
        let edit = service.apply_edit(
            "e1",
            response.fingerprint,
            &[NamedEditOp::Append {
                cell: "c0".to_owned(),
                write: true,
                message: "A".to_owned(),
            }],
        );
        assert!(matches!(
            edit,
            Err(EditRequestError::UnknownBase { base }) if base == response.fingerprint
        ));
        // The pool serves later requests normally.
        let healthy = service.submit(fig7_request()).wait();
        assert!(healthy.is_certified());
    }

    #[test]
    fn responses_carry_distinct_trace_ids_with_request_spans() {
        let service = AnalysisService::new(ServiceConfig::default());
        let mut ids = Vec::new();
        for reps in 1..=3 {
            let response = service
                .submit(AnalysisRequest::new(
                    format!("fig7x{reps}"),
                    fig7(reps),
                    fig7_topology(),
                ))
                .wait();
            assert!(response.trace_id > 0);
            ids.push(response.trace_id);
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3, "every request gets its own trace");

        let spans = service.obs().tracer().snapshot();
        for &id in &ids {
            let root = spans
                .iter()
                .find(|s| s.trace.0 == id && s.name == "request")
                .expect("each trace has a request root span");
            assert!(root.parent.is_none());
            // Misses nest analyzer stage spans under the request root.
            let stages: Vec<_> = spans
                .iter()
                .filter(|s| s.trace.0 == id && s.name != "request")
                .collect();
            assert!(!stages.is_empty(), "miss traces carry stage spans");
            assert!(stages.iter().all(|s| s.parent == Some(root.span)));
        }
    }

    #[test]
    fn histogram_percentiles_bound_the_exact_truth() {
        let service = AnalysisService::new(ServiceConfig::default());
        let requests: Vec<AnalysisRequest> = (1..=32)
            .map(|reps| AnalysisRequest::new(format!("fig7x{reps}"), fig7(reps), fig7_topology()))
            .collect();
        // Every response carries the exact handling time the histogram
        // recorded for it: together they are the ground truth.
        let mut samples: Vec<u64> = service
            .run_batch(requests)
            .iter()
            .map(|response| response.handle_micros)
            .collect();
        let latency = service
            .registry_snapshot()
            .histogram_value(names::SERVICE_HANDLE_DURATION, &[]);
        let count = samples.len() as u64;
        samples.sort_unstable();
        assert_eq!(latency.count, count);
        assert_eq!(latency.max, samples[samples.len() - 1]);
        for q in [0.5, 0.99] {
            let rank = ((q * count as f64).ceil() as usize).clamp(1, count as usize);
            let exact = samples[rank - 1];
            let estimate = latency.quantile(q);
            assert!(
                estimate >= exact,
                "histogram q={q} must never underestimate: {estimate} < {exact}"
            );
            assert!(
                estimate <= exact.saturating_mul(2).max(1),
                "histogram q={q} overestimates by 2x at most: {estimate} vs {exact}"
            );
        }
    }

    #[test]
    fn registry_mirrors_service_counters_and_outcomes() {
        let config = ServiceConfig {
            verify: true,
            workers: 1,
            ..Default::default()
        };
        let service = AnalysisService::new(config);
        for reps in 1..=3 {
            assert!(service
                .submit(AnalysisRequest::new(
                    format!("fig7x{reps}"),
                    fig7(reps),
                    fig7_topology(),
                ))
                .wait()
                .is_certified());
        }
        let snapshot = service.registry_snapshot();
        assert_eq!(snapshot.counter_value(names::SERVICE_REQUESTS, &[]), 3);
        assert_eq!(
            snapshot
                .histogram_value(names::SERVICE_HANDLE_DURATION, &[])
                .count,
            3
        );
        let spec = fig7_topology().spec();
        assert_eq!(
            snapshot.counter_value(
                names::VERIFY_OUTCOMES,
                &[("topology", &spec), ("outcome", "ok")],
            ),
            3
        );
        // The arena series come from the worker's LRU (single writer).
        let arenas = service.arena_cache_stats();
        assert_eq!(arenas.misses, 1);
        assert_eq!(arenas.hits, 2);
        // Plan-cache counters are mirrored into export gauges on snapshot.
        assert_eq!(snapshot.gauge_value(names::PLAN_CACHE_MISSES, &[]), 3);
        assert_eq!(snapshot.gauge_value(names::PLAN_CACHE_ENTRIES, &[]), 3);
        assert!(snapshot.gauge_value(names::HW_THREADS, &[]) >= 1);
        // Queue drained: depth gauge returns to zero.
        assert_eq!(snapshot.gauge_value(names::SERVICE_QUEUE_DEPTH, &[]), 0);
        // And the whole thing renders as a Prometheus exposition.
        let text = snapshot.render_prometheus();
        assert!(text.contains("systolic_service_requests_total 3"), "{text}");
        assert!(
            text.contains("systolic_analyzer_stage_duration_micros_bucket"),
            "{text}"
        );
    }

    // --- incremental edit path ---

    /// Four cells, two independent A/B streams: appending the balanced
    /// pair W(A)/R(A) dirties 2 of 4 cells — exactly the default 0.5
    /// fallback ratio, which is not *exceeded*, so the edit stays on the
    /// incremental path.
    const EDIT_BASE: &str = "cells 4\n\
         message A: c0 -> c1\n\
         message B: c2 -> c3\n\
         program c0 { W(A) }\n\
         program c1 { R(A) }\n\
         program c2 { W(B) }\n\
         program c3 { R(B) }\n";

    fn edit_base_request(name: &str) -> AnalysisRequest {
        AnalysisRequest::new(name, parse_program(EDIT_BASE).unwrap(), Topology::linear(4))
    }

    fn append(cell: &str, write: bool, message: &str) -> NamedEditOp {
        NamedEditOp::Append {
            cell: cell.to_owned(),
            write,
            message: message.to_owned(),
        }
    }

    #[test]
    fn edit_with_unknown_base_is_rejected() {
        let service = AnalysisService::new(ServiceConfig::default());
        let err = service.apply_edit("e", 42, &[]).unwrap_err();
        assert_eq!(err, EditRequestError::UnknownBase { base: 42 });
        assert!(err.to_string().contains("submit the full program first"));
    }

    #[test]
    fn edit_matches_a_fresh_submit_of_the_edited_program() {
        let service = AnalysisService::new(ServiceConfig::default());
        let base = service.submit(edit_base_request("base")).wait();
        assert!(base.is_certified());

        let ops = [append("c0", true, "A"), append("c1", false, "A")];
        let edit = service.apply_edit("e1", base.fingerprint, &ops).unwrap();
        assert_eq!(edit.base, base.fingerprint);
        assert_eq!(edit.response.provenance, CacheProvenance::Incremental);
        assert_eq!(edit.reuse.dirty_cells, 2);
        assert!(edit.reuse.fallback.is_none());
        assert!(edit.reuse.reused_routes, "topology untouched");

        // The incremental outcome must be indistinguishable from a
        // from-scratch analysis of the edited program text.
        let edited = EDIT_BASE
            .replace("program c0 { W(A) }", "program c0 { W(A)*2 }")
            .replace("program c1 { R(A) }", "program c1 { R(A)*2 }");
        let fresh = service
            .submit(AnalysisRequest::new(
                "fresh",
                parse_program(&edited).unwrap(),
                Topology::linear(4),
            ))
            .wait();
        assert_eq!(
            fresh.provenance,
            CacheProvenance::Miss,
            "incremental outcomes are not published to the plan cache"
        );
        assert_eq!(edit.response.fingerprint, fresh.fingerprint);
        let incremental = edit.response.outcome.as_ref().as_ref().unwrap();
        let scratch = fresh.outcome.as_ref().as_ref().unwrap();
        assert_eq!(incremental.plan.fingerprint(), scratch.plan.fingerprint());
        assert_eq!(incremental.diagnostics, scratch.diagnostics);
        assert_eq!(incremental.message_labels, scratch.message_labels);
    }

    #[test]
    fn edits_chain_on_the_returned_fingerprint() {
        let service = AnalysisService::new(ServiceConfig::default());
        let base = service.submit(edit_base_request("base")).wait();
        let first = service
            .apply_edit(
                "e1",
                base.fingerprint,
                &[append("c0", true, "A"), append("c1", false, "A")],
            )
            .unwrap();
        assert!(first.response.is_certified());
        let second = service
            .apply_edit(
                "e2",
                first.response.fingerprint,
                &[append("c2", true, "B"), append("c3", false, "B")],
            )
            .unwrap();
        assert!(second.response.is_certified());
        assert_ne!(second.response.fingerprint, first.response.fingerprint);
        // Both edits ran warm (the second from the stored session).
        assert!(second.reuse.reused_routes);
        assert_eq!(counter(&service, names::INCREMENTAL_EDITS), 2);
        assert!(counter(&service, names::INCREMENTAL_HITS) >= 1);
    }

    #[test]
    fn invalid_edit_batches_preserve_the_base_session() {
        let service = AnalysisService::new(ServiceConfig::default());
        let base = service.submit(edit_base_request("base")).wait();

        // Name resolution failure: never reaches the core edit layer.
        let err = service
            .apply_edit(
                "bad-name",
                base.fingerprint,
                &[NamedEditOp::RemoveTail {
                    cell: "nope".to_owned(),
                }],
            )
            .unwrap_err();
        assert_eq!(err, EditRequestError::UnknownCellName("nope".to_owned()));

        // Core-layer rejection: linear topologies are not link-editable.
        let err = service
            .apply_edit(
                "bad-op",
                base.fingerprint,
                &[NamedEditOp::AddLink {
                    a: "c0".to_owned(),
                    b: "c3".to_owned(),
                }],
            )
            .unwrap_err();
        assert!(matches!(err, EditRequestError::Edit(_)));

        // The base session survived both rejections and still edits.
        let edit = service
            .apply_edit(
                "good",
                base.fingerprint,
                &[append("c0", true, "A"), append("c1", false, "A")],
            )
            .unwrap();
        assert!(edit.response.is_certified());
    }

    #[test]
    fn session_table_evicts_lru_at_capacity() {
        let service = AnalysisService::new(ServiceConfig {
            session_capacity: 1,
            ..Default::default()
        });
        let a = service.submit(edit_base_request("a")).wait();
        let b = service.submit(fig7_request()).wait();
        let balanced = [append("c0", true, "A"), append("c1", false, "A")];
        assert!(service
            .apply_edit("ea", a.fingerprint, &balanced)
            .unwrap()
            .response
            .is_certified());
        // The second base's session displaces the first (capacity 1).
        // (The batch keeps A's writes and reads balanced so the edited
        // program stays valid; whether analysis certifies it is
        // irrelevant here.)
        assert!(service
            .apply_edit(
                "eb",
                b.fingerprint,
                &[append("c2", true, "A"), append("c3", false, "A")],
            )
            .is_ok());
        assert_summary(
            &service,
            &[
                "incremental sessions = 1",
                "incremental session evictions = 1",
                "incremental edits = 2",
            ],
        );
        // An evicted base is still editable — it cold-seeds from the
        // request inputs its plan-cache entry keeps instead of failing.
        assert!(service.apply_edit("ea2", a.fingerprint, &balanced).is_ok());
    }

    #[test]
    fn certified_edits_are_chased_when_verify_is_on() {
        let service = AnalysisService::new(ServiceConfig {
            verify: true,
            ..Default::default()
        });
        let base = service.submit(edit_base_request("base")).wait();
        let edit = service
            .apply_edit(
                "e1",
                base.fingerprint,
                &[append("c0", true, "A"), append("c1", false, "A")],
            )
            .unwrap();
        let certified = edit.response.outcome.as_ref().as_ref().unwrap();
        let report = certified.verified.as_ref().expect("edit was chased");
        assert!(report.completed);
    }

    #[test]
    fn route_cache_counters_mirror_into_export_gauges() {
        // 300 cells exceeds MAX_CLOSURE_CELLS (256), so the compiled
        // topology skips the eager route closure and fills the per-pair
        // LRU on demand — one miss for the single message routed here.
        let links: String = (0..299)
            .map(|i| format!("{i}-{}", i + 1))
            .collect::<Vec<_>>()
            .join(",");
        let topology = Topology::from_spec(&format!("graph:300:{links}")).unwrap();
        let program = parse_program(
            "cells 300\n\
             message A: c0 -> c5\n\
             program c0 { W(A) }\n\
             program c5 { R(A) }\n",
        )
        .unwrap();
        let service = AnalysisService::new(ServiceConfig::default());
        let response = service
            .submit(AnalysisRequest::new("big", program, topology))
            .wait();
        assert!(response.is_certified());
        let routes = service.route_cache_stats();
        assert!(routes.misses >= 1, "{routes:?}");
        let snapshot = service.registry_snapshot();
        assert!(snapshot.gauge_value(names::ROUTE_CACHE_MISSES, &[]) >= 1);
    }

    /// A small mixed working set for the snapshot tests: several certified
    /// sizes of fig7 plus one cached rejection.
    fn snapshot_working_set() -> Vec<AnalysisRequest> {
        let mut requests: Vec<AnalysisRequest> = (1..=4)
            .map(|reps| AnalysisRequest::new(format!("fig7x{reps}"), fig7(reps), fig7_topology()))
            .collect();
        // A deadlocked exchange, so the snapshot also carries a cached
        // rejection.
        let deadlocked = parse_program(
            "cells 2\nmessage A: c0 -> c1\nmessage B: c1 -> c0\n\
             program c0 { R(B) W(A) }\nprogram c1 { R(A) W(B) }\n",
        )
        .unwrap();
        requests.push(AnalysisRequest::new(
            "deadlock",
            deadlocked,
            Topology::linear(2),
        ));
        requests
    }

    #[test]
    fn snapshot_roundtrip_warms_a_fresh_service() {
        let warm_source = AnalysisService::new(ServiceConfig::default());
        let originals = warm_source.run_batch(snapshot_working_set());
        let bytes = warm_source.export_snapshot();

        let restarted = AnalysisService::new(ServiceConfig::default());
        let report = restarted.import_snapshot(&bytes).expect("snapshot loads");
        assert_eq!(report.plans, 5);
        assert_eq!(report.dropped, 0);

        let replayed = restarted.run_batch(snapshot_working_set());
        for (original, replay) in originals.iter().zip(&replayed) {
            assert_eq!(
                replay.provenance,
                CacheProvenance::Warm,
                "{} must be served from the snapshot",
                replay.name
            );
            assert_eq!(replay.fingerprint, original.fingerprint);
            assert_eq!(
                replay.is_certified(),
                original.is_certified(),
                "{} outcome must survive the roundtrip",
                replay.name
            );
        }
        // Warmed entries stay Warm on later hits, so coverage is
        // observable across a whole replayed batch.
        let again = restarted.submit(fig7_request()).wait();
        assert_eq!(again.provenance, CacheProvenance::Warm);
        assert_summary(
            &restarted,
            &[
                "snapshot loads = 1",
                "snapshot plans restored = 5",
                "snapshot loads rejected = 0",
                "snapshot warm hits = 6",
            ],
        );
    }

    #[test]
    fn rejected_snapshot_load_leaves_service_cold() {
        let warm_source = AnalysisService::new(ServiceConfig::default());
        let _ = warm_source.run_batch(snapshot_working_set());
        let mut bytes = warm_source.export_snapshot();
        bytes[0] ^= 0x20; // break the magic

        let restarted = AnalysisService::new(ServiceConfig::default());
        let error = restarted.import_snapshot(&bytes).expect_err("bad magic");
        assert!(matches!(error, SnapshotError::BadMagic), "{error:?}");
        // A format-1 file: the version is read, and refused.
        let error = restarted
            .import_snapshot(b"SYSSNAP\0\x01\x00")
            .expect_err("version 1");
        assert!(
            matches!(
                error,
                SnapshotError::UnsupportedVersion {
                    found: 1,
                    supported: 2
                }
            ),
            "{error:?}"
        );
        // Nothing was installed: the next request is a plain cold miss.
        assert_eq!(restarted.cache_entries(), 0);
        let response = restarted.submit(fig7_request()).wait();
        assert_eq!(response.provenance, CacheProvenance::Miss);
        assert_summary(
            &restarted,
            &[
                "snapshot loads rejected = 2",
                "snapshot loads = 0",
                "snapshot plans restored = 0",
            ],
        );
    }

    #[test]
    fn truncated_snapshot_load_leaves_service_cold() {
        let warm_source = AnalysisService::new(ServiceConfig::default());
        let _ = warm_source.run_batch(snapshot_working_set());
        let bytes = warm_source.export_snapshot();

        let restarted = AnalysisService::new(ServiceConfig::default());
        let error = restarted
            .import_snapshot(&bytes[..bytes.len() / 2])
            .expect_err("truncated");
        // Typed rejection (exact variant depends on where the cut lands),
        // and — the guarantee under test — zero partial application.
        let _ = error;
        assert_eq!(restarted.cache_entries(), 0);
        assert_eq!(counter(&restarted, names::SNAPSHOT_LOAD_REJECTED), 1);
        let response = restarted.submit(fig7_request()).wait();
        assert_eq!(response.provenance, CacheProvenance::Miss);
    }

    #[test]
    fn skewed_and_repeated_records_drop_without_failing_the_load() {
        let warm_source = AnalysisService::new(ServiceConfig::default());
        let _ = warm_source.run_batch(snapshot_working_set());
        let mut data = snapshot::read_snapshot(&warm_source.export_snapshot()).unwrap();
        // A record whose inputs no longer fingerprint to its key, and a
        // second copy of another record: the first copy holds the slot.
        data.entries[0].fingerprint ^= 1;
        let skewed = data.entries[0].fingerprint;
        data.entries.push(data.entries[1].clone());
        let bytes = snapshot::write_snapshot(&data);

        let restarted = AnalysisService::new(ServiceConfig::default());
        let report = restarted.import_snapshot(&bytes).expect("load succeeds");
        assert_eq!((report.plans, report.dropped), (4, 2));
        assert_eq!(restarted.cache_entries(), 4);
        let snapshot = restarted.registry_snapshot();
        for reason in ["refingerprint", "already-cached"] {
            let labels = [("reason", reason)];
            assert_eq!(
                snapshot.counter_value(names::SNAPSHOT_DROPPED, &labels),
                1,
                "{reason}"
            );
        }
        assert_eq!(
            restarted.apply_edit("e", skewed, &[]).unwrap_err(),
            EditRequestError::UnknownBase { base: skewed },
            "a skewed record installs nothing"
        );
    }

    #[test]
    fn a_restored_lookahead_table_must_cover_its_program() {
        let program = parse_program(
            "cells 2\nmessage A: c0 -> c1\nmessage B: c0 -> c1\n\
             program c0 { W(B) W(A) }\nprogram c1 { R(A) R(B) }\n",
        )
        .unwrap();
        let warm_source = AnalysisService::new(ServiceConfig::default());
        let _ = warm_source
            .submit(AnalysisRequest::new("pair", program, Topology::linear(2)))
            .wait();
        // Rewrite the record's config to a one-entry explicit table for a
        // two-message program, fingerprint and all: an edit seeded from it
        // would index past the table.
        let mut data = snapshot::read_snapshot(&warm_source.export_snapshot()).unwrap();
        let record = &mut data.entries[0];
        record.config.lookahead =
            Lookahead::Explicit(systolic_core::LookaheadLimits::from_table(vec![Some(4)]));
        record.fingerprint = request_fingerprint(&record.program, &record.topology, &record.config);
        let base = record.fingerprint;
        let bytes = snapshot::write_snapshot(&data);

        let restarted = AnalysisService::new(ServiceConfig::default());
        let error = restarted.import_snapshot(&bytes).expect_err("rejected");
        assert!(matches!(error, SnapshotError::Codec(_)), "{error:?}");
        assert_eq!(restarted.cache_entries(), 0);
        assert_eq!(
            restarted.apply_edit("e", base, &[]).unwrap_err(),
            EditRequestError::UnknownBase { base }
        );
    }

    #[test]
    fn locally_computed_outcomes_beat_snapshot_copies() {
        let warm_source = AnalysisService::new(ServiceConfig::default());
        let _ = warm_source.run_batch(snapshot_working_set());
        let bytes = warm_source.export_snapshot();

        let restarted = AnalysisService::new(ServiceConfig::default());
        // This process computes fig7x1 before the snapshot arrives.
        let local = restarted.submit(fig7_request()).wait();
        assert_eq!(local.provenance, CacheProvenance::Miss);
        let report = restarted.import_snapshot(&bytes).expect("loads");
        assert_eq!(report.plans, 4, "the already-cached entry is skipped");
        // Its hits keep reporting plain Hit — the entry was computed
        // here, not restored.
        let again = restarted.submit(fig7_request()).wait();
        assert_eq!(again.provenance, CacheProvenance::Hit);
    }

    /// One worker and a one-shard, two-entry plan cache, so the LRU order
    /// of a request sequence is exact.
    fn two_entry_cache() -> ServiceConfig {
        ServiceConfig {
            workers: 1,
            cache: CacheConfig {
                shards: 1,
                capacity_per_shard: 2,
            },
            ..Default::default()
        }
    }

    #[test]
    fn a_hot_plan_keeps_its_seed() {
        let service = AnalysisService::new(two_entry_cache());
        let hot = service.submit(fig7_times(1)).wait();
        let _ = service.submit(fig7_times(2)).wait();
        assert_eq!(
            service.submit(fig7_times(1)).wait().provenance,
            CacheProvenance::Hit
        );
        // Evicts fig7x2, the least recently *used* entry.
        let _ = service.submit(fig7_times(3)).wait();

        let data = snapshot::read_snapshot(&service.export_snapshot()).unwrap();
        assert!(data
            .entries
            .iter()
            .any(|e| e.fingerprint == hot.fingerprint));
        let balanced = [append("c1", true, "C"), append("c4", false, "C")];
        let edit = service.apply_edit("e", hot.fingerprint, &balanced);
        assert!(edit.is_ok(), "{:?}", edit.err());
    }

    #[test]
    fn a_recomputed_entry_is_not_warm() {
        let donor = AnalysisService::new(two_entry_cache());
        let _ = donor.run_batch(vec![fig7_times(1), fig7_times(2)]);
        let service = AnalysisService::new(two_entry_cache());
        let report = service.import_snapshot(&donor.export_snapshot()).unwrap();
        assert_eq!(report.plans, 2);
        let served = |reps| service.submit(fig7_times(reps)).wait().provenance;
        assert_eq!(served(1), CacheProvenance::Warm);
        // Two fresh misses evict both restored entries.
        assert_eq!(served(3), CacheProvenance::Miss);
        assert_eq!(served(4), CacheProvenance::Miss);
        assert_eq!(served(1), CacheProvenance::Miss, "recomputed here");
        assert_eq!(served(1), CacheProvenance::Hit, "not restored anymore");
        assert_eq!(counter(&service, names::SNAPSHOT_WARM_HITS), 1);
    }

    #[test]
    fn save_and_load_roundtrip_via_files() {
        let path = std::env::temp_dir().join(format!(
            "systolic-snapshot-test-{}-{:?}.snap",
            std::process::id(),
            std::thread::current().id()
        ));
        let warm_source = AnalysisService::new(ServiceConfig::default());
        let _ = warm_source.run_batch(snapshot_working_set());
        let saved = warm_source.save_snapshot(&path).expect("saves");
        assert_eq!(saved.plans, 5);
        assert!(saved.bytes > 0);
        let bytes = format!("snapshot last save bytes = {}", saved.bytes);
        assert_summary(&warm_source, &["snapshot saves = 1", &bytes]);

        let restarted = AnalysisService::new(ServiceConfig::default());
        let loaded = restarted.load_snapshot(&path).expect("loads");
        assert_eq!(loaded.plans, 5);
        let replay = restarted.submit(fig7_request()).wait();
        assert_eq!(replay.provenance, CacheProvenance::Warm);
        let _ = std::fs::remove_file(&path);

        // A missing file is a rejected load, and the service stays cold.
        let cold = AnalysisService::new(ServiceConfig::default());
        let error = cold.load_snapshot(&path).expect_err("missing file");
        assert!(matches!(error, SnapshotError::Io(_)), "{error:?}");
        assert_eq!(counter(&cold, names::SNAPSHOT_LOAD_REJECTED), 1);
    }
}
