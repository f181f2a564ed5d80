//! Observability spine for the systolic workspace: a lock-light metrics
//! registry and a lightweight span tracer, dependency-free (std only).
//!
//! The rest of the workspace shares **one** [`Obs`] bundle (an `Arc`'d pair
//! of [`Registry`] + [`Tracer`]): the analyzer times its pipeline stages
//! into per-stage histograms and counts diagnostics per code, the arena
//! LRUs record build and replay timings and replay outcomes, and the
//! service exposes the whole registry as a Prometheus-style text
//! exposition or a JSON object per wire request.
//!
//! # Instruments
//!
//! * [`Counter`] — monotonic `u64`, lock-free `inc`/`add`.
//! * [`Gauge`] — signed value, lock-free `set`/`add`.
//! * [`Histogram`] — fixed log2-bucket histogram: value `v` lands in the
//!   bucket of its binary magnitude, so recording is three atomic ops and
//!   quantile estimates carry a documented **< 2x (one octave)
//!   overestimate, never an underestimate** (see [`metrics`]).
//!
//! Registration goes through [`Registry`] keyed by `(name, sorted labels)`;
//! the only lock is taken at registration, so hot paths hold the returned
//! `Arc`s and touch atomics only. Snapshots merge per-label series on
//! demand ([`RegistrySnapshot::histogram_total`]).
//!
//! # Spans
//!
//! [`Tracer`] issues per-request [`TraceId`]s and nests [`SpanEvent`]s via
//! parent span ids; finished spans land in a bounded in-memory ring (oldest
//! evicted, drops counted) and serialize to JSONL for `--trace-file`. See
//! [`trace`].
//!
//! ```
//! use systolic_obs::{names, Obs};
//!
//! let obs = Obs::new();
//! let hits = obs.registry().counter(names::ARENA_CACHE_HITS);
//! hits.inc();
//! let h = obs
//!     .registry()
//!     .histogram_with(names::ANALYZER_STAGE_DURATION, &[("stage", "plan")]);
//! h.record(42);
//! let text = obs.registry().render_prometheus();
//! assert!(text.contains("systolic_arena_cache_hits_total 1"));
//! assert!(text.contains("stage=\"plan\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::any::Any;
use std::sync::{Arc, Mutex, PoisonError};

pub mod metrics;
pub mod trace;

pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, MetricKey,
    Registry, RegistrySnapshot, HISTOGRAM_BUCKETS,
};
pub use trace::{ActiveSpan, SpanCtx, SpanEvent, SpanId, TraceId, Tracer, DEFAULT_TRACE_CAPACITY};

/// Shared metric names, so producers in different crates write the same
/// series and consumers grep stable strings.
pub mod names {
    /// Histogram: per-stage analyzer pipeline duration, labeled `stage`.
    pub const ANALYZER_STAGE_DURATION: &str = "systolic_analyzer_stage_duration_micros";
    /// Counter: diagnostics pushed per stable code, labeled `code`.
    pub const ANALYZER_DIAGNOSTICS: &str = "systolic_analyzer_diagnostics_total";
    /// Counter: arena LRU hits (warm arena reused).
    pub const ARENA_CACHE_HITS: &str = "systolic_arena_cache_hits_total";
    /// Counter: arena LRU misses (arena built).
    pub const ARENA_CACHE_MISSES: &str = "systolic_arena_cache_misses_total";
    /// Counter: arenas evicted by the residency budget.
    pub const ARENA_CACHE_EVICTIONS: &str = "systolic_arena_cache_evictions_total";
    /// Histogram: wall time to build a fresh arena, in microseconds.
    pub const ARENA_BUILD_DURATION: &str = "systolic_arena_build_duration_micros";
    /// Histogram: wall time for one verify replay (in-place arena reset +
    /// cycle-stepped run), in microseconds.
    pub const VERIFY_REPLAY_DURATION: &str = "systolic_verify_replay_duration_micros";
    /// Histogram: simulated cycles per verify replay, labeled `topology`.
    pub const VERIFY_REPLAY_CYCLES: &str = "systolic_verify_replay_cycles";
    /// Counter: verify chase outcomes, labeled `topology` and `outcome`.
    pub const VERIFY_OUTCOMES: &str = "systolic_verify_outcomes_total";
    /// Counter: requests handled by the service.
    pub const SERVICE_REQUESTS: &str = "systolic_service_requests_total";
    /// Histogram: end-to-end `handle()` latency in microseconds.
    pub const SERVICE_HANDLE_DURATION: &str = "systolic_service_handle_duration_micros";
    /// Gauge: submitted-but-unclaimed requests in the worker queue.
    pub const SERVICE_QUEUE_DEPTH: &str = "systolic_service_queue_depth";
    /// Gauge: plan-cache hits (mirrored from the sharded cache).
    pub const PLAN_CACHE_HITS: &str = "systolic_plan_cache_hits";
    /// Gauge: plan-cache misses (mirrored from the sharded cache).
    pub const PLAN_CACHE_MISSES: &str = "systolic_plan_cache_misses";
    /// Gauge: plan-cache evictions (mirrored from the sharded cache).
    pub const PLAN_CACHE_EVICTIONS: &str = "systolic_plan_cache_evictions";
    /// Gauge: plan-cache resident entries (mirrored from the sharded
    /// cache).
    pub const PLAN_CACHE_ENTRIES: &str = "systolic_plan_cache_entries";
    /// Gauge: hardware threads visible to the process.
    pub const HW_THREADS: &str = "systolic_hw_threads";
    /// Counter: edit batches applied to incremental analyzer sessions.
    pub const INCREMENTAL_EDITS: &str = "systolic_analyzer_incremental_edits_total";
    /// Counter: edits that reused at least one stage artifact.
    pub const INCREMENTAL_HITS: &str = "systolic_analyzer_incremental_hits_total";
    /// Counter: edits that fell back to from-scratch analysis, labeled
    /// `reason`.
    pub const INCREMENTAL_FALLBACKS: &str = "systolic_analyzer_incremental_fallbacks_total";
    /// Counter: cells marked dirty across all edit batches.
    pub const INCREMENTAL_DIRTY_CELLS: &str = "systolic_analyzer_incremental_dirty_cells_total";
    /// Counter: stage artifacts reused across edits, labeled `stage`.
    pub const INCREMENTAL_STAGE_REUSED: &str = "systolic_analyzer_incremental_stage_reused_total";
    /// Histogram: wall time for one incremental edit application, in
    /// microseconds.
    pub const INCREMENTAL_EDIT_DURATION: &str =
        "systolic_analyzer_incremental_edit_duration_micros";
    /// Gauge: live entries in the service's incremental session table.
    pub const INCREMENTAL_SESSIONS: &str = "systolic_service_incremental_sessions";
    /// Counter: incremental sessions evicted from the service table.
    pub const INCREMENTAL_SESSION_EVICTIONS: &str =
        "systolic_service_incremental_session_evictions_total";
    /// Gauge: per-pair route LRU hits (mirrored from the compiled
    /// topology).
    pub const ROUTE_CACHE_HITS: &str = "systolic_route_cache_hits";
    /// Gauge: per-pair route LRU misses (mirrored from the compiled
    /// topology).
    pub const ROUTE_CACHE_MISSES: &str = "systolic_route_cache_misses";
    /// Counter: cached plan outcomes restored from a snapshot load.
    pub const SNAPSHOT_LOADED_PLANS: &str = "systolic_service_snapshot_loaded_plans_total";
    /// Counter: snapshot entries dropped, labeled `reason`: at load,
    /// `refingerprint` (the recorded inputs no longer fingerprint to the
    /// record's key) and `already-cached` (the fingerprint is cached
    /// already, or repeated in the file); the load still succeeds. At
    /// export, `export-missing-seed`: cached outcomes without recorded
    /// request inputs.
    pub const SNAPSHOT_DROPPED: &str = "systolic_service_snapshot_dropped_total";
    /// Counter: whole snapshot loads rejected (corrupt, truncated or
    /// version-skewed files; the daemon keeps serving cold).
    pub const SNAPSHOT_LOAD_REJECTED: &str = "systolic_service_snapshot_load_rejected_total";
    /// Counter: snapshots written (flag-triggered, autosave or wire op).
    pub const SNAPSHOT_SAVES: &str = "systolic_service_snapshot_saves_total";
    /// Gauge: bytes in the most recently written snapshot.
    pub const SNAPSHOT_SAVE_BYTES: &str = "systolic_service_snapshot_save_bytes";
    /// Histogram: wall time for one snapshot load, in microseconds.
    pub const SNAPSHOT_LOAD_DURATION: &str = "systolic_service_snapshot_load_duration_micros";
    /// Histogram: wall time for one snapshot save, in microseconds.
    pub const SNAPSHOT_SAVE_DURATION: &str = "systolic_service_snapshot_save_duration_micros";
    /// Counter: cache hits served from snapshot-warmed entries.
    pub const SNAPSHOT_WARM_HITS: &str = "systolic_service_snapshot_warm_hits_total";
}

/// The shared observability bundle: one registry + one tracer, passed
/// around as `Arc<Obs>`.
#[derive(Debug, Default)]
pub struct Obs {
    registry: Registry,
    tracer: Tracer,
    /// Producers' handle sets, one per type (see [`Obs::handles`]).
    handles: Mutex<Vec<Arc<dyn Any + Send + Sync>>>,
}

impl Obs {
    /// Creates a bundle with the default trace-ring capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// This bundle's handle set of type `T`, created by `T::default()` on
    /// the first call and shared by every later one.
    ///
    /// A producer keeps the instrument handles it has resolved from the
    /// [`Registry`] here, so a short-lived producer over a long-lived
    /// bundle (a serving layer's per-request analyzer, say) finds them
    /// already resolved instead of locking the registry, building a key
    /// and searching its map for every sample.
    pub fn handles<T: Any + Send + Sync + Default>(&self) -> Arc<T> {
        let mut handles = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(found) = handles
            .iter()
            .find_map(|set| Arc::clone(set).downcast::<T>().ok())
        {
            return found;
        }
        let set = Arc::new(T::default());
        handles.push(Arc::clone(&set) as Arc<dyn Any + Send + Sync>);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_wires_registry_and_tracer() {
        let obs = Obs::new();
        obs.registry().counter(names::SERVICE_REQUESTS).inc();
        let trace = obs.tracer().new_trace();
        let span = obs.tracer().start(trace, None, "request");
        obs.tracer().finish(span);
        assert_eq!(
            obs.registry()
                .snapshot()
                .counter_value(names::SERVICE_REQUESTS, &[]),
            1
        );
        assert_eq!(obs.tracer().snapshot().len(), 1);
    }

    #[test]
    fn handle_sets_are_kept_once_per_bundle_and_type() {
        #[derive(Default)]
        struct Hits(std::sync::OnceLock<Arc<Counter>>);
        let obs = Obs::new();
        let first = obs.handles::<Hits>();
        first
            .0
            .get_or_init(|| obs.registry().counter(names::ARENA_CACHE_HITS))
            .inc();
        let again = obs.handles::<Hits>();
        assert!(Arc::ptr_eq(&first, &again));
        assert!(again.0.get().is_some(), "the resolved handle is kept");
        assert_eq!(
            obs.handles::<Vec<u8>>().len(),
            0,
            "another type, another set"
        );
        assert!(Obs::new().handles::<Hits>().0.get().is_none());
    }
}
