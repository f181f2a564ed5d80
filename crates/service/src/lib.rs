//! A sharded, cached, batch analysis service for systolic deadlock
//! avoidance.
//!
//! The staged analysis ([`Analyzer`](systolic_core::Analyzer)) is pure
//! compile-time work — exactly the kind of thing a toolchain serves to
//! many clients and amortizes across identical requests. This crate turns
//! it into that shared subsystem:
//!
//! * [`ShardedCache`] — an N-shard, mutex-per-shard LRU plan cache keyed
//!   by the 128-bit content fingerprint of `(Program, Topology,
//!   AnalysisConfig)` ([`systolic_core::request_fingerprint`]), with
//!   hit/miss/eviction counters per shard;
//! * [`BoundedQueue`] — the bounded submission queue whose blocking
//!   `push` is the service's backpressure;
//! * [`AnalysisService`] — the worker pool: fingerprints each request,
//!   serves hits from cache, computes misses (optionally chasing each
//!   certified plan with a `systolic_sim` verification run) and returns
//!   structured [`AnalysisResponse`]s with cache provenance and timings;
//! * verification chasing — the thread that computed a certified plan
//!   (an analysis worker, or the [`AnalysisService::apply_edit`] caller)
//!   borrows an [`ArenaLru`](systolic_sim::ArenaLru) from the service's
//!   verifier pool, replays the plan through its warm arena for the
//!   plan's compiled topology ([`ArenaLru::replay`](systolic_sim::ArenaLru::replay)),
//!   and hands it back. Each LRU keeps at most
//!   [`ServiceConfig::arena_cache_capacity`] arenas, least recently used
//!   evicted first; the pool holds one LRU per analysis worker, or
//!   [`ServiceConfig::verify_threads`] of them, which caps concurrent
//!   replays;
//! * [`wire`] + [`Json`] — the JSONL request/response format of the
//!   [`systolicd`](../systolicd/index.html) binary, which replays scripted
//!   traffic files end to end;
//! * observability — every service shares one
//!   [`Obs`](systolic_obs::Obs) bundle
//!   ([`AnalysisService::with_obs`]): analyzer stage timings, arena-cache
//!   and replay series, and request/verify spans all land in its
//!   registry/tracer, exported as a Prometheus text exposition
//!   ([`AnalysisService::registry_snapshot`]), a `metrics` wire op
//!   ([`wire::WireResponse::Metrics`]), the [`summary`] table and JSON
//!   object, or a JSONL span log;
//! * snapshot persistence — [`AnalysisService::save_snapshot`] /
//!   [`AnalysisService::load_snapshot`] round-trip the plan cache — each
//!   outcome with the request inputs it was computed from — through the
//!   versioned binary container in
//!   [`SNAPSHOT_MAGIC`]'s format, so a restarted daemon warms instantly
//!   (`systolicd serve --snapshot-load/--snapshot-save`); warmed hits
//!   report [`CacheProvenance::Warm`].
//!
//! # Examples
//!
//! ```
//! use systolic_service::{AnalysisRequest, AnalysisService, ServiceConfig};
//! use systolic_workloads::{traffic, TrafficConfig};
//!
//! let service = AnalysisService::new(ServiceConfig::default());
//! let requests = traffic(&TrafficConfig::default(), 42, 100)
//!     .iter()
//!     .map(AnalysisRequest::from_traffic)
//!     .collect();
//! let responses = service.run_batch(requests);
//! assert_eq!(responses.len(), 100);
//! assert!(service.cache_stats().hits > 0, "hot traffic repeats must hit the cache");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod cache;
pub mod daemon;
mod json;
mod queue;
mod service;
mod snapshot;
pub mod summary;
pub mod wire;

pub use cache::{CacheConfig, CacheStats, ShardedCache};
pub use json::{Json, JsonError};
pub use queue::{BoundedQueue, QueueClosed};
pub use service::{
    AnalysisRequest, AnalysisResponse, AnalysisService, ArenaCacheStats, CacheProvenance,
    Certified, EditRequestError, EditResponse, NamedEditOp, Rejection, ServiceConfig, ServiceError,
    ServiceOutcome, SnapshotReport, Ticket,
};
pub use snapshot::{SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
