//! Cycle-stepped simulator for systolic arrays — the runtime side of
//! H.T. Kung, *Deadlock Avoidance for Systolic Communication* (1988).
//!
//! The simulator implements the paper's machine abstraction faithfully:
//!
//! * a fixed pool of hardware [queues](HwQueue) per interval, each serving
//!   one message at a time and released only after the message's last word
//!   has passed (Section 2.3);
//! * **latch** (capacity 0) or **buffered** queues, plus the iWarp-style
//!   **queue extension** into local memory (Section 8);
//! * transparent I/O forwarding processes that move words hop-by-hop along
//!   each message's route;
//! * pluggable run-time [assignment policies](AssignmentPolicy): the
//!   paper's **compatible dynamic assignment** ([`CompatiblePolicy`]:
//!   ordered + simultaneous rules, Section 7), **static** dedicated queues
//!   ([`StaticPolicy`]), and the label-blind baselines ([`FifoPolicy`],
//!   [`GreedyPolicy`]) that reproduce the deadlocks of Figs. 7–9;
//! * cost models contrasting **systolic** and **memory-to-memory**
//!   communication (Fig. 1);
//! * quiescence-based deadlock detection with a full
//!   [diagnosis](DeadlockReport).
//!
//! # Verifying at scale
//!
//! The engine is split into an immutable per-batch [`SimWorld`] (topology,
//! optionally precompiled; simulation parameters) and a reusable
//! [`SimArena`] whose run state — queue pools, program counters, per-hop
//! word tables — is **reset in place** between replays rather than
//! reallocated. Batch verification ([`verify_batch_compiled`]) replays a
//! whole batch of certified plans through one arena: routes come from each
//! plan, plans are shared as `Arc<CommPlan>`, and the queue pool grows to
//! the batch's largest requirement once. That is what lets a serving layer
//! chase cached analyses with simulator replays at cache-hit throughput.
//!
//! Beyond one-topology batches, certified plans replay one at a time
//! through [`ArenaLru::replay`]: an LRU of arenas keyed by
//! compiled-topology fingerprint, so topology-interleaved traffic
//! switches worlds by warm lookup instead of rebuild. Each LRU keeps at
//! most a fixed number of arenas and evicts the least recently used one
//! past it; pick the count ≈ the distinct topologies its holder sees. A
//! replay panic drops only the arena it ran in, and the report equals
//! the sequential path's for the same plan. An LRU is owned outright
//! while it replays, so a serving layer keeps a pool of them and lends
//! one to each replaying thread.
//!
//! ```
//! use std::sync::Arc;
//! use systolic_core::{AnalysisConfig, Analyzer, CompiledTopology};
//! use systolic_sim::{verify_batch_compiled, SimConfig};
//! use systolic_workloads::{fig7, fig7_topology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topology = fig7_topology();
//! let compiled = CompiledTopology::compile(&topology, &AnalysisConfig::default()).into_shared();
//! let analyzer = Analyzer::new(Arc::clone(&compiled));
//! let batch: Vec<_> = (2..6)
//!     .map(|reps| {
//!         let program = fig7(reps);
//!         let plan = Arc::new(analyzer.analyze(&program)?.into_plan());
//!         Ok::<_, systolic_core::CoreError>((program, plan))
//!     })
//!     .collect::<Result<_, _>>()?;
//! let reports = verify_batch_compiled(
//!     batch.iter().map(|(p, plan)| (p, plan)),
//!     &compiled,
//!     SimConfig::default(),
//! )?;
//! assert!(reports.iter().all(|r| r.completed));
//! # Ok(())
//! # }
//! ```
//!
//! # Examples
//!
//! Fig. 7 end-to-end: the naive policy deadlocks, the compatible policy
//! completes.
//!
//! ```
//! use systolic_core::{AnalysisConfig, Analyzer};
//! use systolic_sim::{run_simulation, CompatiblePolicy, FifoPolicy, SimConfig};
//! use systolic_workloads::{fig7, fig7_topology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = fig7(3);
//! let topology = fig7_topology();
//! let config = SimConfig::default(); // one queue per interval
//!
//! let naive = run_simulation(&program, &topology, Box::new(FifoPolicy::new()), config)?;
//! assert!(naive.is_deadlocked());
//!
//! let analyzer = Analyzer::for_topology(&topology, &AnalysisConfig::default());
//! let plan = analyzer.analyze(&program)?.into_plan();
//! let safe = run_simulation(
//!     &program,
//!     &topology,
//!     Box::new(CompatiblePolicy::new(plan)),
//!     config,
//! )?;
//! assert!(safe.is_completed());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod arena_lru;
mod cost;
mod deadlock;
mod engine;
mod policy;
mod pool;
mod queue;
mod stats;
mod verify;

pub use arena_lru::{ArenaLookup, ArenaLru, VerifyTaskError};
pub use cost::CostModel;
pub use deadlock::{BlockReason, BlockedCell, DeadlockReport, QueueSnapshot};
pub use engine::{run_simulation, RunOutcome, SimArena, SimConfig, SimWorld};
pub use policy::{
    AssignmentPolicy, CompatiblePolicy, FifoPolicy, Grant, GreedyPolicy, Request, StaticPolicy,
};
pub use pool::{PendingRequests, PoolView, QueuePools};
pub use queue::{HwQueue, QueueConfig, Word};
pub use stats::{AssignmentEvent, RunStats};
pub use verify::{verify_batch_compiled, verify_plan, ReplayDeadlock, VerifyReport};
