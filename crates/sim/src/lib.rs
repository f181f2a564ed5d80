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
//! A [`SimArena`] holds one topology's queue pools and run state and
//! resets them in place between replays; [`SimArena::verify`] replays a
//! certified plan over the plan's own routes. A serving layer replays
//! through [`ArenaLru::replay`]: at most a fixed number of arenas keyed by
//! compiled-topology fingerprint, with a replay panic contained to the
//! arena it ran in.
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
pub use engine::{run_simulation, RunOutcome, SimArena, SimConfig};
pub use policy::{
    AssignmentPolicy, CompatiblePolicy, FifoPolicy, Grant, GreedyPolicy, Request, StaticPolicy,
};
pub use pool::{PendingRequests, QueuePools};
pub use queue::{HwQueue, QueueConfig, Word};
pub use stats::{AssignmentEvent, RunStats};
pub use verify::{verify_plan, ReplayDeadlock, VerifyReport};
