//! OS-thread runtime for systolic programs.
//!
//! Where `systolic-sim` steps a deterministic clock, this crate runs each
//! cell and each forwarding hop as a *real* thread. The threads move words
//! through the simulator's own queues ([`systolic_sim::QueuePools`]) under
//! one lock, granted under one of the simulator's assignment policies
//! ([`systolic_sim::AssignmentPolicy`]) fed from the same
//! [`systolic_sim::PendingRequests`] list, so the rules checked here are
//! the rules the simulator replays.
//!
//! The point: Theorem 1's guarantee is **scheduling independent**. Under
//! the compatible assignment discipline a deadlock-free program completes
//! no matter how the OS interleaves the threads — which is exactly what the
//! tests assert, repeatedly, without any timing control. A run that
//! cannot complete is decided exactly, from its state: every blocked
//! thread registers in one wait table, and the run is deadlocked when
//! every unfinished thread waits.
//!
//! # Examples
//!
//! ```
//! use systolic_core::{AnalysisConfig, Analyzer};
//! use systolic_sim::CompatiblePolicy;
//! use systolic_threaded::{run_threaded, ThreadedConfig};
//! use systolic_workloads::{fig7, fig7_topology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = fig7(2);
//! let topology = fig7_topology();
//! let plan = Analyzer::for_topology(&topology, &AnalysisConfig::default())
//!     .analyze(&program)?
//!     .into_plan();
//! let outcome = run_threaded(
//!     &program,
//!     &topology,
//!     Box::new(CompatiblePolicy::new(plan)),
//!     ThreadedConfig::default(),
//! )?;
//! assert!(outcome.is_completed());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod controller;
mod runtime;

pub use runtime::{run_threaded, ThreadedConfig, ThreadedOutcome};
