//! # systolic — deadlock avoidance for systolic communication
//!
//! A full reproduction of H.T. Kung, *Deadlock Avoidance for Systolic
//! Communication* (Journal of Complexity **4**, 87–105, 1988), as a Rust
//! workspace. This umbrella crate re-exports the sub-crates:
//!
//! * [`model`] — programs, messages, topologies, routes (Section 2);
//! * [`core`] — the paper's contribution: the crossing-off procedure,
//!   lookahead, consistent labeling, compatible-assignment requirements and
//!   the staged [`core::Analyzer`] pipeline over precompiled topologies
//!   ([`core::CompiledTopology`]), with structured diagnostics
//!   (Sections 3–8);
//! * [`sim`] — a cycle-stepped array simulator with hardware queues, I/O
//!   forwarding, runtime assignment policies and deadlock diagnosis;
//! * [`threaded`] — an OS-thread runtime demonstrating that Theorem 1 is
//!   scheduling independent; it grants queues through the same
//!   [`sim::AssignmentPolicy`] objects the simulator runs;
//! * [`workloads`] — the paper's figure programs, classic systolic
//!   algorithm generators and mixed service traffic;
//! * [`report`] — tables and statistics for the experiment harness;
//! * [`service`] — the sharded, cached, batch analysis service with the
//!   `systolicd` JSONL front end;
//! * [`obs`] — the shared observability spine: a lock-light metrics
//!   registry (counters, gauges, log2-bucket histograms) and a span
//!   tracer that the analyzer, simulator, and service all record into,
//!   exported as Prometheus text (`systolicd --metrics-file`) or JSONL
//!   span logs (`--trace-file`).
//!
//! # Quickstart
//!
//! ```
//! use systolic::core::{AnalysisConfig, Analyzer};
//! use systolic::sim::{run_simulation, CompatiblePolicy, FifoPolicy, SimConfig};
//! use systolic::workloads::{fig7, fig7_topology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Fig. 7: three messages, one queue per interval.
//! let program = fig7(3);
//! let topology = fig7_topology();
//!
//! // A label-blind runtime deadlocks...
//! let naive = run_simulation(
//!     &program,
//!     &topology,
//!     Box::new(FifoPolicy::new()),
//!     SimConfig::default(),
//! )?;
//! assert!(naive.is_deadlocked());
//!
//! // ...while the paper's compile-time labels + compatible assignment complete.
//! let analyzer = Analyzer::for_topology(&topology, &AnalysisConfig::default());
//! let plan = analyzer.analyze(&program)?.into_plan();
//! let safe = run_simulation(
//!     &program,
//!     &topology,
//!     Box::new(CompatiblePolicy::new(plan)),
//!     SimConfig::default(),
//! )?;
//! assert!(safe.is_completed());
//! # Ok(())
//! # }
//! ```
//!
//! # Verifying at scale
//!
//! A [`sim::SimArena`] holds one topology's queue pools and run state,
//! reset in place between replays, and [`sim::SimArena::verify`] replays
//! a certified plan over the plan's own routes (plans travel as `Arc`s).
//! Plans over any mix of fabrics replay one at a time through
//! [`sim::ArenaLru::replay`]: an LRU of at most a fixed number of warm
//! arenas keyed by compiled-topology fingerprint, whose reports equal a
//! fresh arena's and which contains a replay panic to the one arena it
//! ran in. The serving layer keeps a pool of these LRUs; the thread that
//! computed a plan borrows one, replays, and hands it back, so the pool
//! size (`ServiceConfig::verify_threads`, default one per analysis
//! worker) caps concurrent replays and resident arenas. Tuning: an arena
//! count matching the distinct topologies each LRU sees.
//!
//! ```
//! use std::sync::Arc;
//! use systolic::core::{AnalysisConfig, Analyzer, CompiledTopology};
//! use systolic::sim::{SimArena, SimConfig};
//! use systolic::workloads::{fig7, fig7_topology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let compiled =
//!     CompiledTopology::compile(&fig7_topology(), &AnalysisConfig::default()).into_shared();
//! let analyzer = Analyzer::new(Arc::clone(&compiled));
//! let mut arena = SimArena::new(compiled.topology(), SimConfig::default());
//! for reps in 2..5 {
//!     let program = fig7(reps);
//!     let plan = Arc::new(analyzer.analyze(&program)?.into_plan());
//!     // One arena, three replays: its state is reset, not rebuilt.
//!     assert!(arena.verify(&program, &plan)?.completed);
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use systolic_core as core;
pub use systolic_model as model;
pub use systolic_obs as obs;
pub use systolic_report as report;
pub use systolic_service as service;
pub use systolic_sim as sim;
pub use systolic_threaded as threaded;
pub use systolic_workloads as workloads;
