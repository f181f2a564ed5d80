//! Deadlock avoidance for systolic communication — the analysis side of
//! H.T. Kung's 1988 paper.
//!
//! Under the systolic model a cell program operates directly on its hardware
//! I/O queues. That is fast — no local-memory staging — but a program whose
//! reads and writes are mis-ordered, or whose messages compete badly for the
//! fixed number of queues between adjacent cells, deadlocks at run time.
//! This crate implements the paper's compile-time machinery:
//!
//! * [`classify`] / [`classify_with`] — the **crossing-off procedure**
//!   (Section 3) and its **lookahead** variant for buffered queues
//!   (Section 8.1, rules R1/R2 via [`LookaheadLimits`]), deciding whether a
//!   program is *deadlock-free*;
//! * [`RelatedMessages`] — the interleaved-access relation (Section 6);
//! * [`label_messages`] — the **consistent labeling** scheme (Sections 6 and
//!   8.2) over exact rational [`Label`]s;
//! * [`check_consistency`] — the independent consistency definition
//!   (Section 5, step 1);
//! * [`CompetingSets`] / [`QueueRequirements`] — competing messages
//!   (Section 2.3) and the queue counts the simultaneous-assignment rule
//!   demands (Section 7, Theorem 1 assumption (ii));
//! * [`CompiledTopology`] + [`Analyzer`] — the staged pipeline: compile a
//!   `(Topology, AnalysisConfig)` pair once (route closure, lookahead
//!   budgets, content fingerprint), then analyze many programs against it,
//!   inspecting each stage and collecting structured [`Diagnostic`]s. A
//!   certified program yields a [`CommPlan`] that a runtime
//!   (`systolic-sim`, `systolic-threaded`) enforces with compatible queue
//!   assignment, which by **Theorem 1** guarantees the run completes.
//!
//! # Examples
//!
//! ```
//! use systolic_core::{Analyzer, AnalysisConfig};
//! use systolic_model::{parse_program, Topology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Fig. 7 of the paper.
//! let program = parse_program(
//!     "cells 4\n\
//!      message A: c1 -> c2\n\
//!      message B: c2 -> c3\n\
//!      message C: c0 -> c3\n\
//!      program c0 { W(C)*3 }\n\
//!      program c1 { W(A)*4 }\n\
//!      program c2 { R(A)*4 W(B)*3 }\n\
//!      program c3 { R(C)*3 R(B)*3 }\n",
//! )?;
//! let analyzer = Analyzer::for_topology(&Topology::linear(4), &AnalysisConfig::default());
//! let analysis = analyzer.analyze(&program)?;
//! // The paper's labels: A=1, B=3, C=2 — so one queue per interval suffices.
//! assert_eq!(analysis.plan().requirements().max_per_interval(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod analyzer;
pub mod codec;
mod competing;
mod compiled;
mod consistency;
mod constraint_labeling;
mod crossing_off;
mod diagnostics;
mod error;
mod fingerprint;
mod incremental;
mod label;
mod labeling;
mod limits;
mod pipeline;
mod plan;
mod related;
mod requirements;

pub(crate) use crossing_off::Machine;

pub use analyzer::{AnalysisOutcome, Analyzer, AnalyzerSession};
pub use codec::{
    read_uvarint, write_uvarint, CodecError, Decode, Encode, FieldReader, FieldWriter,
};
pub use competing::CompetingSets;
pub use compiled::{CompiledTopology, RouteCacheStats, MAX_CLOSURE_CELLS, ROUTE_CACHE_CAPACITY};
pub use consistency::{check_consistency, is_consistent, ConsistencyViolation};
pub use constraint_labeling::label_messages_robust;
pub use crossing_off::{classify, classify_with, Classification, Pair, Step, StuckReport, Trace};
pub use diagnostics::{Diagnostic, DiagnosticCode, Diagnostics, Severity};
pub use error::CoreError;
pub use fingerprint::request_fingerprint;
pub use incremental::{
    DirtySet, EditError, EditOp, FallbackReason, IncrementalConfig, IncrementalSession,
    ReuseReport, SessionDelta,
};
pub use label::Label;
pub use labeling::{label_messages, LabelRule, Labeling, LabelingReport};
pub use limits::LookaheadLimits;
pub use pipeline::{Analysis, AnalysisConfig, LabelingMethod, Lookahead};
pub use plan::CommPlan;
pub use related::RelatedMessages;
pub use requirements::QueueRequirements;
