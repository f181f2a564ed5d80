//! Program, message, topology and routing model for systolic communication.
//!
//! This crate is the shared substrate of the reproduction of H.T. Kung,
//! *Deadlock Avoidance for Systolic Communication* (1988). It provides the
//! paper's Section 2 abstractions:
//!
//! * **cells** ([`CellId`]) — processing elements of an array of any
//!   dimensionality; the host is treated as a cell;
//! * **messages** ([`MessageDecl`]) — word sequences with a declared sender
//!   and receiver, declared prior to execution;
//! * **programs** ([`Program`]) — one op list per cell, restricted to the
//!   `R(X)`/`W(X)` operations ([`Op`]) the deadlock-avoidance machinery
//!   inspects;
//! * **topologies** ([`Topology`]) — linear arrays, rings, 2-D meshes and
//!   arbitrary graphs, with deterministic minimum-length routing;
//! * **routes** ([`Route`], [`MessageRoutes`]) — the interval crossings of
//!   each message, which determine competition for queues.
//!
//! Programs can be built fluently ([`ProgramBuilder`]) or parsed from a small
//! text format ([`parse_program`]) that mirrors the paper's figures.
//!
//! # Examples
//!
//! Fig. 6 of the paper — messages forming a cycle, program still fine:
//!
//! ```
//! use systolic_model::{parse_program, MessageRoutes, Topology};
//!
//! # fn main() -> Result<(), systolic_model::ModelError> {
//! let program = parse_program(
//!     "cells 4\n\
//!      message A: c0 -> c1\n\
//!      message B: c1 -> c2\n\
//!      message C: c2 -> c3\n\
//!      message D: c3 -> c0\n\
//!      program c0 { W(A) R(D) }\n\
//!      program c1 { R(A) W(B) }\n\
//!      program c2 { R(B) W(C) }\n\
//!      program c3 { R(C) W(D) }\n",
//! )?;
//! let routes = MessageRoutes::compute(&program, &Topology::linear(4))?;
//! // D must travel back across every interval of the linear array.
//! let d = program.message_id("D").unwrap();
//! assert_eq!(routes.route(d).num_hops(), 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod builder;
mod display;
mod error;
mod hash;
mod ids;
mod message;
mod op;
mod parse;
mod program;
mod route;
mod size;
mod topology;

pub use builder::{CellRef, ProgramBuilder};
pub use display::{program_to_text, side_by_side};
pub use error::ModelError;
pub use hash::{CanonicalHash, ContentHasher};
pub use ids::{CellId, Hop, Interval, MessageId, QueueId};
pub use message::MessageDecl;
pub use op::{Op, OpKind};
pub use parse::parse_program;
pub use program::{CellProgram, Program};
pub use route::{MessageRoutes, Route};
pub use size::SizeLimit;
pub use topology::{Topology, MAX_SPEC_CELLS};
