//! Incremental reanalysis: dirty-tracked analyzer sessions.
//!
//! The staged [`Analyzer`] memoizes within one session, and the serving
//! layer's plan cache hits on byte-identical requests — but an interactive
//! client iterating on *one* program still pays full pipeline cost per
//! keystroke. This module makes that cost proportional to the edit:
//!
//! * [`EditOp`] — the edit vocabulary: append/remove ops at cell-program
//!   tails, add/remove links on searchable (graph) topologies;
//! * [`SessionDelta`] — applies a batch of edits to a base program,
//!   producing the edited [`Program`]/[`Topology`] plus a [`DirtySet`]
//!   recording exactly which cells, messages and structures changed;
//! * [`IncrementalSession`] — a warm analyzer session: each
//!   [`IncrementalSession::apply`] reuses every stage artifact the dirty
//!   set provably leaves valid (routes, competing sets, a resumed or
//!   wholesale-reused crossing-off classification, an early-stopping
//!   labeling driver) and recomputes the rest, falling back to
//!   from-scratch analysis when the dirty frontier exceeds
//!   [`IncrementalConfig::fallback_ratio`].
//!
//! **Correctness bar:** the incremental path produces byte-identical
//! [`CommPlan`](crate::CommPlan) fingerprints and [`Diagnostics`] to a
//! from-scratch [`Analyzer::diagnose`] of the edited program — held by
//! construction (reused stages are injected into the *same* stage
//! closures, so diagnostics are emitted uniformly) and enforced by the
//! `incremental_parity` property tests. Which stages may be reused when:
//!
//! | stage          | reusable when                                        |
//! |----------------|------------------------------------------------------|
//! | routes         | topology unchanged (edits never touch message decls) |
//! | competing      | topology unchanged (function of routes only)         |
//! | classification | program unchanged (topology-only edit, non-capacity  |
//! |                | lookahead), or *resumed* where the previous trace    |
//! |                | stopped (append-only edit, no lookahead — sound by   |
//! |                | confluence of the crossing-off procedure)            |
//! | labeling       | never wholesale; the assignments-only driver stops   |
//! |                | once every message is labeled (sound after a         |
//! |                | deadlock-free classification)                        |
//! | requirements   | competing sets reused and the new labeling equal to  |
//! |                | the base's (a function of those two alone)           |
//!
//! The session keeps one set of stage artifacts: each edit clears the ones
//! it invalidates, seeds the next analyzer session with the rest and keeps
//! what that session hands back. Reused artifacts are shared with the base
//! analysis behind `Arc`s, not copied. A classification's trace keeps the
//! per-message word counts its run stopped at, so every classification,
//! whether fresh, reused wholesale or resumed, can be resumed by the next
//! append, and a resumed run extends the base trace in place.
//!
//! # Examples
//!
//! ```
//! use systolic_core::{
//!     AnalysisConfig, Analyzer, EditOp, IncrementalConfig, IncrementalSession,
//! };
//! use systolic_model::{parse_program, Op, Topology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "cells 4\nmessage A: c0 -> c1\nprogram c0 { W(A)*2 }\nprogram c1 { R(A)*2 }\n",
//! )?;
//! let analyzer = Analyzer::for_topology(&Topology::linear(4), &AnalysisConfig::default());
//! let mut session =
//!     IncrementalSession::seed(analyzer, program.clone(), IncrementalConfig::default());
//! assert!(session.outcome().is_certified());
//!
//! // Append one more word of A: only the tail of each cell is re-crossed.
//! let a = program.message_id("A").unwrap();
//! let (c0, c1) = (program.cell_id("c0").unwrap(), program.cell_id("c1").unwrap());
//! let report = session.apply(&[
//!     EditOp::AppendOp { cell: c0, op: Op::write(a) },
//!     EditOp::AppendOp { cell: c1, op: Op::read(a) },
//! ])?;
//! assert!(report.resumed_classification);
//! assert!(session.outcome().is_certified());
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use systolic_model::{CellId, CellProgram, MessageId, ModelError, Op, Program, Topology};
use systolic_obs::SpanCtx;

use crate::analyzer::{AnalysisOutcome, Observed, StageArtifacts};
use crate::crossing_off::classify_resume;
use crate::{Analyzer, Classification, CompiledTopology, Diagnostics, Lookahead, LookaheadLimits};

/// One edit against an analyzed program or its topology.
///
/// Program edits are restricted to cell-program *tails* — the shape under
/// which the crossing-off machine's end state stays resumable (op
/// positions of the surviving prefix never move). Topology edits apply
/// only to searchable ([`Topology::graph`]) topologies, whose edge set is
/// free-form; the closed-form families (linear/ring/mesh/torus) derive
/// their links from their dimensions and reject link edits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EditOp {
    /// Append `op` at the end of `cell`'s program.
    AppendOp {
        /// The cell whose program grows.
        cell: CellId,
        /// The appended operation.
        op: Op,
    },
    /// Remove the last operation of `cell`'s program.
    RemoveTailOp {
        /// The cell whose program shrinks.
        cell: CellId,
    },
    /// Add an undirected link between `a` and `b` (graph topologies only;
    /// adding an existing link is a no-op, matching
    /// [`Topology::graph`]'s duplicate-edge merging).
    AddLink {
        /// One endpoint.
        a: CellId,
        /// The other endpoint.
        b: CellId,
    },
    /// Remove the undirected link between `a` and `b` (graph topologies
    /// only).
    RemoveLink {
        /// One endpoint.
        a: CellId,
        /// The other endpoint.
        b: CellId,
    },
}

/// Why an edit batch was rejected. Rejected batches leave the session
/// (and its base program/topology) unchanged.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum EditError {
    /// The edited program failed [`Program::new`] validation (e.g. a
    /// message's writes no longer equal its reads). Carries the exact
    /// error a from-scratch construction reports.
    InvalidProgram(ModelError),
    /// The edited edge set failed [`Topology::graph`] validation.
    InvalidTopology(ModelError),
    /// An edit referenced a cell outside the program.
    UnknownCell {
        /// The out-of-range cell.
        cell: CellId,
        /// The program's cell count.
        num_cells: usize,
    },
    /// [`EditOp::RemoveTailOp`] on a cell with no operations.
    EmptyCell {
        /// The empty cell.
        cell: CellId,
    },
    /// A link edit on a closed-form topology (linear/ring/mesh/torus),
    /// whose edge set is derived from its dimensions.
    TopologyNotEditable,
    /// [`EditOp::AddLink`] with both endpoints equal.
    SelfLink {
        /// The offending endpoint.
        cell: CellId,
    },
    /// [`EditOp::RemoveLink`] on a link that does not exist.
    NoSuchLink {
        /// One endpoint.
        a: CellId,
        /// The other endpoint.
        b: CellId,
    },
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::InvalidProgram(e) => write!(f, "edited program is invalid: {e}"),
            EditError::InvalidTopology(e) => write!(f, "edited topology is invalid: {e}"),
            EditError::UnknownCell { cell, num_cells } => {
                write!(
                    f,
                    "edit references {cell} but the program has {num_cells} cells"
                )
            }
            EditError::EmptyCell { cell } => {
                write!(
                    f,
                    "cannot remove an operation from {cell}: its program is empty"
                )
            }
            EditError::TopologyNotEditable => write!(
                f,
                "link edits require a graph topology; closed-form topologies derive \
                 their links from their dimensions"
            ),
            EditError::SelfLink { cell } => {
                write!(f, "cannot add a link from {cell} to itself")
            }
            EditError::NoSuchLink { a, b } => {
                write!(f, "no link between {a} and {b} to remove")
            }
        }
    }
}

impl std::error::Error for EditError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EditError::InvalidProgram(e) | EditError::InvalidTopology(e) => Some(e),
            _ => None,
        }
    }
}

/// What an edit batch invalidated: the dirty cells/messages plus whether
/// the topology changed or any operation was removed — exactly the facts
/// the reuse rules described in the module docs consult.
#[derive(Clone, Debug)]
pub struct DirtySet {
    cells: Vec<bool>,
    count: usize,
    messages: Vec<MessageId>,
    topology: bool,
    removals: bool,
}

impl DirtySet {
    fn clean(num_cells: usize) -> Self {
        DirtySet {
            cells: vec![false; num_cells],
            count: 0,
            messages: Vec::new(),
            topology: false,
            removals: false,
        }
    }

    fn mark(&mut self, cell: CellId, message: MessageId) {
        if !self.cells[cell.index()] {
            self.cells[cell.index()] = true;
            self.count += 1;
        }
        if !self.messages.contains(&message) {
            self.messages.push(message);
        }
    }

    /// Number of cells whose programs were edited.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Dirty cells as a fraction of all cells — what
    /// [`IncrementalConfig::fallback_ratio`] is compared against.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.cells.is_empty() {
            0.0
        } else {
            self.count as f64 / self.cells.len() as f64
        }
    }

    /// Messages touched by the edited operations, in first-touch order.
    #[must_use]
    pub fn messages(&self) -> &[MessageId] {
        &self.messages
    }

    /// `true` if any link was added or removed.
    #[must_use]
    pub fn topology_dirty(&self) -> bool {
        self.topology
    }

    /// `true` if any operation was removed (removals forfeit the resumed
    /// classification: the crossing-off machine cannot un-cross).
    #[must_use]
    pub fn has_removals(&self) -> bool {
        self.removals
    }
}

/// A validated edit batch: the edited program (and topology, for link
/// edits) plus the [`DirtySet`] it implies.
///
/// Construction applies *all* edits transactionally — any invalid edit
/// rejects the whole batch with an [`EditError`] and the base inputs are
/// untouched. Program-level invariants (balanced word counts, ops in
/// their declared cells) are re-checked by the same [`Program::new`]
/// validation a from-scratch build runs, so rejection outcomes are
/// byte-identical to rebuilding by hand.
#[derive(Clone, Debug)]
pub struct SessionDelta {
    program: Program,
    topology: Option<Topology>,
    dirty: DirtySet,
}

impl SessionDelta {
    /// Applies `edits` (in order) to `base` over `topology`.
    ///
    /// # Errors
    ///
    /// Any [`EditError`]; the batch is all-or-nothing.
    pub fn compute(
        base: &Program,
        topology: &Topology,
        edits: &[EditOp],
    ) -> Result<SessionDelta, EditError> {
        let num_cells = base.num_cells();
        let mut cells: Vec<Vec<Op>> = base.cells().iter().map(|cp| cp.ops().to_vec()).collect();
        let mut dirty = DirtySet::clean(num_cells);
        // Lazily materialized undirected edge set, only for link edits.
        let mut edges: Option<BTreeSet<(usize, usize)>> = None;
        for &edit in edits {
            match edit {
                EditOp::AppendOp { cell, op } => {
                    let ops = cells
                        .get_mut(cell.index())
                        .ok_or(EditError::UnknownCell { cell, num_cells })?;
                    ops.push(op);
                    dirty.mark(cell, op.message());
                }
                EditOp::RemoveTailOp { cell } => {
                    let ops = cells
                        .get_mut(cell.index())
                        .ok_or(EditError::UnknownCell { cell, num_cells })?;
                    let op = ops.pop().ok_or(EditError::EmptyCell { cell })?;
                    dirty.removals = true;
                    dirty.mark(cell, op.message());
                }
                EditOp::AddLink { a, b } => {
                    let edges = Self::link_target(topology, &mut edges, a, b, num_cells)?;
                    if a == b {
                        return Err(EditError::SelfLink { cell: a });
                    }
                    edges.insert(Self::endpoints(a, b));
                    dirty.topology = true;
                }
                EditOp::RemoveLink { a, b } => {
                    let edges = Self::link_target(topology, &mut edges, a, b, num_cells)?;
                    if !edges.remove(&Self::endpoints(a, b)) {
                        return Err(EditError::NoSuchLink { a, b });
                    }
                    dirty.topology = true;
                }
            }
        }
        let cell_names = (0..num_cells)
            .map(|i| base.cell_name(CellId::new(i as u32)).to_owned())
            .collect();
        let cells = cells.into_iter().map(CellProgram::new).collect();
        let program = Program::new(cell_names, base.messages().to_vec(), cells)
            .map_err(EditError::InvalidProgram)?;
        let topology = match edges {
            Some(edges) => Some(
                Topology::graph(
                    num_cells,
                    edges
                        .into_iter()
                        .map(|(a, b)| (CellId::new(a as u32), CellId::new(b as u32))),
                )
                .map_err(EditError::InvalidTopology)?,
            ),
            None => None,
        };
        Ok(SessionDelta {
            program,
            topology,
            dirty,
        })
    }

    fn endpoints(a: CellId, b: CellId) -> (usize, usize) {
        if a.index() <= b.index() {
            (a.index(), b.index())
        } else {
            (b.index(), a.index())
        }
    }

    /// Validates a link edit's endpoints and returns the working edge
    /// set, materializing it from `topology` on first use.
    fn link_target<'e>(
        topology: &Topology,
        edges: &'e mut Option<BTreeSet<(usize, usize)>>,
        a: CellId,
        b: CellId,
        num_cells: usize,
    ) -> Result<&'e mut BTreeSet<(usize, usize)>, EditError> {
        for cell in [a, b] {
            if cell.index() >= num_cells {
                return Err(EditError::UnknownCell { cell, num_cells });
            }
        }
        if !topology.uses_search_routing() {
            return Err(EditError::TopologyNotEditable);
        }
        Ok(edges.get_or_insert_with(|| {
            let mut set = BTreeSet::new();
            for i in 0..topology.num_cells() {
                let from = CellId::new(i as u32);
                for &to in topology.neighbors(from) {
                    if from.index() < to.index() {
                        set.insert((from.index(), to.index()));
                    }
                }
            }
            set
        }))
    }

    /// The edited program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The edited topology, when the batch contained link edits.
    #[must_use]
    pub fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }

    /// What the batch invalidated.
    #[must_use]
    pub fn dirty(&self) -> &DirtySet {
        &self.dirty
    }
}

/// Tuning knobs for [`IncrementalSession`].
#[derive(Clone, Copy, Debug)]
pub struct IncrementalConfig {
    /// When an edit batch dirties more than this fraction of cells, the
    /// session skips artifact reuse and reanalyzes from scratch — at a
    /// wide dirty frontier the bookkeeping buys nothing. `0.0` forces
    /// every edit down the fallback path (useful for differential
    /// testing); `1.0` never falls back.
    pub fallback_ratio: f64,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            fallback_ratio: 0.5,
        }
    }
}

/// Why an edit took the from-scratch path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum FallbackReason {
    /// The dirty frontier exceeded [`IncrementalConfig::fallback_ratio`].
    DirtyRatio,
}

impl FallbackReason {
    /// Stable label value for metrics and summaries.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FallbackReason::DirtyRatio => "dirty-ratio",
        }
    }
}

/// What one [`IncrementalSession::apply`] reused, for observability and
/// tests.
#[derive(Clone, Copy, Debug)]
#[must_use]
pub struct ReuseReport {
    /// Cells dirtied by the batch.
    pub dirty_cells: usize,
    /// Total cells in the program.
    pub total_cells: usize,
    /// Messages touched by the batch.
    pub dirty_messages: usize,
    /// The route table was reused unchanged.
    pub reused_routes: bool,
    /// The competing sets were reused unchanged.
    pub reused_competing: bool,
    /// Classification was *resumed* where the previous classification's
    /// trace stopped (implies [`ReuseReport::seeded_classification`]).
    pub resumed_classification: bool,
    /// Classification was injected instead of recomputed from scratch.
    pub seeded_classification: bool,
    /// The early-stopping labeling driver was used.
    pub fast_labeling: bool,
    /// Set when the edit was analyzed from scratch.
    pub fallback: Option<FallbackReason>,
}

impl ReuseReport {
    /// Dirty cells as a fraction of all cells.
    #[must_use]
    pub fn dirty_ratio(&self) -> f64 {
        if self.total_cells == 0 {
            0.0
        } else {
            self.dirty_cells as f64 / self.total_cells as f64
        }
    }

    /// `true` if any stage artifact was reused.
    #[must_use]
    pub fn reused_any(&self) -> bool {
        self.reused_routes || self.reused_competing || self.seeded_classification
    }
}

/// A warm, editable analyzer session: the current program, its full
/// [`AnalysisOutcome`], and the per-stage artifacts the next edit can
/// reuse.
///
/// Seed once with [`IncrementalSession::seed`], then [`apply`] edit
/// batches; each apply commits the edited program as the new base (even
/// when the edited program fails analysis — the outcome records the
/// failure exactly as [`Analyzer::diagnose`] would) and returns a
/// [`ReuseReport`]. Invalid batches ([`EditError`]) leave the session
/// untouched.
///
/// [`apply`]: IncrementalSession::apply
#[derive(Debug)]
pub struct IncrementalSession {
    analyzer: Analyzer,
    program: Arc<Program>,
    config: IncrementalConfig,
    outcome: AnalysisOutcome,
    artifacts: StageArtifacts,
}

impl IncrementalSession {
    /// Analyzes `program` from scratch and opens a warm session over it.
    pub fn seed(
        analyzer: Analyzer,
        program: impl Into<Arc<Program>>,
        config: IncrementalConfig,
    ) -> IncrementalSession {
        let program = program.into();
        let (outcome, artifacts) = analyzer
            .seeded_session(&program, None, StageArtifacts::default())
            .finish_with_artifacts();
        IncrementalSession {
            analyzer,
            program,
            config,
            outcome,
            artifacts,
        }
    }

    /// The current base program (the last committed edit).
    #[must_use]
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The analyzer the session runs against (its compilation follows
    /// topology edits).
    #[must_use]
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The current analysis outcome (result + diagnostics).
    #[must_use]
    pub fn outcome(&self) -> &AnalysisOutcome {
        &self.outcome
    }

    /// The accumulated diagnostics of the current outcome.
    #[must_use]
    pub fn diagnostics(&self) -> &Diagnostics {
        self.outcome.diagnostics()
    }

    /// The request fingerprint of the current `(program, topology,
    /// config)` — the key under which serving layers address this
    /// session.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        crate::request_fingerprint(
            &self.program,
            self.analyzer.compiled().topology(),
            self.analyzer.config(),
        )
    }

    /// Applies an edit batch: computes the [`SessionDelta`], reuses every
    /// surviving stage artifact, reanalyzes, and commits the edited
    /// program as the new base.
    ///
    /// # Errors
    ///
    /// [`EditError`] when the batch is invalid; the session is unchanged.
    pub fn apply(&mut self, edits: &[EditOp]) -> Result<ReuseReport, EditError> {
        self.apply_in(edits, None)
    }

    /// [`IncrementalSession::apply`] with a tracing context: reused
    /// stages appear as `reuse:*` spans next to the recomputed stages'
    /// spans.
    ///
    /// # Errors
    ///
    /// As [`IncrementalSession::apply`].
    pub fn apply_in(
        &mut self,
        edits: &[EditOp],
        ctx: Option<SpanCtx>,
    ) -> Result<ReuseReport, EditError> {
        let start = Instant::now();
        let delta =
            SessionDelta::compute(&self.program, self.analyzer.compiled().topology(), edits)?;
        let SessionDelta {
            program,
            topology,
            dirty,
        } = delta;

        let fallback = if dirty.ratio() > self.config.fallback_ratio {
            Some(FallbackReason::DirtyRatio)
        } else {
            None
        };
        let analyzer = match &topology {
            Some(topology) => {
                let config = self.analyzer.config().clone();
                self.analyzer.with_compiled_swapped(
                    CompiledTopology::compile(topology, &config).into_shared(),
                )
            }
            None => self.analyzer.clone(),
        };
        let lookahead = &analyzer.config().lookahead;
        let lookahead_disabled = matches!(lookahead, Lookahead::Disabled);
        let capacity_lookahead = matches!(lookahead, Lookahead::PerQueueCapacity(_));

        // The edit commits from here on: whatever it leaves valid seeds the
        // next session, and that session's artifacts replace these.
        let mut seeds = std::mem::take(&mut self.artifacts);
        let mut resumed = false;
        if fallback.is_some() {
            seeds = StageArtifacts::default();
        } else {
            if dirty.topology_dirty() {
                // Edits never touch message declarations, so only a link
                // edit moves the routes, and with them the competing sets
                // and the requirements computed from those.
                seeds.routes = None;
                seeds.competing = None;
                seeds.requirements = None;
            }
            if dirty.count() == 0 {
                // Topology-only (or empty) batch: the program is
                // unchanged, and classification reads the topology only
                // through capacity-derived lookahead budgets.
                if capacity_lookahead {
                    seeds.classification = None;
                }
            } else if !dirty.has_removals() && lookahead_disabled {
                // Append-only program edit without lookahead: resume the
                // crossing-off where the base run stopped (see
                // `classify_resume` for the confluence argument).
                if let Some(classification) = seeds.classification.take() {
                    // The old outcome shares the base classification; drop
                    // it so the base trace is moved into the resumed run,
                    // not copied.
                    self.outcome = AnalysisOutcome::vacant();
                    let base_trace = match Arc::unwrap_or_clone(classification) {
                        Classification::DeadlockFree(trace) => trace,
                        Classification::Deadlocked { trace, .. } => trace,
                    };
                    let limits = LookaheadLimits::disabled(&program);
                    let resumed_classification = classify_resume(&program, &limits, base_trace);
                    seeds.classification = Some(Arc::new(resumed_classification));
                    resumed = true;
                }
            } else {
                seeds.classification = None;
            }
        }
        let report = ReuseReport {
            dirty_cells: dirty.count(),
            total_cells: self.program.num_cells(),
            dirty_messages: dirty.messages().len(),
            reused_routes: seeds.routes.is_some(),
            reused_competing: seeds.competing.is_some(),
            resumed_classification: resumed,
            seeded_classification: seeds.classification.is_some(),
            fast_labeling: true,
            fallback,
        };

        if let (Some(Observed { obs, .. }), Some(ctx)) = (analyzer.observed(), ctx) {
            for (reused, name) in [
                (report.reused_routes, "reuse:routes"),
                (report.seeded_classification, "reuse:classification"),
                (report.reused_competing, "reuse:competing"),
            ] {
                if reused {
                    let span = obs.tracer().start(ctx.trace, Some(ctx.parent), name);
                    obs.tracer().finish(span);
                }
            }
        }

        let program = Arc::new(program);
        let (outcome, artifacts) = analyzer
            .seeded_session(&program, ctx, seeds)
            .finish_with_artifacts();

        if let Some(Observed { obs, instruments }) = analyzer.observed() {
            let registry = obs.registry();
            instruments.edits(registry).inc();
            instruments.dirty_cells(registry).add(dirty.count() as u64);
            if let Some(reason) = fallback {
                instruments.fallbacks(registry, reason).inc();
            }
            // In `REUSABLE_STAGES` order.
            let reused = [
                report.reused_routes,
                report.seeded_classification,
                report.reused_competing,
            ];
            for (stage, reused) in reused.into_iter().enumerate() {
                if reused {
                    instruments.reused(registry, stage).inc();
                }
            }
            if report.reused_any() {
                instruments.hits(registry).inc();
            }
            instruments
                .edit_duration(registry)
                .record(start.elapsed().as_micros() as u64);
        }

        self.analyzer = analyzer;
        self.program = program;
        self.outcome = outcome;
        self.artifacts = artifacts;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalysisConfig, CoreError};
    use systolic_model::parse_program;
    use systolic_obs::names;

    fn line_session(text: &str, n: usize) -> IncrementalSession {
        let program = parse_program(text).unwrap();
        let analyzer = Analyzer::for_topology(&Topology::linear(n), &AnalysisConfig::default());
        IncrementalSession::seed(analyzer, program, IncrementalConfig::default())
    }

    /// The incremental outcome must equal a from-scratch diagnose of the
    /// session's current program — fingerprints, crossed pairs, errors and
    /// diagnostics.
    fn assert_parity(session: &IncrementalSession) {
        let fresh = session.analyzer().diagnose(session.program());
        match (session.outcome().result(), fresh.result()) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.plan().fingerprint(), b.plan().fingerprint());
                assert_eq!(a.labeling_method(), b.labeling_method());
                assert_eq!(
                    a.classification().trace().total_pairs(),
                    b.classification().trace().total_pairs()
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("outcome mismatch: incremental={a:?} fresh={b:?}"),
        }
        assert_eq!(session.outcome().diagnostics(), fresh.diagnostics());
    }

    #[test]
    fn append_resumes_classification_with_identical_outcome() {
        // 4 cells so the two dirty cells stay at ratio 0.5 (no fallback).
        let mut session = line_session(
            "cells 4\nmessage A: c0 -> c1\nprogram c0 { W(A)*3 }\nprogram c1 { R(A)*3 }\n",
            4,
        );
        assert!(session.outcome().is_certified());
        let a = session.program().message_id("A").unwrap();
        let edits = [
            EditOp::AppendOp {
                cell: CellId::new(0),
                op: Op::write(a),
            },
            EditOp::AppendOp {
                cell: CellId::new(1),
                op: Op::read(a),
            },
        ];
        let report = session.apply(&edits).unwrap();
        assert!(report.resumed_classification);
        assert!(report.reused_routes);
        assert!(report.reused_competing);
        assert!(report.fallback.is_none());
        assert_eq!(report.dirty_cells, 2);
        assert_eq!(session.program().total_words(), 4);
        assert_parity(&session);
    }

    /// Two messages from c0 to c1, A before B: unrelated, so labeled 1 and
    /// 2, and one queue serves the hop.
    fn unrelated_pair() -> IncrementalSession {
        let program = parse_program(
            "cells 4\nmessage A: c0 -> c1\nmessage B: c0 -> c1\n\
             program c0 { W(A) W(B) }\nprogram c1 { R(A) R(B) }\n",
        )
        .unwrap();
        let config = AnalysisConfig {
            queues_per_interval: 2,
            ..AnalysisConfig::default()
        };
        let analyzer = Analyzer::for_topology(&Topology::linear(4), &config);
        IncrementalSession::seed(analyzer, program, IncrementalConfig::default())
    }

    /// Appends one word of `name` at its sender's and receiver's tails.
    fn append_word(session: &mut IncrementalSession, name: &str) -> ReuseReport {
        let m = session.program().message_id(name).unwrap();
        let decl = session.program().message(m);
        let edits = [
            EditOp::AppendOp {
                cell: decl.sender(),
                op: Op::write(m),
            },
            EditOp::AppendOp {
                cell: decl.receiver(),
                op: Op::read(m),
            },
        ];
        session.apply(&edits).unwrap()
    }

    fn requirements(session: &IncrementalSession) -> &crate::QueueRequirements {
        session.outcome().result().unwrap().plan().requirements()
    }

    #[test]
    fn unchanged_labeling_keeps_the_base_requirements() {
        let mut session = unrelated_pair();
        let base: *const crate::QueueRequirements = requirements(&session);
        let report = append_word(&mut session, "B");
        assert!(report.resumed_classification && report.reused_competing);
        assert!(
            std::ptr::eq(base, requirements(&session)),
            "the base requirements are shared, not recomputed"
        );
        assert_parity(&session);
    }

    #[test]
    fn changed_labeling_recomputes_the_requirements() {
        let mut session = unrelated_pair();
        assert_eq!(requirements(&session).max_per_interval(), 1);
        // W(A) W(B) W(A): A and B interleave, so their related classes
        // merge into one label, and the hop needs a queue for each.
        let report = append_word(&mut session, "A");
        assert!(report.resumed_classification && report.reused_competing);
        let plan = session.outcome().result().unwrap().plan();
        let program = session.program();
        let (a, b) = (
            program.message_id("A").unwrap(),
            program.message_id("B").unwrap(),
        );
        assert_eq!(plan.label(a), plan.label(b));
        assert_eq!(requirements(&session).max_per_interval(), 2);
        assert_parity(&session);
    }

    #[test]
    fn append_can_fix_a_deadlocked_base() {
        let mut session = line_session(
            "cells 4\nmessage A: c0 -> c1\nmessage B: c1 -> c0\n\
             program c0 { R(B) W(A) }\nprogram c1 { R(A) W(B) }\n",
            4,
        );
        assert!(matches!(
            session.outcome().result(),
            Err(CoreError::ProgramDeadlocked { .. })
        ));
        // Appending cannot fix a deadlock (the stuck fronts stay stuck),
        // but the resumed run must still agree with from-scratch.
        let a = session.program().message_id("A").unwrap();
        let report = session
            .apply(&[
                EditOp::AppendOp {
                    cell: CellId::new(0),
                    op: Op::write(a),
                },
                EditOp::AppendOp {
                    cell: CellId::new(1),
                    op: Op::read(a),
                },
            ])
            .unwrap();
        assert!(report.resumed_classification);
        assert_parity(&session);
    }

    #[test]
    fn removal_skips_resume_but_stays_correct() {
        let mut session = line_session(
            "cells 4\nmessage A: c0 -> c1\nprogram c0 { W(A)*3 }\nprogram c1 { R(A)*3 }\n",
            4,
        );
        let report = session
            .apply(&[
                EditOp::RemoveTailOp {
                    cell: CellId::new(0),
                },
                EditOp::RemoveTailOp {
                    cell: CellId::new(1),
                },
            ])
            .unwrap();
        assert!(!report.resumed_classification);
        assert!(!report.seeded_classification);
        assert!(report.reused_routes);
        assert_eq!(session.program().total_words(), 2);
        assert_parity(&session);
        // The classification recomputed for the removal is resumable by
        // the following append.
        let a = session.program().message_id("A").unwrap();
        let report = session
            .apply(&[
                EditOp::AppendOp {
                    cell: CellId::new(0),
                    op: Op::write(a),
                },
                EditOp::AppendOp {
                    cell: CellId::new(1),
                    op: Op::read(a),
                },
            ])
            .unwrap();
        assert!(report.resumed_classification);
        assert_parity(&session);
    }

    #[test]
    fn invalid_batch_is_rejected_and_session_unchanged() {
        let mut session = line_session(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n",
            2,
        );
        let before = session.fingerprint();
        let a = session.program().message_id("A").unwrap();
        // Unbalanced: one extra write, no matching read.
        let err = session
            .apply(&[EditOp::AppendOp {
                cell: CellId::new(0),
                op: Op::write(a),
            }])
            .unwrap_err();
        assert!(matches!(
            err,
            EditError::InvalidProgram(ModelError::WordCountMismatch { .. })
        ));
        assert_eq!(session.fingerprint(), before);
        // And the exact error matches what Program::new reports.
        let fresh = Program::new(
            vec!["c0".into(), "c1".into()],
            session.program().messages().to_vec(),
            vec![
                CellProgram::new(vec![Op::write(a), Op::write(a)]),
                CellProgram::new(vec![Op::read(a)]),
            ],
        )
        .unwrap_err();
        assert_eq!(err, EditError::InvalidProgram(fresh));
    }

    #[test]
    fn structural_edit_errors() {
        let mut session = line_session(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n",
            2,
        );
        let a = session.program().message_id("A").unwrap();
        assert!(matches!(
            session.apply(&[EditOp::AppendOp {
                cell: CellId::new(9),
                op: Op::write(a),
            }]),
            Err(EditError::UnknownCell { .. })
        ));
        assert!(matches!(
            session.apply(&[
                EditOp::RemoveTailOp {
                    cell: CellId::new(0)
                },
                EditOp::RemoveTailOp {
                    cell: CellId::new(0)
                },
            ]),
            Err(EditError::EmptyCell { .. })
        ));
        // Link edits on a closed-form topology are refused.
        assert!(matches!(
            session.apply(&[EditOp::AddLink {
                a: CellId::new(0),
                b: CellId::new(1),
            }]),
            Err(EditError::TopologyNotEditable)
        ));
    }

    #[test]
    fn link_edits_reroute_on_graph_topologies() {
        let program = parse_program(
            "cells 3\nmessage A: c0 -> c2\nprogram c0 { W(A)*2 }\nprogram c2 { R(A)*2 }\n",
        )
        .unwrap();
        // c0–c1–c2 chain expressed as a graph, so links are editable.
        let chain = Topology::graph(
            3,
            [
                (CellId::new(0), CellId::new(1)),
                (CellId::new(1), CellId::new(2)),
            ],
        )
        .unwrap();
        let analyzer = Analyzer::for_topology(&chain, &AnalysisConfig::default());
        let mut session = IncrementalSession::seed(analyzer, program, IncrementalConfig::default());
        assert!(session.outcome().is_certified());

        // A direct c0–c2 link shortens A's route: routes/competing must
        // recompute, classification is reused wholesale.
        let report = session
            .apply(&[EditOp::AddLink {
                a: CellId::new(0),
                b: CellId::new(2),
            }])
            .unwrap();
        assert!(!report.reused_routes);
        assert!(report.seeded_classification);
        assert!(!report.resumed_classification);
        assert_parity(&session);
        let direct = session
            .outcome()
            .result()
            .unwrap()
            .plan()
            .routes()
            .route(MessageId::new(0));
        assert_eq!(direct.num_hops(), 1);

        // Removing a link the only route depends on makes A unroutable.
        let report = session
            .apply(&[
                EditOp::RemoveLink {
                    a: CellId::new(0),
                    b: CellId::new(2),
                },
                EditOp::RemoveLink {
                    a: CellId::new(0),
                    b: CellId::new(1),
                },
            ])
            .unwrap();
        assert!(report.fallback.is_none());
        assert!(session.outcome().result().is_err());
        assert_parity(&session);

        // Removing a link that is not there is a structured error.
        assert!(matches!(
            session.apply(&[EditOp::RemoveLink {
                a: CellId::new(0),
                b: CellId::new(2),
            }]),
            Err(EditError::NoSuchLink { .. })
        ));
        assert!(matches!(
            session.apply(&[EditOp::AddLink {
                a: CellId::new(1),
                b: CellId::new(1),
            }]),
            Err(EditError::SelfLink { .. })
        ));
    }

    #[test]
    fn reused_and_recomputed_classifications_stay_resumable() {
        let program = parse_program(
            "cells 3\nmessage A: c0 -> c2\nprogram c0 { W(A)*2 }\nprogram c2 { R(A)*2 }\n",
        )
        .unwrap();
        let chain = Topology::graph(
            3,
            [
                (CellId::new(0), CellId::new(1)),
                (CellId::new(1), CellId::new(2)),
            ],
        )
        .unwrap();
        let analyzer = Analyzer::for_topology(&chain, &AnalysisConfig::default());
        let mut session = IncrementalSession::seed(
            analyzer,
            program,
            IncrementalConfig {
                fallback_ratio: 1.0,
            },
        );

        // A topology-only edit reuses the classification wholesale; the
        // append after it resumes from that classification.
        let report = session
            .apply(&[EditOp::AddLink {
                a: CellId::new(0),
                b: CellId::new(2),
            }])
            .unwrap();
        assert!(report.seeded_classification && !report.resumed_classification);
        assert_parity(&session);
        assert!(append_word(&mut session, "A").resumed_classification);
        assert_parity(&session);

        // A forced fallback recomputes the classification; the append
        // after it resumes from the recomputed one.
        session.config.fallback_ratio = 0.0;
        let report = append_word(&mut session, "A");
        assert_eq!(report.fallback, Some(FallbackReason::DirtyRatio));
        assert!(!report.seeded_classification);
        assert_parity(&session);
        session.config.fallback_ratio = 1.0;
        assert!(append_word(&mut session, "A").resumed_classification);
        assert_parity(&session);
    }

    #[test]
    fn wide_edits_fall_back_and_stay_correct() {
        let mut session = line_session(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A)*2 }\nprogram c1 { R(A)*2 }\n",
            2,
        );
        // Both cells dirty = ratio 1.0 > 0.5 → fallback.
        let a = session.program().message_id("A").unwrap();
        let report = session
            .apply(&[
                EditOp::AppendOp {
                    cell: CellId::new(0),
                    op: Op::write(a),
                },
                EditOp::AppendOp {
                    cell: CellId::new(1),
                    op: Op::read(a),
                },
            ])
            .unwrap();
        assert_eq!(report.fallback, Some(FallbackReason::DirtyRatio));
        assert!(!report.reused_any());
        assert!((report.dirty_ratio() - 1.0).abs() < f64::EPSILON);
        assert_parity(&session);
        // A second wide edit falls back again and stays correct.
        let report = session
            .apply(&[
                EditOp::AppendOp {
                    cell: CellId::new(0),
                    op: Op::write(a),
                },
                EditOp::AppendOp {
                    cell: CellId::new(1),
                    op: Op::read(a),
                },
            ])
            .unwrap();
        assert_eq!(report.fallback, Some(FallbackReason::DirtyRatio));
        assert_parity(&session);
    }

    #[test]
    fn zero_ratio_forces_fallback() {
        let program = parse_program(
            "cells 3\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n",
        )
        .unwrap();
        let analyzer = Analyzer::for_topology(&Topology::linear(3), &AnalysisConfig::default());
        let mut session = IncrementalSession::seed(
            analyzer,
            program,
            IncrementalConfig {
                fallback_ratio: 0.0,
            },
        );
        let a = session.program().message_id("A").unwrap();
        let report = session
            .apply(&[
                EditOp::AppendOp {
                    cell: CellId::new(0),
                    op: Op::write(a),
                },
                EditOp::AppendOp {
                    cell: CellId::new(1),
                    op: Op::read(a),
                },
            ])
            .unwrap();
        assert_eq!(report.fallback, Some(FallbackReason::DirtyRatio));
        assert_parity(&session);
    }

    #[test]
    fn incremental_metrics_are_recorded() {
        let obs = Arc::new(systolic_obs::Obs::new());
        let program = parse_program(
            "cells 4\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n",
        )
        .unwrap();
        let analyzer = Analyzer::for_topology(&Topology::linear(4), &AnalysisConfig::default())
            .with_obs(Arc::clone(&obs));
        let mut session = IncrementalSession::seed(analyzer, program, IncrementalConfig::default());
        let a = session.program().message_id("A").unwrap();
        let _ = session
            .apply(&[
                EditOp::AppendOp {
                    cell: CellId::new(0),
                    op: Op::write(a),
                },
                EditOp::AppendOp {
                    cell: CellId::new(1),
                    op: Op::read(a),
                },
            ])
            .unwrap();
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter_value(names::INCREMENTAL_EDITS, &[]), 1);
        assert_eq!(snap.counter_value(names::INCREMENTAL_HITS, &[]), 1);
        assert_eq!(snap.counter_value(names::INCREMENTAL_DIRTY_CELLS, &[]), 2);
        assert_eq!(
            snap.counter_value(names::INCREMENTAL_STAGE_REUSED, &[("stage", "routes")]),
            1
        );
        assert_eq!(
            snap.counter_value(
                names::INCREMENTAL_STAGE_REUSED,
                &[("stage", "classification")]
            ),
            1
        );
    }
}
