//! The staged analysis API: [`Analyzer`] over a [`CompiledTopology`].
//!
//! [`Analyzer`] runs the paper's whole pipeline (Sections 3–7) as the
//! stages the paper actually describes, each lazily computed, memoized and
//! individually inspectable through an [`AnalyzerSession`]:
//!
//! 1. **routes** — message routing over the compiled topology
//!    (Section 2.3), served from the route closure when precompiled;
//! 2. **classification** — the crossing-off procedure (Sections 3, 8.1);
//! 3. **labeling** — Section 6, falling back to the constraint solver
//!    when the scheme wedges;
//! 4. **consistency** — the independent Section 5 check, inspectable on
//!    demand (and a debug assertion before the plan);
//! 5. **requirements** — competing sets and queue counts (Section 7);
//! 6. **plan** — the certified [`CommPlan`] (Theorem 1).
//!
//! Stages report *why* a program is unsafe as structured
//! [`Diagnostic`]s (machine-readable codes plus offending message/cell
//! ids) alongside the usual [`CoreError`], so serving layers can forward
//! failures without parsing prose.
//!
//! Every entry point runs the same session: [`Analyzer::analyze`] is
//! [`Analyzer::diagnose`] without the diagnostics, and `diagnose` is
//! [`Analyzer::diagnose_in`] without a tracing context. The incremental
//! path seeds that session with the stage artifacts an edit left valid
//! and takes back the ones it computed; every other caller seeds none.
//!
//! # Examples
//!
//! Compile once, analyze many programs, inspect a failure:
//!
//! ```
//! use systolic_core::{Analyzer, AnalysisConfig, DiagnosticCode};
//! use systolic_model::{parse_program, Topology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let analyzer = Analyzer::for_topology(&Topology::linear(2), &AnalysisConfig::default());
//!
//! let safe = parse_program(
//!     "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A)*3 }\nprogram c1 { R(A)*3 }\n",
//! )?;
//! let analysis = analyzer.analyze(&safe)?;
//! assert!(analysis.classification().is_deadlock_free());
//!
//! let deadlocked = parse_program(
//!     "cells 2\nmessage A: c0 -> c1\nmessage B: c1 -> c0\n\
//!      program c0 { R(B) W(A) }\nprogram c1 { R(A) W(B) }\n",
//! )?;
//! let outcome = analyzer.diagnose(&deadlocked);
//! assert!(outcome.result().is_err());
//! let diagnostic = &outcome.diagnostics().as_slice()[0];
//! assert_eq!(diagnostic.code(), DiagnosticCode::Deadlock);
//! assert!(!diagnostic.cell_ids().is_empty());
//! # Ok(())
//! # }
//! ```

use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use systolic_model::{CellId, MessageId, MessageRoutes, Program, Topology};
use systolic_obs::{names, Counter, Histogram, Obs, Registry, SpanCtx};

use crate::constraint_labeling::label_classified;
use crate::labeling::label_messages_assignments_only;
use crate::{
    check_consistency, classify_with, Analysis, AnalysisConfig, Classification, CommPlan,
    CompetingSets, CompiledTopology, ConsistencyViolation, CoreError, Diagnostic, DiagnosticCode,
    Diagnostics, FallbackReason, Labeling, LabelingMethod, LabelingReport, Lookahead,
    LookaheadLimits, QueueRequirements,
};

/// The per-stage artifacts the incremental path carries from one edit to
/// the next: a session is seeded with them and hands back the ones its
/// stages computed or reused. They are shared with the session's
/// [`Analysis`] behind `Arc`s, not copied.
///
/// Seeded stages skip their stage closure entirely (they can emit no
/// diagnostics on success, so skipping preserves diagnostic parity),
/// except classification, which is injected *into* its closure so the
/// deadlock diagnostic is still emitted by the same code as a
/// from-scratch run.
#[derive(Debug, Default)]
pub(crate) struct StageArtifacts {
    pub routes: Option<Arc<MessageRoutes>>,
    pub classification: Option<Arc<Classification>>,
    pub competing: Option<Arc<CompetingSets>>,
    /// A labeling and the requirements computed from it. Seed them only
    /// with `competing`: the requirements stage then keeps them when the
    /// new labeling equals this one, since [`QueueRequirements::compute`]
    /// reads nothing but the competing sets and the labels.
    pub requirements: Option<(Arc<Labeling>, Arc<QueueRequirements>)>,
}

/// The stage names of [`AnalyzerSession::drive_observed`], in pipeline
/// order: the `stage` label of the stage-duration histogram.
const STAGES: [&str; 6] = [
    "routes",
    "classification",
    "labeling",
    "competing",
    "requirements",
    "plan",
];

/// The stages an incremental edit can reuse wholesale, in the order
/// [`Instruments::reused`] takes them: the `stage` label of the
/// stage-reuse counter.
const REUSABLE_STAGES: [&str; 3] = ["routes", "classification", "competing"];

/// The analyzer's and the incremental sessions' instruments in one [`Obs`]
/// bundle.
///
/// Each handle is looked up in the registry on its first sample and held
/// from then on, so later samples take no lock and build no key. The set
/// is kept once per bundle ([`Obs::handles`]) because serving layers build
/// a fresh [`Analyzer`] per request. Looking up lazily leaves the
/// registry's series exactly those that have recorded a sample.
#[derive(Debug, Default)]
pub(crate) struct Instruments {
    stages: [OnceLock<Arc<Histogram>>; STAGES.len()],
    diagnostics: [OnceLock<Arc<Counter>>; DiagnosticCode::COUNT],
    edits: OnceLock<Arc<Counter>>,
    dirty_cells: OnceLock<Arc<Counter>>,
    dirty_ratio_fallbacks: OnceLock<Arc<Counter>>,
    reused: [OnceLock<Arc<Counter>>; REUSABLE_STAGES.len()],
    hits: OnceLock<Arc<Counter>>,
    edit_duration: OnceLock<Arc<Histogram>>,
}

impl Instruments {
    /// The duration histogram of stage `STAGES[stage]`.
    fn stage(&self, registry: &Registry, stage: usize) -> &Histogram {
        self.stages[stage].get_or_init(|| {
            registry.histogram_with(names::ANALYZER_STAGE_DURATION, &[("stage", STAGES[stage])])
        })
    }

    fn diagnostic(&self, registry: &Registry, code: DiagnosticCode) -> &Counter {
        self.diagnostics[code as usize].get_or_init(|| {
            registry.counter_with(names::ANALYZER_DIAGNOSTICS, &[("code", code.as_str())])
        })
    }

    pub(crate) fn edits(&self, registry: &Registry) -> &Counter {
        self.edits
            .get_or_init(|| registry.counter(names::INCREMENTAL_EDITS))
    }

    pub(crate) fn dirty_cells(&self, registry: &Registry) -> &Counter {
        self.dirty_cells
            .get_or_init(|| registry.counter(names::INCREMENTAL_DIRTY_CELLS))
    }

    pub(crate) fn fallbacks(&self, registry: &Registry, reason: FallbackReason) -> &Counter {
        let cell = match reason {
            FallbackReason::DirtyRatio => &self.dirty_ratio_fallbacks,
        };
        cell.get_or_init(|| {
            registry.counter_with(names::INCREMENTAL_FALLBACKS, &[("reason", reason.as_str())])
        })
    }

    /// The reuse counter of stage `REUSABLE_STAGES[stage]`.
    pub(crate) fn reused(&self, registry: &Registry, stage: usize) -> &Counter {
        self.reused[stage].get_or_init(|| {
            registry.counter_with(
                names::INCREMENTAL_STAGE_REUSED,
                &[("stage", REUSABLE_STAGES[stage])],
            )
        })
    }

    pub(crate) fn hits(&self, registry: &Registry) -> &Counter {
        self.hits
            .get_or_init(|| registry.counter(names::INCREMENTAL_HITS))
    }

    pub(crate) fn edit_duration(&self, registry: &Registry) -> &Histogram {
        self.edit_duration
            .get_or_init(|| registry.histogram(names::INCREMENTAL_EDIT_DURATION))
    }
}

/// An observability bundle with the analyzer's handle set in it.
#[derive(Clone, Debug)]
pub(crate) struct Observed {
    pub obs: Arc<Obs>,
    pub instruments: Arc<Instruments>,
}

/// A reusable handle that runs staged analyses against one
/// [`CompiledTopology`].
///
/// Cheap to clone (the compilation is behind an [`Arc`]); safe to share
/// across threads.
#[derive(Clone, Debug)]
pub struct Analyzer {
    compiled: Arc<CompiledTopology>,
    observed: Option<Observed>,
}

impl Analyzer {
    /// An analyzer with default options over a compiled topology.
    #[must_use]
    pub fn new(compiled: impl Into<Arc<CompiledTopology>>) -> Self {
        Analyzer {
            compiled: compiled.into(),
            observed: None,
        }
    }

    /// Attaches a shared observability bundle. Sessions finished through
    /// an observed analyzer drive the pipeline stage by stage, recording
    /// one duration histogram sample per stage
    /// (`systolic_analyzer_stage_duration_micros{stage=...}` — exclusive
    /// time, since earlier stages are memoized), one counter per pushed
    /// diagnostic code, and — when the caller supplies a [`SpanCtx`] via
    /// [`Analyzer::diagnose_in`] — one child span per stage. The
    /// instrument handles are resolved once per bundle and shared by every
    /// analyzer attached to it.
    #[must_use]
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        let instruments = obs.handles::<Instruments>();
        self.observed = Some(Observed { obs, instruments });
        self
    }

    /// Compiles `topology` against `config` and wraps it in an analyzer —
    /// the one-shot convenience path. Prefer compiling once with
    /// [`CompiledTopology::compile`] when analyzing many programs.
    #[must_use]
    pub fn for_topology(topology: &Topology, config: &AnalysisConfig) -> Self {
        Analyzer::new(CompiledTopology::compile(topology, config))
    }

    /// The shared compilation this analyzer runs against.
    #[must_use]
    pub fn compiled(&self) -> &Arc<CompiledTopology> {
        &self.compiled
    }

    /// The analysis configuration (lookahead, hardware queue count).
    #[must_use]
    pub fn config(&self) -> &AnalysisConfig {
        self.compiled.config()
    }

    /// Opens a staged session for one program. Stages run lazily as they
    /// are first inspected; nothing is computed up front.
    #[must_use]
    pub fn session<'a>(&'a self, program: &'a Program) -> AnalyzerSession<'a> {
        self.seeded_session(program, None, StageArtifacts::default())
    }

    /// The one session constructor: `seeds` holds the artifacts the
    /// incremental path reuses from a previous analysis (none elsewhere),
    /// `ctx` the tracing context for the stage spans. Diagnostics behave
    /// exactly as in [`Analyzer::diagnose`].
    pub(crate) fn seeded_session<'a>(
        &'a self,
        program: &'a Program,
        ctx: Option<SpanCtx>,
        seeds: StageArtifacts,
    ) -> AnalyzerSession<'a> {
        fn cell_from<T>(value: Option<T>) -> OnceCell<Result<T, CoreError>> {
            match value {
                Some(v) => OnceCell::from(Ok(v)),
                None => OnceCell::new(),
            }
        }
        AnalyzerSession {
            analyzer: self,
            program,
            ctx,
            routes: cell_from(seeds.routes),
            limits: OnceCell::new(),
            classification: OnceCell::new(),
            seeded_classification: RefCell::new(seeds.classification),
            labeling: OnceCell::new(),
            consistency: OnceCell::new(),
            competing: cell_from(seeds.competing),
            requirements: OnceCell::new(),
            base_requirements: RefCell::new(seeds.requirements),
            plan: OnceCell::new(),
            diagnostics: RefCell::new(Diagnostics::new()),
        }
    }

    /// The attached observability bundle and its handle set, if any.
    pub(crate) fn observed(&self) -> Option<&Observed> {
        self.observed.as_ref()
    }

    /// This analyzer with its compilation replaced (incremental topology
    /// edits); observability carries over.
    pub(crate) fn with_compiled_swapped(&self, compiled: Arc<CompiledTopology>) -> Analyzer {
        Analyzer {
            compiled,
            observed: self.observed.clone(),
        }
    }

    /// Runs all stages and returns the [`Analysis`] — identical in every
    /// observable way whether the compilation is fresh or shared with
    /// earlier analyses (the parity property tests assert byte-identical
    /// plan fingerprints).
    ///
    /// # Errors
    ///
    /// * [`CoreError::Model`] if routing fails (cell-count mismatch, no
    ///   route);
    /// * [`CoreError::ProgramDeadlocked`] if the crossing-off procedure
    ///   stalls;
    /// * [`CoreError::LabelConflict`] if labeling fails (not expected for
    ///   programs that classify as deadlock-free);
    /// * [`CoreError::Infeasible`] if an interval needs more queues than
    ///   the configured `queues_per_interval`.
    pub fn analyze(&self, program: &Program) -> Result<Analysis, CoreError> {
        self.diagnose(program).into_result()
    }

    /// Runs all stages and returns the result *with* the accumulated
    /// structured diagnostics — what serving layers forward to clients.
    #[must_use]
    pub fn diagnose(&self, program: &Program) -> AnalysisOutcome {
        self.diagnose_in(program, None)
    }

    /// [`Analyzer::diagnose`] with a tracing context: when this analyzer
    /// carries an [`Obs`] bundle, each pipeline stage is recorded as a
    /// child span of `ctx.parent` in `ctx.trace`.
    #[must_use]
    pub fn diagnose_in(&self, program: &Program, ctx: Option<SpanCtx>) -> AnalysisOutcome {
        self.seeded_session(program, ctx, StageArtifacts::default())
            .finish()
    }
}

/// A finished analysis plus everything the stages reported along the way.
#[derive(Clone, Debug)]
pub struct AnalysisOutcome {
    result: Result<Analysis, CoreError>,
    diagnostics: Diagnostics,
}

impl AnalysisOutcome {
    /// An outcome holding no artifacts: what an incremental session keeps
    /// while it recomputes, so the old artifacts can be released first.
    pub(crate) fn vacant() -> Self {
        AnalysisOutcome {
            result: Err(CoreError::ProgramDeadlocked {
                crossed_words: 0,
                remaining_ops: 0,
            }),
            diagnostics: Diagnostics::new(),
        }
    }

    /// The analysis result by reference.
    pub fn result(&self) -> Result<&Analysis, &CoreError> {
        self.result.as_ref()
    }

    /// `true` if the program was certified.
    #[must_use]
    pub fn is_certified(&self) -> bool {
        self.result.is_ok()
    }

    /// The structured diagnostics, in stage order.
    #[must_use]
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diagnostics
    }

    /// Consumes the outcome, returning only the result.
    ///
    /// # Errors
    ///
    /// Whatever error the analysis produced.
    pub fn into_result(self) -> Result<Analysis, CoreError> {
        self.result
    }
}

/// The memoized per-stage state of one program's analysis.
///
/// Obtained from [`Analyzer::session`]. Every accessor computes its stage
/// (and the stages it depends on) at most once; diagnostics accumulate as
/// stages run, so [`AnalyzerSession::diagnostics`] reflects exactly the
/// stages inspected so far. Not `Sync` — open one session per thread; the
/// [`Analyzer`] and its [`CompiledTopology`] are the shared pieces.
pub struct AnalyzerSession<'a> {
    analyzer: &'a Analyzer,
    program: &'a Program,
    /// Trace context for stage spans (requires an observed analyzer).
    ctx: Option<SpanCtx>,
    routes: OnceCell<Result<Arc<MessageRoutes>, CoreError>>,
    limits: OnceCell<Result<LookaheadLimits, CoreError>>,
    classification: OnceCell<Result<Arc<Classification>, CoreError>>,
    /// A reused classification injected by the incremental path; consumed
    /// by the classification stage in place of running the crossing-off
    /// procedure, so the stage's diagnostics are still emitted uniformly.
    seeded_classification: RefCell<Option<Arc<Classification>>>,
    labeling: OnceCell<Result<LabelingOutcome, CoreError>>,
    consistency: OnceCell<Result<Vec<ConsistencyViolation>, CoreError>>,
    competing: OnceCell<Result<Arc<CompetingSets>, CoreError>>,
    requirements: OnceCell<Result<Arc<QueueRequirements>, CoreError>>,
    /// Requirements the incremental path offers for reuse; consumed by the
    /// requirements stage (see [`StageArtifacts::requirements`]).
    base_requirements: RefCell<Option<(Arc<Labeling>, Arc<QueueRequirements>)>>,
    plan: OnceCell<Result<CommPlan, CoreError>>,
    diagnostics: RefCell<Diagnostics>,
}

impl std::fmt::Debug for AnalyzerSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalyzerSession")
            .field("program_cells", &self.program.num_cells())
            .field("diagnostics", &self.diagnostics.borrow().len())
            .finish_non_exhaustive()
    }
}

#[derive(Clone, Debug)]
struct LabelingOutcome {
    labeling: Arc<Labeling>,
    method: LabelingMethod,
    report: Option<LabelingReport>,
}

impl<'a> AnalyzerSession<'a> {
    /// The program under analysis.
    #[must_use]
    pub fn program(&self) -> &Program {
        self.program
    }

    fn push(&self, diagnostic: Diagnostic) {
        if let Some(Observed { obs, instruments }) = &self.analyzer.observed {
            instruments
                .diagnostic(obs.registry(), diagnostic.code())
                .inc();
        }
        self.diagnostics.borrow_mut().push(diagnostic);
    }

    /// A snapshot of the diagnostics emitted by the stages run so far.
    #[must_use]
    pub fn diagnostics(&self) -> Diagnostics {
        self.diagnostics.borrow().clone()
    }

    /// Stage 1: message routes over the compiled topology.
    ///
    /// # Errors
    ///
    /// [`CoreError::Model`] for cell-count mismatches and unroutable
    /// messages.
    pub fn routes(&self) -> Result<&MessageRoutes, CoreError> {
        self.shared_routes().map(|routes| &**routes)
    }

    fn shared_routes(&self) -> Result<&Arc<MessageRoutes>, CoreError> {
        self.routes
            .get_or_init(|| {
                let compiled = &self.analyzer.compiled;
                if self.program.num_cells() != compiled.num_cells() {
                    let error = systolic_model::ModelError::CellCountMismatch {
                        program: self.program.num_cells(),
                        topology: compiled.num_cells(),
                    };
                    self.push(Diagnostic::new(
                        DiagnosticCode::CellCountMismatch,
                        error.to_string(),
                    ));
                    return Err(CoreError::Model(error));
                }
                let mut routes = Vec::with_capacity(self.program.num_messages());
                for (i, decl) in self.program.messages().iter().enumerate() {
                    match compiled.route(decl.sender(), decl.receiver()) {
                        Ok(route) => routes.push(route),
                        Err(error) => {
                            self.push(
                                Diagnostic::new(
                                    DiagnosticCode::RouteFailure,
                                    format!("message {} cannot be routed: {error}", decl.name()),
                                )
                                .with_messages([MessageId::new(i as u32)])
                                .with_cells([decl.sender(), decl.receiver()]),
                            );
                            return Err(CoreError::Model(error));
                        }
                    }
                }
                Ok(Arc::new(MessageRoutes::from_routes(routes)))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Stage 1b: the lookahead budgets implied by the compiled
    /// configuration.
    ///
    /// # Errors
    ///
    /// Propagates routing errors (capacity-based budgets need routes).
    pub fn limits(&self) -> Result<&LookaheadLimits, CoreError> {
        self.limits
            .get_or_init(|| {
                let compiled = &self.analyzer.compiled;
                // Only the per-queue-capacity rule needs routes; don't
                // force the routing stage otherwise.
                if let Lookahead::PerQueueCapacity(_) = compiled.config().lookahead {
                    let routes = self.routes()?;
                    Ok(compiled.limits_for(self.program, routes))
                } else {
                    // Routing errors must still gate the pipeline:
                    // routing is the first stage, so its error wins over
                    // any later stage's.
                    self.routes()?;
                    Ok(compiled.limits_for(self.program, &MessageRoutes::from_routes(Vec::new())))
                }
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Stage 2: the crossing-off verdict (paper, Sections 3 and 8.1).
    ///
    /// A deadlocked program is an `Ok` here — the [`Classification`]
    /// (verdict, trace, stuck report) is itself the inspectable artifact;
    /// an `E-DEADLOCK` diagnostic is emitted alongside. Later stages
    /// refuse deadlocked programs with
    /// [`CoreError::ProgramDeadlocked`].
    ///
    /// # Errors
    ///
    /// Propagates routing errors.
    pub fn classification(&self) -> Result<&Classification, CoreError> {
        self.shared_classification()
            .map(|classification| &**classification)
    }

    fn shared_classification(&self) -> Result<&Arc<Classification>, CoreError> {
        self.classification
            .get_or_init(|| {
                let limits = self.limits()?;
                let seeded = self.seeded_classification.borrow_mut().take();
                let classification =
                    seeded.unwrap_or_else(|| Arc::new(classify_with(self.program, limits)));
                if let Classification::Deadlocked { trace, stuck } = &*classification {
                    let mut cells = Vec::new();
                    let mut messages = Vec::new();
                    for (i, front) in stuck.fronts.iter().enumerate() {
                        if let Some((_, op)) = front {
                            cells.push(CellId::new(i as u32));
                            if !messages.contains(&op.message()) {
                                messages.push(op.message());
                            }
                        }
                    }
                    self.push(
                        Diagnostic::new(
                            DiagnosticCode::Deadlock,
                            format!(
                                "program is deadlocked: crossing-off stalled after {} words \
                                 with {} operations remaining",
                                trace.total_pairs(),
                                stuck.remaining_ops
                            ),
                        )
                        .with_messages(messages)
                        .with_cells(cells),
                    );
                } else if !matches!(
                    self.analyzer.compiled.config().lookahead,
                    Lookahead::Disabled
                ) {
                    // Advisory: messages whose skip counts would engage the
                    // iWarp queue-extension mechanism on zero-capacity
                    // budgets (Section 8.1). One pass over the trace.
                    let mut max_skips: BTreeMap<MessageId, usize> = BTreeMap::new();
                    for pair in classification.trace().pairs() {
                        for (&m, &count) in &pair.skipped {
                            let entry = max_skips.entry(m).or_insert(0);
                            *entry = (*entry).max(count);
                        }
                    }
                    for (m, skips) in max_skips {
                        if skips > 0 {
                            self.push(
                                Diagnostic::new(
                                    DiagnosticCode::ExtensionCandidate,
                                    format!(
                                        "lookahead skips up to {skips} writes of {}; queues \
                                         shorter than that require the queue-extension mechanism",
                                        self.program.message(m).name()
                                    ),
                                )
                                .with_messages([m]),
                            );
                        }
                    }
                }
                Ok(classification)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    fn deadlock_error(classification: &Classification) -> Option<CoreError> {
        if let Classification::Deadlocked { trace, stuck } = classification {
            Some(CoreError::ProgramDeadlocked {
                crossed_words: trace.total_pairs(),
                remaining_ops: stuck.remaining_ops,
            })
        } else {
            None
        }
    }

    fn labeling_outcome(&self) -> Result<&LabelingOutcome, CoreError> {
        self.labeling
            .get_or_init(|| {
                let classification = self.classification()?;
                if let Some(error) = Self::deadlock_error(classification) {
                    return Err(error);
                }
                let limits = self.limits()?;
                // The program is proven deadlock-free above, so the
                // early-stopping Section 6 driver gives the full driver's
                // report, errors and diagnostics from fewer crossed pairs.
                match label_messages_assignments_only(self.program, limits) {
                    Ok(report) => Ok(LabelingOutcome {
                        labeling: Arc::new(report.labeling().clone()),
                        method: LabelingMethod::Section6,
                        report: Some(report),
                    }),
                    Err(
                        error @ (CoreError::LabelConflict { .. }
                        | CoreError::InconsistentLabeling { .. }),
                    ) => {
                        self.push(Diagnostic::new(
                            DiagnosticCode::Section6Fallback,
                            format!(
                                "the section 6 labeling scheme wedged ({error}); \
                                 using the constraint-solving scheme"
                            ),
                        ));
                        // The constraint solver needs the same crossing-off
                        // this session's classification stage already ran.
                        let labeling = label_classified(self.program, classification)
                            .map_err(|e| self.label_error(&e))?;
                        Ok(LabelingOutcome {
                            labeling: Arc::new(labeling),
                            method: LabelingMethod::ConstraintSolver,
                            report: None,
                        })
                    }
                    Err(other) => Err(self.label_error(&other)),
                }
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Emits the diagnostic for a labeling-stage error and passes the
    /// error through.
    fn label_error(&self, error: &CoreError) -> CoreError {
        self.push(Diagnostic::from_error(error));
        error.clone()
    }

    /// Stage 3: the consistent labeling.
    ///
    /// # Errors
    ///
    /// Routing errors, [`CoreError::ProgramDeadlocked`] for deadlocked
    /// programs, and labeling failures the constraint-solver fallback
    /// cannot recover from.
    pub fn labeling(&self) -> Result<&Labeling, CoreError> {
        Ok(&self.labeling_outcome()?.labeling)
    }

    /// Which scheme produced the labels (only available once
    /// [`AnalyzerSession::labeling`] succeeds).
    ///
    /// # Errors
    ///
    /// As [`AnalyzerSession::labeling`].
    pub fn labeling_method(&self) -> Result<LabelingMethod, CoreError> {
        Ok(self.labeling_outcome()?.method)
    }

    /// The Section 6 labeling report, when that scheme produced the
    /// labels.
    ///
    /// # Errors
    ///
    /// As [`AnalyzerSession::labeling`].
    pub fn labeling_report(&self) -> Result<Option<&LabelingReport>, CoreError> {
        Ok(self.labeling_outcome()?.report.as_ref())
    }

    /// Stage 4: the independent Section 5 consistency check of the
    /// labeling. Empty means consistent.
    ///
    /// # Errors
    ///
    /// As [`AnalyzerSession::labeling`].
    pub fn consistency(&self) -> Result<&[ConsistencyViolation], CoreError> {
        self.consistency
            .get_or_init(|| {
                let labeling = self.labeling()?;
                let violations = check_consistency(self.program, labeling);
                if !violations.is_empty() {
                    let cells: Vec<CellId> = violations.iter().map(|v| v.cell).collect();
                    let mut messages = Vec::new();
                    for v in &violations {
                        for m in [v.earlier_message, v.later_message] {
                            if !messages.contains(&m) {
                                messages.push(m);
                            }
                        }
                    }
                    self.push(
                        Diagnostic::new(
                            DiagnosticCode::InconsistentLabeling,
                            format!(
                                "the labeling violates consistency at {} cell position(s)",
                                violations.len()
                            ),
                        )
                        .with_messages(messages)
                        .with_cells(cells),
                    );
                }
                Ok(violations)
            })
            .as_ref()
            .map(Vec::as_slice)
            .map_err(Clone::clone)
    }

    /// Stage 5a: the competing-message sets (paper, Section 2.3).
    ///
    /// # Errors
    ///
    /// Propagates routing errors.
    pub fn competing(&self) -> Result<&CompetingSets, CoreError> {
        self.shared_competing().map(|competing| &**competing)
    }

    fn shared_competing(&self) -> Result<&Arc<CompetingSets>, CoreError> {
        self.competing
            .get_or_init(|| Ok(Arc::new(CompetingSets::compute(self.routes()?))))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Stage 5b: the queue requirements (Theorem 1 assumption (ii) data).
    ///
    /// This computes the requirements even when they exceed the hardware
    /// queue count — feasibility is checked by
    /// [`AnalyzerSession::plan`], so an infeasible configuration's
    /// requirements stay inspectable.
    ///
    /// # Errors
    ///
    /// Routing and labeling errors.
    pub fn requirements(&self) -> Result<&QueueRequirements, CoreError> {
        self.shared_requirements()
            .map(|requirements| &**requirements)
    }

    fn shared_requirements(&self) -> Result<&Arc<QueueRequirements>, CoreError> {
        self.requirements
            .get_or_init(|| {
                let competing = self.competing()?;
                let labeling = self.labeling()?;
                // Offered only with reused competing sets, so equal labels
                // give equal requirements.
                match self.base_requirements.borrow_mut().take() {
                    Some((base, requirements)) if *base == *labeling => Ok(requirements),
                    _ => Ok(Arc::new(QueueRequirements::compute(competing, labeling))),
                }
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Stage 6: the certified communication plan.
    ///
    /// # Errors
    ///
    /// Everything earlier stages can fail with, plus
    /// [`CoreError::Infeasible`] when an interval needs more queues than
    /// the compiled configuration provides.
    pub fn plan(&self) -> Result<&CommPlan, CoreError> {
        self.plan
            .get_or_init(|| {
                let outcome = self.labeling_outcome()?;
                debug_assert!(
                    self.consistency().map(<[_]>::is_empty).unwrap_or(true),
                    "labeling schemes must produce consistent labelings"
                );
                let requirements = self.shared_requirements()?;
                let config = self.analyzer.compiled.config();
                if let Err(error) = requirements.check_feasible(config.queues_per_interval) {
                    if let CoreError::Infeasible {
                        hop,
                        required,
                        available,
                    } = &error
                    {
                        // The requirement is the *interval* sum of both
                        // directions' largest same-label groups, so name
                        // the largest group of each direction — not just
                        // the reported hop's (opposite-direction traffic
                        // can be the other half of the shortfall).
                        let mut group: Vec<MessageId> = Vec::new();
                        for (_, messages) in self.competing()?.on_interval(hop.interval()) {
                            let mut by_label: BTreeMap<crate::Label, Vec<MessageId>> =
                                BTreeMap::new();
                            for &m in messages {
                                by_label
                                    .entry(outcome.labeling.label(m))
                                    .or_default()
                                    .push(m);
                            }
                            if let Some(largest) = by_label.into_values().max_by_key(Vec::len) {
                                group.extend(largest);
                            }
                        }
                        self.push(
                            Diagnostic::new(
                                DiagnosticCode::Infeasible,
                                format!(
                                    "interval crossing {hop} needs {required} queues for \
                                     compatible assignment but only {available} are available"
                                ),
                            )
                            .with_messages(group)
                            .with_cells([hop.from(), hop.to()]),
                        );
                    }
                    return Err(error);
                }
                Ok(CommPlan::from_shared(
                    Arc::clone(&outcome.labeling),
                    Arc::clone(self.shared_routes()?),
                    Arc::clone(self.shared_competing()?),
                    Arc::clone(requirements),
                ))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Drives the stages one by one under an observer: each stage's
    /// duration lands in a per-stage histogram and (given a trace context)
    /// a child span. Memoization makes each measurement *exclusive* —
    /// dependencies forced by a later stage were already computed and
    /// timed by their own step.
    fn drive_observed(&self, observed: &Observed) -> Result<(), CoreError> {
        let Observed { obs, instruments } = observed;
        let stages: [&dyn Fn() -> Result<(), CoreError>; STAGES.len()] = [
            &|| self.routes().map(drop),
            &|| self.classification().map(drop),
            &|| self.labeling().map(drop),
            &|| self.competing().map(drop),
            &|| self.requirements().map(drop),
            &|| self.plan().map(drop),
        ];
        for (i, stage) in stages.into_iter().enumerate() {
            let span = self
                .ctx
                .map(|c| obs.tracer().start(c.trace, Some(c.parent), STAGES[i]));
            let start = Instant::now();
            let result = stage();
            instruments
                .stage(obs.registry(), i)
                .record(start.elapsed().as_micros() as u64);
            if let Some(span) = span {
                obs.tracer().finish(span);
            }
            result?;
        }
        Ok(())
    }

    /// Drives every stage, observed when the analyzer carries a bundle.
    fn drive(&self) -> Result<(), CoreError> {
        match &self.analyzer.observed {
            Some(observed) => self.drive_observed(observed),
            None => self.plan().map(drop),
        }
    }

    /// Drives every stage and consumes the session into an
    /// [`AnalysisOutcome`] — the result (identical to
    /// [`Analyzer::analyze`]) plus all accumulated diagnostics.
    #[must_use]
    pub fn finish(self) -> AnalysisOutcome {
        self.finish_with_artifacts().0
    }

    /// [`AnalyzerSession::finish`], also handing back every stage artifact
    /// that succeeded so the next edit can be seeded from them. The
    /// memoized artifacts are drained out of their cells, not cloned.
    /// Failed pipelines keep whatever stages did succeed: a deadlocked
    /// program's classification is exactly what the next (possibly
    /// fixing) edit resumes from.
    pub(crate) fn finish_with_artifacts(self) -> (AnalysisOutcome, StageArtifacts) {
        let driven = self.drive();
        let diagnostics = self.diagnostics.into_inner();
        let routes = self.routes.into_inner().and_then(Result::ok);
        let limits = self.limits.into_inner().and_then(Result::ok);
        let classification = self.classification.into_inner().and_then(Result::ok);
        let competing = self.competing.into_inner().and_then(Result::ok);
        let labeling = self.labeling.into_inner().and_then(Result::ok);
        let requirements = self.requirements.into_inner().and_then(Result::ok);
        let plan = self.plan.into_inner().and_then(Result::ok);
        let requirements = labeling
            .as_ref()
            .zip(requirements)
            .map(|(outcome, requirements)| (Arc::clone(&outcome.labeling), requirements));
        let result = driven.map(|()| {
            let take = "plan success implies every earlier stage succeeded";
            let outcome = labeling.expect(take);
            Analysis::from_parts(
                Arc::clone(classification.as_ref().expect(take)),
                outcome.report,
                outcome.method,
                plan.expect(take),
                limits.expect(take),
            )
        });
        (
            AnalysisOutcome {
                result,
                diagnostics,
            },
            StageArtifacts {
                routes,
                classification,
                competing,
                requirements,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{label_messages, label_messages_robust};
    use systolic_model::parse_program;

    fn fig7_text() -> &'static str {
        "cells 4\n\
         message A: c1 -> c2\n\
         message B: c2 -> c3\n\
         message C: c0 -> c3\n\
         program c0 { W(C)*3 }\n\
         program c1 { W(A)*4 }\n\
         program c2 { R(A)*4 W(B)*3 }\n\
         program c3 { R(C)*3 R(B)*3 }\n"
    }

    #[test]
    fn staged_session_exposes_every_artifact() {
        let p = parse_program(fig7_text()).unwrap();
        let analyzer = Analyzer::for_topology(&Topology::linear(4), &AnalysisConfig::default());
        let session = analyzer.session(&p);
        assert_eq!(session.routes().unwrap().len(), 3);
        assert!(session.classification().unwrap().is_deadlock_free());
        assert_eq!(session.labeling().unwrap().len(), 3);
        assert_eq!(session.labeling_method().unwrap(), LabelingMethod::Section6);
        assert!(session.labeling_report().unwrap().is_some());
        assert!(session.consistency().unwrap().is_empty());
        assert_eq!(session.competing().unwrap().len(), 3);
        assert_eq!(session.requirements().unwrap().max_per_interval(), 1);
        assert_eq!(session.plan().unwrap().labeling().len(), 3);
        assert!(session.diagnostics().is_empty());
        let outcome = session.finish();
        assert!(outcome.is_certified());
        assert!(outcome.diagnostics().is_empty());
    }

    #[test]
    fn shared_and_fresh_compilation_agree_on_fig7() {
        let p = parse_program(fig7_text()).unwrap();
        let topology = Topology::linear(4);
        let config = AnalysisConfig::default();
        let fresh = Analyzer::for_topology(&topology, &config)
            .analyze(&p)
            .unwrap();
        let compiled = CompiledTopology::compile(&topology, &config).into_shared();
        let shared = Analyzer::new(Arc::clone(&compiled)).analyze(&p).unwrap();
        assert_eq!(fresh.plan().fingerprint(), shared.plan().fingerprint());
        assert_eq!(fresh.labeling_method(), shared.labeling_method());
    }

    #[test]
    fn deadlock_produces_a_structured_diagnostic() {
        let p = parse_program(
            "cells 2\n\
             message A: c0 -> c1\n\
             message B: c1 -> c0\n\
             program c0 { R(B) W(A) }\n\
             program c1 { R(A) W(B) }\n",
        )
        .unwrap();
        let analyzer = Analyzer::for_topology(&Topology::linear(2), &AnalysisConfig::default());
        let outcome = analyzer.diagnose(&p);
        assert!(matches!(
            outcome.result(),
            Err(CoreError::ProgramDeadlocked { .. })
        ));
        let diagnostics = outcome.diagnostics();
        assert_eq!(diagnostics.len(), 1);
        let d = &diagnostics.as_slice()[0];
        assert_eq!(d.code(), DiagnosticCode::Deadlock);
        assert_eq!(d.cell_ids(), &[CellId::new(0), CellId::new(1)]);
        assert!(!d.message_ids().is_empty());
    }

    #[test]
    fn infeasible_names_the_interval_and_competitors() {
        // Fig. 9: two same-label messages on one hop need 2 queues.
        let p = parse_program(
            "cells 3\n\
             message A: c0 -> c1\n\
             message B: c0 -> c2\n\
             program c0 { W(A) W(B) W(A) W(A) W(B) W(B) W(A) }\n\
             program c1 { R(A)*4 }\n\
             program c2 { R(B)*3 }\n",
        )
        .unwrap();
        let analyzer = Analyzer::for_topology(&Topology::linear(3), &AnalysisConfig::default());
        let session = analyzer.session(&p);
        // The requirements stage stays inspectable despite infeasibility.
        assert_eq!(session.requirements().unwrap().max_per_interval(), 2);
        let err = session.plan().unwrap_err();
        assert!(matches!(
            err,
            CoreError::Infeasible {
                required: 2,
                available: 1,
                ..
            }
        ));
        let outcome = session.finish();
        let d = outcome
            .diagnostics()
            .iter()
            .find(|d| d.code() == DiagnosticCode::Infeasible)
            .expect("infeasible diagnostic");
        assert_eq!(d.cell_ids(), &[CellId::new(0), CellId::new(1)]);
        assert_eq!(
            d.message_ids().len(),
            2,
            "both same-label competitors named"
        );
    }

    #[test]
    fn unroutable_message_is_diagnosed_with_its_id() {
        let p = parse_program(
            "cells 4\n\
             message A: c0 -> c3\n\
             program c0 { W(A) }\n\
             program c3 { R(A) }\n",
        )
        .unwrap();
        let disconnected = Topology::graph(
            4,
            [
                (CellId::new(0), CellId::new(1)),
                (CellId::new(2), CellId::new(3)),
            ],
        )
        .unwrap();
        let analyzer = Analyzer::for_topology(&disconnected, &AnalysisConfig::default());
        let outcome = analyzer.diagnose(&p);
        assert!(outcome.result().is_err());
        let d = &outcome.diagnostics().as_slice()[0];
        assert_eq!(d.code(), DiagnosticCode::RouteFailure);
        assert_eq!(d.message_ids(), &[MessageId::new(0)]);
        assert_eq!(d.cell_ids(), &[CellId::new(0), CellId::new(3)]);
    }

    #[test]
    fn section6_fallback_emits_a_warning() {
        // The 6-cell witness where the literal Section 6 scheme wedges.
        let p = parse_program(
            "cells 6\n\
             message M0: c5 -> c2\n\
             message M1: c1 -> c4\n\
             message M2: c3 -> c0\n\
             message M3: c0 -> c4\n\
             message M4: c4 -> c2\n\
             message M5: c0 -> c4\n\
             message M6: c2 -> c1\n\
             message M7: c4 -> c2\n\
             message M8: c2 -> c3\n\
             program c0 { W(M5) W(M5) R(M2) W(M3) }\n\
             program c1 { R(M6) R(M6) W(M1) W(M1) }\n\
             program c2 { R(M4) R(M4) W(M6) W(M6) W(M8) R(M7) R(M7) R(M0) R(M0) }\n\
             program c3 { R(M8) W(M2) }\n\
             program c4 { W(M4) W(M4) R(M5) R(M5) R(M1) R(M3) R(M1) W(M7) W(M7) }\n\
             program c5 { W(M0) W(M0) }\n",
        )
        .unwrap();
        let config = AnalysisConfig {
            queues_per_interval: 4,
            ..Default::default()
        };
        let analyzer = Analyzer::for_topology(&Topology::linear(6), &config);
        let outcome = analyzer.diagnose(&p);
        assert!(outcome.is_certified());
        let d = &outcome.diagnostics().as_slice()[0];
        assert_eq!(d.code(), DiagnosticCode::Section6Fallback);
        assert_eq!(d.severity(), crate::Severity::Warning);

        // The literal scheme wedges on it; the constraint solver labels
        // it, and those are the labels the plan carries.
        let limits = LookaheadLimits::disabled(&p);
        assert!(label_messages(&p, &limits).is_err());
        let solver = label_messages_robust(&p, &limits).unwrap();
        let analysis = outcome.into_result().unwrap();
        assert_eq!(analysis.labeling_method(), LabelingMethod::ConstraintSolver);
        assert_eq!(analysis.plan().labeling(), &solver);
    }

    #[test]
    fn lookahead_session_reports_extension_candidates() {
        let p = parse_program(
            "cells 2\n\
             message A: c0 -> c1\n\
             message B: c0 -> c1\n\
             program c0 { W(A)*4 W(B) }\n\
             program c1 { R(B) R(A)*4 }\n",
        )
        .unwrap();
        let config = AnalysisConfig {
            lookahead: Lookahead::Unbounded,
            queues_per_interval: 2,
        };
        let analyzer = Analyzer::for_topology(&Topology::linear(2), &config);
        let outcome = analyzer.diagnose(&p);
        assert!(outcome.is_certified());
        let d = outcome
            .diagnostics()
            .iter()
            .find(|d| d.code() == DiagnosticCode::ExtensionCandidate)
            .expect("extension-candidate diagnostic");
        assert_eq!(d.message_ids(), &[MessageId::new(0)]);
        assert_eq!(d.severity(), crate::Severity::Info);
    }

    #[test]
    fn observed_session_times_stages_and_nests_spans() {
        let p = parse_program(fig7_text()).unwrap();
        let obs = Arc::new(systolic_obs::Obs::new());
        let analyzer = Analyzer::for_topology(&Topology::linear(4), &AnalysisConfig::default())
            .with_obs(Arc::clone(&obs));
        let trace = obs.tracer().new_trace();
        let root = obs.tracer().start(trace, None, "request");
        let root_id = root.id();
        let outcome = analyzer.diagnose_in(&p, Some(root.ctx()));
        obs.tracer().finish(root);
        assert!(outcome.is_certified());

        let stages = [
            "routes",
            "classification",
            "labeling",
            "competing",
            "requirements",
            "plan",
        ];
        let snap = obs.registry().snapshot();
        for stage in stages {
            let h = snap.histogram_value(names::ANALYZER_STAGE_DURATION, &[("stage", stage)]);
            assert_eq!(h.count, 1, "one sample for stage {stage}");
        }
        let events = obs.tracer().snapshot();
        assert_eq!(events.len(), stages.len() + 1);
        for event in events.iter().filter(|e| e.name != "request") {
            assert_eq!(event.trace, trace);
            assert_eq!(event.parent, Some(root_id), "stage {} nests", event.name);
        }
    }

    #[test]
    fn observed_session_counts_diagnostic_codes() {
        let p = parse_program(
            "cells 2\n\
             message A: c0 -> c1\n\
             message B: c1 -> c0\n\
             program c0 { R(B) W(A) }\n\
             program c1 { R(A) W(B) }\n",
        )
        .unwrap();
        let obs = Arc::new(systolic_obs::Obs::new());
        let analyzer = Analyzer::for_topology(&Topology::linear(2), &AnalysisConfig::default())
            .with_obs(Arc::clone(&obs));
        let outcome = analyzer.diagnose_in(&p, None);
        assert!(outcome.result().is_err());
        let snap = obs.registry().snapshot();
        assert_eq!(
            snap.counter_value(names::ANALYZER_DIAGNOSTICS, &[("code", "E-DEADLOCK")]),
            1
        );
        // The pipeline stops at the failing stage: routes, classification,
        // then labeling fails — later stages record no samples.
        assert_eq!(
            snap.histogram_value(names::ANALYZER_STAGE_DURATION, &[("stage", "labeling")])
                .count,
            1
        );
        assert_eq!(
            snap.histogram_value(names::ANALYZER_STAGE_DURATION, &[("stage", "plan")])
                .count,
            0
        );
    }

    #[test]
    fn analyzers_on_one_bundle_share_lazily_resolved_handles() {
        let obs = Arc::new(systolic_obs::Obs::new());
        let topology = Topology::linear(2);
        let attach = || {
            Analyzer::for_topology(&topology, &AnalysisConfig::default()).with_obs(Arc::clone(&obs))
        };
        let (first, second) = (attach(), attach());
        assert!(Arc::ptr_eq(
            &first.observed().unwrap().instruments,
            &second.observed().unwrap().instruments
        ));
        // A program the topology cannot hold fails at routing: only that
        // stage's series and its diagnostic's exist, as when every sample
        // looked its instrument up.
        let p = parse_program(fig7_text()).unwrap();
        assert!(first.diagnose(&p).result().is_err());
        assert!(second.diagnose(&p).result().is_err());
        let text = obs.registry().render_prometheus();
        assert!(text.contains("stage=\"routes\""), "{text}");
        assert!(!text.contains("stage=\"plan\""), "{text}");
        let snap = obs.registry().snapshot();
        assert_eq!(
            snap.counter_value(names::ANALYZER_DIAGNOSTICS, &[("code", "E-CELL-COUNT")]),
            2
        );
        assert_eq!(
            snap.histogram_value(names::ANALYZER_STAGE_DURATION, &[("stage", "routes")])
                .count,
            2
        );
    }

    #[test]
    fn consistency_stage_passes_for_shipped_schemes() {
        let p = parse_program(fig7_text()).unwrap();
        let analyzer = Analyzer::for_topology(&Topology::linear(4), &AnalysisConfig::default());
        let session = analyzer.session(&p);
        assert!(session.consistency().unwrap().is_empty());
    }
}
