//! The end-to-end analysis pipeline (paper, Section 9's "major steps").
//!
//! 1. classify the program with the crossing-off procedure (must be
//!    deadlock-free — the programmer/compiler's responsibility, checked
//!    here);
//! 2. produce a consistent labeling with the Section 6 scheme (verified
//!    independently);
//! 3. compute the competing sets and queue requirements, and check Theorem 1
//!    assumption (ii) against the hardware's queue count;
//! 4. emit the [`CommPlan`] a runtime enforces with compatible assignment.
//!
//! The stages run in the [`Analyzer`](crate::Analyzer) (see
//! [`analyzer`](crate::analyzer)); this module holds the configuration
//! they run under and the [`Analysis`] they produce.

use std::sync::Arc;

use systolic_model::{MessageId, Program};

use crate::{Classification, CommPlan, LabelingReport, LookaheadLimits};

/// How much lookahead (queue buffering) the analysis may assume.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum Lookahead {
    /// None: queues are latches without buffering (paper, Sections 3–7).
    #[default]
    Disabled,
    /// Rule R2 with a uniform per-queue capacity: each message may be
    /// skipped up to `hops × capacity` times (paper, Section 8.1).
    PerQueueCapacity(usize),
    /// An explicit per-message budget table.
    Explicit(LookaheadLimits),
    /// Unbounded skipping — assumes the iWarp queue-extension mechanism.
    Unbounded,
}

/// Configuration for an [`Analyzer`](crate::Analyzer) run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AnalysisConfig {
    /// Lookahead assumption for the crossing-off procedure.
    pub lookahead: Lookahead,
    /// Hardware queues available on every interval, for the feasibility
    /// check (Theorem 1 assumption (ii)).
    pub queues_per_interval: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            lookahead: Lookahead::Disabled,
            queues_per_interval: 1,
        }
    }
}

impl AnalysisConfig {
    /// Checks that this configuration covers `program`: an explicit
    /// lookahead table needs exactly one budget per declared message, or
    /// the crossing-off procedure indexes past its end.
    ///
    /// # Errors
    ///
    /// A message naming both counts when an explicit table's length
    /// differs from the program's message count.
    pub fn check_covers(&self, program: &Program) -> Result<(), String> {
        match &self.lookahead {
            Lookahead::Explicit(limits) if limits.len() != program.num_messages() => Err(format!(
                "lookahead array has {} entries but the program declares {} messages",
                limits.len(),
                program.num_messages()
            )),
            _ => Ok(()),
        }
    }
}

/// Which labeling scheme produced the plan's labels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LabelingMethod {
    /// The paper's Section 6 scheme succeeded.
    Section6,
    /// The Section 6 scheme wedged (see `label_messages_robust` for why it
    /// can); the complete constraint-solving scheme was used instead.
    ConstraintSolver,
}

impl LabelingMethod {
    /// Both methods: the table [`LabelingMethod::as_str`]'s inverse
    /// searches.
    pub(crate) const ALL: [LabelingMethod; 2] =
        [LabelingMethod::Section6, LabelingMethod::ConstraintSolver];

    /// Stable wire/disk name (`"section6"` / `"constraint-solver"`),
    /// shared by the JSONL responses and the snapshot.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            LabelingMethod::Section6 => "section6",
            LabelingMethod::ConstraintSolver => "constraint-solver",
        }
    }
}

/// A successful end-to-end analysis.
#[derive(Clone, Debug)]
pub struct Analysis {
    classification: Arc<Classification>,
    labeling_report: Option<LabelingReport>,
    labeling_method: LabelingMethod,
    plan: CommPlan,
    limits: LookaheadLimits,
}

impl Analysis {
    /// Assembles an analysis from staged artifacts (the
    /// [`Analyzer`](crate::Analyzer)'s final step).
    pub(crate) fn from_parts(
        classification: Arc<Classification>,
        labeling_report: Option<LabelingReport>,
        labeling_method: LabelingMethod,
        plan: CommPlan,
        limits: LookaheadLimits,
    ) -> Self {
        Analysis {
            classification,
            labeling_report,
            labeling_method,
            plan,
            limits,
        }
    }

    /// The crossing-off verdict and trace (always deadlock-free here).
    #[must_use]
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// The Section 6 labeling report (labels plus provenance), when that
    /// scheme succeeded; `None` when the constraint solver was used.
    #[must_use]
    pub fn labeling_report(&self) -> Option<&LabelingReport> {
        self.labeling_report.as_ref()
    }

    /// Which labeling scheme produced the plan's labels.
    #[must_use]
    pub fn labeling_method(&self) -> LabelingMethod {
        self.labeling_method
    }

    /// The certified communication plan.
    #[must_use]
    pub fn plan(&self) -> &CommPlan {
        &self.plan
    }

    /// Consumes the analysis, returning the plan.
    #[must_use]
    pub fn into_plan(self) -> CommPlan {
        self.plan
    }

    /// The lookahead limits that were actually applied.
    #[must_use]
    pub fn limits(&self) -> &LookaheadLimits {
        &self.limits
    }

    /// Messages whose worst-case skip count exceeds `capacity` words of
    /// buffering along their route — exactly the messages for which the
    /// iWarp queue-extension mechanism "needs to be invoked" (Section 8.1).
    #[must_use]
    pub fn extension_candidates(&self, per_message_capacity: &[usize]) -> Vec<(MessageId, usize)> {
        let trace = self.classification.trace();
        (0..self.plan.labeling().len())
            .map(|i| MessageId::new(i as u32))
            .filter_map(|m| {
                let skips = trace.max_skips(m);
                let cap = per_message_capacity.get(m.index()).copied().unwrap_or(0);
                (skips > cap).then_some((m, skips))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Analyzer, CoreError};
    use systolic_model::{parse_program, Topology};

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
    fn full_pipeline_on_fig7() {
        let p = parse_program(fig7_text()).unwrap();
        let a = Analyzer::for_topology(&Topology::linear(4), &AnalysisConfig::default())
            .analyze(&p)
            .unwrap();
        assert!(a.classification().is_deadlock_free());
        assert_eq!(a.plan().requirements().max_per_interval(), 1);
        assert!(a.extension_candidates(&[0, 0, 0]).is_empty());
    }

    #[test]
    fn deadlocked_program_fails_the_pipeline() {
        let p = parse_program(
            "cells 2\n\
             message A: c0 -> c1\n\
             message B: c1 -> c0\n\
             program c0 { R(B) W(A) }\n\
             program c1 { R(A) W(B) }\n",
        )
        .unwrap();
        let err = Analyzer::for_topology(&Topology::linear(2), &AnalysisConfig::default())
            .analyze(&p)
            .unwrap_err();
        assert!(matches!(err, CoreError::ProgramDeadlocked { .. }));
    }

    #[test]
    fn infeasible_queue_count_fails_the_pipeline() {
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
        let config = AnalysisConfig {
            queues_per_interval: 1,
            ..Default::default()
        };
        let err = Analyzer::for_topology(&Topology::linear(3), &config)
            .analyze(&p)
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Infeasible {
                required: 2,
                available: 1,
                ..
            }
        ));

        let config = AnalysisConfig {
            queues_per_interval: 2,
            ..Default::default()
        };
        assert!(Analyzer::for_topology(&Topology::linear(3), &config)
            .analyze(&p)
            .is_ok());
    }

    #[test]
    fn lookahead_unlocks_p1() {
        let p = parse_program(
            "cells 2\n\
             message A: c0 -> c1\n\
             message B: c0 -> c1\n\
             program c0 { W(A) W(A) W(B) W(A) W(B) W(A) }\n\
             program c1 { R(B) R(A) R(B) R(A) R(A) R(A) }\n",
        )
        .unwrap();
        // Without lookahead: deadlocked.
        let err = Analyzer::for_topology(&Topology::linear(2), &AnalysisConfig::default())
            .analyze(&p)
            .unwrap_err();
        assert!(matches!(err, CoreError::ProgramDeadlocked { .. }));

        // With 2 words of buffering per queue: fine, but A and B now share a
        // label (Section 8.2), so the hop needs 2 queues.
        let config = AnalysisConfig {
            lookahead: Lookahead::PerQueueCapacity(2),
            queues_per_interval: 2,
        };
        let a = Analyzer::for_topology(&Topology::linear(2), &config)
            .analyze(&p)
            .unwrap();
        assert_eq!(a.plan().requirements().max_per_interval(), 2);

        // ... and with only one hardware queue that is infeasible.
        let config = AnalysisConfig {
            lookahead: Lookahead::PerQueueCapacity(2),
            queues_per_interval: 1,
        };
        let err = Analyzer::for_topology(&Topology::linear(2), &config)
            .analyze(&p)
            .unwrap_err();
        assert!(matches!(err, CoreError::Infeasible { .. }));
    }

    #[test]
    fn unbounded_lookahead_reports_extension_candidates() {
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
        let a = Analyzer::for_topology(&Topology::linear(2), &config)
            .analyze(&p)
            .unwrap();
        // Locating W(B) skips 4 writes of A; with only 2 words of route
        // capacity, A needs the queue-extension mechanism.
        let m_a = p.message_id("A").unwrap();
        let candidates = a.extension_candidates(&[2, 2]);
        assert_eq!(candidates, vec![(m_a, 4)]);
        // With 4 words of capacity nothing needs extension.
        assert!(a.extension_candidates(&[4, 4]).is_empty());
    }

    #[test]
    fn cell_count_mismatch_is_a_model_error() {
        let p = parse_program(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n",
        )
        .unwrap();
        let err = Analyzer::for_topology(&Topology::linear(3), &AnalysisConfig::default())
            .analyze(&p)
            .unwrap_err();
        assert!(matches!(err, CoreError::Model(_)));
    }

    #[test]
    fn analysis_exposes_limits_and_report() {
        let p = parse_program(fig7_text()).unwrap();
        let config = AnalysisConfig {
            lookahead: Lookahead::PerQueueCapacity(1),
            queues_per_interval: 2,
        };
        let a = Analyzer::for_topology(&Topology::linear(4), &config)
            .analyze(&p)
            .unwrap();
        assert_eq!(a.limits().len(), 3);
        assert_eq!(a.labeling_report().unwrap().labeling().len(), 3);
        assert_eq!(a.labeling_method(), LabelingMethod::Section6);
    }

    #[test]
    fn pipeline_falls_back_to_constraint_solver_on_wedge() {
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
        let a = Analyzer::for_topology(&Topology::linear(6), &config)
            .analyze(&p)
            .unwrap();
        assert_eq!(a.labeling_method(), LabelingMethod::ConstraintSolver);
        assert!(a.labeling_report().is_none());
        assert!(crate::is_consistent(&p, a.plan().labeling()));
    }
}
