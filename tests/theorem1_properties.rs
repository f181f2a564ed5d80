//! Property-based tests of the paper's central claims (Theorem 1 and the
//! Section 6 labeling scheme), over randomly generated programs.

use proptest::prelude::*;
use systolic::core::CompetingSets;
use systolic::core::{
    check_consistency, classify, label_messages, label_messages_robust, AnalysisConfig, Analyzer,
    CoreError, Labeling, LookaheadLimits, QueueRequirements, RelatedMessages,
};
use systolic::model::MessageRoutes;
use systolic::sim::{run_simulation, CompatiblePolicy, CostModel, QueueConfig, SimConfig};
use systolic::workloads::{random_program, random_topology, RandomConfig};

fn config_strategy() -> impl Strategy<Value = RandomConfig> {
    (2usize..=6, 1usize..=10, 1usize..=5, any::<bool>()).prop_map(
        |(cells, messages, max_words, clustered)| RandomConfig {
            cells,
            messages,
            max_words,
            max_span: cells - 1,
            clustered,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Schedule-projected programs are deadlock-free by construction
    /// (Section 3.3's strategy, generalized).
    #[test]
    fn projected_programs_are_deadlock_free(cfg in config_strategy(), seed in 0u64..1000) {
        let program = random_program(&cfg, seed).unwrap();
        prop_assert!(classify(&program).is_deadlock_free());
    }

    /// The Section 6 scheme never produces an inconsistent labeling
    /// silently: it either succeeds with a consistent labeling or reports
    /// the wedge explicitly (`LabelConflict`) — a gap in the literal paper
    /// scheme that the constraint solver covers (see the module docs of
    /// `systolic_core`'s `constraint_labeling`).
    #[test]
    fn section6_scheme_is_consistent_or_reports_conflict(
        cfg in config_strategy(),
        seed in 0u64..1000,
        cap in 0usize..4,
    ) {
        let program = random_program(&cfg, seed).unwrap();
        let limits = LookaheadLimits::uniform(&program, cap);
        match label_messages(&program, &limits) {
            Ok(report) => {
                prop_assert!(check_consistency(&program, report.labeling()).is_empty());
            }
            Err(
                CoreError::LabelConflict { .. } | CoreError::InconsistentLabeling { .. },
            ) => {} // explicit, acceptable — the pipeline falls back
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }

    /// The constraint-solving scheme always succeeds and is always
    /// consistent, with or without lookahead.
    #[test]
    fn robust_labeling_is_consistent(
        cfg in config_strategy(),
        seed in 0u64..1000,
        cap in 0usize..4,
    ) {
        let program = random_program(&cfg, seed).unwrap();
        let limits = LookaheadLimits::uniform(&program, cap);
        let labeling = label_messages_robust(&program, &limits).unwrap();
        prop_assert!(check_consistency(&program, &labeling).is_empty());
    }

    /// Related messages always share a label under both schemes (rule 1c).
    #[test]
    fn related_messages_share_labels(cfg in config_strategy(), seed in 0u64..1000) {
        let program = random_program(&cfg, seed).unwrap();
        let limits = LookaheadLimits::disabled(&program);
        let related = RelatedMessages::of(&program);
        let robust = label_messages_robust(&program, &limits).unwrap();
        let section6 = label_messages(&program, &limits)
            .ok()
            .map(systolic::core::LabelingReport::into_labeling);
        for a in program.message_ids() {
            for b in program.message_ids() {
                if related.are_related(a, b) {
                    prop_assert_eq!(robust.label(a), robust.label(b));
                    if let Some(l) = &section6 {
                        prop_assert_eq!(l.label(a), l.label(b));
                    }
                }
            }
        }
    }

    /// THEOREM 1: deadlock-free program + consistent labeling + compatible
    /// assignment with sufficient queues => the run completes.
    #[test]
    fn theorem1_compatible_assignment_never_deadlocks(
        cfg in config_strategy(),
        seed in 0u64..1000,
        extra_queues in 0usize..2,
    ) {
        let program = random_program(&cfg, seed).unwrap();
        let topology = random_topology(&cfg);
        // Give the hardware exactly what assumption (ii) demands (plus an
        // optional surplus), computed from the plan itself: analyze with a
        // generous pool first to learn the requirement, then re-check at
        // the tight count.
        let generous = AnalysisConfig {
            queues_per_interval: program.num_messages().max(1) * 2,
            ..Default::default()
        };
        let probe = Analyzer::for_topology(&topology, &generous).analyze(&program).unwrap();
        let needed = probe.plan().requirements().max_per_interval().max(1);
        let queues = needed + extra_queues;

        let tight = AnalysisConfig { queues_per_interval: queues, ..Default::default() };
        let analysis = Analyzer::for_topology(&topology, &tight).analyze(&program).unwrap();
        let out = run_simulation(
            &program,
            &topology,
            Box::new(CompatiblePolicy::new(analysis.into_plan())),
            SimConfig {
                queues_per_interval: queues,
                queue: QueueConfig { capacity: 1, extension: false },
                cost: CostModel::systolic(),
                max_cycles: 1_000_000,
            },
        )
        .unwrap();
        prop_assert!(out.is_completed(), "Theorem 1 violated: {out:?}");
    }

    /// The Section 6 labeling never requires more queues than the trivial
    /// all-equal labeling (it can only split groups, not merge them).
    #[test]
    fn scheme_labeling_requirement_is_no_worse_than_trivial(
        cfg in config_strategy(),
        seed in 0u64..1000,
    ) {
        let program = random_program(&cfg, seed).unwrap();
        let topology = random_topology(&cfg);
        let routes = MessageRoutes::compute(&program, &topology).unwrap();
        let competing = CompetingSets::compute(&routes);
        let limits = LookaheadLimits::disabled(&program);
        let labeling = label_messages_robust(&program, &limits).unwrap();
        let scheme = QueueRequirements::compute(&competing, &labeling);
        let trivial = QueueRequirements::compute(&competing, &Labeling::trivial(&program));
        for (hop, need) in scheme.iter_hops() {
            prop_assert!(need <= trivial.on_hop(hop));
        }
    }
}

/// Regression: the exact random program (5 cells, 8 single-word messages,
/// unclustered, seed 959) on which a direction-blind compatible policy
/// deadlocked — opposite-direction messages shared the interval pools and
/// held-and-waited across intervals. With per-direction sub-pools it
/// completes.
#[test]
fn cross_direction_starvation_regression() {
    let cfg = RandomConfig {
        cells: 5,
        messages: 8,
        max_words: 1,
        max_span: 4,
        clustered: false,
    };
    let program = random_program(&cfg, 959).unwrap();
    let topology = random_topology(&cfg);
    let generous = AnalysisConfig {
        queues_per_interval: program.num_messages().max(1) * 2,
        ..Default::default()
    };
    let probe = Analyzer::for_topology(&topology, &generous)
        .analyze(&program)
        .unwrap();
    let needed = probe.plan().requirements().max_per_interval().max(1);
    let tight = AnalysisConfig {
        queues_per_interval: needed,
        ..Default::default()
    };
    let analysis = Analyzer::for_topology(&topology, &tight)
        .analyze(&program)
        .unwrap();
    let out = run_simulation(
        &program,
        &topology,
        Box::new(CompatiblePolicy::new(analysis.into_plan())),
        SimConfig {
            queues_per_interval: needed,
            queue: QueueConfig {
                capacity: 1,
                extension: false,
            },
            cost: CostModel::systolic(),
            max_cycles: 1_000_000,
        },
    )
    .unwrap();
    assert!(out.is_completed(), "{out:?}");
}
