//! Parity property tests: analyzing through a shared, reused
//! [`CompiledTopology`] must be observably identical to a fresh one-shot
//! compilation on random programs and topologies — byte-identical
//! `CommPlan` fingerprints on success, identical errors on rejection.

use proptest::prelude::*;
use systolic::core::{AnalysisConfig, Analyzer, CompiledTopology, Lookahead};
use systolic::workloads::{random_program, random_topology, scramble, RandomConfig};

fn shapes() -> impl Strategy<Value = RandomConfig> {
    (2usize..7, 1usize..10, 1usize..4, 1usize..4, any::<bool>()).prop_map(
        |(cells, messages, max_words, max_span, clustered)| RandomConfig {
            cells,
            messages,
            max_words,
            max_span: max_span.min(cells - 1).max(1),
            clustered,
        },
    )
}

fn lookaheads() -> impl Strategy<Value = Lookahead> {
    (0usize..5).prop_map(|pick| match pick {
        0 => Lookahead::Disabled,
        1..=3 => Lookahead::PerQueueCapacity(pick),
        _ => Lookahead::Unbounded,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same inputs, same outputs: a shared compilation whose session
    /// stages run out of order vs. a fresh compilation run straight
    /// through.
    #[test]
    fn shared_compilation_matches_fresh_compilation(
        shape in shapes(),
        seed in 0u64..1_000_000,
        scrambled in any::<bool>(),
        lookahead in lookaheads(),
        queues in 1usize..4,
    ) {
        let program = random_program(&shape, seed).expect("random programs build");
        let program =
            if scrambled { scramble(&program, seed ^ 0xc0ffee) } else { program };
        let topology = random_topology(&shape);
        let config = AnalysisConfig { lookahead, queues_per_interval: queues };

        let fresh = Analyzer::for_topology(&topology, &config).analyze(&program);

        // The shared path: one compilation, first used for an unrelated
        // analysis, then a session whose stages are poked out of order
        // before finishing.
        let compiled = CompiledTopology::compile(&topology, &config).into_shared();
        let analyzer = Analyzer::new(compiled);
        let _ = analyzer.analyze(&scramble(&program, seed));
        let session = analyzer.session(&program);
        let _ = session.requirements(); // force later stages first
        let _ = session.classification();
        let staged = session.finish();

        match (&fresh, staged.result()) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(
                    a.plan().fingerprint(),
                    b.plan().fingerprint(),
                    "plan fingerprints must be byte-identical"
                );
                prop_assert_eq!(a.labeling_method(), b.labeling_method());
                prop_assert_eq!(a.limits(), b.limits());
                prop_assert_eq!(
                    a.classification().is_deadlock_free(),
                    b.classification().is_deadlock_free()
                );
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "errors must be identical"),
            (fresh, staged) => prop_assert!(
                false,
                "verdicts diverged: fresh {:?} vs shared {:?}",
                fresh.is_ok(),
                staged.is_ok()
            ),
        }

        // Unsafe programs must come with at least one error diagnostic;
        // certified ones with none.
        if staged.is_certified() {
            prop_assert!(!staged.diagnostics().has_errors());
        } else {
            prop_assert!(staged.diagnostics().has_errors());
            let d = staged
                .diagnostics()
                .errors()
                .next()
                .expect("has_errors implies an error diagnostic");
            prop_assert!(d.code().as_str().starts_with("E-"));
        }
    }

    /// Analyzing through one shared compilation many times is stable: the
    /// fingerprint of the plan never depends on compilation reuse.
    #[test]
    fn shared_compilation_is_stateless(
        shape in shapes(),
        seed in 0u64..1_000_000,
    ) {
        let program = random_program(&shape, seed).expect("random programs build");
        let topology = random_topology(&shape);
        let config = AnalysisConfig {
            queues_per_interval: shape.messages.max(1),
            ..Default::default()
        };
        let analyzer = Analyzer::new(CompiledTopology::compile(&topology, &config));
        let first = analyzer.analyze(&program);
        let second = analyzer.analyze(&program);
        match (first, second) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.plan().fingerprint(), b.plan().fingerprint());
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            _ => prop_assert!(false, "repeat analysis changed its verdict"),
        }
    }
}
