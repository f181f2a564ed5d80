//! Incremental-reanalysis parity property tests: a dirty-tracked
//! [`IncrementalSession`] must be observably identical to a from-scratch
//! analysis of the same edited program at *every* step of a random edit
//! script — byte-identical `CommPlan` fingerprints and diagnostics on
//! success, identical `CoreError`s on rejected programs, identical
//! `EditError`s on invalid batches (which must leave the session
//! untouched). Runs across mixed linear/ring/mesh/torus topologies, all
//! lookahead modes, and forced-fallback configurations, so both the
//! seeded fast path and the dirty-ratio fallback are held to the same
//! bar.

use proptest::prelude::*;
use systolic::core::{
    AnalysisConfig, Analyzer, EditOp, IncrementalConfig, IncrementalSession, Lookahead,
};
use systolic::model::{CellId, Op, Topology};
use systolic::workloads::{random_program, RandomConfig};

/// Abstract edit-step recipes, resolved against the session's *current*
/// program when applied (so a script stays meaningful as the program
/// evolves under it).
#[derive(Clone, Debug)]
enum Step {
    /// Append `W(m)` at m's source and `R(m)` at m's destination — always
    /// a valid batch.
    AppendBalanced { msg: usize },
    /// Pop the last op of one cell. May be rejected (empty cell,
    /// unbalanced message) or accepted; both paths are checked.
    RemoveTail { cell: usize },
    /// Append a lone write — unbalances the message, always rejected.
    AppendUnbalanced { msg: usize },
    /// Name a cell past the end of the program — always rejected.
    UnknownCell { offset: usize },
}

/// Deterministic stream for deriving edit scripts from one proptest
/// seed (the vendored proptest shim has no collection strategies).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives a 1..=7-step script: balanced appends weighted heaviest, with
/// tail removals and always-invalid batches mixed in.
fn script_from_seed(seed: u64) -> Vec<Step> {
    let mut state = seed;
    let len = 1 + (splitmix(&mut state) % 7) as usize;
    (0..len)
        .map(|_| {
            let pick = splitmix(&mut state) % 8;
            let arg = (splitmix(&mut state) % 64) as usize;
            match pick {
                0..=3 => Step::AppendBalanced { msg: arg },
                4 | 5 => Step::RemoveTail { cell: arg },
                6 => Step::AppendUnbalanced { msg: arg },
                _ => Step::UnknownCell { offset: arg % 4 },
            }
        })
        .collect()
}

fn lookaheads() -> impl Strategy<Value = Lookahead> {
    (0usize..5).prop_map(|pick| match pick {
        0 | 1 => Lookahead::Disabled,
        2 | 3 => Lookahead::PerQueueCapacity(pick - 1),
        _ => Lookahead::Unbounded,
    })
}

/// Even cell counts so the mesh/torus variants (2 × cells/2) hold exactly
/// the program's cells.
fn shapes() -> impl Strategy<Value = RandomConfig> {
    (2usize..4, 1usize..7, 1usize..4, any::<bool>()).prop_map(
        |(half_cells, messages, max_words, clustered)| RandomConfig {
            cells: half_cells * 2,
            messages,
            max_words,
            max_span: 1,
            clustered,
        },
    )
}

fn pick_topology(pick: usize, cells: usize) -> Topology {
    match pick % 4 {
        0 => Topology::linear(cells),
        1 => Topology::ring(cells),
        2 => Topology::mesh(2, cells / 2),
        _ => Topology::torus(2, cells / 2),
    }
}

/// Resolves one abstract step into concrete [`EditOp`]s against the
/// session's current program.
fn resolve(step: &Step, session: &IncrementalSession) -> Vec<EditOp> {
    let program = session.program();
    match step {
        Step::AppendBalanced { msg } => {
            let ids: Vec<_> = program.message_ids().collect();
            let m = ids[msg % ids.len()];
            let decl = program.message(m);
            vec![
                EditOp::AppendOp {
                    cell: decl.sender(),
                    op: Op::write(m),
                },
                EditOp::AppendOp {
                    cell: decl.receiver(),
                    op: Op::read(m),
                },
            ]
        }
        Step::RemoveTail { cell } => vec![EditOp::RemoveTailOp {
            cell: CellId::new((cell % program.num_cells()) as u32),
        }],
        Step::AppendUnbalanced { msg } => {
            let ids: Vec<_> = program.message_ids().collect();
            let m = ids[msg % ids.len()];
            vec![EditOp::AppendOp {
                cell: program.message(m).sender(),
                op: Op::write(m),
            }]
        }
        Step::UnknownCell { offset } => vec![EditOp::RemoveTailOp {
            cell: CellId::new((program.num_cells() + offset) as u32),
        }],
    }
}

/// The parity oracle: the session's committed outcome must equal a fully
/// from-scratch diagnose of its current program on a freshly compiled
/// copy of its current topology.
fn assert_outcome_parity(session: &IncrementalSession, config: &AnalysisConfig) {
    let fresh = Analyzer::for_topology(session.analyzer().compiled().topology(), config)
        .diagnose(session.program());
    match (session.outcome().result(), fresh.result()) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                a.plan().fingerprint(),
                b.plan().fingerprint(),
                "plan fingerprints must be byte-identical"
            );
            assert_eq!(a.labeling_method(), b.labeling_method());
            // A resumed trace holds the base run's steps and its own, each
            // once; the split into steps may differ, the pairs may not.
            assert_eq!(
                a.classification().trace().total_pairs(),
                b.classification().trace().total_pairs(),
                "traces must cross the same number of pairs"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "rejection errors must be identical"),
        (a, b) => panic!("verdicts diverged: incremental={a:?} fresh={b:?}"),
    }
    assert_eq!(session.outcome().diagnostics(), fresh.diagnostics());
}

/// Drives one full script through a warm session, holding every step to
/// the parity bar; invalid batches must also match the `EditError` a
/// cold-seeded session produces and must leave the warm session intact.
fn run_script(
    mut session: IncrementalSession,
    config: &AnalysisConfig,
    incremental: IncrementalConfig,
    script: &[Step],
) {
    assert_outcome_parity(&session, config);
    for step in script {
        let edits = resolve(step, &session);
        let before = session.fingerprint();

        // A cold session seeded at the same state is the rejection
        // oracle: identical batches must succeed or fail identically.
        let mut cold = IncrementalSession::seed(
            Analyzer::for_topology(session.analyzer().compiled().topology(), config),
            session.program().clone(),
            incremental,
        );
        let warm_result = session.apply(&edits);
        let cold_result = cold.apply(&edits);

        match (warm_result, cold_result) {
            (Ok(_), Ok(_)) => {
                assert_eq!(
                    session.fingerprint(),
                    cold.fingerprint(),
                    "warm and cold sessions must commit the same program"
                );
                assert_outcome_parity(&session, config);
            }
            (Err(warm), Err(cold_err)) => {
                assert_eq!(warm, cold_err, "edit rejections must be identical");
                assert_eq!(
                    session.fingerprint(),
                    before,
                    "a rejected batch must leave the session untouched"
                );
            }
            (warm, cold) => {
                panic!("edit verdicts diverged: warm={warm:?} cold={cold:?} step={step:?}")
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random edit scripts over mixed fixed topologies, all lookahead
    /// modes, random queue counts.
    #[test]
    fn incremental_matches_from_scratch_at_every_step(
        shape in shapes(),
        seed in 0u64..1_000_000,
        topology_pick in 0usize..4,
        lookahead in lookaheads(),
        queues in 1usize..3,
        script_seed in 0u64..1_000_000,
    ) {
        let script = script_from_seed(script_seed);
        let program = random_program(&shape, seed).expect("random programs build");
        let topology = pick_topology(topology_pick, shape.cells);
        let config = AnalysisConfig { lookahead, queues_per_interval: queues };
        let session = IncrementalSession::seed(
            Analyzer::for_topology(&topology, &config),
            program,
            IncrementalConfig::default(),
        );
        run_script(session, &config, IncrementalConfig::default(), &script);
    }

    /// `fallback_ratio: 0.0` forces the from-scratch fallback on every
    /// edit — the fallback path must meet the same parity bar as the
    /// seeded fast path.
    #[test]
    fn forced_fallback_matches_from_scratch(
        shape in shapes(),
        seed in 0u64..1_000_000,
        lookahead in lookaheads(),
        script_seed in 0u64..1_000_000,
    ) {
        let script = script_from_seed(script_seed);
        let program = random_program(&shape, seed).expect("random programs build");
        let config = AnalysisConfig { lookahead, queues_per_interval: 1 };
        let incremental = IncrementalConfig { fallback_ratio: 0.0 };
        let session = IncrementalSession::seed(
            Analyzer::for_topology(&Topology::linear(shape.cells), &config),
            program,
            incremental,
        );
        run_script(session, &config, incremental, &script);
    }

    /// Graph topologies: link edits (including always-invalid self-links
    /// and removals of absent links) interleaved with op edits, with the
    /// topology recompiled under the session.
    #[test]
    fn graph_link_edits_match_from_scratch(
        shape in shapes(),
        seed in 0u64..1_000_000,
        link_seed in 0u64..1_000_000,
        script_seed in 0u64..1_000_000,
    ) {
        let script = script_from_seed(script_seed);
        let links: Vec<(usize, usize, bool)> = {
            let mut state = link_seed;
            let n = 1 + (splitmix(&mut state) % 4) as usize;
            (0..n)
                .map(|_| {
                    (
                        (splitmix(&mut state) % 64) as usize,
                        (splitmix(&mut state) % 64) as usize,
                        splitmix(&mut state).is_multiple_of(2),
                    )
                })
                .collect()
        };
        let program = random_program(&shape, seed).expect("random programs build");
        let cells = shape.cells;
        // A chain plus one chord keeps the graph connected under single
        // link removals often enough to exercise both outcomes.
        let mut edges: Vec<(CellId, CellId)> = (0..cells - 1)
            .map(|i| (CellId::new(i as u32), CellId::new(i as u32 + 1)))
            .collect();
        edges.push((CellId::new(0), CellId::new(cells as u32 - 1)));
        let topology = Topology::graph(cells, edges).expect("chain graph builds");
        let config = AnalysisConfig::default();
        let mut session = IncrementalSession::seed(
            Analyzer::for_topology(&topology, &config),
            program,
            IncrementalConfig::default(),
        );
        assert_outcome_parity(&session, &config);

        for (a, b, add) in links {
            let a = CellId::new((a % cells) as u32);
            let b = CellId::new((b % cells) as u32);
            let edit = if add {
                EditOp::AddLink { a, b }
            } else {
                EditOp::RemoveLink { a, b }
            };
            let before = session.fingerprint();
            match session.apply(&[edit]) {
                Ok(_) => assert_outcome_parity(&session, &config),
                Err(_) => prop_assert_eq!(
                    session.fingerprint(),
                    before,
                    "rejected link edits must leave the session untouched"
                ),
            }
        }
        run_script(session, &config, IncrementalConfig::default(), &script);
    }
}
