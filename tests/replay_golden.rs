//! Golden digest over everything a simulator replay reports, on a fixed
//! seeded corpus.
//!
//! The corpus is the paper's figures and the workload generators under
//! the label-blind FIFO and Greedy policies at 1, 2 and 4 queues per
//! interval, then under compatible and static assignment from plans
//! analyzed with lookahead off and unbounded; every run is repeated over
//! latch, buffered (1 and 2 words) and extended queues under both cost
//! models. Cold-verify-shaped programs (clustered random programs on
//! 12–16-cell arrays, and mesh and torus programs, 48–128 messages each)
//! follow under all four policies, and through `ArenaLru::replay` on latch
//! and on buffered queues. One [`ContentHasher`] digest covers:
//!
//! * the `Debug` rendering of every `RunOutcome`: all `RunStats` fields,
//!   including the per-cell blocked and busy cycles, the assignment events
//!   and the queue high water, plus any `DeadlockReport`;
//! * every `VerifyReport` (or replay error) from the arena path;
//! * every analysis or static-table error that stopped a case early.
//!
//! Any change to the order in which requests are raised, queues granted,
//! words moved or cells stepped changes the digest, so the engine's speed
//! can be reworked while this test holds its output byte-identical.

use std::sync::Arc;

use systolic::core::{AnalysisConfig, Analyzer, CommPlan, CompiledTopology, Lookahead};
use systolic::model::{ContentHasher, Program, Topology};
use systolic::sim::{
    run_simulation, ArenaLru, AssignmentPolicy, CompatiblePolicy, CostModel, FifoPolicy,
    GreedyPolicy, QueueConfig, SimConfig, StaticPolicy,
};
use systolic::workloads::{self as wl, random_program, RandomConfig, ScheduleBuilder};

/// The digest of the corpus below. Recompute it only for an intended
/// change of output, never to absorb a change of speed work.
const GOLDEN: &str = "0580aabf4095c9daa0267c8f36525225";

/// Cold-verify-shaped programs on linear arrays.
const LINEAR_PROGRAMS: u64 = 26;

/// Cold-verify-shaped programs on the 4×4 mesh, and as many on the 4×4
/// torus.
const GRID_PROGRAMS: u64 = 7;

/// Queue counts the label-blind policies run at.
const BLIND_QUEUES: [usize; 3] = [1, 2, 4];

/// The queue shapes every small case runs over: latch, one and two words
/// of buffering, and one word with queue extension.
const SHAPES: [QueueConfig; 4] = [
    QueueConfig {
        capacity: 0,
        extension: false,
    },
    QueueConfig {
        capacity: 1,
        extension: false,
    },
    QueueConfig {
        capacity: 2,
        extension: false,
    },
    QueueConfig {
        capacity: 1,
        extension: true,
    },
];

const COSTS: [CostModel; 2] = [CostModel::systolic(), CostModel::memory_to_memory()];

/// SplitMix64: a tiny deterministic stream for the corpus's choices.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn within(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

fn sim_config(queues: usize, queue: QueueConfig, cost: CostModel) -> SimConfig {
    SimConfig {
        queues_per_interval: queues,
        queue,
        cost,
        ..SimConfig::default()
    }
}

/// Runs one replay and folds its whole outcome into the digest.
fn digest_run(
    h: &mut ContentHasher,
    program: &Program,
    topology: &Topology,
    policy: Box<dyn AssignmentPolicy>,
    config: SimConfig,
) {
    h.write_str(policy.name());
    let outcome = run_simulation(program, topology, policy, config).expect("corpus programs fit");
    h.write_str(&format!("{outcome:?}"));
}

fn analyze(
    program: &Program,
    topology: &Topology,
    queues: usize,
    lookahead: Lookahead,
) -> Option<Arc<CommPlan>> {
    let config = AnalysisConfig {
        queues_per_interval: queues,
        lookahead,
    };
    Analyzer::for_topology(topology, &config)
        .analyze(program)
        .ok()
        .map(|analysis| Arc::new(analysis.into_plan()))
}

/// The fewest queues per interval a static table fits in.
fn static_policy(plan: &CommPlan) -> (StaticPolicy, usize) {
    (1..)
        .find_map(|queues| StaticPolicy::new(plan, queues).ok().map(|p| (p, queues)))
        .expect("some queue count dedicates every message")
}

/// FIFO and Greedy at every queue count, shape and cost model.
fn digest_blind(h: &mut ContentHasher, program: &Program, topology: &Topology) -> usize {
    let mut runs = 0;
    for queues in BLIND_QUEUES {
        for shape in SHAPES {
            for cost in COSTS {
                let config = sim_config(queues, shape, cost);
                digest_run(h, program, topology, Box::new(FifoPolicy::new()), config);
                digest_run(h, program, topology, Box::new(GreedyPolicy::new()), config);
                runs += 2;
            }
        }
    }
    runs
}

/// Compatible (at the plan's requirement and one queue more) and static
/// assignment from plans analyzed with lookahead off and unbounded, at
/// every shape and cost model.
fn digest_planned(h: &mut ContentHasher, program: &Program, topology: &Topology) -> usize {
    let mut runs = 0;
    for lookahead in [Lookahead::Disabled, Lookahead::Unbounded] {
        h.write_str(&format!("{lookahead:?}"));
        let Some(plan) = analyze(program, topology, 8, lookahead) else {
            h.write_u8(b'-');
            continue;
        };
        let required = plan.requirements().max_per_interval().max(1);
        let (table, static_queues) = static_policy(&plan);
        for shape in SHAPES {
            for cost in COSTS {
                for queues in [required, required + 1] {
                    let policy = Box::new(CompatiblePolicy::new(Arc::clone(&plan)));
                    let config = sim_config(queues, shape, cost);
                    digest_run(h, program, topology, policy, config);
                }
                let config = sim_config(static_queues, shape, cost);
                digest_run(h, program, topology, Box::new(table.clone()), config);
                runs += 3;
            }
        }
    }
    runs
}

fn small_cases() -> Vec<(Program, Topology)> {
    let linear = |p: Program| {
        let t = Topology::linear(p.num_cells());
        (p, t)
    };
    vec![
        (wl::fig2_fir(), wl::fig2_topology()),
        linear(wl::fig3_messages()),
        linear(wl::fig5_p1()),
        linear(wl::fig5_p2()),
        linear(wl::fig5_p3()),
        (wl::fig6_cycle(), wl::fig6_topology()),
        (wl::fig7(3), wl::fig7_topology()),
        (wl::fig8(), wl::fig8_topology()),
        (wl::fig9(), wl::fig9_topology()),
        (wl::fir(4, 8).unwrap(), wl::fir_topology(4)),
        (wl::matvec(4).unwrap(), wl::matvec_topology(4)),
        (wl::odd_even_sort(4, 4).unwrap(), wl::sort_topology(4)),
        (wl::seq_align(3, 4).unwrap(), wl::seq_align_topology(3)),
        (wl::horner(3, 3).unwrap(), wl::horner_topology(3)),
        (wl::token_ring(4, 2).unwrap(), wl::ring_topology(4)),
        (wl::mesh_matmul(2, 3, 3).unwrap(), wl::matmul_topology(2, 3)),
        (
            wl::wavefront(3, 3, 2).unwrap(),
            wl::wavefront_topology(3, 3),
        ),
        (
            wl::back_substitution(3).unwrap(),
            wl::back_substitution_topology(3),
        ),
    ]
}

/// A clustered random program on a 12-, 14- or 16-cell array.
fn linear_program(rng: &mut Stream) -> (Program, Topology) {
    let cells = [12, 14, 16][rng.below(3)];
    let config = RandomConfig {
        cells,
        messages: rng.within(48, 128),
        max_words: 8,
        max_span: 4,
        clustered: true,
    };
    let program = random_program(&config, rng.next()).expect("random programs build");
    (program, Topology::linear(cells))
}

/// A schedule-projected program with random endpoints on a 4×4 grid.
fn grid_program(rng: &mut Stream, topology: Topology) -> (Program, Topology) {
    let cells = topology.num_cells();
    let messages = rng.within(48, 96);
    let horizon = messages * 8 * 4;
    let mut schedule = ScheduleBuilder::new(cells);
    for m in 0..messages {
        let sender = rng.below(cells);
        let receiver = (sender + 1 + rng.below(cells - 1)) % cells;
        let id = schedule
            .message(format!("M{m}"), sender as u32, receiver as u32)
            .expect("distinct endpoints");
        let words = rng.within(1, 8);
        schedule.transfer_n(id, rng.below(horizon) as i64, 1, words);
    }
    (schedule.build().expect("schedules build"), topology)
}

/// One cold-verify-shaped program: the arena path on latch and buffered
/// queues, then every policy on buffered queues.
fn digest_cold(
    h: &mut ContentHasher,
    lru: &mut ArenaLru,
    program: &Program,
    topology: &Topology,
) -> usize {
    let config = AnalysisConfig {
        queues_per_interval: 130,
        lookahead: Lookahead::Disabled,
    };
    let compiled = CompiledTopology::compile(topology, &config).into_shared();
    let Ok(analysis) = Analyzer::new(Arc::clone(&compiled)).analyze(program) else {
        h.write_u8(b'-');
        return 0;
    };
    let plan = Arc::new(analysis.into_plan());
    for shape in [SHAPES[0], SHAPES[1]] {
        let sim = sim_config(1, shape, CostModel::systolic());
        let report = lru.replay(&compiled, sim, program, &plan);
        h.write_str(&format!("{report:?}"));
    }
    let buffered = |queues| sim_config(queues, SHAPES[1], CostModel::systolic());
    let required = plan.requirements().max_per_interval().max(1);
    let compatible = Box::new(CompatiblePolicy::new(Arc::clone(&plan)));
    digest_run(h, program, topology, compatible, buffered(required));
    for queues in [1, 2] {
        let blind: [Box<dyn AssignmentPolicy>; 2] =
            [Box::new(FifoPolicy::new()), Box::new(GreedyPolicy::new())];
        for policy in blind {
            digest_run(h, program, topology, policy, buffered(queues));
        }
    }
    let (table, static_queues) = static_policy(&plan);
    digest_run(
        h,
        program,
        topology,
        Box::new(table),
        buffered(static_queues),
    );
    8
}

fn corpus_digest() -> (u128, usize) {
    let mut h = ContentHasher::new();
    let mut runs = 0;
    for (program, topology) in small_cases() {
        runs += digest_blind(&mut h, &program, &topology);
        runs += digest_planned(&mut h, &program, &topology);
    }

    let mut rng = Stream(0x00c0_1d5e_ed21);
    let mut lru = ArenaLru::with_budget(4);
    let mut cold = Vec::new();
    for _ in 0..LINEAR_PROGRAMS {
        cold.push(linear_program(&mut rng));
    }
    for _ in 0..GRID_PROGRAMS {
        cold.push(grid_program(&mut rng, Topology::mesh(4, 4)));
        cold.push(grid_program(&mut rng, Topology::torus(4, 4)));
    }
    for (program, topology) in &cold {
        runs += digest_cold(&mut h, &mut lru, program, topology);
    }
    (h.finish(), runs)
}

#[test]
fn replay_output_is_pinned() {
    let (digest, runs) = corpus_digest();
    assert!(runs > 1_000, "the corpus ran only {runs} replays");
    assert_eq!(format!("{digest:032x}"), GOLDEN, "{runs} replays");
}
