//! Golden digest over everything the crossing-off procedure and the
//! Section 6 labeling scheme decide, on a fixed seeded corpus.
//!
//! The corpus is the paper's figures under five lookahead budgets, cold
//! service traffic over its own topologies, and seeded random programs perturbed by adjacent-op swaps (so many are
//! deadlocked), each under lookahead off, a seeded uniform budget of one
//! to three words, and unbounded lookahead. One [`ContentHasher`] digest covers:
//!
//! * every classification step's pairs — message, word, both positions
//!   and the skip map — and the trace's Fig. 4 `render`;
//! * stuck reports of deadlocked programs;
//! * `label_messages` assignment orders, labels and errors;
//! * `label_messages_robust` labelings and errors;
//! * `Analyzer::diagnose` plan fingerprints, errors and diagnostics.
//!
//! Any change to the order in which pairs are found, crossed or labeled
//! changes the digest, so the procedure's speed can be reworked while this
//! test holds its output byte-identical.

use systolic::core::{
    classify_with, label_messages, label_messages_robust, AnalysisConfig, Analyzer, Classification,
    Lookahead, LookaheadLimits,
};
use systolic::model::{ContentHasher, Program, Topology};
use systolic::workloads::{
    self as wl, random_program, swap_adjacent, traffic, RandomConfig, TrafficConfig,
};

/// The digest of the corpus below. Recompute it only for an intended
/// change of output, never to absorb a change of speed work.
const GOLDEN: &str = "e0e6d54a23a218630e2cad7d50cf1d84";

/// Random programs in the corpus.
const RANDOM_PROGRAMS: u64 = 560;

/// Cold service-traffic items in the corpus.
const TRAFFIC_ITEMS: usize = 40;

/// A lookahead assumption, as both the crossing-off budget table and the
/// analyzer configuration that produces it.
#[derive(Clone, Copy, Debug)]
enum Budget {
    Off,
    Uniform(usize),
    Unbounded,
}

impl Budget {
    fn limits(self, program: &Program) -> LookaheadLimits {
        match self {
            Budget::Off => LookaheadLimits::disabled(program),
            Budget::Uniform(k) => LookaheadLimits::uniform(program, k),
            Budget::Unbounded => LookaheadLimits::unbounded(program),
        }
    }

    fn lookahead(self) -> Lookahead {
        match self {
            Budget::Off => Lookahead::Disabled,
            Budget::Uniform(k) => Lookahead::PerQueueCapacity(k),
            Budget::Unbounded => Lookahead::Unbounded,
        }
    }
}

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
}

fn digest_classification(h: &mut ContentHasher, program: &Program, limits: &LookaheadLimits) {
    let classification = classify_with(program, limits);
    let trace = classification.trace();
    h.write_usize(trace.steps().len());
    for step in trace.steps() {
        h.write_usize(step.pairs.len());
        for pair in &step.pairs {
            h.write_usize(pair.message.index());
            h.write_usize(pair.word);
            h.write_usize(pair.write_pos);
            h.write_usize(pair.read_pos);
            h.write_usize(pair.skipped.len());
            for (message, count) in &pair.skipped {
                h.write_usize(message.index());
                h.write_usize(*count);
            }
        }
    }
    h.write_str(&trace.render(program));
    match &classification {
        Classification::DeadlockFree(_) => h.write_u8(b'F'),
        Classification::Deadlocked { stuck, .. } => {
            h.write_u8(b'D');
            h.write_usize(stuck.remaining_ops);
            h.write_usize(stuck.crossed_words);
            for front in &stuck.fronts {
                match front {
                    Some((pos, op)) => {
                        h.write_usize(*pos);
                        h.write_u8(u8::from(op.is_read()));
                        h.write_usize(op.message().index());
                    }
                    None => h.write_u8(b'-'),
                }
            }
        }
    }
}

fn digest_labeling(h: &mut ContentHasher, program: &Program, limits: &LookaheadLimits) {
    match label_messages(program, limits) {
        Ok(report) => {
            h.write_u8(b'L');
            for (message, label, rule) in report.assignment_order() {
                h.write_usize(message.index());
                h.write_str(&label.to_string());
                h.write_str(&format!("{rule:?}"));
            }
            for (_, label) in report.labeling().iter() {
                h.write_str(&label.to_string());
            }
        }
        Err(error) => h.write_str(&format!("{error:?}")),
    }
    match label_messages_robust(program, limits) {
        Ok(labeling) => {
            h.write_u8(b'R');
            for (_, label) in labeling.iter() {
                h.write_str(&label.to_string());
            }
        }
        Err(error) => h.write_str(&format!("{error:?}")),
    }
}

fn digest_analysis(
    h: &mut ContentHasher,
    program: &Program,
    topology: &Topology,
    budget: Budget,
    queues: usize,
) {
    let config = AnalysisConfig {
        lookahead: budget.lookahead(),
        queues_per_interval: queues,
    };
    let outcome = Analyzer::for_topology(topology, &config).diagnose(program);
    match outcome.result() {
        Ok(analysis) => {
            h.write_u8(b'P');
            h.write_str(&format!("{:032x}", analysis.plan().fingerprint()));
            h.write_str(&format!("{:?}", analysis.labeling_method()));
        }
        Err(error) => h.write_str(&format!("{error:?}")),
    }
    for diagnostic in outcome.diagnostics().iter() {
        h.write_str(diagnostic.code().as_str());
        h.write_str(&format!("{:?}", diagnostic.severity()));
        h.write_str(diagnostic.message());
        for message in diagnostic.message_ids() {
            h.write_usize(message.index());
        }
        for cell in diagnostic.cell_ids() {
            h.write_usize(cell.index());
        }
    }
}

fn digest_case(
    h: &mut ContentHasher,
    program: &Program,
    topology: &Topology,
    budget: Budget,
    queues: usize,
) {
    h.write_str(&format!("{budget:?}"));
    let limits = budget.limits(program);
    digest_classification(h, program, &limits);
    digest_labeling(h, program, &limits);
    digest_analysis(h, program, topology, budget, queues);
}

fn corpus_digest() -> (u128, usize) {
    let mut h = ContentHasher::new();
    let mut cases = 0;
    let figures = [
        wl::fig2_fir(),
        wl::fig3_messages(),
        wl::fig5_p1(),
        wl::fig5_p2(),
        wl::fig5_p3(),
        wl::fig6_cycle(),
        wl::fig7(3),
        wl::fig8(),
        wl::fig9(),
    ];
    let budgets = [
        Budget::Off,
        Budget::Uniform(1),
        Budget::Uniform(2),
        Budget::Uniform(3),
        Budget::Unbounded,
    ];
    for program in &figures {
        let topology = Topology::linear(program.num_cells());
        for (queues, &budget) in budgets.iter().enumerate() {
            digest_case(&mut h, program, &topology, budget, 1 + queues % 3);
            cases += 1;
        }
    }

    // The service's cold traffic: kernels and sweeps over their own
    // linear, ring and mesh topologies.
    let cold = TrafficConfig {
        hot_percent: 0,
        ..TrafficConfig::default()
    };
    for item in traffic(&cold, 0x90_1d, TRAFFIC_ITEMS) {
        for budget in [Budget::Off, Budget::Uniform(2)] {
            digest_case(
                &mut h,
                &item.program,
                &item.topology,
                budget,
                item.queues_per_interval,
            );
            cases += 1;
        }
    }

    let mut rng = Stream(0x5eed_c0ff_ee00);
    for seed in 0..RANDOM_PROGRAMS {
        let cells = 2 + rng.below(5);
        let shape = RandomConfig {
            cells,
            messages: 1 + rng.below(10),
            max_words: 1 + rng.below(4),
            max_span: 1 + rng.below(cells - 1),
            clustered: rng.below(2) == 0,
        };
        let mut program = random_program(&shape, seed).expect("random programs build");
        for _ in 0..rng.below(12) {
            let cell = rng.below(cells);
            let pos = rng.below(program.cells()[cell].len() + 1);
            if let Some(swapped) = swap_adjacent(&program, cell, pos) {
                program = swapped;
            }
        }
        let queues = 1 + rng.below(3);
        let uniform = Budget::Uniform(1 + rng.below(3));
        let topology = Topology::linear(cells);
        for budget in [Budget::Off, uniform, Budget::Unbounded] {
            digest_case(&mut h, &program, &topology, budget, queues);
            cases += 1;
        }
    }
    (h.finish(), cases)
}

#[test]
fn crossing_off_and_labeling_output_is_pinned() {
    let (digest, cases) = corpus_digest();
    assert_eq!(cases, 45 + 2 * TRAFFIC_ITEMS + 3 * RANDOM_PROGRAMS as usize);
    assert_eq!(format!("{digest:032x}"), GOLDEN);
}
