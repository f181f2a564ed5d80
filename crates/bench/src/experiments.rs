//! The experiment suite: one function per paper figure plus the extension
//! experiments (`E1`–`E6`). Each returns an [`Experiment`] with a table
//! that the `repro` binary prints.

use std::time::Instant;

use systolic_core::CompetingSets;
use systolic_core::{
    classify, classify_with, label_messages, label_messages_robust, AnalysisConfig, Analyzer,
    Classification, Label, Labeling, Lookahead, LookaheadLimits, QueueRequirements,
};
use systolic_model::{MessageRoutes, Program, Topology};
use systolic_report::Table;
use systolic_sim::{
    run_simulation, AssignmentPolicy, CompatiblePolicy, CostModel, FifoPolicy, GreedyPolicy,
    QueueConfig, RunOutcome, SimConfig, StaticPolicy,
};
use systolic_threaded::{run_threaded, ThreadedConfig, ThreadedOutcome};
use systolic_workloads as wl;

/// One experiment's rendered results.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Short id (`F1`…`F10`, `T1`, `E1`…).
    pub id: &'static str,
    /// Human-readable title.
    pub title: String,
    /// The result table.
    pub table: Table,
    /// Free-form observations (the "what the paper predicts" notes).
    pub notes: Vec<String>,
}

fn outcome_name(outcome: &RunOutcome) -> String {
    match outcome {
        RunOutcome::Completed(s) => format!("completed in {} cycles", s.cycles),
        RunOutcome::Deadlocked { stats, .. } => format!("DEADLOCK at cycle {}", stats.cycles),
        RunOutcome::CycleLimit(_) => "cycle limit".to_owned(),
    }
}

fn sim_config(queues: usize, capacity: usize, cost: CostModel) -> SimConfig {
    SimConfig {
        queues_per_interval: queues,
        queue: QueueConfig {
            capacity,
            extension: false,
        },
        cost,
        max_cycles: 10_000_000,
    }
}

fn compatible(program: &Program, topology: &Topology, queues: usize) -> Box<dyn AssignmentPolicy> {
    let config = AnalysisConfig {
        queues_per_interval: queues,
        ..Default::default()
    };
    let plan = Analyzer::for_topology(topology, &config)
        .analyze(program)
        .expect("program analyzes")
        .into_plan();
    Box::new(CompatiblePolicy::new(plan))
}

/// F1 (Fig. 1): systolic vs memory-to-memory communication on the FIR
/// filter — cycles and local-memory accesses per transferred word.
#[must_use]
pub fn fig01_comm_models() -> Experiment {
    let mut table = Table::new([
        "inputs",
        "model",
        "cycles",
        "mem accesses",
        "accesses/word",
        "slowdown",
    ]);
    for n in [4usize, 64, 1024] {
        let program = wl::fir(3, n).expect("valid FIR");
        let topology = wl::fir_topology(3);
        let mut cycles = Vec::new();
        for cost in [CostModel::systolic(), CostModel::memory_to_memory()] {
            let policy = compatible(&program, &topology, 2);
            let out = run_simulation(&program, &topology, policy, sim_config(2, 1, cost))
                .expect("sim builds");
            let RunOutcome::Completed(stats) = out else {
                panic!("FIR completes")
            };
            cycles.push(stats.cycles);
            let model = if cost == CostModel::systolic() {
                "systolic"
            } else {
                "mem-to-mem"
            };
            let slowdown = if cycles.len() == 2 {
                format!("{:.2}x", cycles[1] as f64 / cycles[0] as f64)
            } else {
                "1.00x".to_owned()
            };
            table.row([
                n.to_string(),
                model.to_owned(),
                stats.cycles.to_string(),
                stats.memory_accesses.to_string(),
                format!("{:.1}", stats.accesses_per_word()),
                slowdown,
            ]);
        }
    }
    Experiment {
        id: "F1",
        title: "Fig. 1 — systolic vs memory-to-memory communication (3-tap FIR)".into(),
        table,
        notes: vec![
            "Paper: the memory-to-memory model needs >= 4 local memory accesses per word \
             a cell updates; the systolic model can need none."
                .into(),
        ],
    }
}

/// F2 (Fig. 2): the FIR program itself, plus its analysis summary.
#[must_use]
pub fn fig02_fir_program() -> Experiment {
    let program = wl::fig2_fir();
    let mut table = Table::new(["message", "route", "words", "label"]);
    let topology = wl::fig2_topology();
    let config = AnalysisConfig {
        queues_per_interval: 2,
        ..Default::default()
    };
    let analysis = Analyzer::for_topology(&topology, &config)
        .analyze(&program)
        .expect("Fig. 2 analyzes");
    let routes = MessageRoutes::compute(&program, &topology).expect("routes");
    for m in program.message_ids() {
        table.row([
            program.message(m).name().to_owned(),
            routes.route(m).to_string(),
            program.word_count(m).to_string(),
            analysis.plan().label(m).to_string(),
        ]);
    }
    Experiment {
        id: "F2",
        title: "Fig. 2 — the 3-tap FIR filter program (host + 3 cells)".into(),
        table,
        notes: vec![
            format!(
                "program listing:\n{}",
                systolic_model::side_by_side(&program)
            ),
            "All six messages are mutually related (interleaved access), so they share \
             one label; each interval carries one message per direction."
                .into(),
        ],
    }
}

/// F3 (Fig. 3): message-to-queue assignment over a 4-queue interval pool.
#[must_use]
pub fn fig03_queue_assignment() -> Experiment {
    let program = wl::fig3_messages();
    let topology = Topology::linear(4);
    let config = AnalysisConfig {
        queues_per_interval: 4,
        ..Default::default()
    };
    let plan = Analyzer::for_topology(&topology, &config)
        .analyze(&program)
        .expect("Fig. 3 analyzes")
        .into_plan();
    let static_policy = StaticPolicy::new(&plan, 4).expect("4 queues dedicate all");
    let mut table = Table::new(["message", "route", "queues used"]);
    for m in program.message_ids() {
        let seq: Vec<String> = plan
            .route(m)
            .intervals()
            .map(|iv| format!("{iv}#{}", static_policy.queue_of(m, iv).expect("assigned")))
            .collect();
        table.row([
            program.message(m).name().to_owned(),
            plan.route(m).to_string(),
            seq.join(" -> "),
        ]);
    }
    Experiment {
        id: "F3",
        title: "Fig. 3 — every message is assigned a sequence of queues along its route".into(),
        table,
        notes: vec!["Static assignment with 4 queues per interval, as drawn in the figure.".into()],
    }
}

/// F4 (Fig. 4): the crossing-off trace of the FIR program.
#[must_use]
pub fn fig04_crossing_off() -> Experiment {
    let program = wl::fig2_fir();
    let Classification::DeadlockFree(trace) = classify(&program) else {
        panic!("Fig. 2 is deadlock-free")
    };
    let mut table = Table::new(["step", "pairs crossed off"]);
    for (i, step) in trace.steps().iter().enumerate() {
        let pairs: Vec<String> = step
            .pairs
            .iter()
            .map(|p| {
                format!(
                    "W({name})/R({name}) word {w}",
                    name = program.message(p.message).name(),
                    w = p.word + 1
                )
            })
            .collect();
        table.row([(i + 1).to_string(), pairs.join(", ")]);
    }
    Experiment {
        id: "F4",
        title: "Fig. 4 — crossing-off procedure on the FIR program".into(),
        table,
        notes: vec![
            "Paper: 12 steps; steps 3, 5 and 9 each cross off two executable pairs.".into(),
        ],
    }
}

/// F5 (Fig. 5): classification of the three deadlocked programs, with and
/// without lookahead.
#[must_use]
pub fn fig05_deadlocked_programs() -> Experiment {
    let mut table = Table::new([
        "program",
        "lookahead",
        "classification",
        "run (latch queues)",
    ]);
    let programs = [
        ("P1", wl::fig5_p1()),
        ("P2", wl::fig5_p2()),
        ("P3", wl::fig5_p3()),
    ];
    for (name, p) in &programs {
        for (la_name, limits) in [
            ("none", LookaheadLimits::disabled(p)),
            ("cap 1", LookaheadLimits::uniform(p, 1)),
            ("cap 2", LookaheadLimits::uniform(p, 2)),
            ("unbounded", LookaheadLimits::unbounded(p)),
        ] {
            let verdict = if classify_with(p, &limits).is_deadlock_free() {
                "deadlock-free"
            } else {
                "deadlocked"
            };
            let run = if la_name == "none" {
                let out = run_simulation(
                    p,
                    &Topology::linear(2),
                    Box::new(GreedyPolicy::new()),
                    sim_config(2, 0, CostModel::systolic()),
                )
                .expect("sim builds");
                outcome_name(&out)
            } else {
                String::new()
            };
            table.row([
                (*name).to_owned(),
                la_name.to_owned(),
                verdict.to_owned(),
                run,
            ]);
        }
    }
    Experiment {
        id: "F5",
        title: "Fig. 5 — deadlocked programs P1, P2, P3".into(),
        table,
        notes: vec![
            "P1 becomes deadlock-free with 2 words of buffering (Fig. 10); P2 with any \
             buffering; P3 never (true circular dependency, protected by rule R1)."
                .into(),
        ],
    }
}

/// F6 (Fig. 6): a message cycle that is deadlock-free.
#[must_use]
pub fn fig06_cycle() -> Experiment {
    let program = wl::fig6_cycle();
    let topology = wl::fig6_topology();
    let mut table = Table::new(["check", "result"]);
    table.row([
        "crossing-off classification".to_owned(),
        if classify(&program).is_deadlock_free() {
            "deadlock-free"
        } else {
            "deadlocked"
        }
        .to_owned(),
    ]);
    let out = run_simulation(
        &program,
        &topology,
        Box::new(GreedyPolicy::new()),
        sim_config(1, 1, CostModel::systolic()),
    )
    .expect("sim builds");
    table.row([
        "simulation (1 queue/interval)".to_owned(),
        outcome_name(&out),
    ]);
    Experiment {
        id: "F6",
        title: "Fig. 6 — messages form a cycle, yet the program is deadlock-free".into(),
        table,
        notes: vec![
            "Checking for sender/receiver cycles is NOT a valid deadlock test; the \
             crossing-off procedure is."
                .into(),
        ],
    }
}

/// F7 (Fig. 7): the ordering deadlock, across policies and sequence lengths.
#[must_use]
pub fn fig07_ordering(lens: &[usize]) -> Experiment {
    let mut table = Table::new(["len", "policy", "outcome"]);
    for &len in lens {
        let program = wl::fig7(len);
        let topology = wl::fig7_topology();
        let policies: Vec<Box<dyn AssignmentPolicy>> = vec![
            Box::new(FifoPolicy::new()),
            Box::new(GreedyPolicy::new()),
            compatible(&program, &topology, 1),
        ];
        for policy in policies {
            let name = policy.name();
            let out = run_simulation(
                &program,
                &topology,
                policy,
                sim_config(1, 1, CostModel::systolic()),
            )
            .expect("sim builds");
            table.row([len.to_string(), name.to_owned(), outcome_name(&out)]);
        }
    }
    let timeline = {
        let program = wl::fig7(3);
        let topology = wl::fig7_topology();
        let policy = compatible(&program, &topology, 1);
        let out = run_simulation(
            &program,
            &topology,
            policy,
            sim_config(1, 1, CostModel::systolic()),
        )
        .expect("sim builds");
        out.stats()
            .render_timeline(|m| program.message(m).name().to_owned())
    };
    Experiment {
        id: "F7",
        title: "Fig. 7 — queue-ordering deadlock (labels A=1, C=2, B=3)".into(),
        table,
        notes: vec![
            "One queue per interval. The naive policies hand the c3-c4 queue to B first \
             and deadlock; compatible assignment forces C (label 2) before B (label 3)."
                .into(),
            format!(
                "queue assignment at run time under compatible assignment (len 3), \
                 mirroring the figure's lower half:\n{timeline}"
            ),
        ],
    }
}

/// F8 (Fig. 8): interleaved reads need one queue per related message.
#[must_use]
pub fn fig08_interleaved_reads() -> Experiment {
    interleave_experiment(
        "F8",
        "Fig. 8 — interleaved reads by c3: A and B are related",
        wl::fig8(),
        wl::fig8_topology(),
    )
}

/// F9 (Fig. 9): interleaved writes — the symmetric case.
#[must_use]
pub fn fig09_interleaved_writes() -> Experiment {
    interleave_experiment(
        "F9",
        "Fig. 9 — interleaved writes by c1: A and B are related",
        wl::fig9(),
        wl::fig9_topology(),
    )
}

fn interleave_experiment(
    id: &'static str,
    title: &str,
    program: Program,
    topology: Topology,
) -> Experiment {
    let mut table = Table::new(["queues/interval", "policy", "outcome"]);
    for queues in [1usize, 2] {
        let mut policies: Vec<Box<dyn AssignmentPolicy>> =
            vec![Box::new(FifoPolicy::new()), Box::new(GreedyPolicy::new())];
        // Compatible assignment requires feasibility (assumption ii): with
        // one queue the equal-label pair can never be granted, which the
        // analysis rejects up front.
        let config = AnalysisConfig {
            queues_per_interval: queues,
            ..Default::default()
        };
        let analysis = Analyzer::for_topology(&topology, &config).analyze(&program);
        match analysis {
            Ok(a) => policies.push(Box::new(CompatiblePolicy::new(a.into_plan()))),
            Err(e) => {
                table.row([
                    queues.to_string(),
                    "compatible".into(),
                    format!("rejected: {e}"),
                ]);
            }
        }
        for policy in policies {
            let name = policy.name();
            let out = run_simulation(
                &program,
                &topology,
                policy,
                sim_config(queues, 1, CostModel::systolic()),
            )
            .expect("sim builds");
            table.row([queues.to_string(), name.to_owned(), outcome_name(&out)]);
        }
    }
    Experiment {
        id,
        title: title.to_owned(),
        table,
        notes: vec![
            "Related messages share a label; the simultaneous-assignment rule then demands \
             one queue each, so one queue per interval is infeasible and two suffice."
                .into(),
        ],
    }
}

/// F10 (Fig. 10): lookahead on P1 — classification and runtime vs capacity.
#[must_use]
pub fn fig10_lookahead() -> Experiment {
    let program = wl::fig5_p1();
    let topology = Topology::linear(2);
    let mut table = Table::new([
        "queue capacity",
        "classification (lookahead)",
        "run (2 queues)",
    ]);
    for cap in [0usize, 1, 2, 4] {
        let limits = LookaheadLimits::uniform(&program, cap);
        let verdict = if classify_with(&program, &limits).is_deadlock_free() {
            "deadlock-free"
        } else {
            "deadlocked"
        };
        let out = run_simulation(
            &program,
            &topology,
            Box::new(GreedyPolicy::new()),
            sim_config(2, cap, CostModel::systolic()),
        )
        .expect("sim builds");
        table.row([cap.to_string(), verdict.to_owned(), outcome_name(&out)]);
    }
    let limits = LookaheadLimits::uniform(&program, 2);
    let Classification::DeadlockFree(trace) = classify_with(&program, &limits) else {
        panic!("P1 with capacity 2 is deadlock-free")
    };
    let first_three: Vec<String> = trace
        .steps()
        .iter()
        .take(3)
        .flat_map(|s| s.pairs.iter())
        .map(|p| {
            format!(
                "{}: W@{}/R@{} (skipped {})",
                program.message(p.message).name(),
                p.write_pos + 1,
                p.read_pos + 1,
                p.skipped.values().sum::<usize>()
            )
        })
        .collect();
    Experiment {
        id: "F10",
        title: "Fig. 10 — crossing-off with lookahead on P1".into(),
        table,
        notes: vec![format!(
            "first three executable pairs (1-based op positions, as in the figure): {}",
            first_three.join("; ")
        )],
    }
}

/// T1 (Theorem 1): random deadlock-free programs never deadlock under
/// compatible assignment; the naive policies do.
#[must_use]
pub fn t1_theorem_campaign(seeds: u64, queues: usize) -> Experiment {
    let cfg = wl::RandomConfig {
        cells: 5,
        messages: 8,
        max_words: 4,
        max_span: 3,
        clustered: true,
    };
    let topology = wl::random_topology(&cfg);
    let mut rows: Vec<(String, usize, usize, usize)> = vec![
        ("fifo".into(), 0, 0, 0),
        ("greedy".into(), 0, 0, 0),
        ("compatible".into(), 0, 0, 0),
    ];
    let analysis_config = AnalysisConfig {
        queues_per_interval: queues,
        ..Default::default()
    };
    let analyzer = Analyzer::for_topology(&topology, &analysis_config);
    for seed in 0..seeds {
        let program = wl::random_program(&cfg, seed).expect("valid random program");
        let analysis = analyzer.analyze(&program);
        for (i, policy) in [
            Box::new(FifoPolicy::new()) as Box<dyn AssignmentPolicy>,
            Box::new(GreedyPolicy::new()),
        ]
        .into_iter()
        .enumerate()
        {
            let out = run_simulation(
                &program,
                &topology,
                policy,
                sim_config(queues, 1, CostModel::systolic()),
            )
            .expect("sim builds");
            match out {
                RunOutcome::Completed(_) => rows[i].1 += 1,
                RunOutcome::Deadlocked { .. } => rows[i].2 += 1,
                RunOutcome::CycleLimit(_) => {}
            }
        }
        match analysis {
            Ok(a) => {
                let out = run_simulation(
                    &program,
                    &topology,
                    Box::new(CompatiblePolicy::new(a.into_plan())),
                    sim_config(queues, 1, CostModel::systolic()),
                )
                .expect("sim builds");
                match out {
                    RunOutcome::Completed(_) => rows[2].1 += 1,
                    RunOutcome::Deadlocked { .. } => rows[2].2 += 1,
                    RunOutcome::CycleLimit(_) => {}
                }
            }
            Err(_) => rows[2].3 += 1, // infeasible: assumption (ii) fails
        }
    }
    let mut table = Table::new(["policy", "completed", "deadlocked", "infeasible"]);
    for (name, ok, dead, infeasible) in rows {
        table.row([
            name,
            ok.to_string(),
            dead.to_string(),
            infeasible.to_string(),
        ]);
    }
    Experiment {
        id: "T1",
        title: format!(
            "Theorem 1 — {seeds} random deadlock-free programs, {queues} queue(s)/interval"
        ),
        table,
        notes: vec![
            "Theorem 1 predicts ZERO deadlocks in the compatible row whenever the plan is \
             feasible; the label-blind policies deadlock at some rate."
                .into(),
        ],
    }
}

/// E1: analysis cost scaling (crossing-off + labeling wall time).
#[must_use]
pub fn e1_scaling() -> Experiment {
    let mut table = Table::new(["workload", "ops", "classify", "label", "ops/ms (classify)"]);
    let cases: Vec<(String, Program)> = vec![
        ("fir(3,64)".into(), wl::fir(3, 64).expect("valid")),
        ("fir(3,256)".into(), wl::fir(3, 256).expect("valid")),
        ("fir(3,1024)".into(), wl::fir(3, 1024).expect("valid")),
        ("fir(8,1024)".into(), wl::fir(8, 1024).expect("valid")),
        (
            "seq_align(16,128)".into(),
            wl::seq_align(16, 128).expect("valid"),
        ),
        (
            "matmul(6,6,32)".into(),
            wl::mesh_matmul(6, 6, 32).expect("valid"),
        ),
    ];
    for (name, program) in cases {
        let ops = program.total_ops();
        let t0 = Instant::now();
        let c = classify(&program);
        let classify_time = t0.elapsed();
        assert!(c.is_deadlock_free(), "{name} must be deadlock-free");
        let t1 = Instant::now();
        let limits = LookaheadLimits::disabled(&program);
        label_messages(&program, &limits).expect("labels");
        let label_time = t1.elapsed();
        table.row([
            name,
            ops.to_string(),
            format!("{:.2?}", classify_time),
            format!("{:.2?}", label_time),
            format!("{:.0}", ops as f64 / classify_time.as_secs_f64() / 1000.0),
        ]);
    }
    Experiment {
        id: "E1",
        title: "analysis cost vs program size".into(),
        table,
        notes: vec!["Both passes are near-linear in program size for pipeline workloads.".into()],
    }
}

/// E2: deadlock-rate campaign — random programs across queue counts and
/// policies.
#[must_use]
pub fn e2_campaign(seeds: u64) -> Experiment {
    let cfg = wl::RandomConfig {
        cells: 5,
        messages: 8,
        max_words: 4,
        max_span: 3,
        clustered: true,
    };
    let topology = wl::random_topology(&cfg);
    let mut table = Table::new([
        "queues/interval",
        "policy",
        "completed",
        "deadlocked",
        "infeasible",
    ]);
    for queues in 1..=4usize {
        let mut counts = [
            (String::from("fifo"), 0usize, 0usize, 0usize),
            (String::from("greedy"), 0, 0, 0),
            (String::from("compatible"), 0, 0, 0),
        ];
        for seed in 0..seeds {
            let program = wl::random_program(&cfg, seed).expect("valid");
            for (i, policy) in [
                Box::new(FifoPolicy::new()) as Box<dyn AssignmentPolicy>,
                Box::new(GreedyPolicy::new()),
            ]
            .into_iter()
            .enumerate()
            {
                let out = run_simulation(
                    &program,
                    &topology,
                    policy,
                    sim_config(queues, 1, CostModel::systolic()),
                )
                .expect("sim builds");
                match out {
                    RunOutcome::Completed(_) => counts[i].1 += 1,
                    RunOutcome::Deadlocked { .. } => counts[i].2 += 1,
                    RunOutcome::CycleLimit(_) => {}
                }
            }
            let analysis_config = AnalysisConfig {
                queues_per_interval: queues,
                ..Default::default()
            };
            match Analyzer::for_topology(&topology, &analysis_config).analyze(&program) {
                Ok(a) => {
                    let out = run_simulation(
                        &program,
                        &topology,
                        Box::new(CompatiblePolicy::new(a.into_plan())),
                        sim_config(queues, 1, CostModel::systolic()),
                    )
                    .expect("sim builds");
                    match out {
                        RunOutcome::Completed(_) => counts[2].1 += 1,
                        RunOutcome::Deadlocked { .. } => counts[2].2 += 1,
                        RunOutcome::CycleLimit(_) => {}
                    }
                }
                Err(_) => counts[2].3 += 1,
            }
        }
        for (name, ok, dead, infeasible) in &counts {
            table.row([
                queues.to_string(),
                name.clone(),
                ok.to_string(),
                dead.to_string(),
                infeasible.to_string(),
            ]);
        }
    }
    Experiment {
        id: "E2",
        title: format!("deadlock-rate campaign over {seeds} random programs per cell"),
        table,
        notes: vec![
            "The naive policies' deadlock rate falls as queues are added; the compatible \
             policy never deadlocks — it only ever refuses up front (infeasible) when \
             assumption (ii) cannot be met."
                .into(),
        ],
    }
}

/// E6: strict vs pipelined scheduling — buffering requirements.
#[must_use]
pub fn e6_strict_pipeline_depth() -> Experiment {
    let mut table = Table::new([
        "variant",
        "cells (k)",
        "capacity 0",
        "capacity 1",
        "runtime (cap 0)",
        "runtime (cap 1)",
    ]);
    for k in [1usize, 2, 4] {
        let m = 2 * k + 1;
        let cases: [(&str, Program); 2] = [
            ("strict", wl::seq_align_strict(k, m).expect("valid")),
            ("pipelined", wl::seq_align(k, m).expect("valid")),
        ];
        let topology = wl::seq_align_topology(k);
        for (variant, program) in cases {
            let verdict = |cap: usize| {
                let routes = MessageRoutes::compute(&program, &topology).expect("routes");
                let limits = LookaheadLimits::from_routes(&routes, cap);
                if classify_with(&program, &limits).is_deadlock_free() {
                    "deadlock-free"
                } else {
                    "deadlocked"
                }
            };
            let run = |cap: usize| {
                let out = run_simulation(
                    &program,
                    &topology,
                    Box::new(GreedyPolicy::new()),
                    sim_config(3, cap, CostModel::systolic()),
                )
                .expect("sim builds");
                outcome_name(&out)
            };
            table.row([
                variant.to_owned(),
                k.to_string(),
                verdict(0).to_owned(),
                verdict(1).to_owned(),
                run(0),
                run(1),
            ]);
        }
    }
    Experiment {
        id: "E6",
        title: "strict vs schedule-projected pipelines: what one word of buffering buys".into(),
        table,
        notes: vec![
            "The strict R R W W per-character schedule deadlocks on pure latches (the host \
             feeds everything before draining, wedging the last cell), but a single word \
             of buffering per queue lets every cell's reads run one step ahead and the \
             pipeline drains. The schedule-projected variant never deadlocks, even on \
             latches — the Section 3.3 construction pays for itself."
                .into(),
        ],
    }
}

/// E3: labeling ablation — Section 6 labels vs the trivial all-equal
/// labeling, measured as required queues per interval.
#[must_use]
pub fn e3_labeling_ablation() -> Experiment {
    let mut table = Table::new([
        "workload",
        "max queues (Section 6)",
        "max queues (constraint solver)",
        "max queues (trivial)",
    ]);
    let cases: Vec<(String, Program, Topology)> = vec![
        ("fig7(3)".into(), wl::fig7(3), wl::fig7_topology()),
        ("fig8".into(), wl::fig8(), wl::fig8_topology()),
        ("fig9".into(), wl::fig9(), wl::fig9_topology()),
        (
            "fir(3,16)".into(),
            wl::fir(3, 16).expect("valid"),
            wl::fir_topology(3),
        ),
        (
            "matvec(4)".into(),
            wl::matvec(4).expect("valid"),
            wl::matvec_topology(4),
        ),
        (
            "horner(3,4)".into(),
            wl::horner(3, 4).expect("valid"),
            wl::horner_topology(3),
        ),
        (
            "seq_align(3,8)".into(),
            wl::seq_align(3, 8).expect("valid"),
            wl::seq_align_topology(3),
        ),
        (
            "back_sub(4)".into(),
            wl::back_substitution(4).expect("valid"),
            wl::back_substitution_topology(4),
        ),
    ];
    for (name, program, topology) in cases {
        let routes = MessageRoutes::compute(&program, &topology).expect("routes");
        let competing = CompetingSets::compute(&routes);
        let limits = LookaheadLimits::disabled(&program);
        let labeled = label_messages(&program, &limits)
            .expect("labels")
            .into_labeling();
        let robust = label_messages_robust(&program, &limits).expect("robust labels");
        let scheme = QueueRequirements::compute(&competing, &labeled);
        let solver = QueueRequirements::compute(&competing, &robust);
        let trivial = QueueRequirements::compute(&competing, &Labeling::trivial(&program));
        table.row([
            name,
            scheme.max_per_interval().to_string(),
            solver.max_per_interval().to_string(),
            trivial.max_per_interval().to_string(),
        ]);
    }
    Experiment {
        id: "E3",
        title: "ablation: Section 6 labeling vs trivial all-equal labeling".into(),
        table,
        notes: vec![
            "The trivial labeling is consistent but throws every competing message into one \
             simultaneous group, inflating the hardware queue requirement (paper, Section 5)."
                .into(),
        ],
    }
}

/// E4: the queue-extension mechanism — spills when capacity is short.
#[must_use]
pub fn e4_queue_extension() -> Experiment {
    let mut table = Table::new([
        "writes ahead",
        "capacity",
        "needs extension?",
        "run",
        "spill accesses",
    ]);
    for n in [2usize, 4, 8] {
        // W(A)*n W(B) / R(B) R(A)*n: locating W(B) skips n writes of A.
        let text = format!(
            "cells 2\nmessage A: c0 -> c1\nmessage B: c0 -> c1\n\
             program c0 {{ W(A)*{n} W(B) }}\nprogram c1 {{ R(B) R(A)*{n} }}\n"
        );
        let program = systolic_model::parse_program(&text).expect("valid");
        let analysis_config = AnalysisConfig {
            lookahead: Lookahead::Unbounded,
            queues_per_interval: 2,
        };
        let analysis = Analyzer::for_topology(&Topology::linear(2), &analysis_config)
            .analyze(&program)
            .expect("analyzes with unbounded lookahead");
        for cap in [1usize, 2, 8] {
            let candidates = analysis.extension_candidates(&[cap, cap]);
            let config = SimConfig {
                queues_per_interval: 2,
                queue: QueueConfig {
                    capacity: cap,
                    extension: true,
                },
                cost: CostModel::systolic(),
                max_cycles: 100_000,
            };
            let out = run_simulation(
                &program,
                &Topology::linear(2),
                Box::new(GreedyPolicy::new()),
                config,
            )
            .expect("sim builds");
            let spills = out.stats().spill_accesses;
            table.row([
                n.to_string(),
                cap.to_string(),
                if candidates.is_empty() { "no" } else { "yes" }.to_owned(),
                outcome_name(&out),
                spills.to_string(),
            ]);
        }
    }
    Experiment {
        id: "E4",
        title: "iWarp queue extension: spill exactly when skips exceed capacity".into(),
        table,
        notes: vec![
            "Section 8.1: the extension mechanism needs to be invoked only when the number \
             of skipped writes exceeds the total queue size along the message's route."
                .into(),
        ],
    }
}

/// E5: the threaded runtime — scheduling-independent completion.
#[must_use]
pub fn e5_threaded() -> Experiment {
    let mut table = Table::new(["workload", "mode", "outcome"]);
    let fig7 = wl::fig7(3);
    let fig7_top = wl::fig7_topology();
    let plan = Analyzer::for_topology(&fig7_top, &AnalysisConfig::default())
        .analyze(&fig7)
        .expect("fig7 analyzes")
        .into_plan();
    let out = run_threaded(
        &fig7,
        &fig7_top,
        Box::new(CompatiblePolicy::new(plan)),
        ThreadedConfig::default(),
    )
    .expect("threaded runs");
    table.row([
        "fig7(3)".to_owned(),
        "compatible".to_owned(),
        threaded_name(&out),
    ]);

    let out = run_threaded(
        &fig7,
        &fig7_top,
        Box::new(FifoPolicy::new()),
        ThreadedConfig::default(),
    )
    .expect("threaded runs");
    table.row(["fig7(3)".to_owned(), "fifo".to_owned(), threaded_name(&out)]);

    let fir = wl::fig2_fir();
    let fir_top = wl::fig2_topology();
    let fir_config = AnalysisConfig {
        queues_per_interval: 2,
        ..Default::default()
    };
    let plan = Analyzer::for_topology(&fir_top, &fir_config)
        .analyze(&fir)
        .expect("FIR analyzes")
        .into_plan();
    let out = run_threaded(
        &fir,
        &fir_top,
        Box::new(CompatiblePolicy::new(plan)),
        ThreadedConfig {
            queues_per_interval: 2,
            ..Default::default()
        },
    )
    .expect("threaded runs");
    table.row([
        "fig2 FIR".to_owned(),
        "compatible".to_owned(),
        threaded_name(&out),
    ]);

    Experiment {
        id: "E5",
        title: "OS-thread runtime: Theorem 1 is scheduling independent".into(),
        table,
        notes: vec![
            "Real threads, arbitrary OS interleaving: compatible assignment still \
             completes, and every reader checks that words arrive in order. Both runtimes \
             grant through the same policy objects and move words through the same \
             queues, so the rules checked on threads are the rules the simulator replays."
                .into(),
            "The FIFO row depends on scheduling: Fig. 7 deadlocks on threads only when \
             message A takes the queue between cells c2 and c3 before message C asks for \
             it. The runtime decides the deadlock when every unfinished thread waits; \
             otherwise the run completes."
                .into(),
        ],
    }
}

fn threaded_name(out: &ThreadedOutcome) -> String {
    match out {
        ThreadedOutcome::Completed {
            words_delivered,
            elapsed,
        } => {
            format!("completed ({words_delivered} words, {elapsed:.2?})")
        }
        ThreadedOutcome::Deadlocked { blocked } => {
            format!("DEADLOCK ({} threads blocked)", blocked.len())
        }
    }
}

/// Labels of the Fig. 7 messages, for the repro summary.
#[must_use]
pub fn fig7_labels() -> Vec<(String, Label)> {
    let program = wl::fig7(3);
    let limits = LookaheadLimits::disabled(&program);
    let labeling = label_messages(&program, &limits)
        .expect("labels")
        .into_labeling();
    program
        .message_ids()
        .map(|m| (program.message(m).name().to_owned(), labeling.label(m)))
        .collect()
}

/// Runs one experiment with fast default parameters.
pub type RunExperiment = fn() -> Experiment;

/// Every experiment's id and the function that runs it, in presentation
/// order.
pub const EXPERIMENTS: [(&str, RunExperiment); 17] = [
    ("F1", fig01_comm_models),
    ("F2", fig02_fir_program),
    ("F3", fig03_queue_assignment),
    ("F4", fig04_crossing_off),
    ("F5", fig05_deadlocked_programs),
    ("F6", fig06_cycle),
    ("F7", || fig07_ordering(&[1, 2, 4, 8])),
    ("F8", fig08_interleaved_reads),
    ("F9", fig09_interleaved_writes),
    ("F10", fig10_lookahead),
    ("T1", || t1_theorem_campaign(100, 2)),
    ("E1", e1_scaling),
    ("E2", || e2_campaign(50)),
    ("E3", e3_labeling_ablation),
    ("E4", e4_queue_extension),
    ("E5", e5_threaded),
    ("E6", e6_strict_pipeline_depth),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ids_name_their_experiments() {
        for (id, run) in EXPERIMENTS {
            assert_eq!(run().id, id);
        }
    }

    #[test]
    fn fig01_shapes_hold() {
        let e = fig01_comm_models();
        let text = e.table.to_text();
        // systolic rows report 0 accesses; mem-to-mem rows report 4.0/word.
        assert!(text.contains("systolic"));
        assert!(text.contains("4.0"));
    }

    #[test]
    fn fig04_has_twelve_steps_with_doubles_at_3_5_9() {
        let program = wl::fig2_fir();
        let Classification::DeadlockFree(trace) = classify(&program) else {
            panic!("deadlock-free")
        };
        assert_eq!(trace.steps().len(), 12, "Fig. 4 shows 12 steps");
        for (i, step) in trace.steps().iter().enumerate() {
            let expected = if [2, 4, 8].contains(&i) { 2 } else { 1 };
            assert_eq!(
                step.pairs.len(),
                expected,
                "step {} crossed {} pairs",
                i + 1,
                step.pairs.len()
            );
        }
        assert_eq!(trace.total_pairs(), 15);
    }

    #[test]
    fn fig7_labels_match_paper() {
        let labels = fig7_labels();
        let find = |n: &str| labels.iter().find(|(name, _)| name == n).unwrap().1;
        assert_eq!(find("A"), Label::integer(1));
        assert_eq!(find("B"), Label::integer(3));
        assert_eq!(find("C"), Label::integer(2));
    }

    #[test]
    fn fig07_table_shows_the_contrast() {
        let e = fig07_ordering(&[2]);
        let text = e.table.to_text();
        assert!(text.contains("DEADLOCK"), "{text}");
        assert!(text.contains("completed"), "{text}");
    }

    #[test]
    fn fig08_fig09_one_queue_infeasible_two_fine() {
        for e in [fig08_interleaved_reads(), fig09_interleaved_writes()] {
            let text = e.table.to_text();
            assert!(text.contains("rejected"), "{text}");
            assert!(text.contains("completed"), "{text}");
            assert!(text.contains("DEADLOCK"), "{text}");
        }
    }

    #[test]
    fn t1_compatible_never_deadlocks() {
        let e = t1_theorem_campaign(25, 2);
        let csv = e.table.to_csv();
        let compatible_row = csv.lines().find(|l| l.starts_with("compatible")).unwrap();
        let fields: Vec<&str> = compatible_row.split(',').collect();
        assert_eq!(
            fields[2], "0",
            "Theorem 1: no deadlocks, got {compatible_row}"
        );
    }

    #[test]
    fn e3_scheme_never_needs_more_than_trivial() {
        let e = e3_labeling_ablation();
        for line in e.table.to_csv().lines().skip(1) {
            // Workload names contain commas and are RFC-4180 quoted; the
            // numeric columns are comma-free, so split from the right.
            let f: Vec<&str> = line.rsplit(',').collect();
            let trivial: usize = f[0].parse().unwrap();
            let scheme: usize = f[2].parse().unwrap();
            assert!(scheme <= trivial, "{line}");
        }
    }

    #[test]
    fn e4_extension_trigger_matches_capacity() {
        let e = e4_queue_extension();
        for line in e.table.to_csv().lines().skip(1) {
            let f: Vec<&str> = line.split(',').collect();
            let n: usize = f[0].parse().unwrap();
            let cap: usize = f[1].parse().unwrap();
            let needs = f[2] == "yes";
            assert_eq!(needs, n > cap, "{line}");
            // The run always completes thanks to the extension.
            assert!(f[3].contains("completed"), "{line}");
        }
    }
}
