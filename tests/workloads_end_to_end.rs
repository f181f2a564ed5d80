//! Every workload generator, end-to-end: analyze → plan → simulate under
//! the compatible policy → complete. A few also run on the threaded
//! runtime and under static assignment.

use systolic::core::{AnalysisConfig, Analyzer};
use systolic::model::{Program, Topology};
use systolic::sim::{
    run_simulation, CompatiblePolicy, CostModel, QueueConfig, SimConfig, StaticPolicy,
};
use systolic::threaded::{run_threaded, ThreadedConfig};
use systolic::workloads as wl;

fn all_workloads() -> Vec<(String, Program, Topology)> {
    vec![
        (
            "fir(1,4)".into(),
            wl::fir(1, 4).unwrap(),
            wl::fir_topology(1),
        ),
        (
            "fir(3,12)".into(),
            wl::fir(3, 12).unwrap(),
            wl::fir_topology(3),
        ),
        (
            "fir(5,9)".into(),
            wl::fir(5, 9).unwrap(),
            wl::fir_topology(5),
        ),
        (
            "matvec(1)".into(),
            wl::matvec(1).unwrap(),
            wl::matvec_topology(1),
        ),
        (
            "matvec(5)".into(),
            wl::matvec(5).unwrap(),
            wl::matvec_topology(5),
        ),
        (
            "sort(4,4)".into(),
            wl::odd_even_sort(4, 4).unwrap(),
            wl::sort_topology(4),
        ),
        (
            "sort(7,7)".into(),
            wl::odd_even_sort(7, 7).unwrap(),
            wl::sort_topology(7),
        ),
        (
            "align(2,5)".into(),
            wl::seq_align(2, 5).unwrap(),
            wl::seq_align_topology(2),
        ),
        (
            "align(4,6)".into(),
            wl::seq_align(4, 6).unwrap(),
            wl::seq_align_topology(4),
        ),
        (
            "horner(2,6)".into(),
            wl::horner(2, 6).unwrap(),
            wl::horner_topology(2),
        ),
        (
            "ring(5,3)".into(),
            wl::token_ring(5, 3).unwrap(),
            wl::ring_topology(5),
        ),
        (
            "matmul(2,2,3)".into(),
            wl::mesh_matmul(2, 2, 3).unwrap(),
            wl::matmul_topology(2, 2),
        ),
        (
            "matmul(3,4,5)".into(),
            wl::mesh_matmul(3, 4, 5).unwrap(),
            wl::matmul_topology(3, 4),
        ),
        (
            "wave(2,4,3)".into(),
            wl::wavefront(2, 4, 3).unwrap(),
            wl::wavefront_topology(2, 4),
        ),
        (
            "backsub(1)".into(),
            wl::back_substitution(1).unwrap(),
            wl::back_substitution_topology(1),
        ),
        (
            "backsub(5)".into(),
            wl::back_substitution(5).unwrap(),
            wl::back_substitution_topology(5),
        ),
        ("fig2".into(), wl::fig2_fir(), wl::fig2_topology()),
        ("fig3".into(), wl::fig3_messages(), Topology::linear(4)),
        ("fig6".into(), wl::fig6_cycle(), wl::fig6_topology()),
        ("fig7(5)".into(), wl::fig7(5), wl::fig7_topology()),
    ]
}

#[test]
fn every_workload_completes_under_compatible_assignment() {
    for (name, program, topology) in all_workloads() {
        // Learn the requirement from a generous analysis, then run tight.
        let generous = AnalysisConfig {
            queues_per_interval: program.num_messages().max(1) * 2,
            ..Default::default()
        };
        let probe = Analyzer::for_topology(&topology, &generous)
            .analyze(&program)
            .unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
        let queues = probe.plan().requirements().max_per_interval().max(1);
        let tight = AnalysisConfig {
            queues_per_interval: queues,
            ..Default::default()
        };
        let analysis = Analyzer::for_topology(&topology, &tight)
            .analyze(&program)
            .unwrap_or_else(|e| panic!("{name}: tight analysis failed: {e}"));
        let out = run_simulation(
            &program,
            &topology,
            Box::new(CompatiblePolicy::new(analysis.into_plan())),
            SimConfig {
                queues_per_interval: queues,
                queue: QueueConfig {
                    capacity: 1,
                    extension: false,
                },
                cost: CostModel::systolic(),
                max_cycles: 10_000_000,
            },
        )
        .unwrap();
        assert!(out.is_completed(), "{name} did not complete: {out:?}");
        assert_eq!(
            out.stats().words_delivered as usize,
            program.total_words(),
            "{name}: every word must arrive"
        );
    }
}

#[test]
fn workloads_complete_under_static_assignment_with_dedicated_queues() {
    for (name, program, topology) in all_workloads() {
        // Enough queues to dedicate one per crossing message per interval.
        let queues = program.num_messages().max(1);
        let config = AnalysisConfig {
            queues_per_interval: queues,
            ..Default::default()
        };
        let analysis = Analyzer::for_topology(&topology, &config)
            .analyze(&program)
            .unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
        let policy = StaticPolicy::new(analysis.plan(), queues)
            .unwrap_or_else(|_| panic!("{name}: static assignment must fit"));
        let out = run_simulation(
            &program,
            &topology,
            Box::new(policy),
            SimConfig {
                queues_per_interval: queues,
                queue: QueueConfig {
                    capacity: 1,
                    extension: false,
                },
                cost: CostModel::systolic(),
                max_cycles: 10_000_000,
            },
        )
        .unwrap();
        assert!(out.is_completed(), "{name} under static: {out:?}");
    }
}

#[test]
fn representative_workloads_complete_on_threads() {
    let cases: Vec<(String, Program, Topology)> = vec![
        (
            "fir(3,8)".into(),
            wl::fir(3, 8).unwrap(),
            wl::fir_topology(3),
        ),
        (
            "backsub(3)".into(),
            wl::back_substitution(3).unwrap(),
            wl::back_substitution_topology(3),
        ),
        (
            "sort(4,4)".into(),
            wl::odd_even_sort(4, 4).unwrap(),
            wl::sort_topology(4),
        ),
        (
            "matmul(2,3,3)".into(),
            wl::mesh_matmul(2, 3, 3).unwrap(),
            wl::matmul_topology(2, 3),
        ),
    ];
    for (name, program, topology) in cases {
        let generous = AnalysisConfig {
            queues_per_interval: program.num_messages().max(1) * 2,
            ..Default::default()
        };
        let probe = Analyzer::for_topology(&topology, &generous)
            .analyze(&program)
            .unwrap();
        let queues = probe.plan().requirements().max_per_interval().max(1);
        let tight = AnalysisConfig {
            queues_per_interval: queues,
            ..Default::default()
        };
        let analysis = Analyzer::for_topology(&topology, &tight)
            .analyze(&program)
            .unwrap();
        let out = run_threaded(
            &program,
            &topology,
            Box::new(CompatiblePolicy::new(analysis.into_plan())),
            ThreadedConfig {
                queues_per_interval: queues,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.is_completed(), "{name} on threads: {out:?}");
    }
}

#[test]
fn threaded_static_mode_completes_fig7() {
    let program = wl::fig7(3);
    let topology = wl::fig7_topology();
    // Static needs a dedicated queue per crossing message: interval c2-c3
    // carries A and C (2), interval c3-c4 carries B and C (2).
    let config = AnalysisConfig {
        queues_per_interval: 2,
        ..Default::default()
    };
    let analysis = Analyzer::for_topology(&topology, &config)
        .analyze(&program)
        .unwrap();
    let out = run_threaded(
        &program,
        &topology,
        Box::new(StaticPolicy::new(&analysis.into_plan(), 2).unwrap()),
        ThreadedConfig {
            queues_per_interval: 2,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(out.is_completed(), "{out:?}");
}

#[test]
fn strict_alignment_deadlocks_then_buffers_out() {
    let program = wl::seq_align_strict(3, 7).unwrap();
    let topology = wl::seq_align_topology(3);
    // Latch queues: deadlock.
    let out = run_simulation(
        &program,
        &topology,
        Box::new(systolic::sim::GreedyPolicy::new()),
        SimConfig {
            queues_per_interval: 3,
            queue: QueueConfig {
                capacity: 0,
                extension: false,
            },
            cost: CostModel::systolic(),
            max_cycles: 1_000_000,
        },
    )
    .unwrap();
    assert!(out.is_deadlocked());
    // One word of buffering: completes.
    let out = run_simulation(
        &program,
        &topology,
        Box::new(systolic::sim::GreedyPolicy::new()),
        SimConfig {
            queues_per_interval: 3,
            queue: QueueConfig {
                capacity: 1,
                extension: false,
            },
            cost: CostModel::systolic(),
            max_cycles: 1_000_000,
        },
    )
    .unwrap();
    assert!(out.is_completed());
}
