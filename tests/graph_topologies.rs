//! End-to-end coverage of non-linear topologies: rings, meshes and custom
//! graphs — the paper's "results apply to arrays of higher dimensionalities
//! and other distributed computing systems using any interconnection
//! topology" (Section 2.1).

use systolic::core::{AnalysisConfig, Analyzer};
use systolic::model::{CellId, Topology};
use systolic::sim::{run_simulation, CompatiblePolicy, SimConfig};
use systolic::workloads::ScheduleBuilder;

fn c(i: u32) -> CellId {
    CellId::new(i)
}

/// A program over a custom graph: a star with centre 0 and leaves 1..4,
/// where every leaf sends to the opposite leaf *through* the centre.
#[test]
fn star_graph_relay_completes() {
    let topology =
        Topology::graph(5, [(c(0), c(1)), (c(0), c(2)), (c(0), c(3)), (c(0), c(4))]).unwrap();

    let mut s = ScheduleBuilder::new(5);
    let m12 = s.message("A", 1, 2).unwrap(); // routes 1 -> 0 -> 2
    let m34 = s.message("B", 3, 4).unwrap(); // routes 3 -> 0 -> 4
    s.transfer_n(m12, 0, 1, 3);
    s.transfer_n(m34, 0, 1, 3);
    let program = s.build().unwrap();

    let config = AnalysisConfig {
        queues_per_interval: 2,
        ..Default::default()
    };
    let analysis = Analyzer::for_topology(&topology, &config)
        .analyze(&program)
        .unwrap();
    // Both messages relay through the centre but on different intervals.
    let routes = analysis.plan().routes();
    assert_eq!(routes.route(m12).cells(), &[c(1), c(0), c(2)]);
    assert_eq!(routes.route(m34).cells(), &[c(3), c(0), c(4)]);

    let out = run_simulation(
        &program,
        &topology,
        Box::new(CompatiblePolicy::new(analysis.into_plan())),
        SimConfig {
            queues_per_interval: 2,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(out.is_completed(), "{out:?}");
    assert_eq!(
        out.stats().words_forwarded,
        6,
        "each word crosses one relay hop"
    );
}

/// Ring workload on the actual ring topology, including the wraparound hop.
#[test]
fn ring_with_wraparound_completes() {
    let program = systolic::workloads::token_ring(5, 4).unwrap();
    let topology = systolic::workloads::ring_topology(5);
    let analysis = Analyzer::for_topology(&topology, &AnalysisConfig::default())
        .analyze(&program)
        .unwrap();
    let out = run_simulation(
        &program,
        &topology,
        Box::new(CompatiblePolicy::new(analysis.into_plan())),
        SimConfig::default(),
    )
    .unwrap();
    assert!(out.is_completed());
}

/// Mesh program where a message is routed around a corner by XY routing.
#[test]
fn mesh_corner_turn_routes_and_completes() {
    let topology = Topology::mesh(3, 3);
    let mut s = ScheduleBuilder::new(9);
    // From (0,0)=0 to (2,2)=8: XY goes east along row 0, then south.
    let m = s.message("DIAG", 0, 8).unwrap();
    s.transfer_n(m, 0, 1, 4);
    let program = s.build().unwrap();

    let config = AnalysisConfig {
        queues_per_interval: 1,
        ..Default::default()
    };
    let analysis = Analyzer::for_topology(&topology, &config)
        .analyze(&program)
        .unwrap();
    assert_eq!(
        analysis.plan().route(m).cells(),
        &[c(0), c(1), c(2), c(5), c(8)],
        "XY routing: column-first, then row"
    );
    let out = run_simulation(
        &program,
        &topology,
        Box::new(CompatiblePolicy::new(analysis.into_plan())),
        SimConfig::default(),
    )
    .unwrap();
    assert!(out.is_completed());
    // 4 words x 3 forwarding hops.
    assert_eq!(out.stats().words_forwarded, 12);
}

/// Queue occupancy never exceeds configured capacity (high-water check).
#[test]
fn high_water_respects_capacity() {
    let program = systolic::workloads::fig5_p1();
    let topology = Topology::linear(2);
    let out = run_simulation(
        &program,
        &topology,
        Box::new(systolic::sim::GreedyPolicy::new()),
        SimConfig {
            queues_per_interval: 2,
            queue: systolic::sim::QueueConfig {
                capacity: 2,
                extension: false,
            },
            ..Default::default()
        },
    )
    .unwrap();
    assert!(out.is_completed());
    assert!(out.stats().max_queue_occupancy() <= 2);
    assert!(out.stats().max_queue_occupancy() > 0);
}

/// Torus program exercising both wraparound dimensions: a message that XY
/// routing sends through the column wrap and then the row wrap, verified
/// end-to-end through analysis, a one-shot replay and a reused arena.
#[test]
fn torus_wraparound_routes_and_completes() {
    let topology = Topology::from_spec("torus:4x4").unwrap();
    let mut s = ScheduleBuilder::new(16);
    // From (0,0)=0 to (3,3)=15: one hop west through the column wrap to
    // (0,3), one hop north through the row wrap to (3,3).
    let m = s.message("WRAP", 0, 15).unwrap();
    s.transfer_n(m, 0, 1, 4);
    let program = s.build().unwrap();

    let config = AnalysisConfig {
        queues_per_interval: 1,
        ..Default::default()
    };
    let analysis = Analyzer::for_topology(&topology, &config)
        .analyze(&program)
        .unwrap();
    assert_eq!(
        analysis.plan().route(m).cells(),
        &[c(0), c(3), c(15)],
        "shorter-way-around XY routing uses both wraps"
    );
    let plan = std::sync::Arc::new(analysis.into_plan());
    let report =
        systolic::sim::verify_plan(&program, &topology, &plan, SimConfig::default()).unwrap();
    assert!(report.completed);
    assert_eq!(report.words_delivered, 4);

    // The same plan replays identically, twice, through one reused arena.
    let mut arena = systolic::sim::SimArena::new(&topology, SimConfig::default());
    for _ in 0..2 {
        assert_eq!(arena.verify(&program, &plan).unwrap(), report);
    }
}
