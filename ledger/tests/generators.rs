//! The input generators keep their promises: one seed gives byte-identical
//! request lines, schedule-projected programs certify and replay to
//! completion, and spliced deadlocks are rejected with `E-DEADLOCK`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use systolic_core::{AnalysisConfig, Analyzer};
use systolic_ledger::gen::{self, EditChain, Expect};
use systolic_model::{Program, Topology};
use systolic_service::wire::{parse_line, WireRequest, WireResponse};
use systolic_service::{AnalysisService, ServiceConfig};
use systolic_sim::{verify_plan, SimConfig};

fn cold_lines(seed: u64) -> Vec<String> {
    (0..24)
        .map(|i| gen::cold_verify_request(seed, gen::TIMED, i).line)
        .collect()
}

fn edit_lines(seed: u64) -> Vec<String> {
    let (program, topology, queues) = gen::edit_base(seed, 3);
    let mut chain = EditChain::new(&program, &topology, queues);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..64)
        .map(|_| {
            let batch = chain.next_batch(&mut rng);
            chain.ops_json(&batch)
        })
        .collect()
}

#[test]
fn one_seed_gives_byte_identical_jsonl() {
    assert_eq!(cold_lines(7).join("\n"), cold_lines(7).join("\n"));
    assert_ne!(cold_lines(7), cold_lines(8));
    assert_eq!(gen::hot_mix_lines(7, 64), gen::hot_mix_lines(7, 64));
    assert_eq!(edit_lines(7), edit_lines(7));
    assert_ne!(edit_lines(7), edit_lines(8));
}

/// Certifies `program` and replays its plan to completion.
fn certifies_and_completes(program: &Program, topology: &Topology, queues: usize) {
    let config = AnalysisConfig {
        queues_per_interval: queues,
        ..AnalysisConfig::default()
    };
    let outcome = Analyzer::for_topology(topology, &config).diagnose(program);
    let analysis = outcome
        .result()
        .unwrap_or_else(|e| panic!("schedule-projected program rejected: {e}"));
    let plan = Arc::new(analysis.plan().clone());
    let report = verify_plan(program, topology, &plan, SimConfig::default()).expect("replays");
    assert!(report.completed, "certified plan stalled: {report:?}");
}

#[test]
fn schedule_projected_programs_certify_and_replay_to_completion() {
    for seed in 0..6 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (program, topology) = gen::linear_program(&mut rng);
        certifies_and_completes(&program, &topology, gen::COLD_QUEUES);
        let mesh = gen::mesh_hotspot_program(&mut rng);
        assert!(mesh.cost > 0 && mesh.hottest_share > 0.0 && mesh.hottest_share <= 1.0);
        certifies_and_completes(&mesh.program, &mesh.topology, gen::COLD_QUEUES);
    }
}

#[test]
fn edited_programs_stay_certified() {
    for index in [0, 1, 3] {
        let (program, topology, queues) = gen::edit_base(11, index);
        let mut chain = EditChain::new(&program, &topology, queues);
        let mut rng = StdRng::seed_from_u64(index);
        for _ in 0..40 {
            let _ = chain.next_batch(&mut rng);
        }
        certifies_and_completes(&chain.program(), &chain.topology(&topology), queues);
    }
}

#[test]
fn spliced_deadlocks_are_rejected_with_e_deadlock() {
    for seed in 0..6 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (program, topology) = gen::linear_program(&mut rng);
        let deadlocked = gen::splice_deadlock(&program, &mut rng);
        let config = AnalysisConfig {
            queues_per_interval: gen::COLD_QUEUES,
            ..AnalysisConfig::default()
        };
        let outcome = Analyzer::for_topology(&topology, &config).diagnose(&deadlocked);
        assert!(outcome.result().is_err(), "spliced cycle certified");
        assert!(outcome
            .diagnostics()
            .into_iter()
            .any(|d| d.code().as_str() == "E-DEADLOCK"));
    }
}

#[test]
fn cold_verify_lines_get_their_constructed_verdict_over_the_wire() {
    let service = AnalysisService::new(ServiceConfig {
        workers: 1,
        verify: true,
        ..ServiceConfig::default()
    });
    let mut deadlocked = 0;
    for i in 0..40 {
        let request = gen::cold_verify_request(5, gen::TIMED, i);
        let Ok(WireRequest::Analysis(parsed)) = parse_line(&request.line, 1) else {
            panic!("generated line does not parse");
        };
        let response = service.submit(*parsed).wait();
        let json = WireResponse::Analysis(&response).to_json().to_string();
        match request.expect {
            Expect::Certified => assert!(json.contains(r#""verified":true"#), "{json}"),
            Expect::Deadlocked => {
                deadlocked += 1;
                assert!(json.contains("E-DEADLOCK"), "{json}");
            }
        }
    }
    assert!(deadlocked > 0, "the stream mixes in constructed deadlocks");
}
