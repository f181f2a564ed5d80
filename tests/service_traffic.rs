//! End-to-end service test: ≥ 500 mixed workload requests through the
//! sharded, cached analysis service, cross-checked against direct
//! `Analyzer` runs, and a snapshot-warmed restart checked against the
//! cold run's wire answers.

use std::collections::HashMap;

use systolic::core::{request_fingerprint, Analyzer};
use systolic::model::{parse_program, Topology};
use systolic::obs::names;
use systolic::service::wire::WireResponse;
use systolic::service::{
    AnalysisRequest, AnalysisResponse, AnalysisService, CacheConfig, CacheProvenance, Json,
    ServiceConfig,
};
use systolic::workloads::{traffic, TrafficConfig};

const REQUESTS: usize = 600;

fn mixed_requests() -> Vec<AnalysisRequest> {
    traffic(&TrafficConfig::default(), 20_260_726, REQUESTS)
        .iter()
        .map(AnalysisRequest::from_traffic)
        .collect()
}

#[test]
fn five_hundred_mixed_requests_match_direct_analysis() {
    let requests = mixed_requests();
    let config = ServiceConfig {
        workers: 8,
        cache: CacheConfig {
            shards: 8,
            capacity_per_shard: 1024,
        },
        queue_depth: 32,
        ..Default::default()
    };
    let service = AnalysisService::new(config);
    let responses = service.run_batch(requests.clone());
    assert_eq!(responses.len(), REQUESTS);

    // Order is preserved and every response matches a direct, uncached
    // analysis of the same request.
    let mut direct_cache: HashMap<u128, Option<usize>> = HashMap::new();
    for (request, response) in requests.iter().zip(&responses) {
        assert_eq!(request.name, response.name);
        let fingerprint = request_fingerprint(&request.program, &request.topology, &request.config);
        assert_eq!(fingerprint, response.fingerprint);

        let direct = direct_cache.entry(fingerprint).or_insert_with(|| {
            Analyzer::for_topology(&request.topology, &request.config)
                .analyze(&request.program)
                .ok()
                .map(|a| a.plan().requirements().max_per_interval())
        });
        match (direct.as_ref(), response.outcome.as_ref()) {
            (Some(&max_queues), Ok(certified)) => {
                assert_eq!(
                    certified.max_queues_per_interval, max_queues,
                    "{}: queue requirement drifted through the service",
                    request.name
                );
                assert_eq!(
                    certified.message_labels.len(),
                    request.program.num_messages()
                );
            }
            (None, Err(_)) => {}
            (direct, served) => panic!(
                "{}: direct analysis {:?} disagrees with service outcome {:?}",
                request.name,
                direct.is_some(),
                served.is_ok()
            ),
        }
    }

    // Cache accounting: entries equal distinct fingerprints, counters add
    // up, and the hot part of the traffic produced real hits.
    let requests = service
        .registry_snapshot()
        .counter_value(names::SERVICE_REQUESTS, &[]);
    assert_eq!(requests, REQUESTS as u64);
    let cache = service.cache_stats();
    assert_eq!(service.cache_entries(), direct_cache.len());
    assert_eq!(cache.hits + cache.misses, REQUESTS as u64);
    assert!(
        cache.hits >= (REQUESTS / 4) as u64,
        "mixed traffic should hit the cache often, got {} hits",
        cache.hits
    );
    let per_shard = service.per_shard_cache_stats();
    assert_eq!(per_shard.len(), 8);
    assert_eq!(
        per_shard.iter().map(|s| s.entries).sum::<usize>(),
        service.cache_entries()
    );
}

#[test]
fn repeated_batches_become_pure_hits() {
    let requests = mixed_requests();
    let service = AnalysisService::new(ServiceConfig {
        workers: 4,
        cache: CacheConfig {
            shards: 4,
            capacity_per_shard: 1024,
        },
        ..Default::default()
    });
    let first = service.run_batch(requests.clone());
    let second = service.run_batch(requests);
    assert!(
        second.iter().all(|r| r.provenance == CacheProvenance::Hit),
        "a replayed batch must be served entirely from cache"
    );
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(std::sync::Arc::ptr_eq(&a.outcome, &b.outcome));
    }
}

#[test]
fn tiny_cache_evicts_under_mixed_traffic() {
    let service = AnalysisService::new(ServiceConfig {
        workers: 4,
        cache: CacheConfig {
            shards: 2,
            capacity_per_shard: 4,
        },
        ..Default::default()
    });
    let responses: Vec<AnalysisResponse> = service.run_batch(mixed_requests());
    assert_eq!(responses.len(), REQUESTS);
    let stats = service.cache_stats();
    assert!(
        stats.evictions > 0,
        "8 total slots must evict under mixed traffic"
    );
    assert!(service.cache_entries() <= 8);
}

/// A response's wire JSON without the members a restart may change: the
/// provenance, the serving time and the trace id.
fn restart_stable_json(response: &AnalysisResponse) -> String {
    let Ok(Json::Obj(members)) = Json::parse(&WireResponse::Analysis(response).to_json()) else {
        panic!("an analysis response renders as an object");
    };
    let stable = members
        .into_iter()
        .filter(|(key, _)| !matches!(key.as_str(), "cache" | "micros" | "trace"))
        .collect();
    Json::Obj(stable).to_string()
}

#[test]
fn warm_restart_answers_what_the_cold_run_answered() {
    let mut requests: Vec<AnalysisRequest> = traffic(&TrafficConfig::default(), 20_261_017, 120)
        .iter()
        .map(AnalysisRequest::from_traffic)
        .collect();
    // A deadlocked exchange: a cached rejection with an E-DEADLOCK
    // diagnostic.
    let deadlocked = parse_program(
        "cells 2\nmessage A: c0 -> c1\nmessage B: c1 -> c0\n\
         program c0 { R(B) W(A) }\nprogram c1 { R(A) W(B) }\n",
    )
    .unwrap();
    requests.push(AnalysisRequest::new(
        "deadlock",
        deadlocked,
        Topology::linear(2),
    ));
    // The 6-cell witness on which the Section 6 scheme wedges: certified
    // by the constraint solver, with a fallback warning.
    let witness = parse_program(
        "cells 6\n\
         message M0: c5 -> c2\nmessage M1: c1 -> c4\nmessage M2: c3 -> c0\n\
         message M3: c0 -> c4\nmessage M4: c4 -> c2\nmessage M5: c0 -> c4\n\
         message M6: c2 -> c1\nmessage M7: c4 -> c2\nmessage M8: c2 -> c3\n\
         program c0 { W(M5) W(M5) R(M2) W(M3) }\n\
         program c1 { R(M6) R(M6) W(M1) W(M1) }\n\
         program c2 { R(M4) R(M4) W(M6) W(M6) W(M8) R(M7) R(M7) R(M0) R(M0) }\n\
         program c3 { R(M8) W(M2) }\n\
         program c4 { W(M4) W(M4) R(M5) R(M5) R(M1) R(M3) R(M1) W(M7) W(M7) }\n\
         program c5 { W(M0) W(M0) }\n",
    )
    .unwrap();
    let mut witness = AnalysisRequest::new("witness", witness, Topology::linear(6));
    witness.config.queues_per_interval = 4;
    requests.push(witness);

    let config = ServiceConfig {
        verify: true,
        ..Default::default()
    };
    let cold = AnalysisService::new(config);
    let originals = cold.run_batch(requests.clone());
    let rendered: Vec<String> = originals.iter().map(restart_stable_json).collect();
    let deadlock = &rendered[rendered.len() - 2];
    assert!(deadlock.contains(r#""code":"E-DEADLOCK""#), "{deadlock}");
    let witness = &rendered[rendered.len() - 1];
    assert!(witness.contains(r#""status":"certified""#), "{witness}");
    assert!(
        witness.contains(r#""code":"W-SECTION6-FALLBACK""#),
        "{witness}"
    );

    let restarted = AnalysisService::new(config);
    let report = restarted
        .import_snapshot(&cold.export_snapshot())
        .expect("the snapshot loads");
    assert_eq!(report.plans as usize, cold.cache_entries());
    assert_eq!(report.dropped, 0);
    let replayed = restarted.run_batch(requests);
    for (original, replay) in rendered.iter().zip(&replayed) {
        assert_eq!(replay.provenance, CacheProvenance::Warm, "{}", replay.name);
        assert_eq!(&restart_stable_json(replay), original);
    }
}
