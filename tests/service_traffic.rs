//! End-to-end service test: ≥ 500 mixed workload requests through the
//! sharded, cached analysis service, cross-checked against direct
//! `Analyzer` runs.

use std::collections::HashMap;

use systolic::core::{request_fingerprint, Analyzer};
use systolic::obs::names;
use systolic::service::{
    AnalysisRequest, AnalysisResponse, AnalysisService, CacheConfig, CacheProvenance, ServiceConfig,
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
