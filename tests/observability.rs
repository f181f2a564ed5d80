//! End-to-end observability: a 300-request mixed-topology batch through a
//! verifying service must leave behind (a) a metrics exposition carrying
//! analyzer per-stage duration histograms, the replay-duration histogram,
//! and arena-cache hit/miss counters, and (b) a span log whose stage spans
//! nest under request root spans with trace ids matching the wire
//! responses.

use std::collections::HashSet;

use systolic::obs::names;
use systolic::service::wire::WireResponse;
use systolic::service::{AnalysisRequest, AnalysisService, CacheProvenance, Json, ServiceConfig};
use systolic::workloads::{traffic, TrafficConfig};

const BATCH: usize = 300;

#[test]
fn mixed_topology_batch_exports_metrics_and_nested_spans() {
    let config = ServiceConfig {
        workers: 4,
        verify: true,
        verify_threads: 2,
        ..Default::default()
    };
    let service = AnalysisService::new(config);
    let requests: Vec<AnalysisRequest> = traffic(&TrafficConfig::default(), 42, BATCH)
        .iter()
        .map(AnalysisRequest::from_traffic)
        .collect();
    let responses = service.run_batch(requests);
    assert_eq!(responses.len(), BATCH);

    // Every response carries its own trace id, echoed on the wire.
    let mut trace_ids = HashSet::new();
    for response in &responses {
        assert!(response.trace_id > 0);
        assert!(
            trace_ids.insert(response.trace_id),
            "trace ids are unique per request"
        );
        let json = Json::parse(&WireResponse::Analysis(response).to_json()).unwrap();
        assert_eq!(
            json.get("trace").and_then(Json::as_u64),
            Some(response.trace_id),
            "wire response echoes the trace id"
        );
    }

    // (a) The metrics exposition carries the three advertised families.
    let snapshot = service.registry_snapshot();
    let text = snapshot.render_prometheus();
    assert!(
        text.contains("systolic_analyzer_stage_duration_micros_bucket{"),
        "{text}"
    );
    for stage in ["routes", "classification", "labeling", "plan"] {
        assert!(
            text.contains(&format!("stage=\"{stage}\"")),
            "exposition carries the {stage} stage histogram:\n{text}"
        );
    }
    assert!(
        text.contains("systolic_verify_replay_duration_micros"),
        "{text}"
    );
    assert!(text.contains("systolic_arena_cache_hits_total"), "{text}");
    assert!(text.contains("systolic_arena_cache_misses_total"), "{text}");
    assert!(
        text.contains("systolic_service_requests_total 300"),
        "{text}"
    );

    // Per-request instruments agree with the batch.
    assert_eq!(
        snapshot.counter_value(names::SERVICE_REQUESTS, &[]),
        BATCH as u64
    );
    assert_eq!(
        snapshot
            .histogram_value(names::SERVICE_HANDLE_DURATION, &[])
            .count,
        BATCH as u64
    );
    // Every certified miss was chased (rejected misses never reach the
    // simulator), one replay-duration sample each.
    let misses = responses
        .iter()
        .filter(|r| r.provenance == CacheProvenance::Miss)
        .count() as u64;
    let chased = responses
        .iter()
        .filter(|r| r.provenance == CacheProvenance::Miss && r.is_certified())
        .count() as u64;
    assert!(misses > 0);
    assert!(chased > 0);
    assert_eq!(
        snapshot
            .histogram_value(names::VERIFY_REPLAY_DURATION, &[])
            .count,
        chased
    );
    assert_eq!(
        snapshot.counter_total(names::ARENA_CACHE_HITS)
            + snapshot.counter_total(names::ARENA_CACHE_MISSES),
        chased,
        "every certified miss was chased through an arena LRU exactly once"
    );

    // (b) The span log: stage spans nest under request roots, one root per
    // response trace, and stage-span counts match the miss count (hits
    // never run the analyzer).
    let spans = service.obs().tracer().snapshot();
    assert_eq!(service.obs().tracer().dropped(), 0, "ring stayed bounded");
    let roots: Vec<_> = spans.iter().filter(|s| s.name == "request").collect();
    assert_eq!(roots.len(), BATCH, "one request root span per response");
    let root_traces: HashSet<u64> = roots.iter().map(|s| s.trace.0).collect();
    assert_eq!(
        root_traces, trace_ids,
        "request spans and wire responses agree on trace ids"
    );
    let routes_spans = spans.iter().filter(|s| s.name == "routes").count() as u64;
    assert_eq!(
        routes_spans, misses,
        "one analyzer pipeline (stage spans) per cache miss"
    );
    for span in spans.iter().filter(|s| s.name != "request") {
        let root = roots
            .iter()
            .find(|r| r.trace == span.trace)
            .unwrap_or_else(|| panic!("span {:?} has no request root", span.name));
        assert_eq!(
            span.parent,
            Some(root.span),
            "{} spans nest directly under their request root",
            span.name
        );
    }
}
