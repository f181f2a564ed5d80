//! The `systolicd --summary` table and `--summary-json` object, rendered
//! from one [`RegistrySnapshot`] — the registry that `--metrics-file` and
//! the `metrics` wire op export too, so the three cannot disagree.
//!
//! The request, plan-cache, latency and run-total rows always appear.
//! Every other block appears once its counters are non-zero: arena rows
//! after the first chase, one `verify[spec]` row per chased topology,
//! incremental rows after the first edit, and snapshot rows after the
//! first load, rejected load or save.
//!
//! Latency percentiles are log2-bucket histogram estimates: the inclusive
//! upper bound of the bucket holding the ranked sample, capped by the
//! exact max, so they overestimate by less than 2× and never
//! underestimate. Count, mean and max are exact.

use std::collections::BTreeMap;

use systolic_obs::{names, RegistrySnapshot};
use systolic_report::Table;

use crate::{ArenaCacheStats, CacheStats, Json};

/// One run's own totals: the summary values the registry does not hold.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunTotals {
    /// Input lines answered `status:"invalid"`.
    pub invalid_lines: u64,
    /// Wall time of the run, in seconds.
    pub wall_seconds: f64,
    /// Requests served per wall-clock second.
    pub throughput_per_sec: f64,
}

/// Renders the summary as a two-column `metric`/`value` table, with the
/// run totals last. `budget` is the arena count per pooled arena LRU, a
/// config value the registry does not hold either.
#[must_use]
pub fn summary_table(snapshot: &RegistrySnapshot, budget: usize, run: &RunTotals) -> Table {
    let count = |name| snapshot.counter_total(name);
    let gauge = |name| gauge(snapshot, name);
    let latency = snapshot.histogram_value(names::SERVICE_HANDLE_DURATION, &[]);
    let quantile = |q| format!("{:.1}", latency.quantile(q) as f64);
    let percent = |rate: f64| format!("{:.1}%", rate * 100.0);
    let cache = plan_cache(snapshot);
    let mut t = Table::new(["metric", "value"]);
    let mut row = |label: &str, value: &dyn std::fmt::Display| {
        t.row([label.to_owned(), value.to_string()]);
    };
    row("requests", &latency.count);
    row("cache hits", &cache.hits);
    row("cache misses", &cache.misses);
    row("cache evictions", &cache.evictions);
    row("cache entries", &cache.entries);
    row("hit rate", &percent(cache.hit_rate()));
    row("latency mean (us)", &format!("{:.1}", latency.mean()));
    row("latency p50 (us)", &quantile(0.5));
    row("latency p99 (us)", &quantile(0.99));
    row("latency max (us)", &latency.max);

    let arenas = ArenaCacheStats::from_registry(snapshot);
    if arenas.hits + arenas.misses > 0 {
        row("arena cache hits", &arenas.hits);
        row("arena cache misses", &arenas.misses);
        row("arena cache evictions", &arenas.evictions);
        row("arena hit rate", &percent(arenas.hit_rate()));
        row("arena cache budget", &format!("{budget} arenas/thread"));
    }

    // Spec → [ok, blocked], folded from the outcome-labeled series.
    let mut verify: BTreeMap<&str, [u64; 2]> = BTreeMap::new();
    for (key, value) in &snapshot.counters {
        if key.name != names::VERIFY_OUTCOMES {
            continue;
        }
        let label = |name: &str| {
            key.labels
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        if let (Some(spec), Some(outcome)) = (label("topology"), label("outcome")) {
            verify.entry(spec).or_default()[usize::from(outcome != "ok")] += value;
        }
    }
    for (spec, [ok, blocked]) in verify {
        row(
            &format!("verify[{spec}]"),
            &format!("{ok} ok / {blocked} blocked"),
        );
    }

    let edits = count(names::INCREMENTAL_EDITS);
    if edits > 0 {
        row("incremental edits", &edits);
        for (label, name) in [
            ("incremental reuse hits", names::INCREMENTAL_HITS),
            ("incremental fallbacks", names::INCREMENTAL_FALLBACKS),
            ("incremental dirty cells", names::INCREMENTAL_DIRTY_CELLS),
        ] {
            row(label, &count(name));
        }
        row("incremental sessions", &gauge(names::INCREMENTAL_SESSIONS));
        row(
            "incremental session evictions",
            &count(names::INCREMENTAL_SESSION_EVICTIONS),
        );
    }

    if let Some(loads) = snapshot_loads(snapshot) {
        row("snapshot loads", &loads);
        for (label, name) in [
            ("snapshot plans restored", names::SNAPSHOT_LOADED_PLANS),
            ("snapshot entries dropped", names::SNAPSHOT_DROPPED),
            ("snapshot loads rejected", names::SNAPSHOT_LOAD_REJECTED),
            ("snapshot saves", names::SNAPSHOT_SAVES),
        ] {
            row(label, &count(name));
        }
        row(
            "snapshot last save bytes",
            &gauge(names::SNAPSHOT_SAVE_BYTES),
        );
        row("snapshot warm hits", &count(names::SNAPSHOT_WARM_HITS));
    }
    row("wall time (s)", &format!("{:.3}", run.wall_seconds));
    row(
        "throughput (req/s)",
        &format!("{:.0}", run.throughput_per_sec),
    );
    row("invalid lines", &run.invalid_lines);
    t
}

/// The summary's JSON members, in a fixed order: `requests`, the run
/// totals, the plan cache, latency, arena and `hw_threads` members, then
/// the `snapshot_*` members once their block is active.
#[must_use]
pub fn summary_json(snapshot: &RegistrySnapshot, run: &RunTotals) -> Vec<(String, Json)> {
    let count = |name| snapshot.counter_total(name) as f64;
    let latency = snapshot.histogram_value(names::SERVICE_HANDLE_DURATION, &[]);
    let cache = plan_cache(snapshot);
    let arenas = ArenaCacheStats::from_registry(snapshot);
    let mut members = vec![
        ("requests", latency.count as f64),
        ("invalid_lines", run.invalid_lines as f64),
        ("wall_seconds", run.wall_seconds),
        ("throughput_per_sec", run.throughput_per_sec),
        ("cache_hits", cache.hits as f64),
        ("cache_misses", cache.misses as f64),
        ("cache_hit_rate", cache.hit_rate()),
        ("latency_mean_us", latency.mean()),
        ("latency_p50_us", latency.quantile(0.5) as f64),
        ("latency_p99_us", latency.quantile(0.99) as f64),
        ("latency_max_us", latency.max as f64),
        ("arena_hits", arenas.hits as f64),
        ("arena_misses", arenas.misses as f64),
        ("arena_evictions", arenas.evictions as f64),
        ("hw_threads", gauge(snapshot, names::HW_THREADS) as f64),
    ];
    if let Some(loads) = snapshot_loads(snapshot) {
        members.push(("snapshot_loads", loads as f64));
        for (key, name) in [
            ("snapshot_plans_restored", names::SNAPSHOT_LOADED_PLANS),
            ("snapshot_dropped", names::SNAPSHOT_DROPPED),
            ("snapshot_loads_rejected", names::SNAPSHOT_LOAD_REJECTED),
            ("snapshot_saves", names::SNAPSHOT_SAVES),
            ("snapshot_warm_hits", names::SNAPSHOT_WARM_HITS),
        ] {
            members.push((key, count(name)));
        }
    }
    members
        .into_iter()
        .map(|(key, value)| (key.to_owned(), Json::Num(value)))
        .collect()
}

/// The plan-cache counters
/// [`AnalysisService::registry_snapshot`](crate::AnalysisService::registry_snapshot)
/// mirrors into gauges (all but `insertions`).
fn plan_cache(snapshot: &RegistrySnapshot) -> CacheStats {
    CacheStats {
        hits: gauge(snapshot, names::PLAN_CACHE_HITS),
        misses: gauge(snapshot, names::PLAN_CACHE_MISSES),
        evictions: gauge(snapshot, names::PLAN_CACHE_EVICTIONS),
        entries: usize::try_from(gauge(snapshot, names::PLAN_CACHE_ENTRIES)).unwrap_or(0),
        ..CacheStats::default()
    }
}

/// Successful snapshot loads (one load-duration sample each), or `None`
/// while the service has neither loaded, rejected a load, nor saved.
fn snapshot_loads(snapshot: &RegistrySnapshot) -> Option<u64> {
    let loads = snapshot
        .histogram_value(names::SNAPSHOT_LOAD_DURATION, &[])
        .count;
    let active = loads
        + snapshot.counter_total(names::SNAPSHOT_LOAD_REJECTED)
        + snapshot.counter_total(names::SNAPSHOT_SAVES)
        > 0;
    active.then_some(loads)
}

fn gauge(snapshot: &RegistrySnapshot, name: &str) -> u64 {
    u64::try_from(snapshot.gauge_value(name, &[])).unwrap_or(0)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use systolic_obs::Registry;

    /// A rendered table read back as `label = value` rows.
    pub(crate) fn rows(table: &Table) -> Vec<String> {
        let text = table.to_text();
        let rows = text
            .lines()
            .skip(2)
            .map(|line| match line.split_once("  ") {
                Some((label, value)) => format!("{label} = {}", value.trim()),
                None => line.to_owned(),
            });
        rows.collect()
    }

    /// A registry with every block active. Series are registered out of
    /// spec order, and drops and fallbacks span several reasons.
    fn populated() -> Registry {
        let registry = Registry::new();
        for (name, value) in [
            (names::PLAN_CACHE_HITS, 3),
            (names::PLAN_CACHE_MISSES, 1),
            (names::PLAN_CACHE_ENTRIES, 1),
            (names::HW_THREADS, 2),
            (names::INCREMENTAL_SESSIONS, 1),
            (names::SNAPSHOT_SAVE_BYTES, 512),
        ] {
            registry.gauge(name).set(value);
        }
        for (name, value) in [
            (names::ARENA_CACHE_HITS, 3),
            (names::ARENA_CACHE_MISSES, 1),
            (names::INCREMENTAL_EDITS, 2),
            (names::INCREMENTAL_HITS, 1),
            (names::INCREMENTAL_DIRTY_CELLS, 5),
            (names::SNAPSHOT_LOADED_PLANS, 5),
            (names::SNAPSHOT_LOAD_REJECTED, 1),
            (names::SNAPSHOT_SAVES, 1),
            (names::SNAPSHOT_WARM_HITS, 7),
        ] {
            registry.counter(name).add(value);
        }
        for (spec, outcome, value) in [
            ("ring:3", "ok", 2),
            ("linear:2", "blocked", 1),
            ("mesh:2x2", "ok", 1),
            ("linear:2", "ok", 4),
        ] {
            let labels = [("topology", spec), ("outcome", outcome)];
            registry
                .counter_with(names::VERIFY_OUTCOMES, &labels)
                .add(value);
        }
        for (name, reason, value) in [
            (names::INCREMENTAL_FALLBACKS, "dirty-ratio", 1),
            (names::INCREMENTAL_FALLBACKS, "topology", 1),
            (names::SNAPSHOT_DROPPED, "refingerprint", 1),
            (names::SNAPSHOT_DROPPED, "export-missing-seed", 2),
        ] {
            registry
                .counter_with(name, &[("reason", reason)])
                .add(value);
        }
        for (name, samples) in [
            (names::SERVICE_HANDLE_DURATION, &[2, 3, 3, 40][..]),
            // `snapshot loads` counts load-duration samples.
            (names::SNAPSHOT_LOAD_DURATION, &[1_000, 20]),
        ] {
            for &sample in samples {
                registry.histogram(name).record(sample);
            }
        }
        registry
    }

    const RUN: RunTotals = RunTotals {
        invalid_lines: 1,
        wall_seconds: 1.5,
        throughput_per_sec: 2.75,
    };

    #[test]
    fn every_block_renders_from_its_series_in_order() {
        let snapshot = populated().snapshot();
        let table = summary_table(&snapshot, 4, &RUN);
        assert_eq!(
            table.to_text(),
            "\
metric                         value
-----------------------------  ----------------
requests                       4
cache hits                     3
cache misses                   1
cache evictions                0
cache entries                  1
hit rate                       75.0%
latency mean (us)              12.0
latency p50 (us)               3.0
latency p99 (us)               40.0
latency max (us)               40
arena cache hits               3
arena cache misses             1
arena cache evictions          0
arena hit rate                 75.0%
arena cache budget             4 arenas/thread
verify[linear:2]               4 ok / 1 blocked
verify[mesh:2x2]               1 ok / 0 blocked
verify[ring:3]                 2 ok / 0 blocked
incremental edits              2
incremental reuse hits         1
incremental fallbacks          2
incremental dirty cells        5
incremental sessions           1
incremental session evictions  0
snapshot loads                 2
snapshot plans restored        5
snapshot entries dropped       3
snapshot loads rejected        1
snapshot saves                 1
snapshot last save bytes       512
snapshot warm hits             7
wall time (s)                  1.500
throughput (req/s)             3
invalid lines                  1
"
        );
    }

    #[test]
    fn summary_json_keys_and_order_are_pinned() {
        let members = summary_json(&populated().snapshot(), &RUN);
        assert_eq!(
            Json::Obj(members).to_string(),
            concat!(
                r#"{"requests":4,"invalid_lines":1,"wall_seconds":1.5,"throughput_per_sec":2.75,"#,
                r#""cache_hits":3,"cache_misses":1,"cache_hit_rate":0.75,"#,
                r#""latency_mean_us":12,"latency_p50_us":3,"latency_p99_us":40,"#,
                r#""latency_max_us":40,"arena_hits":3,"arena_misses":1,"arena_evictions":0,"#,
                r#""hw_threads":2,"snapshot_loads":2,"#,
                r#""snapshot_plans_restored":5,"snapshot_dropped":3,"#,
                r#""snapshot_loads_rejected":1,"snapshot_saves":1,"snapshot_warm_hits":7}"#,
            )
        );
    }

    #[test]
    fn blocks_appear_exactly_when_their_counters_are_nonzero() {
        // Instruments a service resolves up front but has not bumped yet
        // open no block.
        let registry = Registry::new();
        for name in [names::ARENA_CACHE_HITS, names::SNAPSHOT_WARM_HITS] {
            let _ = registry.counter(name);
        }
        let _ = registry.histogram(names::SNAPSHOT_LOAD_DURATION);
        let sizes = |registry: &Registry| {
            let snapshot = registry.snapshot();
            let table = summary_table(&snapshot, 1, &RUN);
            (rows(&table).len(), summary_json(&snapshot, &RUN).len())
        };
        assert_eq!(sizes(&registry), (13, 15));
        for (series, block) in [
            (names::ARENA_CACHE_MISSES, (5, 0)),
            (names::INCREMENTAL_EDITS, (6, 0)),
            (names::SNAPSHOT_SAVES, (7, 6)),
            (names::SNAPSHOT_LOAD_REJECTED, (7, 6)),
        ] {
            let registry = Registry::new();
            registry.counter(series).inc();
            assert_eq!(sizes(&registry), (13 + block.0, 15 + block.1), "{series}");
        }
    }
}
