//! Replay parity: every way of replaying a certified plan reports the
//! same thing.
//!
//! Property one: over generated mixed-traffic workloads, replaying each
//! topology's certified plans in turn through one reused `SimArena`
//! equals replaying each plan on a fresh arena — every `VerifyReport`
//! equal — and agrees with a one-shot `verify_plan` routed over the
//! topology on `completed`, `cycles` and `words_delivered`, so a plan's
//! routes replay like the topology's. Arena reuse (reset-in-place pools,
//! queue-pool growth across replays) must never leak state between
//! replays.
//!
//! Property two: replaying every certified plan of a generated stream,
//! interleaved across topologies, one at a time through one `ArenaLru`
//! (`ArenaLru::replay`, the service's chase path) is **byte-identical**
//! to the sequential replays per topology — every `VerifyReport` equal —
//! whatever the LRU's arena count, so whether its arenas stay warm or
//! get evicted and rebuilt.
//!
//! Property three: the same holds for an interleaved mesh/torus/linear
//! batch on both the default and the capacity-0 latch simulator, where
//! some replays deadlock: `ReplayDeadlock` details match too, on a fresh
//! LRU and again on the warm one.

use std::sync::Arc;

use proptest::prelude::*;
use systolic::core::{AnalysisConfig, Analyzer, CommPlan, CompiledTopology, Lookahead};
use systolic::model::{Program, Topology};
use systolic::sim::{verify_plan, ArenaLru, QueueConfig, SimArena, SimConfig, VerifyReport};
use systolic::workloads::{fig5_p2, fig7, fig7_topology, traffic, TrafficConfig, TrafficItem};

/// One topology's certified plans, in stream order.
struct Batch {
    compiled: Arc<CompiledTopology>,
    items: Vec<(Program, Arc<CommPlan>)>,
}

/// Groups a traffic stream's certified plans by `(topology, config)`
/// fingerprint — mirroring the service's shared-compilation cache.
fn certified_batches(stream: &[TrafficItem]) -> Vec<Batch> {
    let mut batches: Vec<Batch> = Vec::new();
    for item in stream {
        let config = AnalysisConfig {
            queues_per_interval: item.queues_per_interval,
            ..Default::default()
        };
        let fingerprint = CompiledTopology::fingerprint_of(&item.topology, &config);
        let batch = match batches
            .iter()
            .position(|b| b.compiled.fingerprint() == fingerprint)
        {
            Some(pos) => &mut batches[pos],
            None => {
                let compiled = CompiledTopology::compile(&item.topology, &config).into_shared();
                batches.push(Batch {
                    compiled,
                    items: Vec::new(),
                });
                batches.last_mut().expect("just pushed")
            }
        };
        let analyzer = Analyzer::new(Arc::clone(&batch.compiled));
        if let Ok(analysis) = analyzer.analyze(&item.program) {
            batch
                .items
                .push((item.program.clone(), Arc::new(analysis.into_plan())));
        }
    }
    batches
}

/// Replays `items` in order through one fresh arena over `compiled`'s
/// topology: the sequential reference.
fn sequential_replays<'a>(
    compiled: &CompiledTopology,
    items: impl IntoIterator<Item = (&'a Program, &'a Arc<CommPlan>)>,
    sim: SimConfig,
) -> Vec<VerifyReport> {
    let mut arena = SimArena::new(compiled.topology(), sim);
    items
        .into_iter()
        .map(|(program, plan)| arena.verify(program, plan).expect("replay setup succeeds"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn arena_lru_replays_equal_sequential_replays_per_topology(
        seed in 0u64..1_000_000,
        count in 4usize..12,
        hot_percent in 0u32..101,
        arenas in 1usize..=3,
    ) {
        let config = TrafficConfig { hot_percent, ..Default::default() };
        let mut stream = traffic(&config, seed, count);
        stream.push(TrafficItem {
            name: "fig7/3".into(),
            program: fig7(3),
            topology: fig7_topology(),
            queues_per_interval: 1,
        });

        let sim = SimConfig::default();
        let batches = certified_batches(&stream);
        let sequential: Vec<Vec<VerifyReport>> = batches
            .iter()
            .map(|batch| {
                sequential_replays(
                    &batch.compiled,
                    batch.items.iter().map(|(program, plan)| (program, plan)),
                    sim,
                )
            })
            .collect();
        // Round-robin over the batches: consecutive replays alternate
        // topologies, so a small LRU evicts and a large one stays warm.
        let longest = batches.iter().map(|b| b.items.len()).max().unwrap_or(0);
        let mut lru = ArenaLru::with_budget(arenas);
        for round in 0..2 {
            for i in 0..longest {
                for (batch, expected) in batches.iter().zip(&sequential) {
                    let Some((program, plan)) = batch.items.get(i) else {
                        continue;
                    };
                    let replayed = lru
                        .replay(&batch.compiled, sim, program, plan)
                        .expect("replay setup succeeds");
                    prop_assert_eq!(&replayed, &expected[i], "arenas = {}, round = {}", arenas, round);
                }
            }
        }
    }

    #[test]
    fn reused_arena_equals_fresh_arenas_and_topology_routes(
        seed in 0u64..1_000_000,
        count in 4usize..12,
        hot_percent in 0u32..101,
    ) {
        let config = TrafficConfig { hot_percent, ..Default::default() };
        let mut stream = traffic(&config, seed, count);
        // Guarantee at least one certifiable item so every case verifies
        // something.
        stream.push(TrafficItem {
            name: "fig7/3".into(),
            program: fig7(3),
            topology: fig7_topology(),
            queues_per_interval: 1,
        });

        let sim = SimConfig::default();
        let mut verified = 0usize;
        for batch in certified_batches(&stream) {
            let topology = batch.compiled.topology();
            let reused = sequential_replays(
                &batch.compiled,
                batch.items.iter().map(|(program, plan)| (program, plan)),
                sim,
            );
            prop_assert_eq!(reused.len(), batch.items.len());
            for ((program, plan), through_arena) in batch.items.iter().zip(&reused) {
                let fresh = SimArena::new(topology, sim)
                    .verify(program, plan)
                    .expect("replay setup succeeds");
                prop_assert_eq!(through_arena, &fresh);
                let routed =
                    verify_plan(program, topology, plan, sim).expect("setup succeeds");
                prop_assert_eq!(through_arena.completed, routed.completed);
                prop_assert_eq!(through_arena.cycles, routed.cycles);
                prop_assert_eq!(through_arena.words_delivered, routed.words_delivered);
                // Certified plans complete (Theorem 1), so replays agree on
                // success, not just on failure shape.
                prop_assert!(through_arena.completed, "{} did not complete", program.num_cells());
                verified += 1;
            }
        }
        prop_assert!(verified >= 1, "stream produced no certified plans");
    }
}

/// A small cross-cell transfer program for `cells` cells: `W(A)*reps` at
/// cell 0, `R(A)*reps` at the last cell, routed over whatever fabric it
/// lands on.
fn transfer(cells: usize, reps: usize) -> Program {
    let last = cells - 1;
    systolic::model::parse_program(&format!(
        "cells {cells}\nmessage A: c0 -> c{last}\nprogram c0 {{ W(A)*{reps} }}\n\
         program c{last} {{ R(A)*{reps} }}\n",
    ))
    .expect("transfer parses")
}

/// The sequential reference: split the mixed batch by
/// compiled-topology fingerprint, replay each group in order through one
/// arena, and scatter the reports back to input order.
fn sequential_reference(
    items: &[(Program, Arc<CompiledTopology>, Arc<CommPlan>)],
    sim: SimConfig,
) -> Vec<VerifyReport> {
    let mut groups: Vec<(u128, Vec<usize>)> = Vec::new();
    for (i, (_, compiled, _)) in items.iter().enumerate() {
        let key = compiled.fingerprint();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, indices)) => indices.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    let mut reports: Vec<Option<VerifyReport>> = (0..items.len()).map(|_| None).collect();
    for (_, indices) in &groups {
        let compiled = &items[indices[0]].1;
        let group = sequential_replays(
            compiled,
            indices.iter().map(|&i| {
                let (program, _, plan) = &items[i];
                (program, plan)
            }),
            sim,
        );
        for (&i, report) in indices.iter().zip(group) {
            reports[i] = Some(report);
        }
    }
    reports
        .into_iter()
        .map(|r| r.expect("every item verified"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property three: an interleaved mesh/torus/linear batch (with
    /// fig5_p2 mixed in so latch replays deadlock) replayed item by item
    /// through one LRU of 1–4 arenas must be byte-identical to the
    /// per-fingerprint sequential reference — on both the default and the
    /// capacity-0 latch simulator, and again when the same LRU (warm
    /// arenas) replays the batch a second time.
    #[test]
    fn arena_lru_is_byte_identical_on_mixed_topologies(
        arenas in 1usize..=4,
        reps in 1usize..4,
    ) {
        let analysis = AnalysisConfig {
            queues_per_interval: 2,
            lookahead: Lookahead::Unbounded,
        };
        let topologies = [
            Topology::mesh(2, 2),
            Topology::torus(2, 2),
            Topology::linear(3),
            Topology::linear(2),
        ];
        let compiled: Vec<(Arc<CompiledTopology>, Analyzer)> = topologies
            .iter()
            .map(|topology| {
                let compiled = CompiledTopology::compile(topology, &analysis).into_shared();
                let analyzer = Analyzer::new(Arc::clone(&compiled));
                (compiled, analyzer)
            })
            .collect();

        // Round-robin interleave: consecutive items alternate topologies.
        // On linear:2, alternate plain transfers with fig5_p2, which
        // certifies under unbounded lookahead but deadlocks on latches.
        let mut items: Vec<(Program, Arc<CompiledTopology>, Arc<CommPlan>)> = Vec::new();
        for round in 0..3usize {
            for (i, (topology, (compiled, analyzer))) in
                topologies.iter().zip(&compiled).enumerate()
            {
                let program = if i == 3 && round % 2 == 0 {
                    fig5_p2()
                } else {
                    transfer(topology.num_cells(), reps + round)
                };
                let plan = Arc::new(
                    analyzer
                        .analyze(&program)
                        .expect("mixed batch certifies")
                        .into_plan(),
                );
                items.push((program, Arc::clone(compiled), plan));
            }
        }

        let latch = SimConfig {
            queues_per_interval: 2,
            queue: QueueConfig {
                capacity: 0,
                extension: false,
            },
            ..Default::default()
        };
        for sim in [SimConfig::default(), latch] {
            let expected = sequential_reference(&items, sim);
            let mut lru = ArenaLru::with_budget(arenas);
            for round in 0..2 {
                let got: Vec<VerifyReport> = items
                    .iter()
                    .map(|(program, compiled, plan)| {
                        lru.replay(compiled, sim, program, plan)
                            .expect("replay setup succeeds")
                    })
                    .collect();
                prop_assert_eq!(&got, &expected, "arenas = {}, round = {}", arenas, round);
                for (replayed, reference) in got.iter().zip(&expected) {
                    prop_assert_eq!(&replayed.deadlock, &reference.deadlock);
                }
            }
        }
        // The latch runs must actually exercise the deadlock path.
        let latched = sequential_reference(&items, latch);
        prop_assert!(
            latched.iter().any(|r| r.deadlock.is_some()),
            "fig5_p2 latch replays must deadlock"
        );
        prop_assert!(
            latched.iter().any(|r| r.completed),
            "plain transfers must complete"
        );
    }
}
