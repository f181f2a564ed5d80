//! Queue-count requirements implied by the compatible-assignment rules
//! (paper, Section 7) — Theorem 1's assumption (ii).
//!
//! "The simultaneous assignment rule implies that between two adjacent cells
//! the number of queues cannot be less than the number of competing messages
//! having the same label."

use std::collections::BTreeMap;

use systolic_model::{Hop, Interval};

use crate::{CompetingSets, CoreError, Labeling};

/// Per-hop and per-interval queue requirements for a labeled, routed
/// program.
///
/// * A directed hop needs as many queues as its largest group of equal-label
///   competing messages (they must be assigned simultaneously to separate
///   queues).
/// * An undirected interval needs the *sum* of its two directions'
///   requirements: messages flowing both ways can hold queues at the same
///   time, and a queue serves one message (hence one direction) at a time.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueueRequirements {
    per_hop: BTreeMap<Hop, usize>,
    per_interval: BTreeMap<Interval, usize>,
}

impl QueueRequirements {
    /// Computes requirements from competing sets and a labeling.
    #[must_use]
    pub fn compute(competing: &CompetingSets, labeling: &Labeling) -> Self {
        let mut per_hop = BTreeMap::new();
        let mut per_interval: BTreeMap<Interval, usize> = BTreeMap::new();
        for (hop, messages) in competing.iter() {
            let mut by_label: BTreeMap<crate::Label, usize> = BTreeMap::new();
            for &m in messages {
                *by_label.entry(labeling.label(m)).or_insert(0) += 1;
            }
            let need = by_label.values().copied().max().unwrap_or(0);
            per_hop.insert(hop, need);
            *per_interval.entry(hop.interval()).or_insert(0) += need;
        }
        QueueRequirements {
            per_hop,
            per_interval,
        }
    }

    /// Queues required on a directed hop (0 if nothing crosses it).
    #[must_use]
    pub fn on_hop(&self, hop: Hop) -> usize {
        self.per_hop.get(&hop).copied().unwrap_or(0)
    }

    /// Queues required on an undirected interval (both directions summed).
    #[must_use]
    pub fn on_interval(&self, interval: Interval) -> usize {
        self.per_interval.get(&interval).copied().unwrap_or(0)
    }

    /// The largest per-interval requirement — the minimum hardware queue
    /// count that makes the whole program feasible with a uniform pool.
    #[must_use]
    pub fn max_per_interval(&self) -> usize {
        self.per_interval.values().copied().max().unwrap_or(0)
    }

    /// Iterates `(hop, requirement)` over used hops.
    pub fn iter_hops(&self) -> impl Iterator<Item = (Hop, usize)> + '_ {
        self.per_hop.iter().map(|(h, n)| (*h, *n))
    }

    /// Iterates `(interval, requirement)` over used intervals.
    pub fn iter_intervals(&self) -> impl Iterator<Item = (Interval, usize)> + '_ {
        self.per_interval.iter().map(|(i, n)| (*i, *n))
    }

    /// Checks Theorem 1 assumption (ii) against a uniform hardware pool of
    /// `queues_per_interval` queues on every interval.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] naming the first interval crossing
    /// that is short of queues.
    pub fn check_feasible(&self, queues_per_interval: usize) -> Result<(), CoreError> {
        for (&interval, &required) in &self.per_interval {
            if required > queues_per_interval {
                let hop = self
                    .per_hop
                    .iter()
                    .filter(|(h, _)| h.interval() == interval)
                    .max_by_key(|(_, n)| **n)
                    .map(|(h, _)| *h)
                    .expect("interval has at least one hop");
                return Err(CoreError::Infeasible {
                    hop,
                    required,
                    available: queues_per_interval,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{label_messages, LookaheadLimits};
    use systolic_model::{parse_program, CellId, MessageRoutes, Topology};

    fn c(i: u32) -> CellId {
        CellId::new(i)
    }

    fn setup(text: &str, n: usize) -> (systolic_model::Program, CompetingSets, Labeling) {
        let p = parse_program(text).unwrap();
        let routes = MessageRoutes::compute(&p, &Topology::linear(n)).unwrap();
        let competing = CompetingSets::compute(&routes);
        let labeling = label_messages(&p, &LookaheadLimits::disabled(&p))
            .unwrap()
            .into_labeling();
        (p, competing, labeling)
    }

    #[test]
    fn fig7_needs_one_queue_per_hop() {
        // Labels 1, 3, 2: all distinct, so every same-label group is a
        // singleton and one queue per interval suffices — exactly the
        // paper's point that ordering, not capacity, fixes Fig. 7.
        let (_, competing, labeling) = setup(
            "cells 4\n\
             message A: c1 -> c2\n\
             message B: c2 -> c3\n\
             message C: c0 -> c3\n\
             program c0 { W(C)*3 }\n\
             program c1 { W(A)*4 }\n\
             program c2 { R(A)*4 W(B)*3 }\n\
             program c3 { R(C)*3 R(B)*3 }\n",
            4,
        );
        let req = QueueRequirements::compute(&competing, &labeling);
        assert_eq!(req.on_hop(Hop::new(c(2), c(3))), 1);
        assert_eq!(req.max_per_interval(), 1);
        assert!(req.check_feasible(1).is_ok());
    }

    #[test]
    fn fig9_interleaved_writes_need_two_queues() {
        // A and B are related => same label => simultaneous rule => 2 queues
        // between c0 and c1 (paper: "If there are two queues between Cl and
        // C2, then messages A and B can each be assigned to a separate queue
        // statically, and no deadlock will occur").
        let (_, competing, labeling) = setup(
            "cells 3\n\
             message A: c0 -> c1\n\
             message B: c0 -> c2\n\
             program c0 { W(A) W(B) W(A) W(A) W(B) W(B) W(A) }\n\
             program c1 { R(A)*4 }\n\
             program c2 { R(B)*3 }\n",
            3,
        );
        let req = QueueRequirements::compute(&competing, &labeling);
        assert_eq!(req.on_hop(Hop::new(c(0), c(1))), 2);
        assert_eq!(req.on_hop(Hop::new(c(1), c(2))), 1, "only B reaches c1->c2");
        assert!(req.check_feasible(1).is_err());
        assert!(req.check_feasible(2).is_ok());
    }

    #[test]
    fn infeasible_error_names_the_hot_hop() {
        let (_, competing, labeling) = setup(
            "cells 3\n\
             message A: c0 -> c1\n\
             message B: c0 -> c2\n\
             program c0 { W(A) W(B) W(A) W(A) W(B) W(B) W(A) }\n\
             program c1 { R(A)*4 }\n\
             program c2 { R(B)*3 }\n",
            3,
        );
        let req = QueueRequirements::compute(&competing, &labeling);
        match req.check_feasible(1).unwrap_err() {
            CoreError::Infeasible {
                hop,
                required,
                available,
            } => {
                assert_eq!(hop, Hop::new(c(0), c(1)));
                assert_eq!(required, 2);
                assert_eq!(available, 1);
            }
            other => panic!("expected Infeasible, got {other}"),
        }
    }

    #[test]
    fn opposite_directions_sum_on_the_interval() {
        let (_, competing, labeling) = setup(
            "cells 2\n\
             message X: c0 -> c1\n\
             message Y: c1 -> c0\n\
             program c0 { W(X) R(Y) }\n\
             program c1 { R(X) W(Y) }\n",
            2,
        );
        let req = QueueRequirements::compute(&competing, &labeling);
        assert_eq!(req.on_hop(Hop::new(c(0), c(1))), 1);
        assert_eq!(req.on_hop(Hop::new(c(1), c(0))), 1);
        assert_eq!(req.on_interval(Interval::new(c(0), c(1))), 2);
    }

    #[test]
    fn trivial_labeling_inflates_requirements() {
        // Same program as fig7 but with the trivial all-ones labeling:
        // B and C both cross c2-c3 with the same label => 2 queues needed
        // where the Section 6 labeling needed 1. This is the paper's
        // efficiency argument for nontrivial labelings.
        let p = parse_program(
            "cells 4\n\
             message A: c1 -> c2\n\
             message B: c2 -> c3\n\
             message C: c0 -> c3\n\
             program c0 { W(C)*3 }\n\
             program c1 { W(A)*4 }\n\
             program c2 { R(A)*4 W(B)*3 }\n\
             program c3 { R(C)*3 R(B)*3 }\n",
        )
        .unwrap();
        let routes = MessageRoutes::compute(&p, &Topology::linear(4)).unwrap();
        let competing = CompetingSets::compute(&routes);
        let req = QueueRequirements::compute(&competing, &Labeling::trivial(&p));
        assert_eq!(req.on_hop(Hop::new(c(2), c(3))), 2);
        assert!(req.check_feasible(1).is_err());
    }

    #[test]
    fn empty_program_has_zero_requirements() {
        let p = systolic_model::ProgramBuilder::new(2).build().unwrap();
        let routes = MessageRoutes::compute(&p, &Topology::linear(2)).unwrap();
        let competing = CompetingSets::compute(&routes);
        let req = QueueRequirements::compute(&competing, &Labeling::from_labels(vec![]));
        assert_eq!(req.max_per_interval(), 0);
        assert!(req.check_feasible(0).is_ok());
    }
}
