//! The communication plan: the certified artifact handed to a runtime.
//!
//! A [`CommPlan`] bundles everything Theorem 1 needs at run time: the
//! consistent labeling (for ordered/simultaneous assignment), the message
//! routes (which queues each message will ask for), the competing sets and
//! the queue requirements (assumption (ii)).

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use systolic_model::{Hop, Interval, MessageId, MessageRoutes, Route};

use crate::{CompetingSets, Label, Labeling, QueueRequirements};

/// A compiled deadlock-avoidance plan for one program on one topology.
///
/// Construct via [`Analyzer`](crate::Analyzer); the pieces can also be
/// assembled by hand for experiments (e.g. swapping in the trivial
/// labeling).
///
/// The parts sit behind [`Arc`]s, shared with the analysis stages that
/// computed them, so cloning a plan copies four pointers.
#[derive(Clone, Debug)]
pub struct CommPlan {
    labeling: Arc<Labeling>,
    routes: Arc<MessageRoutes>,
    competing: Arc<CompetingSets>,
    requirements: Arc<QueueRequirements>,
}

impl CommPlan {
    /// Assembles a plan from its parts.
    #[must_use]
    pub fn new(
        labeling: Labeling,
        routes: MessageRoutes,
        competing: CompetingSets,
        requirements: QueueRequirements,
    ) -> Self {
        Self::from_shared(
            Arc::new(labeling),
            Arc::new(routes),
            Arc::new(competing),
            Arc::new(requirements),
        )
    }

    /// Assembles a plan from parts other artifacts share.
    pub(crate) fn from_shared(
        labeling: Arc<Labeling>,
        routes: Arc<MessageRoutes>,
        competing: Arc<CompetingSets>,
        requirements: Arc<QueueRequirements>,
    ) -> Self {
        CommPlan {
            labeling,
            routes,
            competing,
            requirements,
        }
    }

    /// The message labeling.
    #[must_use]
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// The label of one message.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    #[must_use]
    pub fn label(&self, m: MessageId) -> Label {
        self.labeling.label(m)
    }

    /// All message routes.
    #[must_use]
    pub fn routes(&self) -> &MessageRoutes {
        &self.routes
    }

    /// The route of one message.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    #[must_use]
    pub fn route(&self, m: MessageId) -> &Route {
        self.routes.route(m)
    }

    /// The competing-message sets.
    #[must_use]
    pub fn competing(&self) -> &CompetingSets {
        &self.competing
    }

    /// The queue requirements (Theorem 1 assumption (ii) data).
    #[must_use]
    pub fn requirements(&self) -> &QueueRequirements {
        &self.requirements
    }

    /// Per-direction sub-pools of queue indices on each interval.
    ///
    /// The ordered/simultaneous assignment rules only constrain
    /// *competing* (same-direction) messages; two opposite-direction
    /// messages are invisible to each other under the rules, yet they
    /// would share the physical pool — and can then hold-and-wait across
    /// intervals into a deadlock the rules never see. Theorem 1's
    /// compatibility clause ("…or can be guaranteed to secure a queue in
    /// the future") demands each competing set its own guaranteed supply,
    /// so each direction draws from its own range of queue indices, sized
    /// by this plan's per-hop requirement. The simulator's compatible
    /// policy reads its partitions from this one method, and both
    /// runtimes — the cycle-stepped simulator and the threaded
    /// controller — grant through that one policy, so they share the
    /// rules as well as the partitions.
    #[must_use]
    pub fn direction_queue_ranges(&self) -> BTreeMap<Hop, Range<usize>> {
        let mut ranges = BTreeMap::new();
        let mut next_start: BTreeMap<Interval, usize> = BTreeMap::new();
        for (hop, _) in self.competing.iter() {
            let need = self.requirements.on_hop(hop);
            let start = next_start.entry(hop.interval()).or_insert(0);
            ranges.insert(hop, *start..*start + need);
            *start += need;
        }
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{label_messages, LookaheadLimits};
    use systolic_model::{parse_program, Topology};

    #[test]
    fn plan_exposes_its_parts() {
        let p = parse_program(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n",
        )
        .unwrap();
        let routes = MessageRoutes::compute(&p, &Topology::linear(2)).unwrap();
        let competing = CompetingSets::compute(&routes);
        let labeling = label_messages(&p, &LookaheadLimits::disabled(&p))
            .unwrap()
            .into_labeling();
        let requirements = QueueRequirements::compute(&competing, &labeling);
        let plan = CommPlan::new(labeling, routes, competing, requirements);

        let a = p.message_id("A").unwrap();
        assert_eq!(plan.label(a), Label::integer(1));
        assert_eq!(plan.route(a).num_hops(), 1);
        assert_eq!(plan.requirements().max_per_interval(), 1);
        assert_eq!(plan.competing().len(), 1);
        assert_eq!(plan.labeling().len(), 1);
        assert_eq!(plan.routes().len(), 1);
    }
}
