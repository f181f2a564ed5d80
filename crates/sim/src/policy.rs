//! Runtime queue-assignment policies (paper, Section 7).
//!
//! * [`StaticPolicy`] — every message gets a dedicated queue before
//!   execution; "automatically compatible for any consistent message
//!   labeling".
//! * [`CompatiblePolicy`] — the paper's dynamic scheme: the **ordered
//!   assignment** rule (a message is granted only after every smaller-label
//!   competitor has been granted) plus the **simultaneous assignment** rule
//!   (equal-label competitors receive separate queues in one step,
//!   reserving queues for members that have not arrived yet).
//! * [`FifoPolicy`] — the strawman from Figs. 7–9: strict first-come
//!   first-served, no regard for labels. Deadlocks on the paper's examples.
//! * [`GreedyPolicy`] — grants any free queue to any requester, allowing
//!   overtaking; equally label-blind.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;

use systolic_core::{CommPlan, Label};
use systolic_model::{Hop, Interval, MessageId};

use crate::QueuePools;

/// A pending request: `message` wants a queue to cross `hop`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Request {
    /// The requesting message.
    pub message: MessageId,
    /// The directed interval crossing it needs a queue for.
    pub hop: Hop,
    /// Monotonic sequence number of when the request was first raised.
    pub born: u64,
}

/// A policy decision: grant `message` queue `queue` on `hop.interval()`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Grant {
    /// The message receiving the queue.
    pub message: MessageId,
    /// The crossing the grant is for.
    pub hop: Hop,
    /// Queue index within the interval's pool.
    pub queue: usize,
}

/// A runtime queue-assignment policy.
///
/// The runtime passes the outstanding requests (oldest first) and a
/// read-only borrow of its [`QueuePools`]; the policy returns the grants to
/// apply. A policy must only grant free queues and must not grant one
/// queue twice in a single call.
///
/// Both runtimes drive the same policy objects and feed them from one
/// [`PendingRequests`](crate::PendingRequests) list, whose
/// [`grant_pass`](crate::PendingRequests::grant_pass) makes the call. The
/// simulator runs one pass per cycle; the threaded runtime's controller
/// runs passes after every request and every release, repeating until a
/// pass grants nothing. Policies are `Send` so that controller can hold
/// one behind its lock.
pub trait AssignmentPolicy: std::fmt::Debug + Send {
    /// Decides grants for the outstanding `requests`.
    fn grant(&mut self, pools: &QueuePools, requests: &[Request]) -> Vec<Grant>;

    /// Short human-readable name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Called by the runtime at the start of every run, so stateful
    /// policies reset alongside the arena ([`crate::SimArena`] reuses one
    /// policy across replays). Stateless policies need no override;
    /// [`FifoPolicy`] clears its arrival lines here and
    /// [`CompatiblePolicy`] rewinds its label cursors.
    fn begin_run(&mut self) {}
}

/// Static assignment: all queues are dedicated before execution.
///
/// Requires every interval to have at least as many queues as messages
/// crossing it (in both directions); the constructor checks this.
#[derive(Clone, Debug)]
pub struct StaticPolicy {
    table: BTreeMap<(MessageId, Interval), usize>,
}

impl StaticPolicy {
    /// Precomputes dedicated queues from a plan's routes.
    ///
    /// # Errors
    ///
    /// Returns the offending `(interval, needed, available)` if some
    /// interval has more crossing messages than `queues_per_interval`.
    pub fn new(
        plan: &CommPlan,
        queues_per_interval: usize,
    ) -> Result<Self, (Interval, usize, usize)> {
        let mut used: BTreeMap<Interval, usize> = BTreeMap::new();
        let mut table = BTreeMap::new();
        for (m, route) in plan.routes().iter() {
            for hop in route.hops() {
                let slot = used.entry(hop.interval()).or_insert(0);
                if *slot >= queues_per_interval {
                    return Err((hop.interval(), *slot + 1, queues_per_interval));
                }
                table.insert((m, hop.interval()), *slot);
                *slot += 1;
            }
        }
        Ok(StaticPolicy { table })
    }

    /// The dedicated queue of `message` on `interval`, if it crosses it.
    #[must_use]
    pub fn queue_of(&self, message: MessageId, interval: Interval) -> Option<usize> {
        self.table.get(&(message, interval)).copied()
    }
}

impl AssignmentPolicy for StaticPolicy {
    fn grant(&mut self, _pools: &QueuePools, requests: &[Request]) -> Vec<Grant> {
        // Dedicated queues are free by construction whenever requested.
        requests
            .iter()
            .map(|r| Grant {
                message: r.message,
                hop: r.hop,
                queue: self.table[&(r.message, r.hop.interval())],
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "static"
    }
}

/// Strict first-come-first-served: requests queue up per interval; the head
/// request blocks everything behind it until a queue frees up.
#[derive(Clone, Debug, Default)]
pub struct FifoPolicy {
    /// Arrival order per interval (message, hop) — oldest first.
    waiting: BTreeMap<Interval, VecDeque<(MessageId, Hop)>>,
    /// Requests already enqueued (so we enqueue each only once).
    seen: BTreeMap<(MessageId, Interval), ()>,
}

impl FifoPolicy {
    /// Creates an empty FIFO policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl AssignmentPolicy for FifoPolicy {
    fn grant(&mut self, pools: &QueuePools, requests: &[Request]) -> Vec<Grant> {
        // Requests arrive oldest-first; enqueue new ones.
        for r in requests {
            let key = (r.message, r.hop.interval());
            if self.seen.insert(key, ()).is_none() {
                self.waiting
                    .entry(r.hop.interval())
                    .or_default()
                    .push_back((r.message, r.hop));
            }
        }
        let mut grants = Vec::new();
        for (&interval, queue_line) in &mut self.waiting {
            let mut free = pools.free_queues(interval);
            while let Some(&(m, hop)) = queue_line.front() {
                let Some(q) = free.pop() else { break };
                grants.push(Grant {
                    message: m,
                    hop,
                    queue: q,
                });
                queue_line.pop_front();
                self.seen.remove(&(m, interval));
            }
        }
        grants
    }

    fn name(&self) -> &'static str {
        "fifo"
    }

    fn begin_run(&mut self) {
        self.waiting.clear();
        self.seen.clear();
    }
}

/// Label-blind free-for-all: any requester may take any free queue; later
/// requests overtake blocked earlier ones.
#[derive(Clone, Debug, Default)]
pub struct GreedyPolicy;

impl GreedyPolicy {
    /// Creates the greedy policy.
    #[must_use]
    pub fn new() -> Self {
        GreedyPolicy
    }
}

impl AssignmentPolicy for GreedyPolicy {
    fn grant(&mut self, pools: &QueuePools, requests: &[Request]) -> Vec<Grant> {
        let mut free: BTreeMap<Interval, Vec<usize>> = BTreeMap::new();
        let mut grants = Vec::new();
        for r in requests {
            let interval = r.hop.interval();
            let slots = free
                .entry(interval)
                .or_insert_with(|| pools.free_queues(interval));
            if let Some(q) = slots.pop() {
                grants.push(Grant {
                    message: r.message,
                    hop: r.hop,
                    queue: q,
                });
            }
        }
        grants
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

/// The paper's compatible dynamic assignment (Section 7):
///
/// 1. **Ordered assignment** — a message is granted a queue on an interval
///    only after every competing message with a *smaller* label has been
///    granted one there (now or in the past);
/// 2. **Simultaneous assignment** — all competing messages with the *same*
///    label are granted separate queues in one step, as soon as enough
///    queues are free; queues are **reserved** for group members that have
///    not requested yet ("a cell can use some reservation scheme to reserve
///    a queue to a message prior to the message's arrival").
///
/// Each hop's competitors are kept in label order with a cursor at the
/// first one not yet granted, so the ordered rule is one comparison and
/// the simultaneous group is the ungranted rest of the cursor's label run.
/// A cursor only moves forward: it assumes the grant history only grows
/// within a run, and [`begin_run`](AssignmentPolicy::begin_run) rewinds it.
#[derive(Clone, Debug)]
pub struct CompatiblePolicy {
    /// Shared, not cloned: a batch of replays (and the serving layer's
    /// cache) hand the same certified plan to many policies.
    plan: Arc<CommPlan>,
    /// Every hop with competitors, sorted; a hop's position indexes the
    /// per-hop tables below.
    hops: Vec<Hop>,
    /// Per hop: the queue indices reserved for its direction on its
    /// interval — see [`CommPlan::direction_queue_ranges`] for the
    /// starvation rationale.
    ranges: Vec<Range<usize>>,
    /// Hop `h`'s competitors are `competitors[offsets[h]..offsets[h + 1]]`.
    offsets: Vec<usize>,
    /// Competitors with their labels, sorted by label per hop; a stable
    /// sort keeps declaration order within a label.
    competitors: Vec<(Label, MessageId)>,
    /// Per hop: the position in `competitors` of the first competitor not
    /// yet granted on the hop's interval; all before it have been granted.
    cursors: Vec<usize>,
    // Per-call scratch, reused across calls.
    /// `(message, interval index)` granted in the current call.
    granted_now: Vec<(MessageId, usize)>,
    /// `(interval index, queue)` granted in the current call.
    taken: Vec<(usize, usize)>,
    group: Vec<MessageId>,
    picked: Vec<usize>,
}

impl CompatiblePolicy {
    /// Builds the policy from the analysis plan (labels + competing sets).
    ///
    /// Accepts an owned [`CommPlan`] or a shared [`Arc<CommPlan>`]; batch
    /// callers pass `Arc` clones so the plan is borrowed, never deep-cloned.
    #[must_use]
    pub fn new(plan: impl Into<Arc<CommPlan>>) -> Self {
        let plan = plan.into();
        let mut hops = Vec::new();
        let mut ranges = Vec::new();
        let mut offsets = vec![0];
        let mut competitors = Vec::new();
        for (hop, range) in plan.direction_queue_ranges() {
            let start = competitors.len();
            competitors.extend(
                plan.competing()
                    .on_hop(hop)
                    .iter()
                    .map(|&m| (plan.label(m), m)),
            );
            competitors[start..].sort_by_key(|&(label, _)| label);
            hops.push(hop);
            ranges.push(range);
            offsets.push(competitors.len());
        }
        let cursors = offsets[..hops.len()].to_vec();
        CompatiblePolicy {
            plan,
            hops,
            ranges,
            offsets,
            competitors,
            cursors,
            granted_now: Vec::new(),
            taken: Vec::new(),
            group: Vec::new(),
            picked: Vec::new(),
        }
    }

    /// The plan driving the policy.
    #[must_use]
    pub fn plan(&self) -> &CommPlan {
        &self.plan
    }
}

impl AssignmentPolicy for CompatiblePolicy {
    fn grant(&mut self, pools: &QueuePools, requests: &[Request]) -> Vec<Grant> {
        let mut grants: Vec<Grant> = Vec::new();
        self.granted_now.clear();
        self.taken.clear();
        for r in requests {
            // A hop without competitors or an interval without a pool
            // grants nothing.
            let (Ok(h), Some(iv)) = (
                self.hops.binary_search(&r.hop),
                pools.interval_index(r.hop.interval()),
            ) else {
                continue;
            };
            let granted = |m: MessageId, now: &[(MessageId, usize)]| {
                pools.has_granted_at(m, iv) || now.contains(&(m, iv))
            };
            if granted(r.message, &self.granted_now) {
                continue; // reservation already made for this message
            }
            let end = self.offsets[h + 1];
            let mut cursor = self.cursors[h];
            while cursor < end && pools.has_granted_at(self.competitors[cursor].1, iv) {
                cursor += 1;
            }
            self.cursors[h] = cursor;
            while cursor < end && granted(self.competitors[cursor].1, &self.granted_now) {
                cursor += 1;
            }

            // Ordered rule: the smallest ungranted label goes first. (A
            // larger one means the requester does not compete here.)
            let label = self.plan.label(r.message);
            if cursor == end || self.competitors[cursor].0 != label {
                continue;
            }

            // Simultaneous rule: the ungranted rest of the label run is
            // granted (or reserved) together, from the top of the range.
            self.group.clear();
            for &(other_label, other) in &self.competitors[cursor..end] {
                if other_label != label {
                    break;
                }
                if !granted(other, &self.granted_now) {
                    self.group.push(other);
                }
            }
            self.picked.clear();
            for q in self.ranges[h].clone().rev() {
                if self.picked.len() == self.group.len() {
                    break;
                }
                if pools.is_free_at(iv, q) && !self.taken.contains(&(iv, q)) {
                    self.picked.push(q);
                }
            }
            if self.picked.len() < self.group.len() {
                continue; // wait until enough queues are simultaneously free
            }
            for (&member, &q) in self.group.iter().zip(&self.picked) {
                self.taken.push((iv, q));
                self.granted_now.push((member, iv));
                grants.push(Grant {
                    message: member,
                    hop: r.hop,
                    queue: q,
                });
            }
        }
        grants
    }

    fn name(&self) -> &'static str {
        "compatible"
    }

    fn begin_run(&mut self) {
        let hops = self.hops.len();
        self.cursors.copy_from_slice(&self.offsets[..hops]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QueueConfig, QueuePools};
    use systolic_core::{AnalysisConfig, Analyzer};
    use systolic_model::{CellId, Topology};

    fn hop01() -> Hop {
        Hop::new(CellId::new(0), CellId::new(1))
    }

    fn req(m: u32, hop: Hop, born: u64) -> Request {
        Request {
            message: MessageId::new(m),
            hop,
            born,
        }
    }

    #[test]
    fn fifo_respects_arrival_order() {
        let pools = QueuePools::uniform([hop01().interval()], 1, QueueConfig::default());
        let mut policy = FifoPolicy::new();
        // Two competitors, one queue: only the older request is granted.
        let grants = policy.grant(&pools, &[req(1, hop01(), 5), req(0, hop01(), 9)]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].message, MessageId::new(1));
    }

    #[test]
    fn greedy_grants_whatever_is_free() {
        let pools = QueuePools::uniform([hop01().interval()], 2, QueueConfig::default());
        let mut policy = GreedyPolicy::new();
        let grants = policy.grant(&pools, &[req(0, hop01(), 0), req(1, hop01(), 1)]);
        assert_eq!(grants.len(), 2);
        let queues: Vec<usize> = grants.iter().map(|g| g.queue).collect();
        assert_ne!(queues[0], queues[1], "no double-granting one queue");
    }

    fn fig7_plan() -> CommPlan {
        let p = systolic_workloads::fig7(3);
        Analyzer::for_topology(&Topology::linear(4), &AnalysisConfig::default())
            .analyze(&p)
            .unwrap()
            .into_plan()
    }

    #[test]
    fn compatible_blocks_larger_label_until_smaller_granted() {
        let plan = fig7_plan();
        // Hop c2->c3 carries B (label 3) and C (label 2).
        let hop = Hop::new(CellId::new(2), CellId::new(3));
        let pools = QueuePools::uniform([hop.interval()], 1, QueueConfig::default());
        let mut policy = CompatiblePolicy::new(plan);

        // B requests first (the Fig. 7 race): must NOT be granted while C
        // (smaller label) has never been granted here.
        let b = MessageId::new(1);
        let c = MessageId::new(2);
        let grants = policy.grant(
            &pools,
            &[Request {
                message: b,
                hop,
                born: 0,
            }],
        );
        assert!(grants.is_empty(), "B must wait for C");

        // C requests: granted immediately (smallest label present).
        let grants = policy.grant(
            &pools,
            &[Request {
                message: c,
                hop,
                born: 1,
            }],
        );
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].message, c);
    }

    #[test]
    fn compatible_grants_b_after_c_has_history() {
        let plan = fig7_plan();
        let hop = Hop::new(CellId::new(2), CellId::new(3));
        let mut pools = QueuePools::uniform([hop.interval()], 1, QueueConfig::default());
        let b = MessageId::new(1);
        let c = MessageId::new(2);

        // C held the queue and released it (all words passed).
        pools.grant(c, hop, 0);
        pools.release(c, hop.interval());

        let mut policy = CompatiblePolicy::new(plan);
        let grants = policy.grant(
            &pools,
            &[Request {
                message: b,
                hop,
                born: 7,
            }],
        );
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].message, b);
    }

    #[test]
    fn compatible_reserves_whole_equal_label_group() {
        // Fig. 9: A and B share a label on hop c0->c1.
        let p = systolic_workloads::fig9();
        let config = AnalysisConfig {
            queues_per_interval: 2,
            ..Default::default()
        };
        let plan = Analyzer::for_topology(&Topology::linear(3), &config)
            .analyze(&p)
            .unwrap()
            .into_plan();
        let hop = Hop::new(CellId::new(0), CellId::new(1));
        let a = p.message_id("A").unwrap();
        let b = p.message_id("B").unwrap();

        // With 2 queues: A's request triggers grants for BOTH A and B.
        let pools = QueuePools::uniform([hop.interval()], 2, QueueConfig::default());
        let mut policy = CompatiblePolicy::new(plan.clone());
        let grants = policy.grant(
            &pools,
            &[Request {
                message: a,
                hop,
                born: 0,
            }],
        );
        let granted: Vec<MessageId> = grants.iter().map(|g| g.message).collect();
        assert!(
            granted.contains(&a) && granted.contains(&b),
            "group granted together"
        );

        // With 1 queue: nobody is granted (cannot satisfy the group).
        let pools = QueuePools::uniform([hop.interval()], 1, QueueConfig::default());
        let mut policy = CompatiblePolicy::new(plan);
        let grants = policy.grant(
            &pools,
            &[Request {
                message: a,
                hop,
                born: 0,
            }],
        );
        assert!(grants.is_empty());
    }

    #[test]
    fn static_policy_dedicates_queues() {
        let plan = fig7_plan();
        // Interval c2-c3 carries A (c2->c3)? No: A is c1->c2. It carries B
        // and C, so 2 queues suffice for static; intervals c0-c1 and c1-c2
        // carry at most 2 (C and A).
        let policy = StaticPolicy::new(&plan, 2).unwrap();
        let b = MessageId::new(1);
        let c = MessageId::new(2);
        let iv = Interval::new(CellId::new(2), CellId::new(3));
        let qb = policy.queue_of(b, iv).unwrap();
        let qc = policy.queue_of(c, iv).unwrap();
        assert_ne!(qb, qc, "dedicated queues are distinct");
        assert!(
            StaticPolicy::new(&plan, 1).is_err(),
            "1 queue cannot dedicate 2 messages"
        );
    }

    #[test]
    fn policy_names() {
        assert_eq!(GreedyPolicy::new().name(), "greedy");
        assert_eq!(FifoPolicy::new().name(), "fifo");
    }
}

#[cfg(test)]
mod more_policy_tests {
    use super::*;
    use crate::{QueueConfig, QueuePools};
    use systolic_core::{AnalysisConfig, Analyzer};
    use systolic_model::{CellId, Topology};

    /// FIFO keeps its arrival order across calls: a request that arrived
    /// first is served first even if it was unserviceable for many cycles.
    #[test]
    fn fifo_head_blocks_across_cycles() {
        let hop = Hop::new(CellId::new(0), CellId::new(1));
        let mut pools = QueuePools::uniform([hop.interval()], 1, QueueConfig::default());
        // Occupy the only queue.
        pools.grant(MessageId::new(9), hop, 0);
        let mut policy = FifoPolicy::new();

        // m1 arrives first (older born), m0 second.
        let r1 = Request {
            message: MessageId::new(1),
            hop,
            born: 1,
        };
        let r0 = Request {
            message: MessageId::new(0),
            hop,
            born: 2,
        };
        assert!(
            policy.grant(&pools, &[r1, r0]).is_empty(),
            "nothing free yet"
        );

        // Queue frees up; even if only m0 re-requests this cycle, the line
        // head (m1) is served first.
        pools.release(MessageId::new(9), hop.interval());
        let grants = policy.grant(&pools, &[r1, r0]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].message, MessageId::new(1));
    }

    /// The compatible policy enforces the ordered rule independently per
    /// interval of a multi-hop route.
    #[test]
    fn compatible_orders_each_interval_independently() {
        // Fig. 7: C crosses three intervals; B competes only on the last.
        let p = systolic_workloads::fig7(2);
        let plan = Analyzer::for_topology(&Topology::linear(4), &AnalysisConfig::default())
            .analyze(&p)
            .unwrap()
            .into_plan();
        let b = p.message_id("B").unwrap();
        let c = p.message_id("C").unwrap();
        let first_hop = Hop::new(CellId::new(0), CellId::new(1));
        let last_hop = Hop::new(CellId::new(2), CellId::new(3));
        let pools = QueuePools::uniform(
            [first_hop.interval(), last_hop.interval()],
            1,
            QueueConfig::default(),
        );
        let mut policy = CompatiblePolicy::new(plan);
        // C is the only competitor on its first hop: granted immediately.
        let grants = policy.grant(
            &pools,
            &[Request {
                message: c,
                hop: first_hop,
                born: 0,
            }],
        );
        assert_eq!(grants.len(), 1);
        // B on the last hop still waits for C's grant *there*.
        let grants = policy.grant(
            &pools,
            &[Request {
                message: b,
                hop: last_hop,
                born: 1,
            }],
        );
        assert!(grants.is_empty());
    }

    /// A static policy grant is idempotent-safe: requests stop once the
    /// engine records the live assignment, and `queue_of` is stable.
    #[test]
    fn static_queue_of_is_stable() {
        let p = systolic_workloads::fig3_messages();
        let config = AnalysisConfig {
            queues_per_interval: 4,
            ..Default::default()
        };
        let plan = Analyzer::for_topology(&Topology::linear(4), &config)
            .analyze(&p)
            .unwrap()
            .into_plan();
        let policy = StaticPolicy::new(&plan, 4).unwrap();
        let a = p.message_id("A").unwrap();
        for iv in plan.route(a).intervals() {
            assert_eq!(policy.queue_of(a, iv), policy.queue_of(a, iv));
        }
        // A message does not get a queue on an interval it does not cross.
        let d = p.message_id("D").unwrap();
        let first = Interval::new(CellId::new(0), CellId::new(1));
        assert_eq!(policy.queue_of(d, first), None);
    }
}
