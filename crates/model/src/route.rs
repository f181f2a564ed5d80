//! Message routes: the sequence of intervals a message crosses
//! (paper, Section 2.3).
//!
//! "A message is said to *cross* the interval between two adjacent cells if
//! it will be assigned to queues between the two cells during program
//! execution. Suppose that a minimum-length route is always taken. Then for a
//! 1-dimensional array, intervals that a message will cross are completely
//! determined by its sender and receiver. However, for a 2-dimensional array,
//! intervals that a message crosses will also depend on the routing scheme."

use core::fmt;

use crate::{CellId, Hop, Interval, MessageId, ModelError, Program, Topology};

/// The route of one message: the cell path from sender to receiver.
///
/// A route has at least two cells (sender ≠ receiver) and therefore at least
/// one [`Hop`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Route {
    cells: Vec<CellId>,
}

impl Route {
    /// Wraps a cell path as a route.
    ///
    /// # Panics
    ///
    /// Panics if the path has fewer than two cells or repeats a cell
    /// consecutively.
    #[must_use]
    pub fn new(cells: Vec<CellId>) -> Self {
        assert!(
            cells.len() >= 2,
            "a route needs at least sender and receiver"
        );
        assert!(
            cells.windows(2).all(|w| w[0] != w[1]),
            "a route must not repeat a cell consecutively"
        );
        Route { cells }
    }

    /// The full cell path, including sender and receiver.
    #[must_use]
    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// The sending cell.
    #[must_use]
    pub fn sender(&self) -> CellId {
        self.cells[0]
    }

    /// The receiving cell.
    #[must_use]
    pub fn receiver(&self) -> CellId {
        *self.cells.last().expect("routes are nonempty")
    }

    /// Number of hops (= number of intervals crossed).
    #[must_use]
    pub fn num_hops(&self) -> usize {
        self.cells.len() - 1
    }

    /// The directed hops, in order from sender to receiver.
    pub fn hops(&self) -> impl Iterator<Item = Hop> + '_ {
        self.cells.windows(2).map(|w| Hop::new(w[0], w[1]))
    }

    /// The undirected intervals crossed, in order.
    pub fn intervals(&self) -> impl Iterator<Item = Interval> + '_ {
        self.hops().map(Hop::interval)
    }

    /// The hop crossing `interval`, if this route crosses it.
    #[must_use]
    pub fn hop_over(&self, interval: Interval) -> Option<Hop> {
        self.hops().find(|h| h.interval() == interval)
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for c in &self.cells {
            if !first {
                f.write_str(" -> ")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        Ok(())
    }
}

/// The routes of every message of a program over a topology.
///
/// # Examples
///
/// ```
/// use systolic_model::{MessageRoutes, ProgramBuilder, Topology};
///
/// # fn main() -> Result<(), systolic_model::ModelError> {
/// let mut b = ProgramBuilder::new(4);
/// let a = b.message("A", 0, 3)?;
/// b.write(0, "A")?.read(3, "A")?;
/// let program = b.build()?;
/// let routes = MessageRoutes::compute(&program, &Topology::linear(4))?;
/// assert_eq!(routes.route(a).num_hops(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MessageRoutes {
    routes: Vec<Route>,
}

impl MessageRoutes {
    /// Routes every declared message of `program` over `topology` using the
    /// topology's deterministic minimum-length routing.
    ///
    /// # Errors
    ///
    /// * [`ModelError::CellCountMismatch`] if the program and topology
    ///   disagree on the number of cells;
    /// * any routing error from [`Topology::route_cells`].
    pub fn compute(program: &Program, topology: &Topology) -> Result<Self, ModelError> {
        if program.num_cells() != topology.num_cells() {
            return Err(ModelError::CellCountMismatch {
                program: program.num_cells(),
                topology: topology.num_cells(),
            });
        }
        let mut routes = Vec::with_capacity(program.num_messages());
        for decl in program.messages() {
            let path = topology.route_cells(decl.sender(), decl.receiver())?;
            routes.push(Route::new(path));
        }
        Ok(MessageRoutes { routes })
    }

    /// Assembles message routes directly, one [`Route`] per declared
    /// message in declaration order. Used by precompiled topologies
    /// (`systolic_core::CompiledTopology`), which serve paths from a route
    /// closure instead of re-routing per program.
    #[must_use]
    pub fn from_routes(routes: Vec<Route>) -> Self {
        MessageRoutes { routes }
    }

    /// The route of message `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn route(&self, id: MessageId) -> &Route {
        &self.routes[id.index()]
    }

    /// Iterates over `(message, route)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (MessageId, &Route)> + '_ {
        self.routes
            .iter()
            .enumerate()
            .map(|(i, r)| (MessageId::new(i as u32), r))
    }

    /// Number of routed messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// `true` if the program declared no messages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// All messages whose route crosses `interval`, with their hop direction.
    #[must_use]
    pub fn crossing(&self, interval: Interval) -> Vec<(MessageId, Hop)> {
        self.iter()
            .filter_map(|(id, r)| r.hop_over(interval).map(|h| (id, h)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;

    fn c(i: u32) -> CellId {
        CellId::new(i)
    }

    #[test]
    fn route_hops_and_intervals() {
        let r = Route::new(vec![c(1), c(2), c(3)]);
        assert_eq!(r.sender(), c(1));
        assert_eq!(r.receiver(), c(3));
        assert_eq!(r.num_hops(), 2);
        let hops: Vec<Hop> = r.hops().collect();
        assert_eq!(hops, vec![Hop::new(c(1), c(2)), Hop::new(c(2), c(3))]);
        assert_eq!(r.hop_over(Interval::new(c(0), c(1))), None);
        assert_eq!(r.to_string(), "c1 -> c2 -> c3");
    }

    #[test]
    #[should_panic(expected = "at least sender and receiver")]
    fn route_rejects_single_cell() {
        let _ = Route::new(vec![c(0)]);
    }

    #[test]
    fn routes_fig3_style_assignment() {
        // Fig. 3: message A from c0 to c3 crosses all three intervals.
        let mut b = ProgramBuilder::new(4);
        b.message("A", 0, 3).unwrap();
        b.message("D", 2, 1).unwrap();
        b.write(0, "A").unwrap().read(3, "A").unwrap();
        b.write(2, "D").unwrap().read(1, "D").unwrap();
        let p = b.build().unwrap();
        let routes = MessageRoutes::compute(&p, &Topology::linear(4)).unwrap();

        let a = p.message_id("A").unwrap();
        let d = p.message_id("D").unwrap();
        assert_eq!(routes.route(a).num_hops(), 3);
        assert_eq!(routes.route(d).cells(), &[c(2), c(1)]);

        let mid = Interval::new(c(1), c(2));
        let crossing = routes.crossing(mid);
        assert_eq!(crossing.len(), 2);
        // A goes c1->c2, D goes c2->c1: same interval, opposite directions.
        let dir_a = crossing.iter().find(|(m, _)| *m == a).unwrap().1;
        let dir_d = crossing.iter().find(|(m, _)| *m == d).unwrap().1;
        assert_eq!(dir_a, Hop::new(c(1), c(2)));
        assert_eq!(dir_d, Hop::new(c(2), c(1)));
    }

    #[test]
    fn cell_count_mismatch_detected() {
        let mut b = ProgramBuilder::new(2);
        b.message("A", 0, 1).unwrap();
        b.write(0, "A").unwrap().read(1, "A").unwrap();
        let p = b.build().unwrap();
        let err = MessageRoutes::compute(&p, &Topology::linear(3)).unwrap_err();
        assert!(matches!(err, ModelError::CellCountMismatch { .. }));
    }

    #[test]
    fn empty_message_set_is_fine() {
        let p = ProgramBuilder::new(2).build().unwrap();
        let routes = MessageRoutes::compute(&p, &Topology::linear(2)).unwrap();
        assert!(routes.is_empty());
        assert_eq!(routes.len(), 0);
    }
}
