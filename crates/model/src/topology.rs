//! Interconnection topologies.
//!
//! The paper's examples use 1-dimensional arrays, but its results "apply to
//! arrays of higher dimensionalities and other distributed computing systems
//! using any interconnection topology" (Section 2.1). This module provides
//! linear arrays, rings, 2-D meshes, 2-D tori and arbitrary graphs.
//!
//! Adjacency lists and the interval list are precomputed at construction,
//! so the hot routing/analysis paths ([`Topology::neighbors`],
//! [`Topology::intervals`]) are allocation-free slice reads.

use std::collections::VecDeque;

use crate::{CellId, Interval, ModelError};

#[derive(Clone, PartialEq, Eq, Debug)]
enum Kind {
    Linear { n: usize },
    Ring { n: usize },
    Mesh2D { rows: usize, cols: usize },
    Torus { rows: usize, cols: usize },
    Graph { n: usize },
}

/// The largest cell count [`Topology::from_spec`] accepts. Wire-facing
/// only: the programmatic constructors are not limited.
pub const MAX_SPEC_CELLS: usize = 1 << 20;

/// An interconnection topology: which cells are adjacent (share an interval).
///
/// # Examples
///
/// ```
/// use systolic_model::{CellId, Topology};
/// let t = Topology::linear(4);
/// assert_eq!(t.num_cells(), 4);
/// assert!(t.is_adjacent(CellId::new(1), CellId::new(2)));
/// assert!(!t.is_adjacent(CellId::new(0), CellId::new(2)));
/// assert_eq!(t.intervals().len(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Topology {
    kind: Kind,
    /// Sorted neighbour list per cell, fixed at construction.
    adjacency: Vec<Vec<CellId>>,
    /// All intervals, sorted, fixed at construction.
    intervals: Vec<Interval>,
}

impl Topology {
    /// A 1-dimensional array of `n` cells: cell `i` is adjacent to `i±1`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn linear(n: usize) -> Self {
        assert!(n > 0, "an array needs at least one cell");
        let adjacency = (0..n)
            .map(|i| {
                let mut list = Vec::with_capacity(2);
                if i > 0 {
                    list.push(CellId::new((i - 1) as u32));
                }
                if i + 1 < n {
                    list.push(CellId::new((i + 1) as u32));
                }
                list
            })
            .collect();
        Self::with_adjacency(Kind::Linear { n }, adjacency)
    }

    /// A ring of `n` cells: like linear, plus cell `n-1` adjacent to cell 0.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (smaller rings degenerate).
    #[must_use]
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "a ring needs at least three cells");
        let adjacency = (0..n)
            .map(|i| {
                let mut list = vec![
                    CellId::new(((i + n - 1) % n) as u32),
                    CellId::new(((i + 1) % n) as u32),
                ];
                list.sort_unstable();
                list
            })
            .collect();
        Self::with_adjacency(Kind::Ring { n }, adjacency)
    }

    /// A `rows × cols` 2-D mesh; cell `(r, c)` has id `r * cols + c`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn mesh(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "mesh dimensions must be positive");
        let adjacency = (0..rows * cols)
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                let mut list = Vec::with_capacity(4);
                if r > 0 {
                    list.push(CellId::new(((r - 1) * cols + c) as u32));
                }
                if c > 0 {
                    list.push(CellId::new((r * cols + c - 1) as u32));
                }
                if c + 1 < cols {
                    list.push(CellId::new((r * cols + c + 1) as u32));
                }
                if r + 1 < rows {
                    list.push(CellId::new(((r + 1) * cols + c) as u32));
                }
                list
            })
            .collect();
        Self::with_adjacency(Kind::Mesh2D { rows, cols }, adjacency)
    }

    /// A `rows × cols` 2-D torus: a mesh whose rows and columns wrap
    /// around, so every cell has the same degree. Cell `(r, c)` has id
    /// `r * cols + c`, exactly as for [`Topology::mesh`].
    ///
    /// Degenerate dimensions are handled structurally: a dimension of size
    /// 1 contributes no links, and a dimension of size 2 contributes one
    /// (the wrap link coincides with the direct link and is merged).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn torus(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "torus dimensions must be positive");
        let adjacency = (0..rows * cols)
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                let mut list = Vec::with_capacity(4);
                if rows > 1 {
                    list.push(CellId::new((((r + rows - 1) % rows) * cols + c) as u32));
                    list.push(CellId::new((((r + 1) % rows) * cols + c) as u32));
                }
                if cols > 1 {
                    list.push(CellId::new((r * cols + (c + cols - 1) % cols) as u32));
                    list.push(CellId::new((r * cols + (c + 1) % cols) as u32));
                }
                list.sort_unstable();
                list.dedup();
                list
            })
            .collect();
        Self::with_adjacency(Kind::Torus { rows, cols }, adjacency)
    }

    /// An arbitrary undirected graph over `n` cells.
    ///
    /// Duplicate edges are merged; adjacency lists are kept sorted so routing
    /// is deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CellOutOfRange`] if an edge endpoint is `>= n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn graph(
        n: usize,
        edges: impl IntoIterator<Item = (CellId, CellId)>,
    ) -> Result<Self, ModelError> {
        assert!(n > 0, "an array needs at least one cell");
        let mut adjacency = vec![Vec::new(); n];
        for (a, b) in edges {
            for cell in [a, b] {
                if cell.index() >= n {
                    return Err(ModelError::CellOutOfRange { cell, num_cells: n });
                }
            }
            // Interval::new panics on self-loops, which is the right
            // behaviour: a cell is not adjacent to itself.
            let iv = Interval::new(a, b);
            if !adjacency[iv.lo().index()].contains(&iv.hi()) {
                adjacency[iv.lo().index()].push(iv.hi());
                adjacency[iv.hi().index()].push(iv.lo());
            }
        }
        for list in &mut adjacency {
            list.sort_unstable();
        }
        Ok(Self::with_adjacency(Kind::Graph { n }, adjacency))
    }

    fn with_adjacency(kind: Kind, adjacency: Vec<Vec<CellId>>) -> Self {
        let mut intervals = Vec::new();
        for (i, list) in adjacency.iter().enumerate() {
            let a = CellId::new(i as u32);
            for &b in list {
                if a < b {
                    intervals.push(Interval::new(a, b));
                }
            }
        }
        intervals.sort_unstable();
        Topology {
            kind,
            adjacency,
            intervals,
        }
    }

    /// Parses a compact topology specification string, the inverse of
    /// [`Topology::spec`]. Used by the `systolicd` JSONL front end so a
    /// request can name its topology in one field.
    ///
    /// Formats: `linear:N`, `ring:N`, `mesh:RxC`, `torus:RxC`, and
    /// `graph:N:a-b,c-d,...` (the edge list may be empty: `graph:N:`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::SpecParse`] for malformed specs, naming the
    /// offending token and its byte offset within the spec, and
    /// [`ModelError::CellOutOfRange`] for graph edges out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use systolic_model::{ModelError, Topology};
    ///
    /// # fn main() -> Result<(), systolic_model::ModelError> {
    /// let t = Topology::from_spec("mesh:2x3")?;
    /// assert_eq!(t.num_cells(), 6);
    /// assert_eq!(Topology::from_spec(&t.spec())?, t);
    ///
    /// // Errors pinpoint the offending token:
    /// let err = Topology::from_spec("mesh:2xq").unwrap_err();
    /// assert!(matches!(
    ///     err,
    ///     ModelError::SpecParse { ref token, offset: 7, .. } if token == "q"
    /// ));
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_spec(spec: &str) -> Result<Self, ModelError> {
        // Every token handed to `bad` is a subslice of `spec`, so pointer
        // arithmetic recovers its byte offset without threading indices
        // through the parse.
        let bad = |token: &str, message: String| ModelError::SpecParse {
            token: token.to_owned(),
            offset: (token.as_ptr() as usize).saturating_sub(spec.as_ptr() as usize),
            message,
        };
        let parse_count = |s: &str, what: &str| -> Result<usize, ModelError> {
            let n: usize = s.parse().map_err(|_| bad(s, format!("invalid {what}")))?;
            if n == 0 {
                return Err(bad(s, format!("{what} must be positive")));
            }
            // Specs arrive over the wire from untrusted clients, and the
            // constructors allocate O(cells) adjacency eagerly — bound the
            // size here so a single request line cannot abort the process.
            if n > MAX_SPEC_CELLS {
                return Err(bad(
                    s,
                    format!("{what} {n} exceeds the spec limit of {MAX_SPEC_CELLS} cells"),
                ));
            }
            Ok(n)
        };
        let (kind, rest) = spec
            .split_once(':')
            .ok_or_else(|| bad(spec, "topology spec has no `:`".into()))?;
        match kind {
            "linear" => Ok(Topology::linear(parse_count(rest, "cell count")?)),
            "ring" => {
                let n = parse_count(rest, "cell count")?;
                if n < 3 {
                    return Err(bad(rest, "a ring needs at least three cells".into()));
                }
                Ok(Topology::ring(n))
            }
            "mesh" | "torus" => {
                let (r, c) = rest
                    .split_once('x')
                    .ok_or_else(|| bad(rest, format!("{kind} spec is not RxC")))?;
                let rows = parse_count(r, "row count")?;
                let cols = parse_count(c, "column count")?;
                match rows.checked_mul(cols) {
                    Some(n) if n <= MAX_SPEC_CELLS => Ok(if kind == "mesh" {
                        Topology::mesh(rows, cols)
                    } else {
                        Topology::torus(rows, cols)
                    }),
                    _ => Err(bad(
                        rest,
                        format!(
                            "{kind} {rows}x{cols} exceeds the spec limit of {MAX_SPEC_CELLS} cells"
                        ),
                    )),
                }
            }
            "graph" => {
                let (n, edges) = rest
                    .split_once(':')
                    .ok_or_else(|| bad(rest, "graph spec is not N:edges".into()))?;
                let n = parse_count(n, "cell count")?;
                let mut parsed = Vec::new();
                for edge in edges.split(',').filter(|e| !e.is_empty()) {
                    let (a, b) = edge
                        .split_once('-')
                        .ok_or_else(|| bad(edge, "graph edge is not a-b".into()))?;
                    let a: u32 = a
                        .parse()
                        .map_err(|_| bad(a, "invalid cell in graph edge".into()))?;
                    let b: u32 = b
                        .parse()
                        .map_err(|_| bad(b, "invalid cell in graph edge".into()))?;
                    if a == b {
                        return Err(bad(edge, "graph edge is a self-loop".into()));
                    }
                    parsed.push((CellId::new(a), CellId::new(b)));
                }
                Topology::graph(n, parsed)
            }
            other => Err(bad(other, "unknown topology kind".into())),
        }
    }

    /// Serializes this topology as a spec string accepted by
    /// [`Topology::from_spec`], so `Topology::from_spec(&t.spec())? == t`.
    #[must_use]
    pub fn spec(&self) -> String {
        match &self.kind {
            Kind::Linear { n } => format!("linear:{n}"),
            Kind::Ring { n } => format!("ring:{n}"),
            Kind::Mesh2D { rows, cols } => format!("mesh:{rows}x{cols}"),
            Kind::Torus { rows, cols } => format!("torus:{rows}x{cols}"),
            Kind::Graph { n } => {
                let edges: Vec<String> = self
                    .intervals
                    .iter()
                    .map(|iv| format!("{}-{}", iv.lo().index(), iv.hi().index()))
                    .collect();
                format!("graph:{n}:{}", edges.join(","))
            }
        }
    }

    /// Number of cells.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        match &self.kind {
            Kind::Linear { n } | Kind::Ring { n } | Kind::Graph { n } => *n,
            Kind::Mesh2D { rows, cols } | Kind::Torus { rows, cols } => rows * cols,
        }
    }

    /// For meshes and tori, the `(row, col)` of a cell; `None` for other
    /// topologies.
    #[must_use]
    pub fn mesh_coords(&self, cell: CellId) -> Option<(usize, usize)> {
        match &self.kind {
            Kind::Mesh2D { cols, .. } | Kind::Torus { cols, .. } => {
                Some((cell.index() / cols, cell.index() % cols))
            }
            _ => None,
        }
    }

    /// `true` if the two cells share an interval.
    #[must_use]
    pub fn is_adjacent(&self, a: CellId, b: CellId) -> bool {
        if a == b {
            return false;
        }
        match &self.kind {
            Kind::Linear { n } => {
                a.index() < *n && b.index() < *n && a.index().abs_diff(b.index()) == 1
            }
            Kind::Ring { n } => {
                let (i, j) = (a.index(), b.index());
                i < *n && j < *n && (i.abs_diff(j) == 1 || i.abs_diff(j) == *n - 1)
            }
            Kind::Mesh2D { rows, cols } => {
                let n = rows * cols;
                if a.index() >= n || b.index() >= n {
                    return false;
                }
                let (ra, ca) = (a.index() / cols, a.index() % cols);
                let (rb, cb) = (b.index() / cols, b.index() % cols);
                ra.abs_diff(rb) + ca.abs_diff(cb) == 1
            }
            // Wraparound plus degenerate-dimension merging make a closed
            // form fiddly; the precomputed (sorted) adjacency is exact.
            Kind::Torus { .. } | Kind::Graph { .. } => self
                .adjacency
                .get(a.index())
                .is_some_and(|list| list.binary_search(&b).is_ok()),
        }
    }

    /// The sorted neighbours of `cell`, precomputed at construction.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[must_use]
    pub fn neighbors(&self, cell: CellId) -> &[CellId] {
        &self.adjacency[cell.index()]
    }

    /// All intervals (adjacent-cell links), sorted, precomputed at
    /// construction.
    #[must_use]
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// The cell path of the minimum-length route from `from` to `to`,
    /// including both endpoints.
    ///
    /// Routing is deterministic:
    /// * **linear** — the unique path;
    /// * **ring** — the shorter way round; ties broken in the direction of
    ///   increasing cell index;
    /// * **mesh** — XY (column-first, then row) dimension-ordered routing,
    ///   the standard deadlock-conscious choice for meshes;
    /// * **torus** — XY dimension-ordered routing where each dimension
    ///   goes the shorter way around its ring; ties broken in the
    ///   direction of increasing index (as for rings);
    /// * **graph** — breadth-first shortest path with lowest-id tie-breaks.
    ///
    /// # Errors
    ///
    /// * [`ModelError::CellOutOfRange`] if an endpoint does not exist;
    /// * [`ModelError::NoRoute`] if the graph is disconnected between the
    ///   endpoints (or `from == to`).
    pub fn route_cells(&self, from: CellId, to: CellId) -> Result<Vec<CellId>, ModelError> {
        let n = self.num_cells();
        for cell in [from, to] {
            if cell.index() >= n {
                return Err(ModelError::CellOutOfRange { cell, num_cells: n });
            }
        }
        if from == to {
            return Err(ModelError::NoRoute { from, to });
        }
        match &self.kind {
            Kind::Linear { .. } => {
                let (i, j) = (from.index(), to.index());
                let path: Vec<CellId> = if i < j {
                    (i..=j).map(|k| CellId::new(k as u32)).collect()
                } else {
                    (j..=i).rev().map(|k| CellId::new(k as u32)).collect()
                };
                Ok(path)
            }
            Kind::Ring { n } => {
                let (i, j) = (from.index(), to.index());
                let fwd = (j + n - i) % n; // hops going in +1 direction
                let bwd = n - fwd;
                let step_fwd = fwd <= bwd; // tie => increasing direction
                let hops = if step_fwd { fwd } else { bwd };
                let mut path = Vec::with_capacity(hops + 1);
                let mut cur = i;
                path.push(CellId::new(cur as u32));
                for _ in 0..hops {
                    cur = if step_fwd {
                        (cur + 1) % n
                    } else {
                        (cur + n - 1) % n
                    };
                    path.push(CellId::new(cur as u32));
                }
                Ok(path)
            }
            Kind::Mesh2D { cols, .. } => {
                let (mut r, mut c) = (from.index() / cols, from.index() % cols);
                let (tr, tc) = (to.index() / cols, to.index() % cols);
                let mut path = vec![from];
                while c != tc {
                    c = if c < tc { c + 1 } else { c - 1 };
                    path.push(CellId::new((r * cols + c) as u32));
                }
                while r != tr {
                    r = if r < tr { r + 1 } else { r - 1 };
                    path.push(CellId::new((r * cols + c) as u32));
                }
                Ok(path)
            }
            Kind::Torus { rows, cols } => {
                // XY order like the mesh; each dimension is a ring, routed
                // the shorter way around (tie => increasing index).
                let ring_steps = |cur: usize, target: usize, n: usize| {
                    let fwd = (target + n - cur) % n;
                    let bwd = n - fwd;
                    if fwd <= bwd {
                        (fwd, true)
                    } else {
                        (bwd, false)
                    }
                };
                let (mut r, mut c) = (from.index() / cols, from.index() % cols);
                let (tr, tc) = (to.index() / cols, to.index() % cols);
                let mut path = vec![from];
                if c != tc {
                    let (hops, fwd) = ring_steps(c, tc, *cols);
                    for _ in 0..hops {
                        c = if fwd {
                            (c + 1) % cols
                        } else {
                            (c + cols - 1) % cols
                        };
                        path.push(CellId::new((r * cols + c) as u32));
                    }
                }
                if r != tr {
                    let (hops, fwd) = ring_steps(r, tr, *rows);
                    for _ in 0..hops {
                        r = if fwd {
                            (r + 1) % rows
                        } else {
                            (r + rows - 1) % rows
                        };
                        path.push(CellId::new((r * cols + c) as u32));
                    }
                }
                Ok(path)
            }
            Kind::Graph { .. } => {
                let prev = self.bfs(from, Some(to));
                Self::path_to(&prev, to).ok_or(ModelError::NoRoute { from, to })
            }
        }
    }

    /// Breadth-first search from `from` with lowest-id tie-breaks (the
    /// adjacency lists are sorted), stopping once `stop` is dequeued.
    /// Entry `i` is the cell that discovered cell `i`: `None` for `from`
    /// and for cells not reached. Stopping early never changes an entry
    /// already set, so every route read from the tree is the same whether
    /// or not the search stopped.
    fn bfs(&self, from: CellId, stop: Option<CellId>) -> Vec<Option<CellId>> {
        let n = self.num_cells();
        let mut prev: Vec<Option<CellId>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([from]);
        seen[from.index()] = true;
        while let Some(cur) = queue.pop_front() {
            if Some(cur) == stop {
                break;
            }
            for &next in &self.adjacency[cur.index()] {
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    prev[next.index()] = Some(cur);
                    queue.push_back(next);
                }
            }
        }
        prev
    }

    /// The cell path to `to` in a [`Topology::bfs`] tree, both endpoints
    /// included; `None` if `to` is the search's origin or was not reached.
    fn path_to(prev: &[Option<CellId>], to: CellId) -> Option<Vec<CellId>> {
        let mut cur = prev[to.index()]?;
        let mut path = vec![to, cur];
        while let Some(p) = prev[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// `true` when [`Topology::route_cells`] performs a graph search (BFS)
    /// rather than closed-form routing — the signal that precomputing a
    /// route closure (`systolic_core::CompiledTopology`) actually saves
    /// work. Linear, ring, mesh and torus routing is arithmetic; only
    /// arbitrary graphs search.
    #[must_use]
    pub fn uses_search_routing(&self) -> bool {
        matches!(self.kind, Kind::Graph { .. })
    }

    /// The minimum-length routes from `from` to every cell: entry `i` is
    /// the cell path to cell `i` (including both endpoints), or `None` for
    /// `from` itself and for unreachable cells.
    ///
    /// The paths are exactly what per-pair [`Topology::route_cells`] calls
    /// would return: for graph topologies both read them from the same
    /// breadth-first search, and here all `n` destinations share one
    /// search, so a full route closure costs `n` traversals instead of
    /// `n²`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CellOutOfRange`] if `from` does not exist.
    pub fn routes_from(&self, from: CellId) -> Result<Vec<Option<Vec<CellId>>>, ModelError> {
        let n = self.num_cells();
        if from.index() >= n {
            return Err(ModelError::CellOutOfRange {
                cell: from,
                num_cells: n,
            });
        }
        if let Kind::Graph { .. } = &self.kind {
            let prev = self.bfs(from, None);
            return Ok((0..n)
                .map(|i| Self::path_to(&prev, CellId::new(i as u32)))
                .collect());
        }
        // Closed-form kinds: every pair is routable, and per-pair routing
        // is already O(path length).
        Ok((0..n)
            .map(|i| {
                let to = CellId::new(i as u32);
                if to == from {
                    None
                } else {
                    self.route_cells(from, to).ok()
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> CellId {
        CellId::new(i)
    }

    #[test]
    fn linear_adjacency_and_intervals() {
        let t = Topology::linear(4);
        assert!(t.is_adjacent(c(0), c(1)));
        assert!(!t.is_adjacent(c(0), c(0)));
        assert!(!t.is_adjacent(c(0), c(3)));
        assert_eq!(t.intervals().len(), 3);
        assert_eq!(t.neighbors(c(1)), vec![c(0), c(2)]);
        assert_eq!(t.neighbors(c(0)), vec![c(1)]);
    }

    #[test]
    fn precomputed_adjacency_matches_is_adjacent() {
        let topologies = vec![
            Topology::linear(5),
            Topology::ring(6),
            Topology::mesh(3, 4),
            Topology::torus(3, 4),
            Topology::torus(2, 3),
            Topology::torus(1, 4),
            Topology::graph(5, [(c(0), c(2)), (c(2), c(4)), (c(1), c(3))]).unwrap(),
        ];
        for t in topologies {
            for i in 0..t.num_cells() as u32 {
                for j in 0..t.num_cells() as u32 {
                    assert_eq!(
                        t.neighbors(c(i)).contains(&c(j)),
                        t.is_adjacent(c(i), c(j)),
                        "adjacency mismatch at ({i}, {j}) in {}",
                        t.spec(),
                    );
                }
                let mut sorted = t.neighbors(c(i)).to_vec();
                sorted.sort_unstable();
                assert_eq!(sorted, t.neighbors(c(i)), "unsorted neighbours of c{i}");
            }
        }
    }

    #[test]
    fn linear_routes_both_directions() {
        let t = Topology::linear(4);
        assert_eq!(
            t.route_cells(c(0), c(3)).unwrap(),
            vec![c(0), c(1), c(2), c(3)]
        );
        assert_eq!(t.route_cells(c(3), c(1)).unwrap(), vec![c(3), c(2), c(1)]);
    }

    #[test]
    fn ring_takes_shorter_way() {
        let t = Topology::ring(5);
        assert!(t.is_adjacent(c(0), c(4)));
        assert_eq!(t.route_cells(c(0), c(4)).unwrap(), vec![c(0), c(4)]);
        assert_eq!(t.route_cells(c(0), c(2)).unwrap(), vec![c(0), c(1), c(2)]);
        // Tie on a 4-ring: 0 -> 2 can go either way; must pick +1 direction.
        let t4 = Topology::ring(4);
        assert_eq!(t4.route_cells(c(0), c(2)).unwrap(), vec![c(0), c(1), c(2)]);
    }

    #[test]
    fn mesh_xy_routing() {
        let t = Topology::mesh(3, 3);
        // (0,0)=0 to (2,2)=8: X first (columns), then Y (rows).
        assert_eq!(
            t.route_cells(c(0), c(8)).unwrap(),
            vec![c(0), c(1), c(2), c(5), c(8)]
        );
        assert_eq!(t.mesh_coords(c(5)), Some((1, 2)));
        assert!(t.is_adjacent(c(4), c(1)));
        assert!(!t.is_adjacent(c(2), c(3))); // row wrap is not adjacency
        assert_eq!(t.intervals().len(), 12);
    }

    #[test]
    fn graph_bfs_shortest_with_tiebreak() {
        // 0-1, 0-2, 1-3, 2-3: two shortest paths 0->3; lowest-id goes via 1.
        let t =
            Topology::graph(4, [(c(0), c(1)), (c(0), c(2)), (c(1), c(3)), (c(2), c(3))]).unwrap();
        assert_eq!(t.route_cells(c(0), c(3)).unwrap(), vec![c(0), c(1), c(3)]);
    }

    #[test]
    fn graph_disconnected_errors() {
        let t = Topology::graph(4, [(c(0), c(1)), (c(2), c(3))]).unwrap();
        let err = t.route_cells(c(0), c(3)).unwrap_err();
        assert!(matches!(err, ModelError::NoRoute { .. }));
    }

    #[test]
    fn graph_rejects_bad_edges() {
        let err = Topology::graph(2, [(c(0), c(5))]).unwrap_err();
        assert!(matches!(err, ModelError::CellOutOfRange { .. }));
    }

    #[test]
    fn graph_merges_duplicate_edges() {
        let t = Topology::graph(2, [(c(0), c(1)), (c(1), c(0)), (c(0), c(1))]).unwrap();
        assert_eq!(t.intervals().len(), 1);
    }

    #[test]
    fn route_rejects_bad_endpoints() {
        let t = Topology::linear(3);
        assert!(matches!(
            t.route_cells(c(0), c(9)),
            Err(ModelError::CellOutOfRange { .. })
        ));
        assert!(matches!(
            t.route_cells(c(1), c(1)),
            Err(ModelError::NoRoute { .. })
        ));
    }

    #[test]
    fn single_cell_linear_is_legal_topology() {
        let t = Topology::linear(1);
        assert_eq!(t.num_cells(), 1);
        assert!(t.intervals().is_empty());
    }

    #[test]
    fn spec_roundtrips_every_kind() {
        let topologies = vec![
            Topology::linear(1),
            Topology::linear(7),
            Topology::ring(5),
            Topology::mesh(2, 3),
            Topology::torus(3, 4),
            Topology::torus(1, 5),
            Topology::torus(2, 2),
            Topology::graph(4, [(c(0), c(1)), (c(1), c(3))]).unwrap(),
            Topology::graph(3, []).unwrap(),
        ];
        for t in topologies {
            let spec = t.spec();
            let back = Topology::from_spec(&spec).unwrap();
            assert_eq!(back, t, "spec `{spec}` did not round-trip");
        }
    }

    #[test]
    fn from_spec_parses_all_forms() {
        assert_eq!(
            Topology::from_spec("linear:4").unwrap(),
            Topology::linear(4)
        );
        assert_eq!(Topology::from_spec("ring:5").unwrap(), Topology::ring(5));
        assert_eq!(
            Topology::from_spec("mesh:2x3").unwrap(),
            Topology::mesh(2, 3)
        );
        assert_eq!(
            Topology::from_spec("torus:3x4").unwrap(),
            Topology::torus(3, 4)
        );
        assert_eq!(
            Topology::from_spec("graph:3:0-1,1-2").unwrap(),
            Topology::graph(3, [(c(0), c(1)), (c(1), c(2))]).unwrap()
        );
        assert_eq!(
            Topology::from_spec("graph:2:").unwrap(),
            Topology::graph(2, []).unwrap()
        );
    }

    #[test]
    fn from_spec_rejects_malformed_input() {
        for spec in [
            "",
            "linear",
            "linear:",
            "linear:0",
            "linear:x",
            "ring:2",
            "mesh:3",
            "mesh:0x2",
            "mesh:2x",
            "torus:4",
            "torus:0x3",
            "torus:3xz",
            "hypercube:4",
            "graph:3",
            "graph:3:0_1",
            "graph:3:0-0",
        ] {
            assert!(
                matches!(Topology::from_spec(spec), Err(ModelError::SpecParse { .. })),
                "spec `{spec}` should fail to parse"
            );
        }
        assert!(matches!(
            Topology::from_spec("graph:2:0-5"),
            Err(ModelError::CellOutOfRange { .. })
        ));
    }

    /// One assertion per malformed-spec class: the error must name the
    /// offending token verbatim and its byte offset within the spec.
    #[test]
    fn from_spec_errors_name_token_and_offset() {
        let classes: &[(&str, &str, usize)] = &[
            // (spec, offending token, byte offset)
            ("linear", "linear", 0),         // missing `:` — whole spec
            ("hypercube:4", "hypercube", 0), // unknown kind
            ("linear:x", "x", 7),            // non-numeric count
            ("linear:", "", 7),              // empty count
            ("linear:0", "0", 7),            // zero count
            ("ring:2", "2", 5),              // degenerate ring
            ("mesh:3", "3", 5),              // missing `x`
            ("mesh:2xq", "q", 7),            // bad column count
            ("mesh:0x2", "0", 5),            // zero row count
            ("torus:4", "4", 6),             // torus without `x`
            ("torus:2xq", "q", 8),           // bad torus column count
            ("torus:0x2", "0", 6),           // zero torus row count
            ("torus:2x0", "0", 8),           // zero torus column count
            ("graph:3", "3", 6),             // missing edge list
            ("graph:3:0_1", "0_1", 8),       // edge without `-`
            ("graph:3:0-1,2-z", "z", 14),    // bad edge endpoint
            ("graph:3:0-0", "0-0", 8),       // self-loop edge
            ("mesh:100000x100000", "100000x100000", 5), // over the cell bound
            ("torus:100000x100000", "100000x100000", 6), // over the cell bound
        ];
        for &(spec, token, offset) in classes {
            match Topology::from_spec(spec) {
                Err(ModelError::SpecParse {
                    token: t,
                    offset: o,
                    ..
                }) => {
                    assert_eq!(t, token, "wrong token for `{spec}`");
                    assert_eq!(o, offset, "wrong offset for `{spec}`");
                }
                other => panic!("spec `{spec}` should be a SpecParse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn from_spec_bounds_cell_counts() {
        // Untrusted wire input must not trigger huge eager allocations.
        for spec in [
            "linear:18446744073709551615",
            &format!("linear:{}", MAX_SPEC_CELLS + 1),
            &format!("ring:{}", MAX_SPEC_CELLS + 1),
            "mesh:100000x100000",
            "mesh:4294967296x4294967296", // rows*cols overflows on 64-bit too
            &format!("graph:{}:", MAX_SPEC_CELLS + 1),
        ] {
            assert!(
                matches!(Topology::from_spec(spec), Err(ModelError::SpecParse { .. })),
                "spec `{spec}` should be rejected"
            );
        }
        assert!(Topology::from_spec(&format!("linear:{MAX_SPEC_CELLS}")).is_ok());
    }

    #[test]
    fn torus_wraps_both_dimensions() {
        let t = Topology::torus(3, 4);
        // Row wrap: (0,0) adjacent to (2,0); column wrap: (0,0) to (0,3).
        assert!(t.is_adjacent(c(0), c(8)));
        assert!(t.is_adjacent(c(0), c(3)));
        assert!(!t.is_adjacent(c(0), c(5)), "no diagonal adjacency");
        // Every cell of a >=3x>=3-free torus with rows=3, cols=4 has degree 4.
        for i in 0..t.num_cells() as u32 {
            assert_eq!(t.neighbors(c(i)).len(), 4, "cell {i} degree");
        }
        assert_eq!(t.intervals().len(), 2 * t.num_cells(), "4n/2 links");
        assert_eq!(t.mesh_coords(c(7)), Some((1, 3)));
        assert!(!t.uses_search_routing());
    }

    #[test]
    fn torus_degenerate_dimensions_merge_wrap_links() {
        // Size-2 dimension: wrap link == direct link, merged once.
        let t = Topology::torus(2, 2);
        assert_eq!(t.neighbors(c(0)), vec![c(1), c(2)]);
        assert_eq!(t.intervals().len(), 4);
        // Size-1 dimension: behaves as a ring in the other dimension.
        let line = Topology::torus(1, 4);
        assert_eq!(line.neighbors(c(0)), vec![c(1), c(3)]);
        assert!(line.is_adjacent(c(0), c(3)), "column wrap survives");
    }

    #[test]
    fn torus_routes_shorter_way_dimension_ordered() {
        let t = Topology::torus(4, 5);
        // (0,0) -> (0,3): backwards around the column ring (2 hops via the
        // wrap) beats forwards (3 hops).
        assert_eq!(t.route_cells(c(0), c(3)).unwrap(), vec![c(0), c(4), c(3)]);
        // (0,0) -> (3,1): X first (one hop to column 1), then the row ring
        // backwards via the wrap (one hop 0 -> 3).
        assert_eq!(t.route_cells(c(0), c(16)).unwrap(), vec![c(0), c(1), c(16)]);
        // Tie on the 4-row ring: 2 hops either way; must go increasing.
        assert_eq!(t.route_cells(c(0), c(10)).unwrap(), vec![c(0), c(5), c(10)]);
        // Every route's hops are adjacency-valid.
        for i in 0..t.num_cells() as u32 {
            for j in 0..t.num_cells() as u32 {
                if i == j {
                    continue;
                }
                let path = t.route_cells(c(i), c(j)).unwrap();
                for w in path.windows(2) {
                    assert!(t.is_adjacent(w[0], w[1]), "{i}->{j} path invalid at {w:?}");
                }
            }
        }
    }

    #[test]
    fn torus_and_mesh_are_distinct_topologies() {
        let torus = Topology::torus(3, 3);
        let mesh = Topology::mesh(3, 3);
        assert_ne!(torus, mesh);
        assert_ne!(torus.spec(), mesh.spec());
        // Mesh corner has degree 2, torus corner degree 4.
        assert_eq!(mesh.neighbors(c(0)).len(), 2);
        assert_eq!(torus.neighbors(c(0)).len(), 4);
    }

    #[test]
    fn routes_from_matches_route_cells_everywhere() {
        let topologies = vec![
            Topology::linear(6),
            Topology::ring(7),
            Topology::mesh(3, 4),
            Topology::torus(4, 5),
            Topology::torus(2, 4),
            Topology::graph(
                6,
                [
                    (c(0), c(1)),
                    (c(1), c(2)),
                    (c(2), c(3)),
                    (c(0), c(4)),
                    (c(4), c(3)),
                ],
            )
            .unwrap(),
            Topology::graph(5, [(c(0), c(1)), (c(2), c(3))]).unwrap(), // disconnected
        ];
        for t in topologies {
            for i in 0..t.num_cells() as u32 {
                let closure = t.routes_from(c(i)).unwrap();
                assert_eq!(closure.len(), t.num_cells());
                for j in 0..t.num_cells() as u32 {
                    let direct = t.route_cells(c(i), c(j)).ok();
                    assert_eq!(
                        closure[j as usize],
                        direct,
                        "closure/route mismatch {i}->{j} in {}",
                        t.spec()
                    );
                }
            }
        }
        assert!(matches!(
            Topology::linear(2).routes_from(c(9)),
            Err(ModelError::CellOutOfRange { .. })
        ));
        assert!(Topology::graph(4, [(c(0), c(1))])
            .unwrap()
            .uses_search_routing());
        assert!(!Topology::mesh(2, 2).uses_search_routing());
    }
}
