//! Seeded input generators.
//!
//! Every input is a pure function of the benchmark seed and the item's
//! index, so two runs with one seed replay byte-identical request lines.
//! Each request carries the verdict its construction guarantees
//! ([`Expect`]); the correctness gate compares responses against that,
//! never against the analyzer under test.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use systolic_core::{AnalysisConfig, EditOp};
use systolic_model::{
    CellId, CellProgram, Interval, MessageDecl, MessageId, Op, Program, Topology,
};
use systolic_service::wire::WireResponse;
use systolic_workloads::{
    random_program, traffic, RandomConfig, ScheduleBuilder, TrafficConfig, TrafficItem,
};

/// The verdict an input is built to receive.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expect {
    /// Schedule-projected: deadlock-free by construction, with queues
    /// generous enough that labeling is feasible.
    Certified,
    /// A read-before-write cycle was spliced in: the analyzer must reject
    /// it with `E-DEADLOCK`.
    Deadlocked,
}

/// The input classes of the `cold_verify` stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// Clustered random program on a linear array.
    Linear,
    /// Placement-skewed program on a 2-D mesh.
    MeshHotspot,
}

/// One request line plus its known answer.
#[derive(Clone, Debug)]
pub struct Request {
    /// The JSONL request line.
    pub line: String,
    /// The verdict the line was built to receive.
    pub expect: Expect,
    /// Which generator produced the program.
    pub class: Class,
    /// Manhattan distance × words over all messages (mesh class only).
    pub cost: u64,
    /// The busiest interval's share of all interval traffic (mesh class
    /// only).
    pub hottest_share: f64,
}

/// A seed for item `index` of stream `domain`, independent of every other
/// item (SplitMix64 finalizer over the three inputs).
#[must_use]
pub fn item_seed(seed: u64, domain: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(domain.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Renders a program as one `systolicd` request line.
#[must_use]
pub fn request_line(id: &str, program: Program, topology: Topology, queues: usize) -> String {
    let item = TrafficItem {
        name: id.to_owned(),
        program,
        topology,
        queues_per_interval: queues,
    };
    WireResponse::Traffic { id, item: &item }
        .to_json()
        .to_string()
}

/// Cell counts of the linear class; with the one mesh shape these are the
/// four topologies of `cold_verify`, which fit the default arena LRU.
pub const LINEAR_CELLS: [usize; 3] = [12, 14, 16];
/// Shape of the mesh class.
pub const MESH_SIDE: usize = 4;
/// Upper bound on words per message in the generated classes.
const MAX_WORDS: usize = 8;

/// Hardware queues per interval of every `cold_verify` request: at least
/// the message count of any generated program, so every schedule-projected
/// program is feasible, and one value per topology, so compilations and
/// arenas are shared across requests.
pub const COLD_QUEUES: usize = 130;

/// A mid-size clustered random program on a linear array: 12–16 cells,
/// 48–128 messages.
pub fn linear_program(rng: &mut StdRng) -> (Program, Topology) {
    let cells = LINEAR_CELLS[rng.random_range(0..LINEAR_CELLS.len())];
    let config = RandomConfig {
        cells,
        messages: rng.random_range(48..=128usize),
        max_words: MAX_WORDS,
        max_span: 4,
        clustered: true,
    };
    let program = random_program(&config, rng.random_range(0..u64::MAX))
        .expect("valid random configs always build");
    (program, Topology::linear(cells))
}

/// A placement-skewed, congestion-heavy program on a 4×4 mesh.
#[derive(Clone, Debug)]
pub struct MeshProgram {
    /// The schedule-projected program.
    pub program: Program,
    /// The mesh it runs on.
    pub topology: Topology,
    /// Σ Manhattan(sender, receiver) × words.
    pub cost: u64,
    /// Words crossing the busiest interval ÷ words crossing all intervals
    /// (XY routes).
    pub hottest_share: f64,
}

/// Draws a mesh program whose endpoints lean toward a seeded hotspot:
/// each endpoint lands within Manhattan distance 1 of the hotspot with
/// probability 1/2 and uniformly otherwise, so traffic converges on a few
/// intervals.
pub fn mesh_hotspot_program(rng: &mut StdRng) -> MeshProgram {
    let side = MESH_SIDE;
    let cells = side * side;
    let manhattan =
        |a: usize, b: usize| (a / side).abs_diff(b / side) + (a % side).abs_diff(b % side);
    let hotspot = rng.random_range(0..cells);
    let near: Vec<usize> = (0..cells).filter(|&c| manhattan(c, hotspot) <= 1).collect();
    let endpoint = |rng: &mut StdRng| {
        if rng.random_range(0..2u32) == 0 {
            near[rng.random_range(0..near.len())]
        } else {
            rng.random_range(0..cells)
        }
    };
    let messages = rng.random_range(48..=96usize);
    let horizon = (messages * MAX_WORDS * 4) as i64;
    let mut schedule = ScheduleBuilder::new(cells);
    let mut cost = 0u64;
    let mut pairs = Vec::with_capacity(messages);
    for m in 0..messages {
        let (sender, receiver) = loop {
            let (a, b) = (endpoint(rng), endpoint(rng));
            if a != b {
                break (a, b);
            }
        };
        let id = schedule
            .message(format!("M{m}"), sender as u32, receiver as u32)
            .expect("endpoints are distinct cells of the mesh");
        let words = rng.random_range(1..=MAX_WORDS);
        schedule.transfer_n(id, rng.random_range(0..horizon), 1, words);
        cost += (manhattan(sender, receiver) * words) as u64;
        pairs.push((sender, receiver, words as u64));
    }
    let topology = Topology::mesh(side, side);
    let mut load: BTreeMap<Interval, u64> = BTreeMap::new();
    for &(sender, receiver, words) in &pairs {
        let path = topology
            .route_cells(CellId::new(sender as u32), CellId::new(receiver as u32))
            .expect("a mesh routes every distinct pair");
        for hop in path.windows(2) {
            *load.entry(Interval::new(hop[0], hop[1])).or_default() += words;
        }
    }
    let total: u64 = load.values().sum();
    let hottest = load.values().copied().max().unwrap_or(0);
    MeshProgram {
        program: schedule.build().expect("schedule projection builds"),
        topology,
        cost,
        hottest_share: hottest as f64 / total.max(1) as f64,
    }
}

/// Splices a read-before-write cycle into `program`: two fresh messages
/// `X: a → b` and `Y: b → a`, with `R(Y) W(X)` inserted into cell `a` and
/// `R(X) W(Y)` into cell `b`. Each cell waits for the other's write, so
/// the result is deadlocked whatever the rest of the program does.
pub fn splice_deadlock(program: &Program, rng: &mut StdRng) -> Program {
    let cells = program.num_cells();
    let a = rng.random_range(0..cells);
    let b = (a + rng.random_range(1..cells)) % cells;
    let (a, b) = (CellId::new(a as u32), CellId::new(b as u32));
    let mut messages = program.messages().to_vec();
    let x = MessageId::new(messages.len() as u32);
    let y = MessageId::new(messages.len() as u32 + 1);
    messages.push(MessageDecl::new("Xdl", a, b).expect("distinct endpoints"));
    messages.push(MessageDecl::new("Ydl", b, a).expect("distinct endpoints"));
    let mut ops: Vec<Vec<Op>> = program.cells().iter().map(|c| c.ops().to_vec()).collect();
    for (cell, wait, send) in [(a, y, x), (b, x, y)] {
        let list = &mut ops[cell.index()];
        let at = rng.random_range(0..=list.len());
        list.splice(at..at, [Op::read(wait), Op::write(send)]);
    }
    let names = program
        .cell_ids()
        .map(|c| program.cell_name(c).to_owned())
        .collect();
    Program::new(
        names,
        messages,
        ops.into_iter().map(CellProgram::new).collect(),
    )
    .expect("splicing a matched message pair keeps the program valid")
}

/// Stream domains, so warm-up and timed items never share a seed.
pub const TIMED: u64 = 1;
/// Domain of the warm-up lap.
pub const WARMUP: u64 = 2;

/// Percent of `cold_verify` requests drawn from the mesh class.
const MESH_PERCENT: u64 = 35;
/// Percent of `cold_verify` requests with a spliced deadlock.
const DEADLOCK_PERCENT: u64 = 15;

/// Item `index` of the `cold_verify` stream in `domain`.
#[must_use]
pub fn cold_verify_request(seed: u64, domain: u64, index: u64) -> Request {
    let mut rng = StdRng::seed_from_u64(item_seed(seed, domain, index));
    let (program, topology, class, cost, hottest_share) =
        if rng.random_range(0..100u64) < MESH_PERCENT {
            let mesh = mesh_hotspot_program(&mut rng);
            (
                mesh.program,
                mesh.topology,
                Class::MeshHotspot,
                mesh.cost,
                mesh.hottest_share,
            )
        } else {
            let (program, topology) = linear_program(&mut rng);
            (program, topology, Class::Linear, 0, 0.0)
        };
    let (program, expect) = if rng.random_range(0..100u64) < DEADLOCK_PERCENT {
        (splice_deadlock(&program, &mut rng), Expect::Deadlocked)
    } else {
        (program, Expect::Certified)
    };
    let id = format!("cv{domain}-{index}");
    Request {
        line: request_line(&id, program, topology, COLD_QUEUES),
        expect,
        class,
        cost,
        hottest_share,
    }
}

/// The `hot_mix` request stream: `systolicd gen` traffic, rendered.
#[must_use]
pub fn hot_mix_lines(seed: u64, count: usize) -> Vec<String> {
    traffic(&TrafficConfig::default(), seed, count)
        .iter()
        .enumerate()
        .map(|(i, item)| {
            WireResponse::Traffic {
                id: &format!("hm{i}"),
                item,
            }
            .to_json()
            .to_string()
        })
        .collect()
}

/// One editing client's view of its program: enough state to emit edit
/// batches that keep the program valid and deadlock-free, and to rebuild
/// the edited program for the correctness check.
///
/// Appends add a write/read word pair of one message at the tails of its
/// sender and receiver, which keeps a schedule-projected program
/// deadlock-free; removals undo appended pairs last-in first-out, so the
/// removed ops are always tails. Removals are forced once more than
/// [`MAX_APPENDED`] pairs are outstanding, which keeps program size — and
/// so the cost of an edit — steady over a run.
#[derive(Clone, Debug)]
pub struct EditChain {
    cell_names: Vec<String>,
    messages: Vec<MessageDecl>,
    ops: Vec<Vec<Op>>,
    /// Messages of the appended pairs still in the program, oldest first.
    appended: Vec<usize>,
    /// Undirected edges, for graph topologies (`None`: links are fixed).
    edges: Option<Vec<(usize, usize)>>,
    /// Links this chain added and may remove again.
    added: Vec<(usize, usize)>,
    config: AnalysisConfig,
}

/// The kinds of edit batch in the stream's mix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BatchKind {
    /// One appended write/read pair.
    Append,
    /// Appended pairs removed again.
    Remove,
    /// A link added or removed (graph topologies).
    Link,
    /// Appends over more than the fallback ratio of the cells.
    Wide,
}

/// Share of cells a [`BatchKind::Wide`] batch dirties: above the service's
/// default fallback ratio of 0.5.
const WIDE_DIRTY: f64 = 0.6;

/// Largest program a wide batch is drawn for: on the 256-cell relay one
/// would append to half the cells at once, and the removals that undo it
/// would dominate the stream.
const MAX_WIDE_CELLS: usize = 64;

/// Outstanding appended pairs above which the next batch removes.
pub const MAX_APPENDED: usize = 12;

/// Pairs a removal batch takes out: at most six dirty cells, so on the
/// twelve-cell bases removals stay within the fallback ratio.
pub const REMOVED_PAIRS: usize = 3;

impl EditChain {
    /// Opens a chain over `program` on `topology`.
    #[must_use]
    pub fn new(program: &Program, topology: &Topology, queues: usize) -> Self {
        let edges = topology.uses_search_routing().then(|| {
            topology
                .intervals()
                .iter()
                .map(|iv| (iv.lo().index(), iv.hi().index()))
                .collect()
        });
        EditChain {
            cell_names: program
                .cell_ids()
                .map(|c| program.cell_name(c).to_owned())
                .collect(),
            messages: program.messages().to_vec(),
            ops: program.cells().iter().map(|c| c.ops().to_vec()).collect(),
            appended: Vec::new(),
            edges,
            added: Vec::new(),
            config: AnalysisConfig {
                queues_per_interval: queues,
                ..AnalysisConfig::default()
            },
        }
    }

    /// The current program.
    #[must_use]
    pub fn program(&self) -> Program {
        Program::new(
            self.cell_names.clone(),
            self.messages.clone(),
            self.ops.iter().cloned().map(CellProgram::new).collect(),
        )
        .expect("edit batches keep the program valid")
    }

    /// The current topology: `base` for fixed topologies, otherwise the
    /// graph of the current edges.
    #[must_use]
    pub fn topology(&self, base: &Topology) -> Topology {
        match &self.edges {
            Some(edges) => Topology::graph(
                self.cell_names.len(),
                edges
                    .iter()
                    .map(|&(a, b)| (CellId::new(a as u32), CellId::new(b as u32))),
            )
            .expect("edges stay in range"),
            None => base.clone(),
        }
    }

    /// The analysis configuration requests on this chain use.
    #[must_use]
    pub fn config(&self) -> AnalysisConfig {
        self.config.clone()
    }

    /// Applies a batch drawn by [`EditChain::next_batch`] from a chain in
    /// this one's state: the edited cell programs and links.
    pub fn apply(&mut self, batch: &[EditOp]) {
        for &edit in batch {
            match edit {
                EditOp::AppendOp { cell, op } => self.ops[cell.index()].push(op),
                EditOp::RemoveTailOp { cell } => {
                    self.ops[cell.index()].pop();
                }
                EditOp::AddLink { a, b } => self
                    .edges
                    .as_mut()
                    .expect("link edits need a graph")
                    .push((a.index().min(b.index()), a.index().max(b.index()))),
                EditOp::RemoveLink { a, b } => {
                    let link = (a.index().min(b.index()), a.index().max(b.index()));
                    self.edges
                        .as_mut()
                        .expect("link edits need a graph")
                        .retain(|&e| e != link);
                }
            }
        }
    }

    fn append_pair(&mut self, m: usize, batch: &mut Vec<EditOp>) {
        let id = MessageId::new(m as u32);
        let decl = &self.messages[m];
        batch.push(EditOp::AppendOp {
            cell: decl.sender(),
            op: Op::write(id),
        });
        batch.push(EditOp::AppendOp {
            cell: decl.receiver(),
            op: Op::read(id),
        });
        self.appended.push(m);
    }

    fn remove_pair(&mut self, batch: &mut Vec<EditOp>) {
        let Some(m) = self.appended.pop() else { return };
        let decl = &self.messages[m];
        for cell in [decl.sender(), decl.receiver()] {
            batch.push(EditOp::RemoveTailOp { cell });
        }
    }

    fn link_edit(&mut self, rng: &mut StdRng) -> EditOp {
        let cell = |i: usize| CellId::new(i as u32);
        if !self.added.is_empty() && rng.random_range(0..2u32) == 0 {
            let (a, b) = self
                .added
                .swap_remove(rng.random_range(0..self.added.len()));
            return EditOp::RemoveLink {
                a: cell(a),
                b: cell(b),
            };
        }
        let cells = self.cell_names.len();
        let edges = self.edges.as_ref().expect("link edits need a graph");
        let link = loop {
            let a = rng.random_range(0..cells);
            let b = rng.random_range(0..cells);
            if a != b && !edges.contains(&(a.min(b), a.max(b))) {
                break (a.min(b), a.max(b));
            }
        };
        self.added.push(link);
        EditOp::AddLink {
            a: cell(link.0),
            b: cell(link.1),
        }
    }

    /// Draws the next edit batch and applies it to the chain: 80% single
    /// appended pairs, 10% link edits and 10% wide batches (appends where
    /// the chain cannot take them), except that past [`MAX_APPENDED`]
    /// outstanding pairs the batch removes [`REMOVED_PAIRS`] instead.
    pub fn next_batch(&mut self, rng: &mut StdRng) -> Vec<EditOp> {
        let roll = rng.random_range(0..10u32);
        let kind = match roll {
            _ if self.appended.len() > MAX_APPENDED => BatchKind::Remove,
            8 if self.edges.is_some() => BatchKind::Link,
            9 if self.cell_names.len() <= MAX_WIDE_CELLS => BatchKind::Wide,
            _ => BatchKind::Append,
        };
        let mut batch = Vec::new();
        match kind {
            BatchKind::Append => {
                let m = rng.random_range(0..self.messages.len());
                self.append_pair(m, &mut batch);
            }
            BatchKind::Remove => {
                for _ in 0..REMOVED_PAIRS {
                    self.remove_pair(&mut batch);
                }
            }
            BatchKind::Link => batch.push(self.link_edit(rng)),
            BatchKind::Wide => {
                let cells = self.cell_names.len();
                let mut dirty = vec![false; cells];
                let mut count = 0;
                while (count as f64) <= WIDE_DIRTY * cells as f64 {
                    let m = rng.random_range(0..self.messages.len());
                    for cell in [self.messages[m].sender(), self.messages[m].receiver()] {
                        if !std::mem::replace(&mut dirty[cell.index()], true) {
                            count += 1;
                        }
                    }
                    self.append_pair(m, &mut batch);
                }
            }
        }
        self.apply(&batch);
        batch
    }

    /// Renders `batch` as the `ops` array of an edit line, naming cells and
    /// messages as the wire expects.
    #[must_use]
    pub fn ops_json(&self, batch: &[EditOp]) -> String {
        let cell = |c: CellId| &self.cell_names[c.index()];
        let items: Vec<String> = batch
            .iter()
            .map(|op| match *op {
                EditOp::AppendOp { cell: c, op } => format!(
                    r#"{{"edit":"append","cell":"{}","op":"{}({})"}}"#,
                    cell(c),
                    op.kind(),
                    self.messages[op.message().index()].name()
                ),
                EditOp::RemoveTailOp { cell: c } => {
                    format!(r#"{{"edit":"remove_tail","cell":"{}"}}"#, cell(c))
                }
                EditOp::AddLink { a, b } => {
                    format!(
                        r#"{{"edit":"add_link","a":"{}","b":"{}"}}"#,
                        cell(a),
                        cell(b)
                    )
                }
                EditOp::RemoveLink { a, b } => {
                    format!(
                        r#"{{"edit":"remove_link","a":"{}","b":"{}"}}"#,
                        cell(a),
                        cell(b)
                    )
                }
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}

/// Side of the relay wavefront mesh (16×16 = 256 cells).
pub const RELAY_SIDE: usize = 16;

/// The 16×16 relay wavefront: message `M_k` carries cell `k` to `k + 1`,
/// and cell `k` interleaves `R(M_{k-1})`/`W(M_k)` word by word for 12
/// rounds — a schedule projection, so deadlock-free.
#[must_use]
pub fn relay_wavefront() -> (Program, Topology, usize) {
    let cells = RELAY_SIDE * RELAY_SIDE;
    let mut schedule = ScheduleBuilder::new(cells);
    let ids: Vec<MessageId> = (0..cells - 1)
        .map(|k| {
            schedule
                .message(format!("M{k}"), k as u32, k as u32 + 1)
                .expect("relay endpoints are distinct")
        })
        .collect();
    for round in 0..12i64 {
        for (k, &id) in ids.iter().enumerate() {
            schedule.transfer(id, round * cells as i64 + k as i64);
        }
    }
    let program = schedule.build().expect("schedule projection builds");
    (program, Topology::mesh(RELAY_SIDE, RELAY_SIDE), 64)
}

/// Cells of the mid-size edit bases.
const EDIT_BASE_CELLS: usize = 12;

/// Base `index` of the `edit_stream` sessions: base 0 is the relay
/// wavefront; the rest are mid-size clustered random programs, every
/// third on a graph topology (a line plus two chords) so link edits have
/// somewhere to land.
#[must_use]
pub fn edit_base(seed: u64, index: u64) -> (Program, Topology, usize) {
    if index == 0 {
        return relay_wavefront();
    }
    let mut rng = StdRng::seed_from_u64(item_seed(seed, 3, index));
    let config = RandomConfig {
        cells: EDIT_BASE_CELLS,
        messages: rng.random_range(24..=48usize),
        max_words: 6,
        max_span: 3,
        clustered: true,
    };
    let program = random_program(&config, rng.random_range(0..u64::MAX))
        .expect("valid random configs always build");
    let topology = if index.is_multiple_of(3) {
        let line = (0..EDIT_BASE_CELLS - 1).map(|i| (i, i + 1));
        let chords = (0..2).map(|_| {
            let a = rng.random_range(0..EDIT_BASE_CELLS - 2);
            (a, rng.random_range(a + 2..EDIT_BASE_CELLS))
        });
        Topology::graph(
            EDIT_BASE_CELLS,
            line.chain(chords)
                .map(|(a, b)| (CellId::new(a as u32), CellId::new(b as u32))),
        )
        .expect("edges stay in range")
    } else {
        Topology::linear(EDIT_BASE_CELLS)
    };
    (program, topology, config.messages)
}
