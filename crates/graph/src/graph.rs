//! The labelled property graph.
//!
//! Design notes:
//!
//! * **Stable ids with tombstones.** Graph-edit APIs (scenario 3 of the paper,
//!   "Chat-based Graph Cleaning") mutate a graph *while* an API chain is
//!   executing and holding node/edge ids. Removal therefore tombstones slots
//!   instead of shifting ids; [`Graph::compact`] rebuilds a dense graph when a
//!   caller wants one.
//! * **Directed and undirected** graphs share one type: molecules and social
//!   networks are undirected, knowledge graphs are directed. Algorithms query
//!   [`Graph::is_directed`] where it matters.
//! * **Parallel edges and self-loops are rejected** — none of the paper's
//!   graph families need them, and forbidding them keeps edit-distance costs
//!   well-defined.
//! * **One version identity, one change log.** Every change to a slot goes
//!   through the mutation methods, which keep [`Graph::fingerprint`] (an
//!   O(1) content hash) and the edit journal (which slots changed since an
//!   ancestor) in step. Caches key on the first; the durable store's WAL
//!   deltas read the second.
//! * **Each version carries its derived data.** [`Graph::csr`] builds the
//!   analysis kernels' index at most once per version and shares it with
//!   every clone of that version; a structural edit drops it, so the next
//!   version builds its own. [`Graph::derived`] holds
//!   everything else computed from a version (the chat view's sequences
//!   and features, the label summary); any edit clears it, because a
//!   relabel keeps the CSR but changes what those read.

use crate::attr::{AttrValue, Attrs};
use crate::csr::{CsrBuild, CsrGraph};
use crate::derived::Derived;
use chatgraph_support::hash::Fnv64;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Index of a node in a [`Graph`]. Stable across removals of other elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Index of an edge in a [`Graph`]. Stable across removals of other elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Whether edges are ordered pairs or unordered pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Edges are ordered `(src, dst)` pairs (knowledge graphs).
    Directed,
    /// Edges are unordered pairs (molecules, social networks).
    Undirected,
}

/// Errors raised by graph mutation and lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The node id does not exist or has been removed.
    NodeNotFound(NodeId),
    /// The edge id does not exist or has been removed.
    EdgeNotFound(EdgeId),
    /// An edge between the two endpoints already exists.
    DuplicateEdge(NodeId, NodeId),
    /// Self-loops are not supported.
    SelfLoop(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeNotFound(v) => write!(f, "node {v} not found"),
            GraphError::EdgeNotFound(e) => write!(f, "edge {e} not found"),
            GraphError::DuplicateEdge(u, v) => write!(f, "edge ({u}, {v}) already exists"),
            GraphError::SelfLoop(v) => write!(f, "self-loop at {v} not supported"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Capacity of the edit journal. Past this many retained edits the oldest
/// are dropped; the store, asking for the edits since an ancestor older
/// than the window, gets `None` and writes a full graph snapshot instead of
/// a WAL delta. The journal has no other reader: the CSR snapshot is
/// always rebuilt from the slots.
pub(crate) const JOURNAL_CAP: usize = 4096;

/// Process-global stamp source for journal entries. Stamps only need to be
/// unique, not ordered or dense: ancestry is decided by *finding* a stamp
/// in a journal, never by comparing magnitudes.
// lockdoc: recover(a lone atomic counter; fetch_add cannot be torn or deadlock)
static EPOCH: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    EPOCH.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// The slot one mutation touched. Every mutation method records one entry
/// per slot it changes — appends, tombstones, label and attribute edits
/// alike — so the entries since an ancestor name every slot that can
/// differ between the two graphs. Renames are not journaled: the name is
/// compared directly.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Touched {
    Node(NodeId),
    Edge(EdgeId),
}

/// A capped log of recent slot edits, stamped with process-globally unique
/// ids. Cloning a graph clones its journal, so a derived graph's journal
/// contains its ancestor's tip stamp — finding that stamp proves ancestry
/// (stamps are never reissued) and the entries after it are exactly the
/// slots separating the two graphs. The store's WAL deltas read it
/// ([`crate::delta::GraphDelta::since`]), in O(edits) instead of O(slots).
#[derive(Debug, Clone)]
pub(crate) struct Journal {
    /// Stamp of the last mutation (or of creation / deserialisation — fresh
    /// graphs get a unique tip so two unrelated graphs can never look like
    /// ancestors).
    tip: u64,
    edits: std::collections::VecDeque<(u64, Touched)>,
}

impl Journal {
    fn fresh() -> Journal {
        Journal { tip: fresh_stamp(), edits: std::collections::VecDeque::new() }
    }

    fn record(&mut self, touched: Touched) {
        let stamp = fresh_stamp();
        self.tip = stamp;
        self.edits.push_back((stamp, touched));
        if self.edits.len() > JOURNAL_CAP {
            self.edits.pop_front();
        }
    }

    /// The stamp identifying this graph's current state.
    pub(crate) fn tip(&self) -> u64 {
        self.tip
    }

    /// The slots touched since the state stamped `ancestor_tip`, oldest
    /// first (with repeats) — or `None` when `ancestor_tip` is not in the
    /// retained window (not an ancestor, or too many edits ago).
    pub(crate) fn touched_since(&self, ancestor_tip: u64) -> Option<Vec<Touched>> {
        if ancestor_tip == self.tip {
            return Some(Vec::new());
        }
        let pos = self.edits.iter().position(|&(s, _)| s == ancestor_tip)?;
        Some(self.edits.iter().skip(pos + 1).map(|&(_, t)| t).collect())
    }
}

/// Final avalanche (MurmurHash3's `fmix64`), so per-slot hashes that are
/// summed cannot cancel structurally.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

fn hash_attrs(h: &mut Fnv64, attrs: &Attrs) {
    h.write_u64(attrs.len() as u64);
    for (k, v) in attrs {
        h.write_str(k);
        match v {
            AttrValue::Bool(b) => h.write(&[0, *b as u8]),
            AttrValue::Int(i) => {
                h.write(&[1]);
                h.write_u64(*i as u64);
            }
            AttrValue::Float(x) => {
                h.write(&[2]);
                h.write_u64(x.to_bits());
            }
            AttrValue::Text(t) => {
                h.write(&[3]);
                h.write_str(t);
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeSlot {
    pub(crate) label: String,
    pub(crate) attrs: Attrs,
    pub(crate) removed: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EdgeSlot {
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) label: String,
    pub(crate) attrs: Attrs,
    pub(crate) removed: bool,
}

impl NodeSlot {
    /// This slot's share of the content hash: every field plus its index.
    fn hash(&self, index: usize) -> u64 {
        let mut h = Fnv64::new();
        h.write(&[b'n', self.removed as u8]);
        h.write_u64(index as u64);
        h.write_str(&self.label);
        hash_attrs(&mut h, &self.attrs);
        fmix64(h.finish())
    }
}

impl EdgeSlot {
    /// This slot's share of the content hash: every field plus its index.
    fn hash(&self, index: usize) -> u64 {
        let mut h = Fnv64::new();
        h.write(&[b'e', self.removed as u8]);
        h.write_u64(index as u64);
        h.write_u64(u64::from(self.src.0) << 32 | u64::from(self.dst.0));
        h.write_str(&self.label);
        hash_attrs(&mut h, &self.attrs);
        fmix64(h.finish())
    }
}

/// Wrapping sum of every slot's hash: the order-free part of
/// [`Graph::fingerprint`], computed from scratch.
fn slot_sum(nodes: &[NodeSlot], edges: &[EdgeSlot]) -> u64 {
    let n = nodes.iter().enumerate().map(|(i, s)| s.hash(i));
    let e = edges.iter().enumerate().map(|(i, s)| s.hash(i));
    n.chain(e).fold(0, u64::wrapping_add)
}

/// A labelled, attributed property graph.
///
/// ```
/// use chatgraph_graph::{Graph, Direction};
///
/// let mut g = Graph::new(Direction::Undirected);
/// let a = g.add_node("C");
/// let b = g.add_node("O");
/// let e = g.add_edge(a, b, "double").unwrap();
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.edge_label(e).unwrap(), "double");
/// assert!(g.has_edge(a, b));
/// assert!(g.has_edge(b, a)); // undirected
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    direction: Direction,
    /// A free-form graph name, surfaced in chat transcripts ("G", "aspirin", …).
    name: String,
    nodes: Vec<NodeSlot>,
    edges: Vec<EdgeSlot>,
    /// Outgoing adjacency. For undirected graphs each edge appears in both
    /// endpoints' lists.
    out_adj: Vec<Vec<(NodeId, EdgeId)>>,
    /// Incoming adjacency; maintained only for directed graphs.
    in_adj: Vec<Vec<(NodeId, EdgeId)>>,
    live_nodes: usize,
    live_edges: usize,
    /// Wrapping sum of the per-slot hashes, maintained by every mutation
    /// (see [`Graph::fingerprint`]).
    slot_sum: u64,
    /// Recent slot edits (excluded from equality and serialisation —
    /// lineage metadata, not graph content).
    journal: Journal,
    /// This version's CSR snapshot, built on first use (see
    /// [`Graph::csr`]); derived data, excluded like the journal. Cloning
    /// a graph clones the slot, so an unedited clone shares the snapshot.
    csr: OnceLock<Arc<CsrGraph>>,
    /// Everything else derived from this version (see [`Graph::derived`]);
    /// shared by clones, excluded like the journal.
    derived: Derived,
}

/// Equality is over graph *content*; the journal is lineage metadata and
/// two equal graphs may well have disjoint histories. (`slot_sum`, the
/// CSR snapshot and the derived slot are functions of the slots, so they
/// need no comparison.)
impl PartialEq for Graph {
    fn eq(&self, other: &Graph) -> bool {
        self.direction == other.direction
            && self.name == other.name
            && self.nodes == other.nodes
            && self.edges == other.edges
            && self.out_adj == other.out_adj
            && self.in_adj == other.in_adj
            && self.live_nodes == other.live_nodes
            && self.live_edges == other.live_edges
    }
}

chatgraph_support::impl_json_newtype!(NodeId);
chatgraph_support::impl_json_newtype!(EdgeId);
chatgraph_support::impl_json_enum!(Direction { Directed, Undirected });
chatgraph_support::impl_json_struct!(NodeSlot { label, attrs, removed });
chatgraph_support::impl_json_struct!(EdgeSlot { src, dst, label, attrs, removed });
// Hand-written (rather than `impl_json_struct!`) so the journal and the
// counters stay off the wire: the format is unchanged from before either
// existed. Decoding reads only the slots and rebuilds everything derived
// from them (adjacency, live counts, counters) through `from_slots`, so a
// document cannot make them disagree; the derived fields it carries are
// ignored. A decoded graph starts a fresh journal, so it has no proven
// lineage, like any graph of unknown origin.
impl chatgraph_support::json::ToJson for Graph {
    fn to_json(&self) -> chatgraph_support::json::Json {
        use chatgraph_support::json::Json;
        Json::Object(vec![
            ("direction".to_owned(), self.direction.to_json()),
            ("name".to_owned(), self.name.to_json()),
            ("nodes".to_owned(), self.nodes.to_json()),
            ("edges".to_owned(), self.edges.to_json()),
            ("out_adj".to_owned(), self.out_adj.to_json()),
            ("in_adj".to_owned(), self.in_adj.to_json()),
            ("live_nodes".to_owned(), self.live_nodes.to_json()),
            ("live_edges".to_owned(), self.live_edges.to_json()),
        ])
    }
}

impl chatgraph_support::json::FromJson for Graph {
    fn from_json(
        v: &chatgraph_support::json::Json,
    ) -> Result<Self, chatgraph_support::json::JsonError> {
        use chatgraph_support::json::{FromJson, JsonError};
        if v.as_object().is_none() {
            return Err(JsonError::expected("object", v));
        }
        let field = |name: &str| {
            v.get(name).ok_or_else(|| JsonError::missing_field("Graph", name))
        };
        let nodes: Vec<NodeSlot> = FromJson::from_json(field("nodes")?)?;
        let edges: Vec<EdgeSlot> = FromJson::from_json(field("edges")?)?;
        let out_of_range = |v: NodeId| v.index() >= nodes.len();
        if let Some(e) = edges.iter().find(|e| out_of_range(e.src) || out_of_range(e.dst)) {
            return Err(JsonError::msg(format!(
                "edge {}->{} names a node outside the {} node slots",
                e.src.0,
                e.dst.0,
                nodes.len()
            )));
        }
        Ok(Graph::from_slots(
            FromJson::from_json(field("direction")?)?,
            FromJson::from_json(field("name")?)?,
            nodes,
            edges,
        ))
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new(direction: Direction) -> Self {
        Graph {
            direction,
            name: "G".to_owned(),
            nodes: Vec::new(),
            edges: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
            live_nodes: 0,
            live_edges: 0,
            slot_sum: 0,
            journal: Journal::fresh(),
            csr: OnceLock::new(),
            derived: Derived::default(),
        }
    }

    /// The graph's version identity: a 64-bit hash of its content — name,
    /// direction, slot bounds and every node/edge slot (index, tombstone
    /// flag, label, attributes, endpoints).
    ///
    /// O(1): the slot part is a wrapping sum of per-slot hashes that every
    /// mutation method updates in place, so reading it never walks the
    /// graph. Deterministic across processes, and equal for equal slot
    /// content whatever the history — two graphs with equal fingerprints
    /// are `==` up to hash collisions. Slot-exact: a tombstoned graph and
    /// its [`Graph::compact`] differ, because their node ids differ.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.slot_sum);
        h.write_str(&self.name);
        h.write(&[self.is_directed() as u8]);
        h.write_u64(self.nodes.len() as u64);
        h.write_u64(self.edges.len() as u64);
        fmix64(h.finish())
    }

    /// The CSR snapshot of this version: built on the first call and
    /// shared by every later call and every clone of this version.
    /// Concurrent first callers wait for one build.
    pub fn csr(&self) -> Arc<CsrGraph> {
        self.csr_tracked().0
    }

    /// Like [`Graph::csr`], plus the build record when this call did the
    /// build (`None` when the snapshot already existed).
    pub fn csr_tracked(&self) -> (Arc<CsrGraph>, Option<CsrBuild>) {
        let mut build = None;
        let csr = self.csr.get_or_init(|| {
            let started = Instant::now();
            let csr = CsrGraph::build(self);
            build = Some(CsrBuild {
                nodes: csr.n(),
                edges: csr.m(),
                micros: started.elapsed().as_micros() as u64,
            });
            Arc::new(csr)
        });
        (Arc::clone(csr), build)
    }

    /// Journals one slot edit and invalidates what it outdates: every edit
    /// clears the derived slot, and a structural one — a slot appended or
    /// tombstoned — also drops the CSR snapshot; label and attribute edits
    /// keep it, since the CSR holds no labels.
    fn record(&mut self, touched: Touched, structural: bool) {
        self.journal.record(touched);
        self.derived.clear();
        if structural {
            self.csr.take();
        }
    }

    /// The derived-data slot (see [`Graph::derived`]).
    pub(crate) fn derived_slot(&self) -> &Derived {
        &self.derived
    }

    /// The slot-edit journal (for WAL deltas).
    pub(crate) fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Every node slot ever allocated, tombstones included (for the
    /// slot-exact delta/image codec in [`crate::delta`]).
    pub(crate) fn node_slots(&self) -> &[NodeSlot] {
        &self.nodes
    }

    /// Every edge slot ever allocated, tombstones included.
    pub(crate) fn edge_slots(&self) -> &[EdgeSlot] {
        &self.edges
    }

    /// Rebuilds a graph from raw slot arrays, tombstones and all.
    ///
    /// Adjacency is reconstructed by walking live edges in id order, which
    /// is exactly the order incremental mutation leaves the lists in: every
    /// insertion appends a strictly larger edge id and removals preserve
    /// relative order, so a mutated graph's adjacency is always the live
    /// incident edges sorted by edge id. A slot-replayed graph is therefore
    /// `==` to the incrementally mutated original, adjacency included.
    ///
    /// Callers must have validated edge endpoints against the node slots;
    /// out-of-range endpoints here are a codec bug, not user input.
    pub(crate) fn from_slots(
        direction: Direction,
        name: String,
        nodes: Vec<NodeSlot>,
        edges: Vec<EdgeSlot>,
    ) -> Graph {
        let mut out_adj: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); nodes.len()];
        let mut in_adj: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); nodes.len()];
        let mut live_edges = 0usize;
        for (i, e) in edges.iter().enumerate() {
            if e.removed {
                continue;
            }
            let id = EdgeId(i as u32);
            out_adj[e.src.index()].push((e.dst, id));
            if direction == Direction::Directed {
                in_adj[e.dst.index()].push((e.src, id));
            } else {
                out_adj[e.dst.index()].push((e.src, id));
            }
            live_edges += 1;
        }
        let live_nodes = nodes.iter().filter(|n| !n.removed).count();
        Graph {
            direction,
            name,
            slot_sum: slot_sum(&nodes, &edges),
            nodes,
            edges,
            out_adj,
            in_adj,
            live_nodes,
            live_edges,
            journal: Journal::fresh(),
            csr: OnceLock::new(),
            derived: Derived::default(),
        }
    }

    /// Creates an empty undirected graph.
    pub fn undirected() -> Self {
        Graph::new(Direction::Undirected)
    }

    /// Creates an empty directed graph.
    pub fn directed() -> Self {
        Graph::new(Direction::Directed)
    }

    /// Whether edges are directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.direction == Direction::Directed
    }

    /// The graph's direction mode.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The graph's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the graph's display name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
        self.derived.clear();
    }

    /// Number of live (non-removed) nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live (non-removed) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Upper bound (exclusive) on node ids ever allocated, including removed
    /// slots. Useful for sizing per-node scratch arrays.
    #[inline]
    pub fn node_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Upper bound (exclusive) on edge ids ever allocated, including removed
    /// slots.
    #[inline]
    pub fn edge_bound(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.live_nodes == 0
    }

    /// Adds a node with the given label and no attributes.
    pub fn add_node(&mut self, label: impl Into<String>) -> NodeId {
        self.add_node_with_attrs(label, Attrs::new())
    }

    /// Adds a node with the given label and attributes.
    pub fn add_node_with_attrs(&mut self, label: impl Into<String>, attrs: Attrs) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let slot = NodeSlot {
            label: label.into(),
            attrs,
            removed: false,
        };
        self.slot_sum = self.slot_sum.wrapping_add(slot.hash(id.index()));
        self.nodes.push(slot);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        self.live_nodes += 1;
        self.record(Touched::Node(id), true);
        id
    }

    /// Edits a node slot in place, keeping the slot hash, the journal and
    /// the CSR snapshot in step. Every change to an existing node slot goes
    /// through here.
    fn edit_node(&mut self, id: NodeId, edit: impl FnOnce(&mut NodeSlot)) {
        let i = id.index();
        let (old, was_removed) = (self.nodes[i].hash(i), self.nodes[i].removed);
        edit(&mut self.nodes[i]);
        self.slot_sum = self.slot_sum.wrapping_sub(old).wrapping_add(self.nodes[i].hash(i));
        self.record(Touched::Node(id), was_removed != self.nodes[i].removed);
    }

    /// Edits an edge slot in place; the edge counterpart of `edit_node`.
    fn edit_edge(&mut self, id: EdgeId, edit: impl FnOnce(&mut EdgeSlot)) {
        let i = id.index();
        let (old, was_removed) = (self.edges[i].hash(i), self.edges[i].removed);
        edit(&mut self.edges[i]);
        self.slot_sum = self.slot_sum.wrapping_sub(old).wrapping_add(self.edges[i].hash(i));
        self.record(Touched::Edge(id), was_removed != self.edges[i].removed);
    }

    /// True if `id` refers to a live node.
    #[inline]
    pub fn contains_node(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).is_some_and(|n| !n.removed)
    }

    /// True if `id` refers to a live edge.
    #[inline]
    pub fn contains_edge(&self, id: EdgeId) -> bool {
        self.edges.get(id.index()).is_some_and(|e| !e.removed)
    }

    fn check_node(&self, id: NodeId) -> Result<(), GraphError> {
        if self.contains_node(id) {
            Ok(())
        } else {
            Err(GraphError::NodeNotFound(id))
        }
    }

    /// Adds an edge with the given label and no attributes.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        label: impl Into<String>,
    ) -> Result<EdgeId, GraphError> {
        self.add_edge_with_attrs(src, dst, label, Attrs::new())
    }

    /// Adds an edge with the given label and attributes.
    ///
    /// Returns [`GraphError::DuplicateEdge`] if an edge between the endpoints
    /// already exists (in the same direction, for directed graphs) and
    /// [`GraphError::SelfLoop`] if `src == dst`.
    pub fn add_edge_with_attrs(
        &mut self,
        src: NodeId,
        dst: NodeId,
        label: impl Into<String>,
        attrs: Attrs,
    ) -> Result<EdgeId, GraphError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        if self.find_edge(src, dst).is_some() {
            return Err(GraphError::DuplicateEdge(src, dst));
        }
        let id = EdgeId(self.edges.len() as u32);
        let slot = EdgeSlot {
            src,
            dst,
            label: label.into(),
            attrs,
            removed: false,
        };
        self.slot_sum = self.slot_sum.wrapping_add(slot.hash(id.index()));
        self.edges.push(slot);
        self.out_adj[src.index()].push((dst, id));
        if self.is_directed() {
            self.in_adj[dst.index()].push((src, id));
        } else {
            self.out_adj[dst.index()].push((src, id));
        }
        self.live_edges += 1;
        self.record(Touched::Edge(id), true);
        Ok(id)
    }

    /// Finds the live edge from `src` to `dst`, if any. For undirected graphs
    /// the orientation of the query does not matter.
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        let adj = self.out_adj.get(src.index())?;
        adj.iter()
            .find(|&&(v, e)| v == dst && !self.edges[e.index()].removed)
            .map(|&(_, e)| e)
    }

    /// True if a live edge runs from `src` to `dst`.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.find_edge(src, dst).is_some()
    }

    /// Removes an edge. The id is never reused.
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<(), GraphError> {
        if !self.contains_edge(id) {
            return Err(GraphError::EdgeNotFound(id));
        }
        self.edit_edge(id, |e| e.removed = true);
        let EdgeSlot { src, dst, .. } = self.edges[id.index()];
        self.out_adj[src.index()].retain(|&(_, e)| e != id);
        if self.is_directed() {
            self.in_adj[dst.index()].retain(|&(_, e)| e != id);
        } else {
            self.out_adj[dst.index()].retain(|&(_, e)| e != id);
        }
        self.live_edges -= 1;
        Ok(())
    }

    /// Removes a node and all incident edges. Ids are never reused.
    pub fn remove_node(&mut self, id: NodeId) -> Result<(), GraphError> {
        self.check_node(id)?;
        let incident: Vec<EdgeId> = self
            .out_adj[id.index()]
            .iter()
            .map(|&(_, e)| e)
            .chain(self.in_adj[id.index()].iter().map(|&(_, e)| e))
            .collect();
        for e in incident {
            if self.contains_edge(e) {
                self.remove_edge(e)?;
            }
        }
        self.edit_node(id, |n| n.removed = true);
        self.live_nodes -= 1;
        Ok(())
    }

    /// The label of a live node.
    pub fn node_label(&self, id: NodeId) -> Result<&str, GraphError> {
        self.check_node(id)?;
        Ok(&self.nodes[id.index()].label)
    }

    /// Replaces a node's label.
    pub fn set_node_label(
        &mut self,
        id: NodeId,
        label: impl Into<String>,
    ) -> Result<(), GraphError> {
        self.check_node(id)?;
        let label = label.into();
        self.edit_node(id, |n| n.label = label);
        Ok(())
    }

    /// The attributes of a live node.
    pub fn node_attrs(&self, id: NodeId) -> Result<&Attrs, GraphError> {
        self.check_node(id)?;
        Ok(&self.nodes[id.index()].attrs)
    }

    /// Replaces all attributes of a live node.
    pub fn set_node_attrs(&mut self, id: NodeId, attrs: Attrs) -> Result<(), GraphError> {
        self.check_node(id)?;
        self.edit_node(id, |n| n.attrs = attrs);
        Ok(())
    }

    /// Sets one node attribute.
    pub fn set_node_attr(
        &mut self,
        id: NodeId,
        key: impl Into<String>,
        value: impl Into<AttrValue>,
    ) -> Result<(), GraphError> {
        self.check_node(id)?;
        let (key, value) = (key.into(), value.into());
        self.edit_node(id, |n| {
            n.attrs.insert(key, value);
        });
        Ok(())
    }

    /// The label of a live edge.
    pub fn edge_label(&self, id: EdgeId) -> Result<&str, GraphError> {
        if !self.contains_edge(id) {
            return Err(GraphError::EdgeNotFound(id));
        }
        Ok(&self.edges[id.index()].label)
    }

    /// Replaces an edge's label.
    pub fn set_edge_label(
        &mut self,
        id: EdgeId,
        label: impl Into<String>,
    ) -> Result<(), GraphError> {
        if !self.contains_edge(id) {
            return Err(GraphError::EdgeNotFound(id));
        }
        let label = label.into();
        self.edit_edge(id, |e| e.label = label);
        Ok(())
    }

    /// The attributes of a live edge.
    pub fn edge_attrs(&self, id: EdgeId) -> Result<&Attrs, GraphError> {
        if !self.contains_edge(id) {
            return Err(GraphError::EdgeNotFound(id));
        }
        Ok(&self.edges[id.index()].attrs)
    }

    /// Sets one edge attribute.
    pub fn set_edge_attr(
        &mut self,
        id: EdgeId,
        key: impl Into<String>,
        value: impl Into<AttrValue>,
    ) -> Result<(), GraphError> {
        if !self.contains_edge(id) {
            return Err(GraphError::EdgeNotFound(id));
        }
        let (key, value) = (key.into(), value.into());
        self.edit_edge(id, |e| {
            e.attrs.insert(key, value);
        });
        Ok(())
    }

    /// The `(src, dst)` endpoints of a live edge.
    pub fn edge_endpoints(&self, id: EdgeId) -> Result<(NodeId, NodeId), GraphError> {
        if !self.contains_edge(id) {
            return Err(GraphError::EdgeNotFound(id));
        }
        let e = &self.edges[id.index()];
        Ok((e.src, e.dst))
    }

    /// Iterator over live node ids, in ascending id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.removed)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Iterator over live edge ids, in ascending id order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.removed)
            .map(|(i, _)| EdgeId(i as u32))
    }

    /// Out-neighbours of `id` as `(neighbour, edge)` pairs. For undirected
    /// graphs this is all neighbours.
    pub fn neighbors(&self, id: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.out_adj
            .get(id.index())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
    }

    /// In-neighbours of `id`. Empty for undirected graphs — use
    /// [`Graph::neighbors`] there.
    pub fn in_neighbors(&self, id: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.in_adj
            .get(id.index())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
    }

    /// All neighbours regardless of direction (union of out and in lists).
    pub fn undirected_neighbors(&self, id: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.neighbors(id).chain(self.in_neighbors(id))
    }

    /// Out-degree of a node (total degree for undirected graphs).
    pub fn degree(&self, id: NodeId) -> usize {
        self.out_adj.get(id.index()).map_or(0, |v| v.len())
    }

    /// In-degree of a node (0 for undirected graphs).
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.in_adj.get(id.index()).map_or(0, |v| v.len())
    }

    /// Total degree: out + in for directed graphs, degree for undirected.
    pub fn total_degree(&self, id: NodeId) -> usize {
        self.degree(id) + self.in_degree(id)
    }

    /// Rebuilds the graph with dense, gap-free ids.
    ///
    /// Returns the compacted graph and, for each old live node id, its new id
    /// (`mapping[old.index()] == Some(new)`).
    pub fn compact(&self) -> (Graph, Vec<Option<NodeId>>) {
        let mut mapping: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut g = Graph::new(self.direction);
        g.set_name(self.name.clone());
        for id in self.node_ids() {
            let slot = &self.nodes[id.index()];
            let new = g.add_node_with_attrs(slot.label.clone(), slot.attrs.clone());
            mapping[id.index()] = Some(new);
        }
        for eid in self.edge_ids() {
            let e = &self.edges[eid.index()];
            // Both endpoints of a live edge are live, so the mapping always
            // resolves; a compacted edge cannot collide because the source
            // graph held it without collision.
            if let (Some(src), Some(dst)) = (mapping[e.src.index()], mapping[e.dst.index()]) {
                let added = g.add_edge_with_attrs(src, dst, e.label.clone(), e.attrs.clone());
                debug_assert!(added.is_ok(), "compacted edges cannot collide");
            } else {
                debug_assert!(false, "live edge endpoint must be live");
            }
        }
        (g, mapping)
    }

    /// Builds the subgraph induced by `nodes` (live ids only).
    ///
    /// Returns the subgraph plus the mapping from old node ids to new.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<Option<NodeId>>) {
        let mut mapping: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut g = Graph::new(self.direction);
        g.set_name(format!("{}-sub", self.name));
        for &id in nodes {
            if self.contains_node(id) && mapping[id.index()].is_none() {
                let slot = &self.nodes[id.index()];
                mapping[id.index()] =
                    Some(g.add_node_with_attrs(slot.label.clone(), slot.attrs.clone()));
            }
        }
        for eid in self.edge_ids() {
            let e = &self.edges[eid.index()];
            if let (Some(src), Some(dst)) = (mapping[e.src.index()], mapping[e.dst.index()]) {
                let added = g.add_edge_with_attrs(src, dst, e.label.clone(), e.attrs.clone());
                debug_assert!(added.is_ok(), "induced edges cannot collide");
            }
        }
        (g, mapping)
    }

    /// Sorted multiset of node labels — a cheap structural fingerprint used by
    /// the classifiers and tests.
    pub fn label_histogram(&self) -> Vec<(String, usize)> {
        let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
        for id in self.node_ids() {
            *counts.entry(&self.nodes[id.index()].label).or_default() += 1;
        }
        counts
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::undirected();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let c = g.add_node("C");
        g.add_edge(a, b, "x").unwrap();
        g.add_edge(b, c, "y").unwrap();
        (g, a, b, c)
    }

    #[test]
    fn add_and_query_nodes_edges() {
        let (g, a, b, c) = path3();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.node_label(a).unwrap(), "A");
        assert!(g.has_edge(a, b));
        assert!(g.has_edge(b, a));
        assert!(!g.has_edge(a, c));
        assert_eq!(g.degree(b), 2);
    }

    #[test]
    fn directed_edges_are_oriented() {
        let mut g = Graph::directed();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_edge(a, b, "r").unwrap();
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
        assert_eq!(g.degree(a), 1);
        assert_eq!(g.in_degree(b), 1);
        assert_eq!(g.total_degree(b), 1);
        // Reverse edge is a distinct edge, not a duplicate.
        g.add_edge(b, a, "r").unwrap();
        assert!(g.has_edge(b, a));
    }

    #[test]
    fn duplicate_and_self_loop_rejected() {
        let (mut g, a, b, _) = path3();
        assert_eq!(
            g.add_edge(a, b, "z").unwrap_err(),
            GraphError::DuplicateEdge(a, b)
        );
        assert_eq!(
            g.add_edge(b, a, "z").unwrap_err(),
            GraphError::DuplicateEdge(b, a)
        );
        assert_eq!(g.add_edge(a, a, "z").unwrap_err(), GraphError::SelfLoop(a));
    }

    #[test]
    fn remove_edge_keeps_ids_stable() {
        let (mut g, a, b, c) = path3();
        let e = g.find_edge(a, b).unwrap();
        g.remove_edge(e).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(a, b));
        assert!(g.has_edge(b, c));
        assert_eq!(g.remove_edge(e).unwrap_err(), GraphError::EdgeNotFound(e));
        // Re-adding after removal works and yields a fresh id.
        let e2 = g.add_edge(a, b, "x2").unwrap();
        assert_ne!(e, e2);
    }

    #[test]
    fn remove_node_cascades_to_incident_edges() {
        let (mut g, a, b, c) = path3();
        g.remove_node(b).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.contains_node(b));
        assert!(g.contains_node(a) && g.contains_node(c));
        assert!(g.node_label(b).is_err());
    }

    #[test]
    fn remove_node_directed_cascades_incoming() {
        let mut g = Graph::directed();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_edge(a, b, "r").unwrap();
        g.remove_node(b).unwrap();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(a), 0);
    }

    #[test]
    fn attrs_roundtrip() {
        let (mut g, a, _, _) = path3();
        g.set_node_attr(a, "age", 30i64).unwrap();
        assert_eq!(g.node_attrs(a).unwrap()["age"].as_int(), Some(30));
        let e = g.edge_ids().next().unwrap();
        g.set_edge_attr(e, "w", AttrValue::Float(0.5)).unwrap();
        assert_eq!(g.edge_attrs(e).unwrap()["w"].as_float(), Some(0.5));
    }

    #[test]
    fn labels_can_be_rewritten() {
        let (mut g, a, _, _) = path3();
        g.set_node_label(a, "Z").unwrap();
        assert_eq!(g.node_label(a).unwrap(), "Z");
        let e = g.edge_ids().next().unwrap();
        g.set_edge_label(e, "zz").unwrap();
        assert_eq!(g.edge_label(e).unwrap(), "zz");
    }

    #[test]
    fn compact_renumbers_densely() {
        let (mut g, a, b, c) = path3();
        g.remove_node(a).unwrap();
        let (dense, mapping) = g.compact();
        assert_eq!(dense.node_count(), 2);
        assert_eq!(dense.edge_count(), 1);
        assert_eq!(mapping[a.index()], None);
        let nb = mapping[b.index()].unwrap();
        let nc = mapping[c.index()].unwrap();
        assert!(dense.has_edge(nb, nc));
        assert_eq!(dense.node_bound(), 2);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let (g, a, b, c) = path3();
        let (sub, mapping) = g.induced_subgraph(&[a, b]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert!(mapping[c.index()].is_none());
    }

    #[test]
    fn induced_subgraph_ignores_duplicates_and_dead_nodes() {
        let (mut g, a, b, _) = path3();
        g.remove_node(a).unwrap();
        let (sub, _) = g.induced_subgraph(&[a, b, b]);
        assert_eq!(sub.node_count(), 1);
    }

    #[test]
    fn label_histogram_sorted() {
        let mut g = Graph::undirected();
        g.add_node("C");
        g.add_node("O");
        g.add_node("C");
        assert_eq!(
            g.label_histogram(),
            vec![("C".to_owned(), 2), ("O".to_owned(), 1)]
        );
    }

    #[test]
    fn node_ids_skip_tombstones() {
        let (mut g, a, _, _) = path3();
        g.remove_node(a).unwrap();
        let ids: Vec<_> = g.node_ids().collect();
        assert_eq!(ids.len(), 2);
        assert!(!ids.contains(&a));
    }

    #[test]
    fn json_roundtrip_preserves_structure() {
        let (g, a, b, _) = path3();
        let s = chatgraph_support::json::to_string(&g);
        let back: Graph = chatgraph_support::json::from_str(&s).unwrap();
        assert_eq!(back.node_count(), 3);
        assert!(back.has_edge(a, b));
    }

    #[test]
    fn display_ids() {
        assert_eq!(NodeId(3).to_string(), "v3");
        assert_eq!(EdgeId(0).to_string(), "e0");
    }

    #[test]
    fn error_display() {
        let e = GraphError::DuplicateEdge(NodeId(1), NodeId(2));
        assert!(e.to_string().contains("already exists"));
    }
}
