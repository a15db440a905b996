//! Compressed sparse row (CSR) snapshots of a [`Graph`].
//!
//! The mutable [`Graph`] stores adjacency as `Vec<Vec<(NodeId, EdgeId)>>`
//! with tombstoned slots — flexible for the edit APIs, but pointer-chasing
//! and tombstone-skipping on every analysis call. [`CsrGraph`] is an
//! immutable, cache-friendly snapshot of the *live* structure:
//!
//! * a dense remap of live nodes (`node_of` / `dense_of`), so kernels index
//!   flat arrays with no tombstone checks;
//! * out-adjacency as one packed `offsets` / `targets` / `edges` triple,
//!   each row sorted by ascending dense target (ties by edge id);
//! * for directed graphs, an in-CSR of the same shape plus a merged,
//!   deduplicated *undirected view* (the traversal algorithms in
//!   [`crate::algo`] treat directed graphs as undirected);
//! * degrees read off the row offsets in O(1).
//!
//! [`CsrGraph::build`] is the only way to make one, so the layout is a
//! function of the graph's live structure and equality is derived.
//!
//! # One snapshot per graph version
//!
//! Each [`Graph`] carries its own snapshot: [`Graph::csr`] builds it on
//! first use, at most once per version, and every later call (from any
//! thread, any session, any clone of that version) returns the same `Arc`.
//! A structural edit (a slot appended or tombstoned) drops the built
//! snapshot, so the next `csr()` rebuilds; label and attribute edits keep
//! it, because the CSR holds no labels. The snapshot therefore lives and
//! dies with the graph version it describes: there is no cache to key,
//! evict or size.

use crate::graph::{EdgeId, Graph, NodeId};
use std::ops::Range;

/// Dense id of a live node inside a [`CsrGraph`].
pub type DenseId = u32;

const NO_DENSE: u32 = u32::MAX;

/// One adjacency family (out / in / undirected view), packed: row `d` is
/// `targets[offsets[d] .. offsets[d + 1]]`, with `edges` parallel to
/// `targets` (empty for the undirected view, which carries no edge ids).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Adjacency {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    edges: Vec<EdgeId>,
}

impl Adjacency {
    /// Packs one row per node of `node_of` from `row(v)`'s neighbours,
    /// dense-mapped and sorted by (target, edge id).
    fn pack<I: Iterator<Item = (NodeId, EdgeId)>>(
        node_of: &[NodeId],
        dense_of: &[u32],
        row: impl Fn(NodeId) -> I,
    ) -> Adjacency {
        let mut adj = Adjacency {
            offsets: Vec::with_capacity(node_of.len() + 1),
            ..Adjacency::default()
        };
        adj.offsets.push(0);
        let mut scratch: Vec<(u32, EdgeId)> = Vec::new();
        for &v in node_of {
            scratch.clear();
            scratch.extend(row(v).map(|(w, e)| (dense_of[w.index()], e)));
            scratch.sort_unstable_by_key(|&(t, e)| (t, e.0));
            for &(t, e) in &scratch {
                adj.targets.push(t);
                adj.edges.push(e);
            }
            adj.offsets.push(adj.targets.len() as u32);
        }
        adj
    }

    fn row(&self, d: usize) -> Range<usize> {
        self.offsets[d] as usize..self.offsets[d + 1] as usize
    }

    fn targets(&self, d: usize) -> &[u32] {
        &self.targets[self.row(d)]
    }

    fn edge_ids(&self, d: usize) -> &[EdgeId] {
        &self.edges[self.row(d)]
    }
}

/// An immutable CSR snapshot of a graph's live structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    directed: bool,
    node_bound: usize,
    edge_bound: usize,
    /// Dense id → original node id, ascending.
    node_of: Vec<NodeId>,
    /// Original slot index → dense id (`u32::MAX` for removed slots).
    dense_of: Vec<u32>,
    out: Adjacency,
    /// Directed only; zero rows for undirected graphs (the out-CSR already
    /// stores each edge under both endpoints).
    inn: Adjacency,
    /// Undirected view: merged out ∪ in targets, sorted and deduplicated.
    /// For undirected graphs this aliases the out-CSR (no copy is kept).
    undv: Adjacency,
    live_edges: usize,
}

impl CsrGraph {
    /// Builds a snapshot of `g`'s live nodes and edges.
    pub fn build(g: &Graph) -> CsrGraph {
        let node_of: Vec<NodeId> = g.node_ids().collect();
        let n = node_of.len();
        let mut dense_of = vec![NO_DENSE; g.node_bound()];
        for (d, v) in node_of.iter().enumerate() {
            dense_of[v.index()] = d as u32;
        }

        let out = Adjacency::pack(&node_of, &dense_of, |v| g.neighbors(v));
        let (mut inn, mut undv) = (Adjacency::default(), Adjacency::default());
        if g.is_directed() {
            inn = Adjacency::pack(&node_of, &dense_of, |v| g.in_neighbors(v));
            // Undirected view: merge the two sorted target runs and drop
            // duplicates (an a→b plus b→a pair is one undirected neighbour).
            undv.offsets.reserve(n + 1);
            undv.offsets.push(0);
            let mut merged: Vec<u32> = Vec::new();
            for d in 0..n {
                merged.clear();
                merged.extend_from_slice(out.targets(d));
                merged.extend_from_slice(inn.targets(d));
                merged.sort_unstable();
                merged.dedup();
                undv.targets.extend_from_slice(&merged);
                undv.offsets.push(undv.targets.len() as u32);
            }
        }

        CsrGraph {
            directed: g.is_directed(),
            node_bound: g.node_bound(),
            edge_bound: g.edge_bound(),
            node_of,
            dense_of,
            out,
            inn,
            undv,
            live_edges: g.edge_count(),
        }
    }

    /// Number of live nodes.
    pub fn n(&self) -> usize {
        self.node_of.len()
    }

    /// Number of live edges.
    pub fn m(&self) -> usize {
        self.live_edges
    }

    /// Whether the snapshotted graph was directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Node-slot bound of the snapshotted graph (for slot-indexed outputs).
    pub fn node_bound(&self) -> usize {
        self.node_bound
    }

    /// Edge-slot bound of the snapshotted graph (for slot-indexed weights).
    pub fn edge_bound(&self) -> usize {
        self.edge_bound
    }

    /// Original id of dense node `d`.
    pub fn node_of(&self, d: DenseId) -> NodeId {
        self.node_of[d as usize]
    }

    /// All original ids, ascending (dense order).
    pub fn nodes(&self) -> &[NodeId] {
        &self.node_of
    }

    /// Dense id of a live original node, `None` for removed/unknown slots.
    pub fn dense_of(&self, v: NodeId) -> Option<DenseId> {
        match self.dense_of.get(v.index()) {
            Some(&d) if d != NO_DENSE => Some(d),
            _ => None,
        }
    }

    /// Out-neighbour dense ids of `d`, sorted ascending.
    pub fn out(&self, d: DenseId) -> &[u32] {
        self.out.targets(d as usize)
    }

    /// Edge ids parallel to [`CsrGraph::out`].
    pub fn out_edge_ids(&self, d: DenseId) -> &[EdgeId] {
        self.out.edge_ids(d as usize)
    }

    /// In-neighbour dense ids of `d` (directed; empty for undirected).
    pub fn incoming(&self, d: DenseId) -> &[u32] {
        if !self.directed {
            return &[];
        }
        self.inn.targets(d as usize)
    }

    /// Edge ids parallel to [`CsrGraph::incoming`].
    pub fn incoming_edge_ids(&self, d: DenseId) -> &[EdgeId] {
        if !self.directed {
            return &[];
        }
        self.inn.edge_ids(d as usize)
    }

    /// Sources whose edges point *at* `d` under PageRank's mass-flow view:
    /// the in-CSR for directed graphs, the (symmetric) out-CSR otherwise.
    pub fn pull_sources(&self, d: DenseId) -> &[u32] {
        if self.directed {
            self.incoming(d)
        } else {
            self.out(d)
        }
    }

    /// Undirected-view neighbour dense ids of `d`: sorted, deduplicated
    /// union of out- and in-neighbours. For undirected graphs this is the
    /// out-CSR itself.
    pub fn und(&self, d: DenseId) -> &[u32] {
        if !self.directed {
            return self.out(d);
        }
        self.undv.targets(d as usize)
    }

    /// Out-degree of `d` (matches [`Graph::degree`]).
    pub fn degree(&self, d: DenseId) -> usize {
        self.out(d).len()
    }

    /// In-degree of `d` (matches [`Graph::in_degree`]).
    pub fn in_degree(&self, d: DenseId) -> usize {
        self.incoming(d).len()
    }

    /// Total degree of `d` (matches [`Graph::total_degree`]).
    pub fn total_degree(&self, d: DenseId) -> usize {
        self.degree(d) + self.in_degree(d)
    }
}

/// One recorded snapshot build, drained by the executor for monitoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrBuild {
    /// Live nodes in the snapshot.
    pub nodes: usize,
    /// Live edges in the snapshot.
    pub edges: usize,
    /// Wall-clock build time in microseconds.
    pub micros: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use std::sync::Arc;

    /// Golden layout fixture: a small directed graph with a removed node,
    /// pinning the exact dense remap and all three adjacency families.
    #[test]
    fn golden_directed_layout_with_deletion() {
        // a→b (e0), a→c (e1), c→b (e2), b→a (e3), d→a (e4); then remove d.
        let mut g = GraphBuilder::directed()
            .edge("a", "b", "r")
            .edge("a", "c", "r")
            .edge("c", "b", "r")
            .edge("b", "a", "r")
            .edge("d", "a", "r")
            .build();
        let d = NodeId(3);
        g.remove_node(d).expect("d exists");
        let csr = CsrGraph::build(&g);

        assert!(csr.is_directed());
        assert_eq!(csr.n(), 3);
        assert_eq!(csr.m(), 4);
        assert_eq!(csr.nodes(), &[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(csr.dense_of(NodeId(0)), Some(0));
        assert_eq!(csr.dense_of(NodeId(3)), None, "removed slot has no dense id");

        // Out rows: a→{b,c}, b→{a}, c→{b}; targets sorted ascending.
        assert_eq!(csr.out(0), &[1, 2]);
        assert_eq!(csr.out(1), &[0]);
        assert_eq!(csr.out(2), &[1]);
        assert_eq!(csr.out_edge_ids(0), &[EdgeId(0), EdgeId(1)]);
        assert_eq!(csr.out_edge_ids(1), &[EdgeId(3)]);
        assert_eq!(csr.out_edge_ids(2), &[EdgeId(2)]);

        // In rows: a←{b}, b←{a,c}, c←{a}. (d→a died with d.)
        assert_eq!(csr.incoming(0), &[1]);
        assert_eq!(csr.incoming(1), &[0, 2]);
        assert_eq!(csr.incoming(2), &[0]);
        assert_eq!(csr.incoming_edge_ids(0), &[EdgeId(3)]);
        assert_eq!(csr.incoming_edge_ids(1), &[EdgeId(0), EdgeId(2)]);
        assert_eq!(csr.incoming_edge_ids(2), &[EdgeId(1)]);

        // Undirected view dedups the a↔b reciprocal pair.
        assert_eq!(csr.und(0), &[1, 2]);
        assert_eq!(csr.und(1), &[0, 2]);
        assert_eq!(csr.und(2), &[0, 1]);

        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.in_degree(1), 2);
        assert_eq!(csr.total_degree(1), 3);
    }

    #[test]
    fn undirected_und_view_aliases_out() {
        let g = GraphBuilder::undirected()
            .edge("a", "b", "-")
            .edge("b", "c", "-")
            .build();
        let csr = CsrGraph::build(&g);
        assert_eq!(csr.n(), 3);
        assert_eq!(csr.m(), 2);
        assert_eq!(csr.und(1), csr.out(1));
        assert_eq!(csr.und(1), &[0, 2]);
        assert!(csr.incoming(1).is_empty());
        assert_eq!(csr.total_degree(1), 2, "undirected out-CSR is total degree");
    }

    /// A graph builds its snapshot once per version; a structural edit
    /// drops it, and the edited version builds its own.
    #[test]
    fn graph_builds_once_then_rebuilds_after_an_edit() {
        let mut g = GraphBuilder::undirected()
            .edge("a", "b", "-")
            .edge("b", "c", "-")
            .build();
        let (first, built) = g.csr_tracked();
        assert_eq!(built.map(|b| (b.nodes, b.edges)), Some((3, 2)), "the first call builds");
        let (again, built) = g.csr_tracked();
        assert!(Arc::ptr_eq(&first, &again), "same version: same snapshot");
        assert!(built.is_none(), "no second build");

        let v = g.add_node("d");
        g.add_edge(v, NodeId(0), "-").expect("nodes exist");
        let (csr, built) = g.csr_tracked();
        assert_eq!(built.map(|b| (b.nodes, b.edges)), Some((4, 3)), "the edit version builds");
        assert!(!Arc::ptr_eq(&first, &csr));
        assert_eq!(*csr, CsrGraph::build(&g));
    }

    /// A relabel or an attribute edit keeps the snapshot (the CSR holds
    /// no labels); a copy-on-write edit gives the new version its own
    /// snapshot and leaves the shared one alone.
    #[test]
    fn relabels_keep_the_snapshot_and_cow_edits_replace_it() {
        let mut g = Arc::new(GraphBuilder::undirected().edge("a", "b", "-").build());
        let first = g.csr();
        Arc::make_mut(&mut g)
            .set_node_label(NodeId(0), "z")
            .expect("node exists");
        assert!(
            Arc::ptr_eq(&first, &g.csr()),
            "a relabel keeps the snapshot"
        );
        Arc::make_mut(&mut g)
            .set_node_attr(NodeId(0), "k", 1i64)
            .expect("node exists");
        assert!(Arc::ptr_eq(&first, &g.csr()), "an attribute edit keeps it too");

        let held = Arc::clone(&g);
        Arc::make_mut(&mut g).add_node("c");
        let rebuilt = g.csr();
        assert!(!Arc::ptr_eq(&first, &rebuilt));
        assert_eq!(rebuilt.n(), 3);
        assert_eq!(*rebuilt, CsrGraph::build(&g));
        assert!(Arc::ptr_eq(&first, &held.csr()), "the shared version keeps its snapshot");
    }

    #[test]
    fn empty_graph_snapshot() {
        let csr = CsrGraph::build(&Graph::directed());
        assert_eq!(csr.n(), 0);
        assert_eq!(csr.m(), 0);
        assert!(csr.nodes().is_empty());
    }
}
