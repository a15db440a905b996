//! Length-constrained path cover.
//!
//! For each node `u`, a BFS tree of depth ≤ ℓ is grown and every root-to-leaf
//! tree path is emitted. The union of these paths covers every node within
//! ℓ hops of `u` (each tree node lies on the path to some leaf below/at it),
//! which is exactly the covering property the paper imports from its prior
//! privacy-preserving pattern-query work \[11\], \[12\].
//!
//! The number of paths from one root equals the number of leaves of the BFS
//! tree, so the total is at most `O(|G|·2^ℓ)` on bounded-degree graphs — the
//! bound stated in §II-B and measured by experiment E5.

use chatgraph_graph::{Graph, NodeId};

/// Parameters for [`path_cover`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverParams {
    /// Maximum path length ℓ in edges. 0 yields one singleton path per node.
    pub max_length: usize,
    /// Drop single-node paths whose node already appears on a longer path.
    /// Keeps the token stream free of redundant singletons while preserving
    /// the covering property.
    pub dedup_singletons: bool,
}

impl Default for CoverParams {
    fn default() -> Self {
        CoverParams {
            max_length: 3,
            dedup_singletons: true,
        }
    }
}

/// A set of covering paths over a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathCover {
    /// Paths as node-id sequences (each of length ≥ 1 node, ≤ ℓ+1 nodes).
    pub paths: Vec<Vec<NodeId>>,
    /// ℓ used.
    pub max_length: usize,
}

impl PathCover {
    /// Total number of paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when no paths were produced (empty graph).
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The paper's stated bound `|G| · 2^ℓ` on the number of paths. It holds
    /// for the degree-bounded graphs of the paper's setting; see
    /// [`PathCover::degree_bound`] for the bound that holds unconditionally.
    pub fn paper_bound(node_count: usize, max_length: usize) -> usize {
        node_count.saturating_mul(1usize << max_length.min(60))
    }

    /// Unconditional bound: a depth-ℓ BFS tree with maximum degree Δ has at
    /// most `Δ·(Δ−1)^(ℓ−1)` leaves, so the cover emits at most
    /// `n · Δ·(Δ−1)^(ℓ−1)` paths (and `n` for ℓ = 0).
    pub fn degree_bound(node_count: usize, max_degree: usize, max_length: usize) -> usize {
        if max_length == 0 || max_degree == 0 {
            return node_count;
        }
        let mut leaves = max_degree as u128;
        for _ in 1..max_length {
            leaves = leaves.saturating_mul(max_degree.saturating_sub(1).max(1) as u128);
        }
        (node_count as u128)
            .saturating_mul(leaves)
            .min(usize::MAX as u128) as usize
    }

    /// Checks the covering property: every node within `ℓ` hops of `root`
    /// appears on some path starting at `root`.
    pub fn covers_ball(&self, g: &Graph, root: NodeId) -> bool {
        use chatgraph_graph::algo::traversal::bfs_distances;
        let reachable: Vec<NodeId> = bfs_distances(g, root, self.max_length)
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_some())
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let mut on_paths: std::collections::HashSet<NodeId> = Default::default();
        for p in self.paths.iter().filter(|p| p.first() == Some(&root)) {
            on_paths.extend(p.iter().copied());
        }
        reachable.iter().all(|v| on_paths.contains(v))
    }
}

/// Computes the length-constrained path cover of `g`: every root's paths
/// in root order, then the kept singletons.
pub fn path_cover(g: &Graph, params: &CoverParams) -> PathCover {
    let mut paths = Vec::new();
    for_each_path(g, params, |p| paths.push(p.to_vec()));
    PathCover {
        paths,
        max_length: params.max_length,
    }
}

/// Visits the paths of [`path_cover`] in its order without collecting
/// them, each passed to `emit` as a borrowed slice. With
/// `dedup_singletons`, a singleton path `[v]` is dropped when `v` lies on
/// a longer path, so the singletons wait until every longer path is out.
pub(crate) fn for_each_path(g: &Graph, params: &CoverParams, mut emit: impl FnMut(&[NodeId])) {
    let mut walker = Walker::new(g);
    let mut covered = vec![false; g.node_bound()];
    let mut singletons = Vec::new();
    for root in g.node_ids() {
        walker.root_paths(g, root, params.max_length, |p| {
            if p.len() > 1 {
                for v in p {
                    covered[v.index()] = true;
                }
                emit(p);
            } else {
                singletons.push(p[0]);
            }
        });
    }
    for v in singletons {
        if !(params.dedup_singletons && covered[v.index()]) {
            emit(&[v]);
        }
    }
}

/// Visits the node-level counts of [`for_each_path`]'s paths without
/// building them: `visit(v, parent, k)` for every tree node `v` that lies on
/// `k` emitted paths, `parent` being its BFS parent on those paths (`None`
/// for the root). A root's depth-≤ℓ BFS tree is walked once: a node lies on
/// as many root-to-leaf paths as it has leaves below it. Singletons are
/// kept or dropped exactly as [`for_each_path`] keeps or drops them.
pub(crate) fn for_each_tree_count(
    g: &Graph,
    params: &CoverParams,
    mut visit: impl FnMut(NodeId, Option<NodeId>, u64),
) {
    let mut walker = Walker::new(g);
    let mut covered = vec![false; g.node_bound()];
    let mut leaves = vec![0u64; g.node_bound()];
    let mut singletons = Vec::new();
    for root in g.node_ids() {
        walker.grow(g, root, params.max_length);
        if !walker.has_child[root.index()] {
            singletons.push(root);
            continue;
        }
        // Children follow their parents in BFS order, so in a reverse pass
        // each node's leaf count is complete when it is reached.
        for &v in walker.order.iter().rev() {
            let k = if walker.has_child[v.index()] {
                std::mem::take(&mut leaves[v.index()])
            } else {
                1
            };
            let parent = walker.parent[v.index()];
            if let Some(p) = parent {
                leaves[p.index()] += k;
            }
            covered[v.index()] = true;
            visit(v, parent, k);
        }
    }
    for v in singletons {
        if !(params.dedup_singletons && covered[v.index()]) {
            visit(v, None, 1);
        }
    }
}

/// BFS scratch reused across roots: only the slots a root's BFS touched
/// are reset before the next.
struct Walker {
    parent: Vec<Option<NodeId>>,
    seen: Vec<bool>,
    has_child: Vec<bool>,
    /// The current tree's nodes in BFS order; it is also the BFS queue.
    order: Vec<NodeId>,
    path: Vec<NodeId>,
}

impl Walker {
    fn new(g: &Graph) -> Walker {
        let bound = g.node_bound();
        Walker {
            parent: vec![None; bound],
            seen: vec![false; bound],
            has_child: vec![false; bound],
            order: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Grows the depth-≤ℓ BFS tree rooted at `root`: its nodes in BFS
    /// order in `order`, with their `parent` and `has_child` entries.
    fn grow(&mut self, g: &Graph, root: NodeId, max_len: usize) {
        for v in self.order.drain(..) {
            self.parent[v.index()] = None;
            self.seen[v.index()] = false;
            self.has_child[v.index()] = false;
        }
        self.seen[root.index()] = true;
        self.order.push(root);
        // One level per round: `order[start..end]` is the frontier at the
        // current depth, and nodes at depth ℓ are not expanded.
        let mut start = 0;
        for _ in 0..max_len {
            let end = self.order.len();
            if start == end {
                break;
            }
            for i in start..end {
                let v = self.order[i];
                for (w, _) in g.undirected_neighbors(v) {
                    if !self.seen[w.index()] {
                        self.seen[w.index()] = true;
                        self.parent[w.index()] = Some(v);
                        self.has_child[v.index()] = true;
                        self.order.push(w);
                    }
                }
            }
            start = end;
        }
    }

    /// Emits the root-to-leaf paths of the depth-≤ℓ BFS tree rooted at
    /// `root`.
    fn root_paths(&mut self, g: &Graph, root: NodeId, max_len: usize, mut emit: impl FnMut(&[NodeId])) {
        self.grow(g, root, max_len);
        // Leaves of the BFS tree (including the root when it is isolated).
        for &v in &self.order {
            if !self.has_child[v.index()] {
                self.path.clear();
                self.path.push(v);
                let mut cur = v;
                while let Some(p) = self.parent[cur.index()] {
                    self.path.push(p);
                    cur = p;
                }
                self.path.reverse();
                emit(&self.path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatgraph_graph::generators::{erdos_renyi, ErParams};
    use chatgraph_graph::GraphBuilder;

    fn line4() -> Graph {
        GraphBuilder::undirected()
            .edge("a", "b", "-")
            .edge("b", "c", "-")
            .edge("c", "d", "-")
            .build()
    }

    #[test]
    fn paths_respect_length_bound() {
        let g = line4();
        let cover = path_cover(&g, &CoverParams { max_length: 2, dedup_singletons: true });
        for p in &cover.paths {
            assert!(p.len() <= 3, "path too long: {p:?}");
            assert!(!p.is_empty());
            // consecutive nodes are adjacent
            for w in p.windows(2) {
                assert!(g.has_edge(w[0], w[1]) || g.has_edge(w[1], w[0]));
            }
        }
    }

    #[test]
    fn every_root_ball_is_covered() {
        let g = erdos_renyi(&ErParams { nodes: 40, edge_prob: 0.1 }, 3);
        let params = CoverParams { max_length: 2, dedup_singletons: false };
        let cover = path_cover(&g, &params);
        for root in g.node_ids() {
            assert!(cover.covers_ball(&g, root), "ball of {root} uncovered");
        }
    }

    #[test]
    fn count_within_degree_bound() {
        for l in 0..=4 {
            let g = erdos_renyi(&ErParams { nodes: 30, edge_prob: 0.08 }, 11);
            let max_deg = g.node_ids().map(|v| g.total_degree(v)).max().unwrap_or(0);
            let cover = path_cover(&g, &CoverParams { max_length: l, dedup_singletons: false });
            let bound = PathCover::degree_bound(g.node_count(), max_deg, l);
            assert!(
                cover.len() <= bound,
                "l={l}: {} paths exceed bound {bound}",
                cover.len()
            );
        }
    }

    #[test]
    fn paper_bound_holds_on_degree_two_graphs() {
        // A cycle has max degree 2, the regime where the paper's |G|·2^ℓ
        // bound applies directly.
        let mut b = GraphBuilder::undirected();
        for i in 0..12 {
            b = b.edge(format!("n{i}"), format!("n{}", (i + 1) % 12), "-");
        }
        let g = b.build();
        for l in 0..=4 {
            let cover = path_cover(&g, &CoverParams { max_length: l, dedup_singletons: false });
            assert!(cover.len() <= PathCover::paper_bound(g.node_count(), l));
        }
    }

    #[test]
    fn zero_length_gives_singletons() {
        let g = line4();
        let cover = path_cover(&g, &CoverParams { max_length: 0, dedup_singletons: false });
        assert_eq!(cover.len(), 4);
        assert!(cover.paths.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn dedup_singletons_drops_covered_nodes() {
        let g = line4();
        let with = path_cover(&g, &CoverParams { max_length: 2, dedup_singletons: true });
        assert!(with.paths.iter().all(|p| p.len() > 1));
    }

    #[test]
    fn isolated_node_keeps_its_singleton() {
        let mut g = line4();
        let iso = g.add_node("Z");
        let cover = path_cover(&g, &CoverParams::default());
        assert!(cover.paths.iter().any(|p| p == &vec![iso]));
    }

    #[test]
    fn empty_graph_yields_no_paths() {
        let g = Graph::undirected();
        assert!(path_cover(&g, &CoverParams::default()).is_empty());
    }

    #[test]
    fn line_end_to_end_path_present() {
        let g = line4();
        let cover = path_cover(&g, &CoverParams { max_length: 3, dedup_singletons: true });
        assert!(cover
            .paths
            .iter()
            .any(|p| p.len() == 4), "expected the full line as one path");
    }
}
