//! Small-motif enumeration and census.
//!
//! The graph sequentialiser's multi-level mode (paper §II-B, following RUM
//! \[13\]) contracts motif instances into super-nodes. This module enumerates
//! the motif instances: triangles, wedges, and maximal cliques up to a size
//! cap, plus a 3-node census used by the understanding APIs.

use crate::graph::{Graph, NodeId};
use std::collections::HashSet;

/// The endpoints of every live edge, in edge-id order.
fn live_endpoints(g: &Graph) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
    g.edge_ids().filter_map(|e| g.edge_endpoints(e).ok())
}

/// Undirected neighbour sets, indexed by node slot.
fn neighbour_sets(g: &Graph) -> Vec<HashSet<NodeId>> {
    let mut sets: Vec<HashSet<NodeId>> = vec![HashSet::new(); g.node_bound()];
    for (a, b) in live_endpoints(g) {
        sets[a.index()].insert(b);
        sets[b.index()].insert(a);
    }
    sets
}

/// All triangles as sorted node triples, each reported once.
pub fn enumerate_triangles(g: &Graph) -> Vec<[NodeId; 3]> {
    let sets = neighbour_sets(g);
    let mut out = Vec::new();
    for (a, b) in live_endpoints(g) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        for &w in sets[lo.index()].intersection(&sets[hi.index()]) {
            if w > hi {
                out.push([lo, hi, w]);
            }
        }
    }
    out.sort();
    out
}

/// 3-node connected-subgraph census: `(wedges, triangles)`.
///
/// A wedge is an open triple (path of length 2 whose endpoints are not
/// adjacent).
pub fn triad_census(g: &Graph) -> (usize, usize) {
    let sets = neighbour_sets(g);
    let triangles = enumerate_triangles(g).len();
    let paths: usize = g
        .node_ids()
        .map(|v| {
            let k = sets[v.index()].len();
            k * k.saturating_sub(1) / 2
        })
        .sum();
    // Each triangle contributes 3 closed triples; the rest are wedges.
    (paths - 3 * triangles, triangles)
}

/// Greedy maximal-clique cover: repeatedly grows a clique from the
/// highest-degree unassigned node, assigning each node to at most one clique.
/// Cliques smaller than `min_size` are not reported. This is the motif set the
/// sequentialiser contracts into super-nodes.
pub fn greedy_clique_cover(g: &Graph, min_size: usize) -> Vec<Vec<NodeId>> {
    let sets = neighbour_sets(g);
    let mut order: Vec<NodeId> = g.node_ids().collect();
    order.sort_by_key(|&v| std::cmp::Reverse(sets[v.index()].len()));
    let mut assigned = vec![false; g.node_bound()];
    let mut cliques = Vec::new();
    for &seed in &order {
        if assigned[seed.index()] {
            continue;
        }
        let mut clique = vec![seed];
        // Candidates: unassigned neighbours of the seed, densest first.
        let mut cands: Vec<NodeId> = sets[seed.index()]
            .iter()
            .copied()
            .filter(|&w| !assigned[w.index()])
            .collect();
        cands.sort_by_key(|&v| (std::cmp::Reverse(sets[v.index()].len()), v));
        for w in cands {
            if clique.iter().all(|&c| sets[w.index()].contains(&c)) {
                clique.push(w);
            }
        }
        if clique.len() >= min_size {
            for &v in &clique {
                assigned[v.index()] = true;
            }
            clique.sort();
            cliques.push(clique);
        }
    }
    cliques.sort();
    cliques
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn two_triangles_sharing_edge() -> Graph {
        // diamond: a-b-c-a and b-c-d-b
        GraphBuilder::undirected()
            .edge("a", "b", "-")
            .edge("b", "c", "-")
            .edge("c", "a", "-")
            .edge("b", "d", "-")
            .edge("c", "d", "-")
            .build()
    }

    #[test]
    fn enumerates_both_triangles() {
        let g = two_triangles_sharing_edge();
        let tris = enumerate_triangles(&g);
        assert_eq!(tris.len(), 2);
        assert_eq!(tris[0], [NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(tris[1], [NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn census_of_diamond() {
        let g = two_triangles_sharing_edge();
        let (wedges, triangles) = triad_census(&g);
        assert_eq!(triangles, 2);
        // total connected triples: sum k(k-1)/2 = 1+3+3+1 = 8; wedges = 8-6 = 2
        assert_eq!(wedges, 2);
    }

    #[test]
    fn clique_cover_finds_triangle() {
        let g = two_triangles_sharing_edge();
        let cliques = greedy_clique_cover(&g, 3);
        assert_eq!(cliques.len(), 1, "nodes are disjointly assigned");
        assert_eq!(cliques[0].len(), 3);
    }

    #[test]
    fn clique_cover_respects_min_size() {
        let g = GraphBuilder::undirected().edge("a", "b", "-").build();
        assert!(greedy_clique_cover(&g, 3).is_empty());
        assert_eq!(greedy_clique_cover(&g, 2).len(), 1);
    }

    #[test]
    fn clique_cover_of_two_disjoint_triangles() {
        let g = GraphBuilder::undirected()
            .edge("a", "b", "-")
            .edge("b", "c", "-")
            .edge("c", "a", "-")
            .edge("x", "y", "-")
            .edge("y", "z", "-")
            .edge("z", "x", "-")
            .build();
        let cliques = greedy_clique_cover(&g, 3);
        assert_eq!(cliques.len(), 2);
    }

    #[test]
    fn triangle_free_graph() {
        let g = GraphBuilder::undirected()
            .edge("a", "b", "-")
            .edge("b", "c", "-")
            .build();
        assert!(enumerate_triangles(&g).is_empty());
        assert_eq!(triad_census(&g), (1, 0));
    }
}
