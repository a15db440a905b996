//! Multi-level structure: motif-contracted super-graphs.
//!
//! Graphs often carry multi-level structure (the paper cites protein tertiary
//! structure and social communities). Following RUM \[13\], motif instances —
//! here, cliques found by a greedy cover — are contracted into super-nodes;
//! remaining nodes become singleton super-nodes. The super-graph is then
//! sequentialised alongside the base graph so the LLM sees both levels.

use chatgraph_graph::algo::motifs::greedy_clique_cover;
use chatgraph_graph::{Graph, NodeId};

/// A motif-contracted view of a graph.
#[derive(Debug, Clone)]
pub struct SuperGraph {
    /// The contracted graph. Super-node labels are motif signatures such as
    /// `clique3[C|C|O]` or the original label for singletons.
    pub graph: Graph,
    /// For each original node slot, the super-node that absorbed it.
    pub membership: Vec<Option<NodeId>>,
    /// Number of non-trivial motifs contracted.
    pub motif_count: usize,
}

/// Builds the super-graph of `g` by contracting greedy clique motifs of size
/// ≥ `min_motif` (use 3 for triangles and up).
pub fn build_supergraph(g: &Graph, min_motif: usize) -> SuperGraph {
    let cliques = greedy_clique_cover(g, min_motif.max(2));
    let mut sg = Graph::new(g.direction());
    sg.set_name(format!("{}-super", g.name()));
    let mut membership: Vec<Option<NodeId>> = vec![None; g.node_bound()];

    for clique in &cliques {
        // Cover cliques hold live nodes only, so every label resolves.
        let mut labels: Vec<String> = clique
            .iter()
            .filter_map(|&v| g.node_label(v).ok().map(str::to_owned))
            .collect();
        labels.sort();
        let label = format!("clique{}[{}]", clique.len(), labels.join("|"));
        let sid = sg.add_node(label);
        for &v in clique {
            membership[v.index()] = Some(sid);
        }
    }
    // Singletons for uncovered nodes.
    for v in g.node_ids() {
        if let (None, Ok(label)) = (membership[v.index()], g.node_label(v)) {
            membership[v.index()] = Some(sg.add_node(label));
        }
    }
    // Super-edges: one edge between distinct super-nodes with any cross edge.
    // Live edges join live nodes, and every live node was assigned above,
    // so no edge is skipped.
    for e in g.edge_ids() {
        let Ok((a, b)) = g.edge_endpoints(e) else { continue };
        let (Some(sa), Some(sb)) = (membership[a.index()], membership[b.index()]) else {
            continue;
        };
        if sa != sb && !sg.has_edge(sa, sb) && !sg.has_edge(sb, sa) {
            // Distinct, live and checked for duplicates: the insert succeeds.
            let _ = sg.add_edge(sa, sb, "super");
        }
    }
    SuperGraph {
        graph: sg,
        membership,
        motif_count: cliques.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatgraph_graph::GraphBuilder;

    fn two_triangles_with_bridge() -> Graph {
        GraphBuilder::undirected()
            .node("a", "C").node("b", "C").node("c", "O")
            .node("x", "N").node("y", "N").node("z", "N")
            .edge("a", "b", "-").edge("b", "c", "-").edge("c", "a", "-")
            .edge("x", "y", "-").edge("y", "z", "-").edge("z", "x", "-")
            .edge("c", "x", "-")
            .build()
    }

    #[test]
    fn contracts_triangles_into_two_supernodes() {
        let g = two_triangles_with_bridge();
        let sg = build_supergraph(&g, 3);
        assert_eq!(sg.motif_count, 2);
        assert_eq!(sg.graph.node_count(), 2);
        assert_eq!(sg.graph.edge_count(), 1, "one bridge super-edge");
    }

    #[test]
    fn supernode_labels_are_sorted_signatures() {
        let g = two_triangles_with_bridge();
        let sg = build_supergraph(&g, 3);
        let labels: Vec<String> = sg
            .graph
            .node_ids()
            .map(|v| sg.graph.node_label(v).unwrap().to_owned())
            .collect();
        assert!(labels.contains(&"clique3[C|C|O]".to_owned()), "{labels:?}");
        assert!(labels.contains(&"clique3[N|N|N]".to_owned()), "{labels:?}");
    }

    #[test]
    fn uncovered_nodes_become_singletons() {
        let g = GraphBuilder::undirected()
            .node("a", "C").node("b", "C").node("c", "C")
            .edge("a", "b", "-").edge("b", "c", "-").edge("c", "a", "-")
            .edge("c", "tail", "-")
            .build();
        let sg = build_supergraph(&g, 3);
        assert_eq!(sg.graph.node_count(), 2); // clique + tail singleton
        let every_node_assigned = g
            .node_ids()
            .all(|v| sg.membership[v.index()].is_some());
        assert!(every_node_assigned);
    }

    #[test]
    fn motif_free_graph_contracts_to_itself() {
        let g = GraphBuilder::undirected()
            .edge("a", "b", "-")
            .edge("b", "c", "-")
            .build();
        let sg = build_supergraph(&g, 3);
        assert_eq!(sg.motif_count, 0);
        assert_eq!(sg.graph.node_count(), g.node_count());
        assert_eq!(sg.graph.edge_count(), g.edge_count());
    }

    #[test]
    fn empty_graph() {
        let sg = build_supergraph(&Graph::undirected(), 3);
        assert_eq!(sg.graph.node_count(), 0);
        assert_eq!(sg.motif_count, 0);
    }
}
