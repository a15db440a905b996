//! Differential properties for the CSR kernels: on random directed and
//! undirected graphs with deletions, every kernel must be element-wise
//! equal (bit-for-bit for floats) to its adjacency-walking `algo::`
//! oracle. Three fixed generator graphs add what the small random cases
//! lack: outer loops spanning several cancellation strides, and a directed
//! knowledge graph.

use chatgraph_graph::algo::{centrality, components, paths, stats, traversal, triangles};
use chatgraph_graph::csr::CsrGraph;
use chatgraph_graph::generators::{knowledge_graph, social_network, KgParams, SocialParams};
use chatgraph_graph::kernels::{self, KernelPolicy};
use chatgraph_graph::{EdgeId, Graph, NodeId};
use chatgraph_support::prop::{check, Config};
use chatgraph_support::prop_assert_eq;
use chatgraph_support::rng::{RngExt, StdRng};

#[derive(Debug)]
struct Case {
    g: Graph,
    /// Slot-indexed Dijkstra edge weights.
    weights: Vec<f64>,
    /// BFS/Dijkstra sources, including removed and out-of-range slots.
    starts: Vec<NodeId>,
}

fn random_case(rng: &mut StdRng, size: usize) -> Case {
    let directed: bool = rng.random();
    let mut g = if directed { Graph::directed() } else { Graph::undirected() };
    let n = rng.random_range(0..=(2 + 2 * size));
    for i in 0..n {
        g.add_node(["A", "B", "C"][i % 3]);
    }
    let attempts = rng.random_range(0..=3 * n.max(1));
    for _ in 0..attempts {
        let a = NodeId(rng.random_range(0..n.max(1)) as u32);
        let b = NodeId(rng.random_range(0..n.max(1)) as u32);
        // Self-loops / duplicates are rejected by the graph; that's fine.
        let _ = g.add_edge(a, b, "e");
    }
    // Deletions: tombstoned slots are what the dense remap exists for.
    for _ in 0..rng.random_range(0..=(n / 4 + 1)) {
        let _ = g.remove_node(NodeId(rng.random_range(0..n.max(1)) as u32));
    }
    for _ in 0..rng.random_range(0..=2) {
        let eb = g.edge_bound().max(1);
        let _ = g.remove_edge(EdgeId(rng.random_range(0..eb) as u32));
    }
    let weights = (0..g.edge_bound()).map(|_| rng.random_range(0..100) as f64 / 10.0).collect();
    let starts = (0..4).map(|_| NodeId(rng.random_range(0..(n + 2).max(1)) as u32)).collect();
    Case { g, weights, starts }
}

fn check_case(case: &Case) -> Result<(), String> {
    let g = &case.g;
    let csr = CsrGraph::build(g);
    let policy = KernelPolicy::default();
    prop_assert_eq!(
        kernels::pagerank(&csr, 0.85, 30, &policy),
        centrality::pagerank(g, 0.85, 30)
    );
    let cc = kernels::connected_components(&csr, &policy);
    let cc_ref = components::connected_components(g);
    prop_assert_eq!(&cc.assignment, &cc_ref.assignment);
    prop_assert_eq!(cc.count, cc_ref.count);
    prop_assert_eq!(kernels::is_connected(&csr, &policy), components::is_connected(g));
    prop_assert_eq!(kernels::triangle_count(&csr, &policy), triangles::triangle_count(g));
    prop_assert_eq!(
        kernels::global_clustering_coefficient(&csr, &policy),
        triangles::global_clustering_coefficient(g)
    );
    prop_assert_eq!(kernels::diameter(&csr, &policy), paths::diameter(g));
    prop_assert_eq!(kernels::average_path_length(&csr, &policy), paths::average_path_length(g));
    prop_assert_eq!(kernels::closeness(&csr, &policy), centrality::closeness(g));
    prop_assert_eq!(kernels::graph_stats(g, &csr, &policy), stats::graph_stats(g));
    for &start in &case.starts {
        for hops in [0usize, 2, usize::MAX] {
            prop_assert_eq!(
                kernels::bfs_distances(&csr, start, hops, &policy),
                traversal::bfs_distances(g, start, hops)
            );
        }
    }
    prop_assert_eq!(kernels::degree_histogram(&csr), stats::degree_histogram(g));
    for &start in &case.starts {
        prop_assert_eq!(
            kernels::dijkstra(&csr, &case.weights, start),
            paths::weighted_distances(g, start, |e| {
                case.weights.get(e.index()).copied().unwrap_or(1.0)
            })
        );
        prop_assert_eq!(kernels::eccentricity(&csr, start), paths::eccentricity(g, start));
    }
    Ok(())
}

#[test]
fn csr_kernels_match_reference_oracles() {
    check(
        "csr_kernels_match_reference_oracles",
        Config::default().with_seed(11).with_cases(60).with_max_size(24),
        random_case,
        check_case,
    );
}

/// Pagerank, components, triangles, clustering (to the bit) and BFS from
/// the first node against their oracles on one fixed graph.
fn assert_fixed_graph_matches_oracles(g: &Graph) {
    let csr = CsrGraph::build(g);
    let policy = KernelPolicy::default();
    assert_eq!(kernels::pagerank(&csr, 0.85, 15, &policy), centrality::pagerank(g, 0.85, 15));
    assert_eq!(
        kernels::connected_components(&csr, &policy).assignment,
        components::connected_components(g).assignment
    );
    assert_eq!(kernels::triangle_count(&csr, &policy), triangles::triangle_count(g));
    assert_eq!(
        kernels::global_clustering_coefficient(&csr, &policy).to_bits(),
        triangles::global_clustering_coefficient(g).to_bits()
    );
    let start = g.node_ids().next().expect("generated graphs are non-empty");
    assert_eq!(
        kernels::bfs_distances(&csr, start, usize::MAX, &policy),
        traversal::bfs_distances(g, start, usize::MAX)
    );
}

#[test]
fn social_kernels_match_oracles() {
    assert_fixed_graph_matches_oracles(&social_network(&SocialParams::default(), 11));
}

#[test]
fn sized_social_kernels_match_oracles_across_strides() {
    // 4,000 nodes: every outer loop spans four cancellation strides.
    assert_fixed_graph_matches_oracles(&social_network(&SocialParams::sized(4_000), 11));
}

#[test]
fn kg_kernels_match_oracles_directed() {
    assert_fixed_graph_matches_oracles(&knowledge_graph(&KgParams::default(), 13));
}
