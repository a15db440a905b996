//! Differential properties for the CSR kernels: on random directed and
//! undirected graphs with deletions, every kernel must be element-wise
//! equal (bit-for-bit for floats) to its adjacency-walking `*_reference`
//! oracle, with tiny chunks (many chunk boundaries) and with the default
//! chunk size (one chunk at these sizes).

use chatgraph_graph::csr::CsrGraph;
use chatgraph_graph::kernels::{self, reference, KernelPolicy};
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
    for policy in [KernelPolicy::new(7), KernelPolicy::default()] {
        prop_assert_eq!(
            kernels::pagerank(&csr, 0.85, 30, &policy),
            reference::pagerank_reference(g, 0.85, 30)
        );
        let cc = kernels::connected_components(&csr, &policy);
        let cc_ref = reference::connected_components_reference(g);
        prop_assert_eq!(&cc.assignment, &cc_ref.assignment);
        prop_assert_eq!(cc.count, cc_ref.count);
        prop_assert_eq!(
            kernels::is_connected(&csr, &policy),
            reference::is_connected_reference(g)
        );
        prop_assert_eq!(
            kernels::triangle_count(&csr, &policy),
            reference::triangle_count_reference(g)
        );
        prop_assert_eq!(
            kernels::global_clustering_coefficient(&csr, &policy),
            reference::global_clustering_coefficient_reference(g)
        );
        prop_assert_eq!(kernels::diameter(&csr, &policy), reference::diameter_reference(g));
        prop_assert_eq!(
            kernels::average_path_length(&csr, &policy),
            reference::average_path_length_reference(g)
        );
        prop_assert_eq!(kernels::closeness(&csr, &policy), reference::closeness_reference(g));
        prop_assert_eq!(
            kernels::graph_stats(g, &csr, &policy),
            reference::graph_stats_reference(g)
        );
        for &start in &case.starts {
            for hops in [0usize, 2, usize::MAX] {
                prop_assert_eq!(
                    kernels::bfs_distances(&csr, start, hops, &policy),
                    reference::bfs_distances_reference(g, start, hops)
                );
            }
        }
    }
    prop_assert_eq!(kernels::degree_histogram(&csr), reference::degree_histogram_reference(g));
    for &start in &case.starts {
        prop_assert_eq!(
            kernels::dijkstra(&csr, &case.weights, start),
            reference::dijkstra_reference(g, start, |e| {
                case.weights.get(e.index()).copied().unwrap_or(1.0)
            })
        );
        prop_assert_eq!(kernels::eccentricity(&csr, start), reference::eccentricity_reference(g, start));
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
