//! Differential properties of delta-CSR snapshots.
//!
//! The delta path (`CsrGraph::build_delta`, taken implicitly by
//! `Graph::csr` after an edit) must be *indistinguishable* from a
//! from-scratch rebuild: after any sequence of random adds, deletes and relabels the
//! patched snapshot is logically equal to `CsrGraph::build`, and every
//! kernel returns bit-identical results on both. Edits the delta path
//! declines (node removal, too many touched rows) must fall back to a
//! rebuild transparently.

use chatgraph_graph::csr::CsrGraph;
use chatgraph_graph::generators::{knowledge_graph, social_network, KgParams, SocialParams};
use chatgraph_graph::kernels::{self, KernelPolicy};
use chatgraph_graph::{EdgeId, Graph, NodeId};
use chatgraph_support::rng::{RngExt, SeedableRng, StdRng};
use std::sync::{Arc, Barrier};

fn live_nodes(g: &Graph) -> Vec<NodeId> {
    g.node_ids().collect()
}

fn live_edges(g: &Graph) -> Vec<EdgeId> {
    g.edge_ids().collect()
}

/// Applies one random mutation epoch: a handful of edge adds, edge
/// removals, and label edits; every `node_removal_period`-th epoch also
/// removes a node — an edit the delta path declines, exercising the
/// fallback to a full rebuild.
fn mutate_epoch(g: &mut Graph, rng: &mut StdRng, epoch: usize, node_removal_period: usize) {
    let ops = 1 + rng.random_range(0..4);
    for _ in 0..ops {
        match rng.random_range(0..4u32) {
            0 => {
                let nodes = live_nodes(g);
                if nodes.len() >= 2 {
                    let a = nodes[rng.random_range(0..nodes.len())];
                    let b = nodes[rng.random_range(0..nodes.len())];
                    if a != b && !g.has_edge(a, b) {
                        let _ = g.add_edge(a, b, "patched");
                    }
                }
            }
            1 => {
                let edges = live_edges(g);
                if !edges.is_empty() {
                    let _ = g.remove_edge(edges[rng.random_range(0..edges.len())]);
                }
            }
            2 => {
                let edges = live_edges(g);
                if !edges.is_empty() {
                    let e = edges[rng.random_range(0..edges.len())];
                    let _ = g.set_edge_label(e, "relabeled");
                }
            }
            _ => {
                let nodes = live_nodes(g);
                if !nodes.is_empty() {
                    let v = nodes[rng.random_range(0..nodes.len())];
                    let _ = g.set_node_label(v, "Touched");
                }
            }
        }
    }
    if node_removal_period > 0 && epoch % node_removal_period == node_removal_period - 1 {
        let nodes = live_nodes(g);
        if nodes.len() > 4 {
            let _ = g.remove_node(nodes[rng.random_range(0..nodes.len())]);
        }
    }
}

/// Asserts that the kernels see no difference between `patched` and a
/// rebuilt snapshot, bit-for-bit.
fn assert_kernels_agree(patched: &CsrGraph, rebuilt: &CsrGraph, seed_node: NodeId) {
    let policy = KernelPolicy::default();
    let pr_a = kernels::pagerank(patched, 0.85, 12, &policy);
    let pr_b = kernels::pagerank(rebuilt, 0.85, 12, &policy);
    assert_eq!(pr_a, pr_b, "pagerank differs");
    assert_eq!(
        kernels::connected_components(patched, &policy).assignment,
        kernels::connected_components(rebuilt, &policy).assignment,
        "components differ"
    );
    assert_eq!(
        kernels::triangle_count(patched, &policy),
        kernels::triangle_count(rebuilt, &policy),
        "triangles differ"
    );
    if patched.dense_of(seed_node).is_some() {
        assert_eq!(
            kernels::bfs_distances(patched, seed_node, usize::MAX, &policy),
            kernels::bfs_distances(rebuilt, seed_node, usize::MAX, &policy),
            "bfs differs"
        );
    }
}

/// The core differential loop: `epochs` rounds of random edits, each on a
/// copy-on-write version of the last; every version's own snapshot must
/// equal a from-scratch rebuild, and kernels must agree on both.
fn run_differential(mut graph: Arc<Graph>, seed: u64, epochs: usize, node_removal_period: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut deltas = 0usize;
    for epoch in 0..epochs {
        mutate_epoch(Arc::make_mut(&mut graph), &mut rng, epoch, node_removal_period);
        let (snapshot, built) = graph.csr_tracked();
        let rebuilt = CsrGraph::build(&graph);
        assert_eq!(
            *snapshot, rebuilt,
            "epoch {epoch}: graph's snapshot (patched={}) != rebuild",
            snapshot.is_patched()
        );
        if built.is_some_and(|b| b.delta) {
            deltas += 1;
            assert!(snapshot.is_patched());
        }
        let probe = graph.node_ids().next().unwrap();
        assert_kernels_agree(&snapshot, &rebuilt, probe);
    }
    assert!(
        deltas >= epochs / 4,
        "only {deltas}/{epochs} epochs took the delta path — edits this small should patch"
    );
}

#[test]
fn social_edit_sequences_patch_identically() {
    let g = Arc::new(social_network(&SocialParams::default(), 7));
    run_differential(g, 0xD1FF, 24, 0);
}

#[test]
fn kg_edit_sequences_patch_identically_directed() {
    let g = Arc::new(knowledge_graph(&KgParams::default(), 9));
    run_differential(g, 0xD2FF, 24, 0);
}

#[test]
fn node_removals_fall_back_to_rebuild_and_stay_identical() {
    let g = Arc::new(social_network(&SocialParams::default(), 3));
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let mut graph = g;
    graph.csr();
    let mut fallbacks = 0usize;
    for epoch in 0..12 {
        mutate_epoch(Arc::make_mut(&mut graph), &mut rng, epoch, 2);
        let (snapshot, built) = graph.csr_tracked();
        let rebuilt = CsrGraph::build(&graph);
        assert_eq!(*snapshot, rebuilt, "epoch {epoch} diverged");
        if built.is_some_and(|b| !b.delta) {
            fallbacks += 1;
        }
    }
    assert!(fallbacks > 0, "node removals must force full rebuilds");
}

/// Threads reading one shared version get one snapshot from one build —
/// how tenants sharing a memoized graph value share its snapshot.
#[test]
fn concurrent_callers_share_one_build() {
    let graph = Arc::new(social_network(&SocialParams::default(), 5));
    let start = Barrier::new(2);
    let results: Vec<_> = std::thread::scope(|s| {
        let call = || {
            start.wait();
            graph.csr_tracked()
        };
        let calls: Vec<_> = (0..2).map(|_| s.spawn(call)).collect();
        calls
            .into_iter()
            .map(|c| c.join().expect("csr() does not panic"))
            .collect()
    });
    let (first, second) = (&results[0].0, &results[1].0);
    assert!(Arc::ptr_eq(first, second), "both callers share the snapshot");
    let builds: Vec<_> = results.iter().filter_map(|(_, b)| *b).collect();
    assert_eq!(builds.len(), 1, "exactly one build record");
    assert!(!builds[0].delta, "a fresh graph builds in full");
    assert_eq!(*results[0].0, CsrGraph::build(&graph));
}

/// A clone shares its source's snapshot; a one-edge edit on the clone is
/// served as a delta, and the source keeps its snapshot untouched.
#[test]
fn clone_shares_the_snapshot_and_its_edit_splices() {
    let source = social_network(&SocialParams::default(), 5);
    let before = source.csr();
    let mut clone = source.clone();
    assert!(Arc::ptr_eq(&before, &clone.csr()), "an unedited clone shares the snapshot");
    let nodes: Vec<NodeId> = clone.node_ids().collect();
    let (a, b) = (nodes[0], nodes[nodes.len() - 1]);
    assert!(!clone.has_edge(a, b), "the generator leaves these two unlinked");
    clone.add_edge(a, b, "patched").expect("nodes exist, no edge yet");
    let (after, built) = clone.csr_tracked();
    assert!(built.is_some_and(|b| b.delta), "single edit must patch, not rebuild");
    assert_eq!(*after, CsrGraph::build(&clone));
    assert!(Arc::ptr_eq(&before, &source.csr()), "the source keeps its snapshot");
    assert_eq!(*before, CsrGraph::build(&source));
}
