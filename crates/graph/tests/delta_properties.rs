//! Snapshot-staleness differential: a graph version's CSR snapshot is
//! never stale.
//!
//! `Graph::csr` builds a snapshot once per version and keeps it across
//! label and attribute edits; a structural edit drops it. After every
//! random edit epoch (edge adds and removals, node appends and removals,
//! relabels, attribute sets) the version's `csr()` must equal
//! `CsrGraph::build` of that version, and PageRank, components, triangles
//! and BFS must agree on the two bit for bit.

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

/// Applies one random edit epoch: a handful of edge adds and removals,
/// node appends, relabels and attribute sets; every
/// `node_removal_period`-th epoch also removes a node. Returns whether any
/// edit was structural (a slot appended or tombstoned).
fn mutate_epoch(g: &mut Graph, rng: &mut StdRng, epoch: usize, node_removal_period: usize) -> bool {
    let mut structural = false;
    let ops = 1 + rng.random_range(0..4);
    for _ in 0..ops {
        let nodes = live_nodes(g);
        let edges = live_edges(g);
        match rng.random_range(0..6u32) {
            0 if nodes.len() >= 2 => {
                let a = nodes[rng.random_range(0..nodes.len())];
                let b = nodes[rng.random_range(0..nodes.len())];
                if a != b && !g.has_edge(a, b) {
                    structural |= g.add_edge(a, b, "patched").is_ok();
                }
            }
            1 if !edges.is_empty() => {
                let e = edges[rng.random_range(0..edges.len())];
                structural |= g.remove_edge(e).is_ok();
            }
            2 if !nodes.is_empty() => {
                let v = g.add_node("Appended");
                let _ = g.add_edge(v, nodes[rng.random_range(0..nodes.len())], "patched");
                structural = true;
            }
            3 if !edges.is_empty() => {
                let e = edges[rng.random_range(0..edges.len())];
                let _ = g.set_edge_label(e, "relabeled");
            }
            4 if !nodes.is_empty() => {
                let v = nodes[rng.random_range(0..nodes.len())];
                let _ = g.set_node_label(v, "Touched");
            }
            5 if !nodes.is_empty() => {
                let v = nodes[rng.random_range(0..nodes.len())];
                let _ = g.set_node_attr(v, "epoch", epoch as i64);
            }
            _ => {}
        }
    }
    if node_removal_period > 0 && epoch % node_removal_period == node_removal_period - 1 {
        let nodes = live_nodes(g);
        if nodes.len() > 4 {
            structural |= g.remove_node(nodes[rng.random_range(0..nodes.len())]).is_ok();
        }
    }
    structural
}

/// Asserts that the kernels see no difference between the version's
/// snapshot and a fresh build, bit for bit.
fn assert_kernels_agree(held: &CsrGraph, rebuilt: &CsrGraph, seed_node: NodeId) {
    let policy = KernelPolicy::default();
    let pr_a = kernels::pagerank(held, 0.85, 12, &policy);
    let pr_b = kernels::pagerank(rebuilt, 0.85, 12, &policy);
    assert_eq!(pr_a, pr_b, "pagerank differs");
    assert_eq!(
        kernels::connected_components(held, &policy).assignment,
        kernels::connected_components(rebuilt, &policy).assignment,
        "components differ"
    );
    assert_eq!(
        kernels::triangle_count(held, &policy),
        kernels::triangle_count(rebuilt, &policy),
        "triangles differ"
    );
    if held.dense_of(seed_node).is_some() {
        assert_eq!(
            kernels::bfs_distances(held, seed_node, usize::MAX, &policy),
            kernels::bfs_distances(rebuilt, seed_node, usize::MAX, &policy),
            "bfs differs"
        );
    }
}

/// The core differential loop: `epochs` rounds of random edits, each on a
/// copy-on-write version of the last. After every epoch the version's own
/// snapshot must equal a fresh build, kernels must agree on both, a
/// structural epoch must have built a new snapshot and any other must have
/// kept the previous one. Returns `(rebuilt, kept)` epoch counts.
fn run_differential(
    mut graph: Arc<Graph>,
    seed: u64,
    epochs: usize,
    node_removal_period: usize,
) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut rebuilt, mut kept) = (0usize, 0usize);
    for epoch in 0..epochs {
        let before = graph.csr();
        let structural =
            mutate_epoch(Arc::make_mut(&mut graph), &mut rng, epoch, node_removal_period);
        let (snapshot, built) = graph.csr_tracked();
        let fresh = CsrGraph::build(&graph);
        assert_eq!(*snapshot, fresh, "epoch {epoch}: the version's snapshot is stale");
        if structural {
            assert!(built.is_some(), "epoch {epoch}: a structural edit must rebuild");
            rebuilt += 1;
        } else {
            assert!(
                Arc::ptr_eq(&before, &snapshot),
                "epoch {epoch}: label and attribute edits keep the snapshot"
            );
            kept += 1;
        }
        let probe = graph.node_ids().next().unwrap();
        assert_kernels_agree(&snapshot, &fresh, probe);
    }
    (rebuilt, kept)
}

#[test]
fn social_edit_sequences_patch_identically() {
    let g = Arc::new(social_network(&SocialParams::default(), 7));
    let (rebuilt, kept) = run_differential(g, 0xD1FF, 24, 6);
    assert!(rebuilt > 0 && kept > 0, "{rebuilt} rebuilt, {kept} kept: both paths must run");
}

#[test]
fn kg_edit_sequences_patch_identically_directed() {
    let g = Arc::new(knowledge_graph(&KgParams::default(), 9));
    let (rebuilt, kept) = run_differential(g, 0xD2FF, 24, 6);
    assert!(rebuilt > 0 && kept > 0, "{rebuilt} rebuilt, {kept} kept: both paths must run");
}

/// A node removal shifts the dense id of every later node; with one in
/// every epoch, every epoch rebuilds and still matches a fresh build.
#[test]
fn node_removals_fall_back_to_rebuild_and_stay_identical() {
    let g = Arc::new(social_network(&SocialParams::default(), 3));
    assert_eq!(run_differential(g, 0xDEAD, 12, 1), (12, 0));
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
    assert_eq!(*results[0].0, CsrGraph::build(&graph));
}

/// A clone shares its source's snapshot until it is edited; a one-edge
/// edit gives the clone its own, and the source keeps its snapshot.
#[test]
fn clone_shares_the_snapshot_until_it_is_edited() {
    let source = social_network(&SocialParams::default(), 5);
    let before = source.csr();
    let mut clone = source.clone();
    assert!(Arc::ptr_eq(&before, &clone.csr()), "an unedited clone shares the snapshot");
    let nodes: Vec<NodeId> = clone.node_ids().collect();
    let (a, b) = (nodes[0], nodes[nodes.len() - 1]);
    assert!(!clone.has_edge(a, b), "the generator leaves these two unlinked");
    clone.add_edge(a, b, "patched").expect("nodes exist, no edge yet");
    let (after, built) = clone.csr_tracked();
    assert!(built.is_some(), "the edited clone builds its own snapshot");
    assert_eq!(*after, CsrGraph::build(&clone));
    assert!(Arc::ptr_eq(&before, &source.csr()), "the source keeps its snapshot");
    assert_eq!(*before, CsrGraph::build(&source));
}
