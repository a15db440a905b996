//! Chunking determinism: kernel results are a function of the graph only.
//!
//! The chunk size only decides how often a kernel polls its cancel token;
//! no chunk size may change a single bit of any kernel's output. This also
//! pins the cache-blocked pagerank pull against the plain pull.

use chatgraph_graph::csr::CsrGraph;
use chatgraph_graph::generators::{
    knowledge_graph, social_network, KgParams, SocialParams,
};
use chatgraph_graph::kernels::{self, KernelPolicy};
use chatgraph_graph::Graph;

fn variants() -> Vec<KernelPolicy> {
    [1usize, 64, 1024].map(KernelPolicy::new).into()
}

fn assert_all_variants_agree(g: &Graph) {
    let csr = CsrGraph::build(g);
    let baseline = KernelPolicy::default();
    let pr = kernels::pagerank(&csr, 0.85, 15, &baseline);
    let cc = kernels::connected_components(&csr, &baseline);
    let tri = kernels::triangle_count(&csr, &baseline);
    let clu = kernels::global_clustering_coefficient(&csr, &baseline);
    let start = g.node_ids().next().unwrap();
    let bfs = kernels::bfs_distances(&csr, start, usize::MAX, &baseline);
    for policy in variants() {
        let tag = format!("chunk={}", policy.chunk);
        assert_eq!(kernels::pagerank(&csr, 0.85, 15, &policy), pr, "pagerank @ {tag}");
        assert_eq!(
            kernels::pagerank_blocked(&csr, 0.85, 15, &policy),
            pr,
            "blocked pagerank @ {tag}"
        );
        assert_eq!(
            kernels::connected_components(&csr, &policy).assignment,
            cc.assignment,
            "components @ {tag}"
        );
        assert_eq!(kernels::triangle_count(&csr, &policy), tri, "triangles @ {tag}");
        assert_eq!(
            kernels::global_clustering_coefficient(&csr, &policy).to_bits(),
            clu.to_bits(),
            "clustering @ {tag}"
        );
        assert_eq!(
            kernels::bfs_distances(&csr, start, usize::MAX, &policy),
            bfs,
            "bfs @ {tag}"
        );
    }
}

#[test]
fn social_kernels_are_chunking_invariant() {
    assert_all_variants_agree(&social_network(&SocialParams::default(), 11));
}

#[test]
fn sized_social_kernels_are_chunking_invariant() {
    // Large enough that every variant actually splits into many chunks.
    assert_all_variants_agree(&social_network(&SocialParams::sized(4_000), 11));
}

#[test]
fn kg_kernels_are_chunking_invariant_directed() {
    assert_all_variants_agree(&knowledge_graph(&KgParams::default(), 13));
}

#[test]
fn blocked_pull_matches_plain_pull_past_the_auto_threshold() {
    // `pagerank` flips to the blocked pull automatically on large dense
    // graphs; on small ones the two code paths are distinct — pin their
    // bit-identity explicitly at a size where blocking spans several
    // source blocks per chunk.
    let g = social_network(&SocialParams::sized(8_000), 3);
    let csr = CsrGraph::build(&g);
    let policy = KernelPolicy::new(256);
    let plain = kernels::pagerank(&csr, 0.9, 10, &policy);
    let blocked = kernels::pagerank_blocked(&csr, 0.9, 10, &policy);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&plain), bits(&blocked));
}
