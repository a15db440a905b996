//! CSR graph-kernel bench: for each kernel, the adjacency-walking reference
//! vs the CSR kernel, plus rebuilding the CSR snapshot per call vs reading
//! the one the graph version already carries (`Graph::csr`). Writes
//! `results/BENCH_graph_kernels.json`, whose `csr_slower_than_reference`
//! lists every kernel whose CSR median exceeds its reference's.

use chatgraph_bench::{env_json, record_stats as record};
use chatgraph_graph::csr::CsrGraph;
use chatgraph_graph::generators::{social_network, SocialParams};
use chatgraph_graph::algo::{centrality, components, paths, stats, triangles};
use chatgraph_graph::kernels::{self, KernelPolicy};
use chatgraph_support::bench::Bench;
use chatgraph_support::json::Json;
use std::hint::black_box;
use std::sync::Arc;

fn main() {
    // The plan-exec scenario graph (300 nodes).
    let graph = Arc::new(social_network(
        &SocialParams {
            communities: 6,
            community_size: 50,
            p_intra: 0.3,
            p_inter: 0.01,
        },
        42,
    ));
    let csr = CsrGraph::build(&graph);
    let policy = KernelPolicy::default();
    let mut slower: Vec<Json> = Vec::new();

    let mut results: Vec<(String, Json)> = Vec::new();
    let mut bench = Bench::new("graph_kernels");
    let mut group = bench.group("graph_kernels");

    macro_rules! kernel {
        ($name:literal, $reference:expr, $kernel:expr) => {{
            let reference = $reference;
            let ref_stats = group.bench(concat!($name, "_reference"), || {
                black_box(reference(&graph));
            });
            record(&mut results, concat!($name, "_reference"), ref_stats);
            let kernel = $kernel;
            let csr_stats = group.bench(concat!($name, "_csr"), || {
                black_box(kernel(&csr, &policy));
            });
            record(&mut results, concat!($name, "_csr"), csr_stats);
            if csr_stats.median > ref_stats.median {
                slower.push(Json::Str($name.to_owned()));
            }
        }};
    }

    kernel!(
        "pagerank",
        |g: &chatgraph_graph::Graph| centrality::pagerank(g, 0.85, 50),
        |csr: &CsrGraph, p: &KernelPolicy| kernels::pagerank(csr, 0.85, 50, p)
    );
    kernel!(
        "components",
        |g: &chatgraph_graph::Graph| components::connected_components(g).count,
        |csr: &CsrGraph, p: &KernelPolicy| kernels::connected_components(csr, p).count
    );
    kernel!(
        "triangles",
        triangles::triangle_count,
        kernels::triangle_count
    );
    kernel!(
        "closeness",
        centrality::closeness,
        kernels::closeness
    );
    kernel!("diameter", paths::diameter, kernels::diameter);
    kernel!(
        "graph_stats",
        stats::graph_stats,
        |csr: &CsrGraph, p: &KernelPolicy| kernels::graph_stats(&graph, csr, p)
    );

    // Rebuilding the snapshot on every call vs reading the one this graph
    // version carries (under the artifact's `csr_epoch_cached` key).
    let build_stats = group.bench("csr_build_per_call", || {
        black_box(CsrGraph::build(&graph).m());
    });
    record(&mut results, "csr_build_per_call", build_stats);
    graph.csr();
    let cached_stats = group.bench("csr_epoch_cached", || {
        black_box(graph.csr().m());
    });
    record(&mut results, "csr_epoch_cached", cached_stats);

    let cached_speedup =
        build_stats.median.as_nanos() as f64 / cached_stats.median.as_nanos().max(1) as f64;
    println!("\ngraph-held CSR vs per-call rebuild (median): {cached_speedup:.1}x");
    let slower = Json::Array(slower);
    println!("CSR kernels slower than their reference (median): {}", slower.render());

    let doc = Json::Object(vec![
        ("bench".to_owned(), Json::Str("graph_kernels".to_owned())),
        ("graph_nodes".to_owned(), Json::UInt(graph.node_count() as u64)),
        ("graph_edges".to_owned(), Json::UInt(graph.edge_count() as u64)),
        ("env".to_owned(), env_json(1)),
        ("cached_csr_speedup_median".to_owned(), Json::Float(cached_speedup)),
        (
            "cached_beats_rebuild".to_owned(),
            Json::Bool(cached_stats.median < build_stats.median),
        ),
        ("csr_slower_than_reference".to_owned(), slower),
        ("results".to_owned(), Json::Object(results)),
    ]);
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("results/BENCH_graph_kernels.json");
    match std::fs::write(&path, doc.render()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}
