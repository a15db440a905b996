//! Scale sweep: 10^3 / 10^4 / 10^5 / 10^6-node graphs.
//!
//! For every tier this records, in `results/BENCH_scale.json`:
//!
//! * the median of an iterated CSR kernel (pagerank) on the caller's
//!   thread — kernels spawn no threads;
//! * the median of a full CSR build, which is what the first kernel read
//!   of a new or structurally edited graph version costs.
//!
//! `--quick` runs only the 10^3/10^4 tiers and, instead of overwriting the
//! committed full artifact, validates that `results/BENCH_scale.json`
//! parses and carries all four tiers — the CI-sized proof that the
//! committed sweep is intact.

use chatgraph_bench::{env_json, print_table, quick_mode};
use chatgraph_graph::csr::CsrGraph;
use chatgraph_graph::generators::{social_network, SocialParams};
use chatgraph_graph::kernels::{self, KernelPolicy};
use chatgraph_support::bench::{format_duration, Bench, Stats};
use chatgraph_support::json::Json;
use std::hint::black_box;
use std::time::Instant;

const PAGERANK_ITERS: usize = 10;
const TIERS: [(usize, &str, u32); 4] = [
    (1_000, "n1000", 20),
    (10_000, "n10000", 10),
    (100_000, "n100000", 5),
    (1_000_000, "n1000000", 2),
];

fn median_ns(stats: &Stats) -> u64 {
    stats.median.as_nanos() as u64
}

/// Runs one tier and returns its JSON record plus a display row.
fn run_tier(n: usize, label: &str, iters: u32) -> (Json, Vec<String>) {
    let t0 = Instant::now();
    let graph = social_network(&SocialParams::sized(n), 42);
    let gen_elapsed = t0.elapsed();
    let csr = CsrGraph::build(&graph);
    println!(
        "\n# tier {label}: {} nodes, {} edges (generated in {})",
        graph.node_count(),
        graph.edge_count(),
        format_duration(gen_elapsed)
    );

    let mut bench = Bench::new("scale_sweep").with_iters(iters);
    let mut group = bench.group(label);

    // The iterated pull kernel under the policy chains run with.
    let policy = KernelPolicy::default();
    let pagerank_stats = group.bench("pagerank", || {
        black_box(kernels::pagerank(&csr, 0.85, PAGERANK_ITERS, &policy));
    });

    let rebuild_stats = group.bench("csr_rebuild", || {
        black_box(CsrGraph::build(&graph).m());
    });

    let tier = Json::Object(vec![
        ("nodes".to_owned(), Json::UInt(graph.node_count() as u64)),
        ("edges".to_owned(), Json::UInt(graph.edge_count() as u64)),
        ("gen_micros".to_owned(), Json::UInt(gen_elapsed.as_micros() as u64)),
        ("pagerank_median_ns".to_owned(), Json::UInt(median_ns(&pagerank_stats))),
        ("csr_rebuild_median_ns".to_owned(), Json::UInt(median_ns(&rebuild_stats))),
    ]);
    let row = vec![
        label.to_owned(),
        graph.node_count().to_string(),
        graph.edge_count().to_string(),
        format_duration(pagerank_stats.median),
        format_duration(rebuild_stats.median),
    ];
    (tier, row)
}

/// `--quick`: prove the committed full artifact is intact without paying
/// for (or clobbering it with) the 10^5/10^6 tiers.
fn validate_committed_artifact(path: &std::path::Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("committed {} unreadable: {e}", path.display()));
    let doc = Json::parse(&text)
        .unwrap_or_else(|e| panic!("committed {} is not valid JSON: {e}", path.display()));
    let tiers = doc
        .get("tiers")
        .and_then(|t| t.as_object())
        .expect("artifact carries a `tiers` object");
    for (_, name, _) in TIERS {
        let tier = tiers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("committed artifact is missing tier {name}"));
        for field in ["nodes", "pagerank_median_ns", "csr_rebuild_median_ns"] {
            assert!(tier.get(field).is_some(), "tier {name} is missing `{field}`");
        }
    }
    println!(
        "committed {} validated: all {} tiers present and well-formed",
        path.display(),
        TIERS.len()
    );
}

fn main() {
    let quick = quick_mode();
    let env = env_json(1);

    let mut tiers: Vec<(String, Json)> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (n, label, iters) in TIERS {
        if quick && n > 10_000 {
            println!("\n# tier {label}: skipped (--quick)");
            continue;
        }
        let (tier, row) = run_tier(n, label, iters);
        tiers.push((label.to_owned(), tier));
        rows.push(row);
    }

    print_table(
        "scale sweep (pagerank and CSR build medians)",
        &["tier", "nodes", "edges", "pagerank", "rebuild"],
        &rows,
    );

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("results/BENCH_scale.json");
    if quick {
        // The quick sweep is a smoke test; the committed artifact stays the
        // authoritative full-sweep record.
        validate_committed_artifact(&path);
        return;
    }
    let doc = Json::Object(vec![
        ("bench".to_owned(), Json::Str("scale_sweep".to_owned())),
        ("pagerank_iterations".to_owned(), Json::UInt(PAGERANK_ITERS as u64)),
        ("env".to_owned(), env),
        ("tiers".to_owned(), Json::Object(tiers)),
    ]);
    match std::fs::write(&path, doc.render()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}
