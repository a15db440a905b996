//! Plan-scheduler bench: the same chain executed cold (memo off) and from a
//! warm memo. Writes `results/BENCH_plan_exec.json` including the measured
//! memo speedup.
//!
//! The chain is eleven independent whole-graph analyses, all pure steps,
//! so a warm memo serves every one of them.

use chatgraph_apis::{registry, ApiCall, ApiChain, ExecContext, Scheduler, SilentMonitor};
use chatgraph_bench::{env_json, record_stats as record};
use chatgraph_graph::generators::{social_network, SocialParams};
use chatgraph_support::bench::Bench;
use chatgraph_support::json::Json;
use std::hint::black_box;
use std::sync::Arc;

fn main() {
    let reg = registry::standard();
    // The betweenness steps use distinct `k` so memoization (when on)
    // treats them as distinct.
    let mut chain = ApiChain::new();
    for (api, k) in [
        ("top_betweenness", "3"),
        ("top_betweenness", "5"),
        ("top_betweenness", "8"),
        ("top_betweenness", "12"),
        ("top_closeness", "5"),
        ("graph_diameter", "5"),
        ("detect_communities", "5"),
        ("top_pagerank", "5"),
        ("clustering_coefficient", "5"),
        ("modularity_score", "5"),
        ("triangle_count", "5"),
    ] {
        chain.push(ApiCall::new(api).with_param("k", k));
    }
    assert!(chain.validate(&reg, true).is_ok(), "bench chain must validate");

    // A scenario-scale social network, big enough that the path-based
    // analyses dominate the scheduler's own bookkeeping.
    let graph = Arc::new(social_network(
        &SocialParams {
            communities: 6,
            community_size: 50,
            p_intra: 0.3,
            p_inter: 0.01,
        },
        42,
    ));

    // Memoization off for the cold run: with the cache on, every iteration
    // after the first is a pure memo hit. The warm run keeps it on, so it
    // measures the memo serving all eleven steps.
    let seq = Scheduler::new().with_memo_capacity(0);
    let memo = Scheduler::new();

    let run = |sched: &Scheduler| {
        let mut ctx = ExecContext::new(Arc::clone(&graph));
        let out = sched.execute(&reg, &chain, &mut ctx, &mut SilentMonitor);
        black_box(out.is_ok());
    };

    let mut results: Vec<(String, Json)> = Vec::new();
    let mut bench = Bench::new("plan_exec");
    let mut group = bench.group("plan_exec");
    let seq_stats = group.bench("sequential", || run(&seq));
    record(&mut results, "sequential", seq_stats);
    let memo_stats = group.bench("warm_memo", || run(&memo));
    record(&mut results, "warm_memo", memo_stats);

    let memo_speedup =
        seq_stats.median.as_nanos() as f64 / memo_stats.median.as_nanos().max(1) as f64;
    println!("\nspeedup (sequential / warm memo, median): {memo_speedup:.2}x");

    let doc = Json::Object(vec![
        ("bench".to_owned(), Json::Str("plan_exec".to_owned())),
        ("chain_len".to_owned(), Json::UInt(chain.len() as u64)),
        ("graph_nodes".to_owned(), Json::UInt(graph.node_count() as u64)),
        ("env".to_owned(), env_json(1)),
        ("memo_speedup_median".to_owned(), Json::Float(memo_speedup)),
        ("results".to_owned(), Json::Object(results)),
    ]);
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("results/BENCH_plan_exec.json");
    match std::fs::write(&path, doc.render()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}
