//! Supervisor-overhead bench: the plan-exec chain run (a) with a passive
//! supervisor (the default — no deadlines, no faults), (b) with an armed
//! supervisor (deadline + retries configured, fault-free), and (c) with
//! error faults injected and retried. Writes
//! `results/BENCH_fault_exec.json` including the armed-vs-passive overhead,
//! which must stay small: arming a deadline adds one `CancelToken` clone
//! per step plus an atomic poll per kernel cancellation stride.
//!
//! The overhead is timed over interleaved passive/armed pairs (alternating
//! which runs first), so machine drift hits both sides of a pair alike. The
//! artifact records the median per-pair overhead with its quartiles, and
//! `armed_overhead_resolved` is false when the interquartile range contains
//! zero: the overhead is then indistinguishable from noise.

use chatgraph_apis::supervisor::{FailurePolicy, FaultPlan, SupervisorConfig};
use chatgraph_apis::{registry, ApiCall, ApiChain, ExecContext, Scheduler, SilentMonitor};
use chatgraph_bench::{env_json, record_stats as record};
use chatgraph_graph::generators::{social_network, SocialParams};
use chatgraph_support::bench::Bench;
use chatgraph_support::json::Json;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Interleaved passive/armed pairs timed for the overhead quartiles.
const OVERHEAD_PAIRS: usize = 41;

fn main() {
    let reg = registry::standard();
    let mut chain = ApiChain::new();
    for (api, k) in [
        ("top_betweenness", "3"),
        ("top_betweenness", "5"),
        ("top_closeness", "5"),
        ("detect_communities", "5"),
        ("top_pagerank", "5"),
        ("clustering_coefficient", "5"),
        ("modularity_score", "5"),
        ("triangle_count", "5"),
    ] {
        chain.push(ApiCall::new(api).with_param("k", k));
    }
    assert!(chain.validate(&reg, true).is_ok(), "bench chain must validate");

    let graph = Arc::new(social_network(
        &SocialParams {
            communities: 6,
            community_size: 50,
            p_intra: 0.3,
            p_inter: 0.01,
        },
        42,
    ));

    // Memoization off throughout: a warm cache would hide the per-attempt
    // supervisor cost this bench exists to measure.
    let passive = Scheduler::new().with_memo_capacity(0);
    // Armed but fault-free: a generous deadline every step must check yet
    // never hit — the pure bookkeeping cost of supervision.
    let armed = Scheduler::new().with_memo_capacity(0).with_supervisor(SupervisorConfig {
        step_deadline_ms: 60_000,
        max_retries: 2,
        failure_policy: FailurePolicy::SkipDegraded,
        ..Default::default()
    });
    // Error faults on every step, recovering after one failed attempt: each
    // step pays one injected failure + backoff + re-run. (Error faults, not
    // panics: unwinding would spray hook output over the bench report.)
    let faulted = Scheduler::new().with_memo_capacity(0).with_supervisor(SupervisorConfig {
        max_retries: 2,
        failure_policy: FailurePolicy::Abort,
        faults: Some(FaultPlan::new(7).with_error_rate(1.0).with_faults_per_step(1)),
        ..Default::default()
    });

    let run = |sched: &Scheduler| {
        let mut ctx = ExecContext::new(Arc::clone(&graph));
        let out = sched.execute(&reg, &chain, &mut ctx, &mut SilentMonitor);
        black_box(out.is_ok());
    };
    {
        let mut ctx = ExecContext::new(Arc::clone(&graph));
        assert!(
            faulted.execute(&reg, &chain, &mut ctx, &mut SilentMonitor).is_ok(),
            "every fault must be retried away"
        );
    }

    let mut results: Vec<(String, Json)> = Vec::new();
    let mut bench = Bench::new("fault_exec");
    let mut group = bench.group("fault_exec");
    let passive_stats = group.bench("supervisor_passive", || run(&passive));
    record(&mut results, "supervisor_passive", passive_stats);
    let armed_stats = group.bench("supervisor_armed_fault_free", || run(&armed));
    record(&mut results, "supervisor_armed_fault_free", armed_stats);
    let faulted_stats = group.bench("supervisor_faulted_all_retry", || run(&faulted));
    record(&mut results, "supervisor_faulted_all_retry", faulted_stats);

    // Per-pair overhead, the order within a pair alternating.
    let timed = |sched: &Scheduler| {
        let start = Instant::now();
        run(sched);
        start.elapsed().as_nanos().max(1) as f64
    };
    let mut overheads: Vec<f64> = (0..OVERHEAD_PAIRS)
        .map(|i| {
            let (passive_ns, armed_ns) = if i % 2 == 0 {
                let p = timed(&passive);
                (p, timed(&armed))
            } else {
                let a = timed(&armed);
                (timed(&passive), a)
            };
            (armed_ns / passive_ns - 1.0) * 100.0
        })
        .collect();
    overheads.sort_by(f64::total_cmp);
    let quartile = |q: usize| overheads[q * (overheads.len() - 1) / 4];
    let (q1, overhead_pct, q3) = (quartile(1), quartile(2), quartile(3));
    let resolved = !(q1 <= 0.0 && 0.0 <= q3);
    let fault_cost =
        faulted_stats.median.as_nanos() as f64 / passive_stats.median.as_nanos().max(1) as f64;
    println!(
        "\narmed-supervisor overhead vs passive ({OVERHEAD_PAIRS} interleaved pairs): \
         median {overhead_pct:+.2}%, quartiles [{q1:+.2}%, {q3:+.2}%]{}",
        if resolved { "" } else { " — cannot be told from zero" }
    );
    println!("all-steps-faulted cost vs passive (median): {fault_cost:.2}x");

    let doc = Json::Object(vec![
        ("bench".to_owned(), Json::Str("fault_exec".to_owned())),
        ("chain_len".to_owned(), Json::UInt(chain.len() as u64)),
        ("graph_nodes".to_owned(), Json::UInt(graph.node_count() as u64)),
        ("env".to_owned(), env_json(1)),
        ("armed_overhead_pairs".to_owned(), Json::UInt(OVERHEAD_PAIRS as u64)),
        ("armed_overhead_pct_median".to_owned(), Json::Float(overhead_pct)),
        ("armed_overhead_pct_q1".to_owned(), Json::Float(q1)),
        ("armed_overhead_pct_q3".to_owned(), Json::Float(q3)),
        ("armed_overhead_resolved".to_owned(), Json::Bool(resolved)),
        ("faulted_cost_ratio_median".to_owned(), Json::Float(fault_cost)),
        ("results".to_owned(), Json::Object(results)),
    ]);
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("results/BENCH_fault_exec.json");
    match std::fs::write(&path, doc.render()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}
