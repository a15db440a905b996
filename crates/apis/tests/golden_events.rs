//! Golden test pinning the scheduler's full event stream — core *and*
//! non-core events — byte-for-byte, plus each run's result.
//!
//! The differential suites compare only core events, so this is what pins
//! the order and payloads of `StepRetried`, `MemoLookup`, `WalAppended`,
//! `StepPanicked`, `DegradedResult` and the timing events around the step
//! lifecycle, for pure steps and barriers alike. Wall-clock fields
//! (`micros`) are zeroed, and each run of consecutive `KernelTimed` events
//! is sorted: kernel events are drained per step, right after the step's
//! commit, so the file pins which kernels each step ran, not the order its
//! handler happens to call them in. `CHATGRAPH_UPDATE_GOLDEN=1` rewrites
//! `tests/golden_events.json`.

use chatgraph_apis::supervisor::{FailurePolicy, FaultPlan, SupervisorConfig};
use chatgraph_apis::{
    registry, ApiChain, ChainEvent, CollectingMonitor, CommitAck, CommitSink, ExecContext,
    Scheduler,
};
use chatgraph_graph::generators::{
    corrupt_kg, knowledge_graph, molecule, social_network, KgParams, MoleculeParams, SocialParams,
};
use chatgraph_graph::Graph;
use chatgraph_support::json;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// A sink that acknowledges every commit, or fails every one.
#[derive(Debug)]
struct Sink {
    fails: bool,
}

impl CommitSink for Sink {
    fn commit(&self, graph: &Arc<Graph>) -> Result<CommitAck, String> {
        if self.fails {
            return Err("disk full".to_owned());
        }
        let records = graph.edge_count();
        Ok(CommitAck { epoch: 1, records, bytes: 64 * records as u64 })
    }
}

fn social() -> ExecContext {
    ExecContext::new(social_network(&SocialParams::default(), 1)).with_seed(3)
}

fn kg() -> ExecContext {
    let mut g = knowledge_graph(&KgParams::default(), 7);
    corrupt_kg(&mut g, 0.1, 0.1, 7);
    ExecContext::new(g).with_seed(3)
}

/// Error (or panic) faults on exactly `step` of a `len`-step chain, for
/// `faults_per_step` attempts: the smallest seed afflicting only that step.
fn fault(panics: bool, len: usize, step: usize, faults_per_step: usize) -> SupervisorConfig {
    let plan = (0..10_000)
        .map(|s| match panics {
            false => FaultPlan::new(s).with_error_rate(0.3),
            true => FaultPlan::new(s).with_panic_rate(0.3),
        })
        .find(|p| p.afflicted(len) == vec![step])
        .expect("a seed afflicting exactly the target step");
    SupervisorConfig {
        faults: Some(plan.with_faults_per_step(faults_per_step)),
        ..Default::default()
    }
}

/// Runs `chain` once and appends the case's result and event stream.
fn record(
    lines: &mut Vec<String>,
    name: &str,
    sched: &Scheduler,
    mut ctx: ExecContext,
    chain: &[&str],
    confirm: bool,
) {
    let mut mon = CollectingMonitor::with_answers([confirm]);
    let chain = ApiChain::from_names(chain.iter().copied());
    let result = match sched.execute(&registry::standard(), &chain, &mut ctx, &mut mon) {
        Ok(v) => format!("Ok: {}", v.summary()),
        Err(e) => format!("Err: {e}"),
    };
    let mut events: Vec<String> = mon
        .events
        .into_iter()
        .map(|mut e| {
            if let ChainEvent::StepTimed { micros, .. }
            | ChainEvent::CsrBuilt { micros, .. }
            | ChainEvent::KernelTimed { micros, .. } = &mut e
            {
                *micros = 0;
            }
            json::to_string(&e)
        })
        .collect();
    let kernel = |s: &String| s.starts_with("{\"KernelTimed\"");
    for run in events.chunk_by_mut(|a, b| kernel(a) && kernel(b)) {
        run.sort();
    }
    lines.push(format!(
        "{{\"case\":{},\"result\":{},\"events\":[\n  {}\n]}}",
        json::to_string(name),
        json::to_string(&result),
        events.join(",\n  ")
    ));
}

fn render() -> String {
    const BRANCHY: &[&str] = &[
        "top_pagerank",
        "node_count",
        "graph_density",
        "largest_component",
        "edge_count",
        "generate_report",
    ];
    // Step 1 is a pure step, step 2 a report-sink barrier (retryable).
    const FAULTY: &[&str] = &["node_count", "edge_count", "generate_report"];
    let edit = ["detect_missing_edges", "add_edges", "edge_count"];
    let clean = ["edge_count", "detect_incorrect_edges", "remove_edges", "edge_count"];
    let similarity = ["node_count", "similarity_search", "edge_count"];
    let lines = &mut Vec::new();
    // Cold, then warm on the same scheduler's memo.
    let sched = Scheduler::new();
    record(lines, "branchy_cold", &sched, social(), BRANCHY, true);
    record(lines, "branchy_warm", &sched, social(), BRANCHY, true);

    for (name, fails) in [("commit_acked", false), ("commit_failed", true)] {
        let mut sched = Scheduler::new();
        sched.set_commit_sink(Some(Arc::new(Sink { fails })));
        record(lines, name, &sched, kg(), &edit, true);
    }

    for (name, confirm) in [("confirm_accepted", true), ("confirm_rejected", false)] {
        record(lines, name, &Scheduler::new(), kg(), &clean, confirm);
    }

    // `similarity_search` fails without a database.
    for (name, failure_policy) in [
        ("handler_error_abort", FailurePolicy::Abort),
        ("handler_error_skip_degraded", FailurePolicy::SkipDegraded),
    ] {
        let cfg = SupervisorConfig { failure_policy, ..Default::default() };
        let sched = Scheduler::new().with_supervisor(cfg);
        let mol = ExecContext::new(molecule(&MoleculeParams::default(), 1));
        record(lines, name, &sched, mol, &similarity, true);
    }

    // One fault recovers on retry; `usize::MAX` faults exhaust the retries.
    for (kind, panics) in [("error", false), ("panic", true)] {
        for (target, at) in [("pure", 1), ("barrier", 2)] {
            for (outcome, per_step) in [("retried", 1), ("exhausted", usize::MAX)] {
                let cfg = fault(panics, FAULTY.len(), at, per_step);
                let sched = Scheduler::new().with_supervisor(cfg);
                let name = format!("fault_{kind}_{target}_{outcome}");
                record(lines, &name, &sched, social(), FAULTY, true);
            }
        }
    }
    // Step 0's output is unconsumed, so its failure degrades.
    let mut cfg = fault(false, FAULTY.len(), 0, usize::MAX);
    cfg.failure_policy = FailurePolicy::SkipDegraded;
    let sched = Scheduler::new().with_supervisor(cfg);
    record(lines, "fault_error_pure_skip_degraded", &sched, social(), FAULTY, true);
    format!("[\n{}\n]", lines.join(",\n"))
}

#[test]
fn event_streams_are_byte_stable() {
    // Silence the default panic hook while injected panics fly.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let got = std::panic::catch_unwind(AssertUnwindSafe(render));
    std::panic::set_hook(hook);
    let got = got.unwrap_or_else(|p| std::panic::resume_unwind(p));
    if std::env::var_os("CHATGRAPH_UPDATE_GOLDEN").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_events.json");
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    let want = include_str!("golden_events.json").trim();
    assert_eq!(got, want, "event stream drifted from tests/golden_events.json");
}
