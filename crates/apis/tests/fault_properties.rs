//! Differential properties for the chain supervisor (DESIGN.md §11): a
//! passive or fault-free supervisor never changes what a chain produces,
//! and an armed [`FaultPlan`] degrades execution *exactly* as modelled —
//! the same failures at the same steps on a warm or cold memo, with panics isolated and deadlines enforced cooperatively.

mod support;

use chatgraph_apis::supervisor::{self, FailurePolicy, FaultPlan, SupervisorConfig};
use chatgraph_apis::{
    analysis, registry, ApiCategory, ApiChain, ApiDescriptor, ChainError, ChainEvent,
    CollectingMonitor, ExecContext, Plan, Scheduler, Value, ValueType,
};
use chatgraph_graph::generators::{knowledge_graph, molecule_database, KgParams, MoleculeParams};
use chatgraph_graph::Graph;
use chatgraph_support::prop::{check, Config};
use chatgraph_support::prop_assert_eq;
use chatgraph_support::rng::{RngExt, SliceRandom, StdRng};
use std::panic::AssertUnwindSafe;
use std::sync::Mutex;
use support::execute_chain_reference;

/// Serialises panic-hook suppression across tests in this binary: the
/// default hook would spray injected panics' backtraces over the test
/// output, and the hook is process-wide while tests run on parallel
/// threads.
static PANIC_HOOK: Mutex<()> = Mutex::new(());

fn quiet<T>(f: impl FnOnce() -> T) -> T {
    let _guard = PANIC_HOOK.lock().unwrap_or_else(|e| e.into_inner());
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = std::panic::catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(hook);
    match out {
        Ok(v) => v,
        Err(p) => std::panic::resume_unwind(p),
    }
}

/// Generator: a chain of 1..=max_len steps where every extension
/// type-checks, so the whole chain is valid by construction.
fn random_valid_chain(rng: &mut StdRng, max_len: usize) -> ApiChain {
    let reg = registry::standard();
    let names: Vec<String> = reg.names().iter().map(|s| s.to_string()).collect();
    let len = rng.random_range(1..=max_len);
    let mut picked: Vec<String> = Vec::with_capacity(len);
    for _ in 0..len {
        let prev = picked.last().map(String::as_str);
        let legal: Vec<&String> = names
            .iter()
            .filter(|c| analysis::can_extend(&reg, prev, c, true))
            .collect();
        match legal.as_slice().choose(rng) {
            Some(name) => picked.push((*name).clone()),
            None => break,
        }
    }
    ApiChain::from_names(picked)
}

/// Everything an execution observably produces.
#[derive(Debug)]
struct Observed {
    result: Result<Value, ChainError>,
    findings: Vec<(String, Value)>,
    core_events: Vec<ChainEvent>,
    degraded_steps: Vec<usize>,
    graph: Graph,
}

fn observe(
    run: impl FnOnce(&mut ExecContext, &mut CollectingMonitor) -> Result<Value, ChainError>,
) -> Observed {
    let g = knowledge_graph(
        &KgParams {
            persons: 10,
            cities: 4,
            countries: 2,
            companies: 3,
            employment_rate: 0.5,
            knows_per_person: 1.0,
        },
        7,
    );
    let db = molecule_database(
        3,
        &MoleculeParams { atoms: 8, rings: 1, double_bond_prob: 0.15 },
        5,
    );
    let mut ctx = ExecContext::new(g).with_database(db).with_seed(11);
    let mut mon = CollectingMonitor::new();
    let result = run(&mut ctx, &mut mon);
    let findings = std::mem::take(&mut ctx.findings);
    let degraded_steps = mon
        .events
        .iter()
        .filter_map(|e| match e {
            ChainEvent::DegradedResult { step, .. } => Some(*step),
            _ => None,
        })
        .collect();
    Observed {
        result,
        findings,
        core_events: mon.events.into_iter().filter(ChainEvent::is_core).collect(),
        degraded_steps,
        graph: ctx.into_graph(),
    }
}

/// The step a chain error is attributed to, for errors that carry one.
fn error_step(e: &ChainError) -> Option<usize> {
    match e {
        ChainError::ExecutionFailed(i, _)
        | ChainError::StepPanicked(i, _)
        | ChainError::Rejected(i, _) => Some(*i),
        ChainError::StepTimedOut(i, _) => Some(*i),
        _ => None,
    }
}

/// Runs `chain` under `cfg` cold and then on a warm memo, asserting both
/// observations are identical, and returns the cold one.
fn supervised_runs_agree(chain: &ApiChain, cfg: &SupervisorConfig) -> Result<Observed, String> {
    let reg = registry::standard();
    let sched = Scheduler::new().with_supervisor(cfg.clone());
    let first = observe(|ctx, mon| sched.execute(&reg, chain, ctx, mon));
    let warm = observe(|ctx, mon| sched.execute(&reg, chain, ctx, mon));
    prop_assert_eq!(&warm.result, &first.result, "result differs (warm memo)");
    prop_assert_eq!(&warm.findings, &first.findings, "findings differ (warm memo)");
    prop_assert_eq!(&warm.core_events, &first.core_events, "core events differ (warm memo)");
    prop_assert_eq!(
        &warm.degraded_steps,
        &first.degraded_steps,
        "degraded steps differ (warm memo)"
    );
    prop_assert_eq!(&warm.graph, &first.graph, "final graph differs (warm memo)");
    Ok(first)
}

/// (a) A fault-free armed supervisor (deadline that never fires, retries
/// configured, SkipDegraded policy) is invisible: execution matches the
/// sequential reference executor bit-for-bit, cold and warm.
#[test]
fn fault_free_supervision_matches_reference_executor() {
    let cfg = SupervisorConfig {
        step_deadline_ms: 60_000,
        max_retries: 2,
        failure_policy: FailurePolicy::SkipDegraded,
        ..Default::default()
    };
    check(
        "fault_free_supervision_matches_reference_executor",
        Config::default().with_cases(12),
        |rng, _size| random_valid_chain(rng, 4),
        |chain| {
            let reg = registry::standard();
            let reference = observe(|ctx, mon| execute_chain_reference(&reg, chain, ctx, mon));
            let got = supervised_runs_agree(chain, &cfg)?;
            prop_assert_eq!(&got.result, &reference.result, "result differs from reference");
            prop_assert_eq!(&got.findings, &reference.findings, "findings differ");
            prop_assert_eq!(&got.core_events, &reference.core_events, "core events differ");
            prop_assert_eq!(&got.graph, &reference.graph, "final graph differs");
            prop_assert_eq!(&got.degraded_steps, &Vec::new(), "nothing may degrade");
            Ok(())
        },
    );
}

/// (b) Abort policy: injected faults fail the chain at the *smallest*
/// afflicted step, with the same error whatever the memo warmth — and chains with no afflicted step are untouched.
#[test]
fn abort_policy_fails_at_first_afflicted_step_deterministically() {
    quiet(|| {
        check(
            "abort_policy_fails_at_first_afflicted_step_deterministically",
            Config::default().with_cases(10),
            |rng, _size| {
                let chain = random_valid_chain(rng, 4);
                let fault_seed: u64 = rng.random_range(0..1_000_000);
                (chain, fault_seed)
            },
            |(chain, fault_seed)| {
                let faults = FaultPlan::new(*fault_seed)
                    .with_error_rate(0.3)
                    .with_panic_rate(0.2);
                let cfg = SupervisorConfig {
                    max_retries: 1,
                    failure_policy: FailurePolicy::Abort,
                    faults: Some(faults.clone()),
                    ..Default::default()
                };
                let got = supervised_runs_agree(chain, &cfg)?;
                let reg = registry::standard();
                let reference =
                    observe(|ctx, mon| execute_chain_reference(&reg, chain, ctx, mon));
                // Only model the outcome when the chain is natively clean;
                // natively failing chains are covered by the agreement check.
                if reference.result.is_ok() {
                    match faults.afflicted(chain.len()).first() {
                        None => {
                            prop_assert_eq!(
                                &got.result,
                                &reference.result,
                                "no afflicted step, yet the result changed"
                            );
                        }
                        Some(&first) => {
                            let step = got
                                .result
                                .as_ref()
                                .err()
                                .and_then(error_step);
                            prop_assert_eq!(
                                &step,
                                &Some(first),
                                "abort must land on the first afflicted step"
                            );
                        }
                    }
                }
                Ok(())
            },
        );
    });
}

/// (b) SkipDegraded policy: dead-output afflicted steps degrade (exactly
/// the modelled set, in order), load-bearing afflicted steps still abort,
/// and fully-degradable chains complete with one finding per step.
#[test]
fn skip_degraded_matches_the_modelled_degraded_set() {
    quiet(|| {
        check(
            "skip_degraded_matches_the_modelled_degraded_set",
            Config::default().with_cases(10),
            |rng, _size| {
                let chain = random_valid_chain(rng, 5);
                let fault_seed: u64 = rng.random_range(0..1_000_000);
                (chain, fault_seed)
            },
            |(chain, fault_seed)| {
                let reg = registry::standard();
                let faults = FaultPlan::new(*fault_seed)
                    .with_error_rate(0.5)
                    .with_panic_rate(0.2);
                let cfg = SupervisorConfig {
                    max_retries: 0,
                    failure_policy: FailurePolicy::SkipDegraded,
                    faults: Some(faults.clone()),
                    ..Default::default()
                };
                let got = supervised_runs_agree(chain, &cfg)?;
                let reference =
                    observe(|ctx, mon| execute_chain_reference(&reg, chain, ctx, mon));
                if reference.result.is_err() {
                    return Ok(()); // natively failing chain: agreement suffices
                }
                // Model: walk the plan; afflicted dead-output steps degrade,
                // the first afflicted load-bearing step aborts.
                let plan = Plan::build(chain, &reg).map_err(|e| e.to_string())?;
                let mut expect_degraded = Vec::new();
                let mut expect_abort = None;
                for i in faults.afflicted(chain.len()) {
                    if plan.dead_output(i) {
                        expect_degraded.push(i);
                    } else {
                        expect_abort = Some(i);
                        break;
                    }
                }
                match expect_abort {
                    Some(at) => {
                        let step = got.result.as_ref().err().and_then(error_step);
                        prop_assert_eq!(
                            &step,
                            &Some(at),
                            "chain must abort at the first load-bearing afflicted step"
                        );
                    }
                    None => {
                        prop_assert_eq!(
                            &got.result.is_ok(),
                            &true,
                            "fully-degradable chain must complete: {:?}",
                            got.result
                        );
                        prop_assert_eq!(
                            &got.findings.len(),
                            &chain.len(),
                            "every step leaves exactly one finding"
                        );
                        for &d in &expect_degraded {
                            let (_, v) = &got.findings[d];
                            let text = match v {
                                Value::Text(t) => t.as_str(),
                                other => {
                                    return Err(format!(
                                        "degraded finding must be text, got {other:?}"
                                    ))
                                }
                            };
                            prop_assert_eq!(
                                &text.starts_with("degraded:"),
                                &true,
                                "degraded finding is marked"
                            );
                        }
                    }
                }
                prop_assert_eq!(
                    &got.degraded_steps,
                    &expect_degraded,
                    "degraded set must match the model exactly"
                );
                Ok(())
            },
        );
    });
}

/// Deterministic SkipDegraded witness: afflict *only* a dead-output step
/// (`node_count` whose successor reads the session graph, not its output)
/// and watch the chain complete with exactly that step degraded.
#[test]
fn dead_output_step_degrades_and_chain_completes() {
    let reg = registry::standard();
    // node_count's output is unread: edge_count takes the session graph.
    let chain = ApiChain::from_names(["node_count", "edge_count"]);
    let plan = Plan::build(&chain, &reg).unwrap();
    assert!(plan.dead_output(0) && !plan.dead_output(1));
    // Search the seed space for a plan afflicting exactly step 0.
    let fault_seed = (0..10_000)
        .find(|&s| FaultPlan::new(s).with_error_rate(0.5).afflicted(2) == vec![0])
        .expect("some seed afflicts exactly step 0");
    let cfg = SupervisorConfig {
        max_retries: 0,
        failure_policy: FailurePolicy::SkipDegraded,
        faults: Some(FaultPlan::new(fault_seed).with_error_rate(0.5)),
        ..Default::default()
    };
    let got = supervised_runs_agree(&chain, &cfg).unwrap();
    let out = got.result.expect("the chain completes despite the fault");
    let reference = observe(|ctx, mon| execute_chain_reference(&reg, &chain, ctx, mon));
    assert_eq!(Ok(out), reference.result, "the surviving tail is unchanged");
    assert_eq!(got.degraded_steps, vec![0]);
    assert_eq!(got.findings.len(), 2);
    assert!(
        matches!(&got.findings[0].1, Value::Text(t) if t.starts_with("degraded:")),
        "step 0's finding is the degraded marker: {:?}",
        got.findings[0]
    );
    assert_eq!(&got.findings[1], &reference.findings[1]);
    // The same fault under Abort kills the chain at step 0 instead.
    let abort = SupervisorConfig { failure_policy: FailurePolicy::Abort, ..cfg };
    let got = supervised_runs_agree(&chain, &abort).unwrap();
    assert!(
        matches!(&got.result, Err(ChainError::ExecutionFailed(0, m)) if m.contains("injected")),
        "Abort must fail at step 0: {:?}",
        got.result
    );
}

/// (c) Deadlines: a stalled step is cancelled, retried `max_retries` times
/// with the reproducible seeded backoff, and the chain fails with
/// `StepTimedOut` at the stalled step — identically on repeat runs.
#[test]
fn deadline_cancels_stalled_steps_and_retries_reproducibly() {
    let reg = registry::standard();
    let chain = ApiChain::from_names(["detect_communities", "node_count", "generate_report"]);
    // Every step stalls 40ms against an 8ms deadline; the stall is injected
    // both at the step site and as a kernel chunk-delay, so CSR kernels hit
    // the expired token at a chunk boundary and bail cooperatively.
    let faults = FaultPlan::new(1).with_delay(1.0, 40);
    let cfg = SupervisorConfig {
        step_deadline_ms: 8,
        max_retries: 2,
        failure_policy: FailurePolicy::Abort,
        faults: Some(faults),
        ..Default::default()
    };
    let run = || {
        let mut retried: Vec<(usize, usize, u64)> = Vec::new();
        let mut timed_out = Vec::new();
        let obs = observe(|ctx, mon| {
            let r = Scheduler::new()
                .with_supervisor(cfg.clone())
                .execute(&reg, &chain, ctx, mon);
            for e in &mon.events {
                match e {
                    ChainEvent::StepRetried { step, attempt, backoff_ms, .. } => {
                        retried.push((*step, *attempt, *backoff_ms));
                    }
                    ChainEvent::StepTimedOut { step, deadline_ms, .. } => {
                        timed_out.push((*step, *deadline_ms));
                    }
                    _ => {}
                }
            }
            r
        });
        (obs, retried, timed_out)
    };
    let (obs, retried, timed_out) = run();
    assert_eq!(
        obs.result,
        Err(ChainError::StepTimedOut(0, 8)),
        "the first stalled step must abort the chain"
    );
    assert_eq!(timed_out, vec![(0, 8)]);
    // 2 retries, each preceded by the deterministic seeded backoff
    // (ctx seed is 11; backoff keys on (seed, step, completed attempts)).
    assert_eq!(retried.len(), 2, "retried: {retried:?}");
    for (k, &(step, attempt, backoff)) in retried.iter().enumerate() {
        assert_eq!((step, attempt), (0, k + 1));
        assert_eq!(backoff, supervisor::backoff_ms(&cfg, 11, 0, k));
    }
    // Repeat runs are bit-identical (determinism under faults).
    let (a, ra, ta) = run();
    let (b, rb, tb) = run();
    assert_eq!(a.result, b.result);
    assert_eq!(a.core_events, b.core_events);
    assert_eq!((ra, ta), (rb, tb));
}

/// Satellite (a) regression: a handler that panics is isolated at the
/// supervisor boundary with correct step attribution — the panic payload is
/// neither lost nor resumed into the caller.
#[test]
fn panicking_handler_is_isolated_with_step_attribution() {
    let mut reg = registry::standard();
    reg.register(
        ApiDescriptor::new(
            "explode",
            "a test api whose handler panics",
            ApiCategory::Structure,
            ValueType::Graph,
            ValueType::Number,
        ),
        Box::new(|_, _, _| panic!("handler exploded")),
    );
    let chain = ApiChain::from_names(["edge_count", "explode", "graph_density"]);
    quiet(|| {
        let obs = observe(|ctx, mon| Scheduler::new().execute(&reg, &chain, ctx, mon));
        match &obs.result {
            Err(ChainError::StepPanicked(1, msg)) => {
                assert!(msg.contains("handler exploded"), "payload kept: {msg}");
            }
            other => panic!("expected StepPanicked(1, _), got {other:?}"),
        }
        // Steps before the panic committed; the chain stopped at it.
        assert_eq!(obs.findings.len(), 1, "only edge_count committed");
    });
}
