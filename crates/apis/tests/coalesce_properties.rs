//! Properties of singleflight step coalescing (DESIGN.md §15): concurrent
//! identical (epoch-fingerprint, step-key) executions collapse onto one
//! computation, and coalescing is observationally invisible — every waiter
//! sees bit-for-bit what a solo run would have produced, for successes
//! *and* failures. A panicking leader fails all waiters with the same
//! step-attributed error and never leaves them hanging; a step a fault
//! plan afflicts runs unmemoized, so injected faults cannot leak across
//! tenants through a shared flight, while the rest of the armed chain still
//! coalesces.

use chatgraph_apis::supervisor::SupervisorConfig;
use chatgraph_apis::{
    registry, ApiCategory, ApiChain, ApiDescriptor, ChainError, ChainEvent, CollectingMonitor,
    ExecContext, FaultPlan, Scheduler, StepMemo, Value, ValueType,
};
use chatgraph_graph::generators::{social_network, SocialParams};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

/// Serialises panic-hook suppression across tests in this binary (the
/// panicking-leader test panics on a tenant thread).
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

/// Every tenant gets the *same* graph (same generator seed) and the same
/// context seed, so identical chains produce identical memo keys — the
/// cross-tenant duplicate regime the serving bench models.
fn ctx() -> ExecContext {
    ExecContext::new(social_network(&SocialParams::default(), 33)).with_seed(11)
}

/// One execution's observable outcome.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<Value, ChainError>,
    findings: Vec<(String, Value)>,
    core_events: Vec<ChainEvent>,
    coalesced_events: usize,
}

fn observe(run: impl FnOnce(&mut ExecContext, &mut CollectingMonitor) -> Result<Value, ChainError>) -> Observed {
    let mut ctx = ctx();
    let mut mon = CollectingMonitor::new();
    let result = run(&mut ctx, &mut mon);
    let findings = std::mem::take(&mut ctx.findings);
    let coalesced_events = mon
        .events
        .iter()
        .filter(|e| matches!(e, ChainEvent::StepCoalesced { .. }))
        .count();
    Observed {
        result,
        findings,
        core_events: mon.events.into_iter().filter(ChainEvent::is_core).collect(),
        coalesced_events,
    }
}

/// `threads` concurrent executions of `chain`, all sharing `memo`, released
/// together by a barrier. Returns each thread's observation.
fn concurrent_runs(
    reg: &chatgraph_apis::ApiRegistry,
    chain: &ApiChain,
    memo: &Arc<StepMemo>,
    threads: usize,
    supervisor: &SupervisorConfig,
) -> Vec<Observed> {
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let sched = Scheduler::new()
                        .with_shared_memo(Arc::clone(memo))
                        .with_supervisor(supervisor.clone());
                    barrier.wait();
                    observe(|ctx, mon| sched.execute(reg, chain, ctx, mon))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("runner thread")).collect()
    })
}

/// A registry whose extra `probe` API counts its executions and holds the
/// flight open long enough for concurrent claimants to pile onto it.
fn probe_registry(
    counter: Arc<AtomicUsize>,
    hold: Duration,
    panics: bool,
) -> chatgraph_apis::ApiRegistry {
    let mut reg = registry::standard();
    reg.register(
        ApiDescriptor::new(
            "probe",
            "test api counting distinct executions",
            ApiCategory::Structure,
            ValueType::Graph,
            ValueType::Number,
        ),
        Box::new(move |_, _, _| {
            counter.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(hold);
            if panics {
                panic!("probe exploded");
            }
            Ok(Value::Number(42.0))
        }),
    );
    reg
}

/// (c) Differential: cold and warm, a chain executed by concurrent
/// coalescing tenants is bit-identical to the same chain run solo —
/// results, findings, and core events.
#[test]
fn coalesced_runs_match_solo_bit_identically_at_all_widths() {
    let reg = registry::standard();
    let chains = [
        ApiChain::from_names(["node_count", "edge_count", "graph_density"]),
        ApiChain::from_names(["detect_communities", "node_count", "generate_report"]),
        ApiChain::from_names(["node_count", "triangle_count"]),
    ];
    for chain in &chains {
        let solo = observe(|ctx, mon| Scheduler::new().execute(&reg, chain, ctx, mon));
        let memo = Arc::new(StepMemo::new(256));
        // Cold: every tenant races the same fresh shared memo.
        let cold = concurrent_runs(&reg, chain, &memo, 4, &SupervisorConfig::default());
        for got in &cold {
            assert_eq!(got.result, solo.result, "cold result");
            assert_eq!(got.findings, solo.findings, "cold findings");
            assert_eq!(got.core_events, solo.core_events, "cold core events");
        }
        // Warm: one more tenant over the now-populated memo.
        let sched = Scheduler::new().with_shared_memo(Arc::clone(&memo));
        let warm = observe(|ctx, mon| sched.execute(&reg, chain, ctx, mon));
        assert_eq!(warm.result, solo.result, "warm result");
        assert_eq!(warm.findings, solo.findings, "warm findings");
        assert_eq!(warm.core_events, solo.core_events, "warm core events");
        assert_eq!(warm.coalesced_events, 0, "a warm run hits, it never waits");
    }
}

/// (c) Exactly-once: N tenants concurrently executing the same single-step
/// chain drive exactly one handler execution; everyone else is served by
/// the flight or the memo, and the accounting proves it.
#[test]
fn concurrent_duplicates_execute_exactly_once() {
    const TENANTS: usize = 8;
    let counter = Arc::new(AtomicUsize::new(0));
    let reg = probe_registry(Arc::clone(&counter), Duration::from_millis(150), false);
    let chain = ApiChain::from_names(["probe"]);
    let memo = Arc::new(StepMemo::new(64));
    let runs = concurrent_runs(&reg, &chain, &memo, TENANTS, &SupervisorConfig::default());

    assert_eq!(counter.load(Ordering::SeqCst), 1, "the probe ran exactly once");
    for got in &runs {
        assert_eq!(got.result, Ok(Value::Number(42.0)));
    }
    let stats = memo.stats();
    assert_eq!(stats.requested(), TENANTS as u64, "every tenant consulted the memo");
    assert_eq!(stats.executed(), 1, "one miss actually executed: {stats:?}");
    assert_eq!(stats.misses - stats.coalesced, 1);
    // The non-core StepCoalesced feed agrees with the counter.
    let events: usize = runs.iter().map(|o| o.coalesced_events).sum();
    assert_eq!(events as u64, stats.coalesced, "one StepCoalesced per coalesced claim");
    assert!(stats.coalesced >= 1, "the 150ms hold must coalesce someone: {stats:?}");
}

/// (c) Failure sharing: a panicking coalesced step fails ALL waiters with
/// the same step-attributed error — nobody hangs, nobody retries the
/// panic into a second execution, and the failure is never cached.
#[test]
fn panicking_leader_fails_all_waiters_with_step_attribution() {
    const TENANTS: usize = 6;
    quiet(|| {
        let counter = Arc::new(AtomicUsize::new(0));
        let reg = probe_registry(Arc::clone(&counter), Duration::from_millis(150), true);
        let chain = ApiChain::from_names(["probe"]);
        let memo = Arc::new(StepMemo::new(64));
        let cfg = SupervisorConfig { max_retries: 0, ..Default::default() };
        let runs = concurrent_runs(&reg, &chain, &memo, TENANTS, &cfg);

        assert_eq!(counter.load(Ordering::SeqCst), 1, "the panicking probe ran exactly once");
        for got in &runs {
            match &got.result {
                Err(ChainError::StepPanicked(0, msg)) => {
                    assert!(msg.contains("probe exploded"), "payload survives sharing: {msg}");
                }
                other => panic!("every tenant gets the leader's panic, got {other:?}"),
            }
        }
        // Failures are shared with the flight's waiters but never cached:
        // a later solo run re-executes (and panics again, on its own).
        assert_eq!(memo.len(), 0, "a failed flight must not populate the LRU");
        let stats = memo.stats();
        assert_eq!(stats.executed(), 1, "{stats:?}");
        let again = concurrent_runs(&reg, &chain, &memo, 1, &cfg);
        assert_eq!(counter.load(Ordering::SeqCst), 2, "failures are not memoized");
        assert!(matches!(&again[0].result, Err(ChainError::StepPanicked(0, _))));
    });
}

/// A registry with three retryable `probe{i}` APIs (graph → number), each
/// counting its handler executions in `counts[i]` and holding its flight
/// open for `hold` so a concurrent tenant's identical claim overlaps it.
fn probe_chain_registry(
    counts: Arc<[AtomicUsize; 3]>,
    hold: Duration,
) -> chatgraph_apis::ApiRegistry {
    let mut reg = registry::standard();
    for i in 0..3 {
        let counts = Arc::clone(&counts);
        reg.register(
            ApiDescriptor::new(
                &format!("probe{i}"),
                "test api counting distinct executions",
                ApiCategory::Structure,
                ValueType::Graph,
                ValueType::Number,
            ),
            Box::new(move |_, _, _| {
                counts[i].fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(hold);
                Ok(Value::Number(i as f64))
            }),
        );
    }
    reg
}

/// Seed of the fault plan below: with error rate 0.5 it afflicts the middle
/// step of the 3-step probe chain only.
const FAULT_SEED: u64 = 3;

/// Fault isolation without a tenant-wide memo bypass: two concurrent
/// tenants share one memo, one of them with an armed fault plan. Exactly
/// the steps the plan afflicts run unmemoized on the armed tenant — each
/// runs its own handler on its clean retry, with no memo lookup, no flight
/// and no memo entry — while its unafflicted steps share the clean
/// tenant's executions. Both replies equal their solo runs.
#[test]
fn only_afflicted_steps_bypass_the_shared_memo() {
    let plan = FaultPlan::new(FAULT_SEED).with_error_rate(0.5).with_faults_per_step(1);
    let afflicted = plan.afflicted(3);
    assert!(
        !afflicted.is_empty() && afflicted.len() < 3,
        "the seed must afflict part of the chain: {afflicted:?}"
    );
    let armed = SupervisorConfig { faults: Some(plan), ..Default::default() };
    let clean = SupervisorConfig::default();
    let chain = ApiChain::from_names(["probe0", "probe1", "probe2"]);
    let counts: Arc<[AtomicUsize; 3]> = Arc::default();
    let reg = probe_chain_registry(Arc::clone(&counts), Duration::from_millis(100));
    let run = |sched: &Scheduler| {
        let mut events = Vec::new();
        let observed = observe(|ctx, mon| {
            let result = sched.execute(&reg, &chain, ctx, mon);
            events = mon.events.clone();
            result
        });
        (observed, events)
    };

    // Solo references, each over a private memo.
    let (clean_solo, _) = run(&Scheduler::new());
    let armed_sched = Scheduler::new().with_supervisor(armed.clone());
    let (armed_solo, _) = run(&armed_sched);
    assert_eq!(armed_solo.result, clean_solo.result, "one retry recovers each afflicted step");
    assert_eq!(
        armed_sched.memo_handle().len(),
        3 - afflicted.len(),
        "afflicted steps add no memo entry"
    );

    // Both tenants released together over one fresh shared memo.
    for c in counts.iter() {
        c.store(0, Ordering::SeqCst);
    }
    let memo = Arc::new(StepMemo::new(64));
    let barrier = Barrier::new(2);
    let tenant = |cfg: &SupervisorConfig| {
        let sched = Scheduler::new()
            .with_shared_memo(Arc::clone(&memo))
            .with_supervisor(cfg.clone());
        barrier.wait();
        run(&sched)
    };
    let ((clean_run, _), (armed_run, armed_events)) = std::thread::scope(|scope| {
        let c = scope.spawn(|| tenant(&clean));
        let a = scope.spawn(|| tenant(&armed));
        (c.join().expect("clean tenant"), a.join().expect("armed tenant"))
    });

    for j in 0..3 {
        let touched_memo = armed_events.iter().any(|e| {
            matches!(e, ChainEvent::MemoLookup { step, .. } | ChainEvent::StepCoalesced { step, .. }
                if *step == j)
        });
        let retried = armed_events
            .iter()
            .any(|e| matches!(e, ChainEvent::StepRetried { step, .. } if *step == j));
        let executions = counts[j].load(Ordering::SeqCst);
        if afflicted.contains(&j) {
            assert!(retried, "afflicted step {j} recovers on a retry");
            assert!(!touched_memo, "afflicted step {j} must not hit or join a flight");
            assert_eq!(executions, 2, "afflicted step {j} runs its own handler");
        } else {
            assert!(!retried, "unafflicted step {j} runs clean");
            assert!(touched_memo, "unafflicted step {j} claims the shared memo");
            assert_eq!(executions, 1, "unafflicted step {j} is shared across tenants");
        }
    }
    assert_eq!(memo.len(), 3, "one entry per step, all from the clean tenant's keys");
    for (got, want, who) in [(&clean_run, &clean_solo, "clean"), (&armed_run, &armed_solo, "armed")] {
        assert_eq!(got.result, want.result, "{who} result");
        assert_eq!(got.findings, want.findings, "{who} findings");
        assert_eq!(got.core_events, want.core_events, "{who} core events");
    }
}
