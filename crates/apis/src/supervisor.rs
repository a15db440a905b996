//! Fault-tolerant step execution: deadlines, bounded retries, panic
//! isolation, and a deterministic fault-injection harness.
//!
//! The scheduler delegates every step attempt to [`run_step`], which wraps
//! the handler invocation in the supervisor's failure state machine:
//!
//! ```text
//!            ┌──────────── transient failure & retries left ────────────┐
//!            ▼                                                          │
//!   run ──▶ attempt (deadline token armed, catch_unwind) ──▶ failure ───┤
//!            │                                                          │
//!            └─▶ Ok(value) ─▶ done                 retries exhausted ───┴─▶
//!                                       degrade (SkipDegraded, dead output)
//!                                       or abort  (Abort / load-bearing)
//! ```
//!
//! * **Deadlines** — each attempt gets a fresh [`CancelToken`] armed with
//!   `step_deadline_ms`. The token is threaded into the kernel policy, so
//!   CSR kernels observe it at their cancellation polls; whatever a late attempt
//!   returns after the token fires is discarded and the attempt is
//!   classified [`StepFailure::TimedOut`].
//! * **Panic isolation** — `catch_unwind` at the attempt boundary (the only
//!   place in the workspace, enforced by repolint CG106) converts panic
//!   payloads into [`StepFailure::Panicked`] instead of unwinding through
//!   the scheduler and the serving layer's drain pool.
//! * **Retries** — only failures of *transient origin* (timeouts and
//!   injected faults) are retried, and only for APIs whose descriptor is
//!   marked `transient_retryable` (pure analytics; mutating and
//!   confirmation-gated APIs never are). Deterministic handler errors are
//!   not retried — re-running a pure function on the same snapshot cannot
//!   succeed, and retrying nothing keeps fault-free runs bit-identical to
//!   the reference executor. Backoff is deterministic: exponential in the
//!   attempt with seeded jitter keyed on `(seed, step, attempt)`.
//! * **Fault injection** — a [`FaultPlan`] decides, per `(step, attempt)`
//!   and entirely from its seed, whether an attempt fails with an injected
//!   error, an injected panic, or an injected stall. The fault kind is
//!   drawn once per step, so the scheduler knows up front which steps are
//!   afflicted and runs exactly those unmemoized: warm-memo runs see the
//!   faults cold runs saw, and no injected fault enters a shared flight.

use crate::chain::ChainError;
use crate::value::Value;
use chatgraph_support::cancel::CancelToken;
use chatgraph_support::hash::Fnv64;
use chatgraph_support::rng::{RngExt, SeedableRng, StdRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// What the chain should do when a step exhausts its attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Stop the chain at the failing step (the classic executor contract).
    #[default]
    Abort,
    /// Steps whose output is provably dead downstream (no later step
    /// consumes it; see `Plan::dead_output`) fail soft: their finding is
    /// recorded as degraded and the rest of the chain completes.
    /// Load-bearing steps still abort.
    SkipDegraded,
}

chatgraph_support::impl_json_enum!(FailurePolicy { Abort, SkipDegraded });

impl FailurePolicy {
    /// Parses the config/REPL spelling (`abort` / `skip_degraded`).
    pub fn parse(s: &str) -> Option<FailurePolicy> {
        match s {
            "abort" | "Abort" => Some(FailurePolicy::Abort),
            "skip_degraded" | "SkipDegraded" | "skip" => Some(FailurePolicy::SkipDegraded),
            _ => None,
        }
    }
}

/// Deterministic fault injection: which `(step, attempt)` sites fail, and
/// how, is a pure function of this plan — independent of memo warmth and
/// wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-step fault draw.
    pub seed: u64,
    /// Probability a step is afflicted with an injected handler error.
    pub error_rate: f64,
    /// Probability a step is afflicted with an injected panic.
    pub panic_rate: f64,
    /// Probability a step is afflicted with an injected stall of
    /// `delay_ms` (combined with a deadline this forces a timeout).
    pub delay_rate: f64,
    /// Stall length for delay-afflicted attempts, in milliseconds.
    pub delay_ms: u64,
    /// Afflicted steps fail this many attempts, then run clean — so a
    /// retry budget `>= faults_per_step` recovers them. `usize::MAX`
    /// makes affliction permanent.
    pub faults_per_step: usize,
}

chatgraph_support::impl_json_struct!(FaultPlan {
    seed,
    error_rate,
    panic_rate,
    delay_rate,
    delay_ms,
    faults_per_step,
});

/// The kind of fault an afflicted attempt suffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The attempt fails with an injected handler error (no handler runs).
    Error,
    /// The attempt panics (inside the supervisor's `catch_unwind`).
    Panic,
    /// The attempt stalls for [`FaultPlan::delay_ms`] before running.
    Delay,
}

impl FaultPlan {
    /// A plan with the given seed and no faults; set rates to arm it.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            error_rate: 0.0,
            panic_rate: 0.0,
            delay_rate: 0.0,
            delay_ms: 20,
            faults_per_step: usize::MAX,
        }
    }

    /// Same plan with an error affliction probability.
    pub fn with_error_rate(mut self, rate: f64) -> FaultPlan {
        self.error_rate = rate;
        self
    }

    /// Same plan with a panic affliction probability.
    pub fn with_panic_rate(mut self, rate: f64) -> FaultPlan {
        self.panic_rate = rate;
        self
    }

    /// Same plan with a stall affliction probability and stall length.
    pub fn with_delay(mut self, rate: f64, delay_ms: u64) -> FaultPlan {
        self.delay_rate = rate;
        self.delay_ms = delay_ms;
        self
    }

    /// Same plan where afflicted steps recover after `n` failed attempts.
    pub fn with_faults_per_step(mut self, n: usize) -> FaultPlan {
        self.faults_per_step = n;
        self
    }

    /// The fault injected at `(step, attempt)`, if any. The kind is drawn
    /// once per *step* (so retries keep hitting the same kind) and attempts
    /// past `faults_per_step` run clean.
    pub fn fault_for(&self, step: usize, attempt: usize) -> Option<InjectedFault> {
        if attempt >= self.faults_per_step {
            return None;
        }
        let mut h = Fnv64::new();
        h.write_str("fault");
        h.write_u64(self.seed);
        h.write_u64(step as u64);
        let mut rng = StdRng::seed_from_u64(h.finish());
        let x: f64 = rng.random();
        if x < self.error_rate {
            Some(InjectedFault::Error)
        } else if x < self.error_rate + self.panic_rate {
            Some(InjectedFault::Panic)
        } else if x < self.error_rate + self.panic_rate + self.delay_rate {
            Some(InjectedFault::Delay)
        } else {
            None
        }
    }

    /// Step indices in `0..len` afflicted on their first attempt — the set
    /// the differential tests compare degraded results against.
    pub fn afflicted(&self, len: usize) -> Vec<usize> {
        (0..len).filter(|&i| self.fault_for(i, 0).is_some()).collect()
    }
}

/// Supervisor knobs (`exec.*` in `ChatGraphConfig`).
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Per-step deadline in milliseconds; `0` disables deadlines.
    pub step_deadline_ms: u64,
    /// Retries (beyond the first attempt) for transient failures of
    /// retryable steps.
    pub max_retries: usize,
    /// What to do when a step exhausts its attempts.
    pub failure_policy: FailurePolicy,
    /// Base backoff in milliseconds; attempt `a` waits
    /// `base·2^a + jitter(seed, step, a)`, capped at [`MAX_BACKOFF_MS`].
    pub backoff_base_ms: u64,
    /// Deterministic fault injection, test/REPL only. `None` in production.
    pub faults: Option<FaultPlan>,
}

/// Upper bound on one backoff sleep, keeping retry storms (and tests) fast.
pub const MAX_BACKOFF_MS: u64 = 50;

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            step_deadline_ms: 0,
            max_retries: 2,
            failure_policy: FailurePolicy::Abort,
            backoff_base_ms: 1,
            faults: None,
        }
    }
}

/// How one step ultimately failed, after all attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepFailure {
    /// The handler (or an injected fault) returned an error.
    Error(String),
    /// The attempt panicked; the payload was caught at the supervisor
    /// boundary.
    Panicked(String),
    /// The attempt outlived its deadline (milliseconds).
    TimedOut(u64),
}

impl StepFailure {
    /// One-line rendering for events and findings.
    pub fn render(&self) -> String {
        match self {
            StepFailure::Error(msg) => msg.clone(),
            StepFailure::Panicked(msg) => format!("panicked: {msg}"),
            StepFailure::TimedOut(ms) => format!("exceeded the {ms}ms step deadline"),
        }
    }

    /// The chain error this failure aborts with at step `step`.
    pub fn into_chain_error(self, step: usize) -> ChainError {
        match self {
            StepFailure::Error(msg) => ChainError::ExecutionFailed(step, msg),
            StepFailure::Panicked(msg) => ChainError::StepPanicked(step, msg),
            StepFailure::TimedOut(ms) => ChainError::StepTimedOut(step, ms),
        }
    }
}

/// One retry the supervisor performed, reported as a `StepRetried` event
/// when the step's effects are committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryNote {
    /// 1-based retry number (the attempt it precedes).
    pub attempt: usize,
    /// Backoff slept before this retry, in milliseconds.
    pub backoff_ms: u64,
    /// The transient failure that triggered the retry.
    pub error: String,
}

/// The supervised result of one step: the final outcome plus every retry
/// performed on the way.
#[derive(Debug)]
pub struct Attempted {
    /// `Ok` with the step's value, or the last attempt's failure.
    pub result: Result<Value, StepFailure>,
    /// Retries performed, in order.
    pub retries: Vec<RetryNote>,
}

/// The deterministic backoff before retry `attempt` (0-based count of
/// completed attempts): `base·2^attempt + jitter`, jitter seeded from
/// `(seed, step, attempt)`, capped at [`MAX_BACKOFF_MS`].
pub fn backoff_ms(cfg: &SupervisorConfig, seed: u64, step: usize, attempt: usize) -> u64 {
    let base = cfg.backoff_base_ms;
    if base == 0 {
        return 0;
    }
    let mut h = Fnv64::new();
    h.write_str("backoff");
    h.write_u64(seed);
    h.write_u64(step as u64);
    h.write_u64(attempt as u64);
    let mut rng = StdRng::seed_from_u64(h.finish());
    let jitter = rng.random_range(0..=base);
    (base << attempt.min(6)).saturating_add(jitter).min(MAX_BACKOFF_MS)
}

/// Renders a caught panic payload (the `&str` / `String` payloads `panic!`
/// produces; anything else gets a fixed description).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one step under supervision. `attempt_fn` performs a single attempt
/// against the token and kernel poll delay it is handed (the scheduler
/// threads both into the kernel policy, so delay faults stall CSR kernels
/// *at their cancellation polls*, where a deadline is observed); it is invoked
/// once per attempt. `retryable` comes from the API descriptor's
/// `transient_retryable` flag.
pub fn run_step<F>(
    cfg: &SupervisorConfig,
    seed: u64,
    step: usize,
    retryable: bool,
    mut attempt_fn: F,
) -> Attempted
where
    F: FnMut(&CancelToken, Duration) -> Result<Value, String>,
{
    let mut retries = Vec::new();
    let max_attempts = if retryable { cfg.max_retries + 1 } else { 1 };
    let mut attempt = 0usize;
    loop {
        let fault = cfg.faults.as_ref().and_then(|f| f.fault_for(step, attempt));
        // `(failure, transient)`: only transient-origin failures retry.
        let (failure, transient) = if let Some(InjectedFault::Error) = fault {
            // The handler never runs — in particular the memo cache is not
            // consulted, so fault decisions are identical under warm memo.
            (
                StepFailure::Error(format!("injected fault (step {step}, attempt {attempt})")),
                true,
            )
        } else {
            let token = CancelToken::with_deadline(Duration::from_millis(cfg.step_deadline_ms));
            let delay = match fault {
                Some(InjectedFault::Delay) => {
                    cfg.faults.as_ref().map(|f| f.delay_ms).unwrap_or(0)
                }
                _ => 0,
            };
            // The ONLY catch_unwind in the workspace (repolint CG106):
            // panic payloads become StepFailure::Panicked here instead of
            // unwinding into the scheduler.
            let caught = catch_unwind(AssertUnwindSafe(|| {
                if let Some(InjectedFault::Panic) = fault {
                    panic!("injected panic (step {step}, attempt {attempt})");
                }
                if delay > 0 {
                    // Stall once at the step site, and hand the delay to the
                    // attempt as a kernel poll delay so long kernels stall
                    // at every cancellation poll too.
                    std::thread::sleep(Duration::from_millis(delay));
                }
                attempt_fn(&token, Duration::from_millis(delay))
            }));
            match caught {
                Err(payload) => {
                    let injected = matches!(fault, Some(InjectedFault::Panic));
                    (StepFailure::Panicked(panic_message(payload)), injected)
                }
                // A fired deadline wins over whatever the attempt returned:
                // cancelled kernels return neutral values, so a "result"
                // computed after cancellation must never be observed.
                Ok(_) if token.is_cancelled() => {
                    (StepFailure::TimedOut(cfg.step_deadline_ms), true)
                }
                Ok(Err(msg)) => (StepFailure::Error(msg), false),
                Ok(Ok(value)) => return Attempted { result: Ok(value), retries },
            }
        };
        attempt += 1;
        if transient && attempt < max_attempts {
            let wait = backoff_ms(cfg, seed, step, attempt - 1);
            retries.push(RetryNote {
                attempt,
                backoff_ms: wait,
                error: failure.render(),
            });
            if wait > 0 {
                std::thread::sleep(Duration::from_millis(wait));
            }
            continue;
        }
        return Attempted { result: Err(failure), retries };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> T {
        // Silence the default panic hook while injected panics fly; restore
        // it afterwards so genuine test failures still print.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = catch_unwind(f);
        std::panic::set_hook(hook);
        match out {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    #[test]
    fn fault_draw_is_deterministic_and_attempt_gated() {
        let plan = FaultPlan::new(9).with_error_rate(0.5).with_faults_per_step(2);
        for step in 0..64 {
            let first = plan.fault_for(step, 0);
            assert_eq!(first, plan.fault_for(step, 0), "same draw twice");
            assert_eq!(first, plan.fault_for(step, 1), "kind is per-step");
            assert_eq!(plan.fault_for(step, 2), None, "recovers after budget");
        }
        let hit = plan.afflicted(64).len();
        assert!(hit > 10 && hit < 54, "rate 0.5 afflicts roughly half, got {hit}");
    }

    #[test]
    fn clean_config_returns_first_attempt() {
        let cfg = SupervisorConfig::default();
        let mut calls = 0;
        let out = run_step(&cfg, 1, 0, true, |_, _| {
            calls += 1;
            Ok(Value::Number(7.0))
        });
        assert_eq!(out.result, Ok(Value::Number(7.0)));
        assert!(out.retries.is_empty());
        assert_eq!(calls, 1);
        assert!(cfg.faults.is_none() && cfg.step_deadline_ms == 0);
    }

    #[test]
    fn deterministic_handler_errors_are_not_retried() {
        let cfg = SupervisorConfig { max_retries: 5, ..Default::default() };
        let mut calls = 0;
        let out = run_step(&cfg, 1, 0, true, |_, _| {
            calls += 1;
            Err("no such node".to_owned())
        });
        assert_eq!(out.result, Err(StepFailure::Error("no such node".to_owned())));
        assert_eq!(calls, 1, "pure failures cannot succeed on retry");
        assert!(out.retries.is_empty());
    }

    #[test]
    fn injected_errors_retry_until_budget_then_succeed() {
        // Afflict every step with errors for 2 attempts; 2 retries recover.
        let plan = FaultPlan::new(3).with_error_rate(1.0).with_faults_per_step(2);
        let cfg = SupervisorConfig {
            max_retries: 2,
            faults: Some(plan),
            ..Default::default()
        };
        let mut calls = 0;
        let out = run_step(&cfg, 11, 4, true, |_, _| {
            calls += 1;
            Ok(Value::Bool(true))
        });
        assert_eq!(out.result, Ok(Value::Bool(true)));
        assert_eq!(calls, 1, "handler runs only on the clean third attempt");
        assert_eq!(out.retries.len(), 2);
        // Backoff is reproducible: the notes match the pure function.
        for (i, note) in out.retries.iter().enumerate() {
            assert_eq!(note.attempt, i + 1);
            assert_eq!(note.backoff_ms, backoff_ms(&cfg, 11, 4, i));
        }
    }

    #[test]
    fn injected_errors_exhaust_retries_on_unretryable_steps() {
        let plan = FaultPlan::new(3).with_error_rate(1.0);
        let cfg = SupervisorConfig { max_retries: 3, faults: Some(plan), ..Default::default() };
        let out = run_step(&cfg, 1, 0, false, |_, _| Ok(Value::Unit));
        assert!(matches!(out.result, Err(StepFailure::Error(_))));
        assert!(out.retries.is_empty(), "unretryable steps get one attempt");
    }

    #[test]
    fn injected_panics_are_caught_and_classified() {
        let plan = FaultPlan::new(5).with_panic_rate(1.0);
        let cfg = SupervisorConfig { max_retries: 1, faults: Some(plan), ..Default::default() };
        let out = quiet(|| run_step(&cfg, 1, 2, true, |_, _| Ok(Value::Unit)));
        match out.result {
            Err(StepFailure::Panicked(msg)) => {
                assert!(msg.contains("injected panic (step 2"), "got: {msg}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(out.retries.len(), 1, "injected panics are transient");
    }

    #[test]
    fn real_panics_are_caught_but_not_retried() {
        let cfg = SupervisorConfig { max_retries: 5, ..Default::default() };
        let out = quiet(|| {
            run_step(&cfg, 1, 3, true, |_, _| -> Result<Value, String> {
                panic!("index out of bounds: 99")
            })
        });
        assert_eq!(
            out.result,
            Err(StepFailure::Panicked("index out of bounds: 99".to_owned()))
        );
        assert!(out.retries.is_empty(), "genuine panics are deterministic bugs");
    }

    #[test]
    fn deadline_discards_late_results_and_retries() {
        let cfg = SupervisorConfig { step_deadline_ms: 4, max_retries: 2, ..Default::default() };
        let mut calls = 0;
        let out = run_step(&cfg, 1, 0, true, |_, _| {
            calls += 1;
            std::thread::sleep(Duration::from_millis(12));
            Ok(Value::Number(1.0))
        });
        assert_eq!(out.result, Err(StepFailure::TimedOut(4)));
        assert_eq!(calls, 3, "timeouts are transient: 1 attempt + 2 retries");
        assert_eq!(out.retries.len(), 2);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let cfg = SupervisorConfig::default();
        for step in 0..8 {
            for a in 0..8 {
                let b = backoff_ms(&cfg, 42, step, a);
                assert_eq!(b, backoff_ms(&cfg, 42, step, a));
                assert!(b <= MAX_BACKOFF_MS);
            }
        }
        let zero = SupervisorConfig { backoff_base_ms: 0, ..Default::default() };
        assert_eq!(backoff_ms(&zero, 42, 0, 3), 0);
    }

    #[test]
    fn failure_policy_parses_and_roundtrips_json() {
        assert_eq!(FailurePolicy::parse("abort"), Some(FailurePolicy::Abort));
        assert_eq!(FailurePolicy::parse("skip_degraded"), Some(FailurePolicy::SkipDegraded));
        assert_eq!(FailurePolicy::parse("??"), None);
        let s = chatgraph_support::json::to_string(&FailurePolicy::SkipDegraded);
        assert_eq!(
            chatgraph_support::json::from_str::<FailurePolicy>(&s).unwrap(),
            FailurePolicy::SkipDegraded
        );
    }

    #[test]
    fn step_failures_render_and_convert() {
        assert_eq!(
            StepFailure::Error("x".into()).into_chain_error(3),
            ChainError::ExecutionFailed(3, "x".into())
        );
        assert_eq!(
            StepFailure::Panicked("boom".into()).into_chain_error(1),
            ChainError::StepPanicked(1, "boom".into())
        );
        assert_eq!(
            StepFailure::TimedOut(250).into_chain_error(0),
            ChainError::StepTimedOut(0, 250)
        );
        assert!(StepFailure::TimedOut(250).render().contains("250ms"));
    }
}
