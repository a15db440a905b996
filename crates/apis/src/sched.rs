//! The plan scheduler: executes a [`Plan`] on the caller's thread, one
//! step at a time in index order, serving pure steps through a bounded
//! step-memo cache.
//!
//! ## Execution model
//!
//! [`Scheduler::execute`] is one loop over the plan's steps, all against
//! the chain's one [`ExecContext`]. Each step emits `StepStarted` and
//! resolves its input: the previous output, the current graph version or
//! `Unit`. A barrier (a mutation, a confirmation or a findings read) then
//! asks for its confirmation, if it needs one, and runs unkeyed. A pure
//! step claims its memo key and runs only on a miss. Requests run in
//! parallel across tenants on the serving layer's drain pool; inside one
//! request there are no further threads.
//!
//! ## Step lifecycle
//!
//! Every step, barrier or pure, goes through one supervised attempt and
//! one commit. The attempt (`Scheduler::attempt`) installs the cancel
//! token and poll delay into the context's kernel policy and calls the
//! handler. The commit (`Scheduler::commit`) is the only place a step's
//! effects become observable: retry notes and memo events, the durable
//! [`CommitSink`] commit of a graph mutation, then the finding,
//! `StepFinished` and `StepTimed` — or, on failure, the timeout/panic
//! detail and a degraded result or `StepFailed`. The CSR builds and kernel
//! timings the step caused follow as `CsrBuilt` and `KernelTimed` events.
//!
//! ## Determinism contract
//!
//! For any chain, cold or from a warm memo, the scheduler produces the same
//! final value, the same `findings` in the same order, and the same *core*
//! event sequence (the seed executor's seven [`ChainEvent`] variants, in
//! the same order with the same payloads) as the sequential reference
//! executor the differential tests keep as their oracle, stopping at the
//! smallest failing index. The extra plan events (`PlanBuilt`, `StepTimed`,
//! `MemoLookup`) are non-core ([`ChainEvent::is_core`]) and may differ
//! between a cold and a warm run.
//!
//! ## Memoization
//!
//! Pure steps (non-barriers) are cached in a bounded LRU keyed by an
//! FNV-1a fingerprint of `(api, params, seed, graph-fingerprint, input
//! fingerprint[, database fingerprint for similarity APIs])`. The graph
//! fingerprint is [`Graph::fingerprint`]: O(1), maintained by the graph's
//! mutation methods, and slot-exact, so two graphs whose slots (and so
//! node ids) differ only share memo entries through a hash collision (see
//! [`StepMemo`] on why that is not yet ruled out). Only `Ok` results are
//! stored.
//!
//! ## Coalescing
//!
//! The memo only captures *warm* redundancy; under concurrent duplicate
//! load (many tenants asking the same question of the same graph) identical
//! steps would still each execute once, cold. `StepMemo::claim`, the
//! scheduler's one memo operation, closes that window with singleflight
//! coalescing: the first claimant of a key becomes the *leader* of an
//! in-flight slot and executes; concurrent claimants park on the slot's
//! condvar and receive the published outcome — `Ok` or the step-attributed
//! failure — without running the handler. A step its [`FaultPlan`]
//! afflicts gets no key and runs unmemoized, so an injected fault never
//! enters a shared flight and warm-memo runs see the faults cold runs saw;
//! every other step claims, whether or not a plan is armed.

use crate::chain::{ApiCall, ApiChain, ChainError};
use crate::descriptor::ApiCategory;
use crate::executor::ExecContext;
use crate::monitor::{ChainEvent, Monitor};
use crate::plan::{InputSource, Plan};
use crate::registry::ApiRegistry;
use crate::supervisor::{self, Attempted, FailurePolicy, FaultPlan, StepFailure, SupervisorConfig};
use crate::value::Value;
use chatgraph_analyzer::diag::Diagnostics;
use chatgraph_graph::Graph;
use chatgraph_support::cancel::CancelToken;
use chatgraph_support::hash::Fnv64;
use chatgraph_support::lru::Lru;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default capacity of the step-memo cache.
pub const DEFAULT_MEMO_CAPACITY: usize = 64;

/// Upper bound a coalesced waiter parks on an in-flight slot before giving
/// up and executing solo. This is a hang backstop, not a tuning knob: a
/// leader that dies publishes an abandonment error through its lease's
/// `Drop` long before this fires.
const COALESCE_WAIT: Duration = Duration::from_secs(10);

/// Hit/miss counters of a [`StepMemo`], read without locking the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed (the step then ran, or joined a flight).
    pub misses: u64,
    /// Misses that never executed: the claimant joined an identical
    /// in-flight execution and received its published outcome.
    pub coalesced: u64,
}

impl MemoStats {
    /// Hit fraction of all lookups (0.0 when no lookup happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Keyed lookups requested (hits + misses).
    pub fn requested(&self) -> u64 {
        self.hits + self.misses
    }

    /// Handler executions actually performed: every miss runs except the
    /// coalesced ones, which ride an in-flight leader instead.
    pub fn executed(&self) -> u64 {
        self.misses.saturating_sub(self.coalesced)
    }
}

/// A shareable bounded step-memo cache with hit/miss counters.
///
/// One private `StepMemo` per [`Scheduler`] is the classic per-session
/// cache. The serving layer promotes a single instance to a *global*
/// cross-session cache by handing the same `Arc<StepMemo>` to every
/// tenant's scheduler ([`Scheduler::with_shared_memo`]). The key
/// fingerprints everything a result depends on — api, params, seed, graph
/// fingerprint (per mutation epoch), input fingerprint, and the database
/// fingerprint for similarity APIs — and only `Ok` values are ever stored,
/// so a degraded or faulted step never leaks across tenants.
///
/// A hit is presumed, not proven, to be for identical inputs: the key is a
/// 64-bit unkeyed FNV-1a hash, and [`Graph::fingerprint`] is a wrapping sum
/// of unkeyed per-slot hashes, so two different graphs can be built to
/// share a fingerprint and then each other's memo entries. ROADMAP.md
/// ("Memo hits are proven, not presumed") has the construction and the fix.
#[derive(Debug)]
pub struct StepMemo {
    inner: Mutex<MemoInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

/// The memo's guarded state: the result cache plus the in-flight slots.
/// One mutex for both makes lookup-or-join-or-lead a single atomic
/// decision, which is what guarantees each unique key executes exactly
/// once under concurrent duplicate load.
#[derive(Debug)]
struct MemoInner {
    lru: Lru<u64, Value>,
    flights: HashMap<u64, Arc<FlightSlot>>,
}

/// One in-flight execution other claimants can park on.
// The two memo-side lock classes never nest the other way: `claim` drops
// `inner` before touching a slot, and a lease publishes to `inner` first,
// then to its slot.
// lockdoc: order(inner < slot)
#[derive(Debug, Default)]
struct FlightSlot {
    /// The published outcome; `None` while the leader is still computing.
    slot: Mutex<Option<Result<Value, StepFailure>>>,
    cv: Condvar,
}

impl FlightSlot {
    /// Parks until the leader publishes, up to `backstop`. `None` on
    /// expiry — the caller then executes solo rather than hang.
    // lockdoc: acquires(slot)
    fn wait(&self, backstop: Duration) -> Option<Result<Value, StepFailure>> {
        // The slot holds one plain published outcome; a publisher panicking
        // mid-store cannot tear an `Option` swap, so recovery is safe.
        // lockdoc: recover(the slot holds a plain whole outcome; poison cannot tear it)
        let mut guard = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        let deadline = Instant::now() + backstop;
        while guard.is_none() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (g, _) = self
                .cv
                .wait_timeout(guard, left)
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        }
        guard.clone()
    }

    /// Publishes the outcome and wakes every waiter.
    // lockdoc: acquires(slot)
    fn publish(&self, outcome: Result<Value, StepFailure>) {
        // lockdoc: recover(the slot holds a plain whole outcome; poison cannot tear it)
        let mut guard = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(outcome);
        drop(guard);
        self.cv.notify_all();
    }
}

/// What [`StepMemo::claim`] tells its caller to do.
enum Claim {
    /// Served from the memo; nothing runs.
    Hit(Value),
    /// The caller executes the step. With a lease it *leads* an in-flight
    /// slot concurrent claimants may join, and must publish its outcome
    /// through the lease. Without one (a waiter whose backstop expired) it
    /// runs solo and leaves the memo alone.
    Run(Option<FlightLease>),
    /// An identical in-flight execution published its outcome while this
    /// caller waited: the shared value, or the shared failure.
    Coalesced(Result<Value, StepFailure>),
}

/// Leadership of one in-flight slot. The leader executes the step and
/// publishes through [`FlightLease::publish`]; if the lease is dropped
/// unpublished (a scheduler-internal death), an abandonment error is
/// published instead so waiters fail immediately rather than hang until
/// their backstop.
struct FlightLease {
    memo: Arc<StepMemo>,
    key: u64,
    flight: Arc<FlightSlot>,
    published: bool,
}

impl FlightLease {
    /// Publishes the leader's outcome: an `Ok` is stored in the memo
    /// (failures are shared with waiters but never cached), the in-flight
    /// entry is removed, and every waiter wakes with a clone.
    fn publish(mut self, outcome: Result<Value, StepFailure>) {
        self.complete(outcome);
    }

    fn complete(&mut self, outcome: Result<Value, StepFailure>) {
        if self.published {
            return;
        }
        self.published = true;
        {
            let mut inner = self.memo.lock();
            if let Ok(v) = &outcome {
                inner.lru.insert(self.key, v.clone());
            }
            inner.flights.remove(&self.key);
        }
        self.flight.publish(outcome);
    }
}

impl Drop for FlightLease {
    fn drop(&mut self) {
        self.complete(Err(StepFailure::Error(
            "coalesced step leader abandoned the flight".to_owned(),
        )));
    }
}

impl Default for StepMemo {
    fn default() -> Self {
        StepMemo::new(DEFAULT_MEMO_CAPACITY)
    }
}

impl StepMemo {
    /// A memo holding at most `capacity` results (0 disables storage).
    pub fn new(capacity: usize) -> Self {
        StepMemo {
            inner: Mutex::new(MemoInner {
                lru: Lru::new(capacity),
                flights: HashMap::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    // lockdoc: acquires(inner)
    fn lock(&self) -> MutexGuard<'_, MemoInner> {
        // A holder can only poison this lock by panicking mid-`get`/`insert`;
        // the cache itself stays structurally valid, so keep using it.
        // lockdoc: recover(memo holders only get/insert; the LRU and flight map stay structurally valid through a panic)
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Atomically looks up `key`, joins its in-flight execution, or takes
    /// leadership of a new one — the memo's only entry point. The decision
    /// happens under one lock, so of all concurrent claimants of a missing
    /// key exactly one receives a lease; the rest park on the slot (with a
    /// backstop) and return [`Claim::Coalesced`] once the leader publishes.
    fn claim(self: &Arc<Self>, key: u64) -> Claim {
        let flight = {
            let mut inner = self.lock();
            if let Some(v) = inner.lru.get(&key) {
                let v = v.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Claim::Hit(v);
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            match inner.flights.get(&key) {
                Some(flight) => Arc::clone(flight),
                None => {
                    let flight = Arc::new(FlightSlot::default());
                    inner.flights.insert(key, Arc::clone(&flight));
                    return Claim::Run(Some(FlightLease {
                        memo: Arc::clone(self),
                        key,
                        flight,
                        published: false,
                    }));
                }
            }
        };
        // Follower: the `inner` guard is released; park on the slot alone.
        match flight.wait(COALESCE_WAIT) {
            Some(outcome) => {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                Claim::Coalesced(outcome)
            }
            None => Claim::Run(None),
        }
    }

    /// Current number of memoized results.
    #[allow(clippy::len_without_is_empty)] // a statistic, not a collection
    pub fn len(&self) -> usize {
        self.lock().lru.len()
    }

    /// Hit/miss/coalesced counters since construction.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }
}

/// The scheduler-relevant slice of a session's execution configuration —
/// the single source of truth for building a [`Scheduler`], so every
/// construction site picks up every knob
/// ([`Scheduler::from_exec_config`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecProfile {
    /// Capacity of the pure-step memo cache (0 disables caching).
    pub memo_capacity: usize,
    /// Deadline / retry / failure-policy configuration.
    pub supervisor: SupervisorConfig,
}

impl Default for ExecProfile {
    fn default() -> Self {
        ExecProfile {
            memo_capacity: DEFAULT_MEMO_CAPACITY,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// Acknowledgement from a [`CommitSink`] for one durable mutation barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitAck {
    /// The durable epoch the commit produced.
    pub epoch: u64,
    /// WAL records the commit appended.
    pub records: usize,
    /// Bytes the commit appended.
    pub bytes: u64,
}

/// A durability hook on the scheduler's mutation barriers.
///
/// When installed ([`Scheduler::set_commit_sink`]), the scheduler calls
/// [`CommitSink::commit`] once per successful graph-mutating barrier step,
/// **before** the step's effects are published to the chain (finding pushed,
/// `StepFinished` emitted, output forwarded). A failed commit aborts the
/// chain with [`ChainError::CommitFailed`] so no later step builds on
/// unlogged state; the in-memory mutation itself stands (the session layer
/// installs the graph even on chain failure).
pub trait CommitSink: Send + Sync + std::fmt::Debug {
    /// Durably records `graph` as the next epoch. The sink may keep the
    /// `Arc` (the durable store does, as its next delta base).
    fn commit(&self, graph: &Arc<Graph>) -> Result<CommitAck, String>;
}

/// Executes plans through a step-memo cache.
///
/// The scheduler is long-lived: a session keeps one and the memo cache
/// carries across chains, so re-running an edited chain re-executes only
/// the steps whose inputs changed.
#[derive(Debug, Default)]
pub struct Scheduler {
    supervisor: SupervisorConfig,
    memo: Arc<StepMemo>,
    commit_sink: Option<Arc<dyn CommitSink>>,
}

impl Scheduler {
    /// A scheduler with the default supervisor and memo capacity.
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// Builds a scheduler from an execution profile — the one construction
    /// path every session goes through, so a new exec knob added here is
    /// picked up everywhere at once.
    pub fn from_exec_config(profile: &ExecProfile) -> Self {
        Scheduler {
            supervisor: profile.supervisor.clone(),
            memo: Arc::new(StepMemo::new(profile.memo_capacity)),
            commit_sink: None,
        }
    }

    /// Overrides the memo capacity (0 disables memoization) with a fresh
    /// private cache.
    pub fn with_memo_capacity(mut self, capacity: usize) -> Self {
        self.memo = Arc::new(StepMemo::new(capacity));
        self
    }

    /// Replaces the private memo with a shared (possibly global,
    /// cross-session) one.
    pub fn with_shared_memo(mut self, memo: Arc<StepMemo>) -> Self {
        self.memo = memo;
        self
    }

    /// A handle to the memo cache (for sharing or for reading stats).
    pub fn memo_handle(&self) -> Arc<StepMemo> {
        Arc::clone(&self.memo)
    }

    /// Overrides the supervisor configuration (`exec.step_deadline_ms`,
    /// `exec.max_retries`, `exec.failure_policy`).
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Arms (or clears) deterministic fault injection for subsequent
    /// chains — the REPL's `:faults` command and the test harness.
    pub fn set_fault_plan(&mut self, faults: Option<FaultPlan>) {
        self.supervisor.faults = faults;
    }

    /// The current supervisor configuration.
    pub fn supervisor(&self) -> &SupervisorConfig {
        &self.supervisor
    }

    /// Mutable access to the supervisor configuration (per-tenant failure
    /// policy overrides in the serving layer and the test harness).
    pub fn supervisor_mut(&mut self) -> &mut SupervisorConfig {
        &mut self.supervisor
    }

    /// Installs (or clears) the durable commit sink called on every
    /// successful mutation barrier.
    pub fn set_commit_sink(&mut self, sink: Option<Arc<dyn CommitSink>>) {
        self.commit_sink = sink;
    }

    /// Plans and executes `chain` — same contract as
    /// [`crate::execute_chain`], which is this on a fresh scheduler.
    ///
    /// Building the plan validates the chain, so an invalid chain fails
    /// with its typed error (`UnknownApi`, `TypeMismatch`, `Empty`) before
    /// any event is emitted; the analysis gate then runs on a chain that
    /// type-checks. The steps then run one at a time (module docs,
    /// "Execution model").
    pub fn execute(
        &self,
        registry: &ApiRegistry,
        chain: &ApiChain,
        ctx: &mut ExecContext,
        monitor: &mut dyn Monitor,
    ) -> Result<Value, ChainError> {
        let plan = Plan::build(chain, registry)?;
        gate(crate::analysis::analyze(chain, registry, true), monitor)?;
        monitor.on_event(&ChainEvent::ChainStarted { total: chain.len() });
        monitor.on_event(&ChainEvent::PlanBuilt {
            steps: plan.len(),
            barriers: plan.barrier_count(),
        });
        let mut prev = Value::Unit;
        for j in 0..plan.len() {
            let call = &chain.steps[j];
            monitor.on_event(&ChainEvent::StepStarted {
                step: j,
                api: call.api.clone(),
            });
            let input = match plan.steps[j].input {
                InputSource::PrevOutput(_) => prev.clone(),
                InputSource::SessionGraph => Value::Graph(Arc::clone(&ctx.graph)),
                InputSource::Unit => Value::Unit,
            };
            let outcome = if plan.steps[j].barrier {
                if registry
                    .descriptor(&call.api)
                    .is_some_and(|d| d.requires_confirmation)
                {
                    monitor.on_event(&ChainEvent::ConfirmationRequested {
                        step: j,
                        api: call.api.clone(),
                    });
                    if !monitor.confirm(j, &call.api, &input.summary()) {
                        return Err(ChainError::Rejected(j, call.api.clone()));
                    }
                }
                let start = Instant::now();
                let attempted = self.attempt(registry, call, j, &input, ctx);
                StepOutcome::new(attempted, start, Served::Unkeyed)
            } else {
                self.run_pure(registry, call, j, &input, ctx)
            };
            let committed = self.commit(&plan, j, outcome, ctx, monitor);
            drain_kernel_events(ctx, monitor);
            if let Some(output) = committed? {
                prev = output;
            }
        }
        monitor.on_event(&ChainEvent::ChainFinished);
        Ok(prev)
    }

    /// Runs pure step `j` through the memo, against `ctx` on a miss.
    ///
    /// Every keyed step claims: a hit or a coalesced flight skips the
    /// handler, and a leader publishes its outcome (value *or* failure) to
    /// its waiters — identical keys imply identical outcomes, so sharing is
    /// observationally identical to running solo. The one exception is a
    /// step the fault plan afflicts: it gets no key, so its injected faults
    /// and clean retry stay private to this run, and the memo can neither
    /// mask them on a warm run nor leak them through a flight.
    fn run_pure(
        &self,
        registry: &ApiRegistry,
        call: &ApiCall,
        j: usize,
        input: &Value,
        ctx: &mut ExecContext,
    ) -> StepOutcome {
        let faults = self.supervisor.faults.as_ref();
        let afflicted = faults.is_some_and(|f| f.fault_for(j, 0).is_some());
        let key = (!afflicted).then(|| memo_key(registry, call, input, ctx));
        let start = Instant::now();
        let served = |result, served| {
            StepOutcome::new(Attempted { result, retries: Vec::new() }, start, served)
        };
        let (lease, served_as) = match key.map(|k| self.memo.claim(k)) {
            Some(Claim::Hit(v)) => return served(Ok(v), Served::MemoHit),
            Some(Claim::Coalesced(shared)) => return served(shared, Served::Coalesced),
            Some(Claim::Run(lease)) => (lease, Served::Ran),
            None => (None, Served::Unkeyed),
        };
        let attempted = self.attempt(registry, call, j, input, ctx);
        if let Some(lease) = lease {
            lease.publish(attempted.result.clone());
        }
        StepOutcome::new(attempted, start, served_as)
    }

    /// The one supervised attempt of step `j` (module docs, "Step
    /// lifecycle"). CSR kernels observe each attempt's deadline at their
    /// cancellation polls.
    fn attempt(
        &self,
        registry: &ApiRegistry,
        call: &ApiCall,
        j: usize,
        input: &Value,
        ctx: &mut ExecContext,
    ) -> Attempted {
        let retryable = registry
            .descriptor(&call.api)
            .is_some_and(|d| d.transient_retryable);
        let attempted = supervisor::run_step(
            &self.supervisor,
            ctx.seed,
            j,
            retryable,
            |token, poll_delay| {
                ctx.kernels.policy.cancel = token.clone();
                ctx.kernels.policy.poll_delay = poll_delay;
                registry.call(&call.api, ctx, input.clone(), call)
            },
        );
        ctx.kernels.policy.cancel = CancelToken::new();
        ctx.kernels.policy.poll_delay = Duration::ZERO;
        attempted
    }

    /// The one commit (module docs, "Step lifecycle"). A mutating step's
    /// `StepTimed` covers its durable commit.
    /// Returns the step's value, or `None` when it degraded — only an
    /// unconsumed output under `SkipDegraded` does, never a barrier's.
    fn commit(
        &self,
        plan: &Plan,
        j: usize,
        outcome: StepOutcome,
        ctx: &mut ExecContext,
        monitor: &mut dyn Monitor,
    ) -> Result<Option<Value>, ChainError> {
        let api = &plan.steps[j].api;
        for note in &outcome.retries {
            monitor.on_event(&ChainEvent::StepRetried {
                step: j,
                api: api.clone(),
                attempt: note.attempt,
                backoff_ms: note.backoff_ms,
                error: note.error.clone(),
            });
        }
        if outcome.served != Served::Unkeyed {
            monitor.on_event(&ChainEvent::MemoLookup {
                step: j,
                api: api.clone(),
                hit: outcome.served == Served::MemoHit,
            });
        }
        if outcome.served == Served::Coalesced {
            monitor.on_event(&ChainEvent::StepCoalesced {
                step: j,
                api: api.clone(),
            });
        }
        let failure = match outcome.result {
            Ok(output) => {
                let mut micros = outcome.micros;
                if plan.steps[j].mutates_graph {
                    if let Some(sink) = &self.commit_sink {
                        let start = Instant::now();
                        match sink.commit(&ctx.graph) {
                            Ok(ack) => monitor.on_event(&ChainEvent::WalAppended {
                                step: j,
                                epoch: ack.epoch,
                                records: ack.records,
                                bytes: ack.bytes,
                            }),
                            Err(error) => {
                                monitor.on_event(&ChainEvent::StepFailed {
                                    step: j,
                                    api: api.clone(),
                                    error: format!("durable commit failed: {error}"),
                                });
                                return Err(ChainError::CommitFailed(j, error));
                            }
                        }
                        micros += start.elapsed().as_micros() as u64;
                    }
                }
                ctx.push_finding(api, &output);
                monitor.on_event(&ChainEvent::StepFinished {
                    step: j,
                    api: api.clone(),
                    output: output.value_type(),
                    summary: output.summary(),
                });
                monitor.on_event(&ChainEvent::StepTimed {
                    step: j,
                    api: api.clone(),
                    micros,
                    cached: outcome.served == Served::MemoHit,
                });
                return Ok(Some(output));
            }
            Err(failure) => failure,
        };
        match &failure {
            StepFailure::TimedOut(ms) => monitor.on_event(&ChainEvent::StepTimedOut {
                step: j,
                api: api.clone(),
                deadline_ms: *ms,
            }),
            StepFailure::Panicked(msg) => monitor.on_event(&ChainEvent::StepPanicked {
                step: j,
                api: api.clone(),
                message: msg.clone(),
            }),
            StepFailure::Error(_) => {}
        }
        let error = failure.render();
        if self.supervisor.failure_policy == FailurePolicy::SkipDegraded && plan.dead_output(j) {
            // The output is provably unconsumed downstream: record a
            // degraded finding and keep the chain alive.
            ctx.push_finding(api, &Value::Text(format!("degraded: {error}")));
            monitor.on_event(&ChainEvent::DegradedResult {
                step: j,
                api: api.clone(),
                error,
            });
            return Ok(None);
        }
        monitor.on_event(&ChainEvent::StepFailed {
            step: j,
            api: api.clone(),
            error,
        });
        Err(failure.into_chain_error(j))
    }
}

/// Emits `diagnostics` as one [`ChainEvent::Diagnostics`] when non-empty
/// and refuses the chain on the first Error.
fn gate(diagnostics: Diagnostics, monitor: &mut dyn Monitor) -> Result<(), ChainError> {
    let refusal = diagnostics
        .first_error()
        .map(|d| ChainError::AnalysisRejected(d.render()));
    if !diagnostics.is_empty() {
        monitor.on_event(&ChainEvent::Diagnostics { diagnostics });
    }
    refusal.map_or(Ok(()), Err)
}

/// Flushes CSR build and kernel timing records accumulated in the context's
/// kernel state out to the monitor as plan events.
fn drain_kernel_events(ctx: &mut ExecContext, monitor: &mut dyn Monitor) {
    for b in ctx.kernels.drain_builds() {
        monitor.on_event(&ChainEvent::CsrBuilt {
            nodes: b.nodes,
            edges: b.edges,
            micros: b.micros,
            delta: false,
        });
    }
    for (kernel, micros) in ctx.kernels.drain_timings() {
        monitor.on_event(&ChainEvent::KernelTimed { kernel, micros });
    }
}

/// How a step's result was obtained: what its `MemoLookup`,
/// `StepCoalesced` and `StepTimed.cached` report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    /// The memo missed and the handler ran.
    Ran,
    /// Served from the memo cache; nothing ran.
    MemoHit,
    /// Received from an identical in-flight execution; nothing ran.
    Coalesced,
    /// Ran without a memo key: a barrier, or a step its fault plan
    /// afflicts.
    Unkeyed,
}

/// What happened when one step ran (or was served from the memo).
struct StepOutcome {
    result: Result<Value, StepFailure>,
    /// Supervisor retries performed before the final result, in order.
    retries: Vec<supervisor::RetryNote>,
    micros: u64,
    served: Served,
}

impl StepOutcome {
    /// The outcome of a supervised run (or memo service) begun at `start`.
    fn new(attempted: Attempted, start: Instant, served: Served) -> StepOutcome {
        StepOutcome {
            result: attempted.result,
            retries: attempted.retries,
            micros: start.elapsed().as_micros() as u64,
            served,
        }
    }
}

/// The memo key of pure step `call` on `input`: api, params, seed, the
/// graph version, the input and, for a similarity step, the database.
fn memo_key(registry: &ApiRegistry, call: &ApiCall, input: &Value, ctx: &ExecContext) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&call.api);
    for (k, v) in &call.params {
        h.write_str(k);
        h.write_str(v);
    }
    h.write_u64(ctx.seed);
    h.write_u64(ctx.graph.fingerprint());
    h.write_u64(value_fingerprint(input));
    if registry
        .descriptor(&call.api)
        .is_some_and(|d| d.category == ApiCategory::Similarity)
    {
        h.write_u64(database_fingerprint(&ctx.database));
    }
    h.finish()
}

/// The memo key's graph component: [`Graph::fingerprint`], O(1).
pub fn graph_fingerprint(g: &Graph) -> u64 {
    g.fingerprint()
}

fn database_fingerprint(db: &[Graph]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(db.len() as u64);
    for g in db {
        h.write_u64(g.fingerprint());
    }
    h.finish()
}

/// FNV-1a fingerprint of a value. Hand-rolled rather than JSON-based so
/// float payloads hash via `to_bits` (NaN-safe, no formatting wobble).
pub fn value_fingerprint(v: &Value) -> u64 {
    let mut h = Fnv64::new();
    match v {
        Value::Unit => h.write_str("unit"),
        Value::Number(x) => {
            h.write_str("num");
            h.write_u64(x.to_bits());
        }
        Value::Text(t) => {
            h.write_str("text");
            h.write_str(t);
        }
        Value::Bool(b) => {
            h.write_str("bool");
            h.write_u64(u64::from(*b));
        }
        Value::NodeList(ns) => {
            h.write_str("nodes");
            h.write_u64(ns.len() as u64);
            for n in ns {
                h.write_u64(n.index() as u64);
            }
        }
        Value::EdgeList(es) => {
            h.write_str("edges");
            h.write_u64(es.len() as u64);
            for (a, b, l) in es {
                h.write_u64(a.index() as u64);
                h.write_u64(b.index() as u64);
                h.write_str(l);
            }
        }
        Value::Table(t) => {
            h.write_str("table");
            h.write_u64(t.headers.len() as u64);
            for c in &t.headers {
                h.write_str(c);
            }
            h.write_u64(t.rows.len() as u64);
            for row in &t.rows {
                h.write_u64(row.len() as u64);
                for c in row {
                    h.write_str(c);
                }
            }
        }
        Value::Report(r) => {
            h.write_str("report");
            h.write_str(&r.title);
            h.write_u64(r.sections.len() as u64);
            for (a, b) in &r.sections {
                h.write_str(a);
                h.write_str(b);
            }
        }
        Value::Graph(g) => {
            h.write_str("graph");
            h.write_u64(g.fingerprint());
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::CollectingMonitor;
    use crate::registry;
    use chatgraph_graph::generators::{
        knowledge_graph, social_network, KgParams, SocialParams,
    };

    fn social_ctx() -> ExecContext {
        ExecContext::new(social_network(&SocialParams::default(), 1))
    }

    #[test]
    fn plan_built_event_precedes_steps() {
        let reg = registry::standard();
        let chain = ApiChain::from_names(["node_count", "edge_count"]);
        let mut ctx = social_ctx();
        let mut mon = CollectingMonitor::new();
        Scheduler::new().execute(&reg, &chain, &mut ctx, &mut mon).unwrap();
        let started = mon
            .events
            .iter()
            .position(|e| matches!(e, ChainEvent::ChainStarted { total: 2 }))
            .expect("ChainStarted must be emitted");
        assert!(matches!(
            mon.events[started + 1],
            ChainEvent::PlanBuilt { steps: 2, barriers: 0, .. }
        ));
        assert!(mon.events[..started]
            .iter()
            .all(|e| matches!(e, ChainEvent::Diagnostics { .. })));
        assert!(matches!(mon.events.last(), Some(ChainEvent::ChainFinished)));
    }

    #[test]
    fn memo_serves_repeated_steps() {
        let reg = registry::standard();
        let chain = ApiChain::from_names(["node_count", "edge_count"]);
        let sched = Scheduler::new();
        let mut ctx = social_ctx();
        sched
            .execute(&reg, &chain, &mut ctx, &mut crate::monitor::SilentMonitor)
            .unwrap();
        assert!(sched.memo_handle().len() >= 2);
        // Same chain, same graph: every step is a hit now.
        let mut ctx2 = social_ctx();
        let mut mon = CollectingMonitor::new();
        sched.execute(&reg, &chain, &mut ctx2, &mut mon).unwrap();
        let hits = mon
            .events
            .iter()
            .filter(|e| matches!(e, ChainEvent::MemoLookup { hit: true, .. }))
            .count();
        assert_eq!(hits, 2);
        assert_eq!(ctx2.findings, ctx.findings);
    }

    /// A tombstoned graph and its `compact()` hold the same live content
    /// under different node ids, so they must not share memo entries: a
    /// hit would hand one graph's ids to the other.
    #[test]
    fn memo_keeps_a_tombstoned_graph_and_its_compaction_apart() {
        let reg = registry::standard();
        let chain = ApiChain::from_names(["find_influencers"]);
        let mut g = social_network(&SocialParams::default(), 3);
        g.remove_node(chatgraph_graph::NodeId(0)).unwrap();
        let (compacted, _) = g.compact();
        let run = |sched: &Scheduler, g: &Graph| {
            let mut ctx = ExecContext::new(g.clone());
            sched
                .execute(&reg, &chain, &mut ctx, &mut crate::monitor::SilentMonitor)
                .unwrap()
        };
        let sched = Scheduler::new();
        let tombstoned = run(&sched, &g);
        let served = run(&sched, &compacted);
        assert_eq!(served, run(&Scheduler::new(), &compacted));
        assert_ne!(served, tombstoned, "the ids differ, so the answers must");
    }

    #[test]
    fn mutation_invalidates_memoized_graph_reads() {
        let reg = registry::standard();
        let sched = Scheduler::new();
        let mut g = knowledge_graph(&KgParams::default(), 7);
        chatgraph_graph::generators::corrupt_kg(&mut g, 0.1, 0.0, 7);
        let chain = ApiChain::from_names([
            "edge_count",
            "detect_incorrect_edges",
            "remove_edges",
            "edge_count",
        ]);
        let mut ctx = ExecContext::new(g);
        let mut mon = CollectingMonitor::new();
        let out = sched.execute(&reg, &chain, &mut ctx, &mut mon).unwrap();
        let before = ctx.findings[0].1.as_number().unwrap();
        let after = out.as_number().unwrap();
        assert!(after < before, "post-edit read must not be served stale");
        // No memo hit anywhere: the graph fingerprint changed at the barrier.
        assert!(!mon
            .events
            .iter()
            .any(|e| matches!(e, ChainEvent::MemoLookup { hit: true, .. })));
    }

    #[test]
    fn rejection_and_failure_indices_match_reference() {
        let reg = registry::standard();
        let chain = ApiChain::from_names(["detect_incorrect_edges", "remove_edges"]);
        let mut ctx = ExecContext::new(knowledge_graph(&KgParams::default(), 3));
        let mut mon = CollectingMonitor::with_answers([false]);
        let err = Scheduler::new().execute(&reg, &chain, &mut ctx, &mut mon).unwrap_err();
        assert_eq!(err, ChainError::Rejected(1, "remove_edges".to_owned()));
        assert_eq!(mon.confirm_log.len(), 1);
    }

    #[test]
    fn value_fingerprints_separate_values() {
        let a = value_fingerprint(&Value::Number(1.0));
        let b = value_fingerprint(&Value::Number(2.0));
        assert_ne!(a, b);
        assert_eq!(a, value_fingerprint(&Value::Number(1.0)));
        assert_ne!(
            value_fingerprint(&Value::Text("1".into())),
            value_fingerprint(&Value::Number(1.0))
        );
        // NaN fingerprints consistently instead of poisoning the cache key.
        assert_eq!(
            value_fingerprint(&Value::Number(f64::NAN)),
            value_fingerprint(&Value::Number(f64::NAN))
        );
    }
}
