//! Multi-tenant session server: hundreds of concurrent [`ChatSession`]s
//! over one shared [`SessionCore`], one shared worker pool, and a shared
//! cross-session step memo (DESIGN.md §12).
//!
//! ## Tenancy model
//!
//! One [`SessionServer`] owns one finetuned core. Each tenant holds a
//! [`TenantId`] naming a private [`ChatSession`] (graph, transcript,
//! scheduler) behind its own mutex. Two things are shared:
//!
//! * the **core** — config, registry, retriever, finetuned model; all
//!   read-only after bootstrap;
//! * the **step memo** — one [`StepMemo`] serving every tenant's pure-step
//!   memoization. Sound across tenants because keys fingerprint the api,
//!   parameters, seed, graph content and inputs; a hit from another
//!   tenant's identical sub-chain is indistinguishable from one's own.
//!
//! CSR snapshots need no server-side sharing: each graph version carries
//! its own ([`chatgraph_graph::Graph::csr`]), so tenants reading one shared
//! version — a memoized graph value — read one snapshot, and a replaced
//! version's snapshot is freed with it.
//!
//! ## Fairness and the pool
//!
//! Requests are submitted per tenant ([`SessionServer::submit`]) into
//! bounded FIFO queues, and executed by [`SessionServer::drain`] on a
//! scoped pool of `pool_workers` threads. Workers claim tenants round-robin
//! from a shared cursor, at most one in-flight *claim* per tenant. Each
//! claim takes up to [`ServeConfig::claim_batch`] requests from the
//! tenant's queue in one queue-lock acquisition and runs them FIFO under
//! one session-lock acquisition, amortising the per-request locking. The
//! fairness invariant is unchanged: the batch bound means a tenant with a
//! deep queue holds a worker for at most `claim_batch` requests before the
//! worker's cursor moves on, and per-tenant order is preserved because a
//! tenant's requests only ever run inside its single in-flight claim.
//! Admission control is two-level — [`ServeError::AtCapacity`] at session
//! open, [`ServeError::QueueFull`] at submit.
//!
//! ## Poisoning
//!
//! A panicked tenant poisons only its own session mutex; the server reports
//! [`ServeError::SessionPoisoned`] for that tenant ever after and the
//! others are untouched. The server never calls `into_inner` on a poisoned
//! session — recovering a half-mutated session is precisely the aliasing
//! bug the old process-global singleton had.

use crate::config::ChatGraphConfig;
use crate::finetune::FinetuneReport;
use crate::prompt::Prompt;
use crate::session::{ChatResponse, ChatSession, SessionCore, SessionError};
use chatgraph_apis::{
    ApiChain, ChainError, ChainEvent, CollectingMonitor, MemoStats, StepMemo, Value,
};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Opaque per-tenant handle issued by [`SessionServer::open_session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(u64);

impl TenantId {
    /// The raw tenant number (stable for the server's lifetime).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Server construction and serving errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// `max_sessions` tenants are already open.
    AtCapacity,
    /// The tenant id was never issued or its session was closed.
    UnknownTenant,
    /// The tenant's request queue is at `queue_depth`.
    QueueFull,
    /// The tenant's session mutex is poisoned (a panic escaped while it
    /// was held). The tenant is dead; other tenants are unaffected.
    SessionPoisoned,
    /// The serve configuration failed [`ServeConfig::validate`].
    InvalidServeConfig(Vec<String>),
    /// Building the shared core failed.
    Session(SessionError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::AtCapacity => write!(f, "server is at max_sessions capacity"),
            ServeError::UnknownTenant => write!(f, "unknown or closed tenant"),
            ServeError::QueueFull => write!(f, "tenant request queue is full"),
            ServeError::SessionPoisoned => {
                write!(f, "tenant session is poisoned by an earlier panic")
            }
            ServeError::InvalidServeConfig(problems) => {
                write!(f, "invalid serve config: {}", problems.join("; "))
            }
            ServeError::Session(e) => write!(f, "session error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SessionError> for ServeError {
    fn from(e: SessionError) -> Self {
        ServeError::Session(e)
    }
}

/// Serving knobs, orthogonal to the per-session [`crate::ExecConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission-control ceiling on concurrently open sessions.
    pub max_sessions: usize,
    /// Bound on each tenant's pending-request queue.
    pub queue_depth: usize,
    /// Worker threads in the shared drain pool.
    pub pool_workers: usize,
    /// Capacity of the shared step memo (entries).
    pub memo_capacity: usize,
    /// Requests a drain worker takes from one tenant's queue per claim
    /// (one queue-lock and one session-lock acquisition per batch). Also
    /// the fairness bound: a worker serves at most this many requests from
    /// one tenant before its cursor moves on.
    pub claim_batch: usize,
    /// Directory for per-tenant durable store files. Empty (the default)
    /// disables durability; otherwise each opened session gets a store at
    /// `<store_dir>/tenant-<id>.cgdb` and an existing file is recovered
    /// when the same tenant id is reopened after a restart.
    pub store_dir: String,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 256,
            queue_depth: 32,
            pool_workers: 4,
            memo_capacity: 1024,
            claim_batch: 8,
            store_dir: String::new(),
        }
    }
}

impl ServeConfig {
    /// Validates every knob, returning human-readable problems.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        if self.max_sessions == 0 {
            problems.push("serve.max_sessions must be >= 1".to_owned());
        }
        if self.queue_depth == 0 {
            problems.push("serve.queue_depth must be >= 1".to_owned());
        }
        if self.pool_workers == 0 {
            problems.push("serve.pool_workers must be >= 1".to_owned());
        }
        if self.memo_capacity == 0 {
            problems.push("serve.memo_capacity must be >= 1".to_owned());
        }
        if self.claim_batch == 0 {
            problems.push("serve.claim_batch must be >= 1".to_owned());
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

/// One unit of tenant work.
#[derive(Debug, Clone)]
pub enum Request {
    /// A chat turn: propose a chain, do not execute.
    Chat(Prompt),
    /// Execute a confirmed (possibly user-edited) chain.
    Execute(ApiChain),
    /// A chat turn followed immediately by execution of the proposed chain
    /// (auto-confirm) — the bench's end-to-end path.
    ChatAndRun(Prompt),
}

/// One executed chain with its monitor trace.
#[derive(Debug, Clone)]
pub struct Execution {
    /// The chain that ran.
    pub chain: ApiChain,
    /// Its final value, or the failure.
    pub result: Result<Value, ChainError>,
    /// The full monitoring event stream.
    pub events: Vec<ChainEvent>,
}

/// The server's answer to one [`Request`].
#[derive(Debug, Clone)]
pub enum Reply {
    /// Answer to [`Request::Chat`].
    Chat(ChatResponse),
    /// Answer to [`Request::Execute`].
    Execution(Execution),
    /// Answer to [`Request::ChatAndRun`]; the execution is absent when the
    /// proposed chain was empty.
    ChatAndRun(ChatResponse, Option<Execution>),
}

/// One completed request, as returned by [`SessionServer::drain`].
#[derive(Debug, Clone)]
pub struct Completed {
    /// The tenant the request belonged to.
    pub tenant: TenantId,
    /// Submission sequence number within the tenant (FIFO order).
    pub seq: u64,
    /// Wall-clock latency from submission to completion, including queue
    /// wait — the open-loop serving latency.
    pub latency_micros: u64,
    /// The outcome.
    pub reply: Result<Reply, ServeError>,
}

// The serving lock hierarchy, checked by repolint's concurrency pass
// (CG201/CG203): the tenant registry is acquired before any per-tenant
// queue, and a queue before that tenant's session.
// lockdoc: order(tenants < queue < session)
struct TenantSlot {
    session: Mutex<ChatSession>,
    queue: Mutex<VecDeque<(u64, Request, Instant)>>,
    /// One-in-flight latch: held by a drain worker while it runs one of
    /// this tenant's requests, so per-tenant FIFO order survives the pool.
    busy: AtomicBool,
    next_seq: AtomicU64,
}

impl TenantSlot {
    // lockdoc: acquires(queue)
    fn queue_guard(&self) -> std::sync::MutexGuard<'_, VecDeque<(u64, Request, Instant)>> {
        // The queue holds plain data (no session state); recovering it
        // after a worker panic cannot observe a half-mutated session.
        // lockdoc: recover(queue entries are plain data; a panic mid-push/pop cannot leave them torn)
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The multi-tenant session server. See the module docs for the tenancy
/// model, sharing rules, and fairness policy.
pub struct SessionServer {
    core: Arc<SessionCore>,
    serve: ServeConfig,
    memo: Arc<StepMemo>,
    tenants: Mutex<BTreeMap<u64, Arc<TenantSlot>>>,
    next_tenant: AtomicU64,
}

impl SessionServer {
    /// Bootstraps a fresh core (finetunes the model once) and serves it.
    pub fn bootstrap(
        config: ChatGraphConfig,
        corpus_size: usize,
        serve: ServeConfig,
    ) -> Result<(Self, FinetuneReport), ServeError> {
        let (core, report) = SessionCore::bootstrap(config, corpus_size)?;
        Ok((SessionServer::from_core(core, serve)?, report))
    }

    /// Serves a previously finetuned model, skipping the finetuning pass.
    pub fn from_saved_model(
        config: ChatGraphConfig,
        model_json: &str,
        serve: ServeConfig,
    ) -> Result<Self, ServeError> {
        let core = SessionCore::from_saved_model(config, model_json)?;
        SessionServer::from_core(core, serve)
    }

    /// Serves an existing shared core.
    pub fn from_core(core: Arc<SessionCore>, serve: ServeConfig) -> Result<Self, ServeError> {
        serve.validate().map_err(ServeError::InvalidServeConfig)?;
        let memo = Arc::new(StepMemo::new(serve.memo_capacity));
        Ok(SessionServer {
            core,
            serve,
            memo,
            tenants: Mutex::new(BTreeMap::new()),
            next_tenant: AtomicU64::new(0),
        })
    }

    /// The shared core.
    pub fn core(&self) -> &Arc<SessionCore> {
        &self.core
    }

    /// The serving configuration.
    pub fn serve_config(&self) -> &ServeConfig {
        &self.serve
    }

    /// Hit/miss/coalesced counters of the shared step memo.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Currently open sessions.
    pub fn session_count(&self) -> usize {
        self.tenants_guard().len()
    }

    /// The currently open tenants, in id order.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.tenants_guard().keys().map(|id| TenantId(*id)).collect()
    }

    // lockdoc: acquires(tenants)
    fn tenants_guard(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, Arc<TenantSlot>>> {
        // Holds only the registry map; tenant state lives behind per-slot
        // mutexes with their own poisoning discipline.
        // lockdoc: recover(registry maps ids to Arc slots; insert/remove cannot leave it torn, session state is quarantined per slot)
        self.tenants.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn slot(&self, tenant: TenantId) -> Result<Arc<TenantSlot>, ServeError> {
        self.tenants_guard()
            .get(&tenant.0)
            .cloned()
            .ok_or(ServeError::UnknownTenant)
    }

    /// Opens a session for a new tenant, subject to admission control.
    pub fn open_session(&self) -> Result<TenantId, ServeError> {
        let mut tenants = self.tenants_guard();
        if tenants.len() >= self.serve.max_sessions {
            return Err(ServeError::AtCapacity);
        }
        let mut session =
            ChatSession::from_core(Arc::clone(&self.core)).with_shared_memo(Arc::clone(&self.memo));
        let id = self.next_tenant.fetch_add(1, Ordering::Relaxed);
        if !self.serve.store_dir.is_empty() {
            let dir = std::path::Path::new(&self.serve.store_dir);
            std::fs::create_dir_all(dir)
                .map_err(|e| ServeError::Session(SessionError::Store(e.to_string())))?;
            session.open_store(dir.join(format!("tenant-{id}.cgdb")))?;
        }
        tenants.insert(
            id,
            Arc::new(TenantSlot {
                session: Mutex::new(session),
                queue: Mutex::new(VecDeque::new()),
                busy: AtomicBool::new(false),
                next_seq: AtomicU64::new(0),
            }),
        );
        Ok(TenantId(id))
    }

    /// Closes a tenant's session, dropping its state and pending queue.
    /// The shared caches keep any entries its graphs contributed until
    /// normal eviction.
    pub fn close_session(&self, tenant: TenantId) -> Result<(), ServeError> {
        self.tenants_guard()
            .remove(&tenant.0)
            .map(|_| ())
            .ok_or(ServeError::UnknownTenant)
    }

    /// Runs `f` under the tenant's session lock — the synchronous path for
    /// setup (uploading graphs, attaching databases) and direct chat.
    ///
    /// A poisoned session reports [`ServeError::SessionPoisoned`]; the
    /// half-mutated state is never recovered or reused.
    pub fn with_session<T>(
        &self,
        tenant: TenantId,
        f: impl FnOnce(&mut ChatSession) -> T,
    ) -> Result<T, ServeError> {
        let slot = self.slot(tenant)?;
        let mut guard = slot.session.lock().map_err(|_| ServeError::SessionPoisoned)?;
        Ok(f(&mut guard))
    }

    /// Enqueues a request for the tenant, returning its sequence number.
    /// Requests are executed by the next [`SessionServer::drain`] in
    /// per-tenant FIFO order.
    pub fn submit(&self, tenant: TenantId, request: Request) -> Result<u64, ServeError> {
        let slot = self.slot(tenant)?;
        let mut queue = slot.queue_guard();
        if queue.len() >= self.serve.queue_depth {
            return Err(ServeError::QueueFull);
        }
        let seq = slot.next_seq.fetch_add(1, Ordering::Relaxed);
        queue.push_back((seq, request, Instant::now()));
        Ok(seq)
    }

    /// Pending requests across all tenants.
    pub fn pending(&self) -> usize {
        self.tenants_guard()
            .values()
            .map(|slot| slot.queue_guard().len())
            .sum()
    }

    /// Executes every queued request on the shared worker pool and returns
    /// the completions, sorted by `(tenant, seq)`.
    ///
    /// Workers claim tenants round-robin from a shared cursor, taking up to
    /// [`ServeConfig::claim_batch`] requests per claim with at most one
    /// in-flight claim per tenant: fair across tenants, FIFO within each.
    /// With `pool_workers: 1` the schedule is fully deterministic; with
    /// more workers the *completion order* varies but every reply is
    /// bit-identical to the solo run (the determinism contract extends to
    /// serving).
    pub fn drain(&self) -> Vec<Completed> {
        let slots: Vec<(u64, Arc<TenantSlot>)> = self
            .tenants_guard()
            .iter()
            .map(|(id, slot)| (*id, Arc::clone(slot)))
            .collect();
        let total: usize = slots.iter().map(|(_, s)| s.queue_guard().len()).sum();
        if total == 0 {
            return Vec::new();
        }
        let done = AtomicUsize::new(0);
        let cursor = AtomicUsize::new(0);
        let workers = self.serve.pool_workers.min(total).max(1);
        let batch = self.serve.claim_batch;
        let mut out: Vec<Completed> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        while done.load(Ordering::Acquire) < total {
                            let completed = claim_batch(&slots, &cursor, batch);
                            if completed.is_empty() {
                                // All remaining work is on busy tenants.
                                std::thread::yield_now();
                            } else {
                                done.fetch_add(completed.len(), Ordering::Release);
                                local.extend(completed);
                            }
                        }
                        local
                    })
                })
                .collect();
            // Drain workers cannot panic: step panics are isolated by the
            // supervisor and poisoned sessions are mapped to errors. A
            // panicked worker would still be bounded here to losing its
            // local completions, never the whole drain.
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_default())
                .collect()
        });
        out.sort_by_key(|c| (c.tenant, c.seq));
        out
    }
}

/// Claims up to `batch` requests from the next available tenant
/// (round-robin from the shared cursor) and runs them FIFO. Empty when
/// every non-empty queue belongs to a tenant whose claim is in flight.
fn claim_batch(
    slots: &[(u64, Arc<TenantSlot>)],
    cursor: &AtomicUsize,
    batch: usize,
) -> Vec<Completed> {
    let n = slots.len();
    let start = cursor.fetch_add(1, Ordering::Relaxed) % n;
    for i in 0..n {
        let (id, slot) = &slots[(start + i) % n];
        if slot
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            continue;
        }
        // One queue-lock acquisition takes the whole bounded batch; the
        // busy latch keeps the drained prefix FIFO-contiguous (no other
        // worker can take this tenant's next request until we release).
        let claimed: Vec<(u64, Request, Instant)> = {
            let mut queue = slot.queue_guard();
            let take = queue.len().min(batch);
            queue.drain(..take).collect()
        };
        let completed = run_batch(slot, *id, claimed);
        slot.busy.store(false, Ordering::Release);
        if !completed.is_empty() {
            return completed;
        }
    }
    Vec::new()
}

/// Runs one claimed batch in FIFO order under a single acquisition of the
/// tenant's session lock. A poisoned session fails every request in the
/// batch with [`ServeError::SessionPoisoned`]; the half-mutated state is
/// never recovered.
fn run_batch(
    slot: &TenantSlot,
    id: u64,
    claimed: Vec<(u64, Request, Instant)>,
) -> Vec<Completed> {
    if claimed.is_empty() {
        return Vec::new();
    }
    let mut session = slot.session.lock().ok();
    claimed
        .into_iter()
        .map(|(seq, request, submitted)| {
            let reply = match session.as_deref_mut() {
                Some(session) => Ok(run_request(session, request)),
                None => Err(ServeError::SessionPoisoned),
            };
            Completed {
                tenant: TenantId(id),
                seq,
                latency_micros: submitted.elapsed().as_micros() as u64,
                reply,
            }
        })
        .collect()
}

/// Runs one request against the locked session.
fn run_request(session: &mut ChatSession, request: Request) -> Reply {
    match request {
        Request::Chat(prompt) => Reply::Chat(session.send(prompt)),
        Request::Execute(chain) => Reply::Execution(execute(session, &chain)),
        Request::ChatAndRun(prompt) => {
            let response = session.send(prompt);
            let execution = (!response.chain.is_empty())
                .then(|| execute(session, &response.chain));
            Reply::ChatAndRun(response, execution)
        }
    }
}

fn execute(session: &mut ChatSession, chain: &ApiChain) -> Execution {
    let mut monitor = CollectingMonitor::new();
    let result = session.run_chain(chain, &mut monitor);
    Execution {
        chain: chain.clone(),
        result,
        events: monitor.events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::test_support::shared_core;
    use chatgraph_graph::generators::{social_network, SocialParams};

    fn server(serve: ServeConfig) -> SessionServer {
        SessionServer::from_core(shared_core(), serve).expect("valid serve config")
    }

    #[test]
    fn serve_config_validates() {
        assert!(ServeConfig::default().validate().is_ok());
        let bad = ServeConfig {
            max_sessions: 0,
            queue_depth: 0,
            pool_workers: 0,
            ..ServeConfig::default()
        };
        assert_eq!(bad.validate().unwrap_err().len(), 3);
        assert!(matches!(
            SessionServer::from_core(shared_core(), bad),
            Err(ServeError::InvalidServeConfig(_))
        ));
        let bad = ServeConfig { claim_batch: 0, ..ServeConfig::default() };
        assert_eq!(bad.validate().unwrap_err().len(), 1);
    }

    #[test]
    fn admission_control_caps_sessions_and_queues() {
        let srv = server(ServeConfig {
            max_sessions: 2,
            queue_depth: 1,
            ..ServeConfig::default()
        });
        let a = srv.open_session().unwrap();
        let _b = srv.open_session().unwrap();
        assert_eq!(srv.open_session().unwrap_err(), ServeError::AtCapacity);
        srv.submit(a, Request::Chat(Prompt::text("how big is G?"))).unwrap();
        assert_eq!(
            srv.submit(a, Request::Chat(Prompt::text("again"))).unwrap_err(),
            ServeError::QueueFull
        );
        // Closing a session frees its admission slot and drops its queue.
        srv.close_session(a).unwrap();
        assert_eq!(srv.close_session(a).unwrap_err(), ServeError::UnknownTenant);
        let c = srv.open_session().unwrap();
        assert_ne!(_b, c, "tenant ids are never reused");
        assert_eq!(srv.pending(), 0);
    }

    #[test]
    fn drain_preserves_per_tenant_fifo_order() {
        let srv = server(ServeConfig::default());
        let t = srv.open_session().unwrap();
        srv.with_session(t, |s| {
            s.set_graph(social_network(&SocialParams::default(), 11))
        })
        .unwrap();
        let chains = ["node_count", "edge_count", "graph_density"];
        for name in chains {
            srv.submit(t, Request::Execute(ApiChain::from_names([name]))).unwrap();
        }
        let completed = srv.drain();
        assert_eq!(completed.len(), 3);
        let seqs: Vec<u64> = completed.iter().map(|c| c.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        for c in &completed {
            let Ok(Reply::Execution(e)) = &c.reply else {
                panic!("expected an execution: {:?}", c.reply)
            };
            assert!(e.result.is_ok());
        }
        assert!(srv.drain().is_empty(), "drain consumes the queues");
    }

    #[test]
    fn batched_claims_preserve_fifo_and_fairness_bound() {
        // A batch bound of 2 with 5 requests per tenant forces multiple
        // claims per tenant; per-tenant FIFO order must survive the pool.
        let srv = server(ServeConfig {
            pool_workers: 3,
            claim_batch: 2,
            ..ServeConfig::default()
        });
        let tenants: Vec<TenantId> = (0..3).map(|_| srv.open_session().unwrap()).collect();
        for (i, &t) in tenants.iter().enumerate() {
            srv.with_session(t, |s| {
                s.set_graph(social_network(&SocialParams::default(), 20 + i as u64))
            })
            .unwrap();
            for _ in 0..5 {
                srv.submit(t, Request::Execute(ApiChain::from_names(["node_count"])))
                    .unwrap();
            }
        }
        let completed = srv.drain();
        assert_eq!(completed.len(), 15);
        for &t in &tenants {
            let seqs: Vec<u64> =
                completed.iter().filter(|c| c.tenant == t).map(|c| c.seq).collect();
            assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        }
        assert!(completed.iter().all(|c| c.reply.is_ok()));
    }

    #[test]
    fn every_session_joins_the_shared_memo() {
        let srv = server(ServeConfig::default());
        for _ in 0..2 {
            let t = srv.open_session().unwrap();
            let joined = srv.with_session(t, |s| Arc::ptr_eq(&s.memo_handle(), &srv.memo));
            assert_eq!(joined, Ok(true));
        }
    }

    #[test]
    fn store_backed_tenants_recover_after_restart() {
        let dir = std::env::temp_dir().join(format!(
            "chatgraph-serve-store-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let serve = ServeConfig {
            store_dir: dir.to_string_lossy().into_owned(),
            ..ServeConfig::default()
        };
        let srv = server(serve.clone());
        let t = srv.open_session().unwrap();
        let uploaded = social_network(&SocialParams::default(), 17);
        let nodes = uploaded.node_count();
        srv.with_session(t, |s| {
            s.set_graph(uploaded);
            assert!(s.store().is_some(), "store must be attached");
        })
        .unwrap();
        srv.submit(t, Request::Execute(ApiChain::from_names(["node_count"]))).unwrap();
        srv.drain();
        drop(srv);

        // A new server over the same directory: the first tenant id is 0
        // again, so the reopened session recovers the same store file.
        let srv = server(serve);
        let t = srv.open_session().unwrap();
        let recovered = srv
            .with_session(t, |s| s.graph().map(|g| g.node_count()))
            .unwrap();
        assert_eq!(recovered, Some(nodes), "recovered graph must match the upload");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_tenants_are_rejected() {
        let srv = server(ServeConfig::default());
        let t = srv.open_session().unwrap();
        srv.close_session(t).unwrap();
        assert_eq!(
            srv.submit(t, Request::Chat(Prompt::text("hi"))).unwrap_err(),
            ServeError::UnknownTenant
        );
        assert_eq!(
            srv.with_session(t, |_| ()).unwrap_err(),
            ServeError::UnknownTenant
        );
    }

    #[test]
    fn shared_memo_hits_across_tenants() {
        let srv = server(ServeConfig {
            pool_workers: 2,
            ..ServeConfig::default()
        });
        // Two tenants, identical graphs (same generator seed), identical
        // chains with no within-chain repetition: any memo hit is
        // necessarily cross-tenant.
        let chain = ApiChain::from_names(["node_count", "triangle_count"]);
        for _ in 0..2 {
            let t = srv.open_session().unwrap();
            srv.with_session(t, |s| {
                s.set_graph(social_network(&SocialParams::default(), 33))
            })
            .unwrap();
            srv.submit(t, Request::Execute(chain.clone())).unwrap();
        }
        let completed = srv.drain();
        assert_eq!(completed.len(), 2);
        let values: Vec<&Value> = completed
            .iter()
            .map(|c| match &c.reply {
                Ok(Reply::Execution(e)) => e.result.as_ref().unwrap(),
                other => panic!("unexpected reply: {other:?}"),
            })
            .collect();
        assert_eq!(values[0], values[1]);
        let stats = srv.memo_stats();
        assert!(stats.hits > 0, "cross-tenant hit expected: {stats:?}");
    }
}
