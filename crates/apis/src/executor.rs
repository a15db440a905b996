//! Chain execution.
//!
//! [`execute_chain`] is the public entry point: a thin wrapper over a fresh
//! [`crate::sched::Scheduler`], whose behaviour and core event
//! contract are exactly those of the historical sequential executor. That
//! executor survives in the crate's test support as the differential oracle
//! the plan and fault property tests compare against; it is not library
//! API. This module also holds the [`ExecContext`] chains run against and
//! the [`KernelState`] threaded through it.

use crate::chain::{ApiChain, ChainError};
use crate::monitor::Monitor;
use crate::registry::ApiRegistry;
use crate::value::Value;
use chatgraph_graph::csr::{CsrBuild, CsrGraph};
use chatgraph_graph::kernels::KernelPolicy;
use chatgraph_graph::Graph;
use std::sync::Arc;

/// Findings beyond this count store a one-line summary instead of the full
/// value, so long chains don't pin every intermediate result in memory.
pub const MAX_FULL_FINDINGS: usize = 32;

/// CSR-kernel state threaded through a chain execution: the cancellation
/// policy, and logs of kernel timings and of the snapshot builds this
/// context caused.
///
/// Snapshots themselves live on the graph versions they describe
/// ([`Graph::csr`]), so every step and tenant reading one version shares
/// one snapshot. The scheduler drains the logs into
/// [`crate::ChainEvent::CsrBuilt`] / [`crate::ChainEvent::KernelTimed`]
/// events after each step.
#[derive(Debug, Clone, Default)]
pub struct KernelState {
    /// Cancellation policy handed to every kernel invocation.
    pub policy: KernelPolicy,
    timings: Vec<(String, u64)>,
    /// Build records for snapshots *this context* caused, even when the
    /// graph is shared across sessions — monitoring events must not leak
    /// between tenants.
    builds: Vec<CsrBuild>,
}

impl KernelState {
    /// The CSR snapshot of `g`, built at most once per graph version (see
    /// [`Graph::csr`]); a build this call caused is logged here.
    pub fn csr(&mut self, g: &Graph) -> Arc<CsrGraph> {
        let (csr, built) = g.csr_tracked();
        self.builds.extend(built);
        csr
    }

    /// Runs `f`, recording its wall time under `kernel` for the next
    /// [`KernelState::drain_timings`].
    pub fn time<T>(&mut self, kernel: &str, f: impl FnOnce() -> T) -> T {
        let started = std::time::Instant::now();
        let out = f();
        let micros = started.elapsed().as_micros() as u64;
        self.timings.push((kernel.to_owned(), micros));
        out
    }

    /// Drains `(kernel, micros)` records accumulated since the last drain.
    pub fn drain_timings(&mut self) -> Vec<(String, u64)> {
        std::mem::take(&mut self.timings)
    }

    /// Drains CSR build records this context accumulated since the last
    /// drain (never another tenant's, even on a shared graph).
    pub fn drain_builds(&mut self) -> Vec<CsrBuild> {
        std::mem::take(&mut self.builds)
    }
}

/// Mutable state a chain executes against.
///
/// The session graph and database are behind [`Arc`] so read-only steps, the
/// memo and other tenants can share them without deep copies; edit APIs go
/// through [`ExecContext::graph_mut`], which copies-on-write only when the
/// graph is actually shared at mutation time.
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// The session graph uploaded with the prompt. Edit APIs mutate it via
    /// [`ExecContext::graph_mut`].
    pub graph: Arc<Graph>,
    /// The molecule database used by similarity-search APIs (scenario 2).
    pub database: Arc<Vec<Graph>>,
    /// Per-step findings `(api name, output)`, consumed by report APIs.
    pub findings: Vec<(String, Value)>,
    /// Seed for any randomised analysis (community tie-breaking etc.).
    pub seed: u64,
    /// Kernel policy, and the timing and snapshot build logs.
    pub kernels: KernelState,
}

impl ExecContext {
    /// A context over one uploaded graph (owned or already shared).
    pub fn new(graph: impl Into<Arc<Graph>>) -> Self {
        ExecContext {
            graph: graph.into(),
            database: Arc::new(Vec::new()),
            findings: Vec::new(),
            seed: 0,
            kernels: KernelState::default(),
        }
    }

    /// Attaches a graph database for similarity search.
    pub fn with_database(mut self, database: impl Into<Arc<Vec<Graph>>>) -> Self {
        self.database = database.into();
        self
    }

    /// Sets the analysis seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Mutable access to the session graph. Copies-on-write: if the graph
    /// is currently shared (a step input, a memo entry, the session's or
    /// another tenant's copy), the clone happens here, at most once per
    /// mutation barrier.
    pub fn graph_mut(&mut self) -> &mut Graph {
        Arc::make_mut(&mut self.graph)
    }

    /// Takes the session graph out of the context, cloning only if it is
    /// still shared elsewhere.
    pub fn into_graph(self) -> Graph {
        Arc::try_unwrap(self.graph).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Records one step's output, summarising past [`MAX_FULL_FINDINGS`].
    pub fn push_finding(&mut self, api: &str, output: &Value) {
        let stored = if self.findings.len() < MAX_FULL_FINDINGS {
            output.clone()
        } else {
            Value::Text(output.summary())
        };
        self.findings.push((api.to_owned(), stored));
    }
}

/// Executes a validated chain.
///
/// * The chain is refused up front when validation or static analysis finds
///   Error-level problems; Warning-level diagnostics (parameter lints,
///   discarded outputs, confirmation notices) are emitted to the monitor as
///   one [`ChainEvent::Diagnostics`] event before execution starts.
/// * Each step's input is the previous step's output when the types accept
///   it, else the session graph for `Graph` inputs, else `Unit`.
/// * Steps flagged `requires_confirmation` ask the monitor first; a `false`
///   answer aborts with [`ChainError::Rejected`] (scenario 3's user-in-the-
///   loop cleaning, scenario 4's chain confirmation).
/// * Every step's output is appended to [`ExecContext::findings`] so report
///   APIs can compose everything the chain discovered.
///
/// Returns the final step's output. Execution runs through a fresh plan
/// scheduler; a long-lived [`crate::sched::Scheduler`] adds a memo that
/// carries across chains and is guaranteed to produce the same final value,
/// findings order, and core event sequence.
pub fn execute_chain(
    registry: &ApiRegistry,
    chain: &ApiChain,
    ctx: &mut ExecContext,
    monitor: &mut dyn Monitor,
) -> Result<Value, ChainError> {
    crate::sched::Scheduler::new().execute(registry, chain, ctx, monitor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ApiChain;
    use crate::monitor::{ChainEvent, CollectingMonitor};
    use crate::value::ValueType;
    use crate::registry;
    use chatgraph_graph::generators::{social_network, SocialParams};

    fn ctx() -> ExecContext {
        ExecContext::new(social_network(&SocialParams::default(), 1))
    }

    #[test]
    fn executes_simple_chain_and_collects_findings() {
        let reg = registry::standard();
        let chain = ApiChain::from_names(["node_count", "graph_stats", "generate_report"]);
        let mut ctx = ctx();
        let mut mon = CollectingMonitor::new();
        let out = execute_chain(&reg, &chain, &mut ctx, &mut mon).unwrap();
        assert_eq!(out.value_type(), ValueType::Report);
        assert_eq!(ctx.findings.len(), 3);
        assert_eq!(
            mon.finished_apis(),
            vec!["node_count", "graph_stats", "generate_report"]
        );
        assert!(matches!(mon.events.first(), Some(ChainEvent::ChainStarted { total: 3 })));
        assert!(matches!(mon.events.last(), Some(ChainEvent::ChainFinished)));
    }

    #[test]
    fn invalid_chain_is_rejected_before_running() {
        let reg = registry::standard();
        let chain = ApiChain::from_names(["nonexistent_api"]);
        let mut ctx = ctx();
        let mut mon = CollectingMonitor::new();
        let err = execute_chain(&reg, &chain, &mut ctx, &mut mon).unwrap_err();
        assert!(matches!(err, ChainError::UnknownApi(0, _)));
        assert!(mon.events.is_empty(), "nothing should have started");
    }

    #[test]
    fn rejection_stops_execution() {
        let reg = registry::standard();
        // detect → remove requires confirmation; answer "no".
        let chain = ApiChain::from_names(["detect_incorrect_edges", "remove_edges"]);
        let mut kg_ctx = ExecContext::new(chatgraph_graph::generators::knowledge_graph(
            &chatgraph_graph::generators::KgParams::default(),
            3,
        ));
        let mut mon = CollectingMonitor::with_answers([false]);
        let err = execute_chain(&reg, &chain, &mut kg_ctx, &mut mon).unwrap_err();
        assert_eq!(err, ChainError::Rejected(1, "remove_edges".to_owned()));
        assert_eq!(mon.confirm_log.len(), 1);
    }

    #[test]
    fn prev_output_feeds_matching_input() {
        let reg = registry::standard();
        // largest_component outputs Graph; node_count takes Graph → chained.
        let chain = ApiChain::from_names(["largest_component", "node_count"]);
        let mut ctx = ctx();
        let n = ctx.graph.node_count() as f64;
        let mut mon = CollectingMonitor::new();
        let out = execute_chain(&reg, &chain, &mut ctx, &mut mon).unwrap();
        let count = out.as_number().unwrap();
        assert!(count <= n);
        assert!(count > 0.0);
    }

    #[test]
    fn copy_on_write_clones_only_when_shared() {
        let g = social_network(&SocialParams::default(), 1);
        let mut ctx = ExecContext::new(g);
        // Unshared: mutation must not clone.
        let before = Arc::as_ptr(&ctx.graph);
        ctx.graph_mut().set_name("renamed");
        assert_eq!(before, Arc::as_ptr(&ctx.graph), "no clone while unshared");
        // Shared: mutation clones once, the snapshot stays intact.
        let snapshot = Arc::clone(&ctx.graph);
        ctx.graph_mut().set_name("renamed-again");
        assert_eq!(snapshot.name(), "renamed");
        assert_eq!(ctx.graph.name(), "renamed-again");
    }

    #[test]
    fn findings_cap_summarises_past_limit() {
        let g = social_network(&SocialParams::default(), 1);
        let mut ctx = ExecContext::new(g);
        let big = Value::Text("x".repeat(500));
        for _ in 0..(MAX_FULL_FINDINGS + 3) {
            ctx.push_finding("node_count", &big);
        }
        assert_eq!(ctx.findings.len(), MAX_FULL_FINDINGS + 3);
        // Early findings keep the full value; late ones hold the summary.
        assert_eq!(ctx.findings[0].1, big);
        let (_, last) = ctx.findings.last().unwrap();
        assert_eq!(last, &Value::Text(big.summary()));
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use crate::chain::ApiChain;
    use crate::monitor::{ChainEvent, CollectingMonitor};
    use crate::registry;
    use chatgraph_graph::generators::{molecule, MoleculeParams};

    /// A handler error mid-chain surfaces as ExecutionFailed, emits a
    /// StepFailed event, stops the chain, and keeps earlier findings.
    #[test]
    fn handler_failure_stops_chain_with_event() {
        let reg = registry::standard();
        // similarity_search fails without a database in the context.
        let chain = ApiChain::from_names(["node_count", "similarity_search", "edge_count"]);
        let mut ctx = ExecContext::new(molecule(&MoleculeParams::default(), 1));
        let mut mon = CollectingMonitor::new();
        let err = execute_chain(&reg, &chain, &mut ctx, &mut mon).unwrap_err();
        assert!(matches!(err, ChainError::ExecutionFailed(1, _)), "{err}");
        assert_eq!(ctx.findings.len(), 1, "only the first step succeeded");
        assert!(mon.events.iter().any(|e| matches!(
            e,
            ChainEvent::StepFailed { step: 1, .. }
        )));
        // The chain never reached step 2.
        assert!(!mon.finished_apis().contains(&"edge_count"));
        assert!(!mon.events.iter().any(|e| matches!(e, ChainEvent::ChainFinished)));
    }

    /// The executor falls back to the session graph when the previous output
    /// does not match a Graph input (Number → Graph transition).
    #[test]
    fn graph_input_falls_back_to_session_graph() {
        let reg = registry::standard();
        let chain = ApiChain::from_names(["node_count", "edge_count"]);
        let g = molecule(&MoleculeParams::default(), 2);
        let (n, m) = (g.node_count() as f64, g.edge_count() as f64);
        let mut ctx = ExecContext::new(g);
        let out = execute_chain(&reg, &chain, &mut ctx, &mut crate::monitor::SilentMonitor).unwrap();
        assert_eq!(out.as_number(), Some(m));
        assert_eq!(ctx.findings[0].1.as_number(), Some(n));
    }

    /// Findings keep execution order and full values.
    #[test]
    fn findings_are_ordered_and_typed() {
        let reg = registry::standard();
        let chain = ApiChain::from_names(["molecular_formula", "ring_count", "graph_stats"]);
        let mut ctx = ExecContext::new(molecule(&MoleculeParams::default(), 3));
        execute_chain(&reg, &chain, &mut ctx, &mut crate::monitor::SilentMonitor).unwrap();
        let names: Vec<&str> = ctx.findings.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["molecular_formula", "ring_count", "graph_stats"]);
        assert!(ctx.findings[0].1.as_text().is_some());
        assert!(ctx.findings[1].1.as_number().is_some());
        assert!(ctx.findings[2].1.as_table().is_some());
    }
}
