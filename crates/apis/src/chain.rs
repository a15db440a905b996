//! API chains — the artifact the LLM generates.
//!
//! A chain is an ordered sequence of [`ApiCall`]s. It supports:
//!
//! * **Type checking** against a registry ([`ApiChain::validate`]): every
//!   step's input must be satisfiable by the previous output, by the session
//!   graph (inputs of type `Graph` always can fall back to the uploaded
//!   graph), or by `Unit`/`Any`.
//! * **Graph encoding** ([`ApiChain::to_graph`]): a chain is a labelled path
//!   graph, the representation consumed by the node matching-based loss of
//!   `chatgraph-ged`.
//! * Editing operations (insert/remove/replace a step) for scenario 4's
//!   confirm-and-edit workflow.

use crate::registry::ApiRegistry;
use crate::value::ValueType;
use chatgraph_graph::{Graph, GraphError};
use std::collections::BTreeMap;
use std::fmt;

/// One API invocation in a chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiCall {
    /// Registered API name.
    pub api: String,
    /// Free-form string parameters (e.g. `k = "5"`, `pattern = "edge a b"`).
    pub params: BTreeMap<String, String>,
}

chatgraph_support::impl_json_struct!(ApiCall { api, params });

impl ApiCall {
    /// A call with no parameters.
    pub fn new(api: impl Into<String>) -> Self {
        ApiCall {
            api: api.into(),
            params: BTreeMap::new(),
        }
    }

    /// Adds one parameter.
    pub fn with_param(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.params.insert(key.into(), value.into());
        self
    }

    /// Reads a numeric parameter with a default.
    ///
    /// A present-but-unparseable value silently falls back to the default;
    /// the analyzer reports that case as a CG006 warning before execution.
    /// Handlers that want the failure surfaced at runtime use
    /// [`ApiCall::try_param_f64`].
    pub fn param_f64(&self, key: &str, default: f64) -> f64 {
        self.params
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Reads an integer parameter with a default (see [`ApiCall::param_f64`]
    /// for the malformed-value contract).
    pub fn param_usize(&self, key: &str, default: usize) -> usize {
        self.params
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Reads a numeric parameter, erroring on a present-but-malformed value
    /// instead of silently defaulting. Absent ⇒ `Ok(default)`.
    pub fn try_param_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.params.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("parameter `{key}` is not a number: `{v}`")),
        }
    }

    /// Reads an integer parameter, erroring on a present-but-malformed value
    /// instead of silently defaulting. Absent ⇒ `Ok(default)`.
    pub fn try_param_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.params.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("parameter `{key}` is not an integer: `{v}`")),
        }
    }
}

impl fmt::Display for ApiCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.params.is_empty() {
            write!(f, "{}", self.api)
        } else {
            let ps: Vec<String> = self
                .params
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            write!(f, "{}({})", self.api, ps.join(", "))
        }
    }
}

/// Chain validation/execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// A step names an unregistered API.
    UnknownApi(usize, String),
    /// A step's input type cannot be satisfied.
    TypeMismatch {
        /// Step index.
        step: usize,
        /// API at that step.
        api: String,
        /// Declared input type.
        expected: ValueType,
        /// Previous step's output type.
        found: ValueType,
    },
    /// The chain is empty.
    Empty,
    /// Static analysis found Error-level diagnostics; execution refused.
    /// Raised by the `analyze` gate in [`crate::Scheduler::execute`]. Its
    /// Error codes (CG001–CG004) are exactly [`ApiChain::validate`]'s
    /// errors, which execution reports first as their typed variants, so
    /// this only fires if the analyzer and the validator ever disagree.
    AnalysisRejected(String),
    /// The user rejected a confirmation prompt; execution stopped.
    Rejected(usize, String),
    /// A handler failed.
    ExecutionFailed(usize, String),
    /// A step panicked; the supervisor caught the payload at the attempt
    /// boundary instead of letting it unwind into the caller.
    StepPanicked(usize, String),
    /// A step exceeded the configured per-step deadline (milliseconds) and
    /// was cancelled cooperatively.
    StepTimedOut(usize, u64),
    /// A mutation barrier executed but its durable commit failed; the chain
    /// aborts so no later step builds on unlogged state. (The in-memory
    /// mutation stands — the session installs the graph even on failure —
    /// but the store is dead until reopened.)
    CommitFailed(usize, String),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::UnknownApi(i, n) => write!(f, "step {i}: unknown API '{n}'"),
            ChainError::TypeMismatch {
                step,
                api,
                expected,
                found,
            } => write!(
                f,
                "step {step}: API '{api}' expects {expected} but the previous step produced {found}"
            ),
            ChainError::Empty => write!(f, "chain is empty"),
            ChainError::AnalysisRejected(d) => {
                write!(f, "chain rejected by static analysis: {d}")
            }
            ChainError::Rejected(i, n) => write!(f, "step {i}: user rejected '{n}'"),
            ChainError::ExecutionFailed(i, msg) => write!(f, "step {i} failed: {msg}"),
            ChainError::StepPanicked(i, msg) => write!(f, "step {i} panicked: {msg}"),
            ChainError::StepTimedOut(i, ms) => {
                write!(f, "step {i} exceeded its {ms}ms deadline and was cancelled")
            }
            ChainError::CommitFailed(i, msg) => {
                write!(f, "step {i}: durable commit failed: {msg}")
            }
        }
    }
}

impl std::error::Error for ChainError {
    /// Always `None`: every underlying cause (handler error strings, panic
    /// payloads, analyzer renderings) is carried pre-rendered inside the
    /// variant, because errors must be `Clone + Send` to cross threads —
    /// a coalesced memo flight hands one tenant's failure to another — so
    /// there is no structured inner error to expose.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        None
    }
}

/// An ordered chain of API calls.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApiChain {
    /// The steps, in execution order.
    pub steps: Vec<ApiCall>,
}

chatgraph_support::impl_json_struct!(ApiChain { steps });

impl ApiChain {
    /// An empty chain.
    pub fn new() -> Self {
        ApiChain::default()
    }

    /// Builds a chain from API names (no parameters).
    pub fn from_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ApiChain {
            steps: names.into_iter().map(|n| ApiCall::new(n)).collect(),
        }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the chain has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Appends a step.
    pub fn push(&mut self, call: ApiCall) {
        self.steps.push(call);
    }

    /// Inserts a step at `idx` (scenario 4: chain editing).
    pub fn insert(&mut self, idx: usize, call: ApiCall) {
        self.steps.insert(idx.min(self.steps.len()), call);
    }

    /// Removes the step at `idx`, if present.
    pub fn remove(&mut self, idx: usize) -> Option<ApiCall> {
        (idx < self.steps.len()).then(|| self.steps.remove(idx))
    }

    /// Replaces the step at `idx`; returns the old call.
    pub fn replace(&mut self, idx: usize, call: ApiCall) -> Option<ApiCall> {
        self.steps
            .get_mut(idx)
            .map(|slot| std::mem::replace(slot, call))
    }

    /// API names in order.
    pub fn api_names(&self) -> Vec<&str> {
        self.steps.iter().map(|s| s.api.as_str()).collect()
    }

    /// Type-checks the chain against `registry`.
    ///
    /// `has_session_graph` states whether a graph was uploaded with the
    /// prompt: inputs of type `Graph` fall back to it when the previous
    /// output is not a graph.
    pub fn validate(&self, registry: &ApiRegistry, has_session_graph: bool) -> Result<(), ChainError> {
        if self.steps.is_empty() {
            return Err(ChainError::Empty);
        }
        let mut prev = ValueType::Unit;
        for (i, step) in self.steps.iter().enumerate() {
            let desc = registry
                .descriptor(&step.api)
                .ok_or_else(|| ChainError::UnknownApi(i, step.api.clone()))?;
            if !desc.accepts_input(prev, has_session_graph) {
                return Err(ChainError::TypeMismatch {
                    step: i,
                    api: step.api.clone(),
                    expected: desc.input,
                    found: prev,
                });
            }
            prev = desc.output;
        }
        Ok(())
    }

    /// Encodes the chain as a directed path graph whose node labels are API
    /// names and whose edges are labelled `next`. Parameters become node
    /// attributes. This is the form the node matching-based loss compares.
    pub fn to_graph(&self) -> Result<Graph, GraphError> {
        let mut g = Graph::directed();
        g.set_name("api-chain");
        let mut prev = None;
        for step in &self.steps {
            let v = g.add_node(step.api.clone());
            for (k, val) in &step.params {
                g.set_node_attr(v, k.clone(), val.as_str())?;
            }
            if let Some(p) = prev {
                g.add_edge(p, v, "next")?;
            }
            prev = Some(v);
        }
        Ok(g)
    }
}

impl fmt::Display for ApiChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.steps.iter().map(|s| s.to_string()).collect();
        write!(f, "{}", parts.join(" -> "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, edit_distance, nearest_name};
    use crate::registry;
    use chatgraph_analyzer::diag::{Diagnostics, Severity, Span};

    #[test]
    fn chain_error_is_a_std_error_with_uniform_display() {
        let errors: Vec<ChainError> = vec![
            ChainError::UnknownApi(0, "nope".into()),
            ChainError::Empty,
            ChainError::Rejected(1, "remove_edges".into()),
            ChainError::ExecutionFailed(2, "no such node".into()),
            ChainError::StepPanicked(3, "index out of bounds".into()),
            ChainError::StepTimedOut(4, 250),
        ];
        for e in errors {
            let dyn_err: &dyn std::error::Error = &e;
            assert!(dyn_err.source().is_none(), "payloads are pre-rendered");
            let msg = dyn_err.to_string();
            assert!(!msg.is_empty());
            // Step-indexed variants lead with "step <i>" so the REPL and
            // session render every failure uniformly.
            if !matches!(e, ChainError::Empty | ChainError::AnalysisRejected(_)) {
                assert!(msg.starts_with("step "), "non-uniform display: {msg}");
            }
        }
        assert_eq!(
            ChainError::StepTimedOut(4, 250).to_string(),
            "step 4 exceeded its 250ms deadline and was cancelled"
        );
        assert_eq!(
            ChainError::StepPanicked(3, "boom".into()).to_string(),
            "step 3 panicked: boom"
        );
    }

    #[test]
    fn display_joins_with_arrows() {
        let mut c = ApiChain::from_names(["graph_stats", "generate_report"]);
        c.steps[0] = c.steps[0].clone().with_param("k", "5");
        assert_eq!(c.to_string(), "graph_stats(k=5) -> generate_report");
    }

    #[test]
    fn editing_operations() {
        let mut c = ApiChain::from_names(["a", "b", "c"]);
        c.insert(1, ApiCall::new("x"));
        assert_eq!(c.api_names(), vec!["a", "x", "b", "c"]);
        let removed = c.remove(0).unwrap();
        assert_eq!(removed.api, "a");
        c.replace(0, ApiCall::new("y"));
        assert_eq!(c.api_names(), vec!["y", "b", "c"]);
        assert!(c.remove(99).is_none());
        assert!(c.replace(99, ApiCall::new("z")).is_none());
    }

    #[test]
    fn validate_accepts_well_typed_chain() {
        let reg = registry::standard();
        let c = ApiChain::from_names(["detect_communities", "generate_report"]);
        assert!(c.validate(&reg, true).is_ok());
    }

    #[test]
    fn validate_rejects_unknown_api() {
        let reg = registry::standard();
        let c = ApiChain::from_names(["frobnicate"]);
        assert!(matches!(
            c.validate(&reg, true),
            Err(ChainError::UnknownApi(0, _))
        ));
    }

    #[test]
    fn validate_rejects_type_mismatch() {
        let reg = registry::standard();
        // remove_edges wants an EdgeList, but node_count produces a Number.
        let c = ApiChain::from_names(["node_count", "remove_edges"]);
        let err = c.validate(&reg, true).unwrap_err();
        assert!(matches!(err, ChainError::TypeMismatch { step: 1, .. }), "{err}");
    }

    #[test]
    fn validate_rejects_graph_input_without_session_graph() {
        let reg = registry::standard();
        let c = ApiChain::from_names(["graph_stats"]);
        assert!(c.validate(&reg, true).is_ok());
        assert!(matches!(
            c.validate(&reg, false),
            Err(ChainError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn empty_chain_invalid() {
        let reg = registry::standard();
        assert_eq!(ApiChain::new().validate(&reg, true), Err(ChainError::Empty));
    }

    #[test]
    fn to_graph_is_labelled_path() {
        let mut c = ApiChain::from_names(["a", "b", "c"]);
        c.steps[1] = c.steps[1].clone().with_param("k", "3");
        let g = c.to_graph().unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.is_directed());
        let labels: Vec<String> = g
            .node_ids()
            .map(|v| g.node_label(v).unwrap().to_owned())
            .collect();
        assert_eq!(labels, vec!["a", "b", "c"]);
        let b = g.node_ids().nth(1).unwrap();
        assert_eq!(g.node_attrs(b).unwrap()["k"].as_text(), Some("3"));
    }

    #[test]
    fn param_parsing_defaults() {
        let call = ApiCall::new("x").with_param("k", "7").with_param("bad", "zz");
        assert_eq!(call.param_usize("k", 1), 7);
        assert_eq!(call.param_usize("bad", 1), 1);
        assert_eq!(call.param_f64("missing", 2.5), 2.5);
    }

    #[test]
    fn try_param_surfaces_malformed_values() {
        let call = ApiCall::new("x").with_param("k", "7").with_param("bad", "zz");
        assert_eq!(call.try_param_usize("k", 1), Ok(7));
        assert_eq!(call.try_param_usize("missing", 1), Ok(1));
        assert!(call.try_param_usize("bad", 1).unwrap_err().contains("bad"));
        assert_eq!(call.try_param_f64("missing", 2.5), Ok(2.5));
        assert!(call.try_param_f64("bad", 0.0).is_err());
    }

    #[test]
    fn json_roundtrip() {
        let c = ApiChain::from_names(["a", "b"]);
        let s = chatgraph_support::json::to_string(&c);
        assert_eq!(chatgraph_support::json::from_str::<ApiChain>(&s).unwrap(), c);
    }

    // The chain passes of `analysis::analyze`, one code at a time, against
    // the standard catalogue.

    fn run(chain: &ApiChain, has_session_graph: bool) -> Diagnostics {
        analyze(chain, &registry::standard(), has_session_graph)
    }

    fn chain(names: &[&str]) -> ApiChain {
        ApiChain::from_names(names.iter().copied())
    }

    /// Gives step `i` the two parameters `relabel_nodes` requires.
    fn relabel(c: &mut ApiChain, i: usize) {
        c.steps[i].params.insert("from".into(), "A".into());
        c.steps[i].params.insert("to".into(), "B".into());
    }

    fn codes(d: &Diagnostics) -> Vec<&str> {
        d.items.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn empty_chain_is_cg001() {
        let d = run(&chain(&[]), true);
        assert_eq!(codes(&d), vec!["CG001"]);
        assert!(d.has_errors());
    }

    #[test]
    fn unknown_api_is_cg002_with_suggestion() {
        let d = run(&chain(&["node_cuont"]), true);
        assert_eq!(codes(&d), vec!["CG002"]);
        assert_eq!(d.items[0].suggestion.as_deref(), Some("did you mean `node_count`?"));
    }

    #[test]
    fn type_mismatch_is_cg003() {
        let d = run(&chain(&["node_count", "remove_edges"]), true);
        assert!(codes(&d).contains(&"CG003"), "{}", d.render_text());
    }

    #[test]
    fn missing_session_graph_is_cg004() {
        let d = run(&chain(&["node_count"]), false);
        assert_eq!(codes(&d), vec!["CG004"]);
        let ok = run(&chain(&["node_count"]), true);
        assert!(ok.is_empty(), "{}", ok.render_text());
    }

    #[test]
    fn all_type_errors_are_collected_not_just_first() {
        // Two independent mismatches in one chain.
        let d = run(&chain(&["node_count", "remove_edges", "node_count", "remove_edges"]), false);
        let errs: Vec<&str> = d
            .items
            .iter()
            .filter(|x| x.severity == Severity::Error)
            .map(|x| x.code.as_str())
            .collect();
        assert!(errs.len() >= 3, "{}", d.render_text());
        // With a session graph the Graph-input steps type-check, yet both
        // mismatches remain, and `validate` refuses the chain too.
        let c = chain(&["node_count", "remove_edges", "node_count", "remove_edges"]);
        let d = run(&c, true);
        assert!(d.count(Severity::Error) >= 2, "{}", d.render_text());
        assert!(c.validate(&registry::standard(), true).is_err());
    }

    #[test]
    fn unknown_param_is_cg005_with_suggestion() {
        let mut c = chain(&["top_pagerank", "generate_report"]);
        c.steps[0].params.insert("kk".into(), "5".into());
        let d = run(&c, true);
        assert_eq!(codes(&d), vec!["CG005"]);
        assert_eq!(d.items[0].suggestion.as_deref(), Some("did you mean `k`?"));
        assert!(!d.has_errors());
    }

    #[test]
    fn unparseable_param_is_cg006() {
        let mut c = chain(&["top_pagerank", "generate_report"]);
        c.steps[0].params.insert("k".into(), "lots".into());
        let d = run(&c, true);
        assert_eq!(codes(&d), vec!["CG006"]);
        assert!(d.items[0].suggestion.as_deref().unwrap_or("").contains("default `5`"));
    }

    #[test]
    fn out_of_range_param_is_cg007() {
        let mut c = chain(&["top_pagerank", "generate_report"]);
        c.steps[0].params.insert("k".into(), "5000".into());
        let d = run(&c, true);
        assert_eq!(codes(&d), vec!["CG007"]);
    }

    #[test]
    fn discarded_output_is_cg008_unless_sink_follows() {
        let d = run(&chain(&["node_count", "node_count"]), true);
        assert!(codes(&d).contains(&"CG008"), "{}", d.render_text());
        let with_sink = run(&chain(&["node_count", "node_count", "generate_report"]), true);
        assert!(!codes(&with_sink).contains(&"CG008"), "{}", with_sink.render_text());
    }

    #[test]
    fn repeated_step_is_cg009() {
        let d = run(&chain(&["node_count", "node_count", "generate_report"]), true);
        assert!(codes(&d).contains(&"CG009"), "{}", d.render_text());
        // Different params are not redundant.
        let mut c = chain(&["top_pagerank", "top_pagerank", "generate_report"]);
        c.steps[1].params.insert("k".into(), "9".into());
        let d2 = run(&c, true);
        assert!(!codes(&d2).contains(&"CG009"), "{}", d2.render_text());
    }

    #[test]
    fn confirmation_step_is_cg010() {
        let d = run(&chain(&["remove_edges"]), true);
        assert!(codes(&d).contains(&"CG010"), "{}", d.render_text());
        // CG010 is a warning: it must not block execution on its own.
        assert!(d.items.iter().filter(|x| x.code == "CG010").all(|x| x.severity == Severity::Warning));
        let d = run(&chain(&["detect_incorrect_edges", "remove_edges"]), true);
        assert!(codes(&d).contains(&"CG010"), "{}", d.render_text());
        assert!(!d.has_errors(), "{}", d.render_text());
    }

    #[test]
    fn unknown_api_does_not_cascade_type_errors() {
        let d = run(&chain(&["frobnicate", "node_count"]), true);
        assert_eq!(codes(&d), vec!["CG002"], "{}", d.render_text());
    }

    #[test]
    fn dead_step_is_cg011_unless_sink_or_effect() {
        let d = run(&chain(&["node_count", "node_count"]), true);
        assert!(codes(&d).contains(&"CG011"), "{}", d.render_text());
        assert!(d.items.iter().filter(|x| x.code == "CG011").all(|x| x.severity == Severity::Info));
        // A later report sink collects the finding: not dead.
        let with_sink = run(&chain(&["node_count", "node_count", "generate_report"]), true);
        assert!(!codes(&with_sink).contains(&"CG011"), "{}", with_sink.render_text());
        // A mutating step is never dead, even with its output discarded.
        let mut c = chain(&["relabel_nodes", "node_count"]);
        relabel(&mut c, 0);
        let mutating = run(&c, true);
        assert!(!codes(&mutating).contains(&"CG011"), "{}", mutating.render_text());
    }

    #[test]
    fn edit_read_race_is_cg012() {
        // top_pagerank's table is only a finding; it is read pre-edit but
        // reported post-edit.
        let mut c = chain(&["top_pagerank", "relabel_nodes", "generate_report"]);
        relabel(&mut c, 1);
        let d = run(&c, true);
        assert!(codes(&d).contains(&"CG012"), "{}", d.render_text());
        assert!(d.items.iter().filter(|x| x.code == "CG012").all(|x| x.severity == Severity::Warning));
        // Without a report after the edit there is nothing to mix: no CG012.
        let mut c2 = chain(&["top_pagerank", "relabel_nodes"]);
        relabel(&mut c2, 1);
        let d2 = run(&c2, true);
        assert!(!codes(&d2).contains(&"CG012"), "{}", d2.render_text());
    }

    #[test]
    fn edit_before_any_read_is_not_a_race() {
        // No pure graph read precedes the edit, so there is nothing the
        // report could mix, even with a sink afterwards.
        let mut c = chain(&["relabel_nodes", "generate_report"]);
        relabel(&mut c, 0);
        let d = run(&c, true);
        assert!(!codes(&d).contains(&"CG012"), "{}", d.render_text());
    }

    #[test]
    fn mid_chain_sink_is_cg013() {
        let d = run(&chain(&["node_count", "generate_report", "node_count"]), true);
        assert!(codes(&d).contains(&"CG013"), "{}", d.render_text());
        let at_end = run(&chain(&["node_count", "generate_report"]), true);
        assert!(!codes(&at_end).contains(&"CG013"), "{}", at_end.render_text());
    }

    #[test]
    fn missing_required_param_is_cg014() {
        let d = run(&chain(&["relabel_nodes"]), true);
        let cg014: Vec<_> = d.items.iter().filter(|x| x.code == "CG014").collect();
        assert_eq!(cg014.len(), 2, "{}", d.render_text());
        assert!(cg014.iter().all(|x| x.severity == Severity::Warning));
        // Providing both parameters silences the lint.
        let mut c = chain(&["relabel_nodes"]);
        relabel(&mut c, 0);
        let d2 = run(&c, true);
        assert!(!codes(&d2).contains(&"CG014"), "{}", d2.render_text());
    }

    #[test]
    fn interleaved_edits_are_cg015() {
        // edit → analytics → edit: the middle read builds a CSR snapshot of
        // a graph version the second edit immediately replaces.
        let mut c = chain(&["relabel_nodes", "top_pagerank", "relabel_nodes"]);
        relabel(&mut c, 0);
        relabel(&mut c, 2);
        let d = run(&c, true);
        let cg015: Vec<_> = d.items.iter().filter(|x| x.code == "CG015").collect();
        assert_eq!(cg015.len(), 1, "{}", d.render_text());
        assert!(cg015.iter().all(|x| x.severity == Severity::Info));
        assert!(matches!(cg015[0].span, Span::Step { step: 2, .. }), "{:?}", cg015[0].span);
        assert!(cg015[0].suggestion.as_deref().unwrap_or("").contains("group the edits"));
    }

    #[test]
    fn adjacent_or_linked_edits_are_not_cg015() {
        // Adjacent edits: already batched, nothing to reorder.
        let mut adjacent = chain(&["relabel_nodes", "relabel_nodes", "top_pagerank"]);
        relabel(&mut adjacent, 0);
        relabel(&mut adjacent, 1);
        let d = run(&adjacent, true);
        assert!(!codes(&d).contains(&"CG015"), "{}", d.render_text());

        // A report sink between the edits is not a pure graph read, so the
        // reorder is not provably safe.
        let mut sunk = chain(&["relabel_nodes", "generate_report", "relabel_nodes"]);
        relabel(&mut sunk, 0);
        relabel(&mut sunk, 2);
        let d2 = run(&sunk, true);
        assert!(!codes(&d2).contains(&"CG015"), "{}", d2.render_text());
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(nearest_name("graph_stat", ["graph_stats", "node_count"]), Some("graph_stats"));
        assert_eq!(nearest_name("zzzzzz", ["graph_stats", "node_count"]), None);
    }

    #[test]
    fn step_accepts_mirrors_validator_rules() {
        let reg = registry::standard();
        let desc = |name: &str| reg.descriptor(name).unwrap();
        // Graph input with a session graph: ok from anywhere.
        assert!(desc("node_count").accepts_input(ValueType::Number, true));
        assert!(!desc("node_count").accepts_input(ValueType::Number, false));
        // Any-input sink accepts everything.
        assert!(desc("generate_report").accepts_input(ValueType::Number, false));
        // Chain start counts as unit.
        assert!(!desc("remove_edges").accepts_input(ValueType::Unit, true));
    }
}
