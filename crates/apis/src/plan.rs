//! The execution-plan IR: a validated [`ApiChain`] lowered to one
//! [`PlanStep`] per call, each describing how the scheduler runs it.
//!
//! [`Plan::build`] classifies every step from its descriptor:
//!
//! * its input is resolved statically ([`InputSource`]): the previous
//!   step's output, the session graph, or `Unit` — mirroring the
//!   executor's runtime rule exactly (declared output types are exact in
//!   this catalogue, so static resolution equals runtime resolution);
//! * steps that mutate the session graph, require user confirmation, or
//!   read accumulated findings are **barriers**: they run unkeyed against
//!   the chain's context, after their confirmation prompt;
//! * every other step is pure: the scheduler serves it through its step
//!   memo, keyed from the graph version it reads.
//!
//! The plan is a *description*; execution lives in [`crate::sched`], which
//! runs the steps one at a time in index order. The determinism contract —
//! the scheduler produces the same final value, findings order and core
//! events as the sequential executor, cold or from a warm memo — is stated
//! there and enforced by `tests/plan_properties.rs`.

use crate::chain::{ApiChain, ChainError};
use crate::descriptor::ApiCategory;
use crate::registry::ApiRegistry;
use crate::value::ValueType;
use chatgraph_support::json::{FromJson, Json, JsonError, ToJson};
use std::collections::BTreeMap;

/// Where a step's input value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputSource {
    /// The output of step `i` (always the immediately preceding step, by
    /// the executor's resolution rule).
    PrevOutput(usize),
    /// A read-only snapshot of the session graph.
    SessionGraph,
    /// No input.
    Unit,
}

impl ToJson for InputSource {
    fn to_json(&self) -> Json {
        match self {
            InputSource::PrevOutput(i) => {
                Json::Object(vec![("PrevOutput".to_owned(), Json::UInt(*i as u64))])
            }
            InputSource::SessionGraph => Json::Str("SessionGraph".to_owned()),
            InputSource::Unit => Json::Str("Unit".to_owned()),
        }
    }
}

impl FromJson for InputSource {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_str() {
            Some("SessionGraph") => return Ok(InputSource::SessionGraph),
            Some("Unit") => return Ok(InputSource::Unit),
            _ => {}
        }
        let fields = v
            .as_object()
            .ok_or_else(|| JsonError::expected("InputSource", v))?;
        match fields {
            [(tag, payload)] if tag == "PrevOutput" => {
                Ok(InputSource::PrevOutput(FromJson::from_json(payload)?))
            }
            _ => Err(JsonError::msg("unknown InputSource variant")),
        }
    }
}

/// One step of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// Position in the original chain (and the findings/event order).
    pub index: usize,
    /// API name.
    pub api: String,
    /// Call parameters.
    pub params: BTreeMap<String, String>,
    /// Statically resolved input.
    pub input: InputSource,
    /// Whether this step is a barrier (mutation, confirmation, or a read of
    /// accumulated findings): it runs unkeyed, never from the memo.
    pub barrier: bool,
    /// Whether the step mutates the session graph.
    pub mutates_graph: bool,
    /// Whether the step reads `ExecContext::findings`.
    pub reads_findings: bool,
}

chatgraph_support::impl_json_struct!(PlanStep {
    index,
    api,
    params,
    input,
    barrier,
    mutates_graph,
    reads_findings,
});

/// A validated chain lowered to per-step descriptions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    /// Steps in chain order.
    pub steps: Vec<PlanStep>,
}

chatgraph_support::impl_json_struct!(Plan { steps });

impl Plan {
    /// Lowers `chain` into a plan. Validates the chain first (the plan's
    /// input-resolution rule is only meaningful for chains the validator
    /// accepts, with a session graph present).
    pub fn build(chain: &ApiChain, registry: &ApiRegistry) -> Result<Plan, ChainError> {
        chain.validate(registry, true)?;
        let mut steps: Vec<PlanStep> = Vec::with_capacity(chain.len());
        let mut prev_out = ValueType::Unit;
        for (i, call) in chain.steps.iter().enumerate() {
            let desc = registry
                .descriptor(&call.api)
                .ok_or_else(|| ChainError::UnknownApi(i, call.api.clone()))?;
            // Mirror the executor's runtime rule: previous output if the
            // types accept it, else the session graph for Graph inputs,
            // else Unit.
            let input = if desc.input.accepts(prev_out) && i > 0 {
                InputSource::PrevOutput(i - 1)
            } else if desc.input == ValueType::Graph {
                InputSource::SessionGraph
            } else {
                InputSource::Unit
            };
            // Report sinks and Any-input steps fold over `findings`, which
            // every earlier step appends to — they observe all prior state.
            let reads_findings =
                desc.category == ApiCategory::Report || desc.input == ValueType::Any;
            let barrier = desc.mutates_graph || desc.requires_confirmation || reads_findings;
            steps.push(PlanStep {
                index: i,
                api: call.api.clone(),
                params: call.params.clone(),
                input,
                barrier,
                mutates_graph: desc.mutates_graph,
                reads_findings,
            });
            prev_out = desc.output;
        }
        Ok(Plan { steps })
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the plan has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of barrier steps.
    pub fn barrier_count(&self) -> usize {
        self.steps.iter().filter(|s| s.barrier).count()
    }

    /// Whether step `i`'s *output value* is provably dead downstream: no
    /// later step consumes it via `PrevOutput` and it is not the chain's
    /// final value. Barriers are never dead — their observable effect is
    /// the mutation/confirmation/findings-read itself, not the value.
    ///
    /// This is the soundness condition for `FailurePolicy::SkipDegraded`:
    /// a dead-output step may fail soft (its finding recorded as degraded)
    /// without changing what any later step computes. Note the degraded
    /// *finding* is still visible to report sinks — exactly the "mark it
    /// degraded, complete the chain" contract. Because `PrevOutput` edges
    /// only ever point at the immediate predecessor, skipping a dead-output
    /// step never changes a later step's input.
    pub fn dead_output(&self, i: usize) -> bool {
        let Some(step) = self.steps.get(i) else { return false };
        if step.barrier || i + 1 >= self.steps.len() {
            return false;
        }
        self.steps[i + 1].input != InputSource::PrevOutput(i)
    }

    /// A human-readable sketch of the plan, one line per step.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for s in &self.steps {
            let mut flags = Vec::new();
            if s.barrier {
                flags.push("barrier");
            }
            if s.mutates_graph {
                flags.push("mutates");
            }
            let input = match s.input {
                InputSource::PrevOutput(j) => format!("prev({j})"),
                InputSource::SessionGraph => "graph".to_owned(),
                InputSource::Unit => "unit".to_owned(),
            };
            out.push_str(&format!(
                "#{:<2} {:<28} in={:<9} {}\n",
                s.index,
                s.api,
                input,
                flags.join(" ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ApiCall, ApiChain};
    use crate::registry;

    #[test]
    fn independent_reads_have_no_mutual_deps() {
        let reg = registry::standard();
        // Three Number-producing graph reads: each falls back to the
        // session graph, so none reads another's output.
        let chain = ApiChain::from_names(["node_count", "edge_count", "graph_density"]);
        let plan = Plan::build(&chain, &reg).unwrap();
        assert_eq!(plan.len(), 3);
        for s in &plan.steps {
            assert_eq!(s.input, InputSource::SessionGraph);
            assert!(!s.barrier, "step {} is pure", s.index);
        }
    }

    #[test]
    fn dead_output_marks_unconsumed_non_final_steps() {
        let reg = registry::standard();
        // Steps 0 and 1 feed nothing (step 1 / 2 read the session graph);
        // step 2's value is the chain result.
        let chain = ApiChain::from_names(["node_count", "edge_count", "graph_density"]);
        let plan = Plan::build(&chain, &reg).unwrap();
        assert!(plan.dead_output(0));
        assert!(plan.dead_output(1));
        assert!(!plan.dead_output(2), "the final value is always load-bearing");
        assert!(!plan.dead_output(99), "out of range is not dead");
        // A consumed output is load-bearing; a report sink is a barrier
        // (and, taking `Any`, consumes the previous output too).
        let chain = ApiChain::from_names(["largest_component", "node_count", "generate_report"]);
        let plan = Plan::build(&chain, &reg).unwrap();
        assert!(!plan.dead_output(0), "step 1 consumes PrevOutput(0)");
        assert!(!plan.dead_output(1), "the report consumes PrevOutput(1)");
        assert!(!plan.dead_output(2), "barriers are never dead");
    }

    #[test]
    fn prev_output_links_consecutive_steps() {
        let reg = registry::standard();
        // largest_component: Graph → Graph, node_count consumes it.
        let chain = ApiChain::from_names(["largest_component", "node_count", "edge_count"]);
        let plan = Plan::build(&chain, &reg).unwrap();
        assert_eq!(plan.steps[0].input, InputSource::SessionGraph);
        assert_eq!(plan.steps[1].input, InputSource::PrevOutput(0));
        // node_count outputs Number; edge_count wants Graph → session graph.
        assert_eq!(plan.steps[2].input, InputSource::SessionGraph);
    }

    #[test]
    fn edit_apis_are_mutation_barriers() {
        let reg = registry::standard();
        let chain = ApiChain::from_names([
            "node_count",
            "detect_incorrect_edges",
            "remove_edges",
            "edge_count",
        ]);
        let plan = Plan::build(&chain, &reg).unwrap();
        let remove = &plan.steps[2];
        assert!(remove.barrier && remove.mutates_graph);
        let pure: Vec<bool> = plan.steps.iter().map(|s| !s.barrier).collect();
        assert_eq!(pure, vec![true, true, false, true]);
    }

    #[test]
    fn report_sinks_are_findings_barriers() {
        let reg = registry::standard();
        let chain = ApiChain::from_names(["node_count", "graph_stats", "generate_report"]);
        let plan = Plan::build(&chain, &reg).unwrap();
        let report = &plan.steps[2];
        assert!(report.barrier && report.reads_findings && !report.mutates_graph);
    }

    #[test]
    fn barriers_chain_through_each_other() {
        let reg = registry::standard();
        let chain = ApiChain::from_names([
            "detect_incorrect_edges",
            "remove_edges",
            "detect_missing_edges",
            "add_edges",
        ]);
        let plan = Plan::build(&chain, &reg).unwrap();
        assert_eq!(plan.steps[1].input, InputSource::PrevOutput(0));
        // Step 2 reads the graph version the barrier at 1 left behind.
        assert_eq!(plan.steps[2].input, InputSource::SessionGraph);
        assert_eq!(plan.steps[3].input, InputSource::PrevOutput(2));
        assert_eq!(plan.barrier_count(), 2);
    }

    #[test]
    fn invalid_chain_does_not_lower() {
        let reg = registry::standard();
        let chain = ApiChain::from_names(["node_count", "remove_edges"]);
        assert!(Plan::build(&chain, &reg).is_err());
    }

    #[test]
    fn plan_json_roundtrip() {
        let reg = registry::standard();
        let mut chain = ApiChain::from_names(["detect_incorrect_edges", "remove_edges"]);
        chain.steps[0] = ApiCall::new("detect_incorrect_edges");
        let plan = Plan::build(&chain, &reg).unwrap();
        let s = chatgraph_support::json::to_string(&plan);
        let back: Plan = chatgraph_support::json::from_str(&s).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn render_text_sketches_the_dag() {
        let reg = registry::standard();
        let chain = ApiChain::from_names(["node_count", "generate_report"]);
        let plan = Plan::build(&chain, &reg).unwrap();
        let text = plan.render_text();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("node_count"));
        assert!(text.contains("barrier"));
    }
}
