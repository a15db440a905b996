//! The execution-plan IR: a validated [`ApiChain`] lowered into a DAG of
//! [`PlanStep`]s whose edges are the *real* data dependencies.
//!
//! The chain the LLM emits is linear, but most of its steps only read an
//! immutable snapshot of the session graph — there is no data reason to run
//! them one after another. [`Plan::build`] makes the true structure
//! explicit:
//!
//! * every step's input is resolved statically ([`InputSource`]): the
//!   previous step's output, the session graph, or `Unit` — mirroring the
//!   executor's runtime rule exactly (declared output types are exact in
//!   this catalogue, so static resolution equals runtime resolution);
//! * steps that mutate the session graph, require user confirmation, or
//!   read accumulated findings are **barriers**: they observe or change
//!   shared state, so everything before them must have committed and
//!   nothing after them may start early;
//! * between barriers, steps form independent sub-chains (linked only by
//!   consecutive `PrevOutput` edges): none reads another's output or the
//!   findings, so each runs against a snapshot of the graph version the
//!   segment started on;
//! * pure, confirmation-free steps are flagged `memoizable` for the
//!   scheduler's step-result cache.
//!
//! The plan is a *description*; execution lives in [`crate::sched`]. The
//! determinism contract — the scheduler produces the same final value,
//! findings order and core events as the sequential executor, cold or from
//! a warm memo — is stated there and enforced by `tests/plan_properties.rs`.

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

/// One node of the plan DAG.
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
    /// Indices of steps that must commit before this one may run. Sorted.
    pub deps: Vec<usize>,
    /// Whether this step is a barrier (mutation, confirmation, or a read of
    /// accumulated findings): it runs alone, after everything before it.
    pub barrier: bool,
    /// Whether the step observes the session graph.
    pub reads_graph: bool,
    /// Whether the step mutates the session graph.
    pub mutates_graph: bool,
    /// Whether the step reads `ExecContext::findings`.
    pub reads_findings: bool,
    /// Whether the scheduler may serve this step from its memo cache.
    pub memoizable: bool,
}

chatgraph_support::impl_json_struct!(PlanStep {
    index,
    api,
    params,
    input,
    deps,
    barrier,
    reads_graph,
    mutates_graph,
    reads_findings,
    memoizable,
});

/// A validated chain lowered to its dependency DAG.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    /// Steps in chain order (the DAG edges are in `deps`).
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
        let mut last_barrier: Option<usize> = None;
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
            let reads_graph = input == InputSource::SessionGraph || barrier;
            let mut deps: Vec<usize> = Vec::new();
            if barrier {
                // A barrier waits for everything before it; listing the
                // previous barrier plus the steps after it is transitively
                // complete.
                match last_barrier {
                    Some(b) => deps.extend(b..i),
                    None => deps.extend(0..i),
                }
            } else {
                if let InputSource::PrevOutput(j) = input {
                    deps.push(j);
                }
                if reads_graph {
                    if let Some(b) = last_barrier {
                        if !deps.contains(&b) {
                            deps.push(b);
                        }
                    }
                }
                deps.sort_unstable();
            }
            steps.push(PlanStep {
                index: i,
                api: call.api.clone(),
                params: call.params.clone(),
                input,
                deps,
                barrier,
                reads_graph,
                mutates_graph: desc.mutates_graph,
                reads_findings,
                memoizable: !barrier,
            });
            if barrier {
                last_barrier = Some(i);
            }
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

    /// Total number of dependency edges.
    pub fn dep_count(&self) -> usize {
        self.steps.iter().map(|s| s.deps.len()).sum()
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
    /// only ever point at the immediate predecessor, dead-output steps are
    /// always sub-chain tails, so skipping one never changes a later
    /// step's input.
    pub fn dead_output(&self, i: usize) -> bool {
        let Some(step) = self.steps.get(i) else { return false };
        if step.barrier || i + 1 >= self.steps.len() {
            return false;
        }
        self.steps[i + 1].input != InputSource::PrevOutput(i)
    }

    /// The maximal barrier-free segments, each partitioned into its
    /// independent sub-chains (runs linked by consecutive `PrevOutput`
    /// edges). Barrier steps appear as their own single-step groups. This
    /// is the structure the scheduler executes.
    pub fn segments(&self) -> Vec<Segment> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.steps.len() {
            if self.steps[i].barrier {
                out.push(Segment::Barrier(i));
                i += 1;
                continue;
            }
            let start = i;
            while i < self.steps.len() && !self.steps[i].barrier {
                i += 1;
            }
            let mut chains: Vec<Vec<usize>> = Vec::new();
            for j in start..i {
                let continues = j > start
                    && self.steps[j].input == InputSource::PrevOutput(j - 1);
                if continues {
                    if let Some(last) = chains.last_mut() {
                        last.push(j);
                        continue;
                    }
                }
                chains.push(vec![j]);
            }
            out.push(Segment::Parallel(chains));
        }
        out
    }

    /// A human-readable sketch of the DAG, one line per step.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for s in &self.steps {
            let deps = if s.deps.is_empty() {
                "-".to_owned()
            } else {
                s.deps
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let mut flags = Vec::new();
            if s.barrier {
                flags.push("barrier");
            }
            if s.mutates_graph {
                flags.push("mutates");
            }
            if s.memoizable {
                flags.push("memo");
            }
            let input = match s.input {
                InputSource::PrevOutput(j) => format!("prev({j})"),
                InputSource::SessionGraph => "graph".to_owned(),
                InputSource::Unit => "unit".to_owned(),
            };
            out.push_str(&format!(
                "#{:<2} {:<28} in={:<9} deps=[{}] {}\n",
                s.index,
                s.api,
                input,
                deps,
                flags.join(" ")
            ));
        }
        out
    }
}

/// One scheduling unit: either a single barrier step or a barrier-free run
/// of independent sub-chains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    /// A barrier step, run against the real context.
    Barrier(usize),
    /// Independent sub-chains of step indices; each sub-chain is sequential
    /// internally, and no sub-chain reads another's output, the findings or
    /// a graph version other than the segment's snapshot.
    Parallel(Vec<Vec<usize>>),
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
        // session graph, so none depends on another.
        let chain = ApiChain::from_names(["node_count", "edge_count", "graph_density"]);
        let plan = Plan::build(&chain, &reg).unwrap();
        assert_eq!(plan.len(), 3);
        for s in &plan.steps {
            assert_eq!(s.input, InputSource::SessionGraph);
            assert!(s.deps.is_empty(), "step {} deps {:?}", s.index, s.deps);
            assert!(s.memoizable && !s.barrier);
        }
        assert_eq!(
            plan.segments(),
            vec![Segment::Parallel(vec![vec![0], vec![1], vec![2]])]
        );
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
        assert_eq!(plan.steps[1].input, InputSource::PrevOutput(0));
        assert_eq!(plan.steps[1].deps, vec![0]);
        // node_count outputs Number; edge_count wants Graph → session graph.
        assert_eq!(plan.steps[2].input, InputSource::SessionGraph);
        assert!(plan.steps[2].deps.is_empty());
        assert_eq!(
            plan.segments(),
            vec![Segment::Parallel(vec![vec![0, 1], vec![2]])]
        );
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
        assert!(remove.barrier && remove.mutates_graph && !remove.memoizable);
        assert_eq!(remove.deps, vec![0, 1], "waits for everything before it");
        // The read after the barrier depends on it.
        assert_eq!(plan.steps[3].deps, vec![2]);
        assert_eq!(
            plan.segments(),
            vec![
                Segment::Parallel(vec![vec![0], vec![1]]),
                Segment::Barrier(2),
                Segment::Parallel(vec![vec![3]]),
            ]
        );
    }

    #[test]
    fn report_sinks_are_findings_barriers() {
        let reg = registry::standard();
        let chain = ApiChain::from_names(["node_count", "graph_stats", "generate_report"]);
        let plan = Plan::build(&chain, &reg).unwrap();
        let report = &plan.steps[2];
        assert!(report.barrier && report.reads_findings && !report.mutates_graph);
        assert_eq!(report.deps, vec![0, 1]);
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
        assert_eq!(plan.steps[1].deps, vec![0]);
        // Step 2 reads the graph after the barrier at 1.
        assert_eq!(plan.steps[2].deps, vec![1]);
        assert_eq!(plan.steps[3].deps, vec![1, 2]);
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
        assert!(text.contains("node_count"));
        assert!(text.contains("barrier"));
    }

    // The CG016/CG017 interference audit (`analysis::audit_plan`) on
    // hand-built plans: `Plan::build` never produces these flaws.

    /// A pure, memoizable step reading `input`, with no dependencies.
    fn step(index: usize, api: &str, input: InputSource) -> PlanStep {
        PlanStep {
            index,
            api: api.to_owned(),
            params: BTreeMap::new(),
            input,
            deps: Vec::new(),
            barrier: false,
            reads_graph: true,
            mutates_graph: false,
            reads_findings: false,
            memoizable: true,
        }
    }

    fn audit_codes(plan: &Plan) -> Vec<String> {
        crate::analysis::audit_plan(plan, &plan.segments()).items.into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_parallel_plan_passes() {
        let plan = Plan {
            steps: vec![
                step(0, "node_count", InputSource::SessionGraph),
                step(1, "edge_count", InputSource::SessionGraph),
            ],
        };
        assert_eq!(plan.segments(), vec![Segment::Parallel(vec![vec![0], vec![1]])]);
        assert!(audit_codes(&plan).is_empty());
    }

    #[test]
    fn mutating_step_in_parallel_segment_is_cg016_error() {
        let mut s = step(0, "remove_edges", InputSource::SessionGraph);
        s.mutates_graph = true;
        let plan = Plan { steps: vec![s, step(1, "node_count", InputSource::SessionGraph)] };
        let d = crate::analysis::audit_plan(&plan, &plan.segments());
        assert_eq!(audit_codes(&plan), vec!["CG016"]);
        assert!(d.has_errors());
    }

    #[test]
    fn cross_chain_dependency_is_cg016() {
        let mut s1 = step(1, "graph_density", InputSource::SessionGraph);
        s1.deps = vec![0];
        let plan = Plan { steps: vec![step(0, "node_count", InputSource::SessionGraph), s1] };
        let d = crate::analysis::audit_plan(&plan, &plan.segments());
        assert_eq!(audit_codes(&plan), vec!["CG016"]);
        assert!(d.items[0].message.contains("different sub-chain"));
    }

    #[test]
    fn in_chain_dependency_order_is_checked() {
        // Step 0 depends on step 1, which its own sub-chain runs later.
        let mut s0 = step(0, "largest_component", InputSource::SessionGraph);
        s0.deps = vec![1];
        let plan = Plan { steps: vec![s0, step(1, "node_count", InputSource::PrevOutput(0))] };
        assert_eq!(plan.segments(), vec![Segment::Parallel(vec![vec![0, 1]])]);
        assert_eq!(audit_codes(&plan), vec!["CG016"]);
    }

    #[test]
    fn dependency_on_earlier_step_of_same_chain_is_fine() {
        let mut s1 = step(1, "node_count", InputSource::PrevOutput(0));
        s1.deps = vec![0];
        let plan = Plan { steps: vec![step(0, "largest_component", InputSource::SessionGraph), s1] };
        assert!(audit_codes(&plan).is_empty());
    }

    #[test]
    fn memoizable_findings_reader_is_cg017_warning() {
        let mut s = step(0, "generate_report", InputSource::Unit);
        s.barrier = true;
        s.reads_findings = true;
        let plan = Plan { steps: vec![s] };
        let d = crate::analysis::audit_plan(&plan, &plan.segments());
        assert_eq!(audit_codes(&plan), vec!["CG017"]);
        assert!(!d.has_errors());
    }
}
