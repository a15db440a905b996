//! Differential properties for the plan scheduler (see DESIGN.md §9): for
//! every valid chain, executing the lowered plan, cold or from a warm memo,
//! is observably identical to the seed sequential executor — same result, same
//! findings, same final graph, same core event sequence — and the memo
//! sees exactly the pure steps. Plus the barrier rule over the whole
//! registry and a golden test pinning the Plan JSON encoding.

mod support;

use chatgraph_apis::{
    analysis, registry, ApiCategory, ApiChain, ChainError, ChainEvent, CollectingMonitor,
    ExecContext, Plan, Scheduler, Value, ValueType,
};
use chatgraph_graph::generators::{knowledge_graph, molecule_database, KgParams, MoleculeParams};
use chatgraph_graph::Graph;
use chatgraph_support::prop::{check, Config};
use chatgraph_support::prop_assert_eq;
use chatgraph_support::rng::{RngExt, SliceRandom, StdRng};
use support::execute_chain_reference;

/// Generator: a chain of 1..=max_len steps where every extension
/// type-checks (`can_extend`), so the whole chain is valid by construction.
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
struct Observed {
    result: Result<Value, ChainError>,
    findings: Vec<(String, Value)>,
    core_events: Vec<ChainEvent>,
    /// Steps that emitted `StepStarted` (every step that ran or was served).
    started: Vec<usize>,
    /// The step of each `MemoLookup`, in emission order.
    memo_lookups: Vec<usize>,
    graph: Graph,
}

fn observe(
    run: impl FnOnce(&mut ExecContext, &mut CollectingMonitor) -> Result<Value, ChainError>,
) -> Observed {
    // Small enough for a property test, rich enough to exercise the KG
    // detection APIs, the edit APIs' confirmation path, and the database
    // similarity APIs.
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
    // Tiny molecules: `graph_edit_distance_exact` is exponential in graph
    // size, and the differential check runs every chain three times.
    let db = molecule_database(
        3,
        &MoleculeParams { atoms: 8, rings: 1, double_bond_prob: 0.15 },
        5,
    );
    let mut ctx = ExecContext::new(g).with_database(db).with_seed(11);
    let mut mon = CollectingMonitor::new();
    let result = run(&mut ctx, &mut mon);
    let findings = std::mem::take(&mut ctx.findings);
    let steps_of = |pick: fn(&ChainEvent) -> Option<usize>| mon.events.iter().filter_map(pick).collect();
    let started = steps_of(|e| match e {
        ChainEvent::StepStarted { step, .. } => Some(*step),
        _ => None,
    });
    let memo_lookups = steps_of(|e| match e {
        ChainEvent::MemoLookup { step, .. } => Some(*step),
        _ => None,
    });
    Observed {
        result,
        findings,
        core_events: mon.events.into_iter().filter(ChainEvent::is_core).collect(),
        started,
        memo_lookups,
        graph: ctx.into_graph(),
    }
}

/// The shared differential check: reference executor vs the scheduler,
/// cold and then on a warm memo. Every pure step that starts is looked up
/// in the memo exactly once, and no barrier is: a barrier's effects are
/// invisible to the memo key.
fn check_plan_matches_reference(chain: &ApiChain) -> Result<(), String> {
    let reg = registry::standard();
    let plan = Plan::build(chain, &reg).map_err(|e| e.to_string())?;
    let reference = observe(|ctx, mon| execute_chain_reference(&reg, chain, ctx, mon));
    let sched = Scheduler::new();
    let runs = [
        ("cold", observe(|ctx, mon| sched.execute(&reg, chain, ctx, mon))),
        ("warm memo", observe(|ctx, mon| sched.execute(&reg, chain, ctx, mon))),
    ];
    for (label, got) in runs {
        prop_assert_eq!(&got.result, &reference.result, "result differs ({label})");
        prop_assert_eq!(&got.findings, &reference.findings, "findings differ ({label})");
        prop_assert_eq!(
            &got.core_events,
            &reference.core_events,
            "core events differ ({label})"
        );
        prop_assert_eq!(&got.graph, &reference.graph, "final graph differs ({label})");
        for &j in &got.started {
            let lookups = got.memo_lookups.iter().filter(|&&s| s == j).count();
            let want = usize::from(!plan.steps[j].barrier);
            prop_assert_eq!(lookups, want, "step {j} memo lookups ({label})");
        }
        let unstarted = got.memo_lookups.iter().find(|s| !got.started.contains(s));
        prop_assert_eq!(unstarted, None, "memo lookup for a step that never started ({label})");
    }
    Ok(())
}

/// Determinism contract: plan execution, cold or warm, is
/// observation-equivalent to the sequential seed executor on random valid
/// chains.
#[test]
fn plan_execution_matches_reference_executor() {
    check(
        "plan_execution_matches_reference_executor",
        Config::default().with_cases(24),
        |rng, _size| random_valid_chain(rng, 4),
        check_plan_matches_reference,
    );
}

/// The canonical cleaning pipeline (paper Fig. 6) — barriers, confirmations
/// and mutations all in one chain — through the same differential check.
#[test]
fn cleaning_pipeline_matches_reference() {
    let chain = ApiChain::from_names([
        "detect_incorrect_edges",
        "remove_edges",
        "detect_missing_edges",
        "add_edges",
    ]);
    check_plan_matches_reference(&chain).unwrap();
}

/// A wide read-only chain — independent reads of the session graph, then
/// a report.
#[test]
fn parallel_reads_match_reference() {
    let chain = ApiChain::from_names([
        "node_count",
        "edge_count",
        "graph_density",
        "detect_communities",
        "generate_report",
    ]);
    check_plan_matches_reference(&chain).unwrap();
}

/// A branchy chain — reads of the session graph beside a component
/// sub-chain, then a report.
#[test]
fn branchy_chain_matches_reference() {
    let chain = ApiChain::from_names([
        "node_count",
        "edge_count",
        "graph_density",
        "largest_component",
        "node_count",
        "generate_report",
    ]);
    check_plan_matches_reference(&chain).unwrap();
}

/// The rule the scheduler's memo relies on: every API whose step can
/// observe or change state outside its input and graph version — a
/// mutation, a confirmation, or a read of the findings — is a barrier, so
/// it always runs and is never served from a memo keyed without that state.
#[test]
fn barriers_are_exactly_mutations_confirmations_and_findings_readers() {
    let reg = registry::standard();
    for name in reg.names() {
        let desc = reg.descriptor(name).expect("registered");
        // The API alone when it can start a chain, else behind the first
        // API that can start one and feeds it.
        let first = |api: &str| analysis::can_extend(&reg, None, api, true);
        let chain = if first(name) {
            ApiChain::from_names([name])
        } else {
            let feeder = reg
                .names()
                .into_iter()
                .find(|&p| first(p) && analysis::can_extend(&reg, Some(p), name, true))
                .unwrap_or_else(|| panic!("no API feeds `{name}`"));
            ApiChain::from_names([feeder, name])
        };
        let plan = Plan::build(&chain, &reg).unwrap_or_else(|e| panic!("`{name}`: {e}"));
        let step = plan.steps.last().expect("one step per call");
        let reads_findings = desc.category == ApiCategory::Report || desc.input == ValueType::Any;
        assert_eq!(step.reads_findings, reads_findings, "`{name}` reads_findings");
        assert_eq!(step.mutates_graph, desc.mutates_graph, "`{name}` mutates_graph");
        assert_eq!(
            step.barrier,
            desc.mutates_graph || desc.requires_confirmation || reads_findings,
            "`{name}` barrier"
        );
    }
}

/// Golden test: the Plan JSON encoding for the cleaning chain is pinned, so
/// accidental changes to the IR (field set, dependency edges, barrier
/// classification) show up as a readable diff.
#[test]
fn plan_json_encoding_is_stable() {
    let reg = registry::standard();
    let chain = ApiChain::from_names([
        "node_count",
        "detect_incorrect_edges",
        "remove_edges",
        "generate_report",
    ]);
    let plan = Plan::build(&chain, &reg).unwrap();
    let got = chatgraph_support::json::to_string(&plan);
    if std::env::var_os("CHATGRAPH_UPDATE_GOLDEN").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_plan.json");
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = include_str!("golden_plan.json").trim();
    assert_eq!(got, want, "Plan JSON drifted from tests/golden_plan.json");
}
