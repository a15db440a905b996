//! Descriptor-honesty contract: `mutates_graph` is load-bearing metadata —
//! the planner turns it into barriers (DESIGN.md §9), and the scheduler
//! memo-keys every other step by the graph version it reads — so every
//! handler must live up to its flag. This test is the sole guard on it:
//! nothing at run time checks a descriptor against its handler. For each
//! API in the standard registry it synthesizes an input that exercises the
//! handler and checks that the session graph's fingerprint changed if and
//! only if the descriptor says it mutates.
//!
//! Non-mutating APIs get the stronger form of the claim: the fingerprint
//! must be unchanged even when the handler returns an error (a handler that
//! mutates and then fails would still change the graph later steps read,
//! with no barrier, no durable commit and a stale memo key).

use chatgraph_apis::sched::graph_fingerprint;
use chatgraph_apis::{registry, ApiCall, ExecContext, Value, ValueType};
use chatgraph_graph::generators::{knowledge_graph, molecule_database, KgParams, MoleculeParams};
use chatgraph_graph::NodeId;
use std::sync::Arc;

fn seeded_ctx() -> ExecContext {
    let g = knowledge_graph(
        &KgParams {
            persons: 8,
            cities: 3,
            countries: 2,
            companies: 2,
            employment_rate: 0.5,
            knows_per_person: 1.0,
        },
        13,
    );
    let db = molecule_database(
        2,
        &MoleculeParams { atoms: 6, rings: 1, double_bond_prob: 0.1 },
        3,
    );
    ExecContext::new(g).with_database(db).with_seed(17)
}

/// An existing edge of the session graph as an `(src, dst, label)` triple.
fn existing_edge(ctx: &ExecContext) -> (NodeId, NodeId, String) {
    let g = &ctx.graph;
    let e = g.edge_ids().next().expect("seeded KG has edges");
    let (s, d) = g.edge_endpoints(e).expect("live edge");
    let label = g.edge_label(e).expect("live edge").to_owned();
    (s, d, label)
}

/// A node pair with no edge between them (in the stored direction).
fn absent_edge(ctx: &ExecContext) -> (NodeId, NodeId, String) {
    let g = &ctx.graph;
    let ids: Vec<NodeId> = g.node_ids().collect();
    for &s in &ids {
        for &d in &ids {
            if s != d && g.find_edge(s, d).is_none() {
                return (s, d, "synthetic".to_owned());
            }
        }
    }
    panic!("seeded KG is not complete; an absent pair must exist");
}

/// A generic input of the declared type, enough to drive the handler.
fn synthesize_input(ctx: &ExecContext, vt: ValueType) -> Value {
    match vt {
        ValueType::Graph => Value::Graph(Arc::clone(&ctx.graph)),
        ValueType::Number => Value::Number(3.0),
        ValueType::Text => Value::Text("probe".to_owned()),
        ValueType::Bool => Value::Bool(true),
        ValueType::NodeList => Value::NodeList(ctx.graph.node_ids().take(2).collect()),
        ValueType::EdgeList => Value::EdgeList(vec![existing_edge(ctx)]),
        // Table/Report inputs do not occur in the standard catalogue; Any
        // accepts whatever we hand it. Unit-input APIs ignore the value.
        _ => Value::Unit,
    }
}

#[test]
fn handlers_honour_their_mutation_flag() {
    let reg = registry::standard();
    for desc in reg.descriptors() {
        let name = desc.name.clone();
        let mut ctx = seeded_ctx();

        // Mutating APIs get a witness input guaranteed to cause a visible
        // edit; anything else gets a generic probe of the declared type.
        let (input, call) = if desc.mutates_graph {
            match name.as_str() {
                "remove_edges" => (
                    Value::EdgeList(vec![existing_edge(&ctx)]),
                    ApiCall::new(&name),
                ),
                "add_edges" => (
                    Value::EdgeList(vec![absent_edge(&ctx)]),
                    ApiCall::new(&name),
                ),
                "relabel_nodes" => (
                    Value::Unit,
                    ApiCall::new(&name)
                        .with_param("from", "Person")
                        .with_param("to", "__renamed__"),
                ),
                other => panic!(
                    "API `{other}` is flagged mutates_graph but this test has \
                     no mutation witness for it — add one so the contract \
                     stays exhaustive"
                ),
            }
        } else {
            (synthesize_input(&ctx, desc.input), ApiCall::new(&name))
        };

        let before = graph_fingerprint(&ctx.graph);
        let result = reg.call(&name, &mut ctx, input, &call);
        let after = graph_fingerprint(&ctx.graph);

        if desc.mutates_graph {
            let out = result.unwrap_or_else(|e| {
                panic!("{name}: mutation witness must execute, got error: {e}")
            });
            assert!(
                matches!(out, Value::Number(n) if n >= 1.0),
                "{name}: witness should report at least one edit, got {out:?}"
            );
            assert_ne!(
                before, after,
                "{name}: descriptor says mutates_graph but the graph \
                 fingerprint did not change"
            );
        } else {
            // Errors are fine for under-provisioned probes (e.g. similarity
            // APIs fed a KG); silent mutation is not.
            assert_eq!(
                before, after,
                "{name}: descriptor says non-mutating but the graph \
                 fingerprint changed (result: {result:?})"
            );
        }
    }
}

/// The flag set itself is pinned: exactly the three edit APIs mutate, and
/// every mutating API is confirmation-gated and non-retryable.
#[test]
fn mutation_flags_are_the_expected_set() {
    let reg = registry::standard();
    let mutating: Vec<&str> = reg
        .descriptors()
        .into_iter()
        .filter(|d| d.mutates_graph)
        .map(|d| d.name.as_str())
        .collect();
    assert_eq!(mutating, vec!["add_edges", "relabel_nodes", "remove_edges"]);
    for name in mutating {
        let d = reg.descriptor(name).unwrap();
        assert!(d.requires_confirmation, "{name}: edits must be confirmed");
        assert!(!d.transient_retryable, "{name}: edits are not idempotent");
    }
}
