//! Graph-edit APIs (the mutation half of demo scenario 3).
//!
//! Edit APIs operate on the *session graph* in the execution context and are
//! flagged `requires_confirmation`, so the executor routes them through the
//! monitor before anything is changed.

use super::input_graph;
use crate::descriptor::{ApiCategory, ApiDescriptor, ParamSpec};
use crate::registry::ApiRegistry;
use crate::value::{Value, ValueType};
use chatgraph_graph::io;

/// Registers the edit APIs.
pub fn register(reg: &mut ApiRegistry) {
    use ApiCategory::Edit;
    use ValueType::*;

    reg.register(
        ApiDescriptor::new(
            "remove_edges",
            "remove the given edges from the graph to delete incorrect facts",
            Edit, EdgeList, Number,
        )
        .with_confirmation()
        .with_mutation(),
        Box::new(|ctx, input, _| {
            let edges = input
                .as_edge_list()
                .ok_or("remove_edges expects an edge list")?
                .to_vec();
            let mut removed = 0usize;
            for (s, d, rel) in edges {
                if let Some(e) = ctx.graph.find_edge(s, d) {
                    if ctx.graph.edge_label(e).map(|l| l == rel).unwrap_or(false) {
                        ctx.graph_mut().remove_edge(e).map_err(|e| e.to_string())?;
                        removed += 1;
                    }
                }
            }
            Ok(Value::Number(removed as f64))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "add_edges",
            "add the given edges to the graph to insert missing facts",
            Edit, EdgeList, Number,
        )
        .with_confirmation()
        .with_mutation(),
        Box::new(|ctx, input, _| {
            let edges = input
                .as_edge_list()
                .ok_or("add_edges expects an edge list")?
                .to_vec();
            let mut added = 0usize;
            for (s, d, rel) in edges {
                if ctx.graph.contains_node(s)
                    && ctx.graph.contains_node(d)
                    && ctx.graph.find_edge(s, d).is_none()
                {
                    ctx.graph_mut().add_edge(s, d, rel).map_err(|e| e.to_string())?;
                    added += 1;
                }
            }
            Ok(Value::Number(added as f64))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "relabel_nodes",
            "rename every node with a given label to a new label in the graph",
            Edit, Graph, Number,
        )
        .with_confirmation()
        .with_mutation()
        .with_params([ParamSpec::text("from"), ParamSpec::text("to")]),
        Box::new(|ctx, _input, call| {
            let from = call
                .params
                .get("from")
                .ok_or("relabel_nodes requires a 'from' parameter")?
                .clone();
            let to = call
                .params
                .get("to")
                .ok_or("relabel_nodes requires a 'to' parameter")?
                .clone();
            let targets: Vec<_> = ctx
                .graph
                .node_ids()
                .filter(|&v| ctx.graph.node_label(v).is_ok_and(|l| l == from))
                .collect();
            for &v in &targets {
                ctx.graph_mut()
                    .set_node_label(v, to.clone())
                    .map_err(|e| e.to_string())?;
            }
            Ok(Value::Number(targets.len() as f64))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "export_graph",
            "serialise the cleaned graph to an edge list text file for output",
            Edit, Graph, Text,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            io::to_edge_list(&g).map(Value::Text).map_err(|e| e.to_string())
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ApiCall;
    use crate::executor::ExecContext;
    use crate::registry;
    use chatgraph_graph::GraphBuilder;

    fn ctx() -> ExecContext {
        ExecContext::new(
            GraphBuilder::directed()
                .node("a", "A")
                .node("b", "B")
                .node("c", "C")
                .edge("a", "b", "r")
                .build(),
        )
    }

    #[test]
    fn remove_edges_mutates_session_graph() {
        let reg = registry::standard();
        let mut ctx = ctx();
        let a = ctx.graph.node_ids().next().unwrap();
        let b = ctx.graph.node_ids().nth(1).unwrap();
        let out = reg
            .call(
                "remove_edges",
                &mut ctx,
                Value::EdgeList(vec![(a, b, "r".into())]),
                &ApiCall::new("remove_edges"),
            )
            .unwrap();
        assert_eq!(out.as_number(), Some(1.0));
        assert_eq!(ctx.graph.edge_count(), 0);
    }

    #[test]
    fn remove_edges_skips_label_mismatch() {
        let reg = registry::standard();
        let mut ctx = ctx();
        let a = ctx.graph.node_ids().next().unwrap();
        let b = ctx.graph.node_ids().nth(1).unwrap();
        let out = reg
            .call(
                "remove_edges",
                &mut ctx,
                Value::EdgeList(vec![(a, b, "WRONG".into())]),
                &ApiCall::new("remove_edges"),
            )
            .unwrap();
        assert_eq!(out.as_number(), Some(0.0));
        assert_eq!(ctx.graph.edge_count(), 1);
    }

    #[test]
    fn add_edges_skips_duplicates_and_dead_nodes() {
        let reg = registry::standard();
        let mut ctx = ctx();
        let ids: Vec<_> = ctx.graph.node_ids().collect();
        let out = reg
            .call(
                "add_edges",
                &mut ctx,
                Value::EdgeList(vec![
                    (ids[0], ids[1], "r".into()),                       // duplicate
                    (ids[1], ids[2], "s".into()),                       // new
                    (chatgraph_graph::NodeId(99), ids[2], "t".into()),  // dead src
                ]),
                &ApiCall::new("add_edges"),
            )
            .unwrap();
        assert_eq!(out.as_number(), Some(1.0));
        assert_eq!(ctx.graph.edge_count(), 2);
    }

    #[test]
    fn wrong_input_type_is_rejected() {
        let reg = registry::standard();
        let mut ctx = ctx();
        let err = reg
            .call("remove_edges", &mut ctx, Value::Number(1.0), &ApiCall::new("x"))
            .unwrap_err();
        assert!(err.contains("edge list"));
    }

    #[test]
    fn relabel_nodes_counts_changes() {
        let reg = registry::standard();
        let mut ctx = ctx();
        let out = reg
            .call(
                "relabel_nodes",
                &mut ctx,
                Value::Unit,
                &ApiCall::new("relabel_nodes")
                    .with_param("from", "A")
                    .with_param("to", "Z"),
            )
            .unwrap();
        assert_eq!(out.as_number(), Some(1.0));
        let a = ctx.graph.node_ids().next().unwrap();
        assert_eq!(ctx.graph.node_label(a).unwrap(), "Z");
    }

    #[test]
    fn relabel_requires_params() {
        let reg = registry::standard();
        let mut ctx = ctx();
        assert!(reg
            .call("relabel_nodes", &mut ctx, Value::Unit, &ApiCall::new("x"))
            .is_err());
    }

    #[test]
    fn export_emits_parseable_edge_list() {
        let reg = registry::standard();
        let mut ctx = ctx();
        let out = reg
            .call("export_graph", &mut ctx, Value::Unit, &ApiCall::new("x"))
            .unwrap();
        let text = out.as_text().unwrap();
        let parsed = chatgraph_graph::io::parse_edge_list(text).unwrap();
        assert_eq!(parsed.node_count(), 3);
        assert_eq!(parsed.edge_count(), 1);
    }
}
