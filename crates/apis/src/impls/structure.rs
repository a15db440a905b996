//! Generic structural-analysis APIs.

use super::input_graph;
use crate::descriptor::{ApiCategory, ApiDescriptor};
use crate::registry::ApiRegistry;
use crate::value::{Value, ValueType};
use chatgraph_graph::algo::kcore;
use chatgraph_graph::kernels;
use chatgraph_graph::Graph;

/// Predicts the domain of a graph: `social`, `molecule`, `knowledge`, or
/// `generic`. This is the router of demo scenario 1 ("ChatGraph first
/// predicts the type of G"). Reads the version's [`Graph::label_summary`],
/// so repeated calls on one version cost one label pass in total.
pub fn predict_type(g: &Graph) -> &'static str {
    let s = g.label_summary();
    if !s.has_nodes {
        "generic"
    } else if s.directed_kg_edges {
        "knowledge"
    } else if s.all_elements {
        "molecule"
    } else if s.has_person {
        "social"
    } else {
        "generic"
    }
}

/// Registers the structure APIs.
pub fn register(reg: &mut ApiRegistry) {
    use ApiCategory::Structure;
    use ValueType::*;

    reg.register(
        ApiDescriptor::new(
            "predict_graph_type",
            "predict whether the uploaded graph is a social network, a chemical molecule, a knowledge graph, or generic",
            Structure, Graph, Text,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            Ok(Value::Text(predict_type(&g).to_owned()))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "graph_stats",
            "compute summary statistics of the graph: node and edge counts, density, degrees, components, triangles and clustering",
            Structure, Graph, Table,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            let csr = ctx.kernels.csr(&g);
            let policy = ctx.kernels.policy.clone();
            let s = ctx
                .kernels
                .time("graph_stats", || kernels::graph_stats(&g, &csr, &policy));
            let mut t = crate::value::Table::new(["statistic", "value"]);
            t.push_row(["nodes", &s.nodes.to_string()]);
            t.push_row(["edges", &s.edges.to_string()]);
            t.push_row(["density", &format!("{:.4}", s.density)]);
            t.push_row(["min degree", &s.min_degree.to_string()]);
            t.push_row(["max degree", &s.max_degree.to_string()]);
            t.push_row(["avg degree", &format!("{:.2}", s.avg_degree)]);
            t.push_row(["components", &s.components.to_string()]);
            t.push_row(["largest component", &s.largest_component.to_string()]);
            t.push_row(["triangles", &s.triangles.to_string()]);
            t.push_row(["clustering", &format!("{:.4}", s.clustering)]);
            t.push_row(["distinct labels", &s.distinct_labels.to_string()]);
            Ok(Value::Table(t))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "node_count",
            "count the number of nodes or vertices in the graph",
            Structure, Graph, Number,
        ),
        Box::new(|ctx, input, _| {
            Ok(Value::Number(input_graph(input, ctx).node_count() as f64))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "edge_count",
            "count the number of edges or links in the graph",
            Structure, Graph, Number,
        ),
        Box::new(|ctx, input, _| {
            Ok(Value::Number(input_graph(input, ctx).edge_count() as f64))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "graph_density",
            "compute the edge density of the graph as a fraction of possible edges",
            Structure, Graph, Number,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            let csr = ctx.kernels.csr(&g);
            let (n, m) = (csr.n(), csr.m());
            let possible = if csr.is_directed() {
                n.saturating_mul(n.saturating_sub(1))
            } else {
                n.saturating_mul(n.saturating_sub(1)) / 2
            };
            Ok(Value::Number(if possible == 0 {
                0.0
            } else {
                m as f64 / possible as f64
            }))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "graph_diameter",
            "compute the diameter, the longest shortest path between any two nodes",
            Structure, Graph, Number,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            let csr = ctx.kernels.csr(&g);
            let policy = ctx.kernels.policy.clone();
            let d = ctx
                .kernels
                .time("diameter", || kernels::diameter(&csr, &policy));
            Ok(Value::Number(d.map(|d| d as f64).unwrap_or(f64::NAN)))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "average_path_length",
            "compute the average shortest path length between reachable node pairs",
            Structure, Graph, Number,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            let csr = ctx.kernels.csr(&g);
            let policy = ctx.kernels.policy.clone();
            let apl = ctx.kernels.time("average_path_length", || {
                kernels::average_path_length(&csr, &policy)
            });
            Ok(Value::Number(apl.unwrap_or(f64::NAN)))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "clustering_coefficient",
            "compute the global clustering coefficient or transitivity of the graph",
            Structure, Graph, Number,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            let csr = ctx.kernels.csr(&g);
            let policy = ctx.kernels.policy.clone();
            Ok(Value::Number(ctx.kernels.time("clustering", || {
                kernels::global_clustering_coefficient(&csr, &policy)
            })))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "triangle_count",
            "count the number of triangles in the graph",
            Structure, Graph, Number,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            let csr = ctx.kernels.csr(&g);
            let policy = ctx.kernels.policy.clone();
            Ok(Value::Number(ctx.kernels.time("triangle_count", || {
                kernels::triangle_count(&csr, &policy) as f64
            })))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "connected_components",
            "count the connected components of the graph",
            Structure, Graph, Number,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            let csr = ctx.kernels.csr(&g);
            let policy = ctx.kernels.policy.clone();
            Ok(Value::Number(ctx.kernels.time("components", || {
                kernels::connected_components(&csr, &policy).count as f64
            })))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "is_connected",
            "check whether the graph is connected so every node can reach every other",
            Structure, Graph, Bool,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            let csr = ctx.kernels.csr(&g);
            let policy = ctx.kernels.policy.clone();
            Ok(Value::Bool(ctx.kernels.time("components", || {
                kernels::is_connected(&csr, &policy)
            })))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "largest_component",
            "extract the largest connected component as a new graph",
            Structure, Graph, Graph,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            let csr = ctx.kernels.csr(&g);
            let policy = ctx.kernels.policy.clone();
            let cc = ctx.kernels.time("components", || {
                kernels::connected_components(&csr, &policy)
            });
            let largest = cc
                .groups()
                .into_iter()
                .max_by_key(|grp| grp.len())
                .unwrap_or_default();
            let (sub, _) = g.induced_subgraph(&largest);
            Ok(Value::Graph(std::sync::Arc::new(sub)))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "degree_histogram",
            "compute the degree distribution histogram of the graph",
            Structure, Graph, Table,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            let h = kernels::degree_histogram(&ctx.kernels.csr(&g));
            let mut t = crate::value::Table::new(["degree", "nodes"]);
            for (d, c) in h.iter().enumerate().filter(|(_, c)| **c > 0) {
                t.push_row([d.to_string(), c.to_string()]);
            }
            Ok(Value::Table(t))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "kcore_decomposition",
            "compute the k-core decomposition assigning each node its core number",
            Structure, Graph, Table,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            let cores = kcore::core_numbers(&g);
            let mut counts: std::collections::BTreeMap<usize, usize> = Default::default();
            for c in cores.into_iter().flatten() {
                *counts.entry(c).or_default() += 1;
            }
            let mut t = crate::value::Table::new(["core", "nodes"]);
            for (k, c) in counts {
                t.push_row([k.to_string(), c.to_string()]);
            }
            Ok(Value::Table(t))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "graph_degeneracy",
            "compute the degeneracy, the maximum core number of the graph",
            Structure, Graph, Number,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            Ok(Value::Number(kcore::degeneracy(&g) as f64))
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ApiCall;
    use crate::executor::ExecContext;
    use crate::registry;
    use chatgraph_graph::generators::{
        knowledge_graph, molecule, social_network, KgParams, MoleculeParams, SocialParams,
        RELATION_SCHEMA,
    };
    use chatgraph_graph::GraphBuilder;

    fn call(reg: &registry::ApiRegistry, name: &str, g: Graph) -> Value {
        let mut ctx = ExecContext::new(g);
        reg.call(name, &mut ctx, Value::Unit, &ApiCall::new(name)).unwrap()
    }

    #[test]
    fn classifier_recognises_all_families() {
        assert_eq!(
            predict_type(&molecule(&MoleculeParams::default(), 1)),
            "molecule"
        );
        assert_eq!(
            predict_type(&social_network(&SocialParams::default(), 1)),
            "social"
        );
        assert_eq!(
            predict_type(&knowledge_graph(&KgParams::default(), 1)),
            "knowledge"
        );
        let generic = GraphBuilder::undirected().edge("x", "y", "-").build();
        assert_eq!(predict_type(&generic), "generic");
        assert_eq!(predict_type(&Graph::undirected()), "generic");
    }

    /// The classifier over a label histogram and an edge scan, as it was
    /// before it read the version's label summary.
    fn reference_predict_type(g: &Graph) -> &'static str {
        use chatgraph_graph::derived::ELEMENT_SYMBOLS;
        let hist = g.label_histogram();
        if hist.is_empty() {
            return "generic";
        }
        let has_kg_edges = g
            .edge_ids()
            .any(|e| g.edge_label(e).is_ok_and(|l| RELATION_SCHEMA.iter().any(|r| r.0 == l)));
        if g.is_directed() && has_kg_edges {
            return "knowledge";
        }
        if hist.iter().all(|(l, _)| ELEMENT_SYMBOLS.contains(&l.as_str())) {
            return "molecule";
        }
        if hist.iter().any(|(l, _)| l == "Person" || l == "User") {
            return "social";
        }
        "generic"
    }

    #[test]
    fn classifier_matches_the_histogram_reference_across_edits() {
        let mut graphs = vec![
            molecule(&MoleculeParams::default(), 2),
            social_network(&SocialParams::default(), 2),
            knowledge_graph(&KgParams::default(), 2),
            GraphBuilder::directed().node("a", "Person").node("b", "City").edge("a", "b", "-").build(),
            GraphBuilder::undirected().node("a", "C").node("b", "User").edge("a", "b", "-").build(),
        ];
        for g in &mut graphs {
            let first = g.node_ids().next().unwrap();
            for step in 0..6 {
                assert_eq!(predict_type(g), reference_predict_type(g), "step {step}");
                match step {
                    0 => g.set_node_label(first, "Person").unwrap(),
                    1 => g.set_node_label(first, "O").unwrap(),
                    2 => {
                        let e = g.edge_ids().next().unwrap();
                        g.set_edge_label(e, RELATION_SCHEMA[0].0).unwrap();
                    }
                    3 => {
                        for e in g.edge_ids().collect::<Vec<_>>() {
                            g.set_edge_label(e, "-").unwrap();
                        }
                    }
                    _ => {
                        for v in g.node_ids().collect::<Vec<_>>() {
                            g.remove_node(v).unwrap();
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn counts_and_flags() {
        let reg = registry::standard();
        let g = GraphBuilder::undirected()
            .edge("a", "b", "-")
            .edge("b", "c", "-")
            .build();
        assert_eq!(call(&reg, "node_count", g.clone()).as_number(), Some(3.0));
        assert_eq!(call(&reg, "edge_count", g.clone()).as_number(), Some(2.0));
        assert_eq!(call(&reg, "graph_diameter", g.clone()).as_number(), Some(2.0));
        assert_eq!(call(&reg, "triangle_count", g.clone()).as_number(), Some(0.0));
        assert_eq!(call(&reg, "is_connected", g.clone()), Value::Bool(true));
        assert_eq!(call(&reg, "graph_degeneracy", g).as_number(), Some(1.0));
    }

    #[test]
    fn stats_table_contains_all_rows() {
        let reg = registry::standard();
        let g = social_network(&SocialParams::default(), 2);
        let t = call(&reg, "graph_stats", g);
        let t = t.as_table().unwrap();
        assert_eq!(t.rows.len(), 11);
        assert_eq!(t.headers, vec!["statistic", "value"]);
    }

    #[test]
    fn largest_component_extraction() {
        let reg = registry::standard();
        let g = GraphBuilder::undirected()
            .edge("a", "b", "-")
            .edge("b", "c", "-")
            .edge("x", "y", "-")
            .build();
        let out = call(&reg, "largest_component", g);
        match out {
            Value::Graph(sub) => assert_eq!(sub.node_count(), 3),
            other => panic!("expected graph, got {other:?}"),
        }
    }

    #[test]
    fn empty_graph_diameter_is_nan() {
        let reg = registry::standard();
        let out = call(&reg, "graph_diameter", Graph::undirected());
        assert!(out.as_number().unwrap().is_nan());
    }

    #[test]
    fn degree_histogram_skips_empty_bins() {
        let reg = registry::standard();
        let g = GraphBuilder::undirected()
            .edge("c", "a", "-")
            .edge("c", "b", "-")
            .build();
        let out = call(&reg, "degree_histogram", g);
        let t = out.as_table().unwrap();
        // degrees present: 1 (two nodes) and 2 (one node); no 0 row
        assert_eq!(t.rows.len(), 2);
    }
}
