//! Social-network analysis APIs (demo scenario 1's social branch).

use super::input_graph;
use crate::descriptor::{ApiCategory, ApiDescriptor, ParamSpec};
use crate::registry::ApiRegistry;
use crate::value::{Value, ValueType};
use chatgraph_graph::algo::{bridges, centrality, community};
use chatgraph_graph::kernels;
use chatgraph_graph::Graph;

fn name_of(g: &Graph, v: chatgraph_graph::NodeId) -> String {
    g.node_attrs(v)
        .ok()
        .and_then(|a| a.get("name"))
        .and_then(|x| x.as_text().map(str::to_owned))
        .unwrap_or_else(|| v.to_string())
}

fn top_table(g: &Graph, scores: &[f64], k: usize, score_name: &str) -> crate::value::Table {
    let mut t = crate::value::Table::new(["rank", "node", score_name]);
    for (rank, (v, s)) in centrality::top_k(g, scores, k).into_iter().enumerate() {
        t.push_row([
            (rank + 1).to_string(),
            name_of(g, v),
            format!("{s:.4}"),
        ]);
    }
    t
}

/// Registers the social APIs.
pub fn register(reg: &mut ApiRegistry) {
    use ApiCategory::Social;
    use ValueType::*;

    reg.register(
        ApiDescriptor::new(
            "detect_communities",
            "detect the communities or groups of a social network using label propagation",
            Social, Graph, Table,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            let comms = community::label_propagation(&g, ctx.seed);
            let mut t = crate::value::Table::new(["community", "size", "sample members"]);
            for (i, grp) in comms.groups().iter().enumerate() {
                let sample: Vec<String> = grp.iter().take(3).map(|&v| name_of(&g, v)).collect();
                t.push_row([i.to_string(), grp.len().to_string(), sample.join(", ")]);
            }
            Ok(Value::Table(t))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "community_count",
            "count how many communities the social network contains",
            Social, Graph, Number,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            Ok(Value::Number(
                community::label_propagation(&g, ctx.seed).num_communities() as f64,
            ))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "modularity_score",
            "measure the modularity quality of the detected community structure",
            Social, Graph, Number,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            let comms = community::label_propagation(&g, ctx.seed);
            Ok(Value::Number(community::modularity(&g, &comms)))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "top_pagerank",
            "rank the most important or influential nodes by pagerank score",
            Social, Graph, Table,
        )
        .with_params([ParamSpec::int("k", 1, 100, 5)]),
        Box::new(|ctx, input, call| {
            let g = input_graph(input, ctx);
            let k = call.try_param_usize("k", 5)?;
            let csr = ctx.kernels.csr(&g);
            let policy = ctx.kernels.policy.clone();
            let pr = ctx
                .kernels
                .time("pagerank", || kernels::pagerank(&csr, 0.85, 50, &policy));
            Ok(Value::Table(top_table(&g, &pr, k, "pagerank")))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "top_betweenness",
            "find bridge or broker nodes with the highest betweenness centrality",
            Social, Graph, Table,
        )
        .with_params([ParamSpec::int("k", 1, 100, 5)]),
        Box::new(|ctx, input, call| {
            let g = input_graph(input, ctx);
            let k = call.try_param_usize("k", 5)?;
            let bc = centrality::betweenness(&g);
            Ok(Value::Table(top_table(&g, &bc, k, "betweenness")))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "top_degree",
            "list the nodes with the most connections by degree centrality",
            Social, Graph, Table,
        )
        .with_params([ParamSpec::int("k", 1, 100, 5)]),
        Box::new(|ctx, input, call| {
            let g = input_graph(input, ctx);
            let k = call.try_param_usize("k", 5)?;
            let dc = centrality::degree_centrality(&g);
            Ok(Value::Table(top_table(&g, &dc, k, "degree centrality")))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "find_influencers",
            "identify influencer nodes combining degree and pagerank importance",
            Social, Graph, NodeList,
        )
        .with_params([ParamSpec::int("k", 1, 100, 5)]),
        Box::new(|ctx, input, call| {
            let g = input_graph(input, ctx);
            let k = call.try_param_usize("k", 5)?;
            let csr = ctx.kernels.csr(&g);
            let policy = ctx.kernels.policy.clone();
            let pr = ctx
                .kernels
                .time("pagerank", || kernels::pagerank(&csr, 0.85, 50, &policy));
            Ok(Value::NodeList(
                centrality::top_k(&g, &pr, k).into_iter().map(|(v, _)| v).collect(),
            ))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "top_closeness",
            "rank the most central nodes by closeness to everyone else",
            Social, Graph, Table,
        )
        .with_params([ParamSpec::int("k", 1, 100, 5)]),
        Box::new(|ctx, input, call| {
            let g = input_graph(input, ctx);
            let k = call.try_param_usize("k", 5)?;
            let csr = ctx.kernels.csr(&g);
            let policy = ctx.kernels.policy.clone();
            let cc = ctx
                .kernels
                .time("closeness", || kernels::closeness(&csr, &policy));
            Ok(Value::Table(top_table(&g, &cc, k, "closeness")))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "find_bridges",
            "find the weak link edges whose removal would disconnect parts of the network",
            Social, Graph, Table,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            let bs = bridges::bridges(&g);
            let mut t = crate::value::Table::new(["from", "to"]);
            for e in bs {
                let (a, b) = g.edge_endpoints(e).map_err(|e| e.to_string())?;
                t.push_row([name_of(&g, a), name_of(&g, b)]);
            }
            Ok(Value::Table(t))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "articulation_points",
            "find the cut nodes whose removal would disconnect the network",
            Social, Graph, NodeList,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            Ok(Value::NodeList(bridges::articulation_points(&g)))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "connectivity_report",
            "analyse the connectivity of the network: components, largest component size, diameter and average path length",
            Social, Graph, Table,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            let csr = ctx.kernels.csr(&g);
            let policy = ctx.kernels.policy.clone();
            let (cc, diam, apl) = ctx.kernels.time("connectivity", || {
                (
                    kernels::connected_components(&csr, &policy),
                    kernels::diameter(&csr, &policy),
                    kernels::average_path_length(&csr, &policy),
                )
            });
            let mut t = crate::value::Table::new(["metric", "value"]);
            t.push_row(["components", &cc.count.to_string()]);
            t.push_row(["largest component", &cc.largest_size().to_string()]);
            t.push_row([
                "connected",
                if cc.count <= 1 { "yes" } else { "no" },
            ]);
            t.push_row([
                "diameter",
                &diam.map(|d| d.to_string()).unwrap_or_else(|| "n/a".into()),
            ]);
            t.push_row([
                "avg path length",
                &apl.map(|d| format!("{d:.2}")).unwrap_or_else(|| "n/a".into()),
            ]);
            Ok(Value::Table(t))
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ApiCall;
    use crate::executor::ExecContext;
    use crate::registry;
    use chatgraph_graph::generators::{social_network, SocialParams};

    fn run(name: &str, call: ApiCall) -> Value {
        let reg = registry::standard();
        let g = social_network(&SocialParams::default(), 5);
        let mut ctx = ExecContext::new(g).with_seed(5);
        reg.call(name, &mut ctx, Value::Unit, &call).unwrap()
    }

    #[test]
    fn community_detection_finds_planted_structure() {
        let out = run("detect_communities", ApiCall::new("detect_communities"));
        let t = out.as_table().unwrap();
        assert!(t.rows.len() >= 3, "{t:?}");
        // Largest community should be around the planted size of 30.
        let largest: usize = t.rows[0][1].parse().unwrap();
        assert!((15..=60).contains(&largest), "largest = {largest}");
        let count = run("community_count", ApiCall::new("community_count"));
        assert!(count.as_number().unwrap() >= 3.0);
    }

    #[test]
    fn modularity_is_positive_on_planted_graph() {
        let out = run("modularity_score", ApiCall::new("modularity_score"));
        assert!(out.as_number().unwrap() > 0.2);
    }

    #[test]
    fn top_k_tables_respect_k() {
        for api in ["top_pagerank", "top_betweenness", "top_degree"] {
            let out = run(api, ApiCall::new(api).with_param("k", "3"));
            assert_eq!(out.as_table().unwrap().rows.len(), 3, "{api}");
        }
    }

    #[test]
    fn influencer_list_is_node_list() {
        let out = run("find_influencers", ApiCall::new("find_influencers").with_param("k", "4"));
        match out {
            Value::NodeList(ns) => assert_eq!(ns.len(), 4),
            other => panic!("expected node list, got {other:?}"),
        }
    }

    #[test]
    fn closeness_table_respects_k() {
        let out = run("top_closeness", ApiCall::new("top_closeness").with_param("k", "2"));
        assert_eq!(out.as_table().unwrap().rows.len(), 2);
    }

    #[test]
    fn bridges_and_articulation_on_barbell() {
        use chatgraph_graph::GraphBuilder;
        let reg = registry::standard();
        let g = GraphBuilder::undirected()
            .edge("a", "b", "-").edge("b", "c", "-").edge("c", "a", "-")
            .edge("c", "d", "-")
            .edge("d", "e", "-").edge("e", "f", "-").edge("f", "d", "-")
            .build();
        let mut ctx = ExecContext::new(g);
        let out = reg
            .call("find_bridges", &mut ctx, Value::Unit, &ApiCall::new("x"))
            .unwrap();
        assert_eq!(out.as_table().unwrap().rows.len(), 1);
        let pts = reg
            .call("articulation_points", &mut ctx, Value::Unit, &ApiCall::new("x"))
            .unwrap();
        match pts {
            Value::NodeList(ns) => assert_eq!(ns.len(), 2),
            other => panic!("expected node list, got {other:?}"),
        }
    }

    #[test]
    fn connectivity_report_has_five_metrics() {
        let out = run("connectivity_report", ApiCall::new("connectivity_report"));
        assert_eq!(out.as_table().unwrap().rows.len(), 5);
    }

    #[test]
    fn names_are_used_when_available() {
        let out = run("top_degree", ApiCall::new("top_degree").with_param("k", "1"));
        let t = out.as_table().unwrap();
        assert!(t.rows[0][1].starts_with("user"), "{:?}", t.rows[0]);
    }
}
