//! Graph comparison / similarity-search APIs (demo scenario 2).
//!
//! "What molecules are similar to G" → GED-based search over the molecule
//! database attached to the execution context; the paper's Fig. 5 outputs the
//! top-2 similar molecules.

use super::input_graph;
use crate::descriptor::{ApiCategory, ApiDescriptor, ParamSpec};
use crate::registry::ApiRegistry;
use crate::value::{Value, ValueType};
use chatgraph_ged::{approx_ged, exact_ged_with_limit, CostModel, GedProfile};
use chatgraph_graph::algo::isomorphism::{find_embeddings, IsoOptions};
use chatgraph_graph::{io, Graph};

/// Scores the database against `query`, returning `(index, distance)`
/// ascending. Distance is the bipartite GED upper bound normalised by the
/// combined size, so different-sized molecules are comparable. Each graph's
/// GED profile is built once per version ([`GedProfile::of`]), so a
/// database attached to many requests profiles its graphs once.
pub fn rank_database(query: &Graph, database: &[Graph]) -> Vec<(usize, f64)> {
    let cost = CostModel::uniform();
    let query_n = GedProfile::of(query).len();
    let mut scored: Vec<(usize, f64)> = database
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let ged = approx_ged(query, g, &cost).upper_bound;
            (i, ged / (query_n + g.node_count()).max(1) as f64)
        })
        .collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    scored
}

/// Registers the similarity APIs.
pub fn register(reg: &mut ApiRegistry) {
    use ApiCategory::Similarity;
    use ValueType::*;

    reg.register(
        ApiDescriptor::new(
            "similarity_search",
            "search the molecule database for the graphs most similar to the query graph",
            Similarity, Graph, Table,
        )
        .with_params([ParamSpec::int("k", 1, 100, 2)]),
        Box::new(|ctx, input, call| {
            let g = input_graph(input, ctx);
            if ctx.database.is_empty() {
                return Err("similarity_search requires a graph database in the context".into());
            }
            let k = call.try_param_usize("k", 2)?;
            let ranked = ctx.kernels.time("ged_rank", || rank_database(&g, &ctx.database));
            let mut t = crate::value::Table::new(["rank", "graph", "nodes", "normalised GED"]);
            for (rank, (i, d)) in ranked.into_iter().take(k).enumerate() {
                t.push_row([
                    (rank + 1).to_string(),
                    ctx.database[i].name().to_owned(),
                    ctx.database[i].node_count().to_string(),
                    format!("{d:.4}"),
                ]);
            }
            Ok(Value::Table(t))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "most_similar_graph",
            "retrieve the single most similar graph from the database as a graph",
            Similarity, Graph, Graph,
        ),
        Box::new(|ctx, input, _| {
            let g = input_graph(input, ctx);
            if ctx.database.is_empty() {
                return Err("most_similar_graph requires a graph database in the context".into());
            }
            let best = ctx.kernels.time("ged_rank", || rank_database(&g, &ctx.database))[0].0;
            Ok(Value::Graph(std::sync::Arc::new(ctx.database[best].clone())))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "graph_edit_distance",
            "compute the graph edit distance between the query graph and a database graph",
            Similarity, Graph, Number,
        )
        .with_params([ParamSpec::int("target", 0, 9999, 0)]),
        Box::new(|ctx, input, call| {
            let g = input_graph(input, ctx);
            let target = call.try_param_usize("target", 0)?;
            let other = ctx
                .database
                .get(target)
                .ok_or_else(|| format!("database has no graph at index {target}"))?;
            Ok(Value::Number(
                approx_ged(&g, other, &CostModel::uniform()).upper_bound,
            ))
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "graph_edit_distance_exact",
            "compute the exact graph edit distance to a database graph for small molecules",
            Similarity, Graph, Number,
        )
        .with_params([
            ParamSpec::int("target", 0, 9999, 0),
            ParamSpec::int("budget", 1, 100_000_000, 200_000),
        ]),
        Box::new(|ctx, input, call| {
            let g = input_graph(input, ctx);
            let target = call.try_param_usize("target", 0)?;
            let budget = call.try_param_usize("budget", 200_000)?;
            let other = ctx
                .database
                .get(target)
                .ok_or_else(|| format!("database has no graph at index {target}"))?;
            exact_ged_with_limit(&g, other, &CostModel::uniform(), budget)
                .map(Value::Number)
                .ok_or_else(|| {
                    "exact GED exceeded its search budget; use graph_edit_distance instead".into()
                })
        }),
    );

    reg.register(
        ApiDescriptor::new(
            "count_pattern_matches",
            "count occurrences of a structural pattern subgraph inside the graph",
            Similarity, Graph, Number,
        )
        .with_params([ParamSpec::text("pattern")]),
        Box::new(|ctx, input, call| {
            let g = input_graph(input, ctx);
            let pattern_text = call
                .params
                .get("pattern")
                .ok_or("count_pattern_matches requires a 'pattern' parameter (edge-list text)")?;
            let pattern = io::parse_edge_list(&pattern_text.replace(';', "\n"))
                .map_err(|e| format!("bad pattern: {e}"))?;
            let embeddings = find_embeddings(&pattern, &g, &IsoOptions::default());
            Ok(Value::Number(embeddings.len() as f64))
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ApiCall;
    use crate::executor::ExecContext;
    use crate::registry;
    use chatgraph_graph::generators::{molecule, molecule_database, MoleculeParams};

    fn db_ctx() -> ExecContext {
        let db = molecule_database(20, &MoleculeParams::default(), 77);
        // Query: an exact copy of db molecule 7, so rank 1 is known.
        let query = db[7].clone();
        ExecContext::new(query).with_database(db)
    }

    #[test]
    fn identical_molecule_ranks_first() {
        let reg = registry::standard();
        let mut ctx = db_ctx();
        let out = reg
            .call(
                "similarity_search",
                &mut ctx,
                Value::Unit,
                &ApiCall::new("similarity_search").with_param("k", "2"),
            )
            .unwrap();
        let t = out.as_table().unwrap();
        assert_eq!(t.rows.len(), 2, "paper's Fig. 5 outputs the top two");
        assert_eq!(t.rows[0][1], "db-mol-7");
        assert_eq!(t.rows[0][3], "0.0000");
    }

    #[test]
    fn most_similar_graph_returns_graph() {
        let reg = registry::standard();
        let mut ctx = db_ctx();
        let out = reg
            .call("most_similar_graph", &mut ctx, Value::Unit, &ApiCall::new("x"))
            .unwrap();
        match out {
            Value::Graph(g) => assert_eq!(g.name(), "db-mol-7"),
            other => panic!("expected graph, got {other:?}"),
        }
    }

    #[test]
    fn empty_database_is_an_error() {
        let reg = registry::standard();
        let mut ctx = ExecContext::new(molecule(&MoleculeParams::default(), 1));
        let err = reg
            .call("similarity_search", &mut ctx, Value::Unit, &ApiCall::new("x"))
            .unwrap_err();
        assert!(err.contains("database"));
    }

    #[test]
    fn ged_to_self_is_zero() {
        let reg = registry::standard();
        let mut ctx = db_ctx();
        let out = reg
            .call(
                "graph_edit_distance",
                &mut ctx,
                Value::Unit,
                &ApiCall::new("x").with_param("target", "7"),
            )
            .unwrap();
        assert_eq!(out.as_number(), Some(0.0));
    }

    #[test]
    fn ged_out_of_range_target_errors() {
        let reg = registry::standard();
        let mut ctx = db_ctx();
        let err = reg
            .call(
                "graph_edit_distance",
                &mut ctx,
                Value::Unit,
                &ApiCall::new("x").with_param("target", "999"),
            )
            .unwrap_err();
        assert!(err.contains("999"));
    }

    #[test]
    fn exact_ged_matches_approx_on_identity() {
        let reg = registry::standard();
        let mut ctx = db_ctx();
        let out = reg
            .call(
                "graph_edit_distance_exact",
                &mut ctx,
                Value::Unit,
                &ApiCall::new("x").with_param("target", "7"),
            )
            .unwrap();
        assert_eq!(out.as_number(), Some(0.0));
    }

    #[test]
    fn exact_ged_budget_exhaustion_is_an_error() {
        let reg = registry::standard();
        let mut ctx = db_ctx();
        let err = reg
            .call(
                "graph_edit_distance_exact",
                &mut ctx,
                Value::Unit,
                &ApiCall::new("x").with_param("target", "3").with_param("budget", "1"),
            )
            .unwrap_err();
        assert!(err.contains("budget"));
    }

    #[test]
    fn pattern_matching_counts_embeddings() {
        let reg = registry::standard();
        let g = chatgraph_graph::GraphBuilder::undirected()
            .node("a", "C").node("b", "O").node("c", "C")
            .edge("a", "b", "single")
            .edge("b", "c", "single")
            .build();
        let mut ctx = ExecContext::new(g);
        let out = reg
            .call(
                "count_pattern_matches",
                &mut ctx,
                Value::Unit,
                &ApiCall::new("x").with_param("pattern", "node 0 C;node 1 O;edge 0 1 b"),
            )
            .unwrap();
        assert_eq!(out.as_number(), Some(2.0));
    }

    #[test]
    fn missing_pattern_param_errors() {
        let reg = registry::standard();
        let mut ctx = db_ctx();
        let err = reg
            .call("count_pattern_matches", &mut ctx, Value::Unit, &ApiCall::new("x"))
            .unwrap_err();
        assert!(err.contains("pattern"));
    }

    #[test]
    fn parallel_ranking_matches_sequential_reference() {
        let db = molecule_database(23, &MoleculeParams::default(), 5);
        let q = molecule(&MoleculeParams::default(), 61);
        let ranked = rank_database(&q, &db);
        // Reference computed inline, with the query size read per candidate.
        let cost = chatgraph_ged::CostModel::uniform();
        let mut reference: Vec<(usize, f64)> = db
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let ged = chatgraph_ged::approx_ged(&q, g, &cost).upper_bound;
                (i, ged / (q.node_count() + g.node_count()).max(1) as f64)
            })
            .collect();
        reference.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        assert_eq!(ranked, reference);
    }

    #[test]
    fn ranking_is_size_normalised() {
        // A tiny query should not automatically rank tiny DB graphs first on
        // raw GED alone; normalisation keeps scores in [0, 1]-ish range.
        let db = molecule_database(10, &MoleculeParams::default(), 3);
        let q = molecule(&MoleculeParams { atoms: 8, rings: 1, double_bond_prob: 0.1 }, 99);
        for (_, d) in rank_database(&q, &db) {
            // Nodes are normalised away; edges can push the ratio above 1,
            // but it stays bounded by the max edges-per-node of molecules.
            assert!((0.0..=3.0).contains(&d), "normalised distance out of range: {d}");
        }
    }
}
