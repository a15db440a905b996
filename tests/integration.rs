//! Cross-crate integration tests: each test exercises a pipeline spanning
//! several crates, complementing the per-module unit tests.

use chatgraph::apis::{
    execute_chain, registry, ApiCall, ApiChain, ChainError, CollectingMonitor, ExecContext,
    SilentMonitor, Value,
};
use chatgraph::core::config::ChatGraphConfig;
use chatgraph::core::generation::candidate_apis;
use chatgraph::core::{
    evaluate, finetune, generate_corpus, ApiRetriever, ChainGenerator, CorpusParams,
    FinetuneMethod, GraphAwareLm,
};
use chatgraph::ged::{approx_ged, matching_loss, CostModel};
use chatgraph::graph::generators::{
    corrupt_kg, knowledge_graph, molecule, molecule_database, social_network, KgParams,
    MoleculeParams, SocialParams,
};
use chatgraph::graph::{io, Graph};
use chatgraph::sequencer::{sequentialize, CoverParams};

/// Graph → edge-list text → graph → JSON → graph survives with identical
/// structure and still sequentialises identically.
#[test]
fn serialisation_roundtrip_preserves_sequentialisation() {
    let g = molecule(&MoleculeParams::default(), 5);
    let text = io::to_edge_list(&g).unwrap();
    let g2 = io::parse_edge_list(&text).unwrap();
    let g3 = io::from_json(&io::to_json(&g2)).unwrap();
    let params = CoverParams::default();
    assert_eq!(
        sequentialize(&g, &params, true),
        sequentialize(&g3, &params, true)
    );
}

/// An executed cleaning chain leaves a KG whose inference APIs find nothing
/// further to fix (a fixpoint check across apis + graph crates).
#[test]
fn cleaning_chain_reaches_fixpoint() {
    let mut g = knowledge_graph(&KgParams::default(), 77);
    corrupt_kg(&mut g, 0.12, 0.08, 77);
    let reg = registry::standard();
    let chain = ApiChain::from_names([
        "detect_incorrect_edges",
        "remove_edges",
        "detect_missing_edges",
        "add_edges",
    ]);
    let mut ctx = ExecContext::new(g);
    execute_chain(&reg, &chain, &mut ctx, &mut SilentMonitor).unwrap();
    // Second pass must detect nothing.
    let mut ctx2 = ExecContext::new(ctx.graph.clone());
    let wrong = execute_chain(
        &reg,
        &ApiChain::from_names(["detect_incorrect_edges"]),
        &mut ctx2,
        &mut SilentMonitor,
    )
    .unwrap();
    assert_eq!(wrong.as_edge_list().unwrap().len(), 0);
    let missing = execute_chain(
        &reg,
        &ApiChain::from_names(["detect_missing_edges"]),
        &mut ctx2,
        &mut SilentMonitor,
    )
    .unwrap();
    assert_eq!(missing.as_edge_list().unwrap().len(), 0);
}

/// Similarity search run through the executor agrees with calling the GED
/// crate directly.
#[test]
fn similarity_search_matches_direct_ged_ranking() {
    let db = molecule_database(12, &MoleculeParams::default(), 9);
    let query = db[3].clone();
    let reg = registry::standard();
    let mut ctx = ExecContext::new(query.clone()).with_database(db.clone());
    let out = execute_chain(
        &reg,
        &ApiChain {
            steps: vec![ApiCall::new("similarity_search").with_param("k", "1")],
        },
        &mut ctx,
        &mut SilentMonitor,
    )
    .unwrap();
    let table = out.as_table().unwrap();
    assert_eq!(table.rows[0][1], "db-mol-3");
    // Direct check: GED of query to db-mol-3 is zero.
    let ged = approx_ged(&query, &db[3], &CostModel::uniform());
    assert_eq!(ged.upper_bound, 0.0);
}

/// Chains that execute edit APIs require confirmation; rejecting stops the
/// run before any mutation.
#[test]
fn rejected_confirmation_leaves_graph_untouched() {
    let mut g = knowledge_graph(&KgParams::default(), 3);
    corrupt_kg(&mut g, 0.1, 0.0, 3);
    let edges_before = g.edge_count();
    let reg = registry::standard();
    let chain = ApiChain::from_names(["detect_incorrect_edges", "remove_edges"]);
    let mut ctx = ExecContext::new(g);
    let mut monitor = CollectingMonitor::with_answers([false]);
    let err = execute_chain(&reg, &chain, &mut ctx, &mut monitor).unwrap_err();
    assert!(matches!(err, ChainError::Rejected(1, _)));
    assert_eq!(ctx.graph.edge_count(), edges_before);
}

/// The full retrieval → generation → execution loop works for an untrained
/// model too (it just produces a poorer chain) — nothing panics anywhere in
/// the stack.
#[test]
fn untrained_end_to_end_is_robust() {
    let config = ChatGraphConfig::default();
    let reg = registry::standard();
    let retriever = ApiRetriever::build(&reg, &config.retrieval);
    let lm = GraphAwareLm::new(&reg, &config);
    let generator = ChainGenerator::default();
    let g = social_network(&SocialParams::default(), 1);
    let candidates = candidate_apis(&reg, &retriever, "tell me about G", Some(&g));
    let chain = generator.generate_greedy_checked(&lm, &reg, "tell me about G", Some(&g), &candidates);
    if !chain.is_empty() {
        let mut ctx = ExecContext::new(g);
        // Edit APIs would ask for confirmation; answer yes and accept
        // whatever happens short of a panic.
        let _ = execute_chain(&reg, &chain, &mut ctx, &mut CollectingMonitor::new());
    }
}

/// Finetuning transfers across graph *sizes*: train on small graphs,
/// evaluate on demo-sized ones.
#[test]
fn finetuning_transfers_to_larger_graphs() {
    let mut config = ChatGraphConfig::default();
    config.finetune.rollouts = 2;
    let reg = registry::standard();
    let retriever = ApiRetriever::build(&reg, &config.retrieval);
    let mut lm = GraphAwareLm::new(&reg, &config);
    let train_set = generate_corpus(&CorpusParams { size: 128, small_graphs: true }, 51);
    finetune(&mut lm, &reg, &retriever, &train_set, FinetuneMethod::Full, &config);
    let test_set = generate_corpus(&CorpusParams { size: 32, small_graphs: false }, 52);
    let eval = evaluate(&lm, &reg, &retriever, &test_set, &config);
    assert!(
        eval.exact_match >= 0.5,
        "size transfer should hold: {eval:?}"
    );
}

/// The matching loss of a generated-vs-truth chain is consistent with the
/// chains' graph encodings (cross-check apis::ApiChain with ged).
#[test]
fn chain_graph_encoding_and_loss_agree() {
    let truth = ApiChain::from_names(["a", "b", "c"]);
    let reversed = ApiChain::from_names(["c", "b", "a"]);
    let truth_g = truth.to_graph().unwrap();
    let same = matching_loss(&truth_g, &truth_g, 0.5, &CostModel::uniform());
    assert_eq!(same.total, 0.0);
    let rev = matching_loss(&reversed.to_graph().unwrap(), &truth_g, 0.5, &CostModel::uniform());
    assert!(
        rev.total > 0.0,
        "direction must matter for chain comparison: {rev:?}"
    );
}

/// Every API in the standard registry executes against a suitable graph
/// without panicking (smoke across the whole catalogue).
#[test]
fn every_api_is_executable() {
    let reg = registry::standard();
    let db = molecule_database(4, &MoleculeParams::default(), 2);
    let tiny = MoleculeParams { atoms: 6, rings: 1, double_bond_prob: 0.1 };
    for desc in reg.descriptors() {
        let graph: Graph = match desc.category {
            // Exact GED is exponential; exercise it on a small molecule.
            _ if desc.name == "graph_edit_distance_exact" => molecule(&tiny, 4),
            chatgraph::apis::ApiCategory::Molecule
            | chatgraph::apis::ApiCategory::Similarity => molecule(&MoleculeParams::default(), 4),
            chatgraph::apis::ApiCategory::Knowledge => knowledge_graph(&KgParams::default(), 4),
            _ => social_network(&SocialParams::default(), 4),
        };
        let database = if desc.name == "graph_edit_distance_exact" {
            molecule_database(4, &tiny, 2)
        } else {
            db.clone()
        };
        let mut ctx = ExecContext::new(graph).with_database(database);
        let mut call = ApiCall::new(&desc.name);
        if desc.name == "count_pattern_matches" {
            call = call.with_param("pattern", "node 0 C;node 1 C;edge 0 1 single");
        }
        if desc.name == "relabel_nodes" {
            call = call.with_param("from", "Person").with_param("to", "User");
        }
        // EdgeList-input APIs get an empty edit set.
        let input = match desc.input {
            chatgraph::apis::ValueType::EdgeList => Value::EdgeList(vec![]),
            _ => Value::Unit,
        };
        let result = reg.call(&desc.name, &mut ctx, input, &call);
        assert!(result.is_ok(), "{} failed: {:?}", desc.name, result.err());
        let out = result.unwrap();
        assert_eq!(
            out.value_type(),
            desc.output,
            "{} output type mismatch",
            desc.name
        );
    }
}
