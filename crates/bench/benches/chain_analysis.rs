//! Timing benches for the static chain analyzer: the full multi-pass
//! analysis, the decoder's pruning predicate, and repolint's lexer. Writes
//! the machine-readable baseline to `results/BENCH_chain_analysis.json`.

use chatgraph_analyzer::lexer;
use chatgraph_apis::{analysis, registry, ApiCall, ApiChain};
use chatgraph_bench::{env_json, record_stats as record};
use chatgraph_support::bench::Bench;
use chatgraph_support::json::Json;
use std::hint::black_box;

fn main() {
    let reg = registry::standard();
    // A representative 6-step chain mixing clean steps, parameter lints and
    // a confirmation-gated edit, so every analysis pass does real work.
    let mut chain = ApiChain::new();
    chain.push(ApiCall::new("detect_incorrect_edges"));
    chain.push(ApiCall::new("remove_edges"));
    chain.push(ApiCall::new("top_pagerank").with_param("k", "5000").with_param("kk", "3"));
    chain.push(ApiCall::new("detect_communities"));
    chain.push(ApiCall::new("top_betweenness").with_param("k", "lots"));
    chain.push(ApiCall::new("generate_report"));
    let names: Vec<String> = reg.names().iter().map(|s| s.to_string()).collect();
    // cargo runs benches from the package dir; anchor paths at the
    // workspace root so the baseline lands next to the other results.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let lexer_input = std::fs::read_to_string(root.join("crates/analyzer/src/repolint.rs"))
        .unwrap_or_else(|_| "fn main() { let x = 1; }".repeat(200));

    let mut results: Vec<(String, Json)> = Vec::new();
    let mut bench = Bench::new("chain_analysis");
    let mut group = bench.group("chain_analysis");
    record(
        &mut results,
        "analyze_6_step_chain",
        group.bench("analyze_6_step_chain", || {
            black_box(analysis::analyze(black_box(&chain), &reg, true).len());
        }),
    );
    record(
        &mut results,
        "can_extend_full_registry",
        group.bench("can_extend_full_registry", || {
            let n = names
                .iter()
                .filter(|c| analysis::can_extend(&reg, Some("detect_communities"), c, true))
                .count();
            black_box(n);
        }),
    );
    record(
        &mut results,
        "lex_bench_source",
        group.bench("lex_bench_source", || {
            black_box(lexer::scan(black_box(&lexer_input)).len());
        }),
    );

    let doc = Json::Object(vec![
        ("bench".to_owned(), Json::Str("chain_analysis".to_owned())),
        ("env".to_owned(), env_json(1)),
        ("results".to_owned(), Json::Object(results)),
    ]);
    let path = root.join("results/BENCH_chain_analysis.json");
    match std::fs::write(&path, doc.render()) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => println!("\ncould not write {}: {e}", path.display()),
    }
}
