//! Property-based tests for the chain analyzer ([`analyze`]), exercised
//! through the real registry and executor.

use chatgraph_analyzer::diag::Severity;
use chatgraph_apis::{analyze, execute_chain, registry, ApiCall, ApiChain, ChainError, ExecContext, SilentMonitor};
use chatgraph_graph::generators::{knowledge_graph, KgParams};
use chatgraph_support::prop::{check, Config};
use chatgraph_support::prop_assert;
use chatgraph_support::rng::{RngExt, SliceRandom, StdRng};

/// Generator: a chain of random API names — registered, near-miss typos and
/// garbage — with random (often nonsensical) parameters.
fn arbitrary_chain(rng: &mut StdRng, max_len: usize) -> ApiChain {
    let reg = registry::standard();
    let mut names: Vec<String> = reg.names().iter().map(|s| s.to_string()).collect();
    names.extend(
        ["node_cout", "frobnicate", "", "GENERATE_REPORT", "top pagerank"]
            .map(str::to_owned),
    );
    let keys = ["k", "target", "budget", "pattern", "kk", "Λ", ""];
    let values = ["5", "0", "-3", "1e9", "lots", "", "NaN", "0.5"];
    let len = rng.random_range(0..=max_len);
    let mut chain = ApiChain::new();
    for _ in 0..len {
        let mut call = ApiCall::new(names.choose(rng).expect("non-empty pool").clone());
        for _ in 0..rng.random_range(0usize..3) {
            call = call.with_param(
                *keys.choose(rng).expect("keys"),
                *values.choose(rng).expect("values"),
            );
        }
        chain.push(call);
    }
    chain
}

/// The analyzer is total: any chain, any parameters, with or without a
/// session graph — it returns findings, it never panics.
#[test]
fn analyzer_never_panics_on_arbitrary_chains() {
    check(
        "analyzer_never_panics_on_arbitrary_chains",
        Config::default(),
        |rng, _size| arbitrary_chain(rng, 6),
        |chain| {
            let reg = registry::standard();
            for has_graph in [false, true] {
                let d = analyze(chain, &reg, has_graph);
                // Every finding carries a registered code and renders.
                for item in &d.items {
                    prop_assert!(
                        chatgraph_analyzer::diag::code_info(&item.code).is_some(),
                        "unregistered code {}",
                        item.code
                    );
                    prop_assert!(!item.render().is_empty());
                }
                let _ = d.render_json();
            }
            Ok(())
        },
    );
}

/// Soundness of the Error level: a chain the analyzer passes (no Error
/// findings) executes without type errors — anything that still fails does
/// so for runtime data reasons, never typing.
#[test]
fn error_free_chains_execute_without_type_errors() {
    check(
        "error_free_chains_execute_without_type_errors",
        Config::default(),
        |rng, _size| arbitrary_chain(rng, 4),
        |chain| {
            let reg = registry::standard();
            let d = analyze(chain, &reg, true);
            if d.count(Severity::Error) > 0 {
                return Ok(()); // analyzer refused; nothing to execute
            }
            prop_assert!(
                chain.validate(&reg, true).is_ok(),
                "validate() rejected what the analyzer passed: {chain}"
            );
            let g = knowledge_graph(
                &KgParams {
                    persons: 10,
                    cities: 4,
                    countries: 2,
                    companies: 3,
                    employment_rate: 0.5,
                    knows_per_person: 1.0,
                },
                1,
            );
            let mut ctx = ExecContext::new(g);
            match execute_chain(&reg, chain, &mut ctx, &mut SilentMonitor) {
                Ok(_) | Err(ChainError::ExecutionFailed(..)) => {}
                Err(other) => {
                    prop_assert!(false, "unexpected error class for {chain}: {other}");
                }
            }
            Ok(())
        },
    );
}

/// Error-level agreement with the legacy validator, across the graph /
/// no-graph axis: the analyzer reports an Error iff `validate()` rejects.
#[test]
fn analyzer_errors_agree_with_validate() {
    check(
        "analyzer_errors_agree_with_validate",
        Config::default(),
        |rng, _size| arbitrary_chain(rng, 5),
        |chain| {
            let reg = registry::standard();
            for has_graph in [false, true] {
                let d = analyze(chain, &reg, has_graph);
                prop_assert!(
                    chain.validate(&reg, has_graph).is_ok() == !d.has_errors(),
                    "disagreement on {chain} (has_graph={has_graph}): {}",
                    d.render_text()
                );
            }
            Ok(())
        },
    );
}
