//! Golden test pinning every chain and plan diagnostic byte-for-byte: code,
//! severity, span, message and suggestion.
//!
//! The cases fire each of CG001–CG015 through [`analysis::analyze`]
//! against `registry::standard()`, with and without a session graph.
//! `CHATGRAPH_UPDATE_GOLDEN=1` rewrites `tests/golden_diagnostics.json`.

use chatgraph_apis::{analysis, registry, ApiCall, ApiChain};

/// A chain from `api k=v … | api …`.
fn chain(spec: &str) -> ApiChain {
    let mut c = ApiChain::new();
    for step in spec.split('|').map(str::trim).filter(|s| !s.is_empty()) {
        let mut words = step.split_whitespace();
        let mut call = ApiCall::new(words.next().expect("api name"));
        for kv in words {
            let (k, v) = kv.split_once('=').expect("k=v");
            call = call.with_param(k, v);
        }
        c.push(call);
    }
    c
}

const CHAIN_CASES: &[(&str, &str)] = &[
    ("clean", "detect_communities | generate_report"),
    ("cg001_empty", ""),
    ("cg002_typo", "node_cuont"),
    ("cg002_no_cascade", "frobnicate | node_count"),
    ("cg003_mismatch", "node_count | remove_edges"),
    ("cg004_graph_input", "node_count"),
    ("cg003_cg004_every_error", "node_count | remove_edges | node_count | remove_edges"),
    ("cg005_unknown_param", "top_pagerank kk=5 | generate_report"),
    ("cg005_no_params", "node_count k=3 | generate_report"),
    ("cg006_unparseable", "top_pagerank k=lots | generate_report"),
    ("cg006_negative_int", "top_pagerank k=-3 | generate_report"),
    ("cg007_out_of_range", "top_pagerank k=5000 | generate_report"),
    ("cg008_cg011_discarded", "node_count | node_count"),
    ("cg009_repeated", "node_count | node_count | generate_report"),
    ("cg010_confirmation", "detect_incorrect_edges | remove_edges"),
    ("cg012_edit_read_race", "top_pagerank | relabel_nodes from=A to=B | generate_report"),
    ("cg013_mid_sink", "node_count | generate_report | node_count"),
    ("cg014_required_missing", "relabel_nodes"),
    ("cg015_interleaved_edits", "relabel_nodes from=A to=B | top_pagerank | relabel_nodes from=A to=B"),
    (
        "mixed_params",
        "graph_edit_distance_exact target=x budget=0 bogus=1 | count_pattern_matches pattern=edge k=2 \
         | relabel_nodes from=A",
    ),
];

fn render() -> String {
    let reg = registry::standard();
    let mut lines = Vec::new();
    for (name, spec) in CHAIN_CASES {
        for has_graph in [false, true] {
            let d = analysis::analyze(&chain(spec), &reg, has_graph);
            lines.push(format!(
                "{{\"case\":\"{name}\",\"has_session_graph\":{has_graph},\"diagnostics\":{}}}",
                d.render_json()
            ));
        }
    }
    format!("[\n{}\n]", lines.join(",\n"))
}

#[test]
fn diagnostics_are_byte_stable() {
    let got = render();
    if std::env::var_os("CHATGRAPH_UPDATE_GOLDEN").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_diagnostics.json");
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    let want = include_str!("golden_diagnostics.json").trim();
    assert_eq!(got, want, "diagnostics drifted from tests/golden_diagnostics.json");
}

/// The golden cases fire every chain and plan code at least once.
#[test]
fn golden_cases_cover_every_chain_and_plan_code() {
    let got = render();
    for n in 1..=15 {
        let code = format!("\"CG{n:03}\"");
        assert!(got.contains(&code), "no golden case fires {code}");
    }
}
