//! Multi-pass static analysis over the API-chain IR.
//!
//! The analyzer is deliberately decoupled from `chatgraph-apis` (which
//! depends on this crate): callers lower their chain and registry into the
//! small IR here — [`ChainIr`] steps against a [`Catalog`] of [`ApiSig`]s —
//! and get back a [`Diagnostics`] sink with *every* finding, not just the
//! first. `chatgraph_apis::analysis` is the canonical lowering.
//!
//! Passes, in order (codes in `diag::CODES`):
//!
//! 1. **Shape** — CG001 empty chain.
//! 2. **Resolution + type flow** — CG002 unknown API (with a nearest-name
//!    suggestion by edit distance), CG003 inter-step type mismatch, CG004
//!    graph-typed input with no session graph to fall back to.
//! 3. **Parameters** — against each API's declared [`ParamSpec`]s: CG005
//!    unknown parameter, CG006 unparseable value (the executor would
//!    silently fall back to the default), CG007 out-of-range value, CG014
//!    required parameter missing (the step fails at execution time).
//! 4. **Chain hygiene** — CG008 discarded output (no consumer and no later
//!    report sink), CG009 redundant repeated step, CG010 step requires
//!    user confirmation (surfaced by the confirm-and-edit flow).
//! 5. **Plan dataflow** — lints over the same dependency structure the plan
//!    lowering derives from [`ApiSig::mutates_graph`]: CG011 dead step
//!    (removable without changing the result), CG012 edit/read ordering
//!    hazard (a pre-edit graph read reported post-edit), CG013 needless
//!    mid-chain barrier (a report sink before the end of the chain), CG015
//!    interleaved edits thrashing the per-version CSR snapshot.

use crate::diag::{Diagnostic, Diagnostics, Span};
use std::collections::BTreeMap;

/// What the type-flow rules need to know about a value type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeClass {
    /// A property graph: inputs of this class fall back to the session graph.
    Graph,
    /// No value: inputs of this class are always satisfiable.
    Unit,
    /// Accepts anything (report/summary sinks).
    Any,
    /// Every other concrete type; flows by display-name equality.
    Other,
}

/// A lowered value type: a display name plus its flow class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigType {
    /// Human-readable name (e.g. `"number"`, `"edge-list"`).
    pub display: String,
    /// Flow class.
    pub class: TypeClass,
}

impl SigType {
    /// Builds a lowered type.
    pub fn new(display: impl Into<String>, class: TypeClass) -> Self {
        SigType { display: display.into(), class }
    }

    /// Whether an input slot of this type accepts a produced value of `v`.
    pub fn accepts(&self, v: &SigType) -> bool {
        self.class == TypeClass::Any || self.display == v.display
    }
}

/// Declared kind of one API parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Parsed with `str::parse::<usize>`.
    Int,
    /// Parsed with `str::parse::<f64>`.
    Float,
    /// Any string.
    Text,
}

chatgraph_support::impl_json_enum!(ParamKind { Int, Float, Text });

/// Declared schema of one API parameter (name, kind, range, default).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Parameter name as it appears in [`ChainStep::params`].
    pub name: String,
    /// Value kind.
    pub kind: ParamKind,
    /// Inclusive lower bound (numeric kinds).
    pub min: Option<f64>,
    /// Inclusive upper bound (numeric kinds).
    pub max: Option<f64>,
    /// Default used when the parameter is absent or unparseable.
    pub default: Option<String>,
}

chatgraph_support::impl_json_struct!(ParamSpec { name, kind, min, max, default });

impl ParamSpec {
    /// An integer parameter with a range and default.
    pub fn int(name: &str, min: usize, max: usize, default: usize) -> Self {
        ParamSpec {
            name: name.to_owned(),
            kind: ParamKind::Int,
            min: Some(min as f64),
            max: Some(max as f64),
            default: Some(default.to_string()),
        }
    }

    /// A free-text parameter (no range, no default — i.e. required).
    pub fn text(name: &str) -> Self {
        ParamSpec { name: name.to_owned(), kind: ParamKind::Text, min: None, max: None, default: None }
    }

    /// A float parameter with a range and default.
    pub fn float(name: &str, min: f64, max: f64, default: f64) -> Self {
        ParamSpec {
            name: name.to_owned(),
            kind: ParamKind::Float,
            min: Some(min),
            max: Some(max),
            default: Some(default.to_string()),
        }
    }
}

/// Lowered signature of one API.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiSig {
    /// API name.
    pub name: String,
    /// Input type.
    pub input: SigType,
    /// Output type.
    pub output: SigType,
    /// Declared parameters.
    pub params: Vec<ParamSpec>,
    /// Whether execution asks the user to confirm first.
    pub requires_confirmation: bool,
    /// Whether execution mutates the session graph. Mutating steps are
    /// scheduling barriers in the execution plan and are never "dead".
    pub mutates_graph: bool,
}

/// One lowered chain step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainStep {
    /// API name.
    pub api: String,
    /// Free-form string parameters.
    pub params: BTreeMap<String, String>,
}

/// The lowered chain IR.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChainIr {
    /// Steps in execution order.
    pub steps: Vec<ChainStep>,
}

/// The lowered API catalogue the chain is checked against.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    sigs: BTreeMap<String, ApiSig>,
}

impl Catalog {
    /// Builds a catalogue from signatures.
    pub fn new<I: IntoIterator<Item = ApiSig>>(sigs: I) -> Self {
        Catalog {
            sigs: sigs.into_iter().map(|s| (s.name.clone(), s)).collect(),
        }
    }

    /// Looks up one signature.
    pub fn get(&self, name: &str) -> Option<&ApiSig> {
        self.sigs.get(name)
    }

    /// All names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.sigs.keys().map(String::as_str)
    }
}

/// Levenshtein edit distance (iterative two-row DP).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The closest name to `target` among `names`, when it is close enough to
/// be a plausible typo (distance ≤ max(2, |target|/3)).
pub fn nearest_name<'a, I: IntoIterator<Item = &'a str>>(target: &str, names: I) -> Option<&'a str> {
    let mut best: Option<(&'a str, usize)> = None;
    for name in names {
        let d = edit_distance(target, name);
        if best.map(|(_, bd)| d < bd).unwrap_or(true) {
            best = Some((name, d));
        }
    }
    let threshold = (target.chars().count() / 3).max(2);
    best.filter(|&(_, d)| d <= threshold).map(|(n, _)| n)
}

/// Whether appending an API with signature `sig` after a step producing
/// `prev` (None = chain start, i.e. unit) type-checks. The decoder uses
/// this to prune candidate extensions during search.
pub fn step_accepts(prev: Option<&SigType>, sig: &ApiSig, has_session_graph: bool) -> bool {
    let produced_display = prev.map(|t| t.display.as_str()).unwrap_or("unit");
    sig.input.class == TypeClass::Any
        || sig.input.display == produced_display
        || (sig.input.class == TypeClass::Graph && has_session_graph)
        || sig.input.class == TypeClass::Unit
}

/// Runs every pass over `chain` and returns all findings.
pub fn analyze_chain(chain: &ChainIr, catalog: &Catalog, has_session_graph: bool) -> Diagnostics {
    let mut sink = Diagnostics::new();
    if chain.steps.is_empty() {
        sink.push(Diagnostic::new("CG001", Span::None, "the chain has no steps"));
        return sink;
    }

    // Pass 2+3: resolution, type flow, and parameters, walking the steps in
    // order. `prev` is the produced type; None after an unknown API, so one
    // typo does not cascade into spurious mismatches downstream.
    let mut prev: Option<SigType> = Some(SigType::new("unit", TypeClass::Unit));
    for (i, step) in chain.steps.iter().enumerate() {
        let span = |param: Option<&str>| Span::Step { step: i, param: param.map(str::to_owned) };
        let Some(sig) = catalog.get(&step.api) else {
            let mut d = Diagnostic::new("CG002", span(None), format!("unknown API `{}`", step.api));
            if let Some(near) = nearest_name(&step.api, catalog.names()) {
                d = d.with_suggestion(format!("did you mean `{near}`?"));
            }
            sink.push(d);
            prev = None;
            continue;
        };
        if let Some(produced) = &prev {
            if !step_accepts(Some(produced), sig, has_session_graph) {
                if sig.input.class == TypeClass::Graph {
                    sink.push(Diagnostic::new(
                        "CG004",
                        span(None),
                        format!(
                            "API `{}` needs a graph input, but the previous step produced {} and no session graph was uploaded",
                            sig.name, produced.display
                        ),
                    ).with_suggestion("upload a graph with the prompt, or start the chain from a graph-producing API"));
                } else {
                    sink.push(Diagnostic::new(
                        "CG003",
                        span(None),
                        format!(
                            "API `{}` expects {} but the previous step produced {}",
                            sig.name, sig.input.display, produced.display
                        ),
                    ));
                }
            }
        }
        check_params(step, sig, i, &mut sink);
        prev = Some(sig.output.clone());
    }

    hygiene_pass(chain, catalog, &mut sink);
    plan_pass(chain, catalog, &mut sink);
    sink
}

/// Pass 3: parameters against the declared schema.
fn check_params(step: &ChainStep, sig: &ApiSig, i: usize, sink: &mut Diagnostics) {
    for (key, value) in &step.params {
        let span = Span::Step { step: i, param: Some(key.clone()) };
        let Some(spec) = sig.params.iter().find(|p| &p.name == key) else {
            let mut d = Diagnostic::new(
                "CG005",
                span,
                if sig.params.is_empty() {
                    format!("API `{}` takes no parameters, `{key}` is ignored", sig.name)
                } else {
                    format!("API `{}` has no parameter `{key}`", sig.name)
                },
            );
            if let Some(near) = nearest_name(key, sig.params.iter().map(|p| p.name.as_str())) {
                d = d.with_suggestion(format!("did you mean `{near}`?"));
            }
            sink.push(d);
            continue;
        };
        let parsed: Option<f64> = match spec.kind {
            ParamKind::Int => value.parse::<usize>().ok().map(|v| v as f64),
            ParamKind::Float => value.parse::<f64>().ok().filter(|v| v.is_finite()),
            ParamKind::Text => continue,
        };
        let Some(parsed) = parsed else {
            let kind = if spec.kind == ParamKind::Int { "an integer" } else { "a number" };
            let mut d = Diagnostic::new(
                "CG006",
                span,
                format!("parameter `{key}` of `{}` is not {kind}: `{value}`", sig.name),
            );
            if let Some(default) = &spec.default {
                d = d.with_suggestion(format!("execution falls back to the default `{default}`"));
            }
            sink.push(d);
            continue;
        };
        let below = spec.min.map(|m| parsed < m).unwrap_or(false);
        let above = spec.max.map(|m| parsed > m).unwrap_or(false);
        if below || above {
            let lo = spec.min.map(|m| m.to_string()).unwrap_or_else(|| "-inf".into());
            let hi = spec.max.map(|m| m.to_string()).unwrap_or_else(|| "inf".into());
            sink.push(Diagnostic::new(
                "CG007",
                span,
                format!(
                    "parameter `{key}` of `{}` is {parsed}, outside the declared range [{lo}, {hi}]",
                    sig.name
                ),
            ));
        }
    }

    // CG014: a parameter with no default is required — execution fails
    // without it, so surface the omission statically.
    for spec in &sig.params {
        if spec.default.is_none() && !step.params.contains_key(&spec.name) {
            sink.push(
                Diagnostic::new(
                    "CG014",
                    Span::Step { step: i, param: Some(spec.name.clone()) },
                    format!("required parameter `{}` of `{}` is missing", spec.name, sig.name),
                )
                .with_suggestion("the step will fail at execution time without it"),
            );
        }
    }
}

/// Pass 4: discarded outputs, redundant steps, confirmation requirements.
fn hygiene_pass(chain: &ChainIr, catalog: &Catalog, sink: &mut Diagnostics) {
    let sigs: Vec<Option<&ApiSig>> = chain.steps.iter().map(|s| catalog.get(&s.api)).collect();
    for (i, step) in chain.steps.iter().enumerate() {
        let Some(sig) = sigs[i] else { continue };
        let span = Span::Step { step: i, param: None };

        if sig.requires_confirmation {
            sink.push(Diagnostic::new(
                "CG010",
                span.clone(),
                format!("API `{}` requires user confirmation before it runs", sig.name),
            ));
        }

        // Redundant step: identical to its predecessor and side-effect-free
        // (confirmation-gated APIs mutate the graph, so repeating them is
        // meaningful).
        if i > 0 && !sig.requires_confirmation && chain.steps[i - 1] == *step {
            sink.push(
                Diagnostic::new(
                    "CG009",
                    span.clone(),
                    format!("step repeats `{}` with identical parameters", sig.name),
                )
                .with_suggestion("remove the duplicate step"),
            );
        }

        // Discarded output: a non-unit output no later step can see. Any
        // later `Any`-input sink (report/summary APIs) consumes all findings.
        if i + 1 < chain.steps.len() && sig.output.class != TypeClass::Unit {
            let consumed_by_next = sigs[i + 1]
                .map(|next| next.input.accepts(&sig.output))
                .unwrap_or(true); // unknown next: don't pile on
            let later_sink = sigs[i + 1..]
                .iter()
                .any(|s| s.map(|s| s.input.class == TypeClass::Any).unwrap_or(false));
            if !consumed_by_next && !later_sink {
                sink.push(
                    Diagnostic::new(
                        "CG008",
                        span,
                        format!(
                            "the {} produced by `{}` is discarded: the next step does not consume it and no report sink follows",
                            sig.output.display, sig.name
                        ),
                    )
                    .with_suggestion("append a report API or reorder the chain"),
                );
            }
        }
    }
}

/// Pass 5: plan-level dataflow lints. These reason about the same
/// dependency structure the execution-plan lowering derives — prev-output
/// consumption, report sinks as findings barriers, and graph mutation —
/// and therefore need [`ApiSig::mutates_graph`].
fn plan_pass(chain: &ChainIr, catalog: &Catalog, sink: &mut Diagnostics) {
    let sigs: Vec<Option<&ApiSig>> = chain.steps.iter().map(|s| catalog.get(&s.api)).collect();
    let last = chain.steps.len() - 1;
    let later_sink = |from: usize| {
        sigs[from..]
            .iter()
            .any(|s| s.is_some_and(|s| s.input.class == TypeClass::Any))
    };

    for (i, sig) in sigs.iter().enumerate() {
        let Some(sig) = sig else { continue };
        let span = Span::Step { step: i, param: None };

        // CG011 — dead step: pure (no mutation, no confirmation), its output
        // feeds no later step, and no report sink collects its finding.
        // Removing it cannot change the chain's result.
        if i < last && !sig.mutates_graph && !sig.requires_confirmation {
            let consumed = sigs[i + 1]
                .map(|next| next.input.accepts(&sig.output))
                .unwrap_or(true); // unknown next step: don't pile on
            if !consumed && !later_sink(i + 1) {
                sink.push(
                    Diagnostic::new(
                        "CG011",
                        span.clone(),
                        format!(
                            "step is dead: removing `{}` would not change the chain's result",
                            sig.name
                        ),
                    )
                    .with_suggestion("delete the step or append a report API that collects its finding"),
                );
            }
        }

        // CG013 — a report sink anywhere but last is a needless barrier: it
        // must wait for every earlier step and every later step must wait
        // for it, serialising the plan around a partial report.
        if i < last && sig.input.class == TypeClass::Any {
            sink.push(
                Diagnostic::new(
                    "CG013",
                    span,
                    format!(
                        "report sink `{}` in the middle of the chain forces a scheduling barrier",
                        sig.name
                    ),
                )
                .with_suggestion("move the report to the end of the chain"),
            );
        }
    }

    // CG012 — edit/read ordering hazard: a pure graph read scheduled before
    // an edit, whose finding a report collects only after the edit ran. The
    // report then mixes pre- and post-edit views of the graph. A read whose
    // output the next step consumes (detect → edit pipelines) is the
    // intentional pattern and is not flagged.
    let first_mutator = sigs.iter().position(|s| s.is_some_and(|s| s.mutates_graph));
    if let Some(m) = first_mutator {
        let reader = (0..m).find(|&r| {
            let is_pure_read = sigs[r]
                .is_some_and(|s| s.input.class == TypeClass::Graph && !s.mutates_graph);
            let consumed_by_next = match (sigs[r], sigs.get(r + 1).copied().flatten()) {
                (Some(s), Some(next)) => next.input.accepts(&s.output),
                _ => true,
            };
            is_pure_read && !consumed_by_next
        });
        if let (Some(r), true) = (reader, later_sink(m + 1)) {
            let reader_name = sigs[r].map(|s| s.name.as_str()).unwrap_or("?");
            let mutator_name = sigs[m].map(|s| s.name.as_str()).unwrap_or("?");
            sink.push(
                Diagnostic::new(
                    "CG012",
                    Span::Step { step: r, param: None },
                    format!(
                        "`{reader_name}` reads the graph before `{mutator_name}` edits it at step {m}, but its finding is reported after the edit"
                    ),
                )
                .with_suggestion("move the read after the edit, or report before editing"),
            );
        }
    }

    // CG015 — CSR-cache thrash: two graph edits with only pure graph-reading
    // analytics strictly between them. Every edit starts a new mutation
    // epoch, so the interleaved analytics rebuild the compressed (CSR)
    // snapshot that the very next edit immediately invalidates again. When
    // no prev-output consumption links cross the window — none of the
    // in-between outputs feed their successor, and neither edit consumes a
    // value produced inside the window — the plan's own dependency structure
    // proves the reads can be grouped on one side of both edits.
    let mutators: Vec<usize> = sigs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_some_and(|s| s.mutates_graph))
        .map(|(i, _)| i)
        .collect();
    for w in mutators.windows(2) {
        let (m1, m2) = (w[0], w[1]);
        if m2 <= m1 + 1 {
            continue;
        }
        let pure_reads_between = (m1 + 1..m2).all(|j| {
            sigs[j].is_some_and(|s| {
                s.input.class == TypeClass::Graph && !s.mutates_graph && !s.requires_confirmation
            })
        });
        let no_links = (m1 + 1..=m2).all(|j| match (sigs[j - 1], sigs[j]) {
            (Some(prev), Some(s)) => !s.input.accepts(&prev.output),
            _ => false,
        });
        if pure_reads_between && no_links {
            let m1_name = sigs[m1].map(|s| s.name.as_str()).unwrap_or("?");
            let m2_name = sigs[m2].map(|s| s.name.as_str()).unwrap_or("?");
            sink.push(
                Diagnostic::new(
                    "CG015",
                    Span::Step { step: m2, param: None },
                    format!(
                        "edit `{m2_name}` re-mutates the graph after analytics that follow edit `{m1_name}` at step {m1}: each edit invalidates the cached CSR snapshot the analytics just rebuilt"
                    ),
                )
                .with_suggestion(
                    "group the edits together and run the analytics before or after both, so one CSR snapshot serves every read",
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn t(display: &str, class: TypeClass) -> SigType {
        SigType::new(display, class)
    }

    fn catalog() -> Catalog {
        Catalog::new([
            ApiSig {
                name: "node_count".into(),
                input: t("graph", TypeClass::Graph),
                output: t("number", TypeClass::Other),
                params: vec![],
                requires_confirmation: false,
                mutates_graph: false,
            },
            ApiSig {
                name: "top_pagerank".into(),
                input: t("graph", TypeClass::Graph),
                output: t("table", TypeClass::Other),
                params: vec![ParamSpec::int("k", 1, 100, 5)],
                requires_confirmation: false,
                mutates_graph: false,
            },
            ApiSig {
                name: "remove_edges".into(),
                input: t("edge-list", TypeClass::Other),
                output: t("number", TypeClass::Other),
                params: vec![],
                requires_confirmation: true,
                mutates_graph: true,
            },
            ApiSig {
                name: "relabel_nodes".into(),
                input: t("graph", TypeClass::Graph),
                output: t("number", TypeClass::Other),
                params: vec![ParamSpec::text("from"), ParamSpec::text("to")],
                requires_confirmation: true,
                mutates_graph: true,
            },
            ApiSig {
                name: "generate_report".into(),
                input: t("any", TypeClass::Any),
                output: t("report", TypeClass::Other),
                params: vec![],
                requires_confirmation: false,
                mutates_graph: false,
            },
        ])
    }

    fn chain(names: &[&str]) -> ChainIr {
        ChainIr {
            steps: names
                .iter()
                .map(|n| ChainStep { api: (*n).to_owned(), params: BTreeMap::new() })
                .collect(),
        }
    }

    fn codes(d: &Diagnostics) -> Vec<&str> {
        d.items.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn empty_chain_is_cg001() {
        let d = analyze_chain(&chain(&[]), &catalog(), true);
        assert_eq!(codes(&d), vec!["CG001"]);
        assert!(d.has_errors());
    }

    #[test]
    fn unknown_api_is_cg002_with_suggestion() {
        let d = analyze_chain(&chain(&["node_cuont"]), &catalog(), true);
        assert_eq!(codes(&d), vec!["CG002"]);
        assert_eq!(d.items[0].suggestion.as_deref(), Some("did you mean `node_count`?"));
    }

    #[test]
    fn type_mismatch_is_cg003() {
        let d = analyze_chain(&chain(&["node_count", "remove_edges"]), &catalog(), true);
        assert!(codes(&d).contains(&"CG003"), "{}", d.render_text());
    }

    #[test]
    fn missing_session_graph_is_cg004() {
        let d = analyze_chain(&chain(&["node_count"]), &catalog(), false);
        assert_eq!(codes(&d), vec!["CG004"]);
        let ok = analyze_chain(&chain(&["node_count"]), &catalog(), true);
        assert!(ok.is_empty(), "{}", ok.render_text());
    }

    #[test]
    fn all_type_errors_are_collected_not_just_first() {
        // Two independent mismatches in one chain.
        let d = analyze_chain(
            &chain(&["node_count", "remove_edges", "node_count", "remove_edges"]),
            &catalog(),
            false,
        );
        let errs: Vec<&str> = d
            .items
            .iter()
            .filter(|x| x.severity == Severity::Error)
            .map(|x| x.code.as_str())
            .collect();
        assert!(errs.len() >= 3, "{}", d.render_text());
    }

    #[test]
    fn unknown_param_is_cg005_with_suggestion() {
        let mut c = chain(&["top_pagerank", "generate_report"]);
        c.steps[0].params.insert("kk".into(), "5".into());
        let d = analyze_chain(&c, &catalog(), true);
        assert_eq!(codes(&d), vec!["CG005"]);
        assert_eq!(d.items[0].suggestion.as_deref(), Some("did you mean `k`?"));
        assert!(!d.has_errors());
    }

    #[test]
    fn unparseable_param_is_cg006() {
        let mut c = chain(&["top_pagerank", "generate_report"]);
        c.steps[0].params.insert("k".into(), "lots".into());
        let d = analyze_chain(&c, &catalog(), true);
        assert_eq!(codes(&d), vec!["CG006"]);
        assert!(d.items[0].suggestion.as_deref().unwrap_or("").contains("default `5`"));
    }

    #[test]
    fn out_of_range_param_is_cg007() {
        let mut c = chain(&["top_pagerank", "generate_report"]);
        c.steps[0].params.insert("k".into(), "5000".into());
        let d = analyze_chain(&c, &catalog(), true);
        assert_eq!(codes(&d), vec!["CG007"]);
    }

    #[test]
    fn discarded_output_is_cg008_unless_sink_follows() {
        let d = analyze_chain(&chain(&["node_count", "node_count"]), &catalog(), true);
        assert!(codes(&d).contains(&"CG008"), "{}", d.render_text());
        let with_sink = analyze_chain(
            &chain(&["node_count", "node_count", "generate_report"]),
            &catalog(),
            true,
        );
        assert!(!codes(&with_sink).contains(&"CG008"), "{}", with_sink.render_text());
    }

    #[test]
    fn repeated_step_is_cg009() {
        let d = analyze_chain(
            &chain(&["node_count", "node_count", "generate_report"]),
            &catalog(),
            true,
        );
        assert!(codes(&d).contains(&"CG009"), "{}", d.render_text());
        // Different params are not redundant.
        let mut c = chain(&["top_pagerank", "top_pagerank", "generate_report"]);
        c.steps[1].params.insert("k".into(), "9".into());
        let d2 = analyze_chain(&c, &catalog(), true);
        assert!(!codes(&d2).contains(&"CG009"), "{}", d2.render_text());
    }

    #[test]
    fn confirmation_step_is_cg010() {
        let mut c = chain(&["remove_edges"]);
        c.steps[0].params.clear();
        let d = analyze_chain(&c, &catalog(), true);
        assert!(codes(&d).contains(&"CG010"), "{}", d.render_text());
        // CG010 is a warning: it must not block execution on its own.
        assert!(d.items.iter().filter(|x| x.code == "CG010").all(|x| x.severity == Severity::Warning));
    }

    #[test]
    fn unknown_api_does_not_cascade_type_errors() {
        let d = analyze_chain(&chain(&["frobnicate", "node_count"]), &catalog(), true);
        assert_eq!(codes(&d), vec!["CG002"], "{}", d.render_text());
    }

    #[test]
    fn dead_step_is_cg011_unless_sink_or_effect() {
        let d = analyze_chain(&chain(&["node_count", "node_count"]), &catalog(), true);
        assert!(codes(&d).contains(&"CG011"), "{}", d.render_text());
        assert!(d.items.iter().filter(|x| x.code == "CG011").all(|x| x.severity == Severity::Info));
        // A later report sink collects the finding: not dead.
        let with_sink = analyze_chain(
            &chain(&["node_count", "node_count", "generate_report"]),
            &catalog(),
            true,
        );
        assert!(!codes(&with_sink).contains(&"CG011"), "{}", with_sink.render_text());
        // A mutating step is never dead, even with its output discarded.
        let mut c = chain(&["relabel_nodes", "node_count"]);
        c.steps[0].params.insert("from".into(), "A".into());
        c.steps[0].params.insert("to".into(), "B".into());
        let mutating = analyze_chain(&c, &catalog(), true);
        assert!(!codes(&mutating).contains(&"CG011"), "{}", mutating.render_text());
    }

    #[test]
    fn edit_read_race_is_cg012() {
        // top_pagerank's table is only a finding; it is read pre-edit but
        // reported post-edit.
        let mut c = chain(&["top_pagerank", "relabel_nodes", "generate_report"]);
        c.steps[1].params.insert("from".into(), "A".into());
        c.steps[1].params.insert("to".into(), "B".into());
        let d = analyze_chain(&c, &catalog(), true);
        assert!(codes(&d).contains(&"CG012"), "{}", d.render_text());
        assert!(d.items.iter().filter(|x| x.code == "CG012").all(|x| x.severity == Severity::Warning));
        // Without a report after the edit there is nothing to mix: no CG012.
        let mut c2 = chain(&["top_pagerank", "relabel_nodes"]);
        c2.steps[1].params.insert("from".into(), "A".into());
        c2.steps[1].params.insert("to".into(), "B".into());
        let d2 = analyze_chain(&c2, &catalog(), true);
        assert!(!codes(&d2).contains(&"CG012"), "{}", d2.render_text());
    }

    #[test]
    fn edit_before_any_read_is_not_a_race() {
        // No pure graph read precedes the edit, so there is nothing the
        // report could mix, even with a sink afterwards.
        let mut c = chain(&["relabel_nodes", "generate_report"]);
        c.steps[0].params.insert("from".into(), "A".into());
        c.steps[0].params.insert("to".into(), "B".into());
        let d = analyze_chain(&c, &catalog(), true);
        assert!(!codes(&d).contains(&"CG012"), "{}", d.render_text());
    }

    #[test]
    fn mid_chain_sink_is_cg013() {
        let d = analyze_chain(
            &chain(&["node_count", "generate_report", "node_count"]),
            &catalog(),
            true,
        );
        assert!(codes(&d).contains(&"CG013"), "{}", d.render_text());
        let at_end = analyze_chain(&chain(&["node_count", "generate_report"]), &catalog(), true);
        assert!(!codes(&at_end).contains(&"CG013"), "{}", at_end.render_text());
    }

    #[test]
    fn missing_required_param_is_cg014() {
        let d = analyze_chain(&chain(&["relabel_nodes"]), &catalog(), true);
        let cg014: Vec<_> = d.items.iter().filter(|x| x.code == "CG014").collect();
        assert_eq!(cg014.len(), 2, "{}", d.render_text());
        assert!(cg014.iter().all(|x| x.severity == Severity::Warning));
        // Providing both parameters silences the lint.
        let mut c = chain(&["relabel_nodes"]);
        c.steps[0].params.insert("from".into(), "A".into());
        c.steps[0].params.insert("to".into(), "B".into());
        let d2 = analyze_chain(&c, &catalog(), true);
        assert!(!codes(&d2).contains(&"CG014"), "{}", d2.render_text());
    }

    #[test]
    fn interleaved_edits_are_cg015() {
        // edit → analytics → edit: the middle read rebuilds a CSR snapshot
        // the second edit immediately invalidates.
        let mut c = chain(&["relabel_nodes", "top_pagerank", "relabel_nodes"]);
        for i in [0, 2] {
            c.steps[i].params.insert("from".into(), "A".into());
            c.steps[i].params.insert("to".into(), "B".into());
        }
        let d = analyze_chain(&c, &catalog(), true);
        let cg015: Vec<_> = d.items.iter().filter(|x| x.code == "CG015").collect();
        assert_eq!(cg015.len(), 1, "{}", d.render_text());
        assert!(cg015.iter().all(|x| x.severity == Severity::Info));
        assert!(matches!(cg015[0].span, Span::Step { step: 2, .. }), "{:?}", cg015[0].span);
        assert!(cg015[0].suggestion.as_deref().unwrap_or("").contains("group the edits"));
    }

    #[test]
    fn adjacent_or_linked_edits_are_not_cg015() {
        // Adjacent edits: already batched, nothing to reorder.
        let mut adjacent = chain(&["relabel_nodes", "relabel_nodes", "top_pagerank"]);
        for i in [0, 1] {
            adjacent.steps[i].params.insert("from".into(), "A".into());
            adjacent.steps[i].params.insert("to".into(), "B".into());
        }
        let d = analyze_chain(&adjacent, &catalog(), true);
        assert!(!codes(&d).contains(&"CG015"), "{}", d.render_text());

        // A report sink between the edits is not a pure graph read, so the
        // reorder is not provably safe.
        let mut sunk = chain(&["relabel_nodes", "generate_report", "relabel_nodes"]);
        for i in [0, 2] {
            sunk.steps[i].params.insert("from".into(), "A".into());
            sunk.steps[i].params.insert("to".into(), "B".into());
        }
        let d2 = analyze_chain(&sunk, &catalog(), true);
        assert!(!codes(&d2).contains(&"CG015"), "{}", d2.render_text());
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(nearest_name("graph_stat", ["graph_stats", "node_count"]), Some("graph_stats"));
        assert_eq!(nearest_name("zzzzzz", ["graph_stats", "node_count"]), None);
    }

    #[test]
    fn step_accepts_mirrors_validator_rules() {
        let cat = catalog();
        let number = t("number", TypeClass::Other);
        // Graph input with a session graph: ok from anywhere.
        assert!(step_accepts(Some(&number), cat.get("node_count").unwrap(), true));
        assert!(!step_accepts(Some(&number), cat.get("node_count").unwrap(), false));
        // Any-input sink accepts everything.
        assert!(step_accepts(Some(&number), cat.get("generate_report").unwrap(), false));
        // Chain start counts as unit.
        assert!(!step_accepts(None, cat.get("remove_edges").unwrap(), true));
    }
}
