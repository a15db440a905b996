//! Static analysis of API chains, run directly on [`ApiChain`] and the
//! [`ApiRegistry`]'s descriptors.
//!
//! [`analyze`] runs every chain pass and collects *every* finding instead
//! of stopping at the first (codes in `chatgraph_analyzer::diag::CODES`):
//!
//! 1. **Shape** — CG001 empty chain.
//! 2. **Resolution + type flow** — CG002 unknown API (with a nearest-name
//!    suggestion by edit distance), CG003 inter-step type mismatch, CG004
//!    graph-typed input with no session graph to fall back to. Both type
//!    codes are decided by [`ApiDescriptor::accepts_input`], the rule
//!    [`ApiChain::validate`] and [`can_extend`] use too.
//! 3. **Parameters** — against each API's declared [`crate::ParamSpec`]s:
//!    CG005 unknown parameter, CG006 unparseable value (the executor would
//!    silently fall back to the default), CG007 out-of-range value, CG014
//!    required parameter missing (the step fails at execution time).
//! 4. **Chain hygiene** — CG008 discarded output (no consumer and no later
//!    report sink), CG009 redundant repeated step, CG010 step requires
//!    user confirmation (surfaced by the confirm-and-edit flow).
//! 5. **Plan dataflow** — lints over the step structure
//!    [`crate::Plan::build`] derives from [`ApiDescriptor::mutates_graph`]: CG011
//!    dead step (removable without changing the result), CG012 edit/read
//!    ordering hazard (a pre-edit graph read reported post-edit), CG013
//!    needless mid-chain barrier (a report sink before the end of the
//!    chain), CG015 interleaved edits thrashing the per-version CSR
//!    snapshot.
//!
//! Consumers:
//!
//! * [`crate::execute_chain`] / [`crate::Scheduler::execute`] — refuse
//!   Error-level findings and emit the rest through
//!   [`crate::ChainEvent::Diagnostics`];
//! * the search-based decoder in `chatgraph-core` — [`can_extend`] prunes
//!   candidate chain extensions that would introduce a type error;
//! * the scenario-4 confirm-and-edit flow — [`analyze`] produces the
//!   warnings shown to the user next to a proposed chain.

use crate::chain::{ApiCall, ApiChain};
use crate::descriptor::{ApiDescriptor, ParamKind};
use crate::registry::ApiRegistry;
use crate::value::ValueType;
use chatgraph_analyzer::diag::{Diagnostic, Diagnostics, Span};

/// Levenshtein edit distance (iterative two-row DP).
pub(crate) fn edit_distance(a: &str, b: &str) -> usize {
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
pub(crate) fn nearest_name<'a, I: IntoIterator<Item = &'a str>>(target: &str, names: I) -> Option<&'a str> {
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

/// Runs every chain pass over `chain` and returns all findings.
pub fn analyze(chain: &ApiChain, registry: &ApiRegistry, has_session_graph: bool) -> Diagnostics {
    let mut sink = Diagnostics::new();
    if chain.steps.is_empty() {
        sink.push(Diagnostic::new("CG001", Span::None, "the chain has no steps"));
        return sink;
    }
    let descs: Vec<Option<&ApiDescriptor>> =
        chain.steps.iter().map(|s| registry.descriptor(&s.api)).collect();

    // Pass 2+3: resolution, type flow, and parameters, walking the steps in
    // order. `prev` is the produced type; None after an unknown API, so one
    // typo does not cascade into spurious mismatches downstream.
    let mut prev = Some(ValueType::Unit);
    for (i, (step, desc)) in chain.steps.iter().zip(&descs).enumerate() {
        let Some(desc) = desc else {
            let mut d = Diagnostic::new(
                "CG002",
                Span::Step { step: i, param: None },
                format!("unknown API `{}`", step.api),
            );
            if let Some(near) = nearest_name(&step.api, registry.names()) {
                d = d.with_suggestion(format!("did you mean `{near}`?"));
            }
            sink.push(d);
            prev = None;
            continue;
        };
        if let Some(produced) = prev {
            if !desc.accepts_input(produced, has_session_graph) {
                let span = Span::Step { step: i, param: None };
                if desc.input == ValueType::Graph {
                    sink.push(Diagnostic::new(
                        "CG004",
                        span,
                        format!(
                            "API `{}` needs a graph input, but the previous step produced {produced} and no session graph was uploaded",
                            desc.name
                        ),
                    ).with_suggestion("upload a graph with the prompt, or start the chain from a graph-producing API"));
                } else {
                    sink.push(Diagnostic::new(
                        "CG003",
                        span,
                        format!(
                            "API `{}` expects {} but the previous step produced {produced}",
                            desc.name, desc.input
                        ),
                    ));
                }
            }
        }
        check_params(step, desc, i, &mut sink);
        prev = Some(desc.output);
    }

    hygiene_pass(chain, &descs, &mut sink);
    plan_pass(&descs, &mut sink);
    sink
}

/// Pass 3: parameters against the declared schema.
fn check_params(step: &ApiCall, desc: &ApiDescriptor, i: usize, sink: &mut Diagnostics) {
    for (key, value) in &step.params {
        let span = Span::Step { step: i, param: Some(key.clone()) };
        let Some(spec) = desc.param(key) else {
            let mut d = Diagnostic::new(
                "CG005",
                span,
                if desc.params.is_empty() {
                    format!("API `{}` takes no parameters, `{key}` is ignored", desc.name)
                } else {
                    format!("API `{}` has no parameter `{key}`", desc.name)
                },
            );
            if let Some(near) = nearest_name(key, desc.params.iter().map(|p| p.name.as_str())) {
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
                format!("parameter `{key}` of `{}` is not {kind}: `{value}`", desc.name),
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
                    desc.name
                ),
            ));
        }
    }

    // CG014: a parameter with no default is required — execution fails
    // without it, so surface the omission statically.
    for spec in &desc.params {
        if spec.default.is_none() && !step.params.contains_key(&spec.name) {
            sink.push(
                Diagnostic::new(
                    "CG014",
                    Span::Step { step: i, param: Some(spec.name.clone()) },
                    format!("required parameter `{}` of `{}` is missing", spec.name, desc.name),
                )
                .with_suggestion("the step will fail at execution time without it"),
            );
        }
    }
}

/// Pass 4: discarded outputs, redundant steps, confirmation requirements.
fn hygiene_pass(chain: &ApiChain, descs: &[Option<&ApiDescriptor>], sink: &mut Diagnostics) {
    for (i, step) in chain.steps.iter().enumerate() {
        let Some(desc) = descs[i] else { continue };
        let span = Span::Step { step: i, param: None };

        if desc.requires_confirmation {
            sink.push(Diagnostic::new(
                "CG010",
                span.clone(),
                format!("API `{}` requires user confirmation before it runs", desc.name),
            ));
        }

        // Redundant step: identical to its predecessor and side-effect-free
        // (confirmation-gated APIs mutate the graph, so repeating them is
        // meaningful).
        if i > 0 && !desc.requires_confirmation && chain.steps[i - 1] == *step {
            sink.push(
                Diagnostic::new(
                    "CG009",
                    span.clone(),
                    format!("step repeats `{}` with identical parameters", desc.name),
                )
                .with_suggestion("remove the duplicate step"),
            );
        }

        // Discarded output: a non-unit output no later step can see. Any
        // later `Any`-input sink (report/summary APIs) consumes all findings.
        if i + 1 < chain.steps.len() && desc.output != ValueType::Unit {
            let consumed_by_next = descs[i + 1]
                .map(|next| next.input.accepts(desc.output))
                .unwrap_or(true); // unknown next: don't pile on
            let later_sink = descs[i + 1..]
                .iter()
                .any(|d| d.is_some_and(|d| d.input == ValueType::Any));
            if !consumed_by_next && !later_sink {
                sink.push(
                    Diagnostic::new(
                        "CG008",
                        span,
                        format!(
                            "the {} produced by `{}` is discarded: the next step does not consume it and no report sink follows",
                            desc.output, desc.name
                        ),
                    )
                    .with_suggestion("append a report API or reorder the chain"),
                );
            }
        }
    }
}

/// Pass 5: plan-level dataflow lints. These reason about the same
/// step structure [`crate::Plan::build`] derives — prev-output consumption,
/// report sinks as findings barriers, and graph mutation.
fn plan_pass(descs: &[Option<&ApiDescriptor>], sink: &mut Diagnostics) {
    let last = descs.len() - 1;
    let later_sink = |from: usize| {
        descs[from..]
            .iter()
            .any(|d| d.is_some_and(|d| d.input == ValueType::Any))
    };

    for (i, desc) in descs.iter().enumerate() {
        let Some(desc) = desc else { continue };
        let span = Span::Step { step: i, param: None };

        // CG011 — dead step: pure (no mutation, no confirmation), its output
        // feeds no later step, and no report sink collects its finding.
        // Removing it cannot change the chain's result.
        if i < last && !desc.mutates_graph && !desc.requires_confirmation {
            let consumed = descs[i + 1]
                .map(|next| next.input.accepts(desc.output))
                .unwrap_or(true); // unknown next step: don't pile on
            if !consumed && !later_sink(i + 1) {
                sink.push(
                    Diagnostic::new(
                        "CG011",
                        span.clone(),
                        format!(
                            "step is dead: removing `{}` would not change the chain's result",
                            desc.name
                        ),
                    )
                    .with_suggestion("delete the step or append a report API that collects its finding"),
                );
            }
        }

        // CG013 — a report sink anywhere but last is a needless barrier: it
        // must wait for every earlier step and every later step must wait
        // for it, serialising the plan around a partial report.
        if i < last && desc.input == ValueType::Any {
            sink.push(
                Diagnostic::new(
                    "CG013",
                    span,
                    format!(
                        "report sink `{}` in the middle of the chain forces a scheduling barrier",
                        desc.name
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
    let first_mutator = descs.iter().position(|d| d.is_some_and(|d| d.mutates_graph));
    if let Some(m) = first_mutator {
        let reader = (0..m).find(|&r| {
            let is_pure_read = descs[r]
                .is_some_and(|d| d.input == ValueType::Graph && !d.mutates_graph);
            let consumed_by_next = match (descs[r], descs.get(r + 1).copied().flatten()) {
                (Some(d), Some(next)) => next.input.accepts(d.output),
                _ => true,
            };
            is_pure_read && !consumed_by_next
        });
        if let (Some(r), true) = (reader, later_sink(m + 1)) {
            let reader_name = descs[r].map(|d| d.name.as_str()).unwrap_or("?");
            let mutator_name = descs[m].map(|d| d.name.as_str()).unwrap_or("?");
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
    // analytics strictly between them. Every edit starts a new graph
    // version, so the interleaved analytics build the compressed (CSR)
    // snapshot of a version the very next edit immediately replaces. When
    // no prev-output consumption links cross the window — none of the
    // in-between outputs feed their successor, and neither edit consumes a
    // value produced inside the window — the plan's own dependency structure
    // proves the reads can be grouped on one side of both edits.
    let mutators: Vec<usize> = descs
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_some_and(|d| d.mutates_graph))
        .map(|(i, _)| i)
        .collect();
    for w in mutators.windows(2) {
        let (m1, m2) = (w[0], w[1]);
        if m2 <= m1 + 1 {
            continue;
        }
        let pure_reads_between = (m1 + 1..m2).all(|j| {
            descs[j].is_some_and(|d| {
                d.input == ValueType::Graph && !d.mutates_graph && !d.requires_confirmation
            })
        });
        let no_links = (m1 + 1..=m2).all(|j| match (descs[j - 1], descs[j]) {
            (Some(prev), Some(d)) => !d.input.accepts(prev.output),
            _ => false,
        });
        if pure_reads_between && no_links {
            let m1_name = descs[m1].map(|d| d.name.as_str()).unwrap_or("?");
            let m2_name = descs[m2].map(|d| d.name.as_str()).unwrap_or("?");
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

/// Whether appending `candidate` to a chain whose last API is `prev_api`
/// (`None` = chain start) type-checks — the decoder's pruning predicate.
///
/// Decides with [`ApiDescriptor::accepts_input`], exactly as
/// [`ApiChain::validate`] does per step: an unknown `candidate` never
/// extends; an unknown `prev_api` does not prune (the error is reported
/// elsewhere, pruning on top would cascade).
pub fn can_extend(
    registry: &ApiRegistry,
    prev_api: Option<&str>,
    candidate: &str,
    has_session_graph: bool,
) -> bool {
    let Some(desc) = registry.descriptor(candidate) else {
        return false;
    };
    let prev_out = match prev_api {
        None => ValueType::Unit,
        Some(p) => match registry.descriptor(p) {
            Some(d) => d.output,
            None => return true,
        },
    };
    desc.accepts_input(prev_out, has_session_graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use chatgraph_analyzer::diag::Severity;

    fn codes(d: &Diagnostics) -> Vec<&str> {
        d.items.iter().map(|x| x.code.as_str()).collect()
    }

    #[test]
    fn clean_chain_has_no_findings() {
        let reg = registry::standard();
        let chain = ApiChain::from_names(["detect_communities", "generate_report"]);
        let d = analyze(&chain, &reg, true);
        assert!(d.is_empty(), "{}", d.render_text());
    }

    #[test]
    fn parameter_lints_fire_against_declared_schemas() {
        let reg = registry::standard();
        let mut chain = ApiChain::new();
        chain.push(
            ApiCall::new("top_pagerank")
                .with_param("k", "lots") // CG006: unparseable
                .with_param("kk", "3"), // CG005: unknown name
        );
        chain.push(ApiCall::new("generate_report"));
        let d = analyze(&chain, &reg, true);
        let mut cs = codes(&d);
        cs.sort();
        assert_eq!(cs, vec!["CG005", "CG006"]);
        assert!(!d.has_errors(), "parameter lints are warnings");

        let mut chain = ApiChain::new();
        chain.push(ApiCall::new("top_pagerank").with_param("k", "5000")); // CG007
        chain.push(ApiCall::new("generate_report"));
        let d = analyze(&chain, &reg, true);
        assert_eq!(codes(&d), vec!["CG007"]);
    }

    #[test]
    fn garbage_numeric_param_warns_cg006_for_every_api() {
        // Registry-wide: every declared numeric parameter of every API is
        // covered by the unparseable-value lint, so the executor's silent
        // fall-back to the default (or `try_param_*` error) is never the
        // only signal.
        let reg = registry::standard();
        let mut checked = 0usize;
        for d in reg.descriptors() {
            for p in &d.params {
                if p.kind == ParamKind::Text {
                    continue;
                }
                let mut chain = ApiChain::new();
                chain.push(ApiCall::new(&d.name).with_param(&p.name, "not-a-number"));
                let diag = analyze(&chain, &reg, true);
                assert!(
                    diag.items
                        .iter()
                        .any(|x| x.code == "CG006" && x.severity == Severity::Warning),
                    "{} param {}: {}",
                    d.name,
                    p.name,
                    diag.render_text()
                );
                checked += 1;
            }
        }
        assert!(checked >= 8, "expected several numeric params, found {checked}");
    }

    #[test]
    fn can_extend_prunes_exactly_what_validate_rejects() {
        let reg = registry::standard();
        for has_graph in [false, true] {
            for prev in [None, Some("node_count"), Some("largest_component")] {
                // can_extend models only the candidate step's check, so the
                // equivalence is stated for prefixes that validate themselves.
                if let Some(p) = prev {
                    let mut prefix = ApiChain::new();
                    prefix.push(ApiCall::new(p));
                    if prefix.validate(&reg, has_graph).is_err() {
                        continue;
                    }
                }
                for cand in reg.names() {
                    let mut chain = ApiChain::new();
                    if let Some(p) = prev {
                        chain.push(ApiCall::new(p));
                    }
                    chain.push(ApiCall::new(cand));
                    let valid = chain.validate(&reg, has_graph).is_ok();
                    assert_eq!(
                        can_extend(&reg, prev, cand, has_graph),
                        valid,
                        "prev={prev:?} cand={cand} has_graph={has_graph}"
                    );
                }
            }
        }
    }

    #[test]
    fn analyzer_errors_align_with_validate() {
        let reg = registry::standard();
        let chains = [
            vec!["node_count"],
            vec!["frobnicate"],
            vec!["node_count", "remove_edges"],
            vec!["detect_communities", "generate_report"],
            vec!["graph_stats", "graph_stats", "graph_stats"],
        ];
        for names in chains {
            for has_graph in [false, true] {
                let chain = ApiChain::from_names(names.clone());
                let d = analyze(&chain, &reg, has_graph);
                assert_eq!(
                    chain.validate(&reg, has_graph).is_ok(),
                    !d.has_errors(),
                    "{names:?} has_graph={has_graph}: {}",
                    d.render_text()
                );
            }
        }
    }
}
