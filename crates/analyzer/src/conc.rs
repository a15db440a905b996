//! Concurrency lints (CG201–CG205): a lightweight item/block parser on top
//! of [`crate::lexer`] that tracks lock acquisitions per function and checks
//! them against declared lock orders.
//!
//! The workspace's locking discipline — three serving lock classes
//! (`tenants` < `queue` < `session`), the shared `StepMemo` internals,
//! scoped worker pools — used to live only in comments. This
//! pass makes it checked:
//!
//! - **CG201** — the combined declared+observed acquisition graph has a
//!   cycle (potential deadlock), including re-acquiring a held class.
//! - **CG202** — a guard is still held at a dispatch point: a `spawn(`/
//!   `scope(` call or a channel `send` (receiver named `tx`/`sender`/
//!   `*_tx`/`*_sender`); blocking the pool while holding a lock serializes
//!   every tenant behind it and can deadlock a bounded pool.
//! - **CG203** — a nested acquisition contradicts a declared order: class
//!   `B` acquired while `A` is held although an `order(… B … < … A …)`
//!   chain declares `B` before `A`.
//! - **CG204** — poisoned-lock recovery (`unwrap_or_else(…into_inner…)`)
//!   in a function without a `lockdoc: recover` sanction.
//! - **CG205** — `Ordering::Relaxed` sites, counted per file for the
//!   shrink-only `[allow-relaxed]` ratchet in `lint-allow.toml` (the
//!   ratchet itself is enforced by [`crate::repolint::run`]).
//!
//! # lockdoc annotations
//!
//! Directives are standalone comment lines whose trimmed text starts with
//! the exact marker `// lockdoc:` (doc comments and inline trailers are
//! ignored, and test-gated lines never declare directives):
//!
//! - `lockdoc: order(a < b < c)` — workspace-global declared order: `a`
//!   must be acquired before `b`, `b` before `c`.
//! - `lockdoc: acquires(class)` — the next `fn` below the directive is an
//!   acquisition helper: calling it acquires `class` (e.g. `queue_guard`).
//! - `lockdoc: recover(reason)` — sanctions poisoned-lock recovery inside
//!   the enclosing (or immediately following) `fn`, with a human-readable
//!   justification.
//!
//! # Model and limits
//!
//! Lock classes are discovered syntactically — `name: Mutex<…>` /
//! `name: RwLock<…>` fields, bindings, and parameters, plus
//! `let name = Mutex::new(…)` — and are global by name across the
//! workspace. Guard lifetimes follow Rust's drop rules approximately:
//! a binding (`let g = x.lock()…;`, possibly through `unwrap`-family
//! combinators and `?`) lives to the end of its block; a temporary
//! (`x.lock().unwrap().len()`) dies at its statement's `;`. `drop(g)`
//! ends a named guard early. The analysis is per-function (no
//! inter-procedural propagation beyond `acquires` helpers) and
//! intentionally over-approximates `match`/`if let` guards to the
//! enclosing block.

use crate::diag::{Diagnostic, Diagnostics, Span};
use crate::lexer::{self, Token, TokenKind};
use crate::repolint::{is_punct, test_gated_ranges};
use std::collections::{BTreeMap, BTreeSet};

/// Which lock type a class was declared with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `Mutex` — acquired via `.lock()`.
    Mutex,
    /// `RwLock` — acquired via `.read()` / `.write()`.
    RwLock,
}

/// One parsed `// lockdoc:` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `order(a < b < c)`: consecutive pairs are declared edges.
    Order(Vec<String>),
    /// `acquires(class)`: the next `fn` acquires `class` when called.
    Acquires(String),
    /// `recover(reason)`: sanctions poisoned-lock recovery in the
    /// enclosing `fn`.
    Recover(String),
}

/// A directive with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectiveAt {
    /// 1-based line of the directive comment.
    pub line: usize,
    /// The parsed directive.
    pub directive: Directive,
}

/// Extracts lockdoc directives from raw source (the lexer drops comments).
/// Returns the directives plus parse errors as `(line, message)` pairs.
pub fn parse_lockdoc(source: &str) -> (Vec<DirectiveAt>, Vec<(usize, String)>) {
    let mut out = Vec::new();
    let mut errors = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let trimmed = raw.trim_start();
        let Some(rest) = trimmed.strip_prefix("// lockdoc:") else {
            continue;
        };
        let line = idx + 1;
        match parse_directive(rest.trim()) {
            Ok(d) => out.push(DirectiveAt { line, directive: d }),
            Err(why) => errors.push((line, why)),
        }
    }
    (out, errors)
}

fn parse_directive(text: &str) -> Result<Directive, String> {
    let Some((name, rest)) = text.split_once('(') else {
        return Err("expected `name(args)`".to_owned());
    };
    let Some(args) = rest.strip_suffix(')') else {
        return Err("missing closing `)`".to_owned());
    };
    match name.trim() {
        "order" => {
            let classes: Vec<String> = args.split('<').map(|c| c.trim().to_owned()).collect();
            if classes.len() < 2 || classes.iter().any(|c| !is_ident(c)) {
                return Err("order() needs two or more `<`-separated class names".to_owned());
            }
            Ok(Directive::Order(classes))
        }
        "acquires" => {
            let class = args.trim();
            if !is_ident(class) {
                return Err("acquires() needs one class name".to_owned());
            }
            Ok(Directive::Acquires(class.to_owned()))
        }
        "recover" => {
            if args.trim().is_empty() {
                return Err("recover() needs a justification".to_owned());
            }
            Ok(Directive::Recover(args.trim().to_owned()))
        }
        other => Err(format!("unknown lockdoc directive `{other}`")),
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().map(|c| c == '_' || c.is_alphabetic()).unwrap_or(false)
        && s.chars().all(|c| c == '_' || c.is_alphanumeric())
}

/// A function item: name, the `fn` keyword token, its body's brace tokens,
/// and its line extent.
#[derive(Debug, Clone)]
struct FnSpan {
    name: String,
    fn_tok: usize,
    body_open: usize,
    body_close: usize,
    start_line: usize,
    end_line: usize,
}

/// Finds every `fn` item (including nested ones) by brace matching.
fn fn_spans(toks: &[Token]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if toks[i].ident() == Some("fn") {
            if let Some(name) = toks[i + 1].ident() {
                // Find the body `{` (or `;` for a body-less trait method).
                let mut j = i + 2;
                while j < toks.len() && !is_punct(toks, j, '{') && !is_punct(toks, j, ';') {
                    j += 1;
                }
                if is_punct(toks, j, '{') {
                    let close = matching_close(toks, j, '{', '}');
                    out.push(FnSpan {
                        name: name.to_owned(),
                        fn_tok: i,
                        body_open: j,
                        body_close: close,
                        start_line: toks[i].line,
                        end_line: toks[close.min(toks.len() - 1)].line,
                    });
                }
            }
        }
        i += 1;
    }
    out
}

/// Index of the close matching the open bracket at `open` (or `toks.len()-1`
/// when unbalanced).
fn matching_close(toks: &[Token], open: usize, oc: char, cc: char) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct(oc) {
            depth += 1;
        } else if toks[i].is_punct(cc) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Index of the open matching the close bracket at `close` (scanning back).
fn matching_open(toks: &[Token], close: usize, oc: char, cc: char) -> usize {
    let mut depth = 0usize;
    let mut i = close;
    loop {
        if toks[i].is_punct(cc) {
            depth += 1;
        } else if toks[i].is_punct(oc) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        if i == 0 {
            return 0;
        }
        i -= 1;
    }
}

/// Discovers lock classes: `name : … Mutex/RwLock …` (struct fields, typed
/// bindings, parameters) and `let [mut] name = Mutex::new(…)` initializers.
fn lock_classes(toks: &[Token], skip: &[(usize, usize)]) -> BTreeMap<String, LockKind> {
    let mut out = BTreeMap::new();
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(end) = range_containing(skip, i) {
            i = end;
            continue;
        }
        // `name : <lookahead containing Mutex/RwLock>` — exclude `::` paths.
        if let Some(name) = toks[i].ident() {
            let double_colon =
                is_punct(toks, i + 2, ':') || (i > 0 && toks[i - 1].is_punct(':'));
            if is_punct(toks, i + 1, ':') && !double_colon {
                let mut j = i + 2;
                while j < toks.len() && j < i + 18 {
                    match &toks[j].kind {
                        TokenKind::Punct(';' | ',' | ')' | '{' | '}' | '=') => break,
                        TokenKind::Ident(t) if t == "Mutex" || t == "RwLock" => {
                            let kind =
                                if t == "Mutex" { LockKind::Mutex } else { LockKind::RwLock };
                            out.entry(name.to_owned()).or_insert(kind);
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
        }
        // `let [mut] name = Mutex::new(` / `RwLock::new(`.
        if toks[i].ident() == Some("let") {
            let mut j = i + 1;
            if toks.get(j).and_then(Token::ident) == Some("mut") {
                j += 1;
            }
            if let Some(name) = toks.get(j).and_then(Token::ident) {
                if is_punct(toks, j + 1, '=') {
                    if let Some(t) = toks.get(j + 2).and_then(Token::ident) {
                        if t == "Mutex" || t == "RwLock" {
                            let kind =
                                if t == "Mutex" { LockKind::Mutex } else { LockKind::RwLock };
                            out.entry(name.to_owned()).or_insert(kind);
                        }
                    }
                }
            }
        }
        i += 1;
    }
    out
}

fn range_containing(ranges: &[(usize, usize)], i: usize) -> Option<usize> {
    ranges.iter().find(|&&(s, e)| i >= s && i < e).map(|&(_, e)| e)
}

/// `Ordering::Relaxed` site lines in non-test code (CG205 raw material).
fn relaxed_sites(toks: &[Token], skip: &[(usize, usize)]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut i = 3usize;
    while i < toks.len() {
        if let Some(end) = range_containing(skip, i) {
            i = end.max(i + 1);
            continue;
        }
        if toks[i].ident() == Some("Relaxed")
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].ident() == Some("Ordering")
        {
            out.push(toks[i].line);
        }
        i += 1;
    }
    out
}

/// One held guard during the per-function walk.
#[derive(Debug, Clone)]
struct Guard {
    class: String,
    /// Brace depth it was acquired at (block-scoped bindings die when this
    /// depth closes; temporaries also die at a `;` at this depth).
    depth: usize,
    temp: bool,
    name: Option<String>,
}

/// Result of the workspace concurrency pass.
#[derive(Debug, Clone, Default)]
pub struct ConcReport {
    /// CG201–CG204 findings (plus CG105 for malformed lockdoc).
    pub diagnostics: Diagnostics,
    /// Per-file `Ordering::Relaxed` tally: label → (count, first line).
    pub relaxed: BTreeMap<String, (usize, usize)>,
    /// Distinct lock classes discovered or declared.
    pub classes: usize,
    /// Declared order edges.
    pub declared_edges: usize,
    /// Distinct observed nesting edges.
    pub observed_edges: usize,
    /// Poisoned-lock recovery sites seen (sanctioned or not).
    pub recovery_sites: usize,
}

/// Combinators a guard-producing call may be piped through without the
/// binding ceasing to be the guard itself.
const GUARD_COMBINATORS: &[&str] =
    &["unwrap", "unwrap_or_else", "expect", "map_err", "ok", "unwrap_or", "unwrap_or_default"];

/// Runs the concurrency pass over `(label, source)` files as one workspace.
pub fn analyze_files(files: &[(String, String)]) -> ConcReport {
    let mut report = ConcReport::default();

    struct FileCtx {
        label: String,
        toks: Vec<Token>,
        test_ranges: Vec<(usize, usize)>,
        fns: Vec<FnSpan>,
    }

    // Pass 1: lex, find items/directives, merge workspace-global facts.
    let mut ctxs = Vec::with_capacity(files.len());
    let mut classes: BTreeMap<String, LockKind> = BTreeMap::new();
    let mut declared: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut declared_pairs: BTreeSet<(String, String)> = BTreeSet::new();
    // helper fn name -> class it acquires
    let mut helpers: BTreeMap<String, String> = BTreeMap::new();
    // (file index, fn_tok) of recover-sanctioned fns
    let mut sanctioned: BTreeSet<(usize, usize)> = BTreeSet::new();

    for (fi, (label, source)) in files.iter().enumerate() {
        let toks = lexer::scan(source);
        let test_ranges = test_gated_ranges(&toks);
        let test_lines: Vec<(usize, usize)> = test_ranges
            .iter()
            .filter(|&&(s, e)| e > s)
            .map(|&(s, e)| (toks[s].line, toks[e - 1].line))
            .collect();
        let fns: Vec<FnSpan> = fn_spans(&toks)
            .into_iter()
            .filter(|f| range_containing(&test_ranges, f.fn_tok).is_none())
            .collect();
        let (directives, errors) = parse_lockdoc(source);
        let in_test = |line: usize| test_lines.iter().any(|&(s, e)| line >= s && line <= e);
        let directives: Vec<DirectiveAt> =
            directives.into_iter().filter(|d| !in_test(d.line)).collect();
        let errors: Vec<(usize, String)> =
            errors.into_iter().filter(|&(line, _)| !in_test(line)).collect();
        for (line, why) in errors {
            report.diagnostics.push(Diagnostic::new(
                "CG105",
                Span::File { path: label.clone(), line },
                format!("malformed lockdoc directive: {why}"),
            ));
        }

        for (name, kind) in lock_classes(&toks, &test_ranges) {
            classes.entry(name).or_insert(kind);
        }
        for d in &directives {
            match &d.directive {
                Directive::Order(chain) => {
                    for c in chain {
                        classes.entry(c.clone()).or_insert(LockKind::Mutex);
                    }
                    for pair in chain.windows(2) {
                        declared
                            .entry(pair[0].clone())
                            .or_default()
                            .insert(pair[1].clone());
                        declared_pairs.insert((pair[0].clone(), pair[1].clone()));
                    }
                }
                Directive::Acquires(class) => {
                    classes.entry(class.clone()).or_insert(LockKind::Mutex);
                    match fns.iter().filter(|f| f.start_line >= d.line).min_by_key(|f| f.start_line)
                    {
                        Some(f) => {
                            helpers.insert(f.name.clone(), class.clone());
                        }
                        None => report.diagnostics.push(Diagnostic::new(
                            "CG105",
                            Span::File { path: label.clone(), line: d.line },
                            "lockdoc acquires() has no following fn to attach to",
                        )),
                    }
                }
                Directive::Recover(_) => {
                    // Enclosing fn first (innermost), else the fn directly below.
                    let enclosing = fns
                        .iter()
                        .filter(|f| f.start_line <= d.line && d.line <= f.end_line)
                        .max_by_key(|f| f.start_line);
                    let below = fns
                        .iter()
                        .filter(|f| f.start_line >= d.line && f.start_line <= d.line + 3)
                        .min_by_key(|f| f.start_line);
                    match enclosing.or(below) {
                        Some(f) => {
                            sanctioned.insert((fi, f.fn_tok));
                        }
                        None => report.diagnostics.push(Diagnostic::new(
                            "CG105",
                            Span::File { path: label.clone(), line: d.line },
                            "lockdoc recover() has no enclosing fn to sanction",
                        )),
                    }
                }
            }
        }
        ctxs.push(FileCtx { label: label.clone(), toks, test_ranges, fns });
    }
    report.classes = classes.len();
    report.declared_edges = declared_pairs.len();

    // Pass 2: per-function guard tracking.
    let mut observed: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    for (fi, ctx) in ctxs.iter().enumerate() {
        if let Some((line, count)) = count_relaxed(&ctx.toks, &ctx.test_ranges) {
            report.relaxed.insert(ctx.label.clone(), (count, line));
        }
        for f in &ctx.fns {
            let fn_sanctioned = sanctioned.contains(&(fi, f.fn_tok));
            walk_fn(
                &ctx.toks,
                &ctx.label,
                &ctx.fns,
                &ctx.test_ranges,
                f,
                &classes,
                &helpers,
                fn_sanctioned,
                &mut observed,
                &mut report,
            );
        }
    }
    report.observed_edges = observed.len();

    // CG203: observed edges that contradict a declared order. Contradicting
    // edges are excluded from the cycle graph so each bad nesting is
    // reported once, as the more specific code.
    let mut order_violations: BTreeSet<(String, String)> = BTreeSet::new();
    for ((held, acquired), (file, line)) in &observed {
        if held != acquired && reachable(&declared, acquired, held) {
            order_violations.insert((held.clone(), acquired.clone()));
            report.diagnostics.push(
                Diagnostic::new(
                    "CG203",
                    Span::File { path: file.clone(), line: *line },
                    format!(
                        "`{acquired}` acquired while `{held}` is held, but the declared \
                         lock order puts `{acquired}` before `{held}`"
                    ),
                )
                .with_suggestion(format!(
                    "acquire `{acquired}` first, or update the lockdoc order() declaration"
                )),
            );
        }
    }

    // CG201: cycles in declared + (non-violating) observed edges.
    let mut graph: BTreeMap<String, BTreeSet<String>> = declared.clone();
    for (held, acquired) in observed.keys() {
        if !order_violations.contains(&(held.clone(), acquired.clone())) {
            graph.entry(held.clone()).or_default().insert(acquired.clone());
        }
    }
    for cycle in find_cycles(&graph) {
        let site = cycle
            .iter()
            .zip(cycle.iter().cycle().skip(1))
            .find_map(|(a, b)| observed.get(&(a.clone(), b.clone())));
        let span = match site {
            Some((file, line)) => Span::File { path: file.clone(), line: *line },
            None => Span::None,
        };
        let mut path = cycle.clone();
        path.push(cycle[0].clone());
        report.diagnostics.push(
            Diagnostic::new(
                "CG201",
                span,
                format!("lock acquisition cycle: {}", path.join(" -> ")),
            )
            .with_suggestion("break the cycle by acquiring these locks in one declared order"),
        );
    }

    report
}

/// Per-file `Ordering::Relaxed` counting, collapsed to `(first line, count)`.
fn count_relaxed(toks: &[Token], skip: &[(usize, usize)]) -> Option<(usize, usize)> {
    let sites = relaxed_sites(toks, skip);
    sites.first().map(|&first| (first, sites.len()))
}

/// Walks one function body tracking held guards; records observed nesting
/// edges and emits CG202/CG204.
#[allow(clippy::too_many_arguments)]
fn walk_fn(
    toks: &[Token],
    label: &str,
    fns: &[FnSpan],
    file_test_ranges: &[(usize, usize)],
    f: &FnSpan,
    classes: &BTreeMap<String, LockKind>,
    helpers: &BTreeMap<String, String>,
    fn_sanctioned: bool,
    observed: &mut BTreeMap<(String, String), (String, usize)>,
    report: &mut ConcReport,
) {
    // Nested fns are analyzed on their own; skip their tokens here.
    let nested: Vec<(usize, usize)> = fns
        .iter()
        .filter(|g| g.fn_tok > f.body_open && g.body_close < f.body_close)
        .map(|g| (g.fn_tok, g.body_close + 1))
        .collect();

    let mut held: Vec<Guard> = Vec::new();
    let mut depth = 1usize;
    let mut stmt_has_let = false;
    let mut pending_let_name: Option<String> = None;
    let mut i = f.body_open + 1;
    while i < f.body_close {
        if let Some(end) = range_containing(&nested, i) {
            i = end;
            continue;
        }
        if let Some(end) = range_containing(file_test_ranges, i) {
            i = end;
            continue;
        }
        let tok = &toks[i];
        match &tok.kind {
            TokenKind::Punct('{') => {
                depth += 1;
                stmt_has_let = false;
                pending_let_name = None;
            }
            TokenKind::Punct('}') => {
                held.retain(|g| g.depth < depth);
                depth = depth.saturating_sub(1);
                stmt_has_let = false;
                pending_let_name = None;
            }
            TokenKind::Punct(';') => {
                held.retain(|g| !(g.temp && g.depth == depth));
                stmt_has_let = false;
                pending_let_name = None;
            }
            TokenKind::Ident(id) => {
                match id.as_str() {
                    "let" => {
                        stmt_has_let = true;
                        let mut j = i + 1;
                        if toks.get(j).and_then(Token::ident) == Some("mut") {
                            j += 1;
                        }
                        pending_let_name =
                            toks.get(j).and_then(Token::ident).map(str::to_owned);
                    }
                    "drop"
                        if is_punct(toks, i + 1, '(')
                            && is_punct(toks, i + 3, ')') =>
                    {
                        if let Some(name) = toks.get(i + 2).and_then(Token::ident) {
                            held.retain(|g| g.name.as_deref() != Some(name));
                        }
                    }
                    "into_inner" => {
                        let lookback = i.saturating_sub(10)..i;
                        let recovery = lookback
                            .rev()
                            .any(|k| toks[k].ident() == Some("unwrap_or_else"));
                        if recovery {
                            report.recovery_sites += 1;
                            if !fn_sanctioned {
                                report.diagnostics.push(
                                    Diagnostic::new(
                                        "CG204",
                                        Span::File { path: label.to_owned(), line: tok.line },
                                        format!(
                                            "poisoned-lock recovery in `{}` without a \
                                             `lockdoc: recover(...)` sanction",
                                            f.name
                                        ),
                                    )
                                    .with_suggestion(
                                        "justify the recovery with a lockdoc recover() \
                                         directive, or quarantine the poisoned state instead",
                                    ),
                                );
                            }
                        }
                    }
                    "spawn" | "scope"
                        if is_punct(toks, i + 1, '(')
                            && i > 0
                            && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':')) =>
                    {
                        dispatch_check(id, &held, label, tok.line, report);
                    }
                    "send"
                        if is_punct(toks, i + 1, '(')
                            && i > 0
                            && toks[i - 1].is_punct('.')
                            && receiver_ident(toks, i.saturating_sub(2))
                                .map(|r| is_channel_name(&r))
                                .unwrap_or(false) =>
                    {
                        dispatch_check("send", &held, label, tok.line, report);
                    }
                    m @ ("lock" | "read" | "write")
                        if i > 0
                            && toks[i - 1].is_punct('.')
                            && is_punct(toks, i + 1, '(')
                            && is_punct(toks, i + 2, ')') =>
                    {
                        let recv = receiver_ident(toks, i.saturating_sub(2));
                        let want =
                            if m == "lock" { LockKind::Mutex } else { LockKind::RwLock };
                        let class = match recv.as_deref() {
                            Some(r) if classes.get(r) == Some(&want) => Some(r.to_owned()),
                            Some("self") | None => helpers.get(m).cloned(),
                            _ => None,
                        };
                        if let Some(class) = class {
                            acquire(
                                toks, i + 2, &class, tok.line, depth, stmt_has_let,
                                &pending_let_name, &mut held, label, observed,
                            );
                        }
                    }
                    m if helpers.contains_key(m)
                        && is_punct(toks, i + 1, '(')
                        && !(i > 0 && toks[i - 1].ident() == Some("fn")) =>
                    {
                        let close = matching_close(toks, i + 1, '(', ')');
                        let class = helpers[m].clone();
                        acquire(
                            toks, close, &class, tok.line, depth, stmt_has_let,
                            &pending_let_name, &mut held, label, observed,
                        );
                    }
                    _ => {}
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Records an acquisition: nesting edges against every held class, then the
/// new guard with its lifetime classification.
#[allow(clippy::too_many_arguments)]
fn acquire(
    toks: &[Token],
    call_close: usize,
    class: &str,
    line: usize,
    depth: usize,
    stmt_has_let: bool,
    pending_let_name: &Option<String>,
    held: &mut Vec<Guard>,
    label: &str,
    observed: &mut BTreeMap<(String, String), (String, usize)>,
) {
    let mut seen = BTreeSet::new();
    for g in held.iter() {
        if seen.insert(g.class.clone()) {
            observed
                .entry((g.class.clone(), class.to_owned()))
                .or_insert((label.to_owned(), line));
        }
    }
    let after = after_guard_combinators(toks, call_close);
    let (temp, name) = match toks.get(after).map(|t| &t.kind) {
        Some(TokenKind::Punct(';')) if stmt_has_let => (false, pending_let_name.clone()),
        Some(TokenKind::Punct('{')) => (false, None),
        _ => (true, None),
    };
    held.push(Guard { class: class.to_owned(), depth, temp, name });
}

/// Steps past `?` and `unwrap`-family combinators after a guard-producing
/// call's closing `)`; returns the index of the first token after the chain.
fn after_guard_combinators(toks: &[Token], mut close: usize) -> usize {
    loop {
        if is_punct(toks, close + 1, '?') {
            close += 1;
            continue;
        }
        if is_punct(toks, close + 1, '.')
            && toks
                .get(close + 2)
                .and_then(Token::ident)
                .map(|m| GUARD_COMBINATORS.contains(&m))
                .unwrap_or(false)
            && is_punct(toks, close + 3, '(')
        {
            close = matching_close(toks, close + 3, '(', ')');
            continue;
        }
        return close + 1;
    }
}

/// The receiver identifier of a method call: `j` points at the token before
/// the `.`; steps back over one `[...]` index expression.
fn receiver_ident(toks: &[Token], j: usize) -> Option<String> {
    if toks.get(j)?.is_punct(']') {
        let open = matching_open(toks, j, '[', ']');
        if open == 0 {
            return None;
        }
        return toks.get(open - 1)?.ident().map(str::to_owned);
    }
    toks.get(j)?.ident().map(str::to_owned)
}

fn is_channel_name(name: &str) -> bool {
    name == "tx" || name == "sender" || name.ends_with("_tx") || name.ends_with("_sender")
}

fn dispatch_check(what: &str, held: &[Guard], label: &str, line: usize, report: &mut ConcReport) {
    if held.is_empty() {
        return;
    }
    let mut classes: Vec<&str> = held.iter().map(|g| g.class.as_str()).collect();
    classes.sort_unstable();
    classes.dedup();
    report.diagnostics.push(
        Diagnostic::new(
            "CG202",
            Span::File { path: label.to_owned(), line },
            format!("`{what}(` reached while holding lock(s): {}", classes.join(", ")),
        )
        .with_suggestion("drop the guard before dispatching to the pool or channel"),
    );
}

/// BFS reachability `from ⇒* to` in a declared-order adjacency map.
fn reachable(graph: &BTreeMap<String, BTreeSet<String>>, from: &str, to: &str) -> bool {
    let mut queue = vec![from.to_owned()];
    let mut seen = BTreeSet::new();
    while let Some(n) = queue.pop() {
        if n == to {
            return true;
        }
        if let Some(next) = graph.get(&n) {
            for m in next {
                if seen.insert(m.clone()) {
                    queue.push(m.clone());
                }
            }
        }
    }
    false
}

/// Finds elementary cycles via DFS back-edges, deduplicated by node set.
/// Exhaustiveness isn't needed: one representative per cyclic knot is
/// enough to fail the lint.
fn find_cycles(graph: &BTreeMap<String, BTreeSet<String>>) -> Vec<Vec<String>> {
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let mut seen_sets: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut done: BTreeSet<String> = BTreeSet::new();
    for start in graph.keys() {
        if done.contains(start) {
            continue;
        }
        let mut stack: Vec<(String, Vec<String>)> = vec![(start.clone(), vec![start.clone()])];
        while let Some((node, path)) = stack.pop() {
            for next in graph.get(&node).into_iter().flatten() {
                if let Some(pos) = path.iter().position(|p| p == next) {
                    let cycle: Vec<String> = path[pos..].to_vec();
                    let mut key = cycle.clone();
                    key.sort();
                    if seen_sets.insert(key) {
                        cycles.push(cycle);
                    }
                } else if path.len() <= graph.len() {
                    let mut p = path.clone();
                    p.push(next.clone());
                    stack.push((next.clone(), p));
                }
            }
            done.insert(node);
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> ConcReport {
        let owned: Vec<(String, String)> =
            files.iter().map(|(l, s)| (l.to_string(), s.to_string())).collect();
        analyze_files(&owned)
    }

    fn codes(report: &ConcReport) -> Vec<&str> {
        report.diagnostics.items.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn lockdoc_grammar_parses_and_rejects() {
        let src = "
// lockdoc: order(a < b < c)
// lockdoc: acquires(queue)
// lockdoc: recover(poison tolerated: state is re-validated)
// lockdoc: order(a)
// lockdoc: frobnicate(x)
";
        let (dirs, errs) = parse_lockdoc(src);
        assert_eq!(dirs.len(), 3);
        assert_eq!(
            dirs[0].directive,
            Directive::Order(vec!["a".into(), "b".into(), "c".into()])
        );
        assert_eq!(dirs[1].directive, Directive::Acquires("queue".into()));
        assert_eq!(errs.len(), 2, "{errs:?}");
    }

    #[test]
    fn doc_comments_and_inline_trailers_are_not_directives() {
        let src = "
//! Explains the grammar: `lockdoc: order(a < b)` etc.
/// Also fine in a doc comment: lockdoc: order(b < a)
fn f() {} // trailing code comment, lockdoc: acquires(x)
";
        let (dirs, errs) = parse_lockdoc(src);
        assert!(dirs.is_empty(), "{dirs:?}");
        assert!(errs.is_empty(), "{errs:?}");
    }

    /// Golden fixture: two functions acquiring two mutexes in opposite
    /// orders — the classic deadlock — is a CG201 cycle.
    #[test]
    fn cg201_fires_on_acquisition_cycle() {
        let src = "
pub struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn ab(&self) { let ga = self.a.lock().unwrap(); let gb = self.b.lock().unwrap(); }
    fn ba(&self) { let gb = self.b.lock().unwrap(); let ga = self.a.lock().unwrap(); }
}
";
        let report = run(&[("x.rs", src)]);
        assert!(codes(&report).contains(&"CG201"), "{:?}", report.diagnostics.render_text());
        assert_eq!(report.observed_edges, 2);
    }

    /// Golden fixture: re-acquiring a held (non-reentrant) mutex is a
    /// self-cycle.
    #[test]
    fn cg201_fires_on_reacquiring_held_lock() {
        let src = "
pub struct S { a: Mutex<u32> }
impl S {
    fn f(&self) { let g1 = self.a.lock().unwrap(); let g2 = self.a.lock().unwrap(); }
}
";
        let report = run(&[("x.rs", src)]);
        assert_eq!(codes(&report), vec!["CG201"], "{}", report.diagnostics.render_text());
    }

    /// Golden fixture: a guard held across a scoped spawn (CG202).
    #[test]
    fn cg202_fires_on_guard_held_across_spawn() {
        let src = "
pub struct S { a: Mutex<u32> }
impl S {
    fn f(&self) {
        let g = self.a.lock().unwrap();
        std::thread::scope(|s| { s.spawn(|| ()); });
    }
}
";
        let report = run(&[("x.rs", src)]);
        let cs = codes(&report);
        assert!(cs.contains(&"CG202"), "{}", report.diagnostics.render_text());
    }

    /// Golden fixture: a guard held across a channel send (CG202) — but
    /// only for channel-shaped receivers, so `session.send(prompt)` on an
    /// ordinary object is not flagged.
    #[test]
    fn cg202_send_is_restricted_to_channel_receivers() {
        let bad = "
pub struct S { a: Mutex<u32> }
fn f(s: &S, tx: Sender<u32>) { let g = s.a.lock().unwrap(); tx.send(1).unwrap(); }
";
        let ok = "
pub struct S { a: Mutex<u32> }
fn f(s: &S, session: &Session) { let g = s.a.lock().unwrap(); session.send(1); }
";
        assert!(codes(&run(&[("bad.rs", bad)])).contains(&"CG202"));
        assert!(!codes(&run(&[("ok.rs", ok)])).contains(&"CG202"));
    }

    /// Statement-scoped temporaries die at their `;`, so the serve-loop
    /// shape — collect under a guard, then spawn — stays clean.
    #[test]
    fn cg202_does_not_fire_on_statement_scoped_temporary() {
        let src = "
pub struct S { a: Mutex<Vec<u32>> }
impl S {
    fn f(&self) {
        let snapshot: Vec<u32> = self.a.lock().unwrap().clone();
        std::thread::scope(|s| { s.spawn(|| snapshot.len()); });
    }
}
";
        let report = run(&[("x.rs", src)]);
        assert!(report.diagnostics.is_empty(), "{}", report.diagnostics.render_text());
    }

    /// An explicit `drop(guard)` releases a block-scoped guard early.
    #[test]
    fn explicit_drop_releases_guard() {
        let src = "
pub struct S { a: Mutex<u32> }
impl S {
    fn f(&self) {
        let g = self.a.lock().unwrap();
        drop(g);
        std::thread::scope(|s| { s.spawn(|| ()); });
    }
}
";
        let report = run(&[("x.rs", src)]);
        assert!(report.diagnostics.is_empty(), "{}", report.diagnostics.render_text());
    }

    /// Golden fixture: nesting against a declared order is CG203 (and the
    /// contradicting edge is not double-reported as a CG201 cycle).
    #[test]
    fn cg203_fires_on_declared_order_violation() {
        let src = "
// lockdoc: order(a < b)
pub struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn f(&self) { let gb = self.b.lock().unwrap(); let ga = self.a.lock().unwrap(); }
}
";
        let report = run(&[("x.rs", src)]);
        assert_eq!(codes(&report), vec!["CG203"], "{}", report.diagnostics.render_text());
    }

    /// Nesting along the declared order is clean, including through a
    /// transitive declared chain.
    #[test]
    fn declared_order_respected_is_clean() {
        let src = "
// lockdoc: order(a < b < c)
pub struct S { a: Mutex<u32>, b: Mutex<u32>, c: Mutex<u32> }
impl S {
    fn f(&self) {
        let ga = self.a.lock().unwrap();
        let gc = self.c.lock().unwrap();
    }
}
";
        let report = run(&[("x.rs", src)]);
        assert!(report.diagnostics.is_empty(), "{}", report.diagnostics.render_text());
        assert_eq!(report.declared_edges, 2);
        assert_eq!(report.observed_edges, 1);
    }

    /// Golden fixture: `unwrap_or_else(|e| e.into_inner())` without a
    /// recover sanction is CG204; with one, it is clean — and consuming
    /// `Mutex::into_inner` (no unwrap_or_else) is never flagged.
    #[test]
    fn cg204_requires_recover_sanction() {
        let bad = "
pub struct S { a: Mutex<u32> }
impl S {
    fn f(&self) -> u32 { *self.a.lock().unwrap_or_else(|e| e.into_inner()) }
}
";
        let good = "
pub struct S { a: Mutex<u32> }
impl S {
    fn f(&self) -> u32 {
        // lockdoc: recover(counter is monotonic; a poisoned write cannot corrupt it)
        *self.a.lock().unwrap_or_else(|e| e.into_inner())
    }
    fn consume(self) -> u32 { self.a.into_inner().unwrap_or(0) }
}
";
        let report = run(&[("bad.rs", bad)]);
        assert_eq!(codes(&report), vec!["CG204"], "{}", report.diagnostics.render_text());
        assert_eq!(report.recovery_sites, 1);
        let report = run(&[("good.rs", good)]);
        assert!(report.diagnostics.is_empty(), "{}", report.diagnostics.render_text());
        assert_eq!(report.recovery_sites, 1);
    }

    /// `lockdoc: acquires(...)` helpers count as acquisitions at call sites,
    /// giving cross-function edges the per-fn walk cannot see natively.
    #[test]
    fn acquires_helper_records_edges_at_call_sites() {
        let src = "
// lockdoc: order(a < b)
pub struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    // lockdoc: acquires(b)
    fn b_guard(&self) -> MutexGuard<u32> {
        // lockdoc: recover(guard helpers tolerate poison by design)
        self.b.lock().unwrap_or_else(|e| e.into_inner())
    }
    fn ok(&self) { let ga = self.a.lock().unwrap(); let gb = self.b_guard(); }
    fn bad(&self) { let gb = self.b_guard(); let ga = self.a.lock().unwrap(); }
}
";
        let report = run(&[("x.rs", src)]);
        assert_eq!(codes(&report), vec!["CG203"], "{}", report.diagnostics.render_text());
    }

    /// CG205 raw material: `Ordering::Relaxed` sites are counted per file,
    /// outside test code only.
    #[test]
    fn relaxed_sites_are_counted_per_file() {
        let src = "
use std::sync::atomic::{AtomicU32, Ordering};
fn f(a: &AtomicU32) -> u32 {
    a.fetch_add(1, Ordering::Relaxed);
    a.load(Ordering::Relaxed) + a.load(Ordering::Acquire)
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { AtomicU32::new(0).load(std::sync::atomic::Ordering::Relaxed); }
}
";
        let report = run(&[("x.rs", src)]);
        let (count, first) = report.relaxed["x.rs"];
        assert_eq!(count, 2);
        assert_eq!(first, 4);
    }

    /// Test-gated code neither declares directives nor contributes
    /// acquisitions — fixture strings in unit tests cannot poison the
    /// workspace lock-order graph.
    #[test]
    fn test_gated_code_is_exempt() {
        let src = "
pub fn lib() {}
#[cfg(test)]
mod tests {
    // lockdoc: order(zz_a < zz_b)
    struct T { zz_a: Mutex<u32>, zz_b: Mutex<u32> }
    fn f(t: &T) { let g = t.zz_b.lock().unwrap(); let h = t.zz_a.lock().unwrap(); }
}
";
        let report = run(&[("x.rs", src)]);
        assert!(report.diagnostics.is_empty(), "{}", report.diagnostics.render_text());
        assert_eq!(report.declared_edges, 0);
        assert_eq!(report.observed_edges, 0);
    }

    #[test]
    fn malformed_lockdoc_is_cg105() {
        let report = run(&[("x.rs", "// lockdoc: order(one)\nfn f() {}\n")]);
        assert_eq!(codes(&report), vec!["CG105"]);
    }

    /// Locals bound with `let jobs = Mutex::new(..)` and indexed slot
    /// vectors (`slots[i].lock()`) both resolve to classes.
    #[test]
    fn local_mutexes_and_indexed_receivers_resolve() {
        let src = "
fn f() {
    let jobs = Mutex::new(1u32);
    let slots: Vec<Mutex<u32>> = Vec::new();
    let g = jobs.lock().unwrap();
    let h = slots[0].lock().unwrap();
}
";
        let report = run(&[("x.rs", src)]);
        assert_eq!(report.observed_edges, 1, "{}", report.diagnostics.render_text());
        assert!(report.classes >= 2);
    }
}
