//! Repository lint: in-tree enforcement of workspace invariants.
//!
//! The zero-external-dependency policy rules out clippy plugins and
//! cargo-deny, so the invariants live here, on top of the hand-rolled
//! [`crate::lexer`]:
//!
//! - **CG101** — `unwrap`/`expect`/`panic!` in non-test library code, as a
//!   ratchet against the checked-in `lint-allow.toml`: each file's actual
//!   panic-site count must not exceed its allowed count.
//! - **CG102** — a stale allowlist entry (allowed > actual): the ratchet
//!   only shrinks, so converted panic sites must be removed from the list
//!   (run `--update-allowlist`).
//! - **CG103** — any `unsafe` in the workspace.
//! - **CG104** — a non-hermetic dependency in any manifest (registry
//!   version, `git`, `registry`, `branch`, `tag`, `rev`); every dependency
//!   must be an in-workspace `path`/`workspace = true` reference.
//! - **CG105** — I/O failures while linting (missing allowlist, unreadable
//!   files, suspicious workspace layout).
//! - **CG106** — `catch_unwind` outside the chain supervisor
//!   (`crates/apis/src/supervisor.rs`): panic isolation has exactly one
//!   boundary, so payloads are always classified and attributed there.
//! - **CG107** — `thread::scope`/`thread::spawn` outside the serving layer's
//!   drain pool (`crates/core/src/serve.rs`): requests run in parallel
//!   across tenants there, and nothing inside a request starts threads.
//! - **CG201–CG204** — the concurrency lints from [`crate::conc`]: lock
//!   acquisition cycles, guards held across dispatch points, declared-order
//!   violations, and unsanctioned poisoned-lock recovery.
//! - **CG205** — `Ordering::Relaxed` sites, ratcheted per file against the
//!   `[allow-relaxed]` section of `lint-allow.toml` (shrink-only, like the
//!   panic-site ratchet).
//!
//! Test code is exempt from CG101: items annotated with an attribute that
//! mentions `test` (and not `not`, so `#[cfg(not(test))]` still counts) are
//! skipped, as are `tests/`, `benches/`, and `examples/` trees, which are
//! never walked.

use crate::diag::{Diagnostic, Diagnostics, Span};
use crate::lexer::{self, Token};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// One offending site in a source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// 1-based line.
    pub line: usize,
    /// What was found (`unwrap`, `expect`, `panic!`, `unsafe`).
    pub what: String,
}

/// Everything repolint extracts from one source file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceScan {
    /// `unwrap()`/`expect()`/`panic!` sites in non-test code.
    pub panic_sites: Vec<Site>,
    /// `unsafe` keywords in non-test code.
    pub unsafe_sites: Vec<Site>,
    /// `catch_unwind` mentions in non-test code (CG106).
    pub catch_unwind_sites: Vec<Site>,
    /// `thread::scope`/`thread::spawn` paths in non-test code (CG107).
    pub thread_sites: Vec<Site>,
}

/// Scans one file's source for panic and unsafe sites, skipping test-only
/// items.
pub fn scan_source(source: &str) -> SourceScan {
    let toks = lexer::scan(source);
    let mut out = SourceScan::default();
    let mut i = 0usize;
    while i < toks.len() {
        // Inner attribute `#![...]`: applies to the enclosing scope; just
        // step over it (the workspace has no file-level test gating).
        if is_punct(&toks, i, '#') && is_punct(&toks, i + 1, '!') && is_punct(&toks, i + 2, '[') {
            i = attribute_end(&toks, i + 2).0;
            continue;
        }
        // Outer attribute `#[...]`: if it gates the next item to tests,
        // skip that item (and any stacked attributes) entirely.
        if is_punct(&toks, i, '#') && is_punct(&toks, i + 1, '[') {
            let (mut end, mut is_test) = attribute_end(&toks, i + 1);
            while is_punct(&toks, end, '#') && is_punct(&toks, end + 1, '[') {
                let (e, t) = attribute_end(&toks, end + 1);
                end = e;
                is_test = is_test || t;
            }
            i = if is_test { item_end(&toks, end) } else { end };
            continue;
        }
        match toks[i].ident() {
            Some("unsafe") => out.unsafe_sites.push(Site { line: toks[i].line, what: "unsafe".into() }),
            Some("catch_unwind") => {
                out.catch_unwind_sites.push(Site { line: toks[i].line, what: "catch_unwind".into() });
            }
            Some("thread") if is_punct(&toks, i + 1, ':') && is_punct(&toks, i + 2, ':') => {
                if let Some(f @ ("scope" | "spawn")) = toks.get(i + 3).and_then(Token::ident) {
                    out.thread_sites.push(Site { line: toks[i].line, what: format!("thread::{f}") });
                }
            }
            Some("panic") if is_punct(&toks, i + 1, '!') => {
                out.panic_sites.push(Site { line: toks[i].line, what: "panic!".into() });
            }
            Some(m @ ("unwrap" | "expect"))
                if i > 0 && toks[i - 1].is_punct('.') && is_punct(&toks, i + 1, '(') =>
            {
                out.panic_sites.push(Site { line: toks[i].line, what: m.into() });
            }
            _ => {}
        }
        i += 1;
    }
    out
}

pub(crate) fn is_punct(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).map(|t| t.is_punct(c)).unwrap_or(false)
}

/// Token-index ranges of test-gated items (`#[test]` fns, `#[cfg(test)]`
/// mods, …), each starting at the gating attribute's `#` and ending just
/// past the item. Shared by [`scan_source`] and the concurrency pass so
/// both exempt exactly the same regions.
pub(crate) fn test_gated_ranges(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is_punct(toks, i, '#') && is_punct(toks, i + 1, '!') && is_punct(toks, i + 2, '[') {
            i = attribute_end(toks, i + 2).0;
            continue;
        }
        if is_punct(toks, i, '#') && is_punct(toks, i + 1, '[') {
            let start = i;
            let (mut end, mut is_test) = attribute_end(toks, i + 1);
            while is_punct(toks, end, '#') && is_punct(toks, end + 1, '[') {
                let (e, t) = attribute_end(toks, end + 1);
                end = e;
                is_test = is_test || t;
            }
            if is_test {
                let item = item_end(toks, end);
                out.push((start, item));
                i = item;
            } else {
                i = end;
            }
            continue;
        }
        i += 1;
    }
    out
}

/// Given the index of an attribute's opening `[`, returns the index just
/// past its matching `]` and whether the attribute gates the item to tests
/// (mentions `test` without `not`).
pub(crate) fn attribute_end(toks: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut saw_test = false;
    let mut saw_not = false;
    let mut i = open;
    while i < toks.len() {
        if is_punct(toks, i, '[') {
            depth += 1;
        } else if is_punct(toks, i, ']') {
            depth -= 1;
            if depth == 0 {
                return (i + 1, saw_test && !saw_not);
            }
        } else if let Some(id) = toks[i].ident() {
            saw_test |= id == "test";
            saw_not |= id == "not";
        }
        i += 1;
    }
    (toks.len(), false)
}

/// Given the index of the first token of an item, returns the index just
/// past it: either the matching close of its `{...}` body, or the `;` that
/// ends a body-less item.
pub(crate) fn item_end(toks: &[Token], start: usize) -> usize {
    let mut i = start;
    while i < toks.len() {
        if is_punct(toks, i, ';') {
            return i + 1;
        }
        if is_punct(toks, i, '{') {
            let mut depth = 0usize;
            while i < toks.len() {
                if is_punct(toks, i, '{') {
                    depth += 1;
                } else if is_punct(toks, i, '}') {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                i += 1;
            }
            return i;
        }
        i += 1;
    }
    i
}

/// True for section headers that declare dependencies, e.g.
/// `[dependencies]`, `[dev-dependencies]`, `[workspace.dependencies]`.
fn is_dependency_section(header: &str) -> bool {
    header.trim_matches(['[', ']']).ends_with("dependencies")
}

/// Lints one manifest for hermeticity: every dependency entry must resolve
/// inside the workspace (a `path` or `workspace = true` reference), never a
/// registry version, `git`, `registry`, `branch`, `tag`, or `rev` spec.
/// When `require_internal_names` is set (the root manifest), dependency
/// names must also all be in-workspace `chatgraph*` crates. Returns the
/// findings plus the number of dependency entries inspected.
pub fn lint_manifest(path_label: &str, text: &str, require_internal_names: bool) -> (Vec<Diagnostic>, usize) {
    let mut out = Vec::new();
    let mut entries = 0usize;
    let mut in_dep_section = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            in_dep_section = is_dependency_section(line);
            continue;
        }
        if !in_dep_section {
            continue;
        }
        let Some((name, spec)) = line.split_once('=') else {
            continue;
        };
        entries += 1;
        let name = name.trim();
        let spec = spec.trim();
        let span = Span::File { path: path_label.to_owned(), line: idx + 1 };
        let mut fail = |why: String| {
            out.push(
                Diagnostic::new("CG104", span.clone(), format!("dependency `{name}` {why}"))
                    .with_suggestion("use a `path` or `workspace = true` dependency"),
            );
        };
        for banned in ["version", "git", "registry", "branch", "tag", "rev"] {
            if spec.contains(&format!("{banned} =")) || spec.contains(&format!("{banned}=")) {
                fail(format!("declares `{banned}` — not a path dependency"));
            }
        }
        if spec.starts_with('"') {
            fail("uses a bare version string (registry dependency)".to_owned());
        }
        // `name.workspace = true` puts the marker in the key; inline tables
        // (`name = { workspace = true }` / `{ path = "..." }`) in the value.
        let workspace_ref = name.ends_with(".workspace") && spec == "true";
        if !workspace_ref && !spec.contains("path") && !spec.contains("workspace") {
            fail("is neither a `path` nor a `workspace = true` dependency".to_owned());
        }
        if require_internal_names {
            let base = name.trim_end_matches(".workspace");
            if !base.starts_with("chatgraph") {
                fail("is not an in-workspace `chatgraph*` crate".to_owned());
            }
        }
    }
    (out, entries)
}

/// Both shrink-only ratchets stored in `lint-allow.toml`: `[allow]` caps
/// panic sites per file, `[allow-relaxed]` caps `Ordering::Relaxed` sites.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allowlists {
    /// `[allow]`: permitted panic sites (unwrap/expect/panic!) per file.
    pub panic: BTreeMap<String, usize>,
    /// `[allow-relaxed]`: permitted `Ordering::Relaxed` sites per file.
    pub relaxed: BTreeMap<String, usize>,
}

/// Parses a `lint-allow.toml` ratchet file: an `[allow]` section and an
/// optional `[allow-relaxed]` section of `"path" = count` entries.
pub fn parse_allowlists(text: &str) -> Result<Allowlists, String> {
    let mut lists = Allowlists::default();
    let mut section: Option<&str> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = match line {
                "[allow]" => Some("allow"),
                "[allow-relaxed]" => Some("allow-relaxed"),
                other => return Err(format!("line {}: unknown section {other}", idx + 1)),
            };
            continue;
        }
        let map = match section {
            Some("allow") => &mut lists.panic,
            Some("allow-relaxed") => &mut lists.relaxed,
            _ => return Err(format!("line {}: entry outside the [allow] section", idx + 1)),
        };
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {}: expected `\"path\" = count`", idx + 1));
        };
        let key = key.trim().trim_matches('"').to_owned();
        let count: usize = value
            .trim()
            .parse()
            .map_err(|_| format!("line {}: count is not an integer", idx + 1))?;
        map.insert(key, count);
    }
    Ok(lists)
}

/// Renders both ratchets back to `lint-allow.toml` text.
pub fn render_allowlists(lists: &Allowlists) -> String {
    let mut out = String::from(
        "# repolint ratchets (shrink-only). Regenerate with:\n\
         #   cargo run -p chatgraph-analyzer --bin repolint -- --update-allowlist\n\
         #\n\
         # [allow]: permitted panic sites (unwrap/expect/panic!) per file of\n\
         # non-test library code.\n\
         \n[allow]\n",
    );
    for (path, count) in &lists.panic {
        out.push_str(&format!("\"{path}\" = {count}\n"));
    }
    out.push_str(
        "\n# [allow-relaxed]: permitted `Ordering::Relaxed` atomic sites per file\n\
         # (CG205); new code must justify Relaxed or use Acquire/Release.\n\
         \n[allow-relaxed]\n",
    );
    for (path, count) in &lists.relaxed {
        out.push_str(&format!("\"{path}\" = {count}\n"));
    }
    out
}

/// Parses just the `[allow]` panic-site ratchet (compat wrapper).
pub fn parse_allowlist(text: &str) -> Result<BTreeMap<String, usize>, String> {
    parse_allowlists(text).map(|l| l.panic)
}

/// Renders a panic-site-only allowlist (compat wrapper).
pub fn render_allowlist(map: &BTreeMap<String, usize>) -> String {
    render_allowlists(&Allowlists { panic: map.clone(), relaxed: BTreeMap::new() })
}

/// The one file allowed to `catch_unwind` (CG106): the chain supervisor's
/// panic-isolation boundary.
pub const SUPERVISOR_PATH: &str = "crates/apis/src/supervisor.rs";

/// The one file allowed to start threads (CG107): the serving layer's drain
/// pool, the only level of parallelism.
pub const DRAIN_POOL_PATH: &str = "crates/core/src/serve.rs";

/// Outcome of a repolint run.
#[derive(Debug, Clone, Default)]
pub struct RepolintReport {
    /// All findings.
    pub diagnostics: Diagnostics,
    /// Files scanned for panic/unsafe sites.
    pub files_scanned: usize,
    /// Total panic sites found in non-test library code.
    pub total_panic_sites: usize,
    /// Total `Ordering::Relaxed` sites found in non-test library code.
    pub total_relaxed_sites: usize,
    /// New allowlist text, when `--update-allowlist` was requested.
    pub updated_allowlist: Option<String>,
}

/// The workspace's member manifests: the root `Cargo.toml` plus every
/// `crates/*/Cargo.toml`, sorted.
pub fn workspace_manifests(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    let entries = fs::read_dir(&crates).map_err(|e| format!("read {}: {e}", crates.display()))?;
    let mut members: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path().join("Cargo.toml"))
        .filter(|p| p.is_file())
        .collect();
    members.sort();
    if members.len() < 9 {
        return Err(format!(
            "expected at least 9 member manifests under {}, found {}",
            crates.display(),
            members.len()
        ));
    }
    out.extend(members);
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`, sorted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
}

fn rel_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Runs every repolint pass over the workspace at `root`.
///
/// With `update_allowlist`, the ratchet comparison is replaced by a freshly
/// rendered allowlist in [`RepolintReport::updated_allowlist`] (the caller
/// writes it); unsafe and manifest findings are still reported.
pub fn run(root: &Path, update_allowlist: bool) -> RepolintReport {
    let mut report = RepolintReport::default();
    let sink = &mut report.diagnostics;

    // Manifest hermeticity (CG104), absorbing tests/hermetic.rs.
    let manifests = match workspace_manifests(root) {
        Ok(m) => m,
        Err(why) => {
            sink.push(Diagnostic::new("CG105", Span::None, why));
            return report;
        }
    };
    let mut entries_seen = 0usize;
    for manifest in &manifests {
        let label = rel_label(root, manifest);
        match fs::read_to_string(manifest) {
            Ok(text) => {
                let is_root = label == "Cargo.toml";
                let (diags, entries) = lint_manifest(&label, &text, is_root);
                entries_seen += entries;
                for d in diags {
                    sink.push(d);
                }
            }
            Err(e) => sink.push(Diagnostic::new(
                "CG105",
                Span::File { path: label, line: 0 },
                format!("unreadable manifest: {e}"),
            )),
        }
    }
    if entries_seen < 9 {
        sink.push(Diagnostic::new(
            "CG105",
            Span::None,
            format!("suspiciously few dependency entries parsed ({entries_seen}); did the manifest layout change?"),
        ));
    }

    // Source lints (CG101/CG103) over every member's src/ tree. tests/,
    // benches/, and examples/ are test-or-harness code and never walked.
    let mut files = Vec::new();
    for manifest in &manifests {
        if let Some(dir) = manifest.parent() {
            rust_files(&dir.join("src"), &mut files);
        }
    }
    let mut actual: BTreeMap<String, (usize, usize)> = BTreeMap::new(); // path -> (count, first line)
    let mut texts: Vec<(String, String)> = Vec::with_capacity(files.len());
    for file in &files {
        let label = rel_label(root, file);
        let text = match fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                sink.push(Diagnostic::new(
                    "CG105",
                    Span::File { path: label, line: 0 },
                    format!("unreadable source file: {e}"),
                ));
                continue;
            }
        };
        report.files_scanned += 1;
        let scan = scan_source(&text);
        for site in &scan.unsafe_sites {
            sink.push(Diagnostic::new(
                "CG103",
                Span::File { path: label.clone(), line: site.line },
                "`unsafe` is banned in this workspace",
            ));
        }
        if label != SUPERVISOR_PATH {
            for site in &scan.catch_unwind_sites {
                sink.push(
                    Diagnostic::new(
                        "CG106",
                        Span::File { path: label.clone(), line: site.line },
                        format!("`catch_unwind` outside the supervisor ({SUPERVISOR_PATH})"),
                    )
                    .with_suggestion("let panics propagate to the supervisor's single isolation boundary"),
                );
            }
        }
        if label != DRAIN_POOL_PATH {
            for site in &scan.thread_sites {
                sink.push(
                    Diagnostic::new(
                        "CG107",
                        Span::File { path: label.clone(), line: site.line },
                        format!("`{}` outside the drain pool ({DRAIN_POOL_PATH})", site.what),
                    )
                    .with_suggestion("run the work on the calling thread; requests are parallel across tenants on the drain pool"),
                );
            }
        }
        if let Some(first) = scan.panic_sites.first() {
            actual.insert(label.clone(), (scan.panic_sites.len(), first.line));
        }
        report.total_panic_sites += scan.panic_sites.len();
        texts.push((label, text));
    }

    // Concurrency pass (CG201–CG204 + lockdoc hygiene) over the same
    // non-test library sources, as one workspace-wide lock-order graph.
    let conc = crate::conc::analyze_files(&texts);
    report.total_relaxed_sites = conc.relaxed.values().map(|&(n, _)| n).sum();
    sink.extend(conc.diagnostics);

    // Ratchets (CG101/CG102 panic sites, CG205 Relaxed sites) against
    // lint-allow.toml.
    if update_allowlist {
        let lists = Allowlists {
            panic: actual.iter().map(|(k, &(n, _))| (k.clone(), n)).collect(),
            relaxed: conc.relaxed.iter().map(|(k, &(n, _))| (k.clone(), n)).collect(),
        };
        report.updated_allowlist = Some(render_allowlists(&lists));
        return report;
    }
    let allow_path = root.join("lint-allow.toml");
    let allowed = match fs::read_to_string(&allow_path) {
        Ok(text) => match parse_allowlists(&text) {
            Ok(map) => map,
            Err(why) => {
                sink.push(Diagnostic::new(
                    "CG105",
                    Span::File { path: "lint-allow.toml".into(), line: 0 },
                    format!("malformed allowlist: {why}"),
                ));
                return report;
            }
        },
        Err(e) => {
            sink.push(
                Diagnostic::new(
                    "CG105",
                    Span::File { path: "lint-allow.toml".into(), line: 0 },
                    format!("missing allowlist: {e}"),
                )
                .with_suggestion("run with --update-allowlist to generate it"),
            );
            return report;
        }
    };
    for (path, &(count, first_line)) in &actual {
        let cap = allowed.panic.get(path).copied().unwrap_or(0);
        if count > cap {
            sink.push(
                Diagnostic::new(
                    "CG101",
                    Span::File { path: path.clone(), line: first_line },
                    format!(
                        "{count} panic site(s) (unwrap/expect/panic!) in non-test library code, allowlist permits {cap}"
                    ),
                )
                .with_suggestion("return a Result instead, or (for pre-existing code) regenerate the allowlist"),
            );
        }
    }
    for (path, &cap) in &allowed.panic {
        let count = actual.get(path).map(|&(n, _)| n).unwrap_or(0);
        if cap > count {
            sink.push(
                Diagnostic::new(
                    "CG102",
                    Span::File { path: path.clone(), line: 0 },
                    format!("stale allowlist entry: permits {cap} panic site(s) but the file has {count}"),
                )
                .with_suggestion("the ratchet only shrinks — run --update-allowlist to tighten it"),
            );
        }
    }
    for (path, &(count, first_line)) in &conc.relaxed {
        let cap = allowed.relaxed.get(path).copied().unwrap_or(0);
        if count > cap {
            sink.push(
                Diagnostic::new(
                    "CG205",
                    Span::File { path: path.clone(), line: first_line },
                    format!(
                        "{count} `Ordering::Relaxed` site(s), [allow-relaxed] permits {cap}"
                    ),
                )
                .with_suggestion(
                    "use Acquire/Release (or justify and regenerate the allowlist): Relaxed \
                     loads on another thread's decision path reorder freely",
                ),
            );
        }
    }
    for (path, &cap) in &allowed.relaxed {
        let count = conc.relaxed.get(path).map(|&(n, _)| n).unwrap_or(0);
        if cap > count {
            sink.push(
                Diagnostic::new(
                    "CG102",
                    Span::File { path: path.clone(), line: 0 },
                    format!(
                        "stale [allow-relaxed] entry: permits {cap} Relaxed site(s) but the file has {count}"
                    ),
                )
                .with_suggestion("the ratchet only shrinks — run --update-allowlist to tighten it"),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_panic_sites_outside_tests() {
        let src = r#"
            pub fn f(x: Option<u32>) -> u32 {
                x.unwrap()
            }
            pub fn g() {
                panic!("boom");
            }
            pub fn h(x: Option<u32>) -> u32 {
                x.expect("present")
            }
        "#;
        let scan = scan_source(src);
        let whats: Vec<&str> = scan.panic_sites.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(whats, vec!["unwrap", "panic!", "expect"]);
        assert!(scan.unsafe_sites.is_empty());
    }

    #[test]
    fn test_gated_items_are_exempt() {
        let src = r#"
            pub fn lib_code(x: Option<u32>) -> Option<u32> { x }

            #[test]
            fn a_test() { lib_code(None).unwrap(); }

            #[cfg(test)]
            mod tests {
                #[test]
                fn b() { super::lib_code(Some(1)).unwrap(); panic!("fine in tests"); }
            }

            pub fn more_lib(x: Option<u32>) -> u32 { x.expect("counted") }
        "#;
        let scan = scan_source(src);
        let whats: Vec<&str> = scan.panic_sites.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(whats, vec!["expect"]);
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = r#"
            #[cfg(not(test))]
            pub fn gated(x: Option<u32>) -> u32 { x.unwrap() }
        "#;
        assert_eq!(scan_source(src).panic_sites.len(), 1);
    }

    #[test]
    fn stacked_attributes_skip_the_whole_item() {
        let src = r#"
            #[test]
            #[ignore]
            fn t() { None::<u32>.unwrap(); }
            pub fn f() { real_panic(); }
        "#;
        assert!(scan_source(src).panic_sites.is_empty());
    }

    #[test]
    fn unsafe_is_flagged() {
        let src = "pub fn f(p: *const u32) -> u32 { unsafe { *p } }";
        let scan = scan_source(src);
        assert_eq!(scan.unsafe_sites.len(), 1);
    }

    #[test]
    fn catch_unwind_is_scanned_outside_tests_only() {
        let src = r#"
            use std::panic::catch_unwind;
            pub fn f() { let _ = catch_unwind(|| 1); }

            #[cfg(test)]
            mod tests {
                fn quiet() { let _ = std::panic::catch_unwind(|| 2); }
            }
        "#;
        let scan = scan_source(src);
        assert_eq!(scan.catch_unwind_sites.len(), 2, "import + call, tests exempt");
        assert!(scan.panic_sites.is_empty());
    }

    #[test]
    fn thread_spawns_are_scanned_outside_tests_only() {
        let src = r#"
            use std::thread::spawn;
            pub fn f() { std::thread::scope(|s| { s.spawn(|| 1); }); }
            pub fn g() { let _ = thread::spawn(|| 2); let _ = thread::current(); }

            #[cfg(test)]
            mod tests {
                fn t() { std::thread::spawn(|| 3).join().ok(); }
            }
        "#;
        let whats: Vec<String> = scan_source(src).thread_sites.into_iter().map(|s| s.what).collect();
        assert_eq!(
            whats,
            ["thread::spawn", "thread::scope", "thread::spawn"],
            "import + scope + call; a scope handle's `spawn`, `thread::current` and tests exempt"
        );
    }

    #[test]
    fn workspace_has_exactly_one_catch_unwind_boundary() {
        // End-to-end over the real workspace: CG106 never fires, and the
        // supervisor (the one allowed file) really does use catch_unwind —
        // so the check cannot be trivially green.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = run(&root, false);
        let cg106: Vec<_> = report
            .diagnostics
            .items
            .iter()
            .filter(|d| d.code == "CG106")
            .collect();
        assert!(cg106.is_empty(), "stray catch_unwind: {cg106:?}");
        let sup = fs::read_to_string(root.join(SUPERVISOR_PATH)).unwrap();
        assert!(
            !scan_source(&sup).catch_unwind_sites.is_empty(),
            "the supervisor must own the isolation boundary"
        );
    }

    #[test]
    fn unwrap_or_variants_are_not_panic_sites() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).min(x.unwrap_or_else(|| 1)) }";
        assert!(scan_source(src).panic_sites.is_empty());
    }

    #[test]
    fn strings_and_comments_never_count() {
        let src = r#"
            // x.unwrap() here is a comment
            pub fn f() -> &'static str { "panic!(no) .unwrap()" }
        "#;
        assert!(scan_source(src).panic_sites.is_empty());
    }

    #[test]
    fn manifest_lint_accepts_workspace_paths_and_rejects_registry() {
        let good = "[dependencies]\nchatgraph-support.workspace = true\nchatgraph-graph = { path = \"../graph\" }\n";
        let (diags, entries) = lint_manifest("crates/x/Cargo.toml", good, false);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(entries, 2);

        let bad = "[dependencies]\nserde = \"1.0\"\nlibc = { git = \"https://example.com/libc\" }\n";
        let (diags, _) = lint_manifest("crates/x/Cargo.toml", bad, false);
        assert!(diags.iter().all(|d| d.code == "CG104"));
        assert!(diags.len() >= 2, "{diags:?}");
    }

    #[test]
    fn root_manifest_requires_internal_names() {
        let text = "[dependencies]\nleftpad = { path = \"../leftpad\" }\n";
        let (diags, _) = lint_manifest("Cargo.toml", text, true);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("chatgraph"));
    }

    #[test]
    fn workspace_is_concurrency_clean_with_declared_orders() {
        // End-to-end over the real workspace: zero CG201–CG204 — and not
        // trivially: serve.rs must really declare a lock order, sched.rs
        // must really sanction its poisoned-lock recoveries.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = run(&root, false);
        let conc: Vec<_> = report
            .diagnostics
            .items
            .iter()
            .filter(|d| matches!(d.code.as_str(), "CG201" | "CG202" | "CG203" | "CG204"))
            .collect();
        assert!(conc.is_empty(), "concurrency findings: {conc:#?}");
        let serve = fs::read_to_string(root.join("crates/core/src/serve.rs")).unwrap();
        let (dirs, errs) = crate::conc::parse_lockdoc(&serve);
        assert!(errs.is_empty(), "{errs:?}");
        assert!(
            dirs.iter()
                .any(|d| matches!(&d.directive, crate::conc::Directive::Order(_))),
            "serve.rs must declare its lock order via lockdoc"
        );
        let sched = fs::read_to_string(root.join("crates/apis/src/sched.rs")).unwrap();
        let (dirs, _) = crate::conc::parse_lockdoc(&sched);
        assert!(
            dirs.iter()
                .any(|d| matches!(&d.directive, crate::conc::Directive::Recover(_))),
            "sched.rs must sanction its poisoned-lock recoveries via lockdoc"
        );
        assert!(report.total_relaxed_sites > 0, "the Relaxed ratchet must have teeth");
    }

    #[test]
    fn two_section_allowlists_roundtrip() {
        let mut lists = Allowlists::default();
        lists.panic.insert("crates/a/src/lib.rs".to_owned(), 3);
        lists.relaxed.insert("crates/b/src/atomics.rs".to_owned(), 2);
        let text = render_allowlists(&lists);
        assert_eq!(parse_allowlists(&text), Ok(lists));
        assert!(parse_allowlists("[allow-typo]\n\"x\" = 1\n").is_err());
    }

    #[test]
    fn allowlist_roundtrip_and_parse_errors() {
        let mut map = BTreeMap::new();
        map.insert("crates/a/src/lib.rs".to_owned(), 3usize);
        map.insert("crates/b/src/io.rs".to_owned(), 1usize);
        let text = render_allowlist(&map);
        assert_eq!(parse_allowlist(&text), Ok(map));
        assert!(parse_allowlist("\"x\" = 1\n").is_err()); // outside [allow]
        assert!(parse_allowlist("[allow]\n\"x\" = lots\n").is_err());
    }
}
