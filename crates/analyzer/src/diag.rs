//! The shared diagnostics vocabulary: severities, spans, diagnostics, and a
//! multi-diagnostic sink with text and JSON renderers.
//!
//! Every analysis reports through [`Diagnostics`] — the chain and plan
//! passes in `chatgraph_apis::analysis`, repolint and the concurrency lints
//! here — so downstream consumers (the chain executor, the confirm-and-edit
//! flow, `scripts/verify.sh`) handle one shape.
//! Codes are `CG0xx` for chain/plan analysis, `CG1xx` for repolint hygiene,
//! and `CG2xx` for the concurrency lints; the full registry lives in
//! [`code_info`]/[`CODES`].

use std::fmt;

/// How bad a diagnostic is. Ordered: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Purely informational.
    Info,
    /// Suspicious but executable; surfaced to the user, never blocking.
    Warning,
    /// The artifact is invalid; execution must refuse it.
    Error,
}

chatgraph_support::impl_json_enum!(Severity { Info, Warning, Error });

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Where a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Span {
    /// No useful location (whole-artifact diagnostics).
    None,
    /// A chain step, optionally narrowed to one parameter.
    Step {
        /// 0-based step index.
        step: usize,
        /// Parameter name, when the diagnostic is about one parameter.
        param: Option<String>,
    },
    /// A file location (repolint).
    File {
        /// Workspace-relative path.
        path: String,
        /// 1-based line, 0 when unknown.
        line: usize,
    },
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::None => Ok(()),
            Span::Step { step, param: None } => write!(f, "step {step}"),
            Span::Step { step, param: Some(p) } => write!(f, "step {step}, param `{p}`"),
            Span::File { path, line: 0 } => write!(f, "{path}"),
            Span::File { path, line } => write!(f, "{path}:{line}"),
        }
    }
}

chatgraph_support::impl_json_enum!(Span { None, Step { step, param }, File { path, line } });

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`CG0xx` chain analysis, `CG1xx` repolint).
    pub code: String,
    /// Severity.
    pub severity: Severity,
    /// Location.
    pub span: Span,
    /// Human-readable description of the problem.
    pub message: String,
    /// A concrete fix, when the analysis can propose one.
    pub suggestion: Option<String>,
}

chatgraph_support::impl_json_struct!(Diagnostic {
    code,
    severity,
    span,
    message,
    suggestion,
});

impl Diagnostic {
    /// Builds a diagnostic with the code's registered default severity.
    pub fn new(code: &str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code: code.to_owned(),
            severity: code_info(code).map(|c| c.severity).unwrap_or(Severity::Warning),
            span,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches a suggestion.
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// One-line text rendering: `error[CG003] step 1: …`.
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]", self.severity, self.code);
        let span = self.span.to_string();
        if !span.is_empty() {
            out.push_str(&format!(" {span}"));
        }
        out.push_str(&format!(": {}", self.message));
        if let Some(s) = &self.suggestion {
            out.push_str(&format!(" (help: {s})"));
        }
        out
    }
}

/// A multi-diagnostic sink: analyses push every finding instead of stopping
/// at the first, and consumers query by severity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    /// The findings, in discovery order.
    pub items: Vec<Diagnostic>,
}

chatgraph_support::impl_json_struct!(Diagnostics { items });

impl Diagnostics {
    /// An empty sink.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Records a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing was found.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when any finding is `Error`-level.
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// The findings at exactly `severity`.
    pub fn at(&self, severity: Severity) -> Vec<&Diagnostic> {
        self.items.iter().filter(|d| d.severity == severity).collect()
    }

    /// Count of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.items.iter().filter(|d| d.severity == severity).count()
    }

    /// The first `Error`-level finding, if any.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.items.iter().find(|d| d.severity == Severity::Error)
    }

    /// Multi-line text report (one rendered diagnostic per line).
    pub fn render_text(&self) -> String {
        self.items
            .iter()
            .map(Diagnostic::render)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Compact JSON report.
    pub fn render_json(&self) -> String {
        chatgraph_support::json::to_string(self)
    }

    /// Merges another sink's findings into this one.
    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }
}

/// Registry entry of one diagnostic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeInfo {
    /// The stable code.
    pub code: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// Short title.
    pub title: &'static str,
}

/// Every diagnostic code the workspace's analyses emit, in code order. DESIGN.md §8
/// documents the policy; golden tests pin the table.
pub const CODES: &[CodeInfo] = &[
    CodeInfo { code: "CG001", severity: Severity::Error, title: "empty chain" },
    CodeInfo { code: "CG002", severity: Severity::Error, title: "unknown API" },
    CodeInfo { code: "CG003", severity: Severity::Error, title: "type mismatch between steps" },
    CodeInfo { code: "CG004", severity: Severity::Error, title: "graph input without session graph" },
    CodeInfo { code: "CG005", severity: Severity::Warning, title: "unknown parameter" },
    CodeInfo { code: "CG006", severity: Severity::Warning, title: "unparseable parameter value" },
    CodeInfo { code: "CG007", severity: Severity::Warning, title: "parameter value out of range" },
    CodeInfo { code: "CG008", severity: Severity::Warning, title: "discarded step output" },
    CodeInfo { code: "CG009", severity: Severity::Warning, title: "redundant repeated step" },
    CodeInfo { code: "CG010", severity: Severity::Warning, title: "step requires user confirmation" },
    CodeInfo { code: "CG011", severity: Severity::Info, title: "dead step (removable without changing the result)" },
    CodeInfo { code: "CG012", severity: Severity::Warning, title: "edit/read ordering hazard" },
    CodeInfo { code: "CG013", severity: Severity::Info, title: "needless mid-chain barrier" },
    CodeInfo { code: "CG014", severity: Severity::Warning, title: "required parameter missing" },
    CodeInfo { code: "CG015", severity: Severity::Info, title: "interleaved edits thrash the CSR snapshot cache" },
    CodeInfo { code: "CG101", severity: Severity::Error, title: "panic site in library code over allowlist" },
    CodeInfo { code: "CG102", severity: Severity::Error, title: "stale allowlist entry (ratchet must shrink)" },
    CodeInfo { code: "CG103", severity: Severity::Error, title: "unsafe code in workspace" },
    CodeInfo { code: "CG104", severity: Severity::Error, title: "non-hermetic dependency in manifest" },
    CodeInfo { code: "CG105", severity: Severity::Error, title: "workspace I/O failure during lint" },
    CodeInfo { code: "CG106", severity: Severity::Error, title: "catch_unwind outside the supervisor isolation boundary" },
    CodeInfo { code: "CG107", severity: Severity::Error, title: "thread spawned outside the serving drain pool" },
    CodeInfo { code: "CG201", severity: Severity::Error, title: "lock acquisition cycle (potential deadlock)" },
    CodeInfo { code: "CG202", severity: Severity::Error, title: "guard held across a dispatch point (spawn/scope/send)" },
    CodeInfo { code: "CG203", severity: Severity::Error, title: "nested lock acquisition violates the declared order" },
    CodeInfo { code: "CG204", severity: Severity::Error, title: "unsanctioned poisoned-lock recovery" },
    CodeInfo { code: "CG205", severity: Severity::Error, title: "Relaxed atomic ordering over allowlist" },
];

/// Looks up a code's registry entry.
pub fn code_info(code: &str) -> Option<&'static CodeInfo> {
    CODES.iter().find(|c| c.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_info_warning_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn codes_are_unique_and_sorted() {
        let codes: Vec<&str> = CODES.iter().map(|c| c.code).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(codes, sorted);
        assert!(codes.len() >= 15);
    }

    #[test]
    fn diagnostic_uses_registered_default_severity() {
        assert_eq!(
            Diagnostic::new("CG001", Span::None, "x").severity,
            Severity::Error
        );
        assert_eq!(
            Diagnostic::new("CG005", Span::Step { step: 0, param: None }, "x").severity,
            Severity::Warning
        );
    }

    #[test]
    fn render_text_is_one_line_per_diag() {
        let mut sink = Diagnostics::new();
        sink.push(Diagnostic::new("CG002", Span::Step { step: 1, param: None }, "unknown API `frob`")
            .with_suggestion("did you mean `graph_stats`?"));
        sink.push(Diagnostic::new("CG103", Span::File { path: "crates/x/src/lib.rs".into(), line: 9 }, "unsafe block"));
        let text = sink.render_text();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("error[CG002] step 1: unknown API `frob` (help: did you mean `graph_stats`?)"));
        assert!(text.contains("error[CG103] crates/x/src/lib.rs:9: unsafe block"));
    }

    #[test]
    fn sink_queries_by_severity() {
        let mut sink = Diagnostics::new();
        assert!(!sink.has_errors());
        sink.push(Diagnostic::new("CG010", Span::None, "confirm"));
        assert!(!sink.has_errors());
        sink.push(Diagnostic::new("CG003", Span::None, "mismatch"));
        assert!(sink.has_errors());
        assert_eq!(sink.count(Severity::Warning), 1);
        assert_eq!(sink.count(Severity::Error), 1);
        assert_eq!(sink.first_error().unwrap().code, "CG003");
    }

    #[test]
    fn diagnostics_json_roundtrip() {
        let mut sink = Diagnostics::new();
        sink.push(
            Diagnostic::new("CG006", Span::Step { step: 2, param: Some("k".into()) }, "bad value")
                .with_suggestion("use an integer"),
        );
        sink.push(Diagnostic::new("CG104", Span::File { path: "Cargo.toml".into(), line: 3 }, "git dep"));
        let s = sink.render_json();
        let back: Diagnostics = chatgraph_support::json::from_str(&s).unwrap();
        assert_eq!(back, sink);
    }

    #[test]
    fn json_format_is_stable() {
        let d = Diagnostic::new("CG001", Span::None, "chain is empty");
        assert_eq!(
            chatgraph_support::json::to_string(&d),
            r#"{"code":"CG001","severity":"Error","span":"None","message":"chain is empty","suggestion":null}"#
        );
        let span = Span::Step { step: 2, param: Some("k".into()) };
        assert_eq!(chatgraph_support::json::to_string(&span), r#"{"Step":{"step":2,"param":"k"}}"#);
    }
}
