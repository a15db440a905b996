//! ChatGraph reproduction — static analysis.
//!
//! One diagnostics vocabulary ([`diag`]) shared by every analysis in the
//! workspace:
//!
//! - [`diag`]: severities, spans, the multi-diagnostic sink and the
//!   [`CODES`] table. The API-chain passes (CG001–CG015) report through
//!   it from `chatgraph_apis::analysis`, where they run directly on the
//!   chain and descriptor types; this crate sits below `chatgraph-apis`
//!   and depends only on `chatgraph-support`. Codes 16 and 17 (a plan
//!   audit that re-derived the scheduler's barrier rule) are retired.
//! - [`repolint`]: workspace invariants (panic-site ratchet, no `unsafe`,
//!   manifest hermeticity) on top of a hand-rolled Rust [`lexer`], exposed
//!   as the `repolint` binary run by `scripts/verify.sh`.
//! - [`conc`]: the concurrency lints (CG201–CG205) — lock-order analysis
//!   against `// lockdoc:` declarations, guard-across-dispatch detection,
//!   sanctioned poisoned-lock recovery, and the `Ordering::Relaxed`
//!   ratchet — run by repolint across the workspace.

pub mod conc;
pub mod diag;
pub mod lexer;
pub mod repolint;

pub use diag::{code_info, CodeInfo, Diagnostic, Diagnostics, Severity, Span, CODES};
