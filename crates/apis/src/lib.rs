//! # chatgraph-apis
//!
//! The graph-analysis **API layer** of ChatGraph. The paper's framework does
//! not answer questions itself — it generates a *chain of graph analysis
//! APIs* and executes it. This crate provides:
//!
//! * [`value`] — the typed values APIs exchange ([`Value`]/[`ValueType`]),
//!   so chains can be validated before execution.
//! * [`descriptor`] — API metadata: name, the natural-language description
//!   the retrieval module embeds, category, input/output types, the
//!   step-typing rule ([`ApiDescriptor::accepts_input`]) and the declared
//!   parameter schema ([`ParamSpec`]).
//! * [`registry`] — the [`ApiRegistry`] mapping names to descriptors and
//!   executable handlers; [`registry::standard`] registers the full catalogue
//!   of ~40 APIs across the paper's categories (structure, social, molecule,
//!   similarity search, knowledge inference, graph edit, report).
//! * [`chain`] — [`ApiChain`]: the sequence the LLM generates, with type
//!   checking and a lossless encoding as a labelled graph (the form the
//!   node matching-based loss consumes).
//! * [`executor`] — runs a chain against an [`ExecContext`] (user graph +
//!   molecule database + reference graph), collecting per-step findings.
//! * [`monitor`] — the chain-monitoring surface of demo scenario 4: step
//!   events, progress, and user-confirmation hooks used by the cleaning
//!   scenario.
//! * [`impls`] — the concrete API implementations.
//! * [`analysis`] — static analysis run directly on chains and
//!   descriptors: multi-pass chain diagnostics ([`analyze`]) and the
//!   decoder's type-flow pruning predicate ([`can_extend`]), reporting
//!   through `chatgraph-analyzer`'s diagnostics vocabulary.
//! * [`plan`] — the execution-plan IR: a validated chain lowered to one
//!   [`PlanStep`] per call (its input source, and whether it is a barrier).
//! * [`sched`] — the plan [`Scheduler`]: one loop that runs a plan's steps
//!   in index order on the caller's thread, pure steps through a bounded
//!   step-memo cache, deterministic w.r.t. the sequential executor.
//! * [`supervisor`] — fault-tolerant step execution: per-step deadlines via
//!   cooperative cancellation, bounded deterministic retries, panic
//!   isolation, and a seeded fault-injection harness ([`FaultPlan`]).

pub mod analysis;
pub mod chain;
pub mod descriptor;
pub mod executor;
pub mod impls;
pub mod monitor;
pub mod plan;
pub mod registry;
pub mod sched;
pub mod supervisor;
pub mod value;

pub use analysis::{analyze, can_extend};
pub use chain::{ApiCall, ApiChain, ChainError};
pub use descriptor::{ApiCategory, ApiDescriptor, ParamKind, ParamSpec};
pub use executor::{execute_chain, ExecContext};
pub use monitor::{ChainEvent, CollectingMonitor, Monitor, SilentMonitor};
pub use plan::{InputSource, Plan, PlanStep};
pub use executor::KernelState;
pub use registry::ApiRegistry;
pub use sched::{CommitAck, CommitSink, ExecProfile, MemoStats, Scheduler, StepMemo};
pub use supervisor::{FailurePolicy, FaultPlan, SupervisorConfig};
pub use value::{Report, Table, Value, ValueType};
