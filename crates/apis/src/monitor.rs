//! Chain-execution monitoring (demo scenario 4).
//!
//! The paper: "users need to confirm the API chain before it is executed and
//! edit it if needed. What is more, users may also wish to monitor the
//! progress during the execution of the API chain." The [`Monitor`] trait is
//! that surface: the executor emits a [`ChainEvent`] per step and routes
//! confirmation requests (for edit APIs) through the monitor.

use crate::value::ValueType;
use chatgraph_analyzer::diag::Diagnostics;

/// One progress event during chain execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainEvent {
    /// Pre-execution static analysis produced findings (warnings the UI
    /// surfaces before the chain runs; emitted only when non-empty).
    Diagnostics {
        /// The analyzer's findings.
        diagnostics: Diagnostics,
    },
    /// Execution of the whole chain began (`total` steps).
    ChainStarted {
        /// Number of steps.
        total: usize,
    },
    /// A step began executing.
    StepStarted {
        /// Step index (0-based).
        step: usize,
        /// API name.
        api: String,
    },
    /// A step finished.
    StepFinished {
        /// Step index.
        step: usize,
        /// API name.
        api: String,
        /// Output type.
        output: ValueType,
        /// One-line output summary.
        summary: String,
    },
    /// A step failed; execution stops.
    StepFailed {
        /// Step index.
        step: usize,
        /// API name.
        api: String,
        /// Error message.
        error: String,
    },
    /// The user was asked to confirm a step.
    ConfirmationRequested {
        /// Step index.
        step: usize,
        /// API name.
        api: String,
    },
    /// The whole chain finished successfully.
    ChainFinished,
    /// The chain was lowered to an execution plan (emitted right after
    /// `ChainStarted`). Non-core: absent from the seed executor's stream.
    PlanBuilt {
        /// Number of plan steps.
        steps: usize,
        /// Number of barrier steps.
        barriers: usize,
    },
    /// Wall time of one step (after its `StepFinished`). Non-core.
    StepTimed {
        /// Step index.
        step: usize,
        /// API name.
        api: String,
        /// Wall-clock microseconds (lookup time when `cached`).
        micros: u64,
        /// Whether the result came from the memo cache.
        cached: bool,
    },
    /// The scheduler consulted the step-memo cache for a step. Non-core.
    MemoLookup {
        /// Step index.
        step: usize,
        /// API name.
        api: String,
        /// Whether the lookup hit.
        hit: bool,
    },
    /// The step's result was received from a coalesced in-flight execution
    /// (singleflight): an identical step was already running, so this one
    /// parked and took the published outcome instead of executing.
    /// Non-core.
    StepCoalesced {
        /// Step index.
        step: usize,
        /// API name.
        api: String,
    },
    /// A CSR snapshot of the session graph was built for the current
    /// mutation epoch (cache hits emit nothing). Non-core.
    CsrBuilt {
        /// Live nodes in the snapshot.
        nodes: usize,
        /// Live edges in the snapshot.
        edges: usize,
        /// Wall-clock build time in microseconds.
        micros: u64,
        /// Always `false`: every snapshot is a full build. Kept because
        /// chatbench's trace tally matches on it.
        delta: bool,
    },
    /// Wall time of one CSR kernel invocation inside a step. Non-core.
    KernelTimed {
        /// Kernel name (e.g. `"pagerank"`).
        kernel: String,
        /// Wall-clock microseconds.
        micros: u64,
    },
    /// The supervisor retried a step after a transient failure. Non-core.
    StepRetried {
        /// Step index.
        step: usize,
        /// API name.
        api: String,
        /// 1-based retry number.
        attempt: usize,
        /// Deterministic backoff slept before the retry, in milliseconds.
        backoff_ms: u64,
        /// The transient failure that triggered the retry.
        error: String,
    },
    /// A step exceeded its deadline and was cancelled cooperatively.
    /// Non-core.
    StepTimedOut {
        /// Step index.
        step: usize,
        /// API name.
        api: String,
        /// The deadline that fired, in milliseconds.
        deadline_ms: u64,
    },
    /// A step panicked; the supervisor caught the payload. Non-core.
    StepPanicked {
        /// Step index.
        step: usize,
        /// API name.
        api: String,
        /// Rendered panic payload.
        message: String,
    },
    /// Under `FailurePolicy::SkipDegraded`, a dead-downstream step failed
    /// soft: its finding is recorded as degraded and the chain continues.
    /// Non-core.
    DegradedResult {
        /// Step index.
        step: usize,
        /// API name.
        api: String,
        /// The failure that was degraded.
        error: String,
    },
    /// A mutation barrier was durably committed to the session's
    /// write-ahead log before its effects were published. Non-core.
    WalAppended {
        /// Step index of the mutation barrier.
        step: usize,
        /// The durable store epoch the commit produced.
        epoch: u64,
        /// WAL records appended by the commit.
        records: usize,
        /// Bytes appended by the commit.
        bytes: u64,
    },
    /// The session's store compacted its write-ahead log. Non-core.
    Checkpointed {
        /// The store epoch the checkpoint captured.
        epoch: u64,
        /// Size of the compacted store file, in bytes.
        bytes: u64,
        /// WAL bytes reclaimed by the compaction.
        reclaimed: u64,
    },
    /// The session's store was opened from an existing file and recovered
    /// to its last durable epoch. Non-core.
    Recovered {
        /// The recovered store epoch.
        epoch: u64,
        /// WAL records replayed into the recovered state.
        records_replayed: usize,
        /// Torn/corrupt tail bytes truncated off the file.
        tail_dropped: u64,
    },
}

impl ChainEvent {
    /// Whether this is one of the seed executor's seven event kinds. The
    /// scheduler's determinism contract is stated over core events only —
    /// plan/timing/cache events may differ between cold and warm runs.
    pub fn is_core(&self) -> bool {
        !matches!(
            self,
            ChainEvent::PlanBuilt { .. }
                | ChainEvent::StepTimed { .. }
                | ChainEvent::MemoLookup { .. }
                | ChainEvent::StepCoalesced { .. }
                | ChainEvent::CsrBuilt { .. }
                | ChainEvent::KernelTimed { .. }
                | ChainEvent::StepRetried { .. }
                | ChainEvent::StepTimedOut { .. }
                | ChainEvent::StepPanicked { .. }
                | ChainEvent::DegradedResult { .. }
                | ChainEvent::WalAppended { .. }
                | ChainEvent::Checkpointed { .. }
                | ChainEvent::Recovered { .. }
        )
    }
}


chatgraph_support::impl_json_enum!(ChainEvent {
    Diagnostics { diagnostics },
    ChainStarted { total },
    StepStarted { step, api },
    StepFinished { step, api, output, summary },
    StepFailed { step, api, error },
    ConfirmationRequested { step, api },
    ChainFinished,
    PlanBuilt { steps, barriers },
    StepTimed { step, api, micros, cached },
    MemoLookup { step, api, hit },
    StepCoalesced { step, api },
    CsrBuilt { nodes, edges, micros, delta },
    KernelTimed { kernel, micros },
    StepRetried { step, api, attempt, backoff_ms, error },
    StepTimedOut { step, api, deadline_ms },
    StepPanicked { step, api, message },
    DegradedResult { step, api, error },
    WalAppended { step, epoch, records, bytes },
    Checkpointed { epoch, bytes, reclaimed },
    Recovered { epoch, records_replayed, tail_dropped },
});

/// Receiver of chain-execution events and confirmation requests.
pub trait Monitor {
    /// Called for every progress event.
    fn on_event(&mut self, event: &ChainEvent);

    /// Called before a step flagged `requires_confirmation` runs. Returning
    /// `false` aborts the chain with [`crate::ChainError::Rejected`].
    fn confirm(&mut self, step: usize, api: &str, preview: &str) -> bool {
        let _ = (step, api, preview);
        true
    }
}

/// A monitor that discards events and confirms everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct SilentMonitor;

impl Monitor for SilentMonitor {
    fn on_event(&mut self, _event: &ChainEvent) {}
}

/// A monitor that records every event, with scripted confirmation answers —
/// the test double, and the transcript source for the chat UI.
#[derive(Debug, Default, Clone)]
pub struct CollectingMonitor {
    /// Every event, in order.
    pub events: Vec<ChainEvent>,
    /// Answers returned by successive `confirm` calls (exhausted ⇒ `true`).
    pub confirmations: std::collections::VecDeque<bool>,
    /// The `(step, api, preview)` of every confirmation request.
    pub confirm_log: Vec<(usize, String, String)>,
}

impl CollectingMonitor {
    /// A monitor confirming everything.
    pub fn new() -> Self {
        CollectingMonitor::default()
    }

    /// A monitor answering confirmations from a script.
    pub fn with_answers<I: IntoIterator<Item = bool>>(answers: I) -> Self {
        CollectingMonitor {
            confirmations: answers.into_iter().collect(),
            ..Default::default()
        }
    }

    /// Names of APIs whose steps finished.
    pub fn finished_apis(&self) -> Vec<&str> {
        self.events
            .iter()
            .filter_map(|e| match e {
                ChainEvent::StepFinished { api, .. } => Some(api.as_str()),
                _ => None,
            })
            .collect()
    }
}

impl Monitor for CollectingMonitor {
    fn on_event(&mut self, event: &ChainEvent) {
        self.events.push(event.clone());
    }

    fn confirm(&mut self, step: usize, api: &str, preview: &str) -> bool {
        self.confirm_log
            .push((step, api.to_owned(), preview.to_owned()));
        self.confirmations.pop_front().unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_monitor_records_events() {
        let mut m = CollectingMonitor::new();
        m.on_event(&ChainEvent::ChainStarted { total: 2 });
        m.on_event(&ChainEvent::StepFinished {
            step: 0,
            api: "x".into(),
            output: ValueType::Number,
            summary: "1".into(),
        });
        assert_eq!(m.events.len(), 2);
        assert_eq!(m.finished_apis(), vec!["x"]);
    }

    #[test]
    fn scripted_confirmations_then_default_true() {
        let mut m = CollectingMonitor::with_answers([false, true]);
        assert!(!m.confirm(0, "remove_edges", "3 edges"));
        assert!(m.confirm(1, "add_edges", "2 edges"));
        assert!(m.confirm(2, "remove_edges", "1 edge"));
        assert_eq!(m.confirm_log.len(), 3);
    }

    #[test]
    fn diagnostics_event_json_roundtrip() {
        use chatgraph_analyzer::diag::{Diagnostic, Span};
        let mut d = Diagnostics::new();
        d.push(
            Diagnostic::new(
                "CG010",
                Span::Step { step: 1, param: None },
                "`remove_edges` will ask for confirmation",
            )
            .with_suggestion("review the step before confirming"),
        );
        let e = ChainEvent::Diagnostics { diagnostics: d };
        let s = chatgraph_support::json::to_string(&e);
        assert_eq!(
            chatgraph_support::json::from_str::<ChainEvent>(&s).unwrap(),
            e
        );
    }

    #[test]
    fn plan_events_json_roundtrip_and_are_non_core() {
        let events = [
            ChainEvent::PlanBuilt { steps: 4, barriers: 1 },
            ChainEvent::StepTimed { step: 2, api: "node_count".into(), micros: 17, cached: true },
            ChainEvent::MemoLookup { step: 2, api: "node_count".into(), hit: false },
            ChainEvent::StepCoalesced { step: 2, api: "triangle_count".into() },
            ChainEvent::CsrBuilt { nodes: 120, edges: 640, micros: 85, delta: true },
            ChainEvent::KernelTimed { kernel: "pagerank".into(), micros: 412 },
            ChainEvent::StepRetried {
                step: 1,
                api: "top_pagerank".into(),
                attempt: 1,
                backoff_ms: 3,
                error: "injected fault (step 1, attempt 0)".into(),
            },
            ChainEvent::StepTimedOut { step: 2, api: "graph_diameter".into(), deadline_ms: 50 },
            ChainEvent::StepPanicked { step: 0, api: "node_count".into(), message: "boom".into() },
            ChainEvent::DegradedResult {
                step: 3,
                api: "triangle_count".into(),
                error: "exceeded the 50ms step deadline".into(),
            },
            ChainEvent::WalAppended { step: 1, epoch: 12, records: 3, bytes: 512 },
            ChainEvent::Checkpointed { epoch: 12, bytes: 8192, reclaimed: 40960 },
            ChainEvent::Recovered { epoch: 11, records_replayed: 35, tail_dropped: 17 },
        ];
        for e in events {
            assert!(!e.is_core());
            let s = chatgraph_support::json::to_string(&e);
            assert_eq!(chatgraph_support::json::from_str::<ChainEvent>(&s).unwrap(), e);
        }
        assert!(ChainEvent::ChainFinished.is_core());
        assert!(ChainEvent::ChainStarted { total: 1 }.is_core());
    }

    /// Freezes the event wire format: externally tagged objects with fields
    /// in declaration order, and a bare string for the unit variant.
    #[test]
    fn chain_event_json_wire_format_is_stable() {
        use chatgraph_support::json::{from_str, to_string};
        let golden = [
            (ChainEvent::ChainFinished, r#""ChainFinished""#),
            (
                ChainEvent::StepTimed { step: 2, api: "node_count".into(), micros: 17, cached: true },
                r#"{"StepTimed":{"step":2,"api":"node_count","micros":17,"cached":true}}"#,
            ),
            (
                ChainEvent::StepFinished {
                    step: 0,
                    api: "triangle_count".into(),
                    output: ValueType::Number,
                    summary: "42".into(),
                },
                concat!(
                    r#"{"StepFinished":{"step":0,"api":"triangle_count","#,
                    r#""output":"Number","summary":"42"}}"#
                ),
            ),
        ];
        for (event, text) in golden {
            assert_eq!(to_string(&event), text);
            assert_eq!(from_str::<ChainEvent>(text).unwrap(), event);
        }
        for malformed in [
            r#"{"ChainFinished":{}}"#,
            r#""StepTimed""#,
            r#"{"StepTimed":{"step":2}}"#,
            r#"{"Unknown":{"step":2}}"#,
            r#"{"ChainStarted":{"total":1},"ChainFinished":{}}"#,
            "7",
        ] {
            assert!(from_str::<ChainEvent>(malformed).is_err(), "{malformed}");
        }
    }

    #[test]
    fn silent_monitor_confirms() {
        let mut m = SilentMonitor;
        m.on_event(&ChainEvent::ChainFinished);
        assert!(m.confirm(0, "x", ""));
    }
}
