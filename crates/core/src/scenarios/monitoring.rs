//! Scenario 4 — Chat-based API Chain Monitoring (paper Fig. 7).
//!
//! "The API chain generated by the LLM may not be completely correct.
//! Therefore, users need to confirm the API chain before it is executed and
//! edit it if needed. What is more, users may also wish to monitor the
//! progress during the execution of the API chain."

use super::ScenarioOutput;
use crate::prompt::Prompt;
use crate::session::ChatSession;
use chatgraph_apis::{ApiCall, ChainEvent, CollectingMonitor, Value};
use chatgraph_graph::Graph;

/// Runs the monitoring scenario: the user reviews the proposed chain,
/// *edits* it (inserts `top_pagerank` before the report), and then watches
/// per-step progress during execution.
pub fn run(session: &mut ChatSession, graph: Graph) -> (ScenarioOutput, Vec<ChainEvent>) {
    let mut lines = vec![format!(
        "User: uploads graph '{}' ({} nodes)",
        graph.name(),
        graph.node_count()
    )];
    let prompt_text = "Write a brief report for G";
    lines.push(format!("User: {prompt_text}"));

    let response = session.send(Prompt::with_graph(prompt_text, graph));
    lines.push(format!("ChatGraph: {}", response.message));

    // The user edits the proposed chain before confirming.
    let mut chain = response.chain.clone();
    let insert_at = chain.len().saturating_sub(1);
    chain.insert(insert_at, ApiCall::new("top_pagerank").with_param("k", "3"));
    lines.push(format!("User: edits the chain to: {chain}"));
    lines.push("User: confirms the edited chain".to_owned());

    let mut monitor = CollectingMonitor::new();
    let result = session.run_chain(&chain, &mut monitor).unwrap_or(Value::Unit);
    for event in &monitor.events {
        let line = match event {
            ChainEvent::Diagnostics { diagnostics } => format!(
                "Monitor: static analysis flagged {} finding(s): {}",
                diagnostics.len(),
                diagnostics.render_text().replace('\n', "; ")
            ),
            ChainEvent::ChainStarted { total } => format!("Monitor: chain started ({total} steps)"),
            ChainEvent::StepStarted { step, api } => {
                format!("Monitor: step {} '{api}' running...", step + 1)
            }
            ChainEvent::StepFinished { step, api, summary, .. } => {
                format!("Monitor: step {} '{api}' done -> {summary}", step + 1)
            }
            ChainEvent::StepFailed { step, api, error } => {
                format!("Monitor: step {} '{api}' FAILED: {error}", step + 1)
            }
            ChainEvent::ConfirmationRequested { step, api } => {
                format!("Monitor: step {} '{api}' awaits confirmation", step + 1)
            }
            ChainEvent::PlanBuilt { steps, barriers } => {
                format!("Monitor: plan built ({steps} steps, {barriers} barriers)")
            }
            ChainEvent::StepTimed { step, api, micros, cached } => format!(
                "Monitor: step {} '{api}' took {micros}us{}",
                step + 1,
                if *cached { " (memoized)" } else { "" }
            ),
            ChainEvent::MemoLookup { step, api, hit } => format!(
                "Monitor: step {} '{api}' memo {}",
                step + 1,
                if *hit { "hit" } else { "miss" }
            ),
            ChainEvent::StepCoalesced { step, api } => format!(
                "Monitor: step {} '{api}' coalesced with an identical in-flight execution",
                step + 1
            ),
            ChainEvent::CsrBuilt { nodes, edges, micros, delta } => format!(
                "Monitor: CSR snapshot {} ({nodes} nodes, {edges} edges, {micros}us)",
                if *delta { "patched incrementally" } else { "built" }
            ),
            ChainEvent::KernelTimed { kernel, micros } => {
                format!("Monitor: kernel '{kernel}' took {micros}us")
            }
            ChainEvent::StepRetried { step, api, attempt, backoff_ms, error } => format!(
                "Monitor: step {} '{api}' retry #{attempt} after {backoff_ms}ms backoff ({error})",
                step + 1
            ),
            ChainEvent::StepTimedOut { step, api, deadline_ms } => format!(
                "Monitor: step {} '{api}' exceeded its {deadline_ms}ms deadline",
                step + 1
            ),
            ChainEvent::StepPanicked { step, api, message } => format!(
                "Monitor: step {} '{api}' panicked (isolated): {message}",
                step + 1
            ),
            ChainEvent::DegradedResult { step, api, error } => format!(
                "Monitor: step {} '{api}' degraded, chain continues: {error}",
                step + 1
            ),
            ChainEvent::WalAppended { step, epoch, records, bytes } => format!(
                "Monitor: step {} durably committed (epoch {epoch}, {records} WAL record(s), \
                 {bytes} bytes)",
                step + 1
            ),
            ChainEvent::Checkpointed { epoch, bytes, reclaimed } => format!(
                "Monitor: store checkpointed at epoch {epoch} ({bytes} bytes on disk, \
                 {reclaimed} bytes reclaimed)"
            ),
            ChainEvent::Recovered { epoch, records_replayed, tail_dropped } => format!(
                "Monitor: store recovered to epoch {epoch} ({records_replayed} record(s) \
                 replayed, {tail_dropped} torn byte(s) dropped)"
            ),
            ChainEvent::ChainFinished => "Monitor: chain finished".to_owned(),
        };
        lines.push(line);
    }
    (
        ScenarioOutput {
            title: "Scenario 4: Chat-based API Chain Monitoring".to_owned(),
            lines,
            chain,
            result,
        },
        monitor.events,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::test_support::with_session;
    use chatgraph_graph::generators::{social_network, SocialParams};

    #[test]
    fn edited_chain_is_executed_with_progress_events() {
        with_session(|s| {
            let g = social_network(&SocialParams::default(), 41);
            let (out, events) = run(s, g);
            // The user's edit landed in the executed chain.
            assert!(out.chain.api_names().contains(&"top_pagerank"));
            // Progress events bracket every step.
            let starts = events
                .iter()
                .filter(|e| matches!(e, ChainEvent::StepStarted { .. }))
                .count();
            let finishes = events
                .iter()
                .filter(|e| matches!(e, ChainEvent::StepFinished { .. }))
                .count();
            assert_eq!(starts, out.chain.len());
            assert_eq!(finishes, out.chain.len());
            assert!(matches!(events.last(), Some(ChainEvent::ChainFinished)));
        });
    }

    #[test]
    fn transcript_shows_monitoring_feed() {
        with_session(|s| {
            let g = social_network(&SocialParams::default(), 42);
            let (out, _) = run(s, g);
            let text = out.render();
            assert!(text.contains("Monitor: step 1"));
            assert!(text.contains("edits the chain"));
            assert!(text.contains("chain finished"));
        });
    }
}
