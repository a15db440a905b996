//! Test support shared by the differential suites: the sequential
//! reference executor the plan scheduler is checked against.

use chatgraph_apis::{
    analysis, ApiChain, ApiRegistry, ChainError, ChainEvent, ExecContext, Monitor, Value, ValueType,
};
use std::sync::Arc;

/// The pre-plan sequential executor, kept as the differential oracle for
/// the scheduler's determinism contract (see `tests/plan_properties.rs`).
/// Event-for-event identical to the seed implementation; the only change is
/// that graph inputs are shared via [`Arc`] instead of deep-cloned.
pub fn execute_chain_reference(
    registry: &ApiRegistry,
    chain: &ApiChain,
    ctx: &mut ExecContext,
    monitor: &mut dyn Monitor,
) -> Result<Value, ChainError> {
    chain.validate(registry, true)?;
    let diagnostics = analysis::analyze(chain, registry, true);
    if !diagnostics.is_empty() {
        monitor.on_event(&ChainEvent::Diagnostics {
            diagnostics: diagnostics.clone(),
        });
    }
    if let Some(err) = diagnostics.first_error() {
        return Err(ChainError::AnalysisRejected(err.render()));
    }
    monitor.on_event(&ChainEvent::ChainStarted {
        total: chain.len(),
    });
    let mut prev = Value::Unit;
    for (i, step) in chain.steps.iter().enumerate() {
        // validate() plus the analysis gate above guarantee the API exists.
        let Some(desc) = registry.descriptor(&step.api).cloned() else {
            return Err(ChainError::UnknownApi(i, step.api.clone()));
        };
        monitor.on_event(&ChainEvent::StepStarted {
            step: i,
            api: step.api.clone(),
        });
        let input = if desc.input.accepts(prev.value_type()) {
            prev.clone()
        } else if desc.input == ValueType::Graph {
            Value::Graph(Arc::clone(&ctx.graph))
        } else {
            Value::Unit
        };
        if desc.requires_confirmation {
            monitor.on_event(&ChainEvent::ConfirmationRequested {
                step: i,
                api: step.api.clone(),
            });
            if !monitor.confirm(i, &step.api, &input.summary()) {
                return Err(ChainError::Rejected(i, step.api.clone()));
            }
        }
        match registry.call(&step.api, ctx, input, step) {
            Ok(output) => {
                ctx.push_finding(&step.api, &output);
                monitor.on_event(&ChainEvent::StepFinished {
                    step: i,
                    api: step.api.clone(),
                    output: output.value_type(),
                    summary: output.summary(),
                });
                prev = output;
            }
            Err(msg) => {
                monitor.on_event(&ChainEvent::StepFailed {
                    step: i,
                    api: step.api.clone(),
                    error: msg.clone(),
                });
                return Err(ChainError::ExecutionFailed(i, msg));
            }
        }
    }
    monitor.on_event(&ChainEvent::ChainFinished);
    Ok(prev)
}
