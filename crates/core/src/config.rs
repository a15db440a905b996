//! Framework configuration — the runtime knobs of the paper's Fig. 3.

use chatgraph_ann::TauMgParams;
use chatgraph_apis::supervisor::{FailurePolicy, SupervisorConfig};
use chatgraph_embed::EmbedderConfig;
use chatgraph_llm::{FeatureConfig, TrainConfig};
use chatgraph_sequencer::CoverParams;

/// Retrieval-module settings (§II-A, §II-D).
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalConfig {
    /// Embedding settings for API descriptions and prompts.
    pub embedder: EmbedderConfig,
    /// τ of the τ-MG index.
    pub tau: f32,
    /// Max out-degree of the τ-MG.
    pub max_degree: usize,
    /// Construction beam width.
    pub ef_construction: usize,
    /// Query beam width.
    pub ef_search: usize,
    /// Number of APIs retrieved per prompt.
    pub top_k: usize,
}

chatgraph_support::impl_json_struct!(RetrievalConfig {
    embedder,
    tau,
    max_degree,
    ef_construction,
    ef_search,
    top_k,
});

impl Default for RetrievalConfig {
    fn default() -> Self {
        RetrievalConfig {
            embedder: EmbedderConfig::default(),
            tau: 0.01,
            max_degree: 8,
            ef_construction: 32,
            ef_search: 24,
            top_k: 10,
        }
    }
}

impl RetrievalConfig {
    /// The τ-MG parameters implied by this config (cosine metric — the
    /// embeddings are unit-norm).
    pub fn taumg_params(&self) -> TauMgParams {
        TauMgParams {
            tau: self.tau,
            max_degree: self.max_degree,
            ef_construction: self.ef_construction,
            ef_search: self.ef_search,
            metric: chatgraph_embed::Metric::Cosine,
        }
    }
}

/// Finetuning-module settings (§II-C).
#[derive(Debug, Clone, PartialEq)]
pub struct FinetuneConfig {
    /// α of the node matching-based loss (Definition 1).
    pub alpha: f64,
    /// Random rollouts `r` per candidate during search-based prediction
    /// (0 = plain teacher forcing).
    pub rollouts: usize,
    /// Maximum chain length during rollouts and decoding.
    pub max_chain_len: usize,
    /// SGD settings.
    pub train: TrainConfig,
}

chatgraph_support::impl_json_struct!(FinetuneConfig {
    alpha,
    rollouts,
    max_chain_len,
    train,
});

impl Default for FinetuneConfig {
    fn default() -> Self {
        FinetuneConfig {
            alpha: 0.5,
            rollouts: 3,
            max_chain_len: 6,
            train: TrainConfig {
                epochs: 14,
                ..TrainConfig::default()
            },
        }
    }
}

/// Plan-execution settings: how [`chatgraph_apis::Scheduler`] runs a
/// confirmed chain (DESIGN.md §9, §11). A chain runs on the thread serving
/// its request; requests run in parallel across tenants on the serving
/// layer's drain pool ([`crate::ServeConfig::pool_workers`]). The decoder
/// ignores keys it does not know, so saved configs that still carry
/// `workers` load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecConfig {
    /// Capacity of the bounded pure-step memo cache (0 disables caching).
    pub memo_capacity: usize,
    /// Per-step deadline in milliseconds (DESIGN.md §11); 0 disables
    /// deadlines. Kernels observe the deadline cooperatively at their
    /// cancellation polls.
    pub step_deadline_ms: u64,
    /// Supervisor retries for transient failures of retryable steps.
    pub max_retries: usize,
    /// What the supervisor does when a step exhausts its attempts.
    pub failure_policy: FailurePolicy,
}

chatgraph_support::impl_json_struct!(ExecConfig {
    memo_capacity,
    step_deadline_ms,
    max_retries,
    failure_policy,
});

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            memo_capacity: 64,
            step_deadline_ms: 0,
            max_retries: 2,
            failure_policy: FailurePolicy::Abort,
        }
    }
}

impl ExecConfig {
    /// The supervisor configuration implied by this config (no fault plan —
    /// fault injection is armed separately, by tests and the REPL).
    pub fn supervisor_config(&self) -> SupervisorConfig {
        SupervisorConfig {
            step_deadline_ms: self.step_deadline_ms,
            max_retries: self.max_retries,
            failure_policy: self.failure_policy,
            ..SupervisorConfig::default()
        }
    }

    /// The scheduler profile implied by this config — the single path every
    /// [`chatgraph_apis::Scheduler`] construction goes through
    /// (`Scheduler::from_exec_config`), so a new exec knob added here is
    /// picked up by bootstrap, saved-model restore, and the session server
    /// alike.
    pub fn profile(&self) -> chatgraph_apis::ExecProfile {
        chatgraph_apis::ExecProfile {
            memo_capacity: self.memo_capacity,
            supervisor: self.supervisor_config(),
        }
    }
}

/// Durable-store settings: whether (and where) the session's graph is
/// persisted through the single-file WAL store (DESIGN.md §16).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Store file path. Empty disables durability (the default): the
    /// session stays purely in-memory.
    pub path: String,
    /// Checkpoint (compact the WAL) after this many durable commits.
    /// 0 disables automatic checkpointing.
    pub checkpoint_every: u64,
}

chatgraph_support::impl_json_struct!(StoreConfig { path, checkpoint_every });

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            path: String::new(),
            checkpoint_every: 64,
        }
    }
}

impl StoreConfig {
    /// Whether durability is enabled.
    pub fn enabled(&self) -> bool {
        !self.path.is_empty()
    }
}

/// The complete ChatGraph configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ChatGraphConfig {
    /// Graph sequentialiser settings (path length ℓ, multi-level flag).
    pub cover: SequencerConfig,
    /// Retrieval module.
    pub retrieval: RetrievalConfig,
    /// LLM feature space.
    pub features: FeatureConfig,
    /// Finetuning module.
    pub finetune: FinetuneConfig,
    /// Chain-execution scheduler.
    pub exec: ExecConfig,
    /// Durable graph store.
    pub store: StoreConfig,
    /// Global seed.
    pub seed: u64,
}

chatgraph_support::impl_json_struct!(ChatGraphConfig {
    cover,
    retrieval,
    features,
    finetune,
    exec,
    store,
    seed,
});

/// Serialisable mirror of [`CoverParams`] plus the multi-level switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencerConfig {
    /// Maximum path length ℓ.
    pub max_length: usize,
    /// Sequentialise the motif super-graph as well.
    pub multi_level: bool,
}

chatgraph_support::impl_json_struct!(SequencerConfig { max_length, multi_level });

impl Default for SequencerConfig {
    fn default() -> Self {
        SequencerConfig {
            max_length: 2,
            multi_level: true,
        }
    }
}

impl SequencerConfig {
    /// The path-cover parameters implied by this config.
    pub fn cover_params(&self) -> CoverParams {
        CoverParams {
            max_length: self.max_length,
            dedup_singletons: true,
        }
    }
}

impl Default for ChatGraphConfig {
    fn default() -> Self {
        ChatGraphConfig {
            cover: SequencerConfig::default(),
            retrieval: RetrievalConfig::default(),
            features: FeatureConfig::default(),
            finetune: FinetuneConfig::default(),
            exec: ExecConfig::default(),
            store: StoreConfig::default(),
            seed: 42,
        }
    }
}

impl ChatGraphConfig {
    /// Validates every knob, returning human-readable problems.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        if self.retrieval.tau < 0.0 {
            problems.push("retrieval.tau must be >= 0".to_owned());
        }
        if self.retrieval.max_degree == 0 {
            problems.push("retrieval.max_degree must be >= 1".to_owned());
        }
        if self.retrieval.top_k == 0 {
            problems.push("retrieval.top_k must be >= 1".to_owned());
        }
        if self.retrieval.embedder.dim == 0 {
            problems.push("retrieval.embedder.dim must be >= 1".to_owned());
        }
        if self.features.dim == 0 {
            problems.push("features.dim must be >= 1".to_owned());
        }
        if self.finetune.alpha < 0.0 {
            problems.push("finetune.alpha must be >= 0".to_owned());
        }
        if self.finetune.max_chain_len == 0 {
            problems.push("finetune.max_chain_len must be >= 1".to_owned());
        }
        if self.finetune.train.learning_rate <= 0.0 || self.finetune.train.learning_rate.is_nan() {
            problems.push("finetune.train.learning_rate must be > 0".to_owned());
        }
        if self.exec.max_retries > 16 {
            problems.push("exec.max_retries must be <= 16 (bounded retry storms)".to_owned());
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(ChatGraphConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_knobs_are_each_reported() {
        let mut c = ChatGraphConfig::default();
        c.retrieval.tau = -1.0;
        c.retrieval.top_k = 0;
        c.finetune.alpha = -0.1;
        c.finetune.train.learning_rate = 0.0;
        let problems = c.validate().unwrap_err();
        assert_eq!(problems.len(), 4, "{problems:?}");
    }

    #[test]
    fn derived_param_structs_match() {
        let c = ChatGraphConfig::default();
        assert_eq!(c.cover.cover_params().max_length, 2);
        let t = c.retrieval.taumg_params();
        assert_eq!(t.metric, chatgraph_embed::Metric::Cosine);
        assert_eq!(t.max_degree, 8);
    }

    #[test]
    fn saved_config_with_workers_still_loads() {
        // A config saved while `exec.workers` existed carries the key; the
        // decoder skips it and reads every other field.
        let saved = r#"{"memo_capacity":7,"workers":4,"step_deadline_ms":0,"max_retries":2,"failure_policy":"Abort"}"#;
        let exec: ExecConfig = chatgraph_support::json::from_str(saved).unwrap();
        assert_eq!(exec, ExecConfig { memo_capacity: 7, ..ExecConfig::default() });
        // memo_capacity 0 is legal: it just disables the cache.
        let mut c = ChatGraphConfig::default();
        c.exec.memo_capacity = 0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn supervisor_knobs_validate_and_map() {
        let mut c = ChatGraphConfig::default();
        c.exec.max_retries = 17;
        let problems = c.validate().unwrap_err();
        assert!(problems.iter().any(|p| p.contains("exec.max_retries")), "{problems:?}");
        let mut c = ChatGraphConfig::default();
        c.exec.step_deadline_ms = 250;
        c.exec.max_retries = 3;
        c.exec.failure_policy = FailurePolicy::SkipDegraded;
        assert!(c.validate().is_ok());
        let sup = c.exec.supervisor_config();
        assert_eq!(sup.step_deadline_ms, 250);
        assert_eq!(sup.max_retries, 3);
        assert_eq!(sup.failure_policy, FailurePolicy::SkipDegraded);
        assert!(sup.faults.is_none(), "config never arms fault injection");
        // Passive defaults: the supervisor cannot alter fault-free runs.
        let passive = ChatGraphConfig::default().exec.supervisor_config();
        assert!(passive.faults.is_none() && passive.step_deadline_ms == 0);
    }

    #[test]
    fn json_roundtrip() {
        let c = ChatGraphConfig::default();
        let s = chatgraph_support::json::to_string(&c);
        assert_eq!(chatgraph_support::json::from_str::<ChatGraphConfig>(&s).unwrap(), c);
    }
}
