//! # chatgraph-llm
//!
//! The simulated **graph-aware LLM** substrate (paper §II-B, §III).
//!
//! The paper backs ChatGraph with ChatGLM/MOSS/Vicuna downloaded from
//! HuggingFace. Those GPU-scale models are unavailable offline, and the only
//! behaviour ChatGraph observes from its LLM is: *given the user's text, the
//! sequentialised graph, and the partial API chain, score the next API
//! token*. This crate reproduces exactly that interface with a trainable
//! model that runs anywhere:
//!
//! * [`vocab`] — the API-token vocabulary (API names + `[BOS]`/`[EOS]`).
//! * [`features`] — deterministic hashed features over the prompt text, the
//!   graph sequentialiser's token streams (both levels), and the partial
//!   chain.
//! * [`model`] — a multinomial logistic next-token model over that feature
//!   space, trained by SGD (this is what "finetuning" updates).
//! * [`mod@train`] — the SGD loop with shuffling, loss tracking, and
//!   example-weighting hooks used by the node matching-based loss.
//!
//! Everything is seeded and deterministic, so finetuning experiments (E8)
//! reproduce bit-for-bit.

pub mod features;
pub mod model;
pub mod train;
pub mod vocab;

pub use features::{FeatureConfig, FeatureExtractor, SparseFeatures};
pub use model::ApiLm;
pub use train::{train, Example, TrainConfig, TrainReport};
pub use vocab::{Vocab, BOS, EOS};
