//! The next-API-token model.
//!
//! A multinomial logistic regression over the hashed feature space: one
//! weight row per vocabulary token. This is the trainable core the
//! finetuning module updates — the same interface a finetuned neural LM
//! would expose (contextual logits over the API vocabulary), in a form that
//! trains in milliseconds and is fully deterministic.

use crate::features::SparseFeatures;
use crate::vocab::Vocab;

/// The trainable API language model.
#[derive(Debug, Clone)]
pub struct ApiLm {
    vocab: Vocab,
    dim: usize,
    /// Row-major weights: `weights[token * dim + feature]`.
    weights: Vec<f32>,
}

chatgraph_support::impl_json_struct!(ApiLm { vocab, dim, weights });

impl ApiLm {
    /// A zero-initialised model.
    pub fn new(vocab: Vocab, dim: usize) -> Self {
        assert!(dim > 0);
        let v = vocab.len();
        ApiLm {
            vocab,
            dim,
            weights: vec![0.0; v * dim],
        }
    }

    /// The vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Rebuilds the vocabulary's lookup index after deserialisation (the
    /// index is not serialised).
    pub fn reindex_vocab(&mut self) {
        self.vocab.reindex();
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Checks the shape a decoded model needs before use: a positive
    /// dimension and one weight row of that width per token.
    pub fn check_shape(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("model dim is 0".to_owned());
        }
        let tokens = self.vocab.len();
        if tokens.checked_mul(self.dim) != Some(self.weights.len()) {
            return Err(format!(
                "model has {} weights, expected {tokens} tokens × dim {}",
                self.weights.len(),
                self.dim
            ));
        }
        Ok(())
    }

    /// Raw logit of one token for a feature vector.
    pub fn logit(&self, token: u32, x: &SparseFeatures) -> f32 {
        let row = token as usize * self.dim;
        x.0.iter()
            .map(|(&i, &v)| self.weights[row + i as usize] * v)
            .sum()
    }

    /// Logits over the whole vocabulary.
    pub fn logits(&self, x: &SparseFeatures) -> Vec<f32> {
        (0..self.vocab.len() as u32).map(|t| self.logit(t, x)).collect()
    }

    /// Softmax distribution over the whole vocabulary at `temperature`.
    pub fn distribution(&self, x: &SparseFeatures, temperature: f32) -> Vec<f32> {
        softmax(&self.logits(x), temperature)
    }

    /// One SGD step of softmax cross-entropy towards `target`, scaled by
    /// `weight` (the node matching-based loss enters through this weight).
    /// Returns the example's cross-entropy loss before the update.
    pub fn train_step(&mut self, x: &SparseFeatures, target: u32, lr: f32, weight: f32) -> f32 {
        let probs = self.distribution(x, 1.0);
        let loss = -probs[target as usize].max(1e-9).ln();
        for t in 0..self.vocab.len() as u32 {
            let grad_coeff = if t == target {
                probs[t as usize] - 1.0
            } else {
                probs[t as usize]
            };
            if grad_coeff == 0.0 {
                continue;
            }
            let row = t as usize * self.dim;
            for (&i, &v) in &x.0 {
                self.weights[row + i as usize] -= lr * weight * grad_coeff * v;
            }
        }
        loss
    }

    /// The `k` highest-logit tokens restricted to `allowed` (all tokens when
    /// `allowed` is empty), descending.
    pub fn top_k(&self, x: &SparseFeatures, allowed: &[u32], k: usize) -> Vec<(u32, f32)> {
        let logits = self.logits(x);
        let mut scored: Vec<(u32, f32)> = if allowed.is_empty() {
            logits.iter().enumerate().map(|(i, &l)| (i as u32, l)).collect()
        } else {
            allowed.iter().map(|&t| (t, logits[t as usize])).collect()
        };
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }
}

/// Numerically stable softmax with temperature.
pub fn softmax(logits: &[f32], temperature: f32) -> Vec<f32> {
    let t = temperature.max(1e-4);
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&l| ((l - max) / t).exp()).collect();
    let sum: f32 = exps.iter().sum();
    if sum == 0.0 || !sum.is_finite() {
        vec![1.0 / logits.len().max(1) as f32; logits.len()]
    } else {
        exps.into_iter().map(|e| e / sum).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xvec(pairs: &[(u32, f32)]) -> SparseFeatures {
        SparseFeatures(pairs.iter().copied().collect())
    }

    fn model() -> ApiLm {
        ApiLm::new(Vocab::new(["a", "b", "c"]), 16)
    }

    #[test]
    fn zero_model_is_uniform() {
        let m = model();
        let d = m.distribution(&xvec(&[(0, 1.0)]), 1.0);
        assert_eq!(d.len(), 5);
        for p in &d {
            assert!((p - 0.2).abs() < 1e-6);
        }
    }

    #[test]
    fn training_moves_probability_to_target() {
        let mut m = model();
        let x = xvec(&[(1, 1.0), (3, 0.5)]);
        let target = m.vocab().id("b").unwrap();
        let before = m.distribution(&x, 1.0)[target as usize];
        let mut last_loss = f32::INFINITY;
        for _ in 0..50 {
            let loss = m.train_step(&x, target, 0.5, 1.0);
            assert!(loss <= last_loss + 1e-4, "loss should not increase");
            last_loss = loss;
        }
        let after = m.distribution(&x, 1.0)[target as usize];
        assert!(after > 0.9, "{before} -> {after}");
    }

    #[test]
    fn weight_zero_is_noop() {
        let mut m = model();
        let x = xvec(&[(0, 1.0)]);
        let w0 = m.weights.clone();
        m.train_step(&x, 2, 0.5, 0.0);
        assert_eq!(m.weights, w0);
    }

    #[test]
    fn top_k_respects_allowed_set() {
        let mut m = model();
        let x = xvec(&[(2, 1.0)]);
        // Teach token 'c' (id 4) hard.
        for _ in 0..30 {
            m.train_step(&x, 4, 0.5, 1.0);
        }
        let all = m.top_k(&x, &[], 1);
        assert_eq!(all[0].0, 4);
        let constrained = m.top_k(&x, &[2, 3], 2);
        assert_eq!(constrained.len(), 2);
        assert!(constrained.iter().all(|&(t, _)| t == 2 || t == 3));
    }

    #[test]
    fn softmax_temperature_sharpens_and_flattens() {
        let logits = vec![1.0, 2.0, 3.0];
        let sharp = softmax(&logits, 0.2);
        let flat = softmax(&logits, 5.0);
        assert!(sharp[2] > flat[2]);
        let sum: f32 = sharp.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn json_roundtrip_preserves_predictions() {
        let mut m = model();
        let x = xvec(&[(5, 1.0)]);
        for _ in 0..10 {
            m.train_step(&x, 3, 0.5, 1.0);
        }
        let s = chatgraph_support::json::to_string(&m);
        let mut back: ApiLm = chatgraph_support::json::from_str(&s).unwrap();
        back.vocab.reindex();
        assert_eq!(m.logits(&x), back.logits(&x));
    }
}
