//! Dense vectors and distance metrics.


/// A dense `f32` vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Vector(pub Vec<f32>);

chatgraph_support::impl_json_newtype!(Vector);

/// Distance metric selector shared by the embedder and the ANN indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Euclidean distance.
    L2,
    /// Cosine distance `1 − cos(a, b)`.
    Cosine,
    /// Negative inner product (smaller = more similar).
    Dot,
}

chatgraph_support::impl_json_enum!(Metric { L2, Cosine, Dot });

impl Vector {
    /// A zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Vector(vec![0.0; dim])
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Raw slice access.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.0.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Scales the vector to unit norm (no-op for zero vectors).
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            for x in &mut self.0 {
                *x /= n;
            }
        }
    }

    /// Inner product. Panics on dimension mismatch.
    pub fn dot(&self, other: &Vector) -> f32 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum()
    }

    /// Squared Euclidean distance.
    pub fn l2_sq(&self, other: &Vector) -> f32 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Euclidean distance.
    pub fn l2(&self, other: &Vector) -> f32 {
        self.l2_sq(other).sqrt()
    }

    /// Cosine distance `1 − cos`. Zero vectors are treated as orthogonal to
    /// everything (distance 1).
    pub fn cosine(&self, other: &Vector) -> f32 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            return 1.0;
        }
        1.0 - (self.dot(other) / denom).clamp(-1.0, 1.0)
    }

    /// Distance under the chosen metric.
    pub fn distance(&self, other: &Vector, metric: Metric) -> f32 {
        match metric {
            Metric::L2 => self.l2(other),
            Metric::Cosine => self.cosine(other),
            Metric::Dot => -self.dot(other),
        }
    }
}

impl From<Vec<f32>> for Vector {
    fn from(v: Vec<f32>) -> Self {
        Vector(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_and_normalize() {
        let mut v = Vector(vec![3.0, 4.0]);
        assert_eq!(v.norm(), 5.0);
        v.normalize();
        assert!((v.norm() - 1.0).abs() < 1e-6);
        let mut z = Vector::zeros(2);
        z.normalize(); // must not NaN
        assert_eq!(z.norm(), 0.0);
    }

    #[test]
    fn distances() {
        let a = Vector(vec![1.0, 0.0]);
        let b = Vector(vec![0.0, 1.0]);
        assert_eq!(a.l2(&b), 2.0f32.sqrt());
        assert_eq!(a.dot(&b), 0.0);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6);
        assert_eq!(a.cosine(&a), 0.0);
        assert_eq!(a.distance(&b, Metric::Dot), -0.0);
    }

    #[test]
    fn cosine_of_zero_vector_is_one() {
        let a = Vector(vec![1.0, 2.0]);
        let z = Vector::zeros(2);
        assert_eq!(a.cosine(&z), 1.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        Vector(vec![1.0]).dot(&Vector(vec![1.0, 2.0]));
    }

    #[test]
    fn metric_dispatch() {
        let a = Vector(vec![1.0, 1.0]);
        let b = Vector(vec![1.0, 1.0]);
        assert_eq!(a.distance(&b, Metric::L2), 0.0);
        assert_eq!(a.distance(&b, Metric::Cosine), 0.0);
        assert_eq!(a.distance(&b, Metric::Dot), -2.0);
    }
}
