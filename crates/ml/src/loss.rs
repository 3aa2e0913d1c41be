//! Stateful loss objects (mirroring `criterion = nn.CrossEntropyLoss()` in
//! the paper's PyTorch figures).

use flor_tensor::{ops, Tensor};

/// Cross-entropy loss over logits and integer class targets.
///
/// `forward` caches the softmax probabilities and targets; `backward`
/// produces the logits gradient to feed into the model's backward pass.
pub struct CrossEntropyLoss {
    cached: Option<(Tensor, Vec<usize>)>,
}

impl CrossEntropyLoss {
    /// New loss object.
    pub fn new() -> Self {
        CrossEntropyLoss { cached: None }
    }

    /// Computes the mean cross-entropy of `logits` against `targets`.
    pub fn forward(&mut self, logits: &Tensor, targets: &[usize]) -> f32 {
        let (loss, probs) = ops::cross_entropy(logits, targets);
        self.cached = Some((probs, targets.to_vec()));
        loss
    }

    /// Gradient of the last `forward` with respect to its logits.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self) -> Tensor {
        self.try_backward()
            .expect("CrossEntropyLoss::backward called before forward")
    }

    /// [`CrossEntropyLoss::backward`], or `None` before the first `forward`.
    pub fn try_backward(&mut self) -> Option<Tensor> {
        let (probs, targets) = self.cached.as_ref()?;
        Some(ops::cross_entropy_backward(probs, targets))
    }
}

impl Default for CrossEntropyLoss {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_then_backward() {
        let mut loss = CrossEntropyLoss::new();
        let logits = Tensor::new([2, 2], vec![2.0, 0.0, 0.0, 2.0]);
        let l = loss.forward(&logits, &[0, 1]);
        assert!(l > 0.0 && l < 0.2, "confident correct predictions: {l}");
        let g = loss.backward();
        assert_eq!(g.shape().dims(), &[2, 2]);
        // Gradient pushes the correct logit up (negative gradient).
        assert!(g.data()[0] < 0.0);
        assert!(g.data()[3] < 0.0);
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_without_forward_panics() {
        CrossEntropyLoss::new().backward();
    }
}
