//! Network layers with exact backpropagation.
//!
//! Each layer caches whatever it needs from the forward pass to compute
//! gradients in the backward pass, accumulates parameter gradients across
//! samples, and applies them on [`Layer::apply_gradients`]. Gradient
//! correctness is enforced by numerical gradient checks in each layer's
//! tests.

mod activation;
mod conv;
mod dense;
mod pool;

pub use activation::{Flatten, Relu, Sigmoid};
pub use conv::Conv2d;
pub use dense::Dense;
pub use pool::{AvgPool2d, MaxPool2d};

use crate::tensor::Tensor;

/// A differentiable network layer.
pub trait Layer {
    /// Computes the layer output, caching state for [`Layer::backward`].
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Propagates `grad_out` (∂loss/∂output) backwards, accumulating
    /// parameter gradients and returning ∂loss/∂input.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before any [`Layer::forward`].
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Applies accumulated parameter gradients scaled by `lr` and clears
    /// them. A no-op for parameter-free layers.
    fn apply_gradients(&mut self, lr: f32);

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Sets the momentum coefficient for subsequent updates (classical
    /// momentum: `v ← µv + g`, `w ← w − lr·v`). A no-op for
    /// parameter-free layers.
    ///
    /// # Panics
    ///
    /// Implementations panic if `momentum` is outside `[0, 1)`.
    fn set_momentum(&mut self, _momentum: f32) {}
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Shared numerical-gradient checking utility.

    use super::*;

    /// Verifies ∂loss/∂input by central finite differences, where the loss
    /// is `sum(output * probe)` for a fixed random probe.
    pub fn check_input_gradient<L: Layer>(layer: &mut L, input: &Tensor, tol: f32) {
        let mut rng = zeiot_core::rng::SeedRng::new(0xC0FFEE);
        let out = layer.forward(input);
        let probe: Vec<f32> = (0..out.len())
            .map(|_| rng.uniform_range(-1.0, 1.0) as f32)
            .collect();
        let probe_t = Tensor::from_vec(out.shape().to_vec(), probe.clone()).unwrap();
        let analytic = layer.backward(&probe_t);

        let eps = 1e-2f32;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let f_plus: f32 = layer
                .forward(&plus)
                .data()
                .iter()
                .zip(&probe)
                .map(|(o, p)| o * p)
                .sum();
            let f_minus: f32 = layer
                .forward(&minus)
                .data()
                .iter()
                .zip(&probe)
                .map(|(o, p)| o * p)
                .sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + a.abs().max(numeric.abs())),
                "input grad mismatch at {i}: analytic={a} numeric={numeric}"
            );
        }
    }
}
