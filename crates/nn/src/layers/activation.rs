//! Element-wise activations and shape adapters.
//!
//! These layers have no units in the MicroDeep unit graph: a sensor node
//! applies them locally to a unit's output without any communication, so
//! [`LayerSpec`](crate::topology::LayerSpec) has no variant for them.

use super::Layer;
use crate::tensor::Tensor;

/// Rectified linear unit, `max(0, x)` element-wise.
///
/// # Example
///
/// ```
/// use zeiot_nn::layers::{Layer, Relu};
/// use zeiot_nn::tensor::Tensor;
///
/// let mut relu = Relu::new();
/// let x = Tensor::from_vec(vec![3], vec![-1.0, 0.0, 2.0]).unwrap();
/// assert_eq!(relu.forward(&x).data(), &[0.0, 0.0, 2.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.mask = input.data().iter().map(|&v| v > 0.0).collect();
        let data = input.data().iter().map(|&v| v.max(0.0)).collect();
        Tensor::from_vec(input.shape().to_vec(), data).expect("same shape")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(!self.mask.is_empty(), "backward called before forward");
        assert_eq!(grad_out.len(), self.mask.len(), "relu grad length mismatch");
        let data = grad_out
            .data()
            .iter()
            .zip(&self.mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(grad_out.shape().to_vec(), data).expect("same shape")
    }

    fn apply_gradients(&mut self, _lr: f32) {}
}

/// Logistic sigmoid, `1 / (1 + e^{-x})` element-wise.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    last_output: Vec<f32>,
}

impl Sigmoid {
    /// Creates a sigmoid activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let data: Vec<f32> = input
            .data()
            .iter()
            .map(|&v| 1.0 / (1.0 + (-v).exp()))
            .collect();
        self.last_output = data.clone();
        Tensor::from_vec(input.shape().to_vec(), data).expect("same shape")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            !self.last_output.is_empty(),
            "backward called before forward"
        );
        assert_eq!(
            grad_out.len(),
            self.last_output.len(),
            "sigmoid grad length mismatch"
        );
        let data = grad_out
            .data()
            .iter()
            .zip(&self.last_output)
            .map(|(&g, &y)| g * y * (1.0 - y))
            .collect();
        Tensor::from_vec(grad_out.shape().to_vec(), data).expect("same shape")
    }

    fn apply_gradients(&mut self, _lr: f32) {}
}

/// Flattens any input to rank 1 (and restores the shape on backward).
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    in_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flattening adapter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.in_shape = input.shape().to_vec();
        input
            .reshape(vec![input.len()])
            .expect("flatten preserves count")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(!self.in_shape.is_empty(), "backward called before forward");
        grad_out
            .reshape(self.in_shape.clone())
            .expect("flatten preserves count")
    }

    fn apply_gradients(&mut self, _lr: f32) {}
}

#[cfg(test)]
mod tests {
    use super::super::gradcheck::check_input_gradient;
    use super::*;
    use zeiot_core::rng::SeedRng;

    #[test]
    fn relu_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![4], vec![-2.0, -0.1, 0.1, 3.0]).unwrap();
        let y = relu.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 0.1, 3.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![3], vec![-1.0, 1.0, 2.0]).unwrap();
        relu.forward(&x);
        let g = Tensor::from_vec(vec![3], vec![5.0, 5.0, 5.0]).unwrap();
        assert_eq!(relu.backward(&g).data(), &[0.0, 5.0, 5.0]);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![3], vec![-10.0, 0.0, 10.0]).unwrap();
        let y = s.forward(&x);
        assert!(y.data()[0] < 0.001);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 0.999);
    }

    #[test]
    fn sigmoid_gradient_check() {
        let mut rng = SeedRng::new(30);
        let mut s = Sigmoid::new();
        let input = Tensor::uniform(vec![8], 2.0, &mut rng);
        check_input_gradient(&mut s, &input, 1e-2);
    }

    #[test]
    fn relu_gradient_check_away_from_kink() {
        let mut relu = Relu::new();
        // Values far from zero so finite differences do not straddle the
        // non-differentiable point.
        let input = Tensor::from_vec(vec![4], vec![-1.0, -0.5, 0.5, 1.0]).unwrap();
        check_input_gradient(&mut relu, &input, 1e-2);
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(vec![2, 3, 4]);
        let y = f.forward(&x);
        assert_eq!(y.shape(), &[24]);
        let g = f.backward(&Tensor::zeros(vec![24]));
        assert_eq!(g.shape(), &[2, 3, 4]);
    }

    #[test]
    fn activations_have_no_params() {
        assert_eq!(Relu::new().param_count(), 0);
        assert_eq!(Sigmoid::new().param_count(), 0);
        assert_eq!(Flatten::new().param_count(), 0);
    }
}
