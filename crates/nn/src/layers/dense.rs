//! Fully-connected layer.

use super::Layer;
use crate::tensor::Tensor;
use zeiot_core::rng::SeedRng;

/// A fully-connected (dense) layer `y = Wx + b` with He-uniform
/// initialization.
///
/// Accepts input of any shape with the right element count (flattening is
/// implicit), mirroring how the paper's CNN feeds pooled feature maps into
/// its two fully-connected layers.
///
/// # Example
///
/// ```
/// use zeiot_nn::layers::{Dense, Layer};
/// use zeiot_nn::tensor::Tensor;
/// use zeiot_core::rng::SeedRng;
///
/// let mut rng = SeedRng::new(1);
/// let mut fc = Dense::new(4, 2, &mut rng);
/// let out = fc.forward(&Tensor::zeros(vec![4]));
/// assert_eq!(out.shape(), &[2]);
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    in_len: usize,
    out_len: usize,
    weights: Tensor, // [out, in]
    bias: Tensor,    // [out]
    grad_weights: Tensor,
    grad_bias: Tensor,
    momentum: f32,
    vel_weights: Tensor,
    vel_bias: Tensor,
    last_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer of `in_len → out_len`.
    ///
    /// # Panics
    ///
    /// Panics if either length is zero.
    pub fn new(in_len: usize, out_len: usize, rng: &mut SeedRng) -> Self {
        assert!(in_len > 0 && out_len > 0, "lengths must be positive");
        let scale = (6.0 / in_len as f32).sqrt();
        Self {
            in_len,
            out_len,
            weights: Tensor::uniform(vec![out_len, in_len], scale, rng),
            bias: Tensor::zeros(vec![out_len]),
            grad_weights: Tensor::zeros(vec![out_len, in_len]),
            grad_bias: Tensor::zeros(vec![out_len]),
            momentum: 0.0,
            vel_weights: Tensor::zeros(vec![out_len, in_len]),
            vel_bias: Tensor::zeros(vec![out_len]),
            last_input: None,
        }
    }

    /// Read access to the weight matrix.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// Mutable access to the weight matrix.
    pub fn weights_mut(&mut self) -> &mut Tensor {
        &mut self.weights
    }

    /// Read access to the bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.len(), self.in_len, "dense input length mismatch");
        let mut out = Tensor::zeros(vec![self.out_len]);
        for o in 0..self.out_len {
            let row = &self.weights.data()[o * self.in_len..(o + 1) * self.in_len];
            let mut acc = self.bias.data()[o];
            for (w, x) in row.iter().zip(input.data()) {
                acc += w * x;
            }
            out.data_mut()[o] = acc;
        }
        self.last_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .last_input
            .as_ref()
            .expect("backward called before forward")
            .clone();
        assert_eq!(grad_out.len(), self.out_len, "dense grad length mismatch");
        let mut grad_in = Tensor::zeros(vec![self.in_len]);
        for o in 0..self.out_len {
            let g = grad_out.data()[o];
            if g == 0.0 {
                continue;
            }
            self.grad_bias.data_mut()[o] += g;
            let row_start = o * self.in_len;
            for i in 0..self.in_len {
                self.grad_weights.data_mut()[row_start + i] += g * input.data()[i];
                grad_in.data_mut()[i] += g * self.weights.data()[row_start + i];
            }
        }
        // Return the gradient in the input's original shape.
        grad_in
            .reshape(input.shape().to_vec())
            .expect("same element count")
    }

    fn apply_gradients(&mut self, lr: f32) {
        if self.momentum > 0.0 {
            self.vel_weights.scale(self.momentum);
            self.vel_weights.add_scaled(&self.grad_weights, 1.0);
            self.vel_bias.scale(self.momentum);
            self.vel_bias.add_scaled(&self.grad_bias, 1.0);
            self.weights.add_scaled(&self.vel_weights, -lr);
            self.bias.add_scaled(&self.vel_bias, -lr);
        } else {
            self.weights.add_scaled(&self.grad_weights, -lr);
            self.bias.add_scaled(&self.grad_bias, -lr);
        }
        self.grad_weights.fill_zero();
        self.grad_bias.fill_zero();
    }

    fn set_momentum(&mut self, momentum: f32) {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        self.momentum = momentum;
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::super::gradcheck::check_input_gradient;
    use super::*;

    #[test]
    fn forward_computes_wx_plus_b() {
        let mut rng = SeedRng::new(1);
        let mut fc = Dense::new(2, 2, &mut rng);
        fc.weights_mut()
            .data_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        fc.bias = Tensor::from_vec(vec![2], vec![0.5, -0.5]).unwrap();
        let x = Tensor::from_vec(vec![2], vec![1.0, 1.0]).unwrap();
        let y = fc.forward(&x);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn accepts_multidim_input_with_matching_count() {
        let mut rng = SeedRng::new(2);
        let mut fc = Dense::new(12, 3, &mut rng);
        let x = Tensor::zeros(vec![3, 2, 2]);
        let y = fc.forward(&x);
        assert_eq!(y.shape(), &[3]);
        // Backward returns the original shape.
        let g = fc.backward(&Tensor::zeros(vec![3]));
        assert_eq!(g.shape(), &[3, 2, 2]);
    }

    #[test]
    fn gradient_check_input() {
        let mut rng = SeedRng::new(3);
        let mut fc = Dense::new(6, 4, &mut rng);
        let input = Tensor::uniform(vec![6], 1.0, &mut rng);
        check_input_gradient(&mut fc, &input, 1e-2);
    }

    #[test]
    fn gradient_check_weights() {
        let mut rng = SeedRng::new(4);
        let mut fc = Dense::new(3, 2, &mut rng);
        let input = Tensor::uniform(vec![3], 1.0, &mut rng);
        let out = fc.forward(&input);
        let probe = Tensor::uniform(out.shape().to_vec(), 1.0, &mut rng);
        fc.backward(&probe);
        let analytic = fc.grad_weights.clone();

        let eps = 1e-2f32;
        for i in 0..fc.weights.len() {
            let orig = fc.weights.data()[i];
            fc.weights.data_mut()[i] = orig + eps;
            let fp: f32 = fc
                .forward(&input)
                .data()
                .iter()
                .zip(probe.data())
                .map(|(o, p)| o * p)
                .sum();
            fc.weights.data_mut()[i] = orig - eps;
            let fm: f32 = fc
                .forward(&input)
                .data()
                .iter()
                .zip(probe.data())
                .map(|(o, p)| o * p)
                .sum();
            fc.weights.data_mut()[i] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (analytic.data()[i] - numeric).abs() < 1e-2 * (1.0 + numeric.abs()),
                "weight grad mismatch at {i}"
            );
        }
    }

    #[test]
    fn gradients_accumulate_across_samples() {
        let mut rng = SeedRng::new(5);
        let mut fc = Dense::new(2, 1, &mut rng);
        let x = Tensor::from_vec(vec![2], vec![1.0, 0.0]).unwrap();
        let g = Tensor::from_vec(vec![1], vec![1.0]).unwrap();
        fc.forward(&x);
        fc.backward(&g);
        fc.forward(&x);
        fc.backward(&g);
        // Two identical backward passes double the gradient.
        assert_eq!(fc.grad_weights.data()[0], 2.0);
        assert_eq!(fc.grad_bias.data()[0], 2.0);
    }

    #[test]
    fn apply_gradients_descends() {
        let mut rng = SeedRng::new(6);
        let mut fc = Dense::new(1, 1, &mut rng);
        fc.weights_mut().data_mut()[0] = 1.0;
        let x = Tensor::from_vec(vec![1], vec![2.0]).unwrap();
        fc.forward(&x);
        fc.backward(&Tensor::from_vec(vec![1], vec![1.0]).unwrap());
        fc.apply_gradients(0.5);
        // w -= 0.5 * (1.0 * 2.0) = 1.0 - 1.0 = 0.
        assert!((fc.weights().data()[0]).abs() < 1e-6);
    }

    #[test]
    fn param_count() {
        let mut rng = SeedRng::new(7);
        let fc = Dense::new(10, 4, &mut rng);
        assert_eq!(fc.param_count(), 44);
    }
}
