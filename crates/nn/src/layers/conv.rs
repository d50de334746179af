//! 2-D convolution.

use super::Layer;
use crate::tensor::Tensor;
use crate::topology::conv_output_dims;
use zeiot_core::rng::SeedRng;

/// A 2-D convolution over `in_channels × height × width` inputs with
/// square kernels, He-uniform initialization, and bias.
///
/// # Example
///
/// ```
/// use zeiot_nn::layers::{Conv2d, Layer};
/// use zeiot_nn::tensor::Tensor;
/// use zeiot_core::rng::SeedRng;
///
/// let mut rng = SeedRng::new(1);
/// let mut conv = Conv2d::new(1, 4, 8, 8, 3, 1, 0, &mut rng);
/// let input = Tensor::zeros(vec![1, 8, 8]);
/// let out = conv.forward(&input);
/// assert_eq!(out.shape(), &[4, 6, 6]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    in_height: usize,
    in_width: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weights: Tensor, // [oc, ic, k, k]
    bias: Tensor,    // [oc]
    grad_weights: Tensor,
    grad_bias: Tensor,
    momentum: f32,
    vel_weights: Tensor,
    vel_bias: Tensor,
    last_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, the stride is zero, or the kernel
    /// exceeds the padded input.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        in_height: usize,
        in_width: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut SeedRng,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
            "dimensions must be positive"
        );
        // Validates the geometry (panics on kernel > padded input).
        let _ = conv_output_dims(in_height, in_width, kernel, stride, padding);
        let fan_in = (in_channels * kernel * kernel) as f32;
        let scale = (6.0 / fan_in).sqrt();
        let weights = Tensor::uniform(vec![out_channels, in_channels, kernel, kernel], scale, rng);
        let bias = Tensor::zeros(vec![out_channels]);
        let grad_weights = Tensor::zeros(vec![out_channels, in_channels, kernel, kernel]);
        let grad_bias = Tensor::zeros(vec![out_channels]);
        let vel_weights = grad_weights.clone();
        let vel_bias = grad_bias.clone();
        Self {
            in_channels,
            in_height,
            in_width,
            out_channels,
            kernel,
            stride,
            padding,
            weights,
            bias,
            grad_weights,
            grad_bias,
            momentum: 0.0,
            vel_weights,
            vel_bias,
            last_input: None,
        }
    }

    /// Output shape `[out_channels, out_height, out_width]`.
    pub fn output_shape(&self) -> [usize; 3] {
        let (oh, ow) = conv_output_dims(
            self.in_height,
            self.in_width,
            self.kernel,
            self.stride,
            self.padding,
        );
        [self.out_channels, oh, ow]
    }

    /// Read access to the weights (for inspection/serialization).
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// Mutable access to the weights (e.g. distributed weight exchange).
    pub fn weights_mut(&mut self) -> &mut Tensor {
        &mut self.weights
    }

    fn input_at(&self, input: &Tensor, c: usize, y: isize, x: isize) -> f32 {
        if y < 0 || x < 0 || y as usize >= self.in_height || x as usize >= self.in_width {
            0.0
        } else {
            input.data()
                [c * self.in_height * self.in_width + y as usize * self.in_width + x as usize]
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(
            input.shape(),
            &[self.in_channels, self.in_height, self.in_width],
            "conv input shape mismatch"
        );
        let [oc, oh, ow] = self.output_shape();
        let mut out = Tensor::zeros(vec![oc, oh, ow]);
        for o in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = self.bias.data()[o];
                    for ic in 0..self.in_channels {
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                                let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                                let w = self.weights.get(&[o, ic, ky, kx]);
                                acc += w * self.input_at(input, ic, iy, ix);
                            }
                        }
                    }
                    out.set(&[o, oy, ox], acc);
                }
            }
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
        let [oc, oh, ow] = self.output_shape();
        assert_eq!(grad_out.shape(), &[oc, oh, ow], "conv grad shape mismatch");
        let mut grad_in = Tensor::zeros(vec![self.in_channels, self.in_height, self.in_width]);
        for o in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_out.get(&[o, oy, ox]);
                    if g == 0.0 {
                        continue;
                    }
                    self.grad_bias.data_mut()[o] += g;
                    for ic in 0..self.in_channels {
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                                let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                                if iy < 0
                                    || ix < 0
                                    || iy as usize >= self.in_height
                                    || ix as usize >= self.in_width
                                {
                                    continue;
                                }
                                let in_off = ic * self.in_height * self.in_width
                                    + iy as usize * self.in_width
                                    + ix as usize;
                                let w_off = self.weights.offset(&[o, ic, ky, kx]);
                                self.grad_weights.data_mut()[w_off] += g * input.data()[in_off];
                                grad_in.data_mut()[in_off] += g * self.weights.data()[w_off];
                            }
                        }
                    }
                }
            }
        }
        grad_in
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
    fn forward_shape_and_identity_kernel() {
        let mut rng = SeedRng::new(1);
        let mut conv = Conv2d::new(1, 1, 3, 3, 1, 1, 0, &mut rng);
        // Set the 1×1 kernel to identity.
        conv.weights_mut().data_mut()[0] = 1.0;
        let input = Tensor::from_vec(vec![1, 3, 3], (1..=9).map(|i| i as f32).collect()).unwrap();
        let out = conv.forward(&input);
        // bias is zero → output equals input.
        for i in 0..9 {
            assert!((out.data()[i] - input.data()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn forward_known_convolution() {
        let mut rng = SeedRng::new(2);
        let mut conv = Conv2d::new(1, 1, 3, 3, 2, 1, 0, &mut rng);
        // All-ones 2×2 kernel: each output is the sum of a 2×2 patch.
        for w in conv.weights_mut().data_mut() {
            *w = 1.0;
        }
        let input = Tensor::from_vec(vec![1, 3, 3], (1..=9).map(|i| i as f32).collect()).unwrap();
        let out = conv.forward(&input);
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.get(&[0, 0, 0]), 1.0 + 2.0 + 4.0 + 5.0);
        assert_eq!(out.get(&[0, 1, 1]), 5.0 + 6.0 + 8.0 + 9.0);
    }

    #[test]
    fn padding_preserves_size() {
        let mut rng = SeedRng::new(3);
        let mut conv = Conv2d::new(1, 2, 5, 5, 3, 1, 1, &mut rng);
        let out = conv.forward(&Tensor::zeros(vec![1, 5, 5]));
        assert_eq!(out.shape(), &[2, 5, 5]);
    }

    #[test]
    fn stride_downsamples() {
        let mut rng = SeedRng::new(4);
        let mut conv = Conv2d::new(1, 1, 8, 8, 2, 2, 0, &mut rng);
        let out = conv.forward(&Tensor::zeros(vec![1, 8, 8]));
        assert_eq!(out.shape(), &[1, 4, 4]);
    }

    #[test]
    fn gradient_check_input() {
        let mut rng = SeedRng::new(5);
        let mut conv = Conv2d::new(2, 3, 5, 5, 3, 1, 1, &mut rng);
        let input = Tensor::uniform(vec![2, 5, 5], 1.0, &mut rng);
        check_input_gradient(&mut conv, &input, 2e-2);
    }

    #[test]
    fn gradient_check_weights() {
        let mut rng = SeedRng::new(6);
        let mut conv = Conv2d::new(1, 2, 4, 4, 3, 1, 0, &mut rng);
        let input = Tensor::uniform(vec![1, 4, 4], 1.0, &mut rng);
        let out = conv.forward(&input);
        let probe = Tensor::uniform(out.shape().to_vec(), 1.0, &mut rng);
        conv.backward(&probe);
        let analytic = conv.grad_weights.clone();

        let eps = 1e-2f32;
        for i in 0..conv.weights.len() {
            let orig = conv.weights.data()[i];
            conv.weights.data_mut()[i] = orig + eps;
            let f_plus: f32 = conv
                .forward(&input)
                .data()
                .iter()
                .zip(probe.data())
                .map(|(o, p)| o * p)
                .sum();
            conv.weights.data_mut()[i] = orig - eps;
            let f_minus: f32 = conv
                .forward(&input)
                .data()
                .iter()
                .zip(probe.data())
                .map(|(o, p)| o * p)
                .sum();
            conv.weights.data_mut()[i] = orig;
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + a.abs()),
                "weight grad mismatch at {i}: {a} vs {numeric}"
            );
        }
    }

    #[test]
    fn apply_gradients_moves_weights_and_clears() {
        let mut rng = SeedRng::new(7);
        let mut conv = Conv2d::new(1, 1, 3, 3, 3, 1, 0, &mut rng);
        let input = Tensor::uniform(vec![1, 3, 3], 1.0, &mut rng);
        let out = conv.forward(&input);
        let ones = Tensor::from_vec(out.shape().to_vec(), vec![1.0; out.len()]).unwrap();
        conv.backward(&ones);
        let before = conv.weights().clone();
        conv.apply_gradients(0.1);
        assert_ne!(before.data(), conv.weights().data());
        assert!(conv.grad_weights.data().iter().all(|&g| g == 0.0));
        assert!(conv.grad_bias.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn param_count_counts_kernels_and_biases() {
        let mut rng = SeedRng::new(8);
        let conv = Conv2d::new(2, 4, 6, 7, 3, 1, 1, &mut rng);
        assert_eq!(conv.param_count(), 4 * 2 * 9 + 4);
    }

    #[test]
    #[should_panic]
    fn wrong_input_shape_panics() {
        let mut rng = SeedRng::new(9);
        let mut conv = Conv2d::new(1, 1, 4, 4, 3, 1, 0, &mut rng);
        let _ = conv.forward(&Tensor::zeros(vec![1, 5, 5]));
    }
}
