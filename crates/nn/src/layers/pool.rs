//! 2-D pooling layers.

use super::Layer;
use crate::tensor::Tensor;

/// Max pooling with a square window equal to the stride (non-overlapping),
/// as in the paper's CNN (one pooling layer after the convolution).
///
/// # Example
///
/// ```
/// use zeiot_nn::layers::{Layer, MaxPool2d};
/// use zeiot_nn::tensor::Tensor;
///
/// let mut pool = MaxPool2d::new(1, 4, 4, 2);
/// let input = Tensor::from_vec(vec![1, 4, 4], (0..16).map(|i| i as f32).collect()).unwrap();
/// let out = pool.forward(&input);
/// assert_eq!(out.shape(), &[1, 2, 2]);
/// assert_eq!(out.get(&[0, 0, 0]), 5.0);  // max of {0,1,4,5}
/// assert_eq!(out.get(&[0, 1, 1]), 15.0);
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    channels: usize,
    in_height: usize,
    in_width: usize,
    kernel: usize,
    argmax: Vec<usize>,
    seen_forward: bool,
}

impl MaxPool2d {
    /// Creates a max-pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the input is not divisible by
    /// the window.
    pub fn new(channels: usize, in_height: usize, in_width: usize, kernel: usize) -> Self {
        assert!(channels > 0 && kernel > 0, "dimensions must be positive");
        assert!(
            in_height.is_multiple_of(kernel) && in_width.is_multiple_of(kernel),
            "input {in_height}×{in_width} not divisible by window {kernel}"
        );
        Self {
            channels,
            in_height,
            in_width,
            kernel,
            argmax: Vec::new(),
            seen_forward: false,
        }
    }

    fn out_dims(&self) -> (usize, usize) {
        (self.in_height / self.kernel, self.in_width / self.kernel)
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(
            input.shape(),
            &[self.channels, self.in_height, self.in_width],
            "pool input shape mismatch"
        );
        let (oh, ow) = self.out_dims();
        let mut out = Tensor::zeros(vec![self.channels, oh, ow]);
        self.argmax = vec![0; self.channels * oh * ow];
        for c in 0..self.channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_off = 0;
                    for ky in 0..self.kernel {
                        for kx in 0..self.kernel {
                            let iy = oy * self.kernel + ky;
                            let ix = ox * self.kernel + kx;
                            let off = c * self.in_height * self.in_width + iy * self.in_width + ix;
                            let v = input.data()[off];
                            if v > best {
                                best = v;
                                best_off = off;
                            }
                        }
                    }
                    out.set(&[c, oy, ox], best);
                    self.argmax[c * oh * ow + oy * ow + ox] = best_off;
                }
            }
        }
        self.seen_forward = true;
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(self.seen_forward, "backward called before forward");
        let (oh, ow) = self.out_dims();
        assert_eq!(
            grad_out.shape(),
            &[self.channels, oh, ow],
            "pool grad shape mismatch"
        );
        let mut grad_in = Tensor::zeros(vec![self.channels, self.in_height, self.in_width]);
        for (i, &src) in self.argmax.iter().enumerate() {
            grad_in.data_mut()[src] += grad_out.data()[i];
        }
        grad_in
    }

    fn apply_gradients(&mut self, _lr: f32) {}
}

/// Average pooling with a square non-overlapping window.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    channels: usize,
    in_height: usize,
    in_width: usize,
    kernel: usize,
    seen_forward: bool,
}

impl AvgPool2d {
    /// Creates an average-pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the input is not divisible by
    /// the window.
    pub fn new(channels: usize, in_height: usize, in_width: usize, kernel: usize) -> Self {
        assert!(channels > 0 && kernel > 0, "dimensions must be positive");
        assert!(
            in_height.is_multiple_of(kernel) && in_width.is_multiple_of(kernel),
            "input {in_height}×{in_width} not divisible by window {kernel}"
        );
        Self {
            channels,
            in_height,
            in_width,
            kernel,
            seen_forward: false,
        }
    }

    fn out_dims(&self) -> (usize, usize) {
        (self.in_height / self.kernel, self.in_width / self.kernel)
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(
            input.shape(),
            &[self.channels, self.in_height, self.in_width],
            "pool input shape mismatch"
        );
        let (oh, ow) = self.out_dims();
        let inv = 1.0 / (self.kernel * self.kernel) as f32;
        let mut out = Tensor::zeros(vec![self.channels, oh, ow]);
        for c in 0..self.channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for ky in 0..self.kernel {
                        for kx in 0..self.kernel {
                            let iy = oy * self.kernel + ky;
                            let ix = ox * self.kernel + kx;
                            acc += input.data()
                                [c * self.in_height * self.in_width + iy * self.in_width + ix];
                        }
                    }
                    out.set(&[c, oy, ox], acc * inv);
                }
            }
        }
        self.seen_forward = true;
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(self.seen_forward, "backward called before forward");
        let (oh, ow) = self.out_dims();
        assert_eq!(
            grad_out.shape(),
            &[self.channels, oh, ow],
            "pool grad shape mismatch"
        );
        let inv = 1.0 / (self.kernel * self.kernel) as f32;
        let mut grad_in = Tensor::zeros(vec![self.channels, self.in_height, self.in_width]);
        for c in 0..self.channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_out.get(&[c, oy, ox]) * inv;
                    for ky in 0..self.kernel {
                        for kx in 0..self.kernel {
                            let iy = oy * self.kernel + ky;
                            let ix = ox * self.kernel + kx;
                            grad_in.data_mut()
                                [c * self.in_height * self.in_width + iy * self.in_width + ix] += g;
                        }
                    }
                }
            }
        }
        grad_in
    }

    fn apply_gradients(&mut self, _lr: f32) {}
}

#[cfg(test)]
mod tests {
    use super::super::gradcheck::check_input_gradient;
    use super::*;
    use zeiot_core::rng::SeedRng;

    #[test]
    fn max_pool_selects_maxima() {
        let mut pool = MaxPool2d::new(2, 4, 4, 2);
        let mut data = vec![0.0f32; 32];
        data[5] = 9.0; // channel 0, (1,1)
        data[16] = 7.0; // channel 1, (0,0)
        let input = Tensor::from_vec(vec![2, 4, 4], data).unwrap();
        let out = pool.forward(&input);
        assert_eq!(out.get(&[0, 0, 0]), 9.0);
        assert_eq!(out.get(&[1, 0, 0]), 7.0);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(1, 2, 2, 2);
        let input = Tensor::from_vec(vec![1, 2, 2], vec![1.0, 5.0, 2.0, 3.0]).unwrap();
        pool.forward(&input);
        let grad = Tensor::from_vec(vec![1, 1, 1], vec![10.0]).unwrap();
        let gin = pool.backward(&grad);
        assert_eq!(gin.data(), &[0.0, 10.0, 0.0, 0.0]);
    }

    #[test]
    fn avg_pool_averages() {
        let mut pool = AvgPool2d::new(1, 2, 2, 2);
        let input = Tensor::from_vec(vec![1, 2, 2], vec![1.0, 2.0, 3.0, 6.0]).unwrap();
        let out = pool.forward(&input);
        assert_eq!(out.get(&[0, 0, 0]), 3.0);
    }

    #[test]
    fn avg_pool_backward_spreads_evenly() {
        let mut pool = AvgPool2d::new(1, 2, 2, 2);
        pool.forward(&Tensor::zeros(vec![1, 2, 2]));
        let grad = Tensor::from_vec(vec![1, 1, 1], vec![8.0]).unwrap();
        let gin = pool.backward(&grad);
        assert_eq!(gin.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn gradient_check_max_pool() {
        let mut rng = SeedRng::new(20);
        let mut pool = MaxPool2d::new(2, 4, 4, 2);
        // Distinct values avoid argmax ties that break finite differences.
        let data: Vec<f32> = (0..32).map(|i| (i as f32 * 7.3) % 11.0).collect();
        let input = Tensor::from_vec(vec![2, 4, 4], data).unwrap();
        let _ = &mut rng;
        check_input_gradient(&mut pool, &input, 2e-2);
    }

    #[test]
    fn gradient_check_avg_pool() {
        let mut rng = SeedRng::new(21);
        let mut pool = AvgPool2d::new(2, 4, 4, 2);
        let input = Tensor::uniform(vec![2, 4, 4], 1.0, &mut rng);
        check_input_gradient(&mut pool, &input, 2e-2);
    }

    #[test]
    #[should_panic]
    fn indivisible_window_panics() {
        let _ = MaxPool2d::new(1, 5, 4, 2);
    }

    #[test]
    #[should_panic]
    fn backward_before_forward_panics() {
        let mut pool = MaxPool2d::new(1, 2, 2, 2);
        let _ = pool.backward(&Tensor::zeros(vec![1, 1, 1]));
    }

    #[test]
    fn pools_have_no_params() {
        assert_eq!(MaxPool2d::new(1, 2, 2, 2).param_count(), 0);
        assert_eq!(AvgPool2d::new(1, 2, 2, 2).param_count(), 0);
    }
}
