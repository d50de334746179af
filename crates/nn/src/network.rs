//! Sequential networks and SGD training.

use crate::layers::Layer;
use crate::loss::cross_entropy;
use crate::tensor::Tensor;
use zeiot_core::rng::SeedRng;

/// A feed-forward stack of layers trained with mini-batch SGD and softmax
/// cross-entropy.
///
/// See the crate-level example.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layers.len())
            .field("params", &self.param_count())
            .finish()
    }
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Runs a forward pass (caches state for a subsequent backward pass).
    ///
    /// # Panics
    ///
    /// Panics if the network is empty.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        assert!(!self.layers.is_empty(), "forward on empty network");
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Predicted class (argmax of the logits).
    pub fn predict(&mut self, input: &Tensor) -> usize {
        self.forward(input).argmax()
    }

    /// Backward pass from a loss gradient on the network output.
    pub fn backward(&mut self, grad_out: &Tensor) {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
    }

    /// Applies accumulated gradients in every layer.
    pub fn apply_gradients(&mut self, lr: f32) {
        for layer in &mut self.layers {
            layer.apply_gradients(lr);
        }
    }

    /// Enables classical momentum for every layer's updates.
    ///
    /// # Panics
    ///
    /// Panics if `momentum` is outside `[0, 1)`.
    pub fn set_momentum(&mut self, momentum: f32) {
        for layer in &mut self.layers {
            layer.set_momentum(momentum);
        }
    }

    /// Trains one epoch over `(input, class)` pairs with mini-batch SGD.
    /// Returns the mean loss over the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, `batch_size` is zero or `lr` is not
    /// finite and positive.
    pub fn train_epoch(
        &mut self,
        data: &[(Tensor, usize)],
        lr: f32,
        batch_size: usize,
        rng: &mut SeedRng,
    ) -> f32 {
        assert!(!data.is_empty(), "empty training set");
        assert!(batch_size > 0, "batch_size must be positive");
        assert!(lr.is_finite() && lr > 0.0, "lr must be positive");
        let mut order: Vec<usize> = (0..data.len()).collect();
        rng.shuffle(&mut order);
        let mut total_loss = 0.0;
        for batch in order.chunks(batch_size) {
            for &i in batch {
                let (input, target) = &data[i];
                let logits = self.forward(input);
                let (loss, grad) = cross_entropy(&logits, *target);
                total_loss += loss;
                self.backward(&grad);
            }
            self.apply_gradients(lr / batch.len() as f32);
        }
        total_loss / data.len() as f32
    }

    /// Classification accuracy over a labelled set.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn accuracy(&mut self, data: &[(Tensor, usize)]) -> f64 {
        assert!(!data.is_empty(), "empty evaluation set");
        let correct = data.iter().filter(|(x, t)| self.predict(x) == *t).count();
        correct as f64 / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};

    fn blob_dataset(rng: &mut SeedRng, n_per_class: usize) -> Vec<(Tensor, usize)> {
        // Two well-separated Gaussian blobs in 2-D.
        let mut data = Vec::new();
        for _ in 0..n_per_class {
            let x = rng.normal_with(-1.0, 0.3) as f32;
            let y = rng.normal_with(-1.0, 0.3) as f32;
            data.push((Tensor::from_vec(vec![2], vec![x, y]).unwrap(), 0));
            let x = rng.normal_with(1.0, 0.3) as f32;
            let y = rng.normal_with(1.0, 0.3) as f32;
            data.push((Tensor::from_vec(vec![2], vec![x, y]).unwrap(), 1));
        }
        data
    }

    #[test]
    fn mlp_learns_blobs() {
        let mut rng = SeedRng::new(42);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 8, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(8, 2, &mut rng));
        let data = blob_dataset(&mut rng, 50);
        let first_loss = net.train_epoch(&data, 0.1, 8, &mut rng);
        let mut last_loss = first_loss;
        for _ in 0..30 {
            last_loss = net.train_epoch(&data, 0.1, 8, &mut rng);
        }
        assert!(last_loss < first_loss, "loss did not decrease");
        assert!(net.accuracy(&data) > 0.95);
    }

    #[test]
    fn cnn_learns_spatial_pattern() {
        // Class 0: bright top-left quadrant; class 1: bright bottom-right.
        let mut rng = SeedRng::new(43);
        let mut data = Vec::new();
        for _ in 0..40 {
            for class in 0..2usize {
                let mut img = Tensor::zeros(vec![1, 6, 6]);
                for y in 0..3 {
                    for x in 0..3 {
                        let (yy, xx) = if class == 0 { (y, x) } else { (y + 3, x + 3) };
                        img.set(&[0, yy, xx], 1.0 + rng.normal_with(0.0, 0.1) as f32);
                    }
                }
                data.push((img, class));
            }
        }
        let mut net = Sequential::new();
        net.push(Conv2d::new(1, 2, 6, 6, 3, 1, 0, &mut rng));
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 4, 4, 2));
        net.push(Flatten::new());
        net.push(Dense::new(8, 2, &mut rng));
        for _ in 0..25 {
            net.train_epoch(&data, 0.1, 8, &mut rng);
        }
        assert!(net.accuracy(&data) > 0.9);
    }

    #[test]
    fn deterministic_training_given_seed() {
        let run = || {
            let mut rng = SeedRng::new(7);
            let mut net = Sequential::new();
            net.push(Dense::new(2, 4, &mut rng));
            net.push(Relu::new());
            net.push(Dense::new(4, 2, &mut rng));
            let data = blob_dataset(&mut rng, 20);
            let mut losses = Vec::new();
            for _ in 0..5 {
                losses.push(net.train_epoch(&data, 0.1, 4, &mut rng));
            }
            losses
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let run = |momentum: f32| {
            let mut rng = SeedRng::new(77);
            let mut net = Sequential::new();
            net.push(Dense::new(2, 8, &mut rng));
            net.push(Relu::new());
            net.push(Dense::new(8, 2, &mut rng));
            if momentum > 0.0 {
                net.set_momentum(momentum);
            }
            let data = blob_dataset(&mut rng, 40);
            let mut loss = 0.0;
            for _ in 0..6 {
                loss = net.train_epoch(&data, 0.02, 8, &mut rng);
            }
            loss
        };
        let plain = run(0.0);
        let momentum = run(0.9);
        assert!(
            momentum < plain,
            "momentum {momentum} should beat plain {plain} at small lr"
        );
    }

    #[test]
    #[should_panic]
    fn invalid_momentum_panics() {
        let mut rng = SeedRng::new(78);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, &mut rng));
        net.set_momentum(1.0);
    }

    #[test]
    fn param_count_sums_layers() {
        let mut rng = SeedRng::new(45);
        let mut net = Sequential::new();
        net.push(Dense::new(4, 3, &mut rng)); // 15
        net.push(Relu::new()); // 0
        net.push(Dense::new(3, 2, &mut rng)); // 8
        assert_eq!(net.param_count(), 23);
    }

    #[test]
    #[should_panic]
    fn empty_network_panics_on_forward() {
        let mut net = Sequential::new();
        let _ = net.forward(&Tensor::zeros(vec![1]));
    }

    #[test]
    #[should_panic]
    fn zero_batch_size_panics() {
        let mut rng = SeedRng::new(46);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, &mut rng));
        let data = vec![(Tensor::zeros(vec![2]), 0)];
        let _ = net.train_epoch(&data, 0.1, 0, &mut rng);
    }
}
