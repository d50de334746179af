//! The canonical MicroDeep CNN.
//!
//! Both paper experiments use the same shape: one convolutional layer,
//! one (max-)pooling layer, and two fully-connected layers (§IV.C: "We
//! used CNN consisting of one convolutional layer, one pooling layer and
//! two fully-connected layers"). [`CnnConfig`] captures its
//! hyperparameters, builds the centralized baseline network, and exposes
//! the unit graph the assignment algorithms work on.

use serde::{Deserialize, Serialize};
use zeiot_core::error::{ConfigError, Result};
use zeiot_core::rng::SeedRng;
use zeiot_nn::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use zeiot_nn::network::Sequential;
use zeiot_nn::topology::{conv_output_dims, LayerSpec, UnitGraph};

/// Hyperparameters of the canonical MicroDeep CNN
/// (conv → ReLU → max-pool → flatten → dense → ReLU → dense).
///
/// See the crate-level example.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CnnConfig {
    in_channels: usize,
    in_height: usize,
    in_width: usize,
    conv_channels: usize,
    kernel: usize,
    pool: usize,
    hidden: usize,
    classes: usize,
}

impl CnnConfig {
    /// Creates a configuration.
    ///
    /// The convolution uses stride 1 and no padding; the pooling window
    /// must evenly divide the convolution output.
    ///
    /// # Errors
    ///
    /// Returns an error if any dimension is zero, the kernel does not fit
    /// the input, or the pool window does not divide the conv output.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        in_height: usize,
        in_width: usize,
        conv_channels: usize,
        kernel: usize,
        pool: usize,
        hidden: usize,
        classes: usize,
    ) -> Result<Self> {
        for (name, v) in [
            ("in_channels", in_channels),
            ("in_height", in_height),
            ("in_width", in_width),
            ("conv_channels", conv_channels),
            ("kernel", kernel),
            ("pool", pool),
            ("hidden", hidden),
            ("classes", classes),
        ] {
            if v == 0 {
                return Err(ConfigError::new(name, "must be non-zero"));
            }
        }
        if kernel > in_height || kernel > in_width {
            return Err(ConfigError::new("kernel", "larger than input"));
        }
        let (ch, cw) = conv_output_dims(in_height, in_width, kernel, 1, 0);
        if ch % pool != 0 || cw % pool != 0 {
            return Err(ConfigError::new(
                "pool",
                format!("window {pool} does not divide conv output {ch}×{cw}"),
            ));
        }
        if classes < 2 {
            return Err(ConfigError::new("classes", "need at least two classes"));
        }
        Ok(Self {
            in_channels,
            in_height,
            in_width,
            conv_channels,
            kernel,
            pool,
            hidden,
            classes,
        })
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Input height.
    pub fn in_height(&self) -> usize {
        self.in_height
    }

    /// Input width.
    pub fn in_width(&self) -> usize {
        self.in_width
    }

    /// Convolution output channels.
    pub fn conv_channels(&self) -> usize {
        self.conv_channels
    }

    /// Convolution kernel size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Pooling window.
    pub fn pool(&self) -> usize {
        self.pool
    }

    /// Hidden dense width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Convolution output spatial dimensions.
    pub fn conv_dims(&self) -> (usize, usize) {
        conv_output_dims(self.in_height, self.in_width, self.kernel, 1, 0)
    }

    /// Pool output spatial dimensions.
    pub fn pool_dims(&self) -> (usize, usize) {
        let (ch, cw) = self.conv_dims();
        (ch / self.pool, cw / self.pool)
    }

    /// Flattened feature length entering the dense layers.
    pub fn feature_len(&self) -> usize {
        let (ph, pw) = self.pool_dims();
        self.conv_channels * ph * pw
    }

    /// Builds the centralized baseline network (standard CNN on one
    /// machine — the paper's comparison point).
    pub fn build_centralized(&self, rng: &mut SeedRng) -> Sequential {
        let (ch, cw) = self.conv_dims();
        let mut net = Sequential::new();
        net.push(Conv2d::new(
            self.in_channels,
            self.conv_channels,
            self.in_height,
            self.in_width,
            self.kernel,
            1,
            0,
            rng,
        ));
        net.push(Relu::new());
        net.push(MaxPool2d::new(self.conv_channels, ch, cw, self.pool));
        net.push(Flatten::new());
        net.push(Dense::new(self.feature_len(), self.hidden, rng));
        net.push(Relu::new());
        net.push(Dense::new(self.hidden, self.classes, rng));
        net
    }

    /// The four computational layer specs: conv, pool, dense, dense.
    pub fn layer_specs(&self) -> Vec<LayerSpec> {
        let (ch, cw) = self.conv_dims();
        vec![
            LayerSpec::Conv2d {
                in_channels: self.in_channels,
                in_height: self.in_height,
                in_width: self.in_width,
                out_channels: self.conv_channels,
                kernel: self.kernel,
            },
            LayerSpec::Pool2d {
                channels: self.conv_channels,
                in_height: ch,
                in_width: cw,
                kernel: self.pool,
            },
            LayerSpec::Dense {
                in_len: self.feature_len(),
                out_len: self.hidden,
            },
            LayerSpec::Dense {
                in_len: self.hidden,
                out_len: self.classes,
            },
        ]
    }

    /// The unit graph over [`Self::layer_specs`].
    ///
    /// # Errors
    ///
    /// Never fails for a validated config; the signature matches
    /// [`UnitGraph::from_specs`].
    pub fn unit_graph(&self) -> Result<UnitGraph> {
        UnitGraph::from_specs(&self.layer_specs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeiot_nn::tensor::Tensor;

    #[test]
    fn validation_rejects_bad_geometry() {
        assert!(CnnConfig::new(1, 8, 8, 4, 9, 2, 16, 2).is_err()); // kernel > input
        assert!(CnnConfig::new(1, 8, 8, 4, 3, 4, 16, 2).is_err()); // 6 % 4 != 0
        assert!(CnnConfig::new(1, 8, 8, 0, 3, 2, 16, 2).is_err()); // zero channels
        assert!(CnnConfig::new(1, 8, 8, 4, 3, 2, 16, 1).is_err()); // one class
        assert!(CnnConfig::new(1, 8, 8, 4, 3, 2, 16, 2).is_ok());
    }

    #[test]
    fn derived_dimensions() {
        let c = CnnConfig::new(1, 8, 8, 4, 3, 2, 16, 2).unwrap();
        assert_eq!(c.conv_dims(), (6, 6));
        assert_eq!(c.pool_dims(), (3, 3));
        assert_eq!(c.feature_len(), 36);
    }

    #[test]
    fn centralized_network_runs() {
        let c = CnnConfig::new(1, 8, 8, 4, 3, 2, 16, 2).unwrap();
        let mut rng = SeedRng::new(1);
        let mut net = c.build_centralized(&mut rng);
        let out = net.forward(&Tensor::zeros(vec![1, 8, 8]));
        assert_eq!(out.shape(), &[2]);
    }

    #[test]
    fn unit_graph_sizes() {
        let c = CnnConfig::new(1, 8, 8, 4, 3, 2, 16, 2).unwrap();
        let g = c.unit_graph().unwrap();
        assert_eq!(g.units_in_layer(0), 64);
        assert_eq!(g.units_in_layer(1), 4 * 36);
        assert_eq!(g.units_in_layer(2), 4 * 9);
        assert_eq!(g.units_in_layer(3), 16);
        assert_eq!(g.units_in_layer(4), 2);
    }

    #[test]
    fn serde_round_trip() {
        let c = CnnConfig::new(1, 9, 9, 8, 2, 2, 32, 3).unwrap();
        let json = serde_json::to_string(&c).unwrap();
        let back: CnnConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
