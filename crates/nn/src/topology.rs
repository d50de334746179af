//! Structural introspection of a network: units and their data
//! dependencies.
//!
//! MicroDeep's assignment algorithms (paper Fig. 8) do not care about
//! weights — they care about *which unit reads which unit*, because every
//! cross-node dependency becomes a radio message. This module describes a
//! network as a list of [`LayerSpec`]s and expands it into a [`UnitGraph`]:
//! one vertex per neuron/unit, one edge per data dependency between
//! consecutive computational layers.
//!
//! Element-wise layers (activations) and flattening do not appear as units:
//! they are fused into the producing unit, exactly as a sensor node would
//! apply ReLU locally without any communication.

use serde::{Deserialize, Serialize};

/// Structural description of one layer, sufficient to enumerate unit
/// dependencies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// 2-D convolution over a `channels × height × width` input.
    Conv2d {
        /// Input channels.
        in_channels: usize,
        /// Input height.
        in_height: usize,
        /// Input width.
        in_width: usize,
        /// Output channels (number of filters).
        out_channels: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding on each border.
        padding: usize,
    },
    /// 2-D pooling (max or average — structurally identical).
    Pool2d {
        /// Channels (unchanged by pooling).
        channels: usize,
        /// Input height.
        in_height: usize,
        /// Input width.
        in_width: usize,
        /// Square pooling window, which is also the stride.
        kernel: usize,
    },
    /// Fully-connected layer.
    Dense {
        /// Flattened input length.
        in_len: usize,
        /// Output length.
        out_len: usize,
    },
    /// Element-wise transformation (activation); fused, never a unit.
    Elementwise {
        /// Number of elements passed through.
        len: usize,
    },
    /// Shape change only; fused, never a unit.
    Flatten {
        /// Number of elements passed through.
        len: usize,
    },
}

impl LayerSpec {
    /// Number of output elements this layer produces.
    pub fn output_len(&self) -> usize {
        match *self {
            LayerSpec::Conv2d {
                out_channels,
                in_height,
                in_width,
                kernel,
                stride,
                padding,
                ..
            } => {
                let (oh, ow) = conv_output_dims(in_height, in_width, kernel, stride, padding);
                out_channels * oh * ow
            }
            LayerSpec::Pool2d {
                channels,
                in_height,
                in_width,
                kernel,
            } => channels * (in_height / kernel) * (in_width / kernel),
            LayerSpec::Dense { out_len, .. } => out_len,
            LayerSpec::Elementwise { len } | LayerSpec::Flatten { len } => len,
        }
    }

    /// Number of input elements this layer consumes.
    pub fn input_len(&self) -> usize {
        match *self {
            LayerSpec::Conv2d {
                in_channels,
                in_height,
                in_width,
                ..
            } => in_channels * in_height * in_width,
            LayerSpec::Pool2d {
                channels,
                in_height,
                in_width,
                ..
            } => channels * in_height * in_width,
            LayerSpec::Dense { in_len, .. } => in_len,
            LayerSpec::Elementwise { len } | LayerSpec::Flatten { len } => len,
        }
    }

    /// Whether this layer creates computational units (false for fused
    /// element-wise/flatten layers).
    pub fn is_computational(&self) -> bool {
        !matches!(
            self,
            LayerSpec::Elementwise { .. } | LayerSpec::Flatten { .. }
        )
    }

    /// The flat indices of the *input* elements that output element
    /// `out_index` reads.
    ///
    /// # Panics
    ///
    /// Panics if `out_index >= output_len()`.
    pub fn inputs_of(&self, out_index: usize) -> Vec<usize> {
        assert!(out_index < self.output_len(), "out_index out of range");
        match *self {
            LayerSpec::Conv2d {
                in_channels,
                in_height,
                in_width,
                kernel,
                stride,
                padding,
                ..
            } => {
                let (oh, ow) = conv_output_dims(in_height, in_width, kernel, stride, padding);
                let per_ch = oh * ow;
                let spatial = out_index % per_ch;
                let oy = spatial / ow;
                let ox = spatial % ow;
                let mut inputs = Vec::with_capacity(in_channels * kernel * kernel);
                for ic in 0..in_channels {
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let iy = (oy * stride + ky) as isize - padding as isize;
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            if iy >= 0
                                && ix >= 0
                                && (iy as usize) < in_height
                                && (ix as usize) < in_width
                            {
                                inputs.push(
                                    ic * in_height * in_width
                                        + iy as usize * in_width
                                        + ix as usize,
                                );
                            }
                        }
                    }
                }
                inputs
            }
            LayerSpec::Pool2d {
                in_height,
                in_width,
                kernel,
                ..
            } => {
                let oh = in_height / kernel;
                let ow = in_width / kernel;
                let per_ch = oh * ow;
                let c = out_index / per_ch;
                let spatial = out_index % per_ch;
                let oy = spatial / ow;
                let ox = spatial % ow;
                let mut inputs = Vec::with_capacity(kernel * kernel);
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        let iy = oy * kernel + ky;
                        let ix = ox * kernel + kx;
                        inputs.push(c * in_height * in_width + iy * in_width + ix);
                    }
                }
                inputs
            }
            LayerSpec::Dense { in_len, .. } => (0..in_len).collect(),
            LayerSpec::Elementwise { .. } | LayerSpec::Flatten { .. } => vec![out_index],
        }
    }

    /// Normalized `(x, y)` position in `[0, 1]²` of output element
    /// `out_index`, when the layer is spatial (conv/pool); `None` for
    /// dense and fused layers. MicroDeep's grid-projection assignment
    /// places spatial units on the sensor whose coordinates are nearest.
    pub fn unit_position(&self, out_index: usize) -> Option<(f64, f64)> {
        match *self {
            LayerSpec::Conv2d {
                in_height,
                in_width,
                kernel,
                stride,
                padding,
                ..
            } => {
                let (oh, ow) = conv_output_dims(in_height, in_width, kernel, stride, padding);
                let per_ch = oh * ow;
                let spatial = out_index % per_ch;
                let oy = spatial / ow;
                let ox = spatial % ow;
                let cx = (ox * stride) as f64 + kernel as f64 / 2.0 - padding as f64;
                let cy = (oy * stride) as f64 + kernel as f64 / 2.0 - padding as f64;
                Some((
                    (cx / in_width as f64).clamp(0.0, 1.0),
                    (cy / in_height as f64).clamp(0.0, 1.0),
                ))
            }
            LayerSpec::Pool2d {
                in_height,
                in_width,
                kernel,
                ..
            } => {
                let oh = in_height / kernel;
                let ow = in_width / kernel;
                let per_ch = oh * ow;
                let spatial = out_index % per_ch;
                let oy = spatial / ow;
                let ox = spatial % ow;
                let cx = (ox * kernel) as f64 + kernel as f64 / 2.0;
                let cy = (oy * kernel) as f64 + kernel as f64 / 2.0;
                Some((
                    (cx / in_width as f64).clamp(0.0, 1.0),
                    (cy / in_height as f64).clamp(0.0, 1.0),
                ))
            }
            _ => None,
        }
    }
}

/// Output spatial dimensions of a convolution.
pub fn conv_output_dims(
    in_height: usize,
    in_width: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> (usize, usize) {
    assert!(stride > 0, "stride must be positive");
    assert!(
        in_height + 2 * padding >= kernel && in_width + 2 * padding >= kernel,
        "kernel larger than padded input"
    );
    (
        (in_height + 2 * padding - kernel) / stride + 1,
        (in_width + 2 * padding - kernel) / stride + 1,
    )
}

/// The expanded dependency graph of a network: one vertex per unit, edges
/// from each unit to the previous-layer units it reads.
///
/// # Example
///
/// ```
/// use zeiot_nn::topology::{LayerSpec, UnitGraph};
///
/// let specs = vec![
///     LayerSpec::Conv2d {
///         in_channels: 1, in_height: 4, in_width: 4,
///         out_channels: 2, kernel: 3, stride: 1, padding: 0,
///     },
///     LayerSpec::Elementwise { len: 8 }, // fused ReLU
///     LayerSpec::Dense { in_len: 8, out_len: 2 },
/// ];
/// let graph = UnitGraph::from_specs(&specs).unwrap();
/// // Layers: input (16 units) + conv (8) + dense (2).
/// assert_eq!(graph.layer_count(), 3);
/// assert_eq!(graph.units_in_layer(0), 16);
/// assert_eq!(graph.units_in_layer(1), 8);
/// assert_eq!(graph.units_in_layer(2), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitGraph {
    /// `layer_sizes\[0\]` is the input layer; the rest are computational
    /// layers in order.
    layer_sizes: Vec<usize>,
    /// `deps[l][u]` = indices in layer `l` that unit `u` of layer `l+1`
    /// reads.
    deps: Vec<Vec<Vec<usize>>>,
    /// Normalized spatial position per computational layer unit (parallel
    /// to layers 1..): `None` for non-spatial layers.
    positions: Vec<Vec<Option<(f64, f64)>>>,
    /// Spatial dims of the input layer, if 2-D sensing data.
    input_dims: Option<(usize, usize)>,
}

impl UnitGraph {
    /// Expands layer specs into a unit graph.
    ///
    /// Fused (element-wise / flatten) layers must preserve element count
    /// and are skipped, wherever they sit: a leading fused layer reads the
    /// first computational layer's input. Every layer must accept the
    /// element count the layer before it produces.
    ///
    /// # Errors
    ///
    /// Returns an error if the spec list has no computational layer, or a
    /// layer expects a different element count than it receives.
    pub fn from_specs(specs: &[LayerSpec]) -> zeiot_core::Result<Self> {
        use zeiot_core::error::ConfigError;
        let computational: Vec<&LayerSpec> =
            specs.iter().filter(|s| s.is_computational()).collect();
        if computational.is_empty() {
            return Err(ConfigError::new("specs", "no computational layers"));
        }
        // Validate fused layers preserve counts along the chain.
        let mut current_len = computational[0].input_len();
        for spec in specs {
            if spec.is_computational() {
                if spec.input_len() != current_len {
                    return Err(ConfigError::new(
                        "specs",
                        format!(
                            "layer expects {} inputs but receives {current_len}",
                            spec.input_len()
                        ),
                    ));
                }
                current_len = spec.output_len();
            } else {
                if spec.input_len() != current_len {
                    return Err(ConfigError::new(
                        "specs",
                        format!(
                            "fused layer expects {} elements but receives {current_len}",
                            spec.input_len()
                        ),
                    ));
                }
                current_len = spec.output_len();
            }
        }

        let mut layer_sizes = vec![computational[0].input_len()];
        let mut deps = Vec::new();
        let mut positions = Vec::new();
        for spec in &computational {
            let out_len = spec.output_len();
            let mut layer_deps = Vec::with_capacity(out_len);
            let mut layer_pos = Vec::with_capacity(out_len);
            for u in 0..out_len {
                layer_deps.push(spec.inputs_of(u));
                layer_pos.push(spec.unit_position(u));
            }
            deps.push(layer_deps);
            positions.push(layer_pos);
            layer_sizes.push(out_len);
        }
        let input_dims = match computational[0] {
            LayerSpec::Conv2d {
                in_height,
                in_width,
                ..
            } => Some((*in_height, *in_width)),
            LayerSpec::Pool2d {
                in_height,
                in_width,
                ..
            } => Some((*in_height, *in_width)),
            _ => None,
        };
        Ok(Self {
            layer_sizes,
            deps,
            positions,
            input_dims,
        })
    }

    /// Number of layers including the input layer.
    pub fn layer_count(&self) -> usize {
        self.layer_sizes.len()
    }

    /// Number of units in layer `layer` (0 = input).
    ///
    /// # Panics
    ///
    /// Panics if `layer >= layer_count()`.
    pub fn units_in_layer(&self, layer: usize) -> usize {
        self.layer_sizes[layer]
    }

    /// Total number of computational units (excluding the input layer).
    pub fn total_units(&self) -> usize {
        self.layer_sizes[1..].iter().sum()
    }

    /// The previous-layer unit indices read by unit `index` of layer
    /// `layer` (`layer >= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is 0 or out of range, or `index` is out of range.
    pub fn dependencies(&self, layer: usize, index: usize) -> &[usize] {
        assert!(layer >= 1 && layer < self.layer_sizes.len(), "bad layer");
        &self.deps[layer - 1][index]
    }

    /// Normalized spatial position of a computational unit, when defined.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is 0 or out of range, or `index` is out of range.
    pub fn position(&self, layer: usize, index: usize) -> Option<(f64, f64)> {
        assert!(layer >= 1 && layer < self.layer_sizes.len(), "bad layer");
        self.positions[layer - 1][index]
    }

    /// Spatial dimensions `(height, width)` of the input layer, when the
    /// first computational layer is spatial.
    pub fn input_dims(&self) -> Option<(usize, usize)> {
        self.input_dims
    }

    /// Normalized position of an *input* unit when input dims are known.
    pub fn input_position(&self, index: usize) -> Option<(f64, f64)> {
        let (h, w) = self.input_dims?;
        let spatial = index % (h * w);
        let y = spatial / w;
        let x = spatial % w;
        Some(((x as f64 + 0.5) / w as f64, (y as f64 + 0.5) / h as f64))
    }

    /// Total number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.deps
            .iter()
            .map(|layer| layer.iter().map(Vec::len).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_cnn() -> Vec<LayerSpec> {
        // The paper's motion-experiment CNN shape: conv + pool + 2 dense.
        vec![
            LayerSpec::Conv2d {
                in_channels: 1,
                in_height: 8,
                in_width: 8,
                out_channels: 4,
                kernel: 3,
                stride: 1,
                padding: 0,
            },
            LayerSpec::Elementwise { len: 4 * 6 * 6 },
            LayerSpec::Pool2d {
                channels: 4,
                in_height: 6,
                in_width: 6,
                kernel: 2,
            },
            LayerSpec::Flatten { len: 4 * 3 * 3 },
            LayerSpec::Dense {
                in_len: 36,
                out_len: 16,
            },
            LayerSpec::Elementwise { len: 16 },
            LayerSpec::Dense {
                in_len: 16,
                out_len: 2,
            },
        ]
    }

    #[test]
    fn conv_output_dims_formula() {
        assert_eq!(conv_output_dims(8, 8, 3, 1, 0), (6, 6));
        assert_eq!(conv_output_dims(8, 8, 3, 1, 1), (8, 8));
        assert_eq!(conv_output_dims(9, 9, 3, 2, 0), (4, 4));
    }

    #[test]
    fn conv_spec_lengths() {
        let spec = LayerSpec::Conv2d {
            in_channels: 2,
            in_height: 5,
            in_width: 5,
            out_channels: 3,
            kernel: 3,
            stride: 1,
            padding: 0,
        };
        assert_eq!(spec.input_len(), 50);
        assert_eq!(spec.output_len(), 3 * 3 * 3);
    }

    #[test]
    fn conv_inputs_cover_receptive_field() {
        let spec = LayerSpec::Conv2d {
            in_channels: 1,
            in_height: 4,
            in_width: 4,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            padding: 0,
        };
        // Output (0,0) reads input rows 0-2, cols 0-2.
        let inputs = spec.inputs_of(0);
        assert_eq!(inputs, vec![0, 1, 2, 4, 5, 6, 8, 9, 10]);
        // Output (1,1) reads rows 1-3, cols 1-3.
        let inputs = spec.inputs_of(3); // ow=2 → index 3 = (1,1)
        assert_eq!(inputs, vec![5, 6, 7, 9, 10, 11, 13, 14, 15]);
    }

    #[test]
    fn conv_with_padding_drops_out_of_bounds_inputs() {
        let spec = LayerSpec::Conv2d {
            in_channels: 1,
            in_height: 4,
            in_width: 4,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        // Corner output (0,0) only sees the 2×2 in-bounds part.
        let inputs = spec.inputs_of(0);
        assert_eq!(inputs, vec![0, 1, 4, 5]);
        // A middle output sees all 9.
        let mid = spec.inputs_of(5); // (1,1) in a 4×4 output
        assert_eq!(mid.len(), 9);
    }

    #[test]
    fn pool_inputs_partition_the_image() {
        let spec = LayerSpec::Pool2d {
            channels: 1,
            in_height: 4,
            in_width: 4,
            kernel: 2,
        };
        let mut all: Vec<usize> = (0..spec.output_len())
            .flat_map(|u| spec.inputs_of(u))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn dense_reads_everything() {
        let spec = LayerSpec::Dense {
            in_len: 7,
            out_len: 3,
        };
        for u in 0..3 {
            assert_eq!(spec.inputs_of(u), (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn unit_graph_from_micro_cnn() {
        let graph = UnitGraph::from_specs(&micro_cnn()).unwrap();
        // input 64, conv 144, pool 36, dense 16, dense 2.
        assert_eq!(graph.layer_count(), 5);
        assert_eq!(graph.units_in_layer(0), 64);
        assert_eq!(graph.units_in_layer(1), 144);
        assert_eq!(graph.units_in_layer(2), 36);
        assert_eq!(graph.units_in_layer(3), 16);
        assert_eq!(graph.units_in_layer(4), 2);
        assert_eq!(graph.total_units(), 144 + 36 + 16 + 2);
    }

    #[test]
    fn a_leading_fused_layer_is_skipped_when_its_count_matches() {
        let conv = || LayerSpec::Conv2d {
            in_channels: 1,
            in_height: 4,
            in_width: 4,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 0,
        };
        let dense = || LayerSpec::Dense {
            in_len: 8,
            out_len: 2,
        };
        let fused = |len| LayerSpec::Elementwise { len };
        let graph = UnitGraph::from_specs(&[fused(16), conv(), fused(8), dense()]).unwrap();
        assert_eq!(graph.layer_count(), 3);
        assert_eq!(graph, UnitGraph::from_specs(&[conv(), dense()]).unwrap());
        assert!(UnitGraph::from_specs(&[fused(15), conv(), fused(8), dense()]).is_err());
    }

    #[test]
    fn unit_graph_rejects_mismatched_chain() {
        let bad = vec![
            LayerSpec::Dense {
                in_len: 4,
                out_len: 3,
            },
            LayerSpec::Dense {
                in_len: 5, // should be 3
                out_len: 2,
            },
        ];
        assert!(UnitGraph::from_specs(&bad).is_err());
        assert!(UnitGraph::from_specs(&[]).is_err());
    }

    #[test]
    fn unit_graph_edges_match_specs() {
        let specs = vec![LayerSpec::Dense {
            in_len: 4,
            out_len: 3,
        }];
        let graph = UnitGraph::from_specs(&specs).unwrap();
        assert_eq!(graph.edge_count(), 12);
        assert_eq!(graph.dependencies(1, 0), &[0, 1, 2, 3]);
    }

    #[test]
    fn spatial_positions_are_normalized_and_ordered() {
        let graph = UnitGraph::from_specs(&micro_cnn()).unwrap();
        // Conv layer positions lie in [0,1]².
        for u in 0..graph.units_in_layer(1) {
            let (x, y) = graph.position(1, u).unwrap();
            assert!((0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y));
        }
        // First conv unit is near the top-left, last near bottom-right.
        let first = graph.position(1, 0).unwrap();
        let last = graph.position(1, 35).unwrap(); // last spatial of channel 0
        assert!(first.0 < last.0 && first.1 < last.1);
        // Dense units have no position.
        assert!(graph.position(3, 0).is_none());
    }

    #[test]
    fn input_positions_cover_grid() {
        let graph = UnitGraph::from_specs(&micro_cnn()).unwrap();
        assert_eq!(graph.input_dims(), Some((8, 8)));
        let p0 = graph.input_position(0).unwrap();
        let p63 = graph.input_position(63).unwrap();
        assert!(p0.0 < 0.1 && p0.1 < 0.1);
        assert!(p63.0 > 0.9 && p63.1 > 0.9);
    }

    #[test]
    fn dense_only_network_has_no_input_dims() {
        let graph = UnitGraph::from_specs(&[LayerSpec::Dense {
            in_len: 4,
            out_len: 2,
        }])
        .unwrap();
        assert_eq!(graph.input_dims(), None);
        assert_eq!(graph.input_position(0), None);
    }
}
