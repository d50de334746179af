//! The unit graph of a CNN: its units and which unit reads which.
//!
//! MicroDeep's assignment algorithms (paper Fig. 8) do not care about
//! weights — they care about *which unit reads which unit*, because every
//! cross-node dependency becomes a radio message. This module describes a
//! network's computational layers as [`LayerSpec`]s and views them as a
//! [`UnitGraph`]: one vertex per neuron/unit, one edge per data dependency
//! between consecutive layers. The graph stores no edges:
//! [`UnitGraph::dependencies`] and [`UnitGraph::consumers`] compute a
//! unit's edges from its layer's geometry on every call.
//!
//! Activations and flattening have no spec: they are fused into the
//! producing unit, exactly as a sensor node would apply ReLU locally
//! without any communication.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Structural description of one computational layer, sufficient to
/// enumerate unit dependencies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Stride-1, unpadded 2-D convolution over a `channels × height ×
    /// width` input.
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
}

impl LayerSpec {
    /// Number of output elements this layer produces.
    pub fn output_len(&self) -> usize {
        let channels = match *self {
            LayerSpec::Conv2d { out_channels, .. } => out_channels,
            LayerSpec::Pool2d { channels, .. } => channels,
            LayerSpec::Dense { .. } => 1,
        };
        let (oh, ow) = self.out_dims();
        channels * oh * ow
    }

    /// Number of input elements this layer consumes.
    pub fn input_len(&self) -> usize {
        let channels = match *self {
            LayerSpec::Conv2d { in_channels, .. } => in_channels,
            LayerSpec::Pool2d { channels, .. } => channels,
            LayerSpec::Dense { .. } => 1,
        };
        let (h, w) = self.in_dims();
        channels * h * w
    }

    /// Input `(height, width)` per channel; a dense input is one row.
    fn in_dims(&self) -> (usize, usize) {
        match *self {
            LayerSpec::Conv2d {
                in_height,
                in_width,
                ..
            }
            | LayerSpec::Pool2d {
                in_height,
                in_width,
                ..
            } => (in_height, in_width),
            LayerSpec::Dense { in_len, .. } => (1, in_len),
        }
    }

    /// Output `(height, width)` per channel; a dense output is one row.
    fn out_dims(&self) -> (usize, usize) {
        match *self {
            LayerSpec::Conv2d {
                in_height,
                in_width,
                kernel,
                ..
            } => conv_output_dims(in_height, in_width, kernel, 1, 0),
            LayerSpec::Pool2d {
                in_height,
                in_width,
                kernel,
                ..
            } => (in_height / kernel, in_width / kernel),
            LayerSpec::Dense { out_len, .. } => (1, out_len),
        }
    }

    /// Checks that a conv kernel or pooling window is at least 1 and no
    /// larger than its input, the geometry every other method assumes.
    fn check_window(&self) -> zeiot_core::Result<()> {
        let (LayerSpec::Conv2d { kernel, .. } | LayerSpec::Pool2d { kernel, .. }) = *self else {
            return Ok(());
        };
        let (h, w) = self.in_dims();
        if kernel == 0 || kernel > h || kernel > w {
            return Err(zeiot_core::error::ConfigError::new(
                "specs",
                format!("window {kernel} must be at least 1 and fit its {h}×{w} input"),
            ));
        }
        Ok(())
    }

    /// Normalized `(x, y)` position in `[0, 1]²` of output element
    /// `out_index`, when the layer is spatial (conv/pool); `None` for
    /// dense layers. MicroDeep's grid-projection assignment places
    /// spatial units on the sensor whose coordinates are nearest.
    pub fn unit_position(&self, out_index: usize) -> Option<(f64, f64)> {
        let (stride, kernel) = match *self {
            LayerSpec::Conv2d { kernel, .. } => (1, kernel),
            LayerSpec::Pool2d { kernel, .. } => (kernel, kernel),
            LayerSpec::Dense { .. } => return None,
        };
        let (in_height, in_width) = self.in_dims();
        let (_, oy, ox) = coords(out_index, self.out_dims());
        let cx = (ox * stride) as f64 + kernel as f64 / 2.0;
        let cy = (oy * stride) as f64 + kernel as f64 / 2.0;
        Some((
            (cx / in_width as f64).clamp(0.0, 1.0),
            (cy / in_height as f64).clamp(0.0, 1.0),
        ))
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

/// `(channel, row, column)` of flat index `index` in a stack of
/// `height × width` planes.
fn coords(index: usize, (height, width): (usize, usize)) -> (usize, usize, usize) {
    let plane = height * width;
    (index / plane, index % plane / width, index % width)
}

/// Flat indices `c·plane + y·width + x` over a `channels × rows × cols`
/// rectangle, channel-major, then row-major. Every edge set of a conv,
/// pool or dense layer has this shape.
struct Units {
    plane: usize,
    width: usize,
    rows: Range<usize>,
    cols: Range<usize>,
    end_channel: usize,
    /// Channel, row and column of the next index; `c == end_channel`
    /// once exhausted.
    c: usize,
    y: usize,
    x: usize,
}

impl Units {
    fn new(
        (plane, width): (usize, usize),
        channels: Range<usize>,
        rows: Range<usize>,
        cols: Range<usize>,
    ) -> Self {
        let empty = rows.is_empty() || cols.is_empty();
        Self {
            plane,
            width,
            c: if empty { channels.end } else { channels.start },
            end_channel: channels.end,
            y: rows.start,
            x: cols.start,
            rows,
            cols,
        }
    }

    /// The indices `0..len`.
    fn run(len: usize) -> Self {
        Self::new((0, 0), 0..1, 0..1, 0..len)
    }

    /// Moves the cursor to the start of the next row.
    fn next_row(&mut self) {
        self.x = self.cols.start;
        self.y += 1;
        if self.y == self.rows.end {
            self.y = self.rows.start;
            self.c += 1;
        }
    }
}

impl Iterator for Units {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.c >= self.end_channel {
            return None;
        }
        let index = self.c * self.plane + self.y * self.width + self.x;
        self.x += 1;
        if self.x == self.cols.end {
            self.next_row();
        }
        Some(index)
    }

    // A row at a time: `for_each`, `sum` and `count` come through here,
    // and the placement search walks every spatial unit's edges with them.
    fn fold<B, F: FnMut(B, usize) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = init;
        while self.c < self.end_channel {
            let row = self.c * self.plane + self.y * self.width;
            acc = (row + self.x..row + self.cols.end).fold(acc, &mut f);
            self.next_row();
        }
        acc
    }
}

/// The dependency graph of a network's computational layers: one vertex
/// per unit, edges from each unit to the previous-layer units it reads.
/// A view over the layers' [`LayerSpec`]s that computes edges on demand.
///
/// # Example
///
/// ```
/// use zeiot_nn::topology::{LayerSpec, UnitGraph};
///
/// let specs = [
///     LayerSpec::Conv2d {
///         in_channels: 1, in_height: 4, in_width: 4,
///         out_channels: 2, kernel: 3,
///     },
///     LayerSpec::Dense { in_len: 8, out_len: 2 },
/// ];
/// let graph = UnitGraph::from_specs(&specs).unwrap();
/// // Layers: input (16 units) + conv (8) + dense (2).
/// assert_eq!(graph.layer_count(), 3);
/// assert_eq!(graph.units_in_layer(0), 16);
/// assert_eq!(graph.units_in_layer(1), 8);
/// assert_eq!(graph.units_in_layer(2), 2);
/// // Conv unit 0 reads the input's top-left 3×3 window, and input 0
/// // feeds the top-left unit of each of the two conv channels.
/// let window: Vec<usize> = graph.dependencies(1, 0).collect();
/// assert_eq!(window, [0, 1, 2, 4, 5, 6, 8, 9, 10]);
/// assert_eq!(graph.consumers(0, 0).collect::<Vec<_>>(), [0, 4]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UnitGraph {
    /// The computational layers: `specs[l - 1]` computes layer `l`.
    specs: Vec<LayerSpec>,
    /// `layer_sizes[0]` is the input layer; the rest are computational
    /// layers in order.
    layer_sizes: Vec<usize>,
}

impl UnitGraph {
    /// Views computational layer specs as a unit graph.
    ///
    /// # Errors
    ///
    /// Returns an error if the spec list is empty, a conv kernel or
    /// pooling window is 0 or larger than its input, or a layer expects a
    /// different element count than the layer before it produces.
    pub fn from_specs(specs: &[LayerSpec]) -> zeiot_core::Result<Self> {
        use zeiot_core::error::ConfigError;
        let first = specs
            .first()
            .ok_or_else(|| ConfigError::new("specs", "no layers"))?;
        let mut receives = first.input_len();
        let mut layer_sizes = vec![receives];
        for spec in specs {
            spec.check_window()?;
            if spec.input_len() != receives {
                return Err(ConfigError::new(
                    "specs",
                    format!(
                        "layer expects {} inputs but receives {receives}",
                        spec.input_len()
                    ),
                ));
            }
            receives = spec.output_len();
            layer_sizes.push(receives);
        }
        Ok(Self {
            specs: specs.to_vec(),
            layer_sizes,
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

    /// The spec computing layer `layer`, which must have unit `index`.
    fn spec(&self, layer: usize, index: usize) -> &LayerSpec {
        assert!(layer >= 1 && layer < self.layer_sizes.len(), "bad layer");
        assert!(index < self.layer_sizes[layer], "unit index out of range");
        &self.specs[layer - 1]
    }

    /// The previous-layer unit indices read by unit `index` of layer
    /// `layer` (`layer >= 1`): a conv unit's window in `(in channel,
    /// ky, kx)` order, a pool unit's window row by row, every unit for a
    /// dense unit.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is 0 or out of range, or `index` is out of range.
    pub fn dependencies(&self, layer: usize, index: usize) -> impl Iterator<Item = usize> {
        let spec = self.spec(layer, index);
        let (c, oy, ox) = coords(index, spec.out_dims());
        let (h, w) = spec.in_dims();
        match *spec {
            LayerSpec::Conv2d {
                in_channels,
                kernel,
                ..
            } => Units::new((h * w, w), 0..in_channels, oy..oy + kernel, ox..ox + kernel),
            LayerSpec::Pool2d { kernel: k, .. } => {
                Units::new((h * w, w), c..c + 1, oy * k..oy * k + k, ox * k..ox * k + k)
            }
            LayerSpec::Dense { in_len, .. } => Units::run(in_len),
        }
    }

    /// The units of layer `layer + 1` that read unit `index` of layer
    /// `layer`, in unit order: for a conv unit's input, every output
    /// channel over the positions whose window covers it; for a pool
    /// unit's input, the one window holding it, or none when the floor
    /// division drops its row or column; every unit of a dense layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer + 1 >= layer_count()` or `index` is out of range.
    pub fn consumers(&self, layer: usize, index: usize) -> impl Iterator<Item = usize> {
        assert!(layer + 1 < self.layer_sizes.len(), "bad layer");
        assert!(index < self.layer_sizes[layer], "unit index out of range");
        let spec = &self.specs[layer];
        let (c, iy, ix) = coords(index, spec.in_dims());
        let (oh, ow) = spec.out_dims();
        match *spec {
            LayerSpec::Conv2d {
                out_channels,
                kernel,
                ..
            } => Units::new(
                (oh * ow, ow),
                0..out_channels,
                (iy + 1).saturating_sub(kernel)..(iy + 1).min(oh),
                (ix + 1).saturating_sub(kernel)..(ix + 1).min(ow),
            ),
            LayerSpec::Pool2d { kernel: k, .. } => Units::new(
                (oh * ow, ow),
                c..c + 1,
                iy / k..(iy / k + 1).min(oh),
                ix / k..(ix / k + 1).min(ow),
            ),
            LayerSpec::Dense { out_len, .. } => Units::run(out_len),
        }
    }

    /// Normalized spatial position of a computational unit, when defined.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is 0 or out of range, or `index` is out of range.
    pub fn position(&self, layer: usize, index: usize) -> Option<(f64, f64)> {
        self.spec(layer, index).unit_position(index)
    }

    /// Spatial dimensions `(height, width)` of the input layer, when the
    /// first computational layer is spatial.
    pub fn input_dims(&self) -> Option<(usize, usize)> {
        match self.specs[0] {
            LayerSpec::Dense { .. } => None,
            ref spatial => Some(spatial.in_dims()),
        }
    }

    /// Normalized position of an *input* unit when input dims are known.
    pub fn input_position(&self, index: usize) -> Option<(f64, f64)> {
        let (h, w) = self.input_dims()?;
        let (_, y, x) = coords(index, (h, w));
        Some(((x as f64 + 0.5) / w as f64, (y as f64 + 0.5) / h as f64))
    }

    /// Total number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.specs
            .iter()
            .map(|spec| {
                let fan_in = match *spec {
                    LayerSpec::Conv2d {
                        in_channels,
                        kernel,
                        ..
                    } => in_channels * kernel * kernel,
                    LayerSpec::Pool2d { kernel, .. } => kernel * kernel,
                    LayerSpec::Dense { in_len, .. } => in_len,
                };
                spec.output_len() * fan_in
            })
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
            },
            LayerSpec::Pool2d {
                channels: 4,
                in_height: 6,
                in_width: 6,
                kernel: 2,
            },
            LayerSpec::Dense {
                in_len: 36,
                out_len: 16,
            },
            LayerSpec::Dense {
                in_len: 16,
                out_len: 2,
            },
        ]
    }

    /// The inputs unit `u` of a one-layer graph over `spec` reads.
    fn inputs(spec: LayerSpec, u: usize) -> Vec<usize> {
        let graph = UnitGraph::from_specs(&[spec]).unwrap();
        graph.dependencies(1, u).collect()
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
        };
        // Output (0,0) reads input rows 0-2, cols 0-2.
        assert_eq!(inputs(spec.clone(), 0), vec![0, 1, 2, 4, 5, 6, 8, 9, 10]);
        // Output (1,1) reads rows 1-3, cols 1-3.
        assert_eq!(inputs(spec, 3), vec![5, 6, 7, 9, 10, 11, 13, 14, 15]); // ow=2 → index 3 = (1,1)
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
            .flat_map(|u| inputs(spec.clone(), u))
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
            assert_eq!(inputs(spec.clone(), u), (0..7).collect::<Vec<_>>());
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
    fn unit_graph_rejects_empty_and_oversized_windows() {
        let conv = |kernel| LayerSpec::Conv2d {
            in_channels: 1,
            in_height: 4,
            in_width: 6,
            out_channels: 2,
            kernel,
        };
        let pool = |kernel| LayerSpec::Pool2d {
            channels: 2,
            in_height: 4,
            in_width: 6,
            kernel,
        };
        for bad in [conv(0), conv(5), pool(0), pool(5)] {
            assert!(
                UnitGraph::from_specs(std::slice::from_ref(&bad)).is_err(),
                "{bad:?}"
            );
        }
        // A window as large as its input's shorter side is fine.
        assert!(UnitGraph::from_specs(&[conv(4)]).is_ok());
        assert!(UnitGraph::from_specs(&[pool(4)]).is_ok());
    }

    #[test]
    fn unit_graph_edges_match_specs() {
        let specs = vec![LayerSpec::Dense {
            in_len: 4,
            out_len: 3,
        }];
        let graph = UnitGraph::from_specs(&specs).unwrap();
        assert_eq!(graph.edge_count(), 12);
        assert_eq!(graph.dependencies(1, 0).collect::<Vec<_>>(), [0, 1, 2, 3]);
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

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The edge set `set()` yields stepped with `next` alone, checked
    /// against the same set folded whole and folded after one `next`.
    fn walk<I: Iterator<Item = usize>>(set: impl Fn() -> I) -> Vec<usize> {
        let stepped: Vec<usize> = set().collect();
        let push = |mut v: Vec<usize>, i| {
            v.push(i);
            v
        };
        assert_eq!(set().fold(Vec::new(), push), stepped);
        let mut it = set();
        let head = it.next().into_iter().collect();
        assert_eq!(it.fold(head, push), stepped);
        stepped
    }

    /// Every edge `(producer, consumer)` into layer `l`, sorted, found by
    /// walking the consumers' dependencies or the producers' consumers.
    fn edges(graph: &UnitGraph, l: usize, from_consumers: bool) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        if from_consumers {
            for p in 0..graph.units_in_layer(l - 1) {
                for u in walk(|| graph.consumers(l - 1, p)) {
                    assert!(u < graph.units_in_layer(l), "layer {l} consumer {u}");
                    pairs.push((p, u));
                }
            }
        } else {
            for u in 0..graph.units_in_layer(l) {
                for p in walk(|| graph.dependencies(l, u)) {
                    assert!(p < graph.units_in_layer(l - 1), "layer {l} producer {p}");
                    pairs.push((p, u));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Over random conv → pool → dense → dense geometries, with pool
        /// windows that may leave a remainder row and column, every
        /// layer's `(producer, consumer)` multiset from `consumers`
        /// equals the one from `dependencies`, and `edge_count` counts
        /// it.
        #[test]
        fn consumers_invert_dependencies(
            conv in (1usize..3, 1usize..4, 1usize..5),
            conv_out in (1usize..9, 1usize..9),
            pool in 1usize..5,
            dense in (1usize..6, 1usize..4),
        ) {
            let ((ic, oc, k), (ch, cw), (hidden, classes)) = (conv, conv_out, dense);
            let pool = pool.min(ch).min(cw);
            let specs = [
                LayerSpec::Conv2d {
                    in_channels: ic,
                    in_height: ch + k - 1,
                    in_width: cw + k - 1,
                    out_channels: oc,
                    kernel: k,
                },
                LayerSpec::Pool2d { channels: oc, in_height: ch, in_width: cw, kernel: pool },
                LayerSpec::Dense { in_len: oc * (ch / pool) * (cw / pool), out_len: hidden },
                LayerSpec::Dense { in_len: hidden, out_len: classes },
            ];
            let graph = UnitGraph::from_specs(&specs).expect("a consistent chain");
            let mut total = 0;
            for l in 1..graph.layer_count() {
                let from_dependencies = edges(&graph, l, false);
                total += from_dependencies.len();
                prop_assert_eq!(from_dependencies, edges(&graph, l, true), "layer {}", l);
            }
            prop_assert_eq!(graph.edge_count(), total);
        }
    }
}
