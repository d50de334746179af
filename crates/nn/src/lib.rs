//! # zeiot-nn
//!
//! A from-scratch neural-network library sized for the paper's workloads.
//!
//! MicroDeep (paper §IV.C) distributes a small CNN — one convolutional
//! layer, one pooling layer, two fully-connected layers — over a wireless
//! sensor network. This crate provides that CNN (and the centralized
//! baseline it is compared against): [`Tensor`]s, layers with exact
//! backpropagation, an SGD training loop, and — crucially for MicroDeep —
//! [`topology`]: the unit graph that enumerates every *unit* (neuron) of
//! every layer and, from the layer geometry, the units it reads and the
//! units that read it, which is what the distributed assignment
//! algorithms consume.
//!
//! No external ML dependency is used; gradient correctness is enforced by
//! numerical gradient checking in the test suite.
//!
//! # Example: train a tiny classifier
//!
//! ```
//! use zeiot_nn::network::Sequential;
//! use zeiot_nn::layers::{Dense, Relu};
//! use zeiot_nn::tensor::Tensor;
//! use zeiot_core::rng::SeedRng;
//!
//! let mut rng = SeedRng::new(7);
//! let mut net = Sequential::new();
//! net.push(Dense::new(2, 8, &mut rng));
//! net.push(Relu::new());
//! net.push(Dense::new(8, 2, &mut rng));
//!
//! // Learn XOR-ish separation.
//! let data: Vec<(Tensor, usize)> = vec![
//!     (Tensor::from_vec(vec![2], vec![0.0, 0.0]).unwrap(), 0),
//!     (Tensor::from_vec(vec![2], vec![1.0, 1.0]).unwrap(), 0),
//!     (Tensor::from_vec(vec![2], vec![0.0, 1.0]).unwrap(), 1),
//!     (Tensor::from_vec(vec![2], vec![1.0, 0.0]).unwrap(), 1),
//! ];
//! for _ in 0..400 {
//!     net.train_epoch(&data, 0.3, 4, &mut rng);
//! }
//! let acc = net.accuracy(&data);
//! assert!(acc >= 0.75);
//! ```

pub mod eval;
pub mod layers;
pub mod loss;
pub mod network;
pub mod quant;
pub mod tensor;
pub mod topology;

pub use eval::ConfusionMatrix;
pub use network::Sequential;
pub use quant::{Calibration, QTensor, Requant};
pub use tensor::Tensor;
pub use topology::{LayerSpec, UnitGraph};
