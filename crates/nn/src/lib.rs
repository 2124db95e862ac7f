#![warn(missing_docs)]

//! # dgs-nn
//!
//! A minimal neural-network library with *manual* backpropagation, built on
//! [`dgs_tensor`]. It is the training substrate that stands in for the
//! paper's PyTorch/CUDA stack: the DGS algorithms exchange flat gradient
//! vectors, so all this crate has to guarantee is that it produces real
//! stochastic gradients for real non-convex optimisation problems, with a
//! per-layer parameter [`Partition`](dgs_sparsify::Partition) the
//! sparsifiers can iterate over.
//!
//! Modules:
//!
//! * [`param`] — [`ParamSet`]: one flat data vector + one flat gradient
//!   vector + the layer partition.
//! * [`layer`] — the [`Layer`](layer::Layer) trait and the concrete layers
//!   (Linear, Conv2d, ChannelNorm, ReLU, pooling, flatten).
//! * [`activations`] — Tanh, the smooth activation the gradient property
//!   test needs.
//! * [`checkpoint`] — model weight save/load with a layout fingerprint.
//! * [`resnet`] — residual blocks (self-contained composite layers).
//! * [`model`] — [`Network`](model::Network): an ordered layer stack over a
//!   shared `ParamSet`, with forward/backward/flops.
//! * [`models`] — ready-made architectures: `mlp`, `tiny_cnn`,
//!   `resnet_lite` (the ResNet-18 stand-in).
//! * [`loss`] — softmax cross-entropy with gradient, top-1 accuracy.
//! * [`data`] — deterministic synthetic datasets (`SyntheticVision` is the
//!   CIFAR-10 / ImageNet stand-in; see DESIGN.md for the substitution
//!   argument).
//! * [`loader`] — seeded shuffling minibatch iteration.
//! * [`metrics`] — the evaluation loop.
//!
//! Design note: the normalisation layer ([`layer::ChannelNorm`]) always
//! normalises by the statistics of the *current* batch (BatchNorm's training
//! mode). This keeps a model a pure function of its parameter vector — which
//! the server-side model reconstruction `θ_t = θ_0 + M_t` in DGS requires —
//! at the cost of eval-time batch-size sensitivity, which the evaluation
//! loops keep fixed.
//!
//! Compute backend: every layer runs on the [`dgs_tensor`] compute tier
//! through a per-network [`ComputeScratch`] — blocked/SIMD/parallel GEMM,
//! panel-lowered convolution, and pooled buffers. The backend is runtime-detected
//! (override with `DGS_KERNEL=scalar|simd` or
//! [`Network::set_kernel`](model::Network::set_kernel)); all backends are
//! bitwise identical, so the choice affects throughput only, never a
//! single trained bit.

pub mod activations;
pub mod checkpoint;
pub mod data;
pub mod layer;
pub mod loader;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod models;
pub mod param;
pub mod resnet;

pub use data::{Dataset, GaussianBlobs, SyntheticVision};
pub use layer::Layer;
pub use loader::BatchLoader;
pub use loss::{softmax_cross_entropy, top1_accuracy};
pub use model::Network;
pub use param::ParamSet;

pub use dgs_tensor::{ComputeScratch, Kernel};
