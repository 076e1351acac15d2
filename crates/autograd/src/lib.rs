//! # tmn-autograd
//!
//! A small dense-`f32` tensor library with reverse-mode automatic
//! differentiation, plus the neural-network layers (Linear, LSTM, MLP) and
//! optimizers (Adam, SGD) that the TMN reproduction trains with.
//!
//! The paper trains its models in PyTorch on a GPU; this crate is the Rust
//! substitute substrate. It supports exactly the op set the TMN model family
//! needs — batched matmul, masked softmax for cross-trajectory attention,
//! time-axis gather/scatter for sequence models — implemented with an
//! eagerly evaluated, dynamically recorded computation graph.
//!
//! ## Example
//!
//! ```
//! use tmn_autograd::{ops, Tensor};
//! use tmn_autograd::nn::ParamSet;
//! use tmn_autograd::optim::Adam;
//!
//! // Fit w to minimize (3w - 6)^2.
//! let mut params = ParamSet::new();
//! let w = params.register("w", Tensor::param(vec![0.0], &[1]));
//! let mut opt = Adam::new(&params, 0.1);
//! for _ in 0..200 {
//!     let pred = ops::scale(&w, 3.0);
//!     let err = ops::add_scalar(&pred, -6.0);
//!     let loss = ops::sum_all(&ops::mul(&err, &err));
//!     params.zero_grad();
//!     loss.backward();
//!     opt.step(&params);
//! }
//! assert!((w.to_vec()[0] - 2.0).abs() < 1e-2);
//! ```

pub mod exec;
pub mod infer;
pub mod kernels;
pub mod nn;
pub mod ops;
pub mod optim;
mod profile;
pub mod simd;
mod tensor;
pub mod threading;

pub use profile::INSTRUMENTED_OPS;
pub use tensor::{grad_buffer_allocs, grad_enabled, no_grad, nodes_created, BackCtx, Tensor};
pub use threading::{intra_op_threads, set_intra_op_threads};
