//! Tape-based reverse-mode automatic differentiation over
//! [`dgnn_tensor::Matrix`].
//!
//! This is the training substrate for the DGNN reproduction: the paper's
//! model (and all fourteen baselines) are expressed as ordinary
//! differentiable compute graphs, so a small but complete autodiff engine is
//! the faithful substitute for the PyTorch dependency the authors used.
//!
//! # Design
//!
//! The graph-building surface is the [`Recorder`] trait; [`Tape`] is its
//! concrete implementation. A [`Tape`] records one forward pass as a flat
//! vector of nodes. Each node stores its operation (a closed `Op` enum — no
//! boxed closures, so the backward pass is a single dispatch loop) and its
//! forward value. [`Tape::backward_into`] walks the nodes in reverse,
//! accumulating gradients. Parameters live outside the tape in a
//! [`ParamSet`]; each training step builds a fresh tape, copies parameter
//! values in as leaves, and scatters gradients back out, which keeps
//! borrows trivially correct.
//!
//! Because models are written against `R: Recorder`, the same forward-pass
//! code can be abstractly interpreted by `dgnn-analysis`'s `ShapeTracer`
//! (shape checking, dead-subgraph and stability audits) without executing
//! any tensor math.
//!
//! Gradients of every operation are verified against central finite
//! differences in this crate's test suite (`tests/grad_check.rs`).
//!
//! # Example
//!
//! ```
//! use dgnn_autograd::{Adam, Optimizer, ParamSet, Recorder, Tape};
//! use dgnn_tensor::{Init, Matrix};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut params = ParamSet::new();
//! let w = params.add("w", Init::XavierUniform.build(2, 1, &mut rng));
//! let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
//! let y = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 2.0]); // y = x0 + x1
//! let mut adam = Adam::new(0.05, 0.0);
//! for _ in 0..200 {
//!     let mut tape = Tape::new();
//!     let wv = tape.param(&params, w);
//!     let xv = tape.constant(x.clone());
//!     let pred = tape.matmul(xv, wv);
//!     let yv = tape.constant(y.clone());
//!     let err = tape.sub(pred, yv);
//!     let sq = tape.mul(err, err);
//!     let loss = tape.mean_all(sq);
//!     params.zero_grads();
//!     tape.backward_into(loss, &mut params);
//!     adam.step(&mut params);
//! }
//! let w_final = params.value(w);
//! assert!((w_final[(0, 0)] - 1.0).abs() < 0.05);
//! assert!((w_final[(1, 0)] - 1.0).abs() < 0.05);
//! ```

#![warn(missing_docs)]

pub mod meta;
mod optim;
mod params;
mod recorder;
mod tape;

pub use optim::{Adam, Optimizer};
pub use params::{ParamId, ParamSet};
pub use recorder::{Recorder, Rows, Var};
pub use tape::Tape;
