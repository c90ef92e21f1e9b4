//! Dense and sparse `f32` matrix kernels used throughout the DGNN
//! reproduction.
//!
//! The crate is deliberately minimal: a row-major dense [`Matrix`], a CSR
//! sparse matrix [`Csr`], and the handful of kernels a graph neural network
//! needs (GEMM, sparse–dense products, row-wise reductions and normalizers,
//! and the head-blocked segment kernels behind edge attention).
//! Hot kernels run on the deterministic worker pool in [`parallel`]
//! (row-range partitioning over disjoint output slices, so results are
//! bit-identical to serial execution for every thread count), keeping
//! experiments bit-for-bit reproducible from a seed; `threads = 1` — the
//! default when `DGNN_THREADS` is unset on a single-core host — is a
//! guaranteed fully-serial path.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod dense;
pub mod gemm;
mod init;
pub mod parallel;
mod pool;
mod segment;
pub mod sharded;
mod sparse;
pub mod topk;

pub use dense::{stable_sigmoid, Matrix};
pub use init::{xavier_uniform, Init};
pub use pool::{alloc_counters, reset_alloc_counters, PoolScope};
pub use segment::{EdgeList, EdgeRows, RowRead};
pub use sharded::ShardSpec;
pub use sparse::{Csr, CsrBuilder};
pub use topk::{top_k_row, top_k_rows, TopK};

/// Numerical tolerance used by approximate-equality helpers in tests.
pub const TEST_EPS: f32 = 1e-4;

/// Returns `true` when `a` and `b` differ by at most `tol` in every entry
/// (and agree in shape).
pub fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
}
