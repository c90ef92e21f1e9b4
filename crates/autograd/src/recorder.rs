//! The [`Recorder`] trait: generic construction of compute graphs.
//!
//! Model code builds its forward pass against `R: Recorder` instead of
//! [`crate::Tape`] directly. The two implementations in the workspace:
//!
//! * [`crate::Tape`] — *concrete* interpretation: every builder method
//!   eagerly computes the forward value and records the op for the reverse
//!   pass (training and inference).
//! * `dgnn_analysis::ShapeTracer` — *abstract* interpretation over the
//!   shape domain: no tensor data is ever allocated; ops are checked for
//!   shape compatibility, index-range safety, and numeric-stability
//!   hazards before any training step executes.
//!
//! Keeping the builder surface in one trait guarantees the static verifier
//! sees exactly the graph the trainer would execute — the two cannot
//! drift apart.

use std::rc::Rc;

use dgnn_tensor::{Csr, EdgeList, Matrix, RowRead};

use crate::params::{ParamId, ParamSet};

/// Handle to a value recorded on a [`Recorder`].
///
/// Dropping a `Var` without consuming it means the node it names can never
/// reach the loss — a dead subgraph. The `must_use` warning surfaces that
/// at compile time; `dgnn-analysis` catches the general case at trace time.
#[must_use = "dropping a graph node creates a dead subgraph that never reaches the loss"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Node index inside the recorder that produced this handle (stable
    /// provenance for diagnostics).
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a handle from a node index.
    ///
    /// Only [`Recorder`] implementations should call this; a `Var` forged
    /// for one recorder is meaningless on another.
    pub fn from_index(index: usize) -> Self {
        Self(index)
    }
}

/// A row operand of an edge op ([`Recorder::head_dots`],
/// [`Recorder::segment_weighted_sum`]): per-edge rows, or a node table
/// that each edge reads a row of through an [`EdgeList`].
///
/// A table read is the gather it replaces, without the `E × d` copy:
/// `Rows::Src(t, edges)` computes what `gather(t, edges.src)` fed into the
/// op as `Rows::Edge` computes, to the bit, and the table's gradient is
/// summed in the order the gather's scatter summed it. That holds when the
/// op is the table's only consumer; a table that also feeds another op
/// would take its gradients in another order, so keep its gather.
#[derive(Debug, Clone)]
pub enum Rows {
    /// One row per edge (`E × d`).
    Edge(Var),
    /// A table with one row per destination; edge `e` reads row `dst[e]`.
    Dst(Var, Rc<EdgeList>),
    /// A table with one row per source; edge `e` reads row `src[e]`.
    Src(Var, Rc<EdgeList>),
}

impl Rows {
    /// Table `t` read through `edges`' destinations.
    pub fn dst(t: Var, edges: &Rc<EdgeList>) -> Self {
        Self::Dst(t, Rc::clone(edges))
    }

    /// Table `t` read through `edges`' sources.
    pub fn src(t: Var, edges: &Rc<EdgeList>) -> Self {
        Self::Src(t, Rc::clone(edges))
    }

    /// The recorded value the rows come from.
    pub fn var(&self) -> Var {
        match self {
            Self::Edge(v) | Self::Dst(v, _) | Self::Src(v, _) => *v,
        }
    }

    /// Which row each edge reads.
    pub fn read(&self) -> RowRead<'_> {
        match self {
            Self::Edge(_) => RowRead::Edge,
            Self::Dst(_, edges) => RowRead::Dst(edges),
            Self::Src(_, edges) => RowRead::Src(edges),
        }
    }
}

impl From<Var> for Rows {
    fn from(v: Var) -> Self {
        Self::Edge(v)
    }
}

/// Records differentiable ops into a compute graph.
///
/// Every method appends one node and returns its handle. Implementations
/// decide what a "node" is: forward values ([`crate::Tape`]) or abstract
/// shapes (`dgnn_analysis::ShapeTracer`). Methods are `#[must_use]`: a
/// dropped return value is a dead subgraph in the making.
pub trait Recorder {
    // ---- leaves ---------------------------------------------------------

    /// Records a constant (no gradient flows to it).
    #[must_use]
    fn constant(&mut self, value: Matrix) -> Var;

    /// Records a parameter leaf linked back to `params`.
    #[must_use]
    fn param(&mut self, params: &ParamSet, id: ParamId) -> Var;

    /// Shape `(rows, cols)` of a recorded variable.
    fn shape(&self, v: Var) -> (usize, usize);

    // ---- elementwise ----------------------------------------------------

    /// `a + b` (same shape).
    #[must_use]
    fn add(&mut self, a: Var, b: Var) -> Var;

    /// `a - b` (same shape).
    #[must_use]
    fn sub(&mut self, a: Var, b: Var) -> Var;

    /// Elementwise `a ⊙ b` (same shape; `a` may equal `b`).
    #[must_use]
    fn mul(&mut self, a: Var, b: Var) -> Var;

    /// `-a`.
    #[must_use]
    fn neg(&mut self, a: Var) -> Var;

    /// `k · a`.
    #[must_use]
    fn scale(&mut self, a: Var, k: f32) -> Var;

    /// `a + k` (entrywise).
    #[must_use]
    fn add_scalar(&mut self, a: Var, k: f32) -> Var;

    // ---- linear algebra --------------------------------------------------

    /// Matrix product `a · b`.
    #[must_use]
    fn matmul(&mut self, a: Var, b: Var) -> Var;

    /// `aᵀ`.
    #[must_use]
    fn transpose(&mut self, a: Var) -> Var;

    /// Sparse propagation with a caller-provided transpose (avoids
    /// re-transposing the adjacency on every training step).
    #[must_use]
    fn spmm_with(&mut self, adj: &Rc<Csr>, adj_t: &Rc<Csr>, b: Var) -> Var;

    /// Sparse propagation `adj · b`. The transpose is taken once here; use
    /// [`Recorder::spmm_with`] to reuse a pre-transposed adjacency across
    /// steps.
    #[must_use]
    fn spmm(&mut self, adj: &Rc<Csr>, b: Var) -> Var {
        let at = Rc::new(adj.transpose());
        self.spmm_with(adj, &at, b)
    }

    // ---- activations -----------------------------------------------------

    /// Logistic sigmoid.
    #[must_use]
    fn sigmoid(&mut self, a: Var) -> Var;

    /// Hyperbolic tangent.
    #[must_use]
    fn tanh(&mut self, a: Var) -> Var;

    /// LeakyReLU with negative slope `alpha` (the paper uses 0.2).
    #[must_use]
    fn leaky_relu(&mut self, a: Var, alpha: f32) -> Var;

    /// ReLU.
    #[must_use]
    fn relu(&mut self, a: Var) -> Var;

    /// Entrywise `eˣ`. Overflows for unbounded inputs — apply only to
    /// outputs of bounded ops (the static auditor enforces this).
    #[must_use]
    fn exp(&mut self, a: Var) -> Var;

    /// Numerically-stable `softplus(x) = ln(1 + eˣ)`.
    ///
    /// `mean(softplus(-(pos − neg)))` is exactly the paper's BPR loss
    /// `-ln σ(pos − neg)` (Eq. 11); see [`Recorder::bpr_loss`].
    #[must_use]
    fn softplus(&mut self, a: Var) -> Var;

    /// Entrywise natural logarithm. Only defined for inputs provably
    /// bounded away from zero — feed it `add_scalar(x, ε)` of a
    /// non-negative `x`; the static auditor's domain check enforces this.
    #[must_use]
    fn ln(&mut self, a: Var) -> Var;

    /// Elementwise quotient `a ⊘ b` (same shape). The divisor must be
    /// provably bounded away from zero (see [`Recorder::ln`]).
    #[must_use]
    fn div(&mut self, a: Var, b: Var) -> Var;

    /// Entrywise square root. The input must be provably non-negative
    /// (see [`Recorder::ln`]).
    #[must_use]
    fn sqrt(&mut self, a: Var) -> Var;

    // ---- broadcasts ------------------------------------------------------

    /// Adds the `1 × d` row vector `row` to every row of `a` (bias terms).
    #[must_use]
    fn add_row(&mut self, a: Var, row: Var) -> Var;

    /// Multiplies every row of `a` elementwise by the `1 × d` vector `row`
    /// (LayerNorm scale ω₁ in the paper's Eq. 7).
    #[must_use]
    fn mul_row(&mut self, a: Var, row: Var) -> Var;

    /// Multiplies row `i` of `a` by the scalar `col[i]` (`col` is `n × 1`;
    /// memory-unit attention weighting in the paper's Eq. 3).
    #[must_use]
    fn mul_col(&mut self, a: Var, col: Var) -> Var;

    // ---- reductions ------------------------------------------------------

    /// Scalar (`1 × 1`) sum of all entries.
    #[must_use]
    fn sum_all(&mut self, a: Var) -> Var;

    /// Scalar (`1 × 1`) mean of all entries.
    #[must_use]
    fn mean_all(&mut self, a: Var) -> Var;

    /// `n × 1` per-row sums.
    #[must_use]
    fn row_sum(&mut self, a: Var) -> Var;

    /// `1 × d` per-column means (graph readout).
    #[must_use]
    fn col_mean(&mut self, a: Var) -> Var;

    // ---- structure -------------------------------------------------------

    /// Left-to-right concatenation (cross-layer aggregation, Eq. 8).
    #[must_use]
    fn concat_cols(&mut self, parts: &[Var]) -> Var;

    /// Copy of columns `[start, end)` (multi-head splitting).
    #[must_use]
    fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var;

    /// Embedding lookup: output row `i` is `a.row(idx[i])`. Duplicate
    /// indices are allowed; their gradients accumulate.
    #[must_use]
    fn gather(&mut self, a: Var, idx: Rc<Vec<usize>>) -> Var;

    // ---- normalizers -----------------------------------------------------

    /// Row-wise LayerNorm `(x − μ) / √(σ² + eps)` without affine terms.
    #[must_use]
    fn layer_norm_rows(&mut self, a: Var, eps: f32) -> Var;

    /// Row-wise L2 normalization; rows with norm ≤ `eps` pass through.
    #[must_use]
    fn l2_normalize_rows(&mut self, a: Var, eps: f32) -> Var {
        self.l2_normalize_heads(a, eps, 1)
    }

    /// Blocked L2 normalization: every row of `a` is `heads` equal column
    /// blocks, and each block is scaled to unit norm on its own (a block
    /// with norm ≤ `eps` passes through) — per-intent normalization
    /// without splitting the intents apart.
    #[must_use]
    fn l2_normalize_heads(&mut self, a: Var, eps: f32, heads: usize) -> Var;

    /// `n × 1` per-row dot products (scoring a batch of user/item pairs).
    #[must_use]
    fn row_dots(&mut self, a: Var, b: Var) -> Var {
        self.head_dots(a, b, 1)
    }

    /// `E × heads` per-head row dot products: `a` and `b` are `d` wide
    /// [`Rows`] over the same `E` edges, and column `h` of the result dots
    /// column block `h` (of `heads` equal blocks) of the two rows each edge
    /// reads — multi-head attention logits without splitting the heads
    /// apart, and without gathering either side when it is a table.
    #[must_use]
    fn head_dots(&mut self, a: impl Into<Rows>, b: impl Into<Rows>, heads: usize) -> Var;

    /// Row-wise softmax.
    #[must_use]
    fn softmax_rows(&mut self, a: Var) -> Var;

    // ---- segment (edge-attention) ops ------------------------------------

    /// Softmax over contiguous segments of `E × H` edge logits, every
    /// column (head) on its own.
    ///
    /// `seg` is a CSR-style pointer of length `N + 1` starting at 0: edges
    /// `seg[n]..seg[n+1]` belong to target node `n`. This is the
    /// "edge softmax" primitive behind every attention baseline (GraphRec,
    /// HGT, KGAT, HAN, DisenHAN, SAMN).
    #[must_use]
    fn segment_softmax(&mut self, logits: Var, seg: Rc<Vec<usize>>) -> Var;

    /// Weighted segment sum: `out[n] = Σ_{e ∈ seg(n)} w[e] · v(e)` for
    /// `E × 1` weights, `v(e)` the row edge `e` reads of the [`Rows`] `v`.
    /// With `E × H` weights, `v`'s columns split into `H` equal blocks and
    /// block `h` is weighted by column `h`. A table `v` must be read
    /// through an edge list whose `seg` is this `seg`.
    ///
    /// With `w` from [`Recorder::segment_softmax`] this is (multi-head)
    /// attention aggregation; with constant weights it is plain
    /// neighborhood sum.
    #[must_use]
    fn segment_weighted_sum(&mut self, w: Var, v: impl Into<Rows>, seg: Rc<Vec<usize>>) -> Var;

    // ---- memory-bank reduce ------------------------------------------------

    /// η-weighted block reduce (the sum over memory units in the paper's
    /// Eq. 3): `t` is `n × M·b` — `M` column blocks of width `b`, typically
    /// one wide `matmul` against `[W_1 | … | W_M]` — and `eta` is `n × M`;
    /// `out[n, :] = Σ_m eta[n, m] · t[n, m·b..(m+1)·b]`, summed in
    /// ascending `m`.
    #[must_use]
    fn weighted_block_sum(&mut self, t: Var, eta: Var) -> Var;

    // ---- misc ------------------------------------------------------------

    /// Elementwise product with a fixed 0/`1/(1-p)` mask (inverted
    /// dropout). The mask is treated as a constant.
    #[must_use]
    fn dropout_mask(&mut self, a: Var, mask: Matrix) -> Var;

    /// The paper's pairwise BPR objective (Eq. 11 without the weight-decay
    /// term, which the optimizers apply):
    /// `mean(softplus(−(pos − neg))) = mean(−ln σ(pos − neg))`.
    #[must_use]
    fn bpr_loss(&mut self, pos_scores: Var, neg_scores: Var) -> Var {
        let diff = self.sub(pos_scores, neg_scores);
        let neg_diff = self.neg(diff);
        let sp = self.softplus(neg_diff);
        self.mean_all(sp)
    }
}
