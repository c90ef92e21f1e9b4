//! The autodiff tape: forward-op recording and the reverse pass.
//!
//! Allocation discipline: this file is the workspace's hottest allocation
//! site. Every matrix it creates or drops goes through the thread's buffer
//! pool when a trainer has opened one (`dgnn_tensor::PoolScope`), and the
//! reverse pass drops each gradient as soon as it is used, so a training
//! step reuses the previous step's storage instead of the heap.

use std::rc::Rc;

use dgnn_tensor::{stable_sigmoid, EdgeRows, Matrix};

use crate::params::{ParamId, ParamSet};
use crate::recorder::{Recorder, Rows, Var};

/// One recorded operation. Kept private: the public API is the builder
/// surface of [`Recorder`] as implemented by [`Tape`].
#[derive(Debug)]
enum Op {
    /// Constant or parameter leaf; `param` links back to the [`ParamSet`].
    Leaf {
        param: Option<ParamId>,
    },
    Add(Var, Var),
    Sub(Var, Var),
    /// Elementwise product. `a` and `b` may be the same variable.
    Mul(Var, Var),
    Neg(Var),
    Scale(Var, f32),
    AddScalar(Var, f32),
    MatMul(Var, Var),
    Transpose(Var),
    Sigmoid(Var),
    Tanh(Var),
    LeakyRelu(Var, f32),
    Relu(Var),
    Exp(Var),
    /// `ln(1 + eˣ)` with a numerically stable forward.
    Softplus(Var),
    /// Natural logarithm (domain-checked statically by the auditor).
    Ln(Var),
    /// Elementwise quotient `a ⊘ b`.
    Div(Var, Var),
    /// Elementwise square root.
    Sqrt(Var),
    /// Add a `1 × d` row vector to every row.
    AddRow(Var, Var),
    /// Multiply every row elementwise by a `1 × d` row vector.
    MulRow(Var, Var),
    /// Multiply row `i` by scalar `col[i]` (`col` is `n × 1`).
    MulCol(Var, Var),
    SumAll(Var),
    MeanAll(Var),
    RowSum(Var),
    ColMean(Var),
    ConcatCols(Vec<Var>),
    SliceCols {
        a: Var,
        start: usize,
        end: usize,
    },
    /// Embedding lookup: output row `i` is `a.row(idx[i])`.
    Gather {
        a: Var,
        idx: Rc<Vec<usize>>,
    },
    /// Row-wise LayerNorm without affine terms (compose with
    /// [`Recorder::mul_row`]/[`Recorder::add_row`] for ω₁/ω₂ of the
    /// paper's Eq. 7).
    LayerNormRow {
        a: Var,
        eps: f32,
    },
    /// L2 normalization of each of `heads` equal column blocks of every
    /// row (DGCF's intent routing; one block is plain row normalization).
    RowL2Norm {
        a: Var,
        eps: f32,
        heads: usize,
    },
    /// `E × heads` of per-head row dot products of the rows each edge
    /// reads of `a` and `b` (`n × 1` with one head and per-row operands).
    RowDots {
        a: Rows,
        b: Rows,
        heads: usize,
    },
    SoftmaxRows(Var),
    /// Per-segment softmax of every column of `E × H` edge logits,
    /// segments given by a CSR-style `seg` pointer (edges grouped by
    /// target node).
    SegmentSoftmax {
        logits: Var,
        seg: Rc<Vec<usize>>,
    },
    /// `out[n, block h] = Σ_{e ∈ seg(n)} w[e, h] · v(e)[block h]` —
    /// multi-head attention aggregation (one head when `w` is `E × 1`).
    SegmentWeightedSum {
        w: Var,
        v: Rows,
        seg: Rc<Vec<usize>>,
    },
    /// `out[n, :] = Σ_m eta[n, m] · t[n, m·b..(m+1)·b]` — the memory-bank
    /// reduce of the paper's Eq. 3 over the `M` column blocks of `t`.
    WeightedBlockSum {
        t: Var,
        eta: Var,
    },
    /// Elementwise product with a fixed (non-differentiated) mask.
    Dropout {
        a: Var,
        mask: Matrix,
    },
}

impl Op {
    /// Portable op-kind name, matching [`crate::meta::ALL_OPS`] — the key
    /// under which `dgnn-obs` aggregates this op's profile, chosen so a
    /// profile row lines up with the static analyzer's view of the graph.
    fn kind(&self) -> &'static str {
        match self {
            Op::Leaf { param: Some(_) } => "param",
            Op::Leaf { param: None } => "constant",
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::Neg(..) => "neg",
            Op::Scale(..) => "scale",
            Op::AddScalar(..) => "add_scalar",
            Op::MatMul(..) => "matmul",
            Op::Transpose(..) => "transpose",
            Op::Sigmoid(..) => "sigmoid",
            Op::Tanh(..) => "tanh",
            Op::LeakyRelu(..) => "leaky_relu",
            Op::Relu(..) => "relu",
            Op::Exp(..) => "exp",
            Op::Softplus(..) => "softplus",
            Op::Ln(..) => "ln",
            Op::Div(..) => "div",
            Op::Sqrt(..) => "sqrt",
            Op::AddRow(..) => "add_row",
            Op::MulRow(..) => "mul_row",
            Op::MulCol(..) => "mul_col",
            Op::SumAll(..) => "sum_all",
            Op::MeanAll(..) => "mean_all",
            Op::RowSum(..) => "row_sum",
            Op::ColMean(..) => "col_mean",
            Op::ConcatCols(..) => "concat_cols",
            Op::SliceCols { .. } => "slice_cols",
            Op::Gather { .. } => "gather",
            Op::LayerNormRow { .. } => "layer_norm_rows",
            Op::RowL2Norm { .. } => "l2_normalize_rows",
            Op::RowDots { .. } => "row_dots",
            Op::SoftmaxRows(..) => "softmax_rows",
            Op::SegmentSoftmax { .. } => "segment_softmax",
            Op::SegmentWeightedSum { .. } => "segment_weighted_sum",
            Op::WeightedBlockSum { .. } => "weighted_block_sum",
            Op::Dropout { .. } => "dropout",
        }
    }

    /// True if `f` holds for any of the op's inputs.
    fn any_input(&self, f: impl Fn(Var) -> bool) -> bool {
        use Op::*;
        match self {
            Leaf { .. } => false,
            Add(a, b)
            | Sub(a, b)
            | Mul(a, b)
            | MatMul(a, b)
            | Div(a, b)
            | AddRow(a, b)
            | MulRow(a, b)
            | MulCol(a, b)
            | WeightedBlockSum { t: a, eta: b } => f(*a) || f(*b),
            RowDots { a, b, .. } => f(a.var()) || f(b.var()),
            SegmentWeightedSum { w, v, .. } => f(*w) || f(v.var()),
            ConcatCols(parts) => parts.iter().any(|&p| f(p)),
            Neg(a)
            | Scale(a, _)
            | AddScalar(a, _)
            | Transpose(a)
            | Sigmoid(a)
            | Tanh(a)
            | LeakyRelu(a, _)
            | Relu(a)
            | Exp(a)
            | Softplus(a)
            | Ln(a)
            | Sqrt(a)
            | SumAll(a)
            | MeanAll(a)
            | RowSum(a)
            | ColMean(a)
            | SoftmaxRows(a)
            | SliceCols { a, .. }
            | Gather { a, .. }
            | LayerNormRow { a, .. }
            | RowL2Norm { a, .. }
            | SegmentSoftmax { logits: a, .. }
            | Dropout { a, .. } => f(*a),
        }
    }
}

struct Node {
    op: Op,
    value: Matrix,
}

/// Records one forward pass and computes gradients on demand.
///
/// A tape is cheap to construct; build a fresh one per training step. The
/// graph-building surface lives on the [`Recorder`] trait so that models
/// written against `R: Recorder` can also be abstractly interpreted (shape
/// checking, dead-subgraph audits) without executing any tensor math.
pub struct Tape {
    nodes: Vec<Node>,
    /// `Some(mark)` while per-op profiling is armed (observability enabled
    /// at construction): the timestamp of the previous op boundary.
    /// Forward durations are *inter-push deltas* — everything since the
    /// last boundary is attributed to the op being pushed — so one clock
    /// read per op covers compute that happens in the `Recorder` methods
    /// before `push` runs.
    obs_mark: Option<u64>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape. Per-op profiling is armed here iff
    /// [`dgnn_obs::is_enabled`] at this moment; a tape built while
    /// observability is off stays unobserved for its whole life, keeping
    /// each step's profile internally consistent.
    pub fn new() -> Self {
        let obs_mark = dgnn_obs::is_enabled().then(dgnn_obs::now_ns);
        Self { nodes: Vec::new(), obs_mark }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Forward value of a variable.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Forward shape of a variable.
    fn shape_of(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    /// The forward value of a row operand, read the way its edges read it.
    fn rows<'a>(&'a self, r: &'a Rows) -> EdgeRows<'a> {
        EdgeRows::new(self.value(r.var()), r.read())
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        if let Some(mark) = self.obs_mark {
            let now = dgnn_obs::now_ns();
            dgnn_obs::record_op(op.kind(), dgnn_obs::OpPhase::Forward, now.saturating_sub(mark));
            self.obs_mark = Some(now);
        }
        debug_assert!(value.all_finite(), "non-finite value produced by {op:?}");
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// Evaluates `op` and records it: the single entry point for every
    /// non-leaf `Recorder` method.
    fn apply(&mut self, op: Op) -> Var {
        let v = self.eval(&op);
        self.push(op, v)
    }

    /// Evaluates one op's forward value from its inputs — the single source
    /// of truth for forward semantics.
    fn eval(&self, op: &Op) -> Matrix {
        use Op::*;
        match op {
            Leaf { .. } => unreachable!("leaf values are produced by constant()/param()"),
            Add(a, b) => self.value(*a).add(self.value(*b)),
            Sub(a, b) => self.value(*a).sub(self.value(*b)),
            Mul(a, b) => self.value(*a).mul_elem(self.value(*b)),
            Neg(a) => self.value(*a).scale(-1.0),
            Scale(a, k) => self.value(*a).scale(*k),
            AddScalar(a, k) => {
                let k = *k;
                self.value(*a).map(move |x| x + k)
            }
            MatMul(a, b) => self.value(*a).matmul(self.value(*b)),
            Transpose(a) => self.value(*a).transpose(),
            Sigmoid(a) => self.value(*a).map_weighted(32, stable_sigmoid),
            // Audited branchless: `f32::tanh` is a polynomial/rational
            // kernel with no data-dependent branching. Of a gather that
            // repeats table rows, tanh runs once per table row and the
            // result is gathered: entrywise, so the value is bitwise the
            // same, and the node and its backward are unchanged.
            Tanh(a) => match &self.nodes[a.0].op {
                Gather { a: table, idx } if idx.len() > self.shape_of(*table).0 => {
                    self.value(*table).map_weighted(32, f32::tanh).gather_rows(idx)
                }
                _ => self.value(*a).map_weighted(32, f32::tanh),
            },
            // Branchless kernel (see `Matrix::leaky_relu`): the branchy map
            // mispredicted ~half its calls on sign-random activations and
            // was ~30× slower per element than `add`.
            LeakyRelu(a, alpha) => self.value(*a).leaky_relu(*alpha),
            Relu(a) => self.value(*a).map(|x| x.max(0.0)),
            Exp(a) => self.value(*a).map_weighted(16, f32::exp),
            // Audited branchless: `max`/`abs` compile to sign-bit ops, and
            // the `exp`/`ln_1p` pair is branch-free on the value path.
            Softplus(a) => {
                self.value(*a).map_weighted(32, |x| x.max(0.0) + (-x.abs()).exp().ln_1p())
            }
            Ln(a) => self.value(*a).map_weighted(16, f32::ln),
            Div(a, b) => self.value(*a).div_elem(self.value(*b)),
            Sqrt(a) => self.value(*a).map(f32::sqrt),
            AddRow(a, row) => self.value(*a).add_row_broadcast(self.value(*row)),
            MulRow(a, row) => self.value(*a).mul_row_broadcast(self.value(*row)),
            MulCol(a, col) => self.value(*a).mul_col_broadcast(self.value(*col)),
            SumAll(a) => Matrix::full(1, 1, self.value(*a).sum()),
            MeanAll(a) => Matrix::full(1, 1, self.value(*a).mean()),
            RowSum(a) => self.value(*a).row_sums(),
            ColMean(a) => {
                let rows = self.value(*a).rows().max(1) as f32;
                self.value(*a).col_sums().scale(1.0 / rows)
            }
            ConcatCols(parts) => {
                let mats: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
                Matrix::concat_cols(&mats)
            }
            SliceCols { a, start, end } => self.value(*a).slice_cols(*start, *end),
            Gather { a, idx } => self.value(*a).gather_rows(idx),
            LayerNormRow { a, eps } => self.value(*a).layer_norm_rows(*eps),
            RowL2Norm { a, eps, heads } => self.value(*a).l2_normalize_heads(*eps, *heads),
            RowDots { a, b, heads } => Matrix::head_dots_via(self.rows(a), self.rows(b), *heads),
            SoftmaxRows(a) => self.value(*a).softmax_rows(),
            SegmentSoftmax { logits, seg } => self.value(*logits).segment_softmax(seg),
            SegmentWeightedSum { w, v, seg } => {
                Matrix::segment_weighted_sum(self.value(*w), self.rows(v), seg)
            }
            WeightedBlockSum { t, eta } => self.value(*t).weighted_block_sum(self.value(*eta)),
            Dropout { a, mask } => {
                assert_eq!(self.value(*a).shape(), mask.shape(), "dropout: mask shape mismatch");
                self.value(*a).mul_elem(mask)
            }
        }
    }

    // ---- reverse pass ------------------------------------------------------

    /// Runs the reverse pass from `loss` (which must be `1 × 1`) and
    /// *accumulates* parameter gradients into `params`. Returns the loss
    /// value as `f32` for logging.
    ///
    /// Each non-leaf gradient is dropped as soon as its rule has run, so
    /// its storage is free for the rules after it. Parameter gradients are
    /// accumulated afterwards in ascending node order: a parameter appears
    /// as several leaves and `f32` addition is order-sensitive, so this is
    /// the order that keeps the bits of [`Tape::backward`].
    ///
    /// Only gradients that reach a parameter are computed: a node none of
    /// whose inputs leads to a parameter leaf (a constant, or an op on
    /// constants only) gets no gradient, and the rules that would produce
    /// it are skipped. Nothing skipped is ever read, so the parameter
    /// gradients keep their bits.
    pub fn backward_into(&mut self, loss: Var, params: &mut ParamSet) -> f32 {
        let mut live = vec![false; self.nodes.len()];
        for i in 0..self.nodes.len() {
            live[i] = match &self.nodes[i].op {
                Op::Leaf { param } => param.is_some(),
                op => op.any_input(|v| live[v.0]),
            };
        }
        let grads = self.sweep(loss, &live, |op| matches!(op, Op::Leaf { param: Some(_) }));
        for (i, g) in grads.iter().enumerate() {
            if let (Op::Leaf { param: Some(id) }, Some(g)) = (&self.nodes[i].op, g) {
                params.accumulate_grad(*id, g);
            }
        }
        self.value(loss)[(0, 0)]
    }

    /// Runs the reverse pass and returns the gradient of `loss` with
    /// respect to every node (None where no gradient flowed).
    pub fn backward(&self, loss: Var) -> Vec<Option<Matrix>> {
        self.sweep(loss, &vec![true; self.nodes.len()], |_| true)
    }

    /// The reverse sweep: runs every node's rule from `loss` down, computing
    /// a gradient only for nodes marked `live`, and keeps a node's gradient
    /// afterwards only where `keep(op)` holds.
    fn sweep(&self, loss: Var, live: &[bool], keep: impl Fn(&Op) -> bool) -> Vec<Option<Matrix>> {
        let shape = self.value(loss).shape();
        assert_eq!(shape, (1, 1), "backward: loss must be a 1×1 scalar, got {shape:?}");
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Matrix::full(1, 1, 1.0));
        for i in (0..=loss.0).rev() {
            let Some(g) = grads[i].take() else { continue };
            self.backprop_node_observed(i, &g, live, &mut grads);
            if keep(&self.nodes[i].op) {
                grads[i] = Some(g);
            }
        }
        grads
    }

    /// Gradient of `loss` w.r.t. one variable (convenience for tests).
    pub fn grad_of(&self, loss: Var, wrt: Var) -> Option<Matrix> {
        self.backward(loss).into_iter().nth(wrt.0).flatten()
    }

    /// Runs one node's backward rule, timing it when profiling is armed.
    /// Backward durations are exact per-rule measurements (unlike the
    /// forward pass's inter-push deltas): the rule runs between two clock
    /// reads with nothing else in the interval.
    fn backprop_node_observed(
        &self,
        i: usize,
        g: &Matrix,
        live: &[bool],
        grads: &mut [Option<Matrix>],
    ) {
        match self.obs_mark {
            Some(_) => {
                let t0 = dgnn_obs::now_ns();
                self.backprop_node(i, g, live, grads);
                let dt = dgnn_obs::now_ns().saturating_sub(t0);
                dgnn_obs::record_op(self.nodes[i].op.kind(), dgnn_obs::OpPhase::Backward, dt);
            }
            None => self.backprop_node(i, g, live, grads),
        }
    }

    /// Adds the gradient `g()` to `v`'s, evaluating it only if `v` is live.
    fn accum(grads: &mut [Option<Matrix>], live: &[bool], v: Var, g: impl FnOnce() -> Matrix) {
        if !live[v.0] {
            return;
        }
        let g = g();
        match &mut grads[v.0] {
            Some(acc) => acc.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    fn backprop_node(&self, i: usize, g: &Matrix, live: &[bool], grads: &mut [Option<Matrix>]) {
        use Op::*;
        match &self.nodes[i].op {
            Leaf { .. } => {}
            Add(a, b) => {
                // Gradient fan-out needs one copy per operand.
                Self::accum(grads, live, *a, || g.clone());
                Self::accum(grads, live, *b, || g.clone());
            }
            Sub(a, b) => {
                Self::accum(grads, live, *a, || g.clone());
                Self::accum(grads, live, *b, || g.scale(-1.0));
            }
            Mul(a, b) => {
                Self::accum(grads, live, *a, || g.mul_elem(self.value(*b)));
                Self::accum(grads, live, *b, || g.mul_elem(self.value(*a)));
            }
            Neg(a) => Self::accum(grads, live, *a, || g.scale(-1.0)),
            Scale(a, k) => Self::accum(grads, live, *a, || g.scale(*k)),
            AddScalar(a, _) => Self::accum(grads, live, *a, || g.clone()),
            MatMul(a, b) => {
                // dA = G·Bᵀ ; dB = Aᵀ·G
                Self::accum(grads, live, *a, || g.matmul_nt(self.value(*b)));
                Self::accum(grads, live, *b, || self.value(*a).matmul_tn(g));
            }
            Transpose(a) => Self::accum(grads, live, *a, || g.transpose()),
            // Fused activation gradients: no slope matrix is materialized,
            // but each multiplies in the same per-element order as the
            // unfused `slope.mul_elem(g)` form, so results are bit-identical
            // (enforced by unit tests in dgnn-tensor).
            Sigmoid(a) => {
                Self::accum(grads, live, *a, || self.value(Var(i)).sigmoid_grad(g));
            }
            Tanh(a) => {
                Self::accum(grads, live, *a, || self.value(Var(i)).tanh_grad(g));
            }
            LeakyRelu(a, alpha) => {
                Self::accum(grads, live, *a, || self.value(*a).leaky_relu_grad(g, *alpha));
            }
            Relu(a) => {
                Self::accum(grads, live, *a, || self.value(*a).relu_grad(g));
            }
            Exp(a) => Self::accum(grads, live, *a, || g.mul_elem(self.value(Var(i)))),
            Softplus(a) => {
                Self::accum(grads, live, *a, || self.value(*a).softplus_grad(g));
            }
            Ln(a) => {
                Self::accum(grads, live, *a, || g.mul_elem(&self.value(*a).map(|x| 1.0 / x)));
            }
            Div(a, b) => {
                // d(a/b)/da = 1/b ; d(a/b)/db = −a/b²
                let inv_b = self.value(*b).map(|x| 1.0 / x);
                Self::accum(grads, live, *a, || g.mul_elem(&inv_b));
                Self::accum(grads, live, *b, || {
                    g.mul_elem(self.value(*a)).mul_elem(&inv_b).mul_elem(&inv_b).scale(-1.0)
                });
            }
            Sqrt(a) => {
                Self::accum(grads, live, *a, || g.mul_elem(&self.value(Var(i)).map(|y| 0.5 / y)));
            }
            AddRow(a, row) => {
                Self::accum(grads, live, *a, || g.clone());
                Self::accum(grads, live, *row, || g.col_sums());
            }
            MulRow(a, row) => {
                Self::accum(grads, live, *a, || g.mul_row_broadcast(self.value(*row)));
                Self::accum(grads, live, *row, || g.mul_elem(self.value(*a)).col_sums());
            }
            MulCol(a, col) => {
                Self::accum(grads, live, *a, || g.mul_col_broadcast(self.value(*col)));
                Self::accum(grads, live, *col, || g.row_dots(self.value(*a)));
            }
            SumAll(a) => {
                let (r, c) = self.shape_of(*a);
                Self::accum(grads, live, *a, || Matrix::full(r, c, g[(0, 0)]));
            }
            MeanAll(a) => {
                let (r, c) = self.shape_of(*a);
                let k = g[(0, 0)] / (r * c).max(1) as f32;
                Self::accum(grads, live, *a, || Matrix::full(r, c, k));
            }
            RowSum(a) => {
                let (r, c) = self.shape_of(*a);
                Self::accum(grads, live, *a, || Matrix::from_fn(r, c, |row, _| g[(row, 0)]));
            }
            ColMean(a) => {
                let (r, c) = self.shape_of(*a);
                let k = 1.0 / r.max(1) as f32;
                Self::accum(grads, live, *a, || Matrix::from_fn(r, c, |_, col| g[(0, col)] * k));
            }
            ConcatCols(parts) => {
                let mut off = 0;
                for &p in parts {
                    let w = self.shape_of(p).1;
                    Self::accum(grads, live, p, || g.slice_cols(off, off + w));
                    off += w;
                }
            }
            SliceCols { a, start, end } => {
                let (r, c) = self.shape_of(*a);
                Self::accum(grads, live, *a, || {
                    let mut ga = Matrix::zeros(r, c);
                    for row in 0..r {
                        ga.row_mut(row)[*start..*end].copy_from_slice(g.row(row));
                    }
                    ga
                });
            }
            Gather { a, idx } => {
                // Scatter straight into the accumulator: materializing (and
                // zeroing) a fresh dense table per gather dominated NGCF's
                // backward profile. The table is zeroed once, on the first
                // gradient contribution, and every later gather scatters
                // only its touched rows.
                if live[a.0] {
                    let (r, c) = self.shape_of(*a);
                    let acc = grads[a.0].get_or_insert_with(|| Matrix::zeros(r, c));
                    acc.scatter_add_rows(idx, g);
                }
            }
            LayerNormRow { a, eps } => {
                let (x, y) = (self.value(*a), self.value(Var(i)));
                Self::accum(grads, live, *a, || Matrix::layer_norm_rows_grad(x, y, g, *eps));
            }
            RowL2Norm { a, eps, heads } => {
                Self::accum(grads, live, *a, || {
                    Matrix::l2_normalize_heads_grad(self.value(*a), g, *eps, *heads)
                });
            }
            RowDots { a, b, .. } => {
                // `g` is `E × heads`: head `h`'s column scales block `h`. A
                // table operand's gradient comes back summed per table row.
                Self::accum(grads, live, a.var(), || {
                    Matrix::head_dots_grad(a.read(), self.rows(b), g)
                });
                Self::accum(grads, live, b.var(), || {
                    Matrix::head_dots_grad(b.read(), self.rows(a), g)
                });
            }
            SoftmaxRows(a) => {
                Self::accum(grads, live, *a, || Matrix::softmax_rows_grad(self.value(Var(i)), g));
            }
            SegmentSoftmax { logits, seg } => {
                Self::accum(grads, live, *logits, || {
                    Matrix::segment_softmax_grad(self.value(Var(i)), g, seg)
                });
            }
            SegmentWeightedSum { w, v, seg } => {
                let wv = self.value(*w);
                let heads = wv.cols();
                Self::accum(grads, live, *w, || {
                    Matrix::segment_weighted_sum_grad_weights(self.rows(v), g, seg, heads)
                });
                Self::accum(grads, live, v.var(), || {
                    Matrix::segment_weighted_sum_grad_rows(wv, g, seg, v.read())
                });
            }
            WeightedBlockSum { t, eta } => {
                let (tv, ev) = (self.value(*t), self.value(*eta));
                Self::accum(grads, live, *t, || Matrix::weighted_block_sum_grad_blocks(ev, g));
                Self::accum(grads, live, *eta, || Matrix::weighted_block_sum_grad_weights(tv, g));
            }
            Dropout { a, mask } => {
                Self::accum(grads, live, *a, || g.mul_elem(mask));
            }
        }
    }
}

impl Recorder for Tape {
    // ---- leaves ---------------------------------------------------------

    fn constant(&mut self, value: Matrix) -> Var {
        self.push(Op::Leaf { param: None }, value)
    }

    fn param(&mut self, params: &ParamSet, id: ParamId) -> Var {
        // Leaves copy the parameter so the optimizer can update the
        // ParamSet mid-epoch without aliasing the tape.
        self.push(Op::Leaf { param: Some(id) }, params.value(id).clone())
    }

    fn shape(&self, v: Var) -> (usize, usize) {
        self.shape_of(v)
    }

    // ---- elementwise ----------------------------------------------------

    fn add(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::Add(a, b))
    }

    fn sub(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::Sub(a, b))
    }

    fn mul(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::Mul(a, b))
    }

    fn neg(&mut self, a: Var) -> Var {
        self.apply(Op::Neg(a))
    }

    fn scale(&mut self, a: Var, k: f32) -> Var {
        self.apply(Op::Scale(a, k))
    }

    fn add_scalar(&mut self, a: Var, k: f32) -> Var {
        self.apply(Op::AddScalar(a, k))
    }

    // ---- linear algebra --------------------------------------------------

    fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::MatMul(a, b))
    }

    fn transpose(&mut self, a: Var) -> Var {
        self.apply(Op::Transpose(a))
    }

    // ---- activations -----------------------------------------------------

    fn sigmoid(&mut self, a: Var) -> Var {
        self.apply(Op::Sigmoid(a))
    }

    fn tanh(&mut self, a: Var) -> Var {
        self.apply(Op::Tanh(a))
    }

    fn leaky_relu(&mut self, a: Var, alpha: f32) -> Var {
        self.apply(Op::LeakyRelu(a, alpha))
    }

    fn relu(&mut self, a: Var) -> Var {
        self.apply(Op::Relu(a))
    }

    fn exp(&mut self, a: Var) -> Var {
        self.apply(Op::Exp(a))
    }

    fn softplus(&mut self, a: Var) -> Var {
        self.apply(Op::Softplus(a))
    }

    fn ln(&mut self, a: Var) -> Var {
        self.apply(Op::Ln(a))
    }

    fn div(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::Div(a, b))
    }

    fn sqrt(&mut self, a: Var) -> Var {
        self.apply(Op::Sqrt(a))
    }

    // ---- broadcasts ------------------------------------------------------

    fn add_row(&mut self, a: Var, row: Var) -> Var {
        self.apply(Op::AddRow(a, row))
    }

    fn mul_row(&mut self, a: Var, row: Var) -> Var {
        self.apply(Op::MulRow(a, row))
    }

    fn mul_col(&mut self, a: Var, col: Var) -> Var {
        self.apply(Op::MulCol(a, col))
    }

    // ---- reductions ------------------------------------------------------

    fn sum_all(&mut self, a: Var) -> Var {
        self.apply(Op::SumAll(a))
    }

    fn mean_all(&mut self, a: Var) -> Var {
        self.apply(Op::MeanAll(a))
    }

    fn row_sum(&mut self, a: Var) -> Var {
        self.apply(Op::RowSum(a))
    }

    fn col_mean(&mut self, a: Var) -> Var {
        self.apply(Op::ColMean(a))
    }

    // ---- structure -------------------------------------------------------

    fn concat_cols(&mut self, parts: &[Var]) -> Var {
        self.apply(Op::ConcatCols(parts.to_vec()))
    }

    fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        self.apply(Op::SliceCols { a, start, end })
    }

    fn gather(&mut self, a: Var, idx: Rc<Vec<usize>>) -> Var {
        self.apply(Op::Gather { a, idx })
    }

    // ---- normalizers -----------------------------------------------------

    fn layer_norm_rows(&mut self, a: Var, eps: f32) -> Var {
        self.apply(Op::LayerNormRow { a, eps })
    }

    fn l2_normalize_heads(&mut self, a: Var, eps: f32, heads: usize) -> Var {
        self.apply(Op::RowL2Norm { a, eps, heads })
    }

    fn head_dots(&mut self, a: impl Into<Rows>, b: impl Into<Rows>, heads: usize) -> Var {
        self.apply(Op::RowDots { a: a.into(), b: b.into(), heads })
    }

    fn softmax_rows(&mut self, a: Var) -> Var {
        self.apply(Op::SoftmaxRows(a))
    }

    // ---- segment (edge-attention) ops ------------------------------------

    fn segment_softmax(&mut self, logits: Var, seg: Rc<Vec<usize>>) -> Var {
        self.apply(Op::SegmentSoftmax { logits, seg })
    }

    fn segment_weighted_sum(&mut self, w: Var, v: impl Into<Rows>, seg: Rc<Vec<usize>>) -> Var {
        self.apply(Op::SegmentWeightedSum { w, v: v.into(), seg })
    }

    fn weighted_block_sum(&mut self, t: Var, eta: Var) -> Var {
        self.apply(Op::WeightedBlockSum { t, eta })
    }

    // ---- misc ------------------------------------------------------------

    fn dropout_mask(&mut self, a: Var, mask: Matrix) -> Var {
        self.apply(Op::Dropout { a, mask })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values_are_recorded() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::row_vector(&[1.0, 2.0]));
        let b = t.constant(Matrix::row_vector(&[3.0, 4.0]));
        let c = t.add(a, b);
        assert_eq!(t.value(c).as_slice(), &[4.0, 6.0]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn simple_chain_gradient() {
        // loss = mean(2 * (a + a)) = 4 * mean(a); d/da = 4/len
        let mut t = Tape::new();
        let a = t.constant(Matrix::row_vector(&[1.0, 2.0]));
        let s = t.add(a, a);
        let s2 = t.scale(s, 2.0);
        let loss = t.mean_all(s2);
        let g = t.grad_of(loss, a).expect("gradient should flow to a");
        assert_eq!(g.as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn matmul_gradients_have_right_shapes() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::from_fn(2, 3, |r, c| (r + c) as f32));
        let b = t.constant(Matrix::from_fn(3, 4, |r, c| (r * c) as f32 * 0.1));
        let p = t.matmul(a, b);
        let loss = t.sum_all(p);
        let grads = t.backward(loss);
        assert_eq!(grads[0].as_ref().map(Matrix::shape), Some((2, 3)));
        assert_eq!(grads[1].as_ref().map(Matrix::shape), Some((3, 4)));
    }

    #[test]
    fn bpr_loss_decreases_with_margin() {
        let mut t = Tape::new();
        let pos = t.constant(Matrix::col_vector(&[5.0]));
        let neg = t.constant(Matrix::col_vector(&[0.0]));
        let l_good = t.bpr_loss(pos, neg);
        let pos2 = t.constant(Matrix::col_vector(&[0.0]));
        let neg2 = t.constant(Matrix::col_vector(&[5.0]));
        let l_bad = t.bpr_loss(pos2, neg2);
        assert!(t.value(l_good)[(0, 0)] < t.value(l_bad)[(0, 0)]);
    }

    #[test]
    fn segment_softmax_per_segment_sums_to_one() {
        let mut t = Tape::new();
        let logits = t.constant(Matrix::col_vector(&[1.0, 2.0, 3.0, -1.0, 0.5]));
        let seg = Rc::new(vec![0usize, 2, 2, 5]); // segments of size 2, 0, 3
        let s = t.segment_softmax(logits, seg);
        let v = t.value(s);
        assert!((v[(0, 0)] + v[(1, 0)] - 1.0).abs() < 1e-5);
        assert!((v[(2, 0)] + v[(3, 0)] + v[(4, 0)] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn segment_weighted_sum_aggregates() {
        let mut t = Tape::new();
        let w = t.constant(Matrix::col_vector(&[0.5, 0.5, 2.0]));
        let v = t.constant(Matrix::from_vec(3, 2, vec![2.0, 0.0, 4.0, 2.0, 1.0, 1.0]));
        let seg = Rc::new(vec![0usize, 2, 3]);
        let out = t.segment_weighted_sum(w, v, seg);
        assert_eq!(t.value(out).row(0), &[3.0, 1.0]);
        assert_eq!(t.value(out).row(1), &[2.0, 2.0]);
    }

    #[test]
    fn param_grads_accumulate_into_set() {
        let mut params = ParamSet::new();
        let p = params.add("p", Matrix::row_vector(&[1.0, -1.0]));
        let mut t = Tape::new();
        let v = t.param(&params, p);
        let sq = t.mul(v, v);
        let loss = t.sum_all(sq);
        params.zero_grads();
        let l = t.backward_into(loss, &mut params);
        assert!((l - 2.0).abs() < 1e-6);
        // d/dv Σ v² = 2v
        assert_eq!(params.grad(p).as_slice(), &[2.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "loss must be a 1×1 scalar")]
    fn backward_rejects_non_scalar() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::row_vector(&[1.0, 2.0]));
        t.backward(a);
    }

    #[test]
    fn observed_tape_profiles_ops_under_meta_names() {
        dgnn_obs::reset();
        dgnn_obs::enable();
        let mut params = ParamSet::new();
        let p = params.add("w", Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.1));
        let mut t = Tape::new();
        let v = t.param(&params, p);
        let vt = t.transpose(v);
        let prod = t.matmul(v, vt);
        let loss = t.sum_all(prod);
        params.zero_grads();
        let _ = t.backward_into(loss, &mut params);
        dgnn_obs::disable();
        let snap = dgnn_obs::snapshot();
        dgnn_obs::reset();
        for kind in snap.ops.keys() {
            assert!(
                crate::meta::ALL_OPS.contains(&kind.as_str()),
                "op kind {kind} is not a meta::ALL_OPS name"
            );
        }
        let mm = &snap.ops["matmul"];
        assert_eq!((mm.forward.calls, mm.backward.calls), (1, 1));
        assert_eq!(snap.ops["param"].forward.calls, 1);
        assert!(snap.ops["sum_all"].backward.calls == 1);
    }

    #[test]
    fn unobserved_tape_records_no_profile() {
        dgnn_obs::reset();
        let mut t = Tape::new(); // built while disabled → never observed
        dgnn_obs::enable();
        let a = t.constant(Matrix::row_vector(&[1.0, 2.0]));
        let s = t.add(a, a);
        let loss = t.mean_all(s);
        let _ = t.backward(loss);
        dgnn_obs::disable();
        let snap = dgnn_obs::snapshot();
        dgnn_obs::reset();
        assert!(snap.ops.is_empty(), "tape built while disabled must not profile");
    }

    #[test]
    fn tanh_of_a_repeating_gather_is_tanh_of_the_materialised_gather() {
        // Rows 0 and 2 are read twice and three times, row 1 never: the
        // gather is longer than its table, so tanh runs on the table's rows.
        let table = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.37 - 2.1);
        let idx = Rc::new(vec![2usize, 0, 2, 0, 2]);
        let w = Matrix::from_fn(5, 4, |r, c| ((r * 3 + c) % 5) as f32 * 0.3 - 0.7);
        let run = |materialise: bool| {
            let mut params = ParamSet::new();
            let p = params.add("table", table.clone());
            let mut t = Tape::new();
            let x = t.param(&params, p);
            let g = t.gather(x, Rc::clone(&idx));
            // Scaling by one copies the rows bit for bit into a node that
            // is not a gather.
            let g = if materialise { t.scale(g, 1.0) } else { g };
            let y = t.tanh(g);
            let wv = t.constant(w.clone());
            let prod = t.mul(y, wv);
            let loss = t.sum_all(prod);
            params.zero_grads();
            let _ = t.backward_into(loss, &mut params);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            (bits(t.value(y)), bits(params.grad(p)))
        };
        let (on_table, materialised) = (run(false), run(true));
        assert_eq!(on_table.0, materialised.0, "forward bits differ");
        assert_eq!(on_table.1, materialised.1, "table gradient bits differ");
        assert!(on_table.1[4..8].iter().all(|&b| b == 0), "the unread row gets no gradient");
    }

    #[test]
    fn backward_into_skips_constant_gradients_without_moving_parameter_bits() {
        // Constants feed `mul_col` (a fixed column, as DGCF's 1/deg),
        // `add` (fixed logits) and `segment_weighted_sum` (fixed weights
        // over a parameter's rows, and parameter weights over fixed rows).
        let seg = Rc::new(vec![0usize, 2, 2, 5]);
        let mut params = ParamSet::new();
        let p =
            params.add("p", Matrix::from_fn(5, 4, |r, c| ((r * 4 + c) % 7) as f32 * 0.31 - 0.9));
        let q =
            params.add("q", Matrix::from_fn(5, 2, |r, c| ((r + 3 * c) % 5) as f32 * 0.27 - 0.5));
        let mut t = Tape::new();
        let (pv, qv) = (t.param(&params, p), t.param(&params, q));
        let deg = t.constant(Matrix::from_fn(5, 1, |r, _| 1.0 / (r + 1) as f32));
        let zero_logits = t.constant(Matrix::zeros(5, 2));
        let fixed_w = t.constant(Matrix::from_fn(5, 2, |r, c| ((r + c) % 3) as f32 * 0.5 - 0.25));
        let fixed_v = t.constant(Matrix::from_fn(5, 4, |r, c| (r as f32 - c as f32) * 0.125));
        let scaled = t.mul_col(pv, deg);
        let logits = t.add(qv, zero_logits);
        let alpha = t.segment_softmax(logits, Rc::clone(&seg));
        let over_p = t.segment_weighted_sum(fixed_w, scaled, Rc::clone(&seg));
        let over_fixed = t.segment_weighted_sum(alpha, fixed_v, Rc::clone(&seg));
        let both = t.add(over_p, over_fixed);
        let sq = t.mul(both, both);
        let loss = t.sum_all(sq);
        let all = t.backward(loss);
        assert!(
            all[deg.0].is_some() && all[fixed_w.0].is_some(),
            "backward() still computes constants' gradients"
        );
        params.zero_grads();
        let _ = t.backward_into(loss, &mut params);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (id, v) in [(p, pv), (q, qv)] {
            let want = all[v.0].as_ref().expect("every parameter gets a gradient");
            assert_eq!(bits(params.grad(id)), bits(want), "parameter gradient bits moved");
        }
    }

    #[test]
    fn grad_is_none_where_no_flow() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::full(1, 1, 1.0));
        let b = t.constant(Matrix::full(1, 1, 2.0)); // unused
        let loss = t.sum_all(a);
        assert!(t.grad_of(loss, b).is_none());
    }
}
