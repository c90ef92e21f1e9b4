//! The autodiff tape: forward-op recording and the reverse pass.
//!
//! Allocation discipline: this file is the workspace's hottest allocation
//! site, so the source lint forbids `.clone()` here unless the line carries
//! a `// PLAN:` comment explaining why the copy is necessary and how the
//! memory planner accounts for it.
//!
//! With [`Tape::with_rewrites`] the tape becomes an *optimizing executor*:
//! each recorded op consults a static [`RewritePlan`] action before
//! computing its forward value — serving CSE copies, fold-cache hits, and
//! fused kernels instead of plain recomputation. Every action is verified
//! at runtime (operand congruence, buffer availability) and falls back to
//! plain evaluation on any mismatch, so a stale plan can cost speed but
//! never correctness.

use std::cell::RefCell;
use std::rc::Rc;

use dgnn_tensor::{stable_sigmoid, Csr, Matrix};

use crate::params::{ParamId, ParamSet};
use crate::plan::TapePlan;
use crate::recorder::{Recorder, Var};
use crate::rewrite::{RewriteAction, RewritePlan};

/// One recorded operation. Kept private: the public API is the builder
/// surface of [`Recorder`] as implemented by [`Tape`]. `Clone` exists for
/// the fold cache, which stores an op snapshot per slot — the clone keeps
/// any `Rc` payloads alive across steps, so pointer-equality congruence
/// cannot be fooled by an address reuse.
#[derive(Debug, Clone)]
enum Op {
    /// Constant or parameter leaf; `param` links back to the [`ParamSet`].
    Leaf { param: Option<ParamId> },
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
    SliceCols { a: Var, start: usize, end: usize },
    /// Embedding lookup: output row `i` is `a.row(idx[i])`.
    Gather { a: Var, idx: Rc<Vec<usize>> },
    /// Sparse propagation `a · b`; `at` is `aᵀ` for the backward pass.
    Spmm { a: Rc<Csr>, at: Rc<Csr>, b: Var },
    /// Row-wise LayerNorm without affine terms (compose with
    /// [`Recorder::mul_row`]/[`Recorder::add_row`] for ω₁/ω₂ of the
    /// paper's Eq. 7).
    LayerNormRow { a: Var, eps: f32 },
    /// Row-wise L2 normalization (DGCF intent routing).
    RowL2Norm { a: Var, eps: f32 },
    /// `n × 1` of per-row dot products of two equally-shaped matrices.
    RowDots(Var, Var),
    SoftmaxRows(Var),
    /// Per-segment softmax over a column vector of edge logits, segments
    /// given by a CSR-style `seg` pointer (edges grouped by target node).
    SegmentSoftmax { logits: Var, seg: Rc<Vec<usize>> },
    /// `out[n] = Σ_{e ∈ seg(n)} w[e] · v.row(e)` — attention aggregation.
    SegmentWeightedSum { w: Var, v: Var, seg: Rc<Vec<usize>> },
    /// `out[n, :] = Σ_m eta[n, m] · t[n, m·b..(m+1)·b]` — the memory-bank
    /// reduce of the paper's Eq. 3 over the `M` column blocks of `t`.
    WeightedBlockSum { t: Var, eta: Var },
    /// Elementwise product with a fixed (non-differentiated) mask.
    Dropout { a: Var, mask: Matrix },
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
            Op::Spmm { .. } => "spmm",
            Op::LayerNormRow { .. } => "layer_norm_rows",
            Op::RowL2Norm { .. } => "l2_normalize_rows",
            Op::RowDots(..) => "row_dots",
            Op::SoftmaxRows(..) => "softmax_rows",
            Op::SegmentSoftmax { .. } => "segment_softmax",
            Op::SegmentWeightedSum { .. } => "segment_weighted_sum",
            Op::WeightedBlockSum { .. } => "weighted_block_sum",
            Op::Dropout { .. } => "dropout",
        }
    }
}

/// Calls `f` on each graph input of `op` (leaves have none; the dropout
/// mask and index/segment payloads are not graph inputs).
fn for_each_input(op: &Op, f: &mut dyn FnMut(Var)) {
    use Op::*;
    match op {
        Leaf { .. } => {}
        Add(a, b) | Sub(a, b) | Mul(a, b) | Div(a, b) | MatMul(a, b) | AddRow(a, b)
        | MulRow(a, b) | MulCol(a, b) | RowDots(a, b) => {
            f(*a);
            f(*b);
        }
        Neg(a) | Scale(a, _) | AddScalar(a, _) | Transpose(a) | Sigmoid(a) | Tanh(a)
        | LeakyRelu(a, _) | Relu(a) | Exp(a) | Softplus(a) | Ln(a) | Sqrt(a) | SumAll(a)
        | MeanAll(a) | RowSum(a) | ColMean(a) | SoftmaxRows(a) => f(*a),
        ConcatCols(parts) => parts.iter().for_each(|&p| f(p)),
        SliceCols { a, .. }
        | Gather { a, .. }
        | LayerNormRow { a, .. }
        | RowL2Norm { a, .. }
        | Dropout { a, .. } => f(*a),
        Spmm { b, .. } => f(*b),
        SegmentSoftmax { logits, .. } => f(*logits),
        SegmentWeightedSum { w, v, .. } => {
            f(*w);
            f(*v);
        }
        WeightedBlockSum { t, eta } => {
            f(*t);
            f(*eta);
        }
    }
}

struct Node {
    op: Op,
    value: Matrix,
    /// Forward shape, kept after `value` is freed: several backward rules
    /// (`sum_all`, `gather`, `slice_cols`, …) need only the shape, and
    /// routing them here lets the planner free those values early.
    shape: (usize, usize),
    /// True once a memory plan retired this node's value; any later value
    /// read is a planner bug and panics loudly (the runtime backstop behind
    /// the static safety proof).
    freed: bool,
    /// True when an in-place rewrite moved this node's buffer into a later
    /// node (or the value was elided entirely, for fused gathers). The
    /// shape stays readable; a value read panics like a freed read.
    stolen: bool,
}

/// Runtime rewrite counters: how many of each static [`RewriteAction`]
/// actually fired during one tape's life, and how many fell back to plain
/// evaluation because their runtime verification failed. Tests and the
/// bench harness read these to prove the optimizer is not vacuous.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RewriteCounters {
    /// CSE copies served after runtime congruence verification.
    pub cse_copies: u64,
    /// Fold-cache hits: values served (or constants validated) without
    /// recomputing the invariant subgraph.
    pub fold_hits: u64,
    /// Fold-cache refreshes: invariant values recomputed and re-cached
    /// (once per fit in steady training).
    pub fold_refreshes: u64,
    /// In-place buffer steals applied.
    pub steals: u64,
    /// Single-pass streamed broadcast kernels executed.
    pub streams: u64,
    /// gather→matmul fusions executed.
    pub gather_fusions: u64,
    /// Actions whose runtime verification failed and ran as plain computes
    /// (sound either way; nonzero means the plan was stale).
    pub fallbacks: u64,
}

/// Cross-step cache for constant-folded subgraphs.
///
/// One slot per folded node (constants at the region's frontier included).
/// An entry holds the node's op snapshot and its last computed value; a
/// per-step `valid` bit records whether the slot was verified equal to the
/// current computation *this* step. Interior nodes hit only when their op
/// is congruent with the snapshot **and** every input slot already
/// validated this step; constants validate by bit-comparing their data.
/// Any refresh leaves the slot invalid for the remainder of the step, so a
/// changed input forces the whole downstream region to recompute — stale
/// values can never be served.
#[derive(Debug)]
pub struct FoldCache {
    entries: Vec<Option<FoldEntry>>,
    valid: Vec<bool>,
}

#[derive(Debug)]
struct FoldEntry {
    /// `None` for constant leaves (validated by bit-comparing `value`);
    /// `Some` for interior ops (validated by congruence + input validity).
    op: Option<Op>,
    value: Matrix,
}

impl FoldCache {
    /// An empty cache with `slots` slots (all cold and invalid).
    pub fn new(slots: usize) -> Self {
        Self { entries: (0..slots).map(|_| None).collect(), valid: vec![false; slots] }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.entries.len()
    }

    /// Invalidates every slot for a new step (entries persist; validity is
    /// re-established by this step's verifications).
    pub fn begin_step(&mut self) {
        self.valid.fill(false);
    }

    fn is_valid(&self, s: usize) -> bool {
        self.valid.get(s).copied().unwrap_or(false)
    }

    fn set_valid(&mut self, s: usize) {
        self.valid[s] = true;
    }

    fn refresh(&mut self, s: usize, op: Option<Op>, value: Matrix) {
        self.entries[s] = Some(FoldEntry { op, value });
        // Deliberately NOT valid: downstream slots cached against the old
        // value must recompute this step before they may hit again.
        self.valid[s] = false;
    }
}

/// Rewrite-execution state armed by [`Tape::with_rewrites`].
struct RewriteState {
    plan: Rc<RewritePlan>,
    fold: Rc<RefCell<FoldCache>>,
    /// Runtime value numbering: `canon[i]` is the earliest node whose value
    /// node `i` is a *verified* bit-copy of (itself when no copy fired).
    /// Congruence compares canon indices, so chains of CSE copies resolve —
    /// and because the table reflects copies that actually happened, it
    /// stays sound even when the static plan was wrong.
    canon: Vec<u32>,
    /// Canon source recorded by a successful copy, consumed by the next push.
    pending_canon: Option<u32>,
    counters: RewriteCounters,
}

/// Records one forward pass and computes gradients on demand.
///
/// A tape is cheap to construct; build a fresh one per training step. The
/// graph-building surface lives on the [`Recorder`] trait so that models
/// written against `R: Recorder` can also be abstractly interpreted (shape
/// checking, dead-subgraph audits) without executing any tensor math.
///
/// With [`Tape::with_plan`] the tape becomes a *planned executor*: forward
/// values are retired into the thread's [`dgnn_tensor::BufferPool`] at
/// their statically computed death points — during recording (values whose
/// last consumer is a forward op) and during [`Tape::backward_into`]
/// (values last read by a gradient rule). Planned and unplanned execution
/// are bit-identical; the plan only changes *when storage is reused*.
///
/// With [`Tape::with_rewrites`] the tape additionally executes a
/// checker-proven [`RewritePlan`] (see `dgnn_analysis::optimize`):
/// training-invariant subgraphs are served from a cross-step [`FoldCache`],
/// congruent recomputations become buffer copies, and hot op sequences run
/// as fused kernels. Optimized execution is bit-identical to unoptimized
/// execution — every rewrite preserves the exact f32 operation order.
pub struct Tape {
    nodes: Vec<Node>,
    finite_checks: bool,
    plan: Option<Rc<TapePlan>>,
    rewrites: Option<RewriteState>,
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
        Self { nodes: Vec::new(), finite_checks: false, plan: None, rewrites: None, obs_mark }
    }

    /// Arms a memory plan: as recording and backward proceed, node values
    /// are freed at the plan's death points (see [`TapePlan`]). The plan
    /// must have been computed for exactly the graph about to be recorded;
    /// the tape asserts the node counts match and panics on any read of a
    /// freed value.
    pub fn with_plan(mut self, plan: Rc<TapePlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Arms a rewrite plan: each subsequently recorded op executes its
    /// statically assigned [`RewriteAction`] (runtime-verified, with plain
    /// evaluation as the fallback). `fold` carries constant-folded values
    /// across steps; size it with [`RewritePlan::num_fold_slots`] and call
    /// [`FoldCache::begin_step`] before each step.
    ///
    /// # Panics
    /// Panics if recording already started or the fold cache is sized for a
    /// different plan.
    pub fn with_rewrites(mut self, plan: Rc<RewritePlan>, fold: Rc<RefCell<FoldCache>>) -> Self {
        assert!(self.nodes.is_empty(), "with_rewrites must be called before recording");
        assert_eq!(
            fold.borrow().slots(),
            plan.num_fold_slots() as usize,
            "fold cache sized for a different rewrite plan"
        );
        self.rewrites = Some(RewriteState {
            plan,
            fold,
            canon: Vec::new(),
            pending_canon: None,
            counters: RewriteCounters::default(),
        });
        self
    }

    /// True when a memory plan is armed.
    pub fn is_planned(&self) -> bool {
        self.plan.is_some()
    }

    /// True when a rewrite plan is armed.
    pub fn is_rewritten(&self) -> bool {
        self.rewrites.is_some()
    }

    /// Runtime rewrite counters (None when no rewrite plan is armed).
    pub fn rewrite_counters(&self) -> Option<RewriteCounters> {
        self.rewrites.as_ref().map(|rw| rw.counters)
    }

    /// Enables (or disables) the runtime finite-value guard: with checks
    /// on, every recorded op asserts — in release builds too — that its
    /// forward value contains no NaN/∞, panicking at the first op that
    /// produces one instead of minutes later in a corrupted optimizer
    /// state. Defaults to off; debug builds always check.
    pub fn with_finite_checks(mut self, on: bool) -> Self {
        self.finite_checks = on;
        self
    }

    /// True when the runtime finite-value guard is enabled.
    pub fn finite_checks(&self) -> bool {
        self.finite_checks
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
    ///
    /// # Panics
    /// Panics if an armed memory plan already freed the value — that read
    /// would observe recycled storage, so the plan is unsound for this
    /// graph and execution must stop. Likewise panics if an in-place
    /// rewrite stole the buffer: the rewrite checker proved no such read
    /// exists, so reaching this assert means the proof was run against a
    /// different graph.
    pub fn value(&self, v: Var) -> &Matrix {
        let node = &self.nodes[v.0];
        assert!(
            !node.freed,
            "value of node {} read after its planned free point — the memory plan is unsound",
            v.0
        );
        assert!(
            !node.stolen,
            "value of node {} read after an in-place rewrite stole its buffer — the rewrite \
             plan is unsound",
            v.0
        );
        &node.value
    }

    /// Forward shape of a variable (available even after a planned free).
    fn shape_of(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].shape
    }

    /// True when `v`'s forward value is still materialized and readable.
    fn readable(&self, v: Var) -> bool {
        let n = &self.nodes[v.0];
        !n.freed && !n.stolen
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        let shape = value.shape();
        self.push_node(op, value, shape, false)
    }

    fn push_node(&mut self, op: Op, value: Matrix, shape: (usize, usize), stolen: bool) -> Var {
        if let Some(mark) = self.obs_mark {
            let now = dgnn_obs::now_ns();
            dgnn_obs::record_op(op.kind(), dgnn_obs::OpPhase::Forward, now.saturating_sub(mark));
            self.obs_mark = Some(now);
        }
        if self.finite_checks {
            assert!(value.all_finite(), "non-finite value produced by {op:?}");
        } else {
            debug_assert!(value.all_finite(), "non-finite value produced by {op:?}");
        }
        self.nodes.push(Node { op, value, shape, freed: false, stolen });
        let i = self.nodes.len() - 1;
        if let Some(rw) = &mut self.rewrites {
            let canon = rw.pending_canon.take().unwrap_or(i as u32);
            rw.canon.push(canon);
        }
        if let Some(plan) = &self.plan {
            let plan = Rc::clone(plan);
            assert!(
                i < plan.len(),
                "tape recorded more nodes ({}) than the memory plan covers ({}) — \
                 the plan was computed for a different graph",
                i + 1,
                plan.len()
            );
            for &d in &plan.forward_free[i] {
                self.free_node(d as usize);
            }
        }
        Var(i)
    }

    /// Retires one node's forward value into the thread's buffer pool.
    /// Stolen nodes retire as a no-op: their buffer already lives on in the
    /// stealing node, so only the freed flag flips.
    fn free_node(&mut self, i: usize) {
        let node = &mut self.nodes[i];
        debug_assert!(!node.freed, "node {i} freed twice — the plan checker should reject this");
        node.freed = true;
        // The replaced value drops here; `Matrix::drop` retires its storage
        // into the installed pool for reuse by a later node. (For stolen
        // nodes the value is already an empty placeholder.)
        let _ = std::mem::replace(&mut node.value, Matrix::zeros(0, 0));
    }

    // ---- rewrite execution -------------------------------------------------

    /// Canonical value-source of a node under the runtime copy table.
    fn canon_of(&self, v: Var) -> u32 {
        match &self.rewrites {
            Some(rw) => rw.canon.get(v.0).copied().unwrap_or(v.0 as u32),
            None => v.0 as u32,
        }
    }

    fn vars_congruent(&self, a: Var, b: Var) -> bool {
        a == b || self.canon_of(a) == self.canon_of(b)
    }

    /// True when `a` and `b` provably compute bit-identical values: same op
    /// kind, bit-equal scalar attributes, pointer-equal index/sparse
    /// payloads, and value-congruent inputs. Constants (opaque data) and
    /// dropout (fresh mask per step) are never congruent — a false negative
    /// only costs a recomputation.
    fn congruent(&self, a: &Op, b: &Op) -> bool {
        use Op::*;
        let veq = |x: Var, y: Var| self.vars_congruent(x, y);
        match (a, b) {
            (Leaf { param: Some(p) }, Leaf { param: Some(q) }) => p == q,
            (Add(a1, b1), Add(a2, b2))
            | (Sub(a1, b1), Sub(a2, b2))
            | (Mul(a1, b1), Mul(a2, b2))
            | (Div(a1, b1), Div(a2, b2))
            | (MatMul(a1, b1), MatMul(a2, b2))
            | (AddRow(a1, b1), AddRow(a2, b2))
            | (MulRow(a1, b1), MulRow(a2, b2))
            | (MulCol(a1, b1), MulCol(a2, b2))
            | (RowDots(a1, b1), RowDots(a2, b2)) => veq(*a1, *a2) && veq(*b1, *b2),
            (Neg(a1), Neg(a2))
            | (Transpose(a1), Transpose(a2))
            | (Sigmoid(a1), Sigmoid(a2))
            | (Tanh(a1), Tanh(a2))
            | (Relu(a1), Relu(a2))
            | (Exp(a1), Exp(a2))
            | (Softplus(a1), Softplus(a2))
            | (Ln(a1), Ln(a2))
            | (Sqrt(a1), Sqrt(a2))
            | (SumAll(a1), SumAll(a2))
            | (MeanAll(a1), MeanAll(a2))
            | (RowSum(a1), RowSum(a2))
            | (ColMean(a1), ColMean(a2))
            | (SoftmaxRows(a1), SoftmaxRows(a2)) => veq(*a1, *a2),
            (Scale(a1, k1), Scale(a2, k2))
            | (AddScalar(a1, k1), AddScalar(a2, k2))
            | (LeakyRelu(a1, k1), LeakyRelu(a2, k2)) => {
                veq(*a1, *a2) && k1.to_bits() == k2.to_bits()
            }
            (LayerNormRow { a: a1, eps: e1 }, LayerNormRow { a: a2, eps: e2 })
            | (RowL2Norm { a: a1, eps: e1 }, RowL2Norm { a: a2, eps: e2 }) => {
                veq(*a1, *a2) && e1.to_bits() == e2.to_bits()
            }
            (
                SliceCols { a: a1, start: s1, end: e1 },
                SliceCols { a: a2, start: s2, end: e2 },
            ) => veq(*a1, *a2) && s1 == s2 && e1 == e2,
            (ConcatCols(p1), ConcatCols(p2)) => {
                p1.len() == p2.len() && p1.iter().zip(p2).all(|(&x, &y)| veq(x, y))
            }
            (Gather { a: a1, idx: i1 }, Gather { a: a2, idx: i2 }) => {
                veq(*a1, *a2) && Rc::ptr_eq(i1, i2)
            }
            (Spmm { a: m1, b: b1, .. }, Spmm { a: m2, b: b2, .. }) => {
                Rc::ptr_eq(m1, m2) && veq(*b1, *b2)
            }
            (SegmentSoftmax { logits: l1, seg: s1 }, SegmentSoftmax { logits: l2, seg: s2 }) => {
                veq(*l1, *l2) && Rc::ptr_eq(s1, s2)
            }
            (
                SegmentWeightedSum { w: w1, v: v1, seg: s1 },
                SegmentWeightedSum { w: w2, v: v2, seg: s2 },
            ) => veq(*w1, *w2) && veq(*v1, *v2) && Rc::ptr_eq(s1, s2),
            (WeightedBlockSum { t: t1, eta: e1 }, WeightedBlockSum { t: t2, eta: e2 }) => {
                veq(*t1, *t2) && veq(*e1, *e2)
            }
            _ => false,
        }
    }

    fn counters_mut(&mut self) -> &mut RewriteCounters {
        &mut self.rewrites.as_mut().expect("rewrite counters read without rewrites armed").counters
    }

    /// Records `op`, producing its value per the armed rewrite action (or
    /// plain evaluation when none). The single entry point for every
    /// non-leaf `Recorder` method.
    fn apply(&mut self, op: Op) -> Var {
        let action = match &self.rewrites {
            Some(rw) => rw.plan.action(self.nodes.len()),
            None => RewriteAction::Compute,
        };
        match action {
            RewriteAction::Compute => {
                let v = self.eval(&op);
                self.push(op, v)
            }
            RewriteAction::CopyOf(j) => {
                let v = self.copy_value(j as usize, &op);
                self.push(op, v)
            }
            RewriteAction::Fold(slot) => {
                let v = self.fold_value(slot as usize, &op);
                self.push(op, v)
            }
            RewriteAction::Steal => {
                let v = match self.try_steal(&op) {
                    Some(v) => {
                        self.counters_mut().steals += 1;
                        v
                    }
                    None => {
                        self.counters_mut().fallbacks += 1;
                        self.eval(&op)
                    }
                };
                self.push(op, v)
            }
            RewriteAction::Stream => {
                let v = self.stream_value(&op);
                self.push(op, v)
            }
            RewriteAction::ElideGather => match &op {
                Op::Gather { a, idx } => {
                    let shape = (idx.len(), self.shape_of(*a).1);
                    self.push_node(op, Matrix::zeros(0, 0), shape, true)
                }
                _ => {
                    self.counters_mut().fallbacks += 1;
                    let v = self.eval(&op);
                    self.push(op, v)
                }
            },
            RewriteAction::GatherMatMul => {
                let v = self.gather_matmul_value(&op);
                self.push(op, v)
            }
        }
    }

    /// CSE execution: a pooled copy of node `j`'s value, after verifying at
    /// runtime that `j` really is congruent and still materialized.
    fn copy_value(&mut self, j: usize, op: &Op) -> Matrix {
        let ok = {
            let src = &self.nodes[j];
            !src.freed && !src.stolen && self.congruent(op, &src.op)
        };
        if ok {
            // PLAN: CSE serves a pooled copy of the verified-congruent
            // source value; the rewrite-aware planner keeps the source
            // alive up to this read.
            let v = self.nodes[j].value.clone();
            let rw = self.rewrites.as_mut().expect("copy action without rewrites armed");
            rw.pending_canon = Some(rw.canon[j]);
            rw.counters.cse_copies += 1;
            v
        } else {
            self.counters_mut().fallbacks += 1;
            self.eval(op)
        }
    }

    /// Constant-fold execution: serve the cached value when the cache entry
    /// is congruent and all input slots validated this step; otherwise
    /// recompute and refresh the slot.
    fn fold_value(&mut self, slot: usize, op: &Op) -> Matrix {
        let (fold, plan) = {
            let rw = self.rewrites.as_ref().expect("fold action without rewrites armed");
            (Rc::clone(&rw.fold), Rc::clone(&rw.plan))
        };
        let hit = {
            let cache = fold.borrow();
            match cache.entries.get(slot).and_then(Option::as_ref) {
                Some(e)
                    if e.op.as_ref().is_some_and(|c| self.congruent(op, c))
                        && fold_inputs_valid(op, &plan, &cache) =>
                {
                    // PLAN: a fold hit serves a pooled copy of the cached
                    // value, replacing recomputation of the whole
                    // training-invariant region behind it.
                    Some(e.value.clone())
                }
                _ => None,
            }
        };
        match hit {
            Some(v) => {
                fold.borrow_mut().set_valid(slot);
                self.counters_mut().fold_hits += 1;
                v
            }
            None => {
                let v = self.eval(op);
                // PLAN: a fold refresh caches one pooled copy per
                // invalidation — in steady training, once per fit.
                fold.borrow_mut().refresh(slot, Some(op.clone()), v.clone());
                self.counters_mut().fold_refreshes += 1;
                v
            }
        }
    }

    /// Takes a node's buffer for in-place reuse, marking it stolen. Returns
    /// `None` when the buffer is no longer materialized.
    fn take_value(&mut self, v: Var) -> Option<Matrix> {
        let node = &mut self.nodes[v.0];
        if node.freed || node.stolen {
            return None;
        }
        node.stolen = true;
        Some(std::mem::replace(&mut node.value, Matrix::zeros(0, 0)))
    }

    /// In-place fusion: steal `inputs[0]`'s buffer and apply the op's
    /// epilogue directly in it. Each arm is bit-identical to its
    /// out-of-place form (one f32 operation per element either way; unit
    /// tests in `dgnn-tensor` enforce this). Aliased inputs and
    /// already-retired sources refuse and fall back.
    fn try_steal(&mut self, op: &Op) -> Option<Matrix> {
        match *op {
            Op::Add(a, b) if a != b => {
                if !self.readable(b) {
                    return None;
                }
                let mut v = self.take_value(a)?;
                v.add_assign(self.value(b));
                Some(v)
            }
            Op::Sub(a, b) if a != b => {
                if !self.readable(b) {
                    return None;
                }
                let mut v = self.take_value(a)?;
                v.sub_assign(self.value(b));
                Some(v)
            }
            Op::AddRow(a, row) if a != row => {
                if !self.readable(row) {
                    return None;
                }
                let mut v = self.take_value(a)?;
                v.add_row_assign(self.value(row));
                Some(v)
            }
            Op::Scale(a, k) => {
                let mut v = self.take_value(a)?;
                v.scale_assign(k);
                Some(v)
            }
            Op::Neg(a) => {
                let mut v = self.take_value(a)?;
                v.scale_assign(-1.0);
                Some(v)
            }
            Op::AddScalar(a, k) => {
                let mut v = self.take_value(a)?;
                v.add_scalar_assign(k);
                Some(v)
            }
            _ => None,
        }
    }

    /// Streaming fusion: single-pass broadcast kernels (bit-identical to
    /// the historical clone-then-update two-pass forms).
    fn stream_value(&mut self, op: &Op) -> Matrix {
        let v = match op {
            Op::AddRow(a, row) => Some(self.value(*a).add_row_fused(self.value(*row))),
            Op::MulRow(a, row) => Some(self.value(*a).mul_row_fused(self.value(*row))),
            Op::MulCol(a, col) => Some(self.value(*a).mul_col_fused(self.value(*col))),
            _ => None,
        };
        match v {
            Some(v) => {
                self.counters_mut().streams += 1;
                v
            }
            None => {
                self.counters_mut().fallbacks += 1;
                self.eval(op)
            }
        }
    }

    /// gather→matmul fusion: multiply straight out of the gathered table's
    /// rows, never materializing the gather.
    fn gather_matmul_value(&mut self, op: &Op) -> Matrix {
        if let Op::MatMul(a, b) = *op {
            if let Op::Gather { a: table, idx } = &self.nodes[a.0].op {
                let table = *table;
                let idx = Rc::clone(idx);
                let t = &self.nodes[table.0];
                assert!(
                    !t.freed && !t.stolen,
                    "gather→matmul fusion read a retired table — the rewrite plan is unsound"
                );
                let v = t.value.gather_matmul(&idx, self.value(b));
                self.counters_mut().gather_fusions += 1;
                return v;
            }
        }
        // The first input is not a gather: the pairing the checker proved
        // does not hold on this graph. Plain evaluation stays sound as long
        // as the gather itself was not elided (and if it was, the stolen
        // assert in `value` stops execution loudly).
        self.counters_mut().fallbacks += 1;
        self.eval(op)
    }

    /// Evaluates one op's forward value from its inputs. The single source
    /// of truth for forward semantics: plain recording, every rewrite
    /// fallback, and fold refreshes all come through here.
    #[allow(clippy::too_many_lines)]
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
            Spmm { a, b, .. } => a.spmm(self.value(*b)),
            Sigmoid(a) => self.value(*a).map_weighted(32, stable_sigmoid),
            // Audited branchless: `f32::tanh` is a polynomial/rational
            // kernel with no data-dependent branching.
            Tanh(a) => self.value(*a).map_weighted(32, f32::tanh),
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
            RowL2Norm { a, eps } => self.value(*a).l2_normalize_rows(*eps),
            RowDots(a, b) => self.value(*a).row_dots(self.value(*b)),
            SoftmaxRows(a) => self.value(*a).softmax_rows(),
            SegmentSoftmax { logits, seg } => {
                let x = self.value(*logits);
                assert_eq!(x.cols(), 1, "segment_softmax: logits must be E × 1");
                assert_eq!(
                    *seg.last().expect("segment pointer must be non-empty"),
                    x.rows(),
                    "segment_softmax: pointer does not cover all edges"
                );
                // PLAN: per-segment softmax normalizes a copy in place; the
                // copy is the node value and is pooled/freed like any other.
                let mut v = x.clone();
                for n in 0..seg.len() - 1 {
                    let (lo, hi) = (seg[n], seg[n + 1]);
                    softmax_slice(&mut v.as_mut_slice()[lo..hi]);
                }
                v
            }
            SegmentWeightedSum { w, v, seg } => {
                let wv = self.value(*w);
                let vv = self.value(*v);
                assert_eq!(wv.cols(), 1, "segment_weighted_sum: weights must be E × 1");
                assert_eq!(wv.rows(), vv.rows(), "segment_weighted_sum: weight/value mismatch");
                assert_eq!(
                    *seg.last().expect("segment pointer must be non-empty"),
                    vv.rows(),
                    "segment_weighted_sum: pointer does not cover all edges"
                );
                let n = seg.len() - 1;
                let d = vv.cols();
                let mut out = Matrix::zeros(n, d);
                for i in 0..n {
                    for e in seg[i]..seg[i + 1] {
                        let we = wv[(e, 0)];
                        for (o, &x) in out.row_mut(i).iter_mut().zip(vv.row(e)) {
                            *o += we * x;
                        }
                    }
                }
                out
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
    /// With a plan armed ([`Tape::with_plan`]) the sweep additionally
    /// retires forward values at their statically computed backward death
    /// points and recycles consumed gradient matrices. The arithmetic —
    /// including the ascending-order leaf-gradient accumulation, which
    /// matters because parameters appear as multiple leaves and `f32`
    /// addition is order-sensitive — is identical either way.
    pub fn backward_into(&mut self, loss: Var, params: &mut ParamSet) -> f32 {
        // PLAN: Rc handle clone, not a matrix copy — no buffer involved.
        if let Some(plan) = self.plan.clone() {
            return self.backward_into_planned(loss, params, &plan);
        }
        let grads = self.backward(loss);
        for (i, g) in grads.iter().enumerate() {
            if let (Op::Leaf { param: Some(id) }, Some(g)) = (&self.nodes[i].op, g) {
                params.accumulate_grad(*id, g);
            }
        }
        self.value(loss)[(0, 0)]
    }

    /// Planned reverse pass: same math as [`Tape::backward`], plus
    /// statically scheduled frees after each node's backward step.
    fn backward_into_planned(&mut self, loss: Var, params: &mut ParamSet, plan: &TapePlan) -> f32 {
        let shape = self.value(loss).shape();
        assert_eq!(shape, (1, 1), "backward: loss must be a 1×1 scalar, got {shape:?}");
        assert_eq!(
            plan.len(),
            self.nodes.len(),
            "memory plan covers {} nodes but the tape recorded {} — plan/graph mismatch",
            plan.len(),
            self.nodes.len()
        );
        let loss_val = self.value(loss)[(0, 0)];
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Matrix::full(1, 1, 1.0));
        for i in (0..=loss.0).rev() {
            if let Some(g) = grads[i].take() {
                self.backprop_node_observed(i, &g, &mut grads);
                if matches!(self.nodes[i].op, Op::Leaf { param: Some(_) }) {
                    // Kept until the ascending accumulation pass below.
                    grads[i] = Some(g);
                }
                // Non-leaf gradients drop here and recycle into the pool.
            }
            // Frees fire whether or not a gradient flowed: the plan's
            // liveness conservatively assumes every backward read happens,
            // so a skipped node only means the read never occurs.
            for &d in &plan.backward_free[i] {
                self.free_node(d as usize);
            }
        }
        for (i, g) in grads.iter().enumerate() {
            if let (Op::Leaf { param: Some(id) }, Some(g)) = (&self.nodes[i].op, g) {
                params.accumulate_grad(*id, g);
            }
        }
        loss_val
    }

    /// Runs the reverse pass and returns the gradient of `loss` with
    /// respect to every node (None where no gradient flowed).
    pub fn backward(&self, loss: Var) -> Vec<Option<Matrix>> {
        let shape = self.value(loss).shape();
        assert_eq!(shape, (1, 1), "backward: loss must be a 1×1 scalar, got {shape:?}");
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Matrix::full(1, 1, 1.0));
        for i in (0..=loss.0).rev() {
            let Some(g) = grads[i].take() else { continue };
            self.backprop_node_observed(i, &g, &mut grads);
            grads[i] = Some(g);
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
    fn backprop_node_observed(&self, i: usize, g: &Matrix, grads: &mut [Option<Matrix>]) {
        match self.obs_mark {
            Some(_) => {
                let t0 = dgnn_obs::now_ns();
                self.backprop_node(i, g, grads);
                let dt = dgnn_obs::now_ns().saturating_sub(t0);
                dgnn_obs::record_op(self.nodes[i].op.kind(), dgnn_obs::OpPhase::Backward, dt);
            }
            None => self.backprop_node(i, g, grads),
        }
    }

    fn accum(grads: &mut [Option<Matrix>], v: Var, g: Matrix) {
        match &mut grads[v.0] {
            Some(acc) => acc.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn backprop_node(&self, i: usize, g: &Matrix, grads: &mut [Option<Matrix>]) {
        use Op::*;
        match &self.nodes[i].op {
            Leaf { .. } => {}
            Add(a, b) => {
                // PLAN: gradient fan-out needs one copy per operand; pooled
                // storage backs both and each is recycled at its death point.
                Self::accum(grads, *a, g.clone());
                Self::accum(grads, *b, g.clone());
            }
            Sub(a, b) => {
                // PLAN: fan-out copy, pooled and recycled (see Add above).
                Self::accum(grads, *a, g.clone());
                Self::accum(grads, *b, g.scale(-1.0));
            }
            Mul(a, b) => {
                Self::accum(grads, *a, g.mul_elem(self.value(*b)));
                Self::accum(grads, *b, g.mul_elem(self.value(*a)));
            }
            Neg(a) => Self::accum(grads, *a, g.scale(-1.0)),
            Scale(a, k) => Self::accum(grads, *a, g.scale(*k)),
            // PLAN: fan-out copy, pooled and recycled (see Add above).
            AddScalar(a, _) => Self::accum(grads, *a, g.clone()),
            MatMul(a, b) => {
                // dA = G·Bᵀ ; dB = Aᵀ·G
                if self.rewrites.is_some() {
                    // Fused-accumulate dA when a gradient already exists:
                    // each cell's dot runs in a register from 0.0 and lands
                    // with one add — bit-identical to temp-then-add_assign
                    // (enforced by a dgnn-tensor unit test). dB cannot fuse:
                    // matmul_tn accumulates across k in a different order
                    // than add_assign would.
                    match &mut grads[a.0] {
                        Some(acc) => acc.matmul_nt_acc(g, self.value(*b)),
                        slot @ None => *slot = Some(g.matmul_nt(self.value(*b))),
                    }
                } else {
                    Self::accum(grads, *a, g.matmul_nt(self.value(*b)));
                }
                Self::accum(grads, *b, self.value(*a).matmul_tn(g));
            }
            Transpose(a) => Self::accum(grads, *a, g.transpose()),
            // Fused activation gradients: no slope matrix is materialized,
            // but each multiplies in the same per-element order as the
            // unfused `slope.mul_elem(g)` form, so results are bit-identical
            // (enforced by unit tests in dgnn-tensor).
            Sigmoid(a) => {
                Self::accum(grads, *a, self.value(Var(i)).sigmoid_grad(g));
            }
            Tanh(a) => {
                Self::accum(grads, *a, self.value(Var(i)).tanh_grad(g));
            }
            LeakyRelu(a, alpha) => {
                Self::accum(grads, *a, self.value(*a).leaky_relu_grad(g, *alpha));
            }
            Relu(a) => {
                Self::accum(grads, *a, self.value(*a).relu_grad(g));
            }
            Exp(a) => Self::accum(grads, *a, g.mul_elem(self.value(Var(i)))),
            Softplus(a) => {
                Self::accum(grads, *a, self.value(*a).softplus_grad(g));
            }
            Ln(a) => {
                let dy = self.value(*a).map(|x| 1.0 / x);
                Self::accum(grads, *a, g.mul_elem(&dy));
            }
            Div(a, b) => {
                // d(a/b)/da = 1/b ; d(a/b)/db = −a/b²
                let inv_b = self.value(*b).map(|x| 1.0 / x);
                Self::accum(grads, *a, g.mul_elem(&inv_b));
                let gb = g.mul_elem(self.value(*a)).mul_elem(&inv_b).mul_elem(&inv_b).scale(-1.0);
                Self::accum(grads, *b, gb);
            }
            Sqrt(a) => {
                let dy = self.value(Var(i)).map(|y| 0.5 / y);
                Self::accum(grads, *a, g.mul_elem(&dy));
            }
            AddRow(a, row) => {
                // PLAN: fan-out copy, pooled and recycled (see Add above).
                Self::accum(grads, *a, g.clone());
                Self::accum(grads, *row, g.col_sums());
            }
            MulRow(a, row) => {
                let ga = if self.rewrites.is_some() {
                    // Single-pass broadcast (bit-identical to the two-pass
                    // clone-then-update kernel; dgnn-tensor unit-tested).
                    g.mul_row_fused(self.value(*row))
                } else {
                    g.mul_row_broadcast(self.value(*row))
                };
                Self::accum(grads, *a, ga);
                let grow = g.mul_elem(self.value(*a)).col_sums();
                Self::accum(grads, *row, grow);
            }
            MulCol(a, col) => {
                let ga = if self.rewrites.is_some() {
                    // Single-pass broadcast (see MulRow above).
                    g.mul_col_fused(self.value(*col))
                } else {
                    g.mul_col_broadcast(self.value(*col))
                };
                Self::accum(grads, *a, ga);
                let gcol = g.row_dots(self.value(*a));
                Self::accum(grads, *col, gcol);
            }
            SumAll(a) => {
                let (r, c) = self.shape_of(*a);
                Self::accum(grads, *a, Matrix::full(r, c, g[(0, 0)]));
            }
            MeanAll(a) => {
                let (r, c) = self.shape_of(*a);
                let k = g[(0, 0)] / (r * c).max(1) as f32;
                Self::accum(grads, *a, Matrix::full(r, c, k));
            }
            RowSum(a) => {
                let (r, c) = self.shape_of(*a);
                let ga = Matrix::from_fn(r, c, |row, _| g[(row, 0)]);
                Self::accum(grads, *a, ga);
            }
            ColMean(a) => {
                let (r, c) = self.shape_of(*a);
                let k = 1.0 / r.max(1) as f32;
                let ga = Matrix::from_fn(r, c, |_, col| g[(0, col)] * k);
                Self::accum(grads, *a, ga);
            }
            ConcatCols(parts) => {
                let mut off = 0;
                for &p in parts {
                    let w = self.shape_of(p).1;
                    Self::accum(grads, p, g.slice_cols(off, off + w));
                    off += w;
                }
            }
            SliceCols { a, start, end } => {
                let (r, c) = self.shape_of(*a);
                let mut ga = Matrix::zeros(r, c);
                for row in 0..r {
                    ga.row_mut(row)[*start..*end].copy_from_slice(g.row(row));
                }
                Self::accum(grads, *a, ga);
            }
            Gather { a, idx } => {
                // Scatter straight into the accumulator: materializing (and
                // zeroing) a fresh dense table per gather dominated NGCF's
                // backward profile. The table is zeroed once, on the first
                // gradient contribution, and every later gather scatters
                // only its touched rows.
                let (r, c) = self.shape_of(*a);
                let acc = grads[a.0].get_or_insert_with(|| Matrix::zeros(r, c));
                acc.scatter_add_rows(idx, g);
            }
            Spmm { at, b, .. } => {
                Self::accum(grads, *b, at.spmm(g));
            }
            LayerNormRow { a, eps } => {
                let x = self.value(*a);
                let y = self.value(Var(i));
                Self::accum(grads, *a, Matrix::layer_norm_rows_grad(x, y, g, *eps));
            }
            RowL2Norm { a, eps } => {
                let x = self.value(*a);
                let (r, c) = x.shape();
                let mut ga = Matrix::zeros(r, c);
                for row in 0..r {
                    let xr = x.row(row);
                    let gr = g.row(row);
                    let norm = xr.iter().map(|v| v * v).sum::<f32>().sqrt();
                    let out = ga.row_mut(row);
                    if norm <= *eps {
                        out.copy_from_slice(gr);
                    } else {
                        let dot: f32 = xr.iter().zip(gr).map(|(&x, &g)| x * g).sum();
                        let n3 = norm * norm * norm;
                        for k in 0..c {
                            out[k] = gr[k] / norm - xr[k] * dot / n3;
                        }
                    }
                }
                Self::accum(grads, *a, ga);
            }
            RowDots(a, b) => {
                if self.rewrites.is_some() {
                    // Single-pass broadcasts (see MulRow above).
                    Self::accum(grads, *a, self.value(*b).mul_col_fused(g));
                    Self::accum(grads, *b, self.value(*a).mul_col_fused(g));
                } else {
                    Self::accum(grads, *a, self.value(*b).mul_col_broadcast(g));
                    Self::accum(grads, *b, self.value(*a).mul_col_broadcast(g));
                }
            }
            SoftmaxRows(a) => {
                let y = self.value(Var(i));
                let (r, c) = y.shape();
                let mut ga = Matrix::zeros(r, c);
                for row in 0..r {
                    softmax_backward(y.row(row), g.row(row), ga.row_mut(row));
                }
                Self::accum(grads, *a, ga);
            }
            SegmentSoftmax { logits, seg } => {
                let y = self.value(Var(i));
                let e = y.rows();
                let mut ga = Matrix::zeros(e, 1);
                for n in 0..seg.len() - 1 {
                    let (lo, hi) = (seg[n], seg[n + 1]);
                    let ys: Vec<f32> = (lo..hi).map(|e| y[(e, 0)]).collect();
                    let gs: Vec<f32> = (lo..hi).map(|e| g[(e, 0)]).collect();
                    let mut out = vec![0.0; hi - lo];
                    softmax_backward(&ys, &gs, &mut out);
                    for (k, e) in (lo..hi).enumerate() {
                        ga[(e, 0)] = out[k];
                    }
                }
                Self::accum(grads, *logits, ga);
            }
            SegmentWeightedSum { w, v, seg } => {
                let wv = self.value(*w);
                let vv = self.value(*v);
                let e = vv.rows();
                let d = vv.cols();
                let mut gw = Matrix::zeros(e, 1);
                let mut gv = Matrix::zeros(e, d);
                for n in 0..seg.len() - 1 {
                    let gn = g.row(n);
                    for e in seg[n]..seg[n + 1] {
                        let mut dot = 0.0;
                        let we = wv[(e, 0)];
                        let gv_row = gv.row_mut(e);
                        for (k, &gk) in gn.iter().enumerate() {
                            dot += gk * vv[(e, k)];
                            gv_row[k] += we * gk;
                        }
                        gw[(e, 0)] = dot;
                    }
                }
                Self::accum(grads, *w, gw);
                Self::accum(grads, *v, gv);
            }
            WeightedBlockSum { t, eta } => {
                let (tv, ev) = (self.value(*t), self.value(*eta));
                Self::accum(grads, *t, Matrix::weighted_block_sum_grad_blocks(ev, g));
                Self::accum(grads, *eta, Matrix::weighted_block_sum_grad_weights(tv, g));
            }
            Dropout { a, mask } => {
                Self::accum(grads, *a, g.mul_elem(mask));
            }
        }
    }
}

/// True when every input of a fold node validated its slot this step.
fn fold_inputs_valid(op: &Op, plan: &RewritePlan, cache: &FoldCache) -> bool {
    let mut ok = true;
    for_each_input(op, &mut |v| {
        ok &= matches!(plan.action(v.0), RewriteAction::Fold(s) if cache.is_valid(s as usize));
    });
    ok
}

/// Bitwise matrix equality (stricter than `==`: distinguishes `-0.0` from
/// `0.0` and treats equal-bits NaNs as equal) — the right comparison for
/// fold-cache validation, where "unchanged" must mean "same bits".
fn bits_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Recorder for Tape {
    // ---- leaves ---------------------------------------------------------

    fn constant(&mut self, value: Matrix) -> Var {
        if let Some(rw) = &self.rewrites {
            if let RewriteAction::Fold(slot) = rw.plan.action(self.nodes.len()) {
                let slot = slot as usize;
                let fold = Rc::clone(&rw.fold);
                let hit = {
                    let mut cache = fold.borrow_mut();
                    let matches = cache
                        .entries
                        .get(slot)
                        .and_then(Option::as_ref)
                        .is_some_and(|e| e.op.is_none() && bits_eq(&e.value, &value));
                    if matches {
                        cache.set_valid(slot);
                    } else {
                        // PLAN: the fold key caches one pooled copy of the
                        // constant per invalidation (once per fit).
                        cache.refresh(slot, None, value.clone());
                    }
                    matches
                };
                if hit {
                    self.counters_mut().fold_hits += 1;
                } else {
                    self.counters_mut().fold_refreshes += 1;
                }
            }
        }
        self.push(Op::Leaf { param: None }, value)
    }

    fn param(&mut self, params: &ParamSet, id: ParamId) -> Var {
        let mut copy_src = None;
        if let Some(rw) = &self.rewrites {
            if let RewriteAction::CopyOf(j) = rw.plan.action(self.nodes.len()) {
                let j = j as usize;
                let s = &self.nodes[j];
                if !s.freed
                    && !s.stolen
                    && matches!(s.op, Op::Leaf { param: Some(p) } if p == id)
                {
                    copy_src = Some(j);
                }
            }
        }
        match copy_src {
            Some(j) => {
                // PLAN: CSE leaf copy — the same one-buffer copy the
                // ParamSet read below would make, but it canonicalizes this
                // leaf with node j so downstream ops can CSE too.
                let v = self.nodes[j].value.clone();
                let rw = self.rewrites.as_mut().expect("copy source found without rewrites");
                rw.pending_canon = Some(rw.canon[j]);
                rw.counters.cse_copies += 1;
                self.push(Op::Leaf { param: Some(id) }, v)
            }
            None => {
                // PLAN: leaves copy the parameter so the optimizer can
                // update the ParamSet mid-epoch without aliasing the tape;
                // pooled storage backs the copy and the planner frees it at
                // its last gradient read.
                self.push(Op::Leaf { param: Some(id) }, params.value(id).clone())
            }
        }
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

    fn spmm_with(&mut self, adj: &Rc<Csr>, adj_t: &Rc<Csr>, b: Var) -> Var {
        assert_eq!(adj.rows(), adj_t.cols(), "spmm_with: adj_t is not adjᵀ (shape)");
        assert_eq!(adj.cols(), adj_t.rows(), "spmm_with: adj_t is not adjᵀ (shape)");
        self.apply(Op::Spmm { a: Rc::clone(adj), at: Rc::clone(adj_t), b })
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

    fn l2_normalize_rows(&mut self, a: Var, eps: f32) -> Var {
        self.apply(Op::RowL2Norm { a, eps })
    }

    fn row_dots(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::RowDots(a, b))
    }

    fn softmax_rows(&mut self, a: Var) -> Var {
        self.apply(Op::SoftmaxRows(a))
    }

    // ---- segment (edge-attention) ops ------------------------------------

    fn segment_softmax(&mut self, logits: Var, seg: Rc<Vec<usize>>) -> Var {
        self.apply(Op::SegmentSoftmax { logits, seg })
    }

    fn segment_weighted_sum(&mut self, w: Var, v: Var, seg: Rc<Vec<usize>>) -> Var {
        self.apply(Op::SegmentWeightedSum { w, v, seg })
    }

    fn weighted_block_sum(&mut self, t: Var, eta: Var) -> Var {
        self.apply(Op::WeightedBlockSum { t, eta })
    }

    // ---- misc ------------------------------------------------------------

    fn dropout_mask(&mut self, a: Var, mask: Matrix) -> Var {
        self.apply(Op::Dropout { a, mask })
    }
}

/// Softmax Jacobian-vector product: `dx = s ⊙ (g − ⟨g, s⟩)`.
fn softmax_backward(s: &[f32], g: &[f32], out: &mut [f32]) {
    let dot: f32 = s.iter().zip(g).map(|(&s, &g)| s * g).sum();
    for k in 0..s.len() {
        out[k] = s[k] * (g[k] - dot);
    }
}

fn softmax_slice(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in xs.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in xs {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::RewriteAction as A;

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
    fn grad_is_none_where_no_flow() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::full(1, 1, 1.0));
        let b = t.constant(Matrix::full(1, 1, 2.0)); // unused
        let loss = t.sum_all(a);
        assert!(t.grad_of(loss, b).is_none());
    }

    // ---- rewrite execution ------------------------------------------------

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn armed(actions: Vec<A>, slots: u32) -> Tape {
        let plan = Rc::new(RewritePlan::new(actions, slots));
        let fold = Rc::new(RefCell::new(FoldCache::new(slots as usize)));
        Tape::new().with_rewrites(plan, fold)
    }

    /// Two matmuls of the same leaves: the second is CSE'd to a copy, and
    /// loss/grads stay bit-identical to the plain tape.
    #[test]
    fn cse_copy_is_bit_identical_and_counted() {
        let x0 = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32 * 0.21 - 0.5);
        let w0 = Matrix::from_fn(3, 3, |r, c| (r + 2 * c) as f32 * 0.13 - 0.4);
        let run = |t: &mut Tape| {
            let mut params = ParamSet::new();
            let x = params.add("x", x0.clone());
            let w = params.add("w", w0.clone());
            let xv = t.param(&params, x);
            let wv = t.param(&params, w);
            let m1 = t.matmul(xv, wv);
            let m2 = t.matmul(xv, wv); // congruent with m1
            let s = t.add(m1, m2);
            let loss = t.sum_all(s);
            params.zero_grads();
            let l = t.backward_into(loss, &mut params);
            (l, bits(params.grad(x)), bits(params.grad(w)))
        };
        let plain = run(&mut Tape::new());
        let mut t = armed(
            vec![A::Compute, A::Compute, A::Compute, A::CopyOf(2), A::Compute, A::Compute],
            0,
        );
        let opt = run(&mut t);
        assert_eq!(plain.0.to_bits(), opt.0.to_bits(), "loss bits diverged");
        assert_eq!(plain.1, opt.1, "x grad bits diverged");
        assert_eq!(plain.2, opt.2, "w grad bits diverged");
        let c = t.rewrite_counters().expect("rewrites armed");
        assert_eq!(c.cse_copies, 1);
        assert_eq!(c.fallbacks, 0);
    }

    /// CSE'd param leaves canonicalize, so ops over the duplicate leaf are
    /// still recognized as congruent with ops over the original.
    #[test]
    fn cse_resolves_through_copied_leaves() {
        let w0 = Matrix::from_fn(3, 3, |r, c| (r + c) as f32 * 0.17);
        let mut params = ParamSet::new();
        let w = params.add("w", w0);
        let mut t = armed(
            vec![A::Compute, A::CopyOf(0), A::Compute, A::CopyOf(2), A::Compute],
            0,
        );
        let w1 = t.param(&params, w);
        let w2 = t.param(&params, w); // leaf CSE
        let s1 = t.sigmoid(w1);
        let s2 = t.sigmoid(w2); // congruent only through canon(w2) == w1
        let _sum = t.add(s1, s2);
        let c = t.rewrite_counters().expect("rewrites armed");
        assert_eq!(c.cse_copies, 2, "leaf and sigmoid copies should both fire");
        assert_eq!(c.fallbacks, 0);
        assert_eq!(bits(t.value(s1)), bits(t.value(s2)));
    }

    /// A stale CopyOf (non-congruent source) falls back to plain
    /// evaluation and still computes the right value.
    #[test]
    fn stale_copy_falls_back_to_eval() {
        let mut t = armed(vec![A::Compute, A::Compute, A::Compute, A::CopyOf(2)], 0);
        let a = t.constant(Matrix::row_vector(&[1.0, 2.0]));
        let b = t.constant(Matrix::row_vector(&[3.0, 5.0]));
        let _s = t.add(a, b);
        let m = t.mul(a, b); // plan claims congruence with the add — wrong
        assert_eq!(t.value(m).as_slice(), &[3.0, 10.0]);
        let c = t.rewrite_counters().expect("rewrites armed");
        assert_eq!((c.cse_copies, c.fallbacks), (0, 1));
    }

    /// Steal chain: scale and neg run in place over the dead predecessor's
    /// buffer; loss and grads stay bit-identical to the plain tape.
    #[test]
    fn steals_are_bit_identical_and_counted() {
        let x0 = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.31 - 1.7);
        let run = |t: &mut Tape| {
            let mut params = ParamSet::new();
            let x = params.add("x", x0.clone());
            let xv = t.param(&params, x);
            let s = t.scale(xv, 2.0);
            let n = t.neg(s);
            let k = t.add_scalar(n, 0.25);
            let loss = t.sum_all(k);
            params.zero_grads();
            let l = t.backward_into(loss, &mut params);
            (l, bits(params.grad(x)))
        };
        let plain = run(&mut Tape::new());
        let mut t = armed(vec![A::Compute, A::Steal, A::Steal, A::Steal, A::Compute], 0);
        let opt = run(&mut t);
        assert_eq!(plain.0.to_bits(), opt.0.to_bits(), "loss bits diverged");
        assert_eq!(plain.1, opt.1, "grad bits diverged");
        let c = t.rewrite_counters().expect("rewrites armed");
        assert_eq!(c.steals, 3);
        assert_eq!(c.fallbacks, 0);
    }

    #[test]
    fn aliased_steal_falls_back() {
        let mut t = armed(vec![A::Compute, A::Steal], 0);
        let a = t.constant(Matrix::row_vector(&[1.5, -2.0]));
        let s = t.add(a, a); // aliased inputs: stealing would misread
        assert_eq!(t.value(s).as_slice(), &[3.0, -4.0]);
        assert!(t.readable(a), "aliased steal must not retire the source");
        let c = t.rewrite_counters().expect("rewrites armed");
        assert_eq!((c.steals, c.fallbacks), (0, 1));
    }

    #[test]
    #[should_panic(expected = "stole its buffer")]
    fn reading_a_stolen_value_panics() {
        let mut t = armed(vec![A::Compute, A::Steal], 0);
        let a = t.constant(Matrix::row_vector(&[1.0, 2.0]));
        let _n = t.neg(a);
        let _ = t.value(a); // buffer moved into n — must panic
    }

    /// Streamed broadcasts produce the same bits as the two-pass kernels.
    #[test]
    fn streams_are_bit_identical_and_counted() {
        let a0 = Matrix::from_fn(5, 4, |r, c| (r * 4 + c) as f32 * 0.23 - 1.1);
        let row0 = Matrix::from_fn(1, 4, |_, c| c as f32 * 0.7 - 0.2);
        let col0 = Matrix::from_fn(5, 1, |r, _| r as f32 * 0.3 - 0.9);
        let run = |t: &mut Tape| {
            let a = t.constant(a0.clone());
            let row = t.constant(row0.clone());
            let col = t.constant(col0.clone());
            let x = t.add_row(a, row);
            let y = t.mul_row(x, row);
            let z = t.mul_col(y, col);
            bits(t.value(z))
        };
        let plain = run(&mut Tape::new());
        let mut t = armed(
            vec![A::Compute, A::Compute, A::Compute, A::Stream, A::Stream, A::Stream],
            0,
        );
        let opt = run(&mut t);
        assert_eq!(plain, opt, "streamed bits diverged");
        let c = t.rewrite_counters().expect("rewrites armed");
        assert_eq!((c.streams, c.fallbacks), (3, 0));
    }

    /// gather→matmul fusion: no gather value is materialized, and the
    /// product matches the unfused pipeline bit for bit.
    #[test]
    fn gather_matmul_fusion_is_bit_identical() {
        let table0 = Matrix::from_fn(6, 4, |r, c| (r * 4 + c) as f32 * 0.19 - 2.0);
        let w0 = Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.29 - 0.6);
        let idx = Rc::new(vec![0usize, 3, 3, 5]);
        let run = |t: &mut Tape, idx: Rc<Vec<usize>>| {
            let table = t.constant(table0.clone());
            let w = t.constant(w0.clone());
            let g = t.gather(table, idx);
            let m = t.matmul(g, w);
            bits(t.value(m))
        };
        let plain = run(&mut Tape::new(), Rc::clone(&idx));
        let mut t =
            armed(vec![A::Compute, A::Compute, A::ElideGather, A::GatherMatMul], 0);
        let opt = run(&mut t, idx);
        assert_eq!(plain, opt, "fused gather-matmul bits diverged");
        let c = t.rewrite_counters().expect("rewrites armed");
        assert_eq!((c.gather_fusions, c.fallbacks), (1, 0));
    }

    /// Fold: step 1 refreshes the cache, step 2 serves hits; values match
    /// the plain tape bit for bit; changing a constant invalidates the
    /// whole downstream region.
    #[test]
    fn fold_cache_hits_on_second_step_and_invalidates_on_change() {
        let base = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32 * 0.25 - 1.0);
        let changed = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32 * 0.25 - 0.5);
        let plan = Rc::new(RewritePlan::new(vec![A::Fold(0), A::Fold(1), A::Fold(2)], 3));
        let fold = Rc::new(RefCell::new(FoldCache::new(3)));
        let step = |input: &Matrix| {
            fold.borrow_mut().begin_step();
            let mut t = Tape::new().with_rewrites(Rc::clone(&plan), Rc::clone(&fold));
            let c = t.constant(input.clone());
            let s = t.sigmoid(c);
            let n = t.tanh(s);
            let v = bits(t.value(n));
            (v, t.rewrite_counters().expect("rewrites armed"))
        };
        let expect = |input: &Matrix| {
            let mut t = Tape::new();
            let c = t.constant(input.clone());
            let s = t.sigmoid(c);
            let n = t.tanh(s);
            bits(t.value(n))
        };

        let (v1, c1) = step(&base);
        assert_eq!(v1, expect(&base));
        assert_eq!((c1.fold_hits, c1.fold_refreshes), (0, 3), "cold cache must refresh");

        let (v2, c2) = step(&base);
        assert_eq!(v2, expect(&base));
        assert_eq!((c2.fold_hits, c2.fold_refreshes), (3, 0), "warm cache must hit");

        let (v3, c3) = step(&changed);
        assert_eq!(v3, expect(&changed), "changed input must recompute, not serve stale bits");
        assert_eq!((c3.fold_hits, c3.fold_refreshes), (0, 3));

        let (v4, _) = step(&changed);
        assert_eq!(v4, expect(&changed));
    }
}
