//! [`ShapeTracer`]: abstract interpretation of compute graphs over the
//! shape domain.
//!
//! The tracer implements [`Recorder`], so any model written against
//! `R: Recorder` — DGNN itself and the traced baselines — can be "run"
//! without allocating a single output tensor: each op records only its
//! output shape, a boundedness bit, an abstract lower bound, its input
//! edges, and a static op name. Structural problems (shape mismatches,
//! out-of-range gather or edge-list indices, non-covering segment
//! pointers, an edge list's inconsistent by-source transpose, `exp` of
//! unbounded inputs, `ln`/`div`/`sqrt` outside their safe domain) surface
//! as [`Diagnostic`]s at trace time, *before* any training step executes.

use std::rc::Rc;

use dgnn_autograd::{ParamId, ParamSet, Recorder, Rows, Var};
use dgnn_tensor::{Csr, EdgeList, Matrix};

/// The class of a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagnosticKind {
    /// Operand shapes are incompatible with the op's contract.
    ShapeMismatch,
    /// A gather index or segment pointer addresses rows that do not exist.
    IndexRange,
    /// A parameter registered in the [`ParamSet`] never contributes to the
    /// loss (either never traced, or traced with no path to the loss).
    UnusedParam,
    /// A recorded node that is reachable from neither the loss nor any
    /// declared output — compute that `backward` can never see.
    DeadSubgraph,
    /// An op fed a value outside its numerically safe domain: `exp` of an
    /// unbounded input (overflow), or `ln`/`div`/`sqrt` of a value not
    /// provably bounded away from zero / non-negative (−∞, ±∞, NaN).
    UnstableDomain,
    /// Advisory: a node provably recomputes an earlier node's value (e.g. a
    /// parameter read twice in one step). Not an error;
    /// [`crate::AuditReport::is_clean`] ignores it.
    CommonSubexpression,
    /// Advisory: a training-invariant subgraph (constant leaves only) is
    /// recomputed every step. Not an error;
    /// [`crate::AuditReport::is_clean`] ignores it.
    FoldableSubgraph,
}

impl DiagnosticKind {
    /// Stable machine-readable name (used by the `--json` report mode).
    pub fn as_str(self) -> &'static str {
        match self {
            Self::ShapeMismatch => "shape_mismatch",
            Self::IndexRange => "index_range",
            Self::UnusedParam => "unused_param",
            Self::DeadSubgraph => "dead_subgraph",
            Self::UnstableDomain => "unstable_domain",
            Self::CommonSubexpression => "common_subexpression",
            Self::FoldableSubgraph => "foldable_subgraph",
        }
    }

    /// True for findings that flag redundant compute rather than a bug.
    /// Advisory findings never make a graph "unclean".
    pub fn is_advisory(self) -> bool {
        matches!(self, Self::CommonSubexpression | Self::FoldableSubgraph)
    }
}

/// Abstract lower bound of a traced value, ordered by strength.
///
/// The domain is deliberately `f32`-sound: `sigmoid`, `softmax`, `exp` and
/// `softplus` map to [`Lower::NonNeg`], *not* [`Lower::Positive`], because
/// their mathematical positivity underflows to an exact `0.0` for extreme
/// inputs. The only blessed route to `Positive` is adding a positive
/// constant — the `ln(x + ε)` idiom — or starting from a positive constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Lower {
    /// May be negative (or NaN).
    Unknown,
    /// Provably `≥ 0`, but `0.0` itself is reachable (including by
    /// floating-point underflow of mathematically positive values).
    NonNeg,
    /// Provably bounded away from zero.
    Positive,
}

/// One structured finding about a traced compute graph.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// What went wrong.
    pub kind: DiagnosticKind,
    /// Index of the node where the problem was detected (op provenance);
    /// `None` for set-level findings such as never-traced parameters.
    pub node: Option<usize>,
    /// Static name of that node's op, when a node is implicated.
    pub op: Option<&'static str>,
    /// Human-readable description with the concrete shapes/indices.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.node, self.op) {
            (Some(n), Some(op)) => write!(f, "[{:?}] node {n} ({op}): {}", self.kind, self.message),
            _ => write!(f, "[{:?}] {}", self.kind, self.message),
        }
    }
}

/// One abstract node: shape + provenance, no tensor data.
#[derive(Debug)]
pub(crate) struct TraceNode {
    pub op: &'static str,
    pub shape: (usize, usize),
    pub inputs: Vec<usize>,
    pub param: Option<ParamId>,
    /// Opaque op attribute for value-numbering: the bit pattern of a scalar
    /// coefficient (`scale`/`add_scalar`/`leaky_relu`/eps), packed slice
    /// bounds, or the address of a shared index/adjacency payload
    /// (`gather`/`spmm`/segment ops). Two nodes of the same op kind compute
    /// the same function of their inputs iff their attrs are equal. `0` for
    /// attribute-free ops.
    pub attr: u64,
    /// True when the op's output lies in a fixed interval regardless of
    /// how far parameters drift during training (σ, tanh, softmax, norms,
    /// and compositions of bounded inputs). Leaves: constants are bounded
    /// (they never change), parameters are not.
    pub bounded: bool,
    /// Abstract lower bound of the output (the `ln`/`div`/`sqrt` domain).
    pub lower: Lower,
}

/// Abstract interpreter over the shape domain; the second [`Recorder`]
/// implementation next to `Tape`.
///
/// Feed it the exact graph-building code the trainer uses (e.g.
/// `Dgnn::record_step`), then inspect [`ShapeTracer::diagnostics`] or run
/// the reachability auditor in [`crate::audit`].
#[derive(Debug, Default)]
pub struct ShapeTracer {
    nodes: Vec<TraceNode>,
    diags: Vec<Diagnostic>,
}

impl ShapeTracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of traced nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Diagnostics collected while tracing (shape, index-range, and
    /// stability findings). Reachability findings require the auditor.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    pub(crate) fn nodes(&self) -> &[TraceNode] {
        &self.nodes
    }

    fn push(
        &mut self,
        op: &'static str,
        shape: (usize, usize),
        inputs: &[Var],
        bounded: bool,
        param: Option<ParamId>,
    ) -> Var {
        self.push_with(op, shape, inputs, bounded, param, Lower::Unknown)
    }

    #[allow(clippy::too_many_arguments)]
    fn push_with(
        &mut self,
        op: &'static str,
        shape: (usize, usize),
        inputs: &[Var],
        bounded: bool,
        param: Option<ParamId>,
        lower: Lower,
    ) -> Var {
        self.nodes.push(TraceNode {
            op,
            shape,
            inputs: inputs.iter().map(|v| v.index()).collect(),
            param,
            attr: 0,
            bounded,
            lower,
        });
        Var::from_index(self.nodes.len() - 1)
    }

    /// Stamps the value-numbering attribute on a just-pushed node.
    fn tag(&mut self, v: Var, attr: u64) -> Var {
        self.nodes[v.index()].attr = attr;
        v
    }

    fn diag(&mut self, kind: DiagnosticKind, op: &'static str, message: String) {
        // The offending node is the one about to be pushed.
        self.diags.push(Diagnostic { kind, node: Some(self.nodes.len()), op: Some(op), message });
    }

    fn shape_of(&self, v: Var) -> (usize, usize) {
        self.nodes[v.index()].shape
    }

    fn bounded_of(&self, v: Var) -> bool {
        self.nodes[v.index()].bounded
    }

    fn lower_of(&self, v: Var) -> Lower {
        self.nodes[v.index()].lower
    }

    /// `NonNeg` when both operands are provably non-negative (products and
    /// sums of non-negatives stay non-negative, but `Positive` is *not*
    /// preserved: `f32` products/quotients of positives can underflow to 0).
    fn nonneg_if_both(&self, a: Var, b: Var) -> Lower {
        if self.lower_of(a) >= Lower::NonNeg && self.lower_of(b) >= Lower::NonNeg {
            Lower::NonNeg
        } else {
            Lower::Unknown
        }
    }

    /// Reductions (sums/means) of non-negative inputs stay non-negative;
    /// positivity does not survive (an all-zero row is reachable).
    fn nonneg_reduce(&self, a: Var) -> Lower {
        if self.lower_of(a) >= Lower::NonNeg { Lower::NonNeg } else { Lower::Unknown }
    }

    /// Checks an elementwise binary op's operands for equal shapes.
    fn require_same(&mut self, op: &'static str, a: Var, b: Var) {
        let (sa, sb) = (self.shape_of(a), self.shape_of(b));
        if sa != sb {
            self.diag(
                DiagnosticKind::ShapeMismatch,
                op,
                format!("operand shapes {sa:?} and {sb:?} differ"),
            );
        }
    }

    /// Unary shape-preserving op helper.
    fn unary(&mut self, op: &'static str, a: Var, bounded: bool, lower: Lower) -> Var {
        let shape = self.shape_of(a);
        self.push_with(op, shape, &[a], bounded, None, lower)
    }

    /// Binary elementwise op helper (requires equal shapes).
    fn binary(&mut self, op: &'static str, a: Var, b: Var, lower: Lower) -> Var {
        self.require_same(op, a, b);
        let shape = self.shape_of(a);
        let bounded = self.bounded_of(a) && self.bounded_of(b);
        self.push_with(op, shape, &[a, b], bounded, None, lower)
    }

    /// Validates a CSR-style segment pointer against an edge count.
    fn check_segments(&mut self, op: &'static str, seg: &[usize], edges: usize) {
        match seg.last() {
            None => {
                self.diag(DiagnosticKind::IndexRange, op, "empty segment pointer".to_string());
            }
            Some(&end) if end != edges => {
                self.diag(
                    DiagnosticKind::IndexRange,
                    op,
                    format!("segment pointer covers {end} edges but input has {edges}"),
                );
            }
            _ => {}
        }
        if seg.first().is_some_and(|&s| s != 0) {
            self.diag(DiagnosticKind::IndexRange, op, "segment pointer does not start at 0".to_string());
        }
        if seg.windows(2).any(|w| w[0] > w[1]) {
            self.diag(
                DiagnosticKind::IndexRange,
                op,
                "segment pointer is not monotonically non-decreasing".to_string(),
            );
        }
    }

    /// Validates an edge list's own invariants (its fields are public, so
    /// a list can reach an op without passing `EdgeList::new`'s checks):
    /// the segment pointer covers the sources, `dst` names each edge's
    /// segment, and the by-source transpose lists every edge once, under
    /// its source, in increasing id.
    fn check_edge_list(&mut self, op: &'static str, edges: &EdgeList) {
        self.check_segments(op, &edges.seg, edges.src.len());
        let dst_ok = edges.dst.len() == edges.src.len()
            && edges.seg.windows(2).enumerate().all(|(n, w)| {
                edges.dst.get(w[0]..w[1]).is_some_and(|d| d.iter().all(|&x| x == n))
            });
        if !dst_ok {
            self.diag(DiagnosticKind::IndexRange, op, "edge list's dst disagrees with its segment pointer".to_string());
        }
        let ptr = &edges.src_seg;
        let transpose_ok = ptr.first() == Some(&0)
            && ptr.last() == Some(&edges.src.len())
            && edges.src_edges.len() == edges.src.len()
            && ptr.windows(2).enumerate().all(|(s, w)| {
                edges.src_edges.get(w[0]..w[1]).is_some_and(|out| {
                    out.windows(2).all(|p| p[0] < p[1]) && out.iter().all(|&e| edges.src.get(e) == Some(&s))
                })
            });
        if !transpose_ok {
            self.diag(
                DiagnosticKind::IndexRange,
                op,
                "edge list's by-source transpose is inconsistent with its sources".to_string(),
            );
        }
    }

    /// Checks a row operand and returns `(edges, width)`: a table must
    /// have one row per destination (or source) of a consistent edge list,
    /// and every index must address one of its rows.
    fn check_rows(&mut self, op: &'static str, r: &Rows) -> (usize, usize) {
        let (rows, cols) = self.shape_of(r.var());
        let (edges, index, side) = match r {
            Rows::Edge(_) => return (rows, cols),
            Rows::Dst(_, edges) => (edges, &edges.dst, "dst"),
            Rows::Src(_, edges) => (edges, &edges.src, "src"),
        };
        self.check_edge_list(op, edges);
        if let Some(&bad) = index.iter().find(|&&i| i >= rows) {
            self.diag(
                DiagnosticKind::IndexRange,
                op,
                format!("{side} index {bad} out of range for a table with {rows} rows"),
            );
        }
        let expected = match r {
            Rows::Dst(..) => edges.seg.len(),
            _ => edges.src_seg.len(),
        }
        .saturating_sub(1);
        if expected != rows {
            self.diag(
                DiagnosticKind::ShapeMismatch,
                op,
                format!("table has {rows} rows but its edge list reads {expected} through {side}"),
            );
        }
        (edges.len(), cols)
    }
}

/// Value-numbering attribute of a row operand: its edge list's address
/// and read side, 0 for per-edge rows.
fn rows_attr(r: &Rows) -> u64 {
    // `Rc` payloads are at least 8-aligned, so the low bits are free.
    match r {
        Rows::Edge(_) => 0,
        Rows::Dst(_, edges) => Rc::as_ptr(edges) as usize as u64 | 1,
        Rows::Src(_, edges) => Rc::as_ptr(edges) as usize as u64 | 2,
    }
}

impl Recorder for ShapeTracer {
    fn constant(&mut self, value: Matrix) -> Var {
        // Constants never change during training, so they are bounded, and
        // their lower bound can be read straight off the data.
        let lower = if value.as_slice().iter().all(|&x| x > 0.0) {
            Lower::Positive
        } else if value.as_slice().iter().all(|&x| x >= 0.0) {
            Lower::NonNeg
        } else {
            Lower::Unknown
        };
        self.push_with("constant", value.shape(), &[], true, None, lower)
    }

    fn param(&mut self, params: &ParamSet, id: ParamId) -> Var {
        // Parameters drift arbitrarily far under optimization: unbounded.
        self.push("param", params.value(id).shape(), &[], false, Some(id))
    }

    fn shape(&self, v: Var) -> (usize, usize) {
        self.shape_of(v)
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        // For non-negative operands the f32 sum rounds to ≥ max(a, b), so
        // the stronger of the two bounds survives (overflow goes to +inf,
        // which is still positive).
        let lower = if self.lower_of(a) >= Lower::NonNeg && self.lower_of(b) >= Lower::NonNeg {
            self.lower_of(a).max(self.lower_of(b))
        } else {
            Lower::Unknown
        };
        self.binary("add", a, b, lower)
    }

    fn sub(&mut self, a: Var, b: Var) -> Var {
        self.binary("sub", a, b, Lower::Unknown)
    }

    fn mul(&mut self, a: Var, b: Var) -> Var {
        // A square x ⊙ x is non-negative for every real input (the analysis,
        // like the rest of this crate, assumes values have not already
        // diverged to NaN).
        let lower = if a == b { Lower::NonNeg } else { self.nonneg_if_both(a, b) };
        self.binary("mul", a, b, lower)
    }

    fn neg(&mut self, a: Var) -> Var {
        let bounded = self.bounded_of(a);
        self.unary("neg", a, bounded, Lower::Unknown)
    }

    fn scale(&mut self, a: Var, k: f32) -> Var {
        let bounded = self.bounded_of(a);
        // k > 0 preserves non-negativity but not positivity (k·x can
        // underflow to 0); k == 0 yields exact zeros.
        let lower = if (k > 0.0 && self.lower_of(a) >= Lower::NonNeg) || k == 0.0 {
            Lower::NonNeg
        } else {
            Lower::Unknown
        };
        let v = self.unary("scale", a, bounded, lower);
        self.tag(v, u64::from(k.to_bits()))
    }

    fn add_scalar(&mut self, a: Var, k: f32) -> Var {
        let bounded = self.bounded_of(a);
        // The blessed route to `Positive`: x ≥ 0 plus a positive constant k
        // rounds to ≥ max(x, k) ≥ k > 0 in f32 — this is the `ln(x + ε)`
        // idiom the domain checker wants to see.
        let lower = if k > 0.0 && self.lower_of(a) >= Lower::NonNeg {
            Lower::Positive
        } else if k == 0.0 {
            self.lower_of(a)
        } else {
            Lower::Unknown
        };
        let v = self.unary("add_scalar", a, bounded, lower);
        self.tag(v, u64::from(k.to_bits()))
    }

    fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (sa, sb) = (self.shape_of(a), self.shape_of(b));
        if sa.1 != sb.0 {
            self.diag(
                DiagnosticKind::ShapeMismatch,
                "matmul",
                format!("inner dimensions disagree: {sa:?} · {sb:?}"),
            );
        }
        let bounded = self.bounded_of(a) && self.bounded_of(b);
        let lower = self.nonneg_if_both(a, b);
        self.push_with("matmul", (sa.0, sb.1), &[a, b], bounded, None, lower)
    }

    fn transpose(&mut self, a: Var) -> Var {
        let (r, c) = self.shape_of(a);
        let bounded = self.bounded_of(a);
        let lower = self.lower_of(a);
        self.push_with("transpose", (c, r), &[a], bounded, None, lower)
    }

    fn spmm_with(&mut self, adj: &Rc<Csr>, adj_t: &Rc<Csr>, b: Var) -> Var {
        let sb = self.shape_of(b);
        if adj.rows() != adj_t.cols() || adj.cols() != adj_t.rows() {
            self.diag(
                DiagnosticKind::ShapeMismatch,
                "spmm",
                format!(
                    "adj_t {}×{} is not the transpose of adj {}×{}",
                    adj_t.rows(),
                    adj_t.cols(),
                    adj.rows(),
                    adj.cols()
                ),
            );
        }
        if adj.cols() != sb.0 {
            self.diag(
                DiagnosticKind::ShapeMismatch,
                "spmm",
                format!("adj is {}×{} but dense operand is {sb:?}", adj.rows(), adj.cols()),
            );
        }
        // The adjacency is a fixed constant, so boundedness follows b.
        let bounded = self.bounded_of(b);
        let v = self.push("spmm", (adj.rows(), sb.1), &[b], bounded, None);
        self.tag(v, Rc::as_ptr(adj) as usize as u64)
    }

    fn sigmoid(&mut self, a: Var) -> Var {
        // Mathematically positive, but σ(x) underflows to exact 0.0 for
        // x ≲ −90, so only NonNeg is f32-sound.
        self.unary("sigmoid", a, true, Lower::NonNeg)
    }

    fn tanh(&mut self, a: Var) -> Var {
        self.unary("tanh", a, true, Lower::Unknown)
    }

    fn leaky_relu(&mut self, a: Var, alpha: f32) -> Var {
        let bounded = self.bounded_of(a);
        // Identity on non-negative inputs, so a known bound passes through.
        let lower =
            if self.lower_of(a) >= Lower::NonNeg { self.lower_of(a) } else { Lower::Unknown };
        let v = self.unary("leaky_relu", a, bounded, lower);
        self.tag(v, u64::from(alpha.to_bits()))
    }

    fn relu(&mut self, a: Var) -> Var {
        let bounded = self.bounded_of(a);
        self.unary("relu", a, bounded, Lower::NonNeg)
    }

    fn exp(&mut self, a: Var) -> Var {
        let bounded = self.bounded_of(a);
        if !bounded {
            self.diag(
                DiagnosticKind::UnstableDomain,
                "exp",
                "exp of an unbounded input: overflows to inf once logits drift; \
                 bound the input (sigmoid/tanh/softmax/normalize) or use softplus"
                    .to_string(),
            );
        }
        // e^x underflows to exact 0.0 below x ≈ −103: NonNeg, not Positive.
        self.unary("exp", a, bounded, Lower::NonNeg)
    }

    fn softplus(&mut self, a: Var) -> Var {
        // Tape's softplus forward is the numerically stable
        // `max(x, 0) + ln(1 + e^{-|x|})`, so no stability diagnostic here.
        let bounded = self.bounded_of(a);
        self.unary("softplus", a, bounded, Lower::NonNeg)
    }

    fn ln(&mut self, a: Var) -> Var {
        if self.lower_of(a) != Lower::Positive {
            self.diag(
                DiagnosticKind::UnstableDomain,
                "ln",
                "ln of a value not provably bounded away from zero: yields -inf/NaN \
                 the moment an entry reaches 0; use the ln(x + \u{3b5}) idiom \
                 (add_scalar of a non-negative input with \u{3b5} > 0)"
                    .to_string(),
            );
        }
        // ln of a bounded positive interval is bounded; the output can be
        // negative (inputs in (0, 1)), so the lower bound is Unknown.
        let bounded = self.bounded_of(a) && self.lower_of(a) == Lower::Positive;
        self.unary("ln", a, bounded, Lower::Unknown)
    }

    fn div(&mut self, a: Var, b: Var) -> Var {
        if self.lower_of(b) != Lower::Positive {
            self.diag(
                DiagnosticKind::UnstableDomain,
                "div",
                "division by a value not provably bounded away from zero: yields \
                 \u{b1}inf/NaN the moment an entry reaches 0; add a positive \u{3b5} \
                 to a non-negative divisor first"
                    .to_string(),
            );
        }
        // A bounded numerator over a divisor bounded away from zero stays
        // bounded; quotients of non-negatives can underflow to 0 → NonNeg.
        let divisor_safe = self.lower_of(b) == Lower::Positive;
        let bounded = self.bounded_of(a) && self.bounded_of(b) && divisor_safe;
        let lower = if self.lower_of(a) >= Lower::NonNeg && divisor_safe {
            Lower::NonNeg
        } else {
            Lower::Unknown
        };
        self.require_same("div", a, b);
        let shape = self.shape_of(a);
        self.push_with("div", shape, &[a, b], bounded, None, lower)
    }

    fn sqrt(&mut self, a: Var) -> Var {
        if self.lower_of(a) == Lower::Unknown {
            self.diag(
                DiagnosticKind::UnstableDomain,
                "sqrt",
                "sqrt of a value not provably non-negative: yields NaN for any \
                 negative entry; square, relu, or add a positive \u{3b5} first"
                    .to_string(),
            );
        }
        // √ preserves both non-negativity and positivity exactly in f32
        // (no underflow: √x ≥ x for x in [0, 1]).
        let bounded = self.bounded_of(a);
        let lower = self.lower_of(a);
        self.unary("sqrt", a, bounded, lower)
    }

    fn add_row(&mut self, a: Var, row: Var) -> Var {
        let (sa, sr) = (self.shape_of(a), self.shape_of(row));
        if sr != (1, sa.1) {
            self.diag(
                DiagnosticKind::ShapeMismatch,
                "add_row",
                format!("row vector is {sr:?}, want (1, {}) to broadcast over {sa:?}", sa.1),
            );
        }
        let bounded = self.bounded_of(a) && self.bounded_of(row);
        let lower = if self.lower_of(a) >= Lower::NonNeg && self.lower_of(row) >= Lower::NonNeg {
            self.lower_of(a).max(self.lower_of(row))
        } else {
            Lower::Unknown
        };
        self.push_with("add_row", sa, &[a, row], bounded, None, lower)
    }

    fn mul_row(&mut self, a: Var, row: Var) -> Var {
        let (sa, sr) = (self.shape_of(a), self.shape_of(row));
        if sr != (1, sa.1) {
            self.diag(
                DiagnosticKind::ShapeMismatch,
                "mul_row",
                format!("row vector is {sr:?}, want (1, {}) to broadcast over {sa:?}", sa.1),
            );
        }
        let bounded = self.bounded_of(a) && self.bounded_of(row);
        let lower = self.nonneg_if_both(a, row);
        self.push_with("mul_row", sa, &[a, row], bounded, None, lower)
    }

    fn mul_col(&mut self, a: Var, col: Var) -> Var {
        let (sa, sc) = (self.shape_of(a), self.shape_of(col));
        if sc != (sa.0, 1) {
            self.diag(
                DiagnosticKind::ShapeMismatch,
                "mul_col",
                format!("column vector is {sc:?}, want ({}, 1) to broadcast over {sa:?}", sa.0),
            );
        }
        let bounded = self.bounded_of(a) && self.bounded_of(col);
        let lower = self.nonneg_if_both(a, col);
        self.push_with("mul_col", sa, &[a, col], bounded, None, lower)
    }

    fn sum_all(&mut self, a: Var) -> Var {
        let bounded = self.bounded_of(a);
        let lower = self.nonneg_reduce(a);
        self.push_with("sum_all", (1, 1), &[a], bounded, None, lower)
    }

    fn mean_all(&mut self, a: Var) -> Var {
        let bounded = self.bounded_of(a);
        let lower = self.nonneg_reduce(a);
        self.push_with("mean_all", (1, 1), &[a], bounded, None, lower)
    }

    fn row_sum(&mut self, a: Var) -> Var {
        let (r, _) = self.shape_of(a);
        let bounded = self.bounded_of(a);
        let lower = self.nonneg_reduce(a);
        self.push_with("row_sum", (r, 1), &[a], bounded, None, lower)
    }

    fn col_mean(&mut self, a: Var) -> Var {
        let (_, c) = self.shape_of(a);
        let bounded = self.bounded_of(a);
        let lower = self.nonneg_reduce(a);
        self.push_with("col_mean", (1, c), &[a], bounded, None, lower)
    }

    fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let rows = parts.first().map_or(0, |&p| self.shape_of(p).0);
        let mut cols = 0;
        let mut bounded = true;
        // The concatenation's bound is the weakest bound among its parts.
        let mut lower = Lower::Positive;
        for &p in parts {
            let sp = self.shape_of(p);
            if sp.0 != rows {
                self.diag(
                    DiagnosticKind::ShapeMismatch,
                    "concat_cols",
                    format!("part has {} rows, first part has {rows}", sp.0),
                );
            }
            cols += sp.1;
            bounded &= self.bounded_of(p);
            lower = lower.min(self.lower_of(p));
        }
        if parts.is_empty() {
            lower = Lower::Unknown;
        }
        self.push_with("concat_cols", (rows, cols), parts, bounded, None, lower)
    }

    fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let sa = self.shape_of(a);
        if start > end || end > sa.1 {
            self.diag(
                DiagnosticKind::ShapeMismatch,
                "slice_cols",
                format!("column slice [{start}, {end}) out of bounds for {sa:?}"),
            );
        }
        let bounded = self.bounded_of(a);
        let lower = self.lower_of(a);
        let v = self.push_with(
            "slice_cols",
            (sa.0, end.saturating_sub(start)),
            &[a],
            bounded,
            None,
            lower,
        );
        self.tag(v, ((start as u64) << 32) | (end as u64 & 0xFFFF_FFFF))
    }

    fn gather(&mut self, a: Var, idx: Rc<Vec<usize>>) -> Var {
        let sa = self.shape_of(a);
        if let Some(&bad) = idx.iter().find(|&&i| i >= sa.0) {
            self.diag(
                DiagnosticKind::IndexRange,
                "gather",
                format!("index {bad} out of range for a table with {} rows", sa.0),
            );
        }
        let bounded = self.bounded_of(a);
        let lower = self.lower_of(a);
        let v = self.push_with("gather", (idx.len(), sa.1), &[a], bounded, None, lower);
        self.tag(v, Rc::as_ptr(&idx) as usize as u64)
    }

    fn layer_norm_rows(&mut self, a: Var, eps: f32) -> Var {
        let v = self.unary("layer_norm_rows", a, true, Lower::Unknown);
        self.tag(v, u64::from(eps.to_bits()))
    }

    fn l2_normalize_heads(&mut self, a: Var, eps: f32, heads: usize) -> Var {
        let c = self.shape_of(a).1;
        if heads == 0 || !c.is_multiple_of(heads) {
            self.diag(
                DiagnosticKind::ShapeMismatch,
                "l2_normalize_rows",
                format!("width {c} does not split into {heads} heads"),
            );
        }
        // Rescaling by a positive norm preserves sign (entrywise).
        let lower = self.nonneg_reduce(a);
        let v = self.unary("l2_normalize_rows", a, true, lower);
        self.tag(v, ((heads as u64) << 32) | u64::from(eps.to_bits()))
    }

    fn head_dots(&mut self, a: impl Into<Rows>, b: impl Into<Rows>, heads: usize) -> Var {
        let (a, b) = (a.into(), b.into());
        let (sa, sb) = (self.check_rows("row_dots", &a), self.check_rows("row_dots", &b));
        if sa != sb {
            self.diag(
                DiagnosticKind::ShapeMismatch,
                "row_dots",
                format!("operands read {sa:?} and {sb:?} (edges, width)"),
            );
        }
        let (r, c) = sa;
        if heads == 0 || c % heads != 0 {
            self.diag(
                DiagnosticKind::ShapeMismatch,
                "row_dots",
                format!("width {c} does not split into {heads} heads"),
            );
        }
        let (av, bv) = (a.var(), b.var());
        let bounded = self.bounded_of(av) && self.bounded_of(bv);
        let lower = self.nonneg_if_both(av, bv);
        let v = self.push_with("row_dots", (r, heads), &[av, bv], bounded, None, lower);
        self.tag(v, heads as u64 ^ rows_attr(&a).rotate_left(16) ^ rows_attr(&b).rotate_left(40))
    }

    fn softmax_rows(&mut self, a: Var) -> Var {
        // Softmax entries underflow to exact 0.0 once logits spread past
        // ~ln(f32::MAX): NonNeg, not Positive.
        self.unary("softmax_rows", a, true, Lower::NonNeg)
    }

    fn segment_softmax(&mut self, logits: Var, seg: Rc<Vec<usize>>) -> Var {
        let sl = self.shape_of(logits);
        if sl.1 == 0 {
            self.diag(
                DiagnosticKind::ShapeMismatch,
                "segment_softmax",
                format!("logits must be E × H with H ≥ 1, got {sl:?}"),
            );
        }
        self.check_segments("segment_softmax", &seg, sl.0);
        let v = self.push_with("segment_softmax", sl, &[logits], true, None, Lower::NonNeg);
        self.tag(v, Rc::as_ptr(&seg) as usize as u64)
    }

    fn segment_weighted_sum(&mut self, w: Var, v: impl Into<Rows>, seg: Rc<Vec<usize>>) -> Var {
        let rows = v.into();
        let v = rows.var();
        let sw = self.shape_of(w);
        let sv = self.check_rows("segment_weighted_sum", &rows);
        if let Rows::Dst(_, edges) | Rows::Src(_, edges) = &rows {
            if *edges.seg != *seg {
                self.diag(
                    DiagnosticKind::IndexRange,
                    "segment_weighted_sum",
                    "the table's edge list has another segment pointer".to_string(),
                );
            }
        }
        if sw.1 == 0 || sv.1 % sw.1 != 0 {
            self.diag(
                DiagnosticKind::ShapeMismatch,
                "segment_weighted_sum",
                format!("{} weight columns do not split {} value columns into heads", sw.1, sv.1),
            );
        }
        if sw.0 != sv.0 {
            self.diag(
                DiagnosticKind::ShapeMismatch,
                "segment_weighted_sum",
                format!("{} weights for {} value rows", sw.0, sv.0),
            );
        }
        self.check_segments("segment_weighted_sum", &seg, sv.0);
        let n = seg.len().saturating_sub(1);
        let bounded = self.bounded_of(w) && self.bounded_of(v);
        let lower = self.nonneg_if_both(w, v);
        let out = self.push_with("segment_weighted_sum", (n, sv.1), &[w, v], bounded, None, lower);
        self.tag(out, Rc::as_ptr(&seg) as usize as u64 ^ rows_attr(&rows).rotate_left(32))
    }

    fn weighted_block_sum(&mut self, t: Var, eta: Var) -> Var {
        let (st, se) = (self.shape_of(t), self.shape_of(eta));
        if st.0 != se.0 {
            self.diag(
                DiagnosticKind::ShapeMismatch,
                "weighted_block_sum",
                format!("{} block rows for {} weight rows", st.0, se.0),
            );
        }
        if se.1 == 0 || st.1 == 0 || st.1 % se.1 != 0 {
            self.diag(
                DiagnosticKind::ShapeMismatch,
                "weighted_block_sum",
                format!("block matrix {st:?} does not split into {} equal column blocks", se.1),
            );
        }
        let bounded = self.bounded_of(t) && self.bounded_of(eta);
        let lower = self.nonneg_if_both(t, eta);
        self.push_with(
            "weighted_block_sum",
            (st.0, st.1 / se.1.max(1)),
            &[t, eta],
            bounded,
            None,
            lower,
        )
    }

    fn dropout_mask(&mut self, a: Var, mask: Matrix) -> Var {
        let sa = self.shape_of(a);
        if mask.shape() != sa {
            self.diag(
                DiagnosticKind::ShapeMismatch,
                "dropout",
                format!("mask is {:?}, input is {sa:?}", mask.shape()),
            );
        }
        let bounded = self.bounded_of(a);
        // The mask is entrywise 0 or 1/(1-p) ≥ 0, so non-negativity survives
        // but positivity does not (masked entries become exact zeros).
        let lower = self.nonneg_reduce(a);
        self.push_with("dropout", sa, &[a], bounded, None, lower)
    }
}
