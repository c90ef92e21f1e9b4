//! Static per-op metadata: which forward values each op's backward pass
//! reads.
//!
//! The liveness planner in `dgnn-analysis` must know, for every traced op,
//! whether the reverse pass will read the op's *inputs*, its *output*, or
//! neither — e.g. `matmul` gradients need both inputs, `sigmoid` needs only
//! its own output, and `add` needs nothing beyond the incoming gradient.
//! This table is the single source of truth, kept in `dgnn-autograd` right
//! next to [`crate::Tape`]'s backward implementation so the executor and
//! the planner cannot drift: every entry mirrors one arm of the tape's
//! `backprop_node`.
//!
//! Ops are keyed by the same `&'static str` names the `ShapeTracer` records
//! (the two Recorder implementations share one builder surface, so the
//! names are the graph's portable identity).

/// Which of an op's inputs the backward pass reads as *values* (reading
/// only an input's shape does not count — the tape stores shapes
/// separately, so shape-only uses never pin a buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputReads {
    /// The gradient is computed from the incoming gradient alone.
    None,
    /// Only the first input's value is read (unary activations like
    /// `relu` that differentiate through the pre-activation).
    First,
    /// Every input's value is read (`matmul`, `mul`, `div`, …).
    All,
}

/// Forward values an op's backward pass reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradReads {
    /// Input values read during backward.
    pub inputs: InputReads,
    /// True when the op's own forward output is read during backward
    /// (`sigmoid`/`tanh`-style gradients expressed in terms of `y`).
    pub output: bool,
}

/// Every op name a [`crate::Recorder`] can record, in no particular order.
/// Used by tests to prove the metadata table is total.
pub const ALL_OPS: &[&str] = &[
    "constant",
    "param",
    "add",
    "sub",
    "mul",
    "neg",
    "scale",
    "add_scalar",
    "matmul",
    "transpose",
    "spmm",
    "sigmoid",
    "tanh",
    "leaky_relu",
    "relu",
    "exp",
    "softplus",
    "ln",
    "div",
    "sqrt",
    "add_row",
    "mul_row",
    "mul_col",
    "sum_all",
    "mean_all",
    "row_sum",
    "col_mean",
    "concat_cols",
    "slice_cols",
    "gather",
    "layer_norm_rows",
    "l2_normalize_rows",
    "row_dots",
    "softmax_rows",
    "segment_softmax",
    "segment_weighted_sum",
    "weighted_block_sum",
    "dropout",
];

/// Backward-pass value reads for the op named `op`.
///
/// Unknown names get the fully conservative answer (all inputs + output),
/// which can only over-approximate liveness — a plan built for an unknown
/// op is pessimal, never unsound.
pub fn grad_reads(op: &str) -> GradReads {
    let (inputs, output) = match op {
        // Gradient is a reshape/scale/scatter of the incoming gradient;
        // shapes come from the tape's stored shape table.
        "constant" | "param" | "add" | "sub" | "neg" | "scale" | "add_scalar" | "transpose"
        | "spmm" | "add_row" | "sum_all" | "mean_all" | "row_sum" | "col_mean" | "concat_cols"
        | "slice_cols" | "gather" | "dropout" => (InputReads::None, false),
        // d/dx expressed through the pre-activation value.
        "leaky_relu" | "relu" | "softplus" | "l2_normalize_rows" | "ln" => {
            (InputReads::First, false)
        }
        // d/dx expressed through the op's own output.
        "sigmoid" | "tanh" | "exp" | "softmax_rows" | "segment_softmax" | "sqrt" => {
            (InputReads::None, true)
        }
        // Product rules: every operand appears in some partial.
        "mul" | "matmul" | "mul_row" | "mul_col" | "row_dots" | "segment_weighted_sum"
        | "weighted_block_sum" | "div" => (InputReads::All, false),
        // LayerNorm reads x (for μ, σ) and its normalized output y.
        "layer_norm_rows" => (InputReads::First, true),
        _ => (InputReads::All, true),
    };
    GradReads { inputs, output }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_total_over_all_ops() {
        for op in ALL_OPS {
            // The fallback arm is for *future* ops; every currently known
            // op must have a deliberate entry. Probe by checking that no
            // known op gets the (All, true) fallback unless it is
            // layer_norm-like — the only intentional (First, true).
            let r = grad_reads(op);
            assert!(
                !(r.inputs == InputReads::All && r.output),
                "op {op} fell through to the conservative fallback — add an explicit entry"
            );
        }
    }

    #[test]
    fn spot_checks_mirror_backprop() {
        assert_eq!(grad_reads("matmul").inputs, InputReads::All);
        assert_eq!(grad_reads("add"), GradReads { inputs: InputReads::None, output: false });
        assert_eq!(grad_reads("sigmoid"), GradReads { inputs: InputReads::None, output: true });
        assert_eq!(grad_reads("layer_norm_rows"), GradReads { inputs: InputReads::First, output: true });
        // Unknown ops are conservative, not unsound.
        assert_eq!(grad_reads("frobnicate"), GradReads { inputs: InputReads::All, output: true });
    }
}
