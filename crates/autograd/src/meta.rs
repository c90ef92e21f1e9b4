//! Static per-op metadata: the portable name of every op a
//! [`crate::Recorder`] can record.
//!
//! Ops are keyed by the same `&'static str` names the `ShapeTracer` records
//! and [`crate::Tape`] profiles under (the two Recorder implementations
//! share one builder surface, so the names are the graph's portable
//! identity).

/// Every op name a [`crate::Recorder`] can record, in no particular order.
/// Used by tests to prove profiled op kinds are portable names.
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
