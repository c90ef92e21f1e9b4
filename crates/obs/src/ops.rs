//! Per-op-kind profiling table fed by `dgnn-autograd`'s `TapeObserver`.
//!
//! Keys are the portable op names shared by `Tape` and `ShapeTracer`
//! (`dgnn_autograd::meta::ALL_OPS`): `"matmul"`, `"segment_weighted_sum"`,
//! `"segment_softmax"`, … — so a profile row lines up directly with the
//! static analysis' view of the same graph. Keyed by `&'static str` at the
//! recording site; the key string is only materialized on first insert.

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Which half of the step an op measurement belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpPhase {
    /// Op execution while recording the graph.
    Forward,
    /// The op's arm of the reverse sweep.
    Backward,
}

/// Accumulated calls and wall time for one direction of one op kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of invocations.
    pub calls: u64,
    /// Total wall time, nanoseconds.
    pub total_ns: u64,
}

/// Forward + backward profile of one op kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStat {
    /// Forward-pass accumulation.
    pub forward: PhaseStat,
    /// Backward-pass accumulation.
    pub backward: PhaseStat,
}

thread_local! {
    static OPS: RefCell<BTreeMap<String, OpStat>> = const { RefCell::new(BTreeMap::new()) };
}

/// Accumulates one op invocation (no-op while disabled).
pub fn record_op(kind: &'static str, phase: OpPhase, dur_ns: u64) {
    if !crate::is_enabled() {
        return;
    }
    OPS.with(|m| {
        let mut m = m.borrow_mut();
        let stat = match m.get_mut(kind) {
            Some(s) => s,
            None => m.entry(kind.to_string()).or_default(),
        };
        let p = match phase {
            OpPhase::Forward => &mut stat.forward,
            OpPhase::Backward => &mut stat.backward,
        };
        p.calls += 1;
        p.total_ns += dur_ns;
    });
}

pub(crate) fn snapshot_ops() -> BTreeMap<String, OpStat> {
    OPS.with(|m| m.borrow().clone())
}

pub(crate) fn clear() {
    OPS.with(|m| m.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_independently() {
        crate::enable();
        clear();
        record_op("gather", OpPhase::Forward, 5);
        record_op("gather", OpPhase::Backward, 7);
        record_op("gather", OpPhase::Backward, 7);
        let snap = snapshot_ops();
        crate::disable();
        let s = &snap["gather"];
        assert_eq!((s.forward.calls, s.forward.total_ns), (1, 5));
        assert_eq!((s.backward.calls, s.backward.total_ns), (2, 14));
        clear();
    }
}
