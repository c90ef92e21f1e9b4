//! The executable half of a memory plan: statically scheduled free points
//! that [`crate::Tape`] applies while recording and backpropagating.
//!
//! `dgnn-analysis` computes the full [`MemoryPlan`] (liveness intervals,
//! buffer classes, peak-bytes figures, safety proof) over a `ShapeTracer`
//! graph and *lowers* it to this minimal [`TapePlan`] — two per-node free
//! lists — which is all the executor needs. Keeping the executable type
//! here avoids a dependency cycle (`analysis` depends on `autograd`, not
//! the other way around).
//!
//! [`MemoryPlan`]: https://docs.rs/dgnn-analysis

use std::rc::Rc;

use dgnn_tensor::BufferPool;

use crate::params::ParamSet;
use crate::recorder::Var;
use crate::tape::Tape;

/// Statically scheduled value-free points for one compute graph.
///
/// `forward_free[i]` lists the nodes whose forward values die once node `i`
/// has been recorded; `backward_free[i]` lists the nodes whose values die
/// once node `i`'s backward step has run. Node indices are `u32` — a graph
/// with 4 billion nodes has bigger problems than memory planning.
#[derive(Debug, Clone, Default)]
pub struct TapePlan {
    pub(crate) forward_free: Vec<Vec<u32>>,
    pub(crate) backward_free: Vec<Vec<u32>>,
}

impl TapePlan {
    /// Builds a plan from per-node free lists (one entry per graph node).
    ///
    /// # Panics
    /// Panics if the two lists disagree in length or any index is out of
    /// range — a malformed plan must never reach the executor.
    pub fn new(forward_free: Vec<Vec<u32>>, backward_free: Vec<Vec<u32>>) -> Self {
        assert_eq!(
            forward_free.len(),
            backward_free.len(),
            "TapePlan: forward/backward free lists cover different node counts"
        );
        let n = forward_free.len() as u32;
        for (i, frees) in forward_free.iter().enumerate() {
            for &d in frees {
                assert!(d < n, "TapePlan: forward free of node {d} out of range at step {i}");
                assert!(
                    d <= i as u32,
                    "TapePlan: node {d} scheduled to free before it exists (step {i})"
                );
            }
        }
        for &d in backward_free.iter().flatten() {
            assert!(d < n, "TapePlan: backward free of node {d} out of range");
        }
        Self { forward_free, backward_free }
    }

    /// Number of graph nodes the plan covers.
    pub fn len(&self) -> usize {
        self.forward_free.len()
    }

    /// True when the plan covers an empty graph.
    pub fn is_empty(&self) -> bool {
        self.forward_free.is_empty()
    }

    /// Total number of scheduled free points (forward + backward).
    pub fn num_frees(&self) -> usize {
        self.forward_free.iter().map(Vec::len).sum::<usize>()
            + self.backward_free.iter().map(Vec::len).sum::<usize>()
    }
}

/// Drives planned training steps: owns the plan and a [`BufferPool`]
/// that persists across steps so each step's retired buffers feed the next.
///
/// ```text
/// let mut h = PlanHarness::new(plan);
/// for batch in batches {
///     let mut tape = h.begin_step();          // pool installed, plan armed
///     let loss = model.record_step(&mut tape, batch);
///     params.zero_grads();
///     let l = tape.backward_into(loss, &mut params);
///     optimizer.step(&mut params);
///     h.end_step(tape);                       // remaining values retired
/// }
/// ```
#[derive(Debug)]
pub struct PlanHarness {
    plan: Rc<TapePlan>,
    pool: Option<BufferPool>,
}

impl PlanHarness {
    /// Wraps a lowered memory plan with a fresh buffer pool.
    pub fn new(plan: TapePlan) -> Self {
        Self { plan: Rc::new(plan), pool: Some(BufferPool::new()) }
    }

    /// The memory plan being executed.
    pub fn plan(&self) -> &TapePlan {
        &self.plan
    }

    /// Installs the pool on this thread and returns a tape with the
    /// harness's plan armed.
    ///
    /// # Panics
    /// Panics if called again before [`PlanHarness::end_step`] — a harness
    /// drives one step at a time.
    pub fn begin_step(&mut self) -> Tape {
        self.pool
            .take()
            .expect("PlanHarness::begin_step: previous step not closed with end_step")
            .install();
        Tape::new().with_plan(Rc::clone(&self.plan))
    }

    /// Closes a step: drops the tape (retiring every remaining value into
    /// the pool) and takes the pool back off the thread.
    ///
    /// # Panics
    /// Panics if the pool was uninstalled behind the harness's back.
    pub fn end_step(&mut self, tape: Tape) {
        drop(tape);
        self.pool =
            Some(BufferPool::uninstall().expect("PlanHarness::end_step: pool vanished mid-step"));
    }

    /// Convenience for trainers: runs one full planned step — records the
    /// graph via `record`, zeroes gradients, backpropagates into `params` —
    /// and returns the loss value.
    pub fn step<F: FnOnce(&mut Tape) -> Var>(&mut self, params: &mut ParamSet, record: F) -> f32 {
        let mut tape = self.begin_step();
        let loss = {
            let _fwd = dgnn_obs::span("forward");
            record(&mut tape)
        };
        params.zero_grads();
        let l = {
            let _bwd = dgnn_obs::span("backward");
            tape.backward_into(loss, params)
        };
        self.end_step(tape);
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "free lists cover different node counts")]
    fn mismatched_lengths_rejected() {
        let _ = TapePlan::new(vec![vec![]], vec![]);
    }

    #[test]
    #[should_panic(expected = "scheduled to free before it exists")]
    fn premature_free_rejected() {
        let _ = TapePlan::new(vec![vec![1], vec![]], vec![vec![], vec![]]);
    }

    #[test]
    fn free_counts_add_up() {
        let p = TapePlan::new(vec![vec![], vec![0]], vec![vec![1], vec![]]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_frees(), 2);
    }
}
