//! Static liveness analysis and memory planning over a traced graph.
//!
//! A second abstract interpretation pass after shape checking: given the
//! trace of one training step, compute when each node's forward value is
//! read for the *last* time — in the forward sweep **and** in the reverse
//! sweep, accounting for which inputs each op's gradient actually reads
//! ([`dgnn_autograd::meta::grad_reads`]) — and emit a [`MemoryPlan`] that
//! tells the tape exactly where every intermediate can be retired.
//!
//! # The timeline
//!
//! A trace of `N` nodes defines `2N` global time points:
//!
//! * forward time `i` (`0 ≤ i < N`): node `i`'s value is computed; it reads
//!   its inputs here,
//! * backward event of node `j` at time `2N−1−j`: the reverse sweep
//!   processes node `j`; it reads the inputs named by `grad_reads(op_j)`,
//!   its own output when the rule differentiates through it
//!   (e.g. `sigmoid`), and nothing else. Events only occur for
//!   `j ≤ loss.index()` — the reverse sweep starts at the loss — and only
//!   nodes *inside the loss cone* read values there: a node with no path
//!   to the loss never receives a gradient, so dead subgraphs and
//!   eval-only outputs never hold buffers into the reverse sweep.
//!
//! A node's *last use* is the latest time any of those reads touches its
//! value; past it the value is provably dead and its buffer can be recycled.
//! The loss and every declared output are *pinned* ([`FreePoint::Never`]):
//! callers read them after the step, outside the timeline.
//!
//! The plan also assigns each node a shape-bucketed *reuse class*
//! ([`NodePlan::buffer`]): a greedy interval allocation in which two nodes
//! share a class only when their live intervals are disjoint and their
//! element counts are equal — exactly the reuse the runtime
//! [`dgnn_tensor::BufferPool`] performs dynamically. The class assignment is
//! what the independent checker ([`crate::check_plan`]) proves overlap-free.

use std::collections::BTreeMap;

use dgnn_autograd::meta::{grad_reads, InputReads};
use dgnn_autograd::{TapePlan, Var};

use crate::tracer::ShapeTracer;

/// Where the executor retires one node's forward value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreePoint {
    /// Immediately after the node with this index is pushed in forward.
    Forward(usize),
    /// Immediately after the reverse sweep processes the node with this
    /// index (which is always `≤ loss.index()`, so the event fires).
    Backward(usize),
    /// Pinned: the loss or a declared output, read after the step ends.
    Never,
}

/// Per-node entry of a [`MemoryPlan`].
#[derive(Debug, Clone)]
pub struct NodePlan {
    /// Static op name (provenance for reports).
    pub op: &'static str,
    /// Forward value shape.
    pub shape: (usize, usize),
    /// Bytes of the forward value's backing storage.
    pub bytes: usize,
    /// Latest global time (`0..2N`) at which the value is read; the node's
    /// own birth time when nothing ever reads it.
    pub last_use: usize,
    /// Where the value is retired.
    pub free: FreePoint,
    /// Shape-bucketed reuse class: nodes with the same `buffer` share one
    /// backing store (their live intervals are disjoint by construction).
    pub buffer: usize,
}

/// The full static memory plan for one traced training step.
///
/// Produced by [`plan`], proven safe by [`crate::check_plan`], lowered to
/// the executable [`TapePlan`] with [`MemoryPlan::tape_plan`].
#[derive(Debug)]
pub struct MemoryPlan {
    nodes: Vec<NodePlan>,
    num_buffers: usize,
    peak_live_bytes: usize,
    total_value_bytes: usize,
}

impl MemoryPlan {
    /// Per-node plan entries, indexed by node.
    pub fn nodes(&self) -> &[NodePlan] {
        &self.nodes
    }

    /// Number of traced nodes the plan covers.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct reuse classes — the backing stores a pooled
    /// execution of this step actually needs.
    pub fn num_buffers(&self) -> usize {
        self.num_buffers
    }

    /// Static peak of simultaneously-live value bytes across the step.
    pub fn peak_live_bytes(&self) -> usize {
        self.peak_live_bytes
    }

    /// Bytes an *unplanned* execution holds at its high-water mark: every
    /// node's value at once (nothing is retired until the tape drops).
    pub fn total_value_bytes(&self) -> usize {
        self.total_value_bytes
    }

    /// Number of frees the plan schedules (forward + backward).
    pub fn num_frees(&self) -> usize {
        self.nodes.iter().filter(|n| n.free != FreePoint::Never).count()
    }

    /// Lowers the plan to the executable form the tape consumes.
    pub fn tape_plan(&self) -> TapePlan {
        let n = self.nodes.len();
        let mut forward_free = vec![Vec::new(); n];
        let mut backward_free = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            match node.free {
                FreePoint::Forward(t) => forward_free[t].push(i as u32),
                FreePoint::Backward(j) => backward_free[j].push(i as u32),
                FreePoint::Never => {}
            }
        }
        TapePlan::new(forward_free, backward_free)
    }

    /// Machine-readable summary (stable keys; consumed by the bench
    /// harness's `analysis-baseline.json` regression gate).
    pub fn to_json(&self) -> String {
        let (mut fwd, mut bwd) = (0usize, 0usize);
        for node in &self.nodes {
            match node.free {
                FreePoint::Forward(_) => fwd += 1,
                FreePoint::Backward(_) => bwd += 1,
                FreePoint::Never => {}
            }
        }
        format!(
            "{{\"num_nodes\":{},\"num_buffers\":{},\"peak_live_bytes\":{},\
             \"total_value_bytes\":{},\"forward_frees\":{},\"backward_frees\":{}}}",
            self.nodes.len(),
            self.num_buffers,
            self.peak_live_bytes,
            self.total_value_bytes,
            fwd,
            bwd,
        )
    }
}

/// Computes the memory plan for a traced step.
///
/// * `loss` — the scalar the trainer differentiates; the reverse sweep
///   visits exactly the nodes `0..=loss.index()`.
/// * `outputs` — nodes the caller reads after the step (cached embeddings,
///   eval scores); they are pinned alongside the loss.
///
/// The planner is conservative: a backward read is assumed to happen even
/// when no gradient reaches the consumer at run time (the value is merely
/// held a little longer), and unknown ops fall back to
/// "reads everything, keeps its output" via [`grad_reads`].
///
/// # Panics
/// Panics if `loss` or any output is out of range for the trace.
pub fn plan(tracer: &ShapeTracer, loss: Var, outputs: &[Var]) -> MemoryPlan {
    let nodes = tracer.nodes();
    let n = nodes.len();
    let l = loss.index();
    assert!(l < n, "loss node {l} out of range for a trace of {n} nodes");

    let mut pinned = vec![false; n];
    pinned[l] = true;
    for v in outputs {
        assert!(v.index() < n, "output node {} out of range for a trace of {n} nodes", v.index());
        pinned[v.index()] = true;
    }

    // Gradients only ever reach nodes from which the loss is reachable, so
    // a backward event reads values only for nodes inside the loss cone —
    // dead subgraphs and eval-only outputs never extend a live range into
    // the reverse sweep. (The event itself still fires for every c ≤ loss,
    // so backward *frees* on dead nodes remain well-formed.)
    let mut grad_live = vec![false; n];
    let mut stack = vec![l];
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut grad_live[i], true) {
            continue;
        }
        stack.extend(nodes[i].inputs.iter().copied());
    }

    // --- last-use analysis -----------------------------------------------
    // Initialise to birth time: an unread value dies the moment it exists.
    let mut last_use: Vec<usize> = (0..n).collect();
    for (c, node) in nodes.iter().enumerate() {
        // Forward: node c reads every input when it is computed.
        for &i in &node.inputs {
            last_use[i] = last_use[i].max(c);
        }
        // Backward: the event for node c only exists when c ≤ loss, and
        // only reads values when a gradient can reach c at all.
        if c <= l && grad_live[c] {
            let t = 2 * n - 1 - c;
            let reads = grad_reads(node.op);
            match reads.inputs {
                InputReads::None => {}
                InputReads::First => {
                    if let Some(&i) = node.inputs.first() {
                        last_use[i] = last_use[i].max(t);
                    }
                }
                InputReads::All => {
                    for &i in &node.inputs {
                        last_use[i] = last_use[i].max(t);
                    }
                }
            }
            if reads.output {
                last_use[c] = last_use[c].max(t);
            }
        }
    }
    // The reverse sweep reads the loss value itself before it starts.
    last_use[l] = last_use[l].max(2 * n - 1 - l);

    // --- free points -------------------------------------------------------
    let free: Vec<FreePoint> = (0..n)
        .map(|i| {
            if pinned[i] {
                FreePoint::Never
            } else if last_use[i] < n {
                FreePoint::Forward(last_use[i])
            } else {
                FreePoint::Backward(2 * n - 1 - last_use[i])
            }
        })
        .collect();

    // --- greedy shape-bucketed buffer assignment ---------------------------
    // Walk the global timeline; at each forward time the new node claims a
    // retired buffer of its exact element count when one exists, and frees
    // scheduled at a time release buffers for strictly later times (the
    // runtime allocates a node's value before applying that node's frees).
    let horizon = 2 * n;
    let mut free_at: Vec<Vec<usize>> = vec![Vec::new(); horizon.max(1)];
    for (i, f) in free.iter().enumerate() {
        match *f {
            FreePoint::Forward(t) => free_at[t].push(i),
            FreePoint::Backward(j) => free_at[2 * n - 1 - j].push(i),
            FreePoint::Never => {}
        }
    }
    let elems = |i: usize| nodes[i].shape.0 * nodes[i].shape.1;
    let mut retired: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut buffer_of = vec![0usize; n];
    let mut num_buffers = 0usize;
    for t in 0..horizon {
        if t < n {
            let want = elems(t);
            buffer_of[t] = match retired.get_mut(&want).and_then(Vec::pop) {
                Some(id) => id,
                None => {
                    num_buffers += 1;
                    num_buffers - 1
                }
            };
        }
        for &i in &free_at[t] {
            retired.entry(elems(i)).or_default().push(buffer_of[i]);
        }
    }

    // --- peak live bytes ---------------------------------------------------
    // Difference array over the timeline: +bytes at birth, −bytes just
    // after the free time (pinned values stay live through the horizon).
    let bytes = |i: usize| elems(i) * size_of::<f32>();
    let mut delta = vec![0isize; horizon + 1];
    for i in 0..n {
        delta[i] += bytes(i) as isize;
        let end = match free[i] {
            FreePoint::Forward(t) => t,
            FreePoint::Backward(j) => 2 * n - 1 - j,
            FreePoint::Never => horizon - 1,
        };
        delta[end + 1] -= bytes(i) as isize;
    }
    let mut live = 0isize;
    let mut peak = 0isize;
    for d in &delta {
        live += d;
        peak = peak.max(live);
    }

    let node_plans: Vec<NodePlan> = (0..n)
        .map(|i| NodePlan {
            op: nodes[i].op,
            shape: nodes[i].shape,
            bytes: bytes(i),
            last_use: last_use[i],
            free: free[i],
            buffer: buffer_of[i],
        })
        .collect();
    let total_value_bytes = (0..n).map(bytes).sum();

    MemoryPlan {
        nodes: node_plans,
        num_buffers,
        peak_live_bytes: peak as usize,
        total_value_bytes,
    }
}

#[cfg(test)]
mod tests {
    use dgnn_autograd::{ParamSet, Recorder};
    use dgnn_tensor::Init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    fn tiny_trace() -> (ShapeTracer, Var) {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let x = params.add("x", Init::Uniform(0.5).build(4, 4, &mut rng));
        let w = params.add("w", Init::Uniform(0.5).build(4, 4, &mut rng));
        let mut tr = ShapeTracer::new();
        let x = tr.param(&params, x);
        let w = tr.param(&params, w);
        let h = tr.matmul(x, w);
        let a = tr.sigmoid(h);
        let loss = tr.mean_all(a);
        (tr, loss)
    }

    #[test]
    fn plan_passes_its_own_checker_and_reuses_buffers() {
        let (tr, loss) = tiny_trace();
        let p = plan(&tr, loss, &[]);
        assert!(crate::check_plan(&tr, loss, &[], &p).is_ok());
        assert!(p.num_frees() > 0, "nothing freed in a chain graph");
        assert!(p.peak_live_bytes() <= p.total_value_bytes());
        assert!(matches!(p.nodes()[loss.index()].free, FreePoint::Never));
    }

    #[test]
    fn to_json_has_stable_keys() {
        let (tr, loss) = tiny_trace();
        let json = plan(&tr, loss, &[]).to_json();
        for key in [
            "\"num_nodes\":",
            "\"num_buffers\":",
            "\"peak_live_bytes\":",
            "\"total_value_bytes\":",
            "\"forward_frees\":",
            "\"backward_frees\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn dead_branches_free_in_forward_not_backward() {
        use dgnn_tensor::Matrix;
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(4);
        let x = params.add("x", Init::Uniform(0.5).build(4, 4, &mut rng));
        let mut tr = ShapeTracer::new();
        let xv = tr.param(&params, x);
        let c = tr.constant(Matrix::full(4, 4, 0.5));
        // Dead branch: `mul` gradients read both operands, but no gradient
        // ever reaches this node — the constant must not be held into the
        // reverse sweep on its account.
        let dead = tr.mul(xv, c);
        let s = tr.sigmoid(xv);
        let loss = tr.mean_all(s);

        let p = plan(&tr, loss, &[]);
        assert!(
            matches!(p.nodes()[c.index()].free, FreePoint::Forward(_)),
            "dead mul's constant operand held into backward: {:?}",
            p.nodes()[c.index()].free
        );
        assert!(matches!(p.nodes()[dead.index()].free, FreePoint::Forward(_)));
        assert!(crate::check_plan(&tr, loss, &[], &p).is_ok());
    }

    #[test]
    fn declared_outputs_are_pinned() {
        let (tr, loss) = tiny_trace();
        let out = Var::from_index(2); // the matmul node
        let p = plan(&tr, loss, &[out]);
        assert!(matches!(p.nodes()[2].free, FreePoint::Never));
        assert!(crate::check_plan(&tr, loss, &[out], &p).is_ok());
    }
}
