//! Independent safety proof for a [`MemoryPlan`].
//!
//! The planner ([`crate::plan`]) and this checker answer the same question
//! — "when is each value last read?" — but deliberately share no code: the
//! planner folds reads into a running per-node maximum while building free
//! points and buffer classes, whereas the checker enumerates every read
//! event from the trace directly and then verifies the *claimed* plan
//! against them. A bug in the planner's bookkeeping cannot also hide in the
//! checker's, so a plan that passes [`check_plan`] is safe to execute even
//! if the planner is wrong.
//!
//! The proof obligations:
//!
//! 1. every read of a node's value happens no later than its claimed free
//!    point (no use-after-free),
//! 2. the loss and every declared output are pinned (never freed),
//! 3. free points are well-formed: forward frees do not precede the node's
//!    own birth, backward frees land on events the reverse sweep actually
//!    visits (`j ≤ loss.index()` — a later event never fires and would
//!    leak the buffer),
//! 4. nodes sharing a reuse class have equal element counts and *strictly
//!    disjoint* live intervals (a value born at time `t` may not reuse a
//!    buffer freed at `t`: the runtime allocates before it frees),
//! 5. claimed byte sizes match the traced shapes.

use dgnn_autograd::meta::{grad_reads, InputReads};
use dgnn_autograd::Var;

use crate::planner::{FreePoint, MemoryPlan};
use crate::tracer::ShapeTracer;

/// Evidence that a plan passed every proof obligation.
#[derive(Debug, Clone, Copy)]
pub struct PlanProof {
    /// Nodes covered by the proof.
    pub nodes: usize,
    /// Individual read events checked against free points.
    pub reads_checked: usize,
    /// Reuse classes whose intervals were proven disjoint.
    pub buffers_checked: usize,
}

/// A concrete violation found in a claimed plan.
#[derive(Debug, Clone)]
pub struct PlanViolation {
    /// What is wrong, with the offending node/time/buffer inlined.
    pub message: String,
}

impl std::fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "memory plan violation: {}", self.message)
    }
}

fn violation<T>(message: String) -> Result<T, PlanViolation> {
    Err(PlanViolation { message })
}

/// Global time at which a claimed free point retires the value; `None`
/// means pinned (live through the whole step).
fn end_time(free: FreePoint, n: usize) -> Option<usize> {
    match free {
        FreePoint::Forward(t) => Some(t),
        FreePoint::Backward(j) => Some(2 * n - 1 - j),
        FreePoint::Never => None,
    }
}

/// Verifies a [`MemoryPlan`] against the trace it claims to cover.
///
/// `loss` and `outputs` must be the same roots the plan was built with —
/// the checker re-derives every read event and pinning obligation from
/// them, independently of the planner.
pub fn check_plan(
    tracer: &ShapeTracer,
    loss: Var,
    outputs: &[Var],
    plan: &MemoryPlan,
) -> Result<PlanProof, PlanViolation> {
    let nodes = tracer.nodes();
    let n = nodes.len();
    let l = loss.index();
    if plan.num_nodes() != n {
        return violation(format!("plan covers {} nodes but the trace has {n}", plan.num_nodes()));
    }
    if l >= n {
        return violation(format!("loss node {l} out of range for a trace of {n} nodes"));
    }

    // --- obligation 5: shapes and sizes ------------------------------------
    for (i, np) in plan.nodes().iter().enumerate() {
        if np.shape != nodes[i].shape {
            return violation(format!(
                "node {i}: plan shape {:?} disagrees with traced shape {:?}",
                np.shape, nodes[i].shape
            ));
        }
        let want = nodes[i].shape.0 * nodes[i].shape.1 * size_of::<f32>();
        if np.bytes != want {
            return violation(format!("node {i}: plan claims {} bytes, shape implies {want}", np.bytes));
        }
    }

    // --- obligation 2: pinning ---------------------------------------------
    for (what, v) in std::iter::once(("loss", loss)).chain(outputs.iter().map(|&v| ("output", v))) {
        if v.index() >= n {
            return violation(format!("{what} node {} out of range", v.index()));
        }
        if plan.nodes()[v.index()].free != FreePoint::Never {
            return violation(format!(
                "{what} node {} ({}) is freed by the plan but is read after the step",
                v.index(),
                nodes[v.index()].op
            ));
        }
    }

    // --- obligation 3: well-formed free points -----------------------------
    for (i, np) in plan.nodes().iter().enumerate() {
        match np.free {
            FreePoint::Forward(t) => {
                if t < i || t >= n {
                    return violation(format!(
                        "node {i}: forward free at time {t} is outside [{i}, {n})"
                    ));
                }
            }
            FreePoint::Backward(j) => {
                if j > l {
                    return violation(format!(
                        "node {i}: backward free at event {j} never fires (sweep stops at loss {l})"
                    ));
                }
            }
            FreePoint::Never => {}
        }
    }

    // --- obligation 1: no read after free ----------------------------------
    // Enumerate every read event straight off the trace and compare each
    // against the claimed end time of the value it touches.
    let mut reads_checked = 0usize;
    let mut check_read = |value: usize, time: usize, what: &str| -> Result<(), PlanViolation> {
        reads_checked += 1;
        if let Some(end) = end_time(plan.nodes()[value].free, n) {
            if time > end {
                return violation(format!(
                    "node {value} ({}) is freed at time {end} but {what} reads it at time {time}",
                    nodes[value].op
                ));
            }
        }
        Ok(())
    };
    // A backward event only reads values when a gradient can reach the
    // node — i.e. the node lies in the loss cone. Computed here by a
    // descending marking sweep (inputs always precede their consumers),
    // independent of the planner's stack-based reachability walk.
    let mut in_cone = vec![false; n];
    in_cone[l] = true;
    for i in (0..=l).rev() {
        if in_cone[i] {
            for &j in &nodes[i].inputs {
                in_cone[j] = true;
            }
        }
    }
    for (c, node) in nodes.iter().enumerate() {
        for &i in &node.inputs {
            check_read(i, c, &format!("forward of node {c} ({})", node.op))?;
        }
        if c <= l && in_cone[c] {
            let t = 2 * n - 1 - c;
            let reads = grad_reads(node.op);
            let read_inputs: &[usize] = match reads.inputs {
                InputReads::None => &[],
                InputReads::First => &node.inputs[..node.inputs.len().min(1)],
                InputReads::All => &node.inputs,
            };
            for &i in read_inputs {
                check_read(i, t, &format!("backward of node {c} ({})", node.op))?;
            }
            if reads.output {
                check_read(c, t, &format!("backward of node {c} ({}, own output)", node.op))?;
            }
        }
    }
    check_read(l, 2 * n - 1 - l, "the reverse sweep's loss readout")?;

    // --- obligation 4: reuse classes are overlap-free ----------------------
    // Per buffer: equal element counts, and intervals [birth, end] strictly
    // disjoint. Sweep nodes in birth order (node index order), tracking the
    // latest end seen per buffer; any birth ≤ that end overlaps some
    // earlier occupant.
    use std::collections::HashMap;
    let mut latest_end: HashMap<usize, (usize, Option<usize>)> = HashMap::new(); // buffer -> (node, end)
    let mut elems_of_buffer: HashMap<usize, usize> = HashMap::new();
    for (i, np) in plan.nodes().iter().enumerate() {
        let elems = np.shape.0 * np.shape.1;
        match elems_of_buffer.get(&np.buffer) {
            Some(&e) if e != elems => {
                return violation(format!(
                    "buffer {}: node {i} has {elems} elements but the class holds {e}",
                    np.buffer
                ));
            }
            None => {
                elems_of_buffer.insert(np.buffer, elems);
            }
            _ => {}
        }
        let end = end_time(np.free, n);
        if let Some(&(prev, prev_end)) = latest_end.get(&np.buffer) {
            match prev_end {
                None => {
                    return violation(format!(
                        "buffer {}: node {i} shares storage with pinned node {prev}",
                        np.buffer
                    ));
                }
                Some(pe) if i <= pe => {
                    return violation(format!(
                        "buffer {}: node {i} is born at time {i} but node {prev} \
                         holds the storage through time {pe}",
                        np.buffer
                    ));
                }
                _ => {}
            }
        }
        // Track the occupant whose interval extends furthest.
        let further = match (latest_end.get(&np.buffer), end) {
            (Some(&(_, None)), _) => false,
            (Some(&(_, Some(pe))), Some(e)) => e > pe,
            _ => true,
        };
        if further {
            latest_end.insert(np.buffer, (i, end));
        }
    }

    Ok(PlanProof { nodes: n, reads_checked, buffers_checked: elems_of_buffer.len() })
}
