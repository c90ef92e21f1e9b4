//! Reachability auditor over a traced compute graph.
//!
//! [`ShapeTracer`] finds *local* problems (shapes, indices, stability) while
//! the graph is being built; [`audit`] adds the *global* checks that need
//! the finished graph: parameters that never influence the loss, and
//! recorded compute that `backward` can never see.

use std::collections::{HashMap, HashSet};

use dgnn_autograd::{ParamId, ParamSet, Var};

use crate::tracer::{Diagnostic, DiagnosticKind, ShapeTracer, TraceNode};

/// All findings for one traced graph: trace-time diagnostics from the
/// [`ShapeTracer`] plus the reachability findings computed here.
#[derive(Debug, Default)]
pub struct AuditReport {
    diags: Vec<Diagnostic>,
}

impl AuditReport {
    /// Every finding, trace-time and reachability, in discovery order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// True when the graph passed every check. Advisory findings (missed
    /// optimizations such as common subexpressions or foldable subgraphs)
    /// do not count against cleanliness.
    pub fn is_clean(&self) -> bool {
        self.diags.iter().all(|d| d.kind.is_advisory())
    }

    /// Number of findings of one kind.
    pub fn count(&self, kind: DiagnosticKind) -> usize {
        self.diags.iter().filter(|d| d.kind == kind).count()
    }

    /// True if at least one finding of `kind` is present.
    pub fn has(&self, kind: DiagnosticKind) -> bool {
        self.diags.iter().any(|d| d.kind == kind)
    }

    /// Machine-readable report: `{"clean":…,"findings":[{kind,node,op,message}…]}`.
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self
            .diags
            .iter()
            .map(|d| {
                format!(
                    "{{\"kind\":{},\"node\":{},\"op\":{},\"message\":{}}}",
                    crate::json::string(d.kind.as_str()),
                    d.node.map_or_else(|| "null".to_string(), |n| n.to_string()),
                    d.op.map_or_else(|| "null".to_string(), crate::json::string),
                    crate::json::string(&d.message),
                )
            })
            .collect();
        format!("{{\"clean\":{},\"findings\":[{}]}}", self.is_clean(), findings.join(","))
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.diags.is_empty() {
            return writeln!(f, "audit: clean");
        }
        writeln!(f, "audit: {} finding(s)", self.diags.len())?;
        for d in &self.diags {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Nodes reachable *backwards* from `roots` over input edges.
fn ancestors(tracer: &ShapeTracer, roots: impl IntoIterator<Item = usize>) -> Vec<bool> {
    let nodes = tracer.nodes();
    let mut live = vec![false; nodes.len()];
    let mut stack: Vec<usize> = roots.into_iter().filter(|&r| r < nodes.len()).collect();
    while let Some(n) = stack.pop() {
        if live[n] {
            continue;
        }
        live[n] = true;
        stack.extend(nodes[n].inputs.iter().copied());
    }
    live
}

/// Per-node training-invariance: true when the node's value is identical
/// across steps — every transitive leaf is a constant and no op whose
/// payload is rebuilt per batch (`Rc` index / segment vectors, dropout
/// masks) or that reads a parameter sits in the cone.
fn mark_invariant(nodes: &[TraceNode]) -> Vec<bool> {
    let mut inv = vec![false; nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        inv[i] = match node.op {
            "constant" => true,
            "param" | "dropout" | "gather" | "segment_softmax" | "segment_weighted_sum" => false,
            _ => !node.inputs.is_empty() && node.inputs.iter().all(|&j| inv[j]),
        };
    }
    inv
}

/// Value numbering: returns `vn[i]` — the index of the earliest node
/// provably computing the same value as `i`, keyed on
/// `(op, attr, canonical input numbers, param id)`. Constants (opaque data)
/// and dropout (fresh mask per step) number as themselves.
fn value_numbers(nodes: &[TraceNode]) -> Vec<u32> {
    #[derive(PartialEq, Eq, Hash)]
    struct Key {
        op: &'static str,
        attr: u64,
        inputs: Vec<u32>,
        param: Option<ParamId>,
    }
    let mut table: HashMap<Key, u32> = HashMap::new();
    let mut vn = vec![0u32; nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        vn[i] = i as u32;
        if matches!(node.op, "constant" | "dropout") {
            continue;
        }
        let key = Key {
            op: node.op,
            attr: node.attr,
            inputs: node.inputs.iter().map(|&j| vn[j]).collect(),
            param: node.param,
        };
        match table.get(&key) {
            Some(&rep) => vn[i] = rep,
            None => {
                table.insert(key, i as u32);
            }
        }
    }
    vn
}

/// Audits a finished trace.
///
/// * `loss` — the scalar the trainer differentiates.
/// * `outputs` — additional legitimate roots (e.g. embeddings cached for
///   inference, attention weights dumped for visualization). Nodes feeding
///   only these are *not* dead, but parameters must still reach `loss`.
/// * `params` — the parameter set registered while building the graph.
///
/// The returned report also carries the tracer's own trace-time
/// diagnostics, so one `is_clean()` check covers everything.
pub fn audit(tracer: &ShapeTracer, loss: Var, outputs: &[Var], params: &ParamSet) -> AuditReport {
    let mut report = AuditReport { diags: tracer.diagnostics().to_vec() };
    let nodes = tracer.nodes();

    let grad_live = ancestors(tracer, [loss.index()]);
    let all_roots = std::iter::once(loss.index()).chain(outputs.iter().map(|v| v.index()));
    let live = ancestors(tracer, all_roots);

    // --- parameters ------------------------------------------------------
    // A parameter is *used* iff some traced leaf for it is an ancestor of
    // the loss: only then does backward produce a gradient for it.
    let mut traced = HashSet::new();
    let mut used = HashSet::new();
    for (i, node) in nodes.iter().enumerate() {
        if let Some(id) = node.param {
            traced.insert(id);
            if grad_live[i] {
                used.insert(id);
            }
        }
    }
    for id in params.ids() {
        if used.contains(&id) {
            continue;
        }
        let name = params.name(id);
        let message = if traced.contains(&id) {
            format!("param `{name}` is traced but has no path to the loss: it never receives a gradient")
        } else {
            format!("param `{name}` is registered but never appears in the compute graph")
        };
        report.diags.push(Diagnostic {
            kind: DiagnosticKind::UnusedParam,
            node: None,
            op: None,
            message,
        });
    }

    // --- dead compute ----------------------------------------------------
    // Report each dead *sink* (a node nobody consumes) together with the
    // size of the dead cone above it; interior dead nodes would be noise.
    // Dead param leaves are already covered by UnusedParam.
    let mut consumed = vec![false; nodes.len()];
    for node in nodes {
        for &i in &node.inputs {
            consumed[i] = true;
        }
    }
    for (i, node) in nodes.iter().enumerate() {
        if live[i] || consumed[i] || node.param.is_some() {
            continue;
        }
        let cone = ancestors(tracer, [i]);
        let dead_cone = cone.iter().zip(&live).filter(|(c, l)| **c && !**l).count();
        report.diags.push(Diagnostic {
            kind: DiagnosticKind::DeadSubgraph,
            node: Some(i),
            op: Some(node.op),
            message: format!(
                "dead subgraph of {dead_cone} node(s) ending at `{}` {:?}: \
                 reachable from neither the loss nor any declared output",
                node.op, node.shape
            ),
        });
    }

    // --- advisories: redundant compute -----------------------------------
    let invariant = mark_invariant(nodes);
    // Report only fold *sinks* — invariant interiors no invariant interior
    // consumes — and size the whole region behind each; interior nodes
    // would be noise.
    let mut fed_into_invariant = vec![false; nodes.len()];
    for (c, node) in nodes.iter().enumerate() {
        if invariant[c] && node.op != "constant" {
            for &i in &node.inputs {
                fed_into_invariant[i] = true;
            }
        }
    }
    for (i, node) in nodes.iter().enumerate() {
        if !invariant[i] || node.op == "constant" || !live[i] || fed_into_invariant[i] {
            continue;
        }
        let cone = ancestors(tracer, [i]);
        let size = cone.iter().zip(&invariant).filter(|(c, v)| **c && **v).count();
        report.diags.push(Diagnostic {
            kind: DiagnosticKind::FoldableSubgraph,
            node: Some(i),
            op: Some(node.op),
            message: format!(
                "training-invariant subgraph of {size} node(s) ending at `{}` {:?} is \
                 recomputed every step",
                node.op, node.shape
            ),
        });
    }
    let vn = value_numbers(nodes);
    for (i, node) in nodes.iter().enumerate() {
        let rep = vn[i] as usize;
        if rep != i && live[i] {
            report.diags.push(Diagnostic {
                kind: DiagnosticKind::CommonSubexpression,
                node: Some(i),
                op: Some(node.op),
                message: format!(
                    "node {i} (`{}` {:?}) recomputes the value of node {rep}",
                    node.op, node.shape
                ),
            });
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use dgnn_autograd::{ParamSet, Recorder};
    use dgnn_tensor::{Init, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn to_json_reports_findings_structurally() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let x = params.add("x", Init::Uniform(0.5).build(3, 3, &mut rng));
        let unused = params.add("unused", Matrix::zeros(2, 2));
        let _ = unused;

        let mut tr = ShapeTracer::new();
        let x = tr.param(&params, x);
        let e = tr.exp(x); // unbounded input → unstable_domain
        let loss = tr.mean_all(e);

        let report = audit(&tr, loss, &[], &params);
        let json = report.to_json();
        assert!(json.starts_with("{\"clean\":false,"), "json: {json}");
        assert!(json.contains("\"kind\":\"unstable_domain\""), "json: {json}");
        assert!(json.contains("\"kind\":\"unused_param\""), "json: {json}");
        assert!(json.contains("\"op\":\"exp\""), "json: {json}");
    }

    #[test]
    fn clean_graph_serializes_clean() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let x = params.add("x", Init::Uniform(0.5).build(3, 3, &mut rng));
        let mut tr = ShapeTracer::new();
        let x = tr.param(&params, x);
        let s = tr.sigmoid(x);
        let loss = tr.mean_all(s);
        let report = audit(&tr, loss, &[], &params);
        assert_eq!(report.to_json(), "{\"clean\":true,\"findings\":[]}");
    }
}
