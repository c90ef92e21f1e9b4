//! Static verification for DGNN compute graphs, plus workspace source lints.
//!
//! # Why a second interpreter
//!
//! Every model in this workspace builds its forward pass against
//! `R: Recorder` ([`dgnn_autograd::Recorder`]). The trainer instantiates
//! `R = Tape` and gets values + gradients. This crate instantiates
//! `R = ShapeTracer` and gets a *shape-domain abstract interpretation* of
//! the identical graph: no tensor is allocated, no FLOP is spent, and the
//! whole trace of the tiny dataset finishes in microseconds.
//!
//! Because both interpreters share one builder surface, the verifier can
//! never drift from the trained model — whatever graph `fit` would
//! differentiate is exactly the graph the auditor sees.
//!
//! # What gets caught, before any training step
//!
//! | kind | detected | example |
//! |------|----------|---------|
//! | [`DiagnosticKind::ShapeMismatch`] | at trace time | `matmul` inner dims disagree |
//! | [`DiagnosticKind::IndexRange`] | at trace time | `gather` index ≥ table rows; bad segment pointer |
//! | [`DiagnosticKind::UnstableDomain`] | at trace time | `exp` of an unbounded logit; `ln`/`div`/`sqrt` not bounded away from 0/negative |
//! | [`DiagnosticKind::UnusedParam`] | by [`audit`] | registered param with no path to the loss |
//! | [`DiagnosticKind::DeadSubgraph`] | by [`audit`] | recorded compute `backward` never sees |
//! | [`DiagnosticKind::CommonSubexpression`] | by [`audit`] (advisory) | a node recomputing an earlier node's value |
//! | [`DiagnosticKind::FoldableSubgraph`] | by [`audit`] (advisory) | training-invariant compute redone every step |
//!
//! # Usage
//!
//! ```
//! use dgnn_analysis::{audit, ShapeTracer};
//! use dgnn_autograd::{ParamSet, Recorder};
//! use dgnn_tensor::{Init, Matrix};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! # use rand::SeedableRng;
//! let mut params = ParamSet::new();
//! let w = params.add("w", Init::XavierUniform.build(4, 4, &mut rng));
//!
//! let mut tr = ShapeTracer::new();
//! let x = tr.constant(Matrix::zeros(8, 4));
//! let wv = tr.param(&params, w);
//! let h = tr.matmul(x, wv);
//! let s = tr.sigmoid(h);
//! let loss = tr.mean_all(s);
//!
//! let report = audit(&tr, loss, &[], &params);
//! assert!(report.is_clean(), "{report}");
//! ```
//!
//! # Memory planning
//!
//! A second analysis pass, [`plan`], turns the same trace into a
//! [`MemoryPlan`]: per-node last-use times over the forward *and* reverse
//! sweeps (using [`dgnn_autograd::meta::grad_reads`] to know which inputs
//! each op's gradient actually touches), static free points, shape-bucketed
//! buffer reuse classes, and the step's static peak-live-bytes. The plan is
//! proven safe by the *independent* interval-overlap checker
//! [`check_plan`] before the trainer executes it via
//! [`dgnn_autograd::PlanHarness`] and the `dgnn_tensor` buffer pool.
//!
//! The source-level lint harness lives in the `lint` binary
//! (`cargo run -p dgnn-analysis --bin lint`); it is a std-only walker that
//! enforces panic-hygiene and safety-comment rules over `crates/*/src`.

mod audit;
mod checker;
pub mod json;
mod planner;
pub mod race_checker;
mod tracer;

pub use audit::{audit, AuditReport};
pub use checker::{check_plan, PlanProof, PlanViolation};
pub use planner::{plan, FreePoint, MemoryPlan, NodePlan};
pub use tracer::{Diagnostic, DiagnosticKind, ShapeTracer};
