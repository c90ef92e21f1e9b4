//! Independent disjointness prover for the parallel kernel backend.
//!
//! [`check_dispatches`] consumes the shadow-access logs that
//! `dgnn_tensor::sanitize` records when `DGNN_SANITIZE=1` and proves, per
//! dispatch:
//!
//! 1. **Well-formed partitioning** — the recorded partitions are exactly
//!    `0..parts` and their row ranges tile `0..items` with no gap or
//!    overlap (the caller-run partition 0 included: it goes through the
//!    same record path as pool workers, so it is held to the same
//!    contract).
//! 2. **Contract match** — the observed accesses correspond 1:1 to the
//!    [`KernelContract`] registered for the kernel, and every access has
//!    the *shape* the contract declares (a function of the partition's row
//!    range, never a wildcard). A kernel that starts reading wider than
//!    its contract — or a contract declared wider than the kernel actually
//!    touches — is a [`RaceViolation::ContractMismatch`], not a pass.
//! 3. **Concrete disjointness** — independent of the contract table, the
//!    recorded write-sets of different partitions are pairwise disjoint,
//!    and no partition reads an element another partition writes. This
//!    check is pure interval arithmetic over the recorded spans; it shares
//!    no code with the kernels.
//!
//! The contract table below is the admission list for parallel kernels: a
//! new kernel (the packed SIMD GEMM dispatches included) is admissible
//! only once its entry here proves out under the sanitizer battery and the
//! schedule fuzzer (`tests/tests/race_sanitizer.rs`). Lint rule 12
//! additionally requires every `par_row_chunks`/`run_parts` call site
//! outside the tensor crate's kernel modules to carry a `// CONTRACT:`
//! tag naming an entry in this table.

use std::fmt;

use dgnn_tensor::sanitize::{Access, Dispatch, OUT};

/// Declared shape of one operand access as a function of the partition's
/// row range `row_lo..row_hi` within a dispatch over `items` rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Every partition touches the whole buffer identically (`0..len`).
    /// Legal only for *reads* of buffers no partition writes.
    All,
    /// Elements `row_lo*w .. row_hi*w` for a per-kernel-consistent row
    /// width `w` (disjoint across partitions by construction).
    PartRows,
    /// Elements `row_lo .. row_hi + 1` — a row-range read plus the shared
    /// fencepost element (CSR `row_ptr`). Adjacent partitions overlap in
    /// exactly that read-only boundary element.
    PartRowsInclusive,
    /// Contiguous spans that chain across partitions in partition order
    /// starting at 0 (CSR `col_idx`/`values` slices bracketed by a
    /// monotone `row_ptr`): partition `p+1` starts where `p` ends.
    Chained,
    /// A strided column band: `count` spans of `row_hi - row_lo` elements
    /// starting at `row_lo`, one per operand row (`matmul_tn`'s read of
    /// the left operand's columns).
    PartCols,
    /// A column range of the partition's rows: `row_hi - row_lo` spans,
    /// one per row, `stride` (the buffer's row width) apart, each the same
    /// `width` elements at the same offset inside its row — a kernel that
    /// fills one block of a wider row-major output in place (the packed
    /// scorer's write of one item shard's columns). Disjoint across
    /// partitions because the rows are.
    PartRowCols,
    /// A read identical to the same partition's write of the same operand
    /// — the read half of an in-place read-modify-write kernel.
    SelfRows,
}

/// One declared operand access of a kernel contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessSpec {
    /// Operand code ([`OUT`] or input index), matching what the kernel
    /// records.
    pub operand: u8,
    /// Whether this access writes the operand.
    pub write: bool,
    /// The declared shape.
    pub shape: Shape,
}

/// The registered partition contract of one pooled kernel: the exact set
/// of `(operand, write, shape)` accesses every partition performs.
#[derive(Clone, Copy, Debug)]
pub struct KernelContract {
    /// Kernel name as recorded by the tensor crate.
    pub kernel: &'static str,
    /// Declared accesses; must match the observed set 1:1.
    pub accesses: &'static [AccessSpec],
}

const fn spec(operand: u8, write: bool, shape: Shape) -> AccessSpec {
    AccessSpec { operand, write, shape }
}

/// `[write OUT rows, read 0 rows, read 1 all]` — the row-partitioned GEMM
/// family.
const GEMM: &[AccessSpec] = &[
    spec(OUT, true, Shape::PartRows),
    spec(0, false, Shape::PartRows),
    spec(1, false, Shape::All),
];

/// `[write OUT rows, read 0 rows, read 1 rows]` — element/row-aligned
/// binary kernels.
const ZIP: &[AccessSpec] = &[
    spec(OUT, true, Shape::PartRows),
    spec(0, false, Shape::PartRows),
    spec(1, false, Shape::PartRows),
];

/// `[rmw OUT rows, read 0 rows]` — in-place binary accumulators.
const RMW_BINARY: &[AccessSpec] = &[
    spec(OUT, true, Shape::PartRows),
    spec(OUT, false, Shape::SelfRows),
    spec(0, false, Shape::PartRows),
];

/// `[rmw OUT rows]` — in-place unary / row-normalizer kernels.
const RMW_UNARY: &[AccessSpec] =
    &[spec(OUT, true, Shape::PartRows), spec(OUT, false, Shape::SelfRows)];

/// The builtin contract table: every pooled kernel in `dgnn-tensor`.
/// Ordering is alphabetical-ish by family for review; lookup is by name.
const CONTRACTS: &[KernelContract] = &[
    KernelContract { kernel: "matmul", accesses: GEMM },
    KernelContract {
        kernel: "matmul_tn",
        accesses: &[
            spec(OUT, true, Shape::PartRows),
            spec(0, false, Shape::PartCols),
            spec(1, false, Shape::All),
        ],
    },
    KernelContract { kernel: "matmul_nt", accesses: GEMM },
    KernelContract { kernel: "add", accesses: ZIP },
    KernelContract { kernel: "sub", accesses: ZIP },
    KernelContract { kernel: "mul_elem", accesses: ZIP },
    KernelContract { kernel: "div_elem", accesses: ZIP },
    KernelContract { kernel: "leaky_relu_grad", accesses: ZIP },
    KernelContract { kernel: "relu_grad", accesses: ZIP },
    KernelContract { kernel: "tanh_grad", accesses: ZIP },
    KernelContract { kernel: "sigmoid_grad", accesses: ZIP },
    KernelContract { kernel: "softplus_grad", accesses: ZIP },
    KernelContract { kernel: "map", accesses: &[spec(OUT, true, Shape::PartRows), spec(0, false, Shape::PartRows)] },
    KernelContract { kernel: "add_assign", accesses: RMW_BINARY },
    KernelContract { kernel: "axpy", accesses: RMW_BINARY },
    KernelContract { kernel: "scale_assign", accesses: RMW_UNARY },
    // The η-weighted block reduce and its two gradients: every operand is
    // row-aligned with the output (widths M·b, M and b differ per operand).
    KernelContract { kernel: "weighted_block_sum", accesses: ZIP },
    KernelContract { kernel: "weighted_block_sum_grad_blocks", accesses: ZIP },
    KernelContract { kernel: "weighted_block_sum_grad_weights", accesses: ZIP },
    KernelContract {
        kernel: "gather_rows",
        accesses: &[
            spec(OUT, true, Shape::PartRows),
            spec(0, false, Shape::All),
            spec(1, false, Shape::PartRows),
        ],
    },
    KernelContract {
        kernel: "scatter_add_rows",
        accesses: &[
            spec(OUT, true, Shape::PartRows),
            spec(OUT, false, Shape::SelfRows),
            spec(0, false, Shape::All),
            spec(1, false, Shape::All),
        ],
    },
    KernelContract { kernel: "l2_normalize_rows", accesses: RMW_UNARY },
    KernelContract { kernel: "softmax_rows", accesses: RMW_UNARY },
    KernelContract { kernel: "layer_norm_rows", accesses: RMW_UNARY },
    KernelContract {
        kernel: "layer_norm_rows_grad",
        accesses: &[
            spec(OUT, true, Shape::PartRows),
            spec(0, false, Shape::PartRows),
            spec(1, false, Shape::PartRows),
            spec(2, false, Shape::PartRows),
        ],
    },
    KernelContract {
        kernel: "spmm",
        accesses: &[
            spec(OUT, true, Shape::PartRows),
            spec(0, false, Shape::PartRowsInclusive),
            spec(1, false, Shape::Chained),
            spec(2, false, Shape::Chained),
            spec(3, false, Shape::All),
        ],
    },
    KernelContract {
        kernel: "top_k_rows",
        accesses: &[
            spec(0, true, Shape::PartRows),
            spec(1, true, Shape::PartRows),
            spec(2, false, Shape::PartRows),
        ],
    },
    // The microkernel dispatches read both operands where they lie, so
    // their partitions touch what the legacy loops touch; operand 1 is the
    // right operand (`rhsᵀ` packed once by the dispatcher for `…_nt`).
    KernelContract { kernel: "gemm_nn_packed", accesses: GEMM },
    // The blocked fold parks every chain in the partition's own output rows
    // between `k` blocks: an in-place read-modify-write of OUT.
    KernelContract {
        kernel: "gemm_tn_packed",
        accesses: &[
            spec(OUT, true, Shape::PartRows),
            spec(OUT, false, Shape::SelfRows),
            spec(0, false, Shape::PartCols),
            spec(1, false, Shape::All),
        ],
    },
    KernelContract { kernel: "gemm_nt_packed", accesses: GEMM },
    // The scorer against resident panels (`gather_matmul_panels`, every
    // backend, and `gather_matmul_nt` through it): a gathered GEMM whose
    // output is one shard's column range of the partition's score rows.
    // Operand 1 is the whole packed shard.
    KernelContract {
        kernel: "gemm_score_panels",
        accesses: &[
            spec(OUT, true, Shape::PartRowCols),
            spec(0, false, Shape::All),
            spec(1, false, Shape::All),
            spec(2, false, Shape::PartRows),
        ],
    },
];

/// Names of every kernel with a registered builtin contract (the lint's
/// rule-12 vocabulary and the bench's proved-kernel denominator).
pub fn contract_names() -> Vec<&'static str> {
    CONTRACTS.iter().map(|c| c.kernel).collect()
}

/// One proved-false property of a dispatch. Every variant names the
/// kernel; overlap variants additionally name the partition pair and one
/// concrete overlapping element range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RaceViolation {
    /// A dispatch was recorded for a kernel with no registered contract.
    UnknownKernel {
        /// The unregistered kernel name.
        kernel: String,
    },
    /// The recorded partitions do not form a well-shaped tiling of
    /// `0..items` (missing/duplicate partition index, gap, or overlap).
    BadPartition {
        /// Kernel whose dispatch is malformed.
        kernel: String,
        /// Human-readable description of the defect.
        detail: String,
    },
    /// Observed accesses do not match the registered contract — an access
    /// with no matching spec, a spec with no matching access, or a shape
    /// that deviates from the declaration.
    ContractMismatch {
        /// Kernel whose observation deviates.
        kernel: String,
        /// Partition where the deviation was found.
        part: usize,
        /// Human-readable description of the deviation.
        detail: String,
    },
    /// Two partitions' write-sets intersect.
    OverlappingWrites {
        /// Kernel with the overlapping writes.
        kernel: String,
        /// First partition of the overlapping pair.
        part_a: usize,
        /// Second partition of the overlapping pair.
        part_b: usize,
        /// Operand both partitions write.
        operand: u8,
        /// Start of one concrete overlapping element range.
        lo: usize,
        /// End (exclusive) of that overlapping range.
        hi: usize,
    },
    /// A partition reads elements another partition writes.
    CrossPartitionRead {
        /// Kernel with the cross-partition read.
        kernel: String,
        /// Partition performing the read.
        reader: usize,
        /// Partition that writes the overlapping elements.
        writer: usize,
        /// Operand involved.
        operand: u8,
        /// Start of one concrete overlapping element range.
        lo: usize,
        /// End (exclusive) of that overlapping range.
        hi: usize,
    },
}

impl fmt::Display for RaceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownKernel { kernel } => {
                write!(f, "kernel `{kernel}` has no registered partition contract")
            }
            Self::BadPartition { kernel, detail } => {
                write!(f, "kernel `{kernel}`: malformed partitioning: {detail}")
            }
            Self::ContractMismatch { kernel, part, detail } => {
                write!(f, "kernel `{kernel}` partition {part}: contract mismatch: {detail}")
            }
            Self::OverlappingWrites { kernel, part_a, part_b, operand, lo, hi } => write!(
                f,
                "kernel `{kernel}`: partitions {part_a} and {part_b} both write \
                 operand {operand} elements {lo}..{hi}"
            ),
            Self::CrossPartitionRead { kernel, reader, writer, operand, lo, hi } => write!(
                f,
                "kernel `{kernel}`: partition {reader} reads operand {operand} \
                 elements {lo}..{hi} written by partition {writer}"
            ),
        }
    }
}

/// Outcome of checking a dispatch log: proof statistics plus every
/// violation found (an empty violation list is the proof certificate).
#[derive(Clone, Debug, Default)]
pub struct RaceReport {
    /// Dispatches examined.
    pub dispatches: usize,
    /// Distinct kernels whose every dispatch checked out clean.
    pub kernels_proved: Vec<String>,
    /// Total partitions examined across all dispatches.
    pub partitions_checked: usize,
    /// Cross-partition access pairs tested for overlap.
    pub pairs_checked: usize,
    /// Everything proved false, most fundamental first per dispatch.
    pub violations: Vec<RaceViolation>,
}

impl RaceReport {
    /// True when no violation was found — the disjointness proof holds
    /// for every recorded dispatch.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "race check: {} dispatches, {} kernels proved, {} partitions, {} pairs, {} violations",
            self.dispatches,
            self.kernels_proved.len(),
            self.partitions_checked,
            self.pairs_checked,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Checks a dispatch log against the builtin contract table.
pub fn check_dispatches(log: &[Dispatch]) -> RaceReport {
    check_dispatches_with(log, &[])
}

/// [`check_dispatches`] with additional contracts consulted *before* the
/// builtin table — the hook the malicious-kernel tests use to register a
/// deliberately wrong contract without polluting the real table.
pub fn check_dispatches_with(log: &[Dispatch], extra: &[KernelContract]) -> RaceReport {
    let mut report = RaceReport::default();
    let mut dirty_kernels: Vec<&str> = Vec::new();
    let mut seen_kernels: Vec<&str> = Vec::new();
    for d in log {
        report.dispatches += 1;
        report.partitions_checked += d.partitions.len();
        if !seen_kernels.contains(&d.kernel) {
            seen_kernels.push(d.kernel);
        }
        let before = report.violations.len();
        check_one(d, extra, &mut report);
        if report.violations.len() > before && !dirty_kernels.contains(&d.kernel) {
            dirty_kernels.push(d.kernel);
        }
    }
    report.kernels_proved = seen_kernels
        .into_iter()
        .filter(|k| !dirty_kernels.contains(k))
        .map(str::to_owned)
        .collect();
    report.kernels_proved.sort_unstable();
    report
}

fn lookup<'a>(kernel: &str, extra: &'a [KernelContract]) -> Option<&'a KernelContract> {
    extra
        .iter()
        .find(|c| c.kernel == kernel)
        .or_else(|| CONTRACTS.iter().find(|c| c.kernel == kernel))
}

fn check_one(d: &Dispatch, extra: &[KernelContract], report: &mut RaceReport) {
    let Some(contract) = lookup(d.kernel, extra) else {
        report.violations.push(RaceViolation::UnknownKernel { kernel: d.kernel.to_owned() });
        return;
    };
    if !check_partition_tiling(d, report) {
        return;
    }
    check_contract(d, contract, report);
    check_disjointness(d, report);
}

/// Obligation 1: partitions are exactly `0..parts`, in order, and their
/// row ranges tile `0..items` with no gap or overlap.
fn check_partition_tiling(d: &Dispatch, report: &mut RaceReport) -> bool {
    let bad = |detail: String| RaceViolation::BadPartition {
        kernel: d.kernel.to_owned(),
        detail,
    };
    if d.partitions.len() != d.parts {
        report.violations.push(bad(format!(
            "{} partition records for {} declared parts",
            d.partitions.len(),
            d.parts
        )));
        return false;
    }
    let mut cursor = 0usize;
    for (i, p) in d.partitions.iter().enumerate() {
        if p.part != i {
            report.violations.push(bad(format!("record {i} carries partition index {}", p.part)));
            return false;
        }
        if p.row_lo != cursor || p.row_hi < p.row_lo {
            report.violations.push(bad(format!(
                "partition {i} rows {}..{} do not continue the tiling at {cursor}",
                p.row_lo, p.row_hi
            )));
            return false;
        }
        cursor = p.row_hi;
    }
    if cursor != d.items {
        report.violations.push(bad(format!(
            "partitions end at row {cursor}, dispatch covers {} items",
            d.items
        )));
        return false;
    }
    true
}

/// Obligation 2: observed accesses ↔ contract specs, 1:1, with declared
/// shapes.
fn check_contract(d: &Dispatch, contract: &KernelContract, report: &mut RaceReport) {
    let mismatch = |part: usize, detail: String| RaceViolation::ContractMismatch {
        kernel: d.kernel.to_owned(),
        part,
        detail,
    };
    // 1:1 correspondence by (operand, write): every partition must carry
    // exactly the declared access set, no more and no less.
    for (pi, p) in d.partitions.iter().enumerate() {
        for s in contract.accesses {
            let n = p.accesses.iter().filter(|a| a.operand == s.operand && a.write == s.write).count();
            if n != 1 {
                report.violations.push(mismatch(
                    pi,
                    format!(
                        "declared {} of operand {} observed {n} times (want exactly 1)",
                        if s.write { "write" } else { "read" },
                        s.operand
                    ),
                ));
                return;
            }
        }
        for a in &p.accesses {
            if !contract.accesses.iter().any(|s| s.operand == a.operand && s.write == a.write) {
                report.violations.push(mismatch(
                    pi,
                    format!(
                        "observed undeclared {} of operand {}",
                        if a.write { "write" } else { "read" },
                        a.operand
                    ),
                ));
                return;
            }
        }
    }
    for s in contract.accesses {
        check_shape(d, s, report);
    }
}

/// Returns the unique access matching `s` in partition `p` (existence was
/// established by `check_contract`).
fn find_access<'a>(d: &'a Dispatch, part: usize, s: &AccessSpec) -> &'a Access {
    d.partitions[part]
        .accesses
        .iter()
        .find(|a| a.operand == s.operand && a.write == s.write)
        .expect("race_checker: access presence was verified before shape checking")
}

/// Obligation 2 continued: one spec's observed accesses have the declared
/// shape across all partitions.
fn check_shape(d: &Dispatch, s: &AccessSpec, report: &mut RaceReport) {
    let mismatch = |part: usize, detail: String| RaceViolation::ContractMismatch {
        kernel: d.kernel.to_owned(),
        part,
        detail,
    };
    let label = format!(
        "{} of operand {}",
        if s.write { "write" } else { "read" },
        s.operand
    );
    match s.shape {
        Shape::All => {
            let first = find_access(d, 0, s);
            for pi in 0..d.parts {
                let a = find_access(d, pi, s);
                if a.lo != 0 || a.count > 1 || a.width != first.width {
                    report.violations.push(mismatch(
                        pi,
                        format!(
                            "{label} declared All but observed lo={} width={} count={} \
                             (partition 0 saw width {})",
                            a.lo, a.width, a.count, first.width
                        ),
                    ));
                    return;
                }
            }
        }
        Shape::PartRows => {
            // Row width w is determined by the first partition with a
            // non-empty row span and non-empty access; all others must
            // agree.
            let mut w: Option<usize> = None;
            for pi in 0..d.parts {
                let p = &d.partitions[pi];
                let span = p.row_hi - p.row_lo;
                let a = find_access(d, pi, s);
                if a.count > 1 {
                    report.violations.push(mismatch(
                        pi,
                        format!("{label} declared PartRows but observed a strided span"),
                    ));
                    return;
                }
                if span == 0 {
                    if a.width != 0 {
                        report.violations.push(mismatch(
                            pi,
                            format!("{label}: empty row span but non-empty access width {}", a.width),
                        ));
                        return;
                    }
                    continue;
                }
                if a.width == 0 {
                    // Zero-width rows (e.g. 0-column matrices); consistent
                    // only with w == 0.
                    if w.map_or(false, |w| w != 0) {
                        report.violations.push(mismatch(
                            pi,
                            format!("{label}: zero-width access where other partitions saw rows"),
                        ));
                        return;
                    }
                    w = Some(0);
                    continue;
                }
                if a.width % span != 0 {
                    report.violations.push(mismatch(
                        pi,
                        format!("{label}: width {} not a multiple of row span {span}", a.width),
                    ));
                    return;
                }
                let this_w = a.width / span;
                if w.map_or(false, |w| w != this_w) {
                    report.violations.push(mismatch(
                        pi,
                        format!("{label}: row width {this_w} disagrees with other partitions"),
                    ));
                    return;
                }
                w = Some(this_w);
                if a.lo != p.row_lo * this_w {
                    report.violations.push(mismatch(
                        pi,
                        format!(
                            "{label}: starts at {} instead of row_lo*{this_w} = {}",
                            a.lo,
                            p.row_lo * this_w
                        ),
                    ));
                    return;
                }
            }
        }
        Shape::PartRowsInclusive => {
            for pi in 0..d.parts {
                let p = &d.partitions[pi];
                let a = find_access(d, pi, s);
                let span = p.row_hi - p.row_lo;
                let want = if span == 0 { 0 } else { span + 1 };
                if a.count > 1 || a.width != want || (span > 0 && a.lo != p.row_lo) {
                    report.violations.push(mismatch(
                        pi,
                        format!(
                            "{label} declared PartRowsInclusive; rows {}..{} but observed \
                             lo={} width={} count={}",
                            p.row_lo, p.row_hi, a.lo, a.width, a.count
                        ),
                    ));
                    return;
                }
            }
        }
        Shape::Chained => {
            let mut cursor = 0usize;
            for pi in 0..d.parts {
                let a = find_access(d, pi, s);
                if a.count > 1 {
                    report.violations.push(mismatch(
                        pi,
                        format!("{label} declared Chained but observed a strided span"),
                    ));
                    return;
                }
                if a.width == 0 {
                    continue;
                }
                if a.lo != cursor {
                    report.violations.push(mismatch(
                        pi,
                        format!("{label}: span starts at {} but the chain cursor is {cursor}", a.lo),
                    ));
                    return;
                }
                cursor = a.lo + a.width;
            }
        }
        Shape::PartCols => {
            let mut dims: Option<(usize, usize)> = None; // (stride, count)
            for pi in 0..d.parts {
                let p = &d.partitions[pi];
                let a = find_access(d, pi, s);
                let span = p.row_hi - p.row_lo;
                if span == 0 || a.count == 0 {
                    if span != 0 && a.count != 0 && a.width != 0 {
                        report.violations.push(mismatch(
                            pi,
                            format!("{label}: inconsistent empty column band"),
                        ));
                        return;
                    }
                    continue;
                }
                if a.lo != p.row_lo || a.width != span {
                    report.violations.push(mismatch(
                        pi,
                        format!(
                            "{label} declared PartCols; rows {}..{} but observed lo={} width={}",
                            p.row_lo, p.row_hi, a.lo, a.width
                        ),
                    ));
                    return;
                }
                if dims.map_or(false, |dm| dm != (a.stride, a.count)) {
                    report.violations.push(mismatch(
                        pi,
                        format!("{label}: stride/count disagree across partitions"),
                    ));
                    return;
                }
                dims = Some((a.stride, a.count));
            }
        }
        Shape::PartRowCols => {
            let mut dims: Option<(usize, usize, usize)> = None; // (stride, column offset, width)
            for pi in 0..d.parts {
                let p = &d.partitions[pi];
                let a = find_access(d, pi, s);
                let span = p.row_hi - p.row_lo;
                if a.count != span {
                    report.violations.push(mismatch(
                        pi,
                        format!("{label} declared PartRowCols; {span} rows but {} spans", a.count),
                    ));
                    return;
                }
                if span == 0 {
                    continue;
                }
                let col0 = a.lo.checked_sub(p.row_lo * a.stride);
                let Some(col0) = col0.filter(|c| c + a.width <= a.stride) else {
                    report.violations.push(mismatch(
                        pi,
                        format!(
                            "{label} declared PartRowCols; rows {}..{} of width {} but observed lo={} width={}",
                            p.row_lo, p.row_hi, a.stride, a.lo, a.width
                        ),
                    ));
                    return;
                };
                if dims.map_or(false, |dm| dm != (a.stride, col0, a.width)) {
                    report.violations.push(mismatch(
                        pi,
                        format!("{label}: row width/column range disagree across partitions"),
                    ));
                    return;
                }
                dims = Some((a.stride, col0, a.width));
            }
        }
        Shape::SelfRows => {
            for pi in 0..d.parts {
                let a = find_access(d, pi, s);
                let Some(w) = d.partitions[pi]
                    .accesses
                    .iter()
                    .find(|x| x.operand == s.operand && x.write)
                else {
                    report.violations.push(mismatch(
                        pi,
                        format!("{label} declared SelfRows but the operand has no write"),
                    ));
                    return;
                };
                if (a.lo, a.width, a.stride, a.count) != (w.lo, w.width, w.stride, w.count) {
                    report.violations.push(mismatch(
                        pi,
                        format!(
                            "{label} declared SelfRows but read {}+{}x{} differs from the \
                             partition's own write {}+{}x{}",
                            a.lo, a.width, a.count, w.lo, w.width, w.count
                        ),
                    ));
                    return;
                }
            }
        }
    }
}

/// Obligation 3: concrete pairwise disjointness over the recorded spans,
/// independent of any contract.
fn check_disjointness(d: &Dispatch, report: &mut RaceReport) {
    for (pi, p) in d.partitions.iter().enumerate() {
        for (qi, q) in d.partitions.iter().enumerate().skip(pi + 1) {
            for a in &p.accesses {
                for b in &q.accesses {
                    if a.operand != b.operand || (!a.write && !b.write) {
                        continue;
                    }
                    report.pairs_checked += 1;
                    let Some((lo, hi)) = span_overlap(a, b) else {
                        continue;
                    };
                    let kernel = d.kernel.to_owned();
                    report.violations.push(if a.write && b.write {
                        RaceViolation::OverlappingWrites {
                            kernel,
                            part_a: pi,
                            part_b: qi,
                            operand: a.operand,
                            lo,
                            hi,
                        }
                    } else {
                        let (reader, writer) = if a.write { (qi, pi) } else { (pi, qi) };
                        RaceViolation::CrossPartitionRead {
                            kernel,
                            reader,
                            writer,
                            operand: a.operand,
                            lo,
                            hi,
                        }
                    });
                }
            }
        }
    }
}

/// Span-count ceiling for the exact per-interval overlap test; above it
/// the checker falls back to a conservative bounding-box test.
const EXACT_OVERLAP_CAP: usize = 100_000;

/// First overlapping element range of two strided spans, or `None` when
/// they are disjoint. Exact for spans up to [`EXACT_OVERLAP_CAP`]
/// intervals; beyond that, conservatively reports the bounding-interval
/// intersection (never a false "disjoint").
fn span_overlap(a: &Access, b: &Access) -> Option<(usize, usize)> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    // Bounding check first: cheap, and the conservative fallback.
    let (a_end, b_end) = (a.end(), b.end());
    let bb_lo = a.lo.max(b.lo);
    let bb_hi = a_end.min(b_end);
    if bb_lo >= bb_hi {
        return None;
    }
    if a.count.min(b.count) > EXACT_OVERLAP_CAP {
        return Some((bb_lo, bb_hi));
    }
    // Iterate the smaller span's intervals, testing each against the other
    // span analytically.
    let (few, many) = if a.count <= b.count { (a, b) } else { (b, a) };
    for t in 0..few.count {
        let x = few.lo + t * few.stride;
        let y = x + few.width;
        if let Some(hit) = interval_vs_span(x, y, many) {
            return Some(hit);
        }
    }
    None
}

/// First overlap of the interval `[x, y)` with the strided span `s`, or
/// `None`. Solves for the earliest span interval index `t` with
/// `s.lo + t*stride < y` and `s.lo + t*stride + width > x`.
fn interval_vs_span(x: usize, y: usize, s: &Access) -> Option<(usize, usize)> {
    let (lo, w, st, c) = (s.lo as i64, s.width as i64, s.stride.max(1) as i64, s.count as i64);
    let (x, y) = (x as i64, y as i64);
    // Need t*st > x - lo - w  ⇒  t >= floor((x - lo - w) / st) + 1 (for
    // any sign), clamped at 0.
    let t_min = if x - lo - w >= 0 { (x - lo - w) / st + 1 } else { 0 };
    if t_min >= c {
        return None;
    }
    let start = lo + t_min * st;
    if start >= y {
        return None;
    }
    let ov_lo = start.max(x);
    let ov_hi = (start + w).min(y);
    if ov_lo < ov_hi {
        Some((ov_lo as usize, ov_hi as usize))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_tensor::sanitize::PartAccess;

    fn two_part_dispatch(kernel: &'static str, accesses: Vec<Vec<Access>>) -> Dispatch {
        let parts = accesses.len();
        let partitions = accesses
            .into_iter()
            .enumerate()
            .map(|(p, acc)| {
                let r = dgnn_tensor::parallel::part_range(8, parts, p);
                PartAccess { part: p, row_lo: r.start, row_hi: r.end, accesses: acc }
            })
            .collect();
        Dispatch { kernel, parts, items: 8, partitions }
    }

    #[test]
    fn clean_map_dispatch_proves() {
        let d = two_part_dispatch(
            "map",
            vec![
                vec![Access::write(OUT, 0..4), Access::read(0, 0..4)],
                vec![Access::write(OUT, 4..8), Access::read(0, 4..8)],
            ],
        );
        let r = check_dispatches(&[d]);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.kernels_proved, vec!["map".to_owned()]);
        assert!(r.pairs_checked > 0);
    }

    #[test]
    fn strided_overlap_is_exact() {
        // Two interleaved column bands: columns {0,1} vs {2,3} of a 4-wide
        // matrix — stride 4, never overlapping.
        let a = Access::read_strided(0, 0, 2, 4, 5);
        let b = Access::read_strided(0, 2, 2, 4, 5);
        assert_eq!(span_overlap(&a, &b), None, "disjoint bands must not collide");
        // Shift by one: {1,2} overlaps {2,3} at element 2 of each period.
        let c = Access::read_strided(0, 1, 2, 4, 5);
        let hit = span_overlap(&c, &b);
        assert!(hit.is_some(), "offset bands share an element per period");
    }

    /// One partition of a blocked-TN dispatch over 8 output rows × 3 cols
    /// of a 5×8 left operand, resuming its fold from OUT rows `own`.
    fn tn_part(p: usize, own: std::ops::Range<usize>) -> Vec<Access> {
        let r = p * 4..(p + 1) * 4;
        vec![
            Access::write(OUT, r.start * 3..r.end * 3),
            Access::read(OUT, own.start * 3..own.end * 3),
            Access::read_strided(0, r.start, r.len(), 8, 5),
            Access::read(1, 0..15),
        ]
    }

    #[test]
    fn clean_blocked_tn_dispatch_proves() {
        let d = two_part_dispatch("gemm_tn_packed", vec![tn_part(0, 0..4), tn_part(1, 4..8)]);
        let r = check_dispatches(&[d]);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.kernels_proved, vec!["gemm_tn_packed".to_owned()]);
    }

    #[test]
    fn resuming_from_another_partitions_rows_is_flagged() {
        // Partition 1 resumes its fold from partition 0's output rows: a
        // shape violation (not its own write span) AND a concrete
        // cross-partition read.
        let d = two_part_dispatch("gemm_tn_packed", vec![tn_part(0, 0..4), tn_part(1, 0..4)]);
        let r = check_dispatches(&[d]);
        assert!(
            r.violations.iter().any(|v| matches!(v, RaceViolation::ContractMismatch { part: 1, .. })),
            "SelfRows must flag the foreign read: {r}"
        );
        assert!(
            r.violations.iter().any(|v| matches!(
                v,
                RaceViolation::CrossPartitionRead { reader: 1, writer: 0, operand, .. } if *operand == OUT
            )),
            "obligation 3 must flag the concrete read of partition 0's rows: {r}"
        );
    }

    /// One partition of a scorer dispatch over 8 rows of a 10-wide output,
    /// writing columns `cols` of rows `own`; 4 gathered rows of a 6×5 table
    /// against a 24-float packed shard.
    fn score_part(p: usize, own: std::ops::Range<usize>, cols: std::ops::Range<usize>) -> Vec<Access> {
        vec![
            Access::write_strided(OUT, own.start * 10 + cols.start, cols.len(), 10, own.len()),
            Access::read(0, 0..30),
            Access::read(1, 0..24),
            Access::read(2, p * 4..(p + 1) * 4),
        ]
    }

    #[test]
    fn clean_scorer_dispatch_proves() {
        let d = two_part_dispatch("gemm_score_panels", vec![score_part(0, 0..4, 3..6), score_part(1, 4..8, 3..6)]);
        let r = check_dispatches(&[d]);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.kernels_proved, vec!["gemm_score_panels".to_owned()]);
    }

    #[test]
    fn scorer_writes_outside_its_rows_or_columns_are_flagged() {
        // Partition 1 writes one row early: into partition 0's last row.
        let d = two_part_dispatch("gemm_score_panels", vec![score_part(0, 0..4, 3..6), score_part(1, 3..7, 3..6)]);
        let r = check_dispatches(&[d]);
        assert!(
            r.violations.iter().any(|v| matches!(v, RaceViolation::ContractMismatch { part: 1, .. })),
            "PartRowCols must flag rows that are not the partition's: {r}"
        );
        assert!(
            r.violations.iter().any(|v| matches!(
                v,
                RaceViolation::OverlappingWrites { part_a: 0, part_b: 1, lo: 33, hi: 36, .. }
            )),
            "obligation 3 must name the shared row's columns: {r}"
        );
        // Partition 1 writes a different column range than partition 0.
        let d = two_part_dispatch("gemm_score_panels", vec![score_part(0, 0..4, 3..6), score_part(1, 4..8, 2..6)]);
        let r = check_dispatches(&[d]);
        assert!(
            matches!(r.violations.first(), Some(RaceViolation::ContractMismatch { part: 1, .. })),
            "column ranges must agree across partitions: {r}"
        );
        // A range running past the end of the row.
        let d = two_part_dispatch("gemm_score_panels", vec![score_part(0, 0..4, 8..11), score_part(1, 4..8, 8..11)]);
        assert!(!check_dispatches(&[d]).is_clean(), "a column range wider than the row must not prove");
    }

    #[test]
    fn unknown_kernel_is_flagged() {
        let d = two_part_dispatch("no_such_kernel", vec![vec![], vec![]]);
        let r = check_dispatches(&[d]);
        assert!(matches!(r.violations[0], RaceViolation::UnknownKernel { .. }));
        assert!(r.kernels_proved.is_empty());
    }

    #[test]
    fn overlapping_writes_name_the_pair_and_range() {
        const EVIL_SPECS: &[AccessSpec] = &[spec(OUT, true, Shape::All)];
        let evil = KernelContract { kernel: "evil_overlap", accesses: EVIL_SPECS };
        let d = two_part_dispatch(
            "evil_overlap",
            vec![vec![Access::write(OUT, 0..8)], vec![Access::write(OUT, 0..8)]],
        );
        let r = check_dispatches_with(&[d], &[evil]);
        let hit = r
            .violations
            .iter()
            .find(|v| matches!(v, RaceViolation::OverlappingWrites { .. }))
            .expect("overlapping whole-buffer writes must be reported as OverlappingWrites");
        if let RaceViolation::OverlappingWrites { part_a, part_b, lo, hi, .. } = hit {
            assert_eq!((*part_a, *part_b, *lo, *hi), (0, 1, 0, 8));
        }
    }
}
