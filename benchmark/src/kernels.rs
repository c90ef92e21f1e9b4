//! Machine reference numbers and direct timings of the `dgnn-tensor`
//! kernels at the shapes the workloads issue.
//!
//! Rates are work ÷ median call time. FLOPs and bytes are *computed* from
//! the shapes (2·m·n·k per GEMM; operand and result sizes for the
//! bandwidth kernels), not read from hardware counters.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dgnn_core::DgnnConfig;
use dgnn_tensor::{Csr, Matrix};

use crate::report::RunResult;
use crate::stats::median;
use crate::sysinfo;
use crate::trace::Tracer;
use crate::zipf::Rng;

/// Calls `f` until `budget` is spent or 200 samples are taken (at least 5),
/// after one warm-up call; returns seconds per call.
pub fn sample_secs(budget: Duration, mut f: impl FnMut()) -> Vec<f64> {
    f();
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < 5 || (out.len() < 200 && started.elapsed() < budget) {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.next_f64() as f32 - 0.5)
}

// ---------------------------------------------------------------- machine

const FMA_CHAINS: usize = 10;

/// Ten independent 8-lane FMA chains held in registers: enough to cover
/// the FMA latency on two issue ports.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_loop_avx2(iters: u64, a: f32, b: f32) -> f32 {
    use std::arch::x86_64::{_mm256_fmadd_ps, _mm256_set1_ps, _mm256_storeu_ps};
    let (va, vb) = (_mm256_set1_ps(a), _mm256_set1_ps(b));
    let mut acc = [_mm256_set1_ps(0.0); FMA_CHAINS];
    for _ in 0..iters {
        for x in &mut acc {
            *x = _mm256_fmadd_ps(*x, va, vb);
        }
    }
    let mut lanes = [0.0f32; 8];
    let mut sum = 0.0;
    for x in acc {
        // SAFETY: `lanes` is 8 f32s, exactly the 32 bytes the unaligned store writes.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), x) };
        sum += lanes.iter().sum::<f32>();
    }
    sum
}

/// The same chains without explicit SIMD, for CPUs without AVX2+FMA.
fn fma_loop_portable(iters: u64, a: f32, b: f32) -> f32 {
    let mut acc = [[0.0f32; 8]; FMA_CHAINS];
    for _ in 0..iters {
        for chain in &mut acc {
            for x in chain.iter_mut() {
                *x = *x * a + b;
            }
        }
    }
    acc.iter().flatten().sum()
}

/// Single-thread register-only f32 multiply-add rate, GFLOP/s.
pub fn fma_gflops() -> f64 {
    let iters: u64 = 2_000_000;
    let (a, b) = (black_box(0.999_999_f32), black_box(1e-6_f32));
    let run = || -> f32 {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: the two CPU features the function is compiled for
            // were detected on this CPU on the line above.
            return unsafe { fma_loop_avx2(iters, a, b) };
        }
        fma_loop_portable(iters, a, b)
    };
    let secs = sample_secs(Duration::from_millis(200), || {
        black_box(run());
    });
    let flops = (iters * FMA_CHAINS as u64 * 8 * 2) as f64;
    flops / median(&secs) / 1e9
}

/// Most one copy array may take: the sysfs LLC of a VM is often the host's
/// (hundreds of MB), and two arrays of 4× that would not fit the run.
const COPY_ARRAY_CAP: u64 = 256 << 20;

/// Streaming copy between two arrays of `min(4 × LLC, 256 MiB)` each, GB/s
/// counting bytes read plus bytes written. Returns the rate and the array
/// size used.
pub fn copy_gbps(llc_bytes: Option<u64>) -> (f64, u64) {
    let bytes = llc_bytes.map_or(COPY_ARRAY_CAP, |llc| (4 * llc).min(COPY_ARRAY_CAP));
    let n = (bytes / 4) as usize;
    let src = vec![1.0f32; n];
    let mut dst = vec![0.0f32; n];
    let secs = sample_secs(Duration::from_millis(300), || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    (2.0 * bytes as f64 / median(&secs) / 1e9, bytes)
}

/// The machine reference: denominators for the kernels' peak shares.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    pub fma_gflops: f64,
    pub copy_gbps: f64,
}

/// Measures and records both machine numbers.
pub fn machine(out: &mut RunResult, tracer: &mut Tracer) -> Machine {
    let llc = sysinfo::llc_bytes();
    let fma = tracer.span("machine.fma", 0, |_| fma_gflops());
    let (copy, array_bytes) = tracer.span("machine.copy", 0, |_| copy_gbps(llc));
    out.metric("machine.fma_gflops", fma);
    out.metric("machine.copy_gbps", copy);
    out.extra
        .set("machine.llc_bytes", "B", llc.unwrap_or(0) as f64);
    out.extra
        .set("machine.copy_array_bytes", "B", array_bytes as f64);
    Machine {
        fma_gflops: fma,
        copy_gbps: copy,
    }
}

// ------------------------------------------------------- training shapes

/// Measures and records the rates of the tensor kernels the training step
/// is made of, at the dataset's own shapes, and their shares of the
/// machine reference.
///
/// `iu` is the item←user adjacency (`num_items × num_users`); `cfg` gives
/// the hidden size, the width of the concatenated final embeddings the BPR
/// gather reads, and the BPR batch size.
pub fn train_kernels(
    out: &mut RunResult,
    machine: Machine,
    iu: &Csr,
    cfg: &DgnnConfig,
    seed: u64,
    budget: Duration,
) {
    let (d, final_dim, batch) = (cfg.dim, cfg.dim * (cfg.layers + 1), cfg.batch_size);
    let mut rng = Rng::new(seed ^ 0x6B65_726E);
    let (n, users) = (iu.rows(), iu.cols());
    let f4 = std::mem::size_of::<f32>() as f64;
    let rate = |work: f64, f: &mut dyn FnMut()| work / median(&sample_secs(budget, f)) / 1e9;

    // One memory unit's transform H·W (forward), Hᵀ·G (weight gradient)
    // and G·Wᵀ (input gradient): num_items × d × d.
    let h = random_matrix(n, d, &mut rng);
    let g = random_matrix(n, d, &mut rng);
    let w = random_matrix(d, d, &mut rng);
    let gemm_flops = 2.0 * (n * d * d) as f64;
    let enc_gflops = rate(gemm_flops, &mut || {
        black_box(black_box(&h).matmul(&w));
    });
    let enc_tn_gflops = rate(gemm_flops, &mut || {
        black_box(black_box(&h).matmul_tn(&g));
    });
    let enc_nt_gflops = rate(gemm_flops, &mut || {
        black_box(black_box(&g).matmul_nt(&w));
    });

    // Aggregation over the interaction graph. Bytes: per non-zero a value,
    // a column index and one gathered dense row; per output row one write
    // and one row pointer.
    let hu = random_matrix(users, d, &mut rng);
    let idx = std::mem::size_of::<usize>() as f64;
    let spmm_bytes =
        iu.nnz() as f64 * (f4 + idx + d as f64 * f4) + n as f64 * (d as f64 * f4 + idx);
    let spmm_gbps = rate(spmm_bytes, &mut || {
        black_box(black_box(iu).spmm(&hu));
    });

    // The BPR batch: gather `batch` rows of the final item table, and the
    // scatter-add its backward does.
    let table = random_matrix(n, final_dim, &mut rng);
    let rows: Vec<usize> = (0..batch).map(|_| rng.below(n)).collect();
    let picked = table.gather_rows(&rows);
    let row_bytes = (batch * final_dim) as f64 * f4;
    let gather_gbps = rate(2.0 * row_bytes + batch as f64 * idx, &mut || {
        black_box(black_box(&table).gather_rows(&rows));
    });
    let mut grad = Matrix::zeros(n, final_dim);
    let scatter_add_gbps = rate(3.0 * row_bytes + batch as f64 * idx, &mut || {
        grad.scatter_add_rows(&rows, black_box(&picked));
    });

    // The per-memory-unit blend η_m ⊙ (H·W_m) accumulated into the message.
    let col = random_matrix(n, 1, &mut rng);
    let elems = (n * d) as f64;
    let elementwise_bytes = (2.0 * elems + n as f64) * f4 + 3.0 * elems * f4;
    let elementwise_gbps = rate(elementwise_bytes, &mut || {
        black_box(black_box(&h).mul_col_broadcast(&col).add(&g));
    });

    for (name, value) in [
        ("tensor.gemm.enc_gflops", enc_gflops),
        ("tensor.gemm.enc_tn_gflops", enc_tn_gflops),
        ("tensor.gemm.enc_nt_gflops", enc_nt_gflops),
        ("tensor.gemm.peak_share", enc_gflops / machine.fma_gflops),
        ("tensor.spmm.gbps", spmm_gbps),
        ("tensor.spmm.peak_share", spmm_gbps / machine.copy_gbps),
        ("tensor.gather.gbps", gather_gbps),
        ("tensor.scatter_add.gbps", scatter_add_gbps),
        ("tensor.elementwise.gbps", elementwise_gbps),
    ] {
        out.metric(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_takes_at_least_five_and_at_most_two_hundred() {
        let mut calls = 0;
        let slow = sample_secs(Duration::ZERO, || calls += 1);
        assert_eq!((slow.len(), calls), (5, 6));
        let fast = sample_secs(Duration::from_secs(5), || ());
        assert_eq!(fast.len(), 200);
    }

    #[test]
    fn fma_loops_agree() {
        let want = fma_loop_portable(1000, 0.5, 1.0);
        assert!((want - 2.0 * 80.0).abs() < 1e-3, "{want}");
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: both features were just detected.
            let got = unsafe { fma_loop_avx2(1000, 0.5, 1.0) };
            assert!((got - want).abs() < 1e-3, "{got} vs {want}");
        }
    }
}
