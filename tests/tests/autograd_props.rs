//! Property-based gradient checks: random shapes and random compositions,
//! verified against central finite differences. Complements the fixed-case
//! checks in `crates/autograd/tests/grad_check.rs`.

use std::rc::Rc;

use dgnn_autograd::{ParamSet, Recorder, Tape, Var};
use dgnn_tensor::Matrix;
use proptest::prelude::*;

const H: f32 = 1e-2;
const TOL: f32 = 6e-2; // f32 + random compositions: generous but meaningful

/// Finite-difference check of `d loss / d input` for a scalar builder.
fn fd_check(input: &Matrix, build: &dyn Fn(&mut Tape, Var) -> Var) -> Result<(), String> {
    let mut params = ParamSet::new();
    let pid = params.add("x", input.clone());
    let mut tape = Tape::new();
    let x = tape.param(&params, pid);
    let loss = build(&mut tape, x);
    params.zero_grads();
    tape.backward_into(loss, &mut params);
    let analytic = params.grad(pid).clone();

    let eval = |m: &Matrix| -> f32 {
        let mut t = Tape::new();
        let x = t.constant(m.clone());
        let l = build(&mut t, x);
        t.value(l)[(0, 0)]
    };
    for r in 0..input.rows() {
        for c in 0..input.cols() {
            let mut plus = input.clone();
            plus[(r, c)] += H;
            let mut minus = input.clone();
            minus[(r, c)] -= H;
            let fd = (eval(&plus) - eval(&minus)) / (2.0 * H);
            let an = analytic[(r, c)];
            let denom = fd.abs().max(an.abs()).max(1.0);
            if (fd - an).abs() / denom > TOL {
                return Err(format!("mismatch at ({r},{c}): analytic {an}, fd {fd}"));
            }
        }
    }
    Ok(())
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    collection::vec(-1.5f32..1.5, rows * cols).prop_map(move |d| Matrix::from_vec(rows, cols, d))
}

/// Deterministic pseudo-random matrix in `[-1, 1)` (shapes here depend on
/// other drawn values, so the data comes from a drawn seed).
fn seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 33) as f32 / (1u64 << 30) as f32 - 1.0
    })
}

/// Eq. 3 for one memory bank, `Σ_m η_m ⊙ (H·W_m)` with `W = [W_1 | … | W_M]`,
/// reduced to a scalar. `fused` records what the model ships (one wide
/// matmul + `weighted_block_sum`); otherwise the per-unit oracle built from
/// `slice_cols`/`matmul`/`mul_col`/`add` on the column blocks.
fn bank_loss(t: &mut Tape, h: Var, w: Var, eta: Var, fused: bool) -> Var {
    let out = if fused {
        let wide = t.matmul(h, w);
        t.weighted_block_sum(wide, eta)
    } else {
        let (d, units) = (t.shape(h).1, t.shape(eta).1);
        let mut acc: Option<Var> = None;
        for m in 0..units {
            let w_m = t.slice_cols(w, m * d, (m + 1) * d);
            let transformed = t.matmul(h, w_m);
            let eta_m = t.slice_cols(eta, m, m + 1);
            let weighted = t.mul_col(transformed, eta_m);
            acc = Some(match acc {
                Some(a) => t.add(a, weighted),
                None => weighted,
            });
        }
        acc.expect("at least one memory unit")
    };
    let sq = t.mul(out, out);
    t.mean_all(sq)
}

/// Loss and the gradients w.r.t. `H`, `W` and `η` of [`bank_loss`].
fn bank_loss_and_grads(h: &Matrix, w: &Matrix, eta: &Matrix, fused: bool) -> (f32, [Matrix; 3]) {
    let mut params = ParamSet::new();
    let ids =
        [params.add("h", h.clone()), params.add("w", w.clone()), params.add("eta", eta.clone())];
    let mut t = Tape::new();
    let [hv, wv, ev] = ids.map(|id| t.param(&params, id));
    let loss = bank_loss(&mut t, hv, wv, ev, fused);
    params.zero_grads();
    let value = t.backward_into(loss, &mut params);
    (value, ids.map(|id| params.grad(id).clone()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn weighted_block_sum_matches_per_unit_oracle(
        n in 1usize..300,
        d_pick in 0usize..4,
        m_pick in 0usize..4,
        seed in any::<u64>(),
    ) {
        let (d, units) = ([4, 12, 16, 32][d_pick], [1, 2, 8, 16][m_pick]);
        let h = seeded(n, d, seed);
        let w = seeded(d, units * d, seed ^ 1).scale(0.5);
        let eta = seeded(n, units, seed ^ 2);
        let (fused_loss, fused_grads) = bank_loss_and_grads(&h, &w, &eta, true);
        let (oracle_loss, oracle_grads) = bank_loss_and_grads(&h, &w, &eta, false);
        prop_assert!((fused_loss - oracle_loss).abs() <= 1e-5 * oracle_loss.abs().max(1e-6));
        for (what, (got, want)) in ["dH", "dW", "dη"].iter().zip(fused_grads.iter().zip(&oracle_grads)) {
            let scale = want.as_slice().iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                prop_assert!(
                    (x - y).abs() <= 1e-5 * scale,
                    "{what} (n={n}, d={d}, M={units}): {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn weighted_block_sum_grads_match_finite_differences(
        h in matrix(3, 2),
        w in matrix(2, 6),
        eta in matrix(3, 3),
    ) {
        let wrt_h = |t: &mut Tape, v: Var| {
            let (wv, ev) = (t.constant(w.clone()), t.constant(eta.clone()));
            bank_loss(t, v, wv, ev, true)
        };
        prop_assert!(fd_check(&h, &wrt_h).is_ok());
        let wrt_w = |t: &mut Tape, v: Var| {
            let (hv, ev) = (t.constant(h.clone()), t.constant(eta.clone()));
            bank_loss(t, hv, v, ev, true)
        };
        prop_assert!(fd_check(&w, &wrt_w).is_ok());
        let wrt_eta = |t: &mut Tape, v: Var| {
            let (hv, wv) = (t.constant(h.clone()), t.constant(w.clone()));
            bank_loss(t, hv, wv, v, true)
        };
        prop_assert!(fd_check(&eta, &wrt_eta).is_ok());
    }

    #[test]
    fn random_activation_chains_have_correct_grads(
        x in matrix(3, 4),
        ops in collection::vec(0u8..5, 1..4),
    ) {
        let ops = ops.clone();
        let build = move |t: &mut Tape, mut v: Var| -> Var {
            for &op in &ops {
                v = match op {
                    0 => t.sigmoid(v),
                    1 => t.tanh(v),
                    2 => t.leaky_relu(v, 0.2),
                    3 => t.softplus(v),
                    _ => t.scale(v, 0.7),
                };
            }
            t.mean_all(v)
        };
        prop_assert!(fd_check(&x, &build).is_ok());
    }

    #[test]
    fn random_linear_chains_have_correct_grads(
        x in matrix(3, 3),
        w1 in matrix(3, 3),
        w2 in matrix(3, 3),
    ) {
        let build = move |t: &mut Tape, v: Var| -> Var {
            let w1 = t.constant(w1.clone());
            let w2 = t.constant(w2.clone());
            let a = t.matmul(v, w1);
            let a = t.leaky_relu(a, 0.2);
            let b = t.matmul(a, w2);
            let n = t.layer_norm_rows(b, 1e-5);
            let sq = t.mul(n, n);
            t.mean_all(sq)
        };
        prop_assert!(fd_check(&x, &build).is_ok());
    }

    #[test]
    fn gather_concat_composition_has_correct_grads(
        x in matrix(5, 3),
        idx in collection::vec(0usize..5, 2..7),
    ) {
        let idx = Rc::new(idx);
        let build = move |t: &mut Tape, v: Var| -> Var {
            let g = t.gather(v, Rc::clone(&idx));
            let g2 = t.gather(v, Rc::clone(&idx));
            let cat = t.concat_cols(&[g, g2]);
            let s = t.softmax_rows(cat);
            let sq = t.mul(s, s);
            t.sum_all(sq)
        };
        prop_assert!(fd_check(&x, &build).is_ok());
    }

    #[test]
    fn gradients_are_linear_in_upstream_scale(x in matrix(3, 3), k in 0.5f32..3.0) {
        // d(k·f)/dx = k · df/dx — checks the accumulation plumbing.
        let grad_of = |scale: f32, input: &Matrix| -> Matrix {
            let mut params = ParamSet::new();
            let pid = params.add("x", input.clone());
            let mut t = Tape::new();
            let v = t.param(&params, pid);
            let s = t.sigmoid(v);
            let sum = t.sum_all(s);
            let loss = t.scale(sum, scale);
            params.zero_grads();
            t.backward_into(loss, &mut params);
            params.grad(pid).clone()
        };
        let g1 = grad_of(1.0, &x);
        let gk = grad_of(k, &x);
        for (a, b) in g1.as_slice().iter().zip(gk.as_slice()) {
            prop_assert!((a * k - b).abs() < 1e-4);
        }
    }
}
