//! Central finite-difference verification of every tape operation.
//!
//! Each test builds a scalar loss through one (or a few) ops, computes the
//! analytic gradient with the tape, then perturbs each input entry by ±h and
//! compares. This is the ground truth that lets the model crates trust the
//! engine.

use std::rc::Rc;

use dgnn_autograd::{ParamSet, Recorder, Rows, Tape, Var};
use dgnn_tensor::{Csr, CsrBuilder, EdgeList, Matrix};

const H: f32 = 1e-3;
const TOL: f32 = 2e-2; // relative-ish tolerance; f32 finite differences are noisy

/// Checks `d loss / d input` for a scalar-valued builder, entry by entry.
///
/// `build` receives a tape plus the input leaf and must return the scalar
/// loss variable.
fn check_grad(input: Matrix, build: impl Fn(&mut Tape, Var) -> Var) {
    // Analytic gradient.
    let mut params = ParamSet::new();
    let pid = params.add("x", input.clone());
    let mut tape = Tape::new();
    let x = tape.param(&params, pid);
    let loss = build(&mut tape, x);
    params.zero_grads();
    tape.backward_into(loss, &mut params);
    let analytic = params.grad(pid).clone();

    // Finite differences.
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
            assert!(
                (fd - an).abs() / denom < TOL,
                "grad mismatch at ({r},{c}): analytic {an}, finite-diff {fd}"
            );
        }
    }
}

fn sample(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
    Matrix::from_fn(rows, cols, |_, _| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        ((s >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0
    })
}

#[test]
fn grad_add_sub_scale() {
    check_grad(sample(3, 2, 1), |t, x| {
        let y = t.scale(x, 2.5);
        let z = t.add(x, y);
        let w = t.sub(z, x);
        t.sum_all(w)
    });
}

#[test]
fn grad_mul_elementwise() {
    check_grad(sample(2, 3, 2), |t, x| {
        let c = t.constant(Matrix::from_fn(2, 3, |r, c| (r + 2 * c) as f32 * 0.3 + 0.1));
        let y = t.mul(x, c);
        t.sum_all(y)
    });
}

#[test]
fn grad_mul_self_is_two_x() {
    // d/dx Σx² = 2x exercises the duplicate-parent accumulation path.
    check_grad(sample(2, 2, 3), |t, x| {
        let y = t.mul(x, x);
        t.sum_all(y)
    });
}

#[test]
fn grad_matmul_left_and_right() {
    check_grad(sample(2, 3, 4), |t, x| {
        let b = t.constant(Matrix::from_fn(3, 2, |r, c| (r as f32 - c as f32) * 0.4));
        let p = t.matmul(x, b);
        let sq = t.mul(p, p);
        t.mean_all(sq)
    });
    check_grad(sample(3, 2, 5), |t, x| {
        let a = t.constant(Matrix::from_fn(2, 3, |r, c| (r * c) as f32 * 0.3 + 0.2));
        let p = t.matmul(a, x);
        t.sum_all(p)
    });
}

#[test]
fn grad_transpose() {
    check_grad(sample(2, 3, 6), |t, x| {
        let xt = t.transpose(x);
        let sq = t.mul(xt, xt);
        t.sum_all(sq)
    });
}

#[test]
fn grad_activations() {
    for seed in [7u64, 8, 9] {
        check_grad(sample(2, 3, seed), |t, x| {
            let s = t.sigmoid(x);
            t.sum_all(s)
        });
        check_grad(sample(2, 3, seed + 10), |t, x| {
            let s = t.tanh(x);
            t.sum_all(s)
        });
        check_grad(sample(2, 3, seed + 20), |t, x| {
            let s = t.leaky_relu(x, 0.2);
            t.sum_all(s)
        });
        check_grad(sample(2, 3, seed + 30), |t, x| {
            let s = t.softplus(x);
            t.sum_all(s)
        });
        check_grad(sample(2, 3, seed + 40), |t, x| {
            let s = t.exp(x);
            t.sum_all(s)
        });
    }
}

#[test]
fn grad_add_row_broadcast() {
    // Gradient w.r.t. the broadcast row vector.
    check_grad(sample(1, 4, 11), |t, row| {
        let a = t.constant(sample(3, 4, 12));
        let y = t.add_row(a, row);
        let sq = t.mul(y, y);
        t.sum_all(sq)
    });
    // Gradient w.r.t. the matrix.
    check_grad(sample(3, 4, 13), |t, a| {
        let row = t.constant(sample(1, 4, 14));
        let y = t.add_row(a, row);
        let sq = t.mul(y, y);
        t.sum_all(sq)
    });
}

#[test]
fn grad_mul_row_broadcast() {
    check_grad(sample(1, 3, 15), |t, row| {
        let a = t.constant(sample(4, 3, 16));
        let y = t.mul_row(a, row);
        let sq = t.mul(y, y);
        t.sum_all(sq)
    });
    check_grad(sample(4, 3, 17), |t, a| {
        let row = t.constant(sample(1, 3, 18));
        let y = t.mul_row(a, row);
        t.sum_all(y)
    });
}

#[test]
fn grad_mul_col_broadcast() {
    check_grad(sample(4, 1, 19), |t, col| {
        let a = t.constant(sample(4, 3, 20));
        let y = t.mul_col(a, col);
        let sq = t.mul(y, y);
        t.sum_all(sq)
    });
    check_grad(sample(4, 3, 21), |t, a| {
        let col = t.constant(sample(4, 1, 22));
        let y = t.mul_col(a, col);
        let sq = t.mul(y, y);
        t.sum_all(sq)
    });
}

#[test]
fn grad_reductions() {
    check_grad(sample(3, 3, 23), |t, x| t.mean_all(x));
    check_grad(sample(3, 3, 24), |t, x| {
        let rs = t.row_sum(x);
        let sq = t.mul(rs, rs);
        t.sum_all(sq)
    });
    check_grad(sample(3, 3, 25), |t, x| {
        let cm = t.col_mean(x);
        let sq = t.mul(cm, cm);
        t.sum_all(sq)
    });
}

#[test]
fn grad_concat_and_slice() {
    check_grad(sample(2, 3, 26), |t, x| {
        let other = t.constant(sample(2, 2, 27));
        let cat = t.concat_cols(&[x, other]);
        let sq = t.mul(cat, cat);
        t.sum_all(sq)
    });
    check_grad(sample(2, 5, 28), |t, x| {
        let sl = t.slice_cols(x, 1, 4);
        let sq = t.mul(sl, sl);
        t.sum_all(sq)
    });
}

#[test]
fn grad_gather_with_duplicates() {
    check_grad(sample(4, 3, 29), |t, x| {
        let idx = Rc::new(vec![0usize, 2, 2, 3, 0]);
        let g = t.gather(x, idx);
        let sq = t.mul(g, g);
        t.sum_all(sq)
    });
}

fn toy_csr() -> Rc<Csr> {
    let mut b = CsrBuilder::new(3, 4);
    b.push(0, 0, 0.5);
    b.push(0, 2, 1.5);
    b.push(1, 1, -0.7);
    b.push(2, 3, 2.0);
    b.push(2, 0, 0.3);
    Rc::new(b.build())
}

#[test]
fn grad_spmm() {
    let adj = toy_csr();
    check_grad(sample(4, 2, 30), move |t, x| {
        let y = t.spmm(&adj, x);
        let sq = t.mul(y, y);
        t.sum_all(sq)
    });
}

#[test]
fn grad_layer_norm() {
    check_grad(sample(3, 5, 31), |t, x| {
        let y = t.layer_norm_rows(x, 1e-5);
        let w = t.constant(sample(3, 5, 32));
        let p = t.mul(y, w);
        t.sum_all(p)
    });
}

#[test]
fn grad_row_l2_normalize() {
    // Keep inputs away from the zero-norm kink.
    let x = sample(3, 4, 33).map(|v| v + 2.0);
    check_grad(x, |t, x| {
        let y = t.l2_normalize_rows(x, 1e-9);
        let w = t.constant(sample(3, 4, 34));
        let p = t.mul(y, w);
        t.sum_all(p)
    });
}

#[test]
fn grad_l2_normalize_heads() {
    // Four 2-wide blocks per row, kept away from the zero-norm kink.
    let x = sample(3, 8, 41).map(|v| v + 2.0);
    check_grad(x, |t, x| {
        let y = t.l2_normalize_heads(x, 1e-9, 4);
        let w = t.constant(sample(3, 8, 42));
        let p = t.mul(y, w);
        t.sum_all(p)
    });
}

#[test]
fn grad_tanh_of_a_repeating_gather() {
    // Five gathered rows of a three-row table: tanh runs on the table.
    let idx = Rc::new(vec![2usize, 0, 2, 2, 0]);
    check_grad(sample(3, 2, 43), move |t, x| {
        let g = t.gather(x, Rc::clone(&idx));
        let y = t.tanh(g);
        let w = t.constant(sample(5, 2, 44));
        let p = t.mul(y, w);
        t.sum_all(p)
    });
}

#[test]
fn grad_row_dots() {
    check_grad(sample(4, 3, 35), |t, x| {
        let b = t.constant(sample(4, 3, 36));
        let d = t.row_dots(x, b);
        let sq = t.mul(d, d);
        t.sum_all(sq)
    });
}

#[test]
fn grad_softmax_rows() {
    check_grad(sample(3, 4, 37), |t, x| {
        let s = t.softmax_rows(x);
        let w = t.constant(sample(3, 4, 38));
        let p = t.mul(s, w);
        t.sum_all(p)
    });
}

#[test]
fn grad_segment_softmax() {
    let seg = Rc::new(vec![0usize, 2, 5, 6]);
    check_grad(sample(6, 1, 39), move |t, x| {
        let s = t.segment_softmax(x, Rc::clone(&seg));
        let w = t.constant(sample(6, 1, 40));
        let p = t.mul(s, w);
        t.sum_all(p)
    });
}

#[test]
fn grad_segment_weighted_sum() {
    let seg = Rc::new(vec![0usize, 2, 5, 6]);
    // w.r.t. the weights
    let seg_w = Rc::clone(&seg);
    check_grad(sample(6, 1, 41), move |t, w| {
        let v = t.constant(sample(6, 3, 42));
        let out = t.segment_weighted_sum(w, v, Rc::clone(&seg_w));
        let sq = t.mul(out, out);
        t.sum_all(sq)
    });
    // w.r.t. the values
    check_grad(sample(6, 3, 43), move |t, v| {
        let w = t.constant(sample(6, 1, 44));
        let out = t.segment_weighted_sum(w, v, Rc::clone(&seg));
        let sq = t.mul(out, out);
        t.sum_all(sq)
    });
}

#[test]
fn grad_multi_head_attention_ops() {
    // Two heads over width 4; segments of 2, 0, 3 and 1 edges.
    let seg = Rc::new(vec![0usize, 2, 2, 5, 6]);
    check_grad(sample(6, 4, 48), |t, q| {
        let k = t.constant(sample(6, 4, 49));
        let d = t.head_dots(q, k, 2);
        let sq = t.mul(d, d);
        t.sum_all(sq)
    });
    let seg_s = Rc::clone(&seg);
    check_grad(sample(6, 2, 50), move |t, x| {
        let s = t.segment_softmax(x, Rc::clone(&seg_s));
        let w = t.constant(sample(6, 2, 51));
        let p = t.mul(s, w);
        t.sum_all(p)
    });
    let seg_w = Rc::clone(&seg);
    check_grad(sample(6, 2, 52), move |t, w| {
        let v = t.constant(sample(6, 4, 53));
        let out = t.segment_weighted_sum(w, v, Rc::clone(&seg_w));
        let sq = t.mul(out, out);
        t.sum_all(sq)
    });
    check_grad(sample(6, 4, 54), move |t, v| {
        let w = t.constant(sample(6, 2, 55));
        let out = t.segment_weighted_sum(w, v, Rc::clone(&seg));
        let sq = t.mul(out, out);
        t.sum_all(sq)
    });
}

/// Four destinations (one with no edge) and four sources (one read by no
/// edge, one by three): the table-read shapes of the edge ops.
fn table_edges() -> Rc<EdgeList> {
    Rc::new(EdgeList::new(vec![0, 2, 2, 5, 6], vec![1, 0, 1, 2, 1, 0], 4))
}

#[test]
fn grad_edge_ops_reading_a_destination_table() {
    let edges = table_edges();
    let e = Rc::clone(&edges);
    check_grad(sample(4, 4, 60), move |t, q| {
        let k = t.constant(sample(4, 4, 61));
        let d = t.head_dots(Rows::dst(q, &e), Rows::src(k, &e), 2);
        let sq = t.mul(d, d);
        t.sum_all(sq)
    });
    check_grad(sample(4, 4, 62), move |t, v| {
        let w = t.constant(sample(6, 2, 63));
        let out = t.segment_weighted_sum(w, Rows::dst(v, &edges), Rc::clone(&edges.seg));
        let sq = t.mul(out, out);
        t.sum_all(sq)
    });
}

#[test]
fn grad_edge_ops_reading_a_source_table() {
    let edges = table_edges();
    let e = Rc::clone(&edges);
    check_grad(sample(4, 4, 64), move |t, k| {
        let q = t.constant(sample(4, 4, 65));
        let d = t.head_dots(Rows::dst(q, &e), Rows::src(k, &e), 2);
        let sq = t.mul(d, d);
        t.sum_all(sq)
    });
    let e = Rc::clone(&edges);
    check_grad(sample(4, 4, 66), move |t, v| {
        let w = t.constant(sample(6, 2, 67));
        let out = t.segment_weighted_sum(w, Rows::src(v, &e), Rc::clone(&e.seg));
        let sq = t.mul(out, out);
        t.sum_all(sq)
    });
    // The weights' gradient, with the values read from the table.
    check_grad(sample(6, 2, 68), move |t, w| {
        let v = t.constant(sample(4, 4, 69));
        let out = t.segment_weighted_sum(w, Rows::src(v, &edges), Rc::clone(&edges.seg));
        let sq = t.mul(out, out);
        t.sum_all(sq)
    });
}

#[test]
fn grad_head_dots_mixing_a_table_and_per_edge_rows() {
    // DGCF's affinity: a destination table against per-edge rows.
    let edges = table_edges();
    let e = Rc::clone(&edges);
    check_grad(sample(4, 4, 70), move |t, u| {
        let x = t.constant(sample(6, 4, 71));
        let d = t.head_dots(Rows::dst(u, &e), x, 2);
        let sq = t.mul(d, d);
        t.sum_all(sq)
    });
    check_grad(sample(6, 4, 72), move |t, x| {
        let u = t.constant(sample(4, 4, 73));
        let d = t.head_dots(Rows::dst(u, &edges), x, 2);
        let sq = t.mul(d, d);
        t.sum_all(sq)
    });
}

#[test]
fn grad_weighted_block_sum() {
    // 3 blocks of width 2. w.r.t. the blocks
    check_grad(sample(4, 6, 46), |t, blocks| {
        let eta = t.constant(sample(4, 3, 47));
        let out = t.weighted_block_sum(blocks, eta);
        let sq = t.mul(out, out);
        t.sum_all(sq)
    });
    // w.r.t. the weights
    check_grad(sample(4, 3, 48), |t, eta| {
        let blocks = t.constant(sample(4, 6, 49));
        let out = t.weighted_block_sum(blocks, eta);
        let sq = t.mul(out, out);
        t.sum_all(sq)
    });
}

#[test]
fn grad_dropout_mask_passes_through() {
    let mask = Matrix::from_vec(2, 3, vec![0.0, 2.0, 0.0, 2.0, 2.0, 0.0]);
    check_grad(sample(2, 3, 45), move |t, x| {
        let y = t.dropout_mask(x, mask.clone());
        let sq = t.mul(y, y);
        t.sum_all(sq)
    });
}

#[test]
fn grad_bpr_composite() {
    // Full BPR pipeline: embeddings → gather → row_dots → bpr_loss.
    check_grad(sample(5, 3, 46), |t, emb| {
        let users = Rc::new(vec![0usize, 1, 2]);
        let pos = Rc::new(vec![3usize, 4, 3]);
        let neg = Rc::new(vec![4usize, 3, 4]);
        let ue = t.gather(emb, users);
        let pe = t.gather(emb, pos);
        let ne = t.gather(emb, neg);
        let ps = t.row_dots(ue, pe);
        let ns = t.row_dots(ue, ne);
        t.bpr_loss(ps, ns)
    });
}

#[test]
fn grad_deep_composite_gnn_like() {
    // A two-layer mini-GNN with every structural op in one graph:
    // gather → spmm → leaky_relu → layer_norm → concat → row_dots → loss.
    let adj = toy_csr(); // 3×4
    check_grad(sample(4, 3, 47), move |t, emb| {
        let h1 = t.spmm(&adj, emb); // 3×3
        let h1 = t.leaky_relu(h1, 0.2);
        let h1n = t.layer_norm_rows(h1, 1e-5);
        let idx = Rc::new(vec![0usize, 1, 2]);
        let h0 = t.gather(emb, idx); // 3×3
        let cat = t.concat_cols(&[h0, h1n]); // 3×6
        let other = t.constant(sample(3, 6, 48));
        let scores = t.row_dots(cat, other);
        let sq = t.mul(scores, scores);
        t.mean_all(sq)
    });
}
