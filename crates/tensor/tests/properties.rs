//! Property-based tests for the dense/sparse kernels: algebraic identities
//! that must hold for arbitrary matrices, not just hand-picked ones.

use dgnn_tensor::{approx_eq, Csr, CsrBuilder, Matrix};
use proptest::prelude::*;

/// Strategy: a matrix with the given shape and entries in [-10, 10].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Strategy: shape triple (m, k, n) small enough to exercise quickly.
fn dims3() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..6, 1usize..6, 1usize..6)
}

/// Strategy: a sparse matrix as triplets over a `rows × cols` grid.
fn csr(rows: usize, cols: usize) -> impl Strategy<Value = Csr> {
    collection::vec(((0..rows), (0..cols), -5.0f32..5.0), 0..(rows * cols * 2)).prop_map(
        move |trips| {
            let mut b = CsrBuilder::new(rows, cols);
            for (r, c, v) in trips {
                b.push(r, c, v);
            }
            b.build()
        },
    )
}

proptest! {
    #[test]
    fn matmul_is_associative((m, k, n) in dims3(), p in 1usize..5, seed in any::<u64>()) {
        // Build from seed via from_fn to keep case sizes bounded.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / u32::MAX as f32) * 4.0 - 2.0
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        let c = Matrix::from_fn(n, p, |_, _| next());
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(approx_eq(&left, &right, 1e-2), "associativity violated");
    }

    #[test]
    fn matmul_distributes_over_add((m, k, n) in dims3(), seed in any::<u64>()) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / u32::MAX as f32) * 4.0 - 2.0
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        let c = Matrix::from_fn(k, n, |_, _| next());
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(approx_eq(&left, &right, 1e-2));
    }

    #[test]
    fn transpose_of_product_reverses(a in matrix(3, 4), b in matrix(4, 2)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!(approx_eq(&left, &right, 1e-3));
    }

    #[test]
    fn fused_transpose_products_match(a in matrix(4, 3), b in matrix(4, 2)) {
        prop_assert!(approx_eq(&a.matmul_tn(&b), &a.transpose().matmul(&b), 1e-3));
        let c = Matrix::from_fn(5, 3, |r, q| (r + q) as f32 * 0.3 - 1.0);
        prop_assert!(approx_eq(&a.matmul_nt(&c), &a.matmul(&c.transpose()), 1e-3));
    }

    #[test]
    fn add_commutes(a in matrix(3, 3), b in matrix(3, 3)) {
        prop_assert!(approx_eq(&a.add(&b), &b.add(&a), 0.0));
    }

    #[test]
    fn row_dots_equals_diagonal_of_product(a in matrix(4, 3), b in matrix(4, 3)) {
        let rd = a.row_dots(&b);
        let full = a.matmul_nt(&b);
        for i in 0..4 {
            prop_assert!((rd[(i, 0)] - full[(i, i)]).abs() < 1e-3);
        }
    }

    #[test]
    fn softmax_rows_are_distributions(a in matrix(5, 4)) {
        let s = a.softmax_rows();
        prop_assert!(s.all_finite());
        for r in 0..5 {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
        }
    }

    #[test]
    fn l2_normalized_rows_have_unit_norm(a in matrix(5, 4)) {
        let n = a.l2_normalize_rows(1e-9);
        for r in 0..5 {
            let orig: f32 = a.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
            let got: f32 = n.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
            if orig > 1e-6 {
                prop_assert!((got - 1.0).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn gather_then_scatter_restores_counts(idx in collection::vec(0usize..6, 1..20)) {
        let table = Matrix::from_fn(6, 3, |r, c| (r * 3 + c) as f32);
        let g = table.gather_rows(&idx);
        let mut acc = Matrix::zeros(6, 3);
        acc.scatter_add_rows(&idx, &g);
        // Each row of acc equals (times gathered) * table row.
        for r in 0..6 {
            let count = idx.iter().filter(|&&i| i == r).count() as f32;
            for c in 0..3 {
                prop_assert!((acc[(r, c)] - count * table[(r, c)]).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn spmm_agrees_with_dense(a in csr(5, 4), x in matrix(4, 3)) {
        let sparse = a.spmm(&x);
        let dense = a.to_dense().matmul(&x);
        prop_assert!(approx_eq(&sparse, &dense, 1e-3));
    }

    #[test]
    fn csr_transpose_is_involution(a in csr(5, 7)) {
        prop_assert!(approx_eq(&a.transpose().transpose().to_dense(), &a.to_dense(), 0.0));
    }

    #[test]
    fn csr_row_normalized_is_stochastic(a in csr(6, 6)) {
        // Use absolute values so row sums are positive where rows are non-empty.
        let mut b = CsrBuilder::new(6, 6);
        for r in 0..6 {
            for (c, v) in a.row(r) {
                b.push(r, c, v.abs() + 0.01);
            }
        }
        let n = b.build().row_normalized();
        for r in 0..6 {
            let sum: f32 = n.row(r).map(|(_, v)| v).sum();
            if n.degree(r) > 0 {
                prop_assert!((sum - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn concat_slice_roundtrip(a in matrix(3, 2), b in matrix(3, 4)) {
        let c = Matrix::concat_cols(&[&a, &b]);
        prop_assert!(approx_eq(&c.slice_cols(0, 2), &a, 0.0));
        prop_assert!(approx_eq(&c.slice_cols(2, 6), &b, 0.0));
    }
}
