//! Sparse meta-path composition.

use dgnn_tensor::{Csr, CsrBuilder};

/// Composes two adjacencies into a meta-path adjacency `A · B`, storing the
/// *path count* as the edge weight, keeping at most `max_per_row` strongest
/// targets per source and dropping self-loops.
///
/// This is how the meta-path baselines derive their homogeneous graphs:
/// `UVU = compose(ui, iu, k)` is the co-interaction graph, `VRV` the
/// shared-category graph, etc. The per-row cap bounds the quadratic blowup
/// dense meta-paths would otherwise cause (exactly the practical compromise
/// the HAN/HERec reference implementations make).
pub fn compose(a: &Csr, b: &Csr, max_per_row: usize) -> Csr {
    assert_eq!(a.cols(), b.rows(), "compose: inner dimension mismatch");
    assert!(max_per_row > 0, "compose: max_per_row must be positive");
    let mut out = CsrBuilder::new(a.rows(), b.cols());
    // Scratch accumulator reused across rows (sparse-row gather).
    let mut acc: Vec<f32> = vec![0.0; b.cols()];
    let mut touched: Vec<usize> = Vec::new();
    for r in 0..a.rows() {
        for (mid, w1) in a.row(r) {
            for (c, w2) in b.row(mid) {
                if acc[c] == 0.0 {
                    touched.push(c);
                }
                acc[c] += w1 * w2;
            }
        }
        // Drop the self-loop (a meta-path back to yourself carries no
        // collaborative signal).
        if r < acc.len() && acc[r] != 0.0 {
            acc[r] = 0.0;
        }
        #[expect(
            clippy::expect_used,
            reason = "path counts are sums of products of finite weights"
        )]
        if touched.len() > max_per_row {
            touched.sort_unstable_by(|&x, &y| {
                acc[y].partial_cmp(&acc[x]).expect("path counts are finite")
            });
            touched.truncate(max_per_row);
        }
        for &c in &touched {
            if acc[c] != 0.0 {
                out.push(r, c, acc[c]);
            }
        }
        // Reset scratch. `touched` may have been truncated, so re-zero by
        // scanning the original contributions again is wrong; instead zero
        // everything we may have touched via the row walk.
        for (mid, _) in a.row(r) {
            for (c, _) in b.row(mid) {
                acc[c] = 0.0;
            }
        }
        touched.clear();
    }
    out.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csr(rows: usize, cols: usize, entries: &[(usize, usize, f32)]) -> Csr {
        let mut b = CsrBuilder::new(rows, cols);
        for &(r, c, v) in entries {
            b.push(r, c, v);
        }
        b.build()
    }

    #[test]
    fn counts_paths() {
        // Users 0,1 both like item 0; user 1 also likes item 1.
        let ui = csr(2, 2, &[(0, 0, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        let iu = ui.transpose();
        let uvu = compose(&ui, &iu, 10);
        // u0–u1 share exactly one item.
        assert_eq!(uvu.to_dense()[(0, 1)], 1.0);
        assert_eq!(uvu.to_dense()[(1, 0)], 1.0);
        // Self-loops removed.
        assert_eq!(uvu.to_dense()[(0, 0)], 0.0);
        assert_eq!(uvu.to_dense()[(1, 1)], 0.0);
    }

    #[test]
    fn respects_row_cap() {
        // One user connected to 4 others via one shared item each, with
        // increasing multiplicity so the cap keeps the strongest.
        let mut entries = Vec::new();
        for other in 1..5usize {
            for copy in 0..other {
                entries.push((0, (other - 1) * 4 + copy, 1.0));
                entries.push((other, (other - 1) * 4 + copy, 1.0));
            }
        }
        let ui = csr(5, 16, &entries);
        let iu = ui.transpose();
        let uvu = compose(&ui, &iu, 2);
        assert!(uvu.degree(0) <= 2);
        // Strongest co-interactors (users 4 and 3) survive.
        assert_eq!(uvu.row_cols(0), &[3, 4]);
    }

    #[test]
    fn matches_dense_product_without_cap() {
        let a = csr(3, 3, &[(0, 1, 2.0), (1, 2, 1.0), (2, 0, 1.0), (0, 2, 0.5)]);
        let b = csr(3, 2, &[(0, 0, 1.0), (1, 1, 3.0), (2, 0, 1.0)]);
        let c = compose(&a, &b, usize::MAX >> 1);
        let dense = a.to_dense().matmul(&b.to_dense());
        for r in 0..3 {
            for col in 0..2 {
                if r == col {
                    continue; // self-loop suppressed by compose
                }
                assert!(
                    (c.to_dense()[(r, col)] - dense[(r, col)]).abs() < 1e-6,
                    "mismatch at ({r},{col})"
                );
            }
        }
    }

    #[test]
    fn empty_inputs_give_empty_output() {
        let a = Csr::empty(3, 4);
        let b = Csr::empty(4, 2);
        assert_eq!(compose(&a, &b, 5).nnz(), 0);
    }
}
