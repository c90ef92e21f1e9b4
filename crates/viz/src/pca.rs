//! Principal component analysis via power iteration (no external linear
//! algebra dependency).

use dgnn_tensor::Matrix;

/// Projects rows of `x` onto their top two principal components.
///
/// Uses mean-centering followed by power iteration with deflation on the
/// covariance matrix — adequate for visualization-sized inputs.
pub fn pca_2d(x: &Matrix) -> Matrix {
    project(x, 2)
}

/// Projects onto the top `k` principal components.
pub fn project(x: &Matrix, k: usize) -> Matrix {
    let (n, d) = x.shape();
    assert!(n > 0 && d > 0, "pca: empty input");
    let k = k.min(d);

    // Mean-center.
    let mean = x.col_sums().scale(1.0 / n as f32);
    let mut centered = x.clone();
    for r in 0..n {
        for (v, &m) in centered.row_mut(r).iter_mut().zip(mean.as_slice()) {
            *v -= m;
        }
    }

    // Covariance (d × d).
    let mut cov = centered.matmul_tn(&centered);
    cov.scale_assign(1.0 / n.max(1) as f32);

    // Power iteration with deflation.
    let mut components: Vec<Vec<f32>> = Vec::with_capacity(k);
    let mut work = cov;
    for c in 0..k {
        // Deterministic, component-dependent start vector.
        let mut v: Vec<f32> =
            (0..d).map(|i| (((i + 7 * c + 1) % 13) as f32 / 13.0) - 0.5).collect();
        normalize(&mut v);
        let mut eig = 0.0;
        for _ in 0..100 {
            let mut next = mat_vec(&work, &v);
            let norm = normalize(&mut next);
            if (norm - eig).abs() < 1e-7 * norm.max(1.0) {
                v = next;
                eig = norm;
                break;
            }
            eig = norm;
            v = next;
        }
        // Deflate: work -= λ v vᵀ.
        for i in 0..d {
            for j in 0..d {
                work[(i, j)] -= eig * v[i] * v[j];
            }
        }
        components.push(v);
    }

    let mut out = Matrix::zeros(n, k);
    for r in 0..n {
        for (c, comp) in components.iter().enumerate() {
            out[(r, c)] = centered.row(r).iter().zip(comp).map(|(&a, &b)| a * b).sum();
        }
    }
    out
}

fn mat_vec(m: &Matrix, v: &[f32]) -> Vec<f32> {
    (0..m.rows()).map(|r| m.row(r).iter().zip(v).map(|(&a, &b)| a * b).sum()).collect()
}

fn normalize(v: &mut [f32]) -> f32 {
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_dominant_axis() {
        // Points spread along the (1, 1, 0) direction with small noise.
        let n = 50;
        let x = Matrix::from_fn(n, 3, |r, c| {
            let t = r as f32 / n as f32 * 10.0 - 5.0;
            match c {
                0 | 1 => t + ((r * 7 + c) % 5) as f32 * 0.01,
                _ => ((r * 3) % 7) as f32 * 0.01,
            }
        });
        let p = project(&x, 1);
        // First PC scores should be strongly ordered with t (monotone up to
        // sign): check |corr| is high via sign counting.
        let mut increasing = 0;
        let mut decreasing = 0;
        for r in 1..n {
            if p[(r, 0)] > p[(r - 1, 0)] {
                increasing += 1;
            } else {
                decreasing += 1;
            }
        }
        assert!(increasing.max(decreasing) > n * 9 / 10);
    }

    #[test]
    fn output_shape_and_finiteness() {
        let x = Matrix::from_fn(20, 8, |r, c| ((r * 13 + c * 5) % 11) as f32 - 5.0);
        let p = pca_2d(&x);
        assert_eq!(p.shape(), (20, 2));
        assert!(p.all_finite());
    }

    #[test]
    fn components_capture_more_variance_than_random_axis() {
        let x = Matrix::from_fn(30, 4, |r, c| if c == 0 { r as f32 } else { (r % 3) as f32 * 0.1 });
        let p = project(&x, 1);
        let var_pc: f32 = p.as_slice().iter().map(|v| v * v).sum();
        // Variance along column 1 (a weak axis).
        let mean1: f32 = (0..30).map(|r| x[(r, 1)]).sum::<f32>() / 30.0;
        let var_weak: f32 = (0..30).map(|r| (x[(r, 1)] - mean1).powi(2)).sum();
        assert!(var_pc > var_weak * 10.0);
    }
}
