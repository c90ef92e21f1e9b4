//! Exact t-SNE (van der Maaten & Hinton, JMLR 2008) — the projection the
//! paper uses for Figure 9.
//!
//! O(n²) per iteration, which is fine for the few-hundred-point samples a
//! visualization uses. Initialized from PCA for stability and determinism.

use dgnn_tensor::Matrix;

use crate::pca;

/// t-SNE hyperparameters.
#[derive(Debug, Clone)]
pub struct TsneConfig {
    /// Target perplexity of the conditional distributions.
    pub perplexity: f32,
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Momentum (0.5 for the first quarter, then this value).
    pub momentum: f32,
    /// Early-exaggeration factor applied for the first quarter.
    pub exaggeration: f32,
}

impl Default for TsneConfig {
    fn default() -> Self {
        Self {
            perplexity: 20.0,
            iterations: 300,
            learning_rate: 20.0,
            momentum: 0.8,
            exaggeration: 4.0,
        }
    }
}

/// Embeds the rows of `x` into 2-D.
pub fn tsne_2d(x: &Matrix, cfg: &TsneConfig) -> Matrix {
    let n = x.rows();
    assert!(n >= 4, "tsne: need at least 4 points");

    // Symmetrized input affinities with per-point bandwidth calibrated to
    // the target perplexity by bisection.
    let d2 = pairwise_sq_dists(x);
    let perplexity = cfg.perplexity.min((n as f32 - 1.0) / 3.0).max(2.0);
    let mut p = vec![0.0f32; n * n];
    for i in 0..n {
        let betas = calibrate_beta(&d2, i, n, perplexity);
        for j in 0..n {
            if i != j {
                p[i * n + j] = (-d2[i * n + j] * betas).exp();
            }
        }
        let sum: f32 = p[i * n..(i + 1) * n].iter().sum();
        if sum > 0.0 {
            for v in &mut p[i * n..(i + 1) * n] {
                *v /= sum;
            }
        }
    }
    // Symmetrize.
    let mut pij = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..n {
            pij[i * n + j] = (p[i * n + j] + p[j * n + i]) / (2.0 * n as f32);
        }
    }

    // PCA init, scaled small.
    let init = pca::pca_2d(x);
    let scale = 1e-2 / (init.norm() / (n as f32).sqrt()).max(1e-6);
    let mut y: Vec<[f32; 2]> =
        (0..n).map(|i| [init[(i, 0)] * scale, init[(i, 1)] * scale]).collect();
    let mut vel = vec![[0.0f32; 2]; n];

    let exag_iters = cfg.iterations / 4;
    for it in 0..cfg.iterations {
        let exag = if it < exag_iters { cfg.exaggeration } else { 1.0 };
        let momentum = if it < exag_iters { 0.5 } else { cfg.momentum };

        // Student-t low-dimensional affinities.
        let mut qnum = vec![0.0f32; n * n];
        let mut qsum = 0.0f32;
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = y[i][0] - y[j][0];
                let dy = y[i][1] - y[j][1];
                let q = 1.0 / (1.0 + dx * dx + dy * dy);
                qnum[i * n + j] = q;
                qnum[j * n + i] = q;
                qsum += 2.0 * q;
            }
        }
        let qsum = qsum.max(1e-12);

        // Gradient and update.
        for i in 0..n {
            let mut g = [0.0f32; 2];
            for j in 0..n {
                if i == j {
                    continue;
                }
                let q = qnum[i * n + j];
                let coeff = (exag * pij[i * n + j] - q / qsum) * q;
                g[0] += 4.0 * coeff * (y[i][0] - y[j][0]);
                g[1] += 4.0 * coeff * (y[i][1] - y[j][1]);
            }
            for k in 0..2 {
                vel[i][k] = momentum * vel[i][k] - cfg.learning_rate * g[k];
                // Clamp the per-step displacement: exact t-SNE without
                // adaptive gains can overshoot during early exaggeration.
                vel[i][k] = vel[i][k].clamp(-2.0, 2.0);
                y[i][k] += vel[i][k];
            }
        }

        // Re-center to keep the embedding bounded.
        let mut mean = [0.0f32; 2];
        for yi in &y {
            mean[0] += yi[0];
            mean[1] += yi[1];
        }
        mean[0] /= n as f32;
        mean[1] /= n as f32;
        for yi in &mut y {
            yi[0] -= mean[0];
            yi[1] -= mean[1];
        }
    }

    Matrix::from_fn(n, 2, |r, c| y[r][c])
}

fn pairwise_sq_dists(x: &Matrix) -> Vec<f32> {
    let n = x.rows();
    let mut d2 = vec![0.0f32; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d: f32 = x.row(i).iter().zip(x.row(j)).map(|(&a, &b)| (a - b) * (a - b)).sum();
            d2[i * n + j] = d;
            d2[j * n + i] = d;
        }
    }
    d2
}

/// Bisection on β = 1/(2σ²) so row `i`'s conditional distribution has the
/// requested perplexity.
fn calibrate_beta(d2: &[f32], i: usize, n: usize, perplexity: f32) -> f32 {
    let target_h = perplexity.ln();
    let mut beta = 1.0f32;
    let (mut lo, mut hi) = (0.0f32, f32::INFINITY);
    for _ in 0..50 {
        let mut sum = 0.0f32;
        let mut dsum = 0.0f32;
        for j in 0..n {
            if j == i {
                continue;
            }
            let e = (-d2[i * n + j] * beta).exp();
            sum += e;
            dsum += d2[i * n + j] * e;
        }
        if sum <= 1e-12 {
            beta /= 2.0;
            continue;
        }
        // Shannon entropy of the conditional distribution.
        let h = beta * dsum / sum + sum.ln();
        let diff = h - target_h;
        if diff.abs() < 1e-4 {
            break;
        }
        if diff > 0.0 {
            lo = beta;
            beta = if hi.is_finite() { (beta + hi) / 2.0 } else { beta * 2.0 };
        } else {
            hi = beta;
            beta = (beta + lo) / 2.0;
        }
    }
    beta
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated Gaussian-ish blobs in 8-D.
    fn blobs(n_per: usize) -> (Matrix, Vec<usize>) {
        let n = n_per * 2;
        let x = Matrix::from_fn(n, 8, |r, c| {
            let blob = r / n_per;
            let center = if blob == 0 { -3.0 } else { 3.0 };
            let noise = (((r * 31 + c * 17) % 19) as f32 / 19.0 - 0.5) * 0.5;
            if c < 4 {
                center + noise
            } else {
                noise
            }
        });
        let labels = (0..n).map(|r| r / n_per).collect();
        (x, labels)
    }

    #[test]
    fn separated_blobs_stay_separated() {
        let (x, labels) = blobs(20);
        let y = tsne_2d(&x, &TsneConfig { iterations: 150, ..TsneConfig::default() });
        assert_eq!(y.shape(), (40, 2));
        assert!(y.all_finite());
        // Mean intra-blob distance < mean inter-blob distance.
        let dist = |a: usize, b: usize| -> f32 {
            let dx = y[(a, 0)] - y[(b, 0)];
            let dy = y[(a, 1)] - y[(b, 1)];
            (dx * dx + dy * dy).sqrt()
        };
        let mut intra = (0.0, 0);
        let mut inter = (0.0, 0);
        for a in 0..40 {
            for b in (a + 1)..40 {
                if labels[a] == labels[b] {
                    intra = (intra.0 + dist(a, b), intra.1 + 1);
                } else {
                    inter = (inter.0 + dist(a, b), inter.1 + 1);
                }
            }
        }
        let intra_mean = intra.0 / intra.1 as f32;
        let inter_mean = inter.0 / inter.1 as f32;
        assert!(
            inter_mean > intra_mean * 1.5,
            "blobs merged: intra {intra_mean}, inter {inter_mean}"
        );
    }

    #[test]
    fn deterministic_given_same_input() {
        let (x, _) = blobs(8);
        let cfg = TsneConfig { iterations: 50, ..TsneConfig::default() };
        let a = tsne_2d(&x, &cfg);
        let b = tsne_2d(&x, &cfg);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn too_few_points_rejected() {
        let x = Matrix::zeros(3, 2);
        tsne_2d(&x, &TsneConfig::default());
    }
}
