//! Quantitative separation metrics backing the paper's visual claims.

use dgnn_tensor::Matrix;

fn euclid(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| ((x - y) as f64).powi(2)).sum::<f64>().sqrt()
}

/// Mean silhouette coefficient of `points` under `labels` — the standard
/// clustering-quality score in `[-1, 1]`; higher = better-separated
/// clusters. This is the number Figure 9's "DGNN separates users better"
/// claim is checked against.
pub fn silhouette(points: &Matrix, labels: &[usize]) -> f64 {
    let n = points.rows();
    assert_eq!(labels.len(), n, "silhouette: label/point mismatch");
    let num_clusters = labels.iter().copied().max().map_or(0, |m| m + 1);
    assert!(num_clusters >= 2, "silhouette: need at least two clusters");

    let mut total = 0.0;
    let mut counted = 0usize;
    for i in 0..n {
        // Mean distance to each cluster.
        let mut sums = vec![0.0f64; num_clusters];
        let mut counts = vec![0usize; num_clusters];
        for j in 0..n {
            if i == j {
                continue;
            }
            sums[labels[j]] += euclid(points.row(i), points.row(j));
            counts[labels[j]] += 1;
        }
        let own = labels[i];
        if counts[own] == 0 {
            continue; // singleton cluster: silhouette undefined, skip
        }
        let a = sums[own] / counts[own] as f64;
        let b = (0..num_clusters)
            .filter(|&c| c != own && counts[c] > 0)
            .map(|c| sums[c] / counts[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if !b.is_finite() {
            continue;
        }
        total += (b - a) / a.max(b).max(1e-12);
        counted += 1;
    }
    assert!(counted > 0, "silhouette: no scorable points");
    total / counted as f64
}

/// Inter/intra cluster distance ratio (> 1 means separated): mean pairwise
/// distance across clusters divided by mean pairwise distance within
/// clusters.
pub fn cluster_separation(points: &Matrix, labels: &[usize]) -> f64 {
    let n = points.rows();
    assert_eq!(labels.len(), n, "cluster_separation: label/point mismatch");
    let mut intra = (0.0f64, 0usize);
    let mut inter = (0.0f64, 0usize);
    for i in 0..n {
        for j in (i + 1)..n {
            let d = euclid(points.row(i), points.row(j));
            if labels[i] == labels[j] {
                intra = (intra.0 + d, intra.1 + 1);
            } else {
                inter = (inter.0 + d, inter.1 + 1);
            }
        }
    }
    assert!(intra.1 > 0 && inter.1 > 0, "cluster_separation: degenerate labeling");
    (inter.0 / inter.1 as f64) / (intra.0 / intra.1 as f64).max(1e-12)
}

fn cosine(a: &[f32], b: &[f32]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(&x, &y)| (x as f64) * (y as f64)).sum();
    let na: f64 = a.iter().map(|&x| (x as f64).powi(2)).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|&x| (x as f64).powi(2)).sum::<f64>().sqrt();
    dot / (na * nb).max(1e-12)
}

/// Figure 10's quantitative claim: the mean cosine similarity of
/// memory-attention vectors over *connected* pairs minus the mean over
/// *random* pairs. Positive gap ⇒ the relation's attention is shared by
/// related users.
pub fn attention_similarity_gap(
    attention: &Matrix,
    connected_pairs: &[(usize, usize)],
    random_pairs: &[(usize, usize)],
) -> f64 {
    assert!(!connected_pairs.is_empty(), "attention gap: no connected pairs");
    assert!(!random_pairs.is_empty(), "attention gap: no random pairs");
    let mean = |pairs: &[(usize, usize)]| -> f64 {
        pairs.iter().map(|&(a, b)| cosine(attention.row(a), attention.row(b))).sum::<f64>()
            / pairs.len() as f64
    };
    mean(connected_pairs) - mean(random_pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> (Matrix, Vec<usize>) {
        let pts = Matrix::from_fn(20, 2, |r, c| {
            let center = if r < 10 { 0.0 } else { 10.0 };
            center + ((r * 3 + c) % 5) as f32 * 0.1
        });
        let labels = (0..20).map(|r| usize::from(r >= 10)).collect();
        (pts, labels)
    }

    #[test]
    fn silhouette_high_for_separated_blobs() {
        let (pts, labels) = two_blobs();
        let s = silhouette(&pts, &labels);
        assert!(s > 0.8, "silhouette {s}");
    }

    #[test]
    fn silhouette_low_for_shuffled_labels() {
        let (pts, labels) = two_blobs();
        let shuffled: Vec<usize> = labels
            .iter()
            .map(|&l| 1 - l)
            .enumerate()
            .map(|(i, l)| if i % 2 == 0 { l } else { 1 - l })
            .collect();
        let good = silhouette(&pts, &labels);
        let bad = silhouette(&pts, &shuffled);
        assert!(good > bad);
    }

    #[test]
    fn separation_ratio_above_one_for_blobs() {
        let (pts, labels) = two_blobs();
        assert!(cluster_separation(&pts, &labels) > 2.0);
    }

    #[test]
    fn attention_gap_positive_when_connected_pairs_agree() {
        // Rows 0/1 nearly parallel, row 2 orthogonal-ish.
        let attn = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.9, 0.1, 0.0, 1.0]);
        let gap = attention_similarity_gap(&attn, &[(0, 1)], &[(0, 2)]);
        assert!(gap > 0.5, "gap {gap}");
    }

    #[test]
    #[should_panic(expected = "two clusters")]
    fn silhouette_rejects_single_cluster() {
        let pts = Matrix::zeros(4, 2);
        silhouette(&pts, &[0, 0, 0, 0]);
    }
}
