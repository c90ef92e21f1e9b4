//! Deterministic parameter initializers.

use crate::Matrix;
use rand::Rng;

/// Parameter initialization schemes.
///
/// The paper initializes embeddings with small uniform noise and weight
/// matrices with Xavier/Glorot scaling (the PyTorch defaults its released
/// code relies on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// All zeros (bias terms).
    Zeros,
    /// All entries equal to the given constant.
    Constant(f32),
    /// Uniform in `[-limit, limit]`.
    Uniform(f32),
    /// Xavier/Glorot uniform: `limit = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform,
}

impl Init {
    /// Materializes a `rows × cols` matrix with this scheme.
    pub fn build(self, rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
        match self {
            Init::Zeros => Matrix::zeros(rows, cols),
            Init::Constant(c) => Matrix::full(rows, cols, c),
            Init::Uniform(limit) => {
                Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-limit..=limit))
            }
            Init::XavierUniform => xavier_uniform(rows, cols, rng),
        }
    }
}

/// Xavier/Glorot uniform initialization treating `rows` as fan-in and
/// `cols` as fan-out.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let limit = (6.0 / (rows + cols) as f32).sqrt();
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-limit..=limit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_respects_limit() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = xavier_uniform(64, 16, &mut rng);
        let limit = (6.0 / 80.0_f32).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= limit + 1e-6));
        // Should not be degenerate.
        assert!(w.sq_norm() > 0.0);
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = Init::Uniform(0.1).build(8, 8, &mut StdRng::seed_from_u64(42));
        let b = Init::Uniform(0.1).build(8, 8, &mut StdRng::seed_from_u64(42));
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn zeros_and_constant() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(Init::Zeros.build(2, 2, &mut rng).as_slice().iter().all(|&v| v == 0.0));
        assert!(Init::Constant(0.5).build(2, 2, &mut rng).as_slice().iter().all(|&v| v == 0.5));
    }
}
