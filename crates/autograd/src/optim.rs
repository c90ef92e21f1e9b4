//! First-order optimizers over a [`ParamSet`].

use crate::params::ParamSet;

/// A gradient-descent update rule.
pub trait Optimizer {
    /// Applies one update using the gradients accumulated in `params`.
    fn step(&mut self, params: &mut ParamSet);
}

/// Adam (Kingma & Ba) with L2 weight decay folded into the gradient — the
/// optimizer the paper trains DGNN with.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate (the paper uses 0.01).
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical fuzz in the denominator.
    pub eps: f32,
    /// L2 weight-decay coefficient λ (the paper tunes over
    /// {1e-3, 1e-4, 1e-5}).
    pub weight_decay: f32,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimizer with standard β/ε defaults.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay, t: 0 }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamSet) {
        self.t += 1;
        let t = self.t as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        let (lr, b1, b2, eps, wd) = (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        params.update_each(|value, grad, m, v| {
            let values = value.as_mut_slice();
            let ms = m.as_mut_slice();
            let vs = v.as_mut_slice();
            for (((val, &g0), m_i), v_i) in values.iter_mut().zip(grad.as_slice()).zip(ms).zip(vs) {
                let g = g0 + wd * *val;
                *m_i = b1 * *m_i + (1.0 - b1) * g;
                *v_i = b2 * *v_i + (1.0 - b2) * g * g;
                let m_hat = *m_i / bias1;
                let v_hat = *v_i / bias2;
                *val -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, Tape};
    use dgnn_tensor::Matrix;

    /// Minimizes f(x) = (x − 3)² (plus the optimizer's weight decay) and
    /// returns the final x.
    fn converges_to_three(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut params = ParamSet::new();
        let x = params.add("x", Matrix::full(1, 1, 0.0));
        for _ in 0..steps {
            let mut t = Tape::new();
            let xv = t.param(&params, x);
            let c = t.constant(Matrix::full(1, 1, 3.0));
            let e = t.sub(xv, c);
            let sq = t.mul(e, e);
            let loss = t.sum_all(sq);
            params.zero_grads();
            t.backward_into(loss, &mut params);
            opt.step(&mut params);
        }
        params.value(x)[(0, 0)]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1, 0.0);
        let x = converges_to_three(&mut opt, 300);
        assert!((x - 3.0).abs() < 1e-2, "got {x}");
    }

    #[test]
    fn adam_weight_decay_moves_the_optimum() {
        // λx added to the gradient 2(x − 3) moves the fixed point to
        // x = 6 / (2 + λ) = 2.4 at λ = 0.5.
        let mut opt = Adam::new(0.1, 0.5);
        let x = converges_to_three(&mut opt, 300);
        assert!((x - 2.4).abs() < 1e-2, "got {x}");
    }

    #[test]
    fn adam_counts_steps() {
        let mut opt = Adam::new(0.01, 0.0);
        let mut params = ParamSet::new();
        params.add("p", Matrix::zeros(1, 1));
        opt.step(&mut params);
        opt.step(&mut params);
        assert_eq!(opt.steps(), 2);
    }
}
