//! Trainable parameter storage shared across training steps.

use dgnn_tensor::Matrix;

/// Opaque handle to one parameter tensor inside a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

#[derive(Debug)]
struct Param {
    name: String,
    value: Matrix,
    grad: Matrix,
    /// Adam first-moment estimate.
    m: Matrix,
    /// Adam second-moment estimate.
    v: Matrix,
}

/// A set of named, trainable tensors with accumulated gradients and
/// per-parameter optimizer state.
///
/// The model owns one `ParamSet` for its whole lifetime; each training step
/// zeroes gradients, runs a tape forward/backward, and lets an
/// [`crate::Optimizer`] update the values in place.
#[derive(Debug, Default)]
pub struct ParamSet {
    params: Vec<Param>,
}

impl ParamSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let (r, c) = value.shape();
        self.params.push(Param {
            name: name.into(),
            grad: Matrix::zeros(r, c),
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
            value,
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].grad
    }

    /// Name given at registration.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Adds `g` into the parameter's accumulated gradient.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Matrix) {
        self.params[id.0].grad.add_assign(g);
    }

    /// Zeroes all accumulated gradients (call once per step, before
    /// `backward_into`).
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.scale_assign(0.0);
        }
    }

    /// Squared L2 norm of all parameter values — the `‖Θ‖²` regularization
    /// term of the paper's Eq. 11 (reported for logging; the optimizers
    /// apply its gradient directly as weight decay).
    pub fn sq_norm(&self) -> f32 {
        self.params.iter().map(|p| p.value.sq_norm()).sum()
    }

    /// Global gradient L2 norm across all parameters.
    pub fn grad_norm(&self) -> f32 {
        self.params.iter().map(|p| p.grad.sq_norm()).sum::<f32>().sqrt()
    }

    /// Rescales all gradients so the global norm is at most `max_norm`, and
    /// returns the **pre-clip** norm — the number training loops record
    /// into the `grad_norm/preclip` histogram.
    ///
    /// A non-finite norm (any NaN/∞ in a gradient) is never "clipped":
    /// scaling by `max_norm / norm` would turn every gradient into NaN (or,
    /// for ∞, silently zero the whole step, which older versions did). The
    /// `grad_nonfinite` counter is bumped instead and gradients are left
    /// untouched, so the corruption stays visible to the caller rather than
    /// being laundered into a plausible-looking update.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if !norm.is_finite() {
            dgnn_obs::counter_add("grad_nonfinite", 1);
            return norm;
        }
        if norm > max_norm && norm > 0.0 {
            let k = max_norm / norm;
            for p in &mut self.params {
                p.grad.scale_assign(k);
            }
        }
        norm
    }

    /// All parameter handles, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    pub(crate) fn update_each(
        &mut self,
        mut f: impl FnMut(&mut Matrix, &Matrix, &mut Matrix, &mut Matrix),
    ) {
        for p in &mut self.params {
            f(&mut p.value, &p.grad, &mut p.m, &mut p.v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut set = ParamSet::new();
        let a = set.add("emb", Matrix::full(2, 3, 1.0));
        let b = set.add("w", Matrix::zeros(3, 3));
        assert_eq!(set.len(), 2);
        assert_eq!(set.name(a), "emb");
        assert_eq!(set.value(b).shape(), (3, 3));
    }

    #[test]
    fn grad_accumulation_and_zeroing() {
        let mut set = ParamSet::new();
        let a = set.add("p", Matrix::zeros(1, 2));
        set.accumulate_grad(a, &Matrix::row_vector(&[1.0, 2.0]));
        set.accumulate_grad(a, &Matrix::row_vector(&[1.0, 2.0]));
        assert_eq!(set.grad(a).as_slice(), &[2.0, 4.0]);
        set.zero_grads();
        assert_eq!(set.grad(a).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn clip_grad_norm_caps_global_norm_and_returns_preclip() {
        let mut set = ParamSet::new();
        let a = set.add("p", Matrix::zeros(1, 2));
        set.accumulate_grad(a, &Matrix::row_vector(&[3.0, 4.0]));
        let pre = set.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-5, "must return the norm before clipping");
        assert!((set.grad_norm() - 1.0).abs() < 1e-5);
        assert!((set.grad(a).as_slice()[0] - 0.6).abs() < 1e-5);
    }

    #[test]
    fn nonfinite_grad_norm_is_counted_not_scaled() {
        let mut set = ParamSet::new();
        let a = set.add("p", Matrix::zeros(1, 2));
        set.accumulate_grad(a, &Matrix::row_vector(&[f32::INFINITY, 1.0]));
        dgnn_obs::reset();
        dgnn_obs::enable();
        let norm = set.clip_grad_norm(1.0);
        dgnn_obs::disable();
        let snap = dgnn_obs::snapshot();
        dgnn_obs::reset();
        assert!(norm.is_infinite());
        assert_eq!(snap.counters["grad_nonfinite"], 1);
        // Finite entries survive unscaled: the old behavior multiplied the
        // whole set by max_norm/∞ = 0, silently erasing the step.
        assert_eq!(set.grad(a).as_slice()[1], 1.0);
    }

    #[test]
    fn sq_norm_sums_params() {
        let mut set = ParamSet::new();
        set.add("a", Matrix::full(1, 2, 2.0));
        set.add("b", Matrix::full(1, 1, 3.0));
        assert_eq!(set.sq_norm(), 17.0);
    }
}
