//! Parameter storage and the first-order optimizer (Adam).
//!
//! Models register parameters into a [`ParamSet`]; a forward pass mirrors
//! them onto an autograd tape with [`crate::Graph::param`], the backward
//! pass deposits gradients back via [`crate::Graph::collect_grads`], and an
//! [`Optimizer`] consumes the accumulated gradients.

use crate::tensor::Tensor;

/// A flat store of trainable parameters and their accumulated gradients.
#[derive(Default)]
pub struct ParamSet {
    values: Vec<Tensor>,
    grads: Vec<Tensor>,
}

impl ParamSet {
    /// Creates an empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its slot index.
    pub fn register(&mut self, value: Tensor) -> usize {
        let (r, c) = value.shape();
        self.values.push(value);
        self.grads.push(Tensor::zeros(r, c));
        self.values.len() - 1
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The current value of slot `i`.
    pub fn value(&self, i: usize) -> &Tensor {
        &self.values[i]
    }

    /// Mutable access to slot `i` (tests, manual updates).
    pub fn value_mut(&mut self, i: usize) -> &mut Tensor {
        &mut self.values[i]
    }

    /// The accumulated gradient of slot `i`.
    pub fn grad(&self, i: usize) -> &Tensor {
        &self.grads[i]
    }

    /// The gradient buffers, for [`crate::Graph::collect_grads`].
    pub fn grads_mut(&mut self) -> &mut [Tensor] {
        &mut self.grads
    }

    /// Zeroes all gradient accumulators (call per step).
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.map_inplace(|_| 0.0);
        }
    }
}

/// A gradient-descent style optimizer.
pub trait Optimizer {
    /// Applies one update using the gradients accumulated in `params`.
    fn step(&mut self, params: &mut ParamSet);
}

/// Adam (Kingma & Ba) with the standard bias correction.
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical fuzz.
    pub eps: f32,
    t: u32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with standard defaults (`beta1=0.9`, `beta2=0.999`).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of update steps applied so far (the `t` in bias correction).
    pub fn step_count(&self) -> u32 {
        self.t
    }

    /// Per-slot first-moment estimates (empty before the first step).
    pub fn first_moments(&self) -> &[Tensor] {
        &self.m
    }

    /// Per-slot second-moment estimates (empty before the first step).
    pub fn second_moments(&self) -> &[Tensor] {
        &self.v
    }

    /// Overwrites the optimizer state wholesale — the restore half of
    /// checkpointing. `m` and `v` must have identical shapes slot by slot;
    /// subsequent steps resume bias correction from `t`.
    ///
    /// # Panics
    ///
    /// Panics when `m` and `v` disagree in length or any slot's shape.
    pub fn restore_state(&mut self, t: u32, m: Vec<Tensor>, v: Vec<Tensor>) {
        assert_eq!(m.len(), v.len(), "moment vectors must pair up");
        for (i, (a, b)) in m.iter().zip(&v).enumerate() {
            assert_eq!(a.shape(), b.shape(), "moment shapes differ at slot {i}");
        }
        self.t = t;
        self.m = m;
        self.v = v;
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamSet) {
        if self.m.len() != params.len() {
            self.m = params
                .values
                .iter()
                .map(|p| Tensor::zeros(p.rows(), p.cols()))
                .collect();
            self.v = self.m.clone();
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = &params.grads[i];
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for j in 0..g.len() {
                let gj = g.data()[j];
                let mj = self.beta1 * m.data()[j] + (1.0 - self.beta1) * gj;
                let vj = self.beta2 * v.data()[j] + (1.0 - self.beta2) * gj * gj;
                m.data_mut()[j] = mj;
                v.data_mut()[j] = vj;
                let mhat = mj / bc1;
                let vhat = vj / bc2;
                params.values[i].data_mut()[j] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::Graph;

    /// Optimizes `f(x) = (x - 3)^2` from 0 and checks convergence.
    fn converges_on_quadratic(mut opt: impl Optimizer, steps: usize, tol: f32) {
        let mut params = ParamSet::new();
        let slot = params.register(Tensor::zeros(1, 1));
        for _ in 0..steps {
            params.zero_grads();
            let mut g = Graph::new();
            let x = g.param(params.value(slot).clone(), slot);
            let c = g.leaf(Tensor::from_rows(&[&[-3.0]]));
            let d = g.add(x, c);
            let sq = g.mul(d, d);
            let loss = g.mean_all(sq);
            g.backward(loss);
            g.collect_grads(params.grads_mut());
            opt.step(&mut params);
        }
        let x = params.value(slot).get(0, 0);
        assert!((x - 3.0).abs() < tol, "converged to {x}, want 3");
    }

    #[test]
    fn adam_converges() {
        converges_on_quadratic(Adam::new(0.2), 300, 1e-2);
    }

    #[test]
    fn zero_grads_resets_accumulators() {
        let mut params = ParamSet::new();
        let slot = params.register(Tensor::ones(2, 2));
        params.grads_mut()[slot].add_assign(&Tensor::ones(2, 2));
        assert_eq!(params.grad(slot).sum(), 4.0);
        params.zero_grads();
        assert_eq!(params.grad(slot).sum(), 0.0);
    }
}
