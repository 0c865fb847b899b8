//! Parameter storage and the Adam optimizer (§IV-B6: PyTorch defaults
//! β₁ = 0.9, β₂ = 0.999).

use crate::matrix::Matrix;

/// Flat store of trainable parameter matrices and their gradients.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    pub(crate) values: Vec<Matrix>,
    pub(crate) grads: Vec<Matrix>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> ParamStore {
        ParamStore::default()
    }

    /// Register a parameter, returning its slot id.
    pub fn add(&mut self, m: Matrix) -> usize {
        self.grads.push(Matrix::zeros(m.rows(), m.cols()));
        self.values.push(m);
        self.values.len() - 1
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no parameters registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(|m| m.data().len()).sum()
    }

    /// Value of slot `pid`.
    pub fn value(&self, pid: usize) -> &Matrix {
        &self.values[pid]
    }

    /// Mutable value of slot `pid`.
    pub fn value_mut(&mut self, pid: usize) -> &mut Matrix {
        &mut self.values[pid]
    }

    /// Gradient of slot `pid`.
    pub fn grad(&self, pid: usize) -> &Matrix {
        &self.grads[pid]
    }

    /// Mutable gradient of slot `pid` (tapes accumulate here).
    pub fn grad_mut(&mut self, pid: usize) -> &mut Matrix {
        &mut self.grads[pid]
    }

    /// Zero all gradients (start of a mini-batch).
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.clear();
        }
    }

    /// Global L2 norm of all gradients.
    pub fn grad_global_norm(&self) -> f32 {
        self.grads
            .iter()
            .map(|g| g.data().iter().map(|x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scale every gradient by `f` (gradient clipping).
    pub fn scale_grads(&mut self, f: f32) {
        for g in &mut self.grads {
            for x in g.data_mut() {
                *x *= f;
            }
        }
    }

    /// Snapshot all parameter values (early stopping keeps the best).
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.values.clone()
    }

    /// Restore a snapshot taken by [`ParamStore::snapshot`].
    pub fn restore(&mut self, snap: &[Matrix]) {
        assert_eq!(snap.len(), self.values.len(), "snapshot shape mismatch");
        self.values.clone_from_slice(snap);
    }

    /// Overwrite this store's gradients with the contents of `set`
    /// (the hand-off from a data-parallel gradient reduction to the
    /// optimizer step).
    pub fn load_grads(&mut self, set: &GradSet) {
        assert_eq!(set.grads.len(), self.grads.len(), "grad set shape mismatch");
        for (dst, src) in self.grads.iter_mut().zip(&set.grads) {
            dst.copy_from(src);
        }
    }

    /// Order-sensitive FNV-1a fingerprint over every parameter's shape
    /// and exact f32 bit pattern. Two stores fingerprint equal iff their
    /// trained weights are byte-identical — this is the checksum
    /// `bench_predictor` emits to prove parallel training changed
    /// nothing.
    pub fn fingerprint(&self) -> u64 {
        // Standard FNV-1a from predtop-store's shared hash module; the
        // exact digest is pinned by tests/hash_pins.rs because on-disk
        // model snapshots verify restored weights against it.
        let mut h = predtop_store::hash::Fnv1a64::new();
        for m in &self.values {
            h.write_word(m.rows() as u64);
            h.write_word(m.cols() as u64);
            for &x in m.data() {
                h.write_word(x.to_bits() as u64);
            }
        }
        h.finish()
    }
}

/// Destination for the gradients a `Tape::backward` pass produces —
/// either the live [`ParamStore`] (serial training) or a detached
/// [`GradSet`] (one per sample in data-parallel training, merged in a
/// fixed order afterwards).
pub trait GradSink {
    /// Mutable gradient buffer for parameter slot `pid`.
    fn grad_mut(&mut self, pid: usize) -> &mut Matrix;
}

impl GradSink for ParamStore {
    fn grad_mut(&mut self, pid: usize) -> &mut Matrix {
        &mut self.grads[pid]
    }
}

/// A detached set of per-parameter gradients, shaped like a
/// [`ParamStore`]'s gradient buffers. The data-parallel training loop
/// gives every sample its own `GradSet` and merges them pairwise in a
/// fixed tree order, so the reduced gradient is bit-identical at any
/// thread count.
#[derive(Debug, Clone)]
pub struct GradSet {
    grads: Vec<Matrix>,
}

impl GradSet {
    /// Zeroed gradients shaped like `store`'s parameters.
    pub fn zeros_like(store: &ParamStore) -> GradSet {
        GradSet {
            grads: store
                .values
                .iter()
                .map(|m| Matrix::zeros(m.rows(), m.cols()))
                .collect(),
        }
    }

    /// Elementwise `self += other` across every parameter slot.
    pub fn merge(&mut self, other: &GradSet) {
        assert_eq!(self.grads.len(), other.grads.len(), "grad set mismatch");
        for (a, b) in self.grads.iter_mut().zip(&other.grads) {
            a.add_assign(b);
        }
    }

    /// Gradient matrices by slot.
    pub fn grads(&self) -> &[Matrix] {
        &self.grads
    }
}

impl GradSink for GradSet {
    fn grad_mut(&mut self, pid: usize) -> &mut Matrix {
        &mut self.grads[pid]
    }
}

/// Adam optimizer state.
#[derive(Debug, Clone)]
pub struct Adam {
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    t: u64,
    /// First-moment decay (default 0.9).
    pub beta1: f32,
    /// Second-moment decay (default 0.999).
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl Adam {
    /// Adam with the paper's (PyTorch-default) hyper-parameters, shaped
    /// for `store`.
    pub fn new(store: &ParamStore) -> Adam {
        let shapes = |src: &[Matrix]| {
            src.iter()
                .map(|m| Matrix::zeros(m.rows(), m.cols()))
                .collect::<Vec<_>>()
        };
        Adam {
            m: shapes(&store.values),
            v: shapes(&store.values),
            t: 0,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// One optimization step at learning rate `lr`; consumes the
    /// gradients currently in `store` (does not zero them).
    pub fn step(&mut self, store: &mut ParamStore, lr: f32) {
        assert_eq!(self.m.len(), store.len(), "optimizer/store mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for pid in 0..store.len() {
            // split borrows: gradients are read, values written
            let g = store.grads[pid].clone();
            let m = &mut self.m[pid];
            let v = &mut self.v[pid];
            let w = &mut store.values[pid];
            for i in 0..g.data().len() {
                let gi = g.data()[i];
                let mi = self.beta1 * m.data()[i] + (1.0 - self.beta1) * gi;
                let vi = self.beta2 * v.data()[i] + (1.0 - self.beta2) * gi * gi;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let mhat = mi / b1t;
                let vhat = vi / b2t;
                w.data_mut()[i] -= lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_roundtrip() {
        let mut s = ParamStore::new();
        let a = s.add(Matrix::full(2, 2, 1.0));
        let b = s.add(Matrix::full(1, 3, 2.0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 7);
        s.grad_mut(a).data_mut()[0] = 5.0;
        assert_eq!(s.grad(a).get(0, 0), 5.0);
        s.zero_grads();
        assert_eq!(s.grad(a).get(0, 0), 0.0);
        let snap = s.snapshot();
        s.value_mut(b).data_mut()[0] = -1.0;
        s.restore(&snap);
        assert_eq!(s.value(b).get(0, 0), 2.0);
    }

    #[test]
    fn adam_minimizes_quadratic() {
        // minimize (w - 3)^2 by gradient 2(w-3)
        let mut s = ParamStore::new();
        let w = s.add(Matrix::full(1, 1, 0.0));
        let mut adam = Adam::new(&s);
        for _ in 0..500 {
            s.zero_grads();
            let wv = s.value(w).get(0, 0);
            s.grad_mut(w).set(0, 0, 2.0 * (wv - 3.0));
            adam.step(&mut s, 0.05);
        }
        let wv = s.value(w).get(0, 0);
        assert!((wv - 3.0).abs() < 0.05, "w = {wv}");
    }

    #[test]
    fn grad_set_merges_and_loads() {
        let mut s = ParamStore::new();
        let a = s.add(Matrix::full(2, 2, 1.0));
        let mut left = GradSet::zeros_like(&s);
        let mut right = GradSet::zeros_like(&s);
        left.grad_mut(a).set(0, 0, 1.5);
        right.grad_mut(a).set(0, 0, 2.0);
        right.grad_mut(a).set(1, 1, -3.0);
        left.merge(&right);
        assert_eq!(left.grads()[a].get(0, 0), 3.5);
        assert_eq!(left.grads()[a].get(1, 1), -3.0);
        s.load_grads(&left);
        assert_eq!(s.grad(a).get(0, 0), 3.5);
    }

    #[test]
    fn fingerprint_tracks_exact_bits() {
        let mut s = ParamStore::new();
        let w = s.add(Matrix::full(2, 3, 0.25));
        let base = s.fingerprint();
        assert_eq!(base, s.fingerprint(), "fingerprint is deterministic");
        // the smallest possible perturbation changes the fingerprint
        let bits = s.value(w).get(1, 2).to_bits();
        s.value_mut(w).set(1, 2, f32::from_bits(bits ^ 1));
        assert_ne!(base, s.fingerprint());
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // bias correction makes the very first step ≈ lr regardless of
        // gradient magnitude
        let mut s = ParamStore::new();
        let w = s.add(Matrix::full(1, 1, 1.0));
        let mut adam = Adam::new(&s);
        s.grad_mut(w).set(0, 0, 1234.5);
        adam.step(&mut s, 0.01);
        let delta = (1.0 - s.value(w).get(0, 0)).abs();
        assert!((delta - 0.01).abs() < 1e-4, "delta = {delta}");
    }
}
