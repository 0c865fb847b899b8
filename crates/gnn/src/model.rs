//! The common predictor interface and the shared regression head.
//!
//! §IV-B5: every architecture produces node embeddings, pools them with
//! a global add pool (eqn. 2 — "nodes ... have an additive effect on the
//! overall latency"), and regresses the latency through ReLU linear
//! layers. The head here is shared by GCN, GAT, and the DAG Transformer
//! so accuracy differences isolate the embedding architecture.

use predtop_tensor::{xavier_uniform, Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;

use crate::dataset::{GraphSample, TargetScaler};

/// Which architecture a model instantiates (display / table labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Graph convolutional network baseline (6 × 256).
    Gcn,
    /// Graph attention network baseline (6 × 32).
    Gat,
    /// DAG Transformer (4 layers × 64, 4 heads) — the paper's model.
    DagTransformer,
}

impl ModelKind {
    /// Column label as used in Tables V/VI.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Gcn => "GCN",
            ModelKind::Gat => "GAT",
            ModelKind::DagTransformer => "Tran",
        }
    }
}

/// A trainable graph-level regressor.
///
/// `Send + Sync` so a [`TrainedPredictor`] (and anything wearing one,
/// like `predtop-core`'s `PredTop`) can serve `stage_latency` queries
/// from the parallel plan-search engine's worker threads.
pub trait GnnModel: Send + Sync {
    /// Architecture tag.
    fn kind(&self) -> ModelKind;

    /// Record the forward pass of one sample, returning the `1 × 1`
    /// prediction (normalized-target space).
    fn forward(&self, tape: &mut Tape, sample: &GraphSample) -> Var;

    /// The parameter store (reading).
    fn store(&self) -> &ParamStore;

    /// The parameter store (optimizer access).
    fn store_mut(&mut self) -> &mut ParamStore;
}

/// The shared two-layer ReLU regression head: `1 × d` pooled embedding →
/// `d → d/2 → 1`.
#[derive(Debug, Clone)]
pub struct Head {
    w1: usize,
    b1: usize,
    w2: usize,
    b2: usize,
}

impl Head {
    /// Register head parameters for pooled width `dim`.
    pub fn new(store: &mut ParamStore, dim: usize, rng: &mut StdRng) -> Head {
        let mid = (dim / 2).max(1);
        Head {
            w1: store.add(xavier_uniform(dim, mid, rng)),
            b1: store.add(Matrix::zeros(1, mid)),
            w2: store.add(xavier_uniform(mid, 1, rng)),
            b2: store.add(Matrix::zeros(1, 1)),
        }
    }

    /// Apply: pooled `1 × d` → scalar prediction.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, pooled: Var) -> Var {
        let w1 = tape.param(store, self.w1);
        let b1 = tape.param(store, self.b1);
        let h = tape.matmul(pooled, w1);
        let h = tape.add_row(h, b1);
        let h = tape.relu(h);
        let w2 = tape.param(store, self.w2);
        let b2 = tape.param(store, self.b2);
        let out = tape.matmul(h, w2);
        tape.add_row(out, b2)
    }
}

/// Layer-normalization parameters (γ, β).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: usize,
    beta: usize,
}

impl LayerNorm {
    /// Register γ (ones) and β (zeros) for width `dim`.
    pub fn new(store: &mut ParamStore, dim: usize) -> LayerNorm {
        LayerNorm {
            gamma: store.add(Matrix::full(1, dim, 1.0)),
            beta: store.add(Matrix::zeros(1, dim)),
        }
    }

    /// `γ ∘ normalize_rows(x) + β`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let normed = tape.normalize_rows(x);
        let g = tape.param(store, self.gamma);
        let b = tape.param(store, self.beta);
        let scaled = tape.mul_row(normed, g);
        tape.add_row(scaled, b)
    }
}

/// A dense layer's parameter pair.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight slot.
    pub w: usize,
    /// Bias slot.
    pub b: usize,
}

impl Dense {
    /// Register a `in_dim → out_dim` dense layer.
    pub fn new(store: &mut ParamStore, in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Dense {
        Dense {
            w: store.add(xavier_uniform(in_dim, out_dim, rng)),
            b: store.add(Matrix::zeros(1, out_dim)),
        }
    }

    /// `x · W + b`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let h = tape.matmul(x, w);
        tape.add_row(h, b)
    }
}

/// A trained model bundled with the target scaler that maps its outputs
/// back to seconds — the deployable predictor.
pub struct TrainedPredictor {
    /// The trained network.
    pub model: Box<dyn GnnModel>,
    /// Scaler fit on the training targets.
    pub scaler: TargetScaler,
}

impl TrainedPredictor {
    /// Predict the stage latency of `sample` in seconds.
    ///
    /// Inference reuses a thread-local tape (see [`with_serve_tape`]),
    /// so steady-state queries from the plan-search workers allocate
    /// nothing.
    pub fn predict(&self, sample: &GraphSample) -> f64 {
        with_serve_tape(|tape| {
            let out = self.model.forward(tape, sample);
            self.scaler.inverse(tape.value(out).get(0, 0))
        })
    }
}

std::thread_local! {
    static SERVE_TAPE: std::cell::RefCell<Tape> = std::cell::RefCell::new(Tape::new());
}

/// Run `f` on this thread's reusable inference tape (reset first, so
/// `f` sees an empty tape backed by a warm buffer pool). One tape per
/// thread keeps the plan-search workers contention-free while letting
/// repeated `stage_latency` queries recycle every forward-pass buffer.
pub fn with_serve_tape<R>(f: impl FnOnce(&mut Tape) -> R) -> R {
    SERVE_TAPE.with(|cell| {
        let mut tape = cell.borrow_mut();
        tape.reset();
        f(&mut tape)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn head_outputs_scalar() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let head = Head::new(&mut store, 8, &mut rng);
        let mut tape = Tape::new();
        let pooled = tape.constant(Matrix::full(1, 8, 0.5));
        let out = head.forward(&mut tape, &store, pooled);
        let v = tape.value(out);
        assert_eq!((v.rows(), v.cols()), (1, 1));
        assert!(v.get(0, 0).is_finite());
    }

    #[test]
    fn head_is_trainable_end_to_end() {
        use predtop_tensor::{Adam, Loss};
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let head = Head::new(&mut store, 4, &mut rng);
        let mut adam = Adam::new(&store);
        let x = Matrix::from_vec(1, 4, vec![1.0, -0.5, 0.25, 2.0]);
        let target = 0.75f32;
        let mut last = f32::MAX;
        for _ in 0..300 {
            store.zero_grads();
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let out = head.forward(&mut tape, &store, xv);
            let pred = tape.value(out).get(0, 0);
            last = Loss::Mse.value(pred, target);
            let seed = Matrix::full(1, 1, Loss::Mse.grad(pred, target));
            tape.backward(out, seed, &mut store);
            adam.step(&mut store, 0.01);
        }
        assert!(last < 1e-3, "head failed to fit one point: loss {last}");
    }

    #[test]
    fn dense_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let d = Dense::new(&mut store, 5, 3, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::full(4, 5, 1.0));
        let y = d.forward(&mut tape, &store, x);
        assert_eq!((tape.value(y).rows(), tape.value(y).cols()), (4, 3));
    }
}
