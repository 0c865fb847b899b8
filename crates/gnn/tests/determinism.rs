//! The training determinism contract, end to end: a short training run
//! must produce byte-identical weights at `PREDTOP_THREADS=1` and
//! `PREDTOP_THREADS=4`.
//!
//! The lib tests already prove this for explicit thread counts passed
//! to `train_with_threads`; this test exercises the environment-variable
//! path the CLI and experiment binaries actually use, and compares the
//! serialized parameter stores as well as their fingerprints.

use predtop_gnn::dag_transformer::{DagTransformer, TransformerConfig};
use predtop_gnn::train::{train, TrainConfig};
use predtop_gnn::{Dataset, GnnModel, GraphSample, Split};
use predtop_ir::{DType, Graph, GraphBuilder, OpKind};

fn chain(len: usize) -> Graph {
    let mut b = GraphBuilder::new();
    let mut x = b.input([4, 4], DType::F32);
    for i in 0..len {
        x = b.unary(
            if i % 2 == 0 {
                OpKind::Exp
            } else {
                OpKind::Tanh
            },
            x,
        );
    }
    b.finish(&[x]).unwrap()
}

fn toy() -> (Dataset, Split) {
    let samples = (1..=18)
        .map(|l| GraphSample::new(&chain(l), 1e-3 * l as f64, 16))
        .collect();
    let ds = Dataset::new(samples);
    let split = Split {
        train: (0..12).collect(),
        val: (12..15).collect(),
        test: (15..18).collect(),
    };
    (ds, split)
}

fn train_under_env(threads: &str) -> DagTransformer {
    std::env::set_var("PREDTOP_THREADS", threads);
    let mut net = DagTransformer::new(
        TransformerConfig {
            num_layers: 1,
            dim: 16,
            heads: 2,
            use_dagra: true,
            use_dagpe: true,
        },
        9,
    );
    let (ds, split) = toy();
    let (_, report) = train(&mut net, &ds, &split, &TrainConfig::quick(8));
    assert!(report.epochs_run > 0);
    net
}

/// One test owns every `PREDTOP_THREADS` manipulation: `set_var` is
/// process-global and the harness runs tests concurrently.
#[test]
fn env_thread_count_does_not_change_trained_weights() {
    let serial = train_under_env("1");
    let parallel = train_under_env("4");
    std::env::remove_var("PREDTOP_THREADS");

    assert_eq!(
        serial.store().fingerprint(),
        parallel.store().fingerprint(),
        "weight fingerprints diverged between PREDTOP_THREADS=1 and =4"
    );

    // Belt and braces beyond the fingerprint: compare every parameter's
    // exact bit pattern.
    let (a, b) = (serial.store(), parallel.store());
    assert_eq!(a.len(), b.len());
    for pid in 0..a.len() {
        let (va, vb) = (a.value(pid), b.value(pid));
        assert_eq!((va.rows(), va.cols()), (vb.rows(), vb.cols()));
        for (i, (xa, xb)) in va.data().iter().zip(vb.data()).enumerate() {
            assert_eq!(
                xa.to_bits(),
                xb.to_bits(),
                "param {pid} scalar {i} differs: {xa} vs {xb}"
            );
        }
    }
}
