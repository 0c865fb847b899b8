//! Canonical byte encodings of core artifacts for the object store.
//!
//! `predtop-store` moves verified bytes; the typed encodings live with
//! the types. This module pins a versioned little-endian layout for
//! every store-addressable artifact the core layer produces:
//!
//! * **plans** ([`encode_plan`] / [`decode_plan`]) — a
//!   [`PipelinePlan`] with its model spec, exact to the bit. The layout
//!   lives with the plan type in [`predtop_parallel::codec`] (plan
//!   files and wire replies share it) and is re-exported here;
//! * **search snapshots** ([`encode_outcome`] / [`decode_outcome`]) —
//!   the deterministic slice of a [`SearchOutcome`] (plan, latencies as
//!   raw `f64` bits, query/rejection counts). `search_seconds` and the
//!   per-layer service accounting are deliberately *excluded*: they are
//!   wall-clock facts of one run, not properties of the search problem,
//!   and storing them would make byte-identity across runs impossible;
//! * **predictor snapshots** ([`encode_predictor`] /
//!   [`decode_predictor`]) — architecture, target scaler, and every
//!   weight matrix, sealed with the [`ParamStore`
//!   fingerprint](predtop_tensor::ParamStore::fingerprint) that decode
//!   re-verifies against the rebuilt weights. These are also the model
//!   files `predtop fit -o` writes and `predict -m` / `serve -m` read.
//!
//! Decoding never panics on arbitrary bytes: malformed input — including
//! an architecture the predictor constructors would refuse, or one wider
//! or deeper than [`MAX_ARCH_HIDDEN`] / [`MAX_ARCH_LAYERS`] — surfaces
//! as [`DecodeError`]; a predictor whose restored weights do not hash
//! back to the stored fingerprint surfaces as
//! [`ArtifactError::FingerprintMismatch`]. In store-backed flows the
//! payload digest already guards integrity, so the fingerprint is a
//! second, semantic seal: it fails if the *encoding itself* ever drifts
//! from the weights it claims to carry.

use predtop_gnn::{ModelKind as PredictorKind, TargetScaler, TrainedPredictor};
use predtop_parallel::codec::{decode_plan_body, encode_plan_body};
use predtop_parallel::PipelinePlan;
use predtop_store::{ByteReader, ByteWriter, DecodeError};
use predtop_tensor::Matrix;

pub use predtop_parallel::codec::{decode_plan, encode_plan, PLAN_ENCODING_VERSION};

use crate::predictor::ArchConfig;
use crate::search::SearchOutcome;

/// Version byte heading every search-snapshot encoding.
pub const OUTCOME_ENCODING_VERSION: u8 = 1;
/// Version byte heading every predictor-snapshot encoding.
pub const PREDICTOR_ENCODING_VERSION: u8 = 1;
/// Deepest predictor a decoded snapshot may declare (the paper's
/// deepest is 6 layers). Decoding rebuilds the architecture before it
/// reads the weights, so this cap and [`MAX_ARCH_HIDDEN`] bound what a
/// hostile file can make the decoder allocate: ~270 MB (weights plus
/// gradient buffers) for a DAG Transformer at both caps.
pub const MAX_ARCH_LAYERS: usize = 16;
/// Widest predictor a decoded snapshot may declare (the paper's widest
/// is 256).
pub const MAX_ARCH_HIDDEN: usize = 512;

/// Failure decoding a typed artifact from store bytes.
#[derive(Debug)]
pub enum ArtifactError {
    /// The byte layout itself is malformed (truncated, bad tag, wrong
    /// version, trailing garbage).
    Decode(DecodeError),
    /// The restored weights do not hash back to the fingerprint sealed
    /// into the snapshot — the encoding and the weights disagree.
    FingerprintMismatch {
        /// Fingerprint recorded in the snapshot.
        expected: u64,
        /// Fingerprint of the weights actually restored.
        found: u64,
    },
    /// The snapshot's parameter matrices do not match the shapes the
    /// declared architecture builds.
    ShapeMismatch {
        /// What disagreed (count or a specific slot).
        what: &'static str,
        /// Value the rebuilt architecture expects.
        expected: usize,
        /// Value found in the snapshot.
        found: usize,
    },
    /// The snapshot's declared architecture is not the one the caller
    /// configured — the snapshot belongs to a different fit.
    ArchMismatch,
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Decode(e) => write!(f, "artifact decode: {e}"),
            ArtifactError::FingerprintMismatch { expected, found } => write!(
                f,
                "predictor fingerprint mismatch: snapshot says {expected:#018x}, \
                 restored weights hash to {found:#018x}"
            ),
            ArtifactError::ShapeMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "predictor shape mismatch ({what}): architecture expects {expected}, \
                 snapshot has {found}"
            ),
            ArtifactError::ArchMismatch => {
                write!(f, "snapshot architecture differs from the configured one")
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for ArtifactError {
    fn from(e: DecodeError) -> Self {
        ArtifactError::Decode(e)
    }
}

/// The deterministic slice of a [`SearchOutcome`]: everything that is a
/// property of the search *problem* rather than of one run's wall
/// clock. Two runs of the same search must decode byte-identical
/// snapshots — that is the store's cold-vs-warm correctness bar.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSnapshot {
    /// The chosen plan.
    pub plan: PipelinePlan,
    /// Eqn. 4 latency as estimated during the search (exact bits).
    pub estimated_latency: f64,
    /// Ground-truth latency of the chosen plan (exact bits).
    pub true_latency: f64,
    /// Stage-latency queries the search issued.
    pub num_queries: usize,
    /// Candidates a static-legality filter rejected up front.
    pub num_rejected: usize,
    /// Rejections attributable to the memory-capacity rule.
    pub num_rejected_memory: usize,
}

impl SearchSnapshot {
    /// The snapshot a given outcome would persist.
    pub fn of(out: &SearchOutcome) -> SearchSnapshot {
        SearchSnapshot {
            plan: out.plan.clone(),
            estimated_latency: out.estimated_latency,
            true_latency: out.true_latency,
            num_queries: out.num_queries,
            num_rejected: out.num_rejected,
            num_rejected_memory: out.num_rejected_memory,
        }
    }

    /// True when `out` reproduces this snapshot bit-for-bit (latencies
    /// compared on raw bits, not tolerances).
    pub fn matches(&self, out: &SearchOutcome) -> bool {
        self.plan == out.plan
            && self.estimated_latency.to_bits() == out.estimated_latency.to_bits()
            && self.true_latency.to_bits() == out.true_latency.to_bits()
            && self.num_queries == out.num_queries
            && self.num_rejected == out.num_rejected
            && self.num_rejected_memory == out.num_rejected_memory
    }
}

/// Encode the deterministic slice of `out` as a store payload.
pub fn encode_outcome(out: &SearchOutcome) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(OUTCOME_ENCODING_VERSION);
    encode_plan_body(&mut w, &out.plan);
    w.f64_bits(out.estimated_latency);
    w.f64_bits(out.true_latency);
    w.usize(out.num_queries);
    w.usize(out.num_rejected);
    w.usize(out.num_rejected_memory);
    w.into_bytes()
}

/// Decode a payload written by [`encode_outcome`].
pub fn decode_outcome(bytes: &[u8]) -> Result<SearchSnapshot, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let version = r.u8("outcome version")?;
    if version != OUTCOME_ENCODING_VERSION {
        return Err(DecodeError::UnsupportedVersion {
            what: "outcome",
            version: version as u64,
        });
    }
    let plan = decode_plan_body(&mut r)?;
    let estimated_latency = r.f64_bits("outcome estimated latency")?;
    let true_latency = r.f64_bits("outcome true latency")?;
    let num_queries = r.usize("outcome num_queries")?;
    let num_rejected = r.usize("outcome num_rejected")?;
    let num_rejected_memory = r.usize("outcome num_rejected_memory")?;
    r.finish()?;
    Ok(SearchSnapshot {
        plan,
        estimated_latency,
        true_latency,
        num_queries,
        num_rejected,
        num_rejected_memory,
    })
}

/// Append `arch`'s canonical encoding to `w`.
pub fn encode_arch(w: &mut ByteWriter, arch: &ArchConfig) {
    w.u8(match arch.kind {
        PredictorKind::Gcn => 1,
        PredictorKind::Gat => 2,
        PredictorKind::DagTransformer => 3,
    });
    w.usize(arch.layers);
    w.usize(arch.hidden);
    w.usize(arch.heads);
    w.bool(arch.use_dagra);
    w.bool(arch.use_dagpe);
}

/// Decode an architecture written by [`encode_arch`].
pub fn decode_arch(r: &mut ByteReader<'_>) -> Result<ArchConfig, DecodeError> {
    let kind = match r.u8("arch kind")? {
        1 => PredictorKind::Gcn,
        2 => PredictorKind::Gat,
        3 => PredictorKind::DagTransformer,
        tag => {
            return Err(DecodeError::BadTag {
                what: "arch kind",
                tag: tag as u64,
            })
        }
    };
    let layers = r.usize("arch layers")?;
    let hidden = r.usize("arch hidden")?;
    let heads = r.usize("arch heads")?;
    let out_of_range = |what, value: usize| DecodeError::OutOfRange {
        what,
        value: value as u64,
    };
    if !(1..=MAX_ARCH_LAYERS).contains(&layers) {
        return Err(out_of_range("arch layers (1..=16)", layers));
    }
    if !(1..=MAX_ARCH_HIDDEN).contains(&hidden) {
        return Err(out_of_range("arch hidden (1..=512)", hidden));
    }
    if heads == 0 || !hidden.is_multiple_of(heads) {
        return Err(out_of_range("arch heads (must divide hidden)", heads));
    }
    Ok(ArchConfig {
        kind,
        layers,
        hidden,
        heads,
        use_dagra: r.bool("arch use_dagra")?,
        use_dagpe: r.bool("arch use_dagpe")?,
    })
}

/// Encode a trained predictor: architecture, scaler, weight matrices,
/// and the [`ParamStore`](predtop_tensor::ParamStore) fingerprint that
/// [`decode_predictor`] re-verifies.
pub fn encode_predictor(arch: &ArchConfig, predictor: &TrainedPredictor) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(PREDICTOR_ENCODING_VERSION);
    encode_arch(&mut w, arch);
    w.f64_bits(predictor.scaler.mean);
    w.f64_bits(predictor.scaler.std);
    w.u64(predictor.model.store().fingerprint());
    let params = predictor.model.store().snapshot();
    w.usize(params.len());
    for m in &params {
        w.usize(m.rows());
        w.usize(m.cols());
        for &x in m.data() {
            w.f32_bits(x);
        }
    }
    w.into_bytes()
}

/// Rebuild a predictor from a payload written by [`encode_predictor`].
///
/// The architecture is re-instantiated, the weights restored, and the
/// restored [`ParamStore`](predtop_tensor::ParamStore)'s fingerprint
/// checked against the one sealed into the snapshot — a mismatch means
/// the bytes decode but do not carry the weights they claim to.
pub fn decode_predictor(bytes: &[u8]) -> Result<(ArchConfig, TrainedPredictor), ArtifactError> {
    let mut r = ByteReader::new(bytes);
    let version = r.u8("predictor version")?;
    if version != PREDICTOR_ENCODING_VERSION {
        return Err(DecodeError::UnsupportedVersion {
            what: "predictor",
            version: version as u64,
        }
        .into());
    }
    let arch = decode_arch(&mut r)?;
    let mean = r.f64_bits("scaler mean")?;
    let std = r.f64_bits("scaler std")?;
    let fingerprint = r.u64("predictor fingerprint")?;
    let num_params = r.usize("param count")?;

    // rebuild the architecture first so shape validation has a ground
    // truth to compare each decoded matrix against (ParamStore::restore
    // asserts on mismatch; this path must error instead)
    let mut model = arch.build(0);
    let store = model.store();
    let expected: Vec<(usize, usize)> = (0..store.len())
        .map(|pid| (store.value(pid).rows(), store.value(pid).cols()))
        .collect();
    if expected.len() != num_params {
        return Err(ArtifactError::ShapeMismatch {
            what: "param count",
            expected: expected.len(),
            found: num_params,
        });
    }
    let mut params = Vec::with_capacity(num_params);
    for &(want_rows, want_cols) in &expected {
        let rows = r.usize("param rows")?;
        let cols = r.usize("param cols")?;
        if (rows, cols) != (want_rows, want_cols) {
            return Err(ArtifactError::ShapeMismatch {
                what: "param slot shape",
                expected: want_rows * want_cols,
                found: rows.saturating_mul(cols),
            });
        }
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(r.f32_bits("param value")?);
        }
        params.push(Matrix::from_vec(rows, cols, data));
    }
    r.finish().map_err(ArtifactError::Decode)?;

    model.store_mut().restore(&params);
    let found = model.store().fingerprint();
    if found != fingerprint {
        return Err(ArtifactError::FingerprintMismatch {
            expected: fingerprint,
            found,
        });
    }
    Ok((
        arch,
        TrainedPredictor {
            model,
            scaler: TargetScaler { mean, std },
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use predtop_gnn::train::{train, TrainConfig};
    use predtop_gnn::{Dataset, GraphSample};
    use predtop_ir::{DType, GraphBuilder, OpKind};
    use predtop_models::{ModelSpec, StageSpec};
    use predtop_parallel::{MeshShape, ParallelConfig, PlannedStage};

    fn tiny_model() -> ModelSpec {
        let mut s = ModelSpec::gpt3_1p3b(2);
        s.seq_len = 32;
        s.hidden = 32;
        s.num_heads = 4;
        s.vocab = 64;
        s.num_layers = 6;
        s
    }

    fn sample_plan() -> PipelinePlan {
        let m = tiny_model();
        PipelinePlan {
            stages: vec![
                PlannedStage {
                    stage: StageSpec::new(m, 0, 3),
                    mesh: MeshShape::new(1, 1),
                    config: ParallelConfig::SERIAL,
                },
                PlannedStage {
                    stage: StageSpec::new(m, 3, 6),
                    mesh: MeshShape::new(1, 2),
                    config: ParallelConfig::new(2, 1),
                },
            ],
            microbatches: 4,
        }
    }

    #[test]
    fn outcome_round_trip_preserves_latency_bits() {
        let out = SearchOutcome {
            plan: sample_plan(),
            estimated_latency: 0.1 + 0.2, // a value with awkward bits
            true_latency: f64::from_bits(0x3FB9_9999_9999_999A),
            num_queries: 42,
            num_rejected: 7,
            num_rejected_memory: 3,
            search_seconds: 123.456, // must NOT survive the round trip
            cache: None,
            service: None,
        };
        let snap = decode_outcome(&encode_outcome(&out)).unwrap();
        assert!(snap.matches(&out));
        assert_eq!(
            snap.estimated_latency.to_bits(),
            out.estimated_latency.to_bits()
        );
        assert_eq!(snap.true_latency.to_bits(), out.true_latency.to_bits());
        assert_eq!(snap, SearchSnapshot::of(&out));
    }

    fn trained_predictor() -> (ArchConfig, TrainedPredictor) {
        let mut arch = ArchConfig::scaled(PredictorKind::DagTransformer);
        arch.layers = 1;
        arch.hidden = 16;
        arch.heads = 2;
        let samples: Vec<GraphSample> = (1..=12)
            .map(|len| {
                let mut b = GraphBuilder::new();
                let mut x = b.input([4, 4], DType::F32);
                for _ in 0..len {
                    x = b.unary(OpKind::Exp, x);
                }
                let g = b.finish(&[x]).unwrap();
                GraphSample::new(&g, 1e-3 * len as f64, arch.pe_dim())
            })
            .collect();
        let ds = Dataset::new(samples);
        let split = ds.split(0.6, 1);
        let mut model = arch.build(1);
        let (scaler, _) = train(model.as_mut(), &ds, &split, &TrainConfig::quick(5));
        (arch, TrainedPredictor { model, scaler })
    }

    #[test]
    fn predictor_round_trip_predicts_identical_bits() {
        let (arch, predictor) = trained_predictor();
        let bytes = encode_predictor(&arch, &predictor);
        let (back_arch, restored) = decode_predictor(&bytes).unwrap();
        assert_eq!(back_arch, arch);
        assert_eq!(
            restored.model.store().fingerprint(),
            predictor.model.store().fingerprint()
        );
        let mut b = GraphBuilder::new();
        let x = b.input([4, 4], DType::F32);
        let y = b.unary(OpKind::Exp, x);
        let g = b.finish(&[y]).unwrap();
        let sample = GraphSample::new(&g, 1.0, arch.pe_dim());
        assert_eq!(
            predictor.predict(&sample).to_bits(),
            restored.predict(&sample).to_bits()
        );
    }

    #[test]
    fn tampered_predictor_weights_fail_the_fingerprint_seal() {
        let (arch, predictor) = trained_predictor();
        let bytes = encode_predictor(&arch, &predictor);
        // flip one bit inside the last parameter value (the tail of the
        // payload, well past header/arch/scaler/fingerprint)
        let mut evil = bytes.clone();
        let last = evil.len() - 1;
        evil[last] ^= 0x40;
        match decode_predictor(&evil) {
            Err(ArtifactError::FingerprintMismatch { expected, found }) => {
                assert_ne!(expected, found)
            }
            Err(e) => panic!("expected fingerprint mismatch, got {e:?}"),
            Ok(_) => panic!("expected fingerprint mismatch, got a decoded predictor"),
        }
    }

    #[test]
    fn predictor_decode_never_panics_on_truncation() {
        let (arch, predictor) = trained_predictor();
        let bytes = encode_predictor(&arch, &predictor);
        // stride to keep the loop fast over the f32-heavy tail
        for cut in (0..bytes.len()).step_by(7) {
            assert!(decode_predictor(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// Byte offsets of the architecture's `layers`, `hidden`, and
    /// `heads` fields: after the version byte and the kind tag.
    const ARCH_FIELDS: [(&str, usize); 3] = [("layers", 2), ("hidden", 10), ("heads", 18)];

    #[test]
    fn zero_and_huge_arch_fields_are_decode_errors() {
        let (arch, predictor) = trained_predictor();
        let bytes = encode_predictor(&arch, &predictor);
        assert_eq!(&bytes[2..10], &(arch.layers as u64).to_le_bytes());
        for (field, at) in ARCH_FIELDS {
            for bad in [0u64, u64::MAX] {
                let mut evil = bytes.clone();
                evil[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                assert!(
                    matches!(
                        decode_predictor(&evil),
                        Err(ArtifactError::Decode(DecodeError::OutOfRange { value, .. })) if value == bad
                    ),
                    "{field} = {bad} must be refused"
                );
            }
        }
        // just past the caps, and heads that do not divide hidden
        for (at, bad) in [
            (2, MAX_ARCH_LAYERS as u64 + 1),
            (10, MAX_ARCH_HIDDEN as u64 + 1),
            (18, 3),
        ] {
            let mut evil = bytes.clone();
            evil[at..at + 8].copy_from_slice(&bad.to_le_bytes());
            assert!(matches!(
                decode_predictor(&evil),
                Err(ArtifactError::Decode(DecodeError::OutOfRange { .. }))
            ));
        }
    }

    #[test]
    fn random_and_mutated_predictor_bytes_never_panic() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (arch, predictor) = trained_predictor();
        let valid = encode_predictor(&arch, &predictor);
        let mut rng = StdRng::seed_from_u64(0x5eed_c0de);
        for case in 0..600 {
            let bytes: Vec<u8> = if case % 2 == 0 {
                (0..rng.gen_range(0..256)).map(|_| rng.gen()).collect()
            } else {
                // mutations concentrate on the header, where the
                // architecture and the shapes live
                let mut b = valid.clone();
                let span = if case % 4 == 1 { 64 } else { b.len() };
                for _ in 0..rng.gen_range(1..4) {
                    let i = rng.gen_range(0..span);
                    b[i] = rng.gen();
                }
                b
            };
            let _ = decode_predictor(&bytes);
        }
    }
}
