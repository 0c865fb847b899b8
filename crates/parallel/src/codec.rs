//! Canonical byte encodings of model specs and pipeline plans.
//!
//! One layout serves every place a plan leaves the process: the
//! object store's plan artifacts, the wire protocol's search replies,
//! and the plan files `predtop search --plan-out` writes and
//! `predtop-lint --plan` reads (and `--fix` rewrites). The layout
//! follows the `predtop_store::encode` conventions: fixed-width
//! little-endian integers, one-byte enum tags, and a leading version
//! byte on self-contained payloads ([`encode_plan`]).
//!
//! Decoding never panics on arbitrary bytes. Beyond truncation, bad
//! tags, and trailing garbage, the decoders reject field values the
//! plan types cannot hold — a zero or absurdly large mesh or
//! parallelism degree — with [`DecodeError::OutOfRange`] instead of
//! tripping the `assert!` in [`MeshShape::new`] or
//! [`ParallelConfig::new`].

use predtop_models::{ModelKind, ModelSpec, MoeSpec, StageSpec};
use predtop_store::{ByteReader, ByteWriter, DecodeError};

use crate::config::{MeshShape, ParallelConfig};
use crate::plan::{PipelinePlan, PlannedStage};

/// Version byte heading every plan encoding.
pub const PLAN_ENCODING_VERSION: u8 = 1;

/// Largest mesh or parallelism degree a decoded plan may carry. Far
/// above any real cluster; the cap only keeps a corrupt field from
/// becoming a device count that overflows downstream arithmetic.
pub const MAX_DEGREE: usize = 1 << 16;

/// Append `m`'s canonical encoding to `w`. Stable across runs: a pure
/// function of the spec's fields. This is the one model layout in the
/// workspace — store artifacts and wire frames both use it.
pub fn encode_model(w: &mut ByteWriter, m: &ModelSpec) {
    w.u8(match m.kind {
        ModelKind::Gpt3 => 1,
        ModelKind::Moe => 2,
    });
    w.usize(m.batch);
    w.usize(m.seq_len);
    w.usize(m.hidden);
    w.usize(m.num_layers);
    w.usize(m.num_heads);
    w.usize(m.vocab);
    w.usize(m.ffn_mult);
    match &m.moe {
        None => w.u8(0),
        Some(moe) => {
            w.u8(1);
            w.usize(moe.num_experts);
            w.usize(moe.expert_hidden);
            w.usize(moe.every);
        }
    }
}

/// Decode a model spec written by [`encode_model`].
pub fn decode_model(r: &mut ByteReader<'_>) -> Result<ModelSpec, DecodeError> {
    let kind = match r.u8("model kind")? {
        1 => ModelKind::Gpt3,
        2 => ModelKind::Moe,
        tag => {
            return Err(DecodeError::BadTag {
                what: "model kind",
                tag: tag as u64,
            })
        }
    };
    let batch = r.usize("model batch")?;
    let seq_len = r.usize("model seq_len")?;
    let hidden = r.usize("model hidden")?;
    let num_layers = r.usize("model num_layers")?;
    let num_heads = r.usize("model num_heads")?;
    let vocab = r.usize("model vocab")?;
    let ffn_mult = r.usize("model ffn_mult")?;
    let moe = match r.u8("moe tag")? {
        0 => None,
        1 => Some(MoeSpec {
            num_experts: r.usize("moe num_experts")?,
            expert_hidden: r.usize("moe expert_hidden")?,
            every: r.usize("moe every")?,
        }),
        tag => {
            return Err(DecodeError::BadTag {
                what: "moe tag",
                tag: tag as u64,
            })
        }
    };
    Ok(ModelSpec {
        kind,
        batch,
        seq_len,
        hidden,
        num_layers,
        num_heads,
        vocab,
        ffn_mult,
        moe,
    })
}

/// Append a stage placement — its mesh shape, then its parallel
/// configuration — to `w`.
pub fn encode_placement(w: &mut ByteWriter, mesh: MeshShape, config: ParallelConfig) {
    w.usize(mesh.nodes);
    w.usize(mesh.gpus_per_node);
    w.usize(config.dp);
    w.usize(config.mp);
}

/// Decode a placement written by [`encode_placement`]. Every degree
/// must lie in `1..=MAX_DEGREE`.
pub fn decode_placement(
    r: &mut ByteReader<'_>,
) -> Result<(MeshShape, ParallelConfig), DecodeError> {
    let mesh = MeshShape {
        nodes: degree(r, "mesh nodes (1..=65536)")?,
        gpus_per_node: degree(r, "mesh gpus per node (1..=65536)")?,
    };
    let config = ParallelConfig {
        dp: degree(r, "config dp (1..=65536)")?,
        mp: degree(r, "config mp (1..=65536)")?,
    };
    Ok((mesh, config))
}

fn degree(r: &mut ByteReader<'_>, what: &'static str) -> Result<usize, DecodeError> {
    let value = r.usize(what)?;
    if (1..=MAX_DEGREE).contains(&value) {
        Ok(value)
    } else {
        Err(DecodeError::OutOfRange {
            what,
            value: value as u64,
        })
    }
}

/// Append `plan`'s canonical (unversioned) body to `w` — the shared
/// layout behind the plan file, the store's plan artifact, and the
/// wire's search reply.
pub fn encode_plan_body(w: &mut ByteWriter, plan: &PipelinePlan) {
    w.usize(plan.microbatches);
    w.usize(plan.stages.len());
    for ps in &plan.stages {
        encode_model(w, &ps.stage.model);
        w.usize(ps.stage.start);
        w.usize(ps.stage.end);
        encode_placement(w, ps.mesh, ps.config);
    }
}

/// Decode a plan body written by [`encode_plan_body`].
pub fn decode_plan_body(r: &mut ByteReader<'_>) -> Result<PipelinePlan, DecodeError> {
    let microbatches = r.usize("plan microbatches")?;
    let num_stages = r.usize("plan stage count")?;
    let mut stages = Vec::new();
    for _ in 0..num_stages {
        let model = decode_model(r)?;
        let start = r.usize("stage start")?;
        let end = r.usize("stage end")?;
        let (mesh, config) = decode_placement(r)?;
        stages.push(PlannedStage {
            stage: StageSpec { model, start, end },
            mesh,
            config,
        });
    }
    Ok(PipelinePlan {
        stages,
        microbatches,
    })
}

/// Encode a plan as a self-contained, versioned payload: the bytes of
/// a plan file and of the store's plan artifact.
pub fn encode_plan(plan: &PipelinePlan) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(PLAN_ENCODING_VERSION);
    encode_plan_body(&mut w, plan);
    w.into_bytes()
}

/// Decode a payload written by [`encode_plan`]. The round trip is
/// exact: `decode_plan(&encode_plan(p)) == p` for every plan.
pub fn decode_plan(bytes: &[u8]) -> Result<PipelinePlan, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let version = r.u8("plan version")?;
    if version != PLAN_ENCODING_VERSION {
        return Err(DecodeError::UnsupportedVersion {
            what: "plan",
            version: version as u64,
        });
    }
    let plan = decode_plan_body(&mut r)?;
    r.finish()?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

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
    fn plan_round_trip_is_exact() {
        let plan = sample_plan();
        let bytes = encode_plan(&plan);
        assert_eq!(decode_plan(&bytes).unwrap(), plan);
        // a second encode of the decoded plan is byte-identical
        assert_eq!(encode_plan(&decode_plan(&bytes).unwrap()), bytes);
    }

    #[test]
    fn moe_model_round_trips_with_its_spec() {
        let m = ModelSpec::moe_2p6b(4);
        let mut w = ByteWriter::new();
        encode_model(&mut w, &m);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(decode_model(&mut r).unwrap(), m);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_and_versioned_payloads_error_cleanly() {
        let bytes = encode_plan(&sample_plan());
        for cut in 0..bytes.len() {
            assert!(decode_plan(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut wrong = bytes.clone();
        wrong[0] = 99;
        assert!(matches!(
            decode_plan(&wrong),
            Err(DecodeError::UnsupportedVersion {
                what: "plan",
                version: 99
            })
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            decode_plan(&trailing),
            Err(DecodeError::TrailingBytes(1))
        ));
    }

    /// Byte offset of the first stage's four placement degrees: the
    /// version byte, microbatches, stage count, the model, start, end.
    fn first_placement_offset() -> usize {
        let mut w = ByteWriter::new();
        encode_model(&mut w, &tiny_model());
        1 + 8 + 8 + w.len() + 8 + 8
    }

    #[test]
    fn zero_and_huge_placement_degrees_are_decode_errors() {
        let plan = sample_plan();
        let bytes = encode_plan(&plan);
        let at = first_placement_offset();
        // the offset really is the placement: the first stage's degrees
        assert_eq!(&bytes[at..at + 8], &1u64.to_le_bytes());
        for field in 0..4 {
            for bad in [0u64, MAX_DEGREE as u64 + 1, u64::MAX] {
                let mut evil = bytes.clone();
                let o = at + 8 * field;
                evil[o..o + 8].copy_from_slice(&bad.to_le_bytes());
                assert!(
                    matches!(decode_plan(&evil), Err(DecodeError::OutOfRange { value, .. }) if value == bad),
                    "field {field} = {bad} must be refused"
                );
            }
        }
    }

    #[test]
    fn random_and_mutated_bytes_never_panic() {
        let valid = encode_plan(&sample_plan());
        let mut rng = StdRng::seed_from_u64(0x5eed_c0de);
        for case in 0..2000 {
            let bytes: Vec<u8> = if case % 2 == 0 {
                (0..rng.gen_range(0..256)).map(|_| rng.gen()).collect()
            } else {
                let mut b = valid.clone();
                for _ in 0..rng.gen_range(1..5) {
                    let i = rng.gen_range(0..b.len());
                    b[i] = rng.gen();
                }
                b
            };
            // any outcome but a panic is acceptable; a decoded plan
            // must still carry constructible placements
            if let Ok(plan) = decode_plan(&bytes) {
                for ps in &plan.stages {
                    MeshShape::new(ps.mesh.nodes, ps.mesh.gpus_per_node);
                    ParallelConfig::new(ps.config.dp, ps.config.mp);
                }
            }
        }
    }
}
