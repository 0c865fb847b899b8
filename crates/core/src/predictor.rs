//! Predictor-architecture factory.
//!
//! The experiments instantiate the same three architectures at two
//! scales: the paper's exact hyper-parameters (GCN 6×256, GAT 6×32,
//! DAG Transformer 4×64/4 heads) and a scaled-down variant used by the
//! single-core default protocol (same shapes, smaller widths — see
//! EXPERIMENTS.md).

use predtop_gnn::dag_transformer::TransformerConfig;
use predtop_gnn::{DagTransformer, Gat, Gcn, GnnModel, ModelKind};

/// Architecture hyper-parameters for one predictor instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchConfig {
    /// Which architecture.
    pub kind: ModelKind,
    /// Number of layers.
    pub layers: usize,
    /// Hidden / embedding width.
    pub hidden: usize,
    /// Attention heads (DAG Transformer only; must divide `hidden`).
    pub heads: usize,
    /// DAGRA reachability mask on/off (DAG Transformer ablation).
    pub use_dagra: bool,
    /// DAGPE depth encoding on/off (DAG Transformer ablation).
    pub use_dagpe: bool,
}

impl ArchConfig {
    /// The paper's configuration for `kind` (§IV-B6, §VII-D).
    pub fn paper(kind: ModelKind) -> ArchConfig {
        match kind {
            ModelKind::Gcn => ArchConfig {
                kind,
                layers: 6,
                hidden: 256,
                heads: 1,
                use_dagra: true,
                use_dagpe: true,
            },
            ModelKind::Gat => ArchConfig {
                kind,
                layers: 6,
                hidden: 32,
                heads: 1,
                use_dagra: true,
                use_dagpe: true,
            },
            ModelKind::DagTransformer => ArchConfig {
                kind,
                layers: 4,
                hidden: 64,
                heads: 4,
                use_dagra: true,
                use_dagpe: true,
            },
        }
    }

    /// Scaled-down configuration preserving each architecture's relative
    /// depth/width proportions (default single-core protocol).
    pub fn scaled(kind: ModelKind) -> ArchConfig {
        match kind {
            ModelKind::Gcn => ArchConfig {
                layers: 3,
                hidden: 64,
                ..ArchConfig::paper(kind)
            },
            ModelKind::Gat => ArchConfig {
                layers: 3,
                hidden: 24,
                ..ArchConfig::paper(kind)
            },
            ModelKind::DagTransformer => ArchConfig {
                layers: 2,
                hidden: 32,
                heads: 4,
                ..ArchConfig::paper(kind)
            },
        }
    }

    /// The DAGPE width samples must be built with for this architecture
    /// (only the transformer consumes the encoding).
    pub fn pe_dim(&self) -> usize {
        self.hidden
    }

    /// Instantiate the model with fresh weights.
    pub fn build(&self, seed: u64) -> Box<dyn GnnModel> {
        match self.kind {
            ModelKind::Gcn => Box::new(Gcn::new(self.layers, self.hidden, seed)),
            ModelKind::Gat => Box::new(Gat::new(self.layers, self.hidden, seed)),
            ModelKind::DagTransformer => Box::new(DagTransformer::new(
                TransformerConfig {
                    num_layers: self.layers,
                    dim: self.hidden,
                    heads: self.heads,
                    use_dagra: self.use_dagra,
                    use_dagpe: self.use_dagpe,
                },
                seed,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_section_7d() {
        let g = ArchConfig::paper(ModelKind::Gcn);
        assert_eq!((g.layers, g.hidden), (6, 256));
        let a = ArchConfig::paper(ModelKind::Gat);
        assert_eq!((a.layers, a.hidden), (6, 32));
        let t = ArchConfig::paper(ModelKind::DagTransformer);
        assert_eq!((t.layers, t.hidden, t.heads), (4, 64, 4));
    }

    #[test]
    fn build_produces_matching_kind() {
        for kind in [ModelKind::Gcn, ModelKind::Gat, ModelKind::DagTransformer] {
            let m = ArchConfig::scaled(kind).build(1);
            assert_eq!(m.kind(), kind);
            assert!(!m.store().is_empty());
        }
    }

    #[test]
    fn scaled_is_smaller_than_paper() {
        for kind in [ModelKind::Gcn, ModelKind::Gat, ModelKind::DagTransformer] {
            let paper = ArchConfig::paper(kind).build(1).store().num_scalars();
            let scaled = ArchConfig::scaled(kind).build(1).store().num_scalars();
            assert!(scaled < paper, "{kind:?}: {scaled} !< {paper}");
        }
    }
}
