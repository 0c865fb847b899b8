//! Per-operator sharding strategies and resharding collectives.
//!
//! This is the strategy vocabulary of Alpa's intra-operator pass reduced
//! to its essential axes: a tensor produced by an operator is either
//! replicated on all `mp` devices, sharded along its batch axis, sharded
//! along its last (feature/column) axis, or exists as partial sums that
//! still need an all-reduce. The intra-stage optimizer picks one strategy
//! per node; transitioning an edge between mismatched strategies costs a
//! collective priced by the cluster model.

use predtop_cluster::collective::Collective;

/// How an operator's *output* tensor is laid out across the `mp` devices
/// of its group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sharding {
    /// Full copy on every device.
    Replicated,
    /// Split along the leading (batch/token) axis.
    BatchSharded,
    /// Split along the trailing (feature) axis — the layout a
    /// column-parallel matmul produces.
    ColSharded,
    /// Each device holds a partial sum of the full tensor — the layout a
    /// row-parallel matmul produces before its all-reduce.
    PartialSum,
}

impl Sharding {
    /// All strategies, in a stable order.
    pub const ALL: [Sharding; 4] = [
        Sharding::Replicated,
        Sharding::BatchSharded,
        Sharding::ColSharded,
        Sharding::PartialSum,
    ];

    /// Fraction of the full tensor each device stores (1.0 for
    /// replicated/partial, 1/mp for sharded layouts).
    pub fn storage_fraction(self, mp: usize) -> f64 {
        match self {
            Sharding::Replicated | Sharding::PartialSum => 1.0,
            Sharding::BatchSharded | Sharding::ColSharded => 1.0 / mp as f64,
        }
    }

    /// The collective required to convert a tensor laid out as `self`
    /// into layout `to` within an `mp`-device group, with the byte count
    /// the collective moves (expressed as a fraction of the full tensor
    /// size). `None` means no communication (free or a pure local
    /// reinterpretation).
    pub fn reshard_to(self, to: Sharding) -> Option<(Collective, f64)> {
        use Sharding::*;
        match (self, to) {
            // identical layouts are free
            (Replicated, Replicated)
            | (BatchSharded, BatchSharded)
            | (ColSharded, ColSharded)
            | (PartialSum, PartialSum) => None,
            // consuming a replicated tensor in any sharded layout is a
            // local slice; materializing replication from shards gathers
            (Replicated, BatchSharded) | (Replicated, ColSharded) => None,
            (BatchSharded, Replicated) | (ColSharded, Replicated) => {
                Some((Collective::AllGather, 1.0))
            }
            // switching shard axis = all-to-all over the shard
            (BatchSharded, ColSharded) | (ColSharded, BatchSharded) => {
                Some((Collective::AllToAll, 1.0))
            }
            // resolving partial sums
            (PartialSum, Replicated) => Some((Collective::AllReduce, 1.0)),
            (PartialSum, BatchSharded) | (PartialSum, ColSharded) => {
                Some((Collective::ReduceScatter, 1.0))
            }
            // nothing ever needs to *become* a partial sum; price it as a
            // full all-reduce to keep the optimizer away from it
            (_, PartialSum) => Some((Collective::AllReduce, 1.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_reshard_is_free() {
        for s in Sharding::ALL {
            assert!(s.reshard_to(s).is_none(), "{s:?}");
        }
    }

    #[test]
    fn partial_sum_resolution_uses_reductions() {
        assert_eq!(
            Sharding::PartialSum.reshard_to(Sharding::Replicated),
            Some((Collective::AllReduce, 1.0))
        );
        assert_eq!(
            Sharding::PartialSum.reshard_to(Sharding::BatchSharded),
            Some((Collective::ReduceScatter, 1.0))
        );
    }

    #[test]
    fn replicated_feeds_shards_for_free() {
        assert!(Sharding::Replicated
            .reshard_to(Sharding::BatchSharded)
            .is_none());
        assert!(Sharding::Replicated
            .reshard_to(Sharding::ColSharded)
            .is_none());
    }

    #[test]
    fn storage_fractions() {
        assert_eq!(Sharding::Replicated.storage_fraction(4), 1.0);
        assert_eq!(Sharding::BatchSharded.storage_fraction(4), 0.25);
        assert_eq!(Sharding::PartialSum.storage_fraction(4), 1.0);
    }

    #[test]
    fn axis_switch_is_all_to_all() {
        assert_eq!(
            Sharding::BatchSharded.reshard_to(Sharding::ColSharded),
            Some((Collective::AllToAll, 1.0))
        );
    }
}
