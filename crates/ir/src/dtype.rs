//! Element data types carried by tensors in the IR.
//!
//! The paper's Table I encodes the *output data type* of every node as a
//! one-hot vector; [`DType::one_hot_index`] provides the stable index used
//! by `features`.

/// Element type of a tensor value.
///
/// The set mirrors the dtypes that actually show up in jaxpr dumps of the
/// two benchmarks (GPT-3 and GShard MoE trained in mixed precision):
/// 16/32-bit floats for activations and parameters, integers for token ids
/// and routing indices, and booleans for masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DType {
    /// 16-bit IEEE float (activation/weight storage under mixed precision).
    F16,
    /// bfloat16 — same byte width as F16, different dynamic range.
    BF16,
    /// 32-bit IEEE float (master weights, reductions).
    F32,
    /// 64-bit IEEE float (rare; loss scalars in some configs).
    F64,
    /// 32-bit signed integer (token ids, expert indices).
    I32,
    /// 64-bit signed integer (positions, gather indices).
    I64,
    /// 32-bit unsigned integer (RNG state).
    U32,
    /// Boolean (attention masks, dispatch masks).
    Bool,
}

/// Number of distinct [`DType`] variants (width of the one-hot encoding).
pub const NUM_DTYPES: usize = 8;

impl DType {
    /// All dtypes in one-hot-index order.
    pub const ALL: [DType; NUM_DTYPES] = [
        DType::F16,
        DType::BF16,
        DType::F32,
        DType::F64,
        DType::I32,
        DType::I64,
        DType::U32,
        DType::Bool,
    ];

    /// Size in bytes of one element of this dtype.
    ///
    /// `Bool` is stored as one byte, matching XLA's `PRED` layout.
    #[inline]
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F16 | DType::BF16 => 2,
            DType::F32 | DType::I32 | DType::U32 => 4,
            DType::F64 | DType::I64 => 8,
            DType::Bool => 1,
        }
    }

    /// Stable index of this dtype inside the Table I one-hot block.
    #[inline]
    pub fn one_hot_index(self) -> usize {
        match self {
            DType::F16 => 0,
            DType::BF16 => 1,
            DType::F32 => 2,
            DType::F64 => 3,
            DType::I32 => 4,
            DType::I64 => 5,
            DType::U32 => 6,
            DType::Bool => 7,
        }
    }

    /// Whether this is a floating-point type (participates in FLOP
    /// accounting in the simulator; integer ops are costed as bandwidth
    /// bound).
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(self, DType::F16 | DType::BF16 | DType::F32 | DType::F64)
    }

    /// Short lowercase name as it appears in jaxpr text (`f32`, `bf16`, ...).
    pub fn name(self) -> &'static str {
        match self {
            DType::F16 => "f16",
            DType::BF16 => "bf16",
            DType::F32 => "f32",
            DType::F64 => "f64",
            DType::I32 => "i32",
            DType::I64 => "i64",
            DType::U32 => "u32",
            DType::Bool => "bool",
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_indices_are_dense_and_unique() {
        let mut seen = [false; NUM_DTYPES];
        for dt in DType::ALL {
            let i = dt.one_hot_index();
            assert!(i < NUM_DTYPES, "index {i} out of range for {dt}");
            assert!(!seen[i], "duplicate one-hot index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn all_order_matches_one_hot_index() {
        for (i, dt) in DType::ALL.iter().enumerate() {
            assert_eq!(dt.one_hot_index(), i);
        }
    }

    #[test]
    fn sizes_match_ieee_widths() {
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::BF16.size_bytes(), 2);
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F64.size_bytes(), 8);
        assert_eq!(DType::I32.size_bytes(), 4);
        assert_eq!(DType::I64.size_bytes(), 8);
        assert_eq!(DType::U32.size_bytes(), 4);
        assert_eq!(DType::Bool.size_bytes(), 1);
    }

    #[test]
    fn float_classification() {
        assert!(DType::F16.is_float());
        assert!(DType::BF16.is_float());
        assert!(DType::F32.is_float());
        assert!(DType::F64.is_float());
        assert!(!DType::I32.is_float());
        assert!(!DType::Bool.is_float());
    }

    #[test]
    fn display_matches_jaxpr_spelling() {
        assert_eq!(DType::BF16.to_string(), "bf16");
        assert_eq!(DType::Bool.to_string(), "bool");
    }
}
