//! Run-time context used to index the ARPT.

use arl_isa::INST_BYTES;

/// The run-time context XOR-folded into the ARPT index (paper
/// Section 3.4.1): global branch history (GBH), caller identification (CID,
/// the link register), both, or none.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Context {
    /// Index by pc alone (the simple 1-bit / 2-bit schemes).
    #[default]
    None,
    /// XOR the low `bits` of the global (conditional-)branch history.
    Gbh {
        /// Number of history bits used.
        bits: u32,
    },
    /// XOR the low `bits` of the caller identification (the `$ra` word
    /// index — "the link register usually keeps the next PC of the call
    /// instruction and thus can be used as a unique CID").
    Cid {
        /// Number of CID bits used.
        bits: u32,
    },
    /// Concatenate GBH above CID: `gbh << cid_bits | cid`. The paper's
    /// unlimited-table hybrid uses 8 + 24 bits; the Table 4 pipeline uses
    /// 8 + 7 bits.
    Hybrid {
        /// GBH bits (upper field).
        gbh_bits: u32,
        /// CID bits (lower field).
        cid_bits: u32,
    },
}

impl Context {
    /// The paper's unlimited-ARPT hybrid: 8 GBH bits over 24 CID bits.
    pub const HYBRID_8_24: Context = Context::Hybrid {
        gbh_bits: 8,
        cid_bits: 24,
    };

    /// The Table 4 machine's hybrid: 8 GBH bits over 7 CID bits.
    pub const HYBRID_8_7: Context = Context::Hybrid {
        gbh_bits: 8,
        cid_bits: 7,
    };

    fn mask(bits: u32) -> u64 {
        if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        }
    }

    /// Computes the context value for an instruction, given the global
    /// branch history register and the current link-register value.
    pub fn value(&self, ghr: u64, ra: u64) -> u64 {
        let cid = ra / INST_BYTES;
        match *self {
            Context::None => 0,
            Context::Gbh { bits } => ghr & Self::mask(bits),
            Context::Cid { bits } => cid & Self::mask(bits),
            Context::Hybrid { gbh_bits, cid_bits } => {
                ((ghr & Self::mask(gbh_bits)) << cid_bits) | (cid & Self::mask(cid_bits))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_zero() {
        assert_eq!(Context::None.value(u64::MAX, u64::MAX), 0);
    }

    #[test]
    fn gbh_takes_low_history_bits() {
        let c = Context::Gbh { bits: 4 };
        assert_eq!(c.value(0b1011_0110, 0), 0b0110);
    }

    #[test]
    fn cid_uses_word_index_of_ra() {
        let c = Context::Cid { bits: 8 };
        // ra = 0x400010 → word index 0x80002 → low 8 bits = 0x02.
        assert_eq!(c.value(0, 0x40_0010), 0x02);
    }

    #[test]
    fn hybrid_concatenates() {
        let c = Context::Hybrid {
            gbh_bits: 4,
            cid_bits: 8,
        };
        let v = c.value(0b1111, 8 * 0xAB);
        assert_eq!(v, 0b1111 << 8 | 0xAB);
    }

    #[test]
    fn hybrid_presets_distinguish_contexts() {
        // Two calls from different sites must map to different hybrid values.
        let a = Context::HYBRID_8_24.value(0, 0x40_0100);
        let b = Context::HYBRID_8_24.value(0, 0x40_0200);
        assert_ne!(a, b);
        // And different histories change the value too.
        let c = Context::HYBRID_8_7.value(0b1, 0x40_0100);
        let d = Context::HYBRID_8_7.value(0b0, 0x40_0100);
        assert_ne!(c, d);
    }
}
