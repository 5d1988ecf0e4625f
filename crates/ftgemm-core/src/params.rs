//! Blocking parameters `MC`, `NC`, `KC` (and micro-tile shape `MR x NR`).
//!
//! The GotoBLAS analysis the paper adopts (§2.1): the step sizes of the
//! three outer loops decide which cache layer each packed operand lives in —
//!
//! * a `KC x NR` micro-panel of `B~` should sit in **L1d**,
//! * the `MC x KC` packed block `A~` should fill about half of **L2**,
//! * the `KC x NC` packed block `B~` should fit in **L3**.
//!
//! Parameters are derived from a [`CacheInfo`] at runtime and can be
//! overridden for ablation studies (`ftgemm-bench`'s `ablation_blocking`;
//! see `docs/ARCHITECTURE.md`).

use crate::cpu::CacheInfo;
use crate::error::{CoreError, Result};
use crate::scalar::Scalar;

/// Blocking configuration for one GEMM invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockingParams {
    /// Rows of the micro-tile (register block).
    pub mr: usize,
    /// Columns of the micro-tile (register block).
    pub nr: usize,
    /// Row block: rows of `A~` kept resident in L2.
    pub mc: usize,
    /// Column block: columns of `B~` kept resident in L3.
    pub nc: usize,
    /// Depth block: the shared `k` extent of `A~` and `B~`.
    pub kc: usize,
}

impl BlockingParams {
    /// Derives parameters for element type `T` and micro-tile `mr x nr`
    /// from the cache hierarchy.
    pub fn derive<T: Scalar>(cache: &CacheInfo, mr: usize, nr: usize) -> Self {
        let elt = std::mem::size_of::<T>();

        // KC: a KC x NR panel of B~ plus a KC x MR panel of A~ should fit in
        // L1d with room for the C tile; use ~half of L1 for the B panel.
        let kc_raw = (cache.l1d / 2) / (nr * elt);
        let kc = clamp_mult(kc_raw, 64, 64, 512);

        // MC: A~ (MC x KC) fills ~half of L2.
        let mc_raw = (cache.l2 / 2) / (kc * elt);
        let mc = clamp_mult(mc_raw, mr, mr, 1024);

        // NC: B~ (KC x NC) fills ~half of L3 (shared; the parallel driver
        // divides this among threads when packing).
        let nc_raw = (cache.l3 / 2) / (kc * elt);
        let nc = clamp_mult(nc_raw, nr, nr, 8192);

        BlockingParams { mr, nr, mc, nc, kc }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<()> {
        let check = |name: &'static str, v: usize| {
            if v == 0 {
                Err(CoreError::InvalidDimension { name, value: v })
            } else {
                Ok(())
            }
        };
        check("mr", self.mr)?;
        check("nr", self.nr)?;
        check("mc", self.mc)?;
        check("nc", self.nc)?;
        check("kc", self.kc)?;
        if self.mc % self.mr != 0 {
            return Err(CoreError::InvalidBlocking {
                context: format!("mc ({}) must be a multiple of mr ({})", self.mc, self.mr),
            });
        }
        if self.nc % self.nr != 0 {
            return Err(CoreError::InvalidBlocking {
                context: format!("nc ({}) must be a multiple of nr ({})", self.nc, self.nr),
            });
        }
        Ok(())
    }

    /// Packed-`A~` buffer length in elements (one `MC x KC` block, zero-padded
    /// to full micro-panels).
    pub fn packed_a_len(&self) -> usize {
        self.mc * self.kc
    }

    /// Packed-`B~` buffer length in elements (one `KC x NC` block, zero-padded
    /// to full micro-panels).
    pub fn packed_b_len(&self) -> usize {
        self.kc * self.nc
    }

    /// Returns a copy with a different `(mc, nc, kc)` triple (for ablations).
    pub fn with_blocks(mut self, mc: usize, nc: usize, kc: usize) -> Self {
        self.mc = mc;
        self.nc = nc;
        self.kc = kc;
        self
    }
}

/// Rounds `v` down to a multiple of `mult`, clamped into `[lo, hi]`. The
/// bounds are first snapped onto the multiple grid (`lo` up, `hi` down) so
/// the result is a multiple of `mult` even when a bound is not — e.g. the
/// portable f64 kernel's `nr = 6` against the `nc <= 8192` cap.
fn clamp_mult(v: usize, mult: usize, lo: usize, hi: usize) -> usize {
    let lo = lo.div_ceil(mult) * mult;
    let hi = ((hi / mult) * mult).max(lo);
    let down = (v / mult).max(1) * mult;
    down.clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CacheInfo;

    #[test]
    fn derive_f64_valid() {
        let p = BlockingParams::derive::<f64>(&CacheInfo::CASCADE_LAKE, 16, 8);
        p.validate().unwrap();
        assert_eq!(p.mr, 16);
        assert_eq!(p.nr, 8);
        assert!(p.kc >= 64 && p.kc <= 512);
        assert_eq!(p.mc % p.mr, 0);
        assert_eq!(p.nc % p.nr, 0);
    }

    #[test]
    fn derive_f32_larger_kc_or_equal() {
        let p64 = BlockingParams::derive::<f64>(&CacheInfo::CASCADE_LAKE, 16, 8);
        let p32 = BlockingParams::derive::<f32>(&CacheInfo::CASCADE_LAKE, 32, 8);
        assert!(p32.kc >= p64.kc);
    }

    #[test]
    fn l2_residency_budget() {
        // A~ (mc x kc f64) should not exceed ~60% of L2.
        let c = CacheInfo::CASCADE_LAKE;
        let p = BlockingParams::derive::<f64>(&c, 16, 8);
        let a_bytes = p.mc * p.kc * 8;
        assert!(
            a_bytes <= c.l2 * 6 / 10,
            "A~ = {a_bytes} bytes exceeds L2 budget"
        );
    }

    #[test]
    fn validate_rejects_bad_mc() {
        let p = BlockingParams {
            mr: 8,
            nr: 4,
            mc: 12, // not a multiple of 8
            nc: 64,
            kc: 64,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero() {
        let p = BlockingParams {
            mr: 8,
            nr: 4,
            mc: 0,
            nc: 64,
            kc: 64,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn packed_lengths() {
        let p = BlockingParams {
            mr: 8,
            nr: 4,
            mc: 64,
            nc: 128,
            kc: 32,
        };
        assert_eq!(p.packed_a_len(), 64 * 32);
        assert_eq!(p.packed_b_len(), 32 * 128);
    }

    #[test]
    fn with_blocks_override() {
        let p =
            BlockingParams::derive::<f64>(&CacheInfo::CASCADE_LAKE, 16, 8).with_blocks(32, 64, 128);
        assert_eq!((p.mc, p.nc, p.kc), (32, 64, 128));
        assert_eq!(p.mr, 16);
    }

    #[test]
    fn clamp_mult_behaviour() {
        assert_eq!(clamp_mult(100, 16, 16, 64), 64);
        assert_eq!(clamp_mult(7, 16, 16, 64), 16);
        assert_eq!(clamp_mult(33, 16, 16, 64), 32);
    }

    #[test]
    fn tiny_cache_still_valid() {
        let tiny = CacheInfo {
            l1d: 4 * 1024,
            l2: 16 * 1024,
            l3: 64 * 1024,
            line: 64,
        };
        let p = BlockingParams::derive::<f64>(&tiny, 8, 4);
        p.validate().unwrap();
    }
}
