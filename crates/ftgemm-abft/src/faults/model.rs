//! Error models (how a value is corrupted) and rates (when errors fire).

use rand::Rng;

/// How an injected soft error transforms a floating-point value.
///
/// These model the paper's fail-continue computing errors ("1+1=3"): the
/// corrupted value is finite but wrong, and execution continues.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorModel {
    /// Flip one bit of the IEEE-754 representation.
    ///
    /// `bit: None` picks a random bit in the high-mantissa/low-exponent
    /// range: visible to any sane verification tolerance (low-mantissa
    /// flips fall below it and are harmless by construction — the same
    /// blind spot real ABFT has), yet bounded to a few binades so that
    /// checksum-based correction, which repairs an error of magnitude `d`
    /// up to `O(eps * d)` roundoff, restores full precision. Flips of high
    /// exponent bits (choose them via `Some(bit)`) are still detected and
    /// corrected, but leave that `O(eps * d)` residual — an inherent
    /// property of ABFT, not of this injector.
    BitFlip {
        /// Fixed bit index (0 = LSB), or `None` for a random significant bit.
        bit: Option<u32>,
    },
    /// Add an offset to the value. The applied offset is
    /// `magnitude * u` with `u` drawn per event from `[0.5, 1.5)` and a
    /// random sign — distinct events carry distinct deltas, like real
    /// bit-level corruptions do (and unlike a constant offset, which would
    /// make simultaneous errors algebraically indistinguishable to any
    /// row+column checksum scheme).
    Additive {
        /// The base offset magnitude.
        magnitude: f64,
    },
    /// Multiply the value by a constant factor (models dropped/duplicated
    /// partial products).
    ///
    /// On an exactly-zero value this is a **no-op** by construction
    /// (`0 * factor == 0`): a dropped partial product of zero changes
    /// nothing, so a `Scale` event landing on a zero element injects no
    /// error. Campaigns over sparse/zero-heavy data that must guarantee
    /// every event perturbs its victim should use [`ErrorModel::BitFlip`]
    /// or [`ErrorModel::Additive`] (pinned by `scale_is_noop_on_zero`).
    Scale {
        /// Multiplicative factor.
        factor: f64,
    },
}

impl ErrorModel {
    /// Default model used in the figure-2(c)/(d) reproductions: a large
    /// additive error that any reasonable tolerance flags.
    pub fn default_for_benchmarks() -> Self {
        ErrorModel::Additive { magnitude: 1.0e6 }
    }
}

/// When errors fire, expressed over a stream of injection sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rate {
    /// Exactly `count` errors per [`SiteStream`](super::SiteStream),
    /// uniformly spread over the expected number of sites. This is the
    /// paper's "20 injected errors" per run mode.
    Count(usize),
    /// Independent probability per site.
    PerSite(f64),
    /// Wall-clock rate (errors per second); the "hundreds of errors per
    /// minute" campaign mode.
    PerSecond(f64),
}

/// One concrete injection event produced by a [`SiteStream`](super::SiteStream).
#[derive(Debug, Clone, Copy)]
pub struct ErrorEvent {
    /// Uniform random draw used to select the victim element within the
    /// site's tile (the driver maps it onto its local geometry).
    pub lane: u64,
    model: ErrorModel,
    /// Random payload fixed at event creation so application is pure.
    payload: u64,
}

impl ErrorEvent {
    pub(crate) fn new<R: Rng>(model: ErrorModel, rng: &mut R) -> Self {
        ErrorEvent {
            lane: rng.gen(),
            model,
            payload: rng.gen(),
        }
    }

    /// Applies the error to an `f64` value, returning the corrupted value.
    ///
    /// Deterministic: the same event applied to the same value yields the
    /// same corruption.
    pub fn apply_f64(&self, v: f64) -> f64 {
        match self.model {
            ErrorModel::BitFlip { bit } => {
                // Random bits restricted to [44, 53]: high mantissa and the
                // lowest exponent bit — corruption between 2^-8x and 4x of
                // the value, always detectable and exactly correctable.
                let b = bit.unwrap_or(44 + (self.payload % 10) as u32);
                let flipped = f64::from_bits(v.to_bits() ^ (1u64 << (b % 64)));
                if flipped.is_finite() {
                    flipped
                } else {
                    // Exponent flips can overflow to inf; fall back to a
                    // corruption *relative* to the value (halving = an
                    // exponent-decrement flip) so the fail-continue model
                    // holds at any magnitude. An absolute addend would be
                    // absorbed by rounding for |v| beyond its precision
                    // (e.g. `v + 1e12` is a no-op at 1e300) and the
                    // "injected" error would silently change nothing.
                    v * 0.5
                }
            }
            ErrorModel::Additive { magnitude } => {
                let sign = if self.payload & 1 == 0 { 1.0 } else { -1.0 };
                let u = 0.5 + ((self.payload >> 16) & 0xFFFF) as f64 / 65536.0;
                v + sign * magnitude * u
            }
            ErrorModel::Scale { factor } => v * factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn event(model: ErrorModel, seed: u64) -> ErrorEvent {
        let mut rng = StdRng::seed_from_u64(seed);
        ErrorEvent::new(model, &mut rng)
    }

    #[test]
    fn bitflip_changes_value_and_stays_finite() {
        for seed in 0..50 {
            let e = event(ErrorModel::BitFlip { bit: None }, seed);
            let v = 1.234_f64;
            let c = e.apply_f64(v);
            assert_ne!(c, v, "seed {seed}");
            assert!(c.is_finite(), "seed {seed}");
        }
    }

    #[test]
    fn fixed_bit_flip_is_exact() {
        let e = event(ErrorModel::BitFlip { bit: Some(52) }, 1);
        let v = 1.0_f64; // exponent 0x3FF -> 0x3FE, i.e. 1.0 becomes 0.5
        assert_eq!(e.apply_f64(v), 0.5);
    }

    #[test]
    fn additive_is_signed_offset_in_range() {
        let e = event(ErrorModel::Additive { magnitude: 5.0 }, 3);
        let c = e.apply_f64(10.0);
        let d = (c - 10.0).abs();
        assert!((2.5..7.5).contains(&d), "delta {d}");
    }

    #[test]
    fn additive_deltas_are_distinct_across_events() {
        let deltas: Vec<f64> = (0..32)
            .map(|seed| event(ErrorModel::Additive { magnitude: 1e6 }, seed).apply_f64(0.0))
            .collect();
        for i in 0..deltas.len() {
            for j in i + 1..deltas.len() {
                assert_ne!(deltas[i], deltas[j], "collision at {i},{j}");
            }
        }
    }

    #[test]
    fn scale_multiplies() {
        let e = event(ErrorModel::Scale { factor: 3.0 }, 4);
        assert_eq!(e.apply_f64(2.0), 6.0);
    }

    #[test]
    fn apply_is_deterministic() {
        let e = event(ErrorModel::BitFlip { bit: None }, 9);
        assert_eq!(e.apply_f64(3.5), e.apply_f64(3.5));
    }

    #[test]
    fn infinity_fallback() {
        // Exponent flips on large values must stay finite (fail-continue)
        // AND still corrupt the value — the old absolute fallback
        // (`v + 1e12`) was absorbed by rounding at 1e300 and "injected"
        // nothing. Bit 62 at 1e300 clears the already-set exponent MSB
        // (finite but corrupted); bit 52 at 1e308 sets the exponent to
        // 2047 (inf) and exercises the fallback itself.
        for (bit, v) in [(62u32, 1.0e300_f64), (52, 1.0e308)] {
            let e = event(ErrorModel::BitFlip { bit: Some(bit) }, 5);
            let c = e.apply_f64(v);
            assert!(c.is_finite(), "bit {bit} at {v}");
            assert_ne!(c, v, "bit {bit} at {v}: corruption was absorbed");
        }
        // The 1e308 case really does overflow before the fallback.
        assert!(!f64::from_bits(1.0e308_f64.to_bits() ^ (1 << 52)).is_finite());
    }

    #[test]
    fn scale_is_noop_on_zero() {
        // Documented blind spot: a Scale event on an exactly-zero value
        // changes nothing (0 * factor == 0). See the ErrorModel docs.
        let e = event(ErrorModel::Scale { factor: 100.0 }, 6);
        assert_eq!(e.apply_f64(0.0), 0.0);
    }
}
