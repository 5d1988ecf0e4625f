//! The [`Scalar`] abstraction: the two IEEE-754 element types GEMM supports.
//!
//! The paper evaluates DGEMM (`f64`); we additionally support SGEMM (`f32`)
//! since every algorithmic component is type-generic. The trait carries just
//! enough surface for the GEMM drivers, the checksum algebra, and the fault
//! injector (bit-level access for bit-flip errors).

use std::fmt::{Debug, Display};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Element type for all GEMM and checksum computations.
///
/// Implemented for `f32` and `f64` only. The `'static` bound enables
/// `TypeId`-based selection of type-specialized SIMD micro-kernels.
pub trait Scalar:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon (`f32::EPSILON` / `f64::EPSILON`).
    const EPSILON: Self;
    /// Smallest positive normal value.
    const MIN_POSITIVE: Self;
    /// Short type tag for reporting ("f32"/"f64").
    const NAME: &'static str;

    /// Lossy conversion from `f64` (used for test tolerances and constants).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Conversion from an index (exact for the sizes GEMM handles).
    fn from_usize(v: usize) -> Self;

    /// Absolute value.
    fn abs(self) -> Self;
    /// IEEE maximum (NaN-propagating is fine for our uses).
    fn max(self, other: Self) -> Self;
    /// IEEE minimum.
    fn min(self, other: Self) -> Self;
    /// Multiply-add `self * a + b`.
    ///
    /// Deliberately **not** `f64::mul_add`: without FMA in the compile-time
    /// target features that intrinsic lowers to a libm call (a disaster in
    /// hot loops), whereas a plain `a * b + c` auto-vectorizes and is fused
    /// to FMA by LLVM whenever the target allows. The SIMD micro-kernels
    /// issue real FMA intrinsics behind runtime feature detection.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// True if the value is finite (not NaN/inf).
    fn is_finite(self) -> bool;

    /// Raw bit pattern widened to `u64` (f32 occupies the low 32 bits).
    fn to_bits_u64(self) -> u64;
    /// Inverse of [`Scalar::to_bits_u64`].
    fn from_bits_u64(bits: u64) -> Self;
    /// Number of bits in the representation (32 or 64).
    const BITS: u32;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f64::EPSILON;
    const MIN_POSITIVE: Self = f64::MIN_POSITIVE;
    const NAME: &'static str = "f64";

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn from_usize(v: usize) -> Self {
        v as f64
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self * a + b
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline(always)]
    fn to_bits_u64(self) -> u64 {
        self.to_bits()
    }
    #[inline(always)]
    fn from_bits_u64(bits: u64) -> Self {
        f64::from_bits(bits)
    }
    const BITS: u32 = 64;
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f32::EPSILON;
    const MIN_POSITIVE: Self = f32::MIN_POSITIVE;
    const NAME: &'static str = "f32";

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn from_usize(v: usize) -> Self {
        v as f32
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self * a + b
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline(always)]
    fn to_bits_u64(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline(always)]
    fn from_bits_u64(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
    const BITS: u32 = 32;
}

/// The bytes of `data` as they lie in memory, without a copy: on a
/// little-endian target, each value's `to_le_bytes` back to back. A writer
/// of little-endian `f64`s (the wire format) takes them in one copy, or
/// none, instead of a conversion pass.
pub fn f64_bytes(data: &[f64]) -> &[u8] {
    // SAFETY: an `f64` is 8 initialized bytes without padding, `u8` needs no
    // alignment, and the view is exactly `data`'s bytes, shared and for
    // `data`'s lifetime, so nothing writes them while it lives.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_bytes_are_the_values_in_memory_order() {
        let data = [
            1.5,
            -0.0,
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::MIN_POSITIVE,
        ];
        let want: Vec<u8> = data.iter().flat_map(|v| v.to_ne_bytes()).collect();
        assert_eq!(f64_bytes(&data), want.as_slice());
        assert!(f64_bytes(&[]).is_empty());
    }

    fn exercise<T: Scalar>() {
        assert_eq!(T::ZERO + T::ONE, T::ONE);
        assert_eq!(T::from_usize(7).to_f64(), 7.0);
        assert_eq!(T::from_f64(-2.0).abs(), T::from_f64(2.0));
        assert_eq!(T::from_f64(2.0).max(T::from_f64(3.0)), T::from_f64(3.0));
        assert_eq!(T::from_f64(2.0).min(T::from_f64(3.0)), T::from_f64(2.0));
        let fma = T::from_f64(2.0).mul_add(T::from_f64(3.0), T::from_f64(1.0));
        assert_eq!(fma, T::from_f64(7.0));
        assert!(T::ONE.is_finite());
        assert!(!(T::ONE / T::ZERO).is_finite());
    }

    #[test]
    fn f64_ops() {
        exercise::<f64>();
        assert_eq!(f64::NAME, "f64");
        assert_eq!(<f64 as Scalar>::BITS, 64);
    }

    #[test]
    fn f32_ops() {
        exercise::<f32>();
        assert_eq!(f32::NAME, "f32");
        assert_eq!(<f32 as Scalar>::BITS, 32);
    }

    #[test]
    fn bit_round_trip_f64() {
        for v in [
            0.0f64,
            -1.5,
            std::f64::consts::PI,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(f64::from_bits_u64(v.to_bits_u64()), v);
        }
    }

    #[test]
    fn bit_round_trip_f32() {
        for v in [
            0.0f32,
            -1.5,
            std::f32::consts::E,
            f32::MAX,
            f32::MIN_POSITIVE,
        ] {
            assert_eq!(f32::from_bits_u64(v.to_bits_u64()), v);
        }
        // High bits must be ignored for f32.
        assert_eq!(
            f32::from_bits_u64(0xFFFF_FFFF_0000_0000 | 1.0f32.to_bits() as u64),
            1.0
        );
    }

    #[test]
    fn bitflip_changes_value() {
        let v = 1.0f64;
        let flipped = f64::from_bits_u64(v.to_bits_u64() ^ (1 << 52));
        assert_ne!(v, flipped);
    }
}
