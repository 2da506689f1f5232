//! Checked numeric conversions.
//!
//! Public by path: call sites name each conversion as `vp_net::conv::sat_u32` and the like.
//!
//! The workspace policy (clippy's cast lints, stated at each hot crate's
//! root) is that hot-path crates never narrow with a bare `as` cast: a
//! truncating cast silently changes a value, and a silently changed value
//! is exactly the kind of bug that breaks the bit-identical determinism
//! contract without failing a test. Every narrowing conversion instead goes
//! through one of the helpers below, each of which states its loss
//! behaviour in its name.
//!
//! * [`index`] — `u32` → `usize`, proven lossless at compile time. The `/24`
//!   universe and every per-round counter fit in `u32`, and all supported
//!   targets have at least 32-bit pointers.
//! * [`sat_u8`] / [`sat_u16`] / [`sat_u32`] / [`sat_usize`] — saturating
//!   unsigned narrowing. Callers use these where the value is known to be in
//!   range (a `% 254`, a masked low half, a collection length) and
//!   saturation is therefore the identity; if the invariant ever breaks the
//!   result clamps instead of wrapping, which keeps downstream indexing and
//!   accounting monotone.
//! * [`sat_f64_to_u32`] — float → integer. Rust's `as` already saturates
//!   for float-to-int since 1.45; the helper exists so the intent is named
//!   at the call site.

// Compile-time proof that `index` is lossless: no supported target has a
// pointer width below 32 bits.
const _: () = assert!(usize::BITS >= 32);

/// `u32` → `usize`, lossless on every supported target.
#[inline]
pub const fn index(x: u32) -> usize {
    x as usize
}

/// Saturating conversion to `u8` from any unsigned integer.
#[inline]
pub fn sat_u8<T: TryInto<u8>>(x: T) -> u8 {
    x.try_into().unwrap_or(u8::MAX)
}

/// Saturating conversion to `u16` from any unsigned integer.
#[inline]
pub fn sat_u16<T: TryInto<u16>>(x: T) -> u16 {
    x.try_into().unwrap_or(u16::MAX)
}

/// Saturating conversion to `u32` from any unsigned integer.
#[inline]
pub fn sat_u32<T: TryInto<u32>>(x: T) -> u32 {
    x.try_into().unwrap_or(u32::MAX)
}

/// Saturating conversion to `usize` from any unsigned integer.
#[inline]
pub fn sat_usize<T: TryInto<usize>>(x: T) -> usize {
    x.try_into().unwrap_or(usize::MAX)
}

/// `f64` → `u32` with Rust's saturating float-to-int semantics: NaN maps to
/// 0, negatives clamp to 0, overflow clamps to `u32::MAX`.
#[inline]
pub fn sat_f64_to_u32(x: f64) -> u32 {
    x as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrips() {
        assert_eq!(index(0), 0);
        assert_eq!(index(u32::MAX), u32::MAX as usize);
    }

    #[test]
    fn saturating_narrowing_clamps() {
        assert_eq!(sat_u8(253u64), 253);
        assert_eq!(sat_u8(300u64), u8::MAX);
        assert_eq!(sat_u16(0xffffu64), 0xffff);
        assert_eq!(sat_u16(0x1_0000u64), u16::MAX);
        assert_eq!(sat_u32(7usize), 7);
        assert_eq!(sat_u32(u64::MAX), u32::MAX);
        assert_eq!(sat_usize(9u64), 9);
    }

    #[test]
    fn float_saturates() {
        assert_eq!(sat_f64_to_u32(3.9), 3);
        assert_eq!(sat_f64_to_u32(-1.0), 0);
        assert_eq!(sat_f64_to_u32(f64::NAN), 0);
        assert_eq!(sat_f64_to_u32(1e12), u32::MAX);
    }
}
