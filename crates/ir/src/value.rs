//! Scalar values with SIMD-lane (wrapping, width-masked) semantics.

use crate::types::ScalarType;
use std::fmt;

/// A scalar value as it lives in one SIMD lane: a bit pattern of the
/// element width, interpreted as signed or unsigned by its [`ScalarType`].
///
/// All arithmetic wraps, mirroring packed integer hardware. The raw bits
/// are kept zero-extended in a `u64`.
///
/// # Example
///
/// ```
/// use simdize_ir::{ScalarType, Value};
/// let a = Value::new(ScalarType::U8, 250);
/// let b = Value::new(ScalarType::U8, 10);
/// assert_eq!(a.wrapping_add(b).bits(), 4); // 260 mod 256
/// let neg = Value::new(ScalarType::I16, -5i64 as u64);
/// assert_eq!(neg.as_i64(), -5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Value {
    ty: ScalarType,
    bits: u64,
}

impl Value {
    /// Creates a value of type `ty` from raw `bits` (masked to the
    /// element width).
    pub fn new(ty: ScalarType, bits: u64) -> Value {
        Value {
            ty,
            bits: bits & ty_mask(ty),
        }
    }

    /// Creates a value of type `ty` from a signed integer, wrapping to the
    /// element width.
    pub fn from_i64(ty: ScalarType, v: i64) -> Value {
        Value::new(ty, v as u64)
    }

    /// The value's element type.
    pub fn ty(self) -> ScalarType {
        self.ty
    }

    /// Raw bits, zero-extended to 64 bits.
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// The value interpreted per its type's signedness, widened to `i64`.
    pub fn as_i64(self) -> i64 {
        if self.ty.is_signed() {
            sign_extend(self.bits, self.ty.bits())
        } else {
            self.bits as i64
        }
    }

    /// Writes the value's `ty.size()` little-endian bytes to the front
    /// of `dst` (the inverse of [`Value::from_le_bytes`]).
    ///
    /// # Panics
    ///
    /// Panics if `dst` is shorter than `ty.size()`.
    pub fn write_le_bytes(self, dst: &mut [u8]) {
        let d = self.ty.size();
        dst[..d].copy_from_slice(&self.bits.to_le_bytes()[..d]);
    }

    /// Reads a value of type `ty` from the first `ty.size()` bytes of a
    /// little-endian byte slice.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than `ty.size()`.
    pub fn from_le_bytes(ty: ScalarType, bytes: &[u8]) -> Value {
        let mut buf = [0u8; 8];
        buf[..ty.size()].copy_from_slice(&bytes[..ty.size()]);
        Value::new(ty, u64::from_le_bytes(buf))
    }

    /// Wrapping lane addition.
    pub fn wrapping_add(self, rhs: Value) -> Value {
        self.binary(rhs, |a, b| a.wrapping_add(b))
    }

    /// Wrapping lane subtraction.
    pub fn wrapping_sub(self, rhs: Value) -> Value {
        self.binary(rhs, |a, b| a.wrapping_sub(b))
    }

    /// Wrapping lane multiplication.
    pub fn wrapping_mul(self, rhs: Value) -> Value {
        self.binary(rhs, |a, b| a.wrapping_mul(b))
    }

    /// Lane minimum, respecting signedness.
    pub fn min_lane(self, rhs: Value) -> Value {
        self.ordered(rhs, true)
    }

    /// Lane maximum, respecting signedness.
    pub fn max_lane(self, rhs: Value) -> Value {
        self.ordered(rhs, false)
    }

    /// Bitwise AND.
    pub fn and(self, rhs: Value) -> Value {
        self.binary(rhs, |a, b| a & b)
    }

    /// Bitwise OR.
    pub fn or(self, rhs: Value) -> Value {
        self.binary(rhs, |a, b| a | b)
    }

    /// Bitwise XOR.
    pub fn xor(self, rhs: Value) -> Value {
        self.binary(rhs, |a, b| a ^ b)
    }

    /// Wrapping lane negation.
    pub fn wrapping_neg(self) -> Value {
        Value::new(self.ty, (self.bits as i64).wrapping_neg() as u64)
    }

    /// Bitwise NOT.
    #[allow(clippy::should_implement_trait)] // lane semantics, not operator sugar
    pub fn not(self) -> Value {
        Value::new(self.ty, !self.bits)
    }

    /// Wrapping absolute value (`abs(i::MIN) == i::MIN`, as on hardware).
    pub fn wrapping_abs(self) -> Value {
        if self.ty.is_signed() && self.as_i64() < 0 {
            self.wrapping_neg()
        } else {
            self
        }
    }

    fn binary(self, rhs: Value, f: impl FnOnce(u64, u64) -> u64) -> Value {
        debug_assert_eq!(self.ty, rhs.ty, "mixed-type lane operation");
        Value::new(self.ty, f(self.bits, rhs.bits))
    }

    fn ordered(self, rhs: Value, take_min: bool) -> Value {
        debug_assert_eq!(self.ty, rhs.ty, "mixed-type lane operation");
        let less = if self.ty.is_signed() {
            self.as_i64() < rhs.as_i64()
        } else {
            self.bits < rhs.bits
        };
        if less == take_min {
            self
        } else {
            rhs
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.as_i64(), self.ty)
    }
}

fn ty_mask(ty: ScalarType) -> u64 {
    match ty.bits() {
        64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

fn sign_extend(bits: u64, width: u32) -> i64 {
    let shift = 64 - width;
    ((bits << shift) as i64) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapping_add_wraps_at_width() {
        let a = Value::new(ScalarType::I8, 0x7F);
        let one = Value::new(ScalarType::I8, 1);
        assert_eq!(a.wrapping_add(one).as_i64(), -128);
        let b = Value::new(ScalarType::U16, 0xFFFF);
        assert_eq!(b.wrapping_add(Value::new(ScalarType::U16, 2)).bits(), 1);
    }

    #[test]
    fn signed_vs_unsigned_min() {
        let big = Value::new(ScalarType::I8, 0xFF); // -1 signed, 255 unsigned
        let one = Value::new(ScalarType::I8, 1);
        assert_eq!(big.min_lane(one).as_i64(), -1);
        let ubig = Value::new(ScalarType::U8, 0xFF);
        let uone = Value::new(ScalarType::U8, 1);
        assert_eq!(ubig.min_lane(uone).bits(), 1);
    }

    #[test]
    fn byte_roundtrip_all_types() {
        for ty in ScalarType::ALL {
            let v = Value::from_i64(ty, -123456789);
            // Bytes past `ty.size()` are left alone.
            let mut bytes = [0xAAu8; 9];
            v.write_le_bytes(&mut bytes);
            assert!(bytes[ty.size()..].iter().all(|&b| b == 0xAA), "{ty}");
            assert_eq!(Value::from_le_bytes(ty, &bytes), v, "{ty}");
        }
    }

    #[test]
    fn neg_abs_not() {
        let v = Value::from_i64(ScalarType::I16, -7);
        assert_eq!(v.wrapping_neg().as_i64(), 7);
        assert_eq!(v.wrapping_abs().as_i64(), 7);
        assert_eq!(v.not().as_i64(), 6);
        // abs(MIN) wraps to MIN like hardware packed-abs.
        let min = Value::from_i64(ScalarType::I8, -128);
        assert_eq!(min.wrapping_abs().as_i64(), -128);
    }

    #[test]
    fn mul_and_bitops() {
        let a = Value::from_i64(ScalarType::U8, 16);
        let b = Value::from_i64(ScalarType::U8, 17);
        assert_eq!(a.wrapping_mul(b).bits(), (16 * 17) % 256);
        assert_eq!(a.or(b).bits(), 16 | 17);
        assert_eq!(a.and(b).bits(), 16 & 17);
        assert_eq!(a.xor(b).bits(), 16 ^ 17);
    }

    #[test]
    fn display_shows_value_and_type() {
        assert_eq!(Value::from_i64(ScalarType::I32, -3).to_string(), "-3i32");
    }
}
