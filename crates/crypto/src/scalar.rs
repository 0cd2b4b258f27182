//! Arithmetic modulo the Ed25519 group order
//! ℓ = 2^252 + 27742317777372353535851937790883648493.
//!
//! Implemented with 4×u64 limbs and Montgomery multiplication (CIOS). The
//! Montgomery constants `R2` and `L_INV_NEG` are derived from ℓ itself
//! at compile time, so there are no transcribed magic values to get wrong.

/// The group order ℓ as four little-endian u64 limbs.
pub const L: [u64; 4] =
    [0x5812631a5cf5d3ed, 0x14def9dea2f79cd6, 0x0000000000000000, 0x1000000000000000];

/// A scalar modulo ℓ, in normal (non-Montgomery) form, 4 little-endian
/// u64 limbs, always fully reduced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scalar(pub(crate) [u64; 4]);

#[inline]
const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = (a as u128) + (b as u128) + (carry as u128);
    (t as u64, (t >> 64) as u64)
}

#[inline]
const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128).wrapping_sub(borrow as u128);
    (t as u64, ((t >> 64) as u64) & 1)
}

/// a + b with carry out (4 limbs).
const fn add4(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let mut out = [0u64; 4];
    let mut c = 0u64;
    let mut i = 0;
    while i < 4 {
        let (v, nc) = adc(a[i], b[i], c);
        out[i] = v;
        c = nc;
        i += 1;
    }
    (out, c)
}

/// a - b with borrow out (4 limbs).
const fn sub4(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let mut out = [0u64; 4];
    let mut brw = 0u64;
    let mut i = 0;
    while i < 4 {
        let (v, nb) = sbb(a[i], b[i], brw);
        out[i] = v;
        brw = nb;
        i += 1;
    }
    (out, brw)
}

/// Reduces a value < 2ℓ (given with a possible carry bit) to < ℓ.
const fn cond_sub_l(v: [u64; 4], carry: u64) -> [u64; 4] {
    let (sub, borrow) = sub4(&v, &L);
    // Subtract if v >= L, i.e. carry out from the high part or no borrow.
    if carry == 1 || borrow == 0 {
        sub
    } else {
        v
    }
}

/// -ℓ^{-1} mod 2^64, computed by Newton iteration on the odd limb ℓ[0].
const fn l_inv_neg() -> u64 {
    // x_{k+1} = x_k (2 - ℓ0 x_k) doubles correct bits each step.
    let l0 = L[0];
    let mut x: u64 = 1;
    let mut k = 0;
    while k < 6 {
        x = x.wrapping_mul(2u64.wrapping_sub(l0.wrapping_mul(x)));
        k += 1;
    }
    x.wrapping_neg()
}

/// `v` doubled `n` times modulo ℓ (`v` < ℓ).
const fn double_mod_l(mut v: [u64; 4], n: u32) -> [u64; 4] {
    let mut k = 0;
    while k < n {
        let (dbl, carry) = add4(&v, &v);
        v = cond_sub_l(dbl, carry);
        k += 1;
    }
    v
}

/// R mod ℓ where R = 2^256: computed by doubling 1 two hundred fifty six
/// times modulo ℓ.
const fn r_mod_l() -> [u64; 4] {
    double_mod_l([1, 0, 0, 0], 256)
}

/// R^2 mod ℓ: doubling R another 256 times.
const fn r2_mod_l() -> [u64; 4] {
    double_mod_l(r_mod_l(), 256)
}

/// R² mod ℓ, folding a value into Montgomery form (evaluated at compile
/// time).
const R2: [u64; 4] = r2_mod_l();

/// −ℓ⁻¹ mod 2^64, the CIOS reduction factor (evaluated at compile time).
const L_INV_NEG: u64 = l_inv_neg();

/// Montgomery multiplication: returns a·b·R^{-1} mod ℓ (CIOS).
fn mont_mul(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let ninv = L_INV_NEG;
    let mut t = [0u64; 6]; // 4 limbs + 2 carry slots
    for i in 0..4 {
        // t += a[i] * b
        let mut carry = 0u64;
        for j in 0..4 {
            let prod = (a[i] as u128) * (b[j] as u128) + (t[j] as u128) + (carry as u128);
            t[j] = prod as u64;
            carry = (prod >> 64) as u64;
        }
        let (v, c) = adc(t[4], carry, 0);
        t[4] = v;
        t[5] = c;

        // m = t[0] * ninv mod 2^64; t += m * ℓ; t >>= 64
        let m = t[0].wrapping_mul(ninv);
        let mut carry = 0u64;
        for j in 0..4 {
            let prod = (m as u128) * (L[j] as u128) + (t[j] as u128) + (carry as u128);
            t[j] = prod as u64;
            carry = (prod >> 64) as u64;
        }
        let (v, c) = adc(t[4], carry, 0);
        t[4] = v;
        t[5] += c;
        // shift right one limb
        t[0] = t[1];
        t[1] = t[2];
        t[2] = t[3];
        t[3] = t[4];
        t[4] = t[5];
        t[5] = 0;
    }
    cond_sub_l([t[0], t[1], t[2], t[3]], t[4])
}

#[allow(clippy::should_implement_trait)] // add/sub/mul mirror the math names
impl Scalar {
    /// Zero.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// One.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Parses 32 little-endian bytes; returns `None` if the value is not
    /// canonical (≥ ℓ). Use for validating the `s` part of signatures
    /// (malleability check, RFC 8032 §5.1.7).
    pub fn from_canonical_bytes(b: &[u8; 32]) -> Option<Scalar> {
        let v = limbs_from_le(b);
        let (_, borrow) = sub4(&v, &L);
        if borrow == 1 {
            Some(Scalar(v))
        } else {
            None
        }
    }

    /// Reduces 32 little-endian bytes modulo ℓ.
    pub fn from_bytes_mod_order(b: &[u8; 32]) -> Scalar {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(b);
        Scalar::from_bytes_mod_order_wide(&wide)
    }

    /// Reduces 64 little-endian bytes modulo ℓ (for hash outputs).
    pub fn from_bytes_mod_order_wide(b: &[u8; 64]) -> Scalar {
        let lo = limbs_from_le(b[..32].try_into().unwrap());
        let hi = limbs_from_le(b[32..].try_into().unwrap());
        // value = hi·2^256 + lo = hi·R + lo (mod ℓ)
        // mont_mul(hi, R²) = hi·R²·R^{-1} = hi·R (mod ℓ)
        let hi_part = mont_mul(&hi, &R2);
        // Reduce lo (< 2^256 < 16ℓ) by repeated conditional subtraction.
        let mut lo_red = lo;
        for _ in 0..17 {
            lo_red = cond_sub_l(lo_red, 0);
        }
        let (sum, carry) = add4(&hi_part, &lo_red);
        Scalar(cond_sub_l(sum, carry))
    }

    /// Builds from a small integer.
    pub fn from_u64(v: u64) -> Scalar {
        Scalar([v, 0, 0, 0])
    }

    /// Encodes as 32 little-endian bytes.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..i * 8 + 8].copy_from_slice(&self.0[i].to_le_bytes());
        }
        out
    }

    /// Addition mod ℓ.
    pub fn add(self, rhs: Scalar) -> Scalar {
        let (sum, carry) = add4(&self.0, &rhs.0);
        Scalar(cond_sub_l(sum, carry))
    }

    /// Subtraction mod ℓ.
    pub fn sub(self, rhs: Scalar) -> Scalar {
        let (diff, borrow) = sub4(&self.0, &rhs.0);
        if borrow == 1 {
            let (fixed, _) = add4(&diff, &L);
            Scalar(fixed)
        } else {
            Scalar(diff)
        }
    }

    /// Multiplication mod ℓ.
    pub fn mul(self, rhs: Scalar) -> Scalar {
        // (a·R)·(b)·R^{-1} = a·b — fold one to Montgomery form then multiply.
        let a_mont = mont_mul(&self.0, &R2);
        Scalar(mont_mul(&a_mont, &rhs.0))
    }

    /// Iterates the 252-bit scalar's bits from least significant upward.
    pub fn bits_le(&self) -> impl Iterator<Item = u8> + '_ {
        (0..256).map(move |i| ((self.0[i / 64] >> (i % 64)) & 1) as u8)
    }

    /// True if the scalar is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }
}

fn limbs_from_le(b: &[u8; 32]) -> [u64; 4] {
    let mut out = [0u64; 4];
    for i in 0..4 {
        out[i] = u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l_encodes_to_zero() {
        let mut l_bytes = [0u8; 32];
        for i in 0..4 {
            l_bytes[i * 8..i * 8 + 8].copy_from_slice(&L[i].to_le_bytes());
        }
        assert!(Scalar::from_canonical_bytes(&l_bytes).is_none());
        assert_eq!(Scalar::from_bytes_mod_order(&l_bytes), Scalar::ZERO);
    }

    #[test]
    fn l_minus_one_is_canonical() {
        let lm1 = Scalar::ZERO.sub(Scalar::ONE);
        assert!(Scalar::from_canonical_bytes(&lm1.to_bytes()).is_some());
        assert_eq!(lm1.add(Scalar::ONE), Scalar::ZERO);
    }

    #[test]
    fn small_arithmetic() {
        let a = Scalar::from_u64(1_000_000_007);
        let b = Scalar::from_u64(998_244_353);
        assert_eq!(a.add(b).sub(b), a);
        assert_eq!(a.mul(b), Scalar::from_u64(1_000_000_007).mul(Scalar::from_u64(998_244_353)));
        // 2 * 3 = 6
        assert_eq!(Scalar::from_u64(2).mul(Scalar::from_u64(3)), Scalar::from_u64(6));
    }

    #[test]
    fn mul_distributes() {
        let a = Scalar::from_u64(0xdeadbeef);
        let b = Scalar::from_u64(0xcafebabe);
        let c = Scalar::from_u64(0x12345678);
        assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
    }

    #[test]
    fn wide_reduction_matches_narrow_for_small_values() {
        let mut narrow = [0u8; 32];
        narrow[0] = 0x42;
        narrow[17] = 0x99;
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&narrow);
        assert_eq!(Scalar::from_bytes_mod_order(&narrow), Scalar::from_bytes_mod_order_wide(&wide));
    }

    #[test]
    fn wide_reduction_of_2_256_is_r_mod_l() {
        // 2^256 mod ℓ via the wide path: bytes with only byte 32 set to 1.
        let mut wide = [0u8; 64];
        wide[32] = 1;
        let got = Scalar::from_bytes_mod_order_wide(&wide);
        assert_eq!(got.0, r_mod_l());
        // Cross-check: 2^256 mod ℓ == (2^128 mod ℓ)² mod ℓ.
        let mut b128 = [0u8; 32];
        b128[16] = 1;
        let p128 = Scalar::from_bytes_mod_order(&b128);
        assert_eq!(p128.mul(p128), got);
    }

    #[test]
    fn mont_inverse_constant() {
        let ninv = l_inv_neg();
        assert_eq!(L[0].wrapping_mul(ninv), 1u64.wrapping_neg());
    }

    /// The compile-time constants equal the same derivations run now
    /// (`mont_inverse_constant` checks what −ℓ⁻¹ means), and R²·1·R⁻¹ ≡ R
    /// (mod ℓ).
    #[test]
    fn montgomery_constants_recompute_at_runtime() {
        use std::hint::black_box;
        assert_eq!(R2, double_mod_l(black_box([1, 0, 0, 0]), black_box(512)));
        assert_eq!(R2, r2_mod_l());
        assert_eq!(L_INV_NEG, l_inv_neg());
        assert_eq!(mont_mul(&R2, &[1, 0, 0, 0]), r_mod_l());
    }

    #[test]
    fn mul_by_one_and_zero() {
        let a = Scalar::from_bytes_mod_order(&[0xabu8; 32]);
        assert_eq!(a.mul(Scalar::ONE), a);
        assert_eq!(a.mul(Scalar::ZERO), Scalar::ZERO);
    }
}
