//! Arithmetic in GF(2^255 - 19), the base field of curve25519.
//!
//! Radix-2^51 representation: five u64 limbs, products accumulated in u128.
//! This underlies both X25519 (flow-key agreement) and Ed25519 (signatures).
//!
//! Every operation returns weakly reduced limbs (each below 2^52), and
//! [`Fe::mul`] and [`Fe::square`] take them as they come; a debug assertion
//! guards that bound. Inversion and the square-root power run fixed
//! addition chains, so their timing does not depend on the element.

use core::ops::{Add, Mul, Sub};

/// A field element in GF(2^255 - 19), five 51-bit limbs.
#[derive(Clone, Copy, Debug)]
pub struct Fe(pub(crate) [u64; 5]);

const MASK51: u64 = (1u64 << 51) - 1;

/// Exclusive bound on an input limb of `mul` and `square`: every producer
/// returns weakly reduced limbs, and with limbs below 2^52 no u128
/// accumulator of a product can overflow.
const LIMB_BOUND: u64 = 1u64 << 52;

fn weakly_reduced(a: &[u64; 5]) -> bool {
    a.iter().all(|&l| l < LIMB_BOUND)
}

impl Fe {
    /// Zero.
    pub const ZERO: Fe = Fe([0, 0, 0, 0, 0]);
    /// One.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);
    /// Two.
    pub(crate) const TWO: Fe = Fe([2, 0, 0, 0, 0]);

    /// Builds a field element from a small integer.
    pub fn from_u64(v: u64) -> Fe {
        let mut fe = Fe::ZERO;
        fe.0[0] = v & MASK51;
        fe.0[1] = v >> 51;
        fe
    }

    /// Decodes 32 little-endian bytes; the top bit (bit 255) is ignored,
    /// per RFC 7748 / RFC 8032 convention.
    pub fn from_bytes(b: &[u8; 32]) -> Fe {
        let load = |i: usize, n: usize| -> u64 {
            let mut v = 0u64;
            for k in 0..n {
                v |= (b[i + k] as u64) << (8 * k);
            }
            v
        };
        Fe([
            load(0, 7) & MASK51,
            (load(6, 8) >> 3) & MASK51,
            (load(12, 8) >> 6) & MASK51,
            (load(19, 7) >> 1) & MASK51,
            (load(24, 8) >> 12) & MASK51,
        ])
    }

    /// Encodes to 32 little-endian bytes with a canonical (fully reduced)
    /// representation.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut t = self.reduce_weak().reduce_weak().0;
        // Fully reduce: add 19, propagate, then discard the top and
        // subtract 19 back via masking trick (standard freeze).
        // First carry pass so limbs < 2^52.
        // compute t + 19, if that overflows 2^255 then t >= p.
        let mut q = (t[0] + 19) >> 51;
        q = (t[1] + q) >> 51;
        q = (t[2] + q) >> 51;
        q = (t[3] + q) >> 51;
        q = (t[4] + q) >> 51;
        // q is 1 iff t >= p; add 19*q then mask to 255 bits.
        t[0] += 19 * q;
        let mut carry = t[0] >> 51;
        t[0] &= MASK51;
        t[1] += carry;
        carry = t[1] >> 51;
        t[1] &= MASK51;
        t[2] += carry;
        carry = t[2] >> 51;
        t[2] &= MASK51;
        t[3] += carry;
        carry = t[3] >> 51;
        t[3] &= MASK51;
        t[4] += carry;
        t[4] &= MASK51;

        let mut out = [0u8; 32];
        let full0 = t[0] | (t[1] << 51);
        let full1 = (t[1] >> 13) | (t[2] << 38);
        let full2 = (t[2] >> 26) | (t[3] << 25);
        let full3 = (t[3] >> 39) | (t[4] << 12);
        out[0..8].copy_from_slice(&full0.to_le_bytes());
        out[8..16].copy_from_slice(&full1.to_le_bytes());
        out[16..24].copy_from_slice(&full2.to_le_bytes());
        out[24..32].copy_from_slice(&full3.to_le_bytes());
        out
    }

    /// Weak reduction: brings limbs below 2^52 while preserving the value
    /// mod p.
    fn reduce_weak(self) -> Fe {
        let mut t = self.0;
        let mut carry;
        carry = t[0] >> 51;
        t[0] &= MASK51;
        t[1] += carry;
        carry = t[1] >> 51;
        t[1] &= MASK51;
        t[2] += carry;
        carry = t[2] >> 51;
        t[2] &= MASK51;
        t[3] += carry;
        carry = t[3] >> 51;
        t[3] &= MASK51;
        t[4] += carry;
        carry = t[4] >> 51;
        t[4] &= MASK51;
        t[0] += carry * 19;
        carry = t[0] >> 51;
        t[0] &= MASK51;
        t[1] += carry;
        Fe(t)
    }

    /// Squares the element: 15 limb products where a multiply takes 25.
    pub fn square(self) -> Fe {
        let a = self.0;
        debug_assert!(weakly_reduced(&a), "square: limb out of bound: {a:?}");
        let m = |x: u64, y: u64| (x as u128) * (y as u128);
        let a0_2 = a[0] * 2;
        let a1_2 = a[1] * 2;
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;

        let c0 = m(a[0], a[0]) + m(a1_2, a4_19) + m(a[2] * 2, a3_19);
        let c1 = m(a0_2, a[1]) + m(a[2] * 2, a4_19) + m(a[3], a3_19);
        let c2 = m(a0_2, a[2]) + m(a[1], a[1]) + m(a[3] * 2, a4_19);
        let c3 = m(a0_2, a[3]) + m(a1_2, a[2]) + m(a[4], a4_19);
        let c4 = m(a0_2, a[4]) + m(a1_2, a[3]) + m(a[2], a[2]);
        carry_wide([c0, c1, c2, c3, c4])
    }

    /// Squares the element `k` times (`k` ≥ 1).
    fn pow2k(self, k: u32) -> Fe {
        let mut x = self.square();
        for _ in 1..k {
            x = x.square();
        }
        x
    }

    /// Returns (self^(2^250 - 1), self^11), the shared prefix of the
    /// inversion and square-root chains: 249 squarings and 10 multiplies.
    fn pow22501(self) -> (Fe, Fe) {
        let t0 = self.square(); // 2
        let t1 = t0.pow2k(2); // 8
        let t2 = self * t1; // 9
        let t3 = t0 * t2; // 11
        let t4 = t3.square(); // 22
        let t5 = t2 * t4; // 2^5 - 1
        let t7 = t5.pow2k(5) * t5; // 2^10 - 1
        let t9 = t7.pow2k(10) * t7; // 2^20 - 1
        let t11 = t9.pow2k(20) * t9; // 2^40 - 1
        let t13 = t11.pow2k(10) * t7; // 2^50 - 1
        let t15 = t13.pow2k(50) * t13; // 2^100 - 1
        let t17 = t15.pow2k(100) * t15; // 2^200 - 1
        let t19 = t17.pow2k(50) * t13; // 2^250 - 1
        (t19, t3)
    }

    /// Raises to a power given as 32 little-endian bytes (variable time in
    /// the exponent; exponents used here are public constants).
    pub fn pow_bytes_le(self, exp: &[u8; 32]) -> Fe {
        let mut result = Fe::ONE;
        // MSB-first square-and-multiply.
        for byte in exp.iter().rev() {
            for bit in (0..8).rev() {
                result = result.square();
                if (byte >> bit) & 1 == 1 {
                    result = result * self;
                }
            }
        }
        result
    }

    /// Multiplicative inverse via Fermat: self^(p-2). Zero maps to zero.
    pub fn invert(self) -> Fe {
        // p - 2 = 2^255 - 21 = (2^250 - 1)·2^5 + 11
        let (t19, t3) = self.pow22501();
        t19.pow2k(5) * t3
    }

    /// self^((p-5)/8), used in square-root extraction for point
    /// decompression (RFC 8032 §5.1.3).
    pub fn pow_p58(self) -> Fe {
        // (p - 5) / 8 = 2^252 - 3 = (2^250 - 1)·2^2 + 1
        let (t19, _) = self.pow22501();
        t19.pow2k(2) * self
    }

    /// sqrt(-1) mod p = 2^((p-1)/4).
    pub fn sqrt_m1() -> Fe {
        // (p-1)/4 = (2^255 - 20) / 4 = 2^253 - 5
        let mut exp = [0xffu8; 32];
        exp[0] = 0xfb;
        exp[31] = 0x1f;
        Fe::from_u64(2).pow_bytes_le(&exp)
    }

    /// True if the canonical encoding is zero.
    pub fn is_zero(self) -> bool {
        crate::ct::is_zero(&self.to_bytes())
    }

    /// Parity of the canonical integer representation (bit 0).
    pub fn is_negative(self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Fe {
        Fe::ZERO - self
    }

    /// Replaces `self` with `other` when `flag` is 1, without branching.
    pub(crate) fn assign_if(&mut self, other: &Fe, flag: u64) {
        for i in 0..5 {
            self.0[i] = crate::ct::select_u64(flag, self.0[i], other.0[i]);
        }
    }

    /// Constant-time conditional swap of two elements when `swap` is 1.
    pub fn cswap(swap: u64, a: &mut Fe, b: &mut Fe) {
        debug_assert!(swap == 0 || swap == 1);
        let mask = swap.wrapping_neg();
        for i in 0..5 {
            let t = mask & (a.0[i] ^ b.0[i]);
            a.0[i] ^= t;
            b.0[i] ^= t;
        }
    }
}

impl PartialEq for Fe {
    fn eq(&self, other: &Fe) -> bool {
        crate::ct::eq(&self.to_bytes(), &other.to_bytes())
    }
}
impl Eq for Fe {}

impl Add for Fe {
    type Output = Fe;
    fn add(self, rhs: Fe) -> Fe {
        let mut t = [0u64; 5];
        for i in 0..5 {
            t[i] = self.0[i] + rhs.0[i];
        }
        Fe(t).reduce_weak()
    }
}

impl Sub for Fe {
    type Output = Fe;
    fn sub(self, rhs: Fe) -> Fe {
        // Add 2p (in limb form, with limbs < 2^52-ish assumed on both sides)
        // before subtracting so limbs never underflow.
        const TWO_P: [u64; 5] = [
            0xfffffffffffda, // 2*(2^51 - 19)
            0xffffffffffffe,
            0xffffffffffffe,
            0xffffffffffffe,
            0xffffffffffffe,
        ];
        let mut t = [0u64; 5];
        for i in 0..5 {
            t[i] = self.0[i] + TWO_P[i] - rhs.0[i];
        }
        Fe(t).reduce_weak()
    }
}

impl Mul for Fe {
    type Output = Fe;
    fn mul(self, rhs: Fe) -> Fe {
        let a = self.0;
        let b = rhs.0;
        debug_assert!(weakly_reduced(&a) && weakly_reduced(&b), "mul: limb out of bound");
        let m = |x: u64, y: u64| (x as u128) * (y as u128);
        let b19 = [b[0], b[1] * 19, b[2] * 19, b[3] * 19, b[4] * 19];

        let c0 =
            m(a[0], b[0]) + m(a[1], b19[4]) + m(a[2], b19[3]) + m(a[3], b19[2]) + m(a[4], b19[1]);
        let c1 =
            m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b19[4]) + m(a[3], b19[3]) + m(a[4], b19[2]);
        let c2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b19[4]) + m(a[4], b19[3]);
        let c3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b19[4]);
        let c4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);
        carry_wide([c0, c1, c2, c3, c4])
    }
}

/// Carries five u128 limb accumulators down to weakly reduced limbs.
fn carry_wide(c: [u128; 5]) -> Fe {
    let mut t = [0u64; 5];
    let mut carry: u128 = 0;
    for i in 0..5 {
        let ci = c[i] + carry;
        carry = ci >> 51;
        t[i] = (ci as u64) & MASK51;
    }
    t[0] += (carry as u64) * 19;
    let carry2 = t[0] >> 51;
    t[0] &= MASK51;
    t[1] += carry2;
    Fe(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(n: u64) -> Fe {
        Fe::from_u64(n)
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = fe(123456789);
        let b = fe(987654321);
        assert_eq!((a + b) - b, a);
        assert_eq!(a - a, Fe::ZERO);
    }

    #[test]
    fn mul_small() {
        assert_eq!(fe(6) * fe(7), fe(42));
        assert_eq!(fe(0) * fe(7), Fe::ZERO);
        assert_eq!(fe(1) * fe(7), fe(7));
    }

    #[test]
    fn bytes_roundtrip() {
        let a = fe(0xdead_beef_cafe);
        assert_eq!(Fe::from_bytes(&a.to_bytes()), a);
        // A large pseudo-random pattern.
        let mut b = [0u8; 32];
        for (i, x) in b.iter_mut().enumerate() {
            *x = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        b[31] &= 0x7f;
        let f = Fe::from_bytes(&b);
        assert_eq!(f.to_bytes(), b);
    }

    #[test]
    fn p_encodes_as_zero() {
        // p = 2^255 - 19 must canonically encode to zero.
        let mut p = [0xffu8; 32];
        p[0] = 0xed;
        p[31] = 0x7f;
        let f = Fe::from_bytes(&p);
        assert!(f.is_zero());
        assert_eq!(f.to_bytes(), [0u8; 32]);
    }

    #[test]
    fn invert() {
        let a = fe(1234567);
        let inv = a.invert();
        assert_eq!(a * inv, Fe::ONE);
    }

    /// Seeded elements: SHA-512 of a counter, top bit cleared; the limb
    /// bound itself in every limb; zero.
    fn seeded_elements(n: u32) -> Vec<Fe> {
        let mut out = vec![Fe::ZERO, Fe([LIMB_BOUND - 1; 5])];
        for i in 0..n {
            let h = crate::sha2::sha512(&i.to_le_bytes());
            let mut b = [0u8; 32];
            b.copy_from_slice(&h[..32]);
            out.push(Fe::from_bytes(&b));
        }
        out
    }

    #[test]
    fn addition_chains_match_the_generic_power() {
        // p − 2 = 2^255 − 21 and (p − 5)/8 = 2^252 − 3, little-endian.
        let mut p_minus_2 = [0xffu8; 32];
        p_minus_2[0] = 0xeb;
        p_minus_2[31] = 0x7f;
        let mut p58 = [0xffu8; 32];
        p58[0] = 0xfd;
        p58[31] = 0x0f;
        for x in seeded_elements(200) {
            assert_eq!(x.invert(), x.pow_bytes_le(&p_minus_2), "{x:?}");
            assert_eq!(x.pow_p58(), x.pow_bytes_le(&p58), "{x:?}");
        }
    }

    #[test]
    fn square_is_mul_by_self_and_invert_is_an_inverse() {
        for x in seeded_elements(2000) {
            assert_eq!(x.square(), x * x, "{x:?}");
            if !x.is_zero() {
                assert_eq!(x * x.invert(), Fe::ONE, "{x:?}");
            }
        }
        assert!(Fe::ZERO.invert().is_zero());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "limb out of bound")]
    fn mul_refuses_a_limb_past_the_bound() {
        let _ = Fe([LIMB_BOUND, 0, 0, 0, 0]) * Fe::ONE;
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = Fe::sqrt_m1();
        assert_eq!(i * i, Fe::ZERO - Fe::ONE);
    }

    #[test]
    fn distributive() {
        let a = fe(111);
        let b = fe(222);
        let c = fe(333);
        assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn cswap_swaps() {
        let mut a = fe(1);
        let mut b = fe(2);
        Fe::cswap(0, &mut a, &mut b);
        assert_eq!(a, fe(1));
        Fe::cswap(1, &mut a, &mut b);
        assert_eq!(a, fe(2));
        assert_eq!(b, fe(1));
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = fe(5);
        let mut exp = [0u8; 32];
        exp[0] = 10; // a^10
        let mut want = Fe::ONE;
        for _ in 0..10 {
            want = want * a;
        }
        assert_eq!(a.pow_bytes_le(&exp), want);
    }

    #[test]
    fn negative_parity() {
        assert!(!fe(2).is_negative());
        assert!(fe(3).is_negative());
        // -2 mod p = p - 2 is odd (p is odd).
        assert!(fe(2).neg().is_negative());
    }
}
