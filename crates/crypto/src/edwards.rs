//! Twisted Edwards curve group for Ed25519:
//! -x² + y² = 1 + d·x²·y² over GF(2^255 - 19).
//!
//! Points use extended homogeneous coordinates (X : Y : Z : T) with
//! x = X/Z, y = Y/Z, x·y = T/Z. Addition uses the strongly unified
//! `add-2008-hwcd-3` formulas with the addend in cached form
//! (Y+X, Y−X, 2Z, 2d·T); doubling uses `dbl-2008-hwcd` (4M + 4S).
//! Curve constants (d, sqrt(-1), the base point) are derived numerically at
//! first use rather than transcribed, and are cached, as are two tables of
//! multiples of the base point B (~50 KB together):
//!
//! * 32 rows of k·16^(2j)·B for k = 1..=8, which [`Point::mul_base`] walks
//!   with 64 signed radix-16 digits of a secret scalar. Every lookup reads
//!   all eight entries of its row and keeps one by mask, so the scalar
//!   chooses no branch and no memory address.
//! * the odd multiples B, 3B, …, 127B, which verification walks with a
//!   width-8 non-adjacent form of its public scalar.

use crate::field::Fe;
use crate::scalar::Scalar;
use std::sync::OnceLock;

/// A point on the Ed25519 curve in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    pub(crate) x: Fe,
    pub(crate) y: Fe,
    pub(crate) z: Fe,
    pub(crate) t: Fe,
}

/// A point prepared as an addend: (Y+X, Y−X, 2Z, 2d·T).
#[derive(Clone, Copy, Debug)]
struct Cached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z2: Fe,
    t2d: Fe,
}

impl Cached {
    /// The identity (0, 1) in cached form.
    const IDENTITY: Cached =
        Cached { y_plus_x: Fe::ONE, y_minus_x: Fe::ONE, z2: Fe::TWO, t2d: Fe::ZERO };

    fn neg(&self) -> Cached {
        Cached {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z2: self.z2,
            t2d: self.t2d.neg(),
        }
    }

    /// Replaces `self` with `other` when `flag` is 1, without branching.
    fn assign_if(&mut self, other: &Cached, flag: u64) {
        self.y_plus_x.assign_if(&other.y_plus_x, flag);
        self.y_minus_x.assign_if(&other.y_minus_x, flag);
        self.z2.assign_if(&other.z2, flag);
        self.t2d.assign_if(&other.t2d, flag);
    }
}

struct Consts {
    d: Fe,
    d2: Fe,
    sqrt_m1: Fe,
    base: Point,
}

fn consts() -> &'static Consts {
    static CONSTS: OnceLock<Consts> = OnceLock::new();
    CONSTS.get_or_init(|| {
        // d = -121665/121666 mod p
        let d = Fe::from_u64(121665).neg() * Fe::from_u64(121666).invert();
        let d2 = d + d;
        let sqrt_m1 = Fe::sqrt_m1();
        // Base point B: y = 4/5, x = the even root.
        let y = Fe::from_u64(4) * Fe::from_u64(5).invert();
        let x = recover_x(y, false, d, sqrt_m1).expect("base point must decompress");
        let base = Point { x, y, z: Fe::ONE, t: x * y };
        Consts { d, d2, sqrt_m1, base }
    })
}

/// Multiples of B, built once at first use.
struct BaseTables {
    /// `rows[j][k - 1]` = k·16^(2j)·B for k = 1..=8.
    rows: Vec<[Cached; 8]>,
    /// `odd[i]` = (2i + 1)·B for i = 0..64.
    odd: Vec<Cached>,
}

fn base_tables() -> &'static BaseTables {
    static TABLES: OnceLock<BaseTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let base = Point::base();
        let mut rows = Vec::with_capacity(32);
        let mut row_base = base;
        for _ in 0..32 {
            let step = row_base.to_cached();
            let mut row = [step; 8];
            let mut p = row_base;
            for slot in row.iter_mut().skip(1) {
                p = p.add_cached(&step);
                *slot = p.to_cached();
            }
            rows.push(row);
            for _ in 0..8 {
                row_base = row_base.double();
            }
        }
        BaseTables { rows, odd: odd_multiples(&base, 64) }
    })
}

/// P, 3P, 5P, …, (2n − 1)P in cached form.
fn odd_multiples(p: &Point, n: usize) -> Vec<Cached> {
    let p2 = p.double().to_cached();
    let mut out = Vec::with_capacity(n);
    let mut cur = *p;
    out.push(cur.to_cached());
    for _ in 1..n {
        cur = cur.add_cached(&p2);
        out.push(cur.to_cached());
    }
    out
}

/// Signed radix-16 digits e[0..64], each in [−8, 8), with
/// k = Σ e[i]·16^i; the last digit may be 8, which k < 2^255 bounds.
/// Branch-free: the scalar may be secret.
fn radix16(k: &Scalar) -> [i8; 64] {
    let mut e = [0i8; 64];
    for (i, b) in k.to_bytes().iter().enumerate() {
        e[2 * i] = (b & 15) as i8;
        e[2 * i + 1] = (b >> 4) as i8;
    }
    let mut carry = 0i8;
    for d in e.iter_mut().take(63) {
        *d += carry;
        carry = (*d + 8) >> 4;
        *d -= carry << 4;
    }
    e[63] += carry;
    e
}

/// Width-`w` non-adjacent form of a scalar: 256 digits, each zero or odd
/// with |d| < 2^(w−1), with k = Σ d[i]·2^i. Variable-time: the scalars it
/// recodes are public.
fn non_adjacent_form(k: &Scalar, w: usize) -> [i8; 256] {
    debug_assert!((2..=8).contains(&w));
    // k < ℓ < 2^253, so the last carry lands below bit 256; the fifth limb
    // pads windows that run past bit 255.
    let mut limbs = [0u64; 5];
    limbs[..4].copy_from_slice(&k.0);
    let width = 1u64 << w;
    let mut naf = [0i8; 256];
    let mut pos = 0;
    let mut carry = 0u64;
    while pos < 256 {
        let (idx, bit) = (pos / 64, pos % 64);
        let bits = if bit + w <= 64 {
            limbs[idx] >> bit
        } else {
            (limbs[idx] >> bit) | (limbs[idx + 1] << (64 - bit))
        };
        let window = carry + (bits & (width - 1));
        if window & 1 == 0 {
            pos += 1;
            continue;
        }
        if window < width / 2 {
            carry = 0;
            naf[pos] = window as i8;
        } else {
            carry = 1;
            naf[pos] = (window as i64 - width as i64) as i8;
        }
        pos += w;
    }
    naf
}

/// 1 if `a == b`, else 0, without branching.
fn ct_eq_u8(a: u8, b: u8) -> u64 {
    ((a ^ b) as u64).wrapping_sub(1) >> 63
}

/// digit·16^(2j)·B for a digit in [−8, 8], from row j of the base table.
/// Reads all eight entries and selects by mask.
fn select(row: &[Cached; 8], digit: i8) -> Cached {
    let sign = digit >> 7; // −1 when negative, else 0
    let abs = ((digit ^ sign) - sign) as u8;
    let mut out = Cached::IDENTITY;
    for (k, entry) in (1u8..).zip(row.iter()) {
        out.assign_if(entry, ct_eq_u8(abs, k));
    }
    let negated = out.neg();
    out.assign_if(&negated, (sign & 1) as u64);
    out
}

/// Adds a public NAF digit's multiple from a table of odd multiples.
fn add_naf_digit(acc: Point, odd: &[Cached], digit: i8) -> Point {
    let entry = &odd[usize::from(digit.unsigned_abs() / 2)];
    match digit.signum() {
        1 => acc.add_cached(entry),
        -1 => acc.add_cached(&entry.neg()),
        _ => acc,
    }
}

/// Recovers the x-coordinate for a given y and sign bit. Returns `None`
/// if y is not on the curve.
fn recover_x(y: Fe, sign: bool, d: Fe, sqrt_m1: Fe) -> Option<Fe> {
    // x² = (y² - 1) / (d·y² + 1)
    let y2 = y.square();
    let u = y2 - Fe::ONE;
    let v = d * y2 + Fe::ONE;
    // Candidate root: x = u·v³·(u·v⁷)^((p-5)/8)  (RFC 8032 §5.1.3)
    let v3 = v.square() * v;
    let v7 = v3.square() * v;
    let mut x = u * v3 * (u * v7).pow_p58();
    let vx2 = v * x.square();
    if vx2 == u {
        // ok
    } else if vx2 == u.neg() {
        x = x * sqrt_m1;
    } else {
        return None;
    }
    if x.is_zero() && sign {
        // "-0" is invalid.
        return None;
    }
    if x.is_negative() != sign {
        x = x.neg();
    }
    Some(x)
}

impl Point {
    /// The identity element (0, 1).
    pub fn identity() -> Point {
        Point { x: Fe::ZERO, y: Fe::ONE, z: Fe::ONE, t: Fe::ZERO }
    }

    /// The standard base point B (y = 4/5, even x).
    pub fn base() -> Point {
        consts().base
    }

    fn to_cached(self) -> Cached {
        Cached {
            y_plus_x: self.y + self.x,
            y_minus_x: self.y - self.x,
            z2: self.z + self.z,
            t2d: self.t * consts().d2,
        }
    }

    /// `add-2008-hwcd-3` with the addend in cached form: 8M.
    fn add_cached(&self, q: &Cached) -> Point {
        let a = (self.y - self.x) * q.y_minus_x;
        let b = (self.y + self.x) * q.y_plus_x;
        let c = self.t * q.t2d;
        let d = self.z * q.z2;
        let e = b - a;
        let f = d - c;
        let g = d + c;
        let h = b + a;
        Point { x: e * f, y: g * h, z: f * g, t: e * h }
    }

    /// Point addition (strongly unified; works when `self == rhs`).
    pub fn add(&self, rhs: &Point) -> Point {
        self.add_cached(&rhs.to_cached())
    }

    /// Point doubling, `dbl-2008-hwcd` for a = −1 (every coordinate
    /// negated, which names the same point): 4M + 4S.
    pub fn double(&self) -> Point {
        self.double_n(1)
    }

    /// 2^n·P. Doubling reads no T, so only the last of the n doublings
    /// computes it: 3M + 4S for each of the others.
    fn double_n(&self, n: u32) -> Point {
        let Point { mut x, mut y, mut z, mut t } = *self;
        for i in 1..=n {
            let a = x.square();
            let b = y.square();
            let zz = z.square();
            let c = zz + zz;
            let sum = a + b;
            let e = (x + y).square() - sum;
            let g = b - a;
            let f = c - g;
            (x, y, z) = (e * f, g * sum, f * g);
            if i == n {
                t = e * sum;
            }
        }
        Point { x, y, z, t }
    }

    /// Negation: (x, y) → (-x, y).
    pub fn neg(&self) -> Point {
        Point { x: self.x.neg(), y: self.y, z: self.z, t: self.t.neg() }
    }

    /// k·B for the standard base point: 64 table additions and 4
    /// doublings. Constant-time in `k` (see the module docs).
    pub fn mul_base(k: &Scalar) -> Point {
        let e = radix16(k);
        let rows = &base_tables().rows;
        // Σ e[2j+1]·16^(2j)·B, times 16, plus Σ e[2j]·16^(2j)·B.
        let mut acc = Point::identity();
        for (row, &digit) in rows.iter().zip(e.iter().skip(1).step_by(2)) {
            acc = acc.add_cached(&select(row, digit));
        }
        acc = acc.double_n(4);
        for (row, &digit) in rows.iter().zip(e.iter().step_by(2)) {
            acc = acc.add_cached(&select(row, digit));
        }
        acc
    }

    /// Computes s·B + k·A' (A' = `a_neg`, which verification passes as
    /// −A), the verification combination, in one pass: Straus over a
    /// width-5 NAF of k on A' and a width-8 NAF of s on the static table of
    /// odd multiples of B. Variable-time: every input is public.
    pub fn double_scalar_mul_basepoint(s: &Scalar, k: &Scalar, a_neg: &Point) -> Point {
        let s_naf = non_adjacent_form(s, 8);
        let k_naf = non_adjacent_form(k, 5);
        let a_odd = odd_multiples(a_neg, 8);
        let b_odd = &base_tables().odd;
        // One doubling per position, owed until the next nonzero digit so
        // that a run of zero positions is doubled across at once.
        let mut acc = Point::identity();
        let mut owed = 0;
        for i in (0..256).rev() {
            owed += 1;
            if s_naf[i] != 0 || k_naf[i] != 0 {
                acc = acc.double_n(owed);
                acc = add_naf_digit(acc, &a_odd, k_naf[i]);
                acc = add_naf_digit(acc, b_odd, s_naf[i]);
                owed = 0;
            }
        }
        acc.double_n(owed)
    }

    /// Compresses to the 32-byte Ed25519 encoding: y with the sign of x in
    /// the top bit.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x * zinv;
        let y = self.y * zinv;
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses a 32-byte encoding; `None` if not a curve point.
    pub fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let c = consts();
        let sign = bytes[31] & 0x80 != 0;
        let mut y_bytes = *bytes;
        y_bytes[31] &= 0x7f;
        let y = Fe::from_bytes(&y_bytes);
        // Reject non-canonical y (>= p): re-encoding must match.
        if y.to_bytes() != y_bytes {
            return None;
        }
        let x = recover_x(y, sign, c.d, c.sqrt_m1)?;
        Some(Point { x, y, z: Fe::ONE, t: x * y })
    }

    /// True if this is the identity.
    pub fn is_identity(&self) -> bool {
        // x/z == 0 and y/z == 1  ⇔  x == 0 and y == z
        self.x.is_zero() && self.y == self.z
    }

    /// Checks the curve equation in projective form; used by tests.
    pub fn is_on_curve(&self) -> bool {
        let c = consts();
        // -x² + y² = z² + d·t²  and  t·z = x·y  (extended-coordinate invariants)
        let lhs = self.y.square() - self.x.square();
        let rhs = self.z.square() + c.d * self.t.square();
        lhs == rhs && self.t * self.z == self.x * self.y
    }
}

/// The double-and-add multiplications the table-driven ones replaced, kept
/// as oracles for them.
#[cfg(test)]
impl Point {
    /// k·P by binary double-and-add (MSB first), doubling by unified add.
    pub(crate) fn mul(&self, k: &Scalar) -> Point {
        let mut acc = Point::identity();
        let bits: Vec<u8> = k.bits_le().collect();
        for bit in bits.iter().rev() {
            acc = acc.add(&acc);
            if *bit == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// s·B + k·A', one bit of each scalar per step (Straus/Shamir).
    pub(crate) fn double_scalar_mul_bitwise(s: &Scalar, k: &Scalar, a_neg: &Point) -> Point {
        let b = Point::base();
        let sum = b.add(a_neg);
        let sb: Vec<u8> = s.bits_le().collect();
        let kb: Vec<u8> = k.bits_le().collect();
        let mut acc = Point::identity();
        for i in (0..256).rev() {
            acc = acc.add(&acc);
            match (sb[i], kb[i]) {
                (1, 1) => acc = acc.add(&sum),
                (1, 0) => acc = acc.add(&b),
                (0, 1) => acc = acc.add(a_neg),
                _ => {}
            }
        }
        acc
    }
}

impl PartialEq for Point {
    fn eq(&self, other: &Point) -> bool {
        // Compare affine coordinates without dividing: cross-multiply.
        (self.x * other.z == other.x * self.z) && (self.y * other.z == other.y * self.z)
    }
}
impl Eq for Point {}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn base_point_on_curve() {
        assert!(Point::base().is_on_curve());
    }

    #[test]
    fn identity_laws() {
        let b = Point::base();
        let id = Point::identity();
        assert!(id.is_on_curve());
        assert_eq!(b.add(&id), b);
        assert_eq!(id.add(&b), b);
        assert!(b.add(&b.neg()).is_identity());
    }

    #[test]
    fn double_matches_add() {
        let b = Point::base();
        assert_eq!(b.double(), b.add(&b));
        assert!(b.double().is_on_curve());
    }

    #[test]
    fn associativity() {
        let b = Point::base();
        let p2 = b.double();
        let p3 = p2.add(&b);
        assert_eq!(b.add(&p2), p3);
        assert_eq!(p2.add(&b).add(&p3), p2.add(&b.add(&p3)));
    }

    #[test]
    fn scalar_mul_small() {
        let b = Point::base();
        assert!(b.mul(&Scalar::ZERO).is_identity());
        assert_eq!(b.mul(&Scalar::ONE), b);
        assert_eq!(b.mul(&Scalar::from_u64(2)), b.double());
        assert_eq!(b.mul(&Scalar::from_u64(5)), b.double().double().add(&b));
    }

    #[test]
    fn order_annihilates_base() {
        // ℓ·B = identity.
        let l_minus_1 = Scalar::ZERO.sub(Scalar::ONE);
        let p = Point::base().mul(&l_minus_1).add(&Point::base());
        assert!(p.is_identity());
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let mut p = Point::base();
        for _ in 0..16 {
            let enc = p.compress();
            let q = Point::decompress(&enc).expect("valid point");
            assert_eq!(p, q);
            assert_eq!(q.compress(), enc);
            p = p.add(&Point::base());
        }
    }

    #[test]
    fn base_point_encoding_matches_rfc8032() {
        // RFC 8032: B encodes to 0x58666...6666 (y = 4/5, sign 0).
        let enc = Point::base().compress();
        let mut expect = [0x66u8; 32];
        expect[0] = 0x58;
        assert_eq!(enc, expect);
    }

    #[test]
    fn decompress_rejects_invalid() {
        // y = 2 is not on the curve for either sign.
        let mut bad = [0u8; 32];
        bad[0] = 2;
        assert!(Point::decompress(&bad).is_none());
        bad[31] |= 0x80;
        assert!(Point::decompress(&bad).is_none());
    }

    #[test]
    fn double_scalar_mul_matches_naive() {
        let s = Scalar::from_u64(123456789);
        let k = Scalar::from_u64(987654321);
        let a = Point::base().mul(&Scalar::from_u64(777));
        let fast = Point::double_scalar_mul_basepoint(&s, &k, &a.neg());
        let slow = Point::mul_base(&s).add(&a.mul(&k).neg());
        assert_eq!(fast, slow);
    }

    /// Seeded scalars below ℓ: SHA-512 of a label and a counter, reduced.
    fn seeded_scalars(label: &str, n: u32) -> impl Iterator<Item = Scalar> + '_ {
        (0..n).map(move |i| {
            let mut input = label.as_bytes().to_vec();
            input.extend_from_slice(&i.to_le_bytes());
            Scalar::from_bytes_mod_order_wide(&crate::sha2::sha512(&input))
        })
    }

    /// 0, 1, 2, 15, 16, 2^252, ℓ − 1 and ℓ − 8: the ends of the digit
    /// ranges and of the scalar range.
    pub(crate) fn edge_scalars() -> Vec<Scalar> {
        let mut two_252 = [0u8; 32];
        two_252[31] = 0x10;
        vec![
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::from_u64(2),
            Scalar::from_u64(15),
            Scalar::from_u64(16),
            Scalar::from_canonical_bytes(&two_252).expect("2^252 < ℓ"),
            Scalar::ZERO.sub(Scalar::ONE),
            Scalar::ZERO.sub(Scalar::from_u64(8)),
        ]
    }

    /// A point of order 8: ℓ·P for the first decompressible y = 2, 3, …
    /// whose ℓ-multiple still has order 8.
    pub(crate) fn order8_point() -> Point {
        let l_minus_1 = Scalar::ZERO.sub(Scalar::ONE);
        (2u8..)
            .filter_map(|y| {
                let mut enc = [0u8; 32];
                enc[0] = y;
                Point::decompress(&enc)
            })
            .map(|p| p.mul(&l_minus_1).add(&p))
            .find(|t| !t.double().double().is_identity())
            .expect("some y yields a point with an order-8 component")
    }

    #[test]
    fn mul_base_matches_double_and_add() {
        let b = Point::base();
        for k in edge_scalars().into_iter().chain(seeded_scalars("mul_base", 2000)) {
            let got = Point::mul_base(&k);
            assert!(got.is_on_curve());
            assert_eq!(got, b.mul(&k), "k = {:?}", k.to_bytes());
        }
    }

    #[test]
    fn double_scalar_mul_matches_bitwise_straus() {
        let edges = edge_scalars();
        let t8 = order8_point();
        let a = Point::mul_base(&Scalar::from_u64(777));
        // Edge pairs on a prime-order A, on A + T8 (mixed order), and on T8.
        for a_neg in [a.neg(), a.add(&t8).neg(), t8] {
            for s in &edges {
                for k in &edges {
                    let fast = Point::double_scalar_mul_basepoint(s, k, &a_neg);
                    assert_eq!(fast, Point::double_scalar_mul_bitwise(s, k, &a_neg));
                }
            }
        }
        let s_all = seeded_scalars("straus-s", 2000);
        let k_all = seeded_scalars("straus-k", 2000);
        let a_all = seeded_scalars("straus-a", 2000);
        for (i, ((s, k), a)) in s_all.zip(k_all).zip(a_all).enumerate() {
            let mut a_neg = Point::mul_base(&a).neg();
            if i % 4 == 3 {
                a_neg = a_neg.add(&t8);
            }
            let fast = Point::double_scalar_mul_basepoint(&s, &k, &a_neg);
            assert!(fast.is_on_curve());
            assert_eq!(fast, Point::double_scalar_mul_bitwise(&s, &k, &a_neg), "pair {i}");
        }
    }

    #[test]
    fn dedicated_double_matches_unified_add_off_the_prime_subgroup() {
        let mut p = order8_point().add(&Point::base());
        for _ in 0..16 {
            assert_eq!(p.double(), p.add(&p));
            assert!(p.double().is_on_curve());
            p = p.double().add(&Point::base());
        }
        let t8 = order8_point();
        assert_eq!(t8.double(), t8.add(&t8));
        assert!(Point::identity().double().is_identity());
    }
}
