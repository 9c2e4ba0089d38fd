//! The finite field GF(2⁶⁴).
//!
//! Elements are 64-bit polynomials over GF(2), reduced modulo the primitive
//! pentanomial `x⁶⁴ + x⁴ + x³ + x + 1`. Addition is XOR; multiplication is a
//! carry-less 64×64→128 product followed by modular reduction. All
//! operations run in O(1) word-RAM time, which is the cost model the paper's
//! Proposition 2 assumes for "addition and multiplication over F take O(1)
//! time":
//!
//! * the carry-less product is one `pclmulqdq` instruction when the CPU has
//!   it (squaring too), else a portable loop over the set bits of the
//!   sparser operand (≤ 64 steps; squaring spreads the bits instead);
//! * the reduction folds the high word down with four shifts and XORs — the
//!   modulus' low part `x⁴ + x³ + x + 1` is sparse enough that no second
//!   carry-less multiply is needed;
//! * inversion is an Itoh–Tsujii addition chain: 63 squarings and 10
//!   multiplications.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An element of the finite field GF(2⁶⁴).
///
/// The zero element doubles as the *formal zero* of the paper's outdetect
/// labeling specification (Section 7.1): a value never assigned to an actual
/// edge, returned when `∂(S)` is empty.
///
/// # Example
///
/// ```
/// use ftc_field::Gf64;
/// let x = Gf64::new(7);
/// assert_eq!(x * Gf64::ONE, x);
/// assert_eq!(x - x, Gf64::ZERO);       // characteristic 2: a - a = a + a = 0
/// assert_eq!(x.pow(3), x * x * x);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf64(u64);

impl Gf64 {
    /// The additive identity.
    pub const ZERO: Gf64 = Gf64(0);
    /// The multiplicative identity.
    pub const ONE: Gf64 = Gf64(1);
    /// The generator `x` of the polynomial basis (a primitive element).
    pub const X: Gf64 = Gf64(2);

    /// Creates a field element from its 64-bit polynomial-basis representation.
    #[inline]
    pub const fn new(bits: u64) -> Self {
        Gf64(bits)
    }

    /// Returns the 64-bit polynomial-basis representation.
    #[inline]
    pub const fn to_bits(self) -> u64 {
        self.0
    }

    /// Returns `true` for the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Carry-less 64×64→128 multiplication (polynomial multiplication over
    /// GF(2) without reduction). Uses the `pclmulqdq` instruction when the
    /// CPU has it, falling back to a portable set-bit loop.
    #[inline]
    fn clmul(a: u64, b: u64) -> u128 {
        #[cfg(target_arch = "x86_64")]
        {
            if have_pclmul() {
                // SAFETY: `clmul_pclmul` needs `pclmulqdq`, which was just
                // detected at runtime, and SSE2, which every x86_64 CPU has.
                return unsafe { clmul_pclmul(a, b) };
            }
        }
        Self::clmul_portable(a, b)
    }

    /// Portable carry-less multiply: iterates over the set bits of the
    /// sparser operand (halves the expected loop count on random inputs).
    #[inline]
    fn clmul_portable(a: u64, b: u64) -> u128 {
        let (mut walk, base) = if a.count_ones() <= b.count_ones() {
            (a, b as u128)
        } else {
            (b, a as u128)
        };
        let mut acc = 0u128;
        while walk != 0 {
            let i = walk.trailing_zeros();
            acc ^= base << i;
            walk &= walk - 1;
        }
        acc
    }

    /// Carry-less square of `a`: `a` with zero bits interleaved. One
    /// `pclmulqdq` when the CPU has it, else a portable bit spread.
    #[inline]
    fn clsquare(a: u64) -> u128 {
        #[cfg(target_arch = "x86_64")]
        {
            if have_pclmul() {
                // SAFETY: as in `clmul`.
                return unsafe { clmul_pclmul(a, a) };
            }
        }
        spread_bits(a)
    }

    /// Reduces a 128-bit carry-less product modulo `x⁶⁴ + x⁴ + x³ + x + 1`.
    ///
    /// `x⁶⁴ ≡ x⁴ + x³ + x + 1`, so the high word `hi` folds down as
    /// `hi ⊕ hi≪1 ⊕ hi≪3 ⊕ hi≪4`. The shifts push at most four bits
    /// (`hi≫63 ⊕ hi≫61 ⊕ hi≫60`) past bit 63; that spill is worth
    /// `spill · x⁶⁴ ≡ spill · (x⁴ + x³ + x + 1)` too, and since the fold is
    /// linear it is XORed into `hi` before the single fold.
    #[inline]
    fn reduce(wide: u128) -> u64 {
        let lo = wide as u64;
        let hi = (wide >> 64) as u64;
        let h = hi ^ (hi >> 63) ^ (hi >> 61) ^ (hi >> 60);
        lo ^ h ^ (h << 1) ^ (h << 3) ^ (h << 4)
    }

    /// Field multiplication.
    #[inline]
    #[allow(clippy::should_implement_trait)] // the `Mul` trait impl delegates here
    pub fn mul(self, rhs: Gf64) -> Gf64 {
        Gf64(Self::reduce(Self::clmul(self.0, rhs.0)))
    }

    /// Field squaring (the Frobenius map).
    #[inline]
    pub fn square(self) -> Gf64 {
        Gf64(Self::reduce(Self::clsquare(self.0)))
    }

    /// Raises the element to the power `e` by square-and-multiply.
    pub fn pow(self, mut e: u64) -> Gf64 {
        let mut base = self;
        let mut acc = Gf64::ONE;
        while e != 0 {
            if e & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.square();
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem
    /// (`a⁻¹ = a^(2⁶⁴ − 2)`), computed with an Itoh–Tsujii-style addition
    /// chain on the exponent `2⁶⁴ − 2 = (2⁶³ − 1) · 2`.
    ///
    /// Returns `None` for the zero element, which has no inverse.
    pub fn inverse(self) -> Option<Gf64> {
        if self.is_zero() {
            return None;
        }
        // Build a^(2^63 - 1) with the addition chain 1,2,3,6,7,14,15,30,31,
        // 62,63 on exponent bit-lengths, using
        // a^(2^(i+j) - 1) = (a^(2^i - 1))^(2^j) · a^(2^j - 1):
        let a1 = self; // 2^1 - 1
        let a2 = sq_n(a1, 1).mul(a1); // 2^2 - 1
        let a3 = sq_n(a2, 1).mul(a1); // 2^3 - 1
        let a6 = sq_n(a3, 3).mul(a3); // 2^6 - 1
        let a7 = sq_n(a6, 1).mul(a1); // 2^7 - 1
        let a14 = sq_n(a7, 7).mul(a7); // 2^14 - 1
        let a15 = sq_n(a14, 1).mul(a1); // 2^15 - 1
        let a30 = sq_n(a15, 15).mul(a15); // 2^30 - 1
        let a31 = sq_n(a30, 1).mul(a1); // 2^31 - 1
        let a62 = sq_n(a31, 31).mul(a31); // 2^62 - 1
        let a63 = sq_n(a62, 1).mul(a1); // 2^63 - 1
        Some(a63.square()) // a^(2^64 - 2)
    }

    /// The absolute trace `Tr(a) = Σ_{i<64} a^(2^i) ∈ {0, 1}`. The trace
    /// is GF(2)-linear, so it is the parity of `a`'s bits at the `i` with
    /// `Tr(xⁱ) = 1`.
    pub fn trace(self) -> u64 {
        u64::from((self.0 & TRACE_MASK).count_ones() & 1)
    }

    /// The coordinates of `self` in the trace-dual of the polynomial
    /// basis, packed most significant first: bit `63 − j` is
    /// `Tr(xʲ·self)`. The trace form is non-degenerate, so this is a
    /// GF(2)-linear bijection — distinct elements get distinct keys.
    pub fn dual_coordinates(self) -> u64 {
        let mut y = self.0;
        let mut key = 0u64;
        for _ in 0..64 {
            key = key << 1 | u64::from((y & TRACE_MASK).count_ones() & 1);
            // y ← y·x: shift, folding x⁶⁴ back as x⁴ + x³ + x + 1.
            y = (y << 1) ^ ((y >> 63) * 0x1b);
        }
        key
    }
}

/// The bits `i` with `Tr(xⁱ) = 1` under the modulus
/// `x⁶⁴ + x⁴ + x³ + x + 1`: only `i = 61` and `i = 63`.
const TRACE_MASK: u64 = 0xa000_0000_0000_0000;

/// Whether the CPU has `pclmulqdq` (detected once; `std` caches the probe).
#[cfg(target_arch = "x86_64")]
#[inline]
fn have_pclmul() -> bool {
    std::arch::is_x86_feature_detected!("pclmulqdq")
}

/// Hardware carry-less multiply via `pclmulqdq`. The lane moves are SSE2,
/// which is part of the x86_64 baseline.
///
/// # Safety
///
/// Callers must have verified `pclmulqdq` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
unsafe fn clmul_pclmul(a: u64, b: u64) -> u128 {
    use std::arch::x86_64::*;
    let va = _mm_set_epi64x(0, a as i64);
    let vb = _mm_set_epi64x(0, b as i64);
    let r = _mm_clmulepi64_si128::<0>(va, vb);
    let lo = _mm_cvtsi128_si64(r) as u64;
    let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(r, r)) as u64;
    ((hi as u128) << 64) | lo as u128
}

/// `a` squared `n` times, i.e. `a^(2^n)` (the Frobenius applied `n` times).
#[inline]
fn sq_n(mut a: Gf64, n: u32) -> Gf64 {
    for _ in 0..n {
        a = a.square();
    }
    a
}

/// Interleaves zero bits: maps `b₆₃…b₁b₀` to the 128-bit carry-less square
/// `…0b₁0b₀`.
#[inline]
fn spread_bits(x: u64) -> u128 {
    let mut v = x as u128;
    v = (v | (v << 32)) & 0x0000_0000_FFFF_FFFF_0000_0000_FFFF_FFFF;
    v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF_0000_FFFF_0000_FFFF;
    v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF_00FF_00FF_00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F_0F0F_0F0F_0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333_3333_3333_3333_3333_3333_3333;
    v = (v | (v << 1)) & 0x5555_5555_5555_5555_5555_5555_5555_5555;
    v
}

impl Add for Gf64 {
    type Output = Gf64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // characteristic two: addition IS xor
    fn add(self, rhs: Gf64) -> Gf64 {
        Gf64(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf64 {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)] // characteristic two: addition IS xor
    fn add_assign(&mut self, rhs: Gf64) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf64 {
    type Output = Gf64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // characteristic two: sub coincides with add
    fn sub(self, rhs: Gf64) -> Gf64 {
        self + rhs
    }
}

impl SubAssign for Gf64 {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)] // characteristic two: sub coincides with add
    fn sub_assign(&mut self, rhs: Gf64) {
        *self += rhs;
    }
}

impl Neg for Gf64 {
    type Output = Gf64;
    #[inline]
    fn neg(self) -> Gf64 {
        self
    }
}

impl Mul for Gf64 {
    type Output = Gf64;
    #[inline]
    fn mul(self, rhs: Gf64) -> Gf64 {
        Gf64::mul(self, rhs)
    }
}

impl MulAssign for Gf64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf64) {
        *self = Gf64::mul(*self, rhs);
    }
}

impl Div for Gf64 {
    type Output = Gf64;
    /// # Panics
    ///
    /// Panics when dividing by zero.
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division = multiply by inverse
    fn div(self, rhs: Gf64) -> Gf64 {
        self * rhs.inverse().expect("division by zero in GF(2^64)")
    }
}

impl DivAssign for Gf64 {
    fn div_assign(&mut self, rhs: Gf64) {
        *self = *self / rhs;
    }
}

impl Sum for Gf64 {
    fn sum<I: Iterator<Item = Gf64>>(iter: I) -> Gf64 {
        iter.fold(Gf64::ZERO, |a, b| a + b)
    }
}

impl Product for Gf64 {
    fn product<I: Iterator<Item = Gf64>>(iter: I) -> Gf64 {
        iter.fold(Gf64::ONE, |a, b| a * b)
    }
}

impl From<u64> for Gf64 {
    fn from(bits: u64) -> Gf64 {
        Gf64(bits)
    }
}

impl From<Gf64> for u64 {
    fn from(x: Gf64) -> u64 {
        x.0
    }
}

impl fmt::Debug for Gf64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf64({:#018x})", self.0)
    }
}

impl fmt::Display for Gf64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

impl fmt::LowerHex for Gf64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Gf64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Gf64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::Octal for Gf64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Low 64 bits of the reduction polynomial `x⁶⁴ + x⁴ + x³ + x + 1`
    /// (the `x⁶⁴` term is implicit).
    const MODULUS_LOW: u64 = 0b11011;

    fn naive_mul(a: u64, b: u64) -> u64 {
        // Bit-by-bit reference implementation: shift-and-reduce.
        let mut acc: u64 = 0;
        let mut a_cur = a;
        for i in 0..64 {
            if (b >> i) & 1 == 1 {
                acc ^= a_cur;
            }
            let carry = a_cur >> 63;
            a_cur <<= 1;
            if carry == 1 {
                a_cur ^= MODULUS_LOW;
            }
        }
        acc
    }

    #[test]
    fn identities() {
        let x = Gf64::new(0xdead_beef_cafe_f00d);
        assert_eq!(x + Gf64::ZERO, x);
        assert_eq!(x * Gf64::ONE, x);
        assert_eq!(x * Gf64::ZERO, Gf64::ZERO);
        assert_eq!(x + x, Gf64::ZERO);
        assert_eq!(-x, x);
        assert_eq!(x - x, Gf64::ZERO);
    }

    #[test]
    fn mul_matches_reference() {
        let samples = [
            0u64,
            1,
            2,
            3,
            0xffff_ffff_ffff_ffff,
            0x8000_0000_0000_0000,
            0x1234_5678_9abc_def0,
            0x0fed_cba9_8765_4321,
            MODULUS_LOW,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(
                    Gf64::new(a) * Gf64::new(b),
                    Gf64::new(naive_mul(a, b)),
                    "mismatch for {a:#x} * {b:#x}"
                );
            }
        }
    }

    #[test]
    fn accelerated_clmul_matches_portable() {
        // Pseudo-random sweep: whatever backend `clmul` dispatches to must
        // agree with the portable reference bit for bit.
        let mut x = 0x0123_4567_89ab_cdefu64;
        let mut y = 0xfedc_ba98_7654_3210u64;
        for _ in 0..2000 {
            assert_eq!(Gf64::clmul(x, y), Gf64::clmul_portable(x, y));
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
        }
        assert_eq!(Gf64::clmul(0, 0), 0);
        assert_eq!(
            Gf64::clmul(u64::MAX, u64::MAX),
            Gf64::clmul_portable(u64::MAX, u64::MAX)
        );
    }

    /// Operands with their top bits set, so the 128-bit product's high
    /// word has bits 60–63 set and `reduce` must fold the spill.
    fn spill_operands() -> Vec<(u64, u64)> {
        let mut out = vec![(u64::MAX, u64::MAX), (1 << 63, 1 << 63)];
        let mut x = 0x0123_4567_89ab_cdefu64;
        let mut y = 0xfedc_ba98_7654_3210u64;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            out.push((x | 0xf << 60, y | 0xf << 60));
            out.push((x | 1 << 63, y | 1 << 61));
        }
        out
    }

    #[test]
    fn reduction_spill_matches_reference() {
        for (a, b) in spill_operands() {
            let wide = Gf64::clmul_portable(a, b);
            assert_ne!((wide >> 64) as u64 >> 60, 0, "{a:#x} * {b:#x} spills");
            let want = naive_mul(a, b);
            assert_eq!(Gf64::reduce(wide), want, "portable {a:#x} * {b:#x}");
            assert_eq!((Gf64::new(a) * Gf64::new(b)).to_bits(), want);
            let sq = spread_bits(a);
            assert_ne!((sq >> 64) as u64 >> 60, 0, "{a:#x}² spills");
            assert_eq!(Gf64::reduce(sq), naive_mul(a, a), "portable {a:#x}²");
            assert_eq!(Gf64::new(a).square().to_bits(), naive_mul(a, a));
            #[cfg(target_arch = "x86_64")]
            if have_pclmul() {
                // SAFETY: `pclmulqdq` detected just above; SSE2 is baseline.
                let (p, s) = unsafe { (clmul_pclmul(a, b), clmul_pclmul(a, a)) };
                assert_eq!(Gf64::reduce(p), want, "pclmul {a:#x} * {b:#x}");
                assert_eq!(Gf64::reduce(s), naive_mul(a, a), "pclmul {a:#x}²");
            }
        }
    }

    #[test]
    fn square_matches_mul() {
        let mut x = Gf64::new(3);
        for _ in 0..200 {
            assert_eq!(x.square(), x * x);
            x = x * Gf64::new(0x9e37_79b9_7f4a_7c15) + Gf64::ONE;
        }
    }

    #[test]
    fn inverse_round_trip() {
        let mut x = Gf64::new(1);
        for _ in 0..500 {
            let inv = x.inverse().expect("nonzero");
            assert_eq!(x * inv, Gf64::ONE);
            x = x * Gf64::X + Gf64::ONE;
            if x.is_zero() {
                x = Gf64::new(7);
            }
        }
        assert!(Gf64::ZERO.inverse().is_none());
    }

    #[test]
    fn pow_agrees_with_repeated_mul() {
        let x = Gf64::new(0xabcd_ef01_2345_6789);
        let mut acc = Gf64::ONE;
        for e in 0..32u64 {
            assert_eq!(x.pow(e), acc);
            acc *= x;
        }
    }

    #[test]
    fn frobenius_is_additive() {
        let a = Gf64::new(0x1111_2222_3333_4444);
        let b = Gf64::new(0x9999_aaaa_bbbb_cccc);
        assert_eq!((a + b).square(), a.square() + b.square());
    }

    #[test]
    fn trace_is_additive_and_binary() {
        let a = Gf64::new(0x5555_0000_ffff_1234);
        let b = Gf64::new(0x0123_4567_89ab_cdef);
        assert!(a.trace() <= 1 && b.trace() <= 1);
        assert_eq!((a + b).trace(), a.trace() ^ b.trace());
        // Tr(x²) = Tr(x).
        assert_eq!(a.square().trace(), a.trace());
    }

    #[test]
    fn trace_mask_matches_the_frobenius_sum() {
        let mut a = Gf64::new(0x0123_4567_89ab_cdef);
        for i in 0..64 {
            for x in [Gf64::new(1 << i), a] {
                let mut acc = x;
                let mut term = x;
                for _ in 1..64 {
                    term = term.square();
                    acc += term;
                }
                assert_eq!(acc.to_bits(), x.trace(), "Tr({x:?})");
            }
            a = a * Gf64::new(0x9e37_79b9_7f4a_7c15) + Gf64::ONE;
        }
    }

    #[test]
    fn dual_coordinates_are_a_linear_bijection() {
        let a = Gf64::new(0x5555_0000_ffff_1234);
        let b = Gf64::new(0x0123_4567_89ab_cdef);
        assert_eq!(
            (a + b).dual_coordinates(),
            a.dual_coordinates() ^ b.dual_coordinates()
        );
        let mut xj = Gf64::ONE;
        for j in 0..64 {
            assert_eq!(a.dual_coordinates() >> (63 - j) & 1, (xj * a).trace());
            xj *= Gf64::X;
        }
        // Full rank: the images of the 64 basis vectors are independent.
        let mut rows: Vec<u64> = (0..64)
            .map(|i| Gf64::new(1 << i).dual_coordinates())
            .collect();
        for bit in (0..64).rev() {
            let pivot = (0..rows.len())
                .find(|&r| rows[r] >> bit & 1 == 1)
                .expect("dual coordinates have full rank");
            let p = rows.swap_remove(pivot);
            for r in rows.iter_mut() {
                if *r >> bit & 1 == 1 {
                    *r ^= p;
                }
            }
        }
    }

    #[test]
    fn x_is_not_low_order() {
        // The reduction polynomial is primitive, so x has full order; sanity
        // check that x^k != 1 for a range of small k.
        let mut p = Gf64::X;
        for _ in 0..4096 {
            assert_ne!(p, Gf64::ONE);
            p *= Gf64::X;
        }
    }

    #[test]
    fn display_formats() {
        let x = Gf64::new(0xff);
        assert_eq!(format!("{x}"), "0x00000000000000ff");
        assert_eq!(format!("{x:x}"), "ff");
        assert_eq!(format!("{x:b}"), "11111111");
        assert!(!format!("{x:?}").is_empty());
    }
}
