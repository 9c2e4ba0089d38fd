//! Berlekamp–Massey over GF(2⁶⁴).
//!
//! Given the power-sum syndrome sequence `s_j = Σ_e x_e^j` (j = 1..2k) of an
//! unknown edge set, Berlekamp–Massey computes the minimal LFSR feedback
//! polynomial — which, for weight-≤k error vectors with all-one magnitudes,
//! is exactly the error-locator polynomial `Λ(z) = ∏_e (1 − x_e·z)` whose
//! roots are the inverses of the edge IDs. Runs in O(len²) field operations,
//! matching the O(k²) decode budget of Proposition 2.

use ftc_field::{Gf64, Poly};

/// Reusable buffers for [`berlekamp_massey_into`]: the connection
/// polynomial, the previous best, and the copy temporary. Warm scratches
/// make the fit allocation-free.
#[derive(Debug, Default)]
pub struct BmScratch {
    /// Current connection polynomial (the result, trimmed).
    pub c: Vec<Gf64>,
    b: Vec<Gf64>,
    t: Vec<Gf64>,
}

/// Scratch-reusing Berlekamp–Massey: fits the sequence `s`, leaving the
/// connection polynomial (little-endian, trailing zeros trimmed) in
/// `scratch.c` and returning the LFSR length `L`. Identical output to
/// [`berlekamp_massey`]; allocation-free once `scratch` has warmed up to
/// the sequence length.
pub fn berlekamp_massey_into(s: &[Gf64], scratch: &mut BmScratch) -> usize {
    let n = s.len();
    let BmScratch { c, b: b_poly, t } = scratch;
    c.clear();
    c.push(Gf64::ONE);
    b_poly.clear();
    b_poly.push(Gf64::ONE);
    let mut l = 0usize;
    let mut m = 1usize;
    // Inverse of the last discrepancy that changed the length; it changes
    // only with `b_poly`, so it is inverted once per length change.
    let mut b_inv = Gf64::ONE;

    for i in 0..n {
        // Discrepancy d = s_i + Σ_{j=1..L} c_j · s_{i−j}.
        let mut d = s[i];
        for j in 1..=l.min(i) {
            if j < c.len() {
                d += c[j] * s[i - j];
            }
        }
        if d.is_zero() {
            m += 1;
        } else if 2 * l <= i {
            t.clear();
            t.extend_from_slice(c);
            grow_xor(c, b_poly, d * b_inv, m);
            l = i + 1 - l;
            std::mem::swap(b_poly, t);
            b_inv = d.inverse().expect("discrepancy is nonzero");
            m = 1;
        } else {
            grow_xor(c, b_poly, d * b_inv, m);
            m += 1;
        }
    }
    while c.last().is_some_and(|x| x.is_zero()) {
        c.pop();
    }
    l
}

/// Computes the minimal-length LFSR feedback polynomial `C(z)` (with
/// `C(0) = 1`) generating the sequence `s`, together with its LFSR length
/// `L`.
///
/// For a decodable syndrome the returned polynomial has degree exactly `L`;
/// a degree `< L` indicates an inconsistent (overloaded) syndrome, which the
/// caller treats as a decoding failure.
///
/// # Example
///
/// ```
/// use ftc_codes::berlekamp_massey;
/// use ftc_field::Gf64;
///
/// // Sequence generated by s_{n} = 3·s_{n-1} (over GF(2^64)): L = 1.
/// let three = Gf64::new(3);
/// let s: Vec<Gf64> = (1..=6u64).map(|j| three.pow(j)).collect();
/// let (c, l) = berlekamp_massey(&s);
/// assert_eq!(l, 1);
/// assert_eq!(c.degree(), Some(1));
/// ```
pub fn berlekamp_massey(s: &[Gf64]) -> (Poly, usize) {
    let mut scratch = BmScratch::default();
    let l = berlekamp_massey_into(s, &mut scratch);
    (Poly::from_coeffs(scratch.c), l)
}

/// `c(z) += coef · z^shift · b(z)` (in place, growing `c` as needed).
fn grow_xor(c: &mut Vec<Gf64>, b: &[Gf64], coef: Gf64, shift: usize) {
    let need = b.len() + shift;
    if c.len() < need {
        c.resize(need, Gf64::ZERO);
    }
    for (i, &bc) in b.iter().enumerate() {
        c[i + shift] += coef * bc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Power sums of a locator set: s_j = Σ x^j for j = 1..=len.
    fn power_sums(locators: &[Gf64], len: usize) -> Vec<Gf64> {
        let mut out = vec![Gf64::ZERO; len];
        for &x in locators {
            let mut p = Gf64::ONE;
            for slot in out.iter_mut() {
                p *= x;
                *slot += p;
            }
        }
        out
    }

    fn locator_poly(locators: &[Gf64]) -> Poly {
        // Λ(z) = ∏ (1 + x·z): roots are the inverses of the locators.
        let mut p = Poly::one();
        for &x in locators {
            p = p.mul(&Poly::from_coeffs(vec![Gf64::ONE, x]));
        }
        p
    }

    #[test]
    fn zero_sequence_gives_trivial_lfsr() {
        let s = vec![Gf64::ZERO; 8];
        let (c, l) = berlekamp_massey(&s);
        assert_eq!(l, 0);
        assert_eq!(c, Poly::one());
    }

    #[test]
    fn recovers_locator_polynomial() {
        for locs in [
            vec![Gf64::new(2)],
            vec![Gf64::new(2), Gf64::new(9)],
            vec![
                Gf64::new(5),
                Gf64::new(6),
                Gf64::new(7),
                Gf64::new(0xabcdef),
            ],
        ] {
            let s = power_sums(&locs, 2 * locs.len());
            let (c, l) = berlekamp_massey(&s);
            assert_eq!(l, locs.len());
            assert_eq!(c.monic(), locator_poly(&locs).monic());
        }
    }

    #[test]
    fn lfsr_regenerates_sequence() {
        let locs = vec![Gf64::new(3), Gf64::new(11), Gf64::new(200)];
        let s = power_sums(&locs, 10);
        let (c, l) = berlekamp_massey(&s);
        assert_eq!(l, 3);
        // Check the recurrence: s_i = Σ_{j=1..L} c_j s_{i−j} (char 2 signs).
        for i in l..s.len() {
            let mut acc = Gf64::ZERO;
            for j in 1..=l {
                acc += c.coeff(j) * s[i - j];
            }
            assert_eq!(acc, s[i]);
        }
    }

    #[test]
    fn overloaded_sequence_is_rejected_downstream() {
        // 6 locators but only 6 syndromes (k = 3): BM may well settle at a
        // short spurious LFSR (L ≤ 3 fits the observed window), but the
        // candidate set it implies has the wrong power sums, so the codec's
        // verification layer rejects it. Assert exactly that.
        let locs: Vec<Gf64> = (1..=6u64).map(|i| Gf64::new(i * 977)).collect();
        let s = power_sums(&locs, 6);
        let codec = crate::ThresholdCodec::new(3);
        assert_eq!(
            codec.decode(&s),
            Err(crate::DecodeError::ThresholdExceeded),
            "an overloaded syndrome must never decode to a wrong edge set"
        );
    }

    #[test]
    fn duplicate_locators_cancel() {
        // Char 2: a duplicated edge vanishes from the syndrome entirely.
        let locs = vec![Gf64::new(42), Gf64::new(42), Gf64::new(7)];
        let s = power_sums(&locs, 6);
        let expect = power_sums(&[Gf64::new(7)], 6);
        assert_eq!(s, expect);
    }
}
