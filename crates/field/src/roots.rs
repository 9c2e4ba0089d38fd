//! Deterministic root finding over GF(2⁶⁴) — Berlekamp's trace algorithm.
//!
//! The paper's deterministic outdetect labeling needs a *deterministic* way
//! to recover the set of outgoing-edge IDs from the error-locator polynomial
//! produced by Berlekamp–Massey. A Chien search over the 2⁶⁴-element field is
//! intractable, and Cantor–Zassenhaus is randomized; Berlekamp's trace
//! algorithm is the standard deterministic alternative in characteristic two:
//! for any two distinct roots `r ≠ s`, some basis element `β` of
//! GF(2⁶⁴)/GF(2) has `Tr(βr) ≠ Tr(βs)` (the trace bilinear form is
//! non-degenerate), so `gcd(σ(x), Tr(βx) mod σ(x))` eventually splits every
//! non-linear factor. The cost is O(w · deg²) field operations per split with
//! w = 64, i.e. Õ(deg²) — matching the decoding-time accounting of
//! Proposition 2.
//!
//! Two entry points are provided: the convenient [`find_roots`] over
//! [`Poly`], and the serving-path [`find_roots_into`], which runs the same
//! algorithm over raw coefficient slices with every temporary drawn from a
//! reusable [`RootScratch`] — after warm-up it performs **zero heap
//! allocations**, which is what lets the query engine's session rebuilds be
//! allocation-free.

use crate::gf64::Gf64;
use crate::poly::Poly;

const FIELD_BITS: u32 = 64;

/// Reusable buffers for [`find_roots_into`].
///
/// All temporaries of the trace algorithm — the Frobenius power, trace
/// maps, gcd operands, the explicit recursion stack, and a pool of
/// recycled factor buffers — live here. A scratch that has already served
/// a polynomial of some degree serves any later polynomial of equal or
/// smaller degree without allocating.
#[derive(Debug, Default)]
pub struct RootScratch {
    /// Coefficient count of the longest input seen. Factor buffers trade
    /// places (pool order, the stack, the Euclid swap of `g` and `tr`), so
    /// each keeps at least this capacity; a warm scratch then never grows
    /// a buffer, whichever one a factor lands in.
    cap: usize,
    /// Recycled coefficient buffers for stack factors.
    pool: Vec<Vec<Gf64>>,
    /// Explicit recursion stack: (monic factor, first untried basis elt).
    stack: Vec<(Vec<Gf64>, u32)>,
    /// General modular-arithmetic temporary.
    tmp: Vec<Gf64>,
    /// Frobenius power table: `x^(2^i) mod σ` for `i = 0..=64`, flattened
    /// with stride `deg σ` (zero-padded). Built once per factor; every
    /// trace map against that factor is then a cheap linear combination,
    /// and the distinct-linear-factors test is the `F₆₄ = F₀` comparison.
    ftab: Vec<Gf64>,
    /// Accumulated trace map / Euclid operand.
    tr: Vec<Gf64>,
    /// gcd accumulator.
    g: Vec<Gf64>,
    /// Division quotient.
    quot: Vec<Gf64>,
}

impl RootScratch {
    /// Raises `cap` to `len` and gives the swapping gcd operands that
    /// capacity (their contents are dead between calls).
    fn reserve(&mut self, len: usize) {
        self.cap = self.cap.max(len);
        for buf in [&mut self.g, &mut self.tr] {
            buf.clear();
            buf.reserve(self.cap);
        }
    }

    /// An empty factor buffer with capacity `cap`.
    fn take_buf(&mut self) -> Vec<Gf64> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.reserve(self.cap);
        buf
    }

    fn drain_stack(&mut self) {
        while let Some((buf, _)) = self.stack.pop() {
            self.pool.push(buf);
        }
    }
}

// --- slice-level polynomial helpers -----------------------------------------
//
// All operate on *normalized* little-endian coefficient vectors: non-zero
// leading coefficient, the zero polynomial is the empty vector.

fn trim(v: &mut Vec<Gf64>) {
    while v.last().is_some_and(|c| c.is_zero()) {
        v.pop();
    }
}

/// Divides every coefficient by the leading one (no-op on zero/monic).
fn make_monic(v: &mut [Gf64]) {
    match v.last() {
        None => {}
        Some(l) if *l == Gf64::ONE => {}
        Some(l) => {
            let inv = l.inverse().expect("leading coeff nonzero");
            for c in v.iter_mut() {
                *c *= inv;
            }
        }
    }
}

/// The inverse of the leading coefficient of `m` (normalized, non-zero).
/// A monic divisor — every Frobenius-table squaring and the `h = σ / g`
/// split — skips the inversion.
fn lead_inverse(m: &[Gf64]) -> Gf64 {
    let lead = *m.last().expect("divisor is non-zero");
    if lead == Gf64::ONE {
        Gf64::ONE
    } else {
        lead.inverse().expect("leading coeff nonzero")
    }
}

/// `r ← r mod m` in place (`m` normalized, non-zero).
fn rem_in_place(r: &mut Vec<Gf64>, m: &[Gf64]) {
    let dm = m.len() - 1;
    let lead_inv = lead_inverse(m);
    let mut i = r.len();
    while i > dm {
        i -= 1;
        let c = r[i];
        if c.is_zero() {
            continue;
        }
        let q = c * lead_inv;
        for (j, &b) in m.iter().enumerate() {
            r[i - dm + j] += q * b; // char 2: subtraction == addition
        }
        debug_assert!(r[i].is_zero());
    }
    r.truncate(dm);
    trim(r);
}

/// `out ← src² mod m` (char-2 sparse squaring; `out` must not alias `src`).
fn square_mod_into(src: &[Gf64], m: &[Gf64], out: &mut Vec<Gf64>) {
    out.clear();
    if src.is_empty() {
        return;
    }
    out.resize(2 * src.len() - 1, Gf64::ZERO);
    for (i, &c) in src.iter().enumerate() {
        out[2 * i] = c.square();
    }
    rem_in_place(out, m);
}

/// Euclidean division in place: `num` becomes the remainder, `quot` the
/// quotient (`den` normalized, non-zero).
fn div_rem_in_place(num: &mut Vec<Gf64>, den: &[Gf64], quot: &mut Vec<Gf64>) {
    quot.clear();
    if num.len() < den.len() {
        return;
    }
    let dm = den.len() - 1;
    let lead_inv = lead_inverse(den);
    quot.resize(num.len() - dm, Gf64::ZERO);
    for i in (dm..num.len()).rev() {
        let c = num[i];
        if c.is_zero() {
            continue;
        }
        let q = c * lead_inv;
        quot[i - dm] = q;
        for (j, &b) in den.iter().enumerate() {
            num[i - dm + j] += q * b;
        }
    }
    num.truncate(dm);
    trim(num);
    trim(quot);
}

/// Builds the Frobenius power table `F_i = x^(2^i) mod σ` for
/// `i = 0..=64` into `s.ftab` (stride `d = deg σ`, zero-padded rows) and
/// returns whether `σ` is a product of *distinct* linear factors —
/// equivalent to `σ | x^(2⁶⁴) − x`, i.e. `F₆₄ = F₀`.
///
/// The table costs the same 64 modular squarings the splitting test cost
/// on its own, and turns every subsequent trace map against `σ` into a
/// linear combination: `Tr(βx) = Σ_i β^(2^i)·F_i` because
/// `(βx)^(2^i) = β^(2^i)·x^(2^i)`.
fn build_frobenius_table(sigma: &[Gf64], s: &mut RootScratch) -> bool {
    let d = sigma.len() - 1; // deg σ ≥ 2 here
    s.ftab.clear();
    s.ftab.resize((FIELD_BITS as usize + 1) * d, Gf64::ZERO);
    s.ftab[1] = Gf64::ONE; // F₀ = x, already reduced mod σ
    for i in 0..FIELD_BITS as usize {
        square_mod_into(&s.ftab[i * d..(i + 1) * d], sigma, &mut s.tmp);
        debug_assert!(s.tmp.len() <= d);
        s.ftab[(i + 1) * d..(i + 1) * d + s.tmp.len()].copy_from_slice(&s.tmp);
    }
    let last = &s.ftab[FIELD_BITS as usize * d..];
    last[1] == Gf64::ONE && last.iter().enumerate().all(|(i, c)| i == 1 || c.is_zero())
}

/// Computes the trace map `Tr(β·x) = Σ_{i<64} β^(2^i)·F_i` into `s.tr`
/// from the Frobenius table of the current factor (degree `d`).
fn trace_map_into(beta: Gf64, d: usize, s: &mut RootScratch) {
    s.tr.clear();
    s.tr.resize(d, Gf64::ZERO);
    let mut bp = beta;
    for i in 0..FIELD_BITS as usize {
        let row = &s.ftab[i * d..(i + 1) * d];
        for (t, &c) in s.tr.iter_mut().zip(row) {
            if !c.is_zero() {
                *t += bp * c;
            }
        }
        bp = bp.square();
    }
    trim(&mut s.tr);
}

/// Finds all roots (in GF(2⁶⁴)) of a *square-free* polynomial that splits
/// into distinct linear factors, deterministically — the scratch-reusing
/// entry point. Appends the roots (unsorted, distinct) to `roots` and
/// returns `true` when the polynomial is a product of `deg` distinct
/// linear factors; returns `false` (leaving `roots` empty) for the zero
/// polynomial or any polynomial with a repeated or irreducible non-linear
/// factor.
///
/// Allocation-free once `scratch` has warmed up to the polynomial degree.
pub fn find_roots_into(poly: &[Gf64], scratch: &mut RootScratch, roots: &mut Vec<Gf64>) -> bool {
    roots.clear();
    scratch.reserve(poly.len());
    let mut sigma = scratch.take_buf();
    sigma.extend_from_slice(poly);
    trim(&mut sigma);
    if sigma.is_empty() {
        scratch.pool.push(sigma);
        return false; // zero polynomial: no well-defined root set
    }
    let deg = sigma.len() - 1;
    if deg == 0 {
        scratch.pool.push(sigma);
        return true;
    }
    make_monic(&mut sigma);
    debug_assert!(scratch.stack.is_empty());
    scratch.stack.push((sigma, 0));
    while let Some((sigma, basis_from)) = scratch.stack.pop() {
        let d = sigma.len() - 1;
        if d == 1 {
            // Monic x + c₀ = 0 ⇒ root c₀ (char 2).
            roots.push(sigma[0]);
            scratch.pool.push(sigma);
            continue;
        }
        // One Frobenius table per factor serves the splitting test and
        // every trace map below; a factor with a repeated or irreducible
        // non-linear part fails here (cheaply, before any trace work).
        if !build_frobenius_table(&sigma, scratch) {
            scratch.pool.push(sigma);
            scratch.drain_stack();
            roots.clear();
            return false;
        }
        let mut split_at = None;
        for j in basis_from..FIELD_BITS {
            let beta = Gf64::X.pow(u64::from(j)); // polynomial basis 1, x, x², …
            trace_map_into(beta, d, scratch);
            // g = gcd(σ, tr): roots r of σ with Tr(β·r) = 0 are exactly
            // the common roots of σ and the trace map.
            scratch.g.clear();
            scratch.g.extend_from_slice(&sigma);
            while !scratch.tr.is_empty() {
                rem_in_place(&mut scratch.g, &scratch.tr);
                std::mem::swap(&mut scratch.g, &mut scratch.tr);
            }
            make_monic(&mut scratch.g);
            let gd = scratch.g.len().saturating_sub(1);
            if gd > 0 && gd < d {
                split_at = Some(j);
                break;
            }
        }
        let Some(j) = split_at else {
            // No basis element separates the roots ⇒ not a product of
            // distinct linear factors.
            scratch.pool.push(sigma);
            scratch.drain_stack();
            roots.clear();
            return false;
        };
        // h = σ / g; a basis element that failed to split σ is constant on
        // its root set, hence on every factor's — safe to advance
        // monotonically. Push h below g so g is processed first (depth
        // first, matching the recursive formulation).
        let mut g_buf = scratch.take_buf();
        g_buf.extend_from_slice(&scratch.g);
        let mut h_buf = sigma;
        div_rem_in_place(&mut h_buf, &g_buf, &mut scratch.quot);
        debug_assert!(h_buf.is_empty(), "g divides sigma exactly");
        // Monic ÷ monic: the quotient is monic already.
        h_buf.extend_from_slice(&scratch.quot);
        scratch.stack.push((h_buf, j + 1));
        scratch.stack.push((g_buf, j + 1));
    }
    debug_assert_eq!(roots.len(), deg);
    true
}

/// Finds all roots (in GF(2⁶⁴)) of a *square-free* polynomial that splits
/// into distinct linear factors, deterministically.
///
/// The error-locator polynomials handed to this function by the syndrome
/// decoder always satisfy both properties; for robustness the function also
/// behaves sensibly on other inputs: it returns the roots of the distinct
/// linear factors it can isolate and reports irreducible non-linear residues
/// via `None`.
///
/// Returns `Some(roots)` (unsorted, distinct) when the polynomial is a
/// product of `deg` distinct linear factors, `None` otherwise. Convenience
/// wrapper over [`find_roots_into`] with a throwaway [`RootScratch`].
///
/// # Example
///
/// ```
/// use ftc_field::{find_roots, Gf64, Poly};
///
/// let rs = [Gf64::new(0xabc), Gf64::new(0x123), Gf64::new(7)];
/// let sigma = Poly::from_roots(&rs);
/// let mut found = find_roots(&sigma).unwrap();
/// found.sort();
/// let mut want = rs.to_vec();
/// want.sort();
/// assert_eq!(found, want);
/// ```
pub fn find_roots(poly: &Poly) -> Option<Vec<Gf64>> {
    let deg = poly.degree()?; // zero polynomial: no well-defined root set
    let mut scratch = RootScratch::default();
    let mut roots = Vec::with_capacity(deg);
    find_roots_into(poly.coeffs(), &mut scratch, &mut roots).then_some(roots)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(x: u64) -> Gf64 {
        Gf64::new(x)
    }

    fn check_roundtrip(rs: &[Gf64]) {
        let sigma = Poly::from_roots(rs);
        let mut found = find_roots(&sigma).expect("splits into linear factors");
        found.sort();
        let mut want = rs.to_vec();
        want.sort();
        assert_eq!(found, want);
    }

    #[test]
    fn single_root() {
        check_roundtrip(&[g(42)]);
        check_roundtrip(&[g(0)]); // zero is a legitimate root value for generic polys
    }

    #[test]
    fn two_roots() {
        check_roundtrip(&[g(1), g(2)]);
        check_roundtrip(&[g(0xdead_beef), g(0xcafe_babe)]);
    }

    #[test]
    fn many_roots() {
        let rs: Vec<Gf64> = (1..=40u64).map(|i| g(i * 0x9e37_79b9 + 17)).collect();
        check_roundtrip(&rs);
    }

    #[test]
    fn high_degree_monic_and_non_monic() {
        // Degree ≥ 64: more roots than basis elements, deep split stacks,
        // and the monic (no-inversion) division path on every factor.
        let rs: Vec<Gf64> = (1..=70u64)
            .map(|i| g(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i << 3))
            .collect();
        check_roundtrip(&rs);
        let p = Poly::from_roots(&rs).scale(g(0xfeed_beef_1234));
        let mut found = find_roots(&p).expect("non-monic input splits");
        found.sort();
        let mut want = rs.clone();
        want.sort();
        assert_eq!(found, want);
    }

    #[test]
    fn adversarial_close_roots() {
        // Roots differing in a single high bit exercise late basis elements.
        check_roundtrip(&[g(0x8000_0000_0000_0001), g(0x0000_0000_0000_0001)]);
        check_roundtrip(&[g(1), g(3), g(5), g(7), g(9)]);
    }

    #[test]
    fn constant_poly_has_no_roots() {
        assert_eq!(find_roots(&Poly::one()), Some(vec![]));
        assert_eq!(find_roots(&Poly::zero()), None);
    }

    #[test]
    fn repeated_roots_rejected() {
        let p = Poly::from_roots(&[g(5), g(5)]);
        assert_eq!(find_roots(&p), None);
    }

    #[test]
    fn irreducible_quadratic_rejected() {
        // x² + x + c is irreducible whenever Tr(c) = 1; find such a c.
        let mut c = g(2);
        while c.trace() == 0 {
            c = c * g(3) + Gf64::ONE;
        }
        let p = Poly::from_coeffs(vec![c, Gf64::ONE, Gf64::ONE]);
        assert_eq!(find_roots(&p), None);
    }

    #[test]
    fn non_monic_inputs_are_normalized() {
        let rs = [g(10), g(20), g(30)];
        let p = Poly::from_roots(&rs).scale(g(0x1234));
        let mut found = find_roots(&p).unwrap();
        found.sort();
        let mut want = rs.to_vec();
        want.sort();
        assert_eq!(found, want);
    }

    #[test]
    fn scratch_reuse_matches_fresh_across_shapes() {
        // One scratch over alternating degrees, split failures, and
        // repeated-root rejections: every call must agree with a fresh run.
        let mut scratch = RootScratch::default();
        let mut out = Vec::new();
        let cases: Vec<Poly> = vec![
            Poly::from_roots(&[g(7)]),
            Poly::from_roots(&(1..=12u64).map(|i| g(i * 0xabc + 5)).collect::<Vec<_>>()),
            Poly::from_roots(&[g(5), g(5)]),
            Poly::from_roots(&[g(3), g(1 << 63)]),
            Poly::zero(),
            Poly::one(),
            Poly::from_roots(
                &(1..=20u64)
                    .map(|i| g(i.wrapping_mul(0x9e37)))
                    .collect::<Vec<_>>(),
            ),
        ];
        for p in &cases {
            let ok = find_roots_into(p.coeffs(), &mut scratch, &mut out);
            match find_roots(p) {
                None => assert!(!ok, "scratch accepted what fresh rejected: {p:?}"),
                Some(mut want) => {
                    assert!(ok, "scratch rejected what fresh accepted: {p:?}");
                    let mut got = out.clone();
                    got.sort();
                    want.sort();
                    assert_eq!(got, want);
                }
            }
            assert!(scratch.stack.is_empty(), "stack leaked for {p:?}");
        }
    }

    #[test]
    fn scratch_failure_paths_recycle_buffers() {
        let mut scratch = RootScratch::default();
        let mut out = Vec::new();
        // Warm up on a successful split, then fail, then succeed again.
        let good = Poly::from_roots(&[g(1), g(2), g(3), g(4)]);
        let bad = Poly::from_roots(&[g(9), g(9), g(10)]);
        assert!(find_roots_into(good.coeffs(), &mut scratch, &mut out));
        assert!(!find_roots_into(bad.coeffs(), &mut scratch, &mut out));
        assert!(out.is_empty());
        assert!(find_roots_into(good.coeffs(), &mut scratch, &mut out));
        assert_eq!(out.len(), 4);
    }
}
