//! Deterministic root finding over GF(2⁶⁴), restricted to a subspace.
//!
//! The paper's deterministic outdetect labeling needs a *deterministic*
//! way to recover the set of outgoing-edge IDs from the error-locator
//! polynomial produced by Berlekamp–Massey. A Chien search over the
//! 2⁶⁴-element field is intractable, and Cantor–Zassenhaus is randomized.
//! The finder here is deterministic and searches only a GF(2)-subspace
//! `V` spanned by single bits ([`Subspace`]) — edge IDs are packed vertex
//! numbers, so they lie in a small such subspace — with `V` the whole
//! field as the `D = 64` case of the same code:
//!
//! * **Split test.** `V`'s subspace polynomial
//!   `L_V(x) = ∏_{v ∈ V} (x − v)` is *linearized*:
//!   `L_V(x) = Σ_{i ≤ D} aᵢ·x^(2^i)` with `D = dim V`. A polynomial `σ`
//!   divides `L_V` exactly when it is a product of distinct linear
//!   factors with every root in `V`, and modulo `σ`, `L_V` is the
//!   combination `Σ aᵢ·Fᵢ` of the Frobenius rows `Fᵢ = x^(2^i) mod σ`. So
//!   the test costs `D` squarings mod `σ` (for `V` the whole field it is
//!   the classical `σ | x^(2⁶⁴) − x`).
//! * **Splitting.** For basis vector `e_j`, let `W_j` be `V` without it.
//!   The coordinate map `P_j = L_{W_j} / L_{W_j}(e_j)` is linearized,
//!   vanishes on `W_j` and is 1 at `e_j`, so `P_j(v)` is `v`'s bit at
//!   `e_j`. Once every root is known to lie in `V`, `P_j mod σ` is 0 or 1
//!   at each root, so a non-constant `P_j mod σ` always splits `σ`, and
//!   `gcd(σ, P_j mod σ)` collects the roots with that bit clear. Each
//!   `P_j mod σ` is again a combination of `F₀..F_{D−1}`.
//!
//! The q-coefficients of `L_V` and of every `P_j` cost O(D³) field
//! operations, once per subspace. Per factor of degree `deg` the table
//! costs O(D·deg²) and each basis try O(D·deg + deg²) — Õ(deg²) for fixed
//! `D`, the decoding-time accounting of Proposition 2.
//!
//! Two entry points are provided: the convenient [`find_roots`] over
//! [`Poly`] (the whole field), and the serving-path [`find_roots_into`],
//! which takes the subspace and draws every temporary from a reusable
//! [`RootScratch`] — after warm-up it performs **zero heap
//! allocations**, which is what lets the query engine's session rebuilds
//! be allocation-free.

use crate::gf64::Gf64;
use crate::poly::Poly;
use std::sync::OnceLock;

/// A GF(2)-subspace `V` of GF(2⁶⁴) spanned by single bits, with the
/// q-coefficient tables [`find_roots_into`] tests and splits with.
///
/// Basis vector `j` is the `j`-th lowest set bit of the mask. Building
/// the tables costs O(D³) field operations for `D = dim V` (a few
/// milliseconds at `D = 64`), so callers build each subspace once and
/// share it — [`Subspace::full`] is the process-wide whole field.
#[derive(Clone, Debug)]
pub struct Subspace {
    mask: u64,
    /// `L_V(x) = Σ_{i ≤ D} lv[i]·x^(2^i)`, with `lv[D] = 1`.
    lv: Vec<Gf64>,
    /// Row `j` (stride `D`): the q-coefficients of the coordinate map
    /// `P_j`, of q-degree `D − 1`.
    coord: Vec<Gf64>,
}

impl Subspace {
    /// The span of the bits set in `mask`, with its tables.
    pub fn from_mask(mask: u64) -> Subspace {
        let basis: Vec<Gf64> = (0..64)
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| Gf64::new(1 << i))
            .collect();
        let lv = subspace_poly(basis.iter().copied());
        let mut coord = Vec::with_capacity(basis.len() * basis.len());
        for (j, &e) in basis.iter().enumerate() {
            let w = subspace_poly(
                basis
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != j)
                    .map(|(_, &v)| v),
            );
            let at_e = eval_linearized(&w, e)
                .inverse()
                .expect("e_j lies outside W_j, so L_{W_j}(e_j) is nonzero");
            coord.extend(w.iter().map(|&c| c * at_e));
        }
        Subspace { mask, lv, coord }
    }

    /// The whole field (`D = 64`), built once per process.
    pub fn full() -> &'static Subspace {
        static FULL: OnceLock<Subspace> = OnceLock::new();
        FULL.get_or_init(|| Subspace::from_mask(u64::MAX))
    }

    /// The bits spanning `V`.
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// `D = dim V`.
    pub fn dim(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Whether `x ∈ V`.
    pub fn contains(&self, x: Gf64) -> bool {
        x.to_bits() & !self.mask == 0
    }

    /// Evaluates the coordinate map `P_j` at `x`: for `x ∈ V`, the bit of
    /// `x` at basis vector `j` (the `j`-th lowest set bit of the mask).
    ///
    /// # Panics
    ///
    /// Panics if `j ≥ D`.
    pub fn coordinate(&self, j: usize, x: Gf64) -> Gf64 {
        assert!(j < self.dim(), "basis index out of range");
        eval_linearized(self.coord_row(j), x)
    }

    /// The lowest basis index `j ≥ from` whose bit is set in `x`.
    fn lowest_coordinate(&self, x: Gf64, from: usize) -> Option<usize> {
        let mut free = self.mask;
        for _ in 0..from {
            free &= free.wrapping_sub(1); // clear the lowest basis bit
        }
        let bits = x.to_bits() & free;
        (bits != 0)
            .then(|| (self.mask & ((1u64 << bits.trailing_zeros()) - 1)).count_ones() as usize)
    }

    fn coord_row(&self, j: usize) -> &[Gf64] {
        let d = self.dim();
        &self.coord[j * d..(j + 1) * d]
    }
}

/// `Σ q[i]·x^(2^i)`: evaluates a linearized polynomial from its
/// q-coefficients.
fn eval_linearized(q: &[Gf64], x: Gf64) -> Gf64 {
    let mut acc = Gf64::ZERO;
    let mut p = x;
    for &c in q {
        acc += c * p;
        p = p.square();
    }
    acc
}

/// The q-coefficients of the subspace polynomial of `span(basis)`
/// (independent vectors), one vector at a time:
/// `L_{U+⟨e⟩}(x) = L_U(x)·L_U(x + e) = L_U(x)² + L_U(e)·L_U(x)`.
fn subspace_poly(basis: impl Iterator<Item = Gf64>) -> Vec<Gf64> {
    let mut q = vec![Gf64::ONE]; // L_{0}(x) = x
    for e in basis {
        let c = eval_linearized(&q, e);
        q.push(Gf64::ZERO);
        for i in (0..q.len()).rev() {
            let shifted = if i > 0 { q[i - 1].square() } else { Gf64::ZERO };
            q[i] = shifted + c * q[i];
        }
    }
    q
}

/// Reusable buffers for [`find_roots_into`].
///
/// All temporaries of the root finder — the Frobenius rows, the
/// coordinate maps, gcd operands, the explicit recursion stack, and a pool
/// of recycled factor buffers — live here. A scratch that has already
/// served a polynomial of some degree in a subspace of some dimension
/// serves any later polynomial of equal or smaller degree, in a subspace
/// of equal or smaller dimension, without allocating.
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
    /// Frobenius rows `x^(2^i) mod σ`, flattened with stride `deg σ`
    /// (zero-padded): `D + 1` rows for the split test, `D` for each later
    /// factor's coordinate maps.
    ftab: Vec<Gf64>,
    /// Split-test remainder, coordinate map, Euclid operand.
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

/// `r ← r mod m` in place (`m` normalized and monic: every Frobenius
/// squaring and the `h = σ / g` split divide by a monic factor).
fn rem_monic_in_place(r: &mut Vec<Gf64>, m: &[Gf64]) {
    debug_assert_eq!(m.last(), Some(&Gf64::ONE), "divisor is monic");
    let dm = m.len() - 1;
    let mut i = r.len();
    while i > dm {
        i -= 1;
        let q = r[i];
        if q.is_zero() {
            continue;
        }
        for (j, &b) in m.iter().enumerate() {
            r[i - dm + j] += q * b; // char 2: subtraction == addition
        }
        debug_assert!(r[i].is_zero());
    }
    r.truncate(dm);
    trim(r);
}

/// `r ← c·r mod m` for some non-zero scalar `c` (`m` normalized,
/// non-zero). Euclid needs remainders only up to a unit, so scaling `r`
/// by `lead(m)` at each step stands in for the inverse of `lead(m)`.
fn rem_scaled_in_place(r: &mut Vec<Gf64>, m: &[Gf64]) {
    let dm = m.len() - 1;
    let lead = m[dm];
    while r.len() > dm {
        let i = r.len() - 1;
        let c = r[i];
        if lead != Gf64::ONE {
            for t in r[..i].iter_mut() {
                *t *= lead;
            }
        }
        // lead·r + c·x^(i−dm)·m cancels the top coefficient.
        for (j, &b) in m[..dm].iter().enumerate() {
            r[i - dm + j] += c * b;
        }
        r.pop();
        trim(r);
    }
}

/// `out ← src² mod m` (char-2 sparse squaring; `m` monic, `out` must not
/// alias `src`).
fn square_mod_into(src: &[Gf64], m: &[Gf64], out: &mut Vec<Gf64>) {
    out.clear();
    if src.is_empty() {
        return;
    }
    out.resize(2 * src.len() - 1, Gf64::ZERO);
    for (i, &c) in src.iter().enumerate() {
        out[2 * i] = c.square();
    }
    rem_monic_in_place(out, m);
}

/// Euclidean division in place by a monic `den`: `num` becomes the
/// remainder, `quot` the quotient.
fn div_rem_monic_in_place(num: &mut Vec<Gf64>, den: &[Gf64], quot: &mut Vec<Gf64>) {
    debug_assert_eq!(den.last(), Some(&Gf64::ONE), "divisor is monic");
    quot.clear();
    if num.len() < den.len() {
        return;
    }
    let dm = den.len() - 1;
    quot.resize(num.len() - dm, Gf64::ZERO);
    for i in (dm..num.len()).rev() {
        let q = num[i];
        if q.is_zero() {
            continue;
        }
        quot[i - dm] = q;
        for (j, &b) in den.iter().enumerate() {
            num[i - dm + j] += q * b;
        }
    }
    num.truncate(dm);
    trim(num);
    trim(quot);
}

/// Builds the Frobenius rows `F_i = x^(2^i) mod σ` for `i < rows` into
/// `s.ftab` (stride `d = deg σ ≥ 2`, zero-padded rows). Every map this
/// module needs modulo `σ` is a linear combination of them, because
/// `(βx)^(2^i) = β^(2^i)·x^(2^i)` makes every linearized polynomial
/// `Σ qᵢ·x^(2^i)` reduce to `Σ qᵢ·Fᵢ`.
fn build_frobenius_rows(sigma: &[Gf64], rows: usize, s: &mut RootScratch) {
    let d = sigma.len() - 1;
    s.ftab.clear();
    s.ftab.resize(rows * d, Gf64::ZERO);
    s.ftab[1] = Gf64::ONE; // F₀ = x, already reduced mod σ
    for i in 1..rows {
        square_mod_into(&s.ftab[(i - 1) * d..i * d], sigma, &mut s.tmp);
        debug_assert!(s.tmp.len() <= d);
        s.ftab[i * d..i * d + s.tmp.len()].copy_from_slice(&s.tmp);
    }
}

/// `out ← Σ_i q[i]·F_i` over the Frobenius rows of stride `d`: the
/// linearized polynomial with q-coefficients `q`, reduced mod `σ`.
fn combine_rows_into(q: &[Gf64], d: usize, ftab: &[Gf64], out: &mut Vec<Gf64>) {
    out.clear();
    out.resize(d, Gf64::ZERO);
    for (&a, row) in q.iter().zip(ftab.chunks_exact(d)) {
        if a.is_zero() {
            continue;
        }
        for (t, &c) in out.iter_mut().zip(row) {
            if !c.is_zero() {
                *t += a * c;
            }
        }
    }
    trim(out);
}

/// Finds all roots of a polynomial whose roots are distinct and all lie
/// in `space`, deterministically — the scratch-reusing entry point.
/// Appends the roots (unsorted, distinct) to `roots` and returns `true`
/// when the polynomial is a product of `deg` distinct linear factors
/// `x − r` with every `r ∈ space`; returns `false` (leaving `roots`
/// empty) for the zero polynomial, any polynomial with a repeated or
/// irreducible non-linear factor, and any polynomial with a root outside
/// `space`.
///
/// Allocation-free once `scratch` has warmed up to the polynomial degree.
pub fn find_roots_into(
    poly: &[Gf64],
    space: &Subspace,
    scratch: &mut RootScratch,
    roots: &mut Vec<Gf64>,
) -> bool {
    roots.clear();
    scratch.reserve(poly.len());
    let mut sigma = scratch.take_buf();
    sigma.extend_from_slice(poly);
    trim(&mut sigma);
    let Some(deg) = sigma.len().checked_sub(1) else {
        scratch.pool.push(sigma);
        return false; // zero polynomial: no well-defined root set
    };
    make_monic(&mut sigma);
    if deg <= 1 {
        // Monic x + c₀ = 0 ⇒ root c₀ (char 2); a constant has no roots.
        let ok = deg == 0 || space.contains(sigma[0]);
        if deg == 1 && ok {
            roots.push(sigma[0]);
        }
        scratch.pool.push(sigma);
        return ok;
    }
    // σ | L_V, tested on D + 1 Frobenius rows that then serve σ's own
    // coordinate maps; a factor with a repeated, irreducible non-linear
    // or out-of-V part fails here, before any gcd.
    let dim = space.dim();
    build_frobenius_rows(&sigma, dim + 1, scratch);
    combine_rows_into(&space.lv, deg, &scratch.ftab, &mut scratch.tr);
    if !scratch.tr.is_empty() {
        scratch.pool.push(sigma);
        return false;
    }
    debug_assert!(scratch.stack.is_empty());
    scratch.stack.push((sigma, 0));
    let mut rows_ready = true;
    while let Some((sigma, basis_from)) = scratch.stack.pop() {
        let d = sigma.len() - 1;
        if d == 1 {
            roots.push(sigma[0]);
            scratch.pool.push(sigma);
            continue;
        }
        // Factors of a divisor of L_V divide L_V: only the first needs
        // the test, and each later one needs just its D rows.
        if !std::mem::take(&mut rows_ready) {
            build_frobenius_rows(&sigma, dim, scratch);
        }
        // `tr = P_j mod σ` is 0 or 1 at every root of σ, so a constant
        // `tr` means the roots agree on coordinate j, and any other takes
        // both values and splits σ. Coordinates below `basis_from` are
        // constant on σ's roots. With d even, a free coordinate set in
        // the roots' sum σ_{d−1} has an odd — so partial — count of roots
        // with that bit: a sure split, after which the coordinates
        // skipped over are still untried. Otherwise free coordinates are
        // tried in order; each that fails is constant on σ's roots, hence
        // on every factor's.
        let from = basis_from as usize;
        let mut coordinate_map = |j: usize| {
            combine_rows_into(space.coord_row(j), d, &scratch.ftab, &mut scratch.tr);
            scratch.tr.len() >= 2
        };
        let sure = (d % 2 == 0)
            .then(|| space.lowest_coordinate(sigma[d - 1], from))
            .flatten();
        let next_from = if sure.is_some_and(&mut coordinate_map) {
            Some(from)
        } else {
            (from..dim).find(|&j| coordinate_map(j)).map(|j| j + 1)
        };
        let Some(next_from) = next_from else {
            // Distinct roots in V differ in some coordinate, so this only
            // happens for inputs that slipped past the split test.
            scratch.pool.push(sigma);
            scratch.drain_stack();
            roots.clear();
            return false;
        };
        // g = gcd(σ, P_j mod σ): the roots with bit j clear.
        scratch.g.clear();
        scratch.g.extend_from_slice(&sigma);
        while !scratch.tr.is_empty() {
            rem_scaled_in_place(&mut scratch.g, &scratch.tr);
            std::mem::swap(&mut scratch.g, &mut scratch.tr);
        }
        make_monic(&mut scratch.g);
        debug_assert!(scratch.g.len() >= 2 && scratch.g.len() <= d);
        // h = σ / g. Push h below g so g is processed first (depth first,
        // matching the recursive formulation).
        let mut g_buf = scratch.take_buf();
        g_buf.extend_from_slice(&scratch.g);
        let mut h_buf = sigma;
        div_rem_monic_in_place(&mut h_buf, &g_buf, &mut scratch.quot);
        debug_assert!(h_buf.is_empty(), "g divides sigma exactly");
        // Monic ÷ monic: the quotient is monic already.
        h_buf.extend_from_slice(&scratch.quot);
        let next_from = next_from as u32;
        scratch.stack.push((h_buf, next_from));
        scratch.stack.push((g_buf, next_from));
    }
    debug_assert_eq!(roots.len(), deg);
    true
}

/// Finds all roots (in GF(2⁶⁴)) of a *square-free* polynomial that splits
/// into distinct linear factors, deterministically.
///
/// The error-locator polynomials handed to this function by the syndrome
/// decoder always satisfy both properties; for robustness the function also
/// behaves sensibly on other inputs, reporting a repeated or irreducible
/// non-linear factor via `None`.
///
/// Returns `Some(roots)` (unsorted, distinct) when the polynomial is a
/// product of `deg` distinct linear factors, `None` otherwise. Convenience
/// wrapper over [`find_roots_into`] on [`Subspace::full`] with a throwaway
/// [`RootScratch`].
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
    find_roots_into(poly.coeffs(), Subspace::full(), &mut scratch, &mut roots).then_some(roots)
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
            let ok = find_roots_into(p.coeffs(), Subspace::full(), &mut scratch, &mut out);
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
        assert!(find_roots_into(
            good.coeffs(),
            Subspace::full(),
            &mut scratch,
            &mut out
        ));
        assert!(!find_roots_into(
            bad.coeffs(),
            Subspace::full(),
            &mut scratch,
            &mut out
        ));
        assert!(out.is_empty());
        assert!(find_roots_into(
            good.coeffs(),
            Subspace::full(),
            &mut scratch,
            &mut out
        ));
        assert_eq!(out.len(), 4);
    }
}
