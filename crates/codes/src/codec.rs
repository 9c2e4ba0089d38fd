//! The k-threshold outdetect codec (paper Proposition 2 + Appendix B).
//!
//! A [`ThresholdCodec`] with threshold `k` assigns each edge ID
//! `x ∈ GF(2⁶⁴)∖{0}` the parity row `(x¹, x², …, x^{2k})`. XOR-accumulating
//! rows over any edge multiset yields the power sums of the edges appearing
//! an odd number of times; decoding recovers that set exactly whenever its
//! size is at most `k`.
//!
//! Decoding is *verified*: after Berlekamp–Massey and deterministic root
//! finding, the recovered set's power sums are recomputed and compared
//! against a syndrome prefix long enough for the Vandermonde guarantee —
//! the entire syndrome for full-threshold decodes, the first `k′ + k`
//! entries at adaptive ladder step `k′`. The exactness guarantee is the
//! Vandermonde one: if a recovered set `R` (|R| ≤ k′) verifies against `L`
//! syndromes and the true set `T` satisfies `|R| + |T| ≤ L`, then
//! `R = T` (the binary symmetric difference `R △ T` has ≤ L elements and
//! vanishing power sums `1..L`, forcing it empty); with the scheme's
//! `|T| ≤ k` topmost-level invariant, `L = k′ + k` suffices. In particular a decode
//! is provably exact whenever `|T| ≤ k`, which is all the paper's
//! Proposition 2 promises — beyond the threshold the output is explicitly
//! unspecified, and indeed in characteristic two an overloaded syndrome
//! *frequently* verifies against a smaller phantom set: the even power sums
//! carry no extra information (`p_{2j} = p_j²`), and the Frobenius
//! consistency of any genuine binary syndrome forces all exponential-fit
//! coefficients of a BM-fitted candidate into `{0, 1}`. The good-hierarchy
//! invariant is what keeps the *scheme* exact: at the topmost non-empty
//! level the boundary size is at most `k`. Callers running with calibrated
//! (below-theory) thresholds must sanity-check decoded edge IDs downstream,
//! which the query engine does.
//!
//! Root finding runs on the reversed locator `z^l·Λ(1/z) = ∏(z − x_e)`:
//! monic, with the edge IDs themselves as roots, so no inversion is
//! needed. It searches only the [`Subspace`] the caller's IDs lie in
//! (the whole field for [`ThresholdCodec::decode`] and
//! [`ThresholdCodec::decode_adaptive`]), so a candidate set leaving it
//! is rejected at its rung. Decoded sets come out in one fixed order,
//! independent of how the roots were found.

use crate::bm::{berlekamp_massey_into, BmScratch};
use ftc_field::{find_roots_into, Gf64, RootScratch, Subspace};
use std::fmt;

/// Reusable buffers for [`ThresholdCodec::decode_adaptive_into`] (and the
/// other scratch-based decode paths): the Berlekamp–Massey state, the
/// reversed locator, the root-finder's [`RootScratch`], the candidate edge
/// set, the power-sum verification buffer and the output-order keys. A
/// warm scratch makes a verified decode completely allocation-free, which
/// is what the query engine's session-rebuild hot path relies on.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    bm: BmScratch,
    /// The reversed locator `z^l·Λ(1/z)`.
    locator: Vec<Gf64>,
    roots: RootScratch,
    /// Candidate edge IDs: the roots of the reversed locator.
    edges: Vec<Gf64>,
    /// Running powers for [`ThresholdCodec::check_power_sums`].
    powers: Vec<Gf64>,
    /// Prefix products, then `(order key, edge ID)` pairs, for
    /// [`ThresholdCodec::put_in_output_order`].
    keyed: Vec<(u64, Gf64)>,
}

/// Errors reported by syndrome decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The syndrome is not consistent with any edge set of size ≤ k — the
    /// boundary exceeded the codec threshold.
    ThresholdExceeded,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::ThresholdExceeded => {
                write!(f, "syndrome inconsistent: boundary exceeds codec threshold")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// The k-threshold outdetect codec over GF(2⁶⁴).
///
/// See the crate-level docs for an example.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThresholdCodec {
    k: usize,
}

impl ThresholdCodec {
    /// Creates a codec with detection threshold `k ≥ 1` (labels carry `2k`
    /// field elements).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> ThresholdCodec {
        assert!(k >= 1, "threshold must be at least 1");
        ThresholdCodec { k }
    }

    /// The detection threshold `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of field elements per label (`2k`).
    pub fn syndrome_len(&self) -> usize {
        2 * self.k
    }

    /// Label size in bits (`2k` 64-bit field elements).
    pub fn label_bits(&self) -> usize {
        self.syndrome_len() * 64
    }

    /// An all-zero syndrome (the label of an isolated vertex / the *formal
    /// zero* of an empty boundary).
    pub fn zero_syndrome(&self) -> Vec<Gf64> {
        vec![Gf64::ZERO; self.syndrome_len()]
    }

    /// The parity row of edge `id`: `(id¹, id², …, id^{2k})`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is zero (zero is the reserved formal-zero value).
    pub fn edge_row(&self, id: Gf64) -> Vec<Gf64> {
        assert!(!id.is_zero(), "edge IDs must be nonzero field elements");
        let mut out = Vec::with_capacity(self.syndrome_len());
        let mut p = Gf64::ONE;
        for _ in 0..self.syndrome_len() {
            p *= id;
            out.push(p);
        }
        out
    }

    /// XOR-accumulates the parity row of `id` into `syndrome`.
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length does not match or `id` is zero.
    pub fn accumulate_edge(&self, syndrome: &mut [Gf64], id: Gf64) {
        assert_eq!(
            syndrome.len(),
            self.syndrome_len(),
            "syndrome length mismatch"
        );
        assert!(!id.is_zero(), "edge IDs must be nonzero field elements");
        let mut p = Gf64::ONE;
        for slot in syndrome.iter_mut() {
            p *= id;
            *slot += p;
        }
    }

    /// Writes the parity row of `id` into a caller-provided buffer
    /// (overwriting it) — the allocation-free sibling of
    /// [`ThresholdCodec::edge_row`]. Callers that accumulate the same edge
    /// into several syndromes (both endpoints of a subdivided edge, say)
    /// compute the `2k` powers once and XOR the row in, instead of paying
    /// the multiplication chain per destination.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != 2k` or `id` is zero.
    pub fn fill_edge_row(&self, row: &mut [Gf64], id: Gf64) {
        assert_eq!(row.len(), self.syndrome_len(), "row length mismatch");
        assert!(!id.is_zero(), "edge IDs must be nonzero field elements");
        let mut p = Gf64::ONE;
        for slot in row.iter_mut() {
            p *= id;
            *slot = p;
        }
    }

    /// XOR of two syndromes (the label of a union of disjoint vertex sets).
    pub fn xor_into(dst: &mut [Gf64], src: &[Gf64]) {
        assert_eq!(dst.len(), src.len(), "syndrome length mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            *d += *s;
        }
    }

    /// `true` iff every entry is zero — i.e. the boundary is empty
    /// (*formal zero*).
    pub fn is_zero_syndrome(syndrome: &[Gf64]) -> bool {
        syndrome.iter().all(|s| s.is_zero())
    }

    /// Full-threshold verified decode: recovers the odd-multiplicity edge
    /// set encoded in `syndrome`, which must be exact whenever that set has
    /// size ≤ `k`. Returns the empty vector for an all-zero syndrome.
    /// Edge IDs may be any non-zero field elements.
    ///
    /// # Errors
    ///
    /// [`DecodeError::ThresholdExceeded`] when the syndrome is inconsistent
    /// with every edge set of size ≤ `k`.
    ///
    /// # Panics
    ///
    /// Panics if `syndrome.len() != 2k`.
    pub fn decode(&self, syndrome: &[Gf64]) -> Result<Vec<Gf64>, DecodeError> {
        assert_eq!(
            syndrome.len(),
            self.syndrome_len(),
            "syndrome length mismatch"
        );
        let mut scratch = DecodeScratch::default();
        let mut out = Vec::new();
        Self::decode_prefix_into(
            syndrome,
            self.k,
            syndrome,
            Subspace::full(),
            &mut scratch,
            &mut out,
        )?;
        Ok(out)
    }

    /// Adaptive verified decode (Appendix B): tries thresholds
    /// `k' = 1, 2, 4, …` on syndrome *prefixes* — each prefix is exactly an
    /// RS(k′) syndrome by Proposition 6 — and verifies every candidate
    /// against the full syndrome. Cost is Õ(t²) + O(t·k) verification for a
    /// boundary of size `t`, independent of `k`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::ThresholdExceeded`] when no threshold up to `k`
    /// yields a verified decode.
    ///
    /// # Panics
    ///
    /// Panics if `syndrome.len() != 2k`.
    pub fn decode_adaptive(&self, syndrome: &[Gf64]) -> Result<Vec<Gf64>, DecodeError> {
        let mut scratch = DecodeScratch::default();
        let mut out = Vec::new();
        self.decode_adaptive_into(syndrome, Subspace::full(), &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Adaptive verified decode into a caller-provided buffer, for edge
    /// IDs known to lie in `space`: with [`Subspace::full`] identical
    /// semantics to [`ThresholdCodec::decode_adaptive`]; with a smaller
    /// space, a rung whose candidate set leaves `space` is rejected at
    /// that rung (no genuine boundary has such a set) and the ladder
    /// climbs on. Every temporary (Berlekamp–Massey state, root-finder
    /// polynomials, candidate sets, verification powers) is drawn from
    /// `scratch`, and the decoded edge IDs land in `out` (cleared first).
    /// Once the scratch is warm the whole decode performs **zero heap
    /// allocations** — this is the serving-path variant the query engine
    /// uses.
    ///
    /// # Errors
    ///
    /// [`DecodeError::ThresholdExceeded`] when no threshold up to `k`
    /// yields a verified decode.
    ///
    /// # Panics
    ///
    /// Panics if `syndrome.len() != 2k`.
    pub fn decode_adaptive_into(
        &self,
        syndrome: &[Gf64],
        space: &Subspace,
        scratch: &mut DecodeScratch,
        out: &mut Vec<Gf64>,
    ) -> Result<(), DecodeError> {
        assert_eq!(
            syndrome.len(),
            self.syndrome_len(),
            "syndrome length mismatch"
        );
        out.clear();
        if Self::is_zero_syndrome(syndrome) {
            return Ok(());
        }
        let mut k_try = 1usize;
        loop {
            // Verifying against the first `k_try + k` power sums is enough
            // for the exactness guarantee: a candidate `R` with
            // `|R| ≤ k_try` and the true set `T` with `|T| ≤ k` give
            // `|R △ T| ≤ k_try + k`, so vanishing power sums
            // `1..k_try + k` force `R = T` (the Vandermonde argument of
            // the module docs, instantiated at the ladder step). Beyond
            // `|T| > k` the output is unspecified either way and the
            // query engine's sanity checks take over.
            let verify = &syndrome[..(k_try + self.k).min(syndrome.len())];
            // The syndrome is nonzero, so a genuine decode is non-empty;
            // an empty "success" can only mean the verify prefix happened
            // to vanish — keep climbing the ladder.
            let prefix = &syndrome[..2 * k_try];
            if Self::decode_prefix_into(prefix, k_try, verify, space, scratch, out).is_ok()
                && !out.is_empty()
            {
                return Ok(());
            }
            if k_try == self.k {
                return Err(DecodeError::ThresholdExceeded);
            }
            k_try = (k_try * 2).min(self.k);
        }
    }

    /// Decodes a `2k'`-element syndrome prefix and verifies the result
    /// against `full` (which may be longer). The decoded set lands in
    /// `out` (cleared first); on error `out` is left empty.
    fn decode_prefix_into(
        prefix: &[Gf64],
        k_eff: usize,
        full: &[Gf64],
        space: &Subspace,
        scratch: &mut DecodeScratch,
        out: &mut Vec<Gf64>,
    ) -> Result<(), DecodeError> {
        out.clear();
        if Self::is_zero_syndrome(full) {
            return Ok(());
        }
        let l = berlekamp_massey_into(prefix, &mut scratch.bm);
        // For a decodable syndrome the locator has degree exactly L.
        if l == 0 || l > k_eff || scratch.bm.c.len() != l + 1 {
            return Err(DecodeError::ThresholdExceeded);
        }
        // A candidate that verifies has power sums equal to `full`, and
        // power sums of an `l`-set obey its locator's recurrence at every
        // index ≥ `l`. The locator generates `prefix` by construction, and
        // `prefix.len() = 2k′ ≥ 2l > l`, so a locator that fails at the
        // first index past the prefix can only fail verification: reject
        // it before paying for the root find. The first index rejects
        // nearly every such rung; the rest of the tail is left to the
        // verification, which checks it anyway.
        if !Self::generates_at(&scratch.bm.c, prefix.len(), full) {
            return Err(DecodeError::ThresholdExceeded);
        }
        // Λ(z) = ∏(1 − x_e z) has c₀ = 1 and, at degree exactly l, c_l ≠ 0,
        // so the reversed locator z^l·Λ(1/z) = ∏(z − x_e) is monic with a
        // non-zero constant term: its roots are the edge IDs themselves.
        scratch.locator.clear();
        scratch.locator.extend(scratch.bm.c.iter().rev());
        if !find_roots_into(
            &scratch.locator,
            space,
            &mut scratch.roots,
            &mut scratch.edges,
        ) {
            return Err(DecodeError::ThresholdExceeded);
        }
        if scratch.edges.len() != l {
            return Err(DecodeError::ThresholdExceeded);
        }
        debug_assert!(scratch.edges.iter().all(|e| !e.is_zero()));
        if Self::check_power_sums(&scratch.edges, full, &mut scratch.powers) {
            Self::put_in_output_order(&mut scratch.edges, &mut scratch.keyed);
            out.extend_from_slice(&scratch.edges);
            Ok(())
        } else {
            Err(DecodeError::ThresholdExceeded)
        }
    }

    /// Whether the connection polynomial `c` (with `c₀ = 1`) generates
    /// `s[at]`: `s_at + Σ_{j=1..deg c} c_j · s_{at−j} = 0` (requires
    /// `at ≥ deg c`). Vacuously true past the end of `s`.
    fn generates_at(c: &[Gf64], at: usize, s: &[Gf64]) -> bool {
        if at >= s.len() {
            return true;
        }
        let mut acc = s[at];
        for (j, &cj) in c.iter().enumerate().skip(1) {
            acc += cj * s[at - j];
        }
        acc.is_zero()
    }

    /// Puts a decoded set in the codec's output order: ascending in the
    /// [dual coordinates](Gf64::dual_coordinates) of the locator roots
    /// `1/x_e`. That is the order a depth-first trace split of `Λ` over
    /// the polynomial basis emits, so decoded sets — and the merge order
    /// and certificates downstream of them — do not depend on how the
    /// roots were found. The inverses cost one field inversion per set
    /// (batch inversion); a single edge is already in order.
    fn put_in_output_order(edges: &mut [Gf64], keyed: &mut Vec<(u64, Gf64)>) {
        if edges.len() < 2 {
            return;
        }
        keyed.clear();
        let mut prefix = Gf64::ONE;
        for &e in edges.iter() {
            prefix *= e;
            keyed.push((0, prefix));
        }
        // `inv` walks down from 1/(x₀⋯x_{l−1}); at step i it is
        // 1/(x₀⋯x_i), so 1/x_i = inv · (x₀⋯x_{i−1}).
        let mut inv = prefix.inverse().expect("edge IDs are non-zero");
        for i in (0..edges.len()).rev() {
            let root = if i == 0 { inv } else { inv * keyed[i - 1].1 };
            inv *= edges[i];
            keyed[i] = (root.dual_coordinates(), edges[i]);
        }
        keyed.sort_unstable_by_key(|&(key, _)| key);
        for (e, &(_, id)) in edges.iter_mut().zip(keyed.iter()) {
            *e = id;
        }
    }

    /// Recomputes the power sums of `edges` and compares with `syndrome`;
    /// `powers` is the reused running-power buffer (no per-round clone).
    fn check_power_sums(edges: &[Gf64], syndrome: &[Gf64], powers: &mut Vec<Gf64>) -> bool {
        powers.clear();
        powers.extend_from_slice(edges);
        for &s in syndrome {
            let mut acc = Gf64::ZERO;
            for p in powers.iter_mut() {
                acc += *p;
            }
            if acc != s {
                return false;
            }
            for (p, &e) in powers.iter_mut().zip(edges) {
                *p *= e;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u64]) -> Vec<Gf64> {
        raw.iter().map(|&x| Gf64::new(x)).collect()
    }

    fn encode(codec: &ThresholdCodec, edges: &[Gf64]) -> Vec<Gf64> {
        let mut s = codec.zero_syndrome();
        for &e in edges {
            codec.accumulate_edge(&mut s, e);
        }
        s
    }

    fn roundtrip(codec: &ThresholdCodec, edges: &[Gf64], adaptive: bool) {
        let s = encode(codec, edges);
        let mut got = if adaptive {
            codec.decode_adaptive(&s).expect("decodable")
        } else {
            codec.decode(&s).expect("decodable")
        };
        got.sort();
        let mut want = edges.to_vec();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_boundary_decodes_to_formal_zero() {
        let codec = ThresholdCodec::new(3);
        let s = codec.zero_syndrome();
        assert!(ThresholdCodec::is_zero_syndrome(&s));
        assert_eq!(codec.decode(&s).unwrap(), vec![]);
        assert_eq!(codec.decode_adaptive(&s).unwrap(), vec![]);
    }

    #[test]
    fn roundtrips_up_to_threshold() {
        let codec = ThresholdCodec::new(5);
        for sz in 1..=5usize {
            let edges: Vec<Gf64> = (1..=sz as u64).map(|i| Gf64::new(i * 0x1_0001)).collect();
            roundtrip(&codec, &edges, false);
            roundtrip(&codec, &edges, true);
        }
    }

    #[test]
    fn duplicates_cancel_before_decode() {
        let codec = ThresholdCodec::new(3);
        let s = encode(&codec, &ids(&[10, 20, 10]));
        let got = codec.decode(&s).unwrap();
        assert_eq!(got, ids(&[20]));
    }

    #[test]
    fn overload_is_reported_not_garbage() {
        let codec = ThresholdCodec::new(2);
        // 5 edges with threshold 2: must be rejected by verification.
        let edges: Vec<Gf64> = (1..=5u64).map(|i| Gf64::new(i * 7919)).collect();
        let s = encode(&codec, &edges);
        assert_eq!(codec.decode(&s), Err(DecodeError::ThresholdExceeded));
        assert_eq!(
            codec.decode_adaptive(&s),
            Err(DecodeError::ThresholdExceeded)
        );
    }

    #[test]
    fn prefix_property_proposition6() {
        // The 2k'-prefix of a 2k-label equals the RS(k') label.
        let big = ThresholdCodec::new(8);
        let small = ThresholdCodec::new(3);
        let edges = ids(&[0xdead, 0xbeef, 0xf00d]);
        let s_big = encode(&big, &edges);
        let s_small = encode(&small, &edges);
        assert_eq!(&s_big[..small.syndrome_len()], &s_small[..]);
    }

    #[test]
    fn adaptive_equals_full_decode() {
        let codec = ThresholdCodec::new(16);
        let edges: Vec<Gf64> = (1..=9u64).map(|i| Gf64::new(i * 0xABCDEF + 3)).collect();
        let s = encode(&codec, &edges);
        let mut a = codec.decode(&s).unwrap();
        let mut b = codec.decode_adaptive(&s).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn xor_of_syndromes_is_symmetric_difference() {
        let codec = ThresholdCodec::new(4);
        let s1 = encode(&codec, &ids(&[1, 2, 3]));
        let s2 = encode(&codec, &ids(&[3, 4]));
        let mut merged = s1.clone();
        ThresholdCodec::xor_into(&mut merged, &s2);
        let mut got = codec.decode(&merged).unwrap();
        got.sort();
        assert_eq!(got, ids(&[1, 2, 4]));
    }

    #[test]
    fn label_size_accounting() {
        let codec = ThresholdCodec::new(6);
        assert_eq!(codec.syndrome_len(), 12);
        assert_eq!(codec.label_bits(), 12 * 64);
        assert_eq!(codec.k(), 6);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_edge_id_rejected() {
        let codec = ThresholdCodec::new(2);
        let mut s = codec.zero_syndrome();
        codec.accumulate_edge(&mut s, Gf64::ZERO);
    }

    #[test]
    #[should_panic(expected = "threshold must be at least 1")]
    fn zero_threshold_rejected() {
        ThresholdCodec::new(0);
    }

    #[test]
    fn scratch_decode_matches_allocating_decode() {
        // One scratch across interleaved sizes, thresholds, and overload
        // failures: decode_adaptive_into must agree with decode_adaptive
        // call for call.
        let mut scratch = DecodeScratch::default();
        let mut out = Vec::new();
        for k in [2usize, 5, 16] {
            let codec = ThresholdCodec::new(k);
            for t in [0usize, 1, 3, k, k + 3] {
                let edges: Vec<Gf64> = (1..=t as u64).map(|i| Gf64::new(i * 0x9137 + 1)).collect();
                let s = encode(&codec, &edges);
                let fresh = codec.decode_adaptive(&s);
                let scratched =
                    codec.decode_adaptive_into(&s, Subspace::full(), &mut scratch, &mut out);
                match fresh {
                    Ok(mut want) => {
                        scratched.expect("scratch decode must accept what fresh accepts");
                        let mut got = out.clone();
                        got.sort();
                        want.sort();
                        assert_eq!(got, want, "k={k} t={t}");
                    }
                    Err(e) => {
                        assert_eq!(scratched, Err(e), "k={k} t={t}");
                        assert!(out.is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn large_random_roundtrip() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let codec = ThresholdCodec::new(32);
        for trial in 0..10 {
            let t = rng.random_range(1..=32usize);
            let mut edges = std::collections::BTreeSet::new();
            while edges.len() < t {
                let v: u64 = rng.random();
                if v != 0 {
                    edges.insert(Gf64::new(v));
                }
            }
            let edges: Vec<Gf64> = edges.into_iter().collect();
            roundtrip(&codec, &edges, trial % 2 == 0);
        }
    }
}
