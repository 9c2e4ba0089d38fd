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

use crate::bm::{berlekamp_massey_into, BmScratch};
use ftc_field::{find_roots_into, Gf64, RootScratch};
use std::fmt;

/// Reusable buffers for [`ThresholdCodec::decode_adaptive_into`] (and the
/// other scratch-based decode paths): the Berlekamp–Massey state, the
/// root-finder's [`RootScratch`], the candidate edge set, and the
/// power-sum verification buffer. A warm scratch makes a verified decode
/// completely allocation-free, which is what the query engine's
/// session-rebuild hot path relies on.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    bm: BmScratch,
    roots: RootScratch,
    /// Candidate edge IDs (roots of the locator, inverted in place).
    edges: Vec<Gf64>,
    /// Running powers for [`ThresholdCodec::check_power_sums`].
    powers: Vec<Gf64>,
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
        Self::decode_prefix_into(syndrome, self.k, syndrome, &mut scratch, &mut out)?;
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
        self.decode_adaptive_into(syndrome, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Adaptive verified decode into a caller-provided buffer: identical
    /// semantics to [`ThresholdCodec::decode_adaptive`], but every
    /// temporary (Berlekamp–Massey state, trace-algorithm polynomials,
    /// candidate sets, verification powers) is drawn from `scratch`, and
    /// the decoded edge IDs land in `out` (cleared first). Once the
    /// scratch is warm the whole decode performs **zero heap allocations**
    /// — this is the serving-path variant the query engine uses.
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
            if Self::decode_prefix_into(&syndrome[..2 * k_try], k_try, verify, scratch, out).is_ok()
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
        // `prefix.len() = 2k′ ≥ 2l > l`, so a locator that fails to
        // generate the rest of `full` can only fail verification: reject
        // it before paying for the root find.
        if !Self::generates_tail(&scratch.bm.c, prefix.len(), full) {
            return Err(DecodeError::ThresholdExceeded);
        }
        if !find_roots_into(&scratch.bm.c, &mut scratch.roots, &mut scratch.edges) {
            return Err(DecodeError::ThresholdExceeded);
        }
        if scratch.edges.len() != l || scratch.edges.iter().any(|r| r.is_zero()) {
            return Err(DecodeError::ThresholdExceeded);
        }
        // Λ(z) = ∏(1 − x_e z): the roots are the inverses of the edge IDs.
        for r in scratch.edges.iter_mut() {
            *r = r.inverse().expect("roots checked nonzero");
        }
        if Self::check_power_sums(&scratch.edges, full, &mut scratch.powers) {
            out.extend_from_slice(&scratch.edges);
            Ok(())
        } else {
            Err(DecodeError::ThresholdExceeded)
        }
    }

    /// Whether the connection polynomial `c` (with `c₀ = 1`) generates
    /// `s[from..]`: `s_i + Σ_{j=1..deg c} c_j · s_{i−j} = 0` for every
    /// `i ≥ from` (requires `from ≥ deg c`).
    fn generates_tail(c: &[Gf64], from: usize, s: &[Gf64]) -> bool {
        (from..s.len()).all(|i| {
            let mut acc = s[i];
            for (j, &cj) in c.iter().enumerate().skip(1) {
                acc += cj * s[i - j];
            }
            acc.is_zero()
        })
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
                let scratched = codec.decode_adaptive_into(&s, &mut scratch, &mut out);
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
