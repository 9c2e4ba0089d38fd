//! Property-based tests for the k-threshold outdetect codec.

use ftc_codes::{berlekamp_massey, DecodeError, ThresholdCodec};
use ftc_field::{find_roots, Gf64};
use proptest::collection::btree_set;
use proptest::prelude::*;

fn encode(codec: &ThresholdCodec, edges: &[Gf64]) -> Vec<Gf64> {
    let mut s = codec.zero_syndrome();
    for &e in edges {
        codec.accumulate_edge(&mut s, e);
    }
    s
}

proptest! {
    /// Any edge set of size ≤ k decodes exactly, both with full and
    /// adaptive decoding.
    #[test]
    fn roundtrip_within_threshold(raw in btree_set(1u64.., 0..=12usize)) {
        let edges: Vec<Gf64> = raw.into_iter().map(Gf64::new).collect();
        let codec = ThresholdCodec::new(12);
        let s = encode(&codec, &edges);
        for decoded in [codec.decode(&s).unwrap(), codec.decode_adaptive(&s).unwrap()] {
            let mut got = decoded;
            got.sort();
            prop_assert_eq!(&got, &edges);
        }
    }

    /// Within the Vandermonde regime (|R| + |T| ≤ 2k) a verified decode is
    /// exact; beyond it (Proposition 2's "unspecified" zone) any accepted
    /// answer must at least be syndrome-consistent.
    #[test]
    fn overload_is_at_worst_syndrome_consistent(raw in btree_set(1u64.., 5..=20usize)) {
        let edges: Vec<Gf64> = raw.into_iter().map(Gf64::new).collect();
        let codec = ThresholdCodec::new(4);
        let s = encode(&codec, &edges);
        match codec.decode_adaptive(&s) {
            Err(DecodeError::ThresholdExceeded) => {}
            Ok(got) => {
                if got.len() + edges.len() <= 2 * codec.k() {
                    let mut sorted = got.clone();
                    sorted.sort();
                    prop_assert_eq!(&sorted, &edges, "exactness in the Vandermonde regime");
                }
                prop_assert_eq!(encode(&codec, &got), s, "accepted answers match the syndrome");
            }
        }
    }

    /// The hard exactness guarantee: whenever |T| ≤ k the decode is exact —
    /// even in the presence of the characteristic-2 phantom-set phenomenon.
    #[test]
    fn within_threshold_decode_is_never_wrong(raw in btree_set(1u64.., 1..=4usize)) {
        let edges: Vec<Gf64> = raw.into_iter().map(Gf64::new).collect();
        let codec = ThresholdCodec::new(4);
        let s = encode(&codec, &edges);
        let mut got = codec.decode_adaptive(&s).expect("within threshold");
        got.sort();
        prop_assert_eq!(got, edges);
    }

    /// Syndromes are linear: encode(A) ⊕ encode(B) = encode(A △ B).
    #[test]
    fn syndrome_linearity(
        a in btree_set(1u64.., 0..=8usize),
        b in btree_set(1u64.., 0..=8usize),
    ) {
        let codec = ThresholdCodec::new(16);
        let ea: Vec<Gf64> = a.iter().copied().map(Gf64::new).collect();
        let eb: Vec<Gf64> = b.iter().copied().map(Gf64::new).collect();
        let sym: Vec<Gf64> = a.symmetric_difference(&b).copied().map(Gf64::new).collect();
        let mut s = encode(&codec, &ea);
        ThresholdCodec::xor_into(&mut s, &encode(&codec, &eb));
        prop_assert_eq!(s, encode(&codec, &sym));
    }

    /// Proposition 6: the 2k'-prefix of an RS(k) label is the RS(k') label.
    #[test]
    fn prefix_is_smaller_codec(raw in btree_set(1u64.., 1..=6usize), k_small in 1usize..=8) {
        let edges: Vec<Gf64> = raw.into_iter().map(Gf64::new).collect();
        let big = ThresholdCodec::new(16);
        let small = ThresholdCodec::new(k_small);
        let sb = encode(&big, &edges);
        let ss = encode(&small, &edges);
        prop_assert_eq!(&sb[..small.syndrome_len()], &ss[..]);
    }
}

/// Power sums `p_1..p_len` of `edges`.
fn power_sums(edges: &[Gf64], len: usize) -> Vec<Gf64> {
    let mut out = vec![Gf64::ZERO; len];
    for &e in edges {
        let mut p = Gf64::ONE;
        for slot in out.iter_mut() {
            p *= e;
            *slot += p;
        }
    }
    out
}

/// The adaptive ladder without the recurrence gate: every rung that
/// Berlekamp–Massey accepts goes to the root finder and then to power-sum
/// verification. The codec must agree with it on every syndrome.
fn ungated_ladder(codec: &ThresholdCodec, s: &[Gf64]) -> Result<Vec<Gf64>, DecodeError> {
    if ThresholdCodec::is_zero_syndrome(s) {
        return Ok(Vec::new());
    }
    let k = codec.k();
    let mut k_try = 1usize;
    loop {
        let verify = &s[..(k_try + k).min(s.len())];
        if let Some(edges) = ungated_rung(&s[..2 * k_try], k_try, verify) {
            if !edges.is_empty() {
                return Ok(edges);
            }
        }
        if k_try == k {
            return Err(DecodeError::ThresholdExceeded);
        }
        k_try = (k_try * 2).min(k);
    }
}

/// One ungated rung: decode `prefix`, verify against `full`.
fn ungated_rung(prefix: &[Gf64], k_eff: usize, full: &[Gf64]) -> Option<Vec<Gf64>> {
    if ThresholdCodec::is_zero_syndrome(full) {
        return Some(Vec::new());
    }
    let (c, l) = berlekamp_massey(prefix);
    if l == 0 || l > k_eff || c.degree() != Some(l) {
        return None;
    }
    let roots = find_roots(&c)?;
    if roots.len() != l || roots.iter().any(|r| r.is_zero()) {
        return None;
    }
    let edges: Vec<Gf64> = roots
        .iter()
        .map(|r| r.inverse().expect("nonzero"))
        .collect();
    (power_sums(&edges, full.len()) == full).then_some(edges)
}

/// The gated codec and the ungated ladder return the same `Result` and the
/// same edge set.
fn assert_matches_ungated(codec: &ThresholdCodec, s: &[Gf64]) {
    let sorted = |r: Result<Vec<Gf64>, DecodeError>| {
        r.map(|mut v| {
            v.sort();
            v
        })
    };
    assert_eq!(
        sorted(codec.decode_adaptive(s)),
        sorted(ungated_ladder(codec, s)),
        "gated and ungated ladders disagree"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Within the threshold (weight 1..=k) the gate changes nothing.
    #[test]
    fn gate_matches_ungated_within_threshold(raw in btree_set(1u64.., 1..=12usize)) {
        let edges: Vec<Gf64> = raw.into_iter().map(Gf64::new).collect();
        let codec = ThresholdCodec::new(12);
        assert_matches_ungated(&codec, &encode(&codec, &edges));
    }

    /// Overloaded syndromes (weight k+1..=2k), where rungs fail and
    /// phantom sets may verify: the gate changes nothing either.
    #[test]
    fn gate_matches_ungated_when_overloaded(raw in btree_set(1u64.., 13..=24usize)) {
        let edges: Vec<Gf64> = raw.into_iter().map(Gf64::new).collect();
        let codec = ThresholdCodec::new(12);
        assert_matches_ungated(&codec, &encode(&codec, &edges));
    }
}

/// The nonzero points of the GF(2)-span of `basis`. For `m`
/// independent basis vectors their power sums `p_j` vanish for every `j`
/// of binary weight `< m`, so adding them to a set hides from the first
/// `2^m − 2` syndrome entries.
fn span_points(basis: &[u64]) -> Vec<Gf64> {
    (1..1u32 << basis.len())
        .map(|mask| {
            let bits = (0..basis.len())
                .filter(|i| mask >> i & 1 == 1)
                .fold(0, |acc, i| acc ^ basis[i]);
            Gf64::new(bits)
        })
        .collect()
}

proptest! {
    /// Phantom regime: `R` plus the 7 points of a 3-dimensional subspace
    /// at k = 4. Entries p_1..p_6 are `R`'s, so a low rung (verify prefix
    /// ≤ 6) accepts the phantom `R` and never reaches the top rung, whose
    /// p_7 differs. A gate that rejected a passable rung would change
    /// the answer here.
    #[test]
    fn gate_matches_ungated_on_phantoms(
        phantom in btree_set(1u64.., 1..=2usize),
        basis in proptest::collection::vec(1u64.., 3..=3usize),
    ) {
        let phantom: Vec<Gf64> = phantom.into_iter().map(Gf64::new).collect();
        let codec = ThresholdCodec::new(4);
        let mut overloaded = span_points(&basis);
        overloaded.extend_from_slice(&phantom);
        let s = encode(&codec, &overloaded);
        assert_matches_ungated(&codec, &s);
    }
}

#[test]
fn gate_keeps_a_phantom_decode() {
    let basis = [1u64 << 5, 1 << 17, 1 << 40];
    let phantom = [Gf64::new(0x1234_5671), Gf64::new(0xabcd_ef03)];
    let codec = ThresholdCodec::new(4);
    let mut overloaded = span_points(&basis);
    overloaded.extend_from_slice(&phantom);
    let s = encode(&codec, &overloaded);
    assert_eq!(s[..6], encode(&codec, &phantom)[..6], "p_1..p_6 are R's");
    assert_ne!(s[6], encode(&codec, &phantom)[6], "p_7 is not");
    assert_matches_ungated(&codec, &s);
    let mut got = codec.decode_adaptive(&s).expect("rung 2 verifies R");
    got.sort();
    assert_eq!(got, phantom);
    let top = codec.decode(&s).map(|mut v| {
        v.sort();
        v
    });
    assert_ne!(
        top,
        Ok(phantom.to_vec()),
        "the top rung alone does not accept R"
    );
}
