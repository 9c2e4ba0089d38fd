//! Property-based tests for the k-threshold outdetect codec.

use ftc_codes::{berlekamp_massey, DecodeError, DecodeScratch, ThresholdCodec};
use ftc_field::{find_roots, Gf64, Poly, Subspace};
use proptest::collection::{btree_set, vec};
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
    ungated_ladder_in(codec, s, u64::MAX)
}

/// [`ungated_ladder`] for edge IDs in the span of the bits of `mask`: a
/// rung whose roots (found over the whole field) leave the span is
/// rejected at that rung.
fn ungated_ladder_in(
    codec: &ThresholdCodec,
    s: &[Gf64],
    mask: u64,
) -> Result<Vec<Gf64>, DecodeError> {
    if ThresholdCodec::is_zero_syndrome(s) {
        return Ok(Vec::new());
    }
    let k = codec.k();
    let mut k_try = 1usize;
    loop {
        let verify = &s[..(k_try + k).min(s.len())];
        if let Some(edges) = ungated_rung(&s[..2 * k_try], k_try, verify) {
            if !edges.is_empty() && edges.iter().all(|e| e.to_bits() & !mask == 0) {
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

/// The span of bits `0..b` and `32..32 + b`: where the packed edge codes
/// of an auxiliary graph with `b`-bit vertex numbers lie.
fn code_mask(b: u32) -> u64 {
    let half = (1u64 << b) - 1;
    half << 32 | half
}

/// The codec's serving-path decode restricted to `space`.
fn decode_in(
    codec: &ThresholdCodec,
    s: &[Gf64],
    space: &Subspace,
) -> Result<Vec<Gf64>, DecodeError> {
    let mut out = Vec::new();
    codec
        .decode_adaptive_into(s, space, &mut DecodeScratch::default(), &mut out)
        .map(|()| out)
}

/// The subspace decode agrees with the ungated ladder restricted to the
/// subspace, and — whenever the whole-field decode's edges all lie in the
/// subspace — equals the whole-field decode, order included.
fn assert_subspace_decode_matches(codec: &ThresholdCodec, s: &[Gf64], space: &Subspace) {
    let sorted = |r: Result<Vec<Gf64>, DecodeError>| {
        r.map(|mut v| {
            v.sort();
            v
        })
    };
    let got = decode_in(codec, s, space);
    assert_eq!(
        sorted(got.clone()),
        sorted(ungated_ladder_in(codec, s, space.mask())),
        "subspace decode and the restricted ungated ladder disagree"
    );
    let full = codec.decode_adaptive(s);
    let in_space = |ids: &Vec<Gf64>| ids.iter().all(|&e| space.contains(e));
    if full.as_ref().map_or(true, in_space) {
        assert_eq!(got, full, "subspace and whole-field decodes disagree");
    }
}

/// `b ∈ {2, 13, 15}` with a threshold the span can exceed: the span of
/// `b = 2` has only 15 non-zero points.
fn subspace_case(which: usize) -> (Subspace, ThresholdCodec) {
    let b = [2u32, 13, 15][which];
    let k = if b == 2 { 7 } else { 12 };
    (Subspace::from_mask(code_mask(b)), ThresholdCodec::new(k))
}

/// Distinct non-zero points of the span of `mask`, from arbitrary bits.
fn ids_in(mask: u64, raw: Vec<u64>) -> Vec<Gf64> {
    let mut ids: Vec<Gf64> = raw
        .into_iter()
        .map(|x| Gf64::new(x & mask))
        .filter(|e| !e.is_zero())
        .collect();
    ids.sort();
    ids.dedup();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Weight 1..=k inside the span: the subspace decode is the
    /// whole-field decode.
    #[test]
    fn subspace_decode_matches_full_within_threshold(which in 0usize..3, raw in vec(any::<u64>(), 1..=12)) {
        let (space, codec) = subspace_case(which);
        let ids = ids_in(space.mask(), raw);
        prop_assume!(!ids.is_empty() && ids.len() <= codec.k());
        let s = encode(&codec, &ids);
        assert_subspace_decode_matches(&codec, &s, &space);
        let mut got = decode_in(&codec, &s, &space).expect("within threshold");
        got.sort();
        prop_assert_eq!(got, ids);
    }

    /// Phantom weight k+1..=2k inside the span, where rungs fail and
    /// phantom sets — inside or outside the span — may verify.
    #[test]
    fn subspace_decode_matches_full_when_overloaded(which in 0usize..3, raw in vec(any::<u64>(), 13..=24)) {
        let (space, codec) = subspace_case(which);
        let ids = ids_in(space.mask(), raw);
        prop_assume!(ids.len() > codec.k());
        assert_subspace_decode_matches(&codec, &encode(&codec, &ids), &space);
    }

    /// Phantoms built as in `gate_matches_ungated_on_phantoms`, with the
    /// phantom set mostly outside the span: rungs that verify it are
    /// rejected there, and the ladder climbs on.
    #[test]
    fn subspace_decode_rejects_rungs_outside_the_span(
        phantom in btree_set(1u64..1 << 40, 1..=2usize),
        basis in proptest::collection::vec(1u64..1 << 16, 3..=3usize),
    ) {
        let space = Subspace::from_mask(code_mask(13));
        let codec = ThresholdCodec::new(4);
        let mut overloaded = span_points(&basis);
        overloaded.extend(phantom.into_iter().map(Gf64::new));
        assert_subspace_decode_matches(&codec, &encode(&codec, &overloaded), &space);
    }

    /// The decoded order is the order a depth-first trace split of the
    /// locator Λ emits, whatever subspace the roots were found in.
    #[test]
    fn decode_order_is_the_trace_split_order(which in 0usize..3, raw in vec(any::<u64>(), 1..=8)) {
        let (space, codec) = subspace_case(which);
        let ids = ids_in(space.mask(), raw);
        prop_assume!(!ids.is_empty() && ids.len() <= codec.k());
        let s = encode(&codec, &ids);
        let want = trace_split_order(&Poly::from_roots(&ids));
        prop_assert_eq!(decode_in(&codec, &s, &space).unwrap(), want.clone());
        prop_assert_eq!(codec.decode_adaptive(&s).unwrap(), want);
    }
}

/// The edge IDs of `sigma = ∏(x − x_e)` in the order a depth-first split
/// of the locator `Λ(z) = ∏(1 − x_e·z)` by the trace maps `Tr(xʲ·z)`,
/// `j = 0, 1, …`, emits its roots `1/x_e` (the factor where the trace
/// vanishes first), computed with plain polynomial arithmetic.
fn trace_split_order(sigma: &Poly) -> Vec<Gf64> {
    fn split(lambda: &Poly, from: u64, out: &mut Vec<Gf64>) {
        if lambda.degree() == Some(1) {
            let root = lambda.coeff(0) * lambda.coeff(1).inverse().unwrap();
            out.push(root.inverse().unwrap());
            return;
        }
        for j in from..64 {
            let mut term = Poly::from_coeffs(vec![Gf64::ZERO, Gf64::X.pow(j)]).rem(lambda);
            let mut trace = term.clone();
            for _ in 1..64 {
                term = term.square_mod(lambda);
                trace = &trace + &term;
            }
            let g = lambda.gcd(&trace);
            if g.degree()
                .is_some_and(|d| d > 0 && Some(d) < lambda.degree())
            {
                let (h, _) = lambda.div_rem(&g);
                split(&g, j + 1, out);
                split(&h, j + 1, out);
                return;
            }
        }
        panic!("distinct roots always split");
    }
    // Λ is σ reversed.
    let lambda = Poly::from_coeffs(sigma.coeffs().iter().rev().copied().collect());
    let mut out = Vec::new();
    split(&lambda, 0, &mut out);
    out
}

#[test]
fn a_rung_whose_roots_leave_the_subspace_is_rejected() {
    let space = Subspace::from_mask(code_mask(13));
    // One edge outside the span: every rung's locator is z − x, and every
    // rung is rejected.
    let codec = ThresholdCodec::new(4);
    let outside = Gf64::new(1 << 20 | 3);
    let s = encode(&codec, &[outside]);
    assert_eq!(codec.decode_adaptive(&s), Ok(vec![outside]));
    assert_eq!(
        decode_in(&codec, &s, &space),
        Err(DecodeError::ThresholdExceeded)
    );
    // `gate_keeps_a_phantom_decode`'s syndrome: rung 2 verifies the
    // phantom R, which lies outside the span, so the subspace ladder
    // rejects rung 2 and climbs to the top rung, which does not accept R.
    let basis = [1u64 << 5, 1 << 17, 1 << 40];
    let phantom = [Gf64::new(0x1234_5671), Gf64::new(0xabcd_ef03)];
    let mut overloaded = span_points(&basis);
    overloaded.extend_from_slice(&phantom);
    let s = encode(&codec, &overloaded);
    let mut full = codec.decode_adaptive(&s).unwrap();
    full.sort();
    assert_eq!(full, phantom);
    let got = decode_in(&codec, &s, &space);
    assert!(got
        .as_ref()
        .map_or(true, |ids| ids.iter().all(|&e| space.contains(e))));
    assert_ne!(
        got.map(|mut v| {
            v.sort();
            v
        }),
        Ok(phantom.to_vec())
    );
    assert_subspace_decode_matches(&codec, &s, &space);
}
