//! Property-based tests for GF(2⁶⁴) arithmetic, polynomial algebra, and
//! deterministic root finding.

use ftc_field::{find_roots, find_roots_into, Gf64, Poly, RootScratch, Subspace};
use proptest::collection::vec;
use proptest::prelude::*;

fn gf() -> impl Strategy<Value = Gf64> {
    any::<u64>().prop_map(Gf64::new)
}

fn nonzero_gf() -> impl Strategy<Value = Gf64> {
    (1u64..).prop_map(Gf64::new)
}

fn poly(max_deg: usize) -> impl Strategy<Value = Poly> {
    vec(any::<u64>(), 0..=max_deg + 1)
        .prop_map(|cs| Poly::from_coeffs(cs.into_iter().map(Gf64::new).collect()))
}

proptest! {
    #[test]
    fn add_is_commutative_and_associative(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn mul_is_commutative_and_associative(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn mul_distributes_over_add(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn inverse_is_two_sided(a in nonzero_gf()) {
        let inv = a.inverse().unwrap();
        prop_assert_eq!(a * inv, Gf64::ONE);
        prop_assert_eq!(inv * a, Gf64::ONE);
        prop_assert_eq!(inv.inverse().unwrap(), a);
    }

    #[test]
    fn square_is_frobenius(a in gf(), b in gf()) {
        prop_assert_eq!((a + b).square(), a.square() + b.square());
        prop_assert_eq!((a * b).square(), a.square() * b.square());
    }

    #[test]
    fn pow_laws(a in nonzero_gf(), e1 in 0u64..1000, e2 in 0u64..1000) {
        prop_assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
    }

    #[test]
    fn trace_is_gf2_linear(a in gf(), b in gf()) {
        prop_assert!(a.trace() <= 1);
        prop_assert_eq!((a + b).trace(), a.trace() ^ b.trace());
    }

    #[test]
    fn poly_add_mul_ring_axioms(a in poly(6), b in poly(6), c in poly(6)) {
        prop_assert_eq!(&(&a + &b) * &c, &(&a * &c) + &(&b * &c));
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn poly_div_rem_invariant(a in poly(10), b in poly(5)) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r.degree() < b.degree() || r.is_zero());
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn poly_gcd_divides_both(a in poly(6), b in poly(6)) {
        prop_assume!(!a.is_zero() && !b.is_zero());
        let d = a.gcd(&b);
        prop_assert!(a.rem(&d).is_zero());
        prop_assert!(b.rem(&d).is_zero());
    }

    #[test]
    fn eval_is_ring_hom(a in poly(6), b in poly(6), x in gf()) {
        prop_assert_eq!((&a + &b).eval(x), a.eval(x) + b.eval(x));
        prop_assert_eq!((&a * &b).eval(x), a.eval(x) * b.eval(x));
    }

    #[test]
    fn root_finding_round_trip(raw in vec(1u64.., 1..12)) {
        // Deduplicate: from_roots with repeats is not square-free.
        let mut rs: Vec<Gf64> = raw.into_iter().map(Gf64::new).collect();
        rs.sort();
        rs.dedup();
        let sigma = Poly::from_roots(&rs);
        let mut found = find_roots(&sigma).expect("product of distinct linear factors");
        found.sort();
        prop_assert_eq!(found, rs);
    }
}

/// The span of bits `0..b` and `32..32 + b` (dimension `D = 2b`): the
/// shape of packed edge codes with `b`-bit halves.
fn halves_mask(b: u32) -> u64 {
    let half = if b == 32 {
        u64::from(u32::MAX)
    } else {
        (1u64 << b) - 1
    };
    half << 32 | half
}

/// The subspace of dimension `dim ∈ {2, 26, 30, 64}`.
fn space_of_dim(dim: u32) -> Subspace {
    Subspace::from_mask(halves_mask(dim / 2))
}

/// A point of the span of `mask`, from arbitrary bits.
fn in_span(mask: u64, bits: u64) -> Gf64 {
    Gf64::new(bits & mask)
}

fn roots_in(space: &Subspace, poly: &Poly) -> Option<Vec<Gf64>> {
    let mut out = Vec::new();
    find_roots_into(poly.coeffs(), space, &mut RootScratch::default(), &mut out).then(|| {
        out.sort();
        out
    })
}

#[test]
fn coordinate_maps_read_basis_bits() {
    for dim in [2u32, 26, 30, 64] {
        let space = space_of_dim(dim);
        assert_eq!(space.dim(), dim as usize);
        let basis: Vec<u32> = (0..64).filter(|i| space.mask() >> i & 1 == 1).collect();
        for (j, _) in basis.iter().enumerate() {
            for (i, &pos) in basis.iter().enumerate() {
                let want = Gf64::new(u64::from(i == j));
                assert_eq!(
                    space.coordinate(j, Gf64::new(1 << pos)),
                    want,
                    "D={dim} j={j} i={i}"
                );
            }
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..64 {
            x = x.rotate_left(17).wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ 0x94d0_49bb;
            let v = in_span(space.mask(), x);
            for (j, &pos) in basis.iter().enumerate() {
                assert_eq!(space.coordinate(j, v), Gf64::new(v.to_bits() >> pos & 1));
            }
        }
    }
}

#[test]
fn the_full_subspace_is_the_whole_field() {
    let full = Subspace::full();
    assert_eq!(full.mask(), u64::MAX);
    assert!(full.contains(Gf64::new(u64::MAX)));
    // Its split test is the classical x^(2⁶⁴) = x; every polynomial that
    // splits over GF(2⁶⁴) is accepted.
    let rs = [Gf64::new(1 << 63 | 5), Gf64::new(0xdead_beef_0000_0001)];
    let mut want = rs.to_vec();
    want.sort();
    assert_eq!(roots_in(full, &Poly::from_roots(&rs)), Some(want));
}

#[test]
fn a_root_outside_the_subspace_is_rejected() {
    for dim in [2u32, 26, 30] {
        let space = space_of_dim(dim);
        let outside = Gf64::new(1 << (dim / 2) | 1); // bit b is not in V
        assert!(!space.contains(outside));
        let inside = [Gf64::ZERO, Gf64::new(1), Gf64::new(1 << 32)];
        // Degree 1, the split test at degree ≥ 2, and the same
        // polynomials over the whole field, which accepts them.
        for rs in [vec![outside], [&inside[..], &[outside]].concat()] {
            let p = Poly::from_roots(&rs);
            assert_eq!(roots_in(&space, &p), None, "D={dim} {rs:?}");
            assert!(roots_in(Subspace::full(), &p).is_some());
        }
        let p = Poly::from_roots(&inside);
        assert_eq!(roots_in(&space, &p).map(|r| r.len()), Some(3));
    }
}

proptest! {
    /// Random subsets of V round-trip for D ∈ {2, 26, 30, 64}.
    #[test]
    fn subspace_roots_round_trip(
        which in 0usize..4,
        raw in vec(any::<u64>(), 1..14),
    ) {
        let dim = [2u32, 26, 30, 64][which];
        let owned;
        let space = if dim == 64 {
            Subspace::full()
        } else {
            owned = space_of_dim(dim);
            &owned
        };
        let mut rs: Vec<Gf64> = raw.into_iter().map(|x| in_span(space.mask(), x)).collect();
        rs.sort();
        rs.dedup();
        prop_assert_eq!(roots_in(space, &Poly::from_roots(&rs)), Some(rs));
    }
}
