//! Crate-level property tests for the quantization substrate: exact
//! bit-plane round-trips at every supported width, plane-weight /
//! uncertainty-span algebra, and the growable-cache invariant — N
//! incremental appends read byte-identically to one from-scratch
//! decomposition — over randomized shapes including the degenerate S=1
//! and unsupported-width edges.

use std::sync::Arc;

use pade_quant::{
    plane_weight, uncertainty_span, BitPlaneMatrix, GrowableKeyCache, PlaneRow, PlaneSource,
    TokenPlanes,
};
use pade_testutil::{vec_i8, vec_i8_bits};
use proptest::prelude::*;

proptest! {
    /// `from_values` → `reconstruct` is the identity of Eq. 2 at every
    /// supported width and length (including a single dimension).
    #[test]
    fn round_trip_is_exact_at_every_width(
        bits in 2u32..=8,
        n in 1usize..200,
        seed in any::<u64>(),
    ) {
        let values = vec_i8_bits(n, seed, bits);
        let planes = TokenPlanes::from_values(&values, bits);
        prop_assert_eq!(planes.bits(), bits);
        prop_assert_eq!(planes.dims(), n);
        let rec = planes.reconstruct();
        prop_assert_eq!(rec, values.iter().map(|&v| i32::from(v)).collect::<Vec<_>>());
    }

    /// The word-packed decomposition behind `TokenPlanes::try_from_values`
    /// equals a per-bit `PlaneRow::from_bits` construction word for word,
    /// tail bits included, at every width and at lengths around the word
    /// boundaries. The engine and its seed oracle both read keys through
    /// this decomposition, so their differential tests cannot catch a
    /// packing error; this test is its own check.
    #[test]
    fn packed_decomposition_matches_per_bit_planes(
        bits in 2u32..=8,
        len_idx in 0usize..7,
        seed in any::<u64>(),
    ) {
        let len = [1usize, 63, 64, 65, 127, 128, 200][len_idx];
        let values = vec_i8_bits(len, seed, bits);
        let packed = TokenPlanes::try_from_values(&values, bits).unwrap();
        let mask = (1u32 << bits) - 1;
        for r in 0..bits {
            let per_bit = PlaneRow::from_bits(
                values.iter().map(|&v| (u32::from(v as u8) & mask) >> (bits - 1 - r) & 1 == 1),
            );
            prop_assert_eq!(packed.plane(r).words(), per_bit.words(), "plane {}", r);
            prop_assert!(packed.plane(r).tail_is_clear(), "plane {}", r);
            prop_assert_eq!(packed.plane(r), &per_bit, "plane {}", r);
        }
    }

    /// Plane weights are the two's-complement column weights: they sum to
    /// −1 (the all-ones pattern), the sign plane is the unique negative
    /// one, and the uncertainty span after round `r` equals the summed
    /// weight of all still-unknown planes.
    #[test]
    fn plane_weight_and_span_algebra(bits in 2u32..=8) {
        let total: i32 = (0..bits).map(|r| plane_weight(r, bits)).sum();
        prop_assert_eq!(total, -1);
        prop_assert!(plane_weight(0, bits) < 0);
        for r in 1..bits {
            prop_assert!(plane_weight(r, bits) > 0);
            prop_assert_eq!(plane_weight(r, bits), 1i32 << (bits - 1 - r));
        }
        for r in 0..bits {
            let remaining: i32 = (r + 1..bits).map(|i| plane_weight(i, bits)).sum();
            prop_assert_eq!(uncertainty_span(r, bits), remaining);
        }
        prop_assert_eq!(uncertainty_span(bits - 1, bits), 0);
    }

    /// The tentpole invariant: growing a cache with any interleaving of
    /// bulk and single-token appends, under any chunk size, reads
    /// byte-identically to `BitPlaneMatrix::from_rows` over the same
    /// tokens — and sealed chunks survive later growth untouched.
    #[test]
    fn incremental_appends_match_from_scratch(
        bits in 2u32..=8,
        dims in 1usize..40,
        n_tokens in 1usize..48,
        chunk in 1usize..17,
        bulk in 0usize..48,
        seed in any::<u64>(),
    ) {
        let data = vec_i8_bits(n_tokens * dims, seed, bits);
        let mut cache = GrowableKeyCache::new(dims, bits, chunk).unwrap();
        // First `bulk` tokens in one append_rows call, the rest one by one
        // (the admission-prefix-then-decode-steps shape).
        let bulk = bulk.min(n_tokens);
        cache.append_rows(&data[..bulk * dims]).unwrap();
        let mid_snapshot = cache.snapshot();
        for t in bulk..n_tokens {
            cache.append_token(&data[t * dims..(t + 1) * dims]).unwrap();
        }
        let snap = cache.snapshot();
        let scratch = BitPlaneMatrix::from_rows(&data, dims, bits).unwrap();
        prop_assert_eq!(snap.tokens(), n_tokens);
        prop_assert_eq!(snap.dims(), dims);
        prop_assert_eq!(snap.bits(), bits);
        prop_assert_eq!(snap.plane_bytes(), scratch.plane_bytes());
        for j in 0..n_tokens {
            prop_assert_eq!(snap.token(j), scratch.token(j), "token {}", j);
        }
        prop_assert!(snap.materialize() == scratch);
        // The snapshot taken mid-growth still reads the original prefix.
        prop_assert_eq!(mid_snapshot.tokens(), bulk);
        for j in 0..bulk {
            prop_assert_eq!(mid_snapshot.token(j), scratch.token(j), "mid token {}", j);
        }
        // Sealed chunks are shared between snapshots, never copied.
        let full_chunks = bulk / chunk;
        for i in 0..full_chunks {
            prop_assert!(Arc::ptr_eq(mid_snapshot.chunk(i), snap.chunk(i)), "chunk {}", i);
        }
    }

    /// `BitPlaneMatrix::append_rows` grows a monolithic tensor exactly as
    /// re-decomposing the concatenation from scratch would.
    #[test]
    fn matrix_append_rows_matches_concatenation(
        bits in 2u32..=8,
        dims in 1usize..24,
        head in 1usize..16,
        tail in 0usize..16,
        seed in any::<u64>(),
    ) {
        let data = vec_i8_bits((head + tail) * dims, seed, bits);
        let mut grown = BitPlaneMatrix::from_rows(&data[..head * dims], dims, bits).unwrap();
        grown.append_rows(&data[head * dims..]).unwrap();
        let scratch = BitPlaneMatrix::from_rows(&data, dims, bits).unwrap();
        prop_assert!(grown == scratch);
    }

    /// Partial MSB-first sums over all planes equal the exact dot product
    /// (the accumulation identity the engine's scoreboard relies on).
    #[test]
    fn msb_first_accumulation_is_exact(
        bits in 2u32..=8,
        n in 1usize..64,
        seed in any::<u64>(),
    ) {
        let k = vec_i8_bits(n, seed, bits);
        let q = vec_i8(n, seed ^ 0xDEAD);
        let planes = TokenPlanes::from_values(&k, bits);
        let exact: i64 = q.iter().zip(&k).map(|(&a, &b)| i64::from(a) * i64::from(b)).sum();
        let mut partial = 0i64;
        for r in 0..bits {
            partial += i64::from(plane_weight(r, bits)) * i64::from(planes.plane(r).masked_sum(&q));
        }
        prop_assert_eq!(partial, exact);
    }
}

#[test]
fn single_token_single_dim_degenerate_shapes() {
    // S=1, dims=1: the smallest legal tensor, at the narrowest and widest
    // supported widths, through both construction paths.
    for bits in [2u32, 8] {
        let lo = (-(1i32 << (bits - 1))) as i8;
        for v in [lo, 0, 1, -1] {
            let m = BitPlaneMatrix::from_rows(&[v], 1, bits).unwrap();
            assert_eq!(m.tokens(), 1);
            assert_eq!(m.token(0).reconstruct(), vec![i32::from(v)]);
            let mut cache = GrowableKeyCache::new(1, bits, 1).unwrap();
            cache.append_token(&[v]).unwrap();
            let snap = cache.snapshot();
            assert_eq!(snap.token(0), m.token(0));
        }
    }
}

#[test]
fn unsupported_widths_are_rejected_everywhere() {
    // bits=1 (and 0, 9) is outside the supported 2..=8 envelope: every
    // entry point reports it as UnsupportedWidth instead of decomposing.
    for bits in [0u32, 1, 9] {
        assert!(TokenPlanes::try_from_values(&[0], bits).is_err(), "bits={bits}");
        assert!(BitPlaneMatrix::from_rows(&[0], 1, bits).is_err(), "bits={bits}");
        assert!(BitPlaneMatrix::from_tokens(Vec::new(), 1, bits).is_err(), "bits={bits}");
        assert!(GrowableKeyCache::new(1, bits, 4).is_err(), "bits={bits}");
    }
}

#[test]
fn appends_reject_mismatched_shapes_without_partial_growth() {
    let mut cache = GrowableKeyCache::new(4, 8, 2).unwrap();
    cache.append_rows(&[1, 2, 3, 4]).unwrap();
    assert!(cache.append_token(&[1, 2, 3]).is_err());
    assert!(cache.append_rows(&[1, 2, 3, 4, 5]).is_err());
    assert_eq!(cache.tokens(), 1);
    let mut m = BitPlaneMatrix::from_rows(&[1, 2, 3, 4], 4, 8).unwrap();
    assert!(m.append_rows(&[1, 2]).is_err());
    assert_eq!(m.tokens(), 1);
    let narrow = TokenPlanes::from_values(&[1, 2], 8);
    assert!(m.push_token(narrow).is_err());
    let wrong_bits = TokenPlanes::from_values(&[1, 2, 3, 4], 4);
    assert!(m.push_token(wrong_bits).is_err());
    assert_eq!(m.tokens(), 1);
}
