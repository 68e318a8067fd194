//! Bidirectional sparsity (BS) — §IV-B, Eqs. 5–6.
//!
//! A bit plane's contribution to the dot product is `w_r · Σ_{k_j^r=1} q_j`.
//! Because each bit is 0 or 1, that sum can equally be computed as
//! `Σ_all q_j − Σ_{k_j^r=0} q_j` — so the hardware always accumulates over
//! whichever bit value is *rarer*, bounding the number of selected lanes by
//! 50 % of the vector width and with it the PE load imbalance.

use pade_quant::{and_popcount_words, plane_weight, BitPlaneMatrix, PlaneRow};

/// Which bit value was treated as "sparse" (selected for accumulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BsMode {
    /// Accumulate queries where the key bit is 1 (direct form, Eq. 5).
    Ones,
    /// Accumulate queries where the key bit is 0 and subtract from the
    /// query total (flipped form, Eq. 6).
    Zeros,
}

/// Result of absorbing one bit plane into a partial score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneContribution {
    /// Weighted contribution `w_r · Σ_{bit=1} q_j` (numerically identical
    /// in both modes).
    pub value: i64,
    /// Number of query elements actually accumulated.
    pub selected: u32,
    /// The accumulation mode chosen.
    pub mode: BsMode,
}

/// Absorbs plane `r` of a key into the running score for query row `q`.
///
/// With `bidirectional` set, the rarer bit value is selected (the BS
/// scheduler of Fig. 12); otherwise the direct bit-1 form is always used —
/// the naive scheme whose imbalance Fig. 5(c) illustrates. `q_sum` must be
/// `Σ q_j` over the same row (produced once by the Q-sum generator).
///
/// # Panics
///
/// Panics if `q.len() != plane.len()`.
///
/// # Example
///
/// ```
/// use pade_core::bitserial::{plane_contribution, BsMode};
/// use pade_quant::{pack_bits, PlaneRow};
///
/// let q: [i8; 4] = [1, 2, 3, 4];
/// // A dense plane (three 1s): BS flips to accumulate the single 0.
/// let words = pack_bits([true, true, false, true]);
/// let plane = PlaneRow::from_words(&words, 4).unwrap();
/// let c = plane_contribution(&q, plane, 7, 8, 10, true);
/// assert_eq!(c.mode, BsMode::Zeros);
/// assert_eq!(c.selected, 1);
/// assert_eq!(c.value, (1 + 2 + 4) as i64); // w_7 = 1
/// ```
#[must_use]
pub fn plane_contribution(
    q: &[i8],
    plane: PlaneRow<'_>,
    r: u32,
    bits: u32,
    q_sum: i64,
    bidirectional: bool,
) -> PlaneContribution {
    assert_eq!(q.len(), plane.len(), "query row and plane must have equal width");
    let w = i64::from(plane_weight(r, bits));
    let ones = plane.count_ones();
    let zeros = plane.count_zeros();
    if bidirectional && zeros < ones {
        // Flipped form: Σ_{bit=1} q = q_sum − Σ_{bit=0} q.
        let mut zero_sum = 0i64;
        for (i, &qv) in q.iter().enumerate() {
            if !plane.bit(i) {
                zero_sum += i64::from(qv);
            }
        }
        PlaneContribution { value: w * (q_sum - zero_sum), selected: zeros, mode: BsMode::Zeros }
    } else {
        PlaneContribution {
            value: w * i64::from(plane.masked_sum(q)),
            selected: ones,
            mode: BsMode::Ones,
        }
    }
}

/// Σ of a query row — the Q-sum generator output shared by all lanes in a
/// PE row (Fig. 11(a)).
#[must_use]
pub fn q_sum(q: &[i8]) -> i64 {
    q.iter().map(|&x| i64::from(x)).sum()
}

/// Per-query-row lookup tables turning a bit-plane dot product into
/// `⌈H/8⌉` table reads.
///
/// For every 8-dimension chunk of the query row the table stores, for all
/// 256 possible key-bit bytes, the partial sum `Σ_{bit set} q_j`. A
/// plane's masked sum is then the sum of one lookup per byte of the
/// packed plane — ~8× fewer adds than walking set bits, and free of
/// data-dependent branches. Built once per query row (cost `⌈H/8⌉ × 256`
/// adds) and shared read-only by every lane of that row, this is the
/// plane-cache the parallel engine borrows per row worker.
///
/// Integer addition is associative, so the lookup-based sum is *equal*
/// (not just close) to [`PlaneRow::masked_sum`]; the property tests below
/// pin this down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QRowLut {
    /// `chunks × 256` partial sums, chunk-major.
    sums: Vec<i32>,
    len: usize,
}

impl QRowLut {
    /// Builds the tables for one query row.
    #[must_use]
    pub fn new(q: &[i8]) -> Self {
        let chunks = q.len().div_ceil(8);
        let mut sums = vec![0i32; chunks * 256];
        for (c, chunk) in q.chunks(8).enumerate() {
            let table = &mut sums[c * 256..(c + 1) * 256];
            for mask in 1usize..256 {
                let low_bit = mask.trailing_zeros() as usize;
                let rest = mask & (mask - 1);
                let q_val = if low_bit < chunk.len() { i32::from(chunk[low_bit]) } else { 0 };
                table[mask] = table[rest] + q_val;
            }
        }
        Self { sums, len: q.len() }
    }

    /// Query width the tables were built for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a zero-width query row.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `Σ_{bit_i=1} q_i` over a packed plane, via table lookups.
    ///
    /// # Panics
    ///
    /// Panics if the plane's width differs from the query row's.
    #[must_use]
    pub fn masked_sum(&self, plane: PlaneRow<'_>) -> i32 {
        assert_eq!(plane.len(), self.len, "query length must match plane length");
        let mut acc = 0i32;
        for (w, tables) in plane.words().iter().zip(self.sums.chunks(8 * 256)) {
            let mut word = *w;
            for table in tables.chunks_exact(256) {
                acc += table[(word & 0xFF) as usize];
                word >>= 8;
            }
        }
        acc
    }
}

/// The query row itself decomposed into signed bit planes packed as `u64`
/// words, so a bit-plane dot product collapses to weighted
/// `popcount(q_plane & k_plane)` per plane.
///
/// Writing the query in `w`-bit two's complement,
/// `q_i = Σ_r plane_weight(r, w) · q_i^r`, and substituting into the masked
/// sum gives
/// `Σ_{k_j=1} q_j = Σ_r plane_weight(r, w) · |{j : q_j^r = 1 ∧ k_j = 1}|`
/// — each inner term one AND+`count_ones` sweep over the packed words.
/// Integer addition is associative, so this equals [`PlaneRow::masked_sum`]
/// and [`QRowLut::masked_sum`] *exactly*, not approximately.
///
/// The decomposition width is trimmed to the smallest `w ∈ 2..=8` that
/// holds every query value, so a small-magnitude row costs proportionally
/// fewer AND+popcount sweeps. Built once per query row and shared
/// read-only by every lane (and, in the fused dispatch, every head) that
/// scores with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QRowPlanes {
    /// Packed words of every query plane, plane-major: plane `r` is
    /// `words[r·stride .. (r+1)·stride]`.
    words: Vec<u64>,
    weights: Vec<i64>,
    /// Words per plane, `⌈len / 64⌉`.
    stride: usize,
    len: usize,
}

impl QRowPlanes {
    /// Decomposes one query row at the minimal width holding all values.
    #[must_use]
    pub fn new(q: &[i8]) -> Self {
        let mut width = 2u32;
        for &v in q {
            let mut w = 2u32;
            while i32::from(v) < -(1i32 << (w - 1)) || i32::from(v) > (1i32 << (w - 1)) - 1 {
                w += 1;
            }
            width = width.max(w);
        }
        // A 1-token matrix's slab is already plane-major, MSB first.
        let words = match BitPlaneMatrix::from_rows(q, q.len(), width) {
            Ok(planes) => planes.words().to_vec(),
            Err(_) => Vec::new(), // a zero-width row has no planes
        };
        let weights = (0..width).map(|r| i64::from(plane_weight(r, width))).collect();
        Self { words, weights, stride: q.len().div_ceil(64), len: q.len() }
    }

    /// Query width the planes were built for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a zero-width query row.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of query bit planes (the trimmed decomposition width).
    #[must_use]
    pub fn planes(&self) -> usize {
        self.weights.len()
    }

    /// `Σ_{bit_i=1} q_i` over a packed key plane, as weighted AND+popcounts.
    ///
    /// The width is checked once per call; the loop then runs over the
    /// flat query-plane words (one word per plane for rows of ≤ 64
    /// dimensions, the decode and head-dim-64 case).
    ///
    /// # Panics
    ///
    /// Panics if the plane's width differs from the query row's.
    #[must_use]
    pub fn masked_sum(&self, plane: PlaneRow<'_>) -> i64 {
        assert_eq!(plane.len(), self.len, "query length must match plane length");
        match plane.words() {
            [] => 0,
            &[k] => self
                .words
                .iter()
                .zip(&self.weights)
                .map(|(&q, &w)| w * i64::from((q & k).count_ones()))
                .sum(),
            k => self
                .words
                .chunks_exact(self.stride)
                .zip(&self.weights)
                .map(|(q, &w)| w * i64::from(and_popcount_words(q, k)))
                .sum(),
        }
    }
}

/// Popcount variant of [`plane_contribution`]: same integer sums, same mode
/// selection, but the accumulation is weighted `popcount(q_plane & k_plane)`
/// via [`QRowPlanes::masked_sum`]. This is the engine's hot loop;
/// [`plane_contribution`] stays as the oracle and [`plane_contribution_lut`]
/// as the PR-1 byte-LUT path both are differential-tested against.
#[must_use]
pub fn plane_contribution_planes(
    qp: &QRowPlanes,
    plane: PlaneRow<'_>,
    r: u32,
    bits: u32,
    bidirectional: bool,
) -> PlaneContribution {
    let w = i64::from(plane_weight(r, bits));
    let ones = plane.count_ones();
    let zeros = plane.count_zeros();
    let value = w * qp.masked_sum(plane);
    if bidirectional && zeros < ones {
        PlaneContribution { value, selected: zeros, mode: BsMode::Zeros }
    } else {
        PlaneContribution { value, selected: ones, mode: BsMode::Ones }
    }
}

/// Table-driven variant of [`plane_contribution`]: numerically identical
/// (same integer sums, same mode selection), but the accumulation runs
/// through [`QRowLut::masked_sum`] instead of a per-bit scan. The engine's
/// hot loop uses this; [`plane_contribution`] stays as the oracle.
///
/// # Panics
///
/// Panics if the plane's width differs from the LUT's query width.
#[must_use]
pub fn plane_contribution_lut(
    lut: &QRowLut,
    plane: PlaneRow<'_>,
    r: u32,
    bits: u32,
    bidirectional: bool,
) -> PlaneContribution {
    let w = i64::from(plane_weight(r, bits));
    let ones = plane.count_ones();
    let zeros = plane.count_zeros();
    let value = w * i64::from(lut.masked_sum(plane));
    if bidirectional && zeros < ones {
        PlaneContribution { value, selected: zeros, mode: BsMode::Zeros }
    } else {
        PlaneContribution { value, selected: ones, mode: BsMode::Ones }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pade_quant::pack_bits;
    use proptest::prelude::*;

    /// One token's decomposition: a 1-token matrix.
    fn one(values: &[i8], bits: u32) -> BitPlaneMatrix {
        BitPlaneMatrix::from_rows(values, values.len(), bits).unwrap()
    }

    #[test]
    fn bs_bounds_selection_at_half() {
        let q: Vec<i8> = (0..64).map(|i| (i % 11) as i8 - 5).collect();
        let qs = q_sum(&q);
        for fill in 0..=64usize {
            let words = pack_bits((0..64).map(|i| i < fill));
            let plane = PlaneRow::from_words(&words, 64).unwrap();
            let c = plane_contribution(&q, plane, 3, 8, qs, true);
            assert!(c.selected <= 32, "fill {fill}: selected {}", c.selected);
        }
    }

    #[test]
    fn naive_mode_selects_all_ones() {
        let q: Vec<i8> = vec![1; 8];
        let words = pack_bits([true; 8]);
        let plane = PlaneRow::from_words(&words, 8).unwrap();
        let c = plane_contribution(&q, plane, 1, 8, 8, false);
        assert_eq!(c.selected, 8);
        assert_eq!(c.mode, BsMode::Ones);
        let c_bs = plane_contribution(&q, plane, 1, 8, 8, true);
        assert_eq!(c_bs.selected, 0);
        assert_eq!(c_bs.value, c.value);
    }

    #[test]
    fn sign_plane_weight_is_negative() {
        let q: [i8; 2] = [3, 3];
        let words = pack_bits([true, false]);
        let plane = PlaneRow::from_words(&words, 2).unwrap();
        let c = plane_contribution(&q, plane, 0, 8, 6, true);
        assert_eq!(c.value, -128 * 3);
    }

    #[test]
    fn lut_masked_sum_handles_ragged_widths() {
        for len in [1usize, 7, 8, 9, 63, 64, 65, 130] {
            let q: Vec<i8> = (0..len).map(|i| (i as i8).wrapping_mul(37)).collect();
            let lut = QRowLut::new(&q);
            let words = pack_bits((0..len).map(|i| i % 3 != 1));
            let plane = PlaneRow::from_words(&words, len).unwrap();
            assert_eq!(lut.masked_sum(plane), plane.masked_sum(&q), "len {len}");
        }
    }

    proptest! {
        #[test]
        fn prop_lut_contribution_matches_oracle(
            q in proptest::collection::vec(any::<i8>(), 1..150),
            seed in any::<u64>(),
            r in 0u32..8,
            bidirectional in any::<bool>(),
        ) {
            let k: Vec<i8> = q.iter().enumerate()
                .map(|(i, _)| {
                    let h = seed.wrapping_add((i as u64).wrapping_mul(0xD6E8FEB86659FD93));
                    (h >> 17) as u8 as i8
                })
                .collect();
            let m = one(&k, 8);
            let planes = m.token(0);
            let lut = QRowLut::new(&q);
            let qs = q_sum(&q);
            let oracle = plane_contribution(&q, planes.plane(r), r, 8, qs, bidirectional);
            let fast = plane_contribution_lut(&lut, planes.plane(r), r, 8, bidirectional);
            prop_assert_eq!(oracle, fast);
        }

        #[test]
        fn prop_popcount_contribution_matches_oracle_and_lut(
            q in proptest::collection::vec(any::<i8>(), 1..150),
            seed in any::<u64>(),
            r_seed in any::<u64>(),
            kbits_idx in 0usize..4,
            bidirectional in any::<bool>(),
        ) {
            // Key widths sweep 2..=8; the plane index is reduced mod width.
            let kbits = [2u32, 4, 7, 8][kbits_idx];
            let r = (r_seed % u64::from(kbits)) as u32;
            let lo = -(1i32 << (kbits - 1));
            let hi = (1i32 << (kbits - 1)) - 1;
            let k: Vec<i8> = q.iter().enumerate()
                .map(|(i, _)| {
                    let h = seed.wrapping_add((i as u64).wrapping_mul(0xD6E8FEB86659FD93));
                    (lo + ((h >> 17) as i32).rem_euclid(hi - lo + 1)) as i8
                })
                .collect();
            let m = one(&k, kbits);
            let planes = m.token(0);
            let lut = QRowLut::new(&q);
            let qp = QRowPlanes::new(&q);
            let qs = q_sum(&q);
            let oracle = plane_contribution(&q, planes.plane(r), r, kbits, qs, bidirectional);
            let via_lut = plane_contribution_lut(&lut, planes.plane(r), r, kbits, bidirectional);
            let via_pop = plane_contribution_planes(&qp, planes.plane(r), r, kbits, bidirectional);
            prop_assert_eq!(oracle, via_pop);
            prop_assert_eq!(via_lut, via_pop);
            prop_assert_eq!(
                qp.masked_sum(planes.plane(r)),
                i64::from(planes.plane(r).masked_sum(&q))
            );
        }

        #[test]
        fn prop_popcount_masked_sum_at_word_boundaries(
            base in 0usize..3,
            tail_idx in 0usize..3,
            seed in any::<u64>(),
        ) {
            // len % 64 ∈ {0, 1, 63}: empty, minimal and nearly-full tail words.
            let len = (base * 64 + [0usize, 1, 63][tail_idx]).max(1);
            let q: Vec<i8> = (0..len)
                .map(|i| (seed.wrapping_mul(i as u64 + 11) >> 23) as u8 as i8)
                .collect();
            let k: Vec<i8> = (0..len)
                .map(|i| (seed.wrapping_mul(i as u64 + 29) >> 31) as u8 as i8)
                .collect();
            let m = one(&k, 8);
            let planes = m.token(0);
            let qp = QRowPlanes::new(&q);
            let lut = QRowLut::new(&q);
            for r in 0..8u32 {
                let plane = planes.plane(r);
                prop_assert_eq!(qp.masked_sum(plane), i64::from(plane.masked_sum(&q)));
                prop_assert_eq!(qp.masked_sum(plane), i64::from(lut.masked_sum(plane)));
            }
        }

        #[test]
        fn prop_qrow_planes_width_is_trimmed(
            q in proptest::collection::vec(-8i8..=7, 1..80),
        ) {
            // Values fitting 4-bit two's complement must never cost more
            // than 4 planes.
            let qp = QRowPlanes::new(&q);
            prop_assert!(qp.planes() <= 4, "trimmed width {} for 4-bit data", qp.planes());
            let m = one(&vec![1i8; q.len()], 2);
            let planes = m.token(0);
            prop_assert_eq!(qp.masked_sum(planes.plane(1)), q_sum(&q));
        }

        #[test]
        fn prop_bs_equals_direct_form(
            q in proptest::collection::vec(any::<i8>(), 1..128),
            seed in any::<u64>(),
            r in 0u32..8,
        ) {
            let k: Vec<i8> = q.iter().enumerate()
                .map(|(i, _)| {
                    let h = seed.wrapping_add((i as u64).wrapping_mul(0xD6E8FEB86659FD93));
                    (h >> 17) as u8 as i8
                })
                .collect();
            let m = one(&k, 8);
            let planes = m.token(0);
            let qs = q_sum(&q);
            let direct = plane_contribution(&q, planes.plane(r), r, 8, qs, false);
            let bs = plane_contribution(&q, planes.plane(r), r, 8, qs, true);
            prop_assert_eq!(direct.value, bs.value, "Eq. 6 must be value-preserving");
            prop_assert!(bs.selected <= (q.len() as u32).div_ceil(2),
                "BS must bound selection at 50%: {} of {}", bs.selected, q.len());
            prop_assert!(bs.selected <= direct.selected.max(q.len() as u32 - direct.selected));
        }

        #[test]
        fn prop_accumulating_all_planes_is_exact(
            q in proptest::collection::vec(any::<i8>(), 1..64),
            seed in any::<u64>(),
        ) {
            let k: Vec<i8> = q.iter().enumerate()
                .map(|(i, _)| {
                    let h = seed.wrapping_mul(0xA24BAED4963EE407)
                        .wrapping_add((i as u64).wrapping_mul(0x9FB21C651E98DF25));
                    (h >> 40) as u8 as i8
                })
                .collect();
            let m = one(&k, 8);
            let planes = m.token(0);
            let qs = q_sum(&q);
            let total: i64 = (0..8u32)
                .map(|r| plane_contribution(&q, planes.plane(r), r, 8, qs, true).value)
                .sum();
            let exact: i64 = q.iter().zip(&k).map(|(&a, &b)| i64::from(a) * i64::from(b)).sum();
            prop_assert_eq!(total, exact);
        }
    }
}
