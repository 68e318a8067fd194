//! Two's-complement bit-plane decomposition.
//!
//! A `p`-bit two's-complement integer satisfies
//! `x = -b_{p-1}·2^{p-1} + Σ_{i=0}^{p-2} b_i·2^i` (Eq. 2 of the paper).
//! PADE streams key vectors one *bit plane* at a time, MSB first: round
//! `r = 0` delivers the sign plane, round `r = p-1` the LSB plane. Because
//! every plane except the sign plane contributes non-negatively, once the
//! first `r+1` planes are known the still-missing contribution of each
//! element lies in `[0, U_r]` with `U_r = 2^{p-1-r} - 1` — the foundation of
//! the Bit-wise Uncertainty Interval.

use crate::QuantError;

/// Signed weight of bit-plane `r` (MSB-first) for a `bits`-wide integer.
///
/// Round 0 is the sign plane with weight `-2^(bits-1)`; round `r ≥ 1` has
/// weight `2^(bits-1-r)`.
///
/// # Panics
///
/// Panics if `r >= bits`.
///
/// # Example
///
/// ```
/// assert_eq!(pade_quant::plane_weight(0, 8), -128);
/// assert_eq!(pade_quant::plane_weight(7, 8), 1);
/// ```
#[must_use]
pub fn plane_weight(r: u32, bits: u32) -> i32 {
    assert!(r < bits, "plane {r} out of range for {bits}-bit values");
    if r == 0 {
        -(1i32 << (bits - 1))
    } else {
        1i32 << (bits - 1 - r)
    }
}

/// Maximum total contribution of the planes still unknown after round `r`
/// (planes `r+1 .. bits`), i.e. `U_r = 2^(bits-1-r) - 1`.
///
/// All unknown planes carry non-negative weight, so each element's missing
/// contribution lies in `[0, uncertainty_span(r, bits)]`.
///
/// # Panics
///
/// Panics if `r >= bits`.
///
/// # Example
///
/// ```
/// // After only the sign plane of an 8-bit value, 127 is still in play.
/// assert_eq!(pade_quant::uncertainty_span(0, 8), 127);
/// // After the LSB nothing is unknown.
/// assert_eq!(pade_quant::uncertainty_span(7, 8), 0);
/// ```
#[must_use]
pub fn uncertainty_span(r: u32, bits: u32) -> i32 {
    assert!(r < bits, "plane {r} out of range for {bits}-bit values");
    (1i32 << (bits - 1 - r)) - 1
}

/// Packs a boolean-per-dimension sequence into 64-bit words: bit `i` is
/// bit `i % 64` of word `i / 64`, and padding bits past the sequence stay
/// clear. The result is what [`PlaneRow::from_words`] views as a plane of
/// the sequence's length.
///
/// # Example
///
/// ```
/// use pade_quant::{pack_bits, PlaneRow};
///
/// let words = pack_bits([true, false, true]);
/// assert_eq!(words, vec![0b101]);
/// let plane = PlaneRow::from_words(&words, 3).unwrap();
/// assert_eq!(plane.count_ones(), 2);
/// ```
pub fn pack_bits<I: IntoIterator<Item = bool>>(bits: I) -> Vec<u64> {
    let mut words = Vec::new();
    for (i, b) in bits.into_iter().enumerate() {
        if i % 64 == 0 {
            words.push(0);
        }
        if b {
            words[i / 64] |= 1 << (i % 64);
        }
    }
    words
}

/// One bit plane of one token vector: a packed bitvector over the hidden
/// dimension, viewed in place inside a [`BitPlaneMatrix`]'s word slab.
///
/// Bit `i` is set when dimension `i` of the token has a `1` in this plane.
/// A view is `Copy`; its words borrow the matrix that owns them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneRow<'a> {
    words: &'a [u64],
    len: usize,
    /// Population count of `words`, cached by the owning matrix so mode
    /// choices (ones vs. zeros streaming) and popcount kernels never
    /// re-scan the packed words. Derived from `words`, so the derived
    /// `PartialEq` stays consistent.
    ones: u32,
}

impl<'a> PlaneRow<'a> {
    /// Views packed 64-bit words as a plane of `len` dimensions — the
    /// inverse of [`PlaneRow::words`]. The ones count is computed from the
    /// words, so a round trip through `words()` → `from_words` is
    /// `==`-identical to the original row.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::DimensionMismatch`] when the word count is
    /// not exactly `⌈len / 64⌉` or a padding bit past `len` is set (tail
    /// garbage would corrupt word-level popcount kernels).
    pub fn from_words(words: &'a [u64], len: usize) -> Result<Self, QuantError> {
        if words.len() != len.div_ceil(64) {
            return Err(QuantError::DimensionMismatch {
                expected: len.div_ceil(64),
                actual: words.len(),
            });
        }
        let ones = words.iter().map(|w| w.count_ones()).sum();
        let row = Self { words, len, ones };
        if !row.tail_is_clear() {
            return Err(QuantError::DimensionMismatch { expected: len, actual: len + 1 });
        }
        Ok(row)
    }

    /// `true` when all padding bits beyond [`PlaneRow::len`] are zero — the
    /// invariant word-level popcount kernels depend on. Always `true` for
    /// planes of a [`BitPlaneMatrix`]; exposed so tests can pin it.
    #[must_use]
    pub fn tail_is_clear(&self) -> bool {
        tail_is_clear(self.words, self.len)
    }

    /// Number of dimensions covered by this plane.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the plane covers zero dimensions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of bounds ({} dims)", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits (`1`s) in the plane. Cached at construction —
    /// `O(1)`, never re-scans the packed words.
    #[must_use]
    pub fn count_ones(&self) -> u32 {
        self.ones
    }

    /// Number of clear bits (`0`s) in the plane.
    #[must_use]
    pub fn count_zeros(&self) -> u32 {
        self.len as u32 - self.count_ones()
    }

    /// Iterates over the indices of set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + 'a {
        let row = *self;
        (0..row.len).filter(move |&i| row.bit(i))
    }

    /// Dot product of this plane against a query row: `Σ_{bit_i=1} q_i`
    /// (unweighted; the caller applies [`plane_weight`]).
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != self.len()`.
    #[must_use]
    pub fn masked_sum(&self, q: &[i8]) -> i32 {
        assert_eq!(q.len(), self.len, "query length must match plane length");
        let mut acc = 0i32;
        for (w, chunk) in self.words.iter().zip(q.chunks(64)) {
            let mut bits = *w;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                acc += i32::from(chunk[i]);
                bits &= bits - 1;
            }
        }
        acc
    }

    /// Payload size of the plane in bits (one bit per dimension).
    #[must_use]
    pub fn payload_bits(&self) -> usize {
        self.len
    }

    /// The packed 64-bit words backing the plane (bit `i` of the plane is
    /// bit `i % 64` of word `i / 64`; bits past [`PlaneRow::len`] are
    /// zero). Exposed so hot kernels can use word-level popcounts and
    /// table lookups instead of per-bit [`PlaneRow::bit`] calls.
    #[must_use]
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Bytes of packed words backing this plane.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.words)
    }

    /// Number of set bits within positions `[start, end)` (clipped to the
    /// plane length) — the word-level form of counting [`PlaneRow::bit`]
    /// hits over a range.
    #[must_use]
    pub fn count_ones_in_range(&self, start: usize, end: usize) -> u32 {
        let end = end.min(self.len);
        if start >= end {
            return 0;
        }
        let mut count = 0u32;
        let mut pos = start;
        while pos < end {
            let word = self.words[pos / 64];
            let offset = pos % 64;
            let take = (64 - offset).min(end - pos);
            let mask = if take == 64 { !0u64 } else { ((1u64 << take) - 1) << offset };
            count += (word & mask).count_ones();
            pos += take;
        }
        count
    }
}

/// `true` when no bit past `len` is set in the last of `words`.
fn tail_is_clear(words: &[u64], len: usize) -> bool {
    match (len % 64, words.last()) {
        (0, _) | (_, None) => true,
        (tail, Some(last)) => last & !((1u64 << tail) - 1) == 0,
    }
}

/// `Σ popcount(a[i] & b[i])` over two equal-length word slices.
///
/// The default build keeps the obvious scalar loop; the `simd` feature
/// switches to an unrolled form with independent accumulators so the
/// optimizer can keep multiple popcounts in flight (and auto-vectorize
/// where the target supports it). Both forms are exact and bit-identical.
#[cfg(not(feature = "simd"))]
#[must_use]
pub fn and_popcount_words(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x & y).count_ones()).sum()
}

/// `Σ popcount(a[i] & b[i])` over two equal-length word slices (unrolled
/// `simd`-feature build; see the non-`simd` doc for the contract).
#[cfg(feature = "simd")]
#[must_use]
pub fn and_popcount_words(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0u32; 4];
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        acc[0] += (ca[0] & cb[0]).count_ones();
        acc[1] += (ca[1] & cb[1]).count_ones();
        acc[2] += (ca[2] & cb[2]).count_ones();
        acc[3] += (ca[3] & cb[3]).count_ones();
    }
    let tail: u32 = chunks_a
        .remainder()
        .iter()
        .zip(chunks_b.remainder())
        .map(|(x, y)| (x & y).count_ones())
        .sum();
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Packs `values` into `bits` MSB-first planes of `⌈n/64⌉` words each,
/// written plane-major into `out` (which must be zeroed): bit `i % 64` of
/// word `i / 64` of plane `r` is bit `bits − 1 − r` of value `i`'s
/// two's-complement pattern. Padding bits past `values.len()` stay clear.
///
/// Eight values are transposed at a time: their bytes load as one `u64`,
/// `(x >> k) & 0x0101…01` keeps bit `k` of every byte, and multiplying by
/// `0x0102_0408_1020_4080` gathers those eight bits into the top byte
/// (every partial product lands on its own bit, so nothing carries).
/// Values must already fit `bits` bits, so bits `k < bits` of the `i8`
/// pattern are exactly the two's-complement bits.
fn pack_plane_words(values: &[i8], bits: u32, out: &mut [u64]) {
    const LOW_BITS: u64 = 0x0101_0101_0101_0101;
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let stride = values.len().div_ceil(64);
    for (g, group) in values.chunks(8).enumerate() {
        let mut bytes = [0u8; 8];
        for (b, &v) in bytes.iter_mut().zip(group) {
            *b = v as u8;
        }
        let x = u64::from_le_bytes(bytes);
        let (word, shift) = (g / 8, (g % 8) * 8);
        for (k, plane) in (0..bits).rev().zip(out.chunks_exact_mut(stride)) {
            let gathered = ((x >> k) & LOW_BITS).wrapping_mul(GATHER) >> 56;
            plane[word] |= gathered << shift;
        }
    }
}

/// All bit planes of one token vector, MSB first: a `Copy` view into a
/// [`BitPlaneMatrix`]'s word slab.
///
/// # Example
///
/// ```
/// use pade_quant::BitPlaneMatrix;
///
/// let m = BitPlaneMatrix::from_rows(&[5, -5], 2, 8).unwrap();
/// let planes = m.token(0);
/// assert_eq!(planes.reconstruct(), vec![5, -5]);
/// // Sign plane of -5 is set, of +5 is clear.
/// assert!(!planes.plane(0).bit(0));
/// assert!(planes.plane(0).bit(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenPlanes<'a> {
    /// `bits` planes of `⌈dims/64⌉` words each, MSB first.
    words: &'a [u64],
    /// Ones count of each plane.
    ones: &'a [u32],
    dims: usize,
}

impl<'a> TokenPlanes<'a> {
    /// Bit width of the decomposed values.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.ones.len() as u32
    }

    /// Number of hidden dimensions.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Plane `r` (0 = sign plane).
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.bits()`.
    #[must_use]
    pub fn plane(&self, r: u32) -> PlaneRow<'a> {
        let (r, stride) = (r as usize, self.dims.div_ceil(64));
        PlaneRow {
            words: &self.words[r * stride..(r + 1) * stride],
            len: self.dims,
            ones: self.ones[r],
        }
    }

    /// Bytes of packed plane words held for this token — the unit the
    /// serving-side cache budget bills per token.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.words)
    }

    /// Reassembles the original integers from the planes — the identity of
    /// Eq. 2, used as the crate's primary self-check.
    #[must_use]
    pub fn reconstruct(&self) -> Vec<i32> {
        let mut out = vec![0i32; self.dims];
        for r in 0..self.bits() {
            let w = plane_weight(r, self.bits());
            for i in self.plane(r).iter_ones() {
                out[i] += w;
            }
        }
        out
    }
}

/// Bit planes for a whole key matrix (`tokens × dims`), MSB first.
///
/// This is the decomposed form of the key tensor in PADE. Where planes
/// live in DRAM, and so what one plane fetch costs, is modeled by
/// `pade_mem::KeyLayout` (the paper's bit-plane-interleaved layout,
/// Fig. 22); on the host the matrix keeps every plane in one contiguous
/// word slab, token-major then plane-major (MSB first), `⌈dims/64⌉` words
/// per plane, with a parallel array of per-plane ones counts.
/// [`BitPlaneMatrix::token`] and [`TokenPlanes::plane`] return `Copy`
/// views into that slab, so decomposing a matrix allocates per matrix,
/// never per token or plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPlaneMatrix {
    /// Token-major, then plane-major packed words.
    words: Vec<u64>,
    /// Ones count of every plane, in slab order.
    ones: Vec<u32>,
    bits: u32,
    dims: usize,
}

impl BitPlaneMatrix {
    /// An empty matrix of the given shape (not validated).
    pub(crate) fn empty(dims: usize, bits: u32) -> Self {
        Self { words: Vec::new(), ones: Vec::new(), bits, dims }
    }

    /// Rejects widths outside `2..=8` and `dims == 0`.
    pub(crate) fn check_shape(dims: usize, bits: u32) -> Result<(), QuantError> {
        if !(2..=8).contains(&bits) {
            return Err(QuantError::UnsupportedWidth { bits });
        }
        if dims == 0 {
            return Err(QuantError::DimensionMismatch { expected: 1, actual: 0 });
        }
        Ok(())
    }

    /// Decomposes every row of a row-major integer matrix.
    ///
    /// Values are interpreted in `bits`-wide two's complement; they must
    /// fit (this holds by construction for codes produced by
    /// [`QuantParams`](crate::QuantParams) of the same width). A single
    /// row decomposes into a 1-token matrix.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::DimensionMismatch`] when `data.len()` is not a
    /// multiple of `dims`, or [`QuantError::UnsupportedWidth`] for a width
    /// outside `2..=8`.
    ///
    /// # Panics
    ///
    /// Panics if a value does not fit in `bits` two's-complement bits (a
    /// caller contract violation rather than a data-dependent condition).
    pub fn from_rows(data: &[i8], dims: usize, bits: u32) -> Result<Self, QuantError> {
        Self::check_shape(dims, bits)?;
        let mut m = Self::empty(dims, bits);
        m.append_rows(data)?;
        Ok(m)
    }

    /// Adopts an already-packed word slab in this matrix's layout — the
    /// inverse of [`BitPlaneMatrix::words`], used by the spill tier and
    /// the cache image to re-adopt serialized planes without
    /// re-decomposing any values. The ones counts are recomputed from the
    /// words, so a round trip is `==`-identical to the original matrix.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedWidth`] for a width outside `2..=8`
    /// and [`QuantError::DimensionMismatch`] for `dims == 0`, a word count
    /// that is not a whole number of tokens, or a padding bit set past
    /// `dims` in any plane (tail garbage would corrupt word-level popcount
    /// kernels).
    pub fn from_words(words: Vec<u64>, dims: usize, bits: u32) -> Result<Self, QuantError> {
        Self::check_shape(dims, bits)?;
        let stride = dims.div_ceil(64);
        let per_token = stride * bits as usize;
        if !words.len().is_multiple_of(per_token) {
            return Err(QuantError::DimensionMismatch {
                expected: words.len().next_multiple_of(per_token),
                actual: words.len(),
            });
        }
        let mut ones = Vec::with_capacity(words.len() / stride);
        for plane in words.chunks_exact(stride) {
            if !tail_is_clear(plane, dims) {
                return Err(QuantError::DimensionMismatch { expected: dims, actual: dims + 1 });
            }
            ones.push(plane.iter().map(|w| w.count_ones()).sum());
        }
        Ok(Self { words, ones, bits, dims })
    }

    /// Decomposes and appends more token rows in place. Existing tokens are
    /// untouched — indices of already-stored tokens never change.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::DimensionMismatch`] when `data.len()` is not a
    /// multiple of this matrix's `dims` (no rows are appended in that case).
    ///
    /// # Panics
    ///
    /// Panics if a value does not fit in this matrix's width.
    pub fn append_rows(&mut self, data: &[i8]) -> Result<(), QuantError> {
        if !data.len().is_multiple_of(self.dims) {
            return Err(QuantError::DimensionMismatch { expected: self.dims, actual: data.len() });
        }
        let lo = -(1i32 << (self.bits - 1));
        let hi = (1i32 << (self.bits - 1)) - 1;
        for &v in data {
            assert!(
                (lo..=hi).contains(&i32::from(v)),
                "value {v} does not fit in {}-bit two's complement",
                self.bits
            );
        }
        let stride = self.dims.div_ceil(64);
        let per_token = stride * self.bits as usize;
        let start = self.words.len();
        self.words.resize(start + data.len() / self.dims * per_token, 0);
        self.ones.reserve(data.len() / self.dims * self.bits as usize);
        for (row, out) in
            data.chunks(self.dims).zip(self.words[start..].chunks_exact_mut(per_token))
        {
            pack_plane_words(row, self.bits, out);
            self.ones.extend(
                out.chunks_exact(stride).map(|p| p.iter().map(|w| w.count_ones()).sum::<u32>()),
            );
        }
        Ok(())
    }

    /// Appends a copy of one token's planes.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::DimensionMismatch`] when the token's shape
    /// differs from this matrix's `dims`/`bits`.
    pub fn push_token(&mut self, token: TokenPlanes<'_>) -> Result<(), QuantError> {
        if token.dims() != self.dims || token.bits() != self.bits {
            return Err(QuantError::DimensionMismatch {
                expected: self.dims,
                actual: token.dims(),
            });
        }
        self.words.extend_from_slice(token.words);
        self.ones.extend_from_slice(token.ones);
        Ok(())
    }

    /// Releases spare slab capacity left by amortized growth.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.words.shrink_to_fit();
        self.ones.shrink_to_fit();
    }

    /// Number of tokens (rows).
    #[must_use]
    pub fn tokens(&self) -> usize {
        self.ones.len() / self.bits as usize
    }

    /// Number of hidden dimensions per token.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Bit width of the decomposition.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// All planes of token `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.tokens()`.
    #[must_use]
    pub fn token(&self, j: usize) -> TokenPlanes<'_> {
        let bits = self.bits as usize;
        let per_token = bits * self.dims.div_ceil(64);
        TokenPlanes {
            words: &self.words[j * per_token..(j + 1) * per_token],
            ones: &self.ones[j * bits..(j + 1) * bits],
            dims: self.dims,
        }
    }

    /// The whole word slab: every token, every plane MSB first,
    /// `⌈dims/64⌉` words per plane.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Bytes occupied by a single bit plane of a single token, rounded up to
    /// whole bytes (what one OOE bit-plane fetch transfers).
    #[must_use]
    pub fn plane_bytes(&self) -> usize {
        self.dims.div_ceil(8)
    }

    /// Bytes of packed plane words held by this matrix — what a cache
    /// manager bills for keeping the decomposed tensor resident. Every
    /// token stores `bits` planes of `⌈dims/64⌉` words, so this is pure
    /// arithmetic (a budget check must stay off the hot path's critical
    /// cost).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.tokens() * self.bits as usize * self.dims.div_ceil(64) * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One token's decomposition: a 1-token matrix.
    fn one(values: &[i8], bits: u32) -> BitPlaneMatrix {
        BitPlaneMatrix::from_rows(values, values.len(), bits).unwrap()
    }

    #[test]
    fn plane_weights_sum_to_minus_one() {
        // All-ones pattern is -1 in two's complement.
        let total: i32 = (0..8).map(|r| plane_weight(r, 8)).sum();
        assert_eq!(total, -1);
        let total4: i32 = (0..4).map(|r| plane_weight(r, 4)).sum();
        assert_eq!(total4, -1);
    }

    #[test]
    fn uncertainty_span_matches_remaining_weights() {
        for bits in 2..=8u32 {
            for r in 0..bits {
                let remaining: i32 = (r + 1..bits).map(|i| plane_weight(i, bits)).sum();
                assert_eq!(uncertainty_span(r, bits), remaining);
            }
        }
    }

    #[test]
    fn paper_fig5a_example_msb_speculation() {
        // Fig. 5(a): 4-bit MSB-only speculation of (+5)*(+5) + (+5)*(-5).
        // MSB plane of 0101 (+5) is 0 -> conservative value 0; MSB plane of
        // 1011 (-5) is 1 -> conservative value -8. Estimated: 5*0 + 5*(-8) = -40.
        let m = one(&[5, -5], 4);
        let k = m.token(0);
        let msb = k.plane(0);
        let est = plane_weight(0, 4) * msb.masked_sum(&[5, 5]);
        assert_eq!(est, -40);
        // True result is 0; with all planes the reconstruction is exact.
        let q = [5i32, 5];
        let truth: i32 = k.reconstruct().iter().zip(q.iter()).map(|(a, b)| a * b).sum();
        assert_eq!(truth, 0);
    }

    #[test]
    fn masked_sum_counts_selected_queries() {
        let words = pack_bits([true, false, true, true]);
        let plane = PlaneRow::from_words(&words, 4).unwrap();
        assert_eq!(plane.masked_sum(&[1, 2, 3, 4]), 8);
        assert_eq!(plane.count_ones(), 3);
        assert_eq!(plane.count_zeros(), 1);
    }

    #[test]
    fn plane_row_across_word_boundary() {
        let bits: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let words = pack_bits(bits.iter().copied());
        let plane = PlaneRow::from_words(&words, 130).unwrap();
        assert_eq!(plane.len(), 130);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(plane.bit(i), b, "bit {i}");
        }
        let q: Vec<i8> = (0..130).map(|i| (i % 7) as i8 - 3).collect();
        let expect: i32 =
            bits.iter().zip(&q).filter(|(b, _)| **b).map(|(_, &v)| i32::from(v)).sum();
        assert_eq!(plane.masked_sum(&q), expect);
    }

    #[test]
    fn matrix_round_trip() {
        let data: Vec<i8> = vec![6, -5, 9, -4, 127, -128, 0, 1];
        let m = BitPlaneMatrix::from_rows(&data, 4, 8).unwrap();
        assert_eq!(m.tokens(), 2);
        assert_eq!(m.plane_bytes(), 1);
        let rec: Vec<i32> = (0..2).flat_map(|j| m.token(j).reconstruct()).collect();
        assert_eq!(rec, data.iter().map(|&v| i32::from(v)).collect::<Vec<_>>());
    }

    #[test]
    fn matrix_rejects_ragged_data() {
        assert!(BitPlaneMatrix::from_rows(&[1, 2, 3], 2, 8).is_err());
        assert!(BitPlaneMatrix::from_rows(&[1, 2], 0, 8).is_err());
    }

    #[test]
    fn from_words_rejects_bad_shapes() {
        // Wrong word count for the claimed length.
        assert!(PlaneRow::from_words(&[0u64; 2], 64).is_err());
        assert!(PlaneRow::from_words(&[], 1).is_err());
        // Tail garbage past len.
        assert!(PlaneRow::from_words(&[0b100], 2).is_err());
        // Exact fit round-trips.
        let row = PlaneRow::from_words(&[0b011], 2).unwrap();
        assert_eq!(row.count_ones(), 2);
    }

    #[test]
    fn matrix_from_words_rejects_bad_shapes() {
        assert!(BitPlaneMatrix::from_words(vec![0; 2], 4, 1).is_err(), "1 plane < 2 bits");
        assert!(BitPlaneMatrix::from_words(vec![0; 9], 4, 9).is_err(), "9 planes > 8 bits");
        assert!(BitPlaneMatrix::from_words(vec![0; 2], 0, 2).is_err(), "zero dims");
        assert!(BitPlaneMatrix::from_words(vec![0; 3], 4, 2).is_err(), "ragged token");
        assert!(BitPlaneMatrix::from_words(vec![0, 0b1_0000], 4, 2).is_err(), "tail garbage");
        assert!(BitPlaneMatrix::from_words(vec![0; 3], 65, 2).is_err(), "ragged 2-word plane");
        let m = BitPlaneMatrix::from_words(vec![0b1111, 0b0101, 0, 0b1], 4, 2).unwrap();
        assert_eq!((m.tokens(), m.bits(), m.dims()), (2, 2, 4));
        assert_eq!(m.token(0).reconstruct(), vec![-1, -2, -1, -2]);
        assert_eq!(m.token(1).plane(1).count_ones(), 1);
    }

    proptest! {
        #[test]
        fn prop_words_round_trip_is_identical(
            values in proptest::collection::vec(any::<i8>(), 1..200),
            bits in 2u32..=8,
        ) {
            // Fold the full i8 range into the width (arithmetic shift keeps
            // two's-complement semantics), decompose, then rebuild every
            // plane and the matrix from serialized words alone.
            let narrowed: Vec<i8> = values.iter().map(|&v| v >> (8 - bits)).collect();
            let m = one(&narrowed, bits);
            let token = m.token(0);
            for r in 0..bits {
                let p = token.plane(r);
                prop_assert_eq!(PlaneRow::from_words(p.words(), p.len()).unwrap(), p);
            }
            let rebuilt = BitPlaneMatrix::from_words(m.words().to_vec(), narrowed.len(), bits).unwrap();
            prop_assert_eq!(&rebuilt, &m);
            prop_assert_eq!(rebuilt.token(0).reconstruct(), token.reconstruct());
        }

        #[test]
        fn prop_reconstruction_is_exact_int8(values in proptest::collection::vec(any::<i8>(), 1..200)) {
            let rec = one(&values, 8).token(0).reconstruct();
            prop_assert_eq!(rec, values.iter().map(|&v| i32::from(v)).collect::<Vec<_>>());
        }

        #[test]
        fn prop_reconstruction_is_exact_int4(values in proptest::collection::vec(-8i8..=7, 1..100)) {
            let rec = one(&values, 4).token(0).reconstruct();
            prop_assert_eq!(rec, values.iter().map(|&v| i32::from(v)).collect::<Vec<_>>());
        }

        #[test]
        fn prop_partial_scores_converge_msb_first(
            q in proptest::collection::vec(any::<i8>(), 1..64),
            seed in any::<u64>(),
        ) {
            // Partial score after all planes equals the exact dot product.
            let k: Vec<i8> = q.iter().enumerate()
                .map(|(i, _)| ((seed.wrapping_mul(i as u64 + 1).wrapping_add(i as u64 * 7919)) % 256) as u8 as i8)
                .collect();
            let m = one(&k, 8);
            let planes = m.token(0);
            let exact: i32 = q.iter().zip(&k).map(|(&a, &b)| i32::from(a) * i32::from(b)).sum();
            let mut partial = 0i32;
            for r in 0..8u32 {
                partial += plane_weight(r, 8) * planes.plane(r).masked_sum(&q);
            }
            prop_assert_eq!(partial, exact);
        }

        #[test]
        fn prop_tail_bits_past_len_are_always_zero(
            seed in any::<u64>(),
            base in 0usize..4,
            tail_idx in 0usize..3,
        ) {
            // Shapes with len % 64 ∈ {0, 1, 63} exercise empty, minimal and
            // nearly-full tail words.
            let len = base * 64 + [0usize, 1, 63][tail_idx];
            let bits: Vec<bool> =
                (0..len).map(|i| seed.wrapping_mul(i as u64 + 1).wrapping_add(i as u64).is_multiple_of(3)).collect();
            let words = pack_bits(bits.iter().copied());
            let plane = PlaneRow::from_words(&words, len).unwrap();
            prop_assert!(plane.tail_is_clear());
            let expected_ones = bits.iter().filter(|&&b| b).count() as u32;
            prop_assert_eq!(plane.count_ones(), expected_ones);
            if len > 0 {
                prop_assert_eq!(plane.count_zeros(), len as u32 - expected_ones);
            }
        }

        #[test]
        fn prop_and_popcount_matches_bitwise_intersection(
            seed_a in any::<u64>(),
            seed_b in any::<u64>(),
            base in 0usize..3,
            tail_idx in 0usize..3,
        ) {
            let len = base * 64 + [0usize, 1, 63][tail_idx];
            let a_bits: Vec<bool> = (0..len).map(|i| seed_a.wrapping_mul(i as u64 + 3).is_multiple_of(2)).collect();
            let b_bits: Vec<bool> = (0..len).map(|i| seed_b.wrapping_mul(i as u64 + 5).is_multiple_of(2)).collect();
            let (a, b) = (pack_bits(a_bits.iter().copied()), pack_bits(b_bits.iter().copied()));
            let expect = a_bits.iter().zip(&b_bits).filter(|(x, y)| **x && **y).count() as u32;
            prop_assert_eq!(and_popcount_words(&a, &b), expect);
            prop_assert_eq!(and_popcount_words(&b, &a), expect);
        }

        #[test]
        fn prop_unknown_bits_bounded_by_span(v in any::<i8>(), r in 0u32..8) {
            // The value formed by zeroing unknown planes differs from the true
            // value by at most U_r, and never exceeds it.
            let m = one(&[v], 8);
            let planes = m.token(0);
            let mut known = 0i32;
            for p in 0..=r {
                if planes.plane(p).bit(0) {
                    known += plane_weight(p, 8);
                }
            }
            let diff = i32::from(v) - known;
            prop_assert!(diff >= 0);
            prop_assert!(diff <= uncertainty_span(r, 8));
        }
    }
}
