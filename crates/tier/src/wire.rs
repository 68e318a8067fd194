//! Little-endian wire primitives shared by the spill tier's chunk
//! records and `pade-cache`'s persisted warm-start image.
//!
//! One set of encoders means the two formats cannot drift: the persist
//! image's chunk-granular records (format VERSION 2) and the tier's
//! [`ChunkRecord`](crate::ChunkRecord) files serialize planes through
//! exactly [`write_planes`]/[`read_planes`] — **packed plane words**, so
//! a reader re-adopts decomposed state by parsing `⌈dims/64⌉` words per
//! plane instead of re-running bit-plane decomposition, and the round
//! trip is `==`-identical by construction.

use std::io::{self, Read, Write};
use std::sync::Arc;

use pade_quant::BitPlaneMatrix;

/// Upper bound on what a reader reserves before data arrives: 8 Ki
/// entries (32 KiB of ids, 64 KiB of plane words). Longer payloads grow
/// as they are read, so a corrupt header claiming a huge count costs
/// nothing until the stream actually delivers that much.
const INITIAL_RESERVE: usize = 1 << 13;

/// Writes a `u32` little-endian.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes a `u64` little-endian.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes a `u128` little-endian.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_u128<W: Write>(w: &mut W, v: u128) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a little-endian `u32`.
///
/// # Errors
///
/// Propagates reader errors (including a short read).
pub fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Reads a little-endian `u64`.
///
/// # Errors
///
/// Propagates reader errors (including a short read).
pub fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Reads a little-endian `u128`.
///
/// # Errors
///
/// Propagates reader errors (including a short read).
pub fn read_u128<R: Read>(r: &mut R) -> io::Result<u128> {
    let mut buf = [0u8; 16];
    r.read_exact(&mut buf)?;
    Ok(u128::from_le_bytes(buf))
}

/// Writes a length-prefixed token-id sequence.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_ids<W: Write>(w: &mut W, ids: &[u32]) -> io::Result<()> {
    write_u64(w, ids.len() as u64)?;
    for &id in ids {
        write_u32(w, id)?;
    }
    Ok(())
}

/// Reads a length-prefixed token-id sequence. The count is bounded
/// (16 Mi ids), and the buffer grows as ids arrive, so a corrupt length
/// cannot drive a huge allocation.
///
/// # Errors
///
/// Returns `InvalidData` on an absurd count and propagates reader
/// errors.
pub fn read_ids<R: Read>(r: &mut R) -> io::Result<Vec<u32>> {
    let n = read_u64(r)?;
    if n > 1 << 24 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, format!("absurd id count {n}")));
    }
    let mut ids = Vec::with_capacity((n as usize).min(INITIAL_RESERVE));
    for _ in 0..n {
        ids.push(read_u32(r)?);
    }
    Ok(ids)
}

/// Words moved per `read_exact`/`write_all` call by the plane codecs.
const WORD_BLOCK: usize = 512;

/// Serializes a plane matrix as packed words: token count, then the
/// matrix's word slab — for every token, every plane MSB-first, the
/// plane's `⌈dims/64⌉` raw little-endian words. Shape (`dims`, `bits`)
/// is the reader's context, not repeated per record.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_planes<W: Write>(w: &mut W, planes: &BitPlaneMatrix) -> io::Result<()> {
    write_u64(w, planes.tokens() as u64)?;
    let mut buf = [0u8; 8 * WORD_BLOCK];
    for block in planes.words().chunks(WORD_BLOCK) {
        for (bytes, word) in buf.chunks_exact_mut(8).zip(block) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        w.write_all(&buf[..8 * block.len()])?;
    }
    Ok(())
}

/// Parses a [`write_planes`] stream back into a matrix of the given
/// shape — pure word parsing into one slab, no decomposition. The token
/// count is bounded (16 Mi), and the slab grows as words arrive, so a
/// corrupt length cannot drive a huge allocation.
///
/// # Errors
///
/// Returns `InvalidData` when the words violate the plane invariants
/// (tail garbage, bad shape) and propagates reader errors.
pub fn read_planes<R: Read>(r: &mut R, dims: usize, bits: u32) -> io::Result<BitPlaneMatrix> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let n_tokens = read_u64(r)?;
    if n_tokens > 1 << 24 {
        return Err(invalid(format!("absurd token count {n_tokens}")));
    }
    let total = (n_tokens as usize)
        .checked_mul(bits as usize)
        .and_then(|n| n.checked_mul(dims.div_ceil(64)))
        .ok_or_else(|| invalid(format!("absurd plane shape {n_tokens}×{bits}×{dims}")))?;
    let mut words = Vec::with_capacity(total.min(INITIAL_RESERVE));
    let mut buf = [0u8; 8 * WORD_BLOCK];
    while words.len() < total {
        let take = (total - words.len()).min(WORD_BLOCK);
        r.read_exact(&mut buf[..8 * take])?;
        words.extend(
            buf[..8 * take]
                .chunks_exact(8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk"))),
        );
    }
    words.shrink_to_fit();
    BitPlaneMatrix::from_words(words, dims, bits)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// [`write_planes`] for an `Arc`-shared matrix (the sealed-chunk form).
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_shared_planes<W: Write>(w: &mut W, planes: &Arc<BitPlaneMatrix>) -> io::Result<()> {
    write_planes(w, planes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 0xDEAD_BEEF).unwrap();
        write_u64(&mut buf, u64::MAX - 1).unwrap();
        write_u128(&mut buf, u128::MAX / 3).unwrap();
        write_ids(&mut buf, &[1, 2, 0xFFFF_FFFF]).unwrap();
        let r = &mut buf.as_slice();
        assert_eq!(read_u32(r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(read_u64(r).unwrap(), u64::MAX - 1);
        assert_eq!(read_u128(r).unwrap(), u128::MAX / 3);
        assert_eq!(read_ids(r).unwrap(), vec![1, 2, 0xFFFF_FFFF]);
        assert!(r.is_empty());
    }

    #[test]
    fn absurd_counts_are_rejected_not_allocated() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX).unwrap();
        assert!(read_ids(&mut buf.as_slice()).is_err());
        assert!(read_planes(&mut buf.as_slice(), 64, 8).is_err());
        // A legal token count whose word count overflows `usize`.
        let mut buf = Vec::new();
        write_u64(&mut buf, 1 << 24).unwrap();
        let err = read_planes(&mut buf.as_slice(), usize::MAX, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn planes_round_trip_without_decomposition() {
        let rows: Vec<i8> = (0..5 * 70).map(|i| ((i * 37) % 256) as u8 as i8).collect();
        let planes = BitPlaneMatrix::from_rows(&rows, 70, 8).unwrap();
        let mut buf = Vec::new();
        write_planes(&mut buf, &planes).unwrap();
        let back = read_planes(&mut buf.as_slice(), 70, 8).unwrap();
        assert_eq!(back, planes);
        // Short stream: truncating anywhere fails cleanly.
        assert!(read_planes(&mut buf[..buf.len() - 1].as_ref(), 70, 8).is_err());
        // A padding bit past `dims` (bit 63 of token 0's second sign-plane
        // word) is corrupt data, not a plane.
        buf[8 + 8 + 7] |= 0x80;
        let err = read_planes(&mut buf.as_slice(), 70, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
