//! Key plane storage: the tier chunk and cache image formats stay
//! byte-stable, decomposition allocates per matrix rather than per token,
//! and the wire loaders grow their buffers with the stream instead of
//! reserving what an untrusted header claims.
//!
//! Allocations are counted by a per-thread global allocator, so tests
//! running in parallel never see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pade::cache::{CacheConfig, KvCacheManager};
use pade::quant::{BitPlaneMatrix, GrowableKeyCache};
use pade_tier::{wire, write_chunk, ChunkRecord};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: allocations during thread teardown are simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every call forwards unchanged to `System`; the counters are
// const-initialized thread-locals without destructors, so recording
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result, the number of allocations it made on
/// this thread and the largest single allocation in bytes.
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, usize) {
    LARGEST.with(|c| c.set(0));
    let n0 = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - n0, LARGEST.with(Cell::get))
}

/// Deterministic `bits`-wide two's-complement values.
fn values(n: usize, bits: u32, seed: u64) -> Vec<i8> {
    let span = 1u64 << bits;
    (0..n as u64)
        .map(|i| {
            let h = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
            ((h % span) as i64 - (span / 2) as i64) as i8
        })
        .collect()
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn tier_chunk_bytes_are_pinned() {
    let cases = [
        (64usize, 4u32, 0xca64_85e2_bc95_fcb1u64),
        (64, 8, 0xfe86_edeb_5c3a_1b9b),
        (65, 4, 0xcf26_dcd9_5478_2d11),
        (65, 8, 0x2716_006d_1c90_619e),
    ];
    for (dims, bits, expected) in cases {
        let tokens = 5;
        let planes =
            BitPlaneMatrix::from_rows(&values(tokens * dims, bits, 7), dims, bits).unwrap();
        let record = ChunkRecord {
            key: 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210,
            parent: (bits == 8).then_some(42),
            ids: (0..tokens as u32).map(|i| i * 31 + 5).collect::<Vec<_>>().into(),
            planes: Arc::new(planes),
        };
        let mut bytes = Vec::new();
        write_chunk(&mut bytes, &record).unwrap();
        assert_eq!(fnv1a(&bytes), expected, "dims {dims}, bits {bits}: {:#x}", fnv1a(&bytes));
    }
}

#[test]
fn cache_image_bytes_are_pinned() {
    let (dims, bits) = (65, 8);
    let mut manager = KvCacheManager::new(CacheConfig::new(dims, bits, 4)).unwrap();
    let shared: Vec<u32> = (0..9).collect();
    for session in 0..3u64 {
        let mut ids = shared.clone();
        ids.extend((0..6).map(|i| 100 * (session as u32 + 1) + i));
        let rows: Vec<i8> = ids.iter().flat_map(|&id| values(dims, bits, u64::from(id))).collect();
        let attached = manager.attach(session, &ids, &rows).unwrap();
        manager.detach(session, ids.into(), attached.cache, attached.lease);
    }
    let path = std::env::temp_dir().join(format!("pade-plane-storage-{}.kvc", std::process::id()));
    manager.save_to(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(fnv1a(&bytes), 0x8c11_dd65_1e64_a4fc, "{:#x}", fnv1a(&bytes));
}

#[test]
fn loaders_grow_with_the_stream_not_the_header() {
    // A header claiming 2^24 entries followed by EOF: 64 MiB of ids or
    // 1 GiB of plane words if the loader believed it up front.
    let claim = (1u64 << 24).to_le_bytes();
    let (ids, _, largest) = measure(|| wire::read_ids(&mut &claim[..]));
    assert!(ids.is_err());
    assert!(largest <= 1 << 20, "read_ids reserved {largest} bytes");
    let (planes, _, largest) = measure(|| wire::read_planes(&mut &claim[..], 64, 8));
    assert!(planes.is_err());
    assert!(largest <= 1 << 20, "read_planes reserved {largest} bytes");
}

#[test]
fn decomposition_allocates_per_matrix_not_per_token() {
    let (dims, bits) = (64, 8);
    let from_rows = |tokens: usize| {
        let data = values(tokens * dims, bits, 1);
        measure(|| BitPlaneMatrix::from_rows(&data, dims, bits).unwrap()).1
    };
    let (small, large) = (from_rows(256), from_rows(1024));
    assert_eq!(small, large, "from_rows allocations grow with tokens");
    assert!(small <= 4, "from_rows made {small} allocations");

    // Chunks wider than either size: every token lands in the open tail.
    let grown = |tokens: usize| {
        let data = values(tokens * dims, bits, 2);
        let mut cache = GrowableKeyCache::new(dims, bits, 4096).unwrap();
        measure(|| {
            cache.append_rows(&data).unwrap();
            cache.snapshot()
        })
        .1
    };
    let (small, large) = (grown(256), grown(1024));
    assert_eq!(small, large, "append_rows + snapshot allocations grow with tokens");
    assert!(small <= 8, "append_rows + snapshot made {small} allocations");
}
