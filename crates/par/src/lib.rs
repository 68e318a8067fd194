//! Deterministic ordered fork-join fan-out.
//!
//! The build environment is offline, so this crate stands in for `rayon`
//! with the two primitives the workspace's `parallel` features need:
//! ordered parallel map over an index range / slice, and disjoint-chunk
//! parallel mutation. Work is split into one contiguous range per worker
//! on `std::thread::scope`, the calling thread working the first range
//! itself; results are concatenated in range order, so
//! output ordering (and therefore every downstream reduction) is
//! identical to the sequential loop regardless of thread count or
//! scheduling. Swap for `rayon` when a registry is reachable.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::thread;

/// Worker-thread budget: `PADE_THREADS` if set, else the machine's
/// available parallelism.
#[must_use]
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var("PADE_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Splits `0..n` into at most `workers` contiguous ranges of near-equal
/// length (never empty).
fn split_ranges(n: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.clamp(1, n.max(1));
    let base = n / workers;
    let extra = n % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        if len == 0 {
            break;
        }
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Ordered parallel map over `0..n`: returns `[f(0), f(1), ..., f(n-1)]`.
///
/// Falls back to a sequential loop for a single worker or tiny `n`, so
/// the result is always identical to `(0..n).map(f).collect()`.
pub fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = max_threads();
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    // The calling thread takes the first range itself: one spawn fewer
    // per dispatch, and the output order is unchanged.
    let ranges = split_ranges(n, workers);
    let (&(lo, hi), rest) = ranges.split_first().expect("n > 1 yields a range");
    thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter()
            .map(|&(lo, hi)| {
                let f = &f;
                scope.spawn(move || (lo..hi).map(f).collect::<Vec<R>>())
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        out.extend((lo..hi).map(&f));
        for h in handles {
            out.extend(h.join().expect("pade-par worker panicked"));
        }
        out
    })
}

/// Ordered parallel map over a slice.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// Applies `f(chunk_index, chunk)` to disjoint `chunk_len`-sized pieces of
/// `data` in parallel (last chunk may be shorter). Chunks are disjoint
/// `&mut` borrows, so this is safe without any synchronization.
///
/// # Panics
///
/// Panics if `chunk_len == 0`.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk length must be positive");
    let workers = max_threads();
    if workers <= 1 || data.len() <= chunk_len {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let per_worker = data.len().div_ceil(chunk_len).div_ceil(workers);
    // As in `par_map_indexed`, the calling thread works the first piece.
    let (first, mut rest) = data.split_at_mut((per_worker * chunk_len).min(data.len()));
    thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut next_index = per_worker;
        while !rest.is_empty() {
            let take = (per_worker * chunk_len).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let base = next_index;
            next_index += head.len().div_ceil(chunk_len);
            let f = &f;
            handles.push(scope.spawn(move || {
                for (i, chunk) in head.chunks_mut(chunk_len).enumerate() {
                    f(base + i, chunk);
                }
            }));
        }
        for (i, chunk) in first.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        for h in handles {
            h.join().expect("pade-par worker panicked");
        }
    });
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if max_threads() <= 1 {
        return (a(), b());
    }
    thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        (ra, hb.join().expect("pade-par worker panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let got = par_map_indexed(1000, |i| i * 3);
        let want: Vec<usize> = (0..1000).map(|i| i * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_map_over_slice() {
        let items: Vec<u32> = (0..257).collect();
        assert_eq!(par_map(&items, |&x| x + 1), (1..258).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i), vec![0]);
    }

    #[test]
    fn chunks_cover_all_elements_in_order() {
        let mut data = vec![0u64; 1003];
        par_chunks_mut(&mut data, 17, |idx, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (idx * 17 + k) as u64;
            }
        });
        let want: Vec<u64> = (0..1003).collect();
        assert_eq!(data, want);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn split_ranges_partition_exactly() {
        for n in [0usize, 1, 7, 64, 1000] {
            for w in [1usize, 2, 3, 8, 64] {
                let r = split_ranges(n, w);
                let total: usize = r.iter().map(|(a, b)| b - a).sum();
                assert_eq!(total, n, "n={n} w={w}");
                for win in r.windows(2) {
                    assert_eq!(win[0].1, win[1].0);
                }
            }
        }
    }
}
