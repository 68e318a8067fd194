//! The optimized engine loop's event queue: a calendar of one-cycle
//! buckets.
//!
//! Almost every event the engine schedules lands a few to a few hundred
//! cycles ahead (a DRAM round trip, a GSAT pass). A ring of one-cycle
//! buckets covering `[base, base + SPAN)` turns scheduling into a linked
//! list append and popping into reading the head of the earliest
//! non-empty bucket, instead of two `O(log n)` heap sifts per event.
//! Events outside the ring's window — far-future arrivals behind a deep
//! DRAM queue, or anything scheduled before the window's start — go to a
//! binary heap, and every pop takes whichever of the two holds the
//! smaller `(time, insertion)` key. The pop order is therefore exactly
//! [`pade_sim::EventQueue`]'s: time order, ties in insertion order. The
//! unit tests below check that against `EventQueue` directly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pade_sim::Cycle;

/// Cycles covered by the bucket ring (a power of two).
const SPAN: u64 = 1024;
const MASK: u64 = SPAN - 1;
/// End-of-list marker in the node links.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node<T> {
    seq: u64,
    next: u32,
    event: T,
}

/// A time-ordered queue popping in `(time, insertion)` order — the
/// contract of [`pade_sim::EventQueue`] — for `Copy` payloads.
#[derive(Debug, Clone)]
pub(crate) struct CalendarQueue<T: Copy> {
    /// First and last node of each bucket's FIFO list; bucket
    /// `t mod SPAN` holds the ring events at time `t`.
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// Node storage shared by the ring lists and the heap; freed nodes
    /// are chained through `next` from `free`.
    nodes: Vec<Node<T>>,
    free: u32,
    /// Start of the ring's window. Every ring event's time lies in
    /// `[base, base + SPAN)`; `base` only grows.
    base: u64,
    /// Search hint: no ring event lies in `[base, scan)`.
    scan: u64,
    in_ring: usize,
    /// Events outside the window when scheduled: `(time, seq, node)`.
    far: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
}

impl<T: Copy> CalendarQueue<T> {
    /// Creates an empty queue whose window starts at cycle 0.
    pub(crate) fn new() -> Self {
        Self {
            heads: vec![NIL; SPAN as usize],
            tails: vec![NIL; SPAN as usize],
            nodes: Vec::new(),
            free: NIL,
            base: 0,
            scan: 0,
            in_ring: 0,
            far: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub(crate) fn schedule(&mut self, time: Cycle, event: T) {
        let t = time.0;
        let seq = self.seq;
        self.seq += 1;
        let node = Node { seq, next: NIL, event };
        let id = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 pending events")
        } else {
            let id = self.free;
            self.free = self.nodes[id as usize].next;
            self.nodes[id as usize] = node;
            id
        };
        if t >= self.base && t - self.base < SPAN {
            let b = (t & MASK) as usize;
            match self.tails[b] {
                NIL => self.heads[b] = id,
                tail => self.nodes[tail as usize].next = id,
            }
            self.tails[b] = id;
            self.in_ring += 1;
            self.scan = self.scan.min(t);
        } else {
            self.far.push(Reverse((t, seq, id)));
        }
    }

    /// Time of the earliest ring event, advancing the search hint to it.
    fn ring_min(&mut self) -> Option<u64> {
        if self.in_ring == 0 {
            return None;
        }
        // Some bucket in `[scan, base + SPAN)` is non-empty, so this stops
        // inside the window, where each bucket holds a single time.
        while self.heads[(self.scan & MASK) as usize] == NIL {
            self.scan += 1;
        }
        Some(self.scan)
    }

    /// The firing time of the earliest pending event.
    pub(crate) fn next_time(&mut self) -> Option<Cycle> {
        let far = self.far.peek().map(|Reverse((t, _, _))| *t);
        match (self.ring_min(), far) {
            (Some(r), Some(f)) => Some(Cycle(r.min(f))),
            (r, f) => r.or(f).map(Cycle),
        }
    }

    /// Pops the oldest event whose time is `<= now`, if any.
    pub(crate) fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        let ring = self.ring_min().filter(|&t| t <= now.0).map(|t| {
            let head = self.heads[(t & MASK) as usize];
            (t, self.nodes[head as usize].seq)
        });
        let far = self.far.peek().map(|Reverse((t, s, _))| (*t, *s)).filter(|&(t, _)| t <= now.0);
        let from_ring = match (ring, far) {
            (Some(r), Some(f)) => r < f,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => {
                // Nothing is due: the window may start at `now + 1`, never
                // past the earliest ring event.
                self.base = self.base.max(self.scan.min(now.0 + 1));
                return None;
            }
        };
        let id = if from_ring {
            let b = (self.scan & MASK) as usize;
            let id = self.heads[b];
            self.heads[b] = self.nodes[id as usize].next;
            if self.heads[b] == NIL {
                self.tails[b] = NIL;
            }
            self.in_ring -= 1;
            id
        } else {
            self.far.pop().expect("peeked").0 .2
        };
        let event = self.nodes[id as usize].event;
        self.nodes[id as usize].next = self.free;
        self.free = id;
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pade_sim::EventQueue;
    use proptest::prelude::*;

    /// Drives a `CalendarQueue` and a `pade_sim::EventQueue` through the
    /// same operations and checks every pop and `next_time` agrees.
    fn check_against_event_queue(ops: &[(u64, u64)]) {
        let mut fast: CalendarQueue<usize> = CalendarQueue::new();
        let mut oracle: EventQueue<usize> = EventQueue::new();
        let mut now = 0u64;
        for (i, &(kind, arg)) in ops.iter().enumerate() {
            if kind % 3 == 0 {
                // Advance the clock and drain everything due.
                now += arg % 40;
                loop {
                    let got = fast.pop_ready(Cycle(now));
                    assert_eq!(got, oracle.pop_ready(Cycle(now)), "op {i} at cycle {now}");
                    if got.is_none() {
                        break;
                    }
                }
            } else {
                // Mostly near-future events with many same-cycle ties, some
                // beyond the ring's span, and a few in the past.
                let time = match arg % 8 {
                    0 => now + SPAN + arg % (4 * SPAN),
                    1 => now.saturating_sub(arg % 5),
                    _ => now + arg % 6,
                };
                fast.schedule(Cycle(time), i);
                oracle.schedule(Cycle(time), i);
            }
            assert_eq!(fast.next_time(), oracle.next_time(), "op {i}");
        }
        // Drain the rest far into the future.
        let end = Cycle(now + 8 * SPAN);
        loop {
            let got = fast.pop_ready(end);
            assert_eq!(got, oracle.pop_ready(end));
            if got.is_none() {
                break;
            }
        }
        assert_eq!(fast.next_time(), None);
        assert!(oracle.is_empty());
    }

    #[test]
    fn same_cycle_ties_pop_in_insertion_order() {
        let mut q = CalendarQueue::new();
        for i in 0..5 {
            q.schedule(Cycle(3), i);
        }
        q.schedule(Cycle(2), 9);
        assert_eq!(q.next_time(), Some(Cycle(2)));
        assert_eq!(q.pop_ready(Cycle(2)), Some(9));
        assert_eq!(q.pop_ready(Cycle(2)), None);
        for i in 0..5 {
            assert_eq!(q.pop_ready(Cycle(3)), Some(i));
        }
        assert_eq!(q.pop_ready(Cycle(100)), None);
    }

    #[test]
    fn events_beyond_the_span_keep_their_order() {
        // Same-time events split between the heap (scheduled while the
        // time was beyond the window) and the ring (scheduled after the
        // window moved): the heap's, inserted first, pop first.
        let mut q = CalendarQueue::new();
        let far = Cycle(SPAN + 10);
        q.schedule(far, 0);
        q.schedule(Cycle(20), 1);
        assert_eq!(q.pop_ready(Cycle(20)), Some(1));
        assert_eq!(q.pop_ready(Cycle(20)), None);
        q.schedule(far, 2);
        q.schedule(Cycle(SPAN + 9), 3);
        assert_eq!(q.next_time(), Some(Cycle(SPAN + 9)));
        assert_eq!(q.pop_ready(far), Some(3));
        assert_eq!(q.pop_ready(far), Some(0));
        assert_eq!(q.pop_ready(far), Some(2));
        assert_eq!(q.pop_ready(far), None);
    }

    proptest! {
        #[test]
        fn pops_in_the_same_order_as_the_sim_event_queue(
            ops in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..400),
        ) {
            check_against_event_queue(&ops);
        }
    }
}
