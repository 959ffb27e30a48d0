//! Time-ordered event queue with deterministic tie-breaking.
//!
//! The entire multicomputer simulation is driven from one of these queues:
//! network packet arrivals, node wake-ups, and timer expirations are all
//! events. Determinism is essential — the benchmark harness reruns the
//! same seed and must observe bit-identical virtual times — so ties at the
//! same timestamp are broken by insertion order (a monotone sequence
//! number), never by heap internals.

use crate::clock::VirtualTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event queue ordered by `(VirtualTime, insertion sequence)`.
///
/// `E` is the caller's event payload; the queue imposes no trait bounds on
/// it beyond what `BinaryHeap` needs internally (payloads never compare).
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

/// A heap entry is its 16-byte key and the payload, inline: a push or pop
/// allocates nothing, and a sift moves `16 + size_of::<E>()` bytes. Keep
/// `E` small — a large payload belongs behind a pointer the caller owns,
/// as the kernel's packets are (`Packet<Box<KMsg>>` is held at ≤ 40 B by
/// a compile-time assert in `hal_kernel`), so a deep queue's one
/// contiguous buffer stays small.
struct Entry<E> {
    time: VirtualTime,
    seq: u64,
    payload: E,
}

// Manual impls: order entries by (time, seq) ascending; the payload is
// deliberately excluded so `E` needs no Ord bound. `BinaryHeap` is a
// max-heap, so comparisons are reversed.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// An empty queue with pre-allocated capacity for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
        }
    }

    /// Schedule `payload` to fire at `time`.
    ///
    /// Events pushed with equal times pop in push order (FIFO), which makes
    /// per-link network FIFO ordering fall out naturally.
    #[inline]
    pub fn push(&mut self, time: VirtualTime, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Schedule `payload` at `time` under a caller-supplied sequence
    /// number.
    ///
    /// The simulated network numbers packets and timers from its own
    /// admission counter and queues them under those numbers, so
    /// `(time, seq)` ordering — and therefore FIFO tie-breaking — follows
    /// admission order. The internal counter is advanced past `seq` so
    /// later [`push`] calls stay unique.
    ///
    /// [`push`]: EventQueue::push
    #[inline]
    pub fn push_at(&mut self, time: VirtualTime, seq: u64, payload: E) {
        self.seq = self.seq.max(seq + 1);
        self.heap.push(Entry { time, seq, payload });
    }

    /// Remove and return the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(VirtualTime, E)> {
        let e = self.heap.pop()?;
        Some((e.time, e.payload))
    }

    /// Remove the earliest event together with its sequence number.
    #[inline]
    pub fn pop_seq(&mut self) -> Option<(VirtualTime, u64, E)> {
        let e = self.heap.pop()?;
        Some((e.time, e.seq, e.payload))
    }

    /// Timestamp of the earliest pending event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<VirtualTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualTime as T;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(T::from_nanos(30), "c");
        q.push(T::from_nanos(10), "a");
        q.push(T::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(T::from_nanos(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_times_and_ties() {
        let mut q = EventQueue::new();
        q.push(T::from_nanos(2), "t2-first");
        q.push(T::from_nanos(1), "t1");
        q.push(T::from_nanos(2), "t2-second");
        assert_eq!(q.pop().unwrap().1, "t1");
        assert_eq!(q.pop().unwrap().1, "t2-first");
        assert_eq!(q.pop().unwrap().1, "t2-second");
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(T::from_nanos(7), ());
        q.push(T::from_nanos(3), ());
        assert_eq!(q.peek_time(), Some(T::from_nanos(3)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn push_at_preserves_external_sequence_order() {
        // Move a FIFO burst through two other queues and re-merge under
        // the original sequence numbers: the original order must survive.
        let mut global = EventQueue::new();
        for i in 0..10 {
            global.push(T::from_nanos(5), i);
        }
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        while let Some((t, s, p)) = global.pop_seq() {
            if p % 2 == 0 {
                a.push_at(t, s, p);
            } else {
                b.push_at(t, s, p);
            }
        }
        let mut merged = EventQueue::new();
        for q in [&mut a, &mut b] {
            while let Some((t, s, p)) = q.pop_seq() {
                merged.push_at(t, s, p);
            }
        }
        let order: Vec<_> = std::iter::from_fn(|| merged.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
        // New auto-seq pushes stay unique after push_at.
        merged.push(T::from_nanos(5), 100);
        merged.push(T::from_nanos(5), 101);
        assert_eq!(merged.pop().unwrap().1, 100);
        assert_eq!(merged.pop().unwrap().1, 101);
    }

    /// Payloads live in the heap's buffer: each is dropped exactly once,
    /// by its popper or by the queue's own drop, and ties still pop in
    /// push order.
    #[test]
    fn inline_payloads_drop_once_and_keep_tie_order() {
        use std::rc::Rc;
        let tokens: Vec<Rc<u32>> = (0..6).map(Rc::new).collect();
        let mut q = EventQueue::new();
        for (i, t) in tokens.iter().enumerate() {
            q.push(T::from_nanos(if i < 4 { 5 } else { 9 }), Rc::clone(t));
        }
        assert!(tokens.iter().all(|t| Rc::strong_count(t) == 2));
        let popped: Vec<u32> = (0..3).map(|_| *q.pop().unwrap().1).collect();
        assert_eq!(popped, [0, 1, 2], "ties pop in push order");
        let counts = |ts: &[Rc<u32>]| ts.iter().map(Rc::strong_count).collect::<Vec<_>>();
        assert_eq!(counts(&tokens), [1, 1, 1, 2, 2, 2], "popped payloads were dropped once");
        drop(q);
        assert_eq!(counts(&tokens), [1; 6], "pending payloads go with the queue");
    }
}
