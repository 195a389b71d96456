//! The event queue: a binary heap of `(time, sequence)`-ordered entries.
//!
//! Ties on `time` are broken by insertion sequence number, giving stable FIFO
//! semantics for simultaneous events — a hard requirement for determinism
//! (two events scheduled for the same instant always run in scheduling
//! order, on every platform, for every seed).
//!
//! Cancellation is lazy (tombstones): [`EventQueue::cancel`] marks a sequence
//! number dead and when the entry reaches the head it pops with `event:
//! None`, counted in [`EventQueue::noop_pops`]. Crucially, a tombstone is
//! *not* invisible: it still defines a queue instant — callers advance their
//! clock over it without dispatching anything. This keeps the engine's
//! timeline bit-identical to the generation-guarded no-op events this
//! mechanism replaced (those executed, advancing `now`, then returned
//! early); harness loops that overrun a horizon by one event therefore stop
//! at exactly the same instant either way. Sequence allocation is never
//! affected by cancellation, so the relative order of live events — and
//! therefore every downstream random draw — is identical whether or not
//! anything was cancelled. What cancellation buys is skipping the closure
//! dispatch and the caller-side staleness bookkeeping, not the heap pop.

use crate::hash::FastSet;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A queued event: an opaque handler plus its firing time and sequence.
pub struct Entry<E> {
    pub time: SimTime,
    pub seq: u64,
    pub event: E,
}

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
        // BinaryHeap is a max-heap; invert so the *earliest* entry is the max.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A stable min-priority queue over `(SimTime, seq)` with lazy cancellation.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    cancelled: FastSet<u64>,
    noop_pops: u64,
    peak_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            cancelled: FastSet::default(),
            noop_pops: 0,
            peak_len: 0,
        }
    }

    /// Insert an event at `time`, returning its unique sequence number.
    pub fn push(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        if self.heap.len() > self.peak_len {
            self.peak_len = self.heap.len();
        }
        seq
    }

    /// Tombstone a scheduled event. Cancelling an already-cancelled or never-
    /// allocated sequence is a no-op; cancelling an already-fired one leaves a
    /// harmless tombstone (sequence numbers are never reused).
    pub fn cancel(&mut self, seq: u64) {
        if seq < self.next_seq {
            self.cancelled.insert(seq);
        }
    }

    /// Remove and return the earliest entry. A cancelled entry comes back
    /// with `event: None` (counted as a no-op pop): its timestamp is still a
    /// queue instant the caller's clock must advance over, but there is
    /// nothing to dispatch.
    pub fn pop(&mut self) -> Option<Entry<Option<E>>> {
        let entry = self.heap.pop()?;
        let event = if self.cancelled.remove(&entry.seq) {
            self.noop_pops += 1;
            None
        } else {
            Some(entry.event)
        };
        Some(Entry {
            time: entry.time,
            seq: entry.seq,
            event,
        })
    }

    /// The firing time of the earliest entry, if any — including a cancelled
    /// head: its instant is still part of the timeline (see module docs).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Entries currently in the heap (live + not-yet-reclaimed tombstones).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever scheduled (== next sequence number).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Cancelled entries discarded at pop/peek so far. With callers that
    /// cancel their stale timers this stays near zero; a high value means
    /// something is flooding the heap with events it then abandons.
    pub fn noop_pops(&self) -> u64 {
        self.noop_pops
    }

    /// High-water mark of the heap length.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .filter_map(|e| e.event)
            .collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .filter_map(|e| e.event)
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), 1);
        q.push(SimTime(5), 0);
        assert_eq!(q.pop().unwrap().event, Some(0));
        q.push(SimTime(7), 2);
        q.push(SimTime(7), 3);
        assert_eq!(q.pop().unwrap().event, Some(2));
        assert_eq!(q.pop().unwrap().event, Some(3));
        assert_eq!(q.pop().unwrap().event, Some(1));
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 4);
    }

    #[test]
    fn cancelled_entries_pop_as_timed_noops() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        let c = q.push(SimTime(30), "c");
        q.cancel(a);
        q.cancel(c);
        // A tombstoned head still defines the next queue instant.
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        let p = q.pop().unwrap();
        assert_eq!((p.time, p.event), (SimTime(10), None));
        assert_eq!(q.pop().unwrap().event, Some("b"));
        let p = q.pop().unwrap();
        assert_eq!((p.time, p.event), (SimTime(30), None));
        assert!(q.pop().is_none());
        assert_eq!(q.noop_pops(), 2);
    }

    #[test]
    fn cancel_does_not_disturb_seq_allocation() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime(5), 0);
        q.cancel(a);
        // The next push still gets seq 1: cancellation never reuses numbers.
        assert_eq!(q.push(SimTime(5), 1), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn cancel_unknown_or_fired_is_noop() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime(1), "a");
        assert_eq!(q.pop().unwrap().event, Some("a"));
        q.cancel(a); // already fired
        q.cancel(999); // never allocated
        q.push(SimTime(2), "b");
        assert_eq!(q.pop().unwrap().event, Some("b"));
        assert_eq!(q.noop_pops(), 0);
    }

    #[test]
    fn peak_len_tracks_high_water() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime(i), i);
        }
        for _ in 0..5 {
            q.pop();
        }
        q.push(SimTime(99), 99);
        assert_eq!(q.peak_len(), 10);
    }
}
