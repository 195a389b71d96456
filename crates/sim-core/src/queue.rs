//! The event queue: a slab of events ordered by `(time, sequence)`.
//!
//! Ties on `time` are broken by insertion sequence number, giving stable FIFO
//! semantics for simultaneous events — a hard requirement for determinism
//! (two events scheduled for the same instant always run in scheduling
//! order, on every platform, for every seed).
//!
//! Layout. Each event sits in a slot of a slab that also records its firing
//! time and sequence number; free slots form an intrusive list (a free
//! slot's `seq` word holds the next free index). The ordering structure is
//! a monotone radix queue (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990) over
//! 4-byte slot indices. It relies on the engine never scheduling an event
//! before the last one popped, at time `last`:
//!
//! * the *due* FIFO holds the slots due at `last`, in sequence order;
//! * bucket `b` holds the slots whose time first differs from `last` at bit
//!   `b`, so every entry of a lower bucket is earlier than every entry of a
//!   higher one. A `u64` mask records which buckets are non-empty.
//!
//! [`EventQueue::pop`] serves the due FIFO. When it is empty, the lowest
//! non-empty bucket is emptied: its minimum time becomes `last`, its entries
//! at that time go to the due FIFO and every other entry drops to a lower
//! bucket. Each entry therefore moves at most 64 times. The order is exactly
//! `(time, seq)`: a push appends to the bucket (or, at `last`, to the due
//! FIFO) with the largest sequence number yet, and a bucket is only ever
//! refilled while it is empty, from a bucket that is itself in sequence
//! order — so every bucket, and the due FIFO, stays in sequence order.
//!
//! Cancellation is by handle: an [`EventHandle`] names its `(seq, slot)`, so
//! [`EventQueue::cancel`] drops the closure in O(1) when the slot still
//! holds that sequence number — a fired (or never-allocated) handle finds a
//! different `seq` there and is a no-op, even after its slot was reused.
//! The entry stays queued as a tombstone: when it reaches the head it pops
//! with `event: None`, counted in [`EventQueue::noop_pops`]. Crucially, a
//! tombstone is *not* invisible: it still defines a queue instant — callers
//! advance their clock over it without dispatching anything. This keeps the
//! engine's timeline bit-identical to the generation-guarded no-op events
//! this mechanism replaced (those executed, advancing `now`, then returned
//! early); harness loops that overrun a horizon by one event therefore stop
//! at exactly the same instant either way. Sequence allocation is never
//! affected by cancellation, so the relative order of live events — and
//! therefore every downstream random draw — is identical whether or not
//! anything was cancelled. [`EventQueue::len`] counts tombstones too.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Bits of the packed handle word that address the slot.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// Sequence numbers must fit the packed word above the slot bits.
const MAX_SEQ: u64 = 1 << (64 - SLOT_BITS);
/// Set in a free slot's `seq` word, whose low bits link the next free slot.
/// No live sequence number has it, so a stale handle never matches.
const FREE: u64 = 1 << 63;
/// End of the free list.
const NIL: u32 = u32::MAX;
/// One bucket per bit of a time.
const BUCKETS: usize = 64;

/// A handle to a queued event: its sequence number and slab slot, packed
/// as `seq << 24 | slot`. Usable with [`EventQueue::cancel`] (and
/// [`crate::Sim::cancel`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventHandle(u64);

impl EventHandle {
    fn seq(self) -> u64 {
        self.0 >> SLOT_BITS
    }

    fn slot(self) -> usize {
        (self.0 & SLOT_MASK) as usize
    }
}

/// A popped event: its firing time and its handler, `None` if cancelled.
pub struct Entry<E> {
    pub time: SimTime,
    pub event: Option<E>,
}

/// A slab slot: the firing time, the sequence number it holds (or
/// `FREE | next free slot`) and the handler, taken out by a cancel or a pop.
struct Slot<E> {
    time: SimTime,
    seq: u64,
    event: Option<E>,
}

/// The bucket of an entry at `time` while the last pop was at `last`
/// (`time > last`): the highest bit in which the two differ.
fn bucket(time: SimTime, last: SimTime) -> usize {
    (63 - (time.0 ^ last.0).leading_zeros()) as usize
}

/// A stable min-priority queue over `(SimTime, seq)` with O(1) cancellation,
/// for monotone callers (no push earlier than the last pop).
pub struct EventQueue<E> {
    /// Slots due at `last`, in sequence order.
    due: VecDeque<u32>,
    /// Slots due later, by the highest bit in which their time differs
    /// from `last` (see the module docs).
    buckets: [Vec<u32>; BUCKETS],
    /// Bit `b` is set when `buckets[b]` is non-empty.
    occupied: u64,
    /// Time of the last pop (zero before the first).
    last: SimTime,
    len: usize,
    slots: Vec<Slot<E>>,
    free: u32,
    next_seq: u64,
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
            due: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            last: SimTime::ZERO,
            len: 0,
            slots: Vec::new(),
            free: NIL,
            next_seq: 0,
            noop_pops: 0,
            peak_len: 0,
        }
    }

    /// Insert an event at `time`, which must not be earlier than the last
    /// pop's, returning its handle.
    pub fn push(&mut self, time: SimTime, event: E) -> EventHandle {
        debug_assert!(time >= self.last, "event scheduled before the last pop");
        let seq = self.next_seq;
        assert!(seq < MAX_SEQ, "event sequence space exhausted");
        self.next_seq += 1;
        let slot = Slot {
            time,
            seq,
            event: Some(event),
        };
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = (self.slots[idx as usize].seq & !FREE) as u32;
            self.slots[idx as usize] = slot;
            idx
        } else {
            assert!((self.slots.len() as u64) < SLOT_MASK, "event slab full");
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        };
        if time == self.last {
            // Its seq is the largest yet, so the due FIFO stays in order.
            self.due.push_back(idx);
        } else {
            let b = bucket(time, self.last);
            self.buckets[b].push(idx);
            self.occupied |= 1 << b;
        }
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        EventHandle(seq << SLOT_BITS | idx as u64)
    }

    /// Tombstone a queued event, dropping its handler now. Cancelling an
    /// already-cancelled, already-fired or never-allocated handle is a
    /// no-op: the slot no longer (or never did) hold the handle's `seq`.
    pub fn cancel(&mut self, h: EventHandle) {
        if let Some(s) = self.slots.get_mut(h.slot()) {
            if s.seq == h.seq() {
                s.event = None;
            }
        }
    }

    /// Remove and return the earliest entry. A cancelled entry comes back
    /// with `event: None` (counted as a no-op pop): its timestamp is still a
    /// queue instant the caller's clock must advance over, but there is
    /// nothing to dispatch.
    pub fn pop(&mut self) -> Option<Entry<E>> {
        if self.due.is_empty() {
            self.advance()?;
        }
        let idx = self.due.pop_front()?;
        let s = &mut self.slots[idx as usize];
        let event = s.event.take();
        s.seq = FREE | self.free as u64;
        self.free = idx;
        self.len -= 1;
        if event.is_none() {
            self.noop_pops += 1;
        }
        Some(Entry {
            time: self.last,
            event,
        })
    }

    /// Move `last` to the earliest queued time and fill the due FIFO with
    /// its entries, redistributing the rest of their bucket. `None` when
    /// nothing is queued.
    fn advance(&mut self) -> Option<()> {
        if self.occupied == 0 {
            return None;
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        let mut from = std::mem::take(&mut self.buckets[b]);
        let slots = &self.slots;
        let min = from.iter().map(|&i| slots[i as usize].time).min()?;
        self.last = min;
        for &i in &from {
            let time = slots[i as usize].time;
            if time == min {
                self.due.push_back(i);
            } else {
                let c = bucket(time, min);
                self.buckets[c].push(i);
                self.occupied |= 1 << c;
            }
        }
        // Hand the emptied vector back so its capacity is reused.
        from.clear();
        self.buckets[b] = from;
        Some(())
    }

    /// The firing time of the earliest entry, if any — including a cancelled
    /// head: its instant is still part of the timeline (see module docs).
    /// Scans one bucket when the due FIFO is empty.
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.due.is_empty() {
            return Some(self.last);
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.buckets
            .get(b)?
            .iter()
            .map(|&i| self.slots[i as usize].time)
            .min()
    }

    /// Entries currently queued (live + not-yet-reclaimed tombstones).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever scheduled (== next sequence number).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Cancelled entries discarded at the head so far. With callers that
    /// cancel their stale timers this stays near zero; a high value means
    /// something is flooding the queue with events it then abandons.
    pub fn noop_pops(&self) -> u64 {
        self.noop_pops
    }

    /// High-water mark of [`EventQueue::len`].
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop())
            .filter_map(|e| e.event)
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        assert_eq!(drain(&mut q), vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(5), i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
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
    fn same_instant_pushes_follow_earlier_entries_by_seq() {
        let mut q = EventQueue::new();
        // Two bucket entries at 10, then the clock reaches 10 and two more
        // join the due FIFO: the earlier-scheduled entries go first.
        q.push(SimTime(10), "h0");
        q.push(SimTime(20), "later");
        q.push(SimTime(10), "h1");
        let now = q.pop().unwrap().time;
        assert_eq!(now, SimTime(10));
        q.push(now, "l0");
        q.push(now, "l1");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        assert_eq!(drain(&mut q), vec!["h1", "l0", "l1", "later"]);
    }

    #[test]
    fn redistribution_keeps_time_then_seq_order() {
        let mut q = EventQueue::new();
        // Times spread over every bucket, pushed in a scrambled order, with
        // duplicates so each redistribution splits ties across buckets.
        let mut times: Vec<u64> = (0..64).flat_map(|b| [1u64 << b, (1u64 << b) | 3]).collect();
        times.extend([u64::MAX, 1 << 40, 7, 7, 0]);
        let order: Vec<usize> = (0..times.len()).map(|i| i * 37 % times.len()).collect();
        for &i in &order {
            q.push(SimTime(times[i]), (times[i], i));
        }
        let mut want: Vec<(u64, usize)> = order.iter().map(|&i| (times[i], i)).collect();
        // Stable sort by time: ties keep their push (seq) order.
        want.sort_by_key(|&(t, _)| t);
        assert_eq!(drain(&mut q), want);
        assert!(q.peek_time().is_none());
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
        assert_eq!(q.push(SimTime(5), 1).seq(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn cancel_unknown_or_fired_is_noop() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime(1), "a");
        assert_eq!(q.pop().unwrap().event, Some("a"));
        // `b` reuses `a`'s slot; the fired handle must not cancel it.
        let b = q.push(SimTime(2), "b");
        assert_eq!(a.slot(), b.slot());
        q.cancel(a); // already fired
        q.cancel(EventHandle(999 << SLOT_BITS | 7)); // never allocated
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
        // Due entries count toward the depth too.
        for i in 0..6 {
            q.push(SimTime(4), 100 + i);
        }
        assert_eq!(q.len(), 12);
        assert_eq!(q.peak_len(), 12);
    }
}
