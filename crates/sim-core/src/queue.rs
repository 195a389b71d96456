//! The event queue: a slab of events ordered by `(time, sequence)`.
//!
//! Ties on `time` are broken by insertion sequence number, giving stable FIFO
//! semantics for simultaneous events — a hard requirement for determinism
//! (two events scheduled for the same instant always run in scheduling
//! order, on every platform, for every seed).
//!
//! Layout. Each event sits in a slot of a slab whose free slots form an
//! intrusive list (a free slot's `seq` word holds the next free index). The
//! ordering structures hold only 16-byte keys, `time` plus the packed word
//! `seq << 24 | slot`; comparing the packed word orders by `seq`, because
//! sequence numbers are unique. Keys wait in one of two places:
//!
//! * a binary heap, for anything due later than the caller's clock;
//! * a FIFO lane for events due *at* the caller's clock — in a busy model a
//!   fifth of all events are same-instant wakeups. The lane only ever holds
//!   one instant, and pushes arrive in sequence order, so its front is its
//!   minimum; a push at the current instant joins it when it is empty or
//!   already holds that instant. [`EventQueue::pop`] takes the smaller
//!   `(time, seq)` of the lane front and the heap top, so the merged order
//!   is exactly the single-heap order.
//!
//! Cancellation is by handle: an [`EventHandle`] names its `(seq, slot)`, so
//! [`EventQueue::cancel`] drops the closure in O(1) when the slot still
//! holds that sequence number — a fired (or never-allocated) handle finds a
//! different `seq` there and is a no-op, even after its slot was reused.
//! The key stays queued as a tombstone: when it reaches the head it pops
//! with `event: None`, counted in [`EventQueue::noop_pops`]. Crucially, a
//! tombstone is *not* invisible: it still defines a queue instant — callers
//! advance their clock over it without dispatching anything. This keeps the
//! engine's timeline bit-identical to the generation-guarded no-op events
//! this mechanism replaced (those executed, advancing `now`, then returned
//! early); harness loops that overrun a horizon by one event therefore stop
//! at exactly the same instant either way. Sequence allocation is never
//! affected by cancellation, so the relative order of live events — and
//! therefore every downstream random draw — is identical whether or not
//! anything was cancelled. [`EventQueue::len`] counts lane plus heap,
//! tombstones included.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Bits of the packed word that address the slot.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// Sequence numbers must fit the packed word above the slot bits.
const MAX_SEQ: u64 = 1 << (64 - SLOT_BITS);
/// Set in a free slot's `seq` word, whose low bits link the next free slot.
/// No live sequence number has it, so a stale handle never matches.
const FREE: u64 = 1 << 63;
/// End of the free list.
const NIL: u32 = u32::MAX;

/// A handle to a queued event: its sequence number and slab slot, packed
/// as in the heap key. Usable with [`EventQueue::cancel`] (and
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

/// A heap key: firing time plus the packed `seq << 24 | slot` word.
#[derive(PartialEq, Eq)]
struct Key {
    time: SimTime,
    id: u64,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the *earliest* key is the max.
        (other.time, other.id).cmp(&(self.time, self.id))
    }
}

/// A slab slot: the sequence number it holds (or `FREE | next free slot`)
/// and the handler, taken out by a cancel or a pop.
struct Slot<E> {
    seq: u64,
    event: Option<E>,
}

/// A stable min-priority queue over `(SimTime, seq)` with O(1) cancellation.
pub struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    /// Packed ids of the entries due at `lane_time`, in sequence order.
    lane: VecDeque<u64>,
    lane_time: SimTime,
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
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            lane_time: SimTime::ZERO,
            slots: Vec::new(),
            free: NIL,
            next_seq: 0,
            noop_pops: 0,
            peak_len: 0,
        }
    }

    /// Insert an event at `time` (never earlier than the caller's clock
    /// `now`), returning its handle. An event due at `now` joins the
    /// same-instant lane instead of the heap.
    pub fn push(&mut self, now: SimTime, time: SimTime, event: E) -> EventHandle {
        debug_assert!(time >= now, "event scheduled in the past");
        let seq = self.next_seq;
        assert!(seq < MAX_SEQ, "event sequence space exhausted");
        self.next_seq += 1;
        let slot = if self.free != NIL {
            let slot = self.free as usize;
            self.free = (self.slots[slot].seq & !FREE) as u32;
            self.slots[slot] = Slot {
                seq,
                event: Some(event),
            };
            slot
        } else {
            assert!((self.slots.len() as u64) < SLOT_MASK, "event slab full");
            self.slots.push(Slot {
                seq,
                event: Some(event),
            });
            self.slots.len() - 1
        };
        let id = seq << SLOT_BITS | slot as u64;
        if time == now && (self.lane.is_empty() || self.lane_time == time) {
            self.lane_time = time;
            self.lane.push_back(id);
        } else {
            self.heap.push(Key { time, id });
        }
        let len = self.len();
        if len > self.peak_len {
            self.peak_len = len;
        }
        EventHandle(id)
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
        let from_lane = match (self.lane.front(), self.heap.peek()) {
            (Some(&id), Some(k)) => (self.lane_time, id) < (k.time, k.id),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let (time, id) = if from_lane {
            (self.lane_time, self.lane.pop_front()?)
        } else {
            let k = self.heap.pop()?;
            (k.time, k.id)
        };
        let slot = (id & SLOT_MASK) as usize;
        let s = &mut self.slots[slot];
        let event = s.event.take();
        s.seq = FREE | self.free as u64;
        self.free = slot as u32;
        if event.is_none() {
            self.noop_pops += 1;
        }
        Some(Entry { time, event })
    }

    /// The firing time of the earliest entry, if any — including a cancelled
    /// head: its instant is still part of the timeline (see module docs).
    pub fn peek_time(&self) -> Option<SimTime> {
        let lane = (!self.lane.is_empty()).then_some(self.lane_time);
        match (lane, self.heap.peek()) {
            (Some(l), Some(k)) => Some(l.min(k.time)),
            (l, k) => l.or(k.map(|k| k.time)),
        }
    }

    /// Entries currently queued (live + not-yet-reclaimed tombstones), lane
    /// and heap together.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    const T0: SimTime = SimTime::ZERO;

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop())
            .filter_map(|e| e.event)
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(T0, SimTime(30), "c");
        q.push(T0, SimTime(10), "a");
        q.push(T0, SimTime(20), "b");
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        assert_eq!(drain(&mut q), vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(T0, SimTime(5), i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.push(T0, SimTime(10), 1);
        q.push(T0, SimTime(5), 0);
        assert_eq!(q.pop().unwrap().event, Some(0));
        q.push(SimTime(5), SimTime(7), 2);
        q.push(SimTime(5), SimTime(7), 3);
        assert_eq!(q.pop().unwrap().event, Some(2));
        assert_eq!(q.pop().unwrap().event, Some(3));
        assert_eq!(q.pop().unwrap().event, Some(1));
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 4);
    }

    #[test]
    fn lane_merges_with_heap_by_seq() {
        let mut q = EventQueue::new();
        // Two heap entries at 10, then the clock reaches 10 and two more
        // land in the lane: the earlier-scheduled heap entries go first.
        q.push(T0, SimTime(10), "h0");
        q.push(T0, SimTime(20), "later");
        q.push(T0, SimTime(10), "h1");
        let now = q.pop().unwrap().time;
        assert_eq!(now, SimTime(10));
        q.push(now, now, "l0");
        q.push(now, now, "l1");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        assert_eq!(drain(&mut q), vec!["h1", "l0", "l1", "later"]);
    }

    #[test]
    fn cancelled_entries_pop_as_timed_noops() {
        let mut q = EventQueue::new();
        let a = q.push(T0, SimTime(10), "a");
        q.push(T0, SimTime(20), "b");
        let c = q.push(T0, SimTime(30), "c");
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
        let a = q.push(T0, SimTime(5), 0);
        q.cancel(a);
        // The next push still gets seq 1: cancellation never reuses numbers.
        assert_eq!(q.push(T0, SimTime(5), 1).seq(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn cancel_unknown_or_fired_is_noop() {
        let mut q = EventQueue::new();
        let a = q.push(T0, SimTime(1), "a");
        assert_eq!(q.pop().unwrap().event, Some("a"));
        // `b` reuses `a`'s slot; the fired handle must not cancel it.
        let b = q.push(SimTime(1), SimTime(2), "b");
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
            q.push(T0, SimTime(i), i);
        }
        for _ in 0..5 {
            q.pop();
        }
        q.push(SimTime(4), SimTime(99), 99);
        assert_eq!(q.peak_len(), 10);
        // Lane entries count toward the depth too.
        for i in 0..6 {
            q.push(SimTime(4), SimTime(4), 100 + i);
        }
        assert_eq!(q.len(), 12);
        assert_eq!(q.peak_len(), 12);
    }
}
