//! Future-event lists keyed on integer nanoseconds.
//!
//! Two implementations of the same deterministic contract — events pop in
//! `(time, sequence)` order, where the sequence number is assigned in
//! scheduling order so simultaneous events are served FIFO:
//!
//! * [`RadixQueue`] — the production queue: a radix heap indexed by the
//!   highest 6-bit digit in which an entry's timestamp differs from the last
//!   popped timestamp (11 levels × 64 buckets).  Scheduling is O(1); popping
//!   amortizes to O(1) because every redistribution moves an entry to a
//!   strictly lower level (at most 11 moves over its lifetime).  The price
//!   is *monotonicity*: events may only
//!   be scheduled at or after the last popped timestamp — exactly the
//!   discipline of a discrete-event simulation, which never schedules into
//!   its own past.
//! * [`BinaryHeapQueue`] — the straightforward `BinaryHeap` future-event
//!   list the simulator used before the radix queue.  Retained as the
//!   reference implementation for differential tests; it accepts
//!   non-monotone schedules.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use units::Instant;

/// One scheduled event: a timestamp, the FIFO tie-breaking sequence number,
/// and the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub time: Instant,
    /// Scheduling order; ties in `time` pop in increasing `sequence`.
    pub sequence: u64,
    /// The payload.
    pub event: E,
}

/// The shared contract of the two queues, so benches and differential tests
/// can drive either through one code path.
pub trait EventQueue<E> {
    /// Schedules `event` at `time`, assigning the next sequence number.
    fn schedule(&mut self, time: Instant, event: E);
    /// Pops the earliest event in `(time, sequence)` order.
    fn pop(&mut self) -> Option<Scheduled<E>>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// `true` when nothing is pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------- radix ----

/// Bits consumed per radix level.
const DIGIT_BITS: usize = 6;

/// Radix levels: one per 6-bit digit of a `u64` timestamp.
const LEVELS: usize = 64usize.div_ceil(DIGIT_BITS);

/// Buckets per level: one per value of the level's digit — sized so a
/// level's occupancy bitmap is exactly one `u64`.
const ARITY: usize = 1 << DIGIT_BITS;

/// A monotone indexed future-event list (multi-digit radix heap) over
/// integer nanosecond timestamps.
///
/// Entries whose timestamp equals the last popped timestamp sit in the
/// *ready list*, a FIFO ordered by sequence number.  Every other entry sits
/// at the level of the highest 6-bit *digit* in which its timestamp differs
/// from the last popped one, in the bucket indexed by its own digit value
/// there (so within a level, lower bucket means earlier timestamp).  When
/// the ready list drains, the lowest non-empty bucket of the lowest
/// non-empty level is redistributed: its minimum timestamp becomes the new
/// reference, the entries carrying it become the new ready list (sorted by
/// sequence so FIFO ties are preserved), and the rest re-home to strictly
/// lower levels.  Level-0 buckets pin every bit of the timestamp, so a
/// level-0 redistribution moves its whole bucket to the ready list without
/// re-homing anything.
///
/// An entry is therefore touched at most `LEVELS` (11) times between schedule
/// and pop — in the simulator's regime of microsecond lookaheads, at most
/// twice — and occupancy bitmaps (one word over levels, one word per
/// level) find the next bucket without scanning.
///
/// # Panics
/// [`RadixQueue::schedule`] panics if asked to schedule before the last
/// popped timestamp — a discrete-event simulation scheduling into its own
/// past is a logic error, and silently reordering it would break the
/// deterministic-replay contract.
#[derive(Debug, Clone)]
pub struct RadixQueue<E> {
    /// Entries at exactly `last`, in increasing sequence order; popped from
    /// the front.
    ready: VecDeque<Scheduled<E>>,
    /// `buckets[level * ARITY + digit]` holds entries whose time differs
    /// from `last` first (highest) in digit `level`, with that digit equal
    /// to `digit`.
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Per-level bitmap of non-empty buckets.
    occupied: [u64; LEVELS],
    /// Bit `L` set when level `L` has any non-empty bucket.
    occupied_levels: u16,
    /// Timestamp of the last popped event (initially zero, the epoch).
    last: u64,
    len: usize,
    next_sequence: u64,
}

impl<E> Default for RadixQueue<E> {
    fn default() -> Self {
        RadixQueue {
            ready: VecDeque::new(),
            buckets: (0..LEVELS * ARITY).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            occupied_levels: 0,
            last: 0,
            len: 0,
            next_sequence: 0,
        }
    }
}

impl<E> RadixQueue<E> {
    /// An empty queue referenced to the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket slot of a timestamp relative to `last`.  Only called with
    /// `time > last`.
    #[inline]
    fn slot_of(&self, time: u64) -> (usize, usize) {
        let level = (63 - (time ^ self.last).leading_zeros()) as usize / DIGIT_BITS;
        let digit = ((time >> (level * DIGIT_BITS)) & (ARITY as u64 - 1)) as usize;
        (level, digit)
    }

    /// Files an entry under its `(level, digit)` slot and marks occupancy.
    #[inline]
    fn file(&mut self, level: usize, digit: usize, entry: Scheduled<E>) {
        self.buckets[level * ARITY + digit].push(entry);
        self.occupied[level] |= 1 << digit;
        self.occupied_levels |= 1 << level;
    }

    /// Pulls the earliest non-empty bucket forward — its minimum timestamp
    /// becomes the new reference and its entries re-home relative to it —
    /// and returns the first entry in `(time, sequence)` order.  Called
    /// only with an empty ready list; returns `None` when nothing is
    /// pending.
    fn redistribute(&mut self) -> Option<Scheduled<E>> {
        if self.occupied_levels == 0 {
            return None;
        }
        let level = self.occupied_levels.trailing_zeros() as usize;
        let digit = self.occupied[level].trailing_zeros() as usize;

        if self.buckets[level * ARITY + digit].len() == 1 {
            // Fast path for the dominant case at simulation densities: a
            // lone entry is its own minimum, re-homes nothing, and pops
            // without touching the ready list.
            let entry = self.buckets[level * ARITY + digit]
                .pop()
                .expect("occupied bucket is non-empty");
            self.occupied[level] &= !(1 << digit);
            if self.occupied[level] == 0 {
                self.occupied_levels &= !(1 << level);
            }
            self.last = entry.time.as_nanos();
            return Some(entry);
        }

        let mut entries = std::mem::take(&mut self.buckets[level * ARITY + digit]);
        self.occupied[level] &= !(1 << digit);
        if self.occupied[level] == 0 {
            self.occupied_levels &= !(1 << level);
        }

        let ready_start = self.ready.len();
        if level == 0 {
            // A level-0 bucket pins every bit of the timestamp: all its
            // entries carry the same time, so the bucket becomes ready
            // as-is.
            self.last = entries[0].time.as_nanos();
            self.ready.extend(entries.drain(..));
        } else {
            let min_time = entries
                .iter()
                .map(|e| e.time.as_nanos())
                .min()
                .expect("bucket is non-empty");
            self.last = min_time;
            for entry in entries.drain(..) {
                if entry.time.as_nanos() == min_time {
                    self.ready.push_back(entry);
                } else {
                    // Strictly lower level: the new reference shares this
                    // entry's digits at `level` and above, so their highest
                    // differing digit is now below `level`.
                    let (l, b) = self.slot_of(entry.time.as_nanos());
                    debug_assert!(l < level);
                    self.file(l, b, entry);
                }
            }
        }
        // Hand the drained (now empty) vector back to its slot so the
        // bucket keeps its capacity — redistribution must not allocate.
        self.buckets[level * ARITY + digit] = entries;
        // Restore FIFO order among the newly-ready entries (bucket pushes
        // happen in schedule order per bucket, but redistributions may have
        // interleaved them).  Single-entry batches — the common case at
        // simulation densities — are trivially sorted.
        if self.ready.len() - ready_start > 1 {
            self.ready.make_contiguous()[ready_start..].sort_unstable_by_key(|e| e.sequence);
        }
        self.ready.pop_front()
    }
}

impl<E> EventQueue<E> for RadixQueue<E> {
    fn schedule(&mut self, time: Instant, event: E) {
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        let t = time.as_nanos();
        assert!(
            t >= self.last,
            "RadixQueue: scheduling at t+{t}ns before the last popped event (t+{}ns)",
            self.last
        );
        let entry = Scheduled {
            time,
            sequence,
            event,
        };
        if t == self.last {
            // Sequence numbers increase monotonically, so pushing at the
            // back keeps the ready list sorted.
            self.ready.push_back(entry);
        } else {
            let (level, digit) = self.slot_of(t);
            self.file(level, digit, entry);
        }
        self.len += 1;
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        let entry = match self.ready.pop_front() {
            Some(entry) => entry,
            None => self.redistribute()?,
        };
        self.len -= 1;
        Some(entry)
    }

    fn len(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------- binary heap ----

/// Internal max-heap wrapper reversing the order so the earliest
/// `(time, sequence)` pops first.
#[derive(Debug, Clone, PartialEq, Eq)]
struct HeapEntry<E>(Scheduled<E>);

impl<E: Eq> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .time
            .cmp(&self.0.time)
            .then_with(|| other.0.sequence.cmp(&self.0.sequence))
    }
}

impl<E: Eq> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The pre-radix `BinaryHeap` future-event list, kept as the ordering
/// reference: differential tests pit [`RadixQueue`] against it over
/// arbitrary interleavings.
#[derive(Debug, Clone)]
pub struct BinaryHeapQueue<E: Eq> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_sequence: u64,
}

impl<E: Eq> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            next_sequence: 0,
        }
    }
}

impl<E: Eq> BinaryHeapQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<E: Eq> EventQueue<E> for BinaryHeapQueue<E> {
    fn schedule(&mut self, time: Instant, event: E) {
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        self.heap.push(HeapEntry(Scheduled {
            time,
            sequence,
            event,
        }));
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop().map(|e| e.0)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::Duration;

    fn at(ns: u64) -> Instant {
        Instant::EPOCH + Duration::from_nanos(ns)
    }

    #[test]
    fn radix_pops_in_time_order() {
        let mut q = RadixQueue::new();
        q.schedule(at(300), 3u32);
        q.schedule(at(100), 1);
        q.schedule(at(200), 2);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_nanos())
            .collect();
        assert_eq!(order, vec![100, 200, 300]);
        assert!(q.is_empty());
    }

    #[test]
    fn radix_simultaneous_events_pop_fifo() {
        let mut q = RadixQueue::new();
        for i in 0..5u32 {
            q.schedule(at(50), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn radix_accepts_schedules_at_the_popped_instant() {
        let mut q = RadixQueue::new();
        q.schedule(at(10), 0u32);
        let first = q.pop().unwrap();
        assert_eq!(first.event, 0);
        // Scheduling exactly at the current time is legal (zero-delay
        // events) and pops next, after anything already ready.
        q.schedule(at(10), 1);
        q.schedule(at(11), 2);
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 2);
    }

    #[test]
    #[should_panic(expected = "before the last popped event")]
    fn radix_rejects_scheduling_into_the_past() {
        let mut q = RadixQueue::new();
        q.schedule(at(100), 0u32);
        q.pop();
        q.schedule(at(50), 1);
    }

    #[test]
    fn radix_len_tracks_pending_events() {
        let mut q = RadixQueue::new();
        assert_eq!(q.len(), 0);
        q.schedule(at(1), 0u32);
        q.schedule(at(2), 1);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn radix_handles_large_and_adjacent_timestamps() {
        let mut q = RadixQueue::new();
        q.schedule(at(u64::MAX / 2), 0u32);
        q.schedule(at(1), 1);
        q.schedule(at(0), 2);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 1);
        q.schedule(at(u64::MAX / 2), 3);
        assert_eq!(q.pop().unwrap().event, 0);
        assert_eq!(q.pop().unwrap().event, 3);
    }

    #[test]
    fn both_queues_agree_on_a_deterministic_interleaving() {
        // A scripted schedule/pop interleaving with heavy ties; the two
        // queues must pop identical (time, sequence, event) triples.
        let mut radix = RadixQueue::new();
        let mut heap = BinaryHeapQueue::new();
        let mut now = 0u64;
        let mut payload = 0u32;
        let steps: &[(u64, usize)] = &[(0, 8), (0, 3), (7, 4), (7, 0), (1, 2), (64, 6), (3, 1)];
        for &(advance, pushes) in steps {
            now += advance;
            for _ in 0..pushes {
                // Mix of ties and spread-out times, all >= now.
                for delta in [0u64, 0, 1, 17, 1024] {
                    radix.schedule(at(now + delta), payload);
                    heap.schedule(at(now + delta), payload);
                    payload += 1;
                }
            }
            let a = radix.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if let Some(e) = a {
                now = e.time.as_nanos();
            }
        }
        while let Some(b) = heap.pop() {
            assert_eq!(radix.pop(), Some(b));
        }
        assert!(radix.is_empty());
    }
}
