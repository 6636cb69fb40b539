//! The event queue at the heart of the simulator.
//!
//! Events are totally ordered by `(time, tie, seq)` where `seq` is a
//! monotonically increasing counter assigned at insertion and `tie` is
//! derived from `seq` by the queue's [`TieBreak`] policy. Under the default
//! [`TieBreak::Fifo`] every `tie` is zero, so two events at the same
//! virtual time fire in the order they were scheduled — the kernel's
//! historical behavior, bit for bit. The other policies perturb only the
//! order of *same-time* events (the schedules a real machine is free to
//! interleave either way) while keeping the whole run deterministic, which
//! is what lets a test assert that a result does not secretly depend on
//! delivery tie-breaks.

use std::any::Any;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::mailbox::MailboxId;
use crate::process::ProcessId;
use crate::rng::splitmix64;
use crate::time::SimTime;

/// Type-erased message payload carried through the simulator.
pub type Payload = Box<dyn Any + Send>;

/// What happens when an event fires.
pub(crate) enum EventKind {
    /// Resume a process: its start grant at time zero, or the end of an
    /// [`AsyncHandle::advance`](crate::AsyncHandle::advance).
    Wake(ProcessId),
    /// A message reaches its destination mailbox.
    Deliver {
        /// Destination mailbox.
        mbox: MailboxId,
        /// The message payload.
        msg: Payload,
    },
    /// A deadline armed by a timed receive expires.
    ///
    /// The kernel stamps each armed timer with the owning process's current
    /// timer generation; a delivery that wakes the process first bumps the
    /// generation, so the already-scheduled timer pops as a stale no-op
    /// instead of waking anyone. Cancellation is O(1) — nothing is removed
    /// from the heap.
    Timer {
        /// The process whose deadline this is.
        pid: ProcessId,
        /// Generation the timer was armed under; stale if it no longer
        /// matches the process's current generation.
        generation: u64,
    },
}

/// Unique, totally ordered key of a scheduled event.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct EventKey {
    /// When the event fires.
    pub time: SimTime,
    /// Insertion order, breaking ties at equal times.
    pub seq: u64,
}

/// How events scheduled for the *same* virtual time are ordered.
///
/// Any policy yields a fully deterministic run (the ordering stays total —
/// `seq` remains the final tie-break); non-default policies deterministically
/// permute the same-time delivery order, exposing code whose result quietly
/// depends on which of two simultaneous events fires first.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TieBreak {
    /// Insertion order (the default, and the historical behavior).
    #[default]
    Fifo,
    /// Reverse insertion order.
    Lifo,
    /// Pseudo-random order, keyed by this salt (splitmix64 of the
    /// insertion counter). Different salts give different — but each fully
    /// reproducible — same-time permutations.
    Seeded(u64),
}

impl TieBreak {
    pub(crate) fn tie(self, seq: u64) -> u64 {
        match self {
            TieBreak::Fifo => 0,
            TieBreak::Lifo => u64::MAX - seq,
            TieBreak::Seeded(salt) => splitmix64(&mut (seq ^ salt)),
        }
    }
}

pub(crate) struct Event {
    pub key: EventKey,
    pub kind: EventKind,
    /// Policy-derived tie value; orders events sharing `key.time`.
    tie: u64,
}

// BinaryHeap is a max-heap; invert the comparison so the earliest event pops
// first. Only (time, tie, seq) participates in ordering.
impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.key.time, other.tie, other.key.seq).cmp(&(self.key.time, self.tie, self.key.seq))
    }
}

/// A deterministic priority queue of simulation events.
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
    tie_break: TieBreak,
}

impl EventQueue {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Set the same-time ordering policy. Applies to events pushed from
    /// now on; call before scheduling anything (the kernel does).
    pub(crate) fn set_tie_break(&mut self, tie_break: TieBreak) {
        self.tie_break = tie_break;
    }

    /// Schedule `kind` to fire at `time`. Returns the assigned key.
    pub(crate) fn push(&mut self, time: SimTime, kind: EventKind) -> EventKey {
        let key = EventKey {
            time,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.heap.push(Event {
            key,
            kind,
            tie: self.tie_break.tie(key.seq),
        });
        key
    }

    /// Remove and return the earliest event, if any.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wake(pid: usize) -> EventKind {
        EventKind::Wake(ProcessId(pid))
    }

    fn pop_pid(q: &mut EventQueue) -> (SimTime, usize) {
        let e = q.pop().unwrap();
        match e.kind {
            EventKind::Wake(pid) => (e.key.time, pid.0),
            _ => panic!("expected wake"),
        }
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(SimTime::ZERO, wake(0));
        q.push(SimTime::ZERO, wake(1));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn lifo_reverses_same_time_order_only() {
        let mut q = EventQueue::new();
        q.set_tie_break(TieBreak::Lifo);
        let t = SimTime::from_nanos(5);
        q.push(SimTime::from_nanos(1), wake(9)); // earlier time still first
        for pid in 0..4 {
            q.push(t, wake(pid));
        }
        assert_eq!(pop_pid(&mut q), (SimTime::from_nanos(1), 9));
        for pid in (0..4).rev() {
            assert_eq!(pop_pid(&mut q), (t, pid));
        }
    }

    #[test]
    fn seeded_tiebreak_is_reproducible_and_salt_sensitive() {
        let order = |salt: u64| {
            let mut q = EventQueue::new();
            q.set_tie_break(TieBreak::Seeded(salt));
            let t = SimTime::from_nanos(3);
            for pid in 0..16 {
                q.push(t, wake(pid));
            }
            let mut out = Vec::new();
            while let Some(e) = q.pop() {
                if let EventKind::Wake(pid) = e.kind {
                    out.push(pid.0);
                }
            }
            out
        };
        assert_eq!(order(7), order(7), "same salt, same permutation");
        assert_ne!(order(7), order(8), "different salts must differ");
        let mut sorted = order(7);
        sorted.sort();
        assert_eq!(
            sorted,
            (0..16).collect::<Vec<_>>(),
            "a permutation, not a filter"
        );
    }

    #[test]
    fn fifo_is_the_default_and_matches_insertion_order() {
        assert_eq!(TieBreak::default(), TieBreak::Fifo);
        let mut q = EventQueue::new();
        q.set_tie_break(TieBreak::Fifo);
        let t = SimTime::from_nanos(5);
        for pid in 0..10 {
            q.push(t, wake(pid));
        }
        for pid in 0..10 {
            assert_eq!(pop_pid(&mut q), (t, pid));
        }
    }

    #[test]
    fn keys_are_unique_and_increasing() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::ZERO, wake(0));
        let b = q.push(SimTime::ZERO, wake(0));
        assert!(a.seq < b.seq);
        assert_ne!(a, b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popping the queue always yields keys in nondecreasing (time, seq)
        /// order, whatever the insertion schedule was.
        #[test]
        fn pop_order_is_sorted(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(*t), EventKind::Wake(ProcessId(i)));
            }
            let mut last: Option<EventKey> = None;
            while let Some(e) = q.pop() {
                if let Some(prev) = last {
                    prop_assert!(prev < e.key);
                    prop_assert!(prev.time <= e.key.time);
                }
                last = Some(e.key);
            }
        }
    }
}
