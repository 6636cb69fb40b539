//! Per-peer value history — the paper's *backward window* (BW).
//!
//! §3.2: "we define a backward window (BW) as the maximum number of past
//! values of the variables used in the speculation function. The speculated
//! value of a variable is an extrapolation of its present value and previous
//! BW values." A [`History`] holds the most recent `capacity` values of
//! one peer's partition, newest last: the actual (received) ones, and any
//! the driver promoted on loss (a speculation committed in place of the
//! actual), whose late actual [`History::record`]'s freshness guard then
//! ignores.

use std::collections::VecDeque;

/// Ring buffer of the last `capacity` values from one peer.
#[derive(Clone, Debug)]
pub struct History<S> {
    entries: VecDeque<(u64, S)>,
    capacity: usize,
}

impl<S> History<S> {
    /// An empty history retaining at most `capacity` values.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — a speculation function needs at least
    /// one past value.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "backward window must be at least 1");
        History {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Record the value of iteration `iter`. Values that do not
    /// advance the newest recorded iteration are ignored (late, reordered
    /// deliveries add no prediction power once newer data exists).
    pub fn record(&mut self, iter: u64, value: S) {
        if let Some(&(newest, _)) = self.entries.back() {
            if iter <= newest {
                return;
            }
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back((iter, value));
    }

    /// Forget every recorded value, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iteration number of the newest recorded value.
    pub fn latest_iter(&self) -> Option<u64> {
        self.entries.back().map(|(i, _)| *i)
    }

    /// The newest recorded value.
    pub fn latest(&self) -> Option<&S> {
        self.entries.back().map(|(_, v)| v)
    }

    /// The `n`-th most recent value (`0` = newest) with its iteration.
    pub fn nth_back(&self, n: usize) -> Option<(u64, &S)> {
        let len = self.entries.len();
        if n >= len {
            return None;
        }
        self.entries.get(len - 1 - n).map(|(i, v)| (*i, v))
    }

    /// Number of recorded values (≤ capacity).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of retained values (the BW).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_history() {
        let h: History<f64> = History::new(3);
        assert!(h.is_empty());
        assert_eq!(h.latest(), None);
        assert_eq!(h.latest_iter(), None);
        assert_eq!(h.nth_back(0), None);
    }

    #[test]
    fn records_in_order_and_evicts_oldest() {
        let mut h = History::new(2);
        h.record(0, 10.0);
        h.record(1, 11.0);
        h.record(2, 12.0);
        assert_eq!(h.len(), 2);
        assert_eq!(h.latest(), Some(&12.0));
        assert_eq!(h.nth_back(1), Some((1, &11.0)));
        assert_eq!(h.nth_back(2), None);
    }

    #[test]
    fn stale_values_are_ignored() {
        let mut h = History::new(3);
        h.record(5, 50.0);
        h.record(3, 30.0); // late arrival of an older iteration
        h.record(5, 51.0); // duplicate
        assert_eq!(h.len(), 1);
        assert_eq!(h.latest(), Some(&50.0));
    }

    #[test]
    fn gaps_are_allowed() {
        let mut h = History::new(3);
        h.record(0, 0.0);
        h.record(4, 4.0); // iterations 1..3 never arrived (speculated through)
        assert_eq!(h.latest_iter(), Some(4));
        assert_eq!(h.nth_back(1), Some((0, &0.0)));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        History::<f64>::new(0);
    }
}
