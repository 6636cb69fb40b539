//! The driver's window-indexed data plane.
//!
//! Everything the speculative driver buffers is keyed by an iteration in
//! the live window `[t_conf, t_conf + FW]` and a peer rank in `0..p`. Both
//! are small dense integers, so the tables here are plain vectors indexed
//! by `iter - t_conf` and by peer: no hashing, no tree, and the rows are
//! recycled as the window slides, so the steady state does not allocate.
//!
//! * [`Slots`] — one value per peer, with the number held kept alongside:
//!   an inbox row, and the speculated inputs of an executed iteration (so
//!   "is this iteration resolved?" is a comparison, not a scan);
//! * [`Inbox`] — received actuals, one row per buffered iteration.
//!
//! Which loss promotions were already counted is per peer, on
//! [`Peer`](crate::peer::Peer).

use std::collections::VecDeque;

/// At most one value per peer, and how many are held. The count moves
/// only through [`put`](Self::put), [`take`](Self::take) and
/// [`reset`](Self::reset), so it always equals the number of occupied
/// slots.
pub(crate) struct Slots<S> {
    /// Indexed by peer. Empty until the first [`reset`](Self::reset): an
    /// unsized table costs nothing.
    slots: Vec<Option<S>>,
    held: usize,
}

impl<S> Slots<S> {
    /// A table not yet sized for any number of peers.
    pub(crate) const UNSIZED: Self = Slots {
        slots: Vec::new(),
        held: 0,
    };

    /// Start over with `p` empty slots. Keeps the allocation.
    pub(crate) fn reset(&mut self, p: usize) {
        self.slots.clear();
        self.slots.resize_with(p, || None);
        self.held = 0;
    }

    /// Store peer `k`'s value, replacing one already there. Returns
    /// whether the slot was empty before.
    pub(crate) fn put(&mut self, k: usize, value: S) -> bool {
        let fresh = self.slots[k].replace(value).is_none();
        self.held += usize::from(fresh);
        fresh
    }

    /// Empty peer `k`'s slot, handing out what it held.
    pub(crate) fn take(&mut self, k: usize) -> Option<S> {
        let value = self.slots[k].take()?;
        self.held -= 1;
        Some(value)
    }

    /// Peer `k`'s value (`None` also while the table is unsized).
    pub(crate) fn get(&self, k: usize) -> Option<&S> {
        self.slots.get(k)?.as_ref()
    }

    /// How many slots are occupied.
    pub(crate) fn held(&self) -> usize {
        self.held
    }
}

/// Actual values received for iterations at or past the confirmation
/// point, as a ring of per-iteration rows: row `i` holds what each sender
/// delivered for iteration `base + i`. Committing an iteration slides the
/// ring and recycles the row it leaves behind.
pub(crate) struct Inbox<S> {
    p: usize,
    /// Iteration of `rows[0]`: the driver's `t_conf`. Everything below has
    /// been consumed.
    base: u64,
    /// The run's iteration count. No iteration at or past it is ever
    /// executed, so a frame stamped that far ahead is dropped on arrival —
    /// which also bounds the ring against a peer that stamps garbage.
    limit: u64,
    /// A row stays unsized (a placeholder between the window and a
    /// far-ahead frame) until its first value arrives.
    rows: VecDeque<Slots<S>>,
    /// Emptied rows, still sized, awaiting reuse.
    spare: Vec<Slots<S>>,
    /// Rows holding at least one value.
    occupied: usize,
}

impl<S> Inbox<S> {
    /// An empty inbox for `p` ranks and a run of `limit` iterations.
    pub(crate) fn new(p: usize, limit: u64) -> Self {
        Inbox {
            p,
            base: 0,
            limit,
            rows: VecDeque::new(),
            spare: Vec::new(),
            occupied: 0,
        }
    }

    /// The run's iteration count: frames stamped at or past it are dropped.
    pub(crate) fn limit(&self) -> u64 {
        self.limit
    }

    fn row(&self, iter: u64) -> Option<&Slots<S>> {
        let i = usize::try_from(iter.checked_sub(self.base)?).ok()?;
        self.rows.get(i)
    }

    /// Buffer `peer`'s actual for `iter`, replacing a duplicate. Consumed
    /// (`iter < base`) and never-executed (`iter >= limit`) iterations are
    /// dropped. Returns whether `(iter, peer)` was empty before.
    pub(crate) fn insert(&mut self, iter: u64, peer: usize, value: S) -> bool {
        if iter < self.base || iter >= self.limit {
            return false;
        }
        let i = (iter - self.base) as usize;
        while self.rows.len() <= i {
            self.rows
                .push_back(self.spare.pop().unwrap_or(Slots::UNSIZED));
        }
        let row = &mut self.rows[i];
        if row.slots.is_empty() {
            row.reset(self.p);
        }
        let fresh = row.put(peer, value);
        if fresh && row.held() == 1 {
            self.occupied += 1;
        }
        fresh
    }

    /// `peer`'s buffered actual for `iter`.
    pub(crate) fn get(&self, iter: u64, peer: usize) -> Option<&S> {
        self.row(iter)?.get(peer)
    }

    /// How many peers' actuals for `iter` are buffered.
    pub(crate) fn arrived(&self, iter: u64) -> usize {
        self.row(iter).map_or(0, Slots::held)
    }

    /// Distinct iterations with at least one buffered value.
    pub(crate) fn depth(&self) -> usize {
        self.occupied
    }

    /// Slide the window to `base`: every iteration below it is consumed.
    pub(crate) fn advance(&mut self, base: u64) {
        debug_assert!(base >= self.base, "the confirmation point never regresses");
        let consumed = (base - self.base).min(self.rows.len() as u64);
        for _ in 0..consumed {
            let row = self.rows.pop_front().expect("counted above");
            self.recycle(row);
        }
        self.base = base;
    }

    /// Drop every buffered value (crash recovery); the window stays put.
    pub(crate) fn clear(&mut self) {
        while let Some(row) = self.rows.pop_back() {
            self.recycle(row);
        }
    }

    /// Empty a row that held values and keep it for reuse; a placeholder
    /// that never held one has nothing worth keeping.
    fn recycle(&mut self, mut row: Slots<S>) {
        if row.held() > 0 {
            self.occupied -= 1;
            row.reset(self.p);
            self.spare.push(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    /// The invariants `Inbox` keeps between its counters and its slots.
    fn assert_inbox_books_close<S>(inbox: &Inbox<S>) {
        let mut occupied = 0;
        for row in &inbox.rows {
            let some = row.slots.iter().filter(|s| s.is_some()).count();
            assert_eq!(row.held(), some, "row arrival count drifted");
            occupied += usize::from(some > 0);
        }
        assert_eq!(inbox.occupied, occupied, "occupied-row count drifted");
        for row in &inbox.spare {
            assert_eq!(row.held(), 0);
            assert!(row.slots.iter().all(|s| s.is_none()), "dirty spare row");
        }
    }

    #[test]
    fn inbox_duplicate_replaces_without_recounting() {
        let mut inbox: Inbox<u32> = Inbox::new(2, 100);
        assert!(inbox.insert(4, 1, 1));
        assert!(!inbox.insert(4, 1, 2), "a duplicate is not a fresh arrival");
        assert_eq!(inbox.get(4, 1), Some(&2), "the newer copy wins");
        assert_eq!(inbox.arrived(4), 1);
        assert_eq!(inbox.depth(), 1);
    }

    #[test]
    fn inbox_drops_consumed_and_never_executed_iterations() {
        let mut inbox: Inbox<u32> = Inbox::new(2, 10);
        inbox.advance(5);
        assert!(!inbox.insert(4, 1, 1), "below the confirmation point");
        assert!(!inbox.insert(10, 1, 1), "at the end of the run");
        assert!(!inbox.insert(u64::MAX >> 1, 1, 1), "garbage stamp");
        assert_eq!(inbox.depth(), 0);
        assert!(inbox.rows.is_empty(), "a dropped frame grows nothing");
        assert!(inbox.insert(9, 1, 1), "the last iteration is buffered");
    }

    /// One step of the differential test below.
    #[derive(Clone, Debug)]
    enum Op {
        /// `(iteration offset from the confirmation point − 2, peer)`:
        /// offsets 0 and 1 are stale, large ones far ahead.
        Insert(u64, usize),
        /// Commit: slide the window by this much.
        Advance(u64),
        Clear,
    }

    const P: usize = 4;
    const LIMIT: u64 = 60;

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..6, 0usize..P).prop_map(|(d, k)| Op::Insert(d, k)),
            (0u64..6, 0usize..P).prop_map(|(d, k)| Op::Insert(d, k)),
            (0u64..80, 0usize..P).prop_map(|(d, k)| Op::Insert(d, k)),
            (1u64..4).prop_map(Op::Advance),
            Just(Op::Clear),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `Inbox` against the structure it replaced — a
        /// `BTreeMap<iter, HashMap<peer, value>>` with the driver's
        /// `iter >= t_conf` guard on insert and `split_off(&t_conf)` on
        /// commit — over inserts (fresh, duplicate, stale, far ahead, past
        /// the end of the run), commits and crash-recovery clears.
        #[test]
        fn inbox_matches_the_map_of_maps_it_replaced(
            ops in proptest::collection::vec(op(), 1..120),
        ) {
            let mut inbox: Inbox<u64> = Inbox::new(P, LIMIT);
            let mut model: BTreeMap<u64, HashMap<usize, u64>> = BTreeMap::new();
            let mut t_conf = 0u64;
            for (stamp, op) in ops.into_iter().enumerate() {
                let stamp = stamp as u64; // distinguishes a duplicate's payload
                match op {
                    Op::Insert(d, k) => {
                        let iter = (t_conf + d).saturating_sub(2);
                        let fresh = iter >= t_conf
                            && iter < LIMIT
                            && model.entry(iter).or_default().insert(k, stamp).is_none();
                        prop_assert_eq!(inbox.insert(iter, k, stamp), fresh);
                    }
                    Op::Advance(n) => {
                        t_conf += n;
                        model = model.split_off(&t_conf);
                        inbox.advance(t_conf);
                    }
                    Op::Clear => {
                        model.clear();
                        inbox.clear();
                    }
                }
                prop_assert_eq!(inbox.depth(), model.len());
                for iter in t_conf.saturating_sub(2)..t_conf + 80 {
                    let row = model.get(&iter);
                    prop_assert_eq!(inbox.arrived(iter), row.map_or(0, HashMap::len));
                    for k in 0..P {
                        prop_assert_eq!(inbox.get(iter, k), row.and_then(|m| m.get(&k)));
                    }
                }
                assert_inbox_books_close(&inbox);
            }
        }
    }
}
