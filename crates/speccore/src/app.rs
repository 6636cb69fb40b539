//! The application-side contract of the speculative driver.
//!
//! A synchronous iterative algorithm in the paper's model (§2) evaluates
//! `X(t+1) = F(X(t), X(t-1), …)` with `X` partitioned across processors;
//! each processor contributes its partition's update and consumes every
//! other partition's values. [`SpeculativeApp`] decomposes one iteration
//! into *absorbing* each peer partition's contribution plus a local
//! *finish* step, which is what lets the driver substitute speculated
//! values per peer and correct or re-execute afterwards.
//!
//! Every mutating method returns its cost in abstract *operations*; the
//! driver charges them through [`AsyncTransport::compute`], so the same
//! code is timed by the virtual-time backend and spun by the thread
//! backend.
//!
//! [`AsyncTransport::compute`]: mpk::AsyncTransport::compute

use mpk::Rank;

use crate::history::History;
use crate::speculator;

/// A partition snapshot as a fixed list of `f64` rows. Lane `l` is the
/// `l`-th scalar of the rows concatenated: what §3.1's speculation
/// extrapolates and delta exchange diffs, the same scalar on every rank.
pub trait Lanes: Clone {
    /// Number of rows.
    fn row_count(&self) -> usize;

    /// Row `r` (`r < row_count()`).
    fn row(&self, r: usize) -> &[f64];

    /// Row `r`, writable; storage shared with another value is copied.
    fn row_mut(&mut self, r: usize) -> &mut [f64];

    /// Number of lanes: the rows' lengths summed.
    fn lane_count(&self) -> usize {
        (0..self.row_count()).map(|r| self.row(r).len()).sum()
    }
}

impl Lanes for Vec<f64> {
    fn row_count(&self) -> usize {
        1
    }

    fn row(&self, _r: usize) -> &[f64] {
        self
    }

    fn row_mut(&mut self, _r: usize) -> &mut [f64] {
        self
    }
}

impl<T: Lanes> Lanes for std::sync::Arc<T> {
    fn row_count(&self) -> usize {
        T::row_count(self)
    }

    fn row(&self, r: usize) -> &[f64] {
        T::row(self, r)
    }

    fn row_mut(&mut self, r: usize) -> &mut [f64] {
        std::sync::Arc::make_mut(self).row_mut(r)
    }
}

/// Result of comparing a speculated partition value with the actual one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckOutcome {
    /// True if the speculation is acceptable as-is (no correction needed).
    /// Typically `max_error <= θ` for an app-defined threshold θ.
    pub accept: bool,
    /// Largest per-unit error observed (the paper's eq. 11 metric for
    /// N-body).
    pub max_error: f64,
    /// Largest error among units that *passed* the threshold — the error
    /// the computation silently absorbs even when corrections run
    /// (Table 3's "max error in force" column).
    pub max_accepted_error: f64,
    /// Number of fine-grained units (e.g. particles) compared.
    pub checked_units: u64,
    /// Units whose error exceeded the threshold (to be recomputed).
    pub bad_units: u64,
    /// Cost of the comparison, in operations (`f_check` per unit).
    pub ops: u64,
}

impl CheckOutcome {
    /// Tally per-unit errors against θ, charging `ops_per_unit` per unit.
    /// A `malformed` pair (a side of the wrong length, compared on its
    /// common prefix) is rejected whole, every unit bad.
    pub fn tally(
        errors: impl IntoIterator<Item = f64>,
        malformed: bool,
        theta: f64,
        ops_per_unit: u64,
    ) -> Self {
        let mut max_error: f64 = 0.0;
        let mut max_accepted: f64 = 0.0;
        let (mut units, mut bad) = (0u64, 0u64);
        for err in errors {
            units += 1;
            max_error = max_error.max(err);
            if malformed || err > theta {
                bad += 1;
            } else {
                max_accepted = max_accepted.max(err);
            }
        }
        CheckOutcome {
            accept: bad == 0 && !malformed,
            max_error,
            max_accepted_error: max_accepted,
            checked_units: units,
            bad_units: bad,
            ops: ops_per_unit * units,
        }
    }
}

/// A partitioned synchronous iterative algorithm, speculation-ready.
///
/// The driver calls, per iteration `t`:
/// 1. [`begin_iteration`](Self::begin_iteration) once;
/// 2. [`absorb`](Self::absorb) once per peer, passing either the received
///    `X_k(t)` or a value obtained from [`speculate`](Self::speculate);
/// 3. [`finish_iteration`](Self::finish_iteration) once — after which
///    [`shared`](Self::shared) must return `X_j(t+1)`;
/// 4. for inputs that were speculated, [`check`](Self::check) when the
///    actual arrives, and on rejection either
///    [`correct`](Self::correct) (incremental fix-up) or a checkpoint
///    rollback followed by re-execution.
pub trait SpeculativeApp {
    /// The partition snapshot broadcast every iteration (`X_j(t)`).
    type Shared: Lanes + Send + 'static;
    /// Opaque state snapshot used for forward-window rollback.
    type Checkpoint;

    /// Current value of this rank's partition, to broadcast.
    fn shared(&self) -> Self::Shared;

    /// Start a new iteration; returns setup cost in operations.
    fn begin_iteration(&mut self) -> u64;

    /// Incorporate partition `from`'s values into the iteration in
    /// progress; returns the cost in operations (`f_comp` work).
    fn absorb(&mut self, from: Rank, x: &Self::Shared) -> u64;

    /// Complete the iteration (local state update); returns its cost.
    /// After this, [`shared`](Self::shared) reflects the new iteration.
    fn finish_iteration(&mut self) -> u64;

    /// Predict partition `from`'s value `ahead` iterations past the newest
    /// entry of `hist` (`ahead ≥ 1`). Returns the prediction and its cost
    /// (`f_spec` work), or `None` if the history is insufficient.
    ///
    /// The default extrapolates every lane linearly
    /// ([`speculator::linear`]) at 4 operations per lane.
    fn speculate(
        &self,
        from: Rank,
        hist: &History<Self::Shared>,
        ahead: u32,
    ) -> Option<(Self::Shared, u64)> {
        let _ = from;
        let next = speculator::linear(hist, ahead)?;
        let ops = 4 * next.lane_count() as u64;
        Some((next, ops))
    }

    /// Compare a speculated input with the actual value that has now
    /// arrived. The app owns the error metric and threshold.
    fn check(&self, from: Rank, actual: &Self::Shared, speculated: &Self::Shared) -> CheckOutcome;

    /// Incrementally repair the current iteration's result after `from`'s
    /// speculated input was rejected: retract the contribution computed
    /// from `speculated` and apply the one from `actual` (only for the
    /// units that exceeded the threshold, matching the paper's selective
    /// recomputation). Returns the cost in operations.
    ///
    /// Only invoked when this is the sole unconfirmed iteration; deeper
    /// speculation consults [`correct_deep`](Self::correct_deep) and rolls
    /// back if it declines.
    fn correct(&mut self, from: Rank, speculated: &Self::Shared, actual: &Self::Shared) -> u64;

    /// Repair a misspeculated input of the *oldest* unconfirmed iteration
    /// when `depth` further iterations have already been executed on top
    /// of it. Returns the cost if the app can propagate the correction
    /// through those iterations (typically a first-order update, accepting
    /// a second-order residual — the paper's bounded-error philosophy), or
    /// `None` to request a checkpoint rollback and exact re-execution.
    ///
    /// The default declines, which is always sound.
    fn correct_deep(
        &mut self,
        from: Rank,
        speculated: &Self::Shared,
        actual: &Self::Shared,
        depth: u64,
    ) -> Option<u64> {
        let _ = (from, speculated, actual, depth);
        None
    }

    /// Flatten a [`Shared`](Self::Shared) snapshot into its lanes for
    /// delta exchange, into `out` (cleared first): the rows concatenated.
    /// An override returning `false` makes the driver ignore any
    /// [`DeltaExchange`](crate::config::DeltaExchange) policy.
    fn delta_extract(&self, shared: &Self::Shared, out: &mut Vec<f64>) -> bool {
        out.clear();
        for r in 0..shared.row_count() {
            out.extend_from_slice(shared.row(r));
        }
        true
    }

    /// Rebuild a snapshot from `base` with `(lane, value)` entries of
    /// [`delta_extract`](Self::delta_extract)'s layout applied; `None`
    /// when a lane is out of range (the lane is the peer's word).
    fn delta_patch(&self, base: &Self::Shared, entries: &[(u32, f64)]) -> Option<Self::Shared> {
        let mut next = base.clone();
        for &(lane, value) in entries {
            let (mut r, mut at) = (0, lane as usize);
            while r < next.row_count() && at >= next.row(r).len() {
                at -= next.row(r).len();
                r += 1;
            }
            if r == next.row_count() {
                return None;
            }
            next.row_mut(r)[at] = value;
        }
        Some(next)
    }

    /// Update the acceptance threshold θ the app uses in
    /// [`check`](Self::check). Invoked by the adaptive speculation
    /// controller when a retune changes θ; apps with a fixed or
    /// app-managed threshold may ignore it (the default is a no-op, which
    /// keeps every existing app working unchanged and makes the
    /// controller's θ channel opt-in).
    fn set_speculation_threshold(&mut self, theta: f64) {
        let _ = theta;
    }

    /// Snapshot the state needed to re-execute from the current point.
    fn checkpoint(&self) -> Self::Checkpoint;

    /// Snapshot into a reusable slot. The driver recycles the checkpoints
    /// of confirmed (or rolled-back) iterations through this method, so an
    /// app whose `Checkpoint` owns buffers can overwrite them in place and
    /// keep the steady-state iteration path allocation-free. The default
    /// simply stores a fresh [`checkpoint`](Self::checkpoint); `slot` is
    /// always `Some` on return.
    fn checkpoint_into(&self, slot: &mut Option<Self::Checkpoint>) {
        *slot = Some(self.checkpoint());
    }

    /// Restore a snapshot taken by [`checkpoint`](Self::checkpoint).
    fn restore(&mut self, c: &Self::Checkpoint);
}
