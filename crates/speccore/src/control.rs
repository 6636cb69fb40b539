//! The adaptive speculation controller: online θ/FW/deadline retuning.
//!
//! Every run so far shipped with a hand-picked static `(θ, FW)` and fixed
//! [`FaultTolerance`](crate::FaultTolerance) deadlines — wrong the moment
//! delay or compute distributions drift. This module closes the loop: a
//! per-rank controller estimates per-peer delay and per-confirmation
//! compute/wait/miss statistics from the telemetry the driver already
//! commits (receive instants, phase spans, check outcomes), feeds them
//! through the perfmodel §4 equations ([`perfmodel::best_forward_window`]),
//! and periodically retunes
//!
//! * the **forward window** (argmin of the FW-generalized eq. 8),
//! * the **acceptance threshold θ** (smallest grid value covering the
//!   observed speculation-error quantile — or the most accurate grid
//!   value when there is no delay worth masking), and
//! * the **per-peer loss/grace deadlines** (quantile of observed
//!   inter-arrival gaps × headroom, clamped so they only ever *tighten*
//!   the static [`FaultTolerance`](crate::FaultTolerance) timeout).
//!
//! ## Determinism
//!
//! Decisions are a pure function of committed telemetry sampled at
//! confirmation boundaries: every input is derived from virtual-time
//! instants and counters that are themselves bit-reproducible per seed, the
//! estimator state is updated in deterministic order, and quantiles are
//! computed over a sorted copy with total ordering. No wall-clock value
//! ever enters the estimators, so per-seed bit-reproducibility and the
//! stackless/threaded equivalence harness are preserved.

use desim::{SimDuration, SimTime};

/// EWMA smoothing factor for the per-confirmation busy/wait/miss signals.
const ALPHA: f64 = 0.25;

/// Acceptable fraction of speculation misses when choosing θ: θ is picked
/// to cover the `(1 − MISS_TARGET)` quantile of observed speculation errors.
const MISS_TARGET: f64 = 0.05;

/// Waits below this many nanoseconds per confirmation count as "no delay
/// worth masking": the controller then pins θ to the most accurate grid
/// value and leaves the window alone.
const WAIT_FLOOR_NS: f64 = 1_000.0;

/// Inter-arrival samples needed before a peer's deadline is adapted.
const MIN_GAP_SAMPLES: usize = 4;

/// Ring capacity for per-peer gap and speculation-error samples.
const RING_CAP: usize = 32;

/// Adaptive deadlines never drop below this (1 µs): a zero deadline would
/// promote losses at every scheduler step.
const DEADLINE_FLOOR_NS: u64 = 1_000;

/// Relative improvement the predicted iteration time must show before the
/// controller moves the forward window — hysteresis against ±1 flapping.
const FW_HYSTERESIS: f64 = 0.01;

/// Configuration for the adaptive controller, attached to a run with
/// [`SpecConfig::with_adaptive`](crate::SpecConfig::with_adaptive).
#[derive(Clone, Debug, PartialEq)]
pub struct ControllerConfig {
    /// Confirmations observed before the first retune. Must be ≥ 1.
    pub(crate) warmup: u64,
    /// Confirmations between retune evaluations after warmup. Must be ≥ 1.
    pub(crate) period: u64,
    /// Largest forward window the controller may choose. Must be ≥ 1.
    pub(crate) fw_max: u32,
    /// Ascending candidate acceptance thresholds. Empty leaves θ untouched.
    /// Entry 0 is the "exact" anchor the controller falls back to whenever
    /// there is no observed delay to mask (by convention `0.0`).
    pub(crate) theta_grid: Vec<f64>,
    /// Quantile of observed per-peer inter-arrival gaps used for adaptive
    /// deadlines, in `(0, 1]`.
    pub(crate) delay_quantile: f64,
    /// Multiplier applied to the gap quantile to form the deadline.
    /// Must be ≥ 1.
    pub(crate) deadline_headroom: f64,
}

impl ControllerConfig {
    /// Defaults: warmup 8 confirmations, retune every 4, windows up to 4,
    /// θ untouched, 90th-percentile gaps with 2× headroom.
    pub fn new() -> Self {
        ControllerConfig {
            warmup: 8,
            period: 4,
            fw_max: 4,
            theta_grid: Vec::new(),
            delay_quantile: 0.9,
            deadline_headroom: 2.0,
        }
    }

    /// Set the θ candidate grid. Panics unless the grid is ascending with
    /// finite, non-negative entries.
    pub fn with_theta_grid(mut self, grid: Vec<f64>) -> Self {
        assert!(
            grid.iter().all(|t| t.is_finite() && *t >= 0.0),
            "theta grid entries must be finite and non-negative"
        );
        assert!(
            grid.windows(2).all(|w| w[0] < w[1]),
            "theta grid must be strictly ascending"
        );
        self.theta_grid = grid;
        self
    }

    /// Set the largest window the controller may choose (≥ 1).
    pub fn with_fw_max(mut self, fw_max: u32) -> Self {
        assert!(fw_max >= 1, "fw_max must be at least 1");
        self.fw_max = fw_max;
        self
    }

    /// Set warmup and retune period, both in confirmations (≥ 1 each).
    pub fn with_cadence(mut self, warmup: u64, period: u64) -> Self {
        assert!(warmup >= 1, "warmup must be at least 1 confirmation");
        assert!(period >= 1, "period must be at least 1 confirmation");
        self.warmup = warmup;
        self.period = period;
        self
    }

    /// Set the adaptive-deadline shape: gap quantile in `(0, 1]` and
    /// headroom multiplier ≥ 1.
    pub fn with_deadline(mut self, quantile: f64, headroom: f64) -> Self {
        assert!(
            quantile > 0.0 && quantile <= 1.0,
            "delay quantile must be in (0, 1]"
        );
        assert!(
            headroom.is_finite() && headroom >= 1.0,
            "deadline headroom must be finite and at least 1"
        );
        self.delay_quantile = quantile;
        self.deadline_headroom = headroom;
        self
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Fixed-capacity ring of `f64` samples with deterministic quantiles.
#[derive(Clone, Debug)]
struct Ring {
    buf: Vec<f64>,
    next: usize,
    cap: usize,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(cap),
            next: 0,
            cap,
        }
    }

    fn push(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.next] = v;
            self.next = (self.next + 1) % self.cap;
        }
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    /// Quantile over a sorted copy, `q` clamped into `[0, 1]`. Total
    /// ordering (no NaN can enter) keeps this deterministic.
    fn quantile(&self, q: f64) -> Option<f64> {
        if self.buf.is_empty() {
            return None;
        }
        let mut sorted = self.buf.clone();
        sorted.sort_by(f64::total_cmp);
        let q = q.clamp(0.0, 1.0);
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        Some(sorted[idx])
    }
}

/// One retune evaluation's outcome, applied by the driver at a
/// confirmation boundary.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Decision {
    /// The forward window to run with from the next iteration on.
    pub fw: u32,
    /// The acceptance threshold to adopt, if the grid is non-empty.
    pub theta: Option<f64>,
    /// The tightest adaptive per-peer deadline now in force, in
    /// nanoseconds (0 when every peer still uses the static timeout).
    pub tightest_deadline_ns: u64,
}

/// Per-rank online estimator + decision state. Owned by the driver; all
/// methods are called at deterministic points of the iteration protocol.
#[derive(Clone, Debug)]
pub(crate) struct ControllerState {
    cfg: ControllerConfig,
    /// Per-peer inter-arrival gaps in nanoseconds.
    gaps: Vec<Ring>,
    /// Observed speculation errors from committed check outcomes.
    errors: Ring,
    busy_ewma_ns: f64,
    wait_ewma_ns: f64,
    miss_ewma: f64,
    seeded: bool,
    confirms: u64,
    cur_fw: u32,
    cur_theta: Option<f64>,
    /// Adaptive per-peer deadlines; `None` falls back to the static
    /// `FaultTolerance::loss_timeout`.
    deadlines: Vec<Option<SimDuration>>,
}

impl ControllerState {
    pub(crate) fn new(cfg: ControllerConfig, p: usize, initial_fw: u32) -> Self {
        ControllerState {
            gaps: (0..p).map(|_| Ring::new(RING_CAP)).collect(),
            errors: Ring::new(RING_CAP),
            busy_ewma_ns: 0.0,
            wait_ewma_ns: 0.0,
            miss_ewma: 0.0,
            seeded: false,
            confirms: 0,
            cur_fw: initial_fw,
            cur_theta: None,
            deadlines: vec![None; p],
            cfg,
        }
    }

    /// Record a message arrival from `src` at virtual instant `now`;
    /// `prev` is the peer's previous arrival, if any (the driver keeps the
    /// one arrival clock per peer).
    pub(crate) fn on_receive(&mut self, src: usize, prev: Option<SimTime>, now: SimTime) {
        if let (Some(ring), Some(prev)) = (self.gaps.get_mut(src), prev) {
            ring.push(now.duration_since(prev).as_nanos() as f64);
        }
    }

    /// Record one committed check outcome's observed speculation error.
    pub(crate) fn observe_error(&mut self, max_error: f64) {
        self.errors.push(max_error);
    }

    /// Fold one confirmation's deltas into the estimators: partitions
    /// missed/checked since the previous confirm, wait time accumulated,
    /// and busy (compute+speculate+check+correct) time spent.
    pub(crate) fn on_confirm(
        &mut self,
        misses: u64,
        checked: u64,
        waited: SimDuration,
        busy: SimDuration,
    ) {
        let miss_frac = if checked == 0 {
            0.0
        } else {
            misses as f64 / checked as f64
        };
        let wait_ns = waited.as_nanos() as f64;
        let busy_ns = busy.as_nanos() as f64;
        if self.seeded {
            self.busy_ewma_ns += ALPHA * (busy_ns - self.busy_ewma_ns);
            self.wait_ewma_ns += ALPHA * (wait_ns - self.wait_ewma_ns);
            self.miss_ewma += ALPHA * (miss_frac - self.miss_ewma);
        } else {
            self.busy_ewma_ns = busy_ns;
            self.wait_ewma_ns = wait_ns;
            self.miss_ewma = miss_frac;
            self.seeded = true;
        }
        self.confirms += 1;
    }

    /// Evaluate a retune if one is due at this confirmation boundary.
    /// `static_timeout` is the configured `FaultTolerance::loss_timeout`
    /// ceiling for adaptive deadlines (None when fault tolerance is off —
    /// deadlines are then moot but still tracked for reporting).
    pub(crate) fn maybe_retune(&mut self, static_timeout: Option<SimDuration>) -> Option<Decision> {
        if self.confirms < self.cfg.warmup
            || !(self.confirms - self.cfg.warmup).is_multiple_of(self.cfg.period)
        {
            return None;
        }

        let busy = self.busy_ewma_ns.max(1.0);
        let delay_visible = self.wait_ewma_ns > WAIT_FLOOR_NS;

        // Forward window: invert the wait observation into a total-delay
        // estimate (wait = max(0, d − fw·busy) ⇒ d = wait + fw·busy when
        // unmasked), then argmin the FW-generalized eq. 8. Hysteresis: only
        // move when the predicted time improves by more than FW_HYSTERESIS.
        let fw = {
            let w_now = f64::from(self.cur_fw.max(1));
            let comm = if delay_visible {
                self.wait_ewma_ns + w_now * busy
            } else {
                // Fully masked: the delay estimate is unobservable below
                // (fw − 1)·busy; assume the current window is exactly right.
                (w_now - 1.0) * busy
            };
            let cand =
                perfmodel::best_forward_window(busy, comm, 0.0, self.miss_ewma, self.cfg.fw_max);
            let t_cand = perfmodel::masked_iteration_time(busy, comm, 0.0, self.miss_ewma, cand);
            let t_cur = perfmodel::masked_iteration_time(
                busy,
                comm,
                0.0,
                self.miss_ewma,
                self.cur_fw.max(1),
            );
            if t_cand < t_cur * (1.0 - FW_HYSTERESIS) {
                cand
            } else {
                self.cur_fw.max(1).min(self.cfg.fw_max)
            }
        };

        // θ: with no delay worth masking, accuracy costs nothing — pin the
        // most accurate grid value. Otherwise cover the observed error
        // quantile so at most `MISS_TARGET` of speculations miss.
        let theta = if self.cfg.theta_grid.is_empty() {
            None
        } else if !delay_visible {
            Some(self.cfg.theta_grid[0])
        } else {
            match self.errors.quantile(1.0 - MISS_TARGET) {
                None => Some(self.cfg.theta_grid[0]),
                Some(q) => Some(
                    self.cfg
                        .theta_grid
                        .iter()
                        .copied()
                        .find(|t| *t >= q)
                        .unwrap_or(*self.cfg.theta_grid.last().unwrap()),
                ),
            }
        };

        // Per-peer deadlines: gap quantile × headroom, clamped to
        // [DEADLINE_FLOOR_NS, static timeout] — adaptation may only ever
        // tighten the configured deadline, never loosen it.
        let mut tightest: u64 = 0;
        for (k, ring) in self.gaps.iter().enumerate() {
            if ring.len() < MIN_GAP_SAMPLES {
                continue;
            }
            let Some(q) = ring.quantile(self.cfg.delay_quantile) else {
                continue;
            };
            let mut ns = (q * self.cfg.deadline_headroom).round() as u64;
            ns = ns.max(DEADLINE_FLOOR_NS);
            if let Some(ceiling) = static_timeout {
                ns = ns.min(ceiling.as_nanos());
            }
            self.deadlines[k] = Some(SimDuration::from_nanos(ns));
            if tightest == 0 || ns < tightest {
                tightest = ns;
            }
        }

        self.cur_fw = fw;
        self.cur_theta = theta;
        Some(Decision {
            fw,
            theta,
            tightest_deadline_ns: tightest,
        })
    }

    /// The adaptive loss/grace deadline for peer `k`, if one is in force.
    pub(crate) fn deadline_for(&self, k: usize) -> Option<SimDuration> {
        self.deadlines.get(k).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ControllerConfig {
        ControllerConfig::new()
            .with_cadence(2, 1)
            .with_fw_max(8)
            .with_theta_grid(vec![0.0, 0.01, 0.05])
    }

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn controller_config_builders_set_their_knobs() {
        let c = cfg();
        assert_eq!((c.warmup, c.period, c.fw_max), (2, 1, 8));
        let c = ControllerConfig::default().with_deadline(0.5, 3.0);
        assert_eq!((c.delay_quantile, c.deadline_headroom), (0.5, 3.0));
    }

    /// Every knob a builder refuses, with the words its panic carries.
    #[test]
    fn builders_reject_degenerate_knobs() {
        let cases: [(fn(), &str); 7] = [
            (
                || _ = ControllerConfig::new().with_cadence(0, 4),
                "warmup must be at least 1",
            ),
            (
                || _ = ControllerConfig::new().with_cadence(8, 0),
                "period must be at least 1",
            ),
            (
                || _ = ControllerConfig::new().with_fw_max(0),
                "fw_max must be at least 1",
            ),
            (
                || _ = ControllerConfig::new().with_deadline(0.0, 2.0),
                "delay quantile must be in (0, 1]",
            ),
            (
                || _ = ControllerConfig::new().with_deadline(0.9, 0.5),
                "headroom must be finite and at least 1",
            ),
            (
                || _ = ControllerConfig::new().with_theta_grid(vec![f64::NAN]),
                "finite and non-negative",
            ),
            (
                || _ = ControllerConfig::new().with_theta_grid(vec![0.1, 0.01]),
                "strictly ascending",
            ),
        ];
        for (build, want) in cases {
            let payload = std::panic::catch_unwind(build).expect_err(want);
            let msg = payload
                .downcast_ref::<&str>()
                .expect("a literal panic message");
            assert!(msg.contains(want), "{want:?} panicked with {msg:?}");
        }
    }

    #[test]
    fn no_retune_before_warmup_or_off_period() {
        let mut st = ControllerState::new(cfg().with_cadence(3, 2), 2, 1);
        st.on_confirm(0, 1, ms(0), ms(10));
        assert!(st.maybe_retune(None).is_none(), "confirm 1 < warmup");
        st.on_confirm(0, 1, ms(0), ms(10));
        assert!(st.maybe_retune(None).is_none(), "confirm 2 < warmup");
        st.on_confirm(0, 1, ms(0), ms(10));
        assert!(st.maybe_retune(None).is_some(), "confirm 3 = warmup");
        st.on_confirm(0, 1, ms(0), ms(10));
        assert!(st.maybe_retune(None).is_none(), "off-period confirm");
        st.on_confirm(0, 1, ms(0), ms(10));
        assert!(st.maybe_retune(None).is_some(), "warmup + period");
    }

    #[test]
    fn window_deepens_under_visible_wait_and_holds_when_masked() {
        let mut st = ControllerState::new(cfg(), 2, 1);
        // Busy 10ms per confirm, waiting 25ms: total delay ≈ 35ms needs a
        // deeper window.
        for _ in 0..4 {
            st.on_confirm(0, 4, ms(25), ms(10));
        }
        let d = st.maybe_retune(None).expect("due");
        assert!(
            d.fw > 1,
            "visible wait must deepen the window, got {}",
            d.fw
        );
        let deep = d.fw;

        // Now fully masked: wait ~0 (long enough for the EWMA to drain).
        // Hysteresis holds the window in place.
        for _ in 0..48 {
            st.on_confirm(0, 4, ms(0), ms(10));
        }
        let d = st.maybe_retune(None).expect("due");
        assert_eq!(d.fw, deep, "masked delay must not flap the window");
    }

    #[test]
    fn zero_wait_pins_theta_to_most_accurate_grid_value() {
        let mut st = ControllerState::new(cfg(), 2, 1);
        // Even with large observed errors, zero wait means θ stays at the
        // exact anchor.
        for _ in 0..8 {
            st.observe_error(0.04);
        }
        for _ in 0..4 {
            st.on_confirm(1, 4, SimDuration::ZERO, ms(10));
        }
        let d = st.maybe_retune(None).expect("due");
        assert_eq!(d.theta, Some(0.0));
    }

    #[test]
    fn theta_covers_error_quantile_under_delay() {
        let mut st = ControllerState::new(cfg(), 2, 1);
        for _ in 0..16 {
            st.observe_error(0.004);
        }
        for _ in 0..4 {
            st.on_confirm(1, 4, ms(20), ms(10));
        }
        let d = st.maybe_retune(None).expect("due");
        // Smallest grid value covering 0.004 is 0.01.
        assert_eq!(d.theta, Some(0.01));

        // Errors beyond the whole grid clamp to the largest candidate.
        let mut st = ControllerState::new(cfg(), 2, 1);
        for _ in 0..16 {
            st.observe_error(0.2);
        }
        for _ in 0..4 {
            st.on_confirm(1, 4, ms(20), ms(10));
        }
        let d = st.maybe_retune(None).expect("due");
        assert_eq!(d.theta, Some(0.05));
    }

    #[test]
    fn empty_theta_grid_leaves_theta_untouched() {
        let mut st = ControllerState::new(ControllerConfig::new().with_cadence(1, 1), 2, 1);
        st.on_confirm(0, 1, ms(5), ms(10));
        let d = st.maybe_retune(None).expect("due");
        assert_eq!(d.theta, None);
    }

    #[test]
    fn deadlines_are_gap_quantile_times_headroom_and_only_tighten() {
        let mut st = ControllerState::new(cfg().with_deadline(1.0, 2.0), 3, 1);
        // Peer 1 heard every 5ms; peer 2 has too few samples.
        let mut t = SimTime::ZERO;
        for _ in 0..6 {
            let prev = (t > SimTime::ZERO).then_some(t);
            t += ms(5);
            st.on_receive(1, prev, t);
        }
        st.on_receive(2, None, SimTime::from_nanos(ms(1).as_nanos()));
        for _ in 0..4 {
            st.on_confirm(0, 1, ms(5), ms(5));
        }
        let d = st.maybe_retune(Some(ms(50))).expect("due");
        // Max gap 5ms × headroom 2 = 10ms, well under the 50ms ceiling.
        assert_eq!(st.deadline_for(1), Some(ms(10)));
        assert_eq!(d.tightest_deadline_ns, ms(10).as_nanos());
        // Peer 2: not enough samples, stays on the static timeout.
        assert_eq!(st.deadline_for(2), None);
        // The static timeout is a hard ceiling: with a 4ms ceiling the
        // same gaps clamp down.
        let mut st2 = ControllerState::new(cfg().with_deadline(1.0, 2.0), 3, 1);
        let mut t = SimTime::ZERO;
        for _ in 0..6 {
            let prev = (t > SimTime::ZERO).then_some(t);
            t += ms(5);
            st2.on_receive(1, prev, t);
        }
        for _ in 0..4 {
            st2.on_confirm(0, 1, ms(5), ms(5));
        }
        st2.maybe_retune(Some(ms(4))).expect("due");
        assert_eq!(st2.deadline_for(1), Some(ms(4)));
    }

    #[test]
    fn estimators_ignore_out_of_range_and_non_finite_samples() {
        let mut st = ControllerState::new(cfg(), 2, 1);
        st.on_receive(99, Some(SimTime::ZERO), SimTime::from_nanos(5)); // out of range: ignored
        st.observe_error(f64::NAN); // non-finite: ignored
        st.observe_error(f64::INFINITY);
        assert_eq!(st.errors.len(), 0);
        // Ring wraps deterministically past capacity.
        let mut r = Ring::new(4);
        for i in 0..10 {
            r.push(i as f64);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.quantile(1.0), Some(9.0));
        assert_eq!(r.quantile(0.0), Some(6.0));
        assert_eq!(Ring::new(4).quantile(0.5), None);
    }
}
