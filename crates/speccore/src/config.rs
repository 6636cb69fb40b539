//! Driver configuration: forward window, correction mode, and
//! fault-tolerance knobs.

use crate::control::ControllerConfig;
use desim::SimDuration;

/// How misspeculated inputs are repaired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CorrectionMode {
    /// Ask the app to incrementally retract/reapply the affected
    /// contribution ([`SpeculativeApp::correct`]) when only one iteration
    /// is unconfirmed; roll back otherwise. This is the paper's mode.
    ///
    /// [`SpeculativeApp::correct`]: crate::SpeculativeApp::correct
    #[default]
    Incremental,
    /// Always roll back to the last confirmed checkpoint and re-execute
    /// with actual values. Slower but bit-exact with the non-speculative
    /// execution when the acceptance threshold is zero.
    Recompute,
}

/// Fault-tolerance policy: when to stop waiting for a lossy peer and
/// speculate *through* the loss instead of around mere delay.
///
/// The paper's algorithm tolerates late messages by extrapolating from the
/// backward window; under an unreliable transport the same machinery covers
/// *lost* messages, except the driver must decide a message is lost (it
/// never arrives) rather than merely late. This struct sets that decision:
/// after `loss_timeout` with the oldest in-flight iteration stuck on a
/// missing input, the driver promotes its BW extrapolation to a committed
/// value and moves on.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultTolerance {
    /// How long the oldest unconfirmed iteration may wait on a missing
    /// input before the driver commits the speculated value in its place.
    pub(crate) loss_timeout: SimDuration,
    /// How many *consecutive* iterations a peer's input may be promoted
    /// from speculation before the driver asks that peer to retransmit its
    /// latest state (and again every further `staleness_budget` promotions).
    pub(crate) staleness_budget: u32,
    /// Peer-supervision policy; `None` keeps the flat per-message loss
    /// handling with no health lifecycle.
    pub(crate) supervision: Option<SupervisionConfig>,
}

impl FaultTolerance {
    /// Speculate-through-loss after `loss_timeout`, with a default
    /// staleness budget of 4 promoted iterations per peer and no
    /// supervision.
    pub fn new(loss_timeout: SimDuration) -> Self {
        assert!(
            loss_timeout > SimDuration::ZERO,
            "loss timeout must be positive"
        );
        FaultTolerance {
            loss_timeout,
            staleness_budget: 4,
            supervision: None,
        }
    }

    /// Set the per-peer staleness budget (must be at least 1).
    pub fn with_staleness_budget(mut self, budget: u32) -> Self {
        assert!(budget >= 1, "staleness budget must be at least 1");
        self.staleness_budget = budget;
        self
    }

    /// Track per-peer health and quarantine persistently silent peers.
    pub fn with_supervision(mut self, sup: SupervisionConfig) -> Self {
        self.supervision = Some(sup);
        self
    }
}

/// Peer-supervision policy: a per-peer health lifecycle layered on top of
/// [`FaultTolerance`], which carries it
/// ([`FaultTolerance::with_supervision`]): without a loss timeout no input
/// is ever promoted, so no peer would ever be suspected.
///
/// Loss timeouts treat every missing message independently; supervision
/// tracks the *peer*. A peer that has contributed nothing for
/// `suspect_after` promotions in a row is `Suspected`; after
/// `quarantine_after` it is `Quarantined` — the driver stops spending the
/// loss timeout on it entirely and carries its partition forward by
/// speculation alone (degraded mode). The moment a quarantined peer is
/// heard from again it is readmitted: the driver ships it a full keyframe,
/// resets the delta shadows on both ends, and resumes θ-checking against
/// its actual values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SupervisionConfig {
    /// Consecutive speculate-through-loss promotions of a peer's input
    /// before the peer is marked `Suspected` (at least 1).
    pub(crate) suspect_after: u32,
    /// Consecutive promotions before a suspected peer is `Quarantined`
    /// (must be ≥ `suspect_after`).
    pub(crate) quarantine_after: u32,
}

impl SupervisionConfig {
    /// Suspect after `suspect_after` consecutive promotions, quarantine
    /// after `quarantine_after`.
    pub fn new(suspect_after: u32, quarantine_after: u32) -> Self {
        assert!(suspect_after >= 1, "suspect_after must be at least 1");
        assert!(
            quarantine_after >= suspect_after,
            "quarantine_after must be >= suspect_after"
        );
        SupervisionConfig {
            suspect_after,
            quarantine_after,
        }
    }
}

/// Delta-exchange policy: broadcast sparse updates against per-peer
/// shadows instead of full partition snapshots.
///
/// Each sender keeps, per peer, a shadow of what that peer last
/// reconstructed from this rank's stream, and sends only the scalar lanes
/// whose change since the shadow exceeds `floor` (see
/// [`mpk::DeltaFrame`]). `floor == 0.0` makes the stream lossless —
/// bit-identical to full broadcasts — while a positive floor bounds each
/// lane's staleness by `floor` and suppresses traffic for lanes that
/// barely move. Every `keyframe_interval` iterations (and whenever a
/// shadow is missing — bootstrap, retransmit, crash recovery) the full
/// state is sent instead, bounding drift and re-synchronising peers that
/// missed frames.
///
/// Delta frames assume per-link FIFO delivery: a frame only applies on
/// top of its immediate predecessor, and a receiver drops frames that
/// arrive over a gap. The thread and socket transports keep a link FIFO,
/// and so does the simulator under constant latency; [`netsim::Jitter`]
/// and [`netsim::TransientDelays`] sample each message's delay on its
/// own and can reorder a link. Under loss or reordering, combine with
/// [`FaultTolerance`] so dropped frames heal via retransmission, the next
/// keyframe, or speculate-through-loss promotion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeltaExchange {
    /// Largest per-lane change that may be suppressed. `0.0` compares bit
    /// patterns: the delta stream is exactly lossless.
    pub(crate) floor: f64,
    /// Broadcast a full keyframe whenever `iter % keyframe_interval == 0`
    /// (at least 1; 1 degenerates to full broadcast every iteration).
    pub(crate) keyframe_interval: u64,
}

impl DeltaExchange {
    /// A delta policy with the given floor and keyframe interval.
    pub fn new(floor: f64, keyframe_interval: u64) -> Self {
        assert!(
            floor >= 0.0 && floor.is_finite(),
            "quantization floor must be finite and non-negative"
        );
        assert!(keyframe_interval >= 1, "keyframe interval must be >= 1");
        DeltaExchange {
            floor,
            keyframe_interval,
        }
    }
}

/// Complete driver configuration, built from [`SpecConfig::baseline`] or
/// [`SpecConfig::speculative`] and the `with_*` builders. The fields of
/// every driver config are private to the crate, so a config exists only
/// through builders, which reject each degenerate knob at construction.
#[derive(Clone, Debug)]
pub struct SpecConfig {
    /// The forward window (FW): how many unconfirmed iterations may be in
    /// flight (§3.2 of the paper). `0` disables speculation entirely — the
    /// Figure 1 baseline; `1` is the Figure 3 algorithm; larger values add
    /// forward speculation (Figure 4). With a `controller` attached this is
    /// the starting window, which the controller then resizes at runtime.
    pub(crate) window: u32,
    /// The backward window (BW): how many past values per peer the
    /// speculator extrapolates from (at least 1). They are the newest
    /// actual values received, except that an input promoted on loss
    /// counts as that iteration's value: the late actual is then ignored
    /// (see [`History`](crate::History)).
    pub(crate) backward_window: usize,
    /// Misspeculation repair strategy.
    pub(crate) correction: CorrectionMode,
    /// Collect per-iteration timing records into
    /// [`RunStats::iteration_log`](crate::RunStats::iteration_log).
    pub(crate) collect_log: bool,
    /// Fault-tolerance policy, supervision included; `None` (the default)
    /// assumes a reliable transport and keeps the driver's behavior
    /// bit-identical to the fault-unaware implementation.
    pub(crate) fault: Option<FaultTolerance>,
    /// Delta-exchange policy; `None` (the default) broadcasts full
    /// partition snapshots exactly as before. Ignored for apps that do not
    /// expose scalar lanes (see
    /// [`SpeculativeApp::delta_extract`](crate::SpeculativeApp::delta_extract)).
    pub(crate) delta: Option<DeltaExchange>,
    /// Adaptive speculation controller; `None` (the default) keeps every
    /// knob static and the driver's behavior bit-identical to the
    /// controller-unaware implementation.
    pub(crate) controller: Option<ControllerConfig>,
}

impl SpecConfig {
    /// The non-speculative Figure 1 baseline.
    pub fn baseline() -> Self {
        SpecConfig {
            window: 0,
            backward_window: 1,
            correction: CorrectionMode::Incremental,
            collect_log: false,
            fault: None,
            delta: None,
            controller: None,
        }
    }

    /// The paper's Figure 3 algorithm with the given forward window.
    pub fn speculative(forward_window: u32) -> Self {
        SpecConfig {
            window: forward_window,
            backward_window: 2,
            ..SpecConfig::baseline()
        }
    }

    /// Enable the per-iteration timing log,
    /// [`RunStats::iteration_log`](crate::RunStats::iteration_log): one
    /// commit record per iteration, for commit-gap statistics.
    pub fn with_iteration_log(mut self) -> Self {
        self.collect_log = true;
        self
    }

    /// Set the backward window (at least 1).
    pub fn with_backward_window(mut self, bw: usize) -> Self {
        assert!(bw >= 1, "backward window must be at least 1");
        self.backward_window = bw;
        self
    }

    /// Set the correction mode.
    pub fn with_correction(mut self, mode: CorrectionMode) -> Self {
        self.correction = mode;
        self
    }

    /// Enable fault tolerance (speculate-through-loss, retransmit
    /// requests, recovery from the rank's outages in the transport's crash
    /// plan, and supervision if the policy carries it).
    pub fn with_fault_tolerance(mut self, ft: FaultTolerance) -> Self {
        self.fault = Some(ft);
        self
    }

    /// Broadcast delta frames against per-peer shadows instead of full
    /// partition snapshots.
    pub fn with_delta_exchange(mut self, delta: DeltaExchange) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Retune θ, the forward window, and per-peer loss deadlines online
    /// from observed telemetry (see [`ControllerConfig`]).
    pub fn with_adaptive(mut self, controller: ControllerConfig) -> Self {
        self.controller = Some(controller);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders() {
        let c = SpecConfig::speculative(2)
            .with_backward_window(3)
            .with_correction(CorrectionMode::Recompute);
        assert_eq!(c.window, 2);
        assert_eq!(c.backward_window, 3);
        assert_eq!(c.correction, CorrectionMode::Recompute);
        assert!(c.fault.is_none());
        assert_eq!(SpecConfig::baseline().window, 0);
    }

    #[test]
    fn fault_tolerance_builder() {
        let sup = SupervisionConfig::new(1, 2);
        let ft = FaultTolerance::new(SimDuration::from_millis(5))
            .with_staleness_budget(2)
            .with_supervision(sup);
        assert_eq!(ft.loss_timeout, SimDuration::from_millis(5));
        assert_eq!(ft.staleness_budget, 2);
        assert_eq!(ft.supervision, Some(sup));
        let c = SpecConfig::speculative(1).with_fault_tolerance(ft.clone());
        assert_eq!(c.fault, Some(ft));
    }

    #[test]
    fn delta_exchange_builder() {
        let d = DeltaExchange::new(0.25, 8);
        assert_eq!(d.floor, 0.25);
        assert_eq!(d.keyframe_interval, 8);
        let c = SpecConfig::speculative(1).with_delta_exchange(d);
        assert_eq!(c.delta, Some(d));
        assert!(SpecConfig::baseline().delta.is_none());
    }

    /// Every knob a builder refuses, with the words its panic carries.
    #[test]
    fn builders_reject_degenerate_knobs() {
        let cases: [(fn(), &str); 8] = [
            (
                || _ = FaultTolerance::new(SimDuration::ZERO),
                "loss timeout must be positive",
            ),
            (
                || _ = FaultTolerance::new(SimDuration::from_millis(5)).with_staleness_budget(0),
                "staleness budget must be at least 1",
            ),
            (
                || _ = DeltaExchange::new(0.0, 0),
                "keyframe interval must be >= 1",
            ),
            (
                || _ = DeltaExchange::new(-1.0, 4),
                "quantization floor must be finite",
            ),
            (
                || _ = DeltaExchange::new(f64::NAN, 4),
                "quantization floor must be finite",
            ),
            (
                || _ = SupervisionConfig::new(0, 4),
                "suspect_after must be at least 1",
            ),
            (
                || _ = SupervisionConfig::new(5, 4),
                "quarantine_after must be >= suspect_after",
            ),
            (
                || _ = SpecConfig::speculative(1).with_backward_window(0),
                "backward window must be at least 1",
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
    fn with_adaptive_attaches_a_controller() {
        let c = SpecConfig::speculative(1).with_adaptive(ControllerConfig::new());
        assert!(c.controller.is_some());
        assert!(SpecConfig::baseline().controller.is_none());
    }
}
