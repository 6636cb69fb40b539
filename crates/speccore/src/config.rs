//! Driver configuration: forward window, correction mode, and
//! fault-tolerance knobs.

use crate::control::ControllerConfig;
use desim::SimDuration;
use netsim::MachineCrash;

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
    pub loss_timeout: SimDuration,
    /// How many *consecutive* iterations a peer's input may be promoted
    /// from speculation before the driver asks that peer to retransmit its
    /// latest state (and again every further `staleness_budget` promotions).
    pub staleness_budget: u32,
    /// Scripted crashes of this run's own ranks. Each rank sleeps through
    /// its outages and re-seeds from its confirmed checkpoint on restart.
    pub crashes: Vec<MachineCrash>,
}

impl FaultTolerance {
    /// Speculate-through-loss after `loss_timeout`, with a default
    /// staleness budget of 4 promoted iterations per peer and no crashes.
    pub fn new(loss_timeout: SimDuration) -> Self {
        assert!(
            loss_timeout > SimDuration::ZERO,
            "loss timeout must be positive"
        );
        FaultTolerance {
            loss_timeout,
            staleness_budget: 4,
            crashes: Vec::new(),
        }
    }

    /// Set the per-peer staleness budget (must be at least 1).
    pub fn with_staleness_budget(mut self, budget: u32) -> Self {
        assert!(budget >= 1, "staleness budget must be at least 1");
        self.staleness_budget = budget;
        self
    }

    /// Script machine crashes into the run.
    pub fn with_crashes(mut self, crashes: Vec<MachineCrash>) -> Self {
        self.crashes = crashes;
        self
    }
}

/// Peer-supervision policy: a per-peer health lifecycle layered on top of
/// [`FaultTolerance`].
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
    pub suspect_after: u32,
    /// Consecutive promotions before a suspected peer is `Quarantined`
    /// (must be ≥ `suspect_after`).
    pub quarantine_after: u32,
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

impl Default for SupervisionConfig {
    /// Suspect after 3 consecutive promotions, quarantine after 8.
    fn default() -> Self {
        SupervisionConfig::new(3, 8)
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
/// Delta frames assume per-link FIFO delivery (true of all three
/// transports and of size-independent simulated latency): a frame only
/// applies on top of its immediate predecessor, and a receiver drops
/// frames that arrive over a gap. Under loss or reordering, combine with
/// [`FaultTolerance`] so dropped frames heal via retransmission, the next
/// keyframe, or speculate-through-loss promotion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeltaExchange {
    /// Largest per-lane change that may be suppressed. `0.0` compares bit
    /// patterns: the delta stream is exactly lossless.
    pub floor: f64,
    /// Broadcast a full keyframe whenever `iter % keyframe_interval == 0`
    /// (at least 1; 1 degenerates to full broadcast every iteration).
    pub keyframe_interval: u64,
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

    /// Lossless deltas (floor 0) with the default keyframe cadence of 32.
    #[cfg(test)]
    pub(crate) fn lossless() -> Self {
        DeltaExchange::new(0.0, 32)
    }
}

/// Complete driver configuration.
#[derive(Clone, Debug)]
pub struct SpecConfig {
    /// The forward window (FW): how many unconfirmed iterations may be in
    /// flight (§3.2 of the paper). `0` disables speculation entirely — the
    /// Figure 1 baseline; `1` is the Figure 3 algorithm; larger values add
    /// forward speculation (Figure 4). With a `controller` attached this is
    /// the starting window, which the controller then resizes at runtime.
    pub window: u32,
    /// Number of past values retained per peer (the backward window, BW).
    pub backward_window: usize,
    /// Misspeculation repair strategy.
    pub correction: CorrectionMode,
    /// Collect per-iteration timing records into
    /// [`RunStats::iteration_log`](crate::RunStats::iteration_log).
    pub collect_log: bool,
    /// Fault-tolerance policy; `None` (the default) assumes a reliable
    /// transport and keeps the driver's behavior bit-identical to the
    /// fault-unaware implementation.
    pub fault: Option<FaultTolerance>,
    /// Delta-exchange policy; `None` (the default) broadcasts full
    /// partition snapshots exactly as before. Ignored for apps that do not
    /// expose scalar lanes (see
    /// [`SpeculativeApp::delta_extract`](crate::SpeculativeApp::delta_extract)).
    pub delta: Option<DeltaExchange>,
    /// Peer-supervision policy; `None` (the default) keeps the flat
    /// per-message loss handling of [`FaultTolerance`] with no health
    /// lifecycle. Only meaningful when `fault` is also set — without a
    /// loss timeout no promotions happen, so no peer is ever suspected.
    pub supervision: Option<SupervisionConfig>,
    /// Adaptive speculation controller; `None` (the default) keeps every
    /// knob static and the driver's behavior bit-identical to the
    /// controller-unaware implementation.
    pub controller: Option<ControllerConfig>,
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
            supervision: None,
            controller: None,
        }
    }

    /// The paper's Figure 3 algorithm with the given forward window.
    pub fn speculative(forward_window: u32) -> Self {
        SpecConfig {
            window: forward_window,
            backward_window: 2,
            correction: CorrectionMode::Incremental,
            collect_log: false,
            fault: None,
            delta: None,
            supervision: None,
            controller: None,
        }
    }

    /// Enable the per-iteration timing log (for timeline rendering).
    pub fn with_iteration_log(mut self) -> Self {
        self.collect_log = true;
        self
    }

    /// Set the backward window.
    pub fn with_backward_window(mut self, bw: usize) -> Self {
        self.backward_window = bw;
        self
    }

    /// Set the correction mode.
    pub fn with_correction(mut self, mode: CorrectionMode) -> Self {
        self.correction = mode;
        self
    }

    /// Enable fault tolerance (speculate-through-loss, retransmit
    /// requests, crash recovery).
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

    /// Track per-peer health and quarantine persistently silent peers
    /// (requires [`SpecConfig::with_fault_tolerance`] to have any effect).
    pub fn with_supervision(mut self, sup: SupervisionConfig) -> Self {
        self.supervision = Some(sup);
        self
    }

    /// Retune θ, the forward window, and per-peer loss deadlines online
    /// from observed telemetry (see [`ControllerConfig`]).
    pub fn with_adaptive(mut self, controller: ControllerConfig) -> Self {
        controller.validate().expect("invalid controller config");
        self.controller = Some(controller);
        self
    }

    /// Cross-field validation of the whole configuration, re-checking every
    /// invariant the individual builders assert so that struct-literal
    /// construction (the fields are deliberately public) cannot smuggle a
    /// zero or degenerate knob past the constructors and livelock or
    /// divide-by-zero deep inside the driver. The drivers call this once at
    /// entry and panic with the returned reason.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if let Some(f) = &self.fault {
            if f.loss_timeout == SimDuration::ZERO {
                return Err("fault tolerance loss timeout must be positive".into());
            }
            if f.staleness_budget < 1 {
                return Err("fault tolerance staleness budget must be at least 1".into());
            }
        }
        if let Some(d) = &self.delta {
            if !(d.floor.is_finite() && d.floor >= 0.0) {
                return Err("delta quantization floor must be finite and non-negative".into());
            }
            if d.keyframe_interval < 1 {
                return Err("delta keyframe interval must be at least 1".into());
            }
        }
        if let Some(s) = &self.supervision {
            if s.suspect_after < 1 {
                return Err("supervision suspect_after must be at least 1".into());
            }
            if s.quarantine_after < s.suspect_after {
                return Err("supervision quarantine_after must be >= suspect_after".into());
            }
        }
        if let Some(c) = &self.controller {
            c.validate()?;
        }
        Ok(())
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
        use desim::SimTime;
        let ft = FaultTolerance::new(SimDuration::from_millis(5))
            .with_staleness_budget(2)
            .with_crashes(vec![MachineCrash {
                rank: 1,
                at: SimTime::from_nanos(100),
                restart_after: SimDuration::from_nanos(50),
            }]);
        assert_eq!(ft.loss_timeout, SimDuration::from_millis(5));
        assert_eq!(ft.staleness_budget, 2);
        assert_eq!(ft.crashes.len(), 1);
        let c = SpecConfig::speculative(1).with_fault_tolerance(ft.clone());
        assert_eq!(c.fault, Some(ft));
    }

    #[test]
    #[should_panic(expected = "loss timeout must be positive")]
    fn zero_loss_timeout_is_rejected() {
        let _ = FaultTolerance::new(SimDuration::ZERO);
    }

    #[test]
    fn delta_exchange_builder() {
        let d = DeltaExchange::new(0.25, 8);
        assert_eq!(d.floor, 0.25);
        assert_eq!(d.keyframe_interval, 8);
        let c = SpecConfig::speculative(1).with_delta_exchange(d);
        assert_eq!(c.delta, Some(d));
        assert!(SpecConfig::baseline().delta.is_none());
        let lossless = DeltaExchange::lossless();
        assert_eq!(lossless.floor, 0.0);
    }

    #[test]
    #[should_panic(expected = "keyframe interval must be >= 1")]
    fn zero_keyframe_interval_is_rejected() {
        let _ = DeltaExchange::new(0.0, 0);
    }

    #[test]
    #[should_panic(expected = "quantization floor must be finite")]
    fn negative_floor_is_rejected() {
        let _ = DeltaExchange::new(-1.0, 4);
    }

    #[test]
    #[should_panic(expected = "staleness budget must be at least 1")]
    fn zero_staleness_budget_is_rejected() {
        let _ = FaultTolerance::new(SimDuration::from_millis(5)).with_staleness_budget(0);
    }

    #[test]
    fn validate_catches_struct_literal_bypass() {
        // The builders assert, but the fields are public: a struct literal
        // can carry degenerate knobs straight to the driver. validate()
        // is the driver's backstop.
        let ok = SpecConfig::speculative(1);
        assert_eq!(ok.validate(), Ok(()));

        let mut c = SpecConfig::speculative(1);
        c.fault = Some(FaultTolerance {
            loss_timeout: SimDuration::ZERO,
            staleness_budget: 4,
            crashes: Vec::new(),
        });
        assert!(c.validate().unwrap_err().contains("loss timeout"));

        let mut c = SpecConfig::speculative(1);
        c.fault = Some(FaultTolerance {
            loss_timeout: SimDuration::from_millis(5),
            staleness_budget: 0,
            crashes: Vec::new(),
        });
        assert!(c.validate().unwrap_err().contains("staleness budget"));

        let mut c = SpecConfig::speculative(1);
        c.delta = Some(DeltaExchange {
            floor: 0.0,
            keyframe_interval: 0,
        });
        assert!(c.validate().unwrap_err().contains("keyframe interval"));

        let mut c = SpecConfig::speculative(1);
        c.delta = Some(DeltaExchange {
            floor: f64::NAN,
            keyframe_interval: 8,
        });
        assert!(c.validate().unwrap_err().contains("floor"));

        let mut c = SpecConfig::speculative(1);
        c.supervision = Some(SupervisionConfig {
            suspect_after: 0,
            quarantine_after: 4,
        });
        assert!(c.validate().unwrap_err().contains("suspect_after"));

        let mut c = SpecConfig::speculative(1);
        c.supervision = Some(SupervisionConfig {
            suspect_after: 5,
            quarantine_after: 4,
        });
        assert!(c.validate().unwrap_err().contains("quarantine_after"));

        let mut c = SpecConfig::speculative(1);
        let mut cc = ControllerConfig::new();
        cc.period = 0;
        c.controller = Some(cc);
        assert!(c.validate().unwrap_err().contains("period"));
    }

    #[test]
    fn with_adaptive_attaches_a_controller() {
        let c = SpecConfig::speculative(1).with_adaptive(ControllerConfig::new());
        assert!(c.controller.is_some());
        assert_eq!(c.validate(), Ok(()));
        assert!(SpecConfig::baseline().controller.is_none());
    }
}
