//! Differential conformance: the headline equivalences of the
//! speculative scheme, each written once as a row of one matrix and
//! checked across generated scenario space, plus the crash and
//! degraded-mode properties, which bound rather than equate.
//!
//! Semantics notes (what is *exactly* equal vs merely bounded):
//!
//! * θ = 0 + recompute (or FW = 0) makes speculation a pure latency
//!   optimization — every speculated input is re-derived from actuals, so
//!   final state must be **bit-identical** to the blocking baseline, to
//!   the other transport backends, and across event tie-breaks.
//! * θ > 0 with incremental correction accepts bounded per-value error
//!   (the paper's eq. 11): runs are still deterministic per seed, but not
//!   comparable bit-for-bit across transports or tie-breaks — those
//!   configurations are only asserted reproducible, never equal.
//! * Fault *machinery* (timeouts, retransmits, supervision) and a dormant
//!   controller on a fault-free network must be inert: identical
//!   fingerprints and virtual timing, zero counters of their own.
//!
//! A row of the [`matrix!`] names its property, its case count, the
//! strategies it draws a [`Point`] from, the fields its arms must agree
//! on, and its arms: backend (and tie-break on the simulator) × driver
//! configuration. Every arm must also commit every iteration and keep
//! the promises its configuration makes about its own counters
//! ([`Driver::promises`]); a simulator arm must also attribute every
//! virtual nanosecond of every rank's run to exactly one phase. A
//! property is seeded by its name, so a row keeps the name of the
//! property it first restated.
//!
//! Failures shrink (see `speccheck::scenario`) and persist their RNG
//! state to `crates/speccheck/proptest-regressions/`, which is checked in
//! and replayed before fresh cases.

use desim::{SimDuration, SimTime, TieBreak};
use mpk::FaultSpec;
use netsim::{CrashPlan, MachineCrash};
use proptest::prelude::*;
use speccheck::oracles::phase_partition;
use speccheck::{
    exact_spec_params, run, spec_params, synthetic_scenario, Backend, NBodyScenario, RunOutput,
    SpecParams, SyntheticScenario,
};
use speccore::{
    ControllerConfig, DeltaExchange, FaultTolerance, IterMsg, RunStats, SpecConfig,
    SupervisionConfig,
};
use Backend::{Socket, Thread};
use Driver::*;
use Field::*;

// ---------------------------------------------------------------------------
// The matrix
// ---------------------------------------------------------------------------

const FIFO: Backend = Backend::Sim(TieBreak::Fifo);
const LIFO: Backend = Backend::Sim(TieBreak::Lifo);
/// The simulator under the point's seeded tie-break: [`Row::holds`]
/// replaces this placeholder seed with the point's `salt`.
const SALTED: Backend = Backend::Sim(TieBreak::Seeded(0));

/// The driver configuration an arm runs, derived from the point.
#[derive(Clone, Copy, Debug)]
enum Driver {
    /// The grid point as drawn (Figure 3).
    Grid,
    /// The driver with an empty forward window: the blocking baseline
    /// (the paper's Figure 1).
    Fw0,
    /// The grid point plus fault tolerance at the point's timeout.
    FaultTolerant,
    /// [`Driver::FaultTolerant`] plus supervision at (3, 8).
    Supervised,
    /// The grid point plus lossless (floor 0) delta exchange.
    LosslessDelta,
    /// The grid point plus lossy delta exchange with a keyframe every
    /// iteration.
    KeyframeEveryIteration,
    /// The grid point plus a controller whose warmup outlasts the run.
    DormantController,
    /// The grid point plus a controller that retunes early and often,
    /// with the exact θ anchor as its only grid point.
    ExactAnchorController,
    /// FW ≥ 1 plus a controller over a three-point θ grid.
    Controller,
}

impl Driver {
    fn config(self, pt: &Point) -> SpecConfig {
        let grid = pt.params.build();
        let ft = || FaultTolerance::new(SimDuration::from_millis(pt.timeout_ms));
        let sup = SupervisionConfig::new(3, 8);
        let retuning = ControllerConfig::new().with_cadence(2, 1).with_fw_max(4);
        match self {
            Grid => grid,
            Fw0 => SpecConfig::baseline(),
            FaultTolerant => grid.with_fault_tolerance(ft()),
            Supervised => grid.with_fault_tolerance(ft().with_supervision(sup)),
            LosslessDelta => {
                grid.with_delta_exchange(DeltaExchange::new(0.0, pt.sc.delta_keyframe))
            }
            KeyframeEveryIteration => grid.with_delta_exchange(DeltaExchange::new(0.5, 1)),
            DormantController => {
                grid.with_adaptive(ControllerConfig::new().with_cadence(1_000_000, 1))
            }
            ExactAnchorController => grid.with_adaptive(retuning.with_theta_grid(vec![0.0])),
            Controller => SpecParams {
                fw: pt.params.fw.max(1),
                ..pt.params
            }
            .build()
            .with_adaptive(retuning.with_theta_grid(vec![0.0, 0.01, 0.05])),
        }
    }

    /// What this configuration promises about one rank's counters on a
    /// fault-free network.
    fn promises(self, s: &RunStats) -> Result<(), String> {
        let loss = [
            s.messages_lost,
            s.speculate_through_loss_commits,
            s.retransmit_requests,
            s.peer_restarts,
        ];
        let health = [
            s.peers_suspected,
            s.peers_quarantined,
            s.peer_rejoins,
            s.degraded_commits,
        ];
        let ctl = (s.controller_retunes, s.controller_fw, s.controller_theta);
        let kept = match self {
            Fw0 => s.speculated_partitions == 0,
            Grid | DormantController => ctl == (0, 0, 0.0),
            FaultTolerant => loss == [0; 4],
            Supervised => loss == [0; 4] && health == [0; 4],
            LosslessDelta => s.delta_frames_dropped == 0,
            KeyframeEveryIteration => s.delta_suppressed_bytes == 0,
            // warmup = 2 ≤ iters, so the controller must have decided.
            ExactAnchorController => ctl.0 >= 1 && ctl.2 == 0.0 && (1..=4).contains(&ctl.1),
            Controller => true,
        };
        match kept {
            true => Ok(()),
            false => Err(format!(
                "broke its promise: speculated {}, loss {loss:?}, health {health:?}, \
                 controller {ctl:?}, delta drops {}, suppressed {} B",
                s.speculated_partitions, s.delta_frames_dropped, s.delta_suppressed_bytes
            )),
        }
    }
}

/// A field a row claims equal across its arms.
#[derive(Clone, Copy, Debug)]
enum Field {
    /// Per-rank state fingerprints.
    Fingerprints,
    /// The virtual end time (simulator arms only).
    Elapsed,
    /// Named per-rank counters, rendered.
    Counters(fn(&RunStats) -> String),
}

/// One drawn case. `timeout_ms` feeds the fault-tolerant arms, `salt`
/// the [`SALTED`] ones; rows that draw neither leave them 0. `nbody` runs
/// the scenario's shape as an N-body cluster instead of the synthetic app.
struct Point {
    sc: SyntheticScenario,
    params: SpecParams,
    timeout_ms: u64,
    salt: u64,
    nbody: bool,
}

fn point(sc: SyntheticScenario, params: SpecParams) -> Point {
    Point {
        sc,
        params,
        timeout_ms: 0,
        salt: 0,
        nbody: false,
    }
}

fn nbody(sc: SyntheticScenario, params: SpecParams) -> Point {
    Point {
        nbody: true,
        ..point(sc, params)
    }
}

/// One equivalence claim: every arm agrees with the first on `equal`.
struct Row<'a> {
    equal: &'a [Field],
    arms: &'a [(Backend, Driver)],
}

impl Row<'_> {
    fn holds(&self, pt: &Point) -> Result<(), String> {
        let (sc, theta) = (&pt.sc, pt.params.theta);
        let mut first: Option<(String, RunOutput)> = None;
        for &(backend, driver) in self.arms {
            let backend = match backend {
                Backend::Sim(TieBreak::Seeded(_)) => Backend::Sim(TieBreak::Seeded(pt.salt)),
                other => other,
            };
            let arm = format!("{backend:?}/{driver:?}");
            let cfg = driver.config(pt);
            let out = match pt.nbody {
                true => run(
                    backend,
                    &NBodyScenario(sc.clone()),
                    theta,
                    &cfg,
                    FaultSpec::none(),
                ),
                false => run(backend, sc, theta, &cfg, FaultSpec::none()),
            };
            for (k, s) in out.stats.iter().enumerate() {
                if s.iterations != sc.iters {
                    return Err(format!("{arm}: rank {k} committed {}", s.iterations));
                }
                driver
                    .promises(s)
                    .map_err(|e| format!("{arm}: rank {k} {e}"))?;
                if let Backend::Sim(_) = backend {
                    phase_partition(s).map_err(|e| format!("{arm}: {e}"))?;
                }
            }
            let Some((first_arm, base)) = &first else {
                first = Some((arm, out));
                continue;
            };
            for field in self.equal {
                let view = |o: &RunOutput| match field {
                    Fingerprints => format!("{:?}", o.fingerprints),
                    Elapsed => format!("{:?}", o.elapsed),
                    Counters(read) => format!("{:?}", o.stats.iter().map(read).collect::<Vec<_>>()),
                };
                let (want, got) = (view(base), view(&out));
                if want != got {
                    return Err(format!(
                        "{field:?}: {arm} gave {got}, {first_arm} gave {want}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// `name, N cases, (strategies) => point, equal [fields], arms [arms];`:
/// one property per row.
macro_rules! matrix {
    ($(
        $(#[$meta:meta])*
        $name:ident, $cases:literal cases, ($($arg:ident in $strat:expr),+) => $point:expr,
        equal [$($field:expr),+], arms [$($arm:expr),+];
    )+) => {$(
        proptest! {
            #![proptest_config(ProptestConfig::with_cases($cases))]
            $(#[$meta])*
            #[test]
            fn $name($($arg in $strat),+) {
                Row { equal: &[$($field),+], arms: &[$($arm),+] }.holds(&$point)?;
            }
        }
    )+};
}

matrix! {
    /// Exact grid: speculation changes *when* values are computed, never
    /// *what* (PAPER.md Fig. 1 vs Fig. 3).
    theta_zero_recompute_equals_baseline, 64 cases,
        (sc in synthetic_scenario(), params in exact_spec_params()) => point(sc, params),
        equal [Fingerprints], arms [(FIFO, Grid), (FIFO, Fw0)];

    /// The same row, 1024 cases (nightly: `--ignored`).
    #[ignore = "extended sweep: run with --ignored (nightly)"]
    extended_theta_zero_recompute_equals_baseline, 1024 cases,
        (sc in synthetic_scenario(), params in exact_spec_params()) => point(sc, params),
        equal [Fingerprints], arms [(FIFO, Grid), (FIFO, Fw0)];

    /// The N-body arm of the row above, also on real threads: eq. 10
    /// speculation and eq. 11 checks at θ = 0 with recompute change nothing.
    nbody_theta_zero_recompute_equals_baseline, 16 cases,
        (sc in synthetic_scenario(), params in exact_spec_params()) => nbody(sc, params),
        equal [Fingerprints], arms [(FIFO, Grid), (FIFO, Fw0), (Thread, Grid)];

    /// Full θ range: with an empty forward window nothing is speculated,
    /// so the baseline on real threads agrees with the simulator's.
    forward_window_zero_is_the_baseline, 64 cases,
        (sc in synthetic_scenario(), theta in 0.0f64..0.5)
            => point(sc, SpecParams { fw: 0, bw: 1, theta, recompute: false }),
        equal [Fingerprints], arms [(FIFO, Fw0), (Thread, Fw0)];

    /// Exact grid: real threads agree with the simulator.
    sim_and_thread_agree_under_exact_semantics, 64 cases,
        (sc in synthetic_scenario(), params in exact_spec_params()) => point(sc, params),
        equal [Fingerprints], arms [(FIFO, Grid), (Thread, Grid)];

    /// Exact grid: encoding, framing, the kernel's TCP stack and decoding
    /// preserve the algorithm end to end. (Socket runs mesh real TCP
    /// connections per case, so fewer cases.)
    sim_thread_and_socket_agree_under_exact_semantics, 12 cases,
        (sc in synthetic_scenario(), params in exact_spec_params()) => point(sc, params),
        equal [Fingerprints], arms [(FIFO, Grid), (Thread, Grid), (Socket, Grid)];

    /// Exact grid: FIFO, LIFO and seeded orders of simultaneous events land
    /// on one state, also with the deadline timers fault tolerance adds.
    exact_results_are_tiebreak_insensitive, 64 cases,
        (sc in synthetic_scenario(), params in exact_spec_params(),
         timeout_ms in 200u64..500, salt in 0u64..1_000_000)
            => Point { timeout_ms, salt, ..point(sc, params) },
        equal [Fingerprints],
        arms [(FIFO, Grid), (LIFO, Grid), (SALTED, Grid),
              (FIFO, FaultTolerant), (LIFO, FaultTolerant), (SALTED, FaultTolerant)];

    /// Full grid: fault tolerance and supervision never fire on a
    /// fault-free network and leave values and virtual timing untouched.
    /// The timeout keeps "late" unmistakable for "lost" (scenario
    /// latencies top out near 10 ms). The corpus witness once proved θ > 0
    /// timing-sensitive under the old polling receive.
    fault_tolerance_is_inert_without_faults, 64 cases,
        (sc in synthetic_scenario(), params in spec_params(), timeout_ms in 200u64..500)
            => Point { timeout_ms, ..point(sc, params) },
        equal [Fingerprints, Elapsed],
        arms [(FIFO, Grid), (FIFO, FaultTolerant), (FIFO, Supervised)];

    /// Full grid, FIFO net: every lossless delta frame reconstructs the
    /// sender's exact snapshot, and timing is untouched.
    lossless_delta_equals_full_broadcast_across_grid, 64 cases,
        (sc in synthetic_scenario(), params in spec_params()) => point(fifo_net(&sc), params),
        equal [Fingerprints, Elapsed, Counters(|s| format!("{}", s.messages_sent))],
        arms [(FIFO, Grid), (FIFO, LosslessDelta)];

    /// The N-body arm of the two rows above, FIFO net: idle fault tolerance
    /// and lossless delta frames of positions and velocities change
    /// neither state nor timing.
    nbody_fault_tolerance_and_lossless_delta_are_inert, 16 cases,
        (sc in synthetic_scenario(), params in spec_params(), timeout_ms in 200u64..500)
            => Point { timeout_ms, ..nbody(fifo_net(&sc), params) },
        equal [Fingerprints, Elapsed],
        arms [(FIFO, Grid), (FIFO, FaultTolerant), (FIFO, LosslessDelta)];

    /// Full grid: a keyframe every iteration is full broadcast at any
    /// floor, bytes on the wire included.
    keyframe_every_iteration_is_full_broadcast, 64 cases,
        (sc in synthetic_scenario(), params in spec_params()) => point(sc, params),
        equal [Fingerprints, Elapsed, Counters(|s| format!("{}", s.bytes_sent))],
        arms [(FIFO, Grid), (FIFO, KeyframeEveryIteration)];

    /// Exact grid, FIFO net: delta frames survive real encode/frame/decode.
    lossless_delta_agrees_across_all_three_backends, 12 cases,
        (sc in synthetic_scenario(), params in exact_spec_params()) => point(fifo_net(&sc), params),
        equal [Fingerprints],
        arms [(FIFO, Grid), (FIFO, LosslessDelta), (Thread, LosslessDelta), (Socket, LosslessDelta)];

    /// Any configuration: the same salt reproduces the whole run.
    same_salt_reproduces_the_run, 64 cases,
        (sc in synthetic_scenario(), params in spec_params(), salt in 0u64..1_000_000)
            => Point { salt, ..point(sc, params) },
        equal [Fingerprints, Elapsed, Counters(|s| format!("{:?}",
            (s.speculated_partitions, s.rollbacks, s.corrections)))],
        arms [(SALTED, Grid), (SALTED, Grid)];

    /// The N-body arm of the row above.
    nbody_same_salt_reproduces_the_run, 16 cases,
        (sc in synthetic_scenario(), params in spec_params(), salt in 0u64..1_000_000)
            => Point { salt, ..nbody(sc, params) },
        equal [Fingerprints, Elapsed, Counters(|s| format!("{:?}",
            (s.speculated_partitions, s.rollbacks, s.corrections)))],
        arms [(SALTED, Grid), (SALTED, Grid)];

    /// Full grid: a controller that never decides is no controller.
    dormant_controller_is_bit_inert, 64 cases,
        (sc in synthetic_scenario(), params in spec_params()) => point(sc, params),
        equal [Fingerprints, Elapsed, Counters(|s| format!("{:?}",
            (s.speculated_partitions, s.misspeculated_partitions, s.rollbacks)))],
        arms [(FIFO, Grid), (FIFO, DormantController)];

    /// Exact grid: every decision an exact-anchor controller makes keeps
    /// exact semantics, also on threads, whose waits drive other decisions.
    active_exact_anchor_controller_equals_baseline, 64 cases,
        (sc in synthetic_scenario(), params in exact_spec_params()) => point(sc, params),
        equal [Fingerprints],
        arms [(FIFO, ExactAnchorController), (FIFO, Fw0), (Thread, ExactAnchorController)];

    /// Full grid: decisions are a pure function of committed virtual time.
    controller_runs_replay_bit_for_bit, 64 cases,
        (sc in synthetic_scenario(), params in spec_params()) => point(sc, params),
        equal [Fingerprints, Elapsed, Counters(|s| format!("{:?}",
            (s.controller_retunes, s.controller_fw, s.controller_theta)))],
        arms [(FIFO, Controller), (FIFO, Controller)];
}

// ---------------------------------------------------------------------------
// Bounds, not equivalences: crash, degraded-mode and quantized-delta runs
// ---------------------------------------------------------------------------

/// The grid point's driver config with a delta-exchange policy attached.
fn delta_config(params: &SpecParams, floor: f64, keyframe: u64) -> SpecConfig {
    params
        .build()
        .with_delta_exchange(DeltaExchange::new(floor, keyframe))
}

/// Delta frames only apply in order; a reordered frame is dropped and
/// healed later, which is correct but changes *which* values feed θ > 0
/// runs. Equality-with-full-broadcast properties therefore pin the
/// network to FIFO-preserving constant latency (the jitter model can
/// reorder same-link messages).
fn fifo_net(sc: &SyntheticScenario) -> SyntheticScenario {
    SyntheticScenario {
        jitter_frac: 0.0,
        ..sc.clone()
    }
}

/// The driver's side of a crash run: fault tolerance plus the supervision
/// lifecycle that quarantines the silent rank and readmits it on rejoin.
/// The outage itself comes from the transport ([`crash_faults`]).
fn crash_config(params: &SpecParams, timeout: SimDuration, sup: SupervisionConfig) -> SpecConfig {
    params
        .build()
        .with_fault_tolerance(FaultTolerance::new(timeout).with_supervision(sup))
}

/// The one crash schedule: the crashed rank acts out its outage, and
/// sends addressed to it meanwhile are dropped — and counted — at the
/// sender, like datagrams to a rebooting host, which is what makes the
/// "promoted commits ≤ messages lost" oracle meaningful.
fn crash_faults(crash: MachineCrash) -> FaultSpec<IterMsg<Vec<f64>>> {
    FaultSpec::none().with_crashes(CrashPlan::new(vec![crash]))
}

proptest! {
    /// Degraded-mode termination: a rank that dies at t = 0 and never
    /// returns must not wedge the cluster. Survivors quarantine it after
    /// the configured staleness and from then on carry its partition by
    /// speculation alone (the quarantine bypass promotes its slot the
    /// moment it blocks the front). Every promoted commit is accounted
    /// against a genuinely lost message, degraded commits are a subset of
    /// loss promotions, and the whole schedule is tie-break insensitive —
    /// crash handling adds events to the kernel queue but no
    /// nondeterminism.
    #[test]
    fn degraded_mode_carries_a_dead_peer_to_completion(
        sc in synthetic_scenario(),
        params in exact_spec_params(),
        timeout_ms in 120u64..250,
    ) {
        let sc = SyntheticScenario { iters: sc.iters.max(4), ..sc };
        // FW ≥ 1: with an empty forward window nothing is ever
        // speculated, so the degraded path under test cannot engage.
        let params = SpecParams { fw: params.fw.max(1), ..params };
        let dead = sc.p - 1;
        let crash = MachineCrash::permanent(dead, SimTime::ZERO);
        let cfg = crash_config(
            &params,
            SimDuration::from_millis(timeout_ms),
            SupervisionConfig::new(1, 1),
        );
        let fifo = run(FIFO, &sc, params.theta, &cfg, crash_faults(crash));
        let lifo = run(LIFO, &sc, params.theta, &cfg, crash_faults(crash));
        prop_assert_eq!(&fifo.fingerprints, &lifo.fingerprints);
        for (k, s) in fifo.stats.iter().enumerate() {
            if k == dead {
                prop_assert_eq!(s.iterations, 0, "the dead rank must exit at its crash");
                continue;
            }
            prop_assert_eq!(s.iterations, sc.iters, "survivor {} wedged", k);
            prop_assert!(s.peers_quarantined >= 1, "survivor {} never quarantined", k);
            prop_assert!(s.degraded_commits >= 1, "survivor {} never ran degraded", k);
            prop_assert!(
                s.degraded_commits <= s.speculate_through_loss_commits,
                "degraded commits must be a subset of loss promotions"
            );
            prop_assert!(
                s.speculate_through_loss_commits <= s.messages_lost,
                "survivor {}: {} promoted commits > {} lost messages",
                k, s.speculate_through_loss_commits, s.messages_lost
            );
        }
    }

    /// A positive quantization floor offsets every exchanged value by at
    /// most `floor`, and the workload's dynamics amplify a received
    /// offset by at most the jump factor per iteration — so the final
    /// drift against the full-broadcast run stays inside the closed-form
    /// envelope `α·floor·Σ(1+jump)^k`. θ = 0 + recompute pins every
    /// other error source to zero, isolating quantization.
    #[test]
    fn quantized_delta_drift_is_bounded(
        sc in synthetic_scenario(),
        params in exact_spec_params(),
    ) {
        let sc = fifo_net(&sc);
        let floor = if sc.delta_floor > 0.0 { sc.delta_floor } else { 1e-4 };
        let full = run(FIFO, &sc, 0.0, &params.build(), FaultSpec::none()).values;
        let delta = delta_config(&params, floor, sc.delta_keyframe);
        let lossy = run(FIFO, &sc, 0.0, &delta, FaultSpec::none()).values;
        // app_cfg: alpha = 0.1, multiplicative jumps of ±0.5.
        let (alpha, jump) = (0.1, 0.5);
        let envelope: f64 = (0..sc.iters)
            .map(|k| (1.0f64 + jump).powi(k as i32))
            .sum::<f64>()
            * alpha
            * floor;
        let bound = envelope * 4.0 + 1e-12;
        for (rank, (f, l)) in full.iter().zip(&lossy).enumerate() {
            for (i, (a, b)) in f.iter().zip(l).enumerate() {
                prop_assert!(
                    (a - b).abs() <= bound,
                    "rank {} var {}: |{} - {}| > {}", rank, i, a, b, bound
                );
            }
        }
    }

}

proptest! {
    // Crash schedules stall survivors for up to 2× the loss timeout in
    // *wall clock* on the thread and socket backends (the sim pays it in
    // virtual time only), so this block runs even fewer cases than the
    // plain socket properties above.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Crash fingerprints agree across all three backends, bit for bit.
    ///
    /// The schedule is chosen so the claim is *provable*, not just
    /// empirically lucky: the rank dies at t = 0, before executing
    /// anything, so every backend sees exactly one broadcast from it —
    /// the initial state. A one-entry history extrapolates to a
    /// constant, so every promotion of the dead peer's input commits the
    /// same value no matter when each backend's timeouts fire; survivors
    /// exchange exact actuals under θ = 0 + recompute. Values are
    /// therefore timing-independent even though the three backends time
    /// out at wildly different real instants — and the sim agrees with
    /// itself across tie-breaks, with real threads, and with real TCP.
    #[test]
    fn crash_fingerprints_agree_across_all_three_backends(
        sc in synthetic_scenario(),
        params in exact_spec_params(),
    ) {
        let sc = SyntheticScenario { iters: sc.iters.max(4), jitter_frac: 0.0, ..sc };
        let params = SpecParams { fw: params.fw.max(1), ..params };
        let dead = sc.p - 1;
        let crash = MachineCrash::permanent(dead, SimTime::ZERO);
        // Timeout far above both simulated (≤ 5 ms) and loopback
        // latencies: only the dead rank's inputs ever promote.
        let cfg = crash_config(
            &params,
            SimDuration::from_millis(150),
            SupervisionConfig::new(1, 1),
        );
        let on = |backend| run(backend, &sc, params.theta, &cfg, crash_faults(crash));
        let (sim, lifo, thread, socket) = (on(FIFO), on(LIFO), on(Thread), on(Socket));
        prop_assert_eq!(&sim.fingerprints, &lifo.fingerprints);
        prop_assert_eq!(&sim.fingerprints, &thread.fingerprints);
        prop_assert_eq!(&sim.fingerprints, &socket.fingerprints);
        for out in [&sim, &thread, &socket] {
            for (k, s) in out.stats.iter().enumerate() {
                if k == dead {
                    prop_assert_eq!(s.iterations, 0);
                    continue;
                }
                prop_assert_eq!(s.iterations, sc.iters, "survivor {} wedged", k);
                prop_assert!(s.peers_quarantined >= 1, "survivor {} never quarantined", k);
                prop_assert!(
                    s.speculate_through_loss_commits <= s.messages_lost,
                    "survivor {}: promoted commits exceed lost messages", k
                );
            }
        }
        // The dead rank is down from t = 0, so the one plan reaches the
        // thread backend's gate only if every survivor counts a drop.
        for (k, s) in thread.stats.iter().enumerate().filter(|&(k, _)| k != dead) {
            prop_assert!(s.messages_lost >= 1, "survivor {} lost nothing to the dead rank", k);
        }
    }

    /// A crash→rejoin schedule completes on all three backends: the rank
    /// dies at t = 0 and returns at 250 ms — inside the survivors' grace
    /// window on every backend — re-enters via retransmit requests and
    /// keyframes, and every rank still commits every iteration. The sim
    /// run additionally replays bit-for-bit. (Bit-equality *across*
    /// backends is deliberately not asserted here: a rejoining rank's
    /// recovered history depends on which iteration its peers' replies
    /// carry, which is genuinely timing-dependent; the provable
    /// cross-backend equality lives in the permanent-crash property
    /// above, and the readmission semantics are pinned by
    /// `tests/chaos.rs::crash_rejoin_timeline_quarantines_then_readmits`.)
    #[test]
    fn crash_rejoin_completes_on_all_three_backends(
        sc in synthetic_scenario(),
        params in exact_spec_params(),
    ) {
        let sc = SyntheticScenario { iters: sc.iters.max(4), jitter_frac: 0.0, ..sc };
        let params = SpecParams { fw: params.fw.max(1), ..params };
        let crash = MachineCrash {
            rank: sc.p - 1,
            at: SimTime::ZERO,
            restart_after: SimDuration::from_millis(250),
        };
        let cfg = crash_config(
            &params,
            SimDuration::from_millis(150),
            SupervisionConfig::new(1, 2),
        );
        let on = |backend| run(backend, &sc, params.theta, &cfg, crash_faults(crash));
        let (sim, again, thread, socket) = (on(FIFO), on(FIFO), on(Thread), on(Socket));
        prop_assert_eq!(&sim.fingerprints, &again.fingerprints);
        prop_assert_eq!(sim.elapsed, again.elapsed);
        for out in [&sim, &thread, &socket] {
            for (k, s) in out.stats.iter().enumerate() {
                prop_assert_eq!(s.iterations, sc.iters, "rank {} wedged", k);
            }
            prop_assert_eq!(out.stats[sc.p - 1].peer_restarts, 1);
        }
        // Down from t = 0: every survivor's first broadcast to it is lost.
        for s in &thread.stats[..sc.p - 1] {
            prop_assert!(s.messages_lost >= 1, "survivor {} lost nothing to the down rank", s.rank.0);
        }
    }
}
