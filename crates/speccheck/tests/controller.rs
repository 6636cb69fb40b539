//! Convergence of the adaptive speculation controller: under a
//! stationary delay the chosen window stabilizes and lands within one
//! grid step of the best fixed window found by an offline sweep, and
//! adaptive deadlines tighten a pessimistic static loss timeout enough to
//! beat it under real loss.
//!
//! The controller's equivalences — a dormant controller is no controller,
//! an exact-anchor controller is the baseline on the simulator and on
//! threads, decisions replay — are rows of the conformance matrix
//! (`conformance.rs`).

use desim::TieBreak;
use proptest::prelude::*;
use speccheck::{
    run_sim, run_sim_with_faults, synthetic_scenario, DriverMode, SpecParams, SyntheticScenario,
};
use speccore::{ControllerConfig, CorrectionMode, FaultTolerance, SpecConfig};

/// The grid point's config with an adaptive controller attached.
fn adaptive_mode(params: &SpecParams, ctl: ControllerConfig) -> DriverMode {
    DriverMode::Speculative(params.build().with_adaptive(ctl))
}

proptest! {
    /// Convergence: under a stationary delay and stationary compute (no
    /// jitter, no value jumps, no compute ramp) the controller's final
    /// window lands within one grid step of a near-optimal fixed window
    /// from an offline sweep — or the adaptive run itself matches the
    /// best fixed end time — and stays there: a run half again as long
    /// finishes on the same decision.
    #[test]
    fn controller_converges_near_offline_optimal_window(
        sc in synthetic_scenario(),
        bw in 1usize..4,
    ) {
        const FW_MAX: u32 = 4;
        let sc = SyntheticScenario {
            // Balanced partitions: the controller models *communication*
            // delay, so the property holds when waits come from the
            // network, not from compute skew between unequal partitions
            // (a throughput imbalance no window depth can mask).
            n: sc.n.div_ceil(sc.p) * sc.p,
            iters: sc.iters.max(12),
            ramp: 0.0,
            jitter_frac: 0.0,
            jump_prob: 0.0,
            ..sc
        };
        // θ generous so misses do not perturb the timing comparison.
        let theta = 0.5;
        let fixed = |fw: u32| SpecParams { fw, bw, theta, recompute: false };
        let sweep: Vec<f64> = (1..=FW_MAX)
            .map(|fw| run_sim(&sc, theta, &DriverMode::from_params(&fixed(fw)), TieBreak::Fifo).elapsed)
            .collect();
        let best = sweep.iter().cloned().fold(f64::INFINITY, f64::min);
        // The plateau: fixed windows within 5% of the best.
        let plateau: Vec<u32> = (1..=FW_MAX)
            .filter(|fw| sweep[(*fw - 1) as usize] <= best * 1.05)
            .collect();

        let ctl = ControllerConfig::new().with_cadence(4, 2).with_fw_max(FW_MAX);
        let mode = adaptive_mode(&fixed(1), ctl);
        let run = run_sim(&sc, theta, &mode, TieBreak::Fifo);
        let longer_sc = SyntheticScenario { iters: sc.iters + 6, ..sc.clone() };
        let longer = run_sim(&longer_sc, theta, &mode, TieBreak::Fifo);
        // The issue's acceptance criterion is "match or beat the best
        // fixed window": either the final decision sits within one grid
        // step of the plateau, or the adaptive run's own end time is
        // within 15% of the best fixed — the §4 model is a coarse
        // predictor, so on a nearly-flat sweep it may settle one or two
        // steps away, and the run also pays its warmup; what must never
        // happen is picking a window whose real cost is far off the best.
        let on_plateau = run.elapsed <= best * 1.15;
        for (k, s) in run.stats.iter().enumerate() {
            prop_assert!(s.controller_retunes >= 1);
            let fw = s.controller_fw as u32;
            prop_assert!(
                on_plateau || plateau.iter().any(|p| p.abs_diff(fw) <= 1),
                "rank {}: final fw {} more than one step from plateau {:?} \
                 and adaptive elapsed {} off the best fixed {} (sweep {:?})",
                k, fw, plateau, run.elapsed, best, sweep
            );
            prop_assert_eq!(
                longer.stats[k].controller_fw, s.controller_fw,
                "rank {} did not stabilize: fw moved between run lengths", k
            );
        }
    }
}

/// Adaptive deadlines must tighten a pessimistic static loss timeout: on
/// a lossy network whose configured timeout is ~50× the real gap scale,
/// the controller's gap-quantile deadlines promote genuinely lost
/// messages in milliseconds instead of a quarter second, finishing the
/// run strictly earlier while still completing every iteration — and the
/// whole lossy, controller-driven schedule replays bit-for-bit.
///
/// The deadline quantile is the *median* (with a generous ×4 headroom):
/// loss stalls themselves inflate the observed inter-arrival gaps — a
/// blocked front cascades cluster-wide, so under heavy loss timeout-sized
/// gaps can occupy more of the ring's tail than a high quantile's margin,
/// and the estimator would keep reproducing the very timeout it is meant
/// to replace. The median stays on the clean gap scale as long as stalls
/// are a minority of samples.
#[test]
fn adaptive_deadlines_beat_pessimistic_static_timeout_under_loss() {
    let sc = SyntheticScenario {
        p: 3,
        n: 12,
        iters: 40,
        mips: 50.0,
        ramp: 0.0,
        latency_us: 2_000,
        jitter_frac: 0.0,
        jump_prob: 0.0,
        delta_floor: 0.0,
        delta_keyframe: 1,
        seed: 11,
    };
    let theta = 0.3;
    let loss = speccheck::FaultScenario {
        loss_prob: 0.08,
        dup_prob: 0.0,
        seed: 5,
        timeout_ms: 250,
    };
    let base_cfg = SpecConfig::speculative(2)
        .with_correction(CorrectionMode::Incremental)
        .with_fault_tolerance(FaultTolerance::new(desim::SimDuration::from_millis(
            loss.timeout_ms,
        )));
    let adaptive_cfg = base_cfg.clone().with_adaptive(
        ControllerConfig::new()
            .with_cadence(4, 1)
            .with_fw_max(2)
            .with_deadline(0.5, 4.0),
    );
    let run = |cfg: &SpecConfig| {
        run_sim_with_faults(
            &sc,
            theta,
            &DriverMode::Speculative(cfg.clone()),
            loss.build(),
            TieBreak::Fifo,
        )
    };
    let static_run = run(&base_cfg);
    let adaptive = run(&adaptive_cfg);
    let again = run(&adaptive_cfg);
    assert_eq!(
        adaptive.fingerprints, again.fingerprints,
        "lossy controller run must replay bit-for-bit"
    );
    assert_eq!(adaptive.elapsed, again.elapsed);
    for (k, s) in static_run.stats.iter().enumerate() {
        assert_eq!(s.iterations, sc.iters, "static rank {k} wedged");
    }
    for (k, s) in adaptive.stats.iter().enumerate() {
        assert_eq!(s.iterations, sc.iters, "adaptive rank {k} wedged");
        assert!(s.controller_retunes >= 1, "rank {k} never retuned");
    }
    assert!(
        adaptive.elapsed < static_run.elapsed,
        "adaptive deadlines must beat the pessimistic static timeout: \
         adaptive {} vs static {}",
        adaptive.elapsed,
        static_run.elapsed
    );
}
