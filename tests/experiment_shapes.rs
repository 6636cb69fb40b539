//! Quick-scale versions of the paper's evaluation, asserting the *shapes*
//! the paper reports (who wins, what grows, what shrinks). The full-size
//! runs live in the `spec-bench` bench targets.

use spec_bench::{experiments, Scale};

fn quick() -> Scale {
    Scale {
        n_particles: 150,
        iterations: 6,
        p_values: vec![1, 2, 4, 8, 16],
        seed: 42,
    }
}

#[test]
fn fig5_shape_speculation_wins_at_scale_and_nospec_peaks() {
    let rows = experiments::fig5();
    let last = rows.last().unwrap();
    assert!(
        last.spec > last.no_spec * 1.10,
        "model: ≥10% gain expected at p=16"
    );
    // The no-speculation curve declines somewhere before 16 (its peak).
    let peak = rows.iter().map(|r| r.no_spec).fold(0.0f64, f64::max);
    assert!(
        peak > last.no_spec,
        "no-spec curve must decline after its peak"
    );
    // Nothing beats the capacity bound.
    for r in &rows {
        assert!(r.spec <= r.max + 1e-9);
        assert!(r.no_spec <= r.max + 1e-9);
    }
}

#[test]
fn fig6_shape_speculation_loses_beyond_some_k() {
    let rows = experiments::fig6();
    assert!(
        rows[0].spec > rows[0].no_spec,
        "k=0 must favour speculation"
    );
    assert!(
        rows.last().unwrap().spec < rows.last().unwrap().no_spec,
        "k=30% must favour the baseline"
    );
}

#[test]
fn fig8_shape_speculation_wins_at_sixteen_processors() {
    let scale = quick();
    let rows = experiments::fig8(&scale);
    let last = rows.last().unwrap();
    assert_eq!(last.p, 16);
    let best = last.fw1.max(last.fw2);
    assert!(
        best > last.fw0 * 1.10,
        "measured: speculation should win ≥10% at p=16, got FW0={} FW1={} FW2={}",
        last.fw0,
        last.fw1,
        last.fw2
    );
    // Small systems: little effect (the paper: "very little impact for
    // 2 to 4 processors").
    let first = &rows[0];
    assert!(
        (first.fw1 / first.fw0 - 1.0).abs() < 0.25,
        "p=2 should show a modest effect, got {:+.1}%",
        100.0 * (first.fw1 / first.fw0 - 1.0)
    );
    // Nothing beats the capacity bound.
    for r in &rows {
        assert!(r.fw0 <= r.max * 1.01 && r.fw1 <= r.max * 1.01 && r.fw2 <= r.max * 1.01);
    }
}

#[test]
fn table2_shape_communication_shrinks_with_fw() {
    let scale = quick();
    let rows = experiments::table2(&scale);
    assert_eq!(rows.len(), 3);
    // FW=1 must slash the communication wait relative to FW=0.
    assert!(
        rows[1].communication < rows[0].communication * 0.6,
        "FW=1 comm {} vs FW=0 comm {}",
        rows[1].communication,
        rows[0].communication
    );
    // Overheads exist but stay small relative to computation.
    assert!(rows[1].speculation > 0.0);
    assert!(rows[1].check > 0.0);
    assert!(rows[1].speculation + rows[1].check < rows[1].computation * 0.25);
    // And the speculative totals beat the baseline total.
    assert!(rows[1].total < rows[0].total);
}

#[test]
fn table3_shape_theta_tradeoff() {
    let scale = quick();
    let rows = experiments::table3(&scale);
    assert_eq!(rows.len(), 5);
    // Tighter θ ⇒ more recomputations, less accepted error — the paper's
    // central trade-off.
    for w in rows.windows(2) {
        assert!(w[0].theta > w[1].theta);
        assert!(w[0].incorrect_pct <= w[1].incorrect_pct + 1e-9);
        assert!(w[0].max_force_error_pct >= w[1].max_force_error_pct - 1e-9);
    }
    // The accepted force error is bounded by ~2θ.
    for r in &rows {
        assert!(
            r.max_force_error_pct <= 200.0 * r.theta + 1e-9,
            "θ={} accepted {}%",
            r.theta,
            r.max_force_error_pct
        );
    }
}

#[test]
fn fig9_model_tracks_measurements() {
    let scale = quick();
    let rows = experiments::fig9(&scale);
    for r in &rows {
        let e0 = (r.model_nospec - r.measured_nospec).abs() / r.measured_nospec;
        assert!(
            e0 < 0.40,
            "no-spec model error {:.0}% at p={}",
            100.0 * e0,
            r.p
        );
        let e1 = (r.model_spec - r.measured_spec).abs() / r.measured_spec;
        assert!(
            e1 < 0.40,
            "spec model error {:.0}% at p={}",
            100.0 * e1,
            r.p
        );
    }
}

/// Cluster-total wire bytes per iteration of the N-body exchange phase may
/// not exceed these (measured: 10 272 full, 1 770 delta — 25 % headroom, so
/// codec bloat trips while a deliberate format change edits the constant).
const EXCHANGE_FULL_CEILING: f64 = 12_840.0;
const EXCHANGE_DELTA_CEILING: f64 = 2_213.0;
/// Delta frames must stay this many times cheaper than full snapshots
/// (measured: 5.8×).
const MIN_DELTA_RATIO: f64 = 3.0;

#[test]
fn exchange_bytes_stay_under_their_ceilings_and_delta_saves_3x() {
    let full = experiments::exchange_bytes_per_iter(false);
    let delta = experiments::exchange_bytes_per_iter(true);
    assert!(
        full <= EXCHANGE_FULL_CEILING,
        "full exchange {full} B/iter > {EXCHANGE_FULL_CEILING}"
    );
    assert!(
        delta <= EXCHANGE_DELTA_CEILING,
        "delta exchange {delta} B/iter > {EXCHANGE_DELTA_CEILING}"
    );
    assert!(
        full / delta >= MIN_DELTA_RATIO,
        "delta saves only {:.2}x over full",
        full / delta
    );
}

/// The controller's makespan over the best fixed (θ, FW) grid point may
/// not exceed this (measured: 1.000 — 1 729.513 vs 1 728.889 ms; matching
/// the best fixed point is the bar, not beating it).
const CONTROLLER_RATIO_CEILING: f64 = 1.05;

#[test]
fn controller_stays_within_five_percent_of_the_best_fixed_grid_point() {
    let sweep = experiments::controller_sweep();
    assert_eq!(sweep.grid.len(), 12);
    assert!(sweep.adaptive_retunes >= 1, "the controller never retuned");
    assert!(
        sweep.ratio() <= CONTROLLER_RATIO_CEILING,
        "controller {} ns vs best fixed {} ns",
        sweep.adaptive_ns,
        sweep.best_fixed_ns()
    );
}
