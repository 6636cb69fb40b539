//! Prescriptive helpers over eqs. 3–9: argmin and inverse queries.
//!
//! §4's model is descriptive — it predicts iteration time for a *given*
//! configuration. The adaptive controller (`speccore::control`) needs the
//! prescriptive direction: *choose* the forward window that minimizes
//! predicted iteration time. These helpers answer that query
//! deterministically (pure functions, ties broken toward the smaller
//! argument) so online retuning decisions are reproducible bit-for-bit
//! across runs and backends.
//!
//! Queries over [`ModelParams`] validate first
//! ([`ModelParams::validate`]): a degenerate parameter set is a checked
//! [`ModelError`], never a NaN that silently wins a comparison.

use crate::model::{ModelError, ModelParams};

/// Predicted per-iteration time with a forward window of `fw`, from
/// measured per-confirmation quantities (any consistent time unit).
///
/// Generalizes the masking term of eq. 8: each additional window of depth
/// beyond the first overlaps one more busy period against the outstanding
/// communication delay, so the unmasked stall shrinks from
/// `comm − busy` (FW = 1) to `comm − fw·busy`:
///
/// `t(fw) = max(busy, comm − (fw − 1)·busy) + check + miss_penalty(fw)`
///
/// where `miss_penalty(fw) = Pr[≥1 miss in fw] · busy · (fw + 1)/2` — a
/// misspeculation anywhere in the window rolls back and re-executes on
/// average half the window. `fw = 0` (no speculation) degenerates to
/// `busy + comm` with no check or miss cost, matching eq. 3/6.
///
/// Non-finite or negative inputs yield `f64::INFINITY` so they can never
/// win an argmin.
pub fn masked_iteration_time(busy: f64, comm: f64, check: f64, miss_rate: f64, fw: u32) -> f64 {
    let ok = |v: f64| v.is_finite() && v >= 0.0;
    if !(ok(busy) && ok(comm) && ok(check) && ok(miss_rate) && miss_rate <= 1.0) {
        return f64::INFINITY;
    }
    if fw == 0 {
        return busy + comm;
    }
    let w = f64::from(fw);
    let stall = (comm - (w - 1.0) * busy).max(busy);
    let p_miss = 1.0 - (1.0 - miss_rate).powi(fw as i32);
    stall + check + p_miss * busy * (w + 1.0) / 2.0
}

/// Smallest forward window in `1..=fw_max` minimizing
/// [`masked_iteration_time`]; ties go to the shallower window (less state,
/// cheaper rollback). `fw_max = 0` is treated as 1.
pub fn best_forward_window(busy: f64, comm: f64, check: f64, miss_rate: f64, fw_max: u32) -> u32 {
    let mut best_w = 1u32;
    let mut best_t = masked_iteration_time(busy, comm, check, miss_rate, 1);
    for w in 2..=fw_max.max(1) {
        let t = masked_iteration_time(busy, comm, check, miss_rate, w);
        if t < best_t {
            best_t = t;
            best_w = w;
        }
    }
    best_w
}

/// Eq. 9 guarded by validation: `t_hat(p)` as a checked query, with `p`
/// clamped into `1..=capacities.len()`. This is the form the controller
/// calls — it can never observe a panic or a non-finite prediction from a
/// well-formed parameter set.
pub fn predicted_iteration_time(params: &ModelParams, p: usize) -> Result<f64, ModelError> {
    params.validate()?;
    Ok(params.t_hat(p.clamp(1, params.capacities.len())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CommModel;

    fn simple(p: usize) -> ModelParams {
        ModelParams {
            n: 100.0,
            f_comp: 1000.0,
            f_spec: 10.0,
            f_check: 20.0,
            capacities: vec![1e6; p],
            comm: CommModel::Affine {
                base: 0.01,
                per_proc: 0.002,
            },
            k: 0.02,
        }
    }

    #[test]
    fn masked_iteration_time_matches_eq8_shape_at_fw1() {
        // FW = 1 is eq. 8: max(busy, comm) + check (+ miss penalty).
        let t = masked_iteration_time(2.0, 5.0, 0.5, 0.0, 1);
        assert_eq!(t, 5.0 + 0.5);
        // Compute-bound case: comm fully masked.
        let t = masked_iteration_time(5.0, 2.0, 0.5, 0.0, 1);
        assert_eq!(t, 5.0 + 0.5);
        // FW = 0 degenerates to the no-speculation eq. 3/6 shape.
        assert_eq!(masked_iteration_time(2.0, 5.0, 0.5, 0.0, 0), 7.0);
    }

    #[test]
    fn masked_iteration_time_never_returns_nan() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert_eq!(masked_iteration_time(bad, 1.0, 0.1, 0.0, 2), f64::INFINITY);
            assert_eq!(masked_iteration_time(1.0, bad, 0.1, 0.0, 2), f64::INFINITY);
            assert_eq!(masked_iteration_time(1.0, 1.0, bad, 0.0, 2), f64::INFINITY);
            assert_eq!(masked_iteration_time(1.0, 1.0, 0.1, bad, 2), f64::INFINITY);
        }
        assert_eq!(
            masked_iteration_time(1.0, 1.0, 0.1, 1.5, 2),
            f64::INFINITY,
            "miss rate above 1 is degenerate"
        );
    }

    #[test]
    fn best_forward_window_deepens_with_delay() {
        // With busy 2 and comm 7, FW must grow until 2·fw masks the delay.
        let w = best_forward_window(2.0, 7.0, 0.1, 0.0, 8);
        assert!(w >= 3, "needs ≥3 windows to mask 7s at 2s busy, got {w}");
        // No delay: stay shallow.
        assert_eq!(best_forward_window(2.0, 0.0, 0.1, 0.0, 8), 1);
        // High miss rate: the rollback penalty pins the window shallow
        // even under large delay.
        let wm = best_forward_window(2.0, 7.0, 0.1, 0.9, 8);
        assert!(wm <= w, "misses must not deepen the window");
        // Degenerate fw_max is clamped to 1.
        assert_eq!(best_forward_window(2.0, 7.0, 0.1, 0.0, 0), 1);
        // Non-finite telemetry can never panic the search.
        assert_eq!(best_forward_window(f64::NAN, 7.0, 0.1, 0.0, 4), 1);
    }

    #[test]
    fn predicted_iteration_time_is_checked_and_clamped() {
        let m = simple(4);
        assert_eq!(predicted_iteration_time(&m, 3).unwrap(), m.t_hat(3));
        assert_eq!(predicted_iteration_time(&m, 4).unwrap(), m.t_hat(4));
        // Out-of-range p clamps instead of panicking.
        assert_eq!(predicted_iteration_time(&m, 100).unwrap(), m.t_hat(4));
        assert_eq!(predicted_iteration_time(&m, 0).unwrap(), m.t_hat(1));
        let mut bad = m.clone();
        bad.capacities[2] = -1.0;
        assert!(predicted_iteration_time(&bad, 2).is_err());
    }
}
