//! The paper's §4 abstract workload, made executable.
//!
//! `N` scalar variables are partitioned over `p` ranks. Every iteration,
//! each variable relaxes toward the global mean and occasionally *jumps*
//! (with a seeded, per-(variable, iteration) deterministic probability) —
//! jumps are what break speculation, so the jump probability directly
//! controls the misspeculation fraction `k` that the performance model
//! takes as input. Per-variable operation costs are explicit parameters,
//! mirroring Table 1's `f_comp`, `f_spec`, `f_check`.

use std::ops::Range;

use desim::rng::derive_seed;
use mpk::Rank;
use speccore::{speculator, CheckOutcome, History, SpeculativeApp};

use crate::lanes;

/// Cost and dynamics parameters of the synthetic workload.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticConfig {
    /// Operations charged per owned variable per iteration (`f_comp`).
    pub f_comp: u64,
    /// Operations charged per speculated variable (`f_spec`).
    pub f_spec: u64,
    /// Operations charged per checked variable (`f_check`).
    pub f_check: u64,
    /// Relative error threshold θ for accepting a speculated variable.
    pub theta: f64,
    /// Relaxation rate toward the global mean per iteration.
    pub alpha: f64,
    /// Probability that a variable jumps in a given iteration.
    pub jump_prob: f64,
    /// Jump magnitude (relative to the variable's value).
    pub jump_size: f64,
    /// Master seed for the jump process.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            f_comp: 70_000,
            f_spec: 140,
            f_check: 280,
            theta: 0.01,
            alpha: 0.1,
            jump_prob: 0.0,
            jump_size: 0.5,
            seed: 0,
        }
    }
}

/// Deterministic per-(variable, iteration) jump: returns the multiplicative
/// disturbance (0 when no jump fires). Pure function of the seed so
/// re-execution after a rollback reproduces it exactly.
fn jump(cfg: &SyntheticConfig, var: usize, iter: u64) -> f64 {
    if cfg.jump_prob <= 0.0 {
        return 0.0;
    }
    let h = derive_seed(cfg.seed, (var as u64) << 32 | iter);
    // Map the top 53 bits to [0, 1).
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    if u < cfg.jump_prob {
        // Deterministic sign from another bit.
        let sign = if h & 1 == 0 { 1.0 } else { -1.0 };
        sign * cfg.jump_size
    } else {
        0.0
    }
}

/// One rank's slice of the synthetic variable set.
pub struct SyntheticApp {
    cfg: SyntheticConfig,
    n_total: usize,
    range: Range<usize>,
    x: Vec<f64>,
    iter: u64,
    /// Partial global sum accumulated during the current iteration.
    sum: f64,
}

impl SyntheticApp {
    /// Build rank `me`'s partition given the global layout. Initial value
    /// of variable `i` is `1 + i/N`, a smooth deterministic ramp.
    pub fn new(n_total: usize, ranges: &[Range<usize>], me: usize, cfg: SyntheticConfig) -> Self {
        let range = ranges[me].clone();
        let x = range
            .clone()
            .map(|i| 1.0 + i as f64 / n_total as f64)
            .collect();
        SyntheticApp {
            cfg,
            n_total,
            range,
            x,
            iter: 0,
            sum: 0.0,
        }
    }

    /// Current values of this rank's variables.
    pub fn values(&self) -> &[f64] {
        &self.x
    }

    /// Bit-exact fingerprint of this rank's variables.
    pub fn fingerprint(&self) -> u64 {
        obs::fingerprint_f64s(&self.x)
    }

    /// Number of owned variables.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True if this rank owns nothing.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

impl SpeculativeApp for SyntheticApp {
    type Shared = Vec<f64>;
    type Checkpoint = (Vec<f64>, u64);

    fn shared(&self) -> Vec<f64> {
        self.x.clone()
    }

    fn begin_iteration(&mut self) -> u64 {
        self.sum = self.x.iter().sum();
        self.x.len() as u64
    }

    fn absorb(&mut self, _from: Rank, xs: &Vec<f64>) -> u64 {
        self.sum += xs.iter().sum::<f64>();
        xs.len() as u64
    }

    fn finish_iteration(&mut self) -> u64 {
        let mean = self.sum / self.n_total as f64;
        let alpha = self.cfg.alpha;
        for (offset, v) in self.x.iter_mut().enumerate() {
            let var = self.range.start + offset;
            let j = jump(&self.cfg, var, self.iter);
            *v = *v + alpha * (mean - *v) + j * *v;
        }
        self.iter += 1;
        self.cfg.f_comp * self.x.len() as u64
    }

    fn speculate(
        &self,
        _from: Rank,
        hist: &History<Vec<f64>>,
        ahead: u32,
    ) -> Option<(Vec<f64>, u64)> {
        let values = speculator::linear(hist, ahead)?;
        let cost = self.cfg.f_spec * values.len() as u64;
        Some((values, cost))
    }

    fn check(&self, _from: Rank, actual: &Vec<f64>, speculated: &Vec<f64>) -> CheckOutcome {
        // The update only sums a peer's values, so any length is well
        // formed: the two sides need only agree.
        let cfg = &self.cfg;
        lanes::check(
            actual,
            speculated,
            actual.len(),
            cfg.theta,
            1e-12,
            cfg.f_check,
        )
    }

    fn set_speculation_threshold(&mut self, theta: f64) {
        self.cfg.theta = theta;
    }

    fn correct(&mut self, _from: Rank, speculated: &Vec<f64>, actual: &Vec<f64>) -> u64 {
        // The iteration consumed only Σ of the peer's values; the update is
        // linear in the mean, so the finished state can be repaired exactly
        // (each owned variable moved by α·Δmean).
        let delta_sum: f64 = actual.iter().zip(speculated).map(|(a, s)| a - s).sum();
        let delta_mean = delta_sum / self.n_total as f64;
        for v in self.x.iter_mut() {
            *v += self.cfg.alpha * delta_mean;
        }
        self.cfg.f_comp / 10 * self.x.len() as u64
    }

    fn checkpoint(&self) -> (Vec<f64>, u64) {
        (self.x.clone(), self.iter)
    }

    fn restore(&mut self, c: &(Vec<f64>, u64)) {
        self.x.clone_from(&c.0);
        self.iter = c.1;
    }
}

/// Sequential reference: evolve all `n` variables for `iters` iterations
/// (matching the parallel semantics exactly when θ = 0 with recompute).
pub fn synthetic_reference(
    n: usize,
    ranges: &[Range<usize>],
    cfg: SyntheticConfig,
    iters: u64,
) -> Vec<f64> {
    let mut x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 / n as f64).collect();
    for t in 0..iters {
        // Per-partition sums in the driver's accumulation order (own
        // partition first, then peers ascending) — addition order matters
        // for bitwise comparisons.
        let sums: Vec<f64> = ranges.iter().map(|r| x[r.clone()].iter().sum()).collect();
        let mut next = x.clone();
        for (j, r) in ranges.iter().enumerate() {
            let mut total = sums[j];
            for (k, s) in sums.iter().enumerate() {
                if k != j {
                    total += s;
                }
            }
            let mean = total / n as f64;
            for i in r.clone() {
                let jv = jump(&cfg, i, t);
                next[i] = x[i] + cfg.alpha * (mean - x[i]) + jv * x[i];
            }
        }
        x = next;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn even_ranges(n: usize, p: usize) -> Vec<Range<usize>> {
        (0..p).map(|i| i * n / p..(i + 1) * n / p).collect()
    }

    #[test]
    fn jump_rate_tracks_probability() {
        let cfg = SyntheticConfig {
            jump_prob: 0.2,
            ..Default::default()
        };
        let fired = (0..10_000).filter(|&v| jump(&cfg, v, 0) != 0.0).count();
        let rate = fired as f64 / 10_000.0;
        assert!(
            (rate - 0.2).abs() < 0.02,
            "jump rate {rate} too far from 0.2"
        );
    }

    #[test]
    fn zero_prob_never_jumps() {
        let cfg = SyntheticConfig::default();
        assert!((0..1000).all(|v| jump(&cfg, v, 3) == 0.0));
    }

    #[test]
    fn app_single_iteration_matches_reference() {
        let n = 20;
        let ranges = even_ranges(n, 2);
        let cfg = SyntheticConfig::default();
        let mut a0 = SyntheticApp::new(n, &ranges, 0, cfg);
        let a1 = SyntheticApp::new(n, &ranges, 1, cfg);
        let other = a1.shared();
        a0.begin_iteration();
        a0.absorb(Rank(1), &other);
        a0.finish_iteration();
        let reference = synthetic_reference(n, &ranges, cfg, 1);
        for (got, want) in a0.values().iter().zip(&reference[..10]) {
            assert_eq!(got, want, "single-step semantics must match the reference");
        }
    }

    #[test]
    fn correction_is_exact_for_the_mean_coupling() {
        let n = 20;
        let ranges = even_ranges(n, 2);
        let cfg = SyntheticConfig::default();
        let actual: Vec<f64> = (10..20).map(|i| 1.0 + i as f64 / 20.0).collect();
        let spec: Vec<f64> = actual.iter().map(|v| v + 0.1).collect();

        let mut golden = SyntheticApp::new(n, &ranges, 0, cfg);
        golden.begin_iteration();
        golden.absorb(Rank(1), &actual);
        golden.finish_iteration();

        let mut fixed = SyntheticApp::new(n, &ranges, 0, cfg);
        fixed.begin_iteration();
        fixed.absorb(Rank(1), &spec);
        fixed.finish_iteration();
        fixed.correct(Rank(1), &spec, &actual);

        for (a, b) in golden.values().iter().zip(fixed.values()) {
            assert!((a - b).abs() < 1e-12, "correction residue: {a} vs {b}");
        }
    }

    #[test]
    fn checkpoint_roundtrip() {
        let n = 10;
        let ranges = even_ranges(n, 2);
        let mut app = SyntheticApp::new(n, &ranges, 0, SyntheticConfig::default());
        let c = app.checkpoint();
        app.begin_iteration();
        app.absorb(Rank(1), &vec![2.0; 5]);
        app.finish_iteration();
        assert_ne!(app.values(), &c.0[..]);
        app.restore(&c);
        assert_eq!(app.values(), &c.0[..]);
    }

    #[test]
    fn check_flags_only_bad_variables() {
        let n = 10;
        let ranges = even_ranges(n, 2);
        let app = SyntheticApp::new(n, &ranges, 0, SyntheticConfig::default());
        let actual = vec![1.0, 2.0, 3.0];
        let spec = vec![1.0, 2.5, 3.0]; // one 25% error
        let out = app.check(Rank(1), &actual, &spec);
        assert!(!out.accept);
        assert_eq!(out.bad_units, 1);
        assert_eq!(out.checked_units, 3);
        assert!((out.max_error - 0.25).abs() < 1e-12);
    }
}
