//! Background-load models for timeshared machines.
//!
//! The paper notes that "the background load on timeshared processors may
//! slow down the computation phase" (§3.2) and blames part of its
//! model-vs-measured gap on it (§5). A [`LoadModel`] scales a machine's
//! compute durations by a time-varying factor ≥ 1.

use desim::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A multiplicative slowdown applied to compute phases.
pub trait LoadModel: Send {
    /// Slowdown factor (≥ 1.0) for a compute phase starting at `now` on
    /// machine `rank`.
    fn factor(&mut self, rank: usize, now: SimTime) -> f64;
}

/// No background load: every compute phase runs at full machine speed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Unloaded;

impl LoadModel for Unloaded {
    fn factor(&mut self, _rank: usize, _now: SimTime) -> f64 {
        1.0
    }
}

/// Occasional load spikes: with probability `prob` per compute phase the
/// machine runs `slowdown`× slower (another process got scheduled).
pub struct RandomSpikes {
    prob: f64,
    slowdown: f64,
    rng: SmallRng,
}

impl RandomSpikes {
    /// With probability `prob` per compute phase, apply `slowdown` (> 1).
    pub fn new(prob: f64, slowdown: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability must be in [0,1]");
        assert!(slowdown >= 1.0, "slowdown must be >= 1");
        RandomSpikes {
            prob,
            slowdown,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl LoadModel for RandomSpikes {
    fn factor(&mut self, _rank: usize, _now: SimTime) -> f64 {
        if self.rng.gen_bool(self.prob) {
            self.slowdown
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_is_always_one() {
        let mut m = Unloaded;
        assert_eq!(m.factor(0, SimTime::ZERO), 1.0);
        assert_eq!(m.factor(5, SimTime::from_nanos(999)), 1.0);
    }

    #[test]
    fn spikes_respect_extremes() {
        let mut never = RandomSpikes::new(0.0, 4.0, 1);
        let mut always = RandomSpikes::new(1.0, 4.0, 1);
        for _ in 0..50 {
            assert_eq!(never.factor(0, SimTime::ZERO), 1.0);
            assert_eq!(always.factor(0, SimTime::ZERO), 4.0);
        }
    }

    #[test]
    #[should_panic(expected = "slowdown must be >= 1")]
    fn spikes_reject_speedups() {
        RandomSpikes::new(0.5, 0.5, 1);
    }
}
