//! The thread and socket endpoints' time: wall-clock since cluster start,
//! and computation charged by sleeping.

use std::time::{Duration, Instant};

use desim::{SimDuration, SimTime};

/// One cluster's wall clock, copied into each of its endpoints.
#[derive(Clone, Copy)]
pub(crate) struct WallClock {
    epoch: Instant,
    mips: f64,
}

impl WallClock {
    /// A clock starting now, on which `compute(ops)` takes
    /// `ops / (mips · 1e6)` seconds. Cluster entry points build theirs
    /// first, so an unusable `mips` stops the caller and not, later, a
    /// rank's thread.
    pub(crate) fn new(mips: f64) -> Self {
        assert!(
            mips > 0.0,
            "cluster option `mips` must be positive (infinite: `compute` is free), got {mips}"
        );
        WallClock {
            epoch: Instant::now(),
            mips,
        }
    }

    /// Nanoseconds from the cluster's start to `at`.
    pub(crate) fn ns_at(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Nanoseconds since the cluster started.
    pub(crate) fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns())
    }

    /// How long `ops` operations take; longer than a [`Duration`] holds is
    /// [`Duration::MAX`].
    fn ops_duration(&self, ops: u64) -> Duration {
        let secs = ops as f64 / (self.mips * 1e6);
        Duration::try_from_secs_f64(secs).unwrap_or(Duration::MAX)
    }

    /// Sleep for what `ops` operations take.
    pub(crate) fn compute(&self, ops: u64) {
        if ops > 0 {
            std::thread::sleep(self.ops_duration(ops));
        }
    }

    pub(crate) fn sleep(&self, d: SimDuration) {
        if d > SimDuration::ZERO {
            std::thread::sleep(Duration::from_nanos(d.as_nanos()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_time_scales_with_mips_and_saturates() {
        assert_eq!(
            WallClock::new(2.0).ops_duration(3_000_000),
            Duration::from_millis(1500)
        );
        assert_eq!(
            WallClock::new(f64::INFINITY).ops_duration(u64::MAX),
            Duration::ZERO
        );
        // 1.8e19 ops at 1e-300 MIPS used to panic in `from_secs_f64`.
        assert_eq!(WallClock::new(1e-300).ops_duration(u64::MAX), Duration::MAX);
    }
}
