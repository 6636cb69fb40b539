//! Heterogeneous machine (processor) model.
//!
//! The paper's testbed is a network of SUN/Sparc workstations whose speeds
//! span 10–120 MIPS; a processor's capacity `M_i` is "the number of
//! operations performed per unit time" (§4, Table 1). [`MachineSpec`]
//! captures exactly that: a machine turns an operation count into virtual
//! compute time.

use desim::SimDuration;

/// Capacity of one simulated machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineSpec {
    /// Capacity `M_i` in millions of operations per second.
    pub mips: f64,
}

impl MachineSpec {
    /// A machine performing `mips` million operations per second.
    ///
    /// # Panics
    /// Panics if `mips` is not strictly positive and finite.
    pub fn new(mips: f64) -> Self {
        assert!(
            mips.is_finite() && mips > 0.0,
            "machine capacity must be positive, got {mips}"
        );
        MachineSpec { mips }
    }

    /// Virtual time needed to execute `ops` operations on this machine.
    pub fn ops_duration(&self, ops: u64) -> SimDuration {
        SimDuration::from_secs_f64(ops as f64 / (self.mips * 1e6))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_duration_scales_inversely_with_speed() {
        let fast = MachineSpec::new(100.0);
        let slow = MachineSpec::new(10.0);
        let ops = 1_000_000;
        assert_eq!(fast.ops_duration(ops).as_nanos(), 10_000_000); // 10 ms
        assert_eq!(slow.ops_duration(ops).as_nanos(), 100_000_000); // 100 ms
    }

    #[test]
    fn zero_ops_take_zero_time() {
        assert_eq!(MachineSpec::new(50.0).ops_duration(0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        MachineSpec::new(0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_nan_capacity() {
        MachineSpec::new(f64::NAN);
    }
}
