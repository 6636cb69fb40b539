//! Cluster specifications: an ordered set of heterogeneous machines.
//!
//! Following §4 of the paper, machines are kept sorted by decreasing
//! capacity (`M_1 ≥ M_2 ≥ …`); a *p*-processor run uses the fastest `p`
//! machines. The paper's model example uses 16 machines whose speeds vary
//! linearly with a 10× ratio between fastest and slowest; its measured
//! testbed spans 120 MIPS (SparcStation 10/1) down to 10 MIPS (SUN 4/10).

use crate::machine::MachineSpec;

/// An ordered (fastest-first) collection of machines.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    machines: Vec<MachineSpec>,
}

impl ClusterSpec {
    /// Build from an explicit machine list; sorts fastest-first.
    pub fn new(mut machines: Vec<MachineSpec>) -> Self {
        assert!(!machines.is_empty(), "a cluster needs at least one machine");
        machines.sort_by(|a, b| b.mips.partial_cmp(&a.mips).expect("finite capacities"));
        ClusterSpec { machines }
    }

    /// `count` identical machines of `mips` capacity.
    pub fn homogeneous(count: usize, mips: f64) -> Self {
        assert!(count > 0);
        ClusterSpec {
            machines: vec![MachineSpec::new(mips); count],
        }
    }

    /// `count` machines whose capacities fall linearly from `fastest` to
    /// `slowest` — the shape of both the paper's model example
    /// (`M_1 = 10 × M_16`) and its measured workstation pool.
    pub fn linear_ramp(count: usize, fastest: f64, slowest: f64) -> Self {
        assert!(count > 0);
        assert!(
            fastest >= slowest && slowest > 0.0,
            "need fastest >= slowest > 0, got {fastest} and {slowest}"
        );
        let machines = (0..count)
            .map(|i| {
                let frac = if count == 1 {
                    0.0
                } else {
                    i as f64 / (count - 1) as f64
                };
                MachineSpec::new(fastest - frac * (fastest - slowest))
            })
            .collect();
        ClusterSpec { machines }
    }

    /// The 16-machine configuration of the paper's §4 model example:
    /// linear ramp with the fastest machine 10× the slowest.
    pub fn paper_model_example() -> Self {
        Self::linear_ramp(16, 100.0, 10.0)
    }

    /// A 16-machine configuration shaped like the paper's measured testbed:
    /// 120 MIPS down to 10 MIPS, linear.
    pub fn paper_testbed() -> Self {
        Self::linear_ramp(16, 120.0, 10.0)
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// True if the cluster is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// The machines, fastest first.
    pub fn machines(&self) -> &[MachineSpec] {
        &self.machines
    }

    /// The fastest `p` machines (the set `{P1…Pp}` of §4).
    ///
    /// # Panics
    /// Panics if `p` is zero or exceeds the cluster size.
    pub fn fastest(&self, p: usize) -> ClusterSpec {
        assert!(p >= 1 && p <= self.machines.len(), "p={p} out of range");
        ClusterSpec {
            machines: self.machines[..p].to_vec(),
        }
    }

    /// Capacities `M_i` as raw numbers, fastest first.
    pub fn capacities(&self) -> Vec<f64> {
        self.machines.iter().map(|m| m.mips).collect()
    }

    /// Total capacity of the first `p` machines.
    pub(crate) fn total_capacity(&self, p: usize) -> f64 {
        assert!(p >= 1 && p <= self.machines.len());
        self.machines[..p].iter().map(|m| m.mips).sum()
    }

    /// `speedup_max(p) = Σ_{i≤p} M_i / M_1` (§4): the best speedup a
    /// *p*-machine run can achieve relative to the fastest machine alone.
    pub fn max_speedup(&self, p: usize) -> f64 {
        self.total_capacity(p) / self.machines[0].mips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_fastest_first() {
        let c = ClusterSpec::new(vec![
            MachineSpec::new(10.0),
            MachineSpec::new(120.0),
            MachineSpec::new(50.0),
        ]);
        assert_eq!(c.capacities(), vec![120.0, 50.0, 10.0]);
    }

    #[test]
    fn linear_ramp_endpoints() {
        let c = ClusterSpec::linear_ramp(16, 100.0, 10.0);
        assert_eq!(c.len(), 16);
        assert_eq!(c.machines()[0].mips, 100.0);
        assert_eq!(c.machines()[15].mips, 10.0);
        // Paper's ratio: fastest is 10x the slowest.
        assert!((c.machines()[0].mips / c.machines()[15].mips - 10.0).abs() < 1e-12);
    }

    #[test]
    fn linear_ramp_is_monotone() {
        let c = ClusterSpec::linear_ramp(16, 100.0, 10.0);
        for w in c.machines().windows(2) {
            assert!(w[0].mips >= w[1].mips);
        }
    }

    #[test]
    fn single_machine_ramp() {
        let c = ClusterSpec::linear_ramp(1, 50.0, 10.0);
        assert_eq!(c.capacities(), vec![50.0]);
    }

    #[test]
    fn fastest_takes_prefix() {
        let c = ClusterSpec::paper_model_example();
        let sub = c.fastest(4);
        assert_eq!(sub.len(), 4);
        assert_eq!(sub.machines()[0].mips, c.machines()[0].mips);
    }

    #[test]
    fn max_speedup_single_machine_is_one() {
        let c = ClusterSpec::paper_model_example();
        assert!((c.max_speedup(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_speedup_grows_sublinearly_on_heterogeneous_cluster() {
        let c = ClusterSpec::paper_model_example();
        let mut last = 0.0;
        for p in 1..=16 {
            let s = c.max_speedup(p);
            assert!(s > last, "max speedup must grow with p");
            assert!(s <= p as f64 + 1e-12, "cannot beat linear speedup");
            last = s;
        }
        // With a 10x linear ramp, sum of capacities = 16 * 55 / 100 = 8.8.
        assert!((c.max_speedup(16) - 8.8).abs() < 1e-9);
    }

    #[test]
    fn homogeneous_max_speedup_is_linear() {
        let c = ClusterSpec::homogeneous(8, 42.0);
        assert!((c.max_speedup(8) - 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fastest_zero_rejected() {
        ClusterSpec::paper_model_example().fastest(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// max_speedup is monotone nondecreasing in p and bounded by p, for
        /// any positive capacity vector.
        #[test]
        fn max_speedup_bounds(caps in proptest::collection::vec(1.0f64..1000.0, 1..32)) {
            let c = ClusterSpec::new(caps.iter().map(|&m| MachineSpec::new(m)).collect());
            let mut last = 0.0;
            for p in 1..=c.len() {
                let s = c.max_speedup(p);
                prop_assert!(s >= last - 1e-12);
                prop_assert!(s <= p as f64 + 1e-9);
                prop_assert!(s >= 1.0 - 1e-12);
                last = s;
            }
        }

        /// fastest(p) always returns the p largest capacities.
        #[test]
        fn fastest_is_prefix_of_sorted(caps in proptest::collection::vec(1.0f64..1000.0, 2..32), frac in 0.0f64..1.0) {
            let c = ClusterSpec::new(caps.iter().map(|&m| MachineSpec::new(m)).collect());
            let p = 1 + ((c.len() - 1) as f64 * frac) as usize;
            let sub = c.fastest(p);
            let mut sorted = caps.clone();
            sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
            prop_assert_eq!(sub.capacities(), sorted[..p].to_vec());
        }
    }
}
