//! Equations 3–9 and the speedup definitions.

/// How per-iteration communication time scales with the processor count.
#[derive(Clone, Debug)]
pub enum CommModel {
    /// `t_comm(p) = coef · p` for `p > 1` — the paper's "communication
    /// time per iteration increases linearly with the number of
    /// processors".
    LinearInP {
        /// Seconds of communication per processor in the run.
        coef: f64,
    },
    /// `t_comm(p) = base + per_proc · p` for `p > 1`.
    Affine {
        /// Fixed per-iteration communication cost.
        base: f64,
        /// Additional cost per participating processor.
        per_proc: f64,
    },
    /// `t_comm(p) = coef · p²` for `p > 1` — each iteration moves
    /// `p·(p−1)` messages over a shared medium, so aggregate communication
    /// time grows quadratically once the medium saturates (the contention
    /// the paper blames for its post-10-processor decline).
    QuadraticInP {
        /// Seconds of communication per squared processor count.
        coef: f64,
    },
    /// Measured values: `table[p-1]` is `t_comm(p)`. Used when
    /// parameterizing the model from experiment data (Figure 9). Lookups
    /// beyond the table's end clamp to the last entry (an empty table
    /// reads as zero communication time) so that sweeps driven by the
    /// argmin helpers stay finite instead of panicking mid-search.
    Table(Vec<f64>),
}

impl CommModel {
    /// Per-iteration communication time on `p` processors. Zero for a
    /// single processor (nothing to exchange). Always finite for finite
    /// coefficients: `Table` lookups past the end clamp to the last
    /// entry rather than indexing out of bounds.
    pub(crate) fn t_comm(&self, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        match self {
            CommModel::LinearInP { coef } => coef * p as f64,
            CommModel::Affine { base, per_proc } => base + per_proc * p as f64,
            CommModel::QuadraticInP { coef } => coef * (p * p) as f64,
            CommModel::Table(t) => match t.get(p - 1) {
                Some(v) => *v,
                None => t.last().copied().unwrap_or(0.0),
            },
        }
    }

    /// All coefficients (or table entries) are finite and non-negative.
    /// Degenerate models fail fast here instead of feeding NaN/∞ into the
    /// eq. 8/9 argmin helpers.
    fn is_well_formed(&self) -> bool {
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        match self {
            CommModel::LinearInP { coef } | CommModel::QuadraticInP { coef } => ok(*coef),
            CommModel::Affine { base, per_proc } => ok(*base) && ok(*per_proc),
            CommModel::Table(t) => t.iter().all(|v| ok(*v)),
        }
    }
}

/// Why a [`ModelParams`] value cannot be evaluated by eqs. 3–9.
///
/// Returned by [`predicted_iteration_time`](crate::predicted_iteration_time),
/// which validates its parameters before evaluating, so a degenerate
/// parameter set is a checked error instead of NaN/∞ silently winning a
/// comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    /// `capacities` is empty: there is no processor to run on.
    NoProcessors,
    /// A capacity `M_i` is zero, negative, or non-finite — eqs. 3–9 all
    /// divide by capacities, so this would produce ∞ or NaN.
    BadCapacity {
        /// Index of the offending entry in `capacities`.
        index: usize,
    },
    /// A scalar field (`n`, `f_comp`, `f_spec`, `f_check`, or `k`) is
    /// negative or non-finite.
    BadField {
        /// Name of the offending field.
        field: &'static str,
    },
    /// The communication model has a non-finite or negative coefficient.
    BadComm,
}

impl core::fmt::Display for ModelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ModelError::NoProcessors => write!(f, "capacities is empty"),
            ModelError::BadCapacity { index } => {
                write!(f, "capacity M_{index} is not finite and positive")
            }
            ModelError::BadField { field } => {
                write!(f, "field {field} is not finite and non-negative")
            }
            ModelError::BadComm => write!(f, "communication model has a degenerate coefficient"),
        }
    }
}

/// The model's inputs (the paper's Table 1).
#[derive(Clone, Debug)]
pub struct ModelParams {
    /// Total number of variables `N`.
    pub n: f64,
    /// Operations to compute one variable, `f_comp`.
    pub f_comp: f64,
    /// Operations to speculate one variable, `f_spec`.
    pub f_spec: f64,
    /// Operations to check one variable, `f_check`.
    pub f_check: f64,
    /// Capacities `M_i` in operations/second, fastest first.
    pub capacities: Vec<f64>,
    /// Communication-time model `t_comm(p)`.
    pub comm: CommModel,
    /// Fraction of variables recomputed due to speculation error, `k`.
    pub k: f64,
}

impl ModelParams {
    /// The worked example of §4: `N = 1000`, 16 processors with capacities
    /// varying linearly and `M_1 = 10·M_16`, `t_comm(16)` equal to the
    /// computation time per iteration at `p = 16`, `k = 2%`.
    ///
    /// ## Reconciliation with the paper's stated constants
    ///
    /// Taken literally, the §4 constants `f_comp = 100·f_spec =
    /// 50·f_check` make the *slowest* machine of the 10:1 ramp spend more
    /// time checking `(N−N_i)·f_check/M_16` than computing — eq. 9 then
    /// predicts speculation *losing* ~45% at `p = 16`, contradicting the
    /// paper's own Figure 5 (+25%). The published example numbers are
    /// internally inconsistent with the published curves; the paper itself
    /// says its parameters are "close to the measured values for the
    /// N-body simulation example", whose measured per-variable costs
    /// (`70·N` compute, 12 speculate, 24 check) give *much* smaller
    /// speculation/check fractions. We therefore keep the paper's 2:1
    /// check:speculate ratio but at the N-body-like magnitude
    /// (`f_spec = f_comp/500`, `f_check = f_comp/250`), and let `t_comm`
    /// grow with the `p·(p−1)` message count (quadratic) — the contention
    /// the paper credits for the decline beyond ~10 processors. With these
    /// choices the model reproduces every feature the paper reports:
    /// ~25% gain at 16, negligible effect for 2–5 processors, a
    /// no-speculation peak near 10, and a Figure 6 crossover near k = 10%.
    pub fn paper_example() -> Self {
        let p_max = 16;
        let m1 = 100e6; // 100 "MIPS"; speedups are scale-invariant
        let m16 = m1 / 10.0;
        let capacities: Vec<f64> = (0..p_max)
            .map(|i| m1 - (i as f64 / (p_max - 1) as f64) * (m1 - m16))
            .collect();
        let n = 1000.0;
        let f_comp = 70_000.0; // shaped like the N-body kernel: 70·N ops/variable
        let total: f64 = capacities.iter().sum();
        let comp_time_16 = n * f_comp / total;
        ModelParams {
            n,
            f_comp,
            f_spec: f_comp / 500.0,
            f_check: f_comp / 250.0,
            capacities,
            comm: CommModel::QuadraticInP {
                coef: comp_time_16 / (p_max * p_max) as f64,
            },
            k: 0.02,
        }
    }

    /// Same parameters with a different recomputation fraction.
    pub fn with_k(&self, k: f64) -> Self {
        let mut p = self.clone();
        p.k = k;
        p
    }

    /// Check the parameter set is evaluable: at least one processor, all
    /// capacities finite and strictly positive, all scalar fields finite
    /// and non-negative, and a well-formed communication model.
    ///
    /// The boundary cases `p = 1` (no speculation: `t_hat(1) = t_total(1)`
    /// and every speedup is 1) and `k = 0` (no recomputation cost) are
    /// *valid* and return finite values; validation only rejects inputs
    /// that would make eqs. 3–9 produce NaN or ∞.
    pub(crate) fn validate(&self) -> Result<(), ModelError> {
        if self.capacities.is_empty() {
            return Err(ModelError::NoProcessors);
        }
        for (index, m) in self.capacities.iter().enumerate() {
            if !(m.is_finite() && *m > 0.0) {
                return Err(ModelError::BadCapacity { index });
            }
        }
        for (field, v) in [
            ("n", self.n),
            ("f_comp", self.f_comp),
            ("f_spec", self.f_spec),
            ("f_check", self.f_check),
            ("k", self.k),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(ModelError::BadField { field });
            }
        }
        if !self.comm.is_well_formed() {
            return Err(ModelError::BadComm);
        }
        Ok(())
    }

    /// Σ of the fastest `p` capacities.
    fn total_capacity(&self, p: usize) -> f64 {
        assert!(p >= 1 && p <= self.capacities.len(), "p={p} out of range");
        self.capacities[..p].iter().sum()
    }

    /// Number of variables allocated to processor `i` (0-based) in a
    /// `p`-processor run — the continuous solution of eqs. 4–5:
    /// `N_i = N · M_i / Σ M`.
    fn n_alloc(&self, i: usize, p: usize) -> f64 {
        assert!(i < p);
        self.n * self.capacities[i] / self.total_capacity(p)
    }

    /// Eq. 3 / eq. 6: iteration time without speculation. For `p = 1` this
    /// is `N·f_comp/M_1`; otherwise balanced computation plus `t_comm(p)`.
    fn t_total(&self, p: usize) -> f64 {
        if p == 1 {
            return self.n * self.f_comp / self.capacities[0];
        }
        // With eq. 4 balancing, N_i·f_comp/M_i = N·f_comp/ΣM for every i.
        self.n * self.f_comp / self.total_capacity(p) + self.comm.t_comm(p)
    }

    /// Eq. 8: processor `i`'s iteration time with speculation (FW = 1).
    fn t_hat_i(&self, i: usize, p: usize) -> f64 {
        let m = self.capacities[i];
        let n_i = self.n_alloc(i, p);
        let others = self.n - n_i;
        let busy = others * self.f_spec / m + n_i * self.f_comp / m;
        busy.max(self.comm.t_comm(p)) + others * self.f_check / m + self.k * n_i * self.f_comp / m
    }

    /// Eq. 9: iteration time with speculation = max over processors.
    pub fn t_hat(&self, p: usize) -> f64 {
        if p == 1 {
            // Nothing to speculate on a single processor.
            return self.t_total(1);
        }
        (0..p)
            .map(|i| self.t_hat_i(i, p))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Speedup without speculation, relative to the fastest processor.
    pub fn speedup_nospec(&self, p: usize) -> f64 {
        self.t_total(1) / self.t_total(p)
    }

    /// Speedup with speculation, relative to the fastest processor.
    pub fn speedup_spec(&self, p: usize) -> f64 {
        self.t_total(1) / self.t_hat(p)
    }

    /// `speedup_max(p) = Σ_{i≤p} M_i / M_1`.
    pub fn speedup_max(&self, p: usize) -> f64 {
        self.total_capacity(p) / self.capacities[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            k: 0.0,
        }
    }

    #[test]
    fn eq3_single_processor() {
        let m = simple(4);
        // 100 vars · 1000 ops / 1e6 ops/s = 0.1 s.
        assert!((m.t_total(1) - 0.1).abs() < 1e-12);
        assert!((m.speedup_nospec(1) - 1.0).abs() < 1e-12);
        assert!((m.speedup_spec(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eq6_adds_communication() {
        let m = simple(2);
        // Balanced compute on 2 procs: 0.05 s + t_comm(2) = 0.014.
        assert!((m.t_total(2) - (0.05 + 0.014)).abs() < 1e-12);
    }

    #[test]
    fn allocation_satisfies_eq4_and_eq5() {
        let m = ModelParams::paper_example();
        for p in [2usize, 7, 16] {
            let sum: f64 = (0..p).map(|i| m.n_alloc(i, p)).sum();
            assert!((sum - m.n).abs() < 1e-9, "eq. 5 violated at p={p}");
            let r0 = m.n_alloc(0, p) / m.capacities[0];
            for i in 1..p {
                let ri = m.n_alloc(i, p) / m.capacities[i];
                assert!((ri - r0).abs() < 1e-12, "eq. 4 violated at p={p}, i={i}");
            }
        }
    }

    #[test]
    fn eq8_reduces_to_compute_when_comm_is_free() {
        let mut m = simple(2);
        m.comm = CommModel::Affine {
            base: 0.0,
            per_proc: 0.0,
        };
        // busy = 50·1000/1e6 + 50·10/1e6; + check 50·20/1e6; k=0.
        let expected = 0.05 + 50.0 * 10.0 / 1e6 + 50.0 * 20.0 / 1e6;
        assert!((m.t_hat_i(0, 2) - expected).abs() < 1e-15);
    }

    #[test]
    fn eq8_is_dominated_by_comm_when_comm_is_huge() {
        let mut m = simple(2);
        m.comm = CommModel::Affine {
            base: 10.0,
            per_proc: 0.0,
        };
        // max(busy, 10) = 10, plus check time.
        let expected = 10.0 + 50.0 * 20.0 / 1e6;
        assert!((m.t_hat_i(0, 2) - expected).abs() < 1e-12);
    }

    #[test]
    fn recomputation_fraction_adds_cost_linearly() {
        let m = simple(2);
        let t0 = m.with_k(0.0).t_hat(2);
        let t50 = m.with_k(0.5).t_hat(2);
        let t100 = m.with_k(1.0).t_hat(2);
        assert!(
            (t50 - t0 - (t100 - t50)).abs() < 1e-15,
            "k enters eq. 8 linearly"
        );
        assert!(t100 > t50 && t50 > t0);
    }

    #[test]
    fn speedups_never_exceed_maximum() {
        let m = ModelParams::paper_example();
        for p in 1..=16 {
            let cap = m.speedup_max(p) + 1e-9;
            assert!(m.speedup_nospec(p) <= cap);
            assert!(m.speedup_spec(p) <= cap);
        }
    }

    #[test]
    fn comm_table_lookup() {
        let c = CommModel::Table(vec![0.0, 0.5, 0.7]);
        assert_eq!(c.t_comm(1), 0.0);
        assert_eq!(c.t_comm(2), 0.5);
        assert_eq!(c.t_comm(3), 0.7);
    }

    #[test]
    fn comm_table_clamps_past_the_end() {
        // A table parameterized from a 3-processor experiment must stay
        // finite when an argmin sweep probes larger p.
        let c = CommModel::Table(vec![0.0, 0.5, 0.7]);
        assert_eq!(c.t_comm(4), 0.7);
        assert_eq!(c.t_comm(100), 0.7);
        let empty = CommModel::Table(vec![]);
        assert_eq!(empty.t_comm(5), 0.0);
    }

    #[test]
    fn validate_accepts_p1_and_k0_boundaries() {
        let mut m = simple(1);
        m.k = 0.0;
        assert_eq!(m.validate(), Ok(()));
        // And the boundary values themselves are finite and documented:
        // single processor means no speculation effect, zero k means no
        // recomputation term.
        assert!(m.t_hat(1).is_finite());
        assert_eq!(m.t_hat(1), m.t_total(1));
        assert_eq!(m.speedup_spec(1), 1.0);
        assert_eq!(m.speedup_nospec(1), 1.0);
        assert_eq!(m.speedup_max(1), 1.0);
    }

    #[test]
    fn validate_rejects_degenerate_parameters() {
        let base = simple(2);

        let mut m = base.clone();
        m.capacities.clear();
        assert_eq!(m.validate(), Err(ModelError::NoProcessors));

        let mut m = base.clone();
        m.capacities[1] = 0.0;
        assert_eq!(m.validate(), Err(ModelError::BadCapacity { index: 1 }));

        let mut m = base.clone();
        m.capacities[0] = f64::INFINITY;
        assert_eq!(m.validate(), Err(ModelError::BadCapacity { index: 0 }));

        let mut m = base.clone();
        m.f_comp = f64::NAN;
        assert_eq!(m.validate(), Err(ModelError::BadField { field: "f_comp" }));

        let mut m = base.clone();
        m.k = -0.1;
        assert_eq!(m.validate(), Err(ModelError::BadField { field: "k" }));

        let mut m = base.clone();
        m.comm = CommModel::Affine {
            base: f64::NAN,
            per_proc: 0.0,
        };
        assert_eq!(m.validate(), Err(ModelError::BadComm));
        assert!(!m.comm.is_well_formed());
    }

    #[test]
    fn model_error_display_is_descriptive() {
        assert_eq!(ModelError::NoProcessors.to_string(), "capacities is empty");
        assert!(ModelError::BadCapacity { index: 3 }
            .to_string()
            .contains("M_3"));
        assert!(ModelError::BadField { field: "k" }
            .to_string()
            .contains("k"));
    }

    #[test]
    fn heterogeneous_max_is_on_slowest() {
        // With unequal speeds the speculative iteration time is set by a
        // slower processor (speculation/check load imbalance, §4).
        let m = ModelParams::paper_example();
        let p = 16;
        let slowest = m.t_hat_i(p - 1, p);
        assert!((m.t_hat(p) - slowest).abs() <= m.t_hat(p) * 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Speculation gain over no-speculation is bounded below by the
        /// pure-overhead case: with k=0 and zero comm time, speculation
        /// can only lose (overhead), never win.
        #[test]
        fn no_comm_means_no_gain(
            n in 10.0f64..10_000.0,
            f_comp in 10.0f64..1e5,
            procs in 2usize..12,
        ) {
            let m = ModelParams {
                n,
                f_comp,
                f_spec: f_comp / 100.0,
                f_check: f_comp / 50.0,
                capacities: vec![1e6; procs],
                comm: CommModel::Affine { base: 0.0, per_proc: 0.0 },
                k: 0.0,
            };
            prop_assert!(m.t_hat(procs) >= m.t_total(procs));
        }

        /// t_hat is monotone nondecreasing in k.
        #[test]
        fn t_hat_monotone_in_k(k1 in 0.0f64..1.0, k2 in 0.0f64..1.0) {
            let m = ModelParams::paper_example();
            let (lo, hi) = if k1 <= k2 { (k1, k2) } else { (k2, k1) };
            prop_assert!(m.with_k(lo).t_hat(8) <= m.with_k(hi).t_hat(8) + 1e-15);
        }

        /// Adding a processor never increases total capacity-normalized
        /// compute time (the compute term of eq. 6 shrinks with p).
        #[test]
        fn compute_term_shrinks_with_p(p in 2usize..16) {
            let m = ModelParams::paper_example();
            let compute = |p: usize| m.n * m.f_comp / m.capacities[..p].iter().sum::<f64>();
            prop_assert!(compute(p) >= compute(p + 1) - 1e-12);
        }
    }
}
