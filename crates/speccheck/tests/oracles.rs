//! Invariant-oracle properties: checks that must hold for every
//! generated run — loss-commit bounds (with exhaustive phase accounting
//! under loss; every fault-free simulator arm of the conformance matrix
//! checks it too), checkpoint/restore round-trips, performance-model
//! monotonicity, and momentum conservation of the symmetric N-body
//! kernel.

use desim::TieBreak;
use mpk::Rank;
use nbody::{uniform_cloud, NBodyApp, NBodyConfig, SpeculationOrder};
use perfmodel::{fig5_series, fig6_series, CommModel, ModelParams};
use proptest::prelude::*;
use speccheck::oracles::{
    checkpoint_round_trip, loss_commit_accounting, momentum_drift, monotone_nondecreasing,
    phase_partition,
};
use speccheck::{loss_scenario, run, synthetic_scenario, Backend};
use speccore::SpeculativeApp;
use workloads::SyntheticApp;

/// Random but well-formed model parameters: capacities fastest-first.
fn model_params(
    n: f64,
    f_comp: f64,
    caps: Vec<f64>,
    base: f64,
    per_proc: f64,
    k: f64,
) -> ModelParams {
    let mut capacities = caps;
    capacities.sort_by(|a, b| b.partial_cmp(a).unwrap());
    ModelParams {
        n,
        f_comp,
        f_spec: f_comp / 500.0,
        f_check: f_comp / 250.0,
        capacities,
        comm: CommModel::Affine { base, per_proc },
        k,
    }
}

proptest! {
    /// Speculate-through-loss accounting holds cluster-wide on loss-only
    /// stacks: commits never exceed messages lost, zero losses imply zero
    /// commits, and no rank commits more than its peer-input slots. (An
    /// earlier timeout-only driver failed the loss bound through a
    /// timeout cascade; the corpus witness that found it now replays
    /// green against the evidence/grace promotion protocol — see the
    /// oracle's docs.) Phase accounting stays exhaustive under loss.
    #[test]
    fn loss_commits_bounded_by_losses(
        sc in synthetic_scenario(),
        fault in loss_scenario(),
        fw in 1u32..4,
        theta in 0.0f64..0.4,
    ) {
        // Keep the network calm so a "lost" message is never merely late
        // (the accounting oracle's validity condition).
        let mut sc = sc;
        sc.jitter_frac = 0.0;
        sc.latency_us = sc.latency_us.min(2_000);
        let cfg = speccore::SpecConfig::speculative(fw).with_fault_tolerance(fault.tolerance());
        let out = run(Backend::Sim(TieBreak::Fifo), &sc, theta, &cfg, fault.build());
        let check = loss_commit_accounting(&out.stats, sc.iters);
        prop_assert!(check.is_ok(), "{}", check.unwrap_err());
        for s in &out.stats {
            prop_assert_eq!(s.iterations, sc.iters);
            let phases = phase_partition(s);
            prop_assert!(phases.is_ok(), "{}", phases.unwrap_err());
        }
    }

    /// `checkpoint()` → one full iteration → `restore()` reproduces the
    /// synthetic app's state bit-for-bit.
    #[test]
    fn synthetic_checkpoint_round_trips(sc in synthetic_scenario(), theta in 0.0f64..0.5) {
        let ranges = sc.ranges();
        let peer = SyntheticApp::new(sc.n, &ranges, 1, sc.app_cfg(theta)).shared();
        let mut app = SyntheticApp::new(sc.n, &ranges, 0, sc.app_cfg(theta));
        let res = checkpoint_round_trip(
            &mut app,
            |a| a.fingerprint(),
            |a| {
                a.begin_iteration();
                a.absorb(Rank(1), &peer);
                a.finish_iteration();
            },
        );
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }

    /// Same round-trip for the N-body app (positions *and* velocities).
    #[test]
    fn nbody_checkpoint_round_trips(n in 8usize..40, seed in 0u64..1_000) {
        let particles = uniform_cloud(n, seed);
        let ranges = vec![0..n / 2, n / 2..n];
        let cfg = NBodyConfig::default();
        let peer =
            NBodyApp::new(&particles, ranges.clone(), 1, cfg, SpeculationOrder::Linear).shared();
        let mut app = NBodyApp::new(&particles, ranges, 0, cfg, SpeculationOrder::Linear);
        let res = checkpoint_round_trip(
            &mut app,
            |a| a.fingerprint(),
            |a| {
                a.begin_iteration();
                a.absorb(Rank(1), &peer);
                a.finish_iteration();
            },
        );
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }

    /// Eq. 9 is monotone nondecreasing in the recomputation fraction k:
    /// misspeculating more can only cost time. Checked on *random* model
    /// parameters, not just the paper's worked example.
    #[test]
    fn t_hat_is_monotone_in_k(
        n in 100.0f64..5_000.0,
        f_comp in 100.0f64..50_000.0,
        caps in proptest::collection::vec(1e5f64..1e8, 2..8),
        base in 0.0f64..0.1,
        per_proc in 0.0f64..0.02,
        k1 in 0.0f64..1.0,
        k2 in 0.0f64..1.0,
    ) {
        let m = model_params(n, f_comp, caps, base, per_proc, 0.0);
        let p = m.capacities.len();
        let (lo, hi) = if k1 <= k2 { (k1, k2) } else { (k2, k1) };
        prop_assert!(m.with_k(lo).t_hat(p) <= m.with_k(hi).t_hat(p) + 1e-12);
    }

    /// The speedup ceiling `Σ M_i / M_1` is monotone nondecreasing in p
    /// (adding a machine never shrinks total capacity), and both modelled
    /// speedups stay under it at every p.
    #[test]
    fn speedup_ceiling_is_monotone_and_respected(
        n in 100.0f64..5_000.0,
        f_comp in 1_000.0f64..50_000.0,
        caps in proptest::collection::vec(1e5f64..1e8, 2..8),
        base in 0.0f64..0.1,
        per_proc in 0.0f64..0.02,
        k in 0.0f64..0.5,
    ) {
        let m = model_params(n, f_comp, caps, base, per_proc, k);
        let p_max = m.capacities.len();
        let ceilings: Vec<f64> = (1..=p_max).map(|p| m.speedup_max(p)).collect();
        let mono = monotone_nondecreasing(ceilings.iter().copied(), 1e-12, "speedup_max");
        prop_assert!(mono.is_ok(), "{}", mono.unwrap_err());
        for p in 1..=p_max {
            prop_assert!(m.speedup_nospec(p) <= m.speedup_max(p) + 1e-9);
            prop_assert!(m.speedup_spec(p) <= m.speedup_max(p) + 1e-9);
        }
    }

    /// The published series are consistent with the model they plot:
    /// every Figure 5 row equals the model's speedups at that p, and
    /// every Figure 6 row equals the k-swept model at that k.
    #[test]
    fn figure_series_match_the_model(p_max in 2usize..16, k in 0.0f64..0.3) {
        let m = ModelParams::paper_example().with_k(k);
        for row in fig5_series(&m, p_max) {
            prop_assert_eq!(row.no_spec, m.speedup_nospec(row.p));
            prop_assert_eq!(row.spec, m.speedup_spec(row.p));
            prop_assert_eq!(row.max, m.speedup_max(row.p));
        }
        let ks = [0.0, k, 2.0 * k];
        for row in fig6_series(&m, 8, &ks) {
            let mk = m.with_k(row.k);
            prop_assert_eq!(row.spec, mk.speedup_spec(8));
            prop_assert_eq!(row.no_spec, mk.speedup_nospec(8));
        }
    }

    /// The symmetric SoA force kernel conserves total momentum to
    /// rounding: internal gravity cancels in exactly evaluated pairs.
    #[test]
    fn symmetric_kernel_conserves_momentum(
        n in 8usize..64,
        seed in 0u64..10_000,
        steps in 1u64..30,
    ) {
        let drift = momentum_drift(n, seed, steps, 1e-3);
        prop_assert!(drift < 1e-9, "momentum drift {drift} over {steps} steps of n={n}");
    }
}

/// Non-vacuity guard for the round-trip oracles: the perturbation used
/// above really does change the fingerprint, so the round-trip tests
/// cannot pass by perturbing nothing.
#[test]
fn one_iteration_changes_the_synthetic_fingerprint() {
    let ranges = vec![0..8, 8..16];
    let cfg = workloads::SyntheticConfig::default();
    let peer = SyntheticApp::new(16, &ranges, 1, cfg).shared();
    let mut app = SyntheticApp::new(16, &ranges, 0, cfg);
    let before = app.fingerprint();
    app.begin_iteration();
    app.absorb(Rank(1), &peer);
    app.finish_iteration();
    assert_ne!(before, app.fingerprint(), "iteration must move the state");
}
