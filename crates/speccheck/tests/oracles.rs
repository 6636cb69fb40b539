//! Invariant-oracle property: the loss-commit bound, with exhaustive
//! phase accounting under loss (every fault-free simulator arm of the
//! conformance matrix checks phase accounting too).

use desim::TieBreak;
use proptest::prelude::*;
use speccheck::oracles::{loss_commit_accounting, phase_partition};
use speccheck::{loss_scenario, run, synthetic_scenario, Backend};

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
}
