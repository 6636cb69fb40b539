//! Extended conformance sweep, ignored by default.
//!
//! `ci.sh` runs the default suites at 64 cases per property with the
//! shim's fixed per-test seeds. Nightly (or any paranoid) runs add
//!
//! ```text
//! cargo test -q -p speccheck -- --ignored
//! ```
//!
//! for the 1024-case deepening of the conformance matrix's exact-grid row
//! (which also checks phase accounting on its simulator arms), plus a
//! randomly seeded sweep whose seed is printed on stderr
//! (`SPECCHECK_SWEEP_SEED=<hex>` replays it).

use desim::TieBreak;
use mpk::FaultSpec;
use proptest::prelude::*;
use proptest::TestRng;
use speccheck::oracles::phase_partition;
use speccheck::{exact_spec_params, run, synthetic_scenario, Backend};
use speccore::SpecConfig;

/// Randomly seeded sweep: unlike the fixed-seed properties, every
/// nightly run explores a *fresh* region of scenario space. The seed is
/// taken from `SPECCHECK_SWEEP_SEED` (hex, `0x` optional) when set, else
/// from the wall clock, and is always printed so a failure is
/// replayable.
#[test]
#[ignore = "extended sweep: run with --ignored (nightly)"]
fn extended_random_seed_sweep() {
    let seed = std::env::var("SPECCHECK_SWEEP_SEED")
        .ok()
        .and_then(|s| u64::from_str_radix(s.trim().trim_start_matches("0x"), 16).ok())
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock before epoch")
                .as_nanos() as u64
        });
    eprintln!("extended_random_seed_sweep seed: {seed:#018x} (replay with SPECCHECK_SWEEP_SEED={seed:#x})");

    let mut rng = TestRng::from_state(seed);
    for case in 0..1024u32 {
        let sc = synthetic_scenario().sample(&mut rng);
        let params = exact_spec_params().sample(&mut rng);
        let sim = |cfg: &SpecConfig| {
            run(
                Backend::Sim(TieBreak::Fifo),
                &sc,
                params.theta,
                cfg,
                FaultSpec::none(),
            )
        };
        let spec = sim(&params.build());
        let base = sim(&SpecConfig::baseline());
        assert_eq!(
            spec.fingerprints, base.fingerprints,
            "case {case} (sweep seed {seed:#018x}): θ=0+recompute diverged from baseline on {sc:?} / {params:?}"
        );
        for s in &spec.stats {
            phase_partition(s).unwrap_or_else(|e| {
                panic!("case {case} (sweep seed {seed:#018x}): {e} on {sc:?} / {params:?}")
            });
        }
    }
}
