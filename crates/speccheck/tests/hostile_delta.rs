//! A delta frame's `(lane, value)` entries are the sending peer's word.
//! Whatever they hold, every app's `delta_patch` either applies all of
//! them or rejects the frame — it never indexes out of range, and never
//! touches the base it patches from.

use nbody::{partition_proportional, uniform_cloud, NBodyApp, NBodyConfig, SpeculationOrder};
use proptest::prelude::*;
use speccore::SpeculativeApp;
use workloads::{
    Graph, Heat2dApp, Heat2dConfig, JacobiApp, JacobiConfig, LinearSystem, PageRankApp,
    PageRankConfig, SyntheticApp, SyntheticConfig,
};

fn lanes_of<A: SpeculativeApp>(app: &A, shared: &A::Shared) -> Vec<u64> {
    let mut lanes = Vec::new();
    assert!(app.delta_extract(shared, &mut lanes), "delta-capable app");
    lanes.iter().map(|v| v.to_bits()).collect()
}

/// `None` exactly when some lane is out of range; otherwise the base with
/// every entry applied in order. The base itself is never changed.
fn patch_is_total<A: SpeculativeApp>(app: &A, entries: &[(u32, f64)]) {
    let base = app.shared();
    let before = lanes_of(app, &base);
    let in_range = entries
        .iter()
        .all(|&(lane, _)| (lane as usize) < before.len());
    match app.delta_patch(&base, entries) {
        None => assert!(!in_range, "an in-range frame was rejected: {entries:?}"),
        Some(next) => {
            assert!(in_range, "an out-of-range lane was accepted: {entries:?}");
            let mut want = before.clone();
            for &(lane, value) in entries {
                want[lane as usize] = value.to_bits();
            }
            assert_eq!(lanes_of(app, &next), want);
        }
    }
    assert_eq!(lanes_of(app, &base), before, "the base was modified");
}

proptest! {
    #[test]
    fn arbitrary_delta_entries_never_panic_any_app(
        raw in proptest::collection::vec((any::<u32>(), any::<u64>()), 0..12),
    ) {
        // Half the lanes folded into a small range so in-range frames,
        // off-by-one lanes and wild lanes all occur; values are arbitrary
        // bit patterns (NaN, ±inf, subnormals).
        let entries: Vec<(u32, f64)> = raw
            .iter()
            .map(|&(lane, bits)| {
                let lane = if lane & 1 == 0 { (lane >> 1) % 40 } else { lane };
                (lane, f64::from_bits(bits))
            })
            .collect();

        let ranges = partition_proportional(12, &[1.0, 1.0]);
        let nbody = NBodyApp::new(
            &uniform_cloud(12, 1),
            ranges.clone(),
            0,
            NBodyConfig::default(),
            SpeculationOrder::Linear,
        );
        patch_is_total(&nbody, &entries); // 6 particles × 6 lanes
        patch_is_total(
            &JacobiApp::new(LinearSystem::random(12, 3), &ranges, 0, JacobiConfig::default()),
            &entries,
        );
        patch_is_total(
            &PageRankApp::new(Graph::random(12, 3, 5), &ranges, 1, PageRankConfig::default()),
            &entries,
        );
        patch_is_total(
            &SyntheticApp::new(12, &ranges, 1, SyntheticConfig::default()),
            &entries,
        );
        patch_is_total(
            &Heat2dApp::new(12, 5, &ranges, 0, Heat2dConfig::default()),
            &entries,
        ); // 2 halo rows × 5 cells
    }
}
