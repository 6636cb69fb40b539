//! The four workloads of the `workloads` crate running through the full
//! speculative driver on the simulated cluster.

use speculative_computation::prelude::*;
use workloads::{pagerank_reference, synthetic_reference};

fn even_ranges(n: usize, p: usize) -> Vec<std::ops::Range<usize>> {
    (0..p).map(|i| i * n / p..(i + 1) * n / p).collect()
}

#[test]
fn synthetic_theta_zero_recompute_is_exact() {
    let n = 48;
    let p = 4;
    let iters = 10;
    let ranges = even_ranges(n, p);
    let scfg = SyntheticConfig {
        theta: 0.0,
        jump_prob: 0.05,
        ..Default::default()
    };
    let cluster = ClusterSpec::homogeneous(p, 100.0);
    let (outs, _) = run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(
        &cluster,
        ConstantLatency(SimDuration::from_millis(2)),
        Unloaded,
        |mut t| {
            let mut app = SyntheticApp::new(n, &ranges, t.rank().0, scfg);
            let cfg = SpecConfig::speculative(1).with_correction(CorrectionMode::Recompute);
            async move {
                let stats = run_speculative_aio(&mut t, &mut app, iters, cfg).await;
                (app.values().to_vec(), stats)
            }
        },
    )
    .unwrap();
    let got: Vec<f64> = outs.iter().flat_map(|(v, _)| v.iter().copied()).collect();
    let want = synthetic_reference(n, &ranges, scfg, iters);
    assert_eq!(
        got, want,
        "θ=0 + recompute must match the sequential reference exactly"
    );
    // Jumps must actually break speculation for this to be meaningful.
    let rollbacks: u64 = outs.iter().map(|(_, s)| s.rollbacks).sum();
    assert!(rollbacks > 0, "jump process never broke a speculation");
}

#[test]
fn synthetic_jump_rate_drives_measured_k() {
    // The whole point of the synthetic workload: jump_prob is a dial for
    // the model's k. Measured k should track it.
    let n = 60;
    let p = 3;
    let iters = 30;
    let ranges = even_ranges(n, p);
    let cluster = ClusterSpec::homogeneous(p, 100.0);
    let measure = |jump_prob: f64| {
        let scfg = SyntheticConfig {
            theta: 1e-6,
            jump_prob,
            ..Default::default()
        };
        let (outs, _) = run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(2)),
            Unloaded,
            |mut t| {
                let mut app = SyntheticApp::new(n, &ranges, t.rank().0, scfg);
                async move {
                    run_speculative_aio(&mut t, &mut app, iters, SpecConfig::speculative(1)).await
                }
            },
        )
        .unwrap();
        ClusterStats::new(outs).recomputation_fraction()
    };
    let low = measure(0.01);
    let high = measure(0.2);
    assert!(
        high > low,
        "higher jump rate must produce higher k ({low} vs {high})"
    );
    assert!(
        high > 0.1,
        "20% jumps should reject >10% of units, got {high}"
    );
}

#[test]
fn heat2d_full_driver_conserves_heat_and_stays_close() {
    let (rows, cols) = (24, 12);
    let p = 3;
    let iters = 40;
    let ranges = even_ranges(rows, p);
    let hcfg = Heat2dConfig::default();
    let cluster = ClusterSpec::homogeneous(p, 10.0);
    let (outs, _) = run_sim_proc_cluster::<IterMsg<_>, _, _, _>(
        &cluster,
        ConstantLatency(SimDuration::from_millis(1)),
        Unloaded,
        |mut t| {
            let mut app = Heat2dApp::new(rows, cols, &ranges, t.rank().0, hcfg);
            async move {
                let stats =
                    run_speculative_aio(&mut t, &mut app, iters, SpecConfig::speculative(1)).await;
                (app.cells().to_vec(), stats)
            }
        },
    )
    .unwrap();
    let got: Vec<f64> = outs.iter().flat_map(|(v, _)| v.iter().copied()).collect();
    let want = workloads::heat2d_reference(rows, cols, hcfg, iters);
    // Insulated walls: heat conserved up to accepted speculation error.
    let total_got: f64 = got.iter().sum();
    let total_want: f64 = want.iter().sum();
    assert!((total_got - total_want).abs() / total_want < 0.01);
    let max_diff = got
        .iter()
        .zip(&want)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_diff < 5e-3,
        "2-D heat drifted {max_diff} beyond the θ bound"
    );
    assert!(
        outs.iter()
            .map(|(_, s)| s.speculated_partitions)
            .sum::<u64>()
            > 0
    );
}

#[test]
fn pagerank_full_driver_stays_normalized() {
    let n = 80;
    let p = 4;
    let iters = 25;
    let graph = Graph::random(n, 5, 17);
    let ranges = even_ranges(n, p);
    let cluster = ClusterSpec::homogeneous(p, 10.0);
    let (outs, _) = run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(
        &cluster,
        ConstantLatency(SimDuration::from_millis(1)),
        Unloaded,
        |mut t| {
            let mut app = PageRankApp::new(
                graph.clone(),
                &ranges,
                t.rank().0,
                PageRankConfig {
                    theta: 0.02,
                    ..Default::default()
                },
            );
            async move {
                let stats =
                    run_speculative_aio(&mut t, &mut app, iters, SpecConfig::speculative(1)).await;
                (app.scores().to_vec(), stats)
            }
        },
    )
    .unwrap();
    let got: Vec<f64> = outs.iter().flat_map(|(v, _)| v.iter().copied()).collect();
    let total: f64 = got.iter().sum();
    assert!((total - 1.0).abs() < 0.05, "rank mass drifted to {total}");
    let want = pagerank_reference(&graph, PageRankConfig::default(), iters);
    let l1: f64 = got.iter().zip(&want).map(|(a, b)| (a - b).abs()).sum();
    assert!(l1 < 0.1, "speculative pagerank L1 error {l1} too large");
}

#[test]
fn jacobi_full_driver_solves_the_system() {
    let n = 32;
    let p = 4;
    let iters = 60;
    let sys = LinearSystem::random(n, 13);
    let ranges = even_ranges(n, p);
    let cluster = ClusterSpec::homogeneous(p, 10.0);
    let (outs, _) = run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(
        &cluster,
        ConstantLatency(SimDuration::from_millis(1)),
        Unloaded,
        |mut t| {
            let mut app = JacobiApp::new(sys.clone(), &ranges, t.rank().0, JacobiConfig::default());
            async move {
                let stats =
                    run_speculative_aio(&mut t, &mut app, iters, SpecConfig::speculative(1)).await;
                (app.values().to_vec(), stats)
            }
        },
    )
    .unwrap();
    let x: Vec<f64> = outs.iter().flat_map(|(v, _)| v.iter().copied()).collect();
    // The speculative solve must still converge to the true solution:
    // accepted θ-bounded errors vanish as the iterate stabilizes.
    let res = sys.residual(&x);
    assert!(res < 1e-6, "speculative Jacobi residual {res}");
    assert!(
        outs.iter()
            .map(|(_, s)| s.speculated_partitions)
            .sum::<u64>()
            > 0
    );
}

#[test]
fn all_workloads_benefit_from_speculation_when_comm_bound() {
    // One latency-dominated setting, three applications: speculation must
    // shorten every one of them.
    let p = 4;
    let cluster = ClusterSpec::homogeneous(p, 0.1);
    let latency = ConstantLatency(SimDuration::from_millis(40));

    // Synthetic.
    let synth = |fw: u32| {
        let ranges = even_ranges(40, p);
        let (_, report) = run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(
            &cluster,
            latency,
            Unloaded,
            |mut t| {
                let mut app = SyntheticApp::new(
                    40,
                    &ranges,
                    t.rank().0,
                    SyntheticConfig {
                        f_comp: 300,
                        f_spec: 1,
                        f_check: 1,
                        theta: 0.5,
                        ..Default::default()
                    },
                );
                let cfg = if fw == 0 {
                    SpecConfig::baseline()
                } else {
                    SpecConfig::speculative(fw)
                };
                async move { run_speculative_aio(&mut t, &mut app, 10, cfg).await }
            },
        )
        .unwrap();
        report.end_time.as_secs_f64()
    };
    assert!(synth(1) < synth(0), "synthetic workload failed to benefit");

    // Heat.
    let heat = |fw: u32| {
        let ranges = even_ranges(8, p);
        let (_, report) =
            run_sim_proc_cluster::<IterMsg<_>, _, _, _>(&cluster, latency, Unloaded, |mut t| {
                let mut app = Heat2dApp::new(
                    8,
                    25,
                    &ranges,
                    t.rank().0,
                    Heat2dConfig {
                        ops_per_cell: 500,
                        theta: 0.5,
                        ..Default::default()
                    },
                );
                let cfg = if fw == 0 {
                    SpecConfig::baseline()
                } else {
                    SpecConfig::speculative(fw)
                };
                async move { run_speculative_aio(&mut t, &mut app, 10, cfg).await }
            })
            .unwrap();
        report.end_time.as_secs_f64()
    };
    assert!(heat(1) < heat(0), "heat workload failed to benefit");

    // PageRank.
    let pr = |fw: u32| {
        let graph = Graph::random(60, 4, 3);
        let ranges = even_ranges(60, p);
        let (_, report) = run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(
            &cluster,
            latency,
            Unloaded,
            |mut t| {
                let mut app = PageRankApp::new(
                    graph.clone(),
                    &ranges,
                    t.rank().0,
                    PageRankConfig {
                        theta: 0.5,
                        ..Default::default()
                    },
                );
                let cfg = if fw == 0 {
                    SpecConfig::baseline()
                } else {
                    SpecConfig::speculative(fw)
                };
                async move { run_speculative_aio(&mut t, &mut app, 10, cfg).await }
            },
        )
        .unwrap();
        report.end_time.as_secs_f64()
    };
    assert!(pr(1) < pr(0), "pagerank workload failed to benefit");
}

/// A 64 × 64 heat-2d grid on the paper testbed (p = 16, θ = 0.01) run
/// for 30 iterations: per-rank fingerprints and driver statistics, and
/// the virtual end time.
fn heat2d16_run(
    net: impl NetworkModel + 'static,
    cfg: SpecConfig,
) -> (Vec<u64>, Vec<RunStats>, SimTime) {
    let (rows, cols) = (64, 64);
    let cluster = ClusterSpec::paper_testbed();
    let ranges = even_ranges(rows, cluster.len());
    let (outs, report) =
        run_sim_proc_cluster::<IterMsg<_>, _, _, _>(&cluster, net, Unloaded, |mut t| {
            let mut app = Heat2dApp::new(rows, cols, &ranges, t.rank().0, Heat2dConfig::default());
            let cfg = cfg.clone();
            async move {
                let stats = run_speculative_aio(&mut t, &mut app, 30, cfg).await;
                (app.fingerprint(), stats)
            }
        })
        .unwrap();
    let (fingerprints, stats) = outs.into_iter().unzip();
    (fingerprints, stats, report.end_time)
}

/// [`heat2d16_run`]'s fingerprints on the testbed's jittered network, with
/// the number of rollbacks.
fn heat2d16_fingerprints(fw: u32, correction: CorrectionMode) -> (Vec<u64>, u64) {
    let cfg = SpecConfig::speculative(fw).with_correction(correction);
    let (fingerprints, stats, _) =
        heat2d16_run(spec_bench::experiments::testbed_network(42, 64), cfg);
    (fingerprints, stats.iter().map(|s| s.rollbacks).sum())
}

/// The speculative outputs are pinned bit for bit, not just held within
/// θ: a change to how speculation is computed (the speculator, the halo
/// type, the history) must reproduce every rank's state exactly.
#[test]
fn heat2d16_speculative_outputs_are_pinned() {
    #[rustfmt::skip]
    let cases: [(u32, CorrectionMode, [u64; 16]); 4] = [
        (1, CorrectionMode::Incremental, [
            0xce6fc6526ae5bc71, 0x59224aa7e622c194, 0x8558fafa0e404063, 0xa7d3dacb69e4a603,
            0xeb2bf4c04057a784, 0xf357660b1e7171b5, 0x4ffa8c5e7525b20e, 0x0809ecfe7b760daf,
            0xdb6181375c3f66d1, 0x18a68e652fd44844, 0xa64efd9dcd6c35de, 0xc2502862c876aee1,
            0x0d2afef297d86f79, 0x57343e9a8c17b071, 0x26c21747c441aa85, 0xe6ef6d68d48323ff,
        ]),
        (1, CorrectionMode::Recompute, [
            0x63d87e518a08c01e, 0xc5c183a62259b4e7, 0x7f9ac2188a029cdf, 0x6dff0719a1893c85,
            0x82e592ac57b3b7ab, 0xdde1dbed7945bd9f, 0x3f150c256b20626c, 0xa5ce195d40e3fdab,
            0xf74c6827c67d4383, 0xcefdaa8ad565c0a3, 0xf2db7f23a0bc1a95, 0x4f1c402072cac67c,
            0x17e6664808d5567f, 0x13c59a44220c5668, 0xe7bc4f8e02536c3d, 0xa887f4358e6912df,
        ]),
        (2, CorrectionMode::Incremental, [
            0x31f252e2608b2f45, 0xe4c1ba94ea503ffe, 0xd671400f6f865075, 0xd8cde75afa61a6c6,
            0xd14b75849d3ad2c3, 0x9b44c64088d967f5, 0xef086d25947356b9, 0x04723ee9a954a89e,
            0xc431c342793ff6ba, 0x31395afbed1e075e, 0x30dcfc25bff9bd16, 0x6411c226893104d8,
            0xd32caa3599dc840c, 0x8bad315b54690dbe, 0x749d5741dc14e85e, 0xdb3008a3e58607df,
        ]),
        (2, CorrectionMode::Recompute, [
            0x31f252e2608b2f45, 0x01357bd954a193cc, 0x20ecb00e205720c1, 0x217c56cfa5da640f,
            0x6af2ec44364ec90f, 0x527982cd239d53db, 0xe038132f21827d30, 0xc8c3a93b85231cc1,
            0xc3d166122f4929d1, 0xcbb738e66dd3aeb7, 0x96875249d7c2a0b2, 0x5431a9032ff5e9e9,
            0x1d1c7dd5058d6466, 0xfbd61c24a337f945, 0x2f439f6fbc2911ab, 0xd589140b6cc7542b,
        ]),
    ];
    for (fw, correction, want) in cases {
        let (got, rollbacks) = heat2d16_fingerprints(fw, correction);
        assert_eq!(
            got, want,
            "heat-2d FW={fw} {correction:?} fingerprints moved"
        );
        if correction == CorrectionMode::Recompute || fw > 1 {
            assert!(rollbacks > 0, "FW={fw} {correction:?} never rolled back");
        }
    }
}

/// Heat-2d's halo rows are its delta lanes: on a FIFO network, lossless
/// delta exchange (floor 0) is bit-identical to full broadcast, in every
/// rank's state and in the virtual schedule, and sends fewer bytes.
#[test]
fn heat2d16_lossless_delta_matches_full_broadcast() {
    let net = || ConstantLatency(SimDuration::from_millis(2));
    for fw in [1, 2] {
        let (full, full_stats, full_end) = heat2d16_run(net(), SpecConfig::speculative(fw));
        let cfg = SpecConfig::speculative(fw).with_delta_exchange(DeltaExchange::new(0.0, 8));
        let (delta, delta_stats, delta_end) = heat2d16_run(net(), cfg);
        assert_eq!(full, delta, "FW={fw} fingerprints");
        assert_eq!(full_end, delta_end, "FW={fw} virtual end time");
        assert!(delta_stats.iter().all(|s| s.delta_frames_dropped == 0));
        let bytes = |stats: &[RunStats]| stats.iter().map(|s| s.bytes_sent).sum::<u64>();
        assert!(
            bytes(&delta_stats) < bytes(&full_stats),
            "FW={fw}: delta sent {} bytes, full broadcast {}",
            bytes(&delta_stats),
            bytes(&full_stats)
        );
    }
}

/// Jacobi and PageRank, the other two apps on the default `speculate`,
/// pinned the same way (the settings of the full-driver tests above).
#[test]
fn jacobi_and_pagerank_speculative_outputs_are_pinned() {
    let p = 4;
    let cluster = ClusterSpec::homogeneous(p, 10.0);
    let latency = ConstantLatency(SimDuration::from_millis(1));

    let sys = LinearSystem::random(32, 13);
    let ranges = even_ranges(32, p);
    let (jacobi, _) =
        run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(&cluster, latency, Unloaded, |mut t| {
            let mut app = JacobiApp::new(sys.clone(), &ranges, t.rank().0, JacobiConfig::default());
            async move {
                run_speculative_aio(&mut t, &mut app, 60, SpecConfig::speculative(1)).await;
                fingerprint_f64s(app.values())
            }
        })
        .unwrap();

    let graph = Graph::random(80, 5, 17);
    let ranges = even_ranges(80, p);
    let pcfg = PageRankConfig {
        theta: 0.02,
        ..Default::default()
    };
    let (pagerank, _) =
        run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(&cluster, latency, Unloaded, |mut t| {
            let mut app = PageRankApp::new(graph.clone(), &ranges, t.rank().0, pcfg);
            async move {
                run_speculative_aio(&mut t, &mut app, 25, SpecConfig::speculative(1)).await;
                fingerprint_f64s(app.scores())
            }
        })
        .unwrap();
    assert_eq!(
        jacobi,
        [
            0x3156cd5ae0d4508b,
            0x4a269e34e6659e78,
            0xa5714c995f66dcfb,
            0x204b3e2b13748c4c
        ],
        "Jacobi fingerprints moved"
    );
    assert_eq!(
        pagerank,
        [
            0x4e73c3e98938ee67,
            0x9acf3d1d87fe21a5,
            0x67775bb50006e8ec,
            0xfa56b0dc62fc084f
        ],
        "PageRank fingerprints moved"
    );
}
