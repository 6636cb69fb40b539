//! The three extra workloads running through the full speculative driver
//! on the simulated cluster.

use speculative_computation::prelude::*;
use workloads::{heat_reference, pagerank_reference, synthetic_reference};

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
        false,
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
            false,
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
fn heat_full_driver_matches_reference_when_accepted() {
    let n = 120;
    let p = 4;
    let iters = 60;
    let ranges = even_ranges(n, p);
    let hcfg = HeatConfig::default();
    let cluster = ClusterSpec::homogeneous(p, 10.0);
    let (outs, _) = run_sim_proc_cluster::<IterMsg<workloads::Halo>, _, _, _>(
        &cluster,
        ConstantLatency(SimDuration::from_millis(1)),
        Unloaded,
        false,
        |mut t| {
            let mut app = HeatApp::new(n, &ranges, t.rank().0, hcfg);
            async move {
                let stats =
                    run_speculative_aio(&mut t, &mut app, iters, SpecConfig::speculative(1)).await;
                (app.cells().to_vec(), stats)
            }
        },
    )
    .unwrap();
    let got: Vec<f64> = outs.iter().flat_map(|(v, _)| v.iter().copied()).collect();
    let want = heat_reference(n, hcfg, iters);
    let max_diff = got
        .iter()
        .zip(&want)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_diff < 5e-3,
        "speculative heat drifted {max_diff} beyond the θ bound"
    );
    let spec: u64 = outs.iter().map(|(_, s)| s.speculated_partitions).sum();
    assert!(spec > 0);
}

#[test]
fn heat2d_full_driver_conserves_heat_and_stays_close() {
    let (rows, cols) = (24, 12);
    let p = 3;
    let iters = 40;
    let ranges = even_ranges(rows, p);
    let hcfg = Heat2dConfig::default();
    let cluster = ClusterSpec::homogeneous(p, 10.0);
    let (outs, _) = run_sim_proc_cluster::<IterMsg<RowHalo>, _, _, _>(
        &cluster,
        ConstantLatency(SimDuration::from_millis(1)),
        Unloaded,
        false,
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
        false,
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
        false,
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
            false,
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
        let ranges = even_ranges(200, p);
        let (_, report) = run_sim_proc_cluster::<IterMsg<workloads::Halo>, _, _, _>(
            &cluster,
            latency,
            Unloaded,
            false,
            |mut t| {
                let mut app = HeatApp::new(
                    200,
                    &ranges,
                    t.rank().0,
                    HeatConfig {
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
            },
        )
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
            false,
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
