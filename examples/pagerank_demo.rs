//! Speculative PageRank: power iteration with speculated peer scores.
//!
//! ```text
//! cargo run --release --example pagerank_demo -- [nodes] [p] [iters]
//! ```
//!
//! Once the iteration starts converging, scores change slowly and linear
//! extrapolation predicts them almost perfectly — speculation then masks
//! nearly all communication and the misspeculation rate decays to zero.

use speculative_computation::prelude::*;

fn arg<T: std::str::FromStr>(n: usize, default: T) -> T {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let n: usize = arg(1, 500);
    let p: usize = arg(2, 8);
    let iters: u64 = arg(3, 40);

    let graph = Graph::random(n, 6, 99);
    let cluster = ClusterSpec::homogeneous(p, 1.0);
    let ranges: Vec<_> = (0..p).map(|i| i * n / p..(i + 1) * n / p).collect();

    println!("PageRank: {n} nodes (out-degree 6) over {p} ranks, {iters} power iterations\n");

    let run = |fw: u32| {
        let (outs, report) = run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(25)),
            Unloaded,
            |mut t| {
                // θ = 0.05: tight enough to bound the rank error, loose
                // enough that the early power-iteration transient (where
                // scores still move fast) does not drown the run in
                // corrections.
                let mut app = PageRankApp::new(
                    graph.clone(),
                    &ranges,
                    t.rank().0,
                    PageRankConfig {
                        theta: 0.05,
                        ..Default::default()
                    },
                );
                let cfg = if fw == 0 {
                    SpecConfig::baseline()
                } else {
                    SpecConfig::speculative(fw)
                };
                async move {
                    let stats = run_speculative_aio(&mut t, &mut app, iters, cfg).await;
                    (app.scores().to_vec(), stats)
                }
            },
        )
        .expect("simulation failed");
        let scores: Vec<f64> = outs.iter().flat_map(|(s, _)| s.iter().copied()).collect();
        let stats = ClusterStats::new(outs.into_iter().map(|(_, s)| s).collect());
        (scores, stats, report.end_time.as_secs_f64())
    };

    let (scores0, _, t0) = run(0);
    let (scores1, stats1, t1) = run(1);

    let reference = workloads::pagerank_reference(&graph, PageRankConfig::default(), iters);
    let err_base: f64 = scores0
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a - b).abs())
        .sum();
    let err_spec: f64 = scores1
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a - b).abs())
        .sum();

    println!("baseline:    {t0:.4} s   L1 error vs sequential reference {err_base:.2e}");
    println!(
        "speculative: {t1:.4} s   L1 error vs sequential reference {err_spec:.2e}  ({:+.1}%)",
        100.0 * (t0 / t1 - 1.0)
    );
    println!(
        "speculated {} score vectors, {:.2}% of scores rejected (θ = {})",
        stats1
            .per_rank
            .iter()
            .map(|r| r.speculated_partitions)
            .sum::<u64>(),
        100.0 * stats1.recomputation_fraction(),
        0.05,
    );

    // Show the top nodes; both runs should agree.
    let mut top: Vec<(usize, f64)> = scores1.iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\ntop 5 nodes by rank:");
    for (node, score) in top.iter().take(5) {
        println!("  node {node:>4}: {score:.5}");
    }
}
