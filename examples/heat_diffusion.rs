//! Speculative halo exchange on a 1-D Jacobi heat solver — the PDE member
//! of the paper's algorithm family (§2).
//!
//! ```text
//! cargo run --release --example heat_diffusion -- [cells] [p] [iters]
//! ```

use speculative_computation::prelude::*;

fn arg<T: std::str::FromStr>(n: usize, default: T) -> T {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let n: usize = arg(1, 400);
    let p: usize = arg(2, 8);
    let iters: u64 = arg(3, 400);

    let cluster = ClusterSpec::homogeneous(p, 0.5);
    let ranges: Vec<_> = (0..p).map(|i| i * n / p..(i + 1) * n / p).collect();

    println!("1-D heat diffusion: {n} cells over {p} strips, {iters} Jacobi sweeps\n");

    let run = |fw: u32| {
        let (outs, report) = run_sim_proc_cluster::<IterMsg<workloads::Halo>, _, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(2)),
            Unloaded,
            false,
            |mut t| {
                let mut app = HeatApp::new(n, &ranges, t.rank().0, HeatConfig::default());
                let cfg = if fw == 0 {
                    SpecConfig::baseline()
                } else {
                    SpecConfig::speculative(fw)
                };
                async move {
                    let stats = run_speculative_aio(&mut t, &mut app, iters, cfg).await;
                    (app.cells().to_vec(), stats)
                }
            },
        )
        .expect("simulation failed");
        let cells: Vec<f64> = outs.iter().flat_map(|(c, _)| c.iter().copied()).collect();
        let stats = ClusterStats::new(outs.into_iter().map(|(_, s)| s).collect());
        (cells, stats, report.end_time.as_secs_f64())
    };

    let (cells0, _, t0) = run(0);
    let (cells1, stats1, t1) = run(1);

    // The solutions agree wherever speculation was accepted within θ.
    let max_diff = cells0
        .iter()
        .zip(&cells1)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);

    println!("baseline:    {t0:.4} s");
    println!(
        "speculative: {t1:.4} s  ({:+.1}% — {} halo values speculated, {:.2}% rejected)",
        100.0 * (t0 / t1 - 1.0),
        stats1
            .per_rank
            .iter()
            .map(|r| r.speculated_partitions)
            .sum::<u64>(),
        100.0 * stats1.recomputation_fraction(),
    );
    println!("max |ΔT| between the two solutions: {max_diff:.2e}\n");

    // Render the final temperature profile.
    println!("final profile (hot end → cold end):");
    let buckets = 60;
    for row in 0..8 {
        let level = 1.0 - row as f64 / 8.0;
        let mut line = String::new();
        for b in 0..buckets {
            let idx = b * n / buckets;
            line.push(if cells1[idx] >= level - 0.125 {
                '█'
            } else {
                ' '
            });
        }
        println!("  |{line}|");
    }
}
