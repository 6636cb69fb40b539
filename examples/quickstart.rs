//! Quickstart: speculation masking communication delay on the §4 synthetic
//! workload.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Runs the same synchronous iterative computation twice on a simulated
//! 8-machine cluster with a slow network — once blocking on every message
//! (the paper's Figure 1) and once speculating (Figure 3) — and prints the
//! timing breakdown of each.

use speculative_computation::prelude::*;

fn main() {
    let p = 8;
    let n_vars = 800;
    let iterations = 20;

    // Heterogeneous machines: fastest is 4x the slowest.
    let cluster = ClusterSpec::linear_ramp(p, 40.0, 10.0);
    // Partition the variables proportionally to machine speed (eqs. 4–5).
    let ranges = nbody::partition_proportional(n_vars, &cluster.capacities());

    let run = |forward_window: u32| {
        let (stats, report) = run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(
            &cluster,
            // Slow enough that per-iteration communication rivals compute —
            // the regime the paper targets.
            SharedMedium::new(SimDuration::from_millis(1), 2e5),
            Unloaded,
            |mut t| {
                let mut app =
                    SyntheticApp::new(n_vars, &ranges, t.rank().0, SyntheticConfig::default());
                let cfg = if forward_window == 0 {
                    SpecConfig::baseline()
                } else {
                    SpecConfig::speculative(forward_window)
                };
                async move { run_speculative_aio(&mut t, &mut app, iterations, cfg).await }
            },
        )
        .expect("simulation failed");
        (ClusterStats::new(stats), report.end_time.as_secs_f64())
    };

    println!("synchronous iterative workload: {n_vars} variables, {p} machines, {iterations} iterations\n");

    let (base_stats, base_time) = run(0);
    let (spec_stats, spec_time) = run(1);

    let print_run = |label: &str, stats: &ClusterStats, time: f64| {
        let ph = stats.mean_per_iteration();
        println!("{label}:");
        println!("  total time          {time:.4} s");
        println!("  per-iteration mean  compute {:.4} s | waiting {:.4} s | speculate {:.5} s | check {:.5} s",
            ph.compute.as_secs_f64(),
            ph.comm_wait.as_secs_f64(),
            ph.speculate.as_secs_f64(),
            ph.check.as_secs_f64());
        println!(
            "  speculated partitions {} | misspeculated {} | k = {:.2}%\n",
            stats
                .per_rank
                .iter()
                .map(|r| r.speculated_partitions)
                .sum::<u64>(),
            stats
                .per_rank
                .iter()
                .map(|r| r.misspeculated_partitions)
                .sum::<u64>(),
            100.0 * stats.recomputation_fraction()
        );
    };

    print_run("no speculation (Figure 1)", &base_stats, base_time);
    print_run("speculative, FW = 1 (Figure 3)", &spec_stats, spec_time);

    println!(
        "speculation masked {:.1}% of the run time",
        100.0 * (1.0 - spec_time / base_time)
    );
}
