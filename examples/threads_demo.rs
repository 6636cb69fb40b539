//! The same speculative algorithm on **real OS threads** — the live
//! channel-based port of the paper's PVM setting.
//!
//! ```text
//! cargo run --release --example threads_demo
//! ```
//!
//! Runs the synthetic workload on 4 threads whose mailboxes inject a real
//! 3 ms latency per message, first blocking (Figure 1), then speculating
//! (Figure 3). Wall-clock timings on a shared host are noisy; the point of
//! this demo is that the identical application and driver code runs on real
//! concurrency, not just in virtual time.

use std::time::Instant;

use speculative_computation::prelude::*;

fn main() {
    let p = 4;
    let n_vars = 64;
    let iterations = 30;

    let opts = ThreadClusterOptions {
        latency: std::time::Duration::from_millis(3),
        mips: 2.0, // compute(ops) sleeps ops / 2e6 seconds
    };

    let run = |fw: u32| {
        let opts = opts.clone();
        let started = Instant::now();
        let stats = run_thread_cluster::<IterMsg<Vec<f64>>, _, _>(p, opts, move |t| {
            let ranges: Vec<_> = (0..p)
                .map(|i| i * n_vars / p..(i + 1) * n_vars / p)
                .collect();
            let mut app = SyntheticApp::new(
                n_vars,
                &ranges,
                t.rank().0,
                SyntheticConfig {
                    f_comp: 300,
                    f_spec: 2,
                    f_check: 2,
                    theta: 0.05,
                    ..Default::default()
                },
            );
            let cfg = if fw == 0 {
                SpecConfig::baseline()
            } else {
                SpecConfig::speculative(fw)
            };
            poll_ready(run_speculative_aio(t, &mut app, iterations, cfg))
        });
        (started.elapsed(), ClusterStats::new(stats))
    };

    println!("{p} OS threads, {iterations} iterations, 3 ms injected message latency\n");

    let (t0, s0) = run(0);
    println!(
        "FW = 0: {:>8.1?} wall  (mean waiting/iter {:.2} ms)",
        t0,
        1e3 * s0.mean_per_iteration().comm_wait.as_secs_f64()
    );

    let (t1, s1) = run(1);
    println!(
        "FW = 1: {:>8.1?} wall  (mean waiting/iter {:.2} ms, {} speculations, {:.1}% rejected)",
        t1,
        1e3 * s1.mean_per_iteration().comm_wait.as_secs_f64(),
        s1.per_rank
            .iter()
            .map(|r| r.speculated_partitions)
            .sum::<u64>(),
        100.0 * s1.recomputation_fraction(),
    );

    if t1 < t0 {
        println!(
            "\nspeculation saved {:.0}% of wall-clock time on real threads",
            100.0 * (1.0 - t1.as_secs_f64() / t0.as_secs_f64())
        );
    } else {
        println!("\n(no wall-clock win this run — host scheduling noise; the virtual-time\n harness in `spec-bench` gives the controlled comparison)");
    }
}
