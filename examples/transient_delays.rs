//! The paper's Figure 4 scenario: a transient network stall masked by a
//! deeper forward window.
//!
//! ```text
//! cargo run --release --example transient_delays
//! ```
//!
//! One message on the P1→P2 path is delayed far beyond the norm. With no
//! speculation everybody stalls; FW = 1 masks one iteration's worth; FW = 2
//! keeps computing through the stall and catches up when the late message
//! finally lands.

use speculative_computation::prelude::*;

fn main() {
    let p = 3;
    let iters = 12;
    // Slow machines: one iteration's compute (~20 ms) is comparable to the
    // injected 60 ms stall, the regime of the paper's Figure 4.
    let cluster = ClusterSpec::homogeneous(p, 0.01);

    println!("Figure 4 scenario: 3 processors, 1 ms network, one 60 ms transient on P1->P2\n");
    println!(" FW | total time | comm wait/iter (P2) | note");
    println!("----+------------+---------------------+---------------------------");

    let mut times = Vec::new();
    for fw in 0..=2u32 {
        let net = ScriptedDelays::new(
            ConstantLatency(SimDuration::from_millis(1)),
            // The 4th message from rank 0 to rank 1 crawls.
            vec![(0, 1, 3, SimDuration::from_millis(60))],
        );
        let (stats, report) =
            run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(&cluster, net, Unloaded, |mut t| {
                let ranges: Vec<_> = (0..3).map(|i| i * 30..(i + 1) * 30).collect();
                // ~270 ops/iteration ⇒ ~27 ms of compute on these 0.01-MIPS
                // machines, so the 60 ms stall spans about two iterations.
                let mut app = SyntheticApp::new(
                    90,
                    &ranges,
                    t.rank().0,
                    SyntheticConfig {
                        f_comp: 6,
                        f_spec: 0,
                        f_check: 0,
                        theta: 0.5,
                        ..Default::default()
                    },
                );
                let cfg = if fw == 0 {
                    SpecConfig::baseline()
                } else {
                    SpecConfig::speculative(fw)
                };
                async move { run_speculative_aio(&mut t, &mut app, iters, cfg).await }
            })
            .expect("simulation failed");
        let p2_wait = stats[1].per_iteration().comm_wait.as_secs_f64();
        let total = report.end_time.as_secs_f64();
        let note = match fw {
            0 => "everyone stalls behind the late message",
            1 => "one iteration speculated through the stall",
            _ => "stall fully absorbed by the deeper window",
        };
        println!("  {fw} | {total:>8.4} s | {p2_wait:>17.4} s | {note}");
        times.push(total);
    }

    println!(
        "\nFW=1 recovered {:.1}% of the baseline, FW=2 {:.1}% (cf. paper Fig. 4: deeper windows\nhelp exactly when delays are transient and larger than one compute phase)",
        100.0 * (1.0 - times[1] / times[0]),
        100.0 * (1.0 - times[2] / times[0]),
    );
}
