//! Render the paper's Figure 2 as a live ASCII timeline: per-rank
//! execution bars with and without speculation, on the same slow network.
//!
//! The bars come from the `obs` telemetry subsystem: each rank's
//! transport carries a [`SharedRecorder`] clone, the speculative driver
//! emits typed phase spans into it, and [`obs::timeline::render`] draws
//! the drained trace.
//!
//! ```text
//! cargo run --release --example timeline
//! ```

use speculative_computation::prelude::*;

fn run(fw: u32) -> Vec<RunTrace> {
    let p = 2;
    let n_vars = 40;
    let iters = 3;
    let cluster = ClusterSpec::homogeneous(p, 0.01);
    let ranges: Vec<_> = (0..p)
        .map(|i| i * n_vars / p..(i + 1) * n_vars / p)
        .collect();
    let recorder = SharedRecorder::new();
    run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(
        &cluster,
        // A slow channel: delivery takes about as long as one compute phase.
        ConstantLatency(SimDuration::from_millis(12)),
        Unloaded,
        |mut t| {
            t.set_recorder(Box::new(recorder.clone()));
            let mut app = SyntheticApp::new(
                n_vars,
                &ranges,
                t.rank().0,
                SyntheticConfig {
                    f_comp: 6,
                    f_spec: 0,
                    f_check: 0,
                    theta: 0.9,
                    ..Default::default()
                },
            );
            let cfg = if fw == 0 {
                SpecConfig::baseline()
            } else {
                SpecConfig::speculative(fw)
            };
            async move { run_speculative_aio(&mut t, &mut app, iters, cfg).await }
        },
    )
    .expect("simulation failed");
    RunTrace::split_by_rank(recorder.drain())
}

fn main() {
    println!("The paper's Figure 2, reproduced as executable timelines.");
    println!("Two processors, three iterations, ~12 ms compute phases, 12 ms channel.\n");

    println!("(a) no speculation — each iteration waits for the channel:");
    print!("{}", obs::timeline::render(&run(0), 78));

    println!("\n(b) speculative computation, FW = 1 — communication masked:");
    print!("{}", obs::timeline::render(&run(1), 78));
}
