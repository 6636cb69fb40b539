//! Run the N-body cluster with telemetry enabled and export a
//! Chrome-trace JSON timeline — load it at `chrome://tracing` or
//! <https://ui.perfetto.dev> to see one track per rank, with phase spans
//! (compute/comm-wait/speculate/check/correct), message marks, and
//! queue-depth counters.
//!
//! ```text
//! cargo run --release --example trace_viewer -- --trace out.json
//! ```
//!
//! The output path defaults to `out.json`. An ASCII quick look of the
//! same trace is printed to the terminal.

use speculative_computation::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "out.json".to_string());

    // Four equal machines on a 5 ms network, 48 particles, 6 timesteps,
    // speculating one message ahead — the quickstart run, instrumented.
    let cluster = ClusterSpec::homogeneous(4, 1.0);
    let particles = centered_cloud(48, 7);
    let result = run_parallel(
        &particles,
        &cluster,
        ConstantLatency(SimDuration::from_millis(5)),
        Unloaded,
        ParallelRunConfig::new(6, 1).with_trace(),
    )
    .expect("n-body run failed");

    let traces = result
        .traces
        .as_deref()
        .expect("with_trace() collects telemetry");
    println!(
        "N-body cluster, 4 ranks, FW = 1, {:.3} virtual seconds:\n",
        result.elapsed_secs()
    );
    print!("{}", obs::timeline::render(traces, 78));

    println!("\nPer-rank phase totals (ns):");
    for trace in traces {
        let phases = trace.phase_totals();
        println!(
            "  rank {}: compute {:>12}  comm_wait {:>12}  speculate {:>10}  check {:>10}  correct {:>10}",
            trace.rank,
            phases.compute,
            phases.comm_wait,
            phases.speculate,
            phases.check,
            phases.correct,
        );
    }

    let json = chrome_trace_string(traces);
    std::fs::write(&path, &json).expect("writing trace file");
    println!(
        "\nwrote {path} ({} bytes) — open it at https://ui.perfetto.dev",
        json.len()
    );
}
