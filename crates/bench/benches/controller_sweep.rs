//! Print the controller-vs-fixed-grid table of EXPERIMENTS.md: the
//! adaptive speculation controller on a heterogeneous-delay cluster
//! against an offline grid search over fixed `(θ, FW)` points. The
//! scenario is `spec_bench::experiments::controller_sweep`; every number
//! is a deterministic virtual-time makespan, and
//! `tests/experiment_shapes.rs` holds the controller within 1.05× of the
//! best fixed point.

use spec_bench::experiments::{controller_sweep, CONTROLLER_SWEEP_LATENCY_US};

fn main() {
    let sweep = controller_sweep();
    println!(
        "controller vs fixed (θ, FW) grid, heterogeneous delays {CONTROLLER_SWEEP_LATENCY_US:?} µs:"
    );
    println!("{:>8} {:>4} {:>14}", "theta", "fw", "makespan ms");
    for &(theta, fw, ns) in &sweep.grid {
        println!("{:>8} {:>4} {:>14.3}", theta, fw, ns as f64 / 1e6);
    }
    println!(
        "{:>8} {:>4} {:>14.3}  (controller: fw {} theta {} after {} retunes)",
        "adapt",
        "-",
        sweep.adaptive_ns as f64 / 1e6,
        sweep.adaptive_fw,
        sweep.adaptive_theta,
        sweep.adaptive_retunes
    );
    println!(
        "best fixed {:.3} ms, adaptive {:.3} ms, ratio {:.3}",
        sweep.best_fixed_ns() as f64 / 1e6,
        sweep.adaptive_ns as f64 / 1e6,
        sweep.ratio()
    );
}
