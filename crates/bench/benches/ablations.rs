//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. backward window (BW) size vs speculation accuracy — the §3.2
//!    accuracy/complexity trade-off;
//! 2. speculation function order (hold / eq.10 linear / quadratic) — the
//!    "higher order derivatives" variant §5 leaves unstudied;
//! 3. forward window sweep (FW 0–4) — §3.2's masking-depth trade-off;
//! 4. fixed windows vs the adaptive controller under transient-heavy
//!    networks — the future-work extension;
//! 5. incremental correction vs full recomputation — §3.1's "corrected or
//!    recomputed" choice.

use desim::rng::derive_seed;
use nbody::{centered_cloud, run_parallel, ParallelRunConfig, SpeculationOrder};
use netsim::{ClusterSpec, Unloaded};
use spec_bench::experiments::{experiment_nbody_config, testbed_network};
use spec_bench::Scale;
use speccore::{ControllerConfig, CorrectionMode, SpecConfig};

fn scale() -> Scale {
    match std::env::var("SPEC_BENCH_SCALE").as_deref() {
        Ok("quick") => Scale::quick(),
        _ => Scale {
            n_particles: 500,
            iterations: 8,
            p_values: vec![8],
            seed: 42,
        },
    }
}

fn run(scale: &Scale, cfg: ParallelRunConfig, stream: u64) -> nbody::ParallelRunResult {
    let cluster = ClusterSpec::paper_testbed().fastest(8);
    let particles = centered_cloud(scale.n_particles, scale.seed);
    run_parallel(
        &particles,
        &cluster,
        testbed_network(derive_seed(scale.seed, stream), scale.n_particles),
        Unloaded,
        cfg,
    )
    .expect("ablation run failed")
}

fn main() {
    let scale = scale();
    println!(
        "# Ablations (N = {}, p = 8, {} iterations)\n",
        scale.n_particles, scale.iterations
    );

    // ------------------------------------------------------------------
    println!("## 1. Backward window (quadratic speculation needs history)");
    println!("BW | rejected % | max accepted err");
    for bw in 1..=4usize {
        let mut cfg = ParallelRunConfig::new(scale.iterations, 1);
        cfg.nbody = experiment_nbody_config();
        cfg.order = SpeculationOrder::Quadratic;
        cfg.spec = SpecConfig::speculative(1).with_backward_window(bw);
        let r = run(&scale, cfg, 10 + bw as u64);
        println!(
            " {bw} | {:>9.2} | {:.2e}",
            100.0 * r.stats.recomputation_fraction(),
            r.stats.max_accepted_error()
        );
    }

    // ------------------------------------------------------------------
    println!("\n## 2. Speculation function (the paper uses eq. 10 = linear)");
    println!("order     | rejected % | time (s)");
    for (name, order) in [
        ("hold", SpeculationOrder::Hold),
        ("linear", SpeculationOrder::Linear),
        ("quadratic", SpeculationOrder::Quadratic),
    ] {
        let mut cfg = ParallelRunConfig::new(scale.iterations, 1);
        cfg.nbody = experiment_nbody_config();
        cfg.order = order;
        let r = run(&scale, cfg, 20);
        println!(
            "{name:<9} | {:>9.2} | {:.4}",
            100.0 * r.stats.recomputation_fraction(),
            r.elapsed_secs()
        );
    }

    // ------------------------------------------------------------------
    println!("\n## 3. Forward window sweep");
    println!("FW | time (s) | rollbacks | max depth used");
    for fw in 0..=4u32 {
        let mut cfg = ParallelRunConfig::new(scale.iterations, fw);
        cfg.nbody = experiment_nbody_config();
        let r = run(&scale, cfg, 30);
        println!(
            " {fw} | {:>7.4} | {:>9} | {}",
            r.elapsed_secs(),
            r.stats.total_rollbacks(),
            r.stats
                .per_rank
                .iter()
                .map(|x| x.max_depth_used)
                .max()
                .unwrap_or(0)
        );
    }

    // ------------------------------------------------------------------
    println!("\n## 4. Fixed window vs the controller (fw_max 3, warmup 2, period 2)");
    println!("policy          | time (s) | max depth used");
    let ctl = ControllerConfig::new().with_fw_max(3).with_cadence(2, 2);
    for (name, spec) in [
        ("fixed(1)", SpecConfig::speculative(1)),
        ("fixed(3)", SpecConfig::speculative(3)),
        (
            "controller(1→)",
            SpecConfig::speculative(1).with_adaptive(ctl.clone()),
        ),
        (
            "controller(3→)",
            SpecConfig::speculative(3).with_adaptive(ctl.clone()),
        ),
    ] {
        let mut cfg = ParallelRunConfig::new(scale.iterations, 1);
        cfg.nbody = experiment_nbody_config();
        cfg.spec = spec;
        let r = run(&scale, cfg, 40);
        println!(
            "{name:<15} | {:>7.4} | {}",
            r.elapsed_secs(),
            r.stats
                .per_rank
                .iter()
                .map(|x| x.max_depth_used)
                .max()
                .unwrap_or(0)
        );
    }

    // ------------------------------------------------------------------
    println!("\n## 5. Correction strategy ('corrected or recomputed', §3.1)");
    println!("strategy    | time (s) | corrections | rollbacks");
    for (name, mode) in [
        ("incremental", CorrectionMode::Incremental),
        ("recompute", CorrectionMode::Recompute),
    ] {
        let mut cfg = ParallelRunConfig::new(scale.iterations, 1);
        cfg.nbody = experiment_nbody_config().with_theta(0.003); // force misses
        cfg.spec = SpecConfig::speculative(1).with_correction(mode);
        let r = run(&scale, cfg, 50);
        println!(
            "{name:<11} | {:>7.4} | {:>11} | {}",
            r.elapsed_secs(),
            r.stats.per_rank.iter().map(|x| x.corrections).sum::<u64>(),
            r.stats.total_rollbacks()
        );
    }
}
