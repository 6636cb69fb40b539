//! The one text renderer: every experiment printed as the paper's
//! table/figure, with the paper's reported values ([`crate::paper`])
//! alongside for comparison.

use crate::experiments::{
    worst_model_error_pct, Ablations, ControllerSweep, Fig8Row, Fig9Row, Report, Table2Row,
    Table3Row, ABLATION_ITERATIONS, ABLATION_N, ABLATION_P, CONTROLLER_SWEEP_LATENCY_US,
    ITERATIONS, N_PARTICLES, P_MAX, SEED,
};
use crate::paper;
use perfmodel::{Fig5Row, Fig6Row};

/// The whole report as the `experiments` binary prints it and
/// `tests/golden/experiments.txt` pins it: a header, then one section per
/// table, separated by blank lines.
pub fn report(r: &Report) -> String {
    let header = format!(
        "# Speculative Computation — experiment harness (N = {N_PARTICLES}, iters = {ITERATIONS}, seed = {SEED})\n"
    );
    [
        header,
        fig5(&r.fig5),
        fig6(&r.fig6),
        fig8(&r.fig8),
        fig9(&r.fig9),
        table2(&r.table2),
        table3(&r.table3),
        ablations(&r.ablations),
        controller(&r.controller),
    ]
    .join("\n")
}

fn fig5(rows: &[Fig5Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 5 — model speedup vs processors (k = 2%)\n");
    out.push_str("  p | no-spec |    spec | maximum\n");
    out.push_str("----+---------+---------+--------\n");
    for r in rows {
        out.push_str(&format!(
            "{:>3} | {:>7.2} | {:>7.2} | {:>7.2}\n",
            r.p, r.no_spec, r.spec, r.max
        ));
    }
    let last = rows.last().expect("non-empty");
    out.push_str(&format!(
        "gain at p={}: {:+.1}%   (paper: up to ~{}% at 16)\n",
        last.p,
        100.0 * (last.spec / last.no_spec - 1.0),
        paper::FIG5_GAIN_AT_16_PCT
    ));
    out
}

fn fig6(rows: &[Fig6Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 6 — model speedup on 8 processors vs recomputation %\n");
    out.push_str("   k%  |    spec | no-spec\n");
    out.push_str("-------+---------+--------\n");
    for r in rows {
        out.push_str(&format!(
            "{:>5.1} | {:>7.2} | {:>7.2}\n",
            100.0 * r.k,
            r.spec,
            r.no_spec
        ));
    }
    match rows.iter().find(|r| r.spec < r.no_spec) {
        Some(r) => out.push_str(&format!(
            "crossover at k ≈ {:.0}%   (paper: speculation wins for errors < {}%)\n",
            100.0 * r.k,
            paper::FIG6_WINS_BELOW_K_PCT
        )),
        None => out.push_str("no crossover within the sweep\n"),
    }
    out
}

fn fig8(rows: &[Fig8Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 8 — measured N-body speedup vs processors (θ = 0.01)\n");
    out.push_str("  p |  FW = 0 |  FW = 1 |  FW = 2 | maximum\n");
    out.push_str("----+---------+---------+---------+--------\n");
    for r in rows {
        out.push_str(&format!(
            "{:>3} | {:>7.2} | {:>7.2} | {:>7.2} | {:>7.2}\n",
            r.p, r.fw0, r.fw1, r.fw2, r.max
        ));
    }
    let last = rows.last().expect("non-empty");
    out.push_str(&format!(
        "gain at p={}: {:+.1}% (paper: {}% at 16); best/max = {:.0}% (paper: ≥ {}%)\n",
        last.p,
        last.gain_pct(),
        paper::FIG8_GAIN_AT_16_PCT,
        last.best_over_max_pct(),
        paper::FIG8_BEST_OVER_MAX_PCT
    ));
    out
}

fn fig9(rows: &[Fig9Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 9 — model predictions vs measured speedups\n");
    out.push_str(
        "  p | meas no-spec | model no-spec | meas spec | model spec | err%(ns) | err%(s)\n",
    );
    out.push_str(
        "----+--------------+---------------+-----------+------------+----------+--------\n",
    );
    for r in rows {
        let [e0, e1] = r.error_pct();
        out.push_str(&format!(
            "{:>3} | {:>12.2} | {:>13.2} | {:>9.2} | {:>10.2} | {:>8.1} | {:>6.1}\n",
            r.p, r.measured_nospec, r.model_nospec, r.measured_spec, r.model_spec, e0, e1
        ));
    }
    for (max_p, bound) in [
        (8, paper::FIG9_ERROR_UP_TO_8_PCT),
        (16, paper::FIG9_ERROR_UP_TO_16_PCT),
    ] {
        out.push_str(&format!(
            "worst model error for p ≤ {max_p}: {:.1}%   (paper: within {bound}%)\n",
            worst_model_error_pct(rows, max_p)
        ));
    }
    out
}

fn table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 2 — measured per-iteration times, {P_MAX}-processor {N_PARTICLES}-particle run (seconds)\n"
    ));
    out.push_str("FW | computation | communication | speculation |  check |  total\n");
    out.push_str("---+-------------+---------------+-------------+--------+-------\n");
    for r in rows {
        out.push_str(&format!(
            "{:>2} | {:>11.4} | {:>13.4} | {:>11.4} | {:>6.4} | {:>6.4}\n",
            r.fw, r.computation, r.communication, r.speculation, r.check, r.total
        ));
    }
    out.push_str("paper (abs. seconds on 1994 hardware):\n");
    for r in &paper::TABLE2 {
        out.push_str(&format!(
            " {:>2} |      {:<7}|       {:<8}|     {:<8}|  {:<6}| {:>5}\n",
            r.fw, r.computation, r.communication, r.speculation, r.check, r.total
        ));
    }
    out.push_str("(compare ratios/shape: comm shrinks sharply with FW, overheads stay small)\n");
    out
}

fn table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 3 — effect of the error bound θ (FW = 1)\n");
    out.push_str("    θ   | incorrect spec % | max force error %\n");
    out.push_str("--------+------------------+------------------\n");
    for r in rows {
        out.push_str(&format!(
            "{:>7.3} | {:>16.2} | {:>17.2}\n",
            r.theta, r.incorrect_pct, r.max_force_error_pct
        ));
    }
    let paper: Vec<String> = paper::TABLE3
        .iter()
        .map(|(theta, incorrect, error)| format!("{theta} → {incorrect}% / {error}%"))
        .collect();
    out.push_str(&format!(
        "paper:  {};\n        {}\n",
        paper[..3].join(";  "),
        paper[3..].join(";  ")
    ));
    out
}

fn ablations(a: &Ablations) -> String {
    let mut out = format!(
        "# Ablations (N = {ABLATION_N}, p = {ABLATION_P}, {ABLATION_ITERATIONS} iterations)\n"
    );
    out.push_str("\n## 1. Backward window (quadratic speculation needs history)\n");
    out.push_str("BW | rejected % | max accepted err\n");
    for r in &a.backward_window {
        out.push_str(&format!(
            " {} | {:>9.2} | {:.2e}\n",
            r.label, r.rejected_pct, r.max_accepted_error
        ));
    }
    out.push_str("\n## 2. Speculation function (the paper uses eq. 10 = linear)\n");
    out.push_str("order     | rejected % | time (s)\n");
    for r in &a.order {
        out.push_str(&format!(
            "{:<9} | {:>9.2} | {:.4}\n",
            r.label, r.rejected_pct, r.elapsed
        ));
    }
    out.push_str("\n## 3. Forward window sweep\n");
    out.push_str("FW | time (s) | rollbacks | max depth used\n");
    for r in &a.forward_window {
        out.push_str(&format!(
            " {} | {:>7.4} | {:>9} | {}\n",
            r.label, r.elapsed, r.rollbacks, r.max_depth_used
        ));
    }
    out.push_str("\n## 4. Fixed window vs the controller (fw_max 3, warmup 2, period 2)\n");
    out.push_str("policy          | time (s) | max depth used\n");
    for r in &a.controller {
        out.push_str(&format!(
            "{:<15} | {:>7.4} | {}\n",
            r.label, r.elapsed, r.max_depth_used
        ));
    }
    out.push_str("\n## 5. Correction strategy ('corrected or recomputed', §3.1)\n");
    out.push_str("strategy    | time (s) | corrections | rollbacks\n");
    for r in &a.correction {
        out.push_str(&format!(
            "{:<11} | {:>7.4} | {:>11} | {}\n",
            r.label, r.elapsed, r.corrections, r.rollbacks
        ));
    }
    out
}

fn controller(sweep: &ControllerSweep) -> String {
    let mut out = format!(
        "controller vs fixed (θ, FW) grid, heterogeneous delays {CONTROLLER_SWEEP_LATENCY_US:?} µs:\n"
    );
    out.push_str(&format!(
        "{:>8} {:>4} {:>14}\n",
        "theta", "fw", "makespan ms"
    ));
    for &(theta, fw, ns) in &sweep.grid {
        out.push_str(&format!(
            "{:>8} {:>4} {:>14.3}\n",
            theta,
            fw,
            ns as f64 / 1e6
        ));
    }
    out.push_str(&format!(
        "{:>8} {:>4} {:>14.3}  (controller: fw {} theta {} after {} retunes)\n",
        "adapt",
        "-",
        sweep.adaptive_ns as f64 / 1e6,
        sweep.adaptive_fw,
        sweep.adaptive_theta,
        sweep.adaptive_retunes
    ));
    out.push_str(&format!(
        "best fixed {:.3} ms, adaptive {:.3} ms, ratio {:.3}\n",
        sweep.best_fixed_ns() as f64 / 1e6,
        sweep.adaptive_ns as f64 / 1e6,
        sweep.ratio()
    ));
    out
}
