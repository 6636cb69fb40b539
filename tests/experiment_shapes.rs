//! The paper's evaluation (§5: Figs 5, 6, 8, 9, Tables 2, 3) at the
//! paper's own scale, read from one cached `Report`: the golden pins every
//! printed number, EXPERIMENTS.md is checked against the golden, and each
//! "paper says X, we get Y" is an assertion with X from `spec_bench::paper`
//! and Y a named constant here. Claims that agree are held to the paper's
//! tolerance. Claims that disagree are held inside a band around today's
//! value, so a change that moves one fails here and is decided on purpose
//! (ROADMAP item 10) rather than drifted into.

use std::path::PathBuf;
use std::sync::OnceLock;

use spec_bench::experiments::{self, worst_model_error_pct, Report};
use spec_bench::{paper, render};

/// The report and its rendering, generated once per test binary.
fn report() -> &'static (Report, String) {
    static REPORT: OnceLock<(Report, String)> = OnceLock::new();
    REPORT.get_or_init(|| {
        let report = Report::generate();
        let text = render::report(&report);
        (report, text)
    })
}

fn repo_file(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path)
}

const GOLDEN: &str = "tests/golden/experiments.txt";

#[test]
fn experiments_output_matches_golden() {
    speccheck::assert_matches_golden(&repo_file(GOLDEN), &report().1);
}

/// The info string of the fenced blocks in EXPERIMENTS.md that quote the
/// golden.
const GOLDEN_FENCE: &str = "```golden\n";

#[test]
fn experiments_md_quotes_every_golden_section_verbatim() {
    let golden = std::fs::read_to_string(repo_file(GOLDEN)).expect("read the golden");
    let doc = std::fs::read_to_string(repo_file("EXPERIMENTS.md")).expect("read EXPERIMENTS.md");
    let sections: Vec<&str> = golden
        .split("\n\n")
        .map(|s| s.trim_end_matches('\n'))
        .filter(|s| !s.is_empty())
        .collect();
    let blocks: Vec<&str> = doc
        .split(GOLDEN_FENCE)
        .skip(1)
        .map(|rest| {
            rest.split_once("\n```")
                .expect("unterminated golden block")
                .0
        })
        .collect();
    for block in &blocks {
        assert!(
            sections.contains(block),
            "EXPERIMENTS.md quotes a block that is not a section of {GOLDEN}:\n{block}"
        );
    }
    for section in &sections {
        assert!(
            blocks.contains(section),
            "EXPERIMENTS.md has no golden block for this section of {GOLDEN}:\n{section}"
        );
    }
}

/// A reproduced number that disagrees with the paper's: it must stay
/// within `band` of `ours`.
struct Gap {
    what: &'static str,
    ours: f64,
    band: f64,
}

impl Gap {
    fn check(&self, measured: f64, paper: f64) {
        assert!(
            (measured - self.ours).abs() <= self.band,
            "{}: {measured:.4} left ours {} ± {} (paper: {paper}). A known gap against the \
             paper (ROADMAP item 10): if the change meant to move it, update this constant \
             and EXPERIMENTS.md",
            self.what,
            self.ours,
            self.band
        );
    }
}

/// Fig 5: the largest |gain| of speculation for p ≤ 5, percent, against
/// the paper's "very little impact" (−2.23 at p = 2).
const FIG5_SMALL_P_GAIN_OURS_PCT: f64 = 2.3;

#[test]
fn fig5_shape_speculation_wins_at_scale_and_nospec_peaks() {
    let rows = &report().0.fig5;
    let last = rows.last().unwrap();
    assert!(
        last.spec > last.no_spec * 1.10,
        "model: ≥10% gain expected at p=16"
    );
    // The no-speculation curve declines somewhere before 16 (its peak).
    let peak = rows.iter().map(|r| r.no_spec).fold(0.0f64, f64::max);
    assert!(
        peak > last.no_spec,
        "no-spec curve must decline after its peak"
    );
    // Nothing beats the capacity bound.
    for r in rows {
        assert!(r.spec <= r.max + 1e-9);
        assert!(r.no_spec <= r.max + 1e-9);
    }
    // Agreement: little impact on small systems, and the no-spec peak
    // where the paper puts it.
    for r in rows
        .iter()
        .filter(|r| r.p <= paper::FIG5_LITTLE_IMPACT_UP_TO_P)
    {
        let gain = 100.0 * (r.spec / r.no_spec - 1.0);
        assert!(
            gain.abs() <= FIG5_SMALL_P_GAIN_OURS_PCT,
            "p = {}: gain {gain:+.2}% against the paper's very little impact",
            r.p
        );
    }
    let peak_p = rows
        .iter()
        .max_by(|a, b| a.no_spec.total_cmp(&b.no_spec))
        .unwrap()
        .p;
    assert_eq!(peak_p, paper::FIG5_NOSPEC_PEAK_P, "no-spec peak");
}

/// Fig 6: the first recomputation percentage at which the baseline wins,
/// against the paper's "speculation wins below 10%".
const FIG6_CROSSOVER_OURS_PCT: f64 = 13.0;

#[test]
fn fig6_shape_speculation_loses_beyond_some_k() {
    let rows = &report().0.fig6;
    assert!(
        rows[0].spec > rows[0].no_spec,
        "k=0 must favour speculation"
    );
    assert!(
        rows.last().unwrap().spec < rows.last().unwrap().no_spec,
        "k=30% must favour the baseline"
    );
    // Agreement: speculation wins for every k the paper says it does.
    for r in rows
        .iter()
        .filter(|r| 100.0 * r.k < paper::FIG6_WINS_BELOW_K_PCT)
    {
        assert!(r.spec > r.no_spec, "k = {}: the baseline wins", r.k);
    }
    let crossover = rows.iter().find(|r| r.spec < r.no_spec).unwrap();
    assert_eq!((100.0 * crossover.k).round(), FIG6_CROSSOVER_OURS_PCT);
}

/// Fig 8 at p = 16: the speculative gain over FW 0, percent.
const FIG8_GAIN_AT_16: Gap = Gap {
    what: "Fig 8 gain at p = 16 (%)",
    ours: 59.8,
    band: 3.0,
};
/// Fig 8 at p = 16: the best speculative speedup over the maximum, percent.
const FIG8_BEST_OVER_MAX: Gap = Gap {
    what: "Fig 8 best/max at p = 16 (%)",
    ours: 70.6,
    band: 3.0,
};
/// FW 2 over FW 1 at p = 16 (speedups 5.74 / 6.12): FW 2 loses here; in
/// the paper it wins (Table 2 totals 8.52 s / 7.79 s).
const FW2_OVER_FW1_AT_16: Gap = Gap {
    what: "FW 2 over FW 1 at p = 16",
    ours: 0.938,
    band: 0.03,
};

#[test]
fn fig8_shape_speculation_wins_at_sixteen_processors() {
    let rows = &report().0.fig8;
    let last = rows.last().unwrap();
    assert_eq!(last.p, 16);
    let best = last.fw1.max(last.fw2);
    assert!(
        best > last.fw0 * 1.10,
        "measured: speculation should win ≥10% at p=16, got FW0={} FW1={} FW2={}",
        last.fw0,
        last.fw1,
        last.fw2
    );
    // Small systems: little effect (the paper: "very little impact for
    // 2 to 4 processors").
    let first = &rows[0];
    assert!(
        (first.fw1 / first.fw0 - 1.0).abs() < 0.25,
        "p=2 should show a modest effect, got {:+.1}%",
        100.0 * (first.fw1 / first.fw0 - 1.0)
    );
    // Nothing beats the capacity bound.
    for r in rows {
        assert!(r.fw0 <= r.max * 1.01 && r.fw1 <= r.max * 1.01 && r.fw2 <= r.max * 1.01);
    }
    // Gaps against the paper.
    FIG8_GAIN_AT_16.check(last.gain_pct(), paper::FIG8_GAIN_AT_16_PCT);
    FIG8_BEST_OVER_MAX.check(last.best_over_max_pct(), paper::FIG8_BEST_OVER_MAX_PCT);
    let [_, paper_fw1, paper_fw2] = paper::TABLE2;
    FW2_OVER_FW1_AT_16.check(last.fw2 / last.fw1, paper_fw1.total / paper_fw2.total);
}

#[test]
fn table2_shape_communication_shrinks_with_fw() {
    let rows = &report().0.table2;
    assert_eq!(rows.len(), 3);
    // FW=1 must slash the communication wait relative to FW=0.
    assert!(
        rows[1].communication < rows[0].communication * 0.6,
        "FW=1 comm {} vs FW=0 comm {}",
        rows[1].communication,
        rows[0].communication
    );
    // FW=2 waits less than FW=1 on the same network (the paper's Table 2:
    // 1.43 s → 0.22 s).
    assert!(
        rows[2].communication < rows[1].communication,
        "FW=2 comm {} vs FW=1 comm {}",
        rows[2].communication,
        rows[1].communication
    );
    // Overheads exist but stay small relative to computation.
    assert!(rows[1].speculation > 0.0);
    assert!(rows[1].check > 0.0);
    assert!(rows[1].speculation + rows[1].check < rows[1].computation * 0.25);
    // And the speculative totals beat the baseline total.
    assert!(rows[1].total < rows[0].total);
}

/// Table 3 at θ = 0.001: checked particles rejected, percent.
const TABLE3_REJECTED_AT_0_001: Gap = Gap {
    what: "Table 3 rejected at θ = 0.001 (%)",
    ours: 69.02,
    band: 3.0,
};

#[test]
fn table3_shape_theta_tradeoff() {
    let rows = &report().0.table3;
    assert_eq!(rows.len(), 5);
    // Tighter θ ⇒ more recomputations, less accepted error — the paper's
    // central trade-off.
    for w in rows.windows(2) {
        assert!(w[0].theta > w[1].theta);
        assert!(w[0].incorrect_pct <= w[1].incorrect_pct + 1e-9);
        assert!(w[0].max_force_error_pct >= w[1].max_force_error_pct - 1e-9);
    }
    // Agreement: the accepted force error is bounded by ~2θ, as in the
    // paper's own column.
    for r in rows {
        assert!(
            r.max_force_error_pct <= 200.0 * r.theta + 1e-9,
            "θ={} accepted {}%",
            r.theta,
            r.max_force_error_pct
        );
    }
    let (theta, paper_rejected, _) = paper::TABLE3[4];
    assert_eq!(rows[4].theta, theta);
    TABLE3_REJECTED_AT_0_001.check(
        rows[4].incorrect_pct,
        paper_rejected.parse().expect("a number"),
    );
}

/// Fig 9: the worst model error for p ≤ 8 and for p ≤ 16, percent.
const FIG9_WORST_UP_TO_8_OURS_PCT: f64 = 8.4;
const FIG9_WORST_UP_TO_16_OURS_PCT: f64 = 20.9;

#[test]
fn fig9_model_tracks_measurements() {
    let rows = &report().0.fig9;
    for r in rows {
        let [e0, e1] = r.error_pct();
        assert!(e0 < 40.0, "no-spec model error {e0:.0}% at p={}", r.p);
        assert!(e1 < 40.0, "spec model error {e1:.0}% at p={}", r.p);
    }
    // Agreement, at the paper's tolerance.
    for (max_p, ours, bound) in [
        (
            8,
            FIG9_WORST_UP_TO_8_OURS_PCT,
            paper::FIG9_ERROR_UP_TO_8_PCT,
        ),
        (
            16,
            FIG9_WORST_UP_TO_16_OURS_PCT,
            paper::FIG9_ERROR_UP_TO_16_PCT,
        ),
    ] {
        let worst = worst_model_error_pct(rows, max_p);
        assert!(
            worst <= bound,
            "worst model error for p ≤ {max_p}: {worst:.1}% (ours was {ours}%), past the \
             paper's {bound}%"
        );
    }
}

/// Cluster-total wire bytes per iteration of the N-body exchange phase may
/// not exceed these (measured: 10 272 full, 1 770 delta — 25 % headroom, so
/// codec bloat trips while a deliberate format change edits the constant).
const EXCHANGE_FULL_CEILING: f64 = 12_840.0;
const EXCHANGE_DELTA_CEILING: f64 = 2_213.0;
/// Delta frames must stay this many times cheaper than full snapshots
/// (measured: 5.8×).
const MIN_DELTA_RATIO: f64 = 3.0;

#[test]
fn exchange_bytes_stay_under_their_ceilings_and_delta_saves_3x() {
    let full = experiments::exchange_bytes_per_iter(false);
    let delta = experiments::exchange_bytes_per_iter(true);
    assert!(
        full <= EXCHANGE_FULL_CEILING,
        "full exchange {full} B/iter > {EXCHANGE_FULL_CEILING}"
    );
    assert!(
        delta <= EXCHANGE_DELTA_CEILING,
        "delta exchange {delta} B/iter > {EXCHANGE_DELTA_CEILING}"
    );
    assert!(
        full / delta >= MIN_DELTA_RATIO,
        "delta saves only {:.2}x over full",
        full / delta
    );
}

/// The controller's makespan over the best fixed (θ, FW) grid point may
/// not exceed this (measured: 1.000 — 1 729.513 vs 1 728.889 ms; matching
/// the best fixed point is the bar, not beating it).
const CONTROLLER_RATIO_CEILING: f64 = 1.05;

#[test]
fn controller_stays_within_five_percent_of_the_best_fixed_grid_point() {
    let sweep = &report().0.controller;
    assert_eq!(sweep.grid.len(), 12);
    assert!(sweep.adaptive_retunes >= 1, "the controller never retuned");
    assert!(
        sweep.ratio() <= CONTROLLER_RATIO_CEILING,
        "controller {} ns vs best fixed {} ns",
        sweep.adaptive_ns,
        sweep.best_fixed_ns()
    );
}
