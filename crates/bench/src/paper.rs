//! The numbers the paper reports, written once: [`crate::render`] prints
//! them beside ours, and `tests/experiment_shapes.rs` asserts ours
//! against them.

use crate::experiments::Table2Row;

/// Figure 5: the model's speculative gain reaches "up to ~25%" at p = 16,
/// percent.
pub const FIG5_GAIN_AT_16_PCT: f64 = 25.0;
/// Figure 5: speculation "has very little impact for small processor
/// systems (2 to 5)": the largest such p.
pub const FIG5_LITTLE_IMPACT_UP_TO_P: usize = 5;
/// Figure 5: without speculation "performance begins to decrease after
/// about 10 processors": the p of the peak.
pub const FIG5_NOSPEC_PEAK_P: usize = 10;
/// Figure 6: "speculation yields performance gain … for errors less than
/// 10%": the recomputation percentage below which speculation wins.
pub const FIG6_WINS_BELOW_K_PCT: f64 = 10.0;
/// Figure 8: "34% performance gain over the no speculation case" at
/// p = 16, percent.
pub const FIG8_GAIN_AT_16_PCT: f64 = 34.0;
/// Figure 8: "within 20% of the maximum speedup on 16 processors", as a
/// lower bound on best/max, percent.
pub const FIG8_BEST_OVER_MAX_PCT: f64 = 80.0;
/// Figure 9: the model is "within 10% of the measured values for 8 or
/// fewer processors", percent.
pub const FIG9_ERROR_UP_TO_8_PCT: f64 = 10.0;
/// Figure 9: "within 25% for 8 to 16 processors", percent.
pub const FIG9_ERROR_UP_TO_16_PCT: f64 = 25.0;

/// Table 2 in absolute seconds on the 1994 hardware, FW = 0, 1, 2.
pub const TABLE2: [Table2Row; 3] = [
    Table2Row {
        fw: 0,
        computation: 5.83,
        communication: 4.73,
        speculation: 0.0,
        check: 0.0,
        total: 10.56,
    },
    Table2Row {
        fw: 1,
        computation: 5.85,
        communication: 1.43,
        speculation: 0.2,
        check: 1.02,
        total: 8.52,
    },
    Table2Row {
        fw: 2,
        computation: 5.82,
        communication: 0.22,
        speculation: 0.3,
        check: 1.5,
        total: 7.79,
    },
];

/// Table 3 as the paper prints it: θ, incorrect speculations in percent
/// (only "<1" for the two loosest bounds), max force error in percent.
pub const TABLE3: [(f64, &str, f64); 5] = [
    (0.1, "<1", 20.0),
    (0.05, "<1", 10.0),
    (0.01, "2", 2.0),
    (0.005, "5", 1.0),
    (0.001, "20", 0.2),
];
