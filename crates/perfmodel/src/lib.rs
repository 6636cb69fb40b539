//! # perfmodel — the paper's §4 empirical performance model
//!
//! Implements equations 3–9 of Govindan & Franklin (1994): iteration-time
//! estimates for a synchronous iterative algorithm on `p` heterogeneous
//! processors, with and without speculative computation, plus the speedup
//! definitions used throughout the paper's evaluation.
//!
//! Notation (the paper's Table 1): `N` variables, per-variable operation
//! counts `f_comp`, `f_spec`, `f_check`, processor capacities `M_i`
//! (operations/second, fastest first), communication time `t_comm(p)`, and
//! misspeculation (recomputation) fraction `k`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod model;
mod series;
mod tune;

pub use model::{CommModel, ModelError, ModelParams};
pub use series::{fig5_series, fig6_series, Fig5Row, Fig6Row};
pub use tune::{best_forward_window, masked_iteration_time, predicted_iteration_time};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_headline_numbers() {
        // §4: "speculative computation yields significant performance
        // benefits, up to 25% on 16 processors" with k = 2%, and "in the
        // 'no speculation' case, performance begins to decrease after
        // about 10 processors".
        let params = ModelParams::paper_example();
        let gain = params.speedup_spec(16) / params.speedup_nospec(16) - 1.0;
        assert!(
            (0.15..0.40).contains(&gain),
            "16-processor speculation gain {gain} out of the paper's ballpark"
        );

        // No-speculation speedup peaks before p = 16 and declines after.
        let peak_p = (1..=16)
            .max_by(|&a, &b| {
                params
                    .speedup_nospec(a)
                    .partial_cmp(&params.speedup_nospec(b))
                    .unwrap()
            })
            .unwrap();
        assert!(
            (8..=12).contains(&peak_p),
            "no-spec peak at p={peak_p}, paper says about 10"
        );
        assert!(params.speedup_nospec(16) < params.speedup_nospec(peak_p));
    }

    #[test]
    fn speculation_gain_vanishes_for_small_p() {
        // §4: "Speculative computation has very little impact for small
        // processor systems (2 to 5 processors)."
        let params = ModelParams::paper_example();
        for p in 2..=4 {
            let gain = params.speedup_spec(p) / params.speedup_nospec(p) - 1.0;
            assert!(
                gain.abs() < 0.06,
                "gain at p={p} should be small, got {gain}"
            );
        }
    }

    #[test]
    fn fig6_crossover_near_ten_percent() {
        // §4 / Figure 6: "Speculation yields performance gain over the no
        // speculation case for errors less than 10%."
        let params = ModelParams::paper_example();
        let base = params.speedup_nospec(8);
        let at = |k: f64| params.with_k(k).speedup_spec(8);
        assert!(at(0.02) > base, "2% error must still win");
        assert!(at(0.30) < base, "30% error must lose");
        // Crossover between 5% and 20%.
        let mut crossover = None;
        let mut k = 0.0;
        while k <= 0.30 {
            if at(k) < base {
                crossover = Some(k);
                break;
            }
            k += 0.005;
        }
        let crossover = crossover.expect("speculation must eventually lose");
        assert!(
            (0.05..=0.20).contains(&crossover),
            "crossover at k={crossover}, paper says about 10%"
        );
    }
}
