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
}
