//! Figure-series generators for the model's two plots.

use crate::model::ModelParams;

/// One point of Figure 5: speedup vs. processor count.
#[derive(Clone, Copy, Debug)]
pub struct Fig5Row {
    /// Processor count.
    pub p: usize,
    /// Speedup without speculation.
    pub no_spec: f64,
    /// Speedup with speculation (FW = 1 model).
    pub spec: f64,
    /// Maximum attainable speedup `Σ M_i / M_1`.
    pub max: f64,
}

/// Model speedups for `p = 1..=max_p` (the paper's Figure 5).
pub fn fig5_series(params: &ModelParams, max_p: usize) -> Vec<Fig5Row> {
    (1..=max_p)
        .map(|p| Fig5Row {
            p,
            no_spec: params.speedup_nospec(p),
            spec: params.speedup_spec(p),
            max: params.speedup_max(p),
        })
        .collect()
}

/// One point of Figure 6: speedup at a fixed processor count vs. the
/// recomputation percentage `k`.
#[derive(Clone, Copy, Debug)]
pub struct Fig6Row {
    /// Recomputation fraction `k`.
    pub k: f64,
    /// Speedup with speculation at this `k`.
    pub spec: f64,
    /// Speedup without speculation (independent of `k`).
    pub no_spec: f64,
}

/// Model speedups on `p` processors across recomputation fractions `ks`
/// (the paper's Figure 6, p = 8).
pub fn fig6_series(params: &ModelParams, p: usize, ks: &[f64]) -> Vec<Fig6Row> {
    let no_spec = params.speedup_nospec(p);
    ks.iter()
        .map(|&k| Fig6Row {
            k,
            spec: params.with_k(k).speedup_spec(p),
            no_spec,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_has_one_row_per_p() {
        let s = fig5_series(&ModelParams::paper_example(), 16);
        assert_eq!(s.len(), 16);
        assert_eq!(s[0].p, 1);
        assert!((s[0].no_spec - 1.0).abs() < 1e-12);
        assert!((s[0].max - 1.0).abs() < 1e-12);
        assert_eq!(s[15].p, 16);
    }
}
