//! Reusable speculation functions.
//!
//! §3.1 of the paper: "The speculation function for `X_k(t)` might be a
//! weighted sum of its past values … `x*_i(t) = w₁x_i(t−1) + w₂x_i(t−2)…`".
//! The workloads' apps, whose shared state is (or contains) numeric
//! vectors, assemble their speculation functions from the linear member of
//! that family, applied element by element.

use crate::history::History;

/// First-order linear extrapolation from the two newest values, `ahead`
/// iterations past the newest. Holds the newest value with a single
/// sample; returns `None` on an empty history.
///
/// This is the scalar analogue of the paper's N-body speculation (eq. 10):
/// position extrapolated by one velocity step.
pub fn extrapolate_linear(hist: &History<f64>, ahead: u32) -> Option<f64> {
    let (i1, &v1) = hist.nth_back(0)?;
    match hist.nth_back(1) {
        Some((i0, &v0)) => {
            let slope = (v1 - v0) / (i1 - i0) as f64;
            Some(v1 + slope * ahead as f64)
        }
        None => Some(v1),
    }
}

/// Apply a scalar speculator elementwise over vector-valued history.
///
/// `histories` must all have the same layout (the same partition). The
/// closure receives a per-element scalar [`History`] view materialized on
/// the fly; cost is `O(len × BW)`.
pub fn elementwise<F>(hist: &History<Vec<f64>>, mut f: F) -> Option<Vec<f64>>
where
    F: FnMut(&History<f64>) -> Option<f64>,
{
    let newest = hist.latest()?;
    let len = newest.len();
    let mut out = Vec::with_capacity(len);
    for e in 0..len {
        let mut scalar = History::new(hist.capacity());
        // Rebuild oldest-to-newest so record() accepts them.
        let mut entries: Vec<(u64, f64)> = hist.recent().map(|(i, v)| (i, v[e])).collect();
        entries.reverse();
        for (i, v) in entries {
            scalar.record(i, v);
        }
        out.push(f(&scalar)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[f64]) -> History<f64> {
        let mut h = History::new(8);
        for (i, v) in values.iter().enumerate() {
            h.record(i as u64, *v);
        }
        h
    }

    #[test]
    fn linear_extrapolates_a_line_exactly() {
        // 2, 4, 6 → next is 8, two ahead is 10.
        let h = hist(&[2.0, 4.0, 6.0]);
        assert_eq!(extrapolate_linear(&h, 1), Some(8.0));
        assert_eq!(extrapolate_linear(&h, 2), Some(10.0));
    }

    #[test]
    fn linear_single_sample_degrades_to_hold() {
        assert_eq!(extrapolate_linear(&hist(&[5.0]), 3), Some(5.0));
    }

    #[test]
    fn linear_handles_gapped_history() {
        let mut h = History::new(4);
        h.record(0, 0.0);
        h.record(4, 8.0); // slope 2 per iteration
        assert_eq!(extrapolate_linear(&h, 1), Some(10.0));
    }

    #[test]
    fn elementwise_applies_per_component() {
        let mut h: History<Vec<f64>> = History::new(4);
        h.record(0, vec![0.0, 10.0]);
        h.record(1, vec![1.0, 20.0]);
        h.record(2, vec![2.0, 30.0]);
        let out = elementwise(&h, |s| extrapolate_linear(s, 1)).unwrap();
        assert_eq!(out, vec![3.0, 40.0]);
    }

    #[test]
    fn elementwise_empty_history_is_none() {
        let h: History<Vec<f64>> = History::new(4);
        assert_eq!(elementwise(&h, |s| extrapolate_linear(s, 1)), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Linear extrapolation is exact on affine sequences.
        #[test]
        fn linear_exact_on_affine(a in -100.0f64..100.0, b in -10.0f64..10.0, ahead in 1u32..5) {
            let mut h = History::new(4);
            for i in 0..3u64 {
                h.record(i, a + b * i as f64);
            }
            let expected = a + b * (2 + ahead as u64) as f64;
            let got = extrapolate_linear(&h, ahead).unwrap();
            prop_assert!((got - expected).abs() <= 1e-9 * (1.0 + expected.abs()));
        }
    }
}
