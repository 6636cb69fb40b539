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
/// `lanes` picks the vector to speculate out of each history entry
/// (`Vec::as_slice` for a plain vector, a field for a struct of rows).
/// For each lane `e`, `f` receives the scalar [`History`] of that lane's
/// past values — one scratch history per call, refilled lane by lane from
/// `hist` in place; cost is `O(len × BW)`. The output has the newest
/// entry's length. An older entry shorter than the newest has no value
/// for every lane and is left out of every lane's scalar history.
pub fn elementwise<S, L, F>(hist: &History<S>, lanes: L, mut f: F) -> Option<Vec<f64>>
where
    L: Fn(&S) -> &[f64],
    F: FnMut(&History<f64>) -> Option<f64>,
{
    let len = lanes(hist.latest()?).len();
    let mut scalar = History::new(hist.capacity());
    let mut out = Vec::with_capacity(len);
    for e in 0..len {
        scalar.clear();
        // Oldest to newest, so record() accepts them.
        for back in (0..hist.len()).rev() {
            let (i, v) = hist.nth_back(back)?;
            let lane = lanes(v);
            if lane.len() >= len {
                scalar.record(i, lane[e]);
            }
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
        let out = elementwise(&h, Vec::as_slice, |s| extrapolate_linear(s, 1)).unwrap();
        assert_eq!(out, vec![3.0, 40.0]);
    }

    #[test]
    fn elementwise_empty_history_is_none() {
        let h: History<Vec<f64>> = History::new(4);
        assert_eq!(
            elementwise(&h, Vec::as_slice, |s| extrapolate_linear(s, 1)),
            None
        );
    }

    #[test]
    fn elementwise_reads_a_lane_of_each_entry() {
        let mut h: History<(Vec<f64>, Vec<f64>)> = History::new(4);
        h.record(0, (vec![0.0], vec![5.0]));
        h.record(1, (vec![1.0], vec![4.0]));
        let second = elementwise(&h, |e| e.1.as_slice(), |s| extrapolate_linear(s, 2));
        assert_eq!(second, Some(vec![2.0]));
    }

    #[test]
    fn elementwise_skips_an_older_shorter_entry() {
        // A peer whose broadcast grew: the length-2 entry has no value for
        // the third lane, so every lane holds the newest value.
        let mut h: History<Vec<f64>> = History::new(4);
        h.record(0, vec![0.0, 0.0]);
        h.record(1, vec![1.0, 2.0, 3.0]);
        let out = elementwise(&h, Vec::as_slice, |s| extrapolate_linear(s, 1));
        assert_eq!(out, Some(vec![1.0, 2.0, 3.0]));
    }

    #[test]
    fn elementwise_reads_an_older_longer_entry() {
        // A broadcast that shrank: the older entry's first lanes still count.
        let mut h: History<Vec<f64>> = History::new(4);
        h.record(0, vec![0.0, 10.0, 99.0]);
        h.record(1, vec![1.0, 20.0]);
        let out = elementwise(&h, Vec::as_slice, |s| extrapolate_linear(s, 1));
        assert_eq!(out, Some(vec![2.0, 30.0]));
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
