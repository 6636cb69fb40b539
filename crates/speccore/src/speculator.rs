//! Reusable speculation functions.
//!
//! §3.1 of the paper: "The speculation function for `X_k(t)` might be a
//! weighted sum of its past values … `x*_i(t) = w₁x_i(t−1) + w₂x_i(t−2)…`".
//! [`linear`] is the linear member of that family, applied lane by lane
//! over a value's [`Lanes`]; it is
//! [`SpeculativeApp::speculate`](crate::SpeculativeApp::speculate)'s
//! default.

use crate::app::Lanes;
use crate::history::History;

/// First-order linear extrapolation from the two newest values, `ahead`
/// iterations past the newest. Holds the newest value with a single
/// sample; returns `None` on an empty history.
///
/// This is the scalar analogue of the paper's N-body speculation (eq. 10):
/// position extrapolated by one velocity step.
fn extrapolate_linear(hist: &History<f64>, ahead: u32) -> Option<f64> {
    let (i1, &v1) = hist.nth_back(0)?;
    match hist.nth_back(1) {
        Some((i0, &v0)) => {
            let slope = (v1 - v0) / (i1 - i0) as f64;
            Some(v1 + slope * ahead as f64)
        }
        None => Some(v1),
    }
}

/// Extrapolate every lane of `hist`'s values linearly, `ahead` iterations
/// past the newest entry; `None` on an empty history.
///
/// The prediction is a clone of the newest entry with each row
/// overwritten in place. Each lane's past values are refilled into one
/// scratch scalar [`History`] per call; cost is `O(lanes × BW)`. An older
/// entry whose row is shorter than the newest one's has no value for
/// that row's lanes and is left out of their scalar histories.
pub fn linear<S: Lanes>(hist: &History<S>, ahead: u32) -> Option<S> {
    let mut next = hist.latest()?.clone();
    let mut scalar = History::new(hist.capacity());
    for r in 0..next.row_count() {
        let row = next.row_mut(r);
        let len = row.len();
        for (e, out) in row.iter_mut().enumerate() {
            scalar.clear();
            // Oldest to newest, so record() accepts them.
            for back in (0..hist.len()).rev() {
                let (i, v) = hist.nth_back(back)?;
                let lane = if r < v.row_count() { v.row(r) } else { &[] };
                if lane.len() >= len {
                    scalar.record(i, lane[e]);
                }
            }
            *out = extrapolate_linear(&scalar, ahead)?;
        }
    }
    Some(next)
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
    fn linear_applies_per_lane() {
        let mut h: History<Vec<f64>> = History::new(4);
        h.record(0, vec![0.0, 10.0]);
        h.record(1, vec![1.0, 20.0]);
        h.record(2, vec![2.0, 30.0]);
        assert_eq!(linear(&h, 1), Some(vec![3.0, 40.0]));
    }

    #[test]
    fn linear_on_an_empty_history_is_none() {
        let h: History<Vec<f64>> = History::new(4);
        assert_eq!(linear(&h, 1), None);
    }

    /// A value of two rows, the shape of a strip's two halo rows.
    #[derive(Clone, Debug, PartialEq)]
    struct Rows(Vec<f64>, Vec<f64>);

    impl Lanes for Rows {
        fn row_count(&self) -> usize {
            2
        }

        fn row(&self, r: usize) -> &[f64] {
            if r == 0 {
                &self.0
            } else {
                &self.1
            }
        }

        fn row_mut(&mut self, r: usize) -> &mut [f64] {
            if r == 0 {
                &mut self.0
            } else {
                &mut self.1
            }
        }
    }

    #[test]
    fn linear_skips_an_older_shorter_row_for_that_row_only() {
        // The middle entry's second row is short: the second row's lanes
        // extrapolate from the other two entries, the first row's from all
        // three.
        let mut h: History<Rows> = History::new(4);
        h.record(0, Rows(vec![0.0], vec![5.0, 50.0]));
        h.record(1, Rows(vec![1.0], vec![9.0]));
        h.record(2, Rows(vec![3.0], vec![3.0, 30.0]));
        let next = linear(&h, 1).unwrap();
        assert_eq!(next, Rows(vec![5.0], vec![2.0, 20.0]));
        assert_eq!(next.lane_count(), 3);
    }

    #[test]
    fn linear_skips_an_older_shorter_entry() {
        // A peer whose broadcast grew: the length-2 entry has no value for
        // the third lane, so every lane holds the newest value.
        let mut h: History<Vec<f64>> = History::new(4);
        h.record(0, vec![0.0, 0.0]);
        h.record(1, vec![1.0, 2.0, 3.0]);
        assert_eq!(linear(&h, 1), Some(vec![1.0, 2.0, 3.0]));
    }

    #[test]
    fn linear_reads_an_older_longer_entry() {
        // A broadcast that shrank: the older entry's first lanes still count.
        let mut h: History<Vec<f64>> = History::new(4);
        h.record(0, vec![0.0, 10.0, 99.0]);
        h.record(1, vec![1.0, 20.0]);
        assert_eq!(linear(&h, 1), Some(vec![2.0, 30.0]));
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
