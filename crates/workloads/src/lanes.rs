//! What the `Vec<f64>`-lane apps (Jacobi, PageRank, Synthetic, and the
//! rows of Heat2d) share beyond their [`speccore::Lanes`] view: the
//! per-lane relative error and its θ-check, and the rule for a peer value
//! of the wrong length.
//!
//! ## Value lengths
//!
//! A peer decides how long the value it sends is: nothing between
//! `WireCodec::decode` and the app compares it with the partition layout.
//! So `absorb` and `correct` use a value on the prefix it shares with the
//! sender's partition ([`prefix`]), and [`check`] rejects one of the wrong
//! length outright, every compared unit bad. A value of the right length
//! takes exactly the path it always took.

use speccore::CheckOutcome;

/// How many lanes of `values` line up with a partition of `expected`
/// lanes: the common prefix.
pub(crate) fn prefix(expected: usize, values: &[f64]) -> usize {
    expected.min(values.len())
}

/// Relative error of one lane, with `floor` bounding the denominator away
/// from zero.
pub(crate) fn lane_error(actual: f64, speculated: f64, floor: f64) -> f64 {
    (actual - speculated).abs() / actual.abs().max(floor)
}

/// θ-check `speculated` against `actual` lane by lane on their common
/// prefix with a partition of `expected` lanes, charging `ops_per_unit`
/// per compared lane. Either side of the wrong length is rejected whole.
pub(crate) fn check(
    actual: &[f64],
    speculated: &[f64],
    expected: usize,
    theta: f64,
    floor: f64,
    ops_per_unit: u64,
) -> CheckOutcome {
    let n = prefix(prefix(expected, actual), speculated);
    let malformed = actual.len() != expected || speculated.len() != expected;
    let errors = actual[..n]
        .iter()
        .zip(&speculated[..n])
        .map(|(&a, &s)| lane_error(a, s, floor));
    CheckOutcome::tally(errors, malformed, theta, ops_per_unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_rejects_either_side_of_the_wrong_length_whole() {
        let good = [1.0, 2.0, 3.0];
        let out = check(&good, &good, 3, 0.01, 1e-12, 4);
        assert!(out.accept);
        assert_eq!((out.checked_units, out.bad_units, out.ops), (3, 0, 12));
        for (a, s) in [(&good[..2], &good[..]), (&good[..], &good[..2])] {
            let out = check(a, s, 3, 0.01, 1e-12, 4);
            assert!(!out.accept);
            assert_eq!((out.checked_units, out.bad_units, out.ops), (2, 2, 8));
            assert_eq!(out.max_accepted_error, 0.0);
        }
        let long = [1.0, 2.0, 3.0, 4.0];
        let out = check(&long, &long, 3, 0.01, 1e-12, 4);
        assert!(!out.accept);
        assert_eq!((out.checked_units, out.bad_units), (3, 3));
    }
}
