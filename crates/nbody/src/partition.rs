//! Capacity-proportional particle partitioning — the paper's equations 4–5.
//!
//! "The N particles simulated are distributed over the p processors such
//! that each processor is allocated workload (i.e., number of particles)
//! proportional to its computing ability" (§5), subject to
//! `N_i / M_i = N_j / M_j` (eq. 4) and `Σ N_i = N` (eq. 5). With integer
//! particle counts, the equalities hold as closely as rounding allows; we
//! use the largest-remainder method, which preserves eq. 5 exactly and
//! minimizes the worst proportionality violation.

use std::ops::Range;

/// Split `n` items into contiguous ranges proportional to `capacities`.
///
/// Returns one (possibly empty) range per capacity, in order, covering
/// `0..n` exactly.
///
/// # Panics
/// Panics if `capacities` is empty or contains non-positive entries.
pub fn partition_proportional(n: usize, capacities: &[f64]) -> Vec<Range<usize>> {
    assert!(!capacities.is_empty(), "need at least one processor");
    assert!(
        capacities.iter().all(|c| c.is_finite() && *c > 0.0),
        "capacities must be positive and finite"
    );
    let total: f64 = capacities.iter().sum();
    let exact: Vec<f64> = capacities.iter().map(|c| n as f64 * c / total).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    let mut leftover = n - assigned;

    // Hand out the remaining items to the largest fractional remainders,
    // breaking ties toward faster (earlier) processors for determinism.
    let mut order: Vec<usize> = (0..capacities.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
    });
    for &i in &order {
        if leftover == 0 {
            break;
        }
        counts[i] += 1;
        leftover -= 1;
    }

    let mut ranges = Vec::with_capacity(counts.len());
    let mut start = 0;
    for c in counts {
        ranges.push(start..start + c);
        start += c;
    }
    debug_assert_eq!(start, n);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Largest relative violation of eq. 4 across processors:
    /// `max_i |N_i/M_i − N/ΣM| / (N/ΣM)`.
    fn proportionality_error(ranges: &[Range<usize>], capacities: &[f64]) -> f64 {
        let n: usize = ranges.iter().map(|r| r.len()).sum();
        if n == 0 {
            return 0.0;
        }
        let total: f64 = capacities.iter().sum();
        let ideal = n as f64 / total;
        ranges
            .iter()
            .zip(capacities)
            .map(|(r, c)| ((r.len() as f64 / c) - ideal).abs() / ideal)
            .fold(0.0, f64::max)
    }

    #[test]
    fn ranges_are_contiguous_and_cover_everything() {
        let r = partition_proportional(97, &[5.0, 3.0, 2.0]);
        assert_eq!(r[0].start, 0);
        for w in r.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(r.last().unwrap().end, 97);
    }

    #[test]
    fn fewer_items_than_processors() {
        let r = partition_proportional(2, &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(r.iter().map(|x| x.len()).sum::<usize>(), 2);
        assert!(r.iter().all(|x| x.len() <= 1));
    }

    #[test]
    fn zero_items() {
        let r = partition_proportional(0, &[2.0, 1.0]);
        assert!(r.iter().all(|x| x.is_empty()));
        assert_eq!(proportionality_error(&r, &[2.0, 1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_capacity() {
        partition_proportional(10, &[1.0, 0.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Eq. 5 (total coverage), contiguity, and approximate eq. 4 hold
        /// for arbitrary positive capacities.
        #[test]
        fn partition_invariants(
            n in 0usize..5000,
            caps in proptest::collection::vec(0.1f64..100.0, 1..24),
        ) {
            let r = partition_proportional(n, &caps);
            prop_assert_eq!(r.len(), caps.len());
            // Coverage & contiguity.
            prop_assert_eq!(r[0].start, 0);
            for w in r.windows(2) {
                prop_assert_eq!(w[0].end, w[1].start);
            }
            prop_assert_eq!(r.last().unwrap().end, n);
            // Counts are within 1 of the exact proportional share.
            let total: f64 = caps.iter().sum();
            for (range, c) in r.iter().zip(&caps) {
                let exact = n as f64 * c / total;
                let len = range.len() as f64;
                prop_assert!(
                    (len - exact).abs() < 1.0 + 1e-9,
                    "len {len} vs exact {exact}"
                );
            }
        }
    }
}
