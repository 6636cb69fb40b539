//! 2-D Jacobi heat diffusion with speculative row-halo exchange.
//!
//! The grid is split into horizontal strips, one per rank; each iteration a
//! strip needs its neighbours' edge *rows*, making this the realistic PDE
//! workload: halo messages of meaningful size, per-cell error checking,
//! and exact per-cell incremental correction.
//!
//! A strip's halos travel as one `Arc<RowHalo>`: the broadcast to every
//! peer, each peer's history and the inbox share a single allocation. A
//! row of the wrong length is used on its common prefix with the grid
//! width and rejected by `check` (see the `lanes` module).

use std::ops::Range;
use std::sync::Arc;

use mpk::{Rank, WireSize};
use speccore::{CheckOutcome, Lanes, SpeculativeApp};

use crate::lanes;

/// Error floor of a halo cell: errors are relative above `|u| = 0.1` and
/// absolute below it.
const CELL_FLOOR: f64 = 0.1;

/// The two edge rows a strip exposes to its neighbours.
#[derive(Clone, Debug, PartialEq)]
pub struct RowHalo {
    /// The strip's first (top) row.
    pub top: Vec<f64>,
    /// The strip's last (bottom) row.
    pub bottom: Vec<f64>,
}

/// Two rows: `top`, then `bottom`.
impl Lanes for RowHalo {
    fn row_count(&self) -> usize {
        2
    }

    fn row(&self, r: usize) -> &[f64] {
        match r {
            0 => &self.top,
            _ => &self.bottom,
        }
    }

    fn row_mut(&mut self, r: usize) -> &mut [f64] {
        match r {
            0 => &mut self.top,
            _ => &mut self.bottom,
        }
    }
}

impl WireSize for RowHalo {
    fn wire_size(&self) -> usize {
        self.top.wire_size() + self.bottom.wire_size()
    }
}

/// Parameters of the 2-D diffusion problem.
#[derive(Clone, Copy, Debug)]
pub struct Heat2dConfig {
    /// Diffusion coefficient per step (2-D stability needs β ≤ 0.25).
    pub beta: f64,
    /// Error threshold θ for speculated halo cells (absolute + relative).
    pub theta: f64,
    /// Operations charged per owned cell per iteration.
    pub ops_per_cell: u64,
}

impl Default for Heat2dConfig {
    fn default() -> Self {
        Heat2dConfig {
            beta: 0.2,
            theta: 0.01,
            ops_per_cell: 12,
        }
    }
}

/// One rank's horizontal strip of the grid (row-major storage).
pub struct Heat2dApp {
    cfg: Heat2dConfig,
    me: usize,
    p: usize,
    cols: usize,
    rows: usize,
    u: Vec<f64>,
    /// Scratch grid `finish_iteration` writes into before swapping with
    /// `u`, so the stencil sweep allocates nothing per step.
    next: Vec<f64>,
    top_in: Vec<f64>,
    bottom_in: Vec<f64>,
}

impl Heat2dApp {
    /// Build rank `me`'s strip of an `n_rows × cols` grid whose initial
    /// condition is a hot square in the grid centre.
    pub fn new(
        n_rows: usize,
        cols: usize,
        row_ranges: &[Range<usize>],
        me: usize,
        cfg: Heat2dConfig,
    ) -> Self {
        let range = row_ranges[me].clone();
        assert!(!range.is_empty(), "strips must be non-empty");
        let rows = range.len();
        let mut u = vec![0.0; rows * cols];
        for (local_r, global_r) in range.clone().enumerate() {
            for c in 0..cols {
                if (n_rows / 3..2 * n_rows / 3).contains(&global_r)
                    && (cols / 3..2 * cols / 3).contains(&c)
                {
                    u[local_r * cols + c] = 1.0;
                }
            }
        }
        Heat2dApp {
            cfg,
            me,
            p: row_ranges.len(),
            cols,
            rows,
            next: vec![0.0; u.len()],
            u,
            top_in: vec![0.0; cols],
            bottom_in: vec![0.0; cols],
        }
    }

    /// The strip's cells, row-major.
    pub fn cells(&self) -> &[f64] {
        &self.u
    }

    /// Bit-exact fingerprint of the strip's cells.
    pub fn fingerprint(&self) -> u64 {
        obs::fingerprint_f64s(&self.u)
    }

    fn at(&self, r: usize, c: usize) -> f64 {
        self.u[r * self.cols + c]
    }

    fn is_top_neighbor(&self, k: usize) -> bool {
        self.me > 0 && k == self.me - 1
    }

    fn is_bottom_neighbor(&self, k: usize) -> bool {
        k == self.me + 1 && k < self.p
    }

    /// The row of neighbour `k`'s halo this strip consumes, and the index
    /// of the first cell of the edge row it feeds; `None` unless `k` is a
    /// neighbour.
    fn consumed<'h>(&self, k: usize, halo: &'h RowHalo) -> Option<(&'h [f64], usize)> {
        if self.is_top_neighbor(k) {
            Some((&halo.bottom, 0))
        } else if self.is_bottom_neighbor(k) {
            Some((&halo.top, (self.rows - 1) * self.cols))
        } else {
            None
        }
    }
}

/// Copy the common prefix of `row` into the halo buffer `into`; returns
/// the cells copied.
fn take_row(into: &mut [f64], row: &[f64]) -> u64 {
    let n = lanes::prefix(into.len(), row);
    into[..n].copy_from_slice(&row[..n]);
    n as u64
}

impl SpeculativeApp for Heat2dApp {
    type Shared = Arc<RowHalo>;
    type Checkpoint = Vec<f64>;

    fn shared(&self) -> Arc<RowHalo> {
        Arc::new(RowHalo {
            top: self.u[..self.cols].to_vec(),
            bottom: self.u[(self.rows - 1) * self.cols..].to_vec(),
        })
    }

    fn begin_iteration(&mut self) -> u64 {
        // Zero-flux (insulated) outer boundaries by default; interior
        // strips get their halos from absorb().
        self.top_in.fill(0.0);
        self.bottom_in.fill(0.0);
        if self.me == 0 {
            self.top_in.copy_from_slice(&self.u[..self.cols]);
        }
        if self.me == self.p - 1 {
            self.bottom_in
                .copy_from_slice(&self.u[(self.rows - 1) * self.cols..]);
        }
        self.cols as u64
    }

    fn absorb(&mut self, from: Rank, halo: &Arc<RowHalo>) -> u64 {
        if self.is_top_neighbor(from.0) {
            take_row(&mut self.top_in, &halo.bottom)
        } else if self.is_bottom_neighbor(from.0) {
            take_row(&mut self.bottom_in, &halo.top)
        } else {
            0
        }
    }

    fn finish_iteration(&mut self) -> u64 {
        let (rows, cols, beta) = (self.rows, self.cols, self.cfg.beta);
        for r in 0..rows {
            for c in 0..cols {
                let centre = self.at(r, c);
                let up = if r == 0 {
                    self.top_in[c]
                } else {
                    self.at(r - 1, c)
                };
                let down = if r == rows - 1 {
                    self.bottom_in[c]
                } else {
                    self.at(r + 1, c)
                };
                // Zero-flux side walls.
                let left = if c == 0 { centre } else { self.at(r, c - 1) };
                let right = if c == cols - 1 {
                    centre
                } else {
                    self.at(r, c + 1)
                };
                self.next[r * cols + c] = centre + beta * (up + down + left + right - 4.0 * centre);
            }
        }
        std::mem::swap(&mut self.u, &mut self.next);
        self.cfg.ops_per_cell * (rows * cols) as u64
    }

    fn check(&self, from: Rank, actual: &Arc<RowHalo>, speculated: &Arc<RowHalo>) -> CheckOutcome {
        // Only the row we consumed matters.
        let (a, s, expected) = match (
            self.consumed(from.0, actual),
            self.consumed(from.0, speculated),
        ) {
            (Some((a, _)), Some((s, _))) => (a, s, self.cols),
            _ => (&[][..], &[][..], 0),
        };
        lanes::check(a, s, expected, self.cfg.theta, CELL_FLOOR, 4)
    }

    fn correct(&mut self, from: Rank, speculated: &Arc<RowHalo>, actual: &Arc<RowHalo>) -> u64 {
        // Each halo cell feeds exactly one edge cell, linearly (β·value),
        // and only cells beyond θ are repaired — per-cell selective
        // recomputation, as in the paper's N-body correction.
        let (Some((a, base)), Some((s, _))) = (
            self.consumed(from.0, actual),
            self.consumed(from.0, speculated),
        ) else {
            return 0;
        };
        let n = lanes::prefix(lanes::prefix(self.cols, a), s);
        let (beta, theta) = (self.cfg.beta, self.cfg.theta);
        let mut ops = 0u64;
        for (c, (&av, &sv)) in a[..n].iter().zip(&s[..n]).enumerate() {
            if lanes::lane_error(av, sv, CELL_FLOOR) > theta {
                self.u[base + c] += beta * (av - sv);
                ops += 2;
            }
        }
        ops
    }

    fn checkpoint(&self) -> Vec<f64> {
        self.u.clone()
    }

    fn checkpoint_into(&self, slot: &mut Option<Vec<f64>>) {
        match slot {
            Some(c) => c.clone_from(&self.u),
            None => *slot = Some(self.checkpoint()),
        }
    }

    fn restore(&mut self, c: &Vec<f64>) {
        self.u.clone_from(c);
    }
}

/// Sequential reference for the full grid (same boundary conditions).
pub fn heat2d_reference(n_rows: usize, cols: usize, cfg: Heat2dConfig, iters: u64) -> Vec<f64> {
    let mut u = vec![0.0; n_rows * cols];
    for r in n_rows / 3..2 * n_rows / 3 {
        for c in cols / 3..2 * cols / 3 {
            u[r * cols + c] = 1.0;
        }
    }
    for _ in 0..iters {
        let mut next = vec![0.0; n_rows * cols];
        for r in 0..n_rows {
            for c in 0..cols {
                let centre = u[r * cols + c];
                let up = if r == 0 {
                    centre
                } else {
                    u[(r - 1) * cols + c]
                };
                let down = if r == n_rows - 1 {
                    centre
                } else {
                    u[(r + 1) * cols + c]
                };
                let left = if c == 0 { centre } else { u[r * cols + c - 1] };
                let right = if c == cols - 1 {
                    centre
                } else {
                    u[r * cols + c + 1]
                };
                next[r * cols + c] = centre + cfg.beta * (up + down + left + right - 4.0 * centre);
            }
        }
        u = next;
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use speccore::History;

    fn even_ranges(n: usize, p: usize) -> Vec<Range<usize>> {
        (0..p).map(|i| i * n / p..(i + 1) * n / p).collect()
    }

    proptest::proptest! {
        /// Each rank's strip is exactly its row range's length by the full
        /// grid width, and `cells()` has matching size — over arbitrary
        /// grid splits.
        #[test]
        fn strip_shape_matches_the_partition(
            rows_per in 1usize..6,
            p in 2usize..5,
            cols in 3usize..12,
        ) {
            let n_rows = rows_per * p;
            let ranges: Vec<_> = (0..p).map(|i| i * rows_per..(i + 1) * rows_per).collect();
            for me in 0..p {
                let app = Heat2dApp::new(n_rows, cols, &ranges, me, Heat2dConfig::default());
                proptest::prop_assert_eq!(app.rows, rows_per);
                proptest::prop_assert_eq!(app.cols, cols);
                proptest::prop_assert_eq!(app.cells().len(), rows_per * cols);
            }
        }
    }

    /// Drive strips by hand with synchronous halo exchange.
    fn run_by_hand(n_rows: usize, cols: usize, p: usize, iters: u64) -> Vec<f64> {
        let ranges = even_ranges(n_rows, p);
        let cfg = Heat2dConfig::default();
        let mut apps: Vec<Heat2dApp> = (0..p)
            .map(|me| Heat2dApp::new(n_rows, cols, &ranges, me, cfg))
            .collect();
        for _ in 0..iters {
            let halos: Vec<_> = apps.iter().map(|a| a.shared()).collect();
            for (me, app) in apps.iter_mut().enumerate() {
                app.begin_iteration();
                for (k, halo) in halos.iter().enumerate() {
                    if k != me {
                        app.absorb(Rank(k), halo);
                    }
                }
                app.finish_iteration();
            }
        }
        apps.iter()
            .flat_map(|a| a.cells().iter().copied())
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let (rows, cols) = (24, 16);
        let got = run_by_hand(rows, cols, 3, 30);
        let want = heat2d_reference(rows, cols, Heat2dConfig::default(), 30);
        assert_eq!(got, want, "strip decomposition changed the PDE");
    }

    #[test]
    fn heat_is_conserved_with_zero_flux_walls() {
        // Insulated boundaries: total heat is invariant.
        let (rows, cols) = (18, 18);
        let before: f64 = heat2d_reference(rows, cols, Heat2dConfig::default(), 0)
            .iter()
            .sum();
        let after: f64 = heat2d_reference(rows, cols, Heat2dConfig::default(), 200)
            .iter()
            .sum();
        assert!(
            (before - after).abs() < 1e-9,
            "heat leaked: {before} -> {after}"
        );
    }

    #[test]
    fn diffusion_flattens_the_square() {
        let (rows, cols) = (18, 18);
        let u = heat2d_reference(rows, cols, Heat2dConfig::default(), 2000);
        let mean = u.iter().sum::<f64>() / u.len() as f64;
        for v in &u {
            assert!((v - mean).abs() < 1e-2, "not flattened: {v} vs mean {mean}");
        }
    }

    #[test]
    fn correction_is_exact_per_cell() {
        let (rows, cols) = (12, 8);
        let ranges = even_ranges(rows, 3);
        let cfg = Heat2dConfig {
            theta: 0.0,
            ..Default::default()
        };
        let actual = Arc::new(RowHalo {
            top: vec![0.3; cols],
            bottom: vec![0.7; cols],
        });
        let spec = Arc::new(RowHalo {
            top: vec![0.1; cols],
            bottom: vec![0.2; cols],
        });
        let quiet = Arc::new(RowHalo {
            top: vec![0.0; cols],
            bottom: vec![0.0; cols],
        });

        let mut golden = Heat2dApp::new(rows, cols, &ranges, 1, cfg);
        golden.begin_iteration();
        golden.absorb(Rank(0), &actual);
        golden.absorb(Rank(2), &quiet);
        golden.finish_iteration();

        let mut fixed = Heat2dApp::new(rows, cols, &ranges, 1, cfg);
        fixed.begin_iteration();
        fixed.absorb(Rank(0), &spec);
        fixed.absorb(Rank(2), &quiet);
        fixed.finish_iteration();
        fixed.correct(Rank(0), &spec, &actual);

        for (a, b) in golden.cells().iter().zip(fixed.cells()) {
            assert!((a - b).abs() < 1e-15, "residue {a} vs {b}");
        }
    }

    #[test]
    fn check_is_per_cell() {
        let (rows, cols) = (12, 8);
        let ranges = even_ranges(rows, 3);
        let app = Heat2dApp::new(rows, cols, &ranges, 1, Heat2dConfig::default());
        let mut actual = RowHalo {
            top: vec![0.5; cols],
            bottom: vec![0.5; cols],
        };
        let mut spec = actual.clone();
        // Rank 0 is the top neighbour: its *bottom* row is what we consume.
        spec.bottom[3] = 0.9;
        actual.bottom[3] = 0.5;
        let out = app.check(Rank(0), &Arc::new(actual), &Arc::new(spec));
        assert!(!out.accept);
        assert_eq!(out.bad_units, 1);
        assert_eq!(out.checked_units, cols as u64);
    }

    /// Eq. 11: a halo cell is bad iff its error is *beyond* θ. A cell
    /// exactly at θ is accepted by `check` and left alone by `correct`,
    /// which repairs and charges (2 ops) only the cells `check` counts bad.
    #[test]
    fn cells_at_theta_are_neither_bad_nor_repaired() {
        let (rows, cols) = (12, 8);
        let ranges = even_ranges(rows, 3);
        let cfg = Heat2dConfig {
            theta: 0.5,
            ..Default::default()
        };
        let mut app = Heat2dApp::new(rows, cols, &ranges, 1, cfg);
        // Rank 0 is the top neighbour: its bottom row is what we consume.
        let halo = |bottom: Vec<f64>| {
            Arc::new(RowHalo {
                top: vec![2.0; cols],
                bottom,
            })
        };
        let actual = halo(vec![2.0; cols]);
        // Lane error |2 − s| / 2: exactly θ on the first half, 1.0 beyond.
        let spec = halo([vec![1.0; cols / 2], vec![0.0; cols / 2]].concat());
        let before = app.cells().to_vec();
        let ops = app.correct(Rank(0), &spec, &actual);
        let repaired = app.cells().iter().zip(&before).filter(|(a, b)| a != b);
        let repaired = repaired.count() as u64;
        assert_eq!((ops, repaired), (cols as u64, cols as u64 / 2));
        assert_eq!(app.check(Rank(0), &actual, &spec).bad_units, repaired);
    }

    /// A halo from a rank that is not adjacent couples nothing: absorbing
    /// it is free and leaves the step bit-identical, and `check` and
    /// `correct` ignore it.
    #[test]
    fn non_neighbors_do_not_couple() {
        let (rows, cols) = (12, 8);
        let ranges = even_ranges(rows, 3);
        let far = Arc::new(RowHalo {
            top: vec![99.0; cols],
            bottom: vec![99.0; cols],
        });
        let near = Arc::new(RowHalo {
            top: vec![0.5; cols],
            bottom: vec![0.5; cols],
        });
        let step = |with_far: bool| {
            let mut app = Heat2dApp::new(rows, cols, &ranges, 0, Heat2dConfig::default());
            app.begin_iteration();
            if with_far {
                // Rank 2 is not adjacent to rank 0.
                assert_eq!(app.absorb(Rank(2), &far), 0);
            }
            app.absorb(Rank(1), &near);
            app.finish_iteration();
            app
        };
        let mut app = step(true);
        assert_eq!(app.fingerprint(), step(false).fingerprint());
        let out = app.check(Rank(2), &near, &far);
        assert!(out.accept, "unused halos are always acceptable");
        assert_eq!(out.checked_units, 0);
        let before = app.fingerprint();
        assert_eq!(app.correct(Rank(2), &far, &near), 0);
        assert_eq!(app.fingerprint(), before);
    }

    /// A neighbour's row is as long as the neighbour says: a shorter or
    /// longer one is used on its common prefix with the grid width, and
    /// `check` rejects it whole.
    #[test]
    fn wrong_length_rows_are_rejected_without_panicking() {
        let (rows, cols) = (12, 8);
        let ranges = even_ranges(rows, 3);
        let cfg = Heat2dConfig {
            theta: 0.0,
            ..Default::default()
        };
        let halo = |len: usize, v: f64| {
            Arc::new(RowHalo {
                top: vec![v; len],
                bottom: vec![v; len],
            })
        };
        for len in [5, 11, 0] {
            let mut app = Heat2dApp::new(rows, cols, &ranges, 1, cfg);
            let n = len.min(cols) as u64;
            app.begin_iteration();
            assert_eq!(app.absorb(Rank(0), &halo(len, 0.5)), n, "len {len}");
            assert_eq!(app.absorb(Rank(2), &halo(len, 0.5)), n, "len {len}");
            app.finish_iteration();
            for from in [Rank(0), Rank(2)] {
                let out = app.check(from, &halo(len, 0.5), &halo(cols, 0.5));
                assert!(!out.accept, "len {len}");
                assert_eq!((out.checked_units, out.bad_units), (n, n), "len {len}");
                let ops = app.correct(from, &halo(cols, 0.2), &halo(len, 0.5));
                assert_eq!(ops, 2 * n, "len {len}");
            }
            assert!(app.cells().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn speculation_tracks_halo_trends() {
        let (rows, cols) = (12, 8);
        let ranges = even_ranges(rows, 3);
        let app = Heat2dApp::new(rows, cols, &ranges, 1, Heat2dConfig::default());
        let mut h = History::new(3);
        h.record(
            0,
            Arc::new(RowHalo {
                top: vec![0.0; cols],
                bottom: vec![1.0; cols],
            }),
        );
        h.record(
            1,
            Arc::new(RowHalo {
                top: vec![0.1; cols],
                bottom: vec![0.9; cols],
            }),
        );
        let (s, _) = app.speculate(Rank(0), &h, 1).unwrap();
        assert!(s.top.iter().all(|v| (v - 0.2).abs() < 1e-12));
        assert!(s.bottom.iter().all(|v| (v - 0.8).abs() < 1e-12));
    }

    #[test]
    fn wire_size_counts_both_rows() {
        let h = RowHalo {
            top: vec![0.0; 10],
            bottom: vec![0.0; 10],
        };
        assert_eq!(h.wire_size(), 2 * (8 + 80));
    }
}
