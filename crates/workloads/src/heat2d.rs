//! 2-D Jacobi heat diffusion with speculative row-halo exchange.
//!
//! The grid is split into horizontal strips, one per rank; each iteration a
//! strip needs its neighbours' edge *rows* (vectors, unlike the scalar
//! halos of the 1-D solver), making this the realistic PDE workload: halo
//! messages of meaningful size, per-cell error checking, and exact
//! per-cell incremental correction.

use std::ops::Range;

use mpk::{Rank, WireSize};
use speccore::{speculator, CheckOutcome, History, SpeculativeApp};

/// The two edge rows a strip exposes to its neighbours.
#[derive(Clone, Debug, PartialEq)]
pub struct RowHalo {
    /// The strip's first (top) row.
    pub top: Vec<f64>,
    /// The strip's last (bottom) row.
    pub bottom: Vec<f64>,
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

    fn cell_err(&self, actual: f64, spec: f64) -> f64 {
        (actual - spec).abs() / actual.abs().max(0.1)
    }
}

impl SpeculativeApp for Heat2dApp {
    type Shared = RowHalo;
    type Checkpoint = Vec<f64>;

    fn shared(&self) -> RowHalo {
        RowHalo {
            top: self.u[..self.cols].to_vec(),
            bottom: self.u[(self.rows - 1) * self.cols..].to_vec(),
        }
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

    fn absorb(&mut self, from: Rank, halo: &RowHalo) -> u64 {
        if self.is_top_neighbor(from.0) {
            self.top_in.copy_from_slice(&halo.bottom);
            self.cols as u64
        } else if self.is_bottom_neighbor(from.0) {
            self.bottom_in.copy_from_slice(&halo.top);
            self.cols as u64
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

    fn speculate(
        &self,
        _from: Rank,
        hist: &History<RowHalo>,
        ahead: u32,
    ) -> Option<(RowHalo, u64)> {
        // Extrapolate each halo row elementwise.
        let project = |pick: fn(&RowHalo) -> &Vec<f64>| -> Option<Vec<f64>> {
            let mut h: History<Vec<f64>> = History::new(hist.capacity());
            let mut entries: Vec<(u64, Vec<f64>)> =
                hist.recent().map(|(i, v)| (i, pick(v).clone())).collect();
            entries.reverse();
            for (i, v) in entries {
                h.record(i, v);
            }
            speculator::elementwise(&h, |s| speculator::extrapolate_linear(s, ahead))
        };
        let top = project(|h| &h.top)?;
        let bottom = project(|h| &h.bottom)?;
        let cost = 4 * (top.len() + bottom.len()) as u64;
        Some((RowHalo { top, bottom }, cost))
    }

    fn check(&self, from: Rank, actual: &RowHalo, speculated: &RowHalo) -> CheckOutcome {
        // Only the row we consumed matters.
        let (a, s): (&[f64], &[f64]) = if self.is_top_neighbor(from.0) {
            (&actual.bottom, &speculated.bottom)
        } else if self.is_bottom_neighbor(from.0) {
            (&actual.top, &speculated.top)
        } else {
            (&[], &[])
        };
        let mut max_error: f64 = 0.0;
        let mut max_accepted: f64 = 0.0;
        let mut bad = 0u64;
        for (&av, &sv) in a.iter().zip(s) {
            let err = self.cell_err(av, sv);
            max_error = max_error.max(err);
            if err > self.cfg.theta {
                bad += 1;
            } else {
                max_accepted = max_accepted.max(err);
            }
        }
        CheckOutcome {
            accept: bad == 0,
            max_error,
            max_accepted_error: max_accepted,
            checked_units: a.len() as u64,
            bad_units: bad,
            ops: 4 * a.len() as u64,
        }
    }

    fn correct(&mut self, from: Rank, speculated: &RowHalo, actual: &RowHalo) -> u64 {
        // Each halo cell feeds exactly one edge cell, linearly (β·value),
        // and only cells beyond θ are repaired — per-cell selective
        // recomputation, as in the paper's N-body correction.
        let beta = self.cfg.beta;
        let theta = self.cfg.theta;
        let cols = self.cols;
        let mut ops = 0u64;
        if self.is_top_neighbor(from.0) {
            for c in 0..cols {
                let (av, sv) = (actual.bottom[c], speculated.bottom[c]);
                if (av - sv).abs() / av.abs().max(0.1) > theta {
                    self.u[c] += beta * (av - sv);
                    ops += 2;
                }
            }
        } else if self.is_bottom_neighbor(from.0) {
            let base = (self.rows - 1) * cols;
            for c in 0..cols {
                let (av, sv) = (actual.top[c], speculated.top[c]);
                if (av - sv).abs() / av.abs().max(0.1) > theta {
                    self.u[base + c] += beta * (av - sv);
                    ops += 2;
                }
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
            let halos: Vec<RowHalo> = apps.iter().map(|a| a.shared()).collect();
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
        let actual = RowHalo {
            top: vec![0.3; cols],
            bottom: vec![0.7; cols],
        };
        let spec = RowHalo {
            top: vec![0.1; cols],
            bottom: vec![0.2; cols],
        };
        let quiet = RowHalo {
            top: vec![0.0; cols],
            bottom: vec![0.0; cols],
        };

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
        let out = app.check(Rank(0), &actual, &spec);
        assert!(!out.accept);
        assert_eq!(out.bad_units, 1);
        assert_eq!(out.checked_units, cols as u64);
    }

    #[test]
    fn speculation_tracks_halo_trends() {
        let (rows, cols) = (12, 8);
        let ranges = even_ranges(rows, 3);
        let app = Heat2dApp::new(rows, cols, &ranges, 1, Heat2dConfig::default());
        let mut h = History::new(3);
        h.record(
            0,
            RowHalo {
                top: vec![0.0; cols],
                bottom: vec![1.0; cols],
            },
        );
        h.record(
            1,
            RowHalo {
                top: vec![0.1; cols],
                bottom: vec![0.9; cols],
            },
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
