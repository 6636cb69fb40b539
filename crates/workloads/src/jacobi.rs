//! Jacobi iteration for dense linear systems `A·x = b` — the first family
//! member §2 lists ("iterative techniques to solve linear and non-linear
//! equations"), and the one whose absorb cost is O(N_i·N_k) like the
//! N-body kernel (dense coupling), unlike the sparse heat and PageRank
//! workloads.
//!
//! Each rank owns a row block of `A` and the matching slice of `x`; every
//! iteration it needs the whole of `x(t)`, making this a textbook
//! all-to-all synchronous iterative algorithm. The update is linear in the
//! remote values, so corrections are exact.

use std::ops::Range;

use desim::rng::derive_seed;
use mpk::Rank;
use speccore::{speculator, CheckOutcome, History, SpeculativeApp};

/// A dense, diagonally dominant system `A·x = b` (dominance guarantees
/// Jacobi convergence), generated deterministically from a seed.
#[derive(Clone, Debug)]
pub struct LinearSystem {
    /// Dimension.
    pub n: usize,
    /// Row-major dense matrix.
    pub a: Vec<f64>,
    /// Right-hand side.
    pub b: Vec<f64>,
}

impl LinearSystem {
    /// Generate an `n×n` system with off-diagonal entries in `[-1, 1]`
    /// and diagonals sized for strict dominance (row sum × 1.5).
    pub fn random(n: usize, seed: u64) -> Self {
        assert!(n >= 1);
        let mut a = vec![0.0; n * n];
        let mut b = vec![0.0; n];
        let unit = |h: u64| (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        for i in 0..n {
            let mut off_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = unit(derive_seed(seed, (i as u64) << 24 | j as u64));
                    a[i * n + j] = v;
                    off_sum += v.abs();
                }
            }
            a[i * n + i] = 1.5 * off_sum.max(1.0);
            b[i] = unit(derive_seed(seed ^ 0xB, i as u64)) * 10.0;
        }
        LinearSystem { n, a, b }
    }

    /// Residual norm `‖A·x − b‖₂`.
    pub fn residual(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n);
        (0..self.n)
            .map(|i| {
                let row = &self.a[i * self.n..(i + 1) * self.n];
                let ax: f64 = row.iter().zip(x).map(|(aij, xj)| aij * xj).sum();
                (ax - self.b[i]).powi(2)
            })
            .sum::<f64>()
            .sqrt()
    }
}

/// Parameters of the Jacobi workload.
#[derive(Clone, Copy, Debug)]
pub struct JacobiConfig {
    /// Relative error threshold θ for speculated `x` entries.
    pub theta: f64,
    /// Operations charged per matrix entry touched.
    pub ops_per_entry: u64,
}

impl Default for JacobiConfig {
    fn default() -> Self {
        JacobiConfig {
            theta: 0.01,
            ops_per_entry: 4,
        }
    }
}

/// One rank's row block of the Jacobi iteration.
pub struct JacobiApp {
    cfg: JacobiConfig,
    sys: LinearSystem,
    ranges: Vec<Range<usize>>,
    me: usize,
    /// My slice of the iterate `x`.
    x: Vec<f64>,
    /// Off-diagonal accumulator `Σ_{j∉mine or j≠i} a_ij·x_j` per owned row.
    acc: Vec<f64>,
}

impl JacobiApp {
    /// Build rank `me`'s row block; `x` starts at zero.
    pub fn new(sys: LinearSystem, ranges: &[Range<usize>], me: usize, cfg: JacobiConfig) -> Self {
        let mine = ranges[me].clone();
        JacobiApp {
            cfg,
            sys,
            ranges: ranges.to_vec(),
            me,
            x: vec![0.0; mine.len()],
            acc: vec![0.0; mine.len()],
        }
    }

    /// My slice of the current iterate.
    pub fn values(&self) -> &[f64] {
        &self.x
    }

    /// Bit-exact fingerprint of my slice of the iterate.
    pub fn fingerprint(&self) -> u64 {
        obs::fingerprint_f64s(&self.x)
    }
}

/// Accumulate `a_ij·x_j` for `j` in the `cols` column block into every
/// `mine` row's accumulator. A free function over disjoint borrows so
/// `begin_iteration` can feed the app's own `x` without cloning it.
/// Returns entries touched.
fn accumulate_block(
    sys: &LinearSystem,
    mine: Range<usize>,
    cols: Range<usize>,
    xs: &[f64],
    acc: &mut [f64],
) -> u64 {
    debug_assert_eq!(xs.len(), cols.len());
    let n = sys.n;
    let mut touched = 0u64;
    for (local_i, i) in mine.enumerate() {
        let row = &sys.a[i * n..(i + 1) * n];
        let mut s = 0.0;
        for (offset, j) in cols.clone().enumerate() {
            if j != i {
                s += row[j] * xs[offset];
                touched += 1;
            }
        }
        acc[local_i] += s;
    }
    touched
}

impl SpeculativeApp for JacobiApp {
    type Shared = Vec<f64>;
    type Checkpoint = Vec<f64>;

    fn shared(&self) -> Vec<f64> {
        self.x.clone()
    }

    fn begin_iteration(&mut self) -> u64 {
        self.acc.fill(0.0);
        let mine = self.ranges[self.me].clone();
        let touched = accumulate_block(&self.sys, mine.clone(), mine, &self.x, &mut self.acc);
        self.cfg.ops_per_entry * touched
    }

    fn absorb(&mut self, from: Rank, xs: &Vec<f64>) -> u64 {
        let mine = self.ranges[self.me].clone();
        let cols = self.ranges[from.0].clone();
        let touched = accumulate_block(&self.sys, mine, cols, xs, &mut self.acc);
        self.cfg.ops_per_entry * touched
    }

    fn finish_iteration(&mut self) -> u64 {
        let mine = self.ranges[self.me].clone();
        let n = self.sys.n;
        for (local_i, i) in mine.enumerate() {
            let diag = self.sys.a[i * n + i];
            self.x[local_i] = (self.sys.b[i] - self.acc[local_i]) / diag;
        }
        3 * self.x.len() as u64
    }

    fn speculate(
        &self,
        _from: Rank,
        hist: &History<Vec<f64>>,
        ahead: u32,
    ) -> Option<(Vec<f64>, u64)> {
        let values = speculator::elementwise(hist, |h| speculator::extrapolate_linear(h, ahead))?;
        let cost = 4 * values.len() as u64;
        Some((values, cost))
    }

    fn check(&self, _from: Rank, actual: &Vec<f64>, speculated: &Vec<f64>) -> CheckOutcome {
        let mut max_error: f64 = 0.0;
        let mut max_accepted: f64 = 0.0;
        let mut bad = 0u64;
        for (a, s) in actual.iter().zip(speculated) {
            let err = (a - s).abs() / a.abs().max(1e-6);
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
            checked_units: actual.len() as u64,
            bad_units: bad,
            ops: 4 * actual.len() as u64,
        }
    }

    fn correct(&mut self, from: Rank, speculated: &Vec<f64>, actual: &Vec<f64>) -> u64 {
        // x_i = (b_i − Σ a_ij x_j)/a_ii is linear in every x_j: repair by
        // re-applying the column deltas through the diagonal.
        let mine = self.ranges[self.me].clone();
        let cols = self.ranges[from.0].clone();
        let n = self.sys.n;
        let mut touched = 0u64;
        for (local_i, i) in mine.enumerate() {
            let row = &self.sys.a[i * n..(i + 1) * n];
            let diag = self.sys.a[i * n + i];
            let mut delta = 0.0;
            for (offset, j) in cols.clone().enumerate() {
                if j != i {
                    delta += row[j] * (actual[offset] - speculated[offset]);
                    touched += 1;
                }
            }
            self.x[local_i] -= delta / diag;
        }
        self.cfg.ops_per_entry * touched
    }

    fn delta_extract(&self, shared: &Vec<f64>, out: &mut Vec<f64>) -> bool {
        out.clear();
        out.extend_from_slice(shared);
        true
    }

    fn delta_patch(&self, base: &Vec<f64>, entries: &[(u32, f64)]) -> Option<Vec<f64>> {
        let mut next = base.clone();
        for &(lane, value) in entries {
            // The lane is the peer's word: out of range drops the frame.
            *next.get_mut(lane as usize)? = value;
        }
        Some(next)
    }

    fn checkpoint(&self) -> Vec<f64> {
        self.x.clone()
    }

    fn checkpoint_into(&self, slot: &mut Option<Vec<f64>>) {
        match slot {
            Some(c) => c.clone_from(&self.x),
            None => *slot = Some(self.checkpoint()),
        }
    }

    fn restore(&mut self, c: &Vec<f64>) {
        self.x.clone_from(c);
    }
}

/// Sequential Jacobi reference.
#[cfg(test)]
fn jacobi_reference(sys: &LinearSystem, iters: u64) -> Vec<f64> {
    let n = sys.n;
    let mut x = vec![0.0; n];
    for _ in 0..iters {
        let mut next = vec![0.0; n];
        for i in 0..n {
            let row = &sys.a[i * n..(i + 1) * n];
            let mut s = 0.0;
            for (j, xj) in x.iter().enumerate() {
                if j != i {
                    s += row[j] * xj;
                }
            }
            next[i] = (sys.b[i] - s) / row[i];
        }
        x = next;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn even_ranges(n: usize, p: usize) -> Vec<Range<usize>> {
        (0..p).map(|i| i * n / p..(i + 1) * n / p).collect()
    }

    fn run_by_hand(sys: &LinearSystem, p: usize, iters: u64) -> Vec<f64> {
        let ranges = even_ranges(sys.n, p);
        let cfg = JacobiConfig::default();
        let mut apps: Vec<JacobiApp> = (0..p)
            .map(|me| JacobiApp::new(sys.clone(), &ranges, me, cfg))
            .collect();
        for _ in 0..iters {
            let shared: Vec<Vec<f64>> = apps.iter().map(|a| a.shared()).collect();
            for (me, app) in apps.iter_mut().enumerate() {
                app.begin_iteration();
                for (k, xs) in shared.iter().enumerate() {
                    if k != me {
                        app.absorb(Rank(k), xs);
                    }
                }
                app.finish_iteration();
            }
        }
        apps.iter()
            .flat_map(|a| a.values().iter().copied())
            .collect()
    }

    #[test]
    fn system_is_diagonally_dominant() {
        let sys = LinearSystem::random(30, 5);
        for i in 0..sys.n {
            let row = &sys.a[i * sys.n..(i + 1) * sys.n];
            let off: f64 = row
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(row[i] > off, "row {i} not dominant");
        }
    }

    #[test]
    fn jacobi_converges_to_the_solution() {
        let sys = LinearSystem::random(25, 7);
        let x = jacobi_reference(&sys, 200);
        assert!(sys.residual(&x) < 1e-8, "residual {}", sys.residual(&x));
    }

    #[test]
    fn parallel_matches_sequential_closely() {
        let sys = LinearSystem::random(24, 3);
        let got = run_by_hand(&sys, 4, 30);
        let want = jacobi_reference(&sys, 30);
        for (a, b) in got.iter().zip(&want) {
            assert!(
                (a - b).abs() < 1e-12,
                "parallel jacobi diverged: {a} vs {b}"
            );
        }
    }

    #[test]
    fn correction_is_exact() {
        let sys = LinearSystem::random(20, 9);
        let ranges = even_ranges(20, 2);
        let cfg = JacobiConfig::default();
        let actual = vec![0.5; 10];
        let spec: Vec<f64> = actual.iter().map(|v| v + 0.07).collect();

        let mut golden = JacobiApp::new(sys.clone(), &ranges, 0, cfg);
        golden.begin_iteration();
        golden.absorb(Rank(1), &actual);
        golden.finish_iteration();

        let mut fixed = JacobiApp::new(sys, &ranges, 0, cfg);
        fixed.begin_iteration();
        fixed.absorb(Rank(1), &spec);
        fixed.finish_iteration();
        fixed.correct(Rank(1), &spec, &actual);

        for (a, b) in golden.values().iter().zip(fixed.values()) {
            assert!((a - b).abs() < 1e-12, "correction residue {a} vs {b}");
        }
    }

    #[test]
    fn residual_detects_wrong_solutions() {
        let sys = LinearSystem::random(10, 1);
        let solved = jacobi_reference(&sys, 300);
        let mut wrong = solved.clone();
        wrong[0] += 1.0;
        assert!(sys.residual(&solved) < 1e-9);
        assert!(sys.residual(&wrong) > 0.1);
    }

    #[test]
    fn generation_is_seeded() {
        let a = LinearSystem::random(12, 3);
        let b = LinearSystem::random(12, 3);
        let c = LinearSystem::random(12, 4);
        assert_eq!(a.a, b.a);
        assert_ne!(a.a, c.a);
    }
}
