//! PageRank power iteration as a speculative synchronous iterative
//! algorithm.
//!
//! Node ranks are partitioned over processors; every iteration each rank
//! broadcasts its partition's scores, absorbs every peer's scores through
//! the (globally known, seeded) edge structure, and applies the damped
//! update. Scores change slowly once the iteration starts converging, so
//! linear extrapolation speculates them well — and contributions are
//! linear in the scores, so corrections are exact.

use std::ops::Range;

use desim::rng::derive_seed;
use mpk::Rank;
use speccore::{speculator, CheckOutcome, History, SpeculativeApp};

/// A seeded random directed graph with a fixed out-degree.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Number of nodes.
    pub n: usize,
    /// `edges[j]` lists the targets of node `j`'s out-edges.
    pub edges: Vec<Vec<usize>>,
}

impl Graph {
    /// Generate a graph where every node has `out_degree` random out-edges
    /// (self-loops excluded, duplicates allowed as in a multigraph).
    pub fn random(n: usize, out_degree: usize, seed: u64) -> Self {
        assert!(n >= 2);
        let edges = (0..n)
            .map(|j| {
                (0..out_degree)
                    .map(|e| {
                        let h = derive_seed(seed, (j as u64) << 24 | e as u64);
                        let mut t = (h % (n as u64 - 1)) as usize;
                        if t >= j {
                            t += 1; // skip self
                        }
                        t
                    })
                    .collect()
            })
            .collect();
        Graph { n, edges }
    }

    /// Out-degree of node `j`.
    fn out_degree(&self, j: usize) -> usize {
        self.edges[j].len()
    }
}

/// PageRank parameters.
#[derive(Clone, Copy, Debug)]
pub struct PageRankConfig {
    /// Damping factor d (usually 0.85).
    pub damping: f64,
    /// Relative error threshold θ for speculated scores.
    pub theta: f64,
    /// Operations charged per edge scanned.
    pub ops_per_edge: u64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            theta: 0.01,
            ops_per_edge: 10,
        }
    }
}

/// One rank's partition of the score vector.
pub struct PageRankApp {
    cfg: PageRankConfig,
    graph: Graph,
    ranges: Vec<Range<usize>>,
    me: usize,
    /// Scores of my nodes.
    r: Vec<f64>,
    /// Incoming contribution accumulator for my nodes.
    acc: Vec<f64>,
}

impl PageRankApp {
    /// Build rank `me`'s partition. Scores start uniform (1/n).
    pub fn new(graph: Graph, ranges: &[Range<usize>], me: usize, cfg: PageRankConfig) -> Self {
        let mine = ranges[me].clone();
        let r = vec![1.0 / graph.n as f64; mine.len()];
        let acc = vec![0.0; mine.len()];
        PageRankApp {
            cfg,
            graph,
            ranges: ranges.to_vec(),
            me,
            r,
            acc,
        }
    }

    /// My nodes' current scores.
    pub fn scores(&self) -> &[f64] {
        &self.r
    }

    /// Bit-exact fingerprint of my nodes' scores.
    pub fn fingerprint(&self) -> u64 {
        obs::fingerprint_f64s(&self.r)
    }

    /// Add the contributions of partition `k` (scores `xs`) into `acc`.
    /// Returns edges scanned.
    fn scatter(&mut self, k: usize, xs: &[f64]) -> u64 {
        let mine = self.ranges[self.me].clone();
        let start = self.ranges[k].start;
        let mut scanned = 0u64;
        for (offset, &score) in xs.iter().enumerate() {
            let j = start + offset;
            let share = score / self.graph.out_degree(j) as f64;
            for &t in &self.graph.edges[j] {
                scanned += 1;
                if mine.contains(&t) {
                    self.acc[t - mine.start] += share;
                }
            }
        }
        scanned
    }
}

impl SpeculativeApp for PageRankApp {
    type Shared = Vec<f64>;
    type Checkpoint = Vec<f64>;

    fn shared(&self) -> Vec<f64> {
        self.r.clone()
    }

    fn begin_iteration(&mut self) -> u64 {
        self.acc.fill(0.0);
        let mine = self.shared();
        let edges = self.scatter(self.me, &mine);
        self.cfg.ops_per_edge * edges
    }

    fn absorb(&mut self, from: Rank, xs: &Vec<f64>) -> u64 {
        let edges = self.scatter(from.0, xs);
        self.cfg.ops_per_edge * edges
    }

    fn finish_iteration(&mut self) -> u64 {
        let n = self.graph.n as f64;
        let d = self.cfg.damping;
        for (r, a) in self.r.iter_mut().zip(&self.acc) {
            *r = (1.0 - d) / n + d * a;
        }
        self.r.len() as u64 * 4
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
            let err = (a - s).abs() / a.abs().max(1e-12);
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
            ops: 6 * actual.len() as u64,
        }
    }

    fn correct(&mut self, from: Rank, speculated: &Vec<f64>, actual: &Vec<f64>) -> u64 {
        // Contributions are linear in the source scores: re-scatter the
        // score deltas through the damping factor.
        let mine = self.ranges[self.me].clone();
        let start = self.ranges[from.0].start;
        let d = self.cfg.damping;
        let mut scanned = 0u64;
        for (offset, (&a, &s)) in actual.iter().zip(speculated).enumerate() {
            let delta = a - s;
            if delta == 0.0 {
                continue;
            }
            let j = start + offset;
            let share = delta / self.graph.out_degree(j) as f64;
            for &t in &self.graph.edges[j] {
                scanned += 1;
                if mine.contains(&t) {
                    self.r[t - mine.start] += d * share;
                }
            }
        }
        self.cfg.ops_per_edge * scanned
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
        self.r.clone()
    }

    fn restore(&mut self, c: &Vec<f64>) {
        self.r.clone_from(c);
    }
}

/// Sequential reference PageRank (`iters` power iterations).
pub fn pagerank_reference(graph: &Graph, cfg: PageRankConfig, iters: u64) -> Vec<f64> {
    let n = graph.n;
    let mut r = vec![1.0 / n as f64; n];
    for _ in 0..iters {
        let mut acc = vec![0.0; n];
        #[allow(clippy::needless_range_loop)] // j indexes both scores and edges
        for j in 0..n {
            let share = r[j] / graph.out_degree(j) as f64;
            for &t in &graph.edges[j] {
                acc[t] += share;
            }
        }
        for i in 0..n {
            r[i] = (1.0 - cfg.damping) / n as f64 + cfg.damping * acc[i];
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn even_ranges(n: usize, p: usize) -> Vec<Range<usize>> {
        (0..p).map(|i| i * n / p..(i + 1) * n / p).collect()
    }

    fn run_by_hand(graph: &Graph, p: usize, iters: u64) -> Vec<f64> {
        let ranges = even_ranges(graph.n, p);
        let cfg = PageRankConfig::default();
        let mut apps: Vec<PageRankApp> = (0..p)
            .map(|me| PageRankApp::new(graph.clone(), &ranges, me, cfg))
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
            .flat_map(|a| a.scores().iter().copied())
            .collect()
    }

    proptest::proptest! {
        /// `Graph::out_degree` agrees with the adjacency it summarises, and
        /// `Graph::random(n, d, seed)` gives every node exactly `d`
        /// out-edges with in-range targets.
        #[test]
        fn graph_out_degree_is_consistent(
            n in 2usize..40,
            d in 1usize..6,
            seed in 0u64..1_000,
        ) {
            let g = Graph::random(n, d, seed);
            proptest::prop_assert_eq!(g.n, n);
            for j in 0..n {
                proptest::prop_assert_eq!(g.out_degree(j), g.edges[j].len());
                proptest::prop_assert_eq!(g.out_degree(j), d);
                for &t in &g.edges[j] {
                    proptest::prop_assert!(t < n, "edge {j}->{t} out of range");
                }
            }
        }
    }

    #[test]
    fn graph_has_no_self_loops() {
        let g = Graph::random(50, 4, 3);
        for (j, targets) in g.edges.iter().enumerate() {
            assert_eq!(targets.len(), 4);
            assert!(targets.iter().all(|&t| t != j && t < 50));
        }
    }

    #[test]
    fn graph_is_seeded() {
        assert_eq!(Graph::random(20, 3, 9).edges, Graph::random(20, 3, 9).edges);
        assert_ne!(
            Graph::random(20, 3, 9).edges,
            Graph::random(20, 3, 10).edges
        );
    }

    #[test]
    fn scores_sum_to_one() {
        let g = Graph::random(40, 3, 1);
        let r = pagerank_reference(&g, PageRankConfig::default(), 50);
        let total: f64 = r.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "PageRank mass leaked: {total}");
        assert!(r.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn parallel_matches_sequential_closely() {
        let g = Graph::random(40, 3, 2);
        let got = run_by_hand(&g, 4, 30);
        let want = pagerank_reference(&g, PageRankConfig::default(), 30);
        for (a, b) in got.iter().zip(&want) {
            assert!(
                (a - b).abs() < 1e-12,
                "parallel pagerank diverged: {a} vs {b}"
            );
        }
    }

    #[test]
    fn power_iteration_converges() {
        let g = Graph::random(30, 4, 7);
        let cfg = PageRankConfig::default();
        let r30 = pagerank_reference(&g, cfg, 30);
        let r60 = pagerank_reference(&g, cfg, 60);
        let diff: f64 = r30.iter().zip(&r60).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff < 1e-6, "not converged: {diff}");
    }

    #[test]
    fn correction_is_exact() {
        let g = Graph::random(20, 3, 5);
        let ranges = even_ranges(20, 2);
        let cfg = PageRankConfig::default();
        let actual = vec![0.05; 10];
        let spec: Vec<f64> = actual.iter().map(|v| v + 0.01).collect();

        let mut golden = PageRankApp::new(g.clone(), &ranges, 0, cfg);
        golden.begin_iteration();
        golden.absorb(Rank(1), &actual);
        golden.finish_iteration();

        let mut fixed = PageRankApp::new(g, &ranges, 0, cfg);
        fixed.begin_iteration();
        fixed.absorb(Rank(1), &spec);
        fixed.finish_iteration();
        fixed.correct(Rank(1), &spec, &actual);

        for (a, b) in golden.scores().iter().zip(fixed.scores()) {
            assert!((a - b).abs() < 1e-15, "correction residue {a} vs {b}");
        }
    }

    #[test]
    fn check_counts_bad_scores() {
        let g = Graph::random(20, 3, 5);
        let ranges = even_ranges(20, 2);
        let app = PageRankApp::new(g, &ranges, 0, PageRankConfig::default());
        let actual = vec![0.05, 0.05];
        let spec = vec![0.05, 0.10];
        let out = app.check(Rank(1), &actual, &spec);
        assert!(!out.accept);
        assert_eq!(out.bad_units, 1);
    }
}
