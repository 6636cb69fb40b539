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
use speccore::{CheckOutcome, SpeculativeApp};

use crate::lanes;

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
        let xs = &xs[..lanes::prefix(self.ranges[k].len(), xs)];
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

    fn check(&self, from: Rank, actual: &Vec<f64>, speculated: &Vec<f64>) -> CheckOutcome {
        let expected = self.ranges[from.0].len();
        lanes::check(actual, speculated, expected, self.cfg.theta, 1e-12, 6)
    }

    fn correct(&mut self, from: Rank, speculated: &Vec<f64>, actual: &Vec<f64>) -> u64 {
        // Contributions are linear in the source scores: re-scatter the
        // score deltas through the damping factor.
        let mine = self.ranges[self.me].clone();
        let start = self.ranges[from.0].start;
        let n = lanes::prefix(self.ranges[from.0].len(), actual);
        let d = self.cfg.damping;
        let mut scanned = 0u64;
        for (offset, (&a, &s)) in actual[..n].iter().zip(speculated).enumerate() {
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
        let actual = vec![0.05; 10];
        let mut spec = actual.clone();
        spec[1] = 0.10;
        let out = app.check(Rank(1), &actual, &spec);
        assert!(!out.accept);
        assert_eq!(out.bad_units, 1);
    }

    /// A peer's score vector is as long as the peer says: one longer than
    /// the last partition must not scatter past the graph, a shorter one
    /// is used on its prefix, and `check` rejects either whole.
    #[test]
    fn wrong_length_scores_are_rejected_without_panicking() {
        let g = Graph::random(20, 3, 5);
        let ranges = even_ranges(20, 2);
        let cfg = PageRankConfig::default();
        for len in [13, 7, 0] {
            let mut app = PageRankApp::new(g.clone(), &ranges, 0, cfg);
            let xs = vec![0.05; len];
            app.begin_iteration();
            let nodes = len.min(10) as u64;
            assert_eq!(app.absorb(Rank(1), &xs), 10 * 3 * nodes, "len {len}");
            app.finish_iteration();
            let out = app.check(Rank(1), &xs, &vec![0.05; 10]);
            assert!(!out.accept, "len {len}");
            assert_eq!(
                (out.checked_units, out.bad_units),
                (nodes, nodes),
                "len {len}"
            );
            let spec = vec![0.06; 10];
            assert_eq!(
                app.correct(Rank(1), &spec, &xs),
                10 * 3 * nodes,
                "len {len}"
            );
            assert!(app.scores().iter().all(|v| v.is_finite()));
        }
    }
}
