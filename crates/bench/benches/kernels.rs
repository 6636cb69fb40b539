//! Criterion microbenchmarks of the computational kernels — the O(N²)
//! force accumulation, the eq. 10 speculation and eq. 11 check (the paper's
//! 70/12/24-operation cost trio), the Barnes–Hut comparator — plus a
//! wall-clock throughput A/B of the scalar reference force kernels (self,
//! partition, incremental correction) against the cache-blocked SoA
//! engine, persisted as `BENCH_kernels.json`.
//!
//! The throughput numbers are wall-clock only: both engines charge the
//! identical modelled op counts to the virtual-time simulation, so nothing
//! here feeds back into the paper-reproduction figures.

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use mpk::Rank;
use nbody::barnes_hut::{BhConfig, Octree};
use nbody::forces::{
    accumulate_partition, accumulate_partition_soa, accumulate_self, accumulate_self_soa,
    correct_partition, correct_partition_soa, CorrectionScratch,
};
use nbody::{
    partition_proportional, split_soa, uniform_cloud, NBodyApp, NBodyConfig, PartitionShared, Soa3,
    SoaBodies, SpeculationOrder, Vec3, ZERO3,
};
use obs::Json;
use speccore::{History, SpeculativeApp};

fn remote_share(particles: &[nbody::Particle], range: std::ops::Range<usize>) -> PartitionShared {
    let pos: Vec<Vec3> = particles[range.clone()].iter().map(|p| p.pos).collect();
    let vel: Vec<Vec3> = particles[range].iter().map(|p| p.vel).collect();
    PartitionShared::from_vec3s(&pos, &vel)
}

fn bench_force_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("force_kernel");
    group.sample_size(20);
    for n in [100usize, 400] {
        let particles = uniform_cloud(n, 1);
        let ranges = partition_proportional(n, &[1.0, 1.0]);
        group.bench_with_input(BenchmarkId::new("partition_absorb", n), &n, |b, _| {
            let mut app = NBodyApp::new(
                &particles,
                ranges.clone(),
                0,
                NBodyConfig::default(),
                SpeculationOrder::Linear,
            );
            let remote = std::sync::Arc::new(remote_share(&particles, n / 2..n));
            b.iter(|| {
                app.begin_iteration();
                let ops = app.absorb(Rank(1), black_box(&remote));
                app.finish_iteration();
                black_box(ops)
            });
        });
    }
    group.finish();
}

fn bench_speculate_and_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("speculation");
    group.sample_size(30);
    let n = 400;
    let particles = uniform_cloud(n, 2);
    let ranges = partition_proportional(n, &[1.0, 1.0]);
    let app = NBodyApp::new(
        &particles,
        ranges,
        0,
        NBodyConfig::default(),
        SpeculationOrder::Linear,
    );
    let remote = std::sync::Arc::new(remote_share(&particles, n / 2..n));
    let mut hist = History::new(3);
    hist.record(0, remote.clone());
    hist.record(1, remote.clone());

    group.bench_function("speculate_eq10_200_particles", |b| {
        b.iter(|| black_box(app.speculate(Rank(1), black_box(&hist), 1)));
    });
    let (spec, _) = app.speculate(Rank(1), &hist, 1).unwrap();
    group.bench_function("check_eq11_200_particles", |b| {
        b.iter(|| black_box(app.check(Rank(1), black_box(&remote), black_box(&spec))));
    });
    group.finish();
}

fn bench_barnes_hut_vs_direct(c: &mut Criterion) {
    let mut group = c.benchmark_group("bh_vs_direct");
    group.sample_size(10);
    for n in [200usize, 800] {
        let particles = uniform_cloud(n, 3);
        group.bench_with_input(BenchmarkId::new("direct_n2", n), &n, |b, _| {
            let ranges = partition_proportional(n, &[1.0]);
            let mut app = NBodyApp::new(
                &particles,
                ranges,
                0,
                NBodyConfig::default(),
                SpeculationOrder::Linear,
            );
            b.iter(|| {
                black_box(app.begin_iteration());
            });
        });
        group.bench_with_input(BenchmarkId::new("barnes_hut", n), &n, |b, _| {
            b.iter(|| {
                let tree = Octree::build(black_box(&particles), BhConfig::default());
                black_box(tree.accel_on_all(&particles))
            });
        });
    }
    group.finish();
}

fn bench_partitioning(c: &mut Criterion) {
    let caps: Vec<f64> = (0..16).map(|i| 120.0 - 7.0 * i as f64).collect();
    c.bench_function("partition_proportional_100k_over_16", |b| {
        b.iter(|| black_box(partition_proportional(black_box(100_000), &caps)));
    });
}

criterion_group!(
    benches,
    bench_force_kernel,
    bench_speculate_and_check,
    bench_barnes_hut_vs_direct,
    bench_partitioning
);

/// One wall-clock throughput measurement of a force kernel: `pairs`
/// modelled pair interactions evaluated in `secs` median seconds.
struct KernelRow {
    /// Kernel under test (`"scalar_self"`, `"soa_self"`, `"soa_correct"`, …).
    kernel: String,
    /// Problem size N.
    n: usize,
    /// Modelled pair interactions per evaluation (N·(N−1) for the
    /// self-kernel, N_t·N_s for the partition kernel, 2·N_t·N_bad for the
    /// correction kernel) — the same count the desim op accounting
    /// charges, so speedups here never touch the simulated-time results.
    pairs: u64,
    /// Median seconds per evaluation.
    secs: f64,
}

impl KernelRow {
    /// Throughput in modelled pair interactions per second.
    fn pairs_per_sec(&self) -> f64 {
        self.pairs as f64 / self.secs
    }
}

/// Write the rows as `BENCH_kernels.json` in the directory named by
/// `SPEC_BENCH_OUT` (default: the current one), creating it if needed.
fn write_artifact(rows: &[KernelRow]) -> std::io::Result<PathBuf> {
    let row = |r: &KernelRow| {
        Json::obj([
            ("kernel", Json::Str(r.kernel.clone())),
            ("n", Json::U64(r.n as u64)),
            ("pairs", Json::U64(r.pairs)),
            ("secs", Json::F64(r.secs)),
            ("pairs_per_sec", Json::F64(r.pairs_per_sec())),
        ])
    };
    let doc = Json::obj([
        ("name", Json::Str("kernels".into())),
        ("kind", Json::Str("force_kernel_throughput".into())),
        ("rows", Json::Arr(rows.iter().map(row).collect())),
    ]);
    let dir = std::env::var_os("SPEC_BENCH_OUT").map_or_else(|| PathBuf::from("."), PathBuf::from);
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("BENCH_kernels.json");
    std::fs::write(&path, format!("{doc}\n"))?;
    Ok(path)
}

/// Median wall-clock seconds for one call of `eval`, over `samples`
/// batches of `reps` calls each (reps sized so a batch is long enough for
/// `Instant` resolution).
fn median_secs(samples: usize, reps: u32, mut eval: impl FnMut()) -> f64 {
    eval(); // warm caches and page in the buffers
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                eval();
            }
            t0.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// Scalar-vs-SoA throughput A/B at the ISSUE's N ∈ {1024, 4096}, reported
/// in modelled pairs/sec (the desim accounting's pair counts, so the SoA
/// self-kernel's Newton's-third-law halving shows up as throughput).
fn throughput_ab() -> Vec<KernelRow> {
    let samples = 5;
    let mut rows = Vec::new();
    for n in [1024usize, 4096] {
        // Each sample batch should take O(10ms): one N=4096 self-eval is
        // already ~10⁷ pair updates, so scale reps down as N² grows.
        let reps: u32 = if n <= 1024 { 8 } else { 1 };
        let bodies = SoaBodies::from_particles(&uniform_cloud(n, 42));
        let ranges = partition_proportional(n, &[1.0, 1.0]);
        let parts = split_soa(&bodies, &ranges);
        let (half_a, half_b) = (&parts[0], &parts[1]);

        // AoS mirrors for the scalar reference kernels.
        let pos = bodies.pos.to_vec3s();
        let mass = bodies.mass.clone();
        let a_pos = half_a.pos.to_vec3s();
        let b_pos = half_b.pos.to_vec3s();
        let b_mass = half_b.mass.clone();

        let self_pairs = (n as u64) * (n as u64 - 1);
        let part_pairs = (half_a.len() as u64) * (half_b.len() as u64);

        let mut acc_aos = vec![ZERO3; n];
        rows.push(KernelRow {
            kernel: "scalar_self".into(),
            n,
            pairs: self_pairs,
            secs: median_secs(samples, reps, || {
                acc_aos.iter_mut().for_each(|a| *a = ZERO3);
                black_box(accumulate_self(
                    black_box(&pos),
                    &mass,
                    &mut acc_aos,
                    1.0,
                    0.05,
                ));
            }),
        });
        let mut acc_soa = Soa3::zeros(n);
        rows.push(KernelRow {
            kernel: "soa_self".into(),
            n,
            pairs: self_pairs,
            secs: median_secs(samples, reps, || {
                acc_soa.fill(ZERO3);
                black_box(accumulate_self_soa(
                    black_box(&bodies.pos),
                    &mass,
                    &mut acc_soa,
                    1.0,
                    0.05,
                ));
            }),
        });

        let mut acc_aos = vec![ZERO3; half_a.len()];
        rows.push(KernelRow {
            kernel: "scalar_partition".into(),
            n,
            pairs: part_pairs,
            secs: median_secs(samples, reps, || {
                acc_aos.iter_mut().for_each(|a| *a = ZERO3);
                black_box(accumulate_partition(
                    black_box(&a_pos),
                    &mut acc_aos,
                    &b_pos,
                    &b_mass,
                    1.0,
                    0.05,
                ));
            }),
        });
        let mut acc_soa = Soa3::zeros(half_a.len());
        rows.push(KernelRow {
            kernel: "soa_partition".into(),
            n,
            pairs: part_pairs,
            secs: median_secs(samples, reps, || {
                acc_soa.fill(ZERO3);
                black_box(accumulate_partition_soa(
                    black_box(&half_a.pos),
                    &mut acc_soa,
                    &half_b.pos,
                    &b_mass,
                    1.0,
                    0.05,
                ));
            }),
        });

        // Incremental correction of half A after a speculation of half B in
        // which every tenth particle was off: θ = 0 fails exactly those.
        // Two pair evaluations (retract, re-apply) per (bad source,
        // target), as the op accounting charges. A correction is a tenth
        // of a partition evaluation, hence the longer batches.
        let cfg = NBodyConfig::default().with_theta(0.0);
        let mut spec = half_b.pos.clone();
        spec.x.iter_mut().step_by(10).for_each(|x| *x += 0.05);
        let spec_aos = spec.to_vec3s();
        let correct_pairs = 2 * half_a.len() as u64 * half_b.len().div_ceil(10) as u64;

        let (mut pos_aos, mut vel_aos) = (a_pos.clone(), half_a.vel.to_vec3s());
        rows.push(KernelRow {
            kernel: "scalar_correct".into(),
            n,
            pairs: correct_pairs,
            secs: median_secs(samples, reps * 8, || {
                black_box(correct_partition(
                    &mut pos_aos,
                    &mut vel_aos,
                    black_box(&a_pos),
                    &spec_aos,
                    &b_pos,
                    &b_mass,
                    ZERO3,
                    1.0,
                    &cfg,
                ));
            }),
        });
        let (mut pos_soa, mut vel_soa) = (half_a.pos.clone(), half_a.vel.clone());
        let mut scratch = CorrectionScratch::default();
        rows.push(KernelRow {
            kernel: "soa_correct".into(),
            n,
            pairs: correct_pairs,
            secs: median_secs(samples, reps * 8, || {
                black_box(correct_partition_soa(
                    &mut pos_soa,
                    &mut vel_soa,
                    black_box(&half_a.pos),
                    &spec,
                    &half_b.pos,
                    &b_mass,
                    ZERO3,
                    1.0,
                    &cfg,
                    &mut scratch,
                ));
            }),
        });
    }
    rows
}

fn main() {
    benches();

    println!("\nforce-kernel throughput (modelled pairs/sec):");
    let rows = throughput_ab();
    for row in &rows {
        println!(
            "  {:<18} N={:<5} {:>8.2} Mpairs/s  ({:.3} ms/eval)",
            row.kernel,
            row.n,
            row.pairs_per_sec() / 1e6,
            row.secs * 1e3
        );
    }
    let speedup_at = |n: usize| {
        let get = |k: &str| {
            rows.iter()
                .find(|r| r.kernel == k && r.n == n)
                .map(KernelRow::pairs_per_sec)
                .unwrap_or(f64::NAN)
        };
        ["self", "partition", "correct"]
            .map(|k| get(&format!("soa_{k}")) / get(&format!("scalar_{k}")))
    };
    for n in [1024usize, 4096] {
        let [s, p, c] = speedup_at(n);
        println!("  N={n}: SoA speedup self {s:.2}x, partition {p:.2}x, correct {c:.2}x");
    }
    match write_artifact(&rows) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write kernels artifact: {e}"),
    }
}
