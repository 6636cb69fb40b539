//! The SoA engine's headline contract: bit-for-bit equality with the
//! scalar reference kernels, and — through the full speculative driver —
//! unchanged simulated time, statistics, and particle trajectories.
//!
//! The `engine_fingerprint_*` tests pin exact end-to-end run fingerprints
//! (virtual end time, a particle-state bit hash, and every per-rank
//! counter) captured from the pre-SoA scalar engine. Any change to the
//! floating-point behaviour or the modelled op counts of the force path
//! shows up here as a hard failure.

use desim::SimDuration;
use mpk::{run_thread_cluster, ThreadClusterOptions, Transport};
use nbody::forces::{
    accumulate_partition, accumulate_partition_soa, accumulate_self, accumulate_self_soa,
    correct_partition, correct_partition_soa, CorrectionScratch, OPS_PER_PAIR,
};
use nbody::integrate::step_partition_order;
use nbody::{
    centered_cloud, partition_proportional, run_parallel, uniform_cloud, NBodyApp, NBodyConfig,
    ParallelRunConfig, ParallelRunResult, PartitionShared, Soa3, SpeculationOrder, Vec3, ZERO3,
};
use netsim::{ClusterSpec, ConstantLatency, MachineSpec, Unloaded};
use speccore::{run_speculative, CorrectionMode, IterMsg, RunStats, SpecConfig};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Kernel-level bit equality
// ---------------------------------------------------------------------------

mod kernel_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The blocked symmetric self-kernel is bit-identical to the
        /// scalar reference for arbitrary sizes and seeds (tile interior,
        /// remainder lanes, and the Newton's-third-law pairing all agree).
        #[test]
        fn self_kernel_bits_match(n in 1usize..260, seed in 0u64..1000) {
            let particles = uniform_cloud(n, seed);
            let pos: Vec<Vec3> = particles.iter().map(|p| p.pos).collect();
            let mass: Vec<f64> = particles.iter().map(|p| p.mass).collect();

            let mut acc_ref = vec![ZERO3; n];
            let ops_ref = accumulate_self(&pos, &mass, &mut acc_ref, 1.0, 0.05);

            let soa_pos = Soa3::from_vec3s(&pos);
            let mut acc_soa = Soa3::zeros(n);
            let ops_soa = accumulate_self_soa(&soa_pos, &mass, &mut acc_soa, 1.0, 0.05);

            prop_assert_eq!(ops_ref, ops_soa);
            for (i, want) in acc_ref.iter().enumerate() {
                prop_assert_eq!(
                    acc_soa.get(i).to_bits_triplet(),
                    want.to_bits_triplet(),
                    "particle {}", i
                );
            }
        }

        /// Same for the target×source partition kernel, with an arbitrary
        /// split point.
        #[test]
        fn partition_kernel_bits_match(
            n in 2usize..300,
            seed in 0u64..1000,
            split_ppm in 1u32..999,
        ) {
            let split = ((n as u64 * split_ppm as u64) / 1000).max(1) as usize;
            let particles = uniform_cloud(n, seed);
            let pos: Vec<Vec3> = particles.iter().map(|p| p.pos).collect();
            let mass: Vec<f64> = particles.iter().map(|p| p.mass).collect();
            let (tgt, src) = pos.split_at(split);
            let src_mass = &mass[split..];

            let mut acc_ref = vec![ZERO3; tgt.len()];
            let ops_ref = accumulate_partition(tgt, &mut acc_ref, src, src_mass, 1.0, 0.05);

            let tgt_soa = Soa3::from_vec3s(tgt);
            let src_soa = Soa3::from_vec3s(src);
            let mut acc_soa = Soa3::zeros(tgt.len());
            let ops_soa =
                accumulate_partition_soa(&tgt_soa, &mut acc_soa, &src_soa, src_mass, 1.0, 0.05);

            prop_assert_eq!(ops_ref, ops_soa);
            for (i, want) in acc_ref.iter().enumerate() {
                prop_assert_eq!(
                    acc_soa.get(i).to_bits_triplet(),
                    want.to_bits_triplet(),
                    "target {}", i
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The register-blocked correction kernel is bit-identical to its
        /// scalar twin in `pos`, `vel` and the op count: target counts
        /// below, at and off multiples of the block width, every shape of
        /// bad set (`mode` 0 none, 1 every third source, 2 all — θ = 0 —
        /// and 3 θ set to one source's own error, which that source passes
        /// and larger ones fail), `steps` of `correct` and `correct_deep`,
        /// a source coincident with a target from its actual and from its
        /// speculated position (ε > 0 keeps it finite), and −0.0 lanes.
        #[test]
        fn correction_kernel_bits_match(
            n_mine in 0usize..70,
            n_src in 0usize..70,
            seed in 0u64..1000,
            steps in 1u32..5,
            mode in 0u8..4,
            dt in 1e-4f64..1e-2,
        ) {
            let mut cfg = NBodyConfig { dt, ..NBodyConfig::default().with_theta(0.0) };
            let particles = uniform_cloud((n_mine + n_src).max(1), seed);
            let (mine, theirs) = (&particles[..n_mine], &particles[n_mine..n_mine + n_src]);
            let mut targets: Vec<Vec3> = mine.iter().map(|p| p.pos).collect();
            let mut vel: Vec<Vec3> = mine.iter().map(|p| p.vel).collect();
            let src_mass: Vec<f64> = theirs.iter().map(|p| p.mass).collect();
            let mut actual: Vec<Vec3> = theirs.iter().map(|p| p.pos).collect();
            if let Some(last) = actual.last_mut() {
                last.z = -0.0;
            }
            let speculated: Vec<Vec3> = actual
                .iter()
                .enumerate()
                .map(|(i, &a)| match mode {
                    0 => a,
                    1 if i % 3 != 0 => a,
                    3 => a + Vec3::new(1e-3 * (i + 1) as f64, 0.0, 0.0),
                    _ => a + Vec3::new(0.05, -0.02, 0.01),
                })
                .collect();
            if n_mine > 0 && n_src > 0 {
                targets[0] = actual[0];
                targets[n_mine - 1].y = -0.0;
                vel[n_mine - 1] = Vec3::new(-0.0, 0.0, -0.0);
            }
            if n_mine > 1 && n_src > 1 {
                targets[1] = speculated[1];
            }
            // The live state is one step past the accumulation-time targets.
            let pos: Vec<Vec3> = targets.iter().zip(&vel).map(|(&p, &v)| p + v * cfg.dt).collect();
            let centroid = pos.iter().fold(ZERO3, |a, &p| a + p) / n_mine.max(1) as f64;
            let error = |i: usize| {
                speculated[i].distance(actual[i]) / actual[i].distance(centroid).max(cfg.softening)
            };
            if mode == 3 && n_src > 0 {
                cfg.theta = error(n_src / 2);
            }
            let n_bad = (0..n_src).filter(|&i| error(i) > cfg.theta).count();
            match mode {
                0 => prop_assert_eq!(n_bad, 0),
                2 => prop_assert_eq!(n_bad, n_src),
                _ => prop_assert!(n_bad < n_src.max(1)),
            }

            let (mut pos_ref, mut vel_ref) = (pos.clone(), vel.clone());
            let ops_ref = correct_partition(
                &mut pos_ref, &mut vel_ref, &targets, &speculated, &actual, &src_mass,
                centroid, steps as f64, &cfg,
            );

            let (mut pos_soa, mut vel_soa) = (Soa3::from_vec3s(&pos), Soa3::from_vec3s(&vel));
            let ops_soa = correct_partition_soa(
                &mut pos_soa,
                &mut vel_soa,
                &Soa3::from_vec3s(&targets),
                &Soa3::from_vec3s(&speculated),
                &Soa3::from_vec3s(&actual),
                &src_mass,
                centroid,
                steps as f64,
                &cfg,
                &mut CorrectionScratch::default(),
            );

            prop_assert_eq!(ops_ref, 2 * OPS_PER_PAIR * (n_mine * n_bad) as u64);
            prop_assert_eq!(ops_soa, ops_ref);
            for b in 0..n_mine {
                prop_assert_eq!(
                    pos_soa.get(b).to_bits_triplet(), pos_ref[b].to_bits_triplet(), "pos {}", b
                );
                prop_assert_eq!(
                    vel_soa.get(b).to_bits_triplet(), vel_ref[b].to_bits_triplet(), "vel {}", b
                );
                prop_assert!(pos_ref[b].is_finite() && vel_ref[b].is_finite());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pinned end-to-end engine fingerprints
// ---------------------------------------------------------------------------

/// One rank's pinned counters: (total, compute, wait, speculate, check,
/// correct) nanoseconds, then (speculated, misspeculated, corrections,
/// rollbacks) and the bit pattern of `max_accepted_error`.
struct RankPin {
    nanos: [u64; 6],
    counts: [u64; 4],
    maxacc_bits: u64,
}

struct RunPin {
    end_time_nanos: u64,
    particle_hash: u64,
    ranks: [RankPin; 3],
}

fn fingerprint_run(theta: f64, recompute: bool) -> ParallelRunResult {
    let particles = centered_cloud(48, 11);
    let cluster = ClusterSpec::new(vec![
        MachineSpec::new(30.0),
        MachineSpec::new(20.0),
        MachineSpec::new(10.0),
    ]);
    let mut cfg = ParallelRunConfig::new(12, 1);
    cfg.nbody = cfg.nbody.with_theta(theta);
    if recompute {
        cfg.spec = cfg.spec.with_correction(CorrectionMode::Recompute);
    }
    run_parallel(
        &particles,
        &cluster,
        ConstantLatency(SimDuration::from_millis(3)),
        Unloaded,
        cfg,
    )
    .unwrap()
}

fn particle_hash(result: &ParallelRunResult) -> u64 {
    let mut h: u64 = 0;
    for p in &result.particles {
        for v in [p.pos.x, p.pos.y, p.pos.z, p.vel.x, p.vel.y, p.vel.z] {
            h = h.rotate_left(7) ^ v.to_bits();
        }
    }
    h
}

fn assert_pinned(label: &str, result: &ParallelRunResult, pin: &RunPin) {
    assert_eq!(
        result.report.end_time.as_nanos(),
        pin.end_time_nanos,
        "{label}: virtual end time moved"
    );
    assert_eq!(
        particle_hash(result),
        pin.particle_hash,
        "{label}: particle state changed at the bit level"
    );
    for (s, want) in result.stats.per_rank.iter().zip(&pin.ranks) {
        let rank = s.rank.0;
        let got_nanos = [
            s.total_time.as_nanos(),
            s.phases.compute.as_nanos(),
            s.phases.comm_wait.as_nanos(),
            s.phases.speculate.as_nanos(),
            s.phases.check.as_nanos(),
            s.phases.correct.as_nanos(),
        ];
        assert_eq!(got_nanos, want.nanos, "{label}: rank {rank} phase times");
        let got_counts = [
            s.speculated_partitions,
            s.misspeculated_partitions,
            s.corrections,
            s.rollbacks,
        ];
        assert_eq!(got_counts, want.counts, "{label}: rank {rank} counters");
        assert_eq!(
            s.max_accepted_error.to_bits(),
            want.maxacc_bits,
            "{label}: rank {rank} max_accepted_error"
        );
    }
}

#[test]
fn engine_fingerprint_theta0_recompute() {
    // θ=0 rejects every imperfect speculation and Recompute rolls back, so
    // this pins the checkpoint/restore/re-execute path.
    let result = fingerprint_run(0.0, true);
    assert_pinned(
        "theta0_recompute",
        &result,
        &RunPin {
            end_time_nanos: 92_801_600,
            particle_hash: 0x0f74_cf5b_180e_d71e,
            ranks: [
                RankPin {
                    nanos: [92_460_800, 87_172_800, 4_932_800, 156_800, 198_400, 0],
                    counts: [32, 21, 0, 21],
                    maxacc_bits: 0,
                },
                RankPin {
                    nanos: [92_390_400, 87_172_800, 4_507_200, 316_800, 393_600, 0],
                    counts: [32, 21, 0, 21],
                    maxacc_bits: 0,
                },
                RankPin {
                    nanos: [92_801_600, 71_323_200, 20_067_200, 624_000, 787_200, 0],
                    counts: [26, 15, 0, 15],
                    maxacc_bits: 0,
                },
            ],
        },
    );
}

#[test]
fn engine_fingerprint_theta001_accepting() {
    // θ=0.01 accepts every speculation on this workload: pins the pure
    // speculate/check/accept path and the eq. 11 error values themselves.
    let result = fingerprint_run(0.01, false);
    assert_pinned(
        "theta001_accepting",
        &result,
        &RunPin {
            end_time_nanos: 39_249_600,
            particle_hash: 0x84f6_694f_fcf1_0865,
            ranks: [
                RankPin {
                    nanos: [39_176_000, 31_699_200, 7_160_000, 105_600, 211_200, 0],
                    counts: [22, 0, 0, 0],
                    maxacc_bits: 0x3f1f_9084_038a_13b0,
                },
                RankPin {
                    nanos: [39_192_000, 31_699_200, 6_859_200, 211_200, 422_400, 0],
                    counts: [22, 0, 0, 0],
                    maxacc_bits: 0x3f42_63c4_8100_f4be,
                },
                RankPin {
                    nanos: [39_249_600, 31_699_200, 5_966_400, 528_000, 1_056_000, 0],
                    counts: [22, 0, 0, 0],
                    maxacc_bits: 0x3f53_5ab7_3550_6e31,
                },
            ],
        },
    );
}

#[test]
fn engine_fingerprint_theta_tiny_incremental_correct() {
    // θ=1e-6 rejects every speculation but stays on the incremental
    // `correct` path (no rollbacks): pins the per-offender force
    // retract/reapply arithmetic and its op accounting.
    let result = fingerprint_run(1e-6, false);
    assert_pinned(
        "theta_tiny_incremental",
        &result,
        &RunPin {
            end_time_nanos: 80_046_400,
            particle_hash: 0xca47_82aa_bebb_c36b,
            ranks: [
                RankPin {
                    nanos: [
                        76_683_200, 31_699_200, 15_099_200, 105_600, 211_200, 29_568_000,
                    ],
                    counts: [22, 22, 22, 0],
                    maxacc_bits: 0,
                },
                RankPin {
                    nanos: [
                        76_792_000, 31_699_200, 5_035_200, 211_200, 422_400, 39_424_000,
                    ],
                    counts: [22, 22, 22, 0],
                    maxacc_bits: 0,
                },
                RankPin {
                    nanos: [
                        80_046_400, 31_699_200, 4_881_600, 451_200, 902_400, 42_112_000,
                    ],
                    counts: [19, 19, 19, 0],
                    maxacc_bits: 0,
                },
            ],
        },
    );
}

// ---------------------------------------------------------------------------
// Same-seed determinism across runs and transports
// ---------------------------------------------------------------------------

#[test]
fn simulated_runs_are_deterministic_across_repeats() {
    let a = fingerprint_run(0.01, false);
    let b = fingerprint_run(0.01, false);
    assert_eq!(a.report.end_time, b.report.end_time);
    assert_eq!(particle_hash(&a), particle_hash(&b));
    for (x, y) in a.stats.per_rank.iter().zip(&b.stats.per_rank) {
        assert_eq!(format!("{x:?}"), format!("{y:?}"), "rank {}", x.rank.0);
    }
}

#[test]
fn thread_transport_theta0_recompute_matches_sequential_bitwise() {
    // On the real-thread transport, message arrival timing is wall-clock
    // and nondeterministic — but with θ=0 + Recompute every imperfect
    // speculation is rolled back and re-executed from actual values, so
    // the trajectory is timing-independent and must equal the sequential
    // reference exactly, SoA engine included.
    let n = 24;
    let iters = 5u64;
    let particles = uniform_cloud(n, 6);
    let ranges = partition_proportional(n, &[1.0, 1.0, 1.0]);
    let cfg = NBodyConfig::default().with_theta(0.0);

    let outs: Vec<(Vec<nbody::Particle>, RunStats)> =
        run_thread_cluster::<IterMsg<Arc<PartitionShared>>, _, _>(
            3,
            ThreadClusterOptions::default(),
            |t| {
                let mut app = NBodyApp::new(
                    &particles,
                    ranges.clone(),
                    t.rank().0,
                    cfg,
                    SpeculationOrder::Linear,
                );
                let spec = SpecConfig::speculative(1).with_correction(CorrectionMode::Recompute);
                let stats = run_speculative(t, &mut app, iters, spec);
                (app.particles(), stats)
            },
        );

    let mut reference = particles.clone();
    for _ in 0..iters {
        step_partition_order(&mut reference, &ranges, &cfg);
    }
    let got: Vec<nbody::Particle> = outs.iter().flat_map(|(p, _)| p.clone()).collect();
    for (got, want) in got.iter().zip(&reference) {
        assert_eq!(got.pos, want.pos, "thread θ=0+recompute must be exact");
        assert_eq!(got.vel, want.vel);
    }
    for (rank, (_, s)) in outs.iter().enumerate() {
        assert_eq!(s.rank.0, rank);
        assert_eq!(s.iterations, iters);
    }
}
