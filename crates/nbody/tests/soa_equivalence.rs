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
use nbody::forces::{
    accumulate_partition, accumulate_partition_soa, accumulate_self, accumulate_self_soa,
    correct_partition, correct_partition_soa, CorrectionScratch, OPS_PER_PAIR,
};
use nbody::{
    centered_cloud, run_parallel, uniform_cloud, NBodyConfig, ParallelRunConfig, ParallelRunResult,
    Soa3, Vec3, ZERO3,
};
use netsim::{ClusterSpec, ConstantLatency, MachineSpec, Unloaded};
use speccore::CorrectionMode;

// ---------------------------------------------------------------------------
// Kernel-level bit equality
// ---------------------------------------------------------------------------

/// A non-zero starting accumulator, so the comparisons also prove the
/// SoA self kernel *accumulates* into existing values exactly like the
/// reference rather than overwriting them.
fn seeded_acc(n: usize, seed: u64) -> Vec<Vec3> {
    (0..n)
        .map(|i| Vec3::new(i as f64 * 0.125, -((i as u64 ^ seed) as f64), 0.5))
        .collect()
}

/// Runs the symmetric SoA self kernel and the AoS reference on the same
/// `n`-particle cloud and seeded accumulator; the first bit difference
/// (or op-count difference) is the error.
fn self_kernel_agrees(n: usize, seed: u64) -> Result<(), String> {
    let particles = uniform_cloud(n, seed);
    let pos: Vec<Vec3> = particles.iter().map(|p| p.pos).collect();
    let mass: Vec<f64> = particles.iter().map(|p| p.mass).collect();

    let mut acc_ref = seeded_acc(n, seed);
    let ops_ref = accumulate_self(&pos, &mass, &mut acc_ref, 1.0, 0.05);

    let soa_pos = Soa3::from_vec3s(&pos);
    let mut acc_soa = Soa3::from_vec3s(&seeded_acc(n, seed));
    let ops_soa = accumulate_self_soa(&soa_pos, &mass, &mut acc_soa, 1.0, 0.05);

    if ops_ref != ops_soa {
        return Err(format!(
            "n = {n}: op count {ops_soa} != reference {ops_ref}"
        ));
    }
    for (i, want) in acc_ref.iter().enumerate() {
        let got = acc_soa.get(i);
        if got.to_bits_triplet() != want.to_bits_triplet() {
            return Err(format!(
                "n = {n}, particle {i}: soa {got:?} != reference {want:?}"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Above the split threshold
// ---------------------------------------------------------------------------
//
// A partition or correction call of at least 2^14 pair evaluations (two
// per bad source and target in a correction) over at least two `LANES`
// blocks of targets hands its back rows to a helper thread. Every absorb
// below is that large, and so is every correction with all sources bad,
// so these calls run split whenever the helper is free, and inline when
// another test holds it: the bits must be the reference's either way.

/// One absorb and one correction of `nt` targets by `ns` sources, with
/// their AoS reference results.
struct SplitCase {
    targets: Vec<Vec3>,
    src: Vec<Vec3>,
    /// `extra` longer than `src`: the kernels use only the common prefix.
    src_mass: Vec<f64>,
    vel: Vec<Vec3>,
    pos: Vec<Vec3>,
    speculated: Vec<Vec3>,
    centroid: Vec3,
    cfg: NBodyConfig,
    /// The accumulator both absorbs start from.
    acc0: Vec<Vec3>,
    acc_ref: Vec<Vec3>,
    pos_ref: Vec<Vec3>,
    vel_ref: Vec<Vec3>,
    absorb_ops: u64,
    correct_ops: u64,
}

impl SplitCase {
    /// Every `stride`-th source is speculated wrong (θ = 0, so exactly
    /// those fail eq. 11); `None` gives an empty bad set.
    fn new(nt: usize, ns: usize, extra: usize, stride: Option<usize>, seed: u64) -> Self {
        let cfg = NBodyConfig::default().with_theta(0.0);
        let particles = uniform_cloud(nt + ns + extra, seed);
        let targets: Vec<Vec3> = particles[..nt].iter().map(|p| p.pos).collect();
        let vel: Vec<Vec3> = particles[..nt].iter().map(|p| p.vel).collect();
        let src: Vec<Vec3> = particles[nt..nt + ns].iter().map(|p| p.pos).collect();
        let src_mass: Vec<f64> = particles[nt..].iter().map(|p| p.mass).collect();
        let speculated: Vec<Vec3> = src
            .iter()
            .enumerate()
            .map(|(i, &a)| match stride {
                Some(s) if i % s == 0 => a + Vec3::new(0.05, -0.02, 0.01),
                _ => a,
            })
            .collect();
        let pos: Vec<Vec3> = targets
            .iter()
            .zip(&vel)
            .map(|(&p, &v)| p + v * cfg.dt)
            .collect();
        let centroid = pos.iter().fold(ZERO3, |a, &p| a + p) / nt as f64;

        let acc0 = seeded_acc(nt, seed);
        let mut acc_ref = acc0.clone();
        let absorb_ops =
            accumulate_partition(&targets, &mut acc_ref, &src, &src_mass[..ns], 1.0, 0.05);
        let (mut pos_ref, mut vel_ref) = (pos.clone(), vel.clone());
        let correct_ops = correct_partition(
            &mut pos_ref,
            &mut vel_ref,
            &targets,
            &speculated,
            &src,
            &src_mass,
            centroid,
            2.0,
            &cfg,
        );
        let n_bad = stride.map_or(0, |s| ns.div_ceil(s)) as u64;
        assert_eq!(correct_ops, 2 * OPS_PER_PAIR * nt as u64 * n_bad);
        SplitCase {
            targets,
            src,
            src_mass,
            vel,
            pos,
            speculated,
            centroid,
            cfg,
            acc0,
            acc_ref,
            pos_ref,
            vel_ref,
            absorb_ops,
            correct_ops,
        }
    }

    /// Runs both SoA kernels; the first bit or op-count difference from
    /// the reference is the error.
    fn check(&self, scratch: &mut CorrectionScratch) -> Result<(), String> {
        let label = format!("{} x {}", self.targets.len(), self.src.len());
        let targets = Soa3::from_vec3s(&self.targets);
        let mut acc = Soa3::from_vec3s(&self.acc0);
        let ops = accumulate_partition_soa(
            &targets,
            &mut acc,
            &Soa3::from_vec3s(&self.src),
            &self.src_mass,
            1.0,
            0.05,
        );
        same_bits(&label, "absorb", &acc, &self.acc_ref, ops, self.absorb_ops)?;

        let (mut pos, mut vel) = (Soa3::from_vec3s(&self.pos), Soa3::from_vec3s(&self.vel));
        let ops = correct_partition_soa(
            &mut pos,
            &mut vel,
            &targets,
            &Soa3::from_vec3s(&self.speculated),
            &Soa3::from_vec3s(&self.src),
            &self.src_mass,
            self.centroid,
            2.0,
            &self.cfg,
            scratch,
        );
        same_bits(&label, "pos", &pos, &self.pos_ref, ops, self.correct_ops)?;
        same_bits(&label, "vel", &vel, &self.vel_ref, ops, self.correct_ops)
    }
}

fn same_bits(
    label: &str,
    what: &str,
    got: &Soa3,
    want: &[Vec3],
    ops: u64,
    ops_want: u64,
) -> Result<(), String> {
    if ops != ops_want {
        return Err(format!(
            "{label} {what}: op count {ops} != reference {ops_want}"
        ));
    }
    for (i, w) in want.iter().enumerate() {
        if got.get(i).to_bits_triplet() != w.to_bits_triplet() {
            return Err(format!(
                "{label} {what}, target {i}: {:?} != {w:?}",
                got.get(i)
            ));
        }
    }
    Ok(())
}

/// Target counts from two `LANES` blocks to 601, odd ones among them (the
/// helper's half then ends in the scalar tail); source counts past one
/// 512-source tile; masses longer than positions; bad sets of every
/// third source, of all of them, and empty.
#[test]
fn split_kernels_match_the_reference_above_the_threshold() {
    let shapes = [
        (16, 1024),
        (17, 1000),
        (39, 473),
        (473, 39),
        (128, 128),
        (255, 300),
        (601, 700),
    ];
    let mut scratch = CorrectionScratch::default();
    for (k, &(nt, ns)) in shapes.iter().enumerate() {
        for (extra, stride) in [(0, Some(1)), (5, Some(3)), (3, None)] {
            SplitCase::new(nt, ns, extra, stride, 40 + k as u64)
                .check(&mut scratch)
                .unwrap();
        }
    }
}

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
            self_kernel_agrees(n, seed)?;
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
        #![proptest_config(ProptestConfig::with_cases(4))]
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
