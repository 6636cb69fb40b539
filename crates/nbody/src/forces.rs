//! Pairwise gravitational forces — the O(N²) kernel of the paper's §5.
//!
//! The paper counts "about 70 floating point operations" to compute the
//! force between a pair of particles, 12 to speculate a position, 24 to
//! check one; those constants parameterize the cost model so the simulated
//! timings keep the paper's compute/speculate/check ratios.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::helper::{Helper, Seat};
use crate::particle::NBodyConfig;
use crate::soa::Soa3;
use crate::vec3::Vec3;

/// Paper's cost of one pairwise force evaluation, in operations.
pub const OPS_PER_PAIR: u64 = 70;
/// Paper's cost of speculating one particle's position.
pub const OPS_PER_SPECULATE: u64 = 12;
/// Paper's cost of checking one particle's speculation error.
pub const OPS_PER_CHECK: u64 = 24;
/// Cost of one integration update (velocity + position) per particle.
pub(crate) const OPS_PER_UPDATE: u64 = 12;

/// Acceleration exerted on a particle at `on_pos` by a source of mass
/// `src_mass` at `src_pos`, with Plummer softening `eps`:
/// `a = G · m · (r_src − r_on) / (|r|² + ε²)^{3/2}`.
#[inline]
pub(crate) fn accel_from(on_pos: Vec3, src_pos: Vec3, src_mass: f64, g: f64, eps: f64) -> Vec3 {
    let d = src_pos - on_pos;
    let dist_sq = d.norm_sq() + eps * eps;
    let inv = 1.0 / (dist_sq * dist_sq.sqrt());
    d * (g * src_mass * inv)
}

/// Accumulate into `acc` the accelerations that every source in
/// `(src_pos, src_mass)` exerts on every target in `targets`. Returns the
/// modelled operation count (`OPS_PER_PAIR` per pair).
pub fn accumulate_partition(
    targets: &[Vec3],
    acc: &mut [Vec3],
    src_pos: &[Vec3],
    src_mass: &[f64],
    g: f64,
    eps: f64,
) -> u64 {
    debug_assert_eq!(targets.len(), acc.len());
    debug_assert_eq!(src_pos.len(), src_mass.len());
    for (b, &pb) in targets.iter().enumerate() {
        let mut a = acc[b];
        for (j, &pa) in src_pos.iter().enumerate() {
            a += accel_from(pb, pa, src_mass[j], g, eps);
        }
        acc[b] = a;
    }
    (targets.len() as u64) * (src_pos.len() as u64) * OPS_PER_PAIR
}

/// Accumulate intra-partition accelerations (each particle on every other
/// of the same partition), skipping self-interaction. Returns the op count.
pub fn accumulate_self(pos: &[Vec3], mass: &[f64], acc: &mut [Vec3], g: f64, eps: f64) -> u64 {
    debug_assert_eq!(pos.len(), mass.len());
    debug_assert_eq!(pos.len(), acc.len());
    let n = pos.len();
    for b in 0..n {
        let mut a = acc[b];
        for j in 0..n {
            if j != b {
                a += accel_from(pos[b], pos[j], mass[j], g, eps);
            }
        }
        acc[b] = a;
    }
    (n as u64) * (n.saturating_sub(1) as u64) * OPS_PER_PAIR
}

/// AoS reference twin of [`correct_partition_soa`] — the scalar
/// retract/reapply loop the production kernel replaced, kept for the
/// bit-equality tests only, never as a runtime path.
///
/// For every source whose speculated position fails eq. 11 against
/// `cfg.theta` (relative to `centroid`), the force it exerted on each
/// target from its speculated position is retracted and the one from its
/// actual position applied. Forces are linear in per-source terms, and
/// with semi-implicit Euler a force delta δ present for `steps`
/// integration steps moves `vel` by δ·Δt and `pos` by δ·Δt²·steps.
/// `targets` are the positions the forces were accumulated at. Returns
/// the modelled op count: two pair evaluations per (bad source, target).
#[allow(clippy::too_many_arguments)]
pub fn correct_partition(
    pos: &mut [Vec3],
    vel: &mut [Vec3],
    targets: &[Vec3],
    speculated: &[Vec3],
    actual: &[Vec3],
    src_mass: &[f64],
    centroid: Vec3,
    steps: f64,
    cfg: &NBodyConfig,
) -> u64 {
    let (g, eps, dt) = (cfg.g, cfg.softening, cfg.dt);
    let mut ops = 0u64;
    for ((&spec, &act), &mass) in speculated.iter().zip(actual).zip(src_mass) {
        let err = spec.distance(act) / act.distance(centroid).max(eps);
        if err > cfg.theta {
            for (b, &target) in targets.iter().enumerate() {
                let delta =
                    accel_from(target, act, mass, g, eps) - accel_from(target, spec, mass, g, eps);
                vel[b] += delta * dt;
                pos[b] += delta * (dt * dt * steps);
            }
            ops += 2 * OPS_PER_PAIR * targets.len() as u64;
        }
    }
    ops
}

// ---------------------------------------------------------------------------
// SoA engine
// ---------------------------------------------------------------------------
//
// The kernels below are the production hot path. They are *bit-identical*
// to the AoS reference kernels above: every pair is evaluated with the
// same expression tree (`d = r_src − r_on`, `q = |d|² + ε²`,
// `inv = 1/(q·√q)`, `scale = (G·m)·inv`, `a += d·scale`) and every
// target accumulates its sources in the same ascending order — blocking
// only changes *when* a partial sum is spilled to memory, never the
// sequence of rounded additions. The modelled op counts are unchanged,
// so simulated (virtual-time) results cannot move; only wall-clock does.

/// Source-tile size for cache blocking: 512 elements × four f64 arrays
/// (x, y, z, mass) = 16 KiB, half a typical 32 KiB L1d, leaving room for
/// the target block and accumulators.
const TILE: usize = 512;
// `accumulate_self_soa` sweeps the rows of a full tile in pairs.
const _: () = assert!(TILE.is_multiple_of(2));

/// Register-block width for targets: `LANES` independent accumulator
/// chains let the out-of-order core overlap the sqrt/div latency of
/// consecutive pairs, and give the autovectorizer an inner loop of
/// `LANES` f64 lanes (IEEE-754 sqrt/div/mul/add are exactly rounded, so
/// SIMD lanes produce the same bits as scalar evaluation).
const LANES: usize = 8;

/// SoA twin of [`accumulate_partition`]: accelerations from every source
/// in `(src, src_mass)` onto every target, accumulated into `acc`.
/// Bit-identical to the AoS kernel; returns the same modelled op count.
///
/// `src` may be a peer's snapshot, whose length nothing upstream checks
/// against the partition layout: only the sources that have both a
/// position and a mass are used (and charged).
///
/// A call of at least 2¹⁴ pairs hands its back target rows to a helper
/// thread; every row's sum is the same either way.
pub fn accumulate_partition_soa(
    targets: &Soa3,
    acc: &mut Soa3,
    src: &Soa3,
    src_mass: &[f64],
    g: f64,
    eps: f64,
) -> u64 {
    let nt = targets.len();
    let ns = src.len().min(src_mass.len());
    debug_assert_eq!(nt, acc.len());
    let eps2 = eps * eps;
    let ops = (nt as u64) * (ns as u64) * OPS_PER_PAIR;
    let sources = src.lanes(0..ns);
    let sm = &src_mass[..ns];
    let absorb = |rows: Range<usize>, acc: &mut Soa3| {
        absorb_rows(
            targets.lanes(rows.clone()),
            acc.lanes_mut(rows),
            sources,
            sm,
            g,
            eps2,
        );
    };
    let Some((mid, mut seat)) = split(nt, ns) else {
        absorb(0..nt, acc);
        return ops;
    };
    let half = seat.job();
    half.kind = Kind::Absorb { g, eps2 };
    half.targets.assign(targets, mid..nt);
    half.out.assign(acc, mid..nt);
    half.src.assign(src, 0..ns);
    half.mass.clear();
    half.mass.extend_from_slice(sm);
    seat.post();
    absorb(0..mid, acc);
    acc.write_at(mid, &seat.collect().out);
    ops
}

/// The body of [`accumulate_partition_soa`] for the target rows `t`, with
/// accumulators `a`, against the sources `s` of masses `sm` (all cut to
/// length): source tiles outside, `LANES`-wide target blocks inside, then
/// a scalar tail. A row's result does not depend on which other rows
/// share the call, so any split of the rows gives the same bits.
#[inline]
fn absorb_rows(t: [&[f64]; 3], a: [&mut [f64]; 3], s: [&[f64]; 3], sm: &[f64], g: f64, eps2: f64) {
    let nt = t[0].len();
    let ns = sm.len();
    // Every lane cut to `nt`, so the blocks below index without checks.
    let [tx, ty, tz] = t.map(|t| &t[..nt]);
    let [ax, ay, az] = a.map(|a| &mut a[..nt]);

    let mut s0 = 0usize;
    while s0 < ns {
        let s1 = (s0 + TILE).min(ns);
        let (sx, sy, sz) = (&s[0][s0..s1], &s[1][s0..s1], &s[2][s0..s1]);
        let sm = &sm[s0..s1];

        let mut i = 0usize;
        while i + LANES <= nt {
            let px: [f64; LANES] = tx[i..i + LANES].try_into().unwrap();
            let py: [f64; LANES] = ty[i..i + LANES].try_into().unwrap();
            let pz: [f64; LANES] = tz[i..i + LANES].try_into().unwrap();
            let mut lx: [f64; LANES] = ax[i..i + LANES].try_into().unwrap();
            let mut ly: [f64; LANES] = ay[i..i + LANES].try_into().unwrap();
            let mut lz: [f64; LANES] = az[i..i + LANES].try_into().unwrap();
            for (((&qx, &qy), &qz), &qm) in sx.iter().zip(sy).zip(sz).zip(sm) {
                let gm = g * qm;
                for l in 0..LANES {
                    let dx = qx - px[l];
                    let dy = qy - py[l];
                    let dz = qz - pz[l];
                    let dist_sq = (dx * dx + dy * dy + dz * dz) + eps2;
                    let inv = 1.0 / (dist_sq * dist_sq.sqrt());
                    let s = gm * inv;
                    lx[l] += dx * s;
                    ly[l] += dy * s;
                    lz[l] += dz * s;
                }
            }
            ax[i..i + LANES].copy_from_slice(&lx);
            ay[i..i + LANES].copy_from_slice(&ly);
            az[i..i + LANES].copy_from_slice(&lz);
            i += LANES;
        }
        while i < nt {
            let (pxi, pyi, pzi) = (tx[i], ty[i], tz[i]);
            let (mut aix, mut aiy, mut aiz) = (ax[i], ay[i], az[i]);
            for (((&qx, &qy), &qz), &qm) in sx.iter().zip(sy).zip(sz).zip(sm) {
                let dx = qx - pxi;
                let dy = qy - pyi;
                let dz = qz - pzi;
                let dist_sq = (dx * dx + dy * dy + dz * dz) + eps2;
                let inv = 1.0 / (dist_sq * dist_sq.sqrt());
                let s = (g * qm) * inv;
                aix += dx * s;
                aiy += dy * s;
                aiz += dz * s;
            }
            ax[i] = aix;
            ay[i] = aiy;
            az[i] = aiz;
            i += 1;
        }
        s0 = s1;
    }
}

/// The paper's eq. 11 for the first `n` particles of a snapshot pair, in
/// index order: `‖r* − r‖ / max(‖r − c‖, ε)`, the checking rank's
/// `centroid` standing in for particle b (a check stays at the paper's
/// ~24 ops per particle instead of another O(N_i·N_k) pass). A particle
/// is *bad* iff its error is `> θ`: the one definition
/// [`NBodyApp::check`](crate::NBodyApp) counts by and
/// [`correct_partition_soa`] repairs by.
#[inline]
pub(crate) fn eq11_errors<'a>(
    speculated: &'a Soa3,
    actual: &'a Soa3,
    n: usize,
    centroid: Vec3,
    eps: f64,
) -> impl Iterator<Item = f64> + 'a {
    let (sx, sy, sz) = (&speculated.x[..n], &speculated.y[..n], &speculated.z[..n]);
    let (ax, ay, az) = (&actual.x[..n], &actual.y[..n], &actual.z[..n]);
    (0..n).map(move |i| {
        let (ex, ey, ez) = (sx[i] - ax[i], sy[i] - ay[i], sz[i] - az[i]);
        let (cx, cy, cz) = (ax[i] - centroid.x, ay[i] - centroid.y, az[i] - centroid.z);
        let err_abs = (ex * ex + ey * ey + ez * ez).sqrt();
        err_abs / (cx * cx + cy * cy + cz * cz).sqrt().max(eps)
    })
}

/// One source that failed eq. 11, as [`correct_partition_soa`] gathers
/// it: actual position, speculated position, `G·m`.
type BadSource = ([f64; 3], [f64; 3], f64);

/// Gather buffer of [`correct_partition_soa`]: one record per source that
/// failed eq. 11. It grows to the largest bad set seen and is reused, so
/// a correction allocates nothing at steady state.
#[derive(Debug, Default)]
pub struct CorrectionScratch(Vec<BadSource>);

/// The [`LANES`] values of `s` starting at `at`, as a register block.
#[inline(always)]
fn lanes(s: &[f64], at: usize) -> [f64; LANES] {
    s[at..at + LANES]
        .try_into()
        .expect("the range is LANES long")
}

/// `a_actual − a_spec`: what moving one source of strength `gm = G·m`
/// from `spec` to `act` changes in the acceleration of a target at `on`.
/// Each acceleration is [`accel_from`]'s expression tree, component-wise.
#[inline(always)]
fn accel_delta(act: [f64; 3], spec: [f64; 3], gm: f64, on: [f64; 3], eps2: f64) -> [f64; 3] {
    let accel = |src: [f64; 3]| {
        let (dx, dy, dz) = (src[0] - on[0], src[1] - on[1], src[2] - on[2]);
        let dist_sq = (dx * dx + dy * dy + dz * dz) + eps2;
        let s = gm * (1.0 / (dist_sq * dist_sq.sqrt()));
        [dx * s, dy * s, dz * s]
    };
    let (a, s) = (accel(act), accel(spec));
    [a[0] - s[0], a[1] - s[1], a[2] - s[2]]
}

/// SoA twin of [`correct_partition`], the production incremental
/// correction (the paper's `correct(X_j(t+1))`): bit-identical `pos` and
/// `vel`, same modelled op count.
///
/// The sources that fail eq. 11 are gathered once into `scratch`; targets
/// then go through in `LANES`-wide register blocks whose `vel`/`pos`
/// lanes stay in registers across the whole (ascending) bad-source loop —
/// the shape of [`accumulate_partition_soa`]. Per (source, target) the
/// expression tree is the reference's: both accelerations as in
/// `accel_from`, `δ = a_actual − a_spec` per component,
/// `vel += δ·Δt`, `pos += δ·((Δt·Δt)·steps)`. The θ test reads only
/// `centroid` and the two snapshots, so it does not see `pos` move.
/// A repair of at least 2¹⁴ pair evaluations (two per bad source and
/// target) hands its back target rows to a helper thread.
///
/// `speculated`, `actual` and `src_mass` are cut to their common length:
/// a peer's snapshot of the wrong size repairs less, it does not panic.
#[allow(clippy::too_many_arguments)]
pub fn correct_partition_soa(
    pos: &mut Soa3,
    vel: &mut Soa3,
    targets: &Soa3,
    speculated: &Soa3,
    actual: &Soa3,
    src_mass: &[f64],
    centroid: Vec3,
    steps: f64,
    cfg: &NBodyConfig,
    scratch: &mut CorrectionScratch,
) -> u64 {
    let ns = speculated.len().min(actual.len()).min(src_mass.len());
    let bad = &mut scratch.0;
    bad.clear();
    for (i, err) in eq11_errors(speculated, actual, ns, centroid, cfg.softening).enumerate() {
        if err > cfg.theta {
            let (a, s) = (actual.get(i), speculated.get(i));
            bad.push(([a.x, a.y, a.z], [s.x, s.y, s.z], cfg.g * src_mass[i]));
        }
    }
    if bad.is_empty() {
        return 0;
    }

    let nt = targets.len();
    let eps2 = cfg.softening * cfg.softening;
    let dt = cfg.dt;
    let dt2_steps = dt * dt * steps;
    let ops = 2 * OPS_PER_PAIR * nt as u64 * bad.len() as u64;
    let repair = |rows: Range<usize>, vel: &mut Soa3, pos: &mut Soa3| {
        correct_rows(
            targets.lanes(rows.clone()),
            vel.lanes_mut(rows.clone()),
            pos.lanes_mut(rows),
            bad,
            eps2,
            dt,
            dt2_steps,
        );
    };
    let Some((mid, mut seat)) = split(nt, 2 * bad.len()) else {
        repair(0..nt, vel, pos);
        return ops;
    };
    let half = seat.job();
    half.kind = Kind::Correct {
        eps2,
        dt,
        dt2_steps,
    };
    half.targets.assign(targets, mid..nt);
    half.out.assign(vel, mid..nt);
    half.pos.assign(pos, mid..nt);
    half.bad.clone_from(bad);
    seat.post();
    repair(0..mid, vel, pos);
    let half = seat.collect();
    vel.write_at(mid, &half.out);
    pos.write_at(mid, &half.pos);
    ops
}

/// The body of [`correct_partition_soa`] for the target rows `t` (the
/// positions the forces were accumulated at), repairing `v` and `p`:
/// `LANES`-wide register blocks, then a scalar tail. Like
/// [`absorb_rows`], a row's result does not depend on the other rows.
#[inline]
fn correct_rows(
    t: [&[f64]; 3],
    v: [&mut [f64]; 3],
    p: [&mut [f64]; 3],
    bad: &[BadSource],
    eps2: f64,
    dt: f64,
    dt2_steps: f64,
) {
    let nt = t[0].len();
    let [tx, ty, tz] = t.map(|t| &t[..nt]);
    let [vx, vy, vz] = v.map(|v| &mut v[..nt]);
    let [px, py, pz] = p.map(|p| &mut p[..nt]);

    let mut b = 0usize;
    while b + LANES <= nt {
        let (qx, qy, qz) = (lanes(tx, b), lanes(ty, b), lanes(tz, b));
        let (mut lvx, mut lvy, mut lvz) = (lanes(vx, b), lanes(vy, b), lanes(vz, b));
        let (mut lpx, mut lpy, mut lpz) = (lanes(px, b), lanes(py, b), lanes(pz, b));
        for &(act, spec, gm) in bad {
            for l in 0..LANES {
                let f = accel_delta(act, spec, gm, [qx[l], qy[l], qz[l]], eps2);
                lvx[l] += f[0] * dt;
                lvy[l] += f[1] * dt;
                lvz[l] += f[2] * dt;
                lpx[l] += f[0] * dt2_steps;
                lpy[l] += f[1] * dt2_steps;
                lpz[l] += f[2] * dt2_steps;
            }
        }
        vx[b..b + LANES].copy_from_slice(&lvx);
        vy[b..b + LANES].copy_from_slice(&lvy);
        vz[b..b + LANES].copy_from_slice(&lvz);
        px[b..b + LANES].copy_from_slice(&lpx);
        py[b..b + LANES].copy_from_slice(&lpy);
        pz[b..b + LANES].copy_from_slice(&lpz);
        b += LANES;
    }
    for b in b..nt {
        let on = [tx[b], ty[b], tz[b]];
        for &(act, spec, gm) in bad {
            let f = accel_delta(act, spec, gm, on, eps2);
            vx[b] += f[0] * dt;
            vy[b] += f[1] * dt;
            vz[b] += f[2] * dt;
            px[b] += f[0] * dt2_steps;
            py[b] += f[1] * dt2_steps;
            pz[b] += f[2] * dt2_steps;
        }
    }
}

// ---------------------------------------------------------------------------
// The second core
// ---------------------------------------------------------------------------
//
// The two cross kernels above hand their back target rows to one helper
// thread when a call is large enough, and run the front rows themselves.
// Each row keeps its own sources, in its own order, through its own
// expression tree, so where the rows run cannot change a bit or an op
// count. The self kernel stays on one thread: Newton's third law writes
// both rows of every pair.

/// Pair evaluations from which a call splits. Handing a half over costs a
/// few µs of copying (up to about 25 KB in and 6 KB back at N = 4096),
/// under a tenth of a call this size while the helper is still polling
/// (a parked one adds a futex wake); and no partition pair of the N = 64
/// testbed runs or of the 64-particle real-backend ranks reaches it
/// (`split_predicate_engages_only_on_large_partitions`).
const SPLIT_PAIRS: usize = 1 << 14;

/// Where a call over `nt` target rows, each of `per_row` pair
/// evaluations, splits: the caller keeps rows `[0, mid)` — whole `LANES`
/// blocks — and the helper takes `[mid, nt)`, scalar tail included.
/// `None` below [`SPLIT_PAIRS`], or with fewer than two blocks of rows.
fn split_point(nt: usize, per_row: usize) -> Option<usize> {
    let large = nt >= 2 * LANES && nt.saturating_mul(per_row) >= SPLIT_PAIRS;
    large.then(|| (nt / 2 + LANES / 2) / LANES * LANES)
}

/// Where a call over `nt` rows of `per_row` pair evaluations splits, and
/// the helper to hand its back rows to — if the call is large enough and
/// no other caller holds the helper.
fn split(nt: usize, per_row: usize) -> Option<(usize, Seat<'static, Half>)> {
    let mid = split_point(nt, per_row)?;
    Some((mid, helper()?.seat()?))
}

/// What a split call's helper half runs, with the constants it needs.
#[derive(Clone, Copy)]
enum Kind {
    Absorb { g: f64, eps2: f64 },
    Correct { eps2: f64, dt: f64, dt2_steps: f64 },
}

impl Default for Kind {
    fn default() -> Self {
        Kind::Absorb { g: 0.0, eps2: 0.0 }
    }
}

/// The helper's half of a split call, owned so that it can cross threads.
/// One value is recycled for every call, so its buffers grow to the
/// largest half seen and then stay.
#[derive(Default)]
struct Half {
    kind: Kind,
    /// The half's target rows.
    targets: Soa3,
    /// Its accumulators (`absorb`) or velocities (correction).
    out: Soa3,
    /// Its positions (correction only).
    pos: Soa3,
    /// Every source and its mass (`absorb` only).
    src: Soa3,
    mass: Vec<f64>,
    /// The gathered bad sources (correction only).
    bad: Vec<BadSource>,
}

/// Runs a [`Half`] on the helper thread, in place: no allocation.
fn run_half(h: &mut Half) {
    let rows = 0..h.targets.len();
    match h.kind {
        Kind::Absorb { g, eps2 } => absorb_rows(
            h.targets.lanes(rows.clone()),
            h.out.lanes_mut(rows),
            h.src.lanes(0..h.mass.len()),
            &h.mass,
            g,
            eps2,
        ),
        Kind::Correct {
            eps2,
            dt,
            dt2_steps,
        } => correct_rows(
            h.targets.lanes(rows.clone()),
            h.out.lanes_mut(rows.clone()),
            h.pos.lanes_mut(rows),
            &h.bad,
            eps2,
            dt,
            dt2_steps,
        ),
    }
}

/// The process's one force helper thread, started by the first call that
/// splits; `None` on a one-core host.
fn helper() -> Option<&'static Helper<Half>> {
    static HELPER: OnceLock<Option<Arc<Helper<Half>>>> = OnceLock::new();
    HELPER
        .get_or_init(|| Helper::spawn("nbody-forces", run_half))
        .as_deref()
}

/// One symmetric sweep: the `R` target rows `i..i + R` against sources
/// `js`, applying each pair to both endpoints (Newton's third law). The
/// reverse contribution is written with the exact expressions the
/// one-sided kernel would use (`d' = r_i − r_j` recomputed, not `−d`, so
/// even the sign of zero matches), and `dist²`/`inv` are shared — bitwise
/// equal both ways because `(−a)² ≡ a²` under IEEE-754.
///
/// Each row's i-side sum is a serial add chain in ascending `j` (the
/// order is part of the bit contract); with `R = 2` the two rows' chains
/// are independent, so the core overlaps their add latency. A source `j`
/// receives row `i`'s reverse term and then row `i + 1`'s as two separate
/// adds, which is the ascending source order the one-sided loop gives it.
/// Every source must lie above the rows (`js.start ≥ i + R`); the pairs
/// among the rows themselves are the caller's.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn symmetric_sweep<const R: usize>(
    px: &[f64],
    py: &[f64],
    pz: &[f64],
    mass: &[f64],
    ax: &mut [f64],
    ay: &mut [f64],
    az: &mut [f64],
    i: usize,
    js: std::ops::Range<usize>,
    g: f64,
    eps2: f64,
) {
    // The i-side accumulation is a serial FP reduction (order is part of
    // the bit contract), which would chain the expensive divide/sqrt into
    // it if fused. Split each block: pass 1 computes displacements and
    // `inv` with no cross-iteration dependency (autovectorizes, including
    // the division and square root — both exactly rounded per IEEE lane),
    // pass 2 replays the cheap multiply/adds in serial order.
    const BLK: usize = 8;
    debug_assert!(js.start >= i + R);
    let pxi: [f64; R] = std::array::from_fn(|r| px[i + r]);
    let pyi: [f64; R] = std::array::from_fn(|r| py[i + r]);
    let pzi: [f64; R] = std::array::from_fn(|r| pz[i + r]);
    let gmi: [f64; R] = std::array::from_fn(|r| g * mass[i + r]);
    let mut aix: [f64; R] = std::array::from_fn(|r| ax[i + r]);
    let mut aiy: [f64; R] = std::array::from_fn(|r| ay[i + r]);
    let mut aiz: [f64; R] = std::array::from_fn(|r| az[i + r]);
    let mut j = js.start;
    while j + BLK <= js.end {
        let pxs: &[f64; BLK] = px[j..j + BLK].try_into().unwrap();
        let pys: &[f64; BLK] = py[j..j + BLK].try_into().unwrap();
        let pzs: &[f64; BLK] = pz[j..j + BLK].try_into().unwrap();
        let ms: &[f64; BLK] = mass[j..j + BLK].try_into().unwrap();
        let mut fix = [[0.0f64; BLK]; R];
        let mut fiy = [[0.0f64; BLK]; R];
        let mut fiz = [[0.0f64; BLK]; R];
        let mut gx = [[0.0f64; BLK]; R];
        let mut gy = [[0.0f64; BLK]; R];
        let mut gz = [[0.0f64; BLK]; R];
        for r in 0..R {
            for l in 0..BLK {
                let dx = pxs[l] - pxi[r];
                let dy = pys[l] - pyi[r];
                let dz = pzs[l] - pzi[r];
                let dist_sq = (dx * dx + dy * dy + dz * dz) + eps2;
                let inv = 1.0 / (dist_sq * dist_sq.sqrt());
                let si = (g * ms[l]) * inv;
                let sj = gmi[r] * inv;
                fix[r][l] = dx * si;
                fiy[r][l] = dy * si;
                fiz[r][l] = dz * si;
                gx[r][l] = (pxi[r] - pxs[l]) * sj;
                gy[r][l] = (pyi[r] - pys[l]) * sj;
                gz[r][l] = (pzi[r] - pzs[l]) * sj;
            }
        }
        // The only irreducibly serial piece: each row's i-side sum in
        // ascending j order, the rows' chains interleaved.
        for l in 0..BLK {
            for r in 0..R {
                aix[r] += fix[r][l];
                aiy[r] += fiy[r][l];
                aiz[r] += fiz[r][l];
            }
        }
        // Each j in the block is distinct, so the reverse updates are a
        // contiguous vector add per row, rows in ascending order.
        let axs: &mut [f64; BLK] = (&mut ax[j..j + BLK]).try_into().unwrap();
        for gxr in &gx {
            for l in 0..BLK {
                axs[l] += gxr[l];
            }
        }
        let ays: &mut [f64; BLK] = (&mut ay[j..j + BLK]).try_into().unwrap();
        for gyr in &gy {
            for l in 0..BLK {
                ays[l] += gyr[l];
            }
        }
        let azs: &mut [f64; BLK] = (&mut az[j..j + BLK]).try_into().unwrap();
        for gzr in &gz {
            for l in 0..BLK {
                azs[l] += gzr[l];
            }
        }
        j += BLK;
    }
    for j in j..js.end {
        for r in 0..R {
            let dx = px[j] - pxi[r];
            let dy = py[j] - pyi[r];
            let dz = pz[j] - pzi[r];
            let dist_sq = (dx * dx + dy * dy + dz * dz) + eps2;
            let inv = 1.0 / (dist_sq * dist_sq.sqrt());
            let si = (g * mass[j]) * inv;
            let sj = gmi[r] * inv;
            aix[r] += dx * si;
            aiy[r] += dy * si;
            aiz[r] += dz * si;
            let ex = pxi[r] - px[j];
            let ey = pyi[r] - py[j];
            let ez = pzi[r] - pz[j];
            ax[j] += ex * sj;
            ay[j] += ey * sj;
            az[j] += ez * sj;
        }
    }
    ax[i..i + R].copy_from_slice(&aix);
    ay[i..i + R].copy_from_slice(&aiy);
    az[i..i + R].copy_from_slice(&aiz);
}

/// SoA twin of [`accumulate_self`], evaluating each unordered pair once
/// and applying it to both endpoints — half the pair evaluations of the
/// reference kernel for the same bits. Tiles are visited in
/// lexicographic order (diagonal first, then off-diagonals ascending),
/// which delivers every target its sources in exactly the ascending
/// order of the one-sided loop, even though target rows are swept two
/// at a time. The returned modelled op count is unchanged: the *paper's*
/// cost model still pays `n·(n−1)` pair evaluations; only our wall-clock
/// exploits the symmetry.
pub fn accumulate_self_soa(pos: &Soa3, mass: &[f64], acc: &mut Soa3, g: f64, eps: f64) -> u64 {
    let n = pos.len();
    debug_assert_eq!(n, mass.len());
    debug_assert_eq!(n, acc.len());
    let eps2 = eps * eps;
    let (px, py, pz) = (&pos.x[..n], &pos.y[..n], &pos.z[..n]);
    let (ax, ay, az) = (&mut acc.x, &mut acc.y, &mut acc.z);

    let mut t0 = 0usize;
    while t0 < n {
        let t1 = (t0 + TILE).min(n);
        // Diagonal tile: triangular sweep within [t0, t1), rows in pairs.
        // The pair (i, i+1) goes first, exactly as row i's first step, so
        // row i+1 holds every source below it before its own chain
        // starts. An odd last row has no source left in the tile.
        for i in (t0..t1 - 1).step_by(2) {
            symmetric_sweep::<1>(px, py, pz, mass, ax, ay, az, i, i + 1..i + 2, g, eps2);
            symmetric_sweep::<2>(px, py, pz, mass, ax, ay, az, i, i + 2..t1, g, eps2);
        }
        // Off-diagonal tiles [t0, t1) × [u0, u1), ascending. Only the
        // last tile can hold an odd row count, and it has none of these.
        let mut u0 = t1;
        while u0 < n {
            let u1 = (u0 + TILE).min(n);
            debug_assert_eq!(t1 - t0, TILE);
            for i in (t0..t1).step_by(2) {
                symmetric_sweep::<2>(px, py, pz, mass, ax, ay, az, i, u0..u1, g, eps2);
            }
            u0 = u1;
        }
        t0 = t1;
    }
    (n as u64) * (n.saturating_sub(1) as u64) * OPS_PER_PAIR
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::ZERO3;

    const G: f64 = 1.0;

    #[test]
    fn accel_points_toward_source() {
        let a = accel_from(ZERO3, Vec3::new(2.0, 0.0, 0.0), 1.0, G, 0.0);
        assert!(a.x > 0.0);
        assert_eq!(a.y, 0.0);
        assert_eq!(a.z, 0.0);
    }

    #[test]
    fn accel_magnitude_matches_inverse_square() {
        // Unsoftened: |a| = G·m/r².
        let a = accel_from(ZERO3, Vec3::new(2.0, 0.0, 0.0), 3.0, G, 0.0);
        assert!((a.norm() - 3.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn accumulate_self_skips_self_interaction() {
        let pos = vec![ZERO3, Vec3::new(1.0, 0.0, 0.0)];
        let mass = vec![1.0, 1.0];
        let mut acc = vec![ZERO3; 2];
        let ops = accumulate_self(&pos, &mass, &mut acc, G, 0.0);
        assert!((acc[0].x - 1.0).abs() < 1e-12);
        assert!((acc[1].x + 1.0).abs() < 1e-12);
        assert_eq!(ops, 2 * OPS_PER_PAIR);
    }

    #[test]
    fn partition_accumulation_equals_manual_loop() {
        let targets: Vec<Vec3> = (0..4)
            .map(|i| Vec3::new(i as f64 * 0.3, 0.1, -0.2))
            .collect();
        let src: Vec<Vec3> = (0..3)
            .map(|i| Vec3::new(-1.0, i as f64 * 0.5, 0.7))
            .collect();
        let mass = vec![0.5, 1.5, 2.5];
        let mut acc = vec![ZERO3; 4];
        accumulate_partition(&targets, &mut acc, &src, &mass, G, 0.02);
        for (b, &pb) in targets.iter().enumerate() {
            let mut manual = ZERO3;
            for (j, &pa) in src.iter().enumerate() {
                manual += accel_from(pb, pa, mass[j], G, 0.02);
            }
            assert_eq!(acc[b], manual);
        }
    }

    fn cloud(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let ps = crate::particle::uniform_cloud(n, seed);
        (
            ps.iter().map(|p| p.pos).collect(),
            ps.iter().map(|p| p.mass).collect(),
        )
    }

    /// Non-trivial starting accumulator, so the tests also prove the SoA
    /// kernels *accumulate* (rather than overwrite) exactly like the
    /// reference.
    fn seeded_acc(n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|i| Vec3::new(i as f64 * 0.125, -(i as f64), 0.5))
            .collect()
    }

    #[test]
    fn soa_self_kernel_is_bit_identical_across_tiles() {
        // 1100 > 2·TILE: exercises the diagonal tile, off-diagonal tiles,
        // and both remainder paths.
        let (pos, mass) = cloud(1100, 3);
        let mut want = seeded_acc(pos.len());
        let ops_want = accumulate_self(&pos, &mass, &mut want, G, 0.05);

        let soa_pos = crate::soa::Soa3::from_vec3s(&pos);
        let mut got = crate::soa::Soa3::from_vec3s(&seeded_acc(pos.len()));
        let ops_got = accumulate_self_soa(&soa_pos, &mass, &mut got, G, 0.05);

        assert_eq!(ops_got, ops_want, "modelled op count must not change");
        for (i, w) in want.iter().enumerate() {
            let g = got.get(i);
            assert!(
                w.x.to_bits() == g.x.to_bits()
                    && w.y.to_bits() == g.y.to_bits()
                    && w.z.to_bits() == g.z.to_bits(),
                "particle {i}: scalar {w:?} != soa {g:?}"
            );
        }
    }

    #[test]
    fn soa_partition_kernel_is_bit_identical_across_tiles() {
        let (all, all_mass) = cloud(1200, 9);
        let (tp, sp) = all.split_at(150);
        let sm = &all_mass[150..];
        let mut want = seeded_acc(tp.len());
        let ops_want = accumulate_partition(tp, &mut want, sp, sm, G, 0.05);

        let targets = crate::soa::Soa3::from_vec3s(tp);
        let src = crate::soa::Soa3::from_vec3s(sp);
        let mut got = crate::soa::Soa3::from_vec3s(&seeded_acc(tp.len()));
        let ops_got = accumulate_partition_soa(&targets, &mut got, &src, sm, G, 0.05);

        assert_eq!(ops_got, ops_want, "modelled op count must not change");
        for (i, w) in want.iter().enumerate() {
            assert_eq!(w.to_bits_triplet(), got.get(i).to_bits_triplet(), "{i}");
        }
    }

    #[test]
    fn soa_kernels_handle_degenerate_sizes() {
        use crate::soa::Soa3;
        // Empty.
        let empty = Soa3::new();
        let mut acc = Soa3::new();
        assert_eq!(accumulate_self_soa(&empty, &[], &mut acc, G, 0.05), 0);
        assert_eq!(
            accumulate_partition_soa(&empty, &mut acc, &empty, &[], G, 0.05),
            0
        );
        // Single particle feels nothing from itself.
        let one = Soa3::from_vec3s(&[Vec3::new(1.0, 2.0, 3.0)]);
        let mut acc = Soa3::zeros(1);
        assert_eq!(accumulate_self_soa(&one, &[2.0], &mut acc, G, 0.05), 0);
        assert_eq!(acc.get(0), ZERO3);
    }

    /// Partition sizes of `n` particles on the paper's testbed.
    fn testbed_sizes(n: usize) -> Vec<usize> {
        let caps = netsim::ClusterSpec::paper_testbed().capacities();
        crate::partition_proportional(n, &caps)
            .iter()
            .map(|r| r.len())
            .collect()
    }

    /// Only the N = 4096 row can split: no absorb or correction (every
    /// source bad, two evaluations each) between two partitions of the
    /// N = 64 testbed, nor of two 64-particle real-backend ranks, reaches
    /// the threshold; the largest N = 4096 pairs do, both ways round.
    #[test]
    fn split_predicate_engages_only_on_large_partitions() {
        let small = testbed_sizes(64);
        assert_eq!(small.len(), 16);
        for (i, &nt) in small.iter().enumerate() {
            for (k, &ns) in small.iter().enumerate() {
                if i != k {
                    assert_eq!(split_point(nt, ns), None, "absorb {nt} x {ns}");
                    assert_eq!(split_point(nt, 2 * ns), None, "correct {nt} x {ns}");
                }
            }
        }
        assert_eq!(split_point(64, 64), None);
        assert_eq!(split_point(64, 2 * 64), None);
        // The threshold itself engages.
        assert!(split_point(2 * LANES, SPLIT_PAIRS / (2 * LANES)).is_some());

        let large = testbed_sizes(4096);
        let (first, second) = (large[0], large[1]);
        assert!(first > 400 && second > 400, "{large:?}");
        for (nt, ns) in [(first, second), (second, first)] {
            for per_row in [ns, 2 * ns] {
                let mid = split_point(nt, per_row).expect("the largest pairs split");
                assert!(mid.is_multiple_of(LANES) && mid > 0 && mid < nt);
                assert!(mid.abs_diff(nt - mid) <= LANES, "{mid} of {nt}");
            }
        }
    }

    /// Both halves of a split hold at least one `LANES` block of rows, and
    /// the caller's half is whole blocks.
    #[test]
    fn split_point_keeps_whole_blocks_in_front() {
        assert_eq!(split_point(2 * LANES - 1, SPLIT_PAIRS), None);
        assert_eq!(split_point(2 * LANES, SPLIT_PAIRS / (2 * LANES) - 1), None);
        for nt in 2 * LANES..700 {
            let mid = split_point(nt, SPLIT_PAIRS).unwrap();
            assert!(mid.is_multiple_of(LANES) && mid >= LANES && nt - mid >= LANES);
        }
    }

    /// A call that finds the helper taken runs inline, to the same bits,
    /// instead of waiting for it.
    #[test]
    fn a_call_runs_inline_while_the_helper_is_held() {
        let (all, mass) = cloud(400, 5);
        let targets = Soa3::from_vec3s(&all[..200]);
        let src = Soa3::from_vec3s(&all[200..]);
        assert!(split_point(200, 200).is_some());
        let run = || {
            let mut acc = Soa3::from_vec3s(&seeded_acc(200));
            accumulate_partition_soa(&targets, &mut acc, &src, &mass[200..], G, 0.05);
            acc
        };
        let bits = |acc: Soa3| acc.iter().map(|a| a.to_bits_triplet()).collect::<Vec<_>>();
        let free = bits(run());
        let held = helper().map(|h| h.seat());
        assert_eq!(bits(run()), free);
        drop(held);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::vec3::{Vec3, ZERO3};
    use proptest::prelude::*;

    fn vec3() -> impl Strategy<Value = Vec3> {
        (-10.0f64..10.0, -10.0f64..10.0, -10.0f64..10.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    proptest! {
        /// Newton's third law holds for arbitrary pairs: m1·a12 = −m2·a21.
        #[test]
        fn pairwise_forces_are_antisymmetric(
            p1 in vec3(),
            p2 in vec3(),
            m1 in 0.01f64..100.0,
            m2 in 0.01f64..100.0,
            eps in 0.001f64..0.5,
        ) {
            let f12 = accel_from(p1, p2, m2, 1.0, eps) * m1;
            let f21 = accel_from(p2, p1, m1, 1.0, eps) * m2;
            let scale = f12.norm().max(1e-12);
            prop_assert!((f12 + f21).norm() <= 1e-9 * scale);
        }

        /// Softened forces are bounded: |a| ≤ G·m/(2ε²)·(3√3/... ) — we use
        /// the simpler bound G·m/ε² which dominates the softened kernel's
        /// true maximum.
        #[test]
        fn softened_accel_is_bounded(
            p1 in vec3(),
            p2 in vec3(),
            m in 0.01f64..100.0,
            eps in 0.01f64..1.0,
        ) {
            let a = accel_from(p1, p2, m, 1.0, eps);
            prop_assert!(a.is_finite());
            prop_assert!(a.norm() <= m / (eps * eps) + 1e-9);
        }

        /// Accumulating sources one partition at a time equals accumulating
        /// them all at once (associativity of the partition decomposition,
        /// up to FP noise).
        #[test]
        fn partition_split_is_consistent(
            srcs in proptest::collection::vec((vec3(), 0.1f64..5.0), 2..12),
            target in vec3(),
            split in 1usize..11,
        ) {
            let split = split.min(srcs.len() - 1);
            let pos: Vec<Vec3> = srcs.iter().map(|(p, _)| *p).collect();
            let mass: Vec<f64> = srcs.iter().map(|(_, m)| *m).collect();

            let mut whole = vec![ZERO3];
            accumulate_partition(&[target], &mut whole, &pos, &mass, 1.0, 0.05);

            let mut parts = vec![ZERO3];
            accumulate_partition(&[target], &mut parts, &pos[..split], &mass[..split], 1.0, 0.05);
            accumulate_partition(&[target], &mut parts, &pos[split..], &mass[split..], 1.0, 0.05);

            let scale = whole[0].norm().max(1e-12);
            prop_assert!((whole[0] - parts[0]).norm() <= 1e-9 * scale);
        }
    }
}
