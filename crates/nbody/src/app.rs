//! The N-body partition as a [`SpeculativeApp`] — the paper's §5 case study.
//!
//! Each rank owns a contiguous slice of the particle array (allocated
//! proportionally to machine capacity) and broadcasts its particles'
//! positions and velocities every timestep. While a peer's message is in
//! flight the rank speculates the remote positions with the paper's eq. 10
//! (`r*(t) = r(t−1) + v(t−1)·Δt`), computes forces with them, and on
//! arrival applies the eq. 11 acceptance test
//! (`‖r* − r‖ / ‖r_a − r_b‖ ≤ θ`), incrementally recomputing the force
//! contributions of only the offending particles.
//!
//! ## Hot-path engineering
//!
//! State lives in [`Soa3`] structure-of-arrays storage and forces run
//! through the cache-blocked SoA kernels of [`crate::forces`] — bit-for-bit
//! equal to the scalar reference, just faster. The broadcast snapshot is an
//! `Arc<PartitionShared>` refreshed through a small slot ring
//! ([`NBodyApp::refresh_snapshot`]): peers, the driver's history, and
//! in-flight messages hold cheap `Arc` clones, and a slot is rewritten in
//! place as soon as nobody references it — so the steady-state iteration
//! path (begin/absorb/finish/checkpoint/shared, check, and correct
//! through its reused gather scratch) performs no heap allocation.
//! `speculate` is the exception by contract: it returns a freshly
//! predicted snapshot, which necessarily owns new buffers.
//!
//! ## Snapshot lengths
//!
//! A peer decides how long the snapshot it sends is. `absorb`, `check`
//! and `correct` use a snapshot on the prefix it shares with the sender's
//! partition, and `check` rejects one of the wrong length outright; none
//! of them indexes past what it was given.

use std::ops::Range;
use std::sync::Arc;

use mpk::{Rank, WireCodec, WireSize};
use speccore::{CheckOutcome, History, SpeculativeApp};

use crate::forces::{
    accumulate_partition_soa, accumulate_self_soa, correct_partition_soa, eq11_errors,
    CorrectionScratch, OPS_PER_CHECK, OPS_PER_SPECULATE, OPS_PER_UPDATE,
};
use crate::particle::{NBodyConfig, Particle};
use crate::soa::Soa3;
use crate::vec3::{Vec3, ZERO3};

/// One partition's broadcast snapshot: positions and velocities
/// (the paper: "each processor sends the current position and velocity of
/// all its particles to all other processors").
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionShared {
    /// Positions of the partition's particles, partition-local order.
    pub pos: Soa3,
    /// Velocities, same order.
    pub vel: Soa3,
}

impl PartitionShared {
    /// Build from AoS slices (cold path: construction, tests, benches).
    pub fn from_vec3s(pos: &[Vec3], vel: &[Vec3]) -> Self {
        PartitionShared {
            pos: Soa3::from_vec3s(pos),
            vel: Soa3::from_vec3s(vel),
        }
    }

    /// Number of particles in the snapshot.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True when the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }
}

impl WireSize for PartitionShared {
    fn wire_size(&self) -> usize {
        // Modelled as the AoS binary encoding this type has always stood
        // for on the wire — two length-prefixed arrays of 24-byte vectors —
        // so the network cost model is independent of the in-memory layout.
        2 * (8 + 24 * self.pos.len())
    }
}

/// The socket wire encoding is exactly the AoS layout [`WireSize`]
/// models: two length-prefixed arrays of `(x, y, z)` triples, so
/// `wire_size` equals the encoded length byte-for-byte.
impl WireCodec for PartitionShared {
    fn encode(&self, out: &mut Vec<u8>) {
        for soa in [&self.pos, &self.vel] {
            (soa.len() as u64).encode(out);
            let at = out.len();
            out.resize(at + 24 * soa.len(), 0);
            let lanes = soa.x.iter().zip(&soa.y).zip(&soa.z);
            for (triple, ((x, y), z)) in out[at..].chunks_exact_mut(24).zip(lanes) {
                triple[..8].copy_from_slice(&x.to_le_bytes());
                triple[8..16].copy_from_slice(&y.to_le_bytes());
                triple[16..].copy_from_slice(&z.to_le_bytes());
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let decode_soa = |buf: &mut &[u8]| -> Option<Soa3> {
            let len = u64::decode(buf)? as usize;
            let bytes = len.checked_mul(24)?;
            if bytes > buf.len() {
                return None;
            }
            let (triples, rest) = buf.split_at(bytes);
            *buf = rest;
            // One pass per lane: each collects into an exactly-sized Vec.
            let lane = |at: usize| -> Vec<f64> {
                triples
                    .chunks_exact(24)
                    .map(|t| {
                        let mut raw = [0u8; 8];
                        raw.copy_from_slice(&t[at..at + 8]);
                        f64::from_le_bytes(raw)
                    })
                    .collect()
            };
            Some(Soa3 {
                x: lane(0),
                y: lane(8),
                z: lane(16),
            })
        };
        let pos = decode_soa(buf)?;
        let vel = decode_soa(buf)?;
        (pos.len() == vel.len()).then_some(PartitionShared { pos, vel })
    }
}

/// Which speculation function to use (the paper studies eq. 10 = `Linear`;
/// `Quadratic` is its "higher order derivatives" future-work variant,
/// `Hold` the trivial baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SpeculationOrder {
    /// Predict the last received position unchanged.
    Hold,
    /// Eq. 10: extrapolate positions one (or `ahead`) velocity steps.
    #[default]
    Linear,
    /// Estimate acceleration from the last two velocity samples and
    /// extrapolate both position and velocity with it.
    Quadratic,
}

/// Rollback snapshot of a partition's dynamic state (positions and
/// velocities). Reused in place through
/// [`SpeculativeApp::checkpoint_into`].
#[derive(Clone, Debug, Default)]
pub struct NBodyCheckpoint {
    pos: Soa3,
    vel: Soa3,
}

/// One rank's partition of the N-body system.
pub struct NBodyApp {
    cfg: NBodyConfig,
    order: SpeculationOrder,
    me: usize,
    ranges: Vec<Range<usize>>,
    /// Masses of *all* particles (static data, distributed at startup).
    masses: Vec<f64>,
    /// My particles' state, structure-of-arrays.
    pos: Soa3,
    vel: Soa3,
    /// Per-iteration acceleration accumulator.
    acc: Soa3,
    /// My positions at force-accumulation time, kept so corrections can
    /// retract/reapply contributions exactly.
    pos_at_compute: Soa3,
    /// Snapshot slot ring: [`shared`](SpeculativeApp::shared) hands out
    /// `Arc` clones of `snapshots[current]`; a refresh rewrites the first
    /// slot nobody else references (in place, no allocation) and only
    /// grows the ring when every slot is still held elsewhere.
    snapshots: Vec<Arc<PartitionShared>>,
    current: usize,
    /// Gather buffer of the incremental correction, reused across calls.
    scratch: CorrectionScratch,
}

impl NBodyApp {
    /// Build rank `me`'s partition from the full initial particle set and
    /// the global partition layout.
    pub fn new(
        all: &[Particle],
        ranges: Vec<Range<usize>>,
        me: usize,
        cfg: NBodyConfig,
        order: SpeculationOrder,
    ) -> Self {
        assert!(me < ranges.len(), "rank out of range");
        assert_eq!(
            ranges.iter().map(|r| r.len()).sum::<usize>(),
            all.len(),
            "ranges must cover all particles"
        );
        let mine = ranges[me].clone();
        let n_mine = mine.len();
        let pos: Vec<Vec3> = all[mine.clone()].iter().map(|p| p.pos).collect();
        let vel: Vec<Vec3> = all[mine].iter().map(|p| p.vel).collect();
        let pos = Soa3::from_vec3s(&pos);
        let vel = Soa3::from_vec3s(&vel);
        let snapshot = Arc::new(PartitionShared {
            pos: pos.clone(),
            vel: vel.clone(),
        });
        NBodyApp {
            cfg,
            order,
            me,
            masses: all.iter().map(|p| p.mass).collect(),
            pos,
            vel,
            acc: Soa3::zeros(n_mine),
            pos_at_compute: Soa3::zeros(n_mine),
            ranges,
            snapshots: vec![snapshot],
            current: 0,
            scratch: CorrectionScratch::default(),
        }
    }

    /// Number of particles this rank owns.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True if the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// This rank's particles as full [`Particle`] values.
    pub fn particles(&self) -> Vec<Particle> {
        let mass = &self.masses[self.ranges[self.me].clone()];
        self.pos
            .iter()
            .zip(self.vel.iter())
            .zip(mass)
            .map(|((pos, vel), &mass)| Particle { mass, pos, vel })
            .collect()
    }

    /// Bit-exact fingerprint of this rank's positions and velocities.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = obs::Fingerprint::new();
        for soa in [&self.pos, &self.vel] {
            fp.write_f64s(&soa.x);
            fp.write_f64s(&soa.y);
            fp.write_f64s(&soa.z);
        }
        fp.finish()
    }

    /// Centroid of my partition, the cheap stand-in for the per-pair
    /// denominator of eq. 11 (keeps checking at the paper's ~24 ops per
    /// particle instead of another O(N_i·N_k) pass).
    fn centroid(&self) -> Vec3 {
        if self.pos.is_empty() {
            return ZERO3;
        }
        self.pos.iter().fold(ZERO3, |a, p| a + p) / self.pos.len() as f64
    }

    /// Bring the published snapshot up to date with `pos`/`vel`. Rewrites
    /// an unreferenced ring slot in place when one exists (the steady
    /// state, once earlier broadcasts have been consumed); allocates a new
    /// slot only while every existing one is still referenced by history,
    /// in-flight messages, or pending execution records.
    fn refresh_snapshot(&mut self) {
        let free = self
            .snapshots
            .iter_mut()
            .position(|s| Arc::get_mut(s).is_some());
        match free {
            Some(i) => {
                let slot = Arc::get_mut(&mut self.snapshots[i]).expect("checked unreferenced");
                slot.pos.clone_from(&self.pos);
                slot.vel.clone_from(&self.vel);
                self.current = i;
            }
            None => {
                self.snapshots.push(Arc::new(PartitionShared {
                    pos: self.pos.clone(),
                    vel: self.vel.clone(),
                }));
                self.current = self.snapshots.len() - 1;
            }
        }
    }

    /// Shared body of `correct`/`correct_deep`: for the particles of
    /// `from`'s partition that exceeded θ (the set `check` counted bad),
    /// retract the speculated force contribution and apply the actual
    /// one. Forces are linear in per-source terms, and with semi-implicit
    /// Euler a force delta δ present for `steps` integration steps moves v
    /// by δ·Δt and x by δ·Δt²·steps — so the post-integration state is
    /// fixed in place, the paper's `correct(X_j(t+1))`.
    fn apply_correction(
        &mut self,
        from: Rank,
        speculated: &PartitionShared,
        actual: &PartitionShared,
        steps: f64,
    ) -> u64 {
        let centroid = self.centroid();
        let ops = correct_partition_soa(
            &mut self.pos,
            &mut self.vel,
            &self.pos_at_compute,
            &speculated.pos,
            &actual.pos,
            &self.masses[self.ranges[from.0].clone()],
            centroid,
            steps,
            &self.cfg,
            &mut self.scratch,
        );
        if ops > 0 {
            // The live state moved; the driver re-reads `shared()` next.
            self.refresh_snapshot();
        }
        ops
    }
}

impl SpeculativeApp for NBodyApp {
    type Shared = Arc<PartitionShared>;
    type Checkpoint = NBodyCheckpoint;

    fn shared(&self) -> Arc<PartitionShared> {
        Arc::clone(&self.snapshots[self.current])
    }

    fn begin_iteration(&mut self) -> u64 {
        self.acc.fill(ZERO3);
        self.pos_at_compute.clone_from(&self.pos);
        let mine = self.ranges[self.me].clone();
        accumulate_self_soa(
            &self.pos,
            &self.masses[mine],
            &mut self.acc,
            self.cfg.g,
            self.cfg.softening,
        )
    }

    fn absorb(&mut self, from: Rank, x: &Arc<PartitionShared>) -> u64 {
        let src_range = self.ranges[from.0].clone();
        accumulate_partition_soa(
            &self.pos,
            &mut self.acc,
            &x.pos,
            &self.masses[src_range],
            self.cfg.g,
            self.cfg.softening,
        )
    }

    fn finish_iteration(&mut self) -> u64 {
        fn axis(p: &mut [f64], v: &mut [f64], a: &[f64], dt: f64) {
            for ((p, v), &a) in p.iter_mut().zip(v.iter_mut()).zip(a) {
                *v += a * dt;
                *p += *v * dt;
            }
        }
        let dt = self.cfg.dt;
        axis(&mut self.pos.x, &mut self.vel.x, &self.acc.x, dt);
        axis(&mut self.pos.y, &mut self.vel.y, &self.acc.y, dt);
        axis(&mut self.pos.z, &mut self.vel.z, &self.acc.z, dt);
        self.refresh_snapshot();
        OPS_PER_UPDATE * self.pos.len() as u64
    }

    fn speculate(
        &self,
        _from: Rank,
        hist: &History<Arc<PartitionShared>>,
        ahead: u32,
    ) -> Option<(Arc<PartitionShared>, u64)> {
        let latest = hist.latest()?;
        let n = latest.pos.len() as u64;
        let h = self.cfg.dt * ahead as f64;
        let linear = |latest: &PartitionShared| {
            // Eq. 10: r* = r + v·Δt (velocity held constant).
            let extrap = |r: &[f64], v: &[f64]| r.iter().zip(v).map(|(&r, &v)| r + v * h).collect();
            let pos = Soa3 {
                x: extrap(&latest.pos.x, &latest.vel.x),
                y: extrap(&latest.pos.y, &latest.vel.y),
                z: extrap(&latest.pos.z, &latest.vel.z),
            };
            Arc::new(PartitionShared {
                pos,
                vel: latest.vel.clone(),
            })
        };
        match self.order {
            SpeculationOrder::Hold => Some((Arc::clone(latest), n)),
            SpeculationOrder::Linear => Some((linear(latest), OPS_PER_SPECULATE * n)),
            SpeculationOrder::Quadratic => {
                let same_len = hist
                    .nth_back(1)
                    .filter(|(_, prev)| prev.len() == latest.len());
                let Some((prev_iter, prev)) = same_len else {
                    // Not enough history for an acceleration estimate (or
                    // the peer changed its snapshot's length in between);
                    // degrade to eq. 10.
                    return Some((linear(latest), OPS_PER_SPECULATE * n));
                };
                let latest_iter = hist.latest_iter().expect("non-empty");
                let span = (latest_iter - prev_iter) as f64 * self.cfg.dt;
                let mut pos = Soa3::new();
                let mut vel = Soa3::new();
                for i in 0..latest.pos.len() {
                    let a_est = (latest.vel.get(i) - prev.vel.get(i)) / span;
                    let v = latest.vel.get(i) + a_est * h;
                    pos.push(latest.pos.get(i) + latest.vel.get(i) * h + a_est * (0.5 * h * h));
                    vel.push(v);
                }
                Some((
                    Arc::new(PartitionShared { pos, vel }),
                    2 * OPS_PER_SPECULATE * n,
                ))
            }
        }
    }

    fn check(
        &self,
        from: Rank,
        actual: &Arc<PartitionShared>,
        speculated: &Arc<PartitionShared>,
    ) -> CheckOutcome {
        // A peer's snapshot is only as long as the peer says: one that
        // disagrees with the partition layout (or with the history it was
        // speculated from) is compared on the common prefix and rejected
        // whole, every unit bad.
        let expected = self.ranges[from.0].len();
        let n = expected.min(actual.len()).min(speculated.len());
        let malformed = actual.len() != expected || speculated.len() != expected;
        let mut max_error: f64 = 0.0;
        let mut max_accepted: f64 = 0.0;
        let mut bad = 0u64;
        let softening = self.cfg.softening;
        for err in eq11_errors(&speculated.pos, &actual.pos, n, self.centroid(), softening) {
            max_error = max_error.max(err);
            if malformed || err > self.cfg.theta {
                bad += 1;
            } else {
                max_accepted = max_accepted.max(err);
            }
        }
        CheckOutcome {
            accept: bad == 0 && !malformed,
            max_error,
            max_accepted_error: max_accepted,
            checked_units: n as u64,
            bad_units: bad,
            ops: OPS_PER_CHECK * n as u64,
        }
    }

    fn correct(
        &mut self,
        from: Rank,
        speculated: &Arc<PartitionShared>,
        actual: &Arc<PartitionShared>,
    ) -> u64 {
        self.apply_correction(from, speculated, actual, 1.0)
    }

    fn correct_deep(
        &mut self,
        from: Rank,
        speculated: &Arc<PartitionShared>,
        actual: &Arc<PartitionShared>,
        depth: u64,
    ) -> Option<u64> {
        // First-order propagation of the force correction through the
        // `depth` iterations already executed on top: a velocity error
        // δ·Δt present for (depth + 1) integration steps displaced
        // positions by δ·Δt²·(depth + 1). The residual (the slightly wrong
        // forces used in the interim iterations) is second-order in a
        // θ-bounded quantity — the same accept-small-errors trade the
        // paper makes throughout.
        Some(self.apply_correction(from, speculated, actual, (depth + 1) as f64))
    }

    fn delta_extract(&self, shared: &Arc<PartitionShared>, out: &mut Vec<f64>) -> bool {
        // Six lanes per particle, particle-major: the layout is a pure
        // function of the partition size, so lane indices are stable across
        // iterations and identical on sender and receiver.
        out.clear();
        out.reserve(6 * shared.len());
        for i in 0..shared.len() {
            out.extend_from_slice(&[
                shared.pos.x[i],
                shared.pos.y[i],
                shared.pos.z[i],
                shared.vel.x[i],
                shared.vel.y[i],
                shared.vel.z[i],
            ]);
        }
        true
    }

    fn delta_patch(
        &self,
        base: &Arc<PartitionShared>,
        entries: &[(u32, f64)],
    ) -> Option<Arc<PartitionShared>> {
        let mut next = PartitionShared::clone(base);
        for &(lane, value) in entries {
            let (i, comp) = (lane as usize / 6, lane as usize % 6);
            if i >= next.len() {
                // The lane is the peer's word: out of range drops the frame.
                return None;
            }
            let soa = if comp < 3 {
                &mut next.pos
            } else {
                &mut next.vel
            };
            match comp % 3 {
                0 => soa.x[i] = value,
                1 => soa.y[i] = value,
                _ => soa.z[i] = value,
            }
        }
        Some(Arc::new(next))
    }

    fn checkpoint(&self) -> NBodyCheckpoint {
        NBodyCheckpoint {
            pos: self.pos.clone(),
            vel: self.vel.clone(),
        }
    }

    fn checkpoint_into(&self, slot: &mut Option<NBodyCheckpoint>) {
        match slot {
            Some(c) => {
                c.pos.clone_from(&self.pos);
                c.vel.clone_from(&self.vel);
            }
            None => *slot = Some(self.checkpoint()),
        }
    }

    fn restore(&mut self, c: &NBodyCheckpoint) {
        self.pos.clone_from(&c.pos);
        self.vel.clone_from(&c.vel);
        self.refresh_snapshot();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particle::{rotating_disk, uniform_cloud};
    use crate::partition::partition_proportional;

    #[test]
    fn delta_extract_patch_roundtrip_is_exact() {
        let app = make_app(12, 2, 0, 0.1);
        let a = app.shared();
        let mut lanes_a = Vec::new();
        assert!(app.delta_extract(&a, &mut lanes_a));
        assert_eq!(lanes_a.len(), 6 * a.len());

        let mut moved = PartitionShared::clone(&a);
        moved.pos.x[3] += 0.25;
        moved.vel.z[5] -= 1.5;
        let moved = Arc::new(moved);
        let mut lanes_b = Vec::new();
        app.delta_extract(&moved, &mut lanes_b);

        let entries: Vec<(u32, f64)> = lanes_a
            .iter()
            .zip(&lanes_b)
            .enumerate()
            .filter(|(_, (x, y))| x.to_bits() != y.to_bits())
            .map(|(i, (_, y))| (i as u32, *y))
            .collect();
        assert_eq!(entries.len(), 2, "exactly the two touched lanes differ");
        let patched = app.delta_patch(&a, &entries).unwrap();
        assert_eq!(*patched, *moved);
    }

    fn hist_of(shares: &[Arc<PartitionShared>]) -> History<Arc<PartitionShared>> {
        let mut h = History::new(4);
        for (i, s) in shares.iter().enumerate() {
            h.record(i as u64, Arc::clone(s));
        }
        h
    }

    fn share(pos: Vec<Vec3>, vel: Vec<Vec3>) -> Arc<PartitionShared> {
        Arc::new(PartitionShared::from_vec3s(&pos, &vel))
    }

    fn make_app(n: usize, p: usize, me: usize, theta: f64) -> NBodyApp {
        let particles = uniform_cloud(n, 1);
        let ranges = partition_proportional(n, &vec![1.0; p]);
        NBodyApp::new(
            &particles,
            ranges,
            me,
            NBodyConfig::default().with_theta(theta),
            SpeculationOrder::Linear,
        )
    }

    #[test]
    fn construction_slices_the_partition() {
        let app = make_app(30, 3, 1, 0.01);
        assert_eq!(app.len(), 10);
        assert_eq!(app.ranges[app.me], 10..20);
        assert_eq!(app.particles().len(), 10);
    }

    #[test]
    fn linear_speculation_is_eq_10() {
        let app = make_app(10, 2, 0, 0.01);
        let v = Vec3::new(1.0, -2.0, 0.5);
        let r = Vec3::new(0.1, 0.2, 0.3);
        let h = hist_of(&[share(vec![r], vec![v])]);
        let (spec, ops) = app.speculate(Rank(1), &h, 1).unwrap();
        let dt = NBodyConfig::default().dt;
        assert_eq!(spec.pos.get(0), r + v * dt);
        assert_eq!(spec.vel.get(0), v);
        assert_eq!(ops, OPS_PER_SPECULATE);
    }

    #[test]
    fn speculation_scales_with_ahead() {
        let app = make_app(10, 2, 0, 0.01);
        let v = Vec3::new(1.0, 0.0, 0.0);
        let r = ZERO3;
        let h = hist_of(&[share(vec![r], vec![v])]);
        let dt = NBodyConfig::default().dt;
        let (s1, _) = app.speculate(Rank(1), &h, 1).unwrap();
        let (s3, _) = app.speculate(Rank(1), &h, 3).unwrap();
        assert_eq!(s1.pos.get(0).x, dt);
        assert_eq!(s3.pos.get(0).x, 3.0 * dt);
    }

    #[test]
    fn quadratic_speculation_uses_acceleration() {
        let particles = uniform_cloud(10, 1);
        let ranges = partition_proportional(10, &[1.0, 1.0]);
        let app = NBodyApp::new(
            &particles,
            ranges,
            0,
            NBodyConfig::default(),
            SpeculationOrder::Quadratic,
        );
        let dt = NBodyConfig::default().dt;
        // Velocity grew from 1 to 2 over one step → a = 1/dt.
        let h = hist_of(&[
            share(vec![ZERO3], vec![Vec3::new(1.0, 0.0, 0.0)]),
            share(
                vec![Vec3::new(dt, 0.0, 0.0)],
                vec![Vec3::new(2.0, 0.0, 0.0)],
            ),
        ]);
        let (spec, _) = app.speculate(Rank(1), &h, 1).unwrap();
        // v* = 2 + (1/dt)·dt = 3; r* = dt + 2·dt + ½·(1/dt)·dt² = 3.5·dt.
        assert!((spec.vel.get(0).x - 3.0).abs() < 1e-12);
        assert!((spec.pos.get(0).x - 3.5 * dt).abs() < 1e-12);
    }

    #[test]
    fn quadratic_speculation_skips_a_history_entry_of_another_length() {
        let particles = uniform_cloud(10, 1);
        let ranges = partition_proportional(10, &[1.0, 1.0]);
        let cfg = NBodyConfig::default();
        let app = NBodyApp::new(&particles, ranges, 0, cfg, SpeculationOrder::Quadratic);
        let v = Vec3::new(1.0, 0.0, 0.0);
        let h = hist_of(&[
            share(vec![ZERO3], vec![v]),
            share(vec![ZERO3; 2], vec![v; 2]),
        ]);
        // Eq. 10 from the newest entry alone.
        let (spec, ops) = app.speculate(Rank(1), &h, 1).unwrap();
        assert_eq!(spec.pos.to_vec3s(), vec![v * cfg.dt; 2]);
        assert_eq!(ops, 2 * OPS_PER_SPECULATE);
    }

    #[test]
    fn hold_speculation_shares_the_history_snapshot() {
        let particles = uniform_cloud(10, 1);
        let ranges = partition_proportional(10, &[1.0, 1.0]);
        let app = NBodyApp::new(
            &particles,
            ranges,
            0,
            NBodyConfig::default(),
            SpeculationOrder::Hold,
        );
        let s = share(vec![ZERO3], vec![Vec3::new(1.0, 0.0, 0.0)]);
        let h = hist_of(std::slice::from_ref(&s));
        let (spec, _) = app.speculate(Rank(1), &h, 1).unwrap();
        assert!(
            Arc::ptr_eq(&spec, &s),
            "Hold must hand out an Arc clone, not a copy"
        );
    }

    #[test]
    fn empty_history_cannot_speculate() {
        let app = make_app(10, 2, 0, 0.01);
        let h: History<Arc<PartitionShared>> = History::new(4);
        assert!(app.speculate(Rank(1), &h, 1).is_none());
    }

    #[test]
    fn check_accepts_exact_speculation() {
        let app = make_app(2, 2, 0, 0.01);
        let s = share(vec![Vec3::new(5.0, 0.0, 0.0)], vec![ZERO3]);
        let out = app.check(Rank(1), &s, &s.clone());
        assert!(out.accept);
        assert_eq!(out.max_error, 0.0);
        assert_eq!(out.bad_units, 0);
        assert_eq!(out.checked_units, 1);
    }

    #[test]
    fn check_rejects_large_displacement() {
        let app = make_app(2, 2, 0, 0.01);
        let actual = share(vec![Vec3::new(5.0, 0.0, 0.0)], vec![ZERO3]);
        let spec = share(vec![Vec3::new(6.0, 0.0, 0.0)], vec![ZERO3]);
        let out = app.check(Rank(1), &actual, &spec);
        assert!(!out.accept);
        assert_eq!(out.bad_units, 1);
        assert!(out.max_error > 0.01);
    }

    #[test]
    fn check_error_scales_with_distance() {
        // Eq. 11: the same absolute displacement matters less for a farther
        // particle.
        let app = make_app(2, 2, 0, 0.01);
        let near_actual = share(vec![Vec3::new(1.0, 0.0, 0.0)], vec![ZERO3]);
        let near_spec = share(vec![Vec3::new(1.01, 0.0, 0.0)], vec![ZERO3]);
        let far_actual = share(vec![Vec3::new(100.0, 0.0, 0.0)], vec![ZERO3]);
        let far_spec = share(vec![Vec3::new(100.01, 0.0, 0.0)], vec![ZERO3]);
        let near = app.check(Rank(1), &near_actual, &near_spec);
        let far = app.check(Rank(1), &far_actual, &far_spec);
        assert!(near.max_error > far.max_error);
    }

    #[test]
    fn correction_repairs_a_misspeculated_iteration() {
        // Run one iteration twice from identical state: once with the
        // actual remote value, once with a bad speculation followed by
        // correct(). Results must agree to FP noise.
        let cfg = NBodyConfig::default().with_theta(0.0);
        let particles = uniform_cloud(20, 2);
        let ranges = partition_proportional(20, &[1.0, 1.0]);
        let remote_pos: Vec<Vec3> = particles[10..].iter().map(|p| p.pos).collect();
        let remote_vel: Vec<Vec3> = particles[10..].iter().map(|p| p.vel).collect();
        let remote_actual = share(remote_pos.clone(), remote_vel.clone());
        let spec_pos: Vec<Vec3> = remote_pos
            .iter()
            .map(|p| *p + Vec3::new(0.05, -0.02, 0.01))
            .collect();
        let remote_spec = share(spec_pos, remote_vel);

        let mut golden =
            NBodyApp::new(&particles, ranges.clone(), 0, cfg, SpeculationOrder::Linear);
        golden.begin_iteration();
        golden.absorb(Rank(1), &remote_actual);
        golden.finish_iteration();

        let mut fixed = NBodyApp::new(&particles, ranges, 0, cfg, SpeculationOrder::Linear);
        fixed.begin_iteration();
        fixed.absorb(Rank(1), &remote_spec);
        fixed.finish_iteration();
        let ops = fixed.correct(Rank(1), &remote_spec, &remote_actual);
        assert!(ops > 0);

        for (a, b) in golden.pos.iter().zip(fixed.pos.iter()) {
            assert!(a.distance(b) < 1e-12, "correction left position residue");
        }
        for (a, b) in golden.vel.iter().zip(fixed.vel.iter()) {
            assert!(a.distance(b) < 1e-12, "correction left velocity residue");
        }
    }

    #[test]
    fn correction_skips_acceptable_particles() {
        // θ large: nothing exceeds the bound, so correct() is a no-op.
        let cfg = NBodyConfig::default().with_theta(1e6);
        let particles = uniform_cloud(20, 2);
        let ranges = partition_proportional(20, &[1.0, 1.0]);
        let mut app = NBodyApp::new(&particles, ranges, 0, cfg, SpeculationOrder::Linear);
        app.begin_iteration();
        let remote_pos: Vec<Vec3> = particles[10..].iter().map(|p| p.pos).collect();
        let remote_vel: Vec<Vec3> = particles[10..].iter().map(|p| p.vel).collect();
        let actual = share(remote_pos.clone(), remote_vel.clone());
        let mut spec_pos = remote_pos;
        spec_pos[0] += Vec3::new(0.001, 0.0, 0.0);
        let spec = share(spec_pos, remote_vel);
        app.absorb(Rank(1), &spec);
        app.finish_iteration();
        let before = app.pos.clone();
        let ops = app.correct(Rank(1), &spec, &actual);
        assert_eq!(ops, 0);
        assert_eq!(app.pos, before);
    }

    /// A peer controls the length of the snapshot it sends (nothing
    /// between `WireCodec::decode` and the hooks compares it with the
    /// partition layout), so every hook must take a longer or shorter one
    /// on the common prefix, and `check` must reject it whole.
    #[test]
    fn wrong_length_snapshots_are_rejected_without_panicking() {
        use crate::forces::OPS_PER_PAIR;
        let particles = uniform_cloud(20, 2);
        let ranges = partition_proportional(20, &[1.0, 1.0]);
        // Rank 1's ten particles cycled out to `len`, displaced by `shift`.
        let snapshot = |len: usize, shift: f64| {
            let pos = (0..len)
                .map(|i| particles[10 + i % 10].pos + Vec3::new(shift, 0.0, 0.0))
                .collect();
            share(pos, vec![ZERO3; len])
        };
        let lengths = [
            (10, 13),
            (10, 7),
            (13, 10),
            (7, 10),
            (13, 7),
            (7, 13),
            (12, 12),
            (8, 8),
            (0, 10),
            (10, 0),
        ];
        for (n_actual, n_spec) in lengths {
            // θ = 0: every displaced particle of the common prefix is bad.
            let cfg = NBodyConfig::default().with_theta(0.0);
            let mut app =
                NBodyApp::new(&particles, ranges.clone(), 0, cfg, SpeculationOrder::Linear);
            let (actual, spec) = (snapshot(n_actual, 0.0), snapshot(n_spec, 0.05));
            let label = format!("actual {n_actual}, speculated {n_spec}");
            app.begin_iteration();
            let absorbed = n_spec.min(10) as u64;
            assert_eq!(
                app.absorb(Rank(1), &spec),
                OPS_PER_PAIR * 10 * absorbed,
                "{label}"
            );
            app.finish_iteration();

            let n = n_actual.min(n_spec).min(10) as u64;
            let out = app.check(Rank(1), &actual, &spec);
            assert!(!out.accept, "{label}");
            assert_eq!((out.checked_units, out.bad_units), (n, n), "{label}");
            assert_eq!(out.max_accepted_error, 0.0, "{label}");
            assert_eq!(out.ops, OPS_PER_CHECK * n, "{label}");

            let repair = 2 * OPS_PER_PAIR * 10 * n;
            assert_eq!(app.correct(Rank(1), &spec, &actual), repair, "{label}");
            let deep = app.correct_deep(Rank(1), &spec, &actual, 2);
            assert_eq!(deep, Some(repair), "{label}");
            assert!(app.pos.iter().chain(app.vel.iter()).all(Vec3::is_finite));
        }

        // Within θ everywhere, but not the partition's length: still
        // rejected, every unit bad — and `correct` finds nothing to repair.
        let cfg = NBodyConfig::default().with_theta(1e6);
        let mut app = NBodyApp::new(&particles, ranges, 0, cfg, SpeculationOrder::Linear);
        let (actual, spec) = (snapshot(12, 0.0), snapshot(12, 0.05));
        let out = app.check(Rank(1), &actual, &spec);
        assert!(!out.accept);
        assert_eq!((out.checked_units, out.bad_units), (10, 10));
        assert!(out.max_error > 0.0);
        assert_eq!(app.correct(Rank(1), &spec, &actual), 0);
    }

    #[test]
    fn checkpoint_restore_round_trips() {
        let mut app = make_app(12, 2, 0, 0.01);
        let c = app.checkpoint();
        let actual = share(vec![Vec3::new(1.0, 1.0, 1.0); 6], vec![ZERO3; 6]);
        app.begin_iteration();
        app.absorb(Rank(1), &actual);
        app.finish_iteration();
        assert_ne!(app.pos, c.pos);
        app.restore(&c);
        assert_eq!(app.pos, c.pos);
        assert_eq!(app.vel, c.vel);
    }

    #[test]
    fn checkpoint_into_reuses_the_slot() {
        let mut app = make_app(12, 2, 0, 0.01);
        let mut slot = None;
        app.checkpoint_into(&mut slot);
        let ptr = slot.as_ref().unwrap().pos.x.as_ptr();
        let actual = share(vec![Vec3::new(1.0, 1.0, 1.0); 6], vec![ZERO3; 6]);
        app.begin_iteration();
        app.absorb(Rank(1), &actual);
        app.finish_iteration();
        app.checkpoint_into(&mut slot);
        let c = slot.as_ref().unwrap();
        assert_eq!(c.pos.x.as_ptr(), ptr, "slot buffers must be reused");
        assert_eq!(c.pos, app.pos);
        assert_eq!(c.vel, app.vel);
    }

    #[test]
    fn shared_tracks_state_through_a_snapshot_ring() {
        let mut app = make_app(12, 2, 0, 0.01);
        let s0 = app.shared();
        assert_eq!(s0.pos, app.pos, "initial snapshot reflects initial state");
        let actual = share(vec![Vec3::new(1.0, 1.0, 1.0); 6], vec![ZERO3; 6]);
        app.begin_iteration();
        app.absorb(Rank(1), &actual);
        app.finish_iteration();
        let s1 = app.shared();
        assert_eq!(s1.pos, app.pos, "refresh must publish the new state");
        assert!(!Arc::ptr_eq(&s0, &s1), "s0 is still held, so a new slot");
        // Drop both outstanding clones: the next refresh may rewrite a
        // slot in place, and shared() must still agree with the state.
        drop(s0);
        drop(s1);
        app.begin_iteration();
        app.absorb(Rank(1), &actual);
        app.finish_iteration();
        assert_eq!(app.shared().pos, app.pos);
        assert!(
            app.snapshots.len() <= 2,
            "ring must not grow when slots free up (len {})",
            app.snapshots.len()
        );
    }

    #[test]
    fn disk_speculation_is_accurate() {
        // On near-circular orbits, eq. 10 should predict within a small
        // fraction of the inter-particle scale over one dt.
        let particles = rotating_disk(40, 7);
        let ranges = partition_proportional(40, &[1.0, 1.0]);
        let cfg = NBodyConfig {
            g: 1.0,
            softening: 0.02,
            dt: 1e-3,
            theta: 0.01,
        };
        let app = NBodyApp::new(&particles, ranges.clone(), 0, cfg, SpeculationOrder::Linear);

        // Evolve the real system one step to get the "actual" message.
        let mut world = particles.clone();
        crate::integrate::step_natural(&mut world, &cfg);
        let remote_now = share(
            particles[ranges[1].clone()].iter().map(|p| p.pos).collect(),
            particles[ranges[1].clone()].iter().map(|p| p.vel).collect(),
        );
        let remote_next = share(
            world[ranges[1].clone()].iter().map(|p| p.pos).collect(),
            world[ranges[1].clone()].iter().map(|p| p.vel).collect(),
        );
        let h = hist_of(&[remote_now]);
        let (spec, _) = app.speculate(Rank(1), &h, 1).unwrap();
        let out = app.check(Rank(1), &remote_next, &spec);
        assert!(
            out.accept,
            "disk speculation should pass θ=0.01, max err {}",
            out.max_error
        );
    }

    #[test]
    fn wire_size_counts_both_vectors() {
        let s = share(vec![ZERO3; 10], vec![ZERO3; 10]);
        assert_eq!(s.wire_size(), 2 * (8 + 240));
    }

    /// The element-at-a-time encoding the bulk-lane codec replaced: the
    /// reference its bytes must equal.
    fn encode_per_element(s: &PartitionShared) -> Vec<u8> {
        let mut out = Vec::new();
        for soa in [&s.pos, &s.vel] {
            (soa.len() as u64).encode(&mut out);
            for v in soa.iter() {
                v.x.encode(&mut out);
                v.y.encode(&mut out);
                v.z.encode(&mut out);
            }
        }
        out
    }

    /// A snapshot of `bits.len() / 6` particles whose lanes are the raw
    /// bit patterns in `bits`.
    fn snapshot_from_bits(bits: &[u64]) -> PartitionShared {
        let n = bits.len() / 6;
        let lane = |k: usize| -> Vec<f64> {
            bits[k * n..(k + 1) * n]
                .iter()
                .map(|&b| f64::from_bits(b))
                .collect()
        };
        let soa = |k: usize| Soa3 {
            x: lane(k),
            y: lane(k + 1),
            z: lane(k + 2),
        };
        PartitionShared {
            pos: soa(0),
            vel: soa(3),
        }
    }

    fn lane_bits(s: &PartitionShared) -> Vec<u64> {
        [&s.pos, &s.vel]
            .into_iter()
            .flat_map(|soa| [&soa.x, &soa.y, &soa.z])
            .flat_map(|lane| lane.iter().map(|v| v.to_bits()))
            .collect()
    }

    mod codec_props {
        use super::*;
        use proptest::prelude::*;

        /// Any bit pattern (NaN payloads, infinities and subnormals
        /// included), with the values a float codec most easily mangles
        /// made common.
        fn lane_value() -> impl Strategy<Value = u64> {
            prop_oneof![
                any::<u64>(),
                Just((-0.0f64).to_bits()),
                Just(0x7ff8_0000_dead_beefu64),
                Just(0xfff0_0000_0000_0001u64)
            ]
        }

        proptest! {
            #[test]
            fn bulk_codec_bytes_equal_the_per_element_reference(
                bits in proptest::collection::vec(lane_value(), 0..200),
            ) {
                let s = snapshot_from_bits(&bits);
                let bytes = mpk::encode_to_vec(&s);
                prop_assert_eq!(&bytes, &encode_per_element(&s));
                prop_assert_eq!(bytes.len(), s.wire_size());
                let back: PartitionShared = mpk::decode_exact(&bytes).expect("round trip");
                prop_assert_eq!(lane_bits(&back), lane_bits(&s));
            }

            #[test]
            fn truncated_and_mismatched_snapshots_decode_to_none(
                bits in proptest::collection::vec(lane_value(), 6..120),
                cut in 0usize..10_000,
            ) {
                let s = snapshot_from_bits(&bits);
                let bytes = mpk::encode_to_vec(&s);
                let cut = cut % bytes.len();
                prop_assert!(mpk::decode_exact::<PartitionShared>(&bytes[..cut]).is_none());
                // Positions and velocities of different lengths.
                let mut lopsided = s.clone();
                lopsided.vel = Soa3::new();
                let bytes = mpk::encode_to_vec(&lopsided);
                prop_assert!(mpk::decode_exact::<PartitionShared>(&bytes).is_none());
                // A length prefix promising more triples than follow.
                let mut long = mpk::encode_to_vec(&s);
                long[..8].copy_from_slice(&(s.len() as u64 + 1).to_le_bytes());
                prop_assert!(mpk::decode_exact::<PartitionShared>(&long).is_none());
                long[..8].copy_from_slice(&u64::MAX.to_le_bytes());
                prop_assert!(mpk::decode_exact::<PartitionShared>(&long).is_none());
            }
        }
    }

    #[test]
    fn empty_snapshot_round_trips_as_two_zero_lengths() {
        let s = snapshot_from_bits(&[]);
        let bytes = mpk::encode_to_vec(&s);
        assert_eq!(bytes, [0u8; 16]);
        assert_eq!(mpk::decode_exact::<PartitionShared>(&bytes), Some(s));
    }
}
