//! Sequential reference integrator and physics diagnostics.
//!
//! The sequential simulator is the ground truth the parallel runs are
//! validated against: `step_partition_order` reproduces the parallel
//! driver's accumulation order bit-for-bit, while the diagnostics (energy,
//! momentum) validate the physics independent of ordering.

use std::ops::Range;

use crate::forces::accel_from;
use crate::particle::{NBodyConfig, Particle};
use crate::vec3::{Vec3, ZERO3};

/// Advance the whole system one timestep with symplectic (semi-implicit)
/// Euler: `v ← v + a·Δt`, then `x ← x + v·Δt`. Accumulation runs in natural
/// index order: the reference the partition-order tests compare against.
#[cfg(test)]
pub(crate) fn step_natural(particles: &mut [Particle], cfg: &NBodyConfig) {
    let n = particles.len();
    let mut acc = vec![ZERO3; n];
    for b in 0..n {
        let mut a = ZERO3;
        for j in 0..n {
            if j != b {
                a += accel_from(
                    particles[b].pos,
                    particles[j].pos,
                    particles[j].mass,
                    cfg.g,
                    cfg.softening,
                );
            }
        }
        acc[b] = a;
    }
    apply_kick_drift(particles, &acc, cfg.dt);
}

/// Advance one timestep accumulating in the *parallel driver's* order:
/// for a particle of partition `j`, first the other members of partition
/// `j`, then partitions `k = 0..p` ascending (skipping `j`). Bitwise equal
/// to a θ=0/recompute parallel run.
pub fn step_partition_order(
    particles: &mut [Particle],
    ranges: &[Range<usize>],
    cfg: &NBodyConfig,
) {
    let n = particles.len();
    let mut acc = vec![ZERO3; n];
    for (j, range) in ranges.iter().enumerate() {
        for b in range.clone() {
            let mut a = ZERO3;
            // Own partition first (the driver's begin_iteration).
            for o in range.clone() {
                if o != b {
                    a += accel_from(
                        particles[b].pos,
                        particles[o].pos,
                        particles[o].mass,
                        cfg.g,
                        cfg.softening,
                    );
                }
            }
            // Then every peer partition in rank order (the absorb loop).
            for (k, kr) in ranges.iter().enumerate() {
                if k == j {
                    continue;
                }
                for o in kr.clone() {
                    a += accel_from(
                        particles[b].pos,
                        particles[o].pos,
                        particles[o].mass,
                        cfg.g,
                        cfg.softening,
                    );
                }
            }
            acc[b] = a;
        }
    }
    apply_kick_drift(particles, &acc, cfg.dt);
}

/// The shared integration update.
fn apply_kick_drift(particles: &mut [Particle], acc: &[Vec3], dt: f64) {
    for (p, a) in particles.iter_mut().zip(acc) {
        p.vel += *a * dt;
        p.pos += p.vel * dt;
    }
}

/// Total kinetic energy `Σ ½ m v²`.
fn kinetic_energy(particles: &[Particle]) -> f64 {
    particles
        .iter()
        .map(|p| 0.5 * p.mass * p.vel.norm_sq())
        .sum()
}

/// Total (softened) potential energy
/// `−Σ_{a<b} G·m_a·m_b / √(r² + ε²)`.
fn potential_energy(particles: &[Particle], g: f64, eps: f64) -> f64 {
    let mut u = 0.0;
    for a in 0..particles.len() {
        for b in (a + 1)..particles.len() {
            let d2 = particles[a].pos.distance(particles[b].pos).powi(2) + eps * eps;
            u -= g * particles[a].mass * particles[b].mass / d2.sqrt();
        }
    }
    u
}

/// Total energy (kinetic + softened potential).
pub fn total_energy(particles: &[Particle], cfg: &NBodyConfig) -> f64 {
    kinetic_energy(particles) + potential_energy(particles, cfg.g, cfg.softening)
}

/// Total linear momentum `Σ m v`.
pub fn momentum(particles: &[Particle]) -> Vec3 {
    particles.iter().fold(ZERO3, |acc, p| acc + p.vel * p.mass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particle::{binary_pair, uniform_cloud};
    use crate::partition::partition_proportional;

    /// Run `steps` timesteps of the natural-order integrator.
    fn simulate(particles: &mut [Particle], cfg: &NBodyConfig, steps: u64) {
        for _ in 0..steps {
            step_natural(particles, cfg);
        }
    }

    #[test]
    fn binary_orbit_conserves_energy_well() {
        let cfg = NBodyConfig {
            g: 1.0,
            softening: 0.0,
            dt: 1e-3,
            theta: 0.01,
        };
        let mut ps = binary_pair(1.0, 0.5, cfg.g);
        let e0 = total_energy(&ps, &cfg);
        simulate(&mut ps, &cfg, 2000);
        let e1 = total_energy(&ps, &cfg);
        assert!(
            ((e1 - e0) / e0.abs()).abs() < 1e-2,
            "energy drifted: {e0} -> {e1}"
        );
    }

    #[test]
    fn binary_orbit_keeps_separation() {
        // Circular orbit: separation should stay near 1.
        let cfg = NBodyConfig {
            g: 1.0,
            softening: 0.0,
            dt: 1e-3,
            theta: 0.01,
        };
        let mut ps = binary_pair(1.0, 0.5, cfg.g);
        for _ in 0..2000 {
            step_natural(&mut ps, &cfg);
            let sep = ps[0].pos.distance(ps[1].pos);
            assert!(
                (0.95..1.05).contains(&sep),
                "separation {sep} left the circle"
            );
        }
    }

    #[test]
    fn momentum_is_conserved() {
        let cfg = NBodyConfig::default();
        let mut ps = uniform_cloud(50, 11);
        let p0 = momentum(&ps);
        simulate(&mut ps, &cfg, 100);
        let p1 = momentum(&ps);
        assert!((p1 - p0).norm() < 1e-12, "momentum drifted {:?}", p1 - p0);
    }

    #[test]
    fn cloud_energy_drift_is_bounded() {
        let cfg = NBodyConfig {
            g: 1.0,
            softening: 0.05,
            dt: 1e-3,
            theta: 0.01,
        };
        let mut ps = uniform_cloud(60, 9);
        let e0 = total_energy(&ps, &cfg);
        simulate(&mut ps, &cfg, 500);
        let e1 = total_energy(&ps, &cfg);
        assert!(
            ((e1 - e0) / e0.abs()).abs() < 0.05,
            "symplectic Euler drifted too much: {e0} -> {e1}"
        );
    }

    #[test]
    fn partition_order_matches_natural_physics() {
        // Different summation order ⇒ tiny FP differences, same physics.
        let cfg = NBodyConfig::default();
        let mut a = uniform_cloud(40, 3);
        let mut b = a.clone();
        let ranges = partition_proportional(40, &[3.0, 2.0, 1.0]);
        for _ in 0..20 {
            step_natural(&mut a, &cfg);
            step_partition_order(&mut b, &ranges, &cfg);
        }
        for (pa, pb) in a.iter().zip(&b) {
            assert!(
                pa.pos.distance(pb.pos) < 1e-9,
                "orders diverged beyond FP noise"
            );
        }
    }

    #[test]
    fn partition_order_is_deterministic() {
        let cfg = NBodyConfig::default();
        let ranges = partition_proportional(30, &[1.0, 1.0]);
        let run = || {
            let mut ps = uniform_cloud(30, 4);
            for _ in 0..10 {
                step_partition_order(&mut ps, &ranges, &cfg);
            }
            ps
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn center_of_mass_moves_inertially() {
        let com = |ps: &[Particle]| {
            let m: f64 = ps.iter().map(|p| p.mass).sum();
            ps.iter().fold(ZERO3, |acc, p| acc + p.pos * p.mass) / m
        };
        let cfg = NBodyConfig::default();
        let mut ps = uniform_cloud(30, 21);
        let com0 = com(&ps);
        let p = momentum(&ps);
        let m: f64 = ps.iter().map(|x| x.mass).sum();
        simulate(&mut ps, &cfg, 200);
        let com1 = com(&ps);
        let expected = com0 + p * (200.0 * cfg.dt / m);
        assert!(
            (com1 - expected).norm() < 1e-9,
            "COM strayed from inertial path by {:?}",
            com1 - expected
        );
    }
}
