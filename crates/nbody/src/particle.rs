//! Particles, simulation parameters, and initial-condition generators.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::soa::Soa3;
use crate::vec3::{Vec3, ZERO3};

/// One point mass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Particle {
    /// Mass (arbitrary units; the paper's Newtonian gravitation).
    pub mass: f64,
    /// Position.
    pub pos: Vec3,
    /// Velocity.
    pub vel: Vec3,
}

/// A body set in structure-of-arrays layout: the form the cache-blocked
/// force kernels ([`crate::forces`]) consume directly. Conversions to and
/// from `[Particle]` are cold-path only (setup, output).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SoaBodies {
    /// Positions, one lane per axis.
    pub pos: Soa3,
    /// Velocities.
    pub vel: Soa3,
    /// Masses.
    pub mass: Vec<f64>,
}

impl SoaBodies {
    /// Transpose an AoS particle slice into SoA storage.
    pub fn from_particles(particles: &[Particle]) -> Self {
        let mut out = SoaBodies {
            pos: Soa3::new(),
            vel: Soa3::new(),
            mass: Vec::with_capacity(particles.len()),
        };
        for p in particles {
            out.pos.push(p.pos);
            out.vel.push(p.vel);
            out.mass.push(p.mass);
        }
        out
    }

    /// Transpose back to AoS particles.
    #[cfg(test)]
    pub(crate) fn to_particles(&self) -> Vec<Particle> {
        self.pos
            .iter()
            .zip(self.vel.iter())
            .zip(&self.mass)
            .map(|((pos, vel), &mass)| Particle { mass, pos, vel })
            .collect()
    }

    /// Number of bodies.
    pub fn len(&self) -> usize {
        self.mass.len()
    }

    /// True when there are no bodies.
    pub fn is_empty(&self) -> bool {
        self.mass.is_empty()
    }
}

/// Physical and numerical parameters of a simulation.
#[derive(Clone, Copy, Debug)]
pub struct NBodyConfig {
    /// Gravitational constant `G`.
    pub g: f64,
    /// Plummer softening length ε: pairwise force uses `r² + ε²`, keeping
    /// close encounters finite (the standard fix for direct O(N²) codes).
    pub softening: f64,
    /// Timestep Δt.
    pub dt: f64,
    /// Speculation error threshold θ (the paper's eq. 11 acceptance bound).
    pub theta: f64,
}

impl Default for NBodyConfig {
    fn default() -> Self {
        NBodyConfig {
            g: 1.0,
            softening: 0.05,
            dt: 1e-3,
            theta: 0.01,
        }
    }
}

impl NBodyConfig {
    /// Set θ.
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }
}

/// A uniform random cloud: positions in the unit cube centred on the
/// origin, equal masses summing to 1, small random velocities. This mirrors
/// the paper's generic 1000-particle workload.
pub fn uniform_cloud(n: usize, seed: u64) -> Vec<Particle> {
    assert!(n > 0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mass = 1.0 / n as f64;
    (0..n)
        .map(|_| Particle {
            mass,
            pos: Vec3::new(
                rng.gen_range(-0.5..0.5),
                rng.gen_range(-0.5..0.5),
                rng.gen_range(-0.5..0.5),
            ),
            vel: Vec3::new(
                rng.gen_range(-0.05..0.05),
                rng.gen_range(-0.05..0.05),
                rng.gen_range(-0.05..0.05),
            ),
        })
        .collect()
}

/// A uniform cloud around a heavy central mass (mass 1.0 at the origin,
/// cloud totalling 1.0). Accelerations — and therefore speculation errors —
/// then span orders of magnitude (∝ 1/r² toward the centre), giving the
/// heavy-tailed error distribution visible in the paper's Table 3, where
/// the rejected fraction scales roughly as 1/θ.
pub fn centered_cloud(n: usize, seed: u64) -> Vec<Particle> {
    assert!(n >= 2);
    let mut cloud = uniform_cloud(n - 1, seed);
    let mut out = vec![Particle {
        mass: 1.0,
        pos: ZERO3,
        vel: ZERO3,
    }];
    out.append(&mut cloud);
    out
}

/// A rotating disk: particles in the z=0 plane on circular orbits around a
/// heavy central mass. Velocities change slowly and predictably — the
/// regime where the paper's velocity-extrapolation speculation shines.
pub fn rotating_disk(n: usize, seed: u64) -> Vec<Particle> {
    assert!(n >= 2);
    let mut rng = SmallRng::seed_from_u64(seed);
    let central_mass = 1.0;
    let mut out = Vec::with_capacity(n);
    out.push(Particle {
        mass: central_mass,
        pos: ZERO3,
        vel: ZERO3,
    });
    for _ in 1..n {
        let r = rng.gen_range(0.5..2.0);
        let phi = rng.gen_range(0.0..std::f64::consts::TAU);
        let pos = Vec3::new(r * phi.cos(), r * phi.sin(), rng.gen_range(-0.01..0.01));
        // Circular-orbit speed for G = 1 around the central mass.
        let v = (central_mass / r).sqrt();
        let vel = Vec3::new(-v * phi.sin(), v * phi.cos(), 0.0);
        out.push(Particle {
            mass: 1e-4,
            pos,
            vel,
        });
    }
    out
}

/// Two equal-mass bodies on a circular mutual orbit — the classic
/// analytically checkable configuration.
#[cfg(test)]
pub(crate) fn binary_pair(separation: f64, mass: f64, g: f64) -> Vec<Particle> {
    assert!(separation > 0.0 && mass > 0.0);
    let r = separation / 2.0;
    // Circular orbit about the barycentre: v² = G·m_other·r / d².
    let v = (g * mass * r).sqrt() / separation;
    vec![
        Particle {
            mass,
            pos: Vec3::new(-r, 0.0, 0.0),
            vel: Vec3::new(0.0, -v, 0.0),
        },
        Particle {
            mass,
            pos: Vec3::new(r, 0.0, 0.0),
            vel: Vec3::new(0.0, v, 0.0),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_cloud_basics() {
        let ps = uniform_cloud(100, 42);
        assert_eq!(ps.len(), 100);
        let total_mass: f64 = ps.iter().map(|p| p.mass).sum();
        assert!((total_mass - 1.0).abs() < 1e-12);
        for p in &ps {
            assert!(p.pos.norm() < 1.0);
            assert!(p.vel.norm() < 0.1);
        }
    }

    #[test]
    fn uniform_cloud_is_seeded() {
        assert_eq!(uniform_cloud(10, 7), uniform_cloud(10, 7));
        assert_ne!(uniform_cloud(10, 7), uniform_cloud(10, 8));
    }

    #[test]
    fn binary_pair_is_symmetric() {
        let ps = binary_pair(1.0, 0.5, 1.0);
        assert_eq!(ps[0].pos, -ps[1].pos);
        assert_eq!(ps[0].vel, -ps[1].vel);
        // Net momentum zero.
        let p: Vec3 = ps[0].vel * ps[0].mass + ps[1].vel * ps[1].mass;
        assert!(p.norm() < 1e-15);
    }

    #[test]
    fn rotating_disk_orbits_are_tangential() {
        let ps = rotating_disk(50, 3);
        for p in ps.iter().skip(1) {
            let radial = Vec3::new(p.pos.x, p.pos.y, 0.0);
            // velocity ⊥ radius for circular orbits
            assert!(p.vel.dot(radial).abs() < 1e-9, "orbit not tangential");
        }
    }

    #[test]
    fn soa_bodies_round_trip() {
        let ps = uniform_cloud(17, 9);
        let soa = SoaBodies::from_particles(&ps);
        assert_eq!(soa.len(), 17);
        assert!(!soa.is_empty());
        assert_eq!(soa.pos.get(3), ps[3].pos);
        assert_eq!(soa.to_particles(), ps);
        assert!(SoaBodies::default().is_empty());
    }

    #[test]
    fn config_builders() {
        let c = NBodyConfig::default().with_theta(0.05);
        assert_eq!(c.theta, 0.05);
    }
}
