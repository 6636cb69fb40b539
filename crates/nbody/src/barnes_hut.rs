//! Barnes–Hut O(N log N) force evaluation.
//!
//! The paper's footnote 1 notes that "a more efficient O(N log N)
//! \[algorithm\] is possible and has been implemented in the past \[4\]" —
//! Franklin & Govindan's own prior work. This module provides that
//! comparator: an octree with the standard multipole acceptance criterion
//! (`s/d < θ_bh`), so benchmarks can contrast the paper's simple O(N²)
//! kernel with the tree code.

use crate::particle::Particle;
use crate::soa::Soa3;
use crate::vec3::{Vec3, ZERO3};

/// The flat list of point-mass sources a tree walk selects for one target:
/// real bodies from opened leaves plus cell centres-of-mass accepted by the
/// multipole criterion. Kept in SoA layout so evaluation runs through the
/// vector-friendly [`crate::forces::accel_point_soa`] kernel, and reused
/// across targets so the walk allocates nothing in steady state.
#[derive(Debug, Default)]
struct InteractionList {
    pts: Soa3,
    mass: Vec<f64>,
}

impl InteractionList {
    fn clear(&mut self) {
        self.pts.x.clear();
        self.pts.y.clear();
        self.pts.z.clear();
        self.mass.clear();
    }

    fn push(&mut self, pos: Vec3, mass: f64) {
        self.pts.push(pos);
        self.mass.push(mass);
    }
}

/// Parameters of the tree code.
#[derive(Clone, Copy, Debug)]
pub struct BhConfig {
    /// Opening angle θ_bh: a cell of side `s` at distance `d` is treated
    /// as a point mass when `s/d < θ_bh`. `0` forces exact summation.
    pub opening_angle: f64,
    /// Gravitational constant.
    pub g: f64,
    /// Plummer softening.
    pub softening: f64,
}

impl Default for BhConfig {
    fn default() -> Self {
        BhConfig {
            opening_angle: 0.5,
            g: 1.0,
            softening: 0.05,
        }
    }
}

const NO_CHILD: u32 = u32::MAX;

struct Node {
    center: Vec3,
    half: f64,
    /// Total mass of bodies in the subtree.
    mass: f64,
    /// Mass-weighted position sum (COM = com_sum / mass).
    com_sum: Vec3,
    count: usize,
    /// Child node indices, or NO_CHILD. Leaves with one body keep it in
    /// `body`.
    children: [u32; 8],
    body: Option<(Vec3, f64)>,
}

impl Node {
    fn new(center: Vec3, half: f64) -> Self {
        Node {
            center,
            half,
            mass: 0.0,
            com_sum: ZERO3,
            count: 0,
            children: [NO_CHILD; 8],
            body: None,
        }
    }

    fn octant_of(&self, p: Vec3) -> usize {
        (usize::from(p.x >= self.center.x))
            | (usize::from(p.y >= self.center.y) << 1)
            | (usize::from(p.z >= self.center.z) << 2)
    }

    fn child_center(&self, octant: usize) -> Vec3 {
        let q = self.half / 2.0;
        Vec3::new(
            self.center.x + if octant & 1 != 0 { q } else { -q },
            self.center.y + if octant & 2 != 0 { q } else { -q },
            self.center.z + if octant & 4 != 0 { q } else { -q },
        )
    }
}

/// An octree over a set of particles.
pub struct Octree {
    nodes: Vec<Node>,
    cfg: BhConfig,
}

impl Octree {
    /// Build a tree over `particles`.
    pub fn build(particles: &[Particle], cfg: BhConfig) -> Self {
        assert!(!particles.is_empty(), "cannot build a tree over nothing");
        // Bounding cube, padded so points on the boundary insert cleanly.
        let mut lo = particles[0].pos;
        let mut hi = particles[0].pos;
        for p in particles {
            lo.x = lo.x.min(p.pos.x);
            lo.y = lo.y.min(p.pos.y);
            lo.z = lo.z.min(p.pos.z);
            hi.x = hi.x.max(p.pos.x);
            hi.y = hi.y.max(p.pos.y);
            hi.z = hi.z.max(p.pos.z);
        }
        let center = (lo + hi) * 0.5;
        let half = ((hi.x - lo.x).max(hi.y - lo.y).max(hi.z - lo.z) * 0.5 + 1e-9) * 1.001;

        let mut tree = Octree {
            nodes: vec![Node::new(center, half)],
            cfg,
        };
        for p in particles {
            tree.insert(0, p.pos, p.mass, 0);
        }
        tree
    }

    fn insert(&mut self, node: usize, pos: Vec3, mass: f64, depth: usize) {
        self.nodes[node].mass += mass;
        self.nodes[node].com_sum += pos * mass;
        self.nodes[node].count += 1;

        if self.nodes[node].count == 1 {
            self.nodes[node].body = Some((pos, mass));
            return;
        }

        // An occupied leaf splits: push the resident body down first.
        if let Some((bp, bm)) = self.nodes[node].body.take() {
            self.push_down(node, bp, bm, depth);
        }
        self.push_down(node, pos, mass, depth);
    }

    fn push_down(&mut self, node: usize, pos: Vec3, mass: f64, depth: usize) {
        // Coincident points would recurse forever; merge them into the
        // node's aggregate only (physically: a point mass of summed mass —
        // already accounted in mass/com_sum).
        if depth > 64 {
            return;
        }
        let octant = self.nodes[node].octant_of(pos);
        let child = self.nodes[node].children[octant];
        let child = if child == NO_CHILD {
            let center = self.nodes[node].child_center(octant);
            let half = self.nodes[node].half / 2.0;
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node::new(center, half));
            self.nodes[node].children[octant] = idx;
            idx
        } else {
            child
        };
        self.insert(child as usize, pos, mass, depth + 1);
    }

    /// Gravitational acceleration at `point` by recursive tree walk,
    /// excluding any source within ~machine epsilon of the point itself (so
    /// a particle does not attract itself): the reference the gather path
    /// is tested against.
    #[cfg(test)]
    fn accel_at(&self, point: Vec3) -> Vec3 {
        self.accel_rec(0, point)
    }

    #[cfg(test)]
    fn accel_rec(&self, node: usize, point: Vec3) -> Vec3 {
        let n = &self.nodes[node];
        if n.count == 0 {
            return ZERO3;
        }
        let com = n.com_sum / n.mass;
        let d = point.distance(com);

        // Single body, or far enough that the multipole approximation
        // applies.
        if n.count == 1 || (2.0 * n.half) < self.cfg.opening_angle * d {
            if d * d < 1e-24 {
                return ZERO3; // the queried particle itself
            }
            return crate::forces::accel_from(point, com, n.mass, self.cfg.g, self.cfg.softening);
        }

        let mut acc = ZERO3;
        let mut seen = 0;
        for &c in &n.children {
            if c != NO_CHILD {
                acc += self.accel_rec(c as usize, point);
                seen += self.nodes[c as usize].count;
            }
        }
        // Coincident bodies merged at depth cap live only in the
        // aggregate; treat the residue as a point mass at the COM.
        if seen < n.count && d * d >= 1e-24 {
            let residual_mass = n.mass
                - n.children
                    .iter()
                    .filter(|&&c| c != NO_CHILD)
                    .map(|&c| self.nodes[c as usize].mass)
                    .sum::<f64>();
            if residual_mass > 0.0 {
                acc += crate::forces::accel_from(
                    point,
                    com,
                    residual_mass,
                    self.cfg.g,
                    self.cfg.softening,
                );
            }
        }
        acc
    }

    /// Collect into `out` the point-mass sources the tree walk would use
    /// for a query at `point` — the same acceptance decisions as
    /// [`accel_at`](Self::accel_at), flattened for SoA evaluation.
    fn gather(&self, node: usize, point: Vec3, out: &mut InteractionList) {
        let n = &self.nodes[node];
        if n.count == 0 {
            return;
        }
        let com = n.com_sum / n.mass;
        let d = point.distance(com);

        if n.count == 1 || (2.0 * n.half) < self.cfg.opening_angle * d {
            if d * d >= 1e-24 {
                out.push(com, n.mass);
            }
            return;
        }

        let mut seen = 0;
        for &c in &n.children {
            if c != NO_CHILD {
                self.gather(c as usize, point, out);
                seen += self.nodes[c as usize].count;
            }
        }
        if seen < n.count && d * d >= 1e-24 {
            let residual_mass = n.mass
                - n.children
                    .iter()
                    .filter(|&&c| c != NO_CHILD)
                    .map(|&c| self.nodes[c as usize].mass)
                    .sum::<f64>();
            if residual_mass > 0.0 {
                out.push(com, residual_mass);
            }
        }
    }

    /// Acceleration at `point` via gather-then-evaluate: the tree walk only
    /// selects sources into `scratch`, and the force sum runs over the flat
    /// SoA list. Agrees with [`accel_at`](Self::accel_at) to summation
    /// reordering (the walk's tree-shaped sum becomes a flat left-to-right
    /// sum), and reuses `scratch`'s buffers across calls.
    fn accel_at_with(&self, point: Vec3, scratch: &mut InteractionList) -> Vec3 {
        scratch.clear();
        self.gather(0, point, scratch);
        crate::forces::accel_point_soa(
            &scratch.pts,
            &scratch.mass,
            point,
            self.cfg.g,
            self.cfg.softening,
        )
    }

    /// Accelerations on every particle (gather-based hot path); one
    /// gather scratch serves every target.
    pub fn accel_on_all(&self, particles: &[Particle]) -> Vec<Vec3> {
        let mut scratch = InteractionList::default();
        particles
            .iter()
            .map(|p| self.accel_at_with(p.pos, &mut scratch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::accel_from;
    use crate::particle::uniform_cloud;

    fn direct_accels(particles: &[Particle], g: f64, eps: f64) -> Vec<Vec3> {
        particles
            .iter()
            .map(|b| {
                let mut a = ZERO3;
                for o in particles {
                    if (o.pos - b.pos).norm_sq() >= 1e-24 {
                        a += accel_from(b.pos, o.pos, o.mass, g, eps);
                    }
                }
                a
            })
            .collect()
    }

    #[test]
    fn zero_opening_angle_is_exact() {
        let ps = uniform_cloud(50, 1);
        let cfg = BhConfig {
            opening_angle: 0.0,
            g: 1.0,
            softening: 0.05,
        };
        let tree = Octree::build(&ps, cfg);
        let bh = tree.accel_on_all(&ps);
        let exact = direct_accels(&ps, 1.0, 0.05);
        for (a, b) in bh.iter().zip(&exact) {
            assert!(
                a.distance(*b) < 1e-10 * (1.0 + b.norm()),
                "θ_bh=0 must reproduce the direct sum"
            );
        }
    }

    #[test]
    fn moderate_opening_angle_is_close() {
        let ps = uniform_cloud(200, 2);
        let cfg = BhConfig {
            opening_angle: 0.4,
            g: 1.0,
            softening: 0.05,
        };
        let tree = Octree::build(&ps, cfg);
        let bh = tree.accel_on_all(&ps);
        let exact = direct_accels(&ps, 1.0, 0.05);
        let mut max_rel: f64 = 0.0;
        for (a, b) in bh.iter().zip(&exact) {
            max_rel = max_rel.max(a.distance(*b) / (b.norm() + 1e-12));
        }
        assert!(max_rel < 0.05, "BH error too large: {max_rel}");
    }

    #[test]
    fn tree_mass_totals() {
        let ps = uniform_cloud(64, 3);
        let tree = Octree::build(&ps, BhConfig::default());
        let total: f64 = ps.iter().map(|p| p.mass).sum();
        assert!((tree.nodes[0].mass - total).abs() < 1e-12);
        assert_eq!(tree.nodes[0].count, 64);
        assert!(tree.nodes.len() >= 64 / 8);
    }

    #[test]
    fn two_bodies_attract_exactly() {
        let ps = vec![
            Particle {
                mass: 2.0,
                pos: Vec3::new(-1.0, 0.0, 0.0),
                vel: ZERO3,
            },
            Particle {
                mass: 3.0,
                pos: Vec3::new(1.0, 0.0, 0.0),
                vel: ZERO3,
            },
        ];
        let cfg = BhConfig {
            opening_angle: 0.5,
            g: 1.0,
            softening: 0.0,
        };
        let tree = Octree::build(&ps, cfg);
        let acc = tree.accel_on_all(&ps);
        assert!((acc[0].x - 3.0 / 4.0).abs() < 1e-12);
        assert!((acc[1].x + 2.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn coincident_particles_do_not_hang() {
        let ps = vec![
            Particle {
                mass: 1.0,
                pos: ZERO3,
                vel: ZERO3,
            },
            Particle {
                mass: 1.0,
                pos: ZERO3,
                vel: ZERO3,
            },
            Particle {
                mass: 1.0,
                pos: Vec3::new(1.0, 0.0, 0.0),
                vel: ZERO3,
            },
        ];
        let tree = Octree::build(&ps, BhConfig::default());
        let acc = tree.accel_at(Vec3::new(5.0, 0.0, 0.0));
        assert!(acc.is_finite());
        assert!(acc.x < 0.0, "must pull toward the cluster");
    }

    #[test]
    fn gather_matches_recursive_walk() {
        // The gather path makes identical acceptance decisions, so per
        // particle it differs from the recursive sum only by reassociation
        // of the same terms.
        let ps = uniform_cloud(300, 6);
        let tree = Octree::build(&ps, BhConfig::default());
        let mut scratch = InteractionList::default();
        for p in &ps {
            let rec = tree.accel_at(p.pos);
            let flat = tree.accel_at_with(p.pos, &mut scratch);
            assert!(
                rec.distance(flat) < 1e-12 * (1.0 + rec.norm()),
                "gather diverged from walk: {rec:?} vs {flat:?}"
            );
        }
        assert!(!scratch.mass.is_empty());
    }

    #[test]
    fn bh_step_conserves_momentum_approximately() {
        let mut ps = uniform_cloud(100, 4);
        let dt = 1e-3;
        let p0 = crate::integrate::momentum(&ps);
        for _ in 0..20 {
            let acc = Octree::build(&ps, BhConfig::default()).accel_on_all(&ps);
            for (p, a) in ps.iter_mut().zip(&acc) {
                p.vel += *a * dt;
                p.pos += p.vel * dt;
            }
        }
        let p1 = crate::integrate::momentum(&ps);
        // BH forces are not exactly pairwise-symmetric, so allow a small
        // drift proportional to the approximation error.
        assert!((p1 - p0).norm() < 1e-3, "momentum drifted {:?}", p1 - p0);
    }
}
