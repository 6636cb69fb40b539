//! Structure-of-arrays storage for 3-vectors.
//!
//! The O(N²) force kernels are memory-bandwidth- and latency-sensitive;
//! keeping `x`, `y`, `z` in three parallel `Vec<f64>` (instead of an
//! array of [`Vec3`]) lets the inner loops read contiguous unit-stride
//! lanes that the compiler can autovectorize, and lets cache blocking
//! reason about bytes per tile exactly (one 512-element tile of four
//! f64 arrays is 16 KiB — half a typical L1d).
//!
//! The layout is a *storage* choice only: every arithmetic path that
//! consumes it reproduces the exact `Vec3` expression trees, so results
//! are bit-identical to the AoS formulation (see `forces::soa_tests`).

use std::ops::Range;

use crate::vec3::Vec3;

/// Three parallel coordinate arrays: element `i` is the vector
/// `(x[i], y[i], z[i])`.
#[derive(Debug, Default, PartialEq)]
pub struct Soa3 {
    /// X components.
    pub x: Vec<f64>,
    /// Y components.
    pub y: Vec<f64>,
    /// Z components.
    pub z: Vec<f64>,
}

impl Clone for Soa3 {
    fn clone(&self) -> Self {
        Soa3 {
            x: self.x.clone(),
            y: self.y.clone(),
            z: self.z.clone(),
        }
    }

    /// Reuses the destination's existing allocations (the hot-path
    /// snapshot/checkpoint refresh relies on this being allocation-free
    /// once capacities match).
    fn clone_from(&mut self, source: &Self) {
        self.x.clone_from(&source.x);
        self.y.clone_from(&source.y);
        self.z.clone_from(&source.z);
    }
}

impl Soa3 {
    /// Empty storage.
    pub fn new() -> Self {
        Soa3::default()
    }

    /// `n` zero vectors.
    pub fn zeros(n: usize) -> Self {
        Soa3 {
            x: vec![0.0; n],
            y: vec![0.0; n],
            z: vec![0.0; n],
        }
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        debug_assert_eq!(self.x.len(), self.y.len());
        debug_assert_eq!(self.x.len(), self.z.len());
        self.x.len()
    }

    /// True when no vectors are stored.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Append one vector.
    pub(crate) fn push(&mut self, v: Vec3) {
        self.x.push(v.x);
        self.y.push(v.y);
        self.z.push(v.z);
    }

    /// Element `i` as a [`Vec3`].
    #[inline]
    pub fn get(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }

    /// Overwrite element `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: Vec3) {
        self.x[i] = v.x;
        self.y[i] = v.y;
        self.z[i] = v.z;
    }

    /// Set every component of every element to `v`.
    pub fn fill(&mut self, v: Vec3) {
        self.x.fill(v.x);
        self.y.fill(v.y);
        self.z.fill(v.z);
    }

    /// Gather from a slice of [`Vec3`] (cold path: startup / tests).
    pub fn from_vec3s(vs: &[Vec3]) -> Self {
        Soa3 {
            x: vs.iter().map(|v| v.x).collect(),
            y: vs.iter().map(|v| v.y).collect(),
            z: vs.iter().map(|v| v.z).collect(),
        }
    }

    /// Scatter back to an owned `Vec<Vec3>` (cold path: results / tests).
    pub fn to_vec3s(&self) -> Vec<Vec3> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Iterate elements as [`Vec3`] values.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Vec3> + '_ {
        self.x
            .iter()
            .zip(&self.y)
            .zip(&self.z)
            .map(|((&x, &y), &z)| Vec3::new(x, y, z))
    }

    /// An owned copy of the sub-range `r` (cold path: partitioning).
    pub(crate) fn slice(&self, r: Range<usize>) -> Soa3 {
        Soa3 {
            x: self.x[r.clone()].to_vec(),
            y: self.y[r.clone()].to_vec(),
            z: self.z[r].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::ZERO3;

    #[test]
    fn round_trips_through_vec3s() {
        let vs = vec![Vec3::new(1.0, 2.0, 3.0), Vec3::new(-0.5, 0.0, 7.25), ZERO3];
        let soa = Soa3::from_vec3s(&vs);
        assert_eq!(soa.len(), 3);
        assert_eq!(soa.get(1), vs[1]);
        assert_eq!(soa.to_vec3s(), vs);
        assert_eq!(soa.iter().collect::<Vec<_>>(), vs);
    }

    #[test]
    fn push_set_fill_and_slice() {
        let mut soa = Soa3::zeros(2);
        soa.push(Vec3::new(4.0, 5.0, 6.0));
        assert_eq!(soa.len(), 3);
        soa.set(0, Vec3::new(1.0, 1.0, 1.0));
        assert_eq!(soa.get(0), Vec3::new(1.0, 1.0, 1.0));
        let tail = soa.slice(1..3);
        assert_eq!(tail.to_vec3s(), vec![ZERO3, Vec3::new(4.0, 5.0, 6.0)]);
        soa.fill(ZERO3);
        assert_eq!(soa.get(2), ZERO3);
    }

    #[test]
    fn clone_from_reuses_capacity() {
        let src = Soa3::zeros(8);
        let mut dst = Soa3::zeros(8);
        let ptr = dst.x.as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst.x.as_ptr(), ptr, "clone_from must reuse the buffer");
        assert_eq!(dst, src);
    }
}
