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

    /// Scatter back to an owned `Vec<Vec3>`.
    #[cfg(test)]
    pub(crate) fn to_vec3s(&self) -> Vec<Vec3> {
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

    /// The three lanes of the sub-range `r`.
    pub(crate) fn lanes(&self, r: Range<usize>) -> [&[f64]; 3] {
        [&self.x[r.clone()], &self.y[r.clone()], &self.z[r]]
    }

    /// The three lanes of the sub-range `r`, writable.
    pub(crate) fn lanes_mut(&mut self, r: Range<usize>) -> [&mut [f64]; 3] {
        [
            &mut self.x[r.clone()],
            &mut self.y[r.clone()],
            &mut self.z[r],
        ]
    }

    /// Become a copy of `src`'s sub-range `r`, in this storage's existing
    /// allocations once they are large enough.
    pub(crate) fn assign(&mut self, src: &Soa3, r: Range<usize>) {
        for (dst, src) in [
            (&mut self.x, &src.x),
            (&mut self.y, &src.y),
            (&mut self.z, &src.z),
        ] {
            dst.clear();
            dst.extend_from_slice(&src[r.clone()]);
        }
    }

    /// Overwrite elements `at..at + src.len()` with `src`.
    pub(crate) fn write_at(&mut self, at: usize, src: &Soa3) {
        let r = at..at + src.len();
        self.x[r.clone()].copy_from_slice(&src.x);
        self.y[r.clone()].copy_from_slice(&src.y);
        self.z[r].copy_from_slice(&src.z);
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
    fn set_and_fill() {
        let mut soa = Soa3::zeros(3);
        soa.set(0, Vec3::new(1.0, 1.0, 1.0));
        assert_eq!(soa.get(0), Vec3::new(1.0, 1.0, 1.0));
        soa.fill(ZERO3);
        assert_eq!(soa.get(0), ZERO3);
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
