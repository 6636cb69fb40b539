//! Minimal 3-vector algebra for the N-body simulation.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use mpk::WireSize;

/// A 3-component `f64` vector.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

/// The zero vector.
pub const ZERO3: Vec3 = Vec3 {
    x: 0.0,
    y: 0.0,
    z: 0.0,
};

impl Vec3 {
    /// Construct from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    pub(crate) fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Squared Euclidean norm.
    pub(crate) fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Distance to another point.
    pub fn distance(self, o: Vec3) -> f64 {
        (self - o).norm()
    }

    /// True if all components are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// The raw IEEE-754 bits of each component — for tests that assert
    /// *bit* equality rather than `==` (which conflates `0.0` and `-0.0`).
    pub fn to_bits_triplet(self) -> (u64, u64, u64) {
        (self.x.to_bits(), self.y.to_bits(), self.z.to_bits())
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl WireSize for Vec3 {
    fn wire_size(&self) -> usize {
        24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 5.0, 0.5);
        assert_eq!(a + b - b, a);
        assert_eq!(a * 2.0, a + a);
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0 + a / 2.0, a);
        assert_eq!(-a + a, ZERO3);
    }

    #[test]
    fn norms_and_distance() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.norm_sq(), 25.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(ZERO3.distance(v), 5.0);
    }

    #[test]
    fn finiteness() {
        assert!(Vec3::new(1.0, 2.0, 3.0).is_finite());
        assert!(!Vec3::new(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!Vec3::new(0.0, f64::INFINITY, 0.0).is_finite());
        assert!(!Vec3::new(0.0, 0.0, f64::NEG_INFINITY).is_finite());
    }

    #[test]
    fn wire_size_is_three_doubles() {
        assert_eq!(ZERO3.wire_size(), 24);
        assert_eq!(vec![ZERO3; 4].wire_size(), 8 + 96);
    }
}
