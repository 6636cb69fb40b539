//! Bit-exact state fingerprints.
//!
//! The conformance harness needs to assert that two runs produced *the
//! same* floating-point state — not approximately, but bit for bit (the
//! θ=0 / FW=0 equivalences of the paper's §3.2 are exact, and the
//! simulator's determinism contract is exact). Comparing whole state
//! vectors per rank per scenario is wasteful; an order-sensitive 64-bit
//! hash of the IEEE-754 bit patterns is enough to detect any divergence
//! and cheap enough to compute after every generated run.
//!
//! FNV-1a over the little-endian bytes of each value's `to_bits()`:
//! stable across platforms, zero dependencies, and sensitive to ordering,
//! `-0.0` vs `+0.0`, and NaN payloads — exactly the distinctions a
//! bit-exactness claim has to honor.

/// Streaming FNV-1a fingerprint of numeric state.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint {
    h: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// An empty fingerprint (the FNV offset basis).
    pub fn new() -> Self {
        Fingerprint { h: FNV_OFFSET }
    }

    /// Absorb one `u64`.
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb one `f64` by IEEE-754 bit pattern (distinguishes `-0.0`
    /// from `+0.0` and preserves NaN payloads).
    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorb a slice of `f64`s in order.
    pub fn write_f64s(&mut self, vs: &[f64]) {
        for &v in vs {
            self.write_f64(v);
        }
    }

    /// The accumulated 64-bit fingerprint.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

/// Fingerprint of a slice of `f64`s (one-shot convenience).
pub fn fingerprint_f64s(vs: &[f64]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_f64s(vs);
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_sign_of_zero_matter() {
        assert_ne!(fingerprint_f64s(&[1.0, 2.0]), fingerprint_f64s(&[2.0, 1.0]));
        assert_ne!(fingerprint_f64s(&[0.0]), fingerprint_f64s(&[-0.0]));
    }

    #[test]
    fn one_ulp_changes_the_fingerprint() {
        let x = 1.0f64;
        let y = f64::from_bits(x.to_bits() + 1);
        assert_ne!(fingerprint_f64s(&[x]), fingerprint_f64s(&[y]));
    }

    #[test]
    fn streaming_matches_one_shot() {
        let vs = [3.0, -7.5, 0.125, f64::NAN];
        let mut fp = Fingerprint::new();
        for &v in &vs {
            fp.write_f64(v);
        }
        assert_eq!(fp.finish(), fingerprint_f64s(&vs));
    }

    #[test]
    fn empty_is_the_offset_basis() {
        assert_eq!(fingerprint_f64s(&[]), Fingerprint::new().finish());
    }
}
