//! Deterministic seed derivation.
//!
//! Every stochastic component of the simulator (network jitter, background
//! load, workload generation) takes an explicit seed. This module provides a
//! SplitMix64-based way to derive independent per-stream seeds from one
//! master seed, so a whole experiment is reproducible from a single number.

/// One step of the SplitMix64 generator. Good avalanche behaviour; used only
/// for seed derivation, not as a general-purpose RNG.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the seed of stream number `stream` from a master seed.
///
/// Streams with different indices produce statistically independent seeds;
/// the same `(master, stream)` pair always produces the same seed.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut state = master ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
    // Two rounds: one to mix the stream index in, one to decorrelate
    // small master-seed differences.
    splitmix64(&mut state);
    splitmix64(&mut state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        assert_eq!(derive_seed(42, 3), derive_seed(42, 3));
    }

    #[test]
    fn streams_differ() {
        let seeds: HashSet<u64> = (0..1000).map(|s| derive_seed(7, s)).collect();
        assert_eq!(seeds.len(), 1000, "stream seeds must not collide");
    }

    #[test]
    fn masters_differ() {
        let seeds: HashSet<u64> = (0..1000).map(|m| derive_seed(m, 0)).collect();
        assert_eq!(seeds.len(), 1000, "master seeds must not collide");
    }

    #[test]
    fn adjacent_masters_decorrelate() {
        // Hamming distance between seeds of adjacent masters should be
        // substantial (avalanche), not 1.
        let a = derive_seed(100, 0);
        let b = derive_seed(101, 0);
        let dist = (a ^ b).count_ones();
        assert!(dist > 10, "poor avalanche: {dist} differing bits");
    }

    #[test]
    fn splitmix_reference_values() {
        // Reference output for seed 0 from the SplitMix64 paper/known impls.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
    }
}
