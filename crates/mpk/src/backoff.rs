//! Deterministic jittered exponential backoff for reconnect loops.
//!
//! Retry loops in the socket backend (the dial of a joining
//! [`SocketTransport`], supervisor reconnects) share this schedule: the raw delay doubles from a
//! configurable base up to a cap, each delay is jittered into the
//! `[raw/2, raw)` window by a seeded xorshift stream so simultaneous
//! reconnecting peers de-synchronize, and the whole loop is bounded by a
//! total deadline rather than a retry count.
//!
//! Everything is deterministic per seed: the same `(base, cap, seed)` always
//! produces the same delay sequence, which keeps kill/restart chaos tests
//! replayable.
//!
//! [`SocketTransport`]: crate::SocketTransport

use std::time::Duration;

/// A deterministic jittered exponential backoff schedule.
///
/// Yields successive delays via [`Backoff::next_delay`]; the caller sleeps
/// between attempts and stops when its own total deadline passes.
#[derive(Clone, Debug)]
pub(crate) struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A schedule starting at `base`, doubling up to `cap`, jittered by a
    /// stream seeded with `seed`.
    pub(crate) fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff {
            base: base.max(Duration::from_micros(1)),
            cap: cap.max(base),
            attempt: 0,
            // splitmix64 finalizer so nearby seeds (e.g. consecutive ranks)
            // give unrelated jitter streams.
            rng: {
                let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            },
        }
    }

    /// Number of delays handed out so far.
    pub(crate) fn attempts(&self) -> u32 {
        self.attempt
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*: tiny, seedable, plenty for jitter.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// The next delay to sleep before retrying: `min(cap, base · 2^n)`
    /// jittered uniformly into `[raw/2, raw)`.
    pub(crate) fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(32);
        self.attempt = self.attempt.saturating_add(1);
        let raw = self
            .base
            .saturating_mul(1u32.checked_shl(exp).unwrap_or(u32::MAX))
            .min(self.cap);
        let raw_ns = raw.as_nanos().min(u64::MAX as u128) as u64;
        let half = raw_ns / 2;
        let jitter = if half == 0 { 0 } else { self.next_u64() % half };
        Duration::from_nanos(half + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_double_until_the_cap() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(80), 7);
        let raws: Vec<u64> = (0..6).map(|_| b.next_delay().as_nanos() as u64).collect();
        // Each jittered delay lives in [raw/2, raw) of its doubling step.
        let expect_ms = [10u64, 20, 40, 80, 80, 80];
        for (d, ms) in raws.iter().zip(expect_ms) {
            let raw = ms * 1_000_000;
            assert!(
                *d >= raw / 2 && *d < raw,
                "delay {d}ns outside [{}/2, {})",
                raw,
                raw
            );
        }
    }

    #[test]
    fn same_seed_reproduces_the_schedule() {
        let seq = |seed| {
            let mut b = Backoff::new(Duration::from_millis(5), Duration::from_secs(1), seed);
            (0..8).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(seq(42), seq(42));
        assert_ne!(seq(42), seq(43), "different seeds should jitter apart");
    }

    #[test]
    fn zero_base_is_clamped_not_divided_by_zero() {
        let mut b = Backoff::new(Duration::ZERO, Duration::ZERO, 1);
        for _ in 0..4 {
            let d = b.next_delay();
            assert!(d <= Duration::from_micros(1));
        }
    }

    #[test]
    fn huge_attempt_counts_saturate_at_the_cap() {
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(50), 3);
        for _ in 0..100 {
            let d = b.next_delay();
            assert!(d < Duration::from_millis(50));
        }
        assert_eq!(b.attempts(), 100);
    }
}
