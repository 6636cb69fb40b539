//! Network latency models.
//!
//! The paper's messages cross a shared 10 Mb/s Ethernet whose delays are
//! "large and often subject to large variations due to non-deterministic
//! network traffic" (§1). A [`NetworkModel`] decides, at send time, how long
//! a message takes to reach its destination mailbox. Models are stateful
//! (e.g. a shared medium remembers when it frees up) and composable
//! (jitter/transient wrappers decorate a base model).

use desim::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Everything a latency model may condition on.
#[derive(Clone, Copy, Debug)]
pub struct MsgCtx {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Message size on the wire, in bytes.
    pub bytes: usize,
    /// Virtual time at which the send happens.
    pub now: SimTime,
}

/// A model mapping each message to its end-to-end delivery delay.
pub trait NetworkModel: Send {
    /// Delay between the send instant and delivery into the destination
    /// mailbox. Called exactly once per message, in deterministic order.
    fn delay(&mut self, ctx: &MsgCtx) -> SimDuration;
}

/// Fixed delay for every message, regardless of size or load.
#[derive(Clone, Copy, Debug)]
pub struct ConstantLatency(pub SimDuration);

impl NetworkModel for ConstantLatency {
    fn delay(&mut self, _ctx: &MsgCtx) -> SimDuration {
        self.0
    }
}

/// Switched network: every directed `(src, dst)` pair is its own full-duplex
/// link with the given bandwidth, so messages on the *same* link queue
/// behind each other while different links transmit in parallel.
///
/// Unlike [`SharedMedium`] (every message in the cluster fights for one
/// bus), different links never contend. It is the model that
/// makes the delta exchange's bytes-on-the-wire a first-class cost: a rank
/// that broadcasts a full partition to `p-1` peers pays each link's
/// serialization once, and shrinking the frames shrinks the occupancy of
/// every link it feeds.
#[derive(Debug)]
pub struct LinkBandwidth {
    /// Propagation + protocol-stack latency per message.
    pub latency: SimDuration,
    /// Per-link bandwidth in bytes per second.
    pub bytes_per_sec: f64,
    busy_until: std::collections::HashMap<(usize, usize), SimTime>,
}

impl LinkBandwidth {
    /// A quiet switched network with the given per-message latency and
    /// per-link bandwidth.
    pub fn new(latency: SimDuration, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        LinkBandwidth {
            latency,
            bytes_per_sec,
            busy_until: std::collections::HashMap::new(),
        }
    }
}

impl NetworkModel for LinkBandwidth {
    fn delay(&mut self, ctx: &MsgCtx) -> SimDuration {
        let tx = SimDuration::from_secs_f64(ctx.bytes as f64 / self.bytes_per_sec);
        let busy = self
            .busy_until
            .entry((ctx.src, ctx.dst))
            .or_insert(SimTime::ZERO);
        let start = (*busy).max(ctx.now);
        let done = start + tx;
        *busy = done;
        done.duration_since(ctx.now) + self.latency
    }
}

/// Shared-medium (Ethernet-like) network: all messages serialize through one
/// bus. A message must wait for the bus to free up, then occupies it for its
/// transmission time, then takes a further fixed latency to be absorbed by
/// the receiver.
///
/// This is the model that makes total communication time grow with the
/// number of processors (each iteration moves `p·(p-1)` messages over the
/// same wire) — the effect behind both the paper's `t_comm(p)` growth
/// assumption and the post-10-processor slowdown in its Figure 5.
#[derive(Debug)]
pub struct SharedMedium {
    /// Receiver-side fixed latency per message.
    pub latency: SimDuration,
    /// Bus bandwidth in bytes per second.
    pub bytes_per_sec: f64,
    busy_until: SimTime,
}

impl SharedMedium {
    /// A quiet shared medium with the given per-message latency and bus
    /// bandwidth.
    pub fn new(latency: SimDuration, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        SharedMedium {
            latency,
            bytes_per_sec,
            busy_until: SimTime::ZERO,
        }
    }
}

impl NetworkModel for SharedMedium {
    fn delay(&mut self, ctx: &MsgCtx) -> SimDuration {
        let tx = SimDuration::from_secs_f64(ctx.bytes as f64 / self.bytes_per_sec);
        let start = self.busy_until.max(ctx.now);
        let done = start + tx;
        self.busy_until = done;
        done.duration_since(ctx.now) + self.latency
    }
}

/// Decorator adding rare, large, transient delays: with probability `prob`
/// per message, `extra` is added — the paper's "messages may occasionally
/// experience excessive delays due to network traffic" (§3.2).
pub struct TransientDelays<M> {
    inner: M,
    prob: f64,
    extra: SimDuration,
    rng: SmallRng,
}

impl<M: NetworkModel> TransientDelays<M> {
    /// Wrap `inner`, adding `extra` delay with probability `prob` per
    /// message, using a deterministic stream seeded by `seed`.
    pub fn new(inner: M, prob: f64, extra: SimDuration, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability must be in [0,1]");
        TransientDelays {
            inner,
            prob,
            extra,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl<M: NetworkModel> NetworkModel for TransientDelays<M> {
    fn delay(&mut self, ctx: &MsgCtx) -> SimDuration {
        let base = self.inner.delay(ctx);
        if self.rng.gen_bool(self.prob) {
            base + self.extra
        } else {
            base
        }
    }
}

/// Decorator multiplying each delay by a uniform factor in
/// `[1-frac, 1+frac]`, modelling everyday network noise.
pub struct Jitter<M> {
    inner: M,
    frac: f64,
    rng: SmallRng,
}

impl<M: NetworkModel> Jitter<M> {
    /// Wrap `inner` with ±`frac` relative jitter (e.g. `0.2` for ±20%).
    pub fn new(inner: M, frac: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&frac),
            "jitter fraction must be in [0,1)"
        );
        Jitter {
            inner,
            frac,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl<M: NetworkModel> NetworkModel for Jitter<M> {
    fn delay(&mut self, ctx: &MsgCtx) -> SimDuration {
        let base = self.inner.delay(ctx);
        let factor = 1.0 + self.frac * (self.rng.gen::<f64>() * 2.0 - 1.0);
        base.mul_f64(factor)
    }
}

/// Decorator injecting scripted delays for specific messages, identified by
/// `(src, dst, occurrence)` — the n-th message from `src` to `dst` (0-based)
/// gets `extra` added. Used to reproduce the paper's Figure 4, where "the
/// first message from P1 to P2 is delayed in transit".
pub struct ScriptedDelays<M> {
    inner: M,
    script: Vec<(usize, usize, u64, SimDuration)>,
    counts: std::collections::HashMap<(usize, usize), u64>,
}

impl<M: NetworkModel> ScriptedDelays<M> {
    /// Wrap `inner` with a list of `(src, dst, nth, extra)` injections.
    pub fn new(inner: M, script: Vec<(usize, usize, u64, SimDuration)>) -> Self {
        ScriptedDelays {
            inner,
            script,
            counts: std::collections::HashMap::new(),
        }
    }
}

impl<M: NetworkModel> NetworkModel for ScriptedDelays<M> {
    fn delay(&mut self, ctx: &MsgCtx) -> SimDuration {
        let n = self.counts.entry((ctx.src, ctx.dst)).or_insert(0);
        let occurrence = *n;
        *n += 1;
        let mut d = self.inner.delay(ctx);
        for (src, dst, nth, extra) in &self.script {
            if *src == ctx.src && *dst == ctx.dst && *nth == occurrence {
                d += *extra;
            }
        }
        d
    }
}

/// Boxed model for heterogeneous composition at runtime.
pub type BoxedNetworkModel = Box<dyn NetworkModel>;

impl NetworkModel for BoxedNetworkModel {
    fn delay(&mut self, ctx: &MsgCtx) -> SimDuration {
        (**self).delay(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(bytes: usize, now_ns: u64) -> MsgCtx {
        MsgCtx {
            src: 0,
            dst: 1,
            bytes,
            now: SimTime::from_nanos(now_ns),
        }
    }

    #[test]
    fn constant_latency_ignores_everything() {
        let mut m = ConstantLatency(SimDuration::from_millis(3));
        assert_eq!(m.delay(&ctx(10, 0)), SimDuration::from_millis(3));
        assert_eq!(m.delay(&ctx(1_000_000, 99)), SimDuration::from_millis(3));
    }

    #[test]
    fn link_bandwidth_serializes_per_link_only() {
        // 1 MB/s links, zero latency. Two 1000-byte messages on the same
        // link queue (1ms then 2ms); a message on a different link at the
        // same instant does not (1ms).
        let mut m = LinkBandwidth::new(SimDuration::ZERO, 1e6);
        assert_eq!(m.delay(&ctx(1000, 0)), SimDuration::from_millis(1));
        assert_eq!(m.delay(&ctx(1000, 0)), SimDuration::from_millis(2));
        let other = MsgCtx {
            src: 0,
            dst: 2,
            bytes: 1000,
            now: SimTime::ZERO,
        };
        assert_eq!(m.delay(&other), SimDuration::from_millis(1));
        assert_eq!(
            m.busy_until.get(&(0, 1)),
            Some(&SimTime::from_nanos(2_000_000))
        );
        assert_eq!(
            m.busy_until.get(&(0, 2)),
            Some(&SimTime::from_nanos(1_000_000))
        );
        assert_eq!(m.busy_until.get(&(2, 0)), None);
        // Full duplex: the reverse of the busy 0 -> 1 link is idle.
        let reverse = MsgCtx {
            src: 1,
            dst: 0,
            bytes: 1000,
            now: SimTime::ZERO,
        };
        assert_eq!(m.delay(&reverse), SimDuration::from_millis(1));
    }

    #[test]
    fn link_bandwidth_idles_between_spaced_sends_and_adds_latency() {
        let mut m = LinkBandwidth::new(SimDuration::from_millis(5), 1e6);
        assert_eq!(m.delay(&ctx(1000, 0)), SimDuration::from_millis(6));
        // Next send well after the link freed: no queueing.
        assert_eq!(m.delay(&ctx(1000, 10_000_000)), SimDuration::from_millis(6));
    }

    #[test]
    fn shared_medium_serializes_back_to_back_sends() {
        // 1 MB/s bus, zero latency. Two 1000-byte messages at t=0:
        // first finishes at 1ms (delay 1ms), second waits and finishes at
        // 2ms (delay 2ms).
        let mut m = SharedMedium::new(SimDuration::ZERO, 1e6);
        assert_eq!(m.delay(&ctx(1000, 0)), SimDuration::from_millis(1));
        assert_eq!(m.delay(&ctx(1000, 0)), SimDuration::from_millis(2));
    }

    #[test]
    fn shared_medium_idles_between_spaced_sends() {
        let mut m = SharedMedium::new(SimDuration::ZERO, 1e6);
        assert_eq!(m.delay(&ctx(1000, 0)), SimDuration::from_millis(1));
        // Next send well after the bus freed: no queueing.
        assert_eq!(m.delay(&ctx(1000, 10_000_000)), SimDuration::from_millis(1));
    }

    #[test]
    fn shared_medium_adds_receiver_latency() {
        let mut m = SharedMedium::new(SimDuration::from_millis(5), 1e6);
        assert_eq!(m.delay(&ctx(1000, 0)), SimDuration::from_millis(6));
    }

    #[test]
    fn transient_delays_fire_with_prob_one() {
        let base = ConstantLatency(SimDuration::from_millis(1));
        let mut m = TransientDelays::new(base, 1.0, SimDuration::from_millis(50), 1);
        assert_eq!(m.delay(&ctx(1, 0)), SimDuration::from_millis(51));
    }

    #[test]
    fn transient_delays_never_fire_with_prob_zero() {
        let base = ConstantLatency(SimDuration::from_millis(1));
        let mut m = TransientDelays::new(base, 0.0, SimDuration::from_millis(50), 1);
        for _ in 0..100 {
            assert_eq!(m.delay(&ctx(1, 0)), SimDuration::from_millis(1));
        }
    }

    #[test]
    fn transient_delays_are_deterministic_per_seed() {
        let run = |seed| {
            let base = ConstantLatency(SimDuration::from_millis(1));
            let mut m = TransientDelays::new(base, 0.3, SimDuration::from_millis(10), seed);
            (0..50)
                .map(|_| m.delay(&ctx(1, 0)).as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let base = ConstantLatency(SimDuration::from_millis(10));
        let mut m = Jitter::new(base, 0.2, 3);
        for _ in 0..200 {
            let d = m.delay(&ctx(1, 0)).as_secs_f64();
            assert!(
                (0.008..=0.012).contains(&d),
                "jittered delay {d} out of ±20%"
            );
        }
    }

    #[test]
    fn scripted_delay_hits_exactly_the_nth_message() {
        let base = ConstantLatency(SimDuration::from_millis(1));
        let mut m = ScriptedDelays::new(base, vec![(0, 1, 2, SimDuration::from_millis(100))]);
        assert_eq!(m.delay(&ctx(1, 0)), SimDuration::from_millis(1)); // 0th
        assert_eq!(m.delay(&ctx(1, 0)), SimDuration::from_millis(1)); // 1st
        assert_eq!(m.delay(&ctx(1, 0)), SimDuration::from_millis(101)); // 2nd
        assert_eq!(m.delay(&ctx(1, 0)), SimDuration::from_millis(1)); // 3rd
    }

    #[test]
    fn boxed_model_dispatches() {
        let mut m: BoxedNetworkModel = Box::new(ConstantLatency(SimDuration::from_millis(2)));
        assert_eq!(m.delay(&ctx(1, 0)), SimDuration::from_millis(2));
    }

    #[test]
    fn scripted_delay_distinguishes_pairs() {
        let base = ConstantLatency(SimDuration::from_millis(1));
        let mut m = ScriptedDelays::new(base, vec![(0, 1, 0, SimDuration::from_millis(100))]);
        let other = MsgCtx {
            src: 1,
            dst: 0,
            bytes: 1,
            now: SimTime::ZERO,
        };
        assert_eq!(m.delay(&other), SimDuration::from_millis(1)); // wrong pair
        assert_eq!(m.delay(&ctx(1, 0)), SimDuration::from_millis(101)); // right pair, 0th
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The shared medium conserves work: total delay over a burst of
        /// messages sent at the same instant equals serialized transmission
        /// (the i-th message waits for all earlier ones), and its busy
        /// horizon never moves backwards.
        #[test]
        fn shared_medium_serializes(
            sizes in proptest::collection::vec(1usize..10_000, 1..30),
            bw in 1e4f64..1e8,
        ) {
            let mut m = SharedMedium::new(SimDuration::ZERO, bw);
            let mut expected_done = 0.0f64;
            let mut last_busy = SimTime::ZERO;
            for (i, &bytes) in sizes.iter().enumerate() {
                let d = m.delay(&MsgCtx { src: 0, dst: 1, bytes, now: SimTime::ZERO });
                expected_done += bytes as f64 / bw;
                let got = d.as_secs_f64();
                // Each delay is quantized to whole nanoseconds, and the
                // rounding accumulates in busy_until: allow 1 ns/message.
                prop_assert!(
                    (got - expected_done).abs() <= 1e-6 * expected_done + 1e-9 * (i as f64 + 1.0),
                    "message {i}: got {got}, expected {expected_done}"
                );
                prop_assert!(m.busy_until >= last_busy);
                last_busy = m.busy_until;
            }
        }

        /// Jitter never distorts a delay by more than the configured
        /// fraction, for any base delay.
        #[test]
        fn jitter_is_bounded(
            base_us in 1u64..1_000_000,
            frac in 0.0f64..0.99,
            seed in any::<u64>(),
        ) {
            let mut m = Jitter::new(
                ConstantLatency(SimDuration::from_micros(base_us)),
                frac,
                seed,
            );
            let base = base_us as f64 * 1e-6;
            for _ in 0..20 {
                let d = m
                    .delay(&MsgCtx { src: 0, dst: 1, bytes: 1, now: SimTime::ZERO })
                    .as_secs_f64();
                prop_assert!(d >= base * (1.0 - frac) - 1e-9);
                prop_assert!(d <= base * (1.0 + frac) + 1e-9);
            }
        }
    }
}
