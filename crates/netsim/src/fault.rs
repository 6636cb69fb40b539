//! Message-level fault models, composable alongside [`NetworkModel`].
//!
//! Where a [`NetworkModel`](crate::NetworkModel) decides *when* a message
//! arrives, a [`FaultModel`] decides *whether* — and in how many copies,
//! and how mangled. The split mirrors the PVM-era reality the paper ran
//! on: UDP-like transports lose and duplicate datagrams, links partition,
//! and whole workstations reboot mid-run. A lost `X_k(t)` is just an
//! infinitely-delayed one, so the speculative driver's BW extrapolation
//! already contains the recovery mechanism; this module supplies the
//! deterministic adversary.
//!
//! All stochastic models take explicit seeds and draw from their own
//! [`SmallRng`] stream, so a run is bit-reproducible per seed under the
//! desim virtual clock. Models compose with [`FaultStack`] (every layer is
//! always consulted, keeping RNG streams aligned regardless of what other
//! layers decide) and can be confined to a virtual-time window with
//! [`FaultPlan`].

use desim::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::network::MsgCtx;

/// What the fault layer decided for one message.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fate {
    /// Deliver the message at all? `false` means no copy arrives —
    /// duplication of a dropped message does not resurrect it.
    pub deliver: bool,
    /// Extra copies to deliver beyond the original, each re-consulting the
    /// network model for its own delay.
    pub extra_copies: u32,
    /// Corrupt the payload in transit? What that does to a concrete
    /// message is the transport's business: the socket backend flips a
    /// byte of the encoded frame; backends that carry no bytes deliver
    /// it intact.
    pub corrupt: bool,
}

impl Fate {
    /// Unperturbed delivery.
    pub(crate) fn clean() -> Fate {
        Fate {
            deliver: true,
            extra_copies: 0,
            corrupt: false,
        }
    }

    /// The message never arrives.
    pub fn dropped() -> Fate {
        Fate {
            deliver: false,
            extra_copies: 0,
            corrupt: false,
        }
    }

    /// Combine two layers' decisions: a drop anywhere wins, copies add up,
    /// and a corruption anywhere applies.
    pub(crate) fn merge(self, other: Fate) -> Fate {
        Fate {
            deliver: self.deliver && other.deliver,
            extra_copies: self.extra_copies + other.extra_copies,
            corrupt: self.corrupt || other.corrupt,
        }
    }
}

/// A model mapping each message to its [`Fate`]. Called exactly once per
/// send, in deterministic order, before the network model is consulted.
pub trait FaultModel: Send {
    /// Decide this message's fate.
    fn fate(&mut self, ctx: &MsgCtx) -> Fate;
}

/// The identity fault model: every message arrives exactly once, intact.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl FaultModel for NoFaults {
    fn fate(&mut self, _ctx: &MsgCtx) -> Fate {
        Fate::clean()
    }
}

/// Independent per-message loss with probability `p`.
pub struct Loss {
    p: f64,
    rng: SmallRng,
}

impl Loss {
    /// Drop each message with probability `p`, deterministically per
    /// `seed`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0,1]"
        );
        Loss {
            p,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl FaultModel for Loss {
    fn fate(&mut self, _ctx: &MsgCtx) -> Fate {
        if self.rng.gen_bool(self.p) {
            Fate::dropped()
        } else {
            Fate::clean()
        }
    }
}

/// Independent per-message duplication with probability `p`: an affected
/// message is delivered twice.
pub struct Duplicate {
    p: f64,
    rng: SmallRng,
}

impl Duplicate {
    /// Duplicate each message with probability `p`, deterministically per
    /// `seed`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplication probability must be in [0,1]"
        );
        Duplicate {
            p,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl FaultModel for Duplicate {
    fn fate(&mut self, _ctx: &MsgCtx) -> Fate {
        let mut f = Fate::clean();
        if self.rng.gen_bool(self.p) {
            f.extra_copies = 1;
        }
        f
    }
}

/// Independent per-message payload corruption: with probability `p` the
/// message is marked [`Fate::corrupt`]. On the socket backend a corrupted
/// frame fails to decode and is dropped at the receiver, so to the driver
/// it is one more lost message.
pub struct Corrupt {
    p: f64,
    rng: SmallRng,
}

impl Corrupt {
    /// Corrupt each message with probability `p`, one draw per message,
    /// deterministically per `seed`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "corruption probability must be in [0,1]"
        );
        Corrupt {
            p,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl FaultModel for Corrupt {
    fn fate(&mut self, _ctx: &MsgCtx) -> Fate {
        Fate {
            corrupt: self.rng.gen_bool(self.p),
            ..Fate::clean()
        }
    }
}

/// Both directions of one link are dead during `[from, until)`.
#[derive(Clone, Copy, Debug)]
pub struct LinkPartition {
    /// One endpoint.
    pub a: usize,
    /// The other endpoint.
    pub b: usize,
    /// Partition start (inclusive), virtual time.
    pub from: SimTime,
    /// Partition end (exclusive), virtual time.
    pub until: SimTime,
}

impl FaultModel for LinkPartition {
    fn fate(&mut self, ctx: &MsgCtx) -> Fate {
        let on_link =
            (ctx.src == self.a && ctx.dst == self.b) || (ctx.src == self.b && ctx.dst == self.a);
        if on_link && ctx.now >= self.from && ctx.now < self.until {
            Fate::dropped()
        } else {
            Fate::clean()
        }
    }
}

/// Scripted per-message fates, identified by `(src, dst, occurrence)`: the
/// n-th message from `src` to `dst` (0-based) gets the listed fate — the
/// fault-layer analogue of [`ScriptedDelays`](crate::ScriptedDelays).
pub struct ScriptedFaults {
    script: Vec<(usize, usize, u64, Fate)>,
    counts: std::collections::HashMap<(usize, usize), u64>,
}

impl ScriptedFaults {
    /// A script of `(src, dst, nth, fate)` injections; unlisted messages
    /// pass clean.
    pub fn new(script: Vec<(usize, usize, u64, Fate)>) -> Self {
        ScriptedFaults {
            script,
            counts: std::collections::HashMap::new(),
        }
    }
}

impl FaultModel for ScriptedFaults {
    fn fate(&mut self, ctx: &MsgCtx) -> Fate {
        let n = self.counts.entry((ctx.src, ctx.dst)).or_insert(0);
        let occurrence = *n;
        *n += 1;
        let mut fate = Fate::clean();
        for (src, dst, nth, f) in &self.script {
            if *src == ctx.src && *dst == ctx.dst && *nth == occurrence {
                fate = fate.merge(*f);
            }
        }
        fate
    }
}

/// A schedule of fault models, each active only inside its virtual-time
/// window — e.g. a 100 ms burst of 50% loss mid-run.
///
/// Every window's model is consulted on every message, active or not, so
/// each layer's RNG stream advances identically whether or not its window
/// is open; only active windows contribute to the merged fate. That keeps
/// a run with a window bit-identical, outside the window, to a run whose
/// window never opens.
#[derive(Default)]
pub struct FaultPlan {
    windows: Vec<(SimTime, SimTime, Box<dyn FaultModel>)>,
}

impl FaultPlan {
    /// An empty plan (identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `model`, active during `[from, until)`.
    pub fn window(
        mut self,
        from: SimTime,
        until: SimTime,
        model: impl FaultModel + 'static,
    ) -> Self {
        assert!(from < until, "fault window must be non-empty");
        self.windows.push((from, until, Box::new(model)));
        self
    }
}

impl FaultModel for FaultPlan {
    fn fate(&mut self, ctx: &MsgCtx) -> Fate {
        let mut fate = Fate::clean();
        for (from, until, model) in &mut self.windows {
            let f = model.fate(ctx);
            if ctx.now >= *from && ctx.now < *until {
                fate = fate.merge(f);
            }
        }
        fate
    }
}

/// A stack of fault models applied to every message: loss composed with
/// duplication composed with a partition, etc. All layers are always
/// consulted (aligned RNG streams); fates merge per `Fate::merge`.
#[derive(Default)]
pub struct FaultStack {
    layers: Vec<Box<dyn FaultModel>>,
}

impl FaultStack {
    /// An empty stack (identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a layer.
    pub fn with(mut self, model: impl FaultModel + 'static) -> Self {
        self.layers.push(Box::new(model));
        self
    }
}

impl FaultModel for FaultStack {
    fn fate(&mut self, ctx: &MsgCtx) -> Fate {
        let mut fate = Fate::clean();
        for layer in &mut self.layers {
            fate = fate.merge(layer.fate(ctx));
        }
        fate
    }
}

/// A scripted whole-machine crash: at virtual time `at`, rank `rank` loses
/// all volatile state (in-flight iterations, mailbox, peer histories) and
/// rejoins `restart_after` later, re-seeded from its last confirmed
/// checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineCrash {
    /// The rank that crashes.
    pub rank: usize,
    /// Virtual time of the crash.
    pub at: SimTime,
    /// Outage duration; the rank is back at `at + restart_after`.
    pub restart_after: SimDuration,
}

impl MachineCrash {
    /// A crash the machine never recovers from: `rank` goes down at `at`
    /// and stays down for the rest of the run. Survivors must finish in
    /// degraded mode, carrying its partition by speculation alone.
    pub fn permanent(rank: usize, at: SimTime) -> Self {
        MachineCrash {
            rank,
            at,
            restart_after: SimDuration::MAX,
        }
    }

    /// When the machine is reachable again ([`SimTime::MAX`] for a
    /// permanent crash — `SimTime + SimDuration` saturates).
    pub fn back_at(&self) -> SimTime {
        self.at + self.restart_after
    }

    /// True when the machine never comes back.
    pub fn is_permanent(&self) -> bool {
        self.back_at() == SimTime::MAX
    }
}

/// The crash schedule of a whole cluster run.
#[derive(Clone, Debug, Default)]
pub struct CrashPlan {
    crashes: Vec<MachineCrash>,
}

impl CrashPlan {
    /// No crashes.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan from a crash list.
    pub fn new(crashes: Vec<MachineCrash>) -> Self {
        CrashPlan { crashes }
    }

    /// Is `rank` down at virtual time `t`? Messages sent to a down rank
    /// are lost, like datagrams to a rebooting host.
    pub fn is_down(&self, rank: usize, t: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|c| c.rank == rank && t >= c.at && t < c.back_at())
    }

    /// `rank`'s own outages, in time order: what that machine acts out.
    pub fn of(&self, rank: usize) -> Vec<MachineCrash> {
        let mut own = self.crashes.clone();
        own.retain(|c| c.rank == rank);
        own.sort_by_key(|c| c.at);
        own
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: usize, dst: usize, now_ns: u64) -> MsgCtx {
        MsgCtx {
            src,
            dst,
            bytes: 100,
            now: SimTime::from_nanos(now_ns),
        }
    }

    fn fates(model: &mut impl FaultModel, n: usize) -> Vec<Fate> {
        (0..n).map(|i| model.fate(&ctx(0, 1, i as u64))).collect()
    }

    #[test]
    fn loss_rate_tracks_probability() {
        let dropped = fates(&mut Loss::new(0.2, 11), 5000)
            .iter()
            .filter(|f| !f.deliver)
            .count();
        let rate = dropped as f64 / 5000.0;
        assert!((0.15..0.25).contains(&rate), "rate {rate}");
    }

    #[test]
    fn duplicate_adds_copies_without_dropping() {
        let fs = fates(&mut Duplicate::new(0.5, 3), 1000);
        assert!(fs.iter().all(|f| f.deliver));
        let copies: u32 = fs.iter().map(|f| f.extra_copies).sum();
        assert!(copies > 300 && copies < 700, "copies {copies}");
    }

    #[test]
    fn corrupt_is_only_sometimes_set() {
        let fs = fates(&mut Corrupt::new(0.5, 9), 1000);
        assert!(fs.iter().all(|f| f.deliver && f.extra_copies == 0));
        let hit = fs.iter().filter(|f| f.corrupt).count();
        assert!(hit > 300 && hit < 700, "hits {hit}");
    }

    #[test]
    fn partition_drops_both_directions_inside_window_only() {
        let mut m = LinkPartition {
            a: 0,
            b: 1,
            from: SimTime::from_nanos(100),
            until: SimTime::from_nanos(200),
        };
        assert!(m.fate(&ctx(0, 1, 50)).deliver, "before window");
        assert!(!m.fate(&ctx(0, 1, 100)).deliver, "at window start");
        assert!(!m.fate(&ctx(1, 0, 150)).deliver, "reverse direction");
        assert!(m.fate(&ctx(0, 2, 150)).deliver, "other link untouched");
        assert!(m.fate(&ctx(0, 1, 200)).deliver, "window end is exclusive");
    }

    #[test]
    fn scripted_faults_hit_the_nth_message() {
        let mut m = ScriptedFaults::new(vec![(0, 1, 1, Fate::dropped())]);
        assert!(m.fate(&ctx(0, 1, 0)).deliver);
        assert!(!m.fate(&ctx(0, 1, 1)).deliver);
        assert!(m.fate(&ctx(0, 1, 2)).deliver);
    }

    #[test]
    fn plan_confines_faults_to_their_window() {
        let mut m = FaultPlan::new().window(
            SimTime::from_nanos(1000),
            SimTime::from_nanos(2000),
            Loss::new(1.0, 5),
        );
        assert!(m.fate(&ctx(0, 1, 999)).deliver);
        assert!(!m.fate(&ctx(0, 1, 1000)).deliver);
        assert!(m.fate(&ctx(0, 1, 2000)).deliver);
    }

    #[test]
    fn stack_merges_layers() {
        let mut m = FaultStack::new()
            .with(Duplicate::new(1.0, 1))
            .with(Duplicate::new(1.0, 2));
        let f = m.fate(&ctx(0, 1, 0));
        assert!(f.deliver);
        assert_eq!(f.extra_copies, 2);

        let mut m = FaultStack::new()
            .with(Loss::new(1.0, 1))
            .with(Duplicate::new(1.0, 2));
        assert!(!m.fate(&ctx(0, 1, 0)).deliver, "a drop beats duplication");
    }

    #[test]
    fn crash_plan_tracks_outages() {
        let plan = CrashPlan::new(vec![MachineCrash {
            rank: 2,
            at: SimTime::from_nanos(100),
            restart_after: SimDuration::from_nanos(50),
        }]);
        assert!(!plan.is_down(2, SimTime::from_nanos(99)));
        assert!(plan.is_down(2, SimTime::from_nanos(100)));
        assert!(plan.is_down(2, SimTime::from_nanos(149)));
        assert!(!plan.is_down(2, SimTime::from_nanos(150)));
        assert!(!plan.is_down(1, SimTime::from_nanos(120)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn same_seed_same_fates(p in 0.0f64..1.0, seed in 0u64..1000, n in 1usize..200) {
            let mk = || {
                FaultStack::new()
                    .with(Loss::new(p, seed))
                    .with(Duplicate::new(p, seed.wrapping_add(1)))
            };
            let a: Vec<Fate> = {
                let mut m = mk();
                (0..n).map(|i| m.fate(&MsgCtx {
                    src: 0, dst: 1, bytes: 64, now: SimTime::from_nanos(i as u64)
                })).collect()
            };
            let b: Vec<Fate> = {
                let mut m = mk();
                (0..n).map(|i| m.fate(&MsgCtx {
                    src: 0, dst: 1, bytes: 64, now: SimTime::from_nanos(i as u64)
                })).collect()
            };
            prop_assert_eq!(a, b);
        }

        #[test]
        fn merge_is_commutative(da in 0u32..2, db in 0u32..2,
                                ca in 0u32..4, cb in 0u32..4) {
            let a = Fate { deliver: da == 1, extra_copies: ca, corrupt: false };
            let b = Fate { deliver: db == 1, extra_copies: cb, corrupt: false };
            prop_assert_eq!(a.merge(b), b.merge(a));
        }
    }
}
