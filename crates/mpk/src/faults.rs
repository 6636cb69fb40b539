//! The fault layer all three backends send through.
//!
//! A [`FaultSpec`] is what a caller configures; a [`FaultGate`] is what a
//! cluster runs: the spec plus per-rank [`FaultCounters`]. Every send asks
//! [`FaultGate::admit`] — the one place the fate model, the crash plan and
//! the counters meet — and gets back a [`Verdict`] that says nothing about
//! the payload: how a copy or a corrupted frame is produced is the
//! backend's business.

use std::marker::PhantomData;
use std::sync::Arc;

use netsim::{CrashPlan, FaultModel, MachineCrash, MsgCtx, NoFaults};
use parking_lot::Mutex;

use crate::clock::WallClock;
use crate::types::{FaultCounters, Rank};

/// Fault-injection configuration of a cluster run: the per-message fate
/// model and the scripted machine outages. `M` is the cluster's message
/// type; the fault layer never looks at a payload.
pub struct FaultSpec<M> {
    /// Per-message fate model (loss, duplication, corruption, partitions).
    pub model: Box<dyn FaultModel>,
    /// Scripted machine outages: the cluster's one crash schedule. The
    /// transport drops sends addressed to a down rank, like datagrams to a
    /// rebooting host, and hands each rank its own outages
    /// ([`AsyncTransport::scripted_crashes`](crate::AsyncTransport::scripted_crashes)),
    /// which a fault-tolerant driver acts out: it stops, sleeps and rolls
    /// back.
    pub crashes: CrashPlan,
    payload: PhantomData<fn(M)>,
}

impl<M> FaultSpec<M> {
    /// No faults: the configuration
    /// [`run_sim_proc_cluster`](crate::run_sim_proc_cluster) uses.
    pub fn none() -> Self {
        FaultSpec::new(NoFaults)
    }

    /// Faults from a fate model alone.
    pub fn new(model: impl FaultModel + 'static) -> Self {
        FaultSpec {
            model: Box::new(model),
            crashes: CrashPlan::none(),
            payload: PhantomData,
        }
    }

    /// Add scripted machine outages.
    pub fn with_crashes(mut self, crashes: CrashPlan) -> Self {
        self.crashes = crashes;
        self
    }
}

/// What the gate decided for one send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// No copy arrives: the fate model dropped the message or its
    /// destination is down.
    Dropped,
    /// The message arrives, followed by `copies` duplicates. `flip` is set
    /// when the fate corrupts it, to the number of corruptions this gate
    /// has ordered before (0, 1, 2, …): a reproducible choice of what to
    /// damage for a backend with bytes to damage.
    Deliver { copies: u32, flip: Option<u64> },
}

/// A cluster's fault state: one spec, and what it did to each rank's sends.
pub(crate) struct FaultGate {
    model: Box<dyn FaultModel>,
    crashes: CrashPlan,
    counters: Vec<FaultCounters>,
    corrupt_hits: u64,
}

impl FaultGate {
    /// The gate of a `p`-rank cluster running under `spec`.
    pub(crate) fn new<M>(spec: FaultSpec<M>, p: usize) -> Self {
        FaultGate {
            model: spec.model,
            crashes: spec.crashes,
            counters: vec![FaultCounters::default(); p],
            corrupt_hits: 0,
        }
    }

    /// Decide the send `ctx` describes and book it against `ctx.src`. The
    /// fate model is consulted exactly once, also when the destination is
    /// down, so its random stream stays aligned with the send sequence.
    #[inline]
    pub(crate) fn admit(&mut self, ctx: &MsgCtx) -> Verdict {
        let fate = self.model.fate(ctx);
        let counters = &mut self.counters[ctx.src];
        if !fate.deliver || self.crashes.is_down(ctx.dst, ctx.now) {
            counters.dropped += 1;
            return Verdict::Dropped;
        }
        counters.delivered += 1;
        counters.duplicated += u64::from(fate.extra_copies);
        let flip = fate.corrupt.then(|| {
            self.corrupt_hits += 1;
            self.corrupt_hits - 1
        });
        Verdict::Deliver {
            copies: fate.extra_copies,
            flip,
        }
    }

    /// What the gate did to `rank`'s sends so far.
    pub(crate) fn counters(&self, rank: Rank) -> FaultCounters {
        self.counters[rank.0]
    }

    /// `rank`'s own scripted outages, in time order.
    pub(crate) fn crashes(&self, rank: Rank) -> Vec<MachineCrash> {
        self.crashes.of(rank.0)
    }
}

/// The gate as the thread and socket endpoints hold it: one per process,
/// shared by its ranks behind a lock — send order between threads is
/// scheduler-dependent, so fates on those backends are reproducible only
/// where one rank does all the sending — or absent on a fault-free
/// cluster, which then takes no lock and reads no clock per send.
#[derive(Clone, Default)]
pub(crate) struct SharedGate(Option<Arc<Mutex<FaultGate>>>);

impl SharedGate {
    pub(crate) fn new<M>(spec: FaultSpec<M>, p: usize) -> Self {
        SharedGate(Some(Arc::new(Mutex::new(FaultGate::new(spec, p)))))
    }

    /// [`FaultGate::admit`] for a send of `bytes` modelled bytes from `src`
    /// to `dst` at the time `clock` shows.
    pub(crate) fn admit(&self, src: Rank, dst: Rank, bytes: usize, clock: &WallClock) -> Verdict {
        let Some(gate) = &self.0 else {
            return Verdict::Deliver {
                copies: 0,
                flip: None,
            };
        };
        let (src, dst, now) = (src.0, dst.0, clock.now());
        let ctx = MsgCtx {
            src,
            dst,
            bytes,
            now,
        };
        gate.lock().admit(&ctx)
    }

    pub(crate) fn counters(&self, rank: Rank) -> FaultCounters {
        self.0
            .as_ref()
            .map(|gate| gate.lock().counters(rank))
            .unwrap_or_default()
    }

    pub(crate) fn crashes(&self, rank: Rank) -> Vec<MachineCrash> {
        self.0
            .as_ref()
            .map(|gate| gate.lock().crashes(rank))
            .unwrap_or_default()
    }
}
