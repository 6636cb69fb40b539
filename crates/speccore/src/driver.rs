//! The synchronous-iterative execution driver.
//!
//! [`run_speculative_aio`] implements the paper's Figure 3 generalized to
//! any forward window. With an empty window ([`SpecConfig::baseline`]) it
//! is Figure 1: broadcast the partition, block for every peer's values,
//! compute. With FW ≥ 1 missing inputs are speculated from history,
//! computation proceeds immediately, and arriving actuals either validate
//! the speculation (error ≤ θ), trigger an incremental correction, or —
//! when deeper speculation consumed the corrupted state — roll execution
//! back to the last confirmed checkpoint.
//!
//! ## Send-on-confirm semantics
//!
//! A rank broadcasts `X_j(t)` only once iteration `t-1` is *confirmed*
//! (every input it used was actual or validated). This matches Figure 3,
//! where the values sent at the top of an iteration were already corrected,
//! and keeps the protocol sound for FW ≥ 2: nothing tentative ever crosses
//! the network, so a misspeculation never cascades to other ranks. Forward
//! speculation still masks delays because by the time a late message
//! arrives and validates, the next iterations are already computed and
//! their broadcasts leave back-to-back (the paper's Figure 4c behaviour).

use std::collections::{HashMap, VecDeque};

use desim::{SimDuration, SimTime};
use mpk::{AsyncTransport, DeltaFrame, Envelope, Rank, Tag, WireCodec, WireSize, HEADER_BYTES};
use netsim::MachineCrash;
use obs::{Gauge, Mark, Phase};

use crate::app::SpeculativeApp;
use crate::config::{CorrectionMode, DeltaExchange, FaultTolerance, SpecConfig};
use crate::control::{ControllerState, Decision};
use crate::peer::{LossAction, Peer, PeerHealth, Refused};
use crate::stats::{IterationLog, PhaseBreakdown, RunStats};
use crate::window::{Inbox, Slots};

/// Wire discriminant for delta frames: the top bit of the iteration stamp.
/// Iteration counts never approach 2^63, so full frames — whose encoding
/// must stay byte-identical to the pre-delta protocol — always have it
/// clear.
const DELTA_BIT: u64 = 1 << 63;

/// The message every rank broadcasts each iteration: either its full
/// partition snapshot or a sparse [`DeltaFrame`] against the receiver's
/// shadow, stamped with the iteration it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct IterMsg<S> {
    /// Which iteration's `X_j` this is.
    pub iter: u64,
    /// Full snapshot or sparse delta.
    pub(crate) body: MsgBody<S>,
}

/// Payload of an [`IterMsg`].
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum MsgBody<S> {
    /// The complete partition snapshot (the only body before delta
    /// exchange; still used for keyframes, retransmissions and recovery).
    Full(S),
    /// Scalar lanes that moved past the quantization floor since the
    /// previous frame to the same peer. Applies only on top of the
    /// immediately preceding iteration's reconstruction.
    Delta(DeltaFrame),
}

impl<S> IterMsg<S> {
    /// A full-snapshot message.
    pub fn full(iter: u64, data: S) -> Self {
        debug_assert!(iter & DELTA_BIT == 0, "iteration stamp overflows wire tag");
        IterMsg {
            iter,
            body: MsgBody::Full(data),
        }
    }

    /// A delta-frame message.
    pub(crate) fn delta(iter: u64, frame: DeltaFrame) -> Self {
        debug_assert!(iter & DELTA_BIT == 0, "iteration stamp overflows wire tag");
        IterMsg {
            iter,
            body: MsgBody::Delta(frame),
        }
    }
}

impl<S: WireSize> WireSize for IterMsg<S> {
    fn wire_size(&self) -> usize {
        8 + match &self.body {
            MsgBody::Full(data) => data.wire_size(),
            MsgBody::Delta(frame) => frame.wire_size(),
        }
    }
}

/// The real encoding matches the [`WireSize`] model above byte-for-byte,
/// so socket runs put exactly the modelled payload on the wire. Full
/// frames encode exactly as the pre-delta `IterMsg` did (iteration stamp,
/// then payload); delta frames set the stamp's top bit (`DELTA_BIT`).
impl<S: WireCodec> WireCodec for IterMsg<S> {
    fn encode(&self, out: &mut Vec<u8>) {
        match &self.body {
            MsgBody::Full(data) => {
                self.iter.encode(out);
                data.encode(out);
            }
            MsgBody::Delta(frame) => {
                (self.iter | DELTA_BIT).encode(out);
                frame.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let stamp = u64::decode(buf)?;
        if stamp & DELTA_BIT == 0 {
            Some(IterMsg::full(stamp, S::decode(buf)?))
        } else {
            Some(IterMsg::delta(stamp & !DELTA_BIT, DeltaFrame::decode(buf)?))
        }
    }
}

/// Tag used for iteration data messages.
pub(crate) const DATA_TAG: Tag = Tag(1);

/// Tag used for retransmit requests. The request's payload is the
/// *requester's* latest broadcast (so even the request refreshes the
/// receiver's view of the requester); the reply is an ordinary
/// [`DATA_TAG`] re-send of the receiver's latest broadcast, which doubles
/// as the acknowledgement.
pub(crate) const RETRANS_REQ_TAG: Tag = Tag(2);

struct ExecRecord<S, C> {
    iter: u64,
    /// App state snapshot taken before executing this iteration.
    pre: C,
    /// `X_j(iter + 1)`, extracted right after execution (kept up to date
    /// through incremental corrections).
    produced: S,
    /// Per peer, the value its input was speculated with, for as long as
    /// the actual is outstanding: the record is resolved when none is held.
    speculated: Slots<S>,
}

/// What one step of the main loop did.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Step {
    /// State moved: start the next pass from the top.
    Progressed,
    /// Nothing to do here: go on to the next step of this pass.
    FellThrough,
}

/// Every rank but `me`, ascending — the order every per-peer loop uses.
#[inline]
fn peers(p: usize, me: Rank) -> impl Iterator<Item = usize> {
    (0..p).filter(move |&k| k != me.0)
}

// ---------------------------------------------------------------------------
// Fault tolerance
// ---------------------------------------------------------------------------

/// Everything fault tolerance adds to a rank beyond its [`Peer`]s:
/// speculate-through-loss promotion, retransmit requests and scripted
/// crashes. Constructed only when the config carries a [`FaultTolerance`]
/// policy.
struct FaultState<S> {
    policy: FaultTolerance,
    /// This rank's outages still to come, in time order, as the
    /// transport's crash plan scripts them.
    crashes: Vec<MachineCrash>,
    /// Latest state this rank put on the wire, re-sent on retransmit
    /// requests and after crash recovery.
    last_broadcast: (u64, S),
    /// The queue-head iteration whose missing inputs are being tracked;
    /// the peers' loss waits are meaningful only while this matches the
    /// front.
    front_tracked: Option<u64>,
    /// When the rank first found itself with nothing in flight and nothing
    /// executable (starved — e.g. iteration 0 under loss, before any
    /// history exists to extrapolate from).
    starved_since: Option<SimTime>,
}

impl<S: Clone> FaultState<S> {
    fn new(policy: FaultTolerance, crashes: Vec<MachineCrash>, x0: S) -> Self {
        FaultState {
            policy,
            crashes,
            last_broadcast: (0, x0),
            front_tracked: None,
            starved_since: None,
        }
    }

    /// Peer `k`'s loss deadline: the controller's delay quantile ×
    /// headroom, clamped to never exceed the static timeout, which is also
    /// the fallback while the controller lacks samples (or is off). The
    /// sweep's promotion check and Phase 3's wake-up both read it here, so
    /// the wake-up can fire neither early nor late.
    fn loss_deadline(&self, ctl: &Option<Ctl>, k: usize) -> SimDuration {
        ctl.as_ref()
            .and_then(|c| c.state.deadline_for(k))
            .unwrap_or(self.policy.loss_timeout)
    }

    /// The earliest instant something here acts without a message: a
    /// missing peer's loss deadline (armed or in grace), the starvation
    /// timeout, or this rank's next scripted crash.
    fn wake_deadline(&self, ctl: &Option<Ctl>, peers: &[Peer<S>]) -> Option<SimTime> {
        let waits = peers
            .iter()
            .enumerate()
            .filter_map(|(k, peer)| peer.due(self.loss_deadline(ctl, k)));
        let starved = self.starved_since.map(|s| s + self.policy.loss_timeout);
        let crash = self.crashes.first().map(|c| c.at);
        waits.chain(starved).chain(crash).min()
    }
}

// ---------------------------------------------------------------------------
// Adaptive controller
// ---------------------------------------------------------------------------

/// The adaptive controller plus the totals as they stood at the previous
/// confirmation, so each confirm feeds it only the interval's own misses,
/// checks, wait and busy time. Constructed only when the config carries a
/// controller: otherwise no estimator runs, no stats fields move, no marks
/// are emitted and the window is never touched.
struct Ctl {
    state: ControllerState,
    phases_at_confirm: PhaseBreakdown,
    checked_at_confirm: u64,
    missed_at_confirm: u64,
}

impl Ctl {
    /// Feed the interval since the previous confirmation to the estimator
    /// and evaluate a retune if one is due.
    fn on_confirm(
        &mut self,
        stats: &RunStats,
        loss_timeout: Option<SimDuration>,
    ) -> Option<Decision> {
        // Busy time is everything but the wait: compute + speculate + check
        // + correct.
        let (now, was) = (stats.phases, self.phases_at_confirm);
        self.state.on_confirm(
            stats.misspeculated_partitions - self.missed_at_confirm,
            stats.checked_partitions - self.checked_at_confirm,
            now.comm_wait - was.comm_wait,
            (now.total() - now.comm_wait) - (was.total() - was.comm_wait),
        );
        self.phases_at_confirm = now;
        self.missed_at_confirm = stats.misspeculated_partitions;
        self.checked_at_confirm = stats.checked_partitions;
        self.state.maybe_retune(loss_timeout)
    }
}

// ---------------------------------------------------------------------------
// Delta exchange
// ---------------------------------------------------------------------------

/// The rank-level half of delta exchange (the shadows are per [`Peer`]).
/// `policy` is `Some` only when the config asked for deltas *and* the app
/// exposes scalar lanes; otherwise the driver's behavior (and
/// allocations) are bit-identical to the pre-delta protocol.
struct DeltaState {
    policy: Option<DeltaExchange>,
    /// Scratch: current partition flattened to scalar lanes.
    cur: Vec<f64>,
    /// Scratch: the frame being diffed for the peer in progress.
    frame: DeltaFrame,
}

impl DeltaState {
    /// `requested` takes effect only if `app` exposes scalar lanes.
    fn new<A: SpeculativeApp>(requested: Option<DeltaExchange>, app: &A) -> Self {
        let mut cur = Vec::new();
        DeltaState {
            policy: requested.filter(|_| app.delta_extract(&app.shared(), &mut cur)),
            cur,
            frame: DeltaFrame::new(),
        }
    }

    /// Flatten `data` into `cur`. Only called with a policy, which is only
    /// set for an app that exposes lanes.
    fn extract<A: SpeculativeApp>(&mut self, app: &A, data: &A::Shared) {
        let capable = app.delta_extract(data, &mut self.cur);
        debug_assert!(capable, "delta policy active on a non-capable app");
    }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Run the speculative driver (the paper's Figure 3, generalized over
/// forward windows) for `total_iters` iterations. Under
/// [`SpecConfig::baseline`], an empty forward window, nothing is
/// speculated and this is the paper's Figure 1 loop.
///
/// Written once against [`mpk::AsyncTransport`]. On a thread or socket
/// endpoint the returned future completes on its first poll, so callers
/// there drive it with [`mpk::poll_ready`], no executor involved. On
/// [`mpk::SimIo`] each `.await` suspends the rank's state machine into
/// the `desim` event kernel, so every rank of a simulated cluster runs the
/// identical driver code on one OS thread.
pub async fn run_speculative_aio<T, A>(
    transport: &mut T,
    app: &mut A,
    total_iters: u64,
    config: SpecConfig,
) -> RunStats
where
    A: SpeculativeApp,
    A::Shared: WireSize,
    T: AsyncTransport<Msg = IterMsg<A::Shared>>,
{
    let start = transport.now();
    let mut s = RankState::new(transport, app, total_iters, config);
    if total_iters == 0 {
        s.stats.total_time = s.transport.now() - start;
        return s.stats;
    }
    let x0 = s.app.shared();
    s.broadcast(0, x0).await;
    // There is one pass per arriving frame, so what a pass costs when a step
    // has nothing to do shows on the small ledger rows: a synchronous guard
    // spares such a step its future, and step 5 — the one suspension every
    // pass ends in — is awaited here, not in a method of its own.
    while s.t_conf < total_iters && !s.halted {
        s.fold_arrivals().await;
        if s.fault.is_some() && s.fault_sweep().await == Step::Progressed {
            continue;
        }
        s.gauge_on_change(Gauge::InboxDepth, s.inbox.depth() as u64);
        if s.front_ready() && s.validate_front().await == Step::Progressed {
            continue;
        }
        s.gauge_on_change(Gauge::WindowSize, u64::from(s.config.window));
        if s.window_open() && s.execute_next().await == Step::Progressed {
            continue;
        }
        let (t0, deadline) = s.begin_wait();
        let env = match deadline {
            Some(d) if d > t0 => s.transport.recv_timeout(d.duration_since(t0)).await,
            // A deadline is already due: act on it at the loop top.
            Some(_) => None,
            // Nothing bounds the wait: no fault tolerance (with it, some
            // wait is always armed).
            None => Some(s.transport.recv().await),
        };
        s.end_wait(t0, env);
    }
    s.stats.messages_lost = s.transport.fault_counters().dropped;
    s.stats.total_time = s.transport.now() - start;
    s.stats
}

// ---------------------------------------------------------------------------
// The rank
// ---------------------------------------------------------------------------

/// One rank's whole driver state. Everything it knows about each remote
/// rank is one sans-I/O [`Peer`] in `peers`, whose verdicts the steps
/// below act on: every send, stats counter and mark is made here. Each
/// optional feature's rank-level state is one field — `fault`, `ctl`, and
/// `dx` (whose policy is the option) — that stays `None`/inert unless
/// configured, which keeps the plain run bit-identical to a driver that
/// never heard of the feature. The main loop in
/// [`run_speculative_aio`] calls the five steps in order:
/// [`fold_arrivals`](Self::fold_arrivals),
/// [`fault_sweep`](Self::fault_sweep),
/// [`validate_front`](Self::validate_front) (the paper's check/correct),
/// [`execute_next`](Self::execute_next) (speculate/compute) and the wait
/// between [`begin_wait`](Self::begin_wait) and
/// [`end_wait`](Self::end_wait).
struct RankState<'a, T, A: SpeculativeApp> {
    transport: &'a mut T,
    app: &'a mut A,
    config: SpecConfig,
    me: Rank,
    p: usize,
    total_iters: u64,
    stats: RunStats,
    /// The last sample of the two gauges that are sampled only when their
    /// value moves (to keep traces compact).
    last_inbox_depth: Option<u64>,
    last_window: Option<u64>,
    /// Actual values received, by iteration (from `t_conf` on) and sender.
    inbox: Inbox<A::Shared>,
    /// Everything known about each remote rank, indexed by rank (this
    /// rank's own entry stays unused).
    peers: Vec<Peer<A::Shared>>,
    /// Executed-but-unconfirmed iterations, oldest first.
    exec_q: VecDeque<ExecRecord<A::Shared, A::Checkpoint>>,
    /// Recycled checkpoint buffers: confirmed (or rolled-back) records
    /// donate their `pre` snapshots back, so apps that override
    /// `checkpoint_into` keep the steady-state path allocation-free. Depth
    /// is bounded by the forward window, so the pool never grows past it.
    checkpoint_pool: Vec<A::Checkpoint>,
    /// The same for the records' speculated-input tables.
    speculated_pool: Vec<Slots<A::Shared>>,
    /// Peers whose actual for the queue-head iteration arrived since Phase 1
    /// last ran: the only inputs validation has to look at. Rebuilt from the
    /// inbox row when a commit brings a new record to the front.
    fresh: Vec<usize>,
    /// Phase 2 scratch: the speculation computed for each missing peer.
    speculations: Vec<Option<(A::Shared, u64, u32)>>,
    /// Next iteration to confirm.
    t_conf: u64,
    /// Next iteration to execute.
    t_exec: u64,
    /// Per-iteration timing records awaiting confirmation (only when the
    /// log is enabled).
    log_pending: HashMap<u64, IterationLog>,
    /// The message Phase 3 blocked for, folded in first at the loop top.
    carried: Option<Envelope<IterMsg<A::Shared>>>,
    /// This rank's permanent scripted crash came due: the run ends here.
    halted: bool,
    fault: Option<FaultState<A::Shared>>,
    ctl: Option<Ctl>,
    dx: DeltaState,
}

impl<'a, T, A> RankState<'a, T, A>
where
    A: SpeculativeApp,
    A::Shared: WireSize,
    T: AsyncTransport<Msg = IterMsg<A::Shared>>,
{
    fn new(transport: &'a mut T, app: &'a mut A, total_iters: u64, config: SpecConfig) -> Self {
        let (me, p) = (transport.rank(), transport.size());
        RankState {
            me,
            p,
            total_iters,
            stats: RunStats::new(me),
            last_inbox_depth: None,
            last_window: None,
            inbox: Inbox::new(p, total_iters),
            peers: (0..p).map(|_| Peer::new(config.backward_window)).collect(),
            exec_q: VecDeque::new(),
            checkpoint_pool: Vec::new(),
            speculated_pool: Vec::new(),
            fresh: Vec::new(),
            speculations: (0..p).map(|_| None).collect(),
            t_conf: 0,
            t_exec: 0,
            log_pending: HashMap::new(),
            carried: None,
            halted: false,
            fault: config
                .fault
                .clone()
                .map(|ft| FaultState::new(ft, transport.scripted_crashes(), app.shared())),
            ctl: config.controller.clone().map(|cc| Ctl {
                state: ControllerState::new(cc, p, config.window),
                phases_at_confirm: PhaseBreakdown::default(),
                checked_at_confirm: 0,
                missed_at_confirm: 0,
            }),
            dx: DeltaState::new(config.delta, &*app),
            transport,
            app,
            config,
        }
    }

    // ---- telemetry: the only code that asks for the recorder; with none
    // attached each of these is a `None` branch ------------------------------

    fn mark(&mut self, t: SimTime, mark: Mark) {
        if let Some(r) = self.transport.recorder() {
            r.mark(self.me.0 as u32, t.as_nanos(), mark);
        }
    }

    fn gauge(&mut self, t: SimTime, gauge: Gauge, value: u64) {
        if let Some(r) = self.transport.recorder() {
            r.gauge(self.me.0 as u32, t.as_nanos(), gauge, value);
        }
    }

    /// A closed phase span `[t0, t1]`.
    fn span(&mut self, t0: SimTime, t1: SimTime, phase: Phase, iter: u64, depth: Option<u64>) {
        if let Some(r) = self.transport.recorder() {
            let rank = self.me.0 as u32;
            r.span(rank, t0.as_nanos(), t1.as_nanos(), phase, Some(iter), depth);
        }
    }

    /// Sample `gauge` now — the two change-detected gauges only if `value`
    /// differs from their last sample.
    fn gauge_on_change(&mut self, gauge: Gauge, value: u64) {
        let moved = match gauge {
            Gauge::InboxDepth => self.last_inbox_depth.replace(value) != Some(value),
            Gauge::WindowSize => self.last_window.replace(value) != Some(value),
            Gauge::ExecQueueDepth | Gauge::EventHeapSize => true,
        };
        if moved {
            self.gauge(self.transport.now(), gauge, value);
        }
    }

    // ---- sending ---------------------------------------------------------

    /// Send one message, keeping the modelled byte/message tallies.
    async fn send(&mut self, to: Rank, tag: Tag, msg: IterMsg<A::Shared>) {
        self.stats.bytes_sent += (HEADER_BYTES + msg.wire_size()) as u64;
        self.stats.messages_sent += 1;
        self.transport.send(to, tag, msg).await;
    }

    /// Send this rank's latest broadcast to one peer as a full snapshot —
    /// the retransmit reply and rejoin keyframe ([`DATA_TAG`]; re-delivery
    /// is the acknowledgement), or the retransmit request itself
    /// ([`RETRANS_REQ_TAG`], which carries the requester's state so even
    /// the request refreshes the receiver). Resets the sender-side shadow
    /// so the peer's stream restarts from a known baseline. Fault
    /// tolerance only.
    async fn resend_latest(&mut self, to: Rank, tag: Tag) {
        let Some(f) = &self.fault else { return };
        let (iter, data) = &f.last_broadcast;
        if self.dx.policy.is_some() {
            self.dx.extract(&*self.app, data);
            self.peers[to.0].reseed_tx(&self.dx.cur);
        }
        let msg = IterMsg::full(*iter, data.clone());
        self.send(to, tag, msg).await;
        if tag == RETRANS_REQ_TAG {
            self.stats.retransmit_requests += 1;
        }
    }

    /// Broadcast this iteration's partition to every peer. Without a delta
    /// policy every peer gets the full snapshot, exactly as before. With one,
    /// each peer gets either a keyframe (on the keyframe cadence, or when its
    /// shadow is missing) or the sparse diff against its sender shadow; the
    /// shadow is then advanced by *what was sent* — not by the true state —
    /// so quantization error never compounds across iterations.
    async fn broadcast(&mut self, iter: u64, data: A::Shared) {
        let Some(pol) = self.dx.policy else {
            for k in peers(self.p, self.me) {
                self.send(Rank(k), DATA_TAG, IterMsg::full(iter, data.clone()))
                    .await;
            }
            return;
        };
        self.dx.extract(&*self.app, &data);
        let full_bytes = (HEADER_BYTES + 8 + data.wire_size()) as u64;
        let keyframe_due = iter.is_multiple_of(pol.keyframe_interval);
        for k in peers(self.p, self.me) {
            let msg = match &mut self.peers[k].tx_shadow {
                Some(shadow) if !keyframe_due => {
                    self.dx.frame.diff_into(&self.dx.cur, shadow, pol.floor);
                    self.dx.frame.apply(shadow);
                    let msg = IterMsg::delta(iter, self.dx.frame.clone());
                    let bytes = full_bytes.saturating_sub((HEADER_BYTES + msg.wire_size()) as u64);
                    self.stats.delta_suppressed_bytes += bytes;
                    let (t_now, to) = (self.transport.now(), k as u32);
                    self.mark(t_now, Mark::DeltaSuppressed { to, bytes });
                    msg
                }
                _ => {
                    self.peers[k].reseed_tx(&self.dx.cur);
                    IterMsg::full(iter, data.clone())
                }
            };
            self.send(Rank(k), DATA_TAG, msg).await;
        }
    }

    // ---- step 1 ----------------------------------------------------------

    /// Fold in everything that has arrived: the message Phase 3 blocked
    /// for, then whatever else the mailbox holds.
    async fn fold_arrivals(&mut self) {
        while let Some(env) = match self.carried.take() {
            Some(env) => Some(env),
            None => self.transport.try_recv().await,
        } {
            let Envelope { src, tag, msg } = env;
            self.stats.messages_received += 1;
            self.stats.bytes_received += (HEADER_BYTES + msg.wire_size()) as u64;
            // Only the controller and fault tolerance read the arrival clock.
            // A frame stamped past the run's end is not the peer being heard.
            if self.ctl.is_some() || self.fault.is_some() {
                let now = self.transport.now();
                let limit = self.inbox.limit();
                let Some(heard) = self.peers[src.0].heard(now, tag, msg.iter, limit) else {
                    continue;
                };
                if let Some(c) = &mut self.ctl {
                    c.state.on_receive(src.0, heard.prev, now);
                }
                if heard.rejoined {
                    // Readmission: the peer's receive-side view is gone (its
                    // stream must restart from a keyframe), and the reply
                    // ships it our full state so its backward window re-seeds
                    // at once. The keyframe doubles as the retransmit reply.
                    self.stats.peer_rejoins += 1;
                    let peer = src.0 as u32;
                    self.mark(now, Mark::PeerRejoined { peer });
                    if !self.peers.iter().any(Peer::is_quarantined) {
                        self.mark(now, Mark::DegradedExit);
                    }
                }
                if heard.reply {
                    self.resend_latest(src, DATA_TAG).await;
                }
            }
            let IterMsg { iter, body } = msg;
            let app = &*self.app;
            let patch = |base: &A::Shared, entries: &[(u32, f64)]| app.delta_patch(base, entries);
            let delta = self.dx.policy.is_some();
            let arrived =
                match self.peers[src.0].receive(iter, body, self.inbox.limit(), delta, patch) {
                    Ok(data) => self.inbox.insert(iter, src.0, data),
                    Err(Refused::Unpatched) => {
                        self.stats.delta_frames_dropped += 1;
                        false
                    }
                    Err(Refused::PastEnd) => false,
                };
            if arrived && iter == self.t_conf && !self.exec_q.is_empty() {
                self.fresh.push(src.0);
            }
        }
    }

    // ---- step 2 ----------------------------------------------------------

    /// Fault tolerance: this rank's next scripted crash once its time has
    /// come, else speculate-through-loss promotion of the stuck queue head
    /// and the supervision sweep. A no-op without a policy. The decisions
    /// are made synchronously; only the crash and the retransmit requests
    /// await.
    async fn fault_sweep(&mut self) -> Step {
        let Some(f) = &self.fault else {
            return Step::FellThrough;
        };
        let now = self.transport.now();
        if let Some(&c) = f.crashes.first().filter(|c| now >= c.at) {
            self.crash(c, now).await;
            return Step::Progressed;
        }
        for k in self.sweep_losses(now) {
            self.resend_latest(Rank(k), RETRANS_REQ_TAG).await;
        }
        self.sweep_supervision();
        Step::FellThrough
    }

    /// Abandon every executed-but-unconfirmed iteration: the app returns to
    /// the oldest record's pre-state (the confirmed prefix `[0, t_conf)` is
    /// never touched) and the records' buffers go back to the pools.
    fn rewind(&mut self) {
        if let Some(front) = self.exec_q.front() {
            debug_assert_eq!(front.iter, self.t_conf);
            self.app.restore(&front.pre);
        }
        self.t_exec = self.t_conf;
        for rec in self.exec_q.drain(..) {
            self.checkpoint_pool.push(rec.pre);
            self.speculated_pool.push(rec.speculated);
        }
        self.fresh.clear();
    }

    /// Act out this rank's scripted crash `c`, which came due by `now`.
    async fn crash(&mut self, c: MachineCrash, now: SimTime) {
        let Some(f) = &mut self.fault else { return };
        f.crashes.remove(0);
        // Volatile state dies with the machine.
        f.front_tracked = None;
        f.starved_since = None;
        self.peers.iter_mut().for_each(Peer::forget);
        let peer = self.me.0 as u32;
        self.mark(c.at, Mark::PeerCrashed { peer });
        if c.is_permanent() {
            // The machine never comes back. The confirmed prefix stands (it
            // was validated and broadcast); peers quarantine this rank and
            // finish in degraded mode, carrying its partition by
            // speculation.
            self.halted = true;
            return;
        }
        self.stats.peer_restarts += 1;
        // Roll back to the last confirmed checkpoint (the confirmed prefix
        // [0, t_conf) is durable — it was validated and broadcast before
        // the crash).
        self.rewind();
        self.inbox.clear();
        self.gauge(c.at, Gauge::ExecQueueDepth, 0);
        let wake = c.at + c.restart_after;
        if wake > now {
            let outage = wake.duration_since(now);
            self.transport.sleep(outage).await;
            self.stats.downtime += outage;
        }
        // Mail delivered while the machine was down is lost: the sends to
        // a down rank are dropped, but a frame sent before the crash may
        // still land during it.
        while self.transport.try_recv().await.is_some() {}
        self.mark(self.transport.now(), Mark::PeerRecovered { peer });
        // Ask every peer for its latest state to rebuild the backward
        // windows; the requests carry our own state.
        for k in peers(self.p, self.me) {
            self.resend_latest(Rank(k), RETRANS_REQ_TAG).await;
        }
    }

    /// Run the loss detector over every peer whose input to the queue head
    /// is still speculative, promoting as it decides. Returns the peers to
    /// send a retransmit request (empty, and unallocated, unless one is
    /// due).
    fn sweep_losses(&mut self, now: SimTime) -> Vec<usize> {
        let mut ask = Vec::new();
        let Some(f) = &mut self.fault else { return ask };
        // Re-anchor the per-peer waits whenever the queue head changes
        // (confirmation, rollback, drain): `since` stamps from a previous
        // front must never promote inputs of the new one.
        let front_now = self.exec_q.front().map(|rec| rec.iter);
        if front_now != f.front_tracked {
            f.front_tracked = front_now;
            self.peers.iter_mut().for_each(Peer::disarm);
        }
        let Some(front_iter) = front_now else {
            return ask;
        };
        let front = &mut self.exec_q[0];
        for k in peers(self.p, self.me) {
            // A peer whose slot is no longer speculative — or whose actual
            // already sits in the inbox awaiting its check — needs no loss
            // tracking.
            let speculative =
                front.speculated.get(k).is_some() && self.inbox.get(front_iter, k).is_none();
            let deadline = f.loss_deadline(&self.ctl, k);
            let peer = &mut self.peers[k];
            match peer.sweep(now, front_iter, speculative, deadline) {
                LossAction::Wait => {}
                LossAction::Promote { degraded } => {
                    // The front record's iteration is the confirmation point.
                    let sv = front.speculated.take(k).expect("promoting a resolved slot");
                    if peer.promote(front_iter, front_iter, Some(sv)) {
                        self.stats.speculate_through_loss_commits += 1;
                        // Degraded mode: the cluster's pace no longer
                        // depends on the dead rank.
                        self.stats.degraded_commits += u64::from(degraded);
                    }
                }
                LossAction::Ask => ask.push(k),
            }
        }
        ask
    }

    /// Re-derive per-peer health from the consecutive-promotion counters
    /// and mark the transitions. One step per pass, so thresholds crossed
    /// together still resolve.
    fn sweep_supervision(&mut self) {
        let Some(sup) = self.fault.as_ref().and_then(|f| f.policy.supervision) else {
            return;
        };
        let t_now = self.transport.now();
        for k in peers(self.p, self.me) {
            let peer = k as u32;
            match self.peers[k].observe(sup) {
                Some(PeerHealth::Suspected) => {
                    self.stats.peers_suspected += 1;
                    self.mark(t_now, Mark::PeerSuspected { peer });
                }
                Some(PeerHealth::Quarantined) => {
                    self.stats.peers_quarantined += 1;
                    self.mark(t_now, Mark::PeerQuarantined { peer });
                    // The first peer quarantined puts the rank in degraded
                    // mode.
                    let first = self.peers.iter().filter(|p| p.is_quarantined()).count() == 1;
                    if first {
                        self.mark(t_now, Mark::DegradedEnter);
                    }
                }
                Some(PeerHealth::Healthy) | None => {}
            }
        }
    }

    // ---- step 3: Phase 1 ---------------------------------------------------

    /// Whether Phase 1 has work: an executed iteration awaits confirmation
    /// and either an actual just arrived for it or nothing it used is
    /// speculative any more.
    fn front_ready(&self) -> bool {
        let Some(front) = self.exec_q.front() else {
            return false;
        };
        !self.fresh.is_empty() || front.speculated.held() == 0
    }

    /// Phase 1 (call when [`front_ready`](Self::front_ready)): validate the
    /// oldest unconfirmed iteration against the actuals that just arrived
    /// for it, and confirm it once no input is speculative any more.
    async fn validate_front(&mut self) -> Step {
        // Only an input whose actual just arrived can have become
        // checkable; in rank order, as a scan of the row would find them.
        self.fresh.sort_unstable();
        for i in 0..self.fresh.len() {
            if !self.check_input(self.fresh[i]).await {
                self.rollback();
                return Step::Progressed;
            }
        }
        self.fresh.clear();
        if self.exec_q[0].speculated.held() > 0 {
            return Step::FellThrough;
        }
        self.commit_front().await;
        Step::Progressed
    }

    /// Book the virtual work that just ended against `phase`, from `t0`
    /// (read before the app hook that priced the work ran), and emit its
    /// span. Returns the instant the work ended.
    fn charge(&mut self, phase: Phase, t0: SimTime, iter: u64, depth: Option<u64>) -> SimTime {
        let t1 = self.transport.now();
        let ph = &mut self.stats.phases;
        *match phase {
            Phase::Compute => &mut ph.compute,
            Phase::CommWait => &mut ph.comm_wait,
            Phase::Speculate => &mut ph.speculate,
            Phase::Check => &mut ph.check,
            Phase::Correct => &mut ph.correct,
        } += t1 - t0;
        self.span(t0, t1, phase, iter, depth);
        t1
    }

    /// Check peer `k`'s actual for the front iteration against the value it
    /// was speculated with, repairing a miss in place if the config and the
    /// app allow it. Returns `false` when only a rollback can repair it.
    async fn check_input(&mut self, k: usize) -> bool {
        let front_iter = self.exec_q[0].iter;
        // Every path below leaves the input resolved or drains the record in
        // a rollback, so the speculated value is taken, not cloned. (`None`:
        // loss promotion resolved the input before its late actual arrived.)
        let Some(spec) = self.exec_q[0].speculated.take(k) else {
            return true;
        };
        let actual = self
            .inbox
            .get(front_iter, k)
            .expect("a fresh arrival is in the inbox");
        let t0 = self.transport.now();
        let outcome = self.app.check(Rank(k), actual, &spec);
        if let Some(c) = &mut self.ctl {
            c.state.observe_error(outcome.max_error);
        }
        self.transport.compute(outcome.ops).await;
        let t1 = self.charge(Phase::Check, t0, front_iter, None);
        let st = &mut self.stats;
        st.checked_partitions += 1;
        st.checked_units += outcome.checked_units;
        st.bad_units += outcome.bad_units;
        st.max_accepted_error = st.max_accepted_error.max(outcome.max_accepted_error);
        if outcome.accept {
            st.accepted_partitions += 1;
            return true;
        }
        st.misspeculated_partitions += 1;
        let (peer, iter) = (k as u32, front_iter);
        self.mark(t1, Mark::Misspeculation { peer, iter });
        // `Recompute`: exact recomputation requested — roll back to the
        // pre-state of the oldest record and re-execute with the actuals now
        // in the inbox.
        self.config.correction == CorrectionMode::Incremental && self.correct_input(k, &spec).await
    }

    /// Incrementally correct the misspeculated input from peer `k`.
    /// Returns `false` when the app cannot propagate the correction through
    /// the iterations already computed on top.
    async fn correct_input(&mut self, k: usize, spec: &A::Shared) -> bool {
        let front_iter = self.exec_q[0].iter;
        let actual = self
            .inbox
            .get(front_iter, k)
            .expect("a fresh arrival is in the inbox");
        let depth = self.exec_q.len() as u64 - 1;
        let t0 = self.transport.now();
        let ops = if depth == 0 {
            // Fix the single in-flight iteration in place: the paper's
            // `correct(X_j(t+1))`.
            Some(self.app.correct(Rank(k), spec, actual))
        } else {
            // Iterations were already computed on top; let the app propagate
            // the correction forward if it can (first-order, bounded
            // residual).
            self.app.correct_deep(Rank(k), spec, actual, depth)
        };
        let Some(ops) = ops else { return false };
        self.transport.compute(ops).await;
        let t1 = self.charge(Phase::Correct, t0, front_iter, Some(depth));
        self.stats.corrections += 1;
        let peer = k as u32;
        self.mark(t1, Mark::Correction { peer, depth });
        // The live state changed; refresh the newest pending broadcast.
        // (Below it, interim records keep a bounded θ-order residual — the
        // paper's accepted-error philosophy.)
        let newest = self.exec_q.back_mut().expect("correcting a queued record");
        newest.produced = self.app.shared();
        true
    }

    /// Roll execution back to the front record's pre-state.
    fn rollback(&mut self) {
        let to_iter = self.t_conf;
        self.rewind();
        self.stats.rollbacks += 1;
        let t_now = self.transport.now();
        self.mark(t_now, Mark::Rollback { to_iter });
        self.gauge(t_now, Gauge::ExecQueueDepth, 0);
    }

    /// Confirm the front record — every input it used is now actual,
    /// validated or promoted — and broadcast what it produced.
    async fn commit_front(&mut self) {
        let rec = self.exec_q.pop_front().expect("non-empty queue");
        self.checkpoint_pool.push(rec.pre);
        self.speculated_pool.push(rec.speculated);
        self.t_conf = rec.iter + 1;
        self.stats.iterations += 1;
        let t_now = self.transport.now();
        let queue_depth = self.exec_q.len() as u64;
        self.mark(t_now, Mark::Commit { iter: rec.iter });
        self.gauge(t_now, Gauge::ExecQueueDepth, queue_depth);
        if self.config.collect_log {
            if let Some(mut entry) = self.log_pending.remove(&rec.iter) {
                entry.confirmed_at = t_now;
                self.stats.iteration_log.push(entry);
            }
        }
        self.retune(t_now);
        if self.t_conf < self.total_iters {
            if let Some(f) = &mut self.fault {
                f.last_broadcast = (self.t_conf, rec.produced.clone());
            }
            self.broadcast(self.t_conf, rec.produced).await;
        }
        // Everything below t_conf is fully consumed.
        self.inbox.advance(self.t_conf);
        // The record now at the front may have actuals waiting from while it
        // sat behind the one just committed.
        if let Some(front) = self.exec_q.front() {
            for k in 0..self.p {
                if front.speculated.get(k).is_some() && self.inbox.get(self.t_conf, k).is_some() {
                    self.fresh.push(k);
                }
            }
        }
    }

    /// A confirmation boundary: let the controller (if any) digest the
    /// interval and apply whatever it decides.
    fn retune(&mut self, t_now: SimTime) {
        let Some(c) = &mut self.ctl else { return };
        let loss_timeout = self.fault.as_ref().map(|f| f.policy.loss_timeout);
        let Some(d) = c.on_confirm(&self.stats, loss_timeout) else {
            return;
        };
        self.stats.controller_retunes += 1;
        self.stats.controller_fw = u64::from(d.fw);
        self.stats.controller_theta = d.theta.unwrap_or(0.0);
        self.config.window = d.fw;
        if let Some(th) = d.theta {
            self.app.set_speculation_threshold(th);
        }
        let retune = Mark::ControllerRetune {
            fw: d.fw,
            theta_ppb: d.theta.map(|t| (t * 1e9) as u64).unwrap_or(u64::MAX),
            deadline_ns: d.tightest_deadline_ns,
        };
        self.mark(t_now, retune);
    }

    // ---- step 4: Phase 2 ---------------------------------------------------

    /// Whether the forward window admits executing another iteration.
    fn window_open(&self) -> bool {
        let depth = self.t_exec - self.t_conf;
        self.t_exec < self.total_iters && depth < u64::from(self.config.window.max(1))
    }

    /// Phase 2 (call when [`window_open`](Self::window_open)): execute the
    /// next iteration if every input is either here or speculable.
    async fn execute_next(&mut self) -> Step {
        let window = self.config.window;
        let depth = self.t_exec - self.t_conf;
        // Starvation breaker: with fault tolerance on, a rank that has had
        // nothing in flight and nothing executable for a full loss timeout
        // executes anyway, skipping inputs it cannot even extrapolate
        // (e.g. iteration 0 under total loss, where no history exists).
        let force = match &self.fault {
            Some(f) if self.exec_q.is_empty() => f.starved_since.is_some_and(|since| {
                self.transport.now().duration_since(since) >= f.policy.loss_timeout
            }),
            _ => false,
        };
        let all_arrived = self.inbox.arrived(self.t_exec) == self.p - 1;
        if all_arrived || (window >= 1 && self.plan_speculations()) || force {
            self.execute(depth, force).await;
            return Step::Progressed;
        }
        // Abandoned: drop whatever was speculated for the attempt.
        self.speculations.iter_mut().for_each(|s| *s = None);
        Step::FellThrough
    }

    /// Pre-compute a speculation for every input to `t_exec` that has not
    /// arrived (read-only on the app), so the attempt can be abandoned
    /// without side effects if any peer is unpredictable (e.g. empty
    /// history at iteration 0). Returns whether every one could be made.
    fn plan_speculations(&mut self) -> bool {
        let mut speculable = true;
        for k in peers(self.p, self.me) {
            if self.inbox.get(self.t_exec, k).is_some() {
                continue;
            }
            let hist = &self.peers[k].history;
            let ahead = hist
                .latest_iter()
                .map(|li| self.t_exec.saturating_sub(li).max(1) as u32);
            self.speculations[k] = ahead.and_then(|a| {
                let (sv, ops) = self.app.speculate(Rank(k), hist, a)?;
                Some((sv, ops, a))
            });
            if self.speculations[k].is_none() {
                speculable = false;
                // Under fault tolerance, keep collecting what *can* be
                // speculated: a forced execution uses every extrapolation
                // it has.
                if self.fault.is_none() {
                    break;
                }
            }
        }
        speculable
    }

    /// Execute iteration `t_exec` on the actuals that arrived and the
    /// speculations [`plan_speculations`](Self::plan_speculations) left,
    /// and queue it for confirmation.
    async fn execute(&mut self, depth: u64, force: bool) {
        let t_exec = self.t_exec;
        self.stats.executions += 1;
        self.stats.max_depth_used = self.stats.max_depth_used.max(depth + 1);
        let exec_start = self.transport.now();
        let mut pre_slot = self.checkpoint_pool.pop();
        self.app.checkpoint_into(&mut pre_slot);
        let pre = pre_slot.expect("checkpoint_into must fill the slot");
        let mut speculated = self.speculated_pool.pop().unwrap_or(Slots::UNSIZED);
        speculated.reset(self.p);

        let mut comp_ops = self.app.begin_iteration();
        let mut spec_ops = 0u64;
        // Peers whose staleness budget ran out during a forced execution
        // (empty unless fault tolerance forced the skip path below, so the
        // fault-free hot path never allocates).
        let mut ask: Vec<usize> = Vec::new();
        for k in peers(self.p, self.me) {
            if let Some(actual) = self.inbox.get(t_exec, k) {
                comp_ops += self.app.absorb(Rank(k), actual);
            } else if let Some((sv, ops, ahead)) = self.speculations[k].take() {
                spec_ops += ops;
                comp_ops += self.app.absorb(Rank(k), &sv);
                self.stats.speculated_partitions += 1;
                let peer = k as u32;
                self.mark(exec_start, Mark::Speculation { peer, ahead });
                speculated.put(k, sv);
            } else {
                // Forced execution with no history to extrapolate from:
                // proceed without this peer's contribution. Only reachable
                // with fault tolerance on.
                debug_assert!(force);
                let Some(f) = &self.fault else { continue };
                let peer = &mut self.peers[k];
                if peer.promote(t_exec, self.t_conf, None) {
                    self.stats.speculate_through_loss_commits += 1;
                }
                let stale = peer.staleness();
                if stale >= f.policy.staleness_budget
                    && stale.is_multiple_of(f.policy.staleness_budget)
                {
                    ask.push(k);
                }
            }
        }
        comp_ops += self.app.finish_iteration();
        for k in ask {
            self.resend_latest(Rank(k), RETRANS_REQ_TAG).await;
        }

        if spec_ops > 0 {
            let t0 = self.transport.now();
            self.transport.compute(spec_ops).await;
            self.charge(Phase::Speculate, t0, t_exec, Some(depth));
        }
        let t0 = self.transport.now();
        self.transport.compute(comp_ops).await;
        let exec_end = self.charge(Phase::Compute, t0, t_exec, Some(depth));

        if self.config.collect_log {
            let earlier = self.log_pending.get(&t_exec);
            let entry = IterationLog {
                iter: t_exec,
                exec_start,
                exec_end,
                // Stamped at the commit.
                confirmed_at: exec_start,
                speculated_inputs: speculated.held() as u32,
                re_executions: earlier.map_or(0, |e| e.re_executions + 1),
            };
            self.log_pending.insert(t_exec, entry);
        }

        self.exec_q.push_back(ExecRecord {
            iter: t_exec,
            pre,
            produced: self.app.shared(),
            speculated,
        });
        let queue_depth = self.exec_q.len() as u64;
        self.gauge(exec_end, Gauge::ExecQueueDepth, queue_depth);
        self.t_exec += 1;
        if let Some(f) = &mut self.fault {
            f.starved_since = None;
        }
    }

    // ---- step 5: Phase 3 ---------------------------------------------------

    /// Phase 3, before blocking: nothing to compute, so the rank waits for
    /// the next message. Returns the instant the wait starts and, with
    /// fault tolerance on, the [`FaultState::wake_deadline`] that bounds
    /// it. The transport wakes exactly at the arrival or the deadline, so
    /// θ-acceptance decisions do not depend on any poll interval.
    fn begin_wait(&mut self) -> (SimTime, Option<SimTime>) {
        let t0 = self.transport.now();
        let Some(f) = &mut self.fault else {
            return (t0, None);
        };
        if self.exec_q.is_empty() && f.starved_since.is_none() {
            f.starved_since = Some(t0);
        }
        (t0, f.wake_deadline(&self.ctl, &self.peers))
    }

    /// Phase 3, after blocking since `t0`: book the wait and carry what
    /// arrived (if anything) to the next pass.
    fn end_wait(&mut self, t0: SimTime, env: Option<Envelope<IterMsg<A::Shared>>>) {
        let t1 = self.transport.now();
        let waited = t1 - t0;
        self.stats.phases.comm_wait += waited;
        if waited > SimDuration::ZERO || self.fault.is_none() {
            self.span(t0, t1, Phase::CommWait, self.t_conf, None);
        }
        self.carried = env;
    }
}

// ---------------------------------------------------------------------------

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::app::CheckOutcome;
    use crate::history::History;
    use desim::SimDuration;
    use mpk::{run_sim_proc_cluster, AsyncTransport};
    use netsim::{ClusterSpec, ConstantLatency, ScriptedDelays, Unloaded};

    /// A linear toy app: each rank owns one scalar; every iteration
    /// `x_j ← a·x_j + b·Σ_{k≠j} x_k`. Linearity makes incremental
    /// correction exact, and smooth trajectories make linear extrapolation
    /// a good speculator.
    #[derive(Clone)]
    pub(crate) struct Toy {
        #[allow(dead_code)] // identifies the rank in debug dumps
        me: usize,
        x: f64,
        pending: f64,
        theta: f64,
        a: f64,
        b: f64,
    }

    impl Toy {
        pub(crate) fn new(me: usize, p: usize, theta: f64) -> Self {
            Toy {
                me,
                x: 1.0 + me as f64,
                pending: 0.0,
                theta,
                a: 0.6,
                b: 0.3 / p as f64,
            }
        }
    }

    /// The toy's shared value: one row of one lane.
    impl crate::app::Lanes for f64 {
        fn row_count(&self) -> usize {
            1
        }

        fn row(&self, _r: usize) -> &[f64] {
            std::slice::from_ref(self)
        }

        fn row_mut(&mut self, _r: usize) -> &mut [f64] {
            std::slice::from_mut(self)
        }
    }

    impl SpeculativeApp for Toy {
        type Shared = f64;
        type Checkpoint = f64;

        fn shared(&self) -> f64 {
            self.x
        }
        fn begin_iteration(&mut self) -> u64 {
            self.pending = self.a * self.x;
            1
        }
        fn absorb(&mut self, _from: Rank, x: &f64) -> u64 {
            self.pending += self.b * x;
            100
        }
        fn finish_iteration(&mut self) -> u64 {
            self.x = self.pending;
            1
        }
        fn speculate(&self, _from: Rank, hist: &History<f64>, ahead: u32) -> Option<(f64, u64)> {
            let (i1, &v1) = hist.nth_back(0)?;
            match hist.nth_back(1) {
                Some((i0, &v0)) => {
                    let slope = (v1 - v0) / (i1 - i0) as f64;
                    Some((v1 + slope * ahead as f64, 2))
                }
                None => Some((v1, 1)),
            }
        }
        fn check(&self, _from: Rank, actual: &f64, speculated: &f64) -> CheckOutcome {
            let err = (actual - speculated).abs() / actual.abs().max(1e-12);
            let accept = err <= self.theta;
            CheckOutcome {
                accept,
                max_error: err,
                max_accepted_error: if accept { err } else { 0.0 },
                checked_units: 1,
                bad_units: u64::from(!accept),
                ops: 2,
            }
        }
        fn correct(&mut self, _from: Rank, speculated: &f64, actual: &f64) -> u64 {
            // Exact for a linear absorb.
            self.x += self.b * (actual - speculated);
            100
        }
        fn set_speculation_threshold(&mut self, theta: f64) {
            self.theta = theta;
        }
        fn checkpoint(&self) -> f64 {
            self.x
        }
        fn restore(&mut self, c: &f64) {
            self.x = *c;
        }
    }

    /// Sequential reference for the toy recurrence.
    fn toy_reference(p: usize, iters: u64) -> Vec<f64> {
        let a = 0.6;
        let b = 0.3 / p as f64;
        let mut x: Vec<f64> = (0..p).map(|m| 1.0 + m as f64).collect();
        for _ in 0..iters {
            // Accumulate in exactly the driver's order (begin, then absorb
            // k = 0..p ascending) so results are bit-comparable.
            let next: Vec<f64> = (0..p)
                .map(|j| {
                    let mut pending = a * x[j];
                    for (k, v) in x.iter().enumerate() {
                        if k != j {
                            pending += b * v;
                        }
                    }
                    pending
                })
                .collect();
            x = next;
        }
        x
    }

    /// One rank of a toy run: the app, the driver, and what the tests read
    /// back.
    async fn run_toy_rank(
        mut t: mpk::SimIo<IterMsg<f64>>,
        theta: f64,
        iters: u64,
        config: SpecConfig,
    ) -> (f64, RunStats) {
        let mut app = Toy::new(t.rank().0, t.size(), theta);
        let stats = run_speculative_aio(&mut t, &mut app, iters, config).await;
        (app.x, stats)
    }

    fn run_toy(
        p: usize,
        iters: u64,
        theta: f64,
        config: SpecConfig,
        latency_ms: u64,
    ) -> (Vec<(f64, RunStats)>, SimDuration) {
        run_toy_with_faults_timed(p, iters, theta, config, latency_ms, FaultSpec::none())
    }

    /// Entry point for the property tests below: run the toy app with an
    /// arbitrary configuration.
    pub(crate) fn run_any_config(
        p: usize,
        iters: u64,
        theta: f64,
        config: SpecConfig,
        latency_ms: u64,
    ) -> (Vec<(f64, RunStats)>, SimDuration) {
        run_toy(p, iters, theta, config, latency_ms)
    }

    #[test]
    fn baseline_matches_sequential_reference() {
        let p = 4;
        let iters = 10;
        let (out, _) = run_toy(p, iters, 0.0, SpecConfig::baseline(), 1);
        let reference = toy_reference(p, iters);
        for (j, (x, stats)) in out.iter().enumerate() {
            assert_eq!(*x, reference[j], "rank {j} diverged from reference");
            assert_eq!(stats.iterations, iters);
            assert_eq!(stats.speculated_partitions, 0);
            assert_eq!(stats.rollbacks, 0);
            assert_eq!(stats.messages_sent, (p as u64 - 1) * iters);
        }
    }

    #[test]
    fn forward_window_two_masks_transient_delay() {
        // Scripted: the 3rd message from rank 0 to rank 1 is hugely delayed
        // (the paper's Figure 4 scenario). FW=2 should absorb it better
        // than FW=1. The machines are slow enough that one iteration's
        // compute (~20 ms) is comparable to the transient delay (40 ms) —
        // the regime where a deeper window pays off (Fig. 4c).
        let iters = 12;
        let run = |fw: u32| {
            let cluster = ClusterSpec::homogeneous(3, 0.01);
            let net = ScriptedDelays::new(
                ConstantLatency(SimDuration::from_millis(1)),
                vec![(0, 1, 3, SimDuration::from_millis(40))],
            );
            let cfg = SpecConfig::speculative(fw);
            let (_, report) =
                run_sim_proc_cluster::<IterMsg<f64>, _, _, _>(&cluster, net, Unloaded, |t| {
                    run_toy_rank(t, 0.5, iters, cfg.clone())
                })
                .unwrap();
            report.end_time
        };
        let t1 = run(1);
        let t2 = run(2);
        assert!(
            t2 < t1,
            "FW=2 ({t2}) should beat FW=1 ({t1}) under a transient delay"
        );
    }

    #[test]
    fn tight_threshold_triggers_corrections() {
        // θ tiny but nonzero: speculations get rejected, corrections happen,
        // and the run still completes with near-reference results.
        let p = 4;
        let iters = 10;
        let (out, _) = run_toy(p, iters, 1e-12, SpecConfig::speculative(1), 3);
        let total_misses: u64 = out.iter().map(|(_, s)| s.misspeculated_partitions).sum();
        let total_corrections: u64 = out.iter().map(|(_, s)| s.corrections).sum();
        assert!(total_misses > 0, "tiny θ must reject some speculations");
        assert_eq!(
            total_misses, total_corrections,
            "FW=1 misses must be corrected in place"
        );
        let reference = toy_reference(p, iters);
        for (j, (x, _)) in out.iter().enumerate() {
            assert!((x - reference[j]).abs() < 1e-9);
        }
    }

    #[test]
    fn recompute_mode_rolls_back_instead_of_correcting() {
        let p = 4;
        let iters = 10;
        let cfg = SpecConfig::speculative(1).with_correction(CorrectionMode::Recompute);
        let (out, _) = run_toy(p, iters, 1e-12, cfg, 3);
        let total_rollbacks: u64 = out.iter().map(|(_, s)| s.rollbacks).sum();
        let total_corrections: u64 = out.iter().map(|(_, s)| s.corrections).sum();
        assert!(total_rollbacks > 0);
        assert_eq!(total_corrections, 0);
    }

    #[test]
    fn single_rank_needs_no_messages() {
        let (out, _) = run_toy(1, 7, 0.01, SpecConfig::speculative(2), 1);
        let (x, stats) = &out[0];
        assert_eq!(stats.iterations, 7);
        assert_eq!(stats.messages_sent, 0);
        assert_eq!(stats.speculated_partitions, 0);
        assert_eq!(*x, toy_reference(1, 7)[0]);
    }

    #[test]
    fn zero_iterations_is_a_no_op() {
        let (out, end) = run_toy(3, 0, 0.01, SpecConfig::speculative(1), 1);
        for (x, stats) in &out {
            assert_eq!(stats.iterations, 0);
            assert_eq!(stats.messages_sent, 0);
            assert_eq!(
                *x,
                toy_reference(3, 0)[out.iter().position(|(y, _)| y == x).unwrap()]
            );
        }
        assert_eq!(end, SimDuration::ZERO);
    }

    #[test]
    fn controller_completes_and_matches_the_best_fixed_window_under_latency() {
        // 10 ms of constant latency against microseconds of compute: commits
        // are chained through one latency each, so no window masks it and a
        // deeper one only adds speculation work (fixed FW 1/2/3 end at
        // 0.400005/0.400023/0.400053 s). The controller must finish every
        // iteration and lose to no fixed window.
        let iters = 40;
        let run = |cfg: SpecConfig| {
            let cluster = ClusterSpec::homogeneous(4, 100.0);
            let (out, report) = run_sim_proc_cluster::<IterMsg<f64>, _, _, _>(
                &cluster,
                ConstantLatency(SimDuration::from_millis(10)),
                Unloaded,
                |t| run_toy_rank(t, 0.5, iters, cfg.clone()),
            )
            .unwrap();
            (out, report.end_time)
        };
        let best_fixed = (1..=3)
            .map(|fw| run(SpecConfig::speculative(fw)).1)
            .min()
            .unwrap();
        let ctl = crate::control::ControllerConfig::new().with_fw_max(3);
        let (out, end) = run(SpecConfig::speculative(1).with_adaptive(ctl));
        for (_, stats) in &out {
            assert_eq!(stats.iterations, iters);
            assert!(stats.controller_retunes > 0, "the controller must have run");
        }
        assert!(
            end <= best_fixed,
            "controller ({end}) lost to the best fixed window ({best_fixed})"
        );
    }

    #[test]
    fn iteration_log_records_every_iteration_in_order() {
        let p = 3;
        let iters = 9;
        let cluster = ClusterSpec::homogeneous(p, 100.0);
        let cfg = SpecConfig::speculative(1).with_iteration_log();
        let (out, _) = run_sim_proc_cluster::<IterMsg<f64>, _, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(2)),
            Unloaded,
            |t| run_toy_rank(t, 0.5, iters, cfg.clone()),
        )
        .unwrap();
        for (_, stats) in &out {
            assert_eq!(stats.iteration_log.len() as u64, iters);
            for (i, l) in stats.iteration_log.iter().enumerate() {
                assert_eq!(l.iter, i as u64, "log must be in confirmation order");
                assert!(l.exec_start <= l.exec_end);
                assert!(l.exec_end <= l.confirmed_at);
            }
            // Iteration 0 cannot be speculated (no history); later ones
            // should be under this latency.
            assert_eq!(stats.iteration_log[0].speculated_inputs, 0);
            assert!(stats
                .iteration_log
                .iter()
                .skip(1)
                .any(|l| l.speculated_inputs > 0));
        }
    }

    #[test]
    fn iteration_log_absent_by_default() {
        let (out, _) = run_toy(3, 5, 0.5, SpecConfig::speculative(1), 2);
        for (_, stats) in &out {
            assert!(stats.iteration_log.is_empty());
        }
    }

    // ---- fault tolerance ------------------------------------------------

    use crate::config::{FaultTolerance, SupervisionConfig};
    use mpk::{run_sim_proc_cluster_with_faults, FaultSpec};
    use netsim::{Loss, MachineCrash, MachineSpec};

    fn run_toy_with_faults(
        p: usize,
        iters: u64,
        theta: f64,
        config: SpecConfig,
        latency_ms: u64,
        faults: FaultSpec<IterMsg<f64>>,
    ) -> Vec<(f64, RunStats)> {
        run_toy_with_faults_timed(p, iters, theta, config, latency_ms, faults).0
    }

    fn run_toy_with_faults_timed(
        p: usize,
        iters: u64,
        theta: f64,
        config: SpecConfig,
        latency_ms: u64,
        faults: FaultSpec<IterMsg<f64>>,
    ) -> (Vec<(f64, RunStats)>, SimDuration) {
        let cluster = ClusterSpec::homogeneous(p, 100.0);
        let (out, report) = run_sim_proc_cluster_with_faults::<IterMsg<f64>, _, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(latency_ms)),
            Unloaded,
            faults,
            false,
            |t| run_toy_rank(t, theta, iters, config.clone()),
        )
        .unwrap();
        (out, report.end_time.duration_since(desim::SimTime::ZERO))
    }

    #[test]
    fn total_loss_without_speculation_window_still_terminates() {
        // The hardest liveness case: FW=0 (baseline) plus total loss means
        // no speculation machinery at all — only the starvation breaker
        // can make progress.
        let iters = 4;
        let ft = FaultTolerance::new(SimDuration::from_millis(5));
        let cfg = SpecConfig::baseline().with_fault_tolerance(ft);
        let out = run_toy_with_faults(2, iters, 1e9, cfg, 1, FaultSpec::new(Loss::new(1.0, 3)));
        for (x, stats) in &out {
            assert!(x.is_finite());
            assert_eq!(stats.iterations, iters);
        }
    }

    #[test]
    fn quarantine_bypasses_the_loss_timeout() {
        // A rank dead from t = 0 never rejoins. Without supervision every
        // front pays the full Armed→Grace loss timeout on its slot; with
        // supervision the peer is quarantined after its first promotion
        // and subsequent fronts promote instantly — so the supervised run
        // must finish in a fraction of the unsupervised virtual time.
        let p = 3;
        let iters = 12;
        let crash = MachineCrash::permanent(1, desim::SimTime::ZERO);
        let ft = || FaultTolerance::new(SimDuration::from_millis(10));
        let slow_cfg = SpecConfig::speculative(1).with_fault_tolerance(ft());
        let fast_cfg = SpecConfig::speculative(1)
            .with_fault_tolerance(ft().with_supervision(SupervisionConfig::new(1, 1)));
        let faults = || FaultSpec::none().with_crashes(netsim::CrashPlan::new(vec![crash]));
        let slow = run_toy_with_faults_timed(p, iters, 1e9, slow_cfg, 2, faults());
        let fast = run_toy_with_faults_timed(p, iters, 1e9, fast_cfg, 2, faults());
        for j in [0, 2] {
            let s = &fast.0[j].1;
            assert_eq!(s.iterations, iters, "survivor {j} must finish");
            assert!(
                s.peers_suspected >= 1,
                "survivor {j} never suspected rank 1"
            );
            assert!(
                s.peers_quarantined >= 1,
                "survivor {j} never quarantined rank 1"
            );
            assert!(s.degraded_commits >= 1, "survivor {j} never ran degraded");
            assert!(
                s.degraded_commits <= s.speculate_through_loss_commits,
                "degraded commits must be a subset of loss promotions"
            );
            assert_eq!(s.peer_rejoins, 0, "a dead rank must never rejoin");
        }
        assert_eq!(
            fast.0[1].1.iterations, 0,
            "the dead rank exits at its crash"
        );
        assert!(
            fast.1 * 2 < slow.1,
            "degraded mode must outpace per-front timeouts: {:?} vs {:?}",
            fast.1,
            slow.1
        );
    }

    #[test]
    fn readmission_ships_the_latest_state_at_once() {
        // Rank 1 is slow enough that rank 0 promotes its inputs and
        // quarantines it, yet alive: its next broadcast readmits it. That
        // arrival is no retransmit request, so only the readmission makes
        // rank 0 send its latest state back. Rank 1 is never behind on
        // rank 0's inputs and asks for nothing, so every message rank 0
        // sends beyond its broadcasts is a request or a readmission.
        let iters = 30;
        let cluster = ClusterSpec::new(vec![MachineSpec::new(0.02), MachineSpec::new(0.005)]);
        let cfg = SpecConfig::speculative(1).with_fault_tolerance(
            FaultTolerance::new(SimDuration::from_millis(5))
                .with_supervision(SupervisionConfig::new(1, 1)),
        );
        let (out, _) = run_sim_proc_cluster::<IterMsg<f64>, _, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(2)),
            Unloaded,
            |t| run_toy_rank(t, 1e9, iters, cfg.clone()),
        )
        .unwrap();
        let (fast, slow) = (&out[0].1, &out[1].1);
        assert_eq!(slow.retransmit_requests, 0, "the slow rank fell behind");
        assert!(fast.peer_rejoins >= 1, "the slow rank was never readmitted");
        let extra = fast.retransmit_requests + fast.peer_rejoins;
        assert_eq!(fast.messages_sent, iters + extra);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::run_any_config;
    use crate::config::{CorrectionMode, SpecConfig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For arbitrary small configurations, every rank completes all
        /// iterations, phase times partition total time, message counts
        /// match the protocol, and counters are internally consistent.
        #[test]
        fn driver_invariants_hold(
            p in 1usize..6,
            iters in 0u64..12,
            fw in 0u32..4,
            theta in prop_oneof![Just(0.0), Just(1e-6), Just(0.05), Just(1e9)],
            latency_ms in 0u64..8,
            recompute in any::<bool>(),
        ) {
            let mode = if recompute {
                CorrectionMode::Recompute
            } else {
                CorrectionMode::Incremental
            };
            let cfg = if fw == 0 {
                SpecConfig::baseline().with_correction(mode)
            } else {
                SpecConfig::speculative(fw).with_correction(mode)
            };
            let (out, _) = run_any_config(p, iters, theta, cfg, latency_ms);
            for (x, stats) in &out {
                prop_assert!(x.is_finite());
                prop_assert_eq!(stats.iterations, iters);
                prop_assert_eq!(stats.phases.total(), stats.total_time);
                prop_assert_eq!(stats.messages_sent, (p as u64 - 1) * iters);
                prop_assert!(stats.messages_received <= (p as u64 - 1) * iters);
                prop_assert!(stats.accepted_partitions + stats.misspeculated_partitions
                    == stats.checked_partitions);
                prop_assert!(stats.checked_partitions <= stats.speculated_partitions);
                prop_assert!(stats.bad_units <= stats.checked_units);
                prop_assert!(stats.max_depth_used <= u64::from(fw.max(1)));
                prop_assert!(stats.executions >= stats.iterations);
            }
        }

        /// θ = +∞ accepts everything: no misspeculations, corrections, or
        /// rollbacks, ever.
        #[test]
        fn infinite_theta_never_corrects(
            p in 2usize..5,
            iters in 1u64..10,
            fw in 1u32..4,
            latency_ms in 1u64..6,
        ) {
            let (out, _) =
                run_any_config(p, iters, 1e18, SpecConfig::speculative(fw), latency_ms);
            for (_, stats) in &out {
                prop_assert_eq!(stats.misspeculated_partitions, 0);
                prop_assert_eq!(stats.corrections, 0);
                prop_assert_eq!(stats.rollbacks, 0);
            }
        }
    }
}
