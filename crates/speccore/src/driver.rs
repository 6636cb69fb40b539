//! The synchronous-iterative execution drivers.
//!
//! [`run_baseline`] implements the paper's Figure 1: broadcast the
//! partition, block for every peer's values, compute. [`run_speculative`]
//! implements Figure 3 generalized to any forward window: missing inputs are
//! speculated from history, computation proceeds immediately, and arriving
//! actuals either validate the speculation (error ≤ θ), trigger an
//! incremental correction, or — when deeper speculation consumed the
//! corrupted state — roll execution back to the last confirmed checkpoint.
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
use mpk::{DeltaFrame, Envelope, Rank, Tag, Transport, WireCodec, WireSize, HEADER_BYTES};
use obs::{Gauge, Mark, Phase};

use crate::app::SpeculativeApp;
use crate::config::{CorrectionMode, DeltaExchange, SpecConfig, SupervisionConfig};
use crate::control::ControllerState;
use crate::history::History;
use crate::stats::{IterationLog, RunStats};
use crate::window::{Inbox, Promoted, Slots};

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
    pub body: MsgBody<S>,
}

/// Payload of an [`IterMsg`].
#[derive(Clone, Debug, PartialEq)]
pub enum MsgBody<S> {
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
    pub fn delta(iter: u64, frame: DeltaFrame) -> Self {
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
pub const DATA_TAG: Tag = Tag(1);

/// Tag used for retransmit requests. The request's payload is the
/// *requester's* latest broadcast (so even the request refreshes the
/// receiver's view of the requester); the reply is an ordinary
/// [`DATA_TAG`] re-send of the receiver's latest broadcast, which doubles
/// as the acknowledgement.
pub const RETRANS_REQ_TAG: Tag = Tag(2);

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

/// Loss-detection state for one peer's missing input to the queue-head
/// iteration. Promotion of a speculated value to a committed one is
/// evidence-based: a peer that demonstrably broadcast *past* the front
/// (links deliver in order on calm networks, so the front's message
/// cannot still be in flight) is promoted at its first deadline; a peer
/// that has merely gone quiet is asked to retransmit first, and only a
/// second full timeout of silence — which itself consumed a lost request
/// or reply — promotes. This keeps merely-late broadcasts from being
/// promoted and ties every promotion to at least one genuinely dropped
/// message.
#[derive(Clone, Copy)]
enum PeerWait {
    /// Waiting for the peer's broadcast to arrive on its own.
    Armed {
        /// When this wait (re-)started.
        since: SimTime,
    },
    /// A retransmit request is in flight; waiting for any sign of life.
    Grace {
        /// When the request was sent.
        asked_at: SimTime,
    },
}

/// Flip peer `k`'s speculated input to the front record into a committed
/// one. Counted in the stats only the first time this (peer, iteration)
/// pair promotes — a rollback can make the same slot speculative again,
/// and re-flipping it is not a second loss. Returns whether this promotion
/// was freshly counted.
fn promote_loss<S: Clone, C>(
    k: usize,
    rec: &mut ExecRecord<S, C>,
    history: &mut History<S>,
    stats: &mut RunStats,
    staleness: &mut u32,
    promoted: &mut Promoted,
) -> bool {
    // The front record's iteration is the confirmation point.
    let iter = rec.iter;
    let sv = rec
        .speculated
        .take(k)
        .expect("promotion of a non-speculated slot");
    // Recording the promoted value keeps the backward window anchored (a
    // late actual for the same iteration is ignored by the history's
    // freshness guard, so the promotion is final); on a re-promotion
    // after rollback the same guard makes this a no-op.
    history.record(iter, sv);
    if promoted.insert(k, iter, iter) {
        stats.speculate_through_loss_commits += 1;
        *staleness += 1;
        true
    } else {
        false
    }
}

#[cfg(test)]
thread_local! {
    /// Most promotion-table entries any rank on this thread held at a
    /// commit (stackless sim ranks all run on the caller's thread).
    static PROMOTED_PEAK: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Per-peer health in the supervision lifecycle.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PeerHealth {
    /// Contributing normally.
    Healthy,
    /// Too many consecutive promotions; may be dead.
    Suspected,
    /// Given up on: its partition is carried by speculation alone, with no
    /// loss timeout spent on it, until it is heard from again.
    Quarantined,
}

/// Driver-side supervision: per-peer health derived from the
/// consecutive-promotion staleness counters, plus the degraded-mode
/// population count. Inert (never constructed) unless the config sets both
/// a fault-tolerance policy and a supervision policy.
struct SupervisionState {
    cfg: SupervisionConfig,
    health: Vec<PeerHealth>,
    quarantined: usize,
}

impl SupervisionState {
    fn new(cfg: SupervisionConfig, p: usize) -> Self {
        SupervisionState {
            cfg,
            health: vec![PeerHealth::Healthy; p],
            quarantined: 0,
        }
    }

    fn is_quarantined(&self, k: usize) -> bool {
        self.health[k] == PeerHealth::Quarantined
    }

    /// Re-derive peer `k`'s health from its consecutive-promotion count.
    /// One step per call (the sweep runs every loop pass, so a count past
    /// both thresholds quarantines on the next pass). Returns
    /// (newly suspected, newly quarantined, entered degraded mode).
    fn observe(&mut self, k: usize, staleness: u32) -> (bool, bool, bool) {
        match self.health[k] {
            PeerHealth::Healthy if staleness >= self.cfg.suspect_after => {
                self.health[k] = PeerHealth::Suspected;
                (true, false, false)
            }
            PeerHealth::Suspected if staleness >= self.cfg.quarantine_after => {
                self.health[k] = PeerHealth::Quarantined;
                self.quarantined += 1;
                (false, true, self.quarantined == 1)
            }
            _ => (false, false, false),
        }
    }

    /// The peer spoke. Returns (readmitted from quarantine, left degraded
    /// mode).
    fn on_heard(&mut self, k: usize) -> (bool, bool) {
        let was_quarantined = self.health[k] == PeerHealth::Quarantined;
        self.health[k] = PeerHealth::Healthy;
        if was_quarantined {
            self.quarantined -= 1;
            (true, self.quarantined == 0)
        } else {
            (false, false)
        }
    }
}

/// All per-run delta-exchange state. `policy` is `Some` only when the
/// config asked for deltas *and* the app exposes scalar lanes; otherwise
/// every field stays empty and the driver's behavior (and allocations) are
/// bit-identical to the pre-delta protocol.
struct DeltaState<S> {
    policy: Option<DeltaExchange>,
    /// Per-peer sender shadow: the scalar lanes that peer has
    /// reconstructed from our stream (diff baseline). `None` until the
    /// first full frame to that peer.
    tx_shadow: Vec<Option<Vec<f64>>>,
    /// Per-sender receiver shadow: `(iter, reconstruction)` of the
    /// newest frame applied from that sender.
    rx_shadow: Vec<Option<(u64, S)>>,
    /// Highest iteration stamp seen on *any* frame from each peer —
    /// including delta frames dropped over a gap, which prove the peer
    /// advanced even though no value could be recorded. Feeds the
    /// loss-promotion evidence check alongside the history.
    seen_past: Vec<Option<u64>>,
    /// Scratch: current partition flattened to scalar lanes.
    cur: Vec<f64>,
    /// Scratch: the frame being diffed for the peer in progress.
    frame: DeltaFrame,
}

impl<S> DeltaState<S> {
    fn inert(p: usize) -> Self {
        DeltaState {
            policy: None,
            tx_shadow: (0..p).map(|_| None).collect(),
            rx_shadow: (0..p).map(|_| None).collect(),
            seen_past: vec![None; p],
            cur: Vec::new(),
            frame: DeltaFrame::new(),
        }
    }

    /// Forget everything volatile (crash recovery): shadows on both sides
    /// and the advancement evidence. The next frame to every peer will be
    /// a full keyframe, and peers' next full frames re-seed our receiver
    /// shadows.
    fn reset(&mut self) {
        self.tx_shadow.iter_mut().for_each(|s| *s = None);
        self.rx_shadow.iter_mut().for_each(|s| *s = None);
        self.seen_past.iter_mut().for_each(|s| *s = None);
    }
}

/// Send one message, keeping the modelled byte/message tallies.
async fn send_msg<T, S>(
    transport: &mut T,
    stats: &mut RunStats,
    to: Rank,
    tag: Tag,
    msg: IterMsg<S>,
) where
    S: WireSize,
    T: mpk::AsyncTransport<Msg = IterMsg<S>>,
{
    stats.bytes_sent += (HEADER_BYTES + msg.wire_size()) as u64;
    stats.messages_sent += 1;
    transport.send(to, tag, msg).await;
}

/// Send a full snapshot to one peer (retransmit request/reply, crash
/// recovery), resetting the sender-side shadow so the peer's stream
/// restarts from a known baseline.
#[allow(clippy::too_many_arguments)]
async fn send_full_state<T, A>(
    transport: &mut T,
    stats: &mut RunStats,
    app: &A,
    dx: &mut DeltaState<A::Shared>,
    to: Rank,
    tag: Tag,
    iter: u64,
    data: &A::Shared,
) where
    A: SpeculativeApp,
    A::Shared: WireSize,
    T: mpk::AsyncTransport<Msg = IterMsg<A::Shared>>,
{
    if dx.policy.is_some() {
        let capable = app.delta_extract(data, &mut dx.cur);
        debug_assert!(capable, "delta policy active on a non-capable app");
        let shadow = dx.tx_shadow[to.0].get_or_insert_with(Vec::new);
        shadow.clear();
        shadow.extend_from_slice(&dx.cur);
    }
    send_msg(transport, stats, to, tag, IterMsg::full(iter, data.clone())).await;
}

/// Run the non-speculative baseline (the paper's Figure 1) for
/// `total_iters` iterations.
pub fn run_baseline<T, A>(transport: &mut T, app: &mut A, total_iters: u64) -> RunStats
where
    A: SpeculativeApp,
    A::Shared: WireSize,
    T: Transport<Msg = IterMsg<A::Shared>>,
{
    run_speculative(transport, app, total_iters, SpecConfig::baseline())
}

/// The `async` twin of [`run_baseline`]: the non-speculative Figure 1
/// protocol on any [`mpk::AsyncTransport`].
pub async fn run_baseline_aio<T, A>(transport: &mut T, app: &mut A, total_iters: u64) -> RunStats
where
    A: SpeculativeApp,
    A::Shared: WireSize,
    T: mpk::AsyncTransport<Msg = IterMsg<A::Shared>>,
{
    run_speculative_aio(transport, app, total_iters, SpecConfig::baseline()).await
}

/// Run the speculative driver (the paper's Figure 3, generalized over
/// forward windows) for `total_iters` iterations.
///
/// The body is [`run_speculative_aio`]; on a blocking [`Transport`] the
/// async form completes in one poll ([`mpk::poll_ready`]), so this wrapper
/// is zero-cost.
pub fn run_speculative<T, A>(
    transport: &mut T,
    app: &mut A,
    total_iters: u64,
    config: SpecConfig,
) -> RunStats
where
    A: SpeculativeApp,
    A::Shared: WireSize,
    T: Transport<Msg = IterMsg<A::Shared>>,
{
    mpk::poll_ready(run_speculative_aio(transport, app, total_iters, config))
}

/// The `async` speculative driver: [`run_speculative`]'s actual body,
/// written once against [`mpk::AsyncTransport`].
///
/// On a blocking transport (every [`Transport`], via the blanket impl)
/// the returned future completes on its first poll — which is exactly how
/// the sync entry points drive it, no executor involved. On
/// [`mpk::SimIo`] each `.await` suspends the rank's state machine into
/// the `desim` event kernel, so every rank of a simulated cluster runs the
/// identical driver code on one OS thread.
#[allow(clippy::needless_range_loop)] // rank indices couple several per-rank arrays
pub async fn run_speculative_aio<T, A>(
    transport: &mut T,
    app: &mut A,
    total_iters: u64,
    mut config: SpecConfig,
) -> RunStats
where
    A: SpeculativeApp,
    A::Shared: WireSize,
    T: mpk::AsyncTransport<Msg = IterMsg<A::Shared>>,
{
    config
        .validate()
        .expect("invalid SpecConfig reached the driver");
    let me = transport.rank();
    let p = transport.size();
    let start = transport.now();
    let mut stats = RunStats::new(me);
    // Telemetry identity and gauge change-detection (gauges are sampled
    // only when their value moves, to keep traces compact).
    let obs_rank = me.0 as u32;
    let mut last_inbox_depth: Option<u64> = None;
    let mut last_window: Option<u64> = None;

    // Actual values received, by iteration (from `t_conf` on) and sender.
    let mut inbox: Inbox<A::Shared> = Inbox::new(p, total_iters);
    // Per-peer history of actuals (the backward window).
    let mut history: Vec<History<A::Shared>> = (0..p)
        .map(|_| History::new(config.backward_window.max(1)))
        .collect();
    // Executed-but-unconfirmed iterations, oldest first.
    let mut exec_q: VecDeque<ExecRecord<A::Shared, A::Checkpoint>> = VecDeque::new();
    // Recycled checkpoint buffers: confirmed (or rolled-back) records
    // donate their `pre` snapshots back, so apps that override
    // `checkpoint_into` keep the steady-state path allocation-free. Depth
    // is bounded by the forward window, so the pool never grows past it.
    let mut checkpoint_pool: Vec<A::Checkpoint> = Vec::new();
    // The same for the records' speculated-input tables.
    let mut speculated_pool: Vec<Slots<A::Shared>> = Vec::new();
    // Peers whose actual for the queue-head iteration arrived since Phase 1
    // last ran: the only inputs validation has to look at. Rebuilt from the
    // inbox row when a commit brings a new record to the front.
    let mut fresh: Vec<usize> = Vec::new();
    // Phase 2 scratch: the speculation computed for each missing peer.
    let mut speculations: Vec<Option<(A::Shared, u64, u32)>> = (0..p).map(|_| None).collect();

    // ---- fault-tolerance state (inert when `config.fault` is None) ----
    let ft = config.fault.clone();
    // Peer supervision rides on the loss-promotion counters, so it is
    // inert unless fault tolerance is on too.
    let mut sup: Option<SupervisionState> = match (&ft, config.supervision) {
        (Some(_), Some(s)) => Some(SupervisionState::new(s, p)),
        _ => None,
    };
    // Latest state this rank put on the wire, re-sent on retransmit
    // requests and after crash recovery.
    let mut last_broadcast: (u64, A::Shared) = (0, app.shared());
    // Consecutive speculate-through-loss promotions per peer since its
    // last heard-from message.
    let mut staleness: Vec<u32> = vec![0; p];
    // The queue-head iteration whose missing inputs are being tracked;
    // `peer_wait` below is meaningful only while this matches the front.
    let mut front_tracked: Option<u64> = None;
    // Per-peer loss-detection state for the tracked front iteration.
    let mut peer_wait: Vec<Option<PeerWait>> = vec![None; p];
    // Virtual time each peer last delivered anything (any tag).
    let mut last_heard: Vec<SimTime> = vec![SimTime::ZERO; p];
    // (peer, iteration) pairs whose loss promotion was already counted.
    let mut promoted = Promoted::new(p);
    // When the rank first found itself with nothing in flight and nothing
    // executable (starved — e.g. iteration 0 under loss, before any
    // history exists to extrapolate from).
    let mut starved_since: Option<SimTime> = None;
    // This rank's own scripted outages, in schedule order.
    let my_crashes: Vec<_> = ft
        .as_ref()
        .map(|f| {
            let mut v: Vec<_> = f
                .crashes
                .iter()
                .filter(|c| c.rank == me.0)
                .copied()
                .collect();
            v.sort_by_key(|c| c.at);
            v
        })
        .unwrap_or_default();
    let mut next_crash = 0usize;

    // ---- adaptive-controller state (inert when `config.controller` is
    // None: no estimator runs, no stats fields move, no Marks are
    // emitted, and the window is never touched) ----
    let mut ctl: Option<ControllerState> = config
        .controller
        .clone()
        .map(|cc| ControllerState::new(cc, p, config.window));
    // Busy-time (compute + speculate + check + correct) high-water mark at
    // the previous confirmation, so each confirm feeds the controller only
    // the interval's own busy time.
    let mut busy_at_confirm = SimDuration::ZERO;

    // ---- delta-exchange state (inert unless configured AND the app
    // exposes scalar lanes; inert means bit-identical legacy behavior) ----
    let mut dx: DeltaState<A::Shared> = DeltaState::inert(p);
    if let Some(pol) = config.delta {
        let probe = app.shared();
        if app.delta_extract(&probe, &mut dx.cur) {
            dx.policy = Some(pol);
        }
    }

    let mut t_conf: u64 = 0; // next iteration to confirm
    let mut t_exec: u64 = 0; // next iteration to execute
    let mut waited_since_confirm = SimDuration::ZERO;
    // Per-iteration timing records awaiting confirmation (only when the
    // log is enabled).
    let mut log_pending: HashMap<u64, IterationLog> = HashMap::new();
    // Snapshots for the controller's per-confirmation feedback.
    let mut checked_at_confirm = 0u64;
    let mut missed_at_confirm = 0u64;

    if total_iters == 0 {
        stats.total_time = transport.now() - start;
        return stats;
    }

    broadcast(transport, &mut stats, app, &mut dx, p, me, 0, app.shared()).await;

    // The message Phase 3 blocked for, folded in first at the loop top.
    let mut carried: Option<Envelope<IterMsg<A::Shared>>> = None;

    'main: while t_conf < total_iters {
        // Fold in everything that has arrived.
        while let Some(env) = match carried.take() {
            Some(env) => Some(env),
            None => transport.try_recv().await,
        } {
            if let Some(c) = &mut ctl {
                c.on_receive(env.src.0, transport.now());
            }
            if ft.is_some() {
                let src = env.src;
                staleness[src.0] = 0;
                last_heard[src.0] = transport.now();
                let (rejoined, degraded_exit) = match &mut sup {
                    Some(sv) => sv.on_heard(src.0),
                    None => (false, false),
                };
                if rejoined {
                    // Readmission: forget the receive-side delta view of the
                    // peer (its stream must restart from a keyframe) and
                    // ship it our full state so its backward window re-seeds
                    // at once. The keyframe doubles as the retransmit reply.
                    stats.peer_rejoins += 1;
                    dx.rx_shadow[src.0] = None;
                    dx.seen_past[src.0] = None;
                    let t_now = transport.now();
                    if let Some(r) = transport.recorder() {
                        r.mark(
                            obs_rank,
                            t_now.as_nanos(),
                            Mark::PeerRejoined { peer: src.0 as u32 },
                        );
                        if degraded_exit {
                            r.mark(obs_rank, t_now.as_nanos(), Mark::DegradedExit);
                        }
                    }
                    send_full_state(
                        transport,
                        &mut stats,
                        app,
                        &mut dx,
                        src,
                        DATA_TAG,
                        last_broadcast.0,
                        &last_broadcast.1,
                    )
                    .await;
                } else if env.tag == RETRANS_REQ_TAG {
                    // Re-send our latest broadcast; re-delivery is the ack.
                    send_full_state(
                        transport,
                        &mut stats,
                        app,
                        &mut dx,
                        src,
                        DATA_TAG,
                        last_broadcast.0,
                        &last_broadcast.1,
                    )
                    .await;
                }
            }
            let (src, iter) = (env.src.0, env.msg.iter);
            let arrived = stash(app, &mut dx, env, &mut inbox, &mut history, &mut stats);
            if arrived && iter == t_conf && !exec_q.is_empty() {
                fresh.push(src);
            }
        }

        // ------------------------------------------------------------------
        // Fault tolerance: scripted crashes, then speculate-through-loss
        // promotion of the stuck queue head. Both no-ops without a policy.
        // ------------------------------------------------------------------
        if let Some(f) = &ft {
            if next_crash < my_crashes.len() {
                let c = my_crashes[next_crash];
                let now = transport.now();
                if now >= c.at {
                    next_crash += 1;
                    if c.is_permanent() {
                        // The machine never comes back. The confirmed
                        // prefix stands (it was validated and broadcast);
                        // peers quarantine this rank and finish in degraded
                        // mode, carrying its partition by speculation.
                        if let Some(r) = transport.recorder() {
                            r.mark(
                                obs_rank,
                                c.at.as_nanos(),
                                Mark::PeerCrashed { peer: obs_rank },
                            );
                        }
                        break 'main;
                    }
                    stats.peer_restarts += 1;
                    // Volatile state dies with the machine: roll back to the
                    // last confirmed checkpoint (the confirmed prefix
                    // [0, t_conf) is durable — it was validated and
                    // broadcast before the crash).
                    if let Some(front) = exec_q.front() {
                        app.restore(&front.pre);
                    }
                    t_exec = t_conf;
                    for rec in exec_q.drain(..) {
                        checkpoint_pool.push(rec.pre);
                        speculated_pool.push(rec.speculated);
                    }
                    fresh.clear();
                    inbox.clear();
                    for h in history.iter_mut() {
                        *h = History::new(config.backward_window.max(1));
                    }
                    dx.reset();
                    staleness.iter_mut().for_each(|s| *s = 0);
                    front_tracked = None;
                    peer_wait.iter_mut().for_each(|w| *w = None);
                    starved_since = None;
                    if let Some(r) = transport.recorder() {
                        r.mark(
                            obs_rank,
                            c.at.as_nanos(),
                            Mark::PeerCrashed { peer: obs_rank },
                        );
                        r.gauge(obs_rank, c.at.as_nanos(), Gauge::ExecQueueDepth, 0);
                    }
                    let wake = c.at + c.restart_after;
                    if wake > now {
                        let outage = wake.duration_since(now);
                        transport.sleep(outage).await;
                        stats.downtime += outage;
                    }
                    // Mail delivered while the machine was down is lost.
                    while transport.try_recv().await.is_some() {}
                    let t_up = transport.now();
                    if let Some(r) = transport.recorder() {
                        r.mark(
                            obs_rank,
                            t_up.as_nanos(),
                            Mark::PeerRecovered { peer: obs_rank },
                        );
                    }
                    // Ask every peer for its latest state to rebuild the
                    // backward windows; the requests carry our own state.
                    for k in 0..p {
                        if k != me.0 {
                            send_full_state(
                                transport,
                                &mut stats,
                                app,
                                &mut dx,
                                Rank(k),
                                RETRANS_REQ_TAG,
                                last_broadcast.0,
                                &last_broadcast.1,
                            )
                            .await;
                            stats.retransmit_requests += 1;
                        }
                    }
                    continue 'main;
                }
            }

            let now = transport.now();
            // Re-anchor the per-peer waits whenever the queue head changes
            // (confirmation, rollback, drain): `since` stamps from a
            // previous front must never promote inputs of the new one.
            let front_now = exec_q.front().map(|rec| rec.iter);
            if front_now != front_tracked {
                front_tracked = front_now;
                peer_wait.iter_mut().for_each(|w| *w = None);
            }
            if let Some(front_iter) = front_tracked {
                let mut ask_retransmit: Vec<usize> = Vec::new();
                for k in 0..p {
                    if k == me.0 {
                        continue;
                    }
                    // A peer whose slot is no longer speculative — or whose
                    // actual already sits in the inbox awaiting its check —
                    // needs no loss tracking.
                    if exec_q[0].speculated.get(k).is_none() || inbox.get(front_iter, k).is_some() {
                        peer_wait[k] = None;
                        continue;
                    }
                    // Degraded mode: a quarantined peer gets no loss timeout
                    // at all — its speculated input is promoted the moment
                    // it blocks the front, so the cluster's pace no longer
                    // depends on the dead rank.
                    if sup.as_ref().is_some_and(|sv| sv.is_quarantined(k)) {
                        if promote_loss(
                            k,
                            &mut exec_q[0],
                            &mut history[k],
                            &mut stats,
                            &mut staleness[k],
                            &mut promoted,
                        ) {
                            stats.degraded_commits += 1;
                        }
                        peer_wait[k] = None;
                        continue;
                    }
                    // Evidence of a genuine loss: the peer already broadcast
                    // an iteration past the front, so (links delivering in
                    // order) the front's message is not merely late. A delta
                    // frame dropped over a gap proves advancement just as a
                    // recorded value does — without it, a delta stream whose
                    // frames all miss their baseline would never build
                    // evidence through the history alone.
                    let evidence = history[k].latest_iter().is_some_and(|li| li > front_iter)
                        || dx.seen_past[k].is_some_and(|si| si > front_iter);
                    // Adaptive per-peer deadline: the controller's delay
                    // quantile × headroom, clamped to never exceed the
                    // static timeout. Falls back to the static timeout
                    // while the controller lacks samples (or is off).
                    let loss_deadline = ctl
                        .as_ref()
                        .and_then(|c| c.deadline_for(k))
                        .unwrap_or(f.loss_timeout);
                    match peer_wait[k] {
                        None => peer_wait[k] = Some(PeerWait::Armed { since: now }),
                        Some(PeerWait::Armed { since }) => {
                            if now.duration_since(since) >= loss_deadline {
                                if evidence {
                                    promote_loss(
                                        k,
                                        &mut exec_q[0],
                                        &mut history[k],
                                        &mut stats,
                                        &mut staleness[k],
                                        &mut promoted,
                                    );
                                    peer_wait[k] = None;
                                } else {
                                    // No proof the message was lost rather
                                    // than the peer slow: ask once before
                                    // giving up on it.
                                    ask_retransmit.push(k);
                                    peer_wait[k] = Some(PeerWait::Grace { asked_at: now });
                                }
                            }
                        }
                        Some(PeerWait::Grace { asked_at }) => {
                            if evidence {
                                // The reply (or a late broadcast) proved the
                                // peer is past the front: the front's
                                // message is gone for good.
                                promote_loss(
                                    k,
                                    &mut exec_q[0],
                                    &mut history[k],
                                    &mut stats,
                                    &mut staleness[k],
                                    &mut promoted,
                                );
                                peer_wait[k] = None;
                            } else if last_heard[k] > asked_at {
                                // The peer answered but is behind the front:
                                // merely late, not lost. Wait afresh from
                                // its last sign of life.
                                peer_wait[k] = Some(PeerWait::Armed {
                                    since: last_heard[k],
                                });
                            } else if now.duration_since(asked_at) >= loss_deadline {
                                // Total silence through the grace period:
                                // the request or its reply was lost too.
                                promote_loss(
                                    k,
                                    &mut exec_q[0],
                                    &mut history[k],
                                    &mut stats,
                                    &mut staleness[k],
                                    &mut promoted,
                                );
                                peer_wait[k] = None;
                            }
                        }
                    }
                }
                for k in ask_retransmit {
                    send_full_state(
                        transport,
                        &mut stats,
                        app,
                        &mut dx,
                        Rank(k),
                        RETRANS_REQ_TAG,
                        last_broadcast.0,
                        &last_broadcast.1,
                    )
                    .await;
                    stats.retransmit_requests += 1;
                }
            }

            // Supervision sweep: re-derive per-peer health from the
            // consecutive-promotion counters and mark the transitions. One
            // step per pass, so thresholds crossed together still resolve.
            if let Some(sv) = &mut sup {
                let t_now = transport.now();
                for k in 0..p {
                    if k == me.0 {
                        continue;
                    }
                    let (suspected, quarantined, degraded_enter) = sv.observe(k, staleness[k]);
                    if suspected {
                        stats.peers_suspected += 1;
                        if let Some(r) = transport.recorder() {
                            r.mark(
                                obs_rank,
                                t_now.as_nanos(),
                                Mark::PeerSuspected { peer: k as u32 },
                            );
                        }
                    }
                    if quarantined {
                        stats.peers_quarantined += 1;
                        if let Some(r) = transport.recorder() {
                            r.mark(
                                obs_rank,
                                t_now.as_nanos(),
                                Mark::PeerQuarantined { peer: k as u32 },
                            );
                            if degraded_enter {
                                r.mark(obs_rank, t_now.as_nanos(), Mark::DegradedEnter);
                            }
                        }
                    }
                }
            }
        }

        let inbox_depth = inbox.depth() as u64;
        if last_inbox_depth != Some(inbox_depth) {
            last_inbox_depth = Some(inbox_depth);
            let t_now = transport.now();
            if let Some(r) = transport.recorder() {
                r.gauge(obs_rank, t_now.as_nanos(), Gauge::InboxDepth, inbox_depth);
            }
        }

        // ------------------------------------------------------------------
        // Phase 1: validate and confirm the oldest unconfirmed iteration.
        // ------------------------------------------------------------------
        if !exec_q.is_empty() {
            let front_iter = exec_q[0].iter;
            let mut rollback = false;
            // Only an input whose actual just arrived can have become
            // checkable; in rank order, as a scan of the row would find them.
            fresh.sort_unstable();
            for k in fresh.drain(..) {
                // Every path below leaves the input resolved or drains the
                // record in a rollback, so the speculated value is taken, not
                // cloned. (`None`: loss promotion resolved the input before
                // its late actual arrived.)
                let Some(spec) = exec_q[0].speculated.take(k) else {
                    continue;
                };
                let actual = inbox
                    .get(front_iter, k)
                    .expect("a fresh arrival is in the inbox");
                let t0 = transport.now();
                let outcome = app.check(Rank(k), actual, &spec);
                if let Some(c) = &mut ctl {
                    c.observe_error(outcome.max_error);
                }
                transport.compute(outcome.ops).await;
                let t1 = transport.now();
                stats.phases.check += t1 - t0;
                if let Some(r) = transport.recorder() {
                    r.span_begin(
                        obs_rank,
                        t0.as_nanos(),
                        Phase::Check,
                        Some(front_iter),
                        None,
                    );
                    r.span_end(obs_rank, t1.as_nanos(), Phase::Check);
                }
                stats.checked_partitions += 1;
                stats.checked_units += outcome.checked_units;
                stats.bad_units += outcome.bad_units;

                stats.max_accepted_error = stats.max_accepted_error.max(outcome.max_accepted_error);
                if outcome.accept {
                    stats.accepted_partitions += 1;
                } else {
                    stats.misspeculated_partitions += 1;
                    if let Some(r) = transport.recorder() {
                        r.mark(
                            obs_rank,
                            t1.as_nanos(),
                            Mark::Misspeculation {
                                peer: k as u32,
                                iter: front_iter,
                            },
                        );
                    }
                    if config.correction == CorrectionMode::Incremental {
                        let depth = exec_q.len() as u64 - 1;
                        let t0 = transport.now();
                        let ops = if depth == 0 {
                            // Fix the single in-flight iteration in place:
                            // the paper's `correct(X_j(t+1))`.
                            let ops = app.correct(Rank(k), &spec, actual);
                            exec_q[0].produced = app.shared();
                            Some(ops)
                        } else {
                            // Iterations were already computed on top; let
                            // the app propagate the correction forward if
                            // it can (first-order, bounded residual).
                            app.correct_deep(Rank(k), &spec, actual, depth)
                        };
                        match ops {
                            Some(ops) => {
                                transport.compute(ops).await;
                                let t1 = transport.now();
                                stats.phases.correct += t1 - t0;
                                stats.corrections += 1;
                                if let Some(r) = transport.recorder() {
                                    r.span_begin(
                                        obs_rank,
                                        t0.as_nanos(),
                                        Phase::Correct,
                                        Some(front_iter),
                                        Some(depth),
                                    );
                                    r.span_end(obs_rank, t1.as_nanos(), Phase::Correct);
                                    r.mark(
                                        obs_rank,
                                        t1.as_nanos(),
                                        Mark::Correction {
                                            peer: k as u32,
                                            depth,
                                        },
                                    );
                                }
                                if depth > 0 {
                                    // The live state changed; refresh the
                                    // newest pending broadcast. (Interim
                                    // records keep a bounded θ-order
                                    // residual — the paper's accepted-
                                    // error philosophy.)
                                    let last = exec_q.len() - 1;
                                    exec_q[last].produced = app.shared();
                                }
                            }
                            None => {
                                rollback = true;
                                break;
                            }
                        }
                    } else {
                        // Exact recomputation requested: roll back to the
                        // pre-state of the oldest record and re-execute
                        // with the actuals now in the inbox.
                        rollback = true;
                        break;
                    }
                }
            }

            if rollback {
                app.restore(&exec_q[0].pre);
                t_exec = front_iter;
                for rec in exec_q.drain(..) {
                    checkpoint_pool.push(rec.pre);
                    speculated_pool.push(rec.speculated);
                }
                fresh.clear();
                stats.rollbacks += 1;
                let t_now = transport.now();
                if let Some(r) = transport.recorder() {
                    r.mark(
                        obs_rank,
                        t_now.as_nanos(),
                        Mark::Rollback {
                            to_iter: front_iter,
                        },
                    );
                    r.gauge(obs_rank, t_now.as_nanos(), Gauge::ExecQueueDepth, 0);
                }
                continue 'main;
            }

            if exec_q[0].speculated.held() == 0 {
                let rec = exec_q.pop_front().expect("non-empty queue");
                checkpoint_pool.push(rec.pre);
                speculated_pool.push(rec.speculated);
                t_conf = rec.iter + 1;
                stats.iterations += 1;
                // Feed the resume handshake: a transport with supervision
                // reports this high-water mark to peers that reconnect.
                transport.note_progress(rec.iter);
                let t_now = transport.now();
                let queue_depth = exec_q.len() as u64;
                if let Some(r) = transport.recorder() {
                    r.mark(obs_rank, t_now.as_nanos(), Mark::Commit { iter: rec.iter });
                    r.gauge(
                        obs_rank,
                        t_now.as_nanos(),
                        Gauge::ExecQueueDepth,
                        queue_depth,
                    );
                }
                if config.collect_log {
                    if let Some(mut entry) = log_pending.remove(&rec.iter) {
                        entry.confirmed_at = transport.now();
                        stats.iteration_log.push(entry);
                    }
                }
                if let Some(c) = &mut ctl {
                    let busy_total = stats.phases.compute
                        + stats.phases.speculate
                        + stats.phases.check
                        + stats.phases.correct;
                    c.on_confirm(
                        stats.misspeculated_partitions - missed_at_confirm,
                        stats.checked_partitions - checked_at_confirm,
                        waited_since_confirm,
                        busy_total - busy_at_confirm,
                    );
                    busy_at_confirm = busy_total;
                    if let Some(d) = c.maybe_retune(ft.as_ref().map(|f| f.loss_timeout)) {
                        stats.controller_retunes += 1;
                        stats.controller_fw = u64::from(d.fw);
                        stats.controller_theta = d.theta.unwrap_or(0.0);
                        config.window = d.fw;
                        if let Some(th) = d.theta {
                            app.set_speculation_threshold(th);
                        }
                        if let Some(r) = transport.recorder() {
                            r.mark(
                                obs_rank,
                                t_now.as_nanos(),
                                Mark::ControllerRetune {
                                    fw: d.fw,
                                    theta_ppb: d
                                        .theta
                                        .map(|t| (t * 1e9) as u64)
                                        .unwrap_or(u64::MAX),
                                    deadline_ns: d.tightest_deadline_ns,
                                },
                            );
                        }
                    }
                }
                missed_at_confirm = stats.misspeculated_partitions;
                checked_at_confirm = stats.checked_partitions;
                waited_since_confirm = SimDuration::ZERO;
                if t_conf < total_iters {
                    if ft.is_some() {
                        last_broadcast = (t_conf, rec.produced.clone());
                    }
                    broadcast(
                        transport,
                        &mut stats,
                        app,
                        &mut dx,
                        p,
                        me,
                        t_conf,
                        rec.produced,
                    )
                    .await;
                }
                // Everything below t_conf is fully consumed.
                inbox.advance(t_conf);
                #[cfg(test)]
                PROMOTED_PEAK.with(|peak| peak.set(peak.get().max(promoted.len())));
                // The record now at the front may have actuals waiting from
                // while it sat behind the one just committed.
                if let Some(front) = exec_q.front() {
                    fresh.extend((0..p).filter(|&k| {
                        front.speculated.get(k).is_some() && inbox.get(t_conf, k).is_some()
                    }));
                }
                continue 'main;
            }
        }

        // ------------------------------------------------------------------
        // Phase 2: execute the next iteration if the window allows it.
        // ------------------------------------------------------------------
        let window = config.window;
        if last_window != Some(u64::from(window)) {
            last_window = Some(u64::from(window));
            let t_now = transport.now();
            if let Some(r) = transport.recorder() {
                r.gauge(
                    obs_rank,
                    t_now.as_nanos(),
                    Gauge::WindowSize,
                    u64::from(window),
                );
            }
        }
        let depth = t_exec - t_conf;
        // Starvation breaker: with fault tolerance on, a rank that has had
        // nothing in flight and nothing executable for a full loss timeout
        // executes anyway, skipping inputs it cannot even extrapolate
        // (e.g. iteration 0 under total loss, where no history exists).
        let force_execute = match (&ft, starved_since) {
            (Some(f), Some(s)) if exec_q.is_empty() => {
                transport.now().duration_since(s) >= f.loss_timeout
            }
            _ => false,
        };
        if t_exec < total_iters && depth < u64::from(window.max(1)) {
            let all_arrived = inbox.arrived(t_exec) == p - 1;

            // Pre-compute speculations (read-only on the app) so we can
            // abandon the attempt without side effects if any peer is
            // unpredictable (e.g. empty history at iteration 0).
            let mut speculable = window >= 1;
            if speculable && !all_arrived {
                for k in 0..p {
                    if k == me.0 || inbox.get(t_exec, k).is_some() {
                        continue;
                    }
                    let ahead = history[k]
                        .latest_iter()
                        .map(|li| t_exec.saturating_sub(li).max(1) as u32);
                    speculations[k] = ahead.and_then(|a| {
                        app.speculate(Rank(k), &history[k], a)
                            .map(|(sv, ops)| (sv, ops, a))
                    });
                    if speculations[k].is_none() {
                        speculable = false;
                        if ft.is_none() {
                            break;
                        }
                        // Under fault tolerance, keep collecting what
                        // *can* be speculated: a forced execution uses
                        // every extrapolation it has.
                    }
                }
            }

            if all_arrived || speculable || force_execute {
                stats.executions += 1;
                stats.max_depth_used = stats.max_depth_used.max(depth + 1);
                let exec_start = transport.now();
                let mut pre_slot = checkpoint_pool.pop();
                app.checkpoint_into(&mut pre_slot);
                let pre = pre_slot.expect("checkpoint_into must fill the slot");
                let mut speculated = speculated_pool.pop().unwrap_or(Slots::UNSIZED);
                speculated.reset(p);

                let mut comp_ops = app.begin_iteration();
                let mut spec_ops = 0u64;
                // Peers whose staleness budget ran out during a forced
                // execution (empty unless fault tolerance forced the skip
                // path below, so the fault-free hot path never allocates).
                let mut ask_retransmit: Vec<usize> = Vec::new();
                for k in 0..p {
                    if k == me.0 {
                        continue;
                    }
                    if let Some(actual) = inbox.get(t_exec, k) {
                        comp_ops += app.absorb(Rank(k), actual);
                    } else if let Some((sv, ops, ahead)) = speculations[k].take() {
                        spec_ops += ops;
                        comp_ops += app.absorb(Rank(k), &sv);
                        stats.speculated_partitions += 1;
                        if let Some(r) = transport.recorder() {
                            r.mark(
                                obs_rank,
                                exec_start.as_nanos(),
                                Mark::Speculation {
                                    peer: k as u32,
                                    ahead,
                                },
                            );
                        }
                        speculated.put(k, sv);
                    } else {
                        // Forced execution with no history to extrapolate
                        // from: proceed without this peer's contribution.
                        // Only reachable with fault tolerance on.
                        debug_assert!(force_execute);
                        if promoted.insert(k, t_exec, t_conf) {
                            stats.speculate_through_loss_commits += 1;
                            staleness[k] += 1;
                        }
                        if let Some(f) = &ft {
                            if staleness[k] >= f.staleness_budget
                                && staleness[k].is_multiple_of(f.staleness_budget)
                            {
                                ask_retransmit.push(k);
                            }
                        }
                    }
                }
                comp_ops += app.finish_iteration();
                for k in ask_retransmit {
                    send_full_state(
                        transport,
                        &mut stats,
                        app,
                        &mut dx,
                        Rank(k),
                        RETRANS_REQ_TAG,
                        last_broadcast.0,
                        &last_broadcast.1,
                    )
                    .await;
                    stats.retransmit_requests += 1;
                }

                if spec_ops > 0 {
                    let t0 = transport.now();
                    transport.compute(spec_ops).await;
                    let t1 = transport.now();
                    stats.phases.speculate += t1 - t0;
                    if let Some(r) = transport.recorder() {
                        r.span_begin(
                            obs_rank,
                            t0.as_nanos(),
                            Phase::Speculate,
                            Some(t_exec),
                            Some(depth),
                        );
                        r.span_end(obs_rank, t1.as_nanos(), Phase::Speculate);
                    }
                }
                let t0 = transport.now();
                transport.compute(comp_ops).await;
                let t1 = transport.now();
                stats.phases.compute += t1 - t0;
                if let Some(r) = transport.recorder() {
                    r.span_begin(
                        obs_rank,
                        t0.as_nanos(),
                        Phase::Compute,
                        Some(t_exec),
                        Some(depth),
                    );
                    r.span_end(obs_rank, t1.as_nanos(), Phase::Compute);
                }

                if config.collect_log {
                    let rerun = log_pending.contains_key(&t_exec);
                    let entry = log_pending.entry(t_exec).or_insert(IterationLog {
                        iter: t_exec,
                        exec_start,
                        exec_end: exec_start,
                        confirmed_at: exec_start,
                        speculated_inputs: 0,
                        re_executions: 0,
                    });
                    if rerun {
                        entry.re_executions += 1;
                    }
                    entry.exec_start = exec_start;
                    entry.exec_end = transport.now();
                    entry.speculated_inputs = speculated.held() as u32;
                }

                exec_q.push_back(ExecRecord {
                    iter: t_exec,
                    pre,
                    produced: app.shared(),
                    speculated,
                });
                let queue_depth = exec_q.len() as u64;
                let t_now = transport.now();
                if let Some(r) = transport.recorder() {
                    r.gauge(
                        obs_rank,
                        t_now.as_nanos(),
                        Gauge::ExecQueueDepth,
                        queue_depth,
                    );
                }
                t_exec += 1;
                starved_since = None;
                continue 'main;
            }
            // Abandoned: drop whatever was speculated for the attempt.
            speculations.iter_mut().for_each(|s| *s = None);
        }

        // ------------------------------------------------------------------
        // Phase 3: nothing to compute — block for the next message. With
        // fault tolerance on, the wait is bounded by whichever comes first:
        // a missing peer's loss deadline (armed or in grace), the
        // starvation timeout, or this rank's next scripted crash. The
        // transport wakes exactly at the arrival or the deadline, so
        // θ-acceptance decisions do not depend on any poll interval.
        // ------------------------------------------------------------------
        let t0 = transport.now();
        let env = if let Some(f) = &ft {
            if exec_q.is_empty() && starved_since.is_none() {
                starved_since = Some(t0);
            }
            let mut deadline: Option<SimTime> = None;
            let mut consider = |d: SimTime| {
                deadline = Some(match deadline {
                    Some(cur) if cur <= d => cur,
                    _ => d,
                });
            };
            for (k, w) in peer_wait.iter().enumerate() {
                let Some(w) = w else { continue };
                // Mirror the promotion check's deadline exactly, or the
                // wakeup would fire early/late relative to the promotion.
                let loss_deadline = ctl
                    .as_ref()
                    .and_then(|c| c.deadline_for(k))
                    .unwrap_or(f.loss_timeout);
                match w {
                    PeerWait::Armed { since } => consider(*since + loss_deadline),
                    PeerWait::Grace { asked_at } => consider(*asked_at + loss_deadline),
                }
            }
            if let Some(s) = starved_since {
                consider(s + f.loss_timeout);
            }
            if let Some(c) = my_crashes.get(next_crash) {
                consider(c.at);
            }
            match deadline {
                Some(d) if d > t0 => transport.recv_timeout(d.duration_since(t0)).await,
                // A deadline is already due: act on it at the loop top.
                Some(_) => None,
                // Unreachable with fault tolerance on (one of the waits
                // above is always armed), kept for safety.
                None => Some(transport.recv().await),
            }
        } else {
            Some(transport.recv().await)
        };
        let t1 = transport.now();
        let waited = t1 - t0;
        stats.phases.comm_wait += waited;
        waited_since_confirm += waited;
        if waited > SimDuration::ZERO || ft.is_none() {
            if let Some(r) = transport.recorder() {
                r.span_begin(obs_rank, t0.as_nanos(), Phase::CommWait, Some(t_conf), None);
                r.span_end(obs_rank, t1.as_nanos(), Phase::CommWait);
            }
        }
        carried = env;
    }

    stats.messages_lost = transport.fault_counters().dropped;
    stats.total_time = transport.now() - start;
    stats
}

/// Broadcast this iteration's partition to every peer. Without a delta
/// policy every peer gets the full snapshot, exactly as before. With one,
/// each peer gets either a keyframe (on the keyframe cadence, or when its
/// shadow is missing) or the sparse diff against its sender shadow; the
/// shadow is then advanced by *what was sent* — not by the true state —
/// so quantization error never compounds across iterations.
#[allow(clippy::too_many_arguments)] // the driver's send path in one place
async fn broadcast<T, A>(
    transport: &mut T,
    stats: &mut RunStats,
    app: &A,
    dx: &mut DeltaState<A::Shared>,
    p: usize,
    me: Rank,
    iter: u64,
    data: A::Shared,
) where
    A: SpeculativeApp,
    A::Shared: WireSize,
    T: mpk::AsyncTransport<Msg = IterMsg<A::Shared>>,
{
    let Some(pol) = dx.policy else {
        for k in 0..p {
            if k != me.0 {
                send_msg(
                    transport,
                    stats,
                    Rank(k),
                    DATA_TAG,
                    IterMsg::full(iter, data.clone()),
                )
                .await;
            }
        }
        return;
    };
    let capable = app.delta_extract(&data, &mut dx.cur);
    debug_assert!(capable, "delta policy active on a non-capable app");
    let full_bytes = (HEADER_BYTES + 8 + data.wire_size()) as u64;
    let keyframe_due = iter.is_multiple_of(pol.keyframe_interval);
    let obs_rank = me.0 as u32;
    for k in 0..p {
        if k == me.0 {
            continue;
        }
        match &mut dx.tx_shadow[k] {
            Some(shadow) if !keyframe_due => {
                dx.frame.diff_into(&dx.cur, shadow, pol.floor);
                dx.frame.apply(shadow);
                let msg = IterMsg::delta(iter, dx.frame.clone());
                let suppressed = full_bytes.saturating_sub((HEADER_BYTES + msg.wire_size()) as u64);
                stats.delta_suppressed_bytes += suppressed;
                let t_now = transport.now().as_nanos();
                if let Some(r) = transport.recorder() {
                    r.mark(
                        obs_rank,
                        t_now,
                        Mark::DeltaSuppressed {
                            to: k as u32,
                            bytes: suppressed,
                        },
                    );
                }
                send_msg(transport, stats, Rank(k), DATA_TAG, msg).await;
            }
            shadow => {
                let shadow = shadow.get_or_insert_with(Vec::new);
                shadow.clear();
                shadow.extend_from_slice(&dx.cur);
                send_msg(
                    transport,
                    stats,
                    Rank(k),
                    DATA_TAG,
                    IterMsg::full(iter, data.clone()),
                )
                .await;
            }
        }
    }
}

/// Fold one received frame into the inbox and history. Full frames behave
/// exactly as the pre-delta protocol did (and additionally re-seed the
/// receiver shadow); a delta frame reconstructs the sender's snapshot by
/// patching the shadow, but only when it extends it by exactly one
/// iteration — duplicates and gap frames are dropped without touching the
/// history or inbox, so they can never fabricate promotion evidence or
/// corrupt a reconstruction. Gaps heal when the next keyframe, retransmit
/// reply, or recovery request (all full frames) re-seeds the shadow.
/// Returns whether the frame filled an empty inbox slot (not a duplicate,
/// not for a consumed iteration).
fn stash<A: SpeculativeApp>(
    app: &A,
    dx: &mut DeltaState<A::Shared>,
    env: Envelope<IterMsg<A::Shared>>,
    inbox: &mut Inbox<A::Shared>,
    history: &mut [History<A::Shared>],
    stats: &mut RunStats,
) -> bool
where
    A::Shared: WireSize,
{
    stats.messages_received += 1;
    stats.bytes_received += (HEADER_BYTES + env.msg.wire_size()) as u64;
    let src = env.src.0;
    let IterMsg { iter, body } = env.msg;
    // No honest rank stamps an iteration the run never executes. Left in,
    // one such frame would be the peer's newest history entry and standing
    // loss evidence (`seen_past`) for the rest of the run.
    if iter >= inbox.limit() {
        return false;
    }
    match &mut dx.seen_past[src] {
        Some(sp) => *sp = (*sp).max(iter),
        sp => *sp = Some(iter),
    }
    let data = match body {
        MsgBody::Full(data) => {
            if dx.policy.is_some() {
                // Never regress the shadow: a stale (reordered or
                // duplicated) full frame must not break the chain the
                // newer deltas continue from.
                match &dx.rx_shadow[src] {
                    Some((si, _)) if *si > iter => {}
                    _ => dx.rx_shadow[src] = Some((iter, data.clone())),
                }
            }
            data
        }
        MsgBody::Delta(frame) => {
            // A frame the app cannot patch (a lane out of range, or deltas
            // sent to a non-delta-capable app) is dropped like a gap: the
            // shadow stays as it was.
            let patched = match &dx.rx_shadow[src] {
                Some((si, base)) if si + 1 == iter => app.delta_patch(base, &frame.entries),
                _ => None,
            };
            let Some(next) = patched else {
                stats.delta_frames_dropped += 1;
                return false;
            };
            dx.rx_shadow[src] = Some((iter, next.clone()));
            next
        }
    };
    history[src].record(iter, data.clone());
    inbox.insert(iter, src, data)
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::CheckOutcome;
    use desim::SimDuration;
    use mpk::{run_sim_proc_cluster, AsyncTransport};
    use netsim::{ClusterSpec, ConstantLatency, ScriptedDelays, Unloaded};

    /// A linear toy app: each rank owns one scalar; every iteration
    /// `x_j ← a·x_j + b·Σ_{k≠j} x_k`. Linearity makes incremental
    /// correction exact, and smooth trajectories make linear extrapolation
    /// a good speculator.
    #[derive(Clone)]
    struct Toy {
        #[allow(dead_code)] // identifies the rank in debug dumps
        me: usize,
        x: f64,
        pending: f64,
        theta: f64,
        a: f64,
        b: f64,
    }

    impl Toy {
        fn new(me: usize, p: usize, theta: f64) -> Self {
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
        fn delta_extract(&self, shared: &f64, out: &mut Vec<f64>) -> bool {
            out.clear();
            out.push(*shared);
            true
        }
        fn delta_patch(&self, base: &f64, entries: &[(u32, f64)]) -> Option<f64> {
            let mut v = *base;
            for &(lane, value) in entries {
                if lane != 0 {
                    return None; // the toy app has a single lane
                }
                v = value;
            }
            Some(v)
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
    pub fn run_any_config(
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
    fn theta_zero_recompute_is_bit_exact_with_baseline() {
        let p = 5;
        let iters = 12;
        let cfg = SpecConfig::speculative(1).with_correction(CorrectionMode::Recompute);
        let (out, _) = run_toy(p, iters, 0.0, cfg, 3);
        let reference = toy_reference(p, iters);
        for (j, (x, stats)) in out.iter().enumerate() {
            assert_eq!(*x, reference[j], "rank {j}: θ=0 + recompute must be exact");
            assert_eq!(stats.iterations, iters);
        }
    }

    #[test]
    fn theta_zero_fw2_recompute_is_bit_exact_with_baseline() {
        let p = 3;
        let iters = 15;
        let cfg = SpecConfig::speculative(2).with_correction(CorrectionMode::Recompute);
        let (out, _) = run_toy(p, iters, 0.0, cfg, 5);
        let reference = toy_reference(p, iters);
        for (j, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, reference[j], "rank {j}: FW=2 θ=0 must be exact");
        }
    }

    #[test]
    fn incremental_correction_with_theta_zero_is_close_to_reference() {
        // Incremental correction is algebraically exact for the linear toy
        // but floating-point non-associative; expect tiny drift only.
        let p = 4;
        let iters = 10;
        let cfg = SpecConfig::speculative(1); // Incremental
        let (out, _) = run_toy(p, iters, 0.0, cfg, 3);
        let reference = toy_reference(p, iters);
        for (j, (x, _)) in out.iter().enumerate() {
            assert!((x - reference[j]).abs() < 1e-9, "rank {j} drifted: {x}");
        }
    }

    #[test]
    fn loose_threshold_accepts_speculations() {
        let (out, _) = run_toy(4, 10, 1e9, SpecConfig::speculative(1), 3);
        for (_, stats) in &out {
            assert!(stats.speculated_partitions > 0, "must have speculated");
            assert_eq!(stats.misspeculated_partitions, 0);
            assert_eq!(stats.corrections, 0);
            assert_eq!(stats.rollbacks, 0);
            assert_eq!(stats.checked_partitions, stats.accepted_partitions);
        }
    }

    #[test]
    fn speculation_masks_latency() {
        // With latency comparable to compute time, FW=1 must beat FW=0.
        let iters = 20;
        let (_, t_base) = run_toy(4, iters, 0.05, SpecConfig::baseline(), 2);
        let (out, t_spec) = run_toy(4, iters, 0.05, SpecConfig::speculative(1), 2);
        assert!(
            t_spec < t_base,
            "speculation should mask latency: spec {t_spec} vs base {t_base}"
        );
        assert!(out.iter().any(|(_, s)| s.speculated_partitions > 0));
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
            let (_, report) = run_sim_proc_cluster::<IterMsg<f64>, _, _, _>(
                &cluster,
                net,
                Unloaded,
                false,
                |t| run_toy_rank(t, 0.5, iters, cfg.clone()),
            )
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
                false,
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
    fn controller_retunes_and_theta_zero_grid_stays_exact() {
        // A θ grid pinned to {0.0} with recompute correction is exact for
        // ANY forward-window schedule, so the controller may retune freely
        // without perturbing the result. Asserts the integration actually
        // fires (decisions recorded in stats) and stays bit-exact.
        use crate::control::ControllerConfig;
        let p = 4;
        let iters = 24;
        let cfg = SpecConfig::speculative(1)
            .with_correction(CorrectionMode::Recompute)
            .with_adaptive(
                ControllerConfig::new()
                    .with_theta_grid(vec![0.0])
                    .with_cadence(2, 2)
                    .with_fw_max(3),
            );
        let (out, _) = run_toy(p, iters, 0.0, cfg, 3);
        let reference = toy_reference(p, iters);
        for (j, (x, stats)) in out.iter().enumerate() {
            assert_eq!(*x, reference[j], "rank {j}: θ=0 grid must stay exact");
            assert_eq!(stats.iterations, iters);
            assert!(
                stats.controller_retunes > 0,
                "controller must have evaluated retunes"
            );
            assert_eq!(stats.controller_theta, 0.0);
            assert!(stats.controller_fw >= 1 && stats.controller_fw <= 3);
        }
    }

    #[test]
    fn controller_off_leaves_new_stats_fields_zero() {
        let (out, _) = run_toy(3, 8, 0.05, SpecConfig::speculative(1), 2);
        for (_, stats) in &out {
            assert_eq!(stats.controller_retunes, 0);
            assert_eq!(stats.controller_fw, 0);
            assert_eq!(stats.controller_theta, 0.0);
        }
    }

    #[test]
    fn phase_times_account_for_total() {
        // compute + wait + speculate + check + correct should equal the
        // rank's total time (the driver does no unaccounted virtual work).
        let (out, _) = run_toy(4, 10, 0.05, SpecConfig::speculative(1), 2);
        for (_, stats) in &out {
            let sum = stats.phases.total();
            assert_eq!(sum, stats.total_time, "phases must partition total time");
        }
    }

    #[test]
    fn stats_message_counts() {
        let p = 5;
        let iters = 8;
        let (out, _) = run_toy(p, iters, 0.05, SpecConfig::speculative(1), 2);
        for (_, stats) in &out {
            assert_eq!(stats.messages_sent, (p as u64 - 1) * iters);
            assert!(stats.messages_received <= (p as u64 - 1) * iters);
        }
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
            false,
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

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let (out, end) = run_toy(4, 15, 0.01, SpecConfig::speculative(2), 3);
            let xs: Vec<f64> = out.iter().map(|(x, _)| *x).collect();
            let specs: Vec<u64> = out.iter().map(|(_, s)| s.speculated_partitions).collect();
            (xs, specs, end)
        };
        assert_eq!(run(), run());
    }

    // ---- fault tolerance ------------------------------------------------

    use crate::config::FaultTolerance;
    use mpk::{run_sim_proc_cluster_with_faults, FaultSpec};
    use netsim::{Loss, MachineCrash};

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
    fn promotion_table_stays_within_the_live_window_over_a_long_lossy_run() {
        // Every loss promotion used to leave a (peer, iteration) entry
        // behind for the rest of the run. Thousands of promotions later the
        // table must still hold no more than the window's worth per peer.
        let (p, fw, iters) = (4usize, 2u32, 5_000u64);
        let ft = FaultTolerance::new(SimDuration::from_millis(5));
        let cfg = SpecConfig::speculative(fw).with_fault_tolerance(ft);
        PROMOTED_PEAK.with(|peak| peak.set(0));
        let out = run_toy_with_faults(p, iters, 1e9, cfg, 1, FaultSpec::new(Loss::new(0.05, 7)));
        let promotions: u64 = out
            .iter()
            .map(|(_, s)| s.speculate_through_loss_commits)
            .sum();
        let peak = PROMOTED_PEAK.with(|peak| peak.get());
        assert!(out.iter().all(|(_, s)| s.iterations == iters));
        assert!(
            promotions > 100 * (p as u64) * u64::from(fw + 1),
            "the run must promote far more often than the bound ({promotions})"
        );
        assert!(peak > 0, "no commit sampled the table");
        assert!(
            peak <= p * (fw as usize + 1),
            "promotion table grew to {peak} entries"
        );
    }

    #[test]
    fn total_loss_with_fault_tolerance_still_terminates() {
        // Loss(1.0): no message ever crosses the network. The staleness
        // machinery must still drive every rank through all iterations.
        let iters = 6;
        let ft = FaultTolerance::new(SimDuration::from_millis(5)).with_staleness_budget(2);
        let cfg = SpecConfig::speculative(1).with_fault_tolerance(ft);
        let out = run_toy_with_faults(3, iters, 1e9, cfg, 1, FaultSpec::new(Loss::new(1.0, 11)));
        for (x, stats) in &out {
            assert!(x.is_finite());
            assert_eq!(stats.iterations, iters, "rank must not deadlock");
            assert!(stats.messages_lost > 0, "every send should be dropped");
            assert!(
                stats.speculate_through_loss_commits > 0,
                "progress must come from promoted speculations"
            );
            assert!(
                stats.retransmit_requests > 0,
                "staleness budget should trigger retransmit requests"
            );
        }
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
    fn moderate_loss_stays_close_to_fault_free_run() {
        // With a checked θ, every *delivered* speculation is validated or
        // corrected, so both runs track the true trajectory; only promoted
        // (lost) inputs carry unchecked extrapolation error. The drift must
        // stay a small multiple of what θ already tolerates per input.
        let p = 4;
        let iters = 30;
        let theta = 0.01;
        let ft = FaultTolerance::new(SimDuration::from_millis(10));
        let cfg = SpecConfig::speculative(2).with_fault_tolerance(ft);
        let golden = run_toy(p, iters, theta, SpecConfig::speculative(2), 2).0;
        let lossy =
            run_toy_with_faults(p, iters, theta, cfg, 2, FaultSpec::new(Loss::new(0.05, 42)));
        let mut promoted = 0;
        for (j, (x, stats)) in lossy.iter().enumerate() {
            assert_eq!(stats.iterations, iters);
            promoted += stats.speculate_through_loss_commits;
            let rel = (x - golden[j].0).abs() / golden[j].0.abs().max(1e-12);
            assert!(
                rel < 0.15,
                "rank {j}: 5% loss drifted {rel:.2e} from fault-free"
            );
        }
        assert!(promoted > 0, "5% loss must force some promotions");
    }

    #[test]
    fn scripted_crash_recovers_from_checkpoint_and_completes() {
        let p = 3;
        let iters = 20;
        let crash = MachineCrash {
            rank: 1,
            at: desim::SimTime::from_nanos(40_000_000),
            restart_after: SimDuration::from_millis(15),
        };
        let ft = FaultTolerance::new(SimDuration::from_millis(8)).with_crashes(vec![crash]);
        let cfg = SpecConfig::speculative(1).with_fault_tolerance(ft);
        let out = run_toy_with_faults(p, iters, 1e9, cfg, 2, FaultSpec::none());
        for (j, (x, stats)) in out.iter().enumerate() {
            assert!(x.is_finite());
            assert_eq!(stats.iterations, iters, "rank {j} must finish");
        }
        let crashed = &out[1].1;
        assert_eq!(crashed.peer_restarts, 1);
        assert!(crashed.downtime >= SimDuration::from_millis(10));
        assert_eq!(
            crashed.phases.total() + crashed.downtime,
            crashed.total_time,
            "downtime must account for the outage exactly"
        );
        assert_eq!(out[0].1.peer_restarts, 0);
        assert!(
            crashed.retransmit_requests >= (p as u64 - 1),
            "restart must ask every peer for its state"
        );
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
        let ft = || FaultTolerance::new(SimDuration::from_millis(10)).with_crashes(vec![crash]);
        let slow_cfg = SpecConfig::speculative(1).with_fault_tolerance(ft());
        let fast_cfg = slow_cfg
            .clone()
            .with_supervision(SupervisionConfig::new(1, 1));
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
    fn heard_again_after_quarantine_counts_a_rejoin() {
        // Down long enough (50 ms ≫ 2 × 8 ms timeout at thresholds (1,1))
        // that survivors quarantine the rank before its restart; its
        // retransmit requests then readmit it on both survivors.
        let p = 3;
        let iters = 30;
        let crash = MachineCrash {
            rank: 1,
            at: desim::SimTime::ZERO,
            restart_after: SimDuration::from_millis(50),
        };
        let ft = FaultTolerance::new(SimDuration::from_millis(8)).with_crashes(vec![crash]);
        let cfg = SpecConfig::speculative(1)
            .with_fault_tolerance(ft)
            .with_supervision(SupervisionConfig::new(1, 1));
        let out = run_toy_with_faults(
            p,
            iters,
            1e9,
            cfg,
            2,
            FaultSpec::none().with_crashes(netsim::CrashPlan::new(vec![crash])),
        );
        for (j, (x, stats)) in out.iter().enumerate() {
            assert!(x.is_finite());
            assert_eq!(stats.iterations, iters, "rank {j} must finish");
        }
        assert_eq!(out[1].1.peer_restarts, 1);
        for j in [0, 2] {
            let s = &out[j].1;
            assert!(
                s.peers_quarantined >= 1,
                "survivor {j} never quarantined rank 1"
            );
            assert!(s.peer_rejoins >= 1, "survivor {j} never readmitted rank 1");
        }
    }

    #[test]
    fn supervision_without_fault_tolerance_is_inert() {
        // Supervision rides on the loss-promotion staleness counters; with
        // no fault-tolerance policy there is nothing to drive it, and the
        // run must be bit-identical to the plain config.
        let p = 3;
        let iters = 10;
        let plain = run_toy(p, iters, 0.05, SpecConfig::speculative(1), 2).0;
        let sup_cfg = SpecConfig::speculative(1).with_supervision(SupervisionConfig::default());
        let sup = run_toy(p, iters, 0.05, sup_cfg, 2).0;
        for (j, (x, stats)) in sup.iter().enumerate() {
            assert_eq!(*x, plain[j].0, "rank {j} values must match exactly");
            assert_eq!(stats.peers_suspected, 0);
            assert_eq!(stats.peers_quarantined, 0);
            assert_eq!(stats.degraded_commits, 0);
        }
    }

    #[test]
    fn fault_tolerant_config_on_reliable_net_matches_fault_free_values() {
        // Same network, same app; the only difference is the bounded waits.
        // Those waits are event-driven (the transport wakes exactly at the
        // arrival or the deadline), so not just the committed values and
        // message counts but the per-rank timings must match exactly, and
        // nothing may be promoted.
        let p = 4;
        let iters = 12;
        let plain = run_toy(p, iters, 0.05, SpecConfig::speculative(1), 2).0;
        let ft = FaultTolerance::new(SimDuration::from_millis(50));
        let cfg = SpecConfig::speculative(1).with_fault_tolerance(ft);
        let tolerant = run_toy_with_faults(p, iters, 0.05, cfg, 2, FaultSpec::none());
        for (j, (x, stats)) in tolerant.iter().enumerate() {
            assert_eq!(*x, plain[j].0, "rank {j} values must match exactly");
            assert_eq!(
                stats.total_time, plain[j].1.total_time,
                "rank {j} timing must match exactly"
            );
            assert_eq!(stats.iterations, iters);
            assert_eq!(stats.speculate_through_loss_commits, 0);
            assert_eq!(stats.peer_restarts, 0);
            assert_eq!(stats.messages_lost, 0);
        }
    }

    #[test]
    fn fault_runs_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let ft = FaultTolerance::new(SimDuration::from_millis(6));
            let cfg = SpecConfig::speculative(2).with_fault_tolerance(ft);
            let out = run_toy_with_faults(3, 15, 1e9, cfg, 2, FaultSpec::new(Loss::new(0.2, seed)));
            out.iter()
                .map(|(x, s)| {
                    (
                        x.to_bits(),
                        s.messages_lost,
                        s.speculate_through_loss_commits,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9), "same seed must reproduce bit-exactly");
        assert_ne!(run(9), run(10), "different seeds should differ");
    }

    #[test]
    fn lossless_delta_is_bit_identical_to_full_broadcast() {
        let p = 4;
        let iters = 16;
        let theta = 0.05;
        let full_cfg = SpecConfig::speculative(2);
        let delta_cfg = full_cfg
            .clone()
            .with_delta_exchange(DeltaExchange::lossless());
        let (full, t_full) = run_toy(p, iters, theta, full_cfg, 3);
        let (delta, t_delta) = run_toy(p, iters, theta, delta_cfg, 3);
        assert_eq!(t_full, t_delta, "floor=0 must not change the schedule");
        for (j, ((xf, sf), (xd, sd))) in full.iter().zip(&delta).enumerate() {
            assert_eq!(
                xf.to_bits(),
                xd.to_bits(),
                "rank {j}: floor=0 delta must be bit-identical"
            );
            assert_eq!(sf.messages_sent, sd.messages_sent);
            assert_eq!(sd.delta_frames_dropped, 0, "reliable net drops nothing");
            assert_eq!(sf.total_time, sd.total_time);
        }
    }

    #[test]
    fn delta_mode_preserves_send_count_and_meters_bytes() {
        let p = 4;
        let iters = 12;
        let cfg = SpecConfig::speculative(1).with_delta_exchange(DeltaExchange::new(1e-3, 4));
        let (out, _) = run_toy(p, iters, 1e9, cfg, 2);
        for (_, stats) in &out {
            assert_eq!(stats.messages_sent, (p as u64 - 1) * iters);
            assert!(stats.bytes_sent > 0, "sends must be metered");
            assert!(stats.bytes_received > 0, "receives must be metered");
            assert_eq!(stats.iterations, iters);
        }
    }

    #[test]
    fn keyframe_every_iteration_degenerates_to_full_broadcast() {
        let p = 3;
        let iters = 10;
        let full_cfg = SpecConfig::speculative(1);
        let kf_cfg = full_cfg
            .clone()
            .with_delta_exchange(DeltaExchange::new(0.5, 1));
        let (full, _) = run_toy(p, iters, 0.05, full_cfg, 2);
        let (kf, _) = run_toy(p, iters, 0.05, kf_cfg, 2);
        for (j, ((xf, sf), (xk, sk))) in full.iter().zip(&kf).enumerate() {
            assert_eq!(xf.to_bits(), xk.to_bits(), "rank {j}: K=1 is full frames");
            assert_eq!(sf.bytes_sent, sk.bytes_sent, "rank {j}: same wire bytes");
            assert_eq!(sk.delta_suppressed_bytes, 0);
        }
    }

    #[test]
    fn quantized_delta_error_stays_bounded() {
        // The toy map is a contraction (|a| + (p-1)|b| < 1), so a per-value
        // quantization error of `floor` perturbs the fixed point by
        // O(floor / (1 - ρ)) — far below this generous bound.
        let p = 4;
        let iters = 30;
        let floor = 1e-3;
        let cfg = SpecConfig::speculative(1).with_delta_exchange(DeltaExchange::new(floor, 8));
        let (out, _) = run_toy(p, iters, 1e9, cfg, 2);
        let reference = toy_reference(p, iters);
        for (j, (x, stats)) in out.iter().enumerate() {
            assert!(
                (x - reference[j]).abs() < 0.05,
                "rank {j} drifted past the quantization bound: {x} vs {}",
                reference[j]
            );
            assert_eq!(stats.iterations, iters);
        }
    }

    /// Rank 0's receive-side state facing peer 1, for driving `stash`
    /// directly.
    struct StashRig {
        app: Toy,
        dx: DeltaState<f64>,
        inbox: Inbox<f64>,
        history: Vec<History<f64>>,
        stats: RunStats,
    }

    impl StashRig {
        fn new() -> Self {
            let mut dx = DeltaState::inert(2);
            dx.policy = Some(DeltaExchange::lossless());
            StashRig {
                app: Toy::new(0, 2, 0.0),
                dx,
                inbox: Inbox::new(2, 100),
                history: vec![History::new(4), History::new(4)],
                stats: RunStats::new(Rank(0)),
            }
        }

        /// Receive one frame from peer 1.
        fn stash(&mut self, iter: u64, body: MsgBody<f64>) -> bool {
            let env = Envelope {
                src: Rank(1),
                tag: DATA_TAG,
                msg: IterMsg { iter, body },
            };
            stash(
                &self.app,
                &mut self.dx,
                env,
                &mut self.inbox,
                &mut self.history,
                &mut self.stats,
            )
        }
    }

    #[test]
    fn stash_drops_gap_and_duplicate_delta_frames() {
        let mut rig = StashRig::new();
        let delta = |v: f64| {
            MsgBody::Delta(DeltaFrame {
                entries: vec![(0, v)],
            })
        };

        // A full frame seeds the shadow.
        rig.stash(5, MsgBody::Full(2.0));
        assert_eq!(rig.dx.rx_shadow[1], Some((5, 2.0)));

        // A gap delta (iter 7 against shadow 5) is dropped untouched.
        rig.stash(7, delta(9.0));
        assert_eq!(rig.stats.delta_frames_dropped, 1);
        assert_eq!(rig.history[1].latest_iter(), Some(5));
        assert_eq!(
            rig.dx.rx_shadow[1],
            Some((5, 2.0)),
            "gap must not move the shadow"
        );

        // The in-order delta applies and advances the shadow.
        rig.stash(6, delta(3.0));
        assert_eq!(rig.dx.rx_shadow[1], Some((6, 3.0)));
        assert_eq!(rig.history[1].latest_iter(), Some(6));
        assert_eq!(rig.inbox.get(6, 1), Some(&3.0));

        // A duplicate of that delta is inert.
        rig.stash(6, delta(3.0));
        assert_eq!(rig.stats.delta_frames_dropped, 2);
        assert_eq!(rig.dx.rx_shadow[1], Some((6, 3.0)));

        // A stale full frame never regresses the shadow.
        rig.stash(4, MsgBody::Full(1.0));
        assert_eq!(rig.dx.rx_shadow[1], Some((6, 3.0)));

        // `seen_past` remembers the gap frame's iteration as promotion
        // evidence even though its payload was dropped.
        assert_eq!(rig.dx.seen_past[1], Some(7));
        assert_eq!(rig.stats.messages_received, 5);
    }

    proptest::proptest! {
        /// A frame's entries and iteration stamp are the peer's word:
        /// whatever lanes, bit patterns and stamps they hold, `stash` does
        /// not panic, and a frame the app cannot patch, or one stamped past
        /// the run's last iteration, leaves shadow, history, `seen_past`
        /// and inbox as they were.
        #[test]
        fn stash_survives_arbitrary_delta_entries(
            raw in proptest::collection::vec(
                (proptest::prelude::any::<u32>(), proptest::prelude::any::<u64>()),
                0..6,
            ),
            past in proptest::prelude::any::<u64>(),
        ) {
            // Half the lanes are the toy app's only lane, the rest wild.
            let entries: Vec<(u32, f64)> = raw
                .iter()
                .map(|&(lane, bits)| (if lane & 1 == 0 { 0 } else { lane >> 1 }, f64::from_bits(bits)))
                .collect();
            let patchable = entries.iter().all(|&(lane, _)| lane == 0);
            let last = entries.last().map_or(2.0, |e| e.1);

            let mut rig = StashRig::new();
            rig.stash(5, MsgBody::Full(2.0));
            let arrived = rig.stash(6, MsgBody::Delta(DeltaFrame { entries }));
            assert_eq!(arrived, patchable);
            if patchable {
                assert_eq!(rig.stats.delta_frames_dropped, 0);
                assert_eq!(rig.inbox.get(6, 1).map(|v| v.to_bits()), Some(last.to_bits()));
                assert_eq!(rig.history[1].latest_iter(), Some(6));
            } else {
                assert_eq!(rig.stats.delta_frames_dropped, 1);
                assert_eq!(rig.dx.rx_shadow[1], Some((5, 2.0)), "shadow must not move");
                assert_eq!(rig.history[1].latest_iter(), Some(5));
                assert_eq!(rig.inbox.get(6, 1), None);
            }

            // The rig runs 100 iterations: half the stamps sit just past
            // the end, the rest anywhere up to `u64::MAX`.
            let stamp = if past & 1 == 0 { 100 + (past >> 1) % 4 } else { past.max(100) };
            let before = (
                rig.dx.rx_shadow.clone(),
                rig.dx.seen_past.clone(),
                rig.history[1].latest_iter(),
                rig.inbox.depth(),
                rig.stats.delta_frames_dropped,
            );
            for body in [
                MsgBody::Full(8.0),
                MsgBody::Delta(DeltaFrame { entries: vec![(0, 8.0)] }),
            ] {
                assert!(!rig.stash(stamp, body));
                let after = (
                    rig.dx.rx_shadow.clone(),
                    rig.dx.seen_past.clone(),
                    rig.history[1].latest_iter(),
                    rig.inbox.depth(),
                    rig.stats.delta_frames_dropped,
                );
                assert_eq!(after, before, "a frame stamped {stamp} moved state");
            }
            assert_eq!(rig.stats.messages_received, 4);
        }
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
