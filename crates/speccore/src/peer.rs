//! One remote rank as the driver sees it.
//!
//! The paper's Figure 3 needs two facts per peer: its backward window of
//! actuals and whether its input to the front iteration has arrived.
//! Delta exchange, fault tolerance and supervision add the rest, and all
//! of it lives in one [`Peer`] per remote rank: the receive and send
//! shadows, the highest stamp seen, the one arrival clock, the loss wait,
//! the consecutive-promotion count, the promoted iterations and the
//! peer's health.
//!
//! A `Peer` is sans-I/O. Its methods take plain inputs — an arriving
//! frame's tag, stamp and body (with the app's `delta_patch` as a
//! closure), a loss sweep's clock and deadline, a promotion, a crash — and
//! return one small verdict each. It owns no transport, app, stats or
//! recorder: the driver performs every send, counter and mark the verdicts
//! call for, so one `Peer` can be driven through every short input
//! sequence without a cluster (the enumeration in this file's tests).

use desim::{SimDuration, SimTime};
use mpk::Tag;

use crate::config::SupervisionConfig;
use crate::driver::{MsgBody, RETRANS_REQ_TAG};
use crate::history::History;

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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

impl PeerWait {
    /// One pass of the detector over a peer whose input to the front is
    /// still speculative. `evidence`: the peer already broadcast an
    /// iteration past the front; `last_heard`: when it last delivered
    /// anything. Returns the wait to keep and what to do now.
    ///
    /// `#[inline]`, like the other non-generic helpers on the per-pass
    /// path: the generic driver is instantiated in its caller's crate,
    /// where a plain `fn` of this crate would be an out-of-line call per
    /// peer per loop pass.
    #[inline]
    fn step(
        cur: Option<PeerWait>,
        now: SimTime,
        deadline: SimDuration,
        evidence: bool,
        last_heard: SimTime,
    ) -> (Option<PeerWait>, LossAction) {
        let promote = LossAction::Promote { degraded: false };
        match cur {
            None => (Some(PeerWait::Armed { since: now }), LossAction::Wait),
            Some(PeerWait::Armed { since }) if now.duration_since(since) < deadline => {
                (cur, LossAction::Wait)
            }
            Some(PeerWait::Armed { .. }) if evidence => (None, promote),
            // No proof the message was lost rather than the peer slow: ask
            // once before giving up on it.
            Some(PeerWait::Armed { .. }) => {
                (Some(PeerWait::Grace { asked_at: now }), LossAction::Ask)
            }
            // The reply (or a late broadcast) proved the peer is past the
            // front: the front's message is gone for good.
            Some(PeerWait::Grace { .. }) if evidence => (None, promote),
            // The peer answered but is behind the front: merely late, not
            // lost. Wait afresh from its last sign of life.
            Some(PeerWait::Grace { asked_at }) if last_heard > asked_at => (
                Some(PeerWait::Armed { since: last_heard }),
                LossAction::Wait,
            ),
            // Total silence through the grace period: the request or its
            // reply was lost too.
            Some(PeerWait::Grace { asked_at }) if now.duration_since(asked_at) >= deadline => {
                (None, promote)
            }
            Some(PeerWait::Grace { .. }) => (cur, LossAction::Wait),
        }
    }
}

/// What a loss sweep wants done about one peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LossAction {
    /// Keep waiting.
    Wait,
    /// Commit the speculated value in the missing actual's place;
    /// `degraded` when the peer is quarantined and no deadline was spent.
    Promote { degraded: bool },
    /// Send the peer a retransmit request.
    Ask,
}

/// Per-peer health in the supervision lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PeerHealth {
    /// Contributing normally.
    Healthy,
    /// Too many consecutive promotions; may be dead.
    Suspected,
    /// Given up on: its partition is carried by speculation alone, with no
    /// loss timeout spent on it, until it is heard from again.
    Quarantined,
}

/// What hearing from the peer calls for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Heard {
    /// The peer was quarantined and is readmitted.
    pub(crate) rejoined: bool,
    /// Ship the peer our latest state as a full frame: the reply to a
    /// retransmit request, or the keyframe a readmitted stream restarts
    /// from.
    pub(crate) reply: bool,
    /// When the peer was heard before this frame: the controller's
    /// inter-arrival gap starts there.
    pub(crate) prev: Option<SimTime>,
}

/// Why an arriving frame was not stashed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Refused {
    /// Stamped at or past the run's last iteration.
    PastEnd,
    /// A delta frame that does not extend the receive shadow by exactly
    /// one iteration, or that the app cannot patch.
    Unpatched,
}

/// Everything the driver knows about one remote rank.
#[cfg_attr(test, derive(Clone))]
pub(crate) struct Peer<S> {
    /// The backward window: the newest actuals (and promoted values).
    pub(crate) history: History<S>,
    /// Sender shadow: the scalar lanes the peer has reconstructed from our
    /// stream (the diff baseline). `None` until the first full frame to it.
    pub(crate) tx_shadow: Option<Vec<f64>>,
    /// Receiver shadow: `(iter, reconstruction)` of the newest frame
    /// applied from the peer.
    rx_shadow: Option<(u64, S)>,
    /// Highest iteration stamp seen on *any* frame from the peer —
    /// including delta frames dropped over a gap, which prove the peer
    /// advanced even though no value could be recorded. Loss evidence
    /// alongside the history.
    seen_past: Option<u64>,
    /// When the peer last delivered anything (any tag).
    last_heard: Option<SimTime>,
    /// Loss-detection state for the tracked front iteration.
    wait: Option<PeerWait>,
    /// Consecutive loss promotions since the peer was last heard from.
    staleness: u32,
    /// Iterations whose loss promotion was already counted, so a rollback
    /// that makes the same slot speculative again does not count a second
    /// loss. Each promotion first forgets the entries below the
    /// confirmation point, so the list never outgrows the live window.
    promoted: Vec<u64>,
    health: PeerHealth,
}

impl<S: Clone> Peer<S> {
    /// A peer not yet heard from, with a backward window of `bw` values.
    pub(crate) fn new(bw: usize) -> Self {
        Peer {
            history: History::new(bw),
            tx_shadow: None,
            rx_shadow: None,
            seen_past: None,
            last_heard: None,
            wait: None,
            staleness: 0,
            promoted: Vec::new(),
            health: PeerHealth::Healthy,
        }
    }

    /// The instant the loss wait in force, if any, next acts by itself
    /// under `deadline`.
    pub(crate) fn due(&self, deadline: SimDuration) -> Option<SimTime> {
        let (PeerWait::Armed { since: from } | PeerWait::Grace { asked_at: from }) = self.wait?;
        Some(from + deadline)
    }

    /// Consecutive loss promotions since the peer was last heard from.
    pub(crate) fn staleness(&self) -> u32 {
        self.staleness
    }

    /// Whether the rank has given up on the peer (degraded mode).
    pub(crate) fn is_quarantined(&self) -> bool {
        self.health == PeerHealth::Quarantined
    }

    /// The peer delivered a frame tagged `tag` and stamped `iter` at `now`.
    /// Readmission forgets the receive-side view of the peer: its stream
    /// must restart from a keyframe. A frame stamped at or past `limit`,
    /// the run's iteration count, is no honest rank's: it is not the peer
    /// being heard (`None`), and changes nothing.
    pub(crate) fn heard(&mut self, now: SimTime, tag: Tag, iter: u64, limit: u64) -> Option<Heard> {
        if limit <= iter {
            return None;
        }
        let rejoined = self.health == PeerHealth::Quarantined;
        let prev = self.last_heard;
        (self.staleness, self.last_heard, self.health) = (0, Some(now), PeerHealth::Healthy);
        if rejoined {
            (self.rx_shadow, self.seen_past) = (None, None);
        }
        Some(Heard {
            rejoined,
            reply: rejoined || tag == RETRANS_REQ_TAG,
            prev,
        })
    }

    /// Fold one frame stamped `iter` into the shadow and the history, and
    /// hand back the value the inbox stores. Full frames re-seed the
    /// receiver shadow when `delta` exchange is on; a delta frame
    /// reconstructs the peer's snapshot through `patch`, but only when it
    /// extends the shadow by exactly one iteration — duplicates and gap
    /// frames are refused without touching the history, so they can
    /// never fabricate loss evidence or corrupt a reconstruction. Gaps
    /// heal when the next keyframe, retransmit reply or recovery request
    /// (all full frames) re-seeds the shadow. A frame stamped at or past
    /// `limit`, the run's iteration count, changes nothing.
    pub(crate) fn receive(
        &mut self,
        iter: u64,
        body: MsgBody<S>,
        limit: u64,
        delta: bool,
        patch: impl FnOnce(&S, &[(u32, f64)]) -> Option<S>,
    ) -> Result<S, Refused> {
        // No honest rank stamps an iteration the run never executes. Left in,
        // one such frame would be the peer's newest history entry and standing
        // loss evidence (`seen_past`) for the rest of the run.
        if iter >= limit {
            return Err(Refused::PastEnd);
        }
        self.seen_past = Some(self.seen_past.map_or(iter, |sp| sp.max(iter)));
        let data = match body {
            MsgBody::Full(data) => {
                if delta {
                    // Never regress the shadow: a stale (reordered or
                    // duplicated) full frame must not break the chain the
                    // newer deltas continue from.
                    match &self.rx_shadow {
                        Some((si, _)) if *si > iter => {}
                        _ => self.rx_shadow = Some((iter, data.clone())),
                    }
                }
                data
            }
            MsgBody::Delta(frame) => {
                // A frame the app cannot patch (a lane out of range, or deltas
                // sent to a non-delta-capable app) is refused like a gap.
                let patched = match &self.rx_shadow {
                    Some((si, base)) if si + 1 == iter => patch(base, &frame.entries),
                    _ => None,
                };
                let Some(next) = patched else {
                    return Err(Refused::Unpatched);
                };
                self.rx_shadow = Some((iter, next.clone()));
                next
            }
        };
        self.history.record(iter, data.clone());
        Ok(data)
    }

    /// One pass of the loss detector at `now` over this peer's input to
    /// the `front` iteration. `speculative`: the front record still holds
    /// a speculation for it and no actual waits in the inbox; `deadline`:
    /// the peer's loss deadline. A quarantined peer gets no deadline at
    /// all: its input is promoted the moment it blocks the front.
    #[inline]
    pub(crate) fn sweep(
        &mut self,
        now: SimTime,
        front: u64,
        speculative: bool,
        deadline: SimDuration,
    ) -> LossAction {
        if !speculative {
            self.wait = None;
            return LossAction::Wait;
        }
        if self.health == PeerHealth::Quarantined {
            self.wait = None;
            return LossAction::Promote { degraded: true };
        }
        // Evidence of a genuine loss: the peer already broadcast an
        // iteration past the front, so (links delivering in order) the
        // front's message is not merely late. A delta frame dropped over a
        // gap proves advancement just as a recorded value does.
        let evidence = self.history.latest_iter().is_some_and(|li| li > front)
            || self.seen_past.is_some_and(|si| si > front);
        let last_heard = self.last_heard.unwrap_or(SimTime::ZERO);
        let (next, action) = PeerWait::step(self.wait, now, deadline, evidence, last_heard);
        self.wait = next;
        action
    }

    /// The front moved (confirmation, rollback, drain): a wait anchored
    /// on the old one must never promote inputs of the new one.
    pub(crate) fn disarm(&mut self) {
        self.wait = None;
    }

    /// Book a loss promotion of this peer's input to `iter ≥ t_conf`,
    /// recording the promoted `value` (if any) in the backward window. (A
    /// late actual for the same iteration is then ignored by the
    /// history's freshness guard, so the promotion is final.) Returns
    /// whether this is the first promotion of that iteration.
    pub(crate) fn promote(&mut self, iter: u64, t_conf: u64, value: Option<S>) -> bool {
        debug_assert!(iter >= t_conf, "promotion below the confirmation point");
        if let Some(v) = value {
            self.history.record(iter, v);
        }
        self.promoted.retain(|&i| i >= t_conf);
        if self.promoted.contains(&iter) {
            return false;
        }
        self.promoted.push(iter);
        self.staleness += 1;
        true
    }

    /// Re-derive the peer's health from its consecutive-promotion count,
    /// returning the new health on a transition. One step per call (the
    /// sweep runs every loop pass, so a count past both thresholds
    /// quarantines on the next pass).
    pub(crate) fn observe(&mut self, sup: SupervisionConfig) -> Option<PeerHealth> {
        self.health = match self.health {
            PeerHealth::Healthy if self.staleness >= sup.suspect_after => PeerHealth::Suspected,
            PeerHealth::Suspected if self.staleness >= sup.quarantine_after => {
                PeerHealth::Quarantined
            }
            _ => return None,
        };
        Some(self.health)
    }

    /// The peer is being sent the full snapshot whose lanes are `cur`: its
    /// stream restarts from that baseline.
    pub(crate) fn reseed_tx(&mut self, cur: &[f64]) {
        let shadow = self.tx_shadow.get_or_insert_with(Vec::new);
        shadow.clear();
        shadow.extend_from_slice(cur);
    }

    /// This rank crashed: everything volatile about the peer dies with
    /// the machine — the backward window, both shadows, the advancement
    /// evidence, the loss wait and the promotion count. The next frame to
    /// the peer is a keyframe, and its next full frame re-seeds ours.
    /// Its health, its arrival clock and the promoted iterations (below
    /// the durable confirmation point, or re-promoted after it) stay.
    pub(crate) fn forget(&mut self) {
        self.history.clear();
        self.tx_shadow = None;
        self.rx_shadow = None;
        self.seen_past = None;
        self.wait = None;
        self.staleness = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::SpeculativeApp;
    use crate::driver::tests::Toy;
    use crate::driver::DATA_TAG;
    use mpk::DeltaFrame;
    use proptest::prelude::*;
    use std::collections::HashSet;

    // ---- promotions -------------------------------------------------------

    const P: usize = 4;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Each peer's promoted iterations against the never-pruned set of
        /// (peer, iteration) pairs they replaced: pruning below the
        /// confirmation point changes no answer, and no peer's list
        /// outgrows the live window.
        #[test]
        fn promoted_matches_the_unbounded_set_within_the_window(
            steps in proptest::collection::vec((0usize..P, 0u64..3, any::<bool>()), 1..200),
        ) {
            let window = 3;
            let mut peers: Vec<Peer<f64>> = (0..P).map(|_| Peer::new(1)).collect();
            let mut model: HashSet<(usize, u64)> = HashSet::new();
            let mut t_conf = 0u64;
            for (k, ahead, commit) in steps {
                let iter = t_conf + ahead;
                prop_assert_eq!(peers[k].promote(iter, t_conf, None), model.insert((k, iter)));
                prop_assert!(peers[k].promoted.len() <= window);
                t_conf += u64::from(commit);
            }
        }

        /// A frame's entries and iteration stamp are the peer's word:
        /// whatever lanes, bit patterns and stamps they hold, `receive` does
        /// not panic, and a frame the app cannot patch, or one stamped past
        /// the run's last iteration, leaves shadow, history and `seen_past`
        /// as they were.
        #[test]
        fn stash_survives_arbitrary_delta_entries(
            raw in proptest::collection::vec((any::<u32>(), any::<u64>()), 0..6),
            past in any::<u64>(),
        ) {
            // Half the lanes are the toy app's only lane, the rest wild.
            let entries: Vec<(u32, f64)> = raw
                .iter()
                .map(|&(lane, bits)| (if lane & 1 == 0 { 0 } else { lane >> 1 }, f64::from_bits(bits)))
                .collect();
            let patchable = entries.iter().all(|&(lane, _)| lane == 0);
            let last = entries.last().map_or(2.0, |e| e.1);

            let app = Toy::new(0, 2, 0.0);
            let patch = |base: &f64, e: &[(u32, f64)]| app.delta_patch(base, e);
            let mut peer: Peer<f64> = Peer::new(4);
            prop_assert_eq!(peer.receive(5, MsgBody::Full(2.0), 100, true, patch), Ok(2.0));
            let got = peer.receive(6, MsgBody::Delta(DeltaFrame { entries }), 100, true, patch);
            if patchable {
                prop_assert_eq!(got.map(f64::to_bits), Ok(last.to_bits()));
                prop_assert_eq!(peer.history.latest_iter(), Some(6));
            } else {
                prop_assert_eq!(got, Err(Refused::Unpatched));
                prop_assert_eq!(peer.rx_shadow, Some((5, 2.0)), "shadow must not move");
                prop_assert_eq!(peer.history.latest_iter(), Some(5));
            }

            // The run is 100 iterations: half the stamps sit just past the
            // end, the rest anywhere up to `u64::MAX`.
            let stamp = if past & 1 == 0 { 100 + (past >> 1) % 4 } else { past.max(100) };
            let state = |peer: &Peer<f64>| {
                let shadow = peer.rx_shadow.map(|(i, v)| (i, v.to_bits()));
                (shadow, peer.seen_past, peer.history.latest_iter(), peer.history.len())
            };
            let before = state(&peer);
            for body in [
                MsgBody::Full(8.0),
                MsgBody::Delta(DeltaFrame { entries: vec![(0, 8.0)] }),
            ] {
                prop_assert_eq!(peer.receive(stamp, body, 100, true, patch), Err(Refused::PastEnd));
                prop_assert_eq!(state(&peer), before, "a frame stamped {} moved state", stamp);
            }
        }
    }

    // ---- every short input sequence ----------------------------------------

    /// One input to a peer.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Input {
        /// The peer's full frame stamped `i` (repeated, a duplicate).
        Full(u64),
        /// The peer's delta frame stamped `i`, which sets the one lane to
        /// `i`: every value the peer sends is its own stamp.
        Delta(u64),
        /// A retransmit request, carrying the requester's full frame
        /// stamped 0: what a peer restarted from scratch sends.
        Request,
        /// Half a loss deadline passes.
        Tick,
        /// The front iteration commits.
        Advance,
        /// The front record rolls back (another peer's input missed) and
        /// re-executes: this peer's slot is speculative again unless its
        /// actual is in.
        Rollback,
        /// This rank crashes and restarts.
        Forget,
    }

    const ALPHABET: [Input; 13] = [
        Input::Full(0),
        Input::Full(1),
        Input::Full(2),
        Input::Full(3),
        Input::Delta(0),
        Input::Delta(1),
        Input::Delta(2),
        Input::Delta(3),
        Input::Request,
        Input::Tick,
        Input::Advance,
        Input::Rollback,
        Input::Forget,
    ];

    /// The walk's length bound.
    const L: usize = 6;
    /// A loss without evidence: an ask at one deadline, the promotion at
    /// two.
    const SILENT_LOSS: [Input; 4] = [Input::Tick; 4];
    /// The run's iteration count: frames stamped 3 are at its end.
    const LIMIT: u64 = 3;
    const DEADLINE: SimDuration = SimDuration::from_nanos(100);
    const SUP: SupervisionConfig = SupervisionConfig {
        suspect_after: 1,
        quarantine_after: 1,
    };
    /// One complete stream of the run, keyframe first.
    const STREAM: [Input; 3] = [Input::Full(0), Input::Delta(1), Input::Delta(2)];

    /// One node of the walk: the peer under test and the protocol's own
    /// account of what it should hold, kept in plain values.
    #[derive(Clone)]
    struct Node {
        peer: Peer<f64>,
        now: SimTime,
        /// The confirmation point, which is also the queue head.
        front: u64,
        /// Bit `i`: iteration `i`'s actual is in the inbox (a crash empties
        /// it).
        inbox: u8,
        /// The front slot was promoted, until the front re-executes.
        promoted_front: bool,
        /// Bit `i`: a loss of iteration `i` was counted.
        counted: u8,
        /// The t_conf of the latest promotion: the live window starts there.
        window_from: u64,
        /// When the loss wait on the front started, and the retransmit
        /// request in flight.
        armed: Option<SimTime>,
        asked: Option<SimTime>,
        heard: Option<SimTime>,
        /// The receive shadow's iteration.
        shadow: Option<u64>,
        /// Loss evidence: the newest value recorded since the last crash,
        /// and the highest stamp seen since the last crash or readmission.
        recorded: Option<u64>,
        seen: Option<u64>,
        staleness: u32,
        health: PeerHealth,
        /// Bit `i`: some frame yielded iteration `i`'s value.
        yielded: u8,
    }

    fn bit(i: u64) -> u8 {
        1 << i
    }

    impl Node {
        fn root() -> Self {
            let mut root = Node {
                peer: Peer::new(2),
                now: SimTime::ZERO,
                front: 1,
                inbox: 0,
                promoted_front: false,
                counted: 0,
                window_from: 0,
                armed: None,
                asked: None,
                heard: None,
                shadow: None,
                recorded: None,
                seen: None,
                staleness: 0,
                health: PeerHealth::Healthy,
                yielded: 0,
            };
            root.pass(false, &[]);
            root
        }

        /// Feed `input`, then run one driver pass over the peer.
        fn step(&mut self, input: Input, path: &[Input]) {
            let moved = match input {
                Input::Full(i) => self.arrive(DATA_TAG, i, MsgBody::Full(i as f64), path),
                Input::Delta(i) => {
                    let frame = DeltaFrame {
                        entries: vec![(0, i as f64)],
                    };
                    self.arrive(DATA_TAG, i, MsgBody::Delta(frame), path)
                }
                Input::Request => self.arrive(RETRANS_REQ_TAG, 0, MsgBody::Full(0.0), path),
                Input::Tick => {
                    self.now += SimDuration::from_nanos(DEADLINE.as_nanos() / 2);
                    false
                }
                Input::Advance => {
                    let moved = self.front + 1 < LIMIT;
                    if moved {
                        self.front += 1;
                        self.promoted_front = false;
                    }
                    moved
                }
                Input::Rollback => {
                    self.promoted_front = false;
                    true
                }
                Input::Forget => {
                    self.peer.forget();
                    let p = &self.peer;
                    let gone = p.rx_shadow.is_none() && p.tx_shadow.is_none();
                    let gone = gone && p.seen_past.is_none() && p.history.is_empty();
                    assert!(gone, "forget kept a volatile view: {path:?}");
                    assert!(p.wait.is_none() && p.staleness == 0, "{path:?}");
                    self.inbox = 0;
                    self.promoted_front = false;
                    (self.shadow, self.recorded, self.seen) = (None, None, None);
                    self.staleness = 0;
                    true
                }
            };
            self.pass(moved, path);
        }

        /// One frame from the peer: it is heard, then its body is received.
        /// A frame stamped past the run's end is neither.
        fn arrive(&mut self, tag: Tag, iter: u64, body: MsgBody<f64>, path: &[Input]) -> bool {
            let receive_side = |p: &Peer<f64>| (p.rx_shadow, p.seen_past, p.history.latest_iter());
            if iter >= LIMIT {
                let clock = |p: &Peer<f64>| (p.last_heard, p.staleness, p.health);
                let before = (receive_side(&self.peer), clock(&self.peer));
                assert_eq!(
                    self.peer.heard(self.now, tag, iter, LIMIT),
                    None,
                    "{path:?}"
                );
                let got = self.peer.receive(iter, body, LIMIT, true, |_, _| None);
                assert_eq!(got, Err(Refused::PastEnd), "{path:?}");
                let after = (receive_side(&self.peer), clock(&self.peer));
                assert_eq!(after, before, "past-the-end frame: {path:?}");
                return false;
            }
            let rejoined = self.health == PeerHealth::Quarantined;
            let heard = self.peer.heard(self.now, tag, iter, LIMIT);
            let reply = rejoined || tag == RETRANS_REQ_TAG;
            let prev = self.heard;
            assert_eq!(
                heard,
                Some(Heard {
                    rejoined,
                    reply,
                    prev
                }),
                "{path:?}"
            );
            assert_eq!(self.peer.staleness(), 0, "heard resets staleness: {path:?}");
            (self.heard, self.health, self.staleness) = (Some(self.now), PeerHealth::Healthy, 0);
            if rejoined {
                // Readmission: the stream restarts from a keyframe.
                (self.shadow, self.seen) = (None, None);
            }
            let before = receive_side(&self.peer);
            let patch = |base: &f64, entries: &[(u32, f64)]| {
                let pred = iter.checked_sub(1).map(|i| i as f64);
                assert_eq!(
                    Some(*base),
                    pred,
                    "a delta patched a non-predecessor: {path:?}"
                );
                Some(entries[0].1)
            };
            let got = self.peer.receive(iter, body.clone(), LIMIT, true, patch);
            self.seen = self.seen.max(Some(iter));
            let want = match body {
                MsgBody::Full(_) => {
                    if self.shadow <= Some(iter) {
                        self.shadow = Some(iter);
                    }
                    Ok(iter as f64)
                }
                MsgBody::Delta(_)
                    if self.shadow.is_some() && self.shadow == iter.checked_sub(1) =>
                {
                    self.shadow = Some(iter);
                    Ok(iter as f64)
                }
                MsgBody::Delta(_) => Err(Refused::Unpatched),
            };
            assert_eq!(got, want, "{path:?}");
            let shadow = self.peer.rx_shadow.map(|(i, v)| {
                assert_eq!(v, i as f64, "shadow value: {path:?}");
                i
            });
            assert!(
                shadow >= before.0.map(|s| s.0),
                "the shadow regressed: {path:?}"
            );
            assert_eq!(shadow, self.shadow, "{path:?}");
            if got.is_ok() {
                self.recorded = self.recorded.max(Some(iter));
                self.yielded |= bit(iter);
                if iter >= self.front {
                    self.inbox |= bit(iter);
                }
            }
            assert_eq!(self.peer.seen_past, self.seen, "{path:?}");
            assert_eq!(self.peer.history.latest_iter(), self.recorded, "{path:?}");
            false
        }

        /// The protocol's loss decision for this pass: a quarantined peer
        /// is promoted at once; otherwise a wait arms, and only at its
        /// deadline either promotes (with evidence that the peer broadcast
        /// past the front) or asks for a retransmit; after an ask, evidence
        /// promotes, an answer from behind the front re-arms from the
        /// answer, and a deadline of silence promotes.
        fn expected_loss(&mut self, speculative: bool) -> LossAction {
            let (now, d) = (self.now, DEADLINE);
            let promote = LossAction::Promote { degraded: false };
            if !speculative || self.health == PeerHealth::Quarantined {
                (self.armed, self.asked) = (None, None);
                let degraded = speculative;
                return if degraded {
                    LossAction::Promote { degraded }
                } else {
                    LossAction::Wait
                };
            }
            let front = Some(self.front);
            let evidence = self.recorded > front || self.seen > front;
            let action = match (self.armed, self.asked) {
                (None, _) => {
                    self.armed = Some(now);
                    LossAction::Wait
                }
                (Some(since), None) if now.duration_since(since) < d => LossAction::Wait,
                (Some(_), None) if evidence => promote,
                (Some(_), None) => {
                    self.asked = Some(now);
                    LossAction::Ask
                }
                (Some(_), Some(_)) if evidence => promote,
                (Some(_), Some(at)) if self.heard > Some(at) => {
                    (self.armed, self.asked) = (self.heard, None);
                    LossAction::Wait
                }
                (Some(_), Some(at)) if now.duration_since(at) >= d => promote,
                (Some(_), Some(_)) => LossAction::Wait,
            };
            if action == promote {
                (self.armed, self.asked) = (None, None);
            }
            action
        }

        /// One driver pass: re-anchor the wait if the front `moved`, sweep
        /// for losses, book a promotion, then the supervision step.
        fn pass(&mut self, moved: bool, path: &[Input]) {
            if moved {
                self.peer.disarm();
                (self.armed, self.asked) = (None, None);
            }
            let speculative = self.inbox & bit(self.front) == 0 && !self.promoted_front;
            let want = self.expected_loss(speculative);
            let got = self.peer.sweep(self.now, self.front, speculative, DEADLINE);
            assert_eq!(got, want, "loss verdict: {path:?}");
            if let LossAction::Promote { .. } = got {
                // The promoted value is the speculation; a late actual for
                // the same iteration no longer moves the history.
                let fresh = self.counted & bit(self.front) == 0;
                let value = Some(-(self.front as f64));
                assert_eq!(
                    self.peer.promote(self.front, self.front, value),
                    fresh,
                    "{path:?}"
                );
                self.recorded = self.recorded.max(Some(self.front));
                (self.counted, self.window_from) = (self.counted | bit(self.front), self.front);
                self.staleness += u32::from(fresh);
                self.promoted_front = true;
            }
            assert_eq!(self.peer.wait.is_none(), self.armed.is_none(), "{path:?}");
            assert_eq!(self.peer.staleness(), self.staleness, "{path:?}");
            let live = self.window_from..=self.front;
            let promoted = &self.peer.promoted;
            assert!(
                promoted.iter().all(|i| live.contains(i)),
                "{promoted:?}: {path:?}"
            );
            let edge = match self.health {
                PeerHealth::Healthy if self.staleness >= SUP.suspect_after => {
                    Some(PeerHealth::Suspected)
                }
                PeerHealth::Suspected if self.staleness >= SUP.quarantine_after => {
                    Some(PeerHealth::Quarantined)
                }
                _ => None,
            };
            assert_eq!(self.peer.observe(SUP), edge, "{path:?}");
            self.health = edge.unwrap_or(self.health);
        }
    }

    #[derive(Default)]
    struct Walk {
        sequences: u64,
        /// Delivery orders of [`STREAM`] after which some iteration never
        /// got its value, and the first one found.
        stalls: u64,
        first_stall: Option<Vec<Input>>,
    }

    /// Visit `node` and every extension of `path` up to `max_len` inputs.
    fn walk(node: &Node, path: &mut Vec<Input>, max_len: usize, w: &mut Walk) {
        w.sequences += 1;
        let is_order = path.len() == STREAM.len() && STREAM.iter().all(|s| path.contains(s));
        if is_order && node.yielded != 0b111 {
            w.stalls += 1;
            w.first_stall.get_or_insert_with(|| path.clone());
        }
        if path.len() == max_len {
            return;
        }
        for input in ALPHABET {
            let mut next = node.clone();
            path.push(input);
            next.step(input, path);
            walk(&next, path, max_len, w);
            path.pop();
        }
    }

    /// Every sequence of up to `L` inputs to one peer, depth-first from a
    /// rank at t_conf 1 whose wait on the front armed at time 0, against
    /// the protocol's account of the peer (see [`Node`]): the shadow never
    /// regresses but through a crash or a readmission, a delta applies only
    /// on top of its predecessor, no loss is acted on before its deadline
    /// and each promotion has evidence or follows a silent grace period,
    /// every loss is counted once, readmission and retransmit requests are
    /// answered with a keyframe, a frame stamped at or past the run's end
    /// changes nothing, and the promoted list stays within the live window.
    /// Supervision runs at thresholds (1, 1). A duplicate is a repeated
    /// input, a crashed peer is silence, and a restarted one is its
    /// retransmit request.
    #[test]
    fn every_short_input_sequence_keeps_the_peer_invariants() {
        let started = std::time::Instant::now();
        let mut w = Walk::default();
        walk(&Node::root(), &mut Vec::new(), L, &mut w);
        // What follows a silent loss (a rollback re-speculating the
        // promoted slot, a second front, quarantine) lies past L: the
        // sequences that open with one get L − 1 inputs more.
        let (mut node, mut path) = (Node::root(), Vec::new());
        for input in SILENT_LOSS {
            path.push(input);
            node.step(input, &path);
        }
        walk(&node, &mut path, SILENT_LOSS.len() + L - 1, &mut w);
        let count = |l: usize| {
            (0..=l as u32)
                .map(|n| (ALPHABET.len() as u64).pow(n))
                .sum::<u64>()
        };
        assert_eq!(w.sequences, count(L) + count(L - 1));
        println!(
            "L = {L} (+{} after a silent loss): {} sequences in {:.2?}",
            L - 1,
            w.sequences,
            started.elapsed()
        );
        // Liveness without fault tolerance (nothing re-sends a frame): every
        // delivery order of one complete stream should yield every
        // iteration's value. A delta arriving before its predecessor is
        // refused for good, so only the in-order delivery does.
        let first = w.first_stall.unwrap_or_default();
        assert_eq!(
            w.stalls, 5,
            "delivery orders of {STREAM:?} that stall changed; first: {first:?}"
        );
        println!(
            "ROADMAP item 19: {} of 6 delivery orders of {STREAM:?} stall, e.g. {first:?}",
            w.stalls
        );
    }
}
