//! The inline contract of `AsyncHandle`, pinned rather than assumed:
//! non-blocking kernel operations complete inside the poll that issued
//! them, do exactly what the same script does as a hand-written `Process`
//! over `ProcCtx`, and never leave the kernel's shared state borrowed when
//! the process panics.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use desim::{
    preload_message, MailboxId, ProcCtx, Process, Resume, SimDuration, SimError, SimReport,
    SimTime, Simulation, TieBreak, Yield,
};

const STEP: SimDuration = SimDuration::from_micros(10);
const WIRE: SimDuration = SimDuration::from_micros(5);

/// Counts how often the kernel polls the wrapped process body.
struct CountPolls<F> {
    inner: Pin<Box<F>>,
    polls: Rc<Cell<u32>>,
}

impl<F: Future> Future for CountPolls<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        self.polls.set(self.polls.get() + 1);
        self.inner.as_mut().poll(cx)
    }
}

#[test]
fn a_rank_is_polled_once_per_blocking_op() {
    let mut sim = Simulation::new();
    sim.enable_tracing();
    let sink = sim.create_mailbox();
    let ready = sim.create_mailbox();
    preload_message(&mut sim, ready, SimTime::ZERO, 1u8);
    preload_message(&mut sim, ready, SimTime::ZERO, 2u8);
    let polls = Rc::new(Cell::new(0));
    let counted = Rc::clone(&polls);
    sim.spawn_async("rank", move |h| CountPolls {
        polls: counted,
        inner: Box::pin(async move {
            h.advance(STEP).await; // blocking op 1
            for i in 0..7u32 {
                h.send(sink, WIRE, i).await;
            }
            for _ in 0..5 {
                assert!(h.try_recv(sink).await.is_none());
            }
            let mine = h.create_mailbox().await;
            h.trace("between the advances").await;
            // Receives that need not wait are inline too: a message already
            // delivered, a deadline already passed.
            assert_eq!(h.recv_as::<u8>(ready).await, 1);
            assert_eq!(
                h.recv_deadline_as::<u8>(ready, h.now() + STEP).await,
                Some(2)
            );
            assert!(h.recv_deadline(mine, h.now()).await.is_none());
            h.advance(STEP).await; // blocking op 2
            let deadline = h.now() + STEP;
            assert!(h.recv_deadline(mine, deadline).await.is_none()); // blocking op 3
        }),
    });
    let report = sim.run().unwrap();
    assert_eq!(
        polls.get(),
        3 + 1,
        "one poll per blocking op, plus the start"
    );
    assert_eq!(report.messages_sent, 2 + 7);
    assert_eq!(report.timers_fired, 1);
    assert_eq!(report.trace.len(), 1);
    assert_eq!(report.end_time, SimTime::ZERO + STEP + STEP + STEP);
}

// ---------------------------------------------------------------------
// One script, two spellings
// ---------------------------------------------------------------------

/// What a rank of the mesh observed, for comparing the two spellings.
type Seen = Rc<Cell<u64>>;

/// The script as an `async` rank: an advance, then sends to every peer,
/// two `try_recv`s, a `create_mailbox` and a `trace` inside one time
/// grant, another advance, then one blocking receive per peer.
fn spawn_async_rank(sim: &mut Simulation, boxes: &[MailboxId], me: usize, seen: Seen) {
    let boxes = boxes.to_vec();
    sim.spawn_async(format!("rank{me}"), move |h| async move {
        h.advance(STEP).await;
        for (k, b) in boxes.iter().enumerate() {
            if k != me {
                h.send(*b, WIRE, me as u64 + 1).await;
            }
        }
        for _ in 0..2 {
            if let Some(v) = h.try_recv_as::<u64>(boxes[me]).await {
                seen.set(seen.get() * 31 + v);
            }
        }
        let mine = h.create_mailbox().await;
        h.trace_with(|| format!("rank{me} made {mine:?}")).await;
        h.send(mine, SimDuration::ZERO, 0u64).await;
        h.advance(STEP).await;
        for _ in 0..boxes.len() - 1 {
            let v = h.recv_as::<u64>(boxes[me]).await;
            seen.set(seen.get() * 31 + v);
        }
    });
}

/// The same script as an explicit state machine.
struct HandRank {
    boxes: Vec<MailboxId>,
    me: usize,
    seen: Seen,
    state: u8,
    to_receive: usize,
}

impl Process for HandRank {
    fn resume(&mut self, ctx: &mut ProcCtx<'_>) -> Yield {
        let inbox = self.boxes[self.me];
        match self.state {
            0 => {
                self.state = 1;
                Yield::Timer(STEP)
            }
            1 => {
                for (k, b) in self.boxes.iter().enumerate() {
                    if k != self.me {
                        ctx.send(*b, WIRE, self.me as u64 + 1);
                    }
                }
                for _ in 0..2 {
                    if let Some(p) = ctx.try_recv(inbox) {
                        let v = *p.downcast::<u64>().unwrap();
                        self.seen.set(self.seen.get() * 31 + v);
                    }
                }
                let mine = ctx.create_mailbox();
                let me = self.me;
                ctx.trace_with(|| format!("rank{me} made {mine:?}"));
                ctx.send(mine, SimDuration::ZERO, 0u64);
                self.state = 2;
                Yield::Timer(STEP)
            }
            _ => {
                if let Resume::Message(Some(p)) = ctx.take_resume() {
                    let v = *p.downcast::<u64>().unwrap();
                    self.seen.set(self.seen.get() * 31 + v);
                    self.to_receive -= 1;
                }
                if self.to_receive == 0 {
                    return Yield::Done;
                }
                Yield::Recv { mbox: inbox }
            }
        }
    }
}

fn run_mesh(tie: TieBreak, hand_written: bool) -> (SimReport, Vec<u64>) {
    const P: usize = 4;
    let mut sim = Simulation::new();
    sim.set_tie_break(tie);
    sim.enable_tracing();
    sim.enable_scheduling_checks();
    let boxes: Vec<_> = (0..P).map(|_| sim.create_mailbox()).collect();
    let seen: Vec<Seen> = (0..P).map(|_| Rc::new(Cell::new(0))).collect();
    for (me, seen) in seen.iter().enumerate() {
        if hand_written {
            sim.spawn_process(
                format!("rank{me}"),
                HandRank {
                    boxes: boxes.clone(),
                    me,
                    seen: Rc::clone(seen),
                    state: 0,
                    to_receive: P - 1,
                },
            );
        } else {
            spawn_async_rank(&mut sim, &boxes, me, Rc::clone(seen));
        }
    }
    let report = sim.run().unwrap();
    (report, seen.iter().map(|s| s.get()).collect())
}

#[test]
fn async_and_hand_written_ranks_yield_the_same_report() {
    for tie in [
        TieBreak::Fifo,
        TieBreak::Lifo,
        TieBreak::Seeded(7),
        TieBreak::Seeded(0xDEAD_BEEF),
    ] {
        let (by_async, seen_async) = run_mesh(tie, false);
        let (by_hand, seen_hand) = run_mesh(tie, true);
        // Events, messages, timers, end time, finish times and the trace.
        assert_eq!(by_async, by_hand, "{tie:?}");
        assert_eq!(seen_async, seen_hand, "{tie:?}: receive order");
        assert_eq!(by_async.messages_sent, 4 * 3 + 4, "{tie:?}");
        assert_eq!(by_async.trace.len(), 4, "{tie:?}");
    }
}

// ---------------------------------------------------------------------
// A panicking rank never leaves the shared kernel state borrowed
// ---------------------------------------------------------------------

fn expect_panic(sim: Simulation, who: &str, what: &str) {
    match sim.run() {
        Err(SimError::ProcessPanicked { name, message }) => {
            assert_eq!(name, who);
            assert!(message.contains(what), "got: {message}");
        }
        other => panic!("expected `{who}` to panic with `{what}`, got {other:?}"),
    }
}

#[test]
fn a_panic_right_after_an_inline_send_is_reported_as_the_ranks_own() {
    let mut sim = Simulation::new();
    sim.enable_scheduling_checks();
    let mbox = sim.create_mailbox();
    sim.spawn_async("bystander", move |h| async move {
        h.recv(mbox).await;
    });
    sim.spawn_async("bad", move |h| async move {
        h.send(mbox, WIRE, 1u8).await;
        panic!("boom after send at {}", h.now());
    });
    expect_panic(sim, "bad", "boom after send");
}

#[test]
fn a_panic_inside_a_trace_label_is_reported_as_the_ranks_own() {
    let mut sim = Simulation::new();
    sim.enable_tracing();
    sim.spawn_async("bad", |h| async move {
        h.advance(STEP).await;
        h.trace_with(|| panic!("boom in label")).await;
    });
    expect_panic(sim, "bad", "boom in label");

    struct BadLabel;
    impl Process for BadLabel {
        fn resume(&mut self, ctx: &mut ProcCtx<'_>) -> Yield {
            ctx.send(MailboxId(0), WIRE, ());
            ctx.trace_with(|| panic!("boom in a hand-written label"));
            Yield::Done
        }
    }
    let mut sim = Simulation::new();
    sim.enable_tracing();
    sim.create_mailbox();
    sim.spawn_process("hand", BadLabel);
    expect_panic(sim, "hand", "boom in a hand-written label");
}
