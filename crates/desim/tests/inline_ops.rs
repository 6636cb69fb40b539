//! The inline contract of `AsyncHandle`, pinned rather than assumed:
//! non-blocking kernel operations complete inside the poll that issued
//! them, push their events where the recorded mesh reports say they do,
//! and never leave the kernel's shared state borrowed when the process
//! panics.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use desim::{
    preload_message, MailboxId, SimDuration, SimError, SimReport, SimTime, Simulation, TieBreak,
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
    assert_eq!(report.end_time, SimTime::ZERO + STEP + STEP + STEP);
}

// ---------------------------------------------------------------------
// One script, its recorded reports
// ---------------------------------------------------------------------

/// What a rank of the mesh observed: its receive order, folded.
type Seen = Rc<Cell<u64>>;

/// `(rank, virtual time, mailbox it made)`, in the order ranks made one.
type Made = Rc<RefCell<Vec<(usize, SimTime, MailboxId)>>>;

/// The script of one rank: an advance, then sends to every peer, two
/// `try_recv`s and a `create_mailbox` inside one time grant, another
/// advance, then one blocking receive per peer.
fn spawn_rank(sim: &mut Simulation, boxes: &[MailboxId], me: usize, seen: Seen, made: Made) {
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
        made.borrow_mut().push((me, h.now(), mine));
        h.send(mine, SimDuration::ZERO, 0u64).await;
        h.advance(STEP).await;
        for _ in 0..boxes.len() - 1 {
            let v = h.recv_as::<u64>(boxes[me]).await;
            seen.set(seen.get() * 31 + v);
        }
    });
}

type MeshRun = (SimReport, Vec<u64>, Vec<(usize, SimTime, MailboxId)>);

fn run_mesh(tie: TieBreak) -> MeshRun {
    const P: usize = 4;
    let mut sim = Simulation::new();
    sim.set_tie_break(tie);
    sim.enable_scheduling_checks();
    let boxes: Vec<_> = (0..P).map(|_| sim.create_mailbox()).collect();
    let seen: Vec<Seen> = (0..P).map(|_| Rc::new(Cell::new(0))).collect();
    let made = Made::default();
    for (me, seen) in seen.iter().enumerate() {
        spawn_rank(&mut sim, &boxes, me, Rc::clone(seen), Rc::clone(&made));
    }
    let report = sim.run().unwrap();
    let made = made.take();
    (report, seen.iter().map(|s| s.get()).collect(), made)
}

/// The mesh's report and receive orders under four tie-breaks, recorded
/// when the same script also ran as a hand-written state machine and the
/// two spellings agreed: an inline operation that moved an event's push
/// would move a sequence number, and with it these values.
#[test]
fn the_mesh_reports_are_pinned_under_every_tie_break() {
    // (tie-break, rank 0..3's `seen`, the order ranks made a mailbox in)
    let pinned: [(TieBreak, [u64; 4], [usize; 4]); 4] = [
        (TieBreak::Fifo, [2019, 1058, 1027, 1026], [0, 1, 2, 3]),
        (TieBreak::Lifo, [3939, 3938, 3907, 2946], [0, 1, 2, 3]),
        (TieBreak::Seeded(7), [3909, 1058, 1087, 1956], [2, 3, 0, 1]),
        (
            TieBreak::Seeded(0xDEAD_BEEF),
            [2019, 1058, 3907, 1056],
            [3, 1, 0, 2],
        ),
    ];
    let end = SimTime::ZERO + STEP + STEP;
    for (tie, seen, order) in pinned {
        let (report, got, made) = run_mesh(tie);
        assert_eq!(report.events_processed, 28, "{tie:?}");
        assert_eq!(report.messages_sent, 4 * 3 + 4, "{tie:?}");
        assert_eq!(report.messages_delivered, 4 * 3 + 4, "{tie:?}");
        assert_eq!(report.timers_fired, 0, "{tie:?}");
        assert_eq!(report.end_time, end, "{tie:?}");
        assert!(
            report.finish_times.iter().all(|(_, t)| *t == end),
            "{tie:?}"
        );
        assert_eq!(got, seen, "{tie:?}: receive order");
        let want: Vec<_> = order
            .iter()
            .enumerate()
            .map(|(k, &p)| (p, SimTime::ZERO + STEP, MailboxId(4 + k)))
            .collect();
        assert_eq!(made, want, "{tie:?}: the order ranks ran in");
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
