//! The simulation kernel: owns the event queue, the mailboxes, and every
//! process state, and drives everything in deterministic virtual time.
//!
//! Every process is an `async` body ([`Simulation::spawn_async`]) whose
//! future the kernel polls on the caller's thread whenever the event it
//! blocked on fires: a run is one loop over one event heap, whatever the
//! number of processes.
//!
//! A process costs one heap allocation, its own future: the kernel boxes
//! the caller's future as it is and polls it through the object-safe
//! `Body` trait, which boxes the output once, when the future completes,
//! into one results table shared with every [`ProcessResult`]. The body is
//! not an `async` wrapper that stores the output: such a wrapper's state
//! machine keeps the captured future beside the copy it awaits, so every
//! rank would be held twice.
//!
//! The state a *running* process may touch (event queue, mailboxes,
//! `messages_sent`, `now`, the parked-operation slot) is one [`Core`]
//! behind `Rc<RefCell<_>>`, shared by the [`Simulation`] and every
//! [`AsyncHandle`]. The rule that keeps it sound: the kernel never holds a
//! `Core` borrow across a poll, and a process only ever takes the short
//! borrows inside the handle's methods.

use std::cell::RefCell;
use std::future::Future;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use obs::{Gauge, Recorder};

use crate::event::{EventKind, EventQueue, Payload};
use crate::mailbox::{Mailbox, MailboxId};
use crate::process::{AsyncHandle, Body, Grant, Op, ProcessId, ProcessResult, Results, Slot};
use crate::time::{SimDuration, SimTime};

/// Why a simulation failed.
#[derive(Debug)]
pub enum SimError {
    /// A process panicked; contains the process name and panic message.
    ProcessPanicked {
        /// Name the process was spawned under.
        name: String,
        /// The panic payload, stringified.
        message: String,
    },
    /// The event queue drained while processes were still blocked.
    Deadlock {
        /// `(process name, mailbox)` pairs that will never be woken.
        blocked: Vec<(String, MailboxId)>,
        /// Virtual time at which the simulation wedged.
        at: SimTime,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ProcessPanicked { name, message } => {
                write!(f, "simulated process `{name}` panicked: {message}")
            }
            SimError::Deadlock { blocked, at } => {
                write!(f, "deadlock at {at}: ")?;
                for (i, (name, mbox)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "`{name}` blocked on {mbox:?}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Aggregate statistics and outcome of a completed simulation.
///
/// `PartialEq` so tests can assert two runs produced the same report
/// wholesale.
#[derive(Debug, PartialEq, Eq)]
pub struct SimReport {
    /// Virtual time when the last process finished.
    pub end_time: SimTime,
    /// Number of events the kernel dispatched.
    pub events_processed: u64,
    /// Number of messages scheduled for delivery.
    pub messages_sent: u64,
    /// Number of messages that reached a mailbox.
    pub messages_delivered: u64,
    /// Number of deadline timers that expired and woke a timed receive
    /// (stale — cancelled-by-delivery — timers are not counted).
    pub timers_fired: u64,
    /// `(name, finish time)` per process, in spawn order.
    pub finish_times: Vec<(String, SimTime)>,
}

struct ProcInfo {
    name: String,
    /// The process's future. `None` only transiently while it is being
    /// polled, and permanently once the process finished or panicked
    /// (freeing its state early — at 100k ranks that is most of the
    /// memory).
    body: Option<Pin<Box<dyn Body>>>,
    started: bool,
    finished: bool,
    blocked_on: Option<MailboxId>,
    finish_time: Option<SimTime>,
    /// Monotone counter stamping armed deadline timers; bumping it is how
    /// a timer is cancelled without touching the event heap.
    timer_gen: u64,
    /// Generation of the currently armed deadline timer, if the process is
    /// blocked in a timed receive.
    armed_timer: Option<u64>,
}

/// Optional runtime oracle over the kernel's scheduling invariants:
/// no process is resumed while blocked, every blocking operation is
/// answered exactly once and with the matching grant kind, and virtual
/// time is monotone per process. Violations panic with a diagnostic.
#[derive(Default)]
struct SchedChecks {
    enabled: bool,
    last_resume: Vec<SimTime>,
    pending: Vec<Option<Op>>,
    started: Vec<bool>,
}

impl SchedChecks {
    fn ensure(&mut self, n: usize) {
        if self.last_resume.len() < n {
            self.last_resume.resize(n, SimTime::ZERO);
            self.pending.resize(n, None);
            self.started.resize(n, false);
        }
    }

    /// Validate a grant against the process's recorded suspension state.
    fn on_grant(&mut self, pid: ProcessId, grant: &Grant, now: SimTime, blocked: bool) {
        if !self.enabled {
            return;
        }
        self.ensure(pid.0 + 1);
        assert!(
            now >= self.last_resume[pid.0],
            "scheduling oracle: virtual time ran backwards for {pid:?} \
             ({now} < {})",
            self.last_resume[pid.0]
        );
        self.last_resume[pid.0] = now;
        let pending = self.pending[pid.0].take();
        match grant {
            Grant::Start => {
                assert!(
                    !self.started[pid.0],
                    "scheduling oracle: {pid:?} started twice"
                );
                assert_eq!(
                    pending, None,
                    "scheduling oracle: {pid:?} had a pending operation before its start grant"
                );
                self.started[pid.0] = true;
            }
            Grant::Resumed => {
                assert!(
                    !blocked,
                    "scheduling oracle: {pid:?} woken while blocked on a mailbox"
                );
                assert!(
                    matches!(pending, Some(Op::Timer(_))),
                    "scheduling oracle: {pid:?} granted Resumed without a pending timer \
                     (pending: {pending:?})"
                );
            }
            Grant::Message(Some(_)) => {
                assert!(
                    matches!(pending, Some(Op::Recv(_) | Op::RecvDeadline { .. })),
                    "scheduling oracle: {pid:?} granted a message without a pending receive \
                     (pending: {pending:?})"
                );
            }
            Grant::Message(None) => {
                assert!(
                    matches!(pending, Some(Op::RecvDeadline { .. })),
                    "scheduling oracle: {pid:?} granted a deadline timeout without a pending \
                     timed receive (pending: {pending:?})"
                );
            }
        }
    }

    /// Record the blocking operation a process just suspended on.
    fn on_block(&mut self, pid: ProcessId, op: Op) {
        if !self.enabled {
            return;
        }
        self.ensure(pid.0 + 1);
        assert_eq!(
            self.pending[pid.0], None,
            "scheduling oracle: {pid:?} parked {op:?} while a previous operation was unanswered"
        );
        self.pending[pid.0] = Some(op);
    }
}

/// A discrete-event simulation under construction (and, during
/// [`run`](Simulation::run), in flight).
///
/// # Example
///
/// ```
/// use desim::{Simulation, SimDuration};
///
/// let mut sim = Simulation::new();
/// let mbox = sim.create_mailbox();
/// sim.spawn_async("producer", move |h| async move {
///     h.advance(SimDuration::from_millis(5)).await;
///     h.send(mbox, SimDuration::from_millis(2), 42u32).await;
/// });
/// let got = sim.spawn_async("consumer", move |h| async move {
///     h.recv_as::<u32>(mbox).await
/// });
/// let report = sim.run().unwrap();
/// assert_eq!(got.take(), Some(42));
/// assert_eq!(report.end_time.as_nanos(), 7_000_000);
/// ```
pub struct Simulation {
    procs: Vec<ProcInfo>,
    core: Rc<RefCell<Core>>,
    results: Results,
    recorder: Option<Box<dyn Recorder>>,
    checks: SchedChecks,
    error: Option<SimError>,
    messages_delivered: u64,
    events_processed: u64,
    timers_fired: u64,
}

/// The kernel state a process may touch while it holds the time grant.
pub(crate) struct Core {
    pub(crate) queue: EventQueue,
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) messages_sent: u64,
    pub(crate) now: SimTime,
    /// The blocking operation the running process parked, or the kernel's
    /// answer to it; [`Slot::Empty`] between grants.
    pub(crate) slot: Slot,
}

impl Core {
    pub(crate) fn send(&mut self, mbox: MailboxId, delay: SimDuration, msg: Payload) {
        self.messages_sent += 1;
        self.queue
            .push(self.now + delay, EventKind::Deliver { mbox, msg });
    }

    pub(crate) fn create_mailbox(&mut self) -> MailboxId {
        let id = MailboxId(self.mailboxes.len());
        self.mailboxes.push(Mailbox::default());
        id
    }
}

/// How often (in dispatched events) the kernel samples its event-heap size
/// into an attached [`Recorder`]. Sampling every event would dominate small
/// traces; every 256th keeps the series cheap but still shows the shape.
const HEAP_SAMPLE_INTERVAL: u64 = 256;

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// An empty simulation.
    pub fn new() -> Self {
        Simulation {
            procs: Vec::new(),
            core: Rc::new(RefCell::new(Core {
                queue: EventQueue::new(),
                mailboxes: Vec::new(),
                messages_sent: 0,
                now: SimTime::ZERO,
                slot: Slot::Empty,
            })),
            results: Rc::default(),
            recorder: None,
            checks: SchedChecks::default(),
            error: None,
            messages_delivered: 0,
            events_processed: 0,
            timers_fired: 0,
        }
    }

    /// Arm the scheduling-invariant oracle: every grant and blocking
    /// operation is validated (no process resumed while blocked, every
    /// operation answered exactly once by a grant of the matching kind,
    /// virtual time monotone per process). A violation panics with a diagnostic naming the
    /// process and the mismatched state. Used by the speccheck property
    /// suite; cheap enough to leave on in tests, off by default.
    pub fn enable_scheduling_checks(&mut self) {
        self.checks.enabled = true;
    }

    /// Set how events scheduled at the same virtual time are ordered
    /// (default: [`TieBreak::Fifo`](crate::event::TieBreak), insertion
    /// order). Must be called before [`run`](Self::run); used by
    /// conformance tests to prove a result does not depend on same-time
    /// delivery tie-breaks.
    pub fn set_tie_break(&mut self, tie_break: crate::event::TieBreak) {
        self.core.borrow_mut().queue.set_tie_break(tie_break);
    }

    /// Attach a structured [`Recorder`]. The kernel samples its event-heap
    /// size into it (as [`Gauge::EventHeapSize`] under
    /// [`obs::Event::KERNEL_RANK`]) every 256 events.
    /// Callers who need the data back should attach an
    /// [`obs::SharedRecorder`] clone.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Allocate a mailbox before the simulation starts, so its id can be
    /// shared with several processes.
    pub fn create_mailbox(&mut self) -> MailboxId {
        self.core.borrow_mut().create_mailbox()
    }

    /// Spawn a simulated process written as an `async fn`. The compiler
    /// generates the state machine; each `await` on the provided
    /// [`AsyncHandle`] is a kernel suspension point. Its return value is
    /// retrievable from the returned [`ProcessResult`] after
    /// [`run`](Self::run) completes.
    ///
    /// The closure runs immediately (to build the future); the body itself
    /// first executes when the kernel grants time zero. The future is boxed
    /// as it is, so the process costs one allocation of its own size.
    pub fn spawn_async<R, F, Fut>(&mut self, name: impl Into<String>, f: F) -> ProcessResult<R>
    where
        R: 'static,
        F: FnOnce(AsyncHandle) -> Fut,
        Fut: Future<Output = R> + 'static,
    {
        let pid = ProcessId(self.procs.len());
        let body = Box::pin(f(AsyncHandle::new(Rc::clone(&self.core))));
        self.procs.push(ProcInfo {
            name: name.into(),
            body: Some(body),
            started: false,
            finished: false,
            blocked_on: None,
            finish_time: None,
            timer_gen: 0,
            armed_timer: None,
        });
        self.results.borrow_mut().push(None);
        ProcessResult {
            pid,
            results: Rc::clone(&self.results),
            output: PhantomData,
        }
    }

    /// Run the simulation to completion.
    ///
    /// Returns the report once every process has finished, or an error if a
    /// process panicked or the system deadlocked (every remaining process
    /// blocked on a receive that can never be satisfied).
    pub fn run(mut self) -> Result<SimReport, SimError> {
        for pid in 0..self.procs.len() {
            let wake = EventKind::Wake(ProcessId(pid));
            self.core.borrow_mut().queue.push(SimTime::ZERO, wake);
        }

        loop {
            // Borrowed for the kernel's own bookkeeping only; every arm
            // drops it before granting time to a process.
            let mut core = self.core.borrow_mut();
            let Some(ev) = core.queue.pop() else { break };
            self.events_processed += 1;
            // A cancelled (stale-generation) timer is a no-op: crucially it
            // must not advance `now`, or a deadline armed and then beaten by
            // a delivery would still stretch the run's end time.
            if let EventKind::Timer { pid, generation } = ev.kind {
                if self.procs[pid.0].armed_timer != Some(generation) || self.procs[pid.0].finished {
                    continue;
                }
            }
            core.now = ev.key.time;
            if self.events_processed.is_multiple_of(HEAP_SAMPLE_INTERVAL) {
                if let Some(rec) = self.recorder.as_mut() {
                    rec.gauge(
                        obs::Event::KERNEL_RANK,
                        core.now.as_nanos(),
                        Gauge::EventHeapSize,
                        core.queue.len() as u64,
                    );
                }
            }
            match ev.kind {
                EventKind::Wake(pid) => {
                    drop(core);
                    if !self.procs[pid.0].finished {
                        let grant = if self.procs[pid.0].started {
                            Grant::Resumed
                        } else {
                            self.procs[pid.0].started = true;
                            Grant::Start
                        };
                        self.grant(pid, grant);
                    }
                }
                EventKind::Deliver { mbox, msg } => {
                    self.messages_delivered += 1;
                    let mailbox = &mut core.mailboxes[mbox.0];
                    mailbox.deliver(msg);
                    if let Some(pid) = mailbox.take_waiter() {
                        let msg = mailbox.pop().expect("waiter woken on empty mailbox");
                        drop(core);
                        self.procs[pid.0].blocked_on = None;
                        // A timed waiter's deadline is now moot: bump the
                        // generation so the heaped timer pops as a stale
                        // no-op.
                        if self.procs[pid.0].armed_timer.take().is_some() {
                            self.procs[pid.0].timer_gen += 1;
                        }
                        self.grant(pid, Grant::Message(Some(msg)));
                    }
                }
                EventKind::Timer { pid, generation } => {
                    // Stale timers were filtered above; this one is live.
                    debug_assert_eq!(self.procs[pid.0].armed_timer, Some(generation));
                    let p = &mut self.procs[pid.0];
                    p.armed_timer = None;
                    p.timer_gen += 1;
                    let mbox = p
                        .blocked_on
                        .take()
                        .expect("timed waiter has no blocking mailbox");
                    core.mailboxes[mbox.0].remove_waiter(pid);
                    drop(core);
                    self.timers_fired += 1;
                    self.grant(pid, Grant::Message(None));
                }
            }
            if self.error.is_some() {
                break;
            }
        }

        if let Some(e) = self.error.take() {
            return Err(e);
        }
        // The run consumes the kernel, so the names move into the report
        // rather than being cloned. `Core` is released before the process
        // table goes: an unfinished body dropped with it must find `Core`
        // unborrowed.
        let (now, messages_sent) = {
            let core = self.core.borrow();
            (core.now, core.messages_sent)
        };
        let blocked: Vec<(String, MailboxId)> = self
            .procs
            .iter_mut()
            .filter(|p| !p.finished)
            .map(|p| {
                (
                    std::mem::take(&mut p.name),
                    p.blocked_on
                        .expect("unfinished process not blocked after queue drain"),
                )
            })
            .collect();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock { blocked, at: now });
        }
        // A fresh buffer of the exact size: `collect` would reuse the
        // process table's allocation in place, about three times as large, and
        // the report would keep it alive.
        let mut finish_times = Vec::with_capacity(self.procs.len());
        finish_times.extend(
            self.procs
                .into_iter()
                .map(|p| (p.name, p.finish_time.unwrap_or(now))),
        );
        Ok(SimReport {
            end_time: now,
            events_processed: self.events_processed,
            messages_sent,
            messages_delivered: self.messages_delivered,
            timers_fired: self.timers_fired,
            finish_times,
        })
    }

    /// Grant execution to `pid` with `grant` as the answer to whatever it
    /// was suspended on: poll its future once, then arm the blocking
    /// operation it parked. Everything non-blocking already happened
    /// inside that poll, so every event is pushed at the program point the
    /// event sequence numbers — and with them every tie-break — depend on.
    fn grant(&mut self, pid: ProcessId, grant: Grant) {
        let now = self.core.borrow().now;
        self.checks
            .on_grant(pid, &grant, now, self.procs[pid.0].blocked_on.is_some());
        let mut body = self.procs[pid.0]
            .body
            .take()
            .expect("process resumed while already running");
        if !matches!(grant, Grant::Start) {
            self.core.borrow_mut().slot = Slot::Answered(grant);
        }
        // No `Core` borrow is alive here: the process takes its own.
        let polled = catch_unwind(AssertUnwindSafe(|| {
            body.as_mut()
                .poll_body(&mut Context::from_waker(Waker::noop()))
        }));
        let mut core = self.core.borrow_mut();
        let slot = std::mem::take(&mut core.slot);
        let proc = &mut self.procs[pid.0];
        let op = match (polled, slot) {
            (Ok(Poll::Pending), Slot::Parked(op)) => op,
            (Ok(Poll::Ready(out)), _) => {
                proc.finished = true;
                proc.finish_time = Some(now);
                self.results.borrow_mut()[pid.0] = Some(out);
                return;
            }
            (polled, _) => {
                proc.finished = true;
                let message = match polled {
                    Err(payload) => panic_message(&*payload),
                    Ok(_) => "async process suspended on a foreign future: only AsyncHandle \
                              operations can be awaited inside a simulated process"
                        .to_string(),
                };
                self.error = Some(SimError::ProcessPanicked {
                    name: proc.name.clone(),
                    message,
                });
                return;
            }
        };
        self.checks.on_block(pid, op);
        match op {
            Op::Timer(d) => {
                core.queue.push(now + d, EventKind::Wake(pid));
            }
            Op::Recv(mbox) | Op::RecvDeadline { mbox, .. } => {
                core.mailboxes[mbox.0].add_waiter(pid);
                proc.blocked_on = Some(mbox);
                if let Op::RecvDeadline { deadline, .. } = op {
                    let generation = proc.timer_gen;
                    proc.armed_timer = Some(generation);
                    core.queue
                        .push(deadline, EventKind::Timer { pid, generation });
                }
            }
        }
        proc.body = Some(body);
    }
}

/// Schedule a message delivery directly from outside any process (useful in
/// tests to pre-load mailboxes). The message is delivered at `at`.
pub fn preload_message<T: std::any::Any + Send>(
    sim: &mut Simulation,
    mbox: MailboxId,
    at: SimTime,
    msg: T,
) {
    let mut core = sim.core.borrow_mut();
    core.messages_sent += 1;
    core.queue.push(
        at,
        EventKind::Deliver {
            mbox,
            msg: Box::new(msg) as Payload,
        },
    );
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
