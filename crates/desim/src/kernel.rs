//! The simulation kernel: owns the event queue, the mailboxes, and every
//! process state, and drives everything in deterministic virtual time.
//!
//! Every process is a resumable state machine
//! ([`Simulation::spawn_process`] / [`Simulation::spawn_async`]) resumed
//! on the caller's thread whenever the event it yielded on fires: a run
//! is one loop over one event heap, whatever the number of processes.
//!
//! The state a *running* process may touch (event queue, mailboxes, trace
//! log, `messages_sent`, `now`) is one [`Core`] behind `Rc<RefCell<_>>`,
//! shared by the [`Simulation`] and every [`AsyncHandle`]. The rule that
//! keeps it sound: the kernel never holds a `Core` borrow across
//! [`Process::resume`], and a process only ever takes the short borrows
//! inside [`ProcCtx`]'s methods.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use obs::{Gauge, Recorder};

use crate::event::{EventKind, EventQueue, Payload};
use crate::mailbox::{Mailbox, MailboxId};
use crate::process::{
    AsyncHandle, Bridge, FutureProcess, ProcCtx, Process, ProcessId, ProcessResult, Resume, Yield,
};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceLog};

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
    /// Trace annotations, if tracing was enabled.
    pub trace: Vec<TraceEvent>,
}

struct ProcInfo {
    name: String,
    /// The process's state machine. `None` only transiently while the body
    /// is being resumed, and permanently once the process finished
    /// (freeing its state early — at 100k ranks that is most of the
    /// memory).
    body: Option<Box<dyn Process>>,
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

/// The kernel's answer when it grants a process virtual time.
enum Grant {
    /// First grant ever, at time zero.
    Start,
    /// A timer elapsed ([`Yield::Timer`]).
    Resumed,
    /// A blocking receive resolved: the payload, or `None` on deadline.
    Message(Option<Payload>),
}

/// The blocking yield a process is suspended on, as tracked by the
/// scheduling-invariant oracle (see
/// [`Simulation::enable_scheduling_checks`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PendingYield {
    Timer,
    Recv,
    RecvDeadline,
}

/// Optional runtime oracle over the kernel's scheduling invariants:
/// no process is resumed while blocked, every blocking yield is answered
/// exactly once and with the matching grant kind, and virtual time is
/// monotone per process. Violations panic with a diagnostic.
#[derive(Default)]
struct SchedChecks {
    enabled: bool,
    last_resume: Vec<SimTime>,
    pending: Vec<Option<PendingYield>>,
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
                    "scheduling oracle: {pid:?} had a pending yield before its start grant"
                );
                self.started[pid.0] = true;
            }
            Grant::Resumed => {
                assert!(
                    !blocked,
                    "scheduling oracle: {pid:?} woken while blocked on a mailbox"
                );
                assert_eq!(
                    pending,
                    Some(PendingYield::Timer),
                    "scheduling oracle: {pid:?} granted Resumed without a pending timer yield"
                );
            }
            Grant::Message(Some(_)) => {
                assert!(
                    matches!(
                        pending,
                        Some(PendingYield::Recv | PendingYield::RecvDeadline)
                    ),
                    "scheduling oracle: {pid:?} granted a message without a pending receive \
                     (pending: {pending:?})"
                );
            }
            Grant::Message(None) => {
                assert_eq!(
                    pending,
                    Some(PendingYield::RecvDeadline),
                    "scheduling oracle: {pid:?} granted a deadline timeout without a pending \
                     timed receive"
                );
            }
        }
    }

    /// Record the blocking yield a process just suspended on.
    fn on_block(&mut self, pid: ProcessId, y: PendingYield) {
        if !self.enabled {
            return;
        }
        self.ensure(pid.0 + 1);
        assert_eq!(
            self.pending[pid.0], None,
            "scheduling oracle: {pid:?} yielded {y:?} while a previous yield was unanswered"
        );
        self.pending[pid.0] = Some(y);
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
    pub(crate) trace: TraceLog,
    pub(crate) messages_sent: u64,
    pub(crate) now: SimTime,
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
    /// An empty simulation with tracing disabled.
    pub fn new() -> Self {
        Simulation {
            procs: Vec::new(),
            core: Rc::new(RefCell::new(Core {
                queue: EventQueue::new(),
                mailboxes: Vec::new(),
                trace: TraceLog::disabled(),
                messages_sent: 0,
                now: SimTime::ZERO,
            })),
            recorder: None,
            checks: SchedChecks::default(),
            error: None,
            messages_delivered: 0,
            events_processed: 0,
            timers_fired: 0,
        }
    }

    /// Enable recording of trace annotations into the final [`SimReport`].
    pub fn enable_tracing(&mut self) {
        self.core.borrow_mut().trace = TraceLog::enabled();
    }

    /// Arm the scheduling-invariant oracle: every grant and blocking yield
    /// is validated (no process resumed while blocked, every yield answered
    /// exactly once by a grant of the matching kind, virtual time monotone
    /// per process). A violation panics with a diagnostic naming the
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

    /// Spawn a simulated process from an explicit [`Process`] state
    /// machine. The state machine lives in the kernel and is resumed on
    /// the thread that called [`run`](Self::run) whenever the event it
    /// yielded on fires.
    pub fn spawn_process(
        &mut self,
        name: impl Into<String>,
        body: impl Process + 'static,
    ) -> ProcessId {
        let pid = ProcessId(self.procs.len());
        self.procs.push(ProcInfo {
            name: name.into(),
            body: Some(Box::new(body)),
            started: false,
            finished: false,
            blocked_on: None,
            finish_time: None,
            timer_gen: 0,
            armed_timer: None,
        });
        pid
    }

    /// Spawn a simulated process written as an `async fn`. The compiler
    /// generates the state machine; each `await` on the provided
    /// [`AsyncHandle`] is a kernel suspension point. Its return value is
    /// retrievable from the returned [`ProcessResult`] after
    /// [`run`](Self::run) completes.
    ///
    /// The closure runs immediately (to build the future); the body itself
    /// first executes when the kernel grants time zero.
    pub fn spawn_async<R, F, Fut>(&mut self, name: impl Into<String>, f: F) -> ProcessResult<R>
    where
        R: 'static,
        F: FnOnce(AsyncHandle) -> Fut,
        Fut: std::future::Future<Output = R> + 'static,
    {
        let pid = ProcessId(self.procs.len());
        let slot: Arc<Mutex<Option<R>>> = Arc::new(Mutex::new(None));
        let bridge = Rc::new(RefCell::new(Bridge::default()));
        let handle = AsyncHandle::new(pid, Rc::clone(&bridge), Rc::clone(&self.core));
        let fut = f(handle);
        let slot_for_proc = Arc::clone(&slot);
        let wrapped = async move {
            let r = fut.await;
            *slot_for_proc.lock().expect("result mutex poisoned") = Some(r);
        };
        self.spawn_process(name, FutureProcess::new(Box::pin(wrapped), bridge));
        ProcessResult { slot }
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

        let mut core = self.core.borrow_mut();
        if self.error.is_none() {
            let blocked: Vec<(String, MailboxId)> = self
                .procs
                .iter()
                .filter(|p| !p.finished)
                .map(|p| {
                    (
                        p.name.clone(),
                        p.blocked_on
                            .expect("unfinished process not blocked after queue drain"),
                    )
                })
                .collect();
            if !blocked.is_empty() {
                self.error = Some(SimError::Deadlock {
                    blocked,
                    at: core.now,
                });
            }
        }

        let finish_times: Vec<(String, SimTime)> = self
            .procs
            .iter()
            .map(|p| (p.name.clone(), p.finish_time.unwrap_or(core.now)))
            .collect();
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(SimReport {
                end_time: core.now,
                events_processed: self.events_processed,
                messages_sent: core.messages_sent,
                messages_delivered: self.messages_delivered,
                timers_fired: self.timers_fired,
                finish_times,
                trace: core.trace.take(),
            }),
        }
    }

    /// Grant execution to `pid` with `grant` as the answer to whatever it
    /// was suspended on: resume its state machine and handle its yields
    /// until it blocks again. Non-blocking yields (`Send`, a `Recv` with a
    /// message already delivered, an expired `RecvDeadline`) are answered
    /// inline without returning to the event loop — the event sequence
    /// numbers, and with them every tie-break, depend on it.
    fn grant(&mut self, pid: ProcessId, grant: Grant) {
        let now = self.core.borrow().now;
        self.checks
            .on_grant(pid, &grant, now, self.procs[pid.0].blocked_on.is_some());
        let mut body = self.procs[pid.0]
            .body
            .take()
            .expect("process resumed while already running");
        let mut resume = match grant {
            Grant::Start => Resume::Start,
            Grant::Resumed => Resume::Resumed,
            Grant::Message(msg) => Resume::Message(msg),
        };
        // Whether the state machine survives to the next suspension point
        // (false once finished or panicked: its state is dropped early).
        let mut live = false;
        loop {
            // No `Core` borrow is alive here: the process takes its own.
            let step = {
                let mut ctx = ProcCtx {
                    pid,
                    resume: Some(resume),
                    core: &self.core,
                };
                catch_unwind(AssertUnwindSafe(|| body.resume(&mut ctx)))
            };
            let mut core = self.core.borrow_mut();
            match step {
                Err(payload) => {
                    self.procs[pid.0].finished = true;
                    self.error = Some(SimError::ProcessPanicked {
                        name: self.procs[pid.0].name.clone(),
                        message: panic_message(&*payload),
                    });
                    break;
                }
                Ok(Yield::Send { mbox, delay, msg }) => {
                    core.send(mbox, delay, msg);
                    resume = Resume::Resumed;
                }
                Ok(Yield::Timer(d)) => {
                    self.checks.on_block(pid, PendingYield::Timer);
                    core.queue.push(now + d, EventKind::Wake(pid));
                    live = true;
                    break;
                }
                Ok(Yield::Recv { mbox }) => {
                    if let Some(msg) = core.mailboxes[mbox.0].pop() {
                        resume = Resume::Message(Some(msg));
                    } else {
                        self.checks.on_block(pid, PendingYield::Recv);
                        core.mailboxes[mbox.0].add_waiter(pid);
                        self.procs[pid.0].blocked_on = Some(mbox);
                        live = true;
                        break;
                    }
                }
                Ok(Yield::RecvDeadline { mbox, deadline }) => {
                    if let Some(msg) = core.mailboxes[mbox.0].pop() {
                        resume = Resume::Message(Some(msg));
                    } else if deadline <= now {
                        // Already expired: one immediate poll came up empty.
                        resume = Resume::Message(None);
                    } else {
                        self.checks.on_block(pid, PendingYield::RecvDeadline);
                        core.mailboxes[mbox.0].add_waiter(pid);
                        self.procs[pid.0].blocked_on = Some(mbox);
                        let generation = self.procs[pid.0].timer_gen;
                        self.procs[pid.0].armed_timer = Some(generation);
                        core.queue
                            .push(deadline, EventKind::Timer { pid, generation });
                        live = true;
                        break;
                    }
                }
                Ok(Yield::Done) => {
                    self.procs[pid.0].finished = true;
                    self.procs[pid.0].finish_time = Some(now);
                    break;
                }
            }
        }
        if live {
            self.procs[pid.0].body = Some(body);
        }
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
