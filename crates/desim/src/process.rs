//! Simulated processes: resumable state machines scheduled entirely by the
//! event kernel.
//!
//! A [`Process`] is a state machine whose [`resume`](Process::resume) runs
//! on the kernel's thread until the process needs virtual time to pass, at
//! which point it returns a [`Yield`] describing what it is waiting for.
//! The kernel owns every process state, so 10k–1M ranks are just a `Vec` of
//! boxed state machines and one event heap.
//!
//! Two ways to write a process:
//!
//! * implement [`Process`] by hand — an explicit `enum`-state machine with
//!   full control over every suspension point; or
//! * write an `async fn` and pass it to
//!   [`Simulation::spawn_async`](crate::Simulation::spawn_async): the
//!   compiler generates the state machine, and an [`AsyncHandle`] maps each
//!   *blocking* `await` onto the same [`Yield`] protocol. This is how the
//!   `speccore` driver runs on the simulator.
//!
//! Non-blocking operations ([`ProcCtx::send`], [`ProcCtx::try_recv`],
//! [`ProcCtx::create_mailbox`], [`ProcCtx::trace`]) execute inline without
//! returning to the event loop; only `Timer`, an empty-mailbox
//! `Recv`/`RecvDeadline`, and `Done` give the time grant back. That split
//! fixes the event sequence numbers — and therefore the Fifo/Lifo/Seeded
//! tie-breaks, the `SimReport` counters and every fingerprint downstream.
//!
//! Both spellings run the same code: a [`ProcCtx`] is a view of the
//! kernel's shared `Core` (event queue, mailboxes, trace log, clock), and
//! an [`AsyncHandle`] holds that `Core` too, so its non-blocking methods
//! are the `ProcCtx` ones and complete on their first poll — an `async`
//! rank is polled once per blocking operation, not once per operation.

use std::any::Any;
use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

use crate::event::Payload;
use crate::kernel::Core;
use crate::mailbox::MailboxId;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceLog;

/// Identifier of a process within one simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcessId(pub usize);

/// What a [`Process`] is waiting for when it gives the time grant back to
/// the kernel.
pub enum Yield {
    /// Schedule `msg` for delivery into `mbox` after `delay`, then resume
    /// immediately (virtual time does not pass for the sender). Answered
    /// with [`Resume::Resumed`] in the same dispatch — provided for
    /// hand-written state machines; [`ProcCtx::send`] is the inline
    /// equivalent.
    Send {
        /// Destination mailbox.
        mbox: MailboxId,
        /// Modelled network delay before delivery.
        delay: SimDuration,
        /// The message payload.
        msg: Payload,
    },
    /// Block until a message is available in `mbox`. Answered with
    /// [`Resume::Message`]`(Some(_))` at the delivery instant.
    Recv {
        /// Mailbox to wait on.
        mbox: MailboxId,
    },
    /// Block until a message is available in `mbox` or `deadline` passes,
    /// whichever comes first. Answered with [`Resume::Message`] — `None`
    /// means the deadline fired.
    RecvDeadline {
        /// Mailbox to wait on.
        mbox: MailboxId,
        /// Absolute virtual-time deadline.
        deadline: SimTime,
    },
    /// Let `d` of virtual time pass (modelling computation), then resume
    /// with [`Resume::Resumed`].
    Timer(SimDuration),
    /// The process is finished; it will never be resumed again.
    Done,
}

/// The kernel's answer to the previous [`Yield`], readable via
/// [`ProcCtx::take_resume`] at the top of [`Process::resume`].
#[derive(Debug)]
pub enum Resume {
    /// First resume ever, at virtual time zero. Nothing was yielded yet.
    Start,
    /// A [`Yield::Timer`] elapsed or a [`Yield::Send`] was accepted.
    Resumed,
    /// Answer to [`Yield::Recv`] / [`Yield::RecvDeadline`]: the delivered
    /// payload, or `None` if the deadline expired first.
    Message(Option<Payload>),
}

/// A simulated process: a resumable state machine.
///
/// The kernel calls [`resume`](Self::resume) whenever the event the process
/// was waiting for fires. The implementation runs — on the kernel's own
/// thread — until it next needs virtual time to pass, and describes that
/// suspension point in the returned [`Yield`]. State that must survive the
/// suspension lives in `self`.
///
/// There is no `Send` bound: process state never leaves the kernel thread.
pub trait Process {
    /// Run until the next suspension point. `ctx` carries the answer to the
    /// previous yield ([`ProcCtx::take_resume`]) and the kernel's inline
    /// (non-blocking) operations.
    fn resume(&mut self, ctx: &mut ProcCtx<'_>) -> Yield;
}

/// The kernel-side view a [`Process`] has while it holds the time grant.
///
/// Everything here executes inline, without returning to the event loop:
/// virtual time does not move and the grant is not yielded. Each operation
/// takes one short borrow of the kernel's shared `Core` and releases it
/// before returning, so no borrow is ever alive across
/// [`Process::resume`] or an `.await`.
pub struct ProcCtx<'k> {
    pub(crate) pid: ProcessId,
    pub(crate) resume: Option<Resume>,
    pub(crate) core: &'k RefCell<Core>,
}

impl ProcCtx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    /// The kernel's answer to the previous [`Yield`]. Yields exactly one
    /// meaningful answer per resume; subsequent calls in the same resume
    /// return [`Resume::Resumed`].
    pub fn take_resume(&mut self) -> Resume {
        self.resume.take().unwrap_or(Resume::Resumed)
    }

    /// Schedule `msg` for delivery into `mbox` after `delay`. Non-blocking:
    /// virtual time does not pass for the sender (model any send-side CPU
    /// cost with [`Yield::Timer`]).
    pub fn send<T: Any + Send>(&mut self, mbox: MailboxId, delay: SimDuration, msg: T) {
        self.core.borrow_mut().send(mbox, delay, Box::new(msg));
    }

    /// Take a message from `mbox` if one has already been delivered.
    /// Never blocks and never advances virtual time.
    pub fn try_recv(&mut self, mbox: MailboxId) -> Option<Payload> {
        self.core.borrow_mut().mailboxes[mbox.0].pop()
    }

    /// Allocate a fresh mailbox.
    pub fn create_mailbox(&mut self) -> MailboxId {
        self.core.borrow_mut().create_mailbox()
    }

    /// Record a trace annotation at the current virtual time. A no-op unless
    /// tracing was enabled; prefer [`trace_with`](Self::trace_with) when the
    /// label needs formatting.
    pub fn trace(&mut self, label: impl Into<String>) {
        self.trace_with(|| label.into());
    }

    /// Record a trace annotation, building the label lazily. When tracing
    /// is disabled the closure never runs and nothing allocates. The
    /// closure runs outside any kernel borrow, so it may itself use this
    /// context's process (or panic) freely.
    pub fn trace_with(&mut self, label: impl FnOnce() -> String) {
        if !matches!(self.core.borrow().trace, TraceLog::Enabled(_)) {
            return;
        }
        let label = label();
        let mut core = self.core.borrow_mut();
        let now = core.now;
        core.trace.record(now, self.pid, || label);
    }
}

// ---------------------------------------------------------------------------
// async bridge: `async fn` processes over the same Yield protocol
// ---------------------------------------------------------------------------

/// One-slot yield/answer cell shared between an [`AsyncHandle`] (inside the
/// future) and the [`FutureProcess`] driving it. Only *blocking* operations
/// pass through it: the handle parks the [`Yield`] it must suspend on and
/// returns `Pending`; `FutureProcess::resume` hands that yield to the kernel
/// and, on the next grant, leaves the kernel's [`Resume`] here for the
/// re-polled future to pick up. At most one operation is in flight at a
/// time — the future is suspended on it.
#[derive(Default)]
pub(crate) struct Bridge {
    op: Option<Yield>,
    reply: Option<Resume>,
}

/// The view an `async` simulated process has of the simulation kernel.
///
/// Obtained as the argument of the closure passed to
/// [`Simulation::spawn_async`](crate::Simulation::spawn_async). Every method
/// is `async`, but only the blocking ones (`advance`, and `recv` /
/// `recv_deadline` on an empty mailbox with the deadline still ahead) ever
/// suspend: they give the time grant back until the matching event fires.
/// `send`, `try_recv`, `create_mailbox`, `trace`/`trace_with` — and a
/// receive that finds a message already delivered or its deadline already
/// passed — act on the kernel state directly through a [`ProcCtx`] and
/// complete on their first poll, exactly as they would in a hand-written
/// [`Process`]. Exactly one operation may be in flight at a time: `await`
/// each call to completion (no `join!`-style concurrency within one
/// process).
///
/// Awaiting any *foreign* future (one not produced by this handle) inside a
/// simulated process panics: the kernel has no way to complete it.
#[derive(Clone)]
pub struct AsyncHandle {
    pid: ProcessId,
    bridge: Rc<RefCell<Bridge>>,
    core: Rc<RefCell<Core>>,
}

impl AsyncHandle {
    pub(crate) fn new(
        pid: ProcessId,
        bridge: Rc<RefCell<Bridge>>,
        core: Rc<RefCell<Core>>,
    ) -> Self {
        AsyncHandle { pid, bridge, core }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    /// The inline operations, shared with hand-written [`Process`]es.
    fn ctx(&self) -> ProcCtx<'_> {
        ProcCtx {
            pid: self.pid,
            resume: None,
            core: &self.core,
        }
    }

    /// Give the time grant back on `op`; resolves to the kernel's answer.
    fn block(&self, op: Yield) -> OpFuture<'_> {
        OpFuture {
            bridge: &self.bridge,
            op: Some(op),
        }
    }

    /// Spend `d` of virtual time computing. Returns the new current time.
    pub async fn advance(&self, d: SimDuration) -> SimTime {
        self.block(Yield::Timer(d)).await;
        self.now()
    }

    /// Schedule `msg` for delivery into `mbox` after `delay`. Non-blocking:
    /// virtual time does not pass for the sender.
    pub async fn send<T: Any + Send>(&self, mbox: MailboxId, delay: SimDuration, msg: T) {
        self.ctx().send(mbox, delay, msg);
    }

    /// Block until a message is available in `mbox` and take it. Virtual
    /// time advances to the delivery instant of the message received.
    pub async fn recv(&self, mbox: MailboxId) -> Payload {
        if let Some(msg) = self.ctx().try_recv(mbox) {
            return msg;
        }
        match self.block(Yield::Recv { mbox }).await {
            Resume::Message(Some(msg)) => msg,
            other => unreachable!("Recv answered with {other:?}"),
        }
    }

    /// Blocking receive with a type downcast; panics if the payload is not
    /// a `T` (which indicates a protocol bug in the caller).
    pub async fn recv_as<T: Any + Send>(&self, mbox: MailboxId) -> T {
        *self
            .recv(mbox)
            .await
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("message in {mbox:?} had unexpected type"))
    }

    /// Block until a message is available in `mbox` or `deadline` passes.
    ///
    /// Purely event-driven: the kernel arms one deadline timer event and
    /// registers this process as a mailbox waiter, so the process wakes at
    /// the exact virtual arrival time of the next delivery — or at exactly
    /// `deadline` with `None`. A message already delivered is returned
    /// without blocking; a deadline at or before the current time degrades
    /// to [`try_recv`](Self::try_recv) (one immediate poll, no waiting).
    pub async fn recv_deadline(&self, mbox: MailboxId, deadline: SimTime) -> Option<Payload> {
        if let Some(msg) = self.ctx().try_recv(mbox) {
            return Some(msg);
        }
        if deadline <= self.now() {
            return None;
        }
        match self.block(Yield::RecvDeadline { mbox, deadline }).await {
            Resume::Message(msg) => msg,
            other => unreachable!("RecvDeadline answered with {other:?}"),
        }
    }

    /// Timed receive with a type downcast.
    pub async fn recv_deadline_as<T: Any + Send>(
        &self,
        mbox: MailboxId,
        deadline: SimTime,
    ) -> Option<T> {
        self.recv_deadline(mbox, deadline).await.map(|p| {
            *p.downcast::<T>()
                .unwrap_or_else(|_| panic!("message in {mbox:?} had unexpected type"))
        })
    }

    /// Take a message from `mbox` if one has already been delivered.
    /// Never blocks and never advances virtual time.
    pub async fn try_recv(&self, mbox: MailboxId) -> Option<Payload> {
        self.ctx().try_recv(mbox)
    }

    /// Non-blocking receive with a type downcast.
    pub async fn try_recv_as<T: Any + Send>(&self, mbox: MailboxId) -> Option<T> {
        self.try_recv(mbox).await.map(|p| {
            *p.downcast::<T>()
                .unwrap_or_else(|_| panic!("message in {mbox:?} had unexpected type"))
        })
    }

    /// Allocate a fresh mailbox owned by no one in particular.
    pub async fn create_mailbox(&self) -> MailboxId {
        self.ctx().create_mailbox()
    }

    /// Record a trace annotation at the current virtual time. A no-op unless
    /// tracing was enabled on the [`Simulation`](crate::Simulation).
    pub async fn trace(&self, label: impl Into<String>) {
        self.ctx().trace(label);
    }

    /// Record a trace annotation, building the label lazily. When tracing
    /// is disabled the closure never runs and nothing allocates.
    pub async fn trace_with(&self, label: impl FnOnce() -> String) {
        self.ctx().trace_with(label);
    }
}

/// Future for one blocking kernel operation: parks the yield in the bridge
/// on first poll, resolves once the kernel's answer lands there.
struct OpFuture<'h> {
    bridge: &'h RefCell<Bridge>,
    op: Option<Yield>,
}

impl Future for OpFuture<'_> {
    type Output = Resume;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Resume> {
        let mut b = self.bridge.borrow_mut();
        if let Some(op) = self.op.take() {
            debug_assert!(
                b.op.is_none() && b.reply.is_none(),
                "two kernel operations in flight on one AsyncHandle: await each call to completion"
            );
            b.op = Some(op);
            return Poll::Pending;
        }
        match b.reply.take() {
            Some(r) => Poll::Ready(r),
            None => Poll::Pending,
        }
    }
}

/// [`Process`] adapter that drives an `async` body: leaves the kernel's
/// answer in the bridge, polls the future once with a no-op waker, and hands
/// the blocking [`Yield`] it parked there back to the kernel. Everything
/// non-blocking already happened inside that one poll.
pub(crate) struct FutureProcess {
    fut: Pin<Box<dyn Future<Output = ()>>>,
    bridge: Rc<RefCell<Bridge>>,
}

impl FutureProcess {
    pub(crate) fn new(fut: Pin<Box<dyn Future<Output = ()>>>, bridge: Rc<RefCell<Bridge>>) -> Self {
        FutureProcess { fut, bridge }
    }
}

impl Process for FutureProcess {
    fn resume(&mut self, ctx: &mut ProcCtx<'_>) -> Yield {
        match ctx.take_resume() {
            Resume::Start => {}
            answer => self.bridge.borrow_mut().reply = Some(answer),
        }
        let mut cx = Context::from_waker(Waker::noop());
        match self.fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => Yield::Done,
            Poll::Pending => self.bridge.borrow_mut().op.take().unwrap_or_else(|| {
                panic!(
                    "async process suspended on a foreign future: only AsyncHandle \
                     operations can be awaited inside a simulated process"
                )
            }),
        }
    }
}

/// Handle to retrieve a process's return value after the simulation ran.
pub struct ProcessResult<R> {
    pub(crate) slot: Arc<Mutex<Option<R>>>,
}

impl<R> ProcessResult<R> {
    /// Take the return value. Returns `None` if the process never finished
    /// (simulation error) or the value was already taken.
    pub fn take(&self) -> Option<R> {
        self.slot.lock().expect("result mutex poisoned").take()
    }
}
