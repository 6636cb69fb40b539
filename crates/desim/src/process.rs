//! Simulated processes: `async` bodies polled directly by the event kernel.
//!
//! A process is the future returned by the closure passed to
//! [`Simulation::spawn_async`](crate::Simulation::spawn_async). The kernel
//! owns every such future, so 10k–1M ranks are just a `Vec` of boxed state
//! machines and one event heap. It boxes that future itself, once, and
//! polls it through the object-safe `Body` trait: a process costs one
//! allocation the size of its own future.
//!
//! The [`AsyncHandle`] a process receives is its whole view of the kernel.
//! Non-blocking operations (`send`, `try_recv`, `create_mailbox`, and a
//! receive that need not wait) act on the kernel's shared `Core`
//! inline and complete on their first poll; only a *blocking* operation
//! (`advance`, a receive on an empty mailbox with its deadline still ahead)
//! parks an [`Op`] in the `Core`'s one slot and returns `Pending`, giving
//! the time grant back. That split fixes the event sequence numbers — and
//! therefore the Fifo/Lifo/Seeded tie-breaks, the `SimReport` counters and
//! every fingerprint downstream — and means a rank is polled once per
//! blocking operation, not once per operation.

use std::any::Any;
use std::cell::RefCell;
use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::event::Payload;
use crate::kernel::Core;
use crate::mailbox::MailboxId;
use crate::time::{SimDuration, SimTime};

/// Identifier of a process within one simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub(crate) struct ProcessId(pub(crate) usize);

/// A blocking operation a process parks when it gives the time grant back.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Op {
    /// Let the duration of virtual time pass (modelling computation).
    Timer(SimDuration),
    /// Wait until a message reaches the (empty) mailbox.
    Recv(MailboxId),
    /// Wait until a message reaches the (empty) mailbox or the deadline,
    /// which is still ahead, passes.
    RecvDeadline {
        /// Mailbox to wait on.
        mbox: MailboxId,
        /// Absolute virtual-time deadline.
        deadline: SimTime,
    },
}

/// The kernel's answer when it grants a process virtual time.
#[derive(Debug)]
pub(crate) enum Grant {
    /// First grant ever, at time zero.
    Start,
    /// An [`Op::Timer`] elapsed.
    Resumed,
    /// A blocking receive resolved: the payload, or `None` on deadline.
    Message(Option<Payload>),
}

/// The one parked-operation slot in `Core`. Only one process runs at a
/// time, so the operation it parks and the kernel's answer to it share it.
#[derive(Default)]
pub(crate) enum Slot {
    /// Nothing in flight.
    #[default]
    Empty,
    /// The running process parked this operation and returned `Pending`.
    Parked(Op),
    /// The kernel's answer, left for the re-polled process to take.
    Answered(Grant),
}

/// The view an `async` simulated process has of the simulation kernel.
///
/// Obtained as the argument of the closure passed to
/// [`Simulation::spawn_async`](crate::Simulation::spawn_async). Every method
/// is `async`, but only the blocking ones (`advance`, and `recv` /
/// `recv_deadline` on an empty mailbox with the deadline still ahead) ever
/// suspend: they give the time grant back until the matching event fires.
/// `send`, `try_recv`, `create_mailbox` — and a
/// receive that finds a message already delivered or its deadline already
/// passed — each take one short borrow of the kernel state and complete on
/// their first poll. Exactly one operation may be in flight at a time:
/// `await` each call to completion (no `join!`-style concurrency within one
/// process).
///
/// Awaiting any *foreign* future (one not produced by this handle) inside a
/// simulated process is reported as a panic of that process: the kernel has
/// no way to complete it.
#[derive(Clone)]
pub struct AsyncHandle {
    core: Rc<RefCell<Core>>,
}

impl AsyncHandle {
    pub(crate) fn new(core: Rc<RefCell<Core>>) -> Self {
        AsyncHandle { core }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    /// Give the time grant back on `op`; resolves to the kernel's answer.
    fn block(&self, op: Op) -> OpFuture<'_> {
        OpFuture {
            core: &self.core,
            op: Some(op),
        }
    }

    /// Take a delivered message from `mbox`, if there is one.
    fn pop(&self, mbox: MailboxId) -> Option<Payload> {
        self.core.borrow_mut().mailboxes[mbox.0].pop()
    }

    /// Spend `d` of virtual time computing. Returns the new current time.
    pub async fn advance(&self, d: SimDuration) -> SimTime {
        self.block(Op::Timer(d)).await;
        self.now()
    }

    /// Schedule `msg` for delivery into `mbox` after `delay`. Non-blocking:
    /// virtual time does not pass for the sender.
    pub async fn send<T: Any + Send>(&self, mbox: MailboxId, delay: SimDuration, msg: T) {
        self.core.borrow_mut().send(mbox, delay, Box::new(msg));
    }

    /// Block until a message is available in `mbox` and take it. Virtual
    /// time advances to the delivery instant of the message received.
    pub async fn recv(&self, mbox: MailboxId) -> Payload {
        if let Some(msg) = self.pop(mbox) {
            return msg;
        }
        match self.block(Op::Recv(mbox)).await {
            Grant::Message(Some(msg)) => msg,
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
        if let Some(msg) = self.pop(mbox) {
            return Some(msg);
        }
        if deadline <= self.now() {
            return None;
        }
        match self.block(Op::RecvDeadline { mbox, deadline }).await {
            Grant::Message(msg) => msg,
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
        self.pop(mbox)
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
        self.core.borrow_mut().create_mailbox()
    }
}

/// Future for one blocking kernel operation: parks the op in the `Core`'s
/// slot on first poll, resolves once the kernel's answer lands there.
struct OpFuture<'h> {
    core: &'h RefCell<Core>,
    op: Option<Op>,
}

impl Future for OpFuture<'_> {
    type Output = Grant;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Grant> {
        let mut core = self.core.borrow_mut();
        if let Some(op) = self.op.take() {
            debug_assert!(
                matches!(core.slot, Slot::Empty),
                "two kernel operations in flight in one process: await each call to completion"
            );
            core.slot = Slot::Parked(op);
            return Poll::Pending;
        }
        match std::mem::take(&mut core.slot) {
            Slot::Answered(grant) => Poll::Ready(grant),
            other => {
                core.slot = other;
                Poll::Pending
            }
        }
    }
}

/// A process body as the kernel stores and polls it: the caller's future
/// itself, its output boxed once, when it completes.
pub(crate) trait Body {
    /// Poll the future once; on completion, its output as `dyn Any`.
    fn poll_body(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Box<dyn Any>>;
}

impl<F> Body for F
where
    F: Future,
    F::Output: 'static,
{
    fn poll_body(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Box<dyn Any>> {
        self.poll(cx).map(|out| Box::new(out) as Box<dyn Any>)
    }
}

/// Every process's output, by pid: one table shared by the
/// [`Simulation`](crate::Simulation), which fills a process's entry when it
/// finishes, and every [`ProcessResult`].
pub(crate) type Results = Rc<RefCell<Vec<Option<Box<dyn Any>>>>>;

/// Handle to retrieve a process's return value after the simulation ran.
pub struct ProcessResult<R> {
    pub(crate) pid: ProcessId,
    pub(crate) results: Results,
    pub(crate) output: PhantomData<fn() -> R>,
}

impl<R: 'static> ProcessResult<R> {
    /// Take the return value. Returns `None` if the process never finished
    /// (simulation error) or the value was already taken.
    pub fn take(&self) -> Option<R> {
        let out = self.results.borrow_mut()[self.pid.0].take()?;
        Some(
            *out.downcast::<R>()
                .expect("a process's output has the type it was spawned with"),
        )
    }
}
