//! The [`Transport`] and [`AsyncTransport`] abstractions every algorithm in
//! this workspace runs on.
//!
//! A transport gives a process its identity (`rank`/`size`), asynchronous
//! sends, blocking and non-blocking receives, a way to *charge* computation
//! (so cost models apply uniformly), and a clock. [`Transport`] is the
//! blocking form the real backends ([`ThreadTransport`](crate::ThreadTransport),
//! [`SocketTransport`](crate::SocketTransport)) implement; [`AsyncTransport`]
//! is the form algorithms are written against, implemented by every
//! `Transport` (futures that never suspend — see [`poll_ready`]) and by the
//! deterministic virtual-time endpoint [`SimIo`](crate::SimIo) used for the
//! paper's experiments.

use desim::{SimDuration, SimTime};
use netsim::MachineCrash;
use obs::Recorder;

use crate::types::{Envelope, FaultCounters, Rank, Tag};

/// A process's connection to its peers.
pub trait Transport {
    /// Message payload type.
    type Msg: Send + 'static;

    /// This process's rank, in `0..size`.
    fn rank(&self) -> Rank;

    /// Number of cooperating processes.
    fn size(&self) -> usize;

    /// Asynchronously send `msg` to `to`. Never blocks; delivery order
    /// between a fixed (src, dst) pair with equal modelled delays is FIFO.
    fn send(&mut self, to: Rank, tag: Tag, msg: Self::Msg);

    /// Take a message if one has already arrived. Never blocks.
    fn try_recv(&mut self) -> Option<Envelope<Self::Msg>>;

    /// Block until a message arrives and take it.
    fn recv(&mut self) -> Envelope<Self::Msg>;

    /// Block until a message arrives or `timeout` elapses, whichever is
    /// first; `None` on timeout. This is the primitive fault-tolerant
    /// drivers build loss detection on: a bounded wait instead of the
    /// deadlock-prone unconditional [`Transport::recv`].
    ///
    /// The default falls back to the blocking receive (no timeout), which
    /// is correct for fault-free transports where every expected message
    /// eventually arrives. Backends with a fault layer override this.
    fn recv_timeout(&mut self, timeout: SimDuration) -> Option<Envelope<Self::Msg>> {
        let _ = timeout;
        Some(self.recv())
    }

    /// Let `d` pass without computing or receiving — a crashed rank's
    /// outage, not work. The default is a no-op (an instantaneous
    /// transport has nothing to wait on); real backends advance their
    /// clock.
    fn sleep(&mut self, d: SimDuration) {
        let _ = d;
    }

    /// What the fault layer did to this rank's sends so far. All zeros on
    /// transports without a fault layer (the default).
    fn fault_counters(&self) -> FaultCounters {
        FaultCounters::default()
    }

    /// This rank's own outages in the cluster's crash plan
    /// ([`FaultSpec::crashes`](crate::FaultSpec::crashes)), in time order:
    /// the same plan the fault layer drops sends to a down rank by. Empty
    /// on transports without a fault layer (the default).
    fn scripted_crashes(&self) -> Vec<MachineCrash> {
        Vec::new()
    }

    /// Perform `ops` operations' worth of computation. On the simulated
    /// backend this advances virtual time by `ops / M_i` (scaled by any
    /// background-load model); on the thread backend it spins real time.
    fn compute(&mut self, ops: u64);

    /// Current time. Virtual on the simulated backend, wall-clock since
    /// cluster start on the thread backend.
    fn now(&self) -> SimTime;

    /// Tell the transport how far this rank's computation has advanced
    /// (highest confirmed iteration). No backend acts on it: the default
    /// is a no-op and none overrides it.
    fn note_progress(&mut self, iter: u64) {
        let _ = iter;
    }

    /// The structured telemetry sink attached to this endpoint, if any.
    ///
    /// Instrumented code emits with `if let Some(r) = t.recorder() { … }`,
    /// so the disabled path is a `None` branch: no allocation, no
    /// formatting, no timing perturbation. Backends that support telemetry
    /// override this; the default is permanently disabled.
    fn recorder(&mut self) -> Option<&mut (dyn Recorder + 'static)> {
        None
    }

    /// Send `msg` to every other rank (requires `Msg: Clone`).
    fn broadcast(&mut self, tag: Tag, msg: Self::Msg)
    where
        Self::Msg: Clone,
    {
        let me = self.rank();
        let n = self.size();
        for k in 0..n {
            if k != me.0 {
                self.send(Rank(k), tag, msg.clone());
            }
        }
    }
}

/// The `async` twin of [`Transport`]: same operations, same contracts, but
/// potentially-blocking calls are `async fn`s.
///
/// This is the single interface the algorithm layer is written against
/// (`speccore::run_speculative_aio`). It has two kinds of implementors:
///
/// * every blocking [`Transport`] — via the blanket impl below, whose
///   futures resolve on first poll because the underlying calls block
///   inline. Polling such a future once can therefore never return
///   `Pending`, which is what lets [`poll_ready`] drive an async driver
///   to completion without an executor.
/// * [`SimIo`](crate::SimIo) — the virtual-time endpoint, whose futures
///   suspend into the `desim` event kernel. Thousands of ranks share one
///   OS thread.
///
/// Non-`async` methods (`rank`, `size`, `now`, `fault_counters`,
/// `scripted_crashes`, `note_progress`, `recorder`) are identical to
/// [`Transport`]'s and keep the same semantics.
#[allow(async_fn_in_trait)] // single-threaded drivers; no Send bound wanted
pub trait AsyncTransport {
    /// Message payload type.
    type Msg: Send + 'static;

    /// This process's rank, in `0..size`.
    fn rank(&self) -> Rank;

    /// Number of cooperating processes.
    fn size(&self) -> usize;

    /// Asynchronously send `msg` to `to`. Resolves without virtual time
    /// passing for the sender; delivery order between a fixed (src, dst)
    /// pair with equal modelled delays is FIFO.
    async fn send(&mut self, to: Rank, tag: Tag, msg: Self::Msg);

    /// Take a message if one has already arrived. Never waits.
    async fn try_recv(&mut self) -> Option<Envelope<Self::Msg>>;

    /// Wait until a message arrives and take it.
    async fn recv(&mut self) -> Envelope<Self::Msg>;

    /// Wait until a message arrives or `timeout` elapses, whichever is
    /// first; `None` on timeout. Same contract as
    /// [`Transport::recv_timeout`], including the default fallback to the
    /// unbounded receive on fault-free transports.
    async fn recv_timeout(&mut self, timeout: SimDuration) -> Option<Envelope<Self::Msg>> {
        let _ = timeout;
        Some(self.recv().await)
    }

    /// Let `d` pass without computing or receiving. Default: no-op.
    async fn sleep(&mut self, d: SimDuration) {
        let _ = d;
    }

    /// What the fault layer did to this rank's sends so far. All zeros on
    /// transports without a fault layer (the default).
    fn fault_counters(&self) -> FaultCounters {
        FaultCounters::default()
    }

    /// This rank's own scripted outages, in time order. Same contract as
    /// [`Transport::scripted_crashes`]; empty by default.
    fn scripted_crashes(&self) -> Vec<MachineCrash> {
        Vec::new()
    }

    /// Perform `ops` operations' worth of computation.
    async fn compute(&mut self, ops: u64);

    /// Current time.
    fn now(&self) -> SimTime;

    /// Report this rank's progress (highest confirmed iteration). No
    /// backend acts on it. Default: no-op.
    fn note_progress(&mut self, iter: u64) {
        let _ = iter;
    }

    /// The structured telemetry sink attached to this endpoint, if any.
    fn recorder(&mut self) -> Option<&mut (dyn Recorder + 'static)> {
        None
    }

    /// Send `msg` to every other rank in ascending rank order (requires
    /// `Msg: Clone`).
    async fn broadcast(&mut self, tag: Tag, msg: Self::Msg)
    where
        Self::Msg: Clone,
    {
        let me = self.rank();
        let n = self.size();
        for k in 0..n {
            if k != me.0 {
                self.send(Rank(k), tag, msg.clone()).await;
            }
        }
    }
}

/// Every blocking [`Transport`] is an [`AsyncTransport`] whose futures
/// resolve on first poll. Every method — including the ones `Transport`
/// defaults — delegates explicitly (via UFCS, so there is no accidental
/// recursion into this impl), which guarantees a backend's overrides of
/// `recv_timeout`/`sleep`/`fault_counters`/`broadcast`/… are honoured.
impl<T: Transport> AsyncTransport for T {
    type Msg = T::Msg;

    fn rank(&self) -> Rank {
        Transport::rank(self)
    }

    fn size(&self) -> usize {
        Transport::size(self)
    }

    async fn send(&mut self, to: Rank, tag: Tag, msg: Self::Msg) {
        Transport::send(self, to, tag, msg);
    }

    async fn try_recv(&mut self) -> Option<Envelope<Self::Msg>> {
        Transport::try_recv(self)
    }

    async fn recv(&mut self) -> Envelope<Self::Msg> {
        Transport::recv(self)
    }

    async fn recv_timeout(&mut self, timeout: SimDuration) -> Option<Envelope<Self::Msg>> {
        Transport::recv_timeout(self, timeout)
    }

    async fn sleep(&mut self, d: SimDuration) {
        Transport::sleep(self, d);
    }

    fn fault_counters(&self) -> FaultCounters {
        Transport::fault_counters(self)
    }

    fn scripted_crashes(&self) -> Vec<MachineCrash> {
        Transport::scripted_crashes(self)
    }

    async fn compute(&mut self, ops: u64) {
        Transport::compute(self, ops);
    }

    fn now(&self) -> SimTime {
        Transport::now(self)
    }

    fn note_progress(&mut self, iter: u64) {
        Transport::note_progress(self, iter);
    }

    fn recorder(&mut self) -> Option<&mut (dyn Recorder + 'static)> {
        Transport::recorder(self)
    }

    async fn broadcast(&mut self, tag: Tag, msg: Self::Msg)
    where
        Self::Msg: Clone,
    {
        Transport::broadcast(self, tag, msg);
    }
}

/// Drive to completion a future that never suspends.
///
/// The blanket [`AsyncTransport`] impl for blocking transports performs
/// every operation inline, so an `async` body over such a transport
/// resolves on its first poll — this is the entire "executor" needed to run
/// code written against [`AsyncTransport`] on the thread and socket
/// backends. `Pending` here would mean the future awaited something other
/// than a blocking transport operation, which is a bug in the body, not a
/// caller error.
pub fn poll_ready<F: std::future::Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let mut cx = std::task::Context::from_waker(std::task::Waker::noop());
    match fut.as_mut().poll(&mut cx) {
        std::task::Poll::Ready(v) => v,
        std::task::Poll::Pending => unreachable!("blocking transport returned Pending"),
    }
}
