//! Outside-in tracing: spans recorded in the benchmark's own files, around
//! the calls into each layer, through delegating wrappers over the public
//! traits the program already takes as parameters.
//!
//! * [`TracedIo`] wraps a transport (`mpk`), [`TracedApp`] an application
//!   (`nbody` / `workloads`), [`TracedNet`] and [`TracedFaults`] the
//!   network and fault models (`netsim`), and [`PollSpan`] times every
//!   `poll` of a future — a rank's whole body, or one transport call. On
//!   the stackless simulator a rank is parked in the kernel between polls,
//!   so the time between polls is the kernel's (`desim`) and is never
//!   charged to the layer that awaited.
//! * Every wrapper carries an `on` flag. Off, a call is a plain
//!   delegation: no clock read, no thread-local access. End-to-end metrics
//!   are measured with every wrapper off.
//! * Spans nest on a per-thread stack; a span's *self* time is its
//!   duration minus the part its children cover. Accumulators cover every
//!   call; full spans (name, start, end, parent, rank, iteration) are kept
//!   for the first [`KEEP_ITERS`] iterations of each rank, up to
//!   [`MAX_SPANS`].

use std::cell::RefCell;
use std::future::Future;
use std::pin::{pin, Pin};
use std::sync::OnceLock;
use std::task::{Context, Poll};
use std::time::Instant;

use desim::{SimDuration, SimTime};
use mpk::{AsyncTransport, Envelope, FaultCounters, Rank, Tag};
use netsim::{Fate, FaultModel, MsgCtx, NetworkModel};
use speccore::{CheckOutcome, History, SpeculativeApp};

/// Full spans are kept while a rank is within its first `KEEP_ITERS`
/// iterations.
pub const KEEP_ITERS: u64 = 50;
/// Hard cap on kept spans, so a 100 000-rank run cannot fill memory.
pub const MAX_SPANS: usize = 100_000;

/// What a span measures. The layer a kind's self time is booked to is
/// decided by the workload (see `Ledger`): `App*` is `nbody` or
/// `workloads`, `RankRun` is the `speccore` driver or the ring body.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Kind {
    /// The whole cluster call. Self time: the `desim` kernel on the
    /// simulator (everything not inside a rank poll).
    Cluster,
    /// The per-rank factory closure: building the app and the rank future.
    RankSetup,
    /// One poll of a rank's future (sim) or the whole rank closure
    /// (thread/socket). Self time: the code driving the app and transport.
    RankRun,
    AppShared,
    AppBegin,
    AppAbsorb,
    AppFinish,
    AppSpeculate,
    AppCheck,
    AppCorrect,
    AppCheckpoint,
    AppRestore,
    IoSend,
    IoTryRecv,
    /// `recv` / `recv_timeout`: one poll on the simulator, the whole
    /// blocking wait on thread/socket.
    IoRecv,
    IoCompute,
    NetDelay,
    NetFate,
}

impl Kind {
    pub const COUNT: usize = Kind::NetFate as usize + 1;

    pub fn name(self) -> &'static str {
        match self {
            Kind::Cluster => "cluster",
            Kind::RankSetup => "rank_setup",
            Kind::RankRun => "rank_run",
            Kind::AppShared => "app.shared",
            Kind::AppBegin => "app.begin_iteration",
            Kind::AppAbsorb => "app.absorb",
            Kind::AppFinish => "app.finish_iteration",
            Kind::AppSpeculate => "app.speculate",
            Kind::AppCheck => "app.check",
            Kind::AppCorrect => "app.correct",
            Kind::AppCheckpoint => "app.checkpoint",
            Kind::AppRestore => "app.restore",
            Kind::IoSend => "mpk.send",
            Kind::IoTryRecv => "mpk.try_recv",
            Kind::IoRecv => "mpk.recv",
            Kind::IoCompute => "mpk.compute",
            Kind::NetDelay => "netsim.delay",
            Kind::NetFate => "netsim.fate",
        }
    }
}

/// Totals of one span kind over a whole run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Acc {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// One kept span. `parent` indexes the same span list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub rank: u32,
    pub iter: u64,
}

struct Open {
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
    kept: Option<u32>,
}

/// One thread's span stack, accumulators and kept spans.
#[derive(Default)]
pub struct Tracer {
    stack: Vec<Open>,
    pub acc: [Acc; Kind::COUNT],
    pub spans: Vec<Span>,
    rank: u32,
    /// Iterations begun so far, per rank.
    iters: Vec<u64>,
}

impl Tracer {
    fn iter_of(&self, rank: u32) -> u64 {
        self.iters.get(rank as usize).copied().unwrap_or(0)
    }

    /// Open a span of `kind` at time `now_ns`.
    pub fn begin(&mut self, kind: Kind, now_ns: u64) {
        let iter = self.iter_of(self.rank);
        let kept = (iter <= KEEP_ITERS && self.spans.len() < MAX_SPANS).then(|| {
            self.spans.push(Span {
                kind,
                start_ns: now_ns,
                end_ns: now_ns,
                parent: self.stack.iter().rev().find_map(|o| o.kept),
                rank: self.rank,
                iter,
            });
            (self.spans.len() - 1) as u32
        });
        self.stack.push(Open {
            kind,
            start_ns: now_ns,
            child_ns: 0,
            kept,
        });
    }

    /// Close the innermost open span at time `now_ns`.
    pub fn end(&mut self, now_ns: u64) {
        let open = self.stack.pop().expect("span end without a begin");
        let dur = now_ns - open.start_ns;
        let acc = &mut self.acc[open.kind as usize];
        acc.calls += 1;
        acc.total_ns += dur;
        acc.self_ns += dur - open.child_ns.min(dur);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.kept {
            self.spans[i as usize].end_ns = now_ns;
        }
    }

    /// Sum of self times over every kind, in nanoseconds. With all spans
    /// closed this equals the total of the root spans: the books close.
    pub fn self_sum_ns(&self) -> u64 {
        self.acc.iter().map(|a| a.self_ns).sum()
    }

    /// True when no span is open.
    pub fn is_closed(&self) -> bool {
        self.stack.is_empty()
    }

    /// Fold another thread's tracer into this one.
    pub fn merge(&mut self, other: Tracer) {
        assert!(other.is_closed(), "merging a tracer with open spans");
        for (a, b) in self.acc.iter_mut().zip(other.acc) {
            a.calls += b.calls;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
        }
        let base = self.spans.len() as u32;
        let room = MAX_SPANS.saturating_sub(self.spans.len());
        self.spans
            .extend(other.spans.into_iter().take(room).map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Nanoseconds since the first clock read of the process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn begin(kind: Kind) {
    let now = now_ns();
    TRACER.with(|t| t.borrow_mut().begin(kind, now));
}

pub fn end() {
    let now = now_ns();
    TRACER.with(|t| t.borrow_mut().end(now));
}

/// Time `f` as a span of `kind` when `on`; otherwise just call it.
#[inline]
pub fn span<R>(on: bool, kind: Kind, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    begin(kind);
    let r = f();
    end();
    r
}

/// Spans opened on this thread from now on belong to `rank`.
pub fn set_rank(rank: u32) {
    TRACER.with(|t| t.borrow_mut().rank = rank);
}

/// The current rank begins its next iteration.
pub fn note_iteration() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let rank = t.rank as usize;
        if t.iters.len() <= rank {
            t.iters.resize(rank + 1, 0);
        }
        t.iters[rank] += 1;
    });
}

/// Take this thread's tracer, leaving a fresh one.
pub fn take() -> Tracer {
    TRACER.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// Drive a future that never suspends (every call of a blocking transport
/// completes inline) — the same one-poll executor `speccore`'s sync entry
/// points use.
pub fn block_on_ready<F: Future>(fut: F) -> F::Output {
    let mut fut = pin!(fut);
    let mut cx = Context::from_waker(std::task::Waker::noop());
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(v) => v,
        Poll::Pending => unreachable!("blocking transport returned Pending"),
    }
}

/// A future adapter that records one span per `poll` of the inner future.
pub struct PollSpan<F> {
    on: bool,
    kind: Kind,
    /// Set for a rank's top-level future: polls switch the current rank.
    rank: Option<u32>,
    fut: F,
}

impl<F: Future + Unpin> PollSpan<F> {
    /// Time each poll of one transport call.
    pub fn op(on: bool, kind: Kind, fut: F) -> Self {
        PollSpan {
            on,
            kind,
            rank: None,
            fut,
        }
    }

    /// Time each poll of rank `rank`'s whole body (the `PollTimer`).
    pub fn rank(on: bool, rank: usize, fut: F) -> Self {
        PollSpan {
            on,
            kind: Kind::RankRun,
            rank: Some(rank as u32),
            fut,
        }
    }
}

impl<F: Future + Unpin> Future for PollSpan<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        if !self.on {
            return Pin::new(&mut self.fut).poll(cx);
        }
        if let Some(rank) = self.rank {
            set_rank(rank);
        }
        begin(self.kind);
        let r = Pin::new(&mut self.fut).poll(cx);
        end();
        r
    }
}

/// A transport that records a span around every call into the one it
/// wraps. Implements only [`AsyncTransport`]; blocking transports come in
/// through `mpk`'s blanket impl and are driven with [`block_on_ready`].
pub struct TracedIo<'a, T> {
    on: bool,
    inner: &'a mut T,
}

impl<'a, T: AsyncTransport> TracedIo<'a, T> {
    pub fn new(on: bool, inner: &'a mut T) -> Self {
        TracedIo { on, inner }
    }
}

impl<T: AsyncTransport> AsyncTransport for TracedIo<'_, T> {
    type Msg = T::Msg;

    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    async fn send(&mut self, to: Rank, tag: Tag, msg: Self::Msg) {
        PollSpan::op(self.on, Kind::IoSend, pin!(self.inner.send(to, tag, msg))).await
    }

    async fn try_recv(&mut self) -> Option<Envelope<Self::Msg>> {
        PollSpan::op(self.on, Kind::IoTryRecv, pin!(self.inner.try_recv())).await
    }

    async fn recv(&mut self) -> Envelope<Self::Msg> {
        PollSpan::op(self.on, Kind::IoRecv, pin!(self.inner.recv())).await
    }

    async fn recv_timeout(&mut self, timeout: SimDuration) -> Option<Envelope<Self::Msg>> {
        PollSpan::op(
            self.on,
            Kind::IoRecv,
            pin!(self.inner.recv_timeout(timeout)),
        )
        .await
    }

    async fn sleep(&mut self, d: SimDuration) {
        self.inner.sleep(d).await
    }

    fn fault_counters(&self) -> FaultCounters {
        self.inner.fault_counters()
    }

    async fn compute(&mut self, ops: u64) {
        PollSpan::op(self.on, Kind::IoCompute, pin!(self.inner.compute(ops))).await
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn note_progress(&mut self, iter: u64) {
        self.inner.note_progress(iter);
    }

    fn recorder(&mut self) -> Option<&mut (dyn obs::Recorder + 'static)> {
        self.inner.recorder()
    }

    async fn broadcast(&mut self, tag: Tag, msg: Self::Msg)
    where
        Self::Msg: Clone,
    {
        // One span per destination, like the per-peer sends the driver
        // issues itself; order is the trait's ascending rank order.
        let (me, n) = (self.rank(), self.size());
        for k in (0..n).filter(|&k| k != me.0) {
            self.send(Rank(k), tag, msg.clone()).await;
        }
    }
}

/// Operation counts the app hooks returned, summed over a run. Kept with
/// the wrapper on or off: they are exact and cost one add per hook.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AppOps {
    pub begin: u64,
    pub absorb: u64,
    pub finish: u64,
}

impl AppOps {
    pub fn add(&mut self, o: AppOps) {
        self.begin += o.begin;
        self.absorb += o.absorb;
        self.finish += o.finish;
    }
}

/// An application that records a span around every hook of the one it
/// wraps.
pub struct TracedApp<A> {
    on: bool,
    pub inner: A,
    pub ops: AppOps,
}

impl<A: SpeculativeApp> TracedApp<A> {
    pub fn new(on: bool, inner: A) -> Self {
        TracedApp {
            on,
            inner,
            ops: AppOps::default(),
        }
    }
}

impl<A: SpeculativeApp> SpeculativeApp for TracedApp<A> {
    type Shared = A::Shared;
    type Checkpoint = A::Checkpoint;

    fn shared(&self) -> A::Shared {
        span(self.on, Kind::AppShared, || self.inner.shared())
    }

    fn begin_iteration(&mut self) -> u64 {
        if self.on {
            note_iteration();
        }
        let ops = span(self.on, Kind::AppBegin, || self.inner.begin_iteration());
        self.ops.begin += ops;
        ops
    }

    fn absorb(&mut self, from: Rank, x: &A::Shared) -> u64 {
        let ops = span(self.on, Kind::AppAbsorb, || self.inner.absorb(from, x));
        self.ops.absorb += ops;
        ops
    }

    fn finish_iteration(&mut self) -> u64 {
        let ops = span(self.on, Kind::AppFinish, || self.inner.finish_iteration());
        self.ops.finish += ops;
        ops
    }

    fn speculate(
        &self,
        from: Rank,
        hist: &History<A::Shared>,
        ahead: u32,
    ) -> Option<(A::Shared, u64)> {
        span(self.on, Kind::AppSpeculate, || {
            self.inner.speculate(from, hist, ahead)
        })
    }

    fn check(&self, from: Rank, actual: &A::Shared, speculated: &A::Shared) -> CheckOutcome {
        span(self.on, Kind::AppCheck, || {
            self.inner.check(from, actual, speculated)
        })
    }

    fn correct(&mut self, from: Rank, speculated: &A::Shared, actual: &A::Shared) -> u64 {
        span(self.on, Kind::AppCorrect, || {
            self.inner.correct(from, speculated, actual)
        })
    }

    fn correct_deep(
        &mut self,
        from: Rank,
        speculated: &A::Shared,
        actual: &A::Shared,
        depth: u64,
    ) -> Option<u64> {
        span(self.on, Kind::AppCorrect, || {
            self.inner.correct_deep(from, speculated, actual, depth)
        })
    }

    fn delta_extract(&self, shared: &A::Shared, out: &mut Vec<f64>) -> bool {
        self.inner.delta_extract(shared, out)
    }

    fn delta_patch(&self, base: &A::Shared, entries: &[(u32, f64)]) -> Option<A::Shared> {
        self.inner.delta_patch(base, entries)
    }

    fn set_speculation_threshold(&mut self, theta: f64) {
        self.inner.set_speculation_threshold(theta);
    }

    fn checkpoint(&self) -> A::Checkpoint {
        span(self.on, Kind::AppCheckpoint, || self.inner.checkpoint())
    }

    fn checkpoint_into(&self, slot: &mut Option<A::Checkpoint>) {
        span(self.on, Kind::AppCheckpoint, || {
            self.inner.checkpoint_into(slot)
        })
    }

    fn restore(&mut self, c: &A::Checkpoint) {
        span(self.on, Kind::AppRestore, || self.inner.restore(c))
    }
}

/// A network model that records a span around every `delay` call.
pub struct TracedNet<N> {
    on: bool,
    inner: N,
}

impl<N: NetworkModel> TracedNet<N> {
    pub fn new(on: bool, inner: N) -> Self {
        TracedNet { on, inner }
    }
}

impl<N: NetworkModel> NetworkModel for TracedNet<N> {
    fn delay(&mut self, ctx: &MsgCtx) -> SimDuration {
        span(self.on, Kind::NetDelay, || self.inner.delay(ctx))
    }
}

/// A fault model that records a span around every `fate` call.
pub struct TracedFaults<F> {
    on: bool,
    inner: F,
}

impl<F: FaultModel> TracedFaults<F> {
    pub fn new(on: bool, inner: F) -> Self {
        TracedFaults { on, inner }
    }
}

impl<F: FaultModel> FaultModel for TracedFaults<F> {
    fn fate(&mut self, ctx: &MsgCtx) -> Fate {
        span(self.on, Kind::NetFate, || self.inner.fate(ctx))
    }
}

/// Write kept spans as a JSON array of objects.
pub fn spans_to_json(spans: &[Span], truncated: bool) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(spans.len() * 96 + 64);
    let _ = write!(out, "{{\"truncated\": {truncated}, \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"rank\": {}, \"iteration\": {}}}",
            s.kind.name(),
            s.start_ns,
            s.end_ns,
            s.rank,
            s.iter
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root(0..100) { a(10..40) { b(20..30) }  c(50..90) }
    fn synthetic_tree() -> Tracer {
        let mut t = Tracer::default();
        t.begin(Kind::Cluster, 0);
        t.begin(Kind::RankRun, 10);
        t.begin(Kind::AppAbsorb, 20);
        t.end(30);
        t.end(40);
        t.begin(Kind::RankRun, 50);
        t.end(90);
        t.end(100);
        t
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = synthetic_tree();
        assert_eq!(
            t.acc[Kind::Cluster as usize],
            Acc {
                calls: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            t.acc[Kind::RankRun as usize],
            Acc {
                calls: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(t.acc[Kind::AppAbsorb as usize].self_ns, 10);
    }

    #[test]
    fn books_close_on_a_synthetic_tree() {
        let t = synthetic_tree();
        assert!(t.is_closed());
        assert_eq!(t.self_sum_ns(), 100, "self times must sum to the root");
    }

    #[test]
    fn kept_spans_link_to_their_parents() {
        let t = synthetic_tree();
        let parents: Vec<_> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert_eq!((t.spans[2].start_ns, t.spans[2].end_ns), (20, 30));
    }

    #[test]
    fn merge_adds_accumulators_and_rebases_parents() {
        let mut a = synthetic_tree();
        a.merge(synthetic_tree());
        assert_eq!(a.self_sum_ns(), 200);
        assert_eq!(a.spans.len(), 8);
        assert_eq!(a.spans[6].parent, Some(5));
    }

    #[test]
    fn wrappers_off_record_nothing() {
        let _ = take();
        let v = span(false, Kind::AppCheck, || 7);
        assert_eq!(v, 7);
        let t = take();
        assert_eq!(t.self_sum_ns(), 0);
        assert!(t.spans.is_empty());
    }
}
