//! Real TCP transport backend: ranks are processes (or threads, in
//! loopback mode) exchanging length-prefixed frames over a full mesh of
//! `std::net` sockets.
//!
//! This is the step the paper's PVM setting takes out of the process:
//! delay, batching, and disconnects come from a real network stack
//! instead of an injected model. `recv`, `try_recv`, and the event-driven
//! `recv_timeout` keep the contracts of
//! [`ThreadTransport`](crate::ThreadTransport) — one immediate poll, a
//! zero timeout degrades to it, then waits to one absolute deadline with
//! no polling quantum — which is what makes three-way agreement
//! (sim ≡ thread ≡ socket) under exact semantics provable rather than
//! hoped-for.
//!
//! # Threading model
//!
//! The rank's own thread is the only reader of its sockets. A receive
//! call that finds nothing decoded waits for readiness on every live
//! connection with one `ppoll(2)` (the private `poll` module), reads what
//! the kernel has into that connection's buffer with a single `read`,
//! and parses every complete frame in place; there are no reader threads
//! and no user-space mailbox between the kernel and the caller, so a
//! message costs the receiver no thread wake-up beyond its own. An
//! unsupervised rank is exactly one OS thread.
//!
//! All sockets are non-blocking once the handshake is done. `send`
//! writes the frame from the calling thread; when the kernel's buffers
//! towards that peer are full it does not block in `write` but waits —
//! in the same `ppoll` — for room *or* for inbound data, which it drains
//! into the decoded queue. Two ranks sending each other frames larger
//! than the socket buffers therefore both complete; in-flight bytes per
//! link are bounded by the kernel's buffers, and a `send` to a peer that
//! has stopped reading blocks until it reads or dies (back-pressure, as
//! on any TCP stream). Several threads may write one stream (rank,
//! supervisor); each write half carries a backlog of frame bytes the
//! kernel has not yet taken, and every writer flushes it before its own
//! frame, so frames reach the wire whole and in order and nobody waits
//! while holding a stream's lock.
//!
//! # Wire format
//!
//! Every frame is `[len: u32][version: u8][kind: u8][src: u32][tag: u32]
//! [payload…]`, all little-endian; `len` counts everything after itself
//! and is capped by [`DEFAULT_MAX_FRAME`] — a hostile or corrupt length
//! prefix is a decode failure, never an allocation: receive buffers grow
//! only with bytes that have actually arrived. `kind` is [`KIND_RESUME`]
//! during the handshake and [`KIND_DATA`] after; supervised meshes
//! additionally exchange [`KIND_HEARTBEAT`] liveness probes and
//! [`KIND_GOODBYE`] clean-shutdown notices. Payloads are encoded with
//! [`WireCodec`]. A frame that fails to decode is *dropped*, not
//! surfaced: on a real wire, a corrupt frame is a lost message (the
//! fault-tolerant drivers already treat it exactly like loss).
//!
//! # Handshake
//!
//! Every link — at cold start, on rejoin, on a supervisor's redial — is
//! opened by one function, `dial`, and accepted by one, `admit`, with
//! one handshake: the dialer sends a `RESUME` frame (its rank, the
//! cluster size and an iteration field that is always 0), the acceptor
//! checks it and replies in kind, and the dialer checks that the rank it
//! meant to reach is the one that answered. Every legitimate dial goes
//! from a higher rank to a lower one, so `admit` refuses a dialer that
//! is not a higher rank — and, at cold start, one already admitted — by
//! closing the stream unanswered; a bogus connection never replaces a
//! live link. Handshake reads are exact-length, so the first data frame
//! stays in the socket for the rank.
//!
//! Cold start is deterministic and rank-ordered: rank `r` dials every
//! lower rank (retrying on a jittered exponential backoff while peers
//! are still starting) and then admits one connection from every higher
//! rank. Rank 0 dials no one, so it reaches its accept loop immediately;
//! by induction every dial finds a listening accept loop and the mesh
//! cannot deadlock.
//!
//! # Supervision, reconnect, and rejoin
//!
//! With [`SocketClusterOptions::supervision`] set, every rank keeps its
//! listener alive and runs two more threads, neither of which ever reads
//! a mesh connection:
//!
//! * a **supervisor** that writes a heartbeat frame to every live peer
//!   each interval — so heartbeats flow while the rank computes; a full
//!   socket buffer skips that heartbeat, only a write *error* means the
//!   link is dead — and re-dials dead peers it originally dialed
//!   (`peer < rank`), one `dial` attempt at a time on a jittered
//!   exponential backoff from the heartbeat interval up to the miss
//!   deadline, for as long as the peer stays dead;
//! * an **acceptor** that waits on the listener in `ppoll` and passes
//!   every connection to `admit`. It stays a thread of its own: a junk
//!   dialer can hold a handshake read for up to two seconds, far longer
//!   than the supervisor may go without a heartbeat.
//!
//! Either hands a new connection's read half to the rank through a
//! shared queue and rings a doorbell (a `UnixStream` pair whose read end
//! sits in the rank's `ppoll` set); the rank adopts it, replacing
//! whatever connection it held for that peer. Silence is judged where
//! the bytes are read: after draining, the rank marks a peer suspected
//! once nothing has arrived from it for the miss deadline (catching
//! *silent* peers, not just EOF/RST), and every wait is clamped to the
//! next such moment — so a rank returning from a long `compute` never
//! suspects a peer whose heartbeats were sitting unread.
//!
//! Because reconnect duty follows the original dial direction (higher
//! rank dials lower), a restarted process calling
//! [`rejoin_socket_cluster`] re-dials exactly its original dialees and
//! is re-dialed by its original dialers — the same induction that makes
//! cold start deadlock-free covers rejoin. It then waits on its doorbell,
//! bounded by the connect timeout, for those redials to land.
//!
//! A transport that is *dropped* (orderly exit) first writes a `GOODBYE`
//! frame on every connection and half-closes it, then keeps reading for
//! a short bound until peers close too, so the kernel ends the
//! connection with a FIN rather than a reset over unread bytes. Peers
//! record a clean departure instead of a crash; only a connection that
//! dies without a goodbye (RST, EOF, or heartbeat silence) feeds the
//! crash path.
//!
//! # Faults and disconnects
//!
//! [`run_socket_cluster_with_faults`] puts every send through the fault
//! gate all three backends share (a [`FaultSpec`] and its counters) and
//! applies the verdict at the frame layer of the *sender*: a dropped
//! frame is never written, a duplicated one is written again, and a
//! corrupted one has a byte of its encoded payload flipped before the
//! write. A peer that disconnects without a goodbye is surfaced as a
//! [`Mark::PeerCrashed`] event and the transport keeps working — no
//! peer-controlled input panics the rank, and bounded waits keep
//! expiring — which feeds the same crash/recovery path the
//! fault-tolerant driver already handles.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use desim::{SimDuration, SimTime};
use netsim::MachineCrash;
use obs::{Mark, Recorder};
use parking_lot::Mutex;

use crate::backoff::Backoff;
use crate::clock::WallClock;
use crate::codec::WireCodec;
use crate::faults::{FaultSpec, SharedGate, Verdict};
use crate::frame::{
    bad_data, encode_frame, read_resume, write_resume, FrameReader, DEFAULT_MAX_FRAME,
    FRAME_OVERHEAD, KIND_DATA, KIND_GOODBYE, KIND_HEARTBEAT,
};
use crate::poll::{wait_ready, PollFd, POLLIN, POLLOUT};
use crate::tap::Tap;
use crate::threads::on_rank_threads;
use crate::transport::Transport;
use crate::types::{Envelope, FaultCounters, Rank, Tag, WireSize, HEADER_BYTES};

/// How long a freshly-accepted or freshly-dialed connection may stall
/// mid-handshake before it is dropped. Bounds every blocking handshake
/// read so a silent dialer cannot wedge establish, the acceptor, or a
/// supervisor redial.
const HANDSHAKE_READ_TIMEOUT: Duration = Duration::from_secs(2);

/// How long a dropped transport keeps reading after its goodbye, waiting
/// for peers to close their side.
const LINGER: Duration = Duration::from_millis(250);

/// Supervision cadence: how often heartbeats go out and how long a
/// silent peer is trusted. The redial schedule of a dead link follows
/// from the two: a jittered doubling from `heartbeat_interval` up to
/// `miss_deadline`, for as long as the peer stays dead.
#[derive(Clone, Debug)]
pub struct SupervisorOptions {
    /// Interval between heartbeat probes to every live peer; the
    /// supervisor also looks at dead links once per interval.
    pub heartbeat_interval: Duration,
    /// A peer silent (no data, no heartbeat) for longer than this is
    /// reported suspected. Should be several heartbeat intervals.
    pub miss_deadline: Duration,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            heartbeat_interval: Duration::from_millis(25),
            miss_deadline: Duration::from_millis(150),
        }
    }
}

/// The schedule on which `me`'s supervisor redials a dead link to `peer`.
/// It starts at the heartbeat interval, since the supervisor looks at
/// dead links only once per interval, and doubles up to the miss
/// deadline. Its jitter is seeded by the two ranks, so simultaneous
/// redialers drift apart deterministically. There is no retry budget:
/// a dead peer costs one refused `connect` per miss deadline.
fn redial_backoff(sup: &SupervisorOptions, me: usize, peer: usize) -> Backoff {
    let seed = ((me as u64) << 32) ^ peer as u64;
    Backoff::new(sup.heartbeat_interval, sup.miss_deadline, seed)
}

/// The wall clock a cluster entry point builds first, so that unusable
/// options stop the caller before any listener binds or rank runs. A
/// supervisor cadence is unusable when its heartbeat interval is zero —
/// the supervisor's heartbeat loop and the acceptor's wait would spin —
/// or when its miss deadline is within one interval, which a live, idle
/// peer crosses between two heartbeats.
fn checked_clock(opts: &SocketClusterOptions) -> WallClock {
    if let Some(sup) = &opts.supervision {
        let (interval, miss) = (sup.heartbeat_interval, sup.miss_deadline);
        assert!(
            !interval.is_zero(),
            "supervisor option `heartbeat_interval` must be positive"
        );
        assert!(
            miss > interval,
            "supervisor option `miss_deadline` ({miss:?}) must exceed `heartbeat_interval` ({interval:?})"
        );
    }
    WallClock::new(opts.mips)
}

/// Configuration of a socket-backed cluster.
#[derive(Clone, Debug)]
pub struct SocketClusterOptions {
    /// Nominal speed for [`Transport::compute`], in million ops per
    /// second (matches
    /// [`ThreadClusterOptions::mips`](crate::ThreadClusterOptions::mips)).
    pub mips: f64,
    /// How long a joining rank keeps dialing lower ranks that are not
    /// yet listening before giving up (and how long a rejoining rank
    /// waits to be re-dialed). Loopback clusters connect instantly; the
    /// slack exists for multi-process starts from separate terminals.
    pub connect_timeout: Duration,
    /// Peer supervision (heartbeats, silence detection, reconnect,
    /// rejoin acceptance). `None` — the default — reproduces the
    /// unsupervised PR 6/7 behavior bit for bit.
    pub supervision: Option<SupervisorOptions>,
}

impl Default for SocketClusterOptions {
    fn default() -> Self {
        SocketClusterOptions {
            mips: 1000.0,
            connect_timeout: Duration::from_secs(30),
            supervision: None,
        }
    }
}

/// Write as much of `bytes` as the kernel takes without blocking and
/// return how much that was.
fn write_some(stream: &mut TcpStream, bytes: &[u8]) -> std::io::Result<usize> {
    let mut done = 0;
    while done < bytes.len() {
        match stream.write(&bytes[done..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => done += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(done)
}

/// The write half of one connection. Every writer of the stream — the
/// rank's `send`, the supervisor's heartbeat, `Drop`'s goodbye — goes
/// through [`Link::write_frame`] or [`Link::offer`] under the
/// `Shared::writers` lock, and neither ever blocks: what the kernel will
/// not take joins `backlog`, which the next writer flushes before its own
/// frame. Frames therefore reach the wire whole and in order.
struct Link {
    stream: TcpStream,
    /// Frame bytes accepted from a writer that the kernel has not taken
    /// yet; `backlog[flushed..]` is still to be written.
    backlog: Vec<u8>,
    flushed: usize,
}

impl Link {
    fn new(stream: TcpStream) -> Self {
        Link {
            stream,
            backlog: Vec::new(),
            flushed: 0,
        }
    }

    /// Push the backlog at the kernel; `Ok(true)` once none is left.
    fn flush(&mut self) -> std::io::Result<bool> {
        self.flushed += write_some(&mut self.stream, &self.backlog[self.flushed..])?;
        if self.flushed == self.backlog.len() {
            self.backlog.clear();
            self.flushed = 0;
        }
        Ok(self.backlog.is_empty())
    }

    /// Put `frame` on the stream behind whatever is already queued;
    /// `Ok(true)` if all of it is in the kernel, `Ok(false)` if the rest
    /// waits in the backlog for a later [`Link::flush`].
    fn write_frame(&mut self, frame: &[u8]) -> std::io::Result<bool> {
        let taken = if self.flush()? {
            write_some(&mut self.stream, frame)?
        } else {
            0
        };
        self.backlog.extend_from_slice(&frame[taken..]);
        Ok(self.backlog.is_empty())
    }

    /// [`Link::write_frame`] for a writer that can do without: `frame` is
    /// skipped (`Ok(false)`) while earlier bytes are still queued, so
    /// heartbeats never pile up behind a peer that is not reading.
    fn offer(&mut self, frame: &[u8]) -> std::io::Result<bool> {
        if !self.flush()? {
            return Ok(false);
        }
        self.write_frame(frame)?;
        Ok(true)
    }
}

/// State shared between the transport and, under supervision, the
/// supervisor and acceptor threads.
struct Shared {
    rank: usize,
    size: usize,
    /// Write halves of the mesh, by peer rank (`None` for self and for
    /// peers whose connection is down).
    writers: Vec<Mutex<Option<Link>>>,
    /// Read halves of connections installed since the rank last looked,
    /// with the peer each belongs to. Only the rank reads a connection;
    /// whoever establishes one leaves its read half here and rings
    /// `bell`.
    handoff: Mutex<Vec<(usize, TcpStream)>>,
    /// Write end of the doorbell whose read end is in the rank's poll set.
    bell: UnixStream,
    /// Peers that said goodbye: the supervisor neither probes nor
    /// re-dials them.
    departed: Vec<AtomicBool>,
    shutdown: AtomicBool,
}

impl Shared {
    /// The shared state plus the doorbell's read end, which the transport
    /// keeps to itself.
    fn new(rank: usize, size: usize) -> std::io::Result<(Arc<Self>, UnixStream)> {
        let (bell, bell_rx) = UnixStream::pair()?;
        bell.set_nonblocking(true)?;
        bell_rx.set_nonblocking(true)?;
        let shared = Shared {
            rank,
            size,
            writers: (0..size).map(|_| Mutex::new(None)).collect(),
            handoff: Mutex::new(Vec::new()),
            bell,
            departed: (0..size).map(|_| AtomicBool::new(false)).collect(),
            shutdown: AtomicBool::new(false),
        };
        Ok((Arc::new(shared), bell_rx))
    }

    /// Whether some higher rank — one that dials us — has no link yet.
    fn awaiting_dialers(&self) -> bool {
        (self.rank + 1..self.size).any(|p| self.writers[p].lock().is_none())
    }
}

/// Install a handshaken connection to `peer`: make it non-blocking, swap
/// in the write half, and hand the read half to the rank, which on
/// adopting it drops whatever connection it held for `peer` before.
fn install_connection(shared: &Shared, peer: usize, stream: TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(true)?;
    let reader = stream.try_clone()?;
    shared.departed[peer].store(false, AtomicOrdering::Relaxed);
    *shared.writers[peer].lock() = Some(Link::new(stream));
    shared.handoff.lock().push((peer, reader));
    // A full doorbell already has a wake-up pending.
    let _ = (&shared.bell).write(&[1]);
    Ok(())
}

/// Open a link to `peer` at `addr` as `shared.rank`: connect, send our
/// `RESUME` and check that `peer` is the rank that answers. Attempts
/// repeat on a jittered backoff until `deadline`; one already past allows
/// exactly one. Cold start, rejoin and the supervisor's redial all open
/// their links here.
fn dial(
    shared: &Shared,
    peer: usize,
    addr: SocketAddr,
    deadline: Instant,
) -> std::io::Result<TcpStream> {
    let seed = (shared.rank as u64) << 16 | peer as u64;
    let mut backoff = Backoff::new(
        Duration::from_millis(2),
        Duration::from_millis(250),
        seed ^ 0x5bd1_e995,
    );
    loop {
        let attempt = (|| -> std::io::Result<TcpStream> {
            let mut s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(HANDSHAKE_READ_TIMEOUT))?;
            write_resume(&mut s, shared.rank, shared.size)?;
            let (replied, _) = read_resume(&mut s, shared.size)?;
            if replied != peer {
                return Err(bad_data(format!(
                    "dialed rank {peer} but rank {replied} answered"
                )));
            }
            s.set_read_timeout(None)?;
            Ok(s)
        })();
        let now = Instant::now();
        match attempt {
            Ok(s) => return Ok(s),
            Err(e) if now >= deadline => {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    format!(
                        "dialing rank {peer} at {addr} gave up after {} attempts: {e}",
                        backoff.attempts() + 1
                    ),
                ));
            }
            Err(_) => std::thread::sleep(backoff.next_delay().min(deadline - now)),
        }
    }
}

/// Admit the inbound connection `s`: read the dialer's `RESUME`, check
/// that it may dial us, reply with ours and install the link. Every
/// legitimate dial goes from a higher rank to a lower one, so the dialer
/// must be a higher rank — and during cold start one not admitted yet.
/// Anything else is peer-controlled input, never fatal: the stream is
/// closed unanswered and the mesh is left as it was. `establish`'s
/// accept loop and the acceptor thread both admit here.
fn admit(shared: &Shared, mut s: TcpStream, cold_start: bool) {
    let handshake = (|| -> std::io::Result<usize> {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(HANDSHAKE_READ_TIMEOUT))?;
        let (peer, _) = read_resume(&mut s, shared.size)?;
        if peer <= shared.rank || cold_start && shared.writers[peer].lock().is_some() {
            return Err(bad_data(format!(
                "rank {peer} may not dial rank {}",
                shared.rank
            )));
        }
        write_resume(&mut s, shared.rank, shared.size)?;
        s.set_read_timeout(None)?;
        Ok(peer)
    })();
    if let Ok(peer) = handshake {
        // A connection that cannot be installed is dropped like a refused
        // one.
        let _ = install_connection(shared, peer, s);
    }
}

/// The supervisor thread: heartbeats to live peers and backoff-bounded
/// reconnects toward peers this rank originally dialed (`peer < rank`).
/// It writes and dials; it never reads a mesh connection and never waits
/// for socket-buffer space.
fn spawn_supervisor(shared: Arc<Shared>, sup: SupervisorOptions, addrs: Vec<SocketAddr>) {
    std::thread::spawn(move || {
        let me = shared.rank;
        let size = shared.size;
        // Per-peer reconnect schedule: backoff and next-attempt time.
        let mut redial: Vec<Option<(Backoff, Instant)>> = (0..size).map(|_| None).collect();
        let mut hb = Vec::with_capacity(FRAME_OVERHEAD);
        encode_frame(&mut hb, KIND_HEARTBEAT, me as u32, 0, &|_| {});
        loop {
            std::thread::sleep(sup.heartbeat_interval);
            if shared.shutdown.load(AtomicOrdering::Relaxed) {
                return;
            }
            for peer in 0..size {
                if peer == me || shared.departed[peer].load(AtomicOrdering::Relaxed) {
                    continue;
                }
                let alive = {
                    let mut w = shared.writers[peer].lock();
                    match w.as_mut().map(|link| link.offer(&hb)) {
                        // A full buffer (`Ok(false)`) is a peer that is
                        // busy, not dead: skip this heartbeat.
                        Some(Ok(_)) => true,
                        // Dead write half: drop it; the rank reports the
                        // crash when its read half fails.
                        Some(Err(_)) => {
                            *w = None;
                            false
                        }
                        None => false,
                    }
                };
                if alive {
                    redial[peer] = None;
                } else if peer < me {
                    // Reconnect duty follows the original dial
                    // direction, so a restarted peer is re-dialed by
                    // exactly the ranks that dialed it at cold start.
                    let (bo, next_at) = redial[peer]
                        .get_or_insert_with(|| (redial_backoff(&sup, me, peer), Instant::now()));
                    if Instant::now() < *next_at {
                        continue;
                    }
                    let up = dial(&shared, peer, addrs[peer], Instant::now())
                        .and_then(|stream| install_connection(&shared, peer, stream));
                    if up.is_ok() {
                        redial[peer] = None;
                    } else {
                        *next_at = Instant::now() + bo.next_delay();
                    }
                }
            }
        }
    });
}

/// The acceptor thread: admits every connection after cold start — a
/// restarted peer's rejoin or a supervisor's redial — back into the mesh.
/// It waits for dialers in `ppoll`, waking every `tick` to notice
/// shutdown. (On Linux an accepted socket does not inherit the listener's
/// `O_NONBLOCK`, so `admit`'s handshake reads block as they should.)
fn spawn_acceptor(shared: Arc<Shared>, listener: TcpListener, tick: Duration) {
    std::thread::spawn(move || {
        if listener.set_nonblocking(true).is_err() {
            return;
        }
        let mut ready = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        while !shared.shutdown.load(AtomicOrdering::Relaxed) {
            match listener.accept() {
                Ok((s, _)) => admit(&shared, s, false),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    wait_ready(&mut ready, Some(tick));
                }
                // Out of descriptors, say: the dialer stays queued and
                // the listener ready, so wait a tick instead of spinning.
                Err(_) => {
                    wait_ready(&mut [], Some(tick));
                }
            }
        }
    });
}

/// A rank's endpoint on a socket-backed cluster.
pub struct SocketTransport<M> {
    rank: Rank,
    size: usize,
    opts: SocketClusterOptions,
    shared: Arc<Shared>,
    clock: WallClock,
    tap: Tap,
    /// One gate per process: loopback mode shares it across ranks, like
    /// the thread backend; multi-process mode gives each process its own.
    faults: SharedGate,
    /// Read halves of the mesh, by peer rank: this thread is their only
    /// reader.
    conns: Vec<Option<FrameReader<TcpStream>>>,
    /// Read end of the doorbell `install_connection` rings.
    bell: UnixStream,
    /// Messages decoded and not yet handed to the caller, in arrival
    /// order.
    ready: VecDeque<Envelope<M>>,
    /// The poll set, kept for its allocation.
    pollfds: Vec<PollFd>,
    /// When the last bytes arrived from each peer (tracked under
    /// supervision only).
    last_heard: Vec<Instant>,
    /// Frame bytes actually written to the wire by this rank.
    bytes_sent: u64,
    bytes_received: u64,
    timed_waits: u64,
    /// Peers whose connection has been observed down (membership events
    /// already emitted).
    peer_down: Vec<bool>,
    /// Peers that departed cleanly (subset of `peer_down`).
    peer_departed: Vec<bool>,
    /// Peers silent past the miss deadline on a connection still up.
    peer_suspected: Vec<bool>,
    scratch: Vec<u8>,
}

impl<M> SocketTransport<M> {
    /// A transport over whatever connections `shared` holds so far.
    fn new(
        opts: SocketClusterOptions,
        shared: Arc<Shared>,
        bell: UnixStream,
        faults: SharedGate,
        clock: WallClock,
    ) -> Self {
        let size = shared.size;
        let mut t = SocketTransport {
            rank: Rank(shared.rank),
            size,
            opts,
            tap: Tap::new(Rank(shared.rank)),
            shared,
            clock,
            faults,
            conns: (0..size).map(|_| None).collect(),
            bell,
            ready: VecDeque::new(),
            pollfds: Vec::with_capacity(size + 1),
            last_heard: vec![Instant::now(); size],
            bytes_sent: 0,
            bytes_received: 0,
            timed_waits: 0,
            peer_down: vec![false; size],
            peer_departed: vec![false; size],
            peer_suspected: vec![false; size],
            scratch: Vec::new(),
        };
        t.adopt();
        t
    }

    /// Join the mesh as `rank` from an already-bound listener and the full
    /// address list (`addrs[rank]` is this process's own listener): dial
    /// every lower rank, then — at cold start, when `rejoin` is false —
    /// admit every higher one. A rejoin leaves the higher ranks to redial
    /// it instead.
    fn establish(
        rank: usize,
        listener: TcpListener,
        addrs: &[SocketAddr],
        opts: SocketClusterOptions,
        faults: SharedGate,
        clock: WallClock,
        rejoin: bool,
    ) -> std::io::Result<Self> {
        let (shared, bell) = Shared::new(rank, addrs.len())?;
        let deadline = Instant::now() + opts.connect_timeout;

        // Dial every lower rank, in rank order. Failures here are fatal:
        // these are *our* configured peers, so a broken dial means the
        // cluster spec is wrong or the peer is down, and the handshake
        // read timeout bounds how long a stalled accept side can hold us.
        for (peer, &addr) in addrs.iter().enumerate().take(rank) {
            install_connection(&shared, peer, dial(&shared, peer, addr, deadline)?)?;
        }
        // Admit every higher rank. Each inbound connection is
        // peer-controlled input: `admit` drops and counts a bad one
        // rather than tear down this rank's whole establish (which would
        // cascade into the cluster harness as a panic).
        while !rejoin && shared.awaiting_dialers() {
            admit(&shared, listener.accept()?.0, true);
        }
        if let Some(sup) = opts.supervision.clone() {
            spawn_acceptor(Arc::clone(&shared), listener, sup.heartbeat_interval);
            spawn_supervisor(Arc::clone(&shared), sup, addrs.to_vec());
        }
        // Without supervision the listener drops here.
        Ok(SocketTransport::new(opts, shared, bell, faults, clock))
    }

    /// Bind `addrs[rank]` and [`establish`](Self::establish) this
    /// process's rank of a multi-process mesh.
    fn join(
        rank: usize,
        addrs: &[SocketAddr],
        opts: SocketClusterOptions,
        rejoin: bool,
    ) -> std::io::Result<Self> {
        let size = addrs.len();
        assert!(rank < size, "rank {rank} out of range for {size} peers");
        let clock = checked_clock(&opts);
        let listener = TcpListener::bind(addrs[rank])?;
        let faults = SharedGate::default();
        Self::establish(rank, listener, addrs, opts, faults, clock, rejoin)
    }

    /// Attach a structured telemetry sink for this rank; same contract as
    /// [`ThreadTransport::set_recorder`](crate::ThreadTransport::set_recorder).
    pub fn set_recorder(&mut self, rec: Box<dyn Recorder>) {
        self.tap.attach(rec);
    }

    /// How many times this rank's timed receives have blocked in
    /// `ppoll`. A timeout that expires on a silent wire costs exactly one
    /// block — the wait has no polling quantum to re-wake on — which is
    /// the same zero-spin property
    /// [`ThreadTransport::timed_waits`](crate::ThreadTransport::timed_waits)
    /// counts in condvar blocks. Every frame that arrives during a wait
    /// (a heartbeat included) ends one block.
    pub fn timed_waits(&self) -> u64 {
        self.timed_waits
    }

    /// Actual frame bytes this rank has written to and read from the
    /// wire for data frames, including framing overhead:
    /// `(sent, received)`. Control frames (heartbeats, handshakes,
    /// goodbyes) are not counted.
    pub fn bytes_on_wire(&self) -> (u64, u64) {
        (self.bytes_sent, self.bytes_received)
    }

    /// Tear down every connection abruptly — no goodbye frames — so
    /// peers observe crash semantics. Test-only stand-in for SIGKILL.
    #[cfg(test)]
    fn simulate_crash(&mut self) {
        for w in &self.shared.writers {
            if let Some(link) = w.lock().take() {
                let _ = link.stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// Mark a membership event, now.
    fn mark_peer(&mut self, mark: Mark) {
        self.tap.mark(|| self.clock.now_ns(), mark);
    }

    /// Record a peer's disconnect exactly once. A peer that said
    /// goodbye departed cleanly; anything else is the crash-model event
    /// the recovery path consumes.
    fn note_peer_gone(&mut self, peer: Rank) {
        if self.peer_down[peer.0] {
            return;
        }
        self.peer_down[peer.0] = true;
        self.peer_suspected[peer.0] = false;
        if self.peer_departed[peer.0] {
            return; // goodbye already marked the departure
        }
        self.mark_peer(Mark::PeerCrashed {
            peer: peer.0 as u32,
        });
    }

    fn note_peer_departed(&mut self, peer: Rank) {
        if self.peer_departed[peer.0] {
            return;
        }
        self.peer_departed[peer.0] = true;
        self.peer_down[peer.0] = true;
        self.peer_suspected[peer.0] = false;
        self.shared.departed[peer.0].store(true, AtomicOrdering::Relaxed);
        self.mark_peer(Mark::PeerDeparted {
            peer: peer.0 as u32,
        });
    }

    fn note_peer_back(&mut self, peer: Rank) {
        let was_down = self.peer_down[peer.0];
        self.peer_down[peer.0] = false;
        self.peer_departed[peer.0] = false;
        self.peer_suspected[peer.0] = false;
        if was_down {
            self.mark_peer(Mark::PeerRecovered {
                peer: peer.0 as u32,
            });
        }
    }

    /// Answer the doorbell: take over the read half of every connection
    /// installed since the last look. An adopted connection replaces the
    /// one held for that peer, whose death — noticed or not — can then no
    /// longer shadow the live one.
    fn adopt(&mut self) {
        // Level-triggered: rings left unread wake the next poll again.
        let _ = (&self.bell).read(&mut [0u8; 64]);
        let arrivals = std::mem::take(&mut *self.shared.handoff.lock());
        for (peer, stream) in arrivals {
            self.conns[peer] = Some(FrameReader::new(stream));
            self.last_heard[peer] = Instant::now();
            self.note_peer_back(Rank(peer));
        }
    }

    /// Under supervision, every watched peer — connection up, not yet
    /// suspected — with how much longer it may stay silent before it
    /// crosses the miss deadline (zero: it has). Empty without.
    fn silence_budgets(&self) -> impl Iterator<Item = (usize, Duration)> + '_ {
        let miss = self.opts.supervision.as_ref().map(|s| s.miss_deadline);
        miss.into_iter().flat_map(move |miss| {
            let now = Instant::now();
            (0..self.size)
                .filter(|&p| {
                    self.conns[p].is_some() && !self.peer_down[p] && !self.peer_suspected[p]
                })
                .map(move |p| {
                    let silent = now.saturating_duration_since(self.last_heard[p]);
                    (p, miss.saturating_sub(silent))
                })
        })
    }

    /// Mark every watched peer whose silence has run past the miss
    /// deadline. Called once the sockets are drained, so bytes that sat
    /// unread while the rank computed count as heard.
    fn suspect_silent_peers(&mut self) {
        loop {
            let overdue = self.silence_budgets().find(|(_, left)| left.is_zero());
            let Some((peer, _)) = overdue else {
                return;
            };
            self.peer_suspected[peer] = true;
            self.mark_peer(Mark::PeerSuspected { peer: peer as u32 });
        }
    }
}

impl<M: WireCodec> SocketTransport<M> {
    /// One pass of the receive path: wait up to `timeout` (`None`:
    /// indefinitely) for any connection to become readable — or
    /// `writable`, a descriptor a `send` is waiting to write to, to take
    /// bytes — then read each ready connection once, decode every frame
    /// that completed into `ready`, adopt handed-over connections, and
    /// judge silence.
    fn pump(&mut self, timeout: Option<Duration>, writable: Option<RawFd>) {
        let mut fds = std::mem::take(&mut self.pollfds);
        fds.clear();
        fds.push(PollFd::new(self.bell.as_raw_fd(), POLLIN));
        let live = self.conns.iter().flatten();
        fds.extend(live.map(|c| PollFd::new(c.src.as_raw_fd(), POLLIN)));
        fds.extend(writable.map(|fd| PollFd::new(fd, POLLOUT)));
        // A wait ends no later than the next peer's miss deadline.
        let next_suspicion = self.silence_budgets().map(|(_, left)| left).min();
        let timeout = match (timeout, next_suspicion) {
            (Some(t), Some(n)) => Some(t.min(n)),
            (t, n) => t.or(n),
        };
        if wait_ready(&mut fds, timeout) > 0 {
            // `fds[1..]` lists the live connections in rank order;
            // draining one touches no other, and adoption comes last.
            let mut slots = fds[1..].iter();
            for peer in 0..self.size {
                if self.conns[peer].is_some() && slots.next().is_some_and(PollFd::is_ready) {
                    self.drain(peer);
                }
            }
            if fds[0].is_ready() {
                self.adopt();
            }
        }
        self.pollfds = fds;
        self.suspect_silent_peers();
    }

    /// Read `peer`'s connection once and handle every complete frame.
    /// Nothing here may panic: EOF, reset and garbage all reduce to
    /// "frame dropped", "peer departed" (goodbye) or "peer gone" (crash),
    /// and a connection that ends either way is dropped on return.
    fn drain(&mut self, peer: usize) {
        let Some(mut conn) = self.conns[peer].take() else {
            return;
        };
        match conn.read_some(usize::MAX) {
            Ok(n) if n > 0 => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                self.conns[peer] = Some(conn);
                return;
            }
            // EOF or connection error without a goodbye: the peer is
            // gone. Bounded waits keep expiring and the driver's crash
            // path takes over.
            _ => return self.note_peer_gone(Rank(peer)),
        }
        if self.opts.supervision.is_some() {
            self.last_heard[peer] = Instant::now();
        }
        self.peer_suspected[peer] = false;
        loop {
            let (kind, src, tag, payload) = match conn.pop(DEFAULT_MAX_FRAME) {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => return self.note_peer_gone(Rank(peer)),
            };
            if src as usize != peer {
                // A frame claiming another origin on a point-to-point
                // connection is corruption: dropped.
                continue;
            }
            match kind {
                KIND_GOODBYE => return self.note_peer_departed(Rank(peer)),
                KIND_DATA => {
                    self.bytes_received += (FRAME_OVERHEAD + payload.len()) as u64;
                    // A corrupt payload is a lost frame, exactly like a
                    // datagram failing its checksum.
                    if let Some(msg) = crate::codec::decode_exact::<M>(payload) {
                        self.ready.push_back(Envelope {
                            src: Rank(peer),
                            tag: Tag(tag),
                            msg,
                        });
                    }
                }
                // A heartbeat has done its work by arriving (`last_heard`
                // above).
                _ => {}
            }
        }
        self.conns[peer] = Some(conn);
    }
}

impl<M: WireSize> SocketTransport<M> {
    /// Mark `env` as handed to the caller, counting its real frame
    /// header — and as what ended a timed wait armed at `armed`, if one
    /// was in progress.
    fn mark_recv(&mut self, env: &Envelope<M>, armed: Option<Instant>) {
        let armed_ns = armed.map(|at| self.clock.ns_at(at));
        self.tap
            .received(|| self.clock.now_ns(), env, FRAME_OVERHEAD, armed_ns);
    }
}

impl<M: WireCodec + WireSize + Clone + Send + 'static> Transport for SocketTransport<M> {
    type Msg = M;

    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, to: Rank, tag: Tag, msg: M) {
        assert!(to.0 < self.size, "send to out-of-range rank {to}");
        assert_ne!(to, self.rank, "self-sends are not modelled");
        // The fault layer reasons in modelled bytes (payload + modelled
        // header), like the other backends; wire marks below use real
        // frame bytes.
        let model_bytes = msg.wire_size() + HEADER_BYTES;
        let verdict = self.faults.admit(self.rank, to, model_bytes, &self.clock);
        let Verdict::Deliver { copies, flip } = verdict else {
            self.tap
                .fated(|| self.clock.now_ns(), to, model_bytes, verdict);
            return;
        };

        let mut scratch = std::mem::take(&mut self.scratch);
        encode_frame(&mut scratch, KIND_DATA, self.rank.0 as u32, tag.0, &|out| {
            msg.encode(out)
        });
        // A corruption fate flips one byte of the encoded payload before
        // the write: the receiver either decodes a perturbed value or
        // drops the frame as undecodable.
        if let Some(hit) = flip {
            if scratch.len() > FRAME_OVERHEAD {
                let span = scratch.len() - FRAME_OVERHEAD;
                scratch[FRAME_OVERHEAD + hit as usize % span] ^= 0xA5;
            }
        }

        let frame_bytes = scratch.len();
        // Hand the frame (and its duplicates) to the link once, then flush
        // until the kernel has all of it. When the buffers towards `to`
        // are full, wait for room — lock released — while receiving:
        // nobody drains our sockets behind our back, and two ranks stuck
        // here facing each other empty each other's buffers.
        let mut queued = false;
        let wrote = loop {
            let mut w = self.shared.writers[to.0].lock();
            let Some(link) = w.as_mut() else {
                break false;
            };
            let progress = if queued {
                link.flush()
            } else {
                queued = true;
                (0..=copies).try_fold(true, |_, _| link.write_frame(&scratch))
            };
            match progress {
                Ok(true) => break true,
                Ok(false) => {
                    let fd = link.stream.as_raw_fd();
                    drop(w);
                    self.pump(None, Some(fd));
                }
                Err(_) => {
                    *w = None;
                    break false;
                }
            }
        };
        self.scratch = scratch;

        if wrote {
            self.bytes_sent += frame_bytes as u64 * u64::from(copies + 1);
            self.tap
                .fated(|| self.clock.now_ns(), to, frame_bytes, verdict);
        } else {
            // The connection is gone (or already marked down): the frame
            // is lost on the floor, like a datagram to a dead host. Read
            // what the peer left first, so a goodbye it sent before
            // closing counts as a departure, not a crash.
            self.pump(Some(Duration::ZERO), None);
            self.note_peer_gone(to);
            self.tap.lost(|| self.clock.now_ns(), to, frame_bytes);
        }
    }

    fn try_recv(&mut self) -> Option<Envelope<M>> {
        if self.ready.is_empty() {
            self.pump(Some(Duration::ZERO), None);
        }
        let env = self.ready.pop_front()?;
        self.mark_recv(&env, None);
        Some(env)
    }

    fn recv(&mut self) -> Envelope<M> {
        loop {
            if let Some(env) = self.ready.pop_front() {
                self.mark_recv(&env, None);
                return env;
            }
            self.pump(None, None);
        }
    }

    fn recv_timeout(&mut self, timeout: SimDuration) -> Option<Envelope<M>> {
        // Same discipline as the thread backend: one immediate poll, a
        // zero timeout degrades to that poll, then waits to one absolute
        // deadline. Heartbeats and membership changes end a wait early
        // but cost the budget no precision — it resumes to the same
        // deadline.
        if let Some(env) = self.try_recv() {
            return Some(env);
        }
        if timeout == SimDuration::ZERO {
            return None;
        }
        let armed = Instant::now();
        let deadline = armed + Duration::from_nanos(timeout.as_nanos());
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                let armed_ns = self.clock.ns_at(armed);
                self.tap.timer_fired(|| self.clock.now_ns(), armed_ns);
                return None;
            }
            self.timed_waits += 1;
            self.pump(Some(left), None);
            if let Some(env) = self.ready.pop_front() {
                self.mark_recv(&env, Some(armed));
                return Some(env);
            }
        }
    }

    fn sleep(&mut self, d: SimDuration) {
        self.clock.sleep(d);
    }

    fn fault_counters(&self) -> FaultCounters {
        self.faults.counters(self.rank)
    }

    fn scripted_crashes(&self) -> Vec<MachineCrash> {
        self.faults.crashes(self.rank)
    }

    fn compute(&mut self, ops: u64) {
        self.clock.compute(ops);
    }

    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn recorder(&mut self) -> Option<&mut (dyn Recorder + 'static)> {
        self.tap.recorder()
    }
}

impl<M> Drop for SocketTransport<M> {
    fn drop(&mut self) {
        // Stop the supervisor/acceptor first so a half-torn-down mesh
        // isn't "repaired" mid-exit.
        self.shared.shutdown.store(true, AtomicOrdering::Relaxed);
        // Announce a clean exit, then half-close every write side so
        // peers see goodbye + EOF promptly (in-flight data is still
        // delivered first).
        let mut goodbye = Vec::with_capacity(FRAME_OVERHEAD);
        encode_frame(&mut goodbye, KIND_GOODBYE, self.rank.0 as u32, 0, &|_| {});
        for w in &self.shared.writers {
            if let Some(link) = w.lock().as_mut() {
                let _ = link.offer(&goodbye);
                let _ = link.stream.shutdown(Shutdown::Write);
            }
        }
        // Keep reading, and discarding, until every peer has closed its
        // side too or the linger bound runs out: closing a socket that
        // still holds unread bytes (late heartbeats, a last broadcast)
        // resets the connection instead of finishing it.
        let deadline = Instant::now() + LINGER;
        let mut sink = [0u8; 4096];
        loop {
            self.pollfds.clear();
            let live = self.conns.iter().flatten();
            self.pollfds
                .extend(live.map(|c| PollFd::new(c.src.as_raw_fd(), POLLIN)));
            let left = deadline.saturating_duration_since(Instant::now());
            if self.pollfds.is_empty() || left.is_zero() {
                return;
            }
            wait_ready(&mut self.pollfds, Some(left));
            for conn in &mut self.conns {
                // Non-blocking: a connection with nothing to read yet
                // answers `WouldBlock` and is kept.
                let closed = conn.as_mut().is_some_and(|c| match c.src.read(&mut sink) {
                    Ok(n) => n == 0,
                    Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted),
                });
                if closed {
                    *conn = None;
                }
            }
        }
    }
}

/// Bind `p` loopback listeners on ephemeral ports.
fn bind_loopback(p: usize) -> std::io::Result<(Vec<TcpListener>, Vec<SocketAddr>)> {
    let mut listeners = Vec::with_capacity(p);
    let mut addrs = Vec::with_capacity(p);
    for _ in 0..p {
        let l = TcpListener::bind(("127.0.0.1", 0))?;
        addrs.push(l.local_addr()?);
        listeners.push(l);
    }
    Ok((listeners, addrs))
}

/// Run one closure per rank on `p` OS threads connected by a full mesh
/// of real loopback TCP sockets.
///
/// Mirrors [`run_thread_cluster`](crate::run_thread_cluster): same
/// closure signature, results in rank order, panics propagate. The
/// difference is that every message crosses the kernel's TCP stack.
pub fn run_socket_cluster<M, R, F>(p: usize, opts: SocketClusterOptions, f: F) -> Vec<R>
where
    M: WireCodec + WireSize + Clone + Send + 'static,
    R: Send,
    F: Fn(&mut SocketTransport<M>) -> R + Send + Sync,
{
    run_socket_cluster_inner(p, opts, SharedGate::default(), f)
}

/// [`run_socket_cluster`] with a frame-layer fault spec shared by all
/// ranks.
///
/// Like the thread backend, fates depend on the real interleaving of
/// sends, so runs are not reproducible event-for-event; deterministic
/// *aggregates* (e.g. everything dropped under total loss) still are.
pub fn run_socket_cluster_with_faults<M, R, F>(
    p: usize,
    opts: SocketClusterOptions,
    faults: FaultSpec<M>,
    f: F,
) -> Vec<R>
where
    M: WireCodec + WireSize + Clone + Send + 'static,
    R: Send,
    F: Fn(&mut SocketTransport<M>) -> R + Send + Sync,
{
    run_socket_cluster_inner(p, opts, SharedGate::new(faults, p), f)
}

/// The loopback harness is infallible by signature (it mirrors
/// `run_thread_cluster`), so its three failure modes panic. None is
/// reachable by a peer: every listener, address and dialer belongs to
/// this call.
fn run_socket_cluster_inner<M, R, F>(
    p: usize,
    opts: SocketClusterOptions,
    faults: SharedGate,
    f: F,
) -> Vec<R>
where
    M: WireCodec + WireSize + Clone + Send + 'static,
    R: Send,
    F: Fn(&mut SocketTransport<M>) -> R + Send + Sync,
{
    assert!(p >= 1, "need at least one rank");
    let clock = checked_clock(&opts);
    // The host refused `p` ephemeral loopback ports (or descriptors):
    // nothing can run.
    let (listeners, addrs) = bind_loopback(p).expect("binding loopback listeners failed");
    on_rank_threads(listeners, |r, listener| {
        // Phase 1 dials only the listeners bound above, and phase 2 drops
        // and counts whatever else connects, so this fails only if a
        // sibling rank thread died or the host ran out of descriptors.
        let (opts, faults) = (opts.clone(), faults.clone());
        let mut t = SocketTransport::establish(r, listener, &addrs, opts, faults, clock, false)
            .expect("socket mesh handshake failed");
        f(&mut t)
    })
}

/// Join a multi-process socket cluster as `rank`, binding `addrs[rank]`
/// locally and meshing with the other processes (which must run the same
/// call with their own rank).
///
/// This is the entrypoint `examples/socket_cluster.rs --rank N --peers …`
/// uses to run one rank per terminal; the returned transport is the same
/// type the loopback runner hands its closures.
pub fn connect_socket_cluster<M>(
    rank: usize,
    addrs: &[SocketAddr],
    opts: SocketClusterOptions,
) -> std::io::Result<SocketTransport<M>>
where
    M: WireCodec + Send + 'static,
{
    SocketTransport::join(rank, addrs, opts, false)
}

/// Re-enter an already-running mesh as a restarted `rank`.
///
/// Binds `addrs[rank]`, re-dials every *lower* rank with a RESUME
/// handshake, and waits up to `opts.connect_timeout` for every *higher*
/// rank's supervisor to re-dial us — the same rank-ordered induction as
/// cold start, so rejoin cannot deadlock against it. Requires the
/// surviving peers to be running with supervision enabled (their
/// acceptors admit us); our own supervisor/acceptor are spawned with
/// `opts.supervision` (or defaults if unset, since a rejoining rank must
/// accept redials).
///
/// Returns once the mesh is fully re-established, or with however many
/// connections came up when the timeout expires — the fault-tolerant
/// driver handles a partial mesh the same way it handles crashed peers.
pub fn rejoin_socket_cluster<M>(
    rank: usize,
    addrs: &[SocketAddr],
    mut opts: SocketClusterOptions,
) -> std::io::Result<SocketTransport<M>>
where
    M: WireCodec + Send + 'static,
{
    opts.supervision.get_or_insert_with(Default::default);
    let deadline = Instant::now() + opts.connect_timeout;
    let mut t = SocketTransport::join(rank, addrs, opts, true)?;
    // Higher ranks' supervisors re-dial us: receive — which answers the
    // doorbell their links ring — until they all have, or the deadline.
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || t.conns[rank + 1..].iter().all(Option::is_some) {
            break;
        }
        t.pump(Some(left), None);
    }
    // Peers still absent start in the down state, so sends are dropped
    // quietly and recovery marks fire on arrival; "departed" suppresses
    // a spurious crash mark.
    for p in (0..t.size).filter(|&p| p != rank && t.conns[p].is_none()) {
        t.peer_down[p] = true;
        t.peer_departed[p] = true;
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::tests::{read_all, wire};
    use crate::frame::{Frame, READ_BUF, WIRE_VERSION};
    use std::sync::Barrier;

    fn ranks(flags: &[bool]) -> Vec<Rank> {
        (0..flags.len()).filter(|&r| flags[r]).map(Rank).collect()
    }

    /// What a rank's transport has observed, read by the tests below.
    impl<M> SocketTransport<M> {
        /// Peers whose TCP connection has been observed down (crashes and
        /// clean departures).
        fn disconnected_peers(&self) -> Vec<Rank> {
            ranks(&self.peer_down)
        }

        /// Peers that announced a clean shutdown with a goodbye frame.
        fn departed_peers(&self) -> Vec<Rank> {
            ranks(&self.peer_departed)
        }

        /// Peers silent past the miss deadline on a connection still up.
        fn suspected_peers(&self) -> Vec<Rank> {
            ranks(&self.peer_suspected)
        }
    }

    fn supervisor(interval_ms: u64, miss_ms: u64) -> SupervisorOptions {
        SupervisorOptions {
            heartbeat_interval: Duration::from_millis(interval_ms),
            miss_deadline: Duration::from_millis(miss_ms),
        }
    }

    fn supervised(interval_ms: u64, miss_ms: u64) -> SocketClusterOptions {
        SocketClusterOptions {
            supervision: Some(supervisor(interval_ms, miss_ms)),
            ..SocketClusterOptions::default()
        }
    }

    /// A blocking `recv` that fails the test, rather than hanging it, when
    /// the peer never sends.
    fn recv_within<M: WireCodec + WireSize + Clone + Send + 'static>(
        t: &mut SocketTransport<M>,
    ) -> Envelope<M> {
        let got = t.recv_timeout(SimDuration::from_millis(5_000));
        got.expect("no message within 5 s")
    }

    /// Connect, without a handshake, to a rank whose thread was only just
    /// spawned: it may not have bound its listener yet. Reads on the
    /// stream give up after 5 s, so a rank that never answers fails the
    /// test instead of hanging it.
    fn dial_when_listening(addr: SocketAddr) -> TcpStream {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                    return s;
                }
                Err(e) if Instant::now() >= deadline => panic!("rank never started listening: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    #[test]
    #[should_panic(expected = "cluster option `mips` must be positive")]
    fn negative_mips_is_refused_before_any_rank_runs() {
        let opts = SocketClusterOptions {
            mips: -1.0,
            ..SocketClusterOptions::default()
        };
        run_socket_cluster::<u64, _, _>(1, opts, |_| unreachable!("a rank ran"));
    }

    #[test]
    #[should_panic(expected = "cluster option `mips` must be positive")]
    fn nan_mips_is_refused_before_the_listener_binds() {
        // The address is taken: getting as far as `bind` is an `Err`, not
        // the panic this test expects.
        let taken = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let opts = SocketClusterOptions {
            mips: f64::NAN,
            ..SocketClusterOptions::default()
        };
        let _ = connect_socket_cluster::<u64>(0, &[taken.local_addr().unwrap()], opts);
    }

    #[test]
    #[should_panic(expected = "supervisor option `heartbeat_interval` must be positive")]
    fn zero_heartbeat_interval_is_refused_before_the_listener_binds() {
        let taken = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let opts = supervised(0, 150);
        let _ = connect_socket_cluster::<u64>(0, &[taken.local_addr().unwrap()], opts);
    }

    #[test]
    #[should_panic(expected = "supervisor option `miss_deadline` (25ms) must exceed")]
    fn miss_deadline_within_one_heartbeat_is_refused() {
        run_socket_cluster::<u64, _, _>(1, supervised(25, 25), |_| unreachable!("a rank ran"));
    }

    #[test]
    fn redials_start_at_the_heartbeat_and_double_to_the_miss_deadline() {
        let sup = supervisor(20, 100);
        let delays = |me, peer| {
            let mut b = redial_backoff(&sup, me, peer);
            (0..8).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        let got = delays(3, 1);
        // Each delay lies in [raw/2, raw) of its step, raw doubling from
        // the interval and capped at the miss deadline.
        for (d, raw_ms) in got.iter().zip([20u64, 40, 80, 100, 100, 100, 100, 100]) {
            let raw = Duration::from_millis(raw_ms);
            assert!(
                *d >= raw / 2 && *d < raw,
                "{d:?} outside [{raw:?}/2, {raw:?})"
            );
        }
        assert_eq!(got, delays(3, 1), "the same two ranks jitter alike");
        assert_ne!(got, delays(3, 2), "another link jitters apart");
    }

    #[test]
    fn bytes_on_wire_match_between_sender_and_receiver() {
        let counts =
            run_socket_cluster::<Vec<f64>, _, _>(2, SocketClusterOptions::default(), |t| {
                if t.rank().0 == 0 {
                    for _ in 0..5 {
                        t.send(Rank(1), Tag(0), vec![0.5; 16]);
                    }
                    // Wait for the ack so the byte counters are settled.
                    let _ = recv_within(t);
                    t.bytes_on_wire()
                } else {
                    for _ in 0..5 {
                        let _ = recv_within(t);
                    }
                    t.send(Rank(0), Tag(1), vec![]);
                    t.bytes_on_wire()
                }
            });
        let (sent0, _) = counts[0];
        let (_, recv1) = counts[1];
        // 5 frames of (8-byte length prefix for the vec + 16 f64s) plus
        // framing overhead.
        let expected = 5 * (FRAME_OVERHEAD as u64 + 8 + 16 * 8);
        assert_eq!(sent0, expected);
        assert_eq!(recv1, expected);
    }

    #[test]
    fn frame_corruption_without_corruptor_drops_or_perturbs() {
        use netsim::Corrupt;
        // Corrupt every frame; bool payloads make every flipped byte a
        // decode failure, so all frames must reach the receiver and be
        // dropped there.
        let results = run_socket_cluster_with_faults::<bool, _, _>(
            2,
            SocketClusterOptions::default(),
            FaultSpec::new(Corrupt::new(1.0, 3)),
            |t| {
                if t.rank().0 == 0 {
                    for _ in 0..4 {
                        t.send(Rank(1), Tag(0), true);
                    }
                    // Give frames time to arrive and be rejected.
                    let got = t.recv_timeout(SimDuration::from_millis(200));
                    got.is_none() as u64
                } else {
                    let got = t.recv_timeout(SimDuration::from_millis(100));
                    assert!(got.is_none(), "corrupt bool frame decoded");
                    t.bytes_on_wire().1
                }
            },
        );
        let arrived = 4 * (FRAME_OVERHEAD as u64 + 1);
        assert_eq!(results[1], arrived, "every corrupted frame must arrive");
    }

    #[test]
    fn peer_disconnect_surfaces_as_crash_event_not_panic() {
        // Rank 0 tears its sockets down without a goodbye (a simulated
        // SIGKILL). Rank 1 must observe the disconnect as a crash-model
        // event: bounded waits keep expiring, nothing panics, and the
        // peer shows up in disconnected_peers() but not departed_peers().
        let results = run_socket_cluster::<u8, _, _>(2, SocketClusterOptions::default(), |t| {
            if t.rank().0 == 0 {
                t.simulate_crash();
                0
            } else {
                // Survive an arbitrary number of bounded waits across the
                // peer's death.
                let mut waits = 0u64;
                for _ in 0..50 {
                    if t.recv_timeout(SimDuration::from_millis(10)).is_some() {
                        panic!("no message was ever sent");
                    }
                    waits += 1;
                    if !t.disconnected_peers().is_empty() {
                        break;
                    }
                }
                assert_eq!(t.disconnected_peers(), vec![Rank(0)]);
                assert!(t.departed_peers().is_empty(), "no goodbye was sent");
                // Sending into the void must not panic either.
                t.send(Rank(0), Tag(0), 9);
                waits
            }
        });
        assert!(results[1] >= 1);
    }

    #[test]
    fn clean_shutdown_departs_without_crash_semantics() {
        // Rank 0 exits normally; its Drop writes a goodbye frame, so
        // rank 1 records a departure, not a crash.
        let results = run_socket_cluster::<u8, _, _>(2, SocketClusterOptions::default(), |t| {
            if t.rank().0 == 0 {
                true
            } else {
                for _ in 0..200 {
                    let _ = t.recv_timeout(SimDuration::from_millis(10));
                    if !t.departed_peers().is_empty() {
                        break;
                    }
                }
                assert_eq!(t.departed_peers(), vec![Rank(0)]);
                assert_eq!(t.disconnected_peers(), vec![Rank(0)]);
                true
            }
        });
        assert!(results[0] && results[1]);
    }

    #[test]
    fn dial_gives_up_within_the_deadline() {
        // Grab an ephemeral port, then free it so nothing is listening.
        let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = l.local_addr().unwrap();
        drop(l);
        let (shared, _bell) = Shared::new(1, 2).unwrap();
        let timeout = Duration::from_millis(150);
        let started = Instant::now();
        let err = dial(&shared, 0, addr, started + timeout).unwrap_err();
        let elapsed = started.elapsed();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        // Bounded: one backoff sleep past the deadline at most, plus
        // scheduler slack.
        assert!(
            elapsed < timeout + Duration::from_millis(400),
            "gave up after {elapsed:?}, deadline was {timeout:?}"
        );
    }

    #[test]
    fn heartbeats_flow_and_keep_idle_peers_unsuspected() {
        run_socket_cluster::<u8, _, _>(2, supervised(5, 60), |t| {
            // Both ranks stay silent at the data layer for four miss
            // deadlines; heartbeats alone must keep the mesh unsuspicious.
            let deadline = Instant::now() + Duration::from_millis(250);
            while Instant::now() < deadline {
                let _ = t.recv_timeout(SimDuration::from_millis(20));
            }
            assert!(t.suspected_peers().is_empty(), "heartbeats were missed");
            // The peer may already have finished its loop and departed
            // cleanly (goodbye); only a crash-style disconnect is a failure.
            let departed = t.departed_peers();
            assert!(
                t.disconnected_peers().iter().all(|r| departed.contains(r)),
                "peer dropped without a goodbye"
            );
        });
    }

    #[test]
    fn silent_peer_is_suspected_before_any_disconnect() {
        // Rank 0 supervises; rank 1 runs *without* supervision so it
        // sends no heartbeats and no data — silence on a live socket,
        // the case EOF-based detection can never catch.
        let l0 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let l1 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addrs = [l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        drop((l0, l1));
        let h0 = std::thread::spawn(move || {
            let mut t = connect_socket_cluster::<u8>(0, &addrs, supervised(5, 40)).unwrap();
            let deadline = Instant::now() + Duration::from_secs(2);
            while Instant::now() < deadline && t.suspected_peers().is_empty() {
                let _ = t.recv_timeout(SimDuration::from_millis(10));
            }
            let suspected = t.suspected_peers();
            t.send(Rank(1), Tag(0), 1); // release rank 1
            suspected
        });
        let h1 = std::thread::spawn(move || {
            let mut t =
                connect_socket_cluster::<u8>(1, &addrs, SocketClusterOptions::default()).unwrap();
            recv_within(&mut t).msg
        });
        assert_eq!(h0.join().unwrap(), vec![Rank(1)]);
        assert_eq!(h1.join().unwrap(), 1);
    }

    #[test]
    fn garbage_dialers_during_cold_start_are_rejected_not_fatal() {
        // Peer-controlled input at the worst moment: establish's accept
        // phase. Each junk connection must be closed unanswered, and the
        // mesh must still come up once the real peer dials.
        let l0 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let l1 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addrs = [l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        drop((l0, l1));
        let h0 = std::thread::spawn(move || {
            let mut t =
                connect_socket_cluster::<u64>(0, &addrs, SocketClusterOptions::default()).unwrap();
            recv_within(&mut t).msg
        });
        // Junk flavour 1: connect and EOF before sending any handshake.
        let s = dial_when_listening(addrs[0]);
        s.shutdown(Shutdown::Both).unwrap();
        drop(s);
        // Junk flavour 2: a well-formed RESUME claiming an impossible
        // rank (rank 0 itself). It is refused, not answered.
        let mut s = dial_when_listening(addrs[0]);
        write_resume(&mut s, 0, 2).unwrap();
        assert!(read_resume(&mut s, 2).is_err(), "rank 0 answered itself");
        drop(s);
        // Junk flavour 3: an old build's HELLO (kind 0, cluster size
        // only) from the right rank. It is refused, not answered.
        let mut s = dial_when_listening(addrs[0]);
        s.write_all(&wire(&(0, 1, 0, 2u32.to_le_bytes().to_vec())))
            .unwrap();
        assert!(read_resume(&mut s, 2).is_err(), "an old HELLO was answered");
        drop(s);
        // The real rank 1 arrives last and must still be admitted.
        let h1 = std::thread::spawn(move || {
            let mut t =
                connect_socket_cluster::<u64>(1, &addrs, SocketClusterOptions::default()).unwrap();
            t.send(Rank(0), Tag(0), 77);
            // Linger so the frame flushes before drop.
            let _ = t.recv_timeout(SimDuration::from_millis(100));
        });
        let msg = h0.join().unwrap();
        h1.join().unwrap();
        assert_eq!(msg, 77, "real peer was not admitted after junk dialers");
    }

    #[test]
    fn peer_dying_mid_frame_does_not_panic_the_survivor() {
        // A peer that completes the handshake, starts a data frame, and
        // dies mid-frame: the survivor's reader must surface a crash
        // (PeerGone → disconnected_peers), never a panic, and the
        // truncated frame must never reach the decoder.
        let l0 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let l1 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addrs = [l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        drop((l0, l1));
        let h0 = std::thread::spawn(move || {
            let mut t = connect_socket_cluster::<u64>(0, &addrs, supervised(5, 40)).unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline && !t.disconnected_peers().contains(&Rank(1)) {
                let got = t.recv_timeout(SimDuration::from_millis(10));
                assert!(got.is_none(), "a truncated frame must not deliver");
            }
            t.disconnected_peers()
        });
        // Fake rank 1: real handshake, then a frame whose length prefix
        // promises 64 bytes but whose body stops after the version byte,
        // then an abrupt close.
        let mut s = dial_when_listening(addrs[0]);
        write_resume(&mut s, 1, 2).unwrap();
        assert_eq!(read_resume(&mut s, 2).unwrap(), (0, 0));
        s.write_all(&64u32.to_le_bytes()).unwrap();
        s.write_all(&[WIRE_VERSION]).unwrap();
        s.shutdown(Shutdown::Both).unwrap();
        drop(s);
        assert_eq!(
            h0.join().unwrap(),
            vec![Rank(1)],
            "mid-frame death was not surfaced"
        );
    }

    #[test]
    fn restarted_rank_rejoins_the_mesh_with_resume_handshake() {
        let mut ls: Vec<TcpListener> = (0..3)
            .map(|_| TcpListener::bind(("127.0.0.1", 0)).unwrap())
            .collect();
        let addrs: Vec<SocketAddr> = ls.iter().map(|l| l.local_addr().unwrap()).collect();
        ls.clear();
        let a0 = addrs.clone();
        let a1 = addrs.clone();
        let a2 = addrs.clone();

        // Rank 0: survive, observe the crash, then receive post-rejoin
        // data.
        let h0 = std::thread::spawn(move || {
            let mut t = connect_socket_cluster::<u64>(0, &a0, supervised(5, 80)).unwrap();
            // Wait for rank 2's crash...
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline && !t.disconnected_peers().contains(&Rank(2)) {
                let _ = t.recv_timeout(SimDuration::from_millis(10));
            }
            assert!(t.disconnected_peers().contains(&Rank(2)), "crash unseen");
            // ...then for its rejoin (RESUME dial lands on our acceptor)
            // and the post-rejoin message.
            let mut got = None;
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline {
                if let Some(env) = t.recv_timeout(SimDuration::from_millis(10)) {
                    if env.src == Rank(2) {
                        got = Some(env.msg);
                        break;
                    }
                }
            }
            (got, t.disconnected_peers())
        });
        // Rank 1: just keep the mesh alive.
        let h1 = std::thread::spawn(move || {
            let mut t = connect_socket_cluster::<u64>(1, &a1, supervised(5, 80)).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut heard_back = false;
            while Instant::now() < deadline {
                if let Some(env) = t.recv_timeout(SimDuration::from_millis(10)) {
                    if env.src == Rank(2) && env.msg == 99 {
                        heard_back = true;
                        break;
                    }
                }
            }
            heard_back
        });
        // Rank 2: join, crash without goodbye, rejoin, then broadcast.
        let h2 = std::thread::spawn(move || {
            let mut t = connect_socket_cluster::<u64>(2, &a2, supervised(5, 80)).unwrap();
            t.simulate_crash();
            drop(t);
            std::thread::sleep(Duration::from_millis(100));
            let mut t = rejoin_socket_cluster::<u64>(2, &a2, supervised(5, 80)).unwrap();
            // Read before the send: the survivors leave once they hear it.
            let down = t.disconnected_peers();
            t.send(Rank(0), Tag(0), 99);
            t.send(Rank(1), Tag(0), 99);
            // Linger so the frames flush before drop.
            let _ = t.recv_timeout(SimDuration::from_millis(100));
            down
        });
        let (got, down) = h0.join().unwrap();
        assert_eq!(got, Some(99), "post-rejoin data did not arrive");
        assert!(!down.contains(&Rank(2)), "rejoin did not clear down state");
        assert!(h1.join().unwrap(), "rank 1 never heard the rejoined peer");
        assert_eq!(h2.join().unwrap(), vec![], "rejoin left a link down");
    }

    #[test]
    fn impostor_claiming_a_lower_rank_is_refused_and_the_live_link_survives() {
        // Every legitimate dial goes from a higher rank to a lower one. An
        // outside dialer telling rank 1's acceptor that it is rank 0 must
        // be refused, not swapped in for the live link — which
        // would never heal: rank 0 does not redial a higher rank.
        let l0 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let l1 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addrs = [l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        drop((l0, l1));
        let (up, checked) = (Arc::new(Barrier::new(3)), Arc::new(Barrier::new(2)));
        let rank = |me: usize| {
            let (up, checked) = (Arc::clone(&up), Arc::clone(&checked));
            std::thread::spawn(move || {
                let mut t =
                    connect_socket_cluster::<u64>(me, &addrs, supervised(5, 2_000)).unwrap();
                up.wait(); // the mesh is up
                up.wait(); // the impostor has been dealt with
                t.send(Rank(1 - me), Tag(0), 10 + me as u64);
                let deadline = Instant::now() + Duration::from_millis(1_500);
                let mut got = None;
                while got.is_none() && Instant::now() < deadline {
                    got = t.recv_timeout(SimDuration::from_millis(20)).map(|e| e.msg);
                }
                let seen = (got, t.disconnected_peers());
                checked.wait(); // neither drops its transport early
                seen
            })
        };
        let (h0, h1) = (rank(0), rank(1));
        up.wait();
        let mut impostor = dial_when_listening(addrs[1]);
        write_resume(&mut impostor, 0, 2).unwrap();
        let answered = read_resume(&mut impostor, 2).is_ok();
        up.wait();
        let (got0, down0) = h0.join().unwrap();
        let (got1, down1) = h1.join().unwrap();
        drop(impostor);
        assert!(!answered, "rank 1 answered a dialer claiming a lower rank");
        assert_eq!((got0, got1), (Some(11), Some(10)), "a message was lost");
        assert!(
            down0.is_empty() && down1.is_empty(),
            "down: {down0:?} {down1:?}"
        );
    }

    #[test]
    fn multi_process_entrypoint_meshes_two_ranks() {
        // Exercise connect_socket_cluster the way two separate processes
        // would, using two plain threads with pre-agreed ports.
        let l0 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let l1 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addrs = [l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        drop((l0, l1)); // free the ports for connect_socket_cluster to rebind
        let h0 = std::thread::spawn(move || {
            let mut t =
                connect_socket_cluster::<u64>(0, &addrs, SocketClusterOptions::default()).unwrap();
            t.send(Rank(1), Tag(0), 11);
            recv_within(&mut t).msg
        });
        let h1 = std::thread::spawn(move || {
            let mut t =
                connect_socket_cluster::<u64>(1, &addrs, SocketClusterOptions::default()).unwrap();
            let got = recv_within(&mut t).msg;
            t.send(Rank(0), Tag(0), got + 1);
            got
        });
        assert_eq!(h1.join().unwrap(), 11);
        assert_eq!(h0.join().unwrap(), 12);
    }

    #[test]
    fn length_prefix_alone_allocates_nothing_and_silence_then_eof_is_peer_gone() {
        // Four peer-controlled bytes must not buy an allocation of
        // whatever they declare. A fake rank 1 handshakes, declares a
        // 200 MiB frame (inside the default cap), sends a few bytes of it
        // and goes quiet; the receive buffer must stay at its initial
        // size, and the eventual EOF must surface as a crash.
        let l0 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let l1 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addrs = [l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        drop((l0, l1));
        let (quiet_tx, quiet_rx) = std::sync::mpsc::channel::<()>();
        let h0 = std::thread::spawn(move || {
            let mut t =
                connect_socket_cluster::<u64>(0, &addrs, SocketClusterOptions::default()).unwrap();
            // Wait until the partial frame has been read.
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline
                && t.conns[1].as_ref().is_none_or(|c| c.end - c.start < 4 + 3)
            {
                assert!(t.recv_timeout(SimDuration::from_millis(5)).is_none());
            }
            let conn = t.conns[1].as_ref().expect("connection dropped early");
            assert_eq!(conn.missing(DEFAULT_MAX_FRAME).unwrap(), (200 << 20) - 3);
            let held = conn.buf.capacity();
            quiet_tx.send(()).unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline && t.disconnected_peers().is_empty() {
                assert!(t.recv_timeout(SimDuration::from_millis(5)).is_none());
            }
            (held, t.disconnected_peers(), t.departed_peers())
        });
        let mut s = dial_when_listening(addrs[0]);
        write_resume(&mut s, 1, 2).unwrap();
        assert_eq!(read_resume(&mut s, 2).unwrap(), (0, 0));
        s.write_all(&(200u32 << 20).to_le_bytes()).unwrap();
        s.write_all(&[WIRE_VERSION, KIND_DATA, 1]).unwrap();
        quiet_rx.recv().unwrap();
        drop(s);
        let (held, down, departed) = h0.join().unwrap();
        assert!(held <= READ_BUF, "a bare prefix grew the buffer to {held}");
        assert_eq!(down, vec![Rank(1)]);
        assert!(departed.is_empty(), "a truncated frame is not a goodbye");
    }

    #[test]
    fn frames_claiming_another_origin_are_dropped_as_corruption() {
        // A handshaken rank 1 writes a data frame and a goodbye that both
        // claim rank 0 sent them, then one honest frame. A point-to-point
        // link has one origin: the forgeries are dropped, the goodbye
        // departs nobody, and the honest frame is delivered.
        let l0 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let l1 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addrs = [l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        drop((l0, l1));
        let h0 = std::thread::spawn(move || {
            let opts = SocketClusterOptions::default();
            let mut t = connect_socket_cluster::<u64>(0, &addrs, opts).unwrap();
            let env = recv_within(&mut t);
            (env.src, env.msg, t.departed_peers(), t.disconnected_peers())
        });
        let mut s = dial_when_listening(addrs[0]);
        write_resume(&mut s, 1, 2).unwrap();
        assert_eq!(read_resume(&mut s, 2).unwrap(), (0, 0));
        let payload = |v: u64| crate::encode_to_vec(&v);
        s.write_all(&wire(&(KIND_DATA, 0, 0, payload(11)))).unwrap();
        s.write_all(&wire(&(KIND_GOODBYE, 0, 0, Vec::new())))
            .unwrap();
        s.write_all(&wire(&(KIND_DATA, 1, 0, payload(77)))).unwrap();
        let (src, msg, departed, down) = h0.join().unwrap();
        drop(s);
        assert_eq!((src, msg), (Rank(1), 77), "a forged frame was delivered");
        assert!(
            departed.is_empty() && down.is_empty(),
            "{departed:?} {down:?}"
        );
    }

    /// Two ranks each `send` a frame far larger than the kernel's socket
    /// buffers before either receives. With no thread draining a socket
    /// behind its rank's back, both complete only because a `send` that
    /// finds the buffers full keeps receiving while it waits for room.
    fn cross_oversized_frames(opts: SocketClusterOptions) {
        // 32 MiB on the wire, as `u64`s so an unoptimized build's
        // element-at-a-time codec stays out of the way.
        const LEN: usize = (32 << 20) / 8;
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let got = run_socket_cluster::<Vec<u64>, _, _>(2, opts, |t| {
                let me = t.rank().0;
                t.send(Rank(1 - me), Tag(0), vec![me as u64 + 1; LEN]);
                let env = t.recv();
                (env.msg.len(), env.msg.iter().all(|&v| v == 2 - me as u64))
            });
            let _ = done_tx.send(got);
        });
        let got = done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("crossing sends deadlocked");
        assert_eq!(got, vec![(LEN, true), (LEN, true)]);
    }

    #[test]
    fn crossing_oversized_frames_do_not_deadlock() {
        cross_oversized_frames(SocketClusterOptions::default());
    }

    #[test]
    fn crossing_oversized_frames_do_not_deadlock_under_supervision() {
        cross_oversized_frames(supervised(5, 2_000));
    }

    #[test]
    fn full_buffer_skips_the_heartbeat_and_no_writer_tears_a_frame() {
        // One stream, two kinds of writer: `write_frame` (the rank: must
        // send) and `offer` (the supervisor: may skip). The reader is
        // held back until the kernel's buffers are full.
        let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        a.set_nonblocking(true).unwrap();
        let mut link = Link::new(a);

        let data: Vec<Frame> = (0..64u32)
            .map(|i| (KIND_DATA, 0, i, vec![i as u8; 100_000]))
            .collect();
        let hb = (KIND_HEARTBEAT, 0, 0, Vec::new());
        let mut sent = Vec::new();
        let mut skipped = 0;
        for f in &data {
            let all_in_kernel = link.write_frame(&wire(f)).unwrap();
            sent.push(f.clone());
            // A heartbeat is offered after every data frame; it goes out
            // only while nothing is queued ahead of it.
            if link.offer(&wire(&hb)).unwrap() {
                assert!(all_in_kernel, "a heartbeat jumped the backlog");
                sent.push(hb.clone());
            } else {
                skipped += 1;
            }
        }
        assert!(skipped > 0, "6.4 MB never filled the socket buffers");
        assert!(!link.backlog.is_empty());

        let reader = std::thread::spawn(move || read_all(b, DEFAULT_MAX_FRAME));
        while !link.flush().unwrap() {
            let mut fds = [PollFd::new(link.stream.as_raw_fd(), POLLOUT)];
            wait_ready(&mut fds, None);
        }
        assert!(link.offer(&wire(&hb)).unwrap());
        sent.push(hb);
        drop(link);
        let (got, failed, _) = reader.join().unwrap();
        assert!(!failed, "the stream did not parse: a frame was torn");
        assert!(got == sent, "frames arrived damaged or out of order");
    }

    #[test]
    fn unread_heartbeats_count_as_heard_after_a_long_compute() {
        // Rank 0 ignores its sockets for five miss deadlines — what a
        // long `compute` does — while rank 1's heartbeats pile up unread.
        // Silence is judged after draining, so the first receive call
        // afterwards must not suspect rank 1.
        let suspected = run_socket_cluster::<u8, _, _>(2, supervised(5, 40), |t| {
            if t.rank().0 == 0 {
                std::thread::sleep(Duration::from_millis(200));
                assert!(t.recv_timeout(SimDuration::from_millis(1)).is_none());
                let suspected = t.suspected_peers();
                t.send(Rank(1), Tag(0), 1); // release rank 1
                suspected
            } else {
                recv_within(t);
                Vec::new()
            }
        });
        assert!(suspected[0].is_empty(), "suspected {:?}", suspected[0]);
    }

    #[test]
    fn goodbye_left_unread_is_a_departure_even_if_a_send_fails_first() {
        // Rank 0 exits at once: goodbye, linger, close. Rank 1 reads
        // nothing until well after that, then only sends; the write
        // that fails must find the goodbye waiting in the socket and
        // record a departure, not a crash.
        let results = run_socket_cluster::<u8, _, _>(2, SocketClusterOptions::default(), |t| {
            if t.rank().0 == 0 {
                return true;
            }
            std::thread::sleep(LINGER + Duration::from_millis(150));
            for _ in 0..400 {
                t.send(Rank(0), Tag(0), 7);
                if !t.disconnected_peers().is_empty() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(t.disconnected_peers(), vec![Rank(0)]);
            t.departed_peers() == vec![Rank(0)]
        });
        assert!(results[1], "an unread goodbye was recorded as a crash");
    }
}
