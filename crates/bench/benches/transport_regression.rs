//! Transport backend regression bench: the same two traffic patterns —
//! all-to-all broadcast throughput and two-rank ping-pong latency — run
//! over all three transport backends (virtual-time sim, in-process
//! threads, loopback TCP sockets), in the style of a networking stack's
//! notifications-protocol benches.
//!
//! Each row is the best-of-9 wall-clock time of the *whole cluster run*,
//! setup included: the bench measures the backend as deployed (socket
//! rows pay their mesh handshake, sim rows pay the event kernel), so a
//! regression in any layer — codec, framing, mailbox, scheduler — moves
//! the number. Rows persist as `BENCH_transport.json`;
//! `ci/bench_gate.sh` fails CI when any `msgs_per_sec` falls more than
//! 25% below the checked-in budget (`ci/bench_budgets.json`, refreshed
//! with `BENCH_UPDATE_BUDGETS=1`).
//!
//! The artifact also carries two deterministic *bytes-on-wire* rows: the
//! N-body exchange phase broadcast as full snapshots vs delta frames on
//! the simulator. The gate holds each row under its checked-in byte
//! ceiling and requires the delta row to stay at least 3× cheaper per
//! iteration than the full row.

use std::time::Instant;

use desim::SimDuration;
use mpk::{
    poll_ready, run_sim_proc_cluster, run_socket_cluster, run_thread_cluster, AsyncTransport, Rank,
    SocketClusterOptions, Tag, ThreadClusterOptions,
};
use nbody::{run_parallel, uniform_cloud, ParallelRunConfig};
use netsim::{ClusterSpec, ConstantLatency, Unloaded};
use spec_bench::artifact::{transport_json, ExchangeRow, TransportRow};
use speccore::DeltaExchange;

const BROADCAST_P: usize = 4;
const BROADCAST_FLOATS: usize = 256;
const BROADCAST_ITERS: u64 = 64;
const PINGPONG_FLOATS: usize = 8;
const PINGPONG_ROUNDS: u64 = 256;

/// Best (minimum) seconds for one call of `run`, over `samples` calls.
/// Scheduler and load noise only ever add time, so the minimum is the
/// stablest estimator for a regression gate — a real code regression
/// moves it, a busy CI machine mostly doesn't.
fn best_secs(samples: usize, mut run: impl FnMut()) -> f64 {
    run(); // warm-up: page in code, prime the loopback stack
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Every rank broadcasts a payload and drains its `p − 1` inbound copies,
/// each iteration — the exact traffic shape of the speculative driver's
/// exchange phase.
async fn broadcast_driver<T: AsyncTransport<Msg = Vec<f64>>>(
    t: &mut T,
    floats: usize,
    iters: u64,
) -> u64 {
    let payload = vec![1.0f64; floats];
    let mut received = 0u64;
    for _ in 0..iters {
        t.broadcast(Tag(0), payload.clone()).await;
        for _ in 0..t.size() - 1 {
            let env = t.recv().await;
            received += env.msg.len() as u64;
        }
    }
    received
}

/// Rank 0 sends and awaits the echo; rank 1 echoes — round-trip latency.
async fn pingpong_driver<T: AsyncTransport<Msg = Vec<f64>>>(
    t: &mut T,
    floats: usize,
    rounds: u64,
) -> u64 {
    let payload = vec![1.0f64; floats];
    let mut received = 0u64;
    for _ in 0..rounds {
        if t.rank() == Rank(0) {
            t.send(Rank(1), Tag(0), payload.clone()).await;
            received += t.recv().await.msg.len() as u64;
        } else {
            let env = t.recv().await;
            received += env.msg.len() as u64;
            t.send(Rank(0), Tag(0), env.msg).await;
        }
    }
    received
}

/// The traffic pattern of one row, on any backend's endpoint.
async fn traffic<T: AsyncTransport<Msg = Vec<f64>>>(
    t: &mut T,
    is_broadcast: bool,
    floats: usize,
    iters: u64,
) -> u64 {
    if is_broadcast {
        broadcast_driver(t, floats, iters).await
    } else {
        pingpong_driver(t, floats, iters).await
    }
}

fn run_backend(backend: &str, mode: &str) -> TransportRow {
    let (p, floats, iters, msgs) = match mode {
        "broadcast" => (
            BROADCAST_P,
            BROADCAST_FLOATS,
            BROADCAST_ITERS,
            (BROADCAST_P * (BROADCAST_P - 1)) as u64 * BROADCAST_ITERS,
        ),
        "pingpong" => (2, PINGPONG_FLOATS, PINGPONG_ROUNDS, 2 * PINGPONG_ROUNDS),
        other => unreachable!("unknown mode {other}"),
    };
    let is_broadcast = mode == "broadcast";
    let secs = match backend {
        "sim" => best_secs(9, || {
            let cluster = ClusterSpec::homogeneous(p, 1000.0);
            let (outs, _) = run_sim_proc_cluster::<Vec<f64>, _, _, _>(
                &cluster,
                ConstantLatency(SimDuration::from_micros(10)),
                Unloaded,
                false,
                |mut t| async move { traffic(&mut t, is_broadcast, floats, iters).await },
            )
            .unwrap();
            assert!(outs.iter().all(|&r| r > 0));
        }),
        "thread" => best_secs(9, || {
            let outs = run_thread_cluster::<Vec<f64>, _, _>(
                p,
                ThreadClusterOptions::default(),
                move |t| poll_ready(traffic(t, is_broadcast, floats, iters)),
            );
            assert!(outs.iter().all(|&r| r > 0));
        }),
        "socket" => best_secs(9, || {
            let outs = run_socket_cluster::<Vec<f64>, _, _>(
                p,
                SocketClusterOptions::default(),
                move |t| poll_ready(traffic(t, is_broadcast, floats, iters)),
            );
            assert!(outs.iter().all(|&r| r > 0));
        }),
        other => unreachable!("unknown backend {other}"),
    };
    TransportRow {
        backend: backend.into(),
        mode: mode.into(),
        p,
        payload_floats: floats,
        msgs,
        secs,
    }
}

const EXCHANGE_P: usize = 4;
const EXCHANGE_BODIES: usize = 64;
const EXCHANGE_ITERS: u64 = 64;
const EXCHANGE_FLOOR: f64 = 1e-2;
const EXCHANGE_KEYFRAME: u64 = 32;

/// Bytes-on-wire of the driver's exchange phase: the paper-testbed
/// N-body workload at steady state, broadcast either as full partition
/// snapshots or as quantized delta frames. Runs on the virtual-time
/// simulator, so the byte counters are deterministic — the gate compares
/// them exactly, with no best-of-N sampling.
fn run_exchange(delta: Option<DeltaExchange>) -> ExchangeRow {
    let particles = uniform_cloud(EXCHANGE_BODIES, 11);
    let cluster = ClusterSpec::homogeneous(EXCHANGE_P, 1000.0);
    let mut cfg = ParallelRunConfig::new(EXCHANGE_ITERS, 2);
    if let Some(d) = delta {
        cfg.spec = cfg.spec.with_delta_exchange(d);
    }
    let result = run_parallel(
        &particles,
        &cluster,
        ConstantLatency(SimDuration::from_millis(2)),
        Unloaded,
        cfg,
    )
    .unwrap();
    ExchangeRow {
        mode: if delta.is_some() { "delta" } else { "full" }.into(),
        p: EXCHANGE_P,
        bodies: EXCHANGE_BODIES,
        iters: EXCHANGE_ITERS,
        floor: delta.map_or(0.0, |d| d.floor),
        keyframe: delta.map_or(0, |d| d.keyframe_interval),
        bytes_sent: result.stats.per_rank.iter().map(|s| s.bytes_sent).sum(),
        suppressed_bytes: result
            .stats
            .per_rank
            .iter()
            .map(|s| s.delta_suppressed_bytes)
            .sum(),
    }
}

fn main() {
    let mut rows = Vec::new();
    for backend in ["sim", "thread", "socket"] {
        for mode in ["broadcast", "pingpong"] {
            rows.push(run_backend(backend, mode));
        }
    }
    let exchange = vec![
        run_exchange(None),
        run_exchange(Some(DeltaExchange::new(EXCHANGE_FLOOR, EXCHANGE_KEYFRAME))),
    ];

    println!("transport backend regression (messages/sec, setup included):");
    for row in &rows {
        println!(
            "  {:<7} {:<10} p={} payload={:>4} f64  {:>10.0} msgs/s  ({:.3} ms/run)",
            row.backend,
            row.mode,
            row.p,
            row.payload_floats,
            row.msgs_per_sec(),
            row.secs * 1e3
        );
    }

    println!("exchange bytes on wire (nbody, sim backend, deterministic):");
    for row in &exchange {
        println!(
            "  {:<6} p={} bodies={} floor={:.0e} keyframe={:>2}  {:>8.0} bytes/iter  \
             (suppressed {} B total)",
            row.mode,
            row.p,
            row.bodies,
            row.floor,
            row.keyframe,
            row.bytes_per_iter(),
            row.suppressed_bytes,
        );
    }
    let full_bpi = exchange[0].bytes_per_iter();
    let delta_bpi = exchange[1].bytes_per_iter();
    println!(
        "  delta cuts steady-state bytes/iter {:.1}x vs full",
        full_bpi / delta_bpi
    );

    match spec_bench::artifact::write("transport", &transport_json(&rows, &exchange)) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write transport artifact: {e}");
            std::process::exit(1);
        }
    }
}
