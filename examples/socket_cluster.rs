//! The speculative driver over real TCP sockets.
//!
//! With no arguments this runs a loopback cluster in one process — every
//! rank is a thread, but every message still crosses the kernel's TCP
//! stack as a length-prefixed frame. With `--rank`/`--peers` it becomes
//! one rank of a true multi-process cluster. Run it in two terminals:
//!
//! ```text
//! # terminal 1
//! cargo run --release --example socket_cluster -- \
//!     --rank 0 --peers 127.0.0.1:7701,127.0.0.1:7702
//! # terminal 2
//! cargo run --release --example socket_cluster -- \
//!     --rank 1 --peers 127.0.0.1:7701,127.0.0.1:7702
//! ```
//!
//! Each process binds its own entry in the peer list and dials the
//! others (retrying while they start up), so terminal order does not
//! matter. Replace `127.0.0.1` with real host addresses to cross
//! machines. Loopback mode:
//!
//! ```text
//! cargo run --release --example socket_cluster -- [p] [n] [iters]
//! ```

use std::net::SocketAddr;

use speculative_computation::prelude::*;

fn even_ranges(n: usize, p: usize) -> Vec<std::ops::Range<usize>> {
    (0..p).map(|i| i * n / p..(i + 1) * n / p).collect()
}

/// One rank's work: the §4 synthetic workload under speculation with
/// fault tolerance armed (a real network is allowed to misbehave).
fn drive(t: &mut SocketTransport<IterMsg<Vec<f64>>>, n: usize, iters: u64) -> (u64, RunStats) {
    let ranges = even_ranges(n, t.size());
    let scfg = SyntheticConfig {
        theta: 0.0,
        jump_prob: 0.1,
        seed: 11,
        ..Default::default()
    };
    let mut app = SyntheticApp::new(n, &ranges, t.rank().0, scfg);
    let cfg = SpecConfig::speculative(1)
        .with_correction(CorrectionMode::Recompute)
        .with_fault_tolerance(FaultTolerance::new(SimDuration::from_millis(200)));
    let stats = poll_ready(run_speculative_aio(t, &mut app, iters, cfg));
    (fingerprint_f64s(app.values()), stats)
}

fn flag(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn positional<T: std::str::FromStr>(n: usize, default: T) -> T {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn report(rank: usize, fp: u64, stats: &RunStats, t: &SocketTransport<IterMsg<Vec<f64>>>) {
    let (sent, received) = t.bytes_on_wire();
    println!(
        "rank {rank}: fingerprint {fp:016x}  iters {}  speculated {}  \
         wire {:.1} KiB out / {:.1} KiB in  timed_waits {}",
        stats.iterations,
        stats.speculated_partitions,
        sent as f64 / 1024.0,
        received as f64 / 1024.0,
        t.timed_waits(),
    );
}

fn main() {
    let n = 48;
    let iters = 20;

    if let (Some(rank), Some(peers)) = (flag("--rank"), flag("--peers")) {
        // Multi-process mode: this invocation is one rank of the mesh.
        let rank: usize = rank.parse().expect("--rank must be an integer");
        let addrs: Vec<SocketAddr> = peers
            .split(',')
            .map(|s| s.parse().expect("--peers must be host:port,host:port,…"))
            .collect();
        println!(
            "rank {rank}/{}: binding {} and meshing…",
            addrs.len(),
            addrs[rank]
        );
        let mut t = connect_socket_cluster::<IterMsg<Vec<f64>>>(
            rank,
            &addrs,
            SocketClusterOptions::default(),
        )
        .expect("mesh handshake failed");
        let (fp, stats) = drive(&mut t, n, iters);
        report(rank, fp, &stats, &t);
        println!(
            "(deterministic: re-running the same cluster reproduces this \
             rank's fingerprint bit-for-bit)"
        );
        return;
    }

    // Loopback mode: the whole cluster in this process, one thread per
    // rank, still speaking real TCP through the kernel.
    let p = positional(1, 4usize);
    let n = positional(2, n);
    let iters = positional(3, iters);
    println!("loopback socket cluster: p={p} n={n} iters={iters}");
    let run_once = || {
        run_socket_cluster::<IterMsg<Vec<f64>>, _, _>(
            p,
            SocketClusterOptions::default(),
            move |t| {
                let (fp, stats) = drive(t, n, iters);
                let (sent, received) = t.bytes_on_wire();
                (fp, stats, sent, received, t.timed_waits())
            },
        )
    };
    let outs = run_once();
    for (rank, (fp, stats, sent, received, wakes)) in outs.iter().enumerate() {
        println!(
            "rank {rank}: fingerprint {fp:016x}  iters {}  speculated {}  \
             wire {:.1} KiB out / {:.1} KiB in  timed_waits {wakes}",
            stats.iterations,
            stats.speculated_partitions,
            *sent as f64 / 1024.0,
            *received as f64 / 1024.0,
        );
    }
    // Exact semantics (θ = 0 + recompute) make the result independent of
    // real network timing: a second run over fresh sockets must land on
    // the same per-rank fingerprints bit-for-bit.
    let again = run_once();
    for (rank, (a, b)) in outs.iter().zip(&again).enumerate() {
        assert_eq!(
            a.0, b.0,
            "rank {rank}: fingerprint not reproducible across socket runs"
        );
    }
    println!("re-run over fresh sockets reproduced every fingerprint bit-for-bit");
}
