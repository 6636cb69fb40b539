//! Multi-process SIGKILL chaos test for the socket backend.
//!
//! Unlike the in-process socket tests (which fake a crash by shutting
//! down connections), this test spawns one OS process per rank over real
//! loopback TCP, SIGKILLs the highest rank mid-run, and restarts it.
//! The restarted process re-enters the mesh through
//! [`rejoin_socket_cluster`]'s RESUME handshake; the survivors — which
//! quarantined it and carried its partition by speculation while it was
//! down — readmit it with a full-state keyframe and finish the run.
//!
//! Asserted end-to-end: every process terminates, the restarted rank
//! completes all of its iterations, each survivor quarantined/readmitted
//! the victim and committed degraded (speculated) iterations for it, and
//! every rank's final values stay within a bounded distance of the
//! fault-free reference run.
//!
//! The parent test is `#[ignore]`d: it is a wall-clock-heavy
//! multi-process run, exercised by `ci.sh`'s release-mode chaos step
//! under a hard timeout. The child entry point is a `#[test]` too (the
//! standard self-exec pattern) and is inert without the `SPEC_CHAOS_*`
//! environment.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use speccheck::{run, Backend, SpecParams, SyntheticScenario};
use speculative_computation::prelude::*;

/// Cluster size. The victim is the highest rank: its listener never
/// accepts a connection at cold start (rank `r` dials every lower rank),
/// so its listen port has no lingering accepted-connection state and the
/// restarted process can rebind it immediately.
const P: usize = 3;
const VICTIM: usize = P - 1;
/// Global variables, evenly partitioned (4 per rank).
const N: usize = 12;
const ITERS: u64 = 120;
const SEED: u64 = 42;
/// Transport speed in MIPS. The synthetic app charges
/// `n_local × f_comp = 4 × 200 = 800` ops per iteration, so 0.05 MIPS
/// paces the run at ~16 ms per iteration — slow enough that the kill
/// reliably lands mid-run, fast enough to finish in seconds.
const MIPS: f64 = 0.05;
const LOSS_TIMEOUT_MS: u64 = 40;

fn app_cfg() -> SyntheticConfig {
    SyntheticConfig {
        theta: 0.0,
        jump_prob: 0.0,
        seed: SEED,
        f_comp: 200,
        ..Default::default()
    }
}

fn ranges() -> Vec<std::ops::Range<usize>> {
    (0..P).map(|i| i * N / P..(i + 1) * N / P).collect()
}

fn driver_cfg() -> SpecConfig {
    SpecConfig::speculative(2)
        .with_backward_window(2)
        .with_correction(CorrectionMode::Recompute)
        .with_fault_tolerance(
            FaultTolerance::new(SimDuration::from_millis(LOSS_TIMEOUT_MS))
                .with_supervision(SupervisionConfig::new(1, 2)),
        )
}

/// Redials of the victim, dead for about half a second, back off from one
/// heartbeat interval (20 ms) to the miss deadline (100 ms).
fn supervised_opts() -> SocketClusterOptions {
    SocketClusterOptions {
        mips: MIPS,
        connect_timeout: Duration::from_secs(20),
        supervision: Some(SupervisorOptions {
            heartbeat_interval: Duration::from_millis(20),
            miss_deadline: Duration::from_millis(100),
        }),
    }
}

// ---------------------------------------------------------------------------
// Child entry point (one per rank, spawned by the parent test below).
// ---------------------------------------------------------------------------

#[test]
#[ignore = "helper process entry point for socket_rank_survives_sigkill_and_rejoins"]
fn chaos_socket_child() {
    let Ok(rank) = std::env::var("SPEC_CHAOS_RANK") else {
        return; // not spawned as a helper: nothing to do
    };
    let rank: usize = rank.parse().expect("SPEC_CHAOS_RANK");
    let addrs: Vec<SocketAddr> = std::env::var("SPEC_CHAOS_ADDRS")
        .expect("SPEC_CHAOS_ADDRS")
        .split(',')
        .map(|a| a.parse().expect("address"))
        .collect();
    let rejoining = std::env::var("SPEC_CHAOS_MODE").as_deref() == Ok("rejoin");

    let opts = supervised_opts();
    let mut t = if rejoining {
        // A SIGKILLed process has no volatile state to resume from: it
        // re-runs its partition from iteration 0, letting the survivors' keyframe sync and loss promotions carry
        // it back to the frontier.
        rejoin_socket_cluster::<IterMsg<Vec<f64>>>(rank, &addrs, opts).expect("rejoin")
    } else {
        connect_socket_cluster::<IterMsg<Vec<f64>>>(rank, &addrs, opts).expect("connect")
    };
    println!("CHAOS-READY rank={rank}");

    let rgs = ranges();
    let mut app = SyntheticApp::new(N, &rgs, rank, app_cfg());
    let stats = poll_ready(run_speculative_aio(&mut t, &mut app, ITERS, driver_cfg()));
    let values = app
        .values()
        .iter()
        .map(|v| format!("{v:.17e}"))
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "CHAOS-RESULT rank={rank} iters={} rejoins={} quarantined={} degraded={} promoted={} values={values}",
        stats.iterations,
        stats.peer_rejoins,
        stats.peers_quarantined,
        stats.degraded_commits,
        stats.speculate_through_loss_commits,
    );
}

// ---------------------------------------------------------------------------
// Parent-side plumbing.
// ---------------------------------------------------------------------------

struct ChildProc {
    child: Child,
    lines: Arc<Mutex<Vec<String>>>,
}

/// Reserve `p` distinct loopback ports by binding ephemeral listeners,
/// then release them for the children to rebind. There is a small window
/// in which another process could grab one; on a CI loopback that race
/// is negligible and a collision fails loudly at connect time.
fn free_addrs(p: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..p)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

fn spawn_rank(rank: usize, addr_env: &str, mode: &str) -> ChildProc {
    let exe = std::env::current_exe().expect("current exe");
    let mut child = Command::new(exe)
        .args(["chaos_socket_child", "--exact", "--ignored", "--nocapture"])
        .env("SPEC_CHAOS_RANK", rank.to_string())
        .env("SPEC_CHAOS_ADDRS", addr_env)
        .env("SPEC_CHAOS_MODE", mode)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child rank");
    let stdout = child.stdout.take().expect("piped stdout");
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&lines);
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            sink.lock().unwrap().push(line);
        }
    });
    ChildProc { child, lines }
}

fn wait_for_line(p: &ChildProc, needle: &str, deadline: Instant) {
    while Instant::now() < deadline {
        if p.lines.lock().unwrap().iter().any(|l| l.contains(needle)) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!(
        "timed out waiting for {needle:?}; child output so far: {:?}",
        p.lines.lock().unwrap()
    );
}

fn wait_until(child: &mut Child, deadline: Instant) -> ExitStatus {
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("child did not terminate before the deadline");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

struct ChildResult {
    iters: u64,
    rejoins: u64,
    quarantined: u64,
    degraded: u64,
    promoted: u64,
    values: Vec<f64>,
}

fn parse_result(lines: &[String]) -> ChildResult {
    let line = lines
        .iter()
        .find(|l| l.contains("CHAOS-RESULT"))
        .unwrap_or_else(|| panic!("no CHAOS-RESULT line in child output: {lines:?}"));
    let field = |key: &str| -> String {
        let prefix = format!("{key}=");
        line.split_whitespace()
            .find_map(|w| w.strip_prefix(&prefix).map(str::to_owned))
            .unwrap_or_else(|| panic!("missing {key} in {line:?}"))
    };
    ChildResult {
        iters: field("iters").parse().expect("iters"),
        rejoins: field("rejoins").parse().expect("rejoins"),
        quarantined: field("quarantined").parse().expect("quarantined"),
        degraded: field("degraded").parse().expect("degraded"),
        promoted: field("promoted").parse().expect("promoted"),
        values: field("values")
            .split(',')
            .map(|v| v.parse().expect("value"))
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// The chaos run.
// ---------------------------------------------------------------------------

#[test]
#[ignore = "multi-process wall-clock chaos run; executed by ci.sh's release-mode chaos step"]
fn socket_rank_survives_sigkill_and_rejoins() {
    let overall = Instant::now() + Duration::from_secs(90);
    let addrs = free_addrs(P);
    let addr_env = addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");

    let mut procs: Vec<ChildProc> = (0..P).map(|r| spawn_rank(r, &addr_env, "start")).collect();
    for (r, p) in procs.iter().enumerate() {
        wait_for_line(p, &format!("CHAOS-READY rank={r}"), overall);
    }

    // Let the run get well underway, then SIGKILL the victim — no
    // goodbye frame, no flush: the survivors observe crash semantics.
    std::thread::sleep(Duration::from_millis(400));
    procs[VICTIM].child.kill().expect("SIGKILL victim");
    procs[VICTIM].child.wait().expect("reap victim");

    // Keep it dead past the supervisor's miss deadline and several loss
    // timeouts, so the survivors suspect, quarantine, and commit
    // degraded iterations for its partition...
    std::thread::sleep(Duration::from_millis(450));

    // ...then restart it. The fresh process rebinds the victim's
    // address and re-enters through the RESUME handshake.
    procs[VICTIM] = spawn_rank(VICTIM, &addr_env, "rejoin");

    for (r, p) in procs.iter_mut().enumerate() {
        let status = wait_until(&mut p.child, overall);
        assert!(status.success(), "rank {r} exited with {status:?}");
    }

    for (r, p) in procs.iter().enumerate() {
        for line in p.lines.lock().unwrap().iter() {
            if line.contains("CHAOS-") {
                println!("rank {r}: {line}");
            }
        }
    }
    let results: Vec<ChildResult> = procs
        .iter()
        .map(|p| parse_result(&p.lines.lock().unwrap()))
        .collect();

    // Termination + reintegration: every rank — including the restarted
    // one — confirmed every iteration.
    for (r, res) in results.iter().enumerate() {
        assert_eq!(res.iters, ITERS, "rank {r} did not confirm every iteration");
    }

    // The cluster quarantined the dead rank, carried its partition by
    // promoted speculation while it was down, and readmitted it when its
    // frames flowed again. Whether *each* survivor individually reaches
    // quarantine depends on how much of the victim's pre-crash output it
    // had buffered when the kill landed, so the lifecycle is asserted
    // across the surviving set rather than per rank.
    let survivors = &results[..P - 1];
    let quarantined: u64 = survivors.iter().map(|r| r.quarantined).sum();
    let degraded: u64 = survivors.iter().map(|r| r.degraded).sum();
    let rejoins: u64 = survivors.iter().map(|r| r.rejoins).sum();
    let promoted: u64 = survivors.iter().map(|r| r.promoted).sum();
    assert!(quarantined >= 1, "no survivor ever quarantined the victim");
    assert!(degraded >= 1, "no survivor committed degraded iterations");
    assert!(rejoins >= 1, "no survivor readmitted the victim");
    assert!(
        promoted >= 1,
        "no survivor speculated through the victim's silence"
    );

    // Bounded error: the synthetic workload relaxes toward the global
    // mean of its initial ramp over [1, 2], so every fault-free final
    // value sits near 1.46. Promotions substitute extrapolated values
    // while the victim is away, which perturbs — but must not unbound —
    // the fixed point each rank converges to.
    let sc = SyntheticScenario {
        p: P,
        n: N,
        iters: ITERS,
        mips: 50.0,
        ramp: 0.0,
        latency_us: 200,
        jitter_frac: 0.0,
        jump_prob: 0.0,
        delta_floor: 0.0,
        delta_keyframe: 1,
        seed: SEED,
    };
    let cfg = SpecParams {
        fw: 2,
        bw: 2,
        theta: 0.0,
        recompute: true,
    }
    .build();
    let fifo = Backend::Sim(TieBreak::Fifo);
    let reference = run(fifo, &sc, 0.0, &cfg, FaultSpec::none()).values;
    for (r, res) in results.iter().enumerate() {
        assert_eq!(res.values.len(), reference[r].len(), "rank {r} value count");
        for (i, (got, want)) in res.values.iter().zip(&reference[r]).enumerate() {
            assert!(got.is_finite(), "rank {r} var {i} is not finite: {got}");
            assert!(
                (got - want).abs() < 0.5,
                "rank {r} var {i} drifted unboundedly: {got} vs fault-free {want}"
            );
        }
    }
}
