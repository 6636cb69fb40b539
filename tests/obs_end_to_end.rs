//! End-to-end contract of the `obs` telemetry subsystem.
//!
//! The headline guarantee: spans are emitted with the *same*
//! `AsyncTransport::now()` readings the speculative driver feeds its
//! `PhaseBreakdown`, so per-rank span durations agree with the phase
//! accounting **bit for bit** — and on the simulator, where the phases
//! partition a rank's virtual run time exhaustively, they partition total
//! time too. (On real threads the wall time between charged spans is in
//! no phase, so there the partition does not hold.)
//!
//! Also covered: the Chrome-trace exporter against a golden file,
//! determinism of same-seed traces (virtual-time runs byte-identical;
//! real-thread runs identical in their time-independent fields), and the
//! zero-allocation promise of every disabled telemetry path.

use speculative_computation::prelude::*;

use speccheck::alloc::{allocations_here, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// Bit-exact phase accounting
// ---------------------------------------------------------------------------

fn assert_trace_matches_stats(trace: &RunTrace, stats: &RunStats) {
    assert_eq!(trace.rank as usize, stats.rank.0);
    let totals = trace.phase_totals();
    let phases = &stats.phases;
    assert_eq!(
        totals.compute,
        phases.compute.as_nanos(),
        "compute, rank {}",
        trace.rank
    );
    assert_eq!(
        totals.comm_wait,
        phases.comm_wait.as_nanos(),
        "comm_wait, rank {}",
        trace.rank
    );
    assert_eq!(
        totals.speculate,
        phases.speculate.as_nanos(),
        "speculate, rank {}",
        trace.rank
    );
    assert_eq!(
        totals.check,
        phases.check.as_nanos(),
        "check, rank {}",
        trace.rank
    );
    assert_eq!(
        totals.correct,
        phases.correct.as_nanos(),
        "correct, rank {}",
        trace.rank
    );
    // The partition property: span durations sum to the driver's measured
    // total run time, exactly.
    assert_eq!(
        totals.total(),
        stats.total_time.as_nanos(),
        "partition, rank {}",
        trace.rank
    );
}

#[test]
fn nbody_span_durations_partition_total_time_bit_for_bit() {
    let cluster = ClusterSpec::homogeneous(3, 1.0);
    let particles = centered_cloud(24, 11);
    let result = run_parallel(
        &particles,
        &cluster,
        ConstantLatency(SimDuration::from_millis(3)),
        Unloaded,
        ParallelRunConfig::new(4, 1).with_trace(),
    )
    .expect("n-body run failed");

    let traces = result
        .traces
        .as_deref()
        .expect("with_trace() collects telemetry");
    assert_eq!(traces.len(), 3);
    for (trace, stats) in traces.iter().zip(&result.stats.per_rank) {
        assert!(!trace.spans().is_empty());
        assert_trace_matches_stats(trace, stats);
    }
}

/// Run a synthetic-workload cluster with a recorder attached, returning
/// per-rank traces alongside the driver's own statistics.
fn traced_synthetic_run(fw: u32, iters: u64) -> (Vec<RunTrace>, Vec<RunStats>) {
    let p = 2;
    let n_vars = 16;
    let cluster = ClusterSpec::homogeneous(p, 0.05);
    let ranges: Vec<_> = (0..p)
        .map(|i| i * n_vars / p..(i + 1) * n_vars / p)
        .collect();
    let recorder = SharedRecorder::new();
    let (stats, _) = run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(
        &cluster,
        ConstantLatency(SimDuration::from_millis(4)),
        Unloaded,
        |mut t| {
            t.set_recorder(Box::new(recorder.clone()));
            let mut app = SyntheticApp::new(
                n_vars,
                &ranges,
                t.rank().0,
                SyntheticConfig {
                    f_comp: 4,
                    f_spec: 1,
                    f_check: 1,
                    theta: 0.5,
                    ..Default::default()
                },
            );
            let cfg = if fw == 0 {
                SpecConfig::baseline()
            } else {
                SpecConfig::speculative(fw)
            };
            async move { run_speculative_aio(&mut t, &mut app, iters, cfg).await }
        },
    )
    .expect("simulation failed");
    (RunTrace::split_by_rank(recorder.drain()), stats)
}

#[test]
fn workloads_traced_run_partitions_and_counts() {
    let (traces, stats) = traced_synthetic_run(1, 5);
    assert_eq!(traces.len(), 2);
    for (trace, stats) in traces.iter().zip(&stats) {
        assert_trace_matches_stats(trace, stats);
        let counters = trace.counter_totals();
        // Every iteration broadcasts to the one peer; all arrive by the end.
        assert_eq!(counters.commits, stats.iterations);
        assert!(counters.messages_sent >= stats.iterations);
        assert_eq!(counters.messages_received, counters.messages_sent);
        assert!(counters.bytes_sent > 0);
        assert_eq!(counters.speculations, stats.speculated_partitions);
        assert_eq!(counters.misspeculations, stats.misspeculated_partitions);
        assert_eq!(counters.corrections, stats.corrections);
        assert_eq!(counters.rollbacks, stats.rollbacks);
    }
}

#[test]
fn baseline_run_has_no_speculative_spans() {
    let (traces, stats) = traced_synthetic_run(0, 3);
    for (trace, stats) in traces.iter().zip(&stats) {
        assert_trace_matches_stats(trace, stats);
        let totals = trace.phase_totals();
        assert_eq!(totals.correct, 0);
        assert!(totals.comm_wait > 0, "baseline must block on the channel");
    }
}

// ---------------------------------------------------------------------------
// Chrome exporter: golden file + determinism
// ---------------------------------------------------------------------------

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chrome_trace.json")
}

#[test]
fn chrome_trace_matches_golden_file() {
    let (traces, _) = traced_synthetic_run(1, 2);
    let rendered = chrome_trace_string(&traces);
    // Drift fails with the first differing line; an intended change is
    // blessed with `SPEC_UPDATE_GOLDENS=1 cargo test -q chrome_trace`.
    speccheck::assert_matches_golden(&golden_path(), &rendered);
}

#[test]
fn sim_traces_are_deterministic_across_runs() {
    let (a, _) = traced_synthetic_run(1, 4);
    let (b, _) = traced_synthetic_run(1, 4);
    // Virtual time makes the whole trace — timestamps included —
    // byte-for-byte reproducible.
    assert_eq!(chrome_trace_string(&a), chrome_trace_string(&b));
}

/// The time-independent face of a trace: what must agree between a
/// virtual-time run and a wall-clock (thread) run of the same program.
fn stable_counters(trace: &RunTrace) -> (u64, u64, u64, u64, u64) {
    let c = trace.counter_totals();
    (
        c.messages_sent,
        c.messages_received,
        c.bytes_sent,
        c.bytes_received,
        c.commits,
    )
}

fn traced_thread_run(iters: u64) -> Vec<RunTrace> {
    let p = 2;
    let n_vars = 16;
    let ranges: Vec<_> = (0..p)
        .map(|i| i * n_vars / p..(i + 1) * n_vars / p)
        .collect();
    let recorder = SharedRecorder::new();
    let rank_recorder = recorder.clone();
    run_thread_cluster::<IterMsg<Vec<f64>>, _, _>(p, ThreadClusterOptions::default(), move |t| {
        t.set_recorder(Box::new(rank_recorder.clone()));
        let mut app = SyntheticApp::new(
            n_vars,
            &ranges,
            t.rank().0,
            SyntheticConfig {
                f_comp: 4,
                f_spec: 1,
                f_check: 1,
                theta: 0.5,
                ..Default::default()
            },
        );
        poll_ready(run_speculative_aio(
            t,
            &mut app,
            iters,
            SpecConfig::speculative(1),
        ))
    });
    RunTrace::split_by_rank(recorder.drain())
}

#[test]
fn thread_traces_agree_with_sim_on_time_independent_fields() {
    let (sim, _) = traced_synthetic_run(1, 4);
    let threads = traced_thread_run(4);
    assert_eq!(sim.len(), threads.len());
    for (s, t) in sim.iter().zip(&threads) {
        assert_eq!(s.rank, t.rank);
        // Timestamps are wall-clock on threads and virtual in the sim, so
        // span durations differ — but the message traffic and commit
        // counts are properties of the algorithm, not of the clock.
        assert_eq!(stable_counters(s), stable_counters(t), "rank {}", s.rank);
    }
    // And two thread runs agree with each other on the same fields.
    let again = traced_thread_run(4);
    for (t1, t2) in threads.iter().zip(&again) {
        assert_eq!(stable_counters(t1), stable_counters(t2), "rank {}", t1.rank);
    }
}

// ---------------------------------------------------------------------------
// Zero allocation on every disabled telemetry path
// ---------------------------------------------------------------------------

#[test]
fn disabled_recorder_does_not_allocate() {
    let cluster = ClusterSpec::homogeneous(1, 1.0);
    let (counts, _) = run_sim_proc_cluster::<u64, _, _, _>(
        &cluster,
        ConstantLatency(SimDuration::from_millis(1)),
        Unloaded,
        |mut t| async move {
            let before = allocations_here();
            for _ in 0..1000u64 {
                // No recorder installed: instrumentation sees `None` and
                // skips — the pattern used across driver and transports.
                if let Some(r) = t.recorder() {
                    r.span(0, 0, 0, obs::Phase::Compute, None, None);
                }
            }
            allocations_here() - before
        },
    )
    .expect("simulation failed");
    assert_eq!(counts, vec![0], "disabled telemetry hot path allocated");
}
