//! Zero-allocation contract of the steady-state iteration hot paths.
//!
//! After a warm-up iteration has sized every buffer (snapshot ring slots,
//! checkpoint slots, accumulators, scratch grids), the per-iteration
//! compute paths of the N-body, heat-2d, and Jacobi apps must not touch
//! the heap at all. The N-body measurement drives the full speculative
//! shape by hand — shared → checkpoint → begin → absorb → check → finish,
//! plus an incremental correction pass, accepted and rejected — so the
//! claim covers exactly what the driver executes per iteration.
//!
//! Counted rather than zero: N-body `speculate`, which by contract returns
//! a new prediction — each order's exact allocations per call are pinned
//! below (`Hold` none, eq. 10 its position lanes only) — and the heat-2d
//! `shared()` (its `RowHalo` rows are genuinely new messages). What the
//! driver allocates around them is bounded instead: the two 16-rank
//! steady-state ceilings at the end of this file.

use std::ops::Range;

use desim::SimReport;
use mpk::Rank;
use speccore::SpeculativeApp;
use speculative_computation::prelude::*;

use speccheck::alloc::{allocations_here, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn even_ranges(n: usize, p: usize) -> Vec<Range<usize>> {
    (0..p).map(|i| i * n / p..(i + 1) * n / p).collect()
}

#[test]
fn nbody_iteration_hot_path_is_allocation_free() {
    let n = 96;
    let particles = uniform_cloud(n, 11);
    let ranges = partition_proportional(n, &[1.0, 1.0]);
    let cfg = NBodyConfig::default().with_theta(0.01);
    let mut a = NBodyApp::new(&particles, ranges.clone(), 0, cfg, SpeculationOrder::Linear);
    let mut b = NBodyApp::new(&particles, ranges, 1, cfg, SpeculationOrder::Linear);
    let mut ckpt_a = None;
    let mut ckpt_b = None;

    let mut iteration = |a: &mut NBodyApp, b: &mut NBodyApp| {
        // The driver's per-iteration shape: snapshot exchange, checkpoint,
        // compute, eq. 11 check of a (perfect) speculation, finish.
        let share_a = a.shared();
        let share_b = b.shared();
        a.checkpoint_into(&mut ckpt_a);
        b.checkpoint_into(&mut ckpt_b);
        a.begin_iteration();
        b.begin_iteration();
        a.absorb(Rank(1), &share_b);
        b.absorb(Rank(0), &share_a);
        let out = a.check(Rank(1), &share_b, &share_b);
        assert!(out.accept);
        // Correction path with an accepted (θ-passing) speculation: the
        // scan runs, repairs nothing, and must not allocate either.
        let ops = a.correct(Rank(1), &share_b, &share_b);
        assert_eq!(ops, 0);
        drop(share_a);
        drop(share_b);
        a.finish_iteration();
        b.finish_iteration();
    };

    // Warm-up: grows the snapshot ring and checkpoint slots to steady size.
    for _ in 0..3 {
        iteration(&mut a, &mut b);
    }

    let before = allocations_here();
    for _ in 0..5 {
        iteration(&mut a, &mut b);
    }
    assert_eq!(
        allocations_here() - before,
        0,
        "n-body steady-state iteration must not allocate"
    );
}

#[test]
fn nbody_restore_and_hold_speculation_are_allocation_free() {
    let n = 64;
    let particles = uniform_cloud(n, 13);
    let ranges = partition_proportional(n, &[1.0, 1.0]);
    let cfg = NBodyConfig::default();
    let mut app = NBodyApp::new(&particles, ranges, 0, cfg, SpeculationOrder::Hold);
    let mut ckpt = None;
    let remote = std::sync::Arc::new(PartitionShared::from_vec3s(
        &particles[n / 2..].iter().map(|p| p.pos).collect::<Vec<_>>(),
        &particles[n / 2..].iter().map(|p| p.vel).collect::<Vec<_>>(),
    ));
    let mut hist = History::new(4);
    hist.record(0, remote.clone());

    // Warm-up: one rollback cycle sizes everything.
    app.checkpoint_into(&mut ckpt);
    app.begin_iteration();
    app.absorb(Rank(1), &remote);
    app.finish_iteration();
    app.restore(ckpt.as_ref().unwrap());

    let before = allocations_here();
    for _ in 0..4 {
        app.checkpoint_into(&mut ckpt);
        app.begin_iteration();
        app.absorb(Rank(1), &remote);
        app.finish_iteration();
        let (spec, _) = app.speculate(Rank(1), &hist, 1).unwrap();
        drop(spec); // Hold hands out an Arc clone of the history entry
        app.restore(ckpt.as_ref().unwrap());
    }
    assert_eq!(
        allocations_here() - before,
        0,
        "restore + Hold speculation must not allocate"
    );
}

/// What one `speculate` call allocates, once warm: `Hold` hands out the
/// history entry itself; eq. 10 (`Linear`) holds the velocity constant,
/// so its prediction owns three position lanes and the snapshot's `Arc`
/// and shares the entry's velocities; `Quadratic` predicts velocities
/// too: six lanes, each allocated once at its final length, and two `Arc`s.
#[test]
fn nbody_speculate_allocates_only_the_prediction() {
    let n = 64;
    let particles = uniform_cloud(n, 17);
    let ranges = partition_proportional(n, &[1.0, 1.0]);
    let theirs = &particles[n / 2..];
    let pos: Vec<Vec3> = theirs.iter().map(|p| p.pos).collect();
    let mut hist = History::new(4);
    for (iter, dv) in [
        (0, Vec3::new(0.0, 0.0, 0.0)),
        (1, Vec3::new(0.5, -0.25, 0.125)),
    ] {
        let vel: Vec<Vec3> = theirs.iter().map(|p| p.vel + dv).collect();
        hist.record(
            iter,
            std::sync::Arc::new(PartitionShared::from_vec3s(&pos, &vel)),
        );
    }
    let per_call = [
        (SpeculationOrder::Hold, 0),
        (SpeculationOrder::Linear, 4),
        (SpeculationOrder::Quadratic, 8),
    ];
    for (order, want) in per_call {
        let app = NBodyApp::new(&particles, ranges.clone(), 0, NBodyConfig::default(), order);
        drop(app.speculate(Rank(1), &hist, 1)); // warm-up
        for ahead in 1..=3 {
            let before = allocations_here();
            let prediction = app.speculate(Rank(1), &hist, ahead).unwrap();
            assert_eq!(allocations_here() - before, want, "{order:?}");
            drop(prediction);
        }
    }
}

/// The correction that matters is the one that repairs something: once
/// one call has grown the gather scratch to the largest bad set, `correct`
/// and `correct_deep` with rejected units — some of the partition, all of
/// it — gather, repair and republish the snapshot without touching the
/// heap.
#[test]
fn nbody_rejected_correction_is_allocation_free() {
    let n = 96;
    let particles = uniform_cloud(n, 11);
    let ranges = partition_proportional(n, &[1.0, 1.0]);
    let cfg = NBodyConfig::default().with_theta(0.01);
    let mut app = NBodyApp::new(&particles, ranges, 0, cfg, SpeculationOrder::Linear);
    let theirs = &particles[n / 2..];
    // Rank 1's snapshot, every `stride`-th position far off (eq. 11 ≫ θ).
    let snapshot = |stride: Option<usize>| {
        let off = Vec3::new(0.5, -0.25, 0.125);
        let pos: Vec<Vec3> = theirs
            .iter()
            .enumerate()
            .map(|(i, p)| match stride {
                Some(s) if i % s == 0 => p.pos + off,
                _ => p.pos,
            })
            .collect();
        let vel: Vec<Vec3> = theirs.iter().map(|p| p.vel).collect();
        std::sync::Arc::new(PartitionShared::from_vec3s(&pos, &vel))
    };
    let (actual, some_bad, all_bad) = (snapshot(None), snapshot(Some(5)), snapshot(Some(1)));
    let mine = (n / 2) as u64;
    let repair = |bad: u64| 2 * nbody::forces::OPS_PER_PAIR * mine * bad;

    // Warm-up: one iteration, then one correction with every unit bad.
    app.begin_iteration();
    app.absorb(Rank(1), &all_bad);
    app.finish_iteration();
    assert_eq!(app.correct(Rank(1), &all_bad, &actual), repair(mine));

    let before = allocations_here();
    for (spec, bad) in [(&some_bad, mine.div_ceil(5)), (&all_bad, mine)] {
        assert_eq!(app.correct(Rank(1), spec, &actual), repair(bad));
        assert_eq!(
            app.correct_deep(Rank(1), spec, &actual, 2),
            Some(repair(bad))
        );
    }
    assert_eq!(
        allocations_here() - before,
        0,
        "a correction with rejected units must not allocate"
    );
}

/// At N = 1024 on two ranks every absorb (512 × 512 pairs) and every
/// repair of a fifth of the peer's units is large enough to hand half its
/// target rows to the force helper thread. The thread-local counter still
/// sees every allocation the split could make: the caller grows the
/// recycled buffers the helper's half travels in (during warm-up, along
/// with starting the thread), and the helper thread computes in place and
/// never allocates.
#[test]
fn nbody_split_kernels_are_allocation_free() {
    let n = 1024;
    let particles = uniform_cloud(n, 23);
    let ranges = partition_proportional(n, &[1.0, 1.0]);
    let cfg = NBodyConfig::default().with_theta(0.01);
    let mut a = NBodyApp::new(&particles, ranges.clone(), 0, cfg, SpeculationOrder::Linear);
    let mut b = NBodyApp::new(&particles, ranges, 1, cfg, SpeculationOrder::Linear);
    let theirs = &particles[n / 2..];
    let vel: Vec<Vec3> = theirs.iter().map(|p| p.vel).collect();
    let pos: Vec<Vec3> = theirs.iter().map(|p| p.pos).collect();
    let actual = std::sync::Arc::new(PartitionShared::from_vec3s(&pos, &vel));
    let off = Vec3::new(0.5, -0.25, 0.125);
    let wrong: Vec<Vec3> = pos
        .iter()
        .enumerate()
        .map(|(i, &p)| if i % 5 == 0 { p + off } else { p })
        .collect();
    let speculated = std::sync::Arc::new(PartitionShared::from_vec3s(&wrong, &vel));
    let (mine, bad) = ((n / 2) as u64, (n / 2).div_ceil(5) as u64);
    let (mut ckpt_a, mut ckpt_b) = (None, None);

    let mut iteration = |a: &mut NBodyApp, b: &mut NBodyApp| {
        let share_a = a.shared();
        let share_b = b.shared();
        a.checkpoint_into(&mut ckpt_a);
        b.checkpoint_into(&mut ckpt_b);
        a.begin_iteration();
        b.begin_iteration();
        a.absorb(Rank(1), &share_b);
        b.absorb(Rank(0), &share_a);
        drop(share_a);
        drop(share_b);
        a.finish_iteration();
        b.finish_iteration();
        let ops = a.correct(Rank(1), &speculated, &actual);
        assert_eq!(ops, 2 * nbody::forces::OPS_PER_PAIR * mine * bad);
    };

    for _ in 0..3 {
        iteration(&mut a, &mut b);
    }
    let before = allocations_here();
    for _ in 0..4 {
        iteration(&mut a, &mut b);
    }
    assert_eq!(
        allocations_here() - before,
        0,
        "split absorb and correction must not allocate"
    );
}

#[test]
fn heat2d_compute_path_is_allocation_free() {
    let (rows, cols, p) = (24, 16, 3);
    let ranges = even_ranges(rows, p);
    let cfg = Heat2dConfig::default();
    let mut apps: Vec<Heat2dApp> = (0..p)
        .map(|me| Heat2dApp::new(rows, cols, &ranges, me, cfg))
        .collect();
    let mut ckpts: Vec<Option<Vec<f64>>> = vec![None; p];

    let iteration = |apps: &mut Vec<Heat2dApp>, ckpts: &mut Vec<Option<Vec<f64>>>| {
        // shared() builds the halo messages (excluded: genuinely new data);
        // everything from checkpoint onward is the measured hot path.
        let halos: Vec<_> = apps.iter().map(|a| a.shared()).collect();
        let start = allocations_here();
        for (me, app) in apps.iter_mut().enumerate() {
            app.checkpoint_into(&mut ckpts[me]);
            app.begin_iteration();
            for (k, halo) in halos.iter().enumerate() {
                if k != me {
                    app.absorb(Rank(k), halo);
                }
            }
            app.finish_iteration();
        }
        allocations_here() - start
    };

    iteration(&mut apps, &mut ckpts); // warm-up
    for _ in 0..4 {
        assert_eq!(
            iteration(&mut apps, &mut ckpts),
            0,
            "heat2d stencil sweep must not allocate"
        );
    }
}

#[test]
fn jacobi_compute_path_is_allocation_free() {
    let (n, p) = (48, 3);
    let sys = LinearSystem::random(n, 5);
    let ranges = even_ranges(n, p);
    let cfg = JacobiConfig::default();
    let mut apps: Vec<JacobiApp> = (0..p)
        .map(|me| JacobiApp::new(sys.clone(), &ranges, me, cfg))
        .collect();
    let mut ckpts: Vec<Option<Vec<f64>>> = vec![None; p];

    let iteration = |apps: &mut Vec<JacobiApp>, ckpts: &mut Vec<Option<Vec<f64>>>| {
        let shared: Vec<Vec<f64>> = apps.iter().map(|a| a.shared()).collect();
        let start = allocations_here();
        for (me, app) in apps.iter_mut().enumerate() {
            app.checkpoint_into(&mut ckpts[me]);
            app.begin_iteration();
            for (k, xs) in shared.iter().enumerate() {
                if k != me {
                    app.absorb(Rank(k), xs);
                }
            }
            app.finish_iteration();
        }
        allocations_here() - start
    };

    iteration(&mut apps, &mut ckpts); // warm-up
    for _ in 0..4 {
        assert_eq!(
            iteration(&mut apps, &mut ckpts),
            0,
            "jacobi row-block update must not allocate"
        );
    }
}

/// The stackless kernel itself is part of the zero-allocation contract:
/// once 1024 event-scheduled ranks reach steady state (event heap, ready
/// queue, mailbox wait lists and async-op slots all at capacity), a
/// send-free iteration — charged compute plus an expiring timed receive
/// per rank — must not touch the heap at all, in any rank *or* in the
/// kernel scheduling them. All ranks run on this one thread, so the
/// thread-local counter sees every allocation either would make.
#[test]
fn stackless_kernel_steady_state_is_allocation_free() {
    use std::cell::Cell;
    use std::rc::Rc;

    const P: usize = 1024;
    const WARMUP: u64 = 3;
    const MEASURED: u64 = 5;

    let before = Rc::new(Cell::new(0u64));
    let after = Rc::new(Cell::new(0u64));
    let (b0, a0) = (before.clone(), after.clone());

    let cluster = netsim::ClusterSpec::homogeneous(P, 50.0);
    let (outs, _report) = mpk::run_sim_proc_cluster_with_options::<(), _, _, _>(
        &cluster,
        netsim::ConstantLatency(desim::SimDuration::from_micros(1)),
        netsim::Unloaded,
        mpk::FaultSpec::none(),
        mpk::SimClusterOptions::default(),
        move |mut t| {
            let (before, after) = (b0.clone(), a0.clone());
            async move {
                use mpk::AsyncTransport;
                let me = t.rank().0;
                for iter in 0..WARMUP + MEASURED {
                    // All ranks run in lockstep virtual time, so rank 0's
                    // window brackets steady-state work from every rank.
                    if me == 0 && iter == WARMUP {
                        before.set(allocations_here());
                    }
                    t.compute(50).await;
                    let quiet = t.recv_timeout(desim::SimDuration::from_micros(10)).await;
                    assert!(quiet.is_none(), "send-free ring must stay quiet");
                }
                if me == 0 {
                    after.set(allocations_here());
                }
                me
            }
        },
    )
    .expect("steady-state cluster must complete");
    assert_eq!(outs.len(), P);
    assert!(after.get() >= before.get() && before.get() > 0);
    assert_eq!(
        after.get() - before.get(),
        0,
        "1024-rank stackless steady state must not allocate (kernel or ranks)"
    );
}

/// The kernel's exact growth from the short run to the long one:
/// `(events_processed, messages_sent)`. 200 more iterations of 16 ranks
/// broadcasting to 15 peers send 48 000 more messages. Beside each
/// allocation ceiling it is an exact arm for a change that claims the
/// driver's schedule does not move.
fn steady_counts(long: &SimReport, short: &SimReport) -> (u64, u64) {
    let events = long.events_processed - short.events_processed;
    (events, long.messages_sent - short.messages_sent)
}

/// Heap allocations of one fault-free 16-rank stackless N-body run: the
/// benchmark's `nbody16_small_sim` shape (N = 64 on the paper testbed,
/// FW = 1, θ = 0.01, incremental correction).
fn nbody16_run_allocations(iters: u64) -> (u64, SimReport) {
    let n = 64;
    let cluster = netsim::ClusterSpec::paper_testbed();
    let particles = centered_cloud(n, 42);
    let ranges = partition_proportional(n, &cluster.capacities());
    let app_cfg = spec_bench::experiments::experiment_nbody_config().with_theta(0.01);
    let cfg = SpecConfig::speculative(1).with_correction(CorrectionMode::Incremental);
    let (allocs, (stats, report)) = speccheck::alloc::count(|| {
        mpk::run_sim_proc_cluster_with_faults::<IterMsg<_>, _, _, _>(
            &cluster,
            spec_bench::experiments::testbed_network(42, n),
            netsim::Unloaded,
            mpk::FaultSpec::none(),
            false,
            |mut t| {
                use mpk::AsyncTransport;
                let mut app = NBodyApp::new(
                    &particles,
                    ranges.clone(),
                    t.rank().0,
                    app_cfg,
                    SpeculationOrder::Linear,
                );
                let cfg = cfg.clone();
                async move { speccore::run_speculative_aio(&mut t, &mut app, iters, cfg).await }
            },
        )
        .expect("fault-free cluster must complete")
    });
    assert!(stats.iter().all(|s| s.iterations == iters));
    (allocs, report)
}

/// The driver's own per-iteration bookkeeping — inbox rows, input
/// provenance tables, speculation scratch — is recycled, so what a
/// steady-state rank-iteration still allocates is the messages themselves:
/// the snapshot it broadcasts, the predictions `speculate` returns by
/// contract, and the kernel's per-send envelopes: 63.8 in all, against
/// 100.4 when every eq. 10 prediction copied its velocities and 111.6
/// with a map of hash maps for an inbox. Two run lengths cancel set-up
/// and warm-up.
#[test]
fn nbody16_driver_steady_state_allocations_stay_under_the_ceiling() {
    const CEILING_PER_RANK_ITER: f64 = 65.0;
    const NBODY16_STEADY_COUNTS: (u64, u64) = (93_348, 48_000);
    let (short, long) = (100u64, 300u64);
    let (a_long, long_run) = nbody16_run_allocations(long);
    let (a_short, short_run) = nbody16_run_allocations(short);
    let per_rank_iter = (a_long - a_short) as f64 / ((long - short) * 16) as f64;
    assert!(
        per_rank_iter <= CEILING_PER_RANK_ITER,
        "steady-state allocations per rank-iteration rose to {per_rank_iter:.1}"
    );
    assert_eq!(steady_counts(&long_run, &short_run), NBODY16_STEADY_COUNTS);
}

/// Heap allocations of one 16-rank stackless heat-2d run: the benchmark's
/// `heat2d16_sim` shape (64 × 64 grid on the paper testbed with the N = 64
/// network, FW = 1, θ = 0.01, incremental correction).
fn heat2d16_run_allocations(iters: u64) -> (u64, SimReport) {
    let (rows, cols) = (64, 64);
    let cluster = netsim::ClusterSpec::paper_testbed();
    let p = cluster.len();
    let ranges: Vec<Range<usize>> = (0..p).map(|r| r * rows / p..(r + 1) * rows / p).collect();
    let cfg = SpecConfig::speculative(1).with_correction(CorrectionMode::Incremental);
    let (allocs, (stats, report)) = speccheck::alloc::count(|| {
        mpk::run_sim_proc_cluster_with_faults::<IterMsg<_>, _, _, _>(
            &cluster,
            spec_bench::experiments::testbed_network(42, 64),
            netsim::Unloaded,
            mpk::FaultSpec::none(),
            false,
            |mut t| {
                use mpk::AsyncTransport;
                let mut app =
                    Heat2dApp::new(rows, cols, &ranges, t.rank().0, Heat2dConfig::default());
                let cfg = cfg.clone();
                async move { speccore::run_speculative_aio(&mut t, &mut app, iters, cfg).await }
            },
        )
        .expect("fault-free cluster must complete")
    });
    assert!(stats.iter().all(|s| s.iterations == iters));
    (allocs, report)
}

/// Heat-2d's halos are one shared `Arc` per broadcast and `speculate`
/// reads the peer's history in place through one scratch history per
/// call, so a steady-state rank-iteration allocates the broadcast, its
/// predictions and the driver's messages: 73.0, against 86.8 with one
/// scratch history per halo row and 3 736.6 when every halo was a deep
/// copy and every speculation rebuilt the history lane by lane.
#[test]
fn heat2d16_driver_steady_state_allocations_stay_under_the_ceiling() {
    const CEILING_PER_RANK_ITER: f64 = 80.0;
    const HEAT2D16_STEADY_COUNTS: (u64, u64) = (59_958, 48_000);
    let (short, long) = (100u64, 300u64);
    let (a_long, long_run) = heat2d16_run_allocations(long);
    let (a_short, short_run) = heat2d16_run_allocations(short);
    let per_rank_iter = (a_long - a_short) as f64 / ((long - short) * 16) as f64;
    assert!(
        per_rank_iter <= CEILING_PER_RANK_ITER,
        "steady-state allocations per rank-iteration rose to {per_rank_iter:.1}"
    );
    assert_eq!(steady_counts(&long_run, &short_run), HEAT2D16_STEADY_COUNTS);
}
