//! Criterion microbenchmarks of the simulation substrate itself: event
//! queue throughput, process context-switch cost, and a full all-to-all
//! cluster round — the overheads that bound how large an experiment the
//! virtual-time harness can run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use desim::{EventKind, EventQueue, ProcessId, SimDuration, SimTime, Simulation};
use mpk::{run_sim_proc_cluster, AsyncTransport, Tag};
use netsim::{ClusterSpec, ConstantLatency, Unloaded};

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for n in [1_000u64, 100_000] {
        group.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for i in 0..n {
                    q.push(
                        SimTime::from_nanos((i * 7919) % 1_000_000),
                        EventKind::Wake(ProcessId(0)),
                    );
                }
                let mut drained = 0u64;
                while let Some((key, _)) = q.pop_event() {
                    black_box(key);
                    drained += 1;
                }
                black_box(drained)
            });
        });
    }
    group.finish();
}

fn bench_context_switch(c: &mut Criterion) {
    // One advance() = one suspend/resume of the process's state machine +
    // one heap op.
    c.bench_function("process_advance_10k", |b| {
        b.iter(|| {
            let mut sim = Simulation::new();
            sim.spawn_async("p", |h| async move {
                for _ in 0..10_000 {
                    h.advance(SimDuration::from_nanos(1)).await;
                }
            });
            black_box(sim.run().unwrap().events_processed)
        });
    });
}

fn bench_cluster_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("all_to_all_round");
    group.sample_size(10);
    for p in [4usize, 16] {
        group.bench_with_input(BenchmarkId::new("ranks", p), &p, |b, &p| {
            let cluster = ClusterSpec::homogeneous(p, 100.0);
            b.iter(|| {
                let (outs, _) = run_sim_proc_cluster::<u64, _, _, _>(
                    &cluster,
                    ConstantLatency(SimDuration::from_micros(10)),
                    Unloaded,
                    false,
                    |mut t| async move {
                        let mut acc = 0u64;
                        for round in 0..10u64 {
                            t.broadcast(Tag(0), round).await;
                            for _ in 0..t.size() - 1 {
                                acc += t.recv().await.msg;
                            }
                        }
                        acc
                    },
                )
                .unwrap();
                black_box(outs)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_context_switch,
    bench_cluster_round
);
criterion_main!(benches);
