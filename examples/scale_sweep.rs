//! How far do event-scheduled ranks stretch? Each rank of this demo is a
//! resumable state machine inside the desim event kernel — no OS thread,
//! no stack — so cluster sizes that would exhaust the platform thread
//! limit run in one process. A token ring circulates over heterogeneous
//! (ramped-capacity, jittered-latency) machines and each point reports
//! wall-clock throughput plus peak-RSS growth per rank.
//!
//! Usage: `cargo run --release --example scale_sweep [max_ranks]`
//! (default 10000; the perf ledger's `ring100k_sim` workload is the
//! measured 100k-rank row).

use spec_bench::scale::run_scale_point;

fn main() {
    let max_ranks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    let mut ranks = 1_000usize;
    println!("stackless rank scaling (token ring, 3 rounds):");
    println!(
        "{:>8} {:>10} {:>14} {:>14} {:>12}",
        "ranks", "wall s", "events/s", "rank-rounds/s", "rss B/rank"
    );
    while ranks <= max_ranks {
        let r = run_scale_point(ranks, 3, 42);
        println!(
            "{:>8} {:>10.3} {:>14.0} {:>14.0} {:>12.0}",
            r.ranks,
            r.wall_secs,
            r.events_per_sec(),
            r.ranks_per_sec(),
            r.rss_bytes_per_rank()
        );
        ranks *= 10;
    }
}
