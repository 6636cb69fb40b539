//! Invariant oracles: reusable checks that must hold for every run,
//! regardless of scenario ([`phase_partition`]: every simulator run). Each returns `Result<(), String>` so property
//! tests can `prop_assert!` on them and plain tests can `unwrap()`.

use speccore::RunStats;

/// Phase accounting of virtual time must be exhaustive: on the simulator
/// every nanosecond of a rank's run is attributed to exactly one phase
/// (or to crash downtime), so `phases.total() + downtime == total_time`
/// bit-for-bit. Thread and socket runs fail it by design: the wall time
/// between charged spans (sends, bookkeeping) is in no phase, so apply it
/// to simulator runs only.
pub fn phase_partition(stats: &RunStats) -> Result<(), String> {
    let accounted = stats.phases.total() + stats.downtime;
    if accounted == stats.total_time {
        Ok(())
    } else {
        Err(format!(
            "rank {}: phases {:?} + downtime {:?} = {:?} != total_time {:?}",
            stats.rank.0, stats.phases, stats.downtime, accounted, stats.total_time
        ))
    }
}

/// Accounting invariants for speculate-through-loss commits, cluster-wide
/// over loss-only fault stacks with no crashes and latency far below the
/// retransmit timeout:
///
/// 1. **Loss bound** — cluster-wide, `Σ commits ≤ Σ messages lost`.
///    Every promotion consumes at least one genuinely dropped message:
///    the driver promotes a missing input only with *evidence* the peer
///    broadcast past the stuck iteration (so that iteration's message
///    was dropped, not late), or after a retransmit request went a full
///    further timeout unanswered (so the request or its reply was
///    dropped). An earlier, timeout-only driver violated this bound via
///    a timeout cascade — one real loss stalled a rank long enough that
///    peers timed out on its merely-late broadcasts — and the witness in
///    `crates/speccheck/proptest-regressions/` pins that scenario; the
///    per-(peer, iteration) promotion guard and the evidence/grace
///    protocol fixed it.
/// 2. **Zero-loss implication** — if no message was lost, nothing may be
///    committed through the loss path (the timeout machinery must be
///    inert on a clean network). Subsumed by 1, kept for its sharper
///    error message.
/// 3. **Slot bound** — each rank owns `(p − 1) · iters` peer-input
///    slots, and a slot commits at most once (`InputSlot::Speculated` is
///    consumed on promotion), so per-rank commits can never exceed that.
pub fn loss_commit_accounting(stats: &[RunStats], iters: u64) -> Result<(), String> {
    let p = stats.len() as u64;
    let lost: u64 = stats.iter().map(|s| s.messages_lost).sum();
    let commits: u64 = stats.iter().map(|s| s.speculate_through_loss_commits).sum();
    if lost == 0 && commits > 0 {
        return Err(format!(
            "{commits} speculate-through-loss commits on a run that lost no messages"
        ));
    }
    if commits > lost {
        return Err(format!(
            "{commits} speculate-through-loss commits exceed the {lost} messages lost"
        ));
    }
    for s in stats {
        let slots = (p - 1) * iters;
        if s.speculate_through_loss_commits > slots {
            return Err(format!(
                "rank {}: {} commits exceed the {} peer-input slots",
                s.rank.0, s.speculate_through_loss_commits, slots
            ));
        }
    }
    Ok(())
}
