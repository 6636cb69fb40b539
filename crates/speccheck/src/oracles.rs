//! Invariant oracles: reusable checks that must hold for every run,
//! regardless of scenario ([`phase_partition`]: every simulator run). Each returns `Result<(), String>` so property
//! tests can `prop_assert!` on them and plain tests can `unwrap()`.

use nbody::forces::accumulate_self_soa;
use nbody::{uniform_cloud, Soa3, Vec3};
use speccore::{RunStats, SpeculativeApp};

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

/// `checkpoint()` → perturb → `restore()` must reproduce the app's state
/// bit-for-bit, as observed through `fingerprint`.
pub fn checkpoint_round_trip<A: SpeculativeApp>(
    app: &mut A,
    fingerprint: impl Fn(&A) -> u64,
    perturb: impl FnOnce(&mut A),
) -> Result<(), String> {
    let before = fingerprint(app);
    let snap = app.checkpoint();
    perturb(app);
    app.restore(&snap);
    let after = fingerprint(app);
    if before == after {
        Ok(())
    } else {
        Err(format!(
            "restore did not round-trip: fingerprint {before:#018x} -> {after:#018x}"
        ))
    }
}

/// A labelled sequence must be monotone nondecreasing (up to `tol` of
/// backwards noise per step).
pub fn monotone_nondecreasing(
    values: impl IntoIterator<Item = f64>,
    tol: f64,
    label: &str,
) -> Result<(), String> {
    let mut prev: Option<f64> = None;
    for (i, v) in values.into_iter().enumerate() {
        if let Some(p) = prev {
            if v < p - tol {
                return Err(format!("{label} not monotone at index {i}: {p} -> {v}"));
            }
        }
        prev = Some(v);
    }
    Ok(())
}

/// Relative total-momentum drift of a self-gravitating cloud integrated
/// with the symmetric SoA kernel for `steps` leapfrog steps.
///
/// Internal gravity exchanges momentum in equal and opposite pairs, and
/// [`accumulate_self_soa`] evaluates each pair *once* and applies it to
/// both endpoints — so Σ m·a is a sum of exactly cancelling terms and
/// total momentum is conserved to rounding. A drift above ~1e-9 relative
/// means the kernel's symmetry (or the integrator) is broken.
pub fn momentum_drift(n: usize, seed: u64, steps: u64, dt: f64) -> f64 {
    let particles = uniform_cloud(n, seed);
    let masses: Vec<f64> = particles.iter().map(|p| p.mass).collect();
    let mut pos = Soa3::from_vec3s(&particles.iter().map(|p| p.pos).collect::<Vec<_>>());
    let mut vel = Soa3::from_vec3s(&particles.iter().map(|p| p.vel).collect::<Vec<_>>());
    let mut acc = Soa3::zeros(n);

    let momentum = |vel: &Soa3| {
        let mut m = Vec3::new(0.0, 0.0, 0.0);
        for (i, &mass) in masses.iter().enumerate() {
            let v = vel.get(i);
            m = Vec3::new(m.x + mass * v.x, m.y + mass * v.y, m.z + mass * v.z);
        }
        m
    };
    let p0 = momentum(&vel);
    let scale = (p0.x.abs() + p0.y.abs() + p0.z.abs()).max(1e-12);

    let (g, eps) = (1.0, 0.05);
    for _ in 0..steps {
        acc.fill(Vec3::new(0.0, 0.0, 0.0));
        accumulate_self_soa(&pos, &masses, &mut acc, g, eps);
        for i in 0..n {
            let (v, a) = (vel.get(i), acc.get(i));
            let nv = Vec3::new(v.x + a.x * dt, v.y + a.y * dt, v.z + a.z * dt);
            vel.set(i, nv);
            let p = pos.get(i);
            pos.set(
                i,
                Vec3::new(p.x + nv.x * dt, p.y + nv.y * dt, p.z + nv.z * dt),
            );
        }
    }
    let p1 = momentum(&vel);
    ((p1.x - p0.x).abs() + (p1.y - p0.y).abs() + (p1.z - p0.z).abs()) / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_helper_accepts_and_rejects() {
        assert!(monotone_nondecreasing([1.0, 1.0, 2.0], 0.0, "ok").is_ok());
        assert!(monotone_nondecreasing([1.0, 0.5], 0.0, "bad").is_err());
        assert!(monotone_nondecreasing([1.0, 1.0 - 1e-12], 1e-9, "tol").is_ok());
    }

    #[test]
    fn momentum_drift_is_tiny_for_a_small_cloud() {
        let drift = momentum_drift(24, 3, 20, 1e-3);
        assert!(drift < 1e-9, "drift {drift} too large");
    }
}
