//! # netsim — heterogeneous cluster and network models
//!
//! This crate models the *computing platform* of Govindan & Franklin's
//! speculative-computation study: a pool of workstations of unequal speeds
//! connected by a shared, noisy network. It layers on top of the [`desim`]
//! discrete-event kernel:
//!
//! * [`MachineSpec`] — a processor's capacity `M_i` (operations/second,
//!   Table 1 of the paper), converting operation counts to virtual time;
//! * [`ClusterSpec`] — a fastest-first machine pool with the paper's linear
//!   capacity ramp (`M_1 = 10 × M_16`) as a canned configuration;
//! * [`NetworkModel`] — per-message delivery delay: constant, per-link,
//!   shared-medium with contention, plus [`TransientDelays`], [`Jitter`] and
//!   [`ScriptedDelays`] decorators;
//! * [`LoadModel`] — background load on timeshared machines, scaling
//!   compute phases;
//! * [`FaultModel`] — per-message fates (loss, duplication, corruption,
//!   partitions, scripted fault plans) plus [`CrashPlan`] machine outages,
//!   composable alongside the latency models.
//!
//! All stochastic models take explicit seeds and are deterministic.
//!
//! A delay computed here is the *exact* virtual instant the message
//! becomes visible to its receiver: delivery is event-driven end to end
//! (the kernel wakes a blocked receiver at that instant or at its
//! deadline — there is no polling quantum anywhere between a
//! [`NetworkModel`]'s answer and the application observing the message).

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod cluster;
mod fault;
mod load;
mod machine;
mod network;

pub use cluster::ClusterSpec;
pub use fault::{
    Corrupt, CrashPlan, Duplicate, Fate, FaultModel, FaultPlan, FaultStack, LinkPartition, Loss,
    MachineCrash, NoFaults, ScriptedFaults,
};
pub use load::{LoadModel, RandomSpikes, Unloaded};
pub use machine::MachineSpec;
pub use network::{
    BoxedNetworkModel, ConstantLatency, Jitter, LinkBandwidth, MsgCtx, NetworkModel,
    ScriptedDelays, SharedMedium, TransientDelays,
};

#[cfg(test)]
mod tests {
    use super::*;
    use desim::{SimDuration, SimTime};

    #[test]
    fn composed_model_stacks_decorators() {
        // Shared medium + scripted delay + jitter all compose.
        let base = SharedMedium::new(SimDuration::from_millis(1), 1e6);
        let scripted = ScriptedDelays::new(base, vec![(0, 1, 0, SimDuration::from_millis(7))]);
        let mut model = Jitter::new(scripted, 0.1, 42);
        let d = model.delay(&MsgCtx {
            src: 0,
            dst: 1,
            bytes: 1000,
            now: SimTime::ZERO,
        });
        // Base: 1ms tx + 1ms latency + 7ms script = 9ms, ±10%.
        let secs = d.as_secs_f64();
        assert!((0.0081..=0.0099).contains(&secs), "got {secs}");
    }
}
