//! # speculative-computation
//!
//! A from-scratch Rust reproduction of **Govindan & Franklin,
//! "Speculative Computation: Overcoming Communication Delays in Parallel
//! Algorithms"** (WUCS-94-3 / ICPP 1994).
//!
//! Synchronous iterative algorithms exchange every partition's values every
//! iteration; on a slow network the processors spend much of their time
//! waiting. The paper's technique: *speculate* the contents of messages
//! that have not arrived (extrapolating from recent history), compute with
//! the speculated values, and when the real message lands either accept the
//! result (error ≤ θ), correct it incrementally, or recompute — thereby
//! overlapping communication with useful computation.
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |-------|------|
//! | [`desim`] | Deterministic discrete-event simulation kernel (virtual time, event-scheduled `async` processes, mailboxes) |
//! | [`netsim`] | Heterogeneous machines (`M_i`), shared-medium/jitter/transient network models, background load |
//! | [`mpk`] | PVM-style message-passing transport with virtual-time, real-thread, and real-TCP-socket backends |
//! | [`speccore`] | **The paper's contribution**: the speculative driver (Figures 1 & 3, forward/backward windows, θ checks, corrections, rollback, and the adaptive controller that retunes FW, θ and deadlines online) |
//! | [`nbody`] | The §5 case study: O(N²) N-body with eq. 10 speculation and eq. 11 checking (plus Barnes–Hut) |
//! | [`perfmodel`] | The §4 empirical performance model (eqs. 3–9, Figures 5/6/9) |
//! | [`workloads`] | More synchronous iterative apps: §4 synthetic, Jacobi heat, PageRank |
//! | [`obs`] | Structured telemetry: typed spans/counters, Chrome-trace export, run reports |
//!
//! ## Quickstart
//!
//! ```
//! use speculative_computation::prelude::*;
//!
//! // Four equal machines on a 5 ms-latency network.
//! let cluster = ClusterSpec::homogeneous(4, 1.0);
//! let particles = uniform_cloud(64, 7);
//!
//! let run = |fw: u32| {
//!     run_parallel(
//!         &particles,
//!         &cluster,
//!         ConstantLatency(SimDuration::from_millis(5)),
//!         Unloaded,
//!         ParallelRunConfig::new(5, fw),
//!     )
//!     .unwrap()
//!     .elapsed_secs()
//! };
//!
//! let baseline = run(0); // Figure 1: block on every message
//! let speculative = run(1); // Figure 3: speculate, check, correct
//! assert!(speculative < baseline);
//! ```

pub use desim;
pub use mpk;
pub use nbody;
pub use netsim;
pub use obs;
pub use perfmodel;
pub use speccore;
pub use workloads;

/// The names most programs need, re-exported flat.
pub mod prelude {
    pub use desim::{SimDuration, SimTime, TieBreak};
    // `AsyncTransport` is the interface every backend's endpoint offers
    // (the blocking `mpk::Transport` is deliberately not here: with both
    // traits in scope, method calls on a thread or socket endpoint would
    // be ambiguous).
    pub use mpk::{
        connect_socket_cluster, poll_ready, rejoin_socket_cluster, run_sim_proc_cluster,
        run_sim_proc_cluster_with_faults, run_sim_proc_cluster_with_options, run_socket_cluster,
        run_socket_cluster_with_faults, run_thread_cluster, run_thread_cluster_with_faults,
        AsyncTransport, FaultCounters, FaultSpec, Rank, SimClusterOptions, SimIo,
        SocketClusterOptions, SocketTransport, SupervisorOptions, Tag, ThreadClusterOptions,
    };
    pub use nbody::{
        centered_cloud, partition_proportional, rotating_disk, run_parallel,
        run_parallel_with_faults, uniform_cloud, NBodyApp, NBodyConfig, ParallelRunConfig,
        ParallelRunResult, PartitionShared, SpeculationOrder, Vec3,
    };
    pub use netsim::{
        ClusterSpec, ConstantLatency, CrashPlan, Duplicate, Fate, FaultPlan, FaultStack, Jitter,
        LinkBandwidth, LinkPartition, Loss, MachineCrash, NetworkModel, RandomSpikes,
        ScriptedDelays, ScriptedFaults, SharedMedium, TransientDelays, Unloaded,
    };
    pub use obs::{chrome_trace_string, fingerprint_f64s, RunReport, RunTrace, SharedRecorder};
    pub use perfmodel::{CommModel, ModelParams};
    pub use speccore::{
        run_baseline, run_baseline_aio, run_speculative, run_speculative_aio, ClusterStats,
        CorrectionMode, DeltaExchange, FaultTolerance, History, IterMsg, RunStats, SpecConfig,
        SpeculativeApp, SupervisionConfig,
    };
    pub use workloads::{
        Graph, Heat2dApp, Heat2dConfig, HeatApp, HeatConfig, JacobiApp, JacobiConfig, LinearSystem,
        PageRankApp, PageRankConfig, RowHalo, SyntheticApp, SyntheticConfig,
    };
}
