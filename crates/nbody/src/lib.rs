//! # nbody — the paper's §5 case study: parallel O(N²) N-body simulation
//!
//! "To illustrate the ideas and performance benefits of speculative
//! computation, the technique was implemented on a simple O(N²) N-body
//! simulation example" (Govindan & Franklin 1994, §5). This crate provides:
//!
//! * the physics: [`Vec3`] algebra, softened pairwise gravity
//!   ([`forces`]), semi-implicit Euler integration and conservation
//!   diagnostics ([`integrate`]);
//! * capacity-proportional particle [`partition`]ing (the paper's
//!   eqs. 4–5);
//! * [`NBodyApp`] — the partition as a [`speccore::SpeculativeApp`]:
//!   eq. 10 velocity-extrapolation speculation, eq. 11 relative-error
//!   checking against threshold θ, and per-particle incremental force
//!   correction;
//! * [`runner::run_parallel`] — the full experiment pipeline on a
//!   simulated heterogeneous cluster;
//! * [`barnes_hut`] — the O(N log N) comparator the paper's footnote
//!   references;
//! * initial-condition generators ([`particle`]).
//!
//! Cost constants ([`forces::OPS_PER_PAIR`] = 70,
//! [`forces::OPS_PER_SPECULATE`] = 12, [`forces::OPS_PER_CHECK`] = 24)
//! follow the paper's §5 measurements, so simulated phase timings keep the
//! paper's compute/speculate/check ratios.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod app;
pub mod barnes_hut;
pub mod forces;
pub mod integrate;
pub mod particle;
pub mod partition;
pub mod runner;
pub mod soa;
mod vec3;

pub use app::{NBodyApp, NBodyCheckpoint, PartitionShared, SpeculationOrder};
pub use particle::{
    binary_pair, centered_cloud, colliding_clouds, rotating_disk, uniform_cloud, NBodyConfig,
    Particle, SoaBodies,
};
pub use partition::{partition_proportional, proportionality_error, split_soa};
pub use runner::{run_parallel, run_parallel_with_faults, ParallelRunConfig, ParallelRunResult};
pub use soa::Soa3;
pub use vec3::{Vec3, ZERO3};
