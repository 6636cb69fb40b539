//! # nbody — the paper's §5 case study: parallel O(N²) N-body simulation
//!
//! "To illustrate the ideas and performance benefits of speculative
//! computation, the technique was implemented on a simple O(N²) N-body
//! simulation example" (Govindan & Franklin 1994, §5). This crate provides:
//!
//! * the physics: [`Vec3`] algebra, softened pairwise gravity
//!   ([`forces`]), and the sequential reference integrator with its energy
//!   and momentum diagnostics ([`integrate`]);
//! * capacity-proportional particle partitioning
//!   ([`partition_proportional`], the paper's eqs. 4–5);
//! * [`NBodyApp`] — the partition as a [`speccore::SpeculativeApp`]:
//!   eq. 10 velocity-extrapolation speculation, eq. 11 relative-error
//!   checking against threshold θ, and per-particle incremental force
//!   correction;
//! * [`run_parallel`] — the full experiment pipeline on a simulated
//!   heterogeneous cluster;
//! * initial-condition generators ([`uniform_cloud`], [`centered_cloud`],
//!   [`rotating_disk`]).
//!
//! Cost constants ([`forces::OPS_PER_PAIR`] = 70,
//! [`forces::OPS_PER_SPECULATE`] = 12, [`forces::OPS_PER_CHECK`] = 24)
//! follow the paper's §5 measurements, so simulated phase timings keep the
//! paper's compute/speculate/check ratios.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod app;
pub mod forces;
mod helper;
pub mod integrate;
mod particle;
mod partition;
mod runner;
mod soa;
mod vec3;

pub use app::{NBodyApp, PartitionShared, SpeculationOrder};
pub use particle::{centered_cloud, rotating_disk, uniform_cloud, NBodyConfig, Particle};
pub use partition::partition_proportional;
pub use runner::{run_parallel, run_parallel_with_faults, ParallelRunConfig, ParallelRunResult};
pub use soa::Soa3;
pub use vec3::{Vec3, ZERO3};
