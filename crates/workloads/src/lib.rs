//! # workloads — additional synchronous iterative applications
//!
//! The paper's §2 lists the algorithm family its technique targets:
//! "iterative techniques to solve linear and non-linear equations, solution
//! of partial differential equations, numerical integration, particle
//! simulation". Beyond the N-body case study (the `nbody` crate), this
//! crate implements four more members of that family against
//! [`speccore::SpeculativeApp`]:
//!
//! * [`SyntheticApp`] — the §4 abstract workload (`N` variables, explicit
//!   `f_comp`/`f_spec`/`f_check` costs, tunable jump probability that
//!   controls the misspeculation fraction `k`);
//! * [`Heat2dApp`] — 2-D Jacobi heat diffusion with speculative row-halo
//!   exchange (the PDE case);
//! * [`JacobiApp`] — Jacobi iteration on a dense diagonally dominant
//!   linear system (the dense all-to-all case, O(N_i·N_k) coupling);
//! * [`PageRankApp`] — power iteration over a seeded random graph.
//!
//! All four have exact incremental corrections (their updates are linear
//! in the remote values) and sequential references for validation. Their
//! shared values are [`speccore::Lanes`] of `f64` (Synthetic, Jacobi and
//! PageRank's partitions are one row, Heat2d's halo two), so delta
//! exchange, and the linear speculation of all but Synthetic, are
//! `speccore`'s defaults. They share one per-lane θ-check and one rule for
//! a peer value of the wrong length: use its common prefix with the
//! sender's partition, and reject it in `check`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod heat2d;
mod jacobi;
mod lanes;
mod pagerank;
mod synthetic;

pub use heat2d::{heat2d_reference, Heat2dApp, Heat2dConfig, RowHalo};
pub use jacobi::{JacobiApp, JacobiConfig, LinearSystem};
pub use pagerank::{pagerank_reference, Graph, PageRankApp, PageRankConfig};
pub use synthetic::{synthetic_reference, SyntheticApp, SyntheticConfig};
