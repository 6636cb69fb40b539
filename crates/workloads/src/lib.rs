//! # workloads — additional synchronous iterative applications
//!
//! The paper's §2 lists the algorithm family its technique targets:
//! "iterative techniques to solve linear and non-linear equations, solution
//! of partial differential equations, numerical integration, particle
//! simulation". Beyond the N-body case study (the `nbody` crate), this
//! crate implements three more members of that family against
//! [`speccore::SpeculativeApp`]:
//!
//! * [`SyntheticApp`] — the §4 abstract workload (`N` variables, explicit
//!   `f_comp`/`f_spec`/`f_check` costs, tunable jump probability that
//!   controls the misspeculation fraction `k`);
//! * [`HeatApp`] / [`Heat2dApp`] — 1-D and 2-D Jacobi heat diffusion with
//!   speculative halo exchange (the PDE case);
//! * [`JacobiApp`] — Jacobi iteration on a dense diagonally dominant
//!   linear system (the dense all-to-all case, O(N_i·N_k) coupling);
//! * [`PageRankApp`] — power iteration over a seeded random graph.
//!
//! All three have exact incremental corrections (their updates are linear
//! in the remote values) and sequential references for validation.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod heat;
mod heat2d;
mod jacobi;
mod pagerank;
mod synthetic;

pub use heat::{heat_reference, Halo, HeatApp, HeatConfig};
pub use heat2d::{heat2d_reference, Heat2dApp, Heat2dConfig, RowHalo};
pub use jacobi::{jacobi_reference, JacobiApp, JacobiConfig, LinearSystem};
pub use pagerank::{pagerank_reference, Graph, PageRankApp, PageRankConfig};
pub use synthetic::{synthetic_reference, SyntheticApp, SyntheticConfig};
