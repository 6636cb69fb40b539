//! # spec-bench — the experiment harness
//!
//! [`experiments::Report::generate`] produces every deterministic result
//! of the reproduction at the paper's scale, and [`render::report`] prints
//! it. The `experiments` binary prints exactly that,
//! `tests/golden/experiments.txt` pins it, and EXPERIMENTS.md quotes it:
//!
//! | Result | Field of [`experiments::Report`] |
//! |--------|----------------------------------|
//! | Figure 5 (model speedups vs p)            | `fig5` |
//! | Figure 6 (model speedup vs k, p = 8)      | `fig6` |
//! | Figure 8 (measured N-body speedups vs p)  | `fig8` |
//! | Figure 9 (model vs measured)              | `fig9` |
//! | Table 2 (per-phase times, p = 16)         | `table2` |
//! | Table 3 (θ sweep)                         | `table3` |
//! | Ablations (BW, order, FW, controller, correction) | `ablations` |
//! | Controller vs a fixed (θ, FW) grid        | `controller` |
//!
//! [`paper`] holds the numbers the paper reports, printed beside ours.
//! Measured experiments run the real N-body code on the simulated
//! heterogeneous workstation network (`netsim`), in deterministic virtual
//! time. Absolute seconds differ from the 1994 testbed; the *shapes* are
//! the reproduction target.

#![warn(missing_docs)]

pub mod experiments;
pub mod paper;
pub mod render;
