//! Print every deterministic result of the reproduction — the paper's
//! tables and figures, the ablations and the controller sweep — exactly as
//! `tests/golden/experiments.txt` pins it.
//!
//! ```text
//! cargo run --release -p spec-bench --bin experiments
//! ```

use spec_bench::{experiments::Report, render};

fn main() {
    print!("{}", render::report(&Report::generate()));
}
