//! Machine-readable bench artifacts (`BENCH_*.json`).
//!
//! Every regenerator persists its rows — and, for measured experiments, a
//! full [`obs::RunReport`] digest of a traced run — alongside the rendered
//! text, so plots and regression checks never re-parse terminal output.
//! Artifacts land in the directory named by `SPEC_BENCH_OUT` (default:
//! the current working directory) as `BENCH_<name>.json`.

use std::path::PathBuf;

use obs::{Json, RunReport};

use crate::experiments::{Fig8Data, Table2Row, Table3Row};
use perfmodel::{Fig5Row, Fig6Row};

/// The artifact output directory: `SPEC_BENCH_OUT` or `.`.
pub fn out_dir() -> PathBuf {
    std::env::var_os("SPEC_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Write `doc` as `BENCH_<name>.json` under [`out_dir`] and return the
/// path. Creates the directory if needed.
pub fn write(name: &str, doc: &Json) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, format!("{doc}\n"))?;
    Ok(path)
}

fn f(v: f64) -> Json {
    Json::F64(v)
}

/// Figure 5 rows (model speedups vs processor count) as JSON.
pub fn fig5_json(rows: &[Fig5Row]) -> Json {
    Json::obj([
        ("name", Json::Str("fig5".into())),
        ("kind", Json::Str("model_speedup_vs_p".into())),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("p", Json::U64(r.p as u64)),
                            ("no_spec", f(r.no_spec)),
                            ("spec", f(r.spec)),
                            ("max", f(r.max)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Figure 6 rows (model speedup vs recomputation fraction) as JSON.
pub fn fig6_json(rows: &[Fig6Row]) -> Json {
    Json::obj([
        ("name", Json::Str("fig6".into())),
        ("kind", Json::Str("model_speedup_vs_k".into())),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("k", f(r.k)),
                            ("spec", f(r.spec)),
                            ("no_spec", f(r.no_spec)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Figure 8 raw data (measured N-body sweep) plus a full telemetry digest
/// of the flagship configuration, as one JSON artifact.
pub fn fig8_json(data: &Fig8Data, report: &RunReport) -> Json {
    Json::obj([
        ("name", Json::Str("fig8".into())),
        ("kind", Json::Str("measured_nbody_speedups".into())),
        ("t1_secs", f(data.t1)),
        (
            "runs",
            Json::Arr(
                data.runs
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("p", Json::U64(r.p as u64)),
                            ("fw", Json::U64(u64::from(r.fw))),
                            ("elapsed_secs", f(r.elapsed)),
                            ("speedup", f(data.t1 / r.elapsed)),
                            ("comm_wait_per_iter_secs", f(r.comm_wait_per_iter)),
                            ("compute_per_iter_secs", f(r.compute_per_iter)),
                            ("k", f(r.k)),
                            ("max_accepted_error", f(r.max_accepted_error)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("traced_run", report.to_json()),
    ])
}

/// One wall-clock throughput measurement of a force kernel: `pairs`
/// modelled pair interactions evaluated in `secs` median seconds.
#[derive(Clone, Debug)]
pub struct KernelRow {
    /// Kernel under test (`"scalar_self"`, `"soa_self"`, `"soa_correct"`, …).
    pub kernel: String,
    /// Problem size N.
    pub n: usize,
    /// Modelled pair interactions per evaluation (N·(N−1) for the
    /// self-kernel, N_t·N_s for the partition kernel, 2·N_t·N_bad for the
    /// correction kernel) — the same count the desim op accounting
    /// charges, so speedups here never touch the simulated-time results.
    pub pairs: u64,
    /// Median seconds per evaluation.
    pub secs: f64,
}

impl KernelRow {
    /// Throughput in modelled pair interactions per second.
    pub fn pairs_per_sec(&self) -> f64 {
        self.pairs as f64 / self.secs
    }
}

/// Kernel throughput rows (scalar vs SoA A/B) as JSON.
pub fn kernels_json(rows: &[KernelRow]) -> Json {
    Json::obj([
        ("name", Json::Str("kernels".into())),
        ("kind", Json::Str("force_kernel_throughput".into())),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("kernel", Json::Str(r.kernel.clone())),
                            ("n", Json::U64(r.n as u64)),
                            ("pairs", Json::U64(r.pairs)),
                            ("secs", f(r.secs)),
                            ("pairs_per_sec", f(r.pairs_per_sec())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Table 2 rows (per-phase seconds per iteration) as JSON.
pub fn table2_json(rows: &[Table2Row]) -> Json {
    Json::obj([
        ("name", Json::Str("table2".into())),
        ("kind", Json::Str("phase_breakdown".into())),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("fw", Json::U64(u64::from(r.fw))),
                            ("computation_secs", f(r.computation)),
                            ("communication_secs", f(r.communication)),
                            ("speculation_secs", f(r.speculation)),
                            ("check_secs", f(r.check)),
                            ("total_secs", f(r.total)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Table 3 rows (θ sweep) as JSON.
pub fn table3_json(rows: &[Table3Row]) -> Json {
    Json::obj([
        ("name", Json::Str("table3".into())),
        ("kind", Json::Str("theta_sweep".into())),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("theta", f(r.theta)),
                            ("incorrect_pct", f(r.incorrect_pct)),
                            ("max_force_error_pct", f(r.max_force_error_pct)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_artifact_round_trips() {
        let rows = vec![Fig5Row {
            p: 2,
            no_spec: 1.5,
            spec: 1.9,
            max: 2.0,
        }];
        let doc = fig5_json(&rows);
        let parsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("fig5"));
        let row = &parsed.get("rows").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(row.get("p").and_then(Json::as_u64), Some(2));
        assert_eq!(row.get("spec").and_then(Json::as_f64), Some(1.9));
    }

    #[test]
    fn out_dir_defaults_to_cwd() {
        if std::env::var_os("SPEC_BENCH_OUT").is_none() {
            assert_eq!(out_dir(), PathBuf::from("."));
        }
    }
}
