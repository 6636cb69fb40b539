//! The metric tables: every name the benchmark prints, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` is
//! generated from these tables; a unit test keeps the checked-in file equal
//! to them.

use crate::workloads::WORKLOADS;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
        bound: None,
    }
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 13;

/// What a user of the system sees, on every workload. The contract gives a
/// metric one bound for all workloads, so each is set by its noisiest row:
/// raw wall-clock on `nbody2_socket` and `ring100k_sim` for the two timings
/// (see README, "Bounds").
pub const END_TO_END: &[Metric] = &[
    e2e("host_us_per_iter", "us", 0.25),
    e2e("wire_bytes_per_iter", "bytes", 0.01),
    e2e("peak_rss_mb", "MB", 0.10),
    e2e("setup_s", "s", 0.25),
];

/// Single layers, from the traced run. A metric that does not apply to a
/// workload reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    lower("desim.kernel_self_s", "s"),
    lower("desim.ns_per_event", "ns"),
    lower("desim.events", "count"),
    lower("desim.timers_fired", "count"),
    higher("desim.host_events_per_s", "1/s"),
    higher("desim.events_per_s_1k", "1/s"),
    lower("desim.falloff_1k_over_100k", "ratio"),
    lower("desim.rss_bytes_per_rank", "bytes"),
    lower("netsim.delay_calls", "count"),
    lower("netsim.delay_self_s", "s"),
    lower("netsim.fate_calls", "count"),
    lower("netsim.fate_self_s", "s"),
    lower("netsim.msgs_dropped", "count"),
    lower("mpk.msgs_sent", "count"),
    lower("mpk.bytes_sent", "bytes"),
    lower("mpk.send_self_s", "s"),
    lower("mpk.recv_self_s", "s"),
    lower("mpk.recv_wait_s", "s"),
    lower("mpk.compute_call_s", "s"),
    lower("mpk.codec_encode_ns_per_frame", "ns"),
    lower("mpk.codec_decode_ns_per_frame", "ns"),
    lower("mpk.codec_bytes_per_frame", "bytes"),
    lower("mpk.codec_est_s", "s"),
    lower("mpk.thread_pingpong_rtt_us", "us"),
    lower("mpk.socket_pingpong_rtt_us", "us"),
    lower("mpk.socket_setup_s", "s"),
    lower("mpk.sim_threaded_host_us_per_iter_min", "us"),
    lower("mpk.sim_threaded_host_us_per_iter_max", "us"),
    lower("speccore.driver_self_s", "s"),
    lower("speccore.driver_self_us_per_iter", "us"),
    lower("speccore.driver_self_frac", "fraction"),
    lower("speccore.executions", "count"),
    lower("speccore.rollbacks", "count"),
    lower("speccore.speculated_partitions", "count"),
    higher("speccore.spec_accept_frac", "fraction"),
    lower("speccore.recompute_frac", "fraction"),
    lower("speccore.loss_commits", "count"),
    lower("speccore.retransmit_requests", "count"),
    lower("speccore.max_depth_used", "count"),
    lower("speccore.virtual_s_per_iter", "s"),
    higher("speccore.virtual_speedup_vs_blocking", "ratio"),
    lower("speccore.virtual_compute_s", "s"),
    lower("speccore.virtual_comm_wait_s", "s"),
    lower("speccore.virtual_speculate_s", "s"),
    lower("speccore.virtual_check_s", "s"),
    lower("speccore.virtual_correct_s", "s"),
    lower("speccore.commit_gap_us_p50", "us"),
    lower("speccore.commit_gap_us_tail", "us"),
    higher("speccore.commit_gap_tail_percentile", "%"),
    higher("speccore.commit_gap_samples", "count"),
    lower("nbody.app_self_s", "s"),
    lower("nbody.begin_s", "s"),
    lower("nbody.absorb_s", "s"),
    lower("nbody.finish_s", "s"),
    lower("nbody.speculate_s", "s"),
    lower("nbody.check_s", "s"),
    lower("nbody.correct_s", "s"),
    lower("nbody.checkpoint_s", "s"),
    lower("nbody.shared_s", "s"),
    lower("nbody.pairs", "count"),
    higher("nbody.pairs_per_s", "1/s"),
    lower("workloads.app_self_s", "s"),
    lower("workloads.speculate_s", "s"),
    lower("workloads.finish_s", "s"),
    lower("workloads.check_s", "s"),
    lower("workloads.checkpoint_s", "s"),
    higher("workloads.cells_per_s", "1/s"),
    lower("obs.recorder_on_host_us_per_iter", "us"),
    lower("obs.overhead_frac", "fraction"),
    lower("obs.events_recorded", "count"),
    lower("perfmodel.predicted_s_per_iter", "s"),
    lower("perfmodel.model_residual_frac", "fraction"),
    lower("ledger.traced_wall_s", "s"),
    lower("ledger.harness_self_s", "s"),
    lower("ledger.unattributed_frac", "fraction"),
    lower("ledger.tracing_overhead_frac", "fraction"),
    lower("ledger.failed_frac", "fraction"),
    higher("ledger.traced_repeats", "count"),
];

/// The traced run fails when more than this share of the timed wall-clock
/// is booked to no layer (on the simulator a self-check of the harness, on
/// thread and socket a measurement: see `ledger`).
pub const MAX_UNATTRIBUTED: f64 = 0.05;

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let quote = |s: &str| format!("\"{s}\"");
    let rows = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("{{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
        .collect();
    let metric = |m: &Metric| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            quote(m.name),
            quote(m.unit),
            quote(m.better)
        )
    };
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        rows(workloads),
        rows(END_TO_END.iter().map(metric).collect()),
        rows(PER_LAYER.iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn benchmark_json_is_within_the_contract_limits() {
        let text = benchmark_json();
        let json = obs::Json::parse(&text).expect("valid JSON");
        assert!(text.len() < 64 * 1024);
        let mut names: Vec<&str> = Vec::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            for item in json.get(key).and_then(|v| v.as_arr()).expect("array") {
                names.push(item.get("name").and_then(|n| n.as_str()).expect("name"));
            }
        }
        assert!(names.iter().all(|n| n.len() <= 64));
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "names are used once");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }
}
