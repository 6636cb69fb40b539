//! perf-ledger: the repository's layered end-to-end benchmark.
//!
//! `perf-ledger --workload W --seed N --seconds S --trace 0|1` is one run:
//! it generates W's inputs from the seed, sets up (with the output checks),
//! measures for S seconds and prints every metric as `name value unit`,
//! then one JSON object as the last line. `--trace 0` gives the end-to-end
//! metrics with every tracing wrapper off; `--trace 1` gives the per-layer
//! metrics from a traced set of repeats in the same process.
//!
//! Without `--trace` it runs a whole set — each workload untraced, then
//! traced, each in a fresh child process so peak RSS is per workload — and
//! `--aa` compares the code against itself: untraced runs alternating
//! between two sets, whose medians must agree within the bounds. See
//! `README.md`.

mod ledger;
mod metrics;
mod runs;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use obs::Json;

use metrics::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use stats::{quartiles, typical};
use trace::Tracer;
use workloads::{Repeat, Values, WORKLOADS};

/// An untraced run alternates `CHUNKS` times between a burst of set-ups
/// (as many as fit in `SETUP_BURST_S`, at least one) and a `CHUNKS`-th of
/// the measuring, so that `setup_s` — the `typical` set-up — samples the
/// same seconds of the machine as `host_us_per_iter` does.
const CHUNKS: usize = 4;
const SETUP_BURST_S: f64 = 0.25;
/// Share of `--seconds` a traced run first spends on untraced repeats, as
/// its own baseline.
const BASELINE_SHARE: f64 = 0.25;
/// Where traces and a set's results go, relative to the repository root
/// (`run.sh` changes to it).
const OUT_DIR: &str = "benchmark/out";

/// Current peak resident set (`VmHWM`) in bytes, or 0 without procfs.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    aa: bool,
    print_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: None,
        aa: false,
        print_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|(n, _)| *n == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--aa" => args.aa = true,
            "--print-benchmark-json" => args.print_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One run's result: the contract's last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static Metric, f64)>,
}

impl Outcome {
    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(m, v)| {
                let entry = Json::obj([
                    ("value", Json::F64(*v)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]);
                (m.name, entry)
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Count failures against the number attempted: rank-iterations requested
/// but not committed, plus all of a repeat whose output check failed.
fn tally(case: &dyn workloads::Case, repeats: &[Repeat]) -> (u64, u64) {
    let requested = case.ranks() * case.iters();
    let mut failed = 0;
    for r in repeats {
        if let Some(why) = &r.failure {
            eprintln!("output check failed: {why}");
            failed += requested;
        } else {
            failed += requested - r.committed.min(requested);
        }
    }
    (requested * repeats.len() as u64, failed)
}

/// `table`'s metrics from `values` (0 where a metric does not apply), and
/// whether every value is one JSON can carry.
fn collect(table: &'static [Metric], values: &Values) -> (Vec<(&'static Metric, f64)>, bool) {
    let mut finite = true;
    let rows = table
        .iter()
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                eprintln!("{} is not finite", m.name);
                finite = false;
            }
            (m, if v.is_finite() { v } else { 0.0 })
        })
        .collect();
    (rows, finite)
}

fn print_rows(rows: &[(&'static Metric, f64)], notes: &Notes) {
    for (m, v) in rows {
        match notes.iter().find(|(n, _)| *n == m.name) {
            Some((_, note)) => println!("{} {v} {}  ({note})", m.name, m.unit),
            None => println!("{} {v} {}", m.name, m.unit),
        }
    }
}

/// Quartiles and sample counts to print beside a median.
type Notes = Vec<(&'static str, String)>;

fn spread_note(samples: &[f64], scale: f64, concurrent: bool) -> String {
    let which = if concurrent { "median" } else { "minimum" };
    match quartiles(samples) {
        Some((q1, q3)) => format!(
            "{which} of {} repeats, q1 {} q3 {}",
            samples.len(),
            q1 * scale,
            q3 * scale
        ),
        None => format!("{} repeat", samples.len()),
    }
}

/// Repeat `case` until `seconds` have passed (at least once). `each` sees
/// every repeat as it ends, so a traced run can fold the repeat's spans
/// away instead of holding 100 000 of them per repeat. Every repeat's
/// wall-clock goes to standard error, for comparing two commits from runs
/// interleaved in time.
fn measure(
    case: &mut dyn workloads::Case,
    on: bool,
    seconds: f64,
    mut each: impl FnMut(&mut Repeat),
) -> Vec<Repeat> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut repeats = Vec::new();
    loop {
        let mut repeat = case.repeat(on);
        eprintln!("repeat wall_s {}", repeat.wall_s);
        each(&mut repeat);
        repeats.push(repeat);
        if Instant::now() >= deadline {
            return repeats;
        }
    }
}

/// Set `name` up until `SETUP_BURST_S` have passed (at least once), adding
/// each set-up's wall-clock to `setup_s`; the last case made.
fn setup_burst(
    name: &str,
    seed: u64,
    setup_s: &mut Vec<f64>,
) -> Result<Box<dyn workloads::Case>, String> {
    let burst = Instant::now();
    loop {
        let t0 = Instant::now();
        let case = workloads::setup(name, seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if burst.elapsed().as_secs_f64() >= SETUP_BURST_S {
            return Ok(case);
        }
    }
}

/// The untraced run: the end-to-end metrics. Every chunk's repeats run on
/// the first case, so each is checked against the run's first repeat; the
/// cases later bursts make are only timed.
fn run_untraced(name: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut case = setup_burst(name, seed, &mut setup_s)?;
    let mut repeats = Vec::new();
    for chunk in 0..CHUNKS {
        if chunk > 0 {
            setup_burst(name, seed, &mut setup_s)?;
        }
        repeats.extend(measure(
            case.as_mut(),
            false,
            seconds / CHUNKS as f64,
            |_| {},
        ));
    }
    let iters = case.iters() as f64;
    let concurrent = case.is_real();
    let walls: Vec<f64> = repeats.iter().map(|r| r.wall_s).collect();
    let bytes: Vec<f64> = repeats.iter().map(|r| r.bytes_sent as f64).collect();

    let mut values = Values::new();
    values.insert(
        "host_us_per_iter",
        typical(&walls, concurrent) * 1e6 / iters,
    );
    values.insert("wire_bytes_per_iter", stats::median(&bytes) / iters);
    values.insert("peak_rss_mb", peak_rss_bytes() as f64 / 1e6);
    values.insert("setup_s", typical(&setup_s, concurrent));
    let notes = vec![
        (
            "host_us_per_iter",
            spread_note(&walls, 1e6 / iters, concurrent),
        ),
        ("setup_s", spread_note(&setup_s, 1.0, concurrent)),
    ];
    let (attempted, failed) = tally(case.as_ref(), &repeats);
    let (metrics, finite) = collect(END_TO_END, &values);
    print_rows(&metrics, &notes);
    Ok(Outcome {
        correct: failed == 0 && finite,
        attempted,
        failed,
        metrics,
    })
}

/// The traced run: the per-layer metrics, with a few untraced repeats of
/// the same process as the baseline for the tracing overhead.
fn run_traced(name: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut case = workloads::setup(name, seed)?;
    let untraced = measure(case.as_mut(), false, seconds * BASELINE_SHARE, |_| {});
    let base_wall = typical(
        &untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>(),
        case.is_real(),
    );

    // Accumulators cover every traced repeat; spans are the first one's.
    let mut all = Tracer::default();
    let mut traced = measure(case.as_mut(), true, seconds, |r| {
        let mut t = r.tracer.take().expect("traced repeat carries a tracer");
        if !all.spans.is_empty() {
            t.spans.clear();
        }
        all.merge(t);
    });
    let (mut values, books) = ledger::per_layer(name, case.as_ref(), base_wall, &traced, &all);
    case.companions(base_wall, &mut values);

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
    let truncated = all.spans.len() >= trace::MAX_SPANS;
    std::fs::write(&path, trace::spans_to_json(&all.spans, truncated))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let mut repeats = untraced;
    repeats.append(&mut traced);
    let (attempted, failed) = tally(case.as_ref(), &repeats);
    values.insert("ledger.failed_frac", failed as f64 / attempted as f64);
    if let Some(why) = &books {
        eprintln!("{why}");
    }
    let (metrics, finite) = collect(PER_LAYER, &values);
    print_rows(&metrics, &Vec::new());
    println!("spans {} {}", all.spans.len(), path.display());
    Ok(Outcome {
        correct: failed == 0 && finite && books.is_none(),
        attempted,
        failed,
        metrics,
    })
}

/// Run one workload in a fresh child process and parse its last line.
fn child_run(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{body}");
    if !output.status.success() {
        return Err(format!("{name}: run exited with {}", output.status));
    }
    Json::parse(last).map_err(|e| format!("{name}: unreadable result line: {e}"))
}

fn value_of(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// The workloads `--workload` selects (all without it).
fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect()
}

fn is_correct(result: &Json) -> bool {
    result.get("correct") == Some(&Json::Bool(true))
}

fn write_results(file: &str, results: Json) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(file);
    std::fs::write(&path, format!("{results}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results {}", path.display());
    Ok(())
}

/// One set: every selected workload untraced, then traced. Results go to
/// `OUT_DIR`; false if any check failed.
fn run_set(args: &Args) -> Result<bool, String> {
    let names = selected(args);
    let set = |label: &str, traced: bool| -> Result<Vec<(String, Json)>, String> {
        names
            .iter()
            .map(|&name| {
                println!("== {name} ({label}, seed {}) ==", args.seed);
                child_run(name, args.seed, args.seconds, traced).map(|r| (name.to_string(), r))
            })
            .collect()
    };
    let untraced = set("untraced", false)?;
    let traced = set("traced", true)?;
    let ok = untraced.iter().chain(&traced).all(|(_, r)| is_correct(r));
    write_results(
        "results.json",
        Json::obj([
            ("seed", Json::U64(args.seed)),
            ("seconds", Json::F64(args.seconds)),
            ("untraced", Json::Obj(untraced)),
            ("traced", Json::Obj(traced)),
        ]),
    )?;
    Ok(ok)
}

/// Untraced runs each side of an A/A comparison makes per workload.
const AA_RUNS: usize = 3;

/// `--aa`: the same code against itself, the way two commits are compared.
/// Workload by workload, `2 × AA_RUNS` untraced runs alternate between two
/// sets, so both sets see the same minutes of the machine; the sets'
/// medians must agree within the bounds. Results go to `OUT_DIR`; false if
/// a pair disagrees or a run's output check failed.
fn run_aa(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut all = Vec::new();
    for name in selected(args) {
        let mut sets = [Vec::new(), Vec::new()];
        for i in 0..2 * AA_RUNS {
            println!(
                "== {name} (untraced, set {}, seed {}) ==",
                i % 2 + 1,
                args.seed
            );
            let result = child_run(name, args.seed, args.seconds, false)?;
            ok &= is_correct(&result);
            sets[i % 2].push(result);
        }
        for m in END_TO_END {
            let side = |set: &[Json]| -> Result<f64, String> {
                let values: Option<Vec<f64>> = set.iter().map(|r| value_of(r, m.name)).collect();
                let values = values.ok_or(format!("{name}: {} missing from a result", m.name))?;
                Ok(stats::median(&values))
            };
            let (va, vb) = (side(&sets[0])?, side(&sets[1])?);
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let apart = (vb - va).abs() / va.min(vb);
            let verdict = if apart <= bound {
                "agrees"
            } else {
                "DISAGREES"
            };
            ok &= apart <= bound;
            println!(
                "A/A {name} {} {va} {vb} {}  apart {:.2} % of bound {:.0} %  {verdict}",
                m.name,
                m.unit,
                100.0 * apart,
                100.0 * bound
            );
        }
        let [first, second] = sets;
        let pair = Json::obj([("first", Json::Arr(first)), ("second", Json::Arr(second))]);
        all.push((name.to_string(), pair));
    }
    write_results(
        "aa.json",
        Json::obj([
            ("seed", Json::U64(args.seed)),
            ("seconds", Json::F64(args.seconds)),
            ("workloads", Json::Obj(all)),
        ]),
    )?;
    Ok(ok)
}

fn main() -> ExitCode {
    let run = || -> Result<bool, String> {
        let args = parse_args()?;
        if args.print_json {
            print!("{}", metrics::benchmark_json());
            return Ok(true);
        }
        let Some(traced) = args.trace else {
            return if args.aa {
                run_aa(&args)
            } else {
                run_set(&args)
            };
        };
        let name = args.workload.as_deref().ok_or("--trace needs --workload")?;
        let outcome = if traced {
            run_traced(name, args.seed, args.seconds)?
        } else {
            run_untraced(name, args.seed, args.seconds)?
        };
        println!("{}", outcome.to_json());
        // A wrong output is reported in the result line, not by the exit
        // code: the run itself completed.
        Ok(true)
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("perf-ledger: {why}");
            ExitCode::FAILURE
        }
    }
}
