//! The repository benchmark: one command per workload run, a traced
//! per-layer variant, and repeat/compare modes for perf changes.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload settle_sweep --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The process exits non-zero when any
//! correctness check fails. See `perfbench/README.md`.

mod gen;
mod layers;
mod repeat;
mod replay;
mod screen;
mod serve;
mod settle;
mod stats;
mod trace;

use cml_bench::server::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Committed references, relative to the repository root.
pub const REF_DIR: &str = "perfbench/ref";
/// Run artifacts (span dumps, daemon state), relative to the repository root.
pub const OUT_DIR: &str = "perfbench/out";
/// Set-up runs this many times per invocation (see [`Setups`]); `setup_s`
/// is the median.
pub const SETUP_REPEATS: usize = 25;
/// Workload names.
pub const WORKLOADS: &[&str] = &["settle_sweep", "defect_screen", "serve_mix"];

/// The end-to-end metrics every workload reports (name, unit). These are
/// the ones `BENCHMARK.json` bounds.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
];

/// Parsed run arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// The bounded end-to-end metrics, in [`END_TO_END`] order.
    pub e2e: Vec<Metric>,
    /// The same measurements under their workload-specific names.
    pub aliases: Vec<Metric>,
    /// Timing samples behind the latency percentiles.
    pub samples: usize,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
    pub spans: Vec<trace::SpanRecord>,
}

/// The [`END_TO_END`] metrics from their values, in order.
pub fn e2e(setup: f64, wall: f64, rss: f64, throughput: f64, p50: f64, p90: f64) -> Vec<Metric> {
    [setup, wall, rss, throughput, p50, p90]
        .into_iter()
        .zip(END_TO_END)
        .map(|(v, (name, unit))| Metric::new(name, v, unit))
        .collect()
}

/// Set-up timings spread over a run. The first set-up runs before any
/// measurement; the others run between passes as the run crosses each
/// `1/(SETUP_REPEATS - 1)` of its time, so that `setup_s`, their median,
/// samples the machine at several points of the run rather than only at
/// its start.
pub struct Setups {
    started: Instant,
    budget: Duration,
    times: Vec<f64>,
}

impl Setups {
    pub fn new(budget: Duration) -> Self {
        Self {
            started: Instant::now(),
            budget,
            times: Vec::new(),
        }
    }

    /// Runs and times one set-up.
    pub fn time<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t0 = Instant::now();
        let out = f()?;
        self.times.push(t0.elapsed().as_secs_f64());
        Ok(out)
    }

    /// Repeats the set-up until as many have run as the elapsed share of
    /// the run calls for.
    pub fn catch_up<T>(&mut self, mut f: impl FnMut() -> Result<T, String>) -> Result<(), String> {
        let share = self.started.elapsed().as_secs_f64() / self.budget.as_secs_f64();
        let due = (1 + (share * (SETUP_REPEATS - 1) as f64) as usize).min(SETUP_REPEATS);
        while self.times.len() < due {
            self.time(&mut f)?;
        }
        Ok(())
    }

    /// Runs the set-ups still missing; returns the median set-up time.
    pub fn finish<T>(&mut self, mut f: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
        while self.times.len() < SETUP_REPEATS {
            self.time(&mut f)?;
        }
        Ok(stats::median(&self.times))
    }
}

/// Sweep workers: the machine's parallelism, at most 4.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, 4)
}

/// Sweep options for the workloads that spread items over workers.
pub fn sweep_options() -> spicier::analysis::sweep::TryMapOptions {
    spicier::analysis::sweep::TryMapOptions {
        max_workers: Some(workers()),
        ..Default::default()
    }
}

/// Peak resident set of process `pid` (`VmHWM`), megabytes.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn usage() -> String {
    format!(
        "usage:\n  perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n  \
         perfbench repeat --workload <w> [--runs <n>] [--first-seed <n>] [--seconds <s>] [--trace <0|1>]\n  \
         perfbench compare --base <checkout> --head <checkout> --workload <w> [--pairs <n>] [--first-seed <n>] [--seconds <s>]\n  \
         perfbench capacity [--seconds <s>] [--conns <n>]\n  \
         perfbench write-reference --workload <w>",
        WORKLOADS.join("|")
    )
}

/// `--flag value` pairs after the subcommand.
fn flags(rest: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = rest.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_string(), v.clone());
    }
    Ok(out)
}

fn flag<T: std::str::FromStr>(
    f: &BTreeMap<String, String>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match f.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        None => default.ok_or_else(|| format!("--{key} is required")),
    }
}

fn workload_flag(f: &BTreeMap<String, String>) -> Result<String, String> {
    let w: String = flag(f, "workload", None)?;
    if WORKLOADS.contains(&w.as_str()) {
        Ok(w)
    } else {
        Err(format!("unknown workload {w:?}"))
    }
}

fn run_workload(args: &Args) -> Result<RunOutput, String> {
    match args.workload.as_str() {
        "settle_sweep" => settle::run(args),
        "defect_screen" => screen::run(args),
        _ => serve::run(args),
    }
}

fn print_result(args: &Args, out: &RunOutput) -> bool {
    let failed = out.failures.len() as u64;
    let correct = failed == 0 && out.attempted > 0;
    for f in out.failures.iter().take(20) {
        eprintln!("[perfbench] FAILED {f}");
    }
    println!(
        "[perfbench] {} seed {} ({} s{}): {} attempted, {} failed, {} latency samples",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        out.attempted,
        failed,
        out.samples
    );
    let failed_frac = Metric::new(
        "failed_frac",
        failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    let shown = out
        .e2e
        .iter()
        .chain(&out.aliases)
        .chain(std::iter::once(&failed_frac));
    for m in shown {
        println!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let reported: Vec<Metric> = if args.trace {
        let layers: Vec<Metric> = layers::PER_LAYER
            .iter()
            .map(|(name, unit)| {
                Metric::new(name, out.layers.get(*name).copied().unwrap_or(0.0), unit)
            })
            .collect();
        for m in &layers {
            println!("  {:<40} {:>14.6} {}", m.name, m.value, m.unit);
        }
        layers
    } else {
        out.e2e.clone()
    };
    let metrics = reported
        .iter()
        .map(|m| {
            let value = Json::obj(vec![
                ("value", Json::num(m.value)),
                ("unit", Json::str(m.unit)),
            ]);
            (m.name.clone(), value)
        })
        .collect();
    let doc = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(out.attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", doc.render());
    correct
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("serve-daemon") => serve::daemon_main(),
        Some("repeat") => flags(&argv[1..]).and_then(|f| repeat::repeat(&f)),
        Some("compare") => flags(&argv[1..]).and_then(|f| repeat::compare(&f)),
        Some("capacity") => flags(&argv[1..]).and_then(|f| serve::capacity(&f)),
        Some("write-reference") => {
            flags(&argv[1..]).and_then(|f| match workload_flag(&f)?.as_str() {
                "settle_sweep" => settle::write_reference(),
                "defect_screen" => screen::write_reference(),
                _ => serve::write_reference(),
            })
        }
        _ => flags(&argv).and_then(|f| {
            let args = Args {
                workload: workload_flag(&f)?,
                seed: flag(&f, "seed", None)?,
                seconds: flag(&f, "seconds", None)?,
                trace: flag::<u8>(&f, "trace", Some(0))? == 1,
            };
            if args.seconds.is_nan() || args.seconds <= 0.0 {
                return Err("--seconds must be positive".into());
            }
            let out = run_workload(&args)?;
            if args.trace {
                let path = format!("{OUT_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
                trace::dump(std::path::Path::new(&path), &out.spans)
                    .map_err(|e| format!("{path}: {e}"))?;
                println!("[perfbench] spans written to {path}");
            }
            if print_result(&args, &out) {
                Ok(())
            } else {
                Err("correctness checks failed".into())
            }
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[perfbench] error: {e}");
            if argv.is_empty() || e.starts_with("--") || e.starts_with("unexpected") {
                eprintln!("{}", usage());
            }
            ExitCode::FAILURE
        }
    }
}
