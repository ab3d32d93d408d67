//! Repeat and compare modes.
//!
//! `repeat` runs one workload N times with consecutive seeds and prints
//! each metric's median, quartiles and spread (interquartile distance over
//! median). `compare` runs a base and a head checkout in alternating
//! order, pair by pair, and applies the acceptance rule for a claimed gain:
//! the head wins at least nine tenths of the pairs (ties count for
//! neither) and the medians differ by more than the base's own quartile
//! spread. It also flags a head median that is worse than the base's by
//! more than the metric's bound in `BENCHMARK.json`.

use crate::stats;
use cml_bench::server::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A metric's direction and regression bound, from `BENCHMARK.json`.
struct Spec {
    lower_is_better: bool,
    bound: f64,
}

fn benchmark_specs(root: &Path) -> Result<BTreeMap<String, Spec>, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
            let name = m.str_field("name").unwrap_or_default();
            out.insert(
                name,
                Spec {
                    lower_is_better: m.str_field("better").as_deref() == Some("lower"),
                    bound: m.num_field("bound").unwrap_or(f64::NAN),
                },
            );
        }
    }
    Ok(out)
}

/// One finished run: correctness plus metric values.
struct RunResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn run_once(mut cmd: Command) -> Result<RunResult, String> {
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(last).map_err(|e| {
        format!(
            "no result line (exit {:?}): {e}\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(members)) = doc.get("metrics") {
        for (k, v) in members {
            metrics.insert(k.clone(), v.num_field("value").unwrap_or(f64::NAN));
        }
    }
    Ok(RunResult {
        correct: out.status.success() && doc.get("correct").and_then(Json::as_bool) == Some(true),
        metrics,
    })
}

fn workload_args(f: &BTreeMap<String, String>, seed: u64) -> Result<Vec<String>, String> {
    Ok(vec![
        "--workload".into(),
        f.get("workload").cloned().ok_or("--workload is required")?,
        "--seed".into(),
        seed.to_string(),
        "--seconds".into(),
        f.get("seconds").cloned().unwrap_or_else(|| "30".into()),
        "--trace".into(),
        f.get("trace").cloned().unwrap_or_else(|| "0".into()),
    ])
}

fn num(f: &BTreeMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    f.get(key).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("--{key}: cannot parse {v:?}"))
    })
}

fn summary_line(name: &str, values: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(values);
    format!(
        "  {name:<40} median {:>12.6}  q1 {:>12.6}  q3 {:>12.6}  spread {:>7.4}",
        stats::median(values),
        q1,
        q3,
        stats::spread(values)
    )
}

fn by_metric(runs: &[RunResult]) -> BTreeMap<String, Vec<f64>> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in runs {
        for (k, v) in &r.metrics {
            out.entry(k.clone()).or_default().push(*v);
        }
    }
    out
}

/// `perfbench repeat`: N runs of one workload on this build.
pub fn repeat(f: &BTreeMap<String, String>) -> Result<(), String> {
    let runs = num(f, "runs", 10)?;
    let first = num(f, "first-seed", 1)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let specs = benchmark_specs(Path::new(".")).unwrap_or_default();
    let mut results = Vec::new();
    for seed in first..first + runs {
        let mut cmd = Command::new(&exe);
        cmd.args(workload_args(f, seed)?);
        let r = run_once(cmd)?;
        let values: Vec<String> = r
            .metrics
            .iter()
            .map(|(k, v)| format!("{k}={v:.6}"))
            .collect();
        println!(
            "[repeat] seed {seed}: correct={} {}",
            r.correct,
            values.join(" ")
        );
        results.push(r);
    }
    let mut all_correct = true;
    for r in &results {
        all_correct &= r.correct;
    }
    println!(
        "[repeat] {} runs, all correct: {all_correct}",
        results.len()
    );
    for (name, values) in by_metric(&results) {
        let mut line = summary_line(&name, &values);
        if let Some(spec) = specs.get(&name).filter(|s| s.bound.is_finite()) {
            let steady = stats::spread(&values) < spec.bound / 3.0;
            line += &format!(
                "  bound {:.3}{}",
                spec.bound,
                if steady {
                    ""
                } else {
                    "  (spread above bound/3)"
                }
            );
        }
        println!("{line}");
    }
    if all_correct {
        Ok(())
    } else {
        Err("some runs failed their correctness checks".into())
    }
}

fn checkout_cmd(root: &Path) -> Command {
    let mut cmd = Command::new("cargo");
    cmd.current_dir(root).env_remove("CARGO_TARGET_DIR").args([
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ]);
    cmd
}

/// `perfbench compare`: alternating base/head pairs on two checkouts.
pub fn compare(f: &BTreeMap<String, String>) -> Result<(), String> {
    let base = PathBuf::from(f.get("base").ok_or("--base is required")?);
    let head = PathBuf::from(f.get("head").ok_or("--head is required")?);
    let pairs = num(f, "pairs", 10)?;
    let first = num(f, "first-seed", 1)?;
    let specs = benchmark_specs(&base)?;
    for root in [&base, &head] {
        let status = Command::new("cargo")
            .current_dir(root)
            .env_remove("CARGO_TARGET_DIR")
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "perfbench/Cargo.toml",
            ])
            .status()
            .map_err(|e| format!("cargo: {e}"))?;
        if !status.success() {
            return Err(format!("build failed in {}", root.display()));
        }
    }
    let (mut base_runs, mut head_runs) = (Vec::new(), Vec::new());
    for i in 0..pairs {
        let seed = first + i;
        let run = |root: &Path| -> Result<RunResult, String> {
            let mut cmd = checkout_cmd(root);
            cmd.args(workload_args(f, seed)?);
            run_once(cmd)
        };
        let (b, h) = if i % 2 == 0 {
            let b = run(&base)?;
            (b, run(&head)?)
        } else {
            let h = run(&head)?;
            (run(&base)?, h)
        };
        println!(
            "[compare] pair {i} (seed {seed}): base correct={} head correct={}",
            b.correct, h.correct
        );
        base_runs.push(b);
        head_runs.push(h);
    }
    let base_m = by_metric(&base_runs);
    let head_m = by_metric(&head_runs);
    for (name, b) in &base_m {
        let Some(h) = head_m.get(name) else { continue };
        let Some(spec) = specs.get(name) else {
            continue;
        };
        let better = |x: f64, y: f64| if spec.lower_is_better { x < y } else { x > y };
        let wins = h
            .iter()
            .zip(b)
            .filter(|(hv, bv)| better(**hv, **bv))
            .count();
        let (bq1, bq3) = stats::quartiles(b);
        let (bm, hm) = (stats::median(b), stats::median(h));
        let gain = wins * 10 >= b.len() * 9 && better(hm, bm) && (hm - bm).abs() > bq3 - bq1;
        let worse_share = if spec.lower_is_better {
            hm / bm - 1.0
        } else {
            1.0 - hm / bm
        };
        let verdict = if gain {
            "GAIN".to_string()
        } else if spec.bound.is_finite() && worse_share > spec.bound {
            format!(
                "REGRESSION (worse by {:.1}% > bound {:.1}%)",
                worse_share * 100.0,
                spec.bound * 100.0
            )
        } else if h.iter().all(|hv| b.iter().all(|bv| better(*hv, *bv))) {
            "better in every run".to_string()
        } else if spec.bound.is_finite() && stats::spread(b) > spec.bound {
            "unresolved (base spread above bound)".to_string()
        } else {
            "no change shown".to_string()
        };
        println!("{name}");
        println!("{}", summary_line("base", b));
        println!("{}", summary_line("head", h));
        println!("  head wins {wins}/{} pairs: {verdict}", b.len());
    }
    let all_correct = base_runs.iter().chain(&head_runs).all(|r| r.correct);
    if all_correct {
        Ok(())
    } else {
        Err("some runs failed their correctness checks".into())
    }
}
