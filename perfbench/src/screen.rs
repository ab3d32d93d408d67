//! `defect_screen`: DC screening of a seeded sample of the FIG14
//! shared-detector group's defect universe (§6.6: pipes are "fully
//! detectable with DC test").
//!
//! Item path: build (clone the fault-free group, inject the defect) →
//! compile → `operating_point` → classify the settled `vout` against the
//! hysteresis band characterized in set-up. A pass screens every defect of
//! the sample once, spread by `par_try_map` over the sweep workers.

use crate::gen::{self, SCREEN_GROUP};
use crate::layers::{self, Counters};
use crate::replay::{self, Replay};
use crate::trace::{self, span};
use crate::{peak_rss_mb, Args, Metric, RunOutput, Setups, REF_DIR};
use cml_cells::CmlProcess;
use cml_dft::decision::characterize_hysteresis;
use cml_dft::{DetectorVerdict, HysteresisBand, Variant3};
use faults::Defect;
use spicier::analysis::sweep::par_try_map;
use spicier::{operating_point, DcOptions, Error, Netlist, NodeId, TelemetrySummary};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Settled `vout` may differ from the reference by this much, volts: the
/// DC solver's own tolerance (`reltol` 1e-3 at a 3.6 V output) plus room
/// for a warm-started or low-rank-updated solve.
const VOUT_TOL_V: f64 = 5.0e-3;
/// Points of the hysteresis characterization run in set-up.
const HYSTERESIS_POINTS: usize = 120;

fn ref_path() -> String {
    format!("{REF_DIR}/defect_screen.csv")
}

fn verdict_name(v: DetectorVerdict) -> &'static str {
    match v {
        DetectorVerdict::Fail => "detected",
        DetectorVerdict::Pass => "pass",
        DetectorVerdict::Marginal => "in-band",
    }
}

struct Reference {
    band: HysteresisBand,
    rows: HashMap<String, (String, f64)>,
}

fn load_reference() -> Result<Reference, String> {
    let text = std::fs::read_to_string(ref_path()).map_err(|e| format!("{}: {e}", ref_path()))?;
    let mut lines = text.lines();
    let band_line = lines.next().unwrap_or_default();
    let edges: Vec<f64> = band_line
        .trim_start_matches("# band ")
        .split(',')
        .filter_map(|s| s.parse().ok())
        .collect();
    let [fail_below, pass_above] = edges[..] else {
        return Err(format!("bad band line {band_line:?}"));
    };
    let mut rows = HashMap::new();
    for line in lines.skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        let [key, verdict, vout] = f[..] else {
            return Err(format!("bad reference row {line:?}"));
        };
        let v: f64 = vout.parse().map_err(|e| format!("{line:?}: {e}"))?;
        rows.insert(key.to_string(), (verdict.to_string(), v));
    }
    Ok(Reference {
        band: HysteresisBand {
            fail_below,
            pass_above,
        },
        rows,
    })
}

/// The fault-free group, its detector output, and the band.
struct Group {
    base: Netlist,
    vout: NodeId,
    band: HysteresisBand,
}

struct Screened {
    vout: f64,
    verdict: DetectorVerdict,
    ms: f64,
    telemetry: TelemetrySummary,
    escalated: bool,
}

fn screen_one(g: &Group, d: &Defect, item: u64) -> Result<Screened, Error> {
    let t0 = Instant::now();
    let op = span("defect", item, || -> Result<_, Error> {
        let nl = span("build", item, || -> Result<Netlist, Error> {
            let mut nl = g.base.clone();
            d.inject(&mut nl)?;
            Ok(nl)
        })?;
        let circuit = span("compile", item, || nl.compile())?;
        // The circuit moves into the span so its drop is timed there too.
        span("dc", item, move || {
            operating_point(&circuit, &DcOptions::default())
        })
    })?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let vout = op.voltage(g.vout);
    Ok(Screened {
        vout,
        verdict: g.band.classify(vout),
        ms,
        telemetry: op.telemetry().clone(),
        escalated: op.report().escalated(),
    })
}

fn check(key: &str, s: &Screened, band: &HysteresisBand, r: &(String, f64)) -> Result<(), String> {
    let (want, v_ref) = (r.0.as_str(), r.1);
    let got = verdict_name(s.verdict);
    // A reference output this close to a band edge may land on the
    // neighbouring verdict.
    let near_edge = (v_ref - band.fail_below).abs() < VOUT_TOL_V
        || (v_ref - band.pass_above).abs() < VOUT_TOL_V;
    if got != want && !near_edge {
        return Err(format!(
            "{key}: verdict {got}, reference {want} (vout {:.4} V)",
            s.vout
        ));
    }
    if (s.vout - v_ref).abs() > VOUT_TOL_V {
        return Err(format!(
            "{key}: vout {:.5} V, reference {v_ref:.5} V",
            s.vout
        ));
    }
    Ok(())
}

fn group() -> Result<Group, String> {
    let (base, handle) = gen::shared_group(SCREEN_GROUP).map_err(|e| e.to_string())?;
    let band = characterize_hysteresis(&Variant3::paper(), &CmlProcess::paper(), HYSTERESIS_POINTS)
        .map_err(|e| e.to_string())?
        .band;
    Ok(Group {
        base,
        vout: handle.vout,
        band,
    })
}

/// Set-up: build the group, characterize the band, generate the sample,
/// load the reference and check it covers the sample.
fn setup(seed: u64) -> Result<(Group, Vec<Defect>, Reference), String> {
    let g = group()?;
    let universe = gen::cell_universe(&g.base, SCREEN_GROUP);
    let pairs = gen::net_pairs(&g.base).map_err(|e| e.to_string())?;
    let sample = gen::screen_inputs(seed, &universe, &pairs);
    let reference = load_reference()?;
    for (edge, want) in [
        (g.band.fail_below, reference.band.fail_below),
        (g.band.pass_above, reference.band.pass_above),
    ] {
        if (edge - want).abs() > VOUT_TOL_V {
            return Err(format!(
                "hysteresis band edge {edge:.4} V, reference {want:.4} V"
            ));
        }
    }
    if let Some(d) = sample
        .iter()
        .find(|d| !reference.rows.contains_key(&gen::defect_key(d)))
    {
        return Err(format!("{}: no reference", gen::defect_key(d)));
    }
    Ok((g, sample, reference))
}

#[derive(Default)]
struct Passes {
    walls_s: Vec<f64>,
    defect_ms: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    counters: Counters,
}

/// Screens the sample pass after pass until `budget` is spent, calling
/// `between` after each pass.
fn screen_passes(
    g: &Group,
    sample: &[Defect],
    reference: &Reference,
    budget: Duration,
    next_item: &AtomicU64,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Passes, String> {
    let mut out = Passes::default();
    let opts = crate::sweep_options();
    let t0 = Instant::now();
    while out.walls_s.is_empty() || t0.elapsed() < budget {
        let started = Instant::now();
        let (slots, report) = par_try_map(sample.to_vec(), &opts, |d| {
            screen_one(g, d, next_item.fetch_add(1, Ordering::Relaxed))
        });
        out.walls_s.push(started.elapsed().as_secs_f64());
        out.attempted += sample.len() as u64;
        for f in &report.failures {
            out.failures.push(format!(
                "{}: {}",
                gen::defect_key(&sample[f.index]),
                f.failure
            ));
        }
        for (d, slot) in sample.iter().zip(slots) {
            let Some(s) = slot else { continue };
            let key = gen::defect_key(d);
            out.defect_ms.push(s.ms);
            out.counters.add_dc(&s.telemetry, s.escalated);
            if let Err(e) = check(&key, &s, &g.band, &reference.rows[&key]) {
                out.failures.push(e);
            }
        }
        between()?;
    }
    Ok(out)
}

pub fn run(args: &Args) -> Result<RunOutput, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let mut setups = Setups::new(budget);
    let (g, sample, reference) = setups.time(|| setup(args.seed))?;
    let next_item = AtomicU64::new(0);
    let mut out = RunOutput::default();

    let plain = if args.trace {
        let half = budget / 2;
        let plain = screen_passes(&g, &sample, &reference, half, &next_item, &mut || Ok(()))?;
        trace::set_enabled(true);
        let traced = screen_passes(&g, &sample, &reference, half, &next_item, &mut || Ok(()))?;
        trace::set_enabled(false);
        let spans = trace::take();
        let replay = replay_group(&g, &sample)?;
        let mut m = layers::common(
            &spans,
            "defect",
            traced.walls_s.len(),
            &traced.counters,
            &replay,
        );
        let items_s: f64 = traced.defect_ms.iter().sum::<f64>() * 1e-3;
        let wall_s: f64 = traced.walls_s.iter().sum();
        m.insert(
            "sweep.worker_busy_frac".into(),
            items_s / (wall_s * crate::workers() as f64),
        );
        m.insert(
            "trace.overhead_frac".into(),
            crate::stats::median(&traced.walls_s) / crate::stats::median(&plain.walls_s) - 1.0,
        );
        out.layers = m;
        out.spans = spans;
        out.attempted += traced.attempted;
        out.failures.extend(traced.failures);
        plain
    } else {
        let mut again = || setups.catch_up(|| setup(args.seed));
        screen_passes(&g, &sample, &reference, budget, &next_item, &mut again)?
    };
    out.attempted += plain.attempted;
    out.failures.extend(plain.failures);

    let total_wall: f64 = plain.walls_s.iter().sum();
    let rate = plain.defect_ms.len() as f64 / total_wall;
    let p50 = crate::stats::percentile(&plain.defect_ms, 0.50);
    let p90 = crate::stats::percentile(&plain.defect_ms, 0.90);
    out.e2e = crate::e2e(
        setups.finish(|| setup(args.seed))?,
        crate::stats::median(&plain.walls_s),
        peak_rss_mb(std::process::id()),
        rate,
        p50,
        p90,
    );
    out.aliases = vec![
        Metric::new("defects_per_s", rate, "1/s"),
        Metric::new("defect_ms_p50", p50, "ms"),
        Metric::new("defect_ms_p90", p90, "ms"),
    ];
    out.samples = plain.defect_ms.len();
    Ok(out)
}

fn replay_group(g: &Group, sample: &[Defect]) -> Result<Replay, String> {
    let mut all = Vec::new();
    for d in sample.iter().take(4) {
        let mut nl = g.base.clone();
        d.inject(&mut nl).map_err(|e| e.to_string())?;
        let circuit = nl.compile().map_err(|e| e.to_string())?;
        let op = operating_point(&circuit, &DcOptions::default()).map_err(|e| e.to_string())?;
        all.push(replay::replay(&circuit, op.unknowns(), None).map_err(|e| e.to_string())?);
    }
    Ok(Replay::mean(&all))
}

/// Screens every defect any seed can draw and writes
/// `ref/defect_screen.csv`.
pub fn write_reference() -> Result<(), String> {
    let g = group()?;
    let mut space = Vec::new();
    for d in gen::cell_universe(&g.base, SCREEN_GROUP) {
        match &d {
            Defect::Pipe { element, .. } => {
                space.extend(
                    gen::PIPE_OHMS
                        .iter()
                        .map(|&ohms| Defect::pipe(element, ohms)),
                );
            }
            _ => space.push(d),
        }
    }
    for (a, b) in gen::net_pairs(&g.base).map_err(|e| e.to_string())? {
        space.extend(
            gen::BRIDGE_OHMS
                .iter()
                .map(|&ohms| Defect::bridge(&a, &b, ohms)),
        );
    }
    let opts = crate::sweep_options();
    let (slots, report) = par_try_map(space.clone(), &opts, |d| screen_one(&g, d, 0));
    if !report.all_ok() {
        let first: Vec<String> = report
            .failures
            .iter()
            .take(10)
            .map(|f| format!("{}: {}", gen::defect_key(&space[f.index]), f.failure))
            .collect();
        return Err(format!("{}\n{}", report.summary(), first.join("\n")));
    }
    let mut csv = format!(
        "# band {:.6},{:.6}\nkey,verdict,vout_v\n",
        g.band.fail_below, g.band.pass_above
    );
    for (d, s) in space.iter().zip(slots.into_iter().flatten()) {
        let _ = writeln!(
            csv,
            "{},{},{:.6}",
            gen::defect_key(d),
            verdict_name(s.verdict),
            s.vout
        );
    }
    std::fs::write(ref_path(), csv).map_err(|e| e.to_string())
}
