//! `settle_sweep`: detector-settling transients over FIG8/FIG10 corners,
//! spread over sweep workers by `par_try_map`.
//!
//! Item path: build (cells + detector + pipe) → compile → transient →
//! `SettlingInfo::measure`. A pass is one sweep of
//! [`gen::CORNERS_PER_PASS`] corners; the run sweeps passes until its time
//! is spent.

use crate::gen::{self, Corner};
use crate::layers::{self, Counters};
use crate::replay::{self, Replay};
use crate::trace::{self, span};
use crate::{peak_rss_mb, Args, Metric, RunOutput, Setups, REF_DIR};
use cml_bench::experiments::fig7::FIRE_DEPTH;
use cml_cells::{waveform_of, CmlCircuitBuilder, CmlProcess};
use cml_dft::{DetectorLoad, Variant1, Variant2};
use faults::Defect;
use spicier::analysis::sweep::par_try_map;
use spicier::analysis::tran::{transient, Probe, TranOptions};
use spicier::{Error, Netlist, NodeId, TelemetrySummary};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use waveform::SettlingInfo;

/// `t_stability` may differ from the reference by this much (absolute)...
const T_TOL_ABS_NS: f64 = 3.0;
/// ...or by this share of the reference, whichever is larger. Halving both
/// `dv_max` and `h_max` moves settling times of the grid by up to 13.5%
/// (quartering them, 13.7%), so this leaves room for a finer step
/// controller and still fails a corner whose settling time is wrong.
const T_TOL_REL: f64 = 0.15;
/// Every corner's detector excursion (`depth`) may differ from the
/// reference by this much (absolute)...
const DEPTH_TOL_V: f64 = 0.010;
/// ...or by this share of the reference, whichever is larger. Halving
/// both step bounds moves depths of the grid by up to 11 mV (quartering
/// them, 17 mV on a 271 mV excursion); corners that never fire move by
/// under 2 mV. So a wrong waveform that stays below the firing depth fails.
const DEPTH_TOL_REL: f64 = 0.10;
/// A reference corner whose detector excursion lies this close to the
/// firing depth may flip its fired/not-fired verdict without failing.
const DEPTH_MARGIN_V: f64 = 0.02;

fn ref_path() -> String {
    format!("{REF_DIR}/settle_sweep.csv")
}

/// Reference rows by corner key.
type Reference = HashMap<String, SettleRef>;

/// One reference row.
#[derive(Debug, Clone, Copy)]
struct SettleRef {
    fired: bool,
    t_ns: f64,
    depth: f64,
}

fn load_reference() -> Result<Reference, String> {
    let text = std::fs::read_to_string(ref_path()).map_err(|e| format!("{}: {e}", ref_path()))?;
    let mut out = HashMap::new();
    for line in text.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        let [key, fired, t_ns, depth] = f[..] else {
            return Err(format!("bad reference row {line:?}"));
        };
        let num = |s: &str| s.parse::<f64>().map_err(|e| format!("{line:?}: {e}"));
        out.insert(
            key.to_string(),
            SettleRef {
                fired: fired == "1",
                t_ns: if t_ns == "-" { f64::NAN } else { num(t_ns)? },
                depth: num(depth)?,
            },
        );
    }
    Ok(out)
}

/// The DUT chain plus detector with the pipe injected; returns the netlist,
/// the detector output and the idle level variant 2 starts from.
fn build(c: &Corner) -> Result<(Netlist, NodeId, Option<f64>), Error> {
    let mut b = CmlCircuitBuilder::new(CmlProcess::paper());
    let input = b.diff("a");
    b.drive_differential("a", input, c.freq)?;
    let chain = b.buffer_chain(&["X1", "DUT", "X2"], input)?;
    let dut = chain.cells[1].output;
    let load = DetectorLoad::diode_cap(c.cap);
    let handle = match c.variant {
        1 => Variant1::new(load).attach(&mut b, "DET", dut)?,
        _ => Variant2::new(load, gen::VTEST).attach(&mut b, "DET", dut)?,
    };
    // A variant-2 test session switches test mode on with the load
    // capacitor idling at the rail (as in FIG10).
    let idle = (c.variant == 2).then(|| b.process().vgnd);
    let mut nl = b.finish();
    Defect::pipe("DUT.Q3", c.pipe_ohms).inject(&mut nl)?;
    Ok((nl, handle.vout, idle))
}

struct CornerOut {
    corner: Corner,
    ms: f64,
    incomplete: Option<String>,
    settling: Option<SettlingInfo>,
    telemetry: TelemetrySummary,
}

fn run_corner(c: &Corner, item: u64) -> Result<CornerOut, Error> {
    let t0 = Instant::now();
    let out = span("corner", item, || -> Result<CornerOut, Error> {
        let (nl, vout, idle) = span("build", item, || build(c))?;
        let circuit = span("compile", item, || nl.compile())?;
        let mut opts = TranOptions::new(c.t_stop());
        opts.probes = Probe::Nodes(vec![vout]);
        if let Some(v) = idle {
            opts = opts.with_initial_voltage(vout, v);
        }
        // Circuit and result move into the spans so their drops are timed
        // there too.
        let res = span("tran", item, move || transient(&circuit, &opts))?;
        let failure = res.failure().map(|f| f.summary());
        let telemetry = res.telemetry().clone();
        let settling = span("measure", item, move || -> Result<_, Error> {
            let wave = waveform_of(&res, vout)
                .map_err(|e| Error::InvalidOptions(format!("missing probe: {e}")))?;
            Ok(SettlingInfo::measure(&wave, 0.1))
        })?;
        Ok(CornerOut {
            corner: *c,
            ms: 0.0,
            incomplete: failure,
            settling,
            telemetry,
        })
    })?;
    Ok(CornerOut {
        ms: t0.elapsed().as_secs_f64() * 1e3,
        ..out
    })
}

fn fired(s: &Option<SettlingInfo>) -> bool {
    s.is_some_and(|s| s.depth > FIRE_DEPTH)
}

fn check(out: &CornerOut, r: &SettleRef) -> Result<(), String> {
    let key = out.corner.key();
    if let Some(why) = &out.incomplete {
        return Err(format!("{key}: transient incomplete: {why}"));
    }
    let got = fired(&out.settling);
    let marginal = (r.depth - FIRE_DEPTH).abs() < DEPTH_MARGIN_V;
    if got != r.fired && !marginal {
        return Err(format!("{key}: fired={got}, reference fired={}", r.fired));
    }
    let depth = out.settling.map_or(0.0, |s| s.depth);
    let depth_tol = DEPTH_TOL_V.max(DEPTH_TOL_REL * r.depth.abs());
    if (depth - r.depth).abs() > depth_tol {
        return Err(format!(
            "{key}: depth {:.1} mV, reference {:.1} mV (tolerance {:.1} mV)",
            depth * 1e3,
            r.depth * 1e3,
            depth_tol * 1e3
        ));
    }
    if let (true, true, Some(s)) = (got, r.fired, out.settling) {
        let t_ns = s.t_settle * 1e9;
        let tol = T_TOL_ABS_NS.max(T_TOL_REL * r.t_ns);
        if (t_ns - r.t_ns).abs() > tol {
            return Err(format!(
                "{key}: t_stability {t_ns:.2} ns, reference {:.2} ns (tolerance {tol:.2} ns)",
                r.t_ns
            ));
        }
    }
    Ok(())
}

/// Everything one stretch of passes produced.
#[derive(Default)]
struct Passes {
    walls_s: Vec<f64>,
    corner_ms: Vec<f64>,
    sim_s: f64,
    attempted: u64,
    failures: Vec<String>,
    counters: Counters,
}

/// Sweeps passes until `budget` is spent, calling `between` after each.
fn sweep_passes(
    inputs: &[Vec<Corner>],
    budget: Duration,
    reference: &Reference,
    next_item: &AtomicU64,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Passes, String> {
    let mut out = Passes::default();
    let opts = crate::sweep_options();
    let t0 = Instant::now();
    for pass in inputs {
        if !out.walls_s.is_empty() && t0.elapsed() >= budget {
            break;
        }
        let started = Instant::now();
        let (slots, report) = par_try_map(pass.clone(), &opts, |c| {
            run_corner(c, next_item.fetch_add(1, Ordering::Relaxed))
        });
        out.walls_s.push(started.elapsed().as_secs_f64());
        out.attempted += pass.len() as u64;
        for f in &report.failures {
            out.failures
                .push(format!("{}: {}", pass[f.index].key(), f.failure));
        }
        for slot in slots.into_iter().flatten() {
            out.corner_ms.push(slot.ms);
            out.sim_s += slot.corner.t_stop();
            out.counters.tran.absorb(&slot.telemetry);
            // Set-up checked that the reference covers the whole grid.
            if let Err(e) = check(&slot, &reference[&slot.corner.key()]) {
                out.failures.push(e);
            }
        }
        between()?;
    }
    Ok(out)
}

/// Set-up: generate the passes, load the reference, and build and
/// compile every corner of the grid the passes draw from.
fn setup(seed: u64) -> Result<(Vec<Vec<Corner>>, Reference), String> {
    let inputs = gen::settle_inputs(seed);
    let reference = load_reference()?;
    for c in &gen::settle_grid() {
        if !reference.contains_key(&c.key()) {
            return Err(format!("{}: no reference", c.key()));
        }
        build(c)
            .and_then(|(nl, _, _)| nl.compile())
            .map_err(|e| format!("{}: {e}", c.key()))?;
    }
    Ok((inputs, reference))
}

fn replay_corners(corners: &[Corner]) -> Result<Replay, String> {
    // One corner per (variant, load): the four circuit shapes of the sweep.
    let mut shapes: Vec<Corner> = Vec::new();
    for c in corners {
        if !shapes
            .iter()
            .any(|s| s.variant == c.variant && s.cap == c.cap)
        {
            shapes.push(*c);
        }
    }
    let mut all = Vec::new();
    for c in &shapes {
        let (nl, _, _) = build(c).map_err(|e| e.to_string())?;
        let circuit = nl.compile().map_err(|e| e.to_string())?;
        let op = spicier::operating_point(&circuit, &spicier::DcOptions::default())
            .map_err(|e| e.to_string())?;
        all.push(
            replay::replay(&circuit, op.unknowns(), Some(10.0e-12)).map_err(|e| e.to_string())?,
        );
    }
    Ok(Replay::mean(&all))
}

pub fn run(args: &Args) -> Result<RunOutput, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let mut setups = Setups::new(budget);
    let (inputs, reference) = setups.time(|| setup(args.seed))?;
    let next_item = AtomicU64::new(0);
    let mut out = RunOutput::default();

    let plain = if args.trace {
        let half = budget / 2;
        let plain = sweep_passes(&inputs, half, &reference, &next_item, &mut || Ok(()))?;
        trace::set_enabled(true);
        let rest = &inputs[plain.walls_s.len()..];
        let traced = sweep_passes(rest, half, &reference, &next_item, &mut || Ok(()))?;
        trace::set_enabled(false);
        let spans = trace::take();
        let replay = replay_corners(&rest[0])?;
        let passes = traced.walls_s.len();
        let mut m = layers::common(&spans, "corner", passes, &traced.counters, &replay);
        let items_s: f64 = traced.corner_ms.iter().sum::<f64>() * 1e-3;
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
        sweep_passes(&inputs, budget, &reference, &next_item, &mut again)?
    };
    out.attempted += plain.attempted;
    out.failures.extend(plain.failures);

    let total_wall: f64 = plain.walls_s.iter().sum();
    let corners = plain.corner_ms.len() as f64;
    let p50 = crate::stats::percentile(&plain.corner_ms, 0.50);
    let p90 = crate::stats::percentile(&plain.corner_ms, 0.90);
    out.e2e = crate::e2e(
        setups.finish(|| setup(args.seed))?,
        crate::stats::median(&plain.walls_s),
        peak_rss_mb(std::process::id()),
        corners / total_wall,
        p50,
        p90,
    );
    out.aliases = vec![
        Metric::new("corners_per_s", corners / total_wall, "1/s"),
        Metric::new("corner_ms_p50", p50, "ms"),
        Metric::new("corner_ms_p90", p90, "ms"),
        Metric::new("sim_ns_per_host_s", plain.sim_s * 1e9 / total_wall, "ns/s"),
    ];
    out.samples = plain.corner_ms.len();
    Ok(out)
}

/// Simulates the whole grid and writes `ref/settle_sweep.csv`.
pub fn write_reference() -> Result<(), String> {
    let grid = gen::settle_grid();
    let (slots, report) = par_try_map(grid.clone(), &crate::sweep_options(), |c| run_corner(c, 0));
    if !report.all_ok() {
        return Err(report.summary());
    }
    let mut csv = String::from("key,fired,t_settle_ns,depth_v\n");
    for out in slots.into_iter().flatten() {
        if let Some(why) = &out.incomplete {
            return Err(format!("{}: {why}", out.corner.key()));
        }
        let t = match (fired(&out.settling), out.settling) {
            (true, Some(s)) => format!("{:.4}", s.t_settle * 1e9),
            _ => "-".to_string(),
        };
        let depth = out.settling.map_or(0.0, |s| s.depth);
        let _ = writeln!(
            csv,
            "{},{},{t},{depth:.5}",
            out.corner.key(),
            u8::from(fired(&out.settling))
        );
    }
    std::fs::write(ref_path(), csv).map_err(|e| e.to_string())
}
