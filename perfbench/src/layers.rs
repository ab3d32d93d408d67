//! The per-layer metric catalogue and the arithmetic shared by the
//! workloads' traced runs.
//!
//! Counts and busy times are per pass (one sweep, one screen, or the
//! traced half of the request stream), so they do not grow with run
//! length. Every traced run prints every metric; a layer a workload does
//! not exercise reads 0.

use crate::replay::Replay;
use crate::trace::{self, SpanRecord};
use spicier::TelemetrySummary;
use std::collections::BTreeMap;

/// Every per-layer metric: name, unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tran.busy_s", "s"),
    ("tran.accepted_steps", "count"),
    ("tran.rejected_steps", "count"),
    ("tran.reject_ratio", "ratio"),
    ("tran.newton_per_step", "count"),
    ("dc.busy_s", "s"),
    ("dc.newton_per_call", "count"),
    ("dc.escalated_frac", "ratio"),
    ("dc.rung_iterations.newton", "count"),
    ("dc.rung_iterations.damped-newton", "count"),
    ("dc.rung_iterations.gmin-stepping", "count"),
    ("dc.rung_iterations.source-stepping", "count"),
    ("dc.rung_iterations.pseudo-transient", "count"),
    ("linalg.full_factors", "count"),
    ("linalg.refactors", "count"),
    ("linalg.refactor_ratio", "ratio"),
    ("linalg.pivot_fallbacks", "count"),
    ("linalg.solves", "count"),
    ("linalg.factor_us", "us"),
    ("linalg.solve_us", "us"),
    ("mna.assemble_us", "us"),
    ("est_share.assemble", "ratio"),
    ("est_share.lu", "ratio"),
    ("build.us_per_item", "us"),
    ("compile.us_per_item", "us"),
    ("measure.us_per_item", "us"),
    ("sweep.worker_busy_frac", "ratio"),
    ("spice.parse_us", "us"),
    ("serve.admission_ms_p99", "ms"),
    ("serve.journal_fsync_ms_p99", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.execute_ms_p50", "ms"),
    ("serve.execute_ms_p99", "ms"),
    ("serve.shed_frac", "ratio"),
    ("serve.wire_ms_p50", "ms"),
    ("gen.lag_ms_p99", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.item_coverage_min", "ratio"),
    ("trace.item_coverage_p01", "ratio"),
    ("trace.passes", "count"),
];

/// Solver counters summed over the traced items.
#[derive(Debug, Default)]
pub struct Counters {
    pub tran: TelemetrySummary,
    pub dc: TelemetrySummary,
    pub dc_calls: usize,
    pub dc_escalated: usize,
}

impl Counters {
    pub fn add_dc(&mut self, t: &TelemetrySummary, escalated: bool) {
        self.dc.absorb(t);
        self.dc_calls += 1;
        self.dc_escalated += usize::from(escalated);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The metrics every traced workload derives the same way, from its
/// spans, its solver counters and its replay. `passes` is the number of
/// traced passes the per-pass figures are divided by; `items_root` names
/// the per-item root span.
pub fn common(
    spans: &[SpanRecord],
    items_root: &str,
    passes: usize,
    counters: &Counters,
    replay: &Replay,
) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .map(|(n, _)| (n.to_string(), 0.0))
        .collect();
    let mut set = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    let per_pass = |v: f64| v / passes.max(1) as f64;
    let layers = trace::layer_times(spans);
    let busy = |name: &str| layers.get(name).map_or(0.0, |t| t.total_s);
    let us_per_call = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |t| ratio(t.total_s * 1e6, t.calls as f64))
    };
    let (tran, dc) = (&counters.tran, &counters.dc);

    set("tran.busy_s", per_pass(busy("tran")));
    set("tran.accepted_steps", per_pass(tran.accepted_steps as f64));
    set("tran.rejected_steps", per_pass(tran.rejected_steps as f64));
    set(
        "tran.reject_ratio",
        ratio(
            tran.rejected_steps as f64,
            (tran.accepted_steps + tran.rejected_steps) as f64,
        ),
    );
    set(
        "tran.newton_per_step",
        ratio(tran.newton_iterations as f64, tran.accepted_steps as f64),
    );

    set("dc.busy_s", per_pass(busy("dc")));
    let calls = counters.dc_calls as f64;
    set(
        "dc.newton_per_call",
        ratio(dc.newton_iterations as f64, calls),
    );
    set(
        "dc.escalated_frac",
        ratio(counters.dc_escalated as f64, calls),
    );
    for (rung, iters) in &dc.rung_iterations {
        set(
            &format!("dc.rung_iterations.{rung}"),
            ratio(*iters as f64, calls),
        );
    }

    let mut lu = tran.lu;
    lu.absorb(&dc.lu);
    let factors = (lu.full_factors + lu.refactors) as f64;
    set("linalg.full_factors", per_pass(lu.full_factors as f64));
    set("linalg.refactors", per_pass(lu.refactors as f64));
    set("linalg.refactor_ratio", ratio(lu.refactors as f64, factors));
    set(
        "linalg.pivot_fallbacks",
        per_pass(lu.pivot_fallbacks as f64),
    );
    set("linalg.solves", per_pass(lu.solves as f64));
    set("linalg.factor_us", replay.factor_us);
    set("linalg.solve_us", replay.solve_us);
    set("mna.assemble_us", replay.assemble_us);

    // Replay estimates: per-call replay cost times the run's own call
    // counts (one assembly per Newton iteration), over solver busy time.
    let solver_busy_s = busy("tran") + busy("dc");
    let newton = (tran.newton_iterations + dc.newton_iterations) as f64;
    set(
        "est_share.assemble",
        ratio(replay.assemble_us * 1e-6 * newton, solver_busy_s),
    );
    set(
        "est_share.lu",
        ratio(
            (replay.factor_us * factors + replay.solve_us * lu.solves as f64) * 1e-6,
            solver_busy_s,
        ),
    );

    set("build.us_per_item", us_per_call("build"));
    set("compile.us_per_item", us_per_call("compile"));
    set("measure.us_per_item", us_per_call("measure"));
    let covered = trace::coverage(spans, items_root);
    let lowest = covered.iter().copied().fold(1.0, f64::min);
    set("trace.item_coverage_min", lowest);
    set(
        "trace.item_coverage_p01",
        crate::stats::percentile(&covered, 0.01),
    );
    set("trace.passes", passes as f64);
    m
}
