//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public functions, recorded from the
//! benchmark's own code: name, start, end, parent span and the item (corner,
//! defect or request) it belongs to. Spans stay in memory until the run
//! ends, then [`dump`] writes them out as JSON. With tracing off, [`span`]
//! is one relaxed atomic load around the call.

use cml_bench::server::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub item: u64,
}

impl SpanRecord {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicUsize = AtomicUsize::new(0);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// Spans this thread closed since its last root span closed. They move
    /// to the shared store only once the root span has ended, so waiting
    /// for its lock never lands inside a span.
    static LOCAL: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Runs `f` inside a span named `name` for `item`. The innermost open span
/// on this thread is its parent.
pub fn span<R>(name: &'static str, item: u64, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.push(SpanRecord {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            item,
        });
        if parent.is_none() {
            SPANS.lock().expect("span store").append(&mut l);
        }
    });
    out
}

/// Takes every span recorded so far, ordered by id.
pub fn take() -> Vec<SpanRecord> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span store"));
    spans.sort_by_key(|s| s.id);
    spans
}

/// Per-name totals over a span set: call count, summed duration and
/// summed self time (duration minus the time its child spans cover),
/// in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub calls: usize,
    pub total_s: f64,
    pub self_s: f64,
}

/// Time covered by each span's direct children, by parent id.
fn child_time(spans: &[SpanRecord]) -> BTreeMap<usize, f64> {
    let mut child_s: BTreeMap<usize, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_s.entry(p).or_default() += s.dur_s();
        }
    }
    child_s
}

pub fn layer_times(spans: &[SpanRecord]) -> BTreeMap<&'static str, LayerTime> {
    let child_s = child_time(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_s += s.dur_s();
        t.self_s += s.dur_s() - child_s.get(&s.id).copied().unwrap_or(0.0);
    }
    out
}

/// Share of each root span's wall time covered by its direct children,
/// for every root span named `root`.
pub fn coverage(spans: &[SpanRecord], root: &str) -> Vec<f64> {
    let child_s = child_time(spans);
    spans
        .iter()
        .filter(|s| s.name == root && s.dur_s() > 0.0)
        .map(|s| child_s.get(&s.id).copied().unwrap_or(0.0) / s.dur_s())
        .collect()
}

/// Writes the spans plus their per-layer self times to `path` as JSON.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn dump(path: &std::path::Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    let layers = layer_times(spans)
        .into_iter()
        .map(|(name, t)| {
            (
                name.to_string(),
                Json::obj(vec![
                    ("calls", Json::num(t.calls as f64)),
                    ("total_s", Json::num(t.total_s)),
                    ("self_s", Json::num(t.self_s)),
                ]),
            )
        })
        .collect();
    let records = spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("id", Json::num(s.id as f64)),
                ("name", Json::str(s.name)),
                ("start_us", Json::num(s.start_ns as f64 / 1e3)),
                ("end_us", Json::num(s.end_ns as f64 / 1e3)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                ),
                ("item", Json::num(s.item as f64)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("layers", Json::Obj(layers)),
        ("spans", Json::Arr(records)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mk = |id, name, start_ns, end_ns, parent| SpanRecord {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            item: 0,
        };
        let spans = vec![
            mk(0, "item", 0, 1_000, None),
            mk(1, "build", 0, 300, Some(0)),
            mk(2, "tran", 300, 950, Some(0)),
        ];
        let t = layer_times(&spans);
        assert!((t["item"].self_s - 50e-9).abs() < 1e-15);
        assert!((t["tran"].self_s - 650e-9).abs() < 1e-15);
        assert_eq!(coverage(&spans, "item").len(), 1);
        assert!((coverage(&spans, "item")[0] - 0.95).abs() < 1e-12);
    }
}
