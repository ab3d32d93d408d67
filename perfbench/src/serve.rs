//! `serve_mix`: the campaign daemon under an open-loop interactive stream
//! with a batch campaign alongside, resubmitted every
//! [`gen::CAMPAIGN_PERIOD_S`].
//!
//! The daemon is this binary re-executed as `serve-daemon`, which runs the
//! same `daemon::serve(ServerConfig::from_env())` entry point as
//! `spicier-serve`. One generator (this process) sends `run` requests over
//! [`crate::workers`] connections at the fixed rate [`gen::SERVE_RATE`];
//! each request is timed from when it was due, so a stall also charges the
//! requests queued behind it. `perfbench capacity` measures what the rate
//! and the latency limit are set from.

use crate::gen::{self, ServeInputs};
use crate::layers::{self, Counters};
use crate::replay::Replay;
use crate::trace::{self, span};
use crate::{peak_rss_mb, Args, Metric, RunOutput, Setups, OUT_DIR, REF_DIR};
use cml_bench::experiments::manifest::fnv64;
use cml_bench::server::client::Client;
use cml_bench::server::json::Json;
use cml_bench::server::proto::status;
use cml_bench::server::{daemon, ServerConfig};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Per-request deadline handed to the daemon, milliseconds.
const DEADLINE_MS: u64 = 10_000;
/// How long the campaign may take to finish after the stream ends.
const CAMPAIGN_WAIT: Duration = Duration::from_secs(60);
const TENANT_BATCH: &str = "batch";

fn ref_path() -> String {
    format!("{REF_DIR}/serve_mix.txt")
}

/// Entry point of the `serve-daemon` subcommand.
pub fn daemon_main() -> Result<(), String> {
    let code = daemon::serve(ServerConfig::from_env()).map_err(|e| format!("daemon: {e}"))?;
    std::process::exit(code)
}

/// A spawned daemon; killed and its state removed on drop.
struct Daemon {
    child: Child,
    addr: String,
    state_dir: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

impl Daemon {
    fn spawn(tag: &str) -> Result<Daemon, String> {
        let state_dir = PathBuf::from(OUT_DIR).join(format!("serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        std::fs::create_dir_all(&state_dir).map_err(|e| format!("{}: {e}", state_dir.display()))?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let child = Command::new(exe)
            .arg("serve-daemon")
            .env_clear()
            .env("SERVE_ADDR", "tcp:127.0.0.1:0")
            .env("SERVE_STATE_DIR", &state_dir)
            .env("SERVE_WORKERS", crate::workers().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut d = Daemon {
            child,
            addr: String::new(),
            state_dir,
        };
        d.addr = Client::wait_for_addr(&d.state_dir, Duration::from_secs(20))
            .map_err(|e| format!("daemon address: {e}"))?;
        let pong = Client::connect(&d.addr)
            .and_then(|mut c| c.ping())
            .map_err(|e| format!("daemon ping: {e}"))?;
        if pong.str_field("status").as_deref() != Some(status::OK) {
            return Err(format!("daemon ping: {}", pong.render()));
        }
        Ok(d)
    }

    /// Graceful drain; the drop that follows kills a daemon that hangs.
    fn drain(mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.drain();
        }
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(20) {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

fn campaign_digest(reply: &Json) -> Result<String, String> {
    let csv = reply.str_field("csv").ok_or_else(|| {
        format!(
            "campaign reply without csv: {}",
            reply.str_field("status").unwrap_or_default()
        )
    })?;
    Ok(fnv64(&csv))
}

fn load_reference() -> Result<String, String> {
    let text = std::fs::read_to_string(ref_path()).map_err(|e| format!("{}: {e}", ref_path()))?;
    text.lines()
        .find_map(|l| l.strip_prefix("campaign_csv_fnv64="))
        .map(str::to_string)
        .ok_or_else(|| format!("{}: no campaign_csv_fnv64 line", ref_path()))
}

/// Timeline span accepted → finalized of a terminal reply, milliseconds.
fn job_ms(reply: &Json) -> Option<f64> {
    let tl = reply.get("timeline")?;
    Some(tl.num_field("finalized_ms")? - tl.num_field("accepted_ms")?)
}

struct Setup {
    inputs: ServeInputs,
    expected: Vec<String>,
    digest: String,
    daemon: Daemon,
}

/// Set-up: generate the decks and schedule, compute every deck's expected
/// reply in process with `runner::run_deck`, load the reference and start
/// a daemon.
fn setup(args: &Args, tag: &str) -> Result<Setup, String> {
    let inputs = gen::serve_inputs(args.seed, args.seconds).map_err(|e| e.to_string())?;
    let expected = inputs
        .decks
        .iter()
        .map(|d| spicier::runner::run_deck(d).map_err(|e| format!("in-process run_deck: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let digest = load_reference()?;
    let daemon = Daemon::spawn(tag)?;
    Ok(Setup {
        inputs,
        expected,
        digest,
        daemon,
    })
}

/// One interactive request's outcome.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Due → reply, milliseconds (infinite for a failed request).
    latency_ms: f64,
    /// Send → reply minus the daemon's accepted → finalized span.
    wire_ms: f64,
    /// How late the generator sent it, milliseconds.
    lag_ms: f64,
    ok: bool,
}

/// A generator connection that reconnects after an I/O error.
struct Conn<'a> {
    s: &'a Setup,
    client: Client,
}

impl<'a> Conn<'a> {
    fn open(s: &'a Setup) -> Result<Self, String> {
        let client = Client::connect(&s.daemon.addr).map_err(|e| e.to_string())?;
        Ok(Self { s, client })
    }

    /// Sends request `i` and checks the reply against the in-process
    /// `run_deck` output of the same deck. Returns the daemon's
    /// accepted → finalized time, milliseconds.
    fn run(&mut self, i: usize, r: &gen::Request) -> Result<f64, String> {
        let item = (i + 1) as u64;
        let reply = span("request", item, || {
            span("serve", item, || {
                self.client.run(
                    &format!("t{}", r.tenant),
                    &self.s.inputs.decks[r.deck],
                    Some(DEADLINE_MS),
                )
            })
        });
        let reply = reply.map_err(|e| {
            // The connection is unusable after an I/O error.
            if let Ok(c) = Client::connect(&self.s.daemon.addr) {
                self.client = c;
            }
            format!("request {i}: {e}")
        })?;
        match reply.str_field("status").as_deref() {
            Some(status::OK)
                if reply.str_field("output").as_deref()
                    == Some(self.s.expected[r.deck].as_str()) =>
            {
                job_ms(&reply).ok_or_else(|| format!("request {i}: reply without timeline"))
            }
            Some(status::OK) => Err(format!(
                "request {i}: reply differs from in-process run_deck (deck {})",
                r.deck
            )),
            other => Err(format!("request {i}: status {other:?}")),
        }
    }
}

/// Runs `conns` generator threads; thread `k` gets `k` and returns its
/// samples and failures.
fn fan_out<T: Send>(
    conns: usize,
    f: impl Fn(usize) -> Result<(Vec<T>, Vec<String>), String> + Sync,
) -> Result<(Vec<T>, Vec<String>), String> {
    let f = &f;
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns).map(|k| scope.spawn(move || f(k))).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let (mut samples, mut failures) = (Vec::new(), Vec::new());
    for r in results {
        let (s, f) = r?;
        samples.extend(s);
        failures.extend(f);
    }
    Ok((samples, failures))
}

#[derive(Default)]
struct Stream {
    samples: Vec<Sample>,
    failures: Vec<String>,
    /// Campaigns submitted.
    campaigns: u64,
    /// Each campaign's accepted → finalized time, seconds.
    campaign_s: Vec<f64>,
    /// First due time → last reply, seconds.
    wall_s: f64,
    /// Daemon CPU time from the stream's start to its last reply and the
    /// last campaign's end.
    daemon_cpu_s: f64,
}

impl Stream {
    /// Interactive requests answered correctly within
    /// [`gen::LATENCY_LIMIT_MS`] of their due time, per second of stream.
    fn goodput_rps(&self) -> f64 {
        self.samples.iter().filter(|x| x.ok).count() as f64 / self.wall_s
    }
}

/// Submits the campaign every [`gen::CAMPAIGN_PERIOD_S`] from `t0`, one
/// at a time, `count` times; checks each result CSV against the reference
/// digest. Returns each campaign's accepted → finalized seconds and the
/// failures.
fn campaigns(
    s: &Setup,
    t0: Instant,
    count: usize,
    tag: &str,
) -> Result<(Vec<f64>, Vec<String>), String> {
    let mut control = Client::connect(&s.daemon.addr).map_err(|e| e.to_string())?;
    let (mut times, mut failures) = (Vec::new(), Vec::new());
    for k in 0..count {
        let due = t0 + Duration::from_secs_f64(k as f64 * gen::CAMPAIGN_PERIOD_S);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let id = format!("{tag}-{k}");
        let accept = control
            .submit_campaign(TENANT_BATCH, &id, &s.inputs.campaign)
            .map_err(|e| e.to_string())?;
        if accept.str_field("status").as_deref() != Some(status::ACCEPTED) {
            failures.push(format!("campaign {id} refused: {}", accept.render()));
            continue;
        }
        let job = format!("{TENANT_BATCH}/{id}");
        let done = control
            .wait_job(&job, CAMPAIGN_WAIT)
            .map_err(|e| format!("campaign {job}: {e}"))?;
        if done.str_field("status").as_deref() != Some(status::OK) {
            failures.push(format!(
                "campaign {job}: {}",
                done.str_field("status").unwrap_or_default()
            ));
            continue;
        }
        match campaign_digest(&done) {
            Ok(d) if d == s.digest => {}
            Ok(d) => failures.push(format!(
                "campaign {job}: CSV digest {d}, reference {}",
                s.digest
            )),
            Err(e) => failures.push(e),
        }
        times.push(job_ms(&done).unwrap_or(0.0) * 1e-3);
    }
    Ok((times, failures))
}

/// Runs one stretch of the open-loop stream with the campaigns alongside.
fn stream(s: &Setup, requests: &[gen::Request], tag: &str) -> Result<Stream, String> {
    let mut out = Stream::default();
    let cpu_before = cpu_s(s.daemon.child.id())?;
    let conns = crate::workers();
    let offset = requests.first().map_or(0.0, |r| r.due_s);
    let span_s = requests.last().map_or(0.0, |r| r.due_s) - offset + 1.0 / gen::SERVE_RATE;
    out.campaigns = (span_s / gen::CAMPAIGN_PERIOD_S).ceil().max(1.0) as u64;
    let t0 = Instant::now();
    let (generated, batch) = std::thread::scope(|scope| {
        let batch = scope.spawn(|| campaigns(s, t0, out.campaigns as usize, tag));
        let generated = fan_out(conns, |k| {
            let mut conn = Conn::open(s)?;
            let (mut samples, mut failures) = (Vec::new(), Vec::new());
            for (i, r) in requests.iter().enumerate().skip(k).step_by(conns) {
                let due = t0 + Duration::from_secs_f64(r.due_s - offset);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let result = conn.run(i, r);
                let done = Instant::now();
                let lag_ms = sent.duration_since(due).as_secs_f64() * 1e3;
                let latency_ms = done.duration_since(due).as_secs_f64() * 1e3;
                let rtt_ms = done.duration_since(sent).as_secs_f64() * 1e3;
                samples.push(match result {
                    Ok(server_ms) => Sample {
                        latency_ms,
                        wire_ms: rtt_ms - server_ms,
                        lag_ms,
                        ok: latency_ms <= gen::LATENCY_LIMIT_MS,
                    },
                    Err(e) => {
                        failures.push(e);
                        Sample {
                            latency_ms: f64::INFINITY,
                            wire_ms: 0.0,
                            lag_ms,
                            ok: false,
                        }
                    }
                });
            }
            Ok((samples, failures))
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let batch = batch
            .join()
            .unwrap_or_else(|_| Err("campaign thread panicked".into()));
        (generated.map(|g| (g, wall_s)), batch)
    });
    let ((samples, failures), wall_s) = generated?;
    let (campaign_s, campaign_failures) = batch?;
    out.samples = samples;
    out.failures.extend(failures);
    out.failures.extend(campaign_failures);
    out.campaign_s = campaign_s;
    out.wall_s = wall_s;
    out.daemon_cpu_s = cpu_s(s.daemon.child.id())? - cpu_before;
    Ok(out)
}

/// CPU time (user + system, all threads, exited ones included) that
/// process `pid` has used, seconds. `/proc` counts it in clock ticks of
/// 1/100 s on Linux.
fn cpu_s(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    match ticks[..] {
        [utime, stime] => Ok((utime + stime) / 100.0),
        _ => Err(format!("/proc/{pid}/stat: no utime/stime")),
    }
}

fn latency(samples: &[Sample], p: f64) -> f64 {
    let v: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    crate::stats::percentile(&v, p)
}

/// The daemon's own view, read through the `metrics` verb.
fn scrape(addr: &str, m: &mut std::collections::BTreeMap<String, f64>) -> Result<(), String> {
    let doc = Client::connect(addr)
        .and_then(|mut c| c.metrics())
        .map_err(|e| format!("metrics: {e}"))?;
    let hist = |name: &str, class: Option<&str>, q: &str| -> f64 {
        let h = doc.get("histograms").and_then(|h| h.get(name));
        let h = match class {
            Some(c) => h.and_then(|h| h.get(c)),
            None => h,
        };
        h.and_then(|h| h.num_field(q)).unwrap_or(0.0)
    };
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.num_field(name))
            .unwrap_or(0.0)
    };
    let shed = counter("shed");
    let offered = counter("accepted_interactive") + counter("accepted_batch") + shed;
    for (k, v) in [
        (
            "serve.admission_ms_p99",
            hist("admission_ms", None, "p99_ms"),
        ),
        (
            "serve.journal_fsync_ms_p99",
            hist("journal_sync_ms", None, "p99_ms"),
        ),
        (
            "serve.queue_wait_ms_p50",
            hist("queue_wait_ms", Some("interactive"), "p50_ms"),
        ),
        (
            "serve.queue_wait_ms_p99",
            hist("queue_wait_ms", Some("interactive"), "p99_ms"),
        ),
        (
            "serve.execute_ms_p50",
            hist("execute_ms", Some("interactive"), "p50_ms"),
        ),
        (
            "serve.execute_ms_p99",
            hist("execute_ms", Some("interactive"), "p99_ms"),
        ),
        (
            "serve.shed_frac",
            if offered > 0.0 { shed / offered } else { 0.0 },
        ),
    ] {
        m.insert(k.to_string(), v);
    }
    Ok(())
}

/// Mean `parse_deck` cost over the generated decks, microseconds.
fn parse_us(decks: &[String]) -> Result<f64, String> {
    let reps = 20;
    let t0 = Instant::now();
    for _ in 0..reps {
        for d in decks {
            spicier::spice::parse_deck(d).map_err(|e| e.to_string())?;
        }
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6 / (reps * decks.len()) as f64)
}

pub fn run(args: &Args) -> Result<RunOutput, String> {
    let mut setups = Setups::new(Duration::from_secs_f64(args.seconds));
    let s = setups.time(|| setup(args, "run"))?;
    // Later set-ups run after the stream; each starts its own daemon, which
    // is killed when the timed set-up is dropped.
    let mut extra = 0;
    let mut again = || {
        extra += 1;
        setup(args, &format!("extra{extra}"))
    };
    let mut out = RunOutput::default();
    let requests = &s.inputs.requests;

    let plain = if args.trace {
        let (first, second) = requests.split_at(requests.len() / 2);
        let plain = stream(&s, first, "plain")?;
        trace::set_enabled(true);
        let traced = stream(&s, second, "traced")?;
        trace::set_enabled(false);
        let spans = trace::take();
        let mut m = layers::common(
            &spans,
            "request",
            1,
            &Counters::default(),
            &Replay::default(),
        );
        scrape(&s.daemon.addr, &mut m)?;
        let ok: Vec<&Sample> = traced
            .samples
            .iter()
            .filter(|x| x.latency_ms.is_finite())
            .collect();
        let wire: Vec<f64> = ok.iter().map(|x| x.wire_ms).collect();
        let lag: Vec<f64> = traced.samples.iter().map(|x| x.lag_ms).collect();
        m.insert(
            "serve.wire_ms_p50".into(),
            crate::stats::percentile(&wire, 0.5),
        );
        m.insert(
            "gen.lag_ms_p99".into(),
            crate::stats::percentile(&lag, 0.99),
        );
        m.insert("spice.parse_us".into(), parse_us(&s.inputs.decks)?);
        m.insert(
            "trace.overhead_frac".into(),
            latency(&traced.samples, 0.5) / latency(&plain.samples, 0.5) - 1.0,
        );
        out.layers = m;
        out.spans = spans;
        out.attempted += traced.samples.len() as u64 + traced.campaigns;
        out.failures.extend(traced.failures);
        plain
    } else {
        stream(&s, requests, "plain")?
    };
    out.attempted += plain.samples.len() as u64 + plain.campaigns;
    out.failures.extend(plain.failures.iter().cloned());
    let rss = peak_rss_mb(s.daemon.child.id());
    s.daemon.drain();
    let setup_s = setups.finish(&mut again)?;

    let goodput = plain.goodput_rps();
    let (p50, p90, p99) = (
        latency(&plain.samples, 0.50),
        latency(&plain.samples, 0.90),
        latency(&plain.samples, 0.99),
    );
    out.e2e = crate::e2e(setup_s, plain.daemon_cpu_s, rss, goodput, p50, p90);
    out.aliases = vec![
        Metric::new("daemon_cpu_s", plain.daemon_cpu_s, "s"),
        Metric::new("goodput_rps", goodput, "1/s"),
        Metric::new("latency_ms_p50", p50, "ms"),
        Metric::new("latency_ms_p90", p90, "ms"),
        Metric::new("latency_ms_p99", p99, "ms"),
        Metric::new("campaigns", plain.campaigns as f64, "count"),
        Metric::new(
            "campaign_s_p50",
            crate::stats::percentile(&plain.campaign_s, 0.5),
            "s",
        ),
        Metric::new("stream_s", plain.wall_s, "s"),
        Metric::new("offered_rps", gen::SERVE_RATE, "1/s"),
        Metric::new("latency_limit_ms", gen::LATENCY_LIMIT_MS, "ms"),
    ];
    out.samples = plain.samples.len();
    Ok(out)
}

/// `perfbench capacity`: the measurements the serve_mix rate and latency
/// limit are set from. First one connection sends requests back to back
/// with nothing else running (the unloaded round trip: the per-request
/// service time as a client sees it); then the generator's own
/// [`crate::workers`] connections do the same with the campaigns on their
/// schedule (the most this generator gets through the daemon); `--conns`
/// sets another connection count for the second phase.
pub fn capacity(f: &std::collections::BTreeMap<String, String>) -> Result<(), String> {
    let seconds: f64 = f.get("seconds").map_or(Ok(10.0), |v| {
        v.parse()
            .map_err(|_| format!("--seconds: cannot parse {v:?}"))
    })?;
    let conns: usize = f.get("conns").map_or(Ok(crate::workers()), |v| {
        v.parse()
            .map_err(|_| format!("--conns: cannot parse {v:?}"))
    })?;
    let args = Args {
        workload: "serve_mix".into(),
        seed: 1,
        seconds,
        trace: false,
    };
    let s = setup(&args, "capacity")?;
    let closed_loop = |conns: usize, secs: f64| {
        let t0 = Instant::now();
        let until = t0 + Duration::from_secs_f64(secs);
        let requests = &s.inputs.requests;
        let (samples, failures) = fan_out(conns, |k| {
            let mut conn = Conn::open(&s)?;
            let (mut rtt, mut failures) = (Vec::new(), Vec::new());
            let mut i = k;
            while Instant::now() < until {
                let sent = Instant::now();
                match conn.run(i, &requests[i % requests.len()]) {
                    Ok(server_ms) => rtt.push((sent.elapsed().as_secs_f64() * 1e3, server_ms)),
                    Err(e) => failures.push(e),
                }
                i += conns;
            }
            Ok((rtt, failures))
        })?;
        if let Some(e) = failures.first() {
            return Err(e.clone());
        }
        Ok((samples, t0.elapsed().as_secs_f64()))
    };
    let (unloaded, _) = closed_loop(1, 2.0)?;
    let rtt: Vec<f64> = unloaded.iter().map(|x| x.0).collect();
    let job: Vec<f64> = unloaded.iter().map(|x| x.1).collect();
    let t0 = Instant::now();
    let count = (seconds / gen::CAMPAIGN_PERIOD_S).ceil().max(1.0) as usize;
    let (loaded, batch) = std::thread::scope(|scope| {
        let batch = scope.spawn(|| campaigns(&s, t0, count, "capacity"));
        let loaded = closed_loop(conns, seconds);
        let batch = batch
            .join()
            .unwrap_or_else(|_| Err("campaign thread panicked".into()));
        (loaded, batch)
    });
    let (loaded, wall_s) = loaded?;
    if let Some(e) = batch?.1.first() {
        return Err(e.clone());
    }
    let capacity = loaded.len() as f64 / wall_s;
    let rtt_p50 = crate::stats::percentile(&rtt, 0.5);
    let loaded_rtt: Vec<f64> = loaded.iter().map(|x| x.0).collect();
    println!("[capacity] unloaded, 1 connection: {} requests", rtt.len());
    println!(
        "  round trip p50 {rtt_p50:.3} ms, p99 {:.3} ms; daemon accepted → finalized p50 {:.3} ms",
        crate::stats::percentile(&rtt, 0.99),
        crate::stats::percentile(&job, 0.5)
    );
    println!("[capacity] closed loop, {conns} connections, campaign every {} s: {} requests in {wall_s:.2} s",
        gen::CAMPAIGN_PERIOD_S, loaded.len());
    println!(
        "  capacity {capacity:.1} requests/s; round trip p50 {:.3} ms, p99 {:.3} ms",
        crate::stats::percentile(&loaded_rtt, 0.5),
        crate::stats::percentile(&loaded_rtt, 0.99)
    );
    println!("[capacity] serve_mix offers {} requests/s = {:.2} of capacity; latency limit {} ms = {:.1} x the unloaded round trip",
        gen::SERVE_RATE, gen::SERVE_RATE / capacity,
        gen::LATENCY_LIMIT_MS, gen::LATENCY_LIMIT_MS / rtt_p50);
    s.daemon.drain();
    Ok(())
}

/// Runs the campaign alone on a fresh daemon and writes its CSV digest to
/// `ref/serve_mix.txt`.
pub fn write_reference() -> Result<(), String> {
    let d = Daemon::spawn("ref")?;
    let mut c = Client::connect(&d.addr).map_err(|e| e.to_string())?;
    c.submit_campaign(TENANT_BATCH, "ref", &gen::campaign_spec())
        .map_err(|e| e.to_string())?;
    let done = c
        .wait_job(&format!("{TENANT_BATCH}/ref"), CAMPAIGN_WAIT)
        .map_err(|e| e.to_string())?;
    let digest = campaign_digest(&done)?;
    d.drain();
    std::fs::write(ref_path(), format!("campaign_csv_fnv64={digest}\n")).map_err(|e| e.to_string())
}
