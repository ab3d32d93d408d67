//! Seeded input generators. Each workload's inputs are a pure function of
//! the seed; the program under test only ever sees the generated inputs.
//!
//! Every generator draws from a finite, committed space (grid points,
//! universe defects, pipe and bridge values) so that the references in
//! `ref/` cover any seed.

use cml_bench::server::proto::CampaignSpec;
use cml_cells::{CmlCircuitBuilder, CmlProcess};
use cml_dft::{Variant3, Variant3Handle};
use faults::Defect;
use spicier::{Error, Netlist};
use std::fmt::Write as _;
use xrand::StdRng;

// ---------------------------------------------------------------------------
// settle_sweep
// ---------------------------------------------------------------------------

/// Stimulus frequencies, hertz (the FIG8/FIG10 100 MHz–2 GHz range).
pub const FREQS: [f64; 8] = [
    100.0e6, 200.0e6, 350.0e6, 500.0e6, 750.0e6, 1.0e9, 1.5e9, 2.0e9,
];
/// Pipe resistances on the DUT's Q3, ohms.
pub const PIPES: [f64; 5] = [1.0e3, 2.0e3, 3.0e3, 4.0e3, 5.0e3];
/// Detector load capacitors, farads.
pub const CAPS: [f64; 2] = [1.0e-12, 10.0e-12];
/// `vtest` of variant 2, volts.
pub const VTEST: f64 = 3.7;
/// Corners per sweep pass: one per (variant, load, frequency).
pub const CORNERS_PER_PASS: usize = 2 * CAPS.len() * FREQS.len();
/// Passes generated per seed (a run consumes as many as its time allows).
pub const SETTLE_PASSES: usize = 48;

/// One transient settling corner: the DUT chain plus detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// 1 or 2 (variant 2 runs at [`VTEST`]).
    pub variant: u8,
    pub freq: f64,
    pub pipe_ohms: f64,
    pub cap: f64,
}

impl Corner {
    /// Simulated horizon: the FIG8 rule (80 ns, 300 ns for the big load,
    /// never fewer than 12 periods).
    pub fn t_stop(&self) -> f64 {
        let base: f64 = if self.cap > 5.0e-12 {
            300.0e-9
        } else {
            80.0e-9
        };
        base.max(12.0 / self.freq)
    }

    /// Stable key shared with `ref/settle_sweep.csv`.
    pub fn key(&self) -> String {
        format!(
            "v{}/{:.0}MHz/{:.0}ohm/{:.0}pF",
            self.variant,
            self.freq / 1e6,
            self.pipe_ohms,
            self.cap * 1e12
        )
    }
}

/// Every grid corner (the space the reference covers).
pub fn settle_grid() -> Vec<Corner> {
    let mut out = Vec::new();
    for variant in [1u8, 2] {
        for &cap in &CAPS {
            for &freq in &FREQS {
                for &pipe_ohms in &PIPES {
                    out.push(Corner {
                        variant,
                        freq,
                        pipe_ohms,
                        cap,
                    });
                }
            }
        }
    }
    out
}

/// `SETTLE_PASSES` passes of `CORNERS_PER_PASS` corners. Each pass holds
/// every (variant, load, frequency) once — so every pass costs about the
/// same — with a seeded pipe value and a seeded order.
pub fn settle_inputs(seed: u64) -> Vec<Vec<Corner>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e77_1e00);
    (0..SETTLE_PASSES)
        .map(|_| {
            let mut pass = Vec::with_capacity(CORNERS_PER_PASS);
            for variant in [1u8, 2] {
                for &cap in &CAPS {
                    for &freq in &FREQS {
                        pass.push(Corner {
                            variant,
                            freq,
                            pipe_ohms: PIPES[rng.gen_range(0..PIPES.len())],
                            cap,
                        });
                    }
                }
            }
            rng.shuffle(&mut pass);
            pass
        })
        .collect()
}

// ---------------------------------------------------------------------------
// defect_screen
// ---------------------------------------------------------------------------

/// Buffers in the FIG14 shared-detector group the screen runs on.
pub const SCREEN_GROUP: usize = 16;
/// Pipe resistances a universe pipe is drawn from, ohms.
pub const PIPE_OHMS: [f64; 7] = [1.0e3, 2.0e3, 3.0e3, 4.0e3, 5.0e3, 7.0e3, 10.0e3];
/// Bridge resistances a bridge is drawn from, ohms.
pub const BRIDGE_OHMS: [f64; 2] = [200.0, 2.0e3];
/// Seeded net-pair bridges added to each screen.
pub const BRIDGES_PER_SCREEN: usize = 100;

/// A chain of `n` statically driven buffers sharing one variant-3
/// detector (the FIG14 circuit), fault-free.
///
/// # Errors
///
/// Propagates construction failures.
pub fn shared_group(n: usize) -> Result<(Netlist, Variant3Handle), Error> {
    let mut b = CmlCircuitBuilder::new(CmlProcess::paper());
    let input = b.diff("a");
    b.drive_static("a", input, true)?;
    let names: Vec<String> = (0..n).map(|k| format!("B{k}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let chain = b.buffer_chain(&refs, input)?;
    let pairs: Vec<_> = chain.cells.iter().map(|c| c.output).collect();
    let handle = Variant3::paper().attach_shared(&mut b, "SHD", &pairs)?;
    Ok((b.finish(), handle))
}

/// The group's cell-defect universe in netlist order: every buffer cell
/// and the shared detector, pipes at a placeholder value.
pub fn cell_universe(nl: &Netlist, buffers: usize) -> Vec<Defect> {
    let mut out = Vec::new();
    for k in 0..buffers {
        out.extend(faults::enumerate_cell_defects(nl, &format!("B{k}."), 1.0));
    }
    out.extend(faults::enumerate_cell_defects(nl, "SHD.", 1.0));
    out
}

/// Every unordered pair of non-ground nets (the bridge candidates).
///
/// # Errors
///
/// Propagates compile failures.
pub fn net_pairs(nl: &Netlist) -> Result<Vec<(String, String)>, Error> {
    let circuit = nl.clone().compile()?;
    let names: Vec<String> = circuit
        .node_ids()
        .skip(1)
        .map(|id| circuit.node_name(id).to_string())
        .collect();
    let mut out = Vec::new();
    for (i, a) in names.iter().enumerate() {
        for b in &names[i + 1..] {
            out.push((a.clone(), b.clone()));
        }
    }
    Ok(out)
}

/// Stable key of a defect, shared with `ref/defect_screen.csv` (the
/// library label plus the bridge resistance it omits).
pub fn defect_key(d: &Defect) -> String {
    match d {
        Defect::Bridge { ohms, .. } => format!("{}@{ohms:.0}", d.label()),
        _ => d.label(),
    }
}

/// One screen's defects: the whole cell universe with a seeded pipe
/// value per pipe, plus [`BRIDGES_PER_SCREEN`] seeded bridges, in a
/// seeded order.
pub fn screen_inputs(seed: u64, universe: &[Defect], pairs: &[(String, String)]) -> Vec<Defect> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdef3_c700);
    let mut out: Vec<Defect> = universe
        .iter()
        .map(|d| match d {
            Defect::Pipe { element, .. } => {
                Defect::pipe(element, PIPE_OHMS[rng.gen_range(0..PIPE_OHMS.len())])
            }
            other => other.clone(),
        })
        .collect();
    let mut idx: Vec<usize> = (0..pairs.len()).collect();
    rng.shuffle(&mut idx);
    for &i in idx.iter().take(BRIDGES_PER_SCREEN) {
        let (a, b) = &pairs[i];
        out.push(Defect::bridge(
            a,
            b,
            BRIDGE_OHMS[rng.gen_range(0..BRIDGE_OHMS.len())],
        ));
    }
    rng.shuffle(&mut out);
    out
}

// ---------------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------------

/// Buffers in the small shared group whose defect decks the interactive
/// clients run.
pub const SERVE_GROUP: usize = 4;
/// Offered interactive load, requests per second (open loop): a
/// fifteenth of the ≈ 3000 requests/s that `perfbench capacity` measures
/// for this mix on a 2-core machine. At a fifth of it, a slow spell of the
/// machine turns into a backlog on the generator's connections, and the
/// latency tail spreads several times wider from run to run.
pub const SERVE_RATE: f64 = 200.0;
/// Latency limit for goodput, milliseconds (timed from when a request was
/// due): about ten times the unloaded round trip of ≈ 0.5 ms.
pub const LATENCY_LIMIT_MS: f64 = 5.0;
/// The batch campaign is submitted at the stream's start and again every
/// this many seconds (one at a time), so batch chunks compete with the
/// interactive stream for the workers throughout the run.
pub const CAMPAIGN_PERIOD_S: f64 = 6.0;
/// Tenants the interactive stream spreads over.
pub const SERVE_TENANTS: usize = 4;

/// One interactive request of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Due time after the stream starts, seconds.
    pub due_s: f64,
    /// Index into the deck pool.
    pub deck: usize,
    /// Tenant index.
    pub tenant: usize,
}

/// The generated serve_mix inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeInputs {
    /// `.op` decks: `write_deck` renderings of seeded defect circuits.
    pub decks: Vec<String>,
    /// The open-loop request schedule at [`SERVE_RATE`].
    pub requests: Vec<Request>,
    /// The batch campaign that runs alongside.
    pub campaign: CampaignSpec,
}

/// Renders `nl` as a deck with a `.op` card.
pub fn op_deck(nl: &Netlist, title: &str) -> String {
    let deck = spicier::spice::write_deck(nl, title);
    match deck.rfind(".end") {
        Some(at) => format!("{}.op\n{}", &deck[..at], &deck[at..]),
        None => format!("{deck}.op\n.end\n"),
    }
}

/// The campaign every serve_mix run submits: a DC sweep of a 40-stage
/// resistor ladder. It is linear, so its result CSV — and the committed
/// digest in `ref/serve_mix.txt` — is exact on any correct solver.
pub fn campaign_spec() -> CampaignSpec {
    let stages = 40;
    let mut deck = String::from("ladder\nV1 n0 0 0\n");
    for i in 0..stages {
        let _ = writeln!(deck, "R{} n{} n{} 1k", i + 1, i, i + 1);
        let _ = writeln!(deck, "RG{} n{} 0 {}k", i + 1, i + 1, 10 + i);
    }
    deck.push_str(".end\n");
    CampaignSpec {
        deck,
        source: "V1".to_string(),
        start: 0.0,
        stop: 3.3,
        points: 4000,
        chunk: 40,
    }
}

/// The serve_mix inputs for `seed` and a stream of `seconds`.
///
/// # Errors
///
/// Propagates circuit construction and defect injection failures.
pub fn serve_inputs(seed: u64, seconds: f64) -> Result<ServeInputs, Error> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e2e_0000);
    let (base, _) = shared_group(SERVE_GROUP)?;
    // Every defect of the group's cell universe is a deck, so the mix of
    // cheap and expensive solves is the same on every seed; the seed draws
    // the pipe values, the deck order and each request's deck.
    let mut defects: Vec<Defect> = cell_universe(&base, SERVE_GROUP)
        .iter()
        .map(|d| match d {
            Defect::Pipe { element, .. } => {
                Defect::pipe(element, PIPE_OHMS[rng.gen_range(0..PIPE_OHMS.len())])
            }
            other => other.clone(),
        })
        .collect();
    rng.shuffle(&mut defects);
    let mut decks = Vec::with_capacity(defects.len());
    for (k, defect) in defects.iter().enumerate() {
        let mut nl = base.clone();
        defect.inject(&mut nl)?;
        decks.push(op_deck(
            &nl,
            &format!("serve deck {k}: {}", defect_key(defect)),
        ));
    }
    let count = (seconds * SERVE_RATE).round().max(1.0) as usize;
    let requests = (0..count)
        .map(|i| Request {
            due_s: i as f64 / SERVE_RATE,
            deck: rng.gen_range(0..decks.len()),
            tenant: rng.gen_range(0..SERVE_TENANTS),
        })
        .collect();
    Ok(ServeInputs {
        decks,
        requests,
        campaign: campaign_spec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settle_bytes(seed: u64) -> String {
        format!("{:?}", settle_inputs(seed))
    }

    fn screen_bytes(seed: u64) -> (usize, String) {
        let (nl, _) = shared_group(SCREEN_GROUP).unwrap();
        let inputs = screen_inputs(
            seed,
            &cell_universe(&nl, SCREEN_GROUP),
            &net_pairs(&nl).unwrap(),
        );
        let keys: Vec<String> = inputs.iter().map(defect_key).collect();
        (inputs.len(), keys.join("\n"))
    }

    #[test]
    fn settle_inputs_are_seeded() {
        assert_eq!(settle_bytes(7), settle_bytes(7));
        assert_ne!(settle_bytes(7), settle_bytes(8));
        let (a, b) = (settle_inputs(7), settle_inputs(8));
        assert_eq!(a.len(), b.len());
        assert!(a.iter().chain(&b).all(|p| p.len() == CORNERS_PER_PASS));
    }

    #[test]
    fn screen_inputs_are_seeded() {
        let (n7, a) = screen_bytes(7);
        let (n7b, a2) = screen_bytes(7);
        let (n8, b) = screen_bytes(8);
        assert_eq!(a, a2);
        assert_eq!(n7, n7b);
        assert_ne!(a, b);
        assert_eq!(n7, n8);
    }

    #[test]
    fn serve_inputs_are_seeded() {
        let a = serve_inputs(7, 2.0).unwrap();
        let b = serve_inputs(8, 2.0).unwrap();
        assert_eq!(a, serve_inputs(7, 2.0).unwrap());
        assert_ne!(a, b);
        assert_eq!(a.decks.len(), b.decks.len());
        assert_eq!(a.requests.len(), b.requests.len());
        assert!(a.decks.iter().all(|d| d.contains("\n.op\n")));
    }
}
