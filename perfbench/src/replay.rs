//! Replay timings for the layers the program gives no span for: MNA
//! assembly and the linear kernels. Each replay takes one of the
//! workload's own circuits, linearizes it at its operating point with the
//! public `Assembler`, and times `Assembler::assemble` and the
//! factor/solve calls of the kernel the solver picks for that size
//! (`DenseMatrix` up to `EXPERIMENT_DENSE_CUTOFF` unknowns, `SparseLu`
//! above). The figures are per-call estimates, not measurements of the
//! run itself.

use spicier::analysis::mna::{Assembler, EvalMode, Integration, Method};
use spicier::linalg::{DenseMatrix, SparseLu, SparseMatrix, Triplets, EXPERIMENT_DENSE_CUTOFF};
use spicier::{Circuit, Error};
use std::time::Instant;

/// Mean cost of one call, microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub assemble_us: f64,
    pub factor_us: f64,
    pub solve_us: f64,
}

impl Replay {
    /// Mean of several replays.
    pub fn mean(all: &[Replay]) -> Replay {
        let n = all.len().max(1) as f64;
        Replay {
            assemble_us: all.iter().map(|r| r.assemble_us).sum::<f64>() / n,
            factor_us: all.iter().map(|r| r.factor_us).sum::<f64>() / n,
            solve_us: all.iter().map(|r| r.solve_us).sum::<f64>() / n,
        }
    }
}

/// Time spent timing each call, seconds.
const REPLAY_S: f64 = 0.1;
/// Calls per timed batch.
const BATCH: usize = 64;

/// Median per-call cost over batches of [`BATCH`] calls, for
/// [`REPLAY_S`] seconds, microseconds.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut batches = Vec::new();
    while batches.is_empty() || t0.elapsed().as_secs_f64() < REPLAY_S {
        let b = Instant::now();
        for _ in 0..BATCH {
            f();
        }
        batches.push(b.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
    }
    crate::stats::median(&batches)
}

/// Replays `circuit` linearized at `x`. `step` selects a transient
/// (trapezoidal, step `h`) assembly instead of a DC one.
///
/// # Errors
///
/// Propagates a singular factorization.
pub fn replay(circuit: &Circuit, x: &[f64], step: Option<f64>) -> Result<Replay, Error> {
    let mut asm = Assembler::new(circuit);
    asm.reset_junctions(x);
    asm.init_charges(x);
    let mode = EvalMode {
        integ: match step {
            Some(h) => Integration::Step {
                method: Method::Trapezoidal,
                h,
            },
            None => Integration::Dc,
        },
        ..EvalMode::dc(1.0e-12)
    };
    let mut triplets = Triplets::new(circuit.dim());
    let mut rhs = Vec::new();
    let assemble_us = per_call_us(|| {
        asm.reset_junctions(x);
        asm.assemble(x, &mode, &mut triplets, &mut rhs);
    });
    let mut out = vec![0.0; rhs.len()];
    let (factor_us, solve_us) = if circuit.dim() <= EXPERIMENT_DENSE_CUTOFF {
        let mut lu = DenseMatrix::from_triplets(&triplets);
        let perm = lu.lu_factor()?;
        let factor_us = per_call_us(|| {
            let mut m = DenseMatrix::from_triplets(&triplets);
            let _ = m.lu_factor();
        });
        let solve_us = per_call_us(|| {
            out.copy_from_slice(&rhs);
            lu.lu_solve(&perm, &mut out);
        });
        (factor_us, solve_us)
    } else {
        let a = SparseMatrix::from_triplets(&triplets);
        let mut lu = SparseLu::new();
        lu.factor(&a)?;
        let factor_us = per_call_us(|| {
            let mut fresh = SparseLu::new();
            let _ = fresh.factor(&a);
        });
        let solve_us = per_call_us(|| {
            out.copy_from_slice(&rhs);
            let _ = lu.solve(&mut out);
        });
        (factor_us, solve_us)
    };
    Ok(Replay {
        assemble_us,
        factor_us,
        solve_us,
    })
}
