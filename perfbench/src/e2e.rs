//! Untraced end-to-end measurement: repeated set-up and exploration through
//! `Explorer`, with every result checked against the reference.

use crate::workloads::{Workload, THREADS};
use contrarc::{Explorer, Problem, Step, StopReason};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Absolute tolerance when comparing costs with the reference.
pub const COST_TOL: f64 = 1e-6;

/// How one exploration ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ending {
    /// `Step::Optimal` at this cost.
    Optimal(f64),
    /// `Step::Exhausted` on the iteration cap.
    Capped,
}

/// What one exploration produced, as far as correctness is concerned.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Proven lower bound after each iteration's candidate selection.
    pub lower_bounds: Vec<f64>,
    /// Certificate cuts added in each iteration (0 on the terminal one).
    pub cuts: Vec<usize>,
    /// How the exploration ended.
    pub ending: Ending,
    /// Cut rows in the model at the end (rows beyond the base encoding).
    pub cut_rows: usize,
}

impl Trajectory {
    /// Iterations run.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.lower_bounds.len()
    }

    /// The proven lower bound at the terminal step.
    #[must_use]
    pub fn lower_bound(&self) -> f64 {
        self.lower_bounds
            .last()
            .copied()
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// Check the trajectory against the reference optimum of its problem:
    /// an optimum must equal it, and every lower bound must stay at or below
    /// it and never decrease. Returns what is wrong, if anything.
    #[must_use]
    pub fn check(&self, reference: f64, capped: bool) -> Option<String> {
        if let Ending::Optimal(cost) = self.ending {
            if (cost - reference).abs() > COST_TOL {
                return Some(format!("optimum {cost} differs from reference {reference}"));
            }
        } else if !capped {
            return Some("stopped on the iteration cap of an uncapped workload".to_owned());
        }
        if let Some(lb) = self
            .lower_bounds
            .iter()
            .find(|&&lb| lb > reference + COST_TOL)
        {
            return Some(format!("lower bound {lb} exceeds reference {reference}"));
        }
        if self.lower_bounds.windows(2).any(|w| w[1] < w[0] - COST_TOL) {
            return Some(format!("lower bound decreased: {:?}", self.lower_bounds));
        }
        None
    }

    /// Whether two runs took the same path: equal lower bounds (bit for
    /// bit), equal cuts per iteration, and the same ending.
    #[must_use]
    pub fn same_path(&self, other: &Trajectory) -> bool {
        let bits = |t: &Trajectory| {
            t.lower_bounds
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        let end_bits = |t: &Trajectory| match t.ending {
            Ending::Optimal(c) => Some(c.to_bits()),
            Ending::Capped => None,
        };
        bits(self) == bits(other)
            && self.cuts == other.cuts
            && end_bits(self) == end_bits(other)
            && self.cut_rows == other.cut_rows
    }
}

/// Step an explorer to its terminal step. Errors, panics, infeasibility
/// and any budget other than the iteration cap are failures.
///
/// # Errors
///
/// Describes the failure.
pub fn drive(explorer: &mut Explorer<'_>) -> Result<Trajectory, String> {
    let mut lower_bounds = Vec::new();
    let mut cuts = Vec::new();
    let ending = catch_unwind(AssertUnwindSafe(|| loop {
        let step = explorer
            .step()
            .map_err(|e| format!("exploration error: {e}"))?;
        if let Step::Exhausted(StopReason::IterationLimit { .. }) = step {
            return Ok(Ending::Capped);
        }
        lower_bounds.push(explorer.lower_bound().unwrap_or(f64::NEG_INFINITY));
        match step {
            Step::Pruned { cuts_added, .. } => cuts.push(cuts_added),
            Step::Optimal(arch) => {
                cuts.push(0);
                return Ok(Ending::Optimal(arch.cost()));
            }
            Step::Infeasible => return Err("exploration found no architecture".to_owned()),
            Step::Exhausted(reason) => return Err(format!("unexpected stop: {reason}")),
        }
    }))
    .map_err(|_| "exploration panicked".to_owned())??;
    Ok(Trajectory {
        lower_bounds,
        cuts,
        ending,
        cut_rows: explorer.checkpoint().cuts.len(),
    })
}

/// Samples and verdicts of an untraced measurement.
#[derive(Debug, Default)]
pub struct E2e {
    /// Seconds per set-up: problem build plus `Explorer::new`, whole batch.
    pub setup_s: Vec<f64>,
    /// Seconds per exploration of the whole batch, first step to terminal
    /// step.
    pub explore_s: Vec<f64>,
    /// Trajectory of each problem in the first repetition.
    pub first: Vec<Trajectory>,
    /// Explorations attempted.
    pub attempted: u64,
    /// Explorations that failed a check.
    pub failed: u64,
    /// One message per failure.
    pub failures: Vec<String>,
}

/// One explorer per problem.
fn set_up<'p>(workload: Workload, problems: &'p [Problem]) -> Result<Vec<Explorer<'p>>, String> {
    problems
        .iter()
        .map(|p| Explorer::new(p, workload.config(THREADS)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("Explorer::new failed: {e}"))
}

/// Measure `workload` for about `seconds`.
///
/// A first repetition of set-up and exploration warms caches and the
/// allocator; it is checked but not timed. Then each repetition times one
/// set-up and one exploration, followed by a block of set-ups alone that
/// lasts a ninth of that repetition (one set-up at the least), so the
/// set-up samples are spread over the whole run rather than taken at one
/// end of it. Repetitions go on while the next one fits in `seconds`, with
/// [`MIN_TIMED`] timed ones at the least. Every exploration is checked
/// against `reference` and against the warm-up's trajectory; the first
/// failing repetition ends the measurement.
#[must_use]
pub fn measure(workload: Workload, seed: u64, seconds: f64, reference: &[f64]) -> E2e {
    let mut out = E2e::default();
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let t = Instant::now();
        let problems = workload.build(seed);
        let explorers = set_up(workload, &problems);
        let setup_s = t.elapsed().as_secs_f64();
        let mut explorers = match explorers {
            Ok(e) => e,
            Err(msg) => {
                out.attempted += problems.len() as u64;
                out.failed += problems.len() as u64;
                out.failures.push(msg);
                return out;
            }
        };
        let t = Instant::now();
        let runs: Vec<_> = explorers.iter_mut().map(drive).collect();
        let explore_s = t.elapsed().as_secs_f64();
        if !check_repetition(workload, reference, runs, &mut out) {
            return out;
        }
        reps += 1;
        if reps > 1 {
            out.setup_s.push(setup_s);
            out.explore_s.push(explore_s);
            let block = Instant::now();
            loop {
                let t = Instant::now();
                let problems = workload.build(seed);
                let explorers = set_up(workload, &problems);
                out.setup_s.push(t.elapsed().as_secs_f64());
                drop(explorers);
                if block.elapsed().as_secs_f64() >= (setup_s + explore_s) / 9.0 {
                    break;
                }
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let per_rep = elapsed / reps as f64;
        if out.explore_s.len() >= MIN_TIMED && elapsed + per_rep > seconds {
            return out;
        }
    }
}

/// Timed repetitions of every untraced run, at the least.
pub const MIN_TIMED: usize = 3;

/// Check one repetition's explorations, the first against `reference` and
/// every later one against the first's trajectory as well, counting them
/// in `out`. Returns whether all passed.
fn check_repetition(
    workload: Workload,
    reference: &[f64],
    runs: Vec<Result<Trajectory, String>>,
    out: &mut E2e,
) -> bool {
    let capped = workload.cap().is_some();
    let first_rep = out.first.is_empty();
    for (i, run) in runs.into_iter().enumerate() {
        out.attempted += 1;
        let verdict = run.and_then(|traj| {
            if let Some(msg) = traj.check(reference[i], capped) {
                return Err(msg);
            }
            if first_rep {
                out.first.push(traj);
            } else if !traj.same_path(&out.first[i]) {
                return Err("trajectory differs from the first repetition".to_owned());
            }
            Ok(())
        });
        if let Err(msg) = verdict {
            out.failed += 1;
            out.failures.push(format!("problem {i}: {msg}"));
        }
    }
    out.failed == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(lower_bounds: &[f64], ending: Ending) -> Trajectory {
        Trajectory {
            lower_bounds: lower_bounds.to_vec(),
            cuts: vec![1; lower_bounds.len()],
            ending,
            cut_rows: 4,
        }
    }

    #[test]
    fn check_accepts_the_reference_optimum() {
        assert_eq!(
            traj(&[40.0, 44.0], Ending::Optimal(44.0)).check(44.0, false),
            None
        );
        assert_eq!(traj(&[36.0], Ending::Capped).check(44.0, true), None);
    }

    #[test]
    fn check_catches_each_kind_of_wrong_result() {
        let wrong_cost = traj(&[40.0, 43.0], Ending::Optimal(43.0)).check(44.0, false);
        assert!(wrong_cost.unwrap().contains("differs from reference"));
        let capped_uncapped = traj(&[40.0], Ending::Capped).check(44.0, false);
        assert!(capped_uncapped.unwrap().contains("iteration cap"));
        let bound_too_high = traj(&[45.0], Ending::Capped).check(44.0, true);
        assert!(bound_too_high.unwrap().contains("exceeds reference"));
        let bound_fell = traj(&[40.0, 39.0], Ending::Capped).check(44.0, true);
        assert!(bound_fell.unwrap().contains("decreased"));
    }

    #[test]
    fn same_path_compares_bits_cuts_and_ending() {
        let a = traj(&[40.0, 44.0], Ending::Optimal(44.0));
        assert!(a.same_path(&a.clone()));
        let mut b = a.clone();
        b.lower_bounds[0] = 40.000_000_000_000_01;
        assert!(!a.same_path(&b));
        let mut c = a.clone();
        c.cuts[0] = 2;
        assert!(!a.same_path(&c));
        let mut d = a.clone();
        d.ending = Ending::Capped;
        assert!(!a.same_path(&d));
    }
}
