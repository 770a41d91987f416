//! The benchmark's workloads: which problems each one explores, how, and
//! the independent reference every result is checked against.

use contrarc::baseline::solve_monolithic;
use contrarc::synth::{generate, SynthConfig};
use contrarc::{Exploration, ExplorerConfig, Problem};
use contrarc_milp::SolveOptions;
use contrarc_systems::epn::{self, EpnConfig};
use contrarc_systems::rpl::{self, RplConfig};
use std::time::Instant;

/// Iteration cap of `epn-2-0-0-capped`. Complete mode is far from the
/// optimum after this many iterations, and the cut rows have already
/// outgrown the base model several times over.
pub const EPN_CAP: usize = 7;

/// Lines of `rpl-par7`.
pub const RPL_LINES: usize = 7;

/// Problems in one `synth-t1` batch.
pub const SYNTH_BATCH: usize = 256;

/// Worker threads of every untraced run. At two threads on a two-core
/// shared machine, repetitions of one batch ranged from 3.6 s to 7.5 s,
/// while one thread held it within 3.8–4.4 s; the `par` layer is measured
/// instead by the traced run at [`PAR_THREADS`].
pub const THREADS: usize = 1;

/// Worker threads of the traced run's comparison run, which gives the
/// `par` layer's metrics.
pub const PAR_THREADS: usize = 2;

/// One benchmark workload. Every workload runs the paper's method
/// ("Complete" mode, the default configuration) at [`THREADS`] threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table II row (2,0,0), capped at [`EPN_CAP`] iterations.
    EpnCapped,
    /// Table II row (1,1,1), run to the optimum.
    Epn111,
    /// [`RPL_LINES`] identical RPL lines, run to the optimum.
    RplPar7,
    /// A seeded batch of [`SYNTH_BATCH`] synthetic problems, each run to
    /// its optimum.
    Synth,
}

impl Workload {
    /// Every workload the benchmark can run. `BENCHMARK.json` lists the
    /// first and the third; `epn-1-1-1` and `synth-t1` run by hand only,
    /// because their run medians spread past the `explore_s` bound on a
    /// 2-core shared VM (see `perfbench/README.md`).
    pub const ALL: [Workload; 4] = [
        Workload::EpnCapped,
        Workload::Epn111,
        Workload::RplPar7,
        Workload::Synth,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::EpnCapped => "epn-2-0-0-capped",
            Workload::Epn111 => "epn-1-1-1",
            Workload::RplPar7 => "rpl-par7",
            Workload::Synth => "synth-t1",
        }
    }

    /// Look a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The iteration cap, for the capped workload.
    #[must_use]
    pub fn cap(self) -> Option<usize> {
        (self == Workload::EpnCapped).then_some(EPN_CAP)
    }

    /// The exploration configuration at `threads` worker threads.
    #[must_use]
    pub fn config(self, threads: usize) -> ExplorerConfig {
        let mut config = ExplorerConfig::complete();
        config.threads = threads;
        if let Some(cap) = self.cap() {
            config.max_iterations = cap;
        }
        config
    }

    /// Build the workload's problems. Only `synth-t1` depends on the seed;
    /// the others are the paper's fixed case studies.
    #[must_use]
    pub fn build(self, seed: u64) -> Vec<Problem> {
        match self {
            Workload::EpnCapped => vec![epn::build(&EpnConfig::table2(2, 0, 0))],
            Workload::Epn111 => vec![epn::build(&EpnConfig::table2(1, 1, 1))],
            Workload::RplPar7 => vec![rpl::build_parallel(&RplConfig::default(), RPL_LINES)],
            Workload::Synth => synth_configs(seed).iter().map(generate).collect(),
        }
    }

    /// The reference optimum of each problem, from the monolithic baseline
    /// (`baseline::solve_monolithic`, the ArchEx encoding of Fig. 5(a)). It
    /// shares only the Problem-2 base model and the MILP solver with the
    /// lazy loop. The RPL lines are independent copies with no shared
    /// component or system-level coupling, so the `rpl-par7` reference is
    /// seven times the single-line optimum; solving the seven-line baseline
    /// directly is only done for `baseline_s` in the traced run.
    ///
    /// # Errors
    ///
    /// Names the problem whose reference solve failed or was not optimal.
    pub fn reference(self, problems: &[Problem]) -> Result<Reference, String> {
        if self == Workload::RplPar7 {
            let line = rpl::build_parallel(&RplConfig::default(), 1);
            let (cost, _) = baseline_optimum(&line)?;
            return Ok(Reference {
                costs: vec![cost * RPL_LINES as f64],
                baseline_s: None,
            });
        }
        let mut costs = Vec::with_capacity(problems.len());
        let mut secs = 0.0;
        for p in problems {
            let (cost, s) = baseline_optimum(p)?;
            costs.push(cost);
            secs += s;
        }
        Ok(Reference {
            costs,
            baseline_s: Some(secs),
        })
    }
}

/// Reference optima of a workload's problems.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Optimal cost of each problem.
    pub costs: Vec<f64>,
    /// Seconds the monolithic baseline took on exactly the workload's
    /// problems, when the reference came from solving them.
    pub baseline_s: Option<f64>,
}

/// Solve `problem` with the monolithic baseline: its optimal cost and the
/// seconds the solve took.
///
/// # Errors
///
/// Says why the baseline gave no optimum.
pub fn baseline_optimum(problem: &Problem) -> Result<(f64, f64), String> {
    let t = Instant::now();
    match solve_monolithic(problem, &SolveOptions::default()) {
        Ok(Exploration::Optimal { architecture, .. }) => {
            Ok((architecture.cost(), t.elapsed().as_secs_f64()))
        }
        Ok(other) => Err(format!(
            "baseline of {} is not optimal: {other:?}",
            problem.template.name()
        )),
        Err(e) => Err(format!(
            "baseline of {} failed: {e}",
            problem.template.name()
        )),
    }
}

/// The generator settings of a `synth-t1` batch: equal seeds give equal
/// batches, and each problem gets its own generator seed.
#[must_use]
pub fn synth_configs(seed: u64) -> Vec<SynthConfig> {
    let mut state = seed;
    (0..SYNTH_BATCH)
        .map(|_| SynthConfig {
            seed: splitmix64(&mut state),
            layers: 2,
            width: 2,
            impls_per_type: 3,
            edge_density: 0.5,
            latency_slack: 0.8,
        })
        .collect()
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn equal_seeds_give_equal_synth_batches() {
        assert_eq!(synth_configs(7), synth_configs(7));
        let a = Workload::Synth.build(7);
        let b = Workload::Synth.build(7);
        assert_eq!(a.len(), SYNTH_BATCH);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_synth_batches() {
        let a = synth_configs(1);
        let b = synth_configs(2);
        assert!(a.iter().zip(&b).all(|(x, y)| x.seed != y.seed));
        let pa = Workload::Synth.build(1);
        let pb = Workload::Synth.build(2);
        assert_ne!(pa[0], pb[0]);
    }

    #[test]
    fn fixed_workloads_ignore_the_seed() {
        let a = Workload::Epn111.build(1);
        let b = Workload::Epn111.build(99);
        assert_eq!(a, b);
    }
}
