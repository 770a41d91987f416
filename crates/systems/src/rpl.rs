//! The reconfigurable production line (RPL) case study (Section V-A).
//!
//! An RPL delivers product elements from a source (`Src`) through alternating
//! conveyor (`C`) and machine (`M`) stages to a sink. Two production lines
//! assemble products *A* and *B*; each line has `stages` machine stages and
//! `stages + 1` conveyor stages, and every stage offers `n_A` (resp. `n_B`)
//! interchangeable candidate slots. The exploration selects how many slots to
//! instantiate, which implementations to map them to, and the interconnect.
//!
//! Stage types are shared between the two lines, so an invalid path on one
//! line transfers to the isomorphic paths of the other — exactly the
//! situation the paper's subgraph-isomorphism certificates exploit.
//!
//! The paper's Table I library values are not machine-readable from the PDF;
//! the values here follow the same shape — cheaper implementations are
//! slower and have less throughput (see EXPERIMENTS.md).

use contrarc::attr::{Attrs, COST, FLOW_CONS, FLOW_GEN, JITTER_OUT, LATENCY, THROUGHPUT};
use contrarc::{FlowSpec, Library, Problem, SystemSpec, Template, TimingSpec, TypeConfig};
use serde::{Deserialize, Serialize};

/// Parameters of an RPL instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RplConfig {
    /// Candidate slots per stage on the product-A line (`n_A`).
    pub n_a: usize,
    /// Candidate slots per stage on the product-B line (`n_B`).
    pub n_b: usize,
    /// Machine stages per line (the paper uses 2, with 3 conveyor stages).
    pub stages: usize,
    /// Product demand at each sink (units of flow).
    pub demand: f64,
    /// End-to-end latency budget `L_s`.
    pub max_latency: f64,
}

impl Default for RplConfig {
    fn default() -> Self {
        RplConfig {
            n_a: 1,
            n_b: 1,
            stages: 2,
            demand: 10.0,
            max_latency: 48.0,
        }
    }
}

impl RplConfig {
    /// The paper's `n_A = n_B = n` sweep point.
    #[must_use]
    pub fn symmetric(n: usize) -> Self {
        RplConfig {
            n_a: n,
            n_b: n,
            ..RplConfig::default()
        }
    }
}

/// Which lines to include in the template (used by the compositional
/// exploration of Fig. 5(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RplLines {
    /// Both product lines in one template (monolithic exploration).
    Both,
    /// Only the product-A line.
    LineA,
    /// Only the product-B line.
    LineB,
}

/// Machine implementation menu: (name suffix, cost, latency, throughput).
const MACHINE_MENU: [(&str, f64, f64, f64); 3] = [
    ("eco", 2.0, 16.0, 12.0),
    ("std", 4.5, 9.0, 18.0),
    ("turbo", 9.0, 4.0, 30.0),
];

/// Conveyor implementation menu: (name suffix, cost, latency, throughput).
const CONVEYOR_MENU: [(&str, f64, f64, f64); 2] =
    [("belt", 1.0, 8.0, 14.0), ("servo", 4.0, 3.0, 28.0)];

/// Build the RPL exploration problem.
///
/// # Panics
///
/// Panics if a line with zero slots (`n_a == 0` with `RplLines::LineA`/`Both`
/// etc.) or zero stages is requested.
#[must_use]
pub fn build(config: &RplConfig, lines: RplLines) -> Problem {
    let specs: Vec<(String, usize)> = match lines {
        RplLines::Both => vec![("A".into(), config.n_a), ("B".into(), config.n_b)],
        RplLines::LineA => vec![("A".into(), config.n_a)],
        RplLines::LineB => vec![("B".into(), config.n_b)],
    };
    build_lines(
        config,
        format!("rpl[{}x{} s{}]", config.n_a, config.n_b, config.stages),
        &specs,
    )
}

/// Build an RPL with `k` identical parallel product lines, each with
/// `config.n_a` slots per stage. The lines share stage types, menus, and
/// weights, so every permutation of whole lines (and of the slots within a
/// stage) is a template automorphism — the symmetric stress case for
/// orbit-pruned certificate matching and the MILP symmetry rows.
///
/// # Panics
///
/// Panics if `k == 0`, `config.n_a == 0`, or `config.stages == 0`.
#[must_use]
pub fn build_parallel(config: &RplConfig, k: usize) -> Problem {
    assert!(k >= 1, "at least one line required");
    let specs: Vec<(String, usize)> = (0..k).map(|i| (format!("P{i}"), config.n_a)).collect();
    build_lines(
        config,
        format!("rpl-par[{}x{} s{}]", k, config.n_a, config.stages),
        &specs,
    )
}

fn build_lines(config: &RplConfig, name: String, line_specs: &[(String, usize)]) -> Problem {
    assert!(config.stages >= 1, "at least one machine stage required");
    let mut t = Template::new(name);
    let mut lib = Library::new();

    // Shared stage types: src, conv0, mach0, conv1, mach1, …, conv{stages}, sink.
    let src_t = t.add_type("src", TypeConfig::source());
    let mut conv_types = Vec::new();
    let mut mach_types = Vec::new();
    for k in 0..=config.stages {
        conv_types.push(t.add_type(format!("conv{k}"), TypeConfig::bounded(4, 4)));
        if k < config.stages {
            mach_types.push(t.add_type(format!("mach{k}"), TypeConfig::bounded(4, 4)));
        }
    }
    let sink_t = t.add_type("sink", TypeConfig::sink());

    // Library: per type, the four implementations of its menu.
    lib.add(
        "Src",
        src_t,
        Attrs::new()
            .with(COST, 3.0)
            .with(FLOW_GEN, 60.0)
            .with(LATENCY, 1.0)
            .with(JITTER_OUT, 0.5),
    );
    for (k, &ct) in conv_types.iter().enumerate() {
        for (suffix, cost, lat, thr) in CONVEYOR_MENU {
            lib.add(
                format!("C{k}_{suffix}"),
                ct,
                Attrs::new()
                    .with(COST, cost)
                    .with(LATENCY, lat)
                    .with(THROUGHPUT, thr)
                    .with(JITTER_OUT, 0.5),
            );
        }
    }
    for (k, &mt) in mach_types.iter().enumerate() {
        for (suffix, cost, lat, thr) in MACHINE_MENU {
            lib.add(
                format!("M{k}_{suffix}"),
                mt,
                Attrs::new()
                    .with(COST, cost)
                    .with(LATENCY, lat)
                    .with(THROUGHPUT, thr)
                    .with(JITTER_OUT, 0.5),
            );
        }
    }
    lib.add(
        "Sink",
        sink_t,
        Attrs::new()
            .with(COST, 1.0)
            .with(FLOW_CONS, config.demand)
            .with(LATENCY, 1.0)
            .with(JITTER_OUT, 0.5)
            .with(THROUGHPUT, 100.0),
    );

    // One line: Src → conv0 slots → mach0 slots → … → conv{stages} → Sink.
    let add_line = |t: &mut Template, label: &str, slots: usize| {
        assert!(slots >= 1, "line {label} needs at least one slot per stage");
        let src = t.add_node(format!("Src{label}"), src_t);
        let mut prev = vec![src];
        for k in 0..=config.stages {
            let conv: Vec<_> = (0..slots)
                .map(|i| t.add_node(format!("C{k}{label}{i}"), conv_types[k]))
                .collect();
            for &p in &prev {
                for &c in &conv {
                    t.add_candidate_edge(p, c);
                }
            }
            prev = conv;
            if k < config.stages {
                let mach: Vec<_> = (0..slots)
                    .map(|i| t.add_node(format!("M{k}{label}{i}"), mach_types[k]))
                    .collect();
                for &p in &prev {
                    for &m in &mach {
                        t.add_candidate_edge(p, m);
                    }
                }
                prev = mach;
            }
        }
        let sink = t.add_required_node(format!("Sink{label}"), sink_t);
        for &p in &prev {
            t.add_candidate_edge(p, sink);
        }
    };

    for (label, slots) in line_specs {
        add_line(&mut t, label, *slots);
    }

    let num_lines = line_specs.len() as f64;
    let spec = SystemSpec {
        flow: Some(FlowSpec {
            max_supply: 80.0 * num_lines,
            max_consumption: 40.0 * num_lines,
        }),
        timing: Some(TimingSpec {
            max_latency: config.max_latency,
            max_input_jitter: 1.0,
            max_output_jitter: 1.0,
        }),
        flow_cap: 200.0,
        horizon: 10_000.0,
    };
    Problem::new(t, lib, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarc::{explore, ExplorerConfig};

    #[test]
    fn default_config_is_valid() {
        let p = build(&RplConfig::default(), RplLines::Both);
        assert!(p.validate().is_empty(), "{:?}", p.validate());
        // Per line: 1 src + 3 conv + 2 mach + 1 sink = 7 nodes.
        assert_eq!(p.template.num_nodes(), 14);
        assert_eq!(p.template.num_candidate_edges(), 12);
    }

    #[test]
    fn slot_count_scales_template() {
        let p = build(&RplConfig::symmetric(2), RplLines::Both);
        // Per line: 1 + 5·2 + 1 = 12 nodes; edges: 1·2 + 4·(2·2) + 2·1 = 20.
        assert_eq!(p.template.num_nodes(), 24);
        assert_eq!(p.template.num_candidate_edges(), 40);
    }

    #[test]
    fn single_line_builds() {
        let pa = build(&RplConfig::default(), RplLines::LineA);
        assert_eq!(pa.template.num_nodes(), 7);
        let pb = build(&RplConfig::default(), RplLines::LineB);
        assert_eq!(pb.template.num_nodes(), 7);
    }

    #[test]
    fn generous_budget_picks_cheapest() {
        let cfg = RplConfig {
            max_latency: 100.0,
            ..RplConfig::default()
        };
        let p = build(&cfg, RplLines::LineA);
        let r = explore(&p, &ExplorerConfig::complete()).unwrap();
        let arch = r.architecture().expect("feasible");
        // Cheapest chain: Src 3 + eco/belt stack (1+2)·…: conv 1×3 + mach 2×2 + sink 1.
        assert_eq!(r.stats().iterations, 1, "no pruning needed");
        assert!((arch.cost() - (3.0 + 3.0 * 1.0 + 2.0 * 2.0 + 1.0)).abs() < 1e-6);
    }

    #[test]
    fn tight_budget_forces_upgrades() {
        // Cheapest chain latency: 1 + 8+16+8+16+8 + 1 = 58 (+jitter).
        // A budget of 40 forces faster implementations.
        let cfg = RplConfig::default();
        let p = build(&cfg, RplLines::LineA);
        let r = explore(&p, &ExplorerConfig::complete()).unwrap();
        let arch = r.architecture().expect("feasible within budget 40");
        assert!(r.stats().iterations > 1, "pruning iterations expected");
        assert!(arch.cost() > 12.0, "upgraded implementations cost more");
    }

    #[test]
    fn infeasible_when_budget_impossible() {
        // One stage keeps the exhaustion proof small. Fastest chain:
        // 1 + 1.5 + 3 + 1.5 + 1 = 8 plus jitters — a budget of 5 is
        // impossible.
        let cfg = RplConfig {
            max_latency: 5.0,
            stages: 1,
            ..RplConfig::default()
        };
        let p = build(&cfg, RplLines::LineA);
        let r = explore(&p, &ExplorerConfig::complete()).unwrap();
        assert!(r.architecture().is_none());
    }

    #[test]
    fn parallel_lines_are_symmetric() {
        let cfg = RplConfig {
            stages: 1,
            ..RplConfig::default()
        };
        let p = build_parallel(&cfg, 3);
        assert!(p.validate().is_empty(), "{:?}", p.validate());
        // Per line: src + conv0 + mach0 + conv1 + sink = 5 nodes.
        assert_eq!(p.template.num_nodes(), 15);
        let aut = contrarc::sym::matcher_automorphisms(&p);
        assert!(!aut.is_trivial(), "identical lines must be interchangeable");
        // Whole-line swaps fold the 15 slots into 5 orbits (one per layer).
        assert_eq!(aut.num_orbits(), 5);
    }

    #[test]
    fn parallel_groups_match_the_exhaustive_search() {
        // Five default lines of 7 slots each, laid out line by line. The
        // exhaustive individualization–refinement search (120 leaves) keeps
        // four adjacent line swaps, last pair first, and folds the 35 slots
        // into one orbit per layer. The pruned search must return exactly
        // this, generator order included.
        let p = build_parallel(&RplConfig::default(), 5);
        let swap = |a: usize, b: usize| -> Vec<usize> {
            (0..35)
                .map(|v| match v / 7 {
                    l if l == a => b * 7 + v % 7,
                    l if l == b => a * 7 + v % 7,
                    _ => v,
                })
                .collect()
        };
        let generators = vec![swap(3, 4), swap(2, 3), swap(1, 2), swap(0, 1)];
        let orbit_reps: Vec<usize> = (0..35).map(|v| v % 7).collect();
        for aut in [
            contrarc::sym::matcher_automorphisms(&p),
            contrarc::sym::encoding_automorphisms(&p),
        ] {
            assert_eq!(aut.num_nodes(), 35);
            assert_eq!(aut.generators(), generators.as_slice());
            let reps: Vec<usize> = (0..35).map(|v| aut.orbit_rep(v)).collect();
            assert_eq!(reps, orbit_reps);
        }
    }

    #[test]
    fn parallel_symmetry_on_off_agree_across_threads() {
        use contrarc::SymmetryConfig;
        let cfg = RplConfig {
            stages: 1,
            ..RplConfig::default()
        };
        let p = build_parallel(&cfg, 2);
        let base = explore(&p, &ExplorerConfig::complete()).unwrap();
        let base_cost = base.architecture().expect("feasible").cost();
        for threads in [1usize, 2, 8] {
            for symmetry in [SymmetryConfig::default(), SymmetryConfig::off()] {
                let run = explore(
                    &p,
                    &ExplorerConfig {
                        threads,
                        symmetry,
                        ..ExplorerConfig::complete()
                    },
                )
                .unwrap();
                assert_eq!(
                    run.architecture().expect("feasible").cost().to_bits(),
                    base_cost.to_bits(),
                    "threads={threads} symmetry={symmetry:?}"
                );
            }
        }
    }

    #[test]
    fn both_lines_cost_twice_single_line() {
        let cfg = RplConfig {
            max_latency: 100.0,
            ..RplConfig::default()
        };
        let single = explore(&build(&cfg, RplLines::LineA), &ExplorerConfig::complete())
            .unwrap()
            .architecture()
            .unwrap()
            .cost();
        let both = explore(&build(&cfg, RplLines::Both), &ExplorerConfig::complete())
            .unwrap()
            .architecture()
            .unwrap()
            .cost();
        assert!((both - 2.0 * single).abs() < 1e-6);
    }
}
