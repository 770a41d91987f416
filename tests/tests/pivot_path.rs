//! Pins the simplex pivot path of a real exploration.
//!
//! The basis kernels (LU refactorization, FTRAN, BTRAN, pricing) are meant
//! to be exact rewrites of one another: a faster kernel must choose the
//! same pivots and visit the same branch-and-bound nodes. The per-select
//! node and pivot counts of a real exploration are a sensitive witness of
//! that path, so any kernel change that moves it fails here rather than
//! only showing up as a shifted benchmark. Two explorations are pinned:
//! Table II row (2,0,0), whose eta columns are about half dense, and three
//! parallel RPL lines, whose eta columns are hypersparse.

use contrarc::{Explorer, ExplorerConfig, Step};
use contrarc_obs::sinks::MemorySink;
use contrarc_obs::Value;
use contrarc_systems::epn::{self, EpnConfig};
use contrarc_systems::rpl::{self, RplConfig};
use std::collections::HashSet;
use std::sync::Arc;

/// `(nodes, pivots)` of each candidate-selection solve, in order. Other
/// `milp.solve` spans (the refinement layer's path checks) are skipped.
fn select_counts(sink: &MemorySink) -> Vec<(u64, u64)> {
    let field = |fields: &[(&str, Value)], key: &str| match fields.iter().find(|(k, _)| *k == key) {
        Some((_, Value::U64(v))) => *v,
        other => panic!("milp.solve span without a u64 '{key}': {other:?}"),
    };
    let events = sink.events();
    let selects: HashSet<u64> = events
        .iter()
        .filter(|e| e.name == "explore.select")
        .map(|e| e.span)
        .collect();
    events
        .iter()
        .filter(|e| {
            e.name == "milp.solve" && e.kind.wire_name() == "close" && selects.contains(&e.parent)
        })
        .map(|e| (field(&e.fields, "nodes"), field(&e.fields, "pivots")))
        .collect()
}

#[test]
fn epn_2_0_0_first_three_selects_keep_their_pivot_path() {
    let problem = epn::build(&EpnConfig::table2(2, 0, 0));
    let config = ExplorerConfig {
        threads: 1,
        ..ExplorerConfig::complete()
    };
    let sink = Arc::new(MemorySink::default());
    contrarc_obs::with_sink(Arc::<MemorySink>::clone(&sink), || {
        let mut explorer = Explorer::new(&problem, config).expect("explorer");
        for _ in 0..3 {
            let step = explorer.step().expect("step");
            assert!(
                matches!(step, Step::Pruned { .. }),
                "stopped early: {step:?}"
            );
        }
    });
    assert_eq!(
        select_counts(&sink),
        vec![(13, 1258), (39, 3350), (50, 4652)],
        "(nodes, pivots) per select moved: the basis kernels no longer \
         reproduce the pivot path"
    );
}

#[test]
fn rpl_three_parallel_lines_keep_their_pivot_path_to_the_optimum() {
    let problem = rpl::build_parallel(&RplConfig::default(), 3);
    let config = ExplorerConfig {
        threads: 1,
        ..ExplorerConfig::complete()
    };
    let sink = Arc::new(MemorySink::default());
    contrarc_obs::with_sink(Arc::<MemorySink>::clone(&sink), || {
        let mut explorer = Explorer::new(&problem, config).expect("explorer");
        loop {
            match explorer.step().expect("step") {
                Step::Pruned { .. } => {}
                Step::Optimal(arch) => {
                    assert_eq!(arch.cost(), 48.0);
                    break;
                }
                other => panic!("stopped before the optimum: {other:?}"),
            }
        }
    });
    assert_eq!(
        select_counts(&sink),
        vec![
            (1, 47),
            (1, 62),
            (1, 64),
            (1, 67),
            (1, 67),
            (1, 78),
            (33, 1778)
        ],
        "(nodes, pivots) per select moved: the basis kernels no longer \
         reproduce the pivot path"
    );
}
