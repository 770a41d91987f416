//! `SolveOptions::threads = 0` means every available core.
//!
//! The tracing sink is process-global, so this file holds a single test: no
//! other solve can run concurrently and emit `milp.wave` spans into it.

use contrarc_milp::{Cmp, LinExpr, Model, Outcome, Sense, SolveOptions};
use contrarc_obs::sinks::MemorySink;
use std::sync::Arc;

#[test]
fn zero_threads_solve_runs_speculative_waves_on_every_core() {
    if contrarc_par::available_parallelism() < 2 {
        eprintln!("skipped: one core, so threads = 0 is serial by definition");
        return;
    }
    // A knapsack that needs branching.
    let mut m = Model::new("knapsack");
    let vars: Vec<_> = (0..10).map(|i| m.add_binary(format!("x{i}"))).collect();
    let weight: LinExpr = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| LinExpr::term(v, 5.0 + ((i * 7) % 19) as f64))
        .sum();
    let value: LinExpr = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| LinExpr::term(v, 2.0 + ((i * 5) % 29) as f64))
        .sum();
    m.add_constr("cap", weight, Cmp::Le, 60.0).unwrap();
    m.set_objective(Sense::Maximize, value);
    let opts = SolveOptions {
        threads: 0,
        ..SolveOptions::default()
    };

    let sink = Arc::new(MemorySink::default());
    let outcome =
        contrarc_obs::with_sink(Arc::<MemorySink>::clone(&sink), || m.solve(&opts)).expect("solve");
    assert!(matches!(outcome, Outcome::Optimal { .. }), "{outcome:?}");
    let waves = sink
        .events()
        .iter()
        .filter(|e| e.name == "milp.wave" && e.kind.wire_name() == "close")
        .count();
    assert!(
        waves > 0,
        "a threads = 0 solve ran branch-and-bound serially"
    );
}
