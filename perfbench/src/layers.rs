//! Traced run: the per-layer ledger.
//!
//! A layer replay repeats `Explorer::step` through the public calls it is
//! made of — `Solver::solve_with_state` (milp), `Architecture::decode`,
//! `refinement::check_candidate_all_cached` (refinement and contracts),
//! `certificate::apply_cuts` (certificates and graph matching) — and times
//! each call from outside. It carries what the explorer carries between
//! iterations: the objective floor, the warm start, the refinement cache,
//! the cut counter and the orbit group. Spans are kept in memory and
//! written at the end as JSONL in the schema `trace_report` reads; counter
//! deltas of the `milp.*`, `refine.*`, `vf2.*` and `sym.*` metrics are read
//! around each call. The replay's trajectory must equal an untraced
//! `Explorer` run's, or the run fails instead of publishing numbers.

use crate::e2e::{self, Ending, Trajectory};
use crate::workloads::{baseline_optimum, Reference, Workload, PAR_THREADS, THREADS};
use crate::{json_num, Metrics};
use contrarc::certificate::{apply_cuts, CutConfig};
use contrarc::encode::encode_problem2_sym;
use contrarc::refinement::check_candidate_all_cached;
use contrarc::Violation;
use contrarc::{sym, Architecture, Explorer, Problem, RefinementCache, RefinementConfig};
use contrarc_contracts::{EncodeOptions, RefinementChecker};
use contrarc_milp::Solver;
use contrarc_obs::metrics::{self, MetricsReport};
use contrarc_obs::sinks::event_to_jsonl;
use contrarc_obs::{Event, EventKind, Value};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Spans recorded in memory, in the order they opened and closed.
struct Recorder {
    epoch: Instant,
    run: u64,
    events: Vec<Event>,
    /// Open spans: id and open time in µs.
    open: Vec<(u64, u64)>,
    next_id: u64,
    thread: Arc<str>,
}

impl Recorder {
    fn new(run: u64) -> Self {
        Recorder {
            epoch: Instant::now(),
            run,
            events: Vec::new(),
            open: Vec::new(),
            next_id: 1,
            thread: Arc::from("main"),
        }
    }

    fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn event(&self, kind: EventKind, name: &'static str, span: u64, parent: u64) -> Event {
        Event {
            kind,
            name,
            span,
            parent,
            thread: Arc::clone(&self.thread),
            t_us: self.now_us(),
            dur_us: None,
            fields: Vec::new(),
        }
    }

    /// Open a span as a child of the innermost open one.
    fn open(&mut self, name: &'static str) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map_or(0, |&(p, _)| p);
        let mut ev = self.event(EventKind::SpanOpen, name, id, parent);
        ev.fields.push(("run", Value::U64(self.run)));
        self.open.push((id, ev.t_us));
        self.events.push(ev);
    }

    /// Close the innermost open span with `fields`.
    fn close(&mut self, name: &'static str, fields: Vec<(&'static str, Value)>) {
        let (id, start) = self.open.pop().expect("a span is open");
        let parent = self.open.last().map_or(0, |&(p, _)| p);
        let mut ev = self.event(EventKind::SpanClose, name, id, parent);
        ev.dur_us = Some(ev.t_us.saturating_sub(start));
        ev.fields = fields;
        ev.fields.push(("run", Value::U64(self.run)));
        self.events.push(ev);
    }

    /// Time `f` inside a span; returns its result and duration in seconds.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.open(name);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.close(name, Vec::new());
        (out, secs)
    }

    /// Attach fields to the most recently closed span.
    fn annotate(&mut self, fields: Vec<(&'static str, Value)>) {
        if let Some(ev) = self.events.last_mut() {
            ev.fields.splice(0..0, fields);
        }
    }

    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&event_to_jsonl(ev));
            out.push('\n');
        }
        out
    }
}

/// Counter delta between two registry snapshots.
fn delta(before: &MetricsReport, after: &MetricsReport, name: &str) -> u64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0))
}

/// One loop iteration of the layer replay: the convergence record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterRecord {
    /// Problem index within the workload.
    pub problem: usize,
    /// Iteration number (1-based).
    pub iteration: usize,
    /// Proven lower bound after this iteration's selection.
    pub lower_bound: f64,
    /// Certificate cuts added.
    pub cuts: usize,
    /// Model rows the selection solved.
    pub rows: usize,
    /// Model columns the selection solved.
    pub cols: usize,
    /// Branch-and-bound nodes of the selection.
    pub nodes: u64,
    /// Simplex pivots of the selection.
    pub pivots: u64,
    /// Seconds in candidate selection.
    pub select_s: f64,
    /// Seconds in refinement checking.
    pub refine_s: f64,
    /// Seconds in certificate generation.
    pub cert_s: f64,
}

impl IterRecord {
    /// Microseconds per pivot of this iteration's selection.
    #[must_use]
    pub fn us_per_pivot(&self) -> f64 {
        ratio(self.select_s * 1e6, self.pivots as f64)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"problem\":{},\"iteration\":{},\"lower_bound\":{},\"cuts\":{},\"rows\":{},\"cols\":{},\
             \"nodes\":{},\"pivots\":{},\"select_s\":{},\"refine_s\":{},\"cert_s\":{},\"us_per_pivot\":{}}}",
            self.problem,
            self.iteration,
            json_num(self.lower_bound),
            self.cuts,
            self.rows,
            self.cols,
            self.nodes,
            self.pivots,
            json_num(self.select_s),
            json_num(self.refine_s),
            json_num(self.cert_s),
            json_num(self.us_per_pivot())
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Layer totals of a traced run, summed over the workload's problems.
#[derive(Debug, Default)]
struct Ledger {
    build_s: f64,
    encode_s: f64,
    sym_s: f64,
    model_vars: usize,
    model_rows: usize,
    sym_rows: u64,
    select_s: f64,
    select_calls: u64,
    numerical_retries: u64,
    warm_hits: u64,
    warm_cold: u64,
    refactorizations: u64,
    /// Selection seconds and pivots of each problem's last selection.
    last_select_s: f64,
    last_pivots: u64,
    lp_rows_last: usize,
    decode_s: f64,
    refine_s: f64,
    path_checks: u64,
    cache_hits: u64,
    cache_misses: u64,
    cert_s: f64,
    cuts: usize,
    violations: usize,
    vf2_searches: u64,
    emb_total: u64,
    emb_enumerated: u64,
    loop_s: f64,
    records: Vec<IterRecord>,
}

/// Run the layer replay on one problem, mirroring `Explorer::step` with
/// the workload's configuration.
fn replay_layers(
    problem: &Problem,
    index: usize,
    workload: Workload,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> Result<Trajectory, String> {
    let config = workload.config(THREADS);
    let threads = config.threads;
    rec.open("bench.problem");

    let before = metrics::snapshot();
    let (enc, encode_s) = rec.span("bench.encode", || {
        encode_problem2_sym(problem, &config.symmetry)
    });
    let mut enc = enc.map_err(|e| format!("encoding failed: {e}"))?;
    ledger.encode_s += encode_s;
    ledger.sym_rows += delta(&before, &metrics::snapshot(), "sym.milp_rows");
    ledger.model_vars += enc.model.num_vars();
    ledger.model_rows += enc.model.num_constrs();
    let base_rows = enc.model.num_constrs();

    let ((matcher, _), sym_s) = rec.span("bench.sym", || {
        (
            sym::matcher_automorphisms(problem),
            sym::encoding_automorphisms(problem),
        )
    });
    ledger.sym_s += sym_s;
    let orbits = (config.symmetry.orbit_pruning && config.iso_pruning && !matcher.is_trivial())
        .then_some(matcher);

    // What `Explorer::new` configures: the exploration-wide thread count
    // for selection, serial LP solves inside the refinement checker.
    let mut solve_options = config.solve_options.clone();
    solve_options.threads = threads;
    let mut checker_options = solve_options.clone();
    checker_options.threads = 1;
    let checker = RefinementChecker::with_options(checker_options, EncodeOptions::default());
    let ref_config = RefinementConfig {
        compositional: config.compositional,
        max_paths: config.max_paths,
        threads,
    };
    let cut_config = CutConfig {
        iso_pruning: config.iso_pruning,
        dominance_widening: config.dominance_widening,
        threads,
    };
    let cache = RefinementCache::new();
    let mut warm = None;
    let mut floor: Option<f64> = None;
    let mut cut_seq = 0u32;
    let mut lower_bounds = Vec::new();
    let mut cuts = Vec::new();

    let loop_start = Instant::now();
    let ending = loop {
        if lower_bounds.len() >= config.max_iterations {
            break Ending::Capped;
        }
        let mut r = IterRecord {
            problem: index,
            iteration: lower_bounds.len() + 1,
            rows: enc.model.num_constrs(),
            cols: enc.model.num_vars(),
            ..IterRecord::default()
        };
        rec.open("bench.iteration");

        let mut options = solve_options.clone();
        options.objective_floor = floor;
        let before = metrics::snapshot();
        let (outcome, select_s) = rec.span("bench.select", || {
            Solver::new(options).solve_with_state(&enc.model, warm.as_ref())
        });
        let after = metrics::snapshot();
        let (outcome, state) = outcome.map_err(|e| format!("selection failed: {e}"))?;
        warm = state;
        let stats = outcome.stats();
        r.nodes = stats.nodes;
        r.pivots = stats.simplex_iterations;
        r.select_s = select_s;
        rec.annotate(vec![
            ("rows", Value::U64(r.rows as u64)),
            ("nodes", Value::U64(r.nodes)),
            ("pivots", Value::U64(r.pivots)),
        ]);
        ledger.select_s += select_s;
        ledger.select_calls += 1;
        ledger.numerical_retries += stats.numerical_retries;
        ledger.warm_hits += delta(&before, &after, "milp.warm_start_hits");
        ledger.warm_cold += delta(&before, &after, "milp.warm_start_cold_falls");
        ledger.refactorizations += delta(&before, &after, "milp.refactorizations");
        let solution = outcome.solution().ok_or("selection found no candidate")?;
        floor = Some(solution.objective());
        r.lower_bound = solution.objective();
        lower_bounds.push(r.lower_bound);

        let (arch, decode_s) = rec.span("bench.decode", || {
            Architecture::decode(problem, &enc, solution)
        });
        ledger.decode_s += decode_s;

        let before = metrics::snapshot();
        let (violations, refine_s) = rec.span("bench.refine", || {
            check_candidate_all_cached(problem, &arch, &ref_config, &checker, Some(&cache))
        });
        let after = metrics::snapshot();
        let checks = delta(&before, &after, "refine.path_checks");
        rec.annotate(vec![("path_checks", Value::U64(checks))]);
        r.refine_s = refine_s;
        ledger.refine_s += refine_s;
        ledger.path_checks += checks;
        ledger.cache_hits += delta(&before, &after, "refine.cache_hits");
        ledger.cache_misses += delta(&before, &after, "refine.cache_misses");
        let violations: Vec<Violation> =
            violations.map_err(|e| format!("refinement failed: {e}"))?;

        if violations.is_empty() {
            cuts.push(0);
            ledger.records.push(r);
            rec.close(
                "bench.iteration",
                vec![("outcome", Value::Str("optimal".into()))],
            );
            break Ending::Optimal(arch.cost());
        }

        let before = metrics::snapshot();
        let (added, cert_s) = rec.span("bench.cert", || {
            let mut added = 0;
            for v in &violations {
                added += apply_cuts(
                    problem,
                    &mut enc,
                    &arch,
                    v,
                    &cut_config,
                    orbits.as_ref(),
                    &mut cut_seq,
                )?;
            }
            Ok::<usize, contrarc_milp::SolveError>(added)
        });
        let after = metrics::snapshot();
        let added = added.map_err(|e| format!("certificate generation failed: {e}"))?;
        rec.annotate(vec![
            ("violations", Value::U64(violations.len() as u64)),
            ("cuts", Value::U64(added as u64)),
        ]);
        r.cuts = added;
        r.cert_s = cert_s;
        ledger.cert_s += cert_s;
        ledger.cuts += added;
        ledger.violations += violations.len();
        ledger.vf2_searches += delta(&before, &after, "vf2.searches");
        ledger.emb_total += delta(&before, &after, "sym.embeddings_total");
        ledger.emb_enumerated += delta(&before, &after, "sym.embeddings_enumerated");
        cuts.push(added);
        ledger.records.push(r);
        rec.close(
            "bench.iteration",
            vec![("outcome", Value::Str("pruned".into()))],
        );
    };
    ledger.loop_s += loop_start.elapsed().as_secs_f64();
    if let Some(last) = ledger.records.last() {
        ledger.last_select_s += last.select_s;
        ledger.last_pivots += last.pivots;
        ledger.lp_rows_last = ledger.lp_rows_last.max(last.rows);
    }
    rec.close(
        "bench.problem",
        vec![("iterations", Value::U64(lower_bounds.len() as u64))],
    );
    Ok(Trajectory {
        lower_bounds,
        cuts,
        ending,
        cut_rows: enc.model.num_constrs() - base_rows,
    })
}

/// An untraced `Explorer` run over all problems: the trajectories, the
/// seconds in `Explorer::new`, the seconds from first step to terminal
/// step, and the pivots charged to the explorers' budgets.
struct ExplorerRun {
    trajectories: Vec<Trajectory>,
    new_s: f64,
    explore_s: f64,
    pivots: u64,
}

fn explorer_run(
    problems: &[Problem],
    workload: Workload,
    threads: usize,
) -> Result<ExplorerRun, String> {
    let t = Instant::now();
    let mut explorers = problems
        .iter()
        .map(|p| Explorer::new(p, workload.config(threads)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("Explorer::new failed: {e}"))?;
    let new_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let trajectories = explorers
        .iter_mut()
        .map(e2e::drive)
        .collect::<Result<Vec<_>, _>>()?;
    let explore_s = t.elapsed().as_secs_f64();
    let pivots = explorers.iter().map(|e| e.budget().pivots_used()).sum();
    Ok(ExplorerRun {
        trajectories,
        new_s,
        explore_s,
        pivots,
    })
}

/// Run the traced ledger for `workload`. Returns the verdict, attempted and
/// failed counts, the per-layer metrics, and a detail line (JSON object).
#[must_use]
pub fn run_traced(
    workload: Workload,
    seed: u64,
    reference: &Reference,
) -> (bool, u64, u64, Metrics, String) {
    let result = catch_unwind(AssertUnwindSafe(|| traced(workload, seed, reference)))
        .unwrap_or_else(|_| Err("traced run panicked".to_owned()));
    match result {
        Ok((metrics, detail)) => (true, 1, 0, metrics, detail),
        Err(msg) => {
            eprintln!("perfbench: FAIL {} (traced): {msg}", workload.name());
            let mut detail = format!(
                "{{\"workload\":\"{}\",\"seed\":{seed},\"traced\":true,\"failure\":",
                workload.name()
            );
            contrarc_obs::json::escape_into(&mut detail, &msg);
            detail.push('}');
            (false, 1, 1, Metrics::new(), detail)
        }
    }
}

fn traced(
    workload: Workload,
    seed: u64,
    reference: &Reference,
) -> Result<(Metrics, String), String> {
    let capped = workload.cap().is_some();

    // Untraced runs first, with the registry off: the trajectory the layer
    // replay must reproduce, explore_s for the tracing overhead, and a run
    // at PAR_THREADS for the `par` metrics.
    metrics::set_metrics_enabled(false);
    let problems = workload.build(seed);
    let plain = explorer_run(&problems, workload, THREADS)?;
    let par = explorer_run(&problems, workload, PAR_THREADS)?;
    for (i, (a, b)) in plain.trajectories.iter().zip(&par.trajectories).enumerate() {
        if !a.same_path(b) {
            return Err(format!(
                "problem {i}: trajectory differs between thread counts"
            ));
        }
    }
    let baseline_s = match reference.baseline_s {
        Some(s) => s,
        None => {
            let mut s = 0.0;
            for p in &problems {
                s += baseline_optimum(p)?.1;
            }
            s
        }
    };

    // The traced layer replay.
    metrics::reset_metrics();
    metrics::set_metrics_enabled(true);
    let mut rec = Recorder::new(seed ^ (u64::from(std::process::id()) << 32));
    let mut ledger = Ledger::default();
    rec.open("bench.run");
    let (traced_problems, build_s) = rec.span("bench.build", || workload.build(seed));
    ledger.build_s = build_s;
    let mut trajectories = Vec::with_capacity(traced_problems.len());
    for (i, p) in traced_problems.iter().enumerate() {
        trajectories.push(replay_layers(p, i, workload, &mut rec, &mut ledger)?);
    }
    rec.close(
        "bench.run",
        vec![("workload", Value::Str(workload.name().into()))],
    );
    metrics::set_metrics_enabled(false);

    for (i, (traj, plain_traj)) in trajectories.iter().zip(&plain.trajectories).enumerate() {
        if !traj.same_path(plain_traj) {
            return Err(format!(
                "problem {i}: layer replay trajectory {traj:?} differs from Explorer {plain_traj:?}"
            ));
        }
        if let Some(msg) = traj.check(reference.costs[i], capped) {
            return Err(format!("problem {i}: {msg}"));
        }
    }

    let explore_traced = ledger.loop_s;
    let attributed = ledger.select_s + ledger.decode_s + ledger.refine_s + ledger.cert_s;
    let l = &ledger;
    let lp_pivots: u64 = l.records.iter().map(|r| r.pivots).sum();
    let metrics: Metrics = vec![
        ("build_s", l.build_s, "s"),
        ("encode_s", l.encode_s, "s"),
        ("sym_s", l.sym_s, "s"),
        ("model_vars", l.model_vars as f64, "count"),
        ("model_rows", l.model_rows as f64, "count"),
        ("sym_rows", l.sym_rows as f64, "count"),
        ("select_s", l.select_s, "s"),
        ("select_calls", l.select_calls as f64, "count"),
        (
            "bb_nodes",
            l.records.iter().map(|r| r.nodes).sum::<u64>() as f64,
            "count",
        ),
        ("lp_pivots", lp_pivots as f64, "count"),
        ("numerical_retries", l.numerical_retries as f64, "count"),
        (
            "us_per_pivot",
            ratio(l.select_s * 1e6, lp_pivots as f64),
            "us",
        ),
        (
            "us_per_pivot_last",
            ratio(l.last_select_s * 1e6, l.last_pivots as f64),
            "us",
        ),
        ("lp_rows_last", l.lp_rows_last as f64, "count"),
        (
            "warm_hit_rate",
            ratio(l.warm_hits as f64, (l.warm_hits + l.warm_cold) as f64),
            "ratio",
        ),
        ("refactorizations", l.refactorizations as f64, "count"),
        ("refine_s", l.refine_s, "s"),
        ("path_checks", l.path_checks as f64, "count"),
        (
            "cache_hit_rate",
            ratio(l.cache_hits as f64, (l.cache_hits + l.cache_misses) as f64),
            "ratio",
        ),
        (
            "refine_us_per_check",
            ratio(l.refine_s * 1e6, (l.cache_hits + l.cache_misses) as f64),
            "us",
        ),
        ("cert_s", l.cert_s, "s"),
        ("cuts", l.cuts as f64, "count"),
        (
            "cuts_per_violation",
            ratio(l.cuts as f64, l.violations as f64),
            "ratio",
        ),
        ("vf2_searches", l.vf2_searches as f64, "count"),
        (
            "embedding_reduction",
            if l.emb_enumerated == 0 {
                1.0
            } else {
                l.emb_total as f64 / l.emb_enumerated as f64
            },
            "ratio",
        ),
        (
            "par_speedup",
            ratio(plain.explore_s, par.explore_s),
            "ratio",
        ),
        (
            "spec_pivot_ratio",
            ratio(par.pivots as f64, plain.pivots as f64),
            "ratio",
        ),
        (
            "unattributed_s",
            (explore_traced - attributed).max(0.0),
            "s",
        ),
        (
            "trace_overhead",
            ratio(explore_traced, plain.explore_s),
            "ratio",
        ),
        ("baseline_s", baseline_s, "s"),
    ];

    let trace_path = write_trace(workload, seed, &rec);
    let mut detail = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"traced\":true,\
         \"explorer_new_s\":{},\"explore_s\":{},\"explore_s_traced\":{},\"explore_s_par\":{},\
         \"pivots\":{},\"pivots_par\":{},\"trace\":",
        workload.name(),
        json_num(plain.new_s),
        json_num(plain.explore_s),
        json_num(explore_traced),
        json_num(par.explore_s),
        plain.pivots,
        par.pivots,
    );
    match &trace_path {
        Some(p) => contrarc_obs::json::escape_into(&mut detail, p),
        None => detail.push_str("null"),
    }
    let records: Vec<String> = ledger.records.iter().map(IterRecord::to_json).collect();
    let _ = write!(detail, ",\"iterations\":[{}]}}", records.join(","));
    Ok((metrics, detail))
}

/// Write the spans to `perfbench/out/<workload>-<seed>.trace.jsonl`;
/// returns the path, or `None` (with a warning) when it cannot be written.
fn write_trace(workload: Workload, seed: u64, rec: &Recorder) -> Option<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-{seed}.trace.jsonl", workload.name()));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.to_jsonl()));
    match written {
        Ok(()) => Some(path.display().to_string()),
        Err(e) => {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarc_obs::json::validate_trace_line;
    use contrarc_systems::epn::{self, EpnConfig};
    use contrarc_systems::rpl::{self, RplConfig, RplLines};

    /// The layer replay and `Explorer` must take the same path.
    fn assert_replay_matches_explorer(problem: &Problem) {
        let plain = explorer_run(std::slice::from_ref(problem), Workload::Epn111, THREADS).unwrap();
        let mut rec = Recorder::new(1);
        let mut ledger = Ledger::default();
        let traj = replay_layers(problem, 0, Workload::Epn111, &mut rec, &mut ledger).unwrap();
        assert!(
            traj.same_path(&plain.trajectories[0]),
            "replay {traj:?} vs explorer {:?}",
            plain.trajectories[0]
        );
        assert_eq!(ledger.records.len(), traj.iterations());
        assert!(matches!(traj.ending, Ending::Optimal(_)));
    }

    #[test]
    fn replay_matches_explorer_on_rpl_default_both() {
        assert_replay_matches_explorer(&rpl::build(&RplConfig::default(), RplLines::Both));
    }

    #[test]
    fn replay_matches_explorer_on_epn_1_0_0() {
        assert_replay_matches_explorer(&epn::build(&EpnConfig::table2(1, 0, 0)));
    }

    #[test]
    fn recorded_spans_follow_the_trace_schema_and_nest() {
        let mut rec = Recorder::new(9);
        rec.open("bench.run");
        let ((), _) = rec.span("bench.select", || ());
        rec.annotate(vec![("pivots", Value::U64(3))]);
        rec.close("bench.run", Vec::new());
        let lines: Vec<_> = rec
            .to_jsonl()
            .lines()
            .map(|l| validate_trace_line(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1].name, "bench.select");
        assert_eq!(lines[1].parent, lines[0].span);
        assert_eq!(lines[2].ev, "close");
        assert_eq!(lines[3].parent, 0);
        assert!(rec.to_jsonl().contains("\"pivots\":3"));
        assert!(rec.to_jsonl().contains("\"run\":9"));
    }

    #[test]
    fn iteration_records_parse() {
        let r = IterRecord {
            iteration: 2,
            select_s: 0.5,
            pivots: 100,
            ..IterRecord::default()
        };
        assert_eq!(r.us_per_pivot(), 5000.0);
        let doc = contrarc_obs::json::parse(&r.to_json()).unwrap();
        assert_eq!(
            doc.get("us_per_pivot").and_then(|v| v.as_num()),
            Some(5000.0)
        );
    }
}
