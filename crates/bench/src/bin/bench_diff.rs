//! Compare two `BENCH_explore.json` reports with noise-aware thresholds —
//! the CI perf-regression gate.
//!
//! Usage:
//!
//! ```text
//! bench_diff [--tol-time X] [--tol-count X] [--abs-floor-ms N] \
//!            [--report path] <old.json> <new.json>
//! ```
//!
//! Metrics are gated by class, because their noise characteristics differ:
//!
//! * **times** (`wall_secs`, `milp_secs`, `refine_secs`, `cert_secs`) are
//!   machine- and load-dependent: a regression needs the new value to
//!   exceed `old · tol-time` (default 1.5×) **and** grow by more than the
//!   absolute floor (default 10 ms) — tiny phases fluctuating by
//!   microseconds never trip the gate.
//! * **counts** (`iterations`, `cuts_added`, `pivots`, `nodes`) are
//!   deterministic products of the exploration trajectory, so the
//!   tolerance is tight (default 1.1×) with no absolute floor: growing the
//!   search is an algorithmic regression, not noise. `pivots` also counts
//!   the speculative branch-and-bound prefetch, whose waves grow with the
//!   thread count, so it is deterministic only for a fixed number of worker
//!   threads: when the two runs' `effective_threads` differ (a `threads = 0`
//!   run on machines with different core counts), `pivots` is reported as
//!   incomparable and not gated. The other counts follow the committed
//!   search path, which is the same at every thread count.
//! * **`optimum`** is a correctness invariant: any drift beyond 1e-9 fails
//!   the diff regardless of tolerances.
//!
//! Runs are matched by `(case, threads)`; a case or run present in the old
//! report but missing from the new one is itself a regression (lost
//! coverage). Exit codes: 0 = pass, 1 = regression (or correctness drift),
//! 2 = usage / unreadable / malformed input. Identical inputs always pass.

use contrarc_obs::json::{parse, JsonValue};
use std::process::ExitCode;

/// Time-class metrics of one run, gated with relative tolerance + floor.
const TIME_METRICS: &[&str] = &["wall_secs", "milp_secs", "refine_secs", "cert_secs"];
/// Count-class metrics of one run, gated with tight relative tolerance.
const COUNT_METRICS: &[&str] = &["iterations", "cuts_added", "pivots", "nodes"];
/// Count-class metrics that include speculative work, so they are only
/// comparable between runs with the same `effective_threads`.
const THREAD_DEPENDENT_METRICS: &[&str] = &["pivots"];

struct Tolerances {
    /// Relative threshold for time-class metrics (new/old).
    tol_time: f64,
    /// Relative threshold for count-class metrics (new/old).
    tol_count: f64,
    /// Absolute floor in seconds a time-class metric must grow by before it
    /// can count as a regression.
    abs_floor_secs: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            tol_time: 1.5,
            tol_count: 1.1,
            abs_floor_secs: 0.010,
        }
    }
}

/// One compared metric.
struct Line {
    case: String,
    threads: String,
    metric: &'static str,
    old: f64,
    new: f64,
    verdict: Verdict,
}

#[derive(Clone, Copy, PartialEq)]
enum Verdict {
    Ok,
    Improved,
    Regression,
    Correctness,
    /// Not comparable (thread-dependent count at different thread counts).
    Incomparable,
}

impl Verdict {
    fn tag(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Correctness => "CORRECTNESS",
            Verdict::Incomparable => "incomparable",
        }
    }
}

/// Index a report: `(case, threads)` → run object, in document order.
fn index_runs(doc: &JsonValue) -> Result<Vec<(String, String, &JsonValue)>, String> {
    let JsonValue::Arr(cases) = doc.get("cases").ok_or("missing 'cases' array")? else {
        return Err("'cases' is not an array".to_owned());
    };
    let mut out = Vec::new();
    for case in cases {
        let name = case
            .get("case")
            .and_then(JsonValue::as_str)
            .ok_or("case without a 'case' name")?;
        let JsonValue::Arr(runs) = case.get("runs").ok_or("case without 'runs'")? else {
            return Err(format!("case {name}: 'runs' is not an array"));
        };
        for run in runs {
            let threads = run
                .get("threads")
                .and_then(JsonValue::as_num)
                .ok_or_else(|| format!("case {name}: run without 'threads'"))?;
            out.push((name.to_owned(), format!("{threads}"), run));
        }
    }
    Ok(out)
}

fn num(run: &JsonValue, key: &str) -> Option<f64> {
    run.get(key).and_then(JsonValue::as_num)
}

/// Compare old vs. new, producing one `Line` per gated metric.
fn diff(old: &JsonValue, new: &JsonValue, tol: &Tolerances) -> Result<Vec<Line>, String> {
    let old_runs = index_runs(old)?;
    let new_runs = index_runs(new)?;
    let mut lines = Vec::new();
    for (case, threads, old_run) in &old_runs {
        let Some((_, _, new_run)) = new_runs.iter().find(|(c, t, _)| c == case && t == threads)
        else {
            lines.push(Line {
                case: case.clone(),
                threads: threads.clone(),
                metric: "run",
                old: 1.0,
                new: 0.0,
                verdict: Verdict::Regression,
            });
            continue;
        };
        let mut push = |metric: &'static str, o: f64, n: f64, verdict: Verdict| {
            lines.push(Line {
                case: case.clone(),
                threads: threads.clone(),
                metric,
                old: o,
                new: n,
                verdict,
            });
        };
        for &metric in TIME_METRICS {
            let (Some(o), Some(n)) = (num(old_run, metric), num(new_run, metric)) else {
                continue;
            };
            let verdict = if n > o * tol.tol_time && n - o > tol.abs_floor_secs {
                Verdict::Regression
            } else if o > n * tol.tol_time && o - n > tol.abs_floor_secs {
                Verdict::Improved
            } else {
                Verdict::Ok
            };
            push(metric, o, n, verdict);
        }
        let same_threads = num(old_run, "effective_threads") == num(new_run, "effective_threads");
        for &metric in COUNT_METRICS {
            let (Some(o), Some(n)) = (num(old_run, metric), num(new_run, metric)) else {
                continue;
            };
            let verdict = if !same_threads && THREAD_DEPENDENT_METRICS.contains(&metric) {
                Verdict::Incomparable
            } else if n > o * tol.tol_count {
                Verdict::Regression
            } else if o > n * tol.tol_count {
                Verdict::Improved
            } else {
                Verdict::Ok
            };
            push(metric, o, n, verdict);
        }
        if let (Some(o), Some(n)) = (num(old_run, "optimum"), num(new_run, "optimum")) {
            let verdict = if (o - n).abs() > 1e-9 {
                Verdict::Correctness
            } else {
                Verdict::Ok
            };
            push("optimum", o, n, verdict);
        }
    }
    Ok(lines)
}

fn render(lines: &[Line], tol: &Tolerances) -> (String, bool) {
    let mut failed = false;
    let mut rows = Vec::new();
    for line in lines {
        if matches!(line.verdict, Verdict::Regression | Verdict::Correctness) {
            failed = true;
        }
        // Keep the report readable: print every non-ok line plus all
        // wall-clock comparisons (the headline numbers), skip unchanged
        // detail metrics.
        if line.verdict == Verdict::Ok && line.metric != "wall_secs" && line.metric != "optimum" {
            continue;
        }
        let ratio = if line.old == 0.0 {
            "-".to_owned()
        } else {
            format!("{:.3}", line.new / line.old)
        };
        rows.push(vec![
            line.case.clone(),
            line.threads.clone(),
            line.metric.to_owned(),
            format!("{:.6}", line.old),
            format!("{:.6}", line.new),
            ratio,
            line.verdict.tag().to_owned(),
        ]);
    }
    let mut out = format!(
        "bench_diff: tol-time {:.2}x (+{:.0}ms floor), tol-count {:.2}x, optimum 1e-9\n\n",
        tol.tol_time,
        tol.abs_floor_secs * 1000.0,
        tol.tol_count,
    );
    out.push_str(&contrarc::report::render_table(
        &[
            "case", "threads", "metric", "old", "new", "ratio", "verdict",
        ],
        &rows,
    ));
    let regressions = lines
        .iter()
        .filter(|l| matches!(l.verdict, Verdict::Regression | Verdict::Correctness))
        .count();
    let incomparable = lines
        .iter()
        .filter(|l| l.verdict == Verdict::Incomparable)
        .count();
    out.push_str(&format!(
        "\n{} metric(s) compared, {} regression(s), {} incomparable\n",
        lines.len() - incomparable,
        regressions,
        incomparable
    ));
    (out, failed)
}

struct Args {
    old: String,
    new: String,
    report: Option<String>,
    tol: Tolerances,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut tol = Tolerances::default();
    let mut report = None;
    let mut positional = Vec::new();
    let mut i = 0;
    let want = |argv: &[String], i: usize, flag: &str| -> Result<String, String> {
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--tol-time" => {
                let v = want(argv, i, "--tol-time")?;
                tol.tol_time = v.parse().map_err(|_| format!("invalid --tol-time '{v}'"))?;
                i += 2;
            }
            "--tol-count" => {
                let v = want(argv, i, "--tol-count")?;
                tol.tol_count = v
                    .parse()
                    .map_err(|_| format!("invalid --tol-count '{v}'"))?;
                i += 2;
            }
            "--abs-floor-ms" => {
                let v = want(argv, i, "--abs-floor-ms")?;
                let ms: f64 = v
                    .parse()
                    .map_err(|_| format!("invalid --abs-floor-ms '{v}'"))?;
                tol.abs_floor_secs = ms / 1000.0;
                i += 2;
            }
            "--report" => {
                report = Some(want(argv, i, "--report")?);
                i += 2;
            }
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            other => {
                positional.push(other.to_owned());
                i += 1;
            }
        }
    }
    if positional.len() != 2 {
        return Err(
            "usage: bench_diff [--tol-time X] [--tol-count X] [--abs-floor-ms N] \
             [--report path] <old.json> <new.json>"
                .to_owned(),
        );
    }
    let new = positional.pop().expect("two positionals");
    let old = positional.pop().expect("two positionals");
    Ok(Args {
        old,
        new,
        report,
        tol,
    })
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };
    let (old, new) = match (load(&args.old), load(&args.new)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };
    let lines = match diff(&old, &new, &args.tol) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };
    let (text, failed) = render(&lines, &args.tol);
    print!("{text}");
    if let Some(path) = &args.report {
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("bench_diff: cannot write report {path}: {e}");
        }
    }
    if failed {
        eprintln!("bench_diff: {} -> {}: REGRESSION", args.old, args.new);
        ExitCode::FAILURE
    } else {
        println!("bench_diff: {} -> {}: pass", args.old, args.new);
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(wall: f64, pivots: u64, optimum: f64) -> String {
        format!(
            concat!(
                "{{\"cores\": 4, \"cases\": [{{\"case\": \"rpl\", \"runs\": [",
                "{{\"threads\": 1, \"wall_secs\": {}, \"milp_secs\": 0.001, ",
                "\"iterations\": 28, \"cuts_added\": 30, \"pivots\": {}, ",
                "\"nodes\": 100, \"optimum\": {}}}]}}]}}"
            ),
            wall, pivots, optimum
        )
    }

    fn run_diff(old: &str, new: &str, tol: &Tolerances) -> (Vec<Line>, bool) {
        let lines = diff(&parse(old).unwrap(), &parse(new).unwrap(), tol).unwrap();
        let failed = render(&lines, tol).1;
        (lines, failed)
    }

    #[test]
    fn identical_reports_pass() {
        let r = report_with(1.0, 5000, 42.5);
        let (lines, failed) = run_diff(&r, &r, &Tolerances::default());
        assert!(!failed);
        assert!(lines.iter().all(|l| l.verdict == Verdict::Ok));
        assert!(lines.iter().any(|l| l.metric == "optimum"));
    }

    #[test]
    fn double_wall_clock_is_a_regression() {
        let old = report_with(1.0, 5000, 42.5);
        let new = report_with(2.0, 5000, 42.5);
        let (lines, failed) = run_diff(&old, &new, &Tolerances::default());
        assert!(failed, "2x slowdown must trip the 1.5x gate");
        assert!(lines
            .iter()
            .any(|l| l.metric == "wall_secs" && l.verdict == Verdict::Regression));
    }

    #[test]
    fn small_absolute_growth_is_noise_not_regression() {
        // 3x relative growth but only 6ms absolute: below the 10ms floor.
        let old = report_with(0.003, 5000, 42.5);
        let new = report_with(0.009, 5000, 42.5);
        let (_, failed) = run_diff(&old, &new, &Tolerances::default());
        assert!(!failed, "sub-floor time growth must not gate");
    }

    #[test]
    fn count_growth_gates_tightly_and_improvement_is_reported() {
        let old = report_with(1.0, 5000, 42.5);
        let new = report_with(1.0, 5600, 42.5);
        let (lines, failed) = run_diff(&old, &new, &Tolerances::default());
        assert!(failed, "12% pivot growth must trip the 1.1x count gate");
        assert!(lines
            .iter()
            .any(|l| l.metric == "pivots" && l.verdict == Verdict::Regression));
        let (lines, failed) = run_diff(&new, &old, &Tolerances::default());
        assert!(!failed, "improvements never gate");
        assert!(lines
            .iter()
            .any(|l| l.metric == "pivots" && l.verdict == Verdict::Improved));
    }

    /// `report_with`, with the run's `effective_threads` field set.
    fn report_on_threads(pivots: u64, nodes: u64, effective_threads: u32) -> String {
        report_with(1.0, pivots, 42.5)
            .replace(
                "\"threads\": 1,",
                &format!("\"threads\": 0, \"effective_threads\": {effective_threads},"),
            )
            .replace("\"nodes\": 100", &format!("\"nodes\": {nodes}"))
    }

    #[test]
    fn pivots_are_gated_only_at_equal_effective_threads() {
        let exact = Tolerances {
            tol_count: 1.0,
            ..Tolerances::default()
        };
        // Same effective thread count: one extra pivot is a changed path.
        let (lines, failed) = run_diff(
            &report_on_threads(5000, 100, 2),
            &report_on_threads(5001, 100, 2),
            &exact,
        );
        assert!(failed, "pivot growth at equal thread counts must gate");
        assert!(lines
            .iter()
            .any(|l| l.metric == "pivots" && l.verdict == Verdict::Regression));
        // Different effective thread counts: speculative pivots differ
        // legitimately, so they are reported but never gate.
        let (lines, failed) = run_diff(
            &report_on_threads(5000, 100, 1),
            &report_on_threads(5600, 100, 4),
            &exact,
        );
        assert!(
            !failed,
            "speculative pivots at other thread counts must not gate"
        );
        assert!(lines
            .iter()
            .any(|l| l.metric == "pivots" && l.verdict == Verdict::Incomparable));
        let (text, _) = render(&lines, &exact);
        assert!(text.contains("1 incomparable"), "{text}");
        // The committed search path is thread-independent: nodes still gate.
        let (lines, failed) = run_diff(
            &report_on_threads(5000, 100, 1),
            &report_on_threads(5000, 101, 4),
            &exact,
        );
        assert!(failed, "node growth gates at any thread count");
        assert!(lines
            .iter()
            .any(|l| l.metric == "nodes" && l.verdict == Verdict::Regression));
    }

    #[test]
    fn optimum_drift_is_a_correctness_failure() {
        let old = report_with(1.0, 5000, 42.5);
        let new = report_with(1.0, 5000, 42.5000001);
        let (lines, failed) = run_diff(&old, &new, &Tolerances::default());
        assert!(failed, "optimum drift is never tolerable");
        assert!(lines
            .iter()
            .any(|l| l.metric == "optimum" && l.verdict == Verdict::Correctness));
    }

    #[test]
    fn missing_run_is_lost_coverage() {
        let old = report_with(1.0, 5000, 42.5);
        let new = r#"{"cores": 4, "cases": []}"#;
        let (lines, failed) = run_diff(&old, new, &Tolerances::default());
        assert!(failed);
        assert!(lines
            .iter()
            .any(|l| l.metric == "run" && l.verdict == Verdict::Regression));
    }

    #[test]
    fn custom_tolerances_relax_the_gate() {
        let old = report_with(1.0, 5000, 42.5);
        let new = report_with(2.0, 5000, 42.5);
        let tol = Tolerances {
            tol_time: 4.0,
            ..Tolerances::default()
        };
        let (_, failed) = run_diff(&old, &new, &tol);
        assert!(!failed, "2x is fine under a 4x tolerance");
    }

    #[test]
    fn parse_args_flags() {
        let a = parse_args(&[
            "--tol-time".into(),
            "4.0".into(),
            "--abs-floor-ms".into(),
            "25".into(),
            "--report".into(),
            "out.txt".into(),
            "a.json".into(),
            "b.json".into(),
        ])
        .unwrap();
        assert_eq!(a.tol.tol_time, 4.0);
        assert_eq!(a.tol.abs_floor_secs, 0.025);
        assert_eq!(a.report.as_deref(), Some("out.txt"));
        assert_eq!((a.old.as_str(), a.new.as_str()), ("a.json", "b.json"));
        assert!(parse_args(&["one.json".into()]).is_err());
        assert!(parse_args(&["--bogus".into(), "a".into(), "b".into()]).is_err());
    }
}
