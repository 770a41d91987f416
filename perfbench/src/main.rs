//! Paper-scale exploration benchmark for ContrArc.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no sink installed and
//! the metrics registry off. `--trace 1` runs the per-layer ledger instead.
//! Either way the last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! carry the machine fingerprint, sample counts and spreads, and (traced)
//! the per-iteration convergence records. Any failed check prints
//! `"correct": false` and exits with code 1. See `perfbench/README.md`.

mod e2e;
mod layers;
mod machine;
mod stats;
mod workloads;

use machine::Fingerprint;
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::Workload;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Metrics of one run, in print order: name, value, unit.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The result line: the JSON object the benchmark prints last.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_num(*value)
        );
    }
    out.push_str("}}");
    out
}

/// A JSON number; non-finite values (which no metric should produce)
/// become `null` so the line still parses.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Summary of a sample set as a JSON object: median, quartiles, spread,
/// sample count, and the samples in the order they were taken.
fn samples_json(values: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(values);
    let raw: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
    format!(
        "{{\"median\":{},\"q1\":{},\"q3\":{},\"spread\":{},\"samples\":{},\"values\":[{}]}}",
        json_num(stats::median(values)),
        json_num(q1),
        json_num(q3),
        json_num(stats::spread(values)),
        values.len(),
        raw.join(",")
    )
}

fn run_untraced(args: &Args, reference: &[f64]) -> (bool, u64, u64, Metrics, String) {
    let w = args.workload;
    let m = e2e::measure(w, args.seed, args.seconds, reference);
    let ok = m.failed == 0;
    for msg in &m.failures {
        eprintln!("perfbench: FAIL {}: {msg}", w.name());
    }
    let mut detail = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"setup_s\":{}",
        w.name(),
        args.seed,
        samples_json(&m.setup_s),
    );
    let mut metrics = Metrics::new();
    if ok {
        // The anytime state at the terminal step: on the capped workload
        // this is where the run stood when the cap hit.
        let iterations: usize = m.first.iter().map(e2e::Trajectory::iterations).sum();
        let bound: f64 = m.first.iter().map(e2e::Trajectory::lower_bound).sum();
        let ref_sum: f64 = reference.iter().sum();
        let cut_rows: usize = m.first.iter().map(|t| t.cut_rows).sum();
        let _ = write!(
            detail,
            ",\"explore_s\":{},\"iterations\":{iterations},\"lower_bound_abs\":{},\
             \"reference\":{},\"cut_rows\":{cut_rows}",
            samples_json(&m.explore_s),
            json_num(bound),
            json_num(ref_sum),
        );
        metrics.push(("setup_s", stats::median(&m.setup_s), "s"));
        metrics.push(("explore_s", stats::median(&m.explore_s), "s"));
        metrics.push(("iterations", iterations as f64, "count"));
        metrics.push(("lower_bound", bound / ref_sum, "ratio"));
        metrics.push((
            "pass_frac",
            1.0 - m.failed as f64 / m.attempted as f64,
            "ratio",
        ));
        metrics.push((
            "peak_rss_mb",
            machine::peak_rss_mb().unwrap_or(f64::NAN),
            "MiB",
        ));
    }
    detail.push('}');
    (ok, m.attempted.max(1), m.failed, metrics, detail)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = Fingerprint::probe();
    println!("{{\"machine\":{}}}", fingerprint.to_json());
    let w = args.workload;
    let reference = match w.reference(&w.build(args.seed)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            println!("{}", result_line(false, 1, 1, &Metrics::new()));
            return ExitCode::from(1);
        }
    };
    let (ok, attempted, failed, metrics, detail) = if args.trace {
        layers::run_traced(w, args.seed, &reference)
    } else {
        run_untraced(&args, &reference.costs)
    };
    println!("{detail}");
    println!("{}", result_line(ok, attempted, failed, &metrics));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarc_obs::json::{parse, JsonValue};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload epn-1-1-1 --seed 4 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::Epn111,
                seed: 4,
                seconds: 12.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload epn-1-1-1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload epn-1-1-1 --seconds")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }

    #[test]
    fn result_line_parses_with_the_obs_json_reader() {
        let metrics: Metrics = vec![("setup_s", 0.8127, "s"), ("iterations", 32.0, "count")];
        let line = result_line(true, 3, 0, &metrics);
        let doc = parse(&line).unwrap();
        let JsonValue::Obj(pairs) = &doc else {
            panic!("not an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_num), Some(3.0));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(JsonValue::as_num), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(JsonValue::as_str), Some("s"));
    }

    #[test]
    fn sample_summaries_parse() {
        let doc = parse(&samples_json(&[1.0, 2.0, 3.0, 4.0])).unwrap();
        assert_eq!(doc.get("median").and_then(JsonValue::as_num), Some(2.5));
        assert_eq!(doc.get("samples").and_then(JsonValue::as_num), Some(4.0));
        assert_eq!(json_num(f64::NAN), "null");
    }
}
