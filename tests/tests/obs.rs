//! Integration tests for the observability subsystem: the JSONL wire schema
//! stays valid end-to-end, spans nest correctly with per-thread attribution
//! under the parallel engine, and the metrics registry agrees with the
//! exploration statistics it mirrors.
//!
//! The sink and metrics registries are process-global, so every test routes
//! through `with_sink` / `with_metrics`, which serialize installs against
//! each other and restore the previous state on exit.

use contrarc::{explore, ExplorerConfig, Problem};
use contrarc_obs::json::validate_trace_line;
use contrarc_obs::sinks::{JsonlSink, MemorySink};
use contrarc_systems::rpl::{build, RplConfig, RplLines};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The sink and metrics registries are process-global, and the metrics test
/// asserts exact counter equality — a concurrently running exploration from a
/// sibling test would pollute the registry. Every test takes this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn problem() -> Problem {
    build(&RplConfig::default(), RplLines::Both)
}

fn config(threads: usize) -> ExplorerConfig {
    ExplorerConfig {
        threads,
        ..ExplorerConfig::complete()
    }
}

#[test]
fn jsonl_trace_is_schema_valid_and_names_every_phase() {
    let _serial = serialize();
    let path =
        std::env::temp_dir().join(format!("contrarc_obs_schema_{}.jsonl", std::process::id()));
    let sink = JsonlSink::create(&path).expect("create trace file");
    contrarc_obs::with_sink(Arc::new(sink), || {
        explore(&problem(), &config(1)).expect("exploration failed");
        contrarc_obs::flush_sink();
    });

    let text = std::fs::read_to_string(&path).expect("read trace back");
    let _ = std::fs::remove_file(&path);
    assert!(!text.trim().is_empty(), "trace file is empty");

    let mut names = BTreeSet::new();
    let mut open = BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let rec =
            validate_trace_line(line).unwrap_or_else(|e| panic!("line {}: {e}: {line}", i + 1));
        names.insert(rec.name.clone());
        match rec.ev.as_str() {
            "open" => {
                assert!(open.insert(rec.span), "span id {} reused", rec.span);
            }
            "close" => {
                assert!(open.remove(&rec.span), "close without open: {line}");
                assert!(rec.dur_us.is_some(), "close without dur_us: {line}");
            }
            "instant" => {}
            other => panic!("unknown event kind {other}"),
        }
    }
    assert!(open.is_empty(), "unclosed spans: {open:?}");
    for expected in [
        "explore.iteration",
        "explore.select",
        "explore.refine",
        "refine.path",
        "milp.solve",
    ] {
        assert!(names.contains(expected), "no '{expected}' span in trace");
    }
}

#[test]
fn spans_nest_and_workers_attribute_per_thread() {
    let _serial = serialize();
    for threads in [1usize, 4] {
        let sink = Arc::new(MemorySink::default());
        let events = contrarc_obs::with_sink(Arc::<MemorySink>::clone(&sink), || {
            explore(&problem(), &config(threads)).expect("exploration failed");
            sink.events()
        });
        assert!(!events.is_empty(), "no events at threads={threads}");

        // Every non-root parent must refer to a span that was opened.
        let opened: BTreeSet<u64> = events
            .iter()
            .filter(|e| e.kind.wire_name() == "open")
            .map(|e| e.span)
            .collect();
        for e in &events {
            assert!(
                e.parent == 0 || opened.contains(&e.parent),
                "event '{}' at threads={threads} has dangling parent {}",
                e.name,
                e.parent
            );
        }

        // Worker-thread attribution: pool threads label themselves
        // `worker-{i}`; the serial run never fans out.
        let workers: BTreeSet<&str> = events
            .iter()
            .map(|e| e.thread.as_ref())
            .filter(|t| t.starts_with("worker-"))
            .collect();
        if threads == 1 {
            assert!(
                workers.is_empty(),
                "serial run attributed events to workers: {workers:?}"
            );
        } else {
            assert!(
                !workers.is_empty(),
                "parallel run never attributed an event to a worker thread"
            );
            // Worker events must still nest under a span from the
            // coordinating thread (the fan-out site's parent).
            let worker_spans_parented = events
                .iter()
                .filter(|e| e.thread.starts_with("worker-"))
                .all(|e| e.parent != 0);
            assert!(
                worker_spans_parented,
                "worker events must nest under the fan-out span"
            );
        }
    }
}

#[test]
fn metrics_registry_mirrors_exploration_stats() {
    let _serial = serialize();
    let (result, report) = contrarc_obs::metrics::with_metrics(|| {
        explore(&problem(), &config(1)).expect("exploration failed")
    });
    let stats = result.stats();
    assert!(!report.is_empty(), "no metrics recorded");

    assert_eq!(
        report.counter("explore.iterations"),
        Some(stats.iterations as u64),
        "iteration counter disagrees with ExplorationStats"
    );
    assert_eq!(
        report.counter("refine.cache_hits"),
        Some(stats.cache_hits),
        "cache-hit counter disagrees with ExplorationStats"
    );
    assert_eq!(
        report.counter("refine.cache_misses"),
        Some(stats.cache_misses),
        "cache-miss counter disagrees with ExplorationStats"
    );
    let path_checks = report
        .counter("refine.path_checks")
        .expect("refinement ran");
    assert!(path_checks > 0);
    let hist = report
        .histogram("refine.path_check_secs")
        .expect("path-check latency histogram present");
    assert_eq!(
        hist.count, path_checks,
        "latency histogram must see every path check"
    );
    assert!(report.counter("milp.nodes").unwrap_or(0) > 0);
}

#[test]
fn lp_work_counters_are_thread_count_invariant() {
    // The LP layer's work counters are emitted only for committed B&B
    // evaluations, so speculative prefetch at 4 threads leaves them as they
    // are at 1 thread.
    let _serial = serialize();
    let counters = |threads: usize| {
        let (_, report) = contrarc_obs::metrics::with_metrics(|| {
            explore(&problem(), &config(threads)).expect("exploration failed")
        });
        ["milp.refactorizations", "milp.eta_nnz", "milp.dj_updates"].map(|name| {
            report
                .counter(name)
                .unwrap_or_else(|| panic!("counter '{name}' never emitted"))
        })
    };
    let serial = counters(1);
    assert!(serial.iter().all(|&n| n > 0), "{serial:?}");
    assert_eq!(counters(4), serial);
}

#[test]
fn live_gauges_are_populated_and_thread_count_invariant() {
    let _serial = serialize();
    let run = |threads: usize| {
        let (result, report) = contrarc_obs::metrics::with_metrics(|| {
            explore(&problem(), &config(threads)).expect("exploration failed")
        });
        (result, report)
    };
    let (result_1, report_1) = run(1);
    for name in ["milp.frontier", "explore.cut_pool", "refine.cache_entries"] {
        let g = report_1
            .gauge(name)
            .unwrap_or_else(|| panic!("gauge '{name}' never set during exploration"));
        assert!(g.max > 0, "gauge '{name}' never rose above zero");
    }
    // Cut-pool and cache gauges end at the values the statistics imply.
    assert_eq!(
        report_1.gauge("explore.cut_pool").unwrap().value,
        result_1.stats().cuts_added as i64,
        "final cut-pool gauge disagrees with cuts_added"
    );
    // Gauges are set only at serial commit points, so value and high-water
    // mark are identical for every thread count.
    let (_, report_4) = run(4);
    for name in ["milp.frontier", "explore.cut_pool", "refine.cache_entries"] {
        let (g1, g4) = (report_1.gauge(name).unwrap(), report_4.gauge(name).unwrap());
        assert_eq!(
            g1.value, g4.value,
            "gauge '{name}' value differs at threads=4"
        );
        assert_eq!(
            g1.max, g4.max,
            "gauge '{name}' high-water differs at threads=4"
        );
    }
}

#[test]
fn exploration_is_unchanged_with_metrics_sampler_live() {
    let _serial = serialize();
    // Sinks (and samplers) observe, never steer: an exploration sampled at a
    // fast interval must produce bit-identical results to an unsampled one.
    let (baseline, _) =
        contrarc_obs::metrics::with_metrics(|| explore(&problem(), &config(4)).unwrap());
    let path =
        std::env::temp_dir().join(format!("contrarc_obs_sampled_{}.jsonl", std::process::id()));
    let (sampled, _) = contrarc_obs::metrics::with_metrics(|| {
        let sampler = contrarc_obs::export::MetricsSampler::create(
            std::time::Duration::from_millis(1),
            &path,
        )
        .expect("create sampler output");
        let result = explore(&problem(), &config(4)).unwrap();
        sampler.stop();
        result
    });
    assert_eq!(
        baseline.architecture().map(|a| a.cost().to_bits()),
        sampled.architecture().map(|a| a.cost().to_bits()),
        "sampler changed the optimum"
    );
    assert_eq!(baseline.stats().iterations, sampled.stats().iterations);
    assert_eq!(baseline.stats().cuts_added, sampled.stats().cuts_added);
    assert_eq!(baseline.stats().cache_hits, sampled.stats().cache_hits);

    // And the samples themselves are well-formed: parseable JSON with a
    // strictly increasing sequence number.
    let text = std::fs::read_to_string(&path).expect("read samples back");
    let _ = std::fs::remove_file(&path);
    let mut last_seq = -1i64;
    for line in text.lines() {
        let doc = contrarc_obs::json::parse(line).expect("sample line is valid JSON");
        let seq = doc.get("seq").and_then(|v| v.as_num()).expect("seq") as i64;
        assert!(seq > last_seq, "sample seq must be strictly increasing");
        last_seq = seq;
        assert!(doc.get("metrics").is_some(), "sample carries the registry");
    }
    assert!(
        last_seq >= 1,
        "sampler must write at least first + final samples"
    );
}

#[test]
fn metrics_disabled_outside_with_metrics_scope() {
    let _serial = serialize();
    let ((), report) = contrarc_obs::metrics::with_metrics(|| {});
    assert!(report.is_empty(), "empty closure must record nothing");
    // Outside a scope these are no-ops; nothing to assert beyond "no panic",
    // but the call must be safe from test threads.
    contrarc_obs::metrics::counter_add("obs.test.orphan", 1);
}
