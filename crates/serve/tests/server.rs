//! Behavioural tests of the job server without injected faults: completion
//! parity with direct exploration, admission control under overload,
//! cancellation of queued and running jobs, and drain semantics.

use contrarc::{explore, Exploration, ExplorerConfig, StopReason};
use contrarc_serve::{AdmissionError, IncumbentEvent, JobServer, JobSpec, JobStatus, ServerConfig};
use contrarc_systems::rpl::{build as build_rpl, RplConfig, RplLines};
use std::sync::{Arc, Condvar, Mutex};

/// A single RPL line with a latency budget tight enough to force pruning
/// iterations before the optimum is verified.
fn rpl_problem(max_latency: f64) -> contrarc::Problem {
    build_rpl(
        &RplConfig {
            max_latency,
            ..RplConfig::default()
        },
        RplLines::LineA,
    )
}

/// A gate the test threads and the worker callbacks use to rendezvous: the
/// incumbent callback parks on `open`, signalling `arrived` first so the
/// test knows a worker is inside a job.
#[derive(Default)]
struct Gate {
    state: Mutex<(bool, bool)>, // (arrived, open)
    cond: Condvar,
}

impl Gate {
    fn hold(self: &Arc<Self>) -> impl Fn(&IncumbentEvent) + Send + Sync {
        let gate = Arc::clone(self);
        move |_event| {
            let mut st = gate.state.lock().unwrap();
            st.0 = true;
            gate.cond.notify_all();
            while !st.1 {
                st = gate.cond.wait(st).unwrap();
            }
        }
    }

    fn wait_arrived(&self) {
        let mut st = self.state.lock().unwrap();
        while !st.0 {
            st = self.cond.wait(st).unwrap();
        }
    }

    fn open(&self) {
        let mut st = self.state.lock().unwrap();
        st.1 = true;
        self.cond.notify_all();
    }
}

#[test]
fn jobs_complete_with_results_identical_to_direct_exploration() {
    let problems = [rpl_problem(42.0), rpl_problem(60.0)];
    let direct: Vec<Exploration> = problems
        .iter()
        .map(|p| explore(p, &ExplorerConfig::complete()).unwrap())
        .collect();

    let events: Arc<Mutex<Vec<IncumbentEvent>>> = Arc::default();
    let sink = Arc::clone(&events);
    let server = JobServer::new(ServerConfig {
        workers: 2,
        on_incumbent: Some(Arc::new(move |e: &IncumbentEvent| {
            sink.lock().unwrap().push(e.clone());
        })),
        ..ServerConfig::default()
    });
    let ids: Vec<_> = problems
        .iter()
        .enumerate()
        .map(|(i, p)| {
            server
                .submit(JobSpec::new(format!("tenant-{i}"), p.clone()))
                .expect("admission")
        })
        .collect();

    for (id, reference) in ids.iter().zip(&direct) {
        let status = server.wait(*id).expect("job exists");
        let JobStatus::Done { result, recoveries } = status else {
            panic!("expected Done, got {status:?}");
        };
        assert_eq!(recoveries, 0, "no faults, no recoveries");
        let got = result.incumbent().expect("optimum found").cost();
        let want = reference.incumbent().expect("optimum found").cost();
        assert_eq!(got.to_bits(), want.to_bits(), "cost must be bit-identical");
        assert_eq!(
            result.lower_bound().unwrap().to_bits(),
            reference.lower_bound().unwrap().to_bits()
        );
        assert_eq!(result.stats().iterations, reference.stats().iterations);
        assert_eq!(result.stats().cuts_added, reference.stats().cuts_added);
    }

    // The incumbent stream saw each job's verified optimum as its last event.
    let events = events.lock().unwrap();
    for (id, reference) in ids.iter().zip(&direct) {
        let last = events
            .iter()
            .rfind(|e| e.job == *id)
            .expect("at least one incumbent event per job");
        assert!(last.verified, "terminal event carries the verified optimum");
        assert_eq!(
            last.cost.to_bits(),
            reference.incumbent().unwrap().cost().to_bits()
        );
    }
}

#[test]
fn overload_is_rejected_with_structured_error_never_a_hang() {
    let gate = Arc::new(Gate::default());
    let server = JobServer::new(ServerConfig {
        workers: 1,
        capacity: 1.0,
        queue_limit: 1.0,
        on_incumbent: Some(Arc::new(gate.hold())),
        ..ServerConfig::default()
    });
    // First job is claimed by the single worker and parked inside the
    // incumbent callback, so its weight provably stays in flight.
    let a = server.submit(JobSpec::new("a", rpl_problem(42.0))).unwrap();
    gate.wait_arrived();
    // Second job fills the queue allowance.
    let _b = server.submit(JobSpec::new("b", rpl_problem(42.0))).unwrap();
    // Third submission exceeds capacity + queue_limit: structured rejection.
    match server.submit(JobSpec::new("c", rpl_problem(42.0))) {
        Err(AdmissionError::Overloaded {
            requested,
            in_flight,
            limit,
        }) => {
            assert_eq!(requested, 1.0);
            assert_eq!(in_flight, 2.0);
            assert_eq!(limit, 2.0);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    gate.open();
    assert!(matches!(server.wait(a), Some(JobStatus::Done { .. })));
}

#[test]
fn oversized_and_invalid_weights_are_rejected_as_too_large() {
    let server = JobServer::new(ServerConfig {
        capacity: 4.0,
        ..ServerConfig::default()
    });
    for bad in [9.0, f64::NAN, f64::INFINITY, 0.0, -1.0] {
        match server.submit(JobSpec::new("w", rpl_problem(42.0)).with_weight(bad)) {
            Err(AdmissionError::TooLarge { capacity, .. }) => assert_eq!(capacity, 4.0),
            other => panic!("weight {bad}: expected TooLarge, got {other:?}"),
        }
    }
}

#[test]
fn cancel_running_job_degrades_to_partial_with_incumbent() {
    let gate = Arc::new(Gate::default());
    let server = JobServer::new(ServerConfig {
        workers: 1,
        on_incumbent: Some(Arc::new(gate.hold())),
        ..ServerConfig::default()
    });
    let id = server.submit(JobSpec::new("a", rpl_problem(42.0))).unwrap();
    // Park the worker inside the first (unverified) incumbent event, cancel
    // while it is provably mid-run, then let it continue: the next step
    // boundary must harvest a Partial instead of discarding the work.
    gate.wait_arrived();
    assert!(server.cancel(id));
    gate.open();
    let status = server.wait(id).expect("job exists");
    let JobStatus::Done { result, .. } = status else {
        panic!("expected Done, got {status:?}");
    };
    let Exploration::Partial {
        incumbent, reason, ..
    } = result
    else {
        panic!("expected Partial, got {result:?}");
    };
    assert!(matches!(reason, StopReason::Cancelled));
    assert!(
        incumbent.is_some(),
        "the harvested partial keeps the incumbent"
    );
}

#[test]
fn cancel_queued_job_and_drain_reject_further_work() {
    let gate = Arc::new(Gate::default());
    let server = JobServer::new(ServerConfig {
        workers: 1,
        capacity: 1.0,
        queue_limit: 4.0,
        on_incumbent: Some(Arc::new(gate.hold())),
        ..ServerConfig::default()
    });
    let a = server.submit(JobSpec::new("a", rpl_problem(42.0))).unwrap();
    gate.wait_arrived();
    let b = server.submit(JobSpec::new("b", rpl_problem(42.0))).unwrap();
    assert_eq!(server.queue_depth(), 1);
    assert!(server.cancel(b), "queued job cancels immediately");
    assert!(matches!(server.poll(b), Some(JobStatus::Cancelled)));
    assert!(!server.cancel(b), "terminal jobs cannot be re-cancelled");
    assert_eq!(server.queue_depth(), 0);

    gate.open();
    let statuses = server.drain();
    assert_eq!(statuses.len(), 2);
    assert!(matches!(
        statuses.iter().find(|(id, _)| *id == a).unwrap().1,
        JobStatus::Done { .. }
    ));
    assert!(matches!(
        statuses.iter().find(|(id, _)| *id == b).unwrap().1,
        JobStatus::Cancelled
    ));
    assert!(matches!(
        server.submit(JobSpec::new("late", rpl_problem(42.0))),
        Err(AdmissionError::Draining)
    ));

    // Terminal jobs can be evicted; unknown ids poll as None afterwards.
    assert!(server.take(a).is_some());
    assert!(server.poll(a).is_none());
}

#[test]
fn dropping_a_server_joins_every_idle_worker() {
    // Idle workers park on the wake condvar. Dropping the server while they
    // are between their shutdown check and that wait must still wake them;
    // a missed wakeup leaves `drop` joining a worker forever. Starting and
    // dropping servers back to back hits that window, and the rounds run on
    // a helper thread so a lost wakeup fails the test instead of hanging it.
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for _ in 0..5000 {
            drop(JobServer::new(ServerConfig {
                workers: 4,
                ..ServerConfig::default()
            }));
        }
        let _ = done.send(());
    });
    finished
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("a dropped server left a worker waiting for work");
}
