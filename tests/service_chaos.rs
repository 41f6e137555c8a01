//! Chaos tests for the multi-tenant service: tenant-isolated fault
//! containment (injected shard panics, scheduled aborts, project
//! outages) and crash-consistent checkpoint/restore.
//!
//! The two load-bearing properties:
//!
//! * **Isolation** — a faulted tenant fails alone. Healthy projects in
//!   a run containing a poisoned tenant finish *bit-identically* to a
//!   run that never admitted it.
//! * **Crash consistency** — kill-and-resume at any checkpoint boundary
//!   finishes bit-identically to the uninterrupted (still faulted) run,
//!   in both execution modes, and a checkpoint cut under one config
//!   refuses to restore under another.

use crowdrl::prelude::*;
use crowdrl::serve::RunControl;
use crowdrl::sim::{FaultPlan, OutageWindow, ProjectAbort, ProjectOutage, ProjectPanic};
use crowdrl::types::rng::seeded;

/// Labels rendered one character per object (class digit, `.` for
/// unlabelled).
fn render(labels: &[Option<ClassId>]) -> String {
    labels
        .iter()
        .map(|l| match l {
            Some(ClassId(c)) => char::from_digit(*c as u32, 10).unwrap_or('?'),
            None => '.',
        })
        .collect()
}

/// `n` small projects over a 12-annotator pool. Generation order is
/// pool first, then datasets in submission order, so `scenario(5)` and
/// `scenario(6)` agree exactly on the first five specs — that is what
/// lets the isolation test compare a faulted 6-project run against a
/// 5-project baseline.
fn scenario(n: usize) -> (Vec<ProjectSpec>, AnnotatorPool) {
    let mut rng = seeded(0xC0FFEE);
    let pool = PoolSpec::new(9, 3).generate(2, &mut rng).unwrap();
    let specs = (0..n)
        .map(|p| {
            let dataset = DatasetSpec::gaussian(format!("chaos{p}"), 18 + 2 * p, 4, 2)
                .with_separation(2.5)
                .generate(&mut rng)
                .unwrap();
            let config = CrowdRlConfig::builder()
                .budget(54.0 + 6.0 * p as f64)
                .build()
                .unwrap();
            ProjectSpec::new(format!("project-{p}"), config, dataset)
        })
        .collect();
    (specs, pool)
}

/// A tenant that is both flaky and doomed: every arrival it would
/// receive is deferred past the horizon, and its first shard advance
/// panics.
fn doomed_tenant_plan(project: usize) -> FaultPlan {
    FaultPlan {
        project_outages: vec![ProjectOutage {
            project,
            window: OutageWindow {
                start: 0.0,
                end: 1.0e5,
            },
        }],
        panics: vec![ProjectPanic { project, at: 1.0 }],
        ..FaultPlan::default()
    }
}

// ---------------------------------------------------------------------
// Isolation: a poisoned tenant fails alone.
// ---------------------------------------------------------------------

/// Capacity-1 service, six projects, the sixth poisoned (outage +
/// panic). Projects 0–4 run to completion before the poisoned one ever
/// activates, so their labels, spend, and trace must match a baseline
/// service that was only ever handed the five healthy specs.
#[test]
fn healthy_tenants_are_bit_identical_when_a_tenant_fails() {
    let config = ServiceConfig::default()
        .with_capacity(1)
        .with_shards(2)
        .with_watermarks(8, 20.0);

    let (healthy_specs, pool) = scenario(5);
    let baseline = Service::new(config.clone())
        .unwrap()
        .run(&healthy_specs, &pool, &mut seeded(0xBEEF))
        .unwrap();

    let (specs, pool) = scenario(6);
    let faulted = Service::new(config.with_faults(doomed_tenant_plan(5)))
        .unwrap()
        .run(&specs, &pool, &mut seeded(0xBEEF))
        .unwrap();

    // The poisoned tenant failed, alone, with a typed error and frozen
    // metrics but no outcome.
    assert_eq!(faulted.reports[5].status, ProjectStatus::Failed);
    assert!(matches!(
        faulted.reports[5].error,
        Some(ServiceError::ProjectFailed { project: 5, .. })
    ));
    assert!(faulted.reports[5].outcome.is_none());
    assert!(faulted.reports[5].metrics.is_some());
    assert_eq!(faulted.aggregate.failed, 1);

    // Every healthy tenant is bit-identical to the baseline.
    for p in 0..5 {
        let a = &baseline.reports[p];
        let b = &faulted.reports[p];
        assert_eq!(b.status, ProjectStatus::Completed, "project {p}");
        let (oa, ob) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
        assert_eq!(render(&oa.labels), render(&ob.labels), "project {p} labels");
        assert_eq!(
            oa.budget_spent.to_bits(),
            ob.budget_spent.to_bits(),
            "project {p} spend"
        );
        assert_eq!(a.metrics, b.metrics, "project {p} metrics");
    }

    // The faulted run's trace, restricted to the healthy tenants, is
    // the baseline trace.
    let healthy: Vec<_> = faulted.trace.iter().filter(|(p, _)| *p < 5).collect();
    assert_eq!(healthy, baseline.trace.iter().collect::<Vec<_>>());
}

// ---------------------------------------------------------------------
// Mid-run failure: containment, resource reclamation, FIFO promotion.
// ---------------------------------------------------------------------

fn concurrent_config(mode: ExecMode) -> ServiceConfig {
    ServiceConfig::default()
        .with_capacity(3)
        .with_shards(2)
        .with_mode(mode)
        .with_watermarks(8, 20.0)
        .with_faults(FaultPlan {
            panics: vec![ProjectPanic {
                project: 0,
                at: 1.0,
            }],
            ..FaultPlan::default()
        })
}

fn run_concurrent(mode: ExecMode) -> ServiceOutcome {
    let (specs, pool) = scenario(5);
    let service = Service::new(concurrent_config(mode)).unwrap();
    service.run(&specs, &pool, &mut seeded(0xBEEF)).unwrap()
}

/// Five projects on a capacity-3 service; project 0 panics in its first
/// shard advance. The panic is contained to project 0, its slot is
/// handed to the queued projects in FIFO order, and every other tenant
/// completes within budget.
#[test]
fn a_shard_panic_fails_only_its_project_and_promotes_the_queue_in_order() {
    let outcome = run_concurrent(ExecMode::SingleThread);

    assert_eq!(outcome.reports[0].status, ProjectStatus::Failed);
    match &outcome.reports[0].error {
        Some(ServiceError::ProjectFailed { project, reason }) => {
            assert_eq!(*project, 0);
            assert!(reason.contains("panicked"), "reason: {reason}");
        }
        other => panic!("expected ProjectFailed, got {other:?}"),
    }
    assert_eq!(outcome.aggregate.failed, 1);

    for (p, report) in outcome.reports.iter().enumerate().skip(1) {
        let budget = 54.0 + 6.0 * p as f64;
        assert_eq!(report.status, ProjectStatus::Completed, "project {p}");
        let spent = report.outcome.as_ref().unwrap().budget_spent;
        assert!(spent <= budget + 1e-9, "project {p} overspent: {spent}");
    }

    // FIFO promotion: queued projects 3 and 4 activate in submission
    // order (first trace appearance decides).
    let first = |p: usize| outcome.trace.iter().position(|(q, _)| *q == p).unwrap();
    assert!(first(3) < first(4), "queue promoted out of order");
}

/// The faulted concurrent run is bit-identical between `SingleThread`
/// and `WorkerPool` at several widths: panic containment and resource
/// reclamation happen at the same deterministic points regardless of
/// the thread cap.
#[test]
fn fault_containment_is_bit_identical_across_exec_modes() {
    let single = run_concurrent(ExecMode::SingleThread);
    for workers in [1usize, 2, 4] {
        let pooled = run_concurrent(ExecMode::WorkerPool { workers });
        assert_eq!(
            single.trace, pooled.trace,
            "trace diverged at width {workers}"
        );
        for (p, (a, b)) in single.reports.iter().zip(&pooled.reports).enumerate() {
            assert_eq!(a.status, b.status, "status diverged: project {p}");
            assert_eq!(a.metrics, b.metrics, "metrics diverged: project {p}");
            assert_eq!(
                a.outcome.as_ref().map(|o| render(&o.labels)),
                b.outcome.as_ref().map(|o| render(&o.labels)),
                "labels diverged: project {p}"
            );
        }
        assert_eq!(
            single.aggregate.total_spent.to_bits(),
            pooled.aggregate.total_spent.to_bits()
        );
        assert_eq!(single.aggregate.rounds, pooled.aggregate.rounds);
    }
}

/// A scheduled abort (tenant pulls the plug mid-run) fails the project
/// through the same containment path: typed error, frozen metrics,
/// everyone else completes.
#[test]
fn a_scheduled_abort_fails_only_its_project() {
    let (specs, pool) = scenario(3);
    let config = ServiceConfig::default()
        .with_capacity(3)
        .with_shards(2)
        .with_watermarks(8, 20.0)
        .with_faults(FaultPlan {
            aborts: vec![ProjectAbort {
                project: 1,
                at: 25.0,
            }],
            ..FaultPlan::default()
        });
    let outcome = Service::new(config)
        .unwrap()
        .run(&specs, &pool, &mut seeded(0xBEEF))
        .unwrap();

    assert_eq!(outcome.reports[1].status, ProjectStatus::Failed);
    match &outcome.reports[1].error {
        Some(ServiceError::ProjectFailed { project, reason }) => {
            assert_eq!(*project, 1);
            assert!(reason.contains("abort"), "reason: {reason}");
        }
        other => panic!("expected ProjectFailed, got {other:?}"),
    }
    assert!(outcome.reports[1].metrics.is_some());
    for p in [0usize, 2] {
        assert_eq!(
            outcome.reports[p].status,
            ProjectStatus::Completed,
            "project {p}"
        );
    }
}

// ---------------------------------------------------------------------
// Crash consistency: kill-and-resume is bit-identical.
// ---------------------------------------------------------------------

fn checkpointed_config(mode: ExecMode) -> ServiceConfig {
    concurrent_config(mode).with_checkpoint_every(2)
}

/// The uninterrupted faulted run, counting checkpoint cuts.
fn run_reference(mode: ExecMode) -> (ServiceOutcome, usize) {
    let (specs, pool) = scenario(5);
    let service = Service::new(checkpointed_config(mode)).unwrap();
    let mut cuts = 0usize;
    let mut sink = |_cp: RunCheckpoint| {
        cuts += 1;
        RunControl::Continue
    };
    let outcome = service
        .run_with_checkpoints(&specs, &pool, &mut seeded(0xBEEF), &mut sink)
        .unwrap();
    match outcome {
        ServiceRunOutcome::Completed(outcome) => (*outcome, cuts),
        ServiceRunOutcome::Halted => panic!("nothing asked for a halt"),
    }
}

/// Run until the `halt_at`-th checkpoint, then kill; returns the
/// encoded checkpoint.
fn run_killed(mode: ExecMode, halt_at: usize) -> String {
    let (specs, pool) = scenario(5);
    let service = Service::new(checkpointed_config(mode)).unwrap();
    let mut seen = 0usize;
    let mut encoded = String::new();
    let mut sink = |cp: RunCheckpoint| {
        seen += 1;
        if seen == halt_at {
            encoded = cp.encode();
            RunControl::Halt
        } else {
            RunControl::Continue
        }
    };
    let outcome = service
        .run_with_checkpoints(&specs, &pool, &mut seeded(0xBEEF), &mut sink)
        .unwrap();
    assert!(matches!(outcome, ServiceRunOutcome::Halted));
    assert!(!encoded.is_empty());
    encoded
}

/// Decode + resume to completion. The caller hands the rng over seeded
/// exactly as for the original run — the service re-derives the crowd
/// and per-project seeds from it, which is what makes the resume exact.
fn resume_from(mode: ExecMode, encoded: &str) -> ServiceOutcome {
    let checkpoint = RunCheckpoint::decode(encoded).unwrap();
    let (specs, pool) = scenario(5);
    let service = Service::new(checkpointed_config(mode)).unwrap();
    let mut sink = |_cp: RunCheckpoint| RunControl::Continue;
    let outcome = service
        .resume(&specs, &pool, &mut seeded(0xBEEF), checkpoint, &mut sink)
        .unwrap();
    match outcome {
        ServiceRunOutcome::Completed(outcome) => *outcome,
        ServiceRunOutcome::Halted => panic!("resume was never asked to halt"),
    }
}

fn assert_outcomes_identical(a: &ServiceOutcome, b: &ServiceOutcome, what: &str) {
    assert_eq!(a.trace, b.trace, "{what}: trace");
    assert_eq!(a.reports.len(), b.reports.len(), "{what}: report count");
    for (p, (ra, rb)) in a.reports.iter().zip(&b.reports).enumerate() {
        assert_eq!(ra.status, rb.status, "{what}: project {p} status");
        assert_eq!(ra.metrics, rb.metrics, "{what}: project {p} metrics");
        assert_eq!(ra.error, rb.error, "{what}: project {p} error");
        assert_eq!(
            ra.outcome.as_ref().map(|o| render(&o.labels)),
            rb.outcome.as_ref().map(|o| render(&o.labels)),
            "{what}: project {p} labels"
        );
        assert_eq!(
            ra.outcome.as_ref().map(|o| o.budget_spent.to_bits()),
            rb.outcome.as_ref().map(|o| o.budget_spent.to_bits()),
            "{what}: project {p} spend"
        );
    }
    assert_eq!(
        a.aggregate.total_spent.to_bits(),
        b.aggregate.total_spent.to_bits(),
        "{what}: total spent"
    );
    assert_eq!(a.aggregate.rounds, b.aggregate.rounds, "{what}: rounds");
    assert_eq!(a.aggregate.failed, b.aggregate.failed, "{what}: failed");
    assert_eq!(
        a.aggregate.sim_duration, b.aggregate.sim_duration,
        "{what}: sim clock"
    );
}

/// Kill at two different checkpoint boundaries and resume — the result
/// must be bit-identical to the uninterrupted faulted run. The kill and
/// the resume may even happen in *different* execution modes: the
/// fingerprint canonicalizes the mode away because both modes run the
/// identical algorithm.
#[test]
fn kill_and_resume_is_bit_identical_to_the_uninterrupted_run() {
    let (reference, cuts) = run_reference(ExecMode::SingleThread);
    assert!(
        cuts >= 3,
        "scenario too short to exercise resume ({cuts} cuts)"
    );

    for halt_at in [1usize, 3] {
        let encoded = run_killed(ExecMode::SingleThread, halt_at);
        let resumed = resume_from(ExecMode::SingleThread, &encoded);
        assert_outcomes_identical(&reference, &resumed, &format!("halt at cut {halt_at}"));
    }

    // Cross-mode: killed single-threaded, resumed on the worker pool,
    // and the other way around.
    let encoded = run_killed(ExecMode::SingleThread, 2);
    let resumed = resume_from(ExecMode::WorkerPool { workers: 2 }, &encoded);
    assert_outcomes_identical(&reference, &resumed, "single-thread kill, pooled resume");

    let encoded = run_killed(ExecMode::WorkerPool { workers: 2 }, 2);
    let resumed = resume_from(ExecMode::SingleThread, &encoded);
    assert_outcomes_identical(&reference, &resumed, "pooled kill, single-thread resume");
}

/// A checkpoint cut under one configuration refuses to restore under a
/// materially different one, with a typed fingerprint error.
#[test]
fn restore_rejects_a_checkpoint_from_a_different_configuration() {
    let encoded = run_killed(ExecMode::SingleThread, 1);
    let checkpoint = RunCheckpoint::decode(&encoded).unwrap();
    let (specs, pool) = scenario(5);

    let drifted =
        Service::new(checkpointed_config(ExecMode::SingleThread).with_capacity(4)).unwrap();
    let mut sink = |_cp: RunCheckpoint| RunControl::Continue;
    let err = drifted
        .resume(&specs, &pool, &mut seeded(0xBEEF), checkpoint, &mut sink)
        .unwrap_err();
    assert!(
        err.to_string().contains("fingerprint"),
        "wrong error: {err}"
    );
}

// ---------------------------------------------------------------------
// Overload protection.
// ---------------------------------------------------------------------

/// A bounded admission queue sheds the overflow with a typed error and
/// never lets a shed project touch the pool.
#[test]
fn a_bounded_admission_queue_sheds_overflow_with_a_typed_error() {
    let (specs, pool) = scenario(4);
    let config = ServiceConfig::default()
        .with_capacity(1)
        .with_shards(2)
        .with_watermarks(8, 20.0)
        .with_max_queue_depth(1);
    let outcome = Service::new(config)
        .unwrap()
        .run(&specs, &pool, &mut seeded(0xBEEF))
        .unwrap();

    for p in 0..2 {
        assert_eq!(
            outcome.reports[p].status,
            ProjectStatus::Completed,
            "project {p}"
        );
    }
    for p in 2..4 {
        assert_eq!(
            outcome.reports[p].status,
            ProjectStatus::Rejected,
            "project {p}"
        );
        assert!(matches!(
            outcome.reports[p].error,
            Some(ServiceError::AdmissionRejected { .. })
        ));
        assert!(outcome.reports[p].metrics.is_none());
    }
    assert_eq!(outcome.aggregate.shed, 2);
    assert_eq!(outcome.aggregate.rejected, 2);
    // Shed projects never dispatched anything.
    assert!(outcome.trace.iter().all(|(p, _)| *p < 2));
}

/// The promotion backpressure floor and the settlement-backlog bound
/// are liveness-safe: with both engaged, every admitted project still
/// completes (an empty active set always promotes, so the floor cannot
/// deadlock the queue).
#[test]
fn overload_knobs_do_not_starve_admitted_projects() {
    let (specs, pool) = scenario(4);
    let config = ServiceConfig::default()
        .with_capacity(2)
        .with_shards(2)
        .with_watermarks(8, 20.0)
        .with_min_free_slot_ratio(0.5)
        .with_max_settlement_backlog(6);
    let outcome = Service::new(config)
        .unwrap()
        .run(&specs, &pool, &mut seeded(0xBEEF))
        .unwrap();

    for (p, report) in outcome.reports.iter().enumerate() {
        assert_eq!(report.status, ProjectStatus::Completed, "project {p}");
    }
    assert_eq!(outcome.aggregate.failed, 0);
    assert_eq!(outcome.aggregate.rejected, 0);
}
