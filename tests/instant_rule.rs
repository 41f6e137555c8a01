//! The instant rule: every event at one simulated instant settles before
//! any watermark is checked. So once a project has refreshed at time
//! `t`, none of its deliveries, rejections or expiries at or before `t`
//! may follow in the trace — a refresh always sees everything its
//! instant delivered. Pinned for one-project runs (fault-free, and with
//! mixed faults plus backoff) and for a three-project service run.

use crowdrl::prelude::*;
use crowdrl::serve::{AsyncRuntime, SupervisorConfig, TraceEvent};
use crowdrl::sim::FaultPlan;
use crowdrl::types::rng::seeded;
use crowdrl::types::SimTime;
use std::collections::HashMap;

/// Assert the instant rule over a `(project, event)` trace.
fn assert_instant_rule(trace: &[(usize, TraceEvent)], what: &str) {
    let mut last_refresh: HashMap<usize, SimTime> = HashMap::new();
    let mut refreshes = 0usize;
    for (k, (project, event)) in trace.iter().enumerate() {
        match event {
            TraceEvent::Refreshed { at, .. } => {
                last_refresh.insert(*project, *at);
                refreshes += 1;
            }
            TraceEvent::Delivered { at, .. }
            | TraceEvent::Rejected { at, .. }
            | TraceEvent::Expired { at, .. } => {
                if let Some(refreshed) = last_refresh.get(project) {
                    assert!(
                        at > refreshed,
                        "{what}: trace entry {k} settles project {project} at {at}, \
                         after it already refreshed at {refreshed}"
                    );
                }
            }
            _ => {}
        }
    }
    assert!(refreshes > 1, "{what}: too few refreshes to test anything");
}

/// The golden-trace scenario: 80 Gaussian objects, 3 workers + 1 expert.
fn golden() -> (Dataset, AnnotatorPool) {
    let mut rng = seeded(0xD00D);
    let dataset = DatasetSpec::gaussian("golden", 80, 4, 2)
        .with_separation(2.5)
        .generate(&mut rng)
        .unwrap();
    let pool = PoolSpec::new(3, 1).generate(2, &mut rng).unwrap();
    (dataset, pool)
}

fn one_project(serve: ServeConfig) -> Vec<(usize, TraceEvent)> {
    let (dataset, pool) = golden();
    let config = CrowdRlConfig::builder().budget(220.0).build().unwrap();
    AsyncRuntime::new(config, serve)
        .run(&dataset, &pool, &mut seeded(78))
        .unwrap()
        .trace
        .into_iter()
        .map(|event| (0, event))
        .collect()
}

#[test]
fn a_one_project_run_settles_each_instant_before_refreshing() {
    assert_instant_rule(&one_project(ServeConfig::default()), "golden run");
}

#[test]
fn a_faulted_one_project_run_settles_each_instant_before_refreshing() {
    // The chaos suite's config: every stochastic fault class plus
    // retry backoff. Duplicates and batch expiries share instants.
    let serve = ServeConfig::default()
        .with_faults(FaultPlan {
            no_show_rate: 0.06,
            abandon_rate: 0.04,
            straggler_rate: 0.10,
            duplicate_rate: 0.10,
            ..FaultPlan::default()
        })
        .with_supervisor(SupervisorConfig {
            backoff_base: 4.0,
            ..SupervisorConfig::default()
        });
    assert_instant_rule(&one_project(serve), "faulted run");
}

#[test]
fn a_service_run_settles_each_instant_before_refreshing() {
    let mut rng = seeded(0xC0FFEE);
    let pool = PoolSpec::new(9, 3).generate(2, &mut rng).unwrap();
    let specs: Vec<ProjectSpec> = [(30usize, 90.0), (24, 72.0), (36, 108.0)]
        .iter()
        .enumerate()
        .map(|(p, &(size, budget))| {
            let dataset = DatasetSpec::gaussian(format!("svc{p}"), size, 4, 2)
                .with_separation(2.5)
                .generate(&mut rng)
                .unwrap();
            let config = CrowdRlConfig::builder().budget(budget).build().unwrap();
            ProjectSpec::new(format!("project-{p}"), config, dataset).with_priority((3 - p) as u32)
        })
        .collect();
    let config = ServiceConfig::default()
        .with_shards(3)
        .with_watermarks(8, 20.0);
    let outcome = Service::new(config)
        .unwrap()
        .run(&specs, &pool, &mut seeded(0xBEEF))
        .unwrap();
    assert_instant_rule(&outcome.trace, "three-project service run");
}
