//! Service chaos demo: a multi-tenant run under tenant-scoped faults —
//! one project's shard panics, another suffers a platform outage, the
//! admission queue sheds an overflow submission — with crash-consistent
//! checkpoints cut at round boundaries. The run is killed at a
//! checkpoint, restored from the encoded snapshot, and the resumed run
//! is verified bit-identical to the uninterrupted one; the healthy
//! tenants complete as if nothing had happened around them.
//!
//! ```sh
//! cargo run --release --example service_chaos_demo
//! # inspect the trace afterwards:
//! cargo run --release --bin crowdrl-trace service_chaos_demo.jsonl
//! ```

use crowdrl::obs;
use crowdrl::obs::analyze::{read_trace, report};
use crowdrl::prelude::*;
use crowdrl::serve::RunControl;
use crowdrl::sim::{FaultPlan, OutageWindow, ProjectOutage, ProjectPanic};
use crowdrl::types::rng::seeded;

fn build_specs(projects: usize) -> Vec<ProjectSpec> {
    let mut rng = seeded(0xFA11_0001);
    (0..projects)
        .map(|p| {
            let dataset = DatasetSpec::gaussian(format!("tenant-{p}"), 24 + 2 * p, 4, 2)
                .with_separation(2.5)
                .generate(&mut rng)
                .expect("dataset");
            let config = CrowdRlConfig::builder()
                .budget(72.0 + 6.0 * p as f64)
                .build()
                .expect("config");
            ProjectSpec::new(format!("tenant-{p}"), config, dataset)
        })
        .collect()
}

/// The injected shard panic is caught and contained by the service;
/// keep the default hook from spraying its backtrace over the report.
/// Anything else panicking still prints normally.
fn silence_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let injected = payload
            .downcast_ref::<String>()
            .map(|s| s.starts_with("injected shard panic"))
            .or_else(|| {
                payload
                    .downcast_ref::<&str>()
                    .map(|s| s.starts_with("injected shard panic"))
            })
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));
}

fn main() {
    silence_injected_panics();
    let path =
        std::env::var("CROWDRL_TRACE").unwrap_or_else(|_| "service_chaos_demo.jsonl".to_string());
    obs::Recorder::to_file(&path)
        .expect("open trace file")
        .install();

    // Six tenants on a capacity-2 service with a 3-deep admission
    // queue: the sixth submission is shed. Tenant 0 is poisoned — its
    // first shard advance panics — and tenant 1 rides out a platform
    // outage that defers its deliveries.
    let specs = build_specs(6);
    let mut rng = seeded(0xFA11_0002);
    let pool = PoolSpec::new(9, 3).generate(2, &mut rng).expect("pool");
    let config = ServiceConfig::default()
        .with_capacity(2)
        .with_shards(2)
        .with_watermarks(8, 20.0)
        .with_max_queue_depth(3)
        .with_checkpoint_every(2)
        .with_faults(FaultPlan {
            project_outages: vec![ProjectOutage {
                project: 1,
                window: OutageWindow {
                    start: 20.0,
                    end: 60.0,
                },
            }],
            panics: vec![ProjectPanic {
                project: 0,
                at: 1.0,
            }],
            ..FaultPlan::default()
        });
    let service = Service::new(config).expect("service config");

    // The reference: one uninterrupted faulted run.
    let mut cuts = 0usize;
    let mut count = |_: RunCheckpoint| {
        cuts += 1;
        RunControl::Continue
    };
    let reference = match service
        .run_with_checkpoints(&specs, &pool, &mut seeded(0xFA11_0003), &mut count)
        .expect("uninterrupted run")
    {
        ServiceRunOutcome::Completed(outcome) => *outcome,
        ServiceRunOutcome::Halted => unreachable!("sink always continues"),
    };
    println!(
        "uninterrupted: {} rounds, {} checkpoints cut, {} failed, {} shed, spent {:.1}",
        reference.aggregate.rounds,
        cuts,
        reference.aggregate.failed,
        reference.aggregate.shed,
        reference.aggregate.total_spent,
    );
    for report in &reference.reports {
        let note = match &report.error {
            Some(e) => format!(" — {e}"),
            None => String::new(),
        };
        println!("  {:<10} {:?}{note}", report.name, report.status);
    }

    // Kill the same run at its second checkpoint; keep the snapshot as
    // the JSON string that would sit on disk.
    let mut seen = 0usize;
    let mut snapshot: Option<String> = None;
    let mut kill = |ckpt: RunCheckpoint| {
        seen += 1;
        if seen == 2 {
            snapshot = Some(ckpt.encode());
            RunControl::Halt
        } else {
            RunControl::Continue
        }
    };
    let halted = service
        .run_with_checkpoints(&specs, &pool, &mut seeded(0xFA11_0003), &mut kill)
        .expect("killed run");
    assert!(matches!(halted, ServiceRunOutcome::Halted));
    let snapshot = snapshot.expect("snapshot cut before the kill");
    println!(
        "\nkilled at checkpoint 2: snapshot {} bytes",
        snapshot.len()
    );

    // Restore and run to completion; the outcome must be bit-identical.
    let ckpt = RunCheckpoint::decode(&snapshot).expect("decode snapshot");
    let resumed = match service
        .resume(&specs, &pool, &mut seeded(0xFA11_0003), ckpt, &mut |_| {
            RunControl::Continue
        })
        .expect("resumed run")
    {
        ServiceRunOutcome::Completed(outcome) => *outcome,
        ServiceRunOutcome::Halted => unreachable!("sink always continues"),
    };
    assert_eq!(resumed.trace, reference.trace, "traces diverged");
    for (p, (a, b)) in reference.reports.iter().zip(&resumed.reports).enumerate() {
        assert_eq!(a.status, b.status, "status diverged for project {p}");
        assert_eq!(a.metrics, b.metrics, "metrics diverged for project {p}");
        assert_eq!(
            a.outcome.as_ref().map(|o| &o.labels),
            b.outcome.as_ref().map(|o| &o.labels),
            "labels diverged for project {p}"
        );
    }
    assert_eq!(
        resumed.aggregate.total_spent.to_bits(),
        reference.aggregate.total_spent.to_bits()
    );
    println!("restored run matches the uninterrupted run bit-for-bit");

    obs::shutdown();
    let trace = read_trace(&path).expect("read trace back");
    println!(
        "\ntrace written to {path} ({} events)\n",
        trace.events.len()
    );
    print!("{}", report(&trace));
}
