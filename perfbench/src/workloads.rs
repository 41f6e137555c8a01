//! The three named workloads: inputs generated from a seed through
//! `crowdrl-sim`'s public generators, one run through a public entry
//! point, and the output checks every run must pass.
//!
//! All three are closed-loop batch jobs on simulated time: the load is set
//! by the input size, and throughput is reported at that size. A workload
//! seed expands into several independent instances (datasets, pools and
//! run seeds); reporting over all of them keeps one seed's luck, such as a
//! pool with unusually weak workers, from setting the figures.

use crowdrl_core::{CrowdRl, CrowdRlConfig, CrowdRlConfigBuilder};
use crowdrl_linalg::{pool, NumericMode};
use crowdrl_obs as obs;
use crowdrl_serve::{
    AsyncRuntime, ExecMode, QuarantineConfig, RunCheckpoint, RunControl, RunOutcome, ServeConfig,
    SupervisorConfig,
};
use crowdrl_service::{
    AdmissionPolicy, ProjectSpec, ProjectStatus, Service, ServiceConfig, ServiceOutcome,
};
use crowdrl_sim::{
    AnnotatorPool, DatasetSpec, FaultPlan, OutageWindow, PoolSpec, QualityDrift, SpeechSpec,
};
use crowdrl_types::rng::{derive_seed, seeded};
use crowdrl_types::{AnnotatorId, ClassId, Dataset};
use std::hint::black_box;
use std::time::Instant;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Paper,
    Tenants,
    Faulted,
}

const PAPER_OBJECTS: usize = 2344;
const TENANTS: usize = 16;
const TENANT_OBJECTS: usize = 500;
const TENANT_CAPACITY: usize = 12;
const FAULTED_OBJECTS: usize = 1000;
const CHECKPOINT_EVERY: usize = 8;

/// Independent instances one workload seed expands into.
pub const INSTANCES: usize = 10;

/// Streams derived from an instance seed.
const INPUT_STREAM: u64 = 0;
const RUN_STREAM: u64 = 1;
const FAULT_STREAM: u64 = 2;
const SAMPLING_STREAM: u64 = 3;

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Paper, Kind::Tenants, Kind::Faulted];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper => "paper",
            Kind::Tenants => "tenants",
            Kind::Faulted => "faulted",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Threads the workload runs on: the linalg pool width, and for the
    /// service also its `ExecMode` width.
    pub fn width(self) -> usize {
        match self {
            Kind::Paper | Kind::Faulted => 1,
            Kind::Tenants => 2,
        }
    }

    /// One line describing the generated inputs and how they run.
    pub fn shape(self) -> String {
        let k = INSTANCES;
        match self {
            Kind::Paper => format!(
                "{k} instances of: Speech12-like CP view, {PAPER_OBJECTS} objects x 200-d, \
                 3 workers + 2 experts, budget 1.3 x objects, default config; CrowdRl::run"
            ),
            Kind::Tenants => format!(
                "{k} instances of: {TENANTS} projects x {TENANT_OBJECTS} objects (8-d, 2 classes, \
                 separation 2.5, budget 1.5 x objects, batch 50, candidate cap 64, k 1, priority p % 3) \
                 over 1800 workers + 200 experts; capacity {TENANT_CAPACITY} under Queue; Service::run, \
                 ExecMode::WorkerPool {{ workers: 2 }}"
            ),
            Kind::Faulted => format!(
                "{k} instances of: Speech3-like CP view, {FAULTED_OBJECTS} objects x 200-d, \
                 20 workers (accuracy 0.70-0.85) + 4 experts, budget 1.3 x objects; faults: 5% no-show, \
                 10% straggler, 10% duplicate, outage [150, 200), workers 0 and 1 turn spammer at \
                 t=0 and t=300; quarantine, backoff 4, checkpoint every {CHECKPOINT_EVERY} refreshes \
                 encoded in memory; AsyncRuntime::run_with_checkpoints, ExecMode::SingleThread"
            ),
        }
    }

    /// Generate instance `index` of the workload seeded by `seed`, and
    /// construct its runtime.
    pub fn setup(self, seed: u64, index: usize) -> Result<Prepared, String> {
        let _span = obs::span("bench.setup");
        let seed = derive_seed(seed, index as u64);
        match self {
            Kind::Paper => paper_setup(seed),
            Kind::Tenants => tenants_setup(seed),
            Kind::Faulted => faulted_setup(seed),
        }
        .map_err(|e| format!("{} setup: {e}", self.name()))
    }
}

/// Generated inputs plus the constructed runtime, ready to run.
pub struct Prepared {
    run_seed: u64,
    job: Job,
}

enum Job {
    Paper {
        dataset: Dataset,
        pool: AnnotatorPool,
        crowdrl: Box<CrowdRl>,
    },
    Tenants {
        specs: Vec<ProjectSpec>,
        pool: AnnotatorPool,
        service: Box<Service>,
    },
    Faulted {
        dataset: Dataset,
        pool: AnnotatorPool,
        budget: f64,
        runtime: Box<AsyncRuntime>,
    },
}

/// What one run produced, reduced to what the metrics and checks need.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Final label per object (all projects concatenated), as class index.
    pub labels: Vec<Option<usize>>,
    /// Bits of each project's spend, in submission order.
    pub spend_bits: Vec<u64>,
    /// Objects whose final label equals the ground truth.
    pub correct: usize,
    /// Assignments dispatched to annotators.
    pub dispatched: usize,
    /// Answers delivered and charged.
    pub delivered: usize,
    /// Simulated time at which the last project finished; for the batch
    /// workflow, which has no clock, the number of labelling iterations.
    pub makespan_tu: f64,
    /// Checkpoints cut and encoded by the sink.
    pub checkpoints: usize,
    /// Total encoded checkpoint size, bytes.
    pub checkpoint_bytes: usize,
    /// Output-check failures; empty when the run is correct.
    pub problems: Vec<String>,
}

impl Summary {
    /// Account one project's labels and spend, checking one label per
    /// object and spend within budget.
    fn project(
        &mut self,
        name: &str,
        dataset: &Dataset,
        labels: &[Option<ClassId>],
        spent: f64,
        budget: f64,
    ) {
        if labels.len() != dataset.len() {
            self.problems.push(format!(
                "{name}: {} labels for {} objects",
                labels.len(),
                dataset.len()
            ));
        }
        let unlabelled = labels.iter().filter(|l| l.is_none()).count();
        if unlabelled > 0 {
            self.problems
                .push(format!("{name}: {unlabelled} objects left without a label"));
        }
        if !spent.is_finite() || spent > budget {
            self.problems
                .push(format!("{name}: spent {spent} over budget {budget}"));
        }
        self.correct += labels
            .iter()
            .enumerate()
            .filter(|(i, l)| *i < dataset.len() && **l == Some(dataset.truth(*i)))
            .count();
        self.labels
            .extend(labels.iter().map(|l| l.map(|c| c.index())));
        self.spend_bits.push(spent.to_bits());
    }

    fn counts(&mut self, dispatched: usize, delivered: usize) {
        if delivered > dispatched {
            self.problems.push(format!(
                "{delivered} answers delivered for {dispatched} dispatched"
            ));
        }
        self.dispatched = dispatched;
        self.delivered = delivered;
    }
}

/// Time `call` inside a `bench.run` span.
fn timed<T>(call: impl FnOnce() -> T) -> (T, f64) {
    let _span = obs::span("bench.run");
    let start = Instant::now();
    let out = call();
    (out, start.elapsed().as_secs_f64())
}

impl Prepared {
    /// One run through the workload's public entry point, then the output
    /// checks. Returns the summary and the wall seconds of the entry-point
    /// call alone; `Err` means the run itself failed.
    pub fn run(&self) -> Result<(Summary, f64), String> {
        let mut rng = seeded(self.run_seed);
        let mut summary = Summary::default();
        let wall = match &self.job {
            Job::Paper {
                dataset,
                pool,
                crowdrl,
            } => {
                let (outcome, wall) = timed(|| crowdrl.run(dataset, pool, &mut rng));
                let outcome = outcome.map_err(|e| format!("CrowdRl::run: {e}"))?;
                let _span = obs::span("bench.verify");
                summary.project(
                    "paper",
                    dataset,
                    &outcome.labels,
                    outcome.budget_spent,
                    crowdrl.config().budget,
                );
                // The batch platform answers every question it asks.
                summary.counts(outcome.total_answers, outcome.total_answers);
                summary.makespan_tu = outcome.iterations as f64;
                wall
            }
            Job::Tenants {
                specs,
                pool,
                service,
            } => {
                let (outcome, wall) = timed(|| service.run(specs, pool, &mut rng));
                let outcome = outcome.map_err(|e| format!("Service::run: {e}"))?;
                let _span = obs::span("bench.verify");
                check_tenants(specs, &outcome, &mut summary);
                wall
            }
            Job::Faulted {
                dataset,
                pool,
                budget,
                runtime,
            } => {
                let mut checkpoints = 0usize;
                let mut bytes = 0usize;
                let mut sink = |ckpt: RunCheckpoint| {
                    let _span = obs::span("bench.encode");
                    let text = ckpt.encode();
                    checkpoints += 1;
                    bytes += text.len();
                    black_box(text);
                    RunControl::Continue
                };
                let (outcome, wall) =
                    timed(|| runtime.run_with_checkpoints(dataset, pool, &mut rng, &mut sink));
                let outcome =
                    outcome.map_err(|e| format!("AsyncRuntime::run_with_checkpoints: {e}"))?;
                let RunOutcome::Completed(outcome) = outcome else {
                    return Err("run halted although the sink never asked".into());
                };
                let _span = obs::span("bench.verify");
                obs::counter_add("bench.checkpoint_bytes", bytes as u64);
                summary.project(
                    "faulted",
                    dataset,
                    &outcome.outcome.labels,
                    outcome.outcome.budget_spent,
                    *budget,
                );
                summary.counts(
                    outcome.metrics.dispatched,
                    outcome.metrics.answers_delivered,
                );
                summary.makespan_tu = outcome.metrics.sim_duration.as_f64();
                summary.checkpoints = checkpoints;
                summary.checkpoint_bytes = bytes;
                if checkpoints == 0 {
                    summary.problems.push("no checkpoint was cut".into());
                }
                wall
            }
        };
        Ok((summary, wall))
    }
}

fn check_tenants(specs: &[ProjectSpec], outcome: &ServiceOutcome, summary: &mut Summary) {
    if outcome.reports.len() != specs.len() {
        summary.problems.push(format!(
            "{} reports for {} projects",
            outcome.reports.len(),
            specs.len()
        ));
    }
    let mut dispatched = 0usize;
    let mut delivered = 0usize;
    for (spec, report) in specs.iter().zip(&outcome.reports) {
        let (Some(o), Some(m), ProjectStatus::Completed) =
            (&report.outcome, &report.metrics, report.status)
        else {
            summary.problems.push(format!(
                "{}: ended {:?} ({:?})",
                spec.name, report.status, report.error
            ));
            continue;
        };
        summary.project(
            &spec.name,
            &spec.dataset,
            &o.labels,
            o.budget_spent,
            spec.config.budget,
        );
        if m.answers_delivered > m.dispatched {
            summary.problems.push(format!(
                "{}: {} answers delivered for {} dispatched",
                spec.name, m.answers_delivered, m.dispatched
            ));
        }
        dispatched += m.dispatched;
        delivered += m.answers_delivered;
    }
    let agg = &outcome.aggregate;
    // Summed in submission order, like the service's own total.
    let project_sum: f64 = summary.spend_bits.iter().map(|b| f64::from_bits(*b)).sum();
    if agg.total_spent.to_bits() != project_sum.to_bits() {
        summary.problems.push(format!(
            "aggregate spend {} differs from the sum of project spends {project_sum}",
            agg.total_spent
        ));
    }
    if agg.dispatched != dispatched || agg.answers_delivered != delivered {
        summary.problems.push(format!(
            "aggregate dispatched/delivered {}/{} differ from the project sums {dispatched}/{delivered}",
            agg.dispatched, agg.answers_delivered
        ));
    }
    summary.counts(agg.dispatched, agg.answers_delivered);
    summary.makespan_tu = agg.sim_duration.as_f64();
}

fn reference_config(budget: f64) -> CrowdRlConfigBuilder {
    CrowdRlConfig::builder()
        .budget(budget)
        .numeric(NumericMode::Reference)
}

fn paper_setup(seed: u64) -> crowdrl_types::Result<Prepared> {
    let mut rng = seeded(derive_seed(seed, INPUT_STREAM));
    let dataset = SpeechSpec::speech12()
        .with_num_objects(PAPER_OBJECTS)
        .generate(&mut rng)?
        .cp;
    let pool = PoolSpec::new(3, 2).generate(2, &mut rng)?;
    let config = reference_config(1.3 * dataset.len() as f64).build()?;
    Ok(Prepared {
        run_seed: derive_seed(seed, RUN_STREAM),
        job: Job::Paper {
            dataset,
            pool,
            crowdrl: Box::new(CrowdRl::new(config)),
        },
    })
}

fn tenants_setup(seed: u64) -> crowdrl_types::Result<Prepared> {
    let mut rng = seeded(derive_seed(seed, INPUT_STREAM));
    let pool = PoolSpec::new(1800, 200).generate(2, &mut rng)?;
    let specs = (0..TENANTS)
        .map(|p| {
            let name = format!("tenant-{p}");
            let dataset = DatasetSpec::gaussian(name.clone(), TENANT_OBJECTS, 8, 2)
                .with_separation(2.5)
                .generate(&mut rng)?;
            let config = reference_config(1.5 * TENANT_OBJECTS as f64)
                .batch_per_iter(50)
                .candidate_cap(64)
                .assignment_k(1)
                .build()?;
            Ok(ProjectSpec::new(name, config, dataset).with_priority((p % 3) as u32))
        })
        .collect::<crowdrl_types::Result<Vec<_>>>()?;
    // Capacity below the project count: four projects wait in the queue
    // and are promoted mid-run.
    let service = Box::new(Service::new(
        ServiceConfig::default()
            .with_capacity(TENANT_CAPACITY)
            .with_admission(AdmissionPolicy::Queue)
            .with_mode(ExecMode::WorkerPool { workers: 2 }),
    )?);
    Ok(Prepared {
        run_seed: derive_seed(seed, RUN_STREAM),
        job: Job::Tenants {
            specs,
            pool,
            service,
        },
    })
}

fn faulted_setup(seed: u64) -> crowdrl_types::Result<Prepared> {
    let mut rng = seeded(derive_seed(seed, INPUT_STREAM));
    let dataset = SpeechSpec::speech3()
        .with_num_objects(FAULTED_OBJECTS)
        .generate(&mut rng)?
        .cp;
    // With 5 workers + 2 experts, whether quarantine happened to bench an
    // honest-but-weak worker decided the whole run (runs of one seed took
    // 0.5 s to 4.5 s). A larger pool of honest workers above the
    // quarantine threshold keeps the breakers busy with the two spammers
    // and the per-run cold-EM share steady.
    let pool = PoolSpec::new(20, 4)
        .with_worker_accuracy(0.70, 0.85)
        .generate(2, &mut rng)?;
    let budget = 1.3 * dataset.len() as f64;
    let config = reference_config(budget).build()?;
    let serve = ServeConfig {
        sampling_seed: derive_seed(seed, SAMPLING_STREAM),
        ..ServeConfig::default()
    }
    // Inline: under `WorkerPool` every refresh and sample batch is a
    // thread hand-off, and on a shared 2-vCPU host the same instance's wall
    // time moved by up to a quarter between runs.
    .with_mode(ExecMode::SingleThread)
    .with_faults(FaultPlan {
        seed: derive_seed(seed, FAULT_STREAM),
        no_show_rate: 0.05,
        straggler_rate: 0.10,
        duplicate_rate: 0.10,
        outages: vec![OutageWindow {
            start: 150.0,
            end: 200.0,
        }],
        drifts: vec![
            QualityDrift {
                annotator: AnnotatorId(0),
                at: 0.0,
            },
            QualityDrift {
                annotator: AnnotatorId(1),
                at: 300.0,
            },
        ],
        ..FaultPlan::default()
    })
    .with_supervisor(SupervisorConfig {
        backoff_base: 4.0,
        ..SupervisorConfig::default()
    })
    .with_quarantine(QuarantineConfig {
        enabled: true,
        ..QuarantineConfig::default()
    })
    .with_checkpoint_every(CHECKPOINT_EVERY);
    Ok(Prepared {
        run_seed: derive_seed(seed, RUN_STREAM),
        job: Job::Faulted {
            dataset,
            pool,
            budget,
            runtime: Box::new(AsyncRuntime::new(config, serve)),
        },
    })
}

/// Process-lifetime lazy initialisation the first run would otherwise pay:
/// SIMD feature detection and, above width 1, spawning the linalg pool's
/// workers. Sets the pool width and returns the seconds it took.
pub fn lazy_init(width: usize) -> f64 {
    let start = Instant::now();
    black_box(crowdrl_linalg::simd::simd_available());
    pool::set_threads(width);
    pool::run_chunks(width, |i| {
        black_box(i);
    });
    start.elapsed().as_secs_f64()
}
