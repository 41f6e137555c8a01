//! The single-run front end: one labelling project through the engine.
//!
//! [`AsyncRuntime`] runs one dataset with one [`ServeConfig`] as a
//! one-project, one-shard engine run (`ServiceConfig::one_project`):
//! capacity 1, epoch 0 (every round settles exactly one event instant),
//! and no annotator concurrency cap. Fault injection, supervisor backoff
//! and refresh-counted checkpoints are engine features, so a single run
//! and a multi-tenant service share one event loop, one checkpoint
//! format and one fault plan.

use crate::checkpoint::RunCheckpoint;
use crate::config::{ProjectSpec, ServeConfig, ServiceConfig};
use crate::event::TraceEvent;
use crate::metrics::{ServiceMetrics, ServiceOutcome};
use crate::service::{drive, CheckpointSink, Entry, RunControl, ServiceRunOutcome};
use crowdrl_core::{CrowdRlConfig, LabellingOutcome};
use crowdrl_obs as obs;
use crowdrl_sim::AnnotatorPool;
use crowdrl_types::{Dataset, Error, Result};
use rand::Rng;

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct AsyncOutcome {
    /// The labelling result, shaped exactly like the batch workflow's.
    pub outcome: LabellingOutcome,
    /// Service-level metrics.
    pub metrics: ServiceMetrics,
    /// The deterministic event trace.
    pub trace: Vec<TraceEvent>,
}

/// How a checkpoint-aware run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// The run finished normally.
    Completed(Box<AsyncOutcome>),
    /// A checkpoint sink requested a halt mid-run.
    Halted,
}

/// The asynchronous labelling runtime.
#[derive(Debug, Clone)]
pub struct AsyncRuntime {
    config: CrowdRlConfig,
    serve: ServeConfig,
}

impl AsyncRuntime {
    /// Pair a CrowdRL configuration with the service knobs.
    pub fn new(config: CrowdRlConfig, serve: ServeConfig) -> Self {
        Self { config, serve }
    }

    /// Label `dataset` with `pool` through the asynchronous service.
    ///
    /// `rng` seeds the per-annotator dynamics and the agent's private
    /// stream; annotator responses come from the per-assignment streams
    /// of [`sampling_seed`](ServeConfig::sampling_seed). Two calls with
    /// the same seeds produce identical traces and outcomes in *either*
    /// execution mode.
    pub fn run<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        rng: &mut R,
    ) -> Result<AsyncOutcome> {
        match self.launch(dataset, pool, rng, None, &mut |_| RunControl::Continue)? {
            RunOutcome::Completed(outcome) => Ok(*outcome),
            RunOutcome::Halted => Err(Error::ServiceFailure(
                "run halted although no sink requested it".into(),
            )),
        }
    }

    /// Like [`run`](Self::run), but hands every due checkpoint (see
    /// [`ServeConfig::checkpoint_every`]) to `sink`, which may halt the
    /// run. Feeding a halted run's last checkpoint to
    /// [`resume`](Self::resume) continues it bit-identically.
    pub fn run_with_checkpoints<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        rng: &mut R,
        sink: CheckpointSink<'_>,
    ) -> Result<RunOutcome> {
        self.launch(dataset, pool, rng, None, sink)
    }

    /// Continue a run from `checkpoint`. The caller must pass the same
    /// dataset, pool and an identically-seeded `rng` as the original run
    /// — the config fingerprint and state shapes are verified, and the
    /// resumed run replays the uninterrupted run's remaining trace bit
    /// for bit. `sink` works exactly as in
    /// [`run_with_checkpoints`](Self::run_with_checkpoints).
    pub fn resume<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        rng: &mut R,
        checkpoint: RunCheckpoint,
        sink: CheckpointSink<'_>,
    ) -> Result<RunOutcome> {
        self.launch(dataset, pool, rng, Some(checkpoint), sink)
    }

    /// Shared entry point: run the dataset as the engine's only project
    /// inside the `serve.run` envelope span.
    fn launch<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        rng: &mut R,
        checkpoint: Option<RunCheckpoint>,
        sink: CheckpointSink<'_>,
    ) -> Result<RunOutcome> {
        let config = ServiceConfig::one_project(self.serve.clone());
        let specs = [ProjectSpec::new(
            "run",
            self.config.clone(),
            dataset.clone(),
        )];
        obs::init_from_env();
        let run_span = obs::span("serve.run");
        if obs::enabled() {
            // Which kernels this host runs: the AVX2 Adam update and matmul
            // tiles, or the portable ones (bit-identical either way).
            obs::annotate("simd.kernel", crowdrl_linalg::simd::kernel_name());
        }
        let outcome = drive(
            &config,
            &specs,
            pool,
            rng,
            Some(sink),
            checkpoint,
            Entry::Run,
        )?;
        drop(run_span);
        let ServiceRunOutcome::Completed(outcome) = outcome else {
            return Ok(RunOutcome::Halted);
        };
        let ServiceOutcome { reports, trace, .. } = *outcome;
        let report = reports.into_iter().next().expect("one project, one report");
        let (Some(outcome), Some(metrics)) = (report.outcome, report.metrics) else {
            return Err(report.error.map_or_else(
                || Error::ServiceFailure("the run ended without an outcome".into()),
                Error::from,
            ));
        };
        obs::checkpoint();
        Ok(RunOutcome::Completed(Box::new(AsyncOutcome {
            outcome,
            metrics,
            trace: trace.into_iter().map(|(_, event)| event).collect(),
        })))
    }
}
