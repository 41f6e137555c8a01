//! Configuration of the asynchronous runtime.

use crate::supervisor::{QuarantineConfig, SupervisorConfig};
use crowdrl_sim::{DynamicsSpec, FaultPlan};
use crowdrl_types::{Error, Result};

/// How many threads a run may use. Both runtimes (this crate's
/// [`AsyncRuntime`](crate::AsyncRuntime) and the multi-tenant service) run
/// one implementation at every width: the mode is the
/// `crowdrl_linalg::pool` thread cap for the duration of the run, set and
/// restored by `pool::with_threads`. Every pooled section writes disjoint,
/// pre-indexed slots, so traces and outcomes are bit-identical across
/// modes and widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Pool width 1: everything on the calling thread — the reference
    /// execution.
    SingleThread,
    /// Pool width `workers`: the calling thread plus up to `workers - 1`
    /// pool threads (capped at `crowdrl_linalg::pool::MAX_THREADS`).
    WorkerPool {
        /// Thread cap for the run; must be at least 1.
        workers: usize,
    },
}

impl ExecMode {
    /// The pool thread cap this mode sets for a run.
    pub fn threads(self) -> usize {
        match self {
            ExecMode::SingleThread => 1,
            ExecMode::WorkerPool { workers } => workers,
        }
    }

    /// Reject `WorkerPool { workers: 0 }` — the one rule both runtimes'
    /// configs apply to the mode.
    pub fn validate(self) -> Result<()> {
        if self.threads() == 0 {
            return Err(Error::InvalidParameter(
                "worker pool must have at least one worker".into(),
            ));
        }
        Ok(())
    }
}

/// Knobs of the asynchronous labelling service.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulated time units before a dispatched question expires and its
    /// reservation is released.
    pub timeout: f64,
    /// Answer watermark: refresh truth inference after this many newly
    /// delivered answers.
    pub answer_watermark: usize,
    /// Time watermark: refresh after this much simulated time since the
    /// last refresh, even if the answer watermark was not reached
    /// (checked after each processed event).
    pub time_watermark: f64,
    /// How many timeouts an object may accumulate before the service
    /// abandons it to the classifier fallback.
    pub max_requeues: usize,
    /// Execution mode.
    pub mode: ExecMode,
    /// Annotator latency/availability models (per-tier means; per-
    /// annotator dynamics are generated from the run's RNG).
    pub dynamics: DynamicsSpec,
    /// Seed of the per-assignment sampling streams. Response label,
    /// latency and availability of assignment `i` are drawn from a stream
    /// derived from `(sampling_seed, i)`, which is what makes the
    /// worker-pool trace identical to the single-threaded one.
    pub sampling_seed: u64,
    /// Deterministic fault injection applied to sampled outcomes
    /// (no-shows, abandonment, stragglers, outages, duplicates, drift).
    /// The default plan injects nothing.
    pub faults: FaultPlan,
    /// Retry/backoff policy for timed-out assignments. Backoff is off by
    /// default.
    pub supervisor: SupervisorConfig,
    /// Annotator circuit-breaker policy. Off by default.
    pub quarantine: QuarantineConfig,
    /// Take a crash-consistent checkpoint every this many truth-inference
    /// refreshes; `0` (the default) never checkpoints.
    pub checkpoint_every: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            timeout: 60.0,
            answer_watermark: 12,
            time_watermark: 25.0,
            max_requeues: 3,
            mode: ExecMode::SingleThread,
            dynamics: DynamicsSpec::default(),
            sampling_seed: 0x5EED_CAFE,
            faults: FaultPlan::default(),
            supervisor: SupervisorConfig::default(),
            quarantine: QuarantineConfig::default(),
            checkpoint_every: 0,
        }
    }
}

impl ServeConfig {
    /// Validate the knobs.
    pub fn validate(&self) -> Result<()> {
        if !self.timeout.is_finite() || self.timeout <= 0.0 {
            return Err(Error::InvalidParameter(format!(
                "timeout must be positive, got {}",
                self.timeout
            )));
        }
        if self.answer_watermark == 0 {
            return Err(Error::InvalidParameter(
                "answer_watermark must be at least 1".into(),
            ));
        }
        if !self.time_watermark.is_finite() || self.time_watermark <= 0.0 {
            return Err(Error::InvalidParameter(format!(
                "time_watermark must be positive, got {}",
                self.time_watermark
            )));
        }
        self.mode.validate()?;
        self.faults.validate()?;
        self.supervisor.validate()?;
        self.quarantine.validate()?;
        Ok(())
    }

    /// Set the execution mode (builder-style).
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the timeout (builder-style).
    pub fn with_timeout(mut self, timeout: f64) -> Self {
        self.timeout = timeout;
        self
    }

    /// Set the watermarks (builder-style).
    pub fn with_watermarks(mut self, answers: usize, time: f64) -> Self {
        self.answer_watermark = answers;
        self.time_watermark = time;
        self
    }

    /// Set the fault plan (builder-style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Set the supervisor policy (builder-style).
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Set the quarantine policy (builder-style).
    pub fn with_quarantine(mut self, quarantine: QuarantineConfig) -> Self {
        self.quarantine = quarantine;
        self
    }

    /// Set the checkpoint cadence (builder-style).
    pub fn with_checkpoint_every(mut self, refreshes: usize) -> Self {
        self.checkpoint_every = refreshes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn bad_knobs_are_rejected() {
        assert!(ServeConfig {
            timeout: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ServeConfig {
            answer_watermark: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ServeConfig {
            time_watermark: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ServeConfig::default()
            .with_mode(ExecMode::WorkerPool { workers: 0 })
            .validate()
            .is_err());
    }

    #[test]
    fn exec_mode_is_a_pool_width() {
        assert_eq!(ExecMode::SingleThread.threads(), 1);
        assert_eq!(ExecMode::WorkerPool { workers: 3 }.threads(), 3);
        assert!(ExecMode::WorkerPool { workers: 1 }.validate().is_ok());
    }

    #[test]
    fn nested_policies_are_validated() {
        let faults = FaultPlan {
            no_show_rate: 2.0,
            ..FaultPlan::default()
        };
        assert!(ServeConfig::default()
            .with_faults(faults)
            .validate()
            .is_err());
        let sup = SupervisorConfig {
            backoff_base: f64::NAN,
            ..SupervisorConfig::default()
        };
        assert!(ServeConfig::default()
            .with_supervisor(sup)
            .validate()
            .is_err());
        let quar = QuarantineConfig {
            score_threshold: -0.1,
            ..QuarantineConfig::default()
        };
        assert!(ServeConfig::default()
            .with_quarantine(quar)
            .validate()
            .is_err());
    }

    #[test]
    fn builder_helpers_set_fields() {
        let c = ServeConfig::default()
            .with_mode(ExecMode::WorkerPool { workers: 4 })
            .with_timeout(30.0)
            .with_watermarks(5, 10.0);
        assert_eq!(c.mode, ExecMode::WorkerPool { workers: 4 });
        assert_eq!(c.timeout, 30.0);
        assert_eq!(c.answer_watermark, 5);
        assert_eq!(c.time_watermark, 10.0);
    }
}
