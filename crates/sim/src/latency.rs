//! Annotator response-time and availability models for the asynchronous
//! runtime.
//!
//! The batch simulator answers questions instantly; real crowd workers
//! answer minutes-to-hours later or not at all. `crowdrl-serve` drives its
//! discrete-event clock off this module: each dispatched question draws a
//! response latency from the annotator's [`LatencyModel`] and may be
//! dropped entirely with the annotator's unavailability probability
//! (modelling workers who accept a task and walk away — the reason the
//! runtime needs timeouts and requeues at all).
//!
//! Latencies are in the same abstract time units as
//! [`SimTime`]. Experts are modelled slower but
//! more reliable than workers, matching the platform folklore the paper's
//! asynchronous deployments describe.

use crate::annotators::AnnotatorPool;
use crowdrl_types::rng::standard_normal;
use crowdrl_types::{Error, Result, SimTime};
use rand::Rng;

/// Distribution of one annotator's response latency.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// Fixed latency — useful for tests and for degenerate "instant"
    /// annotators.
    Constant(f64),
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive), time units.
        lo: f64,
        /// Upper bound (exclusive), time units.
        hi: f64,
    },
    /// Exponential with the given mean — memoryless queueing behaviour.
    Exponential {
        /// Mean latency, time units.
        mean: f64,
    },
    /// Log-normal with the given location/scale of the underlying normal —
    /// the empirically observed shape of human task latencies (most
    /// answers quick, a long heavy tail).
    LogNormal {
        /// Mean of the underlying normal (of log-latency).
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
}

impl LatencyModel {
    /// Validate parameters.
    pub fn validate(&self) -> Result<()> {
        let ok = match self {
            LatencyModel::Constant(t) => t.is_finite() && *t >= 0.0,
            LatencyModel::Uniform { lo, hi } => {
                lo.is_finite() && hi.is_finite() && *lo >= 0.0 && hi > lo
            }
            LatencyModel::Exponential { mean } => mean.is_finite() && *mean > 0.0,
            LatencyModel::LogNormal { mu, sigma } => {
                mu.is_finite() && sigma.is_finite() && *sigma >= 0.0
            }
        };
        if ok {
            Ok(())
        } else {
            Err(Error::InvalidParameter(format!(
                "invalid latency model {self:?}"
            )))
        }
    }

    /// Draw one latency.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        let t = match self {
            LatencyModel::Constant(t) => *t,
            LatencyModel::Uniform { lo, hi } => rng.random_range(*lo..*hi),
            LatencyModel::Exponential { mean } => {
                // Inverse CDF; 1-u keeps the argument strictly positive.
                let u: f64 = rng.random();
                -mean * (1.0 - u).ln()
            }
            LatencyModel::LogNormal { mu, sigma } => (mu + sigma * standard_normal(rng)).exp(),
        };
        // All branches produce finite non-negative values for validated
        // parameters; clamp defensively anyway.
        SimTime::new(t.clamp(0.0, f64::MAX)).unwrap_or(SimTime::ZERO)
    }

    /// The distribution mean, time units (for reporting and watermark
    /// heuristics).
    pub fn mean(&self) -> f64 {
        match self {
            LatencyModel::Constant(t) => *t,
            LatencyModel::Uniform { lo, hi } => 0.5 * (lo + hi),
            LatencyModel::Exponential { mean } => *mean,
            LatencyModel::LogNormal { mu, sigma } => (mu + 0.5 * sigma * sigma).exp(),
        }
    }
}

/// One annotator's asynchronous behaviour: how fast they answer and how
/// often they silently never do.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotatorDynamics {
    /// Response-latency distribution.
    pub latency: LatencyModel,
    /// Probability a dispatched question is silently dropped (the
    /// annotator never answers; the assignment can only time out).
    pub drop_rate: f64,
}

impl AnnotatorDynamics {
    /// Validate fields.
    pub fn validate(&self) -> Result<()> {
        self.latency.validate()?;
        if !(0.0..=1.0).contains(&self.drop_rate) {
            return Err(Error::InvalidParameter(format!(
                "drop_rate must be in [0,1], got {}",
                self.drop_rate
            )));
        }
        Ok(())
    }
}

/// Generator for per-annotator dynamics mirroring [`PoolSpec`]'s shape:
/// one entry per annotator, workers first then experts, matching the pool
/// generated by [`PoolSpec::generate`].
///
/// [`PoolSpec`]: crate::annotators::PoolSpec
/// [`PoolSpec::generate`]: crate::annotators::PoolSpec::generate
#[derive(Debug, Clone)]
pub struct DynamicsSpec {
    /// Mean worker latency, time units.
    pub worker_mean_latency: f64,
    /// Mean expert latency (experts deliberate; default slower).
    pub expert_mean_latency: f64,
    /// Worker drop probability.
    pub worker_drop_rate: f64,
    /// Expert drop probability (experts are reliable; default lower).
    pub expert_drop_rate: f64,
}

impl Default for DynamicsSpec {
    fn default() -> Self {
        Self {
            worker_mean_latency: 10.0,
            expert_mean_latency: 30.0,
            worker_drop_rate: 0.05,
            expert_drop_rate: 0.01,
        }
    }
}

impl DynamicsSpec {
    /// Generate one [`AnnotatorDynamics`] per annotator in `pool`. Each
    /// annotator gets a log-normal latency whose mean is jittered ±25%
    /// around the tier mean, so annotators are individually distinguishable
    /// to the scheduler.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        pool: &AnnotatorPool,
        rng: &mut R,
    ) -> Result<Vec<AnnotatorDynamics>> {
        if !self.worker_mean_latency.is_finite()
            || !self.expert_mean_latency.is_finite()
            || self.worker_mean_latency <= 0.0
            || self.expert_mean_latency <= 0.0
        {
            return Err(Error::InvalidParameter(
                "mean latencies must be finite and positive".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.worker_drop_rate)
            || !(0.0..=1.0).contains(&self.expert_drop_rate)
        {
            return Err(Error::InvalidParameter(
                "drop rates must be in [0,1]".into(),
            ));
        }
        let sigma = 0.5; // latency spread within one annotator
        pool.profiles()
            .iter()
            .map(|p| {
                let (mean, drop) = if p.is_expert() {
                    (self.expert_mean_latency, self.expert_drop_rate)
                } else {
                    (self.worker_mean_latency, self.worker_drop_rate)
                };
                let jitter: f64 = rng.random_range(0.75..1.25);
                // Choose mu so the log-normal's mean is mean * jitter.
                let mu = (mean * jitter).ln() - 0.5 * sigma * sigma;
                let dynamics = AnnotatorDynamics {
                    latency: LatencyModel::LogNormal { mu, sigma },
                    drop_rate: drop,
                };
                dynamics.validate()?;
                Ok(dynamics)
            })
            .collect()
    }
}

/// Shared-pool availability: how many questions one annotator will hold
/// *concurrently*, across every project asking.
///
/// A single run never needed this — its own ledger already limits each
/// (object, annotator) pair to one live assignment. With many projects
/// sharing one pool, nothing else stops twenty projects from all
/// dispatching to the same fast cheap worker at once; the capacity is
/// the piece of annotator reality (a human answers a handful of
/// questions at a time) the multi-tenant broker arbitrates.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacitySpec {
    /// Max concurrent assignments per worker.
    pub worker_slots: usize,
    /// Max concurrent assignments per expert (experts deliberate; they
    /// hold fewer questions at a time).
    pub expert_slots: usize,
}

impl Default for CapacitySpec {
    fn default() -> Self {
        Self {
            worker_slots: 4,
            expert_slots: 2,
        }
    }
}

impl CapacitySpec {
    /// Validate: every annotator must be able to hold at least one
    /// question, or the broker could never grant anything.
    pub fn validate(&self) -> Result<()> {
        if self.worker_slots == 0 || self.expert_slots == 0 {
            return Err(Error::InvalidParameter(
                "annotator capacities must be at least 1".into(),
            ));
        }
        Ok(())
    }

    /// One capacity per annotator in `pool`, in profile order. Purely a
    /// function of the tier — capacity is a platform contract, not a
    /// behaviour to be jittered.
    pub fn generate(&self, pool: &AnnotatorPool) -> Result<Vec<usize>> {
        self.validate()?;
        Ok(pool
            .profiles()
            .iter()
            .map(|p| {
                if p.is_expert() {
                    self.expert_slots
                } else {
                    self.worker_slots
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotators::PoolSpec;
    use crowdrl_types::rng::seeded;

    #[test]
    fn validation_catches_bad_parameters() {
        assert!(LatencyModel::Constant(-1.0).validate().is_err());
        assert!(LatencyModel::Uniform { lo: 2.0, hi: 1.0 }
            .validate()
            .is_err());
        assert!(LatencyModel::Exponential { mean: 0.0 }.validate().is_err());
        assert!(LatencyModel::LogNormal {
            mu: f64::NAN,
            sigma: 1.0
        }
        .validate()
        .is_err());
        assert!(LatencyModel::Constant(0.0).validate().is_ok());
        assert!(AnnotatorDynamics {
            latency: LatencyModel::Constant(1.0),
            drop_rate: 1.5
        }
        .validate()
        .is_err());
    }

    #[test]
    fn validation_catches_non_finite_parameters() {
        assert!(LatencyModel::Constant(f64::NAN).validate().is_err());
        assert!(LatencyModel::Constant(f64::INFINITY).validate().is_err());
        assert!(LatencyModel::Uniform {
            lo: f64::NAN,
            hi: 1.0
        }
        .validate()
        .is_err());
        assert!(LatencyModel::Uniform {
            lo: 0.0,
            hi: f64::NAN
        }
        .validate()
        .is_err());
        assert!(LatencyModel::Exponential { mean: f64::NAN }
            .validate()
            .is_err());
        assert!(LatencyModel::Exponential { mean: -1.0 }.validate().is_err());
        assert!(LatencyModel::LogNormal {
            mu: 0.0,
            sigma: f64::NAN
        }
        .validate()
        .is_err());
        assert!(LatencyModel::LogNormal {
            mu: 0.0,
            sigma: -0.5
        }
        .validate()
        .is_err());
        assert!(AnnotatorDynamics {
            latency: LatencyModel::Constant(1.0),
            drop_rate: f64::NAN
        }
        .validate()
        .is_err());
        // The upper bound is exclusive, so a zero-width interval is
        // rejected too, same as an inverted one.
        assert!(LatencyModel::Uniform { lo: 2.0, hi: 2.0 }
            .validate()
            .is_err());
    }

    #[test]
    fn samples_match_distribution_means() {
        let mut rng = seeded(1);
        for model in [
            LatencyModel::Constant(5.0),
            LatencyModel::Uniform { lo: 2.0, hi: 8.0 },
            LatencyModel::Exponential { mean: 5.0 },
            LatencyModel::LogNormal {
                mu: 5.0f64.ln() - 0.125,
                sigma: 0.5,
            },
        ] {
            let n = 4000;
            let mean: f64 = (0..n).map(|_| model.sample(&mut rng).as_f64()).sum::<f64>() / n as f64;
            assert!(
                (mean - model.mean()).abs() < 0.5,
                "{model:?}: empirical {mean} vs {}",
                model.mean()
            );
        }
    }

    #[test]
    fn samples_are_never_negative() {
        let mut rng = seeded(2);
        let model = LatencyModel::LogNormal {
            mu: -3.0,
            sigma: 2.0,
        };
        for _ in 0..1000 {
            assert!(model.sample(&mut rng).as_f64() >= 0.0);
        }
    }

    #[test]
    fn spec_generates_per_annotator_dynamics() {
        let mut rng = seeded(3);
        let pool = PoolSpec::new(4, 2).generate(2, &mut rng).unwrap();
        let dynamics = DynamicsSpec::default().generate(&pool, &mut rng).unwrap();
        assert_eq!(dynamics.len(), 6);
        // Workers (first 4) faster and flakier than experts (last 2).
        for w in &dynamics[..4] {
            assert!(w.latency.mean() < 2.0 * 10.0);
            assert!((w.drop_rate - 0.05).abs() < 1e-12);
        }
        for e in &dynamics[4..] {
            assert!(e.latency.mean() > 30.0 * 0.5);
            assert!((e.drop_rate - 0.01).abs() < 1e-12);
        }
    }

    #[test]
    fn spec_rejects_bad_parameters() {
        let mut rng = seeded(4);
        let pool = PoolSpec::new(1, 1).generate(2, &mut rng).unwrap();
        let spec = DynamicsSpec {
            worker_mean_latency: 0.0,
            ..Default::default()
        };
        assert!(spec.generate(&pool, &mut rng).is_err());
        let spec = DynamicsSpec {
            expert_drop_rate: 2.0,
            ..Default::default()
        };
        assert!(spec.generate(&pool, &mut rng).is_err());
    }

    #[test]
    fn capacity_spec_is_per_tier_and_validated() {
        let mut rng = seeded(6);
        let pool = PoolSpec::new(3, 2).generate(2, &mut rng).unwrap();
        let caps = CapacitySpec::default().generate(&pool).unwrap();
        assert_eq!(caps, vec![4, 4, 4, 2, 2]);
        let bad = CapacitySpec {
            worker_slots: 0,
            ..Default::default()
        };
        assert!(bad.generate(&pool).is_err());
    }

    #[test]
    fn spec_rejects_non_finite_parameters() {
        let mut rng = seeded(5);
        let pool = PoolSpec::new(1, 1).generate(2, &mut rng).unwrap();
        for spec in [
            DynamicsSpec {
                worker_mean_latency: f64::NAN,
                ..Default::default()
            },
            DynamicsSpec {
                expert_mean_latency: f64::INFINITY,
                ..Default::default()
            },
            DynamicsSpec {
                worker_drop_rate: f64::NAN,
                ..Default::default()
            },
            DynamicsSpec {
                expert_drop_rate: -0.01,
                ..Default::default()
            },
        ] {
            assert!(
                spec.generate(&pool, &mut rng).is_err(),
                "degenerate spec accepted: {spec:?}"
            );
        }
    }
}
