//! Experiment runner: strategies × datasets × seeds, in parallel.
//!
//! Every (strategy, dataset, repetition) job gets its own RNG stream
//! derived from the master seed and runs as one chunk of the shared
//! `crowdrl_linalg` pool; results are collected and averaged in job
//! order, so every number is independent of thread count and scheduling.

use crate::metrics::{evaluate_labels, Metrics};
use crowdrl_baselines::{BaselineParams, LabellingStrategy};
use crowdrl_core::{CrowdRl, CrowdRlConfig};
use crowdrl_linalg::pool;
use crowdrl_obs as obs;
use crowdrl_sim::AnnotatorPool;
use crowdrl_types::rng::{derive_seed, seeded};
use crowdrl_types::{Dataset, Error, Result};
use std::time::Instant;

/// One experiment condition: a dataset, its annotator pool, and the shared
/// budget parameters.
pub struct Condition {
    /// The dataset to label.
    pub dataset: Dataset,
    /// The annotator pool.
    pub pool: AnnotatorPool,
    /// Budget and shared knobs.
    pub params: BaselineParams,
}

/// Aggregated result of one (strategy, condition) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Strategy display name.
    pub strategy: String,
    /// Dataset name.
    pub dataset: String,
    /// Mean metrics over repetitions.
    pub metrics: Metrics,
    /// Standard deviation of accuracy over repetitions.
    pub accuracy_std: f64,
    /// Mean budget spent.
    pub budget_spent: f64,
    /// Repetitions that completed.
    pub runs: usize,
}

/// A strategies × conditions experiment grid.
#[derive(Debug, Clone)]
pub struct ExperimentGrid {
    /// Independent repetitions per cell (different seeds).
    pub repetitions: usize,
    /// Master seed; every cell derives its own stream.
    pub master_seed: u64,
    /// Pool width for the grid's jobs (0 = the pool default:
    /// `CROWDRL_THREADS`, else available cores), capped at
    /// `crowdrl_linalg::pool::MAX_THREADS`.
    pub threads: usize,
}

impl Default for ExperimentGrid {
    fn default() -> Self {
        Self {
            repetitions: 3,
            master_seed: 0xC0FFEE,
            threads: 0,
        }
    }
}

impl ExperimentGrid {
    /// Run every strategy on every condition; returns one [`CellResult`]
    /// per (strategy, condition) in row-major order (strategy-major).
    pub fn run(
        &self,
        strategies: &[Box<dyn LabellingStrategy>],
        conditions: &[Condition],
    ) -> Result<Vec<CellResult>> {
        if self.repetitions == 0 {
            return Err(Error::InvalidParameter(
                "repetitions must be positive".into(),
            ));
        }
        obs::init_from_env();
        let grid_span = obs::span("eval.grid");
        let jobs: Vec<(usize, usize, usize)> = (0..strategies.len())
            .flat_map(|s| {
                (0..conditions.len())
                    .flat_map(move |c| (0..self.repetitions).map(move |r| (s, c, r)))
            })
            .collect();
        // One job per pool chunk, results in job order (rep order within
        // a cell), so each cell's mean is summed in the same order at any
        // width. Jobs' own parallel kernels run inline on their thread.
        let results = pool::with_threads(self.threads, || {
            pool::map_chunks(jobs.len(), 1, |range| {
                let (si, ci, rep) = jobs[range.start];
                self.run_job(&*strategies[si], &conditions[ci], (si, ci, rep))
            })
        });
        drop(grid_span);
        obs::checkpoint();

        // (strategy, condition) -> per-rep (metrics, spent)
        let mut collected: Vec<Vec<(Metrics, f64)>> =
            vec![Vec::new(); strategies.len() * conditions.len()];
        for (&(si, ci, _), result) in jobs.iter().zip(results) {
            collected[si * conditions.len() + ci].push(result?);
        }

        let mut out = Vec::with_capacity(collected.len());
        for (idx, cell) in collected.into_iter().enumerate() {
            let si = idx / conditions.len();
            let ci = idx % conditions.len();
            let metrics_only: Vec<Metrics> = cell.iter().map(|(m, _)| *m).collect();
            let mean = Metrics::mean(&metrics_only).ok_or_else(|| {
                Error::NumericalFailure(format!(
                    "no completed runs for {} on {}",
                    strategies[si].name(),
                    conditions[ci].dataset.name()
                ))
            })?;
            out.push(CellResult {
                strategy: strategies[si].name().to_string(),
                dataset: conditions[ci].dataset.name().to_string(),
                metrics: mean,
                accuracy_std: Metrics::accuracy_std(&metrics_only),
                budget_spent: cell.iter().map(|(_, s)| s).sum::<f64>() / cell.len() as f64,
                runs: cell.len(),
            });
        }
        Ok(out)
    }

    /// Run one (strategy, condition, rep) job on its derived seed.
    ///
    /// A panicking strategy must not poison the whole grid: the panic is
    /// trapped here and surfaced as an `Err` naming the derived seed, so
    /// the failing run is reproducible in isolation.
    fn run_job(
        &self,
        strategy: &dyn LabellingStrategy,
        condition: &Condition,
        (si, ci, rep): (usize, usize, usize),
    ) -> Result<(Metrics, f64)> {
        let stream = (si as u64) << 32 | (ci as u64) << 16 | rep as u64;
        let seed = derive_seed(self.master_seed, stream);
        let job_start = Instant::now();
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = seeded(seed);
            strategy
                .run(
                    &condition.dataset,
                    &condition.pool,
                    &condition.params,
                    &mut rng,
                )
                .and_then(|outcome| {
                    evaluate_labels(&condition.dataset, &outcome.labels)
                        .map(|m| (m, outcome.budget_spent))
                })
        }))
        .unwrap_or_else(|_| {
            Err(Error::NumericalFailure(format!(
                "experiment worker panicked on strategy {si}, \
                 condition {ci}, rep {rep} (seed {seed})"
            )))
        });
        if obs::enabled() {
            // Trace which derived seed each cell ran under and how long
            // the rep took, so a slow or failing run can be replayed in
            // isolation.
            let wall_s = job_start.elapsed().as_secs_f64();
            obs::annotate_kv(
                "eval.seed",
                &format!(
                    "strategy {si} condition {ci} rep {rep} \
                     seed {seed} wall {wall_s:.3}s"
                ),
                &[
                    ("strategy", si as f64),
                    ("condition", ci as f64),
                    ("rep", rep as f64),
                    ("seed", seed as f64),
                    ("wall_s", wall_s),
                ],
            );
        }
        out
    }
}

/// How many chained passes [`cross_train`] makes over the donor list.
///
/// A DQN trained for a single episode is mostly noise — its replay pool
/// sees one trajectory and the learned preferences barely beat the random
/// init. Several episodes, each seeded from the previous pass's
/// parameters, is what "offline training" means in the paper; five passes
/// is where transfer quality stops improving on the built-in simulator
/// while keeping cross-training affordable in tests.
pub const CROSS_TRAIN_EPISODES: usize = 5;

/// The paper's offline cross-training (§VI-A.4): train the Q-network by
/// running CrowdRL on *other* datasets for [`CROSS_TRAIN_EPISODES`] passes,
/// chaining the learned parameters between runs, and return the final
/// parameter vector for deployment on the target dataset.
pub fn cross_train(
    base_config: &CrowdRlConfig,
    donors: &[Condition],
    master_seed: u64,
) -> Result<Vec<f32>> {
    let mut params: Option<Vec<f32>> = None;
    for (i, donor) in donors
        .iter()
        .cycle()
        .take(donors.len() * CROSS_TRAIN_EPISODES)
        .enumerate()
    {
        let mut config = base_config.clone();
        config.budget = donor.params.budget;
        config.initial_ratio = donor.params.initial_ratio;
        config.assignment_k = donor.params.assignment_k;
        config.batch_per_iter = donor.params.batch_per_iter;
        config.pretrained_dqn = params.clone();
        let mut rng = seeded(derive_seed(master_seed, i as u64));
        let (_, trained) =
            CrowdRl::new(config).run_detailed(&donor.dataset, &donor.pool, &mut rng)?;
        params = Some(trained);
    }
    params.ok_or_else(|| Error::InvalidParameter("cross_train needs at least one donor".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_baselines::CrowdRlStrategy;
    use crowdrl_sim::{DatasetSpec, PoolSpec};

    fn condition(n: usize, budget: f64, seed: u64) -> Condition {
        let mut rng = seeded(seed);
        let dataset = DatasetSpec::gaussian("grid-test", n, 3, 2)
            .with_separation(2.5)
            .generate(&mut rng)
            .unwrap();
        let pool = PoolSpec::new(3, 1).generate(2, &mut rng).unwrap();
        Condition {
            dataset,
            pool,
            params: BaselineParams::with_budget(budget),
        }
    }

    #[test]
    fn grid_runs_all_cells_deterministically() {
        let strategies: Vec<Box<dyn LabellingStrategy>> = vec![
            Box::new(crowdrl_baselines::Dlta::default()),
            Box::new(CrowdRlStrategy::full()),
        ];
        let conditions = vec![condition(30, 100.0, 1)];
        let grid = ExperimentGrid {
            repetitions: 2,
            master_seed: 7,
            threads: 2,
        };
        let a = grid.run(&strategies, &conditions).unwrap();
        let b = grid.run(&strategies, &conditions).unwrap();
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.strategy, y.strategy);
            assert_eq!(x.metrics.accuracy, y.metrics.accuracy);
            assert_eq!(x.runs, 2);
        }
        // Cells are strategy-major.
        assert_eq!(a[0].strategy, "DLTA");
        assert_eq!(a[1].strategy, "CrowdRL");
    }

    /// A strategy that dies mid-run: the grid must surface a proper error
    /// naming the failing seed instead of hanging or unwinding the caller.
    struct PanickingStrategy;

    impl LabellingStrategy for PanickingStrategy {
        fn name(&self) -> &'static str {
            "Panic"
        }

        fn run(
            &self,
            _dataset: &Dataset,
            _pool: &AnnotatorPool,
            _params: &BaselineParams,
            _rng: &mut dyn rand::RngCore,
        ) -> Result<crowdrl_core::LabellingOutcome> {
            panic!("poisoned job");
        }
    }

    #[test]
    fn panicking_strategy_reports_failing_seed_without_hanging() {
        let strategies: Vec<Box<dyn LabellingStrategy>> = vec![Box::new(PanickingStrategy)];
        let conditions = vec![condition(10, 30.0, 6)];
        let grid = ExperimentGrid {
            repetitions: 2,
            master_seed: 9,
            threads: 1,
        };
        let err = grid.run(&strategies, &conditions).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("panicked"), "{msg}");
        let expected_seed = derive_seed(9, 0);
        assert!(msg.contains(&format!("seed {expected_seed}")), "{msg}");
    }

    #[test]
    fn rejects_zero_repetitions() {
        let grid = ExperimentGrid {
            repetitions: 0,
            ..Default::default()
        };
        assert!(grid.run(&[], &[]).is_err());
    }

    #[test]
    fn cross_train_produces_params() {
        let config = CrowdRlConfig::builder().budget(60.0).build().unwrap();
        let donors = vec![condition(20, 60.0, 2), condition(20, 60.0, 3)];
        let params = cross_train(&config, &donors, 11).unwrap();
        assert!(!params.is_empty());
        assert!(params.iter().all(|p| p.is_finite()));
        // Pretrained params feed a new run.
        let target = condition(20, 60.0, 4);
        let config = CrowdRlConfig::builder()
            .budget(60.0)
            .pretrained_dqn(params)
            .build()
            .unwrap();
        let mut rng = seeded(5);
        let outcome = CrowdRl::new(config)
            .run(&target.dataset, &target.pool, &mut rng)
            .unwrap();
        assert!(outcome.coverage() > 0.0);
        assert!(cross_train(
            &CrowdRlConfig::builder().budget(1.0).build().unwrap(),
            &[],
            0
        )
        .is_err());
    }
}
