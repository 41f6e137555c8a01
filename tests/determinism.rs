//! Reproducibility guarantees: every stochastic component is driven by an
//! explicit seed, so identical seeds must reproduce identical results —
//! across the simulator, the inference stack, the RL loop, and the
//! multi-threaded experiment runner.

use crowdrl::baselines::{paper_baselines, BaselineParams};
use crowdrl::eval::{Condition, ExperimentGrid};
use crowdrl::prelude::*;
use crowdrl::types::rng::seeded;

fn scenario(seed: u64) -> (Dataset, AnnotatorPool) {
    let mut rng = seeded(seed);
    let dataset = DatasetSpec::gaussian("det", 60, 4, 2)
        .with_separation(2.5)
        .generate(&mut rng)
        .unwrap();
    let pool = PoolSpec::new(3, 1).generate(2, &mut rng).unwrap();
    (dataset, pool)
}

#[test]
fn crowdrl_runs_are_bit_reproducible() {
    let (dataset, pool) = scenario(1);
    let run = |seed: u64| {
        let config = CrowdRlConfig::builder().budget(200.0).build().unwrap();
        let mut rng = seeded(seed);
        CrowdRl::new(config).run(&dataset, &pool, &mut rng).unwrap()
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.budget_spent, b.budget_spent);
    assert_eq!(a.total_answers, b.total_answers);
    assert_eq!(a.iterations, b.iterations);
    // A different seed gives a different trajectory.
    let c = run(43);
    assert!(
        a.labels != c.labels || a.total_answers != c.total_answers,
        "different seeds should explore differently"
    );
}

#[test]
fn every_baseline_is_reproducible() {
    let (dataset, pool) = scenario(2);
    let params = BaselineParams::with_budget(180.0);
    for strategy in paper_baselines() {
        let run = |seed: u64| {
            let mut rng = seeded(seed);
            strategy.run(&dataset, &pool, &params, &mut rng).unwrap()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(
            a.labels,
            b.labels,
            "{} must be reproducible",
            strategy.name()
        );
        assert_eq!(a.budget_spent, b.budget_spent, "{}", strategy.name());
    }
}

#[test]
fn parallel_experiment_grid_is_schedule_independent() {
    // The grid derives per-cell seeds and averages repetitions in job
    // order, so thread count must not change any bit. Three repetitions,
    // because IEEE addition of two terms is commutative: only a sum of
    // three or more can tell completion order from job order.
    let (dataset, pool) = scenario(3);
    let make_conditions = || {
        vec![Condition {
            dataset: dataset.clone(),
            pool: pool.clone(),
            params: BaselineParams::with_budget(150.0),
        }]
    };
    let strategies = paper_baselines();
    let single = ExperimentGrid {
        repetitions: 3,
        master_seed: 99,
        threads: 1,
    }
    .run(&strategies, &make_conditions())
    .unwrap();
    let parallel = ExperimentGrid {
        repetitions: 3,
        master_seed: 99,
        threads: 4,
    }
    .run(&strategies, &make_conditions())
    .unwrap();
    assert_eq!(single.len(), parallel.len());
    let bits = |c: &crowdrl::eval::CellResult| {
        let m = &c.metrics;
        [
            m.accuracy,
            m.precision,
            m.recall,
            m.f1,
            m.macro_precision,
            m.macro_recall,
            m.macro_f1,
            m.coverage,
            c.accuracy_std,
            c.budget_spent,
        ]
        .map(f64::to_bits)
    };
    for (a, b) in single.iter().zip(&parallel) {
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(a.runs, b.runs, "{}", a.strategy);
        assert_eq!(bits(a), bits(b), "{}", a.strategy);
    }
}

#[test]
fn results_are_invariant_to_worker_pool_size() {
    // The parallel hot paths (blocked matmul, chunked E/M-steps, batched
    // DQN scoring) fix chunk boundaries by data size and merge partials in
    // chunk-index order, so the worker-pool size must never change a bit
    // of the output — batch workflow and async runtime alike.
    let (dataset, pool) = scenario(4);
    let batch_run = || {
        let config = CrowdRlConfig::builder().budget(200.0).build().unwrap();
        let mut rng = seeded(21);
        CrowdRl::new(config).run(&dataset, &pool, &mut rng).unwrap()
    };
    // The async runtime's width is its `ExecMode`: the pool cap it sets
    // for the run.
    let async_run = |mode: ExecMode| {
        let config = CrowdRlConfig::builder().budget(150.0).build().unwrap();
        let mut rng = seeded(22);
        let serve = ServeConfig::default().with_mode(mode);
        CrowdRl::new(config)
            .run_async(&dataset, &pool, &serve, &mut rng)
            .unwrap()
    };

    crowdrl::linalg::pool::set_threads(1);
    let batch_ref = batch_run();
    let async_ref = async_run(ExecMode::SingleThread);
    for threads in [2usize, 4] {
        crowdrl::linalg::pool::set_threads(threads);
        let batch = batch_run();
        assert_eq!(batch_ref.labels, batch.labels, "{threads} threads");
        assert_eq!(
            batch_ref.budget_spent, batch.budget_spent,
            "{threads} threads"
        );
        assert_eq!(
            batch_ref.total_answers, batch.total_answers,
            "{threads} threads"
        );
        assert_eq!(batch_ref.iterations, batch.iterations, "{threads} threads");
        let run = async_run(ExecMode::WorkerPool { workers: threads });
        assert_eq!(async_ref.trace, run.trace, "{threads} threads");
        assert_eq!(
            async_ref.outcome.labels, run.outcome.labels,
            "{threads} threads"
        );
        assert_eq!(
            async_ref.outcome.budget_spent, run.outcome.budget_spent,
            "{threads} threads"
        );
    }
    // Restore the environment-derived default for the rest of the suite.
    crowdrl::linalg::pool::set_threads(0);
}

#[test]
fn incremental_engine_is_reproducible_at_every_pool_width() {
    // The warm engine's dirty-set E-step chunks its *active* set with the
    // same fixed chunk geometry as the cold sweep and merges partials in
    // chunk-index order, so staged incremental inference must be
    // bit-identical run-to-run and at any worker-pool size.
    use crowdrl::inference::{EngineConfig, InferenceEngine, JointInference};
    use crowdrl::nn::{ClassifierConfig, SoftmaxClassifier};
    use crowdrl::sim::Platform;
    use crowdrl::types::rng::sample_indices;
    use crowdrl::types::{Budget, ObjectId};

    let (dataset, pool) = scenario(6);
    let staged_run = || {
        let mut platform = Platform::new(&dataset, &pool, Budget::new(1e6).unwrap());
        let mut ask_rng = seeded(51);
        let mut em_rng = seeded(52);
        let mut classifier = SoftmaxClassifier::new(
            ClassifierConfig::default(),
            dataset.dim(),
            dataset.num_classes(),
            &mut seeded(53),
        )
        .unwrap();
        let mut engine = InferenceEngine::joint(JointInference::default(), EngineConfig::default());
        let mut result = None;
        for stage in 0..4 {
            for obj in stage * 15..(stage + 1) * 15 {
                let panel: Vec<_> = sample_indices(&mut ask_rng, pool.len(), 3)
                    .into_iter()
                    .map(|i| pool.profiles()[i].id)
                    .collect();
                platform.ask_many(ObjectId(obj), &panel, &mut ask_rng);
            }
            result = Some(
                engine
                    .infer(
                        &dataset,
                        platform.answers(),
                        pool.profiles(),
                        &mut classifier,
                        &mut em_rng,
                    )
                    .unwrap(),
            );
        }
        result.unwrap()
    };

    crowdrl::linalg::pool::set_threads(1);
    let reference = staged_run();
    let repeat = staged_run();
    assert_eq!(reference.posteriors, repeat.posteriors, "repeat run");
    assert_eq!(reference.class_prior, repeat.class_prior, "repeat run");
    for threads in [2usize, 4] {
        crowdrl::linalg::pool::set_threads(threads);
        let run = staged_run();
        assert_eq!(reference.posteriors, run.posteriors, "{threads} threads");
        assert_eq!(reference.class_prior, run.class_prior, "{threads} threads");
        assert_eq!(reference.confusions, run.confusions, "{threads} threads");
    }
    crowdrl::linalg::pool::set_threads(0);
}

#[test]
fn dataset_and_pool_generation_are_seed_stable() {
    let (d1, _) = scenario(10);
    let (d2, _) = scenario(10);
    assert_eq!(d1, d2);
    let mut rng_a = seeded(11);
    let mut rng_b = seeded(11);
    let p1 = PoolSpec::new(4, 2).generate(3, &mut rng_a).unwrap();
    let p2 = PoolSpec::new(4, 2).generate(3, &mut rng_b).unwrap();
    for (a, b) in p1.profiles().iter().zip(p2.profiles()) {
        assert_eq!(a, b);
    }
    for i in 0..p1.len() {
        let id = crowdrl::types::AnnotatorId(i);
        assert_eq!(p1.latent_confusion(id), p2.latent_confusion(id));
    }
}

#[test]
fn recording_a_trace_never_changes_the_run() {
    // The observability layer is read-only: every recording call feeds on
    // values the run already computed, and wall-clock timestamps exist
    // only in the trace output. A run with a recorder installed must
    // therefore be bit-identical to the same run with recording disabled.
    let (dataset, pool) = scenario(5);
    let batch_run = || {
        let config = CrowdRlConfig::builder().budget(200.0).build().unwrap();
        let mut rng = seeded(31);
        CrowdRl::new(config).run(&dataset, &pool, &mut rng).unwrap()
    };
    let async_run = || {
        let config = CrowdRlConfig::builder().budget(150.0).build().unwrap();
        let mut rng = seeded(32);
        CrowdRl::new(config)
            .run_async(&dataset, &pool, &ServeConfig::default(), &mut rng)
            .unwrap()
    };

    crowdrl::obs::Recorder::disabled().install();
    let batch_off = batch_run();
    let async_off = async_run();

    let sink = crowdrl::obs::BufferSink::new();
    crowdrl::obs::Recorder::to_writer(Box::new(sink.clone())).install();
    let batch_on = batch_run();
    let async_on = async_run();
    crowdrl::obs::shutdown();

    assert_eq!(batch_off.labels, batch_on.labels);
    assert_eq!(batch_off.budget_spent, batch_on.budget_spent);
    assert_eq!(batch_off.total_answers, batch_on.total_answers);
    assert_eq!(batch_off.iterations, batch_on.iterations);
    assert_eq!(async_off.trace, async_on.trace);
    assert_eq!(async_off.outcome.labels, async_on.outcome.labels);
    assert_eq!(
        async_off.outcome.budget_spent,
        async_on.outcome.budget_spent
    );
    assert_eq!(
        async_off.metrics.answers_delivered,
        async_on.metrics.answers_delivered
    );

    // And the recorded trace is real: non-empty, parseable JSONL with
    // completed spans from both execution paths.
    let trace = crowdrl::obs::analyze::parse_trace(&sink.contents()).unwrap();
    assert!(!trace.events.is_empty());
    let profile = trace.profile();
    let names: Vec<&str> = profile.iter().map(|p| p.name.as_str()).collect();
    assert!(names.contains(&"workflow.run"), "{names:?}");
    assert!(names.contains(&"serve.run"), "{names:?}");
}
