//! Incremental inference engine: warm-started, dirty-set EM across staged
//! answer deliveries must agree with one cold inference over the final
//! answer set — same labels (≥99%), same accuracy (within 0.01) — and the
//! dirty-set E-step must reproduce the full sweep bit-for-bit on the
//! objects it touches. Annotators who never answer change no bit of cold
//! or warm inference.

use crowdrl::inference::{
    DawidSkene, EngineConfig, EngineSnapshot, InferenceEngine, InferenceResult, JointConfig,
    JointInference,
};
use crowdrl::nn::{ClassifierConfig, SoftmaxClassifier};
use crowdrl::prelude::*;
use crowdrl::sim::Platform;
use crowdrl::types::rng::{sample_indices, seeded};
use crowdrl::types::{Budget, ConfusionMatrix, Error, ObjectId};

fn scenario(n: usize, seed: u64) -> (Dataset, AnnotatorPool) {
    let mut rng = seeded(seed);
    let dataset = DatasetSpec::gaussian("inc", n, 4, 2)
        .with_separation(2.5)
        .generate(&mut rng)
        .unwrap();
    let pool = PoolSpec::new(4, 1).generate(2, &mut rng).unwrap();
    (dataset, pool)
}

fn fresh_classifier(dim: usize, k: usize, seed: u64) -> SoftmaxClassifier {
    let mut rng = seeded(seed);
    SoftmaxClassifier::new(
        ClassifierConfig {
            epochs: 15,
            ..ClassifierConfig::default()
        },
        dim,
        k,
        &mut rng,
    )
    .unwrap()
}

/// Ask 3 random annotators about each object in `objects`.
fn ask_stage<R: rand::Rng>(
    platform: &mut Platform<'_>,
    pool: &AnnotatorPool,
    objects: std::ops::Range<usize>,
    rng: &mut R,
) {
    for obj in objects {
        let panel: Vec<_> = sample_indices(rng, pool.len(), 3)
            .into_iter()
            .map(|i| pool.profiles()[i].id)
            .collect();
        platform.ask_many(ObjectId(obj), &panel, rng);
    }
}

/// Label agreement between two results over the objects both labelled.
fn agreement(a: &InferenceResult, b: &InferenceResult) -> f64 {
    let mut total = 0usize;
    let mut same = 0usize;
    for obj in a.inferred_objects() {
        if let (Some(la), Some(lb)) = (a.label(obj), b.label(obj)) {
            total += 1;
            if la == lb {
                same += 1;
            }
        }
    }
    assert!(total > 0, "no commonly labelled objects");
    same as f64 / total as f64
}

/// Accuracy of a result's MAP labels over its inferred objects.
fn accuracy(dataset: &Dataset, result: &InferenceResult) -> f64 {
    let mut total = 0usize;
    let mut ok = 0usize;
    for obj in result.inferred_objects() {
        if let Some(label) = result.label(obj) {
            total += 1;
            if label == dataset.truth(obj.index()) {
                ok += 1;
            }
        }
    }
    assert!(total > 0, "no labelled objects");
    ok as f64 / total as f64
}

#[test]
fn joint_incremental_matches_cold_inference() {
    let (dataset, pool) = scenario(120, 1);
    let mut platform = Platform::new(&dataset, &pool, Budget::new(1e6).unwrap());
    let mut ask_rng = seeded(2);
    let model = JointInference {
        config: JointConfig::default(),
    };

    // Warm path: answers arrive in six stages of 20 objects; the engine
    // carries posteriors/confusions/classifier state between stages.
    let mut engine = InferenceEngine::joint(model.clone(), EngineConfig::default());
    let mut warm_classifier = fresh_classifier(dataset.dim(), dataset.num_classes(), 3);
    let mut warm_rng = seeded(4);
    let mut warm = None;
    for stage in 0..6 {
        ask_stage(
            &mut platform,
            &pool,
            stage * 20..(stage + 1) * 20,
            &mut ask_rng,
        );
        warm = Some(
            engine
                .infer(
                    &dataset,
                    platform.answers(),
                    pool.profiles(),
                    &mut warm_classifier,
                    &mut warm_rng,
                )
                .unwrap(),
        );
    }
    let warm = warm.unwrap();

    // Cold path: one full inference over the final answer set with a fresh
    // classifier seeded identically.
    let mut cold_classifier = fresh_classifier(dataset.dim(), dataset.num_classes(), 3);
    let mut cold_rng = seeded(4);
    let cold = model
        .infer(
            &dataset,
            platform.answers(),
            pool.profiles(),
            &mut cold_classifier,
            &mut cold_rng,
        )
        .unwrap();

    assert_eq!(
        warm.inferred_objects().count(),
        cold.inferred_objects().count(),
        "warm and cold must cover the same objects"
    );
    let agree = agreement(&warm, &cold);
    assert!(agree >= 0.99, "label agreement {agree}");
    let (wa, ca) = (accuracy(&dataset, &warm), accuracy(&dataset, &cold));
    assert!((wa - ca).abs() <= 0.01, "warm acc {wa} vs cold acc {ca}");
}

#[test]
fn dawid_skene_incremental_matches_cold_inference() {
    let (dataset, pool) = scenario(120, 5);
    let mut platform = Platform::new(&dataset, &pool, Budget::new(1e6).unwrap());
    let mut ask_rng = seeded(6);
    let ds = DawidSkene::default();

    let mut engine = InferenceEngine::dawid_skene(ds.clone(), EngineConfig::default());
    // Dawid–Skene never reads the classifier; any instance satisfies the
    // engine's signature.
    let mut dummy = fresh_classifier(dataset.dim(), dataset.num_classes(), 7);
    let mut warm_rng = seeded(8);
    let mut warm = None;
    for stage in 0..6 {
        ask_stage(
            &mut platform,
            &pool,
            stage * 20..(stage + 1) * 20,
            &mut ask_rng,
        );
        warm = Some(
            engine
                .infer(
                    &dataset,
                    platform.answers(),
                    pool.profiles(),
                    &mut dummy,
                    &mut warm_rng,
                )
                .unwrap(),
        );
    }
    let warm = warm.unwrap();
    let cold = ds
        .infer(platform.answers(), dataset.num_classes(), pool.len())
        .unwrap();

    assert_eq!(
        warm.inferred_objects().count(),
        cold.inferred_objects().count()
    );
    let agree = agreement(&warm, &cold);
    assert!(agree >= 0.99, "label agreement {agree}");
    let (wa, ca) = (accuracy(&dataset, &warm), accuracy(&dataset, &cold));
    assert!((wa - ca).abs() <= 0.01, "warm acc {wa} vs cold acc {ca}");
}

#[test]
fn dirty_set_sweep_matches_full_sweep_on_touched_objects() {
    // After one new answer lands on a single object, a dirty-set E-step
    // and a full-sweep E-step start from the same carried state and the
    // same freshly re-estimated confusions, so the posterior they produce
    // for that object must be bit-identical — the dirty set only skips
    // work, it never changes it.
    let (dataset, pool) = scenario(80, 9);
    let mut platform = Platform::new(&dataset, &pool, Budget::new(1e6).unwrap());
    let mut ask_rng = seeded(10);
    ask_stage(&mut platform, &pool, 0..60, &mut ask_rng);

    let ds = DawidSkene::default();
    let mut dummy = fresh_classifier(dataset.dim(), dataset.num_classes(), 11);
    let mut rng = seeded(12);
    let mut engine = InferenceEngine::dawid_skene(
        ds,
        EngineConfig {
            warm_start: true,
            full_sweep_every: 1000, // never full-sweep on the dirty engine
            warm_max_iters: 1,
            warm_epochs: 1,
        },
    );
    // Cold call converges and captures the carried state.
    engine
        .infer(
            &dataset,
            platform.answers(),
            pool.profiles(),
            &mut dummy,
            &mut rng,
        )
        .unwrap();

    // Fork the converged engine: same state, different sweep policy.
    let mut full_engine = engine.clone();
    full_engine.set_config(EngineConfig {
        full_sweep_every: 1, // every warm call sweeps all answered objects
        ..engine.config().clone()
    });

    // One new answer on one object.
    let target = ObjectId(3);
    let panel = [pool.profiles()[pool.len() - 1].id];
    platform.ask_many(target, &panel, &mut ask_rng);

    let dirty = engine
        .infer(
            &dataset,
            platform.answers(),
            pool.profiles(),
            &mut dummy,
            &mut rng,
        )
        .unwrap();
    let full = full_engine
        .infer(
            &dataset,
            platform.answers(),
            pool.profiles(),
            &mut dummy,
            &mut rng,
        )
        .unwrap();

    assert_eq!(
        dirty.posteriors[target.index()],
        full.posteriors[target.index()],
        "dirty-set posterior for the touched object must match the full sweep exactly"
    );
    // And the overall labelling still agrees.
    let agree = agreement(&dirty, &full);
    assert!(agree >= 0.99, "label agreement {agree}");
}

#[test]
fn exported_engine_state_resumes_bit_identically() {
    // Kill-and-restore: snapshot the engine, classifier and RNG after
    // stage 3 of 6, rebuild everything from the snapshot, replay the
    // remaining stages — the final result must be bit-identical to the
    // uninterrupted run, not merely statistically close.
    let (dataset, pool) = scenario(100, 17);
    let model = JointInference {
        config: JointConfig::default(),
    };
    let config = EngineConfig::default();

    // Uninterrupted run, capturing the mid-run snapshot in passing.
    let mut platform = Platform::new(&dataset, &pool, Budget::new(1e6).unwrap());
    let mut ask_rng = seeded(18);
    let mut engine = InferenceEngine::joint(model.clone(), config.clone());
    let mut classifier = fresh_classifier(dataset.dim(), dataset.num_classes(), 19);
    let mut warm_rng = seeded(20);
    let mut snapshot = None;
    let mut golden = None;
    for stage in 0..6 {
        ask_stage(
            &mut platform,
            &pool,
            stage * 16..(stage + 1) * 16,
            &mut ask_rng,
        );
        golden = Some(
            engine
                .infer(
                    &dataset,
                    platform.answers(),
                    pool.profiles(),
                    &mut classifier,
                    &mut warm_rng,
                )
                .unwrap(),
        );
        if stage == 2 {
            snapshot = Some((
                engine.export_state().expect("engine has state"),
                classifier.snapshot(),
                warm_rng.state(),
            ));
        }
    }
    let golden = golden.unwrap();
    let (engine_snap, classifier_snap, rng_state) = snapshot.unwrap();

    // Restored run: fresh objects, state loaded from the snapshot, same
    // remaining answer stages (the platform replays deterministically).
    let mut platform2 = Platform::new(&dataset, &pool, Budget::new(1e6).unwrap());
    let mut ask_rng2 = seeded(18);
    for stage in 0..3 {
        ask_stage(
            &mut platform2,
            &pool,
            stage * 16..(stage + 1) * 16,
            &mut ask_rng2,
        );
    }
    let mut engine2 = InferenceEngine::joint(model, config);
    engine2.restore_state(engine_snap, &dataset).unwrap();
    let mut classifier2 = fresh_classifier(dataset.dim(), dataset.num_classes(), 999);
    classifier2.restore(classifier_snap).unwrap();
    let mut warm_rng2 = rand::rngs::StdRng::from_state(rng_state);
    let mut resumed = None;
    for stage in 3..6 {
        ask_stage(
            &mut platform2,
            &pool,
            stage * 16..(stage + 1) * 16,
            &mut ask_rng2,
        );
        resumed = Some(
            engine2
                .infer(
                    &dataset,
                    platform2.answers(),
                    pool.profiles(),
                    &mut classifier2,
                    &mut warm_rng2,
                )
                .unwrap(),
        );
    }
    let resumed = resumed.unwrap();

    assert_eq!(golden, resumed, "restored run must match bit-for-bit");
    assert_eq!(
        classifier.network().flatten_params(),
        classifier2.network().flatten_params(),
        "classifier weights must match bit-for-bit"
    );
}

#[test]
fn unchanged_answers_return_the_cached_result() {
    let (dataset, pool) = scenario(60, 13);
    let mut platform = Platform::new(&dataset, &pool, Budget::new(1e6).unwrap());
    let mut ask_rng = seeded(14);
    ask_stage(&mut platform, &pool, 0..40, &mut ask_rng);

    let mut engine = InferenceEngine::joint(JointInference::default(), EngineConfig::default());
    let mut classifier = fresh_classifier(dataset.dim(), dataset.num_classes(), 15);
    let mut rng = seeded(16);
    let first = engine
        .infer(
            &dataset,
            platform.answers(),
            pool.profiles(),
            &mut classifier,
            &mut rng,
        )
        .unwrap();
    // Same answers again: the engine must reply from its cache — without
    // consuming any randomness (the finalize path relies on this).
    let before: u64 = rand::Rng::random(&mut rng.clone());
    let second = engine
        .infer(
            &dataset,
            platform.answers(),
            pool.profiles(),
            &mut classifier,
            &mut rng,
        )
        .unwrap();
    let after: u64 = rand::Rng::random(&mut rng.clone());
    assert_eq!(before, after, "cached reply must not consume the RNG");
    assert_eq!(first.posteriors, second.posteriors);
    assert_eq!(first.class_prior, second.class_prior);
}

/// A joint engine that has run once over answers for objects `0..30` of a
/// 60-object scenario (objects `30..60` stay unanswered), with its
/// classifier, the platform that bought the answers and the asking RNG.
fn staged_joint_engine(
    seed: u64,
) -> (
    Dataset,
    AnnotatorPool,
    InferenceEngine,
    SoftmaxClassifier,
    rand::rngs::StdRng,
) {
    let (dataset, pool) = scenario(60, seed);
    let mut platform = Platform::new(&dataset, &pool, Budget::new(1e6).unwrap());
    let mut ask_rng = seeded(seed + 1);
    ask_stage(&mut platform, &pool, 0..30, &mut ask_rng);
    let mut engine = InferenceEngine::joint(JointInference::default(), EngineConfig::default());
    let mut classifier = fresh_classifier(dataset.dim(), dataset.num_classes(), seed + 2);
    let mut rng = seeded(seed + 3);
    engine
        .infer(
            &dataset,
            platform.answers(),
            pool.profiles(),
            &mut classifier,
            &mut rng,
        )
        .unwrap();
    (dataset, pool, engine, classifier, rng)
}

#[test]
fn truncated_confusions_in_a_restored_snapshot_error_instead_of_panicking() {
    // A decoded checkpoint whose confusions were cut to one matrix for a
    // five-annotator pool restores — restore cannot see the pool size —
    // but the next warm call must return a typed error instead of
    // indexing past the carried log-confusion tables.
    let (dataset, pool, engine, mut classifier, mut rng) = staged_joint_engine(31);
    let mut snap = engine.export_state().expect("engine has state");
    assert_eq!(snap.last.confusions.len(), pool.len());
    snap.last.confusions.truncate(1);
    let mut restored = InferenceEngine::joint(JointInference::default(), EngineConfig::default());
    restored.restore_state(snap, &dataset).unwrap();

    // New answers, so the call takes the warm path rather than the cache.
    let mut platform = Platform::new(&dataset, &pool, Budget::new(1e6).unwrap());
    let mut ask_rng = seeded(32);
    ask_stage(&mut platform, &pool, 0..40, &mut ask_rng);
    let err = restored
        .infer(
            &dataset,
            platform.answers(),
            pool.profiles(),
            &mut classifier,
            &mut rng,
        )
        .unwrap_err();
    assert!(
        matches!(err, Error::DimensionMismatch { expected, actual: 1, .. } if expected == pool.len()),
        "unexpected error: {err}"
    );
}

/// Damage one field of a snapshot for a `k`-class dataset.
type Corruption = fn(&mut EngineSnapshot, usize);

#[test]
fn restore_rejects_snapshots_that_do_not_fit_the_dataset() {
    let (dataset, _pool, engine, _classifier, _rng) = staged_joint_engine(41);
    let snap = engine.export_state().expect("engine has state");
    let k = dataset.num_classes();
    let corruptions: [(&str, Corruption); 7] = [
        ("a posterior of the wrong width", |s, _| {
            s.last
                .posteriors
                .iter_mut()
                .flatten()
                .next()
                .unwrap()
                .push(0.0)
        }),
        ("a class prior of the wrong width", |s, _| {
            s.last.class_prior.pop();
        }),
        ("a confusion of the wrong width", |s, k| {
            s.last.confusions[0] = ConfusionMatrix::uniform(k + 1).unwrap()
        }),
        ("moved flags of the wrong length", |s, _| {
            s.moved.pop();
        }),
        ("an answered object listed twice", |s, _| {
            let first = s.answered[0];
            s.answered.push(first);
        }),
        ("an answered object left out", |s, _| {
            s.answered.pop();
        }),
        ("an unanswered object listed", |s, _| {
            let idle = s.answer_counts.iter().position(|&c| c == 0).unwrap();
            s.answered.push(idle);
        }),
    ];
    for (what, corrupt) in corruptions {
        let mut bad = snap.clone();
        corrupt(&mut bad, k);
        let mut fresh = InferenceEngine::joint(JointInference::default(), EngineConfig::default());
        assert!(
            fresh.restore_state(bad, &dataset).is_err(),
            "{what} must be rejected"
        );
        assert!(
            fresh.export_state().is_none(),
            "{what}: a rejected snapshot must leave the engine untouched"
        );
    }
    let mut fresh = InferenceEngine::joint(JointInference::default(), EngineConfig::default());
    fresh.restore_state(snap, &dataset).unwrap();
}

/// Every bit of a result, for exact comparison.
fn result_bits(r: &InferenceResult) -> (Vec<Option<Vec<u64>>>, Vec<u64>, u64, usize) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    (
        r.posteriors
            .iter()
            .map(|p| p.as_deref().map(bits))
            .collect(),
        bits(&r.class_prior),
        r.log_likelihood.to_bits(),
        r.iterations,
    )
}

#[test]
fn silent_annotators_change_no_bit_of_inference() {
    // Padding a pool with annotators who never answer must change no bit
    // of inference: the E-step reads the log-confusion rows of answering
    // annotators only, and the one-coin M-step merges each object
    // chunk's statistics only for the annotators that chunk touched.
    // 520 objects span three 256-object chunks.
    const SILENT: usize = 500;
    let k = 3;
    let mut rng = seeded(61);
    let dataset = DatasetSpec::gaussian("silent", 520, 4, k)
        .with_separation(2.5)
        .generate(&mut rng)
        .unwrap();
    let pool = PoolSpec::new(4, 1).generate(k, &mut rng).unwrap();
    let answering = pool.len();
    let mut padded = pool.profiles().to_vec();
    for j in answering..answering + SILENT {
        // Every tenth silent annotator is an expert, so silent experts
        // meet the joint model's expert bounding.
        let (kind, cost) = if j % 10 == 0 {
            (AnnotatorKind::Expert, 8.0)
        } else {
            (AnnotatorKind::Worker, 1.0)
        };
        padded.push(AnnotatorProfile::new(AnnotatorId(j), kind, cost).unwrap());
    }
    // The answer set after each of four delivery stages.
    let mut platform = Platform::new(&dataset, &pool, Budget::new(1e6).unwrap());
    let mut ask_rng = seeded(62);
    let stages: Vec<AnswerSet> = (0..4)
        .map(|s| {
            ask_stage(&mut platform, &pool, s * 130..(s + 1) * 130, &mut ask_rng);
            platform.answers().clone()
        })
        .collect();

    let joint = JointInference::default();
    let ds = DawidSkene::default();
    // Cold joint and Dawid–Skene over the final answers, then one warm
    // engine sequence per model, each result labelled with whether the
    // joint model's expert bounding shaped it.
    let run = |profiles: &[AnnotatorProfile]| {
        let mut out = vec![(
            "cold joint",
            true,
            joint
                .infer(
                    &dataset,
                    &stages[3],
                    profiles,
                    &mut fresh_classifier(dataset.dim(), k, 63),
                    &mut seeded(64),
                )
                .unwrap(),
        )];
        out.push((
            "cold dawid-skene",
            false,
            ds.infer(&stages[3], k, profiles.len()).unwrap(),
        ));
        let engines = [
            (
                "joint engine",
                true,
                InferenceEngine::joint(joint.clone(), EngineConfig::default()),
            ),
            (
                "dawid-skene engine",
                false,
                InferenceEngine::dawid_skene(ds.clone(), EngineConfig::default()),
            ),
        ];
        for (what, bounded, mut engine) in engines {
            let mut classifier = fresh_classifier(dataset.dim(), k, 65);
            let mut rng = seeded(66);
            for answers in &stages {
                let r = engine
                    .infer(&dataset, answers, profiles, &mut classifier, &mut rng)
                    .unwrap();
                out.push((what, bounded, (*r).clone()));
            }
        }
        out
    };

    let epsilon = joint.config.expert_epsilon;
    for threads in [1, 4] {
        crowdrl::linalg::pool::with_threads(threads, || {
            for ((what, bounded, plain), (_, _, wide)) in
                run(pool.profiles()).iter().zip(&run(&padded))
            {
                assert_eq!(
                    result_bits(plain),
                    result_bits(wide),
                    "{what} at {threads} threads"
                );
                assert_eq!(wide.confusions.len(), answering + SILENT);
                for (j, (m, profile)) in wide.confusions.iter().zip(&padded).enumerate() {
                    let want = if j < answering {
                        plain.confusions[j].clone()
                    } else {
                        let mut prior = ConfusionMatrix::with_accuracy(k, 0.7).unwrap();
                        if *bounded && profile.is_expert() {
                            prior.bound_diagonal(epsilon).unwrap();
                        }
                        prior
                    };
                    assert_eq!(
                        m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        want.as_slice()
                            .iter()
                            .map(|x| x.to_bits())
                            .collect::<Vec<_>>(),
                        "{what} at {threads} threads: annotator {j}"
                    );
                }
            }
        });
    }
}
