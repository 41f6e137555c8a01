//! Incremental inference engine: warm-started, dirty-set EM across staged
//! answer deliveries must agree with one cold inference over the final
//! answer set — same labels (≥99%), same accuracy (within 0.01) — and the
//! dirty-set E-step must reproduce the full sweep bit-for-bit on the
//! objects it touches. Annotators who never answer change no bit of cold
//! or warm inference. Runs spanning several 256-object chunks keep every
//! bit of their E-steps, M-steps and priors.

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

#[test]
fn a_failed_warm_call_leaves_no_state_behind() {
    // A warm call that fails (here: an untrained classifier) must not
    // leave its half-updated answer counts behind: the next call over the
    // same answers runs cold, exactly like a fresh inference, instead of
    // replying from a gutted cache.
    let (dataset, pool, mut engine, classifier, rng) = staged_joint_engine(51);
    let mut platform = Platform::new(&dataset, &pool, Budget::new(1e6).unwrap());
    let mut ask_rng = seeded(52);
    ask_stage(&mut platform, &pool, 0..40, &mut ask_rng);
    let mut untrained = fresh_classifier(dataset.dim(), dataset.num_classes(), 53);
    assert!(engine
        .infer(
            &dataset,
            platform.answers(),
            pool.profiles(),
            &mut untrained,
            &mut rng.clone(),
        )
        .is_err());

    let (mut retried_classifier, mut retried_rng) = (classifier.clone(), rng.clone());
    let retried = engine
        .infer(
            &dataset,
            platform.answers(),
            pool.profiles(),
            &mut retried_classifier,
            &mut retried_rng,
        )
        .unwrap();
    let (mut cold_classifier, mut cold_rng) = (classifier, rng);
    let cold = JointInference::default()
        .infer(
            &dataset,
            platform.answers(),
            pool.profiles(),
            &mut cold_classifier,
            &mut cold_rng,
        )
        .unwrap();
    assert_eq!(retried.inferred_objects().count(), 40);
    assert_eq!(result_digest(&retried), result_digest(&cold));
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

/// FNV-1a digest of every bit of a result: posteriors (with their
/// absence), confusions, class prior, log-likelihood and iteration count.
fn result_digest(r: &InferenceResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in &r.posteriors {
        match p {
            None => word(u64::MAX),
            Some(q) => {
                word(q.len() as u64);
                q.iter().for_each(|x| word(x.to_bits()));
            }
        }
    }
    for m in &r.confusions {
        m.as_slice().iter().for_each(|x| word(x.to_bits()));
    }
    r.class_prior.iter().for_each(|x| word(x.to_bits()));
    word(r.log_likelihood.to_bits());
    word(r.iterations as u64);
    h
}

/// Digests of [`em_runs_spanning_several_chunks`], captured with
/// `GOLDEN_CAPTURE=1`. They pin the chunk-order merges of every E-step,
/// M-step and prior, which runs of one 256-object chunk cannot.
const GOLDEN_MULTI_CHUNK_EM: &[(&str, u64)] = &[
    ("cold joint one-coin", 0x2b05c8a623985916),
    ("cold joint full-matrix", 0x6d52a7581ca0c4f2),
    ("cold dawid-skene one-coin", 0x875dd99a449a6dd3),
    ("cold dawid-skene full-matrix", 0x05d5a8a1867e2a28),
    ("joint engine one-coin", 0x5ccfa14e4e0564e8),
    ("joint engine full-matrix", 0xd2626459c210e29d),
    ("dawid-skene engine one-coin", 0x5b7f06cf57e503ee),
    ("dawid-skene engine full-matrix", 0xd460b62d81436eed),
];

/// Cold joint and Dawid–Skene runs, one-coin and full-matrix, and warm
/// engines of both over six deliveries, on 900 objects of which every
/// fourth is never asked. The unasked objects make chunks of object
/// indices differ from chunks of the answered list. Each engine entry
/// folds the digests of its six results in order.
fn em_runs_spanning_several_chunks() -> Vec<(&'static str, u64)> {
    const N: usize = 900;
    let k = 3;
    let mut rng = seeded(81);
    let dataset = DatasetSpec::gaussian("chunks", N, 4, k)
        .with_separation(2.0)
        .generate(&mut rng)
        .unwrap();
    let pool = PoolSpec::new(6, 1).generate(k, &mut rng).unwrap();
    let asked = |i: &usize| i % 4 != 3;
    let ask = |platform: &mut Platform<'_>, i: usize, panel: usize, rng: &mut _| {
        let panel: Vec<_> = sample_indices(rng, pool.len(), panel)
            .into_iter()
            .map(|j| pool.profiles()[j].id)
            .collect();
        platform.ask_many(ObjectId(i), &panel, rng);
    };
    // The first delivery covers objects 0..400, each later one the next
    // 100 objects plus one more answer on every fifth object of the
    // delivery before it, so warm calls see both new and dirty objects.
    let mut platform = Platform::new(&dataset, &pool, Budget::new(1e6).unwrap());
    let mut ask_rng = seeded(82);
    let bounds = [0, 400, 500, 600, 700, 800, 900];
    let stages: Vec<AnswerSet> = (0..6)
        .map(|s| {
            for i in (bounds[s]..bounds[s + 1]).filter(asked) {
                ask(&mut platform, i, 3, &mut ask_rng);
            }
            if s > 0 {
                for i in (bounds[s - 1]..bounds[s]).filter(asked).step_by(5) {
                    ask(&mut platform, i, 1, &mut ask_rng);
                }
            }
            platform.answers().clone()
        })
        .collect();
    let answers = &stages[5];

    let one_coin = JointInference::default();
    let full_matrix = JointInference {
        config: JointConfig {
            one_coin: false,
            smoothing: 0.5,
            ..JointConfig::default()
        },
    };
    let ds_one_coin = DawidSkene::default();
    let ds_full_matrix = DawidSkene {
        one_coin: false,
        estimate_prior: true,
        ..DawidSkene::default()
    };
    let cold_joint = |model: &JointInference| {
        let mut classifier = fresh_classifier(dataset.dim(), k, 83);
        model
            .infer(
                &dataset,
                answers,
                pool.profiles(),
                &mut classifier,
                &mut seeded(84),
            )
            .unwrap()
    };
    let mut out = vec![
        ("cold joint one-coin", result_digest(&cold_joint(&one_coin))),
        (
            "cold joint full-matrix",
            result_digest(&cold_joint(&full_matrix)),
        ),
        (
            "cold dawid-skene one-coin",
            result_digest(&ds_one_coin.infer(answers, k, pool.len()).unwrap()),
        ),
        (
            "cold dawid-skene full-matrix",
            result_digest(&ds_full_matrix.infer(answers, k, pool.len()).unwrap()),
        ),
    ];
    // Every third warm call sweeps all answered objects; the others sweep
    // the dirty and moving ones.
    let config = EngineConfig {
        full_sweep_every: 3,
        ..EngineConfig::default()
    };
    let engines = [
        (
            "joint engine one-coin",
            InferenceEngine::joint(one_coin, config.clone()),
        ),
        (
            "joint engine full-matrix",
            InferenceEngine::joint(full_matrix, config.clone()),
        ),
        (
            "dawid-skene engine one-coin",
            InferenceEngine::dawid_skene(ds_one_coin, config.clone()),
        ),
        (
            "dawid-skene engine full-matrix",
            InferenceEngine::dawid_skene(ds_full_matrix, config),
        ),
    ];
    for (what, mut engine) in engines {
        let mut classifier = fresh_classifier(dataset.dim(), k, 85);
        let mut rng = seeded(86);
        let mut h = 0u64;
        for stage in &stages {
            let r = engine
                .infer(&dataset, stage, pool.profiles(), &mut classifier, &mut rng)
                .unwrap();
            h = h.rotate_left(7) ^ result_digest(&r);
        }
        out.push((what, h));
    }
    out
}

#[test]
fn em_bits_hold_across_several_chunks() {
    for threads in [1, 4] {
        let got = crowdrl::linalg::pool::with_threads(threads, em_runs_spanning_several_chunks);
        if std::env::var("GOLDEN_CAPTURE").is_ok() {
            println!("GOLDEN_MULTI_CHUNK_EM at {threads} threads:");
            for (what, d) in &got {
                println!("    (\"{what}\", {d:#018x}),");
            }
            continue;
        }
        assert_eq!(got.len(), GOLDEN_MULTI_CHUNK_EM.len());
        for ((what, d), (want_what, want)) in got.iter().zip(GOLDEN_MULTI_CHUNK_EM) {
            assert_eq!(what, want_what);
            assert_eq!(d, want, "{what} drifted at {threads} threads");
        }
    }
}
