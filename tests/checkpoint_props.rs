//! Corrupted checkpoints never panic the decoder.
//!
//! Two real checkpoints — one cut from a short one-project run under
//! mixed faults and backoff, one from a two-project service run — are
//! mutated the ways a damaged file is: truncated at a random char
//! boundary, one random char replaced by a random char (multi-byte
//! included), or one random object field dropped. Decoding must return
//! either a checkpoint or the typed corrupt-checkpoint error, never
//! panic. A checkpoint that decodes but does not fit the run it resumes
//! (a vector of the wrong length, an object or annotator id out of range)
//! must likewise fail to restore with a typed error.

use crowdrl::obs::json::{parse, Value};
use crowdrl::prelude::*;
use crowdrl::serve::core_loop::CoreState;
use crowdrl::serve::{AsyncRuntime, ProjectCheckpoint, RunControl, RunOutcome, SupervisorConfig};
use crowdrl::sim::FaultPlan;
use crowdrl::types::rng::seeded;
use crowdrl::types::Error;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Keep the `halt_at`-th checkpoint a sink is handed, and halt there.
fn keep_nth(
    halt_at: usize,
    kept: &mut Option<String>,
) -> impl FnMut(RunCheckpoint) -> RunControl + '_ {
    let mut seen = 0usize;
    move |checkpoint: RunCheckpoint| {
        seen += 1;
        if seen == halt_at {
            *kept = Some(checkpoint.encode());
            RunControl::Halt
        } else {
            RunControl::Continue
        }
    }
}

/// A short one-project run under mixed faults and backoff, with a
/// checkpoint every 2 refreshes.
fn one_project_run() -> (Dataset, AnnotatorPool, CrowdRlConfig, ServeConfig) {
    let mut rng = seeded(0xC4EC);
    let dataset = DatasetSpec::gaussian("ckpt", 30, 4, 2)
        .with_separation(2.5)
        .generate(&mut rng)
        .unwrap();
    let pool = PoolSpec::new(3, 1).generate(2, &mut rng).unwrap();
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
        })
        .with_checkpoint_every(2);
    let config = CrowdRlConfig::builder().budget(80.0).build().unwrap();
    (dataset, pool, config, serve)
}

fn one_project_checkpoint() -> String {
    let (dataset, pool, config, serve) = one_project_run();
    let mut kept = None;
    let outcome = AsyncRuntime::new(config, serve)
        .run_with_checkpoints(&dataset, &pool, &mut seeded(5), &mut keep_nth(2, &mut kept))
        .unwrap();
    assert!(matches!(outcome, RunOutcome::Halted));
    kept.expect("a checkpoint was cut")
}

fn service_checkpoint() -> String {
    let mut rng = seeded(0xC4ED);
    let pool = PoolSpec::new(6, 2).generate(2, &mut rng).unwrap();
    let specs: Vec<ProjectSpec> = (0..2)
        .map(|p| {
            let dataset = DatasetSpec::gaussian(format!("ckpt{p}"), 16 + 4 * p, 4, 2)
                .with_separation(2.5)
                .generate(&mut rng)
                .unwrap();
            let config = CrowdRlConfig::builder()
                .budget(48.0 + 8.0 * p as f64)
                .build()
                .unwrap();
            ProjectSpec::new(format!("project-{p}"), config, dataset)
        })
        .collect();
    let config = ServiceConfig::default()
        .with_shards(2)
        .with_watermarks(8, 20.0)
        .with_checkpoint_every(2);
    let mut kept = None;
    let outcome = Service::new(config)
        .unwrap()
        .run_with_checkpoints(&specs, &pool, &mut seeded(6), &mut keep_nth(2, &mut kept))
        .unwrap();
    assert!(matches!(outcome, ServiceRunOutcome::Halted));
    kept.expect("a checkpoint was cut")
}

/// Both encoded checkpoints, cut once per test binary.
fn checkpoints() -> &'static [String; 2] {
    static CHECKPOINTS: OnceLock<[String; 2]> = OnceLock::new();
    CHECKPOINTS.get_or_init(|| [one_project_checkpoint(), service_checkpoint()])
}

/// Replacement characters: JSON structure, hex digits and near misses,
/// a sign, and one- to four-byte UTF-8.
const CHARS: [char; 16] = [
    '"', '{', '}', '[', ']', ',', ':', '0', 'f', 'g', '+', '-', '\\', 'é', '€', '𝄞',
];

/// Byte offset of the `n`-th char boundary of `text` (modulo its length).
fn boundary(text: &str, n: u64) -> usize {
    let chars = text.chars().count() as u64;
    text.char_indices()
        .map(|(i, _)| i)
        .nth((n % chars) as usize)
        .unwrap_or(text.len())
}

/// Count the objects with at least one field, in pre-order.
fn count_objects(v: &Value) -> usize {
    match v {
        Value::Obj(fields) => {
            usize::from(!fields.is_empty()) + fields.values().map(count_objects).sum::<usize>()
        }
        Value::Arr(items) => items.iter().map(count_objects).sum(),
        _ => 0,
    }
}

/// Drop one field of the `target`-th non-empty object (pre-order);
/// `pick` chooses which field. Returns true once the field is gone.
fn drop_field(v: &mut Value, target: &mut usize, pick: u64) -> bool {
    match v {
        Value::Obj(fields) => {
            if !fields.is_empty() {
                if *target == 0 {
                    let key = fields.keys().nth(pick as usize % fields.len()).cloned();
                    fields.remove(&key.expect("non-empty object"));
                    return true;
                }
                *target -= 1;
            }
            fields
                .values_mut()
                .any(|child| drop_field(child, target, pick))
        }
        Value::Arr(items) => items
            .iter_mut()
            .any(|child| drop_field(child, target, pick)),
        _ => false,
    }
}

fn mutate(text: &str, kind: u8, at: u64, pick: u64) -> String {
    match kind {
        0 => text[..boundary(text, at)].to_string(),
        1 => {
            let start = boundary(text, at);
            let end = start + text[start..].chars().next().map_or(0, char::len_utf8);
            let replacement = CHARS[pick as usize % CHARS.len()];
            format!("{}{replacement}{}", &text[..start], &text[end..])
        }
        _ => {
            let mut value = parse(text).expect("a checkpoint is valid JSON");
            let mut target = (at % count_objects(&value) as u64) as usize;
            assert!(drop_field(&mut value, &mut target, pick));
            value.render()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        max_shrink_iters: 64,
    })]

    #[test]
    fn corrupted_checkpoints_decode_or_fail_typed(
        which in 0usize..2,
        kind in 0u8..3,
        at in 0u64..u64::MAX,
        pick in 0u64..u64::MAX,
    ) {
        let text = &checkpoints()[which];
        let mutated = mutate(text, kind, at, pick);
        match RunCheckpoint::decode(&mutated) {
            Ok(_) | Err(ServiceError::CorruptCheckpoint(_)) => {}
            Err(other) => prop_assert!(false, "untyped decode failure: {other}"),
        }
    }
}

#[test]
fn the_fixtures_decode_and_re_encode_identically() {
    for text in checkpoints() {
        let decoded = RunCheckpoint::decode(text).unwrap();
        assert_eq!(&decoded.encode(), text);
    }
}

#[test]
fn restoring_a_checkpoint_that_does_not_fit_the_run_fails_typed() {
    let (dataset, pool, config, serve) = one_project_run();
    let n = dataset.len();
    type Mutation = fn(&mut CoreState, usize);
    let cases: [(&str, Mutation); 6] = [
        ("truncated confidences", |c, _| {
            c.run.prev_confidence.truncate(1)
        }),
        ("truncated quarantine states", |c, _| {
            c.quarantine.truncate(1)
        }),
        ("annotator outside the pool", |c, _| {
            c.outstanding[0].assignments[0].annotators[0] = AnnotatorId(999)
        }),
        ("assigned object outside the dataset", |c, n| {
            c.outstanding[0].assignments[0].object = ObjectId(n)
        }),
        ("guessed object outside the dataset", |c, n| {
            c.outstanding[0].phi_guesses.push((ObjectId(n), 0))
        }),
        ("confidence for an object outside the dataset", |c, n| {
            c.outstanding[0].conf_before.push((ObjectId(n), 0.5))
        }),
    ];
    for (what, mutate) in cases {
        let mut checkpoint = RunCheckpoint::decode(&checkpoints()[0]).unwrap();
        let ProjectCheckpoint::Active(project) = &mut checkpoint.projects[0] else {
            panic!("the cut run's project is active");
        };
        assert!(
            !project.core.outstanding.is_empty(),
            "the cut has a pending batch"
        );
        mutate(&mut project.core, n);
        let resumed = AsyncRuntime::new(config.clone(), serve.clone()).resume(
            &dataset,
            &pool,
            &mut seeded(5),
            checkpoint,
            &mut |_| RunControl::Continue,
        );
        match resumed {
            Err(Error::DimensionMismatch { actual, .. }) => {
                assert_eq!(actual, 1, "{what}: the reported size is the truncated one")
            }
            Err(Error::InvalidParameter(_)) => {}
            other => panic!("{what}: want a typed restore error, got {other:?}"),
        }
    }
}
