//! Corrupted checkpoints never panic the decoder.
//!
//! Two real checkpoints — one cut from a short one-project run under
//! mixed faults and backoff, one from a two-project service run — are
//! mutated the ways a damaged file is: truncated at a random char
//! boundary, one random char replaced by a random char (multi-byte
//! included), or one random object field dropped. Decoding must return
//! either a checkpoint or the typed corrupt-checkpoint error, never
//! panic. A checkpoint that decodes but does not fit the run it resumes
//! (a vector or replay embedding of the wrong length, an object or
//! annotator id or replay head out of range, a pending event for an
//! assignment its ledger never issued, a service-wide assignment id held
//! twice) must likewise fail to restore with a typed error.
//!
//! Each DQN replay writes every distinct successor-candidate set once
//! and each transition refers to its set by index: a bad index is a
//! typed error, and decoding rebuilds the same sharing the live replay
//! had.

use crowdrl::obs::json::{parse, Value};
use crowdrl::prelude::*;
use crowdrl::rl::DqnConfig;
use crowdrl::serve::{
    ActiveProjectState, AssignmentRecord, AssignmentStatus, AsyncRuntime, EventKind,
    ProjectCheckpoint, RunControl, RunOutcome, SupervisorConfig,
};
use crowdrl::sim::FaultPlan;
use crowdrl::types::rng::seeded;
use crowdrl::types::{AssignmentId, Error};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// Keep the `halt_at`-th checkpoint a sink is handed, and halt there.
fn keep_nth(
    halt_at: usize,
    kept: &mut Option<RunCheckpoint>,
) -> impl FnMut(RunCheckpoint) -> RunControl + '_ {
    let mut seen = 0usize;
    move |checkpoint: RunCheckpoint| {
        seen += 1;
        if seen == halt_at {
            *kept = Some(checkpoint);
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

fn one_project_checkpoint() -> RunCheckpoint {
    let (dataset, pool, config, serve) = one_project_run();
    let mut kept = None;
    let outcome = AsyncRuntime::new(config, serve)
        .run_with_checkpoints(&dataset, &pool, &mut seeded(5), &mut keep_nth(2, &mut kept))
        .unwrap();
    assert!(matches!(outcome, RunOutcome::Halted));
    kept.expect("a checkpoint was cut")
}

fn service_checkpoint() -> RunCheckpoint {
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

/// Both checkpoints as the runs handed them over, cut once per test
/// binary.
fn live_checkpoints() -> &'static [RunCheckpoint; 2] {
    static LIVE: OnceLock<[RunCheckpoint; 2]> = OnceLock::new();
    LIVE.get_or_init(|| [one_project_checkpoint(), service_checkpoint()])
}

/// Both checkpoints, encoded.
fn checkpoints() -> &'static [String; 2] {
    static CHECKPOINTS: OnceLock<[String; 2]> = OnceLock::new();
    CHECKPOINTS.get_or_init(|| live_checkpoints().each_ref().map(RunCheckpoint::encode))
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
    type Mutation = fn(&mut ActiveProjectState, usize);
    let cases: [(&str, Mutation); 14] = [
        ("truncated confidences", |p, _| {
            p.core.run.prev_confidence.truncate(1)
        }),
        ("truncated quarantine states", |p, _| {
            p.core.quarantine.truncate(1)
        }),
        ("annotator outside the pool", |p, _| {
            p.core.outstanding[0].assignments[0].annotators[0] = AnnotatorId(999)
        }),
        ("assigned object outside the dataset", |p, n| {
            p.core.outstanding[0].assignments[0].object = ObjectId(n)
        }),
        ("guessed object outside the dataset", |p, n| {
            p.core.outstanding[0].phi_guesses.push((ObjectId(n), 0))
        }),
        ("confidence for an object outside the dataset", |p, n| {
            p.core.outstanding[0].conf_before.push((ObjectId(n), 0.5))
        }),
        ("replay successors narrower than the embedding", |p, _| {
            let mut replay = p.core.run.agent.dqn.replay.iter_mut();
            let t = replay.find(|t| !t.next_candidates.is_empty()).unwrap();
            t.next_candidates = vec![vec![0.0]].into()
        }),
        ("replay state-action narrower than the embedding", |p, _| {
            p.core.run.agent.dqn.replay[0].state_action.truncate(1)
        }),
        ("replay head at the replay capacity", |p, _| {
            p.core.run.agent.dqn.replay_head = DqnConfig::default().replay_capacity
        }),
        (
            "in-flight ledger record for an annotator outside the pool",
            |p, _| in_flight_record(p).annotator = AnnotatorId(999),
        ),
        (
            "in-flight ledger record for an object outside the dataset",
            |p, n| in_flight_record(p).object = ObjectId(n),
        ),
        (
            "pending event for an assignment the ledger never issued",
            |p, _| {
                let shard = p.shards.iter_mut().find(|s| !s.events.is_empty()).unwrap();
                shard.events[0].kind = EventKind::Deliver(AssignmentId(9999))
            },
        ),
        ("one service-wide assignment id on two records", |p, _| {
            let shard = p.shards.iter_mut().find(|s| s.uids.len() > 1).unwrap();
            shard.uids[1] = shard.uids[0]
        }),
        ("an assignment id the service has not issued yet", |p, _| {
            let shard = p.shards.iter_mut().find(|s| !s.uids.is_empty()).unwrap();
            shard.uids[0] = u64::MAX
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
        mutate(project, n);
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

/// The first in-flight assignment in any of the project's shard ledgers.
fn in_flight_record(p: &mut ActiveProjectState) -> &mut AssignmentRecord {
    p.shards
        .iter_mut()
        .flat_map(|s| &mut s.records)
        .find(|r| r.status == AssignmentStatus::InFlight)
        .expect("the cut has an assignment in flight")
}

/// The distinct non-empty successor sets (by `Arc` identity) across
/// every active project's replay, and the transitions that have one.
fn successor_sharing(checkpoint: &RunCheckpoint) -> (usize, usize) {
    let mut sets = HashSet::new();
    let mut transitions = 0;
    for project in &checkpoint.projects {
        if let ProjectCheckpoint::Active(state) = project {
            for t in &state.core.run.agent.dqn.replay {
                if !t.next_candidates.is_empty() {
                    sets.insert(Arc::as_ptr(&t.next_candidates));
                    transitions += 1;
                }
            }
        }
    }
    (sets.len(), transitions)
}

#[test]
fn decoding_rebuilds_the_replays_shared_successor_sets() {
    for (live, text) in live_checkpoints().iter().zip(checkpoints()) {
        let (sets, transitions) = successor_sharing(live);
        assert!(
            0 < sets && sets < transitions,
            "the fixture shares successor sets: {sets} sets, {transitions} transitions"
        );
        let decoded = RunCheckpoint::decode(text).unwrap();
        assert_eq!(successor_sharing(&decoded), (sets, transitions));
    }
}

/// Rewrite a parsed checkpoint as format version 2 wrote it: each
/// transition carries its successor set in full, and there is no table.
fn as_version_2(v: &mut Value) {
    match v {
        Value::Obj(fields) => {
            if let Some(Value::Arr(sets)) = fields.remove("successors") {
                let Some(Value::Arr(replay)) = fields.get_mut("replay") else {
                    panic!("a successor table sits beside its replay");
                };
                for t in replay {
                    let Value::Obj(t) = t else {
                        panic!("a transition is an object");
                    };
                    let next = t["next"].as_f64().expect("an index") as usize;
                    t.insert("next".into(), sets[next].clone());
                }
            }
            if let Some(version) = fields.get_mut("version") {
                *version = Value::Num(2.0);
            }
            fields.values_mut().for_each(as_version_2);
        }
        Value::Arr(items) => items.iter_mut().for_each(as_version_2),
        _ => {}
    }
}

#[test]
fn a_bad_successor_index_or_an_old_version_fails_typed() {
    let text = &checkpoints()[0];
    let first = "\"next\":0,";
    assert!(text.contains(first), "the first transition names set 0");
    for bad in ["\"next\":9007199254740992,", "\"next\":0.5,"] {
        match RunCheckpoint::decode(&text.replacen(first, bad, 1)) {
            Err(ServiceError::CorruptCheckpoint(_)) => {}
            other => panic!("{bad} must be a corrupt checkpoint, got {other:?}"),
        }
    }
    // A version 2 document is refused by its version, not by the first
    // field it lacks.
    let mut old = parse(text).unwrap();
    as_version_2(&mut old);
    match RunCheckpoint::decode(&old.render()) {
        Err(ServiceError::CorruptCheckpoint(msg)) => assert!(
            msg.contains("unsupported checkpoint version 2"),
            "want the version error, got {msg:?}"
        ),
        other => panic!("a version 2 document must be refused, got {other:?}"),
    }
}
