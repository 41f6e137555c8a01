//! Golden-trace regression test: a fixed-seed CrowdRL run is snapshotted
//! (inferred labels, budget spent, F1) and pinned here. Any refactor of the
//! hot paths — parallel kernels, cached featurization, batched DQN scoring
//! — must reproduce the snapshot bit-for-bit; both the batch workflow and
//! the asynchronous runtime are covered.
//!
//! The labels alone do not see the learning side of the loop, so a second
//! layer pins whole trajectories: an FNV-1a digest over every label
//! state, the run's totals, every per-iteration statistic (reward, spend
//! and TD loss as bits) and, for batch runs, the trained DQN weights.
//! Both loops are digested under every inference model, the cold
//! engine, the M1/M2 ablations, ε-greedy exploration and a run without
//! the classifier fallback, plus the faulted and quarantine runs of
//! `tests/chaos.rs`.
//!
//! A third layer pins the bytes of every checkpoint the faulted run (in
//! both execution modes) and a two-project service run cut, so a change
//! to the checkpoint writer must reproduce the format exactly or bump
//! its version.
//!
//! If a PR *intentionally* changes the numerics (new algorithm, not a new
//! schedule), re-capture by running with `GOLDEN_CAPTURE=1` and paste the
//! printed constants below.

use crowdrl::core::{Ablation, EngineConfig, Exploration, InferenceModel, IterationStats};
use crowdrl::eval::evaluate_labels;
use crowdrl::obs::json::parse;
use crowdrl::prelude::*;
use crowdrl::serve::{AsyncRuntime, QuarantineConfig, RunControl, RunOutcome, SupervisorConfig};
use crowdrl::sim::{FaultPlan, QualityDrift};
use crowdrl::types::rng::seeded;

/// Labels rendered as one character per object: the class digit, or `.`
/// for unlabelled. Compact enough to pin, precise enough to catch any
/// single flipped label.
fn render(labels: &[Option<ClassId>]) -> String {
    labels
        .iter()
        .map(|l| match l {
            Some(ClassId(c)) => char::from_digit(*c as u32, 10).unwrap_or('?'),
            None => '.',
        })
        .collect()
}

fn scenario() -> (Dataset, AnnotatorPool) {
    let mut rng = seeded(0xD00D);
    let dataset = DatasetSpec::gaussian("golden", 80, 4, 2)
        .with_separation(2.5)
        .generate(&mut rng)
        .unwrap();
    let pool = PoolSpec::new(3, 1).generate(2, &mut rng).unwrap();
    (dataset, pool)
}

fn config(budget: f64) -> CrowdRlConfig {
    CrowdRlConfig::builder().budget(budget).build().unwrap()
}

/// F1 rounded to 6 decimal places: fixed precision makes the constant
/// readable while still catching any real numeric drift.
fn f1_fixed(dataset: &Dataset, labels: &[Option<ClassId>]) -> f64 {
    let m = evaluate_labels(dataset, labels).unwrap();
    (m.f1 * 1e6).round() / 1e6
}

const GOLDEN_BATCH_LABELS: &str =
    "10100111010010111000000000101101010100001000100011000100000110011100011111111110";
const GOLDEN_BATCH_SPENT: f64 = 220.0;
const GOLDEN_BATCH_F1: f64 = 0.953488;

const GOLDEN_ASYNC_LABELS: &str =
    "11000111011010111010101000101001010100001000100010000100010110011100011111111110";
const GOLDEN_ASYNC_SPENT: f64 = 220.0;
const GOLDEN_ASYNC_F1: f64 = 0.939759;

#[test]
fn batch_run_reproduces_the_golden_trace() {
    let (dataset, pool) = scenario();
    let mut rng = seeded(77);
    let outcome = CrowdRl::new(config(220.0))
        .run(&dataset, &pool, &mut rng)
        .unwrap();
    let labels = render(&outcome.labels);
    let f1 = f1_fixed(&dataset, &outcome.labels);
    if std::env::var("GOLDEN_CAPTURE").is_ok() {
        println!("BATCH_LABELS={labels}");
        println!("BATCH_SPENT={:?}", outcome.budget_spent);
        println!("BATCH_F1={f1:?}");
        return;
    }
    assert_eq!(labels, GOLDEN_BATCH_LABELS, "inferred labels drifted");
    assert_eq!(
        outcome.budget_spent, GOLDEN_BATCH_SPENT,
        "budget spend drifted"
    );
    assert_eq!(f1, GOLDEN_BATCH_F1, "F1 drifted");
}

#[test]
fn async_run_reproduces_the_golden_trace() {
    let (dataset, pool) = scenario();
    let mut rng = seeded(78);
    let result = CrowdRl::new(config(220.0))
        .run_async(&dataset, &pool, &ServeConfig::default(), &mut rng)
        .unwrap();
    let labels = render(&result.outcome.labels);
    let f1 = f1_fixed(&dataset, &result.outcome.labels);
    if std::env::var("GOLDEN_CAPTURE").is_ok() {
        println!("ASYNC_LABELS={labels}");
        println!("ASYNC_SPENT={:?}", result.outcome.budget_spent);
        println!("ASYNC_F1={f1:?}");
        return;
    }
    assert_eq!(labels, GOLDEN_ASYNC_LABELS, "inferred labels drifted");
    assert_eq!(
        result.outcome.budget_spent, GOLDEN_ASYNC_SPENT,
        "budget spend drifted"
    );
    assert_eq!(f1, GOLDEN_ASYNC_F1, "F1 drifted");
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn stats(&mut self, s: &IterationStats) {
        self.word(s.iteration as u64);
        self.word(s.enriched as u64);
        self.word(s.selected as u64);
        self.word(s.answers as u64);
        self.word(s.spend.to_bits());
        self.word(s.reward.to_bits());
        self.word(s.labelled_total as u64);
        match s.td_loss {
            Some(l) => {
                self.word(1);
                self.word(u64::from(l.to_bits()));
            }
            None => self.word(0),
        }
    }
}

/// Digest of a whole trajectory: label states, totals, the per-iteration
/// trace and (when given) the trained DQN parameters.
fn digest(outcome: &LabellingOutcome, dqn: Option<&[f32]>) -> u64 {
    let mut h = Fnv::new();
    for state in &outcome.label_states {
        match state {
            LabelState::Unlabelled => h.word(0),
            LabelState::Inferred(c) => {
                h.word(1);
                h.word(c.0 as u64);
            }
            LabelState::Enriched(c) => {
                h.word(2);
                h.word(c.0 as u64);
            }
        }
    }
    h.word(outcome.budget_spent.to_bits());
    h.word(outcome.iterations as u64);
    h.word(outcome.total_answers as u64);
    h.word(outcome.enriched_count as u64);
    h.word(outcome.fallback_count as u64);
    h.word(outcome.trace.len() as u64);
    for s in &outcome.trace {
        h.stats(s);
    }
    if let Some(params) = dqn {
        h.word(params.len() as u64);
        for p in params {
            h.word(u64::from(p.to_bits()));
        }
    }
    h.0
}

/// The configurations both loops are digested under.
fn digest_configs() -> Vec<(&'static str, CrowdRlConfig)> {
    let base = || CrowdRlConfig::builder().budget(220.0);
    vec![
        ("default", base().build().unwrap()),
        ("pm", base().inference(InferenceModel::Pm).build().unwrap()),
        (
            "dawid_skene",
            base()
                .inference(InferenceModel::DawidSkene)
                .build()
                .unwrap(),
        ),
        (
            "majority_vote",
            base()
                .inference(InferenceModel::MajorityVote)
                .build()
                .unwrap(),
        ),
        (
            "cold_engine",
            base()
                .engine(EngineConfig {
                    warm_start: false,
                    ..EngineConfig::default()
                })
                .build()
                .unwrap(),
        ),
        (
            "m1",
            base()
                .ablation(Ablation {
                    random_task_selection: true,
                    ..Ablation::default()
                })
                .build()
                .unwrap(),
        ),
        (
            "m2",
            base()
                .ablation(Ablation {
                    random_task_assignment: true,
                    ..Ablation::default()
                })
                .build()
                .unwrap(),
        ),
        (
            "epsilon_greedy",
            base()
                .exploration(Exploration::EpsilonGreedy {
                    start: 0.5,
                    end: 0.05,
                    decay_steps: 20,
                })
                .build()
                .unwrap(),
        ),
        ("no_fallback", base().no_final_fallback().build().unwrap()),
    ]
}

const GOLDEN_BATCH_DIGESTS: [(&str, u64); 9] = [
    ("default", 0x4ff240195de2837c),
    ("pm", 0x78888dde4541a304),
    ("dawid_skene", 0xbd8f1d5ed334c801),
    ("majority_vote", 0x8c35a5166c57653a),
    ("cold_engine", 0x65a004419e232134),
    ("m1", 0x9308b304845317bd),
    ("m2", 0x4dc5c412a29f838b),
    ("epsilon_greedy", 0x71e386dca19f8f4b),
    ("no_fallback", 0xfb89937709ef44cb),
];

const GOLDEN_ASYNC_DIGESTS: [(&str, u64); 9] = [
    ("default", 0x1098f628cf9a7a92),
    ("pm", 0x5df58d3fc6e92b1e),
    ("dawid_skene", 0xc1db9ec0f723f490),
    ("majority_vote", 0x2d56ebd8bfe467cc),
    ("cold_engine", 0xfef0cef1e83fd4ab),
    ("m1", 0xb6bd003141b92cd5),
    ("m2", 0x30027271740d9885),
    ("epsilon_greedy", 0x0c6970519192a9c8),
    ("no_fallback", 0xce9a70fb5dbb909d),
];

/// The faulted kill/restore run and the spammer-drift quarantine run of
/// `tests/chaos.rs`; the second is the only one that filters answers
/// through the quarantine.
const GOLDEN_CHAOS_DIGESTS: [(&str, u64); 2] = [
    ("faulted", 0xbc8207d926e04739),
    ("quarantine", 0xc725dfff89b3e9df),
];

/// Compare `got` against `want` by name; capture mode prints the table.
fn check_digests(table: &str, got: &[(&'static str, u64)], want: &[(&str, u64)]) {
    if std::env::var("GOLDEN_CAPTURE").is_ok() {
        println!("{table}:");
        for (name, d) in got {
            println!("    (\"{name}\", {d:#018x}),");
        }
        return;
    }
    let drifted: Vec<&str> = got
        .iter()
        .zip(want)
        .filter(|((g, gd), (w, wd))| g != w || gd != wd)
        .map(|((g, _), _)| *g)
        .collect();
    assert_eq!(got.len(), want.len(), "{table}: run count changed");
    assert!(
        drifted.is_empty(),
        "{table}: trajectories drifted: {drifted:?}"
    );
}

#[test]
fn batch_trajectories_reproduce_the_golden_digests() {
    let (dataset, pool) = scenario();
    let got: Vec<(&'static str, u64)> = digest_configs()
        .into_iter()
        .map(|(name, config)| {
            let (outcome, params) = CrowdRl::new(config)
                .run_detailed(&dataset, &pool, &mut seeded(77))
                .unwrap();
            (name, digest(&outcome, Some(&params)))
        })
        .collect();
    check_digests("GOLDEN_BATCH_DIGESTS", &got, &GOLDEN_BATCH_DIGESTS);
}

#[test]
fn async_trajectories_reproduce_the_golden_digests() {
    let (dataset, pool) = scenario();
    let got: Vec<(&'static str, u64)> = digest_configs()
        .into_iter()
        .map(|(name, config)| {
            let result = CrowdRl::new(config)
                .run_async(&dataset, &pool, &ServeConfig::default(), &mut seeded(78))
                .unwrap();
            (name, digest(&result.outcome, None))
        })
        .collect();
    check_digests("GOLDEN_ASYNC_DIGESTS", &got, &GOLDEN_ASYNC_DIGESTS);
}

/// The faulted serve config of `chaos_serve` in tests/chaos.rs: mixed
/// faults, backoff on retries, a checkpoint every 2 refreshes.
fn faulted_serve() -> ServeConfig {
    ServeConfig::default()
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
        .with_checkpoint_every(2)
}

#[test]
fn chaos_trajectories_reproduce_the_golden_digests() {
    let (dataset, pool) = scenario();
    // Same serve configs as `chaos_serve` and
    // `quarantine_trips_on_spammer_drift` in tests/chaos.rs.
    let quarantine = ServeConfig::default()
        .with_faults(FaultPlan {
            drifts: vec![QualityDrift {
                annotator: AnnotatorId(0),
                at: 0.0,
            }],
            ..FaultPlan::default()
        })
        .with_quarantine(QuarantineConfig {
            enabled: true,
            min_answers: 6,
            ..QuarantineConfig::default()
        });
    let got: Vec<(&'static str, u64)> = [("faulted", faulted_serve()), ("quarantine", quarantine)]
        .into_iter()
        .map(|(name, serve)| {
            let result = AsyncRuntime::new(config(220.0), serve)
                .run(&dataset, &pool, &mut seeded(78))
                .unwrap();
            (name, digest(&result.outcome, None))
        })
        .collect();
    check_digests("GOLDEN_CHAOS_DIGESTS", &got, &GOLDEN_CHAOS_DIGESTS);
}

/// FNV-1a digests of the faulted run's 8 checkpoints, in cut order. The
/// run cuts the same bytes at every execution width. Captured at
/// checkpoint format version 3 (one successor-set table per replay).
const GOLDEN_CHAOS_CUTS: [u64; 8] = [
    0x359feb6f99e4a300,
    0xd31fd4f5d2c21b3d,
    0x4661e0c04fa9babb,
    0x8f3e4cdc3f8b9c30,
    0xe0a9c1cb9a8580ea,
    0x25ca821f9d56633f,
    0xbfa28f0b91204fb6,
    0x7075d41ac100583e,
];

/// FNV-1a digests of the two-project service run's 3 checkpoints.
const GOLDEN_SERVICE_CUTS: [u64; 3] = [0x9051a8a1d1c0e8a7, 0x67fccbf9d6e01a48, 0x1ba81ead4468e472];

/// Digest each encoded cut. Every cut must already be canonical JSON:
/// parsing and re-rendering it gives the same bytes, so every object's
/// keys are written in sorted order.
fn cut_digests(table: &str, cuts: &[String]) -> Vec<u64> {
    cuts.iter()
        .enumerate()
        .map(|(i, text)| {
            let value = parse(text).expect("a checkpoint is valid JSON");
            assert!(
                value.render() == *text,
                "{table}: cut {i} is not canonical JSON"
            );
            let mut h = Fnv::new();
            h.bytes(text.as_bytes());
            h.0
        })
        .collect()
}

/// Compare cut digests against `want`; capture mode prints the table.
fn check_cuts(table: &str, got: &[u64], want: &[u64]) {
    if std::env::var("GOLDEN_CAPTURE").is_ok() {
        println!("{table}:");
        for d in got {
            println!("    {d:#018x},");
        }
        return;
    }
    assert_eq!(got.len(), want.len(), "{table}: cut count changed");
    let drifted: Vec<usize> = (0..got.len()).filter(|&i| got[i] != want[i]).collect();
    assert!(drifted.is_empty(), "{table}: cuts {drifted:?} drifted");
}

#[test]
fn checkpoint_cuts_reproduce_the_golden_digests() {
    let (dataset, pool) = scenario();
    for mode in [ExecMode::SingleThread, ExecMode::WorkerPool { workers: 4 }] {
        let mut cuts = Vec::new();
        let outcome = AsyncRuntime::new(config(220.0), faulted_serve().with_mode(mode))
            .run_with_checkpoints(&dataset, &pool, &mut seeded(78), &mut |cut| {
                cuts.push(cut.encode());
                RunControl::Continue
            })
            .unwrap();
        assert!(matches!(outcome, RunOutcome::Completed(_)));
        let table = format!("GOLDEN_CHAOS_CUTS ({mode:?})");
        check_cuts(&table, &cut_digests(&table, &cuts), &GOLDEN_CHAOS_CUTS);
    }

    // The two-project service run of tests/checkpoint_props.rs, run to
    // the end.
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
    let service = ServiceConfig::default()
        .with_shards(2)
        .with_watermarks(8, 20.0)
        .with_checkpoint_every(2);
    let mut cuts = Vec::new();
    let outcome = Service::new(service)
        .unwrap()
        .run_with_checkpoints(&specs, &pool, &mut seeded(6), &mut |cut| {
            cuts.push(cut.encode());
            RunControl::Continue
        })
        .unwrap();
    assert!(matches!(outcome, ServiceRunOutcome::Completed(_)));
    let table = "GOLDEN_SERVICE_CUTS";
    check_cuts(table, &cut_digests(table, &cuts), &GOLDEN_SERVICE_CUTS);
}
