//! CrowdRL benchmark: one command, three named workloads, end-to-end
//! metrics with tracing off and per-layer metrics from a traced run.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each invocation expands `--seed` into the workload's instances, runs
//! them in turn (and again, round-robin) until every instance ran, one
//! ran twice, and `--seconds` have passed, and checks every run's outputs.
//! It prints a human-readable table and, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones. With `--trace 1` each
//! instance runs untraced and then traced, and the metrics are the
//! per-layer rollup of the first instance's traced run (see `rollup.rs`).
//! A failed run or output check makes the command exit non-zero.

mod rollup;
mod workloads;

use crowdrl_obs as obs;
use rollup::Detail;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Kind, Summary, INSTANCES};

/// Whole-workload set-ups timed per invocation; `setup_s` reports their
/// median.
const SETUP_REPS: usize = 9;

const USAGE: &str = "usage: crowdrl-perfbench --workload <paper|tenants|faulted> \
                     [--seed N (default 1)] [--seconds S (default 30)] [--trace 0|1 (default 0)]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1;
    let mut seconds = 30;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process, in MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Runs so far: their tally, each instance's first summary (every later
/// run of an instance must match it), and each instance's wall times.
struct Runs {
    kind: Kind,
    seed: u64,
    attempted: usize,
    failed: usize,
    first: Vec<Option<Summary>>,
    walls: Vec<Vec<f64>>,
    /// Per-run share of dispatched assignments that got a charged answer;
    /// 0 for a run that failed or failed its checks.
    delivered_shares: Vec<f64>,
}

impl Runs {
    fn new(kind: Kind, seed: u64) -> Self {
        Self {
            kind,
            seed,
            attempted: 0,
            failed: 0,
            first: vec![None; INSTANCES],
            walls: vec![Vec::new(); INSTANCES],
            delivered_shares: Vec::new(),
        }
    }

    /// Set up and run instance `index` once, check its outputs, and tally
    /// the run. Returns its wall seconds when it passed.
    fn run(&mut self, index: usize) -> Option<f64> {
        self.attempted += 1;
        let result = self
            .kind
            .setup(self.seed, index)
            .and_then(|prepared| prepared.run());
        let (mut summary, wall) = match result {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("instance {index}: {e}");
                self.failed += 1;
                self.delivered_shares.push(0.0);
                return None;
            }
        };
        if let Some(first) = &self.first[index] {
            // Reference numerics are deterministic: a repeat must give the
            // same labels and spend bits, traced or not.
            if summary.labels != first.labels || summary.spend_bits != first.spend_bits {
                summary
                    .problems
                    .push("labels or spend differ from the instance's first run".into());
            }
        }
        if !summary.problems.is_empty() {
            for p in &summary.problems {
                eprintln!("instance {index}: output check failed: {p}");
            }
            self.failed += 1;
            self.delivered_shares.push(0.0);
            return None;
        }
        self.delivered_shares
            .push(summary.delivered as f64 / summary.dispatched.max(1) as f64);
        self.first[index].get_or_insert(summary);
        Some(wall)
    }
}

/// One printed metric: name, value, unit and a human-readable note.
type Metric = (String, f64, &'static str, String);

fn print_metrics(correct: bool, runs: &Runs, metrics: &[Metric]) {
    println!("\n{:<30} {:>16} {:<6} detail", "metric", "value", "unit");
    for (name, value, unit, detail) in metrics {
        println!("{name:<30} {value:>16.6} {unit:<6} {detail}");
    }
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        runs.attempted, runs.failed
    );
    for (i, (name, value, unit, _)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
}

fn main() -> ExitCode {
    // A trace file named by the environment would be written outside the
    // checkout and would change what is measured; recording is switched on
    // only by `--trace 1`, into memory.
    std::env::remove_var("CROWDRL_TRACE");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let kind = args.kind;
    println!("workload   {}", kind.name());
    println!("inputs     {}", kind.shape());
    println!(
        "seed {}   seconds {}   trace {}   exec width {}   numeric Reference   simd.kernel {}   nproc {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        kind.width(),
        crowdrl_linalg::simd::kernel_name(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let lazy_s = workloads::lazy_init(kind.width());
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        for index in 0..INSTANCES {
            if let Err(e) = kind.setup(args.seed, index) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        setups.push(start.elapsed().as_secs_f64() / INSTANCES as f64);
    }
    let setup_s = lazy_s + median(&setups);

    let mut runs = Runs::new(kind, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let correct = if args.trace {
        traced(&mut runs, budget)
    } else {
        untraced(&mut runs, budget, setup_s)
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// End-to-end metrics, tracing off.
fn untraced(runs: &mut Runs, budget: Duration, setup_s: f64) -> bool {
    let k = INSTANCES;
    let start = Instant::now();
    let mut n = 0;
    // Every instance once, at least one repeat, then round-robin to the
    // end of the time budget.
    while n <= k || start.elapsed() < budget {
        if let Some(wall) = runs.run(n % k) {
            runs.walls[n % k].push(wall);
        }
        n += 1;
    }
    let correct = runs.failed == 0;
    let firsts: Vec<&Summary> = runs.first.iter().flatten().collect();
    let instance_walls: Vec<f64> = runs.walls.iter().map(|w| median(w)).collect();
    let wall_s = instance_walls.iter().sum::<f64>() / k as f64;
    let objects: usize = firsts.iter().map(|s| s.labels.len()).sum();
    let answers: usize = firsts.iter().map(|s| s.delivered).sum();
    let sum_or_zero = |f: fn(&Summary) -> f64| {
        if correct {
            firsts.iter().map(|s| f(s)).sum::<f64>()
        } else {
            0.0
        }
    };
    let accuracy = sum_or_zero(|s| s.correct as f64) / objects.max(1) as f64;
    let makespan = sum_or_zero(|s| s.makespan_tu) / k as f64;
    let total_wall: f64 = instance_walls.iter().sum();
    let answers_per_s = if correct && total_wall > 0.0 {
        answers as f64 / total_wall
    } else {
        0.0
    };
    let delivered_share =
        runs.delivered_shares.iter().sum::<f64>() / runs.delivered_shares.len().max(1) as f64;
    let per_instance = instance_walls
        .iter()
        .zip(&runs.walls)
        .map(|(m, w)| format!("{m:.3}/{}", w.len()))
        .collect::<Vec<_>>()
        .join(" ");
    let metrics: Vec<Metric> = vec![
        (
            "setup_s".into(),
            setup_s,
            "s",
            format!(
                "lazy init + median of {SETUP_REPS} set-ups of all {k} instances, per instance"
            ),
        ),
        (
            "wall_s".into(),
            wall_s,
            "s",
            format!("mean over {k} instances of each one's median (median/runs: {per_instance})"),
        ),
        (
            "answers_per_s".into(),
            answers_per_s,
            "1/s",
            format!("{answers} answers / {total_wall:.3} s"),
        ),
        (
            "accuracy".into(),
            accuracy,
            "ratio",
            format!("base {objects} objects"),
        ),
        (
            "makespan_tu".into(),
            makespan,
            "tu",
            "mean simulated time to finish (paper: labelling iterations)".into(),
        ),
        (
            "delivered_share".into(),
            delivered_share,
            "ratio",
            format!(
                "base {} dispatched over {} runs",
                firsts.iter().map(|s| s.dispatched).sum::<usize>(),
                runs.delivered_shares.len()
            ),
        ),
        (
            "peak_rss_mb".into(),
            peak_rss_mb(),
            "MB",
            "VmHWM of this process".into(),
        ),
    ];
    if let Some(s) = firsts.first().filter(|s| s.checkpoints > 0) {
        println!(
            "instance 0: {} checkpoints cut and encoded, {} bytes",
            s.checkpoints, s.checkpoint_bytes
        );
    }
    print_metrics(correct, runs, &metrics);
    correct
}

/// Per-layer metrics. Each instance in turn runs untraced and then traced
/// into an in-memory buffer; the rollup comes from instance 0's traced
/// run and `obs.overhead` from the median traced/untraced ratio.
fn traced(runs: &mut Runs, budget: Duration) -> bool {
    let k = INSTANCES;
    let start = Instant::now();
    let mut ratios = Vec::new();
    let mut trace = None;
    let mut n = 0;
    while n == 0 || start.elapsed() < budget {
        let index = n % k;
        n += 1;
        let Some(untraced_wall) = runs.run(index) else {
            break;
        };
        let sink = obs::BufferSink::new();
        obs::Recorder::to_writer(Box::new(sink.clone())).install();
        let traced_wall = runs.run(index);
        obs::shutdown();
        let Some(traced_wall) = traced_wall else {
            break;
        };
        ratios.push(traced_wall / untraced_wall);
        if trace.is_none() {
            match obs::analyze::parse_trace(&sink.contents()) {
                Ok(t) => trace = Some(t),
                Err(e) => {
                    eprintln!("trace does not parse: {e}");
                    runs.failed += 1;
                    break;
                }
            }
        }
    }
    let correct = runs.failed == 0 && trace.is_some();
    let mut metrics: Vec<Metric> = Vec::new();
    if let Some(trace) = &trace {
        let (layer_metrics, gaps) = rollup::rollup(trace);
        for (name, s) in gaps {
            println!("gap: {name} self time {s:.4} s is in no phase span");
        }
        for m in layer_metrics {
            let detail = match m.detail {
                Detail::Plain => String::new(),
                Detail::Base(b) => format!("base {b}"),
                Detail::Of(b) => format!("base {b}"),
                Detail::Samples { n, resolved } => {
                    format!("n={n}{}", if resolved { "" } else { " unresolved" })
                }
            };
            metrics.push((
                m.name.to_owned(),
                m.value,
                m.unit,
                format!("[{}] {detail}", m.layer),
            ));
        }
        metrics.push((
            "obs.overhead".into(),
            median(&ratios) - 1.0,
            "ratio",
            format!(
                "[obs] median traced/untraced wall - 1, base {} paired runs",
                ratios.len()
            ),
        ));
    }
    print_metrics(correct, runs, &metrics);
    correct
}
