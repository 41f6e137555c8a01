//! Criterion microbenchmarks for the asynchronous labelling runtime:
//! raw event-queue throughput at 1k / 10k / 100k events, the ledger and
//! account book's reserve→dispatch→deliver→charge cycle, and end-to-end
//! `AsyncRuntime` runs in
//! both execution modes and both numeric modes.
//!
//! Unlike the other benches this one has a hand-written `main` so it can
//! export the measurements to `BENCH_serve.json` at the repository root
//! (events/sec and answers/sec derived from the median sample). The bench
//! binary also installs a counting global allocator so each end-to-end row
//! carries its heap-allocation rate (`allocs_per_event`) — the scratch
//! reuse work in the serve hot path is regression-guarded by that number
//! as well as by wall clock.

use criterion::{black_box, Criterion};
use crowdrl_core::CrowdRlConfig;
use crowdrl_linalg::NumericMode;
use crowdrl_obs as obs;
use crowdrl_serve::{
    AccountBook, AssignmentLedger, AsyncOutcome, AsyncRuntime, Delivery, EventKind, EventQueue,
    ExecMode, ServeConfig,
};
use crowdrl_sim::{AnnotatorPool, DatasetSpec, PoolSpec};
use crowdrl_types::rng::seeded;
use crowdrl_types::{AnnotatorId, AssignmentId, Dataset, ObjectId, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation made by the process (alloc, alloc_zeroed,
/// realloc), delegating the actual work to the system allocator. Reads are
/// relaxed — the bench is effectively single-threaded at measurement time
/// and only deltas matter.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

const QUEUE_SIZES: [usize; 3] = [1_000, 10_000, 100_000];
const RUN_OBJECTS: usize = 80;

fn t(x: f64) -> SimTime {
    SimTime::new(x).unwrap()
}

/// Push `n` events at pseudo-random times, then drain the queue in order.
fn queue_cycle(n: usize) -> usize {
    let mut queue = EventQueue::new();
    for i in 0..n as u64 {
        let at = (i.wrapping_mul(2_654_435_761) % 1_000_000) as f64 / 1_000.0;
        queue
            .push(t(at), EventKind::Deliver(AssignmentId(i)))
            .unwrap();
    }
    let mut drained = 0;
    while queue.pop().is_some() {
        drained += 1;
    }
    drained
}

/// Reserve, dispatch and deliver `n` assignments, charging each one.
fn ledger_cycle(n: usize) -> f64 {
    let mut ledger = AssignmentLedger::new();
    let mut book = AccountBook::new();
    let account = book.open(n as f64).unwrap();
    for i in 0..n {
        book.reserve(account, 1.0).unwrap();
        let id = ledger
            .dispatch_reserved(ObjectId(i), AnnotatorId(i % 7), 1.0, t(0.0), t(10.0))
            .unwrap();
        if let Delivery::Accepted { cost, .. } = ledger.settle_deliver(id, t(1.0)).unwrap() {
            book.charge(account, cost).unwrap();
        }
    }
    book.spent(account)
}

fn serve_fixture() -> (Dataset, AnnotatorPool) {
    let mut rng = seeded(11);
    let dataset = DatasetSpec::gaussian("serve-bench", RUN_OBJECTS, 4, 2)
        .with_separation(3.5)
        .generate(&mut rng)
        .unwrap();
    let pool = PoolSpec::new(4, 1).generate(2, &mut rng).unwrap();
    (dataset, pool)
}

fn run_async(
    dataset: &Dataset,
    pool: &AnnotatorPool,
    mode: ExecMode,
    numeric: NumericMode,
) -> AsyncOutcome {
    let config = CrowdRlConfig::builder()
        .budget(200.0)
        .initial_ratio(0.1)
        .batch_per_iter(4)
        .candidate_cap(32)
        .numeric(numeric)
        .build()
        .unwrap();
    let serve = ServeConfig::default().with_mode(mode);
    let mut rng = seeded(12);
    AsyncRuntime::new(config, serve)
        .run(dataset, pool, &mut rng)
        .unwrap()
}

/// The three end-to-end rows: reference numerics in both execution modes,
/// plus the SIMD fast mode single-threaded (the configuration the 1-core
/// container actually serves from).
const E2E_ROWS: [(&str, ExecMode, NumericMode); 3] = [
    (
        "run_async_single_thread",
        ExecMode::SingleThread,
        NumericMode::Reference,
    ),
    (
        "run_async_worker_pool_4",
        ExecMode::WorkerPool { workers: 4 },
        NumericMode::Reference,
    ),
    (
        "run_async_single_thread_fast",
        ExecMode::SingleThread,
        NumericMode::Fast,
    ),
];

/// One measured benchmark, reduced to what the JSON report needs.
struct Measurement {
    id: String,
    median_ns: f64,
    mean_ns: f64,
    min_ns: f64,
}

fn measurements(c: &Criterion) -> Vec<Measurement> {
    c.results()
        .iter()
        .map(|s| Measurement {
            id: s.id.clone(),
            median_ns: s.median_ns(),
            mean_ns: s.mean_ns(),
            min_ns: s.min_ns(),
        })
        .collect()
}

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");

    for &n in &QUEUE_SIZES {
        group.bench_function(format!("event_queue_cycle/{n}"), |b| {
            b.iter(|| black_box(queue_cycle(n)))
        });
    }

    group.bench_function("ledger_dispatch_deliver/1000", |b| {
        b.iter(|| black_box(ledger_cycle(1_000)))
    });

    let (dataset, pool) = serve_fixture();
    for (label, mode, numeric) in E2E_ROWS {
        group.bench_function(format!("{label}/{RUN_OBJECTS}"), |b| {
            b.iter(|| black_box(run_async(&dataset, &pool, mode, numeric)))
        });
    }

    group.finish();
}

/// Per-configuration outcome metrics plus the heap-allocation rate of one
/// end-to-end run, measured outside the timing loop.
struct RowStats {
    outcome: AsyncOutcome,
    allocs_per_event: f64,
}

fn row_stats(dataset: &Dataset, pool: &AnnotatorPool) -> Vec<RowStats> {
    E2E_ROWS
        .iter()
        .map(|&(_, mode, numeric)| {
            // One warmup settles lazily-allocated globals out of the count.
            let _ = run_async(dataset, pool, mode, numeric);
            let before = alloc_count();
            let outcome = run_async(dataset, pool, mode, numeric);
            let allocs = alloc_count() - before;
            let events = outcome.metrics.events_processed.max(1);
            if obs::enabled() {
                obs::counter_add("serve.bench.allocs", allocs);
            }
            RowStats {
                outcome,
                allocs_per_event: allocs as f64 / events as f64,
            }
        })
        .collect()
}

/// Render the report as JSON by hand — the workspace has no serde.
fn render_json(found: &[Measurement], stats: &[RowStats]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"serve\",\n");
    out.push_str(
        "  \"harness\": \"in-workspace criterion stand-in (wall clock, median of samples)\",\n",
    );
    out.push_str("  \"command\": \"cargo bench -p crowdrl-bench --bench serve\",\n");

    out.push_str("  \"event_queue\": [\n");
    for (i, &n) in QUEUE_SIZES.iter().enumerate() {
        let m = found
            .iter()
            .find(|m| m.id == format!("serve/event_queue_cycle/{n}"))
            .expect("queue measurement");
        let events_per_sec = n as f64 / (m.median_ns * 1e-9);
        let comma = if i + 1 < QUEUE_SIZES.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{ \"events\": {n}, \"median_ns_per_cycle\": {:.0}, \
             \"ns_per_event\": {:.1}, \"events_per_sec\": {:.0} }}{comma}",
            m.median_ns,
            m.median_ns / n as f64,
            events_per_sec,
        );
    }
    out.push_str("  ],\n");

    let ledger = found
        .iter()
        .find(|m| m.id == "serve/ledger_dispatch_deliver/1000")
        .expect("ledger measurement");
    let _ = writeln!(
        out,
        "  \"ledger_dispatch_deliver\": {{ \"assignments\": 1000, \
         \"median_ns_per_cycle\": {:.0}, \"assignments_per_sec\": {:.0} }},",
        ledger.median_ns,
        1_000.0 / (ledger.median_ns * 1e-9),
    );

    out.push_str("  \"end_to_end\": [\n");
    for (i, ((label, _, numeric), row)) in E2E_ROWS.iter().zip(stats).enumerate() {
        let m = found
            .iter()
            .find(|m| m.id == format!("serve/{label}/{RUN_OBJECTS}"))
            .expect("run measurement");
        let secs = m.median_ns * 1e-9;
        let metrics = &row.outcome.metrics;
        let comma = if i + 1 < E2E_ROWS.len() { "," } else { "" };
        let numeric = match numeric {
            NumericMode::Reference => "reference",
            NumericMode::Fast => "fast",
        };
        let _ = writeln!(
            out,
            "    {{ \"name\": \"{label}\", \"objects\": {RUN_OBJECTS}, \
             \"numeric\": \"{numeric}\", \
             \"median_ms\": {:.2}, \"min_ms\": {:.2}, \"mean_ms\": {:.2}, \
             \"events_processed\": {}, \"answers_delivered\": {}, \
             \"events_per_sec\": {:.0}, \"answers_per_sec\": {:.0}, \
             \"allocs_per_event\": {:.1} }}{comma}",
            m.median_ns * 1e-6,
            m.min_ns * 1e-6,
            m.mean_ns * 1e-6,
            metrics.events_processed,
            metrics.answers_delivered,
            metrics.events_processed as f64 / secs,
            metrics.answers_delivered as f64 / secs,
            row.allocs_per_event,
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut criterion = Criterion::default().sample_size(10);
    bench_serve(&mut criterion);
    criterion.final_summary();

    let (dataset, pool) = serve_fixture();
    let stats = row_stats(&dataset, &pool);

    let json = render_json(&measurements(&criterion), &stats);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(err) => eprintln!("\ncould not write {}: {err}", path.display()),
    }
}
