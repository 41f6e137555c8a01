//! # crowdrl-obs — structured tracing and metrics
//!
//! A zero-external-dependency observability layer for the crowdrl stack.
//! It records four kinds of signal into a JSONL trace file (one event per
//! line):
//!
//! * **spans** — named enter/exit pairs with nested parent ids, used for
//!   per-phase wall-time profiling;
//! * **gauges** — point-in-time samples of a value, optionally tagged with a
//!   *step* (iteration index, EM iteration, training step, or simulated
//!   time), so semantic curves like accuracy-vs-budget survive alongside
//!   wall-clock data;
//! * **counters** and **fixed-bucket histograms** — aggregated in-process
//!   and emitted as snapshots, cheap enough for hot paths like the worker
//!   pool;
//! * **annotations** — run-level facts ("enrichment added 37 labels at
//!   budget 0.42") with optional numeric key/values.
//!
//! ## Two clocks
//!
//! Every emitted event carries monotonic wall time (nanoseconds since the
//! recorder was installed) for profiling. Events that describe *semantic*
//! progress additionally carry a step value — an iteration index or a
//! simulated-time reading — because wall time means nothing for curves like
//! accuracy-vs-budget. The two clocks never mix: wall time exists only in
//! trace output and is never fed back into any computation, which is what
//! keeps golden-trace and determinism tests byte-identical whether or not a
//! recorder is installed.
//!
//! ## Usage
//!
//! ```
//! use crowdrl_obs as obs;
//!
//! let sink = obs::BufferSink::new();
//! obs::Recorder::to_writer(Box::new(sink.clone())).install();
//! {
//!     let _run = obs::span("demo.run");
//!     obs::gauge_step("demo.acc", 0.0, 0.5);
//!     obs::counter_add("demo.events", 3);
//! }
//! obs::shutdown();
//! let trace = obs::analyze::parse_trace(&sink.contents()).unwrap();
//! assert!(!trace.events.is_empty());
//! ```
//!
//! When no recorder is installed (or `Recorder::disabled()` was installed),
//! every recording call is a single relaxed atomic load plus a branch.
//! `init_from_env()` installs a file recorder when the `CROWDRL_TRACE`
//! environment variable names a path; the long-running entry points
//! (`CrowdRl::run`, `AsyncRuntime::run`, `ExperimentGrid::run`) call it for
//! you.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod event;
pub mod json;
mod recorder;

pub use event::Event;
pub use recorder::{
    annotate, annotate_kv, checkpoint, counter_add, enabled, flush, gauge, gauge_step, histogram,
    histogram_seconds, init_from_env, shutdown, span, BufferSink, Recorder, SpanGuard,
};
