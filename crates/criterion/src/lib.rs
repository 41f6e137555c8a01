//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! crate.
//!
//! The build environment has no network access, so this workspace ships a
//! minimal benchmark harness with the criterion API shape used by the
//! `crowdrl-bench` benches: [`Criterion`], [`BenchmarkGroup`],
//! [`BenchmarkId`], [`Bencher::iter`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros.
//!
//! Measurement model: each benchmark is warmed up, an iteration count is
//! calibrated so one sample takes a few milliseconds, then `sample_size`
//! samples are timed. The report prints the min / median / mean per-iteration
//! time. This is a wall-clock harness — adequate for the relative,
//! order-of-magnitude tracking the workspace needs, without upstream's
//! statistical machinery.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

/// A measured benchmark: per-iteration timings in nanoseconds.
#[derive(Debug, Clone)]
pub struct Sampled {
    /// Benchmark label (`group/function` or `group/function/param`).
    pub id: String,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Per-iteration time of every sample, nanoseconds, sorted ascending.
    pub per_iter_ns: Vec<f64>,
}

impl Sampled {
    /// Fastest observed per-iteration time (ns).
    pub fn min_ns(&self) -> f64 {
        self.per_iter_ns.first().copied().unwrap_or(f64::NAN)
    }

    /// Median per-iteration time (ns).
    pub fn median_ns(&self) -> f64 {
        let n = self.per_iter_ns.len();
        if n == 0 {
            return f64::NAN;
        }
        if n % 2 == 1 {
            self.per_iter_ns[n / 2]
        } else {
            (self.per_iter_ns[n / 2 - 1] + self.per_iter_ns[n / 2]) / 2.0
        }
    }

    /// Mean per-iteration time (ns).
    pub fn mean_ns(&self) -> f64 {
        if self.per_iter_ns.is_empty() {
            return f64::NAN;
        }
        self.per_iter_ns.iter().sum::<f64>() / self.per_iter_ns.len() as f64
    }
}

fn human(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:8.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:8.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:8.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:8.2} s ", ns / 1_000_000_000.0)
    }
}

/// Benchmark identifier combining a function name and a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `name` with `parameter` appended, criterion-style (`name/parameter`).
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        Self {
            name: format!("{}/{}", name.into(), parameter),
        }
    }

    /// A parameter-only id (used as `BenchmarkId::from_parameter(n)`).
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            name: parameter.to_string(),
        }
    }
}

/// Anything usable as a benchmark label.
pub trait IntoBenchmarkId {
    /// The label text.
    fn into_label(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_label(self) -> String {
        self.name
    }
}

impl IntoBenchmarkId for &str {
    fn into_label(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_label(self) -> String {
        self
    }
}

/// Times the closure handed to [`BenchmarkGroup::bench_function`].
pub struct Bencher {
    sample_size: usize,
    target_sample: Duration,
    result: Option<Sampled>,
    id: String,
}

impl Bencher {
    /// Run `routine` repeatedly and record per-iteration wall time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warmup + calibration: find an iteration count whose sample time
        // is close to the target, so timer overhead is amortized.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= self.target_sample || iters >= 1 << 20 {
                let per_iter = elapsed.as_nanos() as f64 / iters as f64;
                let target = self.target_sample.as_nanos() as f64;
                iters = ((target / per_iter.max(1.0)).ceil() as u64).max(1);
                break;
            }
            iters = iters.saturating_mul(2);
        }
        let mut per_iter_ns = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            per_iter_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        self.result = Some(Sampled {
            id: self.id.clone(),
            iters_per_sample: iters,
            per_iter_ns,
        });
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    fn run<F: FnMut(&mut Bencher)>(&mut self, label: String, mut f: F) {
        let id = format!("{}/{}", self.name, label);
        let mut bencher = Bencher {
            sample_size: self.criterion.sample_size,
            target_sample: self.criterion.target_sample,
            result: None,
            id: id.clone(),
        };
        f(&mut bencher);
        match bencher.result {
            Some(sampled) => {
                println!(
                    "{id:<44} min {} median {} mean {}  ({} samples x {} iters)",
                    human(sampled.min_ns()),
                    human(sampled.median_ns()),
                    human(sampled.mean_ns()),
                    sampled.per_iter_ns.len(),
                    sampled.iters_per_sample,
                );
                self.criterion.results.push(sampled);
            }
            None => println!("{id:<44} (no measurement: Bencher::iter never called)"),
        }
    }

    /// Benchmark `f` under `id`.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(id.into_label(), f);
        self
    }

    /// Benchmark `f` under `id`, passing `input` through.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id.into_label(), |b| f(b, input));
        self
    }

    /// Override the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = n.max(2);
        self
    }

    /// End the group (prints nothing extra; provided for API parity).
    pub fn finish(self) {}
}

/// The benchmark harness configuration and result sink.
pub struct Criterion {
    sample_size: usize,
    target_sample: Duration,
    results: Vec<Sampled>,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 20,
            target_sample: Duration::from_millis(5),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Set the number of samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Set the measurement time budget per sample.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.target_sample = d;
        self
    }

    /// Open a benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        BenchmarkGroup {
            criterion: self,
            name,
        }
    }

    /// Benchmark `f` outside any group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = BenchmarkGroup {
            criterion: self,
            name: "bench".into(),
        };
        group.run(id.into_label(), f);
        self
    }

    /// All measurements recorded so far (for benches that post-process or
    /// export results themselves).
    pub fn results(&self) -> &[Sampled] {
        &self.results
    }

    /// Criterion's end-of-run hook; a no-op here.
    pub fn final_summary(&mut self) {}
}

/// Prevent the optimizer from eliding a value. Re-exported for benches that
/// use `criterion::black_box` rather than `std::hint::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declare a group of benchmark functions with an optional configuration.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
            criterion.final_summary();
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Generate `main()` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_and_reports() {
        let mut c = Criterion::default()
            .sample_size(5)
            .measurement_time(Duration::from_micros(200));
        let mut group = c.benchmark_group("test");
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("sum_n", 1000), &1000u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
        assert_eq!(c.results().len(), 2);
        for r in c.results() {
            assert!(r.min_ns() > 0.0);
            assert!(r.median_ns() >= r.min_ns());
            assert!(!r.per_iter_ns.is_empty());
        }
        assert!(c.results()[1].id.contains("sum_n/1000"));
    }

    #[test]
    fn ids_format_like_criterion() {
        assert_eq!(
            BenchmarkId::new("q_values", 128).into_label(),
            "q_values/128"
        );
        assert_eq!(BenchmarkId::from_parameter(7).into_label(), "7");
    }

    criterion_group! {
        name = smoke;
        config = Criterion::default().sample_size(2).measurement_time(Duration::from_micros(50));
        targets = smoke_target
    }

    fn smoke_target(c: &mut Criterion) {
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
    }

    #[test]
    fn group_macro_produces_runner() {
        smoke();
    }
}
