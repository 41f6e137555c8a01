//! Service-level metrics: one [`ServiceMetrics`] report per project, and
//! the cross-project [`AggregateMetrics`] of a multi-tenant run.
//!
//! Two clocks matter and they are different things: the *simulated* clock
//! (annotator latencies, timeouts — what the labelling service would
//! experience) and the *wall* clock (how fast this process runs events —
//! what a capacity planner cares about). The report keeps them separate:
//! answer throughput and latency percentiles are simulated-time, event
//! throughput is wall-time.

use crate::error::ServiceError;
use crate::event::TraceEvent;
use crate::project::ProjectStatus;
use crowdrl_core::outcome::LabellingOutcome;
use crowdrl_obs as obs;
use crowdrl_types::SimTime;
use std::fmt;

/// Nearest-rank percentile over an ascending-sorted sample slice.
///
/// The edge cases are explicit and tested:
/// * an **empty** slice has no samples — every percentile reports `0.0`;
/// * `p <= 0` is the **minimum**: nearest-rank has no rank below 1, so p0
///   clamps to the first sample (this is the conventional p0 = min);
/// * `p >= 100` is the **maximum** (rank `n`);
/// * otherwise the value at rank `⌈p/100 · n⌉`, clamped into `[1, n]` —
///   which means a **single-sample** slice returns that sample for *every*
///   percentile (p0 == p50 == p100 == the sample).
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    // Negative products saturate to 0 on the `as usize` cast; the clamp
    // then lifts them to rank 1 (the minimum).
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Accumulates raw observations during the run; [`MetricsCollector::finish`]
/// turns them into a [`ServiceMetrics`] report.
#[derive(Debug, Default, Clone)]
pub struct MetricsCollector {
    /// Delivered-answer latencies, simulated time units, arrival order.
    pub latencies: Vec<f64>,
    /// Questions dispatched.
    pub dispatched: usize,
    /// Answers delivered, recorded and charged.
    pub delivered: usize,
    /// Answers rejected (late after expiry, or duplicate).
    pub rejected: usize,
    /// Assignments that timed out.
    pub timeouts: usize,
    /// Objects put back into the candidate pool after a timeout.
    pub requeues: usize,
    /// Truth-inference refreshes run.
    pub refreshes: usize,
    /// Events processed (every popped event, including no-op expiries).
    pub events: usize,
}

impl MetricsCollector {
    /// Fresh, all-zero collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finalize into a report.
    ///
    /// `sim_duration` is the clock reading when the queue drained,
    /// `wall_seconds` the measured run time, `budget_spent` the real
    /// charges.
    pub fn finish(
        mut self,
        sim_duration: SimTime,
        wall_seconds: f64,
        budget_spent: f64,
    ) -> ServiceMetrics {
        self.latencies.sort_by(f64::total_cmp);
        let pct = |p: f64| nearest_rank(&self.latencies, p);
        let sim = sim_duration.as_f64();
        ServiceMetrics {
            dispatched: self.dispatched,
            answers_delivered: self.delivered,
            answers_rejected: self.rejected,
            timeouts: self.timeouts,
            requeues: self.requeues,
            refreshes: self.refreshes,
            events_processed: self.events,
            sim_duration,
            wall_seconds,
            latency_p50: pct(50.0),
            latency_p95: pct(95.0),
            latency_p99: pct(99.0),
            answers_per_time_unit: if sim > 0.0 {
                self.delivered as f64 / sim
            } else {
                0.0
            },
            events_per_second: if wall_seconds > 0.0 {
                self.events as f64 / wall_seconds
            } else {
                0.0
            },
            budget_spent,
            budget_burn_rate: if sim > 0.0 { budget_spent / sim } else { 0.0 },
        }
    }
}

/// The service report for one asynchronous run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMetrics {
    /// Questions dispatched to annotators.
    pub dispatched: usize,
    /// Answers delivered in time, recorded and charged.
    pub answers_delivered: usize,
    /// Answers rejected (late or duplicate) — received but never charged.
    pub answers_rejected: usize,
    /// Assignments whose timeout fired before the answer arrived.
    pub timeouts: usize,
    /// Objects returned to the candidate pool after a timeout.
    pub requeues: usize,
    /// Truth-inference refreshes triggered by the watermarks.
    pub refreshes: usize,
    /// Events the run processed.
    pub events_processed: usize,
    /// Final simulated-clock reading.
    pub sim_duration: SimTime,
    /// Wall-clock seconds spent running events (zero per project of a
    /// multi-tenant run: wall time lives in its aggregate).
    pub wall_seconds: f64,
    /// Median delivered-answer latency, simulated time units.
    pub latency_p50: f64,
    /// 95th-percentile latency.
    pub latency_p95: f64,
    /// 99th-percentile latency.
    pub latency_p99: f64,
    /// Delivered answers per simulated time unit.
    pub answers_per_time_unit: f64,
    /// Event throughput, events per wall-clock second.
    pub events_per_second: f64,
    /// Budget units actually charged.
    pub budget_spent: f64,
    /// Budget units charged per simulated time unit.
    pub budget_burn_rate: f64,
}

impl ServiceMetrics {
    /// Bridge this report into the `crowdrl-obs` trace stream: the
    /// service counters become trace counters and the rates/percentiles
    /// become gauges, so `crowdrl-trace` shows batch and async runs in
    /// one place. No-op unless a recorder is installed.
    pub fn emit_trace(&self) {
        self.emit_trace_scoped("");
    }

    /// [`emit_trace`](Self::emit_trace) with every metric name prefixed
    /// by `scope` (e.g. `project.3.`). The multi-tenant service emits one
    /// scoped report per project so concurrent runs' counters and gauges
    /// do not collide in a single trace file.
    pub fn emit_trace_scoped(&self, scope: &str) {
        if !obs::enabled() {
            return;
        }
        let counter = |name: &str, v: u64| obs::counter_add(&format!("{scope}{name}"), v);
        let gauge = |name: &str, v: f64| obs::gauge(&format!("{scope}{name}"), v);
        counter("serve.dispatched", self.dispatched as u64);
        counter("serve.answers_delivered", self.answers_delivered as u64);
        counter("serve.answers_rejected", self.answers_rejected as u64);
        counter("serve.timeouts", self.timeouts as u64);
        counter("serve.requeues", self.requeues as u64);
        counter("serve.refreshes", self.refreshes as u64);
        counter("serve.events_processed", self.events_processed as u64);
        // Latencies and the sim-duration gauge are simulated-time numbers;
        // wall_seconds and events_per_second are wall-clock. Gauge names
        // say which clock they belong to (`_tu` = simulated time units).
        gauge("serve.latency_p50_tu", self.latency_p50);
        gauge("serve.latency_p95_tu", self.latency_p95);
        gauge("serve.latency_p99_tu", self.latency_p99);
        gauge("serve.answers_per_tu", self.answers_per_time_unit);
        gauge("serve.events_per_second", self.events_per_second);
        gauge("serve.sim_duration_tu", self.sim_duration.as_f64());
        gauge("serve.wall_seconds", self.wall_seconds);
        gauge("serve.budget_spent", self.budget_spent);
        gauge("serve.budget_burn_rate", self.budget_burn_rate);
    }
}

impl fmt::Display for ServiceMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "service metrics")?;
        writeln!(
            f,
            "  dispatched {}  delivered {}  rejected {}  timeouts {}  requeues {}",
            self.dispatched,
            self.answers_delivered,
            self.answers_rejected,
            self.timeouts,
            self.requeues
        )?;
        writeln!(
            f,
            "  refreshes {}  events {}  sim time {}  wall {:.3}s",
            self.refreshes, self.events_processed, self.sim_duration, self.wall_seconds
        )?;
        writeln!(
            f,
            "  latency p50/p95/p99  {:.2}/{:.2}/{:.2} tu",
            self.latency_p50, self.latency_p95, self.latency_p99
        )?;
        writeln!(
            f,
            "  throughput  {:.3} answers/tu  {:.0} events/s",
            self.answers_per_time_unit, self.events_per_second
        )?;
        write!(
            f,
            "  budget  {:.2} spent  {:.4} burn/tu",
            self.budget_spent, self.budget_burn_rate
        )
    }
}

/// What one submitted project came back with.
#[derive(Debug, Clone)]
pub struct ProjectReport {
    /// Name from the spec.
    pub name: String,
    /// `Completed`, `Rejected`, or `Failed` by the time the service
    /// returns.
    pub status: ProjectStatus,
    /// The labelling outcome (None unless completed).
    pub outcome: Option<LabellingOutcome>,
    /// The per-project service metrics (None iff rejected; a failed
    /// project keeps the metrics it accumulated before failing).
    /// Wall-clock fields are zero — projects share one process; wall
    /// time lives in the aggregate.
    pub metrics: Option<ServiceMetrics>,
    /// Why the project was rejected or failed (None iff it completed).
    pub error: Option<ServiceError>,
}

/// Cross-project totals for one service run.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateMetrics {
    /// Projects that ran (admitted immediately or from the queue).
    pub admitted: usize,
    /// Projects refused at admission.
    pub rejected: usize,
    /// Projects that failed mid-run and were isolated.
    pub failed: usize,
    /// Projects shed by the bounded admission queue (a subset of
    /// `rejected` — shedding is an admission refusal with a typed
    /// overload reason).
    pub shed: usize,
    /// Questions dispatched, all projects.
    pub dispatched: usize,
    /// Answers delivered and charged, all projects.
    pub answers_delivered: usize,
    /// Timeouts, all projects.
    pub timeouts: usize,
    /// Events processed, all projects.
    pub events_processed: usize,
    /// Scheduling rounds the service ran.
    pub rounds: usize,
    /// Final simulated clock.
    pub sim_duration: SimTime,
    /// Wall-clock seconds for the whole service run.
    pub wall_seconds: f64,
    /// Total real charges across every account.
    pub total_spent: f64,
    /// Delivered answers per simulated time unit, all projects.
    pub answers_per_time_unit: f64,
    /// Fairness of pool sharing: `(max − min) / mean` of per-project
    /// delivered-answer counts over completed projects (0 = perfectly
    /// even, larger = some project monopolised the pool).
    pub fairness_spread: f64,
}

impl AggregateMetrics {
    /// The spread statistic over per-project delivered counts.
    pub fn spread(delivered: &[usize]) -> f64 {
        if delivered.len() < 2 {
            return 0.0;
        }
        let max = *delivered.iter().max().expect("non-empty") as f64;
        let min = *delivered.iter().min().expect("non-empty") as f64;
        let mean = delivered.iter().sum::<usize>() as f64 / delivered.len() as f64;
        if mean <= 0.0 {
            0.0
        } else {
            (max - min) / mean
        }
    }

    /// Bridge the aggregate into the obs trace (no-op unless recording).
    pub fn emit_trace(&self) {
        if !obs::enabled() {
            return;
        }
        obs::counter_add("service.projects_admitted", self.admitted as u64);
        obs::counter_add("service.projects_rejected", self.rejected as u64);
        obs::counter_add("service.projects_failed", self.failed as u64);
        obs::counter_add("service.projects_shed", self.shed as u64);
        obs::counter_add("service.dispatched", self.dispatched as u64);
        obs::counter_add("service.answers_delivered", self.answers_delivered as u64);
        obs::counter_add("service.timeouts", self.timeouts as u64);
        obs::counter_add("service.events_processed", self.events_processed as u64);
        obs::counter_add("service.rounds", self.rounds as u64);
        obs::gauge("service.sim_duration_tu", self.sim_duration.as_f64());
        obs::gauge("service.wall_seconds", self.wall_seconds);
        obs::gauge("service.total_spent", self.total_spent);
        obs::gauge("service.answers_per_tu", self.answers_per_time_unit);
        obs::gauge("service.fairness_spread", self.fairness_spread);
    }
}

impl fmt::Display for AggregateMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "service aggregate")?;
        writeln!(
            f,
            "  projects  {} admitted  {} rejected  {} failed  {} shed",
            self.admitted, self.rejected, self.failed, self.shed
        )?;
        writeln!(
            f,
            "  dispatched {}  delivered {}  timeouts {}  events {}  rounds {}",
            self.dispatched,
            self.answers_delivered,
            self.timeouts,
            self.events_processed,
            self.rounds
        )?;
        writeln!(
            f,
            "  sim time {}  wall {:.3}s  spent {:.2}",
            self.sim_duration, self.wall_seconds, self.total_spent
        )?;
        write!(
            f,
            "  throughput {:.3} answers/tu  fairness spread {:.3}",
            self.answers_per_time_unit, self.fairness_spread
        )
    }
}

/// Everything one service run produced.
#[derive(Debug, Clone)]
pub struct ServiceOutcome {
    /// One report per submitted project, in submission order.
    pub reports: Vec<ProjectReport>,
    /// The merged service trace: every dispatch, delivery, expiry,
    /// refresh, and quarantine transition, tagged with the owning
    /// project's submission index, in deterministic merge order.
    pub trace: Vec<(usize, TraceEvent)>,
    /// Cross-project totals.
    pub aggregate: AggregateMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut c = MetricsCollector::new();
        c.latencies = (1..=100).map(|i| i as f64).collect();
        c.delivered = 100;
        c.events = 200;
        let m = c.finish(SimTime::new(50.0).unwrap(), 2.0, 25.0);
        assert_eq!(m.latency_p50, 50.0);
        assert_eq!(m.latency_p95, 95.0);
        assert_eq!(m.latency_p99, 99.0);
        assert_eq!(m.answers_per_time_unit, 2.0);
        assert_eq!(m.events_per_second, 100.0);
        assert_eq!(m.budget_burn_rate, 0.5);
    }

    #[test]
    fn nearest_rank_empty_input_is_zero_for_all_percentiles() {
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(nearest_rank(&[], p), 0.0);
        }
    }

    #[test]
    fn nearest_rank_single_sample_is_that_sample_for_all_percentiles() {
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(nearest_rank(&[5.0], p), 5.0);
        }
    }

    #[test]
    fn nearest_rank_two_samples() {
        let sorted = [1.0, 2.0];
        // p0 is the minimum by definition (rank clamps to 1).
        assert_eq!(nearest_rank(&sorted, 0.0), 1.0);
        // p50 of two samples: ceil(0.5 * 2) = rank 1 → the lower sample.
        assert_eq!(nearest_rank(&sorted, 50.0), 1.0);
        // p100: rank 2 → the maximum.
        assert_eq!(nearest_rank(&sorted, 100.0), 2.0);
        // Anything above p50 needs rank 2 here.
        assert_eq!(nearest_rank(&sorted, 51.0), 2.0);
    }

    #[test]
    fn empty_run_reports_zeroes() {
        let m = MetricsCollector::new().finish(SimTime::ZERO, 0.0, 0.0);
        assert_eq!(m.latency_p50, 0.0);
        assert_eq!(m.answers_per_time_unit, 0.0);
        assert_eq!(m.events_per_second, 0.0);
        // The Display form renders without panicking.
        assert!(m.to_string().contains("service metrics"));
    }

    #[test]
    fn spread_is_zero_for_degenerate_inputs_and_scales_with_imbalance() {
        assert_eq!(AggregateMetrics::spread(&[]), 0.0);
        assert_eq!(AggregateMetrics::spread(&[10]), 0.0);
        assert_eq!(AggregateMetrics::spread(&[0, 0, 0]), 0.0);
        assert_eq!(AggregateMetrics::spread(&[5, 5, 5]), 0.0);
        // One project took everything: spread = (9-0)/3 = 3.
        assert_eq!(AggregateMetrics::spread(&[9, 0, 0]), 3.0);
        assert!(AggregateMetrics::spread(&[6, 4, 5]) < 0.5);
    }
}
