//! Deterministic fault injection for the asynchronous labelling runtime.
//!
//! Real crowdsourcing platforms fail in ways the happy-path latency model
//! never exercises: workers accept a task and vanish, abandon it halfway,
//! answer hours late, the platform itself goes down for a window, answers
//! arrive twice or out of order, and a worker who was good an hour ago
//! degrades into a spammer. A [`FaultPlan`] describes a seeded schedule of
//! such faults; a [`FaultInjector`] applies them to sampled annotator
//! outcomes *deterministically* — every fault decision is a pure function
//! of `(plan seed, assignment id)` plus the dispatch clock, so the injected
//! stream is bit-identical at any worker-pool width and across
//! checkpoint/restore boundaries without any injector state to persist.
//!
//! The injector transforms outcomes; it never touches the ledger or the
//! budget. The runtime's supervision layer (retry budgets, quarantine,
//! degraded modes) is what turns these injected faults into recoveries.

use crowdrl_types::rng::{derive_seed, seeded};
use crowdrl_types::{AnnotatorId, AssignmentId, ClassId, Error, Result, SimTime};
use rand::Rng;

/// A platform outage: answers that would arrive inside the window are held
/// and delivered at its end (the platform buffers, it does not lose).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    /// Window start, simulated time units (inclusive).
    pub start: f64,
    /// Window end, simulated time units (exclusive).
    pub end: f64,
}

impl OutageWindow {
    /// Validate bounds: finite, non-negative, `start < end`.
    pub fn validate(&self) -> Result<()> {
        if !self.start.is_finite() || !self.end.is_finite() || self.start < 0.0 {
            return Err(Error::InvalidParameter(format!(
                "outage window bounds must be finite and non-negative, got [{}, {})",
                self.start, self.end
            )));
        }
        if self.start >= self.end {
            return Err(Error::InvalidParameter(format!(
                "outage window must have start < end, got [{}, {})",
                self.start, self.end
            )));
        }
        Ok(())
    }

    /// Whether an arrival at `t` falls inside the window.
    #[inline]
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start && t < self.end
    }
}

/// A mid-run quality collapse: from `at` onward the annotator reports
/// uniformly random labels (a spammer), regardless of the truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityDrift {
    /// The annotator that degrades.
    pub annotator: AnnotatorId,
    /// Simulated time at which the collapse starts.
    pub at: f64,
}

impl QualityDrift {
    /// Validate: onset must be finite and non-negative.
    pub fn validate(&self) -> Result<()> {
        if !self.at.is_finite() || self.at < 0.0 {
            return Err(Error::InvalidParameter(format!(
                "drift onset must be finite and non-negative, got {}",
                self.at
            )));
        }
        Ok(())
    }
}

/// A seeded schedule of platform faults.
///
/// The default plan injects nothing, so wiring a `FaultPlan` through a
/// runtime config cannot perturb existing runs. Rates are per-assignment
/// probabilities; every draw comes from a stream keyed by the assignment
/// id, never from the run's main RNG. The last three fields schedule
/// faults scoped to one project of a multi-tenant run (outages, aborts,
/// shard panics) by submission index; a one-project run is project 0.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault stream (independent of the sampling seed).
    pub seed: u64,
    /// Probability a dispatched assignment is silently never answered
    /// (on top of the annotator's modelled drop rate).
    pub no_show_rate: f64,
    /// Probability the annotator abandons mid-task: the answer exists but
    /// arrives only after the assignment's deadline, so the runtime sees a
    /// timeout followed by a late (rejected) delivery.
    pub abandon_rate: f64,
    /// Probability of a heavy-tail straggler response.
    pub straggler_rate: f64,
    /// Latency multiplier for stragglers (must be ≥ 1).
    pub straggler_factor: f64,
    /// Probability the platform delivers the same answer twice.
    pub duplicate_rate: f64,
    /// Delay of the duplicate copy after the original arrival (≥ 0).
    pub duplicate_delay: f64,
    /// Platform outage windows; arrivals inside a window are deferred to
    /// its end.
    pub outages: Vec<OutageWindow>,
    /// Scheduled per-annotator quality collapses.
    pub drifts: Vec<QualityDrift>,
    /// Outage windows scoped to one project of a multi-tenant run: only
    /// that project's arrivals are buffered through the window.
    pub project_outages: Vec<ProjectOutage>,
    /// Scheduled mid-run project aborts.
    pub aborts: Vec<ProjectAbort>,
    /// Scheduled panics inside one project's shard advance.
    pub panics: Vec<ProjectPanic>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0xFA_17,
            no_show_rate: 0.0,
            abandon_rate: 0.0,
            straggler_rate: 0.0,
            straggler_factor: 4.0,
            duplicate_rate: 0.0,
            duplicate_delay: 1.0,
            outages: Vec::new(),
            drifts: Vec::new(),
            project_outages: Vec::new(),
            aborts: Vec::new(),
            panics: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// True when this plan injects nothing at all.
    pub fn is_noop(&self) -> bool {
        !self.rewrites_outcomes()
            && self.project_outages.is_empty()
            && self.aborts.is_empty()
            && self.panics.is_empty()
    }

    /// True when some assignment-level fault is scheduled: the part of
    /// the plan a [`FaultInjector`] applies to sampled outcomes.
    pub fn rewrites_outcomes(&self) -> bool {
        self.no_show_rate != 0.0
            || self.abandon_rate != 0.0
            || self.straggler_rate != 0.0
            || self.duplicate_rate != 0.0
            || !self.outages.is_empty()
            || !self.drifts.is_empty()
    }

    /// Validate every rate, factor, window and drift; degenerate plans
    /// (NaN rates, inverted windows, sub-unit straggler factors) are
    /// rejected with a description of the offending field.
    pub fn validate(&self) -> Result<()> {
        for (name, rate) in [
            ("no_show_rate", self.no_show_rate),
            ("abandon_rate", self.abandon_rate),
            ("straggler_rate", self.straggler_rate),
            ("duplicate_rate", self.duplicate_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                return Err(Error::InvalidParameter(format!(
                    "fault plan {name} must be in [0,1], got {rate}"
                )));
            }
        }
        if !self.straggler_factor.is_finite() || self.straggler_factor < 1.0 {
            return Err(Error::InvalidParameter(format!(
                "straggler_factor must be finite and >= 1, got {}",
                self.straggler_factor
            )));
        }
        if !self.duplicate_delay.is_finite() || self.duplicate_delay < 0.0 {
            return Err(Error::InvalidParameter(format!(
                "duplicate_delay must be finite and non-negative, got {}",
                self.duplicate_delay
            )));
        }
        for w in &self.outages {
            w.validate()?;
        }
        for d in &self.drifts {
            d.validate()?;
        }
        for o in &self.project_outages {
            o.window.validate()?;
        }
        for (what, at) in self
            .aborts
            .iter()
            .map(|a| ("abort", a.at))
            .chain(self.panics.iter().map(|p| ("panic", p.at)))
        {
            if !at.is_finite() || at < 0.0 {
                return Err(Error::InvalidParameter(format!(
                    "project {what} time must be finite and non-negative, got {at}"
                )));
            }
        }
        Ok(())
    }

    /// Push an arrival at `t` for `project` past every one of that
    /// project's outage windows (fixed point — windows may chain).
    pub fn project_defer(&self, project: usize, mut t: f64) -> f64 {
        loop {
            let mut moved = false;
            for o in &self.project_outages {
                if o.project == project && o.window.contains(t) {
                    t = o.window.end;
                    moved = true;
                }
            }
            if !moved {
                return t;
            }
        }
    }

    /// The earliest scheduled abort for `project`, if any.
    pub fn abort_at(&self, project: usize) -> Option<f64> {
        self.aborts
            .iter()
            .filter(|a| a.project == project)
            .map(|a| a.at)
            .min_by(f64::total_cmp)
    }

    /// The earliest scheduled panic for `project`, if any.
    pub fn panic_at(&self, project: usize) -> Option<f64> {
        self.panics
            .iter()
            .filter(|p| p.project == project)
            .map(|p| p.at)
            .min_by(f64::total_cmp)
    }
}

/// A platform outage scoped to one tenant of the multi-tenant service:
/// only the named project's arrivals are buffered through the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectOutage {
    /// Submission index of the affected project.
    pub project: usize,
    /// The outage window, in service simulated time.
    pub window: OutageWindow,
}

/// A scheduled mid-run project kill: at service time `at` the project is
/// failed (its reservations released, its broker evidence withdrawn) as
/// if its owner had pulled the plug.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectAbort {
    /// Submission index of the project to abort.
    pub project: usize,
    /// Service simulated time of the abort.
    pub at: f64,
}

/// A scheduled panic inside one project's shard advancement — the
/// deterministic stand-in for a poisoned tenant whose decision loop
/// blows up. The service must contain it to that project.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectPanic {
    /// Submission index of the project whose shard panics.
    pub project: usize,
    /// The panic fires in the first scheduling round whose horizon
    /// passes this service simulated time.
    pub at: f64,
}

/// Which faults were injected into one assignment — the runtime feeds
/// these into its `fault.injected.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultRecord {
    /// The answer was suppressed entirely.
    pub no_show: bool,
    /// The answer was delayed past the assignment deadline.
    pub abandoned: bool,
    /// The latency was multiplied by the straggler factor.
    pub straggler: bool,
    /// The arrival was deferred by an outage window.
    pub outage: bool,
    /// A duplicate delivery was scheduled.
    pub duplicate: bool,
    /// The label was replaced by spammer (uniform) output.
    pub drifted: bool,
}

impl FaultRecord {
    /// True when no fault touched the assignment.
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

/// The injector's verdict for one sampled outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedOutcome {
    /// The (possibly rewritten) response: `None` = never answered;
    /// `Some((label, latency))` = the label arrives `latency` after
    /// dispatch.
    pub response: Option<(ClassId, SimTime)>,
    /// Absolute arrival time of a duplicate copy of the answer, if one was
    /// injected (always at or after the original arrival).
    pub duplicate_at: Option<SimTime>,
    /// What was injected, for metrics.
    pub faults: FaultRecord,
}

/// Applies a [`FaultPlan`] to sampled annotator outcomes.
///
/// Stateless by construction: every decision derives from
/// `seeded(derive_seed(plan.seed, assignment id))` with a fixed draw order
/// (spam label, no-show, abandon, straggler, duplicate — do not reorder),
/// plus the dispatch clock for outage/drift onset checks. Two runs that
/// dispatch the same assignment ids at the same times inject identical
/// faults, regardless of thread count or checkpoint boundaries.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    num_classes: usize,
}

impl FaultInjector {
    /// Build an injector over `num_classes` label classes. Fails on a
    /// degenerate plan or a class count of zero.
    pub fn new(plan: FaultPlan, num_classes: usize) -> Result<Self> {
        plan.validate()?;
        if num_classes == 0 {
            return Err(Error::InvalidParameter(
                "fault injector needs at least one class".into(),
            ));
        }
        Ok(Self { plan, num_classes })
    }

    /// The plan this injector applies.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether `annotator` has drifted into a spammer by time `now`.
    pub fn drifted(&self, annotator: AnnotatorId, now: SimTime) -> bool {
        self.plan
            .drifts
            .iter()
            .any(|d| d.annotator == annotator && now.as_f64() >= d.at)
    }

    /// Transform one sampled outcome. `now` is the dispatch time and
    /// `timeout` the assignment's timeout (deadline = `now + timeout`).
    pub fn apply(
        &self,
        id: AssignmentId,
        annotator: AnnotatorId,
        now: SimTime,
        timeout: f64,
        response: Option<(ClassId, SimTime)>,
    ) -> InjectedOutcome {
        let mut faults = FaultRecord::default();
        if !self.plan.rewrites_outcomes() {
            return InjectedOutcome {
                response,
                duplicate_at: None,
                faults,
            };
        }

        // One private stream per assignment; five draws in fixed order so
        // every decision is independent of which earlier faults fired.
        let mut stream = seeded(derive_seed(self.plan.seed, id.0));
        let spam_label = ClassId(stream.random_range(0..self.num_classes));
        let u_no_show: f64 = stream.random();
        let u_abandon: f64 = stream.random();
        let u_straggle: f64 = stream.random();
        let u_duplicate: f64 = stream.random();

        let mut response = response;
        if let Some((label, _)) = response.as_mut() {
            if self.drifted(annotator, now) {
                *label = spam_label;
                faults.drifted = true;
            }
        }

        if response.is_some() && u_no_show < self.plan.no_show_rate {
            response = None;
            faults.no_show = true;
        }

        let mut duplicate_at = None;
        if let Some((_, latency)) = response.as_mut() {
            let mut lat = latency.as_f64();
            if u_abandon < self.plan.abandon_rate {
                // Mid-task abandonment: the answer limps in strictly after
                // the deadline, so the runtime times out first and then
                // sees a late delivery it must reject.
                lat = lat.max(timeout * 1.5 + 1.0);
                faults.abandoned = true;
            } else if u_straggle < self.plan.straggler_rate {
                lat *= self.plan.straggler_factor;
                faults.straggler = true;
            }
            let arrival = self.defer_through_outages(now.as_f64() + lat);
            if arrival > now.as_f64() + lat {
                faults.outage = true;
            }
            if u_duplicate < self.plan.duplicate_rate {
                let dup = self.defer_through_outages(arrival + self.plan.duplicate_delay);
                duplicate_at = SimTime::new(dup).ok();
                faults.duplicate = duplicate_at.is_some();
            }
            *latency = SimTime::new((arrival - now.as_f64()).max(0.0)).unwrap_or(SimTime::ZERO);
        }

        InjectedOutcome {
            response,
            duplicate_at,
            faults,
        }
    }

    /// Push `t` past every outage window that contains it. Windows may
    /// chain (the end of one inside the next), so iterate to a fixed point;
    /// validated windows have positive width, so this terminates.
    fn defer_through_outages(&self, mut t: f64) -> f64 {
        loop {
            let mut moved = false;
            for w in &self.plan.outages {
                if w.contains(t) {
                    t = w.end;
                    moved = true;
                }
            }
            if !moved {
                return t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> SimTime {
        SimTime::new(x).unwrap()
    }

    fn chaotic_plan() -> FaultPlan {
        FaultPlan {
            seed: 7,
            no_show_rate: 0.2,
            abandon_rate: 0.2,
            straggler_rate: 0.3,
            straggler_factor: 5.0,
            duplicate_rate: 0.3,
            duplicate_delay: 2.0,
            outages: vec![OutageWindow {
                start: 50.0,
                end: 60.0,
            }],
            drifts: vec![QualityDrift {
                annotator: AnnotatorId(1),
                at: 40.0,
            }],
            ..FaultPlan::default()
        }
    }

    #[test]
    fn project_outages_defer_only_the_named_project() {
        let plan = FaultPlan {
            project_outages: vec![
                ProjectOutage {
                    project: 2,
                    window: OutageWindow {
                        start: 10.0,
                        end: 20.0,
                    },
                },
                // Chained window for the same project.
                ProjectOutage {
                    project: 2,
                    window: OutageWindow {
                        start: 20.0,
                        end: 25.0,
                    },
                },
            ],
            ..FaultPlan::default()
        };
        plan.validate().unwrap();
        assert!(!plan.is_noop());
        // Project-level faults never rewrite a sampled outcome.
        assert!(!plan.rewrites_outcomes());
        assert_eq!(plan.project_defer(2, 12.0), 25.0);
        assert_eq!(plan.project_defer(2, 30.0), 30.0);
        // Other projects pass through the same clock untouched.
        assert_eq!(plan.project_defer(0, 12.0), 12.0);
    }

    #[test]
    fn project_kills_are_scheduled_and_validated() {
        let plan = FaultPlan {
            aborts: vec![ProjectAbort {
                project: 1,
                at: 40.0,
            }],
            panics: vec![
                ProjectPanic {
                    project: 3,
                    at: 55.0,
                },
                ProjectPanic {
                    project: 3,
                    at: 15.0,
                },
            ],
            ..FaultPlan::default()
        };
        plan.validate().unwrap();
        assert_eq!(plan.abort_at(1), Some(40.0));
        assert_eq!(plan.abort_at(0), None);
        assert_eq!(plan.panic_at(3), Some(15.0), "earliest panic wins");
        let bad = FaultPlan {
            aborts: vec![ProjectAbort {
                project: 0,
                at: f64::NAN,
            }],
            ..FaultPlan::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultPlan {
            project_outages: vec![ProjectOutage {
                project: 0,
                window: OutageWindow {
                    start: 5.0,
                    end: 2.0,
                },
            }],
            ..FaultPlan::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn default_plan_is_noop_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_noop());
        plan.validate().unwrap();
        let inj = FaultInjector::new(plan, 2).unwrap();
        let out = inj.apply(
            AssignmentId(0),
            AnnotatorId(0),
            t(0.0),
            10.0,
            Some((ClassId(1), t(3.0))),
        );
        assert_eq!(out.response, Some((ClassId(1), t(3.0))));
        assert_eq!(out.duplicate_at, None);
        assert!(out.faults.is_clean());
    }

    #[test]
    fn validate_rejects_degenerate_plans() {
        type Mutation = Box<dyn Fn(&mut FaultPlan)>;
        let cases: Vec<(&str, Mutation)> = vec![
            ("nan rate", Box::new(|p| p.no_show_rate = f64::NAN)),
            ("rate > 1", Box::new(|p| p.abandon_rate = 1.5)),
            ("negative rate", Box::new(|p| p.straggler_rate = -0.1)),
            ("factor < 1", Box::new(|p| p.straggler_factor = 0.5)),
            ("nan factor", Box::new(|p| p.straggler_factor = f64::NAN)),
            ("negative delay", Box::new(|p| p.duplicate_delay = -1.0)),
            (
                "inverted window",
                Box::new(|p| {
                    p.outages = vec![OutageWindow {
                        start: 5.0,
                        end: 2.0,
                    }]
                }),
            ),
            (
                "zero-width window",
                Box::new(|p| {
                    p.outages = vec![OutageWindow {
                        start: 5.0,
                        end: 5.0,
                    }]
                }),
            ),
            (
                "negative window",
                Box::new(|p| {
                    p.outages = vec![OutageWindow {
                        start: -1.0,
                        end: 2.0,
                    }]
                }),
            ),
            (
                "nan drift onset",
                Box::new(|p| {
                    p.drifts = vec![QualityDrift {
                        annotator: AnnotatorId(0),
                        at: f64::NAN,
                    }]
                }),
            ),
        ];
        for (name, mutate) in cases {
            let mut plan = FaultPlan::default();
            mutate(&mut plan);
            assert!(plan.validate().is_err(), "{name} should be rejected");
            assert!(FaultInjector::new(plan, 2).is_err(), "{name}");
        }
        assert!(FaultInjector::new(FaultPlan::default(), 0).is_err());
    }

    #[test]
    fn injection_is_a_pure_function_of_the_assignment_id() {
        let inj = FaultInjector::new(chaotic_plan(), 3).unwrap();
        for id in 0..200 {
            let a = inj.apply(
                AssignmentId(id),
                AnnotatorId(0),
                t(10.0),
                25.0,
                Some((ClassId(0), t(4.0))),
            );
            let b = inj.apply(
                AssignmentId(id),
                AnnotatorId(0),
                t(10.0),
                25.0,
                Some((ClassId(0), t(4.0))),
            );
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rates_are_respected_empirically() {
        let plan = FaultPlan {
            no_show_rate: 0.25,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan, 2).unwrap();
        let n = 4000;
        let suppressed = (0..n)
            .filter(|&i| {
                inj.apply(
                    AssignmentId(i),
                    AnnotatorId(0),
                    t(0.0),
                    10.0,
                    Some((ClassId(0), t(1.0))),
                )
                .response
                .is_none()
            })
            .count();
        let rate = suppressed as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "no-show rate {rate}");
    }

    #[test]
    fn abandonment_arrives_after_the_deadline() {
        let plan = FaultPlan {
            abandon_rate: 1.0,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan, 2).unwrap();
        let timeout = 25.0;
        let out = inj.apply(
            AssignmentId(3),
            AnnotatorId(0),
            t(100.0),
            timeout,
            Some((ClassId(1), t(2.0))),
        );
        let (_, latency) = out.response.unwrap();
        assert!(out.faults.abandoned);
        assert!(
            latency.as_f64() > timeout,
            "late answer must miss the deadline: {latency}"
        );
    }

    #[test]
    fn stragglers_scale_latency() {
        let plan = FaultPlan {
            straggler_rate: 1.0,
            straggler_factor: 6.0,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan, 2).unwrap();
        let out = inj.apply(
            AssignmentId(5),
            AnnotatorId(0),
            t(0.0),
            1e6,
            Some((ClassId(0), t(3.0))),
        );
        let (_, latency) = out.response.unwrap();
        assert!(out.faults.straggler);
        assert!((latency.as_f64() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn outage_defers_arrivals_to_window_end() {
        let plan = FaultPlan {
            outages: vec![
                OutageWindow {
                    start: 4.0,
                    end: 9.0,
                },
                // Chained window: arrivals pushed to 9.0 land in this one.
                OutageWindow {
                    start: 9.0,
                    end: 12.0,
                },
            ],
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan, 2).unwrap();
        let out = inj.apply(
            AssignmentId(0),
            AnnotatorId(0),
            t(0.0),
            100.0,
            Some((ClassId(0), t(5.0))),
        );
        let (_, latency) = out.response.unwrap();
        assert!(out.faults.outage);
        assert!((latency.as_f64() - 12.0).abs() < 1e-9);
        // Arrivals outside every window pass through untouched.
        let clean = inj.apply(
            AssignmentId(1),
            AnnotatorId(0),
            t(0.0),
            100.0,
            Some((ClassId(0), t(2.0))),
        );
        assert_eq!(clean.response.unwrap().1, t(2.0));
        assert!(!clean.faults.outage);
    }

    #[test]
    fn duplicates_trail_the_original() {
        let plan = FaultPlan {
            duplicate_rate: 1.0,
            duplicate_delay: 2.5,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan, 2).unwrap();
        let out = inj.apply(
            AssignmentId(9),
            AnnotatorId(0),
            t(10.0),
            100.0,
            Some((ClassId(0), t(4.0))),
        );
        assert!(out.faults.duplicate);
        let dup = out.duplicate_at.unwrap();
        assert!((dup.as_f64() - 16.5).abs() < 1e-9);
        // No duplicate for a no-show.
        let plan = FaultPlan {
            duplicate_rate: 1.0,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan, 2).unwrap();
        let out = inj.apply(AssignmentId(9), AnnotatorId(0), t(10.0), 100.0, None);
        assert_eq!(out.duplicate_at, None);
    }

    #[test]
    fn drift_turns_labels_uniform_after_onset() {
        let plan = FaultPlan {
            drifts: vec![QualityDrift {
                annotator: AnnotatorId(2),
                at: 50.0,
            }],
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan, 4).unwrap();
        // Before onset: label passes through.
        let before = inj.apply(
            AssignmentId(0),
            AnnotatorId(2),
            t(49.0),
            10.0,
            Some((ClassId(3), t(1.0))),
        );
        assert_eq!(before.response.unwrap().0, ClassId(3));
        assert!(!before.faults.drifted);
        // After onset: labels are (seeded-)uniform; over many assignments
        // every class appears and the truth is no longer privileged.
        let mut counts = [0usize; 4];
        for id in 0..2000 {
            let out = inj.apply(
                AssignmentId(id),
                AnnotatorId(2),
                t(60.0),
                10.0,
                Some((ClassId(3), t(1.0))),
            );
            assert!(out.faults.drifted);
            counts[out.response.unwrap().0.index()] += 1;
        }
        for (c, &n) in counts.iter().enumerate() {
            let frac = n as f64 / 2000.0;
            assert!((frac - 0.25).abs() < 0.04, "class {c}: {frac}");
        }
        // Other annotators are untouched at the same clock.
        let other = inj.apply(
            AssignmentId(0),
            AnnotatorId(1),
            t(60.0),
            10.0,
            Some((ClassId(3), t(1.0))),
        );
        assert_eq!(other.response.unwrap().0, ClassId(3));
    }
}
