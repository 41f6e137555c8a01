//! Per-layer metrics derived from one traced run.
//!
//! The input is the parsed `crowdrl-obs` trace of a run whose calls the
//! benchmark wrapped in `bench.*` spans. Spans carry no thread id, but the
//! recorder parents a span only to the innermost open span *on its own
//! thread*, so every span tree is single-threaded: trees rooted at a
//! `bench.*` span are the calling thread, every other root is a span on a
//! pool or agent thread.
//!
//! Attribution rules:
//!
//! * A span's self time is its duration minus its same-thread children.
//!   Busy time per layer is the sum of self times over every thread.
//! * An envelope span (the entry points' `service.run`, `serve.run`,
//!   `workflow.run`, and the benchmark's `bench.run` around them) does no
//!   phase work of its own. Its calling-thread self time that overlaps a
//!   span on another thread is waiting for that thread (plus any
//!   un-spanned calling-thread work that ran alongside it). That time is
//!   reported once, as `calling.blocked_s`, and never as layer self time.
//! * The rest of an envelope's self time is work in no phase span: the gap
//!   later spans must fill. Its share of the run is `unattributed_share`.

use crowdrl_obs::analyze::{split_project_scope, Trace};
use crowdrl_obs::Event;
use std::collections::BTreeMap;

/// How a derived value should be read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Detail {
    /// A count, a sum or a time.
    Plain,
    /// A ratio, with the count it is taken over.
    Base(u64),
    /// A ratio of the time reported by the named metric.
    Of(&'static str),
    /// A percentile, with its sample count and whether at least ten
    /// samples lie beyond it.
    Samples { n: usize, resolved: bool },
}

/// One per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    pub name: &'static str,
    pub layer: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub detail: Detail,
}

/// Envelope spans: self time there is waiting or un-spanned work.
const ENVELOPES: [&str; 4] = ["bench.run", "service.run", "serve.run", "workflow.run"];

/// A completed span.
#[derive(Debug, Clone)]
struct Span {
    /// Name with any `project.<id>.` scope stripped.
    name: String,
    project: Option<usize>,
    parent: Option<usize>,
    start: u64,
    end: u64,
    /// The span's tree is rooted at a `bench.*` span.
    calling: bool,
}

/// The completed spans of `trace`, parents before children. A span whose
/// parent never closed is dropped with its subtree.
fn spans(trace: &Trace) -> Vec<Span> {
    let mut ends = BTreeMap::new();
    for e in &trace.events {
        if let Event::SpanEnd { id, wall_ns } = e {
            ends.insert(*id, *wall_ns);
        }
    }
    let mut out: Vec<Span> = Vec::new();
    let mut index = BTreeMap::new();
    for e in &trace.events {
        let Event::SpanStart {
            id,
            parent,
            name,
            wall_ns,
        } = e
        else {
            continue;
        };
        let Some(&end) = ends.get(id) else { continue };
        let parent = match parent {
            Some(p) => match index.get(p) {
                Some(&i) => Some(i),
                None => continue,
            },
            None => None,
        };
        let calling = parent.map_or(name.starts_with("bench."), |i: usize| out[i].calling);
        let (project, name) = match split_project_scope(name) {
            Some((p, rest)) => (Some(p), rest.to_owned()),
            None => (None, name.clone()),
        };
        index.insert(*id, out.len());
        out.push(Span {
            name,
            project,
            parent,
            start: *wall_ns,
            end,
            calling,
        });
    }
    out
}

/// Sorted, disjoint union of intervals.
fn union(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Length of `[s, e)` covered by the sorted disjoint `set`.
fn overlap(set: &[(u64, u64)], s: u64, e: u64) -> u64 {
    let first = set.partition_point(|iv| iv.1 <= s);
    set[first..]
        .iter()
        .take_while(|iv| iv.0 < e)
        .map(|iv| iv.1.min(e).saturating_sub(iv.0.max(s)))
        .sum()
}

/// Nearest-rank percentile `p` of `values`, with its sample count and
/// whether at least ten samples lie beyond it. 0 when empty.
fn percentile(values: &[f64], p: f64) -> (f64, Detail) {
    let n = values.len();
    if n == 0 {
        return (0.0, Detail::Samples { n, resolved: false });
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let resolved = n - rank >= 10;
    (sorted[rank - 1], Detail::Samples { n, resolved })
}

fn ratio(num: u64, den: u64) -> (f64, Detail) {
    let value = if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    };
    (value, Detail::Base(den))
}

/// Crate layer of a scope-stripped span name.
fn layer_of(name: &str) -> &'static str {
    if name == "serve.sample" {
        // Response sampling is the simulator's work, timed from the pump.
        return "sim";
    }
    match name.split('.').next().unwrap_or("") {
        "service" => "service",
        "serve" => "serve",
        "workflow" | "decide" => "core",
        "em" => "inference",
        "dqn" => "rl",
        "bench" => "bench",
        _ => "other",
    }
}

/// Spans with self times, plus the counter, gauge and histogram readings.
struct Derived<'t> {
    trace: &'t Trace,
    spans: Vec<Span>,
    /// Self time per span, net of calling-thread waiting.
    net_self: Vec<u64>,
    /// Calling-thread envelope time spent waiting on other threads.
    blocked: u64,
    counters: BTreeMap<&'t str, u64>,
    /// Histogram `(count, sum)` per name.
    hists: BTreeMap<&'t str, (u64, f64)>,
}

impl<'t> Derived<'t> {
    fn new(trace: &'t Trace) -> Self {
        let spans = spans(trace);
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let elsewhere = union(
            spans
                .iter()
                .filter(|s| !s.calling && s.parent.is_none())
                .map(|s| (s.start, s.end))
                .collect(),
        );
        let mut net_self = Vec::with_capacity(spans.len());
        let mut blocked_total = 0;
        for (s, kids) in spans.iter().zip(&mut children) {
            // Same-thread children nest inside the parent and never
            // overlap each other.
            kids.sort_unstable();
            let covered: u64 = kids.iter().map(|(a, b)| b - a).sum();
            let self_ns = (s.end - s.start).saturating_sub(covered);
            let mut blocked = 0;
            if s.calling && ENVELOPES.contains(&s.name.as_str()) {
                let mut cursor = s.start;
                for &(a, b) in kids.iter().chain([&(s.end, s.end)]) {
                    if a > cursor {
                        blocked += overlap(&elsewhere, cursor, a);
                    }
                    cursor = cursor.max(b);
                }
            }
            let blocked = blocked.min(self_ns);
            blocked_total += blocked;
            net_self.push(self_ns - blocked);
        }
        let mut counters = BTreeMap::new();
        let mut hists = BTreeMap::new();
        for e in &trace.events {
            match e {
                Event::Counter { name, value, .. } => {
                    counters.insert(name.as_str(), *value);
                }
                Event::Histogram {
                    name, count, sum, ..
                } => {
                    hists.insert(name.as_str(), (*count, *sum));
                }
                _ => {}
            }
        }
        Derived {
            trace,
            spans,
            net_self,
            blocked: blocked_total,
            counters,
            hists,
        }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len()).filter(move |&i| self.spans[i].name == name)
    }

    fn calls(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    fn self_s(&self, name: &str) -> f64 {
        self.named(name).map(|i| self.net_self[i]).sum::<u64>() as f64 / 1e9
    }

    fn intervals(&self, name: &str) -> Vec<(u64, u64)> {
        self.named(name)
            .map(|i| (self.spans[i].start, self.spans[i].end))
            .collect()
    }

    fn total_ns(&self, name: &str) -> u64 {
        self.intervals(name).iter().map(|(s, e)| e - s).sum()
    }

    fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|i| (self.spans[i].end - self.spans[i].start) as f64 / 1e6)
            .collect()
    }

    /// A counter summed over every project scope and the unscoped name.
    fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| {
                **k == name || split_project_scope(k).is_some_and(|(_, rest)| rest == name)
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Histograms whose name starts with `prefix`, summed: `(count, sum)`.
    fn hist(&self, prefix: &str) -> (u64, f64) {
        self.hists
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .fold((0, 0.0), |(c, s), (_, (n, sum))| (c + n, s + sum))
    }

    fn gauges(&self, names: &[&str]) -> Vec<f64> {
        self.trace
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Gauge { name, value, .. } if names.contains(&name.as_str()) => Some(*value),
                _ => None,
            })
            .collect()
    }

    /// Calling-thread self time of every envelope, net of waiting.
    fn envelope_gaps(&self) -> Vec<(&'static str, u64)> {
        ENVELOPES
            .iter()
            .map(|name| {
                let ns = self
                    .named(name)
                    .filter(|&i| self.spans[i].calling)
                    .map(|i| self.net_self[i])
                    .sum();
                (*name, ns)
            })
            .collect()
    }
}

/// Metrics in the order they are derived, each tagged with the layer
/// being filled.
struct Table {
    layer: &'static str,
    out: Vec<LayerMetric>,
}

impl Table {
    fn put(&mut self, name: &'static str, unit: &'static str, (value, detail): (f64, Detail)) {
        self.out.push(LayerMetric {
            name,
            layer: self.layer,
            unit,
            value: if value.is_finite() { value } else { 0.0 },
            detail,
        });
    }

    fn count(&mut self, name: &'static str, n: u64) {
        self.put(name, "count", (n as f64, Detail::Plain));
    }

    fn secs(&mut self, name: &'static str, s: f64) {
        self.put(name, "s", (s, Detail::Plain));
    }

    fn ratio(&mut self, name: &'static str, num: u64, den: u64) {
        self.put(name, "ratio", ratio(num, den));
    }

    fn percentile_ms(&mut self, name: &'static str, values_ms: &[f64], p: f64) {
        self.put(name, "ms", percentile(values_ms, p));
    }
}

/// Derive every per-layer metric from `trace`, in stack order, and the
/// envelope spans with work in no phase span (the gaps later spans must
/// fill) with that time in seconds.
pub fn rollup(trace: &Trace) -> (Vec<LayerMetric>, Vec<(&'static str, f64)>) {
    let d = Derived::new(trace);
    let mut t = Table {
        layer: "service",
        out: Vec::new(),
    };
    let ns_s = |ns: u64| ns as f64 / 1e9;

    t.count("service.rounds", d.counter("service.rounds"));
    t.secs("service.self_s", d.self_s("service.run"));
    let mut busy: BTreeMap<usize, u64> = BTreeMap::new();
    for i in d.named("serve.refresh") {
        let s = &d.spans[i];
        if let Some(p) = s.project {
            *busy.entry(p).or_default() += s.end - s.start;
        }
    }
    let spread = match (busy.values().max(), busy.values().min()) {
        (Some(&max), Some(&min)) if busy.len() > 1 => {
            let mean = busy.values().sum::<u64>() as f64 / busy.len() as f64;
            (max - min) as f64 / mean
        }
        _ => 0.0,
    };
    let projects = busy.len() as u64;
    t.put(
        "service.tenant_busy_spread",
        "ratio",
        (spread, Detail::Base(projects)),
    );
    t.count("service.projects", projects);
    // The service's own spread of delivered answers over the projects that
    // completed.
    let fairness = d.gauges(&["service.fairness_spread"]).last().copied();
    let completed = d
        .counter("service.projects_admitted")
        .saturating_sub(d.counter("service.projects_failed"));
    let fairness = (fairness.unwrap_or(0.0), Detail::Base(completed));
    t.put("service.fairness_spread", "ratio", fairness);

    t.layer = "serve";
    let refresh = d.durations_ms("serve.refresh");
    t.count("serve.refresh.calls", refresh.len() as u64);
    t.percentile_ms("serve.refresh.p50_ms", &refresh, 50.0);
    t.percentile_ms("serve.refresh.p90_ms", &refresh, 90.0);
    t.secs("serve.train.self_s", d.self_s("serve.train"));
    // The pump waits while the agent refreshes: its busy time is its
    // `serve.run` minus the union of refresh intervals on any thread.
    let refreshes = union(d.intervals("serve.refresh"));
    let pump_ns: u64 = d
        .named("serve.run")
        .filter(|&i| d.spans[i].calling)
        .map(|i| {
            let s = &d.spans[i];
            (s.end - s.start) - overlap(&refreshes, s.start, s.end)
        })
        .sum();
    t.secs("serve.pump.busy_s", ns_s(pump_ns));
    let cuts: Vec<f64> = d
        .gauges(&["checkpoint.write_ns"])
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    t.count("serve.checkpoint.cuts", cuts.len() as u64);
    t.percentile_ms("serve.checkpoint.cut_ms", &cuts, 50.0);
    t.secs("bench.encode_s", ns_s(d.total_ns("bench.encode")));
    let bytes = d.counter("bench.checkpoint_bytes");
    t.put(
        "bench.checkpoint_mb",
        "MB",
        (bytes as f64 / 1e6, Detail::Plain),
    );
    t.count("serve.requeues", d.counter("serve.requeues"));
    t.count(
        "serve.answers_rejected",
        d.counter("serve.answers_rejected"),
    );
    t.count("quarantine.entered", d.counter("quarantine.entered"));
    t.count("quarantine.released", d.counter("quarantine.released"));

    t.layer = "core";
    let decide = d.durations_ms("serve.decide");
    t.count("decide.calls", decide.len() as u64);
    t.percentile_ms("decide.p50_ms", &decide, 50.0);
    t.percentile_ms("decide.p90_ms", &decide, 90.0);
    t.secs("decide.rank.self_s", d.self_s("decide.rank"));
    t.secs("decide.grid.self_s", d.self_s("decide.grid"));
    t.secs("decide.embed.self_s", d.self_s("decide.embed"));
    t.secs("decide.features.self_s", d.self_s("decide.features"));
    let pairs = d.counter("decide.total_pairs");
    t.ratio(
        "decide.scored_fraction",
        d.counter("decide.scored_pairs"),
        pairs,
    );
    t.count("decide.total_pairs", pairs);
    let hits = d.counter("decide.cache_hits");
    let lookups = hits + d.counter("decide.cache_misses");
    t.ratio("decide.cache_hit_rate", hits, lookups);
    t.count("decide.cache_lookups", lookups);
    t.secs("workflow.iter.self_s", d.self_s("workflow.iter"));
    t.secs("workflow.select.self_s", d.self_s("workflow.select"));
    t.secs(
        "workflow.reward_train.self_s",
        d.self_s("workflow.reward_train"),
    );

    t.layer = "inference";
    let warm = d.durations_ms("em.engine.warm");
    let warm_calls = warm.len() as u64;
    t.count("em.warm.calls", warm_calls);
    t.secs("em.warm.self_s", d.self_s("em.engine.warm"));
    t.percentile_ms("em.warm.p50_ms", &warm, 50.0);
    // One dirty-fraction sample per warm call: their mean, over the calls.
    let dirty = d.gauges(&["em.joint.dirty_fraction", "em.ds.dirty_fraction"]);
    let mean_dirty = dirty.iter().sum::<f64>() / dirty.len().max(1) as f64;
    let dirty_base = Detail::Base(dirty.len() as u64);
    t.put("em.dirty_fraction", "ratio", (mean_dirty, dirty_base));
    let cold_calls = d.calls("em.joint.infer") + d.calls("em.ds.infer");
    t.count("em.cold.calls", cold_calls);
    t.secs(
        "em.cold.self_s",
        d.self_s("em.joint.infer") + d.self_s("em.ds.infer"),
    );
    t.ratio("em.cold_share", cold_calls, cold_calls + warm_calls);
    t.count("em.calls", cold_calls + warm_calls);

    t.layer = "rl";
    t.count("dqn.steps", d.calls("dqn.step"));
    t.secs("dqn.fwd_s", d.self_s("dqn.fwd"));
    t.secs("dqn.bwd_s", d.self_s("dqn.bwd"));
    t.secs("dqn.step_s", d.self_s("dqn.step"));
    let hits = d.counter("dqn.bootstrap.cache_hits");
    let lookups = hits + d.counter("dqn.bootstrap.cache_misses");
    t.ratio("dqn.bootstrap.hit_rate", hits, lookups);
    t.count("dqn.bootstrap.lookups", lookups);

    // The pool's per-chunk histograms; a chunk nested in another pooled
    // chunk counts at both levels.
    t.layer = "linalg";
    let (chunks, matmul_s) = d.hist("pool.execute.matmul");
    t.count("linalg.matmul.chunks", chunks);
    t.secs("linalg.matmul.busy_s", matmul_s);
    t.secs("linalg.pool.busy_s", d.hist("pool.execute.").1);
    t.secs("linalg.pool.wait_s", d.hist("pool.queue_wait.").1);

    t.layer = "sim";
    t.secs("sim.sample.self_s", d.self_s("serve.sample"));
    let faults: u64 = d
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("fault.injected."))
        .map(|(_, v)| v)
        .sum();
    t.count("sim.faults_injected", faults);

    // Busy time per layer across threads.
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (s, ns) in d.spans.iter().zip(&d.net_self) {
        if s.name != "bench.setup" && s.name != "bench.verify" {
            *by_layer.entry(layer_of(&s.name)).or_default() += ns;
        }
    }
    for (name, layer) in [
        ("layer.service.busy_s", "service"),
        ("layer.serve.busy_s", "serve"),
        ("layer.core.busy_s", "core"),
        ("layer.inference.busy_s", "inference"),
        ("layer.rl.busy_s", "rl"),
        ("layer.sim.busy_s", "sim"),
        ("layer.bench.busy_s", "bench"),
    ] {
        t.layer = layer;
        t.secs(name, ns_s(by_layer.get(layer).copied().unwrap_or(0)));
    }

    t.layer = "obs";
    t.secs("calling.blocked_s", ns_s(d.blocked));
    let run_ns = d.total_ns("bench.run");
    let gaps = d.envelope_gaps();
    let gap_ns: u64 = gaps.iter().map(|(_, ns)| ns).sum();
    let (share, _) = ratio(gap_ns, run_ns);
    t.put(
        "unattributed_share",
        "ratio",
        (share, Detail::Of("obs.run_s")),
    );
    t.secs("obs.run_s", ns_s(run_ns));
    let gaps = gaps
        .into_iter()
        .filter(|(_, ns)| *ns > 0)
        .map(|(name, ns)| (name, ns_s(ns)))
        .collect();
    (t.out, gaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_obs::analyze::parse_trace;

    /// A trace from `(id, parent, name, start, end)` spans plus extra
    /// event lines, written in start order like the recorder would.
    fn trace(spans: &[(u64, Option<u64>, &str, u64, u64)], extra: &[&str]) -> Trace {
        let mut events: Vec<(u64, String)> = Vec::new();
        for &(id, parent, name, start, end) in spans {
            let p = parent.map_or(String::new(), |p| format!(",\"p\":{p}"));
            events.push((
                start,
                format!("{{\"t\":\"ss\",\"id\":{id}{p},\"n\":\"{name}\",\"w\":{start}}}"),
            ));
            events.push((end, format!("{{\"t\":\"se\",\"id\":{id},\"w\":{end}}}")));
        }
        events.sort_by_key(|(w, _)| *w);
        let mut text: Vec<String> = events.into_iter().map(|(_, l)| l).collect();
        text.extend(extra.iter().map(|l| (*l).to_owned()));
        parse_trace(&text.join("\n")).expect("test trace parses")
    }

    fn get(metrics: &[LayerMetric], name: &str) -> LayerMetric {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .clone()
    }

    #[test]
    fn self_time_excludes_children_and_waiting_on_other_threads() {
        // Calling thread: bench.run > service.run > one refresh it runs
        // itself. A pool thread runs another project's refresh (a root
        // span) while the calling thread has nothing open but service.run.
        let t = trace(
            &[
                (1, None, "bench.run", 0, 1_000),
                (2, Some(1), "service.run", 0, 1_000),
                (3, Some(2), "project.0.serve.refresh", 100, 400),
                (4, Some(3), "project.0.serve.decide", 150, 350),
                (5, None, "project.1.serve.refresh", 300, 700),
                (6, Some(5), "project.1.serve.decide", 300, 600),
            ],
            &[],
        );
        let (m, _) = rollup(&t);
        // service.run self: 1000 - 300 (own child) = 700, of which 300
        // (400..700) overlaps the pool thread's refresh.
        assert_eq!(get(&m, "calling.blocked_s").value, 300e-9);
        assert_eq!(get(&m, "service.self_s").value, 400e-9);
        // Both refreshes and both decides count, each net of its own
        // same-thread children, whichever thread ran them.
        assert_eq!(get(&m, "layer.serve.busy_s").value, 700e-9);
        assert_eq!(get(&m, "decide.calls").value, 2.0);
        assert_eq!(get(&m, "decide.p50_ms").value, 200e-6);
        // The decide span of the calling thread is work, not waiting, even
        // though the pool thread is busy at the same time.
        assert_eq!(get(&m, "unattributed_share").value, 0.4);
        // Per-project refresh time: 300 and 400.
        assert!((get(&m, "service.tenant_busy_spread").value - 100.0 / 350.0).abs() < 1e-12);
        assert_eq!(
            get(&m, "service.tenant_busy_spread").detail,
            Detail::Base(2)
        );
    }

    #[test]
    fn pump_busy_time_removes_the_union_of_agent_refreshes() {
        // Two agent-thread refreshes overlap each other (as on two agent
        // threads); the union, not the sum, is removed from serve.run.
        let t = trace(
            &[
                (1, None, "bench.run", 0, 1_000),
                (2, Some(1), "serve.run", 0, 1_000),
                (3, None, "serve.refresh", 100, 300),
                (4, None, "serve.refresh", 250, 400),
                (5, None, "serve.refresh", 600, 700),
                (6, Some(2), "bench.encode", 800, 900),
            ],
            &[],
        );
        let (m, gaps) = rollup(&t);
        assert_eq!(get(&m, "serve.pump.busy_s").value, 600e-9);
        assert_eq!(get(&m, "bench.encode_s").value, 100e-9);
        // serve.run self 900, waiting 400, so 500 unattributed of 1000,
        // named as serve.run's gap.
        assert_eq!(get(&m, "calling.blocked_s").value, 400e-9);
        assert_eq!(get(&m, "unattributed_share").value, 0.5);
        assert_eq!(gaps, vec![("serve.run", 500e-9)]);
    }

    #[test]
    fn percentiles_report_samples_and_resolution() {
        let (v, detail) = percentile(&(1..=100).map(f64::from).collect::<Vec<_>>(), 90.0);
        assert_eq!(v, 90.0);
        assert_eq!(
            detail,
            Detail::Samples {
                n: 100,
                resolved: true
            }
        );
        let (v, detail) = percentile(&(1..=50).map(f64::from).collect::<Vec<_>>(), 90.0);
        assert_eq!(v, 45.0);
        assert_eq!(
            detail,
            Detail::Samples {
                n: 50,
                resolved: false
            }
        );
        let (v, detail) = percentile(&[], 50.0);
        assert_eq!(v, 0.0);
        assert_eq!(
            detail,
            Detail::Samples {
                n: 0,
                resolved: false
            }
        );

        // Twenty refreshes of 1..=20 ms: p50 has ten samples beyond it.
        let spans: Vec<(u64, Option<u64>, &str, u64, u64)> = (1..=20u64)
            .map(|i| {
                (
                    i,
                    None,
                    "serve.refresh",
                    i * 100_000_000,
                    i * 100_000_000 + i * 1_000_000,
                )
            })
            .collect();
        let (m, _) = rollup(&trace(&spans, &[]));
        let p50 = get(&m, "serve.refresh.p50_ms");
        assert_eq!(p50.value, 10.0);
        assert_eq!(
            p50.detail,
            Detail::Samples {
                n: 20,
                resolved: true
            }
        );
        let p90 = get(&m, "serve.refresh.p90_ms");
        assert_eq!(p90.value, 18.0);
        assert_eq!(
            p90.detail,
            Detail::Samples {
                n: 20,
                resolved: false
            }
        );
    }

    #[test]
    fn every_ratio_reports_its_base() {
        let t = trace(
            &[
                (1, None, "bench.run", 0, 100),
                (2, Some(1), "em.engine.warm", 0, 10),
                (3, Some(1), "em.joint.infer", 10, 30),
                (4, Some(1), "em.engine.warm", 30, 40),
            ],
            &[
                r#"{"t":"c","n":"project.0.decide.total_pairs","v":80,"w":100}"#,
                r#"{"t":"c","n":"project.1.decide.total_pairs","v":20,"w":100}"#,
                r#"{"t":"c","n":"project.0.decide.scored_pairs","v":25,"w":100}"#,
                r#"{"t":"c","n":"project.0.decide.cache_hits","v":3,"w":100}"#,
                r#"{"t":"c","n":"project.1.decide.cache_misses","v":1,"w":100}"#,
                r#"{"t":"c","n":"dqn.bootstrap.cache_hits","v":6,"w":100}"#,
                r#"{"t":"c","n":"dqn.bootstrap.cache_misses","v":2,"w":100}"#,
                r#"{"t":"g","n":"em.joint.dirty_fraction","v":0.25,"w":5,"s":1}"#,
                r#"{"t":"g","n":"em.joint.dirty_fraction","v":0.75,"w":35,"s":2}"#,
            ],
        );
        let (m, _) = rollup(&t);
        let expect = [
            ("decide.scored_fraction", 0.25, 100),
            ("decide.cache_hit_rate", 0.75, 4),
            ("dqn.bootstrap.hit_rate", 0.75, 8),
            ("em.cold_share", 1.0 / 3.0, 3),
            ("em.dirty_fraction", 0.5, 2),
            ("service.tenant_busy_spread", 0.0, 0),
            ("service.fairness_spread", 0.0, 0),
        ];
        for (name, value, base) in expect {
            let got = get(&m, name);
            assert!((got.value - value).abs() < 1e-12, "{name}: {}", got.value);
            assert_eq!(got.detail, Detail::Base(base), "{name}");
        }
        // bench.run self time: 100 - 40 in its three phase spans.
        let gap = get(&m, "unattributed_share");
        assert!((gap.value - 0.6).abs() < 1e-12);
        assert_eq!(gap.detail, Detail::Of("obs.run_s"));
        for metric in m.iter().filter(|m| m.unit == "ratio") {
            assert!(
                matches!(metric.detail, Detail::Base(_) | Detail::Of(_)),
                "{} has no base",
                metric.name
            );
        }
    }
}
