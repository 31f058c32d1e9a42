//! Metric catalogue, sample statistics and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit and direction; `BENCHMARK.json` must list the same names (a test
//! checks it). The last line of standard output is one JSON object with
//! exactly the keys `correct`, `attempted`, `failed` and `metrics`.

use std::collections::BTreeMap;

/// One declared metric: name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Stable name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: false,
    }
}

/// End-to-end metrics, from untraced runs (`--trace 0`). Each is the median
/// over the runs of one invocation.
pub const END_TO_END: [MetricDef; 5] = [
    lower("wall_s", "s"),
    lower("cpu_s", "s"),
    lower("peak_rss_mb", "MiB"),
    lower("setup_s", "s"),
    lower("sim_cycles", "cycles"),
];

/// Per-layer metrics, from the traced run and the probes sized from it
/// (`--trace 1`). Grouped by the simulator module they describe.
pub const PER_LAYER: [MetricDef; 50] = [
    // Front end: `sim::proc` and the workload threads of `apps`.
    lower("proc.threads", "count"),
    lower("proc.frontend_cpu_s", "s"),
    lower("proc.backend_cpu_s", "s"),
    lower("proc.user_s", "s"),
    lower("proc.sys_s", "s"),
    lower("proc.ctx_switches", "count"),
    lower("proc.handoff_us", "us"),
    lower("proc.spawn_join_ms", "ms"),
    // Memory model: `mem`.
    lower("mem.hit_spans", "count"),
    lower("mem.stall_spans", "count"),
    lower("sim.others_cycles", "cycles"),
    // Protocol handlers: `core` (treadmarks, controller, sync, diff).
    lower("core.faults", "count"),
    lower("core.twins", "count"),
    lower("core.diffs_created", "count"),
    lower("core.diffs_applied", "count"),
    lower("core.diff_bytes_applied", "bytes"),
    lower("core.page_fetches", "count"),
    lower("core.invalidations", "count"),
    lower("core.lock_acquires", "count"),
    lower("core.barriers", "count"),
    lower("core.prefetches", "count"),
    higher("core.prefetch_useful_ratio", "ratio"),
    lower("ctrl.commands", "count"),
    lower("ctrl.busy_cycles", "cycles"),
    lower("sim.busy_cycles", "cycles"),
    lower("sim.data_cycles", "cycles"),
    lower("sim.synch_cycles", "cycles"),
    lower("sim.ipc_cycles", "cycles"),
    // Network: `net`.
    lower("net.messages", "count"),
    lower("net.bytes", "bytes"),
    lower("net.blocking_cycles", "cycles"),
    lower("net.replay_ns_per_msg", "ns"),
    // Transport: `core::transport`.
    lower("transport.frames_sent", "count"),
    lower("transport.acks_sent", "count"),
    lower("transport.retransmits", "count"),
    lower("transport.dup_frames_dropped", "count"),
    higher("transport.goodput_ratio", "ratio"),
    // Event queue: `sim::queue`.
    lower("queue.depth_max", "count"),
    lower("queue.push_pop_ns", "ns"),
    // Instrumentation sinks: `obs`, `verify`, `core::timeseries`.
    lower("obs.spans", "count"),
    lower("obs.engine_spans", "count"),
    lower("obs.flights", "count"),
    lower("obs.edges", "count"),
    lower("ts.windows", "count"),
    lower("obs.export_ms", "ms"),
    lower("obs.trace_overhead_s", "s"),
    lower("verify.violations", "count"),
    // Engine: `bench` (`Engine::with_prof` phases).
    lower("bench.setup_ms", "ms"),
    lower("bench.sim_s", "s"),
    lower("bench.obs_export_ms", "ms"),
];

/// Whether `name` is a legal metric name: one or more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of p50/p90/p99/p99.9 that has at least ten samples above
/// it, with its value (nearest-rank). `None` when fewer than 20 samples
/// exist, so no tail percentile is backed by ten samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99.9, 99.0, 90.0, 50.0].into_iter().find_map(|p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The number as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The result line: outcome counts plus named metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every run passed its correctness gate (and at least one ran).
    pub correct: bool,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed a correctness check, panicked or deadlocked.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, Value>,
}

impl Outcome {
    /// Renders the result line. Values use Rust's shortest round-trip float
    /// formatting, so parsing the line gives back the same numbers.
    pub fn to_json(&self) -> String {
        let body = self
            .metrics
            .iter()
            .map(|(name, v)| {
                // Names and units are plain ASCII without quotes or
                // backslashes (`valid_name`), so they need no escaping.
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_num(v.value),
                    v.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// Parses a result line written by [`Outcome::to_json`].
    #[cfg(test)]
    pub fn from_json(text: &str) -> Result<Outcome, String> {
        let v = ncp2_obs::json::parse(text)?;
        let field = |k: &str| v.get(k).ok_or(format!("missing key {k}"));
        let mut metrics = BTreeMap::new();
        for (name, m) in field("metrics")?
            .as_obj()
            .ok_or("metrics is not an object")?
        {
            let value = m
                .get("value")
                .and_then(|x| x.as_f64())
                .ok_or(format!("{name}: no numeric value"))?;
            let unit = m
                .get("unit")
                .and_then(|x| x.as_str())
                .ok_or(format!("{name}: no unit"))?;
            metrics.insert(
                name.clone(),
                Value {
                    value,
                    unit: unit.to_string(),
                },
            );
        }
        Ok(Outcome {
            correct: field("correct")?.as_bool().ok_or("correct: not a bool")?,
            attempted: field("attempted")?
                .as_u64()
                .ok_or("attempted: not a count")?,
            failed: field("failed")?.as_u64().ok_or("failed: not a count")?,
            metrics,
        })
    }
}

/// JSON has no NaN or infinity; a metric that could not be formed is 0.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// Collects metric values, refusing names that are not declared in `defs`
/// or are set twice, so the printed set is exactly the declared set.
#[derive(Debug)]
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: BTreeMap<String, Value>,
}

impl MetricSet {
    /// An empty set over the declared `defs`.
    pub fn new(defs: &'static [MetricDef]) -> MetricSet {
        MetricSet {
            defs,
            values: BTreeMap::new(),
        }
    }

    /// Records `name = value` in the declared unit.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared or repeated name: both are bugs in this
    /// benchmark, never a property of the program measured.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(valid_name(name), "illegal metric name {name}");
        let def = self
            .defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        let prev = self.values.insert(
            name.to_string(),
            Value {
                value,
                unit: def.unit.to_string(),
            },
        );
        assert!(prev.is_none(), "metric {name} set twice");
    }

    /// The declared names that have no value yet.
    pub fn missing(&self) -> Vec<&'static str> {
        self.defs
            .iter()
            .filter(|d| !self.values.contains_key(d.name))
            .map(|d| d.name)
            .collect()
    }

    /// The collected values.
    pub fn into_values(self) -> BTreeMap<String, Value> {
        self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_is_legal_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for d in &all {
            assert!(valid_name(d.name), "illegal metric name {}", d.name);
            assert!(d.name.len() <= 64, "metric name too long: {}", d.name);
            assert!(d.name.as_bytes()[0].is_ascii_alphanumeric(), "{}", d.name);
            assert!(
                !d.unit.is_empty() && d.unit.len() <= 16,
                "bad unit for {}",
                d.name
            );
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is declared twice");
    }

    #[test]
    fn metric_counts_fit_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.lower_is_better));
    }

    #[test]
    fn name_check_rejects_other_characters() {
        assert!(valid_name("proc.handoff_us"));
        assert!(valid_name("a-b_c.9"));
        assert!(!valid_name(""));
        assert!(!valid_name("wall s"));
        assert!(!valid_name("cpu/s"));
        assert!(!valid_name("ü"));
    }

    #[test]
    fn result_line_parses_back_to_the_same_values() {
        let mut set = MetricSet::new(&END_TO_END);
        for (i, d) in END_TO_END.iter().enumerate() {
            set.set(d.name, 1.0 / (i as f64 + 3.0) + 1e-9 * i as f64);
        }
        assert!(set.missing().is_empty());
        let out = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: set.into_values(),
        };
        let line = out.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(Outcome::from_json(&line).expect("parses"), out);
    }

    #[test]
    fn undeclared_metric_is_refused() {
        let mut set = MetricSet::new(&END_TO_END);
        let r = std::panic::catch_unwind(move || set.set("bogus", 1.0));
        assert!(r.is_err());
    }

    #[test]
    fn median_and_tail_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail(&[1.0; 19]), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50.0, 10.0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
    }
}
