//! The metric vocabulary — every name the benchmark reports, with its
//! unit and direction, as `BENCHMARK.json` lists them — and the result
//! line the benchmark prints last.
//!
//! Host numbers (`s`, `tokens/cpu_s`, `MB`) come from this machine's
//! clocks and carry noise. Simulated numbers (`cycles`, `tokens/sim_s`) come
//! from the modelled accelerator and repeat exactly for a seed.

use std::fmt::Write as _;

/// One metric's name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
}

const fn def(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef { name, unit, higher_is_better }
}

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [MetricDef; 8] = [
    def("host_tokens_per_cpu_s", "tokens/cpu_s", true),
    def("setup_s", "s", false),
    def("peak_rss_mb", "MB", false),
    def("sim_tokens_per_s", "tokens/sim_s", true),
    def("sim_latency_p50_cycles", "cycles", false),
    def("sim_latency_p90_cycles", "cycles", false),
    def("slo_met_frac", "frac", true),
    def("completed_frac", "frac", true),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload
/// leaves idle reports 0 for its metrics.
pub const PER_LAYER: [MetricDef; 36] = [
    def("workload.trace_gen_s", "s", false),
    def("router.route_s", "s", false),
    def("router.affinity_frac", "frac", true),
    def("router.load_imbalance", "ratio", false),
    def("router.replications", "count", false),
    def("router.transfer_bytes", "bytes", false),
    def("serve.queue_cycles", "cycles", false),
    def("serve.stalled_cycles", "cycles", false),
    def("serve.batch_tokens_mean", "tokens", true),
    def("serve.occupancy_mean", "frac", true),
    def("serve.preemptions", "count", false),
    def("session.admit_s", "s", false),
    def("session.absorb_s", "s", false),
    def("cache.attach_s", "s", false),
    def("cache.detach_s", "s", false),
    def("cache.hit_frac", "frac", true),
    def("cache.decomposed_tokens", "tokens", false),
    def("cache.evictions", "count", false),
    def("cache.resident_bytes_max", "bytes", false),
    def("tier.put_s", "s", false),
    def("tier.get_s", "s", false),
    def("tier.puts", "count", false),
    def("tier.gets", "count", false),
    def("tier.spilled_bytes", "bytes", false),
    def("tier.fetched_tokens", "tokens", true),
    def("engine.dispatch_s", "s", false),
    def("engine.rows", "rows", true),
    def("engine.sim_cycles", "cycles", false),
    def("engine.keys_retained_frac", "frac", false),
    def("engine.plane_fetch_frac", "frac", false),
    def("engine.lane_util_mean", "frac", true),
    def("engine.dram_bytes", "bytes", false),
    def("engine.workers", "count", true),
    def("trace.overhead_frac", "frac", false),
    def("trace.spans", "count", false),
    def("attributed_frac", "frac", true),
];

/// Looks a metric up by name in either table.
#[must_use]
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
}

/// Metric values in the order they were set.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(Vec<(&'static MetricDef, f64)>);

impl Metrics {
    /// Sets `name` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the vocabulary — every reported name
    /// must carry a unit.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = lookup(name).unwrap_or_else(|| panic!("metric {name} is not defined"));
        self.0.retain(|(d, _)| d.name != name);
        self.0.push((def, value));
    }

    /// The value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(d, _)| d.name == name).map(|&(_, v)| v)
    }

    /// Every metric set, with its definition.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.0.iter().copied()
    }
}

/// The last line of the benchmark's output.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Requests sent, over every replay of the run.
    pub attempted: u64,
    /// Requests that did not complete, over every replay of the run.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// `{"correct": …, "attempted": …, "failed": …, "metrics": {name:
    /// {"value": …, "unit": …}}}` with every value at full precision.
    /// A value that is not finite is written as `null`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (def, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { format!("{value}") } else { "null".into() };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// The median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of `sorted`, with the number
/// of samples strictly beyond its rank.
///
/// # Panics
///
/// Panics if `sorted` is empty.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> (u64, usize) {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(all[i + 1..].iter().all(|o| o.name != m.name), "{} twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn percentile_counts_the_samples_beyond_it() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), (50, 50));
        assert_eq!(percentile(&v, 0.9), (90, 10));
        assert_eq!(percentile(&[7], 0.9), (7, 0));
        assert!((median(&[3.0, 1.0, 2.0, 10.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn json_line_carries_every_value_and_unit() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 0.125);
        metrics.set("sim_latency_p90_cycles", 4711.0);
        let line = Outcome { correct: true, attempted: 3, failed: 0, metrics }.to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.125, \"unit\": \"s\"}, \"sim_latency_p90_cycles\": {\"value\": 4711, \
             \"unit\": \"cycles\"}}}"
        );
    }
}
