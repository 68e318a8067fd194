//! Serving metrics, recorded through the `pade-sim` counters.
//!
//! Everything is accumulated in simulated [`Cycle`]s: per-request latency
//! (completion − arrival) through [`LatencyStats`], queue depth and batch
//! occupancy as time-weighted step functions through
//! [`TimeWeightedGauge`], and the engine's arithmetic/traffic events
//! through [`OpCounts`]/[`TrafficCounts`] so the serving layer's numbers
//! stay composable with the rest of the workspace (e.g. `pade-energy`).
//!
//! Per-tenant SLO attainment rides in a [`MetricsRegistry`]: every
//! retirement of an SLO-carrying request records its latency into a
//! `slo.tenant<t>.latency` histogram plus met/total counters, and
//! [`slo_attainment`] digests the registry into per-tenant
//! [`TenantSloSummary`] lines. The router pools the raw registries across
//! nodes ([`MetricsRegistry::merge`]) and digests with the same function,
//! so fleet-level attainment is exact, not an average of averages.

use pade_cache::CacheStats;
use pade_sim::{
    Cycle, Frequency, LatencyStats, LatencySummary, OpCounts, TimeWeightedGauge, TrafficCounts,
};
use pade_trace::MetricsRegistry;

/// Running metric collectors of one serve run.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Per-request latency samples (completion − arrival).
    pub latency: LatencyStats,
    /// Requests in the system (admitted, unfinished) over time.
    pub queue_depth: TimeWeightedGauge,
    /// Fraction of engine slots carrying a block, over time.
    pub occupancy: TimeWeightedGauge,
    /// Query-row tokens in flight per iteration, over time.
    pub batch_tokens: TimeWeightedGauge,
    /// Engine arithmetic events over all dispatched blocks.
    pub ops: OpCounts,
    /// Engine memory traffic over all dispatched blocks.
    pub traffic: TrafficCounts,
    /// Scheduler iterations executed.
    pub iterations: u64,
    /// Query-row tokens completed.
    pub tokens: u64,
    /// Simulated engine cycles summed over all blocks (Σ block latency;
    /// ≥ the makespan whenever batching overlaps blocks).
    pub engine_cycles: u64,
    /// Prefix-cache counters (hit/decomposed tokens, evictions) copied
    /// from the run's `KvCacheManager`; all zero when the cache is off
    /// or the workload carries no prompts.
    pub cache: CacheStats,
    /// Bytes of decomposed planes the cache manager kept resident, over
    /// time (stepped at every attach/detach).
    pub cache_resident_bytes: TimeWeightedGauge,
    /// Sessions descheduled at a chunk/step boundary after having run
    /// (the scheduler left a previously-running session out of a batch).
    pub preemptions: u64,
    /// Previously-preempted sessions scheduled again.
    pub resumes: u64,
    /// Per-tenant SLO attainment: `slo.tenant<t>.latency` histograms plus
    /// `.met`/`.total` counters and a `.target` gauge, recorded at every
    /// retirement of a request carrying a
    /// [`tenant_slo`](pade_workload::trace::RequestArrival::tenant_slo).
    pub slo: MetricsRegistry,
    /// Flight-recorder cycle totals folded in at every retirement.
    pub flight: FlightTotals,
}

/// Flight-recorder cycle totals, summed over every retired request:
/// where admitted requests actually spent their time between arrival and
/// retirement. Accounted natively by the node at admit/dispatch/preempt/
/// retire — never derived from the tracer — so traced and untraced runs
/// digest identically; `pade_trace::flight::assemble_timelines`
/// reconstructs the same numbers per request from a run's link events.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlightTotals {
    /// Cycles between arrival and admission.
    pub queue_cycles: u64,
    /// Engine cycles the requests' prefill dispatches ran.
    pub prefill_cycles: u64,
    /// Engine cycles the requests' decode dispatches ran.
    pub decode_cycles: u64,
    /// Cycles parked between a preemption and its resume.
    pub preempted_cycles: u64,
    /// Admitted-but-idle cycles: in the system, neither running nor
    /// parked (batch waits inside an iteration window, head-of-line
    /// blocking, slower batch peers).
    pub stalled_cycles: u64,
    /// Requests folded into these totals (== completions).
    pub requests: u64,
}

impl FlightTotals {
    /// Accumulates another node's totals (the router's fleet merge).
    pub fn merge(&mut self, other: &FlightTotals) {
        self.queue_cycles += other.queue_cycles;
        self.prefill_cycles += other.prefill_cycles;
        self.decode_cycles += other.decode_cycles;
        self.preempted_cycles += other.preempted_cycles;
        self.stalled_cycles += other.stalled_cycles;
        self.requests += other.requests;
    }
}

/// `flight(n=N): queue Q + prefill P + decode D + preempted X + stalled S cyc`.
impl std::fmt::Display for FlightTotals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "flight(n={}): queue {} + prefill {} + decode {} + preempted {} + stalled {} cyc",
            self.requests,
            self.queue_cycles,
            self.prefill_cycles,
            self.decode_cycles,
            self.preempted_cycles,
            self.stalled_cycles
        )
    }
}

/// Per-tenant SLO attainment digest — one line of
/// [`MetricsSummary::slo`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSloSummary {
    /// Tenant id (the high 32 bits of the requests' session ids).
    pub tenant: u64,
    /// The tenant's latency SLO target in core cycles (the largest
    /// target observed, when requests vary).
    pub target_cycles: u64,
    /// SLO-carrying requests completed.
    pub total: u64,
    /// Of those, completions within the target.
    pub met: u64,
    /// Latency percentiles over the tenant's SLO-carrying requests.
    pub latency: LatencySummary,
}

impl TenantSloSummary {
    /// Fraction of completions within the target (0.0 when none
    /// completed — an empty line renders as `n=0 —`, never divides by
    /// zero).
    #[must_use]
    pub fn attainment(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.met as f64 / self.total as f64
        }
    }
}

/// `tenant <t>: n=0 —` when the tenant completed nothing (mirroring
/// [`LatencySummary`]'s empty rendering); otherwise the met/total
/// attainment against the target plus latency percentiles.
impl std::fmt::Display for TenantSloSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.total == 0 {
            return write!(f, "tenant {}: n=0 —", self.tenant);
        }
        write!(
            f,
            "tenant {}: {}/{} met ({:.1}%) vs SLO {} cyc · {}",
            self.tenant,
            self.met,
            self.total,
            100.0 * self.attainment(),
            self.target_cycles,
            self.latency
        )
    }
}

/// Digests the `slo.tenant<t>.*` entries of a registry into per-tenant
/// attainment lines, sorted by tenant id. Tenants that recorded no
/// histogram are absent (there is nothing to report); a tenant whose
/// histogram exists but is empty yields an `n=0 —`-rendering line.
///
/// Shared between [`ServeMetrics::summarize`] and the router's
/// fleet-level merge, so one node and a pooled fleet digest identically.
#[must_use]
pub fn slo_attainment(registry: &MetricsRegistry) -> Vec<TenantSloSummary> {
    let mut out: Vec<TenantSloSummary> = registry
        .histograms()
        .filter_map(|(name, stats)| {
            let tenant: u64 =
                name.strip_prefix("slo.tenant")?.strip_suffix(".latency")?.parse().ok()?;
            Some(TenantSloSummary {
                tenant,
                target_cycles: registry.gauge(&format!("slo.tenant{tenant}.target")).unwrap_or(0.0)
                    as u64,
                total: registry.counter(&format!("slo.tenant{tenant}.total")),
                met: registry.counter(&format!("slo.tenant{tenant}.met")),
                latency: stats.summary(),
            })
        })
        .collect();
    // BTreeMap order is lexicographic ("tenant10" < "tenant2"); report in
    // numeric tenant order.
    out.sort_by_key(|t| t.tenant);
    out
}

/// The digest of a finished serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSummary {
    /// Latency percentiles over all completed requests.
    pub latency: LatencySummary,
    /// Time-weighted mean requests in system.
    pub queue_depth_mean: f64,
    /// Peak requests in system.
    pub queue_depth_max: f64,
    /// Time-weighted mean slot occupancy in `[0, 1]`.
    pub occupancy_mean: f64,
    /// Time-weighted mean query-row tokens in flight.
    pub batch_tokens_mean: f64,
    /// Scheduler iterations executed.
    pub iterations: u64,
    /// Query-row tokens completed.
    pub tokens: u64,
    /// Makespan of the run.
    pub makespan: Cycle,
    /// Tokens per simulated second at `clk`.
    pub tokens_per_s: f64,
    /// Prompt tokens served from resident cache planes (no
    /// decomposition).
    pub cache_hit_tokens: u64,
    /// Prompt tokens decomposed at admission.
    pub cache_decomposed_tokens: u64,
    /// Fraction of attached prompt tokens served without decomposition.
    pub cache_hit_rate: f64,
    /// Sealed chunks plus stored sessions evicted under the byte budget.
    pub cache_evictions: u64,
    /// Evicted chunks demoted to the spill tier instead of dropped.
    pub cache_spilled_chunks: u64,
    /// Plane-word payload bytes demoted to the spill tier (a chunk the
    /// tier already holds counts again but is not rewritten).
    pub cache_spilled_bytes: u64,
    /// Prompt tokens re-adopted from the spill tier (a subset of
    /// [`cache_hit_tokens`](Self::cache_hit_tokens)).
    pub cache_fetched_tokens: u64,
    /// Time-weighted mean resident bytes of the prefix cache.
    pub cache_resident_bytes_mean: f64,
    /// Peak resident bytes of the prefix cache.
    pub cache_resident_bytes_max: f64,
    /// Sessions descheduled at a chunk/step boundary after having run.
    pub preemptions: u64,
    /// Previously-preempted sessions scheduled again.
    pub resumes: u64,
    /// Per-tenant SLO attainment, in tenant order; empty when no request
    /// carried an SLO.
    pub slo: Vec<TenantSloSummary>,
    /// Flight-recorder totals over every retired request — queue /
    /// prefill / decode / preempted / stalled cycle accounting.
    pub flight: FlightTotals,
    /// Engine arithmetic events summed over every dispatched block.
    pub ops: OpCounts,
    /// Engine memory traffic summed over every dispatched block.
    pub traffic: TrafficCounts,
}

impl ServeMetrics {
    /// Fresh collectors.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Closes the run at `end` and digests the collectors.
    #[must_use]
    pub fn summarize(&self, end: Cycle, clk: Frequency) -> MetricsSummary {
        let seconds = clk.seconds(end).max(f64::MIN_POSITIVE);
        MetricsSummary {
            latency: self.latency.summary(),
            queue_depth_mean: self.queue_depth.mean(end),
            queue_depth_max: self.queue_depth.max(),
            occupancy_mean: self.occupancy.mean(end),
            batch_tokens_mean: self.batch_tokens.mean(end),
            iterations: self.iterations,
            tokens: self.tokens,
            makespan: end,
            tokens_per_s: self.tokens as f64 / seconds,
            cache_hit_tokens: self.cache.hit_tokens,
            cache_decomposed_tokens: self.cache.decomposed_tokens,
            cache_hit_rate: self.cache.hit_rate(),
            cache_evictions: self.cache.evicted_chunks + self.cache.evicted_sessions,
            cache_spilled_chunks: self.cache.spilled_chunks,
            cache_spilled_bytes: self.cache.spilled_bytes,
            cache_fetched_tokens: self.cache.fetched_tokens,
            cache_resident_bytes_mean: self.cache_resident_bytes.mean(end),
            cache_resident_bytes_max: self.cache_resident_bytes.max(),
            preemptions: self.preemptions,
            resumes: self.resumes,
            slo: slo_attainment(&self.slo),
            flight: self.flight,
            ops: self.ops,
            traffic: self.traffic,
        }
    }

    /// Records the retirement of an SLO-carrying request of `tenant`:
    /// one latency sample plus met/total counters against `target`
    /// cycles. Callers without an SLO simply never call this.
    pub fn record_slo(&mut self, tenant: u64, target: u64, latency: Cycle) {
        self.slo.observe(format!("slo.tenant{tenant}.latency"), latency);
        self.slo.add(format!("slo.tenant{tenant}.total"), 1);
        if latency.0 <= target {
            self.slo.add(format!("slo.tenant{tenant}.met"), 1);
        }
        // Gauges merge by max across nodes, so a fleet of equal targets
        // reports the shared target and mixed targets the loosest.
        let prev = self.slo.gauge(&format!("slo.tenant{tenant}.target")).unwrap_or(0.0);
        self.slo.set_gauge(format!("slo.tenant{tenant}.target"), prev.max(target as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_converts_tokens_to_rate() {
        let mut m = ServeMetrics::new();
        m.tokens = 1600;
        m.latency.record(Cycle(100));
        m.queue_depth.set(Cycle(0), 2.0);
        let s = m.summarize(Cycle(800), Frequency::mhz(800.0));
        // 1600 tokens in 800 cycles at 800 MHz = 1 µs → 1.6 Gtok/s.
        assert!((s.tokens_per_s - 1.6e9).abs() / 1.6e9 < 1e-9);
        assert_eq!(s.latency.count, 1);
        assert!((s.queue_depth_mean - 2.0).abs() < 1e-12);
        assert_eq!(s.makespan, Cycle(800));
        assert!(s.slo.is_empty(), "no SLO-carrying request → no attainment lines");
    }

    #[test]
    fn slo_attainment_digests_per_tenant_in_numeric_order() {
        let mut m = ServeMetrics::new();
        // Tenant 10 before tenant 2 lexicographically — numeric order must win.
        m.record_slo(10, 100, Cycle(50));
        m.record_slo(2, 100, Cycle(150));
        m.record_slo(2, 100, Cycle(80));
        let s = m.summarize(Cycle(1000), Frequency::default());
        assert_eq!(s.slo.len(), 2);
        assert_eq!(s.slo[0].tenant, 2);
        assert_eq!((s.slo[0].met, s.slo[0].total), (1, 2));
        assert!((s.slo[0].attainment() - 0.5).abs() < 1e-12);
        assert_eq!(s.slo[1].tenant, 10);
        assert_eq!((s.slo[1].met, s.slo[1].total), (1, 1));
        assert_eq!(s.slo[1].target_cycles, 100);
        assert_eq!(s.slo[0].latency.max, Cycle(150));
    }

    #[test]
    fn slo_display_is_n0_safe() {
        let empty = TenantSloSummary {
            tenant: 3,
            target_cycles: 0,
            total: 0,
            met: 0,
            latency: LatencySummary::empty(),
        };
        assert_eq!(empty.to_string(), "tenant 3: n=0 —");
        assert!((empty.attainment()).abs() < 1e-12, "empty attainment never divides by zero");
        let mut m = ServeMetrics::new();
        m.record_slo(0, 40, Cycle(39));
        let line = m.summarize(Cycle(100), Frequency::default()).slo[0].to_string();
        assert!(line.contains("1/1 met (100.0%)"), "{line}");
        assert!(line.contains("vs SLO 40 cyc"), "{line}");
    }

    #[test]
    fn pooled_registries_digest_like_one_node() {
        // Fleet-exactness: merging two nodes' registries then digesting
        // equals digesting the union recorded on one node.
        let mut a = ServeMetrics::new();
        let mut b = ServeMetrics::new();
        let mut one = ServeMetrics::new();
        for (node, tenant, target, lat) in
            [(0, 0u64, 100u64, 90u64), (1, 0, 100, 110), (0, 1, 50, 10), (1, 0, 100, 30)]
        {
            if node == 0 { &mut a } else { &mut b }.record_slo(tenant, target, Cycle(lat));
            one.record_slo(tenant, target, Cycle(lat));
        }
        let mut pooled = MetricsRegistry::new();
        pooled.merge(&a.slo);
        pooled.merge(&b.slo);
        assert_eq!(slo_attainment(&pooled), slo_attainment(&one.slo));
    }
}
