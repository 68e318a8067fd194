//! The three benchmark workloads: seeded arrival traces plus the
//! deployment each one replays through.
//!
//! Every workload is open loop: arrival cycles come from the seeded
//! generator alone and never depend on completions, and simulated latency
//! counts from the scheduled arrival cycle.
//!
//! * `fleet-prefix` — a 2-node prefix-affinity fleet with hot-shard
//!   replication, serving a multi-tenant shared-prefix, multi-turn,
//!   mostly-decode trace under an unlimited cache. Tier traffic and
//!   chunked prefill stay idle: it is their control.
//! * `slo-chunked` — one narrow node running SLO-aware preemption with
//!   chunked prefill: a foreground decode tenant under a latency SLO
//!   against a background tenant flooding long prefills. No prompts, so
//!   cache, tier and router stay idle.
//! * `spill-thrash` — a revisited prompt pool under a budget of 1.5
//!   prompts with the disk tier on: eviction, spill and fetch, with
//!   light engine work.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use pade_cache::{CacheBudget, TierConfig};
use pade_router::{route, FleetTierConfig, RoutePolicy, RouterConfig, RouterReport};
use pade_serve::scheduler::{ScheduleMode, SchedulePolicy};
use pade_serve::server::{serve, Completion, ServeConfig, ServeReport};
use pade_serve::{Node, TenantSloSummary};
use pade_workload::prompt::{
    generate_multi_tenant_arrivals, generate_thrash_arrivals, MultiTenantConfig,
    SharedPrefixConfig, ThrashConfig,
};
use pade_workload::trace::{generate_tenant_mix, ArrivalConfig, RequestArrival, TenantLoad};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Affinity fleet over shared prefixes (router, cache hits, decode).
    FleetPrefix,
    /// SLO-aware chunked prefill on one narrow node (scheduler, absorb).
    SloChunked,
    /// Cache eviction with disk spill and fetch (cache, tier).
    SpillThrash,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::FleetPrefix, Workload::SloChunked, Workload::SpillThrash];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetPrefix => "fleet-prefix",
            Workload::SloChunked => "slo-chunked",
            Workload::SpillThrash => "spill-thrash",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large a workload is built: `Full` is what the benchmark measures,
/// `Small` keeps the benchmark's own tests quick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// At least 100 completed requests, so simulated p90 has 10 or more
    /// samples beyond it.
    Full,
    /// A few requests per class.
    Small,
}

/// Where a workload's requests are served.
#[derive(Debug, Clone)]
pub enum Deployment {
    /// A routed fleet (`pade_router::route`).
    Fleet(RouterConfig),
    /// One node (`pade_serve::serve`).
    Node(ServeConfig),
}

/// The latency objective `slo_met_frac` is measured against: requests
/// whose tenant is `tenant` (all requests when `None`) meet it when
/// their latency is at most `target_cycles`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slo {
    /// The foreground tenant (high 32 bits of the session id), or `None`
    /// when every request is foreground.
    pub tenant: Option<u64>,
    /// Latency target in core cycles, from the scheduled arrival.
    pub target_cycles: u64,
}

impl Slo {
    /// Whether `spec` belongs to the foreground.
    #[must_use]
    pub fn covers(&self, spec: &RequestArrival) -> bool {
        self.tenant.is_none_or(|t| spec.session >> 32 == t)
    }
}

/// A built workload: the materialized trace and the deployment that
/// serves it.
#[derive(Debug)]
pub struct Setup {
    /// Which workload this is.
    pub workload: Workload,
    /// The arrival trace, ids dense in arrival order.
    pub arrivals: Vec<RequestArrival>,
    /// Where it is served.
    pub deployment: Deployment,
    /// The foreground latency objective.
    pub slo: Slo,
    /// The disk tier's spill directory, cleared before every replay.
    pub spill_dir: Option<PathBuf>,
}

/// The outcome of one replay: the router's report or the node's.
#[derive(Debug)]
pub enum Report {
    /// From `route`.
    Fleet(Box<RouterReport>),
    /// From `serve`.
    Node(Box<ServeReport>),
}

impl Report {
    /// Per-node serve reports, in node order.
    #[must_use]
    pub fn node_reports(&self) -> &[ServeReport] {
        match self {
            Report::Fleet(r) => &r.node_reports,
            Report::Node(r) => std::slice::from_ref(r),
        }
    }

    /// Every completion across nodes, sorted by request id.
    #[must_use]
    pub fn completions_by_id(&self) -> Vec<&Completion> {
        let mut out: Vec<&Completion> =
            self.node_reports().iter().flat_map(|r| r.completions.iter()).collect();
        out.sort_by_key(|c| c.id);
        out
    }

    /// Query-row tokens per simulated second, as the program reports it.
    #[must_use]
    pub fn sim_tokens_per_s(&self) -> f64 {
        match self {
            Report::Fleet(r) => r.summary.tokens_per_s,
            Report::Node(r) => r.summary.tokens_per_s,
        }
    }

    /// The program's per-tenant SLO attainment.
    #[must_use]
    pub fn slo(&self) -> &[TenantSloSummary] {
        match self {
            Report::Fleet(r) => &r.summary.slo,
            Report::Node(r) => &r.summary.slo,
        }
    }

    /// Query-row tokens completed.
    #[must_use]
    pub fn tokens(&self) -> u64 {
        self.node_reports().iter().map(|r| r.summary.tokens).sum()
    }
}

impl Setup {
    /// Builds `workload` at `size` from `seed`. A disk-tier workload gets
    /// a spill directory of its own under `scratch`, with nothing left in
    /// it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from preparing the spill directory.
    pub fn build(workload: Workload, size: Size, seed: u64, scratch: &Path) -> io::Result<Self> {
        // The generators derive per-tenant seeds by XOR with the tenant
        // index, so benchmark seeds differing only in their low bits would
        // permute the same tenants; mixing first keeps every seed distinct.
        let seed = splitmix64(seed);
        let setup = match workload {
            Workload::FleetPrefix => fleet_prefix(size, seed),
            Workload::SloChunked => slo_chunked(size, seed),
            Workload::SpillThrash => spill_thrash(size, seed, scratch),
        };
        setup.clear_spill_dir()?;
        Ok(setup)
    }

    /// The per-node serving configurations.
    #[must_use]
    pub fn nodes(&self) -> &[ServeConfig] {
        match &self.deployment {
            Deployment::Fleet(fleet) => &fleet.nodes,
            Deployment::Node(node) => std::slice::from_ref(node),
        }
    }

    /// Constructs every node the deployment runs (and drops them) — the
    /// node-construction share of set-up.
    pub fn construct_nodes(&self) {
        for config in self.nodes() {
            std::hint::black_box(Node::new(config, ScheduleMode::Batched));
        }
    }

    /// Removes the spill directory so the next replay's tier starts cold
    /// (the disk tier creates its directory when it opens); a no-op for
    /// workloads without one.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the directory being absent.
    pub fn clear_spill_dir(&self) -> io::Result<()> {
        let Some(dir) = &self.spill_dir else { return Ok(()) };
        match std::fs::remove_dir_all(dir) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Replays the trace once through the public entry point — `route`
    /// for a fleet, `serve` for one node — on a cold tier.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from clearing the spill directory.
    pub fn replay(&self) -> io::Result<Report> {
        self.clear_spill_dir()?;
        Ok(self.replay_warm())
    }

    /// [`Self::replay`] without clearing the spill directory first, for
    /// callers that time the call and clear the directory beforehand.
    #[must_use]
    pub fn replay_warm(&self) -> Report {
        match &self.deployment {
            Deployment::Fleet(fleet) => {
                Report::Fleet(Box::new(route(fleet, &self.arrivals, ScheduleMode::Batched)))
            }
            Deployment::Node(node) => {
                Report::Node(Box::new(serve(node, &self.arrivals, ScheduleMode::Batched)))
            }
        }
    }

    /// The single-node control run correctness is checked against: the
    /// same trace on one plain node (FCFS, native prefill tiling, no
    /// tier, unlimited cache). Placement, scheduling policy, chunking and
    /// spilling may change timing, never output bytes.
    #[must_use]
    pub fn control_run(&self) -> ServeReport {
        let node = ServeConfig {
            policy: SchedulePolicy::Fcfs,
            prefill_chunk_tokens: None,
            preempt_every: None,
            tier: None,
            prefix_cache: Some(CacheBudget::unlimited()),
            ..self.nodes()[0].clone()
        };
        serve(&node, &self.arrivals, ScheduleMode::Batched)
    }
}

/// SplitMix64 finalizer: a bijective mix of the seed's bits.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Drop for Setup {
    /// Removes the spill directory; a failure to remove it is ignored.
    fn drop(&mut self) {
        if let Some(dir) = &self.spill_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Re-times `arrivals` onto a seeded jittered-periodic schedule. Within
/// each tenant (the session id's high 32 bits) the `k`-th session, in
/// generated order, starts at `(k + u) · gap(tenant)` cycles with `u`
/// uniform in `[0, 1)`; its later turns keep their generated offsets from
/// its first. Ids are reassigned densely in the new arrival order.
///
/// The generators space sessions by exponential gaps, whose sum over a
/// few hundred sessions still varies by several percent from seed to
/// seed, and with it the makespan and the queueing in the tail. One
/// arrival per slot keeps the load open loop and irregular within a
/// slot while the seed no longer moves the span.
fn jittered_schedule(
    mut arrivals: Vec<RequestArrival>,
    gap: impl Fn(u64) -> f64,
    seed: u64,
) -> Vec<RequestArrival> {
    let mut first: BTreeMap<u64, u64> = BTreeMap::new();
    for r in &arrivals {
        let at = first.entry(r.session).or_insert(r.arrival_cycle);
        *at = (*at).min(r.arrival_cycle);
    }
    let mut order: Vec<(u64, u64, u64)> =
        first.iter().map(|(&session, &at)| (session >> 32, at, session)).collect();
    order.sort_unstable();
    let mut start: BTreeMap<u64, u64> = BTreeMap::new();
    let mut tenant_index = (u64::MAX, 0u64);
    for (tenant, _, session) in order {
        let k = if tenant_index.0 == tenant { tenant_index.1 + 1 } else { 0 };
        tenant_index = (tenant, k);
        let u = (splitmix64(seed ^ splitmix64(session)) >> 11) as f64 / (1u64 << 53) as f64;
        start.insert(session, ((k as f64 + u) * gap(tenant)).round() as u64);
    }
    for r in &mut arrivals {
        r.arrival_cycle = start[&r.session] + (r.arrival_cycle - first[&r.session]);
    }
    arrivals.sort_by_key(|r| (r.arrival_cycle, r.session));
    for (id, r) in arrivals.iter_mut().enumerate() {
        r.id = id;
    }
    arrivals
}

/// Multi-tenant shared-prefix, multi-turn, mostly decode: the
/// `route_workload` shape with a 192-token shared prefix, scaled to
/// 4 tenants × 32 sessions × 2 turns (256 requests).
fn fleet_prefix(size: Size, seed: u64) -> Setup {
    let (sessions_per_tenant, shared_prefix_tokens, decode_steps) = match size {
        Size::Full => (32, 192, 4),
        Size::Small => (2, 64, 2),
    };
    let chunk_tokens = if size == Size::Full { 64 } else { 16 };
    let workload = MultiTenantConfig {
        tenants: 4,
        sessions_per_tenant,
        per_tenant: SharedPrefixConfig {
            turns_per_session: 2,
            pool_size: 1,
            shared_prefix_tokens,
            unique_suffix_tokens: chunk_tokens,
            turn_suffix_tokens: chunk_tokens,
            decode_steps,
            prefill_fraction: 0.25,
            // As many rows as decode steps: every request carries the same
            // tokens, so the seed moves the mix but not the token count.
            prefill_rows: decode_steps,
            mean_interarrival_cycles: 1_500.0,
            turn_gap_cycles: 300_000,
            ..SharedPrefixConfig::small_demo()
        },
        seed,
    };
    let node = ServeConfig {
        kv_chunk_tokens: chunk_tokens,
        prefix_cache: Some(CacheBudget::unlimited()),
        ..ServeConfig::standard()
    };
    let mut fleet = RouterConfig::homogeneous(node, 2, RoutePolicy::Affinity);
    fleet.tier = Some(FleetTierConfig::default());
    Setup {
        workload: Workload::FleetPrefix,
        arrivals: jittered_schedule(generate_multi_tenant_arrivals(&workload), |_| 1_500.0, seed),
        deployment: Deployment::Fleet(fleet),
        slo: Slo { tenant: None, target_cycles: 3_000 },
        spill_dir: None,
    }
}

/// Tenant id of the latency-sensitive foreground decode tenant.
const FOREGROUND: u32 = 0;

/// Foreground decodes under an SLO against a background prefill flood:
/// the `preempt_workload` shape over a 256-token context, scaled to 200
/// foreground and 75 background requests.
fn slo_chunked(size: Size, seed: u64) -> Setup {
    let (n_fg, n_bg, seq_len, bg_rows) = match size {
        Size::Full => (200, 75, 256, 16),
        Size::Small => (4, 2, 128, 16),
    };
    let slo_cycles = 2_600;
    let fg = ArrivalConfig {
        n_requests: n_fg,
        mean_interarrival_cycles: 3_000.0,
        decode_fraction: 1.0,
        decode_steps: 4,
        seq_len,
        seed,
        ..ArrivalConfig::small_demo()
    };
    let bg = ArrivalConfig {
        n_requests: n_bg,
        mean_interarrival_cycles: 8_000.0,
        decode_fraction: 0.0,
        prefill_rows: bg_rows,
        seq_len,
        seed: seed ^ 0x9E37_79B9,
        ..ArrivalConfig::small_demo()
    };
    let mix = generate_tenant_mix(&[
        TenantLoad { tenant: FOREGROUND, priority: 10, tenant_slo: Some(slo_cycles), arrivals: fg },
        TenantLoad { tenant: 1, priority: 0, tenant_slo: None, arrivals: bg },
    ]);
    let gap = |tenant| {
        if tenant == u64::from(FOREGROUND) {
            fg.mean_interarrival_cycles
        } else {
            bg.mean_interarrival_cycles
        }
    };
    let arrivals = jittered_schedule(mix, gap, seed);
    let node = ServeConfig {
        engine_slots: 2,
        policy: SchedulePolicy::SloAware,
        prefill_chunk_tokens: Some(2),
        preempt_every: Some(4),
        ..ServeConfig::standard()
    };
    Setup {
        workload: Workload::SloChunked,
        arrivals,
        deployment: Deployment::Node(node),
        slo: Slo { tenant: Some(u64::from(FOREGROUND)), target_cycles: slo_cycles },
        spill_dir: None,
    }
}

/// A round-robin revisited prompt pool under a 1.5-prompt plane budget
/// with the disk tier on: the `tier_workload` shape, scaled to 150
/// visits.
fn spill_thrash(size: Size, seed: u64, scratch: &Path) -> Setup {
    let (pool_size, prompt_tokens, visits) = match size {
        Size::Full => (6, 256, 150),
        Size::Small => (3, 96, 9),
    };
    let chunk_tokens = 32;
    let workload = ThrashConfig {
        pool_size,
        prompt_tokens,
        visits,
        decode_steps: 4,
        seed,
        ..ThrashConfig::small_demo()
    };
    // Plane bytes of one prompt (tokens × bits × ⌈dims/64⌉ words).
    let words = workload.head_dim.div_ceil(64) as u64;
    let prompt_bytes = workload.prompt_tokens as u64 * u64::from(workload.bits) * words * 8;
    // Unique per set-up, so set-ups alive at once never share a tier.
    static SETUPS: AtomicUsize = AtomicUsize::new(0);
    let n = SETUPS.fetch_add(1, Ordering::Relaxed);
    let spill_dir = scratch.join(format!("spill-{}-{n}", std::process::id()));
    let node = ServeConfig {
        kv_chunk_tokens: chunk_tokens,
        prefix_cache: Some(CacheBudget::bytes(prompt_bytes * 3 / 2)),
        tier: Some(TierConfig::Disk(spill_dir.clone())),
        ..ServeConfig::standard()
    };
    Setup {
        workload: Workload::SpillThrash,
        arrivals: generate_thrash_arrivals(&workload),
        deployment: Deployment::Node(node),
        slo: Slo { tenant: None, target_cycles: 2_150 },
        spill_dir: Some(spill_dir),
    }
}
