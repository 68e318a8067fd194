//! One benchmark run: set-up, timed replays, the traced layer replay,
//! correctness checks and the metrics they yield.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

use pade_cache::CacheStats;
use pade_serve::{output_bytes, reference_outputs};

use crate::cpu::process_cpu_s;
use crate::layers::{cache_pass, replay_layers, EngineCounts, ATTRIBUTED_SPANS};
use crate::metrics::{median, percentile, Metrics, Outcome};
use crate::spans::{write_spans, Recorder, Span};
use crate::workloads::{Report, Setup, Size, Workload};

/// Set-ups timed before the first timed replay and after each one.
const SETUP_BATCH: usize = 15;
/// Fewest timed replays per end-to-end run, however short `--seconds`.
const MIN_REPLAYS: usize = 3;
/// Untimed replays whose median is the traced run's untraced wall time.
const UNTRACED_REPS: usize = 3;
/// Fewest untraced/traced layer-replay rounds per traced run.
const MIN_ROUNDS: usize = 2;
/// Requests checked against the seed oracle per run.
const ORACLE_SAMPLES: usize = 8;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Full benchmark size or the tests' small one.
    pub size: Size,
    /// Workload seed.
    pub seed: u64,
    /// How long the timed part runs, in seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    /// Directory for the spill tier and the span file.
    pub out_dir: PathBuf,
}

/// Correctness failures collected over a run. A failure is never a
/// metric: any one makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks(Vec<String>);

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    /// The failures, in the order they were found.
    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.0
    }
}

/// Everything deterministic a replay produces: output bytes and latency
/// per request, and the simulated counts. Equal on every replay of one
/// trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    /// Output bytes per completed request id.
    pub outputs: BTreeMap<usize, Vec<u8>>,
    /// Latency (finish − scheduled arrival) per completed request id.
    pub latencies: BTreeMap<usize, u64>,
    /// Query-row tokens completed.
    pub tokens: u64,
    /// Tokens per simulated second.
    pub sim_tokens_per_s: f64,
    /// Σ dispatched block cycles over nodes.
    pub engine_cycles: u64,
    /// Σ dispatched DRAM bytes over nodes.
    pub dram_bytes: u64,
    /// Bit planes fetched by the completions' output blocks.
    pub planes_fetched: u64,
    /// Keys retained by the completions' output blocks.
    pub retained_keys: u64,
    /// Cache counters per node.
    pub cache: Vec<CacheStats>,
    /// The program's SLO attainment lines as `(tenant, met, total)`.
    pub slo: Vec<(u64, u64, u64)>,
}

impl Digest {
    /// Digests `report`.
    #[must_use]
    pub fn of(report: &Report) -> Self {
        let completions = report.completions_by_id();
        let nodes = report.node_reports();
        let blocks = || completions.iter().flat_map(|c| c.results.iter());
        Self {
            outputs: completions.iter().map(|c| (c.id, c.output_bytes())).collect(),
            latencies: completions.iter().map(|c| (c.id, c.latency().0)).collect(),
            tokens: report.tokens(),
            sim_tokens_per_s: report.sim_tokens_per_s(),
            engine_cycles: nodes.iter().map(|r| r.metrics.engine_cycles).sum(),
            dram_bytes: nodes.iter().map(|r| r.metrics.traffic.dram_total_bytes()).sum(),
            planes_fetched: blocks().map(|b| b.planes_fetched).sum(),
            retained_keys: blocks().flat_map(|b| b.retained.iter()).map(|r| r.len() as u64).sum(),
            cache: nodes.iter().map(|r| r.metrics.cache).collect(),
            slo: report.slo().iter().map(|l| (l.tenant, l.met, l.total)).collect(),
        }
    }

    /// Requests completed.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.outputs.len() as u64
    }
}

/// Requests sent and failed over the run's `route`/`serve` calls.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, setup: &Setup, digest: &Digest) {
        let sent = setup.arrivals.len() as u64;
        self.attempted += sent;
        self.failed += sent.saturating_sub(digest.completed());
    }
}

/// Checks one replay's digest against the first one's.
fn check_repeat(checks: &mut Checks, reference: &Digest, digest: &Digest, what: &str) {
    checks.check(digest == reference, || {
        format!("{what}: outputs or deterministic counts differ from the first replay")
    });
}

/// Checks the reference outputs against the single-node control run and
/// a sample against the seed oracle, and — when the workload's requests
/// carry the SLO the program tracks — the program's own attainment
/// against the benchmark's count.
fn check_outputs(checks: &mut Checks, setup: &Setup, reference: &Digest) {
    let n = setup.arrivals.len();
    checks.check(reference.completed() == n as u64, || {
        format!("{} of {n} requests completed", reference.completed())
    });
    let control = setup.control_run();
    checks.check(control.completions.len() == n, || "the control run lost requests".into());
    for c in &control.completions {
        checks.check(reference.outputs.get(&c.id) == Some(&c.output_bytes()), || {
            format!("request {}: output differs from the single-node control run", c.id)
        });
    }
    let engine = &setup.nodes()[0].engine;
    let step = n.div_ceil(ORACLE_SAMPLES).max(1);
    for spec in setup.arrivals.iter().step_by(step) {
        let oracle = output_bytes(&reference_outputs(spec, engine));
        checks.check(reference.outputs.get(&spec.id) == Some(&oracle), || {
            format!("request {}: output differs from the seed oracle", spec.id)
        });
    }
    // Where the requests carry the benchmark's SLO, the program tracks
    // attainment itself; it must agree with the benchmark's count.
    let fg: Vec<_> = setup.arrivals.iter().filter(|s| setup.slo.covers(s)).collect();
    if let (Some(tenant), true) =
        (setup.slo.tenant, fg.iter().all(|s| s.tenant_slo == Some(setup.slo.target_cycles)))
    {
        let (met, total) = slo_counts(setup, reference);
        let own = reference.slo.iter().find(|l| l.0 == tenant).map(|l| (l.1, l.2));
        checks.check(own == Some((met, total)), || {
            format!("program SLO attainment {own:?} differs from the benchmark's {met}/{total}")
        });
    }
}

/// `(met, total)`: foreground requests within the SLO target, of all
/// foreground requests sent (a request that did not complete misses).
fn slo_counts(setup: &Setup, digest: &Digest) -> (u64, u64) {
    let fg = setup.arrivals.iter().filter(|s| setup.slo.covers(s));
    let (mut met, mut total) = (0, 0);
    for spec in fg {
        total += 1;
        if digest.latencies.get(&spec.id).is_some_and(|&l| l <= setup.slo.target_cycles) {
            met += 1;
        }
    }
    (met, total)
}

/// `min … median … max …` of `values`, for the human-readable lines.
fn min_median_max(values: &[f64]) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("min {min:.6} median {:.6} max {max:.6}", median(values))
}

/// Peak resident memory of this process in MB (`VmHWM`), when the
/// platform reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Measures the end-to-end metrics.
///
/// # Errors
///
/// Propagates I/O errors from the spill directory.
pub fn run_end_to_end(opts: &Options, checks: &mut Checks) -> io::Result<Outcome> {
    let build = || -> io::Result<Setup> {
        let setup = Setup::build(opts.workload, opts.size, opts.seed, &opts.out_dir)?;
        setup.construct_nodes();
        Ok(setup)
    };
    let setup = build()?;
    // Warm-up replay: fills allocator and page caches, and is the
    // reference every later replay must repeat exactly.
    let mut tally = Tally::default();
    let reference = Digest::of(&setup.replay()?);
    tally.add(&setup, &reference);

    // Set-up time, measured in the warm process: fresh set-ups, each
    // dropped after it is timed, in batches before and between the timed
    // replays so they sample the whole run; `setup_s` is their median.
    let mut setup_s = Vec::new();
    let mut time_setups = || -> io::Result<()> {
        for _ in 0..SETUP_BATCH {
            let start = Instant::now();
            let built = build()?;
            setup_s.push(start.elapsed().as_secs_f64());
            drop(built);
        }
        Ok(())
    };
    time_setups()?;

    let mut per_cpu_s = Vec::new();
    let mut per_wall_s = Vec::new();
    let clock = Instant::now();
    while per_cpu_s.len() < MIN_REPLAYS || clock.elapsed().as_secs_f64() < opts.seconds {
        setup.clear_spill_dir()?;
        let cpu = process_cpu_s();
        let start = Instant::now();
        let report = setup.replay_warm();
        let wall = start.elapsed().as_secs_f64();
        let cpu = process_cpu_s().zip(cpu).map_or(f64::NAN, |(end, start)| end - start);
        let digest = Digest::of(&report);
        drop(report);
        per_cpu_s.push(digest.tokens as f64 / cpu);
        per_wall_s.push(digest.tokens as f64 / wall);
        tally.add(&setup, &digest);
        check_repeat(checks, &reference, &digest, "timed replay");
        time_setups()?;
    }
    let rss = peak_rss_mb();
    let start = Instant::now();
    check_outputs(checks, &setup, &reference);
    println!("correctness checks: {:.3} s", start.elapsed().as_secs_f64());

    let mut latencies: Vec<u64> = reference.latencies.values().copied().collect();
    latencies.sort_unstable();
    let (p50, _) = percentile(&latencies, 0.5);
    let (p90, beyond_p90) = percentile(&latencies, 0.9);
    let (met, total) = slo_counts(&setup, &reference);

    println!(
        "workload {} seed {}: {} replays, {} pade-par workers",
        opts.workload.name(),
        opts.seed,
        per_cpu_s.len(),
        pade_par::max_threads()
    );
    println!("set-up over {} set-ups: {} s", setup_s.len(), min_median_max(&setup_s));
    println!("host tokens per CPU s over replays: {}", min_median_max(&per_cpu_s));
    println!("host tokens per wall s over replays: {}", min_median_max(&per_wall_s));
    println!(
        "requests: sent {} completed {} failed {} (over every replay)",
        tally.attempted,
        tally.attempted - tally.failed,
        tally.failed
    );
    println!(
        "simulated latency: n={} samples, {} beyond p90; slo: {met}/{total} within {} cycles",
        latencies.len(),
        beyond_p90,
        setup.slo.target_cycles
    );
    let mut fg: Vec<u64> = setup
        .arrivals
        .iter()
        .filter(|s| setup.slo.covers(s))
        .filter_map(|s| reference.latencies.get(&s.id).copied())
        .collect();
    fg.sort_unstable();
    if !fg.is_empty() {
        println!(
            "foreground latency: p50 {} p90 {} max {} cycles",
            percentile(&fg, 0.5).0,
            percentile(&fg, 0.9).0,
            fg[fg.len() - 1]
        );
    }
    let mut metrics = Metrics::default();
    metrics.set("host_tokens_per_cpu_s", median(&per_cpu_s));
    metrics.set("setup_s", median(&setup_s));
    metrics.set("peak_rss_mb", rss.unwrap_or(f64::NAN));
    metrics.set("sim_tokens_per_s", reference.sim_tokens_per_s);
    metrics.set("sim_latency_p50_cycles", p50 as f64);
    metrics.set("sim_latency_p90_cycles", p90 as f64);
    metrics.set("slo_met_frac", met as f64 / total.max(1) as f64);
    metrics.set(
        "completed_frac",
        (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
    );
    // `correct` is decided by the caller once every check has run.
    Ok(Outcome { correct: false, attempted: tally.attempted, failed: tally.failed, metrics })
}

/// Layer times and counts of one traced layer-replay round.
#[derive(Debug, Default)]
struct Round {
    /// Wall seconds of the replay with the recorder disabled.
    untraced_s: f64,
    /// Wall seconds of the same replay with the recorder on.
    traced_s: f64,
    /// Seconds per span name, over the traced replay and the cache pass.
    totals: BTreeMap<&'static str, f64>,
    /// Σ top-level [`ATTRIBUTED_SPANS`] seconds of the traced replay.
    attributed_s: f64,
    /// Tier calls the wrapper saw.
    tier_puts: usize,
    tier_gets: usize,
    /// Spans the traced replay and the cache pass recorded.
    spans: usize,
}

impl Round {
    fn time(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }
}

/// Fraction `num / den`, or 0 when nothing was counted.
fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Measures the per-layer metrics.
///
/// # Errors
///
/// Propagates I/O errors from the spill directory or writing the spans.
pub fn run_traced(opts: &Options, checks: &mut Checks) -> io::Result<Outcome> {
    let setup = Setup::build(opts.workload, opts.size, opts.seed, &opts.out_dir)?;
    let mut tally = Tally::default();
    let clock = Instant::now();

    // The untraced end-to-end wall time the layer times are set against.
    let first = setup.replay()?;
    let reference = Digest::of(&first);
    tally.add(&setup, &reference);
    let mut placement = vec![0usize; setup.arrivals.len()];
    if let Report::Fleet(r) = &first {
        for d in &r.decisions {
            placement[d.id] = d.node;
        }
    }
    drop(first);
    let mut untraced_walls = Vec::new();
    for _ in 0..UNTRACED_REPS {
        setup.clear_spill_dir()?;
        let start = Instant::now();
        let report = setup.replay_warm();
        untraced_walls.push(start.elapsed().as_secs_f64());
        let digest = Digest::of(&report);
        tally.add(&setup, &digest);
        check_repeat(checks, &reference, &digest, "untraced replay");
    }
    let e2e_wall = median(&untraced_walls);

    // The root span: the route/serve call itself.
    let rec = Recorder::enabled();
    setup.clear_spill_dir()?;
    let root_name = if matches!(setup.workload, Workload::FleetPrefix) {
        "router.route"
    } else {
        "serve.serve"
    };
    let report = rec.span(root_name, None, || setup.replay_warm());
    let root_s = rec.spans_since(0)[0].seconds();
    let digest = Digest::of(&report);
    tally.add(&setup, &digest);
    check_repeat(checks, &reference, &digest, "traced root replay");

    // Layer replays, untraced then traced, until the time is up.
    let mut rounds: Vec<Round> = Vec::new();
    let mut engine = EngineCounts::default();
    while rounds.len() < MIN_ROUNDS || clock.elapsed().as_secs_f64() < opts.seconds {
        let start = Instant::now();
        let untraced = replay_layers(&setup, &placement, &Recorder::disabled())?;
        let untraced_s = start.elapsed().as_secs_f64();
        let mark = rec.len();
        let start = Instant::now();
        let traced = replay_layers(&setup, &placement, &rec)?;
        let traced_s = start.elapsed().as_secs_f64();
        let replay_spans = rec.spans_since(mark);
        let pass = cache_pass(&setup, &placement, &traced, &rec)?;
        let spans = rec.spans_since(mark);

        check_layer_replay(checks, &reference, &untraced, &traced, &pass, &report);
        engine = traced.engine;
        let top_level = |s: &&Span| s.parent.is_none() && ATTRIBUTED_SPANS.contains(&s.name);
        let mut totals = BTreeMap::new();
        for span in &spans {
            *totals.entry(span.name).or_insert(0.0) += span.seconds();
        }
        let count = |name: &str| replay_spans.iter().filter(|s| s.name == name).count();
        rounds.push(Round {
            untraced_s,
            traced_s,
            attributed_s: replay_spans.iter().filter(top_level).map(Span::seconds).sum(),
            tier_puts: count("tier.put"),
            tier_gets: count("tier.get"),
            spans: spans.len(),
            totals,
        });
    }
    let round_median =
        |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    for pair in rounds.windows(2) {
        let counts = |r: &Round| (r.tier_puts, r.tier_gets, r.spans);
        checks.check(counts(&pair[0]) == counts(&pair[1]), || {
            "tier call or span counts differ between layer replays".into()
        });
    }
    check_outputs(checks, &setup, &reference);

    let spans_path =
        opts.out_dir.join(format!("spans-{}-seed{}.jsonl", opts.workload.name(), opts.seed));
    let spans = rec.spans_since(0);
    write_spans(&spans_path, &spans)?;
    println!(
        "workload {} seed {}: {} layer rounds, {} spans written to {}",
        opts.workload.name(),
        opts.seed,
        rounds.len(),
        spans.len(),
        spans_path.display()
    );
    println!(
        "host wall: {root_name} untraced {e2e_wall:.4} s (median of {UNTRACED_REPS}), traced root \
         {root_s:.4} s; layer replay untraced {:.4} s, traced {:.4} s (medians)",
        round_median(&|r| r.untraced_s),
        round_median(&|r| r.traced_s)
    );
    println!(
        "requests: sent {} completed {} failed {} (over every route/serve call)",
        tally.attempted,
        tally.attempted - tally.failed,
        tally.failed
    );

    let nodes = report.node_reports();
    let sum = |f: &dyn Fn(&pade_serve::ServeReport) -> u64| nodes.iter().map(f).sum::<u64>();
    // Gauges pooled across nodes, weighted by each node's makespan.
    let weighted = |f: &dyn Fn(&pade_serve::ServeReport) -> f64| {
        let span: u64 = sum(&|r| r.summary.makespan.0);
        nodes.iter().map(|r| f(r) * r.summary.makespan.0 as f64).sum::<f64>() / span.max(1) as f64
    };
    let cache: Vec<CacheStats> = nodes.iter().map(|r| r.metrics.cache).collect();
    let cache_sum = |f: &dyn Fn(&CacheStats) -> u64| cache.iter().map(f).sum::<u64>();

    let mut m = Metrics::default();
    m.set("workload.trace_gen_s", round_median(&|r| r.time("workload.generate")));
    match &report {
        Report::Fleet(r) => {
            let s = &r.summary;
            m.set("router.route_s", root_s);
            m.set(
                "router.affinity_frac",
                frac(
                    s.session_affinity_routes + s.prefix_affinity_routes,
                    r.decisions.len() as u64,
                ),
            );
            m.set("router.load_imbalance", s.load_imbalance);
            m.set("router.replications", s.replications as f64);
            m.set("router.transfer_bytes", s.transfer_bytes as f64);
        }
        Report::Node(_) => {
            for name in [
                "router.route_s",
                "router.affinity_frac",
                "router.load_imbalance",
                "router.replications",
                "router.transfer_bytes",
            ] {
                m.set(name, 0.0);
            }
        }
    }
    m.set("serve.queue_cycles", sum(&|r| r.summary.flight.queue_cycles) as f64);
    m.set("serve.stalled_cycles", sum(&|r| r.summary.flight.stalled_cycles) as f64);
    m.set("serve.batch_tokens_mean", weighted(&|r| r.summary.batch_tokens_mean));
    m.set("serve.occupancy_mean", weighted(&|r| r.summary.occupancy_mean));
    m.set("serve.preemptions", sum(&|r| r.summary.preemptions) as f64);
    m.set("session.admit_s", round_median(&|r| r.time("session.admit")));
    m.set("session.absorb_s", round_median(&|r| r.time("session.absorb")));
    m.set("cache.attach_s", round_median(&|r| r.time("cache.attach")));
    m.set("cache.detach_s", round_median(&|r| r.time("cache.detach")));
    let hits = cache_sum(&|c| c.hit_tokens);
    let decomposed = cache_sum(&|c| c.decomposed_tokens);
    m.set("cache.hit_frac", frac(hits, hits + decomposed));
    m.set("cache.decomposed_tokens", decomposed as f64);
    m.set("cache.evictions", cache_sum(&|c| c.evicted_chunks + c.evicted_sessions) as f64);
    m.set(
        "cache.resident_bytes_max",
        nodes.iter().map(|r| r.summary.cache_resident_bytes_max).fold(0.0, f64::max),
    );
    m.set("tier.put_s", round_median(&|r| r.time("tier.put")));
    m.set("tier.get_s", round_median(&|r| r.time("tier.get")));
    let last = rounds.last().expect("at least MIN_ROUNDS rounds ran");
    m.set("tier.puts", last.tier_puts as f64);
    m.set("tier.gets", last.tier_gets as f64);
    m.set("tier.spilled_bytes", cache_sum(&|c| c.spilled_bytes) as f64);
    m.set("tier.fetched_tokens", cache_sum(&|c| c.fetched_tokens) as f64);
    m.set("engine.dispatch_s", round_median(&|r| r.time("engine.dispatch")));
    m.set("engine.rows", engine.rows as f64);
    m.set("engine.sim_cycles", engine.sim_cycles as f64);
    m.set("engine.keys_retained_frac", frac(engine.keys_retained, engine.keys_scored));
    m.set("engine.plane_fetch_frac", frac(engine.planes_fetched, engine.planes_dense));
    m.set("engine.lane_util_mean", frac(engine.lane_busy, engine.lane_total));
    m.set("engine.dram_bytes", engine.dram_bytes as f64);
    m.set("engine.workers", pade_par::max_threads() as f64);
    m.set(
        "trace.overhead_frac",
        round_median(&|r| r.traced_s) / round_median(&|r| r.untraced_s) - 1.0,
    );
    m.set("trace.spans", last.spans as f64);
    m.set("attributed_frac", round_median(&|r| r.attributed_s) / e2e_wall);
    // `correct` is decided by the caller once every check has run.
    Ok(Outcome { correct: false, attempted: tally.attempted, failed: tally.failed, metrics: m })
}

/// Checks a traced round: the untraced and traced layer replays agree
/// with each other and with the program's report (outputs, dispatched
/// cycles and DRAM bytes); the cache pass reproduces the replay's cache
/// counters; and, where the router moved no chunks between nodes, the
/// replay's cache counters equal the program's.
fn check_layer_replay(
    checks: &mut Checks,
    reference: &Digest,
    untraced: &crate::layers::LayerReplay,
    traced: &crate::layers::LayerReplay,
    pass: &[CacheStats],
    report: &Report,
) {
    checks.check(untraced.engine == traced.engine && untraced.cache == traced.cache, || {
        "the traced layer replay's counts differ from the untraced one's".into()
    });
    checks.check(traced.outputs == reference.outputs, || {
        "the layer replay's outputs differ from the program's".into()
    });
    checks.check(
        (traced.engine.sim_cycles, traced.engine.dram_bytes)
            == (reference.engine_cycles, reference.dram_bytes),
        || {
            format!(
                "layer replay dispatched {} cycles / {} DRAM bytes, the program {} / {}",
                traced.engine.sim_cycles,
                traced.engine.dram_bytes,
                reference.engine_cycles,
                reference.dram_bytes
            )
        },
    );
    checks.check(pass == traced.cache.as_slice(), || {
        "the cache pass's counters differ from the layer replay's".into()
    });
    let moved = matches!(report, Report::Fleet(r) if r.summary.peer_fetches > 0);
    if !moved {
        checks.check(traced.cache == reference.cache, || {
            "the layer replay's cache counters differ from the program's".into()
        });
    }
}
