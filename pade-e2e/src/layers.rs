//! The traced run's per-layer replay.
//!
//! [`replay_layers`] serves each node's share of the trace again — the
//! requests the report placed on that node, in arrival order — through
//! the public per-layer calls, stepping the same admit → batch →
//! dispatch → absorb → retire loop a `pade_serve::Node` steps, and times
//! each call from outside:
//!
//! * `workload.generate` — `AttentionTrace::generate` of the request,
//!   called on its own (admission regenerates it inside `session.admit`),
//! * `session.admit` — `Session::admit` on the node's `KvCacheManager`,
//!   whose spill tier is wrapped in a [`TimedTier`] (`tier.put`/`tier.get`
//!   nest under it),
//! * `engine.dispatch` — `Session::next_job` for the batch plus the
//!   engine's batch call,
//! * `session.absorb` — `Session::absorb` (the decode KV append and, on
//!   the last slice of a chunked prefill, the canonical re-run),
//! * `cache.detach` — `Session::detach_cache` at retirement.
//!
//! [`cache_pass`] then replays the attach/detach sequence the replay
//! recorded straight through `KvCacheManager::attach`/`detach`, timing
//! `cache.attach` on its own. These are isolated costs on the same
//! inputs, not self times inside `route()`: the gap between their sum
//! and the untraced end-to-end wall time is what in-program spans would
//! have to explain.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;

use pade_cache::{CacheConfig, CacheStats, KvCacheManager};
use pade_core::engine::{
    run_qk_batch, run_qk_batch_par, run_qk_fused, run_qk_fused_par, QkBatchJob, QkBlockResult,
    QkFusedJob,
};
use pade_serve::scheduler::{form_batch, ScheduleMode, SchedulerLimits};
use pade_serve::server::ServeConfig;
use pade_serve::{output_bytes, Session};
use pade_sim::Cycle;
use pade_workload::trace::{AttentionTrace, RequestArrival};

use crate::spans::{Recorder, TimedTier};
use crate::workloads::Setup;

/// Span names whose top-level durations add up to the replay's
/// attributed time: the node loop's own calls, none nested in another.
pub const ATTRIBUTED_SPANS: [&str; 4] =
    ["session.admit", "engine.dispatch", "session.absorb", "cache.detach"];

/// Simulated engine counts over every dispatched block.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineCounts {
    /// Query rows dispatched.
    pub rows: u64,
    /// Σ block latency in core cycles.
    pub sim_cycles: u64,
    /// Keys scored: Σ rows × key context of each block.
    pub keys_scored: u64,
    /// Keys retained by the guard filter.
    pub keys_retained: u64,
    /// Unique bit planes fetched from DRAM.
    pub planes_fetched: u64,
    /// Bit planes a dense bit-serial execution would fetch.
    pub planes_dense: u64,
    /// Lane cycles doing useful work.
    pub lane_busy: u64,
    /// Lane cycles accounted (busy plus every stall).
    pub lane_total: u64,
    /// DRAM bytes read and written.
    pub dram_bytes: u64,
}

impl EngineCounts {
    fn add(&mut self, result: &QkBlockResult, context_tokens: usize) {
        let rows = result.retained.len() as u64;
        self.rows += rows;
        self.sim_cycles += result.cycles.0;
        self.keys_scored += rows * context_tokens as u64;
        self.keys_retained += result.retained.iter().map(|r| r.len() as u64).sum::<u64>();
        self.planes_fetched += result.planes_fetched;
        self.planes_dense += result.planes_dense;
        for lane in &result.lane_utils {
            self.lane_busy += lane.busy_cycles();
            self.lane_total += lane.total();
        }
        self.dram_bytes += result.traffic.dram_total_bytes();
    }
}

/// One cache-manager call of the replay, in the order the node made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// Request `id` attached its prompt at admission.
    Attach(usize),
    /// Request `id` detached a cache grown to `tokens` key tokens.
    Detach(usize, usize),
}

/// What a layer replay produced.
#[derive(Debug, Default)]
pub struct LayerReplay {
    /// Engine counts over every dispatched block.
    pub engine: EngineCounts,
    /// Output bytes per request id.
    pub outputs: BTreeMap<usize, Vec<u8>>,
    /// Cache counters per node (default where a node has no manager).
    pub cache: Vec<CacheStats>,
    /// Cache-manager calls per node, for [`cache_pass`].
    pub events: Vec<Vec<CacheEvent>>,
}

/// The node's key-plane cache manager, as `Node` would build it: present
/// when the node runs a prefix cache and serves prompt-carrying
/// requests, with the configured tier wrapped in a [`TimedTier`].
fn build_manager(
    config: &ServeConfig,
    requests: &[&RequestArrival],
    recorder: Option<&Recorder>,
) -> io::Result<Option<KvCacheManager>> {
    let (Some(budget), Some(first)) =
        (config.prefix_cache, requests.iter().find(|r| r.prompt.is_some()))
    else {
        return Ok(None);
    };
    let cache_config =
        CacheConfig::new(first.trace.head_dim, config.engine.bits, config.kv_chunk_tokens.max(1))
            .with_budget(budget);
    let mut manager =
        KvCacheManager::new(cache_config).expect("the workload's cache shape is valid");
    if let Some(tier) = &config.tier {
        let store = tier.build()?;
        manager.set_tier(Some(match recorder {
            Some(rec) => Box::new(TimedTier::new(store, rec.clone())),
            None => store,
        }));
    }
    Ok(Some(manager))
}

/// The engine call the node makes for one iteration's jobs, chosen by
/// the same configuration flags.
fn dispatch(config: &ServeConfig, jobs: Vec<QkBatchJob<'_>>) -> Vec<QkBlockResult> {
    if config.fused_dispatch {
        let fused = QkFusedJob { heads: jobs };
        let heads = if config.parallel_dispatch {
            run_qk_fused_par(&config.engine, &fused)
        } else {
            run_qk_fused(&config.engine, &fused)
        };
        heads.into_iter().map(|mut head| head.remove(0)).collect()
    } else if config.parallel_dispatch {
        run_qk_batch_par(&config.engine, &jobs)
    } else {
        run_qk_batch(&config.engine, &jobs)
    }
}

/// Each node's requests, by the report's placement, in arrival order.
fn per_node<'a>(setup: &'a Setup, placement: &[usize]) -> Vec<Vec<&'a RequestArrival>> {
    let mut nodes: Vec<Vec<&RequestArrival>> = vec![Vec::new(); setup.nodes().len()];
    for spec in &setup.arrivals {
        nodes[placement[spec.id]].push(spec);
    }
    for requests in &mut nodes {
        requests.sort_by_key(|r| (r.arrival_cycle, r.id));
    }
    nodes
}

/// Replays every node's share of the trace through the per-layer calls,
/// recording spans into `rec` (a disabled recorder times nothing).
///
/// # Errors
///
/// Propagates I/O errors from clearing the spill directory or building
/// the tier.
pub fn replay_layers(
    setup: &Setup,
    placement: &[usize],
    rec: &Recorder,
) -> io::Result<LayerReplay> {
    setup.clear_spill_dir()?;
    let mut out = LayerReplay::default();
    for (config, requests) in setup.nodes().iter().zip(per_node(setup, placement)) {
        replay_node(config, requests, rec, &mut out)?;
    }
    Ok(out)
}

/// One node's admit → batch → dispatch → absorb → retire loop, stepped
/// as `pade_serve::Node` steps it (FCFS admission at the node clock,
/// the configured batch policy and forced-preemption cadence, lockstep
/// iterations as long as their slowest block), appending the node's
/// engine counts, outputs, cache counters and cache calls to `out`.
fn replay_node(
    config: &ServeConfig,
    requests: Vec<&RequestArrival>,
    rec: &Recorder,
    out: &mut LayerReplay,
) -> io::Result<()> {
    let mut manager = build_manager(config, &requests, Some(rec))?;
    let limits = SchedulerLimits {
        engine_slots: config.engine_slots.max(1),
        max_batch_tokens: config.max_batch_tokens,
    };
    let kv_chunk_tokens = config.kv_chunk_tokens.max(1);
    let mut pending: VecDeque<&RequestArrival> = requests.into();
    let mut active: Vec<Session> = Vec::new();
    let mut events = Vec::new();
    let mut now = Cycle::ZERO;
    let mut iterations = 0u64;
    loop {
        while let Some(spec) = pending.front().copied().filter(|s| s.arrival_cycle <= now.0) {
            pending.pop_front();
            let id = Some(spec.id);
            rec.span("workload.generate", id, || {
                std::hint::black_box(AttentionTrace::generate(&spec.trace));
            });
            let session = rec.span("session.admit", id, || {
                Session::admit(
                    spec,
                    &config.engine,
                    kv_chunk_tokens,
                    config.prefill_chunk_tokens,
                    now,
                    manager.as_mut(),
                )
            });
            if manager.is_some() && spec.prompt.is_some() {
                events.push(CacheEvent::Attach(spec.id));
            }
            active.push(session);
        }
        if active.is_empty() {
            match pending.front() {
                Some(next) => {
                    now = Cycle(next.arrival_cycle);
                    continue;
                }
                None => break,
            }
        }
        let yield_head = config.preempt_every.is_some_and(|p| p > 0 && iterations % p == p - 1);
        let chosen = form_batch(&active, ScheduleMode::Batched, &limits, config.policy, yield_head);
        let results = rec.span("engine.dispatch", None, || {
            dispatch(config, chosen.iter().map(|&i| active[i].next_job()).collect())
        });
        iterations += 1;
        now += results.iter().map(|r| r.cycles).max().expect("a formed batch is non-empty");
        for (&i, result) in chosen.iter().zip(results) {
            out.engine.add(&result, active[i].cached_key_tokens());
            let session = &mut active[i];
            let id = Some(session.spec().id);
            rec.span("session.absorb", id, || session.absorb(result));
        }
        let mut i = 0;
        while i < active.len() {
            if !active[i].is_finished() {
                i += 1;
                continue;
            }
            let mut session = active.remove(i);
            let id = session.spec().id;
            if let Some(manager) = manager.as_mut() {
                if session.spec().prompt.is_some() {
                    events.push(CacheEvent::Detach(id, session.cached_key_tokens()));
                }
                rec.span("cache.detach", Some(id), || session.detach_cache(manager));
            }
            out.outputs.insert(id, output_bytes(session.results()));
        }
    }
    out.cache.push(manager.map(|m| *m.stats()).unwrap_or_default());
    out.events.push(events);
    Ok(())
}

/// Replays the attach/detach sequence `replay` recorded straight through
/// each node's `KvCacheManager`, timing every attach as a `cache.attach`
/// span. Key rows are derived and decode growth re-appended outside the
/// spans, and the spill tier is the raw store, so comparing the returned
/// per-node cache counters with the replay's also shows that the
/// [`TimedTier`] wrapper changed nothing.
///
/// # Errors
///
/// Propagates I/O errors from clearing the spill directory or building
/// the tier.
///
/// # Panics
///
/// Panics if a prompt's key rows fail to decompose under the manager's
/// shape (the replay admitted the same rows).
pub fn cache_pass(
    setup: &Setup,
    placement: &[usize],
    replay: &LayerReplay,
    rec: &Recorder,
) -> io::Result<Vec<CacheStats>> {
    setup.clear_spill_dir()?;
    let mut out = Vec::new();
    for ((config, requests), events) in
        setup.nodes().iter().zip(per_node(setup, placement)).zip(&replay.events)
    {
        let Some(mut manager) = build_manager(config, &requests, None)? else {
            out.push(CacheStats::default());
            continue;
        };
        let dims = manager.config().dims;
        let bits = manager.config().bits;
        let mut live = HashMap::new();
        for &event in events {
            match event {
                CacheEvent::Attach(id) => {
                    let spec = &setup.arrivals[id];
                    let prompt = spec.prompt.as_ref().expect("attach events carry prompts");
                    let base = spec.kind.context_len(spec.trace.seq_len, 0);
                    let rows = prompt.key_rows(dims, bits);
                    let attached = rec.span("cache.attach", Some(id), || {
                        manager.attach(spec.session, &prompt.ids()[..base], &rows[..base * dims])
                    });
                    let attached = attached.expect("prompt key rows decompose");
                    live.insert(id, (attached, rows));
                }
                CacheEvent::Detach(id, tokens) => {
                    let spec = &setup.arrivals[id];
                    let prompt = spec.prompt.as_ref().expect("detach events carry prompts");
                    let (attached, rows) =
                        live.remove(&id).expect("every detach follows its attach");
                    let mut cache = attached.cache;
                    cache
                        .append_rows(&rows[cache.tokens() * dims..tokens * dims])
                        .expect("decode growth decomposes");
                    manager.detach(spec.session, prompt.shared_ids(), cache, attached.lease);
                }
            }
        }
        out.push(*manager.stats());
    }
    Ok(out)
}
