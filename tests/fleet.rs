//! One fast cross-crate check of the serving stack: a seeded two-node
//! prefix-affinity fleet with chunked prefill and a spill tier under a
//! small cache budget, every request byte-checked against its solo seed
//! oracle (`run_qk_block_reference`).
//!
//! The assertions also pin that the run is not vacuous: the budget must
//! force spills, later requests must fetch spilled chunks back, and at
//! least one prefill must be longer than the chunk size, so it is really
//! sliced.

use pade::cache::{CacheBudget, TierConfig};
use pade::router::{route, RoutePolicy, RouterConfig};
use pade::workload::prompt::{generate_shared_prefix_arrivals, SharedPrefixConfig};
use pade::workload::trace::RequestKind;
use pade_serve::scheduler::ScheduleMode;
use pade_serve::server::ServeConfig;
use pade_serve::{output_bytes, reference_outputs};

/// Query rows per prefill slice; below the standard `pe_rows` of 8.
const CHUNK: usize = 3;

#[test]
fn affinity_fleet_with_chunked_prefill_and_spill_matches_oracle() {
    let arrivals = generate_shared_prefix_arrivals(&SharedPrefixConfig {
        n_sessions: 8,
        turns_per_session: 2,
        pool_size: 2,
        shared_prefix_tokens: 32,
        unique_suffix_tokens: 8,
        turn_suffix_tokens: 8,
        decode_steps: 2,
        prefill_fraction: 0.5,
        prefill_rows: 8,
        head_dim: 16,
        seed: 11,
        ..SharedPrefixConfig::small_demo()
    });
    let node = ServeConfig {
        kv_chunk_tokens: 8,
        prefill_chunk_tokens: Some(CHUNK),
        prefix_cache: Some(CacheBudget::bytes(1024)),
        tier: Some(TierConfig::Memory),
        ..ServeConfig::standard()
    };
    assert!(CHUNK < node.engine.pe_rows);
    let fleet = RouterConfig::homogeneous(node, 2, RoutePolicy::Affinity);
    let report = route(&fleet, &arrivals, ScheduleMode::Batched);

    let completions = report.completions_by_id();
    assert_eq!(completions.len(), arrivals.len(), "every request completes");
    for completion in completions {
        let spec = &arrivals[completion.id];
        let oracle = reference_outputs(spec, &fleet.nodes[0].engine);
        assert!(
            completion.output_bytes() == output_bytes(&oracle),
            "request {} diverged from its solo seed-oracle run",
            spec.id
        );
    }

    let spilled: u64 = report.node_reports.iter().map(|r| r.summary.cache_spilled_chunks).sum();
    let fetched: u64 = report.node_reports.iter().map(|r| r.summary.cache_fetched_tokens).sum();
    assert!(spilled > 0, "the cache budget must force spills");
    assert!(fetched > 0, "later requests must fetch spilled chunks back");
    assert!(
        arrivals.iter().any(|a| matches!(a.kind, RequestKind::Prefill { rows } if rows > CHUNK)),
        "at least one prefill must span several chunks"
    );
}
