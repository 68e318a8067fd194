//! Crate-level differential tests for the engine: the optimized hot path
//! (`run_qk_block`) must be **bit-identical** to the seed oracle
//! (`run_qk_block_reference`) over seeded random operands — not just the
//! workload generator's friendly traces — and a growable cache snapshot
//! must be indistinguishable from a from-scratch tensor through every
//! engine entry (solo, batched, heterogeneous batch, and the `parallel`
//! fan-out when enabled).
//!
//! The convention (see README § Testing): the reference kernel stays
//! verbatim; optimizations live in `run_qk_block`/`run_qk_block_on` and
//! must keep these properties green.

use std::sync::Arc;

use pade_core::config::PadeConfig;
use pade_core::engine::{
    run_qk_batch, run_qk_block, run_qk_block_cached, run_qk_block_reference, run_qk_blocks,
    run_qk_blocks_cached, KeySource, QkBatchJob,
};
use pade_mem::KeyLayout;
use pade_quant::{BitPlaneMatrix, GrowableKeyCache, PlaneSource};
use pade_testutil::{mix, vec_i8_bits};
use proptest::prelude::*;

/// A config whose width/pruning knobs are driven from hash bits so the
/// differential sweep touches the restructured code paths (BS, OOE,
/// layouts, narrow scoreboards, GSAT geometries, lane counts, DRAM
/// channel counts) without enumerating them by hand. One HBM channel
/// builds deep DRAM queues: arrivals far beyond the engine's event
/// calendar and long lazily-charged memory stalls.
fn config_for(bits: u32, knobs: u64) -> PadeConfig {
    let layout = match knobs % 3 {
        0 => KeyLayout::BitPlaneInterleaved,
        1 => KeyLayout::BitPlaneLinear,
        _ => KeyLayout::ValueRowMajor,
    };
    let (gsat_width, subgroup) = [(16, 2), (32, 4), (64, 8), (128, 16)][(knobs >> 6) as usize % 4];
    let lanes_per_row = [1, 3, 16][(knobs >> 8) as usize % 3];
    let standard = PadeConfig::standard();
    let channels = if knobs & (1 << 12) != 0 { 1 } else { standard.hbm.channels };
    PadeConfig {
        bits,
        layout,
        enable_bs: knobs & 4 != 0,
        enable_ooe: knobs & 8 != 0,
        enable_bui_gf: knobs & 16 != 0,
        scoreboard_entries: if knobs & 32 != 0 { 4 } else { 16 },
        gsat_width,
        subgroup,
        lanes_per_row,
        hbm: pade_mem::HbmConfig { channels, ..standard.hbm },
        ..standard
    }
}

proptest! {
    /// Optimized engine ≡ seed oracle over raw random operands: random
    /// context lengths (down to the degenerate S=1), dimensions, widths
    /// and feature knobs.
    #[test]
    fn optimized_engine_matches_oracle_on_random_shapes(
        bits in prop_oneof![Just(2u32), Just(4), Just(8)],
        s in 1usize..48,
        dims in 1usize..48,
        rows in 1usize..4,
        knobs in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let config = config_for(bits, knobs);
        let keys_data = vec_i8_bits(s * dims, seed, bits);
        let keys = BitPlaneMatrix::from_rows(&keys_data, dims, bits).unwrap();
        let query_data: Vec<Vec<i8>> =
            (0..rows).map(|r| vec_i8_bits(dims, seed ^ mix(seed, r), bits)).collect();
        let queries: Vec<&[i8]> = query_data.iter().map(Vec::as_slice).collect();
        let scale = 1.0 / 64.0;
        let fast = run_qk_block(&config, &queries, &keys, scale);
        let oracle = run_qk_block_reference(&config, &queries, &keys, scale);
        prop_assert_eq!(fast, oracle);
    }

    /// Long blocks on a single HBM channel: hundreds of keys in flight
    /// queue behind one bus and one bank per plane, so arrivals land
    /// beyond the optimized loop's event calendar window and lanes wait on
    /// DRAM for long stretches before their stall is charged. The shapes
    /// of the sweep above are too small to get there.
    #[test]
    fn deep_dram_queues_match_oracle(
        s in 256usize..640,
        rows in 1usize..3,
        knobs in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let bits = 8;
        let dims = 64;
        let base = config_for(bits, knobs);
        let config = PadeConfig {
            scoreboard_entries: 32,
            enable_ooe: true,
            hbm: pade_mem::HbmConfig { channels: 1, ..base.hbm },
            ..base
        };
        let keys_data = vec_i8_bits(s * dims, seed, bits);
        let keys = BitPlaneMatrix::from_rows(&keys_data, dims, bits).unwrap();
        let query_data: Vec<Vec<i8>> =
            (0..rows).map(|r| vec_i8_bits(dims, seed ^ mix(seed, r), bits)).collect();
        let queries: Vec<&[i8]> = query_data.iter().map(Vec::as_slice).collect();
        let scale = 1.0 / 64.0;
        let fast = run_qk_block(&config, &queries, &keys, scale);
        let oracle = run_qk_block_reference(&config, &queries, &keys, scale);
        prop_assert_eq!(fast, oracle);
    }

    /// Cache-snapshot execution ≡ from-scratch execution ≡ seed oracle,
    /// for any append split and chunk size — the tentpole's engine-level
    /// guarantee, solo and batched.
    #[test]
    fn snapshot_execution_matches_from_scratch_and_oracle(
        bits in prop_oneof![Just(4u32), Just(8)],
        s in 1usize..40,
        dims in 1usize..32,
        rows in 1usize..10,
        chunk in 1usize..13,
        split in 0usize..40,
        knobs in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let config = config_for(bits, knobs);
        let keys_data = vec_i8_bits(s * dims, seed, bits);
        let scratch = BitPlaneMatrix::from_rows(&keys_data, dims, bits).unwrap();
        let mut cache = GrowableKeyCache::new(dims, bits, chunk).unwrap();
        let split = split.min(s);
        cache.append_rows(&keys_data[..split * dims]).unwrap();
        for t in split..s {
            cache.append_token(&keys_data[t * dims..(t + 1) * dims]).unwrap();
        }
        let snap = cache.snapshot();
        prop_assert_eq!(snap.tokens(), s);
        let query_data: Vec<Vec<i8>> =
            (0..rows).map(|r| vec_i8_bits(dims, seed ^ mix(!seed, r), bits)).collect();
        let queries: Vec<&[i8]> = query_data.iter().map(Vec::as_slice).collect();
        let scale = 1.0 / 64.0;
        // Solo block (first pe_rows-bounded chunk of rows).
        let head = &queries[..queries.len().min(config.pe_rows)];
        let cached = run_qk_block_cached(&config, head, &snap, scale);
        prop_assert_eq!(&cached, &run_qk_block(&config, head, &scratch, scale));
        prop_assert_eq!(&cached, &run_qk_block_reference(&config, head, &scratch, scale));
        // Batched rows (may span several blocks).
        prop_assert_eq!(
            run_qk_blocks_cached(&config, &queries, &snap, scale),
            run_qk_blocks(&config, &queries, &scratch, scale)
        );
        #[cfg(feature = "parallel")]
        {
            prop_assert_eq!(
                pade_core::engine::run_qk_blocks_cached_par(&config, &queries, &snap, scale),
                run_qk_blocks(&config, &queries, &scratch, scale)
            );
        }
    }

    /// A heterogeneous batch mixing shared-tensor jobs with cache-snapshot
    /// jobs over the *same* operands yields identical results for both
    /// storage forms — and matches the oracle.
    #[test]
    fn mixed_key_sources_are_indistinguishable(
        s in 1usize..32,
        dims in 1usize..24,
        chunk in 1usize..9,
        seed in any::<u64>(),
    ) {
        let config = PadeConfig::standard();
        let bits = config.bits;
        let keys_data = vec_i8_bits(s * dims, seed, bits);
        let scratch = Arc::new(BitPlaneMatrix::from_rows(&keys_data, dims, bits).unwrap());
        let mut cache = GrowableKeyCache::new(dims, bits, chunk).unwrap();
        cache.append_rows(&keys_data).unwrap();
        let q = vec_i8_bits(dims, seed ^ 0xBEEF, bits);
        let queries: Vec<&[i8]> = vec![&q];
        let scale = 1.0 / 64.0;
        let jobs = vec![
            QkBatchJob {
                queries: queries.clone(),
                keys: KeySource::Planes(Arc::clone(&scratch)),
                logit_scale: scale,
            },
            QkBatchJob {
                queries: queries.clone(),
                keys: KeySource::Cache(cache.snapshot()),
                logit_scale: scale,
            },
        ];
        let results = run_qk_batch(&config, &jobs);
        prop_assert_eq!(&results[0], &results[1]);
        let oracle = run_qk_block_reference(&config, &queries, &scratch, scale);
        prop_assert_eq!(&results[0], &oracle);
        #[cfg(feature = "parallel")]
        {
            let par = pade_core::engine::run_qk_batch_par(&config, &jobs);
            prop_assert_eq!(&par[0], &results[0]);
            prop_assert_eq!(&par[1], &results[1]);
        }
    }

    /// The traced entry points are the seed path plus a pure side
    /// channel: recorder attached, recorder absent, or the whole `trace`
    /// feature compiled out — the outputs stay byte-identical to the
    /// oracle, and whatever stream is recorded is strictly well-formed.
    #[test]
    fn traced_engine_matches_oracle_and_records_wellformed_spans(
        bits in prop_oneof![Just(2u32), Just(4), Just(8)],
        s in 1usize..40,
        dims in 1usize..32,
        rows in 1usize..6,
        knobs in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let config = config_for(bits, knobs);
        let keys_data = vec_i8_bits(s * dims, seed, bits);
        let keys = BitPlaneMatrix::from_rows(&keys_data, dims, bits).unwrap();
        let query_data: Vec<Vec<i8>> =
            (0..rows).map(|r| vec_i8_bits(dims, seed ^ mix(seed, r), bits)).collect();
        let queries: Vec<&[i8]> = query_data.iter().map(Vec::as_slice).collect();
        let scale = 1.0 / 64.0;
        let recorder = Arc::new(pade_trace::Recorder::new());
        let tracer =
            pade_trace::Tracer::new(Arc::clone(&recorder) as Arc<dyn pade_trace::TraceSink>);
        let track = pade_trace::track::id(pade_trace::track::ENGINE, 7, 0);
        let head = &queries[..queries.len().min(config.pe_rows)];
        let traced = pade_core::engine::run_qk_block_on_traced(
            &config, head, &keys, scale, &tracer, track,
        );
        let oracle = run_qk_block_reference(&config, head, &keys, scale);
        prop_assert_eq!(&traced, &oracle);
        let inert = pade_core::engine::run_qk_block_on_traced(
            &config, head, &keys, scale, &pade_trace::Tracer::disabled(), track,
        );
        prop_assert_eq!(&inert, &oracle);
        let snap = recorder.snapshot();
        prop_assert!(snap.check_well_formed().is_ok());
        if cfg!(feature = "trace") {
            prop_assert!(snap.span_count() > 0);
            prop_assert!(snap.stage_names().contains("engine.qk_block"));
        } else {
            prop_assert_eq!(snap.event_count(), 0);
        }
        #[cfg(feature = "parallel")]
        {
            let par = pade_core::engine::run_qk_blocks_par_traced(
                &config, &queries, &keys, scale, &tracer, track,
            );
            prop_assert_eq!(
                par,
                pade_core::engine::run_qk_blocks_par(&config, &queries, &keys, scale)
            );
        }
    }
}
