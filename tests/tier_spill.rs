//! The spill tier's write discipline, driven through a budgeted
//! `KvCacheManager` over a real `DiskTierStore`.
//!
//! Chunk keys are content addresses, so a chunk the tier already holds
//! is never written again when it is evicted a second time. These checks
//! pin that each key is put at most once while held, that the planes and
//! engine outputs stay equal to the tier-off run and a from-scratch
//! decomposition, and that a chunk file corrupted on disk is removed at
//! fetch and rewritten by the next eviction.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use pade::cache::{CacheBudget, CacheConfig, ChunkRecord, KvCacheManager, TierStore};
use pade::core::config::PadeConfig;
use pade::core::engine::{run_qk_block, run_qk_block_reference, QkBlockResult};
use pade::quant::BitPlaneMatrix;
use pade::workload::prompt::{generate_thrash_arrivals, ThrashConfig};
use pade::workload::trace::RequestArrival;
use pade_tier::DiskTierStore;

const DIMS: usize = 64;
const BITS: u32 = 8;
const CHUNK: usize = 32;

/// `put` calls per key, and how many of them hit a key already held.
#[derive(Debug, Default)]
struct PutLog {
    puts: HashMap<u128, usize>,
    rewrites: usize,
}

/// A disk tier that logs every `put` and forwards every call unchanged.
#[derive(Debug)]
struct CountingTier {
    inner: DiskTierStore,
    log: Arc<Mutex<PutLog>>,
}

impl TierStore for CountingTier {
    fn put(&mut self, record: &ChunkRecord) -> io::Result<()> {
        let mut log = self.log.lock().unwrap();
        if self.inner.contains(record.key) {
            log.rewrites += 1;
        }
        *log.puts.entry(record.key).or_default() += 1;
        self.inner.put(record)
    }

    fn get(&self, key: u128) -> io::Result<Option<ChunkRecord>> {
        self.inner.get(key)
    }

    fn remove(&mut self, key: u128) -> io::Result<bool> {
        self.inner.remove(key)
    }

    fn contains(&self, key: u128) -> bool {
        self.inner.contains(key)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn spilled_bytes(&self) -> u64 {
        self.inner.spilled_bytes()
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pade_tier_spill_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A manager over a counting disk tier in `dir`, with its put log.
fn spilling_manager(budget: CacheBudget, dir: &Path) -> (KvCacheManager, Arc<Mutex<PutLog>>) {
    let log = Arc::new(Mutex::new(PutLog::default()));
    let mut m =
        KvCacheManager::new(CacheConfig::new(DIMS, BITS, CHUNK).with_budget(budget)).unwrap();
    let tier = CountingTier { inner: DiskTierStore::open(dir).unwrap(), log: Arc::clone(&log) };
    m.set_tier(Some(Box::new(tier)));
    (m, log)
}

/// A revisited pool of three 3-chunk prompts under a 1.5-prompt budget:
/// every visit evicts, and every revisit finds spilled chunks.
fn workload() -> (Vec<RequestArrival>, CacheBudget) {
    let config = ThrashConfig {
        pool_size: 3,
        prompt_tokens: 3 * CHUNK,
        visits: 12,
        decode_steps: 1,
        head_dim: DIMS,
        bits: BITS,
        seed: 16,
        ..ThrashConfig::small_demo()
    };
    let prompt_bytes = (config.prompt_tokens * BITS as usize * DIMS.div_ceil(64) * 8) as u64;
    (generate_thrash_arrivals(&config), CacheBudget::bytes(prompt_bytes * 3 / 2))
}

/// What one visit produced: its materialized planes and the engine's
/// output over them.
type Visit = (BitPlaneMatrix, QkBlockResult);

/// Attaches every arrival in order, scores one query row over the
/// attached cache, and releases the lease.
fn replay(m: &mut KvCacheManager, arrivals: &[RequestArrival]) -> Vec<Visit> {
    let config = PadeConfig::standard();
    arrivals
        .iter()
        .map(|r| {
            let prompt = r.prompt.as_ref().unwrap();
            let rows = prompt.key_rows(DIMS, BITS);
            let attached = m.attach(r.session, prompt.ids(), &rows).unwrap();
            let snapshot = attached.cache.snapshot();
            let query: &[i8] = &rows[rows.len() - DIMS..];
            let output = run_qk_block(&config, &[query], &snapshot, 0.02);
            m.release(attached.lease);
            (snapshot.materialize(), output)
        })
        .collect()
}

#[test]
fn each_chunk_key_is_spilled_once_and_reads_back_identical() {
    let (arrivals, budget) = workload();
    let dir = temp_dir("once");
    let (mut m, log) = spilling_manager(budget, &dir);
    let spilled = replay(&mut m, &arrivals);

    let mut off =
        KvCacheManager::new(CacheConfig::new(DIMS, BITS, CHUNK).with_budget(budget)).unwrap();
    let tier_off = replay(&mut off, &arrivals);

    let config = PadeConfig::standard();
    for ((r, (planes, output)), (off_planes, off_output)) in
        arrivals.iter().zip(&spilled).zip(&tier_off)
    {
        let rows = r.prompt.as_ref().unwrap().key_rows(DIMS, BITS);
        let scratch = BitPlaneMatrix::from_rows(&rows, DIMS, BITS).unwrap();
        let query: &[i8] = &rows[rows.len() - DIMS..];
        assert_eq!(planes, &scratch, "visit {}: planes differ from scratch", r.id);
        assert_eq!(planes, off_planes, "visit {}: planes differ from tier-off", r.id);
        assert!(output == off_output, "visit {}: output differs from tier-off", r.id);
        assert!(
            *output == run_qk_block_reference(&config, &[query], &scratch, 0.02),
            "visit {}: output differs from the seed oracle",
            r.id
        );
    }

    let log = log.lock().unwrap();
    let stats = *m.stats();
    assert_eq!(log.rewrites, 0, "a held chunk key was written again");
    assert!(log.puts.values().all(|&n| n == 1), "nothing left the tier, so one put per key");
    assert_eq!(log.puts.len(), m.tier().unwrap().len());
    // Not vacuous: chunks were re-evicted while held and fetched back.
    assert!(stats.spilled_chunks > log.puts.len() as u64, "{stats:?}");
    assert!(stats.fetched_tokens > 0, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_chunk_file_is_removed_at_fetch_and_rewritten_on_eviction() {
    let (arrivals, _) = workload();
    let prompt = arrivals[0].prompt.as_ref().unwrap();
    let (ids, rows) = (prompt.ids(), prompt.key_rows(DIMS, BITS));
    let scratch = BitPlaneMatrix::from_rows(&rows, DIMS, BITS).unwrap();
    let dir = temp_dir("heal");
    // Budget zero: every release spills the whole prompt.
    let (mut m, log) = spilling_manager(CacheBudget::bytes(0), &dir);
    let first = m.attach(1, ids, &rows).unwrap();
    m.release(first.lease);
    let keys: Vec<u128> = log.lock().unwrap().puts.keys().copied().collect();
    assert_eq!(keys.len(), 3);

    // Corrupt every chunk file between spill and fetch.
    for &key in &keys {
        std::fs::write(dir.join(format!("chunk_{key:032x}.tier")), b"not a chunk").unwrap();
        assert!(m.tier().unwrap().get(key).is_err());
    }

    // The fetch fails, so the attach decomposes instead, with identical
    // planes, and the unreadable keys leave the tier.
    let second = m.attach(2, ids, &rows).unwrap();
    assert_eq!((second.fetched_tokens, second.decomposed_tokens), (0, ids.len()));
    assert_eq!(second.cache.snapshot().materialize(), scratch);
    assert!(keys.iter().all(|&key| !m.tier().unwrap().contains(key)));

    // The next eviction writes fresh files that read back equal.
    m.release(second.lease);
    assert_eq!(log.lock().unwrap().rewrites, 0);
    assert!(log.lock().unwrap().puts.values().all(|&n| n == 2));
    for &key in &keys {
        let record = m.tier().unwrap().get(key).unwrap().expect("rewritten chunk");
        let at = ids.chunks(CHUNK).position(|c| *c == *record.ids).unwrap() * CHUNK;
        let chunk_rows = &rows[at * DIMS..(at + CHUNK) * DIMS];
        assert_eq!(*record.planes, BitPlaneMatrix::from_rows(chunk_rows, DIMS, BITS).unwrap());
    }
    let third = m.attach(3, ids, &rows).unwrap();
    assert_eq!(third.fetched_tokens, ids.len());
    assert_eq!(third.cache.snapshot().materialize(), scratch);
    let _ = std::fs::remove_dir_all(&dir);
}
