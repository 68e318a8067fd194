//! Criterion benchmarks over the simulator's own kernels: bit-plane
//! decomposition, bidirectional-sparsity dot products, guard filtering,
//! ISTA softmax, RARS scheduling and the HBM model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pade_core::bitserial::{plane_contribution, q_sum};
use pade_core::bui::Bui;
use pade_core::filter::{Decision, GuardFilter};
use pade_core::ista::{run_ista, TileOrder};
use pade_core::rars::{naive_schedule, rars_schedule};
use pade_core::vpu::Vpu;
use pade_linalg::MatF32;
use pade_mem::{HbmConfig, HbmModel, KeyLayout};
use pade_quant::BitPlaneMatrix;
use pade_sim::Cycle;

fn keys(n: usize, h: usize) -> Vec<i8> {
    (0..n * h).map(|i| ((i.wrapping_mul(2654435761)) >> 13) as u8 as i8).collect()
}

fn bench_bitplane(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitplane");
    g.sample_size(20);
    for h in [64usize, 128] {
        let data = keys(256, h);
        g.bench_with_input(BenchmarkId::new("decompose_256_tokens", h), &h, |b, &h| {
            b.iter(|| BitPlaneMatrix::from_rows(&data, h, 8).unwrap())
        });
    }
    let row = keys(1, 64);
    g.bench_function("token_roundtrip_64", |b| {
        b.iter(|| BitPlaneMatrix::from_rows(&row, 64, 8).unwrap().token(0).reconstruct())
    });
    g.finish();
}

fn bench_bitserial(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitserial_dot");
    g.sample_size(30);
    let q: Vec<i8> = keys(1, 64);
    let m = BitPlaneMatrix::from_rows(&keys(1, 64), 64, 8).unwrap();
    let k = m.token(0);
    let qs = q_sum(&q);
    g.bench_function("plane_contribution_bs", |b| {
        b.iter(|| {
            (0..8u32).map(|r| plane_contribution(&q, k.plane(r), r, 8, qs, true).value).sum::<i64>()
        })
    });
    g.bench_function("bui_filter_round", |b| {
        let bui = Bui::new(&q, 8);
        b.iter(|| {
            let mut f = GuardFilter::new(5.0, 0.001, 8);
            let mut pruned = 0u32;
            for j in 0..64i64 {
                f.observe_lower_bound(bui.lower_bound(j * 100, 2));
                if f.decide(bui.upper_bound(j * 100, 2), 2) == Decision::Prune {
                    pruned += 1;
                }
            }
            pruned
        })
    });
    g.finish();
}

fn bench_ista(c: &mut Criterion) {
    let mut g = c.benchmark_group("ista_softmax");
    g.sample_size(20);
    let v = MatF32::from_fn(512, 64, |i, j| ((i * 7 + j) % 13) as f32 * 0.1);
    let retained: Vec<(usize, f32)> = (0..512).map(|j| (j, (j % 29) as f32 * 0.3)).collect();
    for order in [TileOrder::LeftToRight, TileOrder::HeadTail] {
        g.bench_with_input(
            BenchmarkId::new("tiled_512_keys", format!("{order:?}")),
            &order,
            |b, &order| b.iter(|| run_ista(&retained, &v, 16, order, &Vpu::default())),
        );
    }
    g.finish();
}

fn bench_rars(c: &mut Criterion) {
    let mut g = c.benchmark_group("rars_schedule");
    g.sample_size(20);
    let rows: Vec<Vec<usize>> =
        (0..8).map(|r| (0..48).map(|i| (i * 3 + r * 5) % 96).collect()).collect();
    g.bench_function("naive_8x48", |b| b.iter(|| naive_schedule(&rows, 2)));
    g.bench_function("greedy_8x48", |b| b.iter(|| rars_schedule(&rows, 2, 16)));
    g.finish();
}

fn bench_hbm(c: &mut Criterion) {
    let mut g = c.benchmark_group("hbm_model");
    g.sample_size(20);
    for layout in [KeyLayout::BitPlaneInterleaved, KeyLayout::BitPlaneLinear] {
        g.bench_with_input(
            BenchmarkId::new("plane_stream_4k", layout.name()),
            &layout,
            |b, &layout| {
                b.iter(|| {
                    let cfg = HbmConfig::default();
                    let mut hbm = HbmModel::new(cfg);
                    let mut t = Cycle::ZERO;
                    for token in 0..512 {
                        for plane in 0..8 {
                            let f = layout.plane_fetch(token, plane, 64, 8, &cfg);
                            t = hbm.access(f.loc, f.bytes, t).complete;
                        }
                    }
                    t
                })
            },
        );
    }
    g.finish();
}

/// The optimized engine vs the seed reference on one block — the
/// micro-scale view of what `pade-bench` measures end to end.
fn bench_engine_paths(c: &mut Criterion) {
    use pade_core::config::PadeConfig;
    use pade_core::engine::{run_qk_block, run_qk_block_reference};
    use pade_workload::trace::{AttentionTrace, TraceConfig};

    let mut g = c.benchmark_group("engine_paths");
    g.sample_size(10);
    let t = AttentionTrace::generate(&TraceConfig { seq_len: 512, ..TraceConfig::small_demo() });
    let config = PadeConfig::standard();
    let keys =
        BitPlaneMatrix::from_rows(t.keys().as_slice(), t.keys().cols(), config.bits).unwrap();
    let queries: Vec<&[i8]> = (0..t.queries().rows()).map(|i| t.queries().row(i)).collect();
    g.bench_function("reference_s512", |b| {
        b.iter(|| run_qk_block_reference(&config, &queries, &keys, t.logit_scale()))
    });
    g.bench_function("optimized_s512", |b| {
        b.iter(|| run_qk_block(&config, &queries, &keys, t.logit_scale()))
    });
    g.finish();
}

/// LUT-based plane dot products vs the per-bit oracle.
fn bench_qrow_lut(c: &mut Criterion) {
    use pade_core::bitserial::{plane_contribution_lut, QRowLut};

    let mut g = c.benchmark_group("qrow_lut");
    g.sample_size(30);
    let q: Vec<i8> = keys(1, 128);
    let m = BitPlaneMatrix::from_rows(&keys(1, 128), 128, 8).unwrap();
    let k = m.token(0);
    let qs = q_sum(&q);
    g.bench_function("oracle_plane_sum_128", |b| {
        b.iter(|| {
            (0..8u32).map(|r| plane_contribution(&q, k.plane(r), r, 8, qs, true).value).sum::<i64>()
        })
    });
    g.bench_function("lut_build_128", |b| b.iter(|| QRowLut::new(&q)));
    let lut = QRowLut::new(&q);
    g.bench_function("lut_plane_sum_128", |b| {
        b.iter(|| {
            (0..8u32)
                .map(|r| plane_contribution_lut(&lut, k.plane(r), r, 8, true).value)
                .sum::<i64>()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_bitplane,
    bench_bitserial,
    bench_ista,
    bench_rars,
    bench_hbm,
    bench_engine_paths,
    bench_qrow_lut
);
criterion_main!(benches);
