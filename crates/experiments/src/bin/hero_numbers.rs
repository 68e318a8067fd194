//! The headline numbers (§I / §VIII): PADE versus the H100 GPU and versus
//! the SOTA accelerators, geomeaned across the benchmark zoo.

use pade_baselines::{dota, sanger, sofa, Accelerator};
use pade_core::config::PadeConfig;
use pade_experiments::report::{banner, times, Table};
use pade_experiments::runner::{
    gpu_outcome, pade_end_to_end, run_baseline, run_pade, GpuMode, Workload,
};
use pade_linalg::metrics::geomean;
use pade_workload::{model, task};

fn main() {
    banner("Hero numbers", "PADE vs H100 and vs SOTA accelerators (geomean over zoo)");
    let pairs = vec![
        (model::llama2_7b(), task::wikilingua()),
        (model::llama2_7b(), task::dolly()),
        (model::llama3_8b(), task::wikilingua()),
        (model::opt_1b3(), task::wikilingua()),
        (model::bloom_1b7(), task::wikilingua()),
        (model::qwen_7b(), task::mbpp()),
        (model::vit_l16(), task::imagenet()),
        (model::pvt(), {
            let mut t = task::imagenet();
            t.seq_len = 3072;
            t
        }),
    ];
    let mut speedup_gpu = Vec::new();
    let mut eff_gpu = Vec::new();
    let mut energy_vs: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    let mut gops_w = Vec::new();
    for (m, t) in &pairs {
        let w = Workload::new(*m, *t, 5000 + t.seq_len as u64);
        let (gpu_s, gpu_j) = gpu_outcome(&w, GpuMode::Flash);
        let (pade_s, pade_j, _) = pade_end_to_end(&w, &PadeConfig::aggressive());
        speedup_gpu.push(gpu_s / pade_s);
        eff_gpu.push(gpu_j / pade_j);
        let (_, pade_o) = run_pade(&w, PadeConfig::standard());
        gops_w.push(pade_o.gops_per_watt(&w));
        for d in [&sanger() as &dyn Accelerator, &dota(), &sofa()] {
            let (_, o) = run_baseline(&w, d);
            energy_vs
                .entry(match d.name() {
                    "Sanger" => "Sanger",
                    "DOTA" => "DOTA",
                    _ => "SOFA",
                })
                .or_default()
                .push(o.energy.total_pj() / pade_o.energy.total_pj());
        }
    }
    // Iso-silicon normalization (H100 ~814 mm² vs PADE 4.53 mm²): the
    // per-area basis under which a 0.6 W accelerator can meaningfully be
    // compared against a 700 W GPU.
    let area = 814.0 / 4.53;
    let mut table = Table::new(vec!["metric", "measured", "paper"]);
    table.row(vec![
        "raw latency ratio vs H100 (single die)".into(),
        times(geomean(&speedup_gpu)),
        "-".into(),
    ]);
    table.row(vec![
        "area-normalized speedup vs H100".into(),
        times(geomean(&speedup_gpu) * area),
        "7.43x".into(),
    ]);
    table.row(vec!["energy efficiency vs H100".into(), times(geomean(&eff_gpu)), "31.1x".into()]);
    table.row(vec![
        "energy saving vs Sanger".into(),
        times(geomean(&energy_vs["Sanger"])),
        "5.1x".into(),
    ]);
    table.row(vec![
        "energy saving vs DOTA".into(),
        times(geomean(&energy_vs["DOTA"])),
        "4.3x".into(),
    ]);
    table.row(vec![
        "energy saving vs SOFA".into(),
        times(geomean(&energy_vs["SOFA"])),
        "3.4x".into(),
    ]);
    table.row(vec![
        "avg energy efficiency".into(),
        format!("{:.0} GOPS/W", geomean(&gops_w)),
        "11740 GOPS/W".into(),
    ]);
    println!("{}", table.render());
    let measured: Vec<(&str, f64)> =
        ["Sanger", "DOTA", "SOFA"].iter().map(|&d| (d, geomean(&energy_vs[d]))).collect();
    let paper = [("Sanger", 5.1), ("DOTA", 4.3), ("SOFA", 3.4)];
    println!("Energy ordering, most efficient first (saving vs each design):");
    println!("  measured: {}", energy_ordering(&measured));
    println!("  paper:    {}", energy_ordering(&paper));
    println!("Absolute factors depend on the substituted substrates.");
}

/// `PADE > A (x) > B (y) > …`: designs ordered by PADE's energy saving
/// over them, smallest saving (the most efficient design) first.
fn energy_ordering(savings: &[(&str, f64)]) -> String {
    let mut sorted = savings.to_vec();
    sorted.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut out = String::from("PADE");
    for (design, saving) in sorted {
        out.push_str(&format!(" > {design} ({})", times(saving)));
    }
    out
}
