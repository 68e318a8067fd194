//! The benchmark's own tests, at the small workload size.

use std::path::PathBuf;

use pade_e2e::layers::{cache_pass, replay_layers};
use pade_e2e::metrics::{Outcome, END_TO_END, PER_LAYER};
use pade_e2e::run::{run_end_to_end, run_traced, Checks, Options};
use pade_e2e::spans::Recorder;
use pade_e2e::workloads::{Report, Setup, Size, Workload};

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn options(workload: Workload, seed: u64, trace: bool, test: &str) -> Options {
    Options { workload, size: Size::Small, seed, seconds: 0.0, trace, out_dir: out_dir(test) }
}

/// Runs one small benchmark invocation and asserts every check passed.
fn run(opts: &Options) -> Outcome {
    let mut checks = Checks::default();
    let outcome =
        if opts.trace { run_traced(opts, &mut checks) } else { run_end_to_end(opts, &mut checks) }
            .expect("the benchmark's scratch directory is writable");
    assert!(checks.failures().is_empty(), "{:?}: {:?}", opts.workload, checks.failures());
    assert!(outcome.attempted > 0 && outcome.failed == 0);
    outcome
}

#[test]
fn every_named_metric_prints_with_its_unit_on_each_workload() {
    let manifest = include_str!("../../BENCHMARK.json");
    for workload in Workload::ALL {
        assert!(manifest.contains(&format!("\"name\": \"{}\"", workload.name())));
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let outcome = run(&options(workload, 1, trace, "metrics"));
            let names: Vec<&str> = outcome.metrics.iter().map(|(d, _)| d.name).collect();
            let expected: Vec<&str> = table.iter().map(|d| d.name).collect();
            assert_eq!(names, expected, "{} --trace {}", workload.name(), u8::from(trace));
            let line = outcome.to_json();
            for def in table {
                let value = outcome.metrics.get(def.name).expect("every metric is set");
                assert!(value.is_finite(), "{} is {value}", def.name);
                assert!(line.contains(&format!("\"{}\": {{\"value\": ", def.name)));
                assert!(line.contains(&format!("\"unit\": \"{}\"", def.unit)));
                let better = if def.higher_is_better { "higher" } else { "lower" };
                let listed = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                    def.name, def.unit
                );
                assert!(manifest.contains(&listed), "BENCHMARK.json lacks {listed}");
            }
        }
    }
}

#[test]
fn a_non_default_seed_changes_the_trace_but_not_the_checks() {
    let scratch = out_dir("seed");
    for workload in Workload::ALL {
        let a = Setup::build(workload, Size::Small, 1, &scratch).unwrap();
        let b = Setup::build(workload, Size::Small, 2, &scratch).unwrap();
        assert_ne!(a.arrivals, b.arrivals, "{}: the seed must change the trace", workload.name());
        run(&options(workload, 2, false, "seed"));
    }
}

#[test]
fn simulated_metrics_repeat_exactly_across_runs() {
    for workload in Workload::ALL {
        let a = run(&options(workload, 3, false, "repeat"));
        let b = run(&options(workload, 3, false, "repeat"));
        for name in ["sim_tokens_per_s", "sim_latency_p50_cycles", "sim_latency_p90_cycles"] {
            assert_eq!(a.metrics.get(name), b.metrics.get(name), "{}: {name}", workload.name());
        }
    }
}

#[test]
fn the_timing_wrapper_leaves_cache_stats_unchanged() {
    let setup = Setup::build(Workload::SpillThrash, Size::Small, 1, &out_dir("wrapper")).unwrap();
    let Report::Node(report) = setup.replay().unwrap() else { panic!("spill-thrash is one node") };
    let placement = vec![0; setup.arrivals.len()];
    // The layer replay's tier is wrapped; the cache pass's is the raw store.
    let rec = Recorder::enabled();
    let wrapped = replay_layers(&setup, &placement, &rec).unwrap();
    assert!(
        rec.spans_since(0).iter().any(|s| s.name == "tier.put"),
        "the workload must exercise the wrapped tier"
    );
    let raw = cache_pass(&setup, &placement, &wrapped, &Recorder::disabled()).unwrap();
    assert_eq!(wrapped.cache, raw);
    assert_eq!(raw, vec![report.metrics.cache]);
    assert!(raw[0].spilled_chunks > 0 && raw[0].fetched_tokens > 0);
}

#[test]
fn full_workloads_have_enough_requests_for_p90() {
    let scratch = out_dir("size");
    for workload in Workload::ALL {
        let setup = Setup::build(workload, Size::Full, 1, &scratch).unwrap();
        // 100 completed requests leave 10 samples beyond the p90 rank.
        assert!(setup.arrivals.len() >= 100, "{}", workload.name());
        assert!(setup.arrivals.iter().enumerate().all(|(i, r)| r.id == i));
    }
}
