//! `pade-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the serving-stack benchmark and prints every
//! metric by name with its unit, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a
//! correctness check fails and 2 on a usage error. Scratch files (the
//! spill tier, the span file) go under `.bench_out/` in the working
//! directory.

use std::path::PathBuf;
use std::process::ExitCode;

use pade_e2e::run::{run_end_to_end, run_traced, Checks, Options};
use pade_e2e::workloads::{Size, Workload};

fn usage(problem: &str) -> ExitCode {
    eprintln!("pade-e2e: {problem}");
    eprintln!(
        "usage: pade-e2e --workload <fleet-prefix|slo-chunked|spill-thrash> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::FleetPrefix,
        size: Size::Full,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(problem) => return usage(&problem),
    };
    // One process, at most one pade-par worker per core.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if std::env::var("PADE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .is_none_or(|n| n > cores)
    {
        std::env::set_var("PADE_THREADS", cores.to_string());
    }

    let mut checks = Checks::default();
    let result = if opts.trace {
        run_traced(&opts, &mut checks)
    } else {
        run_end_to_end(&opts, &mut checks)
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("pade-e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    for failure in checks.failures() {
        eprintln!("CHECK FAILED: {failure}");
    }
    let finite = outcome.metrics.iter().all(|(_, v)| v.is_finite());
    if !finite {
        eprintln!("CHECK FAILED: a metric is not a finite number");
    }
    outcome.correct = checks.failures().is_empty() && finite;
    for (def, value) in outcome.metrics.iter() {
        println!("{:<28} {value:>18.6} {}", def.name, def.unit);
    }
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
