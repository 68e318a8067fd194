//! `pade-e2e` — one benchmark for the PADE serving stack.
//!
//! The benchmark replays three seeded, open-loop workloads
//! ([`workloads`]) through the public entry points `pade_router::route`
//! and `pade_serve::serve`, and reports:
//!
//! * with `--trace 0`, the end-to-end metrics ([`metrics::END_TO_END`]):
//!   host throughput per CPU second, set-up time and peak memory from
//!   this machine, and
//!   simulated throughput, latency percentiles and SLO attainment from
//!   the modelled accelerator;
//! * with `--trace 1`, the per-layer metrics ([`metrics::PER_LAYER`]),
//!   measured by replaying the same requests through each layer's public
//!   calls under an in-memory span recorder kept in these files
//!   ([`spans`], [`layers`]).
//!
//! Every run checks correctness outside its timed region: outputs equal
//! a single-node control run and, for a sample, the seed oracle; every
//! deterministic count repeats exactly across replays and across the
//! traced and untraced runs. A failed check makes the run incorrect and
//! the command exit nonzero; it is never a metric.

// One foreign call, in `cpu`, reads the process CPU clock.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod workloads;
