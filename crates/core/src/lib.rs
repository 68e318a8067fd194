//! PADE: a predictor-free sparse attention accelerator via unified
//! execution and stage fusion (HPCA 2026) — core algorithms and
//! cycle-level model.
//!
//! Dynamic-sparsity attention accelerators traditionally run a separate
//! low-precision *predictor* over the full key tensor to decide which
//! query–key pairs the executor should compute. PADE deletes that stage:
//! keys are streamed **one bit plane at a time** (MSB first), and after
//! every plane a provably safe interval test decides whether the key can
//! still matter. The modules here implement each mechanism of the paper:
//!
//! | Paper §  | Mechanism | Module |
//! |----------|-----------|--------|
//! | §IV-A | Bit-wise uncertainty interval (BUI) | [`bui`] |
//! | §IV-A | BUI-enabled guarded filtering (BUI-GF) | [`filter`] |
//! | §IV-B | Bidirectional sparsity (BS) | [`bitserial`] |
//! | §V-D  | Grouped sparsity ANDer tree (GSAT) | [`gsat`] |
//! | §V-C  | Scoreboard-based result-reusable PE lane | [`scoreboard`] |
//! | §IV-B/§V | Bit-wise out-of-order execution (OOE) | [`engine`] |
//! | §IV-C | Interleaved sparsity-tiled attention (ISTA) | [`ista`] |
//! | §V-E  | Reuse-aware reorder scheduling (RARS) | [`rars`] |
//! | §V-A  | V-PU (systolic + APM) | [`vpu`] |
//! | Table III | Full accelerator assembly | [`accelerator`] |
//! | §VII (future work) | Multi-bit (digit-serial) stage fusion | [`multibit`] |
//! | §V-B / Fig. 26(b) | Autoregressive decode sessions | [`decode`] |
//!
//! # Quickstart
//!
//! ```
//! use pade_core::accelerator::PadeAccelerator;
//! use pade_core::config::PadeConfig;
//! use pade_workload::trace::{AttentionTrace, TraceConfig};
//!
//! let trace = AttentionTrace::generate(&TraceConfig::small_demo());
//! let pade = PadeAccelerator::new(PadeConfig::standard());
//! let result = pade.run_trace(&trace);
//! // PADE prunes most keys yet keeps essentially all the softmax mass.
//! assert!(result.stats.sparsity() > 0.3);
//! assert!(result.fidelity > 0.95);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accelerator;
pub mod bitserial;
pub mod bui;
mod calendar;
pub mod config;
pub mod decode;
pub mod engine;
pub mod filter;
pub mod gsat;
pub mod ista;
pub mod multibit;
pub mod rars;
pub mod scoreboard;
pub mod vpu;
