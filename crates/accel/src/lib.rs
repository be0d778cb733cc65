//! Cycle-level performance and energy model of the MATCHA accelerator
//! (paper §4.3–§6) and of the paper's CPU/GPU/FPGA/ASIC baselines.
//!
//! The crate answers the evaluation's questions without the authors' RTL
//! and testbeds: each hardware quantity is a closed-form cost or a small
//! simulation calibrated to the paper's published numbers.
//!
//! * [`config`] — the Figure 7 microarchitecture as data.
//! * [`kernels`] — per-kernel cycle costs (transforms, TGSW scales, MACs).
//! * [`pipeline`] — an event-driven simulation of the Figure 6 two-stage
//!   bootstrapping pipeline, with HBM key streaming.
//! * [`area_power`] — the Table 2 power/area budget, parameterized by
//!   component counts.
//! * [`platforms`] — the baseline platform models and the MATCHA wrapper,
//!   producing the series of Figures 9–11.
//! * [`report`] — text renderers for those figures/tables.
//! * [`dse`] — design-space exploration: sweeps the structural parameters
//!   and keeps the Pareto-optimal designs.
//! * [`schedule`] — list scheduling of a gate dependency graph onto the
//!   bootstrapping pipelines.
//!
//! The register-file bank-conflict analysis behind §4.1's twiddle-read
//! count and Figure 7's bank sizing is a test-only module:
//! `cargo test -p matcha-accel banking`.
//!
//! # Examples
//!
//! ```
//! use matcha_accel::{pipeline, MatchaConfig, WorkloadParams};
//!
//! let r = pipeline::simulate_gate(&MatchaConfig::paper(), &WorkloadParams::MATCHA, 3);
//! assert!(r.latency_s < 1e-3); // sub-millisecond NAND gates
//! ```

#![warn(missing_docs)]

pub mod area_power;
#[cfg(test)]
mod banking;
pub mod config;
pub mod dse;
pub mod kernels;
pub mod pipeline;
pub mod platforms;
pub mod report;
pub mod schedule;

pub use config::MatchaConfig;
pub use config::WorkloadParams;
pub use platforms::evaluation_platforms;
pub use platforms::Platform;
