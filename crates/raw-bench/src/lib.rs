//! # raw-bench — the experiment harness
//!
//! One runner per table/figure of the paper's evaluation (see DESIGN.md's
//! per-experiment index). Each runner returns a serializable result the
//! `repro` binary prints in the paper's format and writes to
//! `results/<exp>.json`. Every router run goes through [`run::run_router`]
//! and every fabric run through [`run::run_fabric`], which audit it
//! against the functional reference before it is measured.

pub mod chaos;
pub mod experiments;
pub mod fabric;
pub mod fib;
pub mod report;
pub mod run;
pub mod sched;
pub mod telemetry;

pub use chaos::*;
pub use experiments::*;
pub use fabric::*;
pub use fib::*;
pub use report::*;
pub use run::*;
pub use sched::*;
pub use telemetry::*;
