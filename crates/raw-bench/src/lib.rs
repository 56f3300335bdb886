//! # raw-bench — the experiment harness
//!
//! One runner per table/figure of the paper's evaluation (see DESIGN.md's
//! per-experiment index). Each runner returns a serializable result the
//! `repro` binary prints in the paper's format and writes to
//! `results/<exp>.json`.

pub mod chaos;
pub mod experiments;
pub mod fabric;
pub mod fib;
pub mod report;
pub mod sched;
pub mod telemetry;

pub use chaos::*;
pub use experiments::*;
pub use fabric::*;
pub use fib::*;
pub use report::*;
pub use sched::*;
pub use telemetry::*;
