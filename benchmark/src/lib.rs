//! The repo benchmark: four router/fabric workloads driven through the
//! layer crates' public functions, host-time and simulated-time
//! end-to-end metrics, and per-layer metrics from a traced run. See
//! `README.md` for the tables and `../BENCHMARK.json` for the contract.

pub mod alloc;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
