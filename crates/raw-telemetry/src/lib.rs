//! # raw-telemetry — instrumentation for the Raw router reproduction
//!
//! A zero-overhead-when-disabled measurement layer threaded through
//! `raw-sim` (cycle engine) and `raw-xbar` (tile programs), answering the
//! question the paper's end-to-end throughput curves leave open: *where
//! does the time go?* Four pillars:
//!
//! * **Packet lifecycle tracing** — each packet is stamped at
//!   ingress-accept, lookup-issue/complete, crossbar-grant, and
//!   first/last-word-egress ([`Stage`]); the [`Recorder`] derives a
//!   per-stage cycle breakdown ([`StageSpan`]).
//! * **Latency histograms** — fixed-bucket log-linear [`Histogram`]s
//!   (HDR style, integer-only, allocation-free after setup) with
//!   p50/p90/p99/p999 extraction per output port and per stage.
//! * **Stall attribution** — the simulator's always-on cycle ledger
//!   classifies every tile cycle into a refined [`TileState`] (busy,
//!   idle, fifo-full, fifo-empty, cache-stall, token-wait, arb-wait,
//!   lookup-stall) and every stalled switch crossing into a
//!   [`SwitchStallCause`] (fifo-empty, fifo-full, device-backpressure),
//!   with the conservation invariant `sum(states) == cycles`; a sink is
//!   handed the totals once per run call.
//! * **Exporters** — a Chrome `trace_event` writer ([`chrome_trace`])
//!   for `chrome://tracing`/Perfetto and serializable summaries
//!   ([`TelemetrySummary`]) for `results/telemetry.json`.
//!
//! The simulator publishes into an `Option<`[`SharedSink`]`>`: the sink
//! is never told anything per cycle, so attached or not the hot path
//! allocates nothing and sleeping tiles and switches stay asleep.

pub mod chrome;
pub mod fabric;
pub mod histogram;
pub mod recorder;
pub mod report;
pub mod sink;

pub use chrome::chrome_trace;
pub use fabric::{LinkStats, StageLatency};
pub use histogram::Histogram;
pub use recorder::{PacketLife, Recorder, StageSpan};
pub use report::{
    OutputStats, PortDropStats, StageStats, SwitchStallStats, TelemetrySummary, TileStallStats,
};
pub use sink::{
    shared, with_sink, DropReason, SharedSink, Stage, SwitchStallCause, TelemetrySink, TileState,
};
