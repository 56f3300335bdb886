//! E18: the instrumented Figure 7-1 runs — per-stage latency breakdowns,
//! per-output percentiles, per-tile stall attribution, and a Chrome
//! `trace_event` export, all from the `raw-telemetry` recorder threaded
//! through the whole router.

use serde::Serialize;

use raw_telemetry::{chrome_trace, shared, with_sink, Recorder, SharedSink, TelemetrySummary};
use raw_workloads::{generate, Workload};
use raw_xbar::{port_table, RouterConfig};

use crate::experiments::packets_for;
use crate::run::{run_router, Until};

/// One instrumented run: the workload identity, the usual throughput
/// metrics, and the full telemetry summary.
#[derive(Clone, Debug, Serialize)]
pub struct TelemetryRun {
    pub name: String,
    pub bytes: usize,
    pub cycles: u64,
    pub delivered: u64,
    pub gbps: f64,
    pub summary: TelemetrySummary,
}

/// The payload of `results/telemetry.json`.
#[derive(Clone, Debug, Serialize)]
pub struct TelemetryReport {
    pub runs: Vec<TelemetryRun>,
}

/// Packets from the Chrome trace export, bounded so the trace file stays
/// loadable in the viewer.
const TRACE_PACKETS: usize = 256;

/// Run one fig7-1-style workload with the recorder attached. Returns the
/// run summary and the Chrome trace of the first `TRACE_PACKETS`
/// packet lifecycles.
///
/// Panics if the stall-conservation invariant fails — that would be a
/// telemetry bug, not a noisy measurement.
pub fn telemetry_run(name: &str, w: &Workload, cycles: u64) -> (TelemetryRun, String) {
    let sink: SharedSink = shared(Recorder::new(16, raw_sim::NUM_STATIC_NETS));
    let r = run_router(
        RouterConfig::for_packet_bytes(w.packet_bytes),
        port_table(),
        &generate(w),
        Until::Cycles(cycles),
        Some(sink.clone()),
    );
    // Throughput over the post-warmup window, as in the fig7-1 sweeps
    // (scaled down when a smoke run shrinks the span).
    let warm = (cycles / 10).min(20_000);
    let gbps = r.throughput_gbps(warm, cycles);
    let total_cycles = r.machine.cycle();
    let delivered = r.delivered_count();
    let drops: [_; raw_xbar::NPORTS] = std::array::from_fn(|p| r.ingress_stats(p).drops);
    with_sink::<Recorder, _>(&sink, |rec| {
        let errs = raw_chaos::conservation_errors(&r, rec);
        assert!(errs.is_empty(), "{name}: {errs:?}");
        let run = TelemetryRun {
            name: name.to_string(),
            bytes: w.packet_bytes,
            cycles: total_cycles,
            delivered,
            gbps,
            summary: rec.summary(&drops),
        };
        let trace = chrome_trace(rec.lives(), TRACE_PACKETS);
        (run, trace)
    })
}

/// The `repro -- telemetry` payload: fig7-1 peak and average workloads at
/// the small- and large-packet corners, instrumented. Returns the report
/// and the Chrome trace of the peak 64-byte run.
pub fn telemetry_report(cycles: u64) -> (TelemetryReport, String) {
    let mut runs = Vec::new();
    let mut trace = String::new();
    for &bytes in &[64usize, 1024] {
        let n = packets_for(bytes, cycles);
        let (run, tr) = telemetry_run(
            &format!("fig7-1-peak-{bytes}B"),
            &Workload::peak(bytes, n),
            cycles,
        );
        runs.push(run);
        if bytes == 64 {
            trace = tr;
        }
        let (run, _) = telemetry_run(
            &format!("fig7-1-avg-{bytes}B"),
            &Workload::average(bytes, n, 42),
            cycles,
        );
        runs.push(run);
    }
    (TelemetryReport { runs }, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_run_produces_complete_breakdowns() {
        let (run, trace) = telemetry_run("test-peak-64B", &Workload::peak(64, 200), 30_000);
        assert!(run.delivered > 0, "packets must flow");
        assert_eq!(run.summary.unmatched_egress, 0);
        let completed = run.summary.packets_completed;
        assert!(completed > 0, "lifecycles must close");
        // Lifecycles close at last-word egress, delivery counts at the
        // device; at a fixed-cycle cut they differ only by in-flight tails.
        assert!(
            completed.abs_diff(run.delivered) <= raw_xbar::NPORTS as u64,
            "completed {completed} vs delivered {}",
            run.delivered
        );
        for s in &run.summary.stages {
            assert_eq!(
                s.count, completed,
                "stage {} must cover every completed packet",
                s.stage
            );
            assert!(s.p50 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max);
        }
        // The Chrome trace is valid JSON with a traceEvents array.
        let v: serde::Value = serde_json::from_str(&trace).expect("valid trace JSON");
        let serde::Value::Object(o) = v else {
            panic!("trace root must be an object")
        };
        assert!(o.iter().any(|(k, _)| k == "traceEvents"));
    }

    #[test]
    fn telemetry_run_is_reproducible() {
        let fingerprint = || -> String {
            let (run, trace) = telemetry_run("repro", &Workload::peak(256, 100), 20_000);
            format!(
                "{} {} {:.9} {}",
                run.delivered,
                run.cycles,
                run.gbps,
                trace.len()
            )
        };
        assert_eq!(fingerprint(), fingerprint());
    }
}
