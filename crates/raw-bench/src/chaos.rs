//! E19: the `repro -- chaos` soak — the reference fault plan against
//! the fig7-1 workloads, with graceful-degradation accounting and a
//! determinism cross-check (every scenario runs twice and must
//! fingerprint identically; the zero-rate plan must match the unwrapped
//! router bit for bit).

use serde::Serialize;

use raw_chaos::{fingerprint, run_chaos, ChaosRunResult, FaultPlan};
use raw_telemetry::{shared, DropReason, Recorder, SharedSink};
use raw_workloads::{generate, Workload};
use raw_xbar::{port_table, RouterConfig};

use crate::experiments::packets_for;
use crate::run::{run_router, Until};

/// One soak scenario: identity, accounting, classified drops, and the
/// total-latency percentiles under fault load.
#[derive(Clone, Debug, Serialize)]
pub struct ChaosRun {
    pub name: String,
    pub bytes: usize,
    pub cycles: u64,
    pub offered: u64,
    pub delivered: u64,
    pub dropped: u64,
    /// `(reason, count)` rows for the classified drop buckets.
    pub drops: Vec<(String, u64)>,
    pub lookup_misses: u64,
    /// Total ingress-to-egress latency under faults, in cycles.
    pub latency_p50: u64,
    pub latency_p99: u64,
    /// Hex FNV-1a digest of the full delivered streams + drop counters.
    pub fingerprint: String,
}

/// The payload of `results/chaos.json`.
#[derive(Clone, Debug, Serialize)]
pub struct ChaosReport {
    pub plan: FaultPlan,
    pub runs: Vec<ChaosRun>,
    /// Zero-rate differential: the wrapped router matched the unwrapped
    /// one bit for bit.
    pub zero_plan_identical: bool,
}

fn to_run(name: &str, bytes: usize, res: &ChaosRunResult) -> ChaosRun {
    let total = res
        .summary
        .stages
        .iter()
        .find(|s| s.stage == "total")
        .expect("total stage present");
    ChaosRun {
        name: name.to_string(),
        bytes,
        cycles: res.cycles,
        offered: res.offered,
        delivered: res.delivered,
        dropped: res.dropped,
        drops: DropReason::ALL
            .iter()
            .map(|r| (r.name().to_string(), res.drops[r.index()]))
            .collect(),
        lookup_misses: res.lookup_misses,
        latency_p50: total.p50,
        latency_p99: total.p99,
        fingerprint: format!("{:016x}", res.fingerprint),
    }
}

/// Run one scenario twice under the reference plan; panic on any
/// conservation violation or determinism divergence (those are bugs,
/// not measurements).
fn soak_scenario(name: &str, w: &Workload, plan: &FaultPlan, max_cycles: u64) -> ChaosRun {
    let sched = generate(w);
    let run = || {
        run_chaos(
            RouterConfig::for_packet_bytes(w.packet_bytes),
            port_table(),
            plan,
            &sched,
            max_cycles,
        )
        .expect("valid plan")
    };
    let a = run();
    assert!(a.errors.is_empty(), "{name}: {:?}", a.errors);
    let b = run();
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "{name}: same seed, different outcome"
    );
    to_run(name, w.packet_bytes, &a)
}

/// The zero-rate differential: a chaos wrapper with an all-zero plan
/// must be invisible — identical delivered streams and counters versus
/// the unwrapped router on the same workload.
fn zero_plan_differential(cycles: u64) -> bool {
    let w = Workload::peak(64, packets_for(64, cycles).min(400));
    let sched = generate(&w);
    let cfg = RouterConfig::for_packet_bytes(64);
    let budget = drain_budget(&w, cycles, 8);
    let chaos = run_chaos(
        cfg.clone(),
        port_table(),
        &FaultPlan::zero(0xC4A0),
        &sched,
        budget,
    )
    .expect("zero plan is valid");
    assert!(chaos.errors.is_empty(), "{:?}", chaos.errors);
    let sink: SharedSink = shared(Recorder::new(16, raw_sim::NUM_STATIC_NETS));
    let until = Until::Drained(budget);
    let plain = run_router(cfg, port_table(), &sched, until, Some(sink));
    chaos.fingerprint == fingerprint(&plain)
}

/// The drain deadline of a run of `w`: `factor` times the longer of
/// `cycles` and the span its packets fill at one word a cycle per port.
/// A count shorter than that span still offers `packets_for`'s floor of
/// packets, so the deadline follows what is offered and every count
/// drains.
fn drain_budget(w: &Workload, cycles: u64, factor: u64) -> u64 {
    let span = (w.packets_per_port * (w.packet_bytes / 4)) as u64;
    cycles.max(span) * factor
}

/// The `repro -- chaos` payload: the reference plan (seed 0xC4A0, 1%
/// header corruption, one 500-cycle stall window per tile, 0.5% forced
/// lookup misses) against the fig7-1 peak workload at both packet-size
/// corners plus the average workload, each run twice for determinism.
pub fn chaos_report(cycles: u64) -> ChaosReport {
    let plan = FaultPlan::reference();
    let mut runs = Vec::new();
    for &bytes in &[64usize, 1024] {
        let w = Workload::peak(bytes, packets_for(bytes, cycles));
        let budget = drain_budget(&w, cycles, 8);
        runs.push(soak_scenario(
            &format!("fig7-1-peak-{bytes}B"),
            &w,
            &plan,
            budget,
        ));
    }
    // Uniform traffic runs at ~69% of peak throughput and its releases
    // are spread across the schedule, so it needs a much longer drain
    // deadline than the permutation scenarios.
    let w = Workload::average(64, packets_for(64, cycles), 42);
    let budget = drain_budget(&w, cycles, 24);
    runs.push(soak_scenario("fig7-1-avg-64B", &w, &plan, budget));
    ChaosReport {
        plan,
        runs,
        zero_plan_identical: zero_plan_differential(cycles.min(40_000)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_report_is_deterministic_and_conserves() {
        let a = chaos_report(12_000);
        let b = chaos_report(12_000);
        assert!(a.zero_plan_identical);
        assert_eq!(a.runs.len(), b.runs.len());
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.fingerprint, y.fingerprint, "{} diverged", x.name);
            assert_eq!(x.delivered + x.dropped, x.offered, "{}", x.name);
            assert!(
                x.dropped > 0,
                "{}: the 1% corruption rate should drop something",
                x.name
            );
        }
    }
}
