//! The metric lists: names, units and directions, in the order they are
//! printed. `../BENCHMARK.json` repeats them (a test keeps the two in
//! step); the bounds live there.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Simulated-time or counted: repeats bit for bit for one seed, so
    /// every round of a run must report the same value.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the repo sees: host seconds and memory to get a run,
/// and the simulated router's throughput and latency.
pub const END_TO_END: &[MetricDef] = &[
    host("setup_s", "s", Lower),
    host("host_mcps", "Mcycles/s", Higher),
    host("host_kpps", "kpkt/s", Higher),
    host("peak_rss_mb", "MiB", Lower),
    exact("sim_gbps", "Gbit/s", Higher),
    exact("sim_mpps", "Mpkt/s", Higher),
    exact("sim_lat_p50_cycles", "cycles", Lower),
    exact("sim_lat_p99_cycles", "cycles", Lower),
];

/// One layer = one crate. A metric whose layer the workload never calls
/// reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    host("raw-workloads.generate_s", "s", Lower),
    exact("raw-workloads.packets", "count", Higher),
    host("raw-net.to_words_ns_per_pkt", "ns/pkt", Lower),
    host("raw-net.from_words_ns_per_pkt", "ns/pkt", Lower),
    host("raw-fib.synthesize_s", "s", Lower),
    host("raw-fib.assign_s", "s", Lower),
    host("raw-lookup.build_s", "s", Lower),
    exact("raw-lookup.table_mb", "MiB", Lower),
    host("raw-lookup.dir_ns_per_lookup", "ns/lookup", Lower),
    host("raw-lookup.patricia_ns_per_lookup", "ns/lookup", Lower),
    exact("raw-lookup.l2_frac", "ratio", Lower),
    exact("raw-lookup.mem_stall_cycles", "cycles", Lower),
    host("raw-verify.fabric_verify_s", "s", Lower),
    host("raw-compile.router_compile_s", "s", Lower),
    host("raw-compile.compiled_over_default", "ratio", Higher),
    host("raw-sim.new_s", "s", Lower),
    host("raw-sim.ns_per_tile_cycle", "ns/tile-cycle", Lower),
    host("raw-sim.percycle_over_default", "ratio", Lower),
    host("raw-sim.drip_mcps", "Mcycles/s", Higher),
    host("raw-sim.pipe_mcps", "Mcycles/s", Higher),
    exact("raw-sim.busy_frac", "ratio", Higher),
    exact("raw-sim.blocked_send_frac", "ratio", Lower),
    exact("raw-sim.blocked_recv_frac", "ratio", Lower),
    exact("raw-sim.idle_frac", "ratio", Lower),
    exact("raw-sim.switch_stall_cycles", "cycles", Lower),
    host("raw-xbar.new_s", "s", Lower),
    host("raw-xbar.configspace_s", "s", Lower),
    host("raw-xbar.idle_mcps", "Mcycles/s", Higher),
    host("raw-xbar.offer_ns_per_pkt", "ns/pkt", Lower),
    host("raw-xbar.run_s", "s", Lower),
    host("raw-xbar.slice_ms_p50", "ms", Lower),
    host("raw-xbar.slice_ms_p90", "ms", Lower),
    exact("raw-xbar.run_allocs_per_pkt", "allocs/pkt", Lower),
    exact("raw-xbar.run_alloc_bytes_per_pkt", "B/pkt", Lower),
    exact("raw-xbar.ingress_busy_frac", "ratio", Higher),
    exact("raw-xbar.lookup_busy_frac", "ratio", Higher),
    exact("raw-xbar.crossbar_busy_frac", "ratio", Higher),
    exact("raw-xbar.egress_busy_frac", "ratio", Higher),
    exact("raw-xbar.cycles_per_pkt", "cycles/pkt", Lower),
    host("raw-sched.token_ns_per_slot", "ns/slot", Lower),
    host("raw-sched.islip_ns_per_slot", "ns/slot", Lower),
    host("raw-sched.cq_ns_per_slot", "ns/slot", Lower),
    host("raw-fabric.try_new_s", "s", Lower),
    host("raw-fabric.mb_per_router", "MiB/router", Lower),
    host("raw-fabric.offer_s", "s", Lower),
    host("raw-fabric.run_s", "s", Lower),
    host("raw-fabric.us_per_epoch", "us/epoch", Lower),
    host("raw-fabric.epoch_ms_p50", "ms", Lower),
    host("raw-fabric.epoch_ms_p90", "ms", Lower),
    host("raw-fabric.shards", "count", Higher),
    host("raw-fabric.sharded_over_reference", "ratio", Higher),
    exact("raw-fabric.epochs", "count", Lower),
    exact("raw-fabric.backpressure_epochs", "count", Lower),
    exact("raw-fabric.link_max_occupancy", "count", Lower),
    exact("raw-fabric.lat_p50_cycles", "cycles", Lower),
    exact("raw-fabric.lat_p99_cycles", "cycles", Lower),
    host("raw-telemetry.recorder_overhead_frac", "ratio", Lower),
    exact("raw-telemetry.stage_ingress_p50_cycles", "cycles", Lower),
    exact("raw-telemetry.stage_lookup_p50_cycles", "cycles", Lower),
    exact("raw-telemetry.stage_xbar_wait_p50_cycles", "cycles", Lower),
    exact(
        "raw-telemetry.stage_egress_launch_p50_cycles",
        "cycles",
        Lower,
    ),
    exact("raw-telemetry.stage_serialize_p50_cycles", "cycles", Lower),
    exact("raw-telemetry.stage_total_p50_cycles", "cycles", Lower),
    exact("raw-telemetry.stage_total_p99_cycles", "cycles", Lower),
    exact("raw-telemetry.lookup_stall_frac", "ratio", Lower),
    exact("raw-telemetry.token_wait_frac", "ratio", Lower),
    host("bench.trace_overhead_frac", "ratio", Lower),
    host("bench.check_s", "s", Lower),
    host("bench.run_med_s", "s", Lower),
    host("bench.run_iqr_s", "s", Lower),
    host("bench.rounds", "count", Higher),
    exact("bench.drain_cycles", "cycles", Lower),
    exact("bench.failed_frac", "ratio", Lower),
    exact("bench.paper_gbps", "Gbit/s", Higher),
    exact("bench.paper_err_frac", "ratio", Lower),
];

/// Spans whose total time per round is a per-layer metric.
pub const SPAN_METRICS: &[(&str, &str)] = &[
    ("raw-workloads.generate", "raw-workloads.generate_s"),
    ("raw-fib.synthesize", "raw-fib.synthesize_s"),
    ("raw-fib.assign", "raw-fib.assign_s"),
    ("raw-lookup.build", "raw-lookup.build_s"),
    ("raw-verify.fabric_verify", "raw-verify.fabric_verify_s"),
    ("raw-xbar.new", "raw-xbar.new_s"),
    ("raw-xbar.run", "raw-xbar.run_s"),
    ("raw-fabric.try_new", "raw-fabric.try_new_s"),
    ("raw-fabric.offer", "raw-fabric.offer_s"),
    ("raw-fabric.epoch", "raw-fabric.run_s"),
    ("bench.check", "bench.check_s"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        for (_, metric) in SPAN_METRICS {
            assert!(PER_LAYER.iter().any(|m| m.name == *metric), "{metric}");
        }
    }
}
