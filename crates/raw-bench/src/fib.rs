//! The FIB study: Internet-scale forwarding tables meet the million-flow
//! workload engine (`repro -- fib`, results/fib.json).
//!
//! Sweeps synthesized BGP-shaped tables (1K / 64K / 1M prefixes) against
//! flow-churn populations (10K / 1M flows). Each cell reports three
//! layers:
//!
//! 1. **Structure** — the table's shape against the published snapshot
//!    profile, DIR-24-8 memory footprint (allocator-asserted
//!    bytes-per-prefix), and level-2 block count.
//! 2. **Lookup memory behavior** — L1-hit vs L2-chase shares from real
//!    access traces, modeled cycles per lookup under the two-level
//!    [`raw_lookup::LookupMemModel`], and the miss-cost sensitivity
//!    sweep over L2 fetch costs.
//! 3. **Flows** — the whole flow population at descriptor level (sizes,
//!    per-next-hop load split, line-rate completion floor), plus a
//!    bounded window simulated end-to-end through the real router with
//!    the memory model armed: measured per-flow latency / FCT
//!    percentiles, every delivery audited against the functional
//!    reference (Patricia LPM, whatever engine the router runs), and the
//!    `lookup_stall` telemetry bucket closing the stall conservation
//!    invariant.
//!
//! Everything reported is deterministic — same seed, byte-identical
//! JSON. No wall-clock values are written.

use std::sync::Arc;

use serde::Serialize;

use raw_fib::{
    assign_addresses, sensitivity, synthesize, FibConfig, FibShape, FlowSlo, FlowSpec, FlowTracker,
    LookupBehavior, SloStats,
};
use raw_lookup::{synth_addresses, Engine, ForwardingTable, LookupMemModel};
use raw_net::Packet;
use raw_telemetry::{shared, with_sink, Recorder, SharedSink, TileState};
use raw_workloads::{flow_churn_descs, generate_n, Arrivals, Pattern, ScheduledPacket, Workload};
use raw_xbar::RouterConfig;

use crate::run::{run_fabric, run_router, Until};

use raw_fabric::{Executor, FabricConfig, SprayMode, Topology};

/// Base RNG seed of the whole study; every table/flow/address draw is
/// salted from it, so one constant pins the entire results file.
pub const FIB_SEED: u64 = 0x2003_0f1b;

const PACKET_BYTES: usize = 64;
const ALPHA_MILLI: u32 = 1300;
/// Mean flow inter-arrival per port. Sized against the router's real
/// 64B service rate (~1 packet per ~85 cycles per port, Figure 7-1) and
/// the FIB's Zipf next-hop reuse, which concentrates ~half the routes
/// on one hop: at 4 ports x 4.3 packets/flow x 48% on the hot output,
/// this spacing puts the hottest output near 0.7 load — busy enough for
/// a real queueing tail, below the oversubscription cliff where
/// latency would just measure run length.
const MEAN_IAT_CYCLES: u64 = 1_000;
const MAX_FLOW_PKTS: u32 = 4096;
/// L2 fetch costs swept by the sensitivity table (cycles).
pub const L2_COST_SWEEP: [u32; 4] = [10, 30, 60, 120];
/// Flows per ingress port actually simulated per cell; the rest of the
/// population is studied at descriptor level (the cap is reported, not
/// silent: see [`FibSimWindow::sim_flows`] vs [`FibCell::flows`]).
const SIM_FLOWS_PER_PORT: u32 = 2_500;

/// Descriptor-level statistics over the *whole* flow population.
#[derive(Clone, Debug, Serialize)]
pub struct FlowModel {
    pub flows: u64,
    pub packets: u64,
    /// Flow sizes in packets.
    pub size: SloStats,
    /// Packet load per oracle next hop (the FIB's Zipf reuse shows up
    /// here as output imbalance).
    pub per_hop_packets: Vec<u64>,
    /// Line-rate serialization floor on flow completion time:
    /// `(pkts - 1) * gap` — what FCT would be with zero queueing and
    /// zero pipeline latency.
    pub serialization_fct: SloStats,
}

/// One simulated window through the real router.
#[derive(Clone, Debug, Serialize)]
pub struct FibSimWindow {
    /// Flows simulated (≤ the cell's population; the cap is explicit).
    pub sim_flows: u64,
    pub sim_packets: u64,
    pub offered: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub cycles: u64,
    /// Telemetry: cycles in the `lookup_stall` bucket, summed over
    /// tiles (the modeled L2 chase made visible).
    pub lookup_stall_cycles: u64,
    pub busy_cycles: u64,
    /// Lookup Processor counters: lookups that chained to L2, and the
    /// stall cycles they were charged.
    pub lookups: u64,
    pub l2_lookups: u64,
    pub mem_stall_cycles: u64,
    pub slo: FlowSlo,
}

/// One (table size × flow count) cell of the study.
#[derive(Clone, Debug, Serialize)]
pub struct FibCell {
    pub prefixes: usize,
    pub flows: u64,
    pub seed: u64,
    pub shape: FibShape,
    pub dir_memory_bytes: usize,
    pub dir_l2_blocks: usize,
    pub dir_bytes_per_prefix: f64,
    /// Behavior under the default memory model.
    pub lookup: LookupBehavior,
    /// The same traces re-priced at each [`L2_COST_SWEEP`] fetch cost.
    pub sensitivity: Vec<LookupBehavior>,
    pub flow_model: FlowModel,
    pub sim: FibSimWindow,
}

/// The fabric smoke point: flow-churn traffic through the 16-port Clos,
/// audited by [`run_fabric`].
#[derive(Clone, Debug, Serialize)]
pub struct FibFabricPoint {
    pub topology: String,
    pub flows: u64,
    pub offered: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub cycles: u64,
}

/// The payload of `results/fib.json`.
#[derive(Clone, Debug, Serialize)]
pub struct FibReport {
    pub smoke: bool,
    pub packet_bytes: usize,
    pub alpha_milli: u32,
    pub l2_cost_sweep: Vec<u32>,
    pub cells: Vec<FibCell>,
    pub fabric: FibFabricPoint,
}

fn churn_workload(flows_per_port: u32, seed: u64) -> Workload {
    Workload {
        pattern: Pattern::FlowChurn {
            flows_per_port,
            alpha_milli: ALPHA_MILLI,
            mean_iat_cycles: MEAN_IAT_CYCLES,
            max_flow_pkts: MAX_FLOW_PKTS,
        },
        arrivals: Arrivals::Saturation,
        packet_bytes: PACKET_BYTES,
        packets_per_port: 0, // FlowChurn derives counts from the flows
        seed,
        ttl: 64,
    }
}

fn flow_model(specs: &[FlowSpec], nports: usize) -> FlowModel {
    let gap = (PACKET_BYTES / 4) as u64;
    let mut sizes: Vec<u64> = specs.iter().map(|s| s.desc.pkts as u64).collect();
    let mut ser: Vec<u64> = specs
        .iter()
        .map(|s| (s.desc.pkts as u64 - 1) * gap)
        .collect();
    let mut per_hop = vec![0u64; nports];
    for s in specs {
        per_hop[s.next_hop as usize] += s.desc.pkts as u64;
    }
    FlowModel {
        flows: specs.len() as u64,
        packets: sizes.iter().sum(),
        size: SloStats::of(&mut sizes),
        per_hop_packets: per_hop,
        serialization_fct: SloStats::of(&mut ser),
    }
}

/// Simulate the first [`SIM_FLOWS_PER_PORT`] flows per port through the
/// real 4-port router forwarding against the full FIB with the memory
/// model armed.
fn simulate_window(table: Arc<ForwardingTable>, specs: &[FlowSpec]) -> FibSimWindow {
    let window: Vec<FlowSpec> = specs
        .iter()
        .filter(|s| s.desc.flow < SIM_FLOWS_PER_PORT)
        .copied()
        .collect();
    let gap = (PACKET_BYTES / 4) as u64;

    let cfg = RouterConfig {
        engine: Engine::Dir24_8,
        lookup_mem: Some(LookupMemModel::default()),
        ..RouterConfig::for_packet_bytes(PACKET_BYTES)
    };
    let sink: SharedSink = shared(Recorder::new(16, raw_sim::NUM_STATIC_NETS));
    let mut sched = Vec::new();
    for s in &window {
        for k in 0..s.desc.pkts {
            let mut p = Packet::synthetic(
                s.desc.src,
                s.dst_addr,
                PACKET_BYTES,
                64,
                (s.desc.port as u32) << 24 | k,
            );
            p.header.id = (k & 0xffff) as u16;
            p.header.checksum = p.header.compute_checksum();
            sched.push(ScheduledPacket {
                port: s.desc.port,
                release: s.desc.start + k as u64 * gap,
                packet: p,
            });
        }
    }
    let offered_pkts = sched.len() as u64;
    let until = Until::Drained(60_000_000);
    let r = run_router(cfg, table, &sched, until, Some(sink.clone()));

    // Match deliveries back to flows.
    let mut tracker = FlowTracker::new(&window, PACKET_BYTES);
    for port in 0..raw_xbar::NPORTS {
        for (cycle, pkt) in &r.collected(port).packets {
            tracker.record(*cycle, pkt);
        }
    }

    let total_cycles = r.machine.cycle();
    let (lookup_stall_cycles, busy_cycles) = with_sink::<Recorder, _>(&sink, |rec| {
        let errs = raw_chaos::conservation_errors(&r, rec);
        assert!(errs.is_empty(), "fib window: {errs:?}");
        let sum_state = |s: TileState| {
            (0..rec.tiles())
                .map(|t| rec.tile_state_counts(t)[s.index()])
                .sum::<u64>()
        };
        (
            sum_state(TileState::LookupStall),
            sum_state(TileState::Busy),
        )
    });
    let (mut lookups, mut l2_lookups, mut mem_stall) = (0u64, 0u64, 0u64);
    for lk in &r.lk_stats {
        let s = lk.lock().unwrap();
        lookups += s.lookups;
        l2_lookups += s.l2_lookups;
        mem_stall += s.mem_stall_cycles;
    }

    FibSimWindow {
        sim_flows: window.len() as u64,
        sim_packets: offered_pkts,
        offered: r.offered(),
        delivered: r.delivered_count(),
        dropped: r.dropped_count(),
        cycles: total_cycles,
        lookup_stall_cycles,
        busy_cycles,
        lookups,
        l2_lookups,
        mem_stall_cycles: mem_stall,
        slo: tracker.slo(),
    }
}

/// Run one (prefixes × flows) cell.
pub fn fib_cell(prefixes: usize, flows: u64) -> FibCell {
    let seed = FIB_SEED ^ (prefixes as u64).wrapping_mul(0x9e37_79b9) ^ flows;
    let routes = synthesize(&FibConfig::new(prefixes, raw_xbar::NPORTS as u32, seed));
    let shape = FibShape::of(&routes);
    let table = Arc::new(ForwardingTable::build(&routes));

    // Lookup memory behavior over a hit-biased address sample.
    let addrs = synth_addresses(&routes, 100_000, 0.9, seed ^ 1);
    let lookup =
        raw_fib::behavior::evaluate(&table, Engine::Dir24_8, &addrs, LookupMemModel::default());
    let sens = sensitivity(&table, Engine::Dir24_8, &addrs, &L2_COST_SWEEP);

    // The flow population, bound to FIB addresses.
    let flows_per_port = (flows / raw_xbar::NPORTS as u64) as u32;
    let w = churn_workload(flows_per_port, seed ^ 2);
    let descs = flow_churn_descs(&w, raw_xbar::NPORTS);
    let specs = assign_addresses(&descs, &routes, &table, Engine::Dir24_8, 0.9, seed ^ 3);

    FibCell {
        prefixes,
        flows: specs.len() as u64,
        seed,
        shape,
        dir_memory_bytes: table.dir.memory_bytes(),
        dir_l2_blocks: table.dir.l2_blocks(),
        dir_bytes_per_prefix: table.dir.bytes_per_prefix(),
        lookup,
        sensitivity: sens,
        flow_model: flow_model(&specs, raw_xbar::NPORTS),
        sim: simulate_window(table, &specs),
    }
}

/// The fabric smoke point: a small flow-churn population sprayed
/// through the 16-port Clos.
fn fabric_point() -> FibFabricPoint {
    let topology = Topology::Clos16;
    let cfg = FabricConfig {
        topology,
        epoch_cycles: 512,
        spray: SprayMode::Hash,
        ..FabricConfig::default()
    };
    let w = Workload {
        pattern: Pattern::FlowChurn {
            flows_per_port: 64,
            alpha_milli: ALPHA_MILLI,
            mean_iat_cycles: 400,
            max_flow_pkts: 64,
        },
        arrivals: Arrivals::Saturation,
        packet_bytes: PACKET_BYTES,
        packets_per_port: 0,
        seed: FIB_SEED ^ 0xfab,
        ttl: 64,
    };
    let sched = generate_n(&w, topology.ext_ports());
    let flows = sched
        .iter()
        .map(|s| s.packet.header.src)
        .collect::<std::collections::HashSet<_>>()
        .len() as u64;
    let fab = run_fabric(cfg, &sched, Executor::Reference);
    FibFabricPoint {
        topology: topology.name().into(),
        flows,
        offered: fab.offered(),
        delivered: fab.delivered_count(),
        dropped: fab.dropped_count(),
        cycles: fab.cycle(),
    }
}

/// The full study (`smoke` restricts to the 64K-prefix / 10K-flow
/// cell CI exercises).
pub fn fib_study(smoke: bool) -> FibReport {
    let points: Vec<(usize, u64)> = if smoke {
        vec![(64_000, 10_000)]
    } else {
        let mut v = Vec::new();
        for &prefixes in &[1_000usize, 64_000, 1_000_000] {
            for &flows in &[10_000u64, 1_000_000] {
                v.push((prefixes, flows));
            }
        }
        v
    };
    let cells = points.iter().map(|&(p, f)| fib_cell(p, f)).collect();
    FibReport {
        smoke,
        packet_bytes: PACKET_BYTES,
        alpha_milli: ALPHA_MILLI,
        l2_cost_sweep: L2_COST_SWEEP.to_vec(),
        cells,
        fabric: fabric_point(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fib_cell_smoke_is_consistent_and_deterministic() {
        let a = fib_cell(2_000, 400);
        // The window covers the whole 400-flow population.
        assert_eq!(a.sim.sim_flows, 400);
        assert_eq!(a.sim.offered, a.sim.sim_packets);
        assert_eq!(a.sim.delivered + a.sim.dropped, a.sim.offered);
        // Every flow completes in a drained run with no drops.
        assert_eq!(a.sim.dropped, 0);
        assert_eq!(a.sim.slo.flows_completed, 400);
        assert_eq!(a.sim.slo.stray_packets, 0);
        assert!(a.sim.slo.latency.p50 > 0);
        assert!(a.sim.slo.fct.p999 >= a.sim.slo.fct.p50);
        // The memory model surfaced stall cycles through telemetry, and
        // the lookup programs agree with the sink.
        assert!(a.sim.lookups >= a.sim.sim_packets);
        if a.sim.l2_lookups > 0 {
            assert!(a.sim.lookup_stall_cycles > 0);
            assert_eq!(a.sim.lookup_stall_cycles, a.sim.mem_stall_cycles);
        }
        // Deterministic: the identical cell reproduces byte-identically.
        let b = fib_cell(2_000, 400);
        assert_eq!(
            serde_json::to_string_pretty(&a).unwrap(),
            serde_json::to_string_pretty(&b).unwrap()
        );
    }

    /// `run_fabric` audits the point, so every flow arrived in order at
    /// its own external port.
    #[test]
    fn fabric_point_delivers_flows_in_order() {
        let p = fabric_point();
        assert!(p.delivered > 0);
        assert_eq!((p.delivered, p.dropped), (p.offered, 0));
    }
}
