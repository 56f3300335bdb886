//! Experiment runners, one per table/figure (DESIGN.md index E1–E12).

use std::fmt::Write as _;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use raw_baselines::{
    internet_mix, saturation_throughput, BackplaneSim, ClickRouter, CrossbarSim, FabricConfig,
    Granularity, Queueing,
};
use raw_lookup::{ForwardingTable, RouteEntry};
use raw_sim::{Activity, RawMachine};
use raw_workloads::{generate, Pattern, ScheduledPacket, Workload};
use raw_xbar::reference::{port_routes, port_table};
use raw_xbar::{config, RouterConfig};

use crate::run::{assert_audit, run_router, Until};

/// The packet sizes of Figure 7-1.
pub const PAPER_SIZES: [usize; 5] = [64, 128, 256, 512, 1024];

/// The paper's reported numbers, for side-by-side printing.
pub const PAPER_PEAK_GBPS: [f64; 5] = [7.3, 14.4, 20.1, 24.7, 26.9];
pub const PAPER_AVG_GBPS: [f64; 5] = [5.0, 9.9, 13.8, 16.9, 18.6];
pub const PAPER_CLICK_GBPS: f64 = 0.23;

/// One measured point of a Figure 7-1 curve.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SizePoint {
    pub bytes: usize,
    pub gbps: f64,
    pub mpps: f64,
    pub paper_gbps: f64,
}

/// Run `w` saturated for `WARM + WINDOW` cycles on `cfg`.
fn saturated(cfg: RouterConfig, w: &Workload) -> raw_xbar::RawRouter {
    let until = Until::Cycles(WARM + WINDOW);
    run_router(cfg, port_table(), &generate(w), until, None)
}

/// `(Gbps, Mpps)` of `w` over the measurement window.
fn run_router_throughput(w: &Workload) -> (f64, f64) {
    let r = saturated(RouterConfig::for_packet_bytes(w.packet_bytes), w);
    let (from, to) = (WARM, WARM + WINDOW);
    (r.throughput_gbps(from, to), r.pps(from, to) / 1e6)
}

/// How many packets per port saturate a measurement window.
pub(crate) fn packets_for(bytes: usize, cycles: u64) -> usize {
    ((cycles as usize) / (bytes / 4)).clamp(64, 8000)
}

const WARM: u64 = 20_000;
const WINDOW: u64 = 200_000;

/// Run `f` over every item on its own thread, preserving item order in
/// the results. Each simulator instance is deterministic and
/// self-contained, so a fanned-out sweep returns exactly what the
/// sequential loop would — only the wall-clock changes.
fn parallel_points<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.iter().map(|item| scope.spawn(|| f(item))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread panicked"))
            .collect()
    })
}

/// Run one simulation per packet size on its own thread.
fn parallel_sweep(mk: impl Fn(usize) -> Workload + Sync) -> Vec<SizePoint> {
    parallel_points(&PAPER_SIZES, |&bytes| {
        let w = mk(bytes);
        let (gbps, mpps) = run_router_throughput(&w);
        SizePoint {
            bytes,
            gbps,
            mpps,
            paper_gbps: 0.0, // filled in by the caller
        }
    })
}

/// E1 / Figure 7-1 (top): peak throughput under conflict-free
/// permutation traffic at saturation.
pub fn peak_sweep() -> Vec<SizePoint> {
    let mut pts = parallel_sweep(|bytes| Workload::peak(bytes, packets_for(bytes, WARM + WINDOW)));
    for (p, paper) in pts.iter_mut().zip(PAPER_PEAK_GBPS) {
        p.paper_gbps = paper;
    }
    pts
}

/// E2 / Figure 7-1 (bottom): average throughput under uniform-random
/// destinations ("complete fairness of the traffic").
pub fn avg_sweep() -> Vec<SizePoint> {
    let mut pts =
        parallel_sweep(|bytes| Workload::average(bytes, packets_for(bytes, WARM + WINDOW), 42));
    for (p, paper) in pts.iter_mut().zip(PAPER_AVG_GBPS) {
        p.paper_gbps = paper;
    }
    pts
}

/// The Click baseline bar of Figure 7-1.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClickPoint {
    pub bytes: usize,
    pub gbps: f64,
    pub kpps: f64,
}

pub fn click_baseline() -> Vec<ClickPoint> {
    let c = ClickRouter::standard();
    PAPER_SIZES
        .iter()
        .map(|&bytes| ClickPoint {
            bytes,
            gbps: c.saturation_gbps(bytes),
            kpps: c.max_lossfree_pps(bytes) / 1e3,
        })
        .collect()
}

/// E3 / Figure 7-3: per-tile utilization over an 800-cycle window at
/// saturation. Returns `(ascii_plot, csv)`.
pub fn fig7_3(bytes: usize) -> (String, String) {
    let cfg = RouterConfig::for_packet_bytes(bytes);
    let sched = generate(&Workload::peak(
        bytes,
        4000.min(600_000 / cfg.quantum_words),
    ));
    // Warm into steady state, then record 800 cycles as the paper does.
    let mut r = run_router(cfg, port_table(), &sched, Until::Cycles(20_000), None);
    let start = r.machine.cycle();
    let samples = activity_window(&mut r.machine, 800);
    r.run(16);
    assert_audit(&r, &sched);
    (render_ascii(&samples, 8), to_csv(start, &samples))
}

/// Each tile's [`Activity`] on each of the next `len` cycles,
/// `[tile][cycle]`, read off the machine's cycle ledger: every run call
/// ends with every tile credited up to the clock, so one cycle raises
/// exactly one of each tile's counts.
fn activity_window(m: &mut RawMachine, len: usize) -> Vec<Vec<Activity>> {
    let counts = |m: &RawMachine| {
        m.dim()
            .iter()
            .map(|t| m.stats(t).counts)
            .collect::<Vec<_>>()
    };
    let mut before = counts(m);
    let mut samples = vec![Vec::with_capacity(len); before.len()];
    for _ in 0..len {
        m.run(1);
        let after = counts(m);
        for ((row, old), new) in samples.iter_mut().zip(&before).zip(&after) {
            let rose = Activity::ALL
                .into_iter()
                .find(|a| new[a.index()] > old[a.index()]);
            row.push(rose.expect("every cycle is counted once per tile"));
        }
        before = after;
    }
    samples
}

/// CSV rows `tile,cycle,state` for external plotting — the stable
/// `fig7_3_*.csv` format; `samples[tile][i]` is cycle `start + i`.
fn to_csv(start: u64, samples: &[Vec<Activity>]) -> String {
    let mut out = String::from("tile,cycle,state\n");
    for (t, row) in samples.iter().enumerate() {
        for (i, a) in row.iter().enumerate() {
            let name = match a {
                Activity::Idle => "idle",
                Activity::Busy => "busy",
                Activity::BlockedSend => "blocked_send",
                Activity::BlockedRecv => "blocked_recv",
                Activity::CacheStall => "cache_stall",
            };
            let _ = writeln!(out, "{t},{},{name}", start + i as u64);
        }
    }
    out
}

/// Render in the style of Figure 7-3: one row per tile, buckets of
/// `bucket` cycles; `#` mostly busy, `.` mostly blocked (gray in the
/// paper), ` ` mostly idle — ties favor busy over blocked over idle.
fn render_ascii(samples: &[Vec<Activity>], bucket: usize) -> String {
    let mut out = String::new();
    for (t, row) in samples.iter().enumerate() {
        let _ = write!(out, "{t:>2} |");
        for chunk in row.chunks(bucket.max(1)) {
            let busy = chunk.iter().filter(|&&a| a == Activity::Busy).count();
            let blocked = chunk.iter().filter(|a| a.is_blocked()).count();
            let idle = chunk.len() - busy - blocked;
            out.push(if busy >= blocked && busy >= idle {
                '#'
            } else if blocked >= idle {
                '.'
            } else {
                ' '
            });
        }
        out.push('\n');
    }
    out
}

/// E4 / §6.1–6.2 + Table 6.1: configuration-space minimization.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConfigSpaceStats {
    pub global_space: usize,
    pub switch_code_configs: usize,
    pub with_grant_flag: usize,
    pub clients_only: usize,
    pub reduction_factor: f64,
    pub paper_minimized: usize,
    pub paper_reduction: f64,
    /// Generated switch-program size at the evaluation quantum, and the
    /// IMEM bound it must fit.
    pub program_instrs_q64: usize,
    pub unminimized_instrs_q64: usize,
    pub switch_imem: usize,
}

pub fn table6_1() -> ConfigSpaceStats {
    use raw_xbar::codegen::{switch_code_key, unminimized_instr_count};
    let image = raw_xbar::RouterImage::of(64, false, false).expect("quantum 64 builds");
    let cs = &image.cs;
    let switch_code: std::collections::BTreeSet<_> =
        cs.configs.iter().map(switch_code_key).collect();
    let clients: std::collections::BTreeSet<_> =
        cs.configs.iter().map(|c| (c.out, c.cw, c.ccw)).collect();
    let prog = &image.ports[0].crossbar;
    ConfigSpaceStats {
        global_space: config::GLOBAL_SPACE,
        switch_code_configs: switch_code.len(),
        with_grant_flag: cs.configs.len(),
        clients_only: clients.len(),
        reduction_factor: config::GLOBAL_SPACE as f64 / switch_code.len() as f64,
        paper_minimized: 32,
        paper_reduction: 78.0,
        program_instrs_q64: prog.program.len(),
        unminimized_instrs_q64: unminimized_instr_count(64),
        switch_imem: raw_sim::SWITCH_IMEM_INSTRS,
    }
}

/// E5 / Figure 3-2: the 5-cycle tile-to-tile send, measured in assembly
/// on the simulator.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig32 {
    pub total_cycles: u64,
    pub send_to_use: u64,
    pub paper_total: u64,
    pub paper_send_to_use: u64,
}

pub fn fig3_2() -> Fig32 {
    use raw_isa::{assemble_switch, IsaCore, Reg};
    use raw_sim::{RawConfig, RawMachine, TileId, NET0};
    let mut m = RawMachine::new(RawConfig::default());
    let mut sender = IsaCore::from_asm("or $csto, $zero, $a1\nhalt").unwrap();
    sender.set_reg(Reg(5), 0xBEEF);
    m.set_program(TileId(0), Box::new(sender));
    m.set_switch_program(
        TileId(0),
        NET0,
        assemble_switch("route $csto->$cSo").unwrap(),
    );
    let mut recv = IsaCore::from_asm("and $a1, $a1, $csti\nhalt").unwrap();
    recv.set_reg(Reg(5), 0xFFFF_FFFF);
    m.set_program(TileId(4), Box::new(recv));
    m.set_switch_program(
        TileId(4),
        NET0,
        assemble_switch("route $cNi->$csti").unwrap(),
    );
    m.run(30);
    let first_retire = |t| {
        m.program_ref::<IsaCore>(TileId(t))
            .unwrap()
            .watch
            .retire_cycles[0]
    };
    let (or_cycle, and_cycle) = (first_retire(0), first_retire(4));
    Fig32 {
        total_cycles: and_cycle - or_cycle + 1,
        send_to_use: and_cycle - or_cycle - 1,
        paper_total: 5,
        paper_send_to_use: 3,
    }
}

/// E7 / §2.2.2: HOL blocking and iSLIP on the conventional fabric.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HolRow {
    pub load: f64,
    pub fifo_delivered: f64,
    pub voq_delivered: f64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Ch2Claims {
    pub rows: Vec<HolRow>,
    pub fifo_saturation: f64,
    pub voq_saturation: f64,
    pub paper_fifo: f64,
    pub paper_voq: f64,
    pub cells_throughput: f64,
    pub packets_throughput: f64,
    pub paper_cells: f64,
    pub paper_packets: f64,
}

pub fn ch2_claims() -> Ch2Claims {
    let ports = 16;
    let slots = 30_000;
    let rows = [0.2, 0.4, 0.5, 0.55, 0.6, 0.7, 0.8, 0.9, 1.0]
        .iter()
        .map(|&load| {
            let mut fifo = CrossbarSim::new(FabricConfig {
                ports,
                queueing: Queueing::Fifo,
                islip_iters: 1,
                seed: 7,
                ..FabricConfig::default()
            });
            fifo.run_uniform(load, slots);
            let mut voq = CrossbarSim::new(FabricConfig {
                ports,
                queueing: Queueing::Voq,
                islip_iters: 4,
                seed: 7,
                ..FabricConfig::default()
            });
            voq.run_uniform(load, slots);
            HolRow {
                load,
                fifo_delivered: fifo.report.throughput(ports),
                voq_delivered: voq.report.throughput(ports),
            }
        })
        .collect();
    Ch2Claims {
        rows,
        fifo_saturation: saturation_throughput(Queueing::Fifo, ports, 1, slots, 3),
        voq_saturation: saturation_throughput(Queueing::Voq, ports, 4, slots, 3),
        paper_fifo: 0.586,
        paper_voq: 1.0,
        cells_throughput: BackplaneSim::new(8, Granularity::Cells, internet_mix(), 2).run(slots),
        packets_throughput: BackplaneSim::new(8, Granularity::Packets, internet_mix(), 2)
            .run(slots),
        paper_cells: 1.0,
        paper_packets: 0.6,
    }
}

/// E8 / §5.4 + §8.7: fairness under an all-to-one hotspot, with and
/// without weighted tokens.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FairnessResult {
    pub weights: [u32; 4],
    /// Packets delivered per source under saturation hotspot traffic.
    pub per_source: [u64; 4],
    pub jain_index: f64,
}

/// Jain's fairness index over per-source counts: 1.0 when every source
/// got identical service, 1/N when one monopolized the switch.
pub(crate) fn jain(counts: &[u64]) -> f64 {
    let n = counts.len() as f64;
    let sum: f64 = counts.iter().map(|&c| c as f64).sum();
    let sumsq: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
    if sumsq == 0.0 {
        return 1.0;
    }
    sum * sum / (n * sumsq)
}

pub fn fairness(weights: [u32; 4]) -> FairnessResult {
    let bytes = 256usize;
    let cfg = RouterConfig {
        weights,
        ..RouterConfig::for_packet_bytes(bytes)
    };
    let w = Workload {
        pattern: Pattern::Hotspot { dst: 0 },
        ..Workload::peak(bytes, 2000)
    };
    let until = Until::Cycles(300_000);
    let r = run_router(cfg, port_table(), &generate(&w), until, None);
    let mut per_source = [0u64; 4];
    for (_, p) in &r.collected(0).packets {
        let src = (p.header.src & 0x3) as usize;
        per_source[src] += 1;
    }
    FairnessResult {
        weights,
        per_source,
        jain_index: jain(&per_source),
    }
}

/// E9 / §5.3: sufficiency of a single static network — measured ring-link
/// and output-link word rates at peak.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RingUtilization {
    /// Words per cycle delivered per output port (the binding resource).
    pub out_words_per_cycle: f64,
    /// Upper bound on words per cycle on the busiest ring link
    /// (permutation traffic: each link carries one flow).
    pub ring_words_per_cycle: f64,
    /// Ring capacity in the same units (1.0 per network).
    pub ring_capacity: f64,
}

pub fn ring_utilization() -> RingUtilization {
    let bytes = 1024usize;
    let w = Workload::peak(bytes, 2000);
    let (gbps, _) = run_router_throughput(&w);
    // Each delivered bit crossed exactly one out link; permutation flows
    // traverse ring links at the same word rate as their output. The
    // aggregate rate spreads across the four ports.
    let words_per_cycle_port = gbps * 1e9 / 32.0 / (raw_sim::CLOCK_MHZ as f64 * 1e6) / 4.0;
    RingUtilization {
        out_words_per_cycle: words_per_cycle_port,
        ring_words_per_cycle: words_per_cycle_port,
        ring_capacity: 1.0,
    }
}

/// E10 / §5.5: randomized deadlock sweep — every random workload must
/// drain completely.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeadlockSweep {
    pub trials: u32,
    pub drained: u32,
    pub packets_total: u64,
}

pub fn deadlock_sweep(trials: u32) -> DeadlockSweep {
    let ts: Vec<u32> = (0..trials).collect();
    let per_trial = parallel_points(&ts, |&t| {
        let bytes = [64usize, 128, 256, 512][t as usize % 4];
        let pattern = match t % 3 {
            0 => Pattern::Uniform,
            1 => Pattern::Hotspot { dst: (t % 4) as u8 },
            _ => Pattern::Bursty { burst: 4 },
        };
        let w = Workload {
            pattern,
            seed: 1000 + t as u64,
            ..Workload::average(bytes, 60, 1000 + t as u64)
        };
        let (cfg, sched) = (RouterConfig::for_packet_bytes(bytes), generate(&w));
        // A wedge or a corrupt delivery fails the run; what returns drained.
        run_router(cfg, port_table(), &sched, Until::Drained(3_000_000), None);
        sched.len() as u64
    });
    DeadlockSweep {
        trials,
        drained: per_trial.len() as u32,
        packets_total: per_trial.iter().sum(),
    }
}

/// E11 / §8.6: multicast — fabric fanout versus input-side replication,
/// measured end to end on the router's data path.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MulticastResult {
    /// Completion cycle of the last copy when N multicast packets reach
    /// all of ports 1..3 through the fabric's switch fanout (one stream
    /// per packet).
    pub cycles_with_fanout: u64,
    /// The same when the source must send three unicast copies per packet.
    pub cycles_with_replication: u64,
    /// Fanout copies delivered (3 x N in both runs).
    pub copies: u64,
    /// The multicast configuration space and its minimized size.
    pub mcast_global_space: usize,
    pub mcast_minimized: usize,
}

/// Completion cycle of the last packet any output collected.
fn last_completion(r: &raw_xbar::RawRouter) -> u64 {
    (0..raw_xbar::NPORTS)
        .filter_map(|p| r.collected(p).packets.last())
        .map(|(cycle, _)| *cycle)
        .max()
        .expect("something was delivered")
}

pub fn multicast_demo() -> MulticastResult {
    use raw_lookup::encode_multicast;
    let n = 24u32;
    let bytes = 256usize;
    let run = |fanout: bool| -> (u64, u64, usize) {
        let mut routes = port_routes();
        routes.push(RouteEntry::new(0xe000_0000, 4, encode_multicast(0b1110)));
        let cfg = RouterConfig::for_packet_bytes(bytes);
        let mut sched = Vec::new();
        let mut offer = |dst: u32, seed: u32| {
            sched.push(ScheduledPacket {
                port: 0,
                release: 0,
                packet: raw_net::Packet::synthetic(0x0a0a_0000, dst, bytes, 64, seed),
            })
        };
        for k in 0..n {
            if fanout {
                offer(0xe000_0005, k);
            } else {
                (1..4).for_each(|dst| offer(0x0a00_0001 | (dst << 16), k * 4 + dst));
            }
        }
        let table = Arc::new(ForwardingTable::build(&routes));
        let r = run_router(cfg, table, &sched, Until::Drained(6_000_000), None);
        let minimized = r.image.cs.minimized_len();
        (last_completion(&r), r.delivered_count(), minimized)
    };
    let (cyc_fan, copies, mcast_minimized) = run(true);
    let (cyc_rep, _, _) = run(false);
    MulticastResult {
        cycles_with_fanout: cyc_fan,
        cycles_with_replication: cyc_rep,
        copies,
        mcast_global_space: config::GLOBAL_SPACE_MCAST,
        mcast_minimized,
    }
}

/// E12 / §8.5: ring versus mesh scaling.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScalingRow {
    pub ports: usize,
    pub ring_throughput: f64,
    pub mesh_throughput: f64,
}

pub fn scaling_study() -> Vec<ScalingRow> {
    // One measurement path for every consumer: the same ScalingCurve
    // the fabric experiment uses for its ring-vs-Clos comparison.
    let curve = raw_xbar::ScalingCurve::measure(&[4, 8, 16, 32], 30_000, 5);
    curve
        .points
        .iter()
        .map(|p| ScalingRow {
            ports: p.ports,
            ring_throughput: p.ring_throughput,
            mesh_throughput: p.mesh_throughput,
        })
        .collect()
}

/// §6.5: the Crossbar Processors as generated Raw assembly on the
/// cycle-accurate interpreter, versus the native state machines.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AsmXbarResult {
    /// 512-byte peak (quantum 128 — the destination-mask routine set no
    /// longer fits switch IMEM at quantum 256, a real instance of the
    /// §6.2 capacity argument).
    pub native_gbps_512: f64,
    pub asm_gbps_512: f64,
    pub asm_program_instrs: usize,
}

pub fn asm_crossbar_study() -> AsmXbarResult {
    let cfg = RouterConfig::for_packet_bytes(512);
    let run = |asm_crossbar: bool| -> f64 {
        let cfg = RouterConfig {
            asm_crossbar,
            ..cfg.clone()
        };
        saturated(cfg, &Workload::peak(512, 2500)).throughput_gbps(WARM, WARM + WINDOW)
    };
    let image = raw_xbar::RouterImage::of(cfg.quantum_words, false, true).expect("builds");
    let src = raw_xbar::asm_xbar::gen_crossbar_asm_source(0, image.ports[0].crossbar.hdr_pc);
    let instrs = raw_isa::assemble(&src).expect("assembles").len();
    AsmXbarResult {
        native_gbps_512: run(false),
        asm_gbps_512: run(true),
        asm_program_instrs: instrs,
    }
}

/// E17 / §4.4 vs Chapter 2: ingress queueing — the router's FIFO design
/// against the virtual-output-queueing extension, under the classic HOL
/// scenario (a hotspot burst with a victim packet to an idle output
/// queued behind it on every port).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VoqResult {
    /// Completion cycle of the last HOL-victim packet, per discipline.
    pub fifo_victim_cycle: u64,
    pub voq_victim_cycle: u64,
    /// Completion of the entire workload, per discipline.
    pub fifo_total_cycle: u64,
    pub voq_total_cycle: u64,
}

pub fn voq_study() -> VoqResult {
    use raw_xbar::IngressQueueing;
    let run = |queueing: IngressQueueing| -> (u64, u64) {
        let cfg = RouterConfig {
            queueing,
            ..RouterConfig::for_packet_bytes(64)
        };
        let mut sched = Vec::new();
        for src in 0..4u32 {
            // Hotspot: everyone floods port 0; then the victim.
            let hot = (0..20u32).map(|k| (0x0a00_0001, k));
            let victim = (0x0a00_0001 | (((src + 1) % 4) << 16), 99);
            for (dst, seed) in hot.chain([victim]) {
                sched.push(ScheduledPacket {
                    port: src as usize,
                    release: 0,
                    packet: raw_net::Packet::synthetic(0x0a0a_0000 + src, dst, 64, 64, seed),
                });
            }
        }
        let r = run_router(cfg, port_table(), &sched, Until::Drained(6_000_000), None);
        let victims = (0..4)
            .flat_map(|p| &r.collected(p).packets)
            .filter(|(_, p)| ((p.header.dst >> 16) & 0x3) != 0)
            .map(|(c, _)| *c)
            .max()
            .expect("victims delivered");
        (victims, last_completion(&r))
    };
    let (fv, ft) = run(IngressQueueing::Fifo);
    let (vv, vt) = run(IngressQueueing::Voq);
    VoqResult {
        fifo_victim_cycle: fv,
        voq_victim_cycle: vv,
        fifo_total_cycle: ft,
        voq_total_cycle: vt,
    }
}

/// E16: packet latency versus offered load (the §2.2.1 discussion —
/// input-queued switches trade predictable latency for throughput).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LatencyRow {
    pub load_pct: u32,
    pub mean_cycles: f64,
    pub p95_cycles: u64,
    pub delivered: u64,
}

pub fn latency_sweep() -> Vec<LatencyRow> {
    let bytes = 256usize;
    let quantum = bytes / 4;
    // A packet takes ~(quantum + overhead) cycles of port time; scale the
    // Bernoulli slot so `p` maps to the offered fraction of capacity.
    let service = (quantum + 50) as u64;
    parallel_points(&[10u32, 30, 50, 70, 90], |&load_pct| {
        let w = Workload {
            arrivals: raw_workloads::Arrivals::Bernoulli {
                slot_cycles: service,
                p_mille: load_pct * 10,
            },
            ..Workload::average(bytes, 400, 9)
        };
        let sched = generate(&w);
        // Release time per (src, id) for latency accounting.
        let release: std::collections::BTreeMap<_, _> = sched
            .iter()
            .map(|sp| ((sp.port, sp.packet.header.id), sp.release))
            .collect();
        let cfg = RouterConfig::for_packet_bytes(bytes);
        let r = run_router(cfg, port_table(), &sched, Until::Drained(40_000_000), None);
        let mut lats: Vec<u64> = Vec::new();
        for port in 0..4 {
            for (cycle, p) in &r.collected(port).packets {
                let src = (p.header.src & 0x3) as usize;
                if let Some(rel) = release.get(&(src, p.header.id)) {
                    lats.push(cycle.saturating_sub(*rel));
                }
            }
        }
        lats.sort_unstable();
        let delivered = lats.len() as u64;
        let mean = lats.iter().sum::<u64>() as f64 / delivered.max(1) as f64;
        let p95 = lats.get(lats.len() * 95 / 100).copied().unwrap_or(0);
        LatencyRow {
            load_pct,
            mean_cycles: mean,
            p95_cycles: p95,
            delivered,
        }
    })
}

/// Quantum ablation: throughput of 1,024-byte packets as the quantum
/// shrinks and store-and-forward reassembly takes over (the §4.2
/// fragmentation path).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QuantumRow {
    pub quantum_words: usize,
    pub cut_through: bool,
    pub gbps: f64,
}

pub fn quantum_ablation() -> Vec<QuantumRow> {
    let bytes = 1024usize;
    [256usize, 128, 64, 32]
        .iter()
        .map(|&q| {
            let cut = q >= bytes / 4;
            let cfg = RouterConfig {
                quantum_words: q,
                cut_through: cut,
                ..RouterConfig::default()
            };
            let r = saturated(cfg, &Workload::peak(bytes, 1500));
            QuantumRow {
                quantum_words: q,
                cut_through: cut,
                gbps: r.throughput_gbps(WARM, WARM + WINDOW),
            }
        })
        .collect()
}

/// Lookup-engine ablation: Patricia trie versus the DIR-24-8 table on
/// the same traffic (§8.2's direction).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LookupRow {
    pub engine: String,
    pub gbps_64b: f64,
    pub mean_lookup_cycles: f64,
}

pub fn lookup_ablation() -> Vec<LookupRow> {
    [raw_lookup::Engine::Patricia, raw_lookup::Engine::Dir24_8]
        .iter()
        .map(|&engine| {
            let cfg = RouterConfig {
                engine,
                ..RouterConfig::for_packet_bytes(64)
            };
            let r = saturated(cfg, &Workload::peak(64, 6000));
            let lk = r.lk_stats[0].lock().unwrap();
            LookupRow {
                engine: format!("{engine:?}"),
                gbps_64b: r.throughput_gbps(WARM, WARM + WINDOW),
                mean_lookup_cycles: lk.total_cost_cycles as f64 / lk.lookups.max(1) as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_2_reproduces_exactly() {
        let f = fig3_2();
        assert_eq!(f.total_cycles, f.paper_total);
        assert_eq!(f.send_to_use, f.paper_send_to_use);
    }

    #[test]
    fn table6_1_reproduces_the_minimization() {
        let t = table6_1();
        assert_eq!(t.global_space, 2500);
        assert!(t.switch_code_configs <= 40);
        assert!(t.reduction_factor > 60.0);
        assert!(t.program_instrs_q64 <= t.switch_imem);
        assert!(t.unminimized_instrs_q64 > t.switch_imem);
    }

    #[test]
    fn multicast_fanout_saves_cycles() {
        let m = multicast_demo();
        assert!(
            m.cycles_with_fanout * 2 < m.cycles_with_replication,
            "fanout {} vs replication {}",
            m.cycles_with_fanout,
            m.cycles_with_replication
        );
        assert_eq!(m.copies, 72);
    }

    /// Two tiles over four cycles from cycle 10: tile 0 busy, busy,
    /// blocked on send, idle; tile 1 idle throughout.
    fn sample_window() -> Vec<Vec<Activity>> {
        use Activity::*;
        vec![vec![Busy, Busy, BlockedSend, Idle], vec![Idle; 4]]
    }

    #[test]
    fn csv_format_is_stable() {
        let csv = to_csv(10, &sample_window());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "tile,cycle,state");
        assert_eq!(lines[1], "0,10,busy");
        assert_eq!(lines[3], "0,12,blocked_send");
        assert_eq!(lines[5], "1,10,idle");
    }

    #[test]
    fn ascii_majority_rule() {
        let s = render_ascii(&sample_window(), 2);
        let lines: Vec<&str> = s.lines().collect();
        // Tile 0: [busy, busy] -> '#', [blocked, idle] -> '.' (ties favor
        // busy over blocked over idle); tile 1 is idle throughout.
        assert_eq!(lines, [" 0 |#.", " 1 |  "]);
    }

    /// A forced stall on one tile reads as cache-stall samples on exactly
    /// its cycles, and idle everywhere else, on every tile's full row.
    #[test]
    fn activity_window_reads_one_cycle_per_tile() {
        use raw_sim::{RawConfig, TileId};
        let mut m = RawMachine::new(RawConfig::default());
        m.run(5);
        m.schedule_stall(TileId(2), 8, 4);
        let samples = activity_window(&mut m, 12);
        assert_eq!(samples.len(), m.dim().tiles());
        for (t, row) in samples.iter().enumerate() {
            assert_eq!(row.len(), 12, "tile {t}");
            for (i, &a) in row.iter().enumerate() {
                let stalled = t == 2 && (8..12).contains(&(5 + i));
                let want = if stalled {
                    Activity::CacheStall
                } else {
                    Activity::Idle
                };
                assert_eq!(a, want, "tile {t} at cycle {}", 5 + i);
            }
        }
    }

    #[test]
    fn scaling_shows_ring_decay_and_mesh_flat() {
        let rows = scaling_study();
        assert!(rows[0].ring_throughput > rows.last().unwrap().ring_throughput);
        assert!(rows.iter().all(|r| (r.mesh_throughput - 1.0).abs() < 1e-9));
    }
}
