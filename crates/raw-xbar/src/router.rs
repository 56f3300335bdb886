//! The assembled 4-port Raw router: machine + switch code + tile
//! programs + line cards, with measurement helpers for the paper's
//! experiments.

use std::sync::{Arc, Mutex};

use raw_lookup::{Engine, ForwardingTable};
use raw_net::Packet;
use raw_sim::{cycles_to_seconds, EdgePort, RawConfig, RawMachine, NET0, NET1};

use crate::asm_xbar::ASM_TABLE_BASE;
use crate::devices::{LineCardIn, LineCardOut, OutCollector, OutFraming};
use crate::image::RouterImage;
use crate::layout::{RouterLayout, NPORTS};
use crate::programs::{
    CrossbarProgram, EgressMode, EgressProgram, EgressStats, IngressProgram, IngressStats,
    LookupProgram, LookupStats, XbarStats, XBAR_TABLE_BASE,
};

/// Router-level configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Routing-quantum size in payload words (§5.1: "one quantum of
    /// routing time … measured by the number of 32-bit words").
    pub quantum_words: usize,
    /// Egress mode: cut-through (packets must fit one quantum) or
    /// store-and-forward reassembly.
    pub cut_through: bool,
    /// Weighted-token QoS (§8.7): port `i` holds the token for
    /// `weights[i]` consecutive quanta per rotation.
    pub weights: [u32; NPORTS],
    pub engine: Engine,
    /// Ingress queueing discipline: the paper's FIFO (with cut-through)
    /// or virtual output queueing (HOL-blocking-free, store-and-forward).
    pub queueing: crate::programs::IngressQueueing,
    /// Run the Crossbar Processors as generated Raw *assembly* on the
    /// `raw-isa` interpreter instead of native state machines (§6.5).
    /// Implies the destination-mask jump table (as a multicast table
    /// does) and requires uniform token weights.
    pub asm_crossbar: bool,
    /// Deterministic lookup-table fault injection (chaos testing): forced
    /// misses fall back to the default route after a penalty.
    pub lookup_fault: Option<LookupFault>,
    /// Two-level lookup memory cost model: when set, each Lookup
    /// Processor charges model-driven L1/L2 costs from the lookup's
    /// access trace instead of the flat [`raw_lookup::LookupCostModel`],
    /// and the L2 share surfaces in telemetry as the `lookup_stall`
    /// tile-state bucket. `None` (the default) preserves the flat model
    /// bit-for-bit.
    pub lookup_mem: Option<raw_lookup::LookupMemModel>,
    /// Crossbar arbitration policy. [`raw_sched::SchedKind::Token`] is
    /// the paper's protocol unchanged. The alternatives (iSLIP,
    /// crosspoint-queued) replace the token walk with a replicated
    /// per-slot arbiter over VOQ occupancy masks: same static network,
    /// same ingest and egress paths, different matchings. Non-token
    /// arbiters require VOQ queueing, a unicast table, and the native
    /// crossbar cores.
    pub arbiter: raw_sched::SchedKind,
    pub raw: RawConfig,
}

/// Lookup-miss fault-injection parameters (see
/// [`crate::programs::LookupProgram::inject_misses`]). Each port's
/// Lookup Processor draws from its own stream, salted from `seed`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LookupFault {
    pub seed: u64,
    /// Forced-miss probability in parts-per-million.
    pub miss_ppm: u32,
    /// Extra cycles a forced miss costs (the fruitless full walk plus
    /// the default-route fetch).
    pub penalty_cycles: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            quantum_words: 64,
            cut_through: true,
            weights: [1; NPORTS],
            engine: Engine::Patricia,
            queueing: crate::programs::IngressQueueing::Fifo,
            asm_crossbar: false,
            lookup_fault: None,
            lookup_mem: None,
            arbiter: raw_sched::SchedKind::Token,
            raw: RawConfig::default(),
        }
    }
}

impl RouterConfig {
    /// The Figure 7-1 configuration for `bytes`-byte packets: a quantum of
    /// one whole packet with cut-through egress, up to the 256-word
    /// fragment limit; past it, store-and-forward reassembly.
    pub fn for_packet_bytes(bytes: usize) -> RouterConfig {
        let words = bytes / 4;
        RouterConfig {
            quantum_words: words.min(256),
            cut_through: words <= 256,
            ..RouterConfig::default()
        }
    }
}

/// The assembled router. The tile programs and line cards own their
/// counters; the accessors below read them back out of `machine` by type
/// ([`RawMachine::program_ref`] / [`RawMachine::device_ref`]).
pub struct RawRouter {
    pub machine: RawMachine,
    pub layout: RouterLayout,
    pub cfg: RouterConfig,
    /// The forwarding table all four Lookup Processors share.
    pub table: Arc<ForwardingTable>,
    /// The configuration space, switch programs and jump tables this
    /// router shares with every other built from the same quantum and
    /// crossbar.
    pub image: Arc<RouterImage>,
    in_ports: [EdgePort; NPORTS],
    out_ports: [EdgePort; NPORTS],
    // kept for benchmark/src/workloads.rs:666, which iterates and locks
    // it; every other counter is a plain field of its tile program.
    pub lk_stats: [Arc<Mutex<LookupStats>>; NPORTS],
    offered: u64,
}

impl RawRouter {
    pub fn new(cfg: RouterConfig, table: Arc<ForwardingTable>) -> RawRouter {
        match RawRouter::try_new(cfg, table) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Build the router, validating the configuration, on the
    /// [`RouterImage`] its quantum and crossbar share (whose build
    /// validates every generated switch program at the codegen boundary
    /// instead of relying on downstream assertions). Only the router's
    /// mutable state is built here: the machine, the tile programs, the
    /// line cards and the crossbar tiles' copies of the jump table.
    pub fn try_new(cfg: RouterConfig, table: Arc<ForwardingTable>) -> Result<RawRouter, String> {
        RawRouter::try_new_with_telemetry(cfg, table, None)
    }

    /// [`RawRouter::try_new`] with a telemetry sink threaded through the
    /// machine (tile-state and switch-stall attribution) and the
    /// ingress/egress programs (packet lifecycle stamps). `RouterConfig`
    /// stays `Clone + Debug`, so the sink is a separate argument.
    pub fn try_new_with_telemetry(
        cfg: RouterConfig,
        table: Arc<ForwardingTable>,
        telemetry: Option<raw_telemetry::SharedSink>,
    ) -> Result<RawRouter, String> {
        let layout = RouterLayout::canonical();
        if cfg.raw.dim != layout.dim {
            return Err(format!(
                "the router is laid out on a {}x{} grid, not {}x{}",
                layout.dim.rows, layout.dim.cols, cfg.raw.dim.rows, cfg.raw.dim.cols
            ));
        }
        // A Lookup Processor counts one lookup's cycles, memory stalls
        // and an injected miss's penalty included, in a u32.
        let lookup_cycles = cfg
            .lookup_mem
            .map_or(table.cost.worst_cycles(), |m| m.worst_cycles())
            + cfg.lookup_fault.map_or(0, |f| u64::from(f.penalty_cycles));
        if lookup_cycles > u64::from(u32::MAX) {
            return Err(format!(
                "a worst-case lookup ({} table accesses) costs {lookup_cycles} cycles, past \
                 the Lookup Processor's u32 cycle count",
                raw_lookup::MAX_ACCESSES
            ));
        }
        if cfg.asm_crossbar && !cfg.weights.iter().all(|&w| w == 1) {
            return Err("the assembly crossbar uses a plain modulo-4 token".into());
        }
        if !cfg.arbiter.is_token() {
            if cfg.queueing != crate::programs::IngressQueueing::Voq {
                return Err(format!(
                    "the {} arbiter bids VOQ occupancy masks and requires VOQ queueing",
                    cfg.arbiter.name()
                ));
            }
            if table.multicast() {
                return Err(format!(
                    "the {} arbiter computes unicast matchings; multicast needs the token protocol",
                    cfg.arbiter.name()
                ));
            }
            if cfg.asm_crossbar {
                return Err(format!(
                    "the {} arbiter runs on the native crossbar cores only",
                    cfg.arbiter.name()
                ));
            }
            let empty = match cfg.arbiter {
                raw_sched::SchedKind::Islip { iters: 0 } => Some("an iteration per slot"),
                raw_sched::SchedKind::CrosspointQueued { capacity: 0 } => {
                    Some("a cell per crosspoint buffer")
                }
                _ => None,
            };
            if let Some(what) = empty {
                return Err(format!(
                    "the {} arbiter needs at least {what}",
                    cfg.arbiter.name()
                ));
            }
        }
        let image = RouterImage::of(cfg.quantum_words, table.multicast(), cfg.asm_crossbar)?;
        let mut machine = RawMachine::new(cfg.raw.clone());
        if let Some(sink) = &telemetry {
            machine.set_telemetry(Arc::clone(sink));
        }
        let dim = layout.dim;

        let mut in_ports = Vec::with_capacity(NPORTS);
        let mut out_ports = Vec::with_capacity(NPORTS);
        let mut lk_stats = Vec::with_capacity(NPORTS);

        for (i, (p, code)) in layout.ports.iter().zip(&image.ports).enumerate() {
            let port = i as u8;
            // --- Ingress ---
            machine.set_switch_program(p.ingress, NET0, Arc::clone(&code.ingress.program));
            let mut ig = IngressProgram::new(
                port,
                &code.ingress,
                cfg.quantum_words,
                dim.coords(p.lookup),
                cfg.queueing,
                !cfg.arbiter.is_token(),
            );
            ig.telemetry = telemetry.clone();
            machine.set_program(p.ingress, Box::new(ig));
            let in_port = EdgePort::new(p.ingress, p.in_edge, NET0);
            machine.bind_device(in_port, Box::new(LineCardIn::new()));
            in_ports.push(in_port);

            // --- Lookup ---
            let mut lk =
                LookupProgram::new(port, Arc::clone(&table), cfg.engine, dim.coords(p.ingress));
            if let Some(f) = cfg.lookup_fault {
                // Salt the seed per port so the four streams differ while
                // the whole campaign stays a function of one seed.
                lk.inject_misses(f.seed.wrapping_add(i as u64), f.miss_ppm, f.penalty_cycles);
            }
            if let Some(m) = cfg.lookup_mem {
                lk.set_mem_model(m);
            }
            lk_stats.push(Arc::clone(&lk.stats));
            machine.set_program(p.lookup, Box::new(lk));

            // --- Crossbar ---
            let xb_code = &code.crossbar;
            machine.set_switch_program(p.crossbar, NET0, Arc::clone(&xb_code.program));
            if cfg.asm_crossbar {
                // The §6.5 path: generated Raw assembly with a
                // PC-carrying jump table, interpreted cycle-accurately.
                machine.write_tile_mem(p.crossbar, ASM_TABLE_BASE as usize, &code.table);
                let core = crate::asm_xbar::gen_crossbar_asm(i, xb_code.hdr_pc);
                machine.set_program(p.crossbar, Box::new(core));
            } else {
                machine.write_tile_mem(p.crossbar, XBAR_TABLE_BASE as usize, &code.table);
                // Each crossbar tile runs its own replica of the arbiter;
                // identical bid vectors keep the replicas in lockstep
                // (the raw-sched lockstep test), mirroring how the token
                // counter is replicated rather than transmitted.
                let sched = (!cfg.arbiter.is_token()).then(|| cfg.arbiter.build(NPORTS));
                let xb = CrossbarProgram::new(port, xb_code, cfg.weights, table.multicast(), sched);
                machine.set_program(p.crossbar, Box::new(xb));
            }

            // --- Egress ---
            machine.set_switch_program(p.egress, NET0, Arc::clone(&code.egress.program));
            machine.set_switch_program(p.egress, NET1, Arc::clone(&code.egress_net1));
            let mode = if cfg.cut_through {
                EgressMode::CutThrough
            } else {
                EgressMode::StoreForward
            };
            let mut eg = EgressProgram::new(port, &code.egress, cfg.quantum_words, mode);
            eg.telemetry = telemetry.clone();
            machine.set_program(p.egress, Box::new(eg));
            let (framing, out_port) = if cfg.cut_through {
                (
                    OutFraming::TaggedQuantum {
                        quantum: cfg.quantum_words,
                    },
                    EdgePort::new(p.egress, p.out_edge, NET0),
                )
            } else {
                (
                    OutFraming::RawPackets,
                    EdgePort::new(p.egress, p.out_edge, NET1),
                )
            };
            machine.bind_device(out_port, Box::new(LineCardOut::new(framing)));
            out_ports.push(out_port);
        }

        Ok(RawRouter {
            machine,
            layout,
            cfg,
            table,
            image,
            in_ports: in_ports.try_into().map_err(|_| ()).unwrap(),
            out_ports: out_ports.try_into().map_err(|_| ()).unwrap(),
            lk_stats: lk_stats.try_into().map_err(|_| ()).unwrap(),
            offered: 0,
        })
    }

    /// Queue a packet for injection on input `port` at `release` cycles.
    pub fn offer(&mut self, port: usize, release: u64, pkt: &Packet) {
        if self.cfg.cut_through {
            assert!(
                pkt.total_words() <= self.cfg.quantum_words,
                "cut-through egress requires packets (<= {} words) to fit one quantum; got {}",
                self.cfg.quantum_words,
                pkt.total_words()
            );
        }
        let lc = self
            .machine
            .device_mut::<LineCardIn>(self.in_ports[port])
            .expect("line card bound");
        lc.offer(release, pkt);
        self.offered += 1;
    }

    /// Total packets offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Queue a raw word stream on input `port` at `release` — the fault
    /// injection path for corrupted packets (no cut-through size check:
    /// a malformed stream is exactly what is being tested). Counts as
    /// one offered packet. A stream truncated short of its claimed
    /// length should be padded with [`crate::devices::WIRE_IDLE`] words
    /// back to that length, so the ingress observes the cut while the
    /// wire framing stays aligned under back-to-back traffic.
    pub fn offer_raw(&mut self, port: usize, release: u64, words: Vec<u32>) {
        let lc = self
            .machine
            .device_mut::<LineCardIn>(self.in_ports[port])
            .expect("line card bound");
        lc.offer_words(release, words);
        self.offered += 1;
    }

    /// Slow-line-card fault: input `port` emits only idle frames during
    /// `[start, start+len)`; an in-flight packet finishes first.
    pub fn pause_input(&mut self, port: usize, start: u64, len: u64) {
        self.machine
            .device_mut::<LineCardIn>(self.in_ports[port])
            .expect("line card bound")
            .pause_window(start, len);
    }

    /// Egress-backpressure fault: output `port` refuses words during
    /// `[start, start+len)`, pushing back into the fabric.
    pub fn stall_output(&mut self, port: usize, start: u64, len: u64) {
        self.machine
            .device_mut::<LineCardOut>(self.out_ports[port])
            .expect("line card bound")
            .stall_window(start, len);
    }

    /// Packets queued at input `port`'s line card that the fabric has
    /// not yet consumed (the in-flight packet counts as one). A
    /// multi-router fabric reads this to decide whether the upstream
    /// link may hand over more packets — receiver congestion becomes
    /// link occupancy becomes sender backpressure.
    pub fn input_backlog(&self, port: usize) -> usize {
        self.machine
            .device_ref::<LineCardIn>(self.in_ports[port])
            .expect("line card bound")
            .backlog()
    }

    /// Input `port`'s Ingress Processor counters.
    pub fn ingress_stats(&self, port: usize) -> &IngressStats {
        &self
            .machine
            .program_ref::<IngressProgram>(self.layout.ports[port].ingress)
            .expect("ingress program installed")
            .stats
    }

    /// [`RawRouter::ingress_stats`], mutably: tests seed an accounting
    /// inconsistency through it to show an invariant checker has teeth.
    pub fn ingress_stats_mut(&mut self, port: usize) -> &mut IngressStats {
        &mut self
            .machine
            .program_mut::<IngressProgram>(self.layout.ports[port].ingress)
            .expect("ingress program installed")
            .stats
    }

    /// Port `port`'s Crossbar Processor counters; `None` under
    /// [`RouterConfig::asm_crossbar`], where the tile runs an interpreted
    /// core (reach that as `machine.program_ref::<raw_isa::IsaCore>`).
    pub fn xbar_stats(&self, port: usize) -> Option<&XbarStats> {
        self.machine
            .program_ref::<CrossbarProgram>(self.layout.ports[port].crossbar)
            .map(|xb| &xb.stats)
    }

    /// Output `port`'s Egress Processor counters.
    pub fn egress_stats(&self, port: usize) -> &EgressStats {
        &self
            .machine
            .program_ref::<EgressProgram>(self.layout.ports[port].egress)
            .expect("egress program installed")
            .stats
    }

    /// Everything output `port`'s line card collected.
    pub fn collected(&self, port: usize) -> &OutCollector {
        &self
            .machine
            .device_ref::<LineCardOut>(self.out_ports[port])
            .expect("line card bound")
            .collected
    }

    /// [`RawRouter::collected`], mutably: a fabric takes the packets that
    /// finished crossing this router out of it at an epoch boundary.
    pub fn collected_mut(&mut self, port: usize) -> &mut OutCollector {
        &mut self
            .machine
            .device_mut::<LineCardOut>(self.out_ports[port])
            .expect("line card bound")
            .collected
    }

    /// Classified ingress drops aggregated across ports, indexed by
    /// [`raw_telemetry::DropReason::index`].
    pub fn drop_reasons(&self) -> [u64; raw_telemetry::DropReason::COUNT] {
        let mut out = [0u64; raw_telemetry::DropReason::COUNT];
        for p in 0..NPORTS {
            for (o, d) in out.iter_mut().zip(self.ingress_stats(p).drops.iter()) {
                *o += d;
            }
        }
        out
    }

    pub fn run(&mut self, cycles: u64) {
        self.machine.run(cycles);
    }

    /// Packets the ingresses dropped (bad header / expired TTL).
    pub fn dropped_count(&self) -> u64 {
        (0..NPORTS)
            .map(|p| self.ingress_stats(p).packets_dropped)
            .sum()
    }

    /// Run until every offered packet has been delivered or dropped, or
    /// `max_cycles` pass. Returns true on full accounting. The count is
    /// unicast-only: a multicast packet is one offer but one delivery per
    /// member port, so this returns as soon as the copies delivered reach
    /// the packets offered (wait on
    /// [`crate::reference::Expected::copies`] for fan-out traffic).
    pub fn run_until_drained(&mut self, max_cycles: u64) -> bool {
        let deadline = self.machine.cycle() + max_cycles;
        while self.machine.cycle() < deadline {
            if self.delivered_count() + self.dropped_count() >= self.offered {
                return true;
            }
            self.machine.run(256);
        }
        self.delivered_count() + self.dropped_count() >= self.offered
    }

    /// Packets delivered at output `port`, in arrival order.
    pub fn delivered(&self, port: usize) -> Vec<(u64, Packet)> {
        self.collected(port).packets.clone()
    }

    /// Input `port`'s drop total and its classified drops (indexed by
    /// [`raw_telemetry::DropReason::index`]); the two must agree.
    pub fn ingress_drops(&self, port: usize) -> (u64, [u64; raw_telemetry::DropReason::COUNT]) {
        let s = self.ingress_stats(port);
        (s.packets_dropped, s.drops)
    }

    pub fn delivered_count(&self) -> u64 {
        (0..NPORTS)
            .map(|p| self.collected(p).packets.len() as u64)
            .sum()
    }

    /// Total output parse errors across ports (must be zero in a healthy
    /// run).
    pub fn parse_errors(&self) -> u64 {
        (0..NPORTS)
            .map(|p| {
                let c = self.collected(p);
                c.parse_errors + c.unexpected_fragments
            })
            .sum()
    }

    /// Bits of delivered IP packets whose completion fell in
    /// `[from_cycle, to_cycle)`.
    pub fn delivered_bits_between(&self, from_cycle: u64, to_cycle: u64) -> u64 {
        (0..NPORTS)
            .map(|p| {
                self.collected(p)
                    .packets
                    .iter()
                    .filter(|(cyc, _)| (from_cycle..to_cycle).contains(cyc))
                    .map(|(_, p)| p.total_bytes() as u64 * 8)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Packets delivered in a cycle window.
    pub fn delivered_packets_between(&self, from_cycle: u64, to_cycle: u64) -> u64 {
        (0..NPORTS)
            .map(|p| {
                self.collected(p)
                    .packets
                    .iter()
                    .filter(|(cyc, _)| (from_cycle..to_cycle).contains(cyc))
                    .count() as u64
            })
            .sum()
    }

    /// Aggregate throughput over a cycle window, in Gbps at the
    /// prototype's clock.
    pub fn throughput_gbps(&self, from_cycle: u64, to_cycle: u64) -> f64 {
        let bits = self.delivered_bits_between(from_cycle, to_cycle) as f64;
        bits / cycles_to_seconds(to_cycle - from_cycle) / 1e9
    }

    /// Packets per second over a cycle window (the paper's Mpps metric,
    /// scaled).
    pub fn pps(&self, from_cycle: u64, to_cycle: u64) -> f64 {
        let pkts = self.delivered_packets_between(from_cycle, to_cycle) as f64;
        pkts / cycles_to_seconds(to_cycle - from_cycle)
    }

    /// The synchronous token counters of all four crossbar tiles must
    /// agree (§5.1). Returns the counts for assertion in tests (zeros
    /// under `asm_crossbar`, whose cores keep no such counter).
    pub fn token_counters(&self) -> [u64; NPORTS] {
        std::array::from_fn(|i| self.xbar_stats(i).map_or(0, |s| s.quanta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::reference::port_table as table;

    #[test]
    fn try_new_rejects_bad_configurations() {
        let e = RawRouter::try_new(
            RouterConfig {
                quantum_words: 0,
                ..RouterConfig::default()
            },
            table(),
        )
        .err()
        .expect("zero quantum must be rejected");
        assert!(e.contains("quantum"), "{e}");

        let e = RawRouter::try_new(
            RouterConfig {
                quantum_words: raw_net::IPV4_HEADER_WORDS,
                ..RouterConfig::default()
            },
            table(),
        )
        .err()
        .expect("header-sized quantum must be rejected");
        assert!(e.contains("IP header"), "{e}");

        let e = RawRouter::try_new(
            RouterConfig {
                asm_crossbar: true,
                weights: [2, 1, 1, 1],
                quantum_words: 16,
                ..RouterConfig::default()
            },
            table(),
        )
        .err()
        .expect("weighted token with asm crossbar must be rejected");
        assert!(e.contains("token"), "{e}");

        // A non-token arbiter needs VOQ queueing, a unicast table and the
        // native crossbar cores.
        let islip = raw_sched::SchedKind::Islip { iters: 4 };
        let e = RawRouter::try_new(
            RouterConfig {
                arbiter: islip,
                ..RouterConfig::default()
            },
            table(),
        )
        .err()
        .expect("scheduler without VOQ must be rejected");
        assert!(e.contains("VOQ"), "{e}");

        let voq_base = RouterConfig {
            arbiter: islip,
            queueing: crate::programs::IngressQueueing::Voq,
            cut_through: false,
            ..RouterConfig::default()
        };
        let mut routes = crate::reference::port_routes();
        routes.push(raw_lookup::RouteEntry::new(
            0xe000_0000,
            4,
            raw_lookup::encode_multicast(0b1110),
        ));
        let e = RawRouter::try_new(
            RouterConfig {
                quantum_words: 16,
                ..voq_base.clone()
            },
            Arc::new(ForwardingTable::build(&routes)),
        )
        .err()
        .expect("scheduler with a multicast table must be rejected");
        assert!(e.contains("multicast"), "{e}");

        let e = RawRouter::try_new(
            RouterConfig {
                asm_crossbar: true,
                quantum_words: 16,
                ..voq_base.clone()
            },
            table(),
        )
        .err()
        .expect("scheduler with asm crossbar must be rejected");
        assert!(e.contains("native"), "{e}");

        for arbiter in [
            raw_sched::SchedKind::Islip { iters: 0 },
            raw_sched::SchedKind::CrosspointQueued { capacity: 0 },
        ] {
            let e = RawRouter::try_new(
                RouterConfig {
                    arbiter,
                    ..voq_base.clone()
                },
                table(),
            )
            .err()
            .expect("an arbiter with nothing to iterate or buffer must be rejected");
            assert!(e.contains("needs at least"), "{e}");
        }

        // And the valid scheduler configuration is accepted.
        assert!(RawRouter::try_new(voq_base, table()).is_ok());

        // A lookup whose worst-case cost overflows the Lookup Processor's
        // u32 cycle count, through the memory model or a miss penalty.
        let slow_l2 = raw_lookup::LookupMemModel {
            l2_cycles: u32::MAX / 8,
            ..raw_lookup::LookupMemModel::default()
        };
        let long_miss = LookupFault {
            seed: 1,
            miss_ppm: 1,
            penalty_cycles: u32::MAX,
        };
        for cfg in [
            RouterConfig {
                lookup_mem: Some(slow_l2),
                ..RouterConfig::default()
            },
            RouterConfig {
                lookup_fault: Some(long_miss),
                ..RouterConfig::default()
            },
        ] {
            let e = RawRouter::try_new(cfg, table())
                .err()
                .expect("an overflowing lookup cost must be rejected");
            assert!(e.contains("u32 cycle count"), "{e}");
        }

        // A grid the router is not laid out on comes back as an error,
        // not as a panic further down.
        for dim in [raw_sim::GridDim::new(2, 2), raw_sim::GridDim::new(8, 8)] {
            let cfg = RouterConfig {
                raw: RawConfig {
                    dim,
                    ..RawConfig::default()
                },
                ..RouterConfig::default()
            };
            let e = RawRouter::try_new(cfg, table())
                .err()
                .expect("bad grid must be rejected");
            assert!(e.contains("grid"), "{e}");
        }
    }

    #[test]
    fn try_new_accepts_the_default_configuration() {
        assert!(RawRouter::try_new(RouterConfig::default(), table()).is_ok());
    }

    /// A weight is a count of quanta, not a length of anything: the
    /// largest one builds a router that runs.
    #[test]
    fn a_maximal_token_weight_builds_and_runs() {
        let cfg = RouterConfig {
            weights: [u32::MAX, 1, 1, 1],
            ..RouterConfig::default()
        };
        let mut r = RawRouter::try_new(cfg, table()).expect("maximal weight builds");
        r.run(10_000);
        assert_eq!(r.machine.cycle(), 10_000);
    }
}
