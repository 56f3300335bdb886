//! The four workloads: how each builds its inputs from the seed, runs
//! them to drain through the layer crates' public functions, and checks
//! every delivered packet against an oracle.
//!
//! Every workload is a fixed packet set run until drained. Configs are
//! `Default` plus the fields named here, so the engine and executor
//! measured are the ones a user gets.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use raw_fabric::{dst_ext_port, Executor, FabricConfig, RawFabric, SprayMode, Topology};
use raw_fib::{assign_addresses, synthesize, FibConfig, FlowSpec, FlowTracker};
use raw_lookup::{reference_lpm, Engine, ForwardingTable, LookupMemModel, RouteEntry};
use raw_net::Packet;
use raw_sim::{Activity, EngineMode, TileId};
use raw_telemetry::{shared, with_sink, Recorder, SharedSink, StageSpan, TileState};
use raw_workloads::{
    flow_churn_descs, generate, generate_n, port_table_routes, Arrivals, Pattern, ScheduledPacket,
    Workload,
};
use raw_xbar::{RawRouter, RouterConfig, RouterLayout, NPORTS};

use crate::alloc;
use crate::host;
use crate::spans::Tracer;

/// Simulated cycles per traced `raw-xbar.run` slice. A multiple of the
/// 256-cycle step `run_until_drained` polls at, so a sliced run stops on
/// the same cycle as an unsliced one.
pub const SLICE_CYCLES: u64 = 16_384;
/// A router run that has not drained by then counts as wedged.
const MAX_ROUTER_CYCLES: u64 = 60_000_000;
const MAX_FABRIC_EPOCHS: u64 = 500_000;
const CLOCK_HZ: f64 = 250e6;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Peak64,
    Avg1024,
    ChurnFib1m,
    Clos64,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Peak64, Kind::Avg1024, Kind::ChurnFib1m, Kind::Clos64];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Peak64 => "peak64",
            Kind::Avg1024 => "avg1024",
            Kind::ChurnFib1m => "churn-fib1m",
            Kind::Clos64 => "clos64",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Figure 7-1 reference throughput in Gbit/s (the `paper_gbps`
    /// values of `results/fig7_1_{peak,avg}.json`), where the paper
    /// publishes one: the peak curve at 64 B and the average curve at
    /// 1,024 B. The other two workloads are unvalidated.
    pub fn paper_gbps(self) -> Option<f64> {
        match self {
            Kind::Peak64 => Some(7.3),
            Kind::Avg1024 => Some(18.6),
            Kind::ChurnFib1m | Kind::Clos64 => None,
        }
    }
}

/// Input sizes. [`Scale::FULL`] is what `BENCHMARK.json` measures (1-2 s
/// timed sections at ~1.5 Mcycles/s); [`Scale::SMOKE`] keeps
/// `cargo test` to fractions of a second and off the 1.1 GB fabric.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub peak_pkts_per_port: usize,
    pub avg_pkts_per_port: usize,
    pub fib_prefixes: usize,
    pub churn_flows_per_port: u32,
    pub fabric: Topology,
    pub fabric_pkts_per_port: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        peak_pkts_per_port: 20_000,
        avg_pkts_per_port: 4_000,
        fib_prefixes: 1_000_000,
        churn_flows_per_port: 3_200,
        fabric: Topology::Clos64,
        fabric_pkts_per_port: 120,
    };
    pub const SMOKE: Scale = Scale {
        peak_pkts_per_port: 300,
        avg_pkts_per_port: 40,
        fib_prefixes: 1_000,
        churn_flows_per_port: 60,
        fabric: Topology::Clos16,
        fabric_pkts_per_port: 12,
    };
}

/// How one round runs. The default is the untraced round the end-to-end
/// metrics come from.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Run in [`SLICE_CYCLES`] / one-epoch slices, each in a span, and
    /// count the allocations the timed run makes.
    pub sliced: bool,
    /// Attach a `raw_telemetry::Recorder` (router workloads).
    pub recorder: bool,
    /// Override the router engine; `None` keeps the default.
    pub engine: Option<EngineMode>,
    /// Fabric executor; the default is all cores.
    pub executor: Executor,
}

impl Default for RunOpts {
    fn default() -> RunOpts {
        RunOpts {
            sliced: false,
            recorder: false,
            engine: None,
            executor: Executor::Sharded { shards: 0 },
        }
    }
}

impl RunOpts {
    /// The traced round: spans, recorder, allocation counts.
    pub fn traced() -> RunOpts {
        RunOpts {
            sliced: true,
            recorder: true,
            ..RunOpts::default()
        }
    }
}

/// Named numbers a round produced, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Values(pub Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: &str, v: f64) {
        self.0.push((name.to_string(), v));
    }
}

pub struct RouterInputs {
    pub routes: Vec<RouteEntry>,
    pub table: Arc<ForwardingTable>,
    pub cfg: RouterConfig,
    pub offers: Vec<ScheduledPacket>,
    /// The flow population (`churn-fib1m` only), for latency tracking.
    pub flows: Option<Vec<FlowSpec>>,
    pub packet_bytes: usize,
}

pub struct FabricInputs {
    pub cfg: FabricConfig,
    pub offers: Vec<ScheduledPacket>,
}

pub enum Inputs {
    Router(RouterInputs),
    Fabric(FabricInputs),
}

impl Inputs {
    pub fn offers(&self) -> &[ScheduledPacket] {
        match self {
            Inputs::Router(r) => &r.offers,
            Inputs::Fabric(f) => &f.offers,
        }
    }
}

/// The experiment table of the paper's runs: `10.<p>.0.0/16 -> p` plus a
/// default route.
fn port_table() -> Vec<RouteEntry> {
    let mut routes: Vec<RouteEntry> = port_table_routes()
        .iter()
        .map(|r| RouteEntry::new(r.prefix, r.len, r.next_hop))
        .collect();
    routes.push(RouteEntry::new(0, 0, 0));
    routes
}

/// Packets of the churn flows, per port in release order (ties by flow,
/// then sequence number) as `raw_workloads` materializes them, but
/// addressed into the FIB. The IP `id` carries the per-flow sequence
/// number that [`FlowTracker`] and the order check key on.
fn materialize_flows(flows: &[FlowSpec], packet_bytes: usize) -> Vec<ScheduledPacket> {
    let gap = (packet_bytes / 4) as u64;
    let mut keyed: Vec<(usize, u64, u32, u32, u32)> = Vec::new();
    for s in flows {
        for k in 0..s.desc.pkts {
            keyed.push((
                s.desc.port,
                s.desc.start + k as u64 * gap,
                s.desc.flow,
                k,
                s.dst_addr,
            ));
        }
    }
    keyed.sort_unstable();
    keyed
        .into_iter()
        .map(|(port, release, flow, k, dst)| {
            let mut p = Packet::synthetic(
                raw_workloads::flow_src(port, flow),
                dst,
                packet_bytes,
                64,
                (port as u32) << 24 | k,
            );
            p.header.id = (k & 0xffff) as u16;
            p.header.checksum = p.header.compute_checksum();
            ScheduledPacket {
                port,
                release,
                packet: p,
            }
        })
        .collect()
}

/// Build a workload's inputs from the seed: tables, configs and the
/// packet set. The seed drives workload generation only; the crates
/// under test receive generated packets.
pub fn prepare(kind: Kind, scale: &Scale, seed: u64, tr: &mut Tracer) -> Inputs {
    match kind {
        Kind::Peak64 | Kind::Avg1024 => {
            let (w, quantum) = if kind == Kind::Peak64 {
                // The permutation pattern draws nothing: every seed
                // gives the same packet set.
                (Workload::peak(64, scale.peak_pkts_per_port), 16)
            } else {
                (Workload::average(1024, scale.avg_pkts_per_port, seed), 256)
            };
            let routes = port_table();
            let table = tr.span("raw-lookup.build", || ForwardingTable::build(&routes));
            let offers = tr.span("raw-workloads.generate", || generate(&w));
            Inputs::Router(RouterInputs {
                routes,
                table: Arc::new(table),
                cfg: RouterConfig {
                    quantum_words: quantum,
                    cut_through: true,
                    ..RouterConfig::default()
                },
                offers,
                flows: None,
                packet_bytes: w.packet_bytes,
            })
        }
        Kind::ChurnFib1m => {
            let packet_bytes = 64;
            // The table is the same for every seed (a router's FIB does
            // not change with its traffic); flows and addresses vary.
            let fib = FibConfig::new(scale.fib_prefixes, NPORTS as u32, 2003);
            let routes = tr.span("raw-fib.synthesize", || synthesize(&fib));
            let table = tr.span("raw-lookup.build", || ForwardingTable::build(&routes));
            let w = Workload {
                pattern: Pattern::FlowChurn {
                    flows_per_port: scale.churn_flows_per_port,
                    alpha_milli: 1300,
                    mean_iat_cycles: 800,
                    // Pareto sizes capped at 16 packets. With the
                    // generator's usual 4096 cap a handful of elephant
                    // flows decide the tail: over ten seeds p50 latency
                    // spread 70 % and p99 100 % of their medians, which
                    // no regression bound survives. At 16 the hottest
                    // output runs at ~0.55 load and p50 repeats to ~2 %,
                    // p99 to ~13 %.
                    max_flow_pkts: 16,
                },
                arrivals: Arrivals::Saturation,
                packet_bytes,
                packets_per_port: 0,
                seed,
                ttl: 64,
            };
            let descs = tr.span("raw-workloads.generate", || flow_churn_descs(&w, NPORTS));
            let flows = tr.span("raw-fib.assign", || {
                assign_addresses(&descs, &routes, &table, Engine::Dir24_8, 0.9, seed ^ 0xa55)
            });
            let offers = tr.span("bench.materialize", || {
                materialize_flows(&flows, packet_bytes)
            });
            Inputs::Router(RouterInputs {
                routes,
                table: Arc::new(table),
                cfg: RouterConfig {
                    quantum_words: packet_bytes / 4,
                    cut_through: true,
                    engine: Engine::Dir24_8,
                    lookup_mem: Some(LookupMemModel::default()),
                    ..RouterConfig::default()
                },
                offers,
                flows: Some(flows),
                packet_bytes,
            })
        }
        Kind::Clos64 => {
            let cfg = FabricConfig {
                topology: scale.fabric,
                epoch_cycles: 512,
                spray: SprayMode::Hash,
                ..FabricConfig::default()
            };
            let w = Workload {
                pattern: Pattern::FabricUniform,
                arrivals: Arrivals::Saturation,
                packet_bytes: 64,
                packets_per_port: scale.fabric_pkts_per_port,
                seed,
                ttl: 64,
            };
            let nports = cfg.topology.ext_ports();
            let offers = tr.span("raw-workloads.generate", || generate_n(&w, nports));
            Inputs::Fabric(FabricInputs { cfg, offers })
        }
    }
}

/// Delivered packets per output port, `(completion cycle, packet)` in
/// arrival order.
pub type Deliveries = Vec<Vec<(u64, Packet)>>;

/// What the checker found. `failed()` over `attempted` is the failure
/// share the benchmark reports; any non-zero value fails the run.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub misrouted: u64,
    pub parse_errors: u64,
    pub order_violations: u64,
    pub never_delivered: u64,
    pub bits: u64,
    /// Completion cycle of the last delivery: the cycles to drain.
    pub last_cycle: u64,
    /// FNV-1a over every delivery's port, cycle and packet identity.
    pub fingerprint: u64,
}

impl Verdict {
    pub fn failed(&self) -> u64 {
        self.dropped
            + self.misrouted
            + self.parse_errors
            + self.order_violations
            + self.never_delivered
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }
}

/// Check every delivery: it left the port `oracle` names for it, and no
/// flow (source address) was reordered at any output. `dropped` and
/// `parse_errors` come from the router's own counters; what is neither
/// delivered nor dropped was never delivered.
pub fn check_deliveries(
    outputs: &[&[(u64, Packet)]],
    oracle: &dyn Fn(&Packet) -> Option<usize>,
    attempted: u64,
    dropped: u64,
    parse_errors: u64,
) -> Verdict {
    let mut v = Verdict {
        attempted,
        dropped,
        parse_errors,
        fingerprint: 0xcbf2_9ce4_8422_2325,
        ..Verdict::default()
    };
    let mix = |h: &mut u64, x: u64| {
        *h ^= x;
        *h = h.wrapping_mul(0x100_0000_01b3);
    };
    for (port, out) in outputs.iter().enumerate() {
        let mut last_id: HashMap<u32, u16> = HashMap::new();
        for (cycle, p) in out.iter() {
            for x in [port as u64, *cycle, p.header.src as u64, p.header.id as u64] {
                mix(&mut v.fingerprint, x);
            }
            if oracle(p) != Some(port) {
                v.misrouted += 1;
            }
            if let Some(prev) = last_id.insert(p.header.src, p.header.id) {
                if p.header.id <= prev {
                    v.order_violations += 1;
                }
            }
            v.delivered += 1;
            v.bits += p.total_bytes() as u64 * 8;
            v.last_cycle = v.last_cycle.max(*cycle);
        }
    }
    v.never_delivered = attempted.saturating_sub(v.delivered + dropped);
    v
}

/// Nearest-rank percentile of an unsorted sample.
fn percentile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// One finished round.
pub struct RoundResult {
    pub verdict: Verdict,
    pub drained: bool,
    /// Seconds from child start to the first `run` call.
    pub setup_s: f64,
    /// Wall seconds of the timed run.
    pub run_s: f64,
    /// Simulated machine-cycles (16 tiles each), summed over routers.
    pub machine_cycles: u64,
    /// Host milliseconds per slice (sliced runs only).
    pub slices_ms: Vec<f64>,
    /// Per-layer and simulated-time numbers, by metric name.
    pub values: Values,
    pub deliveries: Deliveries,
}

impl RoundResult {
    pub fn ok(&self) -> bool {
        self.drained && self.verdict.failed() == 0
    }
}

/// Simulated-time metrics every workload reports, from the verdict.
fn sim_values(v: &Verdict, lat_p50: u64, lat_p99: u64, vals: &mut Values) {
    let secs = v.last_cycle.max(1) as f64 / CLOCK_HZ;
    let ok = v.attempted - v.failed().min(v.attempted);
    vals.set("sim_gbps", v.bits as f64 / secs / 1e9);
    vals.set("sim_mpps", ok as f64 / secs / 1e6);
    vals.set("sim_lat_p50_cycles", lat_p50 as f64);
    vals.set("sim_lat_p99_cycles", lat_p99 as f64);
    vals.set("bench.drain_cycles", v.last_cycle as f64);
}

/// Construct, offer, run to drain and check one round of `inputs`.
/// `epoch` is the child's process start: `setup_s` runs from there to
/// the first `run` call, so it covers [`prepare`] too. `corrupt` moves
/// one delivery to the wrong port before checking (tests only).
pub fn run_round(
    inputs: &Inputs,
    opts: &RunOpts,
    epoch: Instant,
    tr: &mut Tracer,
    corrupt: bool,
) -> RoundResult {
    match inputs {
        Inputs::Router(i) => run_router(i, opts, epoch, tr, corrupt),
        Inputs::Fabric(i) => run_fabric(i, opts, epoch, tr, corrupt),
    }
}

fn corrupt_one(deliveries: &mut Deliveries) {
    let n = deliveries.len();
    let from = (0..n)
        .find(|&p| !deliveries[p].is_empty())
        .expect("a run delivers something");
    let moved = deliveries[from].pop().expect("non-empty");
    deliveries[(from + 1) % n].push(moved);
}

fn run_router(
    i: &RouterInputs,
    opts: &RunOpts,
    epoch: Instant,
    tr: &mut Tracer,
    corrupt: bool,
) -> RoundResult {
    let mut vals = Values::default();
    let mut cfg = i.cfg.clone();
    if let Some(e) = opts.engine {
        cfg.raw.engine = e;
    }
    let sink: Option<SharedSink> = opts
        .recorder
        .then(|| shared(Recorder::new(16, raw_sim::NUM_STATIC_NETS)));
    let mut r = tr.span("raw-xbar.new", || {
        RawRouter::try_new_with_telemetry(cfg, Arc::clone(&i.table), sink.clone())
            .expect("the workload's router config is valid")
    });
    tr.span("raw-xbar.offer", || {
        for s in &i.offers {
            r.offer(s.port, s.release, &s.packet);
        }
    });

    let setup_s = epoch.elapsed().as_secs_f64();
    let mut slices_ms = Vec::new();
    let t_run = Instant::now();
    let mut drain = || {
        if !opts.sliced {
            return r.run_until_drained(MAX_ROUTER_CYCLES);
        }
        loop {
            let open = tr.begin("raw-xbar.run");
            let t = Instant::now();
            let done = r.run_until_drained(SLICE_CYCLES);
            slices_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tr.end(open);
            if done || r.machine.cycle() >= MAX_ROUTER_CYCLES {
                break done;
            }
        }
    };
    let (drained, allocs, alloc_bytes) = if opts.sliced {
        alloc::counted(drain)
    } else {
        (drain(), 0, 0)
    };
    let run_s = t_run.elapsed().as_secs_f64();

    let open = tr.begin("bench.check");
    let mut deliveries: Deliveries = (0..NPORTS).map(|p| r.delivered(p)).collect();
    if corrupt {
        corrupt_one(&mut deliveries);
    }
    let outputs: Vec<&[(u64, Packet)]> = deliveries.iter().map(Vec::as_slice).collect();
    // The oracle is independent of the engine under test: brute-force
    // LPM over the small experiment table; on the 1M-prefix FIB the
    // Patricia trie (the router forwards with DIR-24-8), itself checked
    // against brute force on a sample of flows below.
    let big = i.routes.len() > 64;
    let oracle = |p: &Packet| -> Option<usize> {
        let hop = if big {
            i.table.lookup(Engine::Patricia, p.header.dst).0
        } else {
            reference_lpm(&i.routes, p.header.dst)
        };
        hop.map(|h| h as usize)
    };
    let mut verdict = check_deliveries(
        &outputs,
        &oracle,
        r.offered(),
        r.dropped_count(),
        r.parse_errors(),
    );
    if let Some(flows) = &i.flows {
        for s in flows.iter().take(32) {
            let brute = reference_lpm(&i.routes, s.dst_addr);
            if brute != i.table.lookup(Engine::Patricia, s.dst_addr).0 {
                verdict.misrouted += 1;
            }
        }
    }
    let (lat_p50, lat_p99) = match &i.flows {
        // Open loop: delivery cycle minus scheduled release.
        Some(flows) => {
            let mut t = FlowTracker::new(flows, i.packet_bytes);
            for out in &outputs {
                t.record_all(out);
            }
            let slo = t.slo();
            verdict.misrouted += slo.stray_packets;
            (slo.latency.p50, slo.latency.p99)
        }
        // Saturated: everything is released at cycle 0, so this is
        // time in system including the source backlog.
        None => {
            let mut lat: Vec<u64> = outputs
                .iter()
                .flat_map(|o| o.iter().map(|(c, _)| *c))
                .collect();
            (percentile(&mut lat, 0.50), percentile(&mut lat, 0.99))
        }
    };
    tr.end(open);

    sim_values(&verdict, lat_p50, lat_p99, &mut vals);
    let cycles = r.machine.cycle();
    let pkts = verdict.delivered.max(1) as f64;
    vals.set("raw-workloads.packets", i.offers.len() as f64);
    vals.set(
        "raw-lookup.table_mb",
        i.table.dir.memory_bytes() as f64 / (1 << 20) as f64,
    );
    vals.set(
        "raw-sim.ns_per_tile_cycle",
        run_s * 1e9 / cycles as f64 / 16.0,
    );
    vals.set("raw-xbar.cycles_per_pkt", verdict.last_cycle as f64 / pkts);
    if opts.sliced {
        vals.set("raw-xbar.run_allocs_per_pkt", allocs as f64 / pkts);
        vals.set(
            "raw-xbar.run_alloc_bytes_per_pkt",
            alloc_bytes as f64 / pkts,
        );
    }
    router_counters(&r, &mut vals);
    if let Some(sink) = &sink {
        with_sink::<Recorder, _>(sink, |rec| recorder_values(rec, &mut vals));
    }

    RoundResult {
        verdict,
        drained,
        setup_s,
        run_s,
        machine_cycles: cycles,
        slices_ms,
        values: vals,
        deliveries,
    }
}

/// Exact simulated-machine counters of a finished router run: tile
/// activity over all 16 tiles (`raw-sim.*`) and busy share per tile
/// role (`raw-xbar.*`), lookup-memory behaviour (`raw-lookup.*`).
fn router_counters(r: &RawRouter, vals: &mut Values) {
    let m = &r.machine;
    let tiles = m.dim().tiles();
    let mut counts = [0u64; 5];
    let mut switch_stall = 0u64;
    for t in 0..tiles {
        let tile = TileId(t as u16);
        for (c, n) in counts.iter_mut().zip(m.stats(tile).counts) {
            *c += n;
        }
        switch_stall += m.switch_stall_cycles(tile);
    }
    let total = counts.iter().sum::<u64>().max(1) as f64;
    let frac = |a: Activity| counts[a.index()] as f64 / total;
    vals.set("raw-sim.busy_frac", frac(Activity::Busy));
    vals.set("raw-sim.blocked_send_frac", frac(Activity::BlockedSend));
    vals.set("raw-sim.blocked_recv_frac", frac(Activity::BlockedRecv));
    vals.set("raw-sim.idle_frac", frac(Activity::Idle));
    vals.set("raw-sim.switch_stall_cycles", switch_stall as f64);

    let layout = RouterLayout::canonical();
    let role = |pick: &dyn Fn(&raw_xbar::PortTiles) -> TileId| {
        let (busy, all) = layout.ports.iter().fold((0u64, 0u64), |(b, a), p| {
            let s = m.stats(pick(p));
            (b + s.busy(), a + s.total())
        });
        busy as f64 / all.max(1) as f64
    };
    vals.set("raw-xbar.ingress_busy_frac", role(&|p| p.ingress));
    vals.set("raw-xbar.lookup_busy_frac", role(&|p| p.lookup));
    vals.set("raw-xbar.crossbar_busy_frac", role(&|p| p.crossbar));
    vals.set("raw-xbar.egress_busy_frac", role(&|p| p.egress));

    let (mut lookups, mut l2, mut stall) = (0u64, 0u64, 0u64);
    for lk in &r.lk_stats {
        let s = lk.lock().expect("lookup stats lock is never poisoned");
        lookups += s.lookups;
        l2 += s.l2_lookups;
        stall += s.mem_stall_cycles;
    }
    vals.set("raw-lookup.l2_frac", l2 as f64 / lookups.max(1) as f64);
    vals.set("raw-lookup.mem_stall_cycles", stall as f64);
}

/// Exact per-stage packet spans and stall shares from the recorder a
/// traced round attached.
fn recorder_values(rec: &Recorder, vals: &mut Values) {
    for span in StageSpan::ALL {
        let h = rec.stage_histogram(span);
        vals.set(
            &format!("raw-telemetry.stage_{}_p50_cycles", span.name()),
            h.value_at_quantile(0.50) as f64,
        );
        if span == StageSpan::Total {
            vals.set(
                "raw-telemetry.stage_total_p99_cycles",
                h.value_at_quantile(0.99) as f64,
            );
        }
    }
    let sum = |s: TileState| -> u64 {
        (0..rec.tiles())
            .map(|t| rec.tile_state_counts(t)[s.index()])
            .sum()
    };
    let total: u64 = (0..rec.tiles()).map(|t| rec.tile_total(t)).sum();
    let total = total.max(1) as f64;
    vals.set(
        "raw-telemetry.lookup_stall_frac",
        sum(TileState::LookupStall) as f64 / total,
    );
    vals.set(
        "raw-telemetry.token_wait_frac",
        sum(TileState::TokenWait) as f64 / total,
    );
}

fn run_fabric(
    i: &FabricInputs,
    opts: &RunOpts,
    epoch: Instant,
    tr: &mut Tracer,
    corrupt: bool,
) -> RoundResult {
    let mut vals = Values::default();
    let mut cfg = i.cfg.clone();
    if let Some(e) = opts.engine {
        cfg.router.raw.engine = e;
    }
    let routers = cfg.topology.routers();
    let ext_ports = cfg.topology.ext_ports();
    let verdict_static = tr.span("raw-verify.fabric_verify", || {
        raw_fabric::verify_fabric(&cfg)
    });
    assert!(
        verdict_static.diags.is_empty(),
        "the workload's fabric config verifies clean"
    );
    let rss0 = host::rss_mb();
    let mut fab = tr.span("raw-fabric.try_new", || {
        RawFabric::try_new(cfg).expect("the workload's fabric config is valid")
    });
    vals.set(
        "raw-fabric.mb_per_router",
        (host::rss_mb() - rss0) / routers as f64,
    );
    tr.span("raw-fabric.offer", || {
        for s in &i.offers {
            fab.offer(s.port, s.release, &s.packet);
        }
    });

    let setup_s = epoch.elapsed().as_secs_f64();
    let mut slices_ms = Vec::new();
    let t_run = Instant::now();
    let exec = opts.executor;
    let drained = if opts.sliced {
        // One boundary plus at most one epoch per call: the same
        // boundary sequence, and the same stopping epoch, as one
        // unsliced call.
        loop {
            let open = tr.begin("raw-fabric.epoch");
            let t = Instant::now();
            let done = fab.run_until_drained_with(fab.epochs_run() + 1, exec);
            slices_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tr.end(open);
            if done || fab.epochs_run() >= MAX_FABRIC_EPOCHS {
                break done;
            }
        }
    } else {
        fab.run_until_drained_with(MAX_FABRIC_EPOCHS, exec)
    };
    let run_s = t_run.elapsed().as_secs_f64();

    let open = tr.begin("bench.check");
    let mut deliveries: Deliveries = (0..ext_ports).map(|p| fab.delivered(p)).collect();
    if corrupt {
        corrupt_one(&mut deliveries);
    }
    let outputs: Vec<&[(u64, Packet)]> = deliveries.iter().map(Vec::as_slice).collect();
    // The address's second octet names the external port; the fabric's
    // per-router tables must get the packet there whatever path the
    // spray picked.
    let oracle = |p: &Packet| Some(dst_ext_port(p));
    let mut verdict = check_deliveries(
        &outputs,
        &oracle,
        fab.offered(),
        fab.dropped_count(),
        fab.parse_errors(),
    );
    let conservation = fab.conservation_errors();
    if drained && !conservation.is_empty() {
        eprintln!("fabric conservation violated: {conservation:?}");
        verdict.never_delivered += conservation.len() as u64;
    }
    // The fabric's own digest also covers drops and the epoch clock.
    verdict.fingerprint = fab.fingerprint();
    let summary = fab.summary();
    tr.end(open);

    sim_values(
        &verdict,
        summary.total_latency.p50,
        summary.total_latency.p99,
        &mut vals,
    );
    let shards = match exec {
        Executor::Sharded { shards: 0 } => std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(routers),
        Executor::Sharded { shards } => shards,
        Executor::Reference => 1,
        Executor::Threaded => routers,
    };
    vals.set("raw-workloads.packets", i.offers.len() as f64);
    vals.set("raw-fabric.shards", shards as f64);
    vals.set("raw-fabric.epochs", summary.epochs as f64);
    vals.set(
        "raw-fabric.us_per_epoch",
        run_s * 1e6 / summary.epochs.max(1) as f64,
    );
    vals.set(
        "raw-fabric.backpressure_epochs",
        summary.backpressure_epochs as f64,
    );
    vals.set(
        "raw-fabric.link_max_occupancy",
        summary
            .links
            .iter()
            .map(|l| l.max_occupancy)
            .max()
            .unwrap_or(0) as f64,
    );
    vals.set(
        "raw-fabric.lat_p50_cycles",
        summary.total_latency.p50 as f64,
    );
    vals.set(
        "raw-fabric.lat_p99_cycles",
        summary.total_latency.p99 as f64,
    );

    RoundResult {
        verdict,
        drained,
        setup_s,
        run_s,
        machine_cycles: fab.cycle() * routers as u64,
        slices_ms,
        values: vals,
        deliveries,
    }
}
