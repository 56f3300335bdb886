//! The fabric executor: M routers + links, advanced in epochs.
//!
//! One epoch = `epoch_cycles` router cycles. Within an epoch every
//! router runs completely independently (no shared state, no message
//! passing); all cross-router transfers — collecting completed packets
//! from egress collectors into link queues, draining link queues into
//! the next stage's input line cards, injecting external arrivals, and
//! scheduling credit-backpressure stalls — happen at the epoch boundary,
//! which is one function (`RawFabric::boundary`) that always runs on
//! the caller's thread, in fixed link order. An [`Executor`] decides
//! only who calls [`RawRouter::run`] in between: the fabric owns its
//! routers by value and hands each shard of the partition (see
//! [`crate::shard`]) its routers as disjoint `&mut` borrows, all but
//! the first to a scoped worker thread. The borrow checker proves no
//! router is run twice or shared, so every executor is bit-identical
//! to running everything on the caller's thread;
//! [`RawFabric::digests`] splits the state into links, router components
//! and external outputs so the equivalence is asserted as well, and a
//! break is located.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use raw_net::{Fnv1a, Packet};
use raw_telemetry::{Histogram, LinkStats, StageLatency};
use raw_xbar::raw_sim::{cycles_to_seconds, Component};
use raw_xbar::{IngressQueueing, OutCollector, RawRouter, RouterConfig};

use crate::link::FabricLink;
use crate::shard::{partition_routers, Executor};
use crate::topology::{self, dst_ext_port, stamp_middle, RouterSpec, Topology, TopologyPlan};

// A multi-shard executor hands routers to worker threads; everything
// a router owns must therefore be Send. Checked here so a non-Send
// device or sink added later fails at compile time, not at runtime.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<RawRouter>();
};

/// How injection picks the middle-stage route for each new flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SprayMode {
    /// FNV-1a of `(source address, destination external port)` modulo
    /// the spray width: stateless, perfectly reproducible, and
    /// flow-pinned by construction.
    Hash,
    /// Pin each new flow to the uplink with the fewest queued +
    /// in-flight packets at first sight (deterministic tie-break toward
    /// lower indices). Adapts to skew; still flow-pinned, so intra-flow
    /// order survives.
    LeastOccupancy,
}

impl SprayMode {
    pub fn name(&self) -> &'static str {
        match self {
            SprayMode::Hash => "hash",
            SprayMode::LeastOccupancy => "least-occupancy",
        }
    }
}

/// Link-drain slots guaranteed per epoch even when the receiver's
/// backlog exceeds its input window: the escape valve of the boundary's
/// drain step (see [`RawFabric`]'s `boundary`).
pub const MIN_RECEIVE_WINDOW: usize = 1;

/// Why a [`FabricConfig`] is rejected before any fabric is built: the
/// link-sizing checks, each with its `RV7xx` code
/// ([`FabricConfigError::code`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FabricConfigError {
    /// `epoch_cycles == 0`: the credit protocol samples once per epoch.
    ZeroEpoch,
    /// Store-and-forward egress has no per-epoch emission bound to size
    /// link credits against.
    StoreAndForwardEgress,
    /// The link capacity cannot hold the stall threshold plus one slot
    /// of progress room: the sizing saturated (an epoch so long that one
    /// epoch's emission bound is `usize::MAX`).
    UndersizedLink { capacity: usize, threshold: usize },
}

impl FabricConfigError {
    /// The `RV7xx` code of this failure class.
    pub fn code(&self) -> &'static str {
        match self {
            FabricConfigError::UndersizedLink { .. } => "RV701",
            FabricConfigError::StoreAndForwardEgress => "RV704",
            FabricConfigError::ZeroEpoch => "RV705",
        }
    }
}

impl std::fmt::Display for FabricConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricConfigError::ZeroEpoch => write!(f, "epoch_cycles must be positive"),
            FabricConfigError::StoreAndForwardEgress => write!(
                f,
                "the fabric composes cut-through routers: store-and-forward egress has no \
                 per-epoch emission bound to size link credits against"
            ),
            FabricConfigError::UndersizedLink {
                capacity,
                threshold,
            } => write!(
                f,
                "link capacity {capacity} cannot hold the stall threshold {threshold} plus \
                 one slot of progress room"
            ),
        }
    }
}

impl std::error::Error for FabricConfigError {}

/// Why [`RawFabric::try_new`] refused to build a fabric.
#[derive(Clone, Debug)]
pub enum FabricError {
    /// The scalar config check ([`FabricConfig::validate`]) failed.
    Config(FabricConfigError),
    /// The whole-fabric static verifier found `RV5xx`–`RV6xx`
    /// violations: the topology + config combination could deadlock or
    /// misroute even though each scalar is sane.
    Verify(Vec<raw_verify::Diag>),
    /// A member router rejected the per-router configuration.
    Router(String),
    /// [`RawFabric::try_offer`] refused a packet.
    Offer(String),
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::Config(e) => write!(f, "{} ({})", e, e.code()),
            FabricError::Verify(diags) => {
                write!(
                    f,
                    "fabric verification failed with {} finding(s):",
                    diags.len()
                )?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            FabricError::Router(e) => write!(f, "router configuration rejected: {e}"),
            FabricError::Offer(e) => write!(f, "packet refused: {e}"),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<FabricConfigError> for FabricError {
    fn from(e: FabricConfigError) -> FabricError {
        FabricError::Config(e)
    }
}

/// Fabric-wide configuration. Link sizing is derived from the epoch
/// (see [`FabricConfig::emission_bound`]): a link drains at wire speed
/// and buffers three epochs of it.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    pub topology: Topology,
    pub epoch_cycles: u64,
    pub spray: SprayMode,
    /// Configuration applied to every member router.
    pub router: RouterConfig,
}

impl Default for FabricConfig {
    fn default() -> FabricConfig {
        FabricConfig {
            topology: Topology::Clos16,
            epoch_cycles: 512,
            spray: SprayMode::Hash,
            // VOQ ingress is load-bearing, not a preference: the folded
            // topology's leaf<->spine links form a cyclic channel
            // dependency, and FIFO head-of-line blocking couples that
            // cycle into the link-credit loop — a stalled uplink head
            // packet blocks locally-deliverable packets behind it,
            // input backlogs pin every drain window at zero, and the
            // fabric deadlocks under sustained load. Per-output virtual
            // queues keep the external sinks draining, which breaks the
            // cycle (the 3-stage Clos is feed-forward and never cycles,
            // but gets VOQ's HOL win for free).
            router: RouterConfig {
                quantum_words: 16,
                cut_through: true,
                queueing: IngressQueueing::Voq,
                ..RouterConfig::default()
            },
        }
    }
}

/// Packets [`FabricConfig::emission_bound`] allows beyond one epoch's
/// worth, for emissions straddling an epoch boundary.
pub const STRADDLE_MARGIN: usize = 2;

impl FabricConfig {
    /// Worst-case packets one egress port can complete in one epoch
    /// (quantum + tag word per packet, plus [`STRADDLE_MARGIN`]). This is
    /// the stall threshold the credit check compares link credits
    /// against, and each link's drain rate. Saturating, so an
    /// out-of-range quantum reaches the router's own typed check instead
    /// of overflowing here.
    pub fn emission_bound(&self) -> usize {
        (self.epoch_cycles as usize / self.router.quantum_words.saturating_add(1))
            .saturating_add(STRADDLE_MARGIN)
    }

    /// Link queue capacity: three epochs of emission. The no-overflow
    /// invariant needs more than one: if credits >= bound the sender may
    /// emit freely (at most `bound` arrivals next boundary); if credits <
    /// bound it is stalled for the whole next epoch and nothing arrives.
    /// `validate` rejects a sizing with no slot above the bound, and the
    /// unit test `occupancy_induction_holds_wherever_validate_accepts`
    /// states the induction.
    pub fn link_capacity(&self) -> usize {
        self.emission_bound().saturating_mul(3)
    }

    /// The one link-sizing gate, run by [`RawFabric::try_new`] before
    /// anything is built.
    pub fn validate(&self) -> Result<(), FabricConfigError> {
        if self.epoch_cycles == 0 {
            return Err(FabricConfigError::ZeroEpoch);
        }
        if !self.router.cut_through {
            return Err(FabricConfigError::StoreAndForwardEgress);
        }
        let (capacity, threshold) = (self.link_capacity(), self.emission_bound());
        if capacity <= threshold {
            return Err(FabricConfigError::UndersizedLink {
                capacity,
                threshold,
            });
        }
        Ok(())
    }
}

enum PendingPayload {
    Pkt(Packet),
    Raw(Vec<u32>),
}

/// One offer. Once injected it stays, as the stream the ingress router
/// was handed (a packet stamped with its middle), for [`crate::audit`].
struct PendingOffer {
    release: u64,
    seq: u64,
    ext: usize,
    payload: PendingPayload,
}

#[derive(Clone, Copy)]
struct Life {
    inject: u64,
    stage_entry: u64,
}

/// One digested piece of a [`RawFabric`] (see [`RawFabric::digests`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FabricComponent {
    /// An inter-router link: queued packets, credits, stalled epochs.
    Link(usize),
    /// One component of a member router's machine.
    Router(usize, Component),
    /// An external output: every packet delivered there, with its cycle.
    ExtOut(usize),
}

/// The serializable outcome summary of a fabric run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FabricSummary {
    pub topology: String,
    pub spray: String,
    pub routers: usize,
    pub ext_ports: usize,
    pub epoch_cycles: u64,
    pub epochs: u64,
    pub cycles: u64,
    pub offered: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub backpressure_epochs: u64,
    pub links: Vec<LinkStats>,
    /// Per-stage traversal latency (ingress/leaf, middle/spine, egress).
    pub stages: Vec<StageLatency>,
    pub total_latency: StageLatency,
}

/// A multi-router fabric: the composition the paper's §8.5 calls for.
pub struct RawFabric {
    pub cfg: FabricConfig,
    pub plan: TopologyPlan,
    pub(crate) routers: Vec<RawRouter>,
    pub(crate) links: Vec<FabricLink>,
    /// Scan cursor into each external collector (latency recording).
    ext_seen: Vec<usize>,
    pending: Vec<PendingOffer>,
    next_pending: usize,
    offered: u64,
    delivered: u64,
    epochs_run: u64,
    /// Flow -> pinned middle (LeastOccupancy mode only). Lookup-only:
    /// never iterated, so the map's order cannot leak into results.
    flow_pins: HashMap<(u32, u8), u8>,
    /// (src, ip id) -> injection/stage timestamps. Lookup-only.
    life: HashMap<(u32, u16), Life>,
    /// One histogram per topology stage level.
    stage_hist: Vec<Histogram>,
    total_hist: Histogram,
    backpressure_epochs: u64,
}

fn fnv_flow(src: u32, dst_ext: u8) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in src.to_be_bytes().into_iter().chain([dst_ext]) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Each router's forwarding table, built once per distinct route list:
/// every router of a Clos stage routes alike (5 lists for Clos64's 80
/// routers, 7 for Clos256's 448) and shares one table. The static gate
/// verifies these very tables before the routers are built on them.
pub(crate) fn router_tables(routers: &[RouterSpec]) -> Vec<Arc<raw_lookup::ForwardingTable>> {
    let mut built: Vec<(&[raw_lookup::RouteEntry], Arc<raw_lookup::ForwardingTable>)> = Vec::new();
    routers
        .iter()
        .map(|spec| {
            if let Some((_, table)) = built.iter().find(|(routes, _)| *routes == spec.routes) {
                return Arc::clone(table);
            }
            let table = Arc::new(raw_lookup::ForwardingTable::build(&spec.routes));
            built.push((&spec.routes, Arc::clone(&table)));
            table
        })
        .collect()
}

/// Run every router for `cycles`, shard by shard of `assign` (router ->
/// shard): the caller runs the first shard and one scoped worker each of
/// the others, so one shard spawns nothing. The shards are disjoint
/// `&mut` borrows, and the scope joins every worker before returning.
fn run_routers(routers: &mut [RawRouter], assign: &[usize], cycles: u64) {
    let mut shards: Vec<Vec<&mut RawRouter>> = Vec::new();
    for (router, &sh) in routers.iter_mut().zip(assign) {
        if shards.len() <= sh {
            shards.resize_with(sh + 1, Vec::new);
        }
        shards[sh].push(router);
    }
    let run = move |shard: Vec<&mut RawRouter>| shard.into_iter().for_each(|r| r.run(cycles));
    let mut shards = shards.into_iter();
    let mine = shards.next().unwrap_or_default();
    crossbeam::scope(|scope| {
        for shard in shards {
            scope.spawn(move |_| run(shard));
        }
        run(mine);
    })
    .expect("fabric shard worker panicked");
}

impl RawFabric {
    pub fn try_new(cfg: FabricConfig) -> Result<RawFabric, FabricError> {
        cfg.validate()?;
        let plan = topology::plan(cfg.topology);
        let tables = router_tables(&plan.routers);
        // The whole-fabric static gate: deadlock freedom and routing
        // soundness, over the tables the routers will forward with, must
        // hold before a single router is instantiated.
        let verdict = crate::verify::verify_tables(&plan, &tables, &cfg);
        if !verdict.diags.is_empty() {
            return Err(FabricError::Verify(verdict.diags));
        }
        let routers = tables
            .into_iter()
            .map(|table| {
                RawRouter::try_new_with_telemetry(cfg.router.clone(), table, None)
                    .map_err(FabricError::Router)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let (rate, capacity) = (cfg.emission_bound(), cfg.link_capacity());
        let links = plan
            .links
            .iter()
            .enumerate()
            .map(|(i, &spec)| FabricLink::new(i, spec, capacity, rate))
            .collect();
        let n_ext = plan.ext_out.len();
        Ok(RawFabric {
            plan,
            routers,
            links,
            ext_seen: vec![0; n_ext],
            pending: Vec::new(),
            next_pending: 0,
            offered: 0,
            delivered: 0,
            epochs_run: 0,
            flow_pins: HashMap::new(),
            life: HashMap::new(),
            stage_hist: (0..cfg.topology.stages())
                .map(|_| Histogram::for_cycles())
                .collect(),
            total_hist: Histogram::for_cycles(),
            backpressure_epochs: 0,
            cfg,
        })
    }

    pub fn ext_ports(&self) -> usize {
        self.plan.ext_out.len()
    }

    pub fn epochs_run(&self) -> u64 {
        self.epochs_run
    }

    pub fn cycle(&self) -> u64 {
        self.epochs_run * self.cfg.epoch_cycles
    }

    /// Queue one packet for external input `ext` at `release`. The
    /// destination external port comes from the address second octet
    /// (the [`topology::fabric_addr`] scheme); the middle octet is
    /// stamped at injection, so callers build addresses with any `m`.
    /// Panics on a packet [`RawFabric::try_offer`] refuses.
    pub fn offer(&mut self, ext: usize, release: u64, pkt: &Packet) {
        if let Err(e) = self.try_offer(ext, release, pkt) {
            panic!("{e}");
        }
    }

    /// [`RawFabric::offer`], refusing with [`FabricError::Offer`] a packet
    /// at an external input or for a destination the fabric does not
    /// have, or one longer than the quantum: every router forwards a
    /// packet whole in one cut-through quantum.
    pub fn try_offer(&mut self, ext: usize, release: u64, pkt: &Packet) -> Result<(), FabricError> {
        let (ports, dst) = (self.ext_ports(), dst_ext_port(pkt));
        let (words, quantum) = (pkt.total_words(), self.cfg.router.quantum_words);
        if ext >= ports {
            return Err(FabricError::Offer(format!(
                "external input {ext} out of range"
            )));
        }
        if dst >= ports {
            return Err(FabricError::Offer(format!(
                "destination external port {dst} out of range"
            )));
        }
        if words > quantum {
            return Err(FabricError::Offer(format!(
                "a {words}-word packet does not fit the {quantum}-word cut-through quantum"
            )));
        }
        let seq = self.pending.len() as u64;
        self.pending.push(PendingOffer {
            release,
            seq,
            ext,
            payload: PendingPayload::Pkt(pkt.clone()),
        });
        self.offered += 1;
        Ok(())
    }

    /// Queue a raw (possibly corrupt) word stream — the fault-injection
    /// path. No spray stamp: a mangled header is rejected at the
    /// stage-1 ingress parse, and the experiment address scheme makes
    /// even an unstamped survivor route correctly via middle 0.
    pub fn offer_raw(&mut self, ext: usize, release: u64, words: Vec<u32>) {
        assert!(ext < self.ext_ports(), "external input {ext} out of range");
        let seq = self.pending.len() as u64;
        self.pending.push(PendingOffer {
            release,
            seq,
            ext,
            payload: PendingPayload::Raw(words),
        });
        self.offered += 1;
    }

    /// Freeze one inter-router link's drain for `len` epochs (fault
    /// injection; the credit machinery turns the standing queue into
    /// sender backpressure automatically).
    pub fn stall_link(&mut self, link: usize, start_epoch: u64, len: u64) {
        self.links[link].stall(start_epoch, len);
    }

    /// Pause the line card behind external input `ext` (idle frames
    /// during the window).
    pub fn pause_ext_input(&mut self, ext: usize, start: u64, len: u64) {
        let (r, p) = self.plan.ext_in[ext];
        self.routers[r].pause_input(p, start, len);
    }

    /// Backpressure external output `ext` for a cycle window.
    pub fn stall_ext_output(&mut self, ext: usize, start: u64, len: u64) {
        let (r, p) = self.plan.ext_out[ext];
        self.routers[r].stall_output(p, start, len);
    }

    fn choose_middle(&mut self, ingress_router: usize, pkt: &Packet) -> u8 {
        let w = self.plan.topology.spray_width();
        let d = dst_ext_port(pkt);
        if self.plan.is_local(ingress_router, d) {
            return 0;
        }
        let key = (pkt.header.src, d as u8);
        match self.cfg.spray {
            SprayMode::Hash => (fnv_flow(key.0, key.1) % w as u64) as u8,
            SprayMode::LeastOccupancy => {
                if let Some(&m) = self.flow_pins.get(&key) {
                    return m;
                }
                let mut best = 0u8;
                let mut best_occ = usize::MAX;
                for (m, &li) in self.plan.uplinks[ingress_router].iter().enumerate() {
                    let l = &self.links[li];
                    let occ = l.occupancy() + l.inflight_sprayed;
                    if occ < best_occ {
                        best_occ = occ;
                        best = m as u8;
                    }
                }
                self.flow_pins.insert(key, best);
                best
            }
        }
    }

    /// The epoch boundary: every cross-router transfer of the fabric,
    /// on the caller's thread, in link order.
    ///
    /// 1. Collect: packets that finished crossing a link's sender during
    ///    the previous epoch enter the link queue.
    /// 2. Drain: each link hands packets to its receiver's line card at
    ///    the link rate, bounded by the receiver's input window — a
    ///    congested router keeps a backlog, the link refuses to hand
    ///    over more, the queue fills, and the credit check turns that
    ///    into sender stalls: hop-by-hop backpressure with nothing
    ///    hidden in unbounded buffers. The window never closes
    ///    completely ([`MIN_RECEIVE_WINDOW`], one packet per epoch):
    ///    the folded topology's leaf<->spine cycle can otherwise
    ///    deadlock when a skewed spray fills one VOQ, VOQ admission
    ///    blocks the ingress line card, and every drain window along
    ///    the cycle pins at zero — the escape slot turns that permanent
    ///    freeze into a trickle that drains once the skew passes. The
    ///    floor is a constant, so that historical deadlock is not
    ///    configurable. Only injected link faults (stall windows) may
    ///    freeze a drain outright.
    /// 3. Account external deliveries since the last boundary.
    /// 4. Inject external arrivals released inside this epoch, choosing
    ///    each new flow's middle stage against the shared flow state.
    /// 5. Credit check: stall any sender whose link cannot absorb a
    ///    full epoch of emission.
    fn boundary(&mut self, epoch: u64) {
        let t = epoch * self.cfg.epoch_cycles;
        let t_end = t + self.cfg.epoch_cycles;
        let last = self.stage_hist.len() - 1;

        for link in &mut self.links {
            let (r, p) = link.spec.from;
            let done = std::mem::take(&mut self.routers[r].collected_mut(p).packets);
            for (_, pkt) in done {
                link.inflight_sprayed = link.inflight_sprayed.saturating_sub(1);
                link.push(pkt);
            }
        }

        let window = self.cfg.emission_bound().saturating_mul(2);
        for link in &mut self.links {
            let (r, p) = link.spec.to;
            // The drain records the traversal of the *sending* stage.
            let stage = self.plan.routers[link.spec.from.0].stage;
            let allowed = window
                .saturating_sub(self.routers[r].input_backlog(p))
                .max(MIN_RECEIVE_WINDOW);
            let receiver = &mut self.routers[r];
            for pkt in link.drain(epoch, allowed) {
                if let Some(life) = self.life.get_mut(&(pkt.header.src, pkt.header.id)) {
                    self.stage_hist[stage].record(t - life.stage_entry);
                    life.stage_entry = t;
                }
                receiver.offer(p, t, &pkt);
            }
        }

        for (ext, &(r, p)) in self.plan.ext_out.iter().enumerate() {
            let col = self.routers[r].collected(p);
            for (cycle, pkt) in &col.packets[self.ext_seen[ext]..] {
                self.delivered += 1;
                if let Some(life) = self.life.remove(&(pkt.header.src, pkt.header.id)) {
                    self.stage_hist[last].record(cycle - life.stage_entry);
                    self.total_hist.record(cycle - life.inject);
                }
            }
            self.ext_seen[ext] = col.packets.len();
        }

        let mut pending = std::mem::take(&mut self.pending);
        for po in pending[self.next_pending..].iter_mut() {
            if po.release >= t_end {
                break;
            }
            let (r, port) = self.plan.ext_in[po.ext];
            let release = po.release.max(t);
            match &mut po.payload {
                PendingPayload::Pkt(p) => {
                    let m = self.choose_middle(r, p);
                    stamp_middle(p, m);
                    let d = dst_ext_port(p);
                    if !self.plan.is_local(r, d) {
                        let li = self.plan.uplinks[r][m as usize];
                        self.links[li].inflight_sprayed += 1;
                    }
                    self.life.insert(
                        (p.header.src, p.header.id),
                        Life {
                            inject: release,
                            stage_entry: release,
                        },
                    );
                    self.routers[r].offer(port, release, p);
                }
                PendingPayload::Raw(words) => {
                    self.routers[r].offer_raw(port, release, words.clone());
                }
            }
            self.next_pending += 1;
        }
        self.pending = pending;

        let bound = self.cfg.emission_bound();
        for l in &mut self.links {
            if l.sample_credits() < bound {
                let (r, p) = l.spec.from;
                self.routers[r].stall_output(p, t, self.cfg.epoch_cycles);
                l.stats.backpressure_epochs += 1;
                self.backpressure_epochs += 1;
            }
        }
    }

    /// Everything offered is now delivered or dropped (and injection is
    /// complete).
    fn closed(&self) -> bool {
        self.next_pending == self.pending.len()
            && self.delivered + self.dropped_count() >= self.offered
    }

    /// The one epoch loop: boundary on the caller, then every router's
    /// epoch on whichever shard the partition assigned it to.
    fn advance_with(&mut self, exec: Executor, max_epochs: u64, stop_when_closed: bool) -> bool {
        self.pending[self.next_pending..].sort_by_key(|p| (p.release, p.seq));
        let shards = match exec {
            Executor::Reference => 1,
            Executor::Threaded => self.routers.len(),
            Executor::Sharded { shards: 0 } => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Executor::Sharded { shards } => shards,
        };
        let assign = partition_routers(&self.plan, shards);
        while self.epochs_run < max_epochs {
            self.boundary(self.epochs_run);
            if stop_when_closed && self.closed() {
                return true;
            }
            run_routers(&mut self.routers, &assign, self.cfg.epoch_cycles);
            self.epochs_run += 1;
        }
        stop_when_closed && self.closed()
    }

    /// Advance exactly `n` more epochs (fixed horizon — for throughput
    /// windows) on the chosen executor; results are bit-identical on
    /// every executor.
    pub fn run_epochs_with(&mut self, n: u64, exec: Executor) {
        self.advance_with(exec, self.epochs_run + n, false);
    }

    /// Run until every offered packet is delivered or dropped, or
    /// `max_epochs` total epochs pass, on the chosen executor. Returns
    /// true on full accounting.
    pub fn run_until_drained_with(&mut self, max_epochs: u64, exec: Executor) -> bool {
        self.advance_with(exec, max_epochs, true)
    }

    pub fn offered(&self) -> u64 {
        self.offered
    }

    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    pub fn dropped_count(&self) -> u64 {
        self.routers.iter().map(RawRouter::dropped_count).sum()
    }

    pub fn parse_errors(&self) -> u64 {
        self.routers.iter().map(RawRouter::parse_errors).sum()
    }

    /// External output `ext`'s collector on its egress router. Never
    /// drained: this is the fabric's delivered stream.
    pub(crate) fn ext_collected(&self, ext: usize) -> &OutCollector {
        let (r, p) = self.plan.ext_out[ext];
        self.routers[r].collected(p)
    }

    /// Delivered packets at external output `ext`, in arrival order.
    pub fn delivered(&self, ext: usize) -> Vec<(u64, Packet)> {
        self.ext_collected(ext).packets.clone()
    }

    /// Fabric-wide packets delivered with completion cycles in
    /// `[from, to)`.
    pub fn delivered_packets_between(&self, from: u64, to: u64) -> u64 {
        (0..self.ext_ports())
            .map(|ext| {
                self.ext_collected(ext)
                    .packets
                    .iter()
                    .filter(|(cyc, _)| (from..to).contains(cyc))
                    .count() as u64
            })
            .sum()
    }

    /// Aggregate Mpps over a cycle window at the prototype's clock.
    pub fn mpps(&self, from: u64, to: u64) -> f64 {
        self.delivered_packets_between(from, to) as f64 / cycles_to_seconds(to - from) / 1e6
    }

    /// Aggregate Gbps over a cycle window.
    pub fn gbps(&self, from: u64, to: u64) -> f64 {
        let bits: u64 = (0..self.ext_ports())
            .map(|ext| {
                self.ext_collected(ext)
                    .packets
                    .iter()
                    .filter(|(cyc, _)| (from..to).contains(cyc))
                    .map(|(_, p)| p.total_bytes() as u64 * 8)
                    .sum::<u64>()
            })
            .sum();
        bits as f64 / cycles_to_seconds(to - from) / 1e9
    }

    /// Per-router classified drops, aggregated fabric-wide.
    pub fn drop_reasons(&self) -> [u64; raw_telemetry::DropReason::COUNT] {
        let mut out = [0u64; raw_telemetry::DropReason::COUNT];
        for r in &self.routers {
            for (o, d) in out.iter_mut().zip(r.drop_reasons()) {
                *o += d;
            }
        }
        out
    }

    /// What replaying the injected streams cannot see, as human-readable
    /// violations (empty == healthy; meaningful after a drained run, and
    /// part of [`crate::audit`] of one): offers never injected and packets
    /// still queued on a link. (The latency tracker's `life` map is no
    /// check: a stamped packet a router drops never leaves it, and the
    /// audit owes every drop exactly.)
    pub fn conservation_errors(&self) -> Vec<String> {
        let mut errs = Vec::new();
        if self.next_pending != self.pending.len() {
            errs.push(format!(
                "{} offers were never injected",
                self.pending.len() - self.next_pending
            ));
        }
        for l in &self.links {
            if l.occupancy() != 0 {
                errs.push(format!(
                    "link {} still holds {} packets",
                    l.stats.link,
                    l.occupancy()
                ));
            }
        }
        errs
    }

    /// Every injected stream, `(external input, wire words)`, in
    /// injection order.
    pub(crate) fn injected(&self) -> impl Iterator<Item = (usize, Vec<u32>)> + '_ {
        self.pending[..self.next_pending].iter().map(|po| {
            let words = match &po.payload {
                PendingPayload::Pkt(p) => p.to_words(),
                PendingPayload::Raw(words) => words.clone(),
            };
            (po.ext, words)
        })
    }

    /// Fold external output `ext`'s deliveries (cycle, exact words) into `h`.
    fn mix_delivered(&self, h: &mut Fnv1a, ext: usize) {
        for (cycle, p) in &self.ext_collected(ext).packets {
            h.mix(*cycle);
            for w in p.to_words() {
                h.mix(u64::from(w));
            }
        }
    }

    /// One digest per [`FabricComponent`], a router's components being
    /// its machine's (`RawMachine::digests`): links first, so a late or
    /// lost exchange at an epoch boundary is named by the link still
    /// holding the packet rather than by the router it would have fed,
    /// then routers, then external outputs. Compared by
    /// `raw_sim::first_divergence` with epochs as steps; never called by
    /// a run.
    pub fn digests(&self) -> Vec<(FabricComponent, u64)> {
        let links = self.links.iter().enumerate();
        let links = links.map(|(l, link)| (FabricComponent::Link(l), link.digest()));
        let routers = self.routers.iter().enumerate().flat_map(|(r, router)| {
            let machine = router.machine.digests().into_iter();
            machine.map(move |(c, d)| (FabricComponent::Router(r, c), d))
        });
        let ext_out = (0..self.ext_ports()).map(|e| {
            let mut h = Fnv1a::default();
            self.mix_delivered(&mut h, e);
            (FabricComponent::ExtOut(e), h.finish())
        });
        links.chain(routers).chain(ext_out).collect()
    }

    /// FNV-1a digest of everything observable: external delivery streams
    /// (cycle + exact words), per-router classified drops, offered
    /// count, and the epoch clock — the golden in `results/fabric.json`.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::default();
        for ext in 0..self.ext_ports() {
            self.mix_delivered(&mut h, ext);
        }
        for r in &self.routers {
            for d in r.drop_reasons() {
                h.mix(d);
            }
        }
        h.mix(self.offered);
        h.mix(self.epochs_run);
        h.finish()
    }

    /// Reduce the run to its serializable summary.
    pub fn summary(&self) -> FabricSummary {
        // The 3-level Clos keeps its historical stage names; deeper (or
        // shallower) fabrics get positional names.
        let stage_names: Vec<String> = if self.stage_hist.len() == 3 {
            ["ingress", "middle", "egress"]
                .iter()
                .map(|s| s.to_string())
                .collect()
        } else {
            (0..self.stage_hist.len())
                .map(|i| format!("stage{i}"))
                .collect()
        };
        FabricSummary {
            topology: self.plan.topology.name().to_string(),
            spray: self.cfg.spray.name().to_string(),
            routers: self.plan.routers.len(),
            ext_ports: self.ext_ports(),
            epoch_cycles: self.cfg.epoch_cycles,
            epochs: self.epochs_run,
            cycles: self.cycle(),
            offered: self.offered,
            delivered: self.delivered,
            dropped: self.dropped_count(),
            backpressure_epochs: self.backpressure_epochs,
            links: self.links.iter().map(|l| l.stats.clone()).collect(),
            stages: self
                .stage_hist
                .iter()
                .zip(&stage_names)
                .map(|(h, n)| StageLatency::from_histogram(n, h))
                .collect(),
            total_latency: StageLatency::from_histogram("total", &self.total_hist),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_xbar::raw_sim::{NET0, NET1};

    /// Routers share a forwarding table exactly when they route alike:
    /// Clos16's 12 routers hold one table per stage, while Folded8's
    /// four leaves (each owns different external ports) keep their own
    /// and only its two spines share.
    #[test]
    fn routers_that_route_alike_share_one_table() {
        let shared = |t: Topology| {
            let plan = topology::plan(t);
            let tables = router_tables(&plan.routers);
            assert_eq!(tables.len(), plan.routers.len());
            move |a: usize, b: usize| {
                let same = Arc::ptr_eq(&tables[a], &tables[b]);
                assert_eq!(same, plan.routers[a].routes == plan.routers[b].routes);
                same
            }
        };
        let clos16 = shared(Topology::Clos16);
        let stage = |r: usize| r / 4;
        for a in 0..12 {
            for b in 0..12 {
                assert_eq!(clos16(a, b), stage(a) == stage(b), "routers {a}, {b}");
            }
        }
        let folded8 = shared(Topology::Folded8);
        for a in 0..6 {
            for b in 0..6 {
                let want = a == b || (a >= 4 && b >= 4);
                assert_eq!(folded8(a, b), want, "routers {a}, {b}");
            }
        }
    }

    /// Every router of a fabric runs one router image: Clos64's 80
    /// routers hold the same configuration space and the same program
    /// on every switch the router programs, not 80 copies of each.
    #[test]
    fn every_router_of_a_fabric_shares_one_image() {
        let cfg = FabricConfig {
            topology: Topology::Clos64,
            ..FabricConfig::default()
        };
        let fab = RawFabric::try_new(cfg).expect("clos64 builds");
        assert_eq!(fab.routers.len(), 80);
        let first = &fab.routers[0];
        let programmed: Vec<_> = (first.layout.ports.iter())
            .flat_map(|p| {
                [
                    (p.ingress, NET0),
                    (p.crossbar, NET0),
                    (p.egress, NET0),
                    (p.egress, NET1),
                ]
            })
            .collect();
        for r in &fab.routers[1..] {
            assert!(Arc::ptr_eq(&r.image, &first.image));
            assert!(Arc::ptr_eq(&r.image.cs, &first.image.cs));
            for &(t, net) in &programmed {
                assert!(Arc::ptr_eq(
                    r.machine.switch_program(t, net),
                    first.machine.switch_program(t, net),
                ));
            }
        }
    }

    /// A packet the fabric cannot carry is refused as a typed error when
    /// it is offered, not by a panic inside a later epoch boundary.
    #[test]
    fn try_offer_refuses_what_the_fabric_cannot_carry() {
        let cfg = FabricConfig {
            topology: Topology::Single4,
            ..FabricConfig::default()
        };
        let quantum = cfg.router.quantum_words;
        let mut fab = RawFabric::try_new(cfg).expect("valid config");
        let pkt = |d: u8, bytes: usize| {
            Packet::synthetic(0x0b00_0001, topology::fabric_addr(d, 0), bytes, 64, 0)
        };
        let fits = pkt(1, 4 * quantum);
        let refusals = [
            (9, fits.clone(), "external input 9"),
            (0, pkt(9, 4 * quantum), "destination external port 9"),
            (0, pkt(1, 4 * quantum + 4), "cut-through quantum"),
        ];
        for (ext, p, want) in refusals {
            match fab.try_offer(ext, 0, &p) {
                Err(FabricError::Offer(e)) => assert!(e.contains(want), "{e}"),
                other => panic!("expected an Offer refusal, got {other:?}"),
            }
        }
        assert_eq!(fab.offered(), 0);
        fab.try_offer(0, 0, &fits)
            .expect("a packet of one quantum fits");
        assert!(fab.run_until_drained_with(64, Executor::Reference));
        assert_eq!(fab.delivered_count(), 1);
    }

    /// The link-occupancy induction, over a grid of epoch lengths and
    /// quanta that takes in 0, 1, the shipped values and the saturation
    /// edge. Whenever `validate` accepts, with `T` the stall threshold
    /// (`emission_bound`) and `B` the worst-case packets one egress
    /// completes in an epoch: a link drains (`T ≥ 1`); a link at or above
    /// `T` credits holds at least one slot of progress room beyond `T`
    /// (`capacity > T`); and a link the sender may fill — credits ≥ `T`,
    /// so occupancy ≤ `capacity − T` — takes at most `B` more by the
    /// next boundary without overflowing (`capacity − T + B ≤ capacity`).
    /// Below `T` credits the sender is stalled for the whole epoch and
    /// nothing arrives.
    #[test]
    fn occupancy_induction_holds_wherever_validate_accepts() {
        let edge = usize::MAX as u64 - STRADDLE_MARGIN as u64;
        let epochs = [
            0,
            1,
            2,
            85,
            128,
            256,
            512,
            2048,
            edge - 1,
            edge,
            u64::MAX - 1,
            u64::MAX,
        ];
        let quanta = [0, 1, 16, 64, 256, usize::MAX - 1, usize::MAX];
        let (mut accepted, mut saturated) = (0, 0);
        for epoch_cycles in epochs {
            for quantum_words in quanta {
                let mut cfg = FabricConfig {
                    epoch_cycles,
                    ..FabricConfig::default()
                };
                cfg.router.quantum_words = quantum_words;
                match cfg.validate() {
                    Ok(()) => accepted += 1,
                    Err(FabricConfigError::UndersizedLink { .. }) => {
                        saturated += 1;
                        continue;
                    }
                    Err(_) => continue,
                }
                let at = format!("epoch {epoch_cycles}, quantum {quantum_words}");
                let t = cfg.emission_bound();
                let capacity = cfg.link_capacity();
                assert!(t >= 1, "{at}: the link never drains");
                assert!(capacity > t, "{at}: no progress room above {t}");
                // B written out in exact arithmetic: one packet per
                // quantum plus its tag word, and the straddle margin.
                let burst = u128::from(epoch_cycles) / (quantum_words as u128 + 1)
                    + STRADDLE_MARGIN as u128;
                let worst = (capacity - t) as u128 + burst;
                assert!(
                    worst <= capacity as u128,
                    "{at}: worst occupancy {worst} exceeds capacity {capacity}"
                );
            }
        }
        assert!(accepted > 0 && saturated > 0, "{accepted} / {saturated}");
    }
}
