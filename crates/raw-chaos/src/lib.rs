//! # raw-chaos — deterministic fault injection for the Raw router
//!
//! The paper's router is evaluated under clean traffic; a deployable
//! switch must *degrade gracefully* under dirty traffic and partial
//! hardware faults. This crate threads a seedable fault-injection layer
//! through the whole stack:
//!
//! * **Packet corruption at the line card** — header bit flips, payload
//!   bit flips, bad checksums, expired TTLs, garbage version/IHL
//!   nibbles, and tail truncation, all from the deterministic mutators
//!   in [`raw_net::corrupt`];
//! * **Tile stalls** — any of a port's four pipeline tiles can be frozen
//!   for an N-cycle window via [`raw_sim::RawMachine::schedule_stall`];
//! * **Channel faults** — input line cards pause (emit idle frames) and
//!   output line cards apply backpressure for scheduled windows;
//! * **Lookup faults** — the Lookup Processors force table misses that
//!   fall back to the default route after a penalty
//!   ([`raw_xbar::LookupFault`]).
//!
//! Everything is driven by a [`FaultPlan`]: one seed plus per-class
//! rates and windows. The same plan replays bit-identically, in both
//! the per-cycle and compiled engines, which is what makes an
//! adversarial campaign debuggable.
//!
//! Graceful degradation is checked, not hoped for: [`run_chaos`] ends in
//! [`raw_xbar::reference::audit`], fed the corrupted word streams that
//! actually went on the wire — every surviving packet must come out
//! where, as and in the order the functional reference says, and every
//! rejected one must be counted under the reference's
//! [`raw_telemetry::DropReason`] at its input — and in
//! [`conservation_errors`], which closes the per-tile cycle-state
//! accounting.
//! [`run_chaos`] packages a full offer-run-check campaign for the test
//! battery and the `repro -- chaos` soak.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use raw_lookup::ForwardingTable;
use raw_net::{corrupt, CorruptRng, Fnv1a, Packet};
use raw_sim::NUM_STATIC_NETS;
use raw_telemetry::{shared, with_sink, DropReason, Recorder, SharedSink, TelemetrySummary};
use raw_workloads::ScheduledPacket;
use raw_xbar::devices::WIRE_IDLE;
use raw_xbar::reference::audit;
use raw_xbar::{IngressQueueing, LookupFault, RawRouter, RouterConfig, NPORTS};

pub mod fabric;

pub use fabric::{ChaosFabric, FabricFaultPlan, LinkStallSpec};

/// Pipeline-element indices within a port's tile slice (the
/// [`raw_xbar::PortTiles`] fields, in order).
pub const ELEM_INGRESS: u8 = 0;
pub const ELEM_LOOKUP: u8 = 1;
pub const ELEM_CROSSBAR: u8 = 2;
pub const ELEM_EGRESS: u8 = 3;

/// A stall window on one tile of one port's pipeline slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallSpec {
    pub port: usize,
    /// [`ELEM_INGRESS`] | [`ELEM_LOOKUP`] | [`ELEM_CROSSBAR`] |
    /// [`ELEM_EGRESS`].
    pub element: u8,
    pub start: u64,
    pub len: u64,
}

/// A pause/backpressure window on one line card.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowSpec {
    pub port: usize,
    pub start: u64,
    pub len: u64,
}

/// The complete, serializable description of a fault campaign. All
/// probabilities are parts-per-million per offered packet; all faults
/// derive from `seed`, so a plan is a pure function from traffic to
/// outcome.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    pub seed: u64,
    /// Flip one random header bit (never `total_len`, so the packet
    /// still frames exactly). Always rejected at the ingress parse.
    pub header_flip_ppm: u32,
    /// Flip one random payload bit. The IP checksum covers the header
    /// only, so the packet is still *delivered* — as on a real router.
    pub payload_flip_ppm: u32,
    /// XOR the checksum field with a random nonzero value.
    pub bad_checksum_ppm: u32,
    /// Rewrite TTL to 0 or 1 with a correct checksum: a well-formed
    /// packet that expires at this hop.
    pub ttl_expire_ppm: u32,
    /// Garbage version nibble, checksum recomputed.
    pub bad_version_ppm: u32,
    /// Garbage IHL nibble, checksum recomputed.
    pub bad_ihl_ppm: u32,
    /// Cut 1..len-1 tail words and let the wire go idle mid-packet.
    /// Requires VOQ ingress (store-and-forward): a cut-through ingress
    /// streams words into the fabric before the tail can be missed.
    pub truncate_ppm: u32,
    /// Forced lookup-table miss probability (per lookup, per port).
    pub lookup_miss_ppm: u32,
    /// Extra cycles a forced miss costs before the default route.
    pub lookup_penalty_cycles: u32,
    pub tile_stalls: Vec<StallSpec>,
    pub input_pauses: Vec<WindowSpec>,
    pub output_stalls: Vec<WindowSpec>,
}

impl FaultPlan {
    /// The all-zero plan: a [`ChaosRouter`] under it must behave
    /// byte-identically to an unwrapped [`RawRouter`].
    pub fn zero(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            header_flip_ppm: 0,
            payload_flip_ppm: 0,
            bad_checksum_ppm: 0,
            ttl_expire_ppm: 0,
            bad_version_ppm: 0,
            bad_ihl_ppm: 0,
            truncate_ppm: 0,
            lookup_miss_ppm: 0,
            lookup_penalty_cycles: 0,
            tile_stalls: Vec::new(),
            input_pauses: Vec::new(),
            output_stalls: Vec::new(),
        }
    }

    /// The reference soak plan: seed `0xC4A0`, 1% header corruption,
    /// one 500-cycle stall window on every tile (staggered so the
    /// windows tile the warm-up region instead of freezing the whole
    /// fabric at once), and 0.5% forced lookup misses.
    pub fn reference() -> FaultPlan {
        let mut tile_stalls = Vec::new();
        for port in 0..NPORTS {
            for element in [ELEM_INGRESS, ELEM_LOOKUP, ELEM_CROSSBAR, ELEM_EGRESS] {
                let k = (port * 4 + element as usize) as u64;
                tile_stalls.push(StallSpec {
                    port,
                    element,
                    start: 10_000 + k * 1_500,
                    len: 500,
                });
            }
        }
        FaultPlan {
            header_flip_ppm: 10_000,
            lookup_miss_ppm: 5_000,
            lookup_penalty_cycles: 48,
            tile_stalls,
            ..FaultPlan::zero(0xC4A0)
        }
    }

    fn rates(&self) -> [u32; 7] {
        [
            self.header_flip_ppm,
            self.bad_checksum_ppm,
            self.bad_version_ppm,
            self.bad_ihl_ppm,
            self.ttl_expire_ppm,
            self.truncate_ppm,
            self.payload_flip_ppm,
        ]
    }

    /// Validate the plan against a router configuration.
    pub fn validate(&self, cfg: &RouterConfig) -> Result<(), String> {
        for r in self.rates().iter().chain([&self.lookup_miss_ppm]) {
            if *r > 1_000_000 {
                return Err(format!("rate {r} ppm exceeds 1_000_000"));
            }
        }
        if self.truncate_ppm > 0 && cfg.queueing != IngressQueueing::Voq {
            return Err(
                "truncation faults need IngressQueueing::Voq: a cut-through FIFO ingress \
                 streams words into the fabric before the missing tail is observable"
                    .into(),
            );
        }
        for s in &self.tile_stalls {
            if s.port >= NPORTS || s.element > ELEM_EGRESS {
                return Err(format!(
                    "stall spec port {} element {} out of range",
                    s.port, s.element
                ));
            }
        }
        for w in self.input_pauses.iter().chain(&self.output_stalls) {
            if w.port >= NPORTS {
                return Err(format!("window spec port {} out of range", w.port));
            }
        }
        Ok(())
    }
}

/// Per-class counts of faults actually injected (as opposed to the
/// plan's *rates*), for cross-checking against the drop counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectedFaults {
    pub header_flips: u64,
    pub bad_checksums: u64,
    pub bad_versions: u64,
    pub bad_ihls: u64,
    pub ttl_expires: u64,
    pub truncations: u64,
    pub payload_flips: u64,
}

impl InjectedFaults {
    /// Faults that must each surface as exactly one classified drop
    /// (payload flips are delivered; the rest are rejected).
    pub fn expected_drops(&self) -> u64 {
        self.header_flips
            + self.bad_checksums
            + self.bad_versions
            + self.bad_ihls
            + self.ttl_expires
            + self.truncations
    }

    pub fn total(&self) -> u64 {
        self.expected_drops() + self.payload_flips
    }
}

/// A [`RawRouter`] with a [`FaultPlan`] threaded through every layer:
/// stall windows scheduled on the machine, lookup faults armed in the
/// Lookup Processors, line-card windows installed, and every offered
/// packet passed through the corruption gauntlet.
pub struct ChaosRouter {
    pub router: RawRouter,
    pub plan: FaultPlan,
    pub injected: InjectedFaults,
    rng: CorruptRng,
}

impl ChaosRouter {
    pub fn try_new(
        mut cfg: RouterConfig,
        table: Arc<ForwardingTable>,
        plan: FaultPlan,
        telemetry: Option<SharedSink>,
    ) -> Result<ChaosRouter, String> {
        plan.validate(&cfg)?;
        if plan.lookup_miss_ppm > 0 {
            cfg.lookup_fault = Some(LookupFault {
                // Distinct stream from the packet-corruption draws.
                seed: plan.seed ^ 0x6c6f_6f6b_7570_5f21,
                miss_ppm: plan.lookup_miss_ppm,
                penalty_cycles: plan.lookup_penalty_cycles,
            });
        }
        let mut router = RawRouter::try_new_with_telemetry(cfg, table, telemetry)?;
        for s in &plan.tile_stalls {
            let tiles = &router.layout.ports[s.port];
            let tile = match s.element {
                ELEM_INGRESS => tiles.ingress,
                ELEM_LOOKUP => tiles.lookup,
                ELEM_CROSSBAR => tiles.crossbar,
                _ => tiles.egress,
            };
            router.machine.schedule_stall(tile, s.start, s.len);
        }
        for w in &plan.input_pauses {
            router.pause_input(w.port, w.start, w.len);
        }
        for w in &plan.output_stalls {
            router.stall_output(w.port, w.start, w.len);
        }
        let rng = CorruptRng::new(plan.seed);
        Ok(ChaosRouter {
            router,
            plan,
            injected: InjectedFaults::default(),
            rng,
        })
    }

    /// Offer one packet through the corruption gauntlet
    /// ([`corrupt_offer`]). Returns the words that went on the wire — what
    /// [`raw_xbar::reference::audit`] must be told was offered.
    pub fn offer(&mut self, port: usize, release: u64, pkt: &Packet) -> Vec<u32> {
        match corrupt_offer(&self.plan, &mut self.rng, &mut self.injected, pkt) {
            None => {
                self.router.offer(port, release, pkt);
                pkt.to_words()
            }
            Some((_, words)) => {
                self.router.offer_raw(port, release, words.clone());
                words
            }
        }
    }
}

/// The corruption class index of a payload bit flip — the only class
/// that leaves the packet's header valid, so it is the only one a
/// multi-hop fabric can still route end-to-end.
pub const CLASS_PAYLOAD_FLIP: usize = 6;

/// The corruption gauntlet for one offered packet. Every fault class
/// draws in a fixed order (zero-rate classes consume no randomness),
/// then the first hit — if any — is applied to a copy of the packet's
/// wire words, so a campaign is a pure function of
/// `(plan, offer sequence)`. Returns `None` for a clean pass, or the
/// hit class index and the corrupted words.
pub fn corrupt_offer(
    plan: &FaultPlan,
    rng: &mut CorruptRng,
    injected: &mut InjectedFaults,
    pkt: &Packet,
) -> Option<(usize, Vec<u32>)> {
    let hits: Vec<bool> = plan
        .rates()
        .iter()
        .map(|&ppm| rng.chance_ppm(ppm))
        .collect();
    let class = hits.iter().position(|&h| h)?;
    let mut words = pkt.to_words();
    match class {
        0 => {
            corrupt::flip_header_bit(&mut words, rng);
            injected.header_flips += 1;
        }
        1 => {
            corrupt::bad_checksum(&mut words, rng);
            injected.bad_checksums += 1;
        }
        2 => {
            corrupt::bad_version(&mut words, rng);
            injected.bad_versions += 1;
        }
        3 => {
            corrupt::bad_ihl(&mut words, rng);
            injected.bad_ihls += 1;
        }
        4 => {
            corrupt::expire_ttl(&mut words, rng);
            injected.ttl_expires += 1;
        }
        5 => {
            // A line that loses a tail goes quiet for the cut's
            // duration: pad with idle frames back to the claimed
            // length so the wire framing (and the ingress ingest
            // chunking) stays aligned with the next packet.
            let claimed = words.len();
            corrupt::truncate_tail(&mut words, rng);
            words.resize(claimed, WIRE_IDLE);
            injected.truncations += 1;
        }
        _ => {
            corrupt::flip_payload_bit(&mut words, rng);
            injected.payload_flips += 1;
        }
    }
    Some((class, words))
}

/// What the recorder must conserve, as a list of human-readable
/// violations (empty == healthy): the per-tile `busy + idle + stall`
/// cycle accounting still closes (delegated to
/// [`Recorder::conservation_violations`]). The packets and the drop
/// counters are [`raw_xbar::reference::audit`]'s business.
pub fn conservation_errors(r: &RawRouter, rec: &Recorder) -> Vec<String> {
    let v = rec.conservation_violations(r.machine.cycle());
    if v.is_empty() {
        Vec::new()
    } else {
        vec![format!("tile cycle-state conservation violated on {v:?}")]
    }
}

/// FNV-1a digest of everything observable about a finished run: per-port
/// delivered streams (arrival cycle and exact words), classified drop
/// counters, and the final machine cycle. Two runs of the same plan on
/// the same traffic — in either engine mode — must produce equal
/// fingerprints.
pub fn fingerprint(r: &RawRouter) -> u64 {
    let mut h = Fnv1a::default();
    for p in 0..NPORTS {
        for (cycle, pkt) in &r.collected(p).packets {
            h.mix(*cycle);
            for w in pkt.to_words() {
                h.mix(u64::from(w));
            }
        }
    }
    for d in r.drop_reasons() {
        h.mix(d);
    }
    h.mix(r.offered());
    h.mix(r.machine.cycle());
    h.finish()
}

/// The observable outcome of one chaos campaign.
#[derive(Clone, Debug, Serialize)]
pub struct ChaosRunResult {
    pub offered: u64,
    pub delivered: u64,
    pub dropped: u64,
    /// Aggregated per-reason drops, indexed by [`DropReason::index`].
    pub drops: [u64; DropReason::COUNT],
    pub injected: InjectedFaults,
    /// Forced lookup misses that actually fired, summed over ports.
    pub lookup_misses: u64,
    pub cycles: u64,
    /// Whether accounting closed before the deadline (no deadlock/wedge).
    pub drained: bool,
    pub fingerprint: u64,
    pub summary: TelemetrySummary,
    /// Disagreements with the reference and conservation violations
    /// (empty == graceful degradation held).
    pub errors: Vec<String>,
}

/// Run one full campaign: build a [`ChaosRouter`] with a telemetry
/// recorder attached, offer the schedule through the corruption
/// gauntlet, run until every packet is delivered or dropped (or
/// `max_cycles` pass), then [`audit`] the run against the reference —
/// fed the corrupted streams — and collect [`conservation_errors`].
pub fn run_chaos(
    cfg: RouterConfig,
    table: Arc<ForwardingTable>,
    plan: &FaultPlan,
    sched: &[ScheduledPacket],
    max_cycles: u64,
) -> Result<ChaosRunResult, String> {
    let sink: SharedSink = shared(Recorder::new(16, NUM_STATIC_NETS));
    let mut cr = ChaosRouter::try_new(cfg, table, plan.clone(), Some(sink.clone()))?;
    let offered: Vec<(usize, Vec<u32>)> = sched
        .iter()
        .map(|sp| (sp.port, cr.offer(sp.port, sp.release, &sp.packet)))
        .collect();
    let drained = cr.router.run_until_drained(max_cycles);
    let r = &cr.router;
    let mut errors = audit(
        r,
        offered.iter().map(|(port, words)| (*port, words)),
        drained,
    );
    let drops: [_; NPORTS] = std::array::from_fn(|p| r.ingress_stats(p).drops);
    let summary = with_sink::<Recorder, _>(&sink, |rec| {
        errors.extend(conservation_errors(r, rec));
        rec.summary(&drops)
    });
    if !drained {
        errors.push(format!(
            "accounting did not close within {max_cycles} cycles \
             (offered {} delivered {} dropped {})",
            r.offered(),
            r.delivered_count(),
            r.dropped_count()
        ));
    }
    Ok(ChaosRunResult {
        offered: r.offered(),
        delivered: r.delivered_count(),
        dropped: r.dropped_count(),
        drops: r.drop_reasons(),
        injected: cr.injected,
        lookup_misses: r
            .lk_stats
            .iter()
            .map(|s| s.lock().unwrap().injected_misses)
            .sum(),
        cycles: r.machine.cycle(),
        drained,
        fingerprint: fingerprint(r),
        summary,
        errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_workloads::{generate, Workload};
    use raw_xbar::port_table;

    fn voq_cfg() -> RouterConfig {
        RouterConfig {
            quantum_words: 16,
            cut_through: true,
            queueing: IngressQueueing::Voq,
            ..RouterConfig::default()
        }
    }

    #[test]
    fn truncation_without_voq_is_rejected() {
        let plan = FaultPlan {
            truncate_ppm: 1,
            ..FaultPlan::zero(1)
        };
        let err = plan.validate(&RouterConfig::default()).unwrap_err();
        assert!(err.contains("Voq"), "{err}");
        assert!(plan.validate(&voq_cfg()).is_ok());
    }

    #[test]
    fn out_of_range_specs_are_rejected() {
        let cfg = RouterConfig::default();
        let plan = FaultPlan {
            tile_stalls: vec![StallSpec {
                port: 4,
                element: 0,
                start: 0,
                len: 1,
            }],
            ..FaultPlan::zero(1)
        };
        assert!(plan.validate(&cfg).is_err());
        let plan = FaultPlan {
            header_flip_ppm: 1_000_001,
            ..FaultPlan::zero(1)
        };
        assert!(plan.validate(&cfg).is_err());
        let plan = FaultPlan {
            output_stalls: vec![WindowSpec {
                port: 9,
                start: 0,
                len: 1,
            }],
            ..FaultPlan::zero(1)
        };
        assert!(plan.validate(&cfg).is_err());
    }

    #[test]
    fn reference_plan_roundtrips_through_json() {
        let plan = FaultPlan::reference();
        assert_eq!(plan.seed, 0xC4A0);
        assert_eq!(plan.tile_stalls.len(), 16);
        assert!(plan.tile_stalls.iter().all(|s| s.len == 500));
        let s = serde_json::to_string_pretty(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&s).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn zero_rate_offers_consume_no_randomness_and_pass_through() {
        let sched = generate(&Workload::peak(64, 20));
        let mut cr =
            ChaosRouter::try_new(voq_cfg(), port_table(), FaultPlan::zero(0xBEEF), None).unwrap();
        let before = cr.rng.clone();
        for sp in &sched {
            cr.offer(sp.port, sp.release, &sp.packet);
        }
        // chance_ppm(0) short-circuits, so the RNG state is untouched.
        assert_eq!(cr.rng.next_u64(), before.clone().next_u64());
        assert_eq!(cr.injected, InjectedFaults::default());
        assert!(cr.router.run_until_drained(200_000));
        assert_eq!(cr.router.delivered_count(), sched.len() as u64);
    }

    #[test]
    fn every_fault_class_injects_and_is_accounted() {
        // Rates high enough that a 200-packet schedule hits every class.
        let plan = FaultPlan {
            header_flip_ppm: 120_000,
            payload_flip_ppm: 120_000,
            bad_checksum_ppm: 120_000,
            ttl_expire_ppm: 120_000,
            bad_version_ppm: 120_000,
            bad_ihl_ppm: 120_000,
            truncate_ppm: 120_000,
            lookup_miss_ppm: 50_000,
            lookup_penalty_cycles: 32,
            ..FaultPlan::zero(7)
        };
        let sched = generate(&Workload::peak(64, 50));
        let res = run_chaos(voq_cfg(), port_table(), &plan, &sched, 2_000_000).unwrap();
        assert!(res.errors.is_empty(), "{:?}", res.errors);
        assert!(res.drained);
        let i = res.injected;
        for (name, n) in [
            ("header_flips", i.header_flips),
            ("bad_checksums", i.bad_checksums),
            ("bad_versions", i.bad_versions),
            ("bad_ihls", i.bad_ihls),
            ("ttl_expires", i.ttl_expires),
            ("truncations", i.truncations),
            ("payload_flips", i.payload_flips),
        ] {
            assert!(n > 0, "fault class {name} never fired in 200 packets");
        }
        assert_eq!(res.dropped, i.expected_drops());
        assert_eq!(res.delivered, res.offered - res.dropped);
        assert!(res.lookup_misses > 0, "forced lookup misses never engaged");
    }
}
