//! Fault injection against a whole [`raw_fabric::RawFabric`]: the
//! packet-corruption gauntlet at every external input, plus
//! fabric-level faults — inter-router link stalls, external line-card
//! pauses, and external egress backpressure windows.
//!
//! The graceful-degradation contract scales up unchanged: whatever the
//! plan, the run must pass [`raw_fabric::audit`] — every drop in the
//! classified bucket of the router the per-router reference names, every
//! survivor at its output byte for byte, in order per ingress and middle
//! stage — and links must never lose a packet. Forced lookup misses are
//! held to the count planes only: a miss falls back to the default route,
//! putting part of a flow on a different middle stage than its pinned
//! path.

use raw_fabric::{FabricConfig, RawFabric};
use raw_net::{CorruptRng, Packet};
use raw_xbar::LookupFault;
use serde::{Deserialize, Serialize};

use crate::{corrupt_offer, FaultPlan, InjectedFaults, WindowSpec, CLASS_PAYLOAD_FLIP};

/// Freeze one inter-router link's drain for a window of epochs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStallSpec {
    pub link: usize,
    pub start_epoch: u64,
    pub epochs: u64,
}

/// A fault campaign against a fabric: per-packet corruption (reusing
/// the single-router [`FaultPlan`], applied at the external inputs)
/// plus fabric-topology faults. `WindowSpec::port` names an *external*
/// port here; windows are in cycles, link stalls in epochs.
#[derive(Clone, Debug)]
pub struct FabricFaultPlan {
    pub packet: FaultPlan,
    pub link_stalls: Vec<LinkStallSpec>,
    pub ext_input_pauses: Vec<WindowSpec>,
    pub ext_output_stalls: Vec<WindowSpec>,
}

impl FabricFaultPlan {
    /// All rates zero, no windows — the clean baseline.
    pub fn zero(seed: u64) -> FabricFaultPlan {
        FabricFaultPlan {
            packet: FaultPlan::zero(seed),
            link_stalls: Vec::new(),
            ext_input_pauses: Vec::new(),
            ext_output_stalls: Vec::new(),
        }
    }
}

/// A [`RawFabric`] with a [`FabricFaultPlan`] armed: lookup faults in
/// every member router, link/line-card windows installed, and every
/// external offer passed through the corruption gauntlet.
pub struct ChaosFabric {
    pub fabric: RawFabric,
    pub plan: FabricFaultPlan,
    pub injected: InjectedFaults,
    rng: CorruptRng,
}

impl ChaosFabric {
    pub fn try_new(mut cfg: FabricConfig, plan: FabricFaultPlan) -> Result<ChaosFabric, String> {
        plan.packet.validate(&cfg.router)?;
        if plan.packet.lookup_miss_ppm > 0 {
            // Same fault stream seed in every router: each router's
            // processors draw independently, so the campaign stays a
            // pure function of the plan.
            cfg.router.lookup_fault = Some(LookupFault {
                seed: plan.packet.seed ^ 0x6c6f_6f6b_7570_5f21,
                miss_ppm: plan.packet.lookup_miss_ppm,
                penalty_cycles: plan.packet.lookup_penalty_cycles,
            });
        }
        let mut fabric = RawFabric::try_new(cfg).map_err(|e| e.to_string())?;
        for s in &plan.link_stalls {
            fabric.stall_link(s.link, s.start_epoch, s.epochs);
        }
        for w in &plan.ext_input_pauses {
            fabric.pause_ext_input(w.port, w.start, w.len);
        }
        for w in &plan.ext_output_stalls {
            fabric.stall_ext_output(w.port, w.start, w.len);
        }
        let rng = CorruptRng::new(plan.packet.seed);
        Ok(ChaosFabric {
            fabric,
            plan,
            injected: InjectedFaults::default(),
            rng,
        })
    }

    /// Offer one packet at external port `ext` through the gauntlet.
    /// A payload flip leaves the header valid, so the packet is
    /// re-parsed and offered normally — it gets sprayed and stamped
    /// like its flow-mates and traverses the fabric end-to-end. Every
    /// header-damaging class goes in as raw words and dies, classified,
    /// at the ingress stage.
    pub fn offer(&mut self, ext: usize, release: u64, pkt: &Packet) {
        match corrupt_offer(&self.plan.packet, &mut self.rng, &mut self.injected, pkt) {
            None => self.fabric.offer(ext, release, pkt),
            Some((CLASS_PAYLOAD_FLIP, words)) => {
                let flipped = Packet::from_words(&words)
                    .expect("a payload flip cannot invalidate the header");
                self.fabric.offer(ext, release, &flipped);
            }
            Some((_, words)) => self.fabric.offer_raw(ext, release, words),
        }
    }
}
