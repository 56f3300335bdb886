//! The whole-fabric static verifier against the real topologies: every
//! shipped configuration proves clean, and every seeded mutant — most
//! importantly the *historical* FIFO-ingress deadlock this repo actually
//! hit and fixed — is rejected statically with its specific diagnostic,
//! before a single router would be built. Link sizing is the config
//! gate's: each `RV7xx` code is reached by a `FabricConfig`.

use proptest::prelude::*;

use raw_chaos::{ChaosFabric, FabricFaultPlan, FaultPlan, LinkStallSpec};
use raw_fabric::{
    audit, plan, verify_fabric, verify_spec, Executor, FabricConfig, FabricConfigError,
    FabricError, RawFabric, SprayMode, Topology,
};
use raw_workloads::{generate_n, Arrivals, Pattern, Workload};
use raw_xbar::IngressQueueing;

const SHIPPED: [Topology; 4] = [
    Topology::Single4,
    Topology::Folded8,
    Topology::Clos16,
    Topology::Clos64,
];

fn cfg_for(t: Topology) -> FabricConfig {
    FabricConfig {
        topology: t,
        ..FabricConfig::default()
    }
}

fn codes(cfg: &FabricConfig) -> Vec<&'static str> {
    verify_fabric(cfg).diags.iter().map(|d| d.code).collect()
}

// ---------------------------------------------------------------------
// Positive: everything the repo ships proves clean.
// ---------------------------------------------------------------------

#[test]
fn every_shipped_topology_and_spray_verifies_clean() {
    for t in SHIPPED {
        for spray in [SprayMode::Hash, SprayMode::LeastOccupancy] {
            for epoch in [128u64, 256, 512] {
                let cfg = FabricConfig {
                    spray,
                    epoch_cycles: epoch,
                    ..cfg_for(t)
                };
                let v = verify_fabric(&cfg);
                assert!(
                    v.diags.is_empty(),
                    "{t:?}/{spray:?}/epoch {epoch}: {:?}",
                    v.diags
                );
                // The analyses actually covered something.
                assert!(v.route_walks > 0);
                assert!(v.coverage_points > 0);
                if t != Topology::Single4 {
                    assert!(v.cdg_nodes > 0 && v.cdg_edges > 0);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Historical deadlock: the pre-VOQ default. FIFO ingress head-of-line
// coupling closes the folded topology's leaf<->spine channel-dependency
// cycle — found dynamically back then, caught statically now.
// ---------------------------------------------------------------------

#[test]
fn pre_voq_fifo_ingress_on_folded8_is_rejected_as_rv502() {
    let mut cfg = cfg_for(Topology::Folded8);
    cfg.router.queueing = IngressQueueing::Fifo;
    let got = codes(&cfg);
    assert!(got.contains(&"RV502"), "{got:?}");
    assert!(
        !got.contains(&"RV501"),
        "cycle must be escape-fixable: {got:?}"
    );

    // try_new refuses to build it, with the verifier's diagnostics.
    match RawFabric::try_new(cfg) {
        Err(FabricError::Verify(diags)) => {
            assert!(diags.iter().any(|d| d.code == "RV502"), "{diags:?}")
        }
        Err(other) => panic!("expected Verify rejection, got {other}"),
        Ok(_) => panic!("expected Verify rejection, fabric was built"),
    }
}

/// Sharpness: the 3-stage Clos is feed-forward — FIFO ingress gives up
/// HOL throughput but cannot deadlock it, and the verifier must know
/// the difference rather than blanket-ban FIFO.
#[test]
fn fifo_ingress_on_feed_forward_clos16_stays_clean() {
    let mut cfg = cfg_for(Topology::Clos16);
    cfg.router.queueing = IngressQueueing::Fifo;
    assert_eq!(codes(&cfg), Vec::<&str>::new());
    assert!(RawFabric::try_new(cfg).is_ok());
}

// ---------------------------------------------------------------------
// Routing mutants (RV6xx): truncated tables, misroutes, dangling
// ports, spray disagreements.
// ---------------------------------------------------------------------

#[test]
fn truncating_a_middle_router_table_is_a_coverage_hole() {
    let mut p = plan(Topology::Clos16);
    // Middle router 4 loses its d=15 rule *and* the default route — the
    // /16 space is no longer covered.
    p.routers[4]
        .routes
        .retain(|r| r.len == 16 && (r.prefix >> 16) & 0xff != 15);
    let v = verify_spec(&p, &cfg_for(Topology::Clos16));
    assert!(v.diags.iter().any(|d| d.code == "RV601"), "{:?}", v.diags);
}

#[test]
fn a_misrouting_middle_stage_is_a_misdelivery() {
    let mut p = plan(Topology::Clos16);
    // Middle router 4 sends d=0 to egress port 3 (egress router 11)
    // instead of port 0: delivered, but at the wrong external output.
    for r in &mut p.routers[4].routes {
        if r.len == 16 && (r.prefix >> 16) & 0xff == 0 {
            r.next_hop = 3;
        }
    }
    let v = verify_spec(&p, &cfg_for(Topology::Clos16));
    assert!(v.diags.iter().any(|d| d.code == "RV603"), "{:?}", v.diags);
}

#[test]
fn a_route_out_an_unwired_port_is_a_dangling_egress() {
    let mut p = plan(Topology::Clos16);
    for r in &mut p.routers[4].routes {
        if r.len == 16 && (r.prefix >> 16) & 0xff == 7 {
            r.next_hop = 7; // no such port on a 4-port router
        }
    }
    let v = verify_spec(&p, &cfg_for(Topology::Clos16));
    assert!(v.diags.iter().any(|d| d.code == "RV604"), "{:?}", v.diags);
}

#[test]
fn a_spine_bouncing_traffic_back_down_is_a_routing_loop() {
    let mut p = plan(Topology::Folded8);
    // Spine 4 sends d=0 to leaf 1 instead of leaf 0; leaf 1 sprays it
    // back up — the walk revisits the spine, and the bounced traffic's
    // waits close a channel-dependency cycle no escape valve breaks.
    for r in &mut p.routers[4].routes {
        if r.len == 16 && (r.prefix >> 16) & 0xff == 0 {
            r.next_hop = 1;
        }
    }
    let v = verify_spec(&p, &cfg_for(Topology::Folded8));
    for code in ["RV602", "RV501"] {
        assert!(
            v.diags.iter().any(|d| d.code == code),
            "{code}: {:?}",
            v.diags
        );
    }
}

/// The recursive Clos fabrics at full scale: the verifier's exhaustive
/// (src, dst, spray) walks — every destination across the whole /16
/// experiment address space from every distinct ingress table — prove
/// reachability with zero diagnostics, and the deduplicated coverage
/// numbers confirm nothing was skipped. (Walks are grouped by ingress
/// router and spray: Clos64 has 16 ingress routers x 64 dests x 16
/// sprays = 16384 walks; Clos256 has 64 x 256 x 64 = 1,048,576.)
#[test]
fn clos64_and_clos256_route_walks_are_exhaustive_and_clean() {
    for (t, walks) in [(Topology::Clos64, 16_384), (Topology::Clos256, 1_048_576)] {
        let v = verify_fabric(&cfg_for(t));
        assert!(v.diags.is_empty(), "{t:?}: {:?}", v.diags);
        assert_eq!(v.route_walks, walks, "{t:?} walk count");
        assert!(v.coverage_points > 0 && v.cdg_nodes > 0, "{t:?}");
    }
}

/// Coverage-hole mutant at scale: a middle-stage Clos64 router that
/// loses one destination rule plus its default route leaves part of the
/// /16 space unrouted — RV601, found by the same exhaustive walk.
#[test]
fn truncating_a_clos64_middle_table_is_a_coverage_hole() {
    let mut p = plan(Topology::Clos64);
    // Stage 2 (the middle of 5) router 0 is at index 2*16. Its rules
    // are /16 per destination; drop d=63 and the default.
    p.routers[2 * 16]
        .routes
        .retain(|r| r.len == 16 && (r.prefix >> 16) & 0xff != 63);
    let v = verify_spec(&p, &cfg_for(Topology::Clos64));
    assert!(v.diags.iter().any(|d| d.code == "RV601"), "{:?}", v.diags);
}

#[test]
fn truncating_a_clos256_middle_table_is_a_coverage_hole() {
    let mut p = plan(Topology::Clos256);
    // Stage 3 (the middle of 7) router 0 is at index 3*64.
    p.routers[3 * 64]
        .routes
        .retain(|r| r.len == 16 && (r.prefix >> 16) & 0xff != 255);
    let v = verify_spec(&p, &cfg_for(Topology::Clos256));
    assert!(v.diags.iter().any(|d| d.code == "RV601"), "{:?}", v.diags);
}

/// Loop mutant at scale: the recursive Clos wiring is strictly
/// feed-forward, so a loop can only come from miswired *links*, not
/// tables. Bend one middle-stage link back onto its own sender: the
/// walk leaves the router and arrives right back at it — RV602.
#[test]
fn a_clos64_link_bent_back_on_its_sender_is_a_routing_loop() {
    let mut p = plan(Topology::Clos64);
    let li = p
        .links
        .iter()
        .position(|l| p.routers[l.from.0].stage == 2)
        .expect("middle-stage link");
    let from_r = p.links[li].from.0;
    p.links[li].to = (from_r, 0);
    let v = verify_spec(&p, &cfg_for(Topology::Clos64));
    assert!(v.diags.iter().any(|d| d.code == "RV602"), "{:?}", v.diags);
}

#[test]
fn a_clos256_link_bent_back_on_its_sender_is_a_routing_loop() {
    let mut p = plan(Topology::Clos256);
    let li = p
        .links
        .iter()
        .position(|l| p.routers[l.from.0].stage == 3)
        .expect("middle-stage link");
    let from_r = p.links[li].from.0;
    p.links[li].to = (from_r, 0);
    let v = verify_spec(&p, &cfg_for(Topology::Clos256));
    assert!(v.diags.iter().any(|d| d.code == "RV602"), "{:?}", v.diags);
}

#[test]
fn swapped_ingress_uplinks_break_spray_agreement() {
    let mut p = plan(Topology::Clos16);
    // The table still routes (d, m) out port m, but the declared uplink
    // map now claims spray 0 rides what is physically uplink 1.
    p.uplinks[0].swap(0, 1);
    let v = verify_spec(&p, &cfg_for(Topology::Clos16));
    assert!(v.diags.iter().any(|d| d.code == "RV605"), "{:?}", v.diags);
}

// ---------------------------------------------------------------------
// Link sizing (RV7xx) is `FabricConfig::validate`'s: every code is
// reached by a config, through `validate` and through `try_new`.
// ---------------------------------------------------------------------

/// Link sizing derived from an epoch so long that the stall threshold
/// saturates (`epoch_cycles: u64::MAX`, `quantum_words: 0`).
fn saturated_sizing() -> FabricConfig {
    let mut cfg = cfg_for(Topology::Clos16);
    cfg.epoch_cycles = u64::MAX;
    cfg.router.quantum_words = 0;
    cfg
}

#[test]
fn credit_mutants_fail_validate_and_verify_with_the_same_code() {
    let mut store_fwd = cfg_for(Topology::Folded8);
    store_fwd.router.cut_through = false;
    let zero_epoch = FabricConfig {
        epoch_cycles: 0,
        ..cfg_for(Topology::Clos16)
    };
    for (cfg, want) in [
        (saturated_sizing(), "RV701"),
        (store_fwd, "RV704"),
        (zero_epoch, "RV705"),
    ] {
        let err = cfg.validate().expect_err("mutant must fail validate");
        assert_eq!(err.code(), want, "{err:?}");
        // try_new rejects it at the scalar gate, typed.
        match RawFabric::try_new(cfg) {
            Err(FabricError::Config(e)) => assert_eq!(e.code(), want),
            Err(other) => panic!("expected Config rejection, got {other}"),
            Ok(_) => panic!("expected Config rejection, fabric was built"),
        }
    }
}

/// A router configuration the routers cannot be built on surfaces as the
/// typed router error, not as a panic in the fabric's own credit sizing,
/// which reads the quantum first.
#[test]
fn a_bad_router_machine_config_is_a_typed_router_error() {
    let mut cfg = cfg_for(Topology::Clos16);
    cfg.router.quantum_words = usize::MAX;
    match RawFabric::try_new(cfg) {
        Err(FabricError::Router(e)) => assert!(e.contains("quantum"), "{e}"),
        Err(other) => panic!("expected Router rejection, got {other}"),
        Ok(_) => panic!("expected Router rejection, fabric was built"),
    }
}

/// The saturated sizing's typed error carries the capacity and the
/// stall threshold it cannot hold, in its fields and its message.
#[test]
fn capacity_error_carries_the_sizing_numbers() {
    let cfg = saturated_sizing();
    let (capacity, threshold) = (cfg.link_capacity(), cfg.emission_bound());
    let err = cfg.validate().expect_err("saturated sizing");
    assert_eq!(
        err,
        FabricConfigError::UndersizedLink {
            capacity,
            threshold
        }
    );
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("capacity {capacity}"))
            && msg.contains(&format!("threshold {threshold}")),
        "{msg}"
    );
}

/// A saturated link sizing is a typed rejection at `validate`, not a
/// panic: the capacity check cannot overflow.
#[test]
fn a_saturated_link_sizing_is_rejected_not_a_panic() {
    let cfg = saturated_sizing();
    assert_eq!(cfg.link_capacity(), cfg.emission_bound(), "saturated");
    match RawFabric::try_new(cfg) {
        Err(FabricError::Config(e)) => assert_eq!(e.code(), "RV701", "{e}"),
        Err(other) => panic!("expected Config rejection, got {other}"),
        Ok(_) => panic!("expected Config rejection, fabric was built"),
    }
}

// ---------------------------------------------------------------------
// Property sweep + differential: whatever the verifier accepts must
// also survive dynamically, faults included.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every shipped topology × spray × epoch verifies clean: zero
    /// false positives across the configuration space the repo actually
    /// exposes (link sizing follows from the epoch).
    #[test]
    fn topology_spray_capacity_sweep_has_no_false_positives(
        topo_sel in 0usize..4,
        spray_sel in any::<bool>(),
        epoch_sel in 0usize..3,
    ) {
        let mut cfg = cfg_for(SHIPPED[topo_sel]);
        cfg.spray = if spray_sel { SprayMode::Hash } else { SprayMode::LeastOccupancy };
        cfg.epoch_cycles = [128u64, 256, 512][epoch_sel];
        prop_assert!(cfg.validate().is_ok());
        let v = verify_fabric(&cfg);
        prop_assert!(v.diags.is_empty(), "{:?}: {:?}", cfg.topology, v.diags);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Differential gate: a config the static verifier accepts must pass
    /// the audit and close its books under a chaos campaign (corruption
    /// at every input plus an inter-router link stall). The verifier's
    /// "statically safe" and the executor's "dynamically safe" have to
    /// agree on the accept side, not just the reject side.
    #[test]
    fn verifier_accepted_configs_survive_a_chaos_campaign(
        seed in any::<u64>(),
        topo_sel in 1usize..3, // Folded8 / Clos16 — the fabrics with links
        epoch_sel in 0usize..2,
    ) {
        let mut cfg = cfg_for(SHIPPED[topo_sel]);
        cfg.epoch_cycles = [256u64, 512][epoch_sel];
        prop_assert!(verify_fabric(&cfg).diags.is_empty());

        let mut packet = FaultPlan::zero(seed);
        packet.header_flip_ppm = 80_000;
        packet.payload_flip_ppm = 80_000;
        packet.ttl_expire_ppm = 40_000;
        let fault_plan = FabricFaultPlan {
            packet,
            link_stalls: vec![LinkStallSpec {
                link: (seed % 16) as usize,
                start_epoch: 2,
                epochs: 3,
            }],
            ext_input_pauses: Vec::new(),
            ext_output_stalls: Vec::new(),
        };
        let nports = cfg.topology.ext_ports();
        let w = Workload {
            pattern: Pattern::FabricUniform,
            arrivals: Arrivals::Saturation,
            packet_bytes: 64,
            packets_per_port: 6,
            seed,
            ttl: 64,
        };
        let mut cf = ChaosFabric::try_new(cfg, fault_plan).unwrap();
        for sp in generate_n(&w, nports) {
            cf.offer(sp.port, sp.release, &sp.packet);
        }
        prop_assert!(cf.fabric.run_until_drained_with(50_000, Executor::Reference), "fabric wedged");
        let errs = audit(&cf.fabric, true);
        prop_assert!(errs.is_empty(), "seed {seed:#x}: {errs:#?}");
        prop_assert_eq!(
            cf.fabric.offered(),
            (nports * w.packets_per_port) as u64
        );
    }
}
