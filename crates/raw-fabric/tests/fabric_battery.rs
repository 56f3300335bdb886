//! End-to-end fabric battery: every run must agree with the per-router
//! reference datapath ([`raw_fabric::audit`]), and congestion must engage
//! the credit-based backpressure instead of losing packets.

use raw_fabric::{audit, Executor, FabricConfig, RawFabric, SprayMode, Topology};
use raw_workloads::{generate_n, Arrivals, Pattern, Workload};

/// The multi-shard epoch loop at a fixed shard count, so what runs does
/// not depend on the host's core count.
const PARALLEL: Executor = Executor::Sharded { shards: 4 };

fn workload(pattern: Pattern, seed: u64, packets_per_port: usize) -> Workload {
    Workload {
        pattern,
        arrivals: Arrivals::Saturation,
        packet_bytes: 64,
        packets_per_port,
        seed,
        ttl: 64,
    }
}

fn cfg(topology: Topology, spray: SprayMode) -> FabricConfig {
    FabricConfig {
        topology,
        epoch_cycles: 256,
        spray,
        ..FabricConfig::default()
    }
}

fn build(cfg: FabricConfig, w: &Workload) -> RawFabric {
    let nports = cfg.topology.ext_ports();
    let mut fab = RawFabric::try_new(cfg).expect("valid config");
    for s in generate_n(w, nports) {
        fab.offer(s.port, s.release, &s.packet);
    }
    fab
}

/// Run an offered fabric dry and audit it before handing it back for
/// test-specific assertions.
fn drain(mut fab: RawFabric, exec: Executor) -> RawFabric {
    assert!(
        fab.run_until_drained_with(50_000, exec),
        "fabric failed to drain: offered={} delivered={} dropped={}",
        fab.offered(),
        fab.delivered_count(),
        fab.dropped_count()
    );
    let errs = audit(&fab, true);
    assert!(errs.is_empty(), "{errs:#?}");
    fab
}

fn run_fabric(cfg: FabricConfig, w: &Workload, exec: Executor) -> RawFabric {
    drain(build(cfg, w), exec)
}

#[test]
fn replaying_the_same_schedule_reproduces_the_fingerprint() {
    let w = workload(Pattern::FabricUniform, 7, 10);
    let a = run_fabric(
        cfg(Topology::Clos16, SprayMode::LeastOccupancy),
        &w,
        PARALLEL,
    );
    let b = run_fabric(
        cfg(Topology::Clos16, SprayMode::LeastOccupancy),
        &w,
        PARALLEL,
    );
    assert_eq!(a.fingerprint(), b.fingerprint());
}

#[test]
fn folded_clos_delivers_in_order_on_both_spray_modes() {
    for spray in [SprayMode::Hash, SprayMode::LeastOccupancy] {
        let w = workload(Pattern::FabricUniform, 9, 16);
        let fab = run_fabric(cfg(Topology::Folded8, spray), &w, PARALLEL);
        assert_eq!(fab.dropped_count(), 0, "spray {}", spray.name());
    }
}

#[test]
fn single_router_topology_is_a_working_degenerate_case() {
    let w = workload(Pattern::Uniform, 3, 20);
    let fab = run_fabric(
        cfg(Topology::Single4, SprayMode::Hash),
        &w,
        Executor::Reference,
    );
    assert_eq!(fab.delivered_count(), fab.offered());
    let s = fab.summary();
    assert!(s.links.is_empty(), "a single router has no fabric links");
    assert_eq!(s.backpressure_epochs, 0);
}

#[test]
fn cross_stage_hotspot_engages_backpressure_without_loss_accounting_errors() {
    // All 16 sources target egress group 2 (external ports 8..12), and
    // that group's external outputs are frozen for the first epochs: the
    // egress router backs up, the four middle->egress links into it
    // fill, and credits must stall the middle stage. (The hotspot alone
    // is not enough — a merely *contended* egress router sheds load as
    // classified drops at wire speed; only a *slow* receiver starves
    // link credits.)
    let w = workload(
        Pattern::CrossStageHotspot {
            group: 2,
            group_size: 4,
        },
        17,
        24,
    );
    let fcfg = cfg(Topology::Clos16, SprayMode::Hash);
    let stall_cycles = 12 * fcfg.epoch_cycles;
    let mut fab = build(fcfg, &w);
    for ext in 8..12 {
        fab.stall_ext_output(ext, 0, stall_cycles);
    }
    let fab = drain(fab, PARALLEL);
    assert!(
        fab.summary().backpressure_epochs > 0,
        "4:1 overload never tripped link credits"
    );
    // Only ports in the hotspot group receive anything.
    for ext in 0..16 {
        let got = fab.delivered(ext).len();
        if (8..12).contains(&ext) {
            assert!(got > 0, "hotspot port {ext} starved");
        } else {
            assert_eq!(got, 0, "port {ext} outside the hotspot got traffic");
        }
    }
}

#[test]
fn link_stalls_delay_but_never_lose_packets() {
    let w = workload(Pattern::FabricUniform, 21, 10);
    let mut cfg_stalled = cfg(Topology::Clos16, SprayMode::Hash);
    cfg_stalled.epoch_cycles = 256;
    let mut fab = build(cfg_stalled, &w);
    // Freeze several early links across the first epochs.
    for link in [0, 5, 17] {
        fab.stall_link(link, 1, 4);
    }
    let fab = drain(fab, PARALLEL);
    assert_eq!(fab.dropped_count(), 0);
    let s = fab.summary();
    let stalled: u64 = s.links.iter().map(|l| l.stalled_epochs).sum();
    assert!(stalled >= 12, "stall windows were not honored: {stalled}");
}
