//! The engine differential on a fabric: a Clos16 whose routers run the
//! per-cycle interpreter (`EngineMode::PerCycle`, the reference) must
//! stay in lockstep, epoch by epoch, with one whose routers run the fast
//! engine (`EngineMode::Compiled`, the lowered plan plus sleep). Traffic
//! enters on two of the sixteen external ports, sparsely, so most routers
//! sit drained for most epochs: the quiet cycles the fast engine covers by
//! leaving stalled tiles and switches asleep.

use raw_fabric::{audit, Executor, FabricConfig, RawFabric, Topology};
use raw_workloads::{generate_n, Arrivals, Pattern, Workload};
use raw_xbar::raw_sim::{lockstep, EngineMode};

/// Epochs stepped: the last release falls well inside, so the tail runs
/// a drained fabric.
const EPOCHS: u64 = 96;

/// The external ports traffic enters on.
const SOURCES: [usize; 2] = [0, 9];

fn build(engine: EngineMode) -> RawFabric {
    let mut cfg = FabricConfig {
        topology: Topology::Clos16,
        epoch_cycles: 256,
        ..FabricConfig::default()
    };
    cfg.router.raw.engine = engine;
    let w = Workload {
        pattern: Pattern::FabricUniform,
        arrivals: Arrivals::Bernoulli {
            slot_cycles: 512,
            p_mille: 400,
        },
        packet_bytes: 64,
        packets_per_port: 6,
        seed: 46,
        ttl: 64,
    };
    let mut fab = RawFabric::try_new(cfg).expect("valid config");
    for s in generate_n(&w, Topology::Clos16.ext_ports()) {
        if SOURCES.contains(&s.port) {
            fab.offer(s.port, s.release, &s.packet);
        }
    }
    fab
}

#[test]
fn compiled_routers_match_per_cycle_routers_on_a_mostly_idle_clos16() {
    let (mut reference, mut fast) = (build(EngineMode::PerCycle), build(EngineMode::Compiled));
    assert_eq!(reference.offered(), 12);
    let found = lockstep(
        &mut reference,
        &mut fast,
        |fab, _| fab.run_epochs_with(1, Executor::Reference),
        RawFabric::digests,
        EPOCHS,
    );
    assert_eq!(found, None);
    for fab in [&reference, &fast] {
        assert_eq!(fab.delivered_count(), fab.offered(), "not drained");
        let errs = audit(fab, true);
        assert!(errs.is_empty(), "{errs:#?}");
    }
    for ext in 0..Topology::Clos16.ext_ports() {
        assert_eq!(
            reference.delivered(ext),
            fast.delivered(ext),
            "output {ext}"
        );
    }
}
