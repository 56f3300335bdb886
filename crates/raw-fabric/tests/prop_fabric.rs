//! Property battery: any clean (fault-free) workload on any topology,
//! epoch size, and spray mode must agree with the per-router reference
//! datapath ([`raw_fabric::audit`]: exactly-once, in order per ingress and
//! middle, byte for byte) and close the books the audit cannot see.

use proptest::prelude::*;

use raw_fabric::{audit, Executor, FabricConfig, RawFabric, SprayMode, Topology};
use raw_workloads::{generate_n, Arrivals, Pattern, Workload};

fn pick_topology(sel: u8) -> Topology {
    if sel.is_multiple_of(2) {
        Topology::Folded8
    } else {
        Topology::Clos16
    }
}

fn pick_pattern(sel: u8, nports: usize, seed: u64) -> Pattern {
    match sel % 3 {
        0 => Pattern::FabricUniform,
        1 => Pattern::Permutation {
            shift: (seed % nports as u64) as u8,
        },
        _ => {
            let group_size = (nports / 4) as u8;
            Pattern::CrossStageHotspot {
                group: (seed % 4) as u8,
                group_size,
            }
        }
    }
}

fn build(topology: Topology, epoch_sel: u8, spray_sel: u8) -> FabricConfig {
    FabricConfig {
        topology,
        epoch_cycles: [128u64, 256, 512][(epoch_sel % 3) as usize],
        spray: if spray_sel.is_multiple_of(2) {
            SprayMode::Hash
        } else {
            SprayMode::LeastOccupancy
        },
        ..FabricConfig::default()
    }
}

fn run(cfg: FabricConfig, w: &Workload, exec: Executor) -> RawFabric {
    let nports = cfg.topology.ext_ports();
    let mut fab = RawFabric::try_new(cfg).expect("valid config");
    for s in generate_n(w, nports) {
        fab.offer(s.port, s.release, &s.packet);
    }
    assert!(fab.run_until_drained_with(50_000, exec), "fabric wedged");
    let errs = audit(&fab, true);
    assert!(errs.is_empty(), "{errs:#?}");
    fab
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Conservation and order on a clean fabric: `run` audits every
    /// delivery and drop, whatever the topology, pattern, epoch size, or
    /// spray mode.
    #[test]
    fn clean_runs_conserve_packets_and_flow_order(
        seed in any::<u64>(),
        topo_sel in any::<u8>(),
        pat_sel in any::<u8>(),
        epoch_sel in any::<u8>(),
        spray_sel in any::<u8>(),
    ) {
        let topology = pick_topology(topo_sel);
        let nports = topology.ext_ports();
        let w = Workload {
            pattern: pick_pattern(pat_sel, nports, seed),
            arrivals: Arrivals::Saturation,
            packet_bytes: 64,
            packets_per_port: 6,
            seed,
            ttl: 64,
        };
        let fab = run(build(topology, epoch_sel, spray_sel), &w, Executor::Reference);
        prop_assert_eq!(fab.offered(), (nports * w.packets_per_port) as u64);
    }
}
