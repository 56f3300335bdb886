//! Property battery: any clean (fault-free) workload on any topology,
//! epoch size, and spray mode must agree with the per-router reference
//! datapath ([`raw_fabric::audit`]: exactly-once, in order per ingress and
//! middle, byte for byte) and close the books the audit cannot see.

use std::panic::{self, AssertUnwindSafe};

use proptest::prelude::*;
use proptest::TestCaseError;

use raw_fabric::{audit, Executor, FabricConfig, RawFabric, SprayMode, Topology};
use raw_lookup::LookupMemModel;
use raw_workloads::{generate_n, Arrivals, Pattern, Workload};
use raw_xbar::{IngressQueueing, SchedKind};

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

/// Simulated cycles one drawn config may run for: enough for a few
/// packets to cross a Clos16, and short enough that an epoch of 1 stays
/// cheap.
const CYCLE_BUDGET: u64 = 16_384;

fn pick_arbiter(sel: u8, param: u32) -> SchedKind {
    match sel % 4 {
        0 => SchedKind::Islip { iters: param % 5 },
        1 => SchedKind::CrosspointQueued {
            capacity: param % 9,
        },
        _ => SchedKind::Token,
    }
}

/// True one time in `n`.
fn one_in(n: u8) -> impl Strategy<Value = bool> {
    (0..n).prop_map(|x| x == 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `validate` is total: whatever a `FabricConfig` holds, `try_new`
    /// returns the fabric or a typed error and never panics. A fabric
    /// whose epochs fit the cycle budget then runs a few packets (those
    /// longer than its quantum are refused, typed), and if it drains,
    /// the audit is clean. (A longer epoch — up to `u64::MAX` cycles — is
    /// still built, but one epoch of it is past any budget.) The draws
    /// lean toward values that build: about one case in six runs.
    #[test]
    fn any_config_builds_or_is_a_typed_error(
        seed in any::<u64>(),
        topo_sel in 0usize..3,
        epoch_cycles in prop_oneof![
            Just(0u64),
            Just(1u64),
            Just(u64::MAX),
            2u64..=4096,
            2u64..=4096,
            2u64..=4096,
            2u64..=4096,
            2u64..=4096,
        ],
        spray_sel in any::<bool>(),
        packet_bytes in 20usize..=256,
        quantum_words in prop_oneof![
            Just(0usize),
            Just(usize::MAX),
            0usize..=300,
            0usize..=300,
            0usize..=300,
            0usize..=300,
            0usize..=300,
            0usize..=300,
        ],
        store_and_forward in one_in(4),
        voq in any::<bool>(),
        arbiter in (any::<u8>(), any::<u32>()).prop_map(|(s, p)| pick_arbiter(s, p)),
        asm_crossbar in one_in(4),
        lookup_mem in prop_oneof![
            Just(None),
            Just(None),
            (0u32..=64, 0u32..=64, 0u32..=64).prop_map(|(o, l1, l2)| {
                Some(LookupMemModel { overhead_cycles: o, l1_cycles: l1, l2_cycles: l2 })
            }),
            (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(o, l1, l2)| {
                Some(LookupMemModel { overhead_cycles: o, l1_cycles: l1, l2_cycles: l2 })
            }),
        ],
    ) {
        let topology = [Topology::Single4, Topology::Folded8, Topology::Clos16][topo_sel];
        let mut cfg = FabricConfig {
            topology,
            epoch_cycles,
            spray: if spray_sel { SprayMode::Hash } else { SprayMode::LeastOccupancy },
            ..FabricConfig::default()
        };
        cfg.router.quantum_words = quantum_words;
        cfg.router.cut_through = !store_and_forward;
        cfg.router.queueing = if voq { IngressQueueing::Voq } else { IngressQueueing::Fifo };
        cfg.router.arbiter = arbiter;
        cfg.router.asm_crossbar = asm_crossbar;
        cfg.router.lookup_mem = lookup_mem;
        let what = format!("{cfg:?}");

        let built = panic::catch_unwind(AssertUnwindSafe(|| RawFabric::try_new(cfg)));
        let Ok(built) = built else {
            return Err(TestCaseError(format!("try_new panicked on {what}")));
        };
        let Ok(mut fab) = built else {
            return Ok(()); // a typed rejection
        };
        if epoch_cycles > CYCLE_BUDGET {
            return Ok(());
        }
        let w = Workload {
            pattern: Pattern::FabricUniform,
            arrivals: Arrivals::Saturation,
            packet_bytes,
            packets_per_port: 2,
            seed,
            ttl: 64,
        };
        for s in generate_n(&w, topology.ext_ports()) {
            // A packet longer than the quantum is refused, typed.
            if let Err(e) = fab.try_offer(s.port, s.release, &s.packet) {
                prop_assert!(s.packet.total_words() > quantum_words, "{what}: {e}");
            }
        }
        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
            let drained =
                fab.run_until_drained_with(CYCLE_BUDGET / epoch_cycles, Executor::Reference);
            if drained {
                audit(&fab, true)
            } else {
                Vec::new()
            }
        }));
        let Ok(errs) = ran else {
            return Err(TestCaseError(format!("the run panicked on {what}")));
        };
        prop_assert!(errs.is_empty(), "{what}: {errs:#?}");
    }
}
