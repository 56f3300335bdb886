//! One-cell probe for sizing/wedge diagnosis:
//! fabric_probe <topology> <spray> <epoch> <ppp> [sharded] [drain]
//!
//! Default mode steps in 50-epoch chunks with per-chunk progress (so a
//! wedged cell shows *where* it stopped moving); `drain` mode runs the
//! exact `run_until_drained` path the fabric experiment uses.

use raw_fabric::{Executor, FabricConfig, RawFabric, SprayMode, Topology};
use raw_workloads::{generate_n, Arrivals, Pattern, Workload};

fn main() {
    let a: Vec<String> = std::env::args().skip(1).collect();
    let topology = match a[0].as_str() {
        "single4" => Topology::Single4,
        "folded8" => Topology::Folded8,
        _ => Topology::Clos16,
    };
    let spray = if a[1] == "lo" {
        SprayMode::LeastOccupancy
    } else {
        SprayMode::Hash
    };
    let epoch: u64 = a[2].parse().unwrap();
    let ppp: usize = a[3].parse().unwrap();
    let exec = if a.get(4).map(String::as_str) == Some("sharded") {
        Executor::Sharded { shards: 0 }
    } else {
        Executor::Reference
    };
    let cfg = FabricConfig {
        topology,
        epoch_cycles: epoch,
        spray,
        ..FabricConfig::default()
    };
    let w = Workload {
        pattern: Pattern::FabricUniform,
        arrivals: Arrivals::Saturation,
        packet_bytes: 64,
        packets_per_port: ppp,
        seed: 42,
        ttl: 64,
    };
    let mut fab = RawFabric::try_new(cfg).unwrap();
    for s in generate_n(&w, topology.ext_ports()) {
        fab.offer(s.port, s.release, &s.packet);
    }
    if a.get(5).map(String::as_str) == Some("drain") {
        let ok = fab.run_until_drained_with(500_000, exec);
        eprintln!(
            "drained={ok} epochs {} delivered {}/{} dropped {}",
            fab.epochs_run(),
            fab.delivered_count(),
            fab.offered(),
            fab.dropped_count()
        );
        eprintln!("errors: {:?}", fab.conservation_errors());
        return;
    }
    // Step in chunks so progress is visible.
    for chunk in 0..200 {
        fab.run_epochs_with(50, exec);
        eprintln!(
            "chunk {chunk}: epochs {} cycle {} delivered {}/{} dropped {}",
            fab.epochs_run(),
            fab.cycle(),
            fab.delivered_count(),
            fab.offered(),
            fab.dropped_count()
        );
        if fab.delivered_count() + fab.dropped_count() >= fab.offered() {
            break;
        }
    }
    eprintln!("errors: {:?}", fab.conservation_errors());
}
