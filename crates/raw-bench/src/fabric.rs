//! The §8.5 composition experiment: aggregate switching bandwidth of
//! multi-router Clos fabrics versus a single 4-port router and versus
//! the ring the paper rejects.
//!
//! Sweeps router count (1 / 6 / 12 via [`Topology`]), epoch size, and
//! spray mode on saturated fabric-uniform traffic. Every cell runs
//! twice through [`run_fabric`], which audits each run — the
//! single-threaded reference, then sharded on four shards — and the two
//! fingerprints must agree bit-for-bit; the
//! report then sets the ring-vs-Clos scaling story side by side using
//! the [`raw_xbar::ScalingCurve`] ring model, and extends the hash-spray
//! / 512-cycle-epoch column to the 64- and 256-port Clos.
//!
//! Every number here is simulated time: two runs at the same argument
//! serialise to the same bytes on any host.

use serde::{Deserialize, Serialize};

use raw_fabric::{Executor, FabricConfig, FabricSummary, SprayMode, Topology};
use raw_workloads::{generate_n, Arrivals, Pattern, Workload};
use raw_xbar::ScalingCurve;

use crate::run::run_fabric;

/// One sweep cell: a (topology, spray, epoch) point, run on both
/// executors.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FabricCell {
    pub topology: String,
    pub spray: String,
    pub epoch_cycles: u64,
    pub routers: usize,
    pub ext_ports: usize,
    pub offered: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub epochs: u64,
    pub cycles: u64,
    /// Aggregate delivered rate over the whole drained run.
    pub mpps: f64,
    pub gbps: f64,
    pub backpressure_epochs: u64,
    pub fingerprint: String,
    /// Sharded and single-threaded reference fingerprints agree.
    pub fingerprints_match: bool,
}

/// Ring versus Clos at the same external port count. `ring_norm` and
/// `fabric_norm` are per-port throughputs normalized to each model's
/// 4-port baseline; `fabric_speedup` is the raw aggregate-Mpps ratio
/// over the single router.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RingVsClosRow {
    pub ports: usize,
    pub ring_norm: f64,
    pub fabric_norm: f64,
    pub fabric_mpps: f64,
    pub fabric_speedup: f64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FabricReport {
    pub packet_bytes: usize,
    pub packets_per_port: usize,
    pub cells: Vec<FabricCell>,
    /// Best aggregate Mpps of the single router across its cells.
    pub single4_mpps: f64,
    /// Best aggregate Mpps of the 16-port Clos across its cells.
    pub clos16_mpps: f64,
    /// The headline: 16-port Clos over single 4-port router.
    pub clos_over_single: f64,
    pub all_fingerprints_match: bool,
    pub ring_curve: ScalingCurve,
    pub ring_vs_clos: Vec<RingVsClosRow>,
    /// Full telemetry summary (per-link stats, per-stage latency) of
    /// the best Clos16 cell.
    pub best_clos: FabricSummary,
    /// Per-port scaling curve, 4 -> 256 external ports: every shipped
    /// topology at hash spray and a 512-cycle epoch.
    pub scaling: Vec<FabricCell>,
}

const EPOCH_SWEEP: [u64; 3] = [128, 512, 2048];
const PACKET_BYTES: usize = 64;

/// The scaling-curve point of the sweep (one of [`EPOCH_SWEEP`]).
const SCALING_SPRAY: SprayMode = SprayMode::Hash;
const SCALING_EPOCH: u64 = 512;
/// The topologies beyond the sweep that the scaling curve adds, with
/// the divisor and floor applied to `packets_per_port`: total packet
/// volume stays bounded on the big fabrics, and per-point throughput is
/// unaffected because the run is saturated either way.
const BIG_FABRICS: [(Topology, usize, usize); 2] =
    [(Topology::Clos64, 4, 30), (Topology::Clos256, 8, 24)];

fn run_cell(
    topology: Topology,
    spray: SprayMode,
    epoch_cycles: u64,
    packets_per_port: usize,
) -> (FabricCell, FabricSummary) {
    let cfg = FabricConfig {
        topology,
        epoch_cycles,
        spray,
        ..FabricConfig::default()
    };
    let w = Workload {
        pattern: Pattern::FabricUniform,
        arrivals: Arrivals::Saturation,
        packet_bytes: PACKET_BYTES,
        packets_per_port,
        seed: 42,
        ttl: 64,
    };
    let sched = generate_n(&w, topology.ext_ports());
    // Only the fingerprint outlives the reference fabric, so one fabric
    // is resident at a time.
    let reference_fp = run_fabric(cfg.clone(), &sched, Executor::Reference).fingerprint();
    // A constant >= 2 puts routers on worker threads whatever the
    // host's core count.
    let sharded = run_fabric(cfg, &sched, Executor::Sharded { shards: 4 });
    let summary = sharded.summary();
    let cycles = sharded.cycle();
    let cell = FabricCell {
        topology: topology.name().into(),
        spray: spray.name().into(),
        epoch_cycles,
        routers: topology.routers(),
        ext_ports: topology.ext_ports(),
        offered: sharded.offered(),
        delivered: sharded.delivered_count(),
        dropped: sharded.dropped_count(),
        epochs: sharded.epochs_run(),
        cycles,
        mpps: sharded.mpps(0, cycles),
        gbps: sharded.gbps(0, cycles),
        backpressure_epochs: summary.backpressure_epochs,
        fingerprint: format!("{:016x}", sharded.fingerprint()),
        fingerprints_match: reference_fp == sharded.fingerprint(),
    };
    (cell, summary)
}

/// The full sweep. `packets_per_port` sets the run length; the
/// boundary-pipeline fill (a few epochs) is amortized only when the
/// injection phase dwarfs it, so the aggregate-bandwidth headline wants
/// hundreds of packets per port (the `--smoke` mode trades that
/// fidelity for speed).
pub fn fabric_study(packets_per_port: usize) -> FabricReport {
    study(packets_per_port, &BIG_FABRICS)
}

fn study(packets_per_port: usize, big_fabrics: &[(Topology, usize, usize)]) -> FabricReport {
    let mut cells = Vec::new();
    let mut best: Option<(f64, FabricSummary)> = None;
    for topology in [Topology::Single4, Topology::Folded8, Topology::Clos16] {
        for spray in [SprayMode::Hash, SprayMode::LeastOccupancy] {
            for epoch_cycles in EPOCH_SWEEP {
                let (cell, summary) = run_cell(topology, spray, epoch_cycles, packets_per_port);
                if topology == Topology::Clos16 && best.as_ref().is_none_or(|(m, _)| cell.mpps > *m)
                {
                    best = Some((cell.mpps, summary));
                }
                cells.push(cell);
            }
        }
    }
    let best_of = |name: &str| {
        cells
            .iter()
            .filter(|c| c.topology == name)
            .map(|c| c.mpps)
            .fold(0.0f64, f64::max)
    };
    let (single4_mpps, folded8_mpps, clos16_mpps) =
        (best_of("single4"), best_of("folded8"), best_of("clos16"));
    let ring_curve = ScalingCurve::measure(&[4, 8, 16], 30_000, 5);
    let ring4 = ring_curve.ring_at(4).expect("4-port ring point");
    let per_port4 = single4_mpps / 4.0;
    let ring_vs_clos = [(4usize, single4_mpps), (8, folded8_mpps), (16, clos16_mpps)]
        .iter()
        .map(|&(ports, mpps)| RingVsClosRow {
            ports,
            ring_norm: ring_curve.ring_at(ports).expect("ring point") / ring4,
            fabric_norm: (mpps / ports as f64) / per_port4,
            fabric_mpps: mpps,
            fabric_speedup: mpps / single4_mpps,
        })
        .collect();
    let (_, best_clos) = best.expect("Clos16 cells exist");
    let mut scaling: Vec<FabricCell> = cells
        .iter()
        .filter(|c| c.spray == SCALING_SPRAY.name() && c.epoch_cycles == SCALING_EPOCH)
        .cloned()
        .collect();
    for &(topology, divisor, floor) in big_fabrics {
        let ppp = (packets_per_port / divisor).max(floor);
        scaling.push(run_cell(topology, SCALING_SPRAY, SCALING_EPOCH, ppp).0);
    }
    FabricReport {
        packet_bytes: PACKET_BYTES,
        packets_per_port,
        all_fingerprints_match: cells.iter().chain(&scaling).all(|c| c.fingerprints_match),
        single4_mpps,
        clos16_mpps,
        clos_over_single: clos16_mpps / single4_mpps,
        cells,
        ring_curve,
        ring_vs_clos,
        best_clos,
        scaling,
    }
}

/// The topologies the repo ships (and the fabric experiments sweep).
pub const SHIPPED_TOPOLOGIES: [Topology; 5] = [
    Topology::Single4,
    Topology::Folded8,
    Topology::Clos16,
    Topology::Clos64,
    Topology::Clos256,
];

/// Run the whole-fabric static analyses (`RV5xx` deadlock, `RV6xx`
/// routing) over every shipped topology under
/// the default fabric configuration — the verdicts `repro -- verify`
/// folds into `results/verify.json`. Every verdict must be empty: the
/// same gate stands before every fabric [`run_fabric`] builds.
pub fn fabric_verify_verdicts() -> Vec<raw_fabric::FabricVerdict> {
    SHIPPED_TOPOLOGIES
        .into_iter()
        .map(|t| {
            raw_fabric::verify_fabric(&FabricConfig {
                topology: t,
                ..FabricConfig::default()
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_topologies_verify_with_zero_diagnostics() {
        for v in fabric_verify_verdicts() {
            assert!(v.diags.is_empty(), "{}: {:?}", v.name, v.diags);
        }
    }

    /// Nothing a `FabricReport` is made of may name a host-dependent
    /// quantity: no wall-clock value, no shard count.
    fn assert_no_host_keys(pretty_json: &str) {
        for line in pretty_json.lines() {
            if let Some((key, _)) = line.split_once("\":") {
                assert!(
                    !key.contains("wall") && !key.contains("shards"),
                    "host-dependent key in the fabric report: {line}"
                );
            }
        }
    }

    /// A miniature sweep cell end-to-end: both executors agree and the
    /// books close (the full sweep is exercised by `repro -- fabric`).
    #[test]
    fn clos_cell_runs_and_fingerprints_agree() {
        let (cell, summary) = run_cell(Topology::Clos16, SprayMode::Hash, 256, 8);
        assert!(cell.fingerprints_match);
        assert_eq!(cell.offered, 128);
        assert_eq!(cell.delivered + cell.dropped, cell.offered);
        assert_eq!(summary.links.len(), 32);
        assert_no_host_keys(&serde_json::to_string_pretty(&(cell, summary)).unwrap());
    }

    /// The whole study minus the 64/256-port points (too big for a unit
    /// test): nothing host-dependent in the report, so two runs are the
    /// same bytes.
    #[test]
    fn study_serialises_identically_twice() {
        let json = |r: &FabricReport| serde_json::to_string_pretty(r).unwrap();
        let rep = study(4, &[]);
        assert_eq!(json(&rep), json(&study(4, &[])), "two runs diverged");
        assert_no_host_keys(&json(&rep));
        assert!(rep.all_fingerprints_match);
        let curve: Vec<&str> = rep.scaling.iter().map(|c| c.topology.as_str()).collect();
        assert_eq!(curve, ["single4", "folded8", "clos16"]);
    }
}
