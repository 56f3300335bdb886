//! E19: the scheduler head-to-head — the paper's rotating token raced
//! against iSLIP and crosspoint-queued arbitration on the *same* router.
//!
//! Every cell runs the identical static network, switch programs, jump
//! tables, lookup path, and egress; only the per-quantum arbitration
//! policy (and, for the token baseline, the paper's FIFO ingress
//! queueing) differs. Four traffic patterns probe the policies where
//! they differ:
//!
//! * `uniform` — the paper's average-rate traffic; everyone should tie.
//! * `hotspot` — all sources target output 0; throughput is pinned at
//!   one output wire, so the interesting number is input fairness.
//! * `zipf` — a tunable hotspot (s = 1.2) between the two above.
//! * `adversary` — [`Pattern::HotInterleave`]: 5 of every 8 packets
//!   target the shared hot output, the rest a per-source distinct
//!   output that rotates over the other three. The hot output is
//!   oversubscribed 2.5x, so every FIFO head parks on a hot packet and
//!   the distinct packets trapped behind it cannot bid — the token
//!   baseline degrades toward the hot wire's drain rate. VOQ-aware
//!   matchers keep the distinct outputs streaming from backlogged
//!   queues — the acceptance floor is 2x the token's throughput.
//!
//! (A pure rotating all-to-one pattern —
//! [`Pattern::RotatingPermutation`] at `1 + skew ≡ 0 (mod N)` — does
//! *not* separate the policies: FIFO backpressure desynchronizes the
//! sources' packet indices, which spreads the phases apart and hands
//! the token conflict-free heads. The interleave keeps the conflict
//! pinned to one output no matter how the queues drift.)

use serde::Serialize;

use raw_telemetry::{shared, with_sink, Recorder, SharedSink, StageSpan};
use raw_workloads::{generate, src_addr, Arrivals, Pattern, Workload};
use raw_xbar::{port_table, IngressQueueing, RouterConfig, SchedKind, NPORTS};

use crate::experiments::jain;
use crate::run::{run_router, Until};

/// Words per crossbar quantum for the head-to-head. At 64-byte packets
/// one packet is exactly one fragment, so per-quantum arbitration
/// decisions dominate and the policies separate cleanly; at the default
/// 64-word quantum the serialization time washes most of it out, and
/// below ~16 words the bid/grant overhead swamps both designs equally.
pub const SCHED_QUANTUM_WORDS: usize = 32;

/// Packet size for every cell (the paper's worst case).
pub const SCHED_PACKET_BYTES: usize = 64;

/// One (scheduler, pattern) cell of the head-to-head.
#[derive(Clone, Debug, Serialize)]
pub struct SchedCell {
    pub scheduler: String,
    pub pattern: String,
    pub offered: u64,
    pub delivered: u64,
    pub cycles: u64,
    pub gbps: f64,
    /// End-to-end residence percentiles over completed packets.
    pub p50: u64,
    pub p99: u64,
    pub p999: u64,
    /// Jain fairness index over per-*input* delivered counts: 1.0 means
    /// every source got identical service, 1/N means one source
    /// monopolized the switch.
    pub input_fairness: f64,
    /// Arbitration-wait cycles summed over the ingress tiles (the
    /// `arb_wait` telemetry bucket; token mode reports `token_wait`).
    pub arb_wait_cycles: u64,
    pub token_wait_cycles: u64,
    /// Arbiter iterations and matched pairs summed over the four
    /// crossbar replicas (zero in token mode).
    pub sched_iterations: u64,
    pub sched_matched: u64,
}

/// Throughput of each matcher relative to the FIFO-token baseline on one
/// pattern.
#[derive(Clone, Debug, Serialize)]
pub struct SchedSpeedup {
    pub pattern: String,
    pub islip_over_token: f64,
    pub cq_over_token: f64,
}

/// The payload of `results/sched.json`.
#[derive(Clone, Debug, Serialize)]
pub struct SchedReport {
    pub quantum_words: usize,
    pub packet_bytes: usize,
    pub cycles: u64,
    pub cells: Vec<SchedCell>,
    pub speedups: Vec<SchedSpeedup>,
}

/// The four head-to-head patterns.
pub fn sched_patterns() -> Vec<(&'static str, Pattern)> {
    vec![
        ("uniform", Pattern::Uniform),
        ("hotspot", Pattern::Hotspot { dst: 0 }),
        ("zipf", Pattern::ZipfHotspot { s_milli: 1200 }),
        (
            "adversary",
            Pattern::HotInterleave {
                hot: 0,
                h: 5,
                m: 8,
                period: 16,
            },
        ),
    ]
}

/// The router each scheduler races in. The token baseline is the
/// paper's own configuration (FIFO ingress); the matchers require VOQ —
/// that queueing difference is part of what is being measured, since the
/// mask-bid protocol is what lets a matcher see past the head of line.
pub fn sched_router_config(kind: SchedKind) -> RouterConfig {
    RouterConfig {
        quantum_words: SCHED_QUANTUM_WORDS,
        cut_through: true,
        queueing: if kind.is_token() {
            IngressQueueing::Fifo
        } else {
            IngressQueueing::Voq
        },
        arbiter: kind,
        ..RouterConfig::default()
    }
}

/// Run one cell: `kind` arbitrating `pattern` for `cycles` cycles under
/// saturation arrivals.
pub fn sched_cell(
    kind: SchedKind,
    pattern_name: &str,
    pattern: Pattern,
    cycles: u64,
    packets_per_port: usize,
) -> SchedCell {
    let w = Workload {
        pattern,
        arrivals: Arrivals::Saturation,
        packet_bytes: SCHED_PACKET_BYTES,
        packets_per_port,
        seed: 7,
        ttl: 64,
    };
    let sink: SharedSink = shared(Recorder::new(16, raw_sim::NUM_STATIC_NETS));
    let sched = generate(&w);
    let offered = sched.len() as u64;
    let r = run_router(
        sched_router_config(kind),
        port_table(),
        &sched,
        Until::Cycles(cycles),
        Some(sink.clone()),
    );
    // Measure the second half of the run: VOQ backlog diversity (and
    // the FIFO head-of-line parking it is raced against) takes tens of
    // thousands of cycles to reach steady state.
    let warm = cycles / 2;
    let gbps = r.throughput_gbps(warm, cycles);
    let delivered = r.delivered_count();

    // Jain fairness over per-input delivered counts, decoded from the
    // source address each workload packet carries.
    let mut per_input = [0u64; NPORTS];
    for p in 0..NPORTS {
        for (_, pk) in &r.collected(p).packets {
            let src = pk.header.src.wrapping_sub(src_addr(0)) as usize;
            assert!(src < NPORTS, "foreign source address {:#x}", pk.header.src);
            per_input[src] += 1;
        }
    }

    let drops: [_; NPORTS] = std::array::from_fn(|p| r.ingress_stats(p).drops);
    let (p50, p99, p999, arb_wait, token_wait) = with_sink::<Recorder, _>(&sink, |rec| {
        let h = rec.stage_histogram(StageSpan::Total);
        let (p50, _, p99, p999) = h.percentiles();
        let s = rec.summary(&drops);
        let arb: u64 = s.tiles.iter().map(|t| t.arb_wait).sum();
        let tok: u64 = s.tiles.iter().map(|t| t.token_wait).sum();
        (p50, p99, p999, arb, tok)
    });
    let (iters, matched) = (0..NPORTS)
        .filter_map(|t| r.xbar_stats(t))
        .fold((0u64, 0u64), |(i, m), s| {
            (i + s.sched_iterations, m + s.sched_matched)
        });
    SchedCell {
        scheduler: kind.name().to_string(),
        pattern: pattern_name.to_string(),
        offered,
        delivered,
        cycles,
        gbps,
        p50,
        p99,
        p999,
        input_fairness: jain(&per_input),
        arb_wait_cycles: arb_wait,
        token_wait_cycles: token_wait,
        sched_iterations: iters,
        sched_matched: matched,
    }
}

/// The full head-to-head: three schedulers × four patterns.
pub fn sched_report(cycles: u64, packets_per_port: usize) -> SchedReport {
    let mut cells = Vec::new();
    for (name, pattern) in sched_patterns() {
        for kind in SchedKind::all() {
            cells.push(sched_cell(kind, name, pattern, cycles, packets_per_port));
        }
    }
    let speedups = sched_patterns()
        .iter()
        .map(|(name, _)| {
            let gbps = |sched: &str| {
                cells
                    .iter()
                    .find(|c| c.pattern == *name && c.scheduler == sched)
                    .map(|c| c.gbps)
                    .unwrap_or(0.0)
            };
            let token = gbps("token").max(f64::MIN_POSITIVE);
            SchedSpeedup {
                pattern: name.to_string(),
                islip_over_token: gbps("islip") / token,
                cq_over_token: gbps("cq") / token,
            }
        })
        .collect();
    SchedReport {
        quantum_words: SCHED_QUANTUM_WORDS,
        packet_bytes: SCHED_PACKET_BYTES,
        cycles,
        cells,
        speedups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adversary_pattern_separates_matchers_from_fifo_token() {
        // A short run of the acceptance row: both matchers must clear
        // the 2x floor over the FIFO-token baseline.
        let (name, pattern) = sched_patterns().pop().unwrap();
        assert_eq!(name, "adversary");
        let cells: Vec<SchedCell> = SchedKind::all()
            .into_iter()
            .map(|k| sched_cell(k, name, pattern, 120_000, 4000))
            .collect();
        let token = &cells[0];
        assert_eq!(token.scheduler, "token");
        for c in &cells[1..] {
            assert!(
                c.gbps >= 2.0 * token.gbps,
                "{}: {:.3} gbps vs token {:.3} gbps",
                c.scheduler,
                c.gbps,
                token.gbps
            );
            assert!(c.sched_matched > 0);
        }
    }

    #[test]
    fn uniform_pattern_is_fair_under_every_scheduler() {
        for kind in SchedKind::all() {
            let c = sched_cell(kind, "uniform", Pattern::Uniform, 30_000, 800);
            assert!(c.delivered > 0, "{}", c.scheduler);
            assert!(
                c.input_fairness > 0.98,
                "{}: Jain {:.4}",
                c.scheduler,
                c.input_fairness
            );
            assert!(c.p50 > 0 && c.p99 >= c.p50 && c.p999 >= c.p99);
        }
    }
}
