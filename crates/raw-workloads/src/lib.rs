//! # raw-workloads — deterministic traffic generation
//!
//! The paper's evaluation drives the router with uniform-size packets at
//! saturation: conflict-free permutations for *peak* throughput and
//! uniform-random destinations ("complete fairness of the traffic") for
//! *average* throughput. This crate generates those patterns plus the
//! adversarial and bursty variants the extension experiments use, all
//! seeded and reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use raw_net::Packet;

/// Number of router ports the generators target.
pub const NPORTS: usize = 4;

/// Destination-selection pattern.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pattern {
    /// `dst = (src + shift) % N` — conflict-free, the peak-rate pattern
    /// (Figure 5-1 is `shift = 2`).
    Permutation { shift: u8 },
    /// Independently uniform destinations — the paper's average-rate
    /// traffic.
    Uniform,
    /// Every source targets one port — the §5.4 fairness adversary.
    Hotspot { dst: u8 },
    /// Uniform, but each source switches destination only every `burst`
    /// packets (bursty flows).
    Bursty { burst: u32 },
    /// Zipf-distributed destinations: port `p` is drawn with probability
    /// proportional to `1/(p+1)^s`, `s = s_milli / 1000`. `s_milli = 0`
    /// is uniform; larger values concentrate traffic on port 0 — a
    /// tunable hotspot between [`Pattern::Uniform`] and
    /// [`Pattern::Hotspot`].
    ZipfHotspot { s_milli: u32 },
    /// Uniform destinations excluding the source's own external port —
    /// the fabric-uniform traffic of multi-router experiments, where
    /// self-directed traffic never crosses the middle stage and would
    /// flatter the fabric's numbers.
    FabricUniform,
    /// Every source targets the `group_size` consecutive destinations
    /// `[group*group_size, (group+1)*group_size)` — with `group_size`
    /// equal to the ports per egress router, this oversubscribes one
    /// egress-stage router of a fabric while its siblings idle (the
    /// cross-stage analogue of [`Pattern::Hotspot`]).
    CrossStageHotspot { group: u8, group_size: u8 },
    /// Slot-rotating (a)symmetric permutation:
    /// `dst = ((1+skew)*src + shift + k/period) % N` for source `src`'s
    /// `k`-th packet. With `skew = 0` this is [`Pattern::Permutation`]
    /// rotated one position every `period` packets — still conflict-free
    /// within each phase, but the destination map never settles, which
    /// punishes arbiters that converge on a fixed matching (iSLIP's
    /// desynchronized pointers must re-slip each phase). With
    /// `1 + skew ≡ 0 (mod N)` (`skew = 3` at 4 ports) the source term
    /// vanishes and *all* sources target the same rotating output — an
    /// aligned transient hotspot. Note that a FIFO router under
    /// backpressure *desynchronizes* the sources' packet indices, which
    /// spreads the phases back out; the sustained head-of-line adversary
    /// of the scheduler head-to-head is [`Pattern::HotInterleave`].
    RotatingPermutation { shift: u8, period: u32, skew: u8 },
    /// The head-of-line-blocking adversary of the scheduler
    /// head-to-head: source `src`'s `k`-th packet targets the shared
    /// `hot` output when `k % m < h`, and otherwise a distinct non-hot
    /// output that rotates over the remaining `N-1` outputs every
    /// `period` packets (`period = 0` freezes the rotation). With
    /// `h/m` above `1/N` the hot output is oversubscribed, so every
    /// FIFO head eventually parks on a hot packet and the distinct
    /// packets trapped behind it cannot bid — single-head token
    /// arbitration degrades toward the hot wire's drain rate. VOQ-aware
    /// matchers keep the distinct outputs busy from backlogged queues,
    /// and the rotation forces converged pointers (iSLIP) and warm
    /// crosspoints (CQ) to re-adapt each phase.
    HotInterleave { hot: u8, h: u8, m: u8, period: u32 },
    /// Flow-level churn: each source port opens `flows_per_port` flows
    /// whose start times form a Poisson process (exponential
    /// inter-arrivals, mean `mean_iat_cycles`) and whose sizes are
    /// heavy-tailed Pareto draws — `P(pkts >= k) = k^(-alpha)` with
    /// `alpha = alpha_milli / 1000`, capped at `max_flow_pkts` so the
    /// per-flow sequence number fits the IP `id`. Each flow holds one
    /// uniformly drawn destination for its whole life and releases its
    /// packets back-to-back at line rate from its start cycle. This is
    /// the flow-completion-time / SLO workload of the raw-fib engine:
    /// [`flow_churn_descs`] exposes the flow schedule without
    /// materializing packets, and each flow gets a unique synthetic
    /// source address ([`flow_src`]) so per-flow ordering and latency
    /// can be keyed on `header.src`. [`Workload::packets_per_port`] and
    /// [`Workload::arrivals`] are ignored — the flow set itself defines
    /// the arrival process.
    FlowChurn {
        flows_per_port: u32,
        /// Pareto shape ×1000 (1300 ≈ the classic 1.3 of measured
        /// Internet flow-size tails; smaller is heavier).
        alpha_milli: u32,
        /// Mean exponential inter-arrival gap between flow starts on
        /// one port, in cycles.
        mean_iat_cycles: u64,
        /// Flow-size cap in packets (`<= 65535`).
        max_flow_pkts: u32,
    },
}

/// Packet arrival process per input port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Arrivals {
    /// Back-to-back: a packet is always ready (peak-rate measurement).
    Saturation,
    /// Bernoulli packet arrivals: each `slot_cycles` window starts a new
    /// packet with probability `p` (per mille).
    Bernoulli { slot_cycles: u64, p_mille: u32 },
}

/// A workload: the full description of what each line card injects.
#[derive(Clone, Debug)]
pub struct Workload {
    pub pattern: Pattern,
    pub arrivals: Arrivals,
    /// Total packet size in bytes (header included). The paper sweeps
    /// 64..=1024.
    pub packet_bytes: usize,
    pub packets_per_port: usize,
    pub seed: u64,
    pub ttl: u8,
}

impl Workload {
    /// The paper's peak-rate workload at a given packet size.
    pub fn peak(packet_bytes: usize, packets_per_port: usize) -> Workload {
        Workload {
            pattern: Pattern::Permutation { shift: 2 },
            arrivals: Arrivals::Saturation,
            packet_bytes,
            packets_per_port,
            seed: 1,
            ttl: 64,
        }
    }

    /// The paper's average-rate workload ("complete fairness").
    pub fn average(packet_bytes: usize, packets_per_port: usize, seed: u64) -> Workload {
        Workload {
            pattern: Pattern::Uniform,
            arrivals: Arrivals::Saturation,
            packet_bytes,
            packets_per_port,
            seed,
            ttl: 64,
        }
    }
}

/// One scheduled packet: input port, release cycle, and the packet. The
/// destination address encodes the output port for the standard
/// experiment routing table ([`port_table_routes`]).
#[derive(Clone, Debug)]
pub struct ScheduledPacket {
    pub port: usize,
    pub release: u64,
    pub packet: Packet,
}

/// Destination address inside output port `p`'s experiment prefix
/// (`10.<p>.0.0/16`).
pub fn addr_for_port(p: u8) -> u32 {
    0x0a00_0001 | ((p as u32) << 16)
}

/// Source address for input port `p` (outside any experiment prefix's
/// low octets; purely cosmetic).
pub fn src_addr(p: u8) -> u32 {
    0x0a0a_0000 + p as u32
}

/// The routes of the standard experiment table: `10.<p>.0.0/16 -> p`.
pub fn port_table_routes() -> Vec<raw_net_compat::RouteSpec> {
    port_table_routes_n(NPORTS)
}

/// [`port_table_routes`] for an `nports`-port switch (a fabric's
/// external port space).
pub fn port_table_routes_n(nports: usize) -> Vec<raw_net_compat::RouteSpec> {
    assert!(nports <= 256, "port number must fit the second octet");
    (0..nports as u32)
        .map(|p| raw_net_compat::RouteSpec {
            prefix: 0x0a00_0000 | (p << 16),
            len: 16,
            next_hop: p,
        })
        .collect()
}

/// A tiny mirror of `raw_lookup::RouteEntry`'s fields, so this crate does
/// not depend on the lookup crate (the router harness converts).
pub mod raw_net_compat {
    #[derive(Clone, Copy, Debug)]
    pub struct RouteSpec {
        pub prefix: u32,
        pub len: u8,
        pub next_hop: u32,
    }
}

/// One flow of a [`Pattern::FlowChurn`] workload: `pkts` packets
/// released back-to-back at line rate starting at cycle `start`, all
/// bound for external port `dst`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowDesc {
    /// Ingress port the flow arrives on.
    pub port: usize,
    /// Flow index within its port (draw order == start order).
    pub flow: u32,
    /// Synthetic per-flow source address ([`flow_src`]).
    pub src: u32,
    /// Destination external port (fixed for the flow's life).
    pub dst: u8,
    /// Cycle the first packet becomes ready.
    pub start: u64,
    /// Flow size in packets.
    pub pkts: u32,
}

/// The unique synthetic source address of flow `flow` on ingress
/// `port`: the port in the top octet, the 1-based flow index below it.
/// Flow identity therefore survives into delivered packets' `header.src`
/// (for per-flow latency accounting).
pub fn flow_src(port: usize, flow: u32) -> u32 {
    ((port as u32) << 24) | (flow + 1)
}

/// The flow schedule of a [`Pattern::FlowChurn`] workload — the same
/// draws [`generate_n`] materializes, without building any packets.
/// Million-flow studies work at this level and materialize only the
/// windows they simulate. Panics if `w.pattern` is any other variant.
pub fn flow_churn_descs(w: &Workload, nports: usize) -> Vec<FlowDesc> {
    let Pattern::FlowChurn {
        flows_per_port,
        alpha_milli,
        mean_iat_cycles,
        max_flow_pkts,
    } = w.pattern
    else {
        panic!("flow_churn_descs on a non-FlowChurn workload");
    };
    assert!((2..=256).contains(&nports), "nports {nports} out of range");
    assert!(alpha_milli > 0, "Pareto shape must be positive");
    assert!(
        (1..=0xffff).contains(&max_flow_pkts),
        "flow-size cap {max_flow_pkts} must fit the 16-bit IP id"
    );
    assert!(
        flows_per_port < (1 << 24),
        "flow index must fit below the source-address port octet"
    );
    let alpha = alpha_milli as f64 / 1000.0;
    let mut rng = StdRng::seed_from_u64(w.seed);
    let mut out = Vec::with_capacity(nports * flows_per_port as usize);
    for port in 0..nports {
        let mut start = 0u64;
        for flow in 0..flows_per_port {
            // Poisson flow arrivals: exponential inter-arrival gaps.
            let u: f64 = rng.gen();
            start += (-(1.0 - u).ln() * mean_iat_cycles as f64).ceil() as u64;
            // Heavy-tailed size: the inverse-CDF Pareto draw
            // floor(v^(-1/alpha)) has P(pkts = 1) = 1 - 2^(-alpha) and
            // a power-law tail until the cap. (`as u64` saturates, so
            // v == 0.0 lands safely on the cap.)
            let v: f64 = rng.gen();
            let pkts = (v.powf(-1.0 / alpha).floor() as u64).clamp(1, max_flow_pkts as u64) as u32;
            let dst = rng.gen_range(0..nports as u64) as u8;
            out.push(FlowDesc {
                port,
                flow,
                src: flow_src(port, flow),
                dst,
                start,
                pkts,
            });
        }
    }
    out
}

/// Materialize a [`Pattern::FlowChurn`] schedule: every flow's packets
/// at line-rate spacing, merged per port in release order (ties broken
/// by flow then sequence, so the schedule is a total order).
fn generate_flow_churn(w: &Workload, nports: usize) -> Vec<ScheduledPacket> {
    let descs = flow_churn_descs(w, nports);
    let gap = (w.packet_bytes / 4).max(1) as u64;
    let mut per_port: Vec<Vec<(u64, u32, u32, u8)>> = vec![Vec::new(); nports];
    for d in &descs {
        for k in 0..d.pkts {
            per_port[d.port].push((d.start + k as u64 * gap, d.flow, k, d.dst));
        }
    }
    let mut out = Vec::with_capacity(per_port.iter().map(Vec::len).sum());
    for (port, mut pkts) in per_port.into_iter().enumerate() {
        pkts.sort_unstable();
        for (release, flow, k, dst) in pkts {
            let mut p = Packet::synthetic(
                flow_src(port, flow),
                addr_for_port(dst),
                w.packet_bytes,
                w.ttl,
                (port as u32) << 16 | k,
            );
            p.header.id = (k & 0xffff) as u16;
            p.header.checksum = p.header.compute_checksum();
            out.push(ScheduledPacket {
                port,
                release,
                packet: p,
            });
        }
    }
    out
}

/// Cumulative Zipf distribution over `n` outcomes (output ports, next
/// hops) for exponent `s = s_milli / 1000`: `cdf[p]` is `P(x <= p)`
/// scaled to `u32::MAX`.
pub fn zipf_cdf(s_milli: u32, n: usize) -> Vec<u64> {
    let s = s_milli as f64 / 1000.0;
    let w: Vec<f64> = (0..n).map(|p| 1.0 / ((p + 1) as f64).powf(s)).collect();
    let total: f64 = w.iter().sum();
    let mut cdf = vec![0u64; n];
    let mut acc = 0.0;
    for (p, wp) in w.iter().enumerate() {
        acc += wp;
        cdf[p] = (acc / total * u32::MAX as f64) as u64;
    }
    cdf[n - 1] = u32::MAX as u64;
    cdf
}

/// Generate the full packet schedule for a workload on the standard
/// 4-port router ([`NPORTS`] sources and destinations).
pub fn generate(w: &Workload) -> Vec<ScheduledPacket> {
    generate_n(w, NPORTS)
}

/// Generate the schedule for an `nports`-port switch: `nports` sources,
/// destinations drawn from the same `nports`-wide external port space.
/// Identical to [`generate`] at `nports = 4` (same seed, same draws).
pub fn generate_n(w: &Workload, nports: usize) -> Vec<ScheduledPacket> {
    assert!((2..=256).contains(&nports), "nports {nports} out of range");
    if let Pattern::Hotspot { dst } = w.pattern {
        assert!((dst as usize) < nports, "hotspot dst outside port space");
    }
    if let Pattern::HotInterleave { hot, h, m, .. } = w.pattern {
        assert!((hot as usize) < nports, "hot output outside port space");
        assert!(m > 0 && h <= m, "hot fraction {h}/{m} malformed");
    }
    if let Pattern::CrossStageHotspot { group, group_size } = w.pattern {
        assert!(group_size > 0, "empty hotspot group");
        assert!(
            (group as usize + 1) * group_size as usize <= nports,
            "cross-stage group outside port space"
        );
    }
    if matches!(w.pattern, Pattern::FlowChurn { .. }) {
        // Flow-level generation: the flow set defines sizes and
        // arrivals, so the per-source loop below does not apply.
        return generate_flow_churn(w, nports);
    }
    let mut rng = StdRng::seed_from_u64(w.seed);
    let mut out = Vec::with_capacity(w.packets_per_port * nports);
    let mut burst_state = vec![(0u8, 0u32); nports]; // (dst, remaining)
    let zipf = match w.pattern {
        Pattern::ZipfHotspot { s_milli } => Some(zipf_cdf(s_milli, nports)),
        _ => None,
    };
    #[allow(clippy::needless_range_loop)]
    for src in 0..nports {
        let mut release = 0u64;
        for k in 0..w.packets_per_port {
            let dst = match w.pattern {
                Pattern::Permutation { shift } => ((src + shift as usize) % nports) as u8,
                // Port draws sample in u64: `nports as u8` wraps to 0 at
                // the 256-port Clos, and the vendored rand draws the
                // same value for the same span at any integer width, so
                // narrower-port fingerprints are unchanged.
                Pattern::Uniform => rng.gen_range(0..nports as u64) as u8,
                Pattern::Hotspot { dst } => dst,
                Pattern::Bursty { burst } => {
                    let (d, left) = &mut burst_state[src];
                    if *left == 0 {
                        *d = rng.gen_range(0..nports as u64) as u8;
                        *left = burst;
                    }
                    *left -= 1;
                    *d
                }
                Pattern::ZipfHotspot { .. } => {
                    let cdf = zipf.as_ref().unwrap();
                    let u = rng.gen::<u32>() as u64;
                    cdf.iter().position(|&c| u <= c).unwrap() as u8
                }
                Pattern::FabricUniform => {
                    // Uniform over the other nports-1 ports.
                    let d = rng.gen_range(0..nports as u64 - 1) as u8;
                    if d as usize >= src {
                        d.wrapping_add(1)
                    } else {
                        d
                    }
                }
                Pattern::CrossStageHotspot { group, group_size } => {
                    group * group_size + rng.gen_range(0..group_size)
                }
                Pattern::RotatingPermutation {
                    shift,
                    period,
                    skew,
                } => {
                    let phase = k as u64 / u64::from(period.max(1));
                    (((1 + skew as u64) * src as u64 + shift as u64 + phase) % nports as u64) as u8
                }
                Pattern::HotInterleave { hot, h, m, period } => {
                    if (k % m as usize) < h as usize {
                        hot
                    } else {
                        // Walk the nports-1 non-hot outputs, skipping
                        // over `hot` itself.
                        let phase = if period == 0 {
                            0
                        } else {
                            k as u64 / u64::from(period)
                        };
                        let r = ((src as u64 + phase) % (nports as u64 - 1)) as u8;
                        if r >= hot {
                            r + 1
                        } else {
                            r
                        }
                    }
                }
                Pattern::FlowChurn { .. } => unreachable!("dispatched to generate_flow_churn"),
            };
            release = match w.arrivals {
                Arrivals::Saturation => 0,
                Arrivals::Bernoulli {
                    slot_cycles,
                    p_mille,
                } => {
                    // Advance slots until one fires.
                    let mut r = release;
                    loop {
                        r += slot_cycles;
                        if rng.gen_range(0..1000) < p_mille {
                            break;
                        }
                    }
                    r
                }
            };
            let mut p = Packet::synthetic(
                src_addr(src as u8),
                addr_for_port(dst),
                w.packet_bytes,
                w.ttl,
                (src as u32) << 16 | k as u32,
            );
            // Stamp a flow sequence number in the IP id for ordering
            // checks downstream.
            p.header.id = (k & 0xffff) as u16;
            p.header.checksum = p.header.compute_checksum();
            out.push(ScheduledPacket {
                port: src,
                release,
                packet: p,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many packets of `sched` target each of `nports` outputs (the
    /// port lives in the second address octet, `10.<p>.0.0/16`).
    fn per_output_n(sched: &[ScheduledPacket], nports: usize) -> Vec<usize> {
        let mut out = vec![0usize; nports];
        for s in sched {
            let dst = ((s.packet.header.dst >> 16) & 0xff) as usize;
            assert!(dst < nports, "destination {dst} outside the port space");
            out[dst] += 1;
        }
        out
    }

    fn per_output(sched: &[ScheduledPacket]) -> [usize; NPORTS] {
        let v = per_output_n(sched, NPORTS);
        std::array::from_fn(|i| v[i])
    }

    #[test]
    fn generation_is_deterministic() {
        let w = Workload::average(256, 50, 7);
        let a = generate(&w);
        let b = generate(&w);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.packet, y.packet);
            assert_eq!(x.release, y.release);
        }
    }

    #[test]
    fn permutation_is_conflict_free() {
        let w = Workload::peak(64, 10);
        let sched = generate(&w);
        assert_eq!(sched.len(), 40);
        for s in &sched {
            let src = s.port as u8;
            let dst = ((s.packet.header.dst >> 16) & 0xff) as u8;
            assert_eq!(dst, (src + 2) % 4);
        }
        let per = per_output(&sched);
        assert_eq!(per, [10, 10, 10, 10]);
    }

    #[test]
    fn rotating_permutation_shapes() {
        // skew = 0: per-phase conflict-free permutation rotating every
        // `period` packets.
        let w = Workload {
            pattern: Pattern::RotatingPermutation {
                shift: 1,
                period: 5,
                skew: 0,
            },
            arrivals: Arrivals::Saturation,
            packet_bytes: 64,
            packets_per_port: 20,
            seed: 9,
            ttl: 64,
        };
        let sched = generate(&w);
        assert_eq!(sched.len(), 80);
        let mut k_per_src = [0u32; 4];
        for s in &sched {
            let src = s.port;
            let k = k_per_src[src];
            k_per_src[src] += 1;
            let dst = ((s.packet.header.dst >> 16) & 0xff) as u8;
            assert_eq!(dst, ((src as u32 + 1 + k / 5) % 4) as u8, "src {src} k {k}");
        }
        // Within any phase the four sources hit four distinct outputs.
        let phase0: Vec<u8> = (0..4)
            .map(|src| {
                let s = sched.iter().find(|s| s.port == src).unwrap();
                ((s.packet.header.dst >> 16) & 0xff) as u8
            })
            .collect();
        let mut sorted = phase0.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "phase 0 not a permutation");

        // skew = 3 at 4 ports: the source term vanishes — every source
        // targets the *same* output, rotating each phase (the
        // head-to-head adversary).
        let adv = Workload {
            pattern: Pattern::RotatingPermutation {
                shift: 0,
                period: 3,
                skew: 3,
            },
            ..w
        };
        let sched = generate(&adv);
        let mut k_per_src = [0u32; 4];
        for s in &sched {
            let k = k_per_src[s.port];
            k_per_src[s.port] += 1;
            let dst = ((s.packet.header.dst >> 16) & 0xff) as u8;
            assert_eq!(dst, ((k / 3) % 4) as u8, "src {} k {k}", s.port);
        }
    }

    #[test]
    fn rotating_permutation_is_deterministic() {
        let w = Workload {
            pattern: Pattern::RotatingPermutation {
                shift: 2,
                period: 7,
                skew: 3,
            },
            arrivals: Arrivals::Saturation,
            packet_bytes: 64,
            packets_per_port: 30,
            seed: 11,
            ttl: 64,
        };
        let a = generate(&w);
        let b = generate(&w);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.packet, y.packet);
            assert_eq!(x.release, y.release);
            assert_eq!(x.port, y.port);
        }
        // And at a wider port count the modulus follows nports.
        let s8 = generate_n(&w, 8);
        for s in s8.iter().filter(|s| s.port == 1) {
            let dst = ((s.packet.header.dst >> 16) & 0xff) as u8;
            assert!(dst < 8);
        }
    }

    #[test]
    fn hot_interleave_shapes() {
        // hot 5/8 at hot = 0: of every 8 packets per source, 5 target
        // output 0 and 3 target the source's rotating non-hot output.
        let w = Workload {
            pattern: Pattern::HotInterleave {
                hot: 0,
                h: 5,
                m: 8,
                period: 16,
            },
            arrivals: Arrivals::Saturation,
            packet_bytes: 64,
            packets_per_port: 64,
            seed: 5,
            ttl: 64,
        };
        let sched = generate(&w);
        let mut k_per_src = [0usize; 4];
        for s in &sched {
            let k = k_per_src[s.port];
            k_per_src[s.port] += 1;
            let dst = ((s.packet.header.dst >> 16) & 0xff) as u8;
            if k % 8 < 5 {
                assert_eq!(dst, 0, "src {} k {k}: expected hot", s.port);
            } else {
                assert_ne!(dst, 0, "src {} k {k}: distinct hit hot", s.port);
                let r = ((s.port as u64 + k as u64 / 16) % 3) as u8;
                assert_eq!(dst, r + 1, "src {} k {k}", s.port);
            }
        }
        let per = per_output(&sched);
        assert_eq!(per.iter().sum::<usize>(), 256);
        assert_eq!(per[0], 4 * 40, "hot output gets 5/8 of each source");

        // A nonzero hot output is never targeted by the distinct walk.
        let off = Workload {
            pattern: Pattern::HotInterleave {
                hot: 2,
                h: 1,
                m: 2,
                period: 0,
            },
            ..w
        };
        let mut k_off = [0usize; 4];
        for s in generate(&off) {
            let k = k_off[s.port];
            k_off[s.port] += 1;
            let dst = ((s.packet.header.dst >> 16) & 0xff) as u8;
            assert!(dst < 4);
            if k % 2 == 0 {
                assert_eq!(dst, 2);
            } else {
                assert_ne!(dst, 2, "distinct walk hit the hot output");
            }
        }
    }

    #[test]
    fn hot_interleave_is_deterministic() {
        let w = Workload {
            pattern: Pattern::HotInterleave {
                hot: 0,
                h: 5,
                m: 8,
                period: 16,
            },
            arrivals: Arrivals::Saturation,
            packet_bytes: 64,
            packets_per_port: 30,
            seed: 11,
            ttl: 64,
        };
        let a = generate(&w);
        let b = generate(&w);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.packet, y.packet);
            assert_eq!(x.release, y.release);
            assert_eq!(x.port, y.port);
        }
    }

    #[test]
    fn uniform_covers_all_outputs() {
        let w = Workload::average(64, 400, 3);
        let per = per_output(&generate(&w));
        for (i, &n) in per.iter().enumerate() {
            assert!(
                (300..=500).contains(&n),
                "output {i} got {n} of 1600 — not uniform"
            );
        }
    }

    #[test]
    fn hotspot_targets_one_output() {
        let w = Workload {
            pattern: Pattern::Hotspot { dst: 1 },
            ..Workload::peak(64, 5)
        };
        let per = per_output(&generate(&w));
        assert_eq!(per, [0, 20, 0, 0]);
    }

    #[test]
    fn bursty_switches_destinations_in_runs() {
        let w = Workload {
            pattern: Pattern::Bursty { burst: 8 },
            ..Workload::average(64, 64, 9)
        };
        let sched = generate(&w);
        // Per source, destinations come in runs of 8.
        for src in 0..4 {
            let dsts: Vec<u8> = sched
                .iter()
                .filter(|s| s.port == src)
                .map(|s| ((s.packet.header.dst >> 16) & 0xff) as u8)
                .collect();
            for chunk in dsts.chunks(8) {
                assert!(chunk.iter().all(|&d| d == chunk[0]));
            }
        }
    }

    #[test]
    fn bernoulli_spaces_releases() {
        let w = Workload {
            arrivals: Arrivals::Bernoulli {
                slot_cycles: 100,
                p_mille: 300,
            },
            ..Workload::average(64, 40, 5)
        };
        let sched = generate(&w);
        for src in 0..4 {
            let rel: Vec<u64> = sched
                .iter()
                .filter(|s| s.port == src)
                .map(|s| s.release)
                .collect();
            // Strictly increasing in multiples of the slot.
            for w2 in rel.windows(2) {
                assert!(w2[1] > w2[0]);
                assert_eq!((w2[1] - w2[0]) % 100, 0);
            }
        }
    }

    #[test]
    fn zipf_hotspot_is_deterministic_and_skews_by_s() {
        let gen_per = |s_milli: u32| -> [usize; NPORTS] {
            let w = Workload {
                pattern: Pattern::ZipfHotspot { s_milli },
                ..Workload::average(64, 500, 13)
            };
            let a = generate(&w);
            let b = generate(&w);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.packet, y.packet);
            }
            per_output(&a)
        };
        // s = 0 is uniform.
        let flat = gen_per(0);
        assert!(flat.iter().all(|&n| (400..=600).contains(&n)), "{flat:?}");
        // s = 1 ranks ports 0 > 1 > 2 > 3 with harmonic weights.
        let skew = gen_per(1000);
        assert!(
            skew[0] > skew[1] && skew[1] > skew[2] && skew[2] > skew[3],
            "{skew:?}"
        );
        // Larger s concentrates harder on port 0.
        let hard = gen_per(2500);
        assert!(hard[0] > skew[0], "{hard:?} vs {skew:?}");
        assert_eq!(flat.iter().sum::<usize>(), 2000);
        assert_eq!(skew.iter().sum::<usize>(), 2000);
    }

    #[test]
    fn generate_n_at_four_ports_matches_generate() {
        for w in [
            Workload::peak(64, 30),
            Workload::average(256, 40, 7),
            Workload {
                pattern: Pattern::ZipfHotspot { s_milli: 1500 },
                ..Workload::average(64, 25, 3)
            },
        ] {
            let a = generate(&w);
            let b = generate_n(&w, NPORTS);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.packet, y.packet);
                assert_eq!((x.port, x.release), (y.port, y.release));
            }
        }
    }

    #[test]
    fn fabric_uniform_is_deterministic_and_avoids_self() {
        let w = Workload {
            pattern: Pattern::FabricUniform,
            ..Workload::average(64, 200, 21)
        };
        let a = generate_n(&w, 16);
        let b = generate_n(&w, 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.packet, y.packet);
            assert_eq!(x.release, y.release);
        }
        assert_eq!(a.len(), 16 * 200);
        for s in &a {
            let dst = ((s.packet.header.dst >> 16) & 0xff) as usize;
            assert_ne!(dst, s.port, "fabric-uniform must exclude self-traffic");
            assert!(dst < 16);
        }
        // Every one of the 15 foreign destinations is covered per source.
        let per = per_output_n(&a, 16);
        assert!(per.iter().all(|&n| n > 100), "{per:?}");
    }

    #[test]
    fn fabric_uniform_scales_to_wide_clos_port_counts() {
        // The Clos64/Clos256 fabrics drive 64 and 256 external ports;
        // the generator must cover the whole widened port space (u8
        // destinations top out at exactly 256) without self-traffic and
        // stay deterministic so fabric fingerprints are reproducible.
        for nports in [64usize, 256] {
            let w = Workload {
                pattern: Pattern::FabricUniform,
                ..Workload::average(64, 24, 9)
            };
            let a = generate_n(&w, nports);
            let b = generate_n(&w, nports);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.packet, y.packet);
                assert_eq!(x.release, y.release);
            }
            assert_eq!(a.len(), nports * 24);
            for s in &a {
                let dst = ((s.packet.header.dst >> 16) & 0xff) as usize;
                assert_ne!(dst, s.port, "self-traffic at {nports} ports");
                assert!(dst < nports, "dst {dst} out of range at {nports} ports");
            }
            // Uniform spray: every destination port draws traffic.
            let per = per_output_n(&a, nports);
            assert!(
                per.iter().all(|&n| n > 0),
                "uncovered destination at {nports} ports: {per:?}"
            );
        }
    }

    #[test]
    fn cross_stage_hotspot_is_deterministic_and_stays_in_group() {
        let w = Workload {
            pattern: Pattern::CrossStageHotspot {
                group: 2,
                group_size: 4,
            },
            ..Workload::average(64, 50, 17)
        };
        let a = generate_n(&w, 16);
        let b = generate_n(&w, 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.packet, y.packet);
        }
        let per = per_output_n(&a, 16);
        // All 800 packets land on egress group 2 (external ports 8..12).
        assert_eq!(per.iter().sum::<usize>(), 800);
        for (d, &n) in per.iter().enumerate() {
            if (8..12).contains(&d) {
                assert!(n > 100, "port {d} got {n}");
            } else {
                assert_eq!(n, 0, "port {d} outside the hot group got traffic");
            }
        }
    }

    #[test]
    fn sixteen_port_permutation_wraps_the_wide_port_space() {
        let w = Workload {
            pattern: Pattern::Permutation { shift: 5 },
            ..Workload::peak(64, 3)
        };
        let sched = generate_n(&w, 16);
        for s in &sched {
            let dst = ((s.packet.header.dst >> 16) & 0xff) as usize;
            assert_eq!(dst, (s.port + 5) % 16);
        }
        assert_eq!(
            per_output_n(&sched, 16),
            vec![3usize; 16],
            "a permutation loads every output equally"
        );
    }

    fn churn_workload(flows: u32, alpha_milli: u32, seed: u64) -> Workload {
        Workload {
            pattern: Pattern::FlowChurn {
                flows_per_port: flows,
                alpha_milli,
                mean_iat_cycles: 200,
                max_flow_pkts: 4096,
            },
            arrivals: Arrivals::Saturation,
            packet_bytes: 64,
            packets_per_port: 0, // ignored by FlowChurn
            seed,
            ttl: 64,
        }
    }

    #[test]
    fn flow_churn_is_deterministic_at_desc_and_packet_level() {
        let w = churn_workload(500, 1300, 42);
        let da = flow_churn_descs(&w, 4);
        let db = flow_churn_descs(&w, 4);
        assert_eq!(da, db);
        let a = generate_n(&w, 4);
        let b = generate_n(&w, 4);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.packet, y.packet);
            assert_eq!((x.port, x.release), (y.port, y.release));
        }
        // A different seed draws a different flow set.
        let dc = flow_churn_descs(&churn_workload(500, 1300, 43), 4);
        assert_ne!(da, dc);
    }

    #[test]
    fn flow_churn_sizes_are_heavy_tailed() {
        // alpha = 1.3: P(pkts = 1) = 1 - 2^-1.3 ≈ 0.594, and a power-law
        // tail — mice dominate by count while elephants carry the bytes.
        let descs = flow_churn_descs(&churn_workload(20_000, 1300, 7), 4);
        assert_eq!(descs.len(), 80_000);
        let n = descs.len() as f64;
        let ones = descs.iter().filter(|d| d.pkts == 1).count() as f64 / n;
        assert!((ones - 0.594).abs() < 0.02, "P(pkts=1) = {ones:.3}");
        let big = descs.iter().filter(|d| d.pkts >= 100).count() as f64 / n;
        // P(pkts >= 100) = 100^-1.3 ≈ 0.0025 — rare but present.
        assert!(big > 0.0005 && big < 0.01, "P(pkts>=100) = {big:.4}");
        // The top 1% of flows carry a disproportionate packet share.
        let mut sizes: Vec<u64> = descs.iter().map(|d| d.pkts as u64).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = sizes.iter().sum();
        let top: u64 = sizes[..sizes.len() / 100].iter().sum();
        assert!(
            top as f64 / total as f64 > 0.25,
            "top 1% of flows carry only {:.3} of packets",
            top as f64 / total as f64
        );
        // A heavier shape thins the tail.
        let steep = flow_churn_descs(&churn_workload(20_000, 3000, 7), 4);
        let steep_ones = steep.iter().filter(|d| d.pkts == 1).count() as f64 / n;
        assert!(steep_ones > ones, "{steep_ones:.3} vs {ones:.3}");
    }

    #[test]
    fn flow_churn_starts_advance_and_caps_hold() {
        let w = churn_workload(2_000, 1300, 11);
        let descs = flow_churn_descs(&w, 8);
        for port in 0..8 {
            let starts: Vec<u64> = descs
                .iter()
                .filter(|d| d.port == port)
                .map(|d| d.start)
                .collect();
            assert_eq!(starts.len(), 2_000);
            for w2 in starts.windows(2) {
                assert!(w2[1] > w2[0], "flow starts must be strictly increasing");
            }
            // Mean inter-arrival ≈ mean_iat_cycles (exponential).
            let mean = (starts[starts.len() - 1] - starts[0]) as f64 / (starts.len() - 1) as f64;
            assert!((100.0..400.0).contains(&mean), "mean IAT {mean}");
        }
        for d in &descs {
            assert!((1..=4096).contains(&d.pkts));
            assert!((d.dst as usize) < 8);
            assert_eq!(d.src, ((d.port as u32) << 24) | (d.flow + 1));
        }
    }

    #[test]
    fn flow_churn_packets_conserve_through_expected_per_output() {
        let w = churn_workload(300, 1300, 5);
        let descs = flow_churn_descs(&w, 4);
        let sched = generate_n(&w, 4);
        // Materialization conserves the flow sizes exactly.
        let total: u64 = descs.iter().map(|d| d.pkts as u64).sum();
        assert_eq!(sched.len() as u64, total);
        // And per-output counts match the descs' destination draws.
        let per = per_output_n(&sched, 4);
        for (dst, &got) in per.iter().enumerate() {
            let want: u64 = descs
                .iter()
                .filter(|d| d.dst as usize == dst)
                .map(|d| d.pkts as u64)
                .sum();
            assert_eq!(got as u64, want, "output {dst}");
        }
        // Per-port schedules are release-ordered, per-flow ids strictly
        // increasing.
        for port in 0..4 {
            let mine: Vec<&ScheduledPacket> = sched.iter().filter(|s| s.port == port).collect();
            for w2 in mine.windows(2) {
                assert!(w2[0].release <= w2[1].release);
            }
            let mut last_id = std::collections::HashMap::new();
            for s in &mine {
                let h = &s.packet.header;
                if let Some(prev) = last_id.insert(h.src, h.id) {
                    assert!(h.id > prev, "flow {:#x} reordered", h.src);
                }
                assert!(h.checksum_ok());
            }
        }
    }

    #[test]
    fn packets_have_valid_checksums_and_ids() {
        let sched = generate(&Workload::average(128, 20, 2));
        for s in &sched {
            assert!(s.packet.header.checksum_ok());
        }
        let ids: Vec<u16> = sched
            .iter()
            .filter(|s| s.port == 0)
            .map(|s| s.packet.header.id)
            .collect();
        assert_eq!(ids, (0..20).collect::<Vec<u16>>());
    }
}
