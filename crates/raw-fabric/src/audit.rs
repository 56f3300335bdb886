//! The fabric audit: every injected stream replayed hop by hop through
//! the single-router functional reference ([`raw_xbar::reference::forward`])
//! on each hop's own forwarding table, following the wiring until it
//! leaves on an external output, and the run held to the result by the
//! same rule [`raw_xbar::reference`] holds one router to. No second model
//! of the datapath is written here. Rationale and limits: DESIGN.md §4,
//! "Reference model and audit".

use std::collections::BTreeMap;

use raw_net::Packet;
use raw_telemetry::DropReason;
use raw_xbar::reference::{forward, Fate};
use raw_xbar::NPORTS;

use crate::fabric::RawFabric;

/// The granularity the fabric keeps order at: the external input a stream
/// entered by and the middle stage stamped into it at injection. Every
/// packet of one key that reaches one external output took the same hops,
/// and every hop — a router's (input, output) pair, a link — is FIFO.
type Key = (usize, u8);

fn middle(p: &Packet) -> u8 {
    (p.header.dst >> 8) as u8
}

/// What the injected streams must produce.
struct Expected {
    /// `deliveries[external output][key]`, in injection order.
    deliveries: Vec<BTreeMap<Key, Vec<Packet>>>,
    /// `drops[router][input]`, indexed by [`DropReason::index`].
    drops: Vec<[[u64; DropReason::COUNT]; NPORTS]>,
}

impl Expected {
    fn of(fab: &RawFabric) -> Expected {
        let mut e = Expected {
            deliveries: vec![BTreeMap::new(); fab.ext_ports()],
            drops: vec![[[0; DropReason::COUNT]; NPORTS]; fab.plan.routers.len()],
        };
        for (ext, words) in fab.injected() {
            let (r, input) = fab.plan.ext_in[ext];
            e.walk(fab, ext, r, input, &words);
        }
        e
    }

    /// One hop: `words` from external input `ext` arrive at router `r`'s
    /// `input`. `try_new`'s static gate proved the tables loop-free and
    /// every routed output wired (RV602, RV604).
    fn walk(&mut self, fab: &RawFabric, ext: usize, r: usize, input: usize, words: &[u32]) {
        let (out_mask, packet) = match forward(&fab.routers[r].table, words, || false) {
            Fate::Drop(reason) => return self.drops[r][input][reason.index()] += 1,
            Fate::Deliver { out_mask, packet } => (out_mask, packet),
        };
        for output in (0..NPORTS).filter(|o| out_mask & (1 << o) != 0) {
            if let Some(li) = fab.plan.link_out_of(r, output) {
                let (next, next_input) = fab.plan.links[li].to;
                self.walk(fab, ext, next, next_input, &packet.to_words());
            } else if let Some(d) = fab.plan.ext_out.iter().position(|&o| o == (r, output)) {
                let due = self.deliveries[d].entry((ext, middle(&packet)));
                due.or_default().push(packet.clone());
            }
        }
    }

    /// The rule, per external output and per key: what arrived is a
    /// prefix of — when `drained`, equal to — the key's sequence, byte for
    /// byte. A delivery belongs to the key whose next due packet it
    /// equals. Per router, input and [`DropReason`], drops are at most —
    /// when `drained`, exactly — the reference's.
    fn check(&self, fab: &RawFabric, drained: bool, errs: &mut Vec<String>) {
        for (d, keys) in self.deliveries.iter().enumerate() {
            let due: Vec<(&Key, &Vec<Packet>)> = keys.iter().collect();
            let mut next = vec![0usize; due.len()];
            let got = &fab.ext_collected(d).packets;
            let stray = got.iter().position(|(_, pkt)| {
                let Some(k) = (0..due.len()).find(|&k| due[k].1.get(next[k]) == Some(pkt)) else {
                    return true;
                };
                next[k] += 1;
                false
            });
            if let Some(k) = stray {
                // Everything after a disagreement would cascade.
                let (cycle, p) = &got[k];
                errs.push(format!(
                    "external output {d}: delivery #{k} (cycle {cycle}, src {:#010x} dst {:#010x} \
                     id {} ttl {}, {} B) is not the next packet of any (ingress, middle) key: the \
                     reference has {}",
                    p.header.src,
                    p.header.dst,
                    p.header.id,
                    p.header.ttl,
                    p.total_bytes(),
                    self.locate(p)
                ));
            } else if drained {
                for (((ingress, middle), queue), n) in due.iter().zip(next) {
                    if n != queue.len() {
                        errs.push(format!(
                            "external output {d}: {n} of {} packets from ingress {ingress} via \
                             middle {middle} arrived",
                            queue.len()
                        ));
                    }
                }
            }
        }
        for (r, router) in fab.routers.iter().enumerate() {
            for input in 0..NPORTS {
                let drops = router.ingress_drops(input).1;
                for reason in DropReason::ALL {
                    let (got, want) = (drops[reason.index()], self.drops[r][input][reason.index()]);
                    if got > want || (drained && got != want) {
                        errs.push(format!(
                            "router {r} input {input}: {got} {} drops, the reference has {want}",
                            reason.name()
                        ));
                    }
                }
            }
        }
    }

    /// Where the reference does have `pkt`, for the disagreement line.
    fn locate(&self, pkt: &Packet) -> String {
        for (d, keys) in self.deliveries.iter().enumerate() {
            for ((ingress, middle), queue) in keys {
                if let Some(at) = queue.iter().position(|q| q == pkt) {
                    return format!(
                        "it as #{at} of ingress {ingress} via middle {middle} -> external output {d}"
                    );
                }
            }
        }
        "no such packet (header or payload differs)".into()
    }
}

/// The count planes, all a run with forced lookup misses is held to: a
/// router past the ingress stage draws its misses in link-arrival order,
/// which the reference cannot replay. Nothing is delivered or dropped
/// that was not offered, fabric-wide and per router — exactly so when
/// `drained`.
fn count_planes(fab: &RawFabric, drained: bool, errs: &mut Vec<String>) {
    let mut check = |what: String, out: u64, offered: u64| {
        if out > offered || (drained && out != offered) {
            errs.push(format!("{what}: {out} out of {offered} offered"));
        }
    };
    let delivered: u64 = (0..fab.ext_ports())
        .map(|d| fab.ext_collected(d).packets.len() as u64)
        .sum();
    let dropped = fab.dropped_count();
    check(
        format!("delivered {delivered} + dropped {dropped}"),
        delivered + dropped,
        fab.offered(),
    );
    for (r, router) in fab.routers.iter().enumerate() {
        let forwarded: u64 = fab
            .links
            .iter()
            .filter(|l| l.spec.from.0 == r)
            .map(|l| l.stats.packets)
            .sum();
        let (del, drop) = (router.delivered_count(), router.dropped_count());
        check(
            format!("router {r}: delivered {del} + forwarded {forwarded} + dropped {drop}"),
            del + forwarded + drop,
            router.offered(),
        );
    }
}

/// Every disagreement of a fabric run with the per-router reference, one
/// line each (empty == the run is right). `drained` says the run is
/// believed complete, so nothing may be missing either. On every router
/// no output saw a stream it could not parse, and every input's drops sum
/// to its `packets_dropped`. Then, without lookup faults, the rule: at
/// each external output the deliveries of each (ingress, middle) key are
/// a prefix of — when `drained`, equal to — that key's reference
/// sequence, byte for byte, and per router, input and [`DropReason`]
/// drops are at most — when `drained`, exactly — the reference's. Per-key
/// order, exactly-once delivery, the right output and `offered ==
/// delivered + dropped` follow from it. With lookup faults armed, only
/// the count planes (DESIGN.md §4, "Limits"). When `drained`, also what
/// the replay cannot see: [`RawFabric::conservation_errors`].
pub fn audit(fab: &RawFabric, drained: bool) -> Vec<String> {
    let mut errs = Vec::new();
    for (r, router) in fab.routers.iter().enumerate() {
        for port in 0..NPORTS {
            let col = router.collected(port);
            let unparsed = col.parse_errors + col.unexpected_fragments;
            if unparsed != 0 {
                errs.push(format!(
                    "router {r} output {port}: {unparsed} unparseable streams"
                ));
            }
            let (total, drops) = router.ingress_drops(port);
            let sum: u64 = drops.iter().sum();
            if total != sum {
                errs.push(format!(
                    "router {r} input {port}: packets_dropped {total} != classified drop sum {sum}"
                ));
            }
        }
    }
    if fab.cfg.router.lookup_fault.is_some() {
        count_planes(fab, drained, &mut errs);
    } else {
        Expected::of(fab).check(fab, drained, &mut errs);
    }
    if drained {
        errs.extend(fab.conservation_errors());
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fabric_addr, Executor, FabricConfig, Topology};
    use raw_workloads::{generate_n, src_addr, Arrivals, Pattern, Workload};
    use raw_xbar::LookupFault;

    /// A drained, audited run of `cfg`: fabric-uniform traffic plus one
    /// TTL-1 and one TTL-2 packet from external input 0 to the last
    /// external output.
    fn drained(cfg: FabricConfig) -> RawFabric {
        let ports = cfg.topology.ext_ports();
        let mut fab = RawFabric::try_new(cfg).expect("valid config");
        let w = Workload {
            pattern: Pattern::FabricUniform,
            arrivals: Arrivals::Saturation,
            packet_bytes: 64,
            packets_per_port: 6,
            seed: 27,
            ttl: 64,
        };
        for s in generate_n(&w, ports) {
            fab.offer(s.port, s.release, &s.packet);
        }
        let far = fabric_addr(ports as u8 - 1, 0);
        for ttl in [1, 2] {
            fab.offer(0, 0, &Packet::synthetic(src_addr(200), far, 64, ttl, 0));
        }
        assert!(fab.run_until_drained_with(50_000, Executor::Reference));
        assert_eq!(audit(&fab, true), Vec::<String>::new());
        fab
    }

    fn cfg(topology: Topology) -> FabricConfig {
        FabricConfig {
            topology,
            epoch_cycles: 256,
            ..FabricConfig::default()
        }
    }

    fn output(fab: &mut RawFabric, d: usize) -> &mut Vec<(u64, Packet)> {
        let (r, p) = fab.plan.ext_out[d];
        &mut fab.routers[r].collected_mut(p).packets
    }

    /// One seeded edit of the run's delivered streams or drop counters.
    type Edit<'a> = &'a dyn Fn(&mut RawFabric);

    /// Audit the run with `edit` applied, then undo it and show the run
    /// reads clean again.
    fn audit_edited(fab: &mut RawFabric, drained: bool, edit: Edit) -> Vec<String> {
        let outputs: Vec<_> = (0..fab.ext_ports())
            .map(|d| output(fab, d).clone())
            .collect();
        let drops: Vec<Vec<_>> = fab
            .routers
            .iter()
            .map(|r| (0..NPORTS).map(|p| r.ingress_stats(p).drops).collect())
            .collect();
        edit(fab);
        let errs = audit(fab, drained);
        for (d, packets) in outputs.into_iter().enumerate() {
            *output(fab, d) = packets;
        }
        for (r, ports) in drops.into_iter().enumerate() {
            for (p, d) in ports.into_iter().enumerate() {
                fab.routers[r].ingress_stats_mut(p).drops = d;
            }
        }
        assert_eq!(audit(fab, true), Vec::<String>::new(), "undone edit");
        errs
    }

    fn seeded_mutants_are_caught(mut fab: RawFabric) {
        let name = fab.plan.topology.name();
        let ports = fab.ext_ports();
        let packets = |fab: &RawFabric, d: usize| fab.ext_collected(d).packets.clone();
        let d = (0..ports).max_by_key(|&d| packets(&fab, d).len()).unwrap();
        let at_d = packets(&fab, d);
        let same_key = |i: usize, j: usize| {
            let (a, b) = (&at_d[i].1.header, &at_d[j].1.header);
            (a.src, a.dst) == (b.src, b.dst)
        };
        let (i, j) = (0..at_d.len())
            .flat_map(|i| (i + 1..at_d.len()).map(move |j| (i, j)))
            .find(|&(i, j)| same_key(i, j))
            .expect("two packets of one key at the busiest output");
        let adjacent = (1..at_d.len())
            .find(|&k| middle(&at_d[k - 1].1) != middle(&at_d[k].1))
            .expect("adjacent deliveries of different middles");
        let (r0, p0) = fab.plan.ext_in[0];

        let mutants: [(&str, bool, Edit); 7] = [
            ("a delivery moved to another external output", false, &|f| {
                let p = output(f, d).remove(0);
                output(f, (d + 1) % ports).push(p);
            }),
            ("two packets of one key swapped", false, &|f| {
                output(f, d).swap(i, j)
            }),
            ("the TTL restored at egress, checksum fixed", false, &|f| {
                let h = &mut output(f, d)[0].1.header;
                h.ttl += 1;
                h.checksum = h.compute_checksum();
            }),
            ("a payload byte flipped", false, &|f| {
                output(f, d)[0].1.payload[5] ^= 0x10
            }),
            ("a duplicate", false, &|f| {
                let dup = output(f, d)[0].clone();
                output(f, d).insert(1, dup);
            }),
            ("a removal", true, &|f| {
                output(f, d).pop();
            }),
            ("one drop moved between reasons", false, &|f| {
                let drops = &mut f.routers[r0].ingress_stats_mut(p0).drops;
                drops[DropReason::TtlExpired.index()] -= 1;
                drops[DropReason::BadChecksum.index()] += 1;
            }),
        ];
        for (what, drained, edit) in mutants {
            let errs = audit_edited(&mut fab, drained, edit);
            assert!(!errs.is_empty(), "{name}: {what} was not caught");
        }
        // A removal leaves a prefix: only completeness can tell.
        let removal = &|f: &mut RawFabric| {
            output(f, d).pop();
        };
        assert_eq!(audit_edited(&mut fab, false, removal), Vec::<String>::new());
        // Packets of different middles crossed different routers, so
        // they may reach one output in either order.
        let cross = &|f: &mut RawFabric| output(f, d).swap(adjacent - 1, adjacent);
        assert_eq!(
            audit_edited(&mut fab, true, cross),
            Vec::<String>::new(),
            "{name}"
        );
    }

    #[test]
    fn seeded_mutants_are_caught_on_clos16() {
        seeded_mutants_are_caught(drained(cfg(Topology::Clos16)));
    }

    #[test]
    fn seeded_mutants_are_caught_on_folded8_with_local_turnaround() {
        let fab = drained(cfg(Topology::Folded8));
        // One hop for same-leaf traffic, three across the spines.
        let ttls: Vec<u8> = (0..8)
            .flat_map(|d| {
                fab.ext_collected(d)
                    .packets
                    .iter()
                    .map(|(_, p)| p.header.ttl)
            })
            .collect();
        assert!(ttls.contains(&63) && ttls.contains(&61), "{ttls:?}");
        seeded_mutants_are_caught(fab);
    }

    #[test]
    fn a_ttl_2_packet_is_owed_as_a_drop_at_the_middle_stage() {
        let fab = drained(cfg(Topology::Clos16));
        let e = Expected::of(&fab);
        let at_stage = |stage: usize| -> u64 {
            let routers =
                (0..fab.plan.routers.len()).filter(|&r| fab.plan.routers[r].stage == stage);
            let ttl = DropReason::TtlExpired.index();
            routers.flat_map(|r| e.drops[r]).map(|d| d[ttl]).sum()
        };
        assert_eq!([at_stage(0), at_stage(1), at_stage(2)], [1, 1, 0]);
    }

    /// Under forced lookup misses the audit holds the count planes: a
    /// lost delivery still shows once the run is drained.
    #[test]
    fn lookup_faults_fall_back_to_the_count_planes() {
        let mut c = cfg(Topology::Clos16);
        c.router.lookup_fault = Some(LookupFault {
            seed: 5,
            miss_ppm: 200_000,
            penalty_cycles: 8,
        });
        let mut fab = drained(c);
        let d = (0..16).find(|&d| !output(&mut fab, d).is_empty()).unwrap();
        let removal = &|f: &mut RawFabric| {
            output(f, d).pop();
        };
        assert_eq!(audit_edited(&mut fab, false, removal), Vec::<String>::new());
        assert!(!audit_edited(&mut fab, true, removal).is_empty());
    }
}
