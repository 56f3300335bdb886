//! The functional reference of the paper's datapath — §4.2: validate the
//! header, decrement the TTL and patch the checksum, longest-prefix match,
//! the whole packet to the matched output(s), each input's packets in
//! offer order — and the one [`audit`] every router run is held to. It is
//! a differential: it shares no code with the tile programs, and looks up
//! with [`Engine::Patricia`] whatever engine the router runs. Rationale
//! and limits: DESIGN.md §4, "Reference model and audit".

use std::sync::Arc;

use raw_lookup::{decode_hop, Engine, ForwardingTable, Hop, RouteEntry};
use raw_net::{CorruptRng, IpError, Ipv4Header, Packet, IPV4_HEADER_BYTES, IPV4_HEADER_WORDS};
use raw_telemetry::DropReason;

use crate::devices::WIRE_IDLE;
use crate::layout::NPORTS;
use crate::router::{LookupFault, RawRouter};

/// The port table's routes: `10.<p>.0.0/16 -> port p` plus a default
/// route to port 0 (where a forced lookup miss lands too).
pub fn port_routes() -> Vec<RouteEntry> {
    let ports = (0..NPORTS as u32).map(|p| RouteEntry::new(0x0a00_0000 | (p << 16), 16, p));
    ports.chain([RouteEntry::new(0, 0, 0)]).collect()
}

/// The forwarding table of every single-router experiment and test.
pub fn port_table() -> Arc<ForwardingTable> {
    Arc::new(ForwardingTable::build(&port_routes()))
}

/// What the datapath does with one offered packet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Fate {
    /// A copy of `packet` (TTL − 1, checksum patched, payload untouched)
    /// leaves on every output in `out_mask`.
    Deliver { out_mask: u8, packet: Packet },
    /// Counted under this reason at the input and discarded.
    Drop(DropReason),
}

/// The fate of one offered word stream. `forced_miss` is asked once per
/// lookup whether fault injection sends it to the default port. The
/// checks come in the order the ingress meets them: a cut — the stream
/// ending early or going [`WIRE_IDLE`] — inside the header before
/// anything is parsed, a cut in the tail only after the TTL check and
/// the lookup (so it has spent its draw).
pub fn forward(table: &ForwardingTable, words: &[u32], forced_miss: impl FnOnce() -> bool) -> Fate {
    let cut = |span: Option<&[u32]>| span.is_none_or(|s| s.contains(&WIRE_IDLE));
    if cut(words.get(..IPV4_HEADER_WORDS)) {
        return Fate::Drop(DropReason::Truncated);
    }
    let hw = std::array::from_fn(|i| words[i]);
    let mut header = match Ipv4Header::from_words(&hw) {
        Ok(h) => h,
        Err(IpError::BadVersion(_)) => return Fate::Drop(DropReason::BadVersion),
        Err(IpError::BadChecksum) => return Fate::Drop(DropReason::BadChecksum),
        // An IHL above 5 claims option words the wire format never has.
        Err(IpError::BadIhl(_) | IpError::Truncated) => return Fate::Drop(DropReason::BadIhl),
        Err(_) => return Fate::Drop(DropReason::BadLength),
    };
    if header.forward_hop().is_err() {
        return Fate::Drop(DropReason::TtlExpired);
    }
    let hop = table.lookup(Engine::Patricia, header.dst).0.unwrap_or(0);
    let hop = if forced_miss() { 0 } else { hop };
    let need = IPV4_HEADER_WORDS + (header.total_len as usize - IPV4_HEADER_BYTES).div_ceil(4);
    if cut(words.get(IPV4_HEADER_WORDS..need)) {
        return Fate::Drop(DropReason::Truncated);
    }
    let mut packet = Packet::from_words(&words[..need]).expect("header and length checked");
    packet.header = header;
    let out_mask = match decode_hop(hop) {
        Hop::Unicast(p) => 1 << (p as usize % NPORTS),
        Hop::Multicast(m) => m & ((1 << NPORTS) - 1),
    };
    Fate::Deliver { out_mask, packet }
}

/// What a whole offered schedule must produce.
pub struct Expected {
    /// `deliveries[input][output]`, in offer order.
    deliveries: [[Vec<Packet>; NPORTS]; NPORTS],
    /// `drops[input]`, indexed by [`DropReason::index`].
    drops: [[u64; DropReason::COUNT]; NPORTS],
}

impl Expected {
    /// [`forward`] over `offered`, `(input port, wire words)` in offer
    /// order. Under `fault` each input replays its Lookup Processor's
    /// seeded miss stream (`seed + port`, one draw per lookup).
    pub fn of<W: AsRef<[u32]>>(
        table: &ForwardingTable,
        fault: Option<LookupFault>,
        offered: impl IntoIterator<Item = (usize, W)>,
    ) -> Expected {
        let mut miss: [_; NPORTS] = std::array::from_fn(|p| {
            fault.map(|f| (CorruptRng::new(f.seed.wrapping_add(p as u64)), f.miss_ppm))
        });
        let mut e = Expected {
            deliveries: Default::default(),
            drops: Default::default(),
        };
        for (input, words) in offered {
            let draw = miss[input].as_mut();
            let forced_miss = || draw.is_some_and(|(rng, ppm)| rng.chance_ppm(*ppm));
            match forward(table, words.as_ref(), forced_miss) {
                Fate::Drop(reason) => e.drops[input][reason.index()] += 1,
                Fate::Deliver { out_mask, packet } => {
                    for (output, queue) in e.deliveries[input].iter_mut().enumerate() {
                        if out_mask & (1 << output) != 0 {
                            queue.push(packet.clone());
                        }
                    }
                }
            }
        }
        e
    }

    /// Copies due over all outputs (a multicast packet counts once per
    /// member port).
    pub fn copies(&self) -> u64 {
        let queues = self.deliveries.iter().flatten();
        queues.map(|q| q.len() as u64).sum()
    }

    /// Offered packets that must be dropped.
    pub fn dropped(&self) -> u64 {
        self.drops.iter().flatten().sum()
    }

    /// Every disagreement of a run with the reference, one line each. The
    /// one rule: at every output, the delivered stream restricted to each
    /// input's packets is a prefix of — when `drained`, equal to — that
    /// (input, output) pair's sequence, byte for byte; per input and per
    /// [`DropReason`], drops are at most — when `drained`, exactly — the
    /// reference's, and sum to `packets_dropped`; no output saw a stream
    /// it could not parse. A delivery belongs to the input whose next due
    /// packet it equals (inputs must not offer identical packets).
    pub fn check(&self, r: &RawRouter, drained: bool) -> Vec<String> {
        let mut errs = Vec::new();
        for output in 0..NPORTS {
            let col = r.collected(output);
            let unparsed = col.parse_errors + col.unexpected_fragments;
            if unparsed != 0 {
                errs.push(format!("output {output}: {unparsed} unparseable streams"));
            }
            let mut next = [0usize; NPORTS];
            let stray = col.packets.iter().position(|(_, pkt)| {
                let due = |&i: &usize| self.deliveries[i][output].get(next[i]) == Some(pkt);
                let Some(from) = (0..NPORTS).find(due) else {
                    return true;
                };
                next[from] += 1;
                false
            });
            if let Some(k) = stray {
                // Everything after a disagreement would cascade.
                let (cycle, p) = &col.packets[k];
                errs.push(format!(
                    "output {output}: delivery #{k} (cycle {cycle}, src {:#010x} dst {:#010x} id \
                     {} ttl {}, {} B) is not the next packet of any input (they are at {next:?}): \
                     the reference has {}",
                    p.header.src,
                    p.header.dst,
                    p.header.id,
                    p.header.ttl,
                    p.total_bytes(),
                    self.locate(p)
                ));
            } else if drained {
                for (input, &got) in next.iter().enumerate() {
                    let want = self.deliveries[input][output].len();
                    if got != want {
                        errs.push(format!(
                            "output {output}: {got} of {want} packets from input {input} arrived"
                        ));
                    }
                }
            }
        }
        for input in 0..NPORTS {
            let (total, drops) = r.ingress_drops(input);
            let sum: u64 = drops.iter().sum();
            if total != sum {
                errs.push(format!(
                    "input {input}: packets_dropped {total} != classified drop sum {sum}"
                ));
            }
            for reason in DropReason::ALL {
                let (got, want) = (drops[reason.index()], self.drops[input][reason.index()]);
                if got > want || (drained && got != want) {
                    let name = reason.name();
                    errs.push(format!(
                        "input {input}: {got} {name} drops, the reference has {want}"
                    ));
                }
            }
        }
        errs
    }

    /// Where the reference does have `pkt`, for the disagreement line.
    fn locate(&self, pkt: &Packet) -> String {
        for (input, queues) in self.deliveries.iter().enumerate() {
            for (output, queue) in queues.iter().enumerate() {
                if let Some(at) = queue.iter().position(|q| q == pkt) {
                    return format!("it as #{at} of input {input} -> output {output}");
                }
            }
        }
        "no such packet (header or payload differs)".into()
    }
}

/// Audit a run of `r`: `offered` is every `(input port, wire words)`
/// handed to [`RawRouter::offer`] / [`RawRouter::offer_raw`], in offer
/// order; `drained` says the run is believed complete, so nothing may be
/// missing either. See [`Expected::check`] for the rule.
pub fn audit<W: AsRef<[u32]>>(
    r: &RawRouter,
    offered: impl IntoIterator<Item = (usize, W)>,
    drained: bool,
) -> Vec<String> {
    Expected::of(&r.table, r.cfg.lookup_fault, offered).check(r, drained)
}
