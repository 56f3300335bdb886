//! The full recording sink: packet lifecycles and the machine's last
//! per-tile state and per-(tile, net) switch stall totals. Drop counts
//! are the router's own (`IngressStats::drops`), handed to
//! [`Recorder::summary`].

use std::collections::{HashMap, VecDeque};

use crate::sink::{Stage, SwitchStallCause, TelemetrySink, TileState};

/// A completed packet's lifecycle stamps (cycle numbers).
#[derive(Clone, Copy, Debug)]
pub struct PacketLife {
    /// Ingress port and per-port packet id.
    pub port: u8,
    pub id: u32,
    /// Output port the last egress copy left on.
    pub dst: u8,
    pub accept: u64,
    pub lookup_issue: Option<u64>,
    pub lookup_complete: Option<u64>,
    pub grant: Option<u64>,
    pub first_word: Option<u64>,
    pub last_word: u64,
}

/// A derived per-stage interval over a [`PacketLife`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StageSpan {
    /// Ingress-accept to lookup-issue: header assembly + ingress queueing.
    Ingress,
    /// Lookup-issue to lookup-complete: the lookup processor round trip.
    Lookup,
    /// Lookup-complete to first crossbar grant: token/bid wait.
    XbarWait,
    /// Grant to first word out: crossbar traversal + egress launch.
    EgressLaunch,
    /// First word out to last word out: serialization on the output wire.
    Serialize,
    /// Accept to last word out: the packet's full residence time.
    Total,
}

impl StageSpan {
    pub const ALL: [StageSpan; 6] = [
        StageSpan::Ingress,
        StageSpan::Lookup,
        StageSpan::XbarWait,
        StageSpan::EgressLaunch,
        StageSpan::Serialize,
        StageSpan::Total,
    ];

    pub fn name(self) -> &'static str {
        match self {
            StageSpan::Ingress => "ingress",
            StageSpan::Lookup => "lookup",
            StageSpan::XbarWait => "xbar_wait",
            StageSpan::EgressLaunch => "egress_launch",
            StageSpan::Serialize => "serialize",
            StageSpan::Total => "total",
        }
    }

    /// The interval in cycles, when both endpoints were stamped.
    pub fn of(self, life: &PacketLife) -> Option<u64> {
        let span = |a: Option<u64>, b: Option<u64>| -> Option<u64> { b?.checked_sub(a?) };
        match self {
            StageSpan::Ingress => span(Some(life.accept), life.lookup_issue),
            StageSpan::Lookup => span(life.lookup_issue, life.lookup_complete),
            StageSpan::XbarWait => span(life.lookup_complete, life.grant),
            StageSpan::EgressLaunch => span(life.grant, life.first_word),
            StageSpan::Serialize => span(life.first_word, Some(life.last_word)),
            StageSpan::Total => Some(life.last_word - life.accept),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct OpenPacket {
    accept: u64,
    lookup_issue: Option<u64>,
    lookup_complete: Option<u64>,
    grant: Option<u64>,
    first_word: Option<u64>,
    dst_mask: u8,
    /// Egress copies still outstanding (popcount of dst_mask at grant).
    copies_left: u8,
}

/// The full recording [`TelemetrySink`].
///
/// Egress stamps arrive keyed by `(source port, output port)` — the
/// egress tile sees the fragment tag, not the ingress packet id — so the
/// recorder matches them to ids through a per-`(src, dst)` FIFO of
/// granted packets. Fragments of packets on the same `(src, dst)` pair
/// stream through the crossbar in grant order, so the match is exact for
/// FIFO-queued unicast traffic (the configuration the telemetry report
/// runs); under VOQ or multicast it is best-effort.
pub struct Recorder {
    tiles: usize,
    nets: usize,
    /// The machine's totals as of its last run call (see
    /// [`TelemetrySink::cycle_totals`]): overwritten, never accumulated.
    tile_states: Vec<[u64; TileState::COUNT]>,
    switch_stalls: Vec<Vec<[u64; SwitchStallCause::COUNT]>>,
    open: HashMap<(u8, u32), OpenPacket>,
    egress_fifo: HashMap<(u8, u8), VecDeque<(u8, u32)>>,
    lives: Vec<PacketLife>,
    /// Egress stamps that found no granted packet to match (sink attached
    /// mid-run, or reordering the FIFO model cannot express).
    pub unmatched_egress: u64,
}

impl Recorder {
    pub fn new(tiles: usize, nets: usize) -> Recorder {
        Recorder {
            tiles,
            nets,
            tile_states: vec![[0; TileState::COUNT]; tiles],
            switch_stalls: vec![vec![[0; SwitchStallCause::COUNT]; nets]; tiles],
            open: HashMap::new(),
            egress_fifo: HashMap::new(),
            lives: Vec::new(),
            unmatched_egress: 0,
        }
    }

    pub fn tiles(&self) -> usize {
        self.tiles
    }

    pub fn nets(&self) -> usize {
        self.nets
    }

    /// Completed packet lifecycles, in completion order.
    pub fn lives(&self) -> &[PacketLife] {
        &self.lives
    }

    /// Packets stamped at ingress but not yet fully egressed.
    pub fn open_packets(&self) -> usize {
        self.open.len()
    }

    /// Per-tile refined state counters, indexed by [`TileState::index`].
    pub fn tile_state_counts(&self, tile: usize) -> [u64; TileState::COUNT] {
        self.tile_states[tile]
    }

    /// Total cycles credited to `tile` across all states.
    pub fn tile_total(&self, tile: usize) -> u64 {
        self.tile_states[tile].iter().sum()
    }

    /// Per-(tile, net) switch stall counters, indexed by
    /// [`SwitchStallCause::index`].
    pub fn switch_stall_counts(&self, tile: usize, net: usize) -> [u64; SwitchStallCause::COUNT] {
        self.switch_stalls[tile][net]
    }
}

impl TelemetrySink for Recorder {
    fn packet_event(&mut self, cycle: u64, port: u8, id: u32, stage: Stage) {
        match stage {
            Stage::IngressAccept => {
                self.open.insert(
                    (port, id),
                    OpenPacket {
                        accept: cycle,
                        lookup_issue: None,
                        lookup_complete: None,
                        grant: None,
                        first_word: None,
                        dst_mask: 0,
                        copies_left: 0,
                    },
                );
            }
            Stage::LookupIssue => {
                if let Some(p) = self.open.get_mut(&(port, id)) {
                    p.lookup_issue.get_or_insert(cycle);
                }
            }
            Stage::LookupComplete => {
                if let Some(p) = self.open.get_mut(&(port, id)) {
                    p.lookup_complete.get_or_insert(cycle);
                }
            }
            Stage::CrossbarGrant => {
                if let Some(p) = self.open.get_mut(&(port, id)) {
                    if p.grant.is_none() {
                        p.grant = Some(cycle);
                        let mask = p.dst_mask;
                        p.copies_left = mask.count_ones() as u8;
                        for dst in 0..8u8 {
                            if mask & (1 << dst) != 0 {
                                self.egress_fifo
                                    .entry((port, dst))
                                    .or_default()
                                    .push_back((port, id));
                            }
                        }
                    }
                }
            }
            // Egress-side stages arrive via `egress_event`.
            Stage::FirstWordEgress | Stage::LastWordEgress => {}
        }
    }

    fn packet_dst(&mut self, port: u8, id: u32, dst_mask: u8) {
        if let Some(p) = self.open.get_mut(&(port, id)) {
            p.dst_mask = dst_mask;
        }
    }

    fn egress_event(&mut self, cycle: u64, src_port: u8, out_port: u8, stage: Stage) {
        let Some(queue) = self.egress_fifo.get_mut(&(src_port, out_port)) else {
            self.unmatched_egress += 1;
            return;
        };
        let Some(&key) = queue.front() else {
            self.unmatched_egress += 1;
            return;
        };
        match stage {
            Stage::FirstWordEgress => {
                if let Some(p) = self.open.get_mut(&key) {
                    p.first_word.get_or_insert(cycle);
                }
            }
            Stage::LastWordEgress => {
                queue.pop_front();
                let done = if let Some(p) = self.open.get_mut(&key) {
                    p.copies_left = p.copies_left.saturating_sub(1);
                    p.copies_left == 0
                } else {
                    false
                };
                if done {
                    let p = self.open.remove(&key).expect("open packet");
                    self.lives.push(PacketLife {
                        port: key.0,
                        id: key.1,
                        dst: out_port,
                        accept: p.accept,
                        lookup_issue: p.lookup_issue,
                        lookup_complete: p.lookup_complete,
                        grant: p.grant,
                        first_word: p.first_word,
                        last_word: cycle,
                    });
                }
            }
            _ => {}
        }
    }

    fn cycle_totals(
        &mut self,
        tile: u16,
        states: &[u64; TileState::COUNT],
        stalls: &[[u64; SwitchStallCause::COUNT]],
    ) {
        self.tile_states[tile as usize] = *states;
        for (row, net) in self.switch_stalls[tile as usize].iter_mut().zip(stalls) {
            *row = *net;
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lifecycle(r: &mut Recorder, port: u8, id: u32, dst: u8, base: u64) {
        r.packet_event(base, port, id, Stage::IngressAccept);
        r.packet_event(base + 4, port, id, Stage::LookupIssue);
        r.packet_dst(port, id, 1 << dst);
        r.packet_event(base + 12, port, id, Stage::LookupComplete);
        r.packet_event(base + 20, port, id, Stage::CrossbarGrant);
        r.egress_event(base + 24, port, dst, Stage::FirstWordEgress);
        r.egress_event(base + 40, port, dst, Stage::LastWordEgress);
    }

    #[test]
    fn lifecycle_intervals_are_derived() {
        let mut r = Recorder::new(16, 2);
        lifecycle(&mut r, 1, 7, 2, 100);
        assert_eq!(r.lives().len(), 1);
        assert_eq!(r.open_packets(), 0);
        let life = r.lives()[0];
        assert_eq!(life.dst, 2);
        assert_eq!(StageSpan::Ingress.of(&life), Some(4));
        assert_eq!(StageSpan::Lookup.of(&life), Some(8));
        assert_eq!(StageSpan::XbarWait.of(&life), Some(8));
        assert_eq!(StageSpan::EgressLaunch.of(&life), Some(4));
        assert_eq!(StageSpan::Serialize.of(&life), Some(16));
        assert_eq!(StageSpan::Total.of(&life), Some(40));
    }

    #[test]
    fn grant_order_matching_is_fifo_per_pair() {
        let mut r = Recorder::new(16, 2);
        // Two packets from port 0 to port 3, granted in order.
        for id in [0u32, 1] {
            r.packet_event(10 + id as u64, 0, id, Stage::IngressAccept);
            r.packet_dst(0, id, 1 << 3);
            r.packet_event(20 + id as u64, 0, id, Stage::CrossbarGrant);
        }
        r.egress_event(30, 0, 3, Stage::FirstWordEgress);
        r.egress_event(35, 0, 3, Stage::LastWordEgress);
        r.egress_event(40, 0, 3, Stage::FirstWordEgress);
        r.egress_event(45, 0, 3, Stage::LastWordEgress);
        assert_eq!(r.lives().len(), 2);
        assert_eq!(r.lives()[0].id, 0);
        assert_eq!(r.lives()[0].last_word, 35);
        assert_eq!(r.lives()[1].id, 1);
        assert_eq!(r.lives()[1].last_word, 45);
        assert_eq!(r.unmatched_egress, 0);
    }

    #[test]
    fn repeated_grants_stamp_only_the_first() {
        let mut r = Recorder::new(16, 2);
        r.packet_event(0, 2, 9, Stage::IngressAccept);
        r.packet_dst(2, 9, 1 << 1);
        r.packet_event(50, 2, 9, Stage::CrossbarGrant);
        r.packet_event(90, 2, 9, Stage::CrossbarGrant); // second fragment
        r.egress_event(100, 2, 1, Stage::LastWordEgress);
        assert_eq!(r.lives()[0].grant, Some(50));
    }

    #[test]
    fn unmatched_egress_is_counted_not_fatal() {
        let mut r = Recorder::new(16, 2);
        r.egress_event(5, 0, 0, Stage::FirstWordEgress);
        assert_eq!(r.unmatched_egress, 1);
        assert!(r.lives().is_empty());
    }

    /// Each snapshot replaces the last: the recorder holds the machine's
    /// totals, which conserve because the machine's ledger does.
    #[test]
    fn counters_accumulate_and_conserve() {
        let mut r = Recorder::new(4, 2);
        let mut states = [0; TileState::COUNT];
        states[TileState::Busy.index()] = 4;
        r.cycle_totals(0, &states, &[[0; SwitchStallCause::COUNT]; 2]);
        states[TileState::Busy.index()] = 10;
        states[TileState::Idle.index()] = 5;
        states[TileState::TokenWait.index()] = 85;
        r.cycle_totals(0, &states, &[[0; SwitchStallCause::COUNT]; 2]);
        assert_eq!(r.tile_total(0), 100);
        let c = r.tile_state_counts(0);
        assert_eq!(c[TileState::Busy.index()], 10);
        let mut stalls = [[0; SwitchStallCause::COUNT]; 2];
        stalls[1][SwitchStallCause::DeviceBackpressure.index()] = 7;
        r.cycle_totals(3, &[0; TileState::COUNT], &stalls);
        r.cycle_totals(3, &[0; TileState::COUNT], &stalls);
        assert_eq!(
            r.switch_stall_counts(3, 1)[SwitchStallCause::DeviceBackpressure.index()],
            7
        );
        assert_eq!(r.switch_stall_counts(3, 0), [0; SwitchStallCause::COUNT]);
    }
}
