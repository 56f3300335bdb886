//! The dynamic networks: wormhole-routed, dimension-ordered, two-stage
//! pipelined mesh networks (§3.3).
//!
//! Raw has two identical dynamic networks, used for communication patterns
//! that cannot be determined at compile time — cache misses travel over the
//! memory dynamic network, and external asynchronous events over the
//! general one. Messages are a header word plus up to 31 payload words; the
//! header carries the destination tile and the payload length, and routing
//! is X-then-Y (dimension-ordered), which is deadlock-free on a mesh.
//!
//! The Rotating Crossbar deliberately does *not* use these networks
//! (§6.5); they are modeled for completeness, for the cache-miss path, and
//! for the non-blocking-memory future-work experiments (§8.2).

use crate::fifo::Ring;
use crate::geom::{Dir, GridDim, TileId};
use crate::machine::{CDNI_CAPACITY, DYN_FIFO_CAPACITY};

/// Payload length limit: "messages on this network can vary in length from
/// only the header up to 32 words including the header".
pub const MAX_PAYLOAD_WORDS: u32 = 31;

/// Pack a dynamic-network header word.
///
/// Layout: `[4:0]` payload length, `[12:5]` destination column, `[20:13]`
/// destination row, `[31:21]` user tag.
pub fn pack_header(dest_row: u16, dest_col: u16, len: u32, user: u32) -> u32 {
    assert!(len <= MAX_PAYLOAD_WORDS, "payload too long for one message");
    assert!(dest_row < 256 && dest_col < 256);
    assert!(user < (1 << 11));
    len | ((dest_col as u32) << 5) | ((dest_row as u32) << 13) | (user << 21)
}

/// Unpack a header produced by [`pack_header`]: `(row, col, len, user)`.
pub fn unpack_header(h: u32) -> (u16, u16, u32, u32) {
    (
        ((h >> 13) & 0xff) as u16,
        ((h >> 5) & 0xff) as u16,
        h & 0x1f,
        h >> 21,
    )
}

/// Input channels of a tile's dynamic router: four mesh directions plus the
/// processor-inject queue (`$cdno`).
const IN_PORTS: usize = 5;
const IN_INJECT: usize = 4;

/// Output selection at a hop.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Out {
    Dir(Dir),
    Deliver,
}

#[derive(Clone, Copy, Hash, Debug)]
struct InputAlloc {
    out: Out,
    remaining: u32,
}

#[derive(Hash)]
struct TileRouter {
    /// Input FIFOs: N, E, S, W, inject.
    inputs: [Ring<DYN_FIFO_CAPACITY>; IN_PORTS],
    /// Wormhole allocation per input channel.
    alloc: [Option<InputAlloc>; IN_PORTS],
    /// Which input currently owns each output (N, E, S, W, deliver).
    out_owner: [Option<usize>; 5],
    /// Delivery queue to the tile processor (`$cdni`).
    cdni: Ring<CDNI_CAPACITY>,
    /// Round-robin arbitration pointer over inputs.
    rr: usize,
}

/// One dynamic network spanning the whole grid.
#[derive(Hash)]
pub struct DynNet {
    dim: GridDim,
    routers: Vec<TileRouter>,
    /// Words that exited the chip at an edge with no consumer attached.
    pub dropped_at_edge: u64,
    /// Total words moved (for progress detection).
    pub words_moved: u64,
    /// Words currently buffered in router *input* FIFOs (not `$cdni`).
    /// While zero, [`DynNet::step`] has nothing to do and returns
    /// immediately — the common case whenever a workload leaves the
    /// dynamic networks idle.
    in_network: u64,
}

impl DynNet {
    /// Every router's link and inject inputs hold [`DYN_FIFO_CAPACITY`]
    /// words, its `$cdni` [`CDNI_CAPACITY`].
    pub fn new(dim: GridDim) -> DynNet {
        let routers = (0..dim.tiles())
            .map(|_| TileRouter {
                inputs: Default::default(),
                alloc: [None; IN_PORTS],
                out_owner: [None; 5],
                cdni: Ring::default(),
                rr: 0,
            })
            .collect();
        DynNet {
            dim,
            routers,
            dropped_at_edge: 0,
            words_moved: 0,
            in_network: 0,
        }
    }

    /// Dimension-ordered (X then Y) next hop for a message at `here` headed
    /// to `(dr, dc)`.
    fn route(&self, here: TileId, dr: u16, dc: u16) -> Out {
        let (r, c) = self.dim.coords(here);
        if c < dc {
            Out::Dir(Dir::East)
        } else if c > dc {
            Out::Dir(Dir::West)
        } else if r < dr {
            Out::Dir(Dir::South)
        } else if r > dr {
            Out::Dir(Dir::North)
        } else {
            Out::Deliver
        }
    }

    /// Inject a word from the tile processor (`$cdno`). Returns `false`
    /// when the inject FIFO is full.
    #[must_use]
    pub fn inject(&mut self, tile: TileId, word: u32, cycle: u64) -> bool {
        let ok = self.routers[tile.index()].inputs[IN_INJECT].push(word, cycle);
        if ok {
            self.in_network += 1;
        }
        ok
    }

    /// True if the inject FIFO can take another word.
    pub fn can_inject(&self, tile: TileId) -> bool {
        self.routers[tile.index()].inputs[IN_INJECT].has_space()
    }

    /// Read a delivered word at the tile processor (`$cdni`), honoring the
    /// processor's extra pipeline delay.
    pub fn recv(&mut self, tile: TileId, cycle: u64, proc_delay: u64) -> Option<u32> {
        self.routers[tile.index()]
            .cdni
            .pop_visible(cycle, proc_delay)
    }

    /// True if a delivered word is readable this cycle.
    pub fn can_recv(&self, tile: TileId, cycle: u64, proc_delay: u64) -> bool {
        self.routers[tile.index()]
            .cdni
            .has_visible(cycle, proc_delay)
    }

    /// True while a delivered word at `tile` exists but is not yet readable
    /// by the processor: it becomes so by the passage of time alone.
    pub(crate) fn cdni_aging(&self, tile: usize, cycle: u64, proc_delay: u64) -> bool {
        self.routers[tile].cdni.is_aging(cycle, proc_delay)
    }

    /// Advance every router one cycle. Each input channel moves at most one
    /// word; each output accepts at most one word. `wake_tile(t)` is
    /// called for every tile whose processor can observe a change: a word
    /// delivered into its `$cdni`, or space freed in its inject FIFO.
    pub fn step(&mut self, cycle: u64, mut wake_tile: impl FnMut(usize)) {
        if self.in_network == 0 {
            // No words in any router input: nothing can move ($cdni words
            // only wait for their consumer). Skip the full-grid scan.
            return;
        }
        // One output may be claimed per cycle; destination space is checked
        // against live occupancy, and moved words are timestamped with the
        // current cycle so they travel one hop per cycle.
        for t in 0..self.dim.tiles() {
            let tile = TileId(t as u16);
            // Deterministic round-robin over input channels for fairness.
            let start = self.routers[t].rr;
            let mut moved_any = false;
            for k in 0..IN_PORTS {
                let i = (start + k) % IN_PORTS;
                let (word, is_header) = {
                    let r = &self.routers[t];
                    match r.inputs[i].peek_visible(cycle, 0) {
                        Some(w) => (w, r.alloc[i].is_none()),
                        None => continue,
                    }
                };
                let out = if is_header {
                    let (dr, dc, _len, _user) = unpack_header(word);
                    let o = self.route(tile, dr, dc);
                    // An output serves one worm at a time.
                    if self.routers[t].out_owner[Self::out_idx(o)].is_some() {
                        continue;
                    }
                    o
                } else {
                    self.routers[t].alloc[i].unwrap().out
                };
                if !self.try_move(t, i, out, word, cycle) {
                    continue;
                }
                moved_any = true;
                if i == IN_INJECT || out == Out::Deliver {
                    wake_tile(t);
                }
                // Update wormhole state.
                let r = &mut self.routers[t];
                if is_header {
                    let (_, _, len, _) = unpack_header(word);
                    if len > 0 {
                        r.alloc[i] = Some(InputAlloc {
                            out,
                            remaining: len,
                        });
                        r.out_owner[Self::out_idx(out)] = Some(i);
                    }
                } else {
                    let a = r.alloc[i].as_mut().unwrap();
                    a.remaining -= 1;
                    if a.remaining == 0 {
                        let o = a.out;
                        r.alloc[i] = None;
                        r.out_owner[Self::out_idx(o)] = None;
                    }
                }
            }
            if moved_any {
                self.routers[t].rr = (self.routers[t].rr + 1) % IN_PORTS;
            }
        }
    }

    fn out_idx(o: Out) -> usize {
        match o {
            Out::Dir(d) => d.index(),
            Out::Deliver => 4,
        }
    }

    /// Attempt to move `word` from input `i` of tile `t` to output `out`.
    fn try_move(&mut self, t: usize, i: usize, out: Out, word: u32, cycle: u64) -> bool {
        let tile = TileId(t as u16);
        // Whether the word lands in another router *input* FIFO (stays in
        // the network) or leaves it ($cdni delivery / edge drop).
        let mut stays_in_network = false;
        let ok = match out {
            Out::Deliver => self.routers[t].cdni.push(word, cycle),
            Out::Dir(d) => match self.dim.neighbor(tile, d) {
                Some(n) => {
                    let in_port = d.opposite().index();
                    stays_in_network = true;
                    self.routers[n.index()].inputs[in_port].push(word, cycle)
                }
                None => {
                    // Fell off the chip with no consumer: count and drop.
                    self.dropped_at_edge += 1;
                    true
                }
            },
        };
        if ok {
            let popped = self.routers[t].inputs[i].pop_visible(cycle, 0);
            debug_assert_eq!(popped, Some(word));
            self.words_moved += 1;
            if !stays_in_network {
                self.in_network -= 1;
            }
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> DynNet {
        DynNet::new(GridDim::RAW_PROTOTYPE)
    }

    fn drain(net: &mut DynNet, tile: TileId, cycle: &mut u64, n: usize) -> Vec<u32> {
        let mut out = Vec::new();
        let deadline = *cycle + 1000;
        while out.len() < n && *cycle < deadline {
            net.step(*cycle, |_| {});
            *cycle += 1;
            while let Some(w) = net.recv(tile, *cycle, 0) {
                out.push(w);
            }
        }
        out
    }

    #[test]
    fn header_roundtrip() {
        let h = pack_header(3, 2, 17, 0x5a5);
        assert_eq!(unpack_header(h), (3, 2, 17, 0x5a5));
    }

    #[test]
    #[should_panic(expected = "payload too long")]
    fn oversize_payload_rejected() {
        pack_header(0, 0, 32, 0);
    }

    #[test]
    fn delivers_single_header_message() {
        let mut net = net();
        let mut cycle = 0u64;
        let h = pack_header(1, 1, 0, 7);
        assert!(net.inject(TileId(0), h, cycle));
        cycle += 1;
        let got = drain(&mut net, TileId(5), &mut cycle, 1);
        assert_eq!(got, vec![h]);
    }

    #[test]
    fn delivers_payload_in_order() {
        let mut net = net();
        let mut cycle = 0u64;
        let h = pack_header(3, 3, 3, 0);
        for w in [h, 100, 101, 102] {
            assert!(net.inject(TileId(0), w, cycle));
        }
        cycle += 1;
        let got = drain(&mut net, TileId(15), &mut cycle, 4);
        assert_eq!(got, vec![h, 100, 101, 102]);
    }

    #[test]
    fn latency_is_hops_plus_pipeline() {
        // One hop per cycle: tile 0 -> tile 15 is 6 hops; injection and
        // delivery add their own cycles.
        let mut net = net();
        let h = pack_header(3, 3, 0, 0);
        assert!(net.inject(TileId(0), h, 0));
        let mut arrived_at = None;
        for cycle in 1..40u64 {
            net.step(cycle, |_| {});
            if net.can_recv(TileId(15), cycle + 1, 0) {
                arrived_at = Some(cycle);
                break;
            }
        }
        let cyc = arrived_at.expect("message never arrived");
        assert!(
            (6..=9).contains(&cyc),
            "6-hop message took {cyc} cycles to arrive"
        );
    }

    #[test]
    fn two_messages_do_not_interleave_on_shared_path() {
        // Two worms from different sources to the same destination must be
        // delivered without interleaving their payloads (wormhole property).
        let mut net = net();
        let mut cycle = 0u64;
        let h_a = pack_header(0, 3, 2, 1);
        let h_b = pack_header(0, 3, 2, 2);
        assert!(net.inject(TileId(0), h_a, cycle));
        assert!(net.inject(TileId(0), 0xa1, cycle));
        assert!(net.inject(TileId(0), 0xa2, cycle));
        assert!(net.inject(TileId(1), h_b, cycle));
        assert!(net.inject(TileId(1), 0xb1, cycle));
        assert!(net.inject(TileId(1), 0xb2, cycle));
        cycle += 1;
        let got = drain(&mut net, TileId(3), &mut cycle, 6);
        assert_eq!(got.len(), 6);
        // Find each worm and check contiguity.
        let pos_a = got.iter().position(|&w| w == h_a).unwrap();
        assert_eq!(&got[pos_a..pos_a + 3], &[h_a, 0xa1, 0xa2]);
        let pos_b = got.iter().position(|&w| w == h_b).unwrap();
        assert_eq!(&got[pos_b..pos_b + 3], &[h_b, 0xb1, 0xb2]);
    }

    #[test]
    fn dimension_order_goes_x_first() {
        // A message from tile 0 (0,0) to tile 13 (3,1) must traverse east
        // to column 1 before going south; we verify it never appears in
        // column-0 routers below row 0 by checking in-flight placement.
        let mut net = net();
        let h = pack_header(3, 1, 0, 0);
        assert!(net.inject(TileId(0), h, 0));
        let mut delivered = false;
        for cycle in 1..30u64 {
            net.step(cycle, |_| {});
            // Tile 4 and 8 and 12 are column 0, rows 1..3: the message
            // must never be buffered there.
            for t in [4u16, 8, 12] {
                assert_eq!(
                    net.routers[t as usize]
                        .inputs
                        .iter()
                        .map(|f| f.len())
                        .sum::<usize>(),
                    0,
                    "dimension-ordered message strayed into column 0"
                );
            }
            if net.can_recv(TileId(13), cycle + 1, 0) {
                delivered = true;
                break;
            }
        }
        assert!(delivered);
    }

    #[test]
    fn backpressure_fills_inject_queue() {
        let mut net = net();
        // No consumer at tile 1: flood it from tile 0.
        let mut accepted = 0usize;
        for cycle in 0..50u64 {
            let h = pack_header(0, 1, 0, 0);
            if net.inject(TileId(0), h, cycle) {
                accepted += 1;
            }
            net.step(cycle, |_| {});
        }
        // The stalled path holds exactly what its FIFOs do: tile 0's
        // inject queue, tile 1's west input and tile 1's `$cdni`.
        assert_eq!(
            accepted,
            2 * DYN_FIFO_CAPACITY + CDNI_CAPACITY,
            "backpressure failed"
        );
    }

    #[test]
    fn edge_drop_counted() {
        let mut net = net();
        // Destination column 200 routes east off the chip.
        // (Use an in-range header; col 200 > 3 so it exits east.)
        let h = pack_header(0, 200, 0, 0);
        assert!(net.inject(TileId(3), h, 0));
        for cycle in 1..10u64 {
            net.step(cycle, |_| {});
        }
        assert_eq!(net.dropped_at_edge, 1);
    }
}
