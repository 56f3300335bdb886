//! The one differential: per-component digests of a machine, and
//! [`first_divergence`] / [`lockstep`], which report when (a step) and
//! where (a component) two runs first differ, not only that they do.

use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};

use crate::geom::TileId;
use crate::machine::{ring_slot, RawMachine, StaticFifo, RINGS_PER_TILE};
use crate::switch::NUM_STATIC_NETS;

/// One digested piece of a [`RawMachine`], in digest order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Component {
    /// A tile processor: its ledger (cycles by activity and wait), the
    /// activity and wait it recorded last, its samples in the open trace
    /// window, and its `$csti` / `$csto` FIFOs.
    Tile(TileId),
    /// The switch for one static network at a tile: PC, fired-route
    /// mask, halt flag, pending PC load, stall cycles by cause, the cause
    /// of its last stall, and the four link input FIFOs it routes from.
    Switch(TileId, usize),
    /// The clock, `routes_fired`, `edge_drops` and both dynamic networks.
    Machine,
}

/// `DefaultHasher` has fixed keys: equal state digests equally
/// within a process, the only place digests are compared.
fn digest(x: impl Hash) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(x)
}

impl RawMachine {
    /// One digest per [`Component`], over machine-owned state only, most
    /// local first: a route that fires differently moves `routes_fired`
    /// too, but is reported at its switch. FIFOs are digested front
    /// first, each word with the enqueue cycle that makes it visible.
    ///
    /// Left out on purpose:
    /// * what [`EngineMode::Compiled`](crate::EngineMode::Compiled) holds
    ///   lazily: the awake, next-cycle and parked sets, how far each
    ///   sleeper is credited (every run entry settles it), and the
    ///   lowered plan;
    /// * the attached telemetry sink, which is only told the ledger;
    /// * tile program and edge device state, which the traits do not
    ///   expose: it shows up in the FIFO traffic it causes, or in what a
    ///   test reads back out of the program or device;
    /// * state seen through what is digested: stall windows and the cache
    ///   (as cache-stall cycles), local memory (through its reader), the
    ///   last-progress cycle (through the clock a quiescence run stops at).
    ///
    /// Never called by a run.
    pub fn digests(&self) -> Vec<(Component, u64)> {
        let trace = self.trace.as_ref();
        let n = self.tiles.len();
        let mut tiles = Vec::with_capacity(n);
        let mut switches = Vec::with_capacity(n * NUM_STATIC_NETS);
        // One pass over the ring arena, a tile's rings at a time: its
        // switches' link inputs, then its processor's `$csti` / `$csto`.
        for (t, rings) in self.rings.chunks_exact(RINGS_PER_TILE).enumerate() {
            let tile = &self.tiles[t];
            let id = TileId(t as u16);
            for net in 0..NUM_STATIC_NETS {
                let inputs = ring_slot(0, StaticFifo::In { net, dir: 0 });
                let state = (
                    &tile.switch_state[net],
                    tile.stalls[net],
                    tile.last_switch_cause[net],
                    &rings[inputs..inputs + 4],
                );
                switches.push((Component::Switch(id, net), digest(state)));
            }
            let state = (
                tile.ledger,
                tile.last,
                trace.map(|w| w.tile_samples(t)),
                &rings[ring_slot(0, StaticFifo::Csti(0))..],
            );
            tiles.push((Component::Tile(id), digest(state)));
        }
        let machine = (
            self.cycle,
            self.routes_fired,
            self.edge_drops,
            &self.dyn_nets,
        );
        tiles.extend(switches);
        tiles.push((Component::Machine, digest(machine)));
        tiles
    }
}

/// The first component whose digest differs between two digest lists
/// (a component one list lacks counts as differing).
fn first_difference<C: PartialEq + Clone>(a: &[(C, u64)], b: &[(C, u64)]) -> Option<C> {
    (0..a.len().max(b.len())).find_map(|i| match (a.get(i), b.get(i)) {
        (Some(x), Some(y)) if x == y => None,
        (x, y) => x.or(y).map(|(c, _)| c.clone()),
    })
}

/// Where two deterministic runs first diverge, or `None` if their
/// digests agree at `horizon`.
///
/// `advance(x, s)` takes a side fresh from `make_a` / `make_b` through
/// its first `s` steps (cycles, epochs, or whatever script of run calls
/// the caller counts). Each side runs once to the horizon; if they
/// differ, the search bisects by rebuilding and rerunning both — about
/// log₂(`horizon`) reruns, no snapshot, no `Clone` — to `(s, component)`:
/// the digests agree after `s - 1` steps and differ after `s` (0: as
/// built), and `component` is the first that differs then. A divergence
/// that heals can make `s` a later boundary than the first.
pub fn first_divergence<T, C: PartialEq + Clone>(
    make_a: impl Fn() -> T,
    make_b: impl Fn() -> T,
    advance: impl Fn(&mut T, u64),
    digests: impl Fn(&T) -> Vec<(C, u64)>,
    horizon: u64,
) -> Option<(u64, C)> {
    let differs_after = |s: u64| {
        let (mut a, mut b) = (make_a(), make_b());
        advance(&mut a, s);
        advance(&mut b, s);
        first_difference(&digests(&a), &digests(&b))
    };
    let mut found = (horizon, differs_after(horizon)?);
    if let Some(c) = differs_after(0) {
        return Some((0, c));
    }
    // Invariant: the digests agree after `lo` steps, differ after `found.0`.
    let mut lo = 0;
    while found.0 - lo > 1 {
        let mid = lo + (found.0 - lo) / 2;
        match differs_after(mid) {
            Some(c) => found = (mid, c),
            None => lo = mid,
        }
    }
    Some(found)
}

/// [`first_divergence`] checked after every step instead of bisected, so
/// a divergence a later step heals is found too: `step(x, i)` takes each
/// side through its step `i` (from 0). Returns the same `(s, component)`,
/// and leaves both sides where it stopped.
pub fn lockstep<T, C: PartialEq + Clone>(
    a: &mut T,
    b: &mut T,
    step: impl Fn(&mut T, u64),
    digests: impl Fn(&T) -> Vec<(C, u64)>,
    steps: u64,
) -> Option<(u64, C)> {
    (1..=steps).find_map(|s| {
        step(a, s - 1);
        step(b, s - 1);
        first_difference(&digests(a), &digests(b)).map(|c| (s, c))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::WordSource;
    use crate::geom::{Dir, GridDim};
    use crate::machine::{EngineMode, RawConfig};
    use crate::program::{TileIo, TileProgram};
    use crate::switch::{Route, SwPort, SwitchCtrl, SwitchInstr, SwitchProgram, NET0};
    use crate::EdgePort;

    /// The search on a toy: a step counter, and one that skips a step
    /// from `skew_from` on.
    #[test]
    fn bisection_finds_the_exact_step() {
        let run = |skew_from: u64| {
            first_divergence(
                || (u64::MAX, 0),
                || (skew_from, 0),
                |(skew, count), n| *count = n + u64::from(n >= *skew),
                |&(_, count)| vec![("count", count)],
                100,
            )
        };
        assert_eq!(run(17), Some((17, "count")));
        assert_eq!(run(0), Some((0, "count")));
        assert_eq!(run(101), None);
    }

    /// A divergence at step 5 that step 6 heals: bisection from the
    /// horizon cannot see it, lockstep stops on it.
    #[test]
    fn lockstep_finds_a_divergence_that_heals() {
        let step = |(at, count): &mut (u64, u64), i: u64| *count = i + 1 + u64::from(i + 1 == *at);
        let digests = |&(_, count): &(u64, u64)| vec![("count", count)];
        let (mut a, mut b) = ((u64::MAX, 0), (5, 0));
        assert_eq!(
            lockstep(&mut a, &mut b, step, digests, 100),
            Some((5, "count"))
        );
        assert_eq!((a.1, b.1), (5, 6), "both sides stop after step 5");
        let found = first_divergence(
            || (u64::MAX, 0),
            || (5, 0),
            |x, s| (0..s).for_each(|i| step(x, i)),
            digests,
            100,
        );
        assert_eq!(found, None);
    }

    /// Sends a counter into `$csto` whenever there is room.
    struct Sender(u32);

    impl TileProgram for Sender {
        fn tick(&mut self, io: &mut TileIo<'_>) {
            if io.send_static(self.0) {
                self.0 += 1;
            }
        }
    }

    /// Takes every word static network 0 brings.
    struct Receiver;

    impl TileProgram for Receiver {
        fn tick(&mut self, io: &mut TileIo<'_>) {
            let _ = io.recv_static(NET0);
        }
    }

    fn forever(routes: Vec<Route>) -> SwitchProgram {
        SwitchProgram::new(vec![SwitchInstr::new(routes, SwitchCtrl::Jump(0))])
    }

    /// Tile 0's processor streams east into tile 1's.
    fn stream(engine: EngineMode) -> RawMachine {
        let mut m = RawMachine::new(RawConfig {
            dim: GridDim { rows: 1, cols: 2 },
            engine,
        });
        m.set_program(TileId(0), Box::new(Sender(0)));
        m.set_program(TileId(1), Box::new(Receiver));
        m.set_switch_program(
            TileId(0),
            NET0,
            forever(vec![Route::new(NET0, SwPort::Proc, SwPort::E)]),
        );
        m.set_switch_program(
            TileId(1),
            NET0,
            forever(vec![Route::new(NET0, SwPort::W, SwPort::Proc)]),
        );
        m
    }

    /// A one-cycle stall of tile 1 at cycle 37 is found after step 38 —
    /// the first cycle it changes is cycle 37 — at tile 1, not at its
    /// switch, whose `$csti` backs up only later, nor in the machine-wide
    /// counters.
    #[test]
    fn a_one_cycle_stall_is_located_at_its_tile_and_cycle() {
        for engine in [EngineMode::PerCycle, EngineMode::Compiled] {
            let found = first_divergence(
                || stream(engine),
                || {
                    let mut m = stream(engine);
                    m.schedule_stall(TileId(1), 37, 1);
                    m
                },
                |m, n| m.run(n),
                RawMachine::digests,
                200,
            );
            assert_eq!(found, Some((38, Component::Tile(TileId(1)))), "{engine:?}");
        }
    }

    /// Two switch programs for tile 1 that route the same words at the
    /// same cycles — a one-instruction loop, and the same loop at PC 1
    /// behind a copy of its instruction at PC 0 — differ only in the
    /// switch's PC. The first word reaches tile 1's switch at cycle 2
    /// (injected at 0, routed by tile 0 at 1), so the PCs part after step
    /// 3, for good, and nothing else ever differs.
    #[test]
    fn a_different_switch_program_is_located_at_its_switch() {
        let hop = |ctrl| SwitchInstr::new(vec![Route::new(NET0, SwPort::W, SwPort::E)], ctrl);
        let pipe = |tile1: SwitchProgram| {
            let mut m = RawMachine::new(RawConfig {
                dim: GridDim { rows: 1, cols: 2 },
                ..RawConfig::default()
            });
            m.set_switch_program(
                TileId(0),
                NET0,
                SwitchProgram::new(vec![hop(SwitchCtrl::Jump(0))]),
            );
            m.set_switch_program(TileId(1), NET0, tile1);
            m.bind_device(
                EdgePort::new(TileId(0), Dir::West, NET0),
                Box::new(WordSource::new(0u32..40)),
            );
            m
        };
        let found = first_divergence(
            || pipe(SwitchProgram::new(vec![hop(SwitchCtrl::Jump(0))])),
            || {
                pipe(SwitchProgram::new(vec![
                    hop(SwitchCtrl::Next),
                    hop(SwitchCtrl::Jump(1)),
                ]))
            },
            |m, n| m.run(n),
            RawMachine::digests,
            200,
        );
        assert_eq!(found, Some((3, Component::Switch(TileId(1), NET0))));
    }
}
