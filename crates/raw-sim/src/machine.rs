//! The whole-chip cycle-driven machine: tiles, switches, networks, devices.
//!
//! Execution order within a cycle is fixed and deterministic:
//!
//! 1. edge devices inject words into edge input FIFOs;
//! 2. tile processors tick (at most one retiring action each);
//! 3. switch processors evaluate their current instruction's routes;
//! 4. the dynamic networks advance one hop.
//!
//! Every FIFO entry is timestamped and only consumable on a *later* cycle,
//! so no word moves more than one network hop per cycle regardless of the
//! iteration order, and the tile-processor receive path carries one extra
//! cycle of decode delay — together these reproduce the 5-cycle
//! tile-to-tile send of Figure 3-2.

use std::any::Any;
use std::ops::Range;
use std::sync::{Arc, LazyLock};

use crate::cache::DCache;
use crate::compiled::{CompiledPlan, InjectorSlot};
use crate::device::{EdgeDevice, EdgePort};
use crate::dynamic::DynNet;
use crate::fifo::{Ring, RING_CAPACITY};
use crate::geom::{GridDim, TileId};
use crate::program::{IdleProgram, TileIo, TileMem, TileProgram};
use crate::switch::{Route, SwPort, SwitchCtrl, SwitchProgram, SwitchState, NUM_STATIC_NETS};
use crate::trace::{refine_state, Activity, Ledger, TileStats, Wait};
use raw_telemetry::{SharedSink, SwitchStallCause, TileState};

/// How the machine advances simulated time. Both engines produce
/// bit-identical results — the cycle ledger, word timing —
/// on every workload; they differ only in how much host work each
/// simulated cycle costs. The determinism test suite compares them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineMode {
    /// Step every cycle through the interpreter. The reference engine.
    PerCycle,
    /// The fast engine and the default. Skips what cannot move: a tile or
    /// switch stalled on an empty or full FIFO sleeps until a push, a pop
    /// or a PC load wakes it, and a machine with nothing left but time
    /// jumps to its next event in bulk. What it does step goes through
    /// the lowered switch programs, with decode, endpoint resolution,
    /// and device lookups resolved once per installed program rather
    /// than per cycle. The machine lowers itself (see
    /// [`RawMachine::lower`]): there is nothing to compile or install.
    Compiled,
}

impl EngineMode {
    /// May `run` jump over provably quiet stretches of cycles?
    #[inline]
    pub fn skips(self) -> bool {
        !matches!(self, EngineMode::PerCycle)
    }
}

/// Capacity of each static-network link input FIFO (Raw: 4 words).
pub const LINK_FIFO_CAPACITY: usize = 4;
/// Capacity of each `$csti` FIFO.
pub const CSTI_CAPACITY: usize = 4;
/// Capacity of the shared `$csto` FIFO.
pub const CSTO_CAPACITY: usize = 4;
// Every static-network FIFO is one fixed ring of the arena.
const _: () = assert!(
    LINK_FIFO_CAPACITY == RING_CAPACITY
        && CSTI_CAPACITY == RING_CAPACITY
        && CSTO_CAPACITY == RING_CAPACITY
);
/// Capacity of each dynamic-network link input FIFO.
pub const DYN_FIFO_CAPACITY: usize = 4;
/// Capacity of each `$cdni` FIFO.
pub const CDNI_CAPACITY: usize = 8;
/// Extra pipeline delay on processor network reads (the decode stage).
pub const PROC_RECV_DELAY: u64 = 1;
/// Per-tile local memory in words (the backing store behind the cache).
pub const LOCAL_MEM_WORDS: usize = 1 << 20;
/// The prototype's clock (Raw: 250 MHz).
pub const CLOCK_MHZ: u64 = 250;

/// Seconds of wall-clock time `cycles` represent at [`CLOCK_MHZ`].
pub fn cycles_to_seconds(cycles: u64) -> f64 {
    cycles as f64 / (CLOCK_MHZ as f64 * 1e6)
}

/// Machine-wide configuration. Everything else about the chip — FIFO
/// depths, cache, memory, clock — is the 250 MHz Raw prototype's and a
/// constant of this module or of [`crate::cache`]; only the grid size and
/// the engine vary between machines.
#[derive(Clone, Debug)]
pub struct RawConfig {
    pub dim: GridDim,
    /// Which engine advances simulated time (see [`EngineMode`]). Every
    /// mode is bit-identical to [`EngineMode::PerCycle`]; they trade host
    /// work per simulated cycle.
    pub engine: EngineMode,
}

impl Default for RawConfig {
    fn default() -> Self {
        RawConfig {
            dim: GridDim::RAW_PROTOTYPE,
            engine: EngineMode::Compiled,
        }
    }
}

pub(crate) struct Tile {
    pub(crate) program: Option<Box<dyn TileProgram>>,
    /// Switch code is never written once installed, so machines running
    /// the same code share one program rather than each copying it.
    pub(crate) switch_prog: [Arc<SwitchProgram>; NUM_STATIC_NETS],
    pub(crate) switch_state: [SwitchState; NUM_STATIC_NETS],
    pub(crate) cache: DCache,
    /// Local memory, in pages made as addresses are written (a 4 MB
    /// address space per tile would otherwise be zeroed on every machine
    /// construction).
    pub(crate) mem: TileMem,
    pub(crate) stall_until: u64,
    /// The processor's cycles by `(Activity, Wait)`: every cycle since
    /// cycle 0 is counted here once, stepped or credited.
    pub(crate) ledger: Ledger,
    /// Per network, the cycles its switch spent unable to complete an
    /// instruction, by the cause of its first refused route group.
    pub(crate) stalls: [[u64; SwitchStallCause::COUNT]; NUM_STATIC_NETS],
    /// The `(Activity, Wait)` of the processor's most recent cycle: what
    /// a cycle it is not ticked on repeats.
    pub(crate) last: (Activity, Wait),
    /// Per network, the cause of the switch's most recent stall: what a
    /// cycle it is not stepped on is stalled on, unless halted.
    pub(crate) last_switch_cause: [SwitchStallCause; NUM_STATIC_NETS],
}

/// A static-network FIFO at one tile, as [`ring_slot`] places it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum StaticFifo {
    /// The link input that words from direction `dir` arrive in on static
    /// network `net`, routed onward by that network's switch.
    In { net: usize, dir: usize },
    /// The processor-facing `$csti` of a network.
    Csti(usize),
    /// The processor's `$csto`, shared by both networks' switches.
    Csto,
}

/// Rings per tile in [`RawMachine::rings`].
pub(crate) const RINGS_PER_TILE: usize = NUM_STATIC_NETS * 4 + NUM_STATIC_NETS + 1;

/// Where tile `t`'s `fifo` sits in the ring arena: the one slot helper
/// every reader and writer of a static-network FIFO goes through. A
/// tile's rings are contiguous — its link inputs by network, then
/// direction (so each switch's four are one slice), then `$csti` per
/// network, then `$csto` (so the processor's three are one slice).
#[inline]
pub(crate) fn ring_slot(t: usize, fifo: StaticFifo) -> usize {
    t * RINGS_PER_TILE
        + match fifo {
            StaticFifo::In { net, dir } => net * 4 + dir,
            StaticFifo::Csti(net) => NUM_STATIC_NETS * 4 + net,
            StaticFifo::Csto => NUM_STATIC_NETS * 5,
        }
}

/// The ring a route at tile `t` pops: `$csto`, or the link input its
/// source port names.
#[inline]
pub(crate) fn src_ring(t: usize, r: Route) -> usize {
    match r.src.dir() {
        None => ring_slot(t, StaticFifo::Csto),
        Some(d) => ring_slot(
            t,
            StaticFifo::In {
                net: r.net,
                dir: d.index(),
            },
        ),
    }
}

/// `a | b`, out of line: the sweep's rare late wake stays a branch the
/// next slot does not wait on.
#[cold]
#[inline(never)]
fn joined(a: u64, b: u64) -> u64 {
    a | b
}

/// A set of [`RawMachine::awake`] slots, one bit each.
#[derive(Clone, Debug)]
pub(crate) struct SlotSet(Vec<u64>);

impl SlotSet {
    #[inline]
    pub(crate) fn contains(&self, s: usize) -> bool {
        self.0[s / 64] & (1 << (s % 64)) != 0
    }

    #[inline]
    pub(crate) fn insert(&mut self, s: usize) {
        self.0[s / 64] |= 1 << (s % 64);
    }

    #[inline]
    pub(crate) fn remove(&mut self, s: usize) {
        self.0[s / 64] &= !(1 << (s % 64));
    }
}

/// The route group the interpreter fires from position `gi` of an
/// instruction: every route at or after it, not yet `fired`, sharing its
/// `(net, src)` (a bitmask over `routes`).
fn route_group(routes: &[Route], fired: u32, gi: usize) -> u32 {
    let lead = routes[gi];
    let mut group: u32 = 0;
    for (j, r) in routes.iter().enumerate().skip(gi) {
        if fired & (1 << j) == 0 && r.net == lead.net && r.src == lead.src {
            group |= 1 << j;
        }
    }
    group
}

/// The simulated Raw chip.
pub struct RawMachine {
    pub(crate) cfg: RawConfig,
    pub(crate) cycle: u64,
    pub(crate) tiles: Vec<Tile>,
    /// Every static-network FIFO — link inputs, `$csti`, `$csto` — as
    /// one arena of fixed rings, addressed by [`ring_slot`]. The
    /// interpreter, the lowered routes, tile programs and the digests all
    /// read and write these; there is no other copy.
    pub(crate) rings: Vec<Ring>,
    pub(crate) dyn_nets: Vec<DynNet>,
    pub(crate) devices: Vec<Box<dyn EdgeDevice>>,
    /// Direct-indexed device lookup: `device_table[(tile * nets + net) * 4
    /// + dir]` is the index into `devices`, or `NO_DEVICE`. Replaces a
    /// `BTreeMap<EdgePort, usize>` that sat on the per-route hot path.
    device_table: Vec<u16>,
    device_ports: Vec<EdgePort>,
    /// Attached telemetry sink, told the ledger's totals at the end of
    /// every run call (`settle`) and never inside one.
    telemetry: Option<SharedSink>,
    /// Scheduled per-tile stall windows `(start, end)`, sorted by start;
    /// `step_processors` folds the front window into `stall_until` once
    /// the cycle reaches it (fault injection: cache-miss storms).
    pub(crate) stall_windows: Vec<Vec<(u64, u64)>>,
    /// Cycle at which something last made forward progress.
    pub(crate) last_progress: u64,
    /// Words dropped at unbound edge output ports.
    pub edge_drops: u64,
    /// Total static-network route firings.
    pub routes_fired: u64,
    pub(crate) dyn_moved_before: u64,
    /// The lowered form [`EngineMode::Compiled`] steps, derived from the
    /// installed switch programs and devices and shared with every live
    /// machine alike in those (see [`RawMachine::lower`]). A new switch
    /// program or device binding drops it, and `step_cycle_engine`
    /// lowers again before the next compiled cycle.
    pub(crate) plan: Option<Arc<CompiledPlan>>,
    /// Which components the sweep steps: slot `t` is tile `t`'s
    /// processor, [`RawMachine::switch_slot`] a switch, and one spare
    /// slot at the end takes the wake edges that lead off the chip. Only
    /// [`EngineMode::Compiled`] ever clears a slot (see
    /// [`RawMachine::tile_may_sleep`] and `step_switch_compiled`). Every
    /// FIFO pop sets the slot of the component at its other end here;
    /// the set is read inside the tile-then-switch sweep, so the space is
    /// seen the same cycle by a later component and the next cycle by an
    /// earlier one — exactly when the interpreter, which steps
    /// everything, lets it be used.
    pub(crate) awake: SlotSet,
    /// Wakes for the next cycle, merged into `awake` at the top of it:
    /// what a push or a PC load changes cannot be seen before then (a
    /// word turns visible to a switch the cycle after its push, a PC
    /// load applies the cycle after it at the earliest).
    pub(crate) woken_next: SlotSet,
    /// Switches halted with no PC load pending: out of the sweep, and
    /// deaf to every wake, until a PC load (or a mutator) brings them
    /// back. FIFO traffic cannot move a halted switch.
    pub(crate) parked: SlotSet,
    /// Per slot, the first cycle the component has not recorded yet.
    /// Skipped cycles repeat the last recorded one, and are credited in
    /// bulk (`credit_tile` / `credit_switch`) right before the
    /// component's next step and by [`RawMachine::settle`], which every
    /// public run entry ends with: between calls, every slot is at
    /// `cycle` and the ledger is complete.
    recorded: Vec<u64>,
}

/// Sentinel for an unbound slot in `RawMachine::device_table`.
const NO_DEVICE: u16 = u16::MAX;

/// The program of every switch nobody programmed: one for the process,
/// so that machines alike in what they program lower to one plan.
static IDLE_SWITCH: LazyLock<Arc<SwitchProgram>> =
    LazyLock::new(|| Arc::new(SwitchProgram::idle()));

impl RawMachine {
    pub fn new(cfg: RawConfig) -> RawMachine {
        let n = cfg.dim.tiles();
        let tiles = (0..n)
            .map(|_| Tile {
                program: Some(Box::new(IdleProgram)),
                switch_prog: std::array::from_fn(|_| Arc::clone(&IDLE_SWITCH)),
                switch_state: std::array::from_fn(|_| SwitchState::new()),
                cache: DCache::default(),
                mem: TileMem::default(),
                stall_until: 0,
                ledger: Ledger::default(),
                stalls: [[0; SwitchStallCause::COUNT]; NUM_STATIC_NETS],
                last: (Activity::Idle, Wait::None),
                last_switch_cause: [SwitchStallCause::FifoEmpty; NUM_STATIC_NETS],
            })
            .collect();
        let dyn_nets = (0..2)
            .map(|_| DynNet::new(cfg.dim, DYN_FIFO_CAPACITY, CDNI_CAPACITY))
            .collect();
        // A processor and a switch per network at each tile, and the spare.
        let slot_words = (n * (1 + NUM_STATIC_NETS) + 1).div_ceil(64);
        RawMachine {
            cfg,
            cycle: 0,
            tiles,
            rings: vec![Ring::default(); n * RINGS_PER_TILE],
            dyn_nets,
            devices: Vec::new(),
            device_table: vec![NO_DEVICE; n * NUM_STATIC_NETS * 4],
            device_ports: Vec::new(),
            telemetry: None,
            stall_windows: vec![Vec::new(); n],
            last_progress: 0,
            edge_drops: 0,
            routes_fired: 0,
            dyn_moved_before: 0,
            plan: None,
            awake: SlotSet(vec![!0; slot_words]),
            woken_next: SlotSet(vec![0; slot_words]),
            parked: SlotSet(vec![0; slot_words]),
            recorded: vec![0; n * (1 + NUM_STATIC_NETS)],
        }
    }

    /// The [`RawMachine::awake`] slot of the switch for `net` at tile `t`.
    #[inline]
    pub(crate) fn switch_slot(&self, t: usize, net: usize) -> usize {
        self.tiles.len() + t * NUM_STATIC_NETS + net
    }

    /// The spare [`RawMachine::awake`] slot: wake edges that lead off the
    /// chip land here, and nothing steps it.
    #[inline]
    pub(crate) fn spare_slot(&self) -> usize {
        self.tiles.len() * (1 + NUM_STATIC_NETS)
    }

    /// Wake the switches at tile `t` for every network whose bit is set
    /// in `nets`, this cycle.
    #[inline]
    pub(crate) fn wake_switches(&mut self, t: usize, nets: u8) {
        for net in 0..NUM_STATIC_NETS {
            if nets & (1 << net) != 0 {
                let slot = self.switch_slot(t, net);
                self.awake.insert(slot);
            }
        }
    }

    /// Step every component in `slots` that is awake and not parked, in
    /// slot order. A wake a step raises for a later slot of the range is
    /// honored in the same sweep, one for an earlier slot on the next
    /// cycle: exactly when the interpreter, which steps everything in
    /// this order, lets the change be seen. The next slot comes from a
    /// register copy of the set, re-read after each step only to catch
    /// such a late wake, so finding it need not wait for the step's
    /// writes to the set.
    #[inline(always)]
    fn sweep(&mut self, slots: Range<usize>, cycle: u64, mut step: impl FnMut(&mut Self, usize)) {
        let mut from = slots.start;
        while from < slots.end {
            let (w, base) = (from / 64, from / 64 * 64);
            let upto = (slots.end - base).min(64);
            let in_range = (!0u64 >> (64 - upto)) & (!0u64 << (from - base));
            let live = |m: &Self| m.awake.0[w] & !m.parked.0[w] & in_range;
            let mut pending = live(self);
            while pending != 0 {
                let slot = base + pending.trailing_zeros() as usize;
                pending &= pending - 1;
                self.skipped(from..slot, cycle);
                from = slot + 1;
                step(self, slot);
                // Slots after this one, woken by it and not yet pending.
                let woken = live(self) & ((!0u64 << (slot - base)) << 1) & !pending;
                if woken != 0 {
                    pending = joined(pending, woken);
                }
            }
            self.skipped(from..base + upto, cycle);
            from = base + upto;
        }
    }

    /// The sweep passes `slots` without stepping them: in builds with
    /// `debug_assertions`, check each sleeper against what its step
    /// would have done.
    fn skipped(&mut self, slots: Range<usize>, cycle: u64) {
        if cfg!(debug_assertions) {
            let first_switch = self.switch_slot(0, 0);
            for slot in slots {
                if slot < first_switch {
                    self.assert_sleeper_replays(slot, cycle);
                } else {
                    let s = slot - first_switch;
                    self.assert_switch_may_skip(s / NUM_STATIC_NETS, s % NUM_STATIC_NETS, cycle);
                }
            }
        }
    }

    /// Take a halted switch with no PC load pending out of the sweep.
    #[inline]
    pub(crate) fn park(&mut self, slot: usize) {
        self.parked.insert(slot);
        self.awake.remove(slot);
    }

    /// Wake every component: what a mutation the sleepers cannot observe
    /// through a FIFO calls before it changes the machine under them.
    fn wake_all(&mut self) {
        self.awake.0.fill(!0);
        self.parked.0.fill(0);
    }

    pub fn config(&self) -> &RawConfig {
        &self.cfg
    }

    pub fn dim(&self) -> GridDim {
        self.cfg.dim
    }

    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Install a tile-processor program.
    pub fn set_program(&mut self, tile: TileId, program: Box<dyn TileProgram>) {
        self.wake_all();
        self.tiles[tile.index()].program = Some(program);
    }

    /// Install the switch program driving static network `net` at `tile`
    /// (PC reset to 0). Every route in the program must target `net`.
    ///
    /// Modeling note: real Raw has a single switch processor per tile
    /// whose instruction controls both static crossbars; this simulator
    /// gives each network an independent instruction stream so that a
    /// free-running ingest path on one network cannot couple to (and
    /// deadlock) a processor-steered schedule on the other. The paper's
    /// Rotating Crossbar algorithm uses a single network (§5.3), so its
    /// fidelity is unaffected.
    ///
    /// The machine never writes the program: pass an
    /// `Arc<SwitchProgram>` to share one copy among machines.
    pub fn set_switch_program(
        &mut self,
        tile: TileId,
        net: usize,
        prog: impl Into<Arc<SwitchProgram>>,
    ) {
        let prog = prog.into();
        for i in &prog.instrs {
            for r in &i.routes {
                assert_eq!(
                    r.net, net,
                    "route on net {} in program for net {}",
                    r.net, net
                );
            }
        }
        self.wake_all();
        self.plan = None;
        let t = &mut self.tiles[tile.index()];
        t.switch_prog[net] = prog;
        t.switch_state[net] = SwitchState::new();
    }

    /// Index into `device_table` for an edge port's coordinates.
    #[inline]
    fn port_slot(&self, tile: usize, net: usize, dir: usize) -> usize {
        (tile * NUM_STATIC_NETS + net) * 4 + dir
    }

    /// The device bound at `(tile, net, dir)`, if any.
    #[inline]
    pub(crate) fn device_at(&self, tile: usize, net: usize, dir: usize) -> Option<usize> {
        match self.device_table[self.port_slot(tile, net, dir)] {
            NO_DEVICE => None,
            i => Some(i as usize),
        }
    }

    /// Bind a device to an edge port. Panics if the port is interior or
    /// already bound. Drops the lowered form (it caches device endpoints
    /// and the injector set).
    pub fn bind_device(&mut self, port: EdgePort, dev: Box<dyn EdgeDevice>) {
        self.plan = None;
        assert!(
            self.cfg.dim.is_edge(port.tile, port.dir),
            "{:?} is not an edge port",
            port
        );
        let slot = self.port_slot(port.tile.index(), port.net, port.dir.index());
        assert!(
            self.device_table[slot] == NO_DEVICE,
            "{:?} already has a device",
            port
        );
        assert!(self.devices.len() < NO_DEVICE as usize);
        self.device_table[slot] = self.devices.len() as u16;
        self.device_ports.push(port);
        self.devices.push(dev);
    }

    /// The program installed on `tile`, by concrete type: `None` when the
    /// tile runs a program of another type (a tile nobody programmed runs
    /// [`IdleProgram`]).
    pub fn program_ref<T: TileProgram>(&self, tile: TileId) -> Option<&T> {
        let p: &dyn Any = self.tiles[tile.index()].program.as_deref()?;
        p.downcast_ref::<T>()
    }

    /// [`RawMachine::program_ref`], mutably. The sleepers cannot observe
    /// what the caller changes, so everything is woken first.
    pub fn program_mut<T: TileProgram>(&mut self, tile: TileId) -> Option<&mut T> {
        self.wake_all();
        let p: &mut dyn Any = self.tiles[tile.index()].program.as_deref_mut()?;
        p.downcast_mut::<T>()
    }

    /// Retrieve a bound device by concrete type.
    pub fn device_mut<T: EdgeDevice>(&mut self, port: EdgePort) -> Option<&mut T> {
        let i = self.device_at(port.tile.index(), port.net, port.dir.index())?;
        let d: &mut dyn Any = self.devices[i].as_mut();
        d.downcast_mut::<T>()
    }

    pub fn device_ref<T: EdgeDevice>(&self, port: EdgePort) -> Option<&T> {
        let i = self.device_at(port.tile.index(), port.net, port.dir.index())?;
        let d: &dyn Any = self.devices[i].as_ref();
        d.downcast_ref::<T>()
    }

    /// Tile `tile`'s cycles by [`Activity`]: its ledger summed over the
    /// waits its program hinted.
    pub fn stats(&self, tile: TileId) -> TileStats {
        let counts = self.tiles[tile.index()].ledger.map(|row| row.iter().sum());
        TileStats { counts }
    }

    /// Tile `tile`'s cycles by telemetry [`TileState`] (indexed by
    /// [`TileState::index`]): its ledger, each cell refined once.
    pub fn tile_states(&self, tile: TileId) -> [u64; TileState::COUNT] {
        let mut states = [0; TileState::COUNT];
        for a in Activity::ALL {
            for w in Wait::ALL {
                states[refine_state(a, w).index()] +=
                    self.tiles[tile.index()].ledger[a.index()][w.index()];
            }
        }
        states
    }

    /// Stalled cycles of the switch for `net` at `tile`, by
    /// [`SwitchStallCause::index`].
    pub fn switch_stalls(&self, tile: TileId, net: usize) -> [u64; SwitchStallCause::COUNT] {
        self.tiles[tile.index()].stalls[net]
    }

    pub fn cache_stats(&self, tile: TileId) -> (u64, u64) {
        let c = &self.tiles[tile.index()].cache;
        (c.hits, c.misses)
    }

    /// Stalled switch cycles at `tile`, both networks together.
    pub fn switch_stall_cycles(&self, tile: TileId) -> u64 {
        self.tiles[tile.index()].stalls.iter().flatten().sum()
    }

    /// Write `words` into a tile's local memory starting at word address
    /// `base`, making only the pages the write reaches.
    pub fn write_tile_mem(&mut self, tile: TileId, base: usize, words: &[u32]) {
        let end = base + words.len();
        assert!(
            end <= LOCAL_MEM_WORDS,
            "write [{base}, {end}) exceeds local memory ({} words)",
            LOCAL_MEM_WORDS
        );
        self.tiles[tile.index()].mem.write(base, words);
    }

    /// The `len` words of a tile's local memory from word address `base`
    /// on; a word never written reads 0. Makes no page.
    pub fn read_tile_mem(&self, tile: TileId, base: usize, len: usize) -> Vec<u32> {
        let end = base + len;
        assert!(
            end <= LOCAL_MEM_WORDS,
            "read [{base}, {end}) exceeds local memory ({} words)",
            LOCAL_MEM_WORDS
        );
        let mem = &self.tiles[tile.index()].mem;
        (base..end).map(|i| mem.read(i)).collect()
    }

    /// Read-only introspection: every edge port with a bound device — the
    /// set of off-grid links a schedule may legitimately route through.
    /// A port's position in this slice is its device index (bind order),
    /// stable for the lifetime of the machine.
    pub fn bound_device_ports(&self) -> &[EdgePort] {
        &self.device_ports
    }

    /// Diagnostic: occupancy of a static-network link input FIFO.
    pub fn link_occupancy(&self, tile: TileId, net: usize, dir: crate::geom::Dir) -> usize {
        let slot = ring_slot(
            tile.index(),
            StaticFifo::In {
                net,
                dir: dir.index(),
            },
        );
        self.rings[slot].len()
    }

    /// Diagnostic: `(csto_len, csti0_len, csti1_len)` at a tile.
    pub fn proc_queue_occupancy(&self, tile: TileId) -> (usize, usize, usize) {
        let len = |fifo| self.rings[ring_slot(tile.index(), fifo)].len();
        (
            len(StaticFifo::Csto),
            len(StaticFifo::Csti(0)),
            len(StaticFifo::Csti(1)),
        )
    }

    /// The switch program installed for `net` at a tile.
    pub fn switch_program(&self, tile: TileId, net: usize) -> &Arc<SwitchProgram> {
        &self.tiles[tile.index()].switch_prog[net]
    }

    /// Diagnostic: the switch PC and halted flag for `net` at a tile.
    pub fn switch_status(&self, tile: TileId, net: usize) -> (usize, bool) {
        let st = &self.tiles[tile.index()].switch_state[net];
        (st.pc, st.halted)
    }

    /// Attach a telemetry sink. At the end of every run call the machine
    /// hands it the ledger's totals since cycle 0 — per tile, cycles by
    /// [`TileState`] and each switch's stalls by cause — so a sink
    /// attached mid-run reads the machine's totals, not the cycles since
    /// the attach. Tile programs holding a clone of the same handle
    /// publish packet lifecycle events. Observation only — attaching a
    /// sink never changes simulation results.
    pub fn set_telemetry(&mut self, sink: SharedSink) {
        self.telemetry = Some(sink);
    }

    /// Detach the telemetry sink, returning the handle.
    pub fn take_telemetry(&mut self) -> Option<SharedSink> {
        self.telemetry.take()
    }

    /// Schedule a forced processor stall on `tile` for the half-open
    /// cycle window `[start, start + len)` — fault injection modeling a
    /// cache-miss storm or an external memory hog. The stalled cycles are
    /// recorded as [`Activity::CacheStall`], so the ledger accounts for
    /// them; overlapping windows merge through the same `stall_until`
    /// mechanism real cache misses use, and the event skip treats window
    /// starts and ends as time events, keeping fast-forward results
    /// bit-identical.
    pub fn schedule_stall(&mut self, tile: TileId, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.wake_all();
        let v = &mut self.stall_windows[tile.index()];
        let pos = v.partition_point(|&(s, _)| s <= start);
        v.insert(pos, (start, start.saturating_add(len)));
    }

    /// Stall windows not yet folded into `stall_until` for `tile`.
    pub fn pending_stall_windows(&self, tile: TileId) -> usize {
        self.stall_windows[tile.index()].len()
    }

    /// Cycles since anything in the machine made forward progress.
    pub fn idle_cycles(&self) -> u64 {
        self.cycle.saturating_sub(self.last_progress)
    }

    /// Advance one cycle (through whichever engine is configured).
    pub fn step(&mut self) {
        self.step_cycle_engine();
        self.settle();
    }

    /// One cycle through the configured engine: the interpreter under
    /// `EngineMode::PerCycle`, the lowered form under
    /// `EngineMode::Compiled` — rebuilt here, the one choke point every
    /// run loop steps through, if a mutator dropped it. Bit-identical
    /// either way.
    pub(crate) fn step_cycle_engine(&mut self) -> bool {
        if self.cfg.engine == EngineMode::PerCycle {
            return self.step_cycle(None);
        }
        if self.plan.is_none() {
            self.lower();
        }
        // The plan is borrowed out of the machine for the cycle so the
        // step functions can read it while mutating everything else.
        let plan = self.plan.take();
        let quiet = self.step_cycle(plan.as_deref());
        self.plan = plan;
        quiet
    }

    /// Advance one cycle: through `plan` under the compiled engine,
    /// through the interpreter (`None`) under the per-cycle one.
    /// Returns true when the cycle was *quiet*: nothing made forward
    /// progress and no switch performed a control-only transition
    /// (nop/`WaitPc` advance). After a quiet cycle the machine is in a
    /// fixed point that only the passage of time can disturb — FIFO
    /// entries aging into visibility, a cache stall expiring, a device
    /// becoming ready — which is exactly the condition under which
    /// `next_event_cycle` / `fast_forward_to` may skip ahead.
    fn step_cycle(&mut self, plan: Option<&CompiledPlan>) -> bool {
        let cycle = self.cycle;
        let mut progress = false;
        // The wakes queued for this cycle join the sweep; a switch parked
        // since they were raised stays out.
        for ((a, next), parked) in self
            .awake
            .0
            .iter_mut()
            .zip(&mut self.woken_next.0)
            .zip(&self.parked.0)
        {
            *a |= *next & !parked;
            *next = 0;
        }

        // 1. Device injection at edge input FIFOs. A plan polls injecting
        // devices only; the sinks it skips statically return `None` from
        // `pull_in`.
        match plan {
            Some(plan) => {
                for &slot in &plan.injectors {
                    progress |= self.inject(slot, cycle);
                }
            }
            None => {
                for i in 0..self.devices.len() {
                    progress |= self.inject(InjectorSlot::new(self, i), cycle);
                }
            }
        }

        // 2. Tile processors.
        progress |= self.step_processors(cycle, plan.is_some());

        // 3. Switch processors.
        let (sw_progress, sw_ctrl) = self.step_switches(cycle, plan);
        progress |= sw_progress;

        // 4. Dynamic networks.
        for d in &mut self.dyn_nets {
            d.step(cycle, |t| self.awake.insert(t));
        }
        let dyn_moved: u64 = self.dyn_nets.iter().map(|d| d.words_moved).sum();
        if dyn_moved != self.dyn_moved_before {
            progress = true;
            self.dyn_moved_before = dyn_moved;
        }

        if progress {
            self.last_progress = cycle;
        }
        self.cycle += 1;
        !progress && !sw_ctrl
    }

    /// Poll one device for a word to inject into its edge input FIFO.
    /// Returns whether a word went in.
    #[inline]
    fn inject(&mut self, slot: InjectorSlot, cycle: u64) -> bool {
        let ring = &mut self.rings[slot.ring as usize];
        if ring.has_space() {
            if let Some(w) = self.devices[slot.device as usize].pull_in(cycle) {
                let ok = ring.push(w, cycle);
                debug_assert!(ok);
                self.woken_next.insert(slot.consumer as usize);
                return true;
            }
        }
        false
    }

    /// The processor phase. Under the compiled engine (`sleep`) a tile
    /// that may sleep (see [`RawMachine::tile_may_sleep`]) is not visited
    /// again until something wakes it; a tile nobody programmed ticks
    /// once and sleeps for good.
    pub(crate) fn step_processors(&mut self, cycle: u64, sleep: bool) -> bool {
        let mut progress = false;
        let n = self.tiles.len();
        self.sweep(0..n, cycle, |m, t| {
            progress |= m.step_processor(t, cycle, sleep)
        });
        progress
    }

    /// Step tile `t`'s processor through `cycle`: whether it did work.
    fn step_processor(&mut self, t: usize, cycle: u64, sleep: bool) -> bool {
        if self.recorded[t] < cycle {
            self.credit_tile(t, cycle - self.recorded[t]);
        }
        self.recorded[t] = cycle + 1;
        while let Some(&(s, e)) = self.stall_windows[t].first() {
            if cycle < s {
                break;
            }
            self.stall_windows[t].remove(0);
            let su = &mut self.tiles[t].stall_until;
            *su = (*su).max(e);
        }
        let (activity, wait, (wake_now, wake_next)) = if cycle < self.tiles[t].stall_until {
            (Activity::CacheStall, Wait::None, (0, 0))
        } else {
            self.tick_tile(t, cycle)
        };
        self.tiles[t].ledger[activity.index()][wait.index()] += 1;
        self.tiles[t].last = (activity, wait);
        self.wake_switches(t, wake_now);
        for net in 0..NUM_STATIC_NETS {
            if wake_next & (1 << net) != 0 {
                let slot = self.switch_slot(t, net);
                self.woken_next.insert(slot);
                if self.tiles[t].switch_state[net].pending_pc.is_some() {
                    self.parked.remove(slot);
                }
            }
        }
        if sleep && wake_now | wake_next == 0 && self.tile_may_sleep(t, cycle, activity) {
            self.awake.remove(t);
        }
        activity == Activity::Busy
    }

    /// Tick tile `t`'s program once: the activity it recorded, the wait
    /// it hinted, and the switches it wakes this cycle and next (see
    /// [`TileIo::wake_now`]).
    fn tick_tile(&mut self, t: usize, cycle: u64) -> (Activity, Wait, (u8, u8)) {
        let Some(mut program) = self.tiles[t].program.take() else {
            return (Activity::Idle, Wait::None, (0, 0));
        };
        let tile = &mut self.tiles[t];
        let io_rings = ring_slot(t, StaticFifo::Csti(0))..=ring_slot(t, StaticFifo::Csto);
        let mut io = TileIo::new(
            cycle,
            TileId(t as u16),
            (&mut self.rings[io_rings]).try_into().unwrap(),
            &mut tile.switch_state,
            &mut tile.cache,
            &mut tile.mem,
            &mut self.dyn_nets,
            &mut tile.stall_until,
        );
        program.tick(&mut io);
        let outcome = (io.activity, io.wait, (io.wake_now, io.wake_next));
        self.tiles[t].program = Some(program);
        outcome
    }

    /// May tile `t` sleep after recording `activity` at `cycle`? Its
    /// tick has to have retired nothing, and nothing it can observe may
    /// change by the passage of time alone: no `$csti`/`$cdni` word
    /// still aging into visibility, no stall window scheduled. What is
    /// left — a push into an input, space in `$csto` or the inject FIFO,
    /// its switch halting — each wakes it; by [`TileProgram::tick`]'s
    /// contract every tick before that would repeat this one.
    fn tile_may_sleep(&self, t: usize, cycle: u64, activity: Activity) -> bool {
        matches!(
            activity,
            Activity::Idle | Activity::BlockedRecv | Activity::BlockedSend
        ) && self.stall_windows[t].is_empty()
            && !(0..NUM_STATIC_NETS).any(|net| {
                self.rings[ring_slot(t, StaticFifo::Csti(net))].is_aging(cycle, PROC_RECV_DELAY)
            })
            && !self
                .dyn_nets
                .iter()
                .any(|d| d.cdni_aging(t, cycle, PROC_RECV_DELAY))
    }

    /// The soundness check behind tile sleep, run only in builds with
    /// `debug_assertions`: tick the sleeping tile anyway and require the
    /// activity and wait it went to sleep on, with nothing retired.
    fn assert_sleeper_replays(&mut self, t: usize, cycle: u64) {
        let (activity, wait) = self.tiles[t].last;
        let recorded = (activity, wait, (0, 0));
        assert_eq!(
            self.tick_tile(t, cycle),
            recorded,
            "tile {t} asleep since cycle {} would not repeat its last tick at cycle {cycle}",
            self.recorded[t]
        );
    }

    /// The soundness check behind switch sleep, run only in builds with
    /// `debug_assertions` on every cycle a switch is not stepped, and
    /// read-only over the arena: the step skipped would have changed
    /// nothing but the stall count. Either the switch is halted with no
    /// PC load it could apply, or every unfired group of its current
    /// instruction is refused — for a reason time alone cannot lift,
    /// unless its wake is already queued for the next cycle — with the
    /// first refusal's cause the one its stalls are credited to.
    fn assert_switch_may_skip(&self, t: usize, net: usize, cycle: u64) {
        let slot = self.switch_slot(t, net);
        let queued = self.woken_next.contains(slot);
        let st = &self.tiles[t].switch_state[net];
        let asleep = || {
            format!(
                "switch {net} at tile {t} asleep since cycle {}, at cycle {cycle}",
                self.recorded[slot]
            )
        };
        if st.halted {
            assert!(
                st.pending_pc.is_none_or(|(_, at)| at >= cycle && queued),
                "{} would apply its PC load",
                asleep()
            );
            return;
        }
        let routes = match self.tiles[t].switch_prog[net].instrs.get(st.pc) {
            Some(instr) if !instr.routes.is_empty() => &instr.routes,
            _ => panic!("{} would halt or advance", asleep()),
        };
        let mut first = None;
        for gi in (0..routes.len()).filter(|&gi| st.fired & (1 << gi) == 0) {
            let group = route_group(routes, st.fired, gi);
            let Some(cause) = self.group_refusal(t, routes, group, cycle) else {
                panic!("{} would fire route {gi}", asleep());
            };
            let timed = cause == SwitchStallCause::DeviceBackpressure
                || self.rings[src_ring(t, routes[gi])].is_aging(cycle, 0);
            assert!(
                !timed || queued,
                "{} is refused route {gi} ({cause:?}) only until time lifts it",
                asleep()
            );
            first.get_or_insert(cause);
        }
        assert_eq!(
            first,
            Some(self.tiles[t].last_switch_cause[net]),
            "{}",
            asleep()
        );
    }

    /// Record `span` cycles that tile `t` was not ticked on: each repeats
    /// the tile's last recorded cycle in the ledger.
    fn credit_tile(&mut self, t: usize, span: u64) {
        let (a, w) = self.tiles[t].last;
        self.tiles[t].ledger[a.index()][w.index()] += span;
    }

    /// The switch for `net` at tile `t` stalled this cycle, first refused
    /// for `cause`.
    #[inline]
    pub(crate) fn switch_stalled(&mut self, t: usize, net: usize, cause: SwitchStallCause) {
        self.tiles[t].stalls[net][cause.index()] += 1;
        self.tiles[t].last_switch_cause[net] = cause;
    }

    /// Record `span` cycles the switch for `net` at tile `t` was not
    /// stepped on: unless halted it was stalled on every one of them,
    /// for the cause its last stepped cycle attributed.
    fn credit_switch(&mut self, t: usize, net: usize, span: u64) {
        if self.tiles[t].switch_state[net].halted {
            return;
        }
        let cause = self.tiles[t].last_switch_cause[net];
        self.tiles[t].stalls[net][cause.index()] += span;
    }

    /// Credit every component's skipped cycles up to the current one, so
    /// the ledger reads as if every cycle had been stepped, and hand an
    /// attached sink the ledger's totals. Every public run
    /// entry (`step`, `run`, `run_until`, `run_until_quiescent`) ends
    /// here, so nothing outside one ever sees a cycle uncredited.
    fn settle(&mut self) {
        let now = self.cycle;
        for t in 0..self.tiles.len() {
            if self.recorded[t] < now {
                self.credit_tile(t, now - self.recorded[t]);
                self.recorded[t] = now;
            }
            for net in 0..NUM_STATIC_NETS {
                let slot = self.switch_slot(t, net);
                if self.recorded[slot] < now {
                    self.credit_switch(t, net, now - self.recorded[slot]);
                    self.recorded[slot] = now;
                }
            }
            debug_assert_eq!(
                self.tiles[t].ledger.iter().flatten().sum::<u64>(),
                now,
                "tile {t}'s ledger does not sum to the clock"
            );
        }
        if let Some(sink) = self.telemetry.as_ref() {
            let mut sink = sink.lock().unwrap();
            for (t, tile) in self.tiles.iter().enumerate() {
                sink.cycle_totals(t as u16, &self.tile_states(TileId(t as u16)), &tile.stalls);
            }
        }
    }

    /// Returns `(progress, control_transition)`: whether any route fired,
    /// and whether any switch advanced through a route-less instruction
    /// (which changes switch state without counting as progress — a cycle
    /// containing one must not be skipped over).
    fn step_switches(&mut self, cycle: u64, plan: Option<&CompiledPlan>) -> (bool, bool) {
        let mut progress = false;
        let mut ctrl = false;
        let first = self.switch_slot(0, 0);
        self.sweep(first..self.spare_slot(), cycle, |m, slot| {
            let (t, net) = (
                (slot - first) / NUM_STATIC_NETS,
                (slot - first) % NUM_STATIC_NETS,
            );
            if m.recorded[slot] < cycle {
                m.credit_switch(t, net, cycle - m.recorded[slot]);
            }
            m.recorded[slot] = cycle + 1;
            let (p, c) = match plan {
                Some(plan) => m.step_switch_compiled(t, net, plan, cycle),
                None => m.step_switch(t, net, cycle),
            };
            progress |= p;
            ctrl |= c;
        });
        (progress, ctrl)
    }

    /// Returns `(progress, control_transition)` for one switch.
    pub(crate) fn step_switch(&mut self, t: usize, net: usize, cycle: u64) -> (bool, bool) {
        self.tiles[t].switch_state[net].apply_pending_pc(cycle);
        if self.tiles[t].switch_state[net].halted {
            return (false, false);
        }
        let pc = self.tiles[t].switch_state[net].pc;
        if pc >= self.tiles[t].switch_prog[net].instrs.len() {
            self.tiles[t].switch_state[net].halted = true;
            return (false, true);
        }
        // Hold a second handle on the (immutable) program for the tick so
        // routes are read in place while the machine is borrowed mutably.
        let prog = Arc::clone(&self.tiles[t].switch_prog[net]);
        let instr = &prog.instrs[pc];
        let routes = instr.routes.as_slice();
        let nroutes = routes.len();
        debug_assert!(nroutes <= 32, "route set exceeds the fired bitmask");
        let ctrl_op = instr.ctrl;
        // Fire route groups (routes sharing a (net, src) fire together,
        // duplicating the word across destinations). Groups are bitmasks
        // over the instruction's route list, like `fired` itself.
        let mut fired = self.tiles[t].switch_state[net].fired;
        let mut any_fired = false;
        // The first refused group's cause, which a stall is credited to.
        let mut block_cause: Option<SwitchStallCause> = None;
        let mut gi = 0;
        while gi < nroutes {
            if fired & (1 << gi) != 0 {
                gi += 1;
                continue;
            }
            let group = route_group(routes, fired, gi);
            match self.group_refusal(t, routes, group, cycle) {
                None => {
                    self.fire_group(t, routes, group, cycle);
                    fired |= group;
                    any_fired = true;
                }
                Some(cause) => {
                    block_cause.get_or_insert(cause);
                }
            }
            gi += 1;
        }
        self.tiles[t].switch_state[net].fired = fired;
        let complete = fired == ((1u64 << nroutes) - 1) as u32;
        let mut ctrl_transition = false;
        if complete {
            let prog_len = self.tiles[t].switch_prog[net].len();
            let st = &mut self.tiles[t].switch_state[net];
            st.fired = 0;
            match ctrl_op {
                SwitchCtrl::Next => {
                    st.pc += 1;
                    if st.pc >= prog_len {
                        st.halted = true;
                    }
                }
                SwitchCtrl::Jump(pc) => st.pc = pc,
                SwitchCtrl::WaitPc => st.halted = true,
            }
            // A route-less instruction (nop / WaitPc) completing is a pure
            // control transition: switch state changed with no progress.
            ctrl_transition = !any_fired;
        } else if !any_fired {
            let cause = block_cause.expect("an incomplete instruction has a refused group");
            self.switch_stalled(t, net, cause);
        }
        (any_fired, ctrl_transition)
    }

    /// Why the route group (a bitmask over `routes`, all sharing
    /// `(net, src)`) cannot fire this cycle — source word not visible,
    /// else the first member destination refusing it (a full FIFO, or a
    /// bound edge device pushing back) — or `None` when it can.
    fn group_refusal(
        &self,
        t: usize,
        routes: &[Route],
        group: u32,
        cycle: u64,
    ) -> Option<SwitchStallCause> {
        let lead = routes[group.trailing_zeros() as usize];
        let src_ok = self.rings[src_ring(t, lead)].has_visible(cycle, 0);
        if !src_ok {
            return Some(SwitchStallCause::FifoEmpty);
        }
        let mut bits = group;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let r = routes[j];
            match r.dst {
                SwPort::Proc => {
                    if !self.rings[ring_slot(t, StaticFifo::Csti(r.net))].has_space() {
                        return Some(SwitchStallCause::FifoFull);
                    }
                }
                p => {
                    let d = p.dir().unwrap();
                    match self.cfg.dim.neighbor(TileId(t as u16), d) {
                        Some(nb) => {
                            let into = StaticFifo::In {
                                net: r.net,
                                dir: d.opposite().index(),
                            };
                            if !self.rings[ring_slot(nb.index(), into)].has_space() {
                                return Some(SwitchStallCause::FifoFull);
                            }
                        }
                        None => {
                            if let Some(i) = self.device_at(t, r.net, d.index()) {
                                if !self.devices[i].can_push(cycle) {
                                    return Some(SwitchStallCause::DeviceBackpressure);
                                }
                            }
                        }
                    }
                }
            }
        }
        None
    }

    fn fire_group(&mut self, t: usize, routes: &[Route], group: u32, cycle: u64) {
        let lead = routes[group.trailing_zeros() as usize];
        let word = self.rings[src_ring(t, lead)].pop_visible(cycle, 0).unwrap();
        let mut bits = group;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let r = routes[j];
            match r.dst {
                SwPort::Proc => {
                    let ok = self.rings[ring_slot(t, StaticFifo::Csti(r.net))].push(word, cycle);
                    debug_assert!(ok);
                }
                p => {
                    let d = p.dir().unwrap();
                    match self.cfg.dim.neighbor(TileId(t as u16), d) {
                        Some(nb) => {
                            let into = StaticFifo::In {
                                net: r.net,
                                dir: d.opposite().index(),
                            };
                            let ok = self.rings[ring_slot(nb.index(), into)].push(word, cycle);
                            debug_assert!(ok);
                        }
                        None => match self.device_at(t, r.net, d.index()) {
                            Some(i) => self.devices[i].push_out(word, cycle),
                            None => self.edge_drops += 1,
                        },
                    }
                }
            }
            self.routes_fired += 1;
        }
    }

    /// The earliest cycle `>= self.cycle` on which any component might do
    /// something it could not do on the cycle just stepped, or `None` if
    /// no such cycle exists (a true deadlock / fully drained machine).
    ///
    /// Only meaningful immediately after a *quiet* cycle (see
    /// `step_cycle`): in that state every enabled transition has already
    /// been tried and refused, every refusal depends only on FIFO
    /// visibility ages, cache-stall deadlines, and device readiness — all
    /// pure functions of time — and FIFO *space* cannot change without
    /// some transition firing first. The minimum over every such time
    /// threshold is therefore a sound skip target: every cycle strictly
    /// before it would replay the quiet cycle exactly.
    pub(crate) fn next_event_cycle(&self) -> Option<u64> {
        let now = self.cycle;
        let mut best = u64::MAX;
        // Returns true when the event is this very cycle: `now` cannot be
        // beaten, so the caller stops scanning immediately (the common
        // case on a busy machine, where a just-enqueued word becomes
        // visible next cycle). Candidates in the past are stale — an
        // unconsumed word whose visibility came and went — and waiting on
        // them changes nothing, so they are ignored.
        let mut consider = |v: u64| -> bool {
            if v == now {
                return true;
            }
            if v > now && v < best {
                best = v;
            }
            false
        };
        for (t, tile) in self.tiles.iter().enumerate() {
            for net in 0..NUM_STATIC_NETS {
                let st = &tile.switch_state[net];
                // A pending PC load applies (to a halted switch) on a later
                // cycle without any progress marker; never skip past one.
                if st.pending_pc.is_some() {
                    return Some(now);
                }
                // Defense in depth: a non-halted switch sitting at a
                // route-less instruction advances every cycle. After a
                // quiet cycle this cannot happen (the advance is a control
                // transition, which vetoes quietness), but refuse to skip
                // if it somehow does.
                if !st.halted {
                    if let Some(instr) = tile.switch_prog[net].instrs.get(st.pc) {
                        if instr.routes.is_empty() {
                            return Some(now);
                        }
                    }
                }
            }
            // Each ring's front word turns visible to its consumer on
            // cycle `enqueue + delay + 1`: the processor reads `$csti` one
            // pipeline stage later than a switch reads its inputs.
            let fronts = (0..NUM_STATIC_NETS)
                .flat_map(|net| (0..4).map(move |dir| (StaticFifo::In { net, dir }, 0)))
                .chain((0..NUM_STATIC_NETS).map(|net| (StaticFifo::Csti(net), PROC_RECV_DELAY)))
                .chain([(StaticFifo::Csto, 0)]);
            for (fifo, delay) in fronts {
                if let Some(ts) = self.rings[ring_slot(t, fifo)].front_ts() {
                    if consider(ts + delay + 1) {
                        return Some(now);
                    }
                }
            }
            if tile.stall_until >= now && consider(tile.stall_until) {
                return Some(now);
            }
            // A scheduled stall window beginning is a state change (idle
            // or blocked cycles become CacheStall); never skip past it.
            if let Some(&(s, _)) = self.stall_windows[t].first() {
                if consider(s.max(now)) {
                    return Some(now);
                }
            }
        }
        for d in &self.dyn_nets {
            if let Some(v) = d.next_visibility_event(now, PROC_RECV_DELAY) {
                if consider(v) {
                    return Some(now);
                }
            }
        }
        for (i, dev) in self.devices.iter().enumerate() {
            let port = self.device_ports[i];
            // Injection only matters while the edge FIFO has space; space
            // cannot appear without routing progress, which is itself an
            // event.
            let edge = StaticFifo::In {
                net: port.net,
                dir: port.dir.index(),
            };
            if self.rings[ring_slot(port.tile.index(), edge)].has_space() {
                if let Some(v) = dev.next_inject_event(now) {
                    if consider(v.max(now)) {
                        return Some(now);
                    }
                }
            }
            if let Some(v) = dev.next_accept_event(now) {
                if consider(v.max(now)) {
                    return Some(now);
                }
            }
        }
        if best == u64::MAX {
            None
        } else {
            Some(best)
        }
    }

    /// Jump straight from `self.cycle` to `target`. Nothing is stepped on
    /// the skipped cycles, so every component credits them like any other
    /// cycle it was not stepped on — its last recorded cycle repeated,
    /// which a skipped quiet cycle by construction is — before its next
    /// step or in [`RawMachine::settle`]. `last_progress` is untouched:
    /// skipped cycles made no progress.
    pub(crate) fn fast_forward_to(&mut self, target: u64) {
        self.cycle = self.cycle.max(target);
    }

    /// Run exactly `n` cycles through the configured engine. With the
    /// default engine quiet stretches are jumped in bulk; the observable
    /// end state is identical to stepping each cycle.
    pub fn run(&mut self, n: u64) {
        let deadline = self.cycle + n;
        while self.cycle < deadline {
            let quiet = self.step_cycle_engine();
            if quiet && self.cfg.engine.skips() {
                let target = self.next_event_cycle().unwrap_or(deadline).min(deadline);
                self.fast_forward_to(target);
            }
        }
        self.settle();
    }

    /// Run until `pred` holds (checked after each cycle) or `max_cycles`
    /// elapse. Returns true if the predicate held.
    pub fn run_until(
        &mut self,
        max_cycles: u64,
        mut pred: impl FnMut(&RawMachine) -> bool,
    ) -> bool {
        let deadline = self.cycle + max_cycles;
        while self.cycle < deadline {
            self.step();
            if pred(self) {
                return true;
            }
        }
        false
    }

    /// Run until nothing makes progress for `window` consecutive cycles
    /// (or `max_cycles` pass). Returns a report distinguishing a clean
    /// finish (everything idle) from a blocked state (a potential
    /// deadlock, §5.5).
    pub fn run_until_quiescent(&mut self, window: u64, max_cycles: u64) -> QuiescenceReport {
        let deadline = self.cycle + max_cycles;
        while self.cycle < deadline && self.idle_cycles() < window {
            let quiet = self.step_cycle_engine();
            if quiet && self.cfg.engine.skips() {
                // Stop exactly where per-cycle stepping would declare
                // quiescence, so the reported cycle matches.
                let cap = (self.last_progress + window).min(deadline);
                let target = self.next_event_cycle().unwrap_or(cap).min(cap);
                self.fast_forward_to(target);
            }
        }
        self.settle();
        let blocked_tiles: Vec<TileId> = self
            .tiles
            .iter()
            .enumerate()
            .filter(|(_, tile)| tile.last.0.is_blocked())
            .map(|(i, _)| TileId(i as u16))
            .collect();
        QuiescenceReport {
            cycle: self.cycle,
            quiescent: self.idle_cycles() >= window,
            blocked_tiles,
        }
    }
}

/// Result of [`RawMachine::run_until_quiescent`].
#[derive(Clone, Debug)]
pub struct QuiescenceReport {
    pub cycle: u64,
    /// True if the machine went quiet (nothing moved for the window).
    pub quiescent: bool,
    /// Tiles whose processors were blocked when the run stopped. A
    /// quiescent machine with blocked tiles is deadlocked or starved.
    pub blocked_tiles: Vec<TileId>,
}

impl QuiescenceReport {
    /// Quiescent with at least one blocked processor: the textbook
    /// static-network deadlock signature of §5.5.
    pub fn is_deadlock(&self) -> bool {
        self.quiescent && !self.blocked_tiles.is_empty()
    }
}
