//! Tile-processor programs and their per-cycle execution contract.
//!
//! The router's tile code (ingress, lookup, crossbar, egress controllers)
//! runs as *cycle-stepped state machines*: the machine calls
//! [`TileProgram::tick`] once per simulated cycle, and the program performs
//! **at most one retiring action** through the [`TileIo`] handle. Every
//! action has the cost structure the paper's hand-written Raw assembly has:
//!
//! * a static-network receive consumes one cycle and blocks (the network
//!   registers stall the pipeline when empty);
//! * a send into `$csto` consumes one cycle and blocks when the FIFO is
//!   full;
//! * a cache access consumes one cycle on a hit and stalls the processor
//!   for the miss latency otherwise — so buffering a word from the network
//!   into local memory is a receive plus a store, "two processor cycles per
//!   word" (§4.4), while [`TileIo::load_send`] models the one-cycle
//!   `lw $csto, off($r)` load-and-forward idiom;
//! * pure computation is accounted with [`TileIo::compute`] (one cycle per
//!   call, callers loop for multi-cycle work).
//!
//! Actions either complete (the program advances its state) or report a
//! stall (the program retries on the next tick). The machine's cycle
//! ledger counts which of the two happened each cycle, by
//! [`crate::trace::Activity`], which is exactly the data behind the
//! per-tile utilization plots of Figure 7-3.

use std::any::Any;

use crate::cache::{Access, DCache};
use crate::dynamic::DynNet;
use crate::fifo::Ring;
use crate::geom::TileId;
use crate::machine::{LOCAL_MEM_WORDS, PROC_RECV_DELAY};
use crate::switch::{NetId, SwitchState, NUM_STATIC_NETS};
use crate::trace::{Activity, Wait};

/// Words in one page of tile local memory (4 KB).
pub(crate) const PAGE_WORDS: usize = 1 << 10;

/// One tile's local memory: [`LOCAL_MEM_WORDS`] words held in pages of
/// [`PAGE_WORDS`], each made, zeroed, on its first write. The 4 MB
/// address space costs only the pages a program or a setup write
/// touches (a crossbar tile's jump table is three), and a word nobody
/// wrote reads 0 without making its page. Callers bound addresses to
/// [`LOCAL_MEM_WORDS`] first, with a message naming what overran.
#[derive(Default)]
pub(crate) struct TileMem {
    /// Page `p` holds words `p * PAGE_WORDS ..`. The table reaches only
    /// as far as the highest page made.
    pages: Vec<Option<Box<[u32; PAGE_WORDS]>>>,
}

impl TileMem {
    /// Word `i`.
    #[inline]
    pub(crate) fn read(&self, i: usize) -> u32 {
        match self.pages.get(i / PAGE_WORDS) {
            Some(Some(page)) => page[i % PAGE_WORDS],
            _ => 0,
        }
    }

    /// Word `i`, for writing: its page is made if it is not yet.
    #[inline]
    pub(crate) fn slot(&mut self, i: usize) -> &mut u32 {
        &mut self.page(i / PAGE_WORDS)[i % PAGE_WORDS]
    }

    /// Page `p`, made on first touch.
    #[inline]
    fn page(&mut self, p: usize) -> &mut [u32; PAGE_WORDS] {
        debug_assert!(p < LOCAL_MEM_WORDS / PAGE_WORDS);
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, || None);
        }
        self.pages[p].get_or_insert_with(|| {
            let page = vec![0; PAGE_WORDS].into_boxed_slice();
            page.try_into().expect("a page is PAGE_WORDS long")
        })
    }

    /// Write `words` from word `base` on, page by page.
    pub(crate) fn write(&mut self, base: usize, mut words: &[u32]) {
        let mut at = base;
        while !words.is_empty() {
            let off = at % PAGE_WORDS;
            let (now, rest) = words.split_at((PAGE_WORDS - off).min(words.len()));
            self.page(at / PAGE_WORDS)[off..off + now.len()].copy_from_slice(now);
            at += now.len();
            words = rest;
        }
    }

    /// Pages made so far.
    #[cfg(test)]
    pub(crate) fn pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }
}

/// A program running on one tile processor. `Any` lets a caller read
/// what the concrete program owns — its counters, its architectural
/// state — back out of the machine by type
/// ([`crate::RawMachine::program_ref`] / [`crate::RawMachine::program_mut`]).
pub trait TileProgram: Any + Send {
    /// Execute one cycle. Perform at most one retiring action on `io`.
    ///
    /// **Contract.** A tick that retires nothing — a stalled action, or
    /// no action at all — must be a pure function of what `io` exposes
    /// other than [`TileIo::cycle`]: called again against the same FIFOs
    /// and switch state it must stall the same way, raise the same wait,
    /// and leave the program where it was. The fast engine's sleep rests
    /// on it: a tile whose tick retired nothing with no input word still
    /// aging toward it is not ticked again until a FIFO it can observe
    /// is pushed or popped or its switch halts, and the cycles between
    /// are credited as repeats of that tick. Builds with `debug_assertions` tick the
    /// sleeping tile anyway and assert that it reproduces the recorded
    /// activity and wait.
    fn tick(&mut self, io: &mut TileIo<'_>);

    /// Optional human-readable label for traces and utilization plots.
    fn label(&self) -> &str {
        "tile"
    }
}

/// A tile with no program: permanently idle.
pub struct IdleProgram;

impl TileProgram for IdleProgram {
    fn tick(&mut self, _io: &mut TileIo<'_>) {}

    fn label(&self) -> &str {
        "idle"
    }
}

/// Per-cycle access to a tile's architectural resources. Constructed by the
/// machine for each tick; the activity recorded on drop feeds utilization
/// statistics.
pub struct TileIo<'a> {
    pub cycle: u64,
    pub tile: TileId,
    /// The tile's slice of the machine's ring arena: `$csti` per network,
    /// then `$csto` (at [`CSTO`]).
    pub(crate) rings: &'a mut [Ring; NUM_STATIC_NETS + 1],
    pub(crate) switch: &'a mut [SwitchState; NUM_STATIC_NETS],
    pub(crate) cache: &'a mut DCache,
    pub(crate) mem: &'a mut TileMem,
    pub(crate) dyn_nets: &'a mut [DynNet],
    pub(crate) stall_until: &'a mut u64,
    pub(crate) activity: Activity,
    /// The highest wait this cycle's `hint_*` calls raised; the machine
    /// ledgers the cycle under `(activity, wait)`.
    pub(crate) wait: Wait,
    /// Static networks whose switch this tick's retiring actions wake
    /// (bit `net`) on this cycle: a `$csti` pop frees that network's
    /// switch space it can use at once.
    pub(crate) wake_now: u8,
    /// ... and on the next cycle, when the switch can first see what
    /// changed: a `$csto` push (both networks; the word turns visible
    /// then) or a PC load (it applies then at the earliest).
    pub(crate) wake_next: u8,
    acted: bool,
}

/// [`TileIo::wake_next`] after a `$csto` push: both networks' switches
/// read the shared FIFO.
pub(crate) const BOTH_SWITCHES: u8 = (1 << NUM_STATIC_NETS) - 1;

/// `$csto`'s place in [`TileIo::rings`], after each network's `$csti`.
const CSTO: usize = NUM_STATIC_NETS;

impl<'a> TileIo<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cycle: u64,
        tile: TileId,
        rings: &'a mut [Ring; NUM_STATIC_NETS + 1],
        switch: &'a mut [SwitchState; NUM_STATIC_NETS],
        cache: &'a mut DCache,
        mem: &'a mut TileMem,
        dyn_nets: &'a mut [DynNet],
        stall_until: &'a mut u64,
    ) -> TileIo<'a> {
        TileIo {
            cycle,
            tile,
            rings,
            switch,
            cache,
            mem,
            dyn_nets,
            stall_until,
            activity: Activity::Idle,
            wait: Wait::None,
            wake_now: 0,
            wake_next: 0,
            acted: false,
        }
    }

    #[inline]
    fn begin_action(&mut self) {
        debug_assert!(
            !self.acted,
            "tile {} performed two retiring actions in one cycle",
            self.tile
        );
        self.acted = true;
    }

    // ---- queries (free, do not retire) ----

    /// True if a static-network word is readable this cycle on `net`.
    pub fn can_recv_static(&self, net: NetId) -> bool {
        self.rings[net].has_visible(self.cycle, PROC_RECV_DELAY)
    }

    /// True if `$csto` can take another word.
    pub fn can_send_static(&self) -> bool {
        self.rings[CSTO].has_space()
    }

    /// True if the switch processor for static network `net` is halted at
    /// a `WaitPc` (the "confirmation from the switch processor stating
    /// that the routing is finished" of §6.5).
    pub fn switch_halted(&self, net: NetId) -> bool {
        self.switch[net].halted && self.switch[net].pending_pc.is_none()
    }

    /// True if a dynamic-network word is deliverable this cycle.
    pub fn can_recv_dyn(&self, net: usize) -> bool {
        self.dyn_nets[net].can_recv(self.tile, self.cycle, PROC_RECV_DELAY)
    }

    /// True if the dynamic-network inject FIFO has space.
    pub fn can_send_dyn(&self, net: usize) -> bool {
        self.dyn_nets[net].can_inject(self.tile)
    }

    // ---- retiring actions ----

    /// Spend one cycle computing.
    pub fn compute(&mut self) {
        self.begin_action();
        self.activity = Activity::Busy;
    }

    /// Explicitly spend the cycle idle (same as doing nothing).
    pub fn idle(&mut self) {
        self.begin_action();
        self.activity = Activity::Idle;
    }

    /// Read a word from static network `net` (`$csti` / `$csti2`).
    /// `None` means the pipeline stalled on an empty network register.
    pub fn recv_static(&mut self, net: NetId) -> Option<u32> {
        self.begin_action();
        match self.rings[net].pop_visible(self.cycle, PROC_RECV_DELAY) {
            Some(w) => {
                self.activity = Activity::Busy;
                self.wake_now |= 1 << net;
                Some(w)
            }
            None => {
                self.activity = Activity::BlockedRecv;
                None
            }
        }
    }

    /// Write a word to `$csto` for the switch to route. `false` means the
    /// pipeline stalled on a full output FIFO.
    #[must_use]
    pub fn send_static(&mut self, word: u32) -> bool {
        self.begin_action();
        if self.rings[CSTO].push(word, self.cycle) {
            self.activity = Activity::Busy;
            self.wake_next = BOTH_SWITCHES;
            true
        } else {
            self.activity = Activity::BlockedSend;
            false
        }
    }

    /// `word_addr` as an index into local memory, which it must lie in.
    fn mem_index(&self, word_addr: u32) -> usize {
        let i = word_addr as usize;
        assert!(
            i < LOCAL_MEM_WORDS,
            "tile {} accessed word address {:#x} beyond local memory ({} words)",
            self.tile,
            word_addr,
            LOCAL_MEM_WORDS
        );
        i
    }

    /// Load a word from local data memory through the cache. `None` means
    /// the access missed and the processor is stalled for the miss latency;
    /// retry after the stall to complete the load.
    pub fn load(&mut self, word_addr: u32) -> Option<u32> {
        self.begin_action();
        match self.cache.access(word_addr, false) {
            Access::Hit => {
                self.activity = Activity::Busy;
                Some(self.mem.read(self.mem_index(word_addr)))
            }
            Access::Miss { latency } => {
                self.activity = Activity::CacheStall;
                *self.stall_until = self.cycle + latency as u64;
                None
            }
        }
    }

    /// Store a word to local data memory through the cache. `false` means
    /// a miss stall; retry to complete.
    #[must_use]
    pub fn store(&mut self, word_addr: u32, word: u32) -> bool {
        self.begin_action();
        match self.cache.access(word_addr, true) {
            Access::Hit => {
                self.activity = Activity::Busy;
                let i = self.mem_index(word_addr);
                *self.mem.slot(i) = word;
                true
            }
            Access::Miss { latency } => {
                self.activity = Activity::CacheStall;
                *self.stall_until = self.cycle + latency as u64;
                false
            }
        }
    }

    /// The one-cycle `lw $csto, off($r)` idiom: load a word and forward it
    /// straight into the static network. Returns `false` on a full `$csto`
    /// (blocked-send) or a cache miss (stall); retry to complete.
    #[must_use]
    pub fn load_send(&mut self, word_addr: u32) -> bool {
        self.begin_action();
        if !self.rings[CSTO].has_space() {
            self.activity = Activity::BlockedSend;
            return false;
        }
        match self.cache.access(word_addr, false) {
            Access::Hit => {
                let w = self.mem.read(self.mem_index(word_addr));
                let pushed = self.rings[CSTO].push(w, self.cycle);
                debug_assert!(pushed);
                self.activity = Activity::Busy;
                self.wake_next = BOTH_SWITCHES;
                true
            }
            Access::Miss { latency } => {
                self.activity = Activity::CacheStall;
                *self.stall_until = self.cycle + latency as u64;
                false
            }
        }
    }

    /// The `op $csto, $csti, $r` idiom: receive a word from static
    /// network `net`, transform it in the ALU, and forward it through
    /// `$csto`, all in one instruction cycle — the mechanism behind the
    /// paper's computation-in-the-switch-fabric proposal (§8.3).
    pub fn recv_op_send(&mut self, net: NetId, f: impl FnOnce(u32) -> u32) -> Option<u32> {
        self.begin_action();
        if !self.rings[CSTO].has_space() {
            self.activity = Activity::BlockedSend;
            return None;
        }
        match self.rings[net].pop_visible(self.cycle, PROC_RECV_DELAY) {
            Some(w) => {
                let out = f(w);
                let pushed = self.rings[CSTO].push(out, self.cycle);
                debug_assert!(pushed);
                self.activity = Activity::Busy;
                self.wake_now |= 1 << net;
                self.wake_next = BOTH_SWITCHES;
                Some(w)
            }
            None => {
                self.activity = Activity::BlockedRecv;
                None
            }
        }
    }

    /// The `move $csto, $csti` idiom: forward a word from static network
    /// `net` straight back out through `$csto` in one cycle.
    pub fn recv_send(&mut self, net: NetId) -> Option<u32> {
        self.begin_action();
        if !self.rings[CSTO].has_space() {
            self.activity = Activity::BlockedSend;
            return None;
        }
        match self.rings[net].pop_visible(self.cycle, PROC_RECV_DELAY) {
            Some(w) => {
                let pushed = self.rings[CSTO].push(w, self.cycle);
                debug_assert!(pushed);
                self.activity = Activity::Busy;
                self.wake_now |= 1 << net;
                self.wake_next = BOTH_SWITCHES;
                Some(w)
            }
            None => {
                self.activity = Activity::BlockedRecv;
                None
            }
        }
    }

    /// Load a new program counter into the switch processor for static
    /// network `net` (one cycle; takes effect on the switch's next cycle).
    pub fn set_switch_pc(&mut self, net: NetId, pc: usize) {
        self.begin_action();
        self.activity = Activity::Busy;
        self.wake_next |= 1 << net;
        self.switch[net].load_pc(pc, self.cycle);
    }

    /// Inject a word into dynamic network `net` (`$cdno`).
    #[must_use]
    pub fn send_dyn(&mut self, net: usize, word: u32) -> bool {
        self.begin_action();
        if self.dyn_nets[net].inject(self.tile, word, self.cycle) {
            self.activity = Activity::Busy;
            true
        } else {
            self.activity = Activity::BlockedSend;
            false
        }
    }

    /// Read a word from dynamic network `net` (`$cdni`).
    pub fn recv_dyn(&mut self, net: usize) -> Option<u32> {
        self.begin_action();
        match self.dyn_nets[net].recv(self.tile, self.cycle, PROC_RECV_DELAY) {
            Some(w) => {
                self.activity = Activity::Busy;
                Some(w)
            }
            None => {
                self.activity = Activity::BlockedRecv;
                None
            }
        }
    }

    /// Mark this cycle as spent waiting on a token/grant protocol rather
    /// than ordinary idleness or an empty FIFO. Does not retire and does
    /// not change simulation behavior — it only refines how the machine's
    /// cycle ledger classifies the cycle (token-wait instead of idle /
    /// fifo-empty).
    pub fn hint_token_wait(&mut self) {
        self.wait = self.wait.max(Wait::Token);
    }

    /// Like [`TileIo::hint_token_wait`], but the wait is on a per-slot
    /// *scheduler* decision (iSLIP or crosspoint arbitration rather than
    /// the rotating token). The ledger credits the cycle to the
    /// `arb_wait` state so scheduler head-to-heads can attribute
    /// arbitration stalls separately; it wins over a token hint.
    pub fn hint_arb_wait(&mut self) {
        self.wait = self.wait.max(Wait::Arb);
    }

    /// Mark this cycle as stalled on forwarding-table *memory* — the
    /// level-2 fetch of a DIR-24-8 lookup under a memory model, or the
    /// fruitless walk of an injected lookup miss. Like the other hints
    /// it never changes simulation behavior: the cycle still advances
    /// (the program typically pairs it with [`TileIo::compute`]), only
    /// the ledger counts it in the `lookup_stall` state instead of busy.
    /// It wins over both other hints.
    pub fn hint_lookup_stall(&mut self) {
        self.wait = self.wait.max(Wait::Lookup);
    }

    /// Permit one more retiring call within this cycle.
    ///
    /// Hand-written tile programs perform one action per tick, but a single
    /// *machine instruction* may legitimately touch several architectural
    /// queues in one cycle — `add $1, $csti, $csti2` pops both static
    /// networks, `lw $csto, off($r)` combines a cache access with a network
    /// push. The ISA interpreter calls this between the component
    /// operations of one instruction; the whole instruction still costs
    /// exactly one cycle (plus stalls).
    pub fn allow_compound(&mut self) {
        self.acted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{RawConfig, RawMachine};

    /// Stores `words` from word `base` on, then loads `loads` words from
    /// `base` on into `loaded`, one action a tick, retrying each through
    /// its miss.
    struct StoreThenLoad {
        base: u32,
        words: Vec<u32>,
        loads: usize,
        done: usize,
        loaded: Vec<u32>,
    }

    impl TileProgram for StoreThenLoad {
        fn tick(&mut self, io: &mut TileIo<'_>) {
            let stores = self.words.len();
            if self.done < stores {
                if io.store(self.base + self.done as u32, self.words[self.done]) {
                    self.done += 1;
                }
            } else if self.done < stores + self.loads {
                if let Some(w) = io.load(self.base + (self.done - stores) as u32) {
                    self.loaded.push(w);
                    self.done += 1;
                }
            }
        }
    }

    /// A machine whose tile 0 ran a [`StoreThenLoad`] for 500 cycles.
    fn store_then_load(base: u32, words: &[u32], loads: usize) -> RawMachine {
        let mut m = RawMachine::new(RawConfig::default());
        let program = StoreThenLoad {
            base,
            words: words.to_vec(),
            loads,
            done: 0,
            loaded: Vec::new(),
        };
        m.set_program(TileId(0), Box::new(program));
        m.run(500);
        m
    }

    fn loaded(m: &RawMachine) -> &[u32] {
        &m.program_ref::<StoreThenLoad>(TileId(0)).unwrap().loaded
    }

    #[test]
    fn stores_and_loads_cross_a_page_boundary() {
        let base = PAGE_WORDS as u32 - 2;
        let m = store_then_load(base, &[1, 2, 3, 4], 4);
        assert_eq!(loaded(&m), [1, 2, 3, 4]);
        assert_eq!(m.read_tile_mem(TileId(0), base as usize, 4), [1, 2, 3, 4]);
        assert_eq!(m.tiles[0].mem.pages(), 2);
    }

    #[test]
    fn setup_writes_read_back_across_a_page_boundary() {
        let mut m = RawMachine::new(RawConfig::default());
        let words: Vec<u32> = (1..=PAGE_WORDS as u32 + 4).collect();
        m.write_tile_mem(TileId(2), PAGE_WORDS / 2, &words);
        assert_eq!(
            m.read_tile_mem(TileId(2), PAGE_WORDS / 2, words.len()),
            words
        );
        assert_eq!(m.tiles[2].mem.pages(), 2);
    }

    #[test]
    fn an_untouched_word_reads_zero_and_makes_no_page() {
        let m = store_then_load(3 * PAGE_WORDS as u32, &[], 2);
        assert_eq!(loaded(&m), [0, 0]);
        assert_eq!(m.read_tile_mem(TileId(0), LOCAL_MEM_WORDS - 8, 8), [0; 8]);
        assert_eq!(m.tiles[0].mem.pages(), 0);
    }

    #[test]
    fn a_2500_word_table_makes_3_pages() {
        let mut m = RawMachine::new(RawConfig::default());
        m.write_tile_mem(TileId(5), 0, &[7; 2500]);
        assert_eq!(m.tiles[5].mem.pages(), 3);
        assert_eq!(m.tiles.iter().map(|t| t.mem.pages()).sum::<usize>(), 3);
    }

    #[test]
    #[should_panic(
        expected = "tile 0 accessed word address 0x100000 beyond local memory (1048576 words)"
    )]
    fn a_store_beyond_local_memory_panics() {
        store_then_load(LOCAL_MEM_WORDS as u32, &[1], 0);
    }

    #[test]
    #[should_panic(expected = "write [1048575, 1048577) exceeds local memory (1048576 words)")]
    fn a_setup_write_beyond_local_memory_panics() {
        let mut m = RawMachine::new(RawConfig::default());
        m.write_tile_mem(TileId(0), LOCAL_MEM_WORDS - 1, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "read [1048575, 1048577) exceeds local memory (1048576 words)")]
    fn a_read_beyond_local_memory_panics() {
        let m = RawMachine::new(RawConfig::default());
        m.read_tile_mem(TileId(0), LOCAL_MEM_WORDS - 1, 2);
    }
}
