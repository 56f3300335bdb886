//! # raw-sim — a cycle-accurate simulator of the MIT Raw tiled processor
//!
//! The Raw processor (Waingold et al., IEEE Computer 1997; Taylor, MIT
//! 1999) is a chip multiprocessor of simple MIPS-like tiles connected by
//! *software-exposed* on-chip networks: two compile-time-scheduled static
//! networks whose per-cycle crossbar configuration is driven by a
//! per-tile switch processor, and two wormhole-routed dynamic networks.
//! The paper reproduced by this workspace — *High-Bandwidth Packet
//! Switching on the Raw General-Purpose Architecture* (ICPP 2003) —
//! evaluates a 4-port IP router on the (then unfabricated) Raw prototype
//! using the Raw cycle simulator. This crate is that substrate, rebuilt.
//!
//! ## Model summary
//!
//! * [`machine::RawMachine`] — an `R x C` grid of tiles stepped one cycle
//!   at a time, deterministically, by one of two engines
//!   ([`EngineMode`]): the per-cycle interpreter, the reference, or the
//!   fast engine, which steps every cycle too but through lowered switch
//!   programs, leaving stalled tiles and switches asleep until a FIFO
//!   event wakes them.
//! * [`switch`] — the static switch processor: per-cycle routes with
//!   flow control, multicast duplication, all-routes-complete instruction
//!   semantics, jumps, and processor-loaded program counters.
//! * [`dynamic`] — wormhole, dimension-ordered dynamic networks.
//! * [`cache`] — the 8K-word 2-way data cache with write-back timing.
//! * [`program`] — cycle-stepped tile programs with the paper's cost
//!   model (2 cycles to buffer a network word to memory, 1 cycle for
//!   load-and-forward, blocking network registers).
//! * [`trace`] — what a tile cycle is spent on ([`Activity`]) and its
//!   cumulative counts ([`TileStats`]), read off the machine's ledger
//!   (Figure 7-3's data).
//! * [`device`] — off-chip line cards / sources / sinks on edge ports.
//! * [`first_divergence`] / [`lockstep`] over [`RawMachine::digests`] — the
//!   one differential: where two runs first diverge, by step and component.
//!
//! ## Timing fidelity
//!
//! The model reproduces the latencies the paper states: a tile-to-tile
//! send over the static network costs 5 cycles end-to-end with a 3-cycle
//! send-to-use latency (Figure 3-2; validated in this crate's tests and
//! in `raw-isa`), each link moves one 32-bit word per cycle, and network
//! registers block the pipeline. Dynamic-network hops are one cycle; the
//! 15–30 cycle ALU-to-ALU figure quoted in §3.3 of the paper includes the
//! software overhead of composing and demultiplexing messages, which
//! belongs to the programs, not the fabric.

pub mod cache;
mod compiled;
pub mod device;
mod digest;
pub mod dynamic;
mod fifo;
pub mod geom;
pub mod machine;
pub mod program;
pub mod switch;
pub mod trace;

pub use cache::Access;
pub use device::{EdgeDevice, EdgePort, NullSink, SinkHandle, WordSink, WordSource};
pub use digest::{first_divergence, lockstep, Component};
pub use dynamic::{pack_header, unpack_header, DynNet};
pub use geom::{Dir, GridDim, TileId};
pub use machine::{
    cycles_to_seconds, EngineMode, QuiescenceReport, RawConfig, RawMachine, CDNI_CAPACITY,
    CLOCK_MHZ, CSTI_CAPACITY, CSTO_CAPACITY, DYN_FIFO_CAPACITY, LINK_FIFO_CAPACITY,
    LOCAL_MEM_WORDS, PROC_RECV_DELAY,
};
pub use program::{IdleProgram, TileIo, TileProgram};
pub use switch::{
    NetId, Route, SwPort, SwitchCtrl, SwitchInstr, SwitchProgram, SwitchState,
    MAX_ROUTES_PER_INSTR, NET0, NET1, NUM_STATIC_NETS, SWITCH_IMEM_INSTRS,
};
pub use trace::{Activity, TileStats};
