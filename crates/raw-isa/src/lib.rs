//! # raw-isa — the Raw instruction set, assembler, and interpreter
//!
//! The paper's router is hand-written Raw assembly plus generated switch
//! code. This crate provides that layer over [`raw_sim`]:
//!
//! * [`isa`] — the MIPS-R4000-like tile instruction set with Raw's
//!   register-mapped network ports and bit-manipulation extensions;
//! * [`asm`] — two-pass assemblers for tile programs and for switch
//!   (`route`) programs;
//! * [`interp`] — a cycle-accurate interpreter implementing
//!   [`raw_sim::TileProgram`], used to validate the timing model against
//!   the paper's Figure 3-2 (the 5-cycle tile-to-tile send) and to run
//!   small kernels.
//!
//! The router itself (crate `raw-xbar`) runs as cycle-stepped native
//! state machines honoring the same per-cycle costs; this crate is the
//! proof that those costs match what real Raw assembly would see.

pub mod asm;
pub mod interp;
pub mod isa;
pub mod kernels;

pub use asm::{assemble, assemble_switch, AsmError};
pub use interp::{CoreWatch, IsaCore};
pub use isa::{
    AluImmOp, AluOp, BranchCond, Instr, Reg, BRANCH_MISPREDICT_PENALTY, CDNI, CDNO, CSTI, CSTI2,
    CSTO, TILE_IMEM_INSTRS, ZERO,
};
