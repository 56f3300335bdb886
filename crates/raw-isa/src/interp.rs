//! Cycle-accurate interpreter for tile-processor programs.
//!
//! Each [`IsaCore`] implements [`raw_sim::TileProgram`]: one instruction
//! issues per cycle, network registers block, branches follow the static
//! prediction model (backward predicted taken, forward predicted
//! not-taken, three-cycle mispredict penalty), and memory operations go
//! through the simulated data cache.

use raw_sim::{TileIo, TileProgram, NET0, NET1};

use crate::asm::{assemble, AsmError};
use crate::isa::*;

/// Observable snapshot of a core ([`IsaCore::watch`]), updated every time
/// an instruction retires. Read it back out of a machine with
/// `m.program_ref::<IsaCore>(tile)`.
#[derive(Clone, Debug, Default)]
pub struct CoreWatch {
    pub regs: [u32; 32],
    pub pc: usize,
    pub retired: u64,
    pub halted: bool,
    /// Cycle at which each retired instruction completed, in order.
    pub retire_cycles: Vec<u64>,
}

/// Pre-decoded stall-check operands for one instruction: the register
/// source/destination sets [`Instr::sources`] / [`Instr::dest`] would
/// recompute (allocating a fresh `Vec`) on every tick. Built once at
/// construction — the kernel IR the schedule-specialization compiler
/// pass relies on for decode-free interpreted kernels.
#[derive(Clone, Copy)]
struct DecodedOperands {
    srcs: [Reg; 2],
    nsrcs: u8,
    dest: Option<Reg>,
}

impl DecodedOperands {
    fn of(instr: &Instr) -> DecodedOperands {
        let v = instr.sources();
        debug_assert!(v.len() <= 2, "instruction reads more than two sources");
        let mut srcs = [ZERO; 2];
        srcs[..v.len()].copy_from_slice(&v);
        DecodedOperands {
            srcs,
            nsrcs: v.len() as u8,
            dest: instr.dest(),
        }
    }

    #[inline]
    fn srcs(&self) -> &[Reg] {
        &self.srcs[..self.nsrcs as usize]
    }
}

/// An interpreted tile processor.
pub struct IsaCore {
    instrs: Vec<Instr>,
    /// Per-instruction pre-decoded operand sets, same indexing as
    /// `instrs`.
    decoded: Vec<DecodedOperands>,
    regs: [u32; 32],
    pc: usize,
    /// Remaining branch-mispredict bubble cycles.
    penalty: u32,
    halted: bool,
    retired: u64,
    pub watch: CoreWatch,
    label: String,
}

impl IsaCore {
    /// Build a core from validated instructions.
    pub fn new(instrs: Vec<Instr>) -> IsaCore {
        assert!(
            instrs.len() <= TILE_IMEM_INSTRS,
            "program exceeds tile instruction memory"
        );
        for (i, instr) in instrs.iter().enumerate() {
            if let Err(e) = instr.validate() {
                panic!("invalid instruction at index {i}: {e}");
            }
        }
        let decoded = instrs.iter().map(DecodedOperands::of).collect();
        IsaCore {
            instrs,
            decoded,
            regs: [0; 32],
            pc: 0,
            penalty: 0,
            halted: false,
            retired: 0,
            watch: CoreWatch::default(),
            label: "isa".to_string(),
        }
    }

    /// Assemble and build in one step.
    pub fn from_asm(src: &str) -> Result<IsaCore, AsmError> {
        Ok(IsaCore::new(assemble(src)?))
    }

    pub fn with_label(mut self, label: impl Into<String>) -> IsaCore {
        self.label = label.into();
        self
    }

    /// Preset a register before the machine starts.
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        assert!(!r.is_network(), "cannot preset a network register");
        if r != ZERO {
            self.regs[r.0 as usize] = v;
        }
    }

    fn reg(&self, r: Reg) -> u32 {
        self.regs[r.0 as usize]
    }

    fn set(&mut self, r: Reg, v: u32) {
        if r != ZERO {
            self.regs[r.0 as usize] = v;
        }
    }

    fn publish(&mut self, cycle: u64) {
        let w = &mut self.watch;
        w.regs = self.regs;
        w.pc = self.pc;
        w.retired = self.retired;
        w.halted = self.halted;
        w.retire_cycles.push(cycle);
    }

    fn retire(&mut self, cycle: u64) {
        self.retired += 1;
        self.publish(cycle);
    }

    /// Check availability of every network-input source; if one is dry,
    /// record the blocked cycle through `io` and return false.
    fn net_inputs_ready(&self, io: &mut TileIo<'_>, srcs: &[Reg]) -> bool {
        for s in srcs {
            let ready = match *s {
                CSTI => io.can_recv_static(NET0),
                CSTI2 => io.can_recv_static(NET1),
                CDNI => io.can_recv_dyn(0),
                _ => continue,
            };
            if !ready {
                // Record the blocked-receive cycle on the dry queue.
                match *s {
                    CSTI => {
                        let _ = io.recv_static(NET0);
                    }
                    CSTI2 => {
                        let _ = io.recv_static(NET1);
                    }
                    _ => {
                        let _ = io.recv_dyn(0);
                    }
                }
                return false;
            }
        }
        true
    }

    /// Read a source register, popping network queues as needed.
    /// `acted` tracks whether a retiring io call already happened this
    /// cycle so compound operations stay a single cycle.
    fn read_src(&self, io: &mut TileIo<'_>, acted: &mut bool, r: Reg) -> u32 {
        let pop = |io: &mut TileIo<'_>, acted: &mut bool, net: usize| -> u32 {
            if *acted {
                io.allow_compound();
            }
            *acted = true;
            io.recv_static(net).expect("availability checked")
        };
        match r {
            CSTI => pop(io, acted, NET0),
            CSTI2 => pop(io, acted, NET1),
            CDNI => {
                if *acted {
                    io.allow_compound();
                }
                *acted = true;
                io.recv_dyn(0).expect("availability checked")
            }
            _ => self.reg(r),
        }
    }

    /// Write a destination, pushing to network queues as needed. Space
    /// must have been checked already.
    fn write_dest(&mut self, io: &mut TileIo<'_>, acted: &mut bool, r: Reg, v: u32) {
        match r {
            CSTO => {
                if *acted {
                    io.allow_compound();
                }
                *acted = true;
                let ok = io.send_static(v);
                debug_assert!(ok, "csto space checked before execution");
            }
            CDNO => {
                if *acted {
                    io.allow_compound();
                }
                *acted = true;
                let ok = io.send_dyn(0, v);
                debug_assert!(ok, "cdno space checked before execution");
            }
            _ => self.set(r, v),
        }
    }

    /// Check output-queue space for the destination; records the blocked
    /// cycle and returns false when full.
    fn dest_ready(&self, io: &mut TileIo<'_>, dst: Option<Reg>) -> bool {
        match dst {
            Some(CSTO) if !io.can_send_static() => {
                let _ = io.send_static(0); // records BlockedSend, pushes nothing
                false
            }
            Some(CDNO) if !io.can_send_dyn(0) => {
                let _ = io.send_dyn(0, 0);
                false
            }
            _ => true,
        }
    }
}

impl TileProgram for IsaCore {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        if self.halted {
            return;
        }
        if self.penalty > 0 {
            // Pipeline bubble from a mispredicted branch.
            self.penalty -= 1;
            io.compute();
            return;
        }
        let Some(&instr) = self.instrs.get(self.pc) else {
            self.halted = true;
            self.publish(io.cycle);
            return;
        };

        // Stall checks common to every instruction shape, over the
        // operand sets pre-decoded at construction (no per-tick
        // allocation).
        let ops = self.decoded[self.pc];
        if !self.net_inputs_ready(io, ops.srcs()) {
            return;
        }
        if !self.dest_ready(io, ops.dest) {
            return;
        }

        let mut acted = false;
        let cycle = io.cycle;
        match instr {
            Instr::Alu { op, rd, rs, rt } => {
                let a = self.read_src(io, &mut acted, rs);
                let b = self.read_src(io, &mut acted, rt);
                self.write_dest(io, &mut acted, rd, op.eval(a, b));
                self.pc += 1;
            }
            Instr::AluImm { op, rt, rs, imm } => {
                let a = self.read_src(io, &mut acted, rs);
                self.write_dest(io, &mut acted, rt, op.eval(a, imm));
                self.pc += 1;
            }
            Instr::Lui { rt, imm } => {
                self.write_dest(io, &mut acted, rt, imm << 16);
                self.pc += 1;
            }
            Instr::Lw { rt, base, off } => {
                let addr = self.reg(base).wrapping_add_signed(off);
                if rt == CSTO {
                    // One-cycle load-and-forward.
                    if !io.load_send(addr) {
                        return; // blocked-send or miss stall; retry
                    }
                    acted = true;
                } else if rt == CDNO {
                    match io.load(addr) {
                        Some(v) => {
                            io.allow_compound();
                            let ok = io.send_dyn(0, v);
                            debug_assert!(ok);
                            acted = true;
                        }
                        None => return, // miss stall
                    }
                } else {
                    match io.load(addr) {
                        Some(v) => {
                            self.set(rt, v);
                            acted = true;
                        }
                        None => return, // miss stall
                    }
                }
                self.pc += 1;
            }
            Instr::Sw { rt, base, off } => {
                let addr = self.reg(base).wrapping_add_signed(off);
                let v = self.reg(rt);
                if !io.store(addr, v) {
                    return; // miss stall
                }
                acted = true;
                self.pc += 1;
            }
            Instr::Branch {
                cond,
                rs,
                rt,
                target,
            } => {
                let taken = cond.eval(self.reg(rs), self.reg(rt));
                // Static prediction: backward taken, forward not-taken.
                let predicted_taken = target <= self.pc;
                if taken != predicted_taken {
                    self.penalty = BRANCH_MISPREDICT_PENALTY;
                }
                self.pc = if taken { target } else { self.pc + 1 };
            }
            Instr::J { target } => {
                self.pc = target;
            }
            Instr::Jal { target } => {
                let ra = (self.pc + 1) as u32;
                self.set(Reg(31), ra);
                self.pc = target;
            }
            Instr::Jr { rs } => {
                self.pc = self.reg(rs) as usize;
            }
            Instr::SwPc { net, target } => {
                io.set_switch_pc(net as usize, target);
                acted = true;
                self.pc += 1;
            }
            Instr::SwPcR { net, rs } => {
                io.set_switch_pc(net as usize, self.reg(rs) as usize);
                acted = true;
                self.pc += 1;
            }
            Instr::Popc { rd, rs } => {
                let v = self.reg(rs).count_ones();
                self.set(rd, v);
                self.pc += 1;
            }
            Instr::Ext { rd, rs, pos, size } => {
                let mask = if size >= 32 {
                    u32::MAX
                } else {
                    (1u32 << size) - 1
                };
                let v = (self.reg(rs) >> pos) & mask;
                self.set(rd, v);
                self.pc += 1;
            }
            Instr::Halt => {
                self.halted = true;
            }
            Instr::Nop => {}
        }
        if !acted {
            io.compute();
        }
        self.retire(cycle);
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_sim::{RawConfig, RawMachine, TileId};

    fn run_solo(src: &str, cycles: u64) -> CoreWatch {
        let core = IsaCore::from_asm(src).unwrap();
        let mut m = RawMachine::new(RawConfig::default());
        m.set_program(TileId(0), Box::new(core));
        m.run(cycles);
        m.program_ref::<IsaCore>(TileId(0)).unwrap().watch.clone()
    }

    #[test]
    fn straight_line_alu() {
        let w = run_solo(
            "
            addi $t0, $zero, 21
            add  $t1, $t0, $t0
            mul  $t2, $t1, $t0
            halt
            ",
            20,
        );
        assert!(w.halted);
        assert_eq!(w.regs[8], 21);
        assert_eq!(w.regs[9], 42);
        assert_eq!(w.regs[10], 882);
        // Four instructions retire on cycles 0..3.
        assert_eq!(w.retire_cycles, vec![0, 1, 2, 3]);
    }

    #[test]
    fn predicted_backward_branch_is_free() {
        // 5-iteration countdown loop: bgtz backward is predicted taken, so
        // only the final fall-through mispredicts.
        let w = run_solo(
            "
            addi $t0, $zero, 5
        loop:
            addi $t0, $t0, -1
            bgtz $t0, loop
            halt
            ",
            64,
        );
        assert!(w.halted);
        // Retired: 1 (addi) + 5*(addi+bgtz) + 1 (halt) = 12.
        assert_eq!(w.retired, 12);
        // Total cycles: 12 issue cycles + 3 mispredict bubbles.
        let last = *w.retire_cycles.last().unwrap();
        assert_eq!(last, 11 + 3);
    }

    #[test]
    fn forward_branch_not_taken_is_free() {
        let w = run_solo(
            "
            addi $t0, $zero, 1
            beq  $t0, $zero, skip   # not taken; forward => predicted right
            addi $t1, $zero, 7
        skip:
            halt
            ",
            20,
        );
        assert_eq!(w.regs[9], 7);
        assert_eq!(*w.retire_cycles.last().unwrap(), 3, "no bubbles");
    }

    #[test]
    fn forward_branch_taken_pays_penalty() {
        let w = run_solo(
            "
            beq  $zero, $zero, skip  # taken; forward => mispredicted
            addi $t1, $zero, 7
        skip:
            halt
            ",
            20,
        );
        assert_eq!(w.regs[9], 0, "skipped instruction must not execute");
        // beq at cycle 0, bubbles 1-3, halt at 4.
        assert_eq!(w.retire_cycles, vec![0, 4]);
    }

    #[test]
    fn jal_jr_roundtrip() {
        let w = run_solo(
            "
            jal  sub
            addi $t0, $t0, 100
            halt
        sub:
            addi $t0, $zero, 1
            jr   $ra
            ",
            30,
        );
        assert!(w.halted);
        assert_eq!(w.regs[8], 101);
    }

    #[test]
    fn bit_operations() {
        let w = run_solo(
            "
            li   $t0, 0xf0f0
            popc $t1, $t0
            ext  $t2, $t0, 4, 8
            halt
            ",
            20,
        );
        assert_eq!(w.regs[9], 8);
        assert_eq!(w.regs[10], 0x0f);
    }

    #[test]
    fn memory_load_store_with_cache() {
        let w = run_solo(
            "
            li   $t0, 64        # word address
            li   $t1, 1234
            sw   $t1, 0($t0)
            lw   $t2, 0($t0)
            halt
            ",
            100,
        );
        assert_eq!(w.regs[10], 1234);
        // The sw misses cold (30-cycle default stall); the lw hits.
        let cycles = w.retire_cycles.clone();
        let sw_cycle = cycles[2];
        let lw_cycle = cycles[3];
        assert!(sw_cycle >= 30, "first touch must stall: {sw_cycle}");
        assert_eq!(lw_cycle, sw_cycle + 1, "second access must hit");
    }

    #[test]
    fn halt_stops_execution() {
        let w = run_solo("halt\naddi $t0, $zero, 9", 20);
        assert!(w.halted);
        assert_eq!(w.regs[8], 0);
    }

    #[test]
    fn running_off_the_end_halts() {
        let w = run_solo("addi $t0, $zero, 3", 20);
        assert!(w.halted);
        assert_eq!(w.regs[8], 3);
    }

    #[test]
    #[should_panic(expected = "invalid instruction")]
    fn constructor_validates() {
        IsaCore::new(vec![Instr::Sw {
            rt: CSTI,
            base: Reg(2),
            off: 0,
        }]);
    }
}
