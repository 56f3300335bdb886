//! Hand-written Raw assembly kernels.
//!
//! The router's hot loops (§4.2, §6.5) are built from a small set of
//! idioms — unrolled load-and-forward streaming, receive-and-buffer,
//! one's-complement checksumming, bit-field extraction. This module
//! provides those kernels as real assembly with reference
//! implementations and cycle-cost assertions, both as living
//! documentation of the cost model and as validation of the
//! interpreter beyond single instructions.

use crate::asm::AsmError;
use crate::interp::IsaCore;
use crate::isa::Reg;

/// Registers used by kernel calling conventions.
pub const A0: Reg = Reg(4); // first argument
pub const A1: Reg = Reg(5); // second argument
pub const V0: Reg = Reg(2); // result

/// One's-complement (Internet checksum) accumulation over `n` 32-bit
/// words starting at word address in `$a0`; 16-bit folded sum in `$v0`.
///
/// Two words per iteration, software style of the era: load, split into
/// halfwords with the Raw bit-field extract, accumulate, fold at the
/// end.
pub fn checksum_kernel(n_words: usize) -> Result<IsaCore, AsmError> {
    assert!(n_words >= 1);
    let mut src = String::new();
    src.push_str("  move $v0, $zero\n");
    src.push_str(&format!("  addi $t0, $zero, {n_words}\n"));
    src.push_str("  move $t1, $a0\n");
    src.push_str("loop:\n");
    src.push_str("  lw   $t2, 0($t1)\n");
    src.push_str("  ext  $t3, $t2, 16, 16\n"); // high halfword
    src.push_str("  andi $t4, $t2, 0xffff\n"); // low halfword
    src.push_str("  add  $v0, $v0, $t3\n");
    src.push_str("  add  $v0, $v0, $t4\n");
    src.push_str("  addi $t1, $t1, 1\n");
    src.push_str("  addi $t0, $t0, -1\n");
    src.push_str("  bgtz $t0, loop\n");
    // Fold carries: twice suffices for any count < 2^16 words.
    for _ in 0..2 {
        src.push_str("  ext  $t3, $v0, 16, 16\n");
        src.push_str("  andi $v0, $v0, 0xffff\n");
        src.push_str("  add  $v0, $v0, $t3\n");
    }
    src.push_str("  halt\n");
    IsaCore::from_asm(&src)
}

/// Reference one's-complement sum over words (big-endian halfword order
/// is irrelevant for the fold).
pub fn checksum_reference(words: &[u32]) -> u16 {
    let mut sum: u64 = 0;
    for w in words {
        sum += (w >> 16) as u64 + (w & 0xffff) as u64;
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// Unrolled memory-to-network streaming (`lw $csto, k($a0)` — the §4.4
/// one-cycle-per-word idiom), `n` words.
pub fn stream_kernel(n_words: usize) -> Result<IsaCore, AsmError> {
    let mut src = String::from("  lw $t0, 0($a0)\n"); // warm the first line
    for k in 0..n_words {
        src.push_str(&format!("  lw $csto, {k}($a0)\n"));
    }
    src.push_str("  halt\n");
    IsaCore::from_asm(&src)
}

/// Receive-and-buffer (`move` + `sw`, the §4.4 two-cycles-per-word
/// path), `n` words to the address in `$a0`.
pub fn buffer_kernel(n_words: usize) -> Result<IsaCore, AsmError> {
    let mut src = String::new();
    for k in 0..n_words {
        src.push_str("  move $t1, $csti\n");
        src.push_str(&format!("  sw $t1, {k}($a0)\n"));
    }
    src.push_str("  halt\n");
    IsaCore::from_asm(&src)
}

/// Population-count accumulation over `n` words at `$a0` (the "population
/// related operations" of §3.2), result in `$v0`.
pub fn popcount_kernel(n_words: usize) -> Result<IsaCore, AsmError> {
    let mut src = String::new();
    src.push_str("  move $v0, $zero\n");
    src.push_str(&format!("  addi $t0, $zero, {n_words}\n"));
    src.push_str("  move $t1, $a0\n");
    src.push_str("loop:\n");
    src.push_str("  lw   $t2, 0($t1)\n");
    src.push_str("  popc $t3, $t2\n");
    src.push_str("  add  $v0, $v0, $t3\n");
    src.push_str("  addi $t1, $t1, 1\n");
    src.push_str("  addi $t0, $t0, -1\n");
    src.push_str("  bgtz $t0, loop\n");
    src.push_str("  halt\n");
    IsaCore::from_asm(&src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_sim::{RawConfig, RawMachine, TileId};

    fn run_kernel_with_mem(
        mut core: IsaCore,
        base: u32,
        data: &[u32],
        cycles: u64,
    ) -> (crate::interp::CoreWatch, RawMachine) {
        use raw_sim::{Route, SwPort, SwitchCtrl, SwitchInstr, SwitchProgram, NET0};
        core.set_reg(A0, base);
        let mut m = RawMachine::new(RawConfig::default());
        let mem = m.tile_mem_mut(TileId(0));
        mem[base as usize..base as usize + data.len()].copy_from_slice(data);
        m.set_program(TileId(0), Box::new(core));
        // Drain $csto off the north chip edge so streaming kernels never
        // back up (the unbound edge counts and drops).
        m.set_switch_program(
            TileId(0),
            NET0,
            SwitchProgram::new(vec![SwitchInstr::new(
                vec![Route::new(NET0, SwPort::Proc, SwPort::N)],
                SwitchCtrl::Jump(0),
            )]),
        );
        m.run(cycles);
        let w = m.program_ref::<IsaCore>(TileId(0)).unwrap().watch.clone();
        (w, m)
    }

    #[test]
    fn checksum_matches_reference() {
        let data: Vec<u32> = (0..40u32).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
        let core = checksum_kernel(data.len()).unwrap();
        let (w, _) = run_kernel_with_mem(core, 0x100, &data, 8000);
        assert!(w.halted, "kernel must finish");
        assert_eq!(w.regs[2] as u16, checksum_reference(&data));
        assert_eq!(w.regs[2] >> 16, 0, "result must be folded to 16 bits");
    }

    #[test]
    fn checksum_single_word() {
        let data = [0xffff_ffffu32];
        let core = checksum_kernel(1).unwrap();
        let (w, _) = run_kernel_with_mem(core, 0, &data, 200);
        assert_eq!(w.regs[2] as u16, checksum_reference(&data));
    }

    #[test]
    fn popcount_matches_reference() {
        let data: Vec<u32> = (0..16u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let want: u32 = data.iter().map(|w| w.count_ones()).sum();
        let core = popcount_kernel(data.len()).unwrap();
        let (w, _) = run_kernel_with_mem(core, 0x40, &data, 4000);
        assert!(w.halted);
        assert_eq!(w.regs[2], want);
    }

    #[test]
    fn stream_kernel_is_one_cycle_per_word_after_warmup() {
        // 16 words in two cache lines; warm both, then the unrolled
        // burst must retire back-to-back. (The kernel warms only the
        // first line, so allow the one extra miss.)
        let data: Vec<u32> = (0..16).collect();
        let core = stream_kernel(data.len()).unwrap();
        let (w, m) = run_kernel_with_mem(core, 0, &data, 4000);
        assert!(w.halted);
        // Count retire gaps of exactly 1 among the streaming stores.
        let rc = &w.retire_cycles[1..17];
        let one_cycle = rc.windows(2).filter(|p| p[1] - p[0] == 1).count();
        assert!(one_cycle >= 13, "streaming broke pipeline: {rc:?}");
        let (hits, misses) = m.cache_stats(TileId(0));
        assert!(misses <= 2, "at most two cold line fills, got {misses}");
        assert!(hits >= 15);
    }

    #[test]
    fn buffer_kernel_costs_two_cycles_per_word() {
        use raw_sim::{Dir, EdgePort, SwitchCtrl, SwitchInstr, SwitchProgram, WordSource, NET0};
        let n = 8usize;
        let mut core = buffer_kernel(n).unwrap();
        core.set_reg(A0, 0x200);
        let mut m = RawMachine::new(RawConfig::default());
        // Pre-warm the destination line is not possible from outside;
        // accept the cold-miss stalls and check the steady-state pairs.
        m.set_program(TileId(0), Box::new(core));
        m.set_switch_program(
            TileId(0),
            NET0,
            SwitchProgram::new(vec![SwitchInstr::new(
                vec![raw_sim::Route::new(
                    NET0,
                    raw_sim::SwPort::W,
                    raw_sim::SwPort::Proc,
                )],
                SwitchCtrl::Jump(0),
            )]),
        );
        m.bind_device(
            EdgePort::new(TileId(0), Dir::West, NET0),
            Box::new(WordSource::new((0..n as u32).map(|i| 100 + i))),
        );
        m.run(2000);
        let w = m.program_ref::<IsaCore>(TileId(0)).unwrap().watch.clone();
        assert!(w.halted);
        // Words landed in memory.
        let mem = m.tile_mem_mut(TileId(0));
        assert_eq!(
            &mem[0x200..0x200 + n],
            &(0..n as u32).map(|i| 100 + i).collect::<Vec<_>>()[..]
        );
        // Steady state (away from the cold miss): move+sw pairs retire 2
        // cycles apart.
        let starts: Vec<u64> = (0..n).map(|i| w.retire_cycles[2 * i]).collect();
        let two_apart = starts.windows(2).filter(|p| p[1] - p[0] == 2).count();
        assert!(
            two_apart >= n - 3,
            "buffering pairs not 2-cycle: {starts:?}"
        );
    }

    #[test]
    fn kernels_fit_instruction_memory() {
        // The biggest practical unrolled stream (a full quantum) fits.
        assert!(stream_kernel(1023).is_ok());
        assert!(buffer_kernel(1023).is_ok());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use raw_sim::{RawConfig, RawMachine, TileId};

    /// A classic control-flow kernel: iterative Fibonacci, validating
    /// loops + register dataflow against a Rust reference.
    #[test]
    fn fibonacci_kernel() {
        for n in [1u32, 2, 3, 10, 24] {
            let src = format!(
                "
                addi $t0, $zero, {n}
                move $v0, $zero
                addi $t1, $zero, 1
            loop:
                add  $t2, $v0, $t1
                move $v0, $t1
                move $t1, $t2
                addi $t0, $t0, -1
                bgtz $t0, loop
                halt
                "
            );
            let core = IsaCore::from_asm(&src).unwrap();
            let mut m = RawMachine::new(RawConfig::default());
            m.set_program(TileId(0), Box::new(core));
            m.run(400);
            let w = &m.program_ref::<IsaCore>(TileId(0)).unwrap().watch;
            assert!(w.halted);
            let (mut a, mut b) = (0u32, 1u32);
            for _ in 0..n {
                let t = a.wrapping_add(b);
                a = b;
                b = t;
            }
            assert_eq!(w.regs[2], a, "fib({n})");
        }
    }

    /// Loop timing: a predicted backward branch costs one cycle; the
    /// whole countdown loop is exactly 4 cycles per iteration + the
    /// final mispredict.
    #[test]
    fn loop_timing_is_exact() {
        let n = 20u32;
        let src = format!(
            "
            addi $t0, $zero, {n}
        loop:
            addi $t1, $t1, 2
            addi $t0, $t0, -1
            bgtz $t0, loop
            halt
            "
        );
        let core = IsaCore::from_asm(&src).unwrap();
        let mut m = RawMachine::new(RawConfig::default());
        m.set_program(TileId(0), Box::new(core));
        m.run(400);
        let w = &m.program_ref::<IsaCore>(TileId(0)).unwrap().watch;
        assert!(w.halted);
        assert_eq!(w.regs[9], 2 * n);
        // 1 setup + 3n loop instructions + 1 halt retires, and exactly
        // one 3-cycle mispredict bubble at loop exit.
        assert_eq!(w.retired, 1 + 3 * n as u64 + 1);
        let last = *w.retire_cycles.last().unwrap();
        assert_eq!(last, (1 + 3 * n as u64 + 1 - 1) + 3);
    }
}
