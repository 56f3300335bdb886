//! The Crossbar Processor in real Raw assembly (§6.5).
//!
//! "The tile processor code is programmed with the use of software
//! pipelining: the tile processor of the crossbar tile computes the
//! address into the jump table of configurations while the switch
//! processor is routing the body of the previous packet, then … reads
//! the new set of headers and loads the address of the configuration
//! into the program counter of the switch processor."
//!
//! This module generates that program for each crossbar tile and runs it
//! on the `raw-isa` interpreter, as an alternative to the native
//! [`crate::programs::CrossbarProgram`] state machine. The generated
//! assembly:
//!
//! 1. steers the switch to the header-exchange routine (`swpc`),
//! 2. takes its own header from `$csti` and runs the 3-step ring
//!    all-to-all through `$csto`/`$csti`,
//! 3. decodes the four destination masks, forms the jump-table index
//!    with shift-adds,
//! 4. `lw`-loads the table entry (`switch_pc | grant << 31`) through the
//!    data cache,
//! 5. pushes the grant word (consumed by the routine's `h3` route) and
//!    jumps the switch to the selected body routine with `swpcr`,
//! 6. bumps the synchronous token counter and loops.
//!
//! The jump table is indexed over the destination-mask alphabet
//! (16⁴ × 4), which makes the header decode three instructions per
//! header; unicast traffic simply uses one-hot masks.

use raw_isa::IsaCore;

use crate::codegen::CrossbarCode;
use crate::config::ConfigSpace;

/// Word address of the (mask-alphabet) jump table in a crossbar tile's
/// local memory. Entries are `switch_pc | grant << 31`.
pub const ASM_TABLE_BASE: u32 = 0;

/// Build the jump-table image whose entries carry the switch-routine PC
/// directly (the assembly loads it straight into `swpcr`).
pub fn table_image_pc(cs: &ConfigSpace, tile: usize, code: &CrossbarCode) -> Vec<u32> {
    assert!(
        cs.multicast,
        "the assembly crossbar indexes the destination-mask alphabet"
    );
    cs.jump[tile]
        .iter()
        .zip(cs.grant[tile].iter())
        .map(|(&id, &g)| {
            let pc = code.cfg_pc[id as usize] as u32;
            debug_assert!(pc < (1 << 31));
            pc | (u32::from(g) << 31)
        })
        .collect()
}

/// Generate the crossbar tile program for ring position `port`
/// (0..=3). `hdr_pc` is the switch header-exchange routine's PC.
pub fn gen_crossbar_asm_source(port: usize, hdr_pc: usize) -> String {
    let mut s = String::new();
    let mut push = |line: &str| {
        s.push_str(line);
        s.push('\n');
    };
    push("# Crossbar Processor main loop (§6.5), generated");
    push("        li    $s7, -1          # the EMPTY header sentinel");
    push("        li    $s6, 0x7fffffff  # PC mask for table entries");
    push("        move  $s5, $zero       # the synchronous token counter");
    push("main:");
    push(&format!(
        "        swpc  0, {hdr_pc}      # start header exchange"
    ));
    // Ring all-to-all: own header out, three neighbors' headers in, two
    // of them forwarded onward.
    push("        or    $s0, $zero, $csti   # own header (h1)");
    push("        move  $csto, $s0          # ring: send own");
    push("        or    $s1, $zero, $csti   # header of port me-1");
    push("        move  $csto, $s1          # forward");
    push("        or    $s2, $zero, $csti   # header of port me-2");
    push("        move  $csto, $s2          # forward");
    push("        or    $s3, $zero, $csti   # header of port me-3");
    // Decode destination masks: 0 for EMPTY, low nibble otherwise.
    // Register sX holds the header of absolute port (me - X) mod 4; the
    // index digits need absolute port order 0..3.
    for (x, src) in ["$s0", "$s1", "$s2", "$s3"].iter().enumerate() {
        let owner = (port + 4 - x) % 4;
        push(&format!("        andi  $t{owner}, {src}, 0xf"));
        push(&format!("        bne   {src}, $s7, d{x}"));
        push(&format!("        move  $t{owner}, $zero    # EMPTY"));
        push(&format!("d{x}:"));
    }
    // idx = (((token*16 + c0)*16 + c1)*16 + c2)*16 + c3
    push("        andi  $t6, $s5, 3      # token (uniform weights)");
    for d in 0..4 {
        push("        sll   $t6, $t6, 4");
        push(&format!("        add   $t6, $t6, $t{d}"));
    }
    // Table entry -> grant + switch PC.
    push(&format!("        lw    $t5, {ASM_TABLE_BASE}($t6)"));
    push("        srl   $t4, $t5, 31     # grant bit");
    push("        move  $csto, $t4       # grant word (h3)");
    push("        and   $t5, $t5, $s6    # switch routine PC");
    push("        swpcr 0, $t5           # select the configuration");
    push("        addi  $s5, $s5, 1      # token++");
    push("        j     main");
    s
}

/// Assemble the crossbar program for a ring position.
pub fn gen_crossbar_asm(port: usize, hdr_pc: usize) -> IsaCore {
    let src = gen_crossbar_asm_source(port, hdr_pc);
    IsaCore::from_asm(&src)
        .unwrap_or_else(|e| panic!("generated crossbar assembly failed to assemble: {e}\n{src}"))
        .with_label(format!("xbar{port}(asm)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RouterLayout;

    #[test]
    fn generated_source_assembles_for_all_ports() {
        for port in 0..4 {
            let src = gen_crossbar_asm_source(port, 1);
            let prog = raw_isa::assemble(&src).expect("assembles");
            // Small enough for instruction memory with huge margin.
            assert!(prog.len() < 64, "{} instructions", prog.len());
        }
    }

    #[test]
    fn decode_order_matches_ring_position() {
        // Port 2's own header lands in digit 2; its first received (from
        // port 1) in digit 1, etc.
        let src = gen_crossbar_asm_source(2, 1);
        assert!(src.contains("andi  $t2, $s0"));
        assert!(src.contains("andi  $t1, $s1"));
        assert!(src.contains("andi  $t0, $s2"));
        assert!(src.contains("andi  $t3, $s3"));
    }

    #[test]
    fn pc_table_matches_codegen() {
        let cs = ConfigSpace::enumerate_multicast();
        let l = RouterLayout::canonical();
        let code = crate::codegen::gen_crossbar_switch(&l.ports[0], &cs, 16);
        let img = table_image_pc(&cs, 0, &code);
        assert_eq!(img.len(), crate::config::GLOBAL_SPACE_MCAST);
        // Spot-check: an all-EMPTY quantum maps to the idle PC 0 with no
        // grant.
        let gi = crate::config::global_index_mcast(0, [0, 0, 0, 0]);
        assert_eq!(img[gi], 0);
        // The Figure 5-1 permutation grants with a non-idle routine.
        let gi = crate::config::global_index_mcast(0, [1 << 2, 1 << 3, 1 << 0, 1 << 1]);
        assert_eq!(img[gi] >> 31, 1, "granted");
        assert_ne!(img[gi] & 0x7fff_ffff, 0, "non-idle routine");
    }
}
