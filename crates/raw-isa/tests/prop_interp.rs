//! Property test: the cycle-accurate interpreter computes the same
//! architectural results as a simple functional golden model for random
//! straight-line ALU programs (timing differs; values must not).

use proptest::prelude::*;
use raw_isa::*;
use raw_sim::{RawConfig, RawMachine, TileId};

#[derive(Clone, Debug)]
enum GInstr {
    Alu(AluOp, u8, u8, u8),
    AluImm(AluImmOp, u8, u8, i16),
    Lui(u8, u16),
    Popc(u8, u8),
    Ext(u8, u8, u8, u8),
}

/// General registers only (skip $0 and the network-mapped 24..=28).
fn arb_reg() -> impl Strategy<Value = u8> {
    prop_oneof![1u8..24, 29u8..32]
}

fn arb_instr() -> impl Strategy<Value = GInstr> {
    let alu = prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Nor),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
        Just(AluOp::Sllv),
        Just(AluOp::Srlv),
        Just(AluOp::Srav),
        Just(AluOp::Mul),
    ];
    let alui = prop_oneof![
        Just(AluImmOp::Addi),
        Just(AluImmOp::Andi),
        Just(AluImmOp::Ori),
        Just(AluImmOp::Xori),
        Just(AluImmOp::Slti),
        Just(AluImmOp::Sll),
        Just(AluImmOp::Srl),
        Just(AluImmOp::Sra),
    ];
    prop_oneof![
        (alu, arb_reg(), arb_reg(), arb_reg()).prop_map(|(o, d, s, t)| GInstr::Alu(o, d, s, t)),
        (alui, arb_reg(), arb_reg(), any::<i16>())
            .prop_map(|(o, t, s, i)| GInstr::AluImm(o, t, s, i)),
        (arb_reg(), any::<u16>()).prop_map(|(t, i)| GInstr::Lui(t, i)),
        (arb_reg(), arb_reg()).prop_map(|(d, s)| GInstr::Popc(d, s)),
        (arb_reg(), arb_reg(), 0u8..32, 1u8..=32).prop_map(|(d, s, p, z)| GInstr::Ext(d, s, p, z)),
    ]
}

fn to_instr(g: &GInstr) -> Instr {
    match *g {
        GInstr::Alu(op, d, s, t) => Instr::Alu {
            op,
            rd: Reg(d),
            rs: Reg(s),
            rt: Reg(t),
        },
        GInstr::AluImm(op, t, s, i) => Instr::AluImm {
            op,
            rt: Reg(t),
            rs: Reg(s),
            imm: i as i32,
        },
        GInstr::Lui(t, i) => Instr::Lui {
            rt: Reg(t),
            imm: i as u32,
        },
        GInstr::Popc(d, s) => Instr::Popc {
            rd: Reg(d),
            rs: Reg(s),
        },
        GInstr::Ext(d, s, p, z) => Instr::Ext {
            rd: Reg(d),
            rs: Reg(s),
            pos: p,
            size: z,
        },
    }
}

/// The golden model: direct functional evaluation.
fn golden(prog: &[GInstr], init: &[u32; 32]) -> [u32; 32] {
    let mut r = *init;
    r[0] = 0;
    for g in prog {
        match *g {
            GInstr::Alu(op, d, s, t) => {
                let v = op.eval(r[s as usize], r[t as usize]);
                if d != 0 {
                    r[d as usize] = v;
                }
            }
            GInstr::AluImm(op, t, s, i) => {
                let v = op.eval(r[s as usize], i as i32);
                if t != 0 {
                    r[t as usize] = v;
                }
            }
            GInstr::Lui(t, i) => {
                if t != 0 {
                    r[t as usize] = (i as u32) << 16;
                }
            }
            GInstr::Popc(d, s) => {
                if d != 0 {
                    r[d as usize] = r[s as usize].count_ones();
                }
            }
            GInstr::Ext(d, s, p, z) => {
                let mask = if z >= 32 { u32::MAX } else { (1u32 << z) - 1 };
                if d != 0 {
                    r[d as usize] = (r[s as usize] >> p) & mask;
                }
            }
        }
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn interpreter_matches_golden_model(
        prog in proptest::collection::vec(arb_instr(), 1..40),
        seeds in proptest::collection::vec(any::<u32>(), 8),
    ) {
        let mut instrs: Vec<Instr> = prog.iter().map(to_instr).collect();
        instrs.push(Instr::Halt);
        let mut core = IsaCore::new(instrs);
        let mut init = [0u32; 32];
        for (i, s) in seeds.iter().enumerate() {
            init[1 + i] = *s;
            core.set_reg(Reg(1 + i as u8), *s);
        }
        let mut m = RawMachine::new(RawConfig::default());
        m.set_program(TileId(0), Box::new(core));
        m.run(prog.len() as u64 + 20);
        let w = &m.program_ref::<IsaCore>(TileId(0)).unwrap().watch;
        prop_assert!(w.halted, "straight-line program must halt");
        let want = golden(&prog, &init);
        #[allow(clippy::needless_range_loop)]
        for r in 1..24usize {
            prop_assert_eq!(w.regs[r], want[r], "register ${} diverged", r);
        }
        // One instruction per cycle: retire count == program length + halt.
        prop_assert_eq!(w.retired, prog.len() as u64 + 1);
    }
}
