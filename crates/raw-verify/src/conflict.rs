//! Analysis 1: per-instruction route conflicts and mesh geometry
//! (`RV1xx`).
//!
//! Walks every instruction of every switch program installed in a
//! [`FabricModel`] and checks the properties a single instruction must
//! satisfy in isolation:
//!
//! * `RV101` — a crossbar output is selected by two routes on one
//!   network (the hardware muxes exactly one input per output);
//! * `RV102` — a route uses an off-grid link that is not a declared
//!   external port (the word would fall off the chip, or block forever
//!   waiting for a device that is not there);
//! * `RV103` — a `WaitPc` instruction carries routes (the sync point
//!   must be route-free so a processor-loaded PC cannot strand a
//!   half-fired instruction);
//! * `RV104` — the program exceeds the prototype's switch instruction
//!   memory (the §6.2 feasibility bound);
//! * `RV105` — a route is scheduled on a network other than the one the
//!   program is installed on;
//! * `RV106` — an instruction names more routes than the machine's fired
//!   mask can track;
//! * `RV107` — a jump targets an instruction outside the program.

use raw_sim::{SwPort, SwitchCtrl, MAX_ROUTES_PER_INSTR};

use crate::{Analysis, Diag, FabricModel, SwitchSlot};

fn wire_name(slot: &SwitchSlot, port: SwPort) -> String {
    match port.dir() {
        Some(d) => format!("{}:{}:{}", slot.tile, slot.net, d),
        None => format!("{}:{}:Proc", slot.tile, slot.net),
    }
}

/// Check one installed program. Returns the number of instructions
/// examined.
pub fn check_slot(model: &FabricModel, slot: &SwitchSlot, diags: &mut Vec<Diag>) -> u64 {
    let base = |code, msg| {
        Diag::new(code, Analysis::RouteConflict, &model.name, msg)
            .at_tile(slot.tile)
            .at_net(slot.net)
    };

    if !slot.program.fits_switch_imem() {
        diags.push(base(
            "RV104",
            format!(
                "switch program of {} instructions exceeds the {}-instruction switch memory",
                slot.program.len(),
                raw_sim::SWITCH_IMEM_INSTRS
            ),
        ));
    }

    let len = slot.program.len();
    for (pc, instr) in slot.program.instrs.iter().enumerate() {
        if instr.ctrl == SwitchCtrl::WaitPc && !instr.routes.is_empty() {
            diags.push(
                base(
                    "RV103",
                    format!("WaitPc sync point carries {} route(s)", instr.routes.len()),
                )
                .at_pc(pc),
            );
        }
        if let SwitchCtrl::Jump(target) = instr.ctrl {
            if target >= len {
                diags.push(
                    base(
                        "RV107",
                        format!("jump target {target} outside the {len}-instruction program"),
                    )
                    .at_pc(pc),
                );
            }
        }
        if instr.routes.len() > MAX_ROUTES_PER_INSTR {
            diags.push(
                base(
                    "RV106",
                    format!(
                        "{} routes exceed the {MAX_ROUTES_PER_INSTR}-route instruction limit",
                        instr.routes.len()
                    ),
                )
                .at_pc(pc),
            );
        }
        for (i, a) in instr.routes.iter().enumerate() {
            if a.net != slot.net {
                diags.push(
                    base(
                        "RV105",
                        format!(
                            "route {:?}->{:?} on net {} inside the net-{} program",
                            a.src, a.dst, a.net, slot.net
                        ),
                    )
                    .at_pc(pc)
                    .at_wire(wire_name(slot, a.src)),
                );
            }
            for b in &instr.routes[i + 1..] {
                if a.net == b.net && a.dst == b.dst {
                    diags.push(
                        base(
                            "RV101",
                            format!(
                                "output {:?} driven by both {:?} and {:?} on net {}",
                                a.dst, a.src, b.src, a.net
                            ),
                        )
                        .at_pc(pc)
                        .at_wire(wire_name(slot, a.dst)),
                    );
                }
            }
            // Geometry: an off-grid link must be a declared external port.
            if let Some(d) = a.src.dir() {
                if model.dim.neighbor(slot.tile, d).is_none()
                    && !model.ext_in.contains(&(slot.tile, slot.net, d))
                {
                    diags.push(
                        base(
                            "RV102",
                            format!("route reads off-grid link {d} with no device declared"),
                        )
                        .at_pc(pc)
                        .at_wire(wire_name(slot, a.src)),
                    );
                }
            }
            if let Some(d) = a.dst.dir() {
                if model.dim.neighbor(slot.tile, d).is_none()
                    && !model.ext_out.contains(&(slot.tile, slot.net, d))
                {
                    diags.push(
                        base(
                            "RV102",
                            format!("route drives off-grid link {d} with no device declared"),
                        )
                        .at_pc(pc)
                        .at_wire(wire_name(slot, a.dst)),
                    );
                }
            }
        }
    }
    len as u64
}

/// Check every program in the fabric. Returns total instructions
/// examined.
pub fn check_fabric(model: &FabricModel, diags: &mut Vec<Diag>) -> u64 {
    let mut n = 0;
    for slot in &model.slots {
        n += check_slot(model, slot, diags);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_sim::{Dir, GridDim, Route, SwitchInstr, SwitchProgram, TileId, NET0, NET1};

    fn model_with(program: SwitchProgram) -> FabricModel {
        let mut m = FabricModel::new("test", GridDim::new(1, 2));
        m.slots
            .push(SwitchSlot::new(TileId(0), NET0, program, vec![]));
        m
    }

    fn codes(model: &FabricModel) -> Vec<&'static str> {
        let mut diags = Vec::new();
        check_fabric(model, &mut diags);
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_program_passes() {
        let mut m = model_with(SwitchProgram::new(vec![
            SwitchInstr::new(
                vec![Route::new(NET0, SwPort::W, SwPort::E)],
                SwitchCtrl::Next,
            ),
            SwitchInstr::wait_pc(),
        ]));
        m.ext_in.push((TileId(0), NET0, Dir::West));
        assert!(codes(&m).is_empty());
    }

    #[test]
    fn double_driven_output_is_rv101() {
        // Public fields let a mutant bypass the validating constructor.
        let mut i = SwitchInstr::new(
            vec![Route::new(NET0, SwPort::Proc, SwPort::E)],
            SwitchCtrl::Next,
        );
        i.routes.push(Route::new(NET0, SwPort::W, SwPort::E));
        let mut m = model_with(SwitchProgram::new(vec![i, SwitchInstr::wait_pc()]));
        m.ext_in.push((TileId(0), NET0, Dir::West));
        assert_eq!(codes(&m), vec!["RV101"]);
    }

    #[test]
    fn undeclared_offgrid_link_is_rv102() {
        // Tile (0,0) of a 1x2 grid: North is off-grid and undeclared.
        let m = model_with(SwitchProgram::new(vec![
            SwitchInstr::new(
                vec![Route::new(NET0, SwPort::Proc, SwPort::N)],
                SwitchCtrl::Next,
            ),
            SwitchInstr::wait_pc(),
        ]));
        assert_eq!(codes(&m), vec!["RV102"]);
    }

    #[test]
    fn waitpc_with_routes_is_rv103() {
        let mut i = SwitchInstr::wait_pc();
        i.routes.push(Route::new(NET0, SwPort::Proc, SwPort::Proc));
        let m = model_with(SwitchProgram::new(vec![i]));
        assert_eq!(codes(&m), vec!["RV103"]);
    }

    #[test]
    fn imem_overflow_is_rv104() {
        let m = model_with(SwitchProgram::new(vec![
            SwitchInstr::nop();
            raw_sim::SWITCH_IMEM_INSTRS + 1
        ]));
        assert_eq!(codes(&m), vec!["RV104"]);
    }

    #[test]
    fn net_mismatch_is_rv105() {
        let m = model_with(SwitchProgram::new(vec![
            SwitchInstr::new(
                vec![Route::new(NET1, SwPort::Proc, SwPort::E)],
                SwitchCtrl::Next,
            ),
            SwitchInstr::wait_pc(),
        ]));
        assert_eq!(codes(&m), vec!["RV105"]);
    }

    #[test]
    fn route_overflow_is_rv106_and_rv101() {
        let mut i = SwitchInstr::nop();
        for _ in 0..MAX_ROUTES_PER_INSTR + 1 {
            i.routes.push(Route::new(NET0, SwPort::Proc, SwPort::E));
        }
        let m = model_with(SwitchProgram::new(vec![i]));
        assert!(codes(&m).contains(&"RV106"));
    }

    #[test]
    fn bad_jump_target_is_rv107() {
        let m = model_with(SwitchProgram::new(vec![SwitchInstr::new(
            vec![],
            SwitchCtrl::Jump(99),
        )]));
        assert_eq!(codes(&m), vec!["RV107"]);
    }

    #[test]
    fn generated_router_programs_are_clean() {
        let image = raw_xbar::RouterImage::of(16, false, false).unwrap();
        let model = crate::lockstep::router_model(&image, "router-q16");
        let mut diags = Vec::new();
        let n = check_fabric(&model, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(n > 100, "checked only {n} instructions");
    }
}
