//! # raw-compile — a timing shim over [`RawMachine::lower`]
//!
//! The schedule compiler that lived here is gone: a machine lowers
//! itself (`raw_sim::RawMachine::lower`, called from the engine whenever
//! a structural mutation dropped the lowered form), so there is nothing
//! for a caller to compile, install or tune. The two names below are kept
//! only because `benchmark/src/layers.rs` spells them to time one
//! lowering of a router (`raw-compile.router_compile_s`); ROADMAP item 1
//! has the note to call `RawMachine::lower` there and delete this crate.

use raw_sim::RawMachine;

/// No knobs: the lowering has none. Kept for the benchmark's call.
#[derive(Clone, Debug, Default)]
pub struct CompileOptions;

/// Lower `machine` now (see [`RawMachine::lower`]). Never fails; the
/// `Result` is the signature the benchmark expects.
pub fn compile_machine(machine: &mut RawMachine, _opts: &CompileOptions) -> Result<(), String> {
    machine.lower();
    Ok(())
}
