//! The engine differential the machine test files share.

use std::fmt::Debug;

use raw_sim::{first_divergence, EngineMode, RawMachine};

/// Runs `steps` steps of `script` on what `build` makes under each
/// engine — a machine, plus the handles a test reads back out of its
/// programs, devices and sinks. Asserts that [`first_divergence`] finds
/// no step and component where the two machines differ, and that `read`
/// (what those handles recorded, which the machine does not own) reads
/// the same off both sides after the whole script. Returns the
/// interpreter's side, for the test's own reads.
pub fn assert_engines_agree<X, R: PartialEq + Debug>(
    build: impl Fn(EngineMode) -> (RawMachine, X),
    script: impl Fn(&mut (RawMachine, X), u64),
    steps: u64,
    read: impl Fn(&X) -> R,
) -> (RawMachine, X) {
    let found = first_divergence(
        || build(EngineMode::PerCycle),
        || build(EngineMode::Compiled),
        &script,
        |(m, _)| m.digests(),
        steps,
    );
    assert_eq!(found, None, "(step, component) where the engines part");
    let run = |engine| {
        let mut side = build(engine);
        script(&mut side, steps);
        side
    };
    let reference = run(EngineMode::PerCycle);
    assert_eq!(read(&run(EngineMode::Compiled).1), read(&reference.1));
    reference
}

/// A script that is just `run(n)`.
pub fn cycles<X>((m, _): &mut (RawMachine, X), n: u64) {
    m.run(n);
}
