//! RV8xx — scheduler arbitration analyses.
//!
//! The `raw-sched` arbiters (token, iSLIP, crosspoint-queued) replace
//! the paper's token walk with a per-quantum matching computed by
//! replicated instances on the four Crossbar Processors. Three
//! properties make that substitution sound, and each is checked here by
//! driving the *executable* arbiter — the same object the router
//! instantiates — over exhaustive and adversarial request spaces:
//!
//! - **RV801 matching validity & routability** — every matching ever
//!   produced connects only requesting inputs, never double-grants an
//!   output, and (cross-checked against the `raw_xbar::config::schedule`
//!   walk with the token pinned at 0) is simultaneously routable on the
//!   ring, so the crossbar's jump-table realization never silently
//!   drops a granted flow.
//! - **RV802 starvation freedom / bounded wait** — under persistent
//!   demand, every requesting input is served within a fixed slot
//!   bound. This is the property iSLIP's pointer-advance rule exists
//!   for; a stuck grant pointer (the classic implementation bug) shadows
//!   an input forever and is caught here.
//! - **RV803 crosspoint occupancy bound** — buffered schedulers must
//!   keep every virtual crosspoint buffer within its declared capacity
//!   along every trace: the invariant is asserted after every slot, so
//!   the first violating transition is localized.
//!
//! The negative battery (`tests/sched_mutants.rs`) runs the same
//! analyses over deliberately broken arbiters and demands each defect is
//! rejected with its specific code.

use raw_sched::{matching_is_valid, Scheduler};
use raw_xbar::config::{schedule, Bid};
use raw_xbar::NPORTS;

use crate::{Analysis, AnalysisReport, Diag};

/// Slots a persistently requesting input may go unserved before RV802
/// fires. All three shipped arbiters stay well inside `n*n` at 4 ports
/// (token: < n by the ring walk; iSLIP / crosspoint: round-robin
/// pointers); a stuck pointer starves forever and exceeds any bound.
pub const WAIT_BOUND: u64 = (NPORTS * NPORTS) as u64;

/// How hard to drive the arbiters.
#[derive(Clone, Copy, Debug)]
pub struct SchedVerifyOptions {
    /// Check the full 16⁴ one-shot request space and run the persistent-
    /// demand sweep over every request matrix (the `repro -- verify`
    /// release path). When false, corner matrices plus a deterministic
    /// sample keep debug-mode tests fast.
    pub exhaustive: bool,
    /// Slots per persistent-demand trace.
    pub trace_slots: u64,
}

impl Default for SchedVerifyOptions {
    fn default() -> Self {
        SchedVerifyOptions {
            exhaustive: true,
            trace_slots: 64,
        }
    }
}

/// The outcome of verifying one arbiter.
#[derive(Clone, Debug)]
pub struct SchedVerdict {
    pub name: String,
    pub diags: Vec<Diag>,
    /// Matchings checked for RV801 validity/routability.
    pub matchings_checked: u64,
    /// Persistent-demand trace slots driven for RV802/RV803.
    pub trace_slots: u64,
    /// Worst observed service wait under persistent demand.
    pub worst_wait: u64,
    /// Peak crosspoint occupancy observed (0 for bufferless arbiters).
    pub occupancy_peak: u64,
}

fn matrix_from_index(x: u32) -> [u16; NPORTS] {
    std::array::from_fn(|i| ((x >> (4 * i)) & 0xf) as u16)
}

/// The corner matrices every non-exhaustive run still covers: empty,
/// all-to-all, the four hotspot columns, the diagonal, and the shadowed
/// pair that exposes stuck iSLIP pointers.
fn corner_matrices() -> Vec<[u16; NPORTS]> {
    let mut v: Vec<[u16; NPORTS]> = vec![
        [0; NPORTS],
        [0xf; NPORTS],
        std::array::from_fn(|i| 1u16 << ((i + 1) % NPORTS)),
        [0b0001, 0b0001, 0, 0], // inputs 0 and 1 both want output 0 only
    ];
    for dst in 0..NPORTS {
        v.push([1u16 << dst; NPORTS]);
    }
    v
}

/// RV801 over one matching: validity, then (for valid matchings)
/// routability against the token-0 shortest-first walk.
fn check_matching(
    name: &str,
    requests: &[u16; NPORTS],
    matching: &[Option<u8>],
    diags: &mut Vec<Diag>,
) {
    if !matching_is_valid(requests, matching) {
        diags.push(Diag::new(
            "RV801",
            Analysis::SchedMatching,
            name,
            format!("invalid matching {matching:?} for requests {requests:?} (port conflict or unrequested grant)"),
        ));
        return;
    }
    let bids: [Bid; NPORTS] = std::array::from_fn(|i| match matching.get(i).copied().flatten() {
        Some(d) => Bid::unicast(d),
        None => Bid::EMPTY,
    });
    let s = schedule(bids, 0);
    for i in 0..NPORTS {
        if s.granted[i] != matching[i].is_some() {
            diags.push(Diag::new(
                "RV801",
                Analysis::SchedMatching,
                name,
                format!("matching {matching:?} not ring-routable at input {i}"),
            ));
        }
    }
}

/// RV803: assert the declared crosspoint bound after one slot.
fn check_occupancy(name: &str, s: &dyn Scheduler, peak: &mut u64, diags: &mut Vec<Diag>) {
    let Some((occ, cap)) = s.occupancy() else {
        return;
    };
    for (idx, &o) in occ.iter().enumerate() {
        *peak = (*peak).max(u64::from(o));
        if o > cap {
            diags.push(Diag::new(
                "RV803",
                Analysis::SchedOccupancy,
                name,
                format!(
                    "crosspoint ({},{}) holds {o} cells, capacity {cap}",
                    idx / NPORTS,
                    idx % NPORTS
                ),
            ));
            return; // first violating transition is enough
        }
    }
}

/// Verify one arbiter built by `build` (fresh instances per phase, so a
/// mutant's damage in one phase cannot mask another).
pub fn verify_arbiter(
    build: &dyn Fn() -> Box<dyn Scheduler>,
    opts: &SchedVerifyOptions,
) -> SchedVerdict {
    let mut diags = Vec::new();
    let probe = build();
    let name = probe.name().to_string();
    let mut matchings = 0u64;
    let mut trace_slots = 0u64;
    let mut worst_wait = 0u64;
    let mut occupancy_peak = 0u64;

    // --- RV801, one-shot: fresh state over the request space. ---
    let space = 1u32 << (4 * NPORTS as u32);
    let one_shot: Box<dyn Iterator<Item = u32>> = if opts.exhaustive {
        Box::new(0..space)
    } else {
        Box::new((0..space).step_by(97))
    };
    let mut s = build();
    for x in one_shot {
        let reqs = matrix_from_index(x);
        s.reset();
        let m = s.arbitrate(&reqs);
        matchings += 1;
        check_matching(&name, &reqs, &m, &mut diags);
        if diags.len() > 8 {
            break; // a broken arbiter fails everywhere; don't flood
        }
    }

    // --- RV801, stateful: a long deterministic xorshift trace. ---
    let mut s = build();
    let mut x = 0x9e37_79b9u32;
    for _ in 0..opts.trace_slots * 64 {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let reqs = matrix_from_index(x);
        let m = s.arbitrate(&reqs);
        matchings += 1;
        check_matching(&name, &reqs, &m, &mut diags);
        check_occupancy(&name, s.as_ref(), &mut occupancy_peak, &mut diags);
        if diags.len() > 8 {
            break;
        }
    }

    // --- RV802 + RV803: persistent demand, every (or sampled) matrix. ---
    let matrices: Box<dyn Iterator<Item = u32>> = if opts.exhaustive {
        Box::new(0..space)
    } else {
        Box::new((0..space).step_by(211))
    };
    struct TraceState {
        trace_slots: u64,
        worst_wait: u64,
        occupancy_peak: u64,
        starved: bool,
    }
    fn run_matrix(
        build: &dyn Fn() -> Box<dyn Scheduler>,
        name: &str,
        reqs: [u16; NPORTS],
        slots: u64,
        st: &mut TraceState,
        diags: &mut Vec<Diag>,
    ) {
        let mut s = build();
        let mut waits = [0u64; NPORTS];
        for _ in 0..slots {
            let m = s.arbitrate(&reqs);
            st.trace_slots += 1;
            check_occupancy(name, s.as_ref(), &mut st.occupancy_peak, diags);
            for i in 0..NPORTS {
                if reqs[i] == 0 || m[i].is_some() {
                    waits[i] = 0;
                    continue;
                }
                waits[i] += 1;
                st.worst_wait = st.worst_wait.max(waits[i]);
                if waits[i] > WAIT_BOUND && !st.starved {
                    st.starved = true;
                    diags.push(Diag::new(
                        "RV802",
                        Analysis::SchedStarvation,
                        name,
                        format!(
                            "input {i} unserved for {} slots under persistent requests {reqs:?} \
                             (bound {WAIT_BOUND})",
                            waits[i]
                        ),
                    ));
                }
            }
        }
    }
    let mut st = TraceState {
        trace_slots: 0,
        worst_wait: 0,
        occupancy_peak,
        starved: false,
    };
    for m in corner_matrices() {
        run_matrix(build, &name, m, opts.trace_slots, &mut st, &mut diags);
    }
    for x in matrices {
        if st.starved || diags.len() > 8 {
            break;
        }
        run_matrix(
            build,
            &name,
            matrix_from_index(x),
            opts.trace_slots,
            &mut st,
            &mut diags,
        );
    }
    trace_slots += st.trace_slots;
    worst_wait = worst_wait.max(st.worst_wait);
    occupancy_peak = st.occupancy_peak;

    SchedVerdict {
        name,
        diags,
        matchings_checked: matchings,
        trace_slots,
        worst_wait,
        occupancy_peak,
    }
}

/// Verify the three shipped arbiters at their reference parameters.
pub fn sched_verdicts(opts: &SchedVerifyOptions) -> Vec<SchedVerdict> {
    raw_sched::SchedKind::all()
        .iter()
        .map(|kind| verify_arbiter(&|| kind.build(NPORTS), opts))
        .collect()
}

/// Fold per-arbiter verdicts into the three RV8xx report rows
/// `repro -- verify` appends to `results/verify.json`.
pub fn sched_reports(verdicts: &[SchedVerdict]) -> Vec<AnalysisReport> {
    let count = |prefix: &str| {
        verdicts
            .iter()
            .flat_map(|v| &v.diags)
            .filter(|d| d.code.starts_with(prefix))
            .count()
    };
    let matchings: u64 = verdicts.iter().map(|v| v.matchings_checked).sum();
    let slots: u64 = verdicts.iter().map(|v| v.trace_slots).sum();
    let worst: u64 = verdicts.iter().map(|v| v.worst_wait).max().unwrap_or(0);
    let peak: u64 = verdicts.iter().map(|v| v.occupancy_peak).max().unwrap_or(0);
    let names: Vec<&str> = verdicts.iter().map(|v| v.name.as_str()).collect();
    vec![
        AnalysisReport {
            name: "sched-matching",
            code_prefix: "RV801",
            pass: count("RV801") == 0,
            checked: matchings,
            detail: format!(
                "matchings from {names:?} checked for validity and token-0 ring routability"
            ),
        },
        AnalysisReport {
            name: "sched-starvation",
            code_prefix: "RV802",
            pass: count("RV802") == 0,
            checked: slots,
            detail: format!(
                "persistent-demand traces over {names:?}; worst service wait {worst} \
                 (bound {WAIT_BOUND})"
            ),
        },
        AnalysisReport {
            name: "sched-occupancy",
            code_prefix: "RV803",
            pass: count("RV803") == 0,
            checked: slots,
            detail: format!("crosspoint bound asserted per slot; peak occupancy {peak}"),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> SchedVerifyOptions {
        SchedVerifyOptions {
            exhaustive: false,
            trace_slots: 48,
        }
    }

    #[test]
    fn shipped_arbiters_pass_all_rv8_analyses() {
        let verdicts = sched_verdicts(&fast());
        assert_eq!(verdicts.len(), 3);
        for v in &verdicts {
            assert!(v.diags.is_empty(), "{}: {:?}", v.name, v.diags);
            assert!(v.matchings_checked > 0);
            assert!(v.worst_wait <= WAIT_BOUND, "{}", v.name);
        }
        // The crosspoint-queued arbiter exercises its buffers without
        // ever exceeding them.
        let cq = verdicts.iter().find(|v| v.name == "cq").unwrap();
        assert!(cq.occupancy_peak > 0 && cq.occupancy_peak <= 4);
        for r in sched_reports(&verdicts) {
            assert!(r.pass, "{}: {}", r.name, r.detail);
            assert!(r.checked > 0);
        }
    }
}
