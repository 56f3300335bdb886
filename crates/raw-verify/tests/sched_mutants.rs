//! The RV8xx negative battery: deliberately broken arbiters, each
//! violating exactly one scheduler contract, and the verifier must
//! reject each with the matching code:
//!
//! - [`ConflictArb`] → `RV801`: grants one output to several inputs
//!   (every requesting input takes its lowest requested output with no
//!   uniqueness check — the classic forgotten-arbiter bug).
//! - [`StuckPointerArb`] → `RV802`: iSLIP whose pointers never advance;
//!   under persistent demand the fixed priority starves every pair
//!   shadowed by a lower-numbered competitor.
//! - [`UnboundedCqArb`] → `RV803`: a crosspoint-queued arbiter whose
//!   ingest ignores the buffer capacity; a hotspot column grows its
//!   losing crosspoints without bound.
//!
//! The arbiters live here, with the tests that use them, and not in
//! `raw-sched`'s library.

use raw_sched::{matching_is_valid, Matching, Scheduler};
use raw_verify::sched::{sched_reports, verify_arbiter, SchedVerifyOptions};
use raw_xbar::NPORTS;

/// Grants every requesting input its lowest requested output — no
/// output-uniqueness, so any shared destination produces a port
/// conflict (two inputs driving one crossbar output).
struct ConflictArb {
    n: usize,
}

impl ConflictArb {
    fn new(n: usize) -> ConflictArb {
        ConflictArb { n }
    }
}

impl Scheduler for ConflictArb {
    fn name(&self) -> &'static str {
        "mutant-conflict"
    }

    fn ports(&self) -> usize {
        self.n
    }

    fn arbitrate(&mut self, requests: &[u16]) -> Matching {
        requests
            .iter()
            .map(|&r| {
                if r == 0 {
                    None
                } else {
                    Some(r.trailing_zeros() as u8)
                }
            })
            .collect()
    }

    fn reset(&mut self) {}
}

/// iSLIP with frozen pointers: grant and accept always scan from port
/// 0. Input 0 monopolizes every output it requests; persistent
/// lower-priority pairs are never served.
struct StuckPointerArb {
    n: usize,
    iters: u32,
}

impl StuckPointerArb {
    fn new(n: usize, iters: u32) -> StuckPointerArb {
        StuckPointerArb { n, iters }
    }
}

impl Scheduler for StuckPointerArb {
    fn name(&self) -> &'static str {
        "mutant-stuck-pointer"
    }

    fn ports(&self) -> usize {
        self.n
    }

    fn arbitrate(&mut self, requests: &[u16]) -> Matching {
        let n = self.n;
        let mut in_match: Matching = vec![None; n];
        let mut out_matched = vec![false; n];
        for _ in 0..self.iters {
            let mut progress = false;
            // Grant: each unmatched output takes the lowest unmatched
            // requesting input (pointer stuck at 0); accept: the lowest
            // granting output (likewise stuck).
            let mut grants: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (j, g) in grants.iter_mut().enumerate() {
                if out_matched[j] {
                    continue;
                }
                if let Some(i) =
                    (0..n).find(|&i| in_match[i].is_none() && requests[i] & (1 << j) != 0)
                {
                    g.push(i);
                }
            }
            for (j, g) in grants.iter().enumerate() {
                let Some(&i) = g.first() else { continue };
                if in_match[i].is_none() {
                    in_match[i] = Some(j as u8);
                    out_matched[j] = true;
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        in_match
    }

    fn reset(&mut self) {}
}

/// Crosspoint-queued with no capacity guard on ingest. Reports the
/// capacity it *should* honor via [`Scheduler::occupancy`], so the
/// RV803 bound check sees the overflow.
struct UnboundedCqArb {
    n: usize,
    claimed_cap: u32,
    occ: Vec<u32>,
    in_rr: Vec<usize>,
    out_rr: Vec<usize>,
    drain_start: usize,
}

impl UnboundedCqArb {
    fn new(n: usize, claimed_cap: u32) -> UnboundedCqArb {
        UnboundedCqArb {
            n,
            claimed_cap,
            occ: vec![0; n * n],
            in_rr: vec![0; n],
            out_rr: vec![0; n],
            drain_start: 0,
        }
    }
}

impl Scheduler for UnboundedCqArb {
    fn name(&self) -> &'static str {
        "mutant-unbounded-cq"
    }

    fn ports(&self) -> usize {
        self.n
    }

    fn arbitrate(&mut self, requests: &[u16]) -> Matching {
        let n = self.n;
        for (i, &req) in requests.iter().enumerate() {
            for j in 0..n {
                if req & (1 << j) == 0 {
                    self.occ[i * n + j] = 0;
                }
            }
        }
        // Ingest without the `occ < cap` guard — the seeded bug.
        for (i, &req) in requests.iter().enumerate() {
            for k in 0..n {
                let j = (self.in_rr[i] + k) % n;
                if req & (1 << j) != 0 {
                    self.occ[i * n + j] += 1;
                    self.in_rr[i] = (j + 1) % n;
                    break;
                }
            }
        }
        let mut matching = vec![None; n];
        let mut in_used = vec![false; n];
        for k in 0..n {
            let j = (self.drain_start + k) % n;
            for l in 0..n {
                let i = (self.out_rr[j] + l) % n;
                if self.occ[i * n + j] > 0 && !in_used[i] {
                    self.occ[i * n + j] -= 1;
                    self.out_rr[j] = (i + 1) % n;
                    in_used[i] = true;
                    matching[i] = Some(j as u8);
                    break;
                }
            }
        }
        self.drain_start = (self.drain_start + 1) % n;
        matching
    }

    fn reset(&mut self) {
        self.occ.iter_mut().for_each(|o| *o = 0);
        self.in_rr.iter_mut().for_each(|p| *p = 0);
        self.out_rr.iter_mut().for_each(|p| *p = 0);
        self.drain_start = 0;
    }

    fn occupancy(&self) -> Option<(&[u32], u32)> {
        Some((&self.occ, self.claimed_cap))
    }
}

fn fast() -> SchedVerifyOptions {
    SchedVerifyOptions {
        exhaustive: false,
        trace_slots: 48,
    }
}

// ---------------------------------------------------------------------
// Each mutant breaks its contract when driven directly.
// ---------------------------------------------------------------------

#[test]
fn conflict_mutant_produces_an_invalid_matching() {
    let mut s = ConflictArb::new(4);
    let reqs = vec![1u16, 1, 0, 0]; // both want output 0
    let m = s.arbitrate(&reqs);
    assert!(!matching_is_valid(&reqs, &m));
}

#[test]
fn stuck_pointer_mutant_starves_a_shadowed_pair() {
    let mut s = StuckPointerArb::new(4, 4);
    // Inputs 0 and 1 both persistently request output 0 only.
    let reqs = vec![1u16, 1, 0, 0];
    for _ in 0..32 {
        let m = s.arbitrate(&reqs);
        assert!(matching_is_valid(&reqs, &m), "conflict-free, just unfair");
        assert_eq!(m[0], Some(0), "the frozen pointer always picks input 0");
        assert_eq!(m[1], None, "input 1 starves");
    }
}

#[test]
fn unbounded_mutant_overflows_its_claimed_capacity() {
    let mut s = UnboundedCqArb::new(4, 2);
    let reqs = vec![1u16; 4]; // hotspot column 0
    for _ in 0..16 {
        s.arbitrate(&reqs);
    }
    let (occ, cap) = s.occupancy().unwrap();
    assert!(occ.iter().any(|&o| o > cap), "ingest must have overflowed");
}

// ---------------------------------------------------------------------
// The verifier rejects each mutant with its specific code — and no
// other.
// ---------------------------------------------------------------------

#[test]
fn conflict_mutant_is_rejected_with_rv801() {
    let v = verify_arbiter(&|| Box::new(ConflictArb::new(NPORTS)), &fast());
    assert!(v.diags.iter().any(|d| d.code == "RV801"), "{:?}", v.diags);
    assert!(v.diags.iter().all(|d| d.code == "RV801"), "{:?}", v.diags);
    let reports = sched_reports(&[v]);
    assert!(!reports[0].pass && reports[1].pass && reports[2].pass);
}

#[test]
fn stuck_pointer_mutant_is_rejected_with_rv802() {
    let v = verify_arbiter(&|| Box::new(StuckPointerArb::new(NPORTS, 4)), &fast());
    assert!(v.diags.iter().any(|d| d.code == "RV802"), "{:?}", v.diags);
    assert!(v.diags.iter().all(|d| d.code == "RV802"), "{:?}", v.diags);
    // The starving scenario is named in the diagnostic.
    let d = v.diags.iter().find(|d| d.code == "RV802").unwrap();
    assert!(d.msg.contains("unserved"), "{}", d.msg);
}

#[test]
fn unbounded_crosspoint_mutant_is_rejected_with_rv803() {
    let v = verify_arbiter(&|| Box::new(UnboundedCqArb::new(NPORTS, 4)), &fast());
    assert!(v.diags.iter().any(|d| d.code == "RV803"), "{:?}", v.diags);
    assert!(
        v.diags.iter().all(|d| d.code != "RV801"),
        "the unbounded mutant's matchings are valid; only the bound breaks: {:?}",
        v.diags
    );
    assert!(v.occupancy_peak > 4);
}
