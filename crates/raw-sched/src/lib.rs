//! # raw-sched — the switch-scheduling laboratory
//!
//! The paper's Rotating Crossbar (§5) is one point in the switch-
//! scheduling design space: a synchronous token walk over the ports'
//! head-of-line bids. This crate abstracts the per-quantum arbitration
//! step — occupancy in, crossbar matching out — so alternative
//! schedulers run on the *same* static network with identical ingest
//! and egress paths, differing only in how the four Crossbar Processors
//! turn the exchanged bid words into a grant set.
//!
//! Three schedulers share the [`Scheduler`] trait:
//!
//! - [`TokenArb`] — the paper's rotating token, lifted from the
//!   `raw_xbar::config::schedule` walk to the matching level: the token
//!   holder is served first, then the remaining inputs in ring order,
//!   each taking its first still-free requested output.
//! - [`IslipArb`] — the iSLIP iterative matcher of the Tiny Tera: per-
//!   output grant pointers and per-input accept pointers, multiple
//!   request/grant/accept iterations per slot, pointers advancing only
//!   on first-iteration accepts (the "slip" that desynchronizes the
//!   pointers and yields 100% throughput under uniform traffic). The
//!   cell-level model `raw_baselines::fabric::CrossbarSim` arbitrates
//!   through it too.
//! - [`CqArb`] — a crosspoint-queued crossbar in the FlexCross mould:
//!   a small buffer at every input×output crosspoint decouples input
//!   and output contention; inputs spray cells into crosspoint buffers
//!   round-robin, outputs drain their column round-robin. The buffers
//!   here are *virtual* (occupancy counters mirroring the real VOQ
//!   state), which keeps the scheduler deployable on the Raw fabric
//!   where payloads stream ingress→egress without an intermediate copy.
//!
//! All schedulers support runtime port counts (the differential tests
//! run them at 16 ports; the Raw router instantiates them at 4) and are
//! fully deterministic: the four Crossbar Processors replicate one
//! scheduler instance each and feed it identical bid vectors, so their
//! matchings agree without exchanging any state beyond the §5.1 header
//! all-to-all — exactly how the paper's token counter is replicated.

pub mod cq;
pub mod islip;
pub mod token;

pub use cq::CqArb;
pub use islip::IslipArb;
pub use token::TokenArb;

/// A crossbar matching: `matching[i] = Some(j)` connects input `i` to
/// output `j` for one quantum. Distinct inputs must map to distinct
/// outputs, and every connection must have been requested (see
/// [`matching_is_valid`]).
pub type Matching = Vec<Option<u8>>;

/// Per-slot crossbar arbitration: occupancy in, matching out.
///
/// `requests[i]` is the bitmask of outputs input `i` has traffic for
/// (bit `j` set ⇔ input `i`'s virtual output queue `j` is non-empty).
/// One call is one routing quantum; the scheduler owns whatever state
/// persists across slots (token position, pointers, crosspoint
/// occupancy).
pub trait Scheduler: Send {
    /// Stable scheduler name (report keys, bench labels).
    fn name(&self) -> &'static str;

    /// Port count this instance was built for.
    fn ports(&self) -> usize;

    /// Arbitrate one slot. Implementations must return a matching that
    /// satisfies [`matching_is_valid`] for the given requests; the
    /// RV801 analysis enforces this over the full request space.
    fn arbitrate(&mut self, requests: &[u16]) -> Matching;

    /// Iterations the last [`Scheduler::arbitrate`] call used (1 for
    /// single-pass arbiters). The crossbar charges its index-compute
    /// phase proportionally, and the iSLIP differential test compares
    /// this against the `raw-baselines` cost model.
    fn last_iterations(&self) -> u32 {
        1
    }

    /// Restore the power-on state (token at 0, pointers at 0, empty
    /// crosspoint buffers).
    fn reset(&mut self);

    /// Crosspoint-buffer occupancy (row-major `ports*ports`) and its
    /// per-crosspoint capacity, for buffered schedulers. `None` for
    /// bufferless ones. The RV803 analysis asserts the bound along
    /// every trace it drives.
    fn occupancy(&self) -> Option<(&[u32], u32)> {
        None
    }
}

/// Selectable arbitration policy for the router (and anything else that
/// builds schedulers by name).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedKind {
    /// The paper's rotating token (§5.1).
    #[default]
    Token,
    /// iSLIP with `iters` request/grant/accept iterations per slot.
    Islip { iters: u32 },
    /// Crosspoint-queued with `capacity` cells per crosspoint buffer.
    CrosspointQueued { capacity: u32 },
}

impl SchedKind {
    /// Build a fresh scheduler instance for `ports` ports.
    pub fn build(&self, ports: usize) -> Box<dyn Scheduler> {
        match *self {
            SchedKind::Token => Box::new(TokenArb::new(ports)),
            SchedKind::Islip { iters } => Box::new(IslipArb::new(ports, iters)),
            SchedKind::CrosspointQueued { capacity } => Box::new(CqArb::new(ports, capacity)),
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            SchedKind::Token => "token",
            SchedKind::Islip { .. } => "islip",
            SchedKind::CrosspointQueued { .. } => "cq",
        }
    }

    /// True for the paper's token scheduler (the router keeps its
    /// original single-bid wire protocol for it).
    pub fn is_token(&self) -> bool {
        matches!(self, SchedKind::Token)
    }

    /// The three real schedulers at reference parameters, for sweeps.
    pub fn all() -> [SchedKind; 3] {
        [
            SchedKind::Token,
            SchedKind::Islip { iters: 4 },
            SchedKind::CrosspointQueued { capacity: 4 },
        ]
    }
}

/// Check a matching against the requests that produced it: every
/// connection must be requested, and no output may serve two inputs.
pub fn matching_is_valid(requests: &[u16], matching: &[Option<u8>]) -> bool {
    if matching.len() != requests.len() {
        return false;
    }
    let mut used = 0u32;
    for (i, &g) in matching.iter().enumerate() {
        let Some(j) = g else { continue };
        let j = j as usize;
        if j >= requests.len() || requests[i] & (1 << j) == 0 {
            return false; // unrequested grant
        }
        if used & (1 << j) != 0 {
            return false; // output double-granted
        }
        used |= 1 << j;
    }
    true
}

/// Grants in a matching (matched input/output pairs).
pub fn matching_size(matching: &[Option<u8>]) -> usize {
    matching.iter().filter(|m| m.is_some()).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_request_matrices(n: usize) -> impl Iterator<Item = Vec<u16>> {
        let full = 1u32 << n;
        let total = full.pow(n as u32);
        (0..total).map(move |mut x| {
            (0..n)
                .map(|_| {
                    let m = (x % full) as u16;
                    x /= full;
                    m
                })
                .collect()
        })
    }

    #[test]
    fn matching_validity_catches_conflicts_and_phantom_grants() {
        let reqs = vec![0b0001u16, 0b0011, 0b0100, 0b0000];
        assert!(matching_is_valid(&reqs, &[Some(0), Some(1), Some(2), None]));
        // Output 0 granted twice.
        assert!(!matching_is_valid(&reqs, &[Some(0), Some(0), None, None]));
        // Input 3 granted without a request.
        assert!(!matching_is_valid(&reqs, &[None, None, None, Some(3)]));
        // Input 2 granted an output it did not request.
        assert!(!matching_is_valid(&reqs, &[None, None, Some(3), None]));
    }

    #[test]
    fn every_scheduler_is_valid_over_the_exhaustive_one_shot_space() {
        // 4 ports, all 16^4 request matrices, fresh state each: the
        // stateful-trace version of this check is RV801's job.
        for kind in SchedKind::all() {
            let mut s = kind.build(4);
            for reqs in all_request_matrices(4) {
                s.reset();
                let m = s.arbitrate(&reqs);
                assert!(
                    matching_is_valid(&reqs, &m),
                    "{}: invalid matching {m:?} for requests {reqs:?}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn full_diagonal_demand_yields_a_perfect_matching() {
        for kind in SchedKind::all() {
            let mut s = kind.build(4);
            // Permutation demand: input i -> output (i+1)%4 only.
            let reqs: Vec<u16> = (0..4).map(|i| 1u16 << ((i + 1) % 4)).collect();
            // Warm the crosspoint buffers / pointers, then demand a full
            // matching every slot.
            for _ in 0..4 {
                s.arbitrate(&reqs);
            }
            let m = s.arbitrate(&reqs);
            assert_eq!(
                matching_size(&m),
                4,
                "{}: conflict-free demand must be fully granted, got {m:?}",
                kind.name()
            );
        }
    }

    #[test]
    fn schedulers_support_runtime_port_counts() {
        for kind in SchedKind::all() {
            for n in [2usize, 8, 16] {
                let mut s = kind.build(n);
                assert_eq!(s.ports(), n);
                let reqs: Vec<u16> = (0..n).map(|_| ((1u32 << n) - 1) as u16).collect();
                for _ in 0..2 * n {
                    let m = s.arbitrate(&reqs);
                    assert!(matching_is_valid(&reqs, &m));
                }
                // Saturated all-to-all demand: a warmed scheduler must
                // produce a perfect matching.
                let m = s.arbitrate(&reqs);
                assert_eq!(matching_size(&m), n, "{} at n={n}", kind.name());
            }
        }
    }

    #[test]
    fn replicated_instances_stay_in_lockstep() {
        // The four Crossbar Processors each run their own instance over
        // the same bid stream; matchings must agree bit for bit.
        for kind in SchedKind::all() {
            let mut a = kind.build(4);
            let mut b = kind.build(4);
            let mut x = 1u32;
            for _ in 0..500 {
                // xorshift32 request stream
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                let reqs: Vec<u16> = (0..4).map(|i| ((x >> (4 * i)) & 0xf) as u16).collect();
                assert_eq!(a.arbitrate(&reqs), b.arbitrate(&reqs), "{}", kind.name());
            }
        }
    }
}
