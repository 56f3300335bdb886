//! iSLIP — the Tiny Tera's iterative request/grant/accept matcher.
//!
//! Per slot, up to `iters` iterations run over the *unmatched* ports:
//!
//! 1. **Request** — every unmatched input requests every unmatched
//!    output it has traffic for.
//! 2. **Grant** — every requested output grants the first requesting
//!    input at or after its grant pointer.
//! 3. **Accept** — every granted input accepts the first granting
//!    output at or after its accept pointer; the pair leaves the pool.
//!
//! Pointers advance only on *first-iteration* accepts
//! (`grant_ptr[out] = in+1`, `accept_ptr[in] = out+1`): that is the
//! "slip" that desynchronizes the output pointers under load, turning
//! the matcher into a time-division round-robin with 100% throughput on
//! uniform traffic and bounded service intervals for every
//! persistently-backlogged pair (the RV802 analysis proves the bound
//! exhaustively for 4 ports).
//!
//! This is the only iSLIP in the workspace: the cell-level crossbar model
//! behind the §2.2.2 claims (`raw_baselines::fabric::CrossbarSim`)
//! arbitrates through it too.

use crate::{Matching, Scheduler};

pub struct IslipArb {
    n: usize,
    iters: u32,
    grant_ptr: Vec<usize>,
    accept_ptr: Vec<usize>,
    last_iters: u32,
}

impl IslipArb {
    pub fn new(n: usize, iters: u32) -> IslipArb {
        assert!((2..=16).contains(&n), "port count {n} out of range");
        assert!(iters >= 1, "at least one iteration");
        IslipArb {
            n,
            iters,
            grant_ptr: vec![0; n],
            accept_ptr: vec![0; n],
            last_iters: 0,
        }
    }

    /// Pointer snapshot `(grant, accept)` for the verifier's
    /// pointer-advance check.
    pub fn pointers(&self) -> (&[usize], &[usize]) {
        (&self.grant_ptr, &self.accept_ptr)
    }
}

impl Scheduler for IslipArb {
    fn name(&self) -> &'static str {
        "islip"
    }

    fn ports(&self) -> usize {
        self.n
    }

    fn arbitrate(&mut self, requests: &[u16]) -> Matching {
        assert_eq!(requests.len(), self.n);
        let n = self.n;
        let mut in_match: Matching = vec![None; n];
        let mut out_matched = vec![false; n];
        self.last_iters = 0;
        for iter in 0..self.iters {
            // 1. Request: unmatched inputs over unmatched outputs.
            let mut reqs: Vec<Vec<usize>> = vec![Vec::new(); n]; // per output
            let mut any = false;
            for i in 0..n {
                if in_match[i].is_some() {
                    continue;
                }
                for (j, r) in reqs.iter_mut().enumerate() {
                    if !out_matched[j] && requests[i] & (1 << j) != 0 {
                        r.push(i);
                        any = true;
                    }
                }
            }
            if !any {
                break;
            }
            self.last_iters += 1;
            // 2. Grant: first requesting input at/after the pointer.
            let mut grants: Vec<Vec<usize>> = vec![Vec::new(); n]; // per input
            for (j, r) in reqs.iter().enumerate() {
                if r.is_empty() {
                    continue;
                }
                let g = (0..n)
                    .map(|k| (self.grant_ptr[j] + k) % n)
                    .find(|i| r.contains(i))
                    .expect("some request exists");
                grants[g].push(j);
            }
            // 3. Accept: first granting output at/after the pointer.
            for (i, g) in grants.iter().enumerate() {
                if g.is_empty() {
                    continue;
                }
                let j = (0..n)
                    .map(|k| (self.accept_ptr[i] + k) % n)
                    .find(|j| g.contains(j))
                    .expect("some grant exists");
                in_match[i] = Some(j as u8);
                out_matched[j] = true;
                if iter == 0 {
                    // Pointers advance only for first-iteration matches.
                    self.grant_ptr[j] = (i + 1) % n;
                    self.accept_ptr[i] = (j + 1) % n;
                }
            }
        }
        in_match
    }

    fn last_iterations(&self) -> u32 {
        self.last_iters.max(1)
    }

    fn reset(&mut self) {
        self.grant_ptr.iter_mut().for_each(|p| *p = 0);
        self.accept_ptr.iter_mut().for_each(|p| *p = 0);
        self.last_iters = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{matching_is_valid, matching_size};

    #[test]
    fn saturated_uniform_demand_converges_to_perfect_matchings() {
        let mut s = IslipArb::new(4, 4);
        let reqs = vec![0b1111u16; 4];
        for _ in 0..8 {
            s.arbitrate(&reqs); // desynchronize the pointers
        }
        for _ in 0..16 {
            let m = s.arbitrate(&reqs);
            assert!(matching_is_valid(&reqs, &m));
            assert_eq!(matching_size(&m), 4, "saturated iSLIP must match all");
            // Once desynchronized, one iteration suffices (the TDM
            // steady state the Tiny Tera analysis predicts).
            assert_eq!(s.last_iterations(), 1);
        }
    }

    #[test]
    fn iterations_help_within_a_single_slot() {
        // A request pattern where one iteration strands an input: inputs
        // 0 and 1 both want output 0 (and 1), input 2 wants 0 only.
        let reqs = vec![0b0011u16, 0b0011, 0b0001, 0];
        let m1 = {
            let mut s = IslipArb::new(4, 1);
            s.arbitrate(&reqs)
        };
        let m4 = {
            let mut s = IslipArb::new(4, 4);
            s.arbitrate(&reqs)
        };
        assert!(matching_size(&m4) >= matching_size(&m1));
        assert_eq!(matching_size(&m4), 2, "four iterations fill the matching");
    }

    #[test]
    fn pointer_update_only_on_first_iteration() {
        let mut s = IslipArb::new(4, 4);
        // Slot 1: all want output 0. First-iteration accept advances
        // grant_ptr[0] past the winner.
        let reqs = vec![1u16, 1, 1, 1];
        let m = s.arbitrate(&reqs);
        assert_eq!(m[0], Some(0), "pointer at 0 grants input 0 first");
        let (gp, ap) = s.pointers();
        assert_eq!(gp[0], 1, "grant pointer slipped past input 0");
        assert_eq!(ap[0], 1, "accept pointer slipped past output 0");
        // Other pointers untouched.
        assert!(gp[1..].iter().all(|&p| p == 0));
    }
}
