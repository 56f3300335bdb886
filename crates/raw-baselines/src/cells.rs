//! Fixed-size cells versus variable-length packets across a switched
//! backplane (§2.2.2).
//!
//! "It is shown that using fixed length packets ('cells') allows up to
//! 100% of the switch bandwidth to be used … If variable length packets
//! are used, the system throughput is limited to approximately 60%."
//! The mechanism: with cells, "the timing of the switch fabric is just a
//! sequence of fixed size time slots" and the scheduler re-matches every
//! slot. With variable-length packets the scheduler "must do a lot of
//! bookkeeping to keep track of available and unavailable outputs"; the
//! hardware-simple alternative the text describes re-arbitrates only
//! when the current transfers complete, so every arbitration round lasts
//! as long as its **longest** packet and shorter transfers strand
//! bandwidth on their ports.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Transfer granularity across the backplane.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Granularity {
    /// Segment packets into cells, reassemble at output (re-match every
    /// slot).
    Cells,
    /// Transfer whole variable-length packets non-preemptively.
    Packets,
}

/// Packet-length distribution in cells.
#[derive(Clone, Copy, Debug)]
pub enum LengthDist {
    /// The classic bimodal Internet mix: mostly minimum-size with a tail
    /// of full-size packets. `(p_small_mille, small, large)`.
    Bimodal {
        p_small_mille: u32,
        small: u32,
        large: u32,
    },
    /// Uniform in `[min, max]` cells.
    UniformLen { min: u32, max: u32 },
}

impl LengthDist {
    fn sample(&self, rng: &mut StdRng) -> u32 {
        match *self {
            LengthDist::Bimodal {
                p_small_mille,
                small,
                large,
            } => {
                if rng.gen_range(0..1000) < p_small_mille {
                    small
                } else {
                    large
                }
            }
            LengthDist::UniformLen { min, max } => rng.gen_range(min..=max),
        }
    }
}

struct Pkt {
    cells: u32,
}

enum Mode {
    /// Cells: re-match every slot.
    PerSlot,
    /// Variable packets: a matched round runs until its longest transfer
    /// completes, then the scheduler re-arbitrates.
    Batch { remaining: Vec<Option<u32>> },
}

/// The backplane simulator: VOQ inputs, greedy round-robin matching, and
/// either per-slot (cells) or per-packet (variable) connection holding.
pub struct BackplaneSim {
    n: usize,
    dist: LengthDist,
    rng: StdRng,
    /// Per (input, output) packet queues.
    voq: Vec<Vec<VecDeque<Pkt>>>,
    mode: Mode,
    rr: usize,
    pub slots: u64,
    pub cells_moved: u64,
    pub packets_moved: u64,
    pub offered_cells: u64,
}

impl BackplaneSim {
    pub fn new(n: usize, gran: Granularity, dist: LengthDist, seed: u64) -> BackplaneSim {
        BackplaneSim {
            n,
            dist,
            rng: StdRng::seed_from_u64(seed),
            voq: (0..n)
                .map(|_| (0..n).map(|_| VecDeque::new()).collect())
                .collect(),
            mode: match gran {
                Granularity::Cells => Mode::PerSlot,
                Granularity::Packets => Mode::Batch {
                    remaining: vec![None; n],
                },
            },
            rr: 0,
            slots: 0,
            cells_moved: 0,
            packets_moved: 0,
            offered_cells: 0,
        }
    }

    /// Keep every VOQ backlogged (saturation study).
    fn saturate(&mut self) {
        for i in 0..self.n {
            for d in 0..self.n {
                while self.voq[i][d].len() < 2 {
                    let cells = self.dist.sample(&mut self.rng);
                    self.offered_cells += cells as u64;
                    self.voq[i][d].push_back(Pkt { cells });
                }
            }
        }
    }

    /// A greedy round-robin matching of inputs to outputs over nonempty
    /// VOQs. Returns `matched[input] = Some(output)`.
    fn greedy_match(&mut self) -> Vec<Option<usize>> {
        let n = self.n;
        let start = self.rr;
        self.rr = (self.rr + 1) % n;
        let mut out_taken = vec![false; n];
        let mut m = vec![None; n];
        for k in 0..n {
            let i = (start + k) % n;
            let off = (start + k) % n;
            if let Some(d) = (0..n)
                .map(|j| (off + j) % n)
                .find(|&d| !out_taken[d] && !self.voq[i][d].is_empty())
            {
                out_taken[d] = true;
                m[i] = Some(d);
            }
        }
        m
    }

    fn step(&mut self) {
        self.saturate();
        let n = self.n;
        match &mut self.mode {
            Mode::PerSlot => {
                // Cells: fresh maximal matching each slot, one cell per
                // matched pair.
                let m = self.greedy_match();
                #[allow(clippy::needless_range_loop)]
                for i in 0..n {
                    if let Some(d) = m[i] {
                        let pkt = self.voq[i][d].front_mut().expect("nonempty");
                        pkt.cells -= 1;
                        self.cells_moved += 1;
                        if pkt.cells == 0 {
                            self.voq[i][d].pop_front();
                            self.packets_moved += 1;
                        }
                    }
                }
            }
            Mode::Batch { remaining } => {
                // Re-arbitrate only when every transfer of the previous
                // round has completed (the bookkeeping-free hardware of
                // §2.2.2); the round then lasts as long as its longest
                // packet.
                if remaining.iter().all(Option::is_none) {
                    let m = self.greedy_match();
                    let Mode::Batch { remaining } = &mut self.mode else {
                        unreachable!()
                    };
                    for i in 0..n {
                        if let Some(d) = m[i] {
                            let p = self.voq[i][d].pop_front().expect("nonempty");
                            remaining[i] = Some(p.cells);
                            self.packets_moved += 1;
                        }
                    }
                }
                let Mode::Batch { remaining } = &mut self.mode else {
                    unreachable!()
                };
                for r in remaining.iter_mut() {
                    if let Some(left) = r {
                        *left -= 1;
                        self.cells_moved += 1;
                        if *left == 0 {
                            *r = None;
                        }
                    }
                }
            }
        }
        self.slots += 1;
    }

    /// Saturation throughput: cells delivered per output per slot.
    pub fn run(&mut self, slots: u64) -> f64 {
        for _ in 0..slots {
            self.step();
        }
        self.cells_moved as f64 / (self.slots as f64 * self.n as f64)
    }
}

/// The Internet-like bimodal mix used in the §2.2.2 study: 40 % one-cell
/// (64 B) packets, 60 % 24-cell (1,500 B) packets by count (roughly the
/// byte-weighted mix of a trunk link). Under batch arbitration this mix
/// yields the paper's "approximately 60 %" usable bandwidth:
/// `E[len] / E[max len among N] = 14.8 / ~24`.
pub fn internet_mix() -> LengthDist {
    LengthDist::Bimodal {
        p_small_mille: 400,
        small: 1,
        large: 24,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_reach_near_full_bandwidth() {
        let mut sim = BackplaneSim::new(8, Granularity::Cells, internet_mix(), 1);
        let t = sim.run(30_000);
        assert!(t > 0.95, "cell-mode saturation {t:.3}");
    }

    #[test]
    fn variable_packets_strand_bandwidth() {
        let mut sim = BackplaneSim::new(8, Granularity::Packets, internet_mix(), 1);
        let t = sim.run(30_000);
        assert!(
            (0.50..=0.72).contains(&t),
            "packet-mode saturation {t:.3}, expected ≈0.6"
        );
    }

    #[test]
    fn the_papers_claim_holds() {
        // "up to 100% … limited to approximately 60%": the ratio must be
        // substantial.
        let c = BackplaneSim::new(8, Granularity::Cells, internet_mix(), 2).run(30_000);
        let p = BackplaneSim::new(8, Granularity::Packets, internet_mix(), 2).run(30_000);
        assert!(c - p > 0.2, "cells {c:.3} vs packets {p:.3}");
    }

    #[test]
    fn uniform_lengths_also_lose_with_holding() {
        let d = LengthDist::UniformLen { min: 1, max: 16 };
        let c = BackplaneSim::new(8, Granularity::Cells, d, 3).run(20_000);
        let p = BackplaneSim::new(8, Granularity::Packets, d, 3).run(20_000);
        assert!(c > p, "cells {c:.3} must beat packets {p:.3}");
    }

    #[test]
    fn single_port_degenerate_case() {
        // With one port there is no mismatch to strand bandwidth.
        let d = LengthDist::UniformLen { min: 1, max: 8 };
        let p = BackplaneSim::new(1, Granularity::Packets, d, 4).run(5_000);
        assert!(p > 0.99, "single port must be work-conserving: {p:.3}");
    }

    #[test]
    fn length_distribution_sampling_and_mean() {
        let d = internet_mix();
        let mut rng = StdRng::seed_from_u64(5);
        let draws: Vec<u32> = (0..1000).map(|_| d.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&l| l == 1 || l == 24));
        let mean = draws.iter().sum::<u32>() as f64 / 1000.0;
        assert!((mean - (0.4 + 0.6 * 24.0)).abs() < 1.5, "{mean}");
    }
}
