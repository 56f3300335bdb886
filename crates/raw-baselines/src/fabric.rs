//! A cell-based input-queued crossbar with FIFO or virtual-output
//! queueing and the iSLIP scheduler — the conventional fabric of §2.2.2
//! (the Cisco 12000 GSR backplane).
//!
//! Reproduces the background claims the Rotating Crossbar is measured
//! against:
//!
//! * FIFO input queues suffer head-of-line blocking, capping saturation
//!   throughput near 58.6 % (2 − √2) for large N;
//! * virtual output queueing plus iSLIP restores ~100 %;
//! * iSLIP's request/grant/accept iterations converge in O(log N).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use raw_sched::{IslipArb, Scheduler};
use std::collections::VecDeque;

/// Input queueing discipline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Queueing {
    /// One FIFO per input; only the head cell can bid (HOL blocking).
    Fifo,
    /// One queue per (input, output) pair (VOQ).
    Voq,
}

/// Fabric configuration.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    pub ports: usize,
    pub queueing: Queueing,
    /// iSLIP iterations per time slot.
    pub islip_iters: u32,
    /// Per-input queue capacity in cells (shared across VOQs).
    pub queue_capacity: usize,
    pub seed: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            ports: 16,
            queueing: Queueing::Voq,
            islip_iters: 4,
            queue_capacity: 10_000,
            seed: 1,
        }
    }
}

/// Results of a run.
#[derive(Clone, Debug, Default)]
pub struct FabricReport {
    pub slots: u64,
    pub offered_cells: u64,
    pub delivered_cells: u64,
    pub dropped_cells: u64,
    /// Sum of (departure - arrival) over delivered cells.
    pub total_delay_slots: u64,
    /// Total iSLIP iterations actually used (for convergence studies).
    pub iterations_used: u64,
    /// Slots in which the matching was maximal for the pending traffic.
    pub matches_made: u64,
}

impl FabricReport {
    /// Delivered cells per port per slot — 1.0 is full line rate.
    pub fn throughput(&self, ports: usize) -> f64 {
        self.delivered_cells as f64 / (self.slots as f64 * ports as f64)
    }

    pub fn mean_delay(&self) -> f64 {
        if self.delivered_cells == 0 {
            0.0
        } else {
            self.total_delay_slots as f64 / self.delivered_cells as f64
        }
    }
}

struct Cell {
    dst: usize,
    arrived: u64,
}

/// The simulator.
pub struct CrossbarSim {
    cfg: FabricConfig,
    /// `queues[input][q]`: FIFO mode uses q=0 only; VOQ uses q=dst.
    queues: Vec<Vec<VecDeque<Cell>>>,
    /// The matcher: the same iSLIP that runs in the Raw router's
    /// scheduler mode.
    islip: IslipArb,
    rng: StdRng,
    pub report: FabricReport,
    slot: u64,
}

impl CrossbarSim {
    /// Panics unless `2 <= ports <= 16`: a request is a `u16` mask over
    /// the outputs.
    pub fn new(cfg: FabricConfig) -> CrossbarSim {
        let n = cfg.ports;
        let qs = match cfg.queueing {
            Queueing::Fifo => 1,
            Queueing::Voq => n,
        };
        CrossbarSim {
            rng: StdRng::seed_from_u64(cfg.seed),
            queues: (0..n)
                .map(|_| (0..qs).map(|_| VecDeque::new()).collect())
                .collect(),
            islip: IslipArb::new(n, cfg.islip_iters),
            cfg,
            report: FabricReport::default(),
            slot: 0,
        }
    }

    fn occupancy(&self, input: usize) -> usize {
        self.queues[input].iter().map(|q| q.len()).sum()
    }

    /// Enqueue an arrival at `input` destined to `dst`.
    pub fn arrive(&mut self, input: usize, dst: usize) {
        self.report.offered_cells += 1;
        if self.occupancy(input) >= self.cfg.queue_capacity {
            self.report.dropped_cells += 1;
            return;
        }
        let q = match self.cfg.queueing {
            Queueing::Fifo => 0,
            Queueing::Voq => dst,
        };
        self.queues[input][q].push_back(Cell {
            dst,
            arrived: self.slot,
        });
    }

    /// The outputs input `i` can bid for this slot, as a bit mask.
    fn requests(&self, i: usize) -> u16 {
        match self.cfg.queueing {
            Queueing::Fifo => self.queues[i][0].front().map_or(0, |c| 1 << c.dst),
            Queueing::Voq => (0..self.cfg.ports)
                .filter(|&d| !self.queues[i][d].is_empty())
                .fold(0, |mask, d| mask | 1 << d),
        }
    }

    /// One slot: Bernoulli arrivals at `load` (cells/port/slot) with
    /// uniform destinations, then iSLIP matching and departures.
    pub fn step_uniform(&mut self, load: f64) {
        let n = self.cfg.ports;
        for i in 0..n {
            if self.rng.gen_bool(load.clamp(0.0, 1.0)) {
                let d = self.rng.gen_range(0..n);
                self.arrive(i, d);
            }
        }
        self.schedule_and_depart();
    }

    /// The iSLIP match for the current queue state (§2.2.2's three-step
    /// request/grant/accept iterations with round-robin pointers updated
    /// after the first iteration only), then departures.
    fn schedule_and_depart(&mut self) {
        let requests: Vec<u16> = (0..self.cfg.ports).map(|i| self.requests(i)).collect();
        let matching = self.islip.arbitrate(&requests);
        if requests.iter().any(|&r| r != 0) {
            self.report.iterations_used += u64::from(self.islip.last_iterations());
        }
        for (i, out) in matching.into_iter().enumerate() {
            let Some(d) = out.map(usize::from) else {
                continue;
            };
            let q = match self.cfg.queueing {
                Queueing::Fifo => 0,
                Queueing::Voq => d,
            };
            let cell = self.queues[i][q].pop_front().expect("matched a real cell");
            debug_assert_eq!(cell.dst, d);
            self.report.delivered_cells += 1;
            self.report.total_delay_slots += self.slot - cell.arrived;
            self.report.matches_made += 1;
        }
        self.slot += 1;
        self.report.slots = self.slot;
    }

    /// Run `slots` of uniform Bernoulli traffic at `load`.
    pub fn run_uniform(&mut self, load: f64, slots: u64) -> &FabricReport {
        for _ in 0..slots {
            self.step_uniform(load);
        }
        &self.report
    }

    /// Total queued cells (diagnostics).
    pub fn backlog(&self) -> usize {
        (0..self.cfg.ports).map(|i| self.occupancy(i)).sum()
    }
}

/// Saturation throughput: run at load 1.0 and report delivered/slot/port.
pub fn saturation_throughput(
    queueing: Queueing,
    ports: usize,
    iters: u32,
    slots: u64,
    seed: u64,
) -> f64 {
    let mut sim = CrossbarSim::new(FabricConfig {
        ports,
        queueing,
        islip_iters: iters,
        seed,
        ..FabricConfig::default()
    });
    sim.run_uniform(1.0, slots);
    sim.report.throughput(ports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_suffers_hol_blocking() {
        let t = saturation_throughput(Queueing::Fifo, 16, 1, 20_000, 3);
        // The classic 2-sqrt(2) ≈ 0.586 limit (±simulation noise).
        assert!(
            (0.52..=0.66).contains(&t),
            "FIFO saturation throughput {t:.3}, expected ≈0.586"
        );
    }

    #[test]
    fn voq_islip_reaches_full_throughput() {
        let t = saturation_throughput(Queueing::Voq, 16, 4, 20_000, 3);
        assert!(t > 0.95, "VOQ+iSLIP saturation throughput {t:.3}");
    }

    #[test]
    fn voq_beats_fifo_by_the_papers_margin() {
        let f = saturation_throughput(Queueing::Fifo, 16, 1, 20_000, 5);
        let v = saturation_throughput(Queueing::Voq, 16, 4, 20_000, 5);
        // "This raises the system throughput from 60% to 100%" (§2.2.2).
        assert!(v / f > 1.5, "VOQ {v:.3} vs FIFO {f:.3}");
    }

    #[test]
    fn light_load_is_lossless_and_low_delay() {
        let mut sim = CrossbarSim::new(FabricConfig {
            ports: 8,
            queueing: Queueing::Voq,
            seed: 9,
            ..FabricConfig::default()
        });
        sim.run_uniform(0.3, 20_000);
        let r = &sim.report;
        assert_eq!(r.dropped_cells, 0);
        let t = r.throughput(8);
        assert!((0.28..=0.32).contains(&t), "delivered {t:.3} at load 0.3");
        assert!(r.mean_delay() < 5.0, "mean delay {:.2}", r.mean_delay());
    }

    #[test]
    fn more_islip_iterations_help_at_high_load() {
        let t1 = saturation_throughput(Queueing::Voq, 16, 1, 20_000, 7);
        let t4 = saturation_throughput(Queueing::Voq, 16, 4, 20_000, 7);
        assert!(t4 >= t1 - 0.02, "iters must not hurt: {t1:.3} vs {t4:.3}");
        assert!(t4 > 0.95);
    }

    #[test]
    fn islip_iterations_converge_quickly() {
        // O(log N) iterations suffice: 4 iterations on 16 ports should
        // already use fewer than the worst case allows.
        let mut sim = CrossbarSim::new(FabricConfig {
            ports: 16,
            queueing: Queueing::Voq,
            islip_iters: 16,
            seed: 11,
            ..FabricConfig::default()
        });
        sim.run_uniform(1.0, 5_000);
        let used = sim.report.iterations_used as f64 / sim.report.slots as f64;
        assert!(
            used <= 6.0,
            "average iterations per slot {used:.2}, expected O(log N)"
        );
    }

    #[test]
    fn determinism_with_fixed_seed() {
        let a = saturation_throughput(Queueing::Voq, 8, 2, 5_000, 42);
        let b = saturation_throughput(Queueing::Voq, 8, 2, 5_000, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn conservation_of_cells() {
        let mut sim = CrossbarSim::new(FabricConfig {
            ports: 8,
            queueing: Queueing::Voq,
            seed: 13,
            ..FabricConfig::default()
        });
        sim.run_uniform(0.7, 10_000);
        let r = sim.report.clone();
        let backlog = sim.backlog() as u64;
        assert_eq!(
            r.offered_cells,
            r.delivered_cells + r.dropped_cells + backlog
        );
    }
}
