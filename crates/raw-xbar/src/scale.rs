//! Scalability of the Rotating Crossbar (§8.5).
//!
//! The 4-port router's ring fabric generalizes to `N` crossbar tiles;
//! this module models the generalized schedule at slot granularity (one
//! slot = one routing quantum) to study how the token ring scales. The
//! result motivates the paper's own §8.5 position: a ring's bisection is
//! constant while uniform traffic crosses it proportionally to `N`, so
//! past small port counts one should "build a larger router out of
//! multiple of these small 4-port routers" rather than grow the ring.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One slot of the generalized sequential walk on an `n`-tile ring.
/// `bids[i]` is input `i`'s destination (or `None`); returns the grant
/// vector. Shortest-direction-first, clockwise on ties, token priority.
pub fn ring_walk(bids: &[Option<usize>], token: usize) -> Vec<bool> {
    let n = bids.len();
    let mut cw = vec![false; n];
    let mut ccw = vec![false; n];
    let mut out = vec![false; n];
    let mut granted = vec![false; n];
    for k in 0..n {
        let i = (token + k) % n;
        let Some(dst) = bids[i] else { continue };
        if out[dst] {
            continue;
        }
        let d_cw = (dst + n - i) % n;
        let d_ccw = (n - d_cw) % n;
        let dirs: [bool; 2] = if d_ccw < d_cw {
            [false, true] // ccw first
        } else {
            [true, false]
        };
        'dir: for &is_cw in &dirs {
            let d = if is_cw { d_cw } else { d_ccw };
            let links: &mut Vec<bool> = if is_cw { &mut cw } else { &mut ccw };
            let idx = |s: usize| {
                if is_cw {
                    (i + s) % n
                } else {
                    (i + n - s) % n
                }
            };
            for s in 0..d {
                if links[idx(s)] {
                    continue 'dir;
                }
            }
            for s in 0..d {
                links[idx(s)] = true;
            }
            out[dst] = true;
            granted[i] = true;
            break;
        }
    }
    granted
}

/// Saturation throughput (grants per port per slot) of an `n`-port ring
/// crossbar under uniform head-of-line destinations.
pub fn ring_saturation_throughput(n: usize, slots: u64, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    // Head-of-line bids persist until granted (FIFO inputs, as in §4.4).
    let mut hol: Vec<Option<usize>> = (0..n).map(|_| Some(rng.gen_range(0..n))).collect();
    let mut grants = 0u64;
    for slot in 0..slots {
        let g = ring_walk(&hol, (slot % n as u64) as usize);
        for i in 0..n {
            if g[i] {
                grants += 1;
                hol[i] = Some(rng.gen_range(0..n));
            }
        }
    }
    grants as f64 / (slots as f64 * n as f64)
}

/// One port count of the §8.5 scaling comparison.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScalingPoint {
    pub ports: usize,
    /// Grants per port per slot of the single `n`-port token ring.
    pub ring_throughput: f64,
}

/// The ring scaling curve, reusable by any experiment that wants the
/// §8.5 baseline on its own table (the fabric study sets measured Clos
/// throughput, the composition side, against these points).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScalingCurve {
    pub slots: u64,
    pub seed: u64,
    pub points: Vec<ScalingPoint>,
}

impl ScalingCurve {
    /// Measure the ring walk at each port count. Deterministic in
    /// `(port_counts, slots, seed)`.
    pub fn measure(port_counts: &[usize], slots: u64, seed: u64) -> ScalingCurve {
        ScalingCurve {
            slots,
            seed,
            points: port_counts
                .iter()
                .map(|&n| ScalingPoint {
                    ports: n,
                    ring_throughput: ring_saturation_throughput(n, slots, seed),
                })
                .collect(),
        }
    }

    /// The ring's per-port saturation throughput at `ports`, if that
    /// port count was measured.
    pub fn ring_at(&self, ports: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.ports == ports)
            .map(|p| p.ring_throughput)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_curve_is_deterministic_and_matches_point_fns() {
        let a = ScalingCurve::measure(&[4, 8, 16], 5_000, 5);
        let b = ScalingCurve::measure(&[4, 8, 16], 5_000, 5);
        assert_eq!(a, b);
        assert_eq!(a.points.len(), 3);
        for p in &a.points {
            assert_eq!(
                p.ring_throughput,
                ring_saturation_throughput(p.ports, 5_000, 5)
            );
        }
        assert_eq!(a.ring_at(8), Some(a.points[1].ring_throughput));
        assert_eq!(a.ring_at(12), None);
    }

    #[test]
    fn four_port_walk_matches_config_module() {
        use crate::config::{schedule, Bid};
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..500 {
            let bids4: [Option<usize>; 4] = std::array::from_fn(|_| {
                if rng.gen_bool(0.8) {
                    Some(rng.gen_range(0..4))
                } else {
                    None
                }
            });
            let token = rng.gen_range(0..4u8);
            let generic = ring_walk(&bids4, token as usize);
            let specific = schedule(
                std::array::from_fn(|i| match bids4[i] {
                    Some(d) => Bid::unicast(d as u8),
                    None => Bid::EMPTY,
                }),
                token,
            );
            assert_eq!(
                generic,
                &specific.granted[..],
                "generic ring walk diverged for {bids4:?} token {token}"
            );
        }
    }

    #[test]
    fn four_ports_sustain_high_throughput() {
        let t = ring_saturation_throughput(4, 50_000, 1);
        assert!(t > 0.62, "4-port ring saturation {t:.3}");
    }

    #[test]
    fn ring_throughput_decays_with_port_count() {
        let t4 = ring_saturation_throughput(4, 30_000, 2);
        let t8 = ring_saturation_throughput(8, 30_000, 2);
        let t16 = ring_saturation_throughput(16, 30_000, 2);
        assert!(t4 > t8 && t8 > t16, "{t4:.3} {t8:.3} {t16:.3}");
        // Ring bisection is constant: throughput per port falls roughly
        // like 1/N for large N.
        assert!(t16 < 0.5 * t4, "ring must degrade markedly by 16 ports");
    }

    #[test]
    fn walk_grants_are_feasible() {
        // No two grants may share an output.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let n = rng.gen_range(3..12);
            let bids: Vec<Option<usize>> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.9) {
                        Some(rng.gen_range(0..n))
                    } else {
                        None
                    }
                })
                .collect();
            let g = ring_walk(&bids, rng.gen_range(0..n));
            let mut outs = std::collections::BTreeSet::new();
            for i in 0..n {
                if g[i] {
                    assert!(outs.insert(bids[i].unwrap()), "output granted twice");
                }
            }
        }
    }

    #[test]
    fn token_holder_always_wins_with_a_bid() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..200 {
            let n = rng.gen_range(3..10);
            let bids: Vec<Option<usize>> = (0..n).map(|_| Some(rng.gen_range(0..n))).collect();
            let token = rng.gen_range(0..n);
            let g = ring_walk(&bids, token);
            assert!(g[token], "the master tile's bid must be granted (§5.1)");
        }
    }
}
