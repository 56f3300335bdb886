//! §2.2.2 saturation claims, checked on the executable iSLIP itself.
//!
//! At saturation every virtual output queue is backlogged, so every input
//! requests every output in every slot. The paper's claims for iSLIP are
//! that it then delivers ~100% throughput (against the 2-√2 ≈ 0.586
//! head-of-line wall of FIFO queueing) and that its pointers desynchronize
//! until one iteration per slot finds the whole matching.

use raw_sched::{matching_size, IslipArb, Scheduler};

#[test]
fn saturation_throughput_and_convergence_meet_the_papers_claims() {
    let (n, slots) = (16, 20_000u64);
    let mut islip = IslipArb::new(n, 4);
    let requests = vec![u16::MAX; n];
    let (mut delivered, mut iterations) = (0u64, 0u64);
    for _ in 0..slots {
        delivered += matching_size(&islip.arbitrate(&requests)) as u64;
        iterations += u64::from(islip.last_iterations());
    }
    let t = delivered as f64 / (slots * n as u64) as f64;
    assert!(t > 0.95, "executable iSLIP saturation {t:.3}");
    let mean_iters = iterations as f64 / slots as f64;
    assert!(
        mean_iters < 2.0,
        "iSLIP should converge in ~1 iteration at saturation, got {mean_iters:.2}"
    );
}
