//! Per-tile utilization tracing — the data behind Figure 7-3.
//!
//! Every cycle each tile processor is in exactly one [`Activity`] state.
//! The paper's utilization plots color a tile gray when it is "blocked on
//! transmit, receive, or cache miss"; we keep the four blocked/busy states
//! separate and can render either the paper's two-tone view or a richer
//! one.

/// What a tile processor spent a cycle on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Activity {
    /// No work issued.
    Idle,
    /// Retired useful work (compute, send, receive, memory hit).
    Busy,
    /// Stalled writing a full network register (blocked on transmit).
    BlockedSend,
    /// Stalled reading an empty network register (blocked on receive).
    BlockedRecv,
    /// Stalled on a data-cache miss.
    CacheStall,
}

impl Activity {
    pub const ALL: [Activity; 5] = [
        Activity::Idle,
        Activity::Busy,
        Activity::BlockedSend,
        Activity::BlockedRecv,
        Activity::CacheStall,
    ];

    #[inline]
    pub fn index(self) -> usize {
        match self {
            Activity::Idle => 0,
            Activity::Busy => 1,
            Activity::BlockedSend => 2,
            Activity::BlockedRecv => 3,
            Activity::CacheStall => 4,
        }
    }

    /// True for the states the paper plots as gray ("blocked on transmit,
    /// receive, or cache miss").
    #[inline]
    pub fn is_blocked(self) -> bool {
        matches!(
            self,
            Activity::BlockedSend | Activity::BlockedRecv | Activity::CacheStall
        )
    }
}

/// Cumulative per-tile activity counters.
#[derive(Clone, Debug, Default)]
pub struct TileStats {
    pub counts: [u64; 5],
}

impl TileStats {
    pub fn record(&mut self, a: Activity) {
        self.counts[a.index()] += 1;
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn busy(&self) -> u64 {
        self.counts[Activity::Busy.index()]
    }

    pub fn blocked(&self) -> u64 {
        Activity::ALL
            .iter()
            .filter(|a| a.is_blocked())
            .map(|a| self.counts[a.index()])
            .sum()
    }

    /// Busy fraction of all recorded cycles.
    pub fn utilization(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.busy() as f64 / t as f64
        }
    }
}

/// A bounded window of per-tile activity samples, recorded on demand.
#[derive(Clone, Debug)]
pub struct TraceWindow {
    pub start_cycle: u64,
    pub len: usize,
    tiles: usize,
    /// `samples[tile][cycle - start_cycle]`
    samples: Vec<Vec<Activity>>,
}

impl TraceWindow {
    pub fn new(tiles: usize, start_cycle: u64, len: usize) -> TraceWindow {
        TraceWindow {
            start_cycle,
            len,
            tiles,
            samples: vec![Vec::with_capacity(len); tiles],
        }
    }

    /// Number of tile rows in the window.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// True while the window still wants samples at `cycle`.
    pub fn wants(&self, cycle: u64) -> bool {
        cycle >= self.start_cycle && (cycle - self.start_cycle) < self.len as u64
    }

    pub fn record(&mut self, tile: usize, cycle: u64, a: Activity) {
        if self.wants(cycle) {
            debug_assert_eq!(
                self.samples[tile].len() as u64,
                cycle - self.start_cycle,
                "trace samples must be recorded densely"
            );
            self.samples[tile].push(a);
        }
    }

    /// Record `len` consecutive cycles of the same activity for `tile`,
    /// starting at `from_cycle` — the bulk equivalent of calling
    /// [`TraceWindow::record`] once per cycle. The machine's event-skip
    /// fast-forward uses this to credit skipped cycles without visiting
    /// each one; the dense-recording invariant is preserved.
    pub fn record_span(&mut self, tile: usize, from_cycle: u64, len: u64, a: Activity) {
        let lo = from_cycle.max(self.start_cycle);
        let hi = (from_cycle + len).min(self.start_cycle + self.len as u64);
        if lo >= hi {
            return;
        }
        debug_assert_eq!(
            self.samples[tile].len() as u64,
            lo - self.start_cycle,
            "trace samples must be recorded densely"
        );
        let cur = self.samples[tile].len();
        self.samples[tile].resize(cur + (hi - lo) as usize, a);
    }

    pub fn is_complete(&self) -> bool {
        self.samples.iter().all(|s| s.len() == self.len)
    }

    pub fn tile_samples(&self, tile: usize) -> &[Activity] {
        &self.samples[tile]
    }

    /// Per-tile `(busy, blocked, idle)` fractions over the window.
    pub fn tile_fractions(&self, tile: usize) -> (f64, f64, f64) {
        let row = &self.samples[tile];
        if row.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let n = row.len() as f64;
        let busy = row.iter().filter(|a| **a == Activity::Busy).count() as f64;
        let blocked = row.iter().filter(|a| a.is_blocked()).count() as f64;
        (busy / n, blocked / n, (n - busy - blocked) / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_classification_matches_paper() {
        assert!(Activity::BlockedSend.is_blocked());
        assert!(Activity::BlockedRecv.is_blocked());
        assert!(Activity::CacheStall.is_blocked());
        assert!(!Activity::Busy.is_blocked());
        assert!(!Activity::Idle.is_blocked());
    }

    #[test]
    fn stats_accumulate() {
        let mut s = TileStats::default();
        s.record(Activity::Busy);
        s.record(Activity::Busy);
        s.record(Activity::BlockedRecv);
        s.record(Activity::Idle);
        assert_eq!(s.total(), 4);
        assert_eq!(s.busy(), 2);
        assert_eq!(s.blocked(), 1);
        assert!((s.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn window_records_densely_and_completes() {
        let mut w = TraceWindow::new(2, 10, 3);
        assert!(!w.wants(9));
        assert!(w.wants(10));
        assert!(!w.wants(13));
        for cycle in 10..13 {
            w.record(0, cycle, Activity::Busy);
            w.record(1, cycle, Activity::BlockedRecv);
        }
        assert!(w.is_complete());
        let (busy, blocked, idle) = w.tile_fractions(1);
        assert_eq!((busy, blocked, idle), (0.0, 1.0, 0.0));
        let _ = w.tile_fractions(0);
    }

    #[test]
    fn ascii_render_shapes() {
        let mut w = TraceWindow::new(1, 0, 4);
        for (c, a) in [
            Activity::Busy,
            Activity::Busy,
            Activity::BlockedSend,
            Activity::Idle,
        ]
        .iter()
        .enumerate()
        {
            w.record(0, c as u64, *a);
        }
        let s = w.render_ascii(2);
        assert!(s.contains('#'));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 1);
    }

    #[test]
    fn csv_export() {
        let mut w = TraceWindow::new(1, 0, 2);
        w.record(0, 0, Activity::Busy);
        w.record(0, 1, Activity::CacheStall);
        let csv = w.to_csv();
        assert!(csv.contains("0,0,busy"));
        assert!(csv.contains("0,1,cache_stall"));
    }
}
