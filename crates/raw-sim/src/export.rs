//! [`TraceWindow`]'s renderings for Figure 7-3: the `fig7_3_*.csv` rows
//! and the ASCII utilization plot.

use std::fmt::Write as _;

use crate::trace::{Activity, TraceWindow};

impl TraceWindow {
    /// CSV rows `tile,cycle,state` for external plotting — the stable
    /// `fig7_3_*.csv` format.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("tile,cycle,state\n");
        for t in 0..self.tiles() {
            for (i, a) in self.tile_samples(t).iter().enumerate() {
                let name = match a {
                    Activity::Idle => "idle",
                    Activity::Busy => "busy",
                    Activity::BlockedSend => "blocked_send",
                    Activity::BlockedRecv => "blocked_recv",
                    Activity::CacheStall => "cache_stall",
                };
                let _ = writeln!(out, "{t},{},{name}", self.start_cycle + i as u64);
            }
        }
        out
    }

    /// Render in the style of Figure 7-3: one row per tile, buckets of
    /// `bucket` cycles; `#` mostly busy, `.` mostly blocked (gray in the
    /// paper), ` ` mostly idle — ties favor busy over blocked over idle.
    pub fn render_ascii(&self, bucket: usize) -> String {
        let mut out = String::new();
        for t in 0..self.tiles() {
            let _ = write!(out, "{t:>2} |");
            for chunk in self.tile_samples(t).chunks(bucket.max(1)) {
                let busy = chunk.iter().filter(|&&a| a == Activity::Busy).count();
                let blocked = chunk.iter().filter(|a| a.is_blocked()).count();
                let idle = chunk.len() - busy - blocked;
                out.push(if busy >= blocked && busy >= idle {
                    '#'
                } else if blocked >= idle {
                    '.'
                } else {
                    ' '
                });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> TraceWindow {
        let mut w = TraceWindow::new(2, 10, 4);
        for (c, a) in [
            Activity::Busy,
            Activity::Busy,
            Activity::BlockedSend,
            Activity::Idle,
        ]
        .into_iter()
        .enumerate()
        {
            w.record(0, 10 + c as u64, a);
            w.record(1, 10 + c as u64, Activity::Idle);
        }
        w
    }

    #[test]
    fn csv_format_is_stable() {
        let csv = sample_trace().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "tile,cycle,state");
        assert_eq!(lines[1], "0,10,busy");
        assert_eq!(lines[3], "0,12,blocked_send");
        assert_eq!(lines[5], "1,10,idle");
    }

    #[test]
    fn ascii_majority_rule() {
        let s = sample_trace().render_ascii(2);
        let lines: Vec<&str> = s.lines().collect();
        // Tile 0: [busy, busy] -> '#', [blocked, idle] -> '.' (ties favor
        // busy over blocked over idle); tile 1 is idle throughout.
        assert_eq!(lines, [" 0 |#.", " 1 |  "]);
    }
}
