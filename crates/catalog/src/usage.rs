//! Table usage tracking: the custom statistics of the observe phase.
//!
//! §4.1: "Custom statistics […] could include candidate access patterns and
//! usage metrics — information that may not be available in all systems."
//! The filters in §4.1 need creation time ("created recently") and recent
//! write activity ("undergone recent frequent writes to avoid potential
//! conflicts during compaction"); both are tracked here.

use std::collections::VecDeque;

/// Rolling usage statistics for one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableUsage {
    /// Creation timestamp (simulation ms).
    pub created_at_ms: u64,
    /// Last write commit, if any.
    pub last_write_ms: Option<u64>,
    /// Last read, if any.
    pub last_read_ms: Option<u64>,
    /// Total write commits.
    pub total_writes: u64,
    /// Total reads.
    pub total_reads: u64,
    /// Timestamps of recent writes, pruned against `window_ms`.
    recent_writes: VecDeque<u64>,
    /// Length of the recent-write window.
    window_ms: u64,
}

impl TableUsage {
    /// Creates usage tracking for a table created at `created_at_ms`,
    /// keeping a rolling write window of `window_ms`.
    pub fn new(created_at_ms: u64, window_ms: u64) -> Self {
        TableUsage {
            created_at_ms,
            last_write_ms: None,
            last_read_ms: None,
            total_writes: 0,
            total_reads: 0,
            recent_writes: VecDeque::new(),
            window_ms,
        }
    }

    /// Records a write commit at `now_ms`.
    pub fn record_write(&mut self, now_ms: u64) {
        self.last_write_ms = Some(now_ms);
        self.total_writes += 1;
        self.recent_writes.push_back(now_ms);
        self.prune(now_ms);
    }

    /// Records a read at `now_ms`.
    pub fn record_read(&mut self, now_ms: u64) {
        self.last_read_ms = Some(now_ms);
        self.total_reads += 1;
    }

    /// Writes observed within the rolling window ending at `now_ms`.
    /// Counts against the cutoff without pruning ([`record_write`]
    /// prunes), so observers read through `&self`.
    ///
    /// [`record_write`]: Self::record_write
    pub fn writes_in_window_at(&self, now_ms: u64) -> u64 {
        let cutoff = now_ms.saturating_sub(self.window_ms);
        self.recent_writes.iter().filter(|&&w| w >= cutoff).count() as u64
    }

    /// Write frequency in writes/hour over the rolling window ending at
    /// `now_ms`.
    pub fn write_frequency_per_hour_at(&self, now_ms: u64) -> f64 {
        let writes = self.writes_in_window_at(now_ms) as f64;
        let hours = self.window_ms as f64 / 3_600_000.0;
        if hours <= 0.0 {
            0.0
        } else {
            writes / hours
        }
    }

    /// Whether the table was created within `grace_ms` of `now_ms` —
    /// the §4.1 recently-created filter predicate.
    pub fn is_recently_created(&self, now_ms: u64, grace_ms: u64) -> bool {
        now_ms.saturating_sub(self.created_at_ms) < grace_ms
    }

    /// Whether a write landed within `quiet_ms` of `now_ms` — the §4.1
    /// recent-write-activity filter predicate (conflict avoidance).
    pub fn written_within(&self, now_ms: u64, quiet_ms: u64) -> bool {
        self.last_write_ms
            .is_some_and(|w| now_ms.saturating_sub(w) < quiet_ms)
    }

    fn prune(&mut self, now_ms: u64) {
        let cutoff = now_ms.saturating_sub(self.window_ms);
        while let Some(&front) = self.recent_writes.front() {
            if front < cutoff {
                self.recent_writes.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: u64 = 3_600_000;

    #[test]
    fn rolling_window_prunes_old_writes() {
        let mut u = TableUsage::new(0, HOUR);
        u.record_write(0);
        u.record_write(30 * 60_000);
        assert_eq!(u.writes_in_window_at(30 * 60_000), 2);
        // One hour later, only the second write is inside the window.
        assert_eq!(u.writes_in_window_at(HOUR + 60_000), 1);
        assert_eq!(u.total_writes, 2); // totals unaffected
    }

    #[test]
    fn recency_predicates() {
        let mut u = TableUsage::new(1000, HOUR);
        assert!(u.is_recently_created(1500, 1000));
        assert!(!u.is_recently_created(5000, 1000));
        assert!(!u.written_within(2000, 1000));
        u.record_write(1800);
        assert!(u.written_within(2000, 1000));
        assert!(!u.written_within(5000, 1000));
    }

    #[test]
    fn frequency_is_per_hour() {
        let mut u = TableUsage::new(0, 2 * HOUR);
        for i in 0..6 {
            u.record_write(i * 10 * 60_000);
        }
        let f = u.write_frequency_per_hour_at(60 * 60_000);
        assert!((f - 3.0).abs() < 1e-12, "{f}");
    }

    #[test]
    fn reads_tracked_independently() {
        let mut u = TableUsage::new(0, HOUR);
        u.record_read(100);
        u.record_read(200);
        assert_eq!(u.total_reads, 2);
        assert_eq!(u.last_read_ms, Some(200));
        assert_eq!(u.total_writes, 0);
    }
}
