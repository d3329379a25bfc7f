//! Work counters shared by all monitors.
//!
//! The paper's figures report, besides wall-clock time, the *number of
//! pairwise object comparisons* performed while maintaining the frontiers
//! (Figs. 4b–11b). Every monitor in this crate counts each invocation of the
//! dominance comparator as one comparison so those plots can be regenerated
//! exactly, independent of machine speed.

use std::fmt;

/// Running counters of the work performed by a monitor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Number of objects processed (arrivals).
    pub arrivals: u64,
    /// Number of objects that expired from the sliding window (always zero
    /// for append-only monitors).
    pub expirations: u64,
    /// Number of pairwise object dominance comparisons.
    pub comparisons: u64,
    /// Number of (object, user) pairs for which the object was reported as
    /// Pareto-optimal at arrival time (i.e. the summed sizes of the returned
    /// target-user sets).
    pub notifications: u64,
    /// Objects currently retained in the backfill history of an append-only
    /// monitor (a gauge, not a counter; always zero for sliding-window
    /// monitors, whose alive set is the window itself).
    pub history_objects: u64,
    /// Lifetime count of objects dropped from the backfill history by
    /// truncation, skyline-union compaction or the optional hard cap — the
    /// memory saved versus an unlimited history.
    pub history_evicted: u64,
    /// Estimated heap bytes of the retained backfill history (a gauge;
    /// compacting histories store each distinct value vector once with an
    /// id list, so this is the metric that shows the memory reduction on
    /// streams that repeat vectors).
    pub history_bytes: u64,
    /// Number of distinct preferences across the monitor's users (a gauge;
    /// users with identical preferences share one compiled state, so this
    /// is what per-user memory and churn cost actually scale with).
    pub distinct_preferences: u64,
    /// Estimated heap bytes of the stored preferences and their compiled
    /// bitset forms, counted once per distinct preference (a gauge).
    pub preference_bytes: u64,
}

impl MonitorStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one pairwise object comparison.
    #[inline]
    pub fn record_comparison(&mut self) {
        self.comparisons += 1;
    }

    /// Records `n` pairwise object comparisons.
    #[inline]
    pub fn record_comparisons(&mut self, n: u64) {
        self.comparisons += n;
    }

    /// Records the processing of one arriving object with `targets` target
    /// users.
    #[inline]
    pub fn record_arrival(&mut self, targets: usize) {
        self.arrivals += 1;
        self.notifications += targets as u64;
    }

    /// Records the expiration of one object from the sliding window.
    #[inline]
    pub fn record_expiration(&mut self) {
        self.expirations += 1;
    }

    /// Overwrites the four stream counters (arrivals, expirations,
    /// comparisons, notifications) with snapshot-time values; the gauges
    /// keep being computed live (see
    /// [`crate::ContinuousMonitor::restore_stats`]).
    pub(crate) fn restore_counters(&mut self, snapshot: MonitorStats) {
        self.arrivals = snapshot.arrivals;
        self.expirations = snapshot.expirations;
        self.comparisons = snapshot.comparisons;
        self.notifications = snapshot.notifications;
    }

    /// Average number of comparisons per arrival (0 if nothing arrived).
    pub fn comparisons_per_arrival(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.comparisons as f64 / self.arrivals as f64
        }
    }
}

impl fmt::Display for MonitorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "arrivals={} expirations={} comparisons={} notifications={} \
             history_objects={} history_evicted={} history_bytes={} \
             distinct_preferences={} preference_bytes={}",
            self.arrivals,
            self.expirations,
            self.comparisons,
            self.notifications,
            self.history_objects,
            self.history_evicted,
            self.history_bytes,
            self.distinct_preferences,
            self.preference_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = MonitorStats::new();
        s.record_arrival(3);
        s.record_arrival(0);
        s.record_comparison();
        s.record_comparisons(4);
        s.record_expiration();
        assert_eq!(s.arrivals, 2);
        assert_eq!(s.notifications, 3);
        assert_eq!(s.comparisons, 5);
        assert_eq!(s.expirations, 1);
        assert_eq!(s.comparisons_per_arrival(), 2.5);
    }

    #[test]
    fn empty_stats_have_zero_rate() {
        assert_eq!(MonitorStats::new().comparisons_per_arrival(), 0.0);
    }

    #[test]
    fn display_is_human_readable() {
        let mut s = MonitorStats::new();
        s.record_arrival(1);
        assert_eq!(
            s.to_string(),
            "arrivals=1 expirations=0 comparisons=0 notifications=1 \
             history_objects=0 history_evicted=0 history_bytes=0 \
             distinct_preferences=0 preference_bytes=0"
        );
    }
}
