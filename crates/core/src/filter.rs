//! Candidate filters (§4.1).
//!
//! "Once candidates are generated, filtering mechanisms are applied
//! throughout the workflow to refine the exhaustively generated candidate
//! pool based on statistics and current table usage. […] Example filters
//! might check the table size to skip tables that are too small or verify
//! whether a compaction candidate has undergone recent frequent writes to
//! avoid potential conflicts during compaction."

use crate::candidate::CandidateView;

/// Outcome of evaluating one filter against one candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterDecision {
    /// Candidate proceeds to the next phase.
    Keep,
    /// Candidate is dropped, with the reason recorded in the cycle report
    /// (NFR2 explainability).
    Drop(String),
}

/// A candidate filter.
///
/// Filters are `Send + Sync`, like [`TraitComputer`]: they are pure
/// predicates over the candidate, so the bound costs implementations
/// nothing and keeps an assembled pipeline movable across threads.
///
/// Filters evaluate a borrowed [`CandidateView`] rather than an owned
/// [`Candidate`]: the index-native pipeline builds views straight from
/// observation entries, so filtering a 100K-table fleet materializes no
/// candidate structs at all.
///
/// [`TraitComputer`]: crate::traits::TraitComputer
/// [`Candidate`]: crate::candidate::Candidate
pub trait CandidateFilter: Send + Sync {
    /// Filter name for reports.
    fn name(&self) -> &str;

    /// Evaluates the candidate at `now_ms`.
    fn evaluate(&self, candidate: &CandidateView<'_>, now_ms: u64) -> FilterDecision;

    /// Whether this filter's verdict (or drop-reason string) depends on
    /// the cycle timestamp `now_ms` and not just the candidate's stats.
    ///
    /// The retained [decide state](crate::decide) reuses a quiet table's
    /// filter verdict across cycles only when every filter in the chain
    /// declares itself time-**insensitive** (or the timestamp did not
    /// move): verdicts of time-sensitive filters can flip — and their
    /// reason strings change — as the clock advances even when the stats
    /// are byte-identical. Defaults to `true` (conservative: unknown
    /// filters never get stale verdicts); pure stats predicates should
    /// override to `false` to unlock cross-cycle reuse.
    fn time_sensitive(&self) -> bool {
        true
    }
}

/// Drops candidates whose table policy disables compaction.
#[derive(Debug, Default)]
pub struct CompactionDisabledFilter;

impl CandidateFilter for CompactionDisabledFilter {
    fn name(&self) -> &str {
        "compaction-disabled"
    }
    fn evaluate(&self, candidate: &CandidateView<'_>, _now_ms: u64) -> FilterDecision {
        if candidate.compaction_enabled {
            FilterDecision::Keep
        } else {
            FilterDecision::Drop("policy disables compaction".to_string())
        }
    }
    /// Pure stats predicate: verdicts never depend on the cycle clock.
    fn time_sensitive(&self) -> bool {
        false
    }
}

/// Drops recently created tables: "we ensure that tables are not compacted
/// if they have been created recently, i.e., within a preset time window"
/// (§4.1 — avoids spending budget on tables that won't affect long-term
/// system health).
#[derive(Debug)]
pub struct RecentlyCreatedFilter {
    /// Grace window after creation.
    pub grace_ms: u64,
}

impl CandidateFilter for RecentlyCreatedFilter {
    fn name(&self) -> &str {
        "recently-created"
    }
    fn evaluate(&self, candidate: &CandidateView<'_>, now_ms: u64) -> FilterDecision {
        let age = now_ms.saturating_sub(candidate.stats.created_at_ms);
        if age < self.grace_ms {
            FilterDecision::Drop(format!("created {age}ms ago (< grace {}ms)", self.grace_ms))
        } else {
            FilterDecision::Keep
        }
    }
    /// Verdicts (and reason strings) move with the cycle clock.
    fn time_sensitive(&self) -> bool {
        true
    }
}

/// Drops short-lived intermediate tables (§4.1: table created as an
/// "intermediate table" should not receive compaction effort).
#[derive(Debug, Default)]
pub struct IntermediateTableFilter;

impl CandidateFilter for IntermediateTableFilter {
    fn name(&self) -> &str {
        "intermediate-table"
    }
    fn evaluate(&self, candidate: &CandidateView<'_>, _now_ms: u64) -> FilterDecision {
        if candidate.is_intermediate {
            FilterDecision::Drop("intermediate table".to_string())
        } else {
            FilterDecision::Keep
        }
    }
    /// Pure stats predicate: verdicts never depend on the cycle clock.
    fn time_sensitive(&self) -> bool {
        false
    }
}

/// Drops candidates that are too small to matter.
#[derive(Debug)]
pub struct MinSizeFilter {
    /// Minimum total bytes in scope.
    pub min_total_bytes: u64,
    /// Minimum file count in scope.
    pub min_file_count: u64,
}

impl CandidateFilter for MinSizeFilter {
    fn name(&self) -> &str {
        "min-size"
    }
    fn evaluate(&self, candidate: &CandidateView<'_>, _now_ms: u64) -> FilterDecision {
        if candidate.stats.total_bytes < self.min_total_bytes {
            return FilterDecision::Drop(format!(
                "total bytes {} < {}",
                candidate.stats.total_bytes, self.min_total_bytes
            ));
        }
        if candidate.stats.file_count < self.min_file_count {
            return FilterDecision::Drop(format!(
                "file count {} < {}",
                candidate.stats.file_count, self.min_file_count
            ));
        }
        FilterDecision::Keep
    }
    /// Pure stats predicate: verdicts never depend on the cycle clock.
    fn time_sensitive(&self) -> bool {
        false
    }
}

/// Drops candidates written very recently — conflict avoidance ("verify
/// whether a compaction candidate has undergone recent frequent writes to
/// avoid potential conflicts during compaction", §4.1).
#[derive(Debug)]
pub struct RecentWriteActivityFilter {
    /// Quiet period required since the last write.
    pub quiet_ms: u64,
    /// Alternatively, drop when write frequency exceeds this (writes/hr).
    pub max_writes_per_hour: f64,
}

impl CandidateFilter for RecentWriteActivityFilter {
    fn name(&self) -> &str {
        "recent-write-activity"
    }
    fn evaluate(&self, candidate: &CandidateView<'_>, now_ms: u64) -> FilterDecision {
        if let Some(last) = candidate.stats.last_write_ms {
            let since = now_ms.saturating_sub(last);
            if since < self.quiet_ms {
                return FilterDecision::Drop(format!(
                    "written {since}ms ago (< quiet {}ms)",
                    self.quiet_ms
                ));
            }
        }
        if candidate.stats.write_frequency_per_hour > self.max_writes_per_hour {
            return FilterDecision::Drop(format!(
                "write frequency {:.1}/h > {:.1}/h",
                candidate.stats.write_frequency_per_hour, self.max_writes_per_hour
            ));
        }
        FilterDecision::Keep
    }
    /// Verdicts (and reason strings) move with the cycle clock.
    fn time_sensitive(&self) -> bool {
        true
    }
}

/// Drops candidates that are already well-compacted — the inefficiency §2
/// observed with static schedules: "subsequent compaction runs often
/// processed files that were already well-sized and balanced, yielding
/// minimal improvements".
#[derive(Debug)]
pub struct AlreadyCompactFilter {
    /// Minimum small files for the candidate to be worth compacting.
    pub min_small_files: u64,
    /// Minimum small-file fraction.
    pub min_small_fraction: f64,
}

impl CandidateFilter for AlreadyCompactFilter {
    fn name(&self) -> &str {
        "already-compact"
    }
    fn evaluate(&self, candidate: &CandidateView<'_>, _now_ms: u64) -> FilterDecision {
        let s = &candidate.stats;
        if s.small_file_count < self.min_small_files {
            return FilterDecision::Drop(format!(
                "only {} small files (< {})",
                s.small_file_count, self.min_small_files
            ));
        }
        if s.small_file_fraction() < self.min_small_fraction {
            return FilterDecision::Drop(format!(
                "small-file fraction {:.2} < {:.2}",
                s.small_file_fraction(),
                self.min_small_fraction
            ));
        }
        FilterDecision::Keep
    }
    /// Pure stats predicate: verdicts never depend on the cycle clock.
    fn time_sensitive(&self) -> bool {
        false
    }
}

/// Evaluates a filter chain against one candidate view: `None` keeps the
/// candidate, `Some(reason)` drops it with the first dropping filter's
/// `"name: reason"` string (the first dropping filter wins, exactly like
/// the historical chain). This is the single evaluation site of the
/// chain.
pub fn evaluate_chain(
    filters: &[Box<dyn CandidateFilter>],
    candidate: &CandidateView<'_>,
    now_ms: u64,
) -> Option<String> {
    for filter in filters {
        if let FilterDecision::Drop(reason) = filter.evaluate(candidate, now_ms) {
            return Some(format!("{}: {}", filter.name(), reason));
        }
    }
    None
}

/// Whether any filter in the chain declares its verdicts
/// [time-sensitive](CandidateFilter::time_sensitive). A chain that is
/// entirely time-insensitive has verdicts that are pure functions of the
/// candidate stats, which is what lets the retained decide state keep
/// them across cycles with moving timestamps.
pub fn chain_time_sensitive(filters: &[Box<dyn CandidateFilter>]) -> bool {
    filters.iter().any(|f| f.time_sensitive())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{Candidate, CandidateId};
    use crate::stats::CandidateStats;

    fn candidate(stats: CandidateStats) -> Candidate {
        Candidate {
            id: CandidateId::table(1),
            database: "db".into(),
            table_name: "t".into(),
            compaction_enabled: true,
            is_intermediate: false,
            stats,
        }
    }

    #[test]
    fn recently_created_filter() {
        let f = RecentlyCreatedFilter { grace_ms: 1000 };
        let c = candidate(CandidateStats {
            created_at_ms: 500,
            ..CandidateStats::default()
        });
        assert!(matches!(
            f.evaluate(&c.view(), 900),
            FilterDecision::Drop(_)
        ));
        assert_eq!(f.evaluate(&c.view(), 2000), FilterDecision::Keep);
    }

    #[test]
    fn write_activity_filter() {
        let f = RecentWriteActivityFilter {
            quiet_ms: 1000,
            max_writes_per_hour: 10.0,
        };
        let mut c = candidate(CandidateStats {
            last_write_ms: Some(100),
            ..CandidateStats::default()
        });
        assert!(matches!(
            f.evaluate(&c.view(), 500),
            FilterDecision::Drop(_)
        ));
        assert_eq!(f.evaluate(&c.view(), 5000), FilterDecision::Keep);
        c.stats.write_frequency_per_hour = 50.0;
        assert!(matches!(
            f.evaluate(&c.view(), 5000),
            FilterDecision::Drop(_)
        ));
    }

    #[test]
    fn already_compact_filter() {
        let f = AlreadyCompactFilter {
            min_small_files: 5,
            min_small_fraction: 0.2,
        };
        let compact = candidate(CandidateStats {
            file_count: 100,
            small_file_count: 2,
            ..CandidateStats::default()
        });
        assert!(matches!(
            f.evaluate(&compact.view(), 0),
            FilterDecision::Drop(_)
        ));
        let fragmented = candidate(CandidateStats {
            file_count: 100,
            small_file_count: 80,
            ..CandidateStats::default()
        });
        assert_eq!(f.evaluate(&fragmented.view(), 0), FilterDecision::Keep);
    }

    #[test]
    fn chain_records_drop_reasons() {
        let filters: Vec<Box<dyn CandidateFilter>> = vec![
            Box::new(CompactionDisabledFilter),
            Box::new(MinSizeFilter {
                min_total_bytes: 100,
                min_file_count: 2,
            }),
        ];
        let mut disabled = candidate(CandidateStats {
            total_bytes: 1000,
            file_count: 10,
            ..CandidateStats::default()
        });
        disabled.compaction_enabled = false;
        let tiny = candidate(CandidateStats {
            total_bytes: 10,
            file_count: 10,
            ..CandidateStats::default()
        });
        let good = candidate(CandidateStats {
            total_bytes: 1000,
            file_count: 10,
            ..CandidateStats::default()
        });
        let verdict = |c: &Candidate| evaluate_chain(&filters, &c.view(), 0);
        assert!(verdict(&disabled).unwrap().contains("compaction-disabled"));
        assert!(verdict(&tiny).unwrap().contains("min-size"));
        assert_eq!(verdict(&good), None);
    }

    #[test]
    fn intermediate_filter() {
        let mut c = candidate(CandidateStats::default());
        c.is_intermediate = true;
        assert!(matches!(
            IntermediateTableFilter.evaluate(&c.view(), 0),
            FilterDecision::Drop(_)
        ));
    }
}
