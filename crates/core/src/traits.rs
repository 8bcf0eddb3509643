//! Trait computers (the orient phase, §4.2).
//!
//! "Traits are characteristics that describe either the current state of
//! the candidate or its future potential. […] we primarily focus on two
//! categories of traits: those describing the benefit of compaction, such
//! as file count reduction and file entropy, and those representing its
//! cost, such as compute cost."

use crate::stats::CandidateStats;

/// Whether a trait measures benefit (maximize) or cost (minimize).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraitDirection {
    /// Higher is better.
    Benefit,
    /// Lower is better.
    Cost,
}

/// Computes one trait value from candidate statistics.
///
/// Trait computers are independent of one another and freely combinable
/// during ranking (§4.2) — that independence is what lets AutoComp switch
/// optimization objectives without re-engineering (FR2/NFR1). They are
/// `Send + Sync` so an assembled pipeline can move to another thread;
/// computers are pure functions of the statistics, so this costs
/// implementations nothing.
///
/// **Purity is load-bearing**: the retained decide state keeps a quiet
/// table's trait row and score across cycles on the grounds that identical
/// stats bits produce identical trait bits. A computer that reads
/// interior-mutable state (clocks, RNGs, feedback calibration) breaks
/// that contract — register such state changes by calling
/// [`AutoComp::invalidate_cycle_cache`] (or re-registering the computer,
/// which bumps the configuration epoch).
///
/// [`AutoComp::invalidate_cycle_cache`]: crate::pipeline::AutoComp::invalidate_cycle_cache
pub trait TraitComputer: Send + Sync {
    /// Trait name, referenced by ranking policies.
    fn name(&self) -> &str;
    /// Benefit or cost.
    fn direction(&self) -> TraitDirection;
    /// Computes the trait value.
    fn compute(&self, stats: &CandidateStats) -> f64;
}

/// The paper's file-count-reduction estimator (§4.2):
/// `ΔF_c = Σ 1[FileSize_i < TargetFileSize_c]`.
///
/// With `use_planned_estimate`, the computer prefers the connector-supplied
/// custom metric `"planned_reduction"` (a partition-aware bin-packing
/// estimate) when present — §7 identifies exactly this refinement after
/// observing the naive estimator over-predict by 28% ("table-level
/// estimates may overestimate the number of small files that can be
/// merged, since compaction does not cross partitions").
#[derive(Debug, Clone, Default)]
pub struct FileCountReduction {
    /// Prefer the partition-aware `planned_reduction` custom metric.
    pub use_planned_estimate: bool,
}

/// Name of the custom metric carrying a partition-aware reduction
/// estimate.
pub const PLANNED_REDUCTION_METRIC: &str = "planned_reduction";

impl TraitComputer for FileCountReduction {
    fn name(&self) -> &str {
        "file_count_reduction"
    }
    fn direction(&self) -> TraitDirection {
        TraitDirection::Benefit
    }
    fn compute(&self, stats: &CandidateStats) -> f64 {
        if self.use_planned_estimate {
            if let Some(planned) = stats.custom_metric(PLANNED_REDUCTION_METRIC) {
                return planned.max(0.0);
            }
        }
        stats.small_file_count as f64
    }
}

/// File entropy (§4.2 cites Netflix's trait \[65\]; no public formula).
///
/// Our definition (documented in DESIGN.md): the mean squared deficit
/// ratio of data files against the target size. Using the bucketed
/// histogram with bucket midpoints:
///
/// `E = Σ_b count_b · max(0, (T − mid_b)/T)² / Σ_b count_b`
///
/// `E = 0` when every file is at/above target; `E → 1` as files shrink
/// toward zero. It is scale-free and comparable across candidates, which
/// is all ranking requires.
#[derive(Debug, Clone, Default)]
pub struct FileEntropy;

impl TraitComputer for FileEntropy {
    fn name(&self) -> &str {
        "file_entropy"
    }
    fn direction(&self) -> TraitDirection {
        TraitDirection::Benefit
    }
    fn compute(&self, stats: &CandidateStats) -> f64 {
        let target = stats.target_file_size;
        if target == 0 || stats.size_histogram.is_empty() {
            return 0.0;
        }
        let mut total = 0u64;
        let mut acc = 0.0;
        let mut prev_edge = 0u64;
        for bucket in &stats.size_histogram {
            let mid = match bucket.upper_bytes {
                Some(upper) => (prev_edge + upper) / 2,
                // Overflow bucket: files at/above the last edge are not
                // deficient by construction.
                None => target,
            };
            if let Some(upper) = bucket.upper_bytes {
                prev_edge = upper;
            }
            let deficit = ((target.saturating_sub(mid)) as f64 / target as f64).max(0.0);
            acc += bucket.count as f64 * deficit * deficit;
            total += bucket.count;
        }
        if total == 0 {
            0.0
        } else {
            acc / total as f64
        }
    }
}

/// The paper's compute-cost estimator (§4.2):
/// `GBHr_c = ExecutorMemoryGB × (DataSize_c / RewriteBytesPerHour)`
/// where `DataSize_c` is the bytes the rewrite must process (the small
/// files' bytes).
#[derive(Debug, Clone)]
pub struct ComputeCostGbhr {
    /// Memory allocated to compaction executors (GB).
    pub executor_memory_gb: f64,
    /// Assumed rewrite throughput (bytes/hour).
    pub rewrite_bytes_per_hour: u64,
}

impl Default for ComputeCostGbhr {
    fn default() -> Self {
        ComputeCostGbhr {
            executor_memory_gb: 64.0,
            // Matches the engine estimator's assumed throughput; slightly
            // optimistic vs. achieved throughput, reproducing the paper's
            // ~19% cost under-estimation (§7).
            rewrite_bytes_per_hour: 500 * (1 << 30),
        }
    }
}

impl TraitComputer for ComputeCostGbhr {
    fn name(&self) -> &str {
        "compute_cost_gbhr"
    }
    fn direction(&self) -> TraitDirection {
        TraitDirection::Cost
    }
    fn compute(&self, stats: &CandidateStats) -> f64 {
        self.executor_memory_gb
            * (stats.small_bytes as f64 / self.rewrite_bytes_per_hour.max(1) as f64)
    }
}

/// Merge-on-read delete-file debt (benefit for
/// [`DeletionVectorPurge`](crate::kind::JobKind::DeletionVectorPurge)
/// candidates): the number of live delete files a purge rewrite would
/// retire. Zero when the table carries no deletion vectors, so mixing
/// this trait into a MOOP objective is a no-op for insert-only fleets.
#[derive(Debug, Clone, Default)]
pub struct DeleteDebt;

impl TraitComputer for DeleteDebt {
    fn name(&self) -> &str {
        "delete_debt"
    }
    fn direction(&self) -> TraitDirection {
        TraitDirection::Benefit
    }
    fn compute(&self, stats: &CandidateStats) -> f64 {
        stats.delete_file_count as f64
    }
}

/// Unsorted data volume (benefit for
/// [`SortByColumn`](crate::kind::JobKind::SortByColumn) candidates): the
/// connector's [`SORT_DISORDER_METRIC`](crate::kind::SORT_DISORDER_METRIC)
/// fraction scaled by total bytes, expressed in GB so its magnitude is
/// commensurable with GBHr-style traits. Falls back to 0.0 when the
/// connector never emitted the signal — opt-in, like classification.
#[derive(Debug, Clone, Default)]
pub struct SortDisorder;

impl TraitComputer for SortDisorder {
    fn name(&self) -> &str {
        crate::kind::SORT_DISORDER_METRIC
    }
    fn direction(&self) -> TraitDirection {
        TraitDirection::Benefit
    }
    fn compute(&self, stats: &CandidateStats) -> f64 {
        let fraction = stats
            .custom_metric(crate::kind::SORT_DISORDER_METRIC)
            .unwrap_or(0.0)
            .clamp(0.0, 1.0);
        fraction * (stats.total_bytes as f64 / (1u64 << 30) as f64)
    }
}

/// Partition-skew excess (benefit for
/// [`PartitionRelayout`](crate::kind::JobKind::PartitionRelayout)
/// candidates): how far the largest partition's max/mean byte ratio
/// ([`PARTITION_SKEW_METRIC`](crate::kind::PARTITION_SKEW_METRIC)) sits
/// above 1.0 (perfectly even). Falls back to 0.0 when the signal is
/// absent or reports no excess.
#[derive(Debug, Clone, Default)]
pub struct PartitionSkewExcess;

impl TraitComputer for PartitionSkewExcess {
    fn name(&self) -> &str {
        crate::kind::PARTITION_SKEW_METRIC
    }
    fn direction(&self) -> TraitDirection {
        TraitDirection::Benefit
    }
    fn compute(&self, stats: &CandidateStats) -> f64 {
        (stats
            .custom_metric(crate::kind::PARTITION_SKEW_METRIC)
            .unwrap_or(1.0)
            - 1.0)
            .max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SizeBucket;

    const MB: u64 = 1 << 20;

    #[test]
    fn delta_f_counts_small_files() {
        let t = FileCountReduction::default();
        let stats = CandidateStats {
            small_file_count: 42,
            ..CandidateStats::default()
        };
        assert_eq!(t.compute(&stats), 42.0);
        assert_eq!(t.direction(), TraitDirection::Benefit);
    }

    #[test]
    fn delta_f_prefers_planned_estimate_when_enabled() {
        let stats = CandidateStats {
            small_file_count: 42,
            ..CandidateStats::default()
        }
        .with_custom(PLANNED_REDUCTION_METRIC, 17.0);
        let naive = FileCountReduction {
            use_planned_estimate: false,
        };
        let planned = FileCountReduction {
            use_planned_estimate: true,
        };
        assert_eq!(naive.compute(&stats), 42.0);
        assert_eq!(planned.compute(&stats), 17.0);
        // Falls back to naive when the metric is absent.
        let bare = CandidateStats {
            small_file_count: 42,
            ..CandidateStats::default()
        };
        assert_eq!(planned.compute(&bare), 42.0);
    }

    fn histogram_stats(buckets: Vec<(Option<u64>, u64)>, target: u64) -> CandidateStats {
        CandidateStats {
            target_file_size: target,
            size_histogram: buckets
                .into_iter()
                .map(|(upper_bytes, count)| SizeBucket { upper_bytes, count })
                .collect(),
            ..CandidateStats::default()
        }
    }

    #[test]
    fn entropy_zero_when_all_files_at_target() {
        let e = FileEntropy;
        let stats = histogram_stats(vec![(Some(512 * MB), 0), (None, 10)], 512 * MB);
        assert_eq!(e.compute(&stats), 0.0);
    }

    #[test]
    fn entropy_grows_as_files_shrink() {
        let e = FileEntropy;
        // 10 files in the 0–8MB bucket vs 10 files in the 256–512MB bucket.
        let tiny = histogram_stats(vec![(Some(8 * MB), 10), (Some(512 * MB), 0)], 512 * MB);
        let nearly = histogram_stats(vec![(Some(256 * MB), 0), (Some(512 * MB), 10)], 512 * MB);
        assert!(e.compute(&tiny) > e.compute(&nearly));
        assert!(e.compute(&tiny) <= 1.0);
        // Degenerate inputs.
        assert_eq!(e.compute(&CandidateStats::default()), 0.0);
    }

    #[test]
    fn kind_traits_fall_back_to_zero_without_signals() {
        let bare = CandidateStats {
            total_bytes: 10 << 30,
            ..CandidateStats::default()
        };
        assert_eq!(DeleteDebt.compute(&bare), 0.0);
        assert_eq!(SortDisorder.compute(&bare), 0.0);
        assert_eq!(PartitionSkewExcess.compute(&bare), 0.0);
    }

    #[test]
    fn kind_traits_value_their_signals() {
        let stats = CandidateStats {
            total_bytes: 10 << 30,
            delete_file_count: 7,
            ..CandidateStats::default()
        }
        .with_custom(crate::kind::SORT_DISORDER_METRIC, 0.5)
        .with_custom(crate::kind::PARTITION_SKEW_METRIC, 4.0);
        assert_eq!(DeleteDebt.compute(&stats), 7.0);
        // Half of 10 GB unsorted = 5.0 GB of disorder.
        assert!((SortDisorder.compute(&stats) - 5.0).abs() < 1e-9);
        assert!((PartitionSkewExcess.compute(&stats) - 3.0).abs() < 1e-9);
        for t in [
            DeleteDebt.direction(),
            SortDisorder.direction(),
            PartitionSkewExcess.direction(),
        ] {
            assert_eq!(t, TraitDirection::Benefit);
        }
    }

    #[test]
    fn gbhr_matches_paper_formula() {
        let t = ComputeCostGbhr {
            executor_memory_gb: 64.0,
            rewrite_bytes_per_hour: 100,
        };
        let stats = CandidateStats {
            small_bytes: 200,
            ..CandidateStats::default()
        };
        assert!((t.compute(&stats) - 128.0).abs() < 1e-9);
        assert_eq!(t.direction(), TraitDirection::Cost);
    }
}
