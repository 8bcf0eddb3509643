//! Read-only candidate-stats production over a [`SimEnv`].
//!
//! [`LakesimConnector`] produces its [`CandidateStats`] through these
//! builders. Everything here takes `&SimEnv`: an observe never mutates
//! the lake (usage windows are read through the catalog's `_at`
//! accessors, which take the clock as an argument instead of pruning).
//!
//! [`LakesimConnector`]: crate::LakesimConnector

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use autocomp::{CandidateStats, NameInterner, QuotaSignal, SizeBucket, TableRef};
use lakesim_engine::SimEnv;
use lakesim_lst::{plan_partition_rewrite, plan_table_rewrite, BinPackConfig, TableId, TableStats};
use lakesim_storage::{FileId, SizeHistogram};

use crate::observe::ObserveOptions;

/// Converts lakesim's [`TableStats`] into the standardized layout. With
/// `transform_signals`, the custom metrics driving transformation-aware
/// job classification ([`autocomp::JobKind::classify`]) are emitted:
/// `transforms_enabled`, the unsorted-bytes fraction, and (for tables
/// with ≥ 2 partitions) the max/mean partition-size ratio.
pub(crate) fn convert(
    table_stats: &TableStats,
    created_at_ms: u64,
    last_write_ms: Option<u64>,
    write_frequency: f64,
    quota: Option<QuotaSignal>,
    planned_reduction: Option<f64>,
    transform_signals: bool,
) -> CandidateStats {
    let mut histogram: Vec<SizeBucket> = table_stats
        .histogram
        .edges()
        .iter()
        .zip(table_stats.histogram.counts())
        .map(|(edge, count)| SizeBucket {
            upper_bytes: Some(*edge),
            count: *count,
        })
        .collect();
    if let Some(overflow) = table_stats
        .histogram
        .counts()
        .get(table_stats.histogram.edges().len())
    {
        histogram.push(SizeBucket {
            upper_bytes: None,
            count: *overflow,
        });
    }
    let mut stats = CandidateStats {
        file_count: table_stats.file_count,
        small_file_count: table_stats.small_file_count,
        small_bytes: table_stats.small_bytes,
        total_bytes: table_stats.total_bytes,
        delete_file_count: table_stats.delete_file_count,
        partition_count: table_stats.partition_count,
        target_file_size: table_stats.target_file_size,
        created_at_ms,
        last_write_ms,
        write_frequency_per_hour: write_frequency,
        quota,
        size_histogram: histogram,
        custom: Default::default(),
    };
    if let Some(planned) = planned_reduction {
        stats = stats.with_custom(autocomp::traits::PLANNED_REDUCTION_METRIC, planned);
    }
    if transform_signals {
        stats = stats.with_custom(autocomp::TRANSFORMS_ENABLED_METRIC, 1.0);
        if table_stats.total_bytes > 0 {
            stats = stats.with_custom(
                autocomp::SORT_DISORDER_METRIC,
                table_stats.unsorted_data_bytes as f64 / table_stats.total_bytes as f64,
            );
            if table_stats.partition_count >= 2 {
                // max/mean ratio: mean partition bytes = total/count.
                stats = stats.with_custom(
                    autocomp::PARTITION_SKEW_METRIC,
                    table_stats.max_partition_bytes as f64 * table_stats.partition_count as f64
                        / table_stats.total_bytes as f64,
                );
            }
        }
    }
    stats
}

fn bin_pack_config(target: u64, min_input_files: usize) -> BinPackConfig {
    BinPackConfig {
        target_file_size: target,
        small_file_fraction: crate::SMALL_FILE_FRACTION,
        min_input_files,
    }
}

/// Lists the catalog's tables as [`TableRef`]s, sharing database-name
/// allocations through `interner` (one `Arc<str>` per database instead of
/// one per table per cycle).
pub(crate) fn list_refs(env: &SimEnv, interner: &mut NameInterner) -> Vec<TableRef> {
    env.catalog
        .table_ids()
        .into_iter()
        .filter_map(|id| {
            let entry = env.catalog.table(id).ok()?;
            Some(TableRef {
                table_uid: id.0,
                database: interner.get_or_intern(entry.table.database()),
                name: Arc::from(entry.table.name()),
                partitioned: entry.table.spec().is_partitioned(),
                compaction_enabled: entry.policy.compaction_enabled,
                is_intermediate: entry.policy.is_intermediate,
            })
        })
        .collect()
}

/// Read-only table-scope stats; `None` if the table vanished.
pub(crate) fn table_stats(
    env: &SimEnv,
    table_uid: u64,
    options: &ObserveOptions,
    quota: Option<QuotaSignal>,
) -> Option<CandidateStats> {
    let now = env.clock.now();
    let entry = env.catalog.table(TableId(table_uid)).ok()?;
    let target = entry.policy.target_file_size;
    let stats = entry.table.stats(target);
    let planned = options.compute_planned_estimates.then(|| {
        let cfg = bin_pack_config(target, entry.policy.min_input_files);
        plan_table_rewrite(&entry.table, &cfg).expected_reduction() as f64
    });
    Some(convert(
        &stats,
        entry.usage.created_at_ms,
        entry.usage.last_write_ms,
        entry.usage.write_frequency_per_hour_at(now),
        quota,
        planned,
        options.transform_signals,
    ))
}

/// Read-only per-partition stats; empty if the table vanished or is
/// unpartitioned.
pub(crate) fn partition_stats(
    env: &SimEnv,
    table_uid: u64,
    options: &ObserveOptions,
    quota: Option<QuotaSignal>,
) -> Vec<(String, CandidateStats)> {
    let now = env.clock.now();
    let Ok(entry) = env.catalog.table(TableId(table_uid)) else {
        return Vec::new();
    };
    let target = entry.policy.target_file_size;
    let created = entry.usage.created_at_ms;
    let last_write = entry.usage.last_write_ms;
    let freq = entry.usage.write_frequency_per_hour_at(now);
    entry
        .table
        .partition_keys()
        .into_iter()
        .map(|key| {
            let stats = entry.table.partition_stats(&key, target);
            let planned = options.compute_planned_estimates.then(|| {
                let cfg = bin_pack_config(target, entry.policy.min_input_files);
                plan_partition_rewrite(&entry.table, &key, &cfg).expected_reduction() as f64
            });
            (
                key.to_string(),
                convert(
                    &stats,
                    created,
                    last_write,
                    freq,
                    quota,
                    planned,
                    options.transform_signals,
                ),
            )
        })
        .collect()
}

/// Read-only snapshot-window stats (§4.1 snapshot scope): files added by
/// snapshots within `window_ms` of now that are still live.
pub(crate) fn snapshot_stats(
    env: &SimEnv,
    table_uid: u64,
    window_ms: u64,
    quota: Option<QuotaSignal>,
) -> Option<CandidateStats> {
    let now = env.clock.now();
    let entry = env.catalog.table(TableId(table_uid)).ok()?;
    let target = entry.policy.target_file_size;
    let cutoff = now.saturating_sub(window_ms);
    let mut stats = TableStats {
        file_count: 0,
        small_file_count: 0,
        small_bytes: 0,
        total_bytes: 0,
        delete_file_count: 0,
        partition_count: 0,
        manifest_count: entry.table.manifests().len() as u64,
        snapshot_count: entry.table.snapshots().len() as u64,
        histogram: SizeHistogram::new(),
        target_file_size: target,
        unsorted_data_bytes: 0,
        max_partition_bytes: 0,
    };
    // Cost follows the window's commits, not the table's age: look up
    // what the window's snapshots added instead of scanning the live set
    // (the set only collapses an id re-added inside the window).
    let fresh: BTreeSet<FileId> = entry
        .table
        .snapshots()
        .iter()
        .filter(|snap| snap.timestamp_ms >= cutoff)
        .flat_map(|snap| snap.added.iter().copied())
        .collect();
    let mut partitions = BTreeSet::new();
    for f in fresh.iter().filter_map(|id| entry.table.file(*id)) {
        stats.file_count += 1;
        stats.total_bytes += f.file_size_bytes;
        partitions.insert(&f.partition);
        if f.content.is_deletes() {
            stats.delete_file_count += 1;
        } else {
            stats.histogram.record(f.file_size_bytes);
            if f.file_size_bytes < target {
                stats.small_file_count += 1;
                stats.small_bytes += f.file_size_bytes;
            }
        }
    }
    stats.partition_count = partitions.len() as u64;
    Some(convert(
        &stats,
        entry.usage.created_at_ms,
        entry.usage.last_write_ms,
        entry.usage.write_frequency_per_hour_at(now),
        quota,
        None,
        // Snapshot-window candidates never carry transform signals: the
        // window is a file subset, so whole-table sort/skew/purge
        // classification would mislabel it.
        false,
    ))
}

/// Memoizes per-database quota signals across the candidates of one
/// observe batch: the historical path re-read `fs.quota_usage` once per
/// table (and once per partitioned table's candidate set), which at fleet
/// scale is thousands of identical lookups per cycle. Entries are keyed
/// by an epoch of the storage layer's cumulative create/delete counters
/// plus its namespace-config counter, so any quota-changing event —
/// file churn or a `set_quota` edit — invalidates the memo while an
/// unchanged lake reuses it across cycles.
#[derive(Debug, Default)]
pub(crate) struct QuotaCache {
    epoch: (u64, u64, u64),
    by_db: BTreeMap<String, Option<QuotaSignal>>,
}

impl QuotaCache {
    /// Quota signal for `database`, from the memo when the epoch matches.
    pub(crate) fn get(&mut self, env: &SimEnv, database: &str) -> Option<QuotaSignal> {
        let rpc = env.fs.rpc_counters();
        let epoch = (rpc.creates, rpc.deletes, env.fs.config_epoch());
        if epoch != self.epoch {
            self.by_db.clear();
            self.epoch = epoch;
        }
        if let Some(cached) = self.by_db.get(database) {
            return *cached;
        }
        let quota = env.fs.quota_usage(database).ok().map(|q| QuotaSignal {
            used: q.used,
            total: q.quota,
        });
        self.by_db.insert(database.to_string(), quota);
        quota
    }
}

/// Resolves the database of `table_uid` and its (memoized) quota signal.
pub(crate) fn quota_for_table(
    env: &SimEnv,
    cache: &mut QuotaCache,
    table_uid: u64,
) -> Option<QuotaSignal> {
    let entry = env.catalog.table(TableId(table_uid)).ok()?;
    cache.get(env, entry.table.database())
}
