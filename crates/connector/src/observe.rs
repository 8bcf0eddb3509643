//! The observe-side connector: catalog/LST/storage → `CandidateStats`.
//!
//! [`LakesimConnector`] observes over the shared `Rc<RefCell<SimEnv>>`.
//! Stats production itself is read-only (`crate::stats`); per-cycle
//! costs are amortized with a database-name interner and a per-batch
//! quota memo, and the engine's commit changelog is surfaced as a change
//! cursor so incremental (dirty-set) observes re-fetch only written
//! tables.
//!
//! # Why the event-driven runtime fetches more tables than changed
//!
//! On the benchmark's `lake_fleet`, `observe.fetch_waste_ratio` is 1.77
//! stats reads per table actually dirtied or settled. The residue is an
//! ordering effect, not a leak. `CommitEventBridge` delivers a day's
//! commit events only after the lake's changelog already holds all of
//! them, so the day's first round learns every changed table (~4 000)
//! from `changes_since` and fetches them all; the events still queued
//! then dirty-mark the same tables 200 at a time, and each of the next 19
//! rounds re-fetches its 200 although they were already observed past
//! their commit: 4 000 + 19 × 200 = 7 800 reads for 4 400 dirty-or-settled
//! tables. Skipping a re-fetch by table version is deliberately not done:
//! `write_frequency_per_hour_at(now)` makes a read depend on the clock, so
//! a skipped read can change stats bits and with them every downstream
//! decision. A table-scope read assembles statistics the table maintained
//! at commit (see `lakesim_lst`'s `stats` module) and costs well under a
//! microsecond at any table age, so the residue is cheap.

use std::cell::RefCell;

use autocomp::{CandidateStats, ChangeCursor, LakeConnector, NameInterner, TableRef};

use crate::stats::{self, QuotaCache};
use crate::SharedEnv;

/// Options controlling stats production; both default to off.
#[derive(Debug, Clone, Default)]
pub struct ObserveOptions {
    /// Also compute the partition-aware `planned_reduction` custom metric
    /// by dry-running the bin-packing planner (§7's estimator refinement).
    /// Costs a planning pass per candidate.
    pub compute_planned_estimates: bool,
    /// Emit the transformation-classification custom metrics
    /// (`transforms_enabled`, sort disorder, partition skew) so the
    /// decide phase can label candidates with non-merge
    /// [`autocomp::JobKind`]s. Off by default: pre-existing pipelines
    /// keep classifying everything as merge, bit-for-bit.
    pub transform_signals: bool,
}

/// [`LakeConnector`] implementation over the simulated lake.
///
/// It implements the seven reads of the lake's data model: the listing,
/// the table, partition and snapshot statistics, the change cursor, the
/// listing epoch (the catalog's registry epoch) and the changelog. An
/// in-memory simulation cannot fail a read, so the fallible `try_*`
/// reads are the trait's defaults and never fault. Tests that exercise
/// the observe driver's degradation wrap the connector in a fault
/// injector instead; nothing here knows about one.
pub struct LakesimConnector {
    env: SharedEnv,
    options: ObserveOptions,
    /// Shares one `Arc<str>` per database across the fleet listing.
    interner: RefCell<NameInterner>,
    /// One quota lookup per database per storage epoch, instead of one
    /// per table/partition candidate.
    quota: RefCell<QuotaCache>,
}

impl LakesimConnector {
    /// Creates a connector over a shared environment.
    pub fn new(env: SharedEnv) -> Self {
        Self::with_options(env, ObserveOptions::default())
    }

    /// Creates a connector with custom options.
    pub fn with_options(env: SharedEnv, options: ObserveOptions) -> Self {
        LakesimConnector {
            env,
            options,
            interner: RefCell::new(NameInterner::new()),
            quota: RefCell::new(QuotaCache::default()),
        }
    }
}

impl LakeConnector for LakesimConnector {
    fn list_tables(&self) -> Vec<TableRef> {
        let env = self.env.borrow();
        stats::list_refs(&env, &mut self.interner.borrow_mut())
    }

    fn table_stats(&self, table_uid: u64) -> Option<CandidateStats> {
        let env = self.env.borrow();
        let quota = stats::quota_for_table(&env, &mut self.quota.borrow_mut(), table_uid);
        stats::table_stats(&env, table_uid, &self.options, quota)
    }

    fn partition_stats(&self, table_uid: u64) -> Vec<(String, CandidateStats)> {
        let env = self.env.borrow();
        let quota = stats::quota_for_table(&env, &mut self.quota.borrow_mut(), table_uid);
        stats::partition_stats(&env, table_uid, &self.options, quota)
    }

    fn snapshot_stats(&self, table_uid: u64, window_ms: u64) -> Option<CandidateStats> {
        let env = self.env.borrow();
        let quota = stats::quota_for_table(&env, &mut self.quota.borrow_mut(), table_uid);
        stats::snapshot_stats(&env, table_uid, window_ms, quota)
    }

    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        Some(ChangeCursor(self.env.borrow().change_cursor()))
    }

    fn listing_epoch(&self) -> Option<u64> {
        // The catalog's registry epoch moves only on create/drop/policy
        // edits — not on data commits — so an unchanged value lets the
        // observe drivers share the prior cycle's listing wholesale.
        Some(self.env.borrow().catalog.registry_epoch())
    }

    fn changes_since(&self, cursor: ChangeCursor) -> Option<Vec<u64>> {
        self.env
            .borrow()
            .changes_since(cursor.0)
            .map(|tables| tables.into_iter().map(|t| t.0).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share;
    use autocomp::{FleetObserver, ScopeStrategy};
    use lakesim_catalog::TablePolicy;
    use lakesim_engine::{EnvConfig, FileSizePlan, SimEnv, WriteSpec};
    use lakesim_lst::{
        ColumnType, Field, PartitionKey, PartitionSpec, PartitionValue, Schema, Table, TableId,
        TableProperties, TableStats, Transform,
    };
    use lakesim_storage::MB;

    fn setup() -> (SharedEnv, u64) {
        let mut env = SimEnv::new(EnvConfig {
            seed: 3,
            ..EnvConfig::default()
        });
        env.create_database("db", "tenant", Some(100_000)).unwrap();
        let schema = Schema::new(vec![
            Field::new(1, "k", ColumnType::Int64, true),
            Field::new(2, "ds", ColumnType::Date, true),
        ])
        .unwrap();
        let t = env
            .create_table(
                "db",
                "events",
                schema,
                PartitionSpec::single(2, Transform::Month, "m"),
                TableProperties::default(),
                TablePolicy::default(),
            )
            .unwrap();
        for p in 0..3 {
            let spec = WriteSpec::insert(
                t,
                PartitionKey::single(PartitionValue::Date(p)),
                64 * MB,
                FileSizePlan::trickle(),
                "query",
            );
            env.submit_write(&spec, (p as u64) * 100_000).unwrap();
        }
        env.drain_all();
        (share(env), t.0)
    }

    #[test]
    fn lists_tables_with_flags() {
        let (env, uid) = setup();
        let connector = LakesimConnector::new(env);
        let tables = connector.list_tables();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].table_uid, uid);
        assert!(tables[0].partitioned);
        assert!(tables[0].compaction_enabled);
    }

    #[test]
    fn table_stats_carry_quota_and_histogram() {
        let (env, uid) = setup();
        let connector = LakesimConnector::new(env);
        let stats = connector.table_stats(uid).unwrap();
        assert!(stats.file_count > 3);
        assert_eq!(stats.small_file_count, stats.file_count); // all trickle files small
        assert_eq!(stats.partition_count, 3);
        let quota = stats.quota.unwrap();
        assert!(quota.used > 0 && quota.total == 100_000);
        assert!(!stats.size_histogram.is_empty());
        let total_in_hist: u64 = stats.size_histogram.iter().map(|b| b.count).sum();
        assert_eq!(total_in_hist, stats.file_count); // no delete files here
    }

    #[test]
    fn partition_stats_sum_to_table_stats() {
        let (env, uid) = setup();
        let connector = LakesimConnector::new(env);
        let table = connector.table_stats(uid).unwrap();
        let parts = connector.partition_stats(uid);
        assert_eq!(parts.len(), 3);
        let sum_files: u64 = parts.iter().map(|(_, s)| s.file_count).sum();
        assert_eq!(sum_files, table.file_count);
        // Labels are the partition display strings.
        assert!(parts.iter().all(|(label, _)| label.starts_with('(')));
    }

    #[test]
    fn planned_estimates_respect_partitions() {
        let (env, uid) = setup();
        let connector = LakesimConnector::with_options(
            env,
            ObserveOptions {
                compute_planned_estimates: true,
                transform_signals: false,
            },
        );
        let stats = connector.table_stats(uid).unwrap();
        let planned = stats
            .custom_metric(autocomp::traits::PLANNED_REDUCTION_METRIC)
            .unwrap();
        // Partition-aware estimate never exceeds the naive count.
        assert!(planned <= stats.small_file_count as f64);
        assert!(planned > 0.0);
    }

    #[test]
    fn transform_signals_are_opt_in() {
        let (env, uid) = setup();
        let plain = LakesimConnector::new(env.clone());
        let stats = plain.table_stats(uid).unwrap();
        assert!(stats
            .custom_metric(autocomp::TRANSFORMS_ENABLED_METRIC)
            .is_none());
        let connector = LakesimConnector::with_options(
            env,
            ObserveOptions {
                transform_signals: true,
                ..ObserveOptions::default()
            },
        );
        let stats = connector.table_stats(uid).unwrap();
        assert_eq!(
            stats.custom_metric(autocomp::TRANSFORMS_ENABLED_METRIC),
            Some(1.0)
        );
        // Every ingest write is unsorted, so disorder is 1.0; the three
        // equal partitions carry no skew above the mean.
        assert_eq!(
            stats.custom_metric(autocomp::SORT_DISORDER_METRIC),
            Some(1.0)
        );
        let skew = stats
            .custom_metric(autocomp::PARTITION_SKEW_METRIC)
            .unwrap();
        assert!(
            (1.0..1.5).contains(&skew),
            "even partitions ⇒ skew ≈ 1: {skew}"
        );
    }

    /// Every `TableStats` field recounted from the live files of one
    /// partition or (`None`) the whole table.
    fn recount(table: &Table, scope: Option<&PartitionKey>, target: u64) -> TableStats {
        let mut stats = TableStats {
            file_count: 0,
            small_file_count: 0,
            small_bytes: 0,
            total_bytes: 0,
            delete_file_count: 0,
            partition_count: 0,
            manifest_count: table.manifests().len() as u64,
            snapshot_count: table.snapshots().len() as u64,
            histogram: lakesim_storage::SizeHistogram::new(),
            target_file_size: target,
            unsorted_data_bytes: 0,
            max_partition_bytes: 0,
        };
        let mut partition_bytes = std::collections::BTreeMap::new();
        for f in table
            .live_files()
            .filter(|f| scope.is_none_or(|key| &f.partition == key))
        {
            stats.file_count += 1;
            stats.total_bytes += f.file_size_bytes;
            *partition_bytes.entry(&f.partition).or_insert(0) += f.file_size_bytes;
            if f.content.is_deletes() {
                stats.delete_file_count += 1;
                continue;
            }
            stats.histogram.record(f.file_size_bytes);
            if f.file_size_bytes < target {
                stats.small_file_count += 1;
                stats.small_bytes += f.file_size_bytes;
            }
            if !f.sorted {
                stats.unsorted_data_bytes += f.file_size_bytes;
            }
        }
        stats.partition_count = partition_bytes.len() as u64;
        stats.max_partition_bytes = partition_bytes.values().copied().max().unwrap_or(0);
        stats
    }

    /// The connector reads statistics the table maintained commit by
    /// commit. After days of inserts and MoR deltas with merge and sort
    /// rewrites applied in between, both scopes must equal `convert` over
    /// a recount of the live files, transform metrics included.
    #[test]
    fn maintained_stats_equal_a_recount_after_days_of_writes_and_compaction() {
        use autocomp::{Candidate, CandidateId, CompactionExecutor, JobKind, Prediction};
        const DAY_MS: u64 = 86_400_000;

        let mut env = SimEnv::new(EnvConfig {
            seed: 11,
            ..EnvConfig::default()
        });
        env.create_database("db", "tenant", Some(100_000)).unwrap();
        let schema = Schema::new(vec![
            Field::new(1, "k", ColumnType::Int64, true),
            Field::new(2, "ds", ColumnType::Date, true),
        ])
        .unwrap();
        let tables: Vec<TableId> = (0..3)
            .map(|i| {
                env.create_table(
                    "db",
                    &format!("t{i}"),
                    schema.clone(),
                    PartitionSpec::single(2, Transform::Day, "ds"),
                    TableProperties::default(),
                    TablePolicy::default(),
                )
                .unwrap()
            })
            .collect();
        let env = share(env);
        let options = ObserveOptions {
            transform_signals: true,
            ..ObserveOptions::default()
        };
        let connector = LakesimConnector::with_options(env.clone(), options);
        let mut executor = crate::LakesimExecutor::new(env.clone());

        for day in 0..6u64 {
            let at = day * DAY_MS;
            for (i, &table) in tables.iter().enumerate() {
                let today = PartitionKey::single(PartitionValue::Date(day as i32));
                let mut write = WriteSpec::insert(
                    table,
                    today,
                    (96 + 40 * i as u64) * MB,
                    FileSizePlan::misconfigured(),
                    "query",
                );
                let mut env = env.borrow_mut();
                env.submit_write(&write, at + 1_000).unwrap();
                if (day + i as u64).is_multiple_of(2) {
                    write.op = lakesim_engine::WriteOp::MergeOnReadDelta;
                    env.submit_write(&write, at + 2_000).unwrap();
                }
            }
            env.borrow_mut().drain_due(at + DAY_MS / 2);
            // Every other day: merge table 0, sort table 1; table 2 only
            // ever accumulates.
            if day % 2 == 1 {
                let listing = connector.list_tables();
                for (table, kind) in [
                    (tables[0], JobKind::Merge),
                    (tables[1], JobKind::SortByColumn),
                ] {
                    let table_ref = listing.iter().find(|t| t.table_uid == table.0).unwrap();
                    let stats = connector.table_stats(table.0).unwrap();
                    let candidate = Candidate::new(CandidateId::table(table.0), table_ref, stats);
                    let prediction = Prediction {
                        reduction: 1,
                        gbhr: 0.1,
                        trigger: "test".into(),
                        kind,
                    };
                    let result = executor.execute(&candidate, &prediction, at + DAY_MS / 2);
                    assert!(result.scheduled, "{:?}", result.error);
                }
                env.borrow_mut().drain_all();
            }
        }

        let env = env.borrow();
        let now = env.clock.now();
        let quota = QuotaCache::default().get(&env, "db");
        let mut sorted_bytes = 0;
        for table in tables {
            let entry = env.catalog.table(table).unwrap();
            let target = entry.policy.target_file_size;
            let expect = |scope: Option<&PartitionKey>| {
                stats::convert(
                    &recount(&entry.table, scope, target),
                    entry.usage.created_at_ms,
                    entry.usage.last_write_ms,
                    entry.usage.write_frequency_per_hour_at(now),
                    quota,
                    None,
                    true,
                )
            };
            assert_eq!(connector.table_stats(table.0), Some(expect(None)));
            let keys = entry.table.partition_keys();
            let parts = connector.partition_stats(table.0);
            assert_eq!(parts.len(), keys.len());
            for (key, (label, stats)) in keys.iter().zip(parts) {
                assert_eq!(label, key.to_string());
                assert_eq!(stats, expect(Some(key)), "{label}");
            }
            let whole = recount(&entry.table, None, target);
            sorted_bytes += whole.histogram.total_bytes() - whole.unsorted_data_bytes;
        }
        assert!(sorted_bytes > 0, "the sort rewrites left sorted files");
        let merges = env.maintenance.count(lakesim_catalog::JobStatus::Succeeded);
        assert!(merges >= 4, "rewrites committed: {merges}");
    }

    #[test]
    fn snapshot_stats_cover_only_fresh_files() {
        let (env, uid) = setup();
        let connector = LakesimConnector::new(env.clone());
        let now = env.borrow().clock.now();
        // Window covering only the last write.
        let fresh = connector.snapshot_stats(uid, 1).unwrap();
        let all = connector.snapshot_stats(uid, now + 1).unwrap();
        assert!(fresh.file_count < all.file_count);
        assert!(all.file_count > 0);
    }

    #[test]
    fn missing_table_yields_none() {
        let (env, _) = setup();
        let connector = LakesimConnector::new(env);
        assert!(connector.table_stats(999).is_none());
        assert!(connector.partition_stats(999).is_empty());
    }

    #[test]
    fn cursor_surfaces_the_engine_changelog() {
        let (env, uid) = setup();
        let connector = LakesimConnector::new(env.clone());
        let cursor = connector.fleet_cursor().unwrap();
        assert_eq!(connector.changes_since(cursor), Some(Vec::new()));
        let spec = WriteSpec::insert(
            lakesim_lst::TableId(uid),
            PartitionKey::single(PartitionValue::Date(9)),
            16 * MB,
            FileSizePlan::trickle(),
            "query",
        );
        {
            let mut env = env.borrow_mut();
            let now = env.clock.now();
            env.submit_write(&spec, now + 1).unwrap();
            env.drain_all();
        }
        assert_eq!(connector.changes_since(cursor), Some(vec![uid]));
    }

    #[test]
    fn incremental_observe_reuses_quiet_tables() {
        let (env, _) = setup();
        let connector = LakesimConnector::new(env.clone());
        let mut observer = FleetObserver::new();
        let first = observer
            .observe(&connector, ScopeStrategy::Hybrid)
            .to_candidates();
        // No writes in between: the second observe reuses everything and
        // reproduces the same candidates.
        let second = observer.observe(&connector, ScopeStrategy::Hybrid);
        assert_eq!(second.reused_tables(), 1);
        assert_eq!(second.fetched_tables(), 0);
        assert_eq!(second.to_candidates(), first);
    }

    #[test]
    fn quota_memo_invalidates_on_quota_edits() {
        let (env, uid) = setup();
        let connector = LakesimConnector::new(env.clone());
        let before = connector.table_stats(uid).unwrap().quota.unwrap();
        assert_eq!(before.total, 100_000);
        // A quota edit with no file churn must still bust the memo.
        env.borrow_mut().fs.set_quota("db", Some(50_000)).unwrap();
        let after = connector.table_stats(uid).unwrap().quota.unwrap();
        assert_eq!(after.total, 50_000);
        assert_eq!(after.used, before.used);
    }

    #[test]
    fn listing_epoch_shares_listings_until_registry_changes() {
        use std::sync::Arc;
        let (env, uid) = setup();
        let connector = LakesimConnector::new(env.clone());
        let mut observer = FleetObserver::new();
        let first = observer.observe(&connector, ScopeStrategy::Table).clone();
        assert!(first.listing_epoch().is_some());

        // A data commit moves the changelog but not the registry epoch:
        // the next observe re-fetches the dirty table yet shares the
        // prior listing (one Arc bump — PR 3's fleet-listing reuse now
        // engages on the simulated lake).
        {
            let mut env = env.borrow_mut();
            let now = env.clock.now();
            let spec = WriteSpec::insert(
                lakesim_lst::TableId(uid),
                PartitionKey::single(PartitionValue::Date(7)),
                16 * MB,
                FileSizePlan::trickle(),
                "query",
            );
            env.submit_write(&spec, now + 1).unwrap();
            env.drain_all();
        }
        let second = observer.observe(&connector, ScopeStrategy::Table).clone();
        assert_eq!(second.fetched_tables(), 1);
        assert!(
            Arc::ptr_eq(&first.tables()[0].database, &second.tables()[0].database),
            "unchanged registry epoch ⇒ shared listing"
        );
        assert_eq!(first.listing_epoch(), second.listing_epoch());

        // A policy edit bumps the registry epoch: the listing is
        // re-materialized and carries the new descriptor.
        env.borrow_mut()
            .catalog
            .update_policy(lakesim_lst::TableId(uid), |p| p.compaction_enabled = false)
            .unwrap();
        let third = observer.observe(&connector, ScopeStrategy::Table);
        assert_ne!(second.listing_epoch(), third.listing_epoch());
        assert!(!third.tables()[0].compaction_enabled);
    }

    #[test]
    fn shared_names_are_interned_across_listings() {
        let (env, _) = setup();
        let connector = LakesimConnector::new(env);
        let a = connector.list_tables();
        let b = connector.list_tables();
        assert!(std::sync::Arc::ptr_eq(&a[0].database, &b[0].database));
    }
}
