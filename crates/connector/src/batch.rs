//! The `Sync` connector over the simulated lake.
//!
//! [`crate::LakesimConnector`] shares the environment through
//! `Rc<RefCell<SimEnv>>`, which is not `Sync`, so its stats fetch stays
//! on the caller thread. This module provides the shareable variant —
//! [`SyncSharedEnv`] wraps the environment in `Arc<RwLock<_>>`, and
//! [`BatchLakesimConnector`] is a [`LakeConnector`] with read-only stats
//! production (shared with the `Rc<RefCell>` connector via
//! `crate::stats`) whose `observe()` is
//! [`batch_observe`](autocomp::observe::batch_observe): per-table stats
//! fan out over scoped threads, each worker holding only a read lock.
//!
//! Determinism is preserved (NFR2): workers are handed position-stable
//! chunks and stats production never mutates the environment, so a
//! fanned-out observation is bit-identical to the sequential connector's
//! over the same lake state — pinned by the parity suite.

use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

use autocomp::{
    CandidateStats, ChangeCursor, FleetObservation, LakeConnector, NameInterner, ObserveFault,
    ObserveRequest, TableRef,
};
use lakesim_engine::SimEnv;

use crate::faults::ObserveFaultScript;
use crate::observe::ObserveOptions;
use crate::stats::{self, QuotaCache};

/// Thread-shareable handle to the simulation environment.
pub type SyncSharedEnv = Arc<RwLock<SimEnv>>;

/// Wraps an environment for sharing across threads (the `Sync`
/// counterpart of [`crate::share`]).
pub fn share_sync(env: SimEnv) -> SyncSharedEnv {
    Arc::new(RwLock::new(env))
}

/// `Sync` [`LakeConnector`] over the simulated lake: the same stats as
/// [`crate::LakesimConnector`], produced under read locks so `observe()`
/// fans out.
pub struct BatchLakesimConnector {
    env: SyncSharedEnv,
    options: ObserveOptions,
    interner: Mutex<NameInterner>,
    quota: Mutex<QuotaCache>,
    /// Optional scripted fault schedule consumed by the `try_*` reads
    /// (see [`crate::faults`]); `None` never faults.
    faults: Option<Arc<ObserveFaultScript>>,
}

impl BatchLakesimConnector {
    /// Creates a connector over a shareable environment.
    pub fn new(env: SyncSharedEnv) -> Self {
        Self::with_options(env, ObserveOptions::default())
    }

    /// Creates a connector with custom options.
    pub fn with_options(env: SyncSharedEnv, options: ObserveOptions) -> Self {
        BatchLakesimConnector {
            env,
            options,
            interner: Mutex::new(NameInterner::new()),
            quota: Mutex::new(QuotaCache::default()),
            faults: None,
        }
    }

    /// Attaches a scripted fault schedule (builder style); see
    /// [`crate::LakesimConnector::with_fault_script`].
    pub fn with_fault_script(mut self, script: Arc<ObserveFaultScript>) -> Self {
        self.faults = Some(script);
        self
    }

    fn injected_stats_fault(&self, table_uid: u64) -> Option<ObserveFault> {
        self.faults.as_ref().and_then(|s| s.pop_stats(table_uid))
    }

    fn env(&self) -> RwLockReadGuard<'_, SimEnv> {
        self.env.read().expect("environment lock poisoned")
    }

    fn quota_for(&self, env: &SimEnv, table_uid: u64) -> Option<autocomp::QuotaSignal> {
        stats::quota_for_table(env, &mut self.quota.lock().expect("quota memo"), table_uid)
    }
}

impl LakeConnector for BatchLakesimConnector {
    fn observe(&self, request: &ObserveRequest<'_>) -> FleetObservation {
        autocomp::observe::batch_observe(self, request)
    }

    fn list_tables(&self) -> Vec<TableRef> {
        let env = self.env();
        stats::list_refs(&env, &mut self.interner.lock().expect("interner"))
    }

    fn table_stats(&self, table_uid: u64) -> Option<CandidateStats> {
        let env = self.env();
        let quota = self.quota_for(&env, table_uid);
        stats::table_stats(&env, table_uid, &self.options, quota)
    }

    fn partition_stats(&self, table_uid: u64) -> Vec<(String, CandidateStats)> {
        let env = self.env();
        let quota = self.quota_for(&env, table_uid);
        stats::partition_stats(&env, table_uid, &self.options, quota)
    }

    fn snapshot_stats(&self, table_uid: u64, window_ms: u64) -> Option<CandidateStats> {
        let env = self.env();
        let quota = self.quota_for(&env, table_uid);
        stats::snapshot_stats(&env, table_uid, window_ms, quota)
    }

    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        Some(ChangeCursor(self.env().change_cursor()))
    }

    fn listing_epoch(&self) -> Option<u64> {
        // See `LakesimConnector::listing_epoch`: create/drop/policy-scoped
        // registry epoch, stable across data commits.
        Some(self.env().catalog.registry_epoch())
    }

    fn changes_since(&self, cursor: ChangeCursor) -> Option<Vec<u64>> {
        self.env()
            .changes_since(cursor.0)
            .map(|tables| tables.into_iter().map(|t| t.0).collect())
    }

    // Fallible reads — same injection-before-read discipline as
    // `LakesimConnector`, so vanish keeps surfacing as `Ok(None)`.

    fn try_list_tables(&self) -> Result<Vec<TableRef>, ObserveFault> {
        if let Some(fault) = self.faults.as_ref().and_then(|s| s.pop_listing()) {
            return Err(fault);
        }
        Ok(self.list_tables())
    }

    fn try_table_stats(&self, table_uid: u64) -> Result<Option<CandidateStats>, ObserveFault> {
        if let Some(fault) = self.injected_stats_fault(table_uid) {
            return Err(fault);
        }
        Ok(self.table_stats(table_uid))
    }

    fn try_partition_stats(
        &self,
        table_uid: u64,
    ) -> Result<Vec<(String, CandidateStats)>, ObserveFault> {
        if let Some(fault) = self.injected_stats_fault(table_uid) {
            return Err(fault);
        }
        Ok(self.partition_stats(table_uid))
    }

    fn try_snapshot_stats(
        &self,
        table_uid: u64,
        window_ms: u64,
    ) -> Result<Option<CandidateStats>, ObserveFault> {
        if let Some(fault) = self.injected_stats_fault(table_uid) {
            return Err(fault);
        }
        Ok(self.snapshot_stats(table_uid, window_ms))
    }

    fn try_changes_since(&self, cursor: ChangeCursor) -> Result<Option<Vec<u64>>, ObserveFault> {
        match self.faults.as_ref().and_then(|s| s.pop_changelog()) {
            Some(crate::faults::ChangelogEvent::Fault(fault)) => Err(fault),
            Some(crate::faults::ChangelogEvent::Overflow) => Ok(None),
            None => Ok(self.changes_since(cursor)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocomp::ScopeStrategy;
    use lakesim_catalog::TablePolicy;
    use lakesim_engine::{EnvConfig, FileSizePlan, WriteSpec};
    use lakesim_lst::{
        ColumnType, Field, PartitionKey, PartitionSpec, PartitionValue, Schema, TableProperties,
        Transform,
    };
    use lakesim_storage::MB;

    fn build_env(tables: u64) -> SimEnv {
        let mut env = SimEnv::new(EnvConfig {
            seed: 11,
            ..EnvConfig::default()
        });
        for i in 0..tables {
            // One database per table so a write dirties exactly one
            // table's quota signal (keeps incremental == cold comparable).
            let db = format!("db{i}");
            env.create_database(&db, "tenant", Some(1_000_000)).unwrap();
            let schema = Schema::new(vec![
                Field::new(1, "k", ColumnType::Int64, true),
                Field::new(2, "ds", ColumnType::Date, true),
            ])
            .unwrap();
            let spec = if i % 2 == 0 {
                PartitionSpec::single(2, Transform::Month, "m")
            } else {
                PartitionSpec::unpartitioned()
            };
            let t = env
                .create_table(
                    &db,
                    &format!("t{i}"),
                    schema,
                    spec,
                    TableProperties::default(),
                    TablePolicy::default(),
                )
                .unwrap();
            let write = WriteSpec::insert(
                t,
                if i % 2 == 0 {
                    PartitionKey::single(PartitionValue::Date(i as i32))
                } else {
                    PartitionKey::unpartitioned()
                },
                16 * MB,
                FileSizePlan::trickle(),
                "query",
            );
            env.submit_write(&write, i * 1000).unwrap();
        }
        env.drain_all();
        env
    }

    #[test]
    fn batch_observation_matches_sequential_tier() {
        for scope in [
            ScopeStrategy::Table,
            ScopeStrategy::Partition,
            ScopeStrategy::Hybrid,
            ScopeStrategy::Snapshot {
                window_ms: u64::MAX,
            },
        ] {
            let sequential = {
                let shared = crate::share(build_env(7));
                let connector = crate::LakesimConnector::new(shared);
                connector.observe(&ObserveRequest::fresh(scope))
            };
            let batched = {
                let shared = share_sync(build_env(7));
                let connector = BatchLakesimConnector::new(shared);
                connector.observe(&ObserveRequest::fresh(scope))
            };
            assert_eq!(sequential, batched, "scope {scope:?}");
        }
    }

    #[test]
    fn batch_cursor_feeds_incremental_observe() {
        let shared = share_sync(build_env(6));
        let connector = BatchLakesimConnector::new(shared.clone());
        let first = connector.observe(&ObserveRequest::fresh(ScopeStrategy::Table));
        assert!(first.cursor().is_some());
        // Write table 2, then observe incrementally: one fetch, rest reused.
        {
            let mut env = shared.write().unwrap();
            let now = env.clock.now();
            let spec = WriteSpec::insert(
                lakesim_lst::TableId(2),
                PartitionKey::single(PartitionValue::Date(2)),
                8 * MB,
                FileSizePlan::trickle(),
                "query",
            );
            env.submit_write(&spec, now + 1).unwrap();
            env.drain_all();
        }
        let second = connector.observe(&ObserveRequest::incremental(ScopeStrategy::Table, &first));
        assert_eq!(second.fetched_tables(), 1);
        assert_eq!(second.reused_tables(), 5);
        // The dirty table's refreshed stats match a cold fetch.
        let cold = connector.observe(&ObserveRequest::fresh(ScopeStrategy::Table));
        assert_eq!(second.to_candidates(), cold.to_candidates());
    }
}
