//! The act-side connector: candidate → bin-pack plan → engine rewrite job,
//! with completion polling over the engine's maintenance log.
//!
//! [`LakesimExecutor`] implements [`CompactionExecutor`] (submit, return
//! scheduling info) and the job runtime's [`TrackedExecutor`] —
//! [`poll`](TrackedExecutor::poll) drains engine commits due by `now` and
//! surfaces every maintenance record appended since the last poll as a
//! [`JobOutcome`], which is what lets `AutoComp::cycle` settle jobs,
//! retry conflicts, and auto-ingest feedback.

use autocomp::{
    Candidate, CompactionExecutor, ExecutionError, ExecutionResult, JobKind, JobOutcome,
    JobOutcomeStatus, Prediction, ScopeKind, TrackedExecutor,
};
use lakesim_catalog::JobStatus;
use lakesim_engine::{EngineError, RewriteOptions};
use lakesim_lst::{
    plan_partition_rewrite, plan_table_rewrite, BinPackConfig, RewritePlan, TableId,
};

use crate::SharedEnv;

/// Cluster compaction runs on (the paper uses a dedicated 3-node cluster,
/// §6).
const CLUSTER: &str = "compaction";

/// Executor parallelism per job.
const PARALLELISM: usize = 3;

/// [`CompactionExecutor`] + [`TrackedExecutor`] implementation over the
/// simulated lake.
pub struct LakesimExecutor {
    env: SharedEnv,
    /// Position in the maintenance log up to which outcomes were already
    /// reported by [`poll`](TrackedExecutor::poll). Starts at the log's
    /// current length, so an executor only reports jobs finished during
    /// its own lifetime.
    log_cursor: usize,
}

impl LakesimExecutor {
    /// Creates an executor over a shared environment.
    pub fn new(env: SharedEnv) -> Self {
        let log_cursor = env.borrow().maintenance.records().len();
        LakesimExecutor { env, log_cursor }
    }

    /// The outcome-delivery cursor: maintenance-log position up to which
    /// [`poll`](TrackedExecutor::poll) has already reported outcomes.
    /// Record it in a snapshot so a restarted executor can resume
    /// delivery exactly where the crashed one stood.
    pub fn log_cursor(&self) -> usize {
        self.log_cursor
    }

    /// Rewinds (or advances) the outcome-delivery cursor — the restore
    /// half of the [`log_cursor`](Self::log_cursor) contract. After a
    /// crash, set the cursor from the snapshot and the next `poll`
    /// re-delivers every outcome the crashed process saw but did not
    /// durably settle; the tracker's settled-id dedupe makes the overlap
    /// harmless.
    pub fn set_log_cursor(&mut self, cursor: usize) {
        self.log_cursor = cursor;
    }

    fn plan_for(&self, candidate: &Candidate) -> Option<RewritePlan> {
        let env = self.env.borrow();
        let id = TableId(candidate.id.table_uid);
        let entry = env.catalog.table(id).ok()?;
        let config = BinPackConfig {
            target_file_size: entry.policy.target_file_size,
            small_file_fraction: crate::SMALL_FILE_FRACTION,
            min_input_files: entry.policy.min_input_files,
        };
        let plan = match candidate.id.scope {
            ScopeKind::Table | ScopeKind::Snapshot => plan_table_rewrite(&entry.table, &config),
            ScopeKind::Partition => {
                let label = candidate.id.partition.as_deref()?;
                // Map the opaque label back to the partition key.
                let key = entry
                    .table
                    .partition_keys()
                    .into_iter()
                    .find(|k| k.to_string() == label)?;
                plan_partition_rewrite(&entry.table, &key, &config)
            }
        };
        Some(plan)
    }
}

impl CompactionExecutor for LakesimExecutor {
    fn execute(
        &mut self,
        candidate: &Candidate,
        prediction: &Prediction,
        now_ms: u64,
    ) -> ExecutionResult {
        // Apply commits completed by now before planning, so the plan's
        // inputs are never already-replaced files.
        self.env.borrow_mut().drain_due(now_ms);
        let opts = RewriteOptions {
            cluster: CLUSTER.to_string(),
            parallelism: PARALLELISM,
            trigger: prediction.trigger.clone(),
            predicted_reduction: prediction.reduction,
            predicted_gbhr: prediction.gbhr,
        };
        // Non-merge kinds are whole-table transformations: they bypass
        // bin-packing and route to the engine's transform entry points.
        let submitted = match prediction.kind {
            JobKind::Merge => {
                let Some(plan) = self.plan_for(candidate) else {
                    // The table (or partition) vanished: retrying cannot
                    // help.
                    return ExecutionResult {
                        scheduled: false,
                        error: Some(ExecutionError::permanent("candidate no longer resolvable")),
                        ..ExecutionResult::default()
                    };
                };
                if plan.is_empty() {
                    return ExecutionResult::default();
                }
                self.env.borrow_mut().submit_rewrite(&plan, &opts, now_ms)
            }
            JobKind::SortByColumn => {
                let id = TableId(candidate.id.table_uid);
                self.env.borrow_mut().submit_sort_rewrite(id, &opts, now_ms)
            }
            JobKind::PartitionRelayout => {
                let id = TableId(candidate.id.table_uid);
                self.env
                    .borrow_mut()
                    .submit_partition_relayout(id, &opts, now_ms)
            }
            JobKind::DeletionVectorPurge => {
                let id = TableId(candidate.id.table_uid);
                self.env
                    .borrow_mut()
                    .submit_deletion_purge(id, &opts, now_ms)
            }
        };
        match submitted {
            Ok(Some(job)) => ExecutionResult {
                scheduled: true,
                job_id: Some(job.job_id),
                gbhr: job.gbhr,
                commit_due_ms: Some(job.commit_due_ms),
                error: None,
            },
            Ok(None) => ExecutionResult::default(),
            Err(e) => ExecutionResult {
                scheduled: false,
                // Storage failures (quota pressure writing outputs, the
                // §7 failure mode) may clear by the next attempt; every
                // other engine error is structural.
                error: Some(match &e {
                    EngineError::Catalog(_) => {
                        ExecutionError::permanent("candidate no longer resolvable")
                    }
                    EngineError::Storage(_) => ExecutionError::transient(e.to_string()),
                    _ => ExecutionError::permanent(e.to_string()),
                }),
                ..ExecutionResult::default()
            },
        }
    }
}

impl TrackedExecutor for LakesimExecutor {
    /// Applies engine commits due by `now_ms`, then reports every
    /// maintenance record appended since the last poll (by any
    /// submitter — the runtime ignores jobs it does not track).
    fn poll(&mut self, now_ms: u64) -> Vec<JobOutcome> {
        let mut env = self.env.borrow_mut();
        env.drain_due(now_ms);
        let records = env.maintenance.records_from(self.log_cursor);
        self.log_cursor += records.len();
        records
            .iter()
            .map(|r| JobOutcome {
                job_id: r.job_id,
                table_uid: r.table.0,
                status: match r.status {
                    JobStatus::Succeeded => JobOutcomeStatus::Succeeded,
                    JobStatus::Conflicted => JobOutcomeStatus::Conflicted,
                    JobStatus::Failed => JobOutcomeStatus::Failed,
                },
                finished_at_ms: r.finished_at_ms,
                actual_reduction: r.actual_reduction,
                actual_gbhr: r.actual_gbhr,
            })
            .collect()
    }

    /// The maintenance-log delivery cursor (see
    /// [`log_cursor`](LakesimExecutor::log_cursor)) — rewindable via
    /// [`set_log_cursor`](LakesimExecutor::set_log_cursor) after a
    /// restore.
    fn delivery_cursor(&self) -> u64 {
        self.log_cursor as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::LakesimConnector;
    use crate::share;
    use autocomp::{CandidateId, CandidateStats, LakeConnector};
    use lakesim_catalog::{JobStatus, TablePolicy};
    use lakesim_engine::{EnvConfig, FileSizePlan, SimEnv, WriteSpec};
    use lakesim_lst::{
        ColumnType, ConflictMode, Field, PartitionKey, PartitionSpec, PartitionValue, Schema,
        TableProperties, Transform,
    };
    use lakesim_storage::MB;

    fn setup() -> (SharedEnv, u64) {
        let mut env = SimEnv::new(EnvConfig {
            seed: 4,
            ..EnvConfig::default()
        });
        env.create_database("db", "tenant", None).unwrap();
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
                TableProperties {
                    conflict_mode: ConflictMode::PartitionAware,
                    ..TableProperties::default()
                },
                TablePolicy::default(),
            )
            .unwrap();
        for p in 0..2 {
            let spec = WriteSpec::insert(
                t,
                PartitionKey::single(PartitionValue::Date(p)),
                128 * MB,
                FileSizePlan::trickle(),
                "query",
            );
            env.submit_write(&spec, (p as u64) * 10_000).unwrap();
        }
        env.drain_all();
        (share(env), t.0)
    }

    fn prediction() -> Prediction {
        Prediction {
            reduction: 10,
            gbhr: 0.5,
            trigger: "test".into(),
            kind: JobKind::Merge,
        }
    }

    #[test]
    fn table_scope_execution_compacts_whole_table() {
        let (env, uid) = setup();
        let connector = LakesimConnector::new(env.clone());
        let tables = connector.list_tables();
        let candidate = autocomp::Candidate::new(
            CandidateId::table(uid),
            &tables[0],
            connector.table_stats(uid).unwrap(),
        );
        let mut exec = LakesimExecutor::new(env.clone());
        let result = exec.execute(&candidate, &prediction(), 1_000_000);
        assert!(result.scheduled, "{:?}", result.error);
        assert!(result.gbhr > 0.0);
        let due = result.commit_due_ms.unwrap();
        let before = env
            .borrow()
            .catalog
            .table(TableId(uid))
            .unwrap()
            .table
            .file_count();
        env.borrow_mut().drain_due(due);
        let after = env
            .borrow()
            .catalog
            .table(TableId(uid))
            .unwrap()
            .table
            .file_count();
        assert!(after < before);
        assert_eq!(env.borrow().maintenance.count(JobStatus::Succeeded), 1);
    }

    #[test]
    fn partition_scope_execution_targets_one_partition() {
        let (env, uid) = setup();
        let connector = LakesimConnector::new(env.clone());
        let tables = connector.list_tables();
        let parts = connector.partition_stats(uid);
        let (label, stats) = parts[0].clone();
        let candidate = autocomp::Candidate::new(
            CandidateId::partition(uid, label.clone()),
            &tables[0],
            stats,
        );
        let mut exec = LakesimExecutor::new(env.clone());
        let result = exec.execute(&candidate, &prediction(), 1_000_000);
        assert!(result.scheduled);
        env.borrow_mut().drain_all();
        // The other partition's files are untouched.
        let other = connector.partition_stats(uid);
        let compacted = other.iter().find(|(l, _)| *l == label).unwrap();
        let untouched = other.iter().find(|(l, _)| *l != label).unwrap();
        assert!(compacted.1.file_count < untouched.1.file_count);
    }

    #[test]
    fn non_merge_predictions_route_to_transform_rewrites() {
        let (env, uid) = setup();
        let connector = LakesimConnector::new(env.clone());
        let tables = connector.list_tables();
        let candidate = autocomp::Candidate::new(
            CandidateId::table(uid),
            &tables[0],
            connector.table_stats(uid).unwrap(),
        );
        let mut exec = LakesimExecutor::new(env.clone());
        let sort = Prediction {
            kind: JobKind::SortByColumn,
            ..prediction()
        };
        let result = exec.execute(&candidate, &sort, 1_000_000);
        assert!(result.scheduled, "{:?}", result.error);
        env.borrow_mut().drain_all();
        let rec = env.borrow().maintenance.records().last().unwrap().clone();
        assert_eq!(rec.kind, lakesim_catalog::RewriteKind::Sort);
        assert_eq!(rec.trigger, "test");
        // Everything now sorted: a second sort prediction is a quiet no-op.
        let now = env.borrow().clock.now();
        let again = exec.execute(&candidate, &sort, now + 1);
        assert!(!again.scheduled);
        assert!(again.error.is_none());
    }

    #[test]
    fn non_merge_prediction_on_missing_table_is_permanent() {
        let (env, _) = setup();
        let mut exec = LakesimExecutor::new(env);
        let ghost = autocomp::Candidate {
            id: CandidateId::table(999),
            database: "db".into(),
            table_name: "ghost".into(),
            compaction_enabled: true,
            is_intermediate: false,
            stats: CandidateStats::default(),
        };
        let purge = Prediction {
            kind: JobKind::DeletionVectorPurge,
            ..prediction()
        };
        let result = exec.execute(&ghost, &purge, 0);
        assert!(!result.scheduled);
        let err = result.error.unwrap();
        assert!(
            matches!(err, ExecutionError::Permanent(_)),
            "missing table must not be retried"
        );
    }

    #[test]
    fn unresolvable_candidate_reports_error() {
        let (env, _) = setup();
        let mut exec = LakesimExecutor::new(env);
        let ghost = autocomp::Candidate {
            id: CandidateId::table(999),
            database: "db".into(),
            table_name: "ghost".into(),
            compaction_enabled: true,
            is_intermediate: false,
            stats: CandidateStats::default(),
        };
        let result = exec.execute(&ghost, &prediction(), 0);
        assert!(!result.scheduled);
        assert!(result.error.is_some());
    }

    #[test]
    fn compact_table_yields_empty_plan_noop() {
        let (env, uid) = setup();
        // Compact once.
        let connector = LakesimConnector::new(env.clone());
        let tables = connector.list_tables();
        let candidate = autocomp::Candidate::new(
            CandidateId::table(uid),
            &tables[0],
            connector.table_stats(uid).unwrap(),
        );
        let mut exec = LakesimExecutor::new(env.clone());
        let r1 = exec.execute(&candidate, &prediction(), 1_000_000);
        env.borrow_mut().drain_all();
        assert!(r1.scheduled);
        // Second attempt: nothing worth rewriting → not scheduled, no error.
        let refreshed = autocomp::Candidate::new(
            CandidateId::table(uid),
            &tables[0],
            connector.table_stats(uid).unwrap(),
        );
        let now = env.borrow().clock.now();
        let r2 = exec.execute(&refreshed, &prediction(), now + 1);
        assert!(!r2.scheduled);
        assert!(r2.error.is_none());
    }
}
