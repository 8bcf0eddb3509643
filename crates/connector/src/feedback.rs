//! Feedback bridge: maintenance log → pipeline estimation feedback.
//!
//! Completes the §3.3 act→observe loop: after the engine drains rewrite
//! commits, their maintenance records (predicted vs. actual reduction and
//! cost) are streamed into [`autocomp::EstimationFeedback`], which the
//! pipeline can use for calibration (§7).
//!
//! # Migration: manual bridge → automatic ingestion
//!
//! Since the act-phase job runtime landed, drivers no longer need this
//! bridge for the steady-state loop: attach a tracker
//! (`AutoComp::with_job_tracker`) and hand `AutoComp::cycle` an
//! `Executor::Tracked` over [`crate::LakesimExecutor`] —
//! its `TrackedExecutor::poll` surfaces the same maintenance records as
//! job outcomes, and settled successes are ingested into calibration
//! automatically (using the *tracked* prediction rather than re-reading
//! it from the log). Keep the bridge for drivers that settle outside the
//! pipeline — replaying a pre-recorded maintenance log, importing
//! history from before the tracker existed, or feeding a second pipeline
//! that never submits jobs itself. Mixing both on one pipeline would
//! double-count outcomes the tracker already ingested.

use autocomp::{CandidateId, FeedbackRecord};
use lakesim_catalog::JobStatus;
use lakesim_engine::SimEnv;

/// Incremental exporter of maintenance records.
#[derive(Debug, Default, Clone)]
pub struct FeedbackBridge {
    cursor: usize,
}

impl FeedbackBridge {
    /// Creates a bridge starting at the beginning of the log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains new *successful* maintenance records into feedback records.
    /// Conflicted/failed jobs are skipped (they have no meaningful
    /// actuals); the cursor still advances past them.
    pub fn drain_new(&mut self, env: &SimEnv) -> Vec<FeedbackRecord> {
        let records = env.maintenance.records_from(self.cursor);
        self.cursor += records.len();
        let mut out = Vec::new();
        for r in records {
            if r.status != JobStatus::Succeeded {
                continue;
            }
            out.push(FeedbackRecord {
                candidate: if r.scope.starts_with("partition") {
                    CandidateId::partition(
                        r.table.0,
                        r.scope.trim_start_matches("partition ").to_string(),
                    )
                } else {
                    CandidateId::table(r.table.0)
                },
                at_ms: r.finished_at_ms,
                predicted_reduction: r.predicted_reduction,
                actual_reduction: r.actual_reduction,
                predicted_gbhr: r.predicted_gbhr,
                actual_gbhr: r.actual_gbhr,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lakesim_catalog::MaintenanceRecord;
    use lakesim_engine::EnvConfig;
    use lakesim_lst::TableId;

    fn env_with_records(statuses: &[JobStatus]) -> SimEnv {
        let mut env = SimEnv::new(EnvConfig::default());
        for (i, status) in statuses.iter().enumerate() {
            let job_id = env.maintenance.next_job_id();
            env.maintenance.push(MaintenanceRecord {
                job_id,
                table: TableId(1),
                scope: if i % 2 == 0 {
                    "table".to_string()
                } else {
                    "partition (d3)".to_string()
                },
                trigger: "periodic".into(),
                scheduled_at_ms: 0,
                finished_at_ms: i as u64,
                status: *status,
                kind: lakesim_catalog::RewriteKind::Merge,
                predicted_reduction: 10,
                actual_reduction: 8,
                predicted_gbhr: 1.0,
                actual_gbhr: 1.2,
            });
        }
        env
    }

    #[test]
    fn drains_only_new_successes() {
        let env = env_with_records(&[
            JobStatus::Succeeded,
            JobStatus::Conflicted,
            JobStatus::Succeeded,
        ]);
        let mut bridge = FeedbackBridge::new();
        let first = bridge.drain_new(&env);
        assert_eq!(first.len(), 2);
        // Second drain yields nothing new.
        assert!(bridge.drain_new(&env).is_empty());
    }

    #[test]
    fn partition_scopes_map_to_partition_ids() {
        let env = env_with_records(&[JobStatus::Succeeded, JobStatus::Succeeded]);
        let mut bridge = FeedbackBridge::new();
        let records = bridge.drain_new(&env);
        assert_eq!(records[0].candidate, CandidateId::table(1));
        assert_eq!(records[1].candidate, CandidateId::partition(1, "(d3)"));
        assert_eq!(records[0].predicted_reduction, 10);
        assert_eq!(records[0].actual_reduction, 8);
    }
}
