//! Act-phase job runtime: cross-cycle lifecycle tests.
//!
//! Covers the runtime's contracts over a deterministic synthetic
//! platform — in-flight suppression across cycles, admission-deferral
//! ordering, conflict→retry→success and retry-exhaustion paths, the
//! disabled-tracker bit-parity pin — and the full multi-cycle loop over
//! the real lakesim substrate: schedule → suppress → settle → dirty
//! re-observe → automatic feedback, with a conflicted job retried under
//! backoff until it lands. `JobLedgerSummary` counts pin every
//! transition.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use autocomp::{
    AutoComp, AutoCompConfig, Candidate, CandidateStats, ChangeCursor, CompactionExecutor,
    ComputeCostGbhr, CycleInput, CycleReport, ExecutionResult, FileCountReduction, FleetObserver,
    JobRuntimeConfig, LakeConnector, Prediction, RankingPolicy, ScopeStrategy, TableRef,
    TraitComputer, TraitWeight, Untracked,
};

mod common;
use common::{tracked_cycle, ScriptedPlatform};

// ---------------------------------------------------------------------
// Synthetic lake + platform.
// ---------------------------------------------------------------------

/// Deterministic lake: table `uid` has `90 - uid*10` small files (uid 0
/// ranks first), a changelog, and per-table databases `db{uid % 2}`.
struct ScriptLake {
    tables: Vec<TableRef>,
    seq: AtomicU64,
}

impl ScriptLake {
    fn new(n: u64) -> Self {
        ScriptLake {
            tables: (0..n)
                .map(|i| TableRef {
                    table_uid: i,
                    database: format!("db{}", i % 2).into(),
                    name: format!("t{i}").into(),
                    partitioned: false,
                    compaction_enabled: true,
                    is_intermediate: false,
                })
                .collect(),
            seq: AtomicU64::new(0),
        }
    }
}

impl LakeConnector for ScriptLake {
    fn list_tables(&self) -> Vec<TableRef> {
        self.tables.clone()
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        (uid < self.tables.len() as u64).then(|| CandidateStats {
            file_count: 100,
            small_file_count: 90 - uid * 10,
            small_bytes: 1 << 30,
            total_bytes: 10 << 30,
            target_file_size: 512 << 20,
            ..CandidateStats::default()
        })
    }
    fn partition_stats(&self, _uid: u64) -> Vec<(String, CandidateStats)> {
        Vec::new()
    }
    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        Some(ChangeCursor(self.seq.load(Ordering::SeqCst)))
    }
    fn changes_since(&self, _cursor: ChangeCursor) -> Option<Vec<u64>> {
        Some(Vec::new())
    }
    fn listing_epoch(&self) -> Option<u64> {
        Some(0)
    }
}

/// Executor that never schedules anything (the quiet-ledger reference).
#[derive(Default)]
struct InertExecutor;

impl CompactionExecutor for InertExecutor {
    fn execute(&mut self, _c: &Candidate, _p: &Prediction, _now: u64) -> ExecutionResult {
        ExecutionResult::default()
    }
}

fn pipeline(k: usize) -> AutoComp {
    AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k,
        },
        trigger_label: "tracked".into(),
        calibrate: false,
    })
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
}

fn dropped_reasons_for(report: &CycleReport, uid: u64) -> Vec<String> {
    report
        .dropped
        .iter()
        .filter(|(id, _)| id.table_uid == uid)
        .map(|(_, r)| r.to_string())
        .collect()
}

// ---------------------------------------------------------------------
// Suppression + settle + feedback over the synthetic platform.
// ---------------------------------------------------------------------

#[test]
fn in_flight_targets_are_suppressed_until_settled() {
    let lake = ScriptLake::new(4);
    let mut ac = pipeline(1).with_job_tracker(JobRuntimeConfig::default());
    let mut platform = ScriptedPlatform::new(10_000);
    let mut observer = FleetObserver::new();

    // Cycle 1: t0 (most fragmented) selected and submitted.
    let c1 = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 1_000).unwrap();
    assert_eq!(c1.executed.len(), 1);
    assert_eq!(c1.executed[0].id.table_uid, 0);
    assert_eq!(c1.ledger.in_flight, 1);
    assert!(c1.ledger.suppressed == 0 && c1.ledger.settled == 0);

    // Cycle 2 (job still running): t0 is suppressed with a reason, the
    // selection falls to t1.
    let c2 = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 2_000).unwrap();
    let reasons = dropped_reasons_for(&c2, 0);
    assert_eq!(reasons.len(), 1, "t0 dropped exactly once");
    assert!(reasons[0].contains("in-flight"), "{}", reasons[0]);
    assert_eq!(c2.ledger.suppressed, 1);
    assert_eq!(c2.executed.len(), 1);
    assert_eq!(c2.executed[0].id.table_uid, 1);
    assert_eq!(c2.ledger.in_flight, 2);

    // Cycle 3 (both jobs due): settle → feedback auto-ingested, both
    // tables re-observed dirty despite a quiet changelog, t0 selectable
    // again.
    let c3 = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 30_000).unwrap();
    assert_eq!(c3.ledger.settled, 2);
    assert_eq!(c3.ledger.succeeded, 2);
    assert_eq!(ac.feedback().records().len(), 2, "automatic ingestion");
    assert_eq!(
        observer.last().unwrap().fetched_tables(),
        2,
        "settled tables re-observed dirty"
    );
    assert!(dropped_reasons_for(&c3, 0).is_empty());
    assert_eq!(c3.executed[0].id.table_uid, 0);
}

// ---------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------

#[test]
fn admission_defers_in_rank_order_when_fleet_slots_run_out() {
    let lake = ScriptLake::new(5);
    let mut ac = pipeline(3).with_job_tracker(JobRuntimeConfig {
        max_in_flight: 1,
        ..JobRuntimeConfig::default()
    });
    let mut platform = ScriptedPlatform::new(10_000);
    let mut observer = FleetObserver::new();
    let report = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 0).unwrap();
    // Best-ranked executes; the next two (in rank order) defer.
    assert_eq!(report.executed.len(), 1);
    assert_eq!(report.executed[0].id.table_uid, 0);
    assert_eq!(report.ledger.deferred, 2);
    assert_eq!(report.deferred.len(), 2);
    assert_eq!(report.deferred[0].0.table_uid, 1, "deferral in rank order");
    assert_eq!(report.deferred[1].0.table_uid, 2);
    assert!(report.deferred[0].1.contains("fleet"));
    // Deferred candidates were not dropped: they rank again next cycle
    // and run once the slot frees.
    let r2 = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 20_000).unwrap();
    assert_eq!(r2.executed[0].id.table_uid, 0, "t0 settled and re-ranked");
}

#[test]
fn admission_enforces_per_database_slots_and_gbhr_budget() {
    let lake = ScriptLake::new(4); // dbs alternate: t0,t2 → db0; t1,t3 → db1
    let mut ac = pipeline(3).with_job_tracker(JobRuntimeConfig {
        max_in_flight_per_database: 1,
        ..JobRuntimeConfig::default()
    });
    let mut platform = ScriptedPlatform::new(10_000);
    let mut observer = FleetObserver::new();
    let report = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 0).unwrap();
    // Rank order t0 (db0), t1 (db1), t2 (db0): t2 defers on db0's slot.
    assert_eq!(report.executed.len(), 2);
    assert_eq!(report.deferred.len(), 1);
    assert_eq!(report.deferred[0].0.table_uid, 2);
    assert!(report.deferred[0].1.contains("database"));

    // GBHr budget: a negative budget admits nothing, pinning the rule
    // independently of what the cost trait computes for these stats.
    let mut ac = pipeline(2).with_job_tracker(JobRuntimeConfig {
        gbhr_budget: Some(-1.0),
        ..JobRuntimeConfig::default()
    });
    let mut platform = ScriptedPlatform::new(10_000);
    let mut observer = FleetObserver::new();
    let report = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 0).unwrap();
    assert!(report.executed.is_empty());
    assert_eq!(report.ledger.deferred, 2);
    assert!(report.deferred.iter().all(|(_, r)| r.contains("GBHr")));
}

// ---------------------------------------------------------------------
// Conflict retries.
// ---------------------------------------------------------------------

#[test]
fn conflicted_job_retries_with_backoff_then_succeeds() {
    let lake = ScriptLake::new(1);
    let mut ac = pipeline(1).with_job_tracker(JobRuntimeConfig {
        max_retries: 2,
        retry_backoff_ms: 5_000,
        retry_backoff_cap_ms: 60_000,
        ..JobRuntimeConfig::default()
    });
    // First submission of t0 conflicts; the second succeeds.
    let mut platform = ScriptedPlatform::new(1_000).with_conflicts(0, 1);
    let mut observer = FleetObserver::new();

    let c1 = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 0).unwrap();
    assert_eq!(c1.executed.len(), 1); // job due at 1_000

    // Settles conflicted at 1_000 → retry due at 6_000.
    let c2 = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 2_000).unwrap();
    assert_eq!(c2.ledger.settled, 1);
    assert_eq!(c2.ledger.conflicted, 1);
    assert_eq!(c2.ledger.retry_pending, 1);
    assert_eq!(c2.ledger.suppressed, 1, "retry target stays suppressed");
    assert!(dropped_reasons_for(&c2, 0)[0].contains("retry"));
    assert!(c2.retried.is_empty(), "backoff not elapsed");
    assert!(c2.executed.is_empty());

    // Still inside the backoff window: nothing resubmits.
    let c3 = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 4_000).unwrap();
    assert_eq!(c3.ledger.retry_pending, 1);
    assert!(c3.retried.is_empty());

    // Backoff elapsed: the retry resubmits (attempt 2).
    let c4 = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 7_000).unwrap();
    assert_eq!(c4.ledger.retries_submitted, 1);
    assert_eq!(c4.retried.len(), 1);
    assert!(c4.retried[0].result.scheduled);
    assert_eq!(c4.ledger.in_flight, 1);
    assert_eq!(c4.ledger.retry_pending, 0);

    // The retry settles successfully → feedback ingested automatically.
    let c5 = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 20_000).unwrap();
    assert_eq!(c5.ledger.succeeded, 1);
    assert_eq!(ac.feedback().records().len(), 1);
    assert_eq!(ac.feedback().records()[0].actual_reduction, 8);
}

#[test]
fn retry_budget_exhausts_and_the_table_frees_up() {
    let lake = ScriptLake::new(1);
    let mut ac = pipeline(1).with_job_tracker(JobRuntimeConfig {
        max_retries: 1,
        retry_backoff_ms: 100,
        retry_backoff_cap_ms: 1_000,
        ..JobRuntimeConfig::default()
    });
    // t0 conflicts forever.
    let mut platform = ScriptedPlatform::new(500).with_conflicts(0, u64::MAX);
    let mut observer = FleetObserver::new();

    tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 0).unwrap();
    // Conflict settles (attempt 1) and — the short backoff having
    // already elapsed — the retry resubmits within the same cycle.
    let c2 = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 1_000).unwrap();
    assert_eq!(c2.ledger.conflicted, 1);
    assert_eq!(c2.ledger.retries_submitted, 1);
    assert_eq!(c2.retried.len(), 1);
    assert_eq!(c2.ledger.retry_pending, 0);
    assert_eq!(c2.ledger.in_flight, 1);
    // The retry conflicts again with the budget spent: exhausted, not
    // requeued — and the table immediately re-enters ranking as a fresh
    // candidate (a new first attempt).
    let c3 = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 2_000).unwrap();
    assert_eq!(c3.ledger.conflicted, 1);
    assert_eq!(c3.ledger.retries_exhausted, 1);
    assert_eq!(c3.ledger.retry_pending, 0);
    assert_eq!(c3.executed.len(), 1);
    assert_eq!(c3.executed[0].id.table_uid, 0);
    assert_eq!(ac.feedback().records().len(), 0, "conflicts feed nothing");
}

/// Single-table lake whose fragmentation can be edited between cycles
/// (changelog-visible), for pinning retry re-ranking.
struct MutableLake {
    table: TableRef,
    small: Mutex<u64>,
    log: Mutex<Vec<(u64, u64)>>,
    seq: AtomicU64,
}

impl MutableLake {
    fn new(small: u64) -> Self {
        MutableLake {
            table: TableRef {
                table_uid: 0,
                database: "db0".into(),
                name: "t0".into(),
                partitioned: false,
                compaction_enabled: true,
                is_intermediate: false,
            },
            small: Mutex::new(small),
            log: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
        }
    }

    fn set_small(&self, small: u64) {
        *self.small.lock().unwrap() = small;
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.log.lock().unwrap().push((seq, 0));
    }
}

impl LakeConnector for MutableLake {
    fn list_tables(&self) -> Vec<TableRef> {
        vec![self.table.clone()]
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        let small = *self.small.lock().unwrap();
        (uid == 0).then(|| CandidateStats {
            file_count: small + 10,
            small_file_count: small,
            small_bytes: small << 20,
            total_bytes: 10 << 30,
            target_file_size: 512 << 20,
            ..CandidateStats::default()
        })
    }
    fn partition_stats(&self, _uid: u64) -> Vec<(String, CandidateStats)> {
        Vec::new()
    }
    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        Some(ChangeCursor(self.seq.load(Ordering::SeqCst)))
    }
    fn changes_since(&self, cursor: ChangeCursor) -> Option<Vec<u64>> {
        Some(
            self.log
                .lock()
                .unwrap()
                .iter()
                .filter(|(seq, _)| *seq >= cursor.0)
                .map(|(_, uid)| *uid)
                .collect(),
        )
    }
    fn listing_epoch(&self) -> Option<u64> {
        Some(0)
    }
}

#[test]
fn retry_resubmission_is_rescored_against_current_stats() {
    // A pending retry must not resubmit with its original prediction:
    // the conflicting write changed the table, so admission should be
    // charged an estimate computed from the *current* cycle's stats.
    let lake = MutableLake::new(400);
    let mut ac = pipeline(1).with_job_tracker(JobRuntimeConfig {
        max_retries: 2,
        retry_backoff_ms: 5_000,
        retry_backoff_cap_ms: 60_000,
        ..JobRuntimeConfig::default()
    });
    let mut platform = ScriptedPlatform::new(1_000).with_conflicts(0, 1);
    let mut observer = FleetObserver::new();

    // Cycle 1: submitted with the original 400-small-file prediction.
    let c1 = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 0).unwrap();
    assert_eq!(c1.executed.len(), 1);
    let original = c1.executed[0].prediction.clone();
    assert_eq!(original.reduction, 400);

    // The conflicting writer reshapes the table before the retry runs.
    lake.set_small(120);

    // Cycle 2: the conflict settles; a backoff retry is queued.
    let c2 = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 2_000).unwrap();
    assert_eq!(c2.ledger.conflicted, 1);
    assert_eq!(c2.ledger.retry_pending, 1);

    // Cycle 3 (backoff elapsed): the resubmission is re-scored from the
    // current observation — 120 small files, not the stale 400 — so the
    // GBHr the budget window is charged is honest too.
    let c3 = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 7_000).unwrap();
    assert_eq!(c3.ledger.retries_submitted, 1);
    assert_eq!(c3.retried.len(), 1);
    let rescored = &c3.retried[0].prediction;
    assert_eq!(rescored.reduction, 120, "re-scored from current stats");
    assert!(
        rescored.gbhr < original.gbhr,
        "honest (smaller) GBHr charge"
    );
    let expected_gbhr = ComputeCostGbhr::default().compute(&lake.table_stats(0).unwrap());
    assert_eq!(rescored.gbhr.to_bits(), expected_gbhr.to_bits());

    // The retry lands; its feedback reflects the re-scored prediction.
    let c4 = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, 20_000).unwrap();
    assert_eq!(c4.ledger.succeeded, 1);
    let records = ac.feedback().records();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].predicted_reduction, 120);
}

// ---------------------------------------------------------------------
// Parity pins: the runtime is invisible until it acts.
// ---------------------------------------------------------------------

fn report_fingerprint(r: &CycleReport) -> String {
    format!(
        "{r}|dropped={:?}|deferred={:?}|retried={:?}|ledger={:?}",
        r.dropped, r.deferred, r.retried, r.ledger
    )
}

// ---------------------------------------------------------------------
// The full loop over the real lakesim substrate (acceptance pin).
// ---------------------------------------------------------------------

/// Cycle N schedules a job; cycle N+1 suppresses the same target while
/// in flight; a concurrent user write conflicts the job; the settle
/// classifies the conflict and retries with backoff; the retry lands;
/// the table is re-observed dirty and the outcome auto-ingests into
/// calibration — all through the tracked entry points, with no manual
/// `FeedbackBridge` anywhere. `JobLedgerSummary` counts pin each
/// transition.
#[test]
fn full_loop_on_lakesim_with_conflict_retry() {
    use autocomp_lakesim::{share, LakesimConnector, LakesimExecutor};
    use lakesim_catalog::{JobStatus, TablePolicy};
    use lakesim_engine::{EnvConfig, FileSizePlan, SimEnv, WriteSpec};
    use lakesim_lst::{
        ColumnType, Field, PartitionKey, PartitionSpec, Schema, TableId, TableProperties,
    };
    use lakesim_storage::MB;

    let mut env = SimEnv::new(EnvConfig {
        seed: 17,
        cost: lakesim_engine::CostModel {
            // Zero write-coordination overhead: the test reasons about
            // exact commit-window overlaps (same as the engine's own
            // conflict tests).
            write_job_overhead_ms: 0,
            ..lakesim_engine::CostModel::default()
        },
        ..EnvConfig::default()
    });
    env.create_database("db", "tenant", None).unwrap();
    let schema = Schema::new(vec![Field::new(1, "k", ColumnType::Int64, true)]).unwrap();
    let t = env
        .create_table(
            "db",
            "events",
            schema,
            PartitionSpec::unpartitioned(),
            TableProperties::default(), // ConflictMode::Strict
            TablePolicy::default(),
        )
        .unwrap();
    let seed_write = WriteSpec::insert(
        t,
        PartitionKey::unpartitioned(),
        512 * MB,
        FileSizePlan::trickle(),
        "query",
    );
    env.submit_write(&seed_write, 0).unwrap();
    env.drain_all();
    let shared = share(env);

    let connector = LakesimConnector::new(shared.clone());
    let mut executor = LakesimExecutor::new(shared.clone());
    let mut observer = FleetObserver::new();
    let mut ac = pipeline(1).with_job_tracker(JobRuntimeConfig {
        max_retries: 2,
        retry_backoff_ms: 10_000,
        retry_backoff_cap_ms: 120_000,
        ..JobRuntimeConfig::default()
    });

    // Cycle 1: the fragmented table is selected and a rewrite job is
    // submitted to the compaction cluster.
    let t1 = 1_000_000u64;
    let c1 = tracked_cycle(&mut ac, &mut observer, &connector, &mut executor, t1).unwrap();
    assert_eq!(c1.executed.len(), 1, "{:?}", c1.executed);
    assert!(c1.executed[0].result.scheduled);
    assert_eq!(c1.ledger.in_flight, 1);
    let commit_due = c1.executed[0].result.commit_due_ms.unwrap();
    assert!(commit_due > t1);

    // A user write lands inside the rewrite's vulnerability window:
    // under strict conflict resolution the rewrite will be dropped.
    let conflict_write = WriteSpec::insert(
        t,
        PartitionKey::unpartitioned(),
        8 * MB,
        FileSizePlan::trickle(),
        "query",
    );
    let w = shared
        .borrow_mut()
        .submit_write(&conflict_write, t1 + 100)
        .unwrap();
    assert!(
        w.finished_ms < commit_due,
        "user write must commit inside the rewrite window"
    );

    // Cycle 2 (rewrite still in flight): the target is suppressed with a
    // drop reason — no second job is scheduled for the same table.
    let t2 = t1 + 200;
    assert!(t2 < commit_due);
    let c2 = tracked_cycle(&mut ac, &mut observer, &connector, &mut executor, t2).unwrap();
    assert_eq!(c2.ledger.suppressed, 1);
    assert!(dropped_reasons_for(&c2, t.0)[0].contains("in-flight"));
    assert!(c2.executed.is_empty());
    assert_eq!(c2.ledger.in_flight, 1);

    // Cycle 3 (past the commit due time): the poll settles the rewrite
    // as conflicted; a backoff retry is scheduled and the table stays
    // suppressed (now as a retry target). The conflicting write also
    // re-dirtied the table, so the observe re-fetched it.
    let t3 = commit_due + 1;
    let c3 = tracked_cycle(&mut ac, &mut observer, &connector, &mut executor, t3).unwrap();
    assert_eq!(c3.ledger.settled, 1);
    assert_eq!(c3.ledger.conflicted, 1);
    assert_eq!(c3.ledger.retry_pending, 1);
    assert_eq!(c3.ledger.suppressed, 1);
    assert!(dropped_reasons_for(&c3, t.0)[0].contains("retry"));
    assert!(c3.executed.is_empty());
    assert_eq!(observer.last().unwrap().fetched_tables(), 1);
    assert_eq!(shared.borrow().maintenance.count(JobStatus::Conflicted), 1);
    assert!(
        ac.feedback().records().is_empty(),
        "no feedback on conflict"
    );

    // Cycle 4 (backoff elapsed): the retry resubmits, re-planned from
    // the post-conflict table state.
    let t4 = commit_due + 10_000 + 1;
    let c4 = tracked_cycle(&mut ac, &mut observer, &connector, &mut executor, t4).unwrap();
    assert_eq!(c4.ledger.retries_submitted, 1);
    assert_eq!(c4.retried.len(), 1);
    assert!(c4.retried[0].result.scheduled, "{:?}", c4.retried[0].result);
    assert_eq!(c4.ledger.in_flight, 1);
    assert_eq!(c4.ledger.retry_pending, 0);
    let retry_due = c4.retried[0].result.commit_due_ms.unwrap();

    let files_before = shared
        .borrow()
        .catalog
        .table(TableId(t.0))
        .unwrap()
        .table
        .file_count();

    // Cycle 5 (retry committed): the success settles, the outcome is
    // auto-ingested into calibration (no FeedbackBridge anywhere in this
    // test), and the compacted table is re-observed dirty.
    let t5 = retry_due + 1;
    let c5 = tracked_cycle(&mut ac, &mut observer, &connector, &mut executor, t5).unwrap();
    assert_eq!(c5.ledger.settled, 1);
    assert_eq!(c5.ledger.succeeded, 1);
    assert_eq!(shared.borrow().maintenance.count(JobStatus::Succeeded), 1);
    let records = ac.feedback().records();
    assert_eq!(records.len(), 1, "success auto-ingested");
    assert!(records[0].actual_reduction > 0);
    assert!(records[0].actual_gbhr > 0.0);
    assert_eq!(observer.last().unwrap().fetched_tables(), 1);
    let files_after = shared
        .borrow()
        .catalog
        .table(TableId(t.0))
        .unwrap()
        .table
        .file_count();
    assert!(
        files_after < files_before,
        "retry compacted the table: {files_after} < {files_before}"
    );
}

#[test]
fn idle_tracker_reports_are_bit_identical_to_fire_and_forget() {
    // Tracker attached, but the platform never schedules: the ledger
    // stays quiet and reports (including Display) match a pipeline
    // without a tracker exactly.
    let lake = ScriptLake::new(6);
    let mut plain = pipeline(2);
    let mut tracked = pipeline(2).with_job_tracker(JobRuntimeConfig::default());
    let mut obs_a = FleetObserver::new();
    let mut obs_b = FleetObserver::new();
    for now in [1_000u64, 2_000, 3_000] {
        let a = plain
            .cycle(CycleInput {
                connector: &lake,
                observer: &mut obs_a,
                executor: &mut Untracked(InertExecutor),
                now_ms: now,
            })
            .unwrap();
        let b = tracked_cycle(
            &mut tracked,
            &mut obs_b,
            &lake,
            &mut Untracked(InertExecutor),
            now,
        )
        .unwrap();
        assert_eq!(report_fingerprint(&a), report_fingerprint(&b));
    }
}
