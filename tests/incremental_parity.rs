//! Property-based incremental-vs-cold parity harness.
//!
//! Drives randomized fleets through randomized interleavings of table
//! writes, database quota edits, policy (config) edits, feedback
//! ingestion, and OODA cycles, and asserts that **incremental** cycles —
//! changelog-driven observe reuse *plus* the retained decide state
//! keeping filter verdicts, trait rows and scores — produce
//! **bit-identical** `CycleReport`s to always-cold cycles over the same
//! lake state, across all four scope strategies and all four ranking
//! policies, and the same decisions as the naive reference cycle
//! (`common/reference.rs`) over the incremental observation.
//!
//! The model lake keeps every stat a pure function of
//! `(uid, per-table version, per-database quota + transform knobs)`, so a
//! reused entry is exactly what a fresh fetch would produce for a quiet
//! table — the precondition for bit parity. Quota edits and transform
//! shifts are *not* in the changelog (they model the shared-signal
//! staleness of the observe contract); the incremental driver follows the
//! documented recipe and force-dirties every table of the edited
//! database, which must patch the corresponding decide-state slots too.
//!
//! The op alphabet also carries the adversarial-matrix shapes from
//! `lakesim_workload::scenarios`: flash-crowd [`Op::Burst`]s that dirty a
//! whole database at once, and [`Op::TransformShift`]s that swing the
//! transform signals (`transforms_enabled` / `sort_disorder` /
//! `partition_skew` / delete debt) across every [`JobKind::classify`]
//! threshold — so parity is proven across *kind re-classifications* of
//! cached candidates, not just merge-only stats deltas.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use autocomp::{
    AutoComp, AutoCompConfig, Candidate, CandidateFilter, CandidateStats, ChangeCursor,
    CompactionDisabledFilter, CompactionExecutor, ComputeCostGbhr, CycleCacheStats, CycleInput,
    CycleReport, DeleteDebt, ExecutionResult, FeedbackRecord, FileCountReduction, FleetObserver,
    IntermediateTableFilter, JobKind, JobRuntimeConfig, LakeConnector, MinSizeFilter,
    PartitionSkewExcess, Prediction, QuotaSignal, RankCycleStats, RankingPolicy,
    RecentWriteActivityFilter, ScopeStrategy, SortDisorder, TableRef, TraitComputer, TraitWeight,
    Untracked, PARTITION_SKEW_METRIC, SORT_DISORDER_METRIC, TRANSFORMS_ENABLED_METRIC,
};
use proptest::collection;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

mod common;
use common::reference::{reference_cycle, reference_difference};
use common::{tracked_cycle, ScriptedPlatform};

const DATABASES: u64 = 4;

/// Deterministic model lake: pure per-table stats with a write changelog
/// and out-of-band (changelog-invisible) quota knobs.
struct ModelLake {
    tables: Vec<TableRef>,
    versions: Mutex<Vec<u64>>,
    quota_knobs: Mutex<[u64; DATABASES as usize]>,
    transform_knobs: Mutex<[u64; DATABASES as usize]>,
    log: Mutex<Vec<(u64, u64)>>, // (seq, uid)
    seq: AtomicU64,
}

impl ModelLake {
    fn new(n: u64) -> Self {
        ModelLake {
            tables: (0..n)
                .map(|i| TableRef {
                    table_uid: i,
                    database: format!("db{}", i % DATABASES).into(),
                    name: format!("t{i}").into(),
                    partitioned: i % 3 == 0,
                    compaction_enabled: i % 7 != 0,
                    is_intermediate: i % 11 == 0,
                })
                .collect(),
            versions: Mutex::new(vec![0; n as usize]),
            quota_knobs: Mutex::new([0; DATABASES as usize]),
            transform_knobs: Mutex::new([0; DATABASES as usize]),
            log: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
        }
    }

    fn write(&self, uid: u64) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.log.lock().unwrap().push((seq, uid));
        self.versions.lock().unwrap()[uid as usize] += 1;
    }

    fn quota_edit(&self, db: u64, delta: u64) {
        self.quota_knobs.lock().unwrap()[db as usize] += delta;
    }

    fn transform_shift(&self, db: u64, delta: u64) {
        self.transform_knobs.lock().unwrap()[db as usize] += delta;
    }

    /// Pure stats: f(uid, version, quota + transform knobs of the owning
    /// database). The transform knob swings enablement, disorder, skew
    /// and delete debt across every [`JobKind::classify`] threshold, so
    /// cycles rank and execute a moving mix of rewrite kinds.
    fn stats_for(&self, uid: u64, part: u64) -> CandidateStats {
        let v = self.versions.lock().unwrap()[uid as usize];
        let knob = self.quota_knobs.lock().unwrap()[(uid % DATABASES) as usize];
        let t = self.transform_knobs.lock().unwrap()[(uid % DATABASES) as usize];
        CandidateStats {
            file_count: 5 + (uid * 13 + v * 7 + part) % 97,
            small_file_count: (uid * 11 + v * 3 + part * 5) % 90,
            small_bytes: ((uid * 29 + v + part) % 64) << 20,
            total_bytes: (((uid * 37 + v) % 128) + 1 + part) << 20,
            delete_file_count: (uid * 3 + v * 2 + t) % 9,
            target_file_size: 512 << 20,
            last_write_ms: (v > 0).then_some(v * 40),
            write_frequency_per_hour: (v % 5) as f64,
            quota: Some(QuotaSignal {
                used: knob + uid % 7,
                total: 1000,
            }),
            ..CandidateStats::default()
        }
        .with_custom(TRANSFORMS_ENABLED_METRIC, ((uid + t) % 2) as f64)
        .with_custom(
            SORT_DISORDER_METRIC,
            ((uid * 7 + v * 5 + t * 11) % 100) as f64 / 100.0,
        )
        .with_custom(
            PARTITION_SKEW_METRIC,
            1.0 + ((uid * 5 + v * 3 + t * 13) % 48) as f64 / 8.0,
        )
    }

    fn partition_count(&self, uid: u64) -> u64 {
        1 + uid % 2
    }
}

impl LakeConnector for ModelLake {
    fn list_tables(&self) -> Vec<TableRef> {
        self.tables.clone()
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        (uid < self.tables.len() as u64).then(|| self.stats_for(uid, 0))
    }
    fn partition_stats(&self, uid: u64) -> Vec<(String, CandidateStats)> {
        if self.tables.get(uid as usize).is_some_and(|t| t.partitioned) {
            (0..self.partition_count(uid))
                .map(|p| (format!("(p{p})"), self.stats_for(uid, p + 1)))
                .collect()
        } else {
            Vec::new()
        }
    }
    fn snapshot_stats(&self, uid: u64, _window_ms: u64) -> Option<CandidateStats> {
        (uid < self.tables.len() as u64 && uid.is_multiple_of(2)).then(|| self.stats_for(uid, 0))
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
        // The model fleet never creates/drops tables or edits policies.
        Some(0)
    }
}

/// Deterministic executor whose job ids depend only on call order.
#[derive(Default)]
struct SeqExecutor {
    calls: u64,
}

impl CompactionExecutor for SeqExecutor {
    fn execute(&mut self, _c: &Candidate, p: &Prediction, now: u64) -> ExecutionResult {
        self.calls += 1;
        ExecutionResult {
            scheduled: true,
            job_id: Some(self.calls),
            gbhr: p.gbhr,
            commit_due_ms: Some(now + 5_000),
            error: None,
        }
    }
}

/// One step of a randomized scenario.
#[derive(Debug, Clone)]
enum Op {
    /// Write to a table (changelog-visible; bumps the table version).
    Write(u64),
    /// Burst of writes to one table: a large version jump that swings
    /// its stats across their modular range, so fleet-wide min–max
    /// normalization bounds frequently move mid-sequence — the rank
    /// phase's fleet-wide path must recompute and still match cold
    /// cycles bit-for-bit.
    Spike(u64),
    /// Out-of-band quota edit (changelog-invisible; the incremental
    /// driver must force-dirty the database's tables to stay exact).
    QuotaEdit(u64, u64),
    /// Scenario-style flash-crowd burst: every table of one database
    /// takes a write in a single step (changelog-visible), mirroring the
    /// workload matrix's flash-crowd generator — the dirty set jumps
    /// from O(1) to a whole database between cycles.
    Burst(u64),
    /// Out-of-band transform-policy shift for one database (changelog-
    /// invisible, like a quota edit): swings the transform-enablement,
    /// sort-disorder, partition-skew and delete-debt signals that drive
    /// [`JobKind::classify`], so cached verdicts and rank rows must be
    /// invalidated across a *kind* re-classification, not just a stats
    /// delta.
    TransformShift(u64, u64),
    /// Switch the ranking policy on both pipelines (config epoch bump).
    SwitchPolicy(u8),
    /// Ingest one identical feedback record into both pipelines.
    Feedback(u64, u64),
    /// Run one cycle on both sides and compare reports bit-for-bit.
    Cycle,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..1_000_000).prop_map(Op::Write),
        (0u64..1_000_000).prop_map(Op::Spike),
        (0u64..DATABASES, 1u64..60).prop_map(|(db, delta)| Op::QuotaEdit(db, delta)),
        (0u64..DATABASES).prop_map(Op::Burst),
        (0u64..DATABASES, 1u64..10).prop_map(|(db, delta)| Op::TransformShift(db, delta)),
        (0u8..4).prop_map(Op::SwitchPolicy),
        (1u64..200, 1u64..200).prop_map(|(p, a)| Op::Feedback(p, a)),
        (0u8..2).prop_map(|_| Op::Cycle),
    ]
}

fn policy(p: u8) -> RankingPolicy {
    match p % 4 {
        0 => RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: 7,
        },
        1 => RankingPolicy::Threshold {
            trait_name: "file_count_reduction".into(),
            min_value: 45.0,
            max_k: Some(11),
        },
        2 => RankingPolicy::BudgetedMoop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.6),
                TraitWeight::new("compute_cost_gbhr", 0.4),
            ],
            cost_trait: "compute_cost_gbhr".into(),
            budget: 9.0,
            max_k: Some(25),
        },
        _ => RankingPolicy::QuotaAwareMoop {
            benefit_trait: "file_count_reduction".into(),
            cost_trait: "compute_cost_gbhr".into(),
            k: Some(5),
            budget: None,
        },
    }
}

fn filters(time_sensitive_chain: bool) -> Vec<Box<dyn CandidateFilter>> {
    let mut filters: Vec<Box<dyn CandidateFilter>> = vec![
        Box::new(CompactionDisabledFilter),
        Box::new(IntermediateTableFilter),
        Box::new(MinSizeFilter {
            min_total_bytes: 32 << 20,
            min_file_count: 0,
        }),
    ];
    if time_sensitive_chain {
        filters.push(Box::new(RecentWriteActivityFilter {
            quiet_ms: 10_000,
            max_writes_per_hour: 3.5,
        }));
    }
    filters
}

fn traits() -> Vec<Box<dyn TraitComputer>> {
    vec![
        Box::new(FileCountReduction::default()),
        Box::new(ComputeCostGbhr::default()),
        Box::new(DeleteDebt),
        Box::new(SortDisorder),
        Box::new(PartitionSkewExcess),
    ]
}

fn pipeline(scope: ScopeStrategy, p: u8, time_sensitive_chain: bool) -> AutoComp {
    let ac = AutoComp::new(AutoCompConfig {
        scope,
        policy: policy(p),
        trigger_label: "parity".into(),
        calibrate: true,
    });
    let ac = filters(time_sensitive_chain)
        .into_iter()
        .fold(ac, AutoComp::with_filter);
    traits().into_iter().fold(ac, AutoComp::with_trait)
}

/// Bit-level report comparison, proptest-flavored.
fn reports_identical(a: &CycleReport, b: &CycleReport, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(common::report_difference(a, b), None, "{}", ctx);
    Ok(())
}

const SCOPES: [ScopeStrategy; 4] = [
    ScopeStrategy::Table,
    ScopeStrategy::Partition,
    ScopeStrategy::Hybrid,
    ScopeStrategy::Snapshot { window_ms: 1000 },
];

/// Runs one scenario under one scope: every `Cycle` op runs a cold cycle
/// (fresh observe, cache disabled) and an incremental cycle (observer +
/// cache) over the same lake state and compares the reports.
fn run_scenario(
    n: u64,
    p0: u8,
    ops: &[Op],
    scope: ScopeStrategy,
    time_sensitive_chain: bool,
) -> Result<(), TestCaseError> {
    let lake = ModelLake::new(n);
    let mut cold = pipeline(scope, p0, time_sensitive_chain);
    let mut incremental = pipeline(scope, p0, time_sensitive_chain);
    let mut observer = FleetObserver::new();
    let mut now = 1_000u64;
    let mut cycles = 0usize;
    let (ref_filters, ref_traits) = (filters(time_sensitive_chain), traits());
    let run_cycle = |cold: &mut AutoComp,
                     incremental: &mut AutoComp,
                     observer: &mut FleetObserver,
                     now: u64,
                     via_tracked_entry: bool,
                     label: &str|
     -> Result<(), TestCaseError> {
        cold.invalidate_cycle_cache();
        let cold_report = cold
            .cycle(CycleInput {
                connector: &lake,
                observer: &mut FleetObserver::new(),
                executor: &mut Untracked(SeqExecutor::default()),
                now_ms: now,
            })
            .expect("cold cycle runs");
        // Alternate cycles drive the tracker-less pipeline through the
        // shared `tracked_cycle` helper: without a job tracker the
        // reports match bit-for-bit either way, quiet ledger included.
        let incremental_report = if via_tracked_entry {
            tracked_cycle(
                incremental,
                observer,
                &lake,
                &mut Untracked(SeqExecutor::default()),
                now,
            )
            .expect("tracked-entry cycle runs")
        } else {
            incremental
                .cycle(CycleInput {
                    connector: &lake,
                    observer,
                    executor: &mut Untracked(SeqExecutor::default()),
                    now_ms: now,
                })
                .expect("incremental cycle runs")
        };
        prop_assert!(
            incremental_report.ledger.is_quiet(),
            "{label}: disabled tracker must keep a quiet ledger"
        );
        let reference = reference_cycle(
            observer.last().expect("the incremental cycle observed"),
            &ref_filters,
            &ref_traits,
            &incremental.config().policy,
            now,
        );
        let difference = reference_difference(&incremental_report, &reference);
        prop_assert!(
            difference.is_none(),
            "{}: against the reference cycle: {:?}",
            label,
            difference
        );
        reports_identical(&cold_report, &incremental_report, label)
    };
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Write(raw) => lake.write(raw % n),
            Op::Spike(raw) => {
                for _ in 0..16 {
                    lake.write(raw % n);
                }
            }
            Op::QuotaEdit(db, delta) => {
                lake.quota_edit(*db, *delta);
                // The documented recipe for changelog-invisible shared
                // signals: force-dirty the affected tables. Must also
                // patch their decide-state slots.
                for uid in 0..n {
                    if uid % DATABASES == *db {
                        observer.mark_dirty(uid);
                    }
                }
            }
            Op::Burst(db) => {
                for uid in 0..n {
                    if uid % DATABASES == *db {
                        lake.write(uid);
                    }
                }
            }
            Op::TransformShift(db, delta) => {
                lake.transform_shift(*db, *delta);
                // Same shared-signal recipe as quota edits: the shift is
                // changelog-invisible, so the affected tables must be
                // force-dirtied or cached kinds/verdicts would go stale.
                for uid in 0..n {
                    if uid % DATABASES == *db {
                        observer.mark_dirty(uid);
                    }
                }
            }
            Op::SwitchPolicy(p) => {
                cold.config_mut().policy = policy(*p);
                incremental.config_mut().policy = policy(*p);
            }
            Op::Feedback(pred, act) => {
                let record = FeedbackRecord {
                    candidate: autocomp::CandidateId::table(0),
                    at_ms: now,
                    predicted_reduction: *pred as i64,
                    actual_reduction: *act as i64,
                    predicted_gbhr: *pred as f64 * 0.01,
                    actual_gbhr: *act as f64 * 0.01,
                };
                cold.ingest_feedback(record.clone());
                incremental.ingest_feedback(record);
            }
            Op::Cycle => {
                run_cycle(
                    &mut cold,
                    &mut incremental,
                    &mut observer,
                    now,
                    cycles % 2 == 1,
                    &format!("{scope:?} op {i}"),
                )?;
                cycles += 1;
                now += 577;
            }
        }
    }
    // Every scenario ends with two quiet cycles: the first may recompute
    // (trailing mutations), the second exercises a maximal splice.
    for tail in 0..2 {
        run_cycle(
            &mut cold,
            &mut incremental,
            &mut observer,
            now,
            cycles % 2 == 1,
            &format!("{scope:?} tail {tail}"),
        )?;
        cycles += 1;
        now += 577;
    }
    prop_assert!(cycles >= 2, "scenario must run cycles");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// All four scopes × randomized policy, with a time-insensitive
    /// filter chain: the decide state is reused across moving timestamps
    /// and reports must stay bit-identical to always-cold cycles.
    #[test]
    fn incremental_cycles_match_cold_cycles(
        n in 4u64..40,
        p0 in 0u8..4,
        ops in collection::vec(op_strategy(), 1..24),
    ) {
        for scope in SCOPES {
            run_scenario(n, p0, &ops, scope, false)?;
        }
    }
}

/// Tracked variant of the scenario runner: both pipelines carry a job
/// tracker and a *persistent* deterministic platform, so every `Cycle`
/// op interleaves submissions, in-flight suppression windows, settle
/// events (successes and scripted conflicts), backoff retries, and
/// admission deferrals — and the incremental side must still match the
/// always-cold side bit-for-bit, ledger included.
fn run_tracked_scenario(
    n: u64,
    p0: u8,
    ops: &[Op],
    scope: ScopeStrategy,
) -> Result<(), TestCaseError> {
    let lake = ModelLake::new(n);
    let runtime = JobRuntimeConfig {
        max_in_flight: 4,
        max_in_flight_per_database: 2,
        gbhr_budget: Some(30.0),
        gbhr_window_ms: 5_000,
        max_retries: 2,
        retry_backoff_ms: 600,
        retry_backoff_cap_ms: 2_400,
        job_lease_ms: None,
    };
    let mut cold = pipeline(scope, p0, false).with_job_tracker(runtime.clone());
    let mut incremental = pipeline(scope, p0, false).with_job_tracker(runtime);
    let mut cold_platform = ScriptedPlatform::parity(1_500);
    let mut incr_platform = ScriptedPlatform::parity(1_500);
    let mut observer = FleetObserver::new();
    let mut now = 1_000u64;
    for (i, op) in ops.iter().enumerate().chain([(usize::MAX, &Op::Cycle)]) {
        match op {
            Op::Write(raw) => lake.write(raw % n),
            Op::Spike(raw) => {
                for _ in 0..16 {
                    lake.write(raw % n);
                }
            }
            Op::QuotaEdit(db, delta) => {
                lake.quota_edit(*db, *delta);
                for uid in 0..n {
                    if uid % DATABASES == *db {
                        observer.mark_dirty(uid);
                    }
                }
            }
            Op::Burst(db) => {
                for uid in 0..n {
                    if uid % DATABASES == *db {
                        lake.write(uid);
                    }
                }
            }
            Op::TransformShift(db, delta) => {
                lake.transform_shift(*db, *delta);
                for uid in 0..n {
                    if uid % DATABASES == *db {
                        observer.mark_dirty(uid);
                    }
                }
            }
            Op::SwitchPolicy(p) => {
                cold.config_mut().policy = policy(*p);
                incremental.config_mut().policy = policy(*p);
            }
            Op::Feedback(pred, act) => {
                let record = FeedbackRecord {
                    candidate: autocomp::CandidateId::table(0),
                    at_ms: now,
                    predicted_reduction: *pred as i64,
                    actual_reduction: *act as i64,
                    predicted_gbhr: *pred as f64 * 0.01,
                    actual_gbhr: *act as f64 * 0.01,
                };
                cold.ingest_feedback(record.clone());
                incremental.ingest_feedback(record);
            }
            Op::Cycle => {
                cold.invalidate_cycle_cache();
                let cold_report = cold
                    .cycle(CycleInput {
                        connector: &lake,
                        observer: &mut FleetObserver::new(),
                        executor: &mut cold_platform,
                        now_ms: now,
                    })
                    .expect("cold tracked cycle runs");
                let incremental_report = tracked_cycle(
                    &mut incremental,
                    &mut observer,
                    &lake,
                    &mut incr_platform,
                    now,
                )
                .expect("incremental tracked cycle runs");
                reports_identical(
                    &cold_report,
                    &incremental_report,
                    &format!("tracked {scope:?} op {i}"),
                )?;
                now += 577;
            }
        }
    }
    Ok(())
}

/// Deterministic companion proving the tracked harness is not vacuous:
/// a write-heavy scenario drives submissions, suppressions, settles and
/// conflict retries through `run_tracked_scenario`'s exact machinery.
#[test]
fn tracked_harness_actually_exercises_the_ledger() {
    let lake = ModelLake::new(12);
    let mut ac = pipeline(ScopeStrategy::Table, 0, false).with_job_tracker(JobRuntimeConfig {
        retry_backoff_ms: 600,
        retry_backoff_cap_ms: 2_400,
        ..JobRuntimeConfig::default()
    });
    let mut platform = ScriptedPlatform::parity(1_500);
    let mut observer = FleetObserver::new();
    let mut saw = (false, false, false, false); // submit, suppress, settle, retry
    let mut now = 1_000u64;
    for round in 0..12u64 {
        lake.write(round % 12);
        let report = tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, now).unwrap();
        saw.0 |= !report.executed.is_empty();
        saw.1 |= report.ledger.suppressed > 0;
        saw.2 |= report.ledger.settled > 0;
        saw.3 |= report.ledger.retries_submitted > 0;
        now += 577;
    }
    assert!(saw.0, "submissions happened");
    assert!(saw.1, "in-flight suppression happened");
    assert!(saw.2, "settle events happened");
    assert!(saw.3, "conflict retries happened");
}

/// PR-9 telemetry pin: instrumentation must never change decisions. Two
/// tracked pipelines run the same write-heavy script over one shared
/// lake — one under the default *enabled* sink, one with the sink
/// explicitly disabled — and every cycle's report must stay bit
/// identical while the enabled sink demonstrably records.
#[test]
fn instrumented_cycles_match_uninstrumented_cycles() {
    use autocomp::telemetry::{names, MetricKey};
    use autocomp::TelemetrySink;

    let lake = ModelLake::new(12);
    let runtime = JobRuntimeConfig {
        retry_backoff_ms: 600,
        retry_backoff_cap_ms: 2_400,
        ..JobRuntimeConfig::default()
    };
    let mut on = pipeline(ScopeStrategy::Table, 0, false).with_job_tracker(runtime.clone());
    let mut off = pipeline(ScopeStrategy::Table, 0, false)
        .with_job_tracker(runtime)
        .with_telemetry(TelemetrySink::disabled());
    assert!(on.telemetry().is_enabled(), "telemetry is on by default");
    assert!(!off.telemetry().is_enabled());
    let mut on_platform = ScriptedPlatform::parity(1_500);
    let mut off_platform = ScriptedPlatform::parity(1_500);
    let mut on_observer = FleetObserver::new();
    let mut off_observer = FleetObserver::new();
    let mut now = 1_000u64;
    for round in 0..12u64 {
        lake.write(round % 12);
        let a = tracked_cycle(&mut on, &mut on_observer, &lake, &mut on_platform, now).unwrap();
        let b = tracked_cycle(&mut off, &mut off_observer, &lake, &mut off_platform, now).unwrap();
        reports_identical(&a, &b, &format!("telemetry round {round}")).unwrap();
        now += 577;
    }
    let reg = on
        .telemetry()
        .registry()
        .expect("enabled sink has a registry");
    assert_eq!(
        reg.counter_value(MetricKey::plain(names::PIPELINE_CYCLES_TOTAL)),
        12
    );
    let render = reg.render_prometheus();
    assert!(
        render.contains(names::ACT_ADMITTED_TOTAL),
        "act-layer counters recorded: {render}"
    );
    assert!(off.telemetry().render_prometheus().is_empty());
}

/// Deterministic companion for the kind dimension: a scripted burst +
/// transform-shift sequence runs through the exact parity machinery for
/// every scope (asserting bit parity along the way), and the same script
/// on a plain incremental pipeline demonstrably executes several
/// distinct rewrite kinds — so the properties above exercise kind
/// re-classification, not an all-merge fleet.
#[test]
fn transform_shifts_drive_multiple_kinds_through_the_parity_harness() {
    let script = vec![
        Op::Cycle,
        Op::TransformShift(1, 3),
        Op::Burst(1),
        Op::Cycle,
        Op::TransformShift(0, 7),
        Op::Burst(0),
        Op::Cycle,
        Op::TransformShift(2, 5),
        Op::Burst(2),
        Op::Cycle,
    ];
    for scope in SCOPES {
        run_scenario(24, 0, &script, scope, false).unwrap();
    }

    // Replay on one incremental pipeline and record the executed kinds.
    let n = 24u64;
    let lake = ModelLake::new(n);
    let mut ac = pipeline(ScopeStrategy::Table, 0, false);
    let mut observer = FleetObserver::new();
    let mut now = 1_000u64;
    let mut kinds = std::collections::BTreeSet::new();
    for op in &script {
        match op {
            Op::Burst(db) => {
                for uid in 0..n {
                    if uid % DATABASES == *db {
                        lake.write(uid);
                    }
                }
            }
            Op::TransformShift(db, delta) => {
                lake.transform_shift(*db, *delta);
                for uid in 0..n {
                    if uid % DATABASES == *db {
                        observer.mark_dirty(uid);
                    }
                }
            }
            Op::Cycle => {
                let report = ac
                    .cycle(CycleInput {
                        connector: &lake,
                        observer: &mut observer,
                        executor: &mut Untracked(SeqExecutor::default()),
                        now_ms: now,
                    })
                    .unwrap();
                for job in &report.executed {
                    kinds.insert(format!("{:?}", job.prediction.kind));
                }
                now += 577;
            }
            _ => unreachable!("script uses bursts, shifts and cycles only"),
        }
    }
    assert!(
        kinds.contains(&format!("{:?}", JobKind::Merge)) && kinds.len() >= 3,
        "script must execute merge plus at least two transform kinds, got {kinds:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// Tracked parity: with the job runtime active on both sides —
    /// settle events, conflict retries, suppression and admission all
    /// interleaved by the op stream — incremental cycles still match
    /// always-cold cycles bit-for-bit, `JobLedgerSummary` included.
    #[test]
    fn tracked_incremental_cycles_match_cold_tracked_cycles(
        n in 4u64..32,
        p0 in 0u8..4,
        ops in collection::vec(op_strategy(), 1..20),
    ) {
        for scope in SCOPES {
            run_tracked_scenario(n, p0, &ops, scope)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// Same property with a time-sensitive filter in the chain
    /// (`RecentWriteActivityFilter`): the cache must refuse to splice
    /// stale verdicts across moving timestamps, and parity must still
    /// hold through the recompute path.
    #[test]
    fn incremental_cycles_match_cold_cycles_with_time_sensitive_filters(
        n in 4u64..32,
        p0 in 0u8..4,
        ops in collection::vec(op_strategy(), 1..20),
    ) {
        for scope in SCOPES {
            run_scenario(n, p0, &ops, scope, true)?;
        }
    }
}

/// Deterministic companion: proves the harness is not vacuous — quiet
/// consecutive cycles really do splice from the cache (and still match
/// cold output, which the properties above assert).
#[test]
fn harness_scenarios_actually_splice() {
    let n = 24u64;
    let lake = ModelLake::new(n);
    let mut incremental = pipeline(ScopeStrategy::Hybrid, 0, false);
    let mut observer = FleetObserver::new();
    for now in [1_000u64, 2_000, 3_000] {
        incremental
            .cycle(CycleInput {
                connector: &lake,
                observer: &mut observer,
                executor: &mut Untracked(SeqExecutor::default()),
                now_ms: now,
            })
            .unwrap();
    }
    let stats = incremental.cycle_cache_stats();
    assert_eq!(stats.spliced_tables, n as usize, "quiet cycles splice all");
    assert_eq!(stats.recomputed_tables, 0);
    lake.write(5);
    incremental
        .cycle(CycleInput {
            connector: &lake,
            observer: &mut observer,
            executor: &mut Untracked(SeqExecutor::default()),
            now_ms: 4_000,
        })
        .unwrap();
    let stats = incremental.cycle_cache_stats();
    assert_eq!(
        stats.recomputed_tables, 1,
        "only the written table recomputes"
    );
    assert_eq!(stats.spliced_tables, n as usize - 1);
}

// ---------------------------------------------------------------------
// O(dirty + k) steady-state pins: the fast paths must engage on quiet
// cycles, fall back exactly when normalization bounds move, and stay
// bit-identical to cold cycles throughout.
// ---------------------------------------------------------------------

/// Lake where table 0 uniquely controls the fleet-wide maximum of the
/// ranked trait: writing it is guaranteed to move the min–max bounds.
struct BoundLake {
    tables: Vec<TableRef>,
    versions: Mutex<Vec<u64>>,
    log: Mutex<Vec<(u64, u64)>>,
    seq: AtomicU64,
}

impl BoundLake {
    fn new(n: u64) -> Self {
        BoundLake {
            tables: (0..n)
                .map(|i| TableRef {
                    table_uid: i,
                    database: "db".into(),
                    name: format!("t{i}").into(),
                    partitioned: false,
                    compaction_enabled: true,
                    is_intermediate: false,
                })
                .collect(),
            versions: Mutex::new(vec![0; n as usize]),
            log: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
        }
    }

    fn write(&self, uid: u64) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.log.lock().unwrap().push((seq, uid));
        self.versions.lock().unwrap()[uid as usize] += 1;
    }

    fn small_files(&self, uid: u64) -> u64 {
        let v = self.versions.lock().unwrap()[uid as usize];
        if uid == 0 {
            // Unique fleet maximum; every write moves it.
            1_000 + v * 500
        } else {
            // Version-independent mid-range values: writes dirty the
            // table but leave the bounds untouched.
            100 + uid
        }
    }
}

impl LakeConnector for BoundLake {
    fn list_tables(&self) -> Vec<TableRef> {
        self.tables.clone()
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        (uid < self.tables.len() as u64).then(|| CandidateStats {
            file_count: self.small_files(uid) + 5,
            small_file_count: self.small_files(uid),
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

fn bound_pipeline() -> AutoComp {
    AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Moop {
            weights: vec![TraitWeight::new("file_count_reduction", 1.0)],
            k: 3,
        },
        trigger_label: "bounds".into(),
        calibrate: false,
    })
    .with_trait(Box::new(FileCountReduction::default()))
}

/// Normalization-bound movement mid-sequence: quiet cycles must run the
/// maintained (memo-fast) rank path, a bound-moving write must force the
/// fleet-wide fallback, and every report must stay bit-identical to an
/// always-cold pipeline either way.
#[test]
fn bound_movement_forces_rank_fallback_and_stays_bit_identical() {
    let n = 24u64;
    let lake = BoundLake::new(n);
    let mut cold = bound_pipeline();
    let mut incremental = bound_pipeline();
    let mut observer = FleetObserver::new();
    let compare = |cold: &mut AutoComp,
                   incremental: &mut AutoComp,
                   observer: &mut FleetObserver,
                   now: u64,
                   label: &str| {
        cold.invalidate_cycle_cache();
        let a = cold
            .cycle(CycleInput {
                connector: &lake,
                observer: &mut FleetObserver::new(),
                executor: &mut Untracked(SeqExecutor::default()),
                now_ms: now,
            })
            .unwrap();
        let b = incremental
            .cycle(CycleInput {
                connector: &lake,
                observer,
                executor: &mut Untracked(SeqExecutor::default()),
                now_ms: now,
            })
            .unwrap();
        reports_identical(&a, &b, label).unwrap();
    };

    // Cycle 1 (cold fill) and 2 (quiet): the second must run the
    // maintained path end to end — zero recomputed scores.
    compare(&mut cold, &mut incremental, &mut observer, 1_000, "fill");
    compare(&mut cold, &mut incremental, &mut observer, 2_000, "quiet");
    let quiet = incremental.rank_memo_stats();
    assert!(quiet.memo_fast, "quiet cycle keeps the maintained order");
    assert_eq!(quiet.recomputed_scores, 0);
    assert_eq!(quiet.spliced_scores, n as usize);

    // A write that leaves the bounds untouched: only the dirty row
    // recomputes, selection is still maintained.
    lake.write(5);
    compare(
        &mut cold,
        &mut incremental,
        &mut observer,
        3_000,
        "in-bounds write",
    );
    let stats = incremental.rank_memo_stats();
    assert!(stats.memo_fast, "stable bounds keep the maintained order");
    assert_eq!(stats.recomputed_scores, 1, "only the dirty row rescores");

    // A bound-moving write: the maintained order is unusable — the rank
    // phase must recompute fleet-wide (and still match cold exactly).
    lake.write(0);
    compare(
        &mut cold,
        &mut incremental,
        &mut observer,
        4_000,
        "bound move",
    );
    let stats = incremental.rank_memo_stats();
    assert!(!stats.memo_fast, "moved bounds force the fallback");
    assert_eq!(stats.recomputed_scores, n as usize);

    // The fallback re-seeds the selection: the next quiet cycle is fast
    // again.
    compare(
        &mut cold,
        &mut incremental,
        &mut observer,
        5_000,
        "re-seeded",
    );
    assert!(incremental.rank_memo_stats().memo_fast);
}

/// One pin per condition that sends a cycle down the fleet-wide path —
/// no state, the epoch key, the cursor-chain key, the clock key of a
/// time-sensitive chain, a starved prefix and a budget-driven policy —
/// and one per quiet cycle that must not take it. Moved bounds are
/// pinned above; a re-described table in `observe_parity`. Every report
/// stays bit-identical to an always-cold pipeline's.
#[test]
fn each_fleet_wide_condition_takes_the_fleet_wide_path() {
    let n = 24usize;
    let lake = BoundLake::new(n as u64);
    let quiet_writer = || {
        bound_pipeline().with_filter(Box::new(RecentWriteActivityFilter {
            quiet_ms: 10,
            max_writes_per_hour: 1e9,
        }))
    };
    let mut incremental = bound_pipeline();
    let mut observer = FleetObserver::new();
    let cycle = |ac: &mut AutoComp, observer: &mut FleetObserver, now_ms: u64, label: &str| {
        let run = |ac: &mut AutoComp, observer: &mut FleetObserver| {
            ac.cycle(CycleInput {
                connector: &lake,
                observer,
                executor: &mut Untracked(SeqExecutor::default()),
                now_ms,
            })
            .unwrap()
        };
        let mut cold = bound_pipeline();
        *cold.config_mut() = ac.config().clone();
        let b = run(ac, observer);
        cold.invalidate_cycle_cache();
        let a = run(&mut cold, &mut FleetObserver::new());
        reports_identical(&a, &b, label).unwrap();
        (ac.cycle_cache_stats(), ac.rank_memo_stats())
    };
    let fleet_wide = |(tables, ranks): (CycleCacheStats, RankCycleStats), label: &str| {
        assert_eq!(tables.recomputed_tables, n, "{label}: every table patched");
        assert!(!ranks.memo_fast, "{label}: full selection");
        assert_eq!(ranks.recomputed_scores, n, "{label}: every row re-scored");
    };
    let maintained = |(tables, ranks): (CycleCacheStats, RankCycleStats), label: &str| {
        assert_eq!(tables.spliced_tables, n, "{label}: no table patched");
        assert!(ranks.memo_fast, "{label}: maintained selection");
        assert_eq!(ranks.recomputed_scores, 0, "{label}: no row re-scored");
    };

    fleet_wide(
        cycle(&mut incremental, &mut observer, 1_000, "no state"),
        "no state",
    );
    maintained(
        cycle(&mut incremental, &mut observer, 2_000, "quiet"),
        "quiet",
    );
    incremental.invalidate_cycle_cache();
    fleet_wide(
        cycle(&mut incremental, &mut observer, 3_000, "epoch"),
        "epoch",
    );
    let mut other_chain = FleetObserver::new();
    fleet_wide(
        cycle(&mut incremental, &mut other_chain, 4_000, "cursor"),
        "cursor",
    );
    maintained(
        cycle(&mut incremental, &mut other_chain, 5_000, "quiet"),
        "quiet again",
    );

    // A starved prefix: five written rows leave 19 survivors for a head
    // of 20. Bounds hold, so only the written rows re-score.
    (1..=5).for_each(|uid| lake.write(uid));
    let (tables, ranks) = cycle(&mut incremental, &mut other_chain, 6_000, "starved");
    assert_eq!(tables.recomputed_tables, 5);
    assert!(
        !ranks.memo_fast,
        "a starved prefix takes the full selection"
    );
    assert_eq!(ranks.recomputed_scores, 5);

    // A budget-driven policy: filter and orient reuse every table, and
    // ranking re-scores every row each cycle.
    incremental.config_mut().policy = RankingPolicy::BudgetedMoop {
        weights: vec![TraitWeight::new("file_count_reduction", 1.0)],
        cost_trait: "file_count_reduction".into(),
        budget: 2_000.0,
        max_k: None,
    };
    cycle(&mut incremental, &mut other_chain, 7_000, "budget switch");
    let (tables, ranks) = cycle(&mut incremental, &mut other_chain, 8_000, "budget");
    assert_eq!(tables.spliced_tables, n);
    assert!(!ranks.memo_fast);
    assert_eq!(
        ranks.recomputed_scores, n,
        "a budget walk re-scores every row"
    );

    // The clock key: a time-sensitive chain reuses its state at the fill
    // timestamp only.
    let mut timed = quiet_writer();
    let mut timed_observer = FleetObserver::new();
    let mut timed_cycle = |now_ms| {
        timed
            .cycle(CycleInput {
                connector: &lake,
                observer: &mut timed_observer,
                executor: &mut Untracked(SeqExecutor::default()),
                now_ms,
            })
            .unwrap();
        timed.cycle_cache_stats()
    };
    timed_cycle(9_000);
    assert_eq!(timed_cycle(9_000).spliced_tables, n, "same timestamp");
    assert_eq!(timed_cycle(9_500).recomputed_tables, n, "moved timestamp");
}

/// Observe assembly over a shared listing touches O(dirty) positions: a
/// quiet cycle shares the prior observation's entry table outright (one
/// refcount bump — zero positions touched), and a dirty cycle re-fetches
/// and patches exactly the dirty set while sharing the listing.
#[test]
fn observe_assembly_touches_only_dirty_positions() {
    let n = 30u64;
    let lake = ModelLake::new(n);
    let mut observer = FleetObserver::new();
    let cold = observer.observe(&lake, ScopeStrategy::Table).clone();
    assert_eq!(cold.fetched_tables(), n as usize);

    let quiet = observer.observe(&lake, ScopeStrategy::Table).clone();
    assert_eq!(quiet.fetched_tables(), 0);
    assert!(
        quiet.entries_shared_with(&cold),
        "quiet assembly is one Arc bump, no per-position work"
    );
    assert_eq!(
        quiet.tables().as_ptr(),
        cold.tables().as_ptr(),
        "listing shared under an unchanged epoch"
    );

    lake.write(7);
    lake.write(19);
    lake.write(19);
    let dirty = observer.observe(&lake, ScopeStrategy::Table).clone();
    assert!(!dirty.entries_shared_with(&quiet));
    assert_eq!(dirty.fetched_tables(), 2, "dedup'd dirty set only");
    let fresh: Vec<u64> = (0..n).filter(|i| dirty.is_fresh(*i as usize)).collect();
    assert_eq!(fresh, vec![7, 19], "patched positions are the dirty set");
    assert_eq!(
        dirty.tables().as_ptr(),
        cold.tables().as_ptr(),
        "listing still shared across the chain"
    );
    // Values stay exact: the patched observation equals a cold one.
    let reference = FleetObserver::new()
        .observe(&lake, ScopeStrategy::Table)
        .clone();
    assert_eq!(dirty.to_candidates(), reference.to_candidates());
}
