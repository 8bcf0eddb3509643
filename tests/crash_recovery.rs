//! Crash-recovery and fault-injection suites for the durability layer.
//!
//! The centerpiece is a crash-restart soak: a tracked OODA loop runs
//! over a deterministic changelog lake with snapshots at every cycle
//! boundary and a submit/settle journal in between, gets killed at
//! scripted points (cycle start, mid-act-wave, and — via a torn
//! snapshot write — mid-snapshot), restores from the newest valid
//! snapshot generation, re-drives the interrupted span through a
//! [`ReplayExecutor`], and must reconverge to `CycleReport`s
//! **bit-identical** to an uninterrupted twin run.
//!
//! Around it: a corruption property test (truncate/bit-flip a valid
//! snapshot anywhere → always a clean `ColdStart` or a faithful warm
//! restore, never a panic or silently-wrong state), direct journal
//! replay with lease-evicted late settles, duplicate-delivery
//! idempotence, and lost-outcome reclamation under seeded fault
//! injection.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};

use autocomp::durability::{SNAPSHOT_KIND, SNAPSHOT_VERSION};
use autocomp::{
    AutoComp, AutoCompConfig, Candidate, CandidateStats, ChangeCursor, CompactionExecutor,
    ComputeCostGbhr, ContinuousRuntime, CycleInput, CycleReport, ExecutionResult,
    FileCountReduction, FleetObserver, JobRuntimeConfig, JournalEvent, JournalingExecutor,
    LakeConnector, MinSizeFilter, Prediction, RankingPolicy, RecoveryReport, ReplayExecutor,
    ReplaySummary, RuntimeConfig, RuntimeEvent, ScopeStrategy, TableRef, TraitWeight, Untracked,
};
use lakesim_storage::{seal_frame, Journal, MemSnapshotMedium, SnapshotMedium, SnapshotStore};
use proptest::prelude::*;

mod common;
use common::faults::{
    CrashPoint, CrashingExecutor, FaultRates, Faulted, FaultyExecutor, SplitMix64, TornMedium,
    SCRIPTED_CRASH,
};
use common::{tracked_cycle, ScriptedPlatform};

const TABLES: u64 = 24;
const CYCLES: usize = 8;
const JOB_DURATION_MS: u64 = 1_500;

fn now(cycle: usize) -> u64 {
    (cycle as u64 + 1) * 1_000
}

/// Keeps scripted-crash panics from spamming stderr while letting every
/// other panic print normally. Installed once per test binary.
fn silence_scripted_crashes() {
    static SILENCE: Once = Once::new();
    SILENCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let scripted = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(SCRIPTED_CRASH));
            if !scripted {
                default(info);
            }
        }));
    });
}

// ---------------------------------------------------------------------
// Deterministic changelog lake (per-table stats are pure functions of
// the table's version, so a restored run re-observes exactly what an
// uninterrupted one did).
// ---------------------------------------------------------------------

struct CrashLake {
    tables: Vec<TableRef>,
    versions: Mutex<Vec<u64>>,
    log: Mutex<Vec<(u64, u64)>>, // (seq, uid)
    seq: AtomicU64,
}

impl CrashLake {
    fn new(n: u64) -> Self {
        CrashLake {
            tables: (0..n)
                .map(|i| TableRef {
                    table_uid: i,
                    database: format!("db{}", i % 3).into(),
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

    /// Pure stats: f(uid, version).
    fn stats_for(&self, uid: u64) -> CandidateStats {
        let v = self.versions.lock().unwrap()[uid as usize];
        CandidateStats {
            file_count: 40 + (uid * 13 + v * 7) % 120,
            small_file_count: (uid * 11 + v * 5) % 100,
            small_bytes: (((uid + v) % 32) + 1) << 20,
            total_bytes: ((((uid * 3 + v) % 64) + 8) << 20).max(1 << 22),
            target_file_size: 512 << 20,
            last_write_ms: (v > 0).then_some(v * 40),
            write_frequency_per_hour: (v % 5) as f64,
            ..CandidateStats::default()
        }
    }
}

impl LakeConnector for CrashLake {
    fn list_tables(&self) -> Vec<TableRef> {
        self.tables.clone()
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        (uid < self.tables.len() as u64).then(|| self.stats_for(uid))
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

/// Executor that never schedules anything (quiet tracked cycles).
#[derive(Default)]
struct InertExecutor;

impl CompactionExecutor for InertExecutor {
    fn execute(&mut self, _c: &Candidate, _p: &Prediction, _now: u64) -> ExecutionResult {
        ExecutionResult::default()
    }
}

fn soak_pipeline() -> AutoComp {
    AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: 6,
        },
        trigger_label: "crash-soak".into(),
        calibrate: true,
    })
    .with_filter(Box::new(MinSizeFilter {
        min_total_bytes: 1 << 20,
        min_file_count: 0,
    }))
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
    .with_job_tracker(JobRuntimeConfig {
        max_in_flight: 8,
        max_in_flight_per_database: 4,
        max_retries: 2,
        retry_backoff_ms: 1_000,
        retry_backoff_cap_ms: 4_000,
        ..JobRuntimeConfig::default()
    })
}

/// Scripted per-window writes: pure function of the cycle index.
fn scripted_writes(cycle: usize) -> Vec<u64> {
    if cycle == 0 {
        return Vec::new();
    }
    (0..3u64)
        .map(|i| ((cycle as u64) * 7 + i * 5) % TABLES)
        .collect()
}

/// Bit-level report comparison (the same fields the parity harness
/// pins, assert-flavored).
fn assert_reports_identical(a: &CycleReport, b: &CycleReport, ctx: &str) {
    assert_eq!(common::report_difference(a, b), None, "{ctx}");
}

// ---------------------------------------------------------------------
// Crash-restart soak.
// ---------------------------------------------------------------------

/// The uninterrupted twin: same lake script, same platform model, no
/// journaling, no snapshots, no crash.
fn run_uninterrupted(cycles: usize, writes: &dyn Fn(usize) -> Vec<u64>) -> Vec<CycleReport> {
    let lake = CrashLake::new(TABLES);
    let mut platform = ScriptedPlatform::parity(JOB_DURATION_MS);
    let mut ac = soak_pipeline();
    let mut observer = FleetObserver::new();
    (0..cycles)
        .map(|i| {
            for uid in writes(i) {
                lake.write(uid);
            }
            tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, now(i)).unwrap()
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
struct KillSpec {
    /// Cycle index the scripted crash fires in.
    cycle: usize,
    /// Where within the cycle it fires.
    crash: CrashPoint,
    /// Tear the snapshot write at the *preceding* cycle boundary, so
    /// recovery must fall back a generation and re-drive two cycles.
    torn_prior_snapshot: bool,
}

fn before_poll(n: u64) -> CrashPoint {
    CrashPoint {
        before_poll: Some(n),
        before_execute: None,
    }
}

fn before_execute(n: u64) -> CrashPoint {
    CrashPoint {
        before_execute: Some(n),
        before_poll: None,
    }
}

/// Appends the cycle-commit marker and saves a boundary snapshot.
fn commit_boundary(
    ac: &AutoComp,
    observer: &FleetObserver,
    platform: &ScriptedPlatform,
    journal: &mut Journal,
    store: &mut SnapshotStore<TornMedium<MemSnapshotMedium>>,
    cycle: usize,
) {
    journal.append(
        &JournalEvent::CycleCommit {
            cycle: cycle as u64,
        }
        .encode(),
    );
    let ctx = autocomp::SnapshotContext {
        cycle: cycle as u64,
        executor_cursor: platform.cursor() as u64,
        journal_watermark: journal.records(),
    };
    let bytes = ac
        .encode_snapshot(observer, &ctx)
        .expect("boundary snapshot should encode once an observation exists");
    store.save(&bytes).expect("snapshot save");
}

/// The interrupted run: journals and snapshots like a durable service,
/// dies at the scripted kill point, restores from the newest valid
/// snapshot, re-drives the interrupted span through a [`ReplayExecutor`]
/// over the rewound platform, then finishes the remaining cycles live.
/// Already-completed re-driven cycles are compared against their
/// pre-crash reports in place.
fn run_interrupted(
    cycles: usize,
    writes: &dyn Fn(usize) -> Vec<u64>,
    spec: KillSpec,
) -> Vec<CycleReport> {
    silence_scripted_crashes();
    let lake = CrashLake::new(TABLES);
    let mut platform = ScriptedPlatform::parity(JOB_DURATION_MS);
    let mut journal = Journal::new();
    let mut store = SnapshotStore::new(TornMedium::new(MemSnapshotMedium::new()));
    let mut reports: Vec<CycleReport> = Vec::new();

    // Phase 1: run normally until the scripted crash fires. The
    // crash wrapper sits *outside* the journaling wrapper, so a platform
    // submit and its journal record are never torn apart.
    let mut ac = soak_pipeline();
    let mut observer = FleetObserver::new();
    let mut crashed_at = None;
    for i in 0..cycles {
        for uid in writes(i) {
            lake.write(uid);
        }
        let crash = if i == spec.cycle {
            spec.crash
        } else {
            CrashPoint::default()
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let journaling = JournalingExecutor::new(&mut platform, &mut journal);
            let mut crashing = CrashingExecutor::new(journaling, crash);
            tracked_cycle(&mut ac, &mut observer, &lake, &mut crashing, now(i)).unwrap()
        }));
        match outcome {
            Ok(report) => {
                reports.push(report);
                if spec.torn_prior_snapshot && i + 1 == spec.cycle {
                    store.medium_mut().tear_next_write_at(24);
                }
                commit_boundary(&ac, &observer, &platform, &mut journal, &mut store, i);
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                assert!(
                    msg.contains(SCRIPTED_CRASH),
                    "unexpected panic during soak: {msg}"
                );
                crashed_at = Some(i);
                break;
            }
        }
    }
    let crashed_at = match crashed_at {
        Some(i) => i,
        None => panic!("kill point never fired: {spec:?}"),
    };
    drop(ac);
    drop(observer);

    // Phase 2: recover. Rebuild an identically-configured pipeline,
    // restore the newest valid snapshot generation, rewind the
    // platform's outcome delivery, and re-drive the interrupted span
    // through the journal.
    let mut ac = soak_pipeline();
    let mut observer = FleetObserver::new();
    let (_seq, bytes) = store
        .load()
        .expect("a valid snapshot generation must survive the crash");
    let recovery = ac.restore_snapshot(&mut observer, &bytes);
    let RecoveryReport::Warm {
        cycle: snapshot_cycle,
        executor_cursor,
        journal_watermark,
        ..
    } = recovery
    else {
        panic!("expected a warm restore, got: {recovery}");
    };
    if spec.torn_prior_snapshot {
        assert_eq!(
            snapshot_cycle as usize,
            spec.cycle - 2,
            "torn boundary write must fall back one snapshot generation"
        );
    } else {
        assert_eq!(snapshot_cycle as usize, crashed_at - 1);
    }
    platform.set_cursor(executor_cursor as usize);
    {
        let mut replay = ReplayExecutor::new(&mut platform, &mut journal, journal_watermark);
        for i in (snapshot_cycle as usize + 1)..=crashed_at {
            let report = tracked_cycle(&mut ac, &mut observer, &lake, &mut replay, now(i)).unwrap();
            if i < crashed_at {
                // A cycle that completed before the crash but whose
                // snapshot was lost: the re-drive must reproduce it
                // bit-for-bit from the older snapshot plus the journal.
                assert_reports_identical(
                    &reports[i],
                    &report,
                    &format!("re-driven completed cycle {i}"),
                );
            } else {
                reports.push(report);
            }
        }
        assert_eq!(
            replay.pending(),
            0,
            "the journaled submission prefix must be fully consumed"
        );
    }
    commit_boundary(
        &ac,
        &observer,
        &platform,
        &mut journal,
        &mut store,
        crashed_at,
    );

    // Phase 3: finish the remaining cycles as a normal durable run.
    for i in (crashed_at + 1)..cycles {
        for uid in writes(i) {
            lake.write(uid);
        }
        let report = {
            let mut journaling = JournalingExecutor::new(&mut platform, &mut journal);
            tracked_cycle(&mut ac, &mut observer, &lake, &mut journaling, now(i)).unwrap()
        };
        reports.push(report);
        commit_boundary(&ac, &observer, &platform, &mut journal, &mut store, i);
    }
    reports
}

#[test]
fn crash_restart_soak_reconverges_bit_identically() {
    let twin = run_uninterrupted(CYCLES, &scripted_writes);
    assert_eq!(twin.len(), CYCLES);
    let specs = [
        // Cycle start: killed before the settle poll ran.
        KillSpec {
            cycle: 2,
            crash: before_poll(1),
            torn_prior_snapshot: false,
        },
        // After settle + observe, before the first submission.
        KillSpec {
            cycle: 2,
            crash: before_execute(1),
            torn_prior_snapshot: false,
        },
        // Mid-act-wave: some submissions journaled, some never made.
        KillSpec {
            cycle: 3,
            crash: before_execute(2),
            torn_prior_snapshot: false,
        },
        KillSpec {
            cycle: 4,
            crash: before_execute(3),
            torn_prior_snapshot: false,
        },
        // Late-run cycle start.
        KillSpec {
            cycle: 6,
            crash: before_poll(1),
            torn_prior_snapshot: false,
        },
    ];
    for spec in specs {
        let resumed = run_interrupted(CYCLES, &scripted_writes, spec);
        assert_eq!(resumed.len(), twin.len(), "{spec:?}: cycle count");
        for (i, (a, b)) in twin.iter().zip(resumed.iter()).enumerate() {
            assert_reports_identical(a, b, &format!("{spec:?} cycle {i}"));
        }
    }
}

/// Torn writes script: the kill window stays quiet so the re-driven
/// older cycle observes the same lake state it originally did.
fn torn_writes(cycle: usize) -> Vec<u64> {
    if cycle == 4 {
        Vec::new()
    } else {
        scripted_writes(cycle)
    }
}

#[test]
fn torn_snapshot_write_recovers_from_prior_generation() {
    let twin = run_uninterrupted(CYCLES, &torn_writes);
    let spec = KillSpec {
        cycle: 4,
        crash: before_poll(1),
        torn_prior_snapshot: true,
    };
    let resumed = run_interrupted(CYCLES, &torn_writes, spec);
    assert_eq!(resumed.len(), twin.len());
    for (i, (a, b)) in twin.iter().zip(resumed.iter()).enumerate() {
        assert_reports_identical(a, b, &format!("torn-snapshot cycle {i}"));
    }
}

// ---------------------------------------------------------------------
// Snapshot corruption: never a panic, never a wrong warm state.
// ---------------------------------------------------------------------

/// A valid snapshot plus the recovery report a pristine restore yields.
fn corruption_corpus() -> (Vec<u8>, RecoveryReport) {
    let lake = CrashLake::new(6);
    let mut platform = ScriptedPlatform::parity(JOB_DURATION_MS);
    let mut ac = soak_pipeline();
    let mut observer = FleetObserver::new();
    for i in 0..3 {
        if i > 0 {
            lake.write(i as u64);
        }
        tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, now(i)).unwrap();
    }
    let ctx = autocomp::SnapshotContext {
        cycle: 2,
        executor_cursor: platform.cursor() as u64,
        journal_watermark: 17,
    };
    let bytes = ac.encode_snapshot(&observer, &ctx).unwrap();
    let mut pristine = soak_pipeline();
    let mut pristine_observer = FleetObserver::new();
    let report = pristine.restore_snapshot(&mut pristine_observer, &bytes);
    assert!(report.is_warm(), "corpus must restore warm, got: {report}");
    (bytes, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn corrupted_snapshots_cold_start_never_panic(
        offset in 0u64..1_000_000,
        mode in 0u8..2,
    ) {
        let (bytes, pristine) = corruption_corpus();
        let mut mutated = bytes.clone();
        if mode == 0 {
            mutated.truncate(offset as usize % mutated.len());
        } else {
            let bit = offset as usize % (mutated.len() * 8);
            mutated[bit / 8] ^= 1 << (bit % 8);
        }
        let mut ac = soak_pipeline();
        let mut observer = FleetObserver::new();
        // Must not panic, and must not install a wrong warm state: the
        // only acceptable outcomes are a reasoned cold start or (in the
        // astronomically-unlikely event a flip survives the checksum) a
        // warm restore identical to the pristine one.
        let report = ac.restore_snapshot(&mut observer, &mutated);
        match &report {
            RecoveryReport::ColdStart { reason } => prop_assert!(!reason.is_empty()),
            warm => prop_assert_eq!(warm.clone(), pristine),
        }
    }
}

#[test]
fn restore_rejects_newer_versions_and_foreign_configs() {
    // A frame from a "future" build: rejected by version ceiling.
    let mut ac = soak_pipeline();
    let mut observer = FleetObserver::new();
    let future = seal_frame(SNAPSHOT_KIND, SNAPSHOT_VERSION + 1, &[1, 2, 3, 4]);
    let report = ac.restore_snapshot(&mut observer, &future);
    let reason = report.cold_reason().expect("newer version must cold-start");
    assert!(reason.contains("rejected"), "reason: {reason}");

    // Empty input: cold start, not a panic.
    let report = ac.restore_snapshot(&mut observer, &[]);
    assert!(!report.is_warm());

    // A valid snapshot restored into a differently-configured pipeline:
    // fingerprint mismatch.
    let (bytes, _) = corruption_corpus();
    let mut other = AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Threshold {
            trait_name: "file_count_reduction".into(),
            min_value: 10.0,
            max_k: Some(4),
        },
        trigger_label: "crash-soak".into(),
        calibrate: true,
    })
    .with_trait(Box::new(FileCountReduction::default()));
    let mut other_observer = FleetObserver::new();
    let report = other.restore_snapshot(&mut other_observer, &bytes);
    let reason = report
        .cold_reason()
        .expect("foreign config must cold-start");
    assert!(reason.contains("fingerprint"), "reason: {reason}");
}

/// A slot written by an older build is not migrated: its frame opens,
/// and the restore cold-starts with a reason naming both versions.
#[test]
fn an_older_version_slot_cold_starts_with_a_reason() {
    let (bytes, _) = corruption_corpus();
    let payload = lakesim_storage::open_frame(&bytes, SNAPSHOT_KIND, SNAPSHOT_VERSION)
        .unwrap()
        .payload;
    let older = seal_frame(SNAPSHOT_KIND, SNAPSHOT_VERSION - 1, payload);
    let mut ac = soak_pipeline();
    let mut observer = FleetObserver::new();
    let report = ac.restore_snapshot(&mut observer, &older);
    let reason = report
        .cold_reason()
        .expect("an older version must cold-start");
    let versions = [SNAPSHOT_VERSION - 1, SNAPSHOT_VERSION].map(|v| v.to_string());
    assert!(
        versions.iter().all(|v| reason.contains(v.as_str())),
        "reason: {reason}"
    );
    assert!(
        observer.last().is_none(),
        "nothing of the slot is installed"
    );
    assert_eq!(ac.cycle_cache_len(), 0);
}

// ---------------------------------------------------------------------
// Direct journal replay: late settles for lease-evicted jobs, and
// idempotence under repeated replay.
// ---------------------------------------------------------------------

#[test]
fn journal_replay_settles_lease_evicted_jobs_once() {
    let lake = CrashLake::new(8);
    let mut platform = ScriptedPlatform::new(JOB_DURATION_MS);
    let mut journal = Journal::new();
    let mut ac = AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: 3,
        },
        trigger_label: "replay".into(),
        calibrate: true,
    })
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
    .with_job_tracker(JobRuntimeConfig {
        max_in_flight: 4,
        job_lease_ms: Some(10_000),
        ..JobRuntimeConfig::default()
    });
    let mut observer = FleetObserver::new();

    // Cycle 0 submits the first wave; snapshot at the boundary.
    {
        let mut journaling = JournalingExecutor::new(&mut platform, &mut journal);
        tracked_cycle(&mut ac, &mut observer, &lake, &mut journaling, 1_000).unwrap();
    }
    let submitted = ac.job_tracker().unwrap().in_flight();
    assert!(submitted > 0, "first wave must submit");
    journal.append(&JournalEvent::CycleCommit { cycle: 0 }.encode());
    let watermark = journal.records();
    let ctx = autocomp::SnapshotContext {
        cycle: 0,
        executor_cursor: platform.cursor() as u64,
        journal_watermark: watermark,
    };
    let snapshot = ac.encode_snapshot(&observer, &ctx).unwrap();

    // Cycle 1 settles that wave (journaled) and submits a second one
    // (journaled) — then the process "dies" with that state unsnapshotted.
    let second_wave = {
        let mut journaling = JournalingExecutor::new(&mut platform, &mut journal);
        let report = tracked_cycle(&mut ac, &mut observer, &lake, &mut journaling, 3_000).unwrap();
        assert_eq!(report.ledger.settled, submitted, "first wave settles");
        report.executed.len()
    };
    assert!(second_wave > 0, "second wave must submit");
    drop(ac);
    drop(observer);

    // Restart on a non-rewindable path: restore the snapshot (first
    // wave back in flight), let the lease evict it, then replay the
    // journal directly.
    let mut ac = AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: 3,
        },
        trigger_label: "replay".into(),
        calibrate: true,
    })
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
    .with_job_tracker(JobRuntimeConfig {
        max_in_flight: 4,
        job_lease_ms: Some(10_000),
        ..JobRuntimeConfig::default()
    });
    let mut observer = FleetObserver::new();
    let recovery = ac.restore_snapshot(&mut observer, &snapshot);
    assert!(recovery.is_warm(), "restore failed: {recovery}");
    assert_eq!(ac.job_tracker().unwrap().in_flight(), submitted);

    // A quiet cycle far past the lease evicts the restored wave.
    let report = tracked_cycle(
        &mut ac,
        &mut observer,
        &lake,
        &mut Untracked(InertExecutor),
        50_000,
    )
    .unwrap();
    assert_eq!(
        report.ledger.leases_expired, submitted,
        "restored wave must lease-evict"
    );
    let feedback_before = ac.feedback().records().len();

    // Direct replay: journaled settlements land once (as late settles on
    // the evicted entries), journaled second-wave submissions re-adopt.
    let summary = ac.replay_journal(&journal, watermark);
    assert_eq!(summary.settled as usize, submitted, "late settles applied");
    assert_eq!(
        summary.readopted as usize, second_wave,
        "second wave re-adopted"
    );
    assert_eq!(
        ac.feedback().records().len(),
        feedback_before + submitted,
        "each late settle feeds back exactly once"
    );
    assert_eq!(ac.job_tracker().unwrap().in_flight(), second_wave);

    // Replaying the same span again is a no-op: everything deduped.
    let again = ac.replay_journal(&journal, watermark);
    assert_eq!(
        again,
        ReplaySummary {
            readopted: 0,
            settled: 0,
            ignored: summary.readopted + summary.settled + summary.ignored,
        },
        "second replay must be fully idempotent"
    );
    assert_eq!(ac.feedback().records().len(), feedback_before + submitted);

    // The late settles surface in the next cycle's ledger counters.
    let report = tracked_cycle(
        &mut ac,
        &mut observer,
        &lake,
        &mut Untracked(InertExecutor),
        51_000,
    )
    .unwrap();
    assert_eq!(report.ledger.late_settled, submitted);
}

// ---------------------------------------------------------------------
// Fault injection: duplicate delivery, lost outcomes, submit errors.
// ---------------------------------------------------------------------

#[test]
fn duplicate_outcome_delivery_is_bit_identical_to_clean_delivery() {
    let run = |duplicate_everything: bool| -> Vec<CycleReport> {
        let lake = CrashLake::new(TABLES);
        let mut executor = FaultyExecutor::new(
            ScriptedPlatform::parity(JOB_DURATION_MS),
            42,
            FaultRates {
                duplicate_outcome_permille: if duplicate_everything { 1000 } else { 0 },
                ..FaultRates::default()
            },
        );
        let mut ac = soak_pipeline();
        let mut observer = FleetObserver::new();
        let reports = (0..CYCLES)
            .map(|i| {
                for uid in scripted_writes(i) {
                    lake.write(uid);
                }
                tracked_cycle(&mut ac, &mut observer, &lake, &mut executor, now(i)).unwrap()
            })
            .collect();
        if duplicate_everything {
            assert!(
                executor.counts().duplicated > 0,
                "the duplicating run must actually duplicate"
            );
        }
        reports
    };
    let clean = run(false);
    let duplicated = run(true);
    for (i, (a, b)) in clean.iter().zip(duplicated.iter()).enumerate() {
        assert_reports_identical(a, b, &format!("duplicate-delivery cycle {i}"));
    }
}

#[test]
fn lost_outcomes_are_reclaimed_by_the_lease_path() {
    let lake = CrashLake::new(TABLES);
    // Every outcome is lost: the only way slots ever free is the lease.
    let mut executor = FaultyExecutor::new(
        ScriptedPlatform::parity(JOB_DURATION_MS),
        7,
        FaultRates {
            lose_outcome_permille: 1000,
            ..FaultRates::default()
        },
    );
    let mut ac = AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: 4,
        },
        trigger_label: "lossy".into(),
        calibrate: false,
    })
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
    .with_job_tracker(JobRuntimeConfig {
        max_in_flight: 4,
        max_in_flight_per_database: 4,
        job_lease_ms: Some(2_500),
        ..JobRuntimeConfig::default()
    });
    let mut observer = FleetObserver::new();
    let mut total_executed = 0;
    let mut total_evicted = 0;
    let mut late_executed = 0;
    for i in 0..12 {
        let report = tracked_cycle(&mut ac, &mut observer, &lake, &mut executor, now(i)).unwrap();
        total_executed += report.executed.len();
        total_evicted += report.ledger.leases_expired;
        if i >= 8 {
            late_executed += report.executed.len();
        }
    }
    assert!(executor.counts().lost > 0, "faults must inject");
    assert!(total_evicted > 0, "leases must reclaim the lost jobs");
    assert!(
        total_executed > 4,
        "scheduling must continue past the first stuck wave"
    );
    assert!(
        late_executed > 0,
        "slots must still recycle in late cycles (no leaked admission)"
    );
}

#[test]
fn injected_submit_errors_drive_retry_and_failure_paths() {
    let lake = CrashLake::new(TABLES);
    let mut executor = FaultyExecutor::new(
        ScriptedPlatform::parity(JOB_DURATION_MS),
        9,
        FaultRates {
            transient_permille: 250,
            permanent_permille: 150,
            ..FaultRates::default()
        },
    );
    let mut ac = soak_pipeline();
    let mut observer = FleetObserver::new();
    let mut retries_submitted = 0;
    let mut permanent_abandons = 0;
    for i in 0..12 {
        for uid in scripted_writes(i) {
            lake.write(uid);
        }
        let report = tracked_cycle(&mut ac, &mut observer, &lake, &mut executor, now(i)).unwrap();
        retries_submitted += report.ledger.retries_submitted;
        // Permanent submit errors are final on any attempt: visible in
        // the report's execution trail, never in the retry queue.
        permanent_abandons += report
            .executed
            .iter()
            .chain(report.retried.iter())
            .filter(|job| job.result.error.as_ref().is_some_and(|e| !e.is_transient()))
            .count();
    }
    let counts = executor.counts();
    assert!(counts.transient > 0, "transient faults must inject");
    assert!(counts.permanent > 0, "permanent faults must inject");
    assert!(
        retries_submitted > 0,
        "transient submit errors must feed the retry path"
    );
    assert!(
        permanent_abandons as u64 >= counts.permanent,
        "permanent submit errors must surface in the execution trail"
    );
}

// ---------------------------------------------------------------------
// Warm restore skips the fleet-wide cold re-observe.
// ---------------------------------------------------------------------

#[test]
fn warm_restore_resumes_incremental_observe() {
    let lake = CrashLake::new(40);
    let untracked_pipeline = || {
        AutoComp::new(AutoCompConfig {
            scope: ScopeStrategy::Table,
            policy: RankingPolicy::Moop {
                weights: vec![
                    TraitWeight::new("file_count_reduction", 0.7),
                    TraitWeight::new("compute_cost_gbhr", 0.3),
                ],
                k: 5,
            },
            trigger_label: "warm".into(),
            calibrate: true,
        })
        .with_trait(Box::new(FileCountReduction::default()))
        .with_trait(Box::new(ComputeCostGbhr::default()))
    };
    let mut ac = untracked_pipeline();
    let mut observer = FleetObserver::new();
    let mut exec = Untracked(InertExecutor);
    ac.cycle(CycleInput {
        connector: &lake,
        observer: &mut observer,
        executor: &mut exec,
        now_ms: 1_000,
    })
    .unwrap();
    lake.write(3);
    ac.cycle(CycleInput {
        connector: &lake,
        observer: &mut observer,
        executor: &mut exec,
        now_ms: 2_000,
    })
    .unwrap();
    let ctx = autocomp::SnapshotContext {
        cycle: 1,
        executor_cursor: 0,
        journal_watermark: 0,
    };
    let bytes = ac.encode_snapshot(&observer, &ctx).unwrap();

    let mut restored = untracked_pipeline();
    let mut restored_observer = FleetObserver::new();
    let recovery = restored.restore_snapshot(&mut restored_observer, &bytes);
    match &recovery {
        RecoveryReport::Warm { tables, .. } => assert_eq!(*tables, 40),
        cold => panic!("expected warm restore, got: {cold}"),
    }

    // One table changes while we were down; the restored run's first
    // cycle re-fetches only that — no fleet-wide cold observe.
    lake.write(5);
    let restored_report = restored
        .cycle(CycleInput {
            connector: &lake,
            observer: &mut restored_observer,
            executor: &mut exec,
            now_ms: 3_000,
        })
        .unwrap();
    let observation = restored_observer.last().unwrap();
    assert_eq!(
        observation.fetched_tables(),
        1,
        "only the dirty table refetches"
    );
    assert_eq!(observation.reused_tables(), 39);

    // And the warm resume is bit-identical to never having stopped.
    let twin_report = ac
        .cycle(CycleInput {
            connector: &lake,
            observer: &mut observer,
            executor: &mut exec,
            now_ms: 3_000,
        })
        .unwrap();
    assert_reports_identical(&twin_report, &restored_report, "warm resume");
}

/// A warm restore brings the decide state back with its retained
/// selection, and the restored pipeline's first (quiet) cycle maintains
/// top-k from it, keeping every table, bit-identically to the
/// never-stopped twin. A snapshot saved after the state was invalidated
/// restores warm with neither.
#[test]
fn warm_restore_carries_the_memo_with_its_generation() {
    const N: usize = 40;
    let lake = CrashLake::new(N as u64);
    let untracked_pipeline = || {
        AutoComp::new(AutoCompConfig {
            scope: ScopeStrategy::Table,
            policy: RankingPolicy::Moop {
                weights: vec![
                    TraitWeight::new("file_count_reduction", 0.7),
                    TraitWeight::new("compute_cost_gbhr", 0.3),
                ],
                k: 5,
            },
            trigger_label: "memo".into(),
            calibrate: false,
        })
        .with_trait(Box::new(FileCountReduction::default()))
        .with_trait(Box::new(ComputeCostGbhr::default()))
    };
    let ctx = autocomp::SnapshotContext {
        cycle: 1,
        executor_cursor: 0,
        journal_watermark: 0,
    };
    let mut exec = Untracked(InertExecutor);
    let mut cycle = |ac: &mut AutoComp, observer: &mut FleetObserver, now_ms| {
        ac.cycle(CycleInput {
            connector: &lake,
            observer,
            executor: &mut exec,
            now_ms,
        })
        .unwrap()
    };
    let mut ac = untracked_pipeline();
    let mut observer = FleetObserver::new();
    cycle(&mut ac, &mut observer, 1_000);
    let bytes = ac.encode_snapshot(&observer, &ctx).unwrap();

    let mut restored = untracked_pipeline();
    let mut restored_observer = FleetObserver::new();
    match restored.restore_snapshot(&mut restored_observer, &bytes) {
        RecoveryReport::Warm {
            cache_restored,
            memo_restored,
            ..
        } => assert!(cache_restored && memo_restored),
        cold => panic!("expected warm restore, got: {cold}"),
    }
    let restored_report = cycle(&mut restored, &mut restored_observer, 2_000);
    assert!(restored.rank_memo_stats().memo_fast);
    assert_eq!(restored.cycle_cache_stats().spliced_tables, N);
    let twin_report = cycle(&mut ac, &mut observer, 2_000);
    assert_reports_identical(&twin_report, &restored_report, "memo restore");

    ac.invalidate_cycle_cache();
    let bytes = ac.encode_snapshot(&observer, &ctx).unwrap();
    match untracked_pipeline().restore_snapshot(&mut FleetObserver::new(), &bytes) {
        RecoveryReport::Warm {
            cache_restored,
            memo_restored,
            ..
        } => assert!(!cache_restored && !memo_restored),
        cold => panic!("expected warm restore, got: {cold}"),
    }
}

/// Marks pending at a snapshot survive it: listed and unlisted alike
/// count toward the restored backlog, the snapshot lists them in
/// ascending uid order, and the restored runtime's first round fetches
/// exactly the listed ones.
#[test]
fn a_restore_keeps_the_dirty_backlog_including_unlisted_marks() {
    let lake = CrashLake::new(TABLES);
    let untracked_pipeline = || {
        AutoComp::new(AutoCompConfig {
            scope: ScopeStrategy::Table,
            policy: RankingPolicy::Moop {
                weights: vec![TraitWeight::new("file_count_reduction", 1.0)],
                k: 5,
            },
            trigger_label: "dirty".into(),
            calibrate: false,
        })
        .with_trait(Box::new(FileCountReduction::default()))
    };
    let mut ac = untracked_pipeline();
    let mut observer = FleetObserver::new();
    ac.cycle(CycleInput {
        connector: &lake,
        observer: &mut observer,
        executor: &mut Untracked(InertExecutor),
        now_ms: 1_000,
    })
    .unwrap();
    for uid in [9, 3, 99, 9] {
        observer.mark_dirty(uid);
    }
    let ctx = autocomp::SnapshotContext {
        cycle: 1,
        executor_cursor: 0,
        journal_watermark: 0,
    };
    let bytes = ac.encode_snapshot(&observer, &ctx).unwrap();

    // The dirty section: its length, then the uids ascending.
    let frame = lakesim_storage::open_frame(&bytes, SNAPSHOT_KIND, SNAPSHOT_VERSION).unwrap();
    let section: Vec<u8> = [3u64, 3, 9, 99]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    assert!(
        frame
            .payload
            .windows(section.len())
            .any(|window| window == section),
        "the dirty section lists 3, 9, 99 in that order"
    );

    let mut store = SnapshotStore::new(MemSnapshotMedium::new());
    store.save(&bytes).unwrap();
    let config = RuntimeConfig {
        dirty_watermark: None,
        max_staleness_ms: None,
        gbhr_headroom: None,
        min_round_interval_ms: 0,
        snapshot_every_rounds: 0,
    };
    let mut rt =
        ContinuousRuntime::new(untracked_pipeline(), config).with_durability(store, Journal::new());
    match rt.recover() {
        RecoveryReport::Warm { tables, .. } => assert_eq!(tables, TABLES as usize),
        cold => panic!("expected warm restore, got: {cold}"),
    }
    assert_eq!(rt.dirty_backlog(), 3, "two listed marks and one unlisted");

    rt.handle_event(
        &RuntimeEvent::Flush { at_ms: 2_000 },
        &lake,
        &mut Untracked(InertExecutor),
    )
    .unwrap()
    .expect("a flush always fires");
    assert_eq!(rt.dirty_backlog(), 0);
    let obs = rt.observer().last().unwrap();
    let fresh: Vec<u64> = (0..obs.table_count())
        .filter(|i| obs.is_fresh(*i))
        .map(|i| obs.tables()[i].table_uid)
        .collect();
    assert_eq!(fresh, vec![3, 9], "exactly the listed marks");
}

// ---------------------------------------------------------------------
// Torn snapshot media at the store layer.
// ---------------------------------------------------------------------

#[test]
fn torn_store_writes_fall_back_then_self_heal() {
    let mut store = SnapshotStore::new(TornMedium::new(MemSnapshotMedium::new()));
    let gen1 = store.save(b"generation one").unwrap();
    store.medium_mut().tear_next_write_at(9);
    let _gen2 = store.save(b"generation two").unwrap();
    let (seq, payload) = store.load().expect("older generation survives the tear");
    assert_eq!(seq, gen1);
    assert_eq!(payload, b"generation one");
    // The next save overwrites the torn slot and becomes newest.
    let gen3 = store.save(b"generation three").unwrap();
    let (seq, payload) = store.load().unwrap();
    assert_eq!(seq, gen3);
    assert_eq!(payload, b"generation three");
}

// ---------------------------------------------------------------------
// Delta generations: a base plus one cumulative delta.
// ---------------------------------------------------------------------

/// A lake a script reshapes between rounds: writes through a changelog,
/// tables listed and delisted under a listing epoch, and partitions (two
/// per table, three once a table has been written a lot). A write of
/// many versions at once makes its table the fleet's largest, which
/// moves a normalization bound. Its stats reads fault through a
/// [`Faulted`] wrapper ([`fault_once`]).
struct DeltaLake {
    tables: Mutex<Vec<TableRef>>,
    epoch: AtomicU64,
    next_uid: AtomicU64,
    versions: Mutex<std::collections::BTreeMap<u64, u64>>,
    log: Mutex<Vec<u64>>,
}

impl DeltaLake {
    fn new(n: u64) -> Self {
        DeltaLake {
            tables: Mutex::new((0..n).map(Self::table).collect()),
            epoch: AtomicU64::new(0),
            next_uid: AtomicU64::new(n),
            versions: Mutex::new((0..n).map(|uid| (uid, 0)).collect()),
            log: Mutex::new(Vec::new()),
        }
    }

    fn table(uid: u64) -> TableRef {
        TableRef {
            table_uid: uid,
            database: format!("db{}", uid % 3).into(),
            name: format!("t{uid}").into(),
            partitioned: uid.is_multiple_of(2),
            compaction_enabled: true,
            is_intermediate: false,
        }
    }

    fn uids(&self) -> Vec<u64> {
        self.tables
            .lock()
            .unwrap()
            .iter()
            .map(|t| t.table_uid)
            .collect()
    }

    fn write(&self, uid: u64, versions: u64) {
        *self.versions.lock().unwrap().entry(uid).or_default() += versions;
        self.log.lock().unwrap().push(uid);
    }

    /// Lists a new table or delists one: a new listing.
    fn relist(&self, rng: &mut SplitMix64) {
        let mut tables = self.tables.lock().unwrap();
        if tables.len() > 8 && rng.below(2) == 0 {
            let at = rng.below(tables.len() as u64) as usize;
            tables.remove(at);
        } else {
            let uid = self.next_uid.fetch_add(1, Ordering::SeqCst);
            self.versions.lock().unwrap().insert(uid, 0);
            tables.push(Self::table(uid));
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    fn stats(&self, uid: u64, part: u64) -> CandidateStats {
        let v = self.versions.lock().unwrap()[&uid];
        CandidateStats {
            file_count: 40 + (uid * 13 + v * 7 + part * 5) % 120 + v / 16 * 400,
            small_file_count: (uid * 11 + v * 5 + part) % 100,
            small_bytes: (((uid + v) % 32) + 1) << 20,
            total_bytes: ((((uid * 3 + v + part) % 64) + 8) << 20).max(1 << 22),
            target_file_size: 512 << 20,
            last_write_ms: (v > 0).then_some(v * 40),
            ..CandidateStats::default()
        }
    }

    fn listed(&self, uid: u64) -> bool {
        self.tables
            .lock()
            .unwrap()
            .iter()
            .any(|t| t.table_uid == uid)
    }
}

impl LakeConnector for DeltaLake {
    fn list_tables(&self) -> Vec<TableRef> {
        self.tables.lock().unwrap().clone()
    }
    fn listing_epoch(&self) -> Option<u64> {
        Some(self.epoch.load(Ordering::SeqCst))
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        self.listed(uid).then(|| self.stats(uid, 0))
    }
    fn partition_stats(&self, uid: u64) -> Vec<(String, CandidateStats)> {
        if !self.listed(uid) {
            return Vec::new();
        }
        let parts = 2 + (self.versions.lock().unwrap()[&uid] >= 12) as u64;
        (0..parts)
            .map(|p| (format!("(p={p})"), self.stats(uid, p)))
            .collect()
    }
    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        Some(ChangeCursor(self.log.lock().unwrap().len() as u64))
    }
    fn changes_since(&self, cursor: ChangeCursor) -> Option<Vec<u64>> {
        self.log
            .lock()
            .unwrap()
            .get(cursor.0 as usize..)
            .map(<[u64]>::to_vec)
    }
}

/// The table's next stats read fails. A table holds at most one pending
/// fault: arming it again before a read consumed the first does nothing.
fn fault_once(lake: &Faulted<DeltaLake>, uid: u64) {
    if !lake.stats_armed(uid) {
        let fault = autocomp::ObserveFault::transient("stats endpoint timed out");
        lake.fault_stats(uid, fault);
    }
}

fn delta_pipeline(scope: ScopeStrategy, k: usize) -> AutoComp {
    AutoComp::new(AutoCompConfig {
        scope,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k,
        },
        trigger_label: "deltas".into(),
        calibrate: true,
    })
    .with_filter(Box::new(MinSizeFilter {
        min_total_bytes: 12 << 20,
        min_file_count: 0,
    }))
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
    .with_job_tracker(JobRuntimeConfig {
        max_in_flight: 4,
        max_in_flight_per_database: 2,
        ..JobRuntimeConfig::default()
    })
}

/// Rounds only on flush, a snapshot after every one.
fn every_round_snapshots() -> RuntimeConfig {
    RuntimeConfig {
        dirty_watermark: None,
        max_staleness_ms: None,
        gbhr_headroom: None,
        min_round_interval_ms: 0,
        snapshot_every_rounds: 1,
    }
}

/// A loaded generation split into its base frame and its delta frame
/// (empty for a base alone).
fn split_generation(bytes: &[u8]) -> (&[u8], &[u8]) {
    let len = u64::from_le_bytes(bytes[10..18].try_into().unwrap()) as usize;
    bytes.split_at(lakesim_storage::codec::FRAME_OVERHEAD + len)
}

/// The newest restorable generation of a durable runtime's store.
fn newest_generation<M: SnapshotMedium>(rt: &ContinuousRuntime<M>) -> Vec<u8> {
    rt.snapshot_store()
        .unwrap()
        .load()
        .expect("a restorable generation")
        .1
}

fn flush<M: SnapshotMedium, E: autocomp::TrackedExecutor>(
    rt: &mut ContinuousRuntime<M>,
    lake: &dyn LakeConnector,
    exec: &mut E,
    at_ms: u64,
) -> autocomp::RoundReport {
    rt.handle_event(&RuntimeEvent::Flush { at_ms }, lake, exec)
        .unwrap()
        .expect("a flush always fires")
}

/// Over a random interleaving of writes, listing changes, configuration
/// edits, stats faults and bound-moving writes, every generation a
/// durable runtime saves restores to exactly the live state: the full
/// frame re-encoded from `restore(base ++ delta)` is byte-equal to the
/// full frame of the live pipeline. A listing change and a configuration
/// edit each force a base.
fn deltas_restore_the_live_state(seed: u64, scope: ScopeStrategy) -> (usize, usize) {
    let faulted = Faulted::new(DeltaLake::new(16));
    let lake = faulted.inner();
    let mut rng = SplitMix64::new(seed);
    let mut k = 4;
    let mut rt = ContinuousRuntime::new(delta_pipeline(scope, k), every_round_snapshots())
        .with_durability(SnapshotStore::new(MemSnapshotMedium::new()), Journal::new());
    let mut platform = ScriptedPlatform::new(JOB_DURATION_MS);
    let ctx = autocomp::SnapshotContext::default();
    let (mut deltas, mut full_rescores) = (0, 0);
    for step in 0..28 {
        let at = format!("seed {seed} {scope:?} step {step}");
        let uids = lake.uids();
        let pick = |rng: &mut SplitMix64| uids[rng.below(uids.len() as u64) as usize];
        let forced_base = match rng.below(12) {
            0 => {
                lake.relist(&mut rng);
                true
            }
            1 => {
                k = 3 + rng.below(4) as usize;
                let config = rt.pipeline_mut().config_mut();
                config.policy = delta_pipeline(scope, k).config().policy.clone();
                true
            }
            2 => {
                let uid = pick(&mut rng);
                fault_once(&faulted, uid);
                lake.write(uid, 1);
                false
            }
            3 => {
                lake.write(pick(&mut rng), 16 + rng.below(16));
                false
            }
            4 => false,
            _ => {
                for _ in 0..1 + rng.below(2) {
                    lake.write(pick(&mut rng), 1);
                }
                false
            }
        };
        let round = flush(&mut rt, &faulted, &mut platform, now(step));
        assert!(round.snapshot_saved, "{at}");
        let memo = rt.pipeline().rank_memo_stats();
        let full_rescore = memo.spliced_scores == 0 && memo.recomputed_scores > 0;

        let bytes = newest_generation(&rt);
        let is_delta = !split_generation(&bytes).1.is_empty();
        assert!(
            !(forced_base && is_delta),
            "{at}: a delta across a forced base"
        );
        deltas += is_delta as usize;
        full_rescores += (is_delta && full_rescore) as usize;

        let live = rt.pipeline().encode_snapshot(rt.observer(), &ctx).unwrap();
        let mut restored = delta_pipeline(scope, k);
        let mut observer = FleetObserver::new();
        let report = restored.restore_snapshot(&mut observer, &bytes);
        assert!(report.is_warm(), "{at}: {report}");
        let again = restored.encode_snapshot(&observer, &ctx).unwrap();
        assert!(
            again == live,
            "{at}: the restored state differs from the live one"
        );
    }
    (deltas, full_rescores)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn restoring_base_plus_delta_reproduces_the_live_state(seed in 0u64..u64::MAX) {
        for scope in [ScopeStrategy::Table, ScopeStrategy::Partition] {
            let (deltas, _) = deltas_restore_the_live_state(seed, scope);
            prop_assert!(deltas > 0, "seed {} {:?}: no delta was saved", seed, scope);
        }
    }
}

/// The seeds above between them cover a delta saved after a fleet-wide
/// re-score, whose scores travel whole.
#[test]
fn a_delta_after_a_fleet_wide_rescore_restores_the_live_state() {
    let covered: usize = (0..12)
        .map(|seed| deltas_restore_the_live_state(seed, ScopeStrategy::Table).1)
        .sum();
    assert!(covered > 0, "no delta followed a fleet-wide re-score");
}

/// A torn delta restores the base's boundary warm, and the restored
/// runtime's rounds match an uninterrupted twin's once it has caught up.
#[test]
fn a_torn_delta_restores_the_base_boundary_and_reconverges() {
    let lake = CrashLake::new(TABLES);
    let config = every_round_snapshots();
    let mut twin = ContinuousRuntime::new(soak_pipeline(), config.clone());
    let mut rt = ContinuousRuntime::new(soak_pipeline(), config.clone()).with_durability(
        SnapshotStore::new(TornMedium::new(MemSnapshotMedium::new())),
        Journal::new(),
    );
    let mut exec = Untracked(InertExecutor);
    let mut twin_exec = Untracked(InertExecutor);
    for i in 0..3 {
        for uid in scripted_writes(i) {
            lake.write(uid);
        }
        if i == 2 {
            // Round 3's delta tears.
            let store = rt.snapshot_store_mut().unwrap();
            store.medium_mut().tear_next_write_at(40);
        }
        flush(&mut rt, &lake, &mut exec, now(i));
        flush(&mut twin, &lake, &mut twin_exec, now(i));
        if i == 1 {
            let bytes = newest_generation(&rt);
            assert!(
                !split_generation(&bytes).1.is_empty(),
                "round 2 saved a delta"
            );
        }
    }

    let (store, journal) = rt.into_durable_parts().unwrap();
    let journal = Journal::from_bytes(journal.bytes());
    let mut rt = ContinuousRuntime::new(soak_pipeline(), config).with_durability(store, journal);
    match rt.recover() {
        RecoveryReport::Warm { cycle, .. } => assert_eq!(cycle, 1, "the base's boundary"),
        cold => panic!("expected a warm restore, got: {cold}"),
    }
    // The first round catches up on everything written since the base;
    // from the next one on, the two runs decide alike.
    for uid in scripted_writes(3) {
        lake.write(uid);
    }
    flush(&mut rt, &lake, &mut exec, now(3));
    flush(&mut twin, &lake, &mut twin_exec, now(3));
    for i in 4..CYCLES {
        for uid in scripted_writes(i) {
            lake.write(uid);
        }
        let ours = flush(&mut rt, &lake, &mut exec, now(i));
        let theirs = flush(&mut twin, &lake, &mut twin_exec, now(i));
        assert_reports_identical(&theirs.report, &ours.report, &format!("round {i}"));
    }
}

/// A delta whose base is corrupt restores nothing: the restart is a cold
/// start whose reason names the missing base.
#[test]
fn a_corrupt_base_under_a_valid_delta_cold_starts_naming_the_base() {
    let lake = CrashLake::new(TABLES);
    let mut rt = ContinuousRuntime::new(soak_pipeline(), every_round_snapshots()).with_durability(
        SnapshotStore::new(TornMedium::new(MemSnapshotMedium::new())),
        Journal::new(),
    );
    let mut exec = Untracked(InertExecutor);
    for i in 0..2 {
        lake.write(i as u64);
        flush(&mut rt, &lake, &mut exec, now(i));
    }
    assert!(!split_generation(&newest_generation(&rt)).1.is_empty());

    // The base is the slot whose frame is the longer one; flip a byte
    // in the middle of it.
    let medium = rt.snapshot_store_mut().unwrap().medium_mut();
    let base_slot = (0..2)
        .max_by_key(|slot| medium.read_slot(*slot).map_or(0, |b| b.len()))
        .unwrap();
    let mid = medium.read_slot(base_slot).unwrap().len() / 2;
    medium.flip(base_slot, mid, 0x10);

    let (store, journal) = rt.into_durable_parts().unwrap();
    let mut rt = ContinuousRuntime::new(soak_pipeline(), every_round_snapshots())
        .with_durability(store, journal);
    let report = rt.recover();
    let reason = report.cold_reason().expect("nothing restorable");
    assert!(reason.contains("needs base 1"), "reason: {reason}");
    assert!(rt.observer().last().is_none());
}

/// A delta restores only over the base it was taken over: glued to a
/// base over another listing, the restore rejects it.
#[test]
fn a_delta_over_another_listing_is_rejected() {
    let lake = DeltaLake::new(12);
    let scope = ScopeStrategy::Table;
    let mut rt = ContinuousRuntime::new(delta_pipeline(scope, 4), every_round_snapshots())
        .with_durability(SnapshotStore::new(MemSnapshotMedium::new()), Journal::new());
    let mut platform = Untracked(InertExecutor);
    flush(&mut rt, &lake, &mut platform, now(0));
    let first = newest_generation(&rt);
    let (first_base, _) = split_generation(&first);

    lake.relist(&mut SplitMix64::new(7));
    flush(&mut rt, &lake, &mut platform, now(1));
    lake.write(3, 1);
    flush(&mut rt, &lake, &mut platform, now(2));
    let second = newest_generation(&rt);
    let (second_base, delta) = split_generation(&second);
    assert!(!delta.is_empty(), "round 3 saved a delta");
    assert_ne!(first_base, second_base, "the listing change forced a base");

    let restore =
        |bytes: &[u8]| delta_pipeline(scope, 4).restore_snapshot(&mut FleetObserver::new(), bytes);
    assert!(restore(&second).is_warm());
    let glued = [first_base, delta].concat();
    let report = restore(&glued);
    let reason = report.cold_reason().expect("a delta over another base");
    assert!(reason.contains("another base"), "reason: {reason}");
}

// ---------------------------------------------------------------------
// A delta chain across restarts.
// ---------------------------------------------------------------------

/// Process death and restart: only the store and the journal's bytes
/// survive; a fresh runtime over them, built with `pipeline`, recovers.
fn kill_and_recover<M: SnapshotMedium>(
    rt: ContinuousRuntime<M>,
    pipeline: AutoComp,
) -> (ContinuousRuntime<M>, RecoveryReport) {
    let (store, journal) = rt.into_durable_parts().unwrap();
    let journal = Journal::from_bytes(journal.bytes());
    let mut rt =
        ContinuousRuntime::new(pipeline, every_round_snapshots()).with_durability(store, journal);
    let report = rt.recover();
    (rt, report)
}

/// Like the `crash_restart` benchmark workload, a durable runtime is
/// killed and recovered after every boundary, over a random interleaving
/// of writes, bound-moving writes, stats faults, listing changes,
/// configuration edits and the ledger churn of a platform whose jobs
/// settle. A twin that is never killed runs the same script over its
/// own copy of the lake and the platform. After every round the two
/// decide alike, and the full frame re-encoded from `restore(load())` is
/// byte-equal to the twin's live frame. Returns how many boundaries after
/// a restore saved a delta.
fn restarted_deltas_restore_the_live_state(seed: u64, scope: ScopeStrategy) -> usize {
    let lakes = [
        Faulted::new(DeltaLake::new(16)),
        Faulted::new(DeltaLake::new(16)),
    ];
    let mut platforms = [
        ScriptedPlatform::new(JOB_DURATION_MS),
        ScriptedPlatform::new(JOB_DURATION_MS),
    ];
    let mut rng = SplitMix64::new(seed);
    let mut k = 4;
    let mut twin = ContinuousRuntime::new(delta_pipeline(scope, k), every_round_snapshots());
    let mut rt = ContinuousRuntime::new(delta_pipeline(scope, k), every_round_snapshots())
        .with_durability(SnapshotStore::new(MemSnapshotMedium::new()), Journal::new());
    let ctx = autocomp::SnapshotContext::default();
    let mut deltas = 0;
    for step in 0..28 {
        let at = format!("seed {seed} {scope:?} step {step}");
        let uids = lakes[0].inner().uids();
        let pick = |rng: &mut SplitMix64| uids[rng.below(uids.len() as u64) as usize];
        match rng.below(12) {
            0 => {
                let relist = rng.next_u64();
                for lake in &lakes {
                    lake.inner().relist(&mut SplitMix64::new(relist));
                }
            }
            1 => {
                k = 3 + rng.below(4) as usize;
                let policy = delta_pipeline(scope, k).config().policy.clone();
                rt.pipeline_mut().config_mut().policy = policy.clone();
                twin.pipeline_mut().config_mut().policy = policy;
            }
            2 => {
                let uid = pick(&mut rng);
                for lake in &lakes {
                    fault_once(lake, uid);
                    lake.inner().write(uid, 1);
                }
            }
            3 => {
                let (uid, versions) = (pick(&mut rng), 16 + rng.below(16));
                lakes
                    .iter()
                    .for_each(|lake| lake.inner().write(uid, versions));
            }
            4 => {}
            _ => {
                for _ in 0..1 + rng.below(2) {
                    let uid = pick(&mut rng);
                    lakes.iter().for_each(|lake| lake.inner().write(uid, 1));
                }
            }
        }
        let ours = flush(&mut rt, &lakes[0], &mut platforms[0], now(step));
        let theirs = flush(&mut twin, &lakes[1], &mut platforms[1], now(step));
        assert_reports_identical(&theirs.report, &ours.report, &at);
        assert!(ours.snapshot_saved, "{at}");

        let bytes = newest_generation(&rt);
        deltas += (step > 0 && !split_generation(&bytes).1.is_empty()) as usize;
        let live = twin.pipeline().encode_snapshot(twin.observer(), &ctx);
        let mut restored = delta_pipeline(scope, k);
        let mut observer = FleetObserver::new();
        let report = restored.restore_snapshot(&mut observer, &bytes);
        assert!(report.is_warm(), "{at}: {report}");
        assert!(
            restored.encode_snapshot(&observer, &ctx) == live,
            "{at}: the restored state differs from the twin's live one"
        );

        let report;
        (rt, report) = kill_and_recover(rt, delta_pipeline(scope, k));
        assert!(report.is_warm(), "{at}: {report}");
    }
    deltas
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn a_runtime_restarted_after_every_boundary_keeps_writing_deltas(
        seed in 0u64..u64::MAX,
    ) {
        for scope in [ScopeStrategy::Table, ScopeStrategy::Partition] {
            let deltas = restarted_deltas_restore_the_live_state(seed, scope);
            prop_assert!(
                deltas > 0,
                "seed {} {:?}: no boundary after a restore saved a delta", seed, scope
            );
        }
    }
}

/// A delta written after a restore that tears costs only the generations
/// since the base: the restart falls back to the base, replays the
/// journal from the base's watermark (the journal still holds it), and
/// once the first round has caught up the restarted runtime decides like
/// a twin that never stopped.
#[test]
fn a_torn_delta_after_a_restore_falls_back_to_the_base_and_reconverges() {
    let lake = CrashLake::new(TABLES);
    let config = every_round_snapshots();
    let mut twin = ContinuousRuntime::new(soak_pipeline(), config.clone());
    let mut rt = ContinuousRuntime::new(soak_pipeline(), config).with_durability(
        SnapshotStore::new(TornMedium::new(MemSnapshotMedium::new())),
        Journal::new(),
    );
    let mut platform = ScriptedPlatform::parity(JOB_DURATION_MS);
    let mut twin_platform = platform.clone();
    for i in 0..3 {
        for uid in scripted_writes(i) {
            lake.write(uid);
        }
        if i == 2 {
            // Round 3's delta, the second since the restores began, tears.
            let store = rt.snapshot_store_mut().unwrap();
            store.medium_mut().tear_next_write_at(40);
        }
        flush(&mut rt, &lake, &mut platform, now(i));
        flush(&mut twin, &lake, &mut twin_platform, now(i));
        let is_delta = !split_generation(&newest_generation(&rt)).1.is_empty();
        assert_eq!(is_delta, i == 1, "round {}: a base, then a delta", i + 1);
        let report;
        (rt, report) = kill_and_recover(rt, soak_pipeline());
        match report {
            RecoveryReport::Warm { cycle, .. } => {
                assert_eq!(cycle, [1, 2, 1][i], "round {}'s restore", i + 1)
            }
            cold => panic!("expected a warm restore, got: {cold}"),
        }
    }
    // The first round catches up on everything written since the base;
    // from the next one on, the two runs decide alike.
    for uid in scripted_writes(3) {
        lake.write(uid);
    }
    flush(&mut rt, &lake, &mut platform, now(3));
    flush(&mut twin, &lake, &mut twin_platform, now(3));
    for i in 4..CYCLES {
        for uid in scripted_writes(i) {
            lake.write(uid);
        }
        let ours = flush(&mut rt, &lake, &mut platform, now(i));
        let theirs = flush(&mut twin, &lake, &mut twin_platform, now(i));
        assert_reports_identical(&theirs.report, &ours.report, &format!("round {i}"));
    }
}

// ---------------------------------------------------------------------
// The side section under corruption: a fleet whose stats carry every
// variable part a snapshot record keeps beside it.
// ---------------------------------------------------------------------

/// [`DeltaLake`] whose stats carry every part a snapshot keeps in its
/// side section: a quota, histogram buckets (an overflow bucket
/// included) and custom metrics, with a last write at zero on tables
/// never written. One unpartitioned table in five answers no table
/// stats, so its entry is `Missing`.
struct SideLake(DeltaLake);

impl SideLake {
    fn dress(uid: u64, mut stats: CandidateStats) -> CandidateStats {
        stats.quota = Some(autocomp::QuotaSignal {
            used: 100 + uid,
            total: 1_000,
        });
        stats.size_histogram = vec![
            autocomp::SizeBucket {
                upper_bytes: Some(8 << 20),
                count: stats.small_file_count,
            },
            autocomp::SizeBucket {
                upper_bytes: None,
                count: stats.file_count - stats.small_file_count.min(stats.file_count),
            },
        ];
        stats.last_write_ms = stats.last_write_ms.or(Some(0));
        stats
            .with_custom("scan_count_7d", uid as f64 * 1.5)
            .with_custom("sort_disorder", -0.0)
    }
}

impl LakeConnector for SideLake {
    fn list_tables(&self) -> Vec<TableRef> {
        self.0.list_tables()
    }
    fn listing_epoch(&self) -> Option<u64> {
        self.0.listing_epoch()
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        let stats = self.0.table_stats(uid)?;
        (uid % 5 != 3).then(|| Self::dress(uid, stats))
    }
    fn partition_stats(&self, uid: u64) -> Vec<(String, CandidateStats)> {
        let parts = self.0.partition_stats(uid).into_iter();
        parts
            .map(|(label, stats)| (label, Self::dress(uid, stats)))
            .collect()
    }
    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        self.0.fleet_cursor()
    }
    fn changes_since(&self, cursor: ChangeCursor) -> Option<Vec<u64>> {
        self.0.changes_since(cursor)
    }
}

/// A base alone and a base + delta generation of a durable runtime over
/// [`SideLake`] in hybrid scope (partition lists, table stats and
/// `Missing` entries side by side), each with the report a pristine
/// restore of it yields.
fn side_section_corpus() -> Vec<(Vec<u8>, RecoveryReport)> {
    let lake = SideLake(DeltaLake::new(40));
    let scope = ScopeStrategy::Hybrid;
    let mut rt = ContinuousRuntime::new(delta_pipeline(scope, 4), every_round_snapshots())
        .with_durability(SnapshotStore::new(MemSnapshotMedium::new()), Journal::new());
    let mut platform = ScriptedPlatform::new(JOB_DURATION_MS);
    let mut corpus = Vec::new();
    for step in 0..2 {
        if step > 0 {
            lake.0.write(4, 1);
        }
        flush(&mut rt, &lake, &mut platform, now(step));
        let bytes = newest_generation(&rt);
        let report = delta_pipeline(scope, 4).restore_snapshot(&mut FleetObserver::new(), &bytes);
        assert!(report.is_warm(), "step {step}: {report}");
        corpus.push((bytes, report));
    }
    assert!(split_generation(&corpus[0].0).1.is_empty(), "a base alone");
    assert!(
        !split_generation(&corpus[1].0).1.is_empty(),
        "a base + delta"
    );
    corpus
}

/// Re-seals the frame at `frame` of `bytes` after its payload changed.
fn reseal(bytes: &mut [u8], frame: std::ops::Range<usize>) {
    let body = frame.end - 8;
    let check = lakesim_storage::frame_checksum64(&bytes[frame.start..body]);
    bytes[body..frame.end].copy_from_slice(&check.to_le_bytes());
}

/// Re-seals the base frame (`base_len` bytes) of the generation `bytes`
/// after its payload changed, and re-names it in the delta after it, if
/// there is one.
fn reseal_base(bytes: &mut [u8], base_len: usize) {
    reseal(bytes, 0..base_len);
    if base_len < bytes.len() {
        let check = bytes[base_len - 8..base_len].to_vec();
        let named = base_len + lakesim_storage::codec::FRAME_OVERHEAD;
        bytes[named..named + 8].copy_from_slice(&check);
        reseal(bytes, base_len..bytes.len());
    }
}

/// Where the ledger section of `base`, a base frame of
/// [`side_section_corpus`], starts: the first byte past the fingerprint
/// at which the frame of the state it restores differs from the frame of
/// that state under a fresh tracker with other limits. Everything the
/// ledger and feedback sections hold lies from there to the checksum.
fn ledger_start(base: &[u8]) -> usize {
    let encode = |retrack: Option<JobRuntimeConfig>| {
        let mut ac = delta_pipeline(ScopeStrategy::Hybrid, 4);
        let mut observer = FleetObserver::new();
        assert!(ac.restore_snapshot(&mut observer, base).is_warm());
        if let Some(config) = retrack {
            ac = ac.with_job_tracker(config);
        }
        let ctx = autocomp::SnapshotContext::default();
        ac.encode_snapshot(&observer, &ctx).expect("a frame")
    };
    let other = JobRuntimeConfig {
        max_in_flight: 5,
        max_in_flight_per_database: 3,
        ..JobRuntimeConfig::default()
    };
    let (ours, theirs) = (encode(None), encode(Some(other)));
    let past_fingerprint = lakesim_storage::codec::FRAME_OVERHEAD;
    past_fingerprint
        + (ours[past_fingerprint..].iter())
            .zip(&theirs[past_fingerprint..])
            .position(|(a, b)| a != b)
            .expect("the ledgers differ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Truncated or bit-flipped generations of a fleet with histograms,
    /// customs and partitions never panic the restore and never install
    /// a wrong warm state. A flip re-sealed under a valid checksum (mode
    /// 2; the delta re-names a re-sealed base) reaches the decoder
    /// itself: it either cold-starts with a reason or restores a state
    /// that can be snapshotted again.
    #[test]
    fn corrupted_side_sections_cold_start_never_panic(
        offset in 0u64..10_000_000,
        mode in 0u8..3,
        which in 0usize..2,
    ) {
        let (bytes, pristine) = side_section_corpus().swap_remove(which);
        let mut mutated = bytes.clone();
        let base_len = split_generation(&bytes).0.len();
        match mode {
            0 => mutated.truncate(offset as usize % mutated.len()),
            1 => {
                let bit = offset as usize % (mutated.len() * 8);
                mutated[bit / 8] ^= 1 << (bit % 8);
            }
            _ => {
                // A payload bit of the base or of the delta, past the
                // delta's fingerprint and base name.
                let header = lakesim_storage::codec::FRAME_OVERHEAD - 8;
                let (frame, skip) = match which == 1 && offset % 2 == 1 {
                    false => (0..base_len, header),
                    true => (base_len..mutated.len(), header + 16),
                };
                let span = frame.len() - skip - 8;
                let bit = (offset as usize / 2) % (span * 8);
                mutated[frame.start + skip + bit / 8] ^= 1 << (bit % 8);
                match frame.start {
                    0 => reseal_base(&mut mutated, base_len),
                    _ => reseal(&mut mutated, frame),
                }
            }
        }
        let mut ac = delta_pipeline(ScopeStrategy::Hybrid, 4);
        let mut observer = FleetObserver::new();
        let report = ac.restore_snapshot(&mut observer, &mutated);
        match &report {
            RecoveryReport::ColdStart { reason } => prop_assert!(!reason.is_empty()),
            warm if mode < 2 => prop_assert_eq!(warm.clone(), pristine),
            warm => {
                let ctx = autocomp::SnapshotContext::default();
                let frame = ac.encode_snapshot(&observer, &ctx);
                prop_assert!(frame.is_some(), "{} left nothing to snapshot", warm);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// A bit flipped in the base frame's ledger or feedback section and
    /// re-sealed under a valid checksum never restores limits the
    /// restoring pipeline was not given: a warm restore runs the ledger
    /// under the pipeline's own job-runtime config, and what it leaves
    /// snapshots into a frame that restores warm again.
    #[test]
    fn a_resealed_ledger_flip_restores_under_the_pipelines_own_config(
        offset in 0u64..10_000_000,
        which in 0usize..2,
    ) {
        let mut corpus = side_section_corpus();
        let start = ledger_start(&corpus[0].0);
        let (bytes, _) = corpus.swap_remove(which);
        let base_len = split_generation(&bytes).0.len();
        let mut mutated = bytes;
        let bit = offset as usize % ((base_len - 8 - start) * 8);
        mutated[start + bit / 8] ^= 1 << (bit % 8);
        reseal_base(&mut mutated, base_len);

        let scope = ScopeStrategy::Hybrid;
        let mut ac = delta_pipeline(scope, 4);
        let mut observer = FleetObserver::new();
        let report = ac.restore_snapshot(&mut observer, &mutated);
        if report.is_warm() {
            let own = delta_pipeline(scope, 4);
            prop_assert_eq!(ac.job_tracker().unwrap().config(), own.job_tracker().unwrap().config());
            let ctx = autocomp::SnapshotContext::default();
            let frame = ac.encode_snapshot(&observer, &ctx).expect("a frame");
            let again = delta_pipeline(scope, 4).restore_snapshot(&mut FleetObserver::new(), &frame);
            prop_assert!(again.is_warm(), "{} re-encoded into {}", report, again);
        }
    }
}

/// A runtime restarted over a new store trusts the base its recovery
/// loaded (`SnapshotStore::resume`): the delta the first boundary after
/// it saves reads no slot.
#[test]
fn the_first_save_after_a_warm_recover_reads_no_slot() {
    let lake = CrashLake::new(TABLES);
    let medium = TornMedium::new(MemSnapshotMedium::new());
    let reads = medium.reads();
    let mut rt = ContinuousRuntime::new(soak_pipeline(), every_round_snapshots())
        .with_durability(SnapshotStore::new(medium), Journal::new());
    let mut platform = ScriptedPlatform::parity(JOB_DURATION_MS);
    flush(&mut rt, &lake, &mut platform, now(0));
    let (store, journal) = rt.into_durable_parts().unwrap();
    let mut rt = ContinuousRuntime::new(soak_pipeline(), every_round_snapshots())
        .with_durability(SnapshotStore::new(store.medium().clone()), journal);
    let report = rt.recover();
    assert!(report.is_warm(), "{report}");

    reads.set(0);
    lake.write(1);
    let round = flush(&mut rt, &lake, &mut platform, now(1));
    assert!(round.snapshot_saved);
    assert_eq!(reads.get(), 0, "the save read a slot");
    assert!(
        !split_generation(&newest_generation(&rt)).1.is_empty(),
        "a delta"
    );
}
