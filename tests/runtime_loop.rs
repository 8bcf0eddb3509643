//! Event-loop suites for the continuous runtime (`autocomp::runtime`).
//!
//! Four pillars, all on the deterministic simulated clock:
//!
//! * **Determinism** — the same seeded event trace (commits, timers,
//!   flushes, pumped completions) replayed against fresh state produces
//!   bit-identical round reports and identical runtime stats, with or
//!   without the durable boundary attached.
//! * **Parity** — a trace whose watermark trigger fires rounds at
//!   exactly the polled driver's cadence produces `CycleReport`s
//!   bit-identical to tracked incremental `AutoComp::cycle` calls at the
//!   same times, with and without completions pumped in as events between
//!   rounds (the `buffered ++ poll` equivalence the module docs pin).
//! * **Trigger pins** — watermark, staleness-deadline and GBHr-headroom
//!   rounds fire at exactly the scripted event, with the scripted cause
//!   and latency accounting; a quiet fleet fires no rounds and a flush
//!   over one re-observes nothing (entry table shared, zero fetches).
//! * **Crash/restore** — a scripted kill mid-event-loop recovers warm
//!   from the runtime-owned snapshot + journal boundary, re-drives the
//!   remaining events against the surviving platform, and reconverges
//!   with an uninterrupted twin (bit-identical rounds from the first
//!   fully-post-crash window on); a torn snapshot write falls back one
//!   generation and still reconverges.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};

use autocomp::{
    pump_completions, AutoComp, AutoCompConfig, Candidate, CandidateStats, ChangeCursor,
    CompactionExecutor, ComputeCostGbhr, ContinuousRuntime, CycleReport, ExecutionResult,
    FileCountReduction, FleetObserver, JobRuntimeConfig, LakeConnector, MinSizeFilter, Prediction,
    RankingPolicy, RecoveryReport, RoundReport, RuntimeConfig, RuntimeEvent, ScopeStrategy,
    TableRef, TraitWeight, TriggerCause,
};
use lakesim_storage::{Journal, MemSnapshotMedium, SnapshotStore};

mod common;
use common::faults::{CrashPoint, CrashingExecutor, SplitMix64, TornMedium, SCRIPTED_CRASH};
use common::{tracked_cycle, ScriptedPlatform};

const TABLES: u64 = 24;
const WINDOWS: usize = 8;
const JOB_DURATION_MS: u64 = 1_500;

fn now(window: usize) -> u64 {
    (window as u64 + 1) * 1_000
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
// Deterministic changelog lake (stats are pure functions of the table's
// version, so restored and twin runs re-observe identical fleets).
// ---------------------------------------------------------------------

struct RuntimeLake {
    tables: Vec<TableRef>,
    versions: Mutex<Vec<u64>>,
    log: Mutex<Vec<(u64, u64)>>, // (seq, uid)
    seq: AtomicU64,
}

impl RuntimeLake {
    fn new(n: u64) -> Self {
        RuntimeLake {
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

impl LakeConnector for RuntimeLake {
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

/// Executor that never schedules anything and never settles anything
/// (for rounds that must stay observationally quiet).
#[derive(Default)]
struct InertExecutor;

impl CompactionExecutor for InertExecutor {
    fn execute(&mut self, _c: &Candidate, _p: &Prediction, _now: u64) -> ExecutionResult {
        ExecutionResult::default()
    }
}

impl autocomp::TrackedExecutor for InertExecutor {
    fn poll(&mut self, _now: u64) -> Vec<autocomp::JobOutcome> {
        Vec::new()
    }
}

fn pipeline(gbhr_budget: Option<f64>) -> AutoComp {
    AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: 6,
        },
        trigger_label: "runtime-loop".into(),
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
        gbhr_budget,
        ..JobRuntimeConfig::default()
    })
}

/// Three distinct tables written in window `i` (pure function of `i`).
fn window_writes(i: usize) -> Vec<u64> {
    (0..3u64)
        .map(|j| ((i as u64) * 7 + j * 5 + 1) % TABLES)
        .collect()
}

/// Bit-level cycle-report comparison (the crash-recovery suite's
/// assertion set).
fn assert_reports_identical(a: &CycleReport, b: &CycleReport, ctx: &str) {
    assert_eq!(common::report_difference(a, b), None, "{ctx}");
}

/// Bit-level round-report comparison: runtime envelope + inner cycle
/// report.
fn assert_rounds_identical(a: &RoundReport, b: &RoundReport, ctx: &str) {
    assert_eq!(a.round, b.round, "{ctx}: round number");
    assert_eq!(a.at_ms, b.at_ms, "{ctx}: round time");
    assert_eq!(a.cause, b.cause, "{ctx}: trigger cause");
    assert_eq!(a.dirty_consumed, b.dirty_consumed, "{ctx}: dirty consumed");
    assert_eq!(
        a.commit_latencies_ms, b.commit_latencies_ms,
        "{ctx}: commit latencies"
    );
    assert_eq!(a.cache, b.cache, "{ctx}: cache stats");
    assert_eq!(a.memo, b.memo, "{ctx}: memo stats");
    assert_eq!(
        a.gbhr_window_used.to_bits(),
        b.gbhr_window_used.to_bits(),
        "{ctx}: GBHr window"
    );
    assert_eq!(a.snapshot_saved, b.snapshot_saved, "{ctx}: snapshot saved");
    assert_reports_identical(&a.report, &b.report, ctx);
}

// ---------------------------------------------------------------------
// Parity with the polled driver.
// ---------------------------------------------------------------------

/// The polled twin: one tracked incremental `AutoComp::cycle` per window,
/// at the same times the event side's watermark rounds fire.
fn run_polled_windows() -> Vec<CycleReport> {
    let lake = RuntimeLake::new(TABLES);
    let mut platform = ScriptedPlatform::parity(JOB_DURATION_MS);
    let mut ac = pipeline(None);
    let mut observer = FleetObserver::new();
    (0..WINDOWS)
        .map(|i| {
            for uid in window_writes(i) {
                lake.write(uid);
            }
            tracked_cycle(&mut ac, &mut observer, &lake, &mut platform, now(i)).unwrap()
        })
        .collect()
}

/// The event side: three commits per window trip a 3-table watermark, so
/// each window's round fires exactly at the polled twin's cycle time.
/// With `pump`, due outcomes are pushed in as completion events between
/// windows instead of waiting for the round's poll.
fn run_event_windows(pump: bool) -> (Vec<RoundReport>, autocomp::RuntimeStats, u64) {
    let lake = RuntimeLake::new(TABLES);
    let mut platform = ScriptedPlatform::parity(JOB_DURATION_MS);
    let config = RuntimeConfig {
        dirty_watermark: Some(3),
        max_staleness_ms: None,
        gbhr_headroom: None,
        min_round_interval_ms: 0,
        snapshot_every_rounds: 0,
    };
    let mut rt = ContinuousRuntime::new(pipeline(None), config);
    let mut rounds = Vec::new();
    let mut pumped = 0u64;
    for i in 0..WINDOWS {
        if pump && i >= 2 {
            // Window i-2's jobs come due at now(i) - 500: push them in as
            // events before the next round instead of letting its poll
            // find them.
            pumped += pump_completions(&mut platform, &mut rt, now(i) - 500) as u64;
        }
        for uid in window_writes(i) {
            lake.write(uid);
        }
        for uid in window_writes(i) {
            let fired = rt
                .handle_event(
                    &RuntimeEvent::Commit {
                        at_ms: now(i),
                        table_uid: uid,
                    },
                    &lake,
                    &mut platform,
                )
                .unwrap();
            rounds.extend(fired);
        }
    }
    (rounds, rt.stats(), pumped)
}

#[test]
fn event_rounds_match_polled_cycles() {
    let polled = run_polled_windows();
    let (rounds, stats, _) = run_event_windows(false);
    assert_eq!(rounds.len(), WINDOWS, "one watermark round per window");
    assert_eq!(stats.rounds, WINDOWS as u64);
    assert_eq!(stats.commit_events, (WINDOWS * 3) as u64);
    for (i, round) in rounds.iter().enumerate() {
        let ctx = format!("window {i}");
        assert_eq!(round.cause, TriggerCause::DirtyWatermark, "{ctx}");
        assert_eq!(round.at_ms, now(i), "{ctx}: fired at the 3rd commit");
        assert_eq!(round.dirty_consumed, 3, "{ctx}");
        assert_eq!(round.commit_latencies_ms, vec![0, 0, 0], "{ctx}");
        assert_reports_identical(&round.report, &polled[i], &ctx);
    }
}

#[test]
fn pumped_completions_match_round_polls() {
    let polled = run_polled_windows();
    let (rounds, stats, pumped) = run_event_windows(true);
    assert!(pumped > 0, "the pump must actually deliver outcomes");
    assert_eq!(stats.completion_events, pumped);
    assert_eq!(rounds.len(), WINDOWS);
    for (i, round) in rounds.iter().enumerate() {
        assert_reports_identical(&round.report, &polled[i], &format!("pumped window {i}"));
    }
}

// ---------------------------------------------------------------------
// Determinism of a seeded interleaved trace.
// ---------------------------------------------------------------------

/// Drives a seeded trace of commits, timers, flushes and pumped
/// completions against entirely fresh state; `durable` attaches the
/// snapshot + journal boundary, saving a snapshot every second round.
fn run_seeded_trace(seed: u64, durable: bool) -> (Vec<RoundReport>, autocomp::RuntimeStats) {
    let lake = RuntimeLake::new(TABLES);
    let mut platform = ScriptedPlatform::parity(JOB_DURATION_MS);
    let config = RuntimeConfig {
        dirty_watermark: Some(5),
        max_staleness_ms: Some(4_000),
        gbhr_headroom: None,
        min_round_interval_ms: 2_500,
        snapshot_every_rounds: if durable { 2 } else { 0 },
    };
    let mut rt = ContinuousRuntime::new(pipeline(None), config);
    if durable {
        rt = rt.with_durability(SnapshotStore::new(MemSnapshotMedium::new()), Journal::new());
    }
    let mut rng = SplitMix64::new(seed);
    let mut rounds = Vec::new();
    for step in 0..40u64 {
        let t = (step + 1) * 700;
        for _ in 0..rng.below(4) {
            let uid = rng.below(TABLES);
            lake.write(uid);
            let fired = rt
                .handle_event(
                    &RuntimeEvent::Commit {
                        at_ms: t,
                        table_uid: uid,
                    },
                    &lake,
                    &mut platform,
                )
                .unwrap();
            rounds.extend(fired);
        }
        if step % 3 == 2 {
            pump_completions(&mut platform, &mut rt, t);
        }
        let tick = if step % 9 == 8 {
            RuntimeEvent::Flush { at_ms: t }
        } else {
            RuntimeEvent::Timer { at_ms: t }
        };
        rounds.extend(rt.handle_event(&tick, &lake, &mut platform).unwrap());
    }
    rounds.extend(rt.shutdown(&lake, &mut platform, 40 * 700 + 1_000).unwrap());
    (rounds, rt.stats())
}

#[test]
fn seeded_trace_replays_bit_identically() {
    let (rounds_a, stats_a) = run_seeded_trace(0xDECAF, false);
    let (rounds_b, stats_b) = run_seeded_trace(0xDECAF, false);
    assert!(stats_a.rounds >= 3, "trace must fire several rounds");
    assert_eq!(stats_a, stats_b, "runtime stats must replay identically");
    assert_eq!(rounds_a.len(), rounds_b.len());
    for (i, (a, b)) in rounds_a.iter().zip(rounds_b.iter()).enumerate() {
        assert_rounds_identical(a, b, &format!("replayed round {i}"));
    }
}

/// The durable boundary changes what a round leaves behind, not when it
/// fires or what it decides: the same trace with snapshots and a journal
/// attached produces the same rounds.
#[test]
fn durability_does_not_change_the_round_schedule() {
    let (plain, plain_stats) = run_seeded_trace(0xDECAF, false);
    let (mut durable, durable_stats) = run_seeded_trace(0xDECAF, true);
    let saved = durable.iter().filter(|r| r.snapshot_saved).count() as u64;
    assert!(
        saved >= 2,
        "boundary snapshots and the shutdown's were saved"
    );
    assert_eq!(durable_stats.snapshots_saved, saved);
    assert_eq!(
        autocomp::RuntimeStats {
            snapshots_saved: 0,
            ..durable_stats
        },
        plain_stats
    );
    assert_eq!(plain.len(), durable.len());
    for (i, (a, b)) in plain.iter().zip(durable.iter_mut()).enumerate() {
        b.snapshot_saved = false;
        b.runtime.snapshots_saved = 0;
        assert_rounds_identical(a, b, &format!("durable round {i}"));
    }
}

// ---------------------------------------------------------------------
// Trigger pins.
// ---------------------------------------------------------------------

#[test]
fn watermark_counts_distinct_tables_and_fires_on_the_crossing_commit() {
    let lake = RuntimeLake::new(TABLES);
    let mut platform = ScriptedPlatform::new(JOB_DURATION_MS);
    let config = RuntimeConfig {
        dirty_watermark: Some(3),
        max_staleness_ms: None,
        gbhr_headroom: None,
        min_round_interval_ms: 0,
        snapshot_every_rounds: 0,
    };
    let mut rt = ContinuousRuntime::new(pipeline(None), config);
    let mut commit = |rt: &mut ContinuousRuntime, at_ms: u64, uid: u64| {
        lake.write(uid);
        rt.handle_event(
            &RuntimeEvent::Commit {
                at_ms,
                table_uid: uid,
            },
            &lake,
            &mut platform,
        )
        .unwrap()
    };
    assert!(commit(&mut rt, 1_000, 1).is_none());
    assert!(commit(&mut rt, 1_100, 2).is_none());
    // A repeat write to a dirty table does not advance the distinct count.
    assert!(commit(&mut rt, 1_200, 1).is_none());
    assert_eq!(rt.dirty_backlog(), 2);
    let round = commit(&mut rt, 1_300, 3).expect("3rd distinct table trips the watermark");
    assert_eq!(round.cause, TriggerCause::DirtyWatermark);
    assert_eq!(round.at_ms, 1_300);
    assert_eq!(round.dirty_consumed, 3);
    // One latency entry per commit *event* (four), in arrival order.
    assert_eq!(round.commit_latencies_ms, vec![300, 200, 100, 0]);
    assert_eq!(rt.dirty_backlog(), 0);
    let stats = rt.stats();
    assert_eq!(stats.rounds, 1);
    assert_eq!(stats.commit_events, 4);
    assert_eq!(stats.max_dirty_backlog, 3);
}

#[test]
fn staleness_deadline_fires_on_the_oldest_pending_commit() {
    let lake = RuntimeLake::new(TABLES);
    let mut platform = ScriptedPlatform::new(JOB_DURATION_MS);
    let config = RuntimeConfig {
        dirty_watermark: None,
        max_staleness_ms: Some(10_000),
        gbhr_headroom: None,
        min_round_interval_ms: 0,
        snapshot_every_rounds: 0,
    };
    let mut rt = ContinuousRuntime::new(pipeline(None), config);
    lake.write(5);
    let fired = rt
        .handle_event(
            &RuntimeEvent::Commit {
                at_ms: 1_000,
                table_uid: 5,
            },
            &lake,
            &mut platform,
        )
        .unwrap();
    assert!(fired.is_none(), "a lone commit waits for the deadline");
    let fired = rt
        .handle_event(&RuntimeEvent::Timer { at_ms: 10_999 }, &lake, &mut platform)
        .unwrap();
    assert!(
        fired.is_none(),
        "9 999 ms of staleness is under the deadline"
    );
    let round = rt
        .handle_event(&RuntimeEvent::Timer { at_ms: 11_000 }, &lake, &mut platform)
        .unwrap()
        .expect("10 000 ms of staleness fires the round");
    assert_eq!(round.cause, TriggerCause::StalenessDeadline);
    assert_eq!(round.at_ms, 11_000);
    assert_eq!(round.dirty_consumed, 1);
    assert_eq!(round.commit_latencies_ms, vec![10_000]);
    // With nothing pending, later timers never fire the deadline again.
    let fired = rt
        .handle_event(&RuntimeEvent::Timer { at_ms: 30_000 }, &lake, &mut platform)
        .unwrap();
    assert!(fired.is_none());
    assert_eq!(rt.stats().rounds, 1);
    assert_eq!(rt.stats().timer_events, 3);
}

#[test]
fn gbhr_headroom_fires_only_with_free_budget_and_pending_work() {
    let lake = RuntimeLake::new(TABLES);
    let mut platform = ScriptedPlatform::new(JOB_DURATION_MS);
    // budget == headroom: the trigger can only trip while the rolling
    // window is completely unused.
    let config = RuntimeConfig {
        dirty_watermark: None,
        max_staleness_ms: None,
        gbhr_headroom: Some(10.0),
        min_round_interval_ms: 0,
        snapshot_every_rounds: 0,
    };
    let mut rt = ContinuousRuntime::new(pipeline(Some(10.0)), config);
    // Full headroom but an empty dirty set: no round.
    let fired = rt
        .handle_event(&RuntimeEvent::Timer { at_ms: 500 }, &lake, &mut platform)
        .unwrap();
    assert!(
        fired.is_none(),
        "headroom alone must not fire without dirty work"
    );
    lake.write(0);
    let round = rt
        .handle_event(
            &RuntimeEvent::Commit {
                at_ms: 1_000,
                table_uid: 0,
            },
            &lake,
            &mut platform,
        )
        .unwrap()
        .expect("dirty work plus full headroom fires immediately");
    assert_eq!(round.cause, TriggerCause::GbhrHeadroom);
    assert!(
        round.gbhr_window_used > 0.0,
        "the round's submissions must charge the window"
    );
    // The window is now charged past the headroom: the next commit waits.
    lake.write(1);
    let fired = rt
        .handle_event(
            &RuntimeEvent::Commit {
                at_ms: 2_000,
                table_uid: 1,
            },
            &lake,
            &mut platform,
        )
        .unwrap();
    assert!(fired.is_none(), "spent window leaves no headroom");
    assert_eq!(rt.dirty_backlog(), 1);
    assert_eq!(rt.stats().rounds, 1);
    // An explicit flush still covers the backlog regardless of headroom.
    let round = rt
        .handle_event(&RuntimeEvent::Flush { at_ms: 3_000 }, &lake, &mut platform)
        .unwrap()
        .expect("flush bypasses the headroom trigger");
    assert_eq!(round.cause, TriggerCause::Flush);
    assert_eq!(round.dirty_consumed, 1);
    assert_eq!(round.commit_latencies_ms, vec![1_000]);
}

#[test]
fn quiet_fleet_fires_no_rounds_and_a_flush_shares_the_observation() {
    let lake = RuntimeLake::new(TABLES);
    let mut executor = InertExecutor;
    let config = RuntimeConfig {
        dirty_watermark: Some(64),
        max_staleness_ms: None,
        gbhr_headroom: None,
        min_round_interval_ms: 0,
        snapshot_every_rounds: 0,
    };
    let mut rt = ContinuousRuntime::new(pipeline(None), config);
    let first = rt
        .handle_event(&RuntimeEvent::Flush { at_ms: 1_000 }, &lake, &mut executor)
        .unwrap()
        .expect("flush fires even on a cold, quiet fleet");
    assert_eq!(
        rt.observer().last().unwrap().fetched_tables(),
        TABLES as usize,
        "cold observe fetches the whole fleet"
    );
    assert_eq!(first.dirty_consumed, 0);
    let prior = rt.observer().last().unwrap().clone();

    // A quiet stretch: timers arrive, no commits — no rounds fire.
    for t in [2_000, 3_000, 4_000, 5_000] {
        let fired = rt
            .handle_event(&RuntimeEvent::Timer { at_ms: t }, &lake, &mut executor)
            .unwrap();
        assert!(fired.is_none(), "timer at {t} must not fire a round");
    }
    assert_eq!(rt.stats().rounds, 1);

    // A flush over the still-quiet fleet re-observes nothing: the entry
    // table is literally shared with the prior observation (one Arc bump)
    // and every cached row splices.
    let second = rt
        .handle_event(&RuntimeEvent::Flush { at_ms: 6_000 }, &lake, &mut executor)
        .unwrap()
        .expect("flush always fires");
    let obs = rt.observer().last().unwrap();
    assert_eq!(obs.fetched_tables(), 0, "quiet pass fetches nothing");
    assert_eq!(obs.reused_tables(), TABLES as usize);
    assert!(
        obs.entries_shared_with(&prior),
        "quiet pass shares the entry table outright"
    );
    assert_eq!(second.cache.recomputed_tables, 0, "every row splices");
    assert_eq!(second.cache.spliced_tables, TABLES as usize);
}

// ---------------------------------------------------------------------
// Crash mid-event-loop, warm restore, convergence with the twin.
// ---------------------------------------------------------------------

const CRASH_WINDOWS: usize = 6;

/// Feeds windows `[from, CRASH_WINDOWS)` into the runtime: each window
/// applies its writes once (tracked in `applied`, so a re-driven window
/// does not double-write the lake) and then emits its three commit
/// events.
fn drive_windows<M, E>(
    rt: &mut ContinuousRuntime<M>,
    lake: &RuntimeLake,
    executor: &mut E,
    applied: &mut [bool],
    from: usize,
    rounds: &mut Vec<RoundReport>,
) where
    M: lakesim_storage::SnapshotMedium,
    E: autocomp::TrackedExecutor,
{
    for (i, was_applied) in applied.iter_mut().enumerate().skip(from) {
        if !*was_applied {
            for uid in window_writes(i) {
                lake.write(uid);
            }
            *was_applied = true;
        }
        for uid in window_writes(i) {
            let fired = rt
                .handle_event(
                    &RuntimeEvent::Commit {
                        at_ms: now(i),
                        table_uid: uid,
                    },
                    lake,
                    executor,
                )
                .unwrap();
            rounds.extend(fired);
        }
    }
}

/// Three spaced flush rounds that drain every in-flight job and retry
/// (backoffs are capped at 4 s, so 20 s gaps always cover them).
fn drain_flushes<M, E>(
    rt: &mut ContinuousRuntime<M>,
    lake: &RuntimeLake,
    executor: &mut E,
) -> Vec<RoundReport>
where
    M: lakesim_storage::SnapshotMedium,
    E: autocomp::TrackedExecutor,
{
    [20_000u64, 40_000, 60_000]
        .iter()
        .map(|&t| {
            rt.handle_event(&RuntimeEvent::Flush { at_ms: t }, lake, executor)
                .unwrap()
                .expect("flush always fires")
        })
        .collect()
}

fn crash_config() -> RuntimeConfig {
    RuntimeConfig {
        dirty_watermark: Some(3),
        max_staleness_ms: None,
        gbhr_headroom: None,
        min_round_interval_ms: 0,
        snapshot_every_rounds: 1,
    }
}

#[test]
fn crash_mid_event_loop_recovers_warm_and_converges_with_the_twin() {
    silence_scripted_crashes();

    // The uninterrupted twin: same windows, no durability, no crash.
    let twin_lake = RuntimeLake::new(TABLES);
    let mut twin_platform = ScriptedPlatform::parity(JOB_DURATION_MS);
    let mut twin = ContinuousRuntime::new(pipeline(None), crash_config());
    let mut twin_rounds = Vec::new();
    let mut twin_applied = vec![false; CRASH_WINDOWS];
    drive_windows(
        &mut twin,
        &twin_lake,
        &mut twin_platform,
        &mut twin_applied,
        0,
        &mut twin_rounds,
    );
    let twin_flushes = drain_flushes(&mut twin, &twin_lake, &mut twin_platform);
    assert_eq!(twin_rounds.len(), CRASH_WINDOWS);

    // The crashing run: durable boundary (snapshot every round), scripted
    // kill before the 8th platform submission — mid-act-wave of the
    // second window's round.
    let lake = RuntimeLake::new(TABLES);
    let mut crasher = CrashingExecutor::new(
        ScriptedPlatform::parity(JOB_DURATION_MS),
        CrashPoint {
            before_execute: Some(8),
            before_poll: None,
        },
    );
    let mut rt = ContinuousRuntime::new(pipeline(None), crash_config())
        .with_durability(SnapshotStore::new(MemSnapshotMedium::new()), Journal::new());
    let mut rounds = Vec::new();
    let mut applied = vec![false; CRASH_WINDOWS];
    let crash = catch_unwind(AssertUnwindSafe(|| {
        drive_windows(&mut rt, &lake, &mut crasher, &mut applied, 0, &mut rounds);
    }));
    assert!(crash.is_err(), "the scripted crash must fire");
    let completed = rounds.len();
    assert!(
        completed >= 1,
        "at least one round must land before the kill"
    );

    // Process death: only the platform (the remote system), the snapshot
    // medium, and the journal *bytes* survive.
    let mut platform = crasher.into_inner();
    let (store, journal) = rt.into_durable_parts().expect("durability was attached");
    let journal = Journal::from_bytes(journal.bytes());

    // Restart: restore the newest snapshot generation, replay the journal
    // suffix, rewind the platform's outcome feed to the snapshot's
    // cursor.
    let mut rt =
        ContinuousRuntime::new(pipeline(None), crash_config()).with_durability(store, journal);
    let recovery = rt.recover();
    let RecoveryReport::Warm {
        cycle,
        executor_cursor,
        jobs_in_flight,
        ..
    } = recovery
    else {
        panic!("expected a warm recovery, got {recovery:?}");
    };
    assert_eq!(
        cycle as usize, completed,
        "snapshot-per-round boundary restores exactly the completed rounds"
    );
    assert!(
        jobs_in_flight > 0,
        "the interrupted act wave left journaled jobs to re-adopt"
    );
    platform.set_cursor(executor_cursor as usize);

    // Re-drive from the interrupted window (round i covers window i-1).
    drive_windows(
        &mut rt,
        &lake,
        &mut platform,
        &mut applied,
        cycle as usize,
        &mut rounds,
    );
    assert_eq!(rounds.len(), CRASH_WINDOWS, "every window gets its round");
    let flushes = drain_flushes(&mut rt, &lake, &mut platform);

    // The re-driven round itself is *not* bit-identical to the twin's
    // (re-adopted jobs are suppressed instead of re-submitted), but every
    // fully-post-crash window round must be.
    for i in (cycle as usize + 1)..CRASH_WINDOWS {
        assert_reports_identical(
            &rounds[i].report,
            &twin_rounds[i].report,
            &format!("post-crash window {i}"),
        );
        assert_eq!(rounds[i].at_ms, twin_rounds[i].at_ms);
        assert_eq!(rounds[i].cause, twin_rounds[i].cause);
    }
    // Convergence: both platforms saw the same jobs settle in the same
    // order, both ledgers hold the same load (the steady-state compactor
    // keeps the fleet busy, so "drained" means *equal*, not empty), and
    // the tail flush rounds are bit-identical.
    assert_eq!(
        platform.cursor(),
        twin_platform.cursor(),
        "both runs deliver the same outcome log"
    );
    let recovered_tracker = rt.pipeline().job_tracker().unwrap();
    let twin_tracker = twin.pipeline().job_tracker().unwrap();
    assert_eq!(recovered_tracker.in_flight(), twin_tracker.in_flight());
    assert_eq!(
        recovered_tracker.retry_pending(),
        twin_tracker.retry_pending()
    );
    for (i, (a, b)) in flushes.iter().zip(twin_flushes.iter()).enumerate() {
        assert_reports_identical(&a.report, &b.report, &format!("drain flush {i}"));
        assert_eq!(a.commit_latencies_ms, b.commit_latencies_ms);
        assert_eq!(a.dirty_consumed, b.dirty_consumed);
    }
}

#[test]
fn torn_snapshot_write_falls_back_a_generation_and_still_recovers() {
    let lake = RuntimeLake::new(TABLES);
    let mut platform = ScriptedPlatform::new(JOB_DURATION_MS);
    let mut rt = ContinuousRuntime::new(pipeline(None), crash_config()).with_durability(
        SnapshotStore::new(TornMedium::new(MemSnapshotMedium::new())),
        Journal::new(),
    );
    let mut rounds = Vec::new();
    let mut applied = vec![false; CRASH_WINDOWS];

    // Window 0's round snapshots cleanly; window 1's snapshot write is
    // torn mid-flight (the crash-while-snapshotting shape).
    for (i, was_applied) in applied.iter_mut().enumerate().take(2) {
        if i == 1 {
            rt.snapshot_store_mut()
                .unwrap()
                .medium_mut()
                .tear_next_write_at(9);
        }
        for uid in window_writes(i) {
            lake.write(uid);
        }
        *was_applied = true;
        for uid in window_writes(i) {
            let fired = rt
                .handle_event(
                    &RuntimeEvent::Commit {
                        at_ms: now(i),
                        table_uid: uid,
                    },
                    &lake,
                    &mut platform,
                )
                .unwrap();
            rounds.extend(fired);
        }
    }
    assert_eq!(rounds.len(), 2);
    assert!(rounds.iter().all(|r| r.snapshot_saved));

    // Kill and restart: the torn generation must be rejected and recovery
    // must fall back to the round-1 boundary.
    let (store, journal) = rt.into_durable_parts().unwrap();
    let journal = Journal::from_bytes(journal.bytes());
    let mut rt =
        ContinuousRuntime::new(pipeline(None), crash_config()).with_durability(store, journal);
    let recovery = rt.recover();
    let RecoveryReport::Warm {
        cycle,
        executor_cursor,
        ..
    } = recovery
    else {
        panic!("expected a warm fallback recovery, got {recovery:?}");
    };
    assert_eq!(cycle, 1, "falls back past the torn generation");
    platform.set_cursor(executor_cursor as usize);

    // Re-drive window 1 and run the rest of the schedule to a clean end.
    let mut rounds = Vec::new();
    drive_windows(&mut rt, &lake, &mut platform, &mut applied, 1, &mut rounds);
    assert_eq!(rounds.len(), CRASH_WINDOWS - 1);
    let last = rt
        .shutdown(&lake, &mut platform, 30_000)
        .unwrap()
        .expect("shutdown flush");
    assert!(last.snapshot_saved, "shutdown saves a boundary snapshot");
    // Every post-fallback round re-snapshots (snapshot_every_rounds = 1),
    // so the next kill would lose at most one round again.
    assert_eq!(
        rt.stats().snapshots_saved,
        CRASH_WINDOWS as u64,
        "one boundary snapshot per re-driven round plus the shutdown's"
    );
}
