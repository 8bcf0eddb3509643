//! Sustained-ingest harness: millions of simulated commits per hour
//! against a 100K-table fleet, driven through the event-driven
//! [`ContinuousRuntime`] (and a fixed-cadence polled companion for the
//! same commit schedule), measuring **decision latency** — commit event
//! → covering decision round, on the simulated clock.
//!
//! The lake here is synthetic (pure stats as a function of per-table
//! write counts, no LST metadata), because the quantity under test is
//! framework decision latency at fleet scale, not storage fidelity: the
//! harness must push ≥1M commits per simulated hour through the event
//! loop, and every one of those commits' latency samples must be exact
//! and deterministic. Compactions settle through a tracked platform and
//! reset their table's write accumulation, so the fleet reaches a
//! realistic steady state where ranking chases the write stream.
//!
//! [`run_sustained_ingest`] drives the event loop (watermark + staleness
//! triggers, completion events pumped at tick granularity);
//! [`run_sustained_polled`] replays the identical seeded commit schedule
//! through fixed-cadence tracked incremental `AutoComp::cycle` calls —
//! the §5 periodic mode — so benches can report the two modes' latency
//! distributions side by side from the same pass.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

use autocomp::{
    pump_completions, AutoComp, AutoCompConfig, Candidate, CandidateStats, ChangeCursor,
    CompactionExecutor, ComputeCostGbhr, ContinuousRuntime, CycleInput, ExecutionResult, Executor,
    FileCountReduction, FleetObserver, JobOutcome, JobOutcomeStatus, JobRuntimeConfig,
    LakeConnector, Log2Histogram, Prediction, RankingPolicy, RoundReport, RuntimeConfig,
    RuntimeEvent, RuntimeStats, ScopeStrategy, TableRef, TrackedExecutor, TraitWeight,
};
use lakesim_engine::MS_PER_HOUR;
use lakesim_storage::{Journal, MemSnapshotMedium, SnapshotStore, GB, MB};

use crate::driver::LedgerTick;

/// Parameters of a sustained-ingest run.
#[derive(Debug, Clone)]
pub struct SustainedIngestConfig {
    /// Fleet size.
    pub tables: usize,
    /// Commit-schedule seed (same seed ⇒ bit-identical run).
    pub seed: u64,
    /// Simulated run length.
    pub duration_ms: u64,
    /// Commit-arrival granularity: every tick delivers a batch of
    /// commits and pumps platform completions.
    pub tick_ms: u64,
    /// Commits per tick (uniformly random tables).
    pub commits_per_tick: u64,
    /// Event-loop dirty watermark (distinct tables).
    pub dirty_watermark: usize,
    /// Event-loop staleness backstop.
    pub max_staleness_ms: u64,
    /// Polled companion's fixed cycle cadence.
    pub poll_interval_ms: u64,
    /// Simulated compaction duration (submit → settle).
    pub job_duration_ms: u64,
    /// Selections per decision round (MOOP top-k).
    pub k: usize,
    /// Attach the durable commit boundary (in-memory store + journal) to
    /// the event loop, exercising journaling + periodic snapshots under
    /// load.
    pub durable: bool,
    /// Snapshot cadence when `durable` (rounds per snapshot).
    pub snapshot_every_rounds: u64,
}

impl Default for SustainedIngestConfig {
    /// The acceptance-scale shape: 100K tables, ~1.08M commits per
    /// simulated hour (200ms ticks × 60 commits), 5K-table watermark
    /// with a 10-minute staleness backstop, 15s polled cadence.
    fn default() -> Self {
        SustainedIngestConfig {
            tables: 100_000,
            seed: 0xC0FFEE,
            duration_ms: MS_PER_HOUR,
            tick_ms: 200,
            commits_per_tick: 60,
            dirty_watermark: 5_000,
            max_staleness_ms: 600_000,
            poll_interval_ms: 15_000,
            job_duration_ms: 60_000,
            k: 64,
            durable: false,
            snapshot_every_rounds: 32,
        }
    }
}

/// Outcome of a sustained-ingest run (either driver).
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Fleet size.
    pub tables: usize,
    /// Commits delivered.
    pub commits: u64,
    /// Decision rounds (event loop) or cycles (polled).
    pub rounds: u64,
    /// Event-loop rounds deferred by the interval gate (0 for polled).
    pub deferred_rounds: u64,
    /// Largest distinct-dirty backlog awaiting a round.
    pub max_dirty_backlog: usize,
    /// Jobs submitted across the run.
    pub executed: usize,
    /// Outcomes settled across the run.
    pub settled: usize,
    /// Boundary snapshots saved (0 unless durable).
    pub snapshots_saved: u64,
    /// Decision-latency samples collected (equals `commits` when every
    /// commit was covered by a round).
    pub latency_samples: u64,
    /// Decision-latency percentiles over every commit, read from the
    /// shared telemetry [`Log2Histogram`] (simulated clock): within one
    /// log2 bucket of the exact sorted-sample percentile, pinned by the
    /// `histogram_percentiles_pin_previous_exact_readout` test.
    pub decision_p50_ms: u64,
    /// 95th percentile (same histogram contract).
    pub decision_p95_ms: u64,
    /// 99th percentile (same histogram contract).
    pub decision_p99_ms: u64,
    /// Worst decision latency — exact (the histogram tracks max
    /// alongside the buckets).
    pub decision_max_ms: u64,
    /// Normalized arrival rate.
    pub commits_per_hour: f64,
    /// One metrics tick per round: ledger totals plus cache/memo splice
    /// stats.
    pub ledger_ticks: Vec<LedgerTick>,
}

/// Deterministic commit-schedule generator (SplitMix64).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Shared mutable fleet state: per-table writes since last compaction.
struct FleetState {
    writes: Vec<u32>,
}

/// Pure stats: a deterministic function of (uid, writes-since-compaction)
/// — fragmentation grows with the write count and resets on compaction.
fn stats_for(uid: u64, writes: u32) -> CandidateStats {
    let w = writes as u64;
    let base = 10 + (uid * 31) % 40;
    let file_count = base + 6 * w;
    let small_file_count = (4 + 6 * w).min(file_count);
    CandidateStats {
        file_count,
        small_file_count,
        small_bytes: small_file_count * 8 * MB,
        total_bytes: file_count * 48 * MB,
        target_file_size: GB / 2,
        ..CandidateStats::default()
    }
}

/// The synthetic 100K-table connector: constant listing epoch and a
/// quiet change cursor (dirtiness flows through commit events /
/// `mark_dirty`, exercising the dirty-overwrite incremental path).
struct SyntheticFleetLake {
    state: Rc<RefCell<FleetState>>,
    tables: usize,
}

impl LakeConnector for SyntheticFleetLake {
    fn list_tables(&self) -> Vec<TableRef> {
        let db: Vec<Arc<str>> = (0..64).map(|d| Arc::from(format!("db{d}"))).collect();
        (0..self.tables as u64)
            .map(|uid| TableRef {
                table_uid: uid,
                database: db[(uid % 64) as usize].clone(),
                name: format!("t{uid}").into(),
                partitioned: false,
                compaction_enabled: true,
                is_intermediate: false,
            })
            .collect()
    }

    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        let state = self.state.borrow();
        let writes = *state.writes.get(uid as usize)?;
        Some(stats_for(uid, writes))
    }

    fn partition_stats(&self, _uid: u64) -> Vec<(String, CandidateStats)> {
        Vec::new()
    }

    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        Some(ChangeCursor(0))
    }

    fn changes_since(&self, _cursor: ChangeCursor) -> Option<Vec<u64>> {
        Some(Vec::new())
    }

    fn listing_epoch(&self) -> Option<u64> {
        Some(0)
    }
}

/// Tracked platform: jobs settle `duration_ms` after submission and
/// reset their table's write accumulation (the compaction took effect).
struct FleetPlatform {
    state: Rc<RefCell<FleetState>>,
    duration_ms: u64,
    next_job: u64,
    running: Vec<(u64, u64, u64, f64)>,
}

impl CompactionExecutor for FleetPlatform {
    fn execute(&mut self, c: &Candidate, p: &Prediction, now_ms: u64) -> ExecutionResult {
        self.next_job += 1;
        self.running.push((
            self.next_job,
            c.id.table_uid,
            now_ms + self.duration_ms,
            p.gbhr,
        ));
        ExecutionResult {
            scheduled: true,
            job_id: Some(self.next_job),
            gbhr: p.gbhr,
            commit_due_ms: Some(now_ms + self.duration_ms),
            error: None,
        }
    }
}

impl TrackedExecutor for FleetPlatform {
    fn poll(&mut self, now_ms: u64) -> Vec<JobOutcome> {
        let (due, rest): (Vec<_>, Vec<_>) = self
            .running
            .drain(..)
            .partition(|(_, _, d, _)| *d <= now_ms);
        self.running = rest;
        let mut state = self.state.borrow_mut();
        due.into_iter()
            .map(|(job_id, uid, at, gbhr)| {
                let before = stats_for(uid, state.writes[uid as usize]).file_count;
                state.writes[uid as usize] = 0;
                let after = stats_for(uid, 0).file_count;
                JobOutcome {
                    job_id,
                    table_uid: uid,
                    status: JobOutcomeStatus::Succeeded,
                    finished_at_ms: at,
                    actual_reduction: before as i64 - after as i64,
                    actual_gbhr: gbhr,
                }
            })
            .collect()
    }
}

fn build_pipeline(cfg: &SustainedIngestConfig) -> AutoComp {
    AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: cfg.k,
        },
        trigger_label: "sustained-ingest".into(),
        calibrate: false,
    })
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
    .with_job_tracker(JobRuntimeConfig {
        gbhr_budget: Some(50_000.0),
        ..JobRuntimeConfig::default()
    })
}

/// Collects per-round outputs into report accumulators. Decision
/// latencies fold into a shared telemetry [`Log2Histogram`] instead of a
/// sorted sample vector: percentile readout is the holding bucket's
/// upper edge clamped to the exact max, so the reported values stay
/// within one log2 bucket of the previous exact readout (pinned by
/// `histogram_percentiles_pin_previous_exact_readout`).
struct Accumulator {
    latency: Log2Histogram,
    ticks: Vec<LedgerTick>,
    executed: usize,
    settled: usize,
}

impl Accumulator {
    fn new() -> Self {
        Accumulator {
            latency: Log2Histogram::new(),
            ticks: Vec::new(),
            executed: 0,
            settled: 0,
        }
    }

    fn absorb(&mut self, round: RoundReport) {
        for &latency_ms in &round.commit_latencies_ms {
            self.latency.record(latency_ms);
        }
        self.executed += round.report.executed.len();
        self.settled += round.report.ledger.settled;
        self.ticks.push(LedgerTick {
            at_ms: round.at_ms,
            summary: round.report.ledger,
            gbhr_window_used: round.gbhr_window_used,
            gbhr_budget: Some(50_000.0),
            cache: round.cache,
            memo: round.memo,
            deferred_rounds: round.runtime.deferred_rounds,
            max_dirty_backlog: round.runtime.max_dirty_backlog,
            max_watermark_overshoot: round.runtime.max_watermark_overshoot,
        });
    }

    fn into_report(
        self,
        cfg: &SustainedIngestConfig,
        commits: u64,
        rounds: u64,
        deferred_rounds: u64,
        max_dirty_backlog: usize,
        snapshots_saved: u64,
    ) -> IngestReport {
        let snap = self.latency.snapshot();
        let (p50, p95, p99) = snap.p50_p95_p99();
        IngestReport {
            tables: cfg.tables,
            commits,
            rounds,
            deferred_rounds,
            max_dirty_backlog,
            executed: self.executed,
            settled: self.settled,
            snapshots_saved,
            latency_samples: snap.count,
            decision_p50_ms: p50,
            decision_p95_ms: p95,
            decision_p99_ms: p99,
            decision_max_ms: snap.max,
            commits_per_hour: commits as f64 * MS_PER_HOUR as f64 / cfg.duration_ms as f64,
            ledger_ticks: self.ticks,
        }
    }
}

/// Drives the event loop over the seeded commit schedule: per tick,
/// deliver the tick's commit events, pump platform completions into the
/// runtime's [`CompletionSink`](autocomp::CompletionSink), and send a
/// timer heartbeat; a shutdown flush covers any tail so every commit
/// gets a latency sample.
pub fn run_sustained_ingest(cfg: &SustainedIngestConfig) -> IngestReport {
    let state = Rc::new(RefCell::new(FleetState {
        writes: vec![0; cfg.tables],
    }));
    let lake = SyntheticFleetLake {
        state: state.clone(),
        tables: cfg.tables,
    };
    let mut platform = FleetPlatform {
        state: state.clone(),
        duration_ms: cfg.job_duration_ms,
        next_job: 0,
        running: Vec::new(),
    };
    let mut rt = ContinuousRuntime::new(
        build_pipeline(cfg),
        RuntimeConfig {
            dirty_watermark: Some(cfg.dirty_watermark),
            max_staleness_ms: Some(cfg.max_staleness_ms),
            gbhr_headroom: None,
            min_round_interval_ms: 0,
            snapshot_every_rounds: cfg.snapshot_every_rounds,
        },
    );
    if cfg.durable {
        rt = rt.with_durability(SnapshotStore::new(MemSnapshotMedium::new()), Journal::new());
    }

    let mut rng = SplitMix64(cfg.seed);
    let mut acc = Accumulator::new();
    let mut commits = 0u64;
    let ticks = cfg.duration_ms / cfg.tick_ms;
    for tick in 1..=ticks {
        let now = tick * cfg.tick_ms;
        for _ in 0..cfg.commits_per_tick {
            let uid = rng.below(cfg.tables as u64);
            state.borrow_mut().writes[uid as usize] += 1;
            commits += 1;
            let event = RuntimeEvent::Commit {
                at_ms: now,
                table_uid: uid,
            };
            if let Some(round) = rt
                .handle_event(&event, &lake, &mut platform)
                .expect("event round")
            {
                acc.absorb(round);
            }
        }
        pump_completions(&mut platform, &mut rt, now);
        if let Some(round) = rt
            .handle_event(&RuntimeEvent::Timer { at_ms: now }, &lake, &mut platform)
            .expect("timer round")
        {
            acc.absorb(round);
        }
    }
    if let Some(round) = rt
        .shutdown(&lake, &mut platform, ticks * cfg.tick_ms)
        .expect("shutdown round")
    {
        acc.absorb(round);
    }
    let stats = rt.stats();
    acc.into_report(
        cfg,
        commits,
        stats.rounds,
        stats.deferred_rounds,
        stats.max_dirty_backlog,
        stats.snapshots_saved,
    )
}

/// The fixed-cadence companion: the identical seeded commit schedule,
/// but dirtiness is batched to `poll_interval_ms` cycle boundaries (§5
/// periodic mode) — each boundary marks the interval's commits dirty and
/// runs one tracked incremental cycle. Decision latency is measured the
/// same way (commit time → covering cycle).
pub fn run_sustained_polled(cfg: &SustainedIngestConfig) -> IngestReport {
    let state = Rc::new(RefCell::new(FleetState {
        writes: vec![0; cfg.tables],
    }));
    let lake = SyntheticFleetLake {
        state: state.clone(),
        tables: cfg.tables,
    };
    let mut platform = FleetPlatform {
        state: state.clone(),
        duration_ms: cfg.job_duration_ms,
        next_job: 0,
        running: Vec::new(),
    };
    let mut pipeline = build_pipeline(cfg);
    let mut observer = FleetObserver::new();

    let mut rng = SplitMix64(cfg.seed);
    let mut acc = Accumulator::new();
    let mut commits = 0u64;
    let mut cycles = 0u64;
    let mut pending: Vec<u64> = Vec::new();
    let mut pending_distinct: BTreeSet<u64> = BTreeSet::new();
    let mut max_backlog = 0usize;
    let ticks = cfg.duration_ms / cfg.tick_ms;
    let mut cycle = |now: u64,
                     pending: &mut Vec<u64>,
                     distinct: &mut BTreeSet<u64>,
                     backlog_so_far: usize,
                     platform: &mut FleetPlatform,
                     acc: &mut Accumulator| {
        let dirty_consumed = distinct.len();
        while let Some(uid) = distinct.pop_first() {
            observer.mark_dirty(uid);
        }
        let latencies: Vec<u64> = pending.drain(..).map(|at| now - at).collect();
        let report = pipeline
            .cycle(CycleInput {
                connector: &lake,
                observer: Some(&mut observer),
                executor: Executor::Tracked(platform),
                now_ms: now,
            })
            .expect("polled cycle");
        acc.absorb(RoundReport {
            round: 0,
            at_ms: now,
            cause: autocomp::TriggerCause::Flush,
            dirty_consumed,
            commit_latencies_ms: latencies,
            cache: pipeline.cycle_cache_stats(),
            memo: pipeline.rank_memo_stats(),
            gbhr_window_used: pipeline
                .job_tracker()
                .map(|t| t.gbhr_window_usage())
                .unwrap_or(0.0),
            snapshot_saved: false,
            health: autocomp::FleetHealth::classify(
                observer.last().map(|o| o.degradation()),
                autocomp::STALL_AFTER_STALE_LISTINGS,
            ),
            // No event loop in the polled twin: only the dirty-backlog
            // gauge is meaningful, the other counters stay zero.
            runtime: RuntimeStats {
                max_dirty_backlog: backlog_so_far,
                ..RuntimeStats::default()
            },
            report,
        });
    };
    for tick in 1..=ticks {
        let now = tick * cfg.tick_ms;
        for _ in 0..cfg.commits_per_tick {
            let uid = rng.below(cfg.tables as u64);
            state.borrow_mut().writes[uid as usize] += 1;
            commits += 1;
            pending.push(now);
            pending_distinct.insert(uid);
            max_backlog = max_backlog.max(pending_distinct.len());
        }
        if now.is_multiple_of(cfg.poll_interval_ms) {
            cycles += 1;
            cycle(
                now,
                &mut pending,
                &mut pending_distinct,
                max_backlog,
                &mut platform,
                &mut acc,
            );
        }
    }
    if !pending.is_empty() {
        cycles += 1;
        cycle(
            ticks * cfg.tick_ms,
            &mut pending,
            &mut pending_distinct,
            max_backlog,
            &mut platform,
            &mut acc,
        );
    }
    acc.into_report(cfg, commits, cycles, 0, max_backlog, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SustainedIngestConfig {
        SustainedIngestConfig {
            tables: 400,
            seed: 7,
            duration_ms: 120_000,
            tick_ms: 200,
            commits_per_tick: 5,
            dirty_watermark: 60,
            max_staleness_ms: 30_000,
            poll_interval_ms: 15_000,
            job_duration_ms: 5_000,
            k: 8,
            durable: false,
            snapshot_every_rounds: 4,
        }
    }

    #[test]
    fn event_loop_covers_every_commit() {
        let cfg = small_cfg();
        let report = run_sustained_ingest(&cfg);
        assert_eq!(report.commits, 600 * 5);
        assert_eq!(
            report.latency_samples, report.commits,
            "every commit got a decision-latency sample"
        );
        assert!(report.rounds > 1, "triggers fired rounds");
        assert!(report.executed > 0, "rounds submitted jobs");
        assert!(report.settled > 0, "completions settled");
        assert!(
            report.decision_max_ms <= cfg.max_staleness_ms + cfg.tick_ms,
            "staleness backstop bounds worst-case latency: {} > {}",
            report.decision_max_ms,
            cfg.max_staleness_ms + cfg.tick_ms
        );
        assert!(report.decision_p50_ms <= report.decision_p95_ms);
        assert!(report.decision_p95_ms <= report.decision_p99_ms);
        assert!(report.decision_p99_ms <= report.decision_max_ms);
        assert_eq!(report.ledger_ticks.len() as u64, report.rounds);
        // Backpressure gauges ride along on every tick; the final tick
        // carries the run's cumulative high-water marks.
        let last = report.ledger_ticks.last().unwrap();
        assert_eq!(last.max_dirty_backlog, report.max_dirty_backlog);
        assert_eq!(last.deferred_rounds, report.deferred_rounds);
    }

    #[test]
    fn event_loop_is_deterministic() {
        let cfg = small_cfg();
        let a = run_sustained_ingest(&cfg);
        let b = run_sustained_ingest(&cfg);
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.settled, b.settled);
        assert_eq!(
            (
                a.decision_p50_ms,
                a.decision_p95_ms,
                a.decision_p99_ms,
                a.decision_max_ms
            ),
            (
                b.decision_p50_ms,
                b.decision_p95_ms,
                b.decision_p99_ms,
                b.decision_max_ms
            ),
        );
    }

    #[test]
    fn durable_event_loop_saves_snapshots() {
        let cfg = SustainedIngestConfig {
            durable: true,
            ..small_cfg()
        };
        let report = run_sustained_ingest(&cfg);
        assert!(report.snapshots_saved > 0, "{report:?}");
        // Durability must not change the decision schedule.
        let plain = run_sustained_ingest(&SustainedIngestConfig {
            durable: false,
            ..small_cfg()
        });
        assert_eq!(report.rounds, plain.rounds);
        assert_eq!(report.decision_p99_ms, plain.decision_p99_ms);
        assert_eq!(report.executed, plain.executed);
    }

    /// Satellite pin: swapping the sorted sample vector for the shared
    /// telemetry log2 histogram must keep every reported percentile in
    /// the same log2 bucket as the previous exact readout, and the max
    /// exactly equal. The exact values were captured from the
    /// vector-sort implementation on this same seeded config:
    /// event loop p50=1200 p95=2400 p99=2600 max=2800;
    /// polled p50=7400 p95=14200 p99=14800 max=14800.
    #[test]
    fn histogram_percentiles_pin_previous_exact_readout() {
        use autocomp::telemetry::bucket_index;

        let cfg = small_cfg();
        let event = run_sustained_ingest(&cfg);
        let polled = run_sustained_polled(&cfg);

        let same_bucket = |got: u64, exact: u64| bucket_index(got) == bucket_index(exact);
        assert!(same_bucket(event.decision_p50_ms, 1200), "{event:?}");
        assert!(same_bucket(event.decision_p95_ms, 2400), "{event:?}");
        assert!(same_bucket(event.decision_p99_ms, 2600), "{event:?}");
        assert_eq!(event.decision_max_ms, 2800, "max stays exact");
        assert!(same_bucket(polled.decision_p50_ms, 7400), "{polled:?}");
        assert!(same_bucket(polled.decision_p95_ms, 14200), "{polled:?}");
        assert!(same_bucket(polled.decision_p99_ms, 14800), "{polled:?}");
        assert_eq!(polled.decision_max_ms, 14800, "max stays exact");

        // The readout itself is deterministic: bucket upper edges
        // clamped to the exact max.
        assert_eq!(
            (
                event.decision_p50_ms,
                event.decision_p95_ms,
                event.decision_p99_ms
            ),
            (2047, 2800, 2800)
        );
        assert_eq!(
            (
                polled.decision_p50_ms,
                polled.decision_p95_ms,
                polled.decision_p99_ms
            ),
            (8191, 14800, 14800)
        );
    }

    #[test]
    fn polled_companion_covers_every_commit() {
        let cfg = small_cfg();
        let report = run_sustained_polled(&cfg);
        assert_eq!(report.commits, 600 * 5);
        assert_eq!(report.latency_samples, report.commits);
        assert_eq!(report.rounds, 8, "one cycle per 15s boundary");
        assert!(
            report.decision_max_ms <= cfg.poll_interval_ms,
            "polled latency bounded by the cadence"
        );
        assert!(report.executed > 0);
    }
}
