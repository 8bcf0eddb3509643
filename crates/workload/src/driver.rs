//! The experiment stream driver.
//!
//! Runs a time-ordered list of scheduled operations against a [`SimEnv`],
//! draining due commits before every event and invoking a periodic
//! callback at fixed tick boundaries. The bench layer plugs AutoComp's
//! periodic trigger into that callback ("Compaction execution is
//! triggered every hour of the experiment", §6).
//!
//! Tick callbacks that drive a *tracked* AutoComp pipeline (the PR-4
//! job runtime) can surface its per-cycle [`JobLedgerSummary`] — plus
//! the rolling GBHr budget-window usage — into the run's periodic
//! report: use [`run_stream_reported`] and return a [`LedgerTick`] per
//! tick (see [`sample_ledger`]); the resulting [`StreamStats`] then
//! carries the tick series and [`StreamStats::ledger_totals`] aggregates
//! it.

use autocomp::{CycleCacheStats, JobLedgerSummary, RankCycleStats};
use lakesim_engine::{EngineError, ReadSpec, SimEnv, WriteSpec};

/// One operation to execute.
#[derive(Debug, Clone)]
pub enum OpSpec {
    /// Read query.
    Read(ReadSpec),
    /// Write query.
    Write(WriteSpec),
}

/// An operation scheduled at an absolute simulation time.
#[derive(Debug, Clone)]
pub struct ScheduledOp {
    /// Arrival time.
    pub at_ms: u64,
    /// The operation.
    pub op: OpSpec,
}

/// One periodic job-runtime sample, as returned by a tick callback
/// driving a tracked AutoComp pipeline.
#[derive(Debug, Clone, Default)]
pub struct LedgerTick {
    /// Tick timestamp.
    pub at_ms: u64,
    /// The cycle's ledger activity (running/settled/retried/deferred
    /// counts — see [`JobLedgerSummary`]).
    pub summary: JobLedgerSummary,
    /// Predicted GBHr currently charged against the rolling admission
    /// budget window (0.0 when no budget is configured).
    pub gbhr_window_used: f64,
    /// The configured GBHr budget, if any, for pressure reporting.
    pub gbhr_budget: Option<f64>,
    /// Cycle-cache splice effectiveness of the tick's cycle (how many
    /// retained trait rows were reused vs recomputed).
    pub cache: CycleCacheStats,
    /// Rank-memo splice effectiveness of the tick's cycle.
    pub memo: RankCycleStats,
}

/// Builds a [`LedgerTick`] from a tracked cycle's report and the
/// pipeline that produced it.
pub fn sample_ledger(
    at_ms: u64,
    report: &autocomp::CycleReport,
    pipeline: &autocomp::AutoComp,
) -> LedgerTick {
    LedgerTick {
        at_ms,
        summary: report.ledger,
        gbhr_window_used: pipeline
            .job_tracker()
            .map(|t| t.gbhr_window_usage())
            .unwrap_or(0.0),
        gbhr_budget: pipeline.job_tracker().and_then(|t| t.config().gbhr_budget),
        cache: pipeline.cycle_cache_stats(),
        memo: pipeline.rank_memo_stats(),
    }
}

/// Aggregates of a run's [`LedgerTick`] series.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LedgerTotals {
    /// Outcomes settled across the run.
    pub settled: usize,
    /// Retry submissions executed across the run.
    pub retries_submitted: usize,
    /// Admission deferrals across the run.
    pub deferred: usize,
    /// In-flight suppressions across the run.
    pub suppressed: usize,
    /// Peak concurrent jobs observed at a tick boundary.
    pub max_in_flight: usize,
    /// Peak GBHr budget-window usage observed at a tick boundary.
    pub peak_gbhr_window: f64,
}

/// Outcome summary of a stream run.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Operations submitted.
    pub ops_run: usize,
    /// Read queries that failed (storage errors).
    pub read_failures: u64,
    /// Write queries that failed to submit (quota etc.).
    pub write_failures: u64,
    /// Latest completion time across all operations and commits — the
    /// experiment's end-to-end makespan (§6.2 compares these).
    pub makespan_ms: u64,
    /// First few error strings, for diagnostics.
    pub errors: Vec<String>,
    /// Periodic job-runtime samples, one per tick whose callback
    /// returned one (empty for untracked runs / [`run_stream`]).
    pub ledger_ticks: Vec<LedgerTick>,
}

impl StreamStats {
    /// Aggregates the run's ledger ticks; `None` when no tick reported
    /// one (untracked runs).
    pub fn ledger_totals(&self) -> Option<LedgerTotals> {
        if self.ledger_ticks.is_empty() {
            return None;
        }
        let mut totals = LedgerTotals::default();
        for tick in &self.ledger_ticks {
            totals.settled += tick.summary.settled;
            totals.retries_submitted += tick.summary.retries_submitted;
            totals.deferred += tick.summary.deferred;
            totals.suppressed += tick.summary.suppressed;
            totals.max_in_flight = totals.max_in_flight.max(tick.summary.in_flight);
            totals.peak_gbhr_window = totals.peak_gbhr_window.max(tick.gbhr_window_used);
        }
        Some(totals)
    }
}

/// Runs `ops` (must be sorted by `at_ms`) to completion.
///
/// * Before each op and each tick, due commits are drained so every
///   observer sees a consistent table state.
/// * `on_tick(env, tick_time)` fires at each multiple of `tick_ms` within
///   `[first_op_or_0, end_ms]`.
/// * After the last op, remaining ticks up to `end_ms` still fire, then
///   all pending commits are drained.
pub fn run_stream(
    env: &mut SimEnv,
    ops: &[ScheduledOp],
    tick_ms: u64,
    end_ms: u64,
    mut on_tick: impl FnMut(&mut SimEnv, u64),
) -> StreamStats {
    run_stream_reported(env, ops, tick_ms, end_ms, |env, tick| {
        on_tick(env, tick);
        None
    })
}

/// [`run_stream`] whose tick callback can additionally report a
/// [`LedgerTick`] (job-runtime state of the AutoComp cycle the tick
/// ran); reported ticks are collected into
/// [`StreamStats::ledger_ticks`].
pub fn run_stream_reported(
    env: &mut SimEnv,
    ops: &[ScheduledOp],
    tick_ms: u64,
    end_ms: u64,
    mut on_tick: impl FnMut(&mut SimEnv, u64) -> Option<LedgerTick>,
) -> StreamStats {
    debug_assert!(
        ops.windows(2).all(|w| w[0].at_ms <= w[1].at_ms),
        "ops must be sorted by time"
    );
    let tick_ms = tick_ms.max(1);
    let mut stats = StreamStats::default();
    let mut next_tick = tick_ms;
    for op in ops {
        while next_tick <= op.at_ms && next_tick <= end_ms {
            for event in env.drain_due(next_tick) {
                stats.makespan_ms = stats.makespan_ms.max(event.at_ms);
            }
            stats.ledger_ticks.extend(on_tick(env, next_tick));
            next_tick += tick_ms;
        }
        for event in env.drain_due(op.at_ms) {
            stats.makespan_ms = stats.makespan_ms.max(event.at_ms);
        }
        stats.ops_run += 1;
        match &op.op {
            OpSpec::Read(spec) => match env.submit_read(spec, op.at_ms) {
                Ok(result) => {
                    stats.makespan_ms = stats.makespan_ms.max(result.finished_ms);
                }
                Err(e) => {
                    stats.read_failures += 1;
                    push_error(&mut stats, e);
                }
            },
            OpSpec::Write(spec) => match env.submit_write(spec, op.at_ms) {
                Ok(result) => {
                    stats.makespan_ms = stats.makespan_ms.max(result.finished_ms);
                }
                Err(e) => {
                    stats.write_failures += 1;
                    push_error(&mut stats, e);
                }
            },
        }
    }
    while next_tick <= end_ms {
        for event in env.drain_due(next_tick) {
            stats.makespan_ms = stats.makespan_ms.max(event.at_ms);
        }
        stats.ledger_ticks.extend(on_tick(env, next_tick));
        next_tick += tick_ms;
    }
    for event in env.drain_all() {
        stats.makespan_ms = stats.makespan_ms.max(event.at_ms);
    }
    stats
}

fn push_error(stats: &mut StreamStats, e: EngineError) {
    if stats.errors.len() < 16 {
        stats.errors.push(e.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lakesim_catalog::TablePolicy;
    use lakesim_engine::{EnvConfig, FileSizePlan, MS_PER_HOUR};
    use lakesim_lst::{
        ColumnType, Field, PartitionFilter, PartitionKey, PartitionSpec, Schema, TableId,
        TableProperties,
    };
    use lakesim_storage::MB;

    fn setup() -> (SimEnv, TableId) {
        let mut env = SimEnv::new(EnvConfig {
            seed: 10,
            ..EnvConfig::default()
        });
        env.create_database("db", "tenant", None).unwrap();
        let schema = Schema::new(vec![Field::new(1, "k", ColumnType::Int64, true)]).unwrap();
        let t = env
            .create_table(
                "db",
                "t",
                schema,
                PartitionSpec::unpartitioned(),
                TableProperties::default(),
                TablePolicy::default(),
            )
            .unwrap();
        (env, t)
    }

    #[test]
    fn runs_ops_and_ticks_in_order() {
        let (mut env, t) = setup();
        let ops = vec![
            ScheduledOp {
                at_ms: 10_000,
                op: OpSpec::Write(WriteSpec::insert(
                    t,
                    PartitionKey::unpartitioned(),
                    32 * MB,
                    FileSizePlan::trickle(),
                    "query",
                )),
            },
            ScheduledOp {
                at_ms: 30 * 60_000,
                op: OpSpec::Read(ReadSpec {
                    table: t,
                    filter: PartitionFilter::All,
                    cluster: "query".into(),
                    parallelism: 4,
                }),
            },
        ];
        let mut ticks = Vec::new();
        let stats = run_stream(&mut env, &ops, MS_PER_HOUR, 2 * MS_PER_HOUR, |_, tick| {
            ticks.push(tick);
        });
        assert_eq!(stats.ops_run, 2);
        assert_eq!(stats.read_failures + stats.write_failures, 0);
        assert_eq!(ticks, vec![MS_PER_HOUR, 2 * MS_PER_HOUR]);
        assert!(stats.makespan_ms > 10_000);
        assert_eq!(env.pending_len(), 0, "all commits drained");
        // The read (after the write's drain point) saw the written files.
        let read_sample = env
            .metrics
            .latencies
            .iter()
            .find(|s| s.class == lakesim_engine::QueryClass::ReadOnly)
            .unwrap();
        assert!(read_sample.latency_ms > 0.0);
    }

    #[test]
    fn failures_are_counted_not_fatal() {
        let (mut env, _) = setup();
        let ghost = TableId(99);
        let ops = vec![ScheduledOp {
            at_ms: 100,
            op: OpSpec::Read(ReadSpec {
                table: ghost,
                filter: PartitionFilter::All,
                cluster: "query".into(),
                parallelism: 1,
            }),
        }];
        let stats = run_stream(&mut env, &ops, 1000, 2000, |_, _| {});
        assert_eq!(stats.read_failures, 1);
        assert_eq!(stats.errors.len(), 1);
    }

    /// Smoke: a tracked AutoComp pipeline driven from the tick callback
    /// surfaces its job-runtime state — in-flight/settled counts and
    /// budget-window usage — into the run's periodic report.
    #[test]
    fn ledger_ticks_surface_job_runtime_state() {
        use autocomp::{
            AutoComp, AutoCompConfig, Candidate, CandidateStats, ChangeCursor, CompactionExecutor,
            ComputeCostGbhr, CycleInput, ExecutionResult, Executor, FileCountReduction,
            FleetObserver, JobOutcome, JobOutcomeStatus, JobRuntimeConfig, LakeConnector,
            Prediction, RankingPolicy, ScopeStrategy, TableRef, TrackedExecutor, TraitWeight,
        };

        /// Fragmented two-table lake (quiet changelog).
        struct TinyLake;
        impl LakeConnector for TinyLake {
            fn list_tables(&self) -> Vec<TableRef> {
                (0..2)
                    .map(|i| TableRef {
                        table_uid: i,
                        database: "db".into(),
                        name: format!("t{i}").into(),
                        partitioned: false,
                        compaction_enabled: true,
                        is_intermediate: false,
                    })
                    .collect()
            }
            fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
                (uid < 2).then(|| CandidateStats {
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
                Some(ChangeCursor(0))
            }
            fn changes_since(&self, _cursor: ChangeCursor) -> Option<Vec<u64>> {
                Some(Vec::new())
            }
            fn listing_epoch(&self) -> Option<u64> {
                Some(0)
            }
        }

        /// Jobs settle one tick after submission.
        struct TickPlatform {
            next_job: u64,
            running: Vec<(u64, u64, u64)>,
        }
        impl CompactionExecutor for TickPlatform {
            fn execute(&mut self, c: &Candidate, p: &Prediction, now: u64) -> ExecutionResult {
                self.next_job += 1;
                self.running
                    .push((self.next_job, c.id.table_uid, now + 60_000));
                ExecutionResult {
                    scheduled: true,
                    job_id: Some(self.next_job),
                    gbhr: p.gbhr,
                    commit_due_ms: Some(now + 60_000),
                    error: None,
                }
            }
        }
        impl TrackedExecutor for TickPlatform {
            fn poll(&mut self, now: u64) -> Vec<JobOutcome> {
                let (due, rest): (Vec<_>, Vec<_>) =
                    self.running.drain(..).partition(|(_, _, d)| *d <= now);
                self.running = rest;
                due.into_iter()
                    .map(|(job_id, uid, at)| JobOutcome {
                        job_id,
                        table_uid: uid,
                        status: JobOutcomeStatus::Succeeded,
                        finished_at_ms: at,
                        actual_reduction: 50,
                        actual_gbhr: 1.0,
                    })
                    .collect()
            }
        }

        let (mut env, _) = setup();
        let lake = TinyLake;
        let mut ac = AutoComp::new(AutoCompConfig {
            scope: ScopeStrategy::Table,
            policy: RankingPolicy::Moop {
                weights: vec![
                    TraitWeight::new("file_count_reduction", 0.7),
                    TraitWeight::new("compute_cost_gbhr", 0.3),
                ],
                k: 2,
            },
            trigger_label: "periodic".into(),
            calibrate: false,
        })
        .with_trait(Box::new(FileCountReduction::default()))
        .with_trait(Box::new(ComputeCostGbhr::default()))
        .with_job_tracker(JobRuntimeConfig {
            gbhr_budget: Some(1_000.0),
            ..JobRuntimeConfig::default()
        });
        let mut platform = TickPlatform {
            next_job: 0,
            running: Vec::new(),
        };
        let mut observer = FleetObserver::new();

        let stats = run_stream_reported(&mut env, &[], 60_000, 240_000, |_, tick| {
            let report = ac
                .cycle(CycleInput {
                    connector: &lake,
                    observer: Some(&mut observer),
                    executor: Executor::Tracked(&mut platform),
                    now_ms: tick,
                })
                .unwrap();
            Some(sample_ledger(tick, &report, &ac))
        });

        assert_eq!(stats.ledger_ticks.len(), 4, "one sample per tick");
        let totals = stats.ledger_totals().expect("tracked run reports totals");
        assert!(totals.max_in_flight > 0, "jobs were in flight at a tick");
        assert!(totals.settled > 0, "settles surfaced in the report");
        assert!(
            totals.peak_gbhr_window > 0.0,
            "budget-window usage surfaced"
        );
        assert!(stats
            .ledger_ticks
            .iter()
            .all(|t| t.gbhr_budget == Some(1_000.0)));
        // Splice effectiveness is observable per tick: every cycle's two
        // tables show up as either spliced or recomputed (settles dirty
        // their tables, so steady state here recomputes rather than
        // splices — the split itself is the observable signal).
        let last = stats.ledger_ticks.last().unwrap();
        assert_eq!(
            last.cache.spliced_tables + last.cache.recomputed_tables,
            2,
            "{:?}",
            last.cache
        );
        // Untracked runs report no ledger.
        let quiet = run_stream(&mut env, &[], 60_000, 120_000, |_, _| {});
        assert!(quiet.ledger_totals().is_none());
    }

    #[test]
    fn tick_callback_can_mutate_env() {
        let (mut env, t) = setup();
        // Write during a tick: proves the callback gets full env access
        // (this is where AutoComp cycles run in the bench layer).
        let stats = run_stream(&mut env, &[], 60_000, 120_000, |env, tick| {
            let spec = WriteSpec::insert(
                t,
                PartitionKey::unpartitioned(),
                8 * MB,
                FileSizePlan::trickle(),
                "query",
            );
            env.submit_write(&spec, tick).unwrap();
        });
        assert_eq!(stats.ops_run, 0);
        assert!(env.catalog.table(t).unwrap().table.file_count() > 0);
    }
}
