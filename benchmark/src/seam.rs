//! The seam: the only file of the benchmark that names the repository's
//! crates. Everything else imports from here, so a refactor of the
//! repository that keeps these symbols source-compatible leaves the
//! benchmark untouched, and one that does not has exactly one file to
//! port (see `README.md`, "Pinned symbols").
//!
//! It holds three things: the re-exported repository types the drivers
//! use, the two pipeline shapes the workloads run, and the three timed
//! seams (`TimedLake`, `TimedExecutor`, `TimedMedium`) through which a
//! traced run sees the cost of the layers *under* the pipeline.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

pub use autocomp::{
    pump_completions, AutoComp, Candidate, CandidateStats, ChangeCursor, CompactionExecutor,
    ContinuousRuntime, ExecutionResult, JobOutcome, JobOutcomeStatus, LakeConnector, Prediction,
    RecoveryReport, RoundReport, RuntimeConfig, RuntimeEvent, SnapshotContext, TableRef,
    TelemetrySink, TrackedExecutor,
};
pub use lakesim_storage::{Journal, MemSnapshotMedium, SnapshotMedium, SnapshotStore, GB, MB};

use autocomp::{
    AlreadyCompactFilter, AutoCompConfig, CompactionDisabledFilter, ComputeCostGbhr,
    FileCountReduction, FleetObserver, IntermediateTableFilter, JobRuntimeConfig, ObserveFault,
    RankingPolicy, RecentlyCreatedFilter, ScopeStrategy, TraitWeight,
};
use autocomp_lakesim::{CommitEventBridge, LakesimConnector, LakesimExecutor};
use lakesim_engine::{MS_PER_DAY, MS_PER_HOUR};
use lakesim_workload::fleet::{Fleet, FleetConfig};

/// The runtime every workload drives: durable, over the counting medium.
pub type Runtime = ContinuousRuntime<TimedMedium>;

// ---------------------------------------------------------------------
// Clock and telemetry sink.
// ---------------------------------------------------------------------

/// Monotonic microseconds since the first call in this process — the one
/// time base shared by the sink's phase spans and the benchmark's own
/// spans, so a trace file lines up.
pub fn now_us() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Untraced: the default sink (telemetry on, null clock). Traced: the
/// same sink with an `Instant` clock, so the six phase spans carry
/// durations.
pub fn sink(traced: bool) -> TelemetrySink {
    if traced {
        TelemetrySink::with_clock(Arc::new(now_us))
    } else {
        TelemetrySink::new()
    }
}

// ---------------------------------------------------------------------
// Pipelines.
// ---------------------------------------------------------------------

fn moop(k: usize) -> RankingPolicy {
    RankingPolicy::Moop {
        weights: vec![
            TraitWeight::new("file_count_reduction", 0.7),
            TraitWeight::new("compute_cost_gbhr", 0.3),
        ],
        k,
    }
}

/// The `sustained.rs` shape: table scope, MOOP 0.7/0.3 top-`k`, job
/// tracker with a 50 000 GBHr rolling window.
pub fn synthetic_pipeline(k: usize, sink: TelemetrySink) -> AutoComp {
    AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: moop(k),
        trigger_label: "benchmark".into(),
        calibrate: false,
    })
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
    .with_job_tracker(JobRuntimeConfig {
        gbhr_budget: Some(50_000.0),
        ..JobRuntimeConfig::default()
    })
    .with_telemetry(sink)
}

/// The production shape of §4.1/§7: deployment filters, MOOP top-`k`,
/// and a job tracker admitting `k` jobs in flight.
pub fn production_pipeline(k: usize, sink: TelemetrySink) -> AutoComp {
    AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: moop(k),
        trigger_label: "benchmark".into(),
        calibrate: false,
    })
    .with_filter(Box::new(CompactionDisabledFilter))
    .with_filter(Box::new(IntermediateTableFilter))
    .with_filter(Box::new(RecentlyCreatedFilter {
        grace_ms: MS_PER_DAY,
    }))
    .with_filter(Box::new(AlreadyCompactFilter {
        min_small_files: 2,
        min_small_fraction: 0.0,
    }))
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
    .with_job_tracker(JobRuntimeConfig {
        max_in_flight: k,
        max_in_flight_per_database: k,
        ..JobRuntimeConfig::default()
    })
    .with_telemetry(sink)
}

// ---------------------------------------------------------------------
// Runtime life cycle.
// ---------------------------------------------------------------------

/// Runtime trigger thresholds: the given dirty watermark, the
/// `RuntimeConfig` defaults for the rest (snapshot every 8 rounds).
pub fn runtime_config(dirty_watermark: usize, max_staleness_ms: Option<u64>) -> RuntimeConfig {
    RuntimeConfig {
        dirty_watermark: Some(dirty_watermark),
        max_staleness_ms,
        ..RuntimeConfig::default()
    }
}

/// A durable runtime over `store` and `journal` (both empty on a first
/// start, both carried over on a restart).
pub fn start(
    pipeline: AutoComp,
    config: RuntimeConfig,
    store: SnapshotStore<TimedMedium>,
    journal: Journal,
) -> Runtime {
    ContinuousRuntime::new(pipeline, config).with_durability(store, journal)
}

/// Process death: the runtime is dropped and only the snapshot medium
/// and the journal's *bytes* survive.
pub fn kill(rt: Runtime) -> (SnapshotStore<TimedMedium>, Vec<u8>) {
    let (store, journal) = rt.into_durable_parts().expect("durability is attached");
    (store, journal.bytes().to_vec())
}

/// Jobs the runtime's ledger holds in flight.
pub fn jobs_in_flight(rt: &Runtime) -> usize {
    rt.pipeline().job_tracker().map_or(0, |t| t.in_flight())
}

/// Stats fetched by the last round's observe pass.
pub fn fetched_last_round(rt: &Runtime) -> usize {
    rt.observer().last().map_or(0, |o| o.fetched_tables())
}

/// Bytes and records of the attached journal.
pub fn journal_size(rt: &Runtime) -> (u64, u64) {
    rt.journal()
        .map_or((0, 0), |j| (j.bytes().len() as u64, j.records()))
}

// ---------------------------------------------------------------------
// Probes: public functions called directly, for what has no span.
// ---------------------------------------------------------------------

/// Wall milliseconds of one direct `encode_snapshot` of the runtime's
/// current state, and the frame's size.
pub fn probe_encode(rt: &Runtime) -> Option<(f64, usize)> {
    let t = Instant::now();
    let frame = rt
        .pipeline()
        .encode_snapshot(rt.observer(), &SnapshotContext::default())?;
    Some((ms_since(t), frame.len()))
}

/// What a restart's read side costs, measured on a scratch pipeline so
/// the real recovery is not disturbed: `(restore_ms, replay_ms,
/// replayed_records)` for the newest snapshot in `store` and the suffix
/// of `journal` past its watermark.
pub fn probe_recovery(
    mut scratch: AutoComp,
    store: &SnapshotStore<TimedMedium>,
    journal: &Journal,
) -> Option<(f64, f64, u64)> {
    let (_, bytes) = store.load()?;
    let mut observer = FleetObserver::new();
    let t = Instant::now();
    let report = scratch.restore_snapshot(&mut observer, &bytes);
    let restore_ms = ms_since(t);
    let RecoveryReport::Warm {
        journal_watermark, ..
    } = report
    else {
        return None;
    };
    let t = Instant::now();
    scratch.replay_journal(journal, journal_watermark);
    let replay_ms = ms_since(t);
    Some((
        restore_ms,
        replay_ms,
        journal.records().saturating_sub(journal_watermark),
    ))
}

/// Nanoseconds per record of appending `journal`'s records to a fresh
/// `Journal` — the append cost with nothing else in the way.
pub fn probe_journal_append(journal: &Journal) -> f64 {
    let records: Vec<&[u8]> = journal.iter_from(0).collect();
    if records.is_empty() {
        return 0.0;
    }
    let mut fresh = Journal::new();
    let t = Instant::now();
    for record in &records {
        fresh.append(record);
    }
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(fresh.records());
    ns / records.len() as f64
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------
// Timed seams.
// ---------------------------------------------------------------------

/// Call counts and busy time of the layers under the pipeline. The
/// medium's byte and write counts are kept on every run (the end-to-end
/// write-amplification metric needs them); everything that reads a clock
/// is filled on traced runs only.
#[derive(Debug, Default)]
pub struct SeamStats {
    pub stats_calls: Cell<u64>,
    pub stats_ns: Cell<u64>,
    pub list_calls: Cell<u64>,
    pub changes_calls: Cell<u64>,
    pub execute_calls: Cell<u64>,
    pub execute_ns: Cell<u64>,
    pub poll_calls: Cell<u64>,
    pub poll_ns: Cell<u64>,
    pub snapshot_writes: Cell<u64>,
    pub snapshot_bytes: Cell<u64>,
    /// `(start_us, end_us)` of every slot write / read, traced runs only.
    pub medium_writes: RefCell<Vec<(u64, u64)>>,
    pub medium_reads: RefCell<Vec<(u64, u64)>>,
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

fn timed<T>(calls: &Cell<u64>, ns: &Cell<u64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    bump(ns, t.elapsed().as_nanos() as u64);
    bump(calls, 1);
    out
}

/// Counts and times the connector reads the observe drivers make (the
/// fallible `try_*` surface; the infallible twins pass through).
pub struct TimedLake<L> {
    inner: L,
    stats: Rc<SeamStats>,
}

impl<L> TimedLake<L> {
    pub fn new(inner: L, stats: Rc<SeamStats>) -> Self {
        TimedLake { inner, stats }
    }
}

impl<L: LakeConnector> LakeConnector for TimedLake<L> {
    fn list_tables(&self) -> Vec<TableRef> {
        self.inner.list_tables()
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        self.inner.table_stats(uid)
    }
    fn partition_stats(&self, uid: u64) -> Vec<(String, CandidateStats)> {
        self.inner.partition_stats(uid)
    }
    fn snapshot_stats(&self, uid: u64, window_ms: u64) -> Option<CandidateStats> {
        self.inner.snapshot_stats(uid, window_ms)
    }
    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        self.inner.fleet_cursor()
    }
    fn listing_epoch(&self) -> Option<u64> {
        self.inner.listing_epoch()
    }
    fn changes_since(&self, cursor: ChangeCursor) -> Option<Vec<u64>> {
        self.inner.changes_since(cursor)
    }
    fn try_list_tables(&self) -> Result<Vec<TableRef>, ObserveFault> {
        bump(&self.stats.list_calls, 1);
        self.inner.try_list_tables()
    }
    fn try_table_stats(&self, uid: u64) -> Result<Option<CandidateStats>, ObserveFault> {
        let s = &self.stats;
        timed(&s.stats_calls, &s.stats_ns, || {
            self.inner.try_table_stats(uid)
        })
    }
    fn try_partition_stats(&self, uid: u64) -> Result<Vec<(String, CandidateStats)>, ObserveFault> {
        let s = &self.stats;
        timed(&s.stats_calls, &s.stats_ns, || {
            self.inner.try_partition_stats(uid)
        })
    }
    fn try_snapshot_stats(
        &self,
        uid: u64,
        window_ms: u64,
    ) -> Result<Option<CandidateStats>, ObserveFault> {
        let s = &self.stats;
        timed(&s.stats_calls, &s.stats_ns, || {
            self.inner.try_snapshot_stats(uid, window_ms)
        })
    }
    fn try_changes_since(&self, cursor: ChangeCursor) -> Result<Option<Vec<u64>>, ObserveFault> {
        bump(&self.stats.changes_calls, 1);
        self.inner.try_changes_since(cursor)
    }
}

/// Counts and times submissions and polls.
pub struct TimedExecutor<E> {
    inner: E,
    stats: Rc<SeamStats>,
}

impl<E> TimedExecutor<E> {
    pub fn new(inner: E, stats: Rc<SeamStats>) -> Self {
        TimedExecutor { inner, stats }
    }
}

impl<E: CompactionExecutor> CompactionExecutor for TimedExecutor<E> {
    fn execute(&mut self, c: &Candidate, p: &Prediction, now_ms: u64) -> ExecutionResult {
        let s = &self.stats;
        timed(&s.execute_calls, &s.execute_ns, || {
            self.inner.execute(c, p, now_ms)
        })
    }
}

impl<E: TrackedExecutor> TrackedExecutor for TimedExecutor<E> {
    fn poll(&mut self, now_ms: u64) -> Vec<JobOutcome> {
        let s = &self.stats;
        timed(&s.poll_calls, &s.poll_ns, || self.inner.poll(now_ms))
    }
    fn delivery_cursor(&self) -> u64 {
        self.inner.delivery_cursor()
    }
}

/// The in-memory snapshot medium, counting bytes written on every run
/// and timing slot reads and writes on traced ones.
pub struct TimedMedium {
    inner: MemSnapshotMedium,
    stats: Rc<SeamStats>,
    traced: bool,
}

impl TimedMedium {
    pub fn store(stats: Rc<SeamStats>, traced: bool) -> SnapshotStore<TimedMedium> {
        SnapshotStore::new(TimedMedium {
            inner: MemSnapshotMedium::new(),
            stats,
            traced,
        })
    }
}

impl SnapshotMedium for TimedMedium {
    fn read_slot(&self, slot: usize) -> Option<Vec<u8>> {
        if !self.traced {
            return self.inner.read_slot(slot);
        }
        let start = now_us();
        let out = self.inner.read_slot(slot);
        self.stats.medium_reads.borrow_mut().push((start, now_us()));
        out
    }
    fn write_slot(&mut self, slot: usize, bytes: &[u8]) -> std::io::Result<()> {
        bump(&self.stats.snapshot_writes, 1);
        bump(&self.stats.snapshot_bytes, bytes.len() as u64);
        if !self.traced {
            return self.inner.write_slot(slot, bytes);
        }
        let start = now_us();
        let out = self.inner.write_slot(slot, bytes);
        self.stats
            .medium_writes
            .borrow_mut()
            .push((start, now_us()));
        out
    }
}

// ---------------------------------------------------------------------
// The real simulated lake.
// ---------------------------------------------------------------------

/// The full lakesim stack behind `lake_fleet`: the fleet synthesizer,
/// its commit-event bridge, and the cursors the quality metrics need.
pub struct LakeFleet {
    fleet: Fleet,
    bridge: CommitEventBridge,
    /// Maintenance-log length at build time: quality counts only jobs
    /// the benchmark's rounds submitted.
    log_base: usize,
}

impl LakeFleet {
    /// Builds `databases × tables_per_db` tables with three warm-up days
    /// of writes.
    pub fn build(seed: u64, databases: usize, tables_per_db: usize) -> Self {
        let fleet = Fleet::build(&FleetConfig {
            databases,
            tables_per_db,
            seed,
            ..FleetConfig::default()
        });
        let bridge = CommitEventBridge::new(&fleet.env);
        let log_base = fleet.env.borrow().maintenance.records().len();
        LakeFleet {
            fleet,
            bridge,
            log_base,
        }
    }

    pub fn connector(&self) -> LakesimConnector {
        LakesimConnector::new(self.fleet.env.clone())
    }

    pub fn executor(&self) -> LakesimExecutor {
        LakesimExecutor::new(self.fleet.env.clone())
    }

    /// Simulated time at the start of the current day.
    pub fn now_ms(&self) -> u64 {
        self.fleet.now_ms()
    }

    /// One day of fleet writes (`engine` + `lst` + `storage::fs`).
    pub fn advance_day(&mut self) {
        self.fleet.advance_day();
    }

    /// The day's commits as runtime events (`connector`).
    pub fn drain_bridge(&mut self) -> Vec<RuntimeEvent> {
        let now = self.fleet.now_ms();
        self.bridge.drain(&self.fleet.env, now)
    }

    /// Lets submitted rewrites run: the engine applies every commit due
    /// within the four-hour maintenance window.
    pub fn settle_window(&mut self) {
        let until = self.fleet.now_ms() + 4 * MS_PER_HOUR;
        self.fleet.env.borrow_mut().drain_due(until);
    }

    /// `(files reduced, GBHr spent)` over the maintenance log since build.
    pub fn maintenance_totals(&self) -> (i64, f64) {
        let env = self.fleet.env.borrow();
        env.maintenance
            .records_from(self.log_base)
            .iter()
            .fold((0, 0.0), |(files, gbhr), r| {
                (files + r.actual_reduction, gbhr + r.actual_gbhr)
            })
    }

    /// Fraction of data files under 128 MB (§7's headline metric).
    pub fn small_file_fraction(&self) -> f64 {
        self.fleet.small_file_fraction()
    }
}
