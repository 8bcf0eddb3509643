//! The event-driven continuous runtime: a deterministic, simulated-clock
//! event loop over the OODA pipeline.
//!
//! A polled driver of [`AutoComp::cycle`] models §5's periodic mode: it
//! calls the pipeline at a fixed cadence, dirtiness arrives via
//! changelog pull at cycle start, and completions via
//! [`TrackedExecutor::poll`] at cycle boundaries. Production AutoComp is
//! instead a long-lived service *reacting* to table commits. This module
//! is that shape: [`ContinuousRuntime`] consumes an interleaved stream of
//! [`RuntimeEvent`]s — table commits, job completions (push-style via
//! [`CompletionSink`], or pumped from a poll-only executor with
//! [`pump_completions`](crate::act::pump_completions)), timers and
//! explicit flushes — accumulates a
//! dirty set, and fires **decision rounds** when a configured trigger
//! trips. Each round is one [`AutoComp::cycle`] with the runtime's
//! observer and a tracked executor, so the retained decide state and the
//! act-phase job ledger behave exactly as under the polled driver.
//!
//! # Trigger contract
//!
//! Triggers are evaluated **only when an event arrives** (the loop is
//! deterministic on the simulated clock: no spontaneous wakeups — feed
//! [`RuntimeEvent::Timer`]s at whatever heartbeat cadence the deployment
//! wants). After applying an event at time `t`, a round fires at `t`
//! when the first of these trips, checked in this order:
//!
//! 1. **Explicit flush** ([`RuntimeEvent::Flush`]) — always fires, even
//!    on an empty dirty set (the covering round for changelog-floor
//!    staleness, shutdown, or an operator request). Flush is the only
//!    trigger that bypasses the `min_round_interval_ms` gate.
//! 2. **Dirty-count watermark** ([`RuntimeConfig::dirty_watermark`]) —
//!    the accumulated distinct-dirty-table count reached the watermark.
//! 3. **Max-staleness deadline** ([`RuntimeConfig::max_staleness_ms`]) —
//!    the *oldest* pending commit event has waited at least this long
//!    for a covering round (bounds decision latency on quiet fleets).
//! 4. **GBHr admission headroom** ([`RuntimeConfig::gbhr_headroom`]) —
//!    the tracker's rolling budget window has at least this much
//!    headroom free *and* dirty work is pending: compact opportunistically
//!    while admission would accept the submissions. Requires a job
//!    tracker with a configured
//!    [`gbhr_budget`](crate::act::JobRuntimeConfig::gbhr_budget); the
//!    usage read is as of the last admission check (the window prunes on
//!    admission, deterministically), which makes the trigger
//!    conservative, never flappy.
//!
//! # Backpressure contract
//!
//! When event arrival outpaces rounds the loop degrades by *batching*,
//! never by dropping: commit events accumulate in the observer's
//! pending-dirty set (and in the pending-latency queue), and each round's
//! observe consumes everything accumulated. That set is the only one:
//! a commit event marks the [`FleetObserver`] directly — one bit in a
//! set keyed on the retained observation's uid index, so ingest is O(1)
//! per event — and the backlog, the watermark / headroom triggers and
//! [`RoundReport::dirty_consumed`] read its distinct-uid count. This is
//! exact because nothing else marks the observer between rounds —
//! settled tables are marked and consumed inside [`AutoComp::cycle`] —
//! and a boundary snapshot is only ever taken right after a cycle, when
//! the set is empty, so no snapshot carries commit marks and a restore
//! starts with an empty backlog. Two signals surface the pressure in
//! [`RuntimeStats`]:
//! [`deferred_rounds`](RuntimeStats::deferred_rounds) counts events where
//! a trigger was due but the `min_round_interval_ms` gate held the round
//! back, and [`max_dirty_backlog`](RuntimeStats::max_dirty_backlog) /
//! [`max_watermark_overshoot`](RuntimeStats::max_watermark_overshoot)
//! record how far the dirty set grew past the watermark before a round
//! covered it. Per-commit decision latency (commit event → covering
//! round, on the simulated clock) is reported per round in
//! [`RoundReport::commit_latencies_ms`].
//!
//! # Fleet health
//!
//! Every round re-classifies the fleet into a [`FleetHealth`] state from
//! the round's observe-side degradation record ([`ObserveDegradation`]):
//! `Healthy` when the observe pass ran clean, `Degraded{reasons}` when
//! the pass absorbed faults but produced a usable observation (retried
//! reads, carried-forward entries, quarantined tables, retirements, a
//! full-observe fallback), and `Stalled` when the pass could not produce
//! a usable listing at all or the carried listing has been stale for
//! [`STALL_AFTER_STALE_LISTINGS`] consecutive passes. The state rides on
//! [`RoundReport::health`] and [`ContinuousRuntime::health`], is exported
//! as the `autocomp_runtime_health_state` gauge plus
//! `autocomp_runtime_degraded_rounds_total{cause=...}` counters — the
//! signal a readiness probe would read.
//!
//! # Event-vs-poll completion semantics
//!
//! A completion *event* ([`CompletionSink::on_completion`]) is buffered
//! and consumed by the next round **before** the round's own executor
//! poll: the round's settle pass processes `buffered ++ poll(now)`, in
//! arrival order. A platform whose outcomes are pumped into the sink at
//! event time therefore settles bit-identically to one polled at round
//! time — pumped outcomes are exactly the poll-delivery prefix due at
//! the pump time, so the concatenation equals the single poll batch an
//! equivalently-scheduled polled cycle would have seen (pinned by the
//! runtime parity suite). Completion events are journaled at delivery
//! time (when durability is attached) and **not** re-journaled by the
//! round.
//!
//! # Durable commit boundary
//!
//! With [`with_durability`](ContinuousRuntime::with_durability) attached,
//! the runtime owns the PR-6 crash-recovery write discipline end-to-end:
//! every submission and settlement is journaled through
//! [`JournalingExecutor`] as the round runs, every round appends a
//! [`JournalEvent::CycleCommit`] marker, and every
//! [`snapshot_every_rounds`](RuntimeConfig::snapshot_every_rounds)-th
//! round (plus [`shutdown`](ContinuousRuntime::shutdown)) saves a
//! boundary snapshot through the dual-slot
//! [`SnapshotStore`]: a base, or a delta over the last base when the fold
//! rule of [`crate::durability`] allows one. The runtime keeps the base's
//! identity and, updated after every round, the listing positions that
//! changed since it; the first boundary after a restore saves a base.
//! After a crash,
//! [`recover`](ContinuousRuntime::recover) restores the newest valid
//! snapshot generation and direct-replays the journal suffix (re-adopting
//! in-flight jobs, re-applying settlements idempotently); platforms with
//! a rewindable outcome stream can additionally seek to the reported
//! [`executor_cursor`](crate::durability::SnapshotContext::executor_cursor)
//! so unjournaled outcomes re-deliver.

use std::collections::VecDeque;
use std::fmt;

use lakesim_storage::{Journal, MemSnapshotMedium, SnapshotMedium, SnapshotStore};

use crate::act::{CompletionSink, Executor, JobOutcome, TrackedExecutor};
use crate::connector::{CompactionExecutor, ExecutionResult, LakeConnector, Prediction};
use crate::decide::CycleCacheStats;
use crate::durability::{
    JournalEvent, JournalingExecutor, RecoveryReport, SinceBase, SnapshotContext,
};
use crate::observe::{DegradeReason, FleetObserver, ObserveDegradation};
use crate::pipeline::{AutoComp, CycleInput, CycleReport};
use crate::rank::RankCycleStats;
use crate::telemetry::names as tnames;
use crate::Result;

/// One event consumed by the continuous runtime. Events must be fed in
/// non-decreasing `at_ms` order (the simulated clock never runs
/// backwards); [`ContinuousRuntime`] clamps a lagging timestamp up to
/// the loop's high-water mark rather than letting time regress.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeEvent {
    /// A table commit landed: mark the table dirty and start its
    /// decision-latency clock.
    Commit {
        /// Commit time.
        at_ms: u64,
        /// The written table.
        table_uid: u64,
    },
    /// A compaction job settled on the platform (push-style delivery;
    /// equivalent to [`CompletionSink::on_completion`]).
    Completion {
        /// Delivery time.
        at_ms: u64,
        /// The settled outcome.
        outcome: JobOutcome,
    },
    /// A heartbeat: re-evaluates the triggers (deadline and headroom
    /// triggers can only fire when *some* event arrives).
    Timer {
        /// Tick time.
        at_ms: u64,
    },
    /// Explicit flush: fire a round now regardless of watermarks or the
    /// round-interval gate.
    Flush {
        /// Flush time.
        at_ms: u64,
    },
}

impl RuntimeEvent {
    /// The event's timestamp.
    pub fn at_ms(&self) -> u64 {
        match self {
            RuntimeEvent::Commit { at_ms, .. }
            | RuntimeEvent::Completion { at_ms, .. }
            | RuntimeEvent::Timer { at_ms }
            | RuntimeEvent::Flush { at_ms } => *at_ms,
        }
    }
}

/// Which trigger fired a decision round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerCause {
    /// The distinct-dirty-table count reached
    /// [`RuntimeConfig::dirty_watermark`].
    DirtyWatermark,
    /// The oldest pending commit waited
    /// [`RuntimeConfig::max_staleness_ms`] without a covering round.
    StalenessDeadline,
    /// The GBHr budget window had at least
    /// [`RuntimeConfig::gbhr_headroom`] free while dirty work was
    /// pending.
    GbhrHeadroom,
    /// An explicit [`RuntimeEvent::Flush`] (or
    /// [`ContinuousRuntime::shutdown`]).
    Flush,
}

impl TriggerCause {
    /// Interned label, used both for `Display` and as the telemetry
    /// `{cause=...}` label value.
    pub fn label(&self) -> &'static str {
        match self {
            TriggerCause::DirtyWatermark => "dirty-watermark",
            TriggerCause::StalenessDeadline => "staleness-deadline",
            TriggerCause::GbhrHeadroom => "gbhr-headroom",
            TriggerCause::Flush => "flush",
        }
    }
}

impl fmt::Display for TriggerCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Consecutive stale-listing passes after which a degraded fleet is
/// classified [`FleetHealth::Stalled`]: the carried listing is too old
/// to keep trusting for placement decisions.
pub const STALL_AFTER_STALE_LISTINGS: u32 = 3;

/// Fleet health as classified from the most recent round's observe-side
/// degradation record — the runtime-owned state machine a readiness
/// probe would read.
///
/// Transitions are memoryless re-classifications per round; the
/// degradation record itself carries the cross-pass state (quarantine
/// ages, listing staleness), so the machine needs no history of its own:
///
/// * `Healthy` — the observe pass ran entirely clean.
/// * `Degraded` — the pass absorbed faults but produced a usable
///   observation: retried reads, carried-forward entries, quarantined
///   tables, retirements, or a full-observe fallback. `reasons` lists
///   every active cause in a fixed deterministic order.
/// * `Stalled` — the pass could not produce a usable listing (a listing
///   fault with no prior to carry), or the carried listing has been
///   stale for [`STALL_AFTER_STALE_LISTINGS`] consecutive passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetHealth {
    /// Clean observe pass; decisions run on fresh data.
    Healthy,
    /// Faults were absorbed; the observation is usable but partly stale.
    Degraded {
        /// Active degradation causes, deterministically ordered.
        reasons: Vec<DegradeReason>,
    },
    /// No usable listing — decisions would run blind or on data too old
    /// to trust.
    Stalled,
}

impl FleetHealth {
    /// Interned label: `"healthy"` / `"degraded"` / `"stalled"`.
    pub fn label(&self) -> &'static str {
        match self {
            FleetHealth::Healthy => "healthy",
            FleetHealth::Degraded { .. } => "degraded",
            FleetHealth::Stalled => "stalled",
        }
    }

    /// Value of the `autocomp_runtime_health_state` gauge: `0` healthy,
    /// `1` degraded, `2` stalled.
    pub fn gauge_value(&self) -> f64 {
        match self {
            FleetHealth::Healthy => 0.0,
            FleetHealth::Degraded { .. } => 1.0,
            FleetHealth::Stalled => 2.0,
        }
    }

    /// Classifies an observe degradation record (`None` — no observation
    /// yet — is healthy: nothing has failed).
    pub fn classify(deg: Option<&ObserveDegradation>, stall_after: u32) -> Self {
        let Some(deg) = deg else {
            return FleetHealth::Healthy;
        };
        if deg.stalled || (stall_after > 0 && deg.listing_stale_passes >= stall_after) {
            return FleetHealth::Stalled;
        }
        let reasons = deg.reasons();
        if reasons.is_empty() {
            FleetHealth::Healthy
        } else {
            FleetHealth::Degraded { reasons }
        }
    }
}

impl fmt::Display for FleetHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())?;
        if let FleetHealth::Degraded { reasons } = self {
            write!(f, "(")?;
            for (i, reason) in reasons.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                f.write_str(reason.label())?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Trigger thresholds and durable-boundary policy of the event loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Fire a round once this many distinct tables are dirty. `None`
    /// disables the watermark trigger.
    pub dirty_watermark: Option<usize>,
    /// Fire a round once the oldest pending commit has waited this long.
    /// `None` disables the deadline trigger (quiet commits then wait for
    /// the watermark, a headroom trip, or a flush).
    pub max_staleness_ms: Option<u64>,
    /// Fire a round when the job tracker's rolling GBHr budget window
    /// has at least this much headroom free and dirty work is pending.
    /// `None` disables the headroom trigger; it is also inert without a
    /// tracker or without a configured budget.
    pub gbhr_headroom: Option<f64>,
    /// Minimum simulated time between rounds: a due watermark / deadline
    /// / headroom trigger within this span of the previous round is
    /// *deferred* (counted in [`RuntimeStats::deferred_rounds`]) until
    /// an event arrives past the gate. Flush bypasses the gate. `0`
    /// never defers.
    pub min_round_interval_ms: u64,
    /// Save a boundary snapshot every N rounds (and on
    /// [`shutdown`](ContinuousRuntime::shutdown)). `0` journals without
    /// periodic snapshots. Ignored without attached durability.
    pub snapshot_every_rounds: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            dirty_watermark: Some(64),
            max_staleness_ms: Some(3_600_000),
            gbhr_headroom: None,
            min_round_interval_ms: 0,
            snapshot_every_rounds: 8,
        }
    }
}

/// Event-loop counters, including the backpressure signals (see the
/// module docs' backpressure contract).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Events consumed, by kind.
    pub commit_events: u64,
    /// Completion events consumed (pushed or pumped).
    pub completion_events: u64,
    /// Timer events consumed.
    pub timer_events: u64,
    /// Flush events consumed.
    pub flush_events: u64,
    /// Decision rounds fired.
    pub rounds: u64,
    /// Events where a trigger was due but the round-interval gate
    /// deferred the round — sustained growth means event arrival is
    /// outpacing the configured round budget.
    pub deferred_rounds: u64,
    /// Largest dirty set observed (before any round consumed it).
    pub max_dirty_backlog: usize,
    /// Largest dirty-count overshoot past the watermark at round start
    /// (0 when rounds always fire exactly at the watermark).
    pub max_watermark_overshoot: usize,
    /// Boundary snapshots saved.
    pub snapshots_saved: u64,
}

/// Structured outcome of one decision round, handed to the caller's
/// round callback (and not retained by the runtime — a fleet-scale
/// [`CycleReport`] owns megabytes of trait columns).
#[derive(Debug)]
pub struct RoundReport {
    /// Round number (1-based).
    pub round: u64,
    /// Round time on the simulated clock.
    pub at_ms: u64,
    /// Which trigger fired it.
    pub cause: TriggerCause,
    /// Distinct dirty tables the round consumed.
    pub dirty_consumed: usize,
    /// Decision latency of every commit event this round covered:
    /// `round.at_ms − commit.at_ms`, one entry per commit event (not per
    /// distinct table), in arrival order.
    pub commit_latencies_ms: Vec<u64>,
    /// The cycle report the round produced.
    pub report: CycleReport,
    /// Cycle-cache splice effectiveness of this round.
    pub cache: CycleCacheStats,
    /// Rank-memo splice effectiveness of this round.
    pub memo: RankCycleStats,
    /// GBHr charged against the rolling admission window after the
    /// round (0.0 without a tracker or budget).
    pub gbhr_window_used: f64,
    /// Whether this round saved a boundary snapshot.
    pub snapshot_saved: bool,
    /// Fleet health as classified from this round's observe-side
    /// degradation record (see the module docs' fleet-health section).
    pub health: FleetHealth,
    /// Cumulative event-loop counters as of this round, including the
    /// backpressure signals (`deferred_rounds`, `max_dirty_backlog`,
    /// `max_watermark_overshoot`) — so per-round consumers can surface
    /// backpressure without a separate [`ContinuousRuntime::stats`]
    /// read.
    pub runtime: RuntimeStats,
}

impl RoundReport {
    /// Folds this round's decision into a stream's running digest: FNV-1a
    /// 64 over the little-endian bytes of the round number, the trigger
    /// cause, the dirty count consumed and the table uid of every executed
    /// job, in order. Pass `None` for a stream's first round and the
    /// previous return value after that; equal streams of decisions give
    /// equal digests.
    pub fn fold_digest(&self, digest: Option<u64>) -> u64 {
        let head = [self.round, self.cause as u64, self.dirty_consumed as u64];
        let uids = self.report.executed.iter().map(|job| job.id.table_uid);
        head.into_iter()
            .chain(uids)
            .flat_map(u64::to_le_bytes)
            .fold(digest.unwrap_or(0xcbf2_9ce4_8422_2325), |hash, byte| {
                (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }
}

/// The durable half of the runtime: snapshot store + journal, both owned
/// so the commit boundary is real runtime code (not test scaffolding).
struct Durable<M> {
    store: SnapshotStore<M>,
    journal: Journal,
    /// The last base saved and what changed since it: `None` before the
    /// first base, after a restore and once no delta over the base fits,
    /// so the next boundary saves a base.
    since: Option<SinceBase>,
}

/// Buffers push-delivered completions in front of an executor so the
/// round's settle pass sees `buffered ++ poll(now)` — the event-vs-poll
/// equivalence the module docs pin.
struct BufferedCompletions<'a> {
    inner: &'a mut dyn TrackedExecutor,
    buffered: Vec<JobOutcome>,
}

impl CompactionExecutor for BufferedCompletions<'_> {
    fn execute(&mut self, c: &crate::Candidate, p: &Prediction, now_ms: u64) -> ExecutionResult {
        self.inner.execute(c, p, now_ms)
    }
}

impl TrackedExecutor for BufferedCompletions<'_> {
    fn poll(&mut self, now_ms: u64) -> Vec<JobOutcome> {
        let mut outcomes = std::mem::take(&mut self.buffered);
        outcomes.extend(self.inner.poll(now_ms));
        outcomes
    }

    fn delivery_cursor(&self) -> u64 {
        self.inner.delivery_cursor()
    }
}

/// The deterministic event loop. Owns the pipeline, its incremental
/// observer, the accumulated event state, and (optionally) the durable
/// commit boundary; the connector and executor are borrowed per call so
/// one runtime can drive any platform pairing.
pub struct ContinuousRuntime<M: SnapshotMedium = MemSnapshotMedium> {
    pipeline: AutoComp,
    observer: FleetObserver,
    config: RuntimeConfig,
    durable: Option<Durable<M>>,
    /// Arrival time of every pending commit event (latency queue; one
    /// entry per event, drained by the covering round).
    pending_commits: VecDeque<u64>,
    /// Push-delivered completions awaiting the next round.
    pending_completions: Vec<JobOutcome>,
    /// High-water mark of the simulated clock.
    now_ms: u64,
    /// Time of the last round, for the interval gate.
    last_round_ms: Option<u64>,
    rounds: u64,
    stats: RuntimeStats,
    /// Health classification as of the last round.
    health: FleetHealth,
}

impl ContinuousRuntime<MemSnapshotMedium> {
    /// A runtime without a durable boundary (no journaling, no
    /// snapshots): rounds behave exactly like polled tracked incremental
    /// [`AutoComp::cycle`] calls at trigger-chosen times.
    pub fn new(pipeline: AutoComp, config: RuntimeConfig) -> Self {
        ContinuousRuntime {
            pipeline,
            observer: FleetObserver::new(),
            config,
            durable: None,
            pending_commits: VecDeque::new(),
            pending_completions: Vec::new(),
            now_ms: 0,
            last_round_ms: None,
            rounds: 0,
            stats: RuntimeStats::default(),
            health: FleetHealth::Healthy,
        }
    }
}

impl<M: SnapshotMedium> ContinuousRuntime<M> {
    /// Attaches the durable commit boundary: every round journals its
    /// act-phase effects and appends a cycle-commit marker; every
    /// [`snapshot_every_rounds`](RuntimeConfig::snapshot_every_rounds)-th
    /// round saves a boundary snapshot into `store`. `journal` may carry
    /// a prior incarnation's records (reloaded via
    /// [`Journal::from_bytes`]) — pair that with
    /// [`recover`](Self::recover).
    pub fn with_durability<M2: SnapshotMedium>(
        self,
        store: SnapshotStore<M2>,
        journal: Journal,
    ) -> ContinuousRuntime<M2> {
        ContinuousRuntime {
            pipeline: self.pipeline,
            observer: self.observer,
            config: self.config,
            durable: Some(Durable {
                store,
                journal,
                since: None,
            }),
            pending_commits: self.pending_commits,
            pending_completions: self.pending_completions,
            now_ms: self.now_ms,
            last_round_ms: self.last_round_ms,
            rounds: self.rounds,
            stats: self.stats,
            health: self.health,
        }
    }

    /// The owned pipeline.
    pub fn pipeline(&self) -> &AutoComp {
        &self.pipeline
    }

    /// Mutable pipeline access (e.g. config edits between rounds).
    pub fn pipeline_mut(&mut self) -> &mut AutoComp {
        &mut self.pipeline
    }

    /// The owned incremental observer.
    pub fn observer(&self) -> &FleetObserver {
        &self.observer
    }

    /// Event-loop counters so far.
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// Fleet health as of the last round ([`FleetHealth::Healthy`]
    /// before the first round fires — nothing has failed yet).
    pub fn health(&self) -> &FleetHealth {
        &self.health
    }

    /// Distinct tables currently dirty (awaiting a covering round): the
    /// observer's pending-dirty set, whose distinct-uid count is kept as
    /// marks land, so this is O(1).
    pub fn dirty_backlog(&self) -> usize {
        self.observer.dirty_backlog()
    }

    /// Completions buffered for the next round.
    pub fn pending_completions(&self) -> usize {
        self.pending_completions.len()
    }

    /// The journal, when durability is attached (persist
    /// [`Journal::bytes`] alongside the snapshot medium).
    pub fn journal(&self) -> Option<&Journal> {
        self.durable.as_ref().map(|d| &d.journal)
    }

    /// The snapshot store, when durability is attached.
    pub fn snapshot_store(&self) -> Option<&SnapshotStore<M>> {
        self.durable.as_ref().map(|d| &d.store)
    }

    /// Mutable snapshot-store access, when durability is attached (used
    /// by fault-injecting media wrappers to arm a torn write).
    pub fn snapshot_store_mut(&mut self) -> Option<&mut SnapshotStore<M>> {
        self.durable.as_mut().map(|d| &mut d.store)
    }

    /// Detaches and returns the durable state (store + journal) — the
    /// simulated-persistence handoff for crash harnesses.
    pub fn into_durable_parts(self) -> Option<(SnapshotStore<M>, Journal)> {
        self.durable.map(|d| (d.store, d.journal))
    }

    /// Restores the pipeline from the newest valid snapshot generation
    /// and direct-replays the journal suffix past the snapshot's
    /// watermark (re-adopting journaled in-flight submissions,
    /// re-applying journaled settlements idempotently). Returns the
    /// recovery report; on [`RecoveryReport::Warm`] the caller may
    /// additionally rewind a seekable platform to
    /// `executor_cursor` so unjournaled outcomes re-deliver (the
    /// ledger's settled-id dedupe absorbs the overlap with journaled
    /// ones). Without attached durability (or without any valid
    /// snapshot) this is a reported cold start.
    pub fn recover(&mut self) -> RecoveryReport {
        let Some(durable) = self.durable.as_mut() else {
            return RecoveryReport::ColdStart {
                reason: "no durability attached".into(),
            };
        };
        durable.since = None;
        let Some((_seq, bytes)) = durable.store.load() else {
            let reason = match durable.store.missing_base() {
                Some((delta, base)) => format!(
                    "no valid snapshot generation: delta {delta} needs base {base}, \
                     which no slot holds intact"
                ),
                None => "no valid snapshot generation".into(),
            };
            return RecoveryReport::ColdStart { reason };
        };
        let report = self.pipeline.restore_loaded(&mut self.observer, &bytes);
        if let RecoveryReport::Warm {
            cycle,
            journal_watermark,
            ..
        } = report
        {
            self.rounds = cycle;
            self.pipeline
                .replay_journal(&durable.journal, journal_watermark);
        }
        report
    }

    /// Applies one event and, when a trigger trips, runs the covering
    /// round. Returns the round report if one fired.
    pub fn handle_event<E: TrackedExecutor>(
        &mut self,
        event: &RuntimeEvent,
        connector: &dyn LakeConnector,
        executor: &mut E,
    ) -> Result<Option<RoundReport>> {
        // The loop's clock is monotone: a lagging event is processed at
        // the high-water mark (its latency clock still starts at the
        // clamped time, keeping reports deterministic).
        self.now_ms = self.now_ms.max(event.at_ms());
        let now = self.now_ms;
        match event {
            RuntimeEvent::Commit { table_uid, .. } => {
                self.stats.commit_events += 1;
                self.observer.mark_dirty(*table_uid);
                self.pending_commits.push_back(now);
                self.stats.max_dirty_backlog =
                    self.stats.max_dirty_backlog.max(self.dirty_backlog());
            }
            RuntimeEvent::Completion { outcome, .. } => {
                self.on_completion(now, outcome.clone());
            }
            RuntimeEvent::Timer { .. } => {
                self.stats.timer_events += 1;
            }
            RuntimeEvent::Flush { .. } => {
                self.stats.flush_events += 1;
                return Ok(Some(self.round(
                    TriggerCause::Flush,
                    connector,
                    executor,
                    now,
                )?));
            }
        }
        match self.due_trigger(now) {
            Some(cause) => Ok(Some(self.round(cause, connector, executor, now)?)),
            None => Ok(None),
        }
    }

    /// Runs a final flush round (covering any pending dirty work) and
    /// saves a shutdown snapshot when durability is attached. Returns
    /// the final round's report — always `Some`: a flush round runs even
    /// over an empty dirty set.
    pub fn shutdown<E: TrackedExecutor>(
        &mut self,
        connector: &dyn LakeConnector,
        executor: &mut E,
        now_ms: u64,
    ) -> Result<Option<RoundReport>> {
        self.now_ms = self.now_ms.max(now_ms);
        let now = self.now_ms;
        let mut report = self.round(TriggerCause::Flush, connector, executor, now)?;
        if !report.snapshot_saved {
            report.snapshot_saved = self.save_snapshot(executor);
        }
        Ok(Some(report))
    }

    /// First due trigger at `now`, respecting the round-interval gate
    /// (deferrals are counted as backpressure).
    fn due_trigger(&mut self, now: u64) -> Option<TriggerCause> {
        let cause = self.trigger_tripped(now)?;
        if let Some(last) = self.last_round_ms {
            if now.saturating_sub(last) < self.config.min_round_interval_ms {
                self.stats.deferred_rounds += 1;
                self.pipeline
                    .telemetry()
                    .counter_add(tnames::RUNTIME_DEFERRED_ROUNDS_TOTAL, 1);
                return None;
            }
        }
        Some(cause)
    }

    /// Which (non-flush) trigger is tripped at `now`, if any.
    fn trigger_tripped(&self, now: u64) -> Option<TriggerCause> {
        if let Some(watermark) = self.config.dirty_watermark {
            if watermark > 0 && self.dirty_backlog() >= watermark {
                return Some(TriggerCause::DirtyWatermark);
            }
        }
        if let (Some(staleness), Some(oldest)) =
            (self.config.max_staleness_ms, self.pending_commits.front())
        {
            if now.saturating_sub(*oldest) >= staleness {
                return Some(TriggerCause::StalenessDeadline);
            }
        }
        let headroom = self
            .config
            .gbhr_headroom
            .filter(|_| self.dirty_backlog() > 0)?;
        let tracker = self.pipeline.job_tracker()?;
        let free = tracker.config().gbhr_budget? - tracker.gbhr_window_usage();
        (free >= headroom).then_some(TriggerCause::GbhrHeadroom)
    }

    /// Runs one decision round at `now`: settles buffered completions
    /// ahead of the executor poll, runs the tracked incremental cycle
    /// (whose observe consumes the dirty set), and commits the durable
    /// boundary.
    fn round<E: TrackedExecutor>(
        &mut self,
        cause: TriggerCause,
        connector: &dyn LakeConnector,
        executor: &mut E,
        now: u64,
    ) -> Result<RoundReport> {
        let dirty_consumed = self.dirty_backlog();
        if let Some(watermark) = self.config.dirty_watermark {
            if watermark > 0 && dirty_consumed > watermark {
                self.stats.max_watermark_overshoot = self
                    .stats
                    .max_watermark_overshoot
                    .max(dirty_consumed - watermark);
            }
        }
        let commit_latencies_ms: Vec<u64> = self
            .pending_commits
            .drain(..)
            .map(|at| now.saturating_sub(at))
            .collect();
        let buffered = std::mem::take(&mut self.pending_completions);

        // Durability journals each submission and settlement as the round
        // runs; buffered completions settle ahead of the executor's poll.
        let mut journaling;
        let inner: &mut dyn TrackedExecutor = match self.durable.as_mut() {
            Some(durable) => {
                journaling = JournalingExecutor::new(&mut *executor, &mut durable.journal)
                    .with_telemetry(self.pipeline.telemetry().clone());
                &mut journaling
            }
            None => &mut *executor,
        };
        let report = self.pipeline.cycle(CycleInput {
            connector,
            observer: Some(&mut self.observer),
            executor: Executor::Tracked(&mut BufferedCompletions { inner, buffered }),
            now_ms: now,
        });
        // What the cycle changed counts toward the next delta even when
        // it failed part way. Once no delta fits any more, none will
        // before the next base, so tracking stops.
        if let Some(durable) = self.durable.as_mut() {
            if let Some(since) = durable.since.as_mut() {
                self.pipeline.note_round(&self.observer, since);
                if !self.pipeline.delta_fits(&self.observer, since) {
                    durable.since = None;
                }
            }
        }
        let report = report?;

        self.rounds += 1;
        self.stats.rounds += 1;
        self.last_round_ms = Some(now);
        let mut snapshot_saved = false;
        if let Some(durable) = self.durable.as_mut() {
            crate::durability::append_counted(
                &mut durable.journal,
                self.pipeline.telemetry(),
                &JournalEvent::CycleCommit { cycle: self.rounds }.encode(),
            );
            let every = self.config.snapshot_every_rounds;
            if every > 0 && self.rounds.is_multiple_of(every) {
                snapshot_saved = self.save_snapshot(executor);
            }
        }

        // Fold the round into the shared telemetry registry: trigger
        // cause, backpressure gauges, and the decision-latency histogram
        // (one sample per covered commit event).
        let telemetry = self.pipeline.telemetry();
        telemetry.counter_add_labelled(
            tnames::RUNTIME_ROUNDS_TOTAL,
            tnames::LABEL_CAUSE,
            cause.label(),
            1,
        );
        telemetry.gauge_set(tnames::RUNTIME_DIRTY_BACKLOG, dirty_consumed as f64);
        telemetry.gauge_set(
            tnames::RUNTIME_MAX_DIRTY_BACKLOG,
            self.stats.max_dirty_backlog as f64,
        );
        telemetry.gauge_set(
            tnames::RUNTIME_MAX_WATERMARK_OVERSHOOT,
            self.stats.max_watermark_overshoot as f64,
        );
        if let Some(hist) = telemetry.histogram_handle(tnames::RUNTIME_DECISION_LATENCY_MS) {
            for latency in &commit_latencies_ms {
                hist.record(*latency);
            }
        }

        // Health state machine: re-classify from the retained
        // observation's degradation record and fold the result into the
        // registry (gauge = current state; counters accumulate degraded
        // rounds by cause, "stalled" counting as its own cause).
        let health = FleetHealth::classify(
            self.observer.last().map(|o| o.degradation()),
            STALL_AFTER_STALE_LISTINGS,
        );
        telemetry.gauge_set(tnames::RUNTIME_HEALTH_STATE, health.gauge_value());
        match &health {
            FleetHealth::Healthy => {}
            FleetHealth::Degraded { reasons } => {
                for reason in reasons {
                    telemetry.counter_add_labelled(
                        tnames::RUNTIME_DEGRADED_ROUNDS_TOTAL,
                        tnames::LABEL_CAUSE,
                        reason.label(),
                        1,
                    );
                }
            }
            FleetHealth::Stalled => {
                telemetry.counter_add_labelled(
                    tnames::RUNTIME_DEGRADED_ROUNDS_TOTAL,
                    tnames::LABEL_CAUSE,
                    "stalled",
                    1,
                );
            }
        }
        self.health = health.clone();

        Ok(RoundReport {
            round: self.rounds,
            at_ms: now,
            cause,
            dirty_consumed,
            commit_latencies_ms,
            cache: self.pipeline.cycle_cache_stats(),
            memo: self.pipeline.rank_memo_stats(),
            gbhr_window_used: self
                .pipeline
                .job_tracker()
                .map(|t| t.gbhr_window_usage())
                .unwrap_or(0.0),
            snapshot_saved,
            health,
            runtime: self.stats,
            report,
        })
    }

    /// Saves a boundary snapshot recording the executor's delivery
    /// cursor and the journal watermark: a delta over the last base when
    /// the fold rule of [`crate::durability`] allows one, else a base.
    /// Rounds call this at every
    /// [`snapshot_every_rounds`](RuntimeConfig::snapshot_every_rounds)-th
    /// boundary and on [`shutdown`](Self::shutdown). Returns whether a
    /// snapshot was actually written (requires durability, an
    /// observation, and a writable medium).
    pub fn save_snapshot<E: TrackedExecutor>(&mut self, executor: &E) -> bool {
        let Some(durable) = self.durable.as_mut() else {
            return false;
        };
        let ctx = SnapshotContext {
            cycle: self.rounds,
            executor_cursor: executor.delivery_cursor(),
            journal_watermark: durable.journal.records(),
        };
        let (pipeline, observer) = (&self.pipeline, &self.observer);
        let delta = durable
            .since
            .as_ref()
            .filter(|since| pipeline.delta_fits(observer, since));
        // A delta the store declines (its base is gone) becomes a base.
        let saved = match delta {
            Some(since) => durable.store.save_delta_with(since.seq, |enc| {
                pipeline.encode_delta_into(observer, &ctx, since, enc)
            }),
            None => Ok(None),
        };
        let saved = match saved {
            Ok(None) => {
                let mut base = None;
                let saved = durable.store.save_with(|enc| {
                    base = pipeline.encode_base_into(observer, &ctx, enc);
                    base.is_some()
                });
                if let (Ok(Some(seq)), Some(base)) = (&saved, base) {
                    durable.since = Some(SinceBase { seq: *seq, ..base });
                }
                saved
            }
            delta => delta,
        };
        if matches!(saved, Ok(Some(_))) {
            self.stats.snapshots_saved += 1;
            self.pipeline
                .telemetry()
                .counter_add(tnames::DURABILITY_SNAPSHOT_SAVES_TOTAL, 1);
            true
        } else {
            false
        }
    }
}

impl<M: SnapshotMedium> CompletionSink for ContinuousRuntime<M> {
    /// Buffers a push-delivered completion for the next round,
    /// journaling it immediately when durability is attached (so a crash
    /// between delivery and the covering round cannot lose the settle —
    /// the round will *not* re-journal buffered outcomes).
    fn on_completion(&mut self, at_ms: u64, outcome: JobOutcome) {
        self.now_ms = self.now_ms.max(at_ms);
        self.stats.completion_events += 1;
        if let Some(durable) = self.durable.as_mut() {
            crate::durability::append_counted(
                &mut durable.journal,
                self.pipeline.telemetry(),
                &JournalEvent::Settled {
                    outcome: outcome.clone(),
                }
                .encode(),
            );
        }
        self.pending_completions.push(outcome);
    }
}
