//! The act-phase job runtime: cross-cycle job lifecycle management.
//!
//! The paper schedules compaction on a dedicated cluster and treats a
//! submitted job as *work in flight*: AutoComp must not re-compact a
//! table whose previous job has not finished (§4.4), must bound how much
//! concurrent compaction the platform absorbs (§6 runs a fixed 3-node
//! cluster), and feeds realized outcomes back into its estimators (§7).
//! The [`JobTracker`] owned by [`AutoComp`](crate::pipeline::AutoComp)
//! does all three; without one the act phase submits and keeps no books.
//!
//! # Lifecycle
//!
//! ```text
//!            ┌── execute() ──► Running ── poll() ──► Succeeded ─► feedback
//!  selected ─┤                   │  ▲                Conflicted ─► retry (backoff)
//!            └─► Deferred        │  └── retry ◄──────┘   │
//!                (admission)     └──────► Failed         └─► exhausted
//! ```
//!
//! * **In-flight ledger** — every scheduled job is recorded against its
//!   table. Candidates of a table with a live job (running *or* awaiting
//!   a retry) are suppressed and surfaced in [`CycleReport::dropped`]
//!   with an explicit reason. Suppression is a mask over the retained
//!   [decide state](crate::decide), never written into it, so a table's
//!   verdicts, trait rows and score stay valid across the job's
//!   lifetime. It covers the
//!   whole table, not just the targeted partition: §6 observed same-table
//!   partition jobs conflicting even when disjoint, which is why the
//!   production scheduler serializes them — the ledger extends that rule
//!   across cycles.
//! * **Admission control** — each submission passes fleet-wide and
//!   per-database concurrency slots plus a rolling GBHr budget window
//!   ([`JobRuntimeConfig`]). Denied candidates are *deferred*, not
//!   dropped: they appear in [`CycleReport::deferred`] with the denying
//!   rule, and re-enter ranking naturally next cycle.
//! * **Completion polling** — [`TrackedExecutor::poll`] settles finished
//!   jobs at cycle start (so settled tables are re-observed dirty in the
//!   same cycle) and between act-phase waves (so a wave-1 commit that
//!   already landed frees its table for wave 2).
//! * **Retries** — a `Conflicted` outcome, or a transient submit error
//!   ([`ExecutionError::Transient`]), re-enters the queue with capped
//!   exponential backoff (`retry_backoff_ms · 2^(attempt-1)`, at most
//!   `retry_backoff_cap_ms`) until `max_retries` is spent. The executor
//!   re-plans a retry from *current* table state, and the act phase
//!   re-prices it off the current cycle's stats first (the settle
//!   force-dirtied the table, so they are fresh), so admission charges an
//!   honest GBHr; only a table or partition no longer observable keeps
//!   its original prediction.
//! * **Automatic feedback** — every `Succeeded` outcome becomes a
//!   [`FeedbackRecord`] ingested into the pipeline's calibration, and
//!   every settled table is marked dirty for the incremental observer.
//!
//! # Cycle protocol
//!
//! Only this module knows the act protocol. One
//! [`AutoComp::cycle`](crate::pipeline::AutoComp::cycle) calls, in order:
//!
//! 1. **`JobTracker::live_tables`** (after orient, before rank): expires
//!    leases, then lists the live tables — at most `max_in_flight` plus
//!    the retry queue — with their drop reasons. The pipeline looks
//!    *those* up in the observation's uid index and thins its kept set
//!    once; the ledger is never probed per row.
//! 2. **`ActPhase::run`** (after rank and scheduling): due retries first
//!    (older work; re-priced, never re-classified), then the scheduler's
//!    waves, settling between waves. Every submission, first attempt or
//!    retry, takes the one private `submit`: admission (a denial is a
//!    counted deferral, the platform is not called, a retry re-queues due
//!    now), the platform call, then the books — `register` with
//!    `spent + 1` attempts for a scheduled job with an id, a bare
//!    budget-window charge for an id-less one, the retry queue or
//!    finality for an unscheduled one. Ledger timestamps are the *cycle*
//!    time even in later waves (the budget window prunes front to back,
//!    so stamps must not run ahead); only the platform sees the wave's
//!    start time. Prices come from the one `pricing` rule; feedback from
//!    inter-wave settles is returned, not ingested, so calibration stays
//!    frozen for the whole phase.
//! 3. **`JobTracker::take_summary`**: the cycle's counters, reset.
//!
//! # Staleness / feedback contract
//!
//! The ledger is part of the act phase, not the observe phase: cached
//! filter verdicts and trait rows never embed ledger state, so enabling
//! or disabling the tracker does not invalidate the decide state. An
//! enabled tracker with nothing in flight and permissive admission
//! reproduces the reports of a pipeline without one bit-for-bit —
//! pinned by `tests/job_runtime.rs` and `tests/incremental_parity.rs`.
//! Settled outcomes reach the estimators exactly as manual
//! [`ingest_feedback`](crate::pipeline::AutoComp::ingest_feedback) calls
//! would, and like them do not bump the config epoch (calibration only
//! scales act-phase predictions). Outcomes settled outside the pipeline
//! reach the estimators through `ingest_feedback`.
//!
//! [`CycleReport::dropped`]: crate::pipeline::CycleReport::dropped
//! [`CycleReport::deferred`]: crate::pipeline::CycleReport::deferred
//! [`ExecutionError::Transient`]: crate::connector::ExecutionError::Transient

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use crate::candidate::{Candidate, CandidateId};
use crate::connector::{CompactionExecutor, ExecutionResult, Prediction};
use crate::feedback::{EstimationFeedback, FeedbackRecord};
use crate::kind::JobKind;
use crate::observe::{FleetObservation, TableObservation};
use crate::pipeline::ExecutedJob;
use crate::schedule::{waves, ScheduledJob};
use crate::stats::CandidateStats;
use crate::traits::TraitComputer;

/// Terminal status of one settled compaction job, as surfaced by
/// [`TrackedExecutor::poll`]. Mirrors the engine-side maintenance status
/// without depending on any concrete platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcomeStatus {
    /// The rewrite committed; `actual_*` fields are meaningful.
    Succeeded,
    /// The rewrite lost an optimistic-concurrency race (cluster-side
    /// conflict, Table 1). Retryable: the inputs still exist, only the
    /// base snapshot moved.
    Conflicted,
    /// The rewrite failed structurally (quota writing outputs, dropped
    /// table). Not retried by the runtime.
    Failed,
}

impl fmt::Display for JobOutcomeStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobOutcomeStatus::Succeeded => "succeeded",
            JobOutcomeStatus::Conflicted => "conflicted",
            JobOutcomeStatus::Failed => "failed",
        })
    }
}

/// One settled job reported by [`TrackedExecutor::poll`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Platform job id (matches [`ExecutionResult::job_id`]).
    pub job_id: u64,
    /// Table the job targeted.
    pub table_uid: u64,
    /// Terminal status.
    pub status: JobOutcomeStatus,
    /// When the job settled.
    pub finished_at_ms: u64,
    /// Achieved file-count reduction (0 unless `Succeeded`).
    pub actual_reduction: i64,
    /// Compute cost actually consumed (GBHr) — spent even on conflicts
    /// (the paper counts wasted compaction resources, §2).
    pub actual_gbhr: f64,
}

/// Act-side connector with completion polling: the same submission API as
/// [`CompactionExecutor`], plus [`poll`](Self::poll) to settle jobs that
/// finished since the last poll.
///
/// [`AutoComp::cycle`](crate::pipeline::AutoComp::cycle) takes only this
/// tier: wrap a plain executor in [`Untracked`], whose `poll` settles
/// nothing. Beware: registered jobs only ever leave the ledger by
/// settling (or by an expired
/// [`job_lease_ms`](JobRuntimeConfig::job_lease_ms)), so a tracker driven
/// exclusively through a non-polling executor accumulates permanently
/// suppressed tables until admission refuses everything.
/// Prefer a real `poll` wherever the platform can answer, and set a job
/// lease as the safety valve where outcome reporting may be lossy.
pub trait TrackedExecutor: CompactionExecutor {
    /// Returns the outcomes of every job that settled at or before
    /// `now_ms` and was not yet reported by an earlier poll. Outcomes for
    /// jobs the caller does not track are ignored by the runtime, so
    /// implementations may report all platform jobs.
    ///
    /// # Contract: scheduled submissions carry a job id
    ///
    /// The runtime tracks jobs by [`ExecutionResult::job_id`]. A tracked
    /// executor whose `execute` returns `scheduled: true` with
    /// `job_id: None` produces a job the ledger cannot follow: it is
    /// charged against the GBHr budget window but gets no in-flight
    /// entry — no suppression, no settle, no retry, no feedback.
    fn poll(&mut self, now_ms: u64) -> Vec<JobOutcome>;

    /// Outcome-delivery cursor: an opaque position in the platform's
    /// settled-outcome stream up to which [`poll`](Self::poll) has
    /// delivered. Recorded into snapshot boundaries
    /// ([`SnapshotContext::executor_cursor`](crate::durability::SnapshotContext::executor_cursor))
    /// so a crash-restore can rewind delivery to the snapshot's position
    /// on platforms that support seeking. The default (`0`, never
    /// advancing) is correct for executors without a rewindable stream —
    /// recovery then relies on direct journal replay instead.
    fn delivery_cursor(&self) -> u64 {
        0
    }
}

/// Push-style counterpart to [`TrackedExecutor::poll`]: a sink that
/// accepts job-completion *events* as they arrive, instead of being
/// polled at cycle boundaries. The event-driven runtime
/// ([`ContinuousRuntime`](crate::runtime::ContinuousRuntime)) implements
/// this; platforms that deliver completion callbacks push straight into
/// it, and poll-only platforms are adapted with [`pump_completions`].
pub trait CompletionSink {
    /// Accepts one settled-job outcome. Implementations must tolerate
    /// duplicate delivery (at-least-once platforms) — the job ledger's
    /// settled-id dedupe makes duplicates harmless downstream.
    fn on_completion(&mut self, at_ms: u64, outcome: JobOutcome);
}

/// Poll-adapter bridging a poll-style [`TrackedExecutor`] into a
/// [`CompletionSink`]: polls `executor` once at `now_ms` and pushes every
/// delivered outcome into `sink` as a completion event. Returns how many
/// outcomes were pumped. Drive this from timer ticks (or after known
/// settle points) to feed an event loop from an executor that can only
/// answer polls.
pub fn pump_completions(
    executor: &mut dyn TrackedExecutor,
    sink: &mut dyn CompletionSink,
    now_ms: u64,
) -> usize {
    let outcomes = executor.poll(now_ms);
    let pumped = outcomes.len();
    for outcome in outcomes {
        sink.on_completion(now_ms, outcome);
    }
    pumped
}

/// Adapts any plain [`CompactionExecutor`] to the [`TrackedExecutor`]
/// API: submissions pass through, `poll` reports nothing.
#[derive(Debug, Clone, Default)]
pub struct Untracked<E>(pub E);

impl<E: CompactionExecutor> CompactionExecutor for Untracked<E> {
    fn execute(
        &mut self,
        candidate: &Candidate,
        prediction: &Prediction,
        now_ms: u64,
    ) -> ExecutionResult {
        self.0.execute(candidate, prediction, now_ms)
    }
}

impl<E: CompactionExecutor> TrackedExecutor for Untracked<E> {
    fn poll(&mut self, _now_ms: u64) -> Vec<JobOutcome> {
        Vec::new()
    }
}

/// The one pricing rule of a submission, first attempt or retry: the
/// last-registered `file_count_reduction` and `compute_cost_gbhr`
/// computers over the candidate's stats (`small_file_count` and `0.0`
/// when unregistered), scaled by `calibration`'s factors as of this call
/// — frozen for the whole phase — or unscaled without one. Trait
/// computers are pure functions of the stats ([`crate::traits`]), so this
/// equals the candidate's orient row.
pub(crate) fn pricing<'a>(
    traits: &'a [Box<dyn TraitComputer>],
    calibration: Option<&EstimationFeedback>,
) -> impl Fn(&CandidateStats) -> (i64, f64) + 'a {
    let (reduction_cal, cost_cal) = calibration.map_or((1.0, 1.0), |f| {
        (f.reduction_calibration(), f.cost_calibration())
    });
    let last = |name: &str| traits.iter().rev().find(|t| t.name() == name);
    let reduction_tc = last("file_count_reduction");
    let gbhr_tc = last("compute_cost_gbhr");
    move |stats| {
        let reduction = reduction_tc.map_or(stats.small_file_count as f64, |t| t.compute(stats));
        let gbhr = gbhr_tc.map_or(0.0, |t| t.compute(stats));
        ((reduction * reduction_cal).round() as i64, gbhr * cost_cal)
    }
}

/// What one act phase did: the [`CycleReport`](crate::pipeline::CycleReport)
/// fields of the same names — the totals summed over *scheduled* results
/// in submission order (retries, then waves; the GBHr sum is compared bit
/// for bit) — plus the feedback of inter-wave settles, for the pipeline
/// to ingest once the phase is over.
#[derive(Debug, Default)]
pub(crate) struct ActOutcome {
    pub(crate) executed: Vec<ExecutedJob>,
    pub(crate) retried: Vec<ExecutedJob>,
    pub(crate) deferred: Vec<(CandidateId, Arc<str>)>,
    pub(crate) total_predicted_reduction: i64,
    pub(crate) total_predicted_gbhr: f64,
    pub(crate) feedback: Vec<FeedbackRecord>,
}

/// One cycle's act phase (see the module docs' cycle protocol). Without
/// a tracker every submission goes straight to the platform and nothing
/// is book-kept.
pub(crate) struct ActPhase<'a> {
    pub(crate) tracker: Option<&'a mut JobTracker>,
    pub(crate) exec: &'a mut dyn TrackedExecutor,
    /// The cycle time: every ledger timestamp, and when retries run.
    pub(crate) now_ms: u64,
    /// The cycle's [`pricing`] rule.
    pub(crate) price: &'a dyn Fn(&CandidateStats) -> (i64, f64),
    pub(crate) out: ActOutcome,
}

impl ActPhase<'_> {
    /// The one submission path. `spent` is the submissions already used
    /// on this candidate (0 = first attempt), `platform_ms` when the
    /// platform is called; the ledger is stamped with the cycle time.
    /// `Err(reason)`: admission deferred it and the platform was not
    /// called — a deferred retry is back in the queue, due now.
    fn submit(
        &mut self,
        candidate: &Candidate,
        prediction: &Prediction,
        spent: u32,
        platform_ms: u64,
    ) -> Result<ExecutionResult, Arc<str>> {
        let now_ms = self.now_ms;
        if let Some(tracker) = self.tracker.as_deref_mut() {
            let uid = candidate.id.table_uid;
            let (gbhr, kind) = (prediction.gbhr, prediction.kind);
            if let Err(reason) = tracker.admit(&candidate.database, uid, gbhr, kind, now_ms) {
                if spent > 0 {
                    tracker.schedule_retry(candidate.clone(), prediction.clone(), now_ms, spent);
                }
                return Err(reason);
            }
        }
        let result = self.exec.execute(candidate, prediction, platform_ms);
        if result.scheduled {
            self.out.total_predicted_reduction += prediction.reduction;
            self.out.total_predicted_gbhr += prediction.gbhr;
        }
        if let Some(tracker) = self.tracker.as_deref_mut() {
            if spent > 0 {
                tracker.note_retry_submitted(prediction.kind);
            }
            match (result.scheduled, result.job_id) {
                (true, Some(job_id)) => {
                    tracker.register(job_id, candidate, prediction, spent + 1, now_ms)
                }
                // Scheduled but id-less: the ledger cannot follow it, but
                // the budget must see it (TrackedExecutor contract).
                (true, None) => tracker.charge_gbhr_window(prediction.gbhr, now_ms),
                (false, _) => {
                    tracker.note_unscheduled(candidate, prediction, spent + 1, &result, now_ms)
                }
            }
        }
        Ok(result)
    }

    /// Runs the phase: due retries against `observation`, then `jobs`
    /// (the scheduler's plan over `selected`) wave by wave, each first
    /// attempt labelled with `trigger`.
    pub(crate) fn run(
        mut self,
        observation: &FleetObservation,
        selected: &[Candidate],
        jobs: &[ScheduledJob],
        trigger: &str,
    ) -> ActOutcome {
        // Retries whose backoff elapsed go first: older work, and their
        // tables were suppressed from this cycle's ranking. Each is
        // re-priced off this cycle's observation (see the module docs),
        // keeping its trigger and, always, its kind.
        let now_ms = self.now_ms;
        let due = match self.tracker.as_deref_mut() {
            Some(tracker) => tracker.take_due_retries(now_ms),
            None => Vec::new(),
        };
        for (mut candidate, mut prediction, spent) in due {
            if let Some(stats) = retry_stats(observation, &candidate) {
                (prediction.reduction, prediction.gbhr) = (self.price)(stats);
                candidate.stats = stats.clone();
            }
            match self.submit(&candidate, &prediction, spent, now_ms) {
                Err(reason) => self.out.deferred.push((candidate.id, reason)),
                Ok(result) => self.out.retried.push(ExecutedJob {
                    id: candidate.id,
                    prediction,
                    result,
                    wave: 0,
                }),
            }
        }

        // First attempts, wave by wave: a wave starts only after the
        // previous wave's commits are due (sequential partition
        // compaction, §6), and finished jobs settle in between so a wave-1
        // commit that already landed frees its table before wave 2.
        let mut wave_start = now_ms;
        let all_waves = waves(jobs);
        let wave_count = all_waves.len();
        for (wave_index, wave_jobs) in all_waves.into_iter().enumerate() {
            let mut wave_due = wave_start;
            for job in wave_jobs {
                let candidate = &selected[job.index];
                let (reduction, gbhr) = (self.price)(&candidate.stats);
                let prediction = Prediction {
                    reduction,
                    gbhr,
                    trigger: trigger.to_string(),
                    kind: JobKind::classify(&candidate.stats),
                };
                match self.submit(candidate, &prediction, 0, wave_start) {
                    Err(reason) => self.out.deferred.push((job.id.clone(), reason)),
                    Ok(result) => {
                        if let (true, Some(due)) = (result.scheduled, result.commit_due_ms) {
                            wave_due = wave_due.max(due);
                        }
                        self.out.executed.push(ExecutedJob {
                            id: job.id.clone(),
                            prediction,
                            result,
                            wave: job.wave,
                        });
                    }
                }
            }
            wave_start = wave_due.max(wave_start) + 1;
            if wave_index + 1 < wave_count {
                if let Some(tracker) = self.tracker.as_deref_mut() {
                    let outcomes = self.exec.poll(wave_start);
                    self.out.feedback.extend(tracker.settle(outcomes));
                }
            }
        }
        self.out
    }
}

/// Current-cycle stats of a retry candidate, located by uid (via the
/// observation's retained uid index) and, for partition-scope retries,
/// by partition label. `None` when the table vanished, the scope shape
/// changed, or the partition is no longer reported.
fn retry_stats<'a>(
    observation: &'a FleetObservation,
    candidate: &Candidate,
) -> Option<&'a CandidateStats> {
    let pos = observation.position_of_uid(candidate.id.table_uid)?;
    match (observation.entry(pos), &candidate.id.partition) {
        (TableObservation::Table(stats), None) => Some(stats),
        (TableObservation::Partitions(parts), Some(label)) => parts
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, stats)| stats),
        _ => None,
    }
}

/// Admission and retry policy of the job runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRuntimeConfig {
    /// Fleet-wide concurrency slots: at most this many jobs running at
    /// once across all databases.
    pub max_in_flight: usize,
    /// Per-database concurrency slots.
    pub max_in_flight_per_database: usize,
    /// Rolling GBHr budget: total *predicted* GBHr admitted within the
    /// trailing [`gbhr_window_ms`](Self::gbhr_window_ms) window. `None`
    /// disables the budget rule.
    pub gbhr_budget: Option<f64>,
    /// Width of the rolling GBHr window.
    pub gbhr_window_ms: u64,
    /// Maximum *extra* submissions after the first (0 = never retry). A
    /// candidate is abandoned once `1 + max_retries` submissions have
    /// conflicted or transiently failed.
    pub max_retries: u32,
    /// Base conflict-retry backoff; attempt `n` (1-based) waits
    /// `retry_backoff_ms · 2^(n-1)`.
    pub retry_backoff_ms: u64,
    /// Upper bound on the exponential backoff.
    pub retry_backoff_cap_ms: u64,
    /// Safety-valve lease on running ledger entries: a job whose outcome
    /// has not been reported within this span of its submission is
    /// evicted (slots and suppression freed, counted in
    /// [`JobLedgerSummary::leases_expired`]; a late outcome for an
    /// evicted job settles once — feedback and dirty mark, no slot
    /// release — then further duplicates are ignored). `None` (the
    /// default) never expires —
    /// correct when every scheduled job's outcome is eventually polled;
    /// set a lease when driving a tracker through executors whose
    /// outcome reporting may be lossy (or that never poll at all), where
    /// stuck entries would otherwise suppress their tables forever and
    /// eventually exhaust the admission slots.
    pub job_lease_ms: Option<u64>,
}

impl Default for JobRuntimeConfig {
    fn default() -> Self {
        JobRuntimeConfig {
            max_in_flight: 64,
            max_in_flight_per_database: 8,
            gbhr_budget: None,
            gbhr_window_ms: 3_600_000,
            max_retries: 2,
            retry_backoff_ms: 30_000,
            retry_backoff_cap_ms: 240_000,
            job_lease_ms: None,
        }
    }
}

impl JobRuntimeConfig {
    /// Backoff before submission attempt `attempts + 1`, given `attempts`
    /// submissions already spent: exponential in the attempt count,
    /// capped.
    fn backoff_ms(&self, attempts: u32) -> u64 {
        let shift = attempts.saturating_sub(1).min(16);
        self.retry_backoff_ms
            .saturating_mul(1u64 << shift)
            .min(self.retry_backoff_cap_ms)
    }
}

/// Counters summarizing one cycle's ledger activity, attached to every
/// [`CycleReport`](crate::pipeline::CycleReport). All-zero (the
/// [`Default`]) when the tracker is disabled or idle — the report then
/// renders exactly as a pipeline's without a tracker.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JobLedgerSummary {
    /// Jobs running on the platform after this cycle.
    pub in_flight: usize,
    /// Candidates waiting out a retry backoff after this cycle.
    pub retry_pending: usize,
    /// Outcomes settled since the previous report.
    pub settled: usize,
    /// …of which succeeded (each auto-ingested as feedback).
    pub succeeded: usize,
    /// …of which conflicted.
    pub conflicted: usize,
    /// …of which failed structurally.
    pub failed: usize,
    /// Retry submissions executed this cycle.
    pub retries_submitted: usize,
    /// Candidates abandoned this cycle with their retry budget exhausted.
    pub retries_exhausted: usize,
    /// Candidates suppressed from ranking because their table had a live
    /// job (reported in `CycleReport::dropped`).
    pub suppressed: usize,
    /// Submissions deferred by admission control this cycle (reported in
    /// `CycleReport::deferred`).
    pub deferred: usize,
    /// Running ledger entries evicted this cycle because their
    /// [`job_lease_ms`](JobRuntimeConfig::job_lease_ms) elapsed without
    /// an outcome.
    pub leases_expired: usize,
    /// Outcomes settled this cycle for jobs the lease had already
    /// evicted: feedback and dirty marks land once, concurrency slots
    /// (already released by the eviction) are left alone.
    pub late_settled: usize,
    /// Sort-by-column rewrites registered this cycle (merge submissions
    /// are the unlabeled remainder — merge-only ledgers render exactly
    /// as before these counters existed).
    pub sorts_submitted: usize,
    /// Partition-relayout rewrites registered this cycle.
    pub relayouts_submitted: usize,
    /// Deletion-vector-purge rewrites registered this cycle.
    pub purges_submitted: usize,
}

impl JobLedgerSummary {
    /// Whether every counter is zero — a quiet ledger renders nothing, so
    /// disabled-tracker reports stay bit-identical to the pre-runtime
    /// pipeline.
    pub fn is_quiet(&self) -> bool {
        *self == JobLedgerSummary::default()
    }
}

impl fmt::Display for JobLedgerSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "in-flight={} retry-pending={} settled={} (ok={} conflict={} fail={}) \
             retried={} exhausted={} suppressed={} deferred={}",
            self.in_flight,
            self.retry_pending,
            self.settled,
            self.succeeded,
            self.conflicted,
            self.failed,
            self.retries_submitted,
            self.retries_exhausted,
            self.suppressed,
            self.deferred,
        )?;
        if self.leases_expired > 0 {
            write!(f, " lease-expired={}", self.leases_expired)?;
        }
        if self.late_settled > 0 {
            write!(f, " late-settled={}", self.late_settled)?;
        }
        if self.sorts_submitted > 0 || self.relayouts_submitted > 0 || self.purges_submitted > 0 {
            write!(
                f,
                " kinds=(sort={} relayout={} purge={})",
                self.sorts_submitted, self.relayouts_submitted, self.purges_submitted,
            )?;
        }
        Ok(())
    }
}

/// One job the runtime has submitted and not yet seen settle.
#[derive(Debug, Clone)]
struct TrackedJob {
    candidate: Candidate,
    prediction: Prediction,
    /// Submissions spent on this candidate so far (1 = first attempt).
    attempts: u32,
    /// When the submission was scheduled (drives the optional job lease).
    submitted_ms: u64,
}

impl TrackedJob {
    /// The prediction-vs-outcome record of this job's success.
    fn feedback(&self, outcome: &JobOutcome) -> FeedbackRecord {
        FeedbackRecord {
            candidate: self.candidate.id.clone(),
            at_ms: outcome.finished_at_ms,
            predicted_reduction: self.prediction.reduction,
            actual_reduction: outcome.actual_reduction,
            predicted_gbhr: self.prediction.gbhr,
            actual_gbhr: outcome.actual_gbhr,
        }
    }
}

/// One candidate waiting out its retry backoff.
#[derive(Debug, Clone)]
struct RetryEntry {
    candidate: Candidate,
    prediction: Prediction,
    due_ms: u64,
    /// Submissions already spent.
    attempts: u32,
}

/// How many settled job ids the duplicate-delivery dedupe remembers.
/// Platform job ids are monotone in practice, so the window only needs to
/// cover the re-delivery horizon (one poll batch, one journal replay) —
/// 4096 is orders of magnitude beyond either.
const SETTLED_RECENT_CAP: usize = 4096;

/// How many lease-evicted entries are retained for late settlement.
const EVICTED_RETAINED_CAP: usize = 1024;

/// The cross-cycle in-flight ledger + admission controller + retry queue.
/// Owned by [`AutoComp`](crate::pipeline::AutoComp); see the module docs
/// for the lifecycle it manages.
#[derive(Debug, Clone)]
pub struct JobTracker {
    config: JobRuntimeConfig,
    /// Telemetry handle for the per-kind admission/deferral/retry/
    /// conflict counters (see [`crate::telemetry::names`]). Disabled
    /// until the owning pipeline attaches its sink; never part of the
    /// durable snapshot (the pipeline re-attaches after restore).
    telemetry: crate::telemetry::TelemetrySink,
    /// Running jobs by platform job id.
    jobs: BTreeMap<u64, TrackedJob>,
    /// Running-job count per table (suppression index).
    tables_running: BTreeMap<u64, u32>,
    /// Kind of the most recent running job per table — drives the
    /// kind-labeled suppression wording; merge labels reuse the shared
    /// [`Arc`] reasons so merge-only reports stay bit-identical.
    tables_running_kind: BTreeMap<u64, JobKind>,
    /// Running-job count per database (admission index).
    db_running: BTreeMap<Arc<str>, u32>,
    /// Tables with a retry pending (suppression index), with the kind
    /// of the rewrite awaiting retry.
    tables_retrying: BTreeMap<u64, JobKind>,
    /// Retry queue in scheduling order (drained front-to-back, stable).
    retries: VecDeque<RetryEntry>,
    /// `(submitted_at_ms, predicted_gbhr)` of recent admissions, for the
    /// rolling budget window. Book-kept only when a budget is configured.
    gbhr_window: VecDeque<(u64, f64)>,
    /// Running sum of `gbhr_window` (admission checks are O(1), not a
    /// window walk).
    gbhr_window_sum: f64,
    /// Tables settled since the incremental observer last drained them.
    dirty_pending: BTreeSet<u64>,
    /// Lease-evicted entries retained so a late outcome can still settle
    /// (feedback + dirty mark) without double-releasing slots. Bounded
    /// FIFO by job id order is irrelevant here: entries leave when their
    /// outcome arrives or when the map outgrows
    /// [`EVICTED_RETAINED_CAP`] (oldest job id dropped first).
    evicted: BTreeMap<u64, TrackedJob>,
    /// Recently settled job ids, insertion-ordered, so duplicate outcome
    /// delivery (at-least-once platforms, journal replay after a crash)
    /// is a no-op instead of a double count.
    settled_recent: VecDeque<u64>,
    /// Membership index over [`settled_recent`](Self::settled_recent).
    settled_recent_set: BTreeSet<u64>,
    /// Counters since the last report.
    counters: JobLedgerSummary,
    /// Shared drop/defer reasons (one allocation each, refcounted into
    /// every report line that uses them).
    reason_in_flight: Arc<str>,
    reason_retry_wait: Arc<str>,
    reason_fleet: Arc<str>,
    reason_db: Arc<str>,
    reason_gbhr: Arc<str>,
    reason_table: Arc<str>,
    reason_retry_pending: Arc<str>,
}

impl JobTracker {
    /// Creates a tracker with the given policy and an empty ledger.
    pub fn new(config: JobRuntimeConfig) -> Self {
        JobTracker {
            config,
            telemetry: crate::telemetry::TelemetrySink::disabled(),
            jobs: BTreeMap::new(),
            tables_running: BTreeMap::new(),
            tables_running_kind: BTreeMap::new(),
            db_running: BTreeMap::new(),
            tables_retrying: BTreeMap::new(),
            retries: VecDeque::new(),
            gbhr_window: VecDeque::new(),
            gbhr_window_sum: 0.0,
            dirty_pending: BTreeSet::new(),
            evicted: BTreeMap::new(),
            settled_recent: VecDeque::new(),
            settled_recent_set: BTreeSet::new(),
            counters: JobLedgerSummary::default(),
            reason_in_flight: Arc::from("in-flight: table has a live compaction job"),
            reason_retry_wait: Arc::from("in-flight: table awaiting a conflict retry"),
            reason_fleet: Arc::from("deferred: fleet concurrency slots exhausted"),
            reason_db: Arc::from("deferred: database concurrency slots exhausted"),
            reason_gbhr: Arc::from("deferred: GBHr budget window exhausted"),
            reason_table: Arc::from("deferred: table job submitted earlier this cycle"),
            reason_retry_pending: Arc::from("deferred: table has a retry pending"),
        }
    }

    /// The runtime policy.
    pub fn config(&self) -> &JobRuntimeConfig {
        &self.config
    }

    /// Attaches the pipeline's telemetry sink so ledger events land in
    /// the shared registry. Counters are recorded against the sink
    /// installed at the time of the event; attaching never alters
    /// ledger decisions.
    pub(crate) fn set_telemetry(&mut self, sink: crate::telemetry::TelemetrySink) {
        self.telemetry = sink;
    }

    /// Jobs currently running on the platform.
    pub fn in_flight(&self) -> usize {
        self.jobs.len()
    }

    /// Candidates waiting out a retry backoff.
    pub fn retry_pending(&self) -> usize {
        self.retries.len()
    }

    /// Predicted GBHr currently charged against the rolling budget
    /// window, as of the last admission check or registration (stale
    /// entries are pruned on admission, not on read). Always 0.0 when no
    /// [`gbhr_budget`](JobRuntimeConfig::gbhr_budget) is configured —
    /// the window is only book-kept under a budget. Surfaced so drivers
    /// can report budget-window pressure alongside the per-cycle
    /// [`JobLedgerSummary`].
    pub fn gbhr_window_usage(&self) -> f64 {
        self.gbhr_window_sum
    }

    /// Step 1 of the cycle protocol: expires overdue leases, then lists
    /// every table with work in flight — a running job or a pending
    /// retry — uid-ascending, each with its
    /// [`suppression_reason`](Self::suppression_reason). At most
    /// `max_in_flight` + retry-queue entries, whatever the fleet size.
    pub(crate) fn live_tables(&mut self, now_ms: u64) -> Vec<(u64, Arc<str>)> {
        self.expire_leases(now_ms);
        let running = self.tables_running.keys();
        let uids: BTreeSet<u64> = running
            .chain(self.tables_retrying.keys())
            .copied()
            .collect();
        uids.into_iter()
            .filter_map(|uid| Some((uid, self.suppression_reason(uid)?)))
            .collect()
    }

    /// Drop reason if `table_uid` currently has work in flight (running
    /// job or pending retry); `None` when the table is clear. Non-merge
    /// jobs name their kind in the reason; merge wording is byte-for-byte
    /// the pre-kind ledger's.
    pub fn suppression_reason(&self, table_uid: u64) -> Option<Arc<str>> {
        if self.tables_running.contains_key(&table_uid) {
            Some(
                match self
                    .tables_running_kind
                    .get(&table_uid)
                    .copied()
                    .unwrap_or_default()
                {
                    JobKind::Merge => self.reason_in_flight.clone(),
                    kind => Arc::from(format!("in-flight: table has a live {} job", kind.label())),
                },
            )
        } else {
            self.tables_retrying.get(&table_uid).map(|kind| match kind {
                JobKind::Merge => self.reason_retry_wait.clone(),
                kind => Arc::from(format!(
                    "in-flight: table awaiting a {} conflict retry",
                    kind.label()
                )),
            })
        }
    }

    /// Counts `rows` suppressed candidates (the pipeline maps
    /// [`live_tables`](Self::live_tables) to rows and pushes the reasons).
    pub(crate) fn note_suppressed(&mut self, rows: usize) {
        self.counters.suppressed += rows;
    }

    /// Labels a shared deferral reason with the submission's kind.
    /// Merge clones the shared [`Arc`] (bit-identical to the pre-kind
    /// ledger); other kinds append their label.
    fn kind_reason(base: &Arc<str>, kind: JobKind) -> Arc<str> {
        match kind {
            JobKind::Merge => base.clone(),
            kind => Arc::from(format!("{base} ({})", kind.label())),
        }
    }

    /// Admission check for one submission. `Ok(())` admits; `Err(reason)`
    /// defers (the caller reports the candidate, which re-enters ranking
    /// next cycle). Prunes the GBHr window as a side effect, and counts
    /// the verdict: a deferral into the cycle's summary, either into the
    /// per-kind admission/deferral telemetry.
    fn admit(
        &mut self,
        database: &str,
        table_uid: u64,
        predicted_gbhr: f64,
        kind: JobKind,
        now_ms: u64,
    ) -> Result<(), Arc<str>> {
        let verdict = self.admit_inner(database, table_uid, predicted_gbhr, kind, now_ms);
        self.counters.deferred += usize::from(verdict.is_err());
        let name = match verdict {
            Ok(()) => crate::telemetry::names::ACT_ADMITTED_TOTAL,
            Err(_) => crate::telemetry::names::ACT_DEFERRED_TOTAL,
        };
        self.telemetry.counter_add_labelled(
            name,
            crate::telemetry::names::LABEL_KIND,
            kind.label(),
            1,
        );
        verdict
    }

    fn admit_inner(
        &mut self,
        database: &str,
        table_uid: u64,
        predicted_gbhr: f64,
        kind: JobKind,
        now_ms: u64,
    ) -> Result<(), Arc<str>> {
        if self.tables_running.contains_key(&table_uid) {
            // Same-cycle double submission (two candidates of one table
            // admitted in different waves before the first settles).
            return Err(Self::kind_reason(&self.reason_table, kind));
        }
        if self.tables_retrying.contains_key(&table_uid) {
            // A retry is pending for this table (e.g. a wave-1 submission
            // failed transiently, or an inter-wave settle conflicted):
            // submitting more work for it now would race the retry — the
            // whole-table serialization the ledger exists to enforce.
            return Err(Self::kind_reason(&self.reason_retry_pending, kind));
        }
        if self.jobs.len() >= self.config.max_in_flight {
            return Err(Self::kind_reason(&self.reason_fleet, kind));
        }
        if self
            .db_running
            .get(database)
            .is_some_and(|n| *n as usize >= self.config.max_in_flight_per_database)
        {
            return Err(Self::kind_reason(&self.reason_db, kind));
        }
        if let Some(budget) = self.config.gbhr_budget {
            self.prune_gbhr_window(now_ms);
            if self.gbhr_window_sum + predicted_gbhr > budget {
                return Err(Self::kind_reason(&self.reason_gbhr, kind));
            }
        }
        Ok(())
    }

    /// Drops window entries older than the rolling horizon, keeping the
    /// running sum in step (re-zeroed when the window empties so float
    /// cancellation error cannot accumulate forever).
    fn prune_gbhr_window(&mut self, now_ms: u64) {
        let floor = now_ms.saturating_sub(self.config.gbhr_window_ms);
        while let Some((at, gbhr)) = self.gbhr_window.front().copied() {
            if at >= floor {
                break;
            }
            self.gbhr_window.pop_front();
            self.gbhr_window_sum -= gbhr;
        }
        if self.gbhr_window.is_empty() {
            self.gbhr_window_sum = 0.0;
        }
    }

    /// Charges the GBHr budget window for one scheduled submission: from
    /// [`register`](Self::register) for tracked jobs, directly for
    /// submissions the ledger cannot follow (no job id — see the
    /// [`TrackedExecutor`] contract); the platform does the work either
    /// way. `now_ms` must be non-decreasing across calls (`submit` passes
    /// the cycle time, never a wave offset): pruning stops at the first
    /// unexpired front entry, so a future stamp would pin older entries
    /// in the window past their horizon.
    fn charge_gbhr_window(&mut self, predicted_gbhr: f64, now_ms: u64) {
        if self.config.gbhr_budget.is_some() {
            self.gbhr_window.push_back((now_ms, predicted_gbhr));
            self.gbhr_window_sum += predicted_gbhr;
        }
    }

    /// Records a successfully scheduled submission in the ledger.
    fn register(
        &mut self,
        job_id: u64,
        candidate: &Candidate,
        prediction: &Prediction,
        attempts: u32,
        now_ms: u64,
    ) {
        *self
            .tables_running
            .entry(candidate.id.table_uid)
            .or_insert(0) += 1;
        self.tables_running_kind
            .insert(candidate.id.table_uid, prediction.kind);
        match prediction.kind {
            JobKind::Merge => {}
            JobKind::SortByColumn => self.counters.sorts_submitted += 1,
            JobKind::PartitionRelayout => self.counters.relayouts_submitted += 1,
            JobKind::DeletionVectorPurge => self.counters.purges_submitted += 1,
        }
        *self
            .db_running
            .entry(candidate.database.clone())
            .or_insert(0) += 1;
        self.charge_gbhr_window(prediction.gbhr, now_ms);
        self.jobs.insert(
            job_id,
            TrackedJob {
                candidate: candidate.clone(),
                prediction: prediction.clone(),
                attempts,
                submitted_ms: now_ms,
            },
        );
    }

    /// Evicts running entries whose [`job_lease_ms`](JobRuntimeConfig)
    /// elapsed without an outcome — the safety valve against lossy (or
    /// absent) outcome reporting pinning tables in the ledger forever.
    /// Evicted entries free their slots and suppression immediately, but
    /// are retained (bounded) so a late outcome — typically a journal
    /// replay after a crash — can still settle once: feedback and the
    /// dirty mark land, the already-released slots are left alone, and a
    /// second delivery is a no-op. No-op without a configured lease.
    fn expire_leases(&mut self, now_ms: u64) {
        let Some(lease) = self.config.job_lease_ms else {
            return;
        };
        let expired: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, job)| job.submitted_ms.saturating_add(lease) <= now_ms)
            .map(|(id, _)| *id)
            .collect();
        for job_id in expired {
            let job = self.jobs.remove(&job_id).expect("collected above");
            let uid = job.candidate.id.table_uid;
            self.release_slots(&job);
            // The job may still commit behind our back: re-observe the
            // table so the next cycle sees whatever actually happened.
            self.dirty_pending.insert(uid);
            self.counters.leases_expired += 1;
            self.evicted.insert(job_id, job);
            while self.evicted.len() > EVICTED_RETAINED_CAP {
                let oldest = *self.evicted.keys().next().expect("non-empty");
                self.evicted.remove(&oldest);
            }
        }
    }

    /// Returns a departing job's concurrency slots (table suppression +
    /// per-database count) — the single release path shared by `settle`
    /// and `expire_leases`, so admission and suppression state can never
    /// diverge between the two exits.
    fn release_slots(&mut self, job: &TrackedJob) {
        let uid = job.candidate.id.table_uid;
        if let Some(n) = self.tables_running.get_mut(&uid) {
            *n -= 1;
            if *n == 0 {
                self.tables_running.remove(&uid);
                self.tables_running_kind.remove(&uid);
            }
        }
        if let Some(n) = self.db_running.get_mut(&job.candidate.database) {
            *n -= 1;
            if *n == 0 {
                self.db_running.remove(&job.candidate.database);
            }
        }
    }

    /// Handles a submission that the platform did not schedule: transient
    /// errors re-enter the retry queue (within the retry budget),
    /// permanent errors and plan-empty no-ops are final.
    fn note_unscheduled(
        &mut self,
        candidate: &Candidate,
        prediction: &Prediction,
        attempts: u32,
        result: &ExecutionResult,
        now_ms: u64,
    ) {
        let transient = result.error.as_ref().is_some_and(|e| e.is_transient());
        if !transient {
            // Plan-empty no-op or permanent error: final on any attempt.
            // Not counted as retry exhaustion — that counter means "the
            // retry budget ran out"; permanent abandonments are visible
            // in the report's executed/retried entries instead.
            return;
        }
        if attempts > self.config.max_retries {
            self.counters.retries_exhausted += 1;
            return;
        }
        self.schedule_retry(
            candidate.clone(),
            prediction.clone(),
            now_ms + self.config.backoff_ms(attempts),
            attempts,
        );
    }

    fn schedule_retry(
        &mut self,
        candidate: Candidate,
        prediction: Prediction,
        due_ms: u64,
        attempts: u32,
    ) {
        self.tables_retrying
            .insert(candidate.id.table_uid, prediction.kind);
        self.retries.push_back(RetryEntry {
            candidate,
            prediction,
            due_ms,
            attempts,
        });
    }

    /// Settles a batch of polled outcomes: running jobs leave the ledger,
    /// successes yield feedback records (returned for ingestion),
    /// conflicts schedule a backoff retry (or exhaust), and every settled
    /// table is queued for dirty re-observation. Outcomes for jobs the
    /// tracker never registered are ignored; outcomes for job ids already
    /// settled (duplicate delivery, journal replay) are no-ops; outcomes
    /// for lease-evicted jobs settle late exactly once (see
    /// [`expire_leases`](Self::expire_leases)).
    pub(crate) fn settle(&mut self, outcomes: Vec<JobOutcome>) -> Vec<FeedbackRecord> {
        let mut feedback = Vec::new();
        for outcome in outcomes {
            if self.settled_recent_set.contains(&outcome.job_id) {
                continue;
            }
            let Some(job) = self.jobs.remove(&outcome.job_id) else {
                if let Some(job) = self.evicted.remove(&outcome.job_id) {
                    self.note_settled_id(outcome.job_id);
                    self.settle_evicted(job, &outcome, &mut feedback);
                }
                continue;
            };
            self.note_settled_id(outcome.job_id);
            let uid = job.candidate.id.table_uid;
            self.release_slots(&job);
            self.counters.settled += 1;
            match outcome.status {
                JobOutcomeStatus::Succeeded => {
                    self.counters.succeeded += 1;
                    self.dirty_pending.insert(uid);
                    feedback.push(job.feedback(&outcome));
                }
                JobOutcomeStatus::Conflicted => {
                    self.counters.conflicted += 1;
                    self.telemetry.counter_add_labelled(
                        crate::telemetry::names::ACT_CONFLICTS_TOTAL,
                        crate::telemetry::names::LABEL_KIND,
                        job.prediction.kind.label(),
                        1,
                    );
                    // The conflicting writer changed the table; re-observe
                    // it even if the changelog is quiet on this connector.
                    self.dirty_pending.insert(uid);
                    if job.attempts > self.config.max_retries {
                        self.counters.retries_exhausted += 1;
                    } else {
                        let due = outcome.finished_at_ms + self.config.backoff_ms(job.attempts);
                        self.schedule_retry(job.candidate, job.prediction, due, job.attempts);
                    }
                }
                JobOutcomeStatus::Failed => {
                    self.counters.failed += 1;
                }
            }
        }
        feedback
    }

    /// Remembers a settled job id in the bounded duplicate-delivery
    /// window.
    fn note_settled_id(&mut self, job_id: u64) {
        if self.settled_recent_set.insert(job_id) {
            self.settled_recent.push_back(job_id);
            while self.settled_recent.len() > SETTLED_RECENT_CAP {
                let dropped = self.settled_recent.pop_front().expect("non-empty");
                self.settled_recent_set.remove(&dropped);
            }
        }
    }

    /// Settles a late outcome for a lease-evicted job: feedback and the
    /// dirty mark land as they would have in time, but the eviction
    /// already released the slots and suppression, so nothing else moves.
    /// Conflicts do not re-enter the retry queue — the eviction freed the
    /// table, so it competes again through ordinary ranking off its
    /// re-observed (dirty) stats.
    fn settle_evicted(
        &mut self,
        job: TrackedJob,
        outcome: &JobOutcome,
        feedback: &mut Vec<FeedbackRecord>,
    ) {
        self.counters.late_settled += 1;
        self.dirty_pending.insert(job.candidate.id.table_uid);
        if outcome.status == JobOutcomeStatus::Succeeded {
            feedback.push(job.feedback(outcome));
        }
    }

    /// Retries whose backoff has elapsed, in scheduling order, each with
    /// the submissions already spent on it, for the act phase to
    /// re-submit.
    fn take_due_retries(&mut self, now_ms: u64) -> Vec<(Candidate, Prediction, u32)> {
        let mut due = Vec::new();
        let mut waiting = VecDeque::with_capacity(self.retries.len());
        for entry in self.retries.drain(..) {
            if entry.due_ms <= now_ms {
                due.push((entry.candidate, entry.prediction, entry.attempts));
            } else {
                waiting.push_back(entry);
            }
        }
        self.retries = waiting;
        self.reindex_retries();
        due
    }

    /// Rebuilds the retry suppression index from the queue (a due entry's
    /// table is re-suppressed when its resubmission registers).
    fn reindex_retries(&mut self) {
        let index = |e: &RetryEntry| (e.candidate.id.table_uid, e.prediction.kind);
        self.tables_retrying = self.retries.iter().map(index).collect();
    }

    /// Counts one executed retry submission (per-kind in telemetry).
    fn note_retry_submitted(&mut self, kind: JobKind) {
        self.counters.retries_submitted += 1;
        self.telemetry.counter_add_labelled(
            crate::telemetry::names::ACT_RETRIES_TOTAL,
            crate::telemetry::names::LABEL_KIND,
            kind.label(),
            1,
        );
    }

    /// Tables settled since the last drain — the incremental observer
    /// marks them dirty so the next observe re-fetches their stats.
    pub fn take_settled_dirty(&mut self) -> Vec<u64> {
        let drained: Vec<u64> = self.dirty_pending.iter().copied().collect();
        self.dirty_pending.clear();
        drained
    }

    /// Snapshot of this cycle's ledger activity, resetting the per-cycle
    /// counters (gauges `in_flight`/`retry_pending` read live state).
    pub(crate) fn take_summary(&mut self) -> JobLedgerSummary {
        let mut summary = std::mem::take(&mut self.counters);
        summary.in_flight = self.jobs.len();
        summary.retry_pending = self.retries.len();
        summary
    }
}

/// Snapshot + crash-recovery surface (see [`crate::durability`]).
impl JobTracker {
    /// Re-adopts a journaled submission after a restore: registers it
    /// exactly as the original `execute` did unless the ledger already
    /// knows the job (still running, already settled, or lease-evicted),
    /// in which case the replay is a no-op. Returns whether the job was
    /// adopted.
    pub(crate) fn readopt(
        &mut self,
        job_id: u64,
        candidate: &Candidate,
        prediction: &Prediction,
        attempts: u32,
        now_ms: u64,
    ) -> bool {
        if self.jobs.contains_key(&job_id)
            || self.settled_recent_set.contains(&job_id)
            || self.evicted.contains_key(&job_id)
        {
            return false;
        }
        self.register(job_id, candidate, prediction, attempts, now_ms);
        true
    }

    /// Whether `job_id` sits in the recently-settled dedupe window — a
    /// replayed settlement for it would be dropped, so journal replay
    /// counts it as ignored rather than applied.
    pub(crate) fn already_settled(&self, job_id: u64) -> bool {
        self.settled_recent_set.contains(&job_id)
    }

    /// Writes the complete cross-cycle ledger state into a snapshot. The
    /// config is not written: the configuration fingerprint pins it, so a
    /// restore takes the restoring pipeline's. The derived indexes
    /// (`tables_running`, `db_running`, `tables_retrying`, the settled-id
    /// set) are rebuilt on restore rather than persisted;
    /// `gbhr_window_sum` travels as raw IEEE-754 bits because its
    /// incrementally accumulated value differs in the low bits from a
    /// fresh re-sum, and admission comparisons must stay bit-identical
    /// across a restore.
    pub(crate) fn snapshot_write(&self, enc: &mut lakesim_storage::Encoder) {
        use crate::durability::{put_candidate, put_prediction};
        for jobs in [&self.jobs, &self.evicted] {
            enc.put_u64(jobs.len() as u64);
            for (job_id, job) in jobs.iter() {
                enc.put_u64(*job_id);
                put_candidate(enc, &job.candidate);
                put_prediction(enc, &job.prediction);
                enc.put_u32(job.attempts);
                enc.put_u64(job.submitted_ms);
            }
        }
        enc.put_u64(self.retries.len() as u64);
        for entry in &self.retries {
            put_candidate(enc, &entry.candidate);
            put_prediction(enc, &entry.prediction);
            enc.put_u64(entry.due_ms);
            enc.put_u32(entry.attempts);
        }
        enc.put_u64(self.gbhr_window.len() as u64);
        for (at_ms, gbhr) in &self.gbhr_window {
            enc.put_u64(*at_ms);
            enc.put_f64(*gbhr);
        }
        enc.put_f64(self.gbhr_window_sum);
        enc.put_u64(self.dirty_pending.len() as u64);
        for uid in &self.dirty_pending {
            enc.put_u64(*uid);
        }
        enc.put_u64(self.settled_recent.len() as u64);
        for job_id in &self.settled_recent {
            enc.put_u64(*job_id);
        }
        for counter in [
            self.counters.settled,
            self.counters.succeeded,
            self.counters.conflicted,
            self.counters.failed,
            self.counters.retries_submitted,
            self.counters.retries_exhausted,
            self.counters.suppressed,
            self.counters.deferred,
            self.counters.leases_expired,
            self.counters.late_settled,
            self.counters.sorts_submitted,
            self.counters.relayouts_submitted,
            self.counters.purges_submitted,
        ] {
            enc.put_u64(counter as u64);
        }
    }

    /// Restores a tracker under `config`, the restoring pipeline's (which
    /// the fingerprint matched), from a snapshot, rebuilding the derived
    /// suppression/admission indexes from the decoded ledger.
    pub(crate) fn snapshot_read(
        dec: &mut lakesim_storage::Decoder<'_>,
        config: JobRuntimeConfig,
    ) -> Result<JobTracker, lakesim_storage::CodecError> {
        use crate::durability::{take_candidate, take_prediction};
        use lakesim_storage::CodecError;
        let mut tracker = JobTracker::new(config);
        for evicted in [false, true] {
            for _ in 0..dec.take_len(16, "ledger jobs")? {
                let job_id = dec.take_u64("job id")?;
                let job = TrackedJob {
                    candidate: take_candidate(dec)?,
                    prediction: take_prediction(dec)?,
                    attempts: dec.take_u32("job attempts")?,
                    submitted_ms: dec.take_u64("job submitted_ms")?,
                };
                let map = if evicted {
                    &mut tracker.evicted
                } else {
                    &mut tracker.jobs
                };
                if map.insert(job_id, job).is_some() {
                    return Err(CodecError::Invalid("duplicate ledger job id"));
                }
            }
        }
        for _ in 0..dec.take_len(16, "retry queue")? {
            tracker.retries.push_back(RetryEntry {
                candidate: take_candidate(dec)?,
                prediction: take_prediction(dec)?,
                due_ms: dec.take_u64("retry due_ms")?,
                attempts: dec.take_u32("retry attempts")?,
            });
        }
        for _ in 0..dec.take_len(16, "gbhr window")? {
            let at_ms = dec.take_u64("window at_ms")?;
            let gbhr = dec.take_f64("window gbhr")?;
            tracker.gbhr_window.push_back((at_ms, gbhr));
        }
        tracker.gbhr_window_sum = dec.take_f64("gbhr window sum")?;
        for _ in 0..dec.take_len(8, "dirty pending")? {
            tracker.dirty_pending.insert(dec.take_u64("dirty uid")?);
        }
        for _ in 0..dec.take_len(8, "settled recent")? {
            let job_id = dec.take_u64("settled job id")?;
            if tracker.settled_recent_set.insert(job_id) {
                tracker.settled_recent.push_back(job_id);
            }
        }
        let mut counters = [0u64; 13];
        for counter in &mut counters {
            *counter = dec.take_u64("ledger counter")?;
        }
        tracker.counters = JobLedgerSummary {
            in_flight: 0,
            retry_pending: 0,
            settled: counters[0] as usize,
            succeeded: counters[1] as usize,
            conflicted: counters[2] as usize,
            failed: counters[3] as usize,
            retries_submitted: counters[4] as usize,
            retries_exhausted: counters[5] as usize,
            suppressed: counters[6] as usize,
            deferred: counters[7] as usize,
            leases_expired: counters[8] as usize,
            late_settled: counters[9] as usize,
            sorts_submitted: counters[10] as usize,
            relayouts_submitted: counters[11] as usize,
            purges_submitted: counters[12] as usize,
        };
        // Rebuild the derived indexes from the restored ledger. Evicted
        // entries are excluded: their slots were released at eviction.
        for job in tracker.jobs.values() {
            *tracker
                .tables_running
                .entry(job.candidate.id.table_uid)
                .or_insert(0) += 1;
            tracker
                .tables_running_kind
                .insert(job.candidate.id.table_uid, job.prediction.kind);
            *tracker
                .db_running
                .entry(job.candidate.database.clone())
                .or_insert(0) += 1;
        }
        tracker.reindex_retries();
        Ok(tracker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{CandidateId, TableRef};
    use crate::stats::CandidateStats;

    fn candidate(uid: u64, db: &str) -> Candidate {
        let table = TableRef {
            table_uid: uid,
            database: db.into(),
            name: format!("t{uid}").into(),
            partitioned: false,
            compaction_enabled: true,
            is_intermediate: false,
        };
        Candidate::new(CandidateId::table(uid), &table, CandidateStats::default())
    }

    fn prediction() -> Prediction {
        Prediction {
            reduction: 10,
            gbhr: 1.0,
            trigger: "test".into(),
            kind: JobKind::Merge,
        }
    }

    fn kind_prediction(kind: JobKind) -> Prediction {
        Prediction {
            kind,
            ..prediction()
        }
    }

    fn outcome(job_id: u64, uid: u64, status: JobOutcomeStatus, at: u64) -> JobOutcome {
        JobOutcome {
            job_id,
            table_uid: uid,
            status,
            finished_at_ms: at,
            actual_reduction: if status == JobOutcomeStatus::Succeeded {
                8
            } else {
                0
            },
            actual_gbhr: 1.2,
        }
    }

    #[test]
    fn register_suppresses_until_settled() {
        let mut t = JobTracker::new(JobRuntimeConfig::default());
        assert!(t.suppression_reason(1).is_none());
        t.register(100, &candidate(1, "db"), &prediction(), 1, 0);
        assert!(t
            .suppression_reason(1)
            .unwrap()
            .contains("live compaction job"));
        assert_eq!(t.in_flight(), 1);
        let fb = t.settle(vec![outcome(100, 1, JobOutcomeStatus::Succeeded, 500)]);
        assert_eq!(fb.len(), 1);
        assert_eq!(fb[0].actual_reduction, 8);
        assert!(t.suppression_reason(1).is_none());
        assert_eq!(t.take_settled_dirty(), vec![1]);
        assert!(t.take_settled_dirty().is_empty(), "drain is one-shot");
    }

    #[test]
    fn conflict_schedules_backoff_retry_then_exhausts() {
        let config = JobRuntimeConfig {
            max_retries: 1,
            retry_backoff_ms: 1_000,
            retry_backoff_cap_ms: 4_000,
            ..JobRuntimeConfig::default()
        };
        let mut t = JobTracker::new(config);
        t.register(7, &candidate(3, "db"), &prediction(), 1, 0);
        let fb = t.settle(vec![outcome(7, 3, JobOutcomeStatus::Conflicted, 100)]);
        assert!(fb.is_empty(), "conflicts yield no feedback");
        assert_eq!(t.retry_pending(), 1);
        assert!(t.suppression_reason(3).unwrap().contains("conflict retry"));
        // Not due before the backoff elapses.
        assert!(t.take_due_retries(1_000).is_empty());
        assert!(t.suppression_reason(3).is_some(), "still suppressed");
        let due = t.take_due_retries(1_100);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].2, 1, "one submission spent");
        // Second conflict with attempts now beyond the budget: exhausted.
        t.register(8, &candidate(3, "db"), &prediction(), 2, 1_100);
        t.settle(vec![outcome(8, 3, JobOutcomeStatus::Conflicted, 1_200)]);
        assert_eq!(t.retry_pending(), 0);
        let summary = t.take_summary();
        assert_eq!(summary.conflicted, 2);
        assert_eq!(summary.retries_exhausted, 1);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let c = JobRuntimeConfig {
            retry_backoff_ms: 1_000,
            retry_backoff_cap_ms: 3_000,
            ..JobRuntimeConfig::default()
        };
        assert_eq!(c.backoff_ms(1), 1_000);
        assert_eq!(c.backoff_ms(2), 2_000);
        assert_eq!(c.backoff_ms(3), 3_000, "capped");
        assert_eq!(c.backoff_ms(30), 3_000, "shift saturates");
    }

    #[test]
    fn admission_enforces_slots_and_budget() {
        let config = JobRuntimeConfig {
            max_in_flight: 2,
            max_in_flight_per_database: 1,
            gbhr_budget: Some(2.5),
            gbhr_window_ms: 10_000,
            ..JobRuntimeConfig::default()
        };
        let mut t = JobTracker::new(config);
        let merge = JobKind::Merge;
        assert!(t.admit("db_a", 1, 1.0, merge, 0).is_ok());
        t.register(1, &candidate(1, "db_a"), &prediction(), 1, 0);
        // Same table: blocked; same database: blocked; other db fine.
        assert!(t
            .admit("db_a", 1, 1.0, merge, 0)
            .unwrap_err()
            .contains("table"));
        assert!(t
            .admit("db_a", 2, 1.0, merge, 0)
            .unwrap_err()
            .contains("database"));
        assert!(t.admit("db_b", 3, 1.0, merge, 0).is_ok());
        t.register(2, &candidate(3, "db_b"), &prediction(), 1, 0);
        // Fleet slots exhausted.
        assert!(t
            .admit("db_c", 4, 0.1, merge, 0)
            .unwrap_err()
            .contains("fleet"));
        // Settle one job: fleet + db slots free, but the GBHr window
        // still remembers both submissions (2.0 spent of 2.5).
        t.settle(vec![outcome(1, 1, JobOutcomeStatus::Succeeded, 100)]);
        assert!(t
            .admit("db_a", 5, 1.0, merge, 200)
            .unwrap_err()
            .contains("GBHr"));
        assert!(t.admit("db_a", 5, 0.4, merge, 200).is_ok());
        // Window rolls past the submissions: budget replenishes.
        assert!(t.admit("db_a", 5, 1.0, merge, 20_001).is_ok());
    }

    #[test]
    fn admission_blocks_tables_with_a_pending_retry() {
        use crate::connector::ExecutionError;
        let mut t = JobTracker::new(JobRuntimeConfig {
            retry_backoff_ms: 1_000,
            retry_backoff_cap_ms: 4_000,
            ..JobRuntimeConfig::default()
        });
        // A transient submit failure queues a retry for table 1: further
        // submissions for that table must defer until the retry resolves
        // (whole-table serialization across the retry window).
        let failed = ExecutionResult {
            error: Some(ExecutionError::transient("storage timeout")),
            ..ExecutionResult::default()
        };
        t.note_unscheduled(&candidate(1, "db"), &prediction(), 1, &failed, 0);
        let merge = JobKind::Merge;
        assert!(t
            .admit("db", 1, 0.5, merge, 0)
            .unwrap_err()
            .contains("retry"));
        assert!(
            t.admit("db", 2, 0.5, merge, 0).is_ok(),
            "other tables unaffected"
        );
        // Once the retry is taken for resubmission the table admits
        // again (the resubmission itself is what re-registers it).
        let due = t.take_due_retries(10_000);
        assert_eq!(due.len(), 1);
        assert!(t.admit("db", 1, 0.5, merge, 10_000).is_ok());
    }

    #[test]
    fn gbhr_window_stays_empty_without_a_budget() {
        let mut t = JobTracker::new(JobRuntimeConfig::default());
        assert_eq!(t.config().gbhr_budget, None);
        for i in 0..50 {
            t.register(i, &candidate(i, "db"), &prediction(), 1, i * 10);
        }
        assert!(
            t.gbhr_window.is_empty(),
            "no budget ⇒ no window bookkeeping to leak"
        );
        // With a budget the window fills and admission prunes it (slots
        // sized so only the budget rule is in play).
        let mut t = JobTracker::new(JobRuntimeConfig {
            gbhr_budget: Some(100.0),
            gbhr_window_ms: 1_000,
            max_in_flight: 1024,
            max_in_flight_per_database: 1024,
            ..JobRuntimeConfig::default()
        });
        for i in 0..50 {
            t.register(i, &candidate(i, "db"), &prediction(), 1, i * 10);
        }
        assert_eq!(t.gbhr_window.len(), 50);
        assert!((t.gbhr_window_sum - 50.0).abs() < 1e-9, "running sum kept");
        assert!(t.admit("db", 999, 0.0, JobKind::Merge, 10_000).is_ok());
        assert!(t.gbhr_window.is_empty(), "stale entries pruned on admit");
        assert_eq!(t.gbhr_window_sum, 0.0, "sum re-zeroed with the window");
        // An id-less scheduled submission still charges the budget.
        t.charge_gbhr_window(99.5, 10_000);
        assert!(t
            .admit("db", 999, 1.0, JobKind::Merge, 10_000)
            .unwrap_err()
            .contains("GBHr"));
    }

    #[test]
    fn job_lease_evicts_stuck_entries() {
        let mut t = JobTracker::new(JobRuntimeConfig {
            job_lease_ms: Some(10_000),
            ..JobRuntimeConfig::default()
        });
        t.register(1, &candidate(1, "db"), &prediction(), 1, 0);
        t.expire_leases(9_999);
        assert_eq!(t.in_flight(), 1, "lease not yet elapsed");
        assert!(t.suppression_reason(1).is_some());
        t.expire_leases(10_000);
        assert_eq!(t.in_flight(), 0, "stuck entry evicted");
        assert!(t.suppression_reason(1).is_none());
        assert!(
            t.admit("db", 1, 0.5, JobKind::Merge, 10_000).is_ok(),
            "slots freed"
        );
        assert_eq!(t.take_settled_dirty(), vec![1], "table re-observed");
        // A late outcome for the evicted job settles once: feedback and
        // the dirty mark land, nothing double-releases.
        let fb = t.settle(vec![outcome(1, 1, JobOutcomeStatus::Succeeded, 11_000)]);
        assert_eq!(fb.len(), 1, "late success still yields feedback");
        assert_eq!(t.take_settled_dirty(), vec![1]);
        // ...and a duplicate of that late outcome is a no-op.
        let fb = t.settle(vec![outcome(1, 1, JobOutcomeStatus::Succeeded, 11_000)]);
        assert!(fb.is_empty());
        let s = t.take_summary();
        assert_eq!(s.leases_expired, 1);
        assert_eq!(s.late_settled, 1);
        assert_eq!(s.settled, 0, "late settles are counted separately");
        // Without a lease, nothing ever expires.
        let mut t = JobTracker::new(JobRuntimeConfig::default());
        t.register(1, &candidate(1, "db"), &prediction(), 1, 0);
        t.expire_leases(u64::MAX);
        assert_eq!(t.in_flight(), 1);
    }

    #[test]
    fn unknown_job_outcomes_are_ignored() {
        let mut t = JobTracker::new(JobRuntimeConfig::default());
        let fb = t.settle(vec![outcome(999, 1, JobOutcomeStatus::Succeeded, 1)]);
        assert!(fb.is_empty());
        assert!(t.take_summary().is_quiet());
    }

    #[test]
    fn transient_submit_errors_retry_permanent_do_not() {
        use crate::connector::ExecutionError;
        let mut t = JobTracker::new(JobRuntimeConfig {
            max_retries: 1,
            ..JobRuntimeConfig::default()
        });
        let c = candidate(1, "db");
        let p = prediction();
        let transient = ExecutionResult {
            error: Some(ExecutionError::transient("storage timeout")),
            ..ExecutionResult::default()
        };
        t.note_unscheduled(&c, &p, 1, &transient, 0);
        assert_eq!(t.retry_pending(), 1);
        let permanent = ExecutionResult {
            error: Some(ExecutionError::permanent("table dropped")),
            ..ExecutionResult::default()
        };
        t.note_unscheduled(&candidate(2, "db"), &p, 1, &permanent, 0);
        assert_eq!(t.retry_pending(), 1, "permanent errors never retry");
        // Beyond the retry budget: exhausted instead of queued.
        t.note_unscheduled(&candidate(3, "db"), &p, 2, &transient, 0);
        assert_eq!(t.retry_pending(), 1);
        assert_eq!(t.take_summary().retries_exhausted, 1);
    }

    #[test]
    fn non_merge_kinds_label_reasons_and_count() {
        let mut t = JobTracker::new(JobRuntimeConfig::default());
        let sort = kind_prediction(JobKind::SortByColumn);
        t.register(1, &candidate(1, "db"), &sort, 1, 0);
        assert_eq!(
            &*t.suppression_reason(1).unwrap(),
            "in-flight: table has a live sort-by-column job"
        );
        assert_eq!(
            &*t.admit("db", 1, 0.5, JobKind::SortByColumn, 0).unwrap_err(),
            "deferred: table job submitted earlier this cycle (sort-by-column)"
        );
        // A conflicted sort waits out its retry with a labeled reason.
        t.settle(vec![outcome(1, 1, JobOutcomeStatus::Conflicted, 100)]);
        assert_eq!(
            &*t.suppression_reason(1).unwrap(),
            "in-flight: table awaiting a sort-by-column conflict retry"
        );
        t.register(
            2,
            &candidate(2, "db"),
            &kind_prediction(JobKind::PartitionRelayout),
            1,
            0,
        );
        t.register(
            3,
            &candidate(3, "db"),
            &kind_prediction(JobKind::DeletionVectorPurge),
            1,
            0,
        );
        t.register(4, &candidate(4, "db"), &prediction(), 1, 0);
        let s = t.take_summary();
        assert_eq!(s.sorts_submitted, 1);
        assert_eq!(s.relayouts_submitted, 1);
        assert_eq!(s.purges_submitted, 1);
        assert!(s.to_string().contains("kinds=(sort=1 relayout=1 purge=1)"));
        // Merge-only ledgers never render the kinds segment.
        let mut t = JobTracker::new(JobRuntimeConfig::default());
        t.register(9, &candidate(9, "db"), &prediction(), 1, 0);
        assert!(!t.take_summary().to_string().contains("kinds="));
    }

    /// A platform that answers every submission alike and records when
    /// it was called.
    struct Answering(ExecutionResult, Vec<u64>);

    impl CompactionExecutor for Answering {
        fn execute(&mut self, _: &Candidate, _: &Prediction, now_ms: u64) -> ExecutionResult {
            self.1.push(now_ms);
            self.0.clone()
        }
    }

    /// The one submission path over a denial and the four platform
    /// answers, as a first attempt (`spent` 0) and as a retry (`spent`
    /// 1), at cycle time 5 000 with the platform called at 9 000.
    #[test]
    fn submit_books_every_answer_for_first_attempts_and_retries() {
        use crate::connector::ExecutionError;
        let answer = |scheduled, job_id, error| ExecutionResult {
            scheduled,
            job_id,
            error,
            ..ExecutionResult::default()
        };
        let transient = answer(false, None, Some(ExecutionError::transient("timeout")));
        let permanent = answer(false, None, Some(ExecutionError::permanent("dropped")));
        for spent in [0u32, 1] {
            let retry = usize::from(spent > 0);
            // (fleet slots, platform answer) → (deferred, in flight,
            // retries queued, budget-window charges).
            let cases = [
                (0, answer(true, Some(7), None), (1, 0, retry, 0)),
                (9, answer(true, Some(7), None), (0, 1, 0, 1)),
                (9, answer(true, None, None), (0, 0, 0, 1)),
                (9, transient.clone(), (0, 0, 1, 0)),
                (9, permanent.clone(), (0, 0, 0, 0)),
            ];
            for (max_in_flight, answer, expect) in cases {
                let at = format!("spent={spent} slots={max_in_flight} {answer:?}");
                let budget = Some(100.0);
                let mut t = JobTracker::new(JobRuntimeConfig {
                    max_in_flight,
                    gbhr_budget: budget,
                    ..JobRuntimeConfig::default()
                });
                let mut platform = Untracked(Answering(answer.clone(), Vec::new()));
                let mut phase = ActPhase {
                    tracker: Some(&mut t),
                    exec: &mut platform,
                    now_ms: 5_000,
                    price: &|_| (0, 0.0),
                    out: ActOutcome::default(),
                };
                let verdict = phase.submit(&candidate(1, "db"), &prediction(), spent, 9_000);
                let credited = phase.out.total_predicted_gbhr;
                // Deferred ⇔ `Err` ⇔ the platform was not called.
                let called = usize::from(expect.0 == 0);
                assert_eq!(
                    verdict.ok(),
                    (called == 1).then_some(answer.clone()),
                    "{at}"
                );
                assert_eq!(platform.0 .1, vec![9_000; called], "{at}");
                // The ledger is stamped with the cycle time, a tracked job
                // carries `spent + 1` attempts, only scheduled results are
                // credited. A deferred retry is due now with its `spent`
                // intact; a transient failure waits out a backoff with
                // `spent + 1` behind it.
                let booked = |j: &TrackedJob| (j.attempts, j.submitted_ms) == (spent + 1, 5_000);
                assert!(t.jobs.values().all(booked), "{at}");
                assert!(t.gbhr_window.iter().all(|w| *w == (5_000, 1.0)), "{at}");
                assert_eq!(credited > 0.0, called == 1 && answer.scheduled, "{at}");
                let backoff = t.config().backoff_ms(spent + 1) * called as u64;
                let queued = (5_000 + backoff, spent + called as u32);
                let is_queued = |r: &RetryEntry| (r.due_ms, r.attempts) == queued;
                assert!(t.retries.iter().all(is_queued), "{at}");
                let (charges, s) = (t.gbhr_window.len(), t.take_summary());
                let counted = (s.deferred, s.in_flight, s.retry_pending, charges);
                assert_eq!(
                    (counted, s.retries_submitted),
                    (expect, retry * called),
                    "{at}"
                );
            }
        }
    }

    /// `live_tables` lists what a per-uid `suppression_reason` probe
    /// finds — same uids, same reasons — on a ledger mixing running jobs,
    /// pending retries and a non-merge kind, after expiring one lease.
    #[test]
    fn live_tables_match_the_per_table_probe() {
        let mut t = JobTracker::new(JobRuntimeConfig {
            job_lease_ms: Some(1_000),
            ..JobRuntimeConfig::default()
        });
        let (merge, sort) = (prediction(), kind_prediction(JobKind::SortByColumn));
        t.register(1, &candidate(7, "db"), &sort, 1, 0);
        for (job, uid, p) in [(2, 5, &merge), (3, 2, &sort), (4, 9, &merge), (5, 3, &sort)] {
            t.register(job, &candidate(uid, "db"), p, 1, 500);
        }
        let conflict = |job, uid| outcome(job, uid, JobOutcomeStatus::Conflicted, 600);
        t.settle(vec![conflict(4, 9), conflict(5, 3)]);
        assert!(t.suppression_reason(7).is_some(), "lease still running");
        let live = t.live_tables(1_000);
        assert_eq!(t.take_summary().leases_expired, 1, "table 7's ran out");
        let probe = |uid| Some((uid, t.suppression_reason(uid)?));
        assert_eq!(live, (0..12).filter_map(probe).collect::<Vec<_>>());
        let reasons: Vec<(u64, &str)> = live.iter().map(|(uid, r)| (*uid, &**r)).collect();
        let sort_retry = "in-flight: table awaiting a sort-by-column conflict retry";
        let expect = [
            (2, "in-flight: table has a live sort-by-column job"),
            (3, sort_retry),
            (5, "in-flight: table has a live compaction job"),
            (9, "in-flight: table awaiting a conflict retry"),
        ];
        assert_eq!(reasons, expect);
    }

    #[test]
    fn summary_resets_counters_but_keeps_gauges() {
        let mut t = JobTracker::new(JobRuntimeConfig::default());
        t.register(1, &candidate(1, "db"), &prediction(), 1, 0);
        t.note_suppressed(1);
        let s = t.take_summary();
        assert_eq!(s.suppressed, 1);
        assert_eq!(s.in_flight, 1);
        let s2 = t.take_summary();
        assert_eq!(s2.suppressed, 0, "counters reset");
        assert_eq!(s2.in_flight, 1, "gauge persists");
        assert!(!s2.is_quiet());
    }
}
