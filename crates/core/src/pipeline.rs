//! The assembled OODA pipeline (§3.3, Fig. 4).
//!
//! The pipeline is **index-native end-to-end**: filter and orient consume
//! [`FleetObservation`] entries by position — candidate views are built
//! straight over observation-backed stats references, so no
//! `Vec<Candidate>` is materialized in the hot cycle (only the handful of
//! *selected* candidates are built for the act phase). The orient and
//! decide phases are columnar. The `ORIENT` span fills a row-major
//! scratch of trait values, thins it once (rows of live-job tables and
//! rows holding a NaN drop with a reason), transposes only the kept rows
//! into a [`TraitMatrix`] (one contiguous `f64` column per trait), and
//! installs the unthinned scratch as the next cache generation. Ranking
//! consumes the matrix by index — no per-candidate maps, no id-keyed
//! side tables, no full fleet sort.
//!
//! Across incremental cycles a [`CycleCache`](crate::cache) retains one
//! generation — each table's filter verdicts (with drop reasons), its
//! trait-matrix rows and the rank memo over them — keyed by the
//! observation's change-cursor chain: an incremental cycle recomputes
//! filter/orient only for dirty tables, splices runs of quiet tables
//! from the generation, and re-scores only the rows it recomputed.
//! Selection stays global. See the [`crate::cache`] module docs for the
//! exact invalidation rules (cursor chain, config epoch, scope/width, and
//! the time-sensitivity gate for filter chains).
//!
//! The act phase belongs to [`crate::act`]: this module materializes the
//! selected candidates, has the scheduler plan them, freezes calibration
//! and ingests the phase's feedback afterwards. With a job runtime
//! attached ([`AutoComp::with_job_tracker`]) the ledger also names its
//! live tables after the cache splice (so cached rows survive a job).
//! Hand [`AutoComp::cycle`] an [`Executor::Tracked`] so finished jobs
//! settle.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use crate::act::{
    pricing, ActOutcome, ActPhase, Executor, JobLedgerSummary, JobOutcome, JobRuntimeConfig,
    JobTracker,
};
use crate::cache::{CacheGen, CycleCache, CycleCacheStats};
use crate::candidate::{Candidate, CandidateId, CandidateView, ScopeKind, TableRef};
use crate::connector::{ExecutionResult, LakeConnector, Prediction};
use crate::durability::{JournalEvent, RecoveryReport, ReplaySummary, SnapshotContext};
use crate::error::AutoCompError;
use crate::feedback::{EstimationFeedback, FeedbackRecord};
use crate::filter::{chain_time_sensitive, evaluate_chain, CandidateFilter};
use crate::matrix::TraitMatrix;
use crate::observe::{FleetObservation, FleetObserver, ObserveRequest, TableObservation, UidMap};
use crate::rank::{
    rank_with_memo, DecisionNote, RankCycleStats, RankDelta, RankSource, RankedEntries,
    RankingPolicy, NO_PRIOR_ROW, RANKED_PREFIX_MIN,
};
use crate::report::{decision_rows, render_table};
use crate::schedule::{ParallelTablesScheduler, Scheduler};
use crate::scope::ScopeStrategy;
use crate::stats::CandidateStats;
use crate::telemetry::{names as tnames, phase as tphase, TelemetrySink};
use crate::traits::TraitComputer;
use crate::Result;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct AutoCompConfig {
    /// Candidate scoping strategy (FR1).
    pub scope: ScopeStrategy,
    /// Ranking/selection policy (FR2).
    pub policy: RankingPolicy,
    /// Label recorded as the trigger of executed jobs (e.g. `"periodic"`).
    pub trigger_label: String,
    /// Apply feedback-derived calibration to predictions (§7 extension).
    pub calibrate: bool,
}

/// One executed (scheduled) job in a cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutedJob {
    /// Candidate compacted.
    pub id: CandidateId,
    /// Prediction handed to the platform.
    pub prediction: Prediction,
    /// Platform scheduling result.
    pub result: ExecutionResult,
    /// Wave the job ran in.
    pub wave: usize,
}

/// Full decision trail of one pipeline cycle (NFR2: "deterministic
/// decision-making simplifies debugging, testing, benchmarking, and
/// documenting the optimizer's behavior").
#[derive(Debug, Clone)]
pub struct CycleReport {
    /// Cycle timestamp.
    pub at_ms: u64,
    /// Scope label (borrowed for the static scope strategies).
    pub scope: Cow<'static, str>,
    /// Candidates generated in the observe phase.
    pub generated: usize,
    /// Candidates dropped by filters or orient sanitization, with
    /// reasons (shared `Arc<str>`s: on cache-splice cycles a reason is a
    /// refcount bump, not a fresh allocation per dropped candidate).
    pub dropped: Vec<(CandidateId, Arc<str>)>,
    /// Columnar trait values for the ranked candidates; `ranked` entries
    /// index into its rows.
    pub traits: TraitMatrix,
    /// Ranked candidates with scores and selection: best-first for the
    /// materialized prefix (all selected rows plus the first
    /// [`RANKED_PREFIX_MIN`] report rows, eagerly held —
    /// [`RankedEntries::head`]), then candidate order. On hot
    /// single-candidate-scope paths the candidate-order tail is
    /// generated lazily on iteration ([`RankedEntries::iter`] /
    /// [`RankedEntries::to_vec`]), bit-identical to the eager output.
    pub ranked: RankedEntries,
    /// Jobs handed to the executor.
    pub executed: Vec<ExecutedJob>,
    /// Selected candidates the job runtime's admission control deferred
    /// this cycle, with the denying rule. Deferred candidates are not
    /// dropped: they re-enter ranking naturally next cycle. Empty
    /// without a job tracker.
    pub deferred: Vec<(CandidateId, Arc<str>)>,
    /// Conflict/transient retries the job runtime re-submitted this
    /// cycle (not part of this cycle's ranked selection). Empty without
    /// a job tracker.
    pub retried: Vec<ExecutedJob>,
    /// Job-runtime activity counters for this cycle; all-zero (and
    /// silent in `Display`) without a job tracker.
    pub ledger: JobLedgerSummary,
    /// Sum of predicted file-count reductions over every submission the
    /// platform scheduled this cycle — ranked selections (`executed`)
    /// plus retry resubmissions (`retried`).
    pub total_predicted_reduction: i64,
    /// Sum of predicted GBHr over every scheduled submission this cycle
    /// (`executed` plus `retried`).
    pub total_predicted_gbhr: f64,
}

impl CycleReport {
    /// Number of selected candidates (the cycle's effective k).
    pub fn selected_count(&self) -> usize {
        self.ranked.selected_count()
    }
}

impl fmt::Display for CycleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "AutoComp cycle @ {}ms | scope={} | generated={} | dropped={} | selected={} | predicted ΔF={} GBHr={}",
            self.at_ms,
            self.scope,
            self.generated,
            self.dropped.len(),
            self.selected_count(),
            self.total_predicted_reduction,
            crate::report::fmt_f64(self.total_predicted_gbhr),
        )?;
        // The ledger line appears only when the job runtime did anything:
        // a disabled (or idle) tracker renders bit-identically to the
        // fire-and-forget pipeline — the parity suites depend on it.
        if !self.ledger.is_quiet() {
            writeln!(f, "jobs: {}", self.ledger)?;
        }
        let rows = decision_rows(&self.traits, self.ranked.head(), RANKED_PREFIX_MIN);
        write!(
            f,
            "{}",
            render_table(&["candidate", "score", "selected", "traits", "note"], &rows)
        )
    }
}

/// The AutoComp pipeline: filters + trait computers + policy + scheduler.
pub struct AutoComp {
    config: AutoCompConfig,
    filters: Vec<Box<dyn CandidateFilter>>,
    traits: Vec<Box<dyn TraitComputer>>,
    scheduler: Box<dyn Scheduler>,
    feedback: EstimationFeedback,
    /// Configuration epoch: bumped on any edit that could change filter
    /// verdicts or trait values (filter/trait/scheduler registration,
    /// `config_mut`, explicit invalidation). Cached cycle results are
    /// valid only within one epoch.
    epoch: u64,
    /// Retained filter/orient generation and, inside it, the rank memo.
    cache: CycleCache,
    /// Splice effectiveness of the most recent rank pass.
    rank_stats: RankCycleStats,
    /// Act-phase job runtime (in-flight ledger + admission + retries);
    /// `None` keeps the historical fire-and-forget act phase.
    tracker: Option<JobTracker>,
    /// Shared observability handle (see [`crate::telemetry`]): phase
    /// spans, cache/memo gauges, and — cloned into the tracker — the
    /// act-ledger counters. Enabled under the null clock by default;
    /// recording never changes cycle results.
    telemetry: TelemetrySink,
}

impl AutoComp {
    /// Creates a pipeline with no filters, no traits, the paper's
    /// production scheduler (parallel tables, sequential partitions), and
    /// the incremental cycle cache enabled.
    pub fn new(config: AutoCompConfig) -> Self {
        AutoComp {
            config,
            filters: Vec::new(),
            traits: Vec::new(),
            scheduler: Box::new(ParallelTablesScheduler),
            feedback: EstimationFeedback::new(),
            epoch: 0,
            cache: CycleCache::new(true),
            rank_stats: RankCycleStats::default(),
            tracker: None,
            telemetry: TelemetrySink::default(),
        }
    }

    /// Attaches the act-phase job runtime (builder style): a
    /// [`JobTracker`] that suppresses candidates with work in flight,
    /// applies admission control, retries conflicted jobs with backoff,
    /// and auto-ingests settled outcomes as estimator feedback. Hand
    /// [`cycle`](Self::cycle) an [`Executor::Tracked`] so finished jobs
    /// settle each cycle; an [`Executor::Plain`] cycle still applies
    /// suppression/admission but never polls. Attaching the tracker does
    /// not invalidate the cycle cache — ledger state is checked after
    /// the splice (see [`crate::act`]).
    pub fn with_job_tracker(mut self, config: JobRuntimeConfig) -> Self {
        let mut tracker = JobTracker::new(config);
        tracker.set_telemetry(self.telemetry.clone());
        self.tracker = Some(tracker);
        self
    }

    /// Replaces the telemetry sink (builder style). The default is an
    /// enabled sink under the null clock; pass
    /// [`TelemetrySink::disabled`] to opt out entirely, or
    /// [`TelemetrySink::with_clock`] to give spans real durations.
    /// Telemetry never alters cycle results — instrumented cycles are
    /// bit-identical to uninstrumented ones
    /// (`tests/incremental_parity.rs`).
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        if let Some(tracker) = self.tracker.as_mut() {
            tracker.set_telemetry(sink.clone());
        }
        self.telemetry = sink;
        self
    }

    /// The pipeline's telemetry sink (clone it to read the registry from
    /// outside the cycle loop).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// The attached job runtime, if any.
    pub fn job_tracker(&self) -> Option<&JobTracker> {
        self.tracker.as_ref()
    }

    /// Mutable access to the job runtime (e.g. to drain
    /// [`JobTracker::take_settled_dirty`] into an external observer).
    pub fn job_tracker_mut(&mut self) -> Option<&mut JobTracker> {
        self.tracker.as_mut()
    }

    /// Adds a candidate filter (applied in insertion order).
    pub fn with_filter(mut self, filter: Box<dyn CandidateFilter>) -> Self {
        self.epoch += 1;
        self.filters.push(filter);
        self
    }

    /// Registers a trait computer (NFR1: mix-and-match components).
    pub fn with_trait(mut self, computer: Box<dyn TraitComputer>) -> Self {
        self.epoch += 1;
        self.traits.push(computer);
        self
    }

    /// Replaces the scheduler.
    pub fn with_scheduler(mut self, scheduler: Box<dyn Scheduler>) -> Self {
        self.epoch += 1;
        self.scheduler = scheduler;
        self
    }

    /// Enables or disables the incremental cycle cache (builder style).
    /// Disabling clears any retained generation (rank memo included);
    /// every cycle then recomputes filter/orient/rank for the whole fleet
    /// (the always-cold reference behavior the parity suite compares
    /// against).
    pub fn with_cycle_cache(mut self, enabled: bool) -> Self {
        self.cache.set_enabled(enabled);
        self
    }

    /// Splice effectiveness of the most recent cycle: how many tables
    /// were spliced from the cache vs recomputed.
    pub fn cycle_cache_stats(&self) -> CycleCacheStats {
        self.cache.stats()
    }

    /// Number of tables in the retained cache generation (bounded by the
    /// observed fleet size: exactly one generation is kept).
    pub fn cycle_cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Explicitly invalidates the cycle cache (epoch bump + clear). Use
    /// after out-of-band changes the epoch cannot see — e.g. a filter or
    /// trait computer whose behavior depends on interior-mutable state.
    pub fn invalidate_cycle_cache(&mut self) {
        self.epoch += 1;
        self.cache.clear();
    }

    /// Splice effectiveness of the most recent cycle's decide phase: how
    /// many per-candidate scores were spliced from the retained rank
    /// memo vs recomputed, and whether top-k selection was maintained
    /// from the retained prefix (`memo_fast`) instead of running the
    /// fleet-wide ordering pass.
    pub fn rank_memo_stats(&self) -> RankCycleStats {
        self.rank_stats
    }

    /// Current configuration.
    pub fn config(&self) -> &AutoCompConfig {
        &self.config
    }

    /// Mutable configuration (e.g. to switch policies between cycles).
    /// Accessing it bumps the configuration epoch — the cycle cache
    /// conservatively assumes any field may have changed and recomputes
    /// the next cycle from scratch.
    pub fn config_mut(&mut self) -> &mut AutoCompConfig {
        self.epoch += 1;
        &mut self.config
    }

    /// Accumulated estimator feedback.
    pub fn feedback(&self) -> &EstimationFeedback {
        &self.feedback
    }

    /// Ingests one prediction-vs-outcome observation (the act→observe
    /// feedback loop of §3.3).
    ///
    /// Feedback does **not** invalidate the cycle cache: calibration
    /// scales act-phase predictions, which are recomputed every cycle
    /// from the (calibration-free) trait matrix — cached filter verdicts
    /// and trait rows are pure functions of the observed stats. A custom
    /// trait computer that *does* read calibration state must call
    /// [`invalidate_cycle_cache`](Self::invalidate_cycle_cache) after
    /// ingesting.
    pub fn ingest_feedback(&mut self, record: FeedbackRecord) {
        self.feedback.record(record);
    }

    /// Runs one full OODA cycle — the pipeline's only entry point; the
    /// fields of [`CycleInput`] select the behaviour:
    ///
    /// * **Settle** ([`Executor::Tracked`] only): finished jobs are polled
    ///   and settled first — successes auto-ingest as feedback, conflicts
    ///   schedule retries — and, given an observer, their tables are
    ///   marked dirty on it so this very observe re-fetches the
    ///   compacted/conflicted state. Without a
    ///   [job tracker](Self::with_job_tracker) polled outcomes are
    ///   discarded.
    /// * **Observe**: given an observer, one retained incremental
    ///   [`FleetObserver::observe`], and the cycle cache fills for the
    ///   next cycle to splice against. Without one, a cold one-shot
    ///   [`observe`](LakeConnector::observe) whose observation is dropped
    ///   with the cycle, so the cache fill is skipped entirely.
    /// * **Filter → orient → decide → act** over the observation,
    ///   consumed **by index**: filters evaluate [`CandidateView`]s built
    ///   over entry stats references, orient computes (or cache-splices)
    ///   trait rows straight into the columnar scratch, and only the
    ///   selected candidates are ever materialized as owned
    ///   [`Candidate`]s for the act phase.
    pub fn cycle(&mut self, mut input: CycleInput<'_>) -> Result<CycleReport> {
        self.telemetry.begin_cycle();
        if let Executor::Tracked(tracked) = &mut input.executor {
            let t = self.telemetry.span_start();
            self.settle_polled(tracked.poll(input.now_ms));
            if let (Some(observer), Some(tracker)) = (&mut input.observer, &mut self.tracker) {
                for uid in tracker.take_settled_dirty() {
                    observer.mark_dirty(uid);
                }
            }
            self.telemetry.span_end(tphase::SETTLE, t);
        }
        let t = self.telemetry.span_start();
        let scope = self.config.scope;
        let cold;
        let (observation, retained) = match input.observer {
            Some(observer) => (observer.observe(input.connector, scope), true),
            None => {
                cold = input.connector.observe(ObserveRequest::fresh(scope));
                (&cold, false)
            }
        };
        self.telemetry.span_end(tphase::OBSERVE, t);
        self.cycle_observed_inner(observation, input.executor, input.now_ms, retained)
    }

    /// Settles polled outcomes into the tracker and auto-ingests the
    /// resulting feedback records. No-op without a tracker.
    fn settle_polled(&mut self, outcomes: Vec<JobOutcome>) {
        let Some(tracker) = self.tracker.as_mut() else {
            return;
        };
        for record in tracker.settle(outcomes) {
            self.feedback.record(record);
        }
    }

    /// Folds the observation's degradation record into telemetry: the
    /// three degradation gauges mirror the *current* cycle's state (they
    /// drop back to zero once the fleet heals, so recovery is visible),
    /// while the fault/retry counters accumulate only when events
    /// actually occurred this pass.
    fn record_observe_degradation(&self, observation: &FleetObservation) {
        let deg = observation.degradation();
        self.telemetry.gauge_set(
            tnames::OBSERVE_CARRIED_FORWARD_ENTRIES,
            deg.carried_entries() as f64,
        );
        self.telemetry.gauge_set(
            tnames::OBSERVE_QUARANTINE_DEPTH,
            deg.quarantine_depth() as f64,
        );
        self.telemetry.gauge_set(
            tnames::OBSERVE_LISTING_STALENESS_PASSES,
            deg.listing_stale_passes as f64,
        );
        if let Some(cause) = deg.fallback {
            self.telemetry.counter_add_labelled(
                tnames::OBSERVE_FULL_FALLBACK_TOTAL,
                tnames::LABEL_CAUSE,
                cause.label(),
                1,
            );
        }
        if deg.stats_faults > 0 {
            self.telemetry
                .counter_add(tnames::OBSERVE_STATS_FAULTS_TOTAL, deg.stats_faults as u64);
        }
        if deg.listing_retries > 0 {
            self.telemetry.counter_add_labelled(
                tnames::OBSERVE_READ_RETRIES_TOTAL,
                tnames::LABEL_KIND,
                "listing",
                deg.listing_retries as u64,
            );
        }
        if deg.changelog_retries > 0 {
            self.telemetry.counter_add_labelled(
                tnames::OBSERVE_READ_RETRIES_TOTAL,
                tnames::LABEL_KIND,
                "changelog",
                deg.changelog_retries as u64,
            );
        }
    }

    /// The filter → orient → decide → act phases of [`cycle`](Self::cycle)
    /// over an already-captured observation. `allow_cache_fill` is
    /// `false` for a one-shot observation (dropped with the cycle, so a
    /// filled generation could never be spliced) and `true` for one an
    /// observer retains.
    fn cycle_observed_inner(
        &mut self,
        observation: &FleetObservation,
        mut exec: Executor<'_>,
        now_ms: u64,
        allow_cache_fill: bool,
    ) -> Result<CycleReport> {
        if self.traits.is_empty() {
            return Err(AutoCompError::NoTraits);
        }
        self.record_observe_degradation(observation);
        let scope_label = observation.scope().label();
        let single_scope = observation.single_scope();
        let generated = observation.candidate_count();
        let tables = observation.tables();

        // Trait interning up front: the column layout (and the scratch
        // stride) is fixed by the registered computers, independent of
        // the kept set. Duplicate trait names share a slot, so the last
        // computer wins like the seed's map inserts.
        let mut matrix = TraitMatrix::new(0);
        let trait_cols: Vec<usize> = self
            .traits
            .iter()
            .map(|t| matrix.intern(t.name(), Some(t.direction())).index())
            .collect();
        let width = matrix.width();

        // Filter (+ cache splice): one walk over the observation decides
        // keep/drop per candidate, splicing quiet tables' verdicts from
        // the prior generation, and records the next generation.
        let span_t = self.telemetry.span_start();
        let time_sensitive = chain_time_sensitive(&self.filters);
        let fill_cache = allow_cache_fill && self.cache.enabled() && observation.cursor().is_some();
        // A usable generation hands over its memo, owned for the cycle.
        let (old_gen, memo_in) = match self.cache.usable_gen(
            self.epoch,
            observation.scope(),
            observation.prior_cursor(),
            now_ms,
            time_sensitive,
            width,
        ) {
            Some(prior) => (Some((prior.gen, prior.tables)), prior.memo),
            None => (None, None),
        };
        let WalkOutput {
            mut kept_slots,
            mut dropped,
            gen,
            spliced,
            recomputed,
        } = filter_splice_walk(
            &self.filters,
            observation,
            now_ms,
            single_scope,
            old_gen,
            fill_cache,
        );
        self.telemetry.span_end(tphase::FILTER_SPLICE, span_t);

        // Orient, one span: fill a row-major scratch — cached rows
        // copied, fresh rows computed with a single stats access per
        // candidate — thin it once, transpose only the kept rows into the
        // matrix's contiguous columns, and install the next generation
        // from the unthinned scratch.
        let span_t = self.telemetry.span_start();
        let gen_len = kept_slots.len();
        let mut scratch = vec![0.0; gen_len * width];
        let old_rows: &[f64] = old_gen.map(|(g, _)| g.rows.as_slice()).unwrap_or(&[]);
        // `width` ≥ 1: the cycle requires a registered trait.
        for (slot, row) in kept_slots.iter().zip(scratch.chunks_exact_mut(width)) {
            if slot.cached_row != NO_PRIOR_ROW {
                let start = slot.cached_row as usize * width;
                row.copy_from_slice(&old_rows[start..start + width]);
            } else {
                let stats = slot_stats(observation, *slot);
                for (t, col) in self.traits.iter().zip(&trait_cols) {
                    row[*col] = t.compute(stats);
                }
            }
        }

        // One thinning mask for the two post-splice drop sources. The
        // ledger lists its live tables (a running job, or a retry waiting
        // out its backoff); each is found through the observation's uid
        // index and the position-sorted kept slots, so every candidate of
        // a live table drops at a cost that scales with the live set, not
        // the fleet. Post-splice by design: the generation installed below
        // is ledger-free, so it stays valid for the cycle in which the job
        // settles. Then a row holding a NaN trait value drops, named after
        // its first NaN column (one NaN from a connector must not poison
        // ranking for the fleet); a row the ledger already dropped keeps
        // the ledger's reason. `dropped` lists ledger hits in row order,
        // then NaN rows in row order.
        let mut suppressed: Vec<(usize, Arc<str>)> = Vec::new();
        if let Some(tracker) = self.tracker.as_mut() {
            let live = tracker.live_tables(now_ms).into_iter();
            let listed = live.filter_map(|(uid, r)| Some((observation.position_of_uid(uid)?, r)));
            for (pos, reason) in listed {
                let first = kept_slots.partition_point(|s| (s.table as usize) < pos);
                let of_table = kept_slots[first..].iter();
                let rows = of_table.take_while(|s| s.table as usize == pos).count();
                suppressed.extend((first..first + rows).map(|row| (row, reason.clone())));
            }
            tracker.note_suppressed(suppressed.len());
        }
        let mut keep: Option<Vec<bool>> = None;
        suppressed.sort_unstable_by_key(|(row, _)| *row);
        for (row, reason) in suppressed {
            keep.get_or_insert_with(|| vec![true; gen_len])[row] = false;
            dropped.push((slot_id(observation, kept_slots[row], single_scope), reason));
        }
        for (row, values) in scratch.chunks_exact(width).enumerate() {
            let Some(id) = matrix.trait_ids().find(|id| values[id.index()].is_nan()) else {
                continue;
            };
            let mask = keep.get_or_insert_with(|| vec![true; gen_len]);
            if std::mem::replace(&mut mask[row], false) {
                let note = DecisionNote::NanTrait {
                    trait_name: matrix.trait_name(id).into(),
                };
                let cid = slot_id(observation, kept_slots[row], single_scope);
                dropped.push((cid, Arc::from(note.to_string())));
            }
        }
        matrix.load_row_major(&scratch, keep.as_deref());
        if let Some(keep) = &keep {
            let mut keep = keep.iter();
            kept_slots.retain(|_| *keep.next().expect("one flag per kept slot"));
        }

        // The next cache generation is the unthinned scratch: exactly the
        // kept rows the next cycle splices from.
        if let Some(mut g) = gen {
            g.rows = scratch;
            self.cache.install(
                g,
                self.epoch,
                observation.scope(),
                observation
                    .cursor()
                    .expect("cache fills only for cursor-bearing observations"),
                now_ms,
                width,
                observation.tables_shared(),
            );
        }
        self.cache.record_cycle(spliced, recomputed);
        self.telemetry.span_end(tphase::ORIENT, span_t);
        let splice_total = spliced + recomputed;
        self.telemetry.gauge_set(
            tnames::PIPELINE_CACHE_HIT_RATIO,
            if splice_total > 0 {
                spliced as f64 / splice_total as f64
            } else {
                0.0
            },
        );
        self.telemetry
            .gauge_set(tnames::PIPELINE_CACHE_SPLICED, spliced as f64);
        self.telemetry
            .gauge_set(tnames::PIPELINE_CACHE_RECOMPUTED, recomputed as f64);

        // Decide: rank straight off the observation-backed source, with
        // incremental maintenance (score splice + retained-prefix
        // selection) from the spliced generation's memo; the next memo
        // joins the generation installed above.
        let span_t = self.telemetry.span_start();
        let uniform_tail = matches!(
            observation.scope(),
            ScopeStrategy::Table | ScopeStrategy::Snapshot { .. }
        );
        let source = ObservationSource {
            slots: &kept_slots,
            observation,
            single_scope,
            uniform_tail,
        };
        let delta = fill_cache.then_some(RankDelta {
            memo: memo_in.as_ref(),
            slots: &kept_slots,
            gen_len,
        });
        let (ranked, memo_out, rank_stats) =
            rank_with_memo(&source, &matrix, &self.config.policy, delta.as_ref())?;
        self.rank_stats = rank_stats;
        if let Some(memo) = memo_out {
            self.cache.set_memo(memo);
        }
        self.telemetry.span_end(tphase::RANK, span_t);
        let score_total = rank_stats.spliced_scores + rank_stats.recomputed_scores;
        self.telemetry.gauge_set(
            tnames::PIPELINE_MEMO_HIT_RATIO,
            if score_total > 0 {
                rank_stats.spliced_scores as f64 / score_total as f64
            } else {
                0.0
            },
        );
        if rank_stats.memo_fast {
            self.telemetry
                .counter_add(tnames::PIPELINE_MEMO_FAST_TOTAL, 1);
        }

        // Act: only the selected candidates are materialized; the
        // scheduler arranges them into waves, calibration is frozen here
        // for the whole phase, and `crate::act` runs the protocol.
        let span_t = self.telemetry.span_start();
        let selected: Vec<Candidate> = ranked
            .selected()
            .map(|e| {
                let slot = kept_slots[e.index];
                Candidate::new(
                    slot_id(observation, slot, single_scope),
                    &tables[slot.table as usize],
                    slot_stats(observation, slot).clone(),
                )
            })
            .collect();
        let selected_refs: Vec<&Candidate> = selected.iter().collect();
        let jobs = self.scheduler.plan(&selected_refs);
        let calibration = self.config.calibrate.then_some(&self.feedback);
        let act = ActPhase {
            tracker: self.tracker.as_mut(),
            exec: &mut exec,
            now_ms,
            price: &pricing(&self.traits, calibration),
            out: ActOutcome::default(),
        }
        .run(observation, &selected, &jobs, &self.config.trigger_label);

        // Auto-ingest feedback from inter-wave settles only now, so every
        // wave was priced under the same calibration.
        for record in act.feedback {
            self.feedback.record(record);
        }
        self.telemetry.span_end(tphase::ACT, span_t);
        if let Some(tracker) = self.tracker.as_ref() {
            self.telemetry
                .gauge_set(tnames::ACT_GBHR_WINDOW_USED, tracker.gbhr_window_usage());
            if let Some(budget) = tracker.config().gbhr_budget {
                self.telemetry
                    .gauge_set(tnames::ACT_GBHR_WINDOW_BUDGET, budget);
            }
        }
        let ledger = self
            .tracker
            .as_mut()
            .map(JobTracker::take_summary)
            .unwrap_or_default();

        Ok(CycleReport {
            at_ms: now_ms,
            scope: scope_label,
            generated,
            dropped,
            traits: matrix,
            ranked,
            executed: act.executed,
            deferred: act.deferred,
            retried: act.retried,
            ledger,
            total_predicted_reduction: act.total_predicted_reduction,
            total_predicted_gbhr: act.total_predicted_gbhr,
        })
    }
}

/// Snapshot/restore + journal-replay surface. See [`crate::durability`]
/// for the format, the validation contract, and the two recovery modes
/// (rewind-and-re-drive vs direct replay).
impl AutoComp {
    /// FNV-1a 64 fingerprint of everything a snapshot's retained state is
    /// a function of: scope, policy, trigger label, calibration flag,
    /// filter and trait names (in registration order), scheduler name,
    /// and the job-runtime config (or its absence). A snapshot restores
    /// warm only into a pipeline with the same fingerprint — the caller
    /// is responsible for rebuilding filters/traits/scheduler with
    /// identical *behavior*; names are the strongest identity the
    /// component traits expose.
    pub fn config_fingerprint(&self) -> u64 {
        use fmt::Write as _;
        let mut key = String::new();
        let _ = write!(
            key,
            "scope={:?}|policy={:?}|trigger={}|calibrate={}",
            self.config.scope, self.config.policy, self.config.trigger_label, self.config.calibrate
        );
        for filter in &self.filters {
            let _ = write!(key, "|filter={}", filter.name());
        }
        for computer in &self.traits {
            let _ = write!(key, "|trait={}", computer.name());
        }
        let _ = write!(key, "|scheduler={}", self.scheduler.name());
        match &self.tracker {
            Some(t) => {
                let _ = write!(key, "|tracker={:?}", t.config());
            }
            None => key.push_str("|tracker=none"),
        }
        lakesim_storage::fnv1a64(key.as_bytes())
    }

    /// Encodes the pipeline's full retained state — the observer's prior
    /// observation and pending dirty marks, the cycle cache, the rank
    /// memo, the job ledger, and the feedback calibration — into one
    /// sealed, checksummed frame for a
    /// [`SnapshotStore`](lakesim_storage::SnapshotStore). Returns `None`
    /// before the first observation (there is nothing durable to
    /// capture yet). Cache and memo are persisted only while still valid
    /// for the captured observation (same epoch, same cursor, same
    /// shared listing), so a restore can never resurrect stale splice
    /// state.
    pub fn encode_snapshot(
        &self,
        observer: &FleetObserver,
        ctx: &SnapshotContext,
    ) -> Option<Vec<u8>> {
        let mut enc = lakesim_storage::Encoder::new();
        self.encode_snapshot_into(observer, ctx, &mut enc)
            .then(|| enc.into_bytes())
    }

    /// [`encode_snapshot`](Self::encode_snapshot) appending the sealed
    /// frame to `enc` instead of returning it — the form a
    /// [`SnapshotStore::save_with`](lakesim_storage::SnapshotStore::save_with)
    /// writer calls, so the frame is built inside the store's buffer.
    /// Returns `false`, with nothing appended, before the first
    /// observation.
    pub fn encode_snapshot_into(
        &self,
        observer: &FleetObserver,
        ctx: &SnapshotContext,
        enc: &mut lakesim_storage::Encoder,
    ) -> bool {
        let Some(observation) = observer.last() else {
            return false;
        };
        let span_t = self.telemetry.span_start();
        let start = enc.len();
        enc.put_frame(
            crate::durability::SNAPSHOT_KIND,
            crate::durability::SNAPSHOT_VERSION,
            |enc| {
                enc.put_u64(self.config_fingerprint());
                enc.put_u64(ctx.cycle);
                enc.put_u64(ctx.executor_cursor);
                enc.put_u64(ctx.journal_watermark);
                observation.snapshot_write(enc);
                let dirty = observer.pending_dirty();
                enc.put_u64(dirty.len() as u64);
                for uid in dirty {
                    enc.put_u64(*uid);
                }
                self.cache.snapshot_write(enc, self.epoch, observation);
                match &self.tracker {
                    Some(tracker) => {
                        enc.put_bool(true);
                        tracker.snapshot_write(enc);
                    }
                    None => enc.put_bool(false),
                }
                self.feedback.snapshot_write(enc);
            },
        );
        self.telemetry.observe(
            tnames::DURABILITY_SNAPSHOT_SAVE_US,
            self.telemetry.now().saturating_sub(span_t),
        );
        self.telemetry.observe(
            tnames::DURABILITY_SNAPSHOT_BYTES,
            (enc.len() - start) as u64,
        );
        true
    }

    /// Restores a snapshot produced by [`encode_snapshot`](Self::encode_snapshot)
    /// into this pipeline and the given observer. Validation follows the
    /// [`crate::durability`] contract: the frame must open (magic, kind,
    /// version ceiling, checksum), the configuration fingerprint must
    /// match, and the restored observation must carry the change cursor
    /// the retained structures are keyed by. Any failure resets the
    /// incremental state to a verbatim cold start and reports the first
    /// failed condition — this method never panics on untrusted bytes
    /// and never installs a partially-restored warm state.
    pub fn restore_snapshot(
        &mut self,
        observer: &mut FleetObserver,
        bytes: &[u8],
    ) -> RecoveryReport {
        let span_t = self.telemetry.span_start();
        let report = match self.try_restore(observer, bytes) {
            Ok(report) => report,
            Err(reason) => {
                // Degrade to a coherent cold start: drop every retained
                // structure a partial decode may have been meant for.
                observer.reset();
                self.cache.clear();
                RecoveryReport::ColdStart { reason }
            }
        };
        self.telemetry.observe(
            tnames::DURABILITY_RESTORE_US,
            self.telemetry.now().saturating_sub(span_t),
        );
        report
    }

    fn try_restore(
        &mut self,
        observer: &mut FleetObserver,
        bytes: &[u8],
    ) -> std::result::Result<RecoveryReport, String> {
        fn cerr(e: lakesim_storage::CodecError) -> String {
            format!("snapshot payload corrupt: {e}")
        }
        let frame = lakesim_storage::open_frame(
            bytes,
            crate::durability::SNAPSHOT_KIND,
            crate::durability::SNAPSHOT_VERSION,
        )
        .map_err(|e| format!("snapshot frame rejected: {e}"))?;
        let mut dec = lakesim_storage::Decoder::new(frame.payload);

        // Decode everything into temporaries first; nothing is installed
        // until the whole payload has validated.
        let fingerprint = dec.take_u64("config fingerprint").map_err(cerr)?;
        if fingerprint != self.config_fingerprint() {
            return Err(
                "configuration fingerprint mismatch: snapshot was taken under a different \
                 pipeline configuration"
                    .to_string(),
            );
        }
        let ctx = SnapshotContext {
            cycle: dec.take_u64("cycle").map_err(cerr)?,
            executor_cursor: dec.take_u64("executor cursor").map_err(cerr)?,
            journal_watermark: dec.take_u64("journal watermark").map_err(cerr)?,
        };
        let observation = FleetObservation::snapshot_restore(&mut dec).map_err(cerr)?;
        if observation.cursor().is_none() {
            return Err("snapshot observation carries no change cursor".to_string());
        }
        let mut dirty = std::collections::BTreeSet::new();
        for _ in 0..dec.take_len(8, "pending dirty").map_err(cerr)? {
            dirty.insert(dec.take_u64("dirty uid").map_err(cerr)?);
        }
        let mut cache = CycleCache::new(self.cache.enabled());
        let (cache_restored, memo_restored) = cache
            .snapshot_read(&mut dec, self.epoch, &observation.tables_shared())
            .map_err(cerr)?;
        let tracker = if dec.take_bool("tracker present").map_err(cerr)? {
            Some(JobTracker::snapshot_read(&mut dec).map_err(cerr)?)
        } else {
            None
        };
        let feedback = EstimationFeedback::snapshot_read(&mut dec).map_err(cerr)?;
        dec.finish().map_err(cerr)?;

        // Validated end-to-end: install atomically. The generation (memo
        // inside) is re-keyed to this pipeline's current epoch — the
        // fingerprint established the configurations agree, and the epoch
        // is a local mutation counter, not part of the durable identity.
        let tables = observation.tables().len();
        self.cache = cache;
        let (jobs_in_flight, retries_pending) = tracker
            .as_ref()
            .map(|t| (t.in_flight(), t.retry_pending()))
            .unwrap_or((0, 0));
        if let Some(mut tracker) = tracker {
            // `snapshot_read` builds a fresh tracker with a disabled
            // sink; re-attach this pipeline's so ledger counters keep
            // flowing after a restore.
            tracker.set_telemetry(self.telemetry.clone());
            self.tracker = Some(tracker);
        }
        self.feedback = feedback;
        observer.restore_prior(observation, dirty);
        Ok(RecoveryReport::Warm {
            cycle: ctx.cycle,
            executor_cursor: ctx.executor_cursor,
            journal_watermark: ctx.journal_watermark,
            tables,
            jobs_in_flight,
            retries_pending,
            cache_restored,
            memo_restored,
        })
    }

    /// Direct journal replay — recovery mode 2 of [`crate::durability`]:
    /// apply every decodable journal record from `from_record` on to the
    /// restored ledger *without* re-driving the interrupted cycle.
    /// Scheduled submissions are re-adopted into the in-flight ledger
    /// (idempotently — jobs already known, settled or lease-evicted are
    /// skipped), settlements settle idempotently (late outcomes for
    /// lease-evicted jobs included), and everything else — unscheduled
    /// submissions, cycle markers, torn records — is counted as ignored.
    /// Do **not** combine with rewind-and-re-drive over the same journal
    /// span: the re-driven cycle performs its own registrations and the
    /// ledger would see each submission twice (the re-adoption guard
    /// would drop the second, but admission/budget charges would not be
    /// bit-identical).
    pub fn replay_journal(
        &mut self,
        journal: &lakesim_storage::Journal,
        from_record: u64,
    ) -> ReplaySummary {
        let mut summary = ReplaySummary::default();
        for record in journal.iter_from(from_record) {
            let Ok(event) = JournalEvent::decode(record) else {
                summary.ignored += 1;
                continue;
            };
            match event {
                JournalEvent::Submitted {
                    candidate,
                    prediction,
                    attempts,
                    result,
                    now_ms,
                } => {
                    let adopted = match (&mut self.tracker, result.scheduled, result.job_id) {
                        (Some(tracker), true, Some(job_id)) => {
                            tracker.readopt(job_id, &candidate, &prediction, attempts, now_ms)
                        }
                        _ => false,
                    };
                    if adopted {
                        summary.readopted += 1;
                    } else {
                        summary.ignored += 1;
                    }
                }
                JournalEvent::Settled { outcome } => {
                    let duplicate = self
                        .tracker
                        .as_ref()
                        .is_none_or(|t| t.already_settled(outcome.job_id));
                    if duplicate {
                        summary.ignored += 1;
                    } else {
                        self.settle_polled(vec![outcome]);
                        summary.settled += 1;
                    }
                }
                JournalEvent::CycleCommit { .. } => summary.ignored += 1,
            }
        }
        summary
    }
}

/// Everything one [`AutoComp::cycle`] call needs.
pub struct CycleInput<'a> {
    /// The lake to observe.
    pub connector: &'a dyn LakeConnector,
    /// `Some`: the retained incremental observe, and the cycle cache
    /// fills. `None`: a cold one-shot observe with no cache fill.
    pub observer: Option<&'a mut FleetObserver>,
    /// Where selected work is submitted.
    pub executor: Executor<'a>,
    /// Cycle timestamp.
    pub now_ms: u64,
}

/// Output of the filter/splice walk: the cycle's kept set, drop trail,
/// next cache generation (when filling), and splice statistics.
struct WalkOutput {
    kept_slots: Vec<KeptSlot>,
    dropped: Vec<(CandidateId, Arc<str>)>,
    gen: Option<CacheGen>,
    spliced: usize,
    recomputed: usize,
}

/// The filter (+ cache splice) walk: one pass over the observation
/// decides keep/drop per candidate — splicing runs of quiet,
/// descriptor-stable tables' verdicts and reasons from the prior
/// generation (in place or remapped through the uid map) and evaluating
/// the filter chain for the rest — while co-recording the next cache
/// generation. Isolated from the rank/act phases so the splice
/// invariants (prefix bookkeeping, run alignment, descriptor
/// verification) live in one place.
fn filter_splice_walk(
    filters: &[Box<dyn CandidateFilter>],
    observation: &FleetObservation,
    now_ms: u64,
    single_scope: ScopeKind,
    old_gen: Option<(&CacheGen, &Arc<Vec<TableRef>>)>,
    fill_cache: bool,
) -> WalkOutput {
    let tables = observation.tables();
    // Descriptor verification: filter verdicts read TableRef fields, and
    // descriptor edits (policy flips, renames) need not appear in the
    // write changelog. When the listing was reused wholesale the
    // descriptors are literally the prior cycle's memory; otherwise
    // every splice compares the stored descriptor per table.
    let same_listing = old_gen
        .map(|(_, t)| Arc::ptr_eq(t, &observation.tables_shared()))
        .unwrap_or(false);

    let mut kept_slots: Vec<KeptSlot> = Vec::with_capacity(tables.len());
    let mut dropped: Vec<(CandidateId, Arc<str>)> = Vec::new();
    let mut gen = fill_cache.then(|| CacheGen::with_capacity(tables.len()));
    let mut uid_map: Option<UidMap<usize>> = None;
    let mut spliced = 0usize;
    let mut recomputed = 0usize;

    // Partition-bearing scopes label candidates from the entry; the
    // single-candidate scopes (table / snapshot) splice without touching
    // an entry at all.
    let partition_scope = matches!(
        observation.scope(),
        ScopeStrategy::Partition | ScopeStrategy::Hybrid
    );
    let mut ti = 0usize;
    while ti < tables.len() {
        let table = &tables[ti];
        // A reused entry's stats are byte-for-byte the snapshot the
        // prior generation was computed from, so its verdicts and rows
        // splice verbatim; fresh entries (changelog hits, force-dirty
        // tables, new tables) always recompute.
        if let Some((g, g_tables)) = old_gen.filter(|_| !observation.is_fresh(ti)) {
            // Table `t` is quiet and the generation holds it unchanged at
            // `p`: same uid, same descriptor (the one filter verdicts were
            // computed against) and, where partitions label candidates,
            // the same candidate count.
            let aligned = |t: usize, p: usize| {
                !observation.is_fresh(t)
                    && g.uids.get(p) == Some(&tables[t].table_uid)
                    && g_tables.get(p) == Some(&tables[t])
                    && (!partition_scope
                        || (g.cand_start[p + 1] - g.cand_start[p]) as usize
                            == observation.entry(t).candidate_count())
            };
            // A shared listing holds every table at its own position with
            // literally the prior cycle's descriptor.
            let pos = if same_listing {
                Some(ti)
            } else {
                let pos = if g.uids.get(ti) == Some(&table.table_uid) {
                    Some(ti)
                } else {
                    let map = uid_map.get_or_insert_with(|| {
                        g.uids.iter().enumerate().map(|(i, u)| (*u, i)).collect()
                    });
                    map.get(&table.table_uid).copied()
                };
                pos.filter(|p| aligned(ti, *p))
            };
            if let Some(pos) = pos {
                // Extend the run while tables stay quiet and aligned;
                // under a shared listing that is the bare freshness scan,
                // with no strided descriptor loads.
                let run_start = ti;
                ti += 1;
                if same_listing {
                    while ti < tables.len().min(g.uids.len()) && !observation.is_fresh(ti) {
                        ti += 1;
                    }
                } else {
                    while ti < tables.len() && aligned(ti, pos + ti - run_start) {
                        ti += 1;
                    }
                }
                let end = pos + ti - run_start;
                // Walk the run's candidates in order; the table cursor
                // (`t` in the listing, `p` in the generation) steps over
                // zero-candidate tables.
                let (mut t, mut p) = (run_start, pos);
                let mut row = g.kept_start[pos];
                let mut reason = g.drop_start[pos] as usize;
                for ci in g.cand_start[pos]..g.cand_start[end] {
                    while g.cand_start[p + 1] <= ci {
                        (t, p) = (t + 1, p + 1);
                    }
                    let within = ci - g.cand_start[p];
                    // Only partition labels need the entry; `Missing`
                    // stands in for it elsewhere (a single-scope candidate).
                    let entry = if partition_scope {
                        observation.entry(t)
                    } else {
                        &TableObservation::Missing
                    };
                    if g.verdicts[ci as usize] {
                        let part = match entry {
                            TableObservation::Partitions(_) => within,
                            _ => NO_PART,
                        };
                        let gen_row = kept_slots.len() as u32;
                        kept_slots.push(KeptSlot {
                            table: t as u32,
                            part,
                            cached_row: row,
                            gen_row,
                        });
                        row += 1;
                    } else {
                        let id = candidate_id(g.uids[p], single_scope, entry, within as usize);
                        dropped.push((id, g.reasons[reason].clone()));
                        reason += 1;
                    }
                }
                if let Some(gen) = &mut gen {
                    gen.extend_run(g, pos, end);
                }
                spliced += ti - run_start;
                continue;
            }
        }

        // Fresh or uncached: evaluate the filter chain per candidate.
        recomputed += 1;
        let entry = observation.entry(ti);
        for ci in 0..entry.candidate_count() {
            let stats = stats_of(entry, ci);
            let (scope_kind, part, partition) = match entry {
                TableObservation::Partitions(parts) => {
                    (ScopeKind::Partition, ci as u32, Some(parts[ci].0.as_str()))
                }
                _ => (single_scope, NO_PART, None),
            };
            let view = CandidateView::new(table, scope_kind, partition, stats);
            match evaluate_chain(filters, &view, now_ms) {
                Some(reason) => {
                    let id = candidate_id(table.table_uid, single_scope, entry, ci);
                    // One shared allocation serves both the report and
                    // the cache generation.
                    let reason: Arc<str> = reason.into();
                    if let Some(gen) = &mut gen {
                        gen.push_dropped(reason.clone());
                    }
                    dropped.push((id, reason));
                }
                None => {
                    let gen_row = kept_slots.len() as u32;
                    kept_slots.push(KeptSlot {
                        table: ti as u32,
                        part,
                        cached_row: NO_PRIOR_ROW,
                        gen_row,
                    });
                    if let Some(gen) = &mut gen {
                        gen.push_kept();
                    }
                }
            }
        }
        if let Some(gen) = &mut gen {
            gen.end_table(table.table_uid);
        }
        ti += 1;
    }

    WalkOutput {
        kept_slots,
        dropped,
        gen,
        spliced,
        recomputed,
    }
}

/// Sentinel partition index for single-candidate scopes.
const NO_PART: u32 = u32::MAX;

/// Index of one kept candidate into its observation — table position plus
/// partition offset — with its two generation rows: `cached_row`, the
/// prior generation's row its trait row (and, in the rank phase, its
/// score) splices from, or [`NO_PRIOR_ROW`]: compute fresh; and
/// `gen_row`, its row in the generation installed this cycle, fixed when
/// the walk pushes the slot so it survives the cycle's thinning pass.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeptSlot {
    table: u32,
    part: u32,
    pub(crate) cached_row: u32,
    pub(crate) gen_row: u32,
}

/// Stats of the `ci`-th candidate of an entry.
fn stats_of(entry: &TableObservation, ci: usize) -> &CandidateStats {
    match entry {
        TableObservation::Table(stats) => stats,
        TableObservation::Partitions(parts) => &parts[ci].1,
        TableObservation::Missing => unreachable!("missing entries yield no candidates"),
    }
}

/// Stats behind a kept slot.
fn slot_stats(observation: &FleetObservation, slot: KeptSlot) -> &CandidateStats {
    let entry = observation.entry(slot.table as usize);
    let ci = if slot.part == NO_PART {
        0
    } else {
        slot.part as usize
    };
    stats_of(entry, ci)
}

/// Identity of the `ci`-th candidate of an entry — exactly the ids
/// [`FleetObservation::to_candidates`] produces, in the same order.
fn candidate_id(
    uid: u64,
    single_scope: ScopeKind,
    entry: &TableObservation,
    ci: usize,
) -> CandidateId {
    match entry {
        TableObservation::Partitions(parts) => CandidateId::partition(uid, parts[ci].0.clone()),
        _ => CandidateId {
            table_uid: uid,
            scope: single_scope,
            partition: None,
        },
    }
}

/// Identity of a kept slot, materialized (partition labels cloned).
/// Defined in terms of [`slot_id_parts`] so it agrees with the rank
/// tie-break ([`RankSource::cmp_ids`]) by construction.
fn slot_id(observation: &FleetObservation, slot: KeptSlot, single_scope: ScopeKind) -> CandidateId {
    let (table_uid, scope, partition) = slot_id_parts(observation, slot, single_scope);
    CandidateId {
        table_uid,
        scope,
        partition: partition.map(str::to_string),
    }
}

/// Identity of a kept slot as borrowed parts — the allocation-free form
/// the rank tie-break compares.
fn slot_id_parts(
    observation: &FleetObservation,
    slot: KeptSlot,
    single_scope: ScopeKind,
) -> (u64, ScopeKind, Option<&str>) {
    let uid = observation.tables()[slot.table as usize].table_uid;
    if slot.part == NO_PART {
        (uid, single_scope, None)
    } else {
        match observation.entry(slot.table as usize) {
            TableObservation::Partitions(parts) => (
                uid,
                ScopeKind::Partition,
                Some(parts[slot.part as usize].0.as_str()),
            ),
            _ => unreachable!("partition slots point at partitioned entries"),
        }
    }
}

/// [`RankSource`] over the kept set of an observation: identities derived
/// from the slots on demand (no fleet-sized id vector), quota signals
/// read straight from the entry stats.
struct ObservationSource<'a> {
    slots: &'a [KeptSlot],
    observation: &'a FleetObservation,
    single_scope: ScopeKind,
    /// Whether every slot is a single-candidate-scope row (table /
    /// snapshot strategies): enables the lazy report tail, which
    /// reconstructs candidate ids from bare uids.
    uniform_tail: bool,
}

impl RankSource for ObservationSource<'_> {
    fn len(&self) -> usize {
        self.slots.len()
    }
    fn tail_identity(&self) -> Option<(ScopeKind, Vec<u64>)> {
        if !self.uniform_tail {
            return None;
        }
        let tables = self.observation.tables();
        Some((
            self.single_scope,
            self.slots
                .iter()
                .map(|s| tables[s.table as usize].table_uid)
                .collect(),
        ))
    }
    fn id(&self, index: usize) -> CandidateId {
        slot_id(self.observation, self.slots[index], self.single_scope)
    }
    fn cmp_ids(&self, a: usize, b: usize) -> std::cmp::Ordering {
        slot_id_parts(self.observation, self.slots[a], self.single_scope).cmp(&slot_id_parts(
            self.observation,
            self.slots[b],
            self.single_scope,
        ))
    }
    fn quota_utilization(&self, index: usize) -> f64 {
        slot_stats(self.observation, self.slots[index])
            .quota
            .map(|q| q.utilization())
            .unwrap_or(0.0)
    }
}

impl fmt::Debug for AutoComp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AutoComp")
            .field("scope", &self.config.scope.label())
            .field("filters", &self.filters.len())
            .field("traits", &self.traits.len())
            .field("scheduler", &self.scheduler.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::act::TrackedExecutor;
    use crate::candidate::TableRef;
    use crate::connector::CompactionExecutor;
    use crate::filter::MinSizeFilter;
    use crate::rank::TraitWeight;
    use crate::stats::CandidateStats;
    use crate::traits::{ComputeCostGbhr, FileCountReduction, TraitDirection};

    /// In-memory lake with configurable per-table small-file counts.
    /// `changelog` gives it a change cursor over a log that never records
    /// a write; every table reports `partitions` partitions of its own
    /// stats.
    struct MemoryLake {
        tables: Vec<(TableRef, CandidateStats)>,
        changelog: bool,
        partitions: u64,
    }

    impl MemoryLake {
        fn with_tables(specs: &[(u64, u64, u64)]) -> Self {
            // (uid, small_files, total_bytes)
            let tables = specs
                .iter()
                .map(|(uid, small, bytes)| {
                    (
                        TableRef {
                            table_uid: *uid,
                            database: "db".into(),
                            name: format!("t{uid}").into(),
                            partitioned: false,
                            compaction_enabled: true,
                            is_intermediate: false,
                        },
                        CandidateStats {
                            file_count: small + 2,
                            small_file_count: *small,
                            small_bytes: *bytes / 2,
                            total_bytes: *bytes,
                            target_file_size: 512 << 20,
                            ..CandidateStats::default()
                        },
                    )
                })
                .collect();
            MemoryLake {
                tables,
                changelog: false,
                partitions: 0,
            }
        }
    }

    impl LakeConnector for MemoryLake {
        fn list_tables(&self) -> Vec<TableRef> {
            self.tables.iter().map(|(t, _)| t.clone()).collect()
        }
        fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
            self.tables
                .iter()
                .find(|(t, _)| t.table_uid == uid)
                .map(|(_, s)| s.clone())
        }
        fn partition_stats(&self, uid: u64) -> Vec<(String, CandidateStats)> {
            let stats = self.table_stats(uid).unwrap_or_default();
            let part = |p| (format!("p{p}"), stats.clone());
            (0..self.partitions).map(part).collect()
        }
        fn fleet_cursor(&self) -> Option<crate::observe::ChangeCursor> {
            self.changelog.then_some(crate::observe::ChangeCursor(0))
        }
        fn changes_since(&self, _cursor: crate::observe::ChangeCursor) -> Option<Vec<u64>> {
            self.changelog.then(Vec::new)
        }
    }

    #[derive(Default)]
    struct RecordingExecutor {
        calls: Vec<(CandidateId, i64, u64)>,
        /// Leading `calls` whose outcome a poll already delivered.
        polled: usize,
    }

    impl CompactionExecutor for RecordingExecutor {
        fn execute(
            &mut self,
            candidate: &Candidate,
            prediction: &Prediction,
            now_ms: u64,
        ) -> ExecutionResult {
            self.calls
                .push((candidate.id.clone(), prediction.reduction, now_ms));
            ExecutionResult {
                scheduled: true,
                job_id: Some(self.calls.len() as u64),
                gbhr: prediction.gbhr,
                commit_due_ms: Some(now_ms + 10_000),
                error: None,
            }
        }
    }

    /// Every job succeeds at its commit deadline.
    impl TrackedExecutor for RecordingExecutor {
        fn poll(&mut self, now_ms: u64) -> Vec<JobOutcome> {
            let mut outcomes = Vec::new();
            while let Some((id, reduction, at)) = self.calls.get(self.polled) {
                if at + 10_000 > now_ms {
                    break;
                }
                self.polled += 1;
                outcomes.push(JobOutcome {
                    job_id: self.polled as u64,
                    table_uid: id.table_uid,
                    status: crate::act::JobOutcomeStatus::Succeeded,
                    finished_at_ms: at + 10_000,
                    actual_reduction: *reduction,
                    actual_gbhr: 0.0,
                });
            }
            outcomes
        }
    }

    /// One cycle through a fire-and-forget executor.
    fn plain_cycle(
        ac: &mut AutoComp,
        lake: &MemoryLake,
        observer: Option<&mut FleetObserver>,
        exec: &mut RecordingExecutor,
        now_ms: u64,
    ) -> Result<CycleReport> {
        ac.cycle(CycleInput {
            connector: lake,
            observer,
            executor: Executor::Plain(exec),
            now_ms,
        })
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
            trigger_label: "periodic".into(),
            calibrate: false,
        })
        .with_trait(Box::new(FileCountReduction::default()))
        .with_trait(Box::new(ComputeCostGbhr::default()))
    }

    #[test]
    fn full_cycle_selects_and_executes_top_k() {
        let lake =
            MemoryLake::with_tables(&[(1, 100, 10 << 30), (2, 500, 10 << 30), (3, 10, 10 << 30)]);
        let mut exec = RecordingExecutor::default();
        let mut ac = pipeline(2);
        let report = plain_cycle(&mut ac, &lake, None, &mut exec, 1000).unwrap();
        assert_eq!(report.generated, 3);
        assert_eq!(report.selected_count(), 2);
        assert_eq!(exec.calls.len(), 2);
        // Most fragmented table first.
        assert_eq!(exec.calls[0].0, CandidateId::table(2));
        assert!(report.total_predicted_reduction >= 500);
        let text = report.to_string();
        assert!(text.contains("selected"));
        assert!(text.contains("t2[table]"));
    }

    #[test]
    fn filters_drop_with_reasons() {
        let lake = MemoryLake::with_tables(&[(1, 100, 10), (2, 100, 10 << 30)]);
        let mut exec = RecordingExecutor::default();
        let mut ac = pipeline(5).with_filter(Box::new(MinSizeFilter {
            min_total_bytes: 1 << 20,
            min_file_count: 0,
        }));
        let report = plain_cycle(&mut ac, &lake, None, &mut exec, 0).unwrap();
        assert_eq!(report.dropped.len(), 1);
        assert_eq!(report.dropped[0].0, CandidateId::table(1));
        assert!(report.dropped[0].1.contains("min-size"));
        assert_eq!(report.selected_count(), 1);
    }

    #[test]
    fn no_traits_is_an_error() {
        let lake = MemoryLake::with_tables(&[(1, 1, 1)]);
        let mut exec = RecordingExecutor::default();
        let mut ac = AutoComp::new(AutoCompConfig {
            scope: ScopeStrategy::Table,
            policy: RankingPolicy::Threshold {
                trait_name: "x".into(),
                min_value: 0.0,
                max_k: None,
            },
            trigger_label: "t".into(),
            calibrate: false,
        });
        assert!(matches!(
            plain_cycle(&mut ac, &lake, None, &mut exec, 0),
            Err(AutoCompError::NoTraits)
        ));
    }

    #[test]
    fn calibration_scales_predictions() {
        let lake = MemoryLake::with_tables(&[(1, 100, 10 << 30)]);
        let mut exec = RecordingExecutor::default();
        let mut ac = pipeline(1);
        ac.config_mut().calibrate = true;
        // Feedback says reductions are 2× over-estimated.
        ac.ingest_feedback(FeedbackRecord {
            candidate: CandidateId::table(1),
            at_ms: 0,
            predicted_reduction: 100,
            actual_reduction: 50,
            predicted_gbhr: 1.0,
            actual_gbhr: 1.0,
        });
        let report = plain_cycle(&mut ac, &lake, None, &mut exec, 0).unwrap();
        assert_eq!(report.executed[0].prediction.reduction, 50);
    }

    #[test]
    fn cycles_are_deterministic() {
        let lake = MemoryLake::with_tables(&[(1, 10, 1 << 30), (2, 20, 1 << 30)]);
        let run = || {
            let mut exec = RecordingExecutor::default();
            let mut ac = pipeline(1);
            let r = plain_cycle(&mut ac, &lake, None, &mut exec, 42).unwrap();
            format!("{r}")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn batch_and_incremental_cycles_match_the_pull_cycle() {
        let lake =
            MemoryLake::with_tables(&[(1, 100, 10 << 30), (2, 500, 10 << 30), (3, 10, 10 << 30)]);
        let run_pull = || {
            let mut exec = RecordingExecutor::default();
            plain_cycle(&mut pipeline(2), &lake, None, &mut exec, 7).unwrap()
        };
        let pull = run_pull();

        let mut observer = crate::observe::FleetObserver::new();
        let mut exec = RecordingExecutor::default();
        let mut ac = pipeline(2);
        let incr1 = plain_cycle(&mut ac, &lake, Some(&mut observer), &mut exec, 7).unwrap();
        assert_eq!(pull.to_string(), incr1.to_string());
        // MemoryLake has no changelog, so the second incremental cycle is
        // a full re-observe — and still identical.
        let mut exec = RecordingExecutor::default();
        let incr2 = plain_cycle(&mut ac, &lake, Some(&mut observer), &mut exec, 7).unwrap();
        assert_eq!(pull.to_string(), incr2.to_string());
        assert_eq!(observer.last().unwrap().fetched_tables(), 3);
    }

    /// What the four `{observer} × {executor}` shapes of [`CycleInput`]
    /// guarantee, over one lake and two cycles (the second starts after
    /// the first's jobs are due).
    #[test]
    fn entry_matrix_pins_settle_observe_and_cache_semantics() {
        let lake = MemoryLake {
            changelog: true,
            ..MemoryLake::with_tables(&[(1, 100, 10 << 30), (2, 500, 10 << 30), (3, 10, 10 << 30)])
        };
        // Both cycles of one matrix cell; every cycle's span sequence and
        // cache fill are checked on the way.
        let run_cell = |with_tracker: bool, retained: bool, tracked: bool| {
            let at = format!("tracker={with_tracker} observer={retained} tracked={tracked}");
            let mut ac = pipeline(2);
            if with_tracker {
                ac = ac.with_job_tracker(JobRuntimeConfig::default());
            }
            let mut observer = FleetObserver::new();
            let mut exec = RecordingExecutor::default();
            let reports = [1_000, 20_000].map(|now_ms| {
                let report = ac
                    .cycle(CycleInput {
                        connector: &lake,
                        observer: retained.then_some(&mut observer),
                        executor: if tracked {
                            Executor::Tracked(&mut exec)
                        } else {
                            Executor::Plain(&mut exec)
                        },
                        now_ms,
                    })
                    .unwrap();
                let cycle = ac.telemetry().current_cycle();
                let spans = ac.telemetry().recent_spans();
                let phases: Vec<&str> = spans
                    .iter()
                    .filter(|s| s.cycle == cycle)
                    .map(|s| s.phase)
                    .collect();
                // `ALL` lists the five phases every cycle runs, then settle.
                let settle = if tracked { &[tphase::SETTLE][..] } else { &[] };
                let expect = [settle, &tphase::ALL[..5]].concat();
                assert_eq!(phases, expect, "{at}");
                assert_eq!(ac.cycle_cache_len(), if retained { 3 } else { 0 }, "{at}");
                report
            });
            (reports, ac, observer, at)
        };
        let same = |a: &[CycleReport; 2], b: &[CycleReport; 2], at: &str| {
            for (a, b) in a.iter().zip(b) {
                assert_eq!(a.to_string(), b.to_string(), "{at}");
                assert_eq!(a.executed, b.executed, "{at}");
                assert_eq!(a.ledger, b.ledger, "{at}");
            }
        };

        // Without a tracker all four shapes report identically: the
        // tracked entry reproduces the fire-and-forget reports (quiet
        // ledger included) and incremental ≡ cold.
        let (cold_plain, ..) = run_cell(false, false, false);
        for (retained, tracked) in [(true, false), (false, true), (true, true)] {
            let (reports, .., at) = run_cell(false, retained, tracked);
            same(&cold_plain, &reports, &at);
            assert!(reports.iter().all(|r| r.ledger.is_quiet()), "{at}");
        }

        // With a tracker the first cycle's two jobs are due by the
        // second. Only a tracked executor settles them; only with an
        // observer are their tables drained from the tracker and
        // re-fetched (the changelog itself is quiet).
        for tracked in [false, true] {
            let (cold, mut cold_ac, ..) = run_cell(true, false, tracked);
            let (kept, mut kept_ac, observer, at) = run_cell(true, true, tracked);
            same(&cold, &kept, &at);
            let settled = if tracked { 2 } else { 0 };
            assert_eq!(kept[1].ledger.settled, settled, "{at}");
            assert_eq!(observer.last().unwrap().fetched_tables(), settled, "{at}");
            let undrained = |ac: &mut AutoComp| ac.job_tracker_mut().unwrap().take_settled_dirty();
            assert_eq!(undrained(&mut kept_ac), Vec::<u64>::new(), "{at}");
            let expect = if tracked { vec![1, 2] } else { vec![] };
            assert_eq!(undrained(&mut cold_ac), expect, "no observer, {at}");
        }
    }

    /// A trait computer that yields NaN for one specific table.
    struct PoisonTrait;

    impl TraitComputer for PoisonTrait {
        fn name(&self) -> &str {
            "poison"
        }
        fn direction(&self) -> TraitDirection {
            TraitDirection::Benefit
        }
        fn compute(&self, stats: &CandidateStats) -> f64 {
            if stats.small_file_count == 13 {
                f64::NAN
            } else {
                stats.small_file_count as f64
            }
        }
    }

    #[test]
    fn nan_traits_drop_the_candidate_not_the_cycle() {
        let lake = MemoryLake::with_tables(&[
            (1, 100, 10 << 30),
            (2, 13, 10 << 30), // poisoned
            (3, 50, 10 << 30),
        ]);
        let mut exec = RecordingExecutor::default();
        let mut ac = AutoComp::new(AutoCompConfig {
            scope: ScopeStrategy::Table,
            policy: RankingPolicy::Moop {
                weights: vec![TraitWeight::new("poison", 1.0)],
                k: 1,
            },
            trigger_label: "t".into(),
            calibrate: false,
        })
        .with_trait(Box::new(PoisonTrait));
        let report = plain_cycle(&mut ac, &lake, None, &mut exec, 0).unwrap();
        assert_eq!(report.dropped.len(), 1);
        assert_eq!(report.dropped[0].0, CandidateId::table(2));
        assert!(report.dropped[0].1.contains("NaN"));
        assert_eq!(report.ranked.len(), 2);
        assert_eq!(report.selected_count(), 1);
        assert_eq!(exec.calls[0].0, CandidateId::table(1));
    }

    /// Suppression covers every partition of a live table, and `dropped`
    /// lists the hits in row (listing) order — not in the uid order the
    /// ledger reports its live tables in.
    #[test]
    fn live_tables_drop_all_their_partitions_in_row_order() {
        let lake = MemoryLake {
            partitions: 3,
            ..MemoryLake::with_tables(&[(2, 300, 10 << 30), (3, 100, 10 << 30), (1, 500, 10 << 30)])
        };
        let mut ac = pipeline(1).with_job_tracker(JobRuntimeConfig::default());
        ac.config_mut().scope = ScopeStrategy::Partition;
        let mut exec = RecordingExecutor::default();
        // A plain executor never settles: cycle 1 leaves table 1 live,
        // cycle 2 table 2 as well.
        let reports = [1_000, 2_000, 3_000]
            .map(|now_ms| plain_cycle(&mut ac, &lake, None, &mut exec, now_ms).unwrap());
        let part = |uid, p| CandidateId::partition(uid, p);
        let submitted = reports.each_ref().map(|r| r.executed[0].id.clone());
        assert_eq!(submitted, [part(1, "p0"), part(2, "p0"), part(3, "p0")]);
        assert_eq!(reports.each_ref().map(|r| r.ledger.suppressed), [0, 3, 6]);
        let live: Arc<str> = "in-flight: table has a live compaction job".into();
        let of = |uid| ["p0", "p1", "p2"].map(|p| (part(uid, p), live.clone()));
        assert_eq!(reports[2].dropped, [of(2), of(1)].concat());
        assert_eq!(reports[2].ranked.len(), 3, "table 3's partitions are left");
    }

    /// One thinning pass, two drop sources: a row that is both live and
    /// NaN reports the ledger's reason only, and ledger entries come
    /// before NaN entries whatever their rows.
    #[test]
    fn a_live_nan_row_reports_the_ledger_reason_only() {
        let mut lake =
            MemoryLake::with_tables(&[(2, 13, 10 << 30), (1, 500, 10 << 30), (3, 50, 10 << 30)]);
        let mut ac = pipeline(1)
            .with_trait(Box::new(PoisonTrait))
            .with_job_tracker(JobRuntimeConfig::default());
        let mut exec = RecordingExecutor::default();
        let first = plain_cycle(&mut ac, &lake, None, &mut exec, 1_000).unwrap();
        assert_eq!(first.executed[0].id, CandidateId::table(1));
        // Table 1, now live, turns NaN as well.
        lake.tables[1].1.small_file_count = 13;
        let report = plain_cycle(&mut ac, &lake, None, &mut exec, 2_000).unwrap();
        let dropped: Vec<(u64, &str)> = report
            .dropped
            .iter()
            .map(|(id, reason)| (id.table_uid, &**reason))
            .collect();
        let live = "in-flight: table has a live compaction job";
        assert_eq!((dropped.len(), dropped[0]), (2, (1, live)), "{dropped:?}");
        assert!(dropped[1].0 == 2 && dropped[1].1.contains("NaN"));
        assert_eq!((report.ledger.suppressed, report.ranked.len()), (1, 1));
    }

    /// A snapshot encoded straight into the store's buffer puts the bytes
    /// on the medium that sealing `sequence | encode_snapshot()` by
    /// copying does, so slots written before and after load alike.
    #[test]
    fn encoding_into_the_store_writes_the_bytes_of_seal_by_copy() {
        use lakesim_storage::snapshot::{SNAPSHOT_FRAME_KIND, SNAPSHOT_FRAME_VERSION};
        use lakesim_storage::{MemSnapshotMedium, SnapshotMedium, SnapshotStore};
        let lake = MemoryLake {
            changelog: true,
            ..MemoryLake::with_tables(&[(1, 100, 10 << 30), (2, 500, 10 << 30), (3, 10, 10 << 30)])
        };
        let mut ac = pipeline(2).with_job_tracker(JobRuntimeConfig::default());
        let mut observer = FleetObserver::new();
        let ctx = SnapshotContext {
            cycle: 1,
            executor_cursor: 2,
            journal_watermark: 3,
        };
        let mut in_place = SnapshotStore::new(MemSnapshotMedium::new());
        let declined = in_place.save_with(|enc| ac.encode_snapshot_into(&observer, &ctx, enc));
        assert_eq!(declined.unwrap(), None, "nothing observed yet");
        assert_eq!(ac.encode_snapshot(&observer, &ctx), None);

        let mut exec = RecordingExecutor::default();
        ac.cycle(CycleInput {
            connector: &lake,
            observer: Some(&mut observer),
            executor: Executor::Tracked(&mut exec),
            now_ms: 1_000,
        })
        .unwrap();
        let frame = ac.encode_snapshot(&observer, &ctx).unwrap();
        let kind = crate::durability::SNAPSHOT_KIND;
        let version = crate::durability::SNAPSHOT_VERSION;
        let payload = lakesim_storage::open_frame(&frame, kind, version)
            .unwrap()
            .payload;
        assert_eq!(frame, lakesim_storage::seal_frame(kind, version, payload));
        for seq in 1..=3u64 {
            let saved = in_place.save_with(|enc| ac.encode_snapshot_into(&observer, &ctx, enc));
            assert_eq!(saved.unwrap(), Some(seq));
            let mut enc = lakesim_storage::Encoder::new();
            enc.put_u64(seq);
            enc.put_bytes(&frame);
            let by_copy = lakesim_storage::seal_frame(
                SNAPSHOT_FRAME_KIND,
                SNAPSHOT_FRAME_VERSION,
                &enc.into_bytes(),
            );
            let slot = (seq as usize + 1) % 2;
            assert_eq!(in_place.medium().read_slot(slot), Some(by_copy));
            assert_eq!(in_place.load().unwrap(), (seq, frame.clone()));
        }
    }
}
