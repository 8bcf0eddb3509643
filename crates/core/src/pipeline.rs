//! The assembled OODA pipeline (§3.3, Fig. 4).
//!
//! The pipeline is **index-native end-to-end**: filter and orient consume
//! [`FleetObservation`] entries by position — candidate views are built
//! straight over observation-backed stats references, so no
//! `Vec<Candidate>` is materialized in the hot cycle (only the handful of
//! *selected* candidates are built for the act phase). The orient and
//! decide phases are columnar and slot-indexed: one
//! [`crate::decide`] state, retained across cycles and patched in place,
//! holds every candidate's filter verdict, its trait values as a
//! [`TraitMatrix`]'s own columns (one contiguous `f64` column per
//! trait) and its score. The `FILTER_SPLICE` span re-filters the patched
//! tables, the `ORIENT` span computes their trait rows and masks out the
//! ledger's live tables and NaN rows, and the `RANK` span re-scores what
//! went stale and maintains the selection — no per-candidate maps, no
//! row-major scratch, no thinning copy, no full fleet sort.
//!
//! A cycle patches only the observation's fresh tables (or, over a new
//! listing, the tables it could not move by uid), and takes the
//! fleet-wide path when the state's keys — config epoch, scope, width,
//! change-cursor chain, and the fill time of a time-sensitive filter
//! chain — do not hold. [`crate::decide`] documents the keys, the patch
//! set and every fleet-wide condition.
//!
//! The act phase belongs to [`crate::act`]: this module materializes the
//! selected candidates, has the scheduler plan them, freezes calibration
//! and ingests the phase's feedback afterwards. With a job runtime
//! attached ([`AutoComp::with_job_tracker`]) the ledger also names its
//! live tables, which the mask takes out of the ranked set without
//! touching their verdicts or trait rows (so the state survives a job). The cycle's executor polls finished
//! jobs, which settle at cycle start and between waves.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use crate::act::{
    pricing, ActOutcome, ActPhase, JobLedgerSummary, JobOutcome, JobRuntimeConfig, JobTracker,
    TrackedExecutor,
};
use crate::candidate::{Candidate, CandidateId};
use crate::connector::{ExecutionResult, LakeConnector, Prediction};
use crate::decide::{self, CycleCacheStats, DecideState, Keys};
use crate::durability::{JournalEvent, RecoveryReport, ReplaySummary, SinceBase, SnapshotContext};
use crate::error::AutoCompError;
use crate::feedback::{EstimationFeedback, FeedbackRecord};
use crate::filter::{chain_time_sensitive, CandidateFilter};
use crate::matrix::{TraitId, TraitMatrix};
use crate::observe::{Bits, FleetObservation, FleetObserver, ObservationDelta, ObserveRequest};
use crate::rank::{RankCycleStats, RankedEntries, RankingPolicy, RANKED_PREFIX_MIN};
use crate::report::{decision_rows, render_table};
use crate::schedule::{ParallelTablesScheduler, Scheduler};
use crate::scope::ScopeStrategy;
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
    /// Candidates generated in the observe phase: the decide state's slot
    /// count.
    pub generated: usize,
    /// Candidates dropped by filters, the job ledger or orient
    /// sanitization, with reasons: filter drops, then live-job tables,
    /// then NaN rows, each in candidate order. Reasons are shared
    /// `Arc<str>`s: a retained filter verdict's reason is a refcount
    /// bump, not a fresh allocation per dropped candidate.
    pub dropped: Vec<(CandidateId, Arc<str>)>,
    /// Trait values of the rendered rows: row `i` belongs to head entry
    /// `i`, for the first `min(head.len(), RANKED_PREFIX_MIN)` entries of
    /// [`RankedEntries::head`]. The fleet's full columns stay in the
    /// decide state.
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
        // an idle tracker renders bit-identically to no tracker — the
        // parity suites depend on it.
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
    /// The retained decide state (see [`crate::decide`]).
    state: Option<DecideState>,
    /// Patch effectiveness of the most recent cycle.
    cache_stats: CycleCacheStats,
    /// Splice effectiveness of the most recent rank pass.
    rank_stats: RankCycleStats,
    /// Act-phase job runtime (in-flight ledger + admission + retries);
    /// `None` submits without book-keeping.
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
    /// the retained decide state enabled.
    pub fn new(config: AutoCompConfig) -> Self {
        AutoComp {
            config,
            filters: Vec::new(),
            traits: Vec::new(),
            scheduler: Box::new(ParallelTablesScheduler),
            feedback: EstimationFeedback::new(),
            epoch: 0,
            state: None,
            cache_stats: CycleCacheStats::default(),
            rank_stats: RankCycleStats::default(),
            tracker: None,
            telemetry: TelemetrySink::default(),
        }
    }

    /// Attaches the act-phase job runtime (builder style): a
    /// [`JobTracker`] that suppresses candidates with work in flight,
    /// applies admission control, retries conflicted jobs with backoff,
    /// and auto-ingests settled outcomes as estimator feedback. Jobs
    /// settle when [`cycle`](Self::cycle)'s executor polls them; behind
    /// an [`Untracked`](crate::act::Untracked) executor none ever does,
    /// so set a [job lease](JobRuntimeConfig::job_lease_ms) there.
    /// Attaching the tracker does not invalidate the retained decide
    /// state — live tables are masked each cycle, not written into it
    /// (see [`crate::decide`]).
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

    /// Patch effectiveness of the most recent cycle: how many tables kept
    /// their slots from the retained state vs were patched.
    pub fn cycle_cache_stats(&self) -> CycleCacheStats {
        self.cache_stats
    }

    /// Number of tables laid out in the retained decide state (bounded by
    /// the observed fleet size: exactly one state is kept).
    pub fn cycle_cache_len(&self) -> usize {
        self.state.as_ref().map_or(0, DecideState::tables)
    }

    /// Explicitly invalidates the retained decide state (epoch bump +
    /// drop). Use after out-of-band changes the epoch cannot see — e.g. a
    /// filter or trait computer whose behavior depends on
    /// interior-mutable state. Called before every cycle, it makes each
    /// one take the fleet-wide path: the always-cold reference the parity
    /// suites compare against.
    pub fn invalidate_cycle_cache(&mut self) {
        self.epoch += 1;
        self.state = None;
    }

    /// Splice effectiveness of the most recent cycle's decide phase: how
    /// many per-candidate scores were kept from the retained state vs
    /// recomputed, and whether top-k selection was maintained from the
    /// retained prefix (`memo_fast`) instead of running the fleet-wide
    /// ordering pass.
    pub fn rank_memo_stats(&self) -> RankCycleStats {
        self.rank_stats
    }

    /// Current configuration.
    pub fn config(&self) -> &AutoCompConfig {
        &self.config
    }

    /// Mutable configuration (e.g. to switch policies between cycles).
    /// Accessing it bumps the configuration epoch — the decide state
    /// conservatively assumes any field may have changed and the next
    /// cycle takes the fleet-wide path.
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
    /// Feedback does **not** invalidate the decide state: calibration
    /// scales act-phase predictions, which are recomputed every cycle
    /// from the (calibration-free) trait matrix — retained filter
    /// verdicts, trait rows and scores are pure functions of the
    /// observed stats. A custom
    /// trait computer that *does* read calibration state must call
    /// [`invalidate_cycle_cache`](Self::invalidate_cycle_cache) after
    /// ingesting.
    pub fn ingest_feedback(&mut self, record: FeedbackRecord) {
        self.feedback.record(record);
    }

    /// Runs one full OODA cycle — the pipeline's only entry point; the
    /// fields of [`CycleInput`] select the behaviour:
    ///
    /// * **Settle**: the executor's finished jobs are polled and settled
    ///   first — successes auto-ingest as feedback, conflicts
    ///   schedule retries — and, given an observer, their tables are
    ///   marked dirty on it so this very observe re-fetches the
    ///   compacted/conflicted state. Without a
    ///   [job tracker](Self::with_job_tracker) polled outcomes are
    ///   discarded.
    /// * **Observe**: given an observer, one retained incremental
    ///   [`FleetObserver::observe`], and the decide state is kept for
    ///   the next cycle to patch. Without one, a cold one-shot
    ///   [`observe`](LakeConnector::observe) whose observation is dropped
    ///   with the cycle, and so is the state built over it.
    /// * **Filter → orient → decide → act** over the observation,
    ///   consumed **by index**: filters evaluate
    ///   [`CandidateView`](crate::candidate::CandidateView)s built
    ///   over entry stats references, orient writes the patched slots'
    ///   trait values straight into the state's columns, and only the
    ///   selected candidates are ever materialized as owned
    ///   [`Candidate`]s for the act phase.
    pub fn cycle(&mut self, mut input: CycleInput<'_>) -> Result<CycleReport> {
        self.telemetry.begin_cycle();
        let t = self.telemetry.span_start();
        self.settle_polled(input.executor.poll(input.now_ms));
        if let (Some(observer), Some(tracker)) = (&mut input.observer, &mut self.tracker) {
            for uid in tracker.take_settled_dirty() {
                observer.mark_dirty(uid);
            }
        }
        self.telemetry.span_end(tphase::SETTLE, t);
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
    /// over an already-captured observation. `retained` is `false` for a
    /// one-shot observation (dropped with the cycle, so a state patched
    /// against it could never be reused) and `true` for one an observer
    /// retains.
    fn cycle_observed_inner(
        &mut self,
        observation: &FleetObservation,
        exec: &mut dyn TrackedExecutor,
        now_ms: u64,
        retained: bool,
    ) -> Result<CycleReport> {
        if self.traits.is_empty() {
            return Err(AutoCompError::NoTraits);
        }
        self.record_observe_degradation(observation);
        let (template, columns) = self.trait_template();

        // Filter: reuse the retained state if its keys hold, lay it onto
        // this listing, and re-filter the patched tables.
        let span_t = self.telemetry.span_start();
        let keys = Keys {
            epoch: self.epoch,
            scope: observation.scope(),
            cursor: observation.cursor(),
            now_ms,
            tables: observation.tables_shared(),
        };
        let time_sensitive = chain_time_sensitive(&self.filters);
        let width = template.width();
        let prior = self
            .state
            .take_if(|s| s.usable(&keys, observation, time_sensitive, width));
        let (mut state, patched) =
            DecideState::filter(prior, keys, &template, &self.filters, observation);
        let recomputed = patched.len();
        let spliced = observation.table_count() - recomputed;
        self.telemetry.span_end(tphase::FILTER_SPLICE, span_t);

        // Orient: trait rows of the patched slots, then the mask. The
        // ledger's live tables are found through the observation's uid
        // index, so suppression costs what the live set does. It masks
        // rather than rewrites, so the state stays valid for the cycle in
        // which the job settles.
        let span_t = self.telemetry.span_start();
        state.orient(&patched, &self.traits, &columns, observation);
        let live = match self.tracker.as_mut() {
            Some(tracker) => tracker
                .live_tables(now_ms)
                .into_iter()
                .filter_map(|(uid, reason)| Some((observation.position_of_uid(uid)?, reason)))
                .collect(),
            None => Vec::new(),
        };
        let mask = state.mask(observation, &patched, live);
        if let Some(tracker) = self.tracker.as_mut() {
            tracker.note_suppressed(mask.suppressed);
        }
        self.cache_stats = CycleCacheStats {
            spliced_tables: spliced,
            recomputed_tables: recomputed,
        };
        self.telemetry.span_end(tphase::ORIENT, span_t);
        let hit_ratio = spliced as f64 / (spliced + recomputed).max(1) as f64;
        self.telemetry
            .gauge_set(tnames::PIPELINE_CACHE_HIT_RATIO, hit_ratio);
        self.telemetry
            .gauge_set(tnames::PIPELINE_CACHE_SPLICED, spliced as f64);
        self.telemetry
            .gauge_set(tnames::PIPELINE_CACHE_RECOMPUTED, recomputed as f64);

        // Decide: re-score what the mask names stale and maintain the
        // selection, or take the fleet-wide path.
        let span_t = self.telemetry.span_start();
        let fill = retained && observation.cursor().is_some();
        let ranked = state.rank(observation, &self.config.policy, &mask.fresh);
        let (ranked, rank_stats) = match ranked {
            Ok(ranked) => ranked,
            Err(e) => {
                if fill {
                    self.state = Some(state);
                }
                return Err(e);
            }
        };
        self.rank_stats = rank_stats;
        self.telemetry.span_end(tphase::RANK, span_t);
        let score_total = rank_stats.spliced_scores + rank_stats.recomputed_scores;
        let memo_ratio = rank_stats.spliced_scores as f64 / score_total.max(1) as f64;
        self.telemetry
            .gauge_set(tnames::PIPELINE_MEMO_HIT_RATIO, memo_ratio);
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
            .map(|e| state.candidate(observation, e.index))
            .collect();
        let selected_refs: Vec<&Candidate> = selected.iter().collect();
        let jobs = self.scheduler.plan(&selected_refs);
        let calibration = self.config.calibrate.then_some(&self.feedback);
        let act = ActPhase {
            tracker: self.tracker.as_mut(),
            exec,
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

        // The report keeps the trait rows it renders; the state keeps the
        // fleet's columns.
        let rendered = ranked.head().iter().take(RANKED_PREFIX_MIN);
        let report = CycleReport {
            at_ms: now_ms,
            scope: observation.scope().label(),
            generated: state.slots(),
            dropped: mask.dropped,
            traits: state.traits.gather(rendered.map(|e| e.index)),
            ranked,
            executed: act.executed,
            deferred: act.deferred,
            retried: act.retried,
            ledger,
            total_predicted_reduction: act.total_predicted_reduction,
            total_predicted_gbhr: act.total_predicted_gbhr,
        };
        if fill {
            self.state = Some(state);
        }
        Ok(report)
    }

    /// An empty matrix over the registered traits, and each computer's
    /// column in it. Duplicate trait names share a column, so the last
    /// computer wins like the seed's map inserts.
    fn trait_template(&self) -> (TraitMatrix, Vec<TraitId>) {
        let mut template = TraitMatrix::new(0);
        let columns = self
            .traits
            .iter()
            .map(|t| template.intern(t.name(), Some(t.direction())))
            .collect();
        (template, columns)
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
    /// observation (quarantine records included) and pending dirty
    /// marks by uid ascending, the decide state, the job ledger, and the
    /// feedback calibration — into one sealed, checksummed frame for a
    /// [`SnapshotStore`](lakesim_storage::SnapshotStore). Returns `None`
    /// before the first observation (there is nothing durable to
    /// capture yet). The decide state is persisted only while still
    /// valid for the captured observation (same epoch, same cursor, same
    /// shared listing), so a restore can never resurrect stale state.
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
        self.encode_base_into(observer, ctx, enc).is_some()
    }

    /// [`encode_snapshot_into`](Self::encode_snapshot_into), returning
    /// what a delta over the frame must know of it (its sequence number
    /// left at 0 for the caller to fill in).
    pub(crate) fn encode_base_into(
        &self,
        observer: &FleetObserver,
        ctx: &SnapshotContext,
        enc: &mut lakesim_storage::Encoder,
    ) -> Option<SinceBase> {
        let observation = observer.last()?;
        let span_t = self.telemetry.span_start();
        let start = enc.len();
        enc.put_frame(
            crate::durability::SNAPSHOT_KIND,
            crate::durability::SNAPSHOT_VERSION,
            |enc| {
                enc.put_u64(self.config_fingerprint());
                put_context(enc, ctx);
                observation.snapshot_write(enc);
                put_dirty(enc, observer);
                decide::snapshot_write(self.state.as_ref(), enc, self.epoch, observation);
                self.put_ledger_and_feedback(enc);
            },
        );
        self.observe_save(span_t, enc.len() - start);
        let frame = &enc.as_bytes()[start..];
        Some(SinceBase {
            seq: 0,
            check: frame_check(frame),
            bytes: frame.len(),
            tables: observation.tables_shared(),
            layout: self.persisted_layout(observation),
            epoch: self.epoch,
            changed: Bits::default(),
            all_scores: false,
        })
    }

    /// Whether the next boundary may save a delta over `since` (see the
    /// fold rule in [`crate::durability`]): the observation is over the
    /// base's listing, the decide state the base holds (or lacks) is the
    /// one a snapshot would hold now, the configuration epoch is the
    /// base's, and the delta is estimated at no more than a quarter of
    /// the base.
    pub(crate) fn delta_fits(&self, observer: &FleetObserver, since: &SinceBase) -> bool {
        let Some(observation) = observer.last() else {
            return false;
        };
        let same_layout = match (self.persisted_layout(observation), &since.layout) {
            (None, None) => true,
            (Some(now), Some(base)) => Arc::ptr_eq(&now, base),
            _ => false,
        };
        if !(same_layout
            && self.epoch == since.epoch
            && Arc::ptr_eq(&observation.tables_shared(), &since.tables))
        {
            return false;
        }
        let per_table = since.bytes / observation.table_count().max(1);
        let scores = match since.all_scores {
            true => self.state.as_ref().map_or(0, |s| 8 * s.slots()),
            false => 0,
        };
        4 * (since.changed.count() * per_table + scores) <= since.bytes
    }

    /// Folds the last cycle into what changed since a base: the
    /// observation's fresh positions, and the tables of the slots the
    /// last rank pass re-scored.
    pub(crate) fn note_round(&self, observer: &FleetObserver, since: &mut SinceBase) {
        let Some(observation) = observer.last() else {
            return;
        };
        for &pos in observation.fresh_positions() {
            since.changed.set(pos);
        }
        if let Some(state) = &self.state {
            if !state.mark_rescored(&mut since.changed) {
                since.all_scores = true;
            }
        }
    }

    /// Encodes a delta over the base `since` describes into `enc` (see
    /// [`crate::durability`] for what it holds). The caller has checked
    /// [`delta_fits`](Self::delta_fits); `false`, with nothing appended,
    /// before the first observation.
    pub(crate) fn encode_delta_into(
        &self,
        observer: &FleetObserver,
        ctx: &SnapshotContext,
        since: &SinceBase,
        enc: &mut lakesim_storage::Encoder,
    ) -> bool {
        let Some(observation) = observer.last() else {
            return false;
        };
        let span_t = self.telemetry.span_start();
        let start = enc.len();
        enc.put_frame(
            crate::durability::SNAPSHOT_DELTA_KIND,
            crate::durability::SNAPSHOT_VERSION,
            |enc| {
                enc.put_u64(self.config_fingerprint());
                enc.put_u64(since.check);
                put_context(enc, ctx);
                observation.snapshot_write_delta(enc, &since.changed);
                put_dirty(enc, observer);
                decide::delta_write(
                    self.state.as_ref(),
                    enc,
                    self.epoch,
                    observation,
                    &since.changed,
                    since.all_scores,
                );
                self.put_ledger_and_feedback(enc);
            },
        );
        self.observe_save(span_t, enc.len() - start);
        true
    }

    /// Layout identity of the decide state a snapshot of `observation`
    /// would hold now.
    fn persisted_layout(&self, observation: &FleetObservation) -> Option<Arc<[u64]>> {
        let state = self.state.as_ref()?;
        state
            .live_for(self.epoch, observation)
            .then(|| Arc::clone(state.layout_id()))
    }

    fn put_ledger_and_feedback(&self, enc: &mut lakesim_storage::Encoder) {
        match &self.tracker {
            Some(tracker) => {
                enc.put_bool(true);
                tracker.snapshot_write(enc);
            }
            None => enc.put_bool(false),
        }
        self.feedback.snapshot_write(enc);
    }

    /// Records one save's encode time and frame bytes.
    fn observe_save(&self, span_t: u64, bytes: usize) {
        self.telemetry.observe(
            tnames::DURABILITY_SNAPSHOT_SAVE_US,
            self.telemetry.now().saturating_sub(span_t),
        );
        self.telemetry
            .observe(tnames::DURABILITY_SNAPSHOT_BYTES, bytes as u64);
    }

    /// Restores a snapshot produced by [`encode_snapshot`](Self::encode_snapshot)
    /// into this pipeline and the given observer. Validation follows the
    /// [`crate::durability`] contract: the frame must open (magic, kind,
    /// checksum) at exactly this build's version, the configuration
    /// fingerprint must
    /// match, and the restored observation must carry the change cursor
    /// the retained structures are keyed by. Any failure resets the
    /// incremental state to a verbatim cold start and reports the first
    /// failed condition — this method never panics on untrusted bytes
    /// and never installs a partially-restored warm state.
    ///
    /// `bytes` is one base frame, or a base frame followed by a delta
    /// frame over it: what [`SnapshotStore::load`](lakesim_storage::SnapshotStore::load)
    /// returns.
    pub fn restore_snapshot(
        &mut self,
        observer: &mut FleetObserver,
        bytes: &[u8],
    ) -> RecoveryReport {
        self.restore(observer, bytes, true)
    }

    /// [`restore_snapshot`](Self::restore_snapshot) of what a store's
    /// load returned: its slot checksums already covered every byte, so
    /// the frames' own checksums are not computed again.
    pub(crate) fn restore_loaded(
        &mut self,
        observer: &mut FleetObserver,
        bytes: &[u8],
    ) -> RecoveryReport {
        self.restore(observer, bytes, false)
    }

    fn restore(
        &mut self,
        observer: &mut FleetObserver,
        bytes: &[u8],
        checked: bool,
    ) -> RecoveryReport {
        let span_t = self.telemetry.span_start();
        let report = match self.try_restore(observer, bytes, checked) {
            Ok(report) => report,
            Err(reason) => {
                // Degrade to a coherent cold start: drop every retained
                // structure a partial decode may have been meant for.
                observer.reset();
                self.state = None;
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
        checked: bool,
    ) -> std::result::Result<RecoveryReport, String> {
        use crate::durability::{SNAPSHOT_DELTA_KIND, SNAPSHOT_KIND, SNAPSHOT_VERSION};
        fn cerr(e: lakesim_storage::CodecError) -> String {
            format!("snapshot payload corrupt: {e}")
        }
        let open_frame = match checked {
            true => lakesim_storage::open_frame,
            false => lakesim_storage::codec::open_covered_frame,
        };
        let open = |bytes, kind, what| {
            let frame = open_frame(bytes, kind, SNAPSHOT_VERSION)
                .map_err(|e| format!("snapshot {what} rejected: {e}"))?;
            if frame.version != SNAPSHOT_VERSION {
                return Err(format!(
                    "snapshot version {} predates this build's {SNAPSHOT_VERSION}: no migration, \
                     cold start",
                    frame.version
                ));
            }
            let mut dec = lakesim_storage::Decoder::new(frame.payload);
            if dec.take_u64("config fingerprint").map_err(cerr)? != self.config_fingerprint() {
                return Err(
                    "configuration fingerprint mismatch: snapshot was taken under a different \
                     pipeline configuration"
                        .to_string(),
                );
            }
            Ok(dec)
        };
        // The base frame, then the delta over it, if one follows. The
        // delta's sections are read alongside the base's, so no entry
        // the delta replaces is built from the base.
        let (base, delta) = bytes.split_at(frame_len(bytes).unwrap_or(bytes.len()));
        let mut dec = open(base, SNAPSHOT_KIND, "frame")?;
        let mut delta = match delta.is_empty() {
            true => None,
            false => {
                let mut dec = open(delta, SNAPSHOT_DELTA_KIND, "delta")?;
                if dec.take_u64("delta base").map_err(cerr)? != frame_check(base) {
                    return Err("snapshot delta was taken over another base frame".to_string());
                }
                Some(dec)
            }
        };

        // Decode everything into temporaries first; nothing is installed
        // until the whole payload has validated.
        let mut ctx = take_context(&mut dec).map_err(cerr)?;
        let mut observation_delta = None;
        if let Some(d) = delta.as_mut() {
            ctx = take_context(d).map_err(cerr)?;
            observation_delta = Some(ObservationDelta::read(d).map_err(cerr)?);
        }
        let positions = observation_delta
            .as_ref()
            .map_or_else(Vec::new, |d| d.positions.clone());
        let observation =
            FleetObservation::snapshot_restore(&mut dec, observation_delta).map_err(cerr)?;
        if observation.cursor().is_none() {
            return Err("snapshot observation carries no change cursor".to_string());
        }
        let mut dirty = take_dirty(&mut dec).map_err(cerr)?;
        if let Some(d) = delta.as_mut() {
            dirty = take_dirty(d).map_err(cerr)?;
        }
        // The state is re-keyed to this pipeline's current epoch: the
        // fingerprint established the configurations agree, and the epoch
        // is a local mutation counter, not part of the durable identity.
        let keys = Keys {
            epoch: self.epoch,
            scope: observation.scope(),
            cursor: observation.cursor(),
            now_ms: 0,
            tables: observation.tables_shared(),
        };
        let (template, _) = self.trait_template();
        let decide_delta = delta.as_mut().map(|d| (d, &positions[..]));
        let state = decide::snapshot_read(&mut dec, decide_delta, keys, &template, &observation)
            .map_err(cerr)?;
        // The ledger and the feedback go whole into a delta, so the
        // base's are not read under one.
        let mut tail = delta.unwrap_or(dec);
        let (tracker, feedback) = take_ledger_and_feedback(&mut tail).map_err(cerr)?;
        tail.finish().map_err(cerr)?;

        // Validated end-to-end: install atomically.
        let tables = observation.tables().len();
        let cache_restored = state.is_some();
        let memo_restored = state.as_ref().is_some_and(|s| s.selection.is_retained());
        self.state = state;
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

/// Bytes of the sealed frame `bytes` opens with, as its header declares
/// them, when they fit in `bytes`.
fn frame_len(bytes: &[u8]) -> Option<usize> {
    let header = lakesim_storage::codec::FRAME_OVERHEAD - 8;
    let len = u64::from_le_bytes(bytes.get(header - 8..header)?.try_into().unwrap());
    let total = usize::try_from(len)
        .ok()?
        .checked_add(lakesim_storage::codec::FRAME_OVERHEAD)?;
    (total <= bytes.len()).then_some(total)
}

/// The checksum sealing a whole frame: its last eight bytes.
fn frame_check(frame: &[u8]) -> u64 {
    u64::from_le_bytes(frame[frame.len() - 8..].try_into().unwrap())
}

fn put_context(enc: &mut lakesim_storage::Encoder, ctx: &SnapshotContext) {
    enc.put_u64(ctx.cycle);
    enc.put_u64(ctx.executor_cursor);
    enc.put_u64(ctx.journal_watermark);
}

fn take_context(
    dec: &mut lakesim_storage::Decoder<'_>,
) -> std::result::Result<SnapshotContext, lakesim_storage::CodecError> {
    Ok(SnapshotContext {
        cycle: dec.take_u64("cycle")?,
        executor_cursor: dec.take_u64("executor cursor")?,
        journal_watermark: dec.take_u64("journal watermark")?,
    })
}

/// The observer's pending dirty marks, by uid ascending.
fn put_dirty(enc: &mut lakesim_storage::Encoder, observer: &FleetObserver) {
    let dirty = observer.pending_dirty_uids();
    enc.put_u64(dirty.len() as u64);
    for uid in dirty {
        enc.put_u64(uid);
    }
}

fn take_dirty(
    dec: &mut lakesim_storage::Decoder<'_>,
) -> std::result::Result<Vec<u64>, lakesim_storage::CodecError> {
    (0..dec.take_len(8, "pending dirty")?)
        .map(|_| dec.take_u64("dirty uid"))
        .collect()
}

fn take_ledger_and_feedback(
    dec: &mut lakesim_storage::Decoder<'_>,
) -> std::result::Result<(Option<JobTracker>, EstimationFeedback), lakesim_storage::CodecError> {
    let tracker = match dec.take_bool("tracker present")? {
        true => Some(JobTracker::snapshot_read(dec)?),
        false => None,
    };
    Ok((tracker, EstimationFeedback::snapshot_read(dec)?))
}

/// Everything one [`AutoComp::cycle`] call needs.
pub struct CycleInput<'a> {
    /// The lake to observe.
    pub connector: &'a dyn LakeConnector,
    /// `Some`: the retained incremental observe, and the decide state is
    /// kept for the next cycle. `None`: a cold one-shot observe whose
    /// state is dropped with the cycle.
    pub observer: Option<&'a mut FleetObserver>,
    /// Where selected work is submitted and finished jobs are polled; a
    /// plain [`CompactionExecutor`](crate::connector::CompactionExecutor)
    /// goes through [`Untracked`](crate::act::Untracked).
    pub executor: &'a mut dyn TrackedExecutor,
    /// Cycle timestamp.
    pub now_ms: u64,
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
    use crate::act::Untracked;
    use crate::candidate::TableRef;
    use crate::connector::CompactionExecutor;
    use crate::filter::MinSizeFilter;
    use crate::rank::TraitWeight;
    use crate::stats::CandidateStats;
    use crate::traits::{ComputeCostGbhr, FileCountReduction, TraitDirection};

    /// In-memory lake with configurable per-table small-file counts.
    /// `changelog` gives it a change cursor over a log that never records
    /// a write; every table reports `partitions` partitions of its own
    /// stats; `listing_epoch` lets observes share an unchanged listing.
    struct MemoryLake {
        tables: Vec<(TableRef, CandidateStats)>,
        changelog: bool,
        partitions: u64,
        listing_epoch: Option<u64>,
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
                listing_epoch: None,
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
        fn listing_epoch(&self) -> Option<u64> {
            self.listing_epoch
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

    /// One cycle through an executor whose poll settles nothing.
    fn plain_cycle(
        ac: &mut AutoComp,
        lake: &MemoryLake,
        observer: Option<&mut FleetObserver>,
        exec: &mut Untracked<RecordingExecutor>,
        now_ms: u64,
    ) -> Result<CycleReport> {
        ac.cycle(CycleInput {
            connector: lake,
            observer,
            executor: exec,
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
        let mut exec = Untracked(RecordingExecutor::default());
        let mut ac = pipeline(2);
        let report = plain_cycle(&mut ac, &lake, None, &mut exec, 1000).unwrap();
        assert_eq!(report.generated, 3);
        assert_eq!(report.selected_count(), 2);
        assert_eq!(exec.0.calls.len(), 2);
        // Most fragmented table first.
        assert_eq!(exec.0.calls[0].0, CandidateId::table(2));
        assert!(report.total_predicted_reduction >= 500);
        let text = report.to_string();
        assert!(text.contains("selected"));
        assert!(text.contains("t2[table]"));
    }

    #[test]
    fn filters_drop_with_reasons() {
        let lake = MemoryLake::with_tables(&[(1, 100, 10), (2, 100, 10 << 30)]);
        let mut exec = Untracked(RecordingExecutor::default());
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
        let mut exec = Untracked(RecordingExecutor::default());
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
        let mut exec = Untracked(RecordingExecutor::default());
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
            let mut exec = Untracked(RecordingExecutor::default());
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
            let mut exec = Untracked(RecordingExecutor::default());
            plain_cycle(&mut pipeline(2), &lake, None, &mut exec, 7).unwrap()
        };
        let pull = run_pull();

        let mut observer = crate::observe::FleetObserver::new();
        let mut exec = Untracked(RecordingExecutor::default());
        let mut ac = pipeline(2);
        let incr1 = plain_cycle(&mut ac, &lake, Some(&mut observer), &mut exec, 7).unwrap();
        assert_eq!(pull.to_string(), incr1.to_string());
        // MemoryLake has no changelog, so the second incremental cycle is
        // a full re-observe — and still identical.
        let mut exec = Untracked(RecordingExecutor::default());
        let incr2 = plain_cycle(&mut ac, &lake, Some(&mut observer), &mut exec, 7).unwrap();
        assert_eq!(pull.to_string(), incr2.to_string());
        assert_eq!(observer.last().unwrap().fetched_tables(), 3);
    }

    /// What the four `{observer} × {polling, untracked executor}` shapes
    /// of [`CycleInput`] guarantee, over one lake and two cycles (the
    /// second starts after the first's jobs are due).
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
            let mut untracked = Untracked(RecordingExecutor::default());
            let reports = [1_000, 20_000].map(|now_ms| {
                let report = ac
                    .cycle(CycleInput {
                        connector: &lake,
                        observer: retained.then_some(&mut observer),
                        executor: if tracked { &mut exec } else { &mut untracked },
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
                // `ALL` lists the five phases after settle, then settle.
                let expect = [&[tphase::SETTLE][..], &tphase::ALL[..5]].concat();
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

        // Without a tracker all four shapes report identically: a polling
        // executor reproduces an untracked one's reports (quiet ledger
        // included) and incremental ≡ cold.
        let (cold_plain, ..) = run_cell(false, false, false);
        for (retained, tracked) in [(true, false), (false, true), (true, true)] {
            let (reports, .., at) = run_cell(false, retained, tracked);
            same(&cold_plain, &reports, &at);
            assert!(reports.iter().all(|r| r.ledger.is_quiet()), "{at}");
        }

        // With a tracker the first cycle's two jobs are due by the
        // second. Only a polling executor settles them; only with an
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

    /// A report keeps what it showed when it was returned: later cycles
    /// patch the state in place and re-score the score column its lazy
    /// tail shares, and the held report still iterates and renders
    /// exactly as before. It holds the trait rows of the rendered head
    /// only.
    #[test]
    fn a_held_report_is_unchanged_by_later_rescoring_cycles() {
        let specs: Vec<(u64, u64, u64)> = (1..=40)
            .map(|uid| (uid, uid * 7 % 23 + 1, 10 << 30))
            .collect();
        let mut lake = MemoryLake {
            changelog: true,
            listing_epoch: Some(0),
            ..MemoryLake::with_tables(&specs)
        };
        let mut ac = pipeline(3);
        let mut observer = FleetObserver::new();
        let mut exec = Untracked(RecordingExecutor::default());
        let held = plain_cycle(&mut ac, &lake, Some(&mut observer), &mut exec, 1_000).unwrap();
        assert_eq!(held.traits.rows(), RANKED_PREFIX_MIN);
        let (entries, text) = (held.ranked.to_vec(), held.to_string());
        for round in 1..=2u64 {
            for (table, stats) in lake.tables.iter_mut().step_by(3) {
                stats.small_file_count += 50 * round;
                observer.mark_dirty(table.table_uid);
            }
            let next = plain_cycle(
                &mut ac,
                &lake,
                Some(&mut observer),
                &mut exec,
                1_000 + round,
            )
            .unwrap();
            assert_eq!(ac.cycle_cache_stats().spliced_tables, 26, "round {round}");
            assert!(ac.rank_memo_stats().recomputed_scores > 0, "round {round}");
            assert_ne!(next.ranked.to_vec(), entries, "round {round}");
        }
        assert_eq!(held.ranked.to_vec(), entries);
        assert_eq!(held.to_string(), text);
    }

    /// Without a listing epoch every observe re-reads the listing; one
    /// equal to the prior's keeps the prior's `Arc`, so the decide state
    /// keeps its slot layout from cycle to cycle and still decides what a
    /// cold pipeline decides. A changed descriptor still remaps it.
    #[test]
    fn an_unchanged_listing_without_an_epoch_keeps_the_layout() {
        let specs: Vec<(u64, u64, u64)> = (1..=30)
            .map(|uid| (uid, uid * 5 % 17 + 1, 10 << 30))
            .collect();
        let mut lake = MemoryLake {
            changelog: true,
            ..MemoryLake::with_tables(&specs)
        };
        let mut ac = pipeline(3);
        let mut observer = FleetObserver::new();
        let mut exec = Untracked(RecordingExecutor::default());
        let layout = |ac: &AutoComp| Arc::clone(ac.state.as_ref().expect("kept").layout_id());
        plain_cycle(&mut ac, &lake, Some(&mut observer), &mut exec, 1_000).unwrap();
        let first = layout(&ac);
        for round in 1..=3 {
            lake.tables[round].1.small_file_count += 40;
            observer.mark_dirty(lake.tables[round].0.table_uid);
            let now_ms = 1_000 + round as u64;
            let warm = plain_cycle(&mut ac, &lake, Some(&mut observer), &mut exec, now_ms);
            let mut fresh = Untracked(RecordingExecutor::default());
            let cold = plain_cycle(&mut pipeline(3), &lake, None, &mut fresh, now_ms);
            let (warm, cold) = (warm.unwrap(), cold.unwrap());
            assert!(Arc::ptr_eq(&first, &layout(&ac)), "round {round}");
            assert_eq!(ac.cycle_cache_stats().recomputed_tables, 1, "round {round}");
            assert_eq!(warm.ranked.to_vec(), cold.ranked.to_vec(), "round {round}");
            assert_eq!(warm.to_string(), cold.to_string(), "round {round}");
        }
        lake.tables[4].0.name = "renamed".into();
        plain_cycle(&mut ac, &lake, Some(&mut observer), &mut exec, 2_000).unwrap();
        assert!(
            !Arc::ptr_eq(&first, &layout(&ac)),
            "a changed descriptor remaps"
        );
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
        let mut exec = Untracked(RecordingExecutor::default());
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
        assert_eq!(exec.0.calls[0].0, CandidateId::table(1));
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
        let mut exec = Untracked(RecordingExecutor::default());
        // An untracked executor never settles: cycle 1 leaves table 1 live,
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
        let mut exec = Untracked(RecordingExecutor::default());
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
            executor: &mut exec,
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
