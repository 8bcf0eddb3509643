//! Production-deployment experiments: Figures 2, 10 and 11 and the §7
//! estimator-accuracy study, all driven by the fleet synthesizer.

use autocomp::{
    AlreadyCompactFilter, AutoComp, AutoCompConfig, CompactionDisabledFilter, ComputeCostGbhr,
    CycleInput, FileCountReduction, FleetObserver, IntermediateTableFilter, RankingPolicy,
    RecentlyCreatedFilter, ScopeStrategy, TraitWeight, Untracked,
};
use autocomp_lakesim::{LakesimConnector, LakesimExecutor, ObserveOptions};
use lakesim_catalog::{AccuracySummary, JobStatus};
use lakesim_engine::{AppKind, ReadSpec, RewriteOptions, MS_PER_DAY, MS_PER_HOUR};
use lakesim_lst::{plan_table_rewrite, BinPackConfig, PartitionFilter, TableId};
use lakesim_storage::MB;
use lakesim_workload::fleet::{Fleet, FleetConfig};

/// Builds the production-style AutoComp pipeline: MOOP ΔF/cost with the
/// deployment filters of §4.1/§7.
pub fn production_pipeline(policy: RankingPolicy, use_planned_estimates: bool) -> AutoComp {
    AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy,
        trigger_label: "periodic".to_string(),
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
    .with_trait(Box::new(FileCountReduction {
        use_planned_estimate: use_planned_estimates,
    }))
    .with_trait(Box::new(ComputeCostGbhr::default()))
}

/// Standard MOOP top-k policy with the deployment weights.
pub fn moop_topk(k: usize) -> RankingPolicy {
    RankingPolicy::Moop {
        weights: vec![
            TraitWeight::new("file_count_reduction", 0.7),
            TraitWeight::new("compute_cost_gbhr", 0.3),
        ],
        k,
    }
}

/// §7's quota-aware weighting with a fixed k.
pub fn quota_aware_topk(k: usize) -> RankingPolicy {
    RankingPolicy::QuotaAwareMoop {
        benefit_trait: "file_count_reduction".to_string(),
        cost_trait: "compute_cost_gbhr".to_string(),
        k: Some(k),
        budget: None,
    }
}

/// §7's dynamic-k budgeted selection.
pub fn budgeted(budget_gbhr: f64) -> RankingPolicy {
    RankingPolicy::BudgetedMoop {
        weights: vec![
            TraitWeight::new("file_count_reduction", 0.7),
            TraitWeight::new("compute_cost_gbhr", 0.3),
        ],
        cost_trait: "compute_cost_gbhr".to_string(),
        budget: budget_gbhr,
        max_k: None,
    }
}

/// Runs one AutoComp cycle against a fleet, draining a grace window after.
/// Returns the number of selected candidates.
pub fn auto_cycle(fleet: &Fleet, pipeline: &mut AutoComp, use_planned: bool) -> usize {
    let now = fleet.now_ms();
    let connector = LakesimConnector::with_options(
        fleet.env.clone(),
        ObserveOptions {
            compute_planned_estimates: use_planned,
            transform_signals: false,
        },
    );
    let mut executor = Untracked(LakesimExecutor::new(fleet.env.clone()));
    let selected = pipeline
        .cycle(CycleInput {
            connector: &connector,
            observer: &mut FleetObserver::new(),
            executor: &mut executor,
            now_ms: now,
        })
        .map(|r| r.selected_count())
        .unwrap_or(0);
    drop(executor);
    drop(connector);
    fleet.env.borrow_mut().drain_due(now + 4 * MS_PER_HOUR);
    selected
}

/// Picks the `k` most fragmented tables — the paper's initial manual
/// strategy: "repeatedly compacted a fixed set of k ≈ 100 tables […]
/// chosen because of their susceptibility to high fragmentation".
pub fn pick_manual_targets(fleet: &Fleet, k: usize) -> Vec<TableId> {
    let env = fleet.env.borrow();
    let mut scored: Vec<(u64, TableId)> = env
        .catalog
        .table_ids()
        .into_iter()
        .filter_map(|id| {
            let entry = env.catalog.table(id).ok()?;
            if !entry.policy.compaction_enabled {
                return None;
            }
            let stats = entry.table.stats(entry.policy.target_file_size);
            Some((stats.small_file_count, id))
        })
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.into_iter().take(k).map(|(_, id)| id).collect()
}

/// Compacts a fixed set of tables (manual strategy). Returns jobs run.
pub fn manual_cycle(fleet: &Fleet, targets: &[TableId]) -> usize {
    let now = fleet.now_ms();
    let mut jobs = 0;
    for table in targets {
        let mut env = fleet.env.borrow_mut();
        let plan = {
            let Ok(entry) = env.catalog.table(*table) else {
                continue;
            };
            plan_table_rewrite(
                &entry.table,
                &BinPackConfig {
                    target_file_size: entry.policy.target_file_size,
                    small_file_fraction: 0.75,
                    min_input_files: entry.policy.min_input_files,
                },
            )
        };
        if plan.is_empty() {
            continue;
        }
        let predicted_gbhr = env.cost().estimate_gbhr(64.0, plan.input_bytes());
        let opts = RewriteOptions {
            cluster: "compaction".to_string(),
            parallelism: 3,
            trigger: "manual".to_string(),
            predicted_reduction: plan.expected_reduction(),
            predicted_gbhr,
        };
        if env
            .submit_rewrite(&plan, &opts, now)
            .ok()
            .flatten()
            .is_some()
        {
            jobs += 1;
        }
    }
    fleet.env.borrow_mut().drain_due(now + 4 * MS_PER_HOUR);
    jobs
}

// ---------------------------------------------------------------------
// Fig. 2 — fleet file-size distribution across compaction regimes.
// ---------------------------------------------------------------------

/// Result of the Fig. 2 experiment.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Histogram bucket labels.
    pub bucket_labels: Vec<String>,
    /// `(phase label, per-bucket fractions, fraction < 128MB)`.
    pub phases: Vec<(String, Vec<f64>, f64)>,
}

/// Fleet scale for the production experiments.
#[derive(Debug, Clone)]
pub struct ProductionScale {
    /// Fleet shape.
    pub fleet: FleetConfig,
    /// Days per phase/regime segment.
    pub days_per_phase: u64,
    /// Manual top-k.
    pub manual_k: usize,
    /// Auto top-k.
    pub auto_k: usize,
}

impl ProductionScale {
    /// Scale for tests: small fleet, short phases.
    pub fn test_scale(seed: u64) -> Self {
        ProductionScale {
            fleet: FleetConfig {
                databases: 3,
                tables_per_db: 8,
                initial_days: 2,
                seed,
                ..FleetConfig::default()
            },
            days_per_phase: 3,
            manual_k: 6,
            auto_k: 3,
        }
    }

    /// Scale for the figure binaries.
    pub fn paper_scale(seed: u64) -> Self {
        ProductionScale {
            fleet: FleetConfig {
                databases: 8,
                tables_per_db: 25,
                // Long accumulation before compaction existed (the paper's
                // fleet ran for months before the Fig. 2 baseline).
                initial_days: 12,
                seed,
                ..FleetConfig::default()
            },
            days_per_phase: 8,
            manual_k: 25,
            auto_k: 10,
        }
    }
}

/// Runs Fig. 2: before → after manual → after AutoComp distribution shift.
pub fn run_fig2(scale: &ProductionScale) -> Fig2Result {
    let mut fleet = Fleet::build(&scale.fleet);
    let hist = fleet.data_histogram();
    let labels: Vec<String> = (0..hist.counts().len())
        .map(|i| hist.bucket_label(i))
        .collect();
    let mut phases = Vec::new();
    let snapshot = |fleet: &Fleet, label: &str| {
        let h = fleet.data_histogram();
        (
            label.to_string(),
            h.fractions(),
            h.fraction_at_or_below(128 * MB),
        )
    };
    phases.push(snapshot(&fleet, "before compaction"));

    // Manual phase: fixed top-k targets compacted daily.
    let targets = pick_manual_targets(&fleet, scale.manual_k);
    for _ in 0..scale.days_per_phase {
        fleet.advance_day();
        manual_cycle(&fleet, &targets);
    }
    phases.push(snapshot(&fleet, "after manual compaction"));

    // AutoComp phase: MOOP top-k, dynamic candidate selection.
    let mut pipeline = production_pipeline(moop_topk(scale.auto_k), false);
    for _ in 0..scale.days_per_phase {
        fleet.advance_day();
        auto_cycle(&fleet, &mut pipeline, false);
    }
    phases.push(snapshot(&fleet, "after auto compaction"));

    Fig2Result {
        bucket_labels: labels,
        phases,
    }
}

// ---------------------------------------------------------------------
// Fig. 10a/b — rollout: manual→auto transition, static→dynamic k.
// ---------------------------------------------------------------------

/// One week of the rollout chart.
#[derive(Debug, Clone)]
pub struct WeekRow {
    /// Week index.
    pub week: u64,
    /// Regime label.
    pub regime: String,
    /// Files reduced by compaction this week.
    pub files_reduced: i64,
    /// Compaction cost this week (GBHr).
    pub gbhr: f64,
    /// Mean candidates selected per cycle (the effective k).
    pub k_effective: f64,
}

/// Result of the Fig. 10a/b rollout experiment.
#[derive(Debug, Clone)]
pub struct RolloutResult {
    /// Weekly rows for segment (a): manual k → auto top-k.
    pub segment_a: Vec<WeekRow>,
    /// Weekly rows for segment (b): static k → dynamic (budgeted) k.
    pub segment_b: Vec<WeekRow>,
}

fn run_week(
    fleet: &mut Fleet,
    days: u64,
    regime: &str,
    week: u64,
    mut cycle: impl FnMut(&Fleet) -> usize,
) -> WeekRow {
    let (reduced_before, gbhr_before) = week_counters(fleet);
    let mut selections = Vec::new();
    for _ in 0..days {
        fleet.advance_day();
        selections.push(cycle(fleet));
    }
    let (reduced_after, gbhr_after) = week_counters(fleet);
    WeekRow {
        week,
        regime: regime.to_string(),
        files_reduced: reduced_after - reduced_before,
        gbhr: gbhr_after - gbhr_before,
        k_effective: if selections.is_empty() {
            0.0
        } else {
            selections.iter().sum::<usize>() as f64 / selections.len() as f64
        },
    }
}

fn week_counters(fleet: &Fleet) -> (i64, f64) {
    let env = fleet.env.borrow();
    let reduced: i64 = env
        .maintenance
        .with_status(JobStatus::Succeeded)
        .map(|r| r.actual_reduction)
        .sum();
    let gbhr = env
        .cluster("compaction")
        .map(|c| c.total_gbhr(AppKind::Compaction))
        .unwrap_or(0.0);
    (reduced, gbhr)
}

/// Runs Fig. 10a (manual k → auto k/10 at week 3) and Fig. 10b (static k
/// → budget-driven dynamic k), continuing one fleet.
pub fn run_fig10ab(scale: &ProductionScale, days_per_week: u64, budget_gbhr: f64) -> RolloutResult {
    let mut fleet = Fleet::build(&scale.fleet);
    let mut segment_a = Vec::new();

    // Weeks 0-2: manual fixed top-k (re-picked once, as deployed).
    let targets = pick_manual_targets(&fleet, scale.manual_k);
    for week in 0..3 {
        let row = run_week(&mut fleet, days_per_week, "manual k", week, |fleet| {
            manual_cycle(fleet, &targets)
        });
        segment_a.push(row);
    }
    // Weeks 3-5: AutoComp top-(k/10): "switching from manual top-100 to
    // automatic top-10 effectively increased overall file count reduction"
    // (§7).
    let mut auto = production_pipeline(moop_topk(scale.auto_k), false);
    for week in 3..6 {
        let row = run_week(&mut fleet, days_per_week, "auto top-k", week, |fleet| {
            auto_cycle(fleet, &mut auto, false)
        });
        segment_a.push(row);
    }

    // Segment (b): static k for two weeks, then dynamic k under a budget
    // (§7: "With a budget of 226 TBHr, we successfully compacted around
    // k ≈ 2500 tables per iteration").
    let mut segment_b = Vec::new();
    let mut static_pipeline = production_pipeline(moop_topk(scale.auto_k), false);
    for week in 21..23 {
        let row = run_week(&mut fleet, days_per_week, "static k", week, |fleet| {
            auto_cycle(fleet, &mut static_pipeline, false)
        });
        segment_b.push(row);
    }
    let mut dynamic_pipeline = production_pipeline(budgeted(budget_gbhr), false);
    for week in 23..25 {
        let row = run_week(&mut fleet, days_per_week, "dynamic k", week, |fleet| {
            auto_cycle(fleet, &mut dynamic_pipeline, false)
        });
        segment_b.push(row);
    }
    RolloutResult {
        segment_a,
        segment_b,
    }
}

// ---------------------------------------------------------------------
// Fig. 10c + Fig. 11b — long-horizon timeline with regime switches.
// ---------------------------------------------------------------------

/// Timeline configuration.
#[derive(Debug, Clone)]
pub struct TimelineConfig {
    /// Fleet shape.
    pub fleet: FleetConfig,
    /// Months simulated.
    pub months: u64,
    /// Days per simulated month (scaled; documented in EXPERIMENTS.md).
    pub days_per_month: u64,
    /// Month at which manual compaction starts (paper: 4).
    pub manual_onset: u64,
    /// Month at which AutoComp starts (paper: 9).
    pub auto_onset: u64,
    /// Tables added per month (deployment growth).
    pub growth_per_month: usize,
    /// Tables scanned daily (drives open() traffic, Fig. 11b).
    pub daily_scans: usize,
    /// Manual/auto k.
    pub manual_k: usize,
    /// Auto top-k.
    pub auto_k: usize,
}

impl TimelineConfig {
    /// Scaled config for tests.
    pub fn test_scale(seed: u64) -> Self {
        TimelineConfig {
            fleet: FleetConfig {
                databases: 3,
                tables_per_db: 6,
                initial_days: 1,
                seed,
                ..FleetConfig::default()
            },
            months: 6,
            days_per_month: 2,
            manual_onset: 2,
            auto_onset: 4,
            growth_per_month: 2,
            daily_scans: 6,
            manual_k: 5,
            auto_k: 3,
        }
    }

    /// Scale for the figure binaries (14 months as in Fig. 11b).
    pub fn paper_scale(seed: u64) -> Self {
        TimelineConfig {
            fleet: FleetConfig {
                databases: 6,
                tables_per_db: 20,
                initial_days: 2,
                seed,
                ..FleetConfig::default()
            },
            months: 14,
            days_per_month: 5,
            manual_onset: 4,
            auto_onset: 9,
            growth_per_month: 8,
            daily_scans: 30,
            manual_k: 15,
            auto_k: 5,
        }
    }
}

/// One month of the timeline.
#[derive(Debug, Clone)]
pub struct MonthRow {
    /// Month index.
    pub month: u64,
    /// Regime in effect ("none" / "manual" / "auto").
    pub regime: String,
    /// Live data files at month end (Fig. 10c "File Count").
    pub file_count: u64,
    /// Tables deployed (Fig. 10c/11b "Deployment Size").
    pub deployment_tables: u64,
    /// NameNode `open()` calls during the month (Fig. 11b).
    pub opens: u64,
    /// Files reduced by compaction during the month.
    pub files_reduced: i64,
}

/// Result of the timeline experiment.
#[derive(Debug, Clone)]
pub struct TimelineResult {
    /// Monthly rows.
    pub monthly: Vec<MonthRow>,
}

/// Runs the Fig. 10c / Fig. 11b timeline.
pub fn run_production_timeline(config: &TimelineConfig) -> TimelineResult {
    let mut fleet = Fleet::build(&config.fleet);
    let mut monthly = Vec::new();
    let mut manual_targets: Vec<TableId> = Vec::new();
    let mut auto = production_pipeline(moop_topk(config.auto_k), false);

    for month in 0..config.months {
        let regime = if month >= config.auto_onset {
            "auto"
        } else if month >= config.manual_onset {
            "manual"
        } else {
            "none"
        };
        if month == config.manual_onset {
            manual_targets = pick_manual_targets(&fleet, config.manual_k);
        }
        let opens_before = fleet.env.borrow().fs.metrics().rpc.opens;
        let (reduced_before, _) = week_counters(&fleet);
        fleet.add_tables(config.growth_per_month, &config.fleet);

        for _ in 0..config.days_per_month {
            // Daily scan-heavy workload drives open() traffic.
            run_daily_scans(&fleet, config.daily_scans);
            fleet.advance_day();
            match regime {
                "manual" => {
                    manual_cycle(&fleet, &manual_targets);
                }
                "auto" => {
                    auto_cycle(&fleet, &mut auto, false);
                }
                _ => {}
            }
        }
        let opens_after = fleet.env.borrow().fs.metrics().rpc.opens;
        let (reduced_after, _) = week_counters(&fleet);
        monthly.push(MonthRow {
            month,
            regime: regime.to_string(),
            file_count: fleet.data_file_count(),
            deployment_tables: fleet.tables.len() as u64,
            opens: opens_after - opens_before,
            files_reduced: reduced_after - reduced_before,
        });
    }
    TimelineResult { monthly }
}

fn run_daily_scans(fleet: &Fleet, count: usize) {
    let now = fleet.now_ms() + 6 * MS_PER_HOUR;
    let ids: Vec<TableId> = {
        let env = fleet.env.borrow();
        env.catalog.table_ids().into_iter().take(count).collect()
    };
    let mut env = fleet.env.borrow_mut();
    env.drain_due(now);
    for (i, id) in ids.iter().enumerate() {
        let spec = ReadSpec {
            table: *id,
            filter: PartitionFilter::All,
            cluster: "query".to_string(),
            parallelism: 8,
        };
        let _ = env.submit_read(&spec, now + (i as u64) * 30_000);
    }
}

// ---------------------------------------------------------------------
// Fig. 11a — daily workload metrics with sawtooth recurrence.
// ---------------------------------------------------------------------

/// One day of the Fig. 11a chart.
#[derive(Debug, Clone)]
pub struct DayRow {
    /// Day index.
    pub day: u64,
    /// Files scanned by the daily workload.
    pub files_scanned: u64,
    /// Total query execution time (ms).
    pub query_time_ms: f64,
    /// Query cost (GBHr consumed by reads).
    pub query_gbhr: f64,
    /// Files reduced by that day's compaction.
    pub files_reduced: i64,
}

/// Result of the Fig. 11a experiment.
#[derive(Debug, Clone)]
pub struct WorkloadMetricsResult {
    /// Daily rows.
    pub daily: Vec<DayRow>,
}

/// Runs Fig. 11a: a daily scan-heavy workload over a fleet compacted by
/// AutoComp with a small k, so unselected tables re-accumulate small
/// files — the paper's "recurring sawtooth pattern".
pub fn run_fig11a(scale: &ProductionScale, days: u64, scan_tables: usize) -> WorkloadMetricsResult {
    let mut fleet = Fleet::build(&scale.fleet);
    let mut pipeline = production_pipeline(moop_topk(scale.auto_k), false);
    let mut daily = Vec::new();
    for day in 0..days {
        let (reduced_before, _) = week_counters(&fleet);
        let (scanned, time_ms, gbhr) = scan_metrics(&fleet, scan_tables);
        fleet.advance_day();
        auto_cycle(&fleet, &mut pipeline, false);
        let (reduced_after, _) = week_counters(&fleet);
        daily.push(DayRow {
            day,
            files_scanned: scanned,
            query_time_ms: time_ms,
            query_gbhr: gbhr,
            files_reduced: reduced_after - reduced_before,
        });
    }
    WorkloadMetricsResult { daily }
}

fn scan_metrics(fleet: &Fleet, count: usize) -> (u64, f64, f64) {
    let now = fleet.now_ms() + 6 * MS_PER_HOUR;
    let ids: Vec<TableId> = {
        let env = fleet.env.borrow();
        env.catalog.table_ids().into_iter().take(count).collect()
    };
    let mut env = fleet.env.borrow_mut();
    env.drain_due(now);
    let gbhr_before = env
        .cluster("query")
        .map(|c| c.total_gbhr(AppKind::Query))
        .unwrap_or(0.0);
    let mut scanned = 0;
    let mut time_ms = 0.0;
    for (i, id) in ids.iter().enumerate() {
        let spec = ReadSpec {
            table: *id,
            filter: PartitionFilter::All,
            cluster: "query".to_string(),
            parallelism: 8,
        };
        if let Ok(result) = env.submit_read(&spec, now + (i as u64) * 30_000) {
            scanned += result.files_scanned;
            time_ms += result.latency_ms;
        }
    }
    let gbhr_after = env
        .cluster("query")
        .map(|c| c.total_gbhr(AppKind::Query))
        .unwrap_or(0.0);
    (scanned, time_ms, gbhr_after - gbhr_before)
}

// ---------------------------------------------------------------------
// §7 estimator accuracy.
// ---------------------------------------------------------------------

/// Runs the estimator-accuracy study: the same fleet compacted with naive
/// table-level ΔF predictions vs. partition-aware planned predictions.
pub fn run_estimator_accuracy(
    scale: &ProductionScale,
    days: u64,
) -> (AccuracySummary, AccuracySummary) {
    let run = |use_planned: bool| {
        let mut fleet = Fleet::build(&scale.fleet);
        let mut pipeline = production_pipeline(moop_topk(scale.auto_k), use_planned);
        for _ in 0..days {
            fleet.advance_day();
            auto_cycle(&fleet, &mut pipeline, use_planned);
        }
        let env = fleet.env.borrow();
        env.maintenance.accuracy()
    };
    (run(false), run(true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shifts_distribution_toward_target() {
        let r = run_fig2(&ProductionScale::test_scale(60));
        assert_eq!(r.phases.len(), 3);
        let before = r.phases[0].2;
        let after_manual = r.phases[1].2;
        let after_auto = r.phases[2].2;
        assert!(
            after_manual < before,
            "manual must reduce small-file share: {before:.3} -> {after_manual:.3}"
        );
        assert!(
            after_auto <= after_manual + 0.02,
            "auto must hold/extend the gain: {after_manual:.3} -> {after_auto:.3}"
        );
    }

    #[test]
    fn rollout_auto_beats_manual_effectiveness() {
        let r = run_fig10ab(&ProductionScale::test_scale(61), 2, 20.0);
        assert_eq!(r.segment_a.len(), 6);
        assert_eq!(r.segment_b.len(), 4);
        let manual_weekly: i64 = r.segment_a[..3].iter().map(|w| w.files_reduced).sum();
        let auto_weekly: i64 = r.segment_a[3..].iter().map(|w| w.files_reduced).sum();
        // §7: auto top-10 beat manual top-100 by ~12% on files reduced.
        assert!(
            auto_weekly > manual_weekly / 2,
            "auto {auto_weekly} vs manual {manual_weekly}"
        );
        // Dynamic k selects more candidates than static k.
        let static_k = r.segment_b[0].k_effective;
        let dynamic_k = r.segment_b[3].k_effective;
        assert!(
            dynamic_k >= static_k,
            "dynamic {dynamic_k} vs static {static_k}"
        );
    }

    #[test]
    fn timeline_compaction_bends_file_count_curve() {
        let r = run_production_timeline(&TimelineConfig::test_scale(62));
        assert_eq!(r.monthly.len(), 6);
        // Files grow before compaction starts…
        assert!(r.monthly[1].file_count > r.monthly[0].file_count);
        // …and the growth slows or reverses once compaction runs.
        let growth_before: i64 = r.monthly[1].file_count as i64 - r.monthly[0].file_count as i64;
        let last = r.monthly.len() - 1;
        let growth_after: i64 =
            r.monthly[last].file_count as i64 - r.monthly[last - 1].file_count as i64;
        assert!(
            growth_after < growth_before,
            "compaction must bend the curve: {growth_before} -> {growth_after}"
        );
        assert!(r.monthly.iter().any(|m| m.regime == "manual"));
        assert!(r.monthly.iter().any(|m| m.regime == "auto"));
        // Deployment keeps growing throughout.
        assert!(r.monthly[last].deployment_tables > r.monthly[0].deployment_tables);
    }

    #[test]
    fn fig11a_produces_scan_series() {
        let r = run_fig11a(&ProductionScale::test_scale(63), 4, 5);
        assert_eq!(r.daily.len(), 4);
        assert!(r.daily.iter().all(|d| d.files_scanned > 0));
        assert!(r.daily.iter().any(|d| d.files_reduced > 0));
    }

    #[test]
    fn partition_aware_estimates_are_less_biased() {
        let (naive, planned) = run_estimator_accuracy(&ProductionScale::test_scale(64), 3);
        assert!(naive.jobs > 0 && planned.jobs > 0);
        // §7: the naive table-level ΔF over-estimates; the partition-aware
        // refinement should cut the bias.
        assert!(
            planned.reduction_bias.abs() <= naive.reduction_bias.abs() + 0.05,
            "planned bias {:.3} vs naive {:.3}",
            planned.reduction_bias,
            naive.reduction_bias
        );
    }
}
