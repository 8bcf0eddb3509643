//! The §6 CAB experiment: Figures 6–8 and Table 1.
//!
//! 20 TPC-H-like databases run CAB query streams for five hours on the
//! query cluster while AutoComp triggers hourly on the compaction cluster.
//! Strategies compared: no compaction, MOOP(table, top-10),
//! MOOP(hybrid, top-50) and MOOP(hybrid, top-500), with weights 0.7 (file
//! count reduction) / 0.3 (compute cost) and a 512MB target, "mimicking
//! our OpenHouse deployment".

use autocomp::{
    AllParallelScheduler, AlreadyCompactFilter, AutoComp, AutoCompConfig, CompactionDisabledFilter,
    ComputeCostGbhr, CycleInput, FileCountReduction, FleetObserver, IntermediateTableFilter,
    ParallelTablesScheduler, RankingPolicy, ScopeStrategy, StrictSequentialScheduler, TraitWeight,
    Untracked,
};
use autocomp_lakesim::{with_shared_env, LakesimConnector, LakesimExecutor};
use lakesim_catalog::JobStatus;
use lakesim_engine::{
    AppKind, Candlestick, ConflictSide, EnvConfig, QueryClass, SimEnv, SimRng, MS_PER_HOUR,
    MS_PER_MIN,
};
use lakesim_storage::GB;
use lakesim_workload::cab::{generate_cab, CabConfig};
use lakesim_workload::driver::run_stream;

/// Compaction strategy under test.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Baseline: no compaction.
    NoCompaction,
    /// MOOP-ranked top-k compaction at the given scope.
    Moop {
        /// Candidate scope.
        scope: ScopeStrategy,
        /// Work units per cycle.
        k: usize,
    },
}

impl Strategy {
    /// Label used in figure output.
    pub fn label(&self) -> String {
        match self {
            Strategy::NoCompaction => "no-compaction".to_string(),
            Strategy::Moop { scope, k } => format!("moop-{}-top{k}", scope.label()),
        }
    }
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct CabExperimentConfig {
    /// Master seed.
    pub seed: u64,
    /// Workload parameters.
    pub cab: CabConfig,
    /// Strategy under test.
    pub strategy: Strategy,
    /// File-count sampling cadence.
    pub sample_every_ms: u64,
    /// Compaction trigger cadence (paper: hourly).
    pub compact_every_ms: u64,
    /// MOOP weights (file-count reduction, compute cost); paper: 0.7/0.3.
    pub weights: (f64, f64),
    /// Act-phase scheduler (§4.4 ablation).
    pub scheduler: SchedulerKind,
}

/// Scheduler choice for the act phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Paper production arrangement: parallel tables, sequential
    /// partitions (§6).
    ParallelTables,
    /// Everything concurrent — the configuration §4.4 observed failing.
    AllParallel,
    /// One job at a time.
    StrictSequential,
}

impl CabExperimentConfig {
    /// Paper-scale parameters (§6): 20 DBs, 500GB, 5 hours.
    pub fn paper_scale(seed: u64, strategy: Strategy) -> Self {
        CabExperimentConfig {
            seed,
            cab: CabConfig::default(),
            strategy,
            sample_every_ms: 10 * MS_PER_MIN,
            compact_every_ms: MS_PER_HOUR,
            weights: (0.7, 0.3),
            scheduler: SchedulerKind::ParallelTables,
        }
    }

    /// Mid-scale parameters: the default for the figure binaries (the
    /// paper scale is available via `AUTOCOMP_SCALE=paper`).
    pub fn mid_scale(seed: u64, strategy: Strategy) -> Self {
        CabExperimentConfig {
            seed,
            cab: CabConfig {
                databases: 8,
                duration_hours: 5,
                bytes_per_database: 4 * GB,
                months: 12,
                ..CabConfig::default()
            },
            strategy,
            sample_every_ms: 10 * MS_PER_MIN,
            compact_every_ms: MS_PER_HOUR,
            weights: (0.7, 0.3),
            scheduler: SchedulerKind::ParallelTables,
        }
    }

    /// Picks a scale from the `AUTOCOMP_SCALE` environment variable:
    /// `paper`, `mid` (default) or `test`.
    pub fn from_env(seed: u64, strategy: Strategy) -> Self {
        match std::env::var("AUTOCOMP_SCALE").as_deref() {
            Ok("paper") => Self::paper_scale(seed, strategy),
            Ok("test") => Self::test_scale(seed, strategy),
            _ => Self::mid_scale(seed, strategy),
        }
    }

    /// Scaled-down parameters for tests and quick runs.
    pub fn test_scale(seed: u64, strategy: Strategy) -> Self {
        CabExperimentConfig {
            seed,
            cab: CabConfig {
                databases: 4,
                duration_hours: 3,
                bytes_per_database: GB,
                months: 6,
                ..CabConfig::default()
            },
            strategy,
            sample_every_ms: 10 * MS_PER_MIN,
            compact_every_ms: MS_PER_HOUR,
            weights: (0.7, 0.3),
            scheduler: SchedulerKind::ParallelTables,
        }
    }
}

/// One row of the per-hour breakdown (Fig. 8 + Table 1).
#[derive(Debug, Clone)]
pub struct HourlyRow {
    /// Hour index (1-based, as in the paper's tables).
    pub hour: u64,
    /// Write queries submitted in the hour.
    pub write_queries: u64,
    /// Client-side conflicts (Table 1).
    pub client_conflicts: u64,
    /// Cluster-side conflicts (Table 1).
    pub cluster_conflicts: u64,
    /// Read-only latency candlestick (Fig. 8 left column).
    pub read_only: Option<Candlestick>,
    /// Read-write latency candlestick (Fig. 8 right column).
    pub read_write: Option<Candlestick>,
}

/// Complete result of one CAB run.
#[derive(Debug, Clone)]
pub struct CabRunResult {
    /// Strategy label.
    pub label: String,
    /// `(time_ms, live file count)` series — Fig. 6.
    pub file_count_series: Vec<(u64, u64)>,
    /// Compaction applications executed.
    pub compaction_apps: u64,
    /// Mean GBHr per compaction application — Fig. 7.
    pub mean_compaction_gbhr: f64,
    /// Total compaction GBHr.
    pub total_compaction_gbhr: f64,
    /// Per-hour rows — Fig. 8 / Table 1.
    pub hourly: Vec<HourlyRow>,
    /// End-to-end makespan (§6.2 compares against the 5-hour budget).
    pub makespan_ms: u64,
    /// Actual file-count reduction achieved by succeeded jobs.
    pub files_reduced: i64,
    /// Succeeded compaction jobs.
    pub jobs_succeeded: u64,
    /// Cluster-side-conflicted compaction jobs.
    pub jobs_conflicted: u64,
    /// Candidates selected per cycle (the effective k trace).
    pub selected_per_cycle: Vec<usize>,
}

/// Builds the AutoComp pipeline for a strategy; `None` for the baseline.
pub fn build_pipeline(
    strategy: &Strategy,
    weights: (f64, f64),
    scheduler: SchedulerKind,
) -> Option<AutoComp> {
    match strategy {
        Strategy::NoCompaction => None,
        Strategy::Moop { scope, k } => Some(
            AutoComp::new(AutoCompConfig {
                scope: *scope,
                policy: RankingPolicy::Moop {
                    weights: vec![
                        TraitWeight::new("file_count_reduction", weights.0),
                        TraitWeight::new("compute_cost_gbhr", weights.1),
                    ],
                    k: *k,
                },
                trigger_label: "periodic".to_string(),
                calibrate: false,
            })
            .with_filter(Box::new(CompactionDisabledFilter))
            .with_filter(Box::new(IntermediateTableFilter))
            .with_filter(Box::new(AlreadyCompactFilter {
                min_small_files: 2,
                min_small_fraction: 0.0,
            }))
            .with_trait(Box::new(FileCountReduction::default()))
            .with_trait(Box::new(ComputeCostGbhr::default()))
            .with_scheduler(match scheduler {
                SchedulerKind::ParallelTables => Box::new(ParallelTablesScheduler),
                SchedulerKind::AllParallel => Box::new(AllParallelScheduler),
                SchedulerKind::StrictSequential => Box::new(StrictSequentialScheduler),
            }),
        ),
    }
}

/// Runs the CAB experiment for one strategy.
pub fn run_cab(config: &CabExperimentConfig) -> CabRunResult {
    let mut env = SimEnv::new(EnvConfig {
        seed: config.seed,
        ..EnvConfig::default()
    });
    let mut rng = SimRng::seed_from_u64(config.seed ^ 0xCAB);
    let workload = generate_cab(&mut env, &config.cab, &mut rng);
    let mut pipeline = build_pipeline(&config.strategy, config.weights, config.scheduler);
    let end_ms = config.cab.duration_hours * MS_PER_HOUR;

    let data_files = |env: &SimEnv| env.fs.total_files_of_kind(lakesim_storage::FileKind::Data);
    let mut file_count_series = vec![(0, data_files(&env))];
    let mut selected_per_cycle = Vec::new();
    let compact_every = config.compact_every_ms.max(1);
    let stats = run_stream(
        &mut env,
        &workload.ops,
        config.sample_every_ms,
        end_ms,
        |env, tick| {
            if tick % compact_every == 0 {
                if let Some(pipeline) = pipeline.as_mut() {
                    let selected = with_shared_env(env, |shared| {
                        let connector = LakesimConnector::new(shared.clone());
                        let mut executor = Untracked(LakesimExecutor::new(shared.clone()));
                        pipeline
                            .cycle(CycleInput {
                                connector: &connector,
                                observer: &mut FleetObserver::new(),
                                executor: &mut executor,
                                now_ms: tick,
                            })
                            .map(|report| report.selected_count())
                            .unwrap_or(0)
                    });
                    selected_per_cycle.push(selected);
                }
            }
            file_count_series.push((tick, data_files(env)));
        },
    );
    file_count_series.push((end_ms, data_files(&env)));

    let hourly = (0..config.cab.duration_hours)
        .map(|h| {
            let from = h * MS_PER_HOUR;
            let to = (h + 1) * MS_PER_HOUR;
            HourlyRow {
                hour: h + 1,
                write_queries: env.metrics.write_queries_in(from, to),
                client_conflicts: env.metrics.conflicts_in(from, to, ConflictSide::Client),
                cluster_conflicts: env.metrics.conflicts_in(from, to, ConflictSide::Cluster),
                read_only: env.metrics.candlestick(from, to, QueryClass::ReadOnly),
                read_write: env.metrics.candlestick(from, to, QueryClass::ReadWrite),
            }
        })
        .collect();

    let compaction = env.cluster("compaction").expect("provisioned");
    let files_reduced = env
        .maintenance
        .with_status(JobStatus::Succeeded)
        .map(|r| r.actual_reduction)
        .sum();
    CabRunResult {
        label: config.strategy.label(),
        file_count_series,
        compaction_apps: compaction.apps_of_kind(AppKind::Compaction).count() as u64,
        mean_compaction_gbhr: compaction.mean_gbhr(AppKind::Compaction),
        total_compaction_gbhr: compaction.total_gbhr(AppKind::Compaction),
        hourly,
        makespan_ms: stats.makespan_ms,
        files_reduced,
        jobs_succeeded: env.maintenance.count(JobStatus::Succeeded),
        jobs_conflicted: env.maintenance.count(JobStatus::Conflicted),
        selected_per_cycle,
    }
}

/// The paper's four §6 strategies in presentation order.
pub fn paper_strategies() -> Vec<Strategy> {
    vec![
        Strategy::NoCompaction,
        Strategy::Moop {
            scope: ScopeStrategy::Table,
            k: 10,
        },
        Strategy::Moop {
            scope: ScopeStrategy::Hybrid,
            k: 50,
        },
        Strategy::Moop {
            scope: ScopeStrategy::Hybrid,
            k: 500,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_beats_baseline_on_file_count() {
        let baseline = run_cab(&CabExperimentConfig::test_scale(1, Strategy::NoCompaction));
        let compacted = run_cab(&CabExperimentConfig::test_scale(
            1,
            Strategy::Moop {
                scope: ScopeStrategy::Table,
                k: 10,
            },
        ));
        let final_baseline = baseline.file_count_series.last().unwrap().1;
        let final_compacted = compacted.file_count_series.last().unwrap().1;
        assert!(
            (final_compacted as f64) < final_baseline as f64 * 0.7,
            "compacted {final_compacted} vs baseline {final_baseline}"
        );
        assert!(compacted.jobs_succeeded > 0);
        assert!(compacted.files_reduced > 0);
        assert_eq!(baseline.compaction_apps, 0);
        assert!(compacted.mean_compaction_gbhr > 0.0);
    }

    #[test]
    fn baseline_file_count_grows_over_time() {
        let baseline = run_cab(&CabExperimentConfig::test_scale(2, Strategy::NoCompaction));
        let first = baseline.file_count_series.first().unwrap().1;
        let last = baseline.file_count_series.last().unwrap().1;
        assert!(last > first, "files must accumulate: {first} -> {last}");
    }

    #[test]
    fn hourly_rows_cover_duration() {
        let r = run_cab(&CabExperimentConfig::test_scale(3, Strategy::NoCompaction));
        assert_eq!(r.hourly.len(), 3);
        let writes: u64 = r.hourly.iter().map(|h| h.write_queries).sum();
        assert!(writes > 0);
        assert!(r.hourly.iter().any(|h| h.read_only.is_some()));
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = CabExperimentConfig::test_scale(
            4,
            Strategy::Moop {
                scope: ScopeStrategy::Hybrid,
                k: 20,
            },
        );
        let a = run_cab(&cfg);
        let b = run_cab(&cfg);
        assert_eq!(a.file_count_series, b.file_count_series);
        assert_eq!(a.files_reduced, b.files_reduced);
        assert_eq!(a.jobs_conflicted, b.jobs_conflicted);
    }
}
