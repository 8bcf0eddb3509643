//! Observe-path parity: the batched observe API must reproduce the
//! per-table pull path exactly — identical selections and bit-identical
//! scores — through every path:
//!
//! * the sequential `observe` every `LakeConnector` inherits,
//! * the fanned-out `observe` override of a `Sync` connector,
//! * an incremental (cursor) cycle that reuses the prior observation,
//!
//! across all four scope strategies; plus a dirty-set test proving that
//! an incremental observe re-fetches stats *only* for written tables.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use autocomp::{
    AlreadyCompactFilter, AutoComp, AutoCompConfig, Candidate, CandidateStats,
    CompactionDisabledFilter, CompactionExecutor, ComputeCostGbhr, CycleInput, CycleReport,
    ExecutionResult, Executor, FileCountReduction, FleetObservation, FleetObserver, LakeConnector,
    ObserveRequest, Prediction, RankingPolicy, ScopeStrategy, TableRef, TraitWeight,
};

const FLEET: u64 = 300;

/// Deterministic synthetic lake with a write changelog and fetch
/// counters. Stats depend only on `(uid, per-table version)`, so a
/// reused entry is exactly what a fresh fetch would produce for a quiet
/// table — the precondition for bit-parity of incremental cycles.
/// `parallel` makes its `observe` the fanned-out driver.
struct CountingLake {
    parallel: bool,
    tables: Vec<TableRef>,
    versions: Mutex<Vec<u64>>,
    log: Mutex<Vec<(u64, u64)>>, // (seq, uid)
    seq: AtomicU64,
    table_stat_calls: AtomicU64,
    partition_stat_calls: AtomicU64,
    snapshot_stat_calls: AtomicU64,
}

impl CountingLake {
    fn new(n: u64) -> Self {
        CountingLake {
            parallel: false,
            tables: (0..n)
                .map(|i| TableRef {
                    table_uid: i,
                    database: format!("db{}", i % 16).into(),
                    name: format!("t{i}").into(),
                    partitioned: i % 3 == 0,
                    compaction_enabled: i % 17 != 0,
                    is_intermediate: i % 23 == 0,
                })
                .collect(),
            versions: Mutex::new(vec![0; n as usize]),
            log: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
            table_stat_calls: AtomicU64::new(0),
            partition_stat_calls: AtomicU64::new(0),
            snapshot_stat_calls: AtomicU64::new(0),
        }
    }

    fn write(&self, uid: u64) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.log.lock().unwrap().push((seq, uid));
        self.versions.lock().unwrap()[uid as usize] += 1;
    }

    fn stats_for(&self, uid: u64) -> CandidateStats {
        let v = self.versions.lock().unwrap()[uid as usize];
        CandidateStats {
            file_count: 10 + (uid * 31) % 4000 + v * 17,
            small_file_count: (uid * 31) % 4000 + v * 13,
            small_bytes: (((uid * 71) % 2048) + v) << 20,
            total_bytes: (((uid * 131) % 8192) + v) << 20,
            target_file_size: 512 << 20,
            ..CandidateStats::default()
        }
    }

    fn stats_fetches(&self) -> u64 {
        self.table_stat_calls.load(Ordering::SeqCst)
            + self.partition_stat_calls.load(Ordering::SeqCst)
            + self.snapshot_stat_calls.load(Ordering::SeqCst)
    }
}

impl LakeConnector for CountingLake {
    fn observe(&self, request: &ObserveRequest<'_>) -> FleetObservation {
        if self.parallel {
            autocomp::observe::batch_observe(self, request)
        } else {
            autocomp::observe::pull_observe(self, request)
        }
    }
    fn list_tables(&self) -> Vec<TableRef> {
        self.tables.clone()
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        self.table_stat_calls.fetch_add(1, Ordering::SeqCst);
        (uid < FLEET).then(|| self.stats_for(uid))
    }
    fn partition_stats(&self, uid: u64) -> Vec<(String, CandidateStats)> {
        self.partition_stat_calls.fetch_add(1, Ordering::SeqCst);
        if self.tables.get(uid as usize).is_some_and(|t| t.partitioned) {
            (0..3)
                .map(|p| (format!("(d{p})"), self.stats_for(uid)))
                .collect()
        } else {
            Vec::new()
        }
    }
    fn snapshot_stats(&self, uid: u64, _window_ms: u64) -> Option<CandidateStats> {
        self.snapshot_stat_calls.fetch_add(1, Ordering::SeqCst);
        uid.is_multiple_of(2).then(|| self.stats_for(uid))
    }
    fn fleet_cursor(&self) -> Option<autocomp::ChangeCursor> {
        Some(autocomp::ChangeCursor(self.seq.load(Ordering::SeqCst)))
    }
    fn changes_since(&self, cursor: autocomp::ChangeCursor) -> Option<Vec<u64>> {
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
}

struct NullExecutor;

impl CompactionExecutor for NullExecutor {
    fn execute(&mut self, _c: &Candidate, _p: &Prediction, now: u64) -> ExecutionResult {
        ExecutionResult {
            scheduled: true,
            job_id: Some(1),
            gbhr: 0.0,
            commit_due_ms: Some(now),
            error: None,
        }
    }
}

fn pipeline(scope: ScopeStrategy) -> AutoComp {
    AutoComp::new(AutoCompConfig {
        scope,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: 25,
        },
        trigger_label: "parity".into(),
        calibrate: false,
    })
    .with_filter(Box::new(CompactionDisabledFilter))
    .with_filter(Box::new(AlreadyCompactFilter {
        min_small_files: 2,
        min_small_fraction: 0.0,
    }))
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
}

const SCOPES: [ScopeStrategy; 4] = [
    ScopeStrategy::Table,
    ScopeStrategy::Partition,
    ScopeStrategy::Hybrid,
    ScopeStrategy::Snapshot { window_ms: 1000 },
];

/// Deep bit-level comparison of two cycle reports: selections in order,
/// per-entry scores compared via `to_bits`, drop reasons, executed jobs,
/// and the rendered decision table.
fn assert_reports_identical(a: &CycleReport, b: &CycleReport, context: &str) {
    assert_eq!(a.generated, b.generated, "{context}: generated");
    assert_eq!(a.dropped, b.dropped, "{context}: dropped");
    assert_eq!(a.ranked.len(), b.ranked.len(), "{context}: ranked len");
    for (x, y) in a.ranked.iter().zip(b.ranked.iter()) {
        assert_eq!(x.id, y.id, "{context}: rank order");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{context}: score of {} not bit-identical",
            x.id
        );
        assert_eq!(x.selected, y.selected, "{context}: selection of {}", x.id);
    }
    assert_eq!(a.executed, b.executed, "{context}: executed jobs");
    assert_eq!(
        a.total_predicted_reduction, b.total_predicted_reduction,
        "{context}: ΔF"
    );
    assert_eq!(
        a.total_predicted_gbhr.to_bits(),
        b.total_predicted_gbhr.to_bits(),
        "{context}: GBHr"
    );
    assert_eq!(a.to_string(), b.to_string(), "{context}: rendered report");
}

#[test]
fn observation_candidates_match_the_pull_path() {
    for scope in SCOPES {
        let lake = CountingLake::new(FLEET);
        let pulled = autocomp::scope::generate_candidates(&lake, scope);
        let observed = lake.observe(&ObserveRequest::fresh(scope)).to_candidates();
        assert_eq!(pulled, observed, "scope {scope:?}");
    }
}

#[test]
fn batched_and_compat_cycles_are_bit_identical_across_scopes() {
    for scope in SCOPES {
        let lake = CountingLake::new(FLEET);
        let compat = pipeline(scope)
            .cycle(CycleInput {
                connector: &lake,
                observer: None,
                executor: Executor::Plain(&mut NullExecutor),
                now_ms: 0,
            })
            .unwrap();
        let batched = pipeline(scope)
            .cycle(CycleInput {
                connector: &CountingLake {
                    parallel: true,
                    ..CountingLake::new(FLEET)
                },
                observer: None,
                executor: Executor::Plain(&mut NullExecutor),
                now_ms: 0,
            })
            .unwrap();
        assert_reports_identical(&compat, &batched, &format!("batched vs compat {scope:?}"));
    }
}

#[test]
fn incremental_cycles_are_bit_identical_across_scopes() {
    for scope in SCOPES {
        let lake = CountingLake::new(FLEET);
        let mut observer = FleetObserver::new();
        let mut incremental_pipeline = pipeline(scope);

        // Cycle 1 (cold) seeds the observer.
        let cold = incremental_pipeline
            .cycle(CycleInput {
                connector: &lake,
                observer: Some(&mut observer),
                executor: Executor::Plain(&mut NullExecutor),
                now_ms: 0,
            })
            .unwrap();
        let pull_cold = pipeline(scope)
            .cycle(CycleInput {
                connector: &lake,
                observer: None,
                executor: Executor::Plain(&mut NullExecutor),
                now_ms: 0,
            })
            .unwrap();
        assert_reports_identical(&cold, &pull_cold, &format!("cold {scope:?}"));

        // Mutate a sparse dirty set, then compare the incremental cycle
        // against a full pull over the same state.
        for uid in [3, 57, 123, 123, 299] {
            lake.write(uid);
        }
        let incremental = incremental_pipeline
            .cycle(CycleInput {
                connector: &lake,
                observer: Some(&mut observer),
                executor: Executor::Plain(&mut NullExecutor),
                now_ms: 1,
            })
            .unwrap();
        let pull = pipeline(scope)
            .cycle(CycleInput {
                connector: &lake,
                observer: None,
                executor: Executor::Plain(&mut NullExecutor),
                now_ms: 1,
            })
            .unwrap();
        assert_reports_identical(&incremental, &pull, &format!("incremental {scope:?}"));
        let obs = observer.last().unwrap();
        assert_eq!(
            obs.fetched_tables(),
            4,
            "{scope:?}: exactly the distinct dirty tables re-fetched"
        );
        assert_eq!(obs.reused_tables(), FLEET as usize - 4);
    }
}

#[test]
fn incremental_observe_fetches_only_written_tables() {
    let lake = CountingLake::new(FLEET);
    let mut observer = FleetObserver::new();
    observer.observe(&lake, ScopeStrategy::Table);
    assert_eq!(
        lake.stats_fetches(),
        FLEET,
        "cold observe fetches the fleet"
    );

    let dirty = [7u64, 8, 9];
    for uid in dirty {
        lake.write(uid);
    }
    let before = lake.stats_fetches();
    let obs = observer.observe(&lake, ScopeStrategy::Table);
    assert_eq!(
        lake.stats_fetches() - before,
        dirty.len() as u64,
        "incremental observe must touch only the dirty set"
    );
    assert_eq!(obs.reused_tables(), FLEET as usize - dirty.len());

    // The fanned-out observe obeys the same dirty-set contract.
    let lake = CountingLake {
        parallel: true,
        ..CountingLake::new(FLEET)
    };
    let mut batch_observer = FleetObserver::new();
    batch_observer.observe(&lake, ScopeStrategy::Table);
    lake.write(42);
    let before = lake.stats_fetches();
    let obs = batch_observer.observe(&lake, ScopeStrategy::Table);
    assert_eq!(lake.stats_fetches() - before, 1);
    assert_eq!(obs.fetched_tables(), 1);
}

/// A table force-dirtied although **absent from the changelog** must be
/// re-fetched by the observe AND have its `CycleCache` rows invalidated:
/// its filter verdicts and trait rows recompute even though no write was
/// logged. Pinned by counting filter evaluations per cycle.
#[test]
fn force_dirty_tables_invalidate_cycle_cache_rows() {
    use autocomp::{CandidateFilter, CandidateView, FilterDecision};
    use std::sync::Arc;

    /// Time-insensitive pass-through filter counting evaluations.
    struct CountingFilter(Arc<AtomicU64>);

    impl CandidateFilter for CountingFilter {
        fn name(&self) -> &str {
            "counting"
        }
        fn evaluate(&self, _c: &CandidateView<'_>, _now_ms: u64) -> FilterDecision {
            self.0.fetch_add(1, Ordering::SeqCst);
            FilterDecision::Keep
        }
        fn time_sensitive(&self) -> bool {
            false
        }
    }

    const N: u64 = 50;
    let lake = CountingLake::new(N);
    let evals = Arc::new(AtomicU64::new(0));
    // The counting filter goes FIRST so later dropping filters cannot
    // short-circuit past it: every filtered candidate counts exactly once.
    let mut ac = AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: 25,
        },
        trigger_label: "parity".into(),
        calibrate: false,
    })
    .with_filter(Box::new(CountingFilter(evals.clone())))
    .with_filter(Box::new(CompactionDisabledFilter))
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()));
    let mut observer = FleetObserver::new();

    // Cold cycle: every candidate is filtered.
    ac.cycle(CycleInput {
        connector: &lake,
        observer: Some(&mut observer),
        executor: Executor::Plain(&mut NullExecutor),
        now_ms: 0,
    })
    .unwrap();
    let cold_evals = evals.swap(0, Ordering::SeqCst);
    assert!(cold_evals >= N, "cold cycle filters the fleet");

    // Quiet cycle (moving timestamp, time-insensitive chain): everything
    // splices — zero filter evaluations, zero stats fetches.
    let fetches_before = lake.stats_fetches();
    ac.cycle(CycleInput {
        connector: &lake,
        observer: Some(&mut observer),
        executor: Executor::Plain(&mut NullExecutor),
        now_ms: 1,
    })
    .unwrap();
    assert_eq!(evals.swap(0, Ordering::SeqCst), 0, "quiet cycle splices");
    assert_eq!(lake.stats_fetches(), fetches_before, "no re-fetch");
    assert_eq!(ac.cycle_cache_stats().spliced_tables, N as usize);

    // Force-dirty one table with a *quiet changelog*: exactly its stats
    // re-fetch and exactly its cache rows recompute.
    observer.mark_dirty(7);
    let fetches_before = lake.stats_fetches();
    ac.cycle(CycleInput {
        connector: &lake,
        observer: Some(&mut observer),
        executor: Executor::Plain(&mut NullExecutor),
        now_ms: 2,
    })
    .unwrap();
    assert_eq!(
        lake.stats_fetches() - fetches_before,
        1,
        "only the force-dirtied table re-fetches"
    );
    assert_eq!(
        evals.swap(0, Ordering::SeqCst),
        1,
        "only the force-dirtied table re-filters (its cache rows were invalidated)"
    );
    let stats = ac.cycle_cache_stats();
    assert_eq!(stats.recomputed_tables, 1);
    assert_eq!(stats.spliced_tables, N as usize - 1);

    // The recomputed rows re-enter the cache: the next quiet cycle is a
    // full splice again.
    ac.cycle(CycleInput {
        connector: &lake,
        observer: Some(&mut observer),
        executor: Executor::Plain(&mut NullExecutor),
        now_ms: 3,
    })
    .unwrap();
    assert_eq!(evals.swap(0, Ordering::SeqCst), 0);
    assert_eq!(ac.cycle_cache_stats().spliced_tables, N as usize);
}

/// A table-descriptor edit that never touches the write changelog — an
/// operator flipping `compaction_enabled` off — must still invalidate
/// the table's cached filter verdict: filters read descriptor fields, so
/// the cycle cache verifies the stored descriptor per splice instead of
/// trusting the changelog alone.
#[test]
fn descriptor_edits_invalidate_cached_verdicts_without_a_changelog_write() {
    /// Lake whose policy flags can be edited out-of-band (no changelog).
    struct PolicyLake {
        inner: CountingLake,
        disabled: Mutex<std::collections::BTreeSet<u64>>,
    }

    impl LakeConnector for PolicyLake {
        fn list_tables(&self) -> Vec<TableRef> {
            let disabled = self.disabled.lock().unwrap();
            self.inner
                .list_tables()
                .into_iter()
                .map(|mut t| {
                    if disabled.contains(&t.table_uid) {
                        t.compaction_enabled = false;
                    }
                    t
                })
                .collect()
        }
        fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
            self.inner.table_stats(uid)
        }
        fn partition_stats(&self, uid: u64) -> Vec<(String, CandidateStats)> {
            self.inner.partition_stats(uid)
        }
        fn fleet_cursor(&self) -> Option<autocomp::ChangeCursor> {
            self.inner.fleet_cursor()
        }
        fn changes_since(&self, cursor: autocomp::ChangeCursor) -> Option<Vec<u64>> {
            self.inner.changes_since(cursor)
        }
    }

    let lake = PolicyLake {
        inner: CountingLake::new(30),
        disabled: Mutex::new(Default::default()),
    };
    let mut ac = pipeline(ScopeStrategy::Table);
    let mut observer = FleetObserver::new();
    let first = ac
        .cycle(CycleInput {
            connector: &lake,
            observer: Some(&mut observer),
            executor: Executor::Plain(&mut NullExecutor),
            now_ms: 0,
        })
        .unwrap();
    assert!(
        first.ranked.iter().any(|e| e.id.table_uid == 3),
        "table 3 ranks before the policy flip"
    );

    // Flip table 3's policy with a quiet changelog, then cycle again.
    lake.disabled.lock().unwrap().insert(3);
    let incremental = ac
        .cycle(CycleInput {
            connector: &lake,
            observer: Some(&mut observer),
            executor: Executor::Plain(&mut NullExecutor),
            now_ms: 1,
        })
        .unwrap();
    let cold = pipeline(ScopeStrategy::Table)
        .cycle(CycleInput {
            connector: &lake,
            observer: None,
            executor: Executor::Plain(&mut NullExecutor),
            now_ms: 1,
        })
        .unwrap();
    assert_reports_identical(&incremental, &cold, "post policy flip");
    assert!(
        incremental
            .dropped
            .iter()
            .any(|(id, reason)| id.table_uid == 3 && reason.contains("compaction-disabled")),
        "the flipped table's cached 'kept' verdict was invalidated"
    );
    let stats = ac.cycle_cache_stats();
    assert!(
        stats.recomputed_tables >= 1 && stats.spliced_tables >= 28,
        "only the edited table (and no quiet neighbors) recomputes: {stats:?}"
    );
}

/// End-to-end over the simulated lake: the sequential `Rc<RefCell>`
/// connector and the fanned-out `Arc<RwLock>` one produce bit-identical
/// cycles.
#[test]
fn lakesim_tiers_produce_identical_cycles() {
    use autocomp_lakesim::{share, share_sync, BatchLakesimConnector, LakesimConnector};
    use lakesim_catalog::TablePolicy;
    use lakesim_engine::{EnvConfig, FileSizePlan, SimEnv, WriteSpec};
    use lakesim_lst::{ColumnType, Field, PartitionKey, PartitionSpec, Schema, TableProperties};
    use lakesim_storage::MB;

    let build = || {
        let mut env = SimEnv::new(EnvConfig {
            seed: 19,
            ..EnvConfig::default()
        });
        env.create_database("db", "tenant", Some(500_000)).unwrap();
        for i in 0..8u64 {
            let schema = Schema::new(vec![Field::new(1, "k", ColumnType::Int64, true)]).unwrap();
            let t = env
                .create_table(
                    "db",
                    &format!("t{i}"),
                    schema,
                    PartitionSpec::unpartitioned(),
                    TableProperties::default(),
                    TablePolicy {
                        min_age_ms: 0,
                        ..TablePolicy::default()
                    },
                )
                .unwrap();
            let spec = WriteSpec::insert(
                t,
                PartitionKey::unpartitioned(),
                (16 + i * 8) * MB,
                FileSizePlan::trickle(),
                "query",
            );
            env.submit_write(&spec, i * 1000).unwrap();
        }
        env.drain_all();
        env
    };

    let sequential = {
        let shared = share(build());
        let connector = LakesimConnector::new(shared);
        pipeline(ScopeStrategy::Table)
            .cycle(CycleInput {
                connector: &connector,
                observer: None,
                executor: Executor::Plain(&mut NullExecutor),
                now_ms: 1_000_000,
            })
            .unwrap()
    };
    let batched = {
        let shared = share_sync(build());
        let connector = BatchLakesimConnector::new(shared);
        pipeline(ScopeStrategy::Table)
            .cycle(CycleInput {
                connector: &connector,
                observer: None,
                executor: Executor::Plain(&mut NullExecutor),
                now_ms: 1_000_000,
            })
            .unwrap()
    };
    assert_reports_identical(&sequential, &batched, "lakesim tiers");
}
