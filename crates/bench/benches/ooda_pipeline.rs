//! Criterion: a full OODA cycle (observe → orient → decide → act) over an
//! in-memory lake, measuring decision throughput vs fleet size — the
//! framework-overhead question behind scaling to "100K tables" — and the
//! warm round of a retained observer: 1% of the fleet written between
//! cycles, behind a changelog and a listing epoch, with the job ledger
//! at its cap.

use std::sync::Mutex;

use autocomp::{
    AlreadyCompactFilter, AutoComp, AutoCompConfig, Candidate, CandidateStats, ChangeCursor,
    CompactionDisabledFilter, CompactionExecutor, ComputeCostGbhr, CycleInput, ExecutionResult,
    FileCountReduction, FleetObserver, JobRuntimeConfig, LakeConnector, Prediction, RankingPolicy,
    ScopeStrategy, TableRef, TraitWeight, Untracked,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Synthetic in-memory lake: stats are generated, no engine involved, so
/// the measurement isolates the framework itself.
struct SyntheticLake {
    tables: Vec<TableRef>,
}

impl SyntheticLake {
    fn new(n: u64) -> Self {
        SyntheticLake {
            tables: (0..n)
                .map(|i| TableRef {
                    table_uid: i,
                    database: format!("db{}", i % 64).into(),
                    name: format!("t{i}").into(),
                    partitioned: i % 2 == 0,
                    compaction_enabled: i % 17 != 0,
                    is_intermediate: i % 23 == 0,
                })
                .collect(),
        }
    }
}

impl LakeConnector for SyntheticLake {
    fn list_tables(&self) -> Vec<TableRef> {
        self.tables.clone()
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        Some(CandidateStats {
            file_count: 10 + (uid * 31) % 4000,
            small_file_count: (uid * 31) % 4000,
            small_bytes: ((uid * 71) % 2048) << 20,
            total_bytes: ((uid * 131) % 8192) << 20,
            target_file_size: 512 << 20,
            ..CandidateStats::default()
        })
    }
    fn partition_stats(&self, _uid: u64) -> Vec<(String, CandidateStats)> {
        Vec::new()
    }
}

/// `SyntheticLake` behind a changelog and a constant listing epoch: a
/// write bumps its table's version, which moves the table's stats.
struct ChangelogLake {
    lake: SyntheticLake,
    versions: Mutex<Vec<u64>>,
    log: Mutex<Vec<u64>>,
}

impl ChangelogLake {
    fn new(n: u64) -> Self {
        ChangelogLake {
            lake: SyntheticLake::new(n),
            versions: Mutex::new(vec![0; n as usize]),
            log: Mutex::new(Vec::new()),
        }
    }

    fn write(&self, uid: u64) {
        self.versions.lock().unwrap()[uid as usize] += 1;
        self.log.lock().unwrap().push(uid);
    }
}

impl LakeConnector for ChangelogLake {
    fn list_tables(&self) -> Vec<TableRef> {
        self.lake.list_tables()
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        let version = self.versions.lock().unwrap()[uid as usize];
        self.lake.table_stats(uid.wrapping_add(version * 7_919))
    }
    fn partition_stats(&self, _uid: u64) -> Vec<(String, CandidateStats)> {
        Vec::new()
    }
    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        Some(ChangeCursor(self.log.lock().unwrap().len() as u64))
    }
    fn changes_since(&self, cursor: ChangeCursor) -> Option<Vec<u64>> {
        let log = self.log.lock().unwrap();
        log.get(cursor.0 as usize..).map(<[u64]>::to_vec)
    }
    fn listing_epoch(&self) -> Option<u64> {
        Some(0)
    }
}

/// No-op executor: scheduling cost is excluded, decisions only.
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
        trigger_label: "bench".to_string(),
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

fn bench_ooda(c: &mut Criterion) {
    let mut group = c.benchmark_group("ooda_cycle");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n in [1_000u64, 10_000, 100_000] {
        let lake = SyntheticLake::new(n);
        group.bench_with_input(BenchmarkId::new("tables", n), &n, |b, _| {
            let mut ac = pipeline(100);
            let mut exec = Untracked(NullExecutor);
            b.iter(|| {
                ac.cycle(CycleInput {
                    connector: &lake,
                    observer: None,
                    executor: &mut exec,
                    now_ms: 0,
                })
                .expect("cycle runs")
            })
        });
    }
    // Warm rounds, one a second: 1% of the fleet written per iteration,
    // then a cycle through a retained observer and decide state, with a
    // job ledger held at its 64-slot cap — no job ever settles, and a
    // 20-round lease frees a few slots each round, as in `steady_1pct`.
    // The state outlives the routine, which the harness calls once per
    // sample, and the cold first cycle runs before timing starts.
    let n = 100_000u64;
    let lake = ChangelogLake::new(n);
    let mut ac = pipeline(64).with_job_tracker(JobRuntimeConfig {
        job_lease_ms: Some(20_000),
        ..JobRuntimeConfig::default()
    });
    let mut observer = FleetObserver::new();
    let mut exec = Untracked(NullExecutor);
    let mut round = 0u64;
    let mut warm_round = || {
        round += 1;
        for i in 0..n / 100 {
            lake.write((round * 7_919 + i * 101) % n);
        }
        ac.cycle(CycleInput {
            connector: &lake,
            observer: Some(&mut observer),
            executor: &mut exec,
            now_ms: round * 1_000,
        })
        .expect("cycle runs")
    };
    warm_round();
    group.bench_with_input(BenchmarkId::new("warm_1pct", n), &n, |b, _| {
        b.iter(&mut warm_round)
    });
    group.finish();
}

criterion_group!(benches, bench_ooda);
criterion_main!(benches);
