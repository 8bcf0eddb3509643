//! Criterion: a full OODA cycle (observe → orient → decide → act) over an
//! in-memory lake, measuring decision throughput vs fleet size — the
//! framework-overhead question behind scaling to "100K tables".

use autocomp::{
    AlreadyCompactFilter, AutoComp, AutoCompConfig, Candidate, CandidateStats,
    CompactionDisabledFilter, CompactionExecutor, ComputeCostGbhr, CycleInput, ExecutionResult,
    FileCountReduction, LakeConnector, Prediction, RankingPolicy, ScopeStrategy, TableRef,
    TraitWeight, Untracked,
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
    group.finish();
}

criterion_group!(benches, bench_ooda);
criterion_main!(benches);
