//! Criterion: the checkpoint of a 100K-table durable runtime — saving a
//! base frame, saving the cumulative delta after eight 1 % rounds, and
//! a restart's read of that base plus delta.
//!
//! * `snapshot/base/100000` — one base save into a dual-slot store: the
//!   full frame encoded in place, the previous base validated, the slot
//!   written.
//! * `snapshot/delta_8_rounds/100000` — one
//!   [`ContinuousRuntime::save_snapshot`] after eight rounds that each
//!   changed 1 % of the fleet since the base: a delta over the base.
//! * `restore/base_plus_delta/100000` — `SnapshotStore::load` of that
//!   base and delta, then `AutoComp::restore_snapshot` into a fresh
//!   pipeline and observer.
//!
//! End to end, the same costs show as `steady_1pct`'s
//! `round_ms_snap_p50` and `recover_ms_p50` in the `benchmark/` package.

use std::cell::RefCell;

use autocomp::{
    AutoComp, AutoCompConfig, Candidate, CandidateStats, ChangeCursor, CompactionExecutor,
    ComputeCostGbhr, ContinuousRuntime, ExecutionResult, FileCountReduction, FleetObserver,
    JobRuntimeConfig, LakeConnector, Prediction, RankingPolicy, RuntimeConfig, RuntimeEvent,
    ScopeStrategy, SnapshotContext, TableRef, TraitWeight, Untracked,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lakesim_storage::{Journal, MemSnapshotMedium, SnapshotMedium, SnapshotStore};

const TABLES: u64 = 100_000;

/// Tables written per round: 1 % of the fleet.
const PER_ROUND: u64 = TABLES / 100;

/// A fleet whose stats are a pure function of each table's write count,
/// behind a changelog of every write.
struct Lake {
    tables: Vec<TableRef>,
    writes: RefCell<Vec<u32>>,
    log: RefCell<Vec<u64>>,
}

impl Lake {
    fn new() -> Self {
        Lake {
            tables: (0..TABLES)
                .map(|uid| TableRef {
                    table_uid: uid,
                    database: format!("db{}", uid % 64).into(),
                    name: format!("t{uid}").into(),
                    partitioned: false,
                    compaction_enabled: true,
                    is_intermediate: false,
                })
                .collect(),
            writes: RefCell::new(vec![0; TABLES as usize]),
            log: RefCell::new(Vec::new()),
        }
    }

    fn write(&self, uid: u64) {
        self.writes.borrow_mut()[uid as usize] += 1;
        self.log.borrow_mut().push(uid);
    }
}

impl LakeConnector for Lake {
    fn list_tables(&self) -> Vec<TableRef> {
        self.tables.clone()
    }
    fn listing_epoch(&self) -> Option<u64> {
        Some(0)
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        let w = *self.writes.borrow().get(uid as usize)? as u64;
        let file_count = 10 + (uid * 31) % 40 + 6 * w;
        let small_file_count = (4 + 6 * w).min(file_count);
        Some(CandidateStats {
            file_count,
            small_file_count,
            small_bytes: small_file_count << 23,
            total_bytes: file_count * (48 << 20),
            target_file_size: 512 << 20,
            ..CandidateStats::default()
        })
    }
    fn partition_stats(&self, _uid: u64) -> Vec<(String, CandidateStats)> {
        Vec::new()
    }
    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        Some(ChangeCursor(self.log.borrow().len() as u64))
    }
    fn changes_since(&self, cursor: ChangeCursor) -> Option<Vec<u64>> {
        self.log
            .borrow()
            .get(cursor.0 as usize..)
            .map(<[u64]>::to_vec)
    }
}

/// A platform that schedules nothing.
struct Inert;

impl CompactionExecutor for Inert {
    fn execute(&mut self, _c: &Candidate, _p: &Prediction, _now_ms: u64) -> ExecutionResult {
        ExecutionResult::default()
    }
}

fn pipeline() -> AutoComp {
    AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: 64,
        },
        trigger_label: "bench".into(),
        calibrate: false,
    })
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
    .with_job_tracker(JobRuntimeConfig::default())
}

/// A durable runtime that observed the fleet and saved a base, then ran
/// eight rounds each writing 1 % of it (a splitmix walk, so rounds
/// overlap like uniform commits do). Snapshots are saved only when asked.
fn runtime_eight_rounds_past_a_base(lake: &Lake) -> ContinuousRuntime<MemSnapshotMedium> {
    let config = RuntimeConfig {
        dirty_watermark: None,
        max_staleness_ms: None,
        snapshot_every_rounds: 0,
        ..RuntimeConfig::default()
    };
    let mut rt = ContinuousRuntime::new(pipeline(), config)
        .with_durability(SnapshotStore::new(MemSnapshotMedium::new()), Journal::new());
    let mut exec = Untracked(Inert);
    rt.handle_event(&RuntimeEvent::Flush { at_ms: 1_000 }, lake, &mut exec)
        .expect("round");
    assert!(rt.save_snapshot(&Untracked(Inert)), "base saved");
    let mut z = 0u64;
    for round in 0..8u64 {
        let at_ms = 2_000 + round * 1_000;
        for _ in 0..PER_ROUND {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let uid = (x ^ (x >> 31)) % TABLES;
            lake.write(uid);
            let commit = RuntimeEvent::Commit {
                at_ms,
                table_uid: uid,
            };
            rt.handle_event(&commit, lake, &mut exec).expect("commit");
        }
        rt.handle_event(&RuntimeEvent::Flush { at_ms }, lake, &mut exec)
            .expect("round");
    }
    rt
}

/// Bytes of each slot of `store`'s medium.
fn slot_bytes(store: &SnapshotStore<MemSnapshotMedium>) -> [usize; 2] {
    [0, 1].map(|slot| store.medium().read_slot(slot).map_or(0, |b| b.len()))
}

fn bench_durability(c: &mut Criterion) {
    let lake = Lake::new();
    let mut rt = runtime_eight_rounds_past_a_base(&lake);
    let mut group = c.benchmark_group("snapshot");
    group.sample_size(10);

    let ctx = SnapshotContext::default();
    let mut store = SnapshotStore::new(MemSnapshotMedium::new());
    group.bench_function(BenchmarkId::new("base", TABLES), |b| {
        b.iter(|| {
            store
                .save_with(|enc| rt.pipeline().encode_snapshot_into(rt.observer(), &ctx, enc))
                .expect("base save")
        })
    });

    assert!(rt.save_snapshot(&Untracked(Inert)), "delta saved");
    let [a, b] = slot_bytes(rt.snapshot_store().expect("durable"));
    assert!(
        4 * a.min(b) <= a.max(b),
        "the save is a delta: slots {a} and {b} bytes"
    );
    group.bench_function(BenchmarkId::new("delta_8_rounds", TABLES), |b| {
        b.iter(|| rt.save_snapshot(&Untracked(Inert)))
    });
    group.finish();

    let store = rt.snapshot_store().expect("durable");
    let mut group = c.benchmark_group("restore");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("base_plus_delta", TABLES), |b| {
        b.iter(|| {
            let (_, bytes) = store.load().expect("a restorable generation");
            let report = pipeline().restore_snapshot(&mut FleetObserver::new(), &bytes);
            assert!(report.is_warm(), "{report}");
            report
        })
    });
    group.finish();
}

criterion_group!(benches, bench_durability);
criterion_main!(benches);
