//! Criterion: the checkpoint of a 100K-table durable runtime — saving a
//! base frame, saving the cumulative delta after eight 1 % rounds, and
//! a restart's read of that base plus delta.
//!
//! * `snapshot/base/100000` — one base save into a dual-slot store: the
//!   full frame encoded in place, the previous base validated, the slot
//!   written.
//! * `snapshot/base_side_parts/100000` — the same over a fleet whose
//!   stats carry a quota, histogram buckets and custom metrics, the
//!   parts a snapshot keeps in its side section.
//! * `snapshot/delta_8_rounds/100000` — one
//!   [`ContinuousRuntime::save_snapshot`] after eight rounds that each
//!   changed 1 % of the fleet since the base: a delta over the base.
//! * `snapshot/delta_after_restore/100000` — the same save in a runtime
//!   that recovered that base and delta and then ran one 1 % round: a
//!   cumulative delta over the restored base. The restart and the round
//!   are set up outside the timing. The store trusts the base its
//!   recovery loaded, so the save reads no slot.
//! * `restore/base_plus_delta/100000` — `SnapshotStore::load` of that
//!   base and delta, then `AutoComp::restore_snapshot` into a fresh
//!   pipeline and observer.
//! * `restore/recover/100000` — the runtime's own path:
//!   [`ContinuousRuntime::recover`] of that base and delta by a runtime
//!   built over a copy of the medium (the copy is made outside the
//!   timing). It restores from the slot bytes as read, with no join of
//!   base and delta and no second checksum.
//! * `restore/recover_side_parts/100000` — `recover` of a base of the
//!   side-parts fleet.
//!
//! End to end, the same costs show as `steady_1pct`'s and
//! `crash_restart`'s `round_ms_snap_p50` and `recover_ms_p50` in the
//! `benchmark/` package.

use std::cell::RefCell;

use autocomp::{
    AutoComp, AutoCompConfig, Candidate, CandidateStats, ChangeCursor, CompactionExecutor,
    ComputeCostGbhr, ContinuousRuntime, ExecutionResult, FileCountReduction, FleetObserver,
    JobRuntimeConfig, LakeConnector, Prediction, QuotaSignal, RankingPolicy, RuntimeConfig,
    RuntimeEvent, ScopeStrategy, SizeBucket, SnapshotContext, TableRef, TraitWeight, Untracked,
};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
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
    /// Whether stats carry a quota, histogram buckets and customs.
    side_parts: bool,
}

impl Lake {
    fn new(side_parts: bool) -> Self {
        Lake {
            side_parts,
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
        let mut stats = CandidateStats {
            file_count,
            small_file_count,
            small_bytes: small_file_count << 23,
            total_bytes: file_count * (48 << 20),
            target_file_size: 512 << 20,
            ..CandidateStats::default()
        };
        if self.side_parts {
            stats.quota = Some(QuotaSignal {
                used: 1_000 + uid % 64,
                total: 100_000,
            });
            let edges = [Some(8 << 20), Some(64 << 20), Some(256 << 20), None];
            let counts = [small_file_count, file_count - small_file_count, 0, 0];
            stats.size_histogram = edges
                .into_iter()
                .zip(counts)
                .map(|(upper_bytes, count)| SizeBucket { upper_bytes, count })
                .collect();
            stats = stats
                .with_custom("scan_count_7d", (uid % 97) as f64)
                .with_custom("sort_disorder", (uid % 7) as f64 / 7.0);
        }
        Some(stats)
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

/// Rounds only on flush; snapshots only when asked.
fn flush_only() -> RuntimeConfig {
    RuntimeConfig {
        dirty_watermark: None,
        max_staleness_ms: None,
        snapshot_every_rounds: 0,
        ..RuntimeConfig::default()
    }
}

/// A durable runtime that observed the fleet and saved a base, then ran
/// eight rounds each writing 1 % of it (a splitmix walk, so rounds
/// overlap like uniform commits do). Snapshots are saved only when asked.
fn runtime_eight_rounds_past_a_base(lake: &Lake) -> ContinuousRuntime<MemSnapshotMedium> {
    let mut rt = ContinuousRuntime::new(pipeline(), flush_only())
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

/// A restart over a copy of `medium`: a runtime that recovered its
/// generation and ran one round writing 1 % of the fleet. The round
/// writes the same tables every time, so however often it runs, the
/// change since the base stays that of the generation plus those tables.
fn restarted_one_round_past(
    medium: &MemSnapshotMedium,
    lake: &Lake,
) -> ContinuousRuntime<MemSnapshotMedium> {
    let mut rt = restart(medium);
    let report = rt.recover();
    assert!(report.is_warm(), "{report}");
    let mut exec = Untracked(Inert);
    let at_ms = 20_000;
    for uid in (0..PER_ROUND).map(|i| i * 97 % TABLES) {
        lake.write(uid);
        let commit = RuntimeEvent::Commit {
            at_ms,
            table_uid: uid,
        };
        rt.handle_event(&commit, lake, &mut exec).expect("commit");
    }
    rt.handle_event(&RuntimeEvent::Flush { at_ms }, lake, &mut exec)
        .expect("round");
    rt
}

/// Bytes of each slot of `store`'s medium.
fn slot_bytes(store: &SnapshotStore<MemSnapshotMedium>) -> [usize; 2] {
    [0, 1].map(|slot| store.medium().read_slot(slot).map_or(0, |b| b.len()))
}

/// A runtime over a copy of `medium`, before its recovery.
fn restart(medium: &MemSnapshotMedium) -> ContinuousRuntime<MemSnapshotMedium> {
    ContinuousRuntime::new(pipeline(), flush_only())
        .with_durability(SnapshotStore::new(medium.clone()), Journal::new())
}

/// Times `recover` by a runtime over a copy of `medium`. The runtime a
/// sample recovered is dropped in the next setup, so neither the copy
/// nor freeing it is timed.
fn bench_recover(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    medium: &MemSnapshotMedium,
) {
    let recovered = RefCell::new(None);
    group.bench_function(BenchmarkId::new(name, TABLES), |b| {
        b.iter_batched(
            || {
                recovered.take();
                restart(medium)
            },
            |mut rt| {
                let report = rt.recover();
                assert!(report.is_warm(), "{report}");
                *recovered.borrow_mut() = Some(rt);
                report
            },
            BatchSize::PerIteration,
        )
    });
}

fn bench_durability(c: &mut Criterion) {
    let lake = Lake::new(false);
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

    let side_lake = Lake::new(true);
    let mut side_rt = ContinuousRuntime::new(pipeline(), flush_only())
        .with_durability(SnapshotStore::new(MemSnapshotMedium::new()), Journal::new());
    side_rt
        .handle_event(
            &RuntimeEvent::Flush { at_ms: 1_000 },
            &side_lake,
            &mut Untracked(Inert),
        )
        .expect("round");
    let mut side_store = SnapshotStore::new(MemSnapshotMedium::new());
    group.bench_function(BenchmarkId::new("base_side_parts", TABLES), |b| {
        b.iter(|| {
            side_store
                .save_with(|enc| {
                    let observer = side_rt.observer();
                    side_rt.pipeline().encode_snapshot_into(observer, &ctx, enc)
                })
                .expect("base save")
        })
    });
    assert!(side_rt.save_snapshot(&Untracked(Inert)), "base saved");
    let side_medium = side_rt.snapshot_store().expect("durable").medium().clone();
    drop((side_rt, side_store));

    assert!(rt.save_snapshot(&Untracked(Inert)), "delta saved");
    let [a, b] = slot_bytes(rt.snapshot_store().expect("durable"));
    assert!(
        4 * a.min(b) <= a.max(b),
        "the save is a delta: slots {a} and {b} bytes"
    );
    group.bench_function(BenchmarkId::new("delta_8_rounds", TABLES), |b| {
        b.iter(|| rt.save_snapshot(&Untracked(Inert)))
    });

    let medium = rt.snapshot_store().expect("durable").medium().clone();
    let mut restarted = restarted_one_round_past(&medium, &lake);
    assert!(restarted.save_snapshot(&Untracked(Inert)), "saved");
    let [a, b] = slot_bytes(restarted.snapshot_store().expect("durable"));
    assert!(
        4 * a.min(b) <= a.max(b),
        "the save after a restore is a delta: slots {a} and {b} bytes"
    );
    // The runtime a sample saved from is dropped in the next setup, so
    // neither the restart nor freeing it is timed.
    let saved_from = RefCell::new(Some(restarted));
    group.bench_function(BenchmarkId::new("delta_after_restore", TABLES), |b| {
        b.iter_batched(
            || {
                saved_from.take();
                restarted_one_round_past(&medium, &lake)
            },
            |mut rt| {
                let saved = rt.save_snapshot(&Untracked(Inert));
                *saved_from.borrow_mut() = Some(rt);
                saved
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
    drop(saved_from);

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
    bench_recover(&mut group, "recover", store.medium());
    bench_recover(&mut group, "recover_side_parts", &side_medium);
    group.finish();
}

criterion_group!(benches, bench_durability);
criterion_main!(benches);
