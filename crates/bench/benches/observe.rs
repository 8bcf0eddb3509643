//! Criterion: the observe phase at fleet scale, every case through
//! `FleetObserver::observe` (a cold case is a fresh observer's first
//! pass) — a connector paying a catalog session per call vs. one
//! holding its session, cold vs. incremental
//! (cursor/dirty-set) observe, the incremental one over a listing shared
//! under a listing epoch and over one re-read every pass, the storm
//! shape: half the fleet dirty over a shared listing, and one storm
//! round's commit ingest: a dirty mark per commit, then the observe
//! that consumes them, over densely numbered uids and over uids
//! scattered across the `u64` range.
//!
//! The synthetic lake models what a real connector pays per stats
//! round-trip: a catalog-session lookup (`SESSION_STEPS`, paid *per
//! call* by the chatty per-table protocol, amortized away by the
//! connector that holds its session across the batch) plus a manifest
//! walk (`MANIFEST_STEPS`, paid per fetched table by both).
//!
//! Full cycles, telemetry overhead and restart cost are measured by the
//! `benchmark/` package (`steady_1pct` `round_ms_p50`,
//! `telemetry.trace_overhead_pct`, `crash_restart` `recover_ms_p50`).

use autocomp::{
    CandidateStats, ChangeCursor, FleetObserver, LakeConnector, ScopeStrategy, SizeBucket, TableRef,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Catalog-session work per chatty round-trip (resolve table, auth,
/// route) — the per-call overhead the batched protocol amortizes.
const SESSION_STEPS: u64 = 96;

/// Manifest-walk work per fetched table — paid by every fetch of both
/// connectors, skipped entirely for tables an incremental observe reuses.
const MANIFEST_STEPS: u64 = 96;

/// Fraction of the fleet written between incremental cycles: 1%.
const DIRTY_DIVISOR: u64 = 100;

/// Fraction of the fleet written between storm cycles: 50%.
const STORM_DIVISOR: u64 = 2;

/// Commits in one storm round: uniform over the fleet, they dirty about
/// half of it.
const STORM_COMMITS: usize = 70_000;

struct SyntheticLake {
    tables: Vec<TableRef>,
}

impl SyntheticLake {
    fn new(n: u64) -> Self {
        Self::with_uids(n, |i| i)
    }

    /// `n` tables whose uids scatter over the whole `u64` range, so the
    /// observation's uid index hashes them.
    fn sparse(n: u64) -> Self {
        Self::with_uids(n, |i| {
            let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
    }

    /// Table `i` has uid `uid(i)`.
    fn with_uids(n: u64, uid: impl Fn(u64) -> u64) -> Self {
        SyntheticLake {
            tables: (0..n)
                .map(|i| TableRef {
                    table_uid: uid(i),
                    database: format!("db{}", i % 64).into(),
                    name: format!("t{i}").into(),
                    partitioned: false,
                    compaction_enabled: i % 17 != 0,
                    is_intermediate: i % 23 == 0,
                })
                .collect(),
        }
    }

    /// Deterministic pseudo-manifest walk: derive per-file sizes and fold
    /// them into counts + an 8-bucket histogram.
    fn fetch(&self, uid: u64, extra_steps: u64) -> CandidateStats {
        let target = 512u64 << 20;
        let mut buckets = [0u64; 8];
        let mut file_count = 0;
        let mut small = 0u64;
        let mut small_bytes = 0u64;
        let mut total = 0u64;
        let mut state = uid.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        // Session steps burn the same per-step work as manifest steps but
        // contribute nothing to the stats (pure round-trip overhead).
        for _ in 0..extra_steps {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
        }
        for _ in 0..MANIFEST_STEPS {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let size = (state % (target * 2)).max(1);
            file_count += 1;
            total += size;
            if size < target {
                small += 1;
                small_bytes += size;
            }
            let bucket = ((size * 8) / (target * 2)).min(7) as usize;
            buckets[bucket] += 1;
        }
        CandidateStats {
            file_count,
            small_file_count: small,
            small_bytes,
            total_bytes: total,
            target_file_size: target,
            size_histogram: buckets
                .iter()
                .enumerate()
                .map(|(i, count)| SizeBucket {
                    upper_bytes: (i < 7).then(|| (i as u64 + 1) * target / 4),
                    count: *count,
                })
                .collect(),
            ..CandidateStats::default()
        }
    }

    /// Every `divisor`-th table.
    fn dirty_set(&self, divisor: u64) -> Vec<u64> {
        let n = self.tables.len() as u64;
        (0..n / divisor).map(|i| i * divisor % n).collect()
    }
}

/// A session connector whose changelog names `commits`: the tables a
/// runtime also marks dirty, one mark per commit event.
struct CommitLake<'a> {
    lake: &'a SyntheticLake,
    commits: Vec<u64>,
}

impl LakeConnector for CommitLake<'_> {
    fn list_tables(&self) -> Vec<TableRef> {
        self.lake.tables.clone()
    }
    fn listing_epoch(&self) -> Option<u64> {
        Some(0)
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        Some(self.lake.fetch(uid, 0))
    }
    fn partition_stats(&self, _uid: u64) -> Vec<(String, CandidateStats)> {
        Vec::new()
    }
    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        Some(ChangeCursor(0))
    }
    fn changes_since(&self, _cursor: ChangeCursor) -> Option<Vec<u64>> {
        Some(self.commits.clone())
    }
}

/// The chatty connector: every stats call is a fresh round-trip paying
/// the catalog-session overhead.
struct PerCallLake<'a>(&'a SyntheticLake);

impl LakeConnector for PerCallLake<'_> {
    fn list_tables(&self) -> Vec<TableRef> {
        self.0.tables.clone()
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        Some(self.0.fetch(uid, SESSION_STEPS))
    }
    fn partition_stats(&self, _uid: u64) -> Vec<(String, CandidateStats)> {
        Vec::new()
    }
    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        Some(ChangeCursor(0))
    }
    fn changes_since(&self, _cursor: ChangeCursor) -> Option<Vec<u64>> {
        Some(self.0.dirty_set(DIRTY_DIVISOR))
    }
}

/// The connector holds its catalog session across the batch, so fetches
/// pay only the manifest walk. `listing_epoch` is what it reports: with
/// one, incremental observes share the prior's listing; without, every
/// pass re-reads the listing and maps it onto the prior's.
struct SessionLake<'a> {
    lake: &'a SyntheticLake,
    listing_epoch: Option<u64>,
    /// Every `dirty_divisor`-th table is written between passes.
    dirty_divisor: u64,
}

impl LakeConnector for SessionLake<'_> {
    fn list_tables(&self) -> Vec<TableRef> {
        self.lake.tables.clone()
    }
    fn listing_epoch(&self) -> Option<u64> {
        self.listing_epoch
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        Some(self.lake.fetch(uid, 0))
    }
    fn partition_stats(&self, _uid: u64) -> Vec<(String, CandidateStats)> {
        Vec::new()
    }
    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        Some(ChangeCursor(0))
    }
    fn changes_since(&self, _cursor: ChangeCursor) -> Option<Vec<u64>> {
        Some(self.lake.dirty_set(self.dirty_divisor))
    }
}

fn bench_observe(c: &mut Criterion) {
    let mut group = c.benchmark_group("observe");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let n = 100_000u64;
    let lake = SyntheticLake::new(n);

    // Baseline: a connector that pays a catalog session per call.
    let chatty = PerCallLake(&lake);
    group.bench_with_input(BenchmarkId::new("tables_pull", n), &n, |b, _| {
        b.iter(|| {
            FleetObserver::new()
                .observe(&chatty, ScopeStrategy::Table)
                .table_count()
        })
    });

    // Cold observe with the session amortized.
    let session = SessionLake {
        lake: &lake,
        listing_epoch: Some(0),
        dirty_divisor: DIRTY_DIVISOR,
    };
    group.bench_with_input(BenchmarkId::new("tables", n), &n, |b, _| {
        b.iter(|| {
            FleetObserver::new()
                .observe(&session, ScopeStrategy::Table)
                .table_count()
        })
    });

    // Incremental observe: 1% dirty, the rest reused from the prior.
    // Each pass's observation is the next one's prior, as in the runtime.
    let mut observer = FleetObserver::new();
    observer.observe(&session, ScopeStrategy::Table);
    group.bench_with_input(BenchmarkId::new("tables_incremental", n), &n, |b, _| {
        b.iter(|| {
            observer
                .observe(&session, ScopeStrategy::Table)
                .fetched_tables()
        })
    });

    // The same 1% dirty without a listing epoch: every pass lists the
    // fleet again and walks it against the prior's listing.
    let relisting = SessionLake {
        lake: &lake,
        listing_epoch: None,
        dirty_divisor: DIRTY_DIVISOR,
    };
    let mut observer = FleetObserver::new();
    observer.observe(&relisting, ScopeStrategy::Table);
    group.bench_with_input(BenchmarkId::new("tables_relisted", n), &n, |b, _| {
        b.iter(|| {
            observer
                .observe(&relisting, ScopeStrategy::Table)
                .fetched_tables()
        })
    });

    // The storm shape: half the fleet dirty over a shared listing, so
    // the pass is dominated by fetching and placing entries.
    let storm = SessionLake {
        lake: &lake,
        listing_epoch: Some(0),
        dirty_divisor: STORM_DIVISOR,
    };
    let mut observer = FleetObserver::new();
    observer.observe(&storm, ScopeStrategy::Table);
    group.bench_with_input(
        BenchmarkId::new("tables_incremental_50pct", n),
        &n,
        |b, _| {
            b.iter(|| {
                observer
                    .observe(&storm, ScopeStrategy::Table)
                    .fetched_tables()
            })
        },
    );

    // One storm round's ingest: a dirty mark per commit, uniform over the
    // fleet, then the incremental observe whose changelog names the same
    // commits. The benchmark's fleets number their tables densely; the
    // sparse fleet takes the uid index's other, hashed form.
    let sparse = SyntheticLake::sparse(n);
    for (name, lake) in [("ingest_50pct", &lake), ("ingest_50pct_sparse", &sparse)] {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let commits: Vec<u64> = (0..STORM_COMMITS)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                lake.tables[(state % n) as usize].table_uid
            })
            .collect();
        let ingest = CommitLake { lake, commits };
        let mut observer = FleetObserver::new();
        observer.observe(&ingest, ScopeStrategy::Table);
        group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
            b.iter(|| {
                for uid in &ingest.commits {
                    observer.mark_dirty(*uid);
                }
                observer
                    .observe(&ingest, ScopeStrategy::Table)
                    .fetched_tables()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_observe);
criterion_main!(benches);
