//! Staleness-contract regression tests: the prose contract in
//! `core/src/observe.rs` ("a reused entry is byte-for-byte the prior
//! cycle's stats … **bounded staleness** when they embed time-decaying or
//! shared signals"), turned into executable assertions over the real
//! simulated lake:
//!
//! * a **database quota** moved by a *sibling* table's write is reflected
//!   after a cold observe but stays stale on a reused entry;
//! * a **write-frequency window** decays with the clock on a cold observe
//!   but stays frozen on a reused entry;
//! * a **snapshot-window** scope ages files out on a cold observe but a
//!   reused entry still reports them;
//!
//! and in every case `FleetObserver::reset` (or force-dirtying the
//! affected tables, e.g. via `mark_database_dirty`) reconverges the
//! observation exactly with cold state.

use autocomp::{CandidateStats, FleetObserver, ScopeStrategy, TableObservation};
use autocomp_lakesim::{mark_database_dirty, share, LakesimConnector};
use lakesim_catalog::TablePolicy;
use lakesim_engine::{EnvConfig, FileSizePlan, SimEnv, WriteSpec};
use lakesim_lst::{
    ColumnType, Field, PartitionKey, PartitionSpec, Schema, TableId, TableProperties,
};
use lakesim_storage::MB;

/// One-hour rolling write window (catalog's `USAGE_WINDOW_MS`).
const HOUR_MS: u64 = 3_600_000;

fn build_env(quota: Option<u64>, tables: u64) -> (autocomp_lakesim::SharedEnv, Vec<TableId>) {
    let mut env = SimEnv::new(EnvConfig {
        seed: 77,
        ..EnvConfig::default()
    });
    env.create_database("db", "tenant", quota).unwrap();
    let mut ids = Vec::new();
    for i in 0..tables {
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
            (32 + i * 8) * MB,
            FileSizePlan::trickle(),
            "query",
        );
        env.submit_write(&spec, 1_000 + i * 10).unwrap();
        ids.push(t);
    }
    env.drain_all();
    (share(env), ids)
}

fn write_to(env: &autocomp_lakesim::SharedEnv, t: TableId, at_ms: u64) {
    let spec = WriteSpec::insert(
        t,
        PartitionKey::unpartitioned(),
        64 * MB,
        FileSizePlan::trickle(),
        "query",
    );
    let mut env = env.borrow_mut();
    env.submit_write(&spec, at_ms).unwrap();
    env.drain_all();
}

fn table_stats_of(obs: &autocomp::FleetObservation, uid: u64) -> &CandidateStats {
    let index = obs
        .tables()
        .iter()
        .position(|t| t.table_uid == uid)
        .expect("table listed");
    match obs.entry(index) {
        TableObservation::Table(stats) => stats,
        other => panic!("expected table-scope stats, got {other:?}"),
    }
}

/// A sibling table's write moves the shared database quota: exact after a
/// cold observe, stale (the prior cycle's value) under reuse, exact again
/// after the affected database is force-dirtied or the observer resets.
#[test]
fn sibling_write_leaves_reused_quota_stale_until_dirty_or_reset() {
    let (env, ids) = build_env(Some(5_000_000), 2);
    let (a, b) = (ids[0], ids[1]);
    let connector = LakesimConnector::new(env.clone());
    let mut observer = FleetObserver::new();

    let first = observer.observe(&connector, ScopeStrategy::Table);
    let quota_before = table_stats_of(first, b.0).quota.expect("quota signal");

    // Sibling write: table A gains files; the *database* quota moves.
    write_to(&env, a, 50_000);

    let second = observer.observe(&connector, ScopeStrategy::Table);
    assert_eq!(second.reused_tables(), 1, "B is quiet and reused");
    let stale = table_stats_of(second, b.0).quota.expect("quota signal");
    assert_eq!(
        stale, quota_before,
        "reused entry carries the prior cycle's quota verbatim"
    );

    // A cold observe over the same state sees the moved quota.
    let cold = FleetObserver::new()
        .observe(&connector, ScopeStrategy::Table)
        .clone();
    let fresh = table_stats_of(&cold, b.0).quota.expect("quota signal");
    assert_ne!(
        fresh.used, stale.used,
        "sibling write moved the shared quota; the reused entry is stale"
    );

    // The documented recipe: force-dirty the database, then re-observe.
    assert_eq!(
        mark_database_dirty(&env, &mut observer, "db").expect("database exists"),
        2,
        "both tables of the database are marked"
    );
    assert!(
        mark_database_dirty(&env, &mut observer, "no-such-db").is_err(),
        "an unknown database is an error, not a silent no-op"
    );
    let repaired = observer.observe(&connector, ScopeStrategy::Table);
    assert_eq!(
        table_stats_of(repaired, b.0).quota.expect("quota"),
        fresh,
        "force-dirtying the database reconverges the quota signal"
    );

    // And a reset reconverges the whole observation with cold state.
    observer.reset();
    let reset = observer.observe(&connector, ScopeStrategy::Table);
    assert_eq!(reset.to_candidates(), cold.to_candidates());
}

/// The rolling write-frequency window decays as the clock advances: a
/// cold observe reflects the decay, a reused entry keeps the frozen
/// (higher) frequency of the cycle it was fetched in.
#[test]
fn frequency_decay_is_visible_cold_but_frozen_under_reuse() {
    let (env, ids) = build_env(None, 2);
    let (a, b) = (ids[0], ids[1]);
    let connector = LakesimConnector::new(env.clone());
    let mut observer = FleetObserver::new();

    let first = observer.observe(&connector, ScopeStrategy::Table);
    let freq_before = table_stats_of(first, b.0).write_frequency_per_hour;
    assert!(freq_before > 0.0, "B wrote within the window");

    // Advance the clock past the usage window by writing to A only.
    write_to(&env, a, 2 * HOUR_MS);

    let second = observer.observe(&connector, ScopeStrategy::Table);
    assert_eq!(second.reused_tables(), 1, "B is quiet and reused");
    let frozen = table_stats_of(second, b.0).write_frequency_per_hour;
    assert_eq!(
        frozen.to_bits(),
        freq_before.to_bits(),
        "reused entry freezes the prior cycle's frequency"
    );

    let cold = FleetObserver::new()
        .observe(&connector, ScopeStrategy::Table)
        .clone();
    let decayed = table_stats_of(&cold, b.0).write_frequency_per_hour;
    assert_eq!(decayed, 0.0, "B's writes aged out of the rolling window");
    assert_ne!(frozen, decayed, "the reused frequency is bounded-stale");

    observer.reset();
    let reset = observer.observe(&connector, ScopeStrategy::Table);
    assert_eq!(reset.to_candidates(), cold.to_candidates());
}

/// Snapshot-window scope: files age out of the window as the clock
/// advances. A cold observe drops the aged-out candidate; a reused entry
/// still reports the files that were fresh when it was fetched.
#[test]
fn snapshot_window_aging_is_visible_cold_but_not_under_reuse() {
    let (env, ids) = build_env(None, 2);
    let (a, b) = (ids[0], ids[1]);
    let scope = ScopeStrategy::Snapshot { window_ms: 60_000 };
    let connector = LakesimConnector::new(env.clone());
    let mut observer = FleetObserver::new();

    let first = observer.observe(&connector, ScopeStrategy::Snapshot { window_ms: 60_000 });
    let in_window = table_stats_of(first, b.0).file_count;
    assert!(in_window > 0, "B's files are inside the snapshot window");

    // Advance the clock far past the window via a write to A only.
    write_to(&env, a, 10 * 60_000);

    let second = observer.observe(&connector, scope);
    assert_eq!(second.reused_tables(), 1);
    assert_eq!(
        table_stats_of(second, b.0).file_count,
        in_window,
        "reused snapshot-scope entry still reports the aged-out files"
    );

    let cold = FleetObserver::new().observe(&connector, scope).clone();
    let b_index = cold
        .tables()
        .iter()
        .position(|t| t.table_uid == b.0)
        .unwrap();
    match cold.entry(b_index) {
        // Aged out: either no stats at all or an empty window.
        TableObservation::Missing => {}
        TableObservation::Table(stats) => {
            assert_eq!(stats.file_count, 0, "no files left inside the window")
        }
        other => panic!("unexpected entry {other:?}"),
    }

    observer.reset();
    let reset = observer.observe(&connector, scope);
    assert_eq!(reset.to_candidates(), cold.to_candidates());
}
