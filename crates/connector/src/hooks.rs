//! Optimize-after-write hook evaluation (§5 push mode).
//!
//! "Several existing architectures leverage hooks integrated within the
//! engine to enable automatic compaction in response to write
//! modifications, 'pushing' the compaction decision onto the engine."
//! The driver collects the tables touched by drained commits and asks the
//! hook whether each crossed its trigger threshold.

use autocomp::{AfterWriteHook, HookAction};
use lakesim_engine::SimEnv;
use lakesim_lst::TableId;

use crate::observe::LakesimConnector;
use crate::SharedEnv;

/// Evaluates an after-write hook against the given just-written tables,
/// returning each table's action (tables that vanished are skipped).
pub fn evaluate_hook(
    env: &SharedEnv,
    hook: &AfterWriteHook,
    written_tables: &[TableId],
) -> Vec<(TableId, HookAction)> {
    let connector = LakesimConnector::new(env.clone());
    let mut out = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for id in written_tables {
        if !seen.insert(*id) {
            continue;
        }
        if let Some(stats) = autocomp::LakeConnector::table_stats(&connector, id.0) {
            out.push((*id, hook.on_write(&stats)));
        }
    }
    out
}

/// Convenience: extracts the distinct tables written by a batch of commit
/// events (successful writes only).
pub fn written_tables(events: &[lakesim_engine::CommitEvent]) -> Vec<TableId> {
    let mut seen = std::collections::BTreeSet::new();
    events
        .iter()
        .filter(|e| e.succeeded)
        .filter(|e| seen.insert(e.table))
        .map(|e| e.table)
        .collect()
}

/// Feeds §5 deferred hook decisions into an incremental observer: every
/// [`HookAction::MarkDirty`] marks its table dirty, so the next cursor
/// observe re-fetches exactly the candidates the hooks flagged — "notify
/// the auto-compaction service \[to\] recalculate the candidate's traits"
/// without a full-fleet observe.
pub fn mark_dirty_from_actions(
    observer: &mut autocomp::FleetObserver,
    actions: &[(TableId, HookAction)],
) {
    for (table, action) in actions {
        if *action == HookAction::MarkDirty {
            observer.mark_dirty(table.0);
        }
    }
}

/// Marks every table of `database` dirty on an incremental observer —
/// the documented recipe for keeping incremental cycles exact across
/// **changelog-invisible shared signals**: a quota edit (or any
/// database-wide event) does not appear in the per-table commit
/// changelog, so reused entries would carry the stale quota until their
/// tables happen to be written. Force-dirtying the database re-fetches
/// its tables on the next observe — and, downstream, invalidates their
/// cycle-cache rows (see the staleness contract in
/// `autocomp::observe`).
///
/// Returns the number of tables marked. An unknown database is an error
/// (not a silent no-op): a typo'd or concurrently dropped name would
/// otherwise leave every table of the real database serving stale
/// signals with no indication anywhere.
pub fn mark_database_dirty(
    env: &SharedEnv,
    observer: &mut autocomp::FleetObserver,
    database: &str,
) -> lakesim_catalog::Result<usize> {
    let env = env.borrow();
    let tables = env.catalog.tables_in_database(database)?;
    let marked = tables.len();
    for id in tables {
        observer.mark_dirty(id.0);
    }
    Ok(marked)
}

/// Evaluates a hook directly against a mutable environment (used by
/// drivers that do not share the env). Stats come from the same shared
/// builders as the connectors (no quota signal — hooks predate the
/// candidate's database context).
pub fn evaluate_hook_direct(
    env: &mut SimEnv,
    hook: &AfterWriteHook,
    table: TableId,
) -> Option<HookAction> {
    let stats = crate::stats::table_stats(env, table.0, &crate::ObserveOptions::default(), None)?;
    Some(hook.on_write(&stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share;
    use autocomp::{FileCountReduction, HookMode};
    use lakesim_catalog::TablePolicy;
    use lakesim_engine::{EnvConfig, FileSizePlan, WriteSpec};
    use lakesim_lst::{ColumnType, Field, PartitionKey, PartitionSpec, Schema, TableProperties};
    use lakesim_storage::MB;

    fn setup() -> (SimEnv, TableId) {
        let mut env = SimEnv::new(EnvConfig {
            seed: 8,
            ..EnvConfig::default()
        });
        env.create_database("db", "tenant", None).unwrap();
        let schema = Schema::new(vec![Field::new(1, "k", ColumnType::Int64, true)]).unwrap();
        let t = env
            .create_table(
                "db",
                "t",
                schema,
                PartitionSpec::unpartitioned(),
                TableProperties::default(),
                TablePolicy::default(),
            )
            .unwrap();
        (env, t)
    }

    fn hook(threshold: f64) -> AfterWriteHook {
        AfterWriteHook::new(
            HookMode::Immediate,
            Box::new(FileCountReduction::default()),
            threshold,
        )
    }

    #[test]
    fn hook_fires_after_enough_small_files() {
        let (mut env, t) = setup();
        let spec = WriteSpec::insert(
            t,
            PartitionKey::unpartitioned(),
            128 * MB,
            FileSizePlan::trickle(),
            "query",
        );
        env.submit_write(&spec, 0).unwrap();
        let events = env.drain_all();
        let written = written_tables(&events);
        assert_eq!(written, vec![t]);

        let action = evaluate_hook_direct(&mut env, &hook(5.0), t).unwrap();
        assert_eq!(action, HookAction::TriggerNow);
        let quiet = evaluate_hook_direct(&mut env, &hook(10_000.0), t).unwrap();
        assert_eq!(quiet, HookAction::Ignore);
    }

    #[test]
    fn shared_evaluation_deduplicates_tables() {
        let (mut env, t) = setup();
        let spec = WriteSpec::insert(
            t,
            PartitionKey::unpartitioned(),
            64 * MB,
            FileSizePlan::trickle(),
            "query",
        );
        env.submit_write(&spec, 0).unwrap();
        env.drain_all();
        let shared = share(env);
        let results = evaluate_hook(&shared, &hook(1.0), &[t, t, t]);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].1, HookAction::TriggerNow);
    }

    #[test]
    fn vanished_tables_are_skipped() {
        let (env, _) = setup();
        let shared = share(env);
        let results = evaluate_hook(&shared, &hook(1.0), &[TableId(99)]);
        assert!(results.is_empty());
    }

    #[test]
    fn mark_dirty_actions_feed_the_observer() {
        let mut observer = autocomp::FleetObserver::new();
        let actions = vec![
            (TableId(1), HookAction::MarkDirty),
            (TableId(2), HookAction::Ignore),
            (TableId(3), HookAction::TriggerNow),
        ];
        mark_dirty_from_actions(&mut observer, &actions);
        // Only the MarkDirty table is pending; observing a lake without a
        // changelog still fetches fully, so verify via the deferred hook
        // path instead: a second MarkDirty for the same table dedupes.
        mark_dirty_from_actions(&mut observer, &actions);
        // The observer is opaque about pending marks; drive an observe
        // against a cursor-capable fake to assert the dirty fetch.
        let (mut env, t) = setup();
        let spec = WriteSpec::insert(
            t,
            PartitionKey::unpartitioned(),
            32 * MB,
            FileSizePlan::trickle(),
            "query",
        );
        env.submit_write(&spec, 0).unwrap();
        env.drain_all();
        let shared = share(env);
        let connector = crate::LakesimConnector::new(shared);
        let first = observer
            .observe(&connector, autocomp::ScopeStrategy::Table)
            .clone();
        assert_eq!(first.fetched_tables(), 1);
        // Mark the (only) table dirty although no write happened: the
        // next observe must re-fetch it despite a quiet changelog.
        observer.mark_dirty(t.0);
        let second = observer.observe(&connector, autocomp::ScopeStrategy::Table);
        assert_eq!(second.fetched_tables(), 1);
        assert_eq!(second.reused_tables(), 0);
    }
}
