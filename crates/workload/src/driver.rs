//! The experiment stream driver.
//!
//! Runs a time-ordered list of scheduled operations against a [`SimEnv`],
//! draining due commits before every event and invoking a periodic
//! callback at fixed tick boundaries. The bench layer plugs AutoComp's
//! periodic trigger into that callback ("Compaction execution is
//! triggered every hour of the experiment", §6).

use lakesim_engine::{EngineError, ReadSpec, SimEnv, WriteSpec};

/// One operation to execute.
#[derive(Debug, Clone)]
pub enum OpSpec {
    /// Read query.
    Read(ReadSpec),
    /// Write query.
    Write(WriteSpec),
}

/// An operation scheduled at an absolute simulation time.
#[derive(Debug, Clone)]
pub struct ScheduledOp {
    /// Arrival time.
    pub at_ms: u64,
    /// The operation.
    pub op: OpSpec,
}

/// Outcome summary of a stream run.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Operations submitted.
    pub ops_run: usize,
    /// Read queries that failed (storage errors).
    pub read_failures: u64,
    /// Write queries that failed to submit (quota etc.).
    pub write_failures: u64,
    /// Latest completion time across all operations and commits — the
    /// experiment's end-to-end makespan (§6.2 compares these).
    pub makespan_ms: u64,
    /// First few error strings, for diagnostics.
    pub errors: Vec<String>,
}

/// Runs `ops` (must be sorted by `at_ms`) to completion.
///
/// * Before each op and each tick, due commits are drained so every
///   observer sees a consistent table state.
/// * `on_tick(env, tick_time)` fires at each multiple of `tick_ms` within
///   `[first_op_or_0, end_ms]`.
/// * After the last op, remaining ticks up to `end_ms` still fire, then
///   all pending commits are drained.
pub fn run_stream(
    env: &mut SimEnv,
    ops: &[ScheduledOp],
    tick_ms: u64,
    end_ms: u64,
    mut on_tick: impl FnMut(&mut SimEnv, u64),
) -> StreamStats {
    debug_assert!(
        ops.windows(2).all(|w| w[0].at_ms <= w[1].at_ms),
        "ops must be sorted by time"
    );
    let tick_ms = tick_ms.max(1);
    let mut stats = StreamStats::default();
    let mut next_tick = tick_ms;
    for op in ops {
        while next_tick <= op.at_ms && next_tick <= end_ms {
            for event in env.drain_due(next_tick) {
                stats.makespan_ms = stats.makespan_ms.max(event.at_ms);
            }
            on_tick(env, next_tick);
            next_tick += tick_ms;
        }
        for event in env.drain_due(op.at_ms) {
            stats.makespan_ms = stats.makespan_ms.max(event.at_ms);
        }
        stats.ops_run += 1;
        match &op.op {
            OpSpec::Read(spec) => match env.submit_read(spec, op.at_ms) {
                Ok(result) => {
                    stats.makespan_ms = stats.makespan_ms.max(result.finished_ms);
                }
                Err(e) => {
                    stats.read_failures += 1;
                    push_error(&mut stats, e);
                }
            },
            OpSpec::Write(spec) => match env.submit_write(spec, op.at_ms) {
                Ok(result) => {
                    stats.makespan_ms = stats.makespan_ms.max(result.finished_ms);
                }
                Err(e) => {
                    stats.write_failures += 1;
                    push_error(&mut stats, e);
                }
            },
        }
    }
    while next_tick <= end_ms {
        for event in env.drain_due(next_tick) {
            stats.makespan_ms = stats.makespan_ms.max(event.at_ms);
        }
        on_tick(env, next_tick);
        next_tick += tick_ms;
    }
    for event in env.drain_all() {
        stats.makespan_ms = stats.makespan_ms.max(event.at_ms);
    }
    stats
}

fn push_error(stats: &mut StreamStats, e: EngineError) {
    if stats.errors.len() < 16 {
        stats.errors.push(e.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lakesim_catalog::TablePolicy;
    use lakesim_engine::{EnvConfig, FileSizePlan, MS_PER_HOUR};
    use lakesim_lst::{
        ColumnType, Field, PartitionFilter, PartitionKey, PartitionSpec, Schema, TableId,
        TableProperties,
    };
    use lakesim_storage::MB;

    fn setup() -> (SimEnv, TableId) {
        let mut env = SimEnv::new(EnvConfig {
            seed: 10,
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

    #[test]
    fn runs_ops_and_ticks_in_order() {
        let (mut env, t) = setup();
        let ops = vec![
            ScheduledOp {
                at_ms: 10_000,
                op: OpSpec::Write(WriteSpec::insert(
                    t,
                    PartitionKey::unpartitioned(),
                    32 * MB,
                    FileSizePlan::trickle(),
                    "query",
                )),
            },
            ScheduledOp {
                at_ms: 30 * 60_000,
                op: OpSpec::Read(ReadSpec {
                    table: t,
                    filter: PartitionFilter::All,
                    cluster: "query".into(),
                    parallelism: 4,
                }),
            },
        ];
        let mut ticks = Vec::new();
        let stats = run_stream(&mut env, &ops, MS_PER_HOUR, 2 * MS_PER_HOUR, |_, tick| {
            ticks.push(tick);
        });
        assert_eq!(stats.ops_run, 2);
        assert_eq!(stats.read_failures + stats.write_failures, 0);
        assert_eq!(ticks, vec![MS_PER_HOUR, 2 * MS_PER_HOUR]);
        assert!(stats.makespan_ms > 10_000);
        assert_eq!(env.pending_len(), 0, "all commits drained");
        // The read (after the write's drain point) saw the written files.
        let read_sample = env
            .metrics
            .latencies
            .iter()
            .find(|s| s.class == lakesim_engine::QueryClass::ReadOnly)
            .unwrap();
        assert!(read_sample.latency_ms > 0.0);
    }

    #[test]
    fn failures_are_counted_not_fatal() {
        let (mut env, _) = setup();
        let ghost = TableId(99);
        let ops = vec![ScheduledOp {
            at_ms: 100,
            op: OpSpec::Read(ReadSpec {
                table: ghost,
                filter: PartitionFilter::All,
                cluster: "query".into(),
                parallelism: 1,
            }),
        }];
        let stats = run_stream(&mut env, &ops, 1000, 2000, |_, _| {});
        assert_eq!(stats.read_failures, 1);
        assert_eq!(stats.errors.len(), 1);
    }

    #[test]
    fn tick_callback_can_mutate_env() {
        let (mut env, t) = setup();
        // Write during a tick: proves the callback gets full env access
        // (this is where AutoComp cycles run in the bench layer).
        let stats = run_stream(&mut env, &[], 60_000, 120_000, |env, tick| {
            let spec = WriteSpec::insert(
                t,
                PartitionKey::unpartitioned(),
                8 * MB,
                FileSizePlan::trickle(),
                "query",
            );
            env.submit_write(&spec, tick).unwrap();
        });
        assert_eq!(stats.ops_run, 0);
        assert!(env.catalog.table(t).unwrap().table.file_count() > 0);
    }
}
