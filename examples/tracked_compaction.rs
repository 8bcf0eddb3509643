//! The act-phase job runtime over the simulated lake: a fleet driven
//! through tracked incremental `AutoComp::cycle` calls, showing the full
//! managed lifecycle — submissions tracked in the in-flight ledger, repeat
//! candidates suppressed while their job runs, conflicted jobs retried
//! with backoff, admission deferrals, and settled outcomes feeding the
//! estimator calibration automatically.
//!
//! Run with: `cargo run --release --example tracked_compaction`

use autocomp::{
    AutoComp, AutoCompConfig, ComputeCostGbhr, CycleInput, FileCountReduction, FleetObserver,
    JobRuntimeConfig, MinSizeFilter, RankingPolicy, ScopeStrategy, TraitWeight,
};
use autocomp_lakesim::{share, LakesimConnector, LakesimExecutor};
use lakesim_catalog::TablePolicy;
use lakesim_engine::{EnvConfig, FileSizePlan, SimEnv, WriteSpec};
use lakesim_lst::{
    ColumnType, Field, PartitionKey, PartitionSpec, Schema, TableId, TableProperties,
};
use lakesim_storage::MB;

fn main() {
    // A small fleet of fragmented tables across two databases.
    let mut env = SimEnv::new(EnvConfig {
        seed: 11,
        cost: lakesim_engine::CostModel {
            // Zero write-coordination overhead so user writes land inside
            // compaction windows at this compressed timescale — the §4.4
            // commit races the runtime's retries exist for.
            write_job_overhead_ms: 0,
            ..lakesim_engine::CostModel::default()
        },
        ..EnvConfig::default()
    });
    let tables: Vec<TableId> = (0..8)
        .map(|i| {
            let db = format!("db{}", i % 2);
            if i < 2 {
                env.create_database(&db, "tenant", None).unwrap();
            }
            let schema = Schema::new(vec![Field::new(1, "k", ColumnType::Int64, true)]).unwrap();
            let t = env
                .create_table(
                    &db,
                    &format!("t{i}"),
                    schema,
                    PartitionSpec::unpartitioned(),
                    TableProperties::default(),
                    TablePolicy::default(),
                )
                .unwrap();
            let spec = WriteSpec::insert(
                t,
                PartitionKey::unpartitioned(),
                (64 + 32 * i) * MB,
                FileSizePlan::trickle(),
                "query",
            );
            env.submit_write(&spec, i * 10_000).unwrap();
            t
        })
        .collect();
    env.drain_all();
    let shared = share(env);

    let connector = LakesimConnector::new(shared.clone());
    let mut executor = LakesimExecutor::new(shared.clone());
    let mut observer = FleetObserver::new();
    let mut ac = AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: 3,
        },
        trigger_label: "tracked".into(),
        calibrate: true,
    })
    .with_filter(Box::new(MinSizeFilter {
        min_total_bytes: MB,
        min_file_count: 2,
    }))
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
    .with_job_tracker(JobRuntimeConfig {
        max_in_flight: 4,
        max_in_flight_per_database: 2,
        retry_backoff_ms: 30_000,
        ..JobRuntimeConfig::default()
    });

    // Ten OODA cycles on a tight cadence (shorter than a compaction
    // job), so jobs span cycles: repeat candidates are suppressed while
    // their job runs, and a user write aimed at an in-flight table races
    // the rewrite commit → conflict → backoff retry.
    let mut now = 1_000_000u64;
    for cycle in 0..10 {
        let report = ac
            .cycle(CycleInput {
                connector: &connector,
                observer: &mut observer,
                executor: &mut executor,
                now_ms: now,
            })
            .unwrap();
        println!(
            "cycle {cycle}: executed={} retried={} deferred={} | jobs: {}",
            report.executed.len(),
            report.retried.len(),
            report.deferred.len(),
            report.ledger,
        );
        // Write into the table whose job was just submitted: the commit
        // race plays out inside the rewrite's vulnerability window.
        let target = report
            .executed
            .first()
            .map(|j| TableId(j.id.table_uid))
            .unwrap_or(tables[cycle % tables.len()]);
        let spec = WriteSpec::insert(
            target,
            PartitionKey::unpartitioned(),
            8 * MB,
            FileSizePlan::trickle(),
            "query",
        );
        shared.borrow_mut().submit_write(&spec, now + 100).unwrap();
        now += 5_000;
    }
    shared.borrow_mut().drain_all();

    let env = shared.borrow();
    println!(
        "\nmaintenance log: {} succeeded, {} conflicted, {} failed",
        env.maintenance.count(lakesim_catalog::JobStatus::Succeeded),
        env.maintenance
            .count(lakesim_catalog::JobStatus::Conflicted),
        env.maintenance.count(lakesim_catalog::JobStatus::Failed),
    );
    println!(
        "auto-ingested feedback records: {} (reduction calibration {:.3}, cost calibration {:.3})",
        ac.feedback().records().len(),
        ac.feedback().reduction_calibration(),
        ac.feedback().cost_calibration(),
    );
    assert!(
        !ac.feedback().records().is_empty(),
        "the loop must close: settled successes feed calibration"
    );
}
