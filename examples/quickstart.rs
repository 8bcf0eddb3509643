//! Quickstart: build a small simulated lake, fragment a table with a
//! misconfigured writer, run one AutoComp cycle, and inspect the
//! explainable decision report.
//!
//! Run with: `cargo run --release --example quickstart`

use autocomp::{
    AlreadyCompactFilter, AutoComp, AutoCompConfig, CompactionDisabledFilter, ComputeCostGbhr,
    CycleInput, FileCountReduction, FleetObserver, RankingPolicy, ScopeStrategy, TraitWeight,
    Untracked,
};
use autocomp_lakesim::{share, LakesimConnector, LakesimExecutor};
use lakesim_catalog::TablePolicy;
use lakesim_engine::{EnvConfig, FileSizePlan, SimEnv, WriteSpec, MS_PER_HOUR};
use lakesim_lst::{ColumnType, Field, PartitionKey, PartitionSpec, Schema, TableProperties};
use lakesim_storage::{FileKind, MB};

fn main() {
    // 1. A lake with one database and one table.
    let mut env = SimEnv::new(EnvConfig {
        seed: 42,
        ..EnvConfig::default()
    });
    env.create_database("demo", "quickstart-tenant", None)
        .expect("fresh database");
    let schema = Schema::new(vec![
        Field::new(1, "id", ColumnType::Int64, true),
        Field::new(2, "payload", ColumnType::Utf8 { avg_len: 64 }, false),
    ])
    .expect("valid schema");
    let table = env
        .create_table(
            "demo",
            "events",
            schema,
            PartitionSpec::unpartitioned(),
            TableProperties::default(),
            TablePolicy {
                min_age_ms: 0,
                ..TablePolicy::default()
            },
        )
        .expect("fresh table");

    // 2. A misconfigured writer floods it with small files (§2 of the
    //    paper: the root cause of small-file proliferation).
    for hour in 0..3u64 {
        let spec = WriteSpec::insert(
            table,
            PartitionKey::unpartitioned(),
            512 * MB,
            FileSizePlan::misconfigured(),
            "query",
        );
        env.submit_write(&spec, hour * MS_PER_HOUR)
            .expect("write accepted");
    }
    env.drain_all();
    println!(
        "before compaction: {} data files ({} small)",
        env.fs.total_files_of_kind(FileKind::Data),
        env.fs.small_file_count(512 * MB),
    );

    // 3. AutoComp: observe → orient → decide → act, exactly as §3.3.
    let mut pipeline = AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: 5,
        },
        trigger_label: "quickstart".to_string(),
        calibrate: false,
    })
    .with_filter(Box::new(CompactionDisabledFilter))
    .with_filter(Box::new(AlreadyCompactFilter {
        min_small_files: 2,
        min_small_fraction: 0.0,
    }))
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()));

    let shared = share(env);
    let connector = LakesimConnector::new(shared.clone());
    let mut executor = Untracked(LakesimExecutor::new(shared.clone()));
    let now = 4 * MS_PER_HOUR;
    let report = pipeline
        .cycle(CycleInput {
            connector: &connector,
            observer: &mut FleetObserver::new(),
            executor: &mut executor,
            now_ms: now,
        })
        .expect("cycle runs");
    drop(connector);
    drop(executor);

    // 4. The decision trail (NFR2 explainability).
    println!("\n{report}");

    // 5. Let the compaction job finish and compare.
    let mut env = std::rc::Rc::try_unwrap(shared)
        .unwrap_or_else(|_| panic!("no lingering refs"))
        .into_inner();
    env.drain_all();
    println!(
        "after compaction: {} data files ({} small)",
        env.fs.total_files_of_kind(FileKind::Data),
        env.fs.small_file_count(512 * MB),
    );
    let record = &env.maintenance.records()[0];
    println!(
        "job #{}: predicted ΔF={} actual ΔF={} | predicted {:.3} GBHr actual {:.3} GBHr",
        record.job_id,
        record.predicted_reduction,
        record.actual_reduction,
        record.predicted_gbhr,
        record.actual_gbhr,
    );
}
