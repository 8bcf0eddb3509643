//! Property-based state-machine test over the LST commit protocol: apply
//! arbitrary operation sequences to a table and check the structural
//! invariants the rest of the system relies on after every commit.

use std::collections::BTreeMap;

use proptest::prelude::*;

use lakesim_lst::{
    ColumnType, ConflictMode, DataFile, Field, OpKind, PartitionFilter, PartitionKey,
    PartitionSpec, PartitionValue, Schema, Table, TableId, TableProperties, TableStats, Transform,
};
use lakesim_storage::{FileId, SizeHistogram, MB};

#[derive(Debug, Clone)]
enum Op {
    Append {
        partition: i32,
        files: u8,
        mb: u16,
    },
    MorDelta {
        partition: i32,
    },
    Overwrite {
        partition: i32,
        mb: u16,
    },
    /// `sorted` outputs are what a sort-embedding rewrite leaves behind.
    RewritePartition {
        partition: i32,
        sorted: bool,
    },
    /// Removes every file of the partition and adds none.
    DropPartition {
        partition: i32,
    },
    /// Edits `properties_mut().target_file_size` between commits.
    Retarget {
        mb: u16,
    },
    Expire {
        older_than_ms: u32,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i32..4, 1u8..6, 1u16..700).prop_map(|(partition, files, mb)| Op::Append {
            partition,
            files,
            mb
        }),
        (0i32..4).prop_map(|partition| Op::MorDelta { partition }),
        (0i32..4, 1u16..700).prop_map(|(partition, mb)| Op::Overwrite { partition, mb }),
        (0i32..4, any::<bool>())
            .prop_map(|(partition, sorted)| Op::RewritePartition { partition, sorted }),
        (0i32..4).prop_map(|partition| Op::DropPartition { partition }),
        (1u16..700).prop_map(|mb| Op::Retarget { mb }),
        (0u32..10_000).prop_map(|older_than_ms| Op::Expire { older_than_ms }),
    ]
}

fn pkey(i: i32) -> PartitionKey {
    PartitionKey::single(PartitionValue::Date(i))
}

fn new_table(mode: ConflictMode) -> Table {
    let schema = Schema::new(vec![
        Field::new(1, "k", ColumnType::Int64, true),
        Field::new(2, "ds", ColumnType::Date, true),
    ])
    .expect("valid schema");
    Table::new(
        TableId(1),
        "prop",
        "db",
        schema,
        PartitionSpec::single(2, Transform::Day, "ds"),
        TableProperties {
            conflict_mode: mode,
            ..TableProperties::default()
        },
        0,
    )
}

/// A second target no `Retarget` lands on (it is not a whole MB), so
/// every check reads once at a target the table does not maintain.
const SECOND_TARGET: u64 = 128 * MB + 1;

/// The stats oracle: every [`TableStats`] field recounted from
/// `live_files()`, for one partition or (`None`) the whole table. It
/// shares nothing with the aggregates `Table::commit` maintains.
fn recount(table: &Table, scope: Option<&PartitionKey>, target: u64) -> TableStats {
    let mut stats = TableStats {
        file_count: 0,
        small_file_count: 0,
        small_bytes: 0,
        total_bytes: 0,
        delete_file_count: 0,
        partition_count: 0,
        manifest_count: table.manifests().len() as u64,
        snapshot_count: table.snapshots().len() as u64,
        histogram: SizeHistogram::new(),
        target_file_size: target,
        unsorted_data_bytes: 0,
        max_partition_bytes: 0,
    };
    let mut partition_bytes: BTreeMap<&PartitionKey, u64> = BTreeMap::new();
    for f in table
        .live_files()
        .filter(|f| scope.is_none_or(|key| &f.partition == key))
    {
        stats.file_count += 1;
        stats.total_bytes += f.file_size_bytes;
        *partition_bytes.entry(&f.partition).or_default() += f.file_size_bytes;
        if f.content.is_deletes() {
            stats.delete_file_count += 1;
            continue;
        }
        stats.histogram.record(f.file_size_bytes);
        if f.file_size_bytes < target {
            stats.small_file_count += 1;
            stats.small_bytes += f.file_size_bytes;
        }
        if !f.sorted {
            stats.unsorted_data_bytes += f.file_size_bytes;
        }
    }
    stats.partition_count = partition_bytes.len() as u64;
    stats.max_partition_bytes = partition_bytes.values().copied().max().unwrap_or(0);
    stats
}

/// Structural invariants that must hold after every successful commit.
fn check_invariants(table: &Table) {
    // 1. Partition index ↔ live set consistency.
    let mut indexed = 0u64;
    for key in table.partition_keys() {
        let ids = table.files_in_partition(&key).expect("listed key exists");
        assert!(!ids.is_empty(), "empty partitions must be pruned");
        for id in ids {
            let f = table.file(*id).expect("indexed file is live");
            assert_eq!(f.partition, key, "index partition matches file");
            indexed += 1;
        }
    }
    assert_eq!(
        indexed,
        table.file_count(),
        "index covers exactly the live set"
    );

    // 2. Byte accounting.
    let total: u64 = table.live_files().map(|f| f.file_size_bytes).sum();
    assert_eq!(total, table.total_bytes());

    // 3. Full scans see every live data file exactly once.
    let plan = table.plan_scan(&PartitionFilter::All);
    assert_eq!(
        plan.file_count() + plan.delete_files,
        table.file_count(),
        "scan covers all live files"
    );
    assert_eq!(plan.delete_files, table.delete_file_count());

    // 4. Snapshot lineage: ids strictly increase and the current snapshot
    //    is in the log.
    let snaps = table.snapshots();
    assert!(snaps.windows(2).all(|w| w[0].id < w[1].id));
    if let Some(current) = table.current_snapshot_id() {
        assert!(table.snapshot(current).is_some());
    }

    // 5. Every stats field agrees with a recount from the live files: for
    //    the table and each live partition, at the target the table
    //    maintains and at one it does not.
    for target in [table.properties().target_file_size, SECOND_TARGET] {
        assert_eq!(table.stats(target), recount(table, None, target));
        for key in table.partition_keys() {
            assert_eq!(
                table.partition_stats(&key, target),
                recount(table, Some(&key), target),
                "partition {key}"
            );
        }
    }
}

fn apply(table: &mut Table, op: &Op, next_file: &mut u64, now: &mut u64) {
    *now += 100;
    match op {
        Op::Append {
            partition,
            files,
            mb,
        } => {
            let mut txn = table.begin(OpKind::Append);
            for _ in 0..*files {
                *next_file += 1;
                txn.add_file(DataFile::data(
                    FileId(*next_file),
                    pkey(*partition),
                    100,
                    u64::from(*mb) * MB,
                ));
            }
            table.commit(txn, *now).expect("append never conflicts");
        }
        Op::MorDelta { partition } => {
            let mut txn = table.begin(OpKind::RowDelta);
            *next_file += 1;
            txn.add_file(DataFile::position_deletes(
                FileId(*next_file),
                pkey(*partition),
                10,
                MB,
            ));
            table
                .commit(txn, *now)
                .expect("serial row delta never conflicts");
        }
        Op::Overwrite { partition, mb } => {
            let mut txn = table.begin(OpKind::OverwritePartitions);
            if let Some(ids) = table.files_in_partition(&pkey(*partition)) {
                for id in ids.clone() {
                    txn.remove_file(id);
                }
            }
            *next_file += 1;
            txn.add_file(DataFile::data(
                FileId(*next_file),
                pkey(*partition),
                100,
                u64::from(*mb) * MB,
            ));
            txn.declare_partition(pkey(*partition));
            table
                .commit(txn, *now)
                .expect("serial overwrite never conflicts");
        }
        Op::RewritePartition { partition, sorted } => {
            let plan = lakesim_lst::plan_partition_rewrite(
                table,
                &pkey(*partition),
                &lakesim_lst::BinPackConfig::default(),
            );
            if plan.is_empty() {
                return;
            }
            let mut txn = table.begin(OpKind::RewriteFiles);
            let mut bytes = 0u64;
            for group in &plan.groups {
                for id in group.inputs.iter().chain(group.delete_inputs.iter()) {
                    txn.remove_file(*id);
                }
                bytes += group.input_bytes;
            }
            let output = if *sorted {
                DataFile::data_sorted
            } else {
                DataFile::data
            };
            for size in lakesim_lst::synthesize_outputs(bytes, 512 * MB) {
                *next_file += 1;
                txn.add_file(output(FileId(*next_file), pkey(*partition), 100, size));
            }
            table
                .commit(txn, *now)
                .expect("serial rewrite never conflicts");
        }
        Op::DropPartition { partition } => {
            let Some(ids) = table.files_in_partition(&pkey(*partition)) else {
                return;
            };
            let mut txn = table.begin(OpKind::OverwritePartitions);
            for id in ids.clone() {
                txn.remove_file(id);
            }
            txn.declare_partition(pkey(*partition));
            table
                .commit(txn, *now)
                .expect("serial drop never conflicts");
            assert!(table.files_in_partition(&pkey(*partition)).is_none());
        }
        Op::Retarget { mb } => {
            table.properties_mut().target_file_size = u64::from(*mb) * MB;
        }
        Op::Expire { older_than_ms } => {
            table.expire_snapshots(u64::from(*older_than_ms));
        }
    }
}

proptest! {
    // 512 cases × the two conflict modes = 1024 random op sequences.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any serial operation sequence preserves the table invariants, under
    /// either conflict model (serial commits never conflict, so both modes
    /// must behave identically).
    #[test]
    fn serial_histories_preserve_invariants(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        for mode in [ConflictMode::Strict, ConflictMode::PartitionAware] {
            let mut table = new_table(mode);
            let mut next_file = 0u64;
            let mut now = 0u64;
            for op in &ops {
                apply(&mut table, op, &mut next_file, &mut now);
                check_invariants(&table);
            }
        }
    }

    /// Rewrites never lose data bytes: a partition's data-byte total is
    /// unchanged by compaction (delete files are merged away, data bytes
    /// conserved).
    #[test]
    fn rewrites_conserve_data_bytes(
        sizes in proptest::collection::vec(1u16..600, 2..12),
        partition in 0i32..3,
    ) {
        let mut table = new_table(ConflictMode::PartitionAware);
        let mut txn = table.begin(OpKind::Append);
        for (i, mb) in sizes.iter().enumerate() {
            txn.add_file(DataFile::data(
                FileId(i as u64 + 1),
                pkey(partition),
                100,
                u64::from(*mb) * MB,
            ));
        }
        table.commit(txn, 1).expect("append commits");
        let data_bytes_before: u64 = table
            .live_files()
            .filter(|f| !f.content.is_deletes())
            .map(|f| f.file_size_bytes)
            .sum();
        let mut next_file = 1000u64;
        let mut now = 10u64;
        apply(
            &mut table,
            &Op::RewritePartition {
                partition,
                sorted: false,
            },
            &mut next_file,
            &mut now,
        );
        let data_bytes_after: u64 = table
            .live_files()
            .filter(|f| !f.content.is_deletes())
            .map(|f| f.file_size_bytes)
            .sum();
        prop_assert_eq!(data_bytes_before, data_bytes_after);
        check_invariants(&table);
    }
}
