//! Table statistics: the standardized observe-phase payload.
//!
//! §4.1 of the paper proposes "a standardized layout for statistics that
//! accommodates both generic and custom metrics"; generic statistics
//! include "the number of files in a candidate as well as their
//! corresponding file sizes". [`TableStats`] is that generic layout,
//! computable for a whole table or any partition subset.
//!
//! # What is maintained at commit, and what a read costs
//!
//! Every field is a `u64` sum or count over the live files, so the table
//! keeps them current where the live set changes — [`Table::commit`]
//! adjusts a `FileAggregates` (total bytes, delete-file count, the
//! data-file size histogram, unsorted data bytes, small-file count and
//! bytes) and the byte total of each partition-index entry by exactly the
//! files the commit removes and adds. The side that already touches each
//! file does the per-file work; the decision-maker reads a summary.
//!
//! [`Table::stats`] therefore visits no file: it copies the aggregates,
//! takes the manifest and snapshot counts, and scans the partition index
//! (one entry per live partition) for the largest byte total. Its cost
//! follows the partition count, not the file count or the table's age.
//!
//! Two fields depend on the caller's target size: `small_file_count` and
//! `small_bytes`. They are maintained for the table's own
//! `properties().target_file_size` (re-derived inside the next commit
//! after that property is edited). A read at any other target recounts
//! just those two from the live data files — the one remaining walk of
//! the live set, and it runs only then.
//!
//! [`Table::partition_stats`] folds the files of the one partition asked
//! for (O(files in that partition)) through a fresh `FileAggregates`.

use crate::datafile::DataFile;
use crate::table::Table;
use crate::types::PartitionKey;
use lakesim_storage::SizeHistogram;

/// Generic statistics over a candidate's files.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Live file count (data + delete files).
    pub file_count: u64,
    /// Data files strictly smaller than the target size.
    pub small_file_count: u64,
    /// Bytes in those small data files (what a rewrite would process).
    pub small_bytes: u64,
    /// Total live bytes.
    pub total_bytes: u64,
    /// Live delete files (MoR debt).
    pub delete_file_count: u64,
    /// Number of live partitions in scope.
    pub partition_count: u64,
    /// Manifests in the current snapshot (planning cost driver).
    pub manifest_count: u64,
    /// Snapshots retained in the log.
    pub snapshot_count: u64,
    /// Size histogram of data files in scope.
    pub histogram: SizeHistogram,
    /// The target size the small-file metrics were computed against.
    pub target_file_size: u64,
    /// Bytes in data files not sorted by the table's sort column
    /// (candidates for a sort-embedding rewrite).
    pub unsorted_data_bytes: u64,
    /// Bytes in the largest partition in scope (skew signal for
    /// partition relayout).
    pub max_partition_bytes: u64,
}

impl TableStats {
    /// Average data-file size in bytes; 0 when empty.
    pub fn avg_file_size(&self) -> u64 {
        let data_files = self.histogram.total();
        self.histogram
            .total_bytes()
            .checked_div(data_files)
            .unwrap_or(0)
    }

    /// Fraction of data files that are small; 0.0 when empty.
    pub fn small_file_fraction(&self) -> f64 {
        let data_files = self.histogram.total();
        if data_files == 0 {
            0.0
        } else {
            self.small_file_count as f64 / data_files as f64
        }
    }
}

/// The sums and counts behind [`TableStats`] over a set of files,
/// adjusted one file at a time. `Table` keeps one for its live set;
/// `partition_stats` builds one over a partition's files.
#[derive(Debug, Clone)]
pub(crate) struct FileAggregates {
    total_bytes: u64,
    delete_file_count: u64,
    /// Data files only.
    histogram: SizeHistogram,
    unsorted_data_bytes: u64,
    /// The target `small_file_count` / `small_bytes` are kept against.
    small_target: u64,
    small_file_count: u64,
    small_bytes: u64,
}

impl FileAggregates {
    pub(crate) fn new(small_target: u64) -> Self {
        FileAggregates {
            total_bytes: 0,
            delete_file_count: 0,
            histogram: SizeHistogram::new(),
            unsorted_data_bytes: 0,
            small_target,
            small_file_count: 0,
            small_bytes: 0,
        }
    }

    pub(crate) fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    pub(crate) fn delete_file_count(&self) -> u64 {
        self.delete_file_count
    }

    pub(crate) fn add(&mut self, f: &DataFile) {
        let size = f.file_size_bytes;
        self.total_bytes += size;
        if f.content.is_deletes() {
            self.delete_file_count += 1;
            return;
        }
        self.histogram.record(size);
        if f.is_small(self.small_target) {
            self.small_file_count += 1;
            self.small_bytes += size;
        }
        if !f.sorted {
            self.unsorted_data_bytes += size;
        }
    }

    pub(crate) fn remove(&mut self, f: &DataFile) {
        let size = f.file_size_bytes;
        self.total_bytes -= size;
        if f.content.is_deletes() {
            self.delete_file_count -= 1;
            return;
        }
        self.histogram.unrecord(size);
        if f.is_small(self.small_target) {
            self.small_file_count -= 1;
            self.small_bytes -= size;
        }
        if !f.sorted {
            self.unsorted_data_bytes -= size;
        }
    }

    /// Recounts the two target-dependent fields for `target` from `files`
    /// (the set the aggregates cover) unless they are already kept for it.
    pub(crate) fn retarget<'a>(&mut self, target: u64, files: impl Iterator<Item = &'a DataFile>) {
        if target == self.small_target {
            return;
        }
        self.small_target = target;
        (self.small_file_count, self.small_bytes) = files
            .filter(|f| !f.content.is_deletes() && f.is_small(target))
            .fold((0, 0), |(count, bytes), f| {
                (count + 1, bytes + f.file_size_bytes)
            });
    }
}

impl Table {
    /// Statistics over the whole table, with small-file metrics relative
    /// to `target_file_size`. Visits no file when the target is the
    /// table's own (see the module docs).
    pub fn stats(&self, target_file_size: u64) -> TableStats {
        let mut aggregates = self.aggregates().clone();
        aggregates.retarget(target_file_size, self.live_files());
        let (partition_count, max_partition_bytes) = self.partition_extent();
        self.assemble(aggregates, partition_count, max_partition_bytes)
    }

    /// Statistics over one partition.
    pub fn partition_stats(&self, key: &PartitionKey, target_file_size: u64) -> TableStats {
        let mut aggregates = FileAggregates::new(target_file_size);
        let ids = self.files_in_partition(key);
        for f in ids.into_iter().flatten().filter_map(|id| self.file(*id)) {
            aggregates.add(f);
        }
        let bytes = aggregates.total_bytes;
        self.assemble(aggregates, u64::from(ids.is_some()), bytes)
    }

    fn assemble(
        &self,
        aggregates: FileAggregates,
        partition_count: u64,
        max_partition_bytes: u64,
    ) -> TableStats {
        TableStats {
            file_count: aggregates.histogram.total() + aggregates.delete_file_count,
            small_file_count: aggregates.small_file_count,
            small_bytes: aggregates.small_bytes,
            total_bytes: aggregates.total_bytes,
            delete_file_count: aggregates.delete_file_count,
            partition_count,
            manifest_count: self.manifests().len() as u64,
            snapshot_count: self.snapshots().len() as u64,
            histogram: aggregates.histogram,
            target_file_size: aggregates.small_target,
            unsorted_data_bytes: aggregates.unsorted_data_bytes,
            max_partition_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datafile::DataFile;
    use crate::schema::{ColumnType, Field, Schema};
    use crate::table::TableProperties;
    use crate::transaction::OpKind;
    use crate::types::{PartitionSpec, PartitionValue, TableId, Transform};
    use lakesim_storage::{FileId, MB};

    fn pkey(i: i32) -> PartitionKey {
        PartitionKey::single(PartitionValue::Date(i))
    }

    fn build() -> Table {
        let schema = Schema::new(vec![
            Field::new(1, "k", ColumnType::Int64, true),
            Field::new(2, "ds", ColumnType::Date, true),
        ])
        .unwrap();
        let mut t = Table::new(
            TableId(1),
            "t",
            "db",
            schema,
            PartitionSpec::single(2, Transform::Month, "m"),
            TableProperties::default(),
            0,
        );
        let mut txn = t.begin(OpKind::Append);
        txn.add_file(DataFile::data(FileId(1), pkey(1), 10, 64 * MB));
        txn.add_file(DataFile::data(FileId(2), pkey(1), 10, 600 * MB));
        txn.add_file(DataFile::data(FileId(3), pkey(2), 10, 32 * MB));
        t.commit(txn, 0).unwrap();
        let mut delta = t.begin(OpKind::RowDelta);
        delta.add_file(DataFile::position_deletes(FileId(4), pkey(2), 2, MB));
        t.commit(delta, 1).unwrap();
        t
    }

    #[test]
    fn table_stats_cover_all_dimensions() {
        let t = build();
        let s = t.stats(512 * MB);
        assert_eq!(s.file_count, 4);
        assert_eq!(s.small_file_count, 2);
        assert_eq!(s.small_bytes, 96 * MB);
        assert_eq!(s.delete_file_count, 1);
        assert_eq!(s.partition_count, 2);
        assert_eq!(s.snapshot_count, 2);
        assert_eq!(s.histogram.total(), 3); // data files only
        assert!((s.small_file_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.avg_file_size(), (64 + 600 + 32) * MB / 3);
        // Ingest writes are unsorted; partition 1 holds the most bytes.
        assert_eq!(s.unsorted_data_bytes, (64 + 600 + 32) * MB);
        assert_eq!(s.max_partition_bytes, (64 + 600) * MB);
    }

    #[test]
    fn sorted_files_leave_the_unsorted_pool() {
        let mut t = build();
        let mut txn = t.begin(OpKind::Append);
        txn.add_file(DataFile::data_sorted(FileId(9), pkey(3), 10, 128 * MB));
        t.commit(txn, 2).unwrap();
        let s = t.stats(512 * MB);
        assert_eq!(s.unsorted_data_bytes, (64 + 600 + 32) * MB);
        assert_eq!(s.total_bytes, (64 + 600 + 32 + 128) * MB + MB);
    }

    #[test]
    fn partition_stats_scope_correctly() {
        let t = build();
        let s = t.partition_stats(&pkey(2), 512 * MB);
        assert_eq!(s.file_count, 2); // one data + one delete
        assert_eq!(s.small_file_count, 1);
        assert_eq!(s.delete_file_count, 1);
        assert_eq!(s.partition_count, 1);
    }

    #[test]
    fn empty_scope_yields_zeroes() {
        let t = build();
        let s = t.partition_stats(&pkey(99), 512 * MB);
        assert_eq!(s.file_count, 0);
        assert_eq!(s.avg_file_size(), 0);
        assert_eq!(s.small_file_fraction(), 0.0);
    }
}
