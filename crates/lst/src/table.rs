//! The table: materialized live state plus the snapshot log and the
//! optimistic commit protocol.

use std::collections::{BTreeMap, BTreeSet};

use crate::datafile::DataFile;
use crate::error::{CommitError, ConflictKind};
use crate::manifest::{Manifest, ManifestId};
use crate::schema::Schema;
use crate::snapshot::{Snapshot, SnapshotSummary};
use crate::stats::FileAggregates;
use crate::transaction::{ConflictMode, OpKind, Transaction};
use crate::types::{PartitionKey, PartitionSpec, SnapshotId, TableId};
use lakesim_storage::{FileId, MB};

/// Number of LST metadata objects written per commit: one manifest, one
/// manifest list, one metadata JSON (§2, cause *iv* of small-file
/// proliferation).
pub const METADATA_OBJECTS_PER_COMMIT: u32 = 3;

/// Table-level configuration properties.
#[derive(Debug, Clone, PartialEq)]
pub struct TableProperties {
    /// Target data file size; 512MB at LinkedIn (§2).
    pub target_file_size: u64,
    /// Conflict validation mode (see [`ConflictMode`]).
    pub conflict_mode: ConflictMode,
    /// File entries per manifest when manifests are consolidated after a
    /// rewrite; controls scan-planning cost.
    pub entries_per_manifest: u64,
}

impl Default for TableProperties {
    fn default() -> Self {
        TableProperties {
            target_file_size: 512 * MB,
            conflict_mode: ConflictMode::Strict,
            entries_per_manifest: 1000,
        }
    }
}

/// Result of a successful commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitOutcome {
    /// The newly created snapshot.
    pub snapshot_id: SnapshotId,
    /// Metadata objects (manifests, manifest list, metadata JSON) written
    /// by this commit; the engine materializes them in storage.
    pub new_metadata_objects: u32,
    /// Files added.
    pub files_added: u64,
    /// Files removed.
    pub files_removed: u64,
}

/// Result of snapshot expiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExpireResult {
    /// Snapshots dropped from the log.
    pub snapshots_removed: u64,
    /// Estimated metadata objects freed (the engine deletes that many
    /// metadata files from storage).
    pub metadata_objects_freed: u64,
}

/// One live partition: its file ids and their byte total.
#[derive(Debug, Clone, Default)]
struct PartitionFiles {
    ids: BTreeSet<FileId>,
    bytes: u64,
}

/// A log-structured table.
#[derive(Debug, Clone)]
pub struct Table {
    id: TableId,
    name: String,
    database: String,
    schema: Schema,
    spec: PartitionSpec,
    properties: TableProperties,
    created_at_ms: u64,

    snapshots: Vec<Snapshot>,
    current: Option<SnapshotId>,
    next_snapshot: u64,
    next_manifest: u64,
    sequence: u64,

    live: BTreeMap<FileId, DataFile>,
    partition_index: BTreeMap<PartitionKey, PartitionFiles>,
    /// Sums over `live`, kept current by `commit` (see `crate::stats`).
    aggregates: FileAggregates,
    manifests: Vec<Manifest>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        id: TableId,
        name: impl Into<String>,
        database: impl Into<String>,
        schema: Schema,
        spec: PartitionSpec,
        properties: TableProperties,
        created_at_ms: u64,
    ) -> Self {
        Table {
            id,
            name: name.into(),
            database: database.into(),
            schema,
            spec,
            aggregates: FileAggregates::new(properties.target_file_size),
            properties,
            created_at_ms,
            snapshots: Vec::new(),
            current: None,
            next_snapshot: 1,
            next_manifest: 1,
            sequence: 0,
            live: BTreeMap::new(),
            partition_index: BTreeMap::new(),
            manifests: Vec::new(),
        }
    }

    /// Table id.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Owning database (namespace).
    pub fn database(&self) -> &str {
        &self.database
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Partition spec.
    pub fn spec(&self) -> &PartitionSpec {
        &self.spec
    }

    /// Table properties.
    pub fn properties(&self) -> &TableProperties {
        &self.properties
    }

    /// Mutable properties (policy changes at runtime).
    pub fn properties_mut(&mut self) -> &mut TableProperties {
        &mut self.properties
    }

    /// Creation timestamp.
    pub fn created_at_ms(&self) -> u64 {
        self.created_at_ms
    }

    /// Current snapshot id, if any commit has landed.
    pub fn current_snapshot_id(&self) -> Option<SnapshotId> {
        self.current
    }

    /// The snapshot log, oldest first.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// Looks up a snapshot by id.
    pub fn snapshot(&self, id: SnapshotId) -> Option<&Snapshot> {
        self.snapshots.iter().find(|s| s.id == id)
    }

    /// Live manifests (summaries).
    pub fn manifests(&self) -> &[Manifest] {
        &self.manifests
    }

    /// Live files, in `FileId` order.
    pub fn live_files(&self) -> impl Iterator<Item = &DataFile> {
        self.live.values()
    }

    /// Number of live files (data + delete).
    pub fn file_count(&self) -> u64 {
        self.live.len() as u64
    }

    /// Number of live delete files (MoR debt).
    pub fn delete_file_count(&self) -> u64 {
        self.aggregates.delete_file_count()
    }

    /// Total live bytes.
    pub fn total_bytes(&self) -> u64 {
        self.aggregates.total_bytes()
    }

    pub(crate) fn aggregates(&self) -> &FileAggregates {
        &self.aggregates
    }

    /// Live partition count and the byte total of the largest one.
    pub(crate) fn partition_extent(&self) -> (u64, u64) {
        let max_bytes = self.partition_index.values().map(|p| p.bytes).max();
        (self.partition_index.len() as u64, max_bytes.unwrap_or(0))
    }

    /// Live partition keys, sorted.
    pub fn partition_keys(&self) -> Vec<PartitionKey> {
        self.partition_index.keys().cloned().collect()
    }

    /// File ids in one partition, if the partition exists.
    pub fn files_in_partition(&self, key: &PartitionKey) -> Option<&BTreeSet<FileId>> {
        self.partition_index.get(key).map(|p| &p.ids)
    }

    /// Looks up one live file.
    pub fn file(&self, id: FileId) -> Option<&DataFile> {
        self.live.get(&id)
    }

    /// Begins a transaction of the given kind at the current snapshot.
    pub fn begin(&self, kind: OpKind) -> Transaction {
        Transaction::new(self.current, kind)
    }

    /// Commits a transaction at simulation time `now_ms`.
    ///
    /// Performs optimistic conflict validation against every snapshot that
    /// landed after the transaction's base (see [`ConflictMode`] and §4.4
    /// of the paper), then applies the change set atomically.
    pub fn commit(&mut self, txn: Transaction, now_ms: u64) -> Result<CommitOutcome, CommitError> {
        if txn.is_empty() {
            return Err(CommitError::EmptyTransaction);
        }
        let intermediates = self.snapshots_after(txn.base_snapshot())?;
        self.validate_conflicts(&txn, &intermediates)?;

        // Structural validation after conflict checks so that concurrent
        // removals surface as conflicts, not as unknown files.
        for id in txn.removed() {
            if !self.live.contains_key(id) {
                return Err(CommitError::UnknownFile(*id));
            }
        }
        for f in txn.added() {
            if self.live.contains_key(&f.file_id) {
                return Err(CommitError::DuplicateFile(f.file_id));
            }
        }

        // Apply: removals first (a rewrite may re-add to the same partition).
        // The aggregates and each partition's byte total move by exactly
        // the files removed and added here — the only place `live` changes
        // (a `properties_mut` edit of the target is caught up with first).
        self.aggregates
            .retarget(self.properties.target_file_size, self.live.values());
        let mut touched = txn.staged_partitions();
        let mut removed_bytes = 0;
        for id in txn.removed().clone() {
            let file = self.live.remove(&id).expect("validated above");
            removed_bytes += file.file_size_bytes;
            self.aggregates.remove(&file);
            touched.insert(file.partition.clone());
            if let Some(part) = self.partition_index.get_mut(&file.partition) {
                part.ids.remove(&id);
                part.bytes -= file.file_size_bytes;
                if part.ids.is_empty() {
                    self.partition_index.remove(&file.partition);
                }
            }
        }
        let added_bytes = txn.added_bytes();
        let added_ids: Vec<FileId> = txn.added().iter().map(|f| f.file_id).collect();
        let mut manifest_partitions = BTreeSet::new();
        for f in txn.added() {
            manifest_partitions.insert(f.partition.clone());
            let part = self.partition_index.entry(f.partition.clone()).or_default();
            part.ids.insert(f.file_id);
            part.bytes += f.file_size_bytes;
            self.aggregates.add(f);
            self.live.insert(f.file_id, f.clone());
        }

        let snapshot_id = SnapshotId(self.next_snapshot);
        self.next_snapshot += 1;
        self.sequence += 1;
        let manifest_id = ManifestId(self.next_manifest);
        self.next_manifest += 1;

        let summary = SnapshotSummary {
            added_files: added_ids.len() as u64,
            removed_files: txn.removed().len() as u64,
            added_bytes,
            removed_bytes,
        };
        self.snapshots.push(Snapshot {
            id: snapshot_id,
            parent: self.current,
            sequence_number: self.sequence,
            timestamp_ms: now_ms,
            operation: txn.kind(),
            added: added_ids,
            removed: txn.removed().iter().copied().collect(),
            touched_partitions: touched,
            manifest: manifest_id,
            summary,
        });
        self.current = Some(snapshot_id);

        if txn.kind() == OpKind::RewriteFiles {
            // Rewrites also rewrite the manifest layer (Iceberg's
            // rewrite_manifests happens as part of maintenance); model this
            // as consolidation down to `entries_per_manifest`-sized chunks.
            self.rebuild_manifests(snapshot_id);
        } else {
            self.manifests.push(Manifest {
                id: manifest_id,
                added_snapshot: snapshot_id,
                entry_count: summary.added_files,
                partitions: manifest_partitions,
            });
        }

        Ok(CommitOutcome {
            snapshot_id,
            new_metadata_objects: METADATA_OBJECTS_PER_COMMIT,
            files_added: summary.added_files,
            files_removed: summary.removed_files,
        })
    }

    /// Expires snapshots with `timestamp_ms < older_than_ms`, always
    /// retaining the current snapshot. Returns how many metadata objects
    /// the engine should reclaim from storage.
    pub fn expire_snapshots(&mut self, older_than_ms: u64) -> ExpireResult {
        let current = self.current;
        let before = self.snapshots.len();
        self.snapshots
            .retain(|s| Some(s.id) == current || s.timestamp_ms >= older_than_ms);
        let removed = (before - self.snapshots.len()) as u64;
        ExpireResult {
            snapshots_removed: removed,
            metadata_objects_freed: removed * u64::from(METADATA_OBJECTS_PER_COMMIT),
        }
    }

    /// Snapshots that landed strictly after `base`. `None` base means the
    /// table was empty at begin time, so every snapshot is intermediate.
    fn snapshots_after(&self, base: Option<SnapshotId>) -> Result<Vec<&Snapshot>, CommitError> {
        match base {
            None => Ok(self.snapshots.iter().collect()),
            Some(id) => {
                let base_seq = self
                    .snapshot(id)
                    .map(|s| s.sequence_number)
                    .ok_or(CommitError::UnknownBaseSnapshot(id))?;
                Ok(self
                    .snapshots
                    .iter()
                    .filter(|s| s.sequence_number > base_seq)
                    .collect())
            }
        }
    }

    fn validate_conflicts(
        &self,
        txn: &Transaction,
        intermediates: &[&Snapshot],
    ) -> Result<(), CommitError> {
        if intermediates.is_empty() {
            return Ok(());
        }
        match txn.kind() {
            OpKind::Append => Ok(()),
            OpKind::OverwritePartitions => {
                let mine = self.partitions_of(txn);
                for s in intermediates {
                    if s.touches_any(&mine) {
                        let partition = s
                            .touched_partitions
                            .iter()
                            .find(|p| mine.contains(*p))
                            .cloned()
                            .unwrap_or_default();
                        return Err(CommitError::Conflict(ConflictKind::PartitionOverlap {
                            partition,
                            intervening: s.id,
                        }));
                    }
                }
                Ok(())
            }
            OpKind::RowDelta => {
                let mine = self.partitions_of(txn);
                for s in intermediates {
                    for id in txn.removed() {
                        if s.removed_file(*id) {
                            return Err(CommitError::Conflict(ConflictKind::RemovedFilesMissing {
                                file: *id,
                            }));
                        }
                    }
                    let rewriting = matches!(
                        s.operation,
                        OpKind::RewriteFiles | OpKind::OverwritePartitions
                    );
                    if rewriting && s.touches_any(&mine) {
                        let partition = s
                            .touched_partitions
                            .iter()
                            .find(|p| mine.contains(*p))
                            .cloned()
                            .unwrap_or_default();
                        return Err(CommitError::Conflict(ConflictKind::PartitionOverlap {
                            partition,
                            intervening: s.id,
                        }));
                    }
                }
                Ok(())
            }
            OpKind::RewriteFiles => match self.properties.conflict_mode {
                ConflictMode::Strict => {
                    Err(CommitError::Conflict(ConflictKind::StaleTableForRewrite {
                        intervening: intermediates[0].id,
                    }))
                }
                ConflictMode::PartitionAware => {
                    let mine = self.partitions_of(txn);
                    for s in intermediates {
                        for id in txn.removed() {
                            if s.removed_file(*id) {
                                return Err(CommitError::Conflict(
                                    ConflictKind::RemovedFilesMissing { file: *id },
                                ));
                            }
                        }
                        // Row-level deltas against partitions being
                        // rewritten reference positions in the replaced
                        // files, so they invalidate the rewrite.
                        if s.operation == OpKind::RowDelta && s.touches_any(&mine) {
                            let partition = s
                                .touched_partitions
                                .iter()
                                .find(|p| mine.contains(*p))
                                .cloned()
                                .unwrap_or_default();
                            return Err(CommitError::Conflict(ConflictKind::PartitionOverlap {
                                partition,
                                intervening: s.id,
                            }));
                        }
                    }
                    Ok(())
                }
            },
        }
    }

    /// Partitions a transaction touches, resolving removed files against
    /// the live set (files already removed by others are skipped here —
    /// the conflict checks handle them).
    fn partitions_of(&self, txn: &Transaction) -> BTreeSet<PartitionKey> {
        let mut set = txn.staged_partitions();
        for id in txn.removed() {
            if let Some(f) = self.live.get(id) {
                set.insert(f.partition.clone());
            }
        }
        set
    }

    fn rebuild_manifests(&mut self, snapshot: SnapshotId) {
        let chunk = self.properties.entries_per_manifest.max(1) as usize;
        self.manifests.clear();
        // Chunk live files in partition order so manifest partition
        // summaries stay tight (good pruning).
        let mut files: Vec<&DataFile> = self.live.values().collect();
        files.sort_by(|a, b| (&a.partition, a.file_id).cmp(&(&b.partition, b.file_id)));
        for group in files.chunks(chunk) {
            let id = ManifestId(self.next_manifest);
            self.next_manifest += 1;
            self.manifests.push(Manifest {
                id,
                added_snapshot: snapshot,
                entry_count: group.len() as u64,
                partitions: group.iter().map(|f| f.partition.clone()).collect(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Field};
    use crate::types::{PartitionValue, Transform};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new(1, "k", ColumnType::Int64, true),
            Field::new(2, "ds", ColumnType::Date, true),
        ])
        .unwrap()
    }

    fn partitioned_table(mode: ConflictMode) -> Table {
        let props = TableProperties {
            conflict_mode: mode,
            ..TableProperties::default()
        };
        Table::new(
            TableId(1),
            "t",
            "db",
            schema(),
            PartitionSpec::single(2, Transform::Month, "month"),
            props,
            0,
        )
    }

    fn pkey(i: i32) -> PartitionKey {
        PartitionKey::single(PartitionValue::Date(i))
    }

    fn add(table: &mut Table, id: u64, part: i32, size_mb: u64) -> SnapshotId {
        let mut txn = table.begin(OpKind::Append);
        txn.add_file(DataFile::data(FileId(id), pkey(part), 100, size_mb * MB));
        table.commit(txn, 0).unwrap().snapshot_id
    }

    #[test]
    fn append_builds_live_state() {
        let mut t = partitioned_table(ConflictMode::Strict);
        add(&mut t, 1, 1, 64);
        add(&mut t, 2, 1, 64);
        add(&mut t, 3, 2, 64);
        assert_eq!(t.file_count(), 3);
        assert_eq!(t.partition_keys().len(), 2);
        assert_eq!(t.files_in_partition(&pkey(1)).unwrap().len(), 2);
        assert_eq!(t.total_bytes(), 192 * MB);
        assert_eq!(t.snapshots().len(), 3);
        assert_eq!(t.manifests().len(), 3);
    }

    #[test]
    fn concurrent_appends_never_conflict() {
        let mut t = partitioned_table(ConflictMode::Strict);
        let base = t.current_snapshot_id();
        let mut a = Transaction::new(base, OpKind::Append);
        a.add_file(DataFile::data(FileId(1), pkey(1), 1, MB));
        let mut b = Transaction::new(base, OpKind::Append);
        b.add_file(DataFile::data(FileId(2), pkey(1), 1, MB));
        t.commit(a, 1).unwrap();
        t.commit(b, 2).unwrap(); // same base, same partition: still fine
        assert_eq!(t.file_count(), 2);
    }

    #[test]
    fn strict_rewrite_conflicts_with_any_concurrent_commit() {
        let mut t = partitioned_table(ConflictMode::Strict);
        add(&mut t, 1, 1, 10);
        add(&mut t, 2, 2, 10);
        // Rewrite partition 1 begun at current base…
        let mut rw = t.begin(OpKind::RewriteFiles);
        rw.remove_file(FileId(1));
        rw.add_file(DataFile::data(FileId(10), pkey(1), 100, 20 * MB));
        // …but a user append to a *different* partition lands first.
        add(&mut t, 3, 2, 10);
        let err = t.commit(rw, 5).unwrap_err();
        assert!(matches!(
            err,
            CommitError::Conflict(ConflictKind::StaleTableForRewrite { .. })
        ));
    }

    #[test]
    fn partition_aware_rewrite_tolerates_disjoint_commits() {
        let mut t = partitioned_table(ConflictMode::PartitionAware);
        add(&mut t, 1, 1, 10);
        add(&mut t, 2, 2, 10);
        let mut rw = t.begin(OpKind::RewriteFiles);
        rw.remove_file(FileId(1));
        rw.add_file(DataFile::data(FileId(10), pkey(1), 100, 20 * MB));
        add(&mut t, 3, 2, 10); // disjoint partition — no conflict
        let out = t.commit(rw, 5).unwrap();
        assert_eq!(out.files_removed, 1);
        assert!(t.file(FileId(10)).is_some());
        assert!(t.file(FileId(1)).is_none());
    }

    #[test]
    fn partition_aware_rewrite_conflicts_when_inputs_vanish() {
        let mut t = partitioned_table(ConflictMode::PartitionAware);
        add(&mut t, 1, 1, 10);
        let mut rw = t.begin(OpKind::RewriteFiles);
        rw.remove_file(FileId(1));
        rw.add_file(DataFile::data(FileId(10), pkey(1), 100, 20 * MB));
        // A concurrent CoW overwrite replaces the input file.
        let mut ow = t.begin(OpKind::OverwritePartitions);
        ow.remove_file(FileId(1));
        ow.add_file(DataFile::data(FileId(5), pkey(1), 100, 10 * MB));
        t.commit(ow, 3).unwrap();
        let err = t.commit(rw, 5).unwrap_err();
        assert!(matches!(
            err,
            CommitError::Conflict(ConflictKind::RemovedFilesMissing { .. })
        ));
    }

    #[test]
    fn row_delta_conflicts_with_rewrite_on_same_partition() {
        let mut t = partitioned_table(ConflictMode::PartitionAware);
        add(&mut t, 1, 1, 10);
        // User starts a MoR delete against partition 1.
        let mut delta = t.begin(OpKind::RowDelta);
        delta.add_file(DataFile::position_deletes(FileId(20), pkey(1), 5, MB));
        // Compaction rewrites partition 1 first.
        let mut rw = t.begin(OpKind::RewriteFiles);
        rw.remove_file(FileId(1));
        rw.add_file(DataFile::data(FileId(10), pkey(1), 100, 10 * MB));
        t.commit(rw, 2).unwrap();
        let err = t.commit(delta, 3).unwrap_err();
        assert!(err.is_retryable());
    }

    #[test]
    fn overwrite_conflicts_with_concurrent_append_same_partition() {
        let mut t = partitioned_table(ConflictMode::Strict);
        add(&mut t, 1, 1, 10);
        let mut ow = t.begin(OpKind::OverwritePartitions);
        ow.remove_file(FileId(1));
        ow.add_file(DataFile::data(FileId(5), pkey(1), 10, MB));
        add(&mut t, 2, 1, 10); // concurrent append, same partition
        let err = t.commit(ow, 4).unwrap_err();
        assert!(matches!(
            err,
            CommitError::Conflict(ConflictKind::PartitionOverlap { .. })
        ));
    }

    #[test]
    fn rewrite_consolidates_manifests() {
        let mut t = partitioned_table(ConflictMode::PartitionAware);
        for i in 0..20 {
            add(&mut t, i + 1, (i % 3) as i32, 8);
        }
        assert_eq!(t.manifests().len(), 20);
        let mut rw = t.begin(OpKind::RewriteFiles);
        for i in 0..20 {
            rw.remove_file(FileId(i + 1));
        }
        rw.add_file(DataFile::data(FileId(100), pkey(0), 100, 160 * MB));
        t.commit(rw, 10).unwrap();
        assert_eq!(t.manifests().len(), 1);
        assert_eq!(t.manifests()[0].entry_count, 1);
    }

    #[test]
    fn structural_errors() {
        let mut t = partitioned_table(ConflictMode::Strict);
        add(&mut t, 1, 1, 10);
        // Empty transaction.
        let txn = t.begin(OpKind::Append);
        assert_eq!(t.commit(txn, 0).unwrap_err(), CommitError::EmptyTransaction);
        // Unknown file removal.
        let mut txn = t.begin(OpKind::RowDelta);
        txn.remove_file(FileId(99));
        assert_eq!(
            t.commit(txn, 0).unwrap_err(),
            CommitError::UnknownFile(FileId(99))
        );
        // Duplicate add.
        let mut txn = t.begin(OpKind::Append);
        txn.add_file(DataFile::data(FileId(1), pkey(1), 1, MB));
        assert_eq!(
            t.commit(txn, 0).unwrap_err(),
            CommitError::DuplicateFile(FileId(1))
        );
    }

    #[test]
    fn expiry_keeps_current_and_reports_freed_objects() {
        let mut t = partitioned_table(ConflictMode::Strict);
        for i in 0..5 {
            let mut txn = t.begin(OpKind::Append);
            txn.add_file(DataFile::data(FileId(i + 1), pkey(1), 1, MB));
            t.commit(txn, i * 100).unwrap();
        }
        let res = t.expire_snapshots(350);
        assert_eq!(res.snapshots_removed, 4);
        assert_eq!(res.metadata_objects_freed, 12);
        assert_eq!(t.snapshots().len(), 1);
        // Committing from an expired base is an explicit error → refresh.
        let stale = Transaction::new(Some(SnapshotId(1)), OpKind::Append);
        let mut stale = stale;
        stale.add_file(DataFile::data(FileId(50), pkey(1), 1, MB));
        assert!(matches!(
            t.commit(stale, 600),
            Err(CommitError::UnknownBaseSnapshot(_))
        ));
    }

    #[test]
    fn delete_file_count_tracks_mor_debt() {
        let mut t = partitioned_table(ConflictMode::Strict);
        add(&mut t, 1, 1, 10);
        let mut delta = t.begin(OpKind::RowDelta);
        delta.add_file(DataFile::position_deletes(FileId(2), pkey(1), 5, MB));
        t.commit(delta, 1).unwrap();
        assert_eq!(t.delete_file_count(), 1);
        assert_eq!(t.file_count(), 2);
    }
}
