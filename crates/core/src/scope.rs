//! Candidate generation strategies (the observe phase's first half).
//!
//! §6 evaluates three: no compaction (no candidates), **table-scope**
//! ("mimics the current OpenHouse implementation") and a **hybrid**
//! strategy that "chooses partition-scope compaction if the table is
//! partitioned and otherwise defaults to table-scope".

use std::borrow::Cow;

use crate::candidate::{Candidate, CandidateId, ScopeKind};
use crate::connector::LakeConnector;

/// How candidates are scoped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeStrategy {
    /// One candidate per table.
    Table,
    /// One candidate per partition (partitioned tables only).
    Partition,
    /// Partition scope for partitioned tables, table scope otherwise.
    Hybrid,
    /// One candidate per table, restricted to data written in the given
    /// recent window (§4.1 snapshot scope).
    Snapshot {
        /// Freshness window in ms.
        window_ms: u64,
    },
}

impl ScopeStrategy {
    /// Short label for reports. Borrowed for the static strategies —
    /// cycle reports no longer allocate a fresh `String` per cycle; only
    /// the parameterized snapshot scope formats one.
    pub fn label(&self) -> Cow<'static, str> {
        match self {
            ScopeStrategy::Table => Cow::Borrowed("table"),
            ScopeStrategy::Partition => Cow::Borrowed("partition"),
            ScopeStrategy::Hybrid => Cow::Borrowed("hybrid"),
            ScopeStrategy::Snapshot { window_ms } => Cow::Owned(format!("snapshot[{window_ms}ms]")),
        }
    }
}

/// Generates candidates from the connector according to the strategy, via
/// the chatty per-table pull protocol (`list_tables()` + one stats call
/// per table).
///
/// This is the historical observe path, kept as the executable reference
/// [`FleetObserver::observe`](crate::observe::FleetObserver::observe)
/// is parity-tested against; cycle code should prefer
/// [`FleetObservation::to_candidates`](crate::observe::FleetObservation::to_candidates),
/// which additionally enables reuse across cycles.
///
/// Output order is deterministic: tables in connector order, partitions in
/// connector-reported order (NFR2).
pub fn generate_candidates(
    connector: &dyn LakeConnector,
    strategy: ScopeStrategy,
) -> Vec<Candidate> {
    let tables = connector.list_tables();
    // Table scope yields at most one candidate per table; partitioned
    // scopes grow past this, but it is the right floor either way.
    let mut out = Vec::with_capacity(tables.len());
    for table in tables {
        match strategy {
            // Single-candidate scopes consume the descriptor (moving the
            // name strings); partition scopes clone per partition.
            ScopeStrategy::Table => {
                if let Some(stats) = connector.table_stats(table.table_uid) {
                    out.push(Candidate::from_table(
                        CandidateId::table(table.table_uid),
                        table,
                        stats,
                    ));
                }
            }
            ScopeStrategy::Partition => {
                for (label, stats) in connector.partition_stats(table.table_uid) {
                    out.push(Candidate::new(
                        CandidateId::partition(table.table_uid, label),
                        &table,
                        stats,
                    ));
                }
            }
            ScopeStrategy::Hybrid => {
                if table.partitioned {
                    for (label, stats) in connector.partition_stats(table.table_uid) {
                        out.push(Candidate::new(
                            CandidateId::partition(table.table_uid, label),
                            &table,
                            stats,
                        ));
                    }
                } else if let Some(stats) = connector.table_stats(table.table_uid) {
                    out.push(Candidate::from_table(
                        CandidateId::table(table.table_uid),
                        table,
                        stats,
                    ));
                }
            }
            ScopeStrategy::Snapshot { window_ms } => {
                if let Some(stats) = connector.snapshot_stats(table.table_uid, window_ms) {
                    let id = CandidateId {
                        table_uid: table.table_uid,
                        scope: ScopeKind::Snapshot,
                        partition: None,
                    };
                    out.push(Candidate::from_table(id, table, stats));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::TableRef;
    use crate::stats::CandidateStats;

    struct FakeLake;

    impl LakeConnector for FakeLake {
        fn list_tables(&self) -> Vec<TableRef> {
            vec![
                TableRef {
                    table_uid: 1,
                    database: "db".into(),
                    name: "partitioned".into(),
                    partitioned: true,
                    compaction_enabled: true,
                    is_intermediate: false,
                },
                TableRef {
                    table_uid: 2,
                    database: "db".into(),
                    name: "plain".into(),
                    partitioned: false,
                    compaction_enabled: true,
                    is_intermediate: false,
                },
            ]
        }
        fn table_stats(&self, _uid: u64) -> Option<CandidateStats> {
            Some(CandidateStats::default())
        }
        fn partition_stats(&self, uid: u64) -> Vec<(String, CandidateStats)> {
            if uid == 1 {
                vec![
                    ("(p1)".to_string(), CandidateStats::default()),
                    ("(p2)".to_string(), CandidateStats::default()),
                ]
            } else {
                Vec::new()
            }
        }
        fn snapshot_stats(&self, uid: u64, _window: u64) -> Option<CandidateStats> {
            (uid == 1).then(CandidateStats::default)
        }
    }

    #[test]
    fn table_scope_yields_one_per_table() {
        let c = generate_candidates(&FakeLake, ScopeStrategy::Table);
        assert_eq!(c.len(), 2);
        assert!(c.iter().all(|c| c.id.scope == ScopeKind::Table));
    }

    #[test]
    fn partition_scope_skips_unpartitioned() {
        let c = generate_candidates(&FakeLake, ScopeStrategy::Partition);
        assert_eq!(c.len(), 2);
        assert!(c.iter().all(|c| c.id.scope == ScopeKind::Partition));
        assert!(c.iter().all(|c| c.id.table_uid == 1));
    }

    #[test]
    fn hybrid_mixes_scopes_as_in_section_6() {
        let c = generate_candidates(&FakeLake, ScopeStrategy::Hybrid);
        assert_eq!(c.len(), 3);
        assert_eq!(
            c.iter()
                .filter(|c| c.id.scope == ScopeKind::Partition)
                .count(),
            2
        );
        assert_eq!(
            c.iter()
                .filter(|c| c.id.scope == ScopeKind::Table && c.id.table_uid == 2)
                .count(),
            1
        );
    }

    #[test]
    fn snapshot_scope_uses_connector_support() {
        let c = generate_candidates(&FakeLake, ScopeStrategy::Snapshot { window_ms: 1000 });
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].id.scope, ScopeKind::Snapshot);
    }

    #[test]
    fn labels() {
        assert_eq!(ScopeStrategy::Hybrid.label(), "hybrid");
        assert_eq!(
            ScopeStrategy::Snapshot { window_ms: 5 }.label(),
            "snapshot[5ms]"
        );
        // Static strategies borrow; only the parameterized one allocates.
        assert!(matches!(ScopeStrategy::Table.label(), Cow::Borrowed(_)));
        assert!(matches!(
            ScopeStrategy::Snapshot { window_ms: 5 }.label(),
            Cow::Owned(_)
        ));
    }
}
