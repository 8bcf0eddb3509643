//! Deterministic observe-side fault injection for the simulated lake.
//!
//! The lakesim substrate is an in-memory simulation: its reads cannot
//! actually fail. To exercise the pipeline's degradation machinery
//! ([`autocomp::ObserveDegradation`]) against the *real* connector,
//! [`LakesimConnector`](crate::LakesimConnector) accepts an optional
//! [`ObserveFaultScript`]: a scripted schedule of [`ObserveFault`]s
//! consumed by its `try_*` implementations before the real read runs.
//!
//! Scripts are strictly deterministic: each read kind (listing,
//! changelog, per-table stats) drains its own FIFO queue — one fault per
//! `try_*` call — so a test's fault schedule replays bit-identically
//! run to run. An empty queue means the read succeeds, which is how a
//! schedule "heals": once the scripted faults drain, the connector is
//! indistinguishable from an unfaulted one, the precondition for the
//! reconvergence contract pinned by `tests/connector_faults.rs`.
//!
//! The vanish-vs-fault split is preserved by construction: injection
//! happens *before* the real read, so a dropped table still surfaces as
//! `Ok(None)` (the state signal, with its drop-reason wording
//! untouched) and an injected fault always surfaces as `Err` — faults
//! never masquerade as drops.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use autocomp::ObserveFault;

/// One scripted outcome of a `try_changes_since` call: a read fault, or
/// a retention overflow (`Ok(None)` — the mid-stream "cursor fell out of
/// retention" answer, which is *not* retried and forces one full
/// observe).
#[derive(Debug)]
pub enum ChangelogEvent {
    /// The changelog read fails with the given fault.
    Fault(ObserveFault),
    /// The changelog read succeeds but answers `None`: the cursor fell
    /// out of the bounded changelog's retention.
    Overflow,
}

#[derive(Debug, Default)]
struct ScriptState {
    listing: VecDeque<ObserveFault>,
    changelog: VecDeque<ChangelogEvent>,
    stats: BTreeMap<u64, VecDeque<ObserveFault>>,
}

/// A scripted, internally synchronized fault schedule shared between a
/// test and the connector(s) it drives (clone the [`Arc`]).
///
/// Queue semantics per read kind: `fault_*` pushes append, each `try_*`
/// call on an attached connector pops at most one fault from the
/// matching queue. Stats queues are keyed by table uid and consulted by
/// `try_table_stats`, `try_partition_stats` *and* `try_snapshot_stats`
/// (one shared queue per table — a faulted table faults whichever stats
/// shape the scope asks for).
#[derive(Debug, Default)]
pub struct ObserveFaultScript {
    state: Mutex<ScriptState>,
}

impl ObserveFaultScript {
    /// A fresh, empty (never-faulting) script behind an [`Arc`].
    pub fn new() -> Arc<Self> {
        Arc::new(ObserveFaultScript::default())
    }

    /// Schedules a fault for the next unconsumed `try_list_tables` call.
    pub fn fault_listing(&self, fault: ObserveFault) {
        self.state
            .lock()
            .expect("fault script")
            .listing
            .push_back(fault);
    }

    /// Schedules a fault for the next unconsumed `try_changes_since`
    /// call.
    pub fn fault_changelog(&self, fault: ObserveFault) {
        self.state
            .lock()
            .expect("fault script")
            .changelog
            .push_back(ChangelogEvent::Fault(fault));
    }

    /// Schedules a retention overflow for the next unconsumed
    /// `try_changes_since` call: the read succeeds but answers `None`
    /// ("cursor fell out of retention") without the real changelog
    /// having to be flooded past its cap.
    pub fn overflow_changelog(&self) {
        self.state
            .lock()
            .expect("fault script")
            .changelog
            .push_back(ChangelogEvent::Overflow);
    }

    /// Schedules a fault for `table_uid`'s next unconsumed stats read
    /// (table, partition, or snapshot shape).
    pub fn fault_stats(&self, table_uid: u64, fault: ObserveFault) {
        self.state
            .lock()
            .expect("fault script")
            .stats
            .entry(table_uid)
            .or_default()
            .push_back(fault);
    }

    /// Drops every unconsumed fault — the "infrastructure healed" event
    /// for schedules whose reads were never re-issued (a listing fault
    /// armed while the registry epoch let the observer reuse its prior
    /// listing, a stats fault on a table that never turned dirty).
    pub fn clear(&self) {
        let mut state = self.state.lock().expect("fault script");
        state.listing.clear();
        state.changelog.clear();
        state.stats.clear();
    }

    /// Whether every scheduled fault has been consumed (the schedule has
    /// healed).
    pub fn drained(&self) -> bool {
        let state = self.state.lock().expect("fault script");
        state.listing.is_empty()
            && state.changelog.is_empty()
            && state.stats.values().all(|q| q.is_empty())
    }

    /// Consumes the next scheduled listing fault, if any. Public so
    /// connectors outside this crate (e.g. bench harness lakes) can
    /// implement their own `try_list_tables` over a script with the same
    /// one-fault-per-read discipline.
    pub fn pop_listing(&self) -> Option<ObserveFault> {
        self.state.lock().expect("fault script").listing.pop_front()
    }

    /// Consumes the next scheduled changelog event, if any (see
    /// [`pop_listing`](Self::pop_listing) for why this is public).
    pub fn pop_changelog(&self) -> Option<ChangelogEvent> {
        self.state
            .lock()
            .expect("fault script")
            .changelog
            .pop_front()
    }

    /// Consumes `table_uid`'s next scheduled stats fault, if any (see
    /// [`pop_listing`](Self::pop_listing) for why this is public).
    pub fn pop_stats(&self, table_uid: u64) -> Option<ObserveFault> {
        self.state
            .lock()
            .expect("fault script")
            .stats
            .get_mut(&table_uid)
            .and_then(|q| q.pop_front())
    }
}
