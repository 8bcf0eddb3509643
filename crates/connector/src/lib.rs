//! # autocomp-lakesim
//!
//! Connector binding the platform-agnostic [`autocomp`] pipeline to the
//! lakesim substrate (storage + LST + catalog + engine) — the Fig. 5
//! integration: AutoComp as "a standalone component that supports both
//! push and pull operations" against the control plane.
//!
//! The observe side is [`LakesimConnector`], the
//! [`autocomp::LakeConnector`] over `Rc<RefCell<SimEnv>>` (the
//! environment the executor, bridges and hooks share): it lists catalog
//! tables and converts LST/catalog/storage state into the standardized
//! [`autocomp::CandidateStats`] layout — quota signal (§7) memoized once
//! per database per batch, database names interned, stats production in
//! the private read-only `stats` module — and surfaces the engine's
//! commit changelog as a change cursor, so a retained
//! [`autocomp::FleetObserver`]'s pass re-fetches only the tables written
//! since the last cycle (§5's optimize-after-write mode without
//! full-fleet observe cost). Incremental caveat: reused entries keep the
//! prior cycle's quota signal and write-frequency values for quiet
//! tables (bounded staleness, see `autocomp::observe`'s staleness
//! contract); interleave cold observes when exact fleetwide quota
//! pressure matters. The simulated lake cannot fail a read, so the
//! connector's fallible `try_*` reads are the trait's never-faulting
//! defaults.
//!
//! The act side:
//!
//! * [`LakesimExecutor`] implements [`autocomp::CompactionExecutor`]: it
//!   plans bin-pack rewrites at the candidate's scope and submits them to
//!   the engine's compaction cluster. Executed rewrites land in the
//!   engine changelog, so incremental observers automatically re-fetch
//!   compacted tables next cycle. As a `TrackedExecutor` it also polls
//!   the engine's maintenance log, so a tracked `AutoComp::cycle` settles
//!   finished jobs and feeds their outcomes to the estimators (§3.3's
//!   act→observe loop).
//! * [`hooks`] evaluates optimize-after-write hooks against just-written
//!   tables (§5 push mode) and can feed `MarkDirty` decisions straight
//!   into a [`autocomp::FleetObserver`].
//!
//! Between the two, [`CommitEventBridge`] ([`events`]) tails the
//! engine's changelog into commit events for a continuous runtime.
//!
//! [`LakesimConnector`] shares the [`SimEnv`] through an `Rc<RefCell<_>>`:
//! the pipeline's observe phase reads while the act phase mutates,
//! strictly sequentially (single-threaded simulation, NFR2).

#![warn(missing_docs)]

pub mod events;
pub mod executor;
pub mod hooks;
pub mod observe;
mod stats;

use std::cell::RefCell;
use std::rc::Rc;

use lakesim_engine::SimEnv;

pub use events::CommitEventBridge;
pub use executor::LakesimExecutor;
pub use hooks::{evaluate_hook, mark_database_dirty, mark_dirty_from_actions};
pub use observe::{LakesimConnector, ObserveOptions};

/// Fraction of the target size below which a file counts as rewrite input,
/// for the executor's bin-packing and the planned-reduction estimate
/// alike (Iceberg default).
pub(crate) const SMALL_FILE_FRACTION: f64 = 0.75;

/// Shared handle to the simulation environment.
pub type SharedEnv = Rc<RefCell<SimEnv>>;

/// Wraps an environment for sharing between connector and executor.
pub fn share(env: SimEnv) -> SharedEnv {
    Rc::new(RefCell::new(env))
}

/// Temporarily shares an exclusively borrowed environment so connector +
/// executor pairs can run against it, then returns ownership.
///
/// This is the glue for drivers that own `&mut SimEnv` (e.g. the workload
/// stream runner's tick callback) and want to run an AutoComp cycle inside
/// the callback. The closure must drop every `SharedEnv` clone it creates
/// before returning.
///
/// # Panics
/// Panics if the closure leaks a clone of the shared handle.
pub fn with_shared_env<R>(env: &mut SimEnv, f: impl FnOnce(&SharedEnv) -> R) -> R {
    let owned = std::mem::replace(env, SimEnv::new(lakesim_engine::EnvConfig::default()));
    let shared = share(owned);
    let result = f(&shared);
    let owned = Rc::try_unwrap(shared)
        .unwrap_or_else(|_| panic!("with_shared_env closure leaked a SharedEnv clone"))
        .into_inner();
    *env = owned;
    result
}
