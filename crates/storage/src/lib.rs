//! # lakesim-storage
//!
//! A deterministic, in-process simulation of an HDFS-like distributed file
//! system, built as the storage substrate for the AutoComp reproduction.
//!
//! The AutoComp paper (SIGMOD 2025) motivates automatic compaction with the
//! operational pressure that *small files* put on the storage layer:
//!
//! * the NameNode tracks every filesystem **object** (files, directories and
//!   blocks) and can only manage a bounded number of them (§2 of the paper),
//! * elevated **RPC traffic** (`open()`, `getBlockLocations()`) degrades read
//!   latency and eventually causes read timeouts and thundering-herd retries
//!   (§7, Fig. 11b),
//! * tenants are subject to **namespace quotas** counted in objects, which
//!   small files exhaust quickly (§7).
//!
//! This crate models exactly those mechanisms and nothing more: there is no
//! actual data, only metadata with byte sizes. All behaviour is a pure
//! function of the call sequence — no wall-clock time, no global RNG — which
//! is what the paper's NFR2 (explainability / determinism) demands of the
//! surrounding system.
//!
//! ## Example
//!
//! ```
//! use lakesim_storage::{FsConfig, SimFileSystem, FileKind, MB};
//!
//! let mut fs = SimFileSystem::new(FsConfig::default());
//! fs.create_namespace("db_sales", Some(10_000)).unwrap();
//! let id = fs.create_file("db_sales", FileKind::Data, 4 * MB, 0).unwrap();
//! let (meta, _rpc) = fs.open_file(id, 0).unwrap();
//! assert_eq!(meta.size_bytes, 4 * MB);
//! assert!(fs.quota_usage("db_sales").unwrap().used > 0);
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod file;
pub mod fs;
pub mod histogram;
pub mod metrics;
pub mod namenode;
pub mod namespace;
pub mod snapshot;
pub mod units;

pub use codec::{
    fnv1a64, frame_checksum64, open_frame, seal_frame, CodecError, Decoder, Encoder, Frame,
};
pub use error::StorageError;
pub use file::{FileId, FileKind, FileMeta};
pub use fs::{FsConfig, SimFileSystem};
pub use histogram::SizeHistogram;
pub use metrics::StorageMetrics;
pub use namenode::{NameNode, RpcCounters, RpcKind, RpcTicket};
pub use namespace::QuotaUsage;
pub use snapshot::{
    DirSnapshotMedium, Generation, Journal, MemSnapshotMedium, SnapshotMedium, SnapshotStore,
};
pub use units::{GB, KB, MB, TB};

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
