#![warn(missing_docs)]

//! # godiva-core — the GODIVA in-memory buffer database
//!
//! A from-scratch Rust implementation of the GODIVA framework from
//! *"GODIVA: Lightweight Data Management for Scientific Visualization
//! Applications"* (ICDE 2004): lightweight, database-like management of
//! in-memory scientific datasets plus user-controllable prefetching and
//! caching, implemented as a portable user-level library.
//!
//! ## The model
//!
//! - A **field** is a named, typed, contiguous buffer (mesh coordinates,
//!   a stress component, a block id…). A **record** is a set of fields;
//!   **field types** and **record types** are developer-defined templates
//!   with designated *key* fields ([`schema`]).
//! - The database ([`Gbo`]) stores records and answers exactly one kind
//!   of query: *key lookup* — `get_field_buffer("fluid", "pressure",
//!   &[key("block_0003"), key("0.000075")])` returns a handle to the
//!   pressure buffer of that block at that time-step. No value
//!   predicates; GODIVA manages buffer locations, not contents.
//! - A **processing unit** is a named group of records read together by a
//!   developer-supplied [`ReadFunction`] ([`unit`]). Units are the
//!   granularity of **prefetching** (a FIFO queue served by the I/O
//!   executor's reader workers — one by default, matching the paper's
//!   single background I/O thread; see `GboConfig::io_threads`) and
//!   **caching** (LRU eviction of *finished* units under a
//!   developer-set memory budget).
//!
//! ## Quick taste
//!
//! ```
//! use godiva_core::{DeclaredSize, FieldKind, Gbo, GboConfig, Key};
//!
//! let db = Gbo::with_config(GboConfig { mem_limit: 16 << 20, ..Default::default() });
//!
//! // Schema (the paper's Table 1, abridged).
//! db.define_field("block id", FieldKind::Str, DeclaredSize::Known(11)).unwrap();
//! db.define_field("pressure", FieldKind::F64, DeclaredSize::Unknown).unwrap();
//! db.define_record("fluid", 1).unwrap();
//! db.insert_field("fluid", "block id", true).unwrap();
//! db.insert_field("fluid", "pressure", false).unwrap();
//! db.commit_record_type("fluid").unwrap();
//!
//! // A unit whose read function creates one record.
//! db.add_unit("file1", |s: &godiva_core::UnitSession| {
//!     let rec = s.new_record("fluid")?;
//!     rec.set_str("block id", "block_0001")?;
//!     rec.set_f64("pressure", vec![101_325.0; 4])?;
//!     rec.commit()
//! }).unwrap();
//!
//! // Processing code: wait, query, compute, release.
//! db.wait_unit("file1").unwrap();
//! let p = db.get_field_buffer("fluid", "pressure", &[Key::from("block_0001")]).unwrap();
//! assert_eq!(p.f64s().unwrap()[0], 101_325.0);
//! db.finish_unit("file1").unwrap();
//! ```
//!
//! ## Departures from the C++ library (all safety-motivated)
//!
//! - Buffers are `Arc`-shared and immutable: eviction drops the
//!   database's reference instead of freeing memory out from under the
//!   application, and the bytes behind a handle never change.
//! - Key fields of a committed record cannot be replaced, so the index
//!   cannot be desynchronized from the buffers (the paper documents that
//!   hazard and asks developers to avoid it).
//! - Deadlocks (§3.3) are *returned* as [`GodivaError::Deadlock`] from
//!   `wait_unit` rather than aborting the process.
//! - Failures in read functions are contained: panics are caught and
//!   reported as failed units (the I/O thread survives), transient I/O
//!   errors are retried per a configurable [`RetryPolicy`] with
//!   exponential backoff, waits can be bounded (`wait_unit_timeout`),
//!   and a failed unit can be re-queued in place (`reset_unit`). The
//!   2004 library offered only "limited integrity guarantees" here.

pub mod buffer;
mod crash;
pub mod db;
pub mod error;
mod exec;
mod frame;
mod metrics;
pub mod schema;
pub mod spill;
pub mod stats;
mod store;
mod telemetry;
pub mod unit;
mod units;
pub mod wal;

pub use buffer::{FieldData, FieldRef, Key};
pub use db::{
    Gbo, GboConfig, RecordHandle, RecordId, Records, RetryPolicy, UnitGuard, UnitSession,
};
pub use error::{GodivaError, Result};
pub use schema::{DeclaredSize, FieldKind, FieldSlot, FieldTypeDef, RecordTypeDef, Schema};
pub use spill::SpillConfig;
pub use stats::GboStats;
pub use unit::{EvictionPolicy, ReadFn, ReadFunction, UnitState};
pub use wal::{Durability, RestoreInfo, SnapshotInfo};
