//! Schemas, constraints, and in-memory table storage.
//!
//! This crate holds the *semantic information the paper exploits* (§2.1):
//!
//! * **Key constraints** — `PRIMARY KEY` (columns implicitly `NOT NULL`)
//!   and `UNIQUE` candidate keys where key columns may be `NULL` but SQL2
//!   treats `NULL` as a *special value*: an instance may contain at most
//!   one tuple per `=̇`-equivalence class of key values, so e.g. only one
//!   row of `PARTS` may have `OEM-PNO = NULL`.
//! * **Check constraints** — search conditions every row must satisfy,
//!   evaluated *true-interpreted* (`⌈·⌉`): a row violates a `CHECK` only
//!   when the condition is definitely false.
//!
//! [`Database`] couples a [`Catalog`] with row storage and enforces all of
//! the above on every insert, so any instance reachable through this crate
//! is a *valid instance* in the paper's sense — the precondition for every
//! theorem.
//!
//! [`sample`] builds the paper's Figure 1 supplier database, used by the
//! examples, tests and benchmarks throughout the workspace.

pub mod catalog;
pub mod database;
pub mod sample;
pub mod snapshot;
pub mod storage;
pub mod table;
pub mod validate;

pub use catalog::Catalog;
pub use database::{Database, Row};
pub use snapshot::SnapshotStore;
pub use storage::{Positions, TableRows, CHUNK_ROWS};
pub use table::{ColumnDef, ForeignKey, IndexDef, Key, TableConstraint, TableSchema};
