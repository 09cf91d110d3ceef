//! `uniq-server`: a multi-client daemon over the uniqueness engine.
//!
//! PRs 1–7 built a single-process library; this crate makes it a
//! *served* system, three layers deep:
//!
//! 1. [`wire`] — a small length-prefixed binary protocol (`Query`,
//!    `Explain`, `Exec`, `Analyze`, `Stats`, `Subscribe` /
//!    `Unsubscribe`, streamed row batches, pushed `ViewDelta`s)
//!    over std TCP, hand-rolled because the repo builds fully offline.
//! 2. MVCC snapshots — provided by
//!    [`uniq_catalog::snapshot::SnapshotStore`] and
//!    [`uniq_engine::SharedEngine`]: writers publish copy-on-write
//!    `Arc<Database>` snapshots, readers pin the head at query start
//!    and hold no lock while the paper's uniqueness-optimized plans
//!    execute.
//! 3. [`server`] / [`client`] — the `uniqd` daemon (thread per
//!    connection, admission semaphore, bounded push queues) and the
//!    `uniq-cli` client. Every connection's session shares one
//!    process-wide sharded plan cache, so a plan compiled — and
//!    *proved*, via the U-semiring checker — on one connection serves
//!    them all.

pub mod client;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, DeltaEvent, QueryReply, SubscribeReply};
pub use server::{Server, ServerConfig};
pub use wire::{Frame, WireError, DEFAULT_BATCH_ROWS, MAX_FRAME};
