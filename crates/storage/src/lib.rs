//! Storage substrate for the SQLCM reproduction's host engine.
//!
//! The paper's prototype lives inside Microsoft SQL Server; this crate provides the
//! equivalent storage machinery for our from-scratch host engine:
//!
//! * [`page`] — fixed-size slotted pages with a slot directory, tombstones, and
//!   in-place compaction.
//! * [`codec`] — a length-prefixed tuple codec turning `Vec<Value>` rows into page
//!   cells and back.
//! * [`disk`] — the [`disk::DiskManager`] trait with an in-memory implementation
//!   (default for tests and most benches) and a file-backed one supporting
//!   *synchronous write-through*, which the `Query_logging` baseline of Section
//!   6.2.2 uses to model "forced synchronous writes" to the reporting table.
//! * [`buffer`] — a bounded buffer pool with LRU replacement, pin counts, and
//!   hit/miss statistics; a frame's page buffer is allocated at its first
//!   fault. Monitoring history that "degrades the server's ability to cache
//!   pages" (the PULL_history drawback in Figure 3) manifests here as
//!   evictions.
//! * [`heap`] — unordered heap files of rows addressed by [`RowId`].
//! * [`btree`] — a page-based B+tree used for clustered indexes; the Figure 2/3
//!   workloads are single-row selects through this structure.

pub mod btree;
pub mod buffer;
pub mod codec;
pub mod disk;
pub mod heap;
pub mod page;

pub use btree::BTree;
pub use buffer::{BufferPool, BufferStats};
pub use codec::{decode_row, encode_row};
pub use disk::{DiskManager, FileDisk, InMemoryDisk, PageId, SharedDisk};
pub use heap::{HeapFile, RowId};
pub use page::{SlottedPage, PAGE_SIZE};
