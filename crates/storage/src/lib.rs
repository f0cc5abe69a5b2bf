//! # sbdms-storage — the storage layer of the Service-Based DBMS
//!
//! Paper Fig. 2, bottom layer: "Storage Services work at byte level and
//! handle the physical specification of non-volatile devices. This
//! includes services for updating and finding data."
//!
//! The crate provides a real (if compact) storage engine:
//!
//! * [`page`]: slotted pages with insert/get/update/delete, compaction and
//!   fragmentation accounting,
//! * [`backend`]: the storage-device seam — positional-I/O files with an
//!   explicit `sync` durability barrier,
//! * [`sim`]: a deterministic in-memory backend with seeded fault
//!   injection (power loss, torn writes, bit flips, I/O errors) for the
//!   crash torture suite,
//! * [`disk`]: a file-backed disk manager with a persisted free list,
//! * [`buffer`]: a buffer pool with [`replacement`] by Clock and the §4
//!   monitoring statistics,
//! * [`wal`]: a checksummed write-ahead log with crash-tail recovery,
//! * [`services`]: the kernel `Service` facades publishing all of the
//!   above on the bus, plus [`services::StorageEngine`] bundling the raw
//!   engine objects for co-located (monolithic) use.

#![warn(missing_docs)]

pub mod backend;
pub mod buffer;
pub mod disk;
pub mod page;
pub mod replacement;
pub mod services;
pub mod sim;
pub mod wal;

pub use backend::{BackendFile, FileBackend, RealFile, StorageBackend};
pub use buffer::{BufferPool, BufferStats, ShardStats, WriteHook};
pub use disk::{DiskManager, IoHook, IoKind};
pub use page::{Page, PageId, SlotId, PAGE_SIZE};
pub use services::{BufferService, DiskService, LogService, StorageEngine};
pub use sim::{SimBackend, SimConfig, SimStats};
pub use wal::{Lsn, Wal, WalRecord};
