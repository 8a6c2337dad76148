//! Storage substrate for Blaze: block devices, device simulation, RAID-0
//! striping, IO-request merging, and IO buffer pools.
//!
//! The paper evaluates Blaze on Intel Optane and NAND SSDs. This crate
//! provides the same abstractions against simulated hardware:
//!
//! * [`BlockDevice`] — positioned page reads/writes, the only interface the
//!   engine sees.
//! * [`MemDevice`] / [`FileDevice`] — functional backing stores (RAM / a
//!   plain file).
//! * [`SimDevice`] — wraps any device with a calibrated service-time model
//!   ([`DeviceProfile`]) and per-request accounting, so benches can report
//!   modeled bandwidth for the device generations of Table I.
//! * [`StripedStorage`] — page-interleaved (RAID-0) striping over N devices,
//!   Blaze's topology-agnostic partitioning (Section IV-E).
//! * [`merge_pages`] — merges at most [`MAX_MERGED_PAGES`] contiguous pages
//!   per request and never merges across gaps (Section IV-C).
//! * [`IoBackend`] — submission-queue / completion-queue IO engines
//!   ([`SyncBackend`] depth-1 blocking; [`ThreadedBackend`], the default,
//!   inline on a fast device and a deep out-of-order window on a slow one),
//!   the reproduction's stand-in for the paper's per-SSD libaio thread
//!   (Section IV-C).
//! * [`BufferPool`] — fixed set of IO buffers recycled through MPMC
//!   free/filled queues (Figure 5, steps 3–7).
//! * [`PageCache`] — sharded clock (second-chance) cache of 4 KiB frames
//!   consulted by the IO workers before requests are merged; a departure
//!   from the paper, which re-reads every frontier page (Section V-B).
//!
//! [`MAX_MERGED_PAGES`]: blaze_types::MAX_MERGED_PAGES

pub mod backend;
pub mod buffer;
pub mod cache;
pub mod device;
pub mod faulty;
pub mod file;
pub mod flight;
pub mod mem;
pub mod profile;
pub mod recorder;
pub mod request;
pub mod sim;
pub mod slow;
pub mod stats;
pub mod stripe;

pub use backend::{
    Completion, IoBackend, IoBackendKind, SyncBackend, ThreadedBackend, DEFAULT_QUEUE_DEPTH,
};
pub use buffer::{BufferPool, IoBuffer, PageBatch};
pub use cache::{CacheStats, InsertOutcome, PageCache};
pub use device::BlockDevice;
pub use faulty::FaultyDevice;
pub use file::FileDevice;
pub use flight::{FlightLease, FlightPart, FlightTable, FlightTicket, PageFrame};
pub use mem::MemDevice;
pub use profile::{AccessPattern, DeviceProfile};
pub use recorder::RecordingDevice;
pub use request::{merge_pages, IoRequest};
pub use sim::SimDevice;
pub use slow::SlowDevice;
pub use stats::{IoStats, JobIoStats, StatsRow};
pub use stripe::StripedStorage;
