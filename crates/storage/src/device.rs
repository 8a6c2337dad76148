//! The [`BlockDevice`] trait: the only storage interface the engine sees.

use blaze_sync::Arc;
use blaze_types::{BlazeError, Result, PAGE_SIZE};

use crate::stats::IoStats;

/// A page-granular block device.
///
/// Implementations must be safe to call concurrently from multiple threads
/// (Blaze issues one IO thread per device, but buffers may be written back
/// by any thread and the striped array fans requests out in parallel).
pub trait BlockDevice: Send + Sync {
    /// Reads `buf.len()` bytes starting at byte `offset`.
    ///
    /// `buf.len()` must be a multiple of [`PAGE_SIZE`] and the range must lie
    /// within the device.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Writes `buf` starting at byte `offset`, extending the device if the
    /// implementation supports growth (files and memory devices do).
    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()>;

    /// Current device length in bytes.
    fn len(&self) -> u64;

    /// Whether the device holds no data.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-device IO counters. Functional devices keep byte/request counts;
    /// [`SimDevice`](crate::SimDevice) additionally accumulates modeled
    /// service time.
    fn stats(&self) -> &IoStats;

    /// Reads `count` pages starting at `first_page` into `buf`.
    ///
    /// A `buf` that is not a whole number of pages is an [`BlazeError::Io`]
    /// in every build profile: a misaligned read would silently return a
    /// torn page, so release builds must fail loudly too.
    fn read_pages(&self, first_page: u64, buf: &mut [u8]) -> Result<()> {
        if !buf.len().is_multiple_of(PAGE_SIZE) {
            return Err(BlazeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "page read of {} bytes is not a multiple of the {PAGE_SIZE}-byte page",
                    buf.len()
                ),
            )));
        }
        self.read_at(first_page * PAGE_SIZE as u64, buf)
    }

    /// Reads pages like [`read_pages`](Self::read_pages), with a hint of how
    /// many requests were in flight on this device when the read was issued
    /// (including this one).
    ///
    /// Functional devices ignore the hint — bytes are bytes. Modeled devices
    /// ([`SimDevice`](crate::SimDevice)) use it to overlap the fixed
    /// per-request latency across the in-flight window, which is what turns
    /// queue depth into bandwidth on real SSDs.
    fn read_pages_at_depth(&self, first_page: u64, buf: &mut [u8], depth: u32) -> Result<()> {
        let _ = depth;
        self.read_pages(first_page, buf)
    }

    /// Number of whole pages on the device.
    fn num_pages(&self) -> u64 {
        self.len() / PAGE_SIZE as u64
    }
}

/// A shared device is a device: lets a wrapper ([`SlowDevice`],
/// [`FaultyDevice`], …) sit on a device the caller keeps a handle to.
///
/// [`SlowDevice`]: crate::SlowDevice
/// [`FaultyDevice`]: crate::FaultyDevice
impl<D: BlockDevice + ?Sized> BlockDevice for Arc<D> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        (**self).read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        (**self).write_at(offset, buf)
    }

    fn len(&self) -> u64 {
        (**self).len()
    }

    fn stats(&self) -> &IoStats {
        (**self).stats()
    }

    fn read_pages(&self, first_page: u64, buf: &mut [u8]) -> Result<()> {
        (**self).read_pages(first_page, buf)
    }

    fn read_pages_at_depth(&self, first_page: u64, buf: &mut [u8], depth: u32) -> Result<()> {
        (**self).read_pages_at_depth(first_page, buf, depth)
    }
}
