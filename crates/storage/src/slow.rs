//! Latency injection: a device wrapper whose reads take real time.
//!
//! The functional devices answer in a microsecond, which the adaptive IO
//! backend rightly serves inline. Tests and benches that need the deep
//! window wrap a device in this one, so the backend sees what it would see
//! on an SSD: reads that block for tens of microseconds or more.

use std::time::Duration;

use blaze_sync::atomic::{AtomicU64, Ordering};

use blaze_types::Result;

use crate::device::BlockDevice;
use crate::stats::IoStats;

/// Wraps a device and sleeps for a fixed delay before each read, either
/// for every read or only for the first few (a cold file that warms up).
#[derive(Debug)]
pub struct SlowDevice<D> {
    inner: D,
    delay: Duration,
    /// Reads still to be delayed (`u64::MAX`: more than any run makes).
    slow_reads_left: AtomicU64,
}

impl<D: BlockDevice> SlowDevice<D> {
    /// Delays every read by `delay`.
    pub fn new(inner: D, delay: Duration) -> Self {
        Self::slow_for(inner, delay, u64::MAX)
    }

    /// Delays the first `reads` reads by `delay`; later reads are as fast
    /// as the wrapped device.
    pub fn slow_for(inner: D, delay: Duration, reads: u64) -> Self {
        Self {
            inner,
            delay,
            slow_reads_left: AtomicU64::new(reads),
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    fn wait(&self) {
        // sync-audit: Relaxed — latency-injection bookkeeping; each read
        // takes one slot, order irrelevant.
        let slot =
            self.slow_reads_left
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                    left.checked_sub(1)
                });
        if slot.is_ok() {
            std::thread::sleep(self.delay);
        }
    }
}

impl<D: BlockDevice> BlockDevice for SlowDevice<D> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.wait();
        self.inner.read_at(offset, buf)
    }

    fn read_pages_at_depth(&self, first_page: u64, buf: &mut [u8], depth: u32) -> Result<()> {
        self.wait();
        self.inner.read_pages_at_depth(first_page, buf, depth)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        self.inner.write_at(offset, buf)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::mem::MemDevice;
    use blaze_types::PAGE_SIZE;
    use std::time::Instant;

    #[test]
    fn delays_the_first_reads_only() {
        let delay = Duration::from_millis(2);
        let dev = SlowDevice::slow_for(MemDevice::with_len(4 * PAGE_SIZE), delay, 2);
        let mut buf = vec![0u8; PAGE_SIZE];
        let t0 = Instant::now();
        dev.read_pages(0, &mut buf).unwrap();
        dev.read_pages_at_depth(1, &mut buf, 4).unwrap();
        assert!(t0.elapsed() >= 2 * delay, "two delayed reads");
        assert_eq!(dev.slow_reads_left.load(Ordering::Relaxed), 0);
        dev.read_pages(2, &mut buf).unwrap();
        let always = SlowDevice::new(MemDevice::with_len(PAGE_SIZE), delay);
        always.read_pages(0, &mut buf).unwrap();
        assert_eq!(always.slow_reads_left.load(Ordering::Relaxed), u64::MAX - 1);
    }
}
