//! In-memory block device.

use blaze_sync::RwLock;
use blaze_types::{BlazeError, Result};

use crate::device::BlockDevice;
use crate::stats::IoStats;

/// A block device backed by a growable in-memory byte vector.
///
/// Used in tests and benches where page contents matter but persistence does
/// not. Reads take the lock shared, so concurrent readers do not serialize.
#[derive(Debug, Default)]
pub struct MemDevice {
    data: RwLock<Vec<u8>>,
    stats: IoStats,
}

impl MemDevice {
    /// Creates an empty device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a device pre-sized to `len` zero bytes.
    pub fn with_len(len: usize) -> Self {
        Self {
            data: RwLock::new(vec![0; len]),
            stats: IoStats::new(),
        }
    }
}

impl BlockDevice for MemDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let data = self.data.read();
        let end = offset + buf.len() as u64;
        if end > data.len() as u64 {
            return Err(BlazeError::OutOfRange {
                offset,
                len: buf.len() as u64,
                device_len: data.len() as u64,
            });
        }
        buf.copy_from_slice(&data[offset as usize..end as usize]);
        self.stats.record_read(buf.len() as u64, false);
        Ok(())
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        let mut data = self.data.write();
        let end = (offset + buf.len() as u64) as usize;
        if end > data.len() {
            data.resize(end, 0);
        }
        data[offset as usize..end].copy_from_slice(buf);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.data.read().len() as u64
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_types::PAGE_SIZE;

    #[test]
    fn write_then_read_round_trips() {
        let dev = MemDevice::new();
        let page: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        dev.write_at(0, &page).unwrap();
        dev.write_at(PAGE_SIZE as u64, &page).unwrap();
        let mut out = vec![0u8; PAGE_SIZE];
        dev.read_at(PAGE_SIZE as u64, &mut out).unwrap();
        assert_eq!(out, page);
        assert_eq!(dev.len(), 2 * PAGE_SIZE as u64);
        assert_eq!(dev.num_pages(), 2);
    }

    #[test]
    fn sparse_write_zero_fills_gap() {
        let dev = MemDevice::new();
        dev.write_at(100, &[1, 2, 3]).unwrap();
        let mut out = vec![9u8; 103];
        dev.read_at(0, &mut out).unwrap();
        assert!(out[..100].iter().all(|&b| b == 0));
        assert_eq!(&out[100..], &[1, 2, 3]);
    }

    #[test]
    fn read_past_end_errors() {
        let dev = MemDevice::with_len(PAGE_SIZE);
        let mut out = vec![0u8; PAGE_SIZE];
        let err = dev.read_at(1, &mut out).unwrap_err();
        assert!(matches!(err, BlazeError::OutOfRange { .. }));
    }

    #[test]
    fn stats_track_ops() {
        let dev = MemDevice::with_len(4 * PAGE_SIZE);
        let mut buf = vec![0u8; PAGE_SIZE];
        dev.read_pages(0, &mut buf).unwrap();
        dev.read_pages(3, &mut buf).unwrap();
        assert_eq!(dev.stats().read_ops(), 2);
        assert_eq!(dev.stats().read_bytes(), 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn concurrent_reads_see_consistent_data() {
        let dev = blaze_sync::Arc::new(MemDevice::with_len(8 * PAGE_SIZE));
        for p in 0..8u64 {
            dev.write_at(p * PAGE_SIZE as u64, &vec![p as u8; PAGE_SIZE])
                .unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..4 {
            let dev = dev.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..64u64 {
                    let p = (t + i) % 8;
                    let mut buf = vec![0u8; PAGE_SIZE];
                    dev.read_pages(p, &mut buf).unwrap();
                    assert!(buf.iter().all(|&b| b == p as u8));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
