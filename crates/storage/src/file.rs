//! File-backed block device using positioned reads.

use blaze_sync::atomic::{AtomicU64, Ordering};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;

use blaze_types::{BlazeError, Result};

use crate::device::BlockDevice;
use crate::stats::IoStats;

/// A block device backed by a regular file.
///
/// Uses `pread`/`pwrite` (via [`FileExt`]) so concurrent requests need no
/// seek lock. This is the functional storage the out-of-core engine runs on;
/// wrap it in a [`SimDevice`](crate::SimDevice) to attach a performance
/// model.
#[derive(Debug)]
pub struct FileDevice {
    file: File,
    len: AtomicU64,
    stats: IoStats,
}

impl FileDevice {
    /// Opens (or creates) the file at `path` for read/write access.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(Self {
            file,
            len: AtomicU64::new(len),
            stats: IoStats::new(),
        })
    }

    /// Opens an existing file read-only.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = OpenOptions::new().read(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(Self {
            file,
            len: AtomicU64::new(len),
            stats: IoStats::new(),
        })
    }
}

impl BlockDevice for FileDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let len = self.len.load(Ordering::Acquire);
        if offset + buf.len() as u64 > len {
            return Err(BlazeError::OutOfRange {
                offset,
                len: buf.len() as u64,
                device_len: len,
            });
        }
        self.file.read_exact_at(buf, offset)?;
        self.stats.record_read(buf.len() as u64, false);
        Ok(())
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        self.file.write_all_at(buf, offset)?;
        let end = offset + buf.len() as u64;
        self.len.fetch_max(end, Ordering::AcqRel);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
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
    fn create_write_read_round_trip() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("dev.bin");
        let dev = FileDevice::create(&path).unwrap();
        let page: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 253) as u8).collect();
        dev.write_at(0, &page).unwrap();
        dev.write_at(PAGE_SIZE as u64, &page).unwrap();
        let mut out = vec![0u8; PAGE_SIZE];
        dev.read_pages(1, &mut out).unwrap();
        assert_eq!(out, page);
        assert_eq!(dev.num_pages(), 2);
    }

    #[test]
    fn reopen_sees_persisted_data() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("dev.bin");
        {
            let dev = FileDevice::create(&path).unwrap();
            dev.write_at(0, &[42u8; PAGE_SIZE]).unwrap();
        }
        let dev = FileDevice::open(&path).unwrap();
        assert_eq!(dev.len(), PAGE_SIZE as u64);
        let mut out = vec![0u8; PAGE_SIZE];
        dev.read_at(0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 42));
    }

    #[test]
    fn read_past_end_errors() {
        let dir = tempfile::tempdir().unwrap();
        let dev = FileDevice::create(dir.path().join("d")).unwrap();
        dev.write_at(0, &[0u8; 16]).unwrap();
        let mut out = vec![0u8; 32];
        assert!(matches!(
            dev.read_at(0, &mut out),
            Err(BlazeError::OutOfRange { .. })
        ));
    }

    #[test]
    fn concurrent_positioned_reads() {
        let dir = tempfile::tempdir().unwrap();
        let dev = blaze_sync::Arc::new(FileDevice::create(dir.path().join("d")).unwrap());
        for p in 0..4u64 {
            dev.write_at(p * PAGE_SIZE as u64, &vec![p as u8 + 1; PAGE_SIZE])
                .unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let dev = dev.clone();
            handles.push(std::thread::spawn(move || {
                let mut buf = vec![0u8; PAGE_SIZE];
                for i in 0..32 {
                    let p = (t + i) % 4;
                    dev.read_pages(p, &mut buf).unwrap();
                    assert!(buf.iter().all(|&b| b == p as u8 + 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
