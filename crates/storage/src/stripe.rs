//! Page-interleaved (RAID-0) striping over multiple block devices.
//!
//! Blaze rejects topology-aware 2-D partitioning (Graphene) because selective
//! scheduling then loads disks unevenly. Instead the adjacency file is
//! striped across all SSDs in 4 KiB pages: global page `p` lives on device
//! `p % n` at local page `p / n`, so *any* subset of graph pages spreads
//! almost perfectly evenly over the array (Section IV-E).

use blaze_sync::Arc;

use blaze_types::{BlazeError, DeviceId, LocalPageId, PageId, Result, PAGE_SIZE};

use crate::device::BlockDevice;

/// A RAID-0 array of block devices with a 4 KiB stripe unit.
pub struct StripedStorage {
    devices: Vec<Arc<dyn BlockDevice>>,
}

impl StripedStorage {
    /// Builds an array over `devices`. At least one device is required.
    pub fn new(devices: Vec<Arc<dyn BlockDevice>>) -> Result<Self> {
        if devices.is_empty() {
            return Err(BlazeError::Config(
                "striped storage needs >= 1 device".into(),
            ));
        }
        Ok(Self { devices })
    }

    /// Convenience constructor: `n` fresh in-memory devices.
    pub fn in_memory(n: usize) -> Result<Self> {
        let devices = (0..n)
            .map(|_| Arc::new(crate::mem::MemDevice::new()) as Arc<dyn BlockDevice>)
            .collect();
        Self::new(devices)
    }

    /// Number of devices in the array.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// The device at index `d`.
    pub fn device(&self, d: DeviceId) -> &Arc<dyn BlockDevice> {
        &self.devices[d]
    }

    /// All devices.
    pub fn devices(&self) -> &[Arc<dyn BlockDevice>] {
        &self.devices
    }

    /// Maps a global page to `(device, local_page)`.
    pub fn locate(&self, page: PageId) -> (DeviceId, u64) {
        let n = self.devices.len() as u64;
        ((page % n) as DeviceId, page / n)
    }

    /// Inverse of [`locate`](Self::locate).
    pub fn global_page(&self, device: DeviceId, local_page: u64) -> PageId {
        local_page * self.devices.len() as u64 + device as u64
    }

    /// Writes one page of data at global page `page`.
    pub fn write_page(&self, page: PageId, data: &[u8]) -> Result<()> {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        let (dev, local) = self.locate(page);
        self.devices[dev].write_at(local * PAGE_SIZE as u64, data)
    }

    /// Reads one page of data at global page `page`.
    pub fn read_page(&self, page: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        let (dev, local) = self.locate(page);
        self.devices[dev].read_at(local * PAGE_SIZE as u64, buf)
    }

    /// Reads `buf.len() / PAGE_SIZE` *locally contiguous* pages from one
    /// device, starting at local page `local_first` ([`LocalPageId`] space —
    /// not global page ids). This is the request shape the engine's
    /// per-device IO threads issue after merging.
    ///
    /// The run is bounds-checked against the device before any read: a run
    /// extending past the device's last whole page returns
    /// [`BlazeError::Io`] instead of panicking or handing back a partially
    /// valid buffer.
    ///
    /// [`LocalPageId`]: blaze_types::LocalPageId
    pub fn read_local_run(
        &self,
        device: DeviceId,
        local_first: LocalPageId,
        buf: &mut [u8],
    ) -> Result<()> {
        debug_assert_eq!(buf.len() % PAGE_SIZE, 0);
        self.check_local_run(device, local_first, buf.len())?;
        self.devices[device].read_at(local_first * PAGE_SIZE as u64, buf)
    }

    /// [`read_local_run`](Self::read_local_run) with an in-flight-depth hint
    /// for the device's service-time model — the request shape the async IO
    /// backends issue. Same bounds checking; additionally rejects a `buf`
    /// that is not a whole number of pages with a real error (this path is
    /// fed by untrusted queue traffic, not a debug assertion away from the
    /// caller).
    pub fn read_local_run_at_depth(
        &self,
        device: DeviceId,
        local_first: LocalPageId,
        buf: &mut [u8],
        depth: u32,
    ) -> Result<()> {
        self.check_local_run(device, local_first, buf.len())?;
        self.devices[device].read_pages_at_depth(local_first, buf, depth)
    }

    /// Bounds-checks a run of `buf_len / PAGE_SIZE` pages at `local_first`
    /// against the device's current length.
    fn check_local_run(
        &self,
        device: DeviceId,
        local_first: LocalPageId,
        buf_len: usize,
    ) -> Result<()> {
        let dev = &self.devices[device];
        let pages = (buf_len / PAGE_SIZE) as u64;
        let avail = dev.num_pages();
        match local_first.checked_add(pages) {
            Some(end) if end <= avail => Ok(()),
            _ => Err(BlazeError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "local run [{local_first}, {local_first}+{pages}) exceeds the \
                     {avail} pages of device {device}"
                ),
            ))),
        }
    }

    /// Splits a sorted list of global pages into per-device sorted lists of
    /// *local* page ids ([`LocalPageId`] space) — the per-SSD page frontiers
    /// of Figure 5. These lists are what feeds request merging; merged
    /// requests address the owning device directly via
    /// [`read_local_run`](Self::read_local_run).
    pub fn partition_pages(&self, pages: &[PageId]) -> Vec<Vec<LocalPageId>> {
        let mut per_device = vec![Vec::new(); self.devices.len()];
        for &p in pages {
            let (dev, local) = self.locate(p);
            per_device[dev].push(local);
        }
        per_device
    }

    /// Total number of pages across the array, assuming pages were written
    /// densely from page 0 (the layout the graph writer produces).
    pub fn num_pages(&self) -> u64 {
        self.devices.iter().map(|d| d.num_pages()).sum()
    }

    /// Per-device read bytes, for IO-skew measurements (Figure 3).
    pub fn read_bytes_per_device(&self) -> Vec<u64> {
        self.devices
            .iter()
            .map(|d| d.stats().read_bytes())
            .collect()
    }
}

impl std::fmt::Debug for StripedStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StripedStorage")
            .field("num_devices", &self.devices.len())
            .field("num_pages", &self.num_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; PAGE_SIZE]
    }

    #[test]
    fn locate_round_trips() {
        let s = StripedStorage::in_memory(3).unwrap();
        for p in 0..30u64 {
            let (d, l) = s.locate(p);
            assert_eq!(s.global_page(d, l), p);
        }
    }

    #[test]
    fn pages_interleave_round_robin() {
        let s = StripedStorage::in_memory(4).unwrap();
        assert_eq!(s.locate(0), (0, 0));
        assert_eq!(s.locate(1), (1, 0));
        assert_eq!(s.locate(5), (1, 1));
        assert_eq!(s.locate(7), (3, 1));
    }

    #[test]
    fn write_read_through_stripe() {
        let s = StripedStorage::in_memory(2).unwrap();
        for p in 0..8u64 {
            s.write_page(p, &page_of(p as u8)).unwrap();
        }
        let mut buf = vec![0u8; PAGE_SIZE];
        for p in 0..8u64 {
            s.read_page(p, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == p as u8), "page {p}");
        }
        assert_eq!(s.num_pages(), 8);
    }

    #[test]
    fn local_run_reads_strided_global_pages() {
        let s = StripedStorage::in_memory(2).unwrap();
        for p in 0..8u64 {
            s.write_page(p, &page_of(p as u8)).unwrap();
        }
        // Device 1 holds global pages 1,3,5,7 at local pages 0..4.
        let mut buf = vec![0u8; 3 * PAGE_SIZE];
        s.read_local_run(1, 1, &mut buf).unwrap();
        assert!(buf[..PAGE_SIZE].iter().all(|&b| b == 3));
        assert!(buf[PAGE_SIZE..2 * PAGE_SIZE].iter().all(|&b| b == 5));
        assert!(buf[2 * PAGE_SIZE..].iter().all(|&b| b == 7));
    }

    #[test]
    fn partition_preserves_order_and_balance() {
        let s = StripedStorage::in_memory(4).unwrap();
        let pages: Vec<u64> = (0..100).collect();
        let parts = s.partition_pages(&pages);
        assert_eq!(parts.len(), 4);
        for (d, locals) in parts.iter().enumerate() {
            assert_eq!(locals.len(), 25);
            assert!(locals.windows(2).all(|w| w[0] < w[1]));
            for (i, &l) in locals.iter().enumerate() {
                assert_eq!(s.global_page(d, l), (i * 4 + d) as u64);
            }
        }
    }

    #[test]
    fn arbitrary_page_subsets_stay_balanced() {
        // The core claim of Section IV-E: any subset of pages is nearly
        // evenly spread (counts differ by at most 1 for a contiguous range).
        let s = StripedStorage::in_memory(8).unwrap();
        let pages: Vec<u64> = (13..13 + 1001).collect();
        let parts = s.partition_pages(&pages);
        let max = parts.iter().map(Vec::len).max().unwrap();
        let min = parts.iter().map(Vec::len).min().unwrap();
        assert!(max - min <= 1, "max {max} min {min}");
    }

    #[test]
    fn empty_array_is_rejected() {
        assert!(StripedStorage::new(Vec::new()).is_err());
    }

    #[test]
    fn out_of_range_local_run_errors_on_mem_device() {
        let s = StripedStorage::in_memory(2).unwrap();
        for p in 0..8u64 {
            s.write_page(p, &page_of(p as u8)).unwrap();
        }
        // Each device holds 4 local pages. A run ending exactly at the edge
        // is fine; anything past it must be an Io error, not zeros.
        let mut buf = vec![0u8; 2 * PAGE_SIZE];
        s.read_local_run(0, 2, &mut buf).unwrap();
        assert!(matches!(
            s.read_local_run(0, 3, &mut buf),
            Err(BlazeError::Io(_))
        ));
        assert!(matches!(
            s.read_local_run(1, 4, &mut buf),
            Err(BlazeError::Io(_))
        ));
        // Offset arithmetic that would overflow u64 is caught, not wrapped.
        assert!(matches!(
            s.read_local_run(0, u64::MAX - 1, &mut buf),
            Err(BlazeError::Io(_))
        ));
    }

    #[test]
    fn out_of_range_local_run_errors_on_file_device() {
        let dir = tempfile::tempdir().unwrap();
        let devices: Vec<Arc<dyn BlockDevice>> = (0..2)
            .map(|i| {
                Arc::new(crate::FileDevice::create(dir.path().join(format!("d{i}"))).unwrap())
                    as Arc<dyn BlockDevice>
            })
            .collect();
        let s = StripedStorage::new(devices).unwrap();
        for p in 0..4u64 {
            s.write_page(p, &page_of(p as u8)).unwrap();
        }
        let mut buf = vec![0u8; PAGE_SIZE];
        s.read_local_run(0, 1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 2));
        let mut big = vec![0u8; 2 * PAGE_SIZE];
        assert!(matches!(
            s.read_local_run(0, 1, &mut big),
            Err(BlazeError::Io(_))
        ));
        assert!(matches!(
            s.read_local_run(1, 2, &mut buf),
            Err(BlazeError::Io(_))
        ));
    }

    #[test]
    fn depth_aware_run_matches_plain_run() {
        let s = StripedStorage::in_memory(2).unwrap();
        for p in 0..8u64 {
            s.write_page(p, &page_of(p as u8)).unwrap();
        }
        let mut plain = vec![0u8; 2 * PAGE_SIZE];
        let mut deep = vec![0u8; 2 * PAGE_SIZE];
        s.read_local_run(1, 1, &mut plain).unwrap();
        s.read_local_run_at_depth(1, 1, &mut deep, 16).unwrap();
        assert_eq!(plain, deep);
        // Same bounds checking as the plain path.
        assert!(matches!(
            s.read_local_run_at_depth(1, 3, &mut deep, 16),
            Err(BlazeError::Io(_))
        ));
        // Misaligned buffers are a real error on this path.
        let mut ragged = vec![0u8; PAGE_SIZE + 7];
        assert!(matches!(
            s.read_local_run_at_depth(0, 0, &mut ragged, 1),
            Err(BlazeError::Io(_))
        ));
    }

    #[test]
    fn strided_globals_round_trip_through_partition_merge_and_read() {
        // The satellite-bug regression: IoRequest.first_page is
        // device-local. Global pages strided across 3 devices must come
        // back with the right contents when fed through
        // partition_pages -> merge_pages_with_window -> read_local_run.
        // Mixing up global and local spaces would read the wrong device
        // offsets for every device but 0.
        let s = StripedStorage::in_memory(3).unwrap();
        for p in 0..30u64 {
            s.write_page(p, &page_of(p as u8)).unwrap();
        }
        // A frontier with gaps: globals 1,2,4,5,7,10,13,14,22,25,28.
        let frontier: Vec<u64> = vec![1, 2, 4, 5, 7, 10, 13, 14, 22, 25, 28];
        let parts = s.partition_pages(&frontier);
        let mut seen = Vec::new();
        for (dev, locals) in parts.iter().enumerate() {
            for req in crate::request::merge_pages_with_window(locals, 4) {
                let n = req.num_pages as usize;
                let mut buf = vec![0u8; n * PAGE_SIZE];
                s.read_local_run(dev, req.first_page, &mut buf).unwrap();
                for k in 0..n {
                    let global = s.global_page(dev, req.first_page + k as u64);
                    let chunk = &buf[k * PAGE_SIZE..(k + 1) * PAGE_SIZE];
                    assert!(
                        chunk.iter().all(|&b| b == global as u8),
                        "device {dev} local {} returned wrong page",
                        req.first_page + k as u64
                    );
                    seen.push(global);
                }
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, frontier, "every frontier page read exactly once");
    }
}
