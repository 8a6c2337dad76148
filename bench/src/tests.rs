//! Tests that need the system under test: the paced device against its
//! model and the inner file.

use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Instant;

use blaze_storage::BlockDevice;

use crate::paced::PaceModel;
use crate::sut::{self, GraphKind, PacedDevice};

/// A scratch directory under the system's, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("blazebench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const REQUEST: usize = 16_384;

/// MB/s of `requests` 16 KiB reads per thread from `threads` threads that
/// start together.
fn paced_mb_s(device: &PacedDevice, threads: usize, requests: usize) -> f64 {
    let pages = device.num_pages();
    let start = Barrier::new(threads + 1);
    let mut t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let start = &start;
            s.spawn(move || {
                let mut buf = vec![0u8; REQUEST];
                start.wait();
                for i in 0..requests {
                    let page = ((t * requests + i) * 4) as u64 % (pages - 4);
                    device.read_pages(page, &mut buf).unwrap();
                }
            });
        }
        start.wait();
        t0 = Instant::now();
    });
    (threads * requests * REQUEST) as f64 / 1e6 / t0.elapsed().as_secs_f64()
}

#[test]
fn paced_device_follows_its_model_and_returns_the_files_bytes() {
    let dir = TempDir::new("paced");
    let g = sut::generate(GraphKind::Uniform, 14, 3);
    let files = sut::save_graph(&g, &dir.0, "u.gr").unwrap();
    let model = PaceModel::NVME;
    let paced = PacedDevice::open(&files.adj[0], model).unwrap();

    // Bytes are the inner device's.
    let plain = std::fs::read(&files.adj[0]).unwrap();
    let mut buf = vec![0u8; REQUEST];
    for page in [0u64, 7, paced.num_pages() - 4] {
        paced.read_pages(page, &mut buf).unwrap();
        let at = page as usize * 4096;
        assert_eq!(buf, plain[at..at + REQUEST], "page {page}");
    }

    // Depth 1 runs at the modelled rate although a sleep here overshoots
    // by about the length of one request.
    let expected = model.depth1_mb_s(REQUEST as u64);
    let depth1 = paced_mb_s(&paced, 1, 1500);
    assert!(
        (depth1 / expected - 1.0).abs() < 0.10,
        "depth 1: {depth1:.1} MB/s against a model of {expected:.1} MB/s"
    );
    // Eight readers overlap their latencies and share the 3 GB/s channel.
    let depth8 = paced_mb_s(&paced, 8, 1500);
    assert!(
        depth8 >= 3.0 * depth1,
        "8 readers: {depth8:.1} MB/s, depth 1: {depth1:.1} MB/s"
    );
    assert!(
        depth8 <= model.bytes_per_s / 1e6 * 1.05,
        "channel is shared"
    );
}
