//! The pacing model behind `PacedDevice`: an NVMe-class device as a fixed
//! latency per request plus a transfer at a bandwidth all requests share.
//!
//! The sandbox keeps graph files in the OS page cache, where a read costs a
//! few microseconds and IO never limits a query. Pacing puts the device
//! time back, in wall-clock, without a real device: each read *owes* its
//! calling thread `latency + bytes / bandwidth`. Requests issued from
//! different threads overlap their latencies (queue depth buys bandwidth,
//! as on a real SSD) but share one transfer channel.
//!
//! A thread sleeps only once it owes more than [`SLEEP_QUANTUM_NS`]:
//! this box's sleep granularity is about 60 µs (a `sleep` per request
//! measured 161 µs for an 80 µs target), so sleeping per request would let
//! the timer, not the model, set the device speed.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::host::now_ns;

/// Debt below which a thread keeps going instead of sleeping.
pub const SLEEP_QUANTUM_NS: u64 = 1_000_000;

/// The most a thread is credited for waking late from a pacing sleep.
const MAX_OVERSLEEP_CREDIT_NS: u64 = 5_000_000;

thread_local! {
    /// Virtual time (ns since the process epoch) at which the calling
    /// thread's last paced request completed.
    static THREAD_CLOCK: Cell<u64> = const { Cell::new(0) };
    /// Whether the thread's last paced request ended in a sleep. Its next
    /// request is then issued from when the sleep should have ended, not
    /// from when it did, so a busy thread averages the modelled rate; a
    /// thread that was merely idle restarts from real time, with no credit.
    static SLEPT: Cell<bool> = const { Cell::new(false) };
}

/// Latency and bandwidth of the modelled device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaceModel {
    pub latency_ns: u64,
    pub bytes_per_s: f64,
}

impl PaceModel {
    /// 60 µs per request and 3 GB/s: a datacentre NVMe SSD's 4 KiB random
    /// read latency and sequential bandwidth.
    pub const NVME: PaceModel = PaceModel {
        latency_ns: 60_000,
        bytes_per_s: 3e9,
    };

    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.bytes_per_s * 1e9) as u64
    }

    /// Modelled throughput in MB/s of back-to-back `bytes`-byte requests
    /// from one thread.
    #[cfg(test)]
    pub fn depth1_mb_s(&self, bytes: u64) -> f64 {
        bytes as f64 / 1e6 / ((self.latency_ns + self.transfer_ns(bytes)) as f64 / 1e9)
    }
}

/// Per-device pacing state: the model plus the shared transfer channel. A
/// request completes at the later of its thread's clock + latency +
/// transfer and the channel having moved its bytes.
#[derive(Debug)]
pub struct Pacer {
    model: PaceModel,
    /// Time at which the transfer channel has moved everything claimed.
    channel_free_ns: AtomicU64,
}

impl Pacer {
    pub fn new(model: PaceModel) -> Self {
        Self {
            model,
            channel_free_ns: AtomicU64::new(0),
        }
    }

    /// Charges the calling thread for one request of `bytes` bytes and
    /// sleeps if the thread now owes more than the quantum.
    pub fn charge(&self, bytes: u64) {
        let now = now_ns();
        let earliest = if SLEPT.with(|s| s.replace(false)) {
            now.saturating_sub(MAX_OVERSLEEP_CREDIT_NS)
        } else {
            now
        };
        let issue = THREAD_CLOCK.with(Cell::get).max(earliest);
        let transfer = self.model.transfer_ns(bytes);
        // The channel is a token bucket on real time: it moves `bytes` no
        // earlier than now and no earlier than the transfers already
        // claimed. (Anchoring it to the caller's virtual clock instead would
        // queue every other thread behind one thread's unslept debt.)
        // SeqCst: the cursor is the one value all readers order by.
        let mut free = self.channel_free_ns.load(Ordering::SeqCst);
        let channel_done = loop {
            let done = free.max(now) + transfer;
            match self.channel_free_ns.compare_exchange_weak(
                free,
                done,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break done,
                Err(seen) => free = seen,
            }
        };
        let done = (issue + self.model.latency_ns + transfer).max(channel_done);
        THREAD_CLOCK.with(|c| c.set(done));
        let debt = done.saturating_sub(now);
        if debt > SLEEP_QUANTUM_NS {
            std::thread::sleep(Duration::from_nanos(debt));
            SLEPT.with(|s| s.set(true));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_arithmetic() {
        let m = PaceModel::NVME;
        assert_eq!(m.transfer_ns(3_000), 1_000);
        // 16 KiB: 60 µs + 5.46 µs per request.
        assert!((m.depth1_mb_s(16_384) - 250.3).abs() < 0.5);
    }
}
