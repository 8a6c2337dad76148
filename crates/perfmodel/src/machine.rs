//! The virtual machine the model replays traces on.

use blaze_storage::{AccessPattern, DeviceProfile};

/// Machine configuration: compute threads plus a device array.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Compute threads available to the engine (16 in the paper; the
    /// testbed has 20 physical cores, IO threads use the remainder).
    pub compute_threads: usize,
    /// Fraction of compute threads used for scatter in the Blaze model.
    pub scatter_ratio: f64,
    /// The device array.
    pub devices: Vec<DeviceProfile>,
}

impl MachineConfig {
    /// The paper's primary setup: 16 compute threads, one Optane P4800X.
    pub fn paper_optane() -> Self {
        Self {
            compute_threads: 16,
            scatter_ratio: 0.5,
            devices: vec![DeviceProfile::optane_p4800x()],
        }
    }

    /// The paper's NAND setup (Figure 2a).
    pub fn paper_nand() -> Self {
        Self {
            compute_threads: 16,
            scatter_ratio: 0.5,
            devices: vec![DeviceProfile::nand_s3520()],
        }
    }

    /// The 8-SSD array of Figure 3.
    pub fn eight_disk_array() -> Self {
        Self {
            compute_threads: 16,
            scatter_ratio: 0.5,
            devices: vec![DeviceProfile::optane_p4800x(); 8],
        }
    }

    /// Replaces the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.compute_threads = threads.max(2);
        self
    }

    /// Replaces the scatter ratio.
    pub fn with_scatter_ratio(mut self, ratio: f64) -> Self {
        self.scatter_ratio = ratio.clamp(0.01, 0.99);
        self
    }

    /// Scatter thread count under the ratio (at least 1, leaving >= 1
    /// gather thread).
    pub fn scatter_threads(&self) -> usize {
        let s = (self.compute_threads as f64 * self.scatter_ratio).round() as usize;
        s.clamp(1, self.compute_threads - 1)
    }

    /// Gather thread count.
    pub fn gather_threads(&self) -> usize {
        self.compute_threads - self.scatter_threads()
    }

    /// Aggregate device read bandwidth (bytes/s) assuming random 4 KiB
    /// access — the red line of Figures 1, 2, and 8.
    pub fn aggregate_bandwidth(&self) -> f64 {
        self.devices.iter().map(|d| d.rand_read_bw).sum()
    }

    /// Modeled busy time of one device serving `bytes` over `requests`
    /// requests of which `sequential` continued their predecessor.
    pub fn device_io_ns(&self, device: usize, bytes: u64, requests: u64, sequential: u64) -> f64 {
        if bytes == 0 || requests == 0 {
            return 0.0;
        }
        let profile = &self.devices[device];
        let avg = bytes / requests;
        let seq = sequential.min(requests);
        let rand = requests - seq;
        seq as f64 * profile.read_service_ns(avg, AccessPattern::Sequential) as f64
            + rand as f64 * profile.read_service_ns(avg, AccessPattern::Random) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_has_sixteen_threads_and_optane() {
        let m = MachineConfig::paper_optane();
        assert_eq!(m.compute_threads, 16);
        assert_eq!(m.scatter_threads(), 8);
        assert_eq!(m.gather_threads(), 8);
        assert!(m.devices[0].is_fnd());
    }

    #[test]
    fn ratio_split_keeps_both_sides_nonzero() {
        let m = MachineConfig::paper_optane().with_scatter_ratio(0.99);
        assert!(m.gather_threads() >= 1);
        let m = MachineConfig::paper_optane().with_scatter_ratio(0.01);
        assert!(m.scatter_threads() >= 1);
    }

    #[test]
    fn io_time_scales_with_bytes_and_pattern() {
        let m = MachineConfig::paper_nand();
        let seq = m.device_io_ns(0, 1 << 20, 64, 64);
        let rand = m.device_io_ns(0, 1 << 20, 64, 0);
        assert!(rand > 2.0 * seq, "NAND random {rand} vs seq {seq}");
        assert_eq!(m.device_io_ns(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn eight_disks_aggregate() {
        let m = MachineConfig::eight_disk_array();
        assert_eq!(m.devices.len(), 8);
        assert!(m.aggregate_bandwidth() > 8.0 * 2.0e9);
    }
}
