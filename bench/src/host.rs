//! What the benchmark reads from the host: one clock shared by every span,
//! CPU time, peak memory, steal time and a memcpy reference bandwidth.

use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The process-wide epoch every span and pacing deadline is measured from.
/// A worker aligns its epoch with the parent's (see [`align_epoch`]) so the
/// spans of both processes share one time axis in the trace file.
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Wall-clock time of the epoch, for handing to a worker process.
pub fn epoch_unix_ns() -> u64 {
    let since_epoch = Duration::from_nanos(now_ns());
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    now.saturating_sub(since_epoch).as_nanos() as u64
}

/// Sets this process's epoch to the parent's, given as wall-clock time.
/// Must run before the first [`now_ns`]; later calls have no effect.
pub fn align_epoch(parent_epoch_unix_ns: u64) {
    let now_unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_nanos() as u64;
    let age = Duration::from_nanos(now_unix.saturating_sub(parent_epoch_unix_ns));
    let _ = EPOCH.set(Instant::now().checked_sub(age).unwrap_or_else(Instant::now));
}

/// Linux reports process times in ticks of 1/100 s to user space (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process, from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / TICKS_PER_S
}

/// CPU nanoseconds the calling thread has run, from the scheduler's own
/// accounting (finer than the 10 ms ticks of `stat`). 0 where unavailable.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Starts a new peak: sets `VmHWM` back to the current resident set size.
/// Where the kernel refuses (`false`), the peak simply keeps running.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) of this process in MB, since the start
/// of the process or the latest [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies summed over all CPUs since boot.
pub fn cpu_jiffies() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user time.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0.0), total)
}

/// Share of CPU time stolen by the hypervisor since `before`.
pub fn steal_frac_since(before: (f64, f64)) -> f64 {
    let (steal, total) = cpu_jiffies();
    let dt = total - before.1;
    if dt > 0.0 {
        (steal - before.0) / dt
    } else {
        0.0
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Single-thread memcpy bandwidth in MB/s over `bytes`-byte buffers: the
/// ceiling every per-layer throughput is read against.
pub fn memcpy_mb_s(bytes: usize, reps: usize) -> Vec<f64> {
    let src = vec![0x5au8; bytes];
    let mut dst = vec![0u8; bytes];
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            bytes as f64 / 1e6 / t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// A description of the machine for `BENCH_<rev>.json` (its memcpy
/// bandwidth is among the probes of the same file).
pub fn descriptor() -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let mem_mb = std::fs::read_to_string("/proc/meminfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("MemTotal:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0);
    vec![
        ("cpu".into(), cpu),
        ("kernel".into(), kernel),
        ("nproc".into(), nproc().to_string()),
        ("mem_mb".into(), format!("{mem_mb:.0}")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let t0 = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() >= t0);
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.5, "a running process has resident pages");
        let (steal, total) = cpu_jiffies();
        assert!(total > 0.0 && steal <= total);
        assert!(nproc() >= 1);
    }

    #[test]
    fn a_reset_starts_a_new_peak() {
        let big = vec![1u8; 256 << 20];
        std::hint::black_box(&big);
        let with_big = peak_rss_mb();
        assert!(with_big > 256.0);
        drop(big);
        if reset_peak_rss() {
            assert!(peak_rss_mb() < with_big - 128.0);
        }
    }

    #[test]
    fn clock_is_monotonic_and_epoch_is_in_the_past() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        let unix_now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .as_nanos() as u64;
        assert!(epoch_unix_ns() <= unix_now);
    }
}
