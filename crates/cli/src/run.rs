//! What every query shares around its run: building the engine from the
//! command line, the exit codes, and the summary.

use blaze_sync::Arc;
use std::path::{Path, PathBuf};

use blaze_binning::BinningConfig;
use blaze_core::{BlazeEngine, EngineOptions};
use blaze_graph::DiskGraph;
use blaze_storage::{BlockDevice, DeviceProfile, FileDevice, SimDevice, StripedStorage};
use blaze_types::{BlazeError, Result, LATENCY_BUCKET_UPPER_NS};

use crate::flags::CliArgs;

/// Prints `command: <error>` and ends the process: exit code 2 when the
/// command line asked for something the engine refuses (a configuration
/// error), 1 for everything met while running (IO, format, engine).
pub fn exit_with(command: &str, err: &BlazeError) -> ! {
    eprintln!("{command}: {err}");
    std::process::exit(match err {
        BlazeError::Config(_) => 2,
        _ => 1,
    })
}

/// Opens the stripe files into a device array, optionally wrapped in the
/// simulated-device model.
fn open_storage(adj: &[PathBuf], profile: &Option<DeviceProfile>) -> Result<Arc<StripedStorage>> {
    let devices: Vec<Arc<dyn BlockDevice>> = adj
        .iter()
        .map(|p| -> Result<Arc<dyn BlockDevice>> {
            let file = FileDevice::open(p)?;
            Ok(match profile {
                Some(prof) => Arc::new(SimDevice::new(file, prof.clone())),
                None => Arc::new(file),
            })
        })
        .collect::<Result<_>>()?;
    Ok(Arc::new(StripedStorage::new(devices)?))
}

/// Resolves the binning/cache/worker flags into engine options.
/// `storage_bytes` sizes the bin space when no explicit one was given; a
/// bin count not given is derived from the bin space.
fn engine_options(args: &CliArgs, storage_bytes: u64) -> Result<EngineOptions> {
    let mut options = EngineOptions::default()
        .with_compute_workers(args.compute_workers.max(2), args.binning_ratio)
        .with_cache_bytes(args.cache_bytes);
    // A simulated device prices a read made inline by its sequential cursor
    // and a read made in a deep window by its depth, and which of the two a
    // file gets would depend on how fast the host returned it: without
    // `-qd`, a modeled run is the published depth-1 stream, so its
    // `modeled device time` is a function of the input alone.
    let modeled = args.device.is_some();
    if let Some(depth) = args.queue_depth.or(modeled.then_some(1)) {
        options = options.with_queue_depth(depth);
    }
    if args.jobs > 1 && !args.no_share {
        // Concurrent identical queries scan the same pages; coalesce their
        // misses so N jobs cost ~1 job of device IO. One IO lane per job
        // lets every job's pump make independent progress.
        options = options.with_scan_sharing(args.jobs);
    }
    let derived = match args.bin_space_bytes {
        0 => BinningConfig::for_graph(storage_bytes),
        space => BinningConfig::for_space(space),
    };
    Ok(options.with_binning(match args.bin_count {
        Some(bins) => derived.with_bin_count(bins)?,
        None => derived,
    }))
}

/// Builds an engine over one graph direction.
pub fn open_engine(args: &CliArgs, index: &Path, adj: &[PathBuf]) -> Result<BlazeEngine> {
    let storage = open_storage(adj, &args.device)?;
    let graph = Arc::new(DiskGraph::open(index, storage)?);
    let options = engine_options(args, graph.storage_bytes())?;
    BlazeEngine::new(graph, options)
}

/// The bucket of the service-time histogram that holds the `quantile`-th
/// request, as the bound it lies under (`<64 us`; the last bucket is open:
/// `>=16 ms`). `-` without a sample.
fn latency_bucket_label(buckets: &[u64], quantile: f64) -> String {
    let total: u64 = buckets.iter().sum();
    let rank = (total as f64 * quantile).ceil().max(1.0) as u64;
    let mut seen = 0;
    let Some(index) = buckets.iter().position(|&count| {
        seen += count;
        seen >= rank
    }) else {
        return "-".to_string();
    };
    let bound = |ns: u64| match ns {
        1_000_000.. => format!("{} ms", ns / 1_000_000),
        _ => format!("{} us", ns / 1_000),
    };
    match LATENCY_BUCKET_UPPER_NS.get(index) {
        Some(&upper) => format!("<{}", bound(upper)),
        // The open bucket starts where the one before it ends.
        None => format!(
            ">={}",
            bound(LATENCY_BUCKET_UPPER_NS[LATENCY_BUCKET_UPPER_NS.len() - 1])
        ),
    }
}

/// Prints the post-run summary every query emits.
pub fn print_run_summary(query: &str, engine: &BlazeEngine, wall: std::time::Duration) {
    let stats = engine.stats();
    let graph = engine.graph();
    println!("== {query} done ==");
    println!(
        "graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );
    println!(
        "iterations: {}, edges processed: {}, bin records: {}",
        stats.iterations, stats.edges_processed, stats.records_produced
    );
    let binning = engine.binning();
    println!(
        "bins: {} × 2 buffers of {} bytes ({} bytes of bin space)",
        binning.bin_count,
        binning.bin_space_bytes / binning.bin_count / 2,
        binning.bin_space_bytes
    );
    println!(
        "io: {} bytes in {} requests",
        stats.io_bytes, stats.io_requests
    );
    if stats.io_requests > 0 {
        println!(
            "io queue: depth cap {}, {} max / {:.2} mean in flight, service time p50 {} p99 {}",
            engine.options().queue_depth,
            stats.io_max_in_flight,
            stats.io_mean_in_flight(),
            latency_bucket_label(&stats.io_latency_buckets, 0.50),
            latency_bucket_label(&stats.io_latency_buckets, 0.99),
        );
    }
    if let Some(cache) = engine.page_cache() {
        println!(
            "page cache: {} MiB budget, {} hits, {} misses, {} evictions",
            cache.capacity_bytes() >> 20,
            stats.cache_hit_pages,
            stats.cache_miss_pages,
            stats.cache_evictions
        );
        if cache.hot_pages() > 0 {
            println!(
                "hot region: {} pages, {} hot hits, {} hot admits",
                cache.hot_pages(),
                stats.cache_hot_hit_pages,
                stats.cache_hot_admits
            );
        }
    }
    if engine.options().io_lanes > 1 {
        println!(
            "shared: {} pages ({} bytes) served from other jobs' reads, {} flights led",
            stats.shared_hit_pages,
            stats.shared_bytes(),
            stats.flights_led
        );
    }
    if stats.scatter_ns > 0 || stats.gather_ns > 0 {
        // Per-stage compute profile: worker-summed busy time, so totals can
        // exceed wall time when several workers overlap.
        println!(
            "compute: scatter {:.3} s, gather {:.3} s, io wait {:.3} s, \
             bin stall {:.3} s ({:.3} s applying bins), gather idle {:.3} s",
            stats.scatter_ns as f64 / 1e9,
            stats.gather_ns as f64 / 1e9,
            stats.io_wait_ns as f64 / 1e9,
            stats.bin_stall_ns as f64 / 1e9,
            stats.stall_gather_ns as f64 / 1e9,
            stats.gather_idle_ns as f64 / 1e9
        );
    }
    let busy_ns: u64 = graph
        .storage()
        .devices()
        .iter()
        .map(|d| d.stats().busy_ns())
        .sum();
    if busy_ns > 0 {
        println!(
            "modeled device time: {:.3} s ({:.2} GB/s average)",
            busy_ns as f64 / 1e9,
            stats.io_bytes as f64 / busy_ns as f64
        );
    }
    println!("wall time: {:.3} s", wall.as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_graph::disk::save_files;
    use blaze_graph::gen::{rmat, RmatConfig};

    #[test]
    fn opens_engine_from_files_with_and_without_sim() {
        let g = rmat(&RmatConfig::new(7));
        let dir = tempfile::tempdir().unwrap();
        let (index, adj) = save_files(&g, dir.path(), "t.gr", 2).unwrap();
        let nand = Some(DeviceProfile::nand_s3520());
        for device in [CliArgs::default().device, nand, None] {
            let args = CliArgs {
                device,
                ..Default::default()
            };
            let engine = open_engine(&args, &index, &adj).unwrap();
            assert_eq!(engine.num_vertices(), g.num_vertices());
        }
    }

    #[test]
    fn custom_binning_flags_apply() {
        let g = rmat(&RmatConfig::new(6));
        let dir = tempfile::tempdir().unwrap();
        let (index, adj) = save_files(&g, dir.path(), "t.gr", 1).unwrap();
        let args = CliArgs {
            bin_space_bytes: 2 << 20,
            bin_count: Some(64),
            ..Default::default()
        };
        let engine = open_engine(&args, &index, &adj).unwrap();
        assert_eq!(engine.binning().bin_count, 64);
        assert_eq!(engine.binning().bin_space_bytes, 2 << 20);
    }

    #[test]
    fn bin_count_is_derived_unless_given() {
        let g = rmat(&RmatConfig::new(6));
        let dir = tempfile::tempdir().unwrap();
        let (index, adj) = save_files(&g, dir.path(), "t.gr", 1).unwrap();
        let bins = |args: CliArgs| open_engine(&args, &index, &adj).unwrap().binning().clone();
        // The paper's count, asked for, is not taken for "no flag".
        let explicit = CliArgs {
            bin_count: Some(1024),
            ..Default::default()
        };
        assert_eq!(bins(explicit).bin_count, 1024);
        // A bin space alone derives its own count: 1 MiB is the floor's.
        let space = bins(CliArgs {
            bin_space_bytes: 1 << 20,
            ..Default::default()
        });
        assert_eq!((space.bin_count, space.bin_space_bytes), (64, 1 << 20));
        // No flag: the engine's heuristic over the graph.
        let storage_bytes = DiskGraph::open_files(&index, &adj).unwrap().storage_bytes();
        assert_eq!(
            bins(CliArgs::default()),
            BinningConfig::for_graph(storage_bytes)
        );
    }

    #[test]
    fn cache_flag_enables_engine_cache() {
        let g = rmat(&RmatConfig::new(6));
        let dir = tempfile::tempdir().unwrap();
        let (index, adj) = save_files(&g, dir.path(), "t.gr", 1).unwrap();
        let args = CliArgs {
            cache_bytes: 8 << 20,
            ..Default::default()
        };
        let engine = open_engine(&args, &index, &adj).unwrap();
        let cache = engine.page_cache().expect("-cache-mb 8 enables the cache");
        assert_eq!(cache.capacity_bytes(), 8 << 20);
        let no_cache = open_engine(&CliArgs::default(), &index, &adj).unwrap();
        assert!(no_cache.page_cache().is_none(), "default stays uncached");
    }

    #[test]
    fn queue_depth_flag_caps_the_window_and_absent_follows_the_engine() {
        let g = rmat(&RmatConfig::new(6));
        let dir = tempfile::tempdir().unwrap();
        let (index, adj) = save_files(&g, dir.path(), "t.gr", 2).unwrap();
        let args = CliArgs {
            queue_depth: Some(16),
            ..Default::default()
        };
        let engine = open_engine(&args, &index, &adj).unwrap();
        assert_eq!(engine.options().queue_depth, 16);
        assert_eq!(engine.io_backend().queue_depth(), 16);
        // No flag on raw files follows the engine, which overlaps reads.
        let raw = CliArgs {
            device: None,
            ..Default::default()
        };
        let default = open_engine(&raw, &index, &adj).unwrap();
        let engine_default = EngineOptions::default().queue_depth;
        assert_eq!(default.options().queue_depth, engine_default);
        assert_eq!(default.io_backend().queue_depth(), engine_default);
        assert!(engine_default > 1, "no flag must not pin the depth-1 path");
        // No flag on a simulated device is the published stream: the
        // modeled time must not depend on which mode the host's timing
        // picked. The flag still overrides.
        let modeled = open_engine(&CliArgs::default(), &index, &adj).unwrap();
        assert_eq!(modeled.io_backend().queue_depth(), 1);
        let pinned = CliArgs {
            queue_depth: Some(1),
            ..Default::default()
        };
        let engine = open_engine(&pinned, &index, &adj).unwrap();
        assert_eq!(engine.io_backend().queue_depth(), 1);
        assert_eq!(engine.io_backend().window(0), 1);
    }

    #[test]
    fn latency_buckets_print_as_ranges() {
        // 90 reads under 4 µs, 9 in 64-256 µs, 1 in 1-4 ms.
        let buckets = [90, 0, 0, 9, 0, 1, 0, 0];
        assert_eq!(latency_bucket_label(&buckets, 0.50), "<4 us");
        assert_eq!(latency_bucket_label(&buckets, 0.95), "<256 us");
        assert_eq!(latency_bucket_label(&buckets, 0.99), "<256 us");
        assert_eq!(latency_bucket_label(&buckets, 1.0), "<4 ms");
        assert_eq!(
            latency_bucket_label(&[0, 0, 0, 0, 0, 0, 0, 3], 0.5),
            ">=16 ms"
        );
        assert_eq!(latency_bucket_label(&[0; 8], 0.5), "-", "no sample");
    }

    #[test]
    fn stats_carry_per_stage_compute_timings() {
        use blaze_frontier::VertexSubset;
        let g = rmat(&RmatConfig::new(8));
        let dir = tempfile::tempdir().unwrap();
        let (index, adj) = save_files(&g, dir.path(), "t.gr", 1).unwrap();
        let engine = open_engine(&CliArgs::default(), &index, &adj).unwrap();
        let frontier = VertexSubset::full(engine.num_vertices());
        engine
            .edge_map(&frontier, |s, _d| s, |_d, _v: u32| false, |_| true, false)
            .unwrap();
        let stats = engine.stats();
        assert!(stats.scatter_ns > 0, "scatter time must be recorded");
        assert!(stats.gather_ns > 0, "gather time must be recorded");
    }

    #[test]
    fn jobs_flag_enables_scan_sharing_and_no_share_disables_it() {
        let g = rmat(&RmatConfig::new(6));
        let dir = tempfile::tempdir().unwrap();
        let (index, adj) = save_files(&g, dir.path(), "t.gr", 1).unwrap();
        let shared = open_engine(
            &CliArgs {
                jobs: 4,
                ..Default::default()
            },
            &index,
            &adj,
        )
        .unwrap();
        assert_eq!(shared.options().io_lanes, 4, "one sharing lane a job");
        for args in [
            CliArgs {
                jobs: 4,
                no_share: true,
                ..Default::default()
            },
            CliArgs::default(),
        ] {
            let engine = open_engine(&args, &index, &adj).unwrap();
            assert_eq!(engine.options().io_lanes, 1, "no flight table");
        }
    }
}
