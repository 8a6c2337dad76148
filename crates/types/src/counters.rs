//! The table of scalar per-job counters, defined once.
//!
//! A counter is recorded by a worker of one `edge_map` job into the job's
//! atomic slots (`blaze_storage::JobIoStats`), totalled into a
//! [`JobCounters`] snapshot when the job ends, copied into that iteration's
//! [`IterationTrace`](crate::IterationTrace) and folded into the engine's
//! cumulative `ExecStats`. Every one of those structs takes its counter
//! fields from [`job_counter_table!`](crate::job_counter_table!), so a new
//! counter is one entry here plus the call that records it.

/// Number of log-scale per-request latency buckets tracked per job.
/// Bucket `i` counts requests with service time in `[4^i, 4^(i+1))`
/// microseconds (bucket 0 additionally absorbs sub-microsecond requests,
/// the last bucket absorbs everything ≥ ~16 ms).
pub const LATENCY_BUCKETS: usize = 8;

/// Exclusive upper bound of every latency bucket but the last, which is
/// open, in nanoseconds.
pub const LATENCY_BUCKET_UPPER_NS: [u64; LATENCY_BUCKETS - 1] = {
    let mut bounds = [0; LATENCY_BUCKETS - 1];
    let mut bucket = 0;
    while bucket < bounds.len() {
        bounds[bucket] = 4_000 << (2 * bucket);
        bucket += 1;
    }
    bounds
};

/// How two values of one counter combine: across the workers of a job and
/// across the iterations of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// The values add up.
    Sum,
    /// The larger value wins.
    Max,
}

impl Fold {
    /// Combines two values of a counter that folds this way.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            Fold::Sum => a + b,
            Fold::Max => a.max(b),
        }
    }
}

/// Calls `$callback!` with the table: one `doc, fold, Variant, field` entry
/// per counter, after `$head` if one is given. This is the only place a
/// counter is named and documented; the doc comment is attached to every
/// field generated from the entry.
#[macro_export]
macro_rules! job_counter_table {
    ($($callback:ident)::+ $(, $head:tt)?) => {
        $($callback)::+! {
            $($head)?
            /// Edges examined by scatter (`scatter` + `cond` evaluations).
            Sum EdgesProcessed edges_processed,
            /// Bin records produced: edges that passed `cond` (in the sync
            /// variant, updates applied in place).
            Sum RecordsProduced records_produced,
            /// Pages served from the page cache (the engine's clock cache,
            /// or FlashGraph's LRU cache in the baseline); these cost no
            /// device IO.
            Sum CacheHitPages cache_hit_pages,
            /// Pages that missed the page cache and were read from the
            /// device. Zero without a cache: misses are only counted on
            /// the cached IO path.
            Sum CacheMissPages cache_miss_pages,
            /// Resident pages the cache evicted to make room for fills.
            Sum CacheEvictions cache_evictions,
            /// Cache hits that fell in the graph's hot (hub) page region:
            /// the pages a degree-aware layout packed to the front of the
            /// stream.
            Sum CacheHotHitPages cache_hot_hit_pages,
            /// Fills the cache admitted with a hot-region second-chance
            /// credit.
            Sum CacheHotAdmits cache_hot_admits,
            /// Pages received from another job's in-flight or recently
            /// retained device read through the scan-sharing flight table;
            /// these cost this job no device IO.
            Sum SharedHitPages shared_hit_pages,
            /// Scan-sharing flights led: device reads issued on behalf of
            /// this job and any subscribers.
            Sum FlightsLed flights_led,
            /// Requests submitted to the IO backend.
            Sum IoSubmits io_submits,
            /// Sum over submissions of the per-device in-flight depth at
            /// submission time, the request itself included; over
            /// `io_submits` it is the mean depth.
            Sum IoInFlightSum io_in_flight_sum,
            /// Largest per-device in-flight depth at any submission (1
            /// under the synchronous backend; 0 when no request was
            /// issued).
            Max IoMaxInFlight io_max_in_flight,
            /// Nanoseconds scatter workers spent decoding pages and
            /// staging records, summed across workers (so it can exceed
            /// wall time). Time stalled on a bin is part of it.
            Sum ScatterNs scatter_ns,
            /// Nanoseconds gather workers spent applying full bins, summed
            /// across workers (zero for the sync variant, which gathers
            /// inline).
            Sum GatherNs gather_ns,
            /// Nanoseconds scatter workers spent idle waiting for filled
            /// buffers: the compute-side view of an IO-bound iteration.
            Sum IoWaitNs io_wait_ns,
            /// Nanoseconds scatter workers spent stalled on a bin whose two
            /// buffers were both out with gather: scatter outrunning
            /// gather. A part of `scatter_ns`, not beside it.
            Sum BinStallNs bin_stall_ns,
            /// The part of `bin_stall_ns` scatter workers spent applying
            /// full bins themselves (a stalled append applies queued
            /// buffers with the job's gather rather than wait). Counted in
            /// `scatter_ns`, never in `gather_ns`.
            Sum StallGatherNs stall_gather_ns,
            /// Nanoseconds gather workers spent with no full bin to
            /// process while scatter was still running: gather outrunning
            /// scatter.
            Sum GatherIdleNs gather_idle_ns,
        }
    };
}

/// The callback that puts the table counters into a struct: called as
/// `job_counter_table!(struct_with_job_counters, { pub struct S { .. } })`
/// it defines `S` with the fields written out plus one `pub u64` per
/// counter, the pair of methods that copy them out and in, and the two
/// derived values of [`JobCounters`](crate::JobCounters).
#[macro_export]
macro_rules! struct_with_job_counters {
    (
        { $(#[$meta:meta])* pub struct $name:ident { $($own:tt)* } }
        $($(#[$doc:meta])* $fold:ident $variant:ident $field:ident,)*
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($own)*
            $($(#[$doc])* pub $field: u64,)*
        }

        impl $name {
            /// The table counters, as a snapshot.
            pub fn job_counters(&self) -> $crate::JobCounters {
                $crate::JobCounters {
                    $($field: self.$field,)*
                }
            }

            /// Overwrites every table counter with `counters`' value.
            pub fn set_job_counters(&mut self, counters: &$crate::JobCounters) {
                $(self.$field = counters.$field;)*
            }

            /// [`JobCounters::shared_bytes`](crate::JobCounters::shared_bytes)
            /// of these counters.
            pub fn shared_bytes(&self) -> u64 {
                self.job_counters().shared_bytes()
            }

            /// [`JobCounters::io_mean_in_flight`](crate::JobCounters::io_mean_in_flight)
            /// of these counters.
            pub fn io_mean_in_flight(&self) -> f64 {
                self.job_counters().io_mean_in_flight()
            }
        }
    };
}

macro_rules! define_job_counters {
    ($($(#[$doc:meta])* $fold:ident $variant:ident $field:ident,)*) => {
        /// Names one entry of [`job_counter_table!`](crate::job_counter_table!);
        /// the discriminant is the entry's position, so it indexes a
        /// `[_; JobCounter::COUNT]`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum JobCounter {
            $($(#[$doc])* $variant,)*
        }

        impl JobCounter {
            /// Every counter, in table order.
            pub const ALL: &'static [JobCounter] = &[$(JobCounter::$variant,)*];
            /// Number of counters in the table.
            pub const COUNT: usize = Self::ALL.len();

            /// How values of this counter combine.
            pub fn fold(self) -> Fold {
                match self {
                    $(JobCounter::$variant => Fold::$fold,)*
                }
            }
        }

        /// A plain copy of every table counter of one job.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct JobCounters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl JobCounters {
            /// A snapshot holding `value(counter)` for every counter.
            pub fn from_fn(mut value: impl FnMut(JobCounter) -> u64) -> Self {
                Self {
                    $($field: value(JobCounter::$variant),)*
                }
            }

            /// Folds `other` into `self`, each counter by its own [`Fold`].
            pub fn merge(&mut self, other: &JobCounters) {
                $(self.$field = Fold::$fold.apply(self.$field, other.$field);)*
            }
        }
    };
}
job_counter_table!(define_job_counters);

impl JobCounters {
    /// Bytes of `shared_hit_pages`: the device IO avoided by subscribing to
    /// other jobs' flights.
    pub fn shared_bytes(&self) -> u64 {
        self.shared_hit_pages * crate::PAGE_SIZE as u64
    }

    /// Mean in-flight depth over submissions: 1.0 when every read was
    /// issued alone, up to the queue depth when the window was kept full.
    /// 0.0 before any submission.
    pub fn io_mean_in_flight(&self) -> f64 {
        if self.io_submits == 0 {
            0.0
        } else {
            self.io_in_flight_sum as f64 / self.io_submits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_indexes_densely() {
        for (i, &counter) in JobCounter::ALL.iter().enumerate() {
            assert_eq!(counter as usize, i);
        }
        assert_eq!(JobCounter::IoMaxInFlight.fold(), Fold::Max);
        assert_eq!(JobCounter::ScatterNs.fold(), Fold::Sum);
    }

    #[test]
    fn merge_sums_or_takes_the_max_by_the_table() {
        let mut merged = JobCounters::from_fn(|c| c as u64 + 1);
        merged.merge(&JobCounters::from_fn(|c| 2 * (c as u64 + 1)));
        let want = JobCounters::from_fn(|c| match c.fold() {
            Fold::Sum => 3 * (c as u64 + 1),
            Fold::Max => 2 * (c as u64 + 1),
        });
        assert_eq!(merged, want);
    }

    #[test]
    fn latency_bounds_are_powers_of_four_microseconds() {
        for (i, &upper) in LATENCY_BUCKET_UPPER_NS.iter().enumerate() {
            assert_eq!(upper, 4_000 << (2 * i));
        }
    }

    #[test]
    fn derived_values_come_from_the_counters() {
        let mut c = JobCounters::default();
        assert_eq!(c.io_mean_in_flight(), 0.0);
        (c.io_submits, c.io_in_flight_sum, c.shared_hit_pages) = (4, 8, 3);
        assert!((c.io_mean_in_flight() - 2.0).abs() < 1e-12);
        assert_eq!(c.shared_bytes(), 3 * crate::PAGE_SIZE as u64);
    }
}
