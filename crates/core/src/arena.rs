//! Checked-out bin/buffer arenas: `BinSpace` and `BufferPool` reuse across
//! jobs.
//!
//! The per-call pipeline allocated a fresh bin space (tens of MiB of record
//! buffers) and a fresh IO buffer pool for every `edge_map`, then dropped
//! both. With the persistent runtime, each job instead *checks out* an
//! arena from the engine, uses it exclusively for the job's lifetime, and
//! *recycles* it afterwards:
//!
//! * arenas are never shared between in-flight jobs — that is what lets
//!   independent jobs interleave through the shared worker pools without
//!   their buffer queues or bin back-pressure entangling;
//! * a recycled arena is [`reset`](blaze_binning::BinSpace::reset) /
//!   [`recycled`](blaze_storage::BufferPool::recycle) back to its pristine
//!   state and cached for the next checkout, capped at the engine's
//!   `MAX_IDLE_ARENAS` idle entries;
//! * a job that fails (IO error) or panics does **not** recycle — its arena
//!   may have buffers stranded on unwound stacks, so the engine drops it
//!   and the next checkout allocates fresh. [`BufferPool::is_intact`]
//!   backstops this: a pool that lost buffers is refused at recycle time.
//!
//! Bin spaces are typed by their record value, so the cache stores them
//! type-erased (`Box<dyn Any>`) and a checkout scans for a matching
//! `BinSpace<V>` — a BFS (u32 records) and a PageRank (f64 records) running
//! against one engine each find or create their own.
//!
//! [`BufferPool::is_intact`]: blaze_storage::BufferPool::is_intact

use std::any::Any;

use blaze_sync::Mutex;

use blaze_binning::{BinSpace, BinValue, BinningConfig};
use blaze_storage::BufferPool;

/// The engine's cache of idle per-job arenas.
pub struct EngineArena {
    binning: BinningConfig,
    /// The graph's vertex count: fresh bin spaces route by vertex slice.
    num_vertices: usize,
    io_buffer_bytes: usize,
    pages_per_buffer: usize,
    /// Gather-affinity queue count for fresh bin spaces (the engine's
    /// `num_gather`).
    gather_queues: usize,
    max_idle: usize,
    pools: Mutex<Vec<BufferPool>>,
    spaces: Mutex<Vec<Box<dyn Any + Send>>>,
}

impl EngineArena {
    /// Creates an empty arena cache; checkouts allocate on demand using
    /// these parameters.
    pub fn new(
        binning: BinningConfig,
        num_vertices: usize,
        io_buffer_bytes: usize,
        pages_per_buffer: usize,
        gather_queues: usize,
        max_idle: usize,
    ) -> Self {
        Self {
            binning,
            num_vertices,
            io_buffer_bytes,
            pages_per_buffer,
            gather_queues: gather_queues.max(1),
            max_idle,
            pools: Mutex::new(Vec::new()),
            spaces: Mutex::new(Vec::new()),
        }
    }

    /// The binning configuration checkout uses for fresh spaces.
    pub fn binning(&self) -> &BinningConfig {
        &self.binning
    }

    /// Checks out a buffer pool for one job: a cached idle pool if
    /// available, else a freshly allocated one.
    pub fn checkout_pool(&self) -> BufferPool {
        if let Some(pool) = self.pools.lock().pop() {
            return pool;
        }
        BufferPool::with_bytes_and_pages(self.io_buffer_bytes, self.pages_per_buffer)
    }

    /// Returns a pool after a *successful* job. The pool is drained back to
    /// pristine and cached unless the idle cap is reached or buffers went
    /// missing (then it is dropped).
    pub fn recycle_pool(&self, pool: BufferPool) {
        pool.recycle();
        if !pool.is_intact() {
            return;
        }
        let mut pools = self.pools.lock();
        if pools.len() < self.max_idle {
            pools.push(pool);
        }
    }

    /// Checks out a bin space for records of type `V`: a cached idle
    /// `BinSpace<V>` if one exists, else a freshly allocated one.
    pub fn checkout_space<V: BinValue>(&self) -> BinSpace<V> {
        {
            let mut spaces = self.spaces.lock();
            if let Some(pos) = spaces.iter().position(|s| s.is::<BinSpace<V>>()) {
                let boxed = spaces.remove(pos);
                drop(spaces);
                if let Ok(space) = boxed.downcast::<BinSpace<V>>() {
                    return *space;
                }
            }
        }
        BinSpace::for_vertices(self.binning.clone(), self.num_vertices, self.gather_queues)
    }

    /// Returns a bin space after a *successful* job, reset to pristine and
    /// cached unless the idle cap is reached.
    pub fn recycle_space<V: BinValue>(&self, space: BinSpace<V>) {
        space.reset();
        let mut spaces = self.spaces.lock();
        if spaces.len() < self.max_idle {
            spaces.push(Box::new(space));
        }
    }

    /// Number of idle cached entries (pools + spaces), for tests.
    pub fn idle_len(&self) -> usize {
        self.pools.lock().len() + self.spaces.lock().len()
    }
}

impl std::fmt::Debug for EngineArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineArena")
            .field("idle_pools", &self.pools.lock().len())
            .field("idle_spaces", &self.spaces.lock().len())
            .field("max_idle", &self.max_idle)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(max_idle: usize) -> EngineArena {
        let binning = BinningConfig::new(4, 1 << 16, 4).unwrap();
        EngineArena::new(binning, 1 << 10, 1 << 20, 4, 2, max_idle)
    }

    #[test]
    fn fresh_spaces_get_the_arena_gather_queue_count() {
        let a = arena(2);
        let s: BinSpace<u32> = a.checkout_space();
        assert_eq!(s.gather_queue_count(), 2);
    }

    #[test]
    fn pool_checkout_reuses_recycled_pool() {
        let a = arena(2);
        let pool = a.checkout_pool();
        let capacity = pool.capacity();
        a.recycle_pool(pool);
        assert_eq!(a.idle_len(), 1);
        let again = a.checkout_pool();
        assert_eq!(again.capacity(), capacity);
        assert_eq!(a.idle_len(), 0);
    }

    #[test]
    fn spaces_are_cached_per_value_type() {
        let a = arena(4);
        let s_u32: BinSpace<u32> = a.checkout_space();
        let s_f64: BinSpace<f64> = a.checkout_space();
        a.recycle_space(s_u32);
        a.recycle_space(s_f64);
        assert_eq!(a.idle_len(), 2);
        // A u32 checkout must get the u32 space back, leaving the f64 one.
        let _s: BinSpace<u32> = a.checkout_space();
        assert_eq!(a.idle_len(), 1);
        let _s: BinSpace<f64> = a.checkout_space();
        assert_eq!(a.idle_len(), 0);
    }

    #[test]
    fn idle_cap_bounds_the_cache() {
        let a = arena(1);
        let p1 = a.checkout_pool();
        let p2 = a.checkout_pool();
        a.recycle_pool(p1);
        a.recycle_pool(p2); // over the cap: dropped
        assert_eq!(a.idle_len(), 1);
    }

    #[test]
    fn non_intact_pool_is_refused() {
        let a = arena(2);
        let pool = a.checkout_pool();
        let lost = pool.try_acquire_free().unwrap();
        a.recycle_pool(pool);
        assert_eq!(a.idle_len(), 0, "pool missing a buffer must be dropped");
        drop(lost);
    }
}
