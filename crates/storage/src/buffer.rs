//! IO buffers and the free/filled queues of the EdgeMap engine
//! (Figure 5, steps 3–7).
//!
//! A fixed set of buffers is allocated up front (the paper uses a static
//! 64 MiB pool for all workloads). IO threads take buffers from the *free*
//! MPMC queue, fill them with up to [`MAX_MERGED_PAGES`] pages, and push them
//! to the *filled* MPMC queue as [`PageBatch`]es; scatter threads pop
//! batches and hand them back when done, which returns the buffer to the
//! free queue. Because scatter keeps pace with IO, a small pool suffices —
//! if it ever drains, IO threads back off, which is exactly the "fast
//! producer, slow consumer" stall the paper describes for Graphene
//! (Section III-C).
//!
//! Pages that are already resident (page-cache hits, frames fanned out by
//! another job's read) travel the same filled queue as batches of shared
//! frames and take no buffer. The filled queue holds at most as many
//! batches as the pool has buffers, so frames queued for a slow scatter
//! are bounded by the pool's byte budget just like buffers are.

use blaze_sync::queue::ArrayQueue;
use blaze_sync::Backoff;

use blaze_types::{PageId, MAX_MERGED_PAGES, PAGE_SIZE};

use crate::flight::PageFrame;

/// A reusable IO buffer large enough for one merged request.
#[derive(Debug)]
pub struct IoBuffer {
    data: Box<[u8]>,
}

impl IoBuffer {
    /// Allocates a zeroed buffer of [`MAX_MERGED_PAGES`] pages.
    pub fn new() -> Self {
        Self::with_pages(MAX_MERGED_PAGES)
    }

    /// Allocates a zeroed buffer of `pages` pages (for engines configured
    /// with a larger merge window than the paper's default).
    pub fn with_pages(pages: usize) -> Self {
        Self {
            data: vec![0u8; pages.max(1) * PAGE_SIZE].into_boxed_slice(),
        }
    }

    /// Number of pages this buffer can hold.
    pub fn capacity_pages(&self) -> usize {
        self.data.len() / PAGE_SIZE
    }

    /// Mutable view of the first `n` pages, for the IO thread to read into.
    pub fn pages_mut(&mut self, n: usize) -> &mut [u8] {
        &mut self.data[..n * PAGE_SIZE]
    }

    /// Immutable view of the first `n` pages.
    pub fn pages(&self, n: usize) -> &[u8] {
        &self.data[..n * PAGE_SIZE]
    }
}

impl Default for IoBuffer {
    fn default() -> Self {
        Self::new()
    }
}

/// Where a [`PageBatch`]'s bytes live.
#[derive(Debug)]
enum PageData {
    /// Consecutive pages of one pool buffer: a device read.
    Buffer(IoBuffer),
    /// One shared frame per page: cache hits and flight joins, handed over
    /// by reference.
    Frames(Vec<PageFrame>),
}

/// The one thing scatter consumes: a run of pages travelling from an IO
/// thread to a scatter thread, either in a pool buffer the IO thread read
/// into or as shared frames that are already resident.
///
/// `page_id(i)` describes `page_data(i)`; consumers must never rely on the
/// pages being contiguous (a device read holds consecutive *local* pages
/// of one device, globally strided by the device count; a frame batch may
/// hold any ascending set of that device's pages).
#[derive(Debug)]
pub struct PageBatch {
    pages: Vec<PageId>,
    data: PageData,
}

impl PageBatch {
    /// A device read: `buffer`'s first `pages.len()` pages hold `pages`.
    pub fn owned(buffer: IoBuffer, pages: Vec<PageId>) -> Self {
        debug_assert!(pages.len() <= buffer.capacity_pages());
        Self {
            pages,
            data: PageData::Buffer(buffer),
        }
    }

    /// Resident pages by reference: `frames[i]` holds `pages[i]`.
    pub fn shared(frames: Vec<PageFrame>, pages: Vec<PageId>) -> Self {
        debug_assert_eq!(frames.len(), pages.len());
        Self {
            pages,
            data: PageData::Frames(frames),
        }
    }

    /// Number of pages held.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Global id of the `i`-th page.
    pub fn page_id(&self, i: usize) -> PageId {
        self.pages[i]
    }

    /// The `PAGE_SIZE` bytes of the `i`-th page.
    pub fn page_data(&self, i: usize) -> &[u8] {
        match &self.data {
            PageData::Buffer(buffer) => &buffer.data[i * PAGE_SIZE..(i + 1) * PAGE_SIZE],
            PageData::Frames(frames) => &frames[i],
        }
    }

    /// Hints that the `i`-th page is about to be read; out of range is a
    /// no-op. A pool buffer was just filled and is warm, but shared frames
    /// lie scattered over the heap and were last touched, if ever, by
    /// another thread. Scatter asks for page `i + 1` while it decodes page
    /// `i`, so those misses overlap with work instead of stalling it —
    /// what the copy into a pool buffer used to do as a side effect.
    pub fn prefetch(&self, i: usize) {
        if let PageData::Frames(frames) = &self.data {
            if let Some(frame) = frames.get(i) {
                prefetch_lines(frame);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn prefetch_lines(bytes: &[u8]) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T1};
    for line in bytes.chunks(64) {
        // SAFETY: a prefetch is a hint that never faults and reads nothing
        // architecturally; `line` points into `bytes`, and SSE is part of
        // the x86_64 baseline.
        unsafe { _mm_prefetch::<_MM_HINT_T1>(line.as_ptr().cast()) };
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn prefetch_lines(_bytes: &[u8]) {}

/// The free/filled MPMC buffer queues shared by IO and scatter threads.
pub struct BufferPool {
    free: ArrayQueue<IoBuffer>,
    /// Bounded at `capacity` batches: every buffer batch fits by
    /// construction, and frame batches (at most `pages_per_buffer` frames
    /// each, by the producers' contract) wait for room.
    filled: ArrayQueue<PageBatch>,
    capacity: usize,
    pages_per_buffer: usize,
}

impl BufferPool {
    /// Creates a pool of `capacity` buffers, all initially free, each
    /// holding [`MAX_MERGED_PAGES`] pages.
    pub fn new(capacity: usize) -> Self {
        Self::with_buffer_pages(capacity, MAX_MERGED_PAGES)
    }

    /// Creates a pool of `capacity` buffers of `pages_per_buffer` pages —
    /// buffers must be at least as large as the engine's merge window.
    pub fn with_buffer_pages(capacity: usize, pages_per_buffer: usize) -> Self {
        let capacity = capacity.max(1);
        let pages_per_buffer = pages_per_buffer.max(1);
        let free = ArrayQueue::new(capacity);
        for _ in 0..capacity {
            // A fresh queue with `capacity` slots accepts exactly `capacity`
            // pushes, so the push cannot fail; the binding makes overflow
            // drop the buffer instead of panicking.
            let _ = free.push(IoBuffer::with_pages(pages_per_buffer));
        }
        Self {
            free,
            filled: ArrayQueue::new(capacity),
            capacity,
            pages_per_buffer,
        }
    }

    /// Creates a pool sized so that its buffers total roughly `bytes`.
    pub fn with_bytes(bytes: usize) -> Self {
        Self::new(bytes / (MAX_MERGED_PAGES * PAGE_SIZE))
    }

    /// [`with_bytes`](Self::with_bytes) with a custom buffer size in pages.
    pub fn with_bytes_and_pages(bytes: usize, pages_per_buffer: usize) -> Self {
        let pages_per_buffer = pages_per_buffer.max(1);
        Self::with_buffer_pages(bytes / (pages_per_buffer * PAGE_SIZE), pages_per_buffer)
    }

    /// Pages each buffer holds.
    pub fn pages_per_buffer(&self) -> usize {
        self.pages_per_buffer
    }

    /// Number of buffers owned by the pool.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Tries to take a free buffer without blocking.
    pub fn try_acquire_free(&self) -> Option<IoBuffer> {
        self.free.pop()
    }

    /// Takes a free buffer, backing off (spin → yield) until one is
    /// available. IO threads block here when scatter falls behind.
    pub fn acquire_free(&self) -> IoBuffer {
        let backoff = Backoff::new();
        loop {
            if let Some(buf) = self.free.pop() {
                return buf;
            }
            backoff.snooze();
        }
    }

    /// Returns a buffer that never became a batch (a failed read, a drain
    /// after an error) to the free queue.
    pub fn release(&self, buffer: IoBuffer) {
        // The pool created every buffer, so the queue can never overflow.
        let _ = self.free.push(buffer);
    }

    /// Publishes a batch for scatter threads (step 4), backing off while
    /// the filled queue is at its bound. Only scatter makes room, and it
    /// never waits on the caller, so the wait always ends.
    pub fn push_filled(&self, mut batch: PageBatch) {
        let backoff = Backoff::new();
        while let Err(rejected) = self.filled.push(batch) {
            batch = rejected;
            backoff.snooze();
        }
    }

    /// Takes the next batch, if any (step 5).
    pub fn pop_filled(&self) -> Option<PageBatch> {
        self.filled.pop()
    }

    /// Number of batches currently waiting in the filled queue.
    pub fn filled_len(&self) -> usize {
        self.filled.len()
    }

    /// Takes back a batch scatter is done with (step 7): its buffer, if it
    /// has one, returns to the free queue; shared frames are just dropped.
    pub fn finish(&self, batch: PageBatch) {
        if let PageData::Buffer(buffer) = batch.data {
            self.release(buffer);
        }
    }

    /// Restores the pool to its freshly-constructed state so it can be
    /// recycled into a later job: any batches stranded in the filled queue
    /// (e.g. after an IO error aborted scatter early) are taken back. Must
    /// only be called while no IO or scatter thread is using the pool.
    pub fn recycle(&self) {
        while let Some(batch) = self.filled.pop() {
            self.finish(batch);
        }
    }

    /// Whether every buffer is back in the free queue — i.e. the pool is
    /// safe to hand to the next job. A pool that lost buffers (a panicking
    /// job dropped some on its stack) reports `false` and should be
    /// discarded rather than reused.
    pub fn is_intact(&self) -> bool {
        self.free.len() == self.capacity
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("free", &self.free.len())
            .field("filled", &self.filled.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_starts_full_of_free_buffers() {
        let pool = BufferPool::new(4);
        let mut held = Vec::new();
        for _ in 0..4 {
            held.push(pool.try_acquire_free().expect("buffer available"));
        }
        assert!(pool.try_acquire_free().is_none());
        for b in held {
            pool.release(b);
        }
        assert!(pool.try_acquire_free().is_some());
    }

    #[test]
    fn with_bytes_sizes_pool() {
        let pool = BufferPool::with_bytes(64 * MAX_MERGED_PAGES * PAGE_SIZE);
        assert_eq!(pool.capacity(), 64);
    }

    #[test]
    fn filled_round_trip_preserves_data_and_pages() {
        let pool = BufferPool::new(1);
        let mut buf = pool.try_acquire_free().unwrap();
        buf.pages_mut(2)[0] = 0xAB;
        buf.pages_mut(2)[PAGE_SIZE] = 0xCD;
        pool.push_filled(PageBatch::owned(buf, vec![10, 14]));
        let filled = pool.pop_filled().unwrap();
        assert_eq!(filled.num_pages(), 2);
        assert_eq!((filled.page_id(0), filled.page_id(1)), (10, 14));
        assert_eq!(filled.page_data(0)[0], 0xAB);
        assert_eq!(filled.page_data(1)[0], 0xCD);
        pool.finish(filled);
        assert!(pool.is_intact());
    }

    #[test]
    fn frame_batches_take_no_buffer_and_share_the_frames() {
        let pool = BufferPool::new(1);
        let frame: PageFrame = vec![0xEEu8; PAGE_SIZE].into();
        pool.push_filled(PageBatch::shared(vec![frame.clone()], vec![7]));
        assert!(pool.is_intact(), "a frame batch holds no pool buffer");
        let batch = pool.pop_filled().unwrap();
        assert_eq!((batch.num_pages(), batch.page_id(0)), (1, 7));
        assert_eq!(
            batch.page_data(0).as_ptr(),
            frame.as_ptr(),
            "the page is the frame itself, not a copy"
        );
        // A hint only: in range or past the end, nothing observable.
        batch.prefetch(0);
        batch.prefetch(1);
        pool.finish(batch);
        assert!(pool.is_intact());
    }

    #[test]
    fn filled_queue_bounds_frame_batches_at_pool_capacity() {
        // Two buffers -> at most two batches queued, buffers or not: the
        // third push waits until scatter pops one.
        let pool = blaze_sync::Arc::new(BufferPool::new(2));
        let frame: PageFrame = vec![0u8; PAGE_SIZE].into();
        let batch = |page| PageBatch::shared(vec![frame.clone()], vec![page]);
        pool.push_filled(batch(0));
        pool.push_filled(batch(1));
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let producer = {
            let (pool, third) = (pool.clone(), batch(2));
            std::thread::spawn(move || {
                started_tx.send(()).unwrap();
                pool.push_filled(third);
            })
        };
        started_rx.recv().unwrap();
        // However long the producer has been trying, the bound holds.
        for _ in 0..1000 {
            assert!(pool.filled_len() <= 2);
            std::thread::yield_now();
        }
        assert!(!producer.is_finished(), "a full queue must hold the push");
        assert_eq!(pool.pop_filled().unwrap().page_id(0), 0);
        producer.join().unwrap();
        assert_eq!(pool.pop_filled().unwrap().page_id(0), 1);
        assert_eq!(pool.pop_filled().unwrap().page_id(0), 2);
    }

    #[test]
    fn recycle_drains_stranded_filled_buffers() {
        let pool = BufferPool::new(2);
        let buf = pool.try_acquire_free().unwrap();
        pool.push_filled(PageBatch::owned(buf, vec![3]));
        assert!(!pool.is_intact());
        pool.recycle();
        assert!(pool.is_intact());
        assert_eq!(pool.filled_len(), 0);
        // A buffer lost outside the pool keeps it non-intact even after
        // recycling.
        let lost = pool.try_acquire_free().unwrap();
        pool.recycle();
        assert!(!pool.is_intact());
        pool.release(lost);
        assert!(pool.is_intact());
    }

    #[test]
    fn producer_consumer_recycles_buffers() {
        // 2 buffers, 64 messages: recycling must keep both sides going.
        let pool = blaze_sync::Arc::new(BufferPool::new(2));
        let producer_pool = pool.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..64u64 {
                let mut buf = producer_pool.acquire_free();
                buf.pages_mut(1)[0] = i as u8;
                producer_pool.push_filled(PageBatch::owned(buf, vec![i]));
            }
        });
        let mut seen = Vec::new();
        while seen.len() < 64 {
            if let Some(f) = pool.pop_filled() {
                seen.push(f.page_id(0));
                pool.finish(f);
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }
}
