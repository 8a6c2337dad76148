//! Per-thread staging buffers (Section IV-A, first optimization).
//!
//! Each scatter thread keeps a small fixed-size buffer *per bin* and
//! appends records there without any synchronization; when a per-bin
//! staging buffer fills, its records are copied into the shared bin in one
//! batch. This is the propagation-blocking trick that amortizes the bin
//! lock over ~64 records.

use blaze_types::VertexId;

use crate::record::{BinRecord, BinValue};
use crate::space::{no_gather, BinSpace};

/// Thread-local staging for one scatter thread.
#[derive(Debug)]
pub struct ScatterStaging<V> {
    buffers: Vec<Vec<BinRecord<V>>>,
    capacity: usize,
}

impl<V: BinValue> ScatterStaging<V> {
    /// Creates staging buffers matching `space`'s bin count and configured
    /// staging batch size.
    pub fn new(space: &BinSpace<V>) -> Self {
        let capacity = space.config().staging_records;
        let buffers = (0..space.bin_count())
            .map(|_| Vec::with_capacity(capacity))
            .collect();
        Self { buffers, capacity }
    }

    /// Stages one record; flushes its bin's staging buffer to `space` when
    /// the batch is full. A flush that finds the bin's two buffers out
    /// waits for a gather thread to return one.
    #[inline]
    pub fn push(&mut self, space: &BinSpace<V>, dst: VertexId, value: V) {
        self.push_with(space, dst, value, no_gather());
    }

    /// [`push`](Self::push) for a scatter thread that applies full bins
    /// with `gather` while a flush is stalled
    /// ([`BinSpace::append_batch`]).
    #[inline]
    pub fn push_with<F>(
        &mut self,
        space: &BinSpace<V>,
        dst: VertexId,
        value: V,
        gather: Option<&mut F>,
    ) where
        F: FnMut(usize, &[BinRecord<V>]),
    {
        let bin = space.bin_of(dst);
        let buf = &mut self.buffers[bin];
        buf.push(BinRecord::new(dst, value));
        if buf.len() == self.capacity {
            space.append_batch(bin, buf, gather);
            buf.clear();
        }
    }

    /// Flushes every non-empty staging buffer. Must be called before a
    /// scatter thread reports completion, or records would be lost.
    pub fn flush(&mut self, space: &BinSpace<V>) {
        self.flush_with(space, no_gather());
    }

    /// [`flush`](Self::flush) for a scatter thread that applies full bins
    /// with `gather` while a flush is stalled.
    pub fn flush_with<F>(&mut self, space: &BinSpace<V>, mut gather: Option<&mut F>)
    where
        F: FnMut(usize, &[BinRecord<V>]),
    {
        for (bin, buf) in self.buffers.iter_mut().enumerate() {
            if !buf.is_empty() {
                space.append_batch(bin, buf, gather.as_deref_mut());
                buf.clear();
            }
        }
    }

    /// Records currently staged across all bins.
    pub fn staged(&self) -> usize {
        self.buffers.iter().map(Vec::len).sum()
    }

    /// Memory held by the staging buffers (per thread).
    pub fn memory_bytes(&self) -> u64 {
        (self.buffers.len() * self.capacity * BinRecord::<V>::size_bytes()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BinningConfig;

    fn space(bins: usize, staging: usize) -> BinSpace<u32> {
        BinSpace::new(BinningConfig::new(bins, bins * 2 * 64 * 8, staging).unwrap())
    }

    #[test]
    fn records_stage_until_batch_full() {
        let space = space(2, 4);
        let mut st = ScatterStaging::new(&space);
        for dst in [0u32, 2, 4] {
            st.push(&space, dst, dst);
        }
        assert_eq!(st.staged(), 3);
        assert_eq!(space.total_records(), 0, "nothing flushed yet");
        st.push(&space, 6, 6); // 4th record for bin 0 triggers the flush
        assert_eq!(st.staged(), 0);
        assert_eq!(space.total_records(), 4);
    }

    #[test]
    fn flush_pushes_leftovers() {
        let space = space(4, 8);
        let mut st = ScatterStaging::new(&space);
        for dst in 0..10u32 {
            st.push(&space, dst, dst);
        }
        st.flush(&space);
        assert_eq!(st.staged(), 0);
        assert_eq!(space.total_records(), 10);
        space.flush_partials();
        let mut got = 0;
        while space.process_one_full(|_, r| got += r.len()) {}
        assert_eq!(got, 10);
    }

    /// Runs on `BinSpace::new`, whose routing is `dst % bin_count`.
    #[test]
    fn values_survive_the_staging_path() {
        let space = space(3, 2);
        let mut st = ScatterStaging::new(&space);
        for dst in 0..30u32 {
            st.push(&space, dst, dst * 7);
        }
        st.flush(&space);
        space.flush_partials();
        let mut ok = 0;
        while space.process_one_full(|bin, records| {
            for r in records {
                assert_eq!(bin, (r.dst % 3) as usize);
                assert_eq!(r.value, r.dst * 7);
                ok += 1;
            }
        }) {}
        assert_eq!(ok, 30);
    }
}
