//! A fixed-size concurrent bitmap.

use blaze_sync::atomic::{AtomicU64, Ordering};

/// A bitmap over `len` bits supporting lock-free concurrent set operations.
///
/// `set` uses `fetch_or` and reports whether the bit was newly set, which
/// gives exactly-once semantics for frontier insertion without any lock.
/// Bits are only cleared through `&mut self`, so a set bit stays set while
/// the bitmap is shared.
#[derive(Debug)]
pub struct AtomicBitmap {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitmap {
    /// Creates an all-zero bitmap over `len` bits.
    pub fn new(len: usize) -> Self {
        let words = (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        Self { words, len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`; returns `true` iff the bit was previously clear.
    ///
    /// Tests before it claims: a bit already seen set returns `false`
    /// without the locked read-modify-write, which is most calls when many
    /// records reach one destination (a dense PageRank superstep sets at
    /// most |V| bits for |E| calls).
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        let word = &self.words[i / 64];
        // sync-audit: a set bit is never cleared while shared, so a 1 is
        // final; a stale 0 falls through to the RMW, which picks the winner.
        if word.load(Ordering::Relaxed) & mask != 0 {
            return false;
        }
        let prev = word.fetch_or(mask, Ordering::Relaxed); // sync-audit: atomic RMW gives exactly-once claims; no payload is published through the bit, so no ordering needed.
        prev & mask == 0
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64].load(Ordering::Relaxed) & (1u64 << (i % 64)) != 0 // sync-audit: racy read by design; callers observe a consistent frontier only after the iteration barrier.
    }

    /// Clears every bit. Requires exclusive access (no concurrent readers).
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w.get_mut() = 0;
        }
    }

    /// Sets every bit in `0..len`.
    pub fn set_all(&mut self) {
        let full_words = self.len / 64;
        for w in &mut self.words[..full_words] {
            *w.get_mut() = u64::MAX;
        }
        let rem = self.len % 64;
        if rem > 0 {
            *self.words[full_words].get_mut() = (1u64 << rem) - 1;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            // sync-audit: racy read by design; callers observe a consistent
            // frontier only after the iteration barrier.
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Iterates indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            let mut bits = w.load(Ordering::Relaxed); // sync-audit: racy read by design; callers observe a consistent frontier only after the iteration barrier.
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + tz)
            })
        })
    }

    /// Bytes of memory occupied by the bit words.
    pub fn memory_bytes(&self) -> u64 {
        (self.words.len() * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_reports_first_setter() {
        let b = AtomicBitmap::new(100);
        assert!(b.set(5));
        assert!(!b.set(5));
        assert!(b.get(5));
        assert!(!b.get(6));
    }

    #[test]
    fn count_and_iter_agree() {
        let b = AtomicBitmap::new(200);
        for i in [0usize, 63, 64, 65, 127, 128, 199] {
            b.set(i);
        }
        assert_eq!(b.count_ones(), 7);
        let ones: Vec<usize> = b.iter_ones().collect();
        assert_eq!(ones, vec![0, 63, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn set_all_respects_length() {
        let mut b = AtomicBitmap::new(70);
        b.set_all();
        assert_eq!(b.count_ones(), 70);
        assert!(b.get(69));
        let mut c = AtomicBitmap::new(64);
        c.set_all();
        assert_eq!(c.count_ones(), 64);
    }

    #[test]
    fn clear_resets() {
        let mut b = AtomicBitmap::new(10);
        b.set(3);
        b.clear();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn concurrent_sets_count_exactly_once() {
        let b = blaze_sync::Arc::new(AtomicBitmap::new(1024));
        let mut handles = Vec::new();
        let firsts = blaze_sync::Arc::new(blaze_sync::atomic::AtomicUsize::new(0));
        for _ in 0..4 {
            let b = b.clone();
            let firsts = firsts.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1024 {
                    if b.set(i) {
                        firsts.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Each bit reports "newly set" to exactly one thread.
        assert_eq!(firsts.load(Ordering::Relaxed), 1024); // sync-audit: racy read by design; callers observe a consistent frontier only after the iteration barrier.
        assert_eq!(b.count_ones(), 1024);
    }

    #[test]
    fn empty_bitmap() {
        let b = AtomicBitmap::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.iter_ones().count(), 0);
    }
}
