//! `VertexMap` (Section IV-B): in-memory application of a vertex function
//! to every frontier member, producing a filtered frontier.

use blaze_frontier::VertexSubset;
use blaze_types::{VertexId, DEFAULT_VERTEX_MAP_GRAIN};

/// Applies `f` to each vertex in `frontier`; the returned frontier contains
/// exactly the vertices for which `f` returned `true`.
///
/// All vertex data is memory-resident under the semi-external model, so
/// this runs without IO, parallelized over `threads` workers, with the
/// serial grain of [`DEFAULT_VERTEX_MAP_GRAIN`] members per thread.
pub fn vertex_map<F>(frontier: &VertexSubset, f: F, threads: usize) -> VertexSubset
where
    F: Fn(VertexId) -> bool + Sync,
{
    vertex_map_with_grain(frontier, f, threads, DEFAULT_VERTEX_MAP_GRAIN)
}

/// [`vertex_map`] with an explicit serial grain: the map runs serially when
/// the frontier has fewer than `grain * threads` members, since forking
/// scoped threads costs more than a small map. A grain of 1 forces the
/// parallel path for any frontier with at least `threads` members.
pub fn vertex_map_with_grain<F>(
    frontier: &VertexSubset,
    f: F,
    threads: usize,
    grain: usize,
) -> VertexSubset
where
    F: Fn(VertexId) -> bool + Sync,
{
    let members = frontier.members();
    let mut out = VertexSubset::new(frontier.capacity());
    let threads = threads.max(1);
    if members.len() < grain.max(1) * threads || threads == 1 {
        for &v in &members {
            if f(v) {
                out.insert(v);
            }
        }
    } else {
        let chunk = members.len().div_ceil(threads);
        let out_ref = &out;
        let f_ref = &f;
        blaze_sync::thread::scope(|s| {
            for slice in members.chunks(chunk) {
                s.spawn(move || {
                    for &v in slice {
                        if f_ref(v) {
                            out_ref.insert(v);
                        }
                    }
                });
            }
        });
    }
    out.seal();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filters_members() {
        let f = VertexSubset::from_members(100, 0..100u32);
        let out = vertex_map(&f, |v| v % 3 == 0, 2);
        assert_eq!(out.len(), 34);
        assert!(out.contains(0));
        assert!(out.contains(99));
        assert!(!out.contains(1));
    }

    #[test]
    fn empty_in_empty_out() {
        let f = VertexSubset::new(10);
        let out = vertex_map(&f, |_| true, 4);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_matches_serial() {
        let f = VertexSubset::from_members(10_000, (0..10_000u32).filter(|v| v % 7 != 0));
        let serial = vertex_map(&f, |v| v % 2 == 0, 1);
        let parallel = vertex_map(&f, |v| v % 2 == 0, 8);
        assert_eq!(serial.members(), parallel.members());
    }

    #[test]
    fn grain_scales_threshold_with_threads() {
        use blaze_sync::atomic::{AtomicU64, Ordering};
        // 100 members, 4 threads: a large grain stays serial, while grain 1
        // forces the forked path. Count the distinct threads that ran `f`
        // to observe which path was taken.
        let f = VertexSubset::from_members(1000, 0..100u32);
        let count_threads = |grain: usize| {
            let main_thread = std::thread::current().id();
            let off_main = AtomicU64::new(0);
            let out = vertex_map_with_grain(
                &f,
                |_| {
                    if std::thread::current().id() != main_thread {
                        off_main.fetch_add(1, Ordering::Relaxed);
                    }
                    true
                },
                4,
                grain,
            );
            assert_eq!(out.len(), 100);
            off_main.load(Ordering::Relaxed)
        };
        assert_eq!(count_threads(1024), 0, "default grain runs serially");
        assert_eq!(count_threads(1), 100, "grain 1 forks workers");
    }

    #[test]
    fn explicit_grain_matches_default_results() {
        let f = VertexSubset::from_members(10_000, 0..10_000u32);
        let a = vertex_map(&f, |v| v % 5 == 0, 4);
        let b = vertex_map_with_grain(&f, |v| v % 5 == 0, 4, 1);
        assert_eq!(a.members(), b.members());
    }

    #[test]
    fn side_effects_run_once_per_member() {
        use blaze_sync::atomic::{AtomicU64, Ordering};
        let calls = AtomicU64::new(0);
        let f = VertexSubset::from_members(5000, 0..5000u32);
        let out = vertex_map(
            &f,
            |_| {
                calls.fetch_add(1, Ordering::Relaxed);
                true
            },
            4,
        );
        assert_eq!(calls.load(Ordering::Relaxed), 5000);
        assert_eq!(out.len(), 5000);
    }
}
