//! Property-based tests of the threaded IO backend: for any page set,
//! merge window, and queue depth, pumping the merged requests through
//! [`ThreadedBackend`] — inline, or handed to its helpers with completions
//! arriving in any order, or switching between the two after every
//! completion — must return exactly the bytes the synchronous
//! [`StripedStorage::read_local_run`] oracle reads, once per request, with
//! no buffer lost.

use proptest::prelude::*;

use blaze_storage::request::merge_pages_with_window;
use blaze_storage::{IoBackend, IoBuffer, StripedStorage, ThreadedBackend};
use blaze_sync::Arc;
use blaze_types::PAGE_SIZE;

/// Storage of `pages_per_device * devices` global pages, each filled with
/// its global id.
fn storage(devices: usize, pages_per_device: u64) -> Arc<StripedStorage> {
    let s = Arc::new(StripedStorage::in_memory(devices).unwrap());
    for p in 0..pages_per_device * devices as u64 {
        s.write_page(p, &vec![p as u8; PAGE_SIZE]).unwrap();
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn threaded_completions_match_the_sync_oracle(
        devices in 1usize..4,
        pages_per_device in 1u64..48,
        queue_depth in 1usize..17,
        window in 1usize..6,
        mask in 0u64..=u64::MAX,
        // Inline throughout (as on a fast device), handed to the helpers
        // throughout, or switching: bit i of `mode_bits` says where the
        // reads after the i-th completion go.
        mode_kind in 0u8..3,
        mode_bits in 0u64..=u64::MAX,
    ) {
        let modes = match mode_kind {
            0 => 0,
            1 => u64::MAX,
            _ => mode_bits,
        };
        let s = storage(devices, pages_per_device);
        let backend = ThreadedBackend::new(s.clone(), queue_depth);
        for device in 0..devices {
            // A random subset of the device's local pages, ascending.
            let locals: Vec<u64> = (0..pages_per_device)
                .filter(|p| mask >> (p % 64) & 1 == 1)
                .collect();
            let requests = merge_pages_with_window(&locals, window);
            let mut next = 0usize;
            let mut in_flight = 0usize;
            let mut completed = vec![false; requests.len()];
            let mut reaped = 0usize;
            while next < requests.len() || in_flight > 0 {
                backend.force_mode(device, modes >> (reaped % 64) & 1 == 1);
                while in_flight < queue_depth && next < requests.len() {
                    let buffer = IoBuffer::with_pages(window);
                    backend.submit(device, requests[next], buffer, next as u64);
                    next += 1;
                    in_flight += 1;
                }
                if in_flight == 0 {
                    break;
                }
                let c = backend.reap(device);
                in_flight -= 1;
                reaped += 1;
                prop_assert!(c.result.is_ok(), "in-range read failed: {:?}", c.result);
                let tag = c.tag as usize;
                prop_assert!(!completed[tag], "request {tag} completed twice");
                completed[tag] = true;
                prop_assert_eq!(c.request, requests[tag], "completion carries its request");
                let n = c.request.num_pages as usize;
                let mut oracle = vec![0u8; n * PAGE_SIZE];
                s.read_local_run(device, c.request.first_page, &mut oracle).unwrap();
                prop_assert_eq!(
                    c.buffer.pages(n),
                    &oracle[..],
                    "device {} run at {} x{}",
                    device,
                    c.request.first_page,
                    n
                );
            }
            prop_assert!(completed.iter().all(|&d| d), "every request completes");
            prop_assert!(backend.try_reap(device).is_none(), "no stray completions");
        }
    }
}
