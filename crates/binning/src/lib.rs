//! Online binning (Section IV-A): atomic-free value propagation between
//! scatter and gather threads.
//!
//! A *bin record* is a `(dst_vertex, value)` pair produced by an
//! algorithm's scatter function. Records are routed by destination range:
//! bin `(dst >> shift) % bin_count`, where a space built for `n` vertices
//! takes `shift = floor(log2(n / bin_count))`, so each bin owns one or two
//! contiguous slices of the vertex arrays (the paper routes `dst %
//! bin_count`, which [`BinSpace::new`] keeps for a space with no vertex
//! count). Each [`Bin`] owns a *pair* of fixed-capacity buffers:
//! scatter threads append into the active buffer (batched through a small
//! per-thread [`ScatterStaging`] to amortize the bin lock, as in
//! propagation blocking); when it fills, the buffer is pushed onto the
//! MPMC `full_bins` queue and the spare buffer takes over, so scatter and
//! gather both keep making progress. A per-bin gather lock guarantees that
//! **no two gather threads ever process the same bin concurrently** — which
//! is the whole trick: all records for a destination vertex live in one
//! bin, so gather can update vertex data with plain stores, no
//! compare-and-swap, while the MPMC queue balances bins across gather
//! threads dynamically. When both buffers of a bin are out, the paper's
//! scatter thread blocks; here a scatter thread that passes its gather
//! function applies queued full buffers itself until the bin has room
//! ([`BinSpace::append_batch`]), under the same per-bin gather lock.

pub mod bin;
pub mod config;
pub mod record;
pub mod space;
pub mod staging;

pub use bin::Bin;
pub use config::BinningConfig;
pub use record::{BinRecord, BinValue};
pub use space::{no_gather, BinSpace};
pub use staging::ScatterStaging;
