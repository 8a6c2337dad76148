//! Trace-driven performance model of out-of-core graph engines.
//!
//! # Why a model
//!
//! The paper's phenomena — straggler threads idling an Optane SSD
//! (Figure 2), per-disk IO skew (Figure 3), thread scaling to 16 cores
//! (Figure 9) — are properties of a 20-core machine driving a 2.5 GB/s
//! device. This reproduction executes every engine *functionally* on
//! whatever hardware runs the tests and records, per iteration, exactly
//! how much work of each kind happened (bytes and requests per device,
//! edges scattered, records per bin, messages per thread). This crate
//! replays those measured quantities on a virtual machine with the
//! paper's core count and the Table I device profiles, using calibrated
//! per-operation costs. The *work* is real; only the time axis is
//! modeled.
//!
//! # Per-system models
//!
//! * **Blaze** — IO, scatter, and gather phases fully pipeline; iteration
//!   time is the max of the three, plus the frontier transform. Gather
//!   work balances across threads at bin granularity.
//! * **Sync variant** — no gather threads; every record pays a CAS whose
//!   cost grows with destination skew (hub contention).
//! * **FlashGraph** — edge processing overlaps IO, but the per-thread
//!   message queues (`dst % threads`) drain in a separate phase whose
//!   length is set by the *straggler* thread; the device idles meanwhile.
//! * **Graphene** — one IO and one compute thread per disk; each disk's
//!   pipeline is throttled by its slower side, and the iteration ends when
//!   the most-loaded disk finishes (skewed IO).

// The unsafe-audit rule (cargo xtask lint) keys off this: crates that
// need no unsafe code forbid it outright, so the audit scope cannot
// silently grow.
#![forbid(unsafe_code)]

pub mod calibrate;
pub mod costs;
pub mod machine;
pub mod systems;
pub mod timeline;

pub use calibrate::calibrated_cost_model;
pub use costs::CostModel;
pub use machine::MachineConfig;
pub use systems::{IterationTiming, PerfModel, QueryTiming};
pub use timeline::{Timeline, TimelineSegment};
