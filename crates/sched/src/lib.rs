//! # tapesim-sched
//!
//! Retrieval scheduling algorithms for tape jukeboxes, implementing
//! Section 3 of *Scheduling and Data Replication to Improve Tape Jukebox
//! Performance* (ICDE 1999):
//!
//! * the trivial [`FifoScheduler`];
//! * five *static* and five *dynamic* algorithms parameterized by a
//!   [`TapeSelectPolicy`] ([`StaticScheduler`], [`DynamicScheduler`]);
//! * the globally-optimizing [`EnvelopeScheduler`] with three tape-switch
//!   variants ([`EnvelopePolicy`]).
//!
//! Every algorithm implements the [`Scheduler`] trait — a *major
//! rescheduler* invoked at tape-switch time and an *incremental scheduler*
//! invoked for arrivals during a sweep (Section 2.2's service model).
//! Every major rescheduler reads the pending list through one
//! [`CopyIndex`], built once per call: each tape's copies of the pending
//! requests, sorted by slot. Sweep costs and effective bandwidths are
//! computed with the exact Section 2.1 timing model via the [`cost`]
//! module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cost;
pub mod ec;
pub mod envelope;
pub mod families;
pub mod fifo;
pub mod index;
pub mod optimal;
pub mod registry;
pub mod select;

pub use api::{
    ArrivalOutcome, FleetView, JukeboxView, PendingList, ScheduledRead, Scheduler, ServiceList,
    SweepPhase, SweepPlan,
};
pub use cost::{effective_bandwidth, execution_cost, mount_cost, start_head, walk_cost};
pub use ec::{choose_shards, read_envelope, shard_pick_cost};
pub use envelope::{
    compute_upper_envelope, compute_upper_envelope_fresh, prefix_cost, EnvelopePolicy,
    EnvelopeScheduler, ExtensionCache, UpperEnvelope,
};
pub use families::{DynamicScheduler, StaticScheduler};
pub use fifo::FifoScheduler;
pub use index::{CopyEntry, CopyIndex};
pub use registry::{make_scheduler, AlgorithmId};
pub use select::TapeSelectPolicy;
