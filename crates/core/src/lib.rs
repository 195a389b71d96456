//! # dvc-core — Dynamic Virtual Clustering
//!
//! The paper's contribution: virtual clusters over physical clusters, with
//! **Lazy Synchronous Checkpointing (LSC)** for completely transparent
//! parallel checkpoint / restore / migration.
//!
//! * [`vc`] — virtual-cluster lifecycle: provisioning (image staging over
//!   shared storage, boot), the three mapping modes of the paper's Figure 1
//!   (direct, subset, spanning multiple clusters), and the checkpoint-set
//!   store.
//! * [`lsc`] — the checkpoint coordinators:
//!   - **naive** (paper §3.1): serialized terminal fan-out whose dispatch
//!     skew grows linearly with node count — failures *emerge* when the
//!     first-paused guest's peers exhaust their TCP retry budget;
//!   - **NTP-scheduled** (paper §3.1, the working prototype): agents armed
//!     ahead of time fire `vm save` at a shared local-clock instant, so
//!     pause skew collapses to residual clock error (milliseconds);
//!   - **hardened** (paper §4 future work): arm acknowledgements, pre-fire
//!     abort on missing acks, per-image verification and bounded retry —
//!     what "scaling to hundreds or even thousands of nodes" requires;
//!   - **hardened-naive**: the hardened protocol without the clock — arm
//!     every agent, collect acks, broadcast GO — which the reliability
//!     manager degrades to while NTP sync is stale.
//!
//!   Restores stage every image, then resume everyone together at one
//!   shared NTP-scheduled instant. A restore onto a different node set is
//!   how a VC migrates.
//! * [`reliability`] — periodic checkpointing (fixed interval or Young's
//!   optimum), failure detection, and automatic restore onto surviving
//!   nodes — "if a single physical node dies, we can restart a checkpoint
//!   of the entire virtual cluster on a different set of physical nodes".

pub mod lsc;
pub mod reliability;
pub mod vc;

pub use lsc::RestoreOutcome;
pub use lsc::{checkpoint_vc, restore_vc, restore_vc_intact, LscMethod, LscOutcome, RestoreError};
pub use vc::{provision_vc, CheckpointSet, CheckpointStore, VcId, VcSpec, VirtualCluster};
