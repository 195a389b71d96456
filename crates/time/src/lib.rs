//! # dvc-time
//!
//! Per-node hardware clock models and NTP-style synchronization, the
//! substrate behind the paper's *NTP-scheduled* Lazy Synchronous
//! Checkpointing prototype.
//!
//! The simulation has one **true time** axis ([`dvc_sim_core::SimTime`]).
//! Every physical node owns a [`clock::HwClock`] whose *local* reading drifts
//! away from true time (initial offset, frequency error, random wander).
//! [`ntp`] implements the client math of a Mills-style synchronization
//! protocol — four-timestamp offset/delay estimation, an 8-sample clock
//! filter, and a step/slew discipline — which, over a LAN-like link, keeps
//! residual clock error in the low milliseconds, matching the paper's
//! "network time protocols can synchronize time to within a few
//! milliseconds" (citing Mills).
//!
//! The DVC checkpoint agent then uses [`clock::HwClock::true_delay_until_local`]
//! to arm a save at a common *local-clock* instant; the residual sync error
//! is exactly the pause skew LSC must tolerate.

pub mod clock;
pub mod ntp;

pub use clock::{HwClock, LocalNs};
pub use ntp::{offset_delay, Discipline, NtpSample};
