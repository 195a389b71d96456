//! # dvc-mpi
//!
//! An MPI-flavoured message-passing runtime that runs *inside guests* over
//! the simulated TCP stack — the workload layer whose transparent
//! checkpointing DVC exists to provide.
//!
//! Architecture:
//!
//! * [`data`] — [`data::RankData`], a rank's named value store, and the wire
//!   encoding of [`data::Value`]s. Everything is `Clone`, so a whole-VM
//!   snapshot carries rank state for free.
//! * [`ops`] — rank programs are [`ops::Op`] scripts: compute, tagged
//!   send/recv, data transforms (`Apply`) and dynamic expansion (`Gen`) via
//!   plain `fn` pointers (keeping programs `Clone` without any serialization
//!   framework).
//! * [`collectives`] — barrier (dissemination), broadcast (binomial tree),
//!   reduce/allreduce, gather, and all-to-all (pairwise exchange), each
//!   expanded into point-to-point ops.
//! * [`runtime`] — [`runtime::MpiRuntime`], a [`dvc_vmm::GuestProc`]: eager
//!   full-mesh connection establishment with rank hellos, length-prefixed
//!   message framing with per-peer reassembly, a tag/source-matched inbox,
//!   and the script executor.
//! * [`harness`] — helpers that build a virtual cluster of single-rank VMs
//!   and launch a program on it (used by workloads, dvc-core, tests and
//!   benches).

pub mod collectives;
pub mod data;
pub mod harness;
pub mod ops;
pub mod runtime;

pub use data::{RankData, Value};
pub use ops::Op;
pub use runtime::{MpiRuntime, RankMap};
