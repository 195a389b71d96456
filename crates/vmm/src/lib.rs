//! # dvc-vmm
//!
//! A Xen-like hypervisor model: virtual machines whose guests are plain
//! `Clone`-able values, so "save" is a deep snapshot of *everything* — the
//! guest's TCP/UDP stacks mid-connection, pending timer deadlines, kernel
//! message ring, watchdog, virtual disk, and every running process.
//!
//! This is exactly the property the paper builds on: *"The Xen virtual
//! machine provides the ability to pause, save, and restart the virtual OS,
//! including the state of all processes running within that OS."*
//!
//! Faithfully-modelled details:
//!
//! * **Time is not virtualized** (paper §3.2): guests read the *host* clock.
//!   Timer deadlines saved inside a snapshot are absolute local-wall-clock
//!   values, so after a restore they are usually in the past and fire
//!   immediately — the retransmit burst that repairs the network cut, and
//!   the wall-time jump that inflates HPL's self-reported runtime.
//! * **The software watchdog** (paper §3.2): each guest runs a watchdog that
//!   must be petted within its period. A save/restore cycle always misses at
//!   least one deadline, producing exactly one kernel message per cycle
//!   ("each save and restoration … caused a watchdog timeout to be
//!   reported. Although this did not affect the execution…").
//! * **Virtualization overhead profiles**: para-virtualized Xen-era CPU/I-O
//!   overhead vs. hardware-assisted (Intel VT / AMD Pacifica) near-native
//!   overhead, the comparison the paper's §4 flags as future work.
//! * **Save/restore cost**: image size = guest memory footprint; the time to
//!   save/restore is the storage transfer time, modelled by `dvc-cluster`'s
//!   shared-storage fair-share model. Memory is size-only: the image carries
//!   the guest's footprint in bytes, not page contents, since the paper saves
//!   all guest memory every time and no workload's result lives in it.

pub mod guest;
pub mod vm;

pub use guest::{GuestCtx, GuestOs, GuestProc, KmsgEntry, ProcPoll, ProcState, VirtDisk, Watchdog};
pub use vm::{OverheadProfile, Vm, VmId, VmImage, VmState};
