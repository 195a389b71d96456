//! Typed observability events — the one structured event channel.
//!
//! Every model layer emits [`Event`]s through [`crate::Sim::emit`] instead of
//! formatting strings at the call site. One emission fans out two ways:
//!
//! * the [`crate::Metrics`] registry counts the event by [`Event::key`] and
//!   feeds its measurement (if any) into a log-scale histogram;
//! * every attached [`crate::EventSink`] observes the typed value, which is
//!   how invariant checkers and exporters subscribe without the emitting
//!   layer knowing. [`Event::jsonl`] is the one text rendering.
//!
//! Identifiers are deliberately raw integers (`vm`/`node`/`vc` as `u32`,
//! `run`/`set`/`job` as `u64`): `dvc-sim-core` sits below the crates that
//! define `VmId`/`NodeId`/`VcId`, and the spine must not invert the crate
//! DAG.

use crate::time::{SimDuration, SimTime};

/// A structured observability event. See the module docs for routing.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    Tcp(TcpEvent),
    Vmm(VmmEvent),
    Lsc(LscEvent),
    Rm(RmEvent),
    Storage(StorageEvent),
    Fault(FaultEvent),
    Ntp(NtpEvent),
    Mpi(MpiEvent),
    Span(SpanEvent),
}

/// Causal span boundaries (see [`crate::span`]). `name` always comes from
/// the [`crate::span::SPAN_NAMES`] registry; `parent` is 0 for roots.
/// Emitted only via [`crate::Sim::open_span`] / [`crate::Sim::close_span`],
/// which short-circuit to nothing when no sink is attached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanEvent {
    Open {
        id: u64,
        parent: u64,
        name: &'static str,
        /// Span-specific payload: the member/vm index for per-node spans,
        /// the run id for `lsc.round`, bytes for storage spans.
        arg: u64,
    },
    Close {
        id: u64,
    },
}

/// Transport anomalies, surfaced from the per-guest TCP stacks when the
/// host layer drains them. `ep` is the emitting endpoint: a `VmId` index in
/// cluster worlds, a host index in net-level test worlds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpEvent {
    Retransmit {
        ep: u32,
    },
    FastRetransmit {
        ep: u32,
    },
    /// A retransmission timer expired (RTO backoff round).
    RtoFired {
        ep: u32,
    },
    ZeroWindowProbe {
        ep: u32,
    },
    ConnAborted {
        ep: u32,
    },
}

/// Hypervisor-side lifecycle events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmmEvent {
    SnapshotBegin {
        vm: u32,
    },
    SnapshotEnd {
        vm: u32,
        bytes: u64,
    },
    /// Page census at snapshot time. Images are size-only, so `dirty` is
    /// always 0 and `total` is the image size in 64 KiB pages. The event
    /// stays because exported `EVENTS_*.jsonl` streams and recorded
    /// event-stream digests include it.
    PagesDirty {
        vm: u32,
        dirty: u64,
        total: u64,
    },
}

/// Coordinated-checkpoint (LSC) lifecycle events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LscEvent {
    /// The coordinator dispatched a save arm to one member.
    ArmSent { run: u64, vc: u32, member: u32 },
    /// A member's guest actually paused and its image was captured.
    SaveFired {
        run: u64,
        vc: u32,
        member: u32,
        vm: u32,
    },
    /// A member's save resolved (image persisted or definitively lost).
    SaveAcked {
        run: u64,
        vc: u32,
        member: u32,
        ok: bool,
    },
    /// Legacy `"lsc"` trace: a stored image failed checksum; re-saving.
    ChecksumResave { vm: u32, attempt: u32 },
    /// Legacy `"lsc"` trace: retries exhausted, the image stays corrupt.
    ChecksumGiveUp { vm: u32, retries: u32 },
    /// Legacy `"lsc"` trace: the save phase failed; members resume unsaved.
    SavePhaseFailed,
    /// The save window closed: every member resolved. `skew` is the spread
    /// of the members' pause instants; `stored` whether a set was kept.
    WindowClosed {
        run: u64,
        vc: u32,
        skew: SimDuration,
        stored: bool,
    },
    /// A checkpoint set entered the store.
    SetStored {
        vc: u32,
        set: u64,
        skew: SimDuration,
    },
    /// A hardened coordinator aborted the attempt pre-fire and re-armed.
    AbortReArm { run: u64, vc: u32, attempt: u32 },
    /// The whole run (save + resume) finished.
    RunFinished { run: u64, vc: u32, success: bool },
}

/// Resource-manager and node-liveness events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RmEvent {
    JobQueued {
        job: u64,
    },
    JobStarted {
        job: u64,
        nodes: Vec<u32>,
    },
    JobCompleted {
        job: u64,
    },
    /// EASY backfill computed the blocked head job's shadow time.
    BackfillReservation {
        head_job: u64,
        shadow: SimTime,
    },
    /// A queued job was started out of order by backfill.
    BackfillStarted {
        job: u64,
    },
    NodeDown {
        node: u32,
    },
    NodeUp {
        node: u32,
    },
}

/// Shared-storage data-path events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageEvent {
    /// Legacy `"fault"` trace: a transfer failed terminally.
    TransferFailed { bytes: u64 },
    /// Legacy `"fault"` trace: a failed transfer is being retried.
    TransferRetry {
        attempt: u32,
        max_attempts: u32,
        bytes: u64,
        backoff: SimDuration,
    },
    /// Legacy `"fault"` trace: a checkpoint image was lost to storage.
    SaveLost { vm: u32 },
    /// Legacy `"fault"` trace: a stored image was silently corrupted.
    ChecksumFail { vm: u32 },
}

/// Fault-plane events (injections and environment boundary crossings).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// A seeded fault fired; `what` is the fault-plan kind key.
    Injected { what: &'static str },
    /// Legacy `"fault"` trace: storage brownout window opened.
    BrownoutBegin { factor: f64 },
    /// Legacy `"fault"` trace: storage brownout window closed.
    BrownoutEnd,
    /// Legacy `"fault"` trace: a host clock was stepped.
    ClockStep { node: u32, step_s: f64 },
    /// Legacy `"fault"` trace: a control message was dropped.
    CtrlDropped { node: u32 },
    /// Legacy `"fault"` trace: a control message was lost to a partition
    /// (`in_flight` distinguishes the loss at send vs. in transit).
    CtrlPartitioned { node: u32, in_flight: bool },
}

/// Time-synchronisation events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NtpEvent {
    /// Legacy `"fault"` trace: an NTP request was consumed by a server
    /// outage. `phys` selects the `p{host}`/`v{host}` address family.
    Unanswered { phys: bool, host: u32 },
    /// Legacy `"rel"` trace: sync too stale, degrading to clock-free.
    SyncStale { vc: u32 },
}

/// MPI harness events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MpiEvent {
    JobLaunched { ranks: u32 },
}

impl Event {
    /// Stable dotted taxonomy key (`"layer.event"`) used to name metrics
    /// counters and JSONL records.
    pub fn key(&self) -> &'static str {
        match self {
            Event::Tcp(e) => match e {
                TcpEvent::Retransmit { .. } => "tcp.retransmit",
                TcpEvent::FastRetransmit { .. } => "tcp.fast_retransmit",
                TcpEvent::RtoFired { .. } => "tcp.rto_fired",
                TcpEvent::ZeroWindowProbe { .. } => "tcp.zero_window_probe",
                TcpEvent::ConnAborted { .. } => "tcp.conn_aborted",
            },
            Event::Vmm(e) => match e {
                VmmEvent::SnapshotBegin { .. } => "vmm.snapshot_begin",
                VmmEvent::SnapshotEnd { .. } => "vmm.snapshot_end",
                VmmEvent::PagesDirty { .. } => "vmm.pages_dirty",
            },
            Event::Lsc(e) => match e {
                LscEvent::ArmSent { .. } => "lsc.arm_sent",
                LscEvent::SaveFired { .. } => "lsc.save_fired",
                LscEvent::SaveAcked { .. } => "lsc.save_acked",
                LscEvent::ChecksumResave { .. } => "lsc.checksum_resave",
                LscEvent::ChecksumGiveUp { .. } => "lsc.checksum_give_up",
                LscEvent::SavePhaseFailed => "lsc.save_phase_failed",
                LscEvent::WindowClosed { .. } => "lsc.window_closed",
                LscEvent::SetStored { .. } => "lsc.set_stored",
                LscEvent::AbortReArm { .. } => "lsc.abort_rearm",
                LscEvent::RunFinished { .. } => "lsc.run_finished",
            },
            Event::Rm(e) => match e {
                RmEvent::JobQueued { .. } => "rm.job_queued",
                RmEvent::JobStarted { .. } => "rm.job_started",
                RmEvent::JobCompleted { .. } => "rm.job_completed",
                RmEvent::BackfillReservation { .. } => "rm.backfill_reservation",
                RmEvent::BackfillStarted { .. } => "rm.backfill_started",
                RmEvent::NodeDown { .. } => "rm.node_down",
                RmEvent::NodeUp { .. } => "rm.node_up",
            },
            Event::Storage(e) => match e {
                StorageEvent::TransferFailed { .. } => "storage.transfer_failed",
                StorageEvent::TransferRetry { .. } => "storage.transfer_retry",
                StorageEvent::SaveLost { .. } => "storage.save_lost",
                StorageEvent::ChecksumFail { .. } => "storage.checksum_fail",
            },
            Event::Fault(e) => match e {
                FaultEvent::Injected { .. } => "fault.injected",
                FaultEvent::BrownoutBegin { .. } => "fault.brownout_begin",
                FaultEvent::BrownoutEnd => "fault.brownout_end",
                FaultEvent::ClockStep { .. } => "fault.clock_step",
                FaultEvent::CtrlDropped { .. } => "fault.ctrl_dropped",
                FaultEvent::CtrlPartitioned { .. } => "fault.ctrl_partitioned",
            },
            Event::Ntp(e) => match e {
                NtpEvent::Unanswered { .. } => "ntp.unanswered",
                NtpEvent::SyncStale { .. } => "ntp.sync_stale",
            },
            Event::Mpi(e) => match e {
                MpiEvent::JobLaunched { .. } => "mpi.job_launched",
            },
            Event::Span(e) => match e {
                SpanEvent::Open { .. } => "span.open",
                SpanEvent::Close { .. } => "span.close",
            },
        }
    }

    /// The measurement this event contributes to a log-scale histogram, if
    /// any: `(histogram key, value)`.
    pub fn measure(&self) -> Option<(&'static str, f64)> {
        match self {
            Event::Vmm(VmmEvent::SnapshotEnd { bytes, .. }) => {
                Some(("vmm.snapshot_bytes", *bytes as f64))
            }
            Event::Vmm(VmmEvent::PagesDirty { dirty, .. }) => {
                Some(("vmm.dirty_pages", *dirty as f64))
            }
            Event::Lsc(LscEvent::WindowClosed { skew, .. }) => {
                Some(("lsc.pause_skew_ns", skew.nanos() as f64))
            }
            Event::Storage(StorageEvent::TransferRetry { backoff, .. }) => {
                Some(("storage.retry_backoff_ns", backoff.nanos() as f64))
            }
            _ => None,
        }
    }

    /// One JSONL record for this event: `{"t":…,"key":…,fields…}`. Field
    /// names mirror the variant fields; no escaping is needed because every
    /// serialized value is numeric or a static identifier.
    pub fn jsonl(&self, t: SimTime) -> String {
        use std::fmt::Write;
        let mut s = format!("{{\"t\":{},\"key\":\"{}\"", t.nanos(), self.key());
        match self {
            Event::Tcp(
                TcpEvent::Retransmit { ep }
                | TcpEvent::FastRetransmit { ep }
                | TcpEvent::RtoFired { ep }
                | TcpEvent::ZeroWindowProbe { ep }
                | TcpEvent::ConnAborted { ep },
            ) => {
                let _ = write!(s, ",\"ep\":{ep}");
            }
            Event::Vmm(e) => match e {
                VmmEvent::SnapshotBegin { vm } => {
                    let _ = write!(s, ",\"vm\":{vm}");
                }
                VmmEvent::SnapshotEnd { vm, bytes } => {
                    let _ = write!(s, ",\"vm\":{vm},\"bytes\":{bytes}");
                }
                VmmEvent::PagesDirty { vm, dirty, total } => {
                    let _ = write!(s, ",\"vm\":{vm},\"dirty\":{dirty},\"total\":{total}");
                }
            },
            Event::Lsc(e) => match e {
                LscEvent::ArmSent { run, vc, member } => {
                    let _ = write!(s, ",\"run\":{run},\"vc\":{vc},\"member\":{member}");
                }
                LscEvent::SaveFired {
                    run,
                    vc,
                    member,
                    vm,
                } => {
                    let _ = write!(
                        s,
                        ",\"run\":{run},\"vc\":{vc},\"member\":{member},\"vm\":{vm}"
                    );
                }
                LscEvent::SaveAcked {
                    run,
                    vc,
                    member,
                    ok,
                } => {
                    let _ = write!(
                        s,
                        ",\"run\":{run},\"vc\":{vc},\"member\":{member},\"ok\":{ok}"
                    );
                }
                LscEvent::ChecksumResave { vm, attempt } => {
                    let _ = write!(s, ",\"vm\":{vm},\"attempt\":{attempt}");
                }
                LscEvent::ChecksumGiveUp { vm, retries } => {
                    let _ = write!(s, ",\"vm\":{vm},\"retries\":{retries}");
                }
                LscEvent::SavePhaseFailed => {}
                LscEvent::WindowClosed {
                    run,
                    vc,
                    skew,
                    stored,
                } => {
                    let _ = write!(
                        s,
                        ",\"run\":{run},\"vc\":{vc},\"skew_ns\":{},\"stored\":{stored}",
                        skew.nanos()
                    );
                }
                LscEvent::SetStored { vc, set, skew } => {
                    let _ = write!(s, ",\"vc\":{vc},\"set\":{set},\"skew_ns\":{}", skew.nanos());
                }
                LscEvent::AbortReArm { run, vc, attempt } => {
                    let _ = write!(s, ",\"run\":{run},\"vc\":{vc},\"attempt\":{attempt}");
                }
                LscEvent::RunFinished { run, vc, success } => {
                    let _ = write!(s, ",\"run\":{run},\"vc\":{vc},\"success\":{success}");
                }
            },
            Event::Rm(e) => match e {
                RmEvent::JobQueued { job }
                | RmEvent::JobCompleted { job }
                | RmEvent::BackfillStarted { job } => {
                    let _ = write!(s, ",\"job\":{job}");
                }
                RmEvent::JobStarted { job, nodes } => {
                    let _ = write!(s, ",\"job\":{job},\"nodes\":[");
                    for (i, n) in nodes.iter().enumerate() {
                        let _ = write!(s, "{}{n}", if i > 0 { "," } else { "" });
                    }
                    s.push(']');
                }
                RmEvent::BackfillReservation { head_job, shadow } => {
                    let _ = write!(s, ",\"head_job\":{head_job},\"shadow\":{}", shadow.nanos());
                }
                RmEvent::NodeDown { node } | RmEvent::NodeUp { node } => {
                    let _ = write!(s, ",\"node\":{node}");
                }
            },
            Event::Storage(e) => match e {
                StorageEvent::TransferFailed { bytes } => {
                    let _ = write!(s, ",\"bytes\":{bytes}");
                }
                StorageEvent::TransferRetry {
                    attempt,
                    max_attempts,
                    bytes,
                    backoff,
                } => {
                    let _ = write!(
                        s,
                        ",\"attempt\":{attempt},\"max\":{max_attempts},\"bytes\":{bytes},\"backoff_ns\":{}",
                        backoff.nanos()
                    );
                }
                StorageEvent::SaveLost { vm } | StorageEvent::ChecksumFail { vm } => {
                    let _ = write!(s, ",\"vm\":{vm}");
                }
            },
            Event::Fault(e) => match e {
                FaultEvent::Injected { what } => {
                    let _ = write!(s, ",\"what\":\"{what}\"");
                }
                FaultEvent::BrownoutBegin { factor } => {
                    let _ = write!(s, ",\"factor\":{factor}");
                }
                FaultEvent::BrownoutEnd => {}
                FaultEvent::ClockStep { node, step_s } => {
                    let _ = write!(s, ",\"node\":{node},\"step_s\":{step_s}");
                }
                FaultEvent::CtrlDropped { node } => {
                    let _ = write!(s, ",\"node\":{node}");
                }
                FaultEvent::CtrlPartitioned { node, in_flight } => {
                    let _ = write!(s, ",\"node\":{node},\"in_flight\":{in_flight}");
                }
            },
            Event::Ntp(e) => match e {
                NtpEvent::Unanswered { phys, host } => {
                    let _ = write!(s, ",\"src\":\"{}{host}\"", if *phys { 'p' } else { 'v' });
                }
                NtpEvent::SyncStale { vc } => {
                    let _ = write!(s, ",\"vc\":{vc}");
                }
            },
            Event::Mpi(MpiEvent::JobLaunched { ranks }) => {
                let _ = write!(s, ",\"ranks\":{ranks}");
            }
            Event::Span(e) => match e {
                SpanEvent::Open {
                    id,
                    parent,
                    name,
                    arg,
                } => {
                    let _ = write!(
                        s,
                        ",\"id\":{id},\"parent\":{parent},\"name\":\"{name}\",\"arg\":{arg}"
                    );
                }
                SpanEvent::Close { id } => {
                    let _ = write!(s, ",\"id\":{id}");
                }
            },
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_is_wellformed_and_keyed() {
        let ev = Event::Lsc(LscEvent::SetStored {
            vc: 0,
            set: 3,
            skew: SimDuration::from_secs(1),
        });
        let line = ev.jsonl(SimTime(42));
        assert_eq!(
            line,
            "{\"t\":42,\"key\":\"lsc.set_stored\",\"vc\":0,\"set\":3,\"skew_ns\":1000000000}"
        );
        let nodes = Event::Rm(RmEvent::JobStarted {
            job: 9,
            nodes: vec![1, 2, 3],
        });
        assert_eq!(
            nodes.jsonl(SimTime(1)),
            "{\"t\":1,\"key\":\"rm.job_started\",\"job\":9,\"nodes\":[1,2,3]}"
        );
        let open = Event::Span(SpanEvent::Open {
            id: 7,
            parent: 2,
            name: "vmm.save",
            arg: 3,
        });
        assert_eq!(
            open.jsonl(SimTime(5)),
            "{\"t\":5,\"key\":\"span.open\",\"id\":7,\"parent\":2,\"name\":\"vmm.save\",\"arg\":3}"
        );
        assert_eq!(
            Event::Span(SpanEvent::Close { id: 7 }).jsonl(SimTime(6)),
            "{\"t\":6,\"key\":\"span.close\",\"id\":7}"
        );
    }
}
