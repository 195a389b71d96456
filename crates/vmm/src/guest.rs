//! Guest operating-system state: processes, kernel log, watchdog, disk.
//!
//! Everything here is `Clone`; cloning a [`GuestOs`] *is* taking a VM
//! snapshot. Guest applications implement [`GuestProc`] — a resumable state
//! machine polled by the host glue — and keep all of their state in `self`,
//! which makes them checkpoint for free.

use dvc_net::tcp::{LocalNs, TcpStack};
use dvc_net::udp::UdpStack;
use dvc_net::Addr;
use dvc_sim_core::SimDuration;
use std::sync::Arc;

/// Result of polling a guest process.
#[derive(Clone, Debug, PartialEq)]
pub enum ProcPoll {
    /// The process wants to burn this much guest CPU time, then run again.
    /// (The glue stretches it by the VM's virtualization overhead factor.)
    Compute(SimDuration),
    /// The process is waiting on socket readiness; re-poll on network events.
    Blocked,
    /// The process sleeps until the given guest (= host) wall-clock instant.
    SleepUntil(LocalNs),
    /// Finished successfully.
    Done,
    /// Crashed; the reason is recorded on the process.
    Failed(String),
}

/// Scheduler-visible process state.
#[derive(Clone, Debug, PartialEq)]
pub enum ProcState {
    Runnable,
    Blocked,
    Sleeping(LocalNs),
    Done,
    Failed(String),
}

impl ProcState {
    pub fn is_live(&self) -> bool {
        matches!(
            self,
            ProcState::Runnable | ProcState::Blocked | ProcState::Sleeping(_)
        )
    }
}

/// What a process sees of its kernel when polled.
pub struct GuestCtx<'a> {
    /// Guest wall-clock "now" (host clock: time is not virtualized).
    pub now: LocalNs,
    pub tcp: &'a mut TcpStack,
    pub udp: &'a mut UdpStack,
    pub disk: &'a mut VirtDisk,
    pub kmsg: &'a mut Vec<KmsgEntry>,
}

/// A resumable guest application. `poll` is called whenever the process is
/// runnable, a socket event arrived, or its sleep/compute finished; all state
/// must live in `self` so snapshots capture it.
pub trait GuestProc: 'static {
    fn poll(&mut self, ctx: &mut GuestCtx<'_>) -> ProcPoll;
    fn clone_box(&self) -> Box<dyn GuestProc>;
    fn name(&self) -> &str {
        "proc"
    }
    /// Downcast support for tests / result extraction.
    fn as_any(&self) -> &dyn std::any::Any;
}

impl Clone for Box<dyn GuestProc> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// One process table entry.
#[derive(Clone)]
pub struct Process {
    pub name: String,
    pub state: ProcState,
    /// Guest-scheduler bookkeeping: wall-clock instant at which the current
    /// compute slice completes (part of the snapshot, like a kernel's
    /// runqueue deadline). A restore with jumped wall time treats an expired
    /// deadline as complete — an error bounded by one compute slice.
    pub compute_due: Option<LocalNs>,
    pub app: Box<dyn GuestProc>,
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Process({} {:?})", self.name, self.state)
    }
}

/// A kernel log line. The text is refcounted so snapshotting a guest clones
/// the ring at pointer cost instead of re-allocating every line.
#[derive(Clone, Debug, PartialEq)]
pub struct KmsgEntry {
    pub at: LocalNs,
    pub msg: Arc<str>,
}

/// Guest kernel message ring bound.
pub(crate) const KMSG_CAP: usize = 4096;

/// The guest software watchdog (paper §3.2). It must be petted at least once
/// per `period_ns` of *wall* time; a save/restore cycle jumps wall time and
/// therefore always trips it exactly once.
#[derive(Clone, Debug)]
pub struct Watchdog {
    pub period_ns: i64,
    pub last_pet: LocalNs,
    pub timeouts: u32,
}

impl Watchdog {
    pub fn new(period_ns: i64) -> Self {
        Watchdog {
            period_ns,
            last_pet: 0,
            timeouts: 0,
        }
    }

    pub fn pet(&mut self, now: LocalNs) {
        self.last_pet = now;
    }

    /// Check for expiry; returns `true` (once) per missed period.
    pub fn check(&mut self, now: LocalNs) -> bool {
        if now - self.last_pet > self.period_ns {
            self.timeouts += 1;
            self.last_pet = now;
            true
        } else {
            false
        }
    }
}

/// A local virtual block device with a serial bandwidth model — used by
/// application-level checkpointing (workloads writing their own state).
#[derive(Clone, Debug)]
pub struct VirtDisk {
    /// Sustained write bandwidth, bytes/s.
    pub write_bps: f64,
    /// Device busy-until, in guest wall-clock ns.
    busy_until: LocalNs,
    pub bytes_written: u64,
}

impl VirtDisk {
    pub fn new(write_bps: f64) -> Self {
        VirtDisk {
            write_bps,
            busy_until: 0,
            bytes_written: 0,
        }
    }

    /// Issue a write of `bytes`; returns the completion instant (guest wall
    /// clock). Writes are serialized FIFO on the device.
    pub fn write(&mut self, now: LocalNs, bytes: u64) -> LocalNs {
        let start = now.max(self.busy_until);
        let dur = (bytes as f64 / self.write_bps * 1e9) as i64;
        self.busy_until = start + dur;
        self.bytes_written += bytes;
        self.busy_until
    }
}

/// The complete guest operating system state.
#[derive(Clone)]
pub struct GuestOs {
    pub addr: Addr,
    pub tcp: TcpStack,
    pub udp: UdpStack,
    pub procs: Vec<Process>,
    pub kmsg: Vec<KmsgEntry>,
    pub watchdog: Watchdog,
    pub disk: VirtDisk,
    /// Wall-clock instant at which the guest was suspended (part of the
    /// snapshot). On resume, in-progress compute slices are shifted by the
    /// suspension length — a paused vCPU does no work — while wall-clock
    /// alarms (`SleepUntil`) are NOT shifted: time is not virtualized, so a
    /// restored guest finds those deadlines already expired.
    pub suspended_at: Option<LocalNs>,
}

impl GuestOs {
    pub fn new(addr: Addr, tcp_cfg: dvc_net::tcp::TcpConfig) -> Self {
        GuestOs {
            addr,
            tcp: TcpStack::new(addr, tcp_cfg),
            udp: UdpStack::new(addr),
            procs: Vec::new(),
            kmsg: Vec::new(),
            watchdog: Watchdog::new(30_000_000_000), // 30 s period
            disk: VirtDisk::new(80.0e6),             // 80 MB/s scratch disk
            suspended_at: None,
        }
    }

    /// Record the suspension instant (called by the hypervisor on pause).
    pub fn note_suspend(&mut self, now: LocalNs) {
        self.suspended_at = Some(now);
    }

    /// Shift in-progress compute slices by the suspension length; returns
    /// the wall delta, if the guest was indeed suspended.
    pub fn note_resume(&mut self, now: LocalNs) -> Option<LocalNs> {
        let t0 = self.suspended_at.take()?;
        let delta = (now - t0).max(0);
        for p in &mut self.procs {
            if let Some(due) = &mut p.compute_due {
                *due += delta;
            }
        }
        Some(delta)
    }

    /// Spawn a process; returns its index.
    pub fn spawn(&mut self, name: impl Into<String>, app: Box<dyn GuestProc>) -> usize {
        self.procs.push(Process {
            name: name.into(),
            state: ProcState::Runnable,
            compute_due: None,
            app,
        });
        self.procs.len() - 1
    }

    /// Append to the kernel log (bounded ring).
    pub(crate) fn log_kmsg(&mut self, at: LocalNs, msg: impl Into<String>) {
        if self.kmsg.len() >= KMSG_CAP {
            self.kmsg.remove(0);
        }
        self.kmsg.push(KmsgEntry {
            at,
            msg: msg.into().into(),
        });
    }

    /// Poll process `idx` and update its recorded state.
    /// Returns the poll result, or `None` if the process is not live.
    pub fn poll_proc(&mut self, idx: usize, now: LocalNs) -> Option<ProcPoll> {
        let GuestOs {
            tcp,
            udp,
            procs,
            kmsg,
            disk,
            ..
        } = self;
        let proc = procs.get_mut(idx)?;
        if !proc.state.is_live() {
            return None;
        }
        let mut ctx = GuestCtx {
            now,
            tcp,
            udp,
            disk,
            kmsg,
        };
        let poll = proc.app.poll(&mut ctx);
        proc.state = match &poll {
            ProcPoll::Compute(_) => ProcState::Runnable,
            ProcPoll::Blocked => ProcState::Blocked,
            ProcPoll::SleepUntil(t) => ProcState::Sleeping(*t),
            ProcPoll::Done => ProcState::Done,
            ProcPoll::Failed(e) => ProcState::Failed(e.clone()),
        };
        Some(poll)
    }

    /// First failure recorded on any process, if any.
    pub fn first_failure(&self) -> Option<(&str, &str)> {
        self.procs.iter().find_map(|p| match &p.state {
            ProcState::Failed(e) => Some((p.name.as_str(), e.as_str())),
            _ => None,
        })
    }

    /// All processes finished successfully.
    pub fn all_done(&self) -> bool {
        !self.procs.is_empty() && self.procs.iter().all(|p| p.state == ProcState::Done)
    }

    /// Watchdog bookkeeping at instant `now`; logs a kmsg on expiry.
    /// Returns whether a timeout fired.
    pub fn watchdog_check(&mut self, now: LocalNs) -> bool {
        if self.watchdog.check(now) {
            self.log_kmsg(
                now,
                format!(
                    "watchdog: BUG: soft lockup - CPU stuck (missed period #{})",
                    self.watchdog.timeouts
                ),
            );
            true
        } else {
            false
        }
    }
}

impl std::fmt::Debug for GuestOs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GuestOs({:?}, {} procs, {} kmsg, wd_timeouts={})",
            self.addr,
            self.procs.len(),
            self.kmsg.len(),
            self.watchdog.timeouts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvc_net::addr::VirtAddr;
    use dvc_net::tcp::TcpConfig;

    /// A tiny test app: computes three slices then exits.
    #[derive(Clone)]
    struct ThreeSteps {
        left: u32,
    }

    impl GuestProc for ThreeSteps {
        fn poll(&mut self, _ctx: &mut GuestCtx<'_>) -> ProcPoll {
            if self.left == 0 {
                ProcPoll::Done
            } else {
                self.left -= 1;
                ProcPoll::Compute(SimDuration::from_millis(10))
            }
        }
        fn clone_box(&self) -> Box<dyn GuestProc> {
            Box::new(self.clone())
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn guest() -> GuestOs {
        GuestOs::new(VirtAddr(1).into(), TcpConfig::default())
    }

    #[test]
    fn spawn_and_poll_to_completion() {
        let mut g = guest();
        let idx = g.spawn("steps", Box::new(ThreeSteps { left: 3 }));
        assert!(g.procs[idx].state.is_live());
        let mut polls = 0;
        while g.procs[idx].state.is_live() {
            g.poll_proc(idx, 0).unwrap();
            polls += 1;
            assert!(polls < 10);
        }
        assert_eq!(polls, 4); // 3 computes + final Done
        assert!(g.all_done());
        assert!(!g.procs[idx].state.is_live());
    }

    #[test]
    fn snapshot_is_independent_deep_copy() {
        let mut g = guest();
        let idx = g.spawn("steps", Box::new(ThreeSteps { left: 3 }));
        g.poll_proc(idx, 0); // left: 3 -> 2
        let snap = g.clone();
        // Drive the original to completion.
        while g.procs[idx].state.is_live() {
            g.poll_proc(idx, 0);
        }
        assert!(g.all_done());
        // The snapshot still has 2 steps left: resume it independently.
        let mut restored = snap;
        assert!(restored.procs[idx].state.is_live());
        let mut polls = 0;
        while restored.procs[idx].state.is_live() {
            restored.poll_proc(idx, 0);
            polls += 1;
        }
        assert_eq!(polls, 3); // 2 computes + Done
    }

    #[test]
    fn failed_proc_is_reported() {
        #[derive(Clone)]
        struct Crasher;
        impl GuestProc for Crasher {
            fn poll(&mut self, _ctx: &mut GuestCtx<'_>) -> ProcPoll {
                ProcPoll::Failed("segfault".into())
            }
            fn clone_box(&self) -> Box<dyn GuestProc> {
                Box::new(self.clone())
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        let mut g = guest();
        let idx = g.spawn("crasher", Box::new(Crasher));
        g.poll_proc(idx, 0);
        let (name, err) = g.first_failure().unwrap();
        assert_eq!(name, "crasher");
        assert_eq!(err, "segfault");
        assert!(!g.all_done());
        // polling a dead process is a no-op
        assert!(g.poll_proc(idx, 0).is_none());
    }

    #[test]
    fn watchdog_fires_once_per_gap() {
        let mut g = guest();
        g.watchdog.pet(0);
        // Within period: nothing.
        assert!(!g.watchdog_check(29_000_000_000));
        // Wall clock jumps by 100 s (a save/restore cycle): one timeout.
        assert!(g.watchdog_check(129_000_000_000));
        assert!(!g.watchdog_check(129_500_000_000));
        assert_eq!(g.watchdog.timeouts, 1);
        assert_eq!(g.kmsg.len(), 1);
        assert!(g.kmsg[0].msg.contains("watchdog"));
    }

    #[test]
    fn disk_serializes_writes() {
        let mut d = VirtDisk::new(100.0e6); // 100 MB/s
        let c1 = d.write(0, 50_000_000); // 0.5 s
        let c2 = d.write(0, 50_000_000); // queued behind: 1.0 s
        assert_eq!(c1, 500_000_000);
        assert_eq!(c2, 1_000_000_000);
        // A later write starts fresh.
        let c3 = d.write(2_000_000_000, 100_000_000);
        assert_eq!(c3, 3_000_000_000);
        assert_eq!(d.bytes_written, 200_000_000);
    }

    #[test]
    fn kmsg_ring_is_bounded() {
        let mut g = guest();
        for i in 0..(KMSG_CAP + 10) {
            g.log_kmsg(i as LocalNs, "x");
        }
        assert_eq!(g.kmsg.len(), KMSG_CAP);
        assert_eq!(g.kmsg[0].at, 10);
    }
}
