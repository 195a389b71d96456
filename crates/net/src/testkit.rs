//! A miniature host/world harness for exercising the network stack.
//!
//! This is *test infrastructure with production semantics*: it implements
//! the same glue pattern `dvc-cluster` uses for real guests — drain stack
//! outputs into the fabric, surface socket events, and keep exactly one
//! timer interrupt armed per host (re-arming cancels the previously armed
//! event rather than letting it fire stale). It also models **host
//! pause/resume and snapshot/restore** of a TCP stack, which is how the unit
//! tests here reproduce the paper's two network-cut scenarios at the
//! sequence-number level before any hypervisor exists.
//!
//! Kept in the library (not `#[cfg(test)]`) so downstream crates' tests and
//! benches can reuse it.

use crate::addr::{Addr, NicId, PhysAddr};
use crate::fabric::{self, Fabric, LinkParams, NetWorld};
use crate::packet::{Packet, L4};
use crate::tcp::{LocalNs, SockEvent, SockId, StackOutput, TcpConfig, TcpStack};
use crate::udp::UdpStack;
use dvc_sim_core::{EventHandle, Sim, SimTime};

/// A one-shot packet filter: drops up to `remaining` packets matching `pred`.
pub struct DropRule {
    pub remaining: u32,
    pub pred: fn(&Packet) -> bool,
    pub dropped: u32,
}

/// One simulated host: a TCP + UDP stack behind a NIC.
pub struct Host {
    pub addr: Addr,
    pub nic: NicId,
    pub tcp: TcpStack,
    pub udp: UdpStack,
    /// While paused, inbound packets are dropped and timers do not fire —
    /// exactly a suspended guest.
    pub paused: bool,
    /// The armed timer interrupt, if any (cancelled on re-arm/pause).
    timer_arm: Option<EventHandle>,
    /// App-visible socket events, in order.
    pub events: Vec<(SockId, SockEvent)>,
}

/// The test world: a fabric plus N hosts on one switch.
pub struct TestWorld {
    pub fabric: Fabric,
    pub hosts: Vec<Host>,
    pub drop_rules: Vec<DropRule>,
    /// When true, every TCP segment *emitted* by any host's stack is
    /// appended to `seg_log` as `"h<i> tcp[...]"` — the golden-trace tests
    /// pin the sender path (seq/ack/flags/len/wnd) against this log.
    pub log_segments: bool,
    pub seg_log: Vec<String>,
}

impl TestWorld {
    /// Build `n` hosts on a single switch with `edge` links.
    pub fn new(n: usize, edge: LinkParams, tcp_cfg: TcpConfig) -> Self {
        let mut fabric = Fabric::new();
        let sw = fabric.add_switch();
        let mut hosts = Vec::with_capacity(n);
        for i in 0..n {
            let addr: Addr = PhysAddr(i as u32).into();
            let nic = fabric.add_nic(sw, edge);
            fabric.bind(addr, nic);
            hosts.push(Host {
                addr,
                nic,
                tcp: TcpStack::new(addr, tcp_cfg),
                udp: UdpStack::new(addr),
                paused: false,
                timer_arm: None,
                events: Vec::new(),
            });
        }
        TestWorld {
            fabric,
            hosts,
            drop_rules: Vec::new(),
            log_segments: false,
            seg_log: Vec::new(),
        }
    }

    pub fn host_by_nic(&self, nic: NicId) -> Option<usize> {
        self.hosts.iter().position(|h| h.nic == nic)
    }
}

impl NetWorld for TestWorld {
    fn fabric(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    fn deliver(sim: &mut Sim<Self>, nic: NicId, pkt: Packet) {
        // One-shot drop rules (for forcing specific losses in tests).
        for rule in &mut sim.world.drop_rules {
            if rule.remaining > 0 && (rule.pred)(&pkt) {
                rule.remaining -= 1;
                rule.dropped += 1;
                return;
            }
        }
        let Some(h) = sim.world.host_by_nic(nic) else {
            return;
        };
        if sim.world.hosts[h].paused {
            // A suspended guest's vif: frames vanish.
            return;
        }
        let now = local_now(sim);
        match pkt.l4 {
            L4::Tcp(seg) => sim.world.hosts[h].tcp.on_segment(now, pkt.src, seg),
            L4::Udp(dgram) => {
                sim.world.hosts[h].udp.on_datagram(pkt.src, dgram);
            }
        }
        drain(sim, h);
    }
}

/// Test hosts run perfect clocks: local time == true time.
pub fn local_now(sim: &Sim<TestWorld>) -> LocalNs {
    sim.now().nanos() as LocalNs
}

/// Drain a host's stack outputs into the fabric / event log, then re-arm its
/// timer interrupt. Call after every stack entry point.
pub fn drain(sim: &mut Sim<TestWorld>, h: usize) {
    loop {
        let outputs: Vec<StackOutput> = std::mem::take(&mut sim.world.hosts[h].tcp.out);
        let udp_out: Vec<Packet> = std::mem::take(&mut sim.world.hosts[h].udp.out);
        if outputs.is_empty() && udp_out.is_empty() {
            break;
        }
        for o in outputs {
            match o {
                StackOutput::Packet(p) => {
                    if sim.world.log_segments {
                        if let L4::Tcp(seg) = &p.l4 {
                            sim.world.seg_log.push(format!("h{h} {seg:?}"));
                        }
                    }
                    fabric::send(sim, p)
                }
                StackOutput::Event(sock, ev) => sim.world.hosts[h].events.push((sock, ev)),
            }
        }
        for p in udp_out {
            fabric::send(sim, p);
        }
    }
    // Surface noted transport anomalies on the typed event spine, exactly
    // like the cluster glue does for guest stacks (`ep` = host index here).
    if sim.world.hosts[h].tcp.has_notes() {
        let notes = sim.world.hosts[h].tcp.take_notes();
        let ep = h as u32;
        for n in notes {
            sim.emit(dvc_sim_core::Event::Tcp(n.event(ep)));
        }
    }
    rearm_timer(sim, h);
}

/// Keep exactly one timer interrupt armed at the stack's next deadline:
/// re-arming cancels the previously armed event.
pub fn rearm_timer(sim: &mut Sim<TestWorld>, h: usize) {
    if let Some(arm) = sim.world.hosts[h].timer_arm.take() {
        sim.cancel(arm);
    }
    let Some(deadline) = sim.world.hosts[h].tcp.next_deadline() else {
        return;
    };
    let at = SimTime((deadline.max(0)) as u64);
    let arm = sim.schedule_at(at, move |sim| {
        // This is the armed interrupt firing: clear the slot so a later
        // re-arm doesn't cancel an already-fired handle.
        sim.world.hosts[h].timer_arm = None;
        if sim.world.hosts[h].paused {
            return;
        }
        let now = local_now(sim);
        sim.world.hosts[h].tcp.on_timer(now);
        drain(sim, h);
    });
    sim.world.hosts[h].timer_arm = Some(arm);
}

/// Pause a host (guest suspended: no delivery, no timers).
pub fn pause(sim: &mut Sim<TestWorld>, h: usize) {
    sim.world.hosts[h].paused = true;
    if let Some(arm) = sim.world.hosts[h].timer_arm.take() {
        sim.cancel(arm); // kill armed interrupt
    }
}

/// Resume a paused host; expired deadlines fire immediately (non-virtualized
/// time: the guest sees the wall clock jump).
pub fn resume(sim: &mut Sim<TestWorld>, h: usize) {
    sim.world.hosts[h].paused = false;
    let now = local_now(sim);
    sim.world.hosts[h].tcp.on_timer(now);
    drain(sim, h);
}

/// Snapshot a host's entire network state (what a VM save captures).
pub fn snapshot(sim: &Sim<TestWorld>, h: usize) -> (TcpStack, UdpStack) {
    let host = &sim.world.hosts[h];
    (host.tcp.clone(), host.udp.clone())
}

/// Restore a previously taken snapshot and resume the host.
pub fn restore(sim: &mut Sim<TestWorld>, h: usize, snap: (TcpStack, UdpStack)) {
    sim.world.hosts[h].tcp = snap.0;
    sim.world.hosts[h].udp = snap.1;
    resume(sim, h);
}
