//! `ntpd`: the head node serves time; every other node's client polls it
//! over simulated UDP and disciplines its hardware clock.
//!
//! The paper's prototype "relies on the synchronization of host clocks with
//! NTP … network time protocols can synchronize time to within a few
//! milliseconds" — here that property *emerges* from the four-timestamp
//! exchange over the same fabric the application uses, including queueing
//! jitter and (for spanning clusters) WAN asymmetry.

use crate::glue::{drain_host_udp, local_now};
use crate::node::NodeId;
use crate::world::ClusterWorld;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use dvc_net::tcp::LocalNs;
use dvc_sim_core::{Event, FaultEvent, NtpEvent, Sim, SimDuration};
use dvc_time::ntp::{offset_delay, NtpSample};

/// Well-known server port.
pub(crate) const NTP_PORT: u16 = 123;
/// Client reply port.
pub(crate) const NTP_CLIENT_PORT: u16 = 1123;

/// Server processing time between receive (t2) and transmit (t3).
const SERVER_PROC_NS: i64 = 10_000;

fn encode_request(t1: LocalNs) -> Bytes {
    let mut b = BytesMut::with_capacity(8);
    b.put_i64_le(t1);
    b.freeze()
}

fn encode_reply(t1: LocalNs, t2: LocalNs, t3: LocalNs) -> Bytes {
    let mut b = BytesMut::with_capacity(24);
    b.put_i64_le(t1);
    b.put_i64_le(t2);
    b.put_i64_le(t3);
    b.freeze()
}

/// Start the NTP service: server on the head node, a polling client on every
/// other node. Poll phases are staggered so requests don't synchronize.
pub fn start_ntp(sim: &mut Sim<ClusterWorld>, poll_interval: SimDuration) {
    let head = sim.world.head;
    sim.world
        .node_mut(head)
        .host_udp
        .bind(NTP_PORT)
        .expect("NTP server port");
    let ids = sim.world.node_ids();
    for (i, id) in ids.into_iter().enumerate() {
        if id == head {
            continue;
        }
        sim.world
            .node_mut(id)
            .host_udp
            .bind(NTP_CLIENT_PORT)
            .expect("NTP client port");
        // Stagger initial polls across the first interval.
        let phase = poll_interval * (i as f64 / 64.0 % 1.0);
        schedule_poll(sim, id, poll_interval, phase);
    }
}

fn schedule_poll(
    sim: &mut Sim<ClusterWorld>,
    node: NodeId,
    interval: SimDuration,
    delay: SimDuration,
) {
    sim.schedule_in(delay, move |sim| {
        poll_once(sim, node);
        schedule_poll(sim, node, interval, interval);
    });
}

/// Send one client request (no-op while the node is down).
pub(crate) fn poll_once(sim: &mut Sim<ClusterWorld>, node: NodeId) {
    if !sim.world.node(node).up {
        return;
    }
    // Apply clock wander up to now (the periodic poll is our wander cadence).
    let now = sim.now();
    {
        let world = &mut sim.world;
        let rng = sim.rng.stream_idx("clock.wander", node.0 as u64);
        world.node_mut(node).clock.advance(now, Some(rng));
    }
    let t1 = local_now(sim, node);
    let head_addr = {
        let head = sim.world.head;
        sim.world.node(head).addr
    };
    sim.world.node_mut(node).host_udp.send_to(
        NTP_CLIENT_PORT,
        head_addr.into(),
        NTP_PORT,
        encode_request(t1),
    );
    drain_host_udp(sim, node);
}

/// Host-UDP dispatch hook: handle any queued NTP traffic on `node`.
pub(crate) fn dispatch_host_udp(sim: &mut Sim<ClusterWorld>, node: NodeId) {
    // Server side.
    if node == sim.world.head {
        let outage = sim
            .world
            .faults
            .active("ntp.outage", None, sim.now())
            .is_some();
        while let Some(req) = sim.world.node_mut(node).host_udp.recv_from(NTP_PORT) {
            if outage {
                // Server down: requests are consumed but never answered, so
                // clients silently stop getting samples and re-drift.
                sim.world.faults.note_injected("ntp.outage");
                sim.emit(Event::Fault(FaultEvent::Injected { what: "ntp.outage" }));
                let (phys, host) = match req.src {
                    dvc_net::Addr::Phys(p) => (true, p.0),
                    dvc_net::Addr::Virt(v) => (false, v.0),
                };
                sim.emit(Event::Ntp(NtpEvent::Unanswered { phys, host }));
                continue;
            }
            if req.payload.len() < 8 {
                continue;
            }
            let mut p = req.payload.clone();
            let t1 = p.get_i64_le();
            let t2 = local_now(sim, node);
            let t3 = t2 + SERVER_PROC_NS;
            let reply = encode_reply(t1, t2, t3);
            sim.world
                .node_mut(node)
                .host_udp
                .send_to(NTP_PORT, req.src, req.src_port, reply);
        }
        drain_host_udp(sim, node);
        return;
    }
    // Client side.
    while let Some(rep) = sim.world.node_mut(node).host_udp.recv_from(NTP_CLIENT_PORT) {
        if rep.payload.len() < 24 {
            continue;
        }
        let mut p = rep.payload.clone();
        let t1 = p.get_i64_le();
        let t2 = p.get_i64_le();
        let t3 = p.get_i64_le();
        let t4 = local_now(sim, node);
        let (offset_ns, delay_ns) = offset_delay(t1, t2, t3, t4);
        let now = sim.now();
        let n = sim.world.node_mut(node);
        n.ntp.on_sample(
            &mut n.clock,
            now,
            NtpSample {
                offset_ns,
                delay_ns,
                completed_at: t4,
            },
        );
        n.ntp_last_sync = Some(now);
    }
}

/// True time elapsed since `node` last completed an NTP exchange; `None`
/// until its first sync. The reliability manager treats a large value as
/// "clock sync lost" and degrades to clock-free coordination.
pub fn sync_age(sim: &Sim<ClusterWorld>, node: NodeId) -> Option<SimDuration> {
    sim.world
        .node(node)
        .ntp_last_sync
        .map(|t| sim.now().since(t))
}

/// Worst pairwise clock offset between up nodes, ns (what LSC skew sees).
pub fn worst_pairwise_offset_ns(sim: &Sim<ClusterWorld>) -> f64 {
    let now = sim.now();
    let errs: Vec<f64> = sim
        .world
        .nodes
        .iter()
        .filter(|n| n.up)
        .map(|n| n.clock.error_ns(now))
        .collect();
    let lo = errs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = errs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo).max(0.0)
}
