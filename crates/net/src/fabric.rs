//! The switched fabric: NICs, links, switches, routing, delivery.
//!
//! Topology model: every NIC attaches to a switch by an *edge link*;
//! switches interconnect by *trunk links*. Each link direction is a
//! store-and-forward, drop-tail queue: a packet starting transmission at a
//! busy link waits for `busy_until`, and is tail-dropped when the implied
//! queueing delay exceeds the link's buffer bound. Each traversed link can
//! also lose the packet with its configured probability.
//!
//! Both physical and virtual addresses resolve through one binding table.
//! Bindings for virtual addresses are *re-pointed on migration*; packets
//! already in flight toward the old NIC are dropped at delivery time (the
//! binding is re-checked), exactly like frames arriving at a host whose
//! guest has left — TCP retransmission absorbs the loss.

use crate::addr::{Addr, NicId};
use crate::packet::Packet;
use dvc_sim_core::{FastMap, Sim, SimDuration, SimTime};
use rand::Rng;

/// A switch on the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SwitchId(pub u32);

/// Link characteristics.
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Bandwidth in bytes/second.
    pub bandwidth_bps: f64,
    /// Per-packet loss probability (0 disables loss).
    pub loss_prob: f64,
    /// Maximum tolerated queueing delay before tail drop.
    pub max_queue: SimDuration,
}

impl LinkParams {
    /// Gigabit-Ethernet-like LAN link (≈117 MB/s, 30 µs latency).
    pub fn gige_lan() -> Self {
        LinkParams {
            latency: SimDuration::from_micros(30),
            bandwidth_bps: 117.0e6,
            loss_prob: 0.0,
            max_queue: SimDuration::from_millis(20),
        }
    }

    /// Inter-cluster WAN-ish link: 1 ms latency, ~60 MB/s.
    pub fn campus_wan() -> Self {
        LinkParams {
            latency: SimDuration::from_millis(1),
            bandwidth_bps: 60.0e6,
            loss_prob: 0.0,
            max_queue: SimDuration::from_millis(50),
        }
    }

    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss_prob = p;
        self
    }

    /// Serialization time of `bytes` on this link.
    pub(crate) fn ser_time(&self, bytes: u64) -> SimDuration {
        SimDuration::for_transfer(bytes, self.bandwidth_bps)
    }
}

#[derive(Clone, Debug)]
struct Nic {
    switch: SwitchId,
    up: bool,
    edge: LinkParams,
    /// Egress (nic → switch) busy-until.
    busy_tx: SimTime,
    /// Ingress (switch → nic) busy-until.
    busy_rx: SimTime,
}

#[derive(Clone, Debug)]
struct Trunk {
    a: SwitchId,
    b: SwitchId,
    params: LinkParams,
    /// busy-until per direction: [a→b, b→a].
    busy: [SimTime; 2],
}

/// Drop/delivery counters for diagnostics and tests.
#[derive(Clone, Copy, Default, Debug)]
pub struct FabricCounters {
    pub sent: u64,
    pub delivered: u64,
    pub dropped_loss: u64,
    pub dropped_queue: u64,
    pub dropped_no_route: u64,
    pub dropped_nic_down: u64,
    pub dropped_stale_binding: u64,
}

/// The fabric state (lives inside the world).
#[derive(Clone, Debug, Default)]
pub struct Fabric {
    nics: Vec<Nic>,
    n_switches: u32,
    trunks: Vec<Trunk>,
    /// next_hop[from][to] = trunk index to take, None = unreachable/self.
    next_hop: Vec<Vec<Option<usize>>>,
    bindings: FastMap<Addr, NicId>,
    pub counters: FabricCounters,
}

impl Fabric {
    pub fn new() -> Self {
        Fabric::default()
    }

    pub fn add_switch(&mut self) -> SwitchId {
        let id = SwitchId(self.n_switches);
        self.n_switches += 1;
        self.rebuild_routes();
        id
    }

    pub fn connect_switches(&mut self, a: SwitchId, b: SwitchId, params: LinkParams) {
        assert!(a.0 < self.n_switches && b.0 < self.n_switches);
        assert_ne!(a, b, "no self-links");
        self.trunks.push(Trunk {
            a,
            b,
            params,
            busy: [SimTime::ZERO; 2],
        });
        self.rebuild_routes();
    }

    pub fn add_nic(&mut self, switch: SwitchId, edge: LinkParams) -> NicId {
        assert!(switch.0 < self.n_switches);
        let id = NicId(self.nics.len() as u32);
        self.nics.push(Nic {
            switch,
            up: true,
            edge,
            busy_tx: SimTime::ZERO,
            busy_rx: SimTime::ZERO,
        });
        id
    }

    /// Bind (or re-point, for migration) an address to a NIC.
    pub fn bind(&mut self, addr: Addr, nic: NicId) {
        assert!((nic.0 as usize) < self.nics.len());
        self.bindings.insert(addr, nic);
    }

    pub fn unbind(&mut self, addr: Addr) {
        self.bindings.remove(&addr);
    }

    pub fn lookup(&self, addr: Addr) -> Option<NicId> {
        self.bindings.get(&addr).copied()
    }

    pub fn set_nic_up(&mut self, nic: NicId, up: bool) {
        self.nics[nic.0 as usize].up = up;
    }

    pub fn nic_is_up(&self, nic: NicId) -> bool {
        self.nics[nic.0 as usize].up
    }

    pub(crate) fn nic_switch(&self, nic: NicId) -> SwitchId {
        self.nics[nic.0 as usize].switch
    }

    fn rebuild_routes(&mut self) {
        let n = self.n_switches as usize;
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (i, t) in self.trunks.iter().enumerate() {
            adj[t.a.0 as usize].push((i, t.b.0 as usize));
            adj[t.b.0 as usize].push((i, t.a.0 as usize));
        }
        // BFS from every source; record the *first* trunk on a shortest path.
        let mut next_hop = vec![vec![None; n]; n];
        for src in 0..n {
            let mut dist = vec![usize::MAX; n];
            let mut first: Vec<Option<usize>> = vec![None; n];
            let mut q = std::collections::VecDeque::new();
            dist[src] = 0;
            q.push_back(src);
            while let Some(u) = q.pop_front() {
                for &(trunk, v) in &adj[u] {
                    if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        first[v] = if u == src { Some(trunk) } else { first[u] };
                        q.push_back(v);
                    }
                }
            }
            // next_hop at intermediate switches: recompute per (cur,dst) pair
            // lazily would be nicer; with tiny switch counts per-source BFS
            // from every switch is fine.
            for (dst, f) in first.iter().enumerate() {
                next_hop[src][dst] = *f;
            }
        }
        self.next_hop = next_hop;
    }

    fn trunk_between(&self, from: SwitchId, to: SwitchId) -> Option<usize> {
        self.next_hop
            .get(from.0 as usize)
            .and_then(|row| row.get(to.0 as usize))
            .copied()
            .flatten()
    }
}

/// Worlds that host a fabric and can accept final packet delivery.
pub trait NetWorld: Sized + 'static {
    fn fabric(&mut self) -> &mut Fabric;
    /// Deliver `pkt` to the stack(s) behind `nic`. Called once per packet
    /// that survives the fabric.
    fn deliver(sim: &mut Sim<Self>, nic: NicId, pkt: Packet);
}

/// Inject a packet into the fabric. The packet traverses
/// `src-edge → trunks → dst-edge`; each hop adds serialization + queueing +
/// propagation delay and may drop (loss or queue overflow). Delivery
/// re-checks the destination binding, so migrations in flight drop stale
/// packets rather than delivering them to the wrong host.
pub fn send<W: NetWorld>(sim: &mut Sim<W>, pkt: Packet) {
    let now = sim.now();
    let fabric = sim.world.fabric();
    fabric.counters.sent += 1;

    let Some(src_nic) = fabric.lookup(pkt.src) else {
        fabric.counters.dropped_no_route += 1;
        return;
    };
    let Some(dst_nic) = fabric.lookup(pkt.dst) else {
        fabric.counters.dropped_no_route += 1;
        return;
    };
    if !fabric.nics[src_nic.0 as usize].up {
        fabric.counters.dropped_nic_down += 1;
        return;
    }

    let size = pkt.wire_size();

    // Hop 1: source edge (nic → switch).
    let mut overflow = false;
    let (arrival, sw, loss) = {
        let nic = &mut sim.world.fabric().nics[src_nic.0 as usize];
        let start = now.max(nic.busy_tx);
        if start - now > nic.edge.max_queue {
            overflow = true;
            (SimTime::ZERO, nic.switch, 0.0)
        } else {
            let done = start + nic.edge.ser_time(size);
            let sw = nic.switch;
            nic.busy_tx = done;
            (done + nic.edge.latency, sw, nic.edge.loss_prob)
        }
    };
    if overflow {
        sim.world.fabric().counters.dropped_queue += 1;
        return;
    }
    if roll_loss(sim, loss) {
        sim.world.fabric().counters.dropped_loss += 1;
        return;
    }
    sim.schedule_at(arrival, move |sim| trunk_hop(sim, pkt, dst_nic, sw));
}

fn roll_loss<W: NetWorld>(sim: &mut Sim<W>, p: f64) -> bool {
    p > 0.0 && sim.rng.stream("net.loss").gen_bool(p.clamp(0.0, 1.0))
}

/// Forward `pkt` from switch `cur` toward `dst_nic`.
fn trunk_hop<W: NetWorld>(sim: &mut Sim<W>, pkt: Packet, dst_nic: NicId, cur: SwitchId) {
    let now = sim.now();
    let dst_sw = sim.world.fabric().nic_switch(dst_nic);
    if cur == dst_sw {
        // Final hop: destination edge (switch → nic).
        let size = pkt.wire_size();
        let mut overflow = false;
        let (arrival, loss) = {
            let nic = &mut sim.world.fabric().nics[dst_nic.0 as usize];
            let start = now.max(nic.busy_rx);
            if start - now > nic.edge.max_queue {
                overflow = true;
                (SimTime::ZERO, 0.0)
            } else {
                let done = start + nic.edge.ser_time(size);
                nic.busy_rx = done;
                (done + nic.edge.latency, nic.edge.loss_prob)
            }
        };
        if overflow {
            sim.world.fabric().counters.dropped_queue += 1;
            return;
        }
        if roll_loss(sim, loss) {
            sim.world.fabric().counters.dropped_loss += 1;
            return;
        }
        sim.schedule_at(arrival, move |sim| {
            // Re-check state at delivery time: the NIC may have gone down or
            // the address may have migrated while the packet was in flight.
            let fabric = sim.world.fabric();
            if !fabric.nic_is_up(dst_nic) {
                fabric.counters.dropped_nic_down += 1;
                return;
            }
            if fabric.lookup(pkt.dst) != Some(dst_nic) {
                fabric.counters.dropped_stale_binding += 1;
                return;
            }
            fabric.counters.delivered += 1;
            W::deliver(sim, dst_nic, pkt);
        });
        return;
    }

    let Some(trunk_idx) = sim.world.fabric().trunk_between(cur, dst_sw) else {
        sim.world.fabric().counters.dropped_no_route += 1;
        return;
    };
    let size = pkt.wire_size();
    let mut overflow = false;
    let (arrival, next_sw, loss) = {
        let trunk = &mut sim.world.fabric().trunks[trunk_idx];
        let (dir, next_sw) = if trunk.a == cur {
            (0, trunk.b)
        } else {
            (1, trunk.a)
        };
        let start = now.max(trunk.busy[dir]);
        if start - now > trunk.params.max_queue {
            overflow = true;
            (SimTime::ZERO, next_sw, 0.0)
        } else {
            let done = start + trunk.params.ser_time(size);
            trunk.busy[dir] = done;
            (done + trunk.params.latency, next_sw, trunk.params.loss_prob)
        }
    };
    if overflow {
        sim.world.fabric().counters.dropped_queue += 1;
        return;
    }
    if roll_loss(sim, loss) {
        sim.world.fabric().counters.dropped_loss += 1;
        return;
    }
    sim.schedule_at(arrival, move |sim| trunk_hop(sim, pkt, dst_nic, next_sw));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;
    use crate::packet::{UdpDatagram, L4};
    use bytes::Bytes;

    /// Minimal world: a fabric plus a delivery log.
    struct World {
        fabric: Fabric,
        delivered: Vec<(NicId, u64)>,
    }

    impl NetWorld for World {
        fn fabric(&mut self) -> &mut Fabric {
            &mut self.fabric
        }
        fn deliver(sim: &mut Sim<Self>, nic: NicId, pkt: Packet) {
            let size = pkt.wire_size();
            sim.world.delivered.push((nic, size));
        }
    }

    fn two_host_world(edge: LinkParams) -> (Sim<World>, NicId, NicId) {
        let mut fabric = Fabric::new();
        let sw = fabric.add_switch();
        let n0 = fabric.add_nic(sw, edge);
        let n1 = fabric.add_nic(sw, edge);
        fabric.bind(PhysAddr(0).into(), n0);
        fabric.bind(PhysAddr(1).into(), n1);
        let sim = Sim::new(
            World {
                fabric,
                delivered: vec![],
            },
            1,
        );
        (sim, n0, n1)
    }

    fn udp_pkt(src: u32, dst: u32, len: usize) -> Packet {
        Packet {
            src: PhysAddr(src).into(),
            dst: PhysAddr(dst).into(),
            l4: L4::Udp(UdpDatagram {
                src_port: 1,
                dst_port: 2,
                payload: Bytes::from(vec![0u8; len]),
            }),
        }
    }

    #[test]
    fn one_packet_arrives_after_latency_and_serialization() {
        let (mut sim, _n0, n1) = two_host_world(LinkParams::gige_lan());
        send(&mut sim, udp_pkt(0, 1, 1000));
        sim.run_to_completion(1000);
        assert_eq!(sim.world.delivered, vec![(n1, 1066)]);
        // two edge hops: 2 × (30 µs + 1066 B / 117 MB/s ≈ 9.1 µs) ≈ 78 µs
        let t = sim.now().as_secs_f64();
        assert!(t > 70e-6 && t < 90e-6, "arrival at {t}");
        assert_eq!(sim.world.fabric.counters.delivered, 1);
    }

    #[test]
    fn multi_switch_route() {
        let mut fabric = Fabric::new();
        let s0 = fabric.add_switch();
        let s1 = fabric.add_switch();
        let s2 = fabric.add_switch();
        fabric.connect_switches(s0, s1, LinkParams::campus_wan());
        fabric.connect_switches(s1, s2, LinkParams::campus_wan());
        let n0 = fabric.add_nic(s0, LinkParams::gige_lan());
        let n2 = fabric.add_nic(s2, LinkParams::gige_lan());
        fabric.bind(PhysAddr(0).into(), n0);
        fabric.bind(PhysAddr(1).into(), n2);
        let mut sim = Sim::new(
            World {
                fabric,
                delivered: vec![],
            },
            1,
        );
        send(&mut sim, udp_pkt(0, 1, 100));
        sim.run_to_completion(1000);
        assert_eq!(sim.world.delivered.len(), 1);
        // 2 trunk latencies of 1 ms dominate.
        assert!(sim.now().as_secs_f64() > 2e-3);
    }

    #[test]
    fn unroutable_dst_is_counted() {
        let (mut sim, _, _) = two_host_world(LinkParams::gige_lan());
        send(&mut sim, udp_pkt(0, 99, 10));
        sim.run_to_completion(100);
        assert!(sim.world.delivered.is_empty());
        assert_eq!(sim.world.fabric.counters.dropped_no_route, 1);
    }

    #[test]
    fn down_nic_drops_at_delivery() {
        let (mut sim, _n0, n1) = two_host_world(LinkParams::gige_lan());
        send(&mut sim, udp_pkt(0, 1, 10));
        // Take the NIC down while the packet is in flight.
        sim.schedule_at(dvc_sim_core::SimTime(1), move |sim| {
            sim.world.fabric.set_nic_up(n1, false);
        });
        sim.run_to_completion(100);
        assert!(sim.world.delivered.is_empty());
        assert_eq!(sim.world.fabric.counters.dropped_nic_down, 1);
    }

    #[test]
    fn rebinding_mid_flight_drops_stale_packet() {
        let (mut sim, n0, _n1) = two_host_world(LinkParams::gige_lan());
        send(&mut sim, udp_pkt(0, 1, 10));
        sim.schedule_at(dvc_sim_core::SimTime(1), move |sim| {
            // "migrate" p1 onto nic0
            sim.world.fabric.bind(PhysAddr(1).into(), n0);
        });
        sim.run_to_completion(100);
        assert!(sim.world.delivered.is_empty());
        assert_eq!(sim.world.fabric.counters.dropped_stale_binding, 1);
    }

    #[test]
    fn lossy_link_drops_statistically() {
        let mut lost = 0;
        let n = 1000;
        let (mut sim, _, _) = two_host_world(LinkParams::gige_lan().with_loss(0.3));
        for i in 0..n {
            // Space packets out to avoid queue interactions.
            sim.schedule_at(dvc_sim_core::SimTime(i * 1_000_000), move |sim| {
                send(sim, udp_pkt(0, 1, 10))
            });
        }
        sim.run_to_completion(100_000);
        lost += n - sim.world.fabric.counters.delivered;
        let rate = lost as f64 / n as f64;
        // Two lossy edge hops: P(drop) = 1-(0.7)² = 0.51.
        assert!((rate - 0.51).abs() < 0.06, "loss rate {rate}");
    }

    #[test]
    fn queue_overflow_tail_drops() {
        // Tiny bandwidth and queue bound: a burst must overflow.
        let slow = LinkParams {
            latency: SimDuration::from_micros(1),
            bandwidth_bps: 1e5, // 100 kB/s: 1000-byte pkt = 10 ms ser time
            loss_prob: 0.0,
            max_queue: SimDuration::from_millis(15),
        };
        let (mut sim, _, _) = two_host_world(slow);
        for _ in 0..10 {
            send(&mut sim, udp_pkt(0, 1, 942)); // wire size 1008 ≈ 10 ms each
        }
        sim.run_to_completion(10_000);
        let c = sim.world.fabric.counters;
        assert!(c.dropped_queue > 0, "expected tail drops: {c:?}");
        assert!(c.delivered >= 1);
        assert_eq!(c.delivered + c.dropped_queue, 10);
    }

    #[test]
    fn fifo_per_link() {
        let (mut sim, _n0, _n1) = two_host_world(LinkParams::gige_lan());
        for i in 0..5 {
            send(&mut sim, udp_pkt(0, 1, 100 + i));
        }
        sim.run_to_completion(1000);
        let sizes: Vec<u64> = sim.world.delivered.iter().map(|&(_, s)| s).collect();
        assert_eq!(sizes, vec![166, 167, 168, 169, 170]);
    }
}
