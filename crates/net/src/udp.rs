//! A minimal UDP service.
//!
//! Used by the NTP daemons and other control-plane traffic. The stack is a
//! plain `Clone`-able value (so it checkpoints with a guest): bound ports
//! with bounded receive queues, plus an output list the host glue drains
//! into the fabric.

use crate::addr::Addr;
use crate::packet::{Packet, UdpDatagram, L4};
use bytes::Bytes;
use dvc_sim_core::FastMap;
use std::collections::VecDeque;

/// A received datagram as seen by the application.
#[derive(Clone, Debug)]
pub struct UdpRecv {
    pub src: Addr,
    pub src_port: u16,
    pub payload: Bytes,
}

/// Per-port receive queue bound (datagrams); beyond this, drops (like a full
/// socket buffer).
pub const UDP_QUEUE_LIMIT: usize = 256;

/// A per-host (or per-guest) UDP endpoint table.
#[derive(Clone, Debug)]
pub struct UdpStack {
    local_addr: Addr,
    queues: FastMap<u16, VecDeque<UdpRecv>>,
    /// Packets awaiting transmission by the host glue.
    pub out: Vec<Packet>,
    pub dropped_unbound: u64,
    pub dropped_full: u64,
}

impl UdpStack {
    pub fn new(local_addr: Addr) -> Self {
        UdpStack {
            local_addr,
            queues: FastMap::default(),
            out: Vec::new(),
            dropped_unbound: 0,
            dropped_full: 0,
        }
    }

    pub fn local_addr(&self) -> Addr {
        self.local_addr
    }

    /// Change the local address (used when re-homing is required; guests
    /// normally never do this — their virtual address is stable).
    pub fn set_local_addr(&mut self, addr: Addr) {
        self.local_addr = addr;
    }

    /// Bind a port. Re-binding an already-bound port is an error.
    pub fn bind(&mut self, port: u16) -> Result<(), &'static str> {
        if self.queues.contains_key(&port) {
            return Err("port already bound");
        }
        self.queues.insert(port, VecDeque::new());
        Ok(())
    }

    pub fn unbind(&mut self, port: u16) {
        self.queues.remove(&port);
    }

    pub fn is_bound(&self, port: u16) -> bool {
        self.queues.contains_key(&port)
    }

    /// Queue a datagram for transmission (drained by the host glue).
    pub fn send_to(&mut self, src_port: u16, dst: Addr, dst_port: u16, payload: Bytes) {
        self.out.push(Packet {
            src: self.local_addr,
            dst,
            l4: L4::Udp(UdpDatagram {
                src_port,
                dst_port,
                payload,
            }),
        });
    }

    /// Handle an inbound datagram from the fabric. Returns `true` if queued
    /// (so the glue knows to poll listeners).
    pub fn on_datagram(&mut self, src: Addr, dgram: UdpDatagram) -> bool {
        match self.queues.get_mut(&dgram.dst_port) {
            None => {
                self.dropped_unbound += 1;
                false
            }
            Some(q) => {
                if q.len() >= UDP_QUEUE_LIMIT {
                    self.dropped_full += 1;
                    return false;
                }
                q.push_back(UdpRecv {
                    src,
                    src_port: dgram.src_port,
                    payload: dgram.payload,
                });
                true
            }
        }
    }

    /// Pop the next datagram queued on `port`.
    pub fn recv_from(&mut self, port: u16) -> Option<UdpRecv> {
        self.queues.get_mut(&port)?.pop_front()
    }

    /// Number of datagrams queued on `port`.
    pub fn pending(&self, port: u16) -> usize {
        self.queues.get(&port).map_or(0, |q| q.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;

    fn dg(port: u16, body: &'static [u8]) -> UdpDatagram {
        UdpDatagram {
            src_port: 9,
            dst_port: port,
            payload: Bytes::from_static(body),
        }
    }

    #[test]
    fn bind_recv_roundtrip() {
        let mut s = UdpStack::new(PhysAddr(1).into());
        s.bind(123).unwrap();
        assert!(s.on_datagram(PhysAddr(2).into(), dg(123, b"hi")));
        let r = s.recv_from(123).unwrap();
        assert_eq!(&r.payload[..], b"hi");
        assert_eq!(r.src, Addr::Phys(PhysAddr(2)));
        assert_eq!(r.src_port, 9);
        assert!(s.recv_from(123).is_none());
    }

    #[test]
    fn unbound_port_drops() {
        let mut s = UdpStack::new(PhysAddr(1).into());
        assert!(!s.on_datagram(PhysAddr(2).into(), dg(5, b"x")));
        assert_eq!(s.dropped_unbound, 1);
    }

    #[test]
    fn double_bind_rejected() {
        let mut s = UdpStack::new(PhysAddr(1).into());
        s.bind(1).unwrap();
        assert!(s.bind(1).is_err());
        s.unbind(1);
        assert!(s.bind(1).is_ok());
    }

    #[test]
    fn queue_limit_enforced() {
        let mut s = UdpStack::new(PhysAddr(1).into());
        s.bind(7).unwrap();
        for _ in 0..UDP_QUEUE_LIMIT + 5 {
            s.on_datagram(PhysAddr(2).into(), dg(7, b"x"));
        }
        assert_eq!(s.pending(7), UDP_QUEUE_LIMIT);
        assert_eq!(s.dropped_full, 5);
    }

    #[test]
    fn send_to_stamps_source() {
        let mut s = UdpStack::new(PhysAddr(4).into());
        s.send_to(10, PhysAddr(5).into(), 11, Bytes::from_static(b"z"));
        assert_eq!(s.out.len(), 1);
        assert_eq!(s.out[0].src, Addr::Phys(PhysAddr(4)));
        assert_eq!(s.out[0].dst, Addr::Phys(PhysAddr(5)));
    }
}
