//! Wire representation of packets.
//!
//! Payloads are [`bytes::Bytes`]: cheaply cloneable, sliceable views into
//! shared buffers. The TCP stack stores queued application bytes as a chain
//! of such chunks ([`crate::bytequeue::ByteQueue`]), so segmenting a send
//! into MSS-sized segments — and retransmitting them later — really is
//! zero-copy slicing all the way from [`crate::tcp::TcpStack::send_bytes`]
//! to the emitted segment. Wire sizes include Ethernet + IP + L4 header
//! overheads so bandwidth/serialization models see realistic framing.

use crate::addr::Addr;
use bytes::Bytes;
use std::fmt;

/// Ethernet (incl. preamble + FCS + IFG) + IPv4 header bytes charged per packet.
pub(crate) const ETH_IP_OVERHEAD: u64 = 38 + 20;
/// TCP header bytes (no options modelled).
pub(crate) const TCP_HEADER: u64 = 20;
/// UDP header bytes.
pub(crate) const UDP_HEADER: u64 = 8;

/// TCP flag bits.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpFlags {
    pub syn: bool,
    pub ack: bool,
    pub rst: bool,
}

impl TcpFlags {
    pub(crate) const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        rst: false,
    };
    pub(crate) const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        rst: false,
    };
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        rst: false,
    };
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        rst: true,
    };
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        if self.syn {
            s.push('S');
        }
        if self.ack {
            s.push('A');
        }
        if self.rst {
            s.push('R');
        }
        if s.is_empty() {
            s.push('.');
        }
        write!(f, "{s}")
    }
}

/// A TCP segment.
#[derive(Clone)]
pub struct TcpSegment {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: TcpFlags,
    /// Advertised receive window, bytes.
    pub wnd: u32,
    pub payload: Bytes,
}

impl TcpSegment {
    /// Sequence space consumed by this segment (payload + SYN).
    pub(crate) fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + if self.flags.syn { 1 } else { 0 }
    }
}

impl fmt::Debug for TcpSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tcp[{}->{} {:?} seq={} ack={} wnd={} len={}]",
            self.src_port,
            self.dst_port,
            self.flags,
            self.seq,
            self.ack,
            self.wnd,
            self.payload.len()
        )
    }
}

/// A UDP datagram.
#[derive(Clone)]
pub struct UdpDatagram {
    pub src_port: u16,
    pub dst_port: u16,
    pub payload: Bytes,
}

impl fmt::Debug for UdpDatagram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "udp[{}->{} len={}]",
            self.src_port,
            self.dst_port,
            self.payload.len()
        )
    }
}

/// Transport payload of a packet.
#[derive(Clone, Debug)]
pub enum L4 {
    Tcp(TcpSegment),
    Udp(UdpDatagram),
}

/// A routable packet.
#[derive(Clone, Debug)]
pub struct Packet {
    pub src: Addr,
    pub dst: Addr,
    pub l4: L4,
}

impl Packet {
    /// Total bytes this packet occupies on a wire.
    pub(crate) fn wire_size(&self) -> u64 {
        match &self.l4 {
            L4::Tcp(s) => ETH_IP_OVERHEAD + TCP_HEADER + s.payload.len() as u64,
            L4::Udp(d) => ETH_IP_OVERHEAD + UDP_HEADER + d.payload.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PhysAddr, VirtAddr};

    fn pkt(l4: L4) -> Packet {
        Packet {
            src: PhysAddr(0).into(),
            dst: VirtAddr(1).into(),
            l4,
        }
    }

    #[test]
    fn wire_sizes_include_headers() {
        let t = pkt(L4::Tcp(TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            wnd: 100,
            payload: Bytes::from_static(&[0u8; 100]),
        }));
        assert_eq!(t.wire_size(), 58 + 20 + 100);
        let u = pkt(L4::Udp(UdpDatagram {
            src_port: 1,
            dst_port: 2,
            payload: Bytes::from_static(&[0u8; 48]),
        }));
        assert_eq!(u.wire_size(), 58 + 8 + 48);
    }

    #[test]
    fn seq_len_counts_syn_fin() {
        let mut s = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::SYN,
            wnd: 0,
            payload: Bytes::new(),
        };
        assert_eq!(s.seq_len(), 1);
        s.flags = TcpFlags::ACK;
        s.payload = Bytes::from_static(b"abc");
        assert_eq!(s.seq_len(), 3);
    }

    #[test]
    fn flag_debug_compact() {
        assert_eq!(format!("{:?}", TcpFlags::SYN_ACK), "SA");
        assert_eq!(format!("{:?}", TcpFlags::default()), ".");
        assert_eq!(format!("{:?}", TcpFlags::RST), "R");
    }
}
