//! The rank runtime: a guest process executing a rank program.
//!
//! Wire protocol: length-prefixed frames over the guest TCP stream —
//! `src_rank:u32 | tag:u32 | len:u32 | payload[len]` — with a per-peer
//! reassembly buffer. Connections form a full mesh: rank r actively connects
//! to every lower rank and accepts from every higher rank; the first frame
//! on an accepted stream is a `HELLO` identifying the sender.
//!
//! The runtime is a plain `Clone` value: a VM snapshot captures a rank
//! mid-collective, in-flight frames and all. That is the entire point.

use crate::data::{RankData, Value};
use crate::ops::{push_front, Op};
use bytes::{BufMut, BytesMut};
use dvc_net::tcp::{LocalNs, SockId, TcpState};
use dvc_net::{Addr, ByteQueue};
use dvc_sim_core::{FastMap, SimDuration};
use dvc_vmm::guest::{GuestCtx, GuestProc, ProcPoll};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// The port every rank's runtime listens on (one rank per VM).
pub(crate) const MPI_PORT: u16 = 6000;

/// Frame tag reserved for connection hellos.
const HELLO_TAG: u32 = u32::MAX;

/// Frame header bytes.
const HDR: usize = 12;

/// rank → virtual address of the VM hosting it.
pub type RankMap = Vec<Addr>;

/// Progress/traffic counters for one rank.
#[derive(Clone, Debug, Default)]
pub struct MpiStats {
    pub msgs_sent: u64,
    pub msgs_received: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub compute_ns: u64,
    pub ops_executed: u64,
    pub started_at: Option<LocalNs>,
    pub finished_at: Option<LocalNs>,
    /// `Op::Marker` hits with their guest wall-clock stamps.
    pub markers: Vec<(&'static str, LocalNs)>,
}

#[derive(Clone, Debug, PartialEq)]
enum Phase {
    Connecting,
    Running,
    Draining,
    Done,
    Failed(String),
}

#[derive(Clone, Debug, Default)]
struct PeerConn {
    sock: Option<SockId>,
    /// Framed chunks the stack has not yet accepted. Each frame is built
    /// once and handed to the stack without further copies.
    tx: ByteQueue,
    /// Reassembly buffer (drained into by `TcpStack::recv_into`).
    rx: Vec<u8>,
}

/// The per-rank message-passing runtime (a guest process).
#[derive(Clone)]
pub struct MpiRuntime {
    pub rank: usize,
    pub size: usize,
    map: RankMap,
    /// Node speed used to convert `Op::Compute{flops}` into time.
    gflops: f64,
    phase: Phase,
    listener: Option<SockId>,
    peers: FastMap<usize, PeerConn>,
    /// The keys of `peers`, ascending: the progress engine walks peers in
    /// rank order so map order never reaches event order.
    peer_order: Vec<usize>,
    /// Every active open toward a lower rank has been made.
    dialed: bool,
    /// Ranks this rank communicates with (None = all). A sparse hint keeps
    /// large jobs (e.g. a 1024-rank ring) from building a full mesh.
    peer_hint: Option<Vec<usize>>,
    /// Accepted sockets awaiting their HELLO frame.
    pending_accepts: Vec<(SockId, Vec<u8>)>,
    /// Arrived messages by `(src, tag)`. A queue is dropped when a receive
    /// drains it, so a snapshot never clones empty queues for tags long
    /// done with; the map is only read by key, never iterated.
    inbox: FastMap<(usize, u32), VecDeque<Vec<u8>>>,
    script: VecDeque<Op>,
    pub data: RankData,
    pub stats: MpiStats,
}

impl MpiRuntime {
    pub fn new(
        rank: usize,
        size: usize,
        map: RankMap,
        gflops: f64,
        program: Vec<Op>,
        data: RankData,
    ) -> Self {
        assert_eq!(map.len(), size, "rank map must cover all ranks");
        assert!(rank < size);
        assert!(gflops > 0.0);
        MpiRuntime {
            rank,
            size,
            map,
            gflops,
            phase: Phase::Connecting,
            listener: None,
            peers: FastMap::default(),
            peer_order: Vec::new(),
            dialed: false,
            peer_hint: None,
            pending_accepts: Vec::new(),
            inbox: FastMap::default(),
            script: program.into(),
            data,
            stats: MpiStats::default(),
        }
    }

    /// Restrict eager connection establishment to the given peer ranks
    /// (e.g. ring neighbours). Messages to ranks outside the hint are a
    /// programming error in lazy jobs.
    pub(crate) fn with_peer_hint(mut self, peers: Vec<usize>) -> Self {
        let mut p = peers;
        p.retain(|&r| r != self.rank && r < self.size);
        p.sort_unstable();
        p.dedup();
        self.peer_hint = Some(p);
        self
    }

    /// The ranks this rank talks to, ascending.
    fn peer_ranks(&self) -> impl Iterator<Item = usize> + '_ {
        let (hint, all) = match &self.peer_hint {
            Some(p) => (p.as_slice(), 0..0),
            None => (&[][..], 0..self.size),
        };
        hint.iter()
            .copied()
            .chain(all.filter(move |&r| r != self.rank))
    }

    /// The connection to `rank`, created (and ordered) on first use.
    fn peer_mut(&mut self, rank: usize) -> &mut PeerConn {
        if let Err(at) = self.peer_order.binary_search(&rank) {
            self.peer_order.insert(at, rank);
        }
        self.peers.entry(rank).or_default()
    }

    pub fn failure(&self) -> Option<&str> {
        match &self.phase {
            Phase::Failed(e) => Some(e),
            _ => None,
        }
    }

    /// Remaining ops (diagnostics).
    pub(crate) fn remaining_ops(&self) -> usize {
        self.script.len()
    }

    /// A frame holding only the header for a `len`-byte payload, with
    /// room for the payload to be written straight after it.
    fn frame_header(&self, tag: u32, len: usize) -> BytesMut {
        let mut b = BytesMut::with_capacity(HDR + len);
        b.put_u32_le(self.rank as u32);
        b.put_u32_le(tag);
        b.put_u32_le(len as u32);
        b
    }

    /// `value` framed for `tag`, encoded in place after the header.
    fn frame_value(&self, tag: u32, value: &Value) -> BytesMut {
        let mut b = self.frame_header(tag, value.wire_len());
        value.encode_into(&mut b);
        b
    }

    /// Queue a framed message toward `to` (or loop it back locally).
    fn post(&mut self, to: usize, tag: u32, framed: BytesMut) {
        let len = (framed.len() - HDR) as u64;
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += len;
        if to == self.rank {
            self.stats.msgs_received += 1;
            self.stats.bytes_received += len;
            let payload = framed[HDR..].to_vec();
            self.inbox.entry((to, tag)).or_default().push_back(payload);
            return;
        }
        self.peer_mut(to).tx.push_bytes(framed.freeze());
    }

    /// Parse complete frames out of a peer's reassembly buffer.
    fn parse_frames(&mut self, from: usize) {
        loop {
            let peer = self.peers.entry(from).or_default();
            let rxlen = peer.rx.len();
            if rxlen < HDR {
                return;
            }
            let rx = &peer.rx;
            let src = u32::from_le_bytes(rx[0..4].try_into().unwrap()) as usize;
            let tag = u32::from_le_bytes(rx[4..8].try_into().unwrap());
            let len = u32::from_le_bytes(rx[8..12].try_into().unwrap()) as usize;
            if rxlen < HDR + len {
                return;
            }
            let payload = peer.rx[HDR..HDR + len].to_vec();
            peer.rx.drain(..HDR + len);
            if tag == HELLO_TAG {
                continue; // duplicate hello (harmless)
            }
            self.stats.msgs_received += 1;
            self.stats.bytes_received += payload.len() as u64;
            self.inbox.entry((src, tag)).or_default().push_back(payload);
        }
    }

    /// Drive connection establishment, reads, and tx flushing.
    fn pump_io(&mut self, ctx: &mut GuestCtx<'_>) -> Result<(), String> {
        // Listener.
        if self.listener.is_none() && self.size > 1 {
            self.listener = Some(
                ctx.tcp
                    .listen(MPI_PORT)
                    .map_err(|e| format!("listen: {e}"))?,
            );
        }

        // Active opens toward lower-ranked peers (once).
        if !self.dialed {
            let lower = match &self.peer_hint {
                Some(p) => p.partition_point(|&r| r < self.rank),
                None => self.rank,
            };
            for i in 0..lower {
                let r = self.peer_hint.as_ref().map_or(i, |p| p[i]);
                if self.peer_mut(r).sock.is_none() {
                    let sock = ctx.tcp.connect(ctx.now, self.map[r], MPI_PORT);
                    let hello = self.frame_header(HELLO_TAG, 0).freeze();
                    let peer = self.peer_mut(r);
                    peer.sock = Some(sock);
                    // Say hello as the first frame on the stream.
                    peer.tx.push_bytes(hello);
                }
            }
            self.dialed = true;
        }

        // Accept from higher ranks.
        if let Some(listener) = self.listener {
            while let Some(sock) = ctx.tcp.accept(listener) {
                self.pending_accepts.push((sock, Vec::new()));
            }
        }

        // Identify pending accepts by their hello.
        let mut identified = Vec::new();
        for i in 0..self.pending_accepts.len() {
            let (sock, ref mut buf) = self.pending_accepts[i];
            ctx.tcp.recv_into(ctx.now, sock, buf, usize::MAX);
            let buf = &self.pending_accepts[i].1;
            if buf.len() >= HDR {
                let src = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
                let tag = u32::from_le_bytes(buf[4..8].try_into().unwrap());
                if tag != HELLO_TAG || src >= self.size {
                    return Err(format!("bad hello from socket {sock}: src={src} tag={tag}"));
                }
                identified.push((i, src));
            }
        }
        for &(i, src) in identified.iter().rev() {
            let (sock, buf) = self.pending_accepts.remove(i);
            let peer = self.peer_mut(src);
            peer.sock = Some(sock);
            peer.rx.extend_from_slice(&buf[HDR..]);
            self.parse_frames(src);
        }

        // Per-peer error checks, reads and tx flushing, in rank order.
        for i in 0..self.peer_order.len() {
            let r = self.peer_order[i];
            let peer = &self.peers[&r];
            let Some(sock) = peer.sock else {
                continue;
            };
            if let Some(err) = ctx.tcp.error(sock) {
                return Err(format!(
                    "rank {}: connection to rank {r} failed: {err:?}",
                    self.rank
                ));
            }
            // An idle peer has nothing to do: reading 0 bytes neither
            // reopens a window nor grows `rx` (already parsed after its
            // last append), and an empty `tx` flushes nothing.
            if peer.tx.is_empty() && ctx.tcp.readable_bytes(sock) == 0 {
                continue;
            }
            {
                let peer = self.peers.get_mut(&r).unwrap();
                ctx.tcp.recv_into(ctx.now, sock, &mut peer.rx, usize::MAX);
            }
            self.parse_frames(r);
            // Flush queued tx chunks (only possible once established). The
            // chunks pass to the stack's send queue without being copied.
            if ctx.tcp.state(sock) == Some(TcpState::Established) {
                let peer = self.peers.get_mut(&r).unwrap();
                while !peer.tx.is_empty() {
                    let cap = ctx.tcp.send_capacity(sock);
                    if cap == 0 {
                        break;
                    }
                    let chunk = peer.tx.pop_bytes(cap);
                    let sent = chunk.len();
                    let n = ctx.tcp.send_bytes(ctx.now, sock, chunk);
                    debug_assert_eq!(n, sent, "capacity-bounded send must be accepted");
                    if n == 0 {
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// The mesh is up when every peer connection is *established* and its
    /// hello has been flushed — only then may the rank program start
    /// (MPI_Init semantics). Starting earlier would let a long first
    /// compute slice sit on an unsent hello and starve the peer.
    fn mesh_ready(&self, ctx: &mut GuestCtx<'_>) -> bool {
        self.peer_ranks().all(|r| {
            self.peers.get(&r).is_some_and(|p| {
                p.tx.is_empty()
                    && p.sock
                        .is_some_and(|sock| ctx.tcp.state(sock) == Some(TcpState::Established))
            })
        })
    }

    fn tx_drained(&self) -> bool {
        self.peers.values().all(|p| p.tx.is_empty())
    }

    /// Execute script ops until one blocks/yields.
    fn step_script(&mut self, ctx: &mut GuestCtx<'_>) -> ProcPoll {
        loop {
            let Some(op) = self.script.pop_front() else {
                self.phase = Phase::Draining;
                return self.drain(ctx);
            };
            self.stats.ops_executed += 1;
            match op {
                Op::Compute { flops } => {
                    let ns = (flops / self.gflops).max(1.0); // gflops ⇒ flops/ns
                    self.stats.compute_ns += ns as u64;
                    return ProcPoll::Compute(SimDuration::from_nanos(ns as u64));
                }
                Op::ComputeNs(ns) => {
                    self.stats.compute_ns += ns;
                    return ProcPoll::Compute(SimDuration::from_nanos(ns.max(1)));
                }
                Op::Send { to, tag, slot } => {
                    let Some(v) = self.data.get(&slot) else {
                        return self.fail(format!("send: no value at '{slot}'"));
                    };
                    let framed = self.frame_value(tag, v);
                    self.post(to, tag, framed);
                    // Opportunistic flush keeps latency low.
                    if let Err(e) = self.pump_io(ctx) {
                        return self.fail(e);
                    }
                }
                Op::Recv { from, tag, into } => {
                    let msg = match self.inbox.entry((from, tag)) {
                        Entry::Occupied(mut q) => {
                            let msg = q.get_mut().pop_front();
                            if q.get().is_empty() {
                                q.remove();
                            }
                            msg
                        }
                        Entry::Vacant(_) => None,
                    };
                    match msg {
                        Some(payload) => match Value::decode(&payload) {
                            Ok(v) => self.data.set(into, v),
                            Err(e) => return self.fail(format!("recv decode: {e}")),
                        },
                        None => {
                            // Not here yet: retry on the next wakeup.
                            self.script.push_front(Op::Recv { from, tag, into });
                            self.stats.ops_executed -= 1;
                            return ProcPoll::Blocked;
                        }
                    }
                }
                Op::Apply(f) => f(&mut self.data, self.rank, self.size),
                Op::Gen(f) => {
                    let ops = f(&mut self.data, self.rank, self.size);
                    push_front(&mut self.script, ops);
                }
                Op::DiskWriteSlot { slot } => {
                    let bytes = self
                        .data
                        .get(&slot)
                        .map(|v| v.wire_len() as u64)
                        .unwrap_or(0);
                    let done_at = ctx.disk.write(ctx.now, bytes);
                    return ProcPoll::SleepUntil(done_at);
                }
                Op::DiskWrite { bytes } => {
                    let done_at = ctx.disk.write(ctx.now, bytes);
                    return ProcPoll::SleepUntil(done_at);
                }
                Op::Marker(m) => {
                    self.stats.markers.push((m, ctx.now));
                }
            }
        }
    }

    fn drain(&mut self, ctx: &mut GuestCtx<'_>) -> ProcPoll {
        if let Err(e) = self.pump_io(ctx) {
            return self.fail(e);
        }
        if self.tx_drained() {
            self.phase = Phase::Done;
            self.stats.finished_at = Some(ctx.now);
            ProcPoll::Done
        } else {
            ProcPoll::Blocked
        }
    }

    fn fail(&mut self, msg: String) -> ProcPoll {
        self.phase = Phase::Failed(msg.clone());
        ProcPoll::Failed(msg)
    }
}

impl GuestProc for MpiRuntime {
    fn poll(&mut self, ctx: &mut GuestCtx<'_>) -> ProcPoll {
        if self.stats.started_at.is_none() {
            self.stats.started_at = Some(ctx.now);
        }
        match &self.phase {
            Phase::Done => return ProcPoll::Done,
            Phase::Failed(e) => return ProcPoll::Failed(e.clone()),
            _ => {}
        }
        if let Err(e) = self.pump_io(ctx) {
            return self.fail(e);
        }
        match self.phase {
            Phase::Connecting => {
                if self.mesh_ready(ctx) {
                    self.phase = Phase::Running;
                    self.step_script(ctx)
                } else {
                    ProcPoll::Blocked
                }
            }
            Phase::Running => self.step_script(ctx),
            Phase::Draining => self.drain(ctx),
            _ => unreachable!(),
        }
    }

    fn clone_box(&self) -> Box<dyn GuestProc> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        "mpi-rank"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dvc_net::packet::{Packet, TcpFlags, TcpSegment, L4};
    use dvc_net::tcp::{StackOutput, TcpConfig, TcpStack};
    use dvc_net::VirtAddr;
    use dvc_vmm::guest::GuestOs;

    fn runtime(rank: usize, size: usize) -> MpiRuntime {
        MpiRuntime::new(
            rank,
            size,
            vec![Addr::Virt(VirtAddr(0)); size],
            1.0,
            vec![],
            RankData::new(),
        )
    }

    /// The straightforward framing the in-place encoder must reproduce.
    fn frame(rt: &MpiRuntime, tag: u32, payload: &[u8]) -> Bytes {
        let mut b = BytesMut::with_capacity(HDR + payload.len());
        b.put_u32_le(rt.rank as u32);
        b.put_u32_le(tag);
        b.put_u32_le(payload.len() as u32);
        b.put_slice(payload);
        b.freeze()
    }

    #[test]
    fn frame_layout() {
        let rt = runtime(3, 4);
        let f = rt.frame_value(7, &Value::Bytes(b"abc".to_vec()));
        assert_eq!(f.len(), HDR + 12);
        assert_eq!(u32::from_le_bytes(f[0..4].try_into().unwrap()), 3);
        assert_eq!(u32::from_le_bytes(f[4..8].try_into().unwrap()), 7);
        assert_eq!(u32::from_le_bytes(f[8..12].try_into().unwrap()), 12);
        assert_eq!(&f[HDR + 9..], b"abc");
        let hello = rt.frame_header(HELLO_TAG, 0);
        assert_eq!(&hello[..], &frame(&rt, HELLO_TAG, &[])[..]);
    }

    #[test]
    fn in_place_framing_matches_encode_then_frame() {
        let rt = runtime(2, 4);
        for v in [
            Value::F64(-0.0),
            Value::U64(u64::MAX),
            Value::F64Vec(vec![]),
            Value::F64Vec(vec![1.0, f64::NAN, -3.25]),
            Value::U64Vec(vec![7, 8, 9]),
            Value::Bytes(vec![]),
            Value::Bytes((0..=255).collect()),
        ] {
            let framed = rt.frame_value(11, &v);
            assert_eq!(framed.len(), HDR + v.wire_len(), "{v:?}");
            assert_eq!(&framed[..], &frame(&rt, 11, &v.encode())[..], "{v:?}");
        }
    }

    #[test]
    fn self_send_loops_back() {
        let mut rt = runtime(0, 1);
        let framed = rt.frame_value(5, &Value::U64(9));
        rt.post(0, 5, framed);
        let msg = rt.inbox.get_mut(&(0, 5)).unwrap().pop_front().unwrap();
        assert_eq!(Value::decode(&msg).unwrap(), Value::U64(9));
        assert_eq!(rt.stats.msgs_sent, 1);
        assert_eq!(rt.stats.msgs_received, 1);
        assert_eq!(rt.stats.bytes_sent, 9);
    }

    #[test]
    fn parse_frames_handles_partials() {
        let mut rt = runtime(0, 2);
        let payload = Value::F64(2.5).encode().to_vec();
        let mut f = frame(&runtime(1, 2), 9, &payload);
        let second_half = f.split_off(7);
        rt.peer_mut(1).rx.extend_from_slice(&f);
        rt.parse_frames(1);
        assert!(rt.inbox.is_empty(), "partial frame must not parse");
        rt.peer_mut(1).rx.extend_from_slice(&second_half);
        rt.parse_frames(1);
        let msg = rt.inbox.get_mut(&(1, 9)).unwrap().pop_front().unwrap();
        assert_eq!(Value::decode(&msg).unwrap(), Value::F64(2.5));
        assert!(rt.peers[&1].rx.is_empty());
    }

    /// Deliver `from`'s queued packets to `to`; false when there were none.
    fn deliver(from: &mut TcpStack, to: &mut TcpStack) -> bool {
        let out = std::mem::take(&mut from.out);
        let any = !out.is_empty();
        for o in out {
            if let StackOutput::Packet(Packet {
                src,
                l4: L4::Tcp(seg),
                ..
            }) = o
            {
                to.on_segment(0, src, seg);
            }
        }
        any
    }

    /// Deliver packets between two stacks until both fall quiet.
    fn shuttle(a: &mut TcpStack, b: &mut TcpStack) {
        while deliver(a, b) | deliver(b, a) {}
    }

    fn pump(rt: &mut MpiRuntime, os: &mut GuestOs) -> Result<(), String> {
        let mut ctx = GuestCtx {
            now: 0,
            tcp: &mut os.tcp,
            udp: &mut os.udp,
            disk: &mut os.disk,
            kmsg: &mut os.kmsg,
        };
        rt.pump_io(&mut ctx)
    }

    /// Rank 0 of 2 with rank 1's connection accepted and identified, and
    /// the local stack's output drained. The socket is rank 1's end.
    fn connected_pair() -> (MpiRuntime, GuestOs, TcpStack, SockId) {
        let mut rt = runtime(0, 2);
        let mut os = GuestOs::new(Addr::Virt(VirtAddr(0)), TcpConfig::default());
        let mut remote = TcpStack::new(Addr::Virt(VirtAddr(1)), TcpConfig::default());
        pump(&mut rt, &mut os).expect("listen");
        let sock = remote.connect(0, Addr::Virt(VirtAddr(0)), MPI_PORT);
        shuttle(&mut remote, &mut os.tcp);
        let hello = frame(&runtime(1, 2), HELLO_TAG, &[]);
        assert_eq!(remote.send(0, sock, &hello), HDR);
        shuttle(&mut remote, &mut os.tcp);
        pump(&mut rt, &mut os).expect("identify");
        shuttle(&mut remote, &mut os.tcp);
        assert!(rt.peers[&1].sock.is_some(), "rank 1 not identified");
        os.tcp.out.clear();
        (rt, os, remote, sock)
    }

    #[test]
    fn idle_peer_with_partial_frame_is_left_alone() {
        let (mut rt, mut os, mut remote, sock) = connected_pair();
        let f = frame(&runtime(1, 2), 9, &Value::F64(2.5).encode());
        assert_eq!(remote.send(0, sock, &f[..7]), 7);
        shuttle(&mut remote, &mut os.tcp);
        pump(&mut rt, &mut os).expect("read partial");
        shuttle(&mut remote, &mut os.tcp);
        os.tcp.out.clear();

        // Nothing readable, nothing to send, half a frame buffered.
        let local = rt.peers[&1].sock.unwrap();
        assert_eq!(os.tcp.readable_bytes(local), 0);
        assert!(rt.peers[&1].tx.is_empty());
        pump(&mut rt, &mut os).expect("idle pump");
        assert!(os.tcp.out.is_empty(), "idle pump emitted {:?}", os.tcp.out);
        assert_eq!(rt.peers[&1].rx, f[..7]);
        assert!(rt.inbox.is_empty());

        // The rest of the frame completes it.
        assert_eq!(remote.send(0, sock, &f[7..]), f.len() - 7);
        shuttle(&mut remote, &mut os.tcp);
        pump(&mut rt, &mut os).expect("read rest");
        let msg = rt.inbox.get_mut(&(1, 9)).unwrap().pop_front().unwrap();
        assert_eq!(Value::decode(&msg).unwrap(), Value::F64(2.5));
    }

    #[test]
    fn errored_idle_peer_still_fails_the_pump() {
        let (mut rt, mut os, remote, sock) = connected_pair();
        // Rank 1's end resets the connection.
        let local = rt.peers[&1].sock.unwrap();
        let (src, src_port) = os.tcp.peer_of(local).unwrap();
        let (_, dst_port) = remote.peer_of(sock).unwrap();
        let rst = TcpSegment {
            src_port,
            dst_port,
            seq: 0,
            ack: 0,
            flags: TcpFlags::RST,
            wnd: 0,
            payload: Bytes::new(),
        };
        os.tcp.on_segment(0, src, rst);
        assert!(os.tcp.error(local).is_some(), "reset not seen");
        assert_eq!(os.tcp.readable_bytes(local), 0);
        assert!(rt.peers[&1].tx.is_empty());
        let err = pump(&mut rt, &mut os).unwrap_err();
        assert!(err.contains("connection to rank 1 failed"), "{err}");
    }

    #[test]
    fn queued_tx_on_idle_peer_is_flushed() {
        let (mut rt, mut os, _remote, _sock) = connected_pair();
        let framed = rt.frame_value(4, &Value::U64(7));
        let len = framed.len();
        rt.post(1, 4, framed);
        let local = rt.peers[&1].sock.unwrap();
        assert_eq!(os.tcp.readable_bytes(local), 0);
        pump(&mut rt, &mut os).expect("flush");
        assert!(rt.peers[&1].tx.is_empty());
        let sent: usize = os
            .tcp
            .out
            .iter()
            .map(|o| match o {
                StackOutput::Packet(Packet {
                    l4: L4::Tcp(seg), ..
                }) => seg.payload.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(sent, len);
    }

    #[test]
    fn peers_created_out_of_order_are_served_in_rank_order() {
        // Rank 0 talks to ranks 5, 1 and 3, all reached through one remote
        // stack; its peers come into being in the order 5, 1, 3.
        let mut rt = runtime(0, 6).with_peer_hint(vec![5, 1, 3]);
        for r in [5, 1, 3] {
            let framed = rt.frame_value(1, &Value::U64(r as u64));
            rt.post(r, 1, framed);
        }
        assert_eq!(rt.peer_order, vec![1, 3, 5]);

        let mut os = GuestOs::new(Addr::Virt(VirtAddr(0)), TcpConfig::default());
        let mut remote = TcpStack::new(Addr::Virt(VirtAddr(1)), TcpConfig::default());
        pump(&mut rt, &mut os).expect("listen");
        let socks: Vec<SockId> = [5, 1, 3]
            .iter()
            .map(|_| remote.connect(0, Addr::Virt(VirtAddr(0)), MPI_PORT))
            .collect();
        shuttle(&mut remote, &mut os.tcp);
        for (&sock, r) in socks.iter().zip([5u32, 1, 3]) {
            let mut hello = r.to_le_bytes().to_vec();
            hello.extend_from_slice(&HELLO_TAG.to_le_bytes());
            hello.extend_from_slice(&0u32.to_le_bytes());
            assert_eq!(remote.send(0, sock, &hello), HDR);
        }
        shuttle(&mut remote, &mut os.tcp);
        os.tcp.out.clear();

        // One pump identifies the three peers and flushes their frames.
        pump(&mut rt, &mut os).expect("pump");
        let port_rank: Vec<(u16, usize)> = rt
            .peer_order
            .iter()
            .map(|&r| (os.tcp.peer_of(rt.peers[&r].sock.unwrap()).unwrap().1, r))
            .collect();
        let flushed: Vec<usize> = os
            .tcp
            .out
            .iter()
            .filter_map(|o| match o {
                StackOutput::Packet(p) => match &p.l4 {
                    L4::Tcp(seg) if !seg.payload.is_empty() => port_rank
                        .iter()
                        .find(|(port, _)| *port == seg.dst_port)
                        .map(|&(_, r)| r),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(flushed, vec![1, 3, 5]);
    }

    #[test]
    fn drained_inbox_queues_are_dropped() {
        use crate::harness;
        use dvc_cluster::world::ClusterBuilder;
        use dvc_sim_core::{Sim, SimTime};

        // A 4-rank ring that passes a token 30 laps, one tag per lap.
        let mut sim = Sim::new(
            ClusterBuilder::new()
                .nodes_per_cluster(4)
                .perfect_clocks()
                .build(5),
            5,
        );
        let nodes = sim.world.node_ids();
        let job = harness::launch(&mut sim, &nodes, 4, 64, |rank, size| {
            let mut data = RankData::new();
            data.set("tok", Value::U64(0));
            let (next, prev) = ((rank + 1) % size, (rank + size - 1) % size);
            let ops = (0..30)
                .flat_map(|lap| [Op::send(next, lap, "tok"), Op::recv(prev, lap, "tok")])
                .collect();
            (ops, data)
        });
        harness::run_job(&mut sim, &job, SimTime::from_secs(300)).expect("ring failed");
        for r in 0..job.size {
            let rt = harness::rank(&sim, &job, r);
            assert_eq!(rt.stats.msgs_received, 30);
            assert!(rt.inbox.is_empty(), "rank {r} holds {:?}", rt.inbox);
        }
    }
}
