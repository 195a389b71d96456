//! A TCP implementation.
//!
//! This is the reliability mechanism the paper's Lazy Synchronous
//! Checkpointing argument rests on, so it is implemented for real rather
//! than abstracted:
//!
//! * three-way handshake (active + passive open) with SYN retry budget;
//! * sliding-window data transfer with cumulative ACKs and out-of-order
//!   reassembly;
//! * RFC 6298 RTO estimation (SRTT/RTTVAR, clamped min/max) with Karn's
//!   algorithm, exponential backoff, and a **finite retry budget**: after
//!   `max_data_retries` consecutive unanswered retransmissions the
//!   connection aborts with a RESET — the "network timeout … causes the
//!   application to crash" failure mode of the paper;
//! * fast retransmit on three duplicate ACKs;
//! * flow control by advertised window, with bounded zero-window probing;
//! * slow-start / AIMD congestion control (can be disabled per stack);
//! * orderly FIN teardown with TIME-WAIT, and RST handling throughout.
//!
//! **Design for checkpointing.** The stack is a plain `Clone` value and all
//! timer deadlines are *node-local wall-clock* nanoseconds stored inside the
//! sockets. A whole-guest snapshot therefore automatically captures every
//! connection mid-flight. On restore the host glue simply asks
//! [`TcpStack::next_deadline`] and re-arms one timer interrupt: deadlines
//! that passed while the guest was suspended (guest time is not virtualized)
//! fire immediately, producing the retransmit burst that repairs the cut.
//!
//! Not modelled (documented simplifications): Nagle, delayed ACK, window
//! scaling (windows are plain u32 byte counts), SACK, simultaneous open.

use crate::addr::Addr;
use crate::bytequeue::ByteQueue;
use crate::packet::{Packet, TcpFlags, TcpSegment, L4};
use bytes::Bytes;
use dvc_sim_core::FastMap;
use std::collections::{BTreeMap, VecDeque};

/// Node-local nanoseconds (see `dvc-time`); the stack never sees true time.
pub type LocalNs = i64;

/// Socket identifier, unique per stack.
pub type SockId = u32;

/// Wrapping sequence-number comparisons.
#[inline]
pub fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}
#[inline]
pub fn seq_le(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) <= 0
}
#[inline]
pub fn seq_gt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) > 0
}
#[inline]
pub fn seq_ge(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) >= 0
}

/// Stack configuration.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes).
    pub mss: usize,
    /// Send buffer capacity per socket, bytes.
    pub send_buf: usize,
    /// Receive buffer capacity per socket, bytes.
    pub recv_buf: usize,
    /// Initial RTO before any RTT sample, ns.
    pub rto_initial_ns: i64,
    /// RTO clamp floor, ns (Linux: 200 ms).
    pub rto_min_ns: i64,
    /// RTO clamp ceiling, ns.
    pub rto_max_ns: i64,
    /// Consecutive unanswered data retransmissions before the connection
    /// aborts (paper calibration: HPC-tuned guests use a small budget; see
    /// DESIGN.md §2).
    pub max_data_retries: u32,
    /// SYN retransmissions before an active open fails.
    pub max_syn_retries: u32,
    /// Duplicate ACKs that trigger fast retransmit.
    pub dupack_threshold: u32,
    /// Enable slow start + AIMD. When off, cwnd is unbounded and only the
    /// peer window limits flight (useful for deterministic tests).
    pub congestion_control: bool,
    /// TIME-WAIT linger, ns (real stacks: 2·MSL; shortened for simulation).
    pub time_wait_ns: i64,
    /// Keepalive: probe an idle established connection after this much
    /// silence (None disables — the default, like most sockets).
    pub keepalive_idle_ns: Option<i64>,
    /// Interval between keepalive probes, ns.
    pub keepalive_interval_ns: i64,
    /// Unanswered keepalive probes before the connection aborts.
    pub keepalive_retries: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1448,
            send_buf: 256 * 1024,
            recv_buf: 256 * 1024,
            rto_initial_ns: 1_000_000_000,
            rto_min_ns: 200_000_000,
            rto_max_ns: 60_000_000_000,
            max_data_retries: 5,
            max_syn_retries: 5,
            dupack_threshold: 3,
            congestion_control: true,
            time_wait_ns: 1_000_000_000,
            keepalive_idle_ns: None,
            keepalive_interval_ns: 5_000_000_000,
            keepalive_retries: 3,
        }
    }
}

/// Connection states (RFC 793 subset; no simultaneous open).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpState {
    Listen,
    SynSent,
    SynReceived,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    LastAck,
    Closing,
    TimeWait,
    Closed,
}

/// Why a socket died.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpError {
    /// Peer sent RST.
    Reset,
    /// Local retry budget exhausted (the LSC-relevant failure).
    RetryTimeout,
    /// Active open exhausted SYN retries.
    ConnectTimeout,
    /// Local abort.
    Aborted,
}

/// Events surfaced to the application layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SockEvent {
    /// Active open completed.
    Connected,
    /// A listener produced a new established connection.
    Incoming(SockId),
    /// Bytes are available to read.
    Readable,
    /// Send-buffer space opened after back-pressure.
    Writable,
    /// Peer closed its direction (EOF after draining).
    PeerClosed,
    /// Connection failed; no further I/O possible.
    Failed(TcpError),
    /// Teardown fully completed.
    Closed,
}

/// Stack outputs drained by the host glue after every entry-point call.
#[derive(Clone, Debug)]
pub enum StackOutput {
    Packet(Packet),
    Event(SockId, SockEvent),
}

/// A transport anomaly noted by the stack for the host layer to surface on
/// the typed observability spine (see `dvc-sim-core`'s `Event::Tcp`). The
/// stack itself is host-agnostic and clock-driven, so it cannot emit events
/// directly; it appends notes to a small bounded buffer that the glue
/// drains with [`TcpStack::take_notes`] after every entry-point call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpNote {
    Retransmit,
    FastRetransmit,
    /// A retransmission timer expired (one RTO backoff round).
    RtoFired,
    ZeroWindowProbe,
    KeepaliveProbe,
    ConnAborted,
}

/// Bound on buffered [`TcpNote`]s between drains. Anomalies are rare (loss,
/// probes, aborts — never per-segment), so hosts that drain after every
/// call never come close; stacks driven without a draining host (unit
/// tests) simply stop noting at the cap instead of growing without bound.
const NOTES_CAP: usize = 256;

#[inline]
fn push_note(notes: &mut Vec<TcpNote>, n: TcpNote) {
    if notes.len() < NOTES_CAP {
        notes.push(n);
    }
}

/// Aggregate stack counters.
#[derive(Clone, Copy, Default, Debug)]
pub struct TcpCounters {
    pub segs_sent: u64,
    pub segs_received: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub retransmits: u64,
    pub fast_retransmits: u64,
    pub timeouts: u64,
    pub resets_sent: u64,
    pub resets_received: u64,
    pub conns_aborted: u64,
    pub dup_segments: u64,
    pub zero_window_probes: u64,
    pub keepalive_probes: u64,
}

type ConnKey = (u16, Addr, u16); // (local port, remote addr, remote port)

#[derive(Clone, Debug)]
struct Socket {
    state: TcpState,
    local_port: u16,
    remote: Option<(Addr, u16)>,

    // ---- sender ----
    /// Oldest unacknowledged sequence number.
    snd_una: u32,
    /// Next sequence number to send.
    snd_nxt: u32,
    /// Highest sequence number ever sent (BSD `snd_max`). `snd_nxt` can be
    /// pulled back below this on a go-back-N timeout; ACK validity must be
    /// judged against the high-water mark, not the pulled-back pointer.
    snd_max: u32,
    /// Peer-advertised window.
    snd_wnd: u32,
    /// Bytes queued (front of queue corresponds to `snd_una`). Stored as a
    /// chain of shared chunks so segmentation and retransmission are
    /// zero-copy windows into the application's writes.
    send_q: ByteQueue,
    /// App requested close: FIN goes out after the queue drains.
    fin_queued: bool,
    /// Sequence number the FIN occupies once sent.
    fin_seq: Option<u32>,
    /// App tried to send into a full buffer; emit Writable when space opens.
    want_write: bool,

    // ---- congestion ----
    cwnd: f64,
    ssthresh: f64,

    // ---- retransmission ----
    srtt_ns: Option<f64>,
    rttvar_ns: f64,
    rto_ns: i64,
    /// Consecutive expiries for the current `snd_una`.
    retries: u32,
    rtx_deadline: Option<LocalNs>,
    /// Karn: one timed in-flight range (end_seq, sent_at), never a rtx.
    rtt_probe: Option<(u32, LocalNs)>,
    dup_acks: u32,
    /// Persist-probe mode (peer window is zero).
    probing: bool,

    // ---- receiver ----
    rcv_nxt: u32,
    /// Out-of-order segments keyed by start seq.
    ooo: BTreeMap<u32, Bytes>,
    /// In-order bytes ready for the application. Arriving payload `Bytes`
    /// are chained here without copying; the application drains via
    /// [`TcpStack::recv_into`].
    recv_q: ByteQueue,
    /// We saw the peer's FIN (already consumed into rcv_nxt).
    peer_fin: bool,
    /// Window was advertised as zero; send an update when it reopens.
    wnd_was_closed: bool,

    time_wait_deadline: Option<LocalNs>,
    /// Keepalive bookkeeping (active only when the stack enables it).
    last_activity: LocalNs,
    ka_deadline: Option<LocalNs>,
    ka_probes: u32,
    error: Option<TcpError>,
}

impl Socket {
    fn new(local_port: u16) -> Self {
        Socket {
            state: TcpState::Closed,
            local_port,
            remote: None,
            snd_una: 0,
            snd_nxt: 0,
            snd_max: 0,
            snd_wnd: 0,
            send_q: ByteQueue::new(),
            fin_queued: false,
            fin_seq: None,
            want_write: false,
            cwnd: 0.0,
            ssthresh: f64::INFINITY,
            srtt_ns: None,
            rttvar_ns: 0.0,
            rto_ns: 0,
            retries: 0,
            rtx_deadline: None,
            rtt_probe: None,
            dup_acks: 0,
            probing: false,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            recv_q: ByteQueue::new(),
            peer_fin: false,
            wnd_was_closed: false,
            time_wait_deadline: None,
            last_activity: 0,
            ka_deadline: None,
            ka_probes: 0,
            error: None,
        }
    }

    /// Bytes in flight (sent, not yet acked), excluding SYN/FIN bookkeeping.
    fn flight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    fn ooo_bytes(&self) -> usize {
        self.ooo.values().map(|b| b.len()).sum()
    }
}

/// A per-host (or per-guest) TCP stack.
#[derive(Clone, Debug)]
pub struct TcpStack {
    cfg: TcpConfig,
    local_addr: Addr,
    sockets: FastMap<SockId, Socket>,
    /// The keys of `sockets`, ascending (ids are never reused, so
    /// allocation appends). Timers walk this, never the map.
    sock_ids: Vec<SockId>,
    listeners: FastMap<u16, SockId>,
    /// Established-but-unaccepted connections per listener.
    accept_q: FastMap<SockId, VecDeque<SockId>>,
    conns: FastMap<ConnKey, SockId>,
    next_sock: SockId,
    next_ephemeral: u16,
    isn: u32,
    /// Outputs pending drain by the host glue.
    pub out: Vec<StackOutput>,
    pub counters: TcpCounters,
    /// Transport anomalies pending drain (see [`TcpNote`]).
    notes: Vec<TcpNote>,
}

impl TcpStack {
    pub fn new(local_addr: Addr, cfg: TcpConfig) -> Self {
        TcpStack {
            cfg,
            local_addr,
            sockets: FastMap::default(),
            sock_ids: Vec::new(),
            listeners: FastMap::default(),
            accept_q: FastMap::default(),
            conns: FastMap::default(),
            next_sock: 1,
            next_ephemeral: 40_000,
            isn: 10_000,
            out: Vec::new(),
            counters: TcpCounters::default(),
            notes: Vec::new(),
        }
    }

    /// True when transport anomalies are waiting to be drained.
    pub fn has_notes(&self) -> bool {
        !self.notes.is_empty()
    }

    /// Drain the pending [`TcpNote`]s (host glue calls this after every
    /// entry point and surfaces them as typed events).
    pub fn take_notes(&mut self) -> Vec<TcpNote> {
        std::mem::take(&mut self.notes)
    }

    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    pub fn local_addr(&self) -> Addr {
        self.local_addr
    }

    pub fn state(&self, sock: SockId) -> Option<TcpState> {
        self.sockets.get(&sock).map(|s| s.state)
    }

    pub fn error(&self, sock: SockId) -> Option<TcpError> {
        self.sockets.get(&sock).and_then(|s| s.error)
    }

    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    /// Debug/diagnostic view of a socket's sequence state:
    /// (snd_una, snd_nxt, send_q, rcv_nxt, recv_q, ooo segments).
    #[doc(hidden)]
    #[allow(clippy::type_complexity)]
    pub fn debug_seq_state(
        &self,
        sock: SockId,
    ) -> Option<(u32, u32, usize, u32, usize, Vec<(u32, usize)>)> {
        let s = self.sockets.get(&sock)?;
        Some((
            s.snd_una,
            s.snd_nxt,
            s.send_q.len(),
            s.rcv_nxt,
            s.recv_q.len(),
            s.ooo.iter().map(|(k, v)| (*k, v.len())).collect(),
        ))
    }

    fn alloc_sock(&mut self, s: Socket) -> SockId {
        let id = self.next_sock;
        self.next_sock += 1;
        self.sockets.insert(id, s);
        self.sock_ids.push(id);
        id
    }

    fn next_isn(&mut self) -> u32 {
        self.isn = self.isn.wrapping_add(64_123);
        self.isn
    }

    fn alloc_ephemeral(&mut self) -> u16 {
        // Linear probe over the ephemeral range; stacks never hold 25k ports.
        for _ in 0..25_000 {
            let p = self.next_ephemeral;
            self.next_ephemeral = if p >= 65_000 { 40_000 } else { p + 1 };
            let in_use = self.listeners.contains_key(&p) || self.conns.keys().any(|k| k.0 == p);
            if !in_use {
                return p;
            }
        }
        panic!("ephemeral port space exhausted");
    }

    // ------------------------------------------------------------------
    // Application API
    // ------------------------------------------------------------------

    /// Open a listener on `port`.
    pub fn listen(&mut self, port: u16) -> Result<SockId, &'static str> {
        if self.listeners.contains_key(&port) {
            return Err("port already listening");
        }
        let mut s = Socket::new(port);
        s.state = TcpState::Listen;
        let id = self.alloc_sock(s);
        self.listeners.insert(port, id);
        Ok(id)
    }

    /// Pop the next established connection waiting on a listener.
    pub fn accept(&mut self, listener: SockId) -> Option<SockId> {
        loop {
            let sock = self.accept_q.get_mut(&listener)?.pop_front()?;
            // Skip connections that died before the app accepted them.
            if self.sockets.contains_key(&sock) {
                return Some(sock);
            }
        }
    }

    /// The remote endpoint of a connected socket.
    pub fn peer_of(&self, sock: SockId) -> Option<(Addr, u16)> {
        self.sockets.get(&sock).and_then(|s| s.remote)
    }

    /// Begin an active open to `remote`. Returns the socket immediately;
    /// `Connected` (or `Failed`) arrives as an event.
    pub fn connect(&mut self, now: LocalNs, remote: Addr, remote_port: u16) -> SockId {
        let port = self.alloc_ephemeral();
        let isn = self.next_isn();
        let mut s = Socket::new(port);
        s.state = TcpState::SynSent;
        s.remote = Some((remote, remote_port));
        s.snd_una = isn;
        s.snd_nxt = isn.wrapping_add(1);
        s.snd_max = s.snd_nxt;
        s.cwnd = self.cfg.mss as f64 * 10.0; // IW10
        s.rto_ns = self.cfg.rto_initial_ns;
        s.rtx_deadline = Some(now + s.rto_ns);
        let id = self.alloc_sock(s);
        self.conns.insert((port, remote, remote_port), id);
        self.emit_segment(id, isn, TcpFlags::SYN, Bytes::new());
        id
    }

    /// Queue bytes for transmission. Returns how many were accepted
    /// (bounded by send-buffer space); `Writable` fires when space reopens.
    ///
    /// This copies once, from `data` into the send queue; callers that
    /// already own a [`Bytes`] should use [`TcpStack::send_bytes`], after
    /// which the payload is never copied again on its way to the wire.
    pub fn send(&mut self, now: LocalNs, sock: SockId, data: &[u8]) -> usize {
        let Some(s) = self.sockets.get_mut(&sock) else {
            return 0;
        };
        if !matches!(s.state, TcpState::Established | TcpState::CloseWait) || s.fin_queued {
            return 0;
        }
        let space = self.cfg.send_buf.saturating_sub(s.send_q.len());
        let take = space.min(data.len());
        s.send_q.extend_from_slice(&data[..take]);
        if take < data.len() {
            s.want_write = true;
        }
        self.pump(now, sock);
        take
    }

    /// Queue an owned chunk for transmission without copying: the chunk (or
    /// the prefix that fits the send buffer) is chained into the send queue,
    /// and segmentation/retransmission emit windows into it. Returns how
    /// many bytes were accepted; `Writable` fires when space reopens.
    pub fn send_bytes(&mut self, now: LocalNs, sock: SockId, data: Bytes) -> usize {
        let Some(s) = self.sockets.get_mut(&sock) else {
            return 0;
        };
        if !matches!(s.state, TcpState::Established | TcpState::CloseWait) || s.fin_queued {
            return 0;
        }
        let space = self.cfg.send_buf.saturating_sub(s.send_q.len());
        let take = space.min(data.len());
        if take < data.len() {
            s.send_q.push_bytes(data.slice(..take));
            s.want_write = true;
        } else {
            s.send_q.push_bytes(data);
        }
        self.pump(now, sock);
        take
    }

    /// Free send-buffer space on `sock`.
    pub fn send_capacity(&self, sock: SockId) -> usize {
        self.sockets
            .get(&sock)
            .map_or(0, |s| self.cfg.send_buf.saturating_sub(s.send_q.len()))
    }

    /// Read up to `max` ready bytes. One copy (queue → fresh `Vec`);
    /// [`TcpStack::recv_into`] reuses a caller buffer.
    pub fn recv(&mut self, now: LocalNs, sock: SockId, max: usize) -> Vec<u8> {
        let mut data = Vec::new();
        self.recv_into(now, sock, &mut data, max);
        data
    }

    /// Read up to `max` ready bytes, appending them to `out` (no
    /// intermediate allocation — this is the framing-layer workhorse).
    /// Returns the number of bytes appended.
    pub fn recv_into(
        &mut self,
        _now: LocalNs,
        sock: SockId,
        out: &mut Vec<u8>,
        max: usize,
    ) -> usize {
        let Some(s) = self.sockets.get_mut(&sock) else {
            return 0;
        };
        let n = s.recv_q.pop_into(out, max);
        // If our advertised window had collapsed to zero, reopen it actively.
        if s.wnd_was_closed && n > 0 {
            s.wnd_was_closed = false;
            if s.remote.is_some() {
                let seq = s.snd_nxt;
                self.emit_segment(sock, seq, TcpFlags::ACK, Bytes::new());
            }
        }
        n
    }

    /// Bytes ready to read without blocking.
    pub fn readable_bytes(&self, sock: SockId) -> usize {
        self.sockets.get(&sock).map_or(0, |s| s.recv_q.len())
    }

    /// True once the peer has closed and all its bytes are consumed.
    pub fn at_eof(&self, sock: SockId) -> bool {
        self.sockets
            .get(&sock)
            .is_some_and(|s| s.peer_fin && s.recv_q.is_empty())
    }

    /// Orderly close: FIN after pending data drains.
    pub fn close(&mut self, now: LocalNs, sock: SockId) {
        let Some(s) = self.sockets.get_mut(&sock) else {
            return;
        };
        match s.state {
            TcpState::Listen => {
                let port = s.local_port;
                self.listeners.remove(&port);
                self.destroy(sock);
            }
            TcpState::SynSent => {
                self.destroy(sock);
            }
            TcpState::Established | TcpState::SynReceived => {
                s.fin_queued = true;
                s.state = TcpState::FinWait1;
                self.pump(now, sock);
            }
            TcpState::CloseWait => {
                s.fin_queued = true;
                s.state = TcpState::LastAck;
                self.pump(now, sock);
            }
            _ => {}
        }
    }

    /// Abortive close: RST to the peer, socket destroyed.
    pub fn abort(&mut self, now: LocalNs, sock: SockId) {
        let _ = now;
        let Some(s) = self.sockets.get(&sock) else {
            return;
        };
        if let Some((raddr, rport)) = s.remote {
            if !matches!(s.state, TcpState::Closed | TcpState::Listen) {
                let seq = s.snd_nxt;
                self.send_rst_to(raddr, s.local_port, rport, seq, 0, false);
            }
        }
        self.destroy(sock);
    }

    /// Drop all bookkeeping for a socket (app acknowledges Closed/Failed).
    pub fn release(&mut self, sock: SockId) {
        self.destroy(sock);
    }

    fn destroy(&mut self, sock: SockId) {
        if let Some(s) = self.sockets.remove(&sock) {
            if let Ok(i) = self.sock_ids.binary_search(&sock) {
                self.sock_ids.remove(i);
            }
            if let Some((raddr, rport)) = s.remote {
                self.conns.remove(&(s.local_port, raddr, rport));
            }
            if s.state == TcpState::Listen {
                self.listeners.remove(&s.local_port);
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Earliest pending deadline across all sockets, if any. The host glue
    /// keeps exactly one interrupt armed at this instant.
    pub fn next_deadline(&self) -> Option<LocalNs> {
        self.sockets
            .values()
            .flat_map(|s| {
                s.rtx_deadline
                    .into_iter()
                    .chain(s.time_wait_deadline)
                    .chain(s.ka_deadline)
            })
            .min()
    }

    /// Fire all deadlines ≤ `now`, socket by socket in id order.
    pub fn on_timer(&mut self, now: LocalNs) {
        let mut next = 0;
        while let Some(&id) = self.sock_ids.get(next) {
            self.fire_due(now, id);
            // The socket may have been destroyed: resume after its id.
            next = self.sock_ids.partition_point(|&x| x <= id);
        }
    }

    fn fire_due(&mut self, now: LocalNs, id: SockId) {
        let Some(s) = self.sockets.get(&id) else {
            return;
        };
        if let Some(d) = s.time_wait_deadline {
            if d <= now {
                self.push_event(id, SockEvent::Closed);
                self.destroy(id);
                return;
            }
        }
        let Some(s) = self.sockets.get(&id) else {
            return;
        };
        if let Some(d) = s.rtx_deadline {
            if d <= now {
                self.on_rtx_expiry(now, id);
            }
        }
        let Some(s) = self.sockets.get(&id) else {
            return;
        };
        if let Some(d) = s.ka_deadline {
            if d <= now {
                self.on_keepalive_expiry(now, id);
            }
        }
    }

    /// Keepalive fired: probe (seq = snd_una − 1 elicits a bare ACK) or give
    /// up after the configured probe budget.
    fn on_keepalive_expiry(&mut self, now: LocalNs, sock: SockId) {
        let cfg = self.cfg;
        let Some(s) = self.sockets.get_mut(&sock) else {
            return;
        };
        if !matches!(s.state, TcpState::Established | TcpState::CloseWait) {
            s.ka_deadline = None;
            return;
        }
        if s.ka_probes >= cfg.keepalive_retries {
            s.ka_deadline = None;
            self.abort_with(now, sock, TcpError::RetryTimeout);
            return;
        }
        s.ka_probes += 1;
        s.ka_deadline = Some(now + cfg.keepalive_interval_ns);
        let seq = s.snd_una.wrapping_sub(1);
        self.counters.keepalive_probes += 1;
        push_note(&mut self.notes, TcpNote::KeepaliveProbe);
        self.emit_segment(sock, seq, TcpFlags::ACK, Bytes::new());
    }

    fn on_rtx_expiry(&mut self, now: LocalNs, sock: SockId) {
        self.counters.timeouts += 1;
        push_note(&mut self.notes, TcpNote::RtoFired);
        let cfg = self.cfg;
        let Some(s) = self.sockets.get_mut(&sock) else {
            return;
        };
        match s.state {
            TcpState::SynSent => {
                if s.retries >= cfg.max_syn_retries {
                    s.error = Some(TcpError::ConnectTimeout);
                    self.counters.conns_aborted += 1;
                    push_note(&mut self.notes, TcpNote::ConnAborted);
                    self.push_event(sock, SockEvent::Failed(TcpError::ConnectTimeout));
                    self.destroy(sock);
                    return;
                }
                s.retries += 1;
                s.rto_ns = (s.rto_ns * 2).min(cfg.rto_max_ns);
                s.rtx_deadline = Some(now + s.rto_ns);
                let isn = s.snd_una;
                self.counters.retransmits += 1;
                push_note(&mut self.notes, TcpNote::Retransmit);
                self.emit_segment(sock, isn, TcpFlags::SYN, Bytes::new());
            }
            TcpState::SynReceived => {
                if s.retries >= cfg.max_syn_retries {
                    self.abort_with(now, sock, TcpError::RetryTimeout);
                    return;
                }
                s.retries += 1;
                s.rto_ns = (s.rto_ns * 2).min(cfg.rto_max_ns);
                s.rtx_deadline = Some(now + s.rto_ns);
                let isn = s.snd_una;
                self.counters.retransmits += 1;
                push_note(&mut self.notes, TcpNote::Retransmit);
                self.emit_segment(sock, isn, TcpFlags::SYN_ACK, Bytes::new());
            }
            TcpState::Established
            | TcpState::FinWait1
            | TcpState::Closing
            | TcpState::CloseWait
            | TcpState::LastAck => {
                if s.retries >= cfg.max_data_retries {
                    // The LSC failure mode: a peer stayed silent (e.g. paused
                    // in a skewed checkpoint) past the retry budget.
                    self.abort_with(now, sock, TcpError::RetryTimeout);
                    return;
                }
                s.retries += 1;
                s.rto_ns = (s.rto_ns * 2).min(cfg.rto_max_ns);
                s.rtx_deadline = Some(now + s.rto_ns);
                // Karn: never time a retransmitted range.
                s.rtt_probe = None;
                if cfg.congestion_control {
                    s.ssthresh = (s.flight() as f64 / 2.0).max(2.0 * cfg.mss as f64);
                    s.cwnd = cfg.mss as f64;
                }
                if s.probing {
                    self.counters.zero_window_probes += 1;
                    push_note(&mut self.notes, TcpNote::ZeroWindowProbe);
                    self.send_window_probe(sock);
                } else {
                    // Go-back-N (classic BSD): everything beyond the head may
                    // be gone (e.g. dropped at a paused guest's vif), so pull
                    // snd_nxt back to the retransmitted head. Leaving it
                    // forward strands the lost range as phantom flight that
                    // caps the post-timeout window at zero: each RTO then
                    // resets cwnd and moves one MSS per backed-off timeout —
                    // a livelock. Pulled back, the returning ACK reopens the
                    // window and the ACK clock re-sends the range as fresh
                    // data (receivers trim the duplicate overlap).
                    if !s.send_q.is_empty() {
                        let head = s.send_q.len().min(cfg.mss) as u32;
                        s.snd_nxt = s.snd_una.wrapping_add(head);
                    }
                    self.counters.retransmits += 1;
                    push_note(&mut self.notes, TcpNote::Retransmit);
                    self.retransmit_head(sock);
                }
            }
            _ => {
                // Spurious deadline in a state with nothing to do.
                s.rtx_deadline = None;
            }
        }
    }

    /// Arm (or re-arm) the keepalive timer for an established socket.
    fn arm_keepalive(&mut self, sock: SockId, now: LocalNs) {
        let Some(idle) = self.cfg.keepalive_idle_ns else {
            return;
        };
        if let Some(s) = self.sockets.get_mut(&sock) {
            if matches!(s.state, TcpState::Established | TcpState::CloseWait) {
                s.last_activity = now;
                s.ka_probes = 0;
                s.ka_deadline = Some(now + idle);
            }
        }
    }

    fn abort_with(&mut self, _now: LocalNs, sock: SockId, err: TcpError) {
        self.counters.conns_aborted += 1;
        push_note(&mut self.notes, TcpNote::ConnAborted);
        if let Some(s) = self.sockets.get_mut(&sock) {
            s.error = Some(err);
            s.state = TcpState::Closed;
            s.rtx_deadline = None;
            if let Some((raddr, rport)) = s.remote {
                let (seq, lport) = (s.snd_nxt, s.local_port);
                self.send_rst_to(raddr, lport, rport, seq, 0, false);
            }
        }
        self.push_event(sock, SockEvent::Failed(err));
        // Keep the socket around (Closed, with error) until the app releases
        // it, so the app can observe the error.
        if let Some(s) = self.sockets.get(&sock) {
            if let Some((raddr, rport)) = s.remote {
                self.conns.remove(&(s.local_port, raddr, rport));
            }
        }
    }

    // ------------------------------------------------------------------
    // Segment transmission helpers
    // ------------------------------------------------------------------

    fn adv_wnd(&self, s: &Socket) -> u32 {
        (self
            .cfg
            .recv_buf
            .saturating_sub(s.recv_q.len() + s.ooo_bytes())) as u32
    }

    fn emit_segment(&mut self, sock: SockId, seq: u32, flags: TcpFlags, payload: Bytes) {
        let Some(s) = self.sockets.get(&sock) else {
            return;
        };
        let Some((raddr, rport)) = s.remote else {
            return;
        };
        let wnd = self.adv_wnd(s);
        let seg = TcpSegment {
            src_port: s.local_port,
            dst_port: rport,
            seq,
            ack: s.rcv_nxt,
            flags,
            wnd,
            payload,
        };
        self.counters.segs_sent += 1;
        self.counters.bytes_sent += seg.payload.len() as u64;
        self.out.push(StackOutput::Packet(Packet {
            src: self.local_addr,
            dst: raddr,
            l4: L4::Tcp(seg),
        }));
    }

    fn send_rst_to(
        &mut self,
        dst: Addr,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        with_ack: bool,
    ) {
        self.counters.resets_sent += 1;
        self.counters.segs_sent += 1;
        let flags = TcpFlags {
            rst: true,
            ack: with_ack,
            syn: false,
            fin: false,
        };
        self.out.push(StackOutput::Packet(Packet {
            src: self.local_addr,
            dst,
            l4: L4::Tcp(TcpSegment {
                src_port,
                dst_port,
                seq,
                ack,
                flags,
                wnd: 0,
                payload: Bytes::new(),
            }),
        }));
    }

    fn push_event(&mut self, sock: SockId, ev: SockEvent) {
        self.out.push(StackOutput::Event(sock, ev));
    }

    /// Send as much queued data as the windows allow; manage FIN emission
    /// and the retransmit timer.
    fn pump(&mut self, now: LocalNs, sock: SockId) {
        let cfg = self.cfg;
        loop {
            let Some(s) = self.sockets.get_mut(&sock) else {
                return;
            };
            if !matches!(
                s.state,
                TcpState::Established
                    | TcpState::CloseWait
                    | TcpState::FinWait1
                    | TcpState::LastAck
                    | TcpState::Closing
            ) {
                return;
            }
            let unsent = s.send_q.len() as u32 - s.flight().min(s.send_q.len() as u32);
            let eff_wnd = if cfg.congestion_control {
                (s.snd_wnd as f64).min(s.cwnd) as u32
            } else {
                s.snd_wnd
            };
            let room = eff_wnd.saturating_sub(s.flight());

            if unsent > 0 && room == 0 && s.snd_wnd == 0 && !s.probing {
                // Peer closed its window: switch to persist probing.
                s.probing = true;
                s.rto_ns = s.rto_ns.max(cfg.rto_min_ns);
                s.rtx_deadline = Some(now + s.rto_ns);
                return;
            }

            if unsent > 0 && room > 0 {
                let take = (unsent.min(room) as usize).min(cfg.mss);
                let offset = s.flight() as usize;
                // Zero-copy segmentation: an MSS-sized window into the queue.
                let chunk = s.send_q.slice(offset, take);
                let seq = s.snd_nxt;
                s.snd_nxt = s.snd_nxt.wrapping_add(take as u32);
                if seq_gt(s.snd_nxt, s.snd_max) {
                    s.snd_max = s.snd_nxt;
                }
                if s.rtt_probe.is_none() {
                    s.rtt_probe = Some((s.snd_nxt, now));
                }
                if s.rtx_deadline.is_none() {
                    s.rto_ns = if s.rto_ns == 0 {
                        cfg.rto_initial_ns
                    } else {
                        s.rto_ns
                    };
                    s.rtx_deadline = Some(now + s.rto_ns);
                }
                self.emit_segment(sock, seq, TcpFlags::ACK, chunk);
                continue;
            }

            // FIN once every byte is out.
            if s.fin_queued && s.fin_seq.is_none() && unsent == 0 {
                let seq = s.snd_nxt;
                s.fin_seq = Some(seq);
                s.snd_nxt = s.snd_nxt.wrapping_add(1);
                if seq_gt(s.snd_nxt, s.snd_max) {
                    s.snd_max = s.snd_nxt;
                }
                if s.rtx_deadline.is_none() {
                    s.rto_ns = if s.rto_ns == 0 {
                        cfg.rto_initial_ns
                    } else {
                        s.rto_ns
                    };
                    s.rtx_deadline = Some(now + s.rto_ns);
                }
                self.emit_segment(sock, seq, TcpFlags::FIN_ACK, Bytes::new());
            }
            return;
        }
    }

    /// Retransmit one MSS (or the FIN) from `snd_una`.
    fn retransmit_head(&mut self, sock: SockId) {
        let cfg = self.cfg;
        let Some(s) = self.sockets.get_mut(&sock) else {
            return;
        };
        let in_flight_data = s.flight().min(s.send_q.len() as u32);
        if in_flight_data > 0 {
            let take = (in_flight_data as usize).min(cfg.mss);
            // The queue front is `snd_una`: retransmit is a window, no copy.
            let chunk = s.send_q.slice(0, take);
            let seq = s.snd_una;
            self.emit_segment(sock, seq, TcpFlags::ACK, chunk);
        } else if let Some(fseq) = s.fin_seq {
            if seq_ge(fseq, s.snd_una) {
                self.emit_segment(sock, fseq, TcpFlags::FIN_ACK, Bytes::new());
            }
        } else {
            // Nothing outstanding after all (e.g. raced with an ACK).
            s.rtx_deadline = None;
        }
    }

    fn send_window_probe(&mut self, sock: SockId) {
        let Some(s) = self.sockets.get_mut(&sock) else {
            return;
        };
        if s.flight() == 0 && !s.send_q.is_empty() {
            // First probe: push one byte past the zero window.
            let b = s.send_q.slice(0, 1);
            let seq = s.snd_nxt;
            s.snd_nxt = s.snd_nxt.wrapping_add(1);
            if seq_gt(s.snd_nxt, s.snd_max) {
                s.snd_max = s.snd_nxt;
            }
            self.emit_segment(sock, seq, TcpFlags::ACK, b);
        } else if s.flight() > 0 && !s.send_q.is_empty() {
            // Re-probe with the same in-flight head byte.
            let b = s.send_q.slice(0, 1);
            let seq = s.snd_una;
            self.emit_segment(sock, seq, TcpFlags::ACK, b);
        } else {
            // Nothing to probe with; stop probing.
            s.probing = false;
            s.rtx_deadline = None;
        }
    }

    // ------------------------------------------------------------------
    // Segment reception
    // ------------------------------------------------------------------

    /// Entry point for a segment delivered by the fabric.
    pub fn on_segment(&mut self, now: LocalNs, src: Addr, seg: TcpSegment) {
        self.counters.segs_received += 1;
        let key: ConnKey = (seg.dst_port, src, seg.src_port);
        if let Some(&sock) = self.conns.get(&key) {
            self.on_conn_segment(now, sock, src, seg);
            return;
        }
        // No connection: maybe a listener (SYN), else RST.
        if seg.flags.syn && !seg.flags.ack {
            if let Some(&listener) = self.listeners.get(&seg.dst_port) {
                self.on_passive_open(now, listener, src, seg);
                return;
            }
        }
        if !seg.flags.rst {
            // RFC 793 reset generation for a closed port.
            let (seq, ack, with_ack) = if seg.flags.ack {
                (seg.ack, 0, false)
            } else {
                (0, seg.seq.wrapping_add(seg.seq_len()), true)
            };
            self.send_rst_to(src, seg.dst_port, seg.src_port, seq, ack, with_ack);
        }
    }

    fn on_passive_open(&mut self, now: LocalNs, _listener: SockId, src: Addr, seg: TcpSegment) {
        let isn = self.next_isn();
        let mut s = Socket::new(seg.dst_port);
        s.state = TcpState::SynReceived;
        s.remote = Some((src, seg.src_port));
        s.snd_una = isn;
        s.snd_nxt = isn.wrapping_add(1);
        s.snd_max = s.snd_nxt;
        s.snd_wnd = seg.wnd;
        s.cwnd = self.cfg.mss as f64 * 10.0;
        s.rcv_nxt = seg.seq.wrapping_add(1);
        s.rto_ns = self.cfg.rto_initial_ns;
        s.rtx_deadline = Some(now + s.rto_ns);
        let id = self.alloc_sock(s);
        self.conns.insert((seg.dst_port, src, seg.src_port), id);
        self.emit_segment(id, isn, TcpFlags::SYN_ACK, Bytes::new());
    }

    fn on_conn_segment(&mut self, now: LocalNs, sock: SockId, _src: Addr, seg: TcpSegment) {
        let cfg = self.cfg;
        let Some(s) = self.sockets.get_mut(&sock) else {
            return;
        };
        // Any inbound traffic proves the peer is alive.
        if cfg.keepalive_idle_ns.is_some() {
            s.last_activity = now;
            s.ka_probes = 0;
            if let Some(idle) = cfg.keepalive_idle_ns {
                if matches!(s.state, TcpState::Established | TcpState::CloseWait) {
                    s.ka_deadline = Some(now + idle);
                }
            }
        }

        // ---- RST ----
        if seg.flags.rst {
            // Acceptable if the seq is in window (we are lenient: any RST
            // for a known connection kills it; sim has no attackers).
            self.counters.resets_received += 1;
            s.error = Some(TcpError::Reset);
            s.state = TcpState::Closed;
            s.rtx_deadline = None;
            s.time_wait_deadline = None;
            let ev = SockEvent::Failed(TcpError::Reset);
            self.counters.conns_aborted += 1;
            push_note(&mut self.notes, TcpNote::ConnAborted);
            if let Some((raddr, rport)) = s.remote {
                let lport = s.local_port;
                self.conns.remove(&(lport, raddr, rport));
            }
            self.push_event(sock, ev);
            return;
        }

        // ---- handshake states ----
        match s.state {
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == s.snd_nxt {
                    s.rcv_nxt = seg.seq.wrapping_add(1);
                    s.snd_wnd = seg.wnd;
                    s.snd_una = seg.ack; // our SYN is acknowledged
                    s.state = TcpState::Established;
                    s.retries = 0;
                    s.rtx_deadline = None;
                    s.rto_ns = cfg.rto_initial_ns;
                    let seq = s.snd_nxt;
                    self.emit_segment(sock, seq, TcpFlags::ACK, Bytes::new());
                    self.push_event(sock, SockEvent::Connected);
                    self.arm_keepalive(sock, now);
                    self.pump(now, sock);
                }
                return;
            }
            TcpState::SynReceived => {
                if seg.flags.ack && seg.ack == s.snd_nxt {
                    s.state = TcpState::Established;
                    s.snd_wnd = seg.wnd;
                    s.snd_una = seg.ack; // our SYN-ACK is acknowledged
                    s.retries = 0;
                    s.rtx_deadline = None;
                    s.rto_ns = cfg.rto_initial_ns;
                    let lport = s.local_port;
                    let listener = self.listeners.get(&lport).copied();
                    if let Some(listener) = listener {
                        self.accept_q.entry(listener).or_default().push_back(sock);
                        self.push_event(listener, SockEvent::Incoming(sock));
                    }
                    self.arm_keepalive(sock, now);
                    // Fall through: the ACK may carry data.
                } else if seg.flags.syn {
                    // Retransmitted SYN: re-send SYN-ACK.
                    let Some(s) = self.sockets.get(&sock) else {
                        return;
                    };
                    let isn = s.snd_una;
                    self.emit_segment(sock, isn, TcpFlags::SYN_ACK, Bytes::new());
                    return;
                } else {
                    return;
                }
            }
            TcpState::Closed | TcpState::Listen => return,
            _ => {}
        }

        // A SYN in a synchronized state is an old retransmission (e.g. our
        // final handshake ACK was lost and the peer re-sent its SYN-ACK):
        // answer with a fresh ACK so the peer can complete.
        if seg.flags.syn {
            let Some(s) = self.sockets.get(&sock) else {
                return;
            };
            let snd_nxt = s.snd_nxt;
            self.emit_segment(sock, snd_nxt, TcpFlags::ACK, Bytes::new());
            return;
        }

        // Out-of-window bare segments (keepalive probes, stale
        // retransmissions of pure ACKs) elicit a fresh ACK so the sender
        // learns we are alive (RFC 793 "not acceptable ⇒ send an ACK").
        if seg.payload.is_empty() && !seg.flags.fin {
            let Some(s) = self.sockets.get(&sock) else {
                return;
            };
            if seq_lt(seg.seq, s.rcv_nxt) {
                let snd_nxt = s.snd_nxt;
                self.emit_segment(sock, snd_nxt, TcpFlags::ACK, Bytes::new());
                return;
            }
        }

        // ---- ACK processing ----
        if seg.flags.ack {
            self.process_ack(now, sock, &seg);
        }

        // ---- payload + FIN ----
        if !seg.payload.is_empty() || seg.flags.fin {
            self.process_data(now, sock, seg);
        }
    }

    fn process_ack(&mut self, now: LocalNs, sock: SockId, seg: &TcpSegment) {
        let cfg = self.cfg;
        let Some(s) = self.sockets.get_mut(&sock) else {
            return;
        };
        let ack = seg.ack;

        if seq_gt(ack, s.snd_max) {
            // Acks something we never sent; ignore (sim: shouldn't happen).
            return;
        }

        if seq_gt(ack, s.snd_una) {
            // After a go-back-N pull-back the peer's cumulative ACK can sit
            // beyond snd_nxt (it covers data sent before the timeout); snap
            // snd_nxt forward so flight() stays non-negative.
            if seq_gt(ack, s.snd_nxt) {
                s.snd_nxt = ack;
            }
            let newly_acked = ack.wrapping_sub(s.snd_una);
            // Consume acked bytes from the queue (FIN consumes seq but no bytes).
            let data_acked = (newly_acked as usize).min(s.send_q.len());
            s.send_q.advance(data_acked);
            s.snd_una = ack;
            s.retries = 0;
            s.dup_acks = 0;
            s.snd_wnd = seg.wnd;
            if s.probing && seg.wnd > 0 {
                s.probing = false;
            }

            // RTT sample (Karn-compliant).
            if let Some((end, sent_at)) = s.rtt_probe {
                if seq_ge(ack, end) {
                    let sample = (now - sent_at) as f64;
                    match s.srtt_ns {
                        None => {
                            s.srtt_ns = Some(sample);
                            s.rttvar_ns = sample / 2.0;
                        }
                        Some(srtt) => {
                            let err = (sample - srtt).abs();
                            s.rttvar_ns = 0.75 * s.rttvar_ns + 0.25 * err;
                            s.srtt_ns = Some(0.875 * srtt + 0.125 * sample);
                        }
                    }
                    let rto = s.srtt_ns.unwrap() + (4.0 * s.rttvar_ns).max(1.0e6);
                    s.rto_ns = (rto as i64).clamp(cfg.rto_min_ns, cfg.rto_max_ns);
                    s.rtt_probe = None;
                }
            }

            // Congestion control.
            if cfg.congestion_control {
                if s.cwnd < s.ssthresh {
                    s.cwnd += newly_acked as f64; // slow start
                } else {
                    s.cwnd += (cfg.mss as f64) * (cfg.mss as f64) / s.cwnd; // CA
                }
            }

            // FIN acked?
            if let Some(fseq) = s.fin_seq {
                if seq_gt(ack, fseq) {
                    match s.state {
                        TcpState::FinWait1 => {
                            s.state = TcpState::FinWait2;
                        }
                        TcpState::Closing => {
                            s.state = TcpState::TimeWait;
                            s.time_wait_deadline = Some(now + cfg.time_wait_ns);
                            s.rtx_deadline = None;
                        }
                        TcpState::LastAck => {
                            s.state = TcpState::Closed;
                            s.rtx_deadline = None;
                            let lport = s.local_port;
                            if let Some((raddr, rport)) = s.remote {
                                self.conns.remove(&(lport, raddr, rport));
                            }
                            self.push_event(sock, SockEvent::Closed);
                            // fall through to timer maintenance below
                        }
                        _ => {}
                    }
                }
            }

            let Some(s) = self.sockets.get_mut(&sock) else {
                return;
            };
            // Timer maintenance: restart if data remains in flight.
            if s.flight() == 0 && s.fin_seq.is_none_or(|f| seq_lt(f, s.snd_una)) {
                s.rtx_deadline = None;
            } else if s.rtx_deadline.is_some() {
                s.rtx_deadline = Some(now + s.rto_ns);
            }

            // Writable?
            if s.want_write && s.send_q.len() < cfg.send_buf {
                s.want_write = false;
                self.push_event(sock, SockEvent::Writable);
            }
            self.pump(now, sock);
        } else if ack == s.snd_una {
            // Potential duplicate ACK.
            let window_update = seg.wnd != s.snd_wnd;
            s.snd_wnd = seg.wnd;
            if s.probing {
                // Any ACK from the peer proves it is alive: reset the probe
                // budget (Linux resets icsk_probes_out on probe responses).
                s.retries = 0;
                if seg.wnd > 0 {
                    s.probing = false;
                    self.pump(now, sock);
                }
                return;
            }
            if seg.payload.is_empty() && s.flight() > 0 {
                s.dup_acks += 1;
                if s.dup_acks == cfg.dupack_threshold {
                    // Fast retransmit.
                    if cfg.congestion_control {
                        s.ssthresh = (s.flight() as f64 / 2.0).max(2.0 * cfg.mss as f64);
                        s.cwnd = s.ssthresh + 3.0 * cfg.mss as f64;
                    }
                    s.rtt_probe = None;
                    self.counters.fast_retransmits += 1;
                    push_note(&mut self.notes, TcpNote::FastRetransmit);
                    self.retransmit_head(sock);
                    if let Some(s) = self.sockets.get_mut(&sock) {
                        s.rtx_deadline = Some(now + s.rto_ns);
                    }
                }
            } else if window_update {
                self.pump(now, sock);
            }
        }
    }

    fn process_data(&mut self, now: LocalNs, sock: SockId, seg: TcpSegment) {
        let cfg = self.cfg;
        let Some(s) = self.sockets.get_mut(&sock) else {
            return;
        };
        let mut advanced = false;
        let mut delivered_bytes: u64 = 0;
        let mut got_fin_now = false;

        let seq = seg.seq;
        let payload = seg.payload;
        let fin = seg.flags.fin;
        let end = seq.wrapping_add(payload.len() as u32);

        if !payload.is_empty() {
            if seq_le(end, s.rcv_nxt) {
                // Entirely old: pure duplicate.
                self.counters.dup_segments += 1;
            } else {
                // Trim any already-received prefix.
                let (start_seq, data) = if seq_lt(seq, s.rcv_nxt) {
                    let skip = s.rcv_nxt.wrapping_sub(seq) as usize;
                    (s.rcv_nxt, payload.slice(skip..))
                } else {
                    (seq, payload.clone())
                };
                // Respect our advertised buffer: drop overflow bytes.
                let space = cfg.recv_buf.saturating_sub(s.recv_q.len() + s.ooo_bytes());
                let data = if data.len() > space {
                    data.slice(..space)
                } else {
                    data
                };
                if !data.is_empty() {
                    if start_seq == s.rcv_nxt {
                        let n = data.len();
                        s.recv_q.push_bytes(data);
                        s.rcv_nxt = s.rcv_nxt.wrapping_add(n as u32);
                        delivered_bytes += n as u64;
                        advanced = true;
                        // Pull contiguous out-of-order segments.
                        while let Some((&oseq, _)) = s.ooo.iter().next() {
                            if seq_gt(oseq, s.rcv_nxt) {
                                break;
                            }
                            let (oseq, obytes) = s.ooo.pop_first().unwrap();
                            let oend = oseq.wrapping_add(obytes.len() as u32);
                            if seq_le(oend, s.rcv_nxt) {
                                continue; // fully duplicate
                            }
                            let skip = s.rcv_nxt.wrapping_sub(oseq) as usize;
                            let fresh = obytes.slice(skip..);
                            let fresh_len = fresh.len();
                            s.recv_q.push_bytes(fresh);
                            s.rcv_nxt = s.rcv_nxt.wrapping_add(fresh_len as u32);
                            delivered_bytes += fresh_len as u64;
                        }
                    } else {
                        // Out of order: stash (keyed by start; last write wins).
                        s.ooo.insert(start_seq, data);
                    }
                }
            }
        }

        // FIN handling: only consumable when all data before it arrived.
        if fin {
            let fin_seq = end; // FIN sits after the payload
            if !s.peer_fin && fin_seq == s.rcv_nxt {
                s.rcv_nxt = s.rcv_nxt.wrapping_add(1);
                s.peer_fin = true;
                got_fin_now = true;
            }
        }

        // State transitions driven by the peer's FIN.
        if got_fin_now {
            match s.state {
                TcpState::Established => s.state = TcpState::CloseWait,
                TcpState::FinWait1 => {
                    // Our FIN not yet acked: simultaneous close.
                    s.state = TcpState::Closing;
                }
                TcpState::FinWait2 => {
                    s.state = TcpState::TimeWait;
                    s.time_wait_deadline = Some(now + cfg.time_wait_ns);
                    s.rtx_deadline = None;
                }
                _ => {}
            }
        }

        // If our receive window just hit zero, remember to update later.
        if self.adv_wnd(self.sockets.get(&sock).unwrap()) == 0 {
            if let Some(s) = self.sockets.get_mut(&sock) {
                s.wnd_was_closed = true;
            }
        }

        // ACK everything we have (immediate ACK policy).
        let Some(s) = self.sockets.get(&sock) else {
            return;
        };
        let snd_nxt = s.snd_nxt;
        self.emit_segment(sock, snd_nxt, TcpFlags::ACK, Bytes::new());

        self.counters.bytes_received += delivered_bytes;
        if advanced {
            self.push_event(sock, SockEvent::Readable);
        }
        if got_fin_now {
            self.push_event(sock, SockEvent::PeerClosed);
        }
    }
}

#[cfg(test)]
mod seq_tests {
    use super::*;

    #[test]
    fn wrapping_comparisons() {
        assert!(seq_lt(0xFFFF_FFF0, 0x10));
        assert!(seq_gt(0x10, 0xFFFF_FFF0));
        assert!(seq_le(5, 5));
        assert!(seq_ge(5, 5));
        assert!(!seq_lt(5, 5));
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = TcpConfig::default();
        assert!(c.rto_min_ns < c.rto_max_ns);
        assert!(c.mss > 0 && c.mss < 9000);
        assert!(c.max_data_retries >= 1);
    }
}
