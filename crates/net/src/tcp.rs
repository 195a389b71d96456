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
//! * slow-start / AIMD congestion control;
//! * RST when the retry budget aborts a connection or a segment reaches a
//!   closed port, and RST handling throughout.
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
//! scaling (windows are plain u32 byte counts), SACK, simultaneous open,
//! keepalive (no experiment leaves a connection idle long enough to need it),
//! orderly close (FIN, TIME-WAIT): MPI ranks keep their mesh until the VM is
//! destroyed, so a connection ends only by RST or by the retry budget, and
//! whole-VM checkpointing leaves in-flight state to retransmission rather
//! than draining sockets.

use crate::addr::Addr;
use crate::bytequeue::ByteQueue;
use crate::packet::{Packet, TcpFlags, TcpSegment, L4};
use bytes::Bytes;
use dvc_sim_core::{FastMap, TcpEvent};
use std::collections::{BTreeMap, VecDeque};

/// Node-local nanoseconds (see `dvc-time`); the stack never sees true time.
pub type LocalNs = i64;

/// Socket identifier, unique per stack.
pub type SockId = u32;

/// Wrapping sequence-number comparisons.
#[inline]
pub(crate) fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}
#[inline]
pub(crate) fn seq_le(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) <= 0
}
#[inline]
pub(crate) fn seq_gt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) > 0
}
#[inline]
pub(crate) fn seq_ge(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) >= 0
}

/// Initial RTO before any RTT sample, ns.
const RTO_INITIAL_NS: i64 = 1_000_000_000;
/// Duplicate ACKs that trigger fast retransmit.
const DUPACK_THRESHOLD: u32 = 3;

/// Stack configuration.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes).
    pub mss: usize,
    /// Send buffer capacity per socket, bytes.
    pub send_buf: usize,
    /// Receive buffer capacity per socket, bytes.
    pub recv_buf: usize,
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
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1448,
            send_buf: 256 * 1024,
            recv_buf: 256 * 1024,
            rto_min_ns: 200_000_000,
            rto_max_ns: 60_000_000_000,
            max_data_retries: 5,
            max_syn_retries: 5,
        }
    }
}

/// Connection states (RFC 793 subset; no simultaneous open, no orderly
/// close).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpState {
    Listen,
    SynSent,
    SynReceived,
    Established,
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
    /// Connection failed; no further I/O possible.
    Failed(TcpError),
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
    ConnAborted,
}

impl TcpNote {
    /// The note on the typed spine, attributed to endpoint `ep` (whatever
    /// owns the stack: a host index, a VM id).
    pub fn event(self, ep: u32) -> TcpEvent {
        match self {
            TcpNote::Retransmit => TcpEvent::Retransmit { ep },
            TcpNote::FastRetransmit => TcpEvent::FastRetransmit { ep },
            TcpNote::RtoFired => TcpEvent::RtoFired { ep },
            TcpNote::ZeroWindowProbe => TcpEvent::ZeroWindowProbe { ep },
            TcpNote::ConnAborted => TcpEvent::ConnAborted { ep },
        }
    }
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
    pub retransmits: u64,
    pub fast_retransmits: u64,
    pub timeouts: u64,
    pub conns_aborted: u64,
    pub dup_segments: u64,
    pub zero_window_probes: u64,
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
    /// Window was advertised as zero; send an update when it reopens.
    wnd_was_closed: bool,

    error: Option<TcpError>,
    /// Readable bytes or an error wait: `!recv_q.is_empty() ||
    /// error.is_some()`, kept where either changes.
    attention: bool,
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
            wnd_was_closed: false,
            error: None,
            attention: false,
        }
    }

    /// Sequence space in flight (sent, not yet acked).
    fn flight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    fn ooo_bytes(&self) -> usize {
        self.ooo.values().map(|b| b.len()).sum()
    }
}

/// Sockets by id: slot `id` holds socket `id` until it is destroyed. Ids
/// start at 1 (slot 0 stays empty) and are never reused, so allocation
/// appends and walking the slots visits ids in ascending order.
#[derive(Clone, Debug)]
struct SockTable(Vec<Option<Socket>>);

impl SockTable {
    fn get(&self, id: SockId) -> Option<&Socket> {
        self.0.get(id as usize)?.as_ref()
    }

    fn get_mut(&mut self, id: SockId) -> Option<&mut Socket> {
        self.0.get_mut(id as usize)?.as_mut()
    }

    fn insert(&mut self, s: Socket) -> SockId {
        self.0.push(Some(s));
        (self.0.len() - 1) as SockId
    }

    fn remove(&mut self, id: SockId) -> Option<Socket> {
        self.0.get_mut(id as usize)?.take()
    }

    /// One past the largest id ever allocated.
    fn end(&self) -> SockId {
        self.0.len() as SockId
    }

    fn live(&self) -> impl Iterator<Item = &Socket> {
        self.0.iter().flatten()
    }
}

/// A per-host (or per-guest) TCP stack.
#[derive(Clone, Debug)]
pub struct TcpStack {
    cfg: TcpConfig,
    local_addr: Addr,
    sockets: SockTable,
    listeners: FastMap<u16, SockId>,
    /// Established-but-unaccepted connections per listener.
    accept_q: FastMap<SockId, VecDeque<SockId>>,
    conns: FastMap<ConnKey, SockId>,
    next_ephemeral: u16,
    isn: u32,
    /// Outputs pending drain by the host glue.
    pub out: Vec<StackOutput>,
    pub counters: TcpCounters,
    /// Transport anomalies pending drain (see [`TcpNote`]).
    notes: Vec<TcpNote>,
    /// [`TcpStack::next_deadline`]'s answer, valid unless
    /// `deadline_stale`. Every `rtx_deadline` write and every destroy
    /// marks it stale, so the socket scan runs only after one.
    deadline_min: Option<LocalNs>,
    deadline_stale: bool,
}

impl TcpStack {
    pub fn new(local_addr: Addr, cfg: TcpConfig) -> Self {
        TcpStack {
            cfg,
            local_addr,
            sockets: SockTable(vec![None]),
            listeners: FastMap::default(),
            accept_q: FastMap::default(),
            conns: FastMap::default(),
            next_ephemeral: 40_000,
            isn: 10_000,
            out: Vec::new(),
            counters: TcpCounters::default(),
            notes: Vec::new(),
            deadline_min: None,
            deadline_stale: false,
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

    pub fn state(&self, sock: SockId) -> Option<TcpState> {
        self.sockets.get(sock).map(|s| s.state)
    }

    pub fn error(&self, sock: SockId) -> Option<TcpError> {
        self.sockets.get(sock).and_then(|s| s.error)
    }

    /// Whether `sock` needs its reader: it has bytes to read or an error.
    /// Equal to `readable_bytes(sock) > 0 || error(sock).is_some()`, for
    /// one lookup.
    pub fn attention(&self, sock: SockId) -> bool {
        self.sockets.get(sock).is_some_and(|s| s.attention)
    }

    pub fn socket_count(&self) -> usize {
        self.sockets.live().count()
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
        let id = self.sockets.insert(s);
        self.listeners.insert(port, id);
        Ok(id)
    }

    /// Pop the next established connection waiting on a listener.
    pub fn accept(&mut self, listener: SockId) -> Option<SockId> {
        self.accept_q.get_mut(&listener)?.pop_front()
    }

    /// The remote endpoint of a connected socket.
    pub fn peer_of(&self, sock: SockId) -> Option<(Addr, u16)> {
        self.sockets.get(sock).and_then(|s| s.remote)
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
        s.rto_ns = RTO_INITIAL_NS;
        s.rtx_deadline = Some(now + s.rto_ns);
        self.deadline_stale = true;
        let id = self.sockets.insert(s);
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
        let Some(s) = self.sockets.get_mut(sock) else {
            return 0;
        };
        if s.state != TcpState::Established {
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
        let Some(s) = self.sockets.get_mut(sock) else {
            return 0;
        };
        if s.state != TcpState::Established {
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
            .get(sock)
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
        let Some(s) = self.sockets.get_mut(sock) else {
            return 0;
        };
        let n = s.recv_q.pop_into(out, max);
        s.attention = !s.recv_q.is_empty() || s.error.is_some();
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
        self.sockets.get(sock).map_or(0, |s| s.recv_q.len())
    }

    fn destroy(&mut self, sock: SockId) {
        if let Some(s) = self.sockets.remove(sock) {
            self.deadline_stale = true;
            if let Some((raddr, rport)) = s.remote {
                self.conns.remove(&(s.local_port, raddr, rport));
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Earliest pending deadline across all sockets, if any. The host glue
    /// keeps exactly one interrupt armed at this instant. Cached: the
    /// sockets are scanned only after a deadline changed.
    pub fn next_deadline(&mut self) -> Option<LocalNs> {
        if self.deadline_stale {
            self.deadline_min = self.sockets.live().filter_map(|s| s.rtx_deadline).min();
            self.deadline_stale = false;
        }
        self.deadline_min
    }

    /// Fire all deadlines ≤ `now`, socket by socket in id order.
    pub fn on_timer(&mut self, now: LocalNs) {
        // Timers never open a socket, and a destroyed one leaves its slot
        // empty, so this visits every id once, ascending.
        for id in 1..self.sockets.end() {
            self.fire_due(now, id);
        }
    }

    fn fire_due(&mut self, now: LocalNs, id: SockId) {
        let Some(s) = self.sockets.get(id) else {
            return;
        };
        if let Some(d) = s.rtx_deadline {
            if d <= now {
                self.on_rtx_expiry(now, id);
            }
        }
    }

    fn on_rtx_expiry(&mut self, now: LocalNs, sock: SockId) {
        self.counters.timeouts += 1;
        push_note(&mut self.notes, TcpNote::RtoFired);
        let cfg = self.cfg;
        let Some(s) = self.sockets.get_mut(sock) else {
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
                self.deadline_stale = true;
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
                self.deadline_stale = true;
                let isn = s.snd_una;
                self.counters.retransmits += 1;
                push_note(&mut self.notes, TcpNote::Retransmit);
                self.emit_segment(sock, isn, TcpFlags::SYN_ACK, Bytes::new());
            }
            TcpState::Established => {
                if s.retries >= cfg.max_data_retries {
                    // The LSC failure mode: a peer stayed silent (e.g. paused
                    // in a skewed checkpoint) past the retry budget.
                    self.abort_with(now, sock, TcpError::RetryTimeout);
                    return;
                }
                s.retries += 1;
                s.rto_ns = (s.rto_ns * 2).min(cfg.rto_max_ns);
                s.rtx_deadline = Some(now + s.rto_ns);
                self.deadline_stale = true;
                // Karn: never time a retransmitted range.
                s.rtt_probe = None;
                s.ssthresh = (s.flight() as f64 / 2.0).max(2.0 * cfg.mss as f64);
                s.cwnd = cfg.mss as f64;
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
                self.deadline_stale = true;
            }
        }
    }

    fn abort_with(&mut self, _now: LocalNs, sock: SockId, err: TcpError) {
        self.counters.conns_aborted += 1;
        push_note(&mut self.notes, TcpNote::ConnAborted);
        if let Some(s) = self.sockets.get_mut(sock) {
            s.error = Some(err);
            s.attention = true;
            s.state = TcpState::Closed;
            s.rtx_deadline = None;
            self.deadline_stale = true;
            if let Some((raddr, rport)) = s.remote {
                let (seq, lport) = (s.snd_nxt, s.local_port);
                self.send_rst_to(raddr, lport, rport, seq, 0, false);
            }
        }
        self.push_event(sock, SockEvent::Failed(err));
        // Keep the socket around (Closed, with error) so the app can observe
        // the error.
        if let Some(s) = self.sockets.get(sock) {
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
        let Some(s) = self.sockets.get(sock) else {
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
        let flags = TcpFlags {
            rst: true,
            ack: with_ack,
            syn: false,
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

    /// Send as much queued data as the windows allow; manage the
    /// retransmit timer.
    fn pump(&mut self, now: LocalNs, sock: SockId) {
        let cfg = self.cfg;
        loop {
            let Some(s) = self.sockets.get_mut(sock) else {
                return;
            };
            if s.state != TcpState::Established {
                return;
            }
            let unsent = s.send_q.len() as u32 - s.flight().min(s.send_q.len() as u32);
            let eff_wnd = (s.snd_wnd as f64).min(s.cwnd) as u32;
            let room = eff_wnd.saturating_sub(s.flight());

            if unsent > 0 && room == 0 && s.snd_wnd == 0 && !s.probing {
                // Peer closed its window: switch to persist probing.
                s.probing = true;
                s.rto_ns = s.rto_ns.max(cfg.rto_min_ns);
                s.rtx_deadline = Some(now + s.rto_ns);
                self.deadline_stale = true;
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
                        RTO_INITIAL_NS
                    } else {
                        s.rto_ns
                    };
                    s.rtx_deadline = Some(now + s.rto_ns);
                    self.deadline_stale = true;
                }
                self.emit_segment(sock, seq, TcpFlags::ACK, chunk);
                continue;
            }
            return;
        }
    }

    /// Retransmit one MSS from `snd_una`.
    fn retransmit_head(&mut self, sock: SockId) {
        let cfg = self.cfg;
        let Some(s) = self.sockets.get_mut(sock) else {
            return;
        };
        let in_flight_data = s.flight().min(s.send_q.len() as u32);
        if in_flight_data > 0 {
            let take = (in_flight_data as usize).min(cfg.mss);
            // The queue front is `snd_una`: retransmit is a window, no copy.
            let chunk = s.send_q.slice(0, take);
            let seq = s.snd_una;
            self.emit_segment(sock, seq, TcpFlags::ACK, chunk);
        } else {
            // Nothing outstanding after all (e.g. raced with an ACK).
            s.rtx_deadline = None;
            self.deadline_stale = true;
        }
    }

    fn send_window_probe(&mut self, sock: SockId) {
        let Some(s) = self.sockets.get_mut(sock) else {
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
            self.deadline_stale = true;
        }
    }

    // ------------------------------------------------------------------
    // Segment reception
    // ------------------------------------------------------------------

    /// Entry point for a segment delivered by the fabric.
    pub fn on_segment(&mut self, now: LocalNs, src: Addr, seg: TcpSegment) {
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
        s.rto_ns = RTO_INITIAL_NS;
        s.rtx_deadline = Some(now + s.rto_ns);
        self.deadline_stale = true;
        let id = self.sockets.insert(s);
        self.conns.insert((seg.dst_port, src, seg.src_port), id);
        self.emit_segment(id, isn, TcpFlags::SYN_ACK, Bytes::new());
    }

    fn on_conn_segment(&mut self, now: LocalNs, sock: SockId, _src: Addr, seg: TcpSegment) {
        let Some(s) = self.sockets.get_mut(sock) else {
            return;
        };
        // ---- RST ----
        if seg.flags.rst {
            // Acceptable if the seq is in window (we are lenient: any RST
            // for a known connection kills it; sim has no attackers).
            s.error = Some(TcpError::Reset);
            s.attention = true;
            s.state = TcpState::Closed;
            s.rtx_deadline = None;
            self.deadline_stale = true;
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
                    self.deadline_stale = true;
                    s.rto_ns = RTO_INITIAL_NS;
                    let seq = s.snd_nxt;
                    self.emit_segment(sock, seq, TcpFlags::ACK, Bytes::new());
                    self.push_event(sock, SockEvent::Connected);
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
                    self.deadline_stale = true;
                    s.rto_ns = RTO_INITIAL_NS;
                    let lport = s.local_port;
                    let listener = self.listeners.get(&lport).copied();
                    if let Some(listener) = listener {
                        self.accept_q.entry(listener).or_default().push_back(sock);
                        self.push_event(listener, SockEvent::Incoming(sock));
                    }
                    // Fall through: the ACK may carry data.
                } else if seg.flags.syn {
                    // Retransmitted SYN: re-send SYN-ACK.
                    let Some(s) = self.sockets.get(sock) else {
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
            let Some(s) = self.sockets.get(sock) else {
                return;
            };
            let snd_nxt = s.snd_nxt;
            self.emit_segment(sock, snd_nxt, TcpFlags::ACK, Bytes::new());
            return;
        }

        // Out-of-window bare segments (stale retransmissions of pure ACKs) elicit a fresh ACK so the sender
        // learns we are alive (RFC 793 "not acceptable ⇒ send an ACK").
        if seg.payload.is_empty() {
            let Some(s) = self.sockets.get(sock) else {
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

        // ---- payload ----
        if !seg.payload.is_empty() {
            self.process_data(sock, seg);
        }
    }

    fn process_ack(&mut self, now: LocalNs, sock: SockId, seg: &TcpSegment) {
        let cfg = self.cfg;
        let Some(s) = self.sockets.get_mut(sock) else {
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
            // Consume acked bytes from the queue.
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
            if s.cwnd < s.ssthresh {
                s.cwnd += newly_acked as f64; // slow start
            } else {
                s.cwnd += (cfg.mss as f64) * (cfg.mss as f64) / s.cwnd; // CA
            }

            // Timer maintenance: restart if data remains in flight.
            if s.flight() == 0 {
                s.rtx_deadline = None;
                self.deadline_stale = true;
            } else if s.rtx_deadline.is_some() {
                s.rtx_deadline = Some(now + s.rto_ns);
                self.deadline_stale = true;
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
                if s.dup_acks == DUPACK_THRESHOLD {
                    // Fast retransmit.
                    s.ssthresh = (s.flight() as f64 / 2.0).max(2.0 * cfg.mss as f64);
                    s.cwnd = s.ssthresh + 3.0 * cfg.mss as f64;
                    s.rtt_probe = None;
                    self.counters.fast_retransmits += 1;
                    push_note(&mut self.notes, TcpNote::FastRetransmit);
                    self.retransmit_head(sock);
                    if let Some(s) = self.sockets.get_mut(sock) {
                        s.rtx_deadline = Some(now + s.rto_ns);
                        self.deadline_stale = true;
                    }
                }
            } else if window_update {
                self.pump(now, sock);
            }
        }
    }

    /// Take in a segment's payload (never empty: the caller checks).
    fn process_data(&mut self, sock: SockId, seg: TcpSegment) {
        let cfg = self.cfg;
        let Some(s) = self.sockets.get_mut(sock) else {
            return;
        };
        let mut advanced = false;

        let seq = seg.seq;
        let payload = seg.payload;
        let end = seq.wrapping_add(payload.len() as u32);

        if seq_le(end, s.rcv_nxt) {
            // Entirely old: pure duplicate.
            self.counters.dup_segments += 1;
        } else {
            // Trim any already-received prefix.
            let (start_seq, data) = if seq_lt(seq, s.rcv_nxt) {
                let skip = s.rcv_nxt.wrapping_sub(seq) as usize;
                (s.rcv_nxt, payload.slice(skip..))
            } else {
                (seq, payload)
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
                    s.attention = true;
                    s.rcv_nxt = s.rcv_nxt.wrapping_add(n as u32);
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
                    }
                } else {
                    // Out of order: stash (keyed by start; last write wins).
                    s.ooo.insert(start_seq, data);
                }
            }
        }

        // If our receive window just hit zero, remember to update later.
        if self.adv_wnd(self.sockets.get(sock).unwrap()) == 0 {
            if let Some(s) = self.sockets.get_mut(sock) {
                s.wnd_was_closed = true;
            }
        }

        // ACK everything we have (immediate ACK policy).
        let Some(s) = self.sockets.get(sock) else {
            return;
        };
        let snd_nxt = s.snd_nxt;
        self.emit_segment(sock, snd_nxt, TcpFlags::ACK, Bytes::new());

        if advanced {
            self.push_event(sock, SockEvent::Readable);
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

#[cfg(test)]
mod cache_tests {
    use super::*;
    use crate::addr::PhysAddr;
    use proptest::prelude::*;

    const PORT: u16 = 7000;

    /// Two stacks joined by an in-order wire that the ops drive by hand.
    struct Pair {
        stacks: [TcpStack; 2],
        wire: VecDeque<(usize, Addr, TcpSegment)>,
        now: LocalNs,
    }

    impl Pair {
        fn new() -> Self {
            let cfg = TcpConfig::default();
            let mut b = TcpStack::new(PhysAddr(1).into(), cfg);
            b.listen(PORT).unwrap();
            Pair {
                stacks: [TcpStack::new(PhysAddr(0).into(), cfg), b],
                wire: VecDeque::new(),
                now: 0,
            }
        }

        /// Move both stacks' packets onto the wire, dropping their events.
        fn collect(&mut self) {
            for (h, stack) in self.stacks.iter_mut().enumerate() {
                for o in stack.out.drain(..) {
                    if let StackOutput::Packet(Packet {
                        src,
                        l4: L4::Tcp(seg),
                        ..
                    }) = o
                    {
                        self.wire.push_back((1 - h, src, seg));
                    }
                }
            }
        }

        /// A socket id of stack `h` picked by `arg`, live or not.
        fn pick(&self, h: usize, arg: u64) -> SockId {
            let end = self.stacks[h].sockets.end() as u64;
            (1 + arg % (end - 1).max(1)) as SockId
        }

        fn check(&mut self) -> Result<(), TestCaseError> {
            for stack in &mut self.stacks {
                let brute = stack.sockets.live().filter_map(|s| s.rtx_deadline).min();
                prop_assert_eq!(stack.next_deadline(), brute);
                for id in 0..stack.sockets.end() {
                    let want = stack.readable_bytes(id) > 0 || stack.error(id).is_some();
                    prop_assert_eq!(stack.attention(id), want, "socket {}", id);
                }
            }
            Ok(())
        }
    }

    proptest! {
        /// After every op, the cached `next_deadline` equals the minimum
        /// over the live sockets, and each socket's attention flag equals
        /// "readable bytes or an error". Ops: 0 connect, 1–2 send on a
        /// socket of A or B, 3–5 let the clock run `arg` ms and deliver the
        /// wire's head, 6 drop it, 7 reset a connection of either side, 8
        /// let the clock run `arg` × 200 ms and fire both stacks' timers
        /// (enough of them exhaust a retry budget), 9 `recv_into` on either
        /// side, 10 destroy a socket of either side.
        #[test]
        fn deadline_cache_and_attention_track_the_sockets(
            ops in prop::collection::vec((0u8..11, 0u64..64), 1..300),
        ) {
            let mut p = Pair::new();
            let b_addr = p.stacks[1].local_addr;
            for &(kind, arg) in &ops {
                let h = (arg & 1) as usize;
                let now = p.now;
                match kind {
                    0 => {
                        p.stacks[0].connect(now, b_addr, PORT);
                    }
                    1 | 2 => {
                        let h = (kind - 1) as usize;
                        let sock = p.pick(h, arg / 2);
                        let data = vec![arg as u8; 1 + arg as usize * 300];
                        p.stacks[h].send(now, sock, &data);
                    }
                    3..=5 => {
                        p.now += arg as i64 * 1_000_000;
                        if let Some((to, src, seg)) = p.wire.pop_front() {
                            p.stacks[to].on_segment(p.now, src, seg);
                        }
                    }
                    6 => {
                        p.wire.pop_front();
                    }
                    7 => {
                        let sock = p.pick(h, arg / 2);
                        let target = p.stacks[h].sockets.get(sock).and_then(|s| {
                            let (raddr, rport) = s.remote?;
                            Some((raddr, rport, s.local_port, s.rcv_nxt))
                        });
                        if let Some((raddr, rport, lport, seq)) = target {
                            let rst = TcpSegment {
                                src_port: rport,
                                dst_port: lport,
                                seq,
                                ack: 0,
                                flags: TcpFlags { rst: true, ack: false, syn: false },
                                wnd: 0,
                                payload: Bytes::new(),
                            };
                            p.stacks[h].on_segment(now, raddr, rst);
                        }
                    }
                    8 => {
                        p.now += arg as i64 * 200_000_000;
                        let now = p.now;
                        for stack in &mut p.stacks {
                            stack.on_timer(now);
                        }
                    }
                    9 => {
                        let sock = p.pick(h, arg / 2);
                        let mut buf = Vec::new();
                        p.stacks[h].recv_into(now, sock, &mut buf, arg as usize * 700);
                    }
                    _ => {
                        let sock = p.pick(h, arg / 2);
                        p.stacks[h].destroy(sock);
                    }
                }
                p.collect();
                p.check()?;
                for stack in &mut p.stacks {
                    while stack.accept(1).is_some() {}
                    stack.take_notes();
                }
            }
        }
    }
}
