//! Golden segment-trace tests for the TCP sender path.
//!
//! Each scenario records every segment *emitted* by either stack
//! (src/dst port, flags, seq, ack, wnd, payload length — the full
//! `TcpSegment` debug line) and asserts the whole trace against a golden
//! digest captured **before** the zero-copy buffer rewrite. Any change to
//! segmentation boundaries, retransmission choices, ACK generation
//! or window advertisement shows up as a digest mismatch, with the full
//! trace printed for diffing.
//!
//! Regenerate (after an *intentional* behavior change only):
//! `DUMP_TCP_GOLDEN=1 cargo test -p dvc-net --test tcp_golden_traces -- --nocapture`

use bytes::Bytes;
use dvc_net::fabric::LinkParams;
use dvc_net::packet::{Packet, L4};
use dvc_net::tcp::{SockEvent, SockId, TcpConfig};
use dvc_net::testkit::{drain, local_now, DropRule, TestWorld};
use dvc_sim_core::{fnv1a, Sim, SimStats, SimTime, FNV_BASIS};

const A: usize = 0;
const B: usize = 1;

fn world(cfg: TcpConfig) -> Sim<TestWorld> {
    let mut sim = Sim::new(TestWorld::new(2, LinkParams::gige_lan(), cfg), 42);
    sim.world.log_segments = true;
    sim
}

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

fn establish(sim: &mut Sim<TestWorld>) -> (SockId, SockId) {
    let listener = sim.world.hosts[B].tcp.listen(7000).unwrap();
    let now = local_now(sim);
    let b_addr = sim.world.hosts[B].addr;
    let sock_a = sim.world.hosts[A].tcp.connect(now, b_addr, 7000);
    drain(sim, A);
    let ok = sim.run_until(secs(30.0), |sim| {
        sim.world.hosts[A]
            .events
            .iter()
            .any(|&(s, e)| s == sock_a && e == SockEvent::Connected)
            && sim.world.hosts[B]
                .events
                .iter()
                .any(|&(s, e)| s == listener && matches!(e, SockEvent::Incoming(_)))
    });
    assert!(ok, "connect did not complete");
    let sock_b = sim.world.hosts[B]
        .events
        .iter()
        .find_map(|&(s, e)| match e {
            SockEvent::Incoming(ns) if s == listener => Some(ns),
            _ => None,
        })
        .expect("no Incoming event");
    (sock_a, sock_b)
}

/// Deterministic payload (no RNG: goldens must not depend on rand internals).
fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + 7) as u8).collect()
}

fn transfer(
    sim: &mut Sim<TestWorld>,
    sa: SockId,
    sb: SockId,
    data: &[u8],
    horizon: SimTime,
) -> Vec<u8> {
    let mut sent = 0usize;
    let mut received = Vec::with_capacity(data.len());
    loop {
        if sent < data.len() {
            let now = local_now(sim);
            let n = sim.world.hosts[A].tcp.send(now, sa, &data[sent..]);
            sent += n;
            if n > 0 {
                drain(sim, A);
            }
        }
        let avail = sim.world.hosts[B].tcp.readable_bytes(sb);
        if avail > 0 {
            let now = local_now(sim);
            let got = sim.world.hosts[B].tcp.recv(now, sb, avail);
            received.extend_from_slice(&got);
            drain(sim, B);
        }
        if received.len() >= data.len() || sim.now() > horizon {
            break;
        }
        if !sim.step() {
            break;
        }
    }
    received
}

fn fnv64(lines: &[String]) -> u64 {
    lines
        .iter()
        .fold(FNV_BASIS, |h, l| fnv1a(fnv1a(h, l.as_bytes()), b"\n"))
}

/// Assert the trace matches its golden (digest, line count); dump on demand.
fn check_golden(name: &str, log: &[String], want_lines: usize, want_digest: u64) {
    if std::env::var("DUMP_TCP_GOLDEN").is_ok() {
        println!(
            "=== {name}: {} lines, digest 0x{:016x}",
            log.len(),
            fnv64(log)
        );
        for l in log {
            println!("{l}");
        }
        return;
    }
    let digest = fnv64(log);
    if log.len() != want_lines || digest != want_digest {
        eprintln!(
            "--- {name}: got {} lines, digest 0x{digest:016x}",
            log.len()
        );
        for l in log {
            eprintln!("{l}");
        }
        panic!(
            "{name}: segment trace diverged from golden \
             (want {want_lines} lines / 0x{want_digest:016x})"
        );
    }
}

/// Bulk send: handshake, MSS segmentation of a 6000-byte stream, ACK clock.
#[test]
fn golden_bulk_send() {
    let mut sim = world(TcpConfig::default());
    let (sa, sb) = establish(&mut sim);
    let data = payload(6000);
    let got = transfer(&mut sim, sa, sb, &data, secs(30.0));
    assert_eq!(got, data);
    let log = sim.world.seg_log.clone();
    check_golden("bulk_send", &log, 13, 0x28f075518b3f5262);
}

/// One dropped data segment with too few dup-ACKs to fast-retransmit:
/// the RTO fires and go-back-N resends from the head.
#[test]
fn golden_retransmit_after_loss_rto() {
    let mut sim = world(TcpConfig::default());
    let (sa, sb) = establish(&mut sim);
    fn is_data_seg(p: &Packet) -> bool {
        matches!(&p.l4, L4::Tcp(s) if !s.payload.is_empty())
    }
    sim.world.drop_rules.push(DropRule {
        remaining: 1,
        pred: is_data_seg,
        dropped: 0,
    });
    let data = payload(3000);
    let got = transfer(&mut sim, sa, sb, &data, secs(60.0));
    assert_eq!(got, data);
    assert_eq!(sim.world.drop_rules[0].dropped, 1);
    assert!(sim.world.hosts[A].tcp.counters.timeouts > 0);
    let log = sim.world.seg_log.clone();
    check_golden("retransmit_rto", &log, 10, 0x621995ddb2900d3c);
}

/// One dropped data segment inside a long enough train that three dup-ACKs
/// arrive: fast retransmit repairs it without waiting for the RTO.
#[test]
fn golden_fast_retransmit() {
    let mut sim = world(TcpConfig::default());
    let (sa, sb) = establish(&mut sim);
    fn is_data_seg(p: &Packet) -> bool {
        matches!(&p.l4, L4::Tcp(s) if !s.payload.is_empty())
    }
    sim.world.drop_rules.push(DropRule {
        remaining: 1,
        pred: is_data_seg,
        dropped: 0,
    });
    let data = payload(20_000);
    let got = transfer(&mut sim, sa, sb, &data, secs(60.0));
    assert_eq!(got, data);
    assert!(sim.world.hosts[A].tcp.counters.fast_retransmits >= 1);
    let log = sim.world.seg_log.clone();
    check_golden("fast_retransmit", &log, 32, 0xf3716cf1d3064359);
}

/// Zero-window stall: the receiver stops reading, the sender probes the
/// closed window, then the reader drains and the stream completes.
#[test]
fn golden_zero_window_probe() {
    let cfg = TcpConfig {
        send_buf: 16 * 1024,
        recv_buf: 8 * 1024,
        ..TcpConfig::default()
    };
    let mut sim = world(cfg);
    let (sa, sb) = establish(&mut sim);
    let data = payload(30_000);
    // Phase 1: push without reading until the sender is fully blocked.
    let mut sent = 0;
    loop {
        let now = local_now(&sim);
        let n = sim.world.hosts[A].tcp.send(now, sa, &data[sent..]);
        sent += n;
        if n > 0 {
            drain(&mut sim, A);
        }
        if sent >= data.len() || !sim.step() || sim.now() > secs(20.0) {
            break;
        }
    }
    assert!(sent < data.len(), "flow control failed to block");
    assert!(
        sim.world.hosts[A].tcp.counters.zero_window_probes > 0,
        "no probes: {:?}",
        sim.world.hosts[A].tcp.counters
    );
    // Phase 2: read everything out.
    let mut received: Vec<u8> = Vec::new();
    loop {
        if sent < data.len() {
            let now = local_now(&sim);
            let n = sim.world.hosts[A].tcp.send(now, sa, &data[sent..]);
            sent += n;
            if n > 0 {
                drain(&mut sim, A);
            }
        }
        let avail = sim.world.hosts[B].tcp.readable_bytes(sb);
        if avail > 0 {
            let now = local_now(&sim);
            received.extend(sim.world.hosts[B].tcp.recv(now, sb, avail));
            drain(&mut sim, B);
        }
        if received.len() >= data.len() {
            break;
        }
        assert!(sim.now() <= secs(300.0), "stalled at {}", received.len());
        assert!(sim.step(), "queue empty mid-transfer");
    }
    assert_eq!(received, data);
    let log = sim.world.seg_log.clone();
    // Note: this trace interleaves app send/recv with individual sim steps,
    // so unlike the other goldens it also pins the harness's step timing:
    // cancelled timers must still surface as step instants (timed no-ops)
    // for this digest to hold across the cancellation rework.
    check_golden("zero_window", &log, 76, 0x947c2d29408eb90c);
}

/// Stream `total` bytes A→B as an application would: 64 KiB `send_bytes`
/// chunks in, MSS-sized `recv_into` reads out. Returns the finished sim so
/// a test can read its engine counters.
fn stream(link: LinkParams, cfg: TcpConfig, loss: f64, total: usize) -> Sim<TestWorld> {
    let mut sim = Sim::new(TestWorld::new(2, link.with_loss(loss), cfg), 9);
    let (sa, sb) = establish(&mut sim);
    let chunk = Bytes::from(vec![0xA5u8; 64 * 1024]);
    let mut buf = Vec::with_capacity(cfg.mss);
    let (mut sent, mut received) = (0, 0);
    while received < total {
        if sent < total {
            let now = local_now(&sim);
            let n = sim.world.hosts[A].tcp.send_bytes(now, sa, chunk.clone());
            sent += n;
            if n > 0 {
                drain(&mut sim, A);
            }
        }
        if sim.world.hosts[B].tcp.readable_bytes(sb) > 0 {
            let now = local_now(&sim);
            buf.clear();
            received += sim.world.hosts[B].tcp.recv_into(now, sb, &mut buf, cfg.mss);
            drain(&mut sim, B);
        }
        if received < total {
            assert!(sim.step(), "stalled at {received}/{total}");
        }
    }
    sim
}

/// Engine work of a 4 MiB bulk stream over the campus-WAN profile with
/// jumbo frames and 1 MiB buffers, where the window fills the
/// bandwidth-delay product. The counts are exact: any change means the
/// data plane schedules different work.
#[test]
fn bulk_stream_work_counts() {
    let cfg = TcpConfig {
        mss: 8960,
        send_buf: 1 << 20,
        recv_buf: 1 << 20,
        ..TcpConfig::default()
    };
    let sim = stream(LinkParams::campus_wan(), cfg, 0.0, 4 << 20);
    let want = SimStats {
        scheduled: 2751,
        executed: 1896,
        noop_pops: 0,
        peak_queue_depth: 855,
    };
    assert_eq!(sim.stats(), want);
}

/// Engine work of a 1 MiB stream over the LAN at 1 % loss: retransmit
/// timers are re-armed and cancelled, so tombstone pops are pinned too.
#[test]
fn lossy_stream_work_counts() {
    let sim = stream(LinkParams::gige_lan(), TcpConfig::default(), 0.01, 1 << 20);
    let want = SimStats {
        scheduled: 7538,
        executed: 5532,
        noop_pops: 1708,
        peak_queue_depth: 511,
    };
    assert_eq!(sim.stats(), want);
}
