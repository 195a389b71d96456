//! End-to-end TCP behavior tests over the simulated fabric.
//!
//! These tests validate the exact properties Lazy Synchronous Checkpointing
//! depends on, including the paper's Figure-2 scenarios (data lost at the
//! snapshot instant; ACK lost at the snapshot instant) and the emergent
//! failure when pause skew exceeds the transport's retry budget.

use dvc_net::fabric::LinkParams;
use dvc_net::packet::{Packet, L4};
use dvc_net::tcp::{SockEvent, SockId, TcpConfig, TcpError};
use dvc_net::testkit::{drain, local_now, pause, restore, snapshot, DropRule, TestWorld};
use dvc_sim_core::{Sim, SimDuration, SimTime};
use rand::{RngCore, SeedableRng};

const A: usize = 0;
const B: usize = 1;

fn world(edge: LinkParams, cfg: TcpConfig) -> Sim<TestWorld> {
    Sim::new(TestWorld::new(2, edge, cfg), 42)
}

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

/// Establish a connection A→B (listener on port 7000). Returns (sock_a, sock_b).
fn establish(sim: &mut Sim<Sim0Inner>) -> (SockId, SockId) {
    establish_on(sim, 7000)
}
type Sim0Inner = TestWorld;

fn establish_on(sim: &mut Sim<TestWorld>, port: u16) -> (SockId, SockId) {
    let listener = sim.world.hosts[B].tcp.listen(port).unwrap();
    let now = local_now(sim);
    let b_addr = sim.world.hosts[B].addr;
    let sock_a = sim.world.hosts[A].tcp.connect(now, b_addr, port);
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

/// Drive a one-directional transfer of `data` from host `src`/`s_sock` to
/// host `dst`, reading into a buffer. Runs until complete or horizon.
fn transfer(
    sim: &mut Sim<TestWorld>,
    src: usize,
    s_sock: SockId,
    dst: usize,
    d_sock: SockId,
    data: &[u8],
    horizon: SimTime,
) -> Vec<u8> {
    let mut sent = 0usize;
    let mut received = Vec::with_capacity(data.len());
    loop {
        // Sender: top up the send buffer.
        if sent < data.len() {
            let now = local_now(sim);
            let n = sim.world.hosts[src].tcp.send(now, s_sock, &data[sent..]);
            sent += n;
            if n > 0 {
                drain(sim, src);
            }
        }
        // Receiver: drain readable bytes.
        let avail = sim.world.hosts[dst].tcp.readable_bytes(d_sock);
        if avail > 0 {
            let now = local_now(sim);
            let got = sim.world.hosts[dst].tcp.recv(now, d_sock, avail);
            received.extend_from_slice(&got);
            drain(sim, dst);
        }
        if received.len() >= data.len() {
            break;
        }
        if sim.now() > horizon {
            break;
        }
        if !sim.step() {
            // Queue drained; if we still have work, the connection died.
            if received.len() < data.len()
                && sim.world.hosts[src]
                    .events
                    .iter()
                    .any(|&(_, e)| matches!(e, SockEvent::Failed(_)))
            {
                break;
            }
            if received.len() < data.len() {
                // Nothing scheduled and no failure: stuck. Break for assert.
                break;
            }
        }
    }
    received
}

fn rand_payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

fn failed_with(sim: &Sim<TestWorld>, host: usize, err: TcpError) -> bool {
    sim.world.hosts[host]
        .events
        .iter()
        .any(|&(_, e)| e == SockEvent::Failed(err))
}

fn any_failure(sim: &Sim<TestWorld>, host: usize) -> bool {
    sim.world.hosts[host]
        .events
        .iter()
        .any(|&(_, e)| matches!(e, SockEvent::Failed(_)))
}

// ---------------------------------------------------------------------
// Basic functionality
// ---------------------------------------------------------------------

#[test]
fn handshake_send_recv() {
    let mut sim = world(LinkParams::gige_lan(), TcpConfig::default());
    let (sa, sb) = establish(&mut sim);

    let got = transfer(&mut sim, A, sa, B, sb, b"hello, dvc", secs(10.0));
    assert_eq!(&got, b"hello, dvc");
    assert!(!any_failure(&sim, A) && !any_failure(&sim, B));
}

#[test]
fn bulk_transfer_is_intact_and_fast() {
    let mut sim = world(LinkParams::gige_lan(), TcpConfig::default());
    let (sa, sb) = establish(&mut sim);
    let data = rand_payload(1 << 20, 1); // 1 MiB
    let got = transfer(&mut sim, A, sa, B, sb, &data, secs(60.0));
    assert_eq!(got.len(), data.len());
    assert_eq!(got, data, "payload corrupted");
    // GigE-ish fabric: 1 MiB should take well under 2 s of simulated time.
    assert!(
        sim.now().as_secs_f64() < 2.0,
        "too slow: {:.3}s",
        sim.now().as_secs_f64()
    );
    let c = sim.world.hosts[A].tcp.counters;
    assert_eq!(c.retransmits + c.fast_retransmits, 0, "clean path: {c:?}");
}

#[test]
fn bidirectional_transfers_coexist() {
    let mut sim = world(LinkParams::gige_lan(), TcpConfig::default());
    let (sa, sb) = establish(&mut sim);
    let d_ab = rand_payload(200_000, 2);
    let d_ba = rand_payload(150_000, 3);
    let mut sent_ab = 0;
    let mut sent_ba = 0;
    let mut got_ab = Vec::new();
    let mut got_ba = Vec::new();
    let horizon = secs(30.0);
    loop {
        let now = local_now(&sim);
        if sent_ab < d_ab.len() {
            let n = sim.world.hosts[A].tcp.send(now, sa, &d_ab[sent_ab..]);
            sent_ab += n;
            if n > 0 {
                drain(&mut sim, A);
            }
        }
        if sent_ba < d_ba.len() {
            let n = sim.world.hosts[B].tcp.send(now, sb, &d_ba[sent_ba..]);
            sent_ba += n;
            if n > 0 {
                drain(&mut sim, B);
            }
        }
        let nb = sim.world.hosts[B].tcp.readable_bytes(sb);
        if nb > 0 {
            let now = local_now(&sim);
            got_ab.extend(sim.world.hosts[B].tcp.recv(now, sb, nb));
            drain(&mut sim, B);
        }
        let na = sim.world.hosts[A].tcp.readable_bytes(sa);
        if na > 0 {
            let now = local_now(&sim);
            got_ba.extend(sim.world.hosts[A].tcp.recv(now, sa, na));
            drain(&mut sim, A);
        }
        if got_ab.len() >= d_ab.len() && got_ba.len() >= d_ba.len() {
            break;
        }
        assert!(sim.now() <= horizon, "bidirectional transfer stalled");
        assert!(sim.step(), "queue drained before completion");
    }
    assert_eq!(got_ab, d_ab);
    assert_eq!(got_ba, d_ba);
}

#[test]
fn transfer_survives_random_loss() {
    let mut sim = world(LinkParams::gige_lan().with_loss(0.02), TcpConfig::default());
    let (sa, sb) = establish(&mut sim);
    let data = rand_payload(256 * 1024, 4);
    let got = transfer(&mut sim, A, sa, B, sb, &data, secs(300.0));
    assert_eq!(got, data, "loss corrupted the stream");
    let ca = sim.world.hosts[A].tcp.counters;
    assert!(
        ca.retransmits + ca.fast_retransmits > 0,
        "expected recovery activity: {ca:?}"
    );
}

#[test]
fn fast_retransmit_recovers_single_drop() {
    let mut sim = world(LinkParams::gige_lan(), TcpConfig::default());
    let (sa, sb) = establish(&mut sim);
    // Drop exactly one data-bearing segment headed to B.
    fn is_data_seg(p: &Packet) -> bool {
        matches!(&p.l4, L4::Tcp(s) if !s.payload.is_empty())
    }
    sim.world.drop_rules.push(DropRule {
        remaining: 1,
        pred: is_data_seg,
        dropped: 0,
    });
    let data = rand_payload(512 * 1024, 5);
    let got = transfer(&mut sim, A, sa, B, sb, &data, secs(60.0));
    assert_eq!(got, data);
    assert_eq!(sim.world.drop_rules[0].dropped, 1);
    let c = sim.world.hosts[A].tcp.counters;
    assert!(c.fast_retransmits >= 1, "expected a fast retransmit: {c:?}");
}

#[test]
fn connect_to_closed_port_fails_with_reset() {
    let mut sim = world(LinkParams::gige_lan(), TcpConfig::default());
    let now = local_now(&sim);
    let b_addr = sim.world.hosts[B].addr;
    let sock = sim.world.hosts[A].tcp.connect(now, b_addr, 9999);
    drain(&mut sim, A);
    let ok = sim.run_until(secs(5.0), |sim| any_failure(sim, A));
    assert!(ok);
    assert!(failed_with(&sim, A, TcpError::Reset));
    // The dead socket keeps its error for the app to observe.
    assert_eq!(sim.world.hosts[A].tcp.error(sock), Some(TcpError::Reset));
}

#[test]
fn zero_window_blocks_then_resumes() {
    let cfg = TcpConfig {
        send_buf: 64 * 1024,
        recv_buf: 32 * 1024,
        ..TcpConfig::default()
    };
    let mut sim = world(LinkParams::gige_lan(), cfg);
    let (sa, sb) = establish(&mut sim);
    let data = rand_payload(200_000, 6);
    // Sender pushes, receiver does NOT read.
    let mut sent = 0;
    loop {
        let now = local_now(&sim);
        let n = sim.world.hosts[A].tcp.send(now, sa, &data[sent..]);
        sent += n;
        if n > 0 {
            drain(&mut sim, A);
        }
        if !sim.step() || sim.now() > secs(20.0) {
            break;
        }
        if sent >= data.len() {
            break;
        }
    }
    // Receiver's buffer (32 KiB) + sender's buffer (64 KiB) bound progress.
    assert!(sent < data.len(), "flow control failed to block the sender");
    assert!(!any_failure(&sim, A), "zero window must not reset");

    // Now the receiver starts reading: the rest flows. Continue the stream
    // from where the sender's application got blocked.
    let mut received: Vec<u8> = Vec::new();
    let horizon = secs(300.0);
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
        assert!(
            sim.now() <= horizon,
            "drain stalled ({} bytes)",
            received.len()
        );
        assert!(sim.step(), "queue empty with transfer incomplete");
    }
    assert_eq!(received, data, "stream corrupted through zero-window stall");
    assert!(
        sim.world.hosts[A].tcp.counters.zero_window_probes > 0,
        "expected window probes: {:?}",
        sim.world.hosts[A].tcp.counters
    );
}

// ---------------------------------------------------------------------
// The LSC-critical behaviors
// ---------------------------------------------------------------------

/// A paused peer beyond the retry budget kills the connection: the paper's
/// "network timeout occurs and causes the application to crash".
#[test]
fn frozen_peer_exhausts_retries_and_resets() {
    let cfg = TcpConfig::default();
    let mut sim = world(LinkParams::gige_lan(), cfg);
    let (sa, sb) = establish(&mut sim);
    // Warm up: move some data so RTT is measured.
    let warm = rand_payload(10_000, 7);
    let got = transfer(&mut sim, A, sa, B, sb, &warm, secs(10.0));
    assert_eq!(got, warm);

    // Freeze B forever; A keeps sending.
    pause(&mut sim, B);
    let t_freeze = sim.now();
    let now = local_now(&sim);
    sim.world.hosts[A]
        .tcp
        .send(now, sa, &rand_payload(50_000, 8));
    drain(&mut sim, A);

    let ok = sim.run_until(secs(600.0), |sim| any_failure(sim, A));
    assert!(ok, "sender never aborted");
    assert!(failed_with(&sim, A, TcpError::RetryTimeout));

    // The abort time is the sum of the backoff schedule:
    // rto_min · (1+2+4+8+16+32) bounded by rto_max; with 200 ms floor and
    // RTT-fitted RTO ≈ 200 ms, expect ≈ 12.6 s (±1 RTO slack).
    let elapsed = (sim.now() - t_freeze).as_secs_f64();
    assert!(
        (10.0..16.0).contains(&elapsed),
        "abort after {elapsed:.2}s, expected ~12.6s"
    );
    let c = sim.world.hosts[A].tcp.counters;
    assert_eq!(c.conns_aborted, 1);
    assert!(c.retransmits >= 5);
}

/// Pausing BOTH endpoints (a coordinated LSC checkpoint) and restoring them
/// within the budget is harmless — the transfer completes intact.
#[test]
fn coordinated_pause_restore_preserves_stream() {
    let mut sim = world(LinkParams::gige_lan(), TcpConfig::default());
    let (sa, sb) = establish(&mut sim);
    let data = rand_payload(600_000, 9);

    // Start the transfer, run ~30 ms in, then pause both with 2 ms skew
    // (NTP-scale), snapshot, stay down 2 s, restore both.
    let mut sent = 0;
    let mut received: Vec<u8> = Vec::new();
    let now = local_now(&sim);
    sent += sim.world.hosts[A].tcp.send(now, sa, &data[sent..]);
    drain(&mut sim, A);
    while sim.now() < secs(0.030) {
        assert!(sim.step());
    }
    pause(&mut sim, A);
    let snap_a = snapshot(&sim, A);
    while sim.now() < secs(0.032) {
        sim.step();
    }
    pause(&mut sim, B);
    let snap_b = snapshot(&sim, B);

    // Dead time: both suspended.
    let resume_at = sim.now() + SimDuration::from_secs(2);
    sim.schedule_at(resume_at, move |sim| {
        restore(sim, A, snap_a);
    });
    sim.schedule_at(resume_at + SimDuration::from_millis(2), move |sim| {
        restore(sim, B, snap_b);
    });

    // Drive to completion.
    let horizon = secs(120.0);
    loop {
        if sent < data.len() && !sim.world.hosts[A].paused {
            let now = local_now(&sim);
            let n = sim.world.hosts[A].tcp.send(now, sa, &data[sent..]);
            sent += n;
            if n > 0 {
                drain(&mut sim, A);
            }
        }
        if !sim.world.hosts[B].paused {
            let avail = sim.world.hosts[B].tcp.readable_bytes(sb);
            if avail > 0 {
                let now = local_now(&sim);
                received.extend(sim.world.hosts[B].tcp.recv(now, sb, avail));
                drain(&mut sim, B);
            }
        }
        if received.len() >= data.len() {
            break;
        }
        assert!(sim.now() <= horizon, "transfer stalled after restore");
        assert!(sim.step(), "queue drained prematurely");
    }
    assert_eq!(received, data, "stream corrupted across checkpoint");
    assert!(!any_failure(&sim, A) && !any_failure(&sim, B));
}

/// Paper Figure 2, scenario 1: a data segment is lost because the receiver
/// was checkpointed before delivery. After restore, retransmission delivers
/// it exactly once.
#[test]
fn scenario1_message_lost_at_snapshot_is_retransmitted() {
    let mut sim = world(LinkParams::gige_lan(), TcpConfig::default());
    let (sa, sb) = establish(&mut sim);

    // Send one message and immediately pause the receiver so the in-flight
    // segment is dropped at its NIC (then pause the sender too).
    let msg = b"critical-payload-0123456789";
    let now = local_now(&sim);
    sim.world.hosts[A].tcp.send(now, sa, msg);
    drain(&mut sim, A);
    pause(&mut sim, B); // segment in flight will hit a paused host -> gone
    let snap_b = snapshot(&sim, B);
    pause(&mut sim, A);
    let snap_a = snapshot(&sim, A);

    // Restore both 1 s later (well inside the budget).
    let at = sim.now() + SimDuration::from_secs(1);
    sim.schedule_at(at, move |sim| restore(sim, B, snap_b));
    sim.schedule_at(at + SimDuration::from_millis(1), move |sim| {
        restore(sim, A, snap_a)
    });

    let ok = sim.run_until(secs(60.0), |sim| {
        sim.world.hosts[B].tcp.readable_bytes(sb) >= msg.len()
    });
    assert!(ok, "message never delivered after restore");
    let now = local_now(&sim);
    let got = sim.world.hosts[B].tcp.recv(now, sb, 1024);
    assert_eq!(&got, msg, "delivered exactly once, uncorrupted");
    assert!(!any_failure(&sim, A) && !any_failure(&sim, B));
    assert!(
        sim.world.hosts[A].tcp.counters.retransmits >= 1,
        "recovery must come from retransmission"
    );
}

/// Paper Figure 2, scenario 2: the receiver got the data but its ACK is lost
/// at the snapshot. After restore the sender retransmits, the receiver
/// re-ACKs, and the application sees **no duplication**.
#[test]
fn scenario2_lost_ack_causes_no_duplication() {
    let mut sim = world(LinkParams::gige_lan(), TcpConfig::default());
    let (sa, sb) = establish(&mut sim);

    // Drop the next pure-ACK segment headed to A (the data's ACK).
    fn is_pure_ack_to_a(p: &Packet) -> bool {
        match &p.l4 {
            L4::Tcp(s) => s.payload.is_empty() && s.flags.ack && !s.flags.syn,
            _ => false,
        }
    }
    let msg = b"ack-will-be-lost";
    let now = local_now(&sim);
    sim.world.hosts[A].tcp.send(now, sa, msg);
    drain(&mut sim, A);
    // Let the data reach B and B's ACK get dropped.
    sim.world.drop_rules.push(DropRule {
        remaining: 1,
        pred: is_pure_ack_to_a,
        dropped: 0,
    });
    let ok = sim.run_until(secs(5.0), |sim| {
        sim.world.hosts[B].tcp.readable_bytes(sb) >= msg.len()
            && sim.world.drop_rules[0].dropped == 1
    });
    assert!(ok, "data never reached B / ACK never dropped");

    // Checkpoint both immediately (B already consumed the data's delivery).
    pause(&mut sim, B);
    let snap_b = snapshot(&sim, B);
    pause(&mut sim, A);
    let snap_a = snapshot(&sim, A);
    let at = sim.now() + SimDuration::from_secs(1);
    sim.schedule_at(at, move |sim| restore(sim, A, snap_a));
    sim.schedule_at(at + SimDuration::from_millis(1), move |sim| {
        restore(sim, B, snap_b)
    });

    // After restore: A retransmits (unacked), B re-ACKs; A must end with
    // snd_una advanced (no Failed), and B must not duplicate bytes.
    let ok = sim.run_until(secs(60.0), |sim| {
        !any_failure(sim, A) && sim.world.hosts[A].tcp.counters.retransmits >= 1 && {
            // settle: no pending retransmission deadline on A
            sim.world.hosts[A].tcp.next_deadline().is_none()
        }
    });
    assert!(ok, "sender never settled after restore");
    let now = local_now(&sim);
    let got = sim.world.hosts[B].tcp.recv(now, sb, 1024);
    assert_eq!(&got, msg, "exactly-once delivery violated");
    assert_eq!(sim.world.hosts[B].tcp.readable_bytes(sb), 0);
    assert!(
        sim.world.hosts[B].tcp.counters.dup_segments >= 1,
        "B should have seen (and discarded) the duplicate"
    );
}

/// Excessive pause skew — one side checkpointed, the other left running past
/// the budget — produces the emergent failure LSC must avoid.
#[test]
fn skewed_pause_beyond_budget_fails() {
    let mut sim = world(LinkParams::gige_lan(), TcpConfig::default());
    let (sa, sb) = establish(&mut sim);
    let warm = rand_payload(10_000, 10);
    let got = transfer(&mut sim, A, sa, B, sb, &warm, secs(10.0));
    assert_eq!(got, warm);

    // Pause only B ("its save command arrived 20 s before A's").
    pause(&mut sim, B);
    let snap_b = snapshot(&sim, B);
    let now = local_now(&sim);
    sim.world.hosts[A]
        .tcp
        .send(now, sa, &rand_payload(40_000, 11));
    drain(&mut sim, A);

    // Restore B 20 s later: too late.
    let at = sim.now() + SimDuration::from_secs(20);
    sim.schedule_at(at, move |sim| restore(sim, B, snap_b));

    let ok = sim.run_until(secs(120.0), |sim| any_failure(sim, A));
    assert!(ok, "A should have aborted");
    assert!(failed_with(&sim, A, TcpError::RetryTimeout));
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut sim = world(LinkParams::gige_lan().with_loss(0.05), TcpConfig::default());
        let (sa, sb) = establish(&mut sim);
        let data = rand_payload(100_000, 12);
        let got = transfer(&mut sim, A, sa, B, sb, &data, secs(120.0));
        let c = sim.world.hosts[A].tcp.counters;
        (got, c.retransmits, c.fast_retransmits, sim.now())
    };
    let r1 = run();
    let r2 = run();
    assert_eq!(r1.0, r2.0);
    assert_eq!(r1.1, r2.1);
    assert_eq!(r1.2, r2.2);
    assert_eq!(r1.3, r2.3, "simulation must be bit-deterministic");
}

/// Regression: an *immediate* pause (1 ms into the connection, mid-slow-start)
/// with a ~2 s outage used to livelock. Tens of kilobytes dropped at the
/// paused guest's vif left a large phantom flight; every RTO then reset cwnd,
/// so `min(cwnd, wnd) - flight` stayed pinned at zero and the connection
/// crawled at one MSS per backed-off timeout. The fix is classic BSD
/// go-back-N on timeout (pull `snd_nxt` back to the retransmitted head)
/// plus a separate `snd_max` high-water mark so the peer's cumulative ACK —
/// which may exceed the pulled-back `snd_nxt` — is still honoured.
#[test]
fn early_pause_with_long_outage_does_not_livelock() {
    let (pause_at_ms, down_ms, skew_us, seed) = (1u64, 1892u64, 345u64, 12074398752566233198u64);
    let mut sim = world(LinkParams::gige_lan(), TcpConfig::default());
    let (sa, sb) = establish(&mut sim);
    let data = rand_payload(300_000, seed ^ 0xBEEF);

    sim.schedule_at(
        SimTime::from_secs_f64(pause_at_ms as f64 / 1e3),
        move |sim| {
            pause(sim, A);
            let snap_a = snapshot(sim, A);
            sim.schedule_in(SimDuration::from_nanos(skew_us * 1000), move |sim| {
                pause(sim, B);
                let snap_b = snapshot(sim, B);
                sim.schedule_in(SimDuration::from_millis(down_ms), move |sim| {
                    restore(sim, A, snap_a);
                    sim.schedule_in(SimDuration::from_millis(1), move |sim| {
                        restore(sim, B, snap_b);
                    });
                });
            });
        },
    );

    let mut sent = 0;
    let mut received: Vec<u8> = Vec::new();
    // Without go-back-N this case needed >600 simulated seconds; with it the
    // stream finishes within a few RTOs of the restore.
    let horizon = secs(30.0);
    loop {
        if sent < data.len() && !sim.world.hosts[A].paused {
            let now = local_now(&sim);
            let n = sim.world.hosts[A].tcp.send(now, sa, &data[sent..]);
            sent += n;
            if n > 0 {
                drain(&mut sim, A);
            }
        }
        if !sim.world.hosts[B].paused {
            let avail = sim.world.hosts[B].tcp.readable_bytes(sb);
            if avail > 0 {
                let now = local_now(&sim);
                received.extend(sim.world.hosts[B].tcp.recv(now, sb, avail));
                drain(&mut sim, B);
            }
        }
        if received.len() >= data.len() {
            break;
        }
        assert!(
            sim.now() <= horizon,
            "livelocked at {} bytes",
            received.len()
        );
        assert!(sim.step(), "queue drained at {} bytes", received.len());
    }
    assert_eq!(received, data, "stream corrupted across early checkpoint");
}
