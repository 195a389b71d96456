//! Property-based tests for the TCP implementation.
//!
//! The core invariant LSC inherits from the transport: **for any loss
//! pattern the fabric can produce, a stream either delivers exactly the
//! bytes that were sent, in order, or fails loudly** — never silently
//! corrupts, duplicates, or reorders.

use dvc_net::fabric::LinkParams;
use dvc_net::tcp::{SockEvent, SockId, TcpConfig};
use dvc_net::testkit::{drain, local_now, TestWorld};
use dvc_sim_core::{Sim, SimTime};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};

const A: usize = 0;
const B: usize = 1;

fn establish(sim: &mut Sim<TestWorld>) -> (SockId, SockId) {
    let listener = sim.world.hosts[B].tcp.listen(7000).unwrap();
    let now = local_now(sim);
    let b_addr = sim.world.hosts[B].addr;
    let sock_a = sim.world.hosts[A].tcp.connect(now, b_addr, 7000);
    drain(sim, A);
    let ok = sim.run_until(SimTime::from_secs_f64(60.0), |sim| {
        sim.world.hosts[B]
            .events
            .iter()
            .any(|&(s, e)| s == listener && matches!(e, SockEvent::Incoming(_)))
    });
    assert!(ok, "handshake failed");
    let sock_b = sim.world.hosts[B]
        .events
        .iter()
        .find_map(|&(s, e)| match e {
            SockEvent::Incoming(ns) if s == listener => Some(ns),
            _ => None,
        })
        .unwrap();
    (sock_a, sock_b)
}

/// Drive a transfer to completion (or failure/horizon). Returns received.
fn pump_transfer(
    sim: &mut Sim<TestWorld>,
    sa: SockId,
    sb: SockId,
    data: &[u8],
    horizon_s: f64,
) -> Vec<u8> {
    let horizon = SimTime::from_secs_f64(horizon_s);
    let mut sent = 0;
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
            received.extend(sim.world.hosts[B].tcp.recv(now, sb, avail));
            drain(sim, B);
        }
        if received.len() >= data.len() || sim.now() > horizon || !sim.step() {
            return received;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case simulates a full lossy transfer
        .. ProptestConfig::default()
    })]

    /// Any loss rate up to 10% and any payload up to 128 KiB: the stream is
    /// delivered intact (loss only slows it down).
    ///
    /// Uses a stock-Linux-like retry budget (`tcp_retries2 = 15`): the
    /// *delivery* property belongs to the retransmission machinery, not to
    /// the deliberately small LSC budget the experiments use — with a small
    /// budget, sustained 10% loss CAN legitimately abort a connection when
    /// an unlucky ACK-loss streak hits the end of the stream (where no
    /// fresh RTT samples bring the backed-off RTO down).
    #[test]
    fn lossy_transfer_is_exactly_once(
        loss in 0.0f64..0.10,
        len in 1usize..131_072,
        seed in any::<u64>(),
    ) {
        let cfg = TcpConfig {
            max_data_retries: 15,
            max_syn_retries: 7,
            rto_max_ns: 5_000_000_000, // cap backoff so the horizon holds
            ..TcpConfig::default()
        };
        let mut sim = Sim::new(
            TestWorld::new(2, LinkParams::gige_lan().with_loss(loss), cfg),
            seed,
        );
        let (sa, sb) = establish(&mut sim);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xDEAD);
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);

        let received = pump_transfer(&mut sim, sa, sb, &data, 3600.0);
        prop_assert_eq!(received.len(), data.len(), "incomplete after generous horizon");
        prop_assert_eq!(received, data);
    }

    /// Repeated pause/restore cycles of both endpoints (coordinated
    /// checkpoints) never corrupt the stream, for any cycle placement.
    #[test]
    fn repeated_coordinated_pauses_are_transparent(
        pause_at_ms in 1u64..200,
        down_ms in 1u64..2_000,
        skew_us in 0i64..3_000,
        seed in any::<u64>(),
    ) {
        use dvc_net::testkit::{pause, restore, snapshot};
        use dvc_sim_core::SimDuration;

        let mut sim = Sim::new(
            TestWorld::new(2, LinkParams::gige_lan(), TcpConfig::default()),
            seed,
        );
        let (sa, sb) = establish(&mut sim);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xBEEF);
        let mut data = vec![0u8; 300_000];
        rng.fill_bytes(&mut data);

        // Schedule a coordinated checkpoint mid-transfer with NTP-scale skew.
        let t0 = SimTime::from_secs_f64(pause_at_ms as f64 / 1e3);
        sim.schedule_at(t0, move |sim| {
            pause(sim, A);
            let snap_a = snapshot(sim, A);
            let skew = SimDuration::from_nanos((skew_us * 1000) as u64);
            sim.schedule_in(skew, move |sim| {
                pause(sim, B);
                let snap_b = snapshot(sim, B);
                let down = SimDuration::from_millis(down_ms);
                sim.schedule_in(down, move |sim| {
                    restore(sim, A, snap_a);
                    sim.schedule_in(SimDuration::from_millis(1), move |sim| {
                        restore(sim, B, snap_b);
                    });
                });
            });
        });

        let mut sent = 0;
        let mut received = Vec::new();
        let horizon = SimTime::from_secs_f64(600.0);
        loop {
            if sent < data.len() && !sim.world.hosts[A].paused {
                let now = local_now(&sim);
                let n = sim.world.hosts[A].tcp.send(now, sa, &data[sent..]);
                sent += n;
                if n > 0 { drain(&mut sim, A); }
            }
            if !sim.world.hosts[B].paused {
                let avail = sim.world.hosts[B].tcp.readable_bytes(sb);
                if avail > 0 {
                    let now = local_now(&sim);
                    received.extend(sim.world.hosts[B].tcp.recv(now, sb, avail));
                    drain(&mut sim, B);
                }
            }
            if received.len() >= data.len() { break; }
            prop_assert!(sim.now() <= horizon, "stalled at {} bytes", received.len());
            prop_assert!(sim.step(), "queue drained at {} bytes", received.len());
        }
        prop_assert_eq!(received, data);
    }
}
