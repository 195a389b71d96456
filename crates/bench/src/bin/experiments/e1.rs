//! E1 — Figure 2: consistent vs. inconsistent cuts of the network state.
//!
//! Reproduced at the TCP sequence-number level with two hosts:
//!
//! * **S1** — a data segment is in flight when both endpoints are
//!   snapshotted (the receiver never saw it): after restore the sender
//!   retransmits; delivery is exactly-once.
//! * **S2** — the receiver got the data but its ACK is lost at the snapshot
//!   instant: after restore the sender retransmits, the receiver discards
//!   the duplicate and re-ACKs; delivery is exactly-once.
//! * **Inconsistent cut (control)** — snapshots taken at *different logical
//!   instants* (receiver after delivery, sender before the send): restoring
//!   that pair duplicates the message — exactly the cut Figure 2 forbids
//!   and coordinated VM checkpointing prevents.

use crate::Opts;
use dvc_bench::table::Table;
use dvc_net::fabric::LinkParams;
use dvc_net::packet::{Packet, L4};
use dvc_net::tcp::{SockEvent, SockId, TcpConfig};
use dvc_net::testkit::{drain, local_now, pause, restore, snapshot, DropRule, TestWorld};
use dvc_sim_core::{Sim, SimDuration, SimTime};

const A: usize = 0;
const B: usize = 1;

fn establish(sim: &mut Sim<TestWorld>) -> (SockId, SockId) {
    let listener = sim.world.hosts[B].tcp.listen(7000).unwrap();
    let now = local_now(sim);
    let b_addr = sim.world.hosts[B].addr;
    let sa = sim.world.hosts[A].tcp.connect(now, b_addr, 7000);
    drain(sim, A);
    sim.run_until(SimTime::from_secs_f64(10.0), |sim| {
        sim.world.hosts[B]
            .events
            .iter()
            .any(|&(s, e)| s == listener && matches!(e, SockEvent::Incoming(_)))
    });
    let sb = sim.world.hosts[B]
        .events
        .iter()
        .find_map(|&(s, e)| match e {
            SockEvent::Incoming(n) if s == listener => Some(n),
            _ => None,
        })
        .unwrap();
    (sa, sb)
}

/// Returns (bytes delivered to the app, exactly_once, app_failed).
fn scenario(kind: &str) -> (usize, bool, bool) {
    let mut sim = Sim::new(
        TestWorld::new(2, LinkParams::gige_lan(), TcpConfig::default()),
        7,
    );
    let (sa, sb) = establish(&mut sim);
    let msg = b"the-one-true-message";

    match kind {
        "s1" => {
            // Data in flight at the coordinated snapshot.
            let now = local_now(&sim);
            sim.world.hosts[A].tcp.send(now, sa, msg);
            drain(&mut sim, A);
            pause(&mut sim, B); // in-flight segment dies at B's paused vif
            let snap_b = snapshot(&sim, B);
            pause(&mut sim, A);
            let snap_a = snapshot(&sim, A);
            let at = sim.now() + SimDuration::from_secs(1);
            sim.schedule_at(at, move |sim| restore(sim, B, snap_b));
            sim.schedule_at(at + SimDuration::from_millis(1), move |sim| {
                restore(sim, A, snap_a)
            });
        }
        "s2" => {
            // ACK lost at the coordinated snapshot.
            fn is_pure_ack(p: &Packet) -> bool {
                matches!(&p.l4, L4::Tcp(s) if s.payload.is_empty() && s.flags.ack && !s.flags.syn)
            }
            let now = local_now(&sim);
            sim.world.hosts[A].tcp.send(now, sa, msg);
            drain(&mut sim, A);
            sim.world.drop_rules.push(DropRule {
                remaining: 1,
                pred: is_pure_ack,
                dropped: 0,
            });
            sim.run_until(SimTime::from_secs_f64(5.0), |sim| {
                sim.world.hosts[B].tcp.readable_bytes(sb) >= 20
            });
            pause(&mut sim, B);
            let snap_b = snapshot(&sim, B);
            pause(&mut sim, A);
            let snap_a = snapshot(&sim, A);
            let at = sim.now() + SimDuration::from_secs(1);
            sim.schedule_at(at, move |sim| restore(sim, A, snap_a));
            sim.schedule_at(at + SimDuration::from_millis(1), move |sim| {
                restore(sim, B, snap_b)
            });
        }
        "inconsistent" => {
            // Control: the orphan-message cut of Figure 2 — the receiver is
            // rolled back to *before* the delivery while the sender (which
            // already got the ACK and moved on) is not rolled back at all.
            let snap_b = snapshot(&sim, B); // B: pre-receive state
            let now = local_now(&sim);
            sim.world.hosts[A].tcp.send(now, sa, msg);
            drain(&mut sim, A);
            sim.run_until(SimTime::from_secs_f64(5.0), |sim| {
                sim.world.hosts[B].tcp.readable_bytes(sb) >= 20
            });
            // B's application consumes the message, then B alone is rolled
            // back: the delivery is erased, and A will never resend (its
            // kernel saw the ACK).
            let now = local_now(&sim);
            let _consumed = sim.world.hosts[B].tcp.recv(now, sb, 1 << 16);
            drain(&mut sim, B);
            pause(&mut sim, B);
            let at = sim.now() + SimDuration::from_secs(1);
            sim.schedule_at(at, move |sim| restore(sim, B, snap_b));
        }
        _ => unreachable!(),
    }

    // Drive to quiescence and collect what the (restored) receiver has.
    sim.run_until(SimTime::from_secs_f64(120.0), |sim| {
        sim.events_pending() == 0
    });
    let now = local_now(&sim);
    let got = sim.world.hosts[B].tcp.recv(now, sb, 1 << 16);
    let failed = sim.world.hosts[A]
        .events
        .iter()
        .any(|&(_, e)| matches!(e, SockEvent::Failed(_)));
    let exactly_once = got == msg.to_vec();
    (got.len(), exactly_once, failed)
}

pub fn run(_opts: Opts) {
    println!("## E1 — Figure 2: network cuts at the snapshot instant\n");
    let mut t = Table::new(&[
        "cut",
        "coordinated",
        "bytes delivered",
        "exactly-once",
        "transport failure",
    ]);
    for (kind, label, coord) in [
        ("s1", "S1: data segment lost at snapshot", "yes"),
        ("s2", "S2: ACK lost at snapshot", "yes"),
        ("inconsistent", "receiver-only rollback (control)", "NO"),
    ] {
        let (bytes, once, failed) = scenario(kind);
        t.row(&[
            label.into(),
            coord.into(),
            format!("{bytes} (msg is 20)"),
            if once {
                "yes".into()
            } else {
                "VIOLATED (message lost)".into()
            },
            if failed { "yes".into() } else { "no".into() },
        ]);
    }
    println!("{}", t.render());
    println!(
        "Coordinated snapshots leave any in-flight loss to TCP \
         retransmission, so the cut is consistent; the uncoordinated \
         control cut orphans the delivery — the receiver's restored state \
         never gets the message again, the inconsistency Figure 2 \
         illustrates.\n"
    );
}
