//! Integration tests: guests on the simulated testbed.
//!
//! These exercise the full path — guest process → guest TCP stack → fabric →
//! peer guest — plus VM save/restore with *migration to a different node*,
//! watchdog semantics, and cluster-wide NTP convergence.

use dvc_cluster::glue::{self, create_vm, save_vm, spawn_proc};
use dvc_cluster::node::NodeId;
use dvc_cluster::ntp;
use dvc_cluster::world::{ClusterBuilder, ClusterWorld};
use dvc_net::tcp::{SockId, TcpError};
use dvc_sim_core::{Sim, SimDuration, SimTime};
use dvc_vmm::guest::{GuestCtx, GuestProc, ProcPoll};
use dvc_vmm::VmId;

/// A guest app that sends `total` bytes to a peer and records progress.
#[derive(Clone)]
struct Sender {
    peer: dvc_net::Addr,
    port: u16,
    total: usize,
    sent: usize,
    sock: Option<SockId>,
    done: bool,
}

impl GuestProc for Sender {
    fn poll(&mut self, ctx: &mut GuestCtx<'_>) -> ProcPoll {
        if self.done {
            return ProcPoll::Done;
        }
        let sock = match self.sock {
            Some(s) => s,
            None => {
                let s = ctx.tcp.connect(ctx.now, self.peer, self.port);
                self.sock = Some(s);
                s
            }
        };
        if let Some(err) = ctx.tcp.error(sock) {
            return ProcPoll::Failed(format!("socket error: {err:?}"));
        }
        if self.sent < self.total {
            let len = (self.total - self.sent).min(8192);
            let chunk: Vec<u8> = (0..len).map(|i| ((self.sent + i) % 251) as u8).collect();
            let n = ctx.tcp.send(ctx.now, sock, &chunk);
            self.sent += n;
            if n > 0 {
                // Model some compute between sends.
                return ProcPoll::Compute(dvc_sim_core::SimDuration::from_micros(200));
            }
            return ProcPoll::Blocked;
        }
        self.done = true;
        ProcPoll::Done
    }
    fn clone_box(&self) -> Box<dyn GuestProc> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A guest app that accepts one connection and consumes bytes, verifying
/// the pattern.
#[derive(Clone)]
struct Receiver {
    port: u16,
    expect: usize,
    got: usize,
    listener: Option<SockId>,
    conn: Option<SockId>,
    corrupt: bool,
}

impl GuestProc for Receiver {
    fn poll(&mut self, ctx: &mut GuestCtx<'_>) -> ProcPoll {
        if self.listener.is_none() {
            self.listener = Some(ctx.tcp.listen(self.port).expect("listen"));
        }
        if self.conn.is_none() {
            // Adopt the first established connection on our port.
            // (The runtime surfaces it through stack state: scan via recv on
            // any socket readable — simplest: check socket ids 1..8.)
            for cand in 1..16 {
                if ctx.tcp.state(cand) == Some(dvc_net::tcp::TcpState::Established)
                    && Some(cand) != self.listener
                {
                    self.conn = Some(cand);
                    break;
                }
            }
            if self.conn.is_none() {
                return ProcPoll::Blocked;
            }
        }
        let conn = self.conn.unwrap();
        loop {
            let data = ctx.tcp.recv(ctx.now, conn, 1 << 16);
            if data.is_empty() {
                break;
            }
            for b in data {
                if b != (self.got % 251) as u8 {
                    self.corrupt = true;
                }
                self.got += 1;
            }
        }
        if self.corrupt {
            return ProcPoll::Failed("stream corrupted".into());
        }
        if self.got >= self.expect {
            return ProcPoll::Done;
        }
        ProcPoll::Blocked
    }
    fn clone_box(&self) -> Box<dyn GuestProc> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

fn world(nodes: usize) -> Sim<ClusterWorld> {
    Sim::new(
        ClusterBuilder::new()
            .nodes_per_cluster(nodes)
            .perfect_clocks()
            .build(21),
        21,
    )
}

/// Build a sender VM on node 1 and a receiver VM on node 2, moving `total`
/// bytes. Returns (sim, sender vm, receiver vm).
fn sender_receiver(total: usize) -> (Sim<ClusterWorld>, VmId, VmId) {
    let mut sim = world(4);
    let vm_rx = create_vm(&mut sim, NodeId(2), 128, 1);
    let rx_addr = sim.world.vm(vm_rx).unwrap().guest.addr;
    let vm_tx = create_vm(&mut sim, NodeId(1), 128, 1);
    spawn_proc(
        &mut sim,
        vm_rx,
        "rx",
        Box::new(Receiver {
            port: 5000,
            expect: total,
            got: 0,
            listener: None,
            conn: None,
            corrupt: false,
        }),
    );
    spawn_proc(
        &mut sim,
        vm_tx,
        "tx",
        Box::new(Sender {
            peer: rx_addr,
            port: 5000,
            total,
            sent: 0,
            sock: None,
            done: false,
        }),
    );
    (sim, vm_tx, vm_rx)
}

fn rx_done(sim: &Sim<ClusterWorld>, vm: VmId) -> bool {
    sim.world.vm(vm).is_some_and(|v| v.guest.all_done())
}

#[test]
fn guest_to_guest_transfer_completes() {
    let (mut sim, vm_tx, vm_rx) = sender_receiver(500_000);
    let ok = sim.run_until(SimTime::from_secs_f64(120.0), |sim| {
        rx_done(sim, vm_rx) && rx_done(sim, vm_tx)
    });
    assert!(ok, "transfer never finished");
    assert!(sim.world.vm(vm_rx).unwrap().guest.first_failure().is_none());
}

#[test]
fn coordinated_save_restore_on_same_nodes_is_transparent() {
    let (mut sim, vm_tx, vm_rx) = sender_receiver(30_000_000);
    // Let the transfer get going, then save both VMs near-simultaneously.
    sim.schedule_at(SimTime::from_secs_f64(0.1), move |sim| {
        save_vm(sim, vm_tx, move |sim, img_tx| {
            // Resume in place once BOTH saves complete — track via ext.
            sim.world
                .ext
                .get_or_default::<Vec<dvc_vmm::VmImage>>()
                .push(img_tx.expect("save failed"));
        });
    });
    sim.schedule_at(SimTime::from_secs_f64(0.102), move |sim| {
        save_vm(sim, vm_rx, move |sim, img_rx| {
            sim.world
                .ext
                .get_or_default::<Vec<dvc_vmm::VmImage>>()
                .push(img_rx.expect("save failed"));
        });
    });
    // When both images exist, resume both in place.
    fn watch(sim: &mut Sim<ClusterWorld>, vm_tx: VmId, vm_rx: VmId) {
        let ready = sim
            .world
            .ext
            .get::<Vec<dvc_vmm::VmImage>>()
            .is_some_and(|v| v.len() == 2);
        if ready {
            glue::resume_vm(sim, vm_tx);
            glue::resume_vm(sim, vm_rx);
        } else {
            sim.schedule_in(SimDuration::from_millis(100), move |sim| {
                watch(sim, vm_tx, vm_rx)
            });
        }
    }
    sim.schedule_at(SimTime::from_secs_f64(0.15), move |sim| {
        watch(sim, vm_tx, vm_rx)
    });

    let ok = sim.run_until(SimTime::from_secs_f64(300.0), |sim| rx_done(sim, vm_rx));
    assert!(ok, "transfer did not survive the checkpoint");
    // Each VM paused exactly once (the save).
    assert_eq!(sim.world.vm(vm_tx).unwrap().pause_count, 1);
}

#[test]
fn restore_migrates_to_different_nodes_transparently() {
    let (mut sim, vm_tx, vm_rx) = sender_receiver(30_000_000);
    // Save both; destroy the originals ("the node died"); restore the pair
    // on two *different* nodes from the images.
    sim.schedule_at(SimTime::from_secs_f64(0.1), move |sim| {
        save_vm(sim, vm_tx, move |sim, img| {
            sim.world
                .ext
                .get_or_default::<Vec<dvc_vmm::VmImage>>()
                .push(img.expect("save failed"));
        });
        save_vm(sim, vm_rx, move |sim, img| {
            sim.world
                .ext
                .get_or_default::<Vec<dvc_vmm::VmImage>>()
                .push(img.expect("save failed"));
        });
    });
    fn watch(sim: &mut Sim<ClusterWorld>, vm_tx: VmId, vm_rx: VmId) {
        let ready = sim
            .world
            .ext
            .get::<Vec<dvc_vmm::VmImage>>()
            .is_some_and(|v| v.len() == 2);
        if !ready {
            sim.schedule_in(SimDuration::from_millis(50), move |sim| {
                watch(sim, vm_tx, vm_rx)
            });
            return;
        }
        let images = sim.world.ext.remove::<Vec<dvc_vmm::VmImage>>().unwrap();
        glue::destroy_vm(sim, vm_tx);
        glue::destroy_vm(sim, vm_rx);
        for img in images {
            // Swap hosts: whatever ran on node 1 goes to node 3, etc.
            let target = if img.vm == vm_tx {
                NodeId(3)
            } else {
                NodeId(0)
            };
            glue::restore_vm(sim, img, target, |_sim, _id| {});
        }
    }
    sim.schedule_at(SimTime::from_secs_f64(0.15), move |sim| {
        watch(sim, vm_tx, vm_rx)
    });

    let ok = sim.run_until(SimTime::from_secs_f64(600.0), |sim| rx_done(sim, vm_rx));
    assert!(ok, "transfer did not survive migration");
    // Placement really changed.
    assert_eq!(sim.world.vm_host[&vm_tx], NodeId(3));
    assert_eq!(sim.world.vm_host[&vm_rx], NodeId(0));
    assert!(sim.world.vm(vm_tx).unwrap().is_running() || rx_done(&sim, vm_rx));
}

#[test]
fn one_sided_save_without_peer_kills_the_application() {
    let (mut sim, vm_tx, vm_rx) = sender_receiver(4_000_000);
    // Save ONLY the receiver and never restore it: the sender's TCP budget
    // runs out and its app observes the reset.
    sim.schedule_at(SimTime::from_secs_f64(0.05), move |sim| {
        save_vm(sim, vm_rx, |_sim, _img| {});
    });
    let ok = sim.run_until(SimTime::from_secs_f64(600.0), |sim| {
        sim.world
            .vm(vm_tx)
            .is_some_and(|v| v.guest.first_failure().is_some())
    });
    assert!(ok, "sender should have crashed");
    let v = sim.world.vm(vm_tx).unwrap();
    let (_, err) = v.guest.first_failure().unwrap();
    assert!(err.contains("socket error"), "got: {err}");
    assert!(
        v.guest.tcp.counters.conns_aborted >= 1
            || v.guest.tcp.error(2) == Some(TcpError::RetryTimeout)
    );
}

#[test]
fn watchdog_fires_once_per_save_restore_cycle() {
    let (mut sim, vm_tx, _vm_rx) = sender_receiver(100_000_000); // long job
                                                                 // Shrink the watchdog period so short pauses trip it.
    sim.world.vm_mut(vm_tx).unwrap().guest.watchdog.period_ns = 1_000_000_000; // 1 s
    for k in 0..3 {
        let at = SimTime::from_secs_f64(2.0 + k as f64 * 10.0);
        sim.schedule_at(at, move |sim| {
            save_vm(sim, vm_tx, move |sim, _img| {
                // ~1.2 s of storage time has passed; resume in place.
                glue::resume_vm(sim, vm_tx);
            });
        });
    }
    sim.run_until(SimTime::from_secs_f64(40.0), |_| false);
    let v = sim.world.vm(vm_tx).unwrap();
    assert_eq!(
        v.guest.watchdog.timeouts, 3,
        "exactly one watchdog timeout per save/restore cycle; kmsg: {:?}",
        v.guest.kmsg
    );
    assert_eq!(v.pause_count, 3);
    let wd_msgs = v
        .guest
        .kmsg
        .iter()
        .filter(|m| m.msg.contains("watchdog"))
        .count();
    assert_eq!(wd_msgs, 3);
}

#[test]
fn ntp_converges_cluster_wide_to_few_ms() {
    let mut sim = Sim::new(ClusterBuilder::new().nodes_per_cluster(26).build(33), 33);
    ntp::start_ntp(&mut sim, SimDuration::from_secs(4));
    // Initial offsets are up to ±250 ms.
    let before = ntp::worst_pairwise_offset_ns(&sim);
    assert!(before > 10.0e6, "expected big initial offsets: {before}");
    sim.run(SimTime::from_secs_f64(600.0), 10_000_000);
    let after = ntp::worst_pairwise_offset_ns(&sim);
    assert!(
        after < 6.0e6,
        "NTP should reach few-ms pairwise skew, got {} ms",
        after / 1e6
    );
}
