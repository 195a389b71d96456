//! Hypervisor/host glue: the code a Xen dom0 + guest kernel boundary does.
//!
//! Responsibilities:
//!
//! * **Packet delivery** ([`deliver`]): dispatch fabric arrivals to host UDP
//!   (dom0 services like `ntpd`) or to a guest's stacks. Paused or dead
//!   guests silently drop — a suspended domain's vif receives nothing.
//! * **Stack draining** (`drain_vm`): guest stack outputs become fabric
//!   packets; socket events wake `Blocked` guest processes.
//! * **Process scheduling**: guest processes are polled with epoch- and
//!   generation-guarded events. `Compute` results are stretched by the VM's
//!   virtualization overhead profile; `SleepUntil` targets are node-local
//!   wall-clock instants converted through the host's drifting clock — this
//!   is precisely the mechanism the NTP-scheduled LSC prototype uses.
//! * **Pause/resume/save/restore** with faithful time semantics: on resume,
//!   expired TCP deadlines fire immediately, the watchdog observes the wall
//!   jump, and compute slices that "expired" during the freeze complete at
//!   once (error bounded by one slice).

use crate::node::NodeId;
use crate::storage;
use crate::world::ClusterWorld;
use dvc_net::addr::Addr;
use dvc_net::fabric;
use dvc_net::packet::{Packet, L4};
use dvc_net::tcp::LocalNs;
use dvc_net::NicId;
use dvc_sim_core::{Event, FaultEvent, Sim, SimDuration, SimTime, SpanId, StorageEvent, VmmEvent};
use dvc_vmm::guest::{GuestOs, GuestProc, ProcPoll, ProcState};
use dvc_vmm::{Vm, VmId, VmImage, VmState};

/// Node-local wall-clock "now" for a node.
pub fn local_now(sim: &Sim<ClusterWorld>, node: NodeId) -> LocalNs {
    sim.world.node(node).clock.read(sim.now())
}

/// Node-local wall-clock "now" for the host of a VM.
pub(crate) fn vm_local_now(sim: &Sim<ClusterWorld>, vm: VmId) -> Option<LocalNs> {
    let host = sim.world.host_of(vm)?;
    Some(local_now(sim, host))
}

/// Convert a node-local deadline into an absolute true-time instant
/// (clamped to now when already expired).
pub fn local_deadline_to_true(sim: &Sim<ClusterWorld>, node: NodeId, deadline: LocalNs) -> SimTime {
    let clock = &sim.world.node(node).clock;
    match clock.true_delay_until_local(sim.now(), deadline) {
        Some(d) => sim.now() + SimDuration::from_nanos(d),
        None => sim.now(),
    }
}

// ---------------------------------------------------------------------
// VM lifecycle
// ---------------------------------------------------------------------

/// Create a running domain on `node` with a fresh virtual address.
pub fn create_vm(sim: &mut Sim<ClusterWorld>, node: NodeId, mem_mb: u32, vcpus: u32) -> VmId {
    let cfg = sim.world.cfg;
    let vaddr = sim.world.alloc_vaddr();
    let mut guest = GuestOs::new(vaddr.into(), cfg.guest_tcp);
    guest.watchdog = dvc_vmm::guest::Watchdog::new(cfg.watchdog_period_ns);
    guest.watchdog.pet(local_now(sim, node));
    let id = VmId(sim.world.vms.len() as u32);
    let mut vm = Vm::new(id, mem_mb, vcpus, cfg.vm_overhead, guest);
    vm.state = VmState::Running;
    let nic = sim.world.node(node).nic;
    sim.world.fabric.bind(vaddr.into(), nic);
    sim.world.vms.push(Some(vm));
    sim.world.place_vm(id, vaddr, node);
    sim.world.node_mut(node).domains.push(id);
    schedule_watchdog_tick(sim, id);
    id
}

/// Spawn a guest process and schedule its first poll.
pub fn spawn_proc(
    sim: &mut Sim<ClusterWorld>,
    vm: VmId,
    name: impl Into<String>,
    app: Box<dyn GuestProc>,
) -> usize {
    let idx = sim
        .world
        .vm_mut(vm)
        .expect("spawn on missing vm")
        .guest
        .spawn(name, app);
    let at = sim.now();
    schedule_poll_at(sim, vm, idx, at);
    idx
}

/// Pause a running domain (vCPUs stop, timers freeze, vif drops frames).
pub fn pause_vm(sim: &mut Sim<ClusterWorld>, vm: VmId) {
    let now_local = vm_local_now(sim, vm);
    if let Some(v) = sim.world.vm_mut(vm) {
        if v.is_running() {
            v.pause();
            if let Some(now_local) = now_local {
                v.guest.note_suspend(now_local);
            }
        }
    }
}

/// Resume a paused domain in place, with wall-jump semantics.
pub fn resume_vm(sim: &mut Sim<ClusterWorld>, vm: VmId) {
    let Some(host) = sim.world.host_of(vm) else {
        return;
    };
    let now_local = local_now(sim, host);
    {
        let Some(v) = sim.world.vm_mut(vm) else {
            return;
        };
        if matches!(v.state, VmState::Dead | VmState::Running) {
            return;
        }
        v.resume();
        // A suspended vCPU did no work: shift in-progress compute slices by
        // the suspension length (wall alarms are NOT shifted — time is not
        // virtualized).
        v.guest.note_resume(now_local);
        // The watchdog sees the jump (paper: one timeout per save/restore).
        v.guest.watchdog_check(now_local);
        // Kernel timers whose deadlines passed during the freeze fire now.
        v.guest.tcp.on_timer(now_local);
    }
    schedule_watchdog_tick(sim, vm);
    drain_vm(sim, vm);
    wake_all_procs(sim, vm);
}

/// Save a domain: pause (if needed), snapshot, stream the image to shared
/// storage. The domain is left **paused** (state `Saving` → `Paused`); the
/// caller decides whether to resume, destroy, or migrate. `on_done` receives
/// `Some(image)` when the write (including any configured retries) landed,
/// `None` when storage gave up. A landed image may still be *silently*
/// corrupt — `image.corrupt` faults flip its stored checksum without any
/// error surfacing here; only an end-to-end [`VmImage::verify`] catches it.
pub fn save_vm(
    sim: &mut Sim<ClusterWorld>,
    vm: VmId,
    on_done: impl FnOnce(&mut Sim<ClusterWorld>, Option<VmImage>) + 'static,
) {
    save_vm_in(sim, vm, SpanId::NONE, on_done)
}

/// [`save_vm`] with a parent span: the storage write is wrapped in a
/// `storage.write` span under `parent` (the coordinator's `vmm.save` span),
/// so a trace shows how much of each member's save was spent on the shared
/// storage path vs. snapshotting.
pub fn save_vm_in(
    sim: &mut Sim<ClusterWorld>,
    vm: VmId,
    parent: SpanId,
    on_done: impl FnOnce(&mut Sim<ClusterWorld>, Option<VmImage>) + 'static,
) {
    pause_vm(sim, vm);
    let now = sim.now();
    let Some(v) = sim.world.vm_mut(vm) else {
        return;
    };
    if v.state == VmState::Dead {
        return;
    }
    v.state = VmState::Saving;
    let mut image = v.snapshot(now);
    let bytes = image.size_bytes();
    sim.emit(Event::Vmm(VmmEvent::SnapshotBegin { vm: vm.0 }));
    sim.emit(Event::Vmm(VmmEvent::PagesDirty {
        vm: vm.0,
        dirty: 0,
        total: bytes / (64 * 1024),
    }));
    sim.emit(Event::Vmm(VmmEvent::SnapshotEnd { vm: vm.0, bytes }));
    storage::note_bytes(sim, bytes);
    let wspan = sim.open_span("storage.write", parent, bytes);
    storage::transfer_with_retry(sim, bytes, move |sim, ok| {
        sim.close_span(wspan);
        if let Some(v) = sim.world.vm_mut(vm) {
            if v.state == VmState::Saving {
                v.state = VmState::Paused;
            }
        }
        if !ok {
            sim.emit(Event::Storage(StorageEvent::SaveLost { vm: vm.0 }));
            on_done(sim, None);
            return;
        }
        let now = sim.now();
        let rng = sim.rng.stream("fault.image");
        if sim.world.faults.roll("image.corrupt", None, now, rng) {
            image.corrupt_silently();
            sim.emit(Event::Fault(FaultEvent::Injected {
                what: "image.corrupt",
            }));
            sim.emit(Event::Storage(StorageEvent::ChecksumFail { vm: vm.0 }));
        }
        on_done(sim, Some(image));
    });
}

/// Restore an image onto `target` (any node): stream from storage, then
/// recreate the domain there, re-point its virtual address, and resume.
pub fn restore_vm(
    sim: &mut Sim<ClusterWorld>,
    image: VmImage,
    target: NodeId,
    on_done: impl FnOnce(&mut Sim<ClusterWorld>, VmId) + 'static,
) {
    let bytes = image.size_bytes();
    storage::note_bytes(sim, bytes);
    storage::start_transfer(sim, bytes, move |sim| {
        let id = place_image(sim, &image, target);
        on_done(sim, id);
    });
}

/// Place a saved image onto `target` immediately (the storage read already
/// happened) and resume it.
pub(crate) fn place_image(sim: &mut Sim<ClusterWorld>, image: &VmImage, target: NodeId) -> VmId {
    let id = place_image_paused(sim, image, target);
    resume_vm(sim, id);
    id
}

/// Place a saved image onto `target` but leave it **paused** — the building
/// block of coordinated (all-images-staged-first) restores, where no guest
/// may run until every peer is ready to run with it.
pub fn place_image_paused(sim: &mut Sim<ClusterWorld>, image: &VmImage, target: NodeId) -> VmId {
    let id = image.vm;
    let idx = id.0 as usize;
    // Detach from the previous host if the domain still exists somewhere.
    if let Some(old_host) = sim.world.unplace_vm(id) {
        let node = sim.world.node_mut(old_host);
        node.domains.retain(|&d| d != id);
    }
    while sim.world.vms.len() <= idx {
        sim.world.vms.push(None);
    }
    let mut vm = Vm::new(
        id,
        image.mem_mb,
        image.vcpus,
        image.overhead,
        image.guest.clone(),
    );
    vm.state = VmState::Paused;
    vm.overhead = image.overhead;
    let vaddr = match image.guest.addr {
        Addr::Virt(v) => v,
        Addr::Phys(_) => panic!("guest must own a virtual address"),
    };
    sim.world.vms[idx] = Some(vm);
    let nic = sim.world.node(target).nic;
    sim.world.fabric.bind(vaddr.into(), nic);
    sim.world.place_vm(id, vaddr, target);
    sim.world.node_mut(target).domains.push(id);
    id
}

/// Destroy a domain (shutdown or host crash): unbind its address, mark dead.
pub fn destroy_vm(sim: &mut Sim<ClusterWorld>, vm: VmId) {
    let Some(v) = sim.world.vm_mut(vm) else {
        return;
    };
    let addr = v.guest.addr;
    v.destroy();
    if let Addr::Virt(va) = addr {
        sim.world.fabric.unbind(addr);
        sim.world.unmap_vaddr(va);
    }
    if let Some(host) = sim.world.unplace_vm(vm) {
        sim.world.node_mut(host).domains.retain(|&d| d != vm);
    }
}

// ---------------------------------------------------------------------
// Delivery & draining
// ---------------------------------------------------------------------

/// Native per-packet guest ingress processing cost, ns. The guest pays
/// `NET_PKT_BASE_NS × net_factor` of serialized processing per packet;
/// when that exceeds the wire's per-packet serialization (~12 µs for a
/// full GigE frame), receive processing becomes the bottleneck — the
/// Xen-era "DomU can't saturate GigE" effect.
const NET_PKT_BASE_NS: u64 = 6_000;

/// Fabric delivery entry point (called by `NetWorld::deliver`).
pub fn deliver(sim: &mut Sim<ClusterWorld>, nic: NicId, pkt: Packet) {
    let Some(node_id) = sim.world.nic_owner(nic) else {
        return;
    };
    match pkt.dst {
        Addr::Phys(_) => {
            if !sim.world.node(node_id).up {
                return;
            }
            match pkt.l4 {
                L4::Udp(d) => {
                    sim.world.node_mut(node_id).host_udp.on_datagram(pkt.src, d);
                    crate::ntp::dispatch_host_udp(sim, node_id);
                    drain_host_udp(sim, node_id);
                }
                // dom0 TCP services are not modelled; control traffic is
                // out-of-band (see `control.rs`).
                L4::Tcp(_) => {}
            }
        }
        Addr::Virt(va) => {
            let Some(vm_id) = sim.world.vm_at(va) else {
                return;
            };
            // Virtualization I/O overhead: the guest pays extra per-packet
            // processing over native (para-virt split drivers copy frames;
            // hardware assist nearly eliminates it).
            let (running, epoch, net_factor) = match sim.world.vm(vm_id) {
                Some(v) => (v.is_running(), v.epoch, v.overhead.net_factor),
                None => return,
            };
            if !running {
                return; // suspended guest: the frame is gone
            }
            let cost_ns = (NET_PKT_BASE_NS as f64 * net_factor).round() as u64;
            if cost_ns == 0 {
                guest_rx(sim, vm_id, pkt);
            } else {
                // Serialized ingress processing: each packet occupies the
                // guest's (virtual) NIC receive path for its full cost.
                let now = sim.now();
                let done = {
                    let Some(v) = sim.world.vm_mut(vm_id) else {
                        return;
                    };
                    let start = now.max(v.rx_busy_until);
                    let done = start + SimDuration::from_nanos(cost_ns);
                    v.rx_busy_until = done;
                    done
                };
                sim.schedule_at(done, move |sim| {
                    let ok = sim
                        .world
                        .vm(vm_id)
                        .is_some_and(|v| v.is_running() && v.epoch == epoch);
                    if ok {
                        guest_rx(sim, vm_id, pkt);
                    }
                });
            }
        }
    }
}

/// Hand a packet to a (running) guest's stacks and follow up.
fn guest_rx(sim: &mut Sim<ClusterWorld>, vm_id: VmId, pkt: Packet) {
    let Some(local) = vm_local_now(sim, vm_id) else {
        return;
    };
    {
        let Some(v) = sim.world.vm_mut(vm_id) else {
            return;
        };
        if !v.is_running() {
            return;
        }
        match pkt.l4 {
            L4::Tcp(seg) => v.guest.tcp.on_segment(local, pkt.src, seg),
            L4::Udp(d) => {
                v.guest.udp.on_datagram(pkt.src, d);
            }
        }
    }
    drain_vm(sim, vm_id);
    wake_blocked_procs(sim, vm_id);
}

/// Push a node's pending host-UDP datagrams onto the fabric.
pub(crate) fn drain_host_udp(sim: &mut Sim<ClusterWorld>, node: NodeId) {
    loop {
        let out: Vec<Packet> = std::mem::take(&mut sim.world.node_mut(node).host_udp.out);
        if out.is_empty() {
            break;
        }
        for p in out {
            fabric::send(sim, p);
        }
    }
}

/// Drain a guest's stack outputs: packets to the fabric, events as wakeups.
/// Re-arms the guest TCP timer interrupt afterwards.
pub(crate) fn drain_vm(sim: &mut Sim<ClusterWorld>, vm: VmId) {
    let mut had_events = false;
    loop {
        let Some(v) = sim.world.vm_mut(vm) else {
            return;
        };
        let tcp_out = std::mem::take(&mut v.guest.tcp.out);
        let udp_out = std::mem::take(&mut v.guest.udp.out);
        if tcp_out.is_empty() && udp_out.is_empty() {
            break;
        }
        for o in tcp_out {
            match o {
                dvc_net::tcp::StackOutput::Packet(p) => fabric::send(sim, p),
                dvc_net::tcp::StackOutput::Event(_, _) => had_events = true,
            }
        }
        for p in udp_out {
            fabric::send(sim, p);
        }
    }
    // Surface the transport anomalies the stack noted while we were away
    // (retransmits, probes, aborts) onto the typed event spine.
    if let Some(v) = sim.world.vm_mut(vm) {
        if v.guest.tcp.has_notes() {
            let notes = v.guest.tcp.take_notes();
            let ep = vm.0;
            for n in notes {
                sim.emit(Event::Tcp(n.event(ep)));
            }
        }
    }
    rearm_guest_timer(sim, vm);
    if had_events {
        wake_blocked_procs(sim, vm);
    }
}

/// Keep exactly one TCP timer interrupt armed per guest: re-arming cancels
/// the previously armed event before scheduling the new deadline.
pub(crate) fn rearm_guest_timer(sim: &mut Sim<ClusterWorld>, vm: VmId) {
    if let Some(h) = sim.world.arms(vm).timer.take() {
        sim.cancel(h);
    }
    let Some(host) = sim.world.host_of(vm) else {
        return;
    };
    let (deadline, epoch) = {
        let Some(v) = sim.world.vm_mut(vm) else {
            return;
        };
        if !v.is_running() {
            return;
        }
        let Some(d) = v.guest.tcp.next_deadline() else {
            return;
        };
        (d, v.epoch)
    };
    let at = local_deadline_to_true(sim, host, deadline);
    let h = sim.schedule_at(at, move |sim| {
        // This is the armed interrupt: clear the slot so a later re-arm
        // doesn't cancel an already-fired handle.
        sim.world.arms(vm).timer = None;
        let Some(local) = vm_local_now(sim, vm) else {
            return;
        };
        let Some(v) = sim.world.vm_mut(vm) else {
            return;
        };
        if !v.is_running() || v.epoch != epoch {
            return;
        }
        v.guest.tcp.on_timer(local);
        drain_vm(sim, vm);
    });
    sim.world.arms(vm).timer = Some(h);
}

// ---------------------------------------------------------------------
// Process scheduling
// ---------------------------------------------------------------------

/// Schedule a poll of process `idx` at `at` (cancelling any older schedule).
pub(crate) fn schedule_poll_at(sim: &mut Sim<ClusterWorld>, vm: VmId, idx: usize, at: SimTime) {
    if let Some(h) = sim.world.arms(vm).poll(idx).take() {
        sim.cancel(h);
    }
    let Some(epoch) = sim.world.vm(vm).map(|v| v.epoch) else {
        return;
    };
    let h = sim.schedule_at(at, move |sim| {
        *sim.world.arms(vm).poll(idx) = None;
        let Some(v) = sim.world.vm(vm) else { return };
        if !v.is_running() || v.epoch != epoch {
            return;
        }
        poll_proc(sim, vm, idx);
    });
    *sim.world.arms(vm).poll(idx) = Some(h);
}

/// Poll one guest process and act on the result.
pub fn poll_proc(sim: &mut Sim<ClusterWorld>, vm: VmId, idx: usize) {
    let Some(host) = sim.world.host_of(vm) else {
        return;
    };
    let now_local = local_now(sim, host);
    let (poll, overhead) = {
        let Some(v) = sim.world.vm_mut(vm) else {
            return;
        };
        if !v.is_running() {
            return;
        }
        let poll = v.guest.poll_proc(idx, now_local);
        (poll, v.overhead)
    };
    match poll {
        Some(ProcPoll::Compute(d)) => {
            let stretched = overhead.stretch_cpu(d);
            let due_local = now_local + stretched.nanos() as LocalNs;
            if let Some(v) = sim.world.vm_mut(vm) {
                if let Some(p) = v.guest.procs.get_mut(idx) {
                    p.compute_due = Some(due_local);
                }
            }
            let at = sim.now() + stretched;
            schedule_poll_at(sim, vm, idx, at);
        }
        Some(ProcPoll::SleepUntil(t)) => {
            let at = local_deadline_to_true(sim, host, t);
            schedule_poll_at(sim, vm, idx, at);
        }
        Some(ProcPoll::Blocked) | Some(ProcPoll::Done) | Some(ProcPoll::Failed(_)) | None => {}
    }
    drain_vm(sim, vm);
}

/// Wake all `Blocked` processes of a guest (socket events arrived), in
/// process order. Scheduling a poll changes no process state, so each
/// process is checked as the walk reaches it.
pub(crate) fn wake_blocked_procs(sim: &mut Sim<ClusterWorld>, vm: VmId) {
    let blocked = |sim: &Sim<ClusterWorld>, idx: usize| {
        sim.world
            .vm(vm)
            .and_then(|v| v.guest.procs.get(idx))
            .is_some_and(|p| p.state == ProcState::Blocked)
    };
    let procs = match sim.world.vm(vm) {
        Some(v) if v.is_running() => v.guest.procs.len(),
        _ => return,
    };
    let now = sim.now();
    for idx in 0..procs {
        if blocked(sim, idx) {
            schedule_poll_at(sim, vm, idx, now);
        }
    }
}

/// Wake every live process (used on resume/restore). Sleeping processes are
/// re-armed against the (possibly jumped) wall clock; runnable processes
/// whose compute slice expired during the freeze complete immediately.
pub(crate) fn wake_all_procs(sim: &mut Sim<ClusterWorld>, vm: VmId) {
    let Some(host) = sim.world.host_of(vm) else {
        return;
    };
    let now_local = local_now(sim, host);
    let live: Vec<(usize, ProcState, Option<LocalNs>)> = {
        let Some(v) = sim.world.vm(vm) else { return };
        v.guest
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.state.is_live())
            .map(|(i, p)| (i, p.state.clone(), p.compute_due))
            .collect()
    };
    for (idx, state, due) in live {
        let at = match state {
            ProcState::Sleeping(t) => local_deadline_to_true(sim, host, t),
            ProcState::Runnable => match due {
                Some(d) if d > now_local => local_deadline_to_true(sim, host, d),
                _ => sim.now(),
            },
            ProcState::Blocked => sim.now(),
            _ => continue,
        };
        schedule_poll_at(sim, vm, idx, at);
    }
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

fn schedule_watchdog_tick(sim: &mut Sim<ClusterWorld>, vm: VmId) {
    let Some(host) = sim.world.host_of(vm) else {
        return;
    };
    let (epoch, period) = {
        let Some(v) = sim.world.vm(vm) else { return };
        if !v.is_running() {
            return;
        }
        (v.epoch, v.guest.watchdog.period_ns)
    };
    let tick = SimDuration::from_nanos((period / 2).max(1) as u64);
    sim.schedule_in(tick, move |sim| {
        let Some(v) = sim.world.vm(vm) else { return };
        if !v.is_running() || v.epoch != epoch {
            return;
        }
        let now_local = local_now(sim, host);
        if let Some(v) = sim.world.vm_mut(vm) {
            v.guest.watchdog_check(now_local);
            v.guest.watchdog.pet(now_local);
        }
        schedule_watchdog_tick(sim, vm);
    });
}
