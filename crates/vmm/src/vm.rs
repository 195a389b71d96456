//! Virtual machine domains: lifecycle, overhead profiles, snapshots.

use crate::guest::GuestOs;
use dvc_sim_core::{fnv1a, SimDuration, SimTime, FNV_BASIS};

/// A domain identifier, unique across the whole simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VmId(pub u32);

/// Domain lifecycle state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmState {
    /// Booting: image staged, guest not yet running.
    Booting,
    Running,
    /// Paused: vCPUs stopped, NIC detached, timers frozen.
    Paused,
    /// Being serialized to storage (guest is paused throughout).
    Saving,
    /// Destroyed (shut down, or its host crashed).
    Dead,
}

/// Virtualization overhead profile (paper §1 and §4: para-virtualized Xen
/// vs. next-generation Intel VT / AMD Pacifica hardware assist "at near
/// native speed, reducing the overhead of this approach to near zero").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverheadProfile {
    pub name: &'static str,
    /// Multiplier on guest CPU time (1.0 = native).
    pub cpu_factor: f64,
    /// Multiplier on the guest's per-packet processing cost (native ≈ a few
    /// µs per packet; Xen-era para-virt netfront/netback paid ~3× that —
    /// cf. Menon et al. 2006 — which is why DomU networking could not
    /// saturate GigE; hardware assist recovers most of it).
    pub net_factor: f64,
}

impl OverheadProfile {
    /// Bare metal (the "native" baseline in overhead experiments).
    pub const NATIVE: OverheadProfile = OverheadProfile {
        name: "native",
        cpu_factor: 1.0,
        net_factor: 1.0,
    };
    /// Xen-era para-virtualization: a few percent CPU, ~3× per-packet I/O.
    pub const PARAVIRT: OverheadProfile = OverheadProfile {
        name: "paravirt",
        cpu_factor: 1.05,
        net_factor: 3.0,
    };
    /// Hardware-assisted (Intel VT / AMD Pacifica): near native.
    pub const HVM_ASSIST: OverheadProfile = OverheadProfile {
        name: "hvm-assist",
        cpu_factor: 1.01,
        net_factor: 1.3,
    };

    /// Stretch a guest compute duration by the CPU overhead.
    pub fn stretch_cpu(&self, d: SimDuration) -> SimDuration {
        d * self.cpu_factor
    }
}

/// A virtual machine (Xen domain).
#[derive(Clone, Debug)]
pub struct Vm {
    pub id: VmId,
    pub mem_mb: u32,
    pub vcpus: u32,
    pub state: VmState,
    pub overhead: OverheadProfile,
    pub guest: GuestOs,
    /// Bumped on every pause/restore; events captured with an older epoch
    /// self-invalidate (the timer-generation pattern).
    pub epoch: u64,
    /// Wall-clock bookkeeping for experiments.
    pub total_paused: SimDuration,
    pub pause_count: u32,
    /// Host-side bookkeeping: ingress packet-processing queue tail (models
    /// the virtualization I/O overhead as serialized per-packet work).
    pub rx_busy_until: SimTime,
}

impl Vm {
    pub fn new(
        id: VmId,
        mem_mb: u32,
        vcpus: u32,
        overhead: OverheadProfile,
        guest: GuestOs,
    ) -> Self {
        Vm {
            id,
            mem_mb,
            vcpus,
            state: VmState::Booting,
            overhead,
            guest,
            epoch: 0,
            total_paused: SimDuration::ZERO,
            pause_count: 0,
            rx_busy_until: SimTime::ZERO,
        }
    }

    /// The bytes a whole-VM snapshot must persist: the full guest memory
    /// footprint (the paper: "the state of the entire guest environment is
    /// saved (all memory available to the guest including the guest
    /// kernel)").
    pub fn image_bytes(&self) -> u64 {
        self.mem_mb as u64 * 1024 * 1024
    }

    pub fn is_running(&self) -> bool {
        self.state == VmState::Running
    }

    /// Pause the domain (vCPUs stop; the caller detaches the NIC binding).
    pub fn pause(&mut self) {
        debug_assert!(matches!(self.state, VmState::Running));
        self.state = VmState::Paused;
        self.epoch += 1;
        self.pause_count += 1;
    }

    /// Take a snapshot of the paused domain: a clone of the guest state.
    /// Memory is size-only — the image stands for `image_bytes()` of guest
    /// memory, and the *time* cost of serializing those bytes to storage is
    /// modelled by the caller against the storage subsystem.
    pub fn snapshot(&self, taken_at: SimTime) -> VmImage {
        debug_assert!(
            matches!(self.state, VmState::Paused | VmState::Saving),
            "snapshot of a running domain would be inconsistent"
        );
        let mut img = VmImage {
            vm: self.id,
            mem_mb: self.mem_mb,
            vcpus: self.vcpus,
            overhead: self.overhead,
            guest: self.guest.clone(),
            taken_at,
            stored_checksum: 0,
        };
        img.stored_checksum = img.content_checksum();
        img
    }

    /// Resume a paused domain in place (no state replacement).
    pub fn resume(&mut self) {
        debug_assert!(matches!(self.state, VmState::Paused | VmState::Saving));
        self.state = VmState::Running;
        self.epoch += 1;
    }

    /// Replace the guest with a saved image and resume (restore path). The
    /// domain may live on a different physical node than the image's origin.
    /// Callers are expected to [`VmImage::verify`] first — restoring a
    /// corrupt image is how silent storage rot becomes a crashed guest.
    pub fn restore_from(&mut self, image: &VmImage) {
        self.mem_mb = image.mem_mb;
        self.vcpus = image.vcpus;
        self.overhead = image.overhead;
        self.guest = image.guest.clone();
        self.state = VmState::Running;
        self.epoch += 1;
    }

    pub fn destroy(&mut self) {
        self.state = VmState::Dead;
        self.epoch += 1;
    }
}

/// A saved domain image (a consistent snapshot of one VM).
///
/// Images carry an end-to-end checksum taken at snapshot time. The stored
/// copy's checksum can later diverge (silent corruption injected on the
/// storage write path); [`VmImage::verify`] compares the stored checksum
/// against a recomputation over the logical content, which is exactly the
/// check the hardened checkpoint pipeline runs on save *and* restore.
#[derive(Clone)]
pub struct VmImage {
    pub vm: VmId,
    pub mem_mb: u32,
    pub vcpus: u32,
    pub overhead: OverheadProfile,
    pub guest: GuestOs,
    pub taken_at: SimTime,
    /// Checksum recorded alongside the stored bytes. Equal to
    /// [`VmImage::content_checksum`] when intact; anything else means rot.
    pub stored_checksum: u64,
}

impl VmImage {
    pub fn size_bytes(&self) -> u64 {
        self.mem_mb as u64 * 1024 * 1024
    }

    /// Checksum over the image's logical content (FNV-1a over the identity
    /// and guest-visible state — a stand-in for hashing the memory pages).
    pub fn content_checksum(&self) -> u64 {
        [
            self.vm.0 as u64,
            self.mem_mb as u64,
            self.vcpus as u64,
            self.taken_at.nanos(),
            self.guest.kmsg.len() as u64,
        ]
        .iter()
        .fold(FNV_BASIS, |h, x| fnv1a(h, &x.to_le_bytes()))
    }

    /// True when the stored copy still matches its content.
    pub fn verify(&self) -> bool {
        self.stored_checksum == self.content_checksum()
    }

    /// Flip the stored checksum — models a silent bit-rot event on the
    /// storage path that only an end-to-end verify can catch.
    pub fn corrupt_silently(&mut self) {
        self.stored_checksum ^= 0xDEAD_BEEF_0BAD_F00D;
    }
}

impl std::fmt::Debug for VmImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VmImage(vm={:?}, {} MB, taken at {})",
            self.vm, self.mem_mb, self.taken_at
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvc_net::addr::VirtAddr;
    use dvc_net::tcp::TcpConfig;

    fn vm() -> Vm {
        let guest = GuestOs::new(VirtAddr(7).into(), TcpConfig::default());
        let mut v = Vm::new(VmId(1), 256, 1, OverheadProfile::PARAVIRT, guest);
        v.state = VmState::Running;
        v
    }

    #[test]
    fn image_size_is_memory_footprint() {
        let v = vm();
        assert_eq!(v.image_bytes(), 256 * 1024 * 1024);
    }

    #[test]
    fn pause_snapshot_restore_cycle() {
        let mut v = vm();
        let e0 = v.epoch;
        v.pause();
        assert_eq!(v.state, VmState::Paused);
        assert!(v.epoch > e0);
        let img = v.snapshot(SimTime::ZERO);
        assert_eq!(img.size_bytes(), v.image_bytes());
        v.resume();
        assert!(v.is_running());

        // Mutate guest, then roll back via the image.
        v.guest.log_kmsg(0, "after snapshot");
        assert_eq!(v.guest.kmsg.len(), 1);
        v.pause();
        v.restore_from(&img);
        assert!(v.is_running());
        assert_eq!(v.guest.kmsg.len(), 0, "rolled back");
        assert_eq!(v.pause_count, 2);
    }

    #[test]
    fn checksum_catches_silent_corruption() {
        let mut v = vm();
        v.pause();
        let mut img = v.snapshot(SimTime::ZERO);
        assert!(img.verify(), "fresh snapshot must verify");
        img.corrupt_silently();
        assert!(!img.verify(), "rotted image must fail verify");
        img.corrupt_silently();
        assert!(img.verify(), "corruption model is an involution");
        // Different content ⇒ different checksum.
        v.guest.log_kmsg(0, "dirty");
        let img2 = v.snapshot(SimTime::ZERO);
        assert_ne!(img.content_checksum(), img2.content_checksum());
    }

    #[test]
    fn overhead_profiles_order_correctly() {
        let d = SimDuration::from_secs(100);
        let native = OverheadProfile::NATIVE.stretch_cpu(d);
        let hvm = OverheadProfile::HVM_ASSIST.stretch_cpu(d);
        let pv = OverheadProfile::PARAVIRT.stretch_cpu(d);
        assert!(native < hvm && hvm < pv);
        assert_eq!(native, d);
        // Para-virt ≈ 5% CPU overhead.
        assert!((pv.as_secs_f64() / d.as_secs_f64() - 1.05).abs() < 1e-9);
    }

    #[test]
    fn epoch_invalidates_on_every_transition() {
        let mut v = vm();
        let mut seen = vec![v.epoch];
        v.pause();
        seen.push(v.epoch);
        v.resume();
        seen.push(v.epoch);
        v.destroy();
        seen.push(v.epoch);
        for w in seen.windows(2) {
            assert!(w[1] > w[0]);
        }
    }
}
