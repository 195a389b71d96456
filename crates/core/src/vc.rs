//! Virtual clusters: provisioning, mapping, teardown, checkpoint sets.

use dvc_cluster::glue;
use dvc_cluster::node::NodeId;
use dvc_cluster::storage;
use dvc_cluster::world::ClusterWorld;
use dvc_sim_core::{FastMap, Sim, SimDuration, SimTime};
use dvc_vmm::{VmId, VmImage};

/// Virtual-cluster identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VcId(pub u32);

/// What kind of physical mapping a VC ended up with (paper Figure 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mapping {
    /// VC covers a full physical cluster one-to-one.
    Direct,
    /// VC is a strict subset of one physical cluster.
    Subset,
    /// VC spans more than one physical cluster.
    Spanning,
}

/// A virtual-cluster request.
#[derive(Clone, Debug)]
pub struct VcSpec {
    pub name: String,
    pub vnodes: usize,
    pub mem_mb: u32,
    pub vcpus: u32,
    /// Per-node OS image staged from shared storage at boot, bytes.
    pub os_image_bytes: u64,
    /// Per-VM boot time after its image is staged.
    pub boot_time: SimDuration,
    /// Identity of the OS image for staging-cache purposes. `Some` lets the
    /// [`crate::images::ImageManager`] skip transfers to nodes that already
    /// hold the current version; `None` always stages.
    pub image: Option<crate::images::ImageId>,
}

impl VcSpec {
    pub fn new(name: impl Into<String>, vnodes: usize, mem_mb: u32) -> Self {
        VcSpec {
            name: name.into(),
            vnodes,
            mem_mb,
            vcpus: 1,
            os_image_bytes: 512 << 20, // a 512 MB guest image
            boot_time: SimDuration::from_secs(25),
            image: None,
        }
    }

    /// Use a cacheable image identity.
    pub fn with_image(mut self, image: crate::images::ImageId) -> Self {
        self.image = Some(image);
        self
    }
}

/// VC lifecycle state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VcState {
    Provisioning,
    Up,
    Checkpointing,
    /// All VMs saved & paused/destroyed; images form the latest set.
    Suspended,
    Restoring,
    Down,
}

/// A live virtual cluster.
#[derive(Clone, Debug)]
pub struct VirtualCluster {
    pub id: VcId,
    pub spec: VcSpec,
    /// vnode i ↔ `vms[i]`; identity is stable across migrations.
    pub vms: Vec<VmId>,
    /// Current physical placement of vnode i.
    pub hosts: Vec<NodeId>,
    pub state: VcState,
    pub created_at: SimTime,
}

impl VirtualCluster {
    /// Classify the current mapping against the physical clusters.
    pub fn mapping(&self, world: &ClusterWorld) -> Mapping {
        let mut clusters: Vec<_> = self.hosts.iter().map(|&h| world.node(h).cluster).collect();
        clusters.sort();
        clusters.dedup();
        if clusters.len() > 1 {
            return Mapping::Spanning;
        }
        let csize = world.cluster_nodes(clusters[0]).len();
        if self.hosts.len() == csize {
            Mapping::Direct
        } else {
            Mapping::Subset
        }
    }
}

/// The world-resident registry of virtual clusters.
#[derive(Default)]
pub struct VcRegistry {
    pub vcs: FastMap<VcId, VirtualCluster>,
    next: u32,
}

impl VcRegistry {
    fn alloc(&mut self) -> VcId {
        let id = VcId(self.next);
        self.next += 1;
        id
    }
}

/// Access the registry.
pub fn registry(sim: &mut Sim<ClusterWorld>) -> &mut VcRegistry {
    sim.world.ext.get_or_default::<VcRegistry>()
}

pub fn vc(sim: &Sim<ClusterWorld>, id: VcId) -> Option<&VirtualCluster> {
    sim.world.ext.get::<VcRegistry>()?.vcs.get(&id)
}

pub(crate) fn vc_mut(sim: &mut Sim<ClusterWorld>, id: VcId) -> Option<&mut VirtualCluster> {
    sim.world.ext.get_mut::<VcRegistry>()?.vcs.get_mut(&id)
}

/// A consistent checkpoint of a whole virtual cluster.
pub struct CheckpointSet {
    pub id: u64,
    pub vc: VcId,
    pub taken_at: SimTime,
    /// Image of vnode i at `images[i]`.
    pub images: Vec<VmImage>,
    /// Pause-time spread observed while taking the set (diagnostics).
    pub pause_skew: SimDuration,
}

impl CheckpointSet {
    pub fn total_bytes(&self) -> u64 {
        self.images.iter().map(|i| i.size_bytes()).sum()
    }

    /// Every image in the set passes its end-to-end checksum.
    pub fn intact(&self) -> bool {
        self.images.iter().all(|i| i.verify())
    }
}

/// The world-resident store of completed checkpoint sets.
#[derive(Default)]
pub struct CheckpointStore {
    pub sets: Vec<CheckpointSet>,
    next: u64,
}

impl CheckpointStore {
    pub(crate) fn alloc_id(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    pub(crate) fn latest_for(&self, vc: VcId) -> Option<&CheckpointSet> {
        self.sets.iter().rev().find(|s| s.vc == vc)
    }

    /// Newest set of `vc` whose images all pass their checksums — what a
    /// fallback restore reaches for when the latest generation is corrupt.
    pub fn latest_intact_for(&self, vc: VcId) -> Option<&CheckpointSet> {
        self.sets.iter().rev().find(|s| s.vc == vc && s.intact())
    }

    /// Drop all but the most recent `keep` sets of a VC (GC). The newest
    /// *intact* set is never dropped, even when it falls outside the keep
    /// window — otherwise GC after a run of corrupt checkpoints could
    /// delete the only generation a fallback restore can use.
    pub fn prune(&mut self, vc: VcId, keep: usize) {
        let protected = self.latest_intact_for(vc).map(|s| s.id);
        let ids: Vec<u64> = self
            .sets
            .iter()
            .filter(|s| s.vc == vc)
            .map(|s| s.id)
            .collect();
        if ids.len() > keep {
            let cut: Vec<u64> = ids[..ids.len() - keep]
                .iter()
                .copied()
                .filter(|&id| Some(id) != protected)
                .collect();
            self.sets.retain(|s| !cut.contains(&s.id));
        }
    }
}

pub fn store(sim: &mut Sim<ClusterWorld>) -> &mut CheckpointStore {
    sim.world.ext.get_or_default::<CheckpointStore>()
}

/// Provision a virtual cluster onto `hosts`: stage the OS image to every
/// host (shared storage, contended), boot the domains, then report ready.
///
/// `on_ready` runs once every vnode is up.
pub fn provision_vc(
    sim: &mut Sim<ClusterWorld>,
    spec: VcSpec,
    hosts: Vec<NodeId>,
    on_ready: impl FnOnce(&mut Sim<ClusterWorld>, VcId) + 'static,
) -> VcId {
    assert_eq!(spec.vnodes, hosts.len(), "one vnode per host");
    let id = registry(sim).alloc();
    let now = sim.now();
    registry(sim).vcs.insert(
        id,
        VirtualCluster {
            id,
            spec: spec.clone(),
            vms: Vec::new(),
            hosts: hosts.clone(),
            state: VcState::Provisioning,
            created_at: now,
        },
    );

    // Stage images in parallel over shared storage; boot each VM as its
    // image lands; collect readiness.
    struct Pending {
        remaining: usize,
        #[allow(clippy::type_complexity)]
        on_ready: Option<Box<dyn FnOnce(&mut Sim<ClusterWorld>, VcId)>>,
    }
    let pending = std::rc::Rc::new(std::cell::RefCell::new(Pending {
        remaining: hosts.len(),
        on_ready: Some(Box::new(on_ready)),
    }));

    // Pre-create the VMs so vnode order is deterministic.
    let mut vms = Vec::with_capacity(hosts.len());
    for &h in &hosts {
        let vm = glue::create_vm(sim, h, spec.mem_mb, spec.vcpus);
        // Not yet booted: keep it paused until staging + boot completes.
        glue::pause_vm(sim, vm);
        vms.push(vm);
    }
    vc_mut(sim, id).unwrap().vms = vms.clone();

    for (i, &h) in hosts.iter().enumerate() {
        let vm = vms[i];
        let boot = spec.boot_time;
        let pending = pending.clone();
        let boot_then_count = move |sim: &mut Sim<ClusterWorld>| {
            sim.schedule_in(boot, move |sim| {
                glue::resume_vm(sim, vm);
                let mut p = pending.borrow_mut();
                p.remaining -= 1;
                if p.remaining == 0 {
                    if let Some(cb) = p.on_ready.take() {
                        drop(p);
                        if let Some(v) = vc_mut(sim, id) {
                            v.state = VcState::Up;
                        }
                        cb(sim, id);
                    }
                }
            });
        };
        // Staging cache: skip the transfer when this node already holds the
        // image's current version (the paper's "image management").
        let cached = spec
            .image
            .is_some_and(|img| !crate::images::manager(sim).needs_staging(h, img));
        if cached {
            crate::images::manager(sim).cache_hits += 1;
            boot_then_count(sim);
        } else {
            if let Some(img) = spec.image {
                crate::images::manager(sim).cache_misses += 1;
                storage::start_transfer(sim, spec.os_image_bytes, move |sim| {
                    crate::images::manager(sim).note_staged(h, img);
                    boot_then_count(sim);
                });
            } else {
                storage::start_transfer(sim, spec.os_image_bytes, boot_then_count);
            }
        }
    }
    id
}

/// Destroy a virtual cluster and free its hosts.
pub fn teardown_vc(sim: &mut Sim<ClusterWorld>, id: VcId) {
    let Some(v) = vc_mut(sim, id) else { return };
    v.state = VcState::Down;
    let vms = v.vms.clone();
    for vm in vms {
        glue::destroy_vm(sim, vm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvc_cluster::world::ClusterBuilder;

    fn sim() -> Sim<ClusterWorld> {
        Sim::new(
            ClusterBuilder::new()
                .clusters(2)
                .nodes_per_cluster(4)
                .perfect_clocks()
                .build(3),
            3,
        )
    }

    #[test]
    fn provision_boots_all_vnodes_after_staging() {
        let mut s = sim();
        let spec = VcSpec::new("vc0", 3, 128);
        let hosts = vec![NodeId(0), NodeId(1), NodeId(2)];
        let id = provision_vc(&mut s, spec, hosts, |sim, id| {
            let t = sim.now().as_secs_f64();
            sim.world.ext.insert(("ready", id, t));
        });
        s.run_to_completion(100_000);
        let &(_, rid, t) = s.world.ext.get::<(&str, VcId, f64)>().unwrap();
        assert_eq!(rid, id);
        // 3 × 512 MB over 400 MB/s shared ⇒ ~4 s staging, + 25 s boot.
        assert!(t > 25.0 && t < 40.0, "ready at {t}");
        let v = vc(&s, id).unwrap();
        assert_eq!(v.state, VcState::Up);
        for &vm in &v.vms {
            assert!(s.world.vm(vm).unwrap().is_running());
        }
    }

    #[test]
    fn mapping_classification() {
        let mut s = sim();
        let mk = |s: &mut Sim<ClusterWorld>, hosts: Vec<NodeId>| {
            let n = hosts.len();
            provision_vc(s, VcSpec::new("m", n, 64), hosts, |_s, _id| {})
        };
        let direct = mk(&mut s, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        let subset = mk(&mut s, vec![NodeId(4), NodeId(5)]);
        let span = mk(&mut s, vec![NodeId(2), NodeId(6)]);
        s.run_to_completion(1_000_000);
        assert_eq!(vc(&s, direct).unwrap().mapping(&s.world), Mapping::Direct);
        assert_eq!(vc(&s, subset).unwrap().mapping(&s.world), Mapping::Subset);
        assert_eq!(vc(&s, span).unwrap().mapping(&s.world), Mapping::Spanning);
    }

    #[test]
    fn teardown_destroys_vms() {
        let mut s = sim();
        let id = provision_vc(
            &mut s,
            VcSpec::new("t", 2, 64),
            vec![NodeId(0), NodeId(1)],
            |_s, _id| {},
        );
        s.run_to_completion(1_000_000);
        teardown_vc(&mut s, id);
        let v = vc(&s, id).unwrap();
        assert_eq!(v.state, VcState::Down);
        for &vm in &v.vms {
            assert_eq!(s.world.vm(vm).unwrap().state, dvc_vmm::VmState::Dead);
        }
    }

    #[test]
    fn checkpoint_store_prunes_old_sets() {
        let mut st = CheckpointStore::default();
        for i in 0..5 {
            let id = st.alloc_id();
            st.sets.push(CheckpointSet {
                id,
                vc: VcId(1),
                taken_at: SimTime(i),
                images: vec![],
                pause_skew: SimDuration::ZERO,
            });
        }
        assert_eq!(st.latest_for(VcId(1)).unwrap().taken_at, SimTime(4));
        st.prune(VcId(1), 2);
        assert_eq!(st.sets.len(), 2);
        assert_eq!(st.latest_for(VcId(1)).unwrap().taken_at, SimTime(4));
        assert!(st.latest_for(VcId(2)).is_none());
    }
}
