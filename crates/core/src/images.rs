//! Image management (paper §1: checkpointing a virtual cluster requires
//! "only a reliable storage system … and an image management capability to
//! track the correct staging and restart of images").
//!
//! OS images are identified by `(image_id, version)`. The [`ImageManager`]
//! tracks which version is staged on which node's local disk, so
//! re-provisioning a virtual cluster with an image a node has already
//! staged skips the shared-storage transfer entirely — the common case for
//! per-job virtual clusters drawn from a small set of blessed software
//! stacks. Publishing a new version invalidates every node's cached copy.

use dvc_cluster::node::NodeId;
use dvc_cluster::world::ClusterWorld;
use dvc_sim_core::{FastMap, Sim};

/// Identifies an OS image (a "software stack" in DVC terms).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ImageId(pub u64);

/// Tracks staged image versions per node.
#[derive(Default)]
pub struct ImageManager {
    /// (node, image) → staged version.
    staged: FastMap<(NodeId, ImageId), u64>,
    /// Published current version per image (staging always pulls this).
    published: FastMap<ImageId, u64>,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl ImageManager {
    /// Current published version of an image (0 if never published).
    pub fn version(&self, image: ImageId) -> u64 {
        self.published.get(&image).copied().unwrap_or(0)
    }

    /// Publish a new version (invalidates all cached copies).
    pub fn publish(&mut self, image: ImageId) -> u64 {
        let v = self.published.entry(image).or_insert(0);
        *v += 1;
        *v
    }

    /// Does `node` need a transfer to run `image` at its current version?
    pub fn needs_staging(&self, node: NodeId, image: ImageId) -> bool {
        let want = self.version(image);
        self.staged.get(&(node, image)) != Some(&want)
    }

    /// Record a completed staging.
    pub fn note_staged(&mut self, node: NodeId, image: ImageId) {
        let v = self.version(image);
        self.staged.insert((node, image), v);
    }

    /// A crashed/repaired node loses its local disk contents.
    pub fn invalidate_node(&mut self, node: NodeId) {
        self.staged.retain(|(n, _), _| *n != node);
    }

    /// Count of distinct (node, image) copies currently staged.
    pub fn staged_copies(&self) -> usize {
        self.staged.len()
    }
}

/// Access the world's image manager.
pub fn manager(sim: &mut Sim<ClusterWorld>) -> &mut ImageManager {
    sim.world.ext.get_or_default::<ImageManager>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_cache_hits_after_first_pull() {
        let mut m = ImageManager::default();
        let img = ImageId(7);
        m.publish(img);
        let n = NodeId(3);
        assert!(m.needs_staging(n, img));
        m.note_staged(n, img);
        assert!(!m.needs_staging(n, img));
        assert_eq!(m.staged_copies(), 1);
    }

    #[test]
    fn publish_invalidates_everywhere() {
        let mut m = ImageManager::default();
        let img = ImageId(1);
        m.publish(img);
        for i in 0..4 {
            m.note_staged(NodeId(i), img);
        }
        assert!(!m.needs_staging(NodeId(2), img));
        m.publish(img);
        for i in 0..4 {
            assert!(m.needs_staging(NodeId(i), img), "node {i}");
        }
    }

    #[test]
    fn node_crash_invalidates_its_copies_only() {
        let mut m = ImageManager::default();
        let a = ImageId(1);
        let b = ImageId(2);
        m.publish(a);
        m.publish(b);
        m.note_staged(NodeId(0), a);
        m.note_staged(NodeId(0), b);
        m.note_staged(NodeId(1), a);
        m.invalidate_node(NodeId(0));
        assert!(m.needs_staging(NodeId(0), a));
        assert!(m.needs_staging(NodeId(0), b));
        assert!(!m.needs_staging(NodeId(1), a));
    }

    #[test]
    fn unpublished_images_are_version_zero() {
        let m = ImageManager::default();
        assert_eq!(m.version(ImageId(9)), 0);
        // Version 0 with nothing staged still "needs staging" (pulls v0).
        assert!(m.needs_staging(NodeId(0), ImageId(9)));
    }
}
