//! Network addressing.
//!
//! Two address families coexist on the fabric:
//!
//! * [`PhysAddr`] — a physical host (dom0). Bound to its NIC once, forever.
//! * [`VirtAddr`] — a virtual cluster node. Its binding to a physical NIC is
//!   a *routing table entry* maintained by DVC; migration rebinds the
//!   address without the guest noticing. This is the mechanized form of the
//!   paper's claim that a virtual cluster "may run on a particular 32
//!   physical nodes in one instance, and on a completely separate set of
//!   physical nodes at the next instantiation".

use std::fmt;

/// A physical host address (one per node, like a dom0 IP).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(pub u32);

/// A virtual node address (one per vnode of a virtual cluster).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(pub u32);

/// Either address family; the fabric routes both.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Addr {
    Phys(PhysAddr),
    Virt(VirtAddr),
}

/// A NIC attachment point on the fabric.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NicId(pub u32);

/// A transport endpoint (address, port).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SockAddr {
    pub addr: Addr,
    pub port: u16,
}

impl SockAddr {
    pub fn new(addr: Addr, port: u16) -> Self {
        SockAddr { addr, port }
    }
}

impl From<PhysAddr> for Addr {
    fn from(a: PhysAddr) -> Addr {
        Addr::Phys(a)
    }
}

impl From<VirtAddr> for Addr {
    fn from(a: VirtAddr) -> Addr {
        Addr::Virt(a)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Phys(a) => write!(f, "{a:?}"),
            Addr::Virt(a) => write!(f, "{a:?}"),
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for NicId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nic{}", self.0)
    }
}

impl fmt::Debug for SockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}:{}", self.addr, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_never_collide() {
        assert_ne!(Addr::Phys(PhysAddr(1)), Addr::Virt(VirtAddr(1)));
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", Addr::Phys(PhysAddr(3))), "p3");
        assert_eq!(format!("{:?}", Addr::Virt(VirtAddr(9))), "v9");
        assert_eq!(
            format!("{:?}", SockAddr::new(VirtAddr(2).into(), 5000)),
            "v2:5000"
        );
    }

    #[test]
    fn addr_is_usable_as_map_key() {
        let mut m = dvc_sim_core::FastMap::default();
        m.insert(Addr::Virt(VirtAddr(7)), "a");
        m.insert(Addr::Phys(PhysAddr(7)), "b");
        assert_eq!(m.len(), 2);
    }
}
