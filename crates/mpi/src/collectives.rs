//! Collective operations, expanded to point-to-point op sequences.
//!
//! Tags: every collective invocation needs a tag range disjoint from other
//! traffic. Callers pass a `tag_base`; a collective consumes at most
//! [`TAGS_PER_COLLECTIVE`] consecutive tags.

use crate::data::Value;
use crate::ops::Op;

/// Reserve this many tags per collective invocation.
pub const TAGS_PER_COLLECTIVE: u32 = 64;

/// Dissemination barrier: ⌈log₂ n⌉ rounds; in round k, rank r sends a token
/// to (r + 2^k) mod n and receives from (r − 2^k) mod n.
pub fn barrier(rank: usize, size: usize, tag_base: u32) -> Vec<Op> {
    let mut ops = Vec::new();
    if size <= 1 {
        return ops;
    }
    let rounds = (usize::BITS - (size - 1).leading_zeros()) as usize;
    for k in 0..rounds {
        let stride = 1usize << k;
        let to = (rank + stride) % size;
        let from = (rank + size - stride) % size;
        let tag = tag_base + k as u32;
        let slot = format!("__bar.{tag}.{k}");
        ops.push(Op::Apply(set_token));
        // The token value lives at a fixed slot written by `set_token`.
        ops.push(Op::Send {
            to,
            tag,
            slot: "__token".into(),
        });
        ops.push(Op::Recv {
            from,
            tag,
            into: slot,
        });
    }
    ops
}

fn set_token(data: &mut crate::data::RankData, _rank: usize, _size: usize) {
    data.set("__token", Value::U64(1));
}

/// Binomial-tree broadcast of `slot` from `root`.
///
/// Ranks are renumbered relative to the root; in round k (from the top),
/// holders send to their partner `vrank + 2^k`.
pub fn bcast(root: usize, rank: usize, size: usize, tag_base: u32, slot: &str) -> Vec<Op> {
    let mut ops = Vec::new();
    if size <= 1 {
        return ops;
    }
    let vrank = (rank + size - root) % size;
    let rounds = (usize::BITS - (size - 1).leading_zeros()) as usize;
    // Receive once (if not root): from the highest set bit of vrank.
    if vrank != 0 {
        let bit = usize::BITS as usize - 1 - vrank.leading_zeros() as usize;
        let vfrom = vrank - (1 << bit);
        let from = (vfrom + root) % size;
        ops.push(Op::Recv {
            from,
            tag: tag_base + bit as u32,
            into: slot.to_string(),
        });
        // Then forward to children in higher rounds.
        for k in (bit + 1)..rounds {
            let vto = vrank + (1 << k);
            if vto < size {
                ops.push(Op::Send {
                    to: (vto + root) % size,
                    tag: tag_base + k as u32,
                    slot: slot.to_string(),
                });
            }
        }
    } else {
        for k in 0..rounds {
            let vto = 1usize << k;
            if vto < size {
                ops.push(Op::Send {
                    to: (vto + root) % size,
                    tag: tag_base + k as u32,
                    slot: slot.to_string(),
                });
            }
        }
    }
    ops
}

/// Linear gather of `slot` to `root`; rank i's contribution lands at
/// `{slot}.from.{i}` on the root.
pub fn gather(root: usize, rank: usize, size: usize, tag_base: u32, slot: &str) -> Vec<Op> {
    let mut ops = Vec::new();
    if rank == root {
        for i in 0..size {
            if i == root {
                continue;
            }
            ops.push(Op::Recv {
                from: i,
                tag: tag_base + i as u32,
                into: format!("{slot}.from.{i}"),
            });
        }
    } else {
        ops.push(Op::Send {
            to: root,
            tag: tag_base + rank as u32,
            slot: slot.to_string(),
        });
    }
    ops
}

/// Reduce `slot` to `root` along a flat tree: everyone sends, the root folds
/// contributions into its own `slot` with `combine` (an [`Op::Apply`]-style
/// fn that reads `{slot}.from.{i}` slots is awkward, so the fold happens in
/// the runtime-visible way: recv then apply a caller-provided fold fn).
pub fn reduce(
    root: usize,
    rank: usize,
    size: usize,
    tag_base: u32,
    slot: &str,
    fold: crate::ops::ApplyFn,
) -> Vec<Op> {
    let mut ops = gather(root, rank, size, tag_base, slot);
    if rank == root {
        ops.push(Op::Apply(fold));
    }
    ops
}

/// Allreduce = reduce to 0 + broadcast. The fold fn must combine all
/// `{slot}.from.{i}` values into `slot`.
pub fn allreduce(
    rank: usize,
    size: usize,
    tag_base: u32,
    slot: &str,
    fold: crate::ops::ApplyFn,
) -> Vec<Op> {
    let mut ops = reduce(0, rank, size, tag_base, slot, fold);
    ops.extend(bcast(0, rank, size, tag_base + size as u32, slot));
    ops
}

/// Pairwise-exchange all-to-all: in step k = 1..n, rank r sends
/// `{prefix}.send.{(r+k)%n}` to (r+k)%n and receives into
/// `{prefix}.recv.{(r−k)%n}`. The rank's own block is moved locally first
/// by the caller (or via an `Apply`).
pub fn alltoall(rank: usize, size: usize, tag_base: u32, prefix: &str) -> Vec<Op> {
    let mut ops = Vec::new();
    for k in 1..size {
        let to = (rank + k) % size;
        let from = (rank + size - k) % size;
        // Tag must identify the step uniquely; both directions of a pair use
        // the step tag, disambiguated by source matching.
        let tag = tag_base + k as u32;
        ops.push(Op::Send {
            to,
            tag,
            slot: format!("{prefix}.send.{to}"),
        });
        ops.push(Op::Recv {
            from,
            tag,
            into: format!("{prefix}.recv.{from}"),
        });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::type_complexity)]
    fn sends_and_recvs(ops: &[Op]) -> (Vec<(usize, u32)>, Vec<(usize, u32)>) {
        let mut s = Vec::new();
        let mut r = Vec::new();
        for op in ops {
            match op {
                Op::Send { to, tag, .. } => s.push((*to, *tag)),
                Op::Recv { from, tag, .. } => r.push((*from, *tag)),
                _ => {}
            }
        }
        (s, r)
    }

    /// Check a collective's send/recv multiset matches across ranks:
    /// every (src→dst, tag) send has exactly one matching recv.
    fn check_matched(all: &[Vec<Op>]) {
        let mut sends = dvc_sim_core::FastMap::default();
        let mut recvs = dvc_sim_core::FastMap::default();
        for (rank, ops) in all.iter().enumerate() {
            let (s, r) = sends_and_recvs(ops);
            for (to, tag) in s {
                *sends.entry((rank, to, tag)).or_insert(0) += 1;
            }
            for (from, tag) in r {
                *recvs.entry((from, rank, tag)).or_insert(0) += 1;
            }
        }
        assert_eq!(sends, recvs, "unmatched send/recv pairs");
    }

    #[test]
    fn barrier_is_matched_for_many_sizes() {
        for size in [2, 3, 4, 5, 8, 13, 26] {
            let all: Vec<Vec<Op>> = (0..size).map(|r| barrier(r, size, 100)).collect();
            check_matched(&all);
            // log2 rounds each
            let rounds = (usize::BITS - (size - 1_usize).leading_zeros()) as usize;
            let (s, _) = sends_and_recvs(&all[0]);
            assert_eq!(s.len(), rounds);
        }
    }

    #[test]
    fn barrier_trivial_for_one_rank() {
        assert!(barrier(0, 1, 0).is_empty());
    }

    #[test]
    fn bcast_is_matched_and_rooted() {
        for size in [2, 3, 6, 7, 16, 26] {
            for root in [0, 1, size - 1] {
                let all: Vec<Vec<Op>> = (0..size).map(|r| bcast(root, r, size, 200, "x")).collect();
                check_matched(&all);
                // Root only sends; every other rank receives exactly once.
                let (s, r) = sends_and_recvs(&all[root]);
                assert!(r.is_empty());
                assert!(!s.is_empty());
                for (i, ops) in all.iter().enumerate() {
                    if i == root {
                        continue;
                    }
                    let (_, r) = sends_and_recvs(ops);
                    assert_eq!(r.len(), 1, "rank {i} must receive exactly once");
                }
            }
        }
    }

    #[test]
    fn gather_collects_from_everyone() {
        let size = 9;
        let all: Vec<Vec<Op>> = (0..size).map(|r| gather(2, r, size, 300, "g")).collect();
        check_matched(&all);
        let (_, r) = sends_and_recvs(&all[2]);
        assert_eq!(r.len(), size - 1);
    }

    #[test]
    fn alltoall_is_fully_matched() {
        for size in [2, 3, 4, 8, 13] {
            let all: Vec<Vec<Op>> = (0..size).map(|r| alltoall(r, size, 400, "t")).collect();
            check_matched(&all);
            let (s, r) = sends_and_recvs(&all[0]);
            assert_eq!(s.len(), size - 1);
            assert_eq!(r.len(), size - 1);
        }
    }

    #[test]
    fn allreduce_ends_with_everyone_receiving_or_sending() {
        let size = 5;
        let all: Vec<Vec<Op>> = (0..size)
            .map(|r| allreduce(r, size, 500, "sum", |_d, _r, _s| {}))
            .collect();
        check_matched(&all);
    }
}
