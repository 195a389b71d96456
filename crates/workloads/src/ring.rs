//! Ring-exchange stressor: keeps the interconnect busy so LSC experiments
//! have in-flight TCP traffic to preserve (or break).
//!
//! Each iteration every rank sends a payload to its right neighbour and
//! receives from its left, verifies the payload's checksum, does a little
//! compute, and repeats. Iterations either run a fixed count or until a
//! `stop` flag is observed (the open-ended mode used by long-running
//! reliability experiments).

use dvc_mpi::data::{RankData, Value};
use dvc_mpi::ops::Op;

const TAG_RING: u32 = 30_000;

/// Ring job parameters.
#[derive(Clone, Copy, Debug)]
pub struct RingConfig {
    /// Payload doubles per hop.
    pub payload_len: usize,
    /// Iterations (laps) to run.
    pub iters: u64,
    /// Compute charged per hop, ns.
    pub compute_ns: u64,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            payload_len: 4096,
            iters: 50,
            compute_ns: 200_000,
        }
    }
}

/// Build the per-rank ring program.
pub fn program(cfg: RingConfig, rank: usize, size: usize) -> (Vec<Op>, RankData) {
    let mut data = RankData::new();
    data.set("ring.iters", Value::U64(cfg.iters));
    data.set("ring.iter", Value::U64(0));
    data.set("ring.compute_ns", Value::U64(cfg.compute_ns));
    data.set("ring.errors", Value::U64(0));
    // Payload: rank-stamped pattern, re-stamped each lap.
    data.set(
        "ring.out",
        Value::F64Vec(
            (0..cfg.payload_len)
                .map(|i| payload_elem(rank as u64, 0, i))
                .collect(),
        ),
    );
    let _ = size;
    (vec![Op::Marker("ring-start"), Op::Gen(step)], data)
}

/// Expected payload element for (origin rank, lap, index).
fn payload_elem(origin: u64, lap: u64, i: usize) -> f64 {
    (origin as f64) * 1e6 + (lap as f64) * 1e3 + (i % 997) as f64
}

fn step(data: &mut RankData, rank: usize, size: usize) -> Vec<Op> {
    let iter = data.u64("ring.iter");
    let iters = data.u64("ring.iters");
    if iter >= iters {
        return vec![Op::Marker("ring-end")];
    }
    data.set("ring.iter", Value::U64(iter + 1));
    let next = (rank + 1) % size;
    let prev = (rank + size - 1) % size;
    let tag = TAG_RING + (iter % 512) as u32;
    let compute = data.u64("ring.compute_ns");

    let mut ops = vec![Op::Apply(stamp_out), Op::ComputeNs(compute.max(1))];
    if size > 1 {
        // Even ranks send then receive; odd ranks receive then send — no
        // cyclic wait even with rendezvous-style blocking.
        if rank.is_multiple_of(2) {
            ops.push(Op::send(next, tag, "ring.out"));
            ops.push(Op::recv(prev, tag, "ring.in"));
        } else {
            ops.push(Op::recv(prev, tag, "ring.in"));
            ops.push(Op::send(next, tag, "ring.out"));
        }
        ops.push(Op::Apply(check_in));
    }
    ops.push(Op::Gen(step));
    ops
}

fn stamp_out(data: &mut RankData, rank: usize, _size: usize) {
    let lap = data.u64("ring.iter") - 1; // step already incremented it
    let out = data.vec_f64_mut("ring.out");
    for (i, v) in out.iter_mut().enumerate() {
        *v = payload_elem(rank as u64, lap, i);
    }
}

fn check_in(data: &mut RankData, rank: usize, size: usize) {
    let lap = data.u64("ring.iter") - 1;
    let prev = ((rank + size - 1) % size) as u64;
    let bad = data
        .vec_f64("ring.in")
        .iter()
        .enumerate()
        .filter(|&(i, &v)| v != payload_elem(prev, lap, i))
        .count() as u64;
    if bad > 0 {
        let e = data.u64("ring.errors");
        data.set("ring.errors", Value::U64(e + bad));
    }
}

/// Post-run check used by experiments: all ranks finished all laps with
/// zero payload errors.
pub fn ring_ok(data: &RankData) -> bool {
    data.u64("ring.errors") == 0 && data.u64("ring.iter") == data.u64("ring.iters")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_origin_and_lap_dependent() {
        assert_ne!(payload_elem(1, 0, 5), payload_elem(2, 0, 5));
        assert_ne!(payload_elem(1, 0, 5), payload_elem(1, 1, 5));
        assert_eq!(payload_elem(3, 7, 11), payload_elem(3, 7, 11));
    }

    #[test]
    fn stamp_and_check_agree() {
        let cfg = RingConfig {
            payload_len: 64,
            iters: 3,
            compute_ns: 10,
        };
        let size = 4;
        let (_, mut d1) = program(cfg, 1, size);
        let (_, mut d2) = program(cfg, 2, size);
        // Simulate lap 0: rank 1 stamps, rank 2 receives it.
        d1.set("ring.iter", Value::U64(1));
        stamp_out(&mut d1, 1, size);
        d2.set("ring.iter", Value::U64(1));
        d2.set("ring.in", d1.get("ring.out").cloned().unwrap());
        check_in(&mut d2, 2, size);
        assert_eq!(d2.u64("ring.errors"), 0);
        // Corrupt one element: detected.
        let mut bad = d1.get("ring.out").cloned().unwrap();
        if let Value::F64Vec(v) = &mut bad {
            v[10] += 0.5;
        }
        d2.set("ring.in", bad);
        check_in(&mut d2, 2, size);
        assert_eq!(d2.u64("ring.errors"), 1);
    }
}
