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
        Value::F64Vec({
            let mut out = vec![0.0; cfg.payload_len];
            fill_payload(&mut out, rank as u64, 0);
            out
        }),
    );
    let _ = size;
    (vec![Op::Marker("ring-start"), Op::Gen(step)], data)
}

/// Payload element `i` of (origin rank, lap) is
/// `origin·1e6 + lap·1e3 + (i mod PAYLOAD_RUN)`. The payload is walked in
/// runs of `PAYLOAD_RUN` elements, so the index restarts instead of being
/// divided, and the first two terms are summed once per lap: `a + b + c` is
/// `(a + b) + c`, so that changes no bit.
const PAYLOAD_RUN: usize = 997;

fn lap_base(origin: u64, lap: u64) -> f64 {
    (origin as f64) * 1e6 + (lap as f64) * 1e3
}

/// Write the payload of (origin, lap) into `out`.
fn fill_payload(out: &mut [f64], origin: u64, lap: u64) {
    let base = lap_base(origin, lap);
    for run in out.chunks_mut(PAYLOAD_RUN) {
        for (k, v) in run.iter_mut().enumerate() {
            *v = base + (k as u32) as f64;
        }
    }
}

/// How many elements of `got` differ from the payload of (origin, lap).
fn payload_errors(got: &[f64], origin: u64, lap: u64) -> usize {
    let base = lap_base(origin, lap);
    got.chunks(PAYLOAD_RUN)
        .map(|run| {
            run.iter()
                .enumerate()
                .filter(|&(k, &v)| v != base + (k as u32) as f64)
                .count()
        })
        .sum()
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
    fill_payload(data.vec_f64_mut("ring.out"), rank as u64, lap);
}

fn check_in(data: &mut RankData, rank: usize, size: usize) {
    let lap = data.u64("ring.iter") - 1;
    let prev = ((rank + size - 1) % size) as u64;
    let bad = payload_errors(data.vec_f64("ring.in"), prev, lap) as u64;
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

    /// Expected payload element for (origin rank, lap, index), term by term.
    fn payload_elem(origin: u64, lap: u64, i: usize) -> f64 {
        (origin as f64) * 1e6 + (lap as f64) * 1e3 + (i % 997) as f64
    }

    #[test]
    fn payload_matches_the_per_element_formula_bit_for_bit() {
        // 2000 elements cross the 997 wrap twice.
        for (origin, lap) in [(0, 0), (1, 0), (25, 7), (3, 511), (1023, 4095)] {
            let mut got = vec![0.0; 2000];
            fill_payload(&mut got, origin, lap);
            let want: Vec<f64> = (0..2000).map(|i| payload_elem(origin, lap, i)).collect();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "origin {origin} lap {lap}");
            assert_eq!(payload_errors(&want, origin, lap), 0);
            let mut bad = want.clone();
            bad[996] += 1.0;
            bad[1994] = -1.0;
            assert_eq!(payload_errors(&bad, origin, lap), 2);
        }
    }

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
