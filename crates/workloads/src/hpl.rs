//! HPL-like distributed LU factorization with partial pivoting.
//!
//! Layout: 1-D **column-block-cyclic**. The n×n matrix is split into
//! `n/nb` column panels; panel `k` lives on rank `k % size`. Each rank
//! stores its panels as one column-major local matrix (full `n` rows).
//!
//! Per iteration `k`:
//!
//! 1. the owner factors the panel locally (pivot search over whole columns
//!    it owns entirely, row swaps, multipliers) — real arithmetic;
//! 2. the factored panel + pivot indices are **broadcast** (binomial tree);
//! 3. every rank applies the row swaps to its columns, solves the `U12`
//!    triangular block, and rank-`nb` updates its trailing columns —
//!    real arithmetic, plus an [`Op::Compute`] charge for the flops.
//!
//! The run ends with a gather to rank 0 and a residual check
//! `max|P·A − L·U| / (n · max|A|)` against the regenerated source matrix, so
//! any message lost or duplicated across a checkpoint shows up numerically.
//!
//! Timing: the program stamps `hpl-start` / `hpl-end` markers with the
//! *guest wall clock*. Because time is not virtualized, a checkpoint's
//! downtime lands inside the self-reported runtime — the paper's observed
//! "greatly increased execution time" (§3.2), reproduced by experiment E7.

use crate::gen_a;
use dvc_mpi::collectives;
use dvc_mpi::data::{RankData, Value};
use dvc_mpi::ops::Op;

/// Tag space: panel k uses tags `TAG_BASE + k·TAGS_PER_STEP ..`.
const TAG_BASE: u32 = 10_000;
const TAGS_PER_STEP: u32 = collectives::TAGS_PER_COLLECTIVE;
/// Gather tags at the end.
const TAG_GATHER: u32 = 5_000;
const TAG_RESIDUAL: u32 = 5_500;

/// HPL job parameters.
#[derive(Clone, Copy, Debug)]
pub struct HplConfig {
    /// Matrix dimension (must be divisible by `nb`).
    pub n: usize,
    /// Panel (block) width.
    pub nb: usize,
    /// Source matrix seed.
    pub seed: u64,
    /// Write an application-level checkpoint of the live state every this
    /// many panels (the app-level arm of experiment E6).
    pub app_ckpt_every: Option<usize>,
}

impl HplConfig {
    pub fn new(n: usize, nb: usize, seed: u64) -> Self {
        assert!(n.is_multiple_of(nb), "n must be a multiple of nb");
        HplConfig {
            n,
            nb,
            seed,
            app_ckpt_every: None,
        }
    }

    /// Total flops of the factorization (the classic 2n³/3).
    pub fn total_flops(&self) -> f64 {
        2.0 * (self.n as f64).powi(3) / 3.0
    }
}

// ---------------------------------------------------------------------
// Layout helpers
// ---------------------------------------------------------------------

/// Number of column blocks.
fn nblocks(n: usize, nb: usize) -> usize {
    n / nb
}

/// Number of local columns on `rank`.
pub fn n_local_cols(n: usize, nb: usize, size: usize, rank: usize) -> usize {
    (0..nblocks(n, nb)).filter(|kb| kb % size == rank).count() * nb
}

/// Local column index of global column `j` on `rank` (None if not owned).
pub fn local_col(n: usize, nb: usize, size: usize, rank: usize, j: usize) -> Option<usize> {
    let _ = n;
    let kb = j / nb;
    if kb % size != rank {
        return None;
    }
    Some((kb / size) * nb + j % nb)
}

/// Global column of local column `lc` on `rank`.
pub fn global_col(nb: usize, size: usize, rank: usize, lc: usize) -> usize {
    let lb = lc / nb;
    (lb * size + rank) * nb + lc % nb
}

// ---------------------------------------------------------------------
// Program construction
// ---------------------------------------------------------------------

/// Build the per-rank HPL program.
pub fn program(cfg: HplConfig, rank: usize, size: usize) -> (Vec<Op>, RankData) {
    let mut data = RankData::new();
    data.set("hpl.n", Value::U64(cfg.n as u64));
    data.set("hpl.nb", Value::U64(cfg.nb as u64));
    data.set("hpl.seed", Value::U64(cfg.seed));
    data.set("hpl.k", Value::U64(0));
    data.set(
        "hpl.ckpt_every",
        Value::U64(cfg.app_ckpt_every.unwrap_or(0) as u64),
    );
    data.set("piv", Value::U64Vec(vec![0; cfg.n]));

    // Materialize the local columns.
    let ncols = n_local_cols(cfg.n, cfg.nb, size, rank);
    let mut a = vec![0.0f64; cfg.n * ncols];
    for lc in 0..ncols {
        let j = global_col(cfg.nb, size, rank, lc);
        for i in 0..cfg.n {
            a[lc * cfg.n + i] = gen_a(cfg.seed, i, j);
        }
    }
    data.set("A", Value::F64Vec(a));

    let ops = vec![Op::Marker("hpl-start"), Op::Gen(step)];
    (ops, data)
}

/// One iteration of the outer loop, emitted dynamically.
fn step(data: &mut RankData, rank: usize, size: usize) -> Vec<Op> {
    let n = data.u64("hpl.n") as usize;
    let nb = data.u64("hpl.nb") as usize;
    let k = data.u64("hpl.k") as usize;
    let nbl = nblocks(n, nb);

    if k == nbl {
        return finale(data, rank, size);
    }

    let j0 = k * nb;
    let j1 = j0 + nb;
    let owner = k % size;
    let tag = TAG_BASE + (k as u32) * TAGS_PER_STEP;

    let mut ops = Vec::new();
    if rank == owner {
        ops.push(Op::Apply(factor_panel));
        // Panel factorization flops: pivot scan + rank-1 updates within the
        // panel ≈ (n−j0)·nb² .
        ops.push(Op::Compute {
            flops: (n - j0) as f64 * (nb * nb) as f64,
        });
    }
    ops.extend(collectives::bcast(owner, rank, size, tag, "panel"));
    ops.push(Op::Apply(apply_panel));

    // Trailing-update flops for THIS rank: triangular solve (nb² per local
    // trailing column) + GEMM (2·(n−j1)·nb per element column).
    let my_trailing = (j1..n)
        .filter(|&j| local_col(n, nb, size, rank, j).is_some())
        .count();
    let flops = (nb * nb) as f64 * my_trailing as f64
        + 2.0 * (n - j1) as f64 * nb as f64 * my_trailing as f64;
    if flops > 0.0 {
        ops.push(Op::Compute { flops });
    }

    // Application-level checkpoint of the live state (trailing matrix +
    // factors this rank still needs), if configured.
    let every = data.u64("hpl.ckpt_every") as usize;
    if every > 0 && k > 0 && k.is_multiple_of(every) {
        let ncols = n_local_cols(n, nb, size, rank);
        let bytes = (n * ncols * 8 + n * 8) as u64; // local panels + pivots
        ops.push(Op::DiskWrite { bytes });
        ops.push(Op::Marker("hpl-app-ckpt"));
    }

    ops.push(Op::Apply(inc_k));
    ops.push(Op::Gen(step));
    ops
}

fn inc_k(data: &mut RankData, _rank: usize, _size: usize) {
    let k = data.u64("hpl.k");
    data.set("hpl.k", Value::U64(k + 1));
}

/// Owner-side panel factorization (partial pivoting, real arithmetic).
fn factor_panel(data: &mut RankData, rank: usize, size: usize) {
    let n = data.u64("hpl.n") as usize;
    let nb = data.u64("hpl.nb") as usize;
    let k = data.u64("hpl.k") as usize;
    let j0 = k * nb;

    // Split borrows: take A out, work, put back.
    let mut a = match data.take("A") {
        Some(Value::F64Vec(v)) => v,
        _ => panic!("A missing"),
    };
    let mut piv_new = vec![0u64; nb];

    for (jj, piv_slot) in piv_new.iter_mut().enumerate() {
        let j = j0 + jj;
        let lc = local_col(n, nb, size, rank, j).expect("owner owns the panel");
        let col = lc * n;
        // Pivot search in rows j..n.
        let mut p = j;
        let mut best = a[col + j].abs();
        for i in (j + 1)..n {
            let v = a[col + i].abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        *piv_slot = p as u64;
        // Swap rows j <-> p across the panel's columns; `apply_panel`
        // swaps every other local column.
        if p != j {
            for jj2 in 0..nb {
                let c = local_col(n, nb, size, rank, j0 + jj2).unwrap();
                a.swap(c * n + j, c * n + p);
            }
        }
        // Multipliers + rank-1 update of the remaining panel columns.
        let d = a[col + j];
        debug_assert!(d != 0.0, "zero pivot");
        for i in (j + 1)..n {
            a[col + i] /= d;
        }
        for jj2 in (jj + 1)..nb {
            let lc2 = local_col(n, nb, size, rank, j0 + jj2).unwrap();
            let col2 = lc2 * n;
            let u = a[col2 + j];
            for i in (j + 1)..n {
                a[col2 + i] -= a[col + i] * u;
            }
        }
    }

    // Record pivots globally.
    if let Some(Value::U64Vec(piv)) = data.get_mut("piv") {
        piv[j0..j0 + nb].copy_from_slice(&piv_new);
    }

    // Assemble the panel message: [piv(nb) | rows j0..n × nb cols].
    let rows = n - j0;
    let mut panel = Vec::with_capacity(nb + rows * nb);
    panel.extend(piv_new.iter().map(|&p| p as f64));
    for jj in 0..nb {
        let lc = local_col(n, nb, size, rank, j0 + jj).unwrap();
        let col = lc * n;
        panel.extend_from_slice(&a[col + j0..col + n]);
    }
    data.set("A", Value::F64Vec(a));
    data.set("panel", Value::F64Vec(panel));
}

/// Every rank: apply pivots, solve U12, update the trailing matrix.
fn apply_panel(data: &mut RankData, rank: usize, size: usize) {
    let n = data.u64("hpl.n") as usize;
    let nb = data.u64("hpl.nb") as usize;
    let k = data.u64("hpl.k") as usize;
    let j0 = k * nb;
    let j1 = j0 + nb;
    let rows = n - j0;
    let owner = k % size;

    let panel = match data.get("panel") {
        Some(Value::F64Vec(v)) => v.clone(),
        _ => panic!("panel missing"),
    };
    assert_eq!(panel.len(), nb + rows * nb, "panel shape");
    let piv: Vec<usize> = panel[..nb].iter().map(|&x| x as usize).collect();
    let l = &panel[nb..]; // column-major, rows j0..n × nb

    // Non-owners record the pivots too (needed for verification).
    if rank != owner {
        if let Some(Value::U64Vec(pv)) = data.get_mut("piv") {
            for (jj, &p) in piv.iter().enumerate() {
                pv[j0 + jj] = p as u64;
            }
        }
    }

    let mut a = match data.take("A") {
        Some(Value::F64Vec(v)) => v,
        _ => panic!("A missing"),
    };
    let ncols = a.len() / n;

    for lc in 0..ncols {
        let j = global_col(nb, size, rank, lc);
        if (j0..j1).contains(&j) {
            continue; // the owner's freshly factored panel columns
        }
        let col = lc * n;
        // Row swaps (all columns, left and trailing).
        for (jj, &p) in piv.iter().enumerate() {
            let r0 = j0 + jj;
            if p != r0 {
                a.swap(col + r0, col + p);
            }
        }
        if j < j1 {
            continue; // already-factored left columns only get the swaps
        }
        // U12: forward substitution with unit-lower L11 (panel rows 0..nb).
        for lrow in 0..nb {
            let mut v = a[col + j0 + lrow];
            for m in 0..lrow {
                v -= l[m * rows + lrow] * a[col + j0 + m];
            }
            a[col + j0 + lrow] = v;
        }
        // A22 −= L21 · U12 for this column.
        for i in j1..n {
            let li = i - j0;
            let mut v = a[col + i];
            for m in 0..nb {
                v -= l[m * rows + li] * a[col + j0 + m];
            }
            a[col + i] = v;
        }
    }

    data.set("A", Value::F64Vec(a));
}

/// End of factorization: gather to rank 0, verify, share the residual.
fn finale(_data: &mut RankData, rank: usize, size: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    if rank == 0 {
        for r in 1..size {
            ops.push(Op::recv(r, TAG_GATHER + r as u32, format!("A.from.{r}")));
            ops.push(Op::recv(
                r,
                TAG_GATHER + 1000 + r as u32,
                format!("piv.from.{r}"),
            ));
        }
        ops.push(Op::Apply(verify));
    } else {
        ops.push(Op::send(0, TAG_GATHER + rank as u32, "A"));
        ops.push(Op::send(0, TAG_GATHER + 1000 + rank as u32, "piv"));
    }
    // Residual broadcast doubles as the final synchronization.
    ops.extend(collectives::bcast(
        0,
        rank,
        size,
        TAG_RESIDUAL,
        "hpl.residual",
    ));
    ops.push(Op::Marker("hpl-end"));
    ops
}

/// Rank 0: rebuild the global factors and compute the residual.
fn verify(data: &mut RankData, rank: usize, size: usize) {
    assert_eq!(rank, 0);
    let n = data.u64("hpl.n") as usize;
    let nb = data.u64("hpl.nb") as usize;
    let seed = data.u64("hpl.seed");

    // Assemble the full factored matrix F (column-major n×n).
    let mut f = vec![0.0f64; n * n];
    for r in 0..size {
        let local = if r == 0 {
            data.vec_f64("A").clone()
        } else {
            data.vec_f64(&format!("A.from.{r}")).clone()
        };
        let ncols = local.len() / n;
        for lc in 0..ncols {
            let j = global_col(nb, size, r, lc);
            f[j * n..(j + 1) * n].copy_from_slice(&local[lc * n..(lc + 1) * n]);
        }
    }
    // Merge pivot vectors: panel k's entries came from its owner.
    let mut piv = vec![0usize; n];
    {
        let own = data.get("piv").and_then(Value::as_u64_vec).unwrap().clone();
        for (j, p) in own.iter().enumerate() {
            piv[j] = *p as usize;
        }
        for r in 1..size {
            let theirs = data
                .get(&format!("piv.from.{r}"))
                .and_then(Value::as_u64_vec)
                .unwrap()
                .clone();
            for kb in 0..nblocks(n, nb) {
                if kb % size == r {
                    for jj in 0..nb {
                        let j = kb * nb + jj;
                        piv[j] = theirs[j] as usize;
                    }
                }
            }
        }
    }

    // P·A: regenerate the source and apply the pivot swaps in order.
    let mut pa = vec![0.0f64; n * n];
    for j in 0..n {
        for i in 0..n {
            pa[j * n + i] = gen_a(seed, i, j);
        }
    }
    for (j, &p) in piv.iter().enumerate() {
        if p != j {
            for c in 0..n {
                pa.swap(c * n + j, c * n + p);
            }
        }
    }

    // R = P·A − L·U, computed column by column: (L·U)[i][j] =
    // Σ_m L[i][m]·U[m][j] with L unit-lower, U upper (both stored in F).
    let mut max_r: f64 = 0.0;
    let mut max_a: f64 = 0.0;
    for j in 0..n {
        for i in 0..n {
            // (L·U)[i][j] = Σ_{m ≤ min(i,j)} L[i][m]·U[m][j], with
            // L[i][i] = 1 (unit lower) and both factors stored in F.
            let mut lu = 0.0;
            for m in 0..=i.min(j) {
                let lval = if m == i { 1.0 } else { f[m * n + i] };
                lu += lval * f[j * n + m];
            }
            let r = pa[j * n + i] - lu;
            max_r = max_r.max(r.abs());
            max_a = max_a.max(pa[j * n + i].abs());
        }
    }
    let residual = max_r / (max_a * n as f64);
    data.set("hpl.residual", Value::F64(residual));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_roundtrips() {
        let (n, nb, size) = (96, 8, 5);
        for j in 0..n {
            let owner = (j / nb) % size;
            for r in 0..size {
                match local_col(n, nb, size, r, j) {
                    Some(lc) => {
                        assert_eq!(r, owner);
                        assert_eq!(global_col(nb, size, r, lc), j);
                    }
                    None => assert_ne!(r, owner),
                }
            }
        }
        let total: usize = (0..size).map(|r| n_local_cols(n, nb, size, r)).sum();
        assert_eq!(total, n);
    }

    /// Single-rank LU through the real Apply functions: residual must be at
    /// machine-precision level.
    #[test]
    fn single_rank_lu_is_numerically_correct() {
        let cfg = HplConfig::new(48, 8, 7);
        let (_, mut data) = program(cfg, 0, 1);
        for _k in 0..nblocks(cfg.n, cfg.nb) {
            factor_panel(&mut data, 0, 1);
            apply_panel(&mut data, 0, 1);
            inc_k(&mut data, 0, 1);
        }
        verify(&mut data, 0, 1);
        let res = data.f64("hpl.residual");
        assert!(res < 1e-12, "residual {res}");
    }

    #[test]
    fn total_flops_formula() {
        let cfg = HplConfig::new(100, 10, 1);
        assert!((cfg.total_flops() - 2.0 / 3.0 * 1e6).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "multiple of nb")]
    fn bad_block_size_panics() {
        HplConfig::new(100, 7, 1);
    }
}
