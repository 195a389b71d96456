//! Pre-copy live-migration cost model.
//!
//! The paper's future work ("Extending LSC to enable parallel migration is
//! the next step") needs a cost model for moving a running domain: iterative
//! pre-copy rounds transfer the memory image while the guest keeps dirtying
//! pages; when the remaining dirty set is small enough (or the round budget
//! is exhausted) the guest is stopped and the residue copied — that
//! stop-and-copy phase is the migration *downtime*.
//!
//! This module is the analytic model (validated against the usual closed
//! form); `dvc-core` uses it to schedule migration phases on the event
//! queue.

use dvc_sim_core::SimDuration;

/// Parameters of one pre-copy migration.
#[derive(Clone, Copy, Debug)]
pub struct PrecopyParams {
    /// Guest memory footprint, bytes.
    pub mem_bytes: u64,
    /// Rate at which the workload dirties memory, bytes/s.
    pub dirty_bps: f64,
    /// Migration link bandwidth, bytes/s.
    pub link_bps: f64,
    /// Stop-and-copy when the dirty residue drops below this, bytes.
    pub stop_threshold_bytes: u64,
    /// Hard cap on pre-copy rounds (Xen default-ish).
    pub max_rounds: u32,
}

impl Default for PrecopyParams {
    fn default() -> Self {
        PrecopyParams {
            mem_bytes: 256 << 20,
            dirty_bps: 20.0e6,
            link_bps: 117.0e6,
            stop_threshold_bytes: 1 << 20,
            max_rounds: 30,
        }
    }
}

/// The outcome of a planned pre-copy migration.
#[derive(Clone, Debug, PartialEq)]
pub struct PrecopyPlan {
    /// Bytes sent per pre-copy round (round 0 = full memory).
    pub round_bytes: Vec<u64>,
    /// Bytes copied during stop-and-copy.
    pub final_bytes: u64,
    /// Total wall time of the live phase.
    pub live_time: SimDuration,
    /// Guest downtime (stop-and-copy transfer time).
    pub downtime: SimDuration,
}

impl PrecopyPlan {
    pub fn total_bytes(&self) -> u64 {
        self.round_bytes.iter().sum::<u64>() + self.final_bytes
    }
}

/// Plan a pre-copy migration.
///
/// Round *i* transfers the pages dirtied during round *i−1*; with dirty rate
/// `d` and bandwidth `b`, each round shrinks the working set by the factor
/// `d/b` (when `d < b`). Rounds stop when the residue is below the stop
/// threshold or the round cap is hit (a `d ≥ b` workload never converges —
/// exactly why LSC's stop-the-world checkpoint is the robust fallback).
pub fn plan_precopy(p: PrecopyParams) -> PrecopyPlan {
    assert!(p.link_bps > 0.0);
    let mut round_bytes = Vec::new();
    let mut to_send = p.mem_bytes;
    let mut live = 0.0f64;
    for _ in 0..p.max_rounds {
        if to_send <= p.stop_threshold_bytes {
            break;
        }
        round_bytes.push(to_send);
        let round_time = to_send as f64 / p.link_bps;
        live += round_time;
        // Pages dirtied while this round was in flight become the next round.
        let dirtied = (p.dirty_bps * round_time) as u64;
        let next = dirtied.min(p.mem_bytes);
        if next >= to_send && next > p.stop_threshold_bytes {
            // Not converging (dirty rate ≥ bandwidth): one more round then stop.
            to_send = next;
            break;
        }
        to_send = next;
    }
    let final_bytes = to_send;
    let downtime = final_bytes as f64 / p.link_bps;
    PrecopyPlan {
        round_bytes,
        final_bytes,
        live_time: SimDuration::from_secs_f64(live),
        downtime: SimDuration::from_secs_f64(downtime),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_guest_migrates_in_one_round() {
        let plan = plan_precopy(PrecopyParams {
            mem_bytes: 100 << 20,
            dirty_bps: 0.0,
            ..PrecopyParams::default()
        });
        assert_eq!(plan.round_bytes.len(), 1);
        assert_eq!(plan.final_bytes, 0);
        assert_eq!(plan.downtime, SimDuration::ZERO);
        assert_eq!(plan.total_bytes(), 100 << 20);
    }

    #[test]
    fn moderate_dirty_rate_converges_geometrically() {
        let p = PrecopyParams {
            mem_bytes: 256 << 20,
            dirty_bps: 20.0e6,
            link_bps: 100.0e6,
            stop_threshold_bytes: 1 << 20,
            max_rounds: 30,
        };
        let plan = plan_precopy(p);
        // Ratio d/b = 0.2: rounds shrink ~5× each.
        assert!(plan.round_bytes.len() >= 3 && plan.round_bytes.len() < 15);
        for w in plan.round_bytes.windows(2) {
            assert!(w[1] < w[0]);
        }
        assert!(plan.final_bytes <= p.stop_threshold_bytes);
        // Downtime ≪ total: that's the point of live migration.
        let total = plan.live_time + plan.downtime;
        assert!(plan.downtime.as_secs_f64() < 0.05 * total.as_secs_f64());
    }

    #[test]
    fn hot_guest_does_not_converge() {
        let p = PrecopyParams {
            mem_bytes: 256 << 20,
            dirty_bps: 150.0e6,
            link_bps: 100.0e6,
            stop_threshold_bytes: 1 << 20,
            max_rounds: 30,
        };
        let plan = plan_precopy(p);
        // Non-convergent: big residue, downtime comparable to a full copy
        // of the dirtied set.
        assert!(plan.final_bytes > (64 << 20));
        assert!(plan.downtime.as_secs_f64() > 0.5);
    }

    #[test]
    fn round_cap_bounds_live_phase() {
        let p = PrecopyParams {
            mem_bytes: 1 << 30,
            dirty_bps: 99.0e6,
            link_bps: 100.0e6,
            stop_threshold_bytes: 4096,
            max_rounds: 5,
        };
        let plan = plan_precopy(p);
        assert!(plan.round_bytes.len() <= 5);
    }

    #[test]
    fn total_time_is_consistent() {
        let plan = plan_precopy(PrecopyParams::default());
        let sum = plan.total_bytes() as f64 / PrecopyParams::default().link_bps;
        let total = plan.live_time + plan.downtime;
        assert!((total.as_secs_f64() - sum).abs() < 1e-6);
    }
}
