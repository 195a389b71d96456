//! Shared checkpoint storage: a processor-sharing bandwidth model.
//!
//! The paper's testbed writes all VM images to "a reliable storage system".
//! When 26 domains save at once they share that system's bandwidth, which is
//! what makes parallel save time grow with cluster size (experiment E9).
//!
//! Model: `n` concurrent transfers each progress at
//! `min(per_stream_bps, agg_bps / n)` — clients are individually capped
//! (their NIC / stripe limit) and collectively capped (the array). Rates are
//! piecewise constant between membership changes, so completions can be
//! scheduled exactly and re-derived whenever a transfer starts or ends.

use crate::world::ClusterWorld;
use dvc_sim_core::{Event, FastMap, FaultEvent, Sim, SimDuration, SimTime, StorageEvent};

pub type TransferId = u64;

type DoneCb = Box<dyn FnOnce(&mut Sim<ClusterWorld>)>;

struct Transfer {
    remaining: f64,
    cb: Option<DoneCb>,
}

/// The shared storage subsystem state (lives in the world).
pub struct SharedStorage {
    /// Aggregate array bandwidth, bytes/s.
    pub agg_bps: f64,
    /// Per-stream cap, bytes/s.
    pub per_stream_bps: f64,
    active: FastMap<TransferId, Transfer>,
    next_id: TransferId,
    gen: u64,
    last_update: SimTime,
    pub bytes_completed: u64,
    pub transfers_completed: u64,
    /// Bandwidth multiplier applied during brownout windows (1.0 = healthy).
    pub rate_factor: f64,
    /// Transfer attempts that ended in an injected failure.
    pub transfers_failed: u64,
    /// Backoff re-issues performed by [`transfer_with_retry`].
    pub retries: u64,
}

impl SharedStorage {
    pub fn new(agg_bps: f64, per_stream_bps: f64) -> Self {
        assert!(agg_bps > 0.0 && per_stream_bps > 0.0);
        SharedStorage {
            agg_bps,
            per_stream_bps,
            active: FastMap::default(),
            next_id: 1,
            gen: 0,
            last_update: SimTime::ZERO,
            bytes_completed: 0,
            transfers_completed: 0,
            rate_factor: 1.0,
            transfers_failed: 0,
            retries: 0,
        }
    }

    fn rate(&self) -> f64 {
        let n = self.active.len().max(1) as f64;
        self.per_stream_bps.min(self.agg_bps / n) * self.rate_factor.clamp(0.01, 1.0)
    }

    pub fn active_transfers(&self) -> usize {
        self.active.len()
    }
}

/// Begin a transfer of `bytes` (read or write — symmetric); `cb` runs when
/// it completes.
pub fn start_transfer(
    sim: &mut Sim<ClusterWorld>,
    bytes: u64,
    cb: impl FnOnce(&mut Sim<ClusterWorld>) + 'static,
) -> TransferId {
    advance(sim);
    let st = &mut sim.world.storage;
    let id = st.next_id;
    st.next_id += 1;
    st.active.insert(
        id,
        Transfer {
            remaining: bytes as f64,
            cb: Some(Box::new(cb)),
        },
    );
    reschedule(sim);
    id
}

/// Advance all active transfers to `sim.now()` at the current shared rate.
fn advance(sim: &mut Sim<ClusterWorld>) {
    let now = sim.now();
    let st = &mut sim.world.storage;
    let dt = (now - st.last_update).as_secs_f64();
    st.last_update = now;
    if dt <= 0.0 || st.active.is_empty() {
        return;
    }
    let r = st.rate();
    for t in st.active.values_mut() {
        t.remaining -= r * dt;
    }
}

/// Re-derive and schedule the next completion instant.
fn reschedule(sim: &mut Sim<ClusterWorld>) {
    let st = &mut sim.world.storage;
    st.gen += 1;
    let gen = st.gen;
    if st.active.is_empty() {
        return;
    }
    let r = st.rate();
    let min_remaining = st
        .active
        .values()
        .map(|t| t.remaining)
        .fold(f64::INFINITY, f64::min)
        .max(0.0);
    let eta = SimDuration::from_secs_f64(min_remaining / r);
    sim.schedule_in(eta, move |sim| {
        if sim.world.storage.gen != gen {
            return; // membership changed since; a fresher event exists
        }
        settle(sim);
    });
}

/// Complete any finished transfers and run their callbacks.
fn settle(sim: &mut Sim<ClusterWorld>) {
    advance(sim);
    let st = &mut sim.world.storage;
    let mut finished: Vec<TransferId> = st
        .active
        .iter()
        .filter(|(_, t)| t.remaining <= 0.5)
        .map(|(&id, _)| id)
        .collect();
    // Map order must never leak into callback ordering — determinism.
    finished.sort_unstable();
    let mut cbs = Vec::new();
    for id in finished {
        if let Some(mut t) = st.active.remove(&id) {
            st.transfers_completed += 1;
            if let Some(cb) = t.cb.take() {
                cbs.push(cb);
            }
        }
    }
    reschedule(sim);
    for cb in cbs {
        cb(sim);
    }
}

/// Account a transfer's size at start for the completion statistics.
/// (Called by higher-level helpers that know the semantic size.)
pub fn note_bytes(sim: &mut Sim<ClusterWorld>, bytes: u64) {
    sim.world.storage.bytes_completed += bytes;
}

/// Change the brownout bandwidth factor, correctly advancing in-flight
/// transfers first so their progress under the old rate is banked before
/// future progress accrues at the new one.
pub(crate) fn set_rate_factor(sim: &mut Sim<ClusterWorld>, factor: f64) {
    advance(sim);
    sim.world.storage.rate_factor = factor;
    reschedule(sim);
}

/// Like [`start_transfer`], but the transfer can *fail*: on completion the
/// fault plan's `storage.fail` probability is rolled and the callback learns
/// whether the bytes actually made it. (The time is spent either way — a
/// failed write still occupied the array until the error surfaced.)
pub(crate) fn start_transfer_checked(
    sim: &mut Sim<ClusterWorld>,
    bytes: u64,
    cb: impl FnOnce(&mut Sim<ClusterWorld>, bool) + 'static,
) -> TransferId {
    start_transfer(sim, bytes, move |sim| {
        let now = sim.now();
        let rng = sim.rng.stream("fault.storage");
        let failed = sim.world.faults.roll("storage.fail", None, now, rng);
        if failed {
            sim.world.storage.transfers_failed += 1;
            sim.emit(Event::Fault(FaultEvent::Injected {
                what: "storage.fail",
            }));
            sim.emit(Event::Storage(StorageEvent::TransferFailed { bytes }));
        }
        cb(sim, !failed);
    })
}

/// First retry backoff, seconds; doubles per failed attempt.
const BASE_BACKOFF_S: f64 = 0.5;

/// A checked transfer with bounded retry and exponential backoff: up to
/// `cfg.storage_retry.max_attempts` attempts, sleeping `BASE_BACKOFF_S · 2ᵏ`
/// between them. `cb` receives the final outcome.
pub fn transfer_with_retry(
    sim: &mut Sim<ClusterWorld>,
    bytes: u64,
    cb: impl FnOnce(&mut Sim<ClusterWorld>, bool) + 'static,
) {
    let max_attempts = sim.world.cfg.storage_retry.max_attempts.max(1);
    attempt_transfer(sim, bytes, 1, max_attempts, Box::new(cb));
}

type RetryCb = Box<dyn FnOnce(&mut Sim<ClusterWorld>, bool)>;

fn attempt_transfer(
    sim: &mut Sim<ClusterWorld>,
    bytes: u64,
    attempt: u32,
    max_attempts: u32,
    cb: RetryCb,
) {
    start_transfer_checked(sim, bytes, move |sim, ok| {
        if ok || attempt >= max_attempts {
            cb(sim, ok);
            return;
        }
        sim.world.storage.retries += 1;
        let backoff =
            SimDuration::from_secs_f64(BASE_BACKOFF_S * f64::from(1u32 << (attempt - 1).min(10)));
        sim.emit(Event::Storage(StorageEvent::TransferRetry {
            attempt,
            max_attempts,
            bytes,
            backoff,
        }));
        sim.schedule_in(backoff, move |sim| {
            attempt_transfer(sim, bytes, attempt + 1, max_attempts, cb);
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::ClusterBuilder;

    fn world() -> Sim<ClusterWorld> {
        // 1 cluster × 2 nodes is enough; storage params set explicitly.
        let mut w = ClusterBuilder::new()
            .clusters(1)
            .nodes_per_cluster(2)
            .build(7);
        w.storage = SharedStorage::new(100.0e6, 80.0e6); // 100 MB/s agg, 80 MB/s per stream
        Sim::new(w, 7)
    }

    /// Completion times recorded into the world for assertions.
    #[derive(Default)]
    struct Done(Vec<(u64, f64)>);

    fn record(tag: u64) -> impl FnOnce(&mut Sim<ClusterWorld>) + 'static {
        move |sim| {
            let t = sim.now().as_secs_f64();
            sim.world.ext.get_or_default::<Done>().0.push((tag, t));
        }
    }

    #[test]
    fn single_transfer_uses_per_stream_cap() {
        let mut sim = world();
        // 80 MB at 80 MB/s per-stream cap = 1.0 s (agg would allow 100).
        start_transfer(&mut sim, 80_000_000, record(1));
        sim.run_to_completion(1000);
        let done = &sim.world.ext.get::<Done>().unwrap().0;
        assert_eq!(done.len(), 1);
        assert!((done[0].1 - 1.0).abs() < 1e-6, "t = {}", done[0].1);
    }

    #[test]
    fn concurrent_transfers_share_aggregate() {
        let mut sim = world();
        // 4 × 50 MB: each gets 100/4 = 25 MB/s → 2.0 s.
        for i in 0..4 {
            start_transfer(&mut sim, 50_000_000, record(i));
        }
        sim.run_to_completion(1000);
        let done = &sim.world.ext.get::<Done>().unwrap().0;
        assert_eq!(done.len(), 4);
        for &(_, t) in done {
            assert!((t - 2.0).abs() < 1e-6, "t = {t}");
        }
    }

    #[test]
    fn finishing_transfers_release_bandwidth() {
        let mut sim = world();
        // A: 25 MB, B: 75 MB. Phase 1: both at 50 MB/s; A done at 0.5 s
        // (B has 50 MB left). Phase 2: B alone at 80 MB/s → 0.625 s more.
        start_transfer(&mut sim, 25_000_000, record(0));
        start_transfer(&mut sim, 75_000_000, record(1));
        sim.run_to_completion(1000);
        let done = &sim.world.ext.get::<Done>().unwrap().0;
        assert_eq!(done.len(), 2);
        assert!((done[0].1 - 0.5).abs() < 1e-6, "A at {}", done[0].1);
        assert!((done[1].1 - 1.125).abs() < 1e-6, "B at {}", done[1].1);
    }

    #[test]
    fn late_arrivals_slow_existing_transfers() {
        let mut sim = world();
        // A: 80 MB alone at 80 MB/s for 0.5 s (40 MB left). Then B joins:
        // both at 50 MB/s. A needs 0.8 s more → 1.3 s total.
        start_transfer(&mut sim, 80_000_000, record(0));
        sim.schedule_at(SimTime::from_secs_f64(0.5), |sim| {
            start_transfer(sim, 200_000_000, record(1));
        });
        sim.run_to_completion(1000);
        let done = sim.world.ext.get::<Done>().unwrap().0.clone();
        assert!((done[0].1 - 1.3).abs() < 1e-6, "A at {}", done[0].1);
        // B: 200 MB; 0.8 s at 50 (40 MB), then alone at 80: 160/80 = 2 s → 3.3 s.
        assert!((done[1].1 - 3.3).abs() < 1e-6, "B at {}", done[1].1);
    }

    #[test]
    fn callbacks_may_chain_transfers() {
        let mut sim = world();
        start_transfer(&mut sim, 80_000_000, |sim| {
            // Restore follows save: a chained read.
            start_transfer(sim, 40_000_000, record(9));
        });
        sim.run_to_completion(1000);
        let done = &sim.world.ext.get::<Done>().unwrap().0;
        assert_eq!(done.len(), 1);
        assert!((done[0].1 - 1.5).abs() < 1e-6, "chained at {}", done[0].1);
        assert_eq!(sim.world.storage.transfers_completed, 2);
    }

    #[test]
    fn brownout_throttles_then_recovers() {
        let mut sim = world();
        // 80 MB at 80 MB/s. Brownout to 25% over [0.5 s, 1.0 s):
        // 40 MB in the first 0.5 s, 10 MB during the brownout, remaining
        // 30 MB at full rate → 0.375 s more. Total 1.375 s.
        start_transfer(&mut sim, 80_000_000, record(1));
        sim.schedule_at(SimTime::from_secs_f64(0.5), |sim| {
            set_rate_factor(sim, 0.25)
        });
        sim.schedule_at(SimTime::from_secs_f64(1.0), |sim| set_rate_factor(sim, 1.0));
        sim.run_to_completion(1000);
        let done = &sim.world.ext.get::<Done>().unwrap().0;
        assert_eq!(done.len(), 1);
        assert!((done[0].1 - 1.375).abs() < 1e-6, "t = {}", done[0].1);
    }

    #[test]
    fn checked_transfer_fails_under_fault_window_and_retry_recovers() {
        let mut sim = world();
        // Certain failure during [0, 2 s); transfers take 1 s each.
        sim.world.faults.window(
            "storage.fail",
            None,
            SimTime::ZERO,
            SimTime::from_secs(2),
            1.0,
        );
        start_transfer_checked(&mut sim, 80_000_000, |sim, ok| {
            assert!(!ok, "must fail inside the window");
            sim.world.ext.insert(true);
        });
        sim.run_to_completion(1000);
        assert!(sim.world.ext.get::<bool>().copied().unwrap_or(false));
        assert_eq!(sim.world.storage.transfers_failed, 1);

        // With retry: first attempt completes at 1 s and fails (in-window);
        // backoff 0.5 s → second attempt spans [1.5, 2.5] and completes
        // outside the window → success, one retry on the books.
        let mut sim = world();
        sim.world.faults.window(
            "storage.fail",
            None,
            SimTime::ZERO,
            SimTime::from_secs(2),
            1.0,
        );
        transfer_with_retry(&mut sim, 80_000_000, |sim, ok| {
            assert!(ok, "retry should land past the outage");
            let t = sim.now().as_secs_f64();
            sim.world.ext.get_or_default::<Done>().0.push((7, t));
        });
        sim.run_to_completion(1000);
        let done = &sim.world.ext.get::<Done>().unwrap().0;
        assert_eq!(done.len(), 1);
        assert!((done[0].1 - 2.5).abs() < 1e-6, "t = {}", done[0].1);
        assert_eq!(sim.world.storage.retries, 1);
        assert_eq!(sim.world.storage.transfers_failed, 1);
    }

    #[test]
    fn bounded_retry_gives_up() {
        let mut sim = world();
        sim.world.faults.steady("storage.fail", 1.0);
        transfer_with_retry(&mut sim, 10_000_000, |sim, ok| {
            assert!(!ok);
            sim.world.ext.insert(42u64);
        });
        sim.run_to_completion(1000);
        assert_eq!(sim.world.ext.get::<u64>().copied(), Some(42));
        let max = sim.world.cfg.storage_retry.max_attempts as u64;
        assert_eq!(sim.world.storage.transfers_failed, max);
        assert_eq!(sim.world.storage.retries, max - 1);
    }

    #[test]
    fn many_writers_match_analytic_makespan() {
        let mut sim = world();
        // 26 × 10 MB = 260 MB through a 100 MB/s array: 2.6 s makespan.
        for i in 0..26 {
            start_transfer(&mut sim, 10_000_000, record(i));
        }
        sim.run_to_completion(10_000);
        let done = &sim.world.ext.get::<Done>().unwrap().0;
        assert_eq!(done.len(), 26);
        for &(_, t) in done {
            assert!((t - 2.6).abs() < 1e-6);
        }
    }
}
