//! Data-parallel campaign runner.
//!
//! Experiment campaigns (e.g. the paper's ">2000 checkpoint tests") run many
//! *independent, single-threaded, seeded* simulations. This module fans the
//! trials out across OS threads with a shared atomic work index — the
//! simplest correct work-distribution scheme, and the right one here because
//! trials are coarse-grained (milliseconds to seconds each) so stealing
//! granularity doesn't matter.
//!
//! Results stream back over a channel and are reassembled **in trial order**,
//! so campaign output is identical whatever the thread count — determinism
//! survives parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `f(trial_index, seed)` for `n_trials` trials in parallel, deriving the
/// seed of trial *i* as `splitmix64(master_seed ⊕ splitmix64(i))`.
///
/// Returns results indexed by trial number (order-independent of threading).
pub fn run_trials<T, F>(n_trials: usize, master_seed: u64, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();

    std::thread::scope(|scope| {
        for _ in 0..threads.min(n_trials.max(1)) {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_trials {
                    break;
                }
                let seed = crate::rng::splitmix64(master_seed ^ crate::rng::splitmix64(i as u64));
                let out = f(i, seed);
                if tx.send((i, out)).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        let mut slots: Vec<Option<T>> = Vec::with_capacity(n_trials);
        slots.resize_with(n_trials, || None);
        for (i, out) in rx {
            slots[i] = Some(out);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.unwrap_or_else(|| panic!("trial {i} produced no result")))
            .collect()
    })
}

/// A sensible default worker count: available parallelism, capped at 16
/// (campaign trials are memory-bandwidth-bound; more threads stop helping).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_trial_order() {
        let out = run_trials(64, 9, 8, |i, _seed| i * 2);
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn seeds_are_thread_count_independent() {
        let a = run_trials(32, 123, 1, |_i, seed| seed);
        let b = run_trials(32, 123, 8, |_i, seed| seed);
        assert_eq!(a, b);
        // and distinct per trial
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len());
    }

    #[test]
    fn zero_trials_is_empty() {
        let out: Vec<u64> = run_trials(0, 1, 4, |_, s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_works() {
        let out = run_trials(5, 7, 1, |i, _| i);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn parallel_trials_actually_run_concurrently_safe() {
        // Hammer with enough trials to exercise contention on the index.
        let out = run_trials(1000, 5, default_threads(), |i, seed| (i, seed));
        for (i, (ti, _)) in out.iter().enumerate() {
            assert_eq!(i, *ti);
        }
    }
}
